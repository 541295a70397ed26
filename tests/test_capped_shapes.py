"""The trie's capped pattern shapes and their ids (repro.perf.trie).

The library side of the matcher's shape filter: every pattern's tree
cut off at :data:`SHAPE_DEPTH_CAP` levels, interned into the id space a
matcher extends with subject cone shapes, and the per-kind ids the
filter reads in ``for_root`` order.
"""

import hashlib

import pytest

from repro.library.builtin import lib2_like, lib44_1, lib44_3, mini_library
from repro.library.patterns import PatternSet
from repro.perf.trie import SHAPE_DEPTH_CAP, PatternTrie, pattern_shape

#: The pattern sets the mapper's experiments use: (library, variants).
LIBRARIES = {
    "lib2": (lib2_like, 8),
    "44-1": (lib44_1, 8),
    "44-3": (lib44_3, 4),
    "mini": (mini_library, 8),
}


@pytest.fixture(scope="module", params=sorted(LIBRARIES))
def built(request):
    """(pattern set, fresh trie) for each library of :data:`LIBRARIES`."""
    factory, variants = LIBRARIES[request.param]
    patterns = PatternSet(factory(), max_variants=variants)
    return patterns, PatternTrie(patterns)


class TestRecorded:
    def test_recorded_digest(self, built):
        # Recorded shapes, shape ids and per-kind ids (sha256 of their
        # repr, first 16 hex digits): a change here changes which
        # patterns the shape filter admits at which nodes.
        patterns, trie = built
        shapes = tuple(pattern_shape(p) for p in patterns.patterns)
        by_kind = sorted((kind.name, ids) for kind, ids in trie.capped_ids.items())
        blob = repr((shapes, trie.capped_keys, by_kind))
        digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
        assert digest == {
            "lib2": "e823e7ab7b4025a1",
            "44-1": "ebbc02b601e76d9d",
            "44-3": "dee23b662f935171",
            "mini": "ba3fc8bd4a26da4f",
        }[patterns.library.name]


class TestShapes:
    @staticmethod
    def _depth(shape):
        if shape == ("?",):
            return 0
        return 1 + max(TestShapes._depth(child) for child in shape[1:])

    def test_one_shape_per_pattern_well_formed(self, lib441_patterns):
        def check(shape):
            assert shape[0] in ("?", "I", "N")
            if shape[0] == "?":
                assert shape == ("?",)
            elif shape[0] == "I":
                check(shape[1])
            else:
                a, b = shape[1], shape[2]
                assert a <= b  # NAND children canonically ordered
                check(a)
                check(b)

        for pattern in lib441_patterns.patterns:
            shape = pattern_shape(pattern)
            check(shape)
            assert self._depth(shape) <= SHAPE_DEPTH_CAP

    def test_depth_cap_truncates_to_wildcards(self, lib441_patterns):
        for pattern in lib441_patterns.patterns:
            shallow = pattern_shape(pattern, depth_cap=1)
            assert self._depth(shallow) <= 1
        # some 44-1 pattern is deeper than one level, so capping matters
        assert any(
            pattern_shape(p, depth_cap=1) != pattern_shape(p)
            for p in lib441_patterns.patterns
        )


class TestTrieShapes:
    def test_built_once_per_pattern_set(self, mini_patterns):
        trie = mini_patterns.trie
        assert mini_patterns.trie is trie
        fresh = PatternTrie(mini_patterns)
        assert trie.capped_keys == fresh.capped_keys
        assert trie.capped_ids == fresh.capped_ids

    def test_ids_decode_to_shapes(self, lib441_patterns):
        trie = PatternTrie(lib441_patterns)

        def decode(sid):
            key = trie.capped_keys[sid]
            if key is None:
                assert sid == 0  # sid 1 is the subject-PI marker
                return ("?",)
            if len(key) == 1:
                return ("I", decode(key[0]))
            a, b = decode(key[0]), decode(key[1])
            return ("N", a, b) if a <= b else ("N", b, a)

        assert trie.capped_keys[:2] == (None, None)
        for kind, members in lib441_patterns.by_root_kind.items():
            sids = trie.capped_ids[kind]
            assert len(sids) == len(members)
            for pattern, sid in zip(members, sids):
                assert decode(sid) == pattern_shape(pattern)
