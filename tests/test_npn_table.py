"""The precomputed NPN-class table (repro.library.npn_table).

Covers the library side of the matcher's cut filter: chain
construction, the chain-orbit map the chains are classified through
(differentially against the exhaustive :func:`npn_canonical`), shapes,
the filter's ids, and the one table each pattern set builds.
"""

import hashlib
from itertools import permutations

import pytest

from repro.library import npn_table
from repro.library.builtin import lib2_like, lib44_1, lib44_3, mini_library
from repro.library.npn_table import build_npn_table, pattern_chain, pattern_shape
from repro.library.patterns import PatternSet
from repro.network.functions import TruthTable
from repro.network.npn import NPNTransform, apply_transform, npn_canonical

#: The pattern sets the mapper's experiments use: (library, variants).
LIBRARIES = {
    "lib2": (lib2_like, 8),
    "44-1": (lib44_1, 8),
    "44-3": (lib44_3, 4),
    "mini": (mini_library, 8),
}


def fresh(patterns):
    """A new build, bypassing the pattern set's own table."""
    return build_npn_table(patterns)


@pytest.fixture(scope="module", params=sorted(LIBRARIES))
def built(request):
    """(pattern set, fresh table) for each library of :data:`LIBRARIES`."""
    factory, variants = LIBRARIES[request.param]
    patterns = PatternSet(factory(), max_variants=variants)
    return patterns, fresh(patterns)


class TestChains:
    def test_one_chain_per_pattern_in_order(self, lib441_patterns):
        table = fresh(lib441_patterns)
        assert len(table.chains) == len(lib441_patterns.patterns)
        for i, pattern in enumerate(lib441_patterns.patterns):
            assert table.chains[i] == pattern_chain(
                pattern, k=table.k, depth_cap=table.depth_cap
            )

    def test_chain_entries_well_formed(self, lib441_patterns):
        table = fresh(lib441_patterns)
        for chain in table.chains:
            for t, n, bits in chain:
                assert 1 <= t <= table.depth_cap
                assert 1 <= n <= table.k
                assert 0 <= bits < (1 << (1 << n))
            # truncation heights strictly increase along a chain
            heights = [t for t, _, _ in chain]
            assert heights == sorted(set(heights))

    def test_chain_frontiers_are_canonical(self, lib441_patterns):
        table = fresh(lib441_patterns)
        for chain in table.chains:
            for _t, n, bits in chain:
                canonical, _ = npn_canonical(TruthTable(n, bits))
                assert canonical.bits == bits


class TestChainOrbits:
    """The map the matcher's cut filter uses instead of canonicalising."""

    def test_exactly_the_chain_classes(self, lib441_patterns):
        table = fresh(lib441_patterns)
        classes = {(n, bits) for chain in table.chains for _t, n, bits in chain}
        assert set(table.chain_orbits.values()) == classes
        for (n, bits), cls in table.chain_orbits.items():
            canonical, _ = npn_canonical(TruthTable(n, bits))
            assert (n, canonical.bits) == cls
        # complete where the function space is small enough to sweep
        for n in {n for n, _ in classes if n <= 3}:
            for bits in range(1 << (1 << n)):
                canonical, _ = npn_canonical(TruthTable(n, bits))
                if (n, canonical.bits) in classes:
                    assert (n, bits) in table.chain_orbits


class TestSameTable:
    """Chains, orbit map and shapes agree with independent references."""

    def test_chain_entries_match_exhaustive_search(self, built, monkeypatch):
        patterns, table = built
        reference = {}

        def classify(_orbits, n, bits):
            if (n, bits) not in reference:
                reference[(n, bits)] = npn_canonical(TruthTable(n, bits))[0].bits
            return reference[(n, bits)]

        monkeypatch.setattr(npn_table, "_classify", classify)
        for i, pattern in enumerate(patterns.patterns):
            assert table.chains[i] == pattern_chain(pattern)

    def test_orbit_map_is_union_of_chain_class_orbits(self, built):
        _patterns, table = built
        expected = {}
        for n, canonical in {(n, b) for chain in table.chains for _t, n, b in chain}:
            tt = TruthTable(n, canonical)
            for perm in permutations(range(n)):
                for neg in range(1 << n):
                    for out_neg in (False, True):
                        image = apply_transform(NPNTransform(perm, neg, out_neg), tt)
                        expected[(n, image.bits)] = (n, canonical)
        assert table.chain_orbits == expected

    def test_recorded_digest(self, built):
        # Recorded chains, shapes and orbit map (sha256 of their repr,
        # first 16 hex digits): a change here changes which patterns the
        # cut filter admits at which nodes.
        patterns, table = built
        blob = repr((table.chains, table.shapes, sorted(table.chain_orbits.items())))
        digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
        assert digest == {
            "lib2": "702c7d1c1be41e6e",
            "44-1": "65cf0b60eb7d6fe1",
            "44-3": "cadf76c23384d2c4",
            "mini": "92ca237db981ae5b",
        }[patterns.library.name]


class TestShapes:
    @staticmethod
    def _depth(shape):
        if shape == ("?",):
            return 0
        return 1 + max(TestShapes._depth(child) for child in shape[1:])

    def test_one_shape_per_pattern_well_formed(self, lib441_patterns):
        table = fresh(lib441_patterns)
        assert len(table.shapes) == len(lib441_patterns.patterns)

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

        for i, pattern in enumerate(lib441_patterns.patterns):
            shape = table.shapes[i]
            check(shape)
            assert self._depth(shape) <= table.depth_cap
            assert shape == pattern_shape(pattern, table.depth_cap)

    def test_depth_cap_truncates_to_wildcards(self, lib441_patterns):
        deep = fresh(lib441_patterns)
        for pattern in lib441_patterns.patterns:
            shallow = pattern_shape(pattern, depth_cap=1)
            assert self._depth(shallow) <= 1
        # some 44-1 pattern is deeper than one level, so capping matters
        assert any(
            pattern_shape(p, depth_cap=1) != pattern_shape(p, deep.depth_cap)
            for p in lib441_patterns.patterns
        )


class TestPatternSetTable:
    def test_built_once_per_pattern_set(self, mini_patterns):
        table = mini_patterns.npn_table
        assert mini_patterns.npn_table is table
        assert table == fresh(mini_patterns)

    def test_ids_decode_to_chains_and_shapes(self, lib441_patterns):
        table = fresh(lib441_patterns)

        def decode(sid):
            key = table.shape_keys[sid]
            if key is None:
                assert sid == 0  # sid 1 is the subject-PI marker
                return ("?",)
            if len(key) == 1:
                return ("I", decode(key[0]))
            a, b = decode(key[0]), decode(key[1])
            return ("N", a, b) if a <= b else ("N", b, a)

        assert len(set(table.chain_entries)) == len(table.chain_entries)
        position = {id(p): i for i, p in enumerate(lib441_patterns.patterns)}
        for kind, members in lib441_patterns.by_root_kind.items():
            cids = table.chain_ids_by_kind[kind]
            sids = table.shape_ids_by_kind[kind]
            assert len(cids) == len(sids) == len(members)
            for pattern, cid, sid in zip(members, cids, sids):
                i = position[id(pattern)]
                assert table.chain_entries[cid] == table.chains[i]
                assert decode(sid) == table.shapes[i]
