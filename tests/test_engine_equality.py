"""The filter-agrees gate: the matcher with its cut filter on vs off.

The cut filter is a pure acceleration — a sound pre-filter in front of
the same matcher — so on every Table-2/3 suite circuit under
44-1 (8 variants), 44-3 (4 variants) and lib2 (8 variants) the filter
forced on and forced off must produce *identical* delay, area and
mapped-BLIF bytes, for DAG covering and tree covering alike, whatever
the matcher's own rule would pick.  Any divergence is a bug in the
filter (see also fuzz oracle F009, which hunts the same property on
random circuits).  The rule itself is checked case by case in
``TestFilterRule``.
"""

import pytest

from repro.bench.suite import TABLE23_NAMES, build_subject
from repro.check import certify_mapping
from repro.core.dag_mapper import map_dag
from repro.core.labeling import compute_labels
from repro.core.match import CUT_FILTER_MIN_GROUPS, MatchKind, Matcher
from repro.core.tree_mapper import map_tree
from repro.fuzz.generator import FuzzConfig, random_dag
from repro.library.builtin import lib2_like, lib44_3
from repro.library.patterns import PatternSet
from repro.network.decompose import decompose_network
from repro.network.mapped_io import dumps_mapped_blif


@pytest.fixture(scope="module")
def lib443_patterns():
    return PatternSet(lib44_3(), max_variants=4)


@pytest.fixture(scope="module")
def lib2_patterns():
    return PatternSet(lib2_like(), max_variants=8)


@pytest.fixture(scope="module")
def subjects():
    return {name: build_subject(name)[1] for name in TABLE23_NAMES}


def both_filters(mapper, subject, patterns, kind=MatchKind.STANDARD):
    """Map with the cut filter forced off, then forced on."""
    kwargs = {}
    if mapper is map_tree:
        kind = MatchKind.EXACT
    else:
        kwargs["kind"] = kind
    results = []
    for cut_filter in (False, True):
        matcher = Matcher(patterns, kind, cut_filter=cut_filter)
        results.append(mapper(subject, patterns, matcher=matcher, **kwargs))
    off, on = results
    assert off.counters["cut_filter_nodes"] == 0
    assert on.counters["cut_filter_nodes"] > 0
    return off, on


def outputs(result):
    return result.delay, result.area, dumps_mapped_blif(result.netlist)


class TestTable2:
    """44-1 library, 8 variants (the paper's Table 2 regime)."""

    @pytest.mark.parametrize("name", TABLE23_NAMES)
    def test_dag_identical(self, name, subjects, lib441_patterns):
        s, c = both_filters(map_dag, subjects[name], lib441_patterns)
        assert outputs(c) == outputs(s)

    @pytest.mark.parametrize("name", TABLE23_NAMES)
    def test_tree_identical(self, name, subjects, lib441_patterns):
        s, c = both_filters(map_tree, subjects[name], lib441_patterns)
        assert outputs(c) == outputs(s)


class TestTable3:
    """44-3 library (625 gates), 4 variants (the Table 3 regime)."""

    @pytest.mark.parametrize("name", TABLE23_NAMES)
    def test_dag_identical(self, name, subjects, lib443_patterns):
        s, c = both_filters(map_dag, subjects[name], lib443_patterns)
        assert outputs(c) == outputs(s)

    @pytest.mark.parametrize("name", TABLE23_NAMES)
    def test_tree_identical(self, name, subjects, lib443_patterns):
        s, c = both_filters(map_tree, subjects[name], lib443_patterns)
        assert outputs(c) == outputs(s)


class TestLib2:
    """lib2-like library (17 gates), 8 variants: below the rule's
    threshold, so only forcing runs the filter here."""

    @pytest.mark.parametrize("name", TABLE23_NAMES)
    def test_dag_identical(self, name, subjects, lib2_patterns):
        s, c = both_filters(map_dag, subjects[name], lib2_patterns)
        assert outputs(c) == outputs(s)

    @pytest.mark.parametrize("name", TABLE23_NAMES)
    def test_tree_identical(self, name, subjects, lib2_patterns):
        s, c = both_filters(map_tree, subjects[name], lib2_patterns)
        assert outputs(c) == outputs(s)


class TestEngineSelection:
    @pytest.mark.parametrize("library", ["44-3", "44-1"])
    def test_extended_kind_identical(self, library, subjects,
                                     lib441_patterns, lib443_patterns):
        patterns = {"44-3": lib443_patterns, "44-1": lib441_patterns}[library]
        s, c = both_filters(
            map_dag, subjects["C2670s"], patterns, kind=MatchKind.EXTENDED
        )
        assert outputs(c) == outputs(s)

    def test_exact_kind_allowed_for_cuts(self, subjects, lib441_patterns):
        subject = subjects["C2670s"]
        s, c = both_filters(
            map_dag, subject, lib441_patterns, kind=MatchKind.EXACT
        )
        assert outputs(c) == outputs(s)

    def test_filter_counters_populate(self, subjects, lib441_patterns):
        subject = subjects["C2670s"]
        matcher = Matcher(lib441_patterns, cut_filter=True)
        result = map_dag(subject, lib441_patterns, matcher=matcher)
        assert result.counters["cut_filter_nodes"] > 0
        assert matcher.stats.cut_filter_nodes > 0
        assert matcher.stats.cut_patterns_pruned > 0


def fuzz_subject(nodes, seed=3):
    return decompose_network(
        random_dag(FuzzConfig(n_inputs=6, n_nodes=nodes, seed=seed))
    )


class TestFilterRule:
    """When the matcher turns its cut filter on by itself."""

    # ``rule``: the matcher applies its own rule (True) or has the filter
    # forced off, its only path switch (False).
    @pytest.mark.parametrize("library,variants,kind,rule,expected", [
        ("44-3", 4, MatchKind.STANDARD, True, True),
        ("44-3", 4, MatchKind.EXACT, True, True),
        ("44-1", 8, MatchKind.STANDARD, True, False),
        ("lib2", 8, MatchKind.STANDARD, True, False),
        ("mini", 8, MatchKind.STANDARD, True, False),
        ("44-3", 4, MatchKind.EXTENDED, True, True),
        ("44-3", 4, MatchKind.STANDARD, False, False),
    ])
    def test_rule_on_c3540s(self, library, variants, kind, rule, expected,
                            subjects, lib441_patterns, lib443_patterns):
        patterns = {
            "44-3": lib443_patterns,
            "44-1": lib441_patterns,
        }.get(library)
        if patterns is None:
            from repro.perf.parallel import resolve_library

            patterns = PatternSet(resolve_library(library),
                                  max_variants=variants)
        matcher = Matcher(patterns, kind, cut_filter=None if rule else False)
        matcher.attach(subjects["C3540s"])
        assert matcher.filter_on is expected

    def test_thresholds_split_the_builtin_libraries(self, lib441_patterns,
                                                   lib443_patterns,
                                                   lib2_patterns):
        assert len(lib443_patterns.trie.groups) >= CUT_FILTER_MIN_GROUPS
        for patterns in (lib441_patterns, lib2_patterns):
            assert len(patterns.trie.groups) < CUT_FILTER_MIN_GROUPS

    def test_on_for_a_small_443_subject(self, lib441_patterns,
                                        lib443_patterns, lib2_patterns):
        subject = fuzz_subject(8)
        for patterns, kind, expected in (
            (lib443_patterns, MatchKind.STANDARD, True),
            (lib443_patterns, MatchKind.EXACT, True),
            (lib443_patterns, MatchKind.EXTENDED, True),
            (lib441_patterns, MatchKind.STANDARD, False),
            (lib2_patterns, MatchKind.STANDARD, False),
        ):
            matcher = Matcher(patterns, kind)
            matcher.attach(subject)
            assert matcher.filter_on is expected, (patterns, kind)

    def test_forcing_overrides_the_rule(self, subjects, lib441_patterns,
                                        lib443_patterns):
        on = Matcher(lib441_patterns, cut_filter=True)
        on.attach(fuzz_subject(8))
        assert on.filter_on
        off = Matcher(lib443_patterns, cut_filter=False)
        off.attach(subjects["C3540s"])
        assert not off.filter_on

    @pytest.mark.parametrize("kind", list(MatchKind))
    def test_shared_matcher_across_seeded_subjects(self, kind,
                                                   lib443_patterns):
        """One filtering matcher across many subjects, its kept-list
        memo carried from each to the next, lists every node's matches
        as a fresh matcher and an unfiltered one do."""
        shared = Matcher(lib443_patterns, kind)
        memo = None
        for seed in range(20):
            subject = fuzz_subject(6 + seed * 34 // 19, seed=seed)
            fresh = Matcher(lib443_patterns, kind)
            off = Matcher(lib443_patterns, kind, cut_filter=False)
            for matcher in (shared, fresh, off):
                matcher.attach(subject)
            assert shared.filter_on and fresh.filter_on and not off.filter_on
            memo = memo if memo is not None else shared._filtered_memo
            assert shared._filtered_memo is memo  # survives attach
            for node in subject.topological():
                want = [m.identity() for m in off.matches_at(node)]
                assert [m.identity() for m in shared.matches_at(node)] == want
                assert [m.identity() for m in fresh.matches_at(node)] == want
        assert shared.stats.cut_cone_hits > 0
        assert shared.stats.cut_filter_nodes > shared.stats.cut_cone_hits

    def test_only_the_kept_list_memo_survives_attach(self, lib443_patterns):
        """The kept lists live as long as the matcher; the embed memo
        and the cone shapes belong to one attached subject."""
        matcher = Matcher(lib443_patterns)
        first, second = fuzz_subject(30, seed=1), fuzz_subject(30, seed=2)
        matcher.attach(first)
        for node in first.topological():
            matcher.matches_at(node)
        kept, n_kept = matcher._filtered_memo, len(matcher._filtered_memo)
        assert n_kept > 0 and matcher._embed_memo and matcher._cone_shapes
        matcher.attach(second)
        assert matcher._filtered_memo is kept and len(kept) == n_kept
        assert not matcher._embed_memo and not matcher._cone_shapes
        for node in second.topological():
            matcher.matches_at(node)
        assert matcher.stats.cut_cone_hits > 0


def trie_state(trie):
    """A trie's groups, memberships and shape ids, comparable by value."""
    index = {id(group): i for i, group in enumerate(trie.groups)}
    return (
        [(id(g.rep), [id(m) for m in g.members], g.translations)
         for g in trie.groups],
        {pid: index[id(group)] for pid, group in trie.group_of.items()},
        trie.shape_of,
        trie.n_shapes,
        trie.capped_keys,
        trie.capped_ids,
    )


class TestPatternSideBuiltOnce:
    """The pattern set builds its trie lazily, at most once, and no
    matcher writes to it."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        from repro.perf import trie

        counts = {"trie": 0}
        real_trie = trie.PatternTrie

        def count_trie(patterns):
            counts["trie"] += 1
            return real_trie(patterns)

        monkeypatch.setattr(trie, "PatternTrie", count_trie)
        return counts

    def test_construction_builds_neither(self, builds):
        result = map_dag(fuzz_subject(8), PatternSet(lib2_like(), 8))
        mapped = dict(builds)
        patterns = PatternSet(lib2_like(), max_variants=8)
        Matcher(patterns)
        assert builds == mapped
        # C006's independent relabeling needs neither
        report = certify_mapping(result, patterns=patterns)
        assert not report.has_errors, report.format()
        assert report.meta["relabel_steps"] > 0
        assert builds == mapped
        assert "trie" not in vars(patterns)

    def test_two_matchers_share_one_build(self, builds, subjects):
        patterns = PatternSet(lib2_like(), max_variants=8)
        first = Matcher(patterns, cut_filter=True)
        compute_labels(subjects["C3540s"], patterns, matcher=first)
        trie = patterns.trie
        second = Matcher(patterns, cut_filter=True)
        compute_labels(subjects["C2670s"], patterns, matcher=second)
        assert patterns.trie is trie
        assert builds == {"trie": 1}

    def test_filter_leaves_pattern_side_unchanged(self, subjects,
                                                  lib443_patterns):
        from repro.perf.trie import PatternTrie

        first = Matcher(lib443_patterns)
        compute_labels(subjects["C6288s"], lib443_patterns, matcher=first)
        assert first.filter_on
        fresh_trie = PatternTrie(lib443_patterns)
        assert trie_state(lib443_patterns.trie) == trie_state(fresh_trie)
        # the cone shapes went into the matcher's copy of the id space
        assert len(first._shape_keys) > len(fresh_trie.capped_keys)
        # ... so a later matcher numbers its cone shapes as it would on
        # a pattern set no matcher has used
        subject = fuzz_subject(40)
        second = Matcher(lib443_patterns, cut_filter=True)
        compute_labels(subject, lib443_patterns, matcher=second)
        untouched = PatternSet(lib44_3(), max_variants=4)
        own = Matcher(untouched, cut_filter=True)
        compute_labels(subject, untouched, matcher=own)
        assert second._cone_shapes and second._cone_shapes == own._cone_shapes
