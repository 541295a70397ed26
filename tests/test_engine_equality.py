"""The filter-agrees gate: the matcher with its cut filter on vs off.

The cut filter is a pure acceleration — a sound pre-filter in front of
the same injective matcher — so on every Table-2 (44-1, 8 variants) and
Table-3 (44-3, 4 variants) suite circuit the filter forced on and forced
off must produce *identical* delay, area and mapped-BLIF bytes, for DAG
covering and tree covering alike, whatever the matcher's own rule would
pick.  Any divergence is a bug in the filter (see also fuzz oracle F009,
which hunts the same property on random circuits).  The rule itself is
checked case by case in ``TestFilterRule``.
"""

import pytest

from repro.bench.suite import TABLE23_NAMES, build_subject
from repro.core.dag_mapper import map_dag
from repro.core.labeling import compute_labels
from repro.core.match import (
    CUT_FILTER_MIN_GATES,
    CUT_FILTER_MIN_GROUPS,
    MatchKind,
    Matcher,
)
from repro.core.tree_mapper import map_tree
from repro.errors import MappingError
from repro.fuzz.generator import FuzzConfig, random_dag
from repro.library.builtin import lib2_like, lib44_3
from repro.library.patterns import PatternSet
from repro.network.decompose import decompose_network
from repro.network.mapped_io import dumps_mapped_blif
from repro.perf.trie import PatternTrie


@pytest.fixture(scope="module")
def lib443_patterns():
    return PatternSet(lib44_3(), max_variants=4)


@pytest.fixture(scope="module")
def subjects():
    return {name: build_subject(name)[1] for name in TABLE23_NAMES}


def both_filters(mapper, subject, patterns, kind=MatchKind.STANDARD,
                 cache=True):
    """Map with the cut filter forced off, then forced on."""
    kwargs = {}
    if mapper is map_tree:
        kind = MatchKind.EXACT
    else:
        kwargs["kind"] = kind
    results = []
    for cut_filter in (False, True):
        matcher = Matcher(patterns, kind, cache=cache, cut_filter=cut_filter)
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


class TestReferencePath:
    """The uncached matcher path must agree too (one circuit is enough —
    the cached path re-derives from it)."""

    def test_dag_uncached_identical(self, lib441_patterns, subjects):
        subject = subjects["C2670s"]
        s, c = both_filters(map_dag, subject, lib441_patterns, cache=False)
        assert outputs(c) == outputs(s)


class TestEngineSelection:
    def test_extended_kind_rejected_for_cuts(self, lib441_patterns):
        with pytest.raises(MappingError, match="standard/exact"):
            Matcher(lib441_patterns, MatchKind.EXTENDED, cut_filter=True)

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

    @pytest.mark.parametrize("library,variants,kind,cache,expected", [
        ("44-3", 4, MatchKind.STANDARD, True, True),
        ("44-3", 4, MatchKind.EXACT, True, True),
        ("44-1", 8, MatchKind.STANDARD, True, False),
        ("lib2", 8, MatchKind.STANDARD, True, False),
        ("mini", 8, MatchKind.STANDARD, True, False),
        ("44-3", 4, MatchKind.EXTENDED, True, False),
        ("44-3", 4, MatchKind.STANDARD, False, False),
    ])
    def test_rule_on_c3540s(self, library, variants, kind, cache, expected,
                            subjects, lib441_patterns, lib443_patterns):
        patterns = {
            "44-3": lib443_patterns,
            "44-1": lib441_patterns,
        }.get(library)
        if patterns is None:
            from repro.perf.parallel import resolve_library

            patterns = PatternSet(resolve_library(library),
                                  max_variants=variants)
        matcher = Matcher(patterns, kind, cache=cache)
        matcher.attach(subjects["C3540s"])
        assert matcher.filter_on is expected

    def test_thresholds_split_the_builtin_libraries(self, lib441_patterns,
                                                   lib443_patterns):
        assert len(PatternTrie(lib443_patterns).groups) >= CUT_FILTER_MIN_GROUPS
        for patterns in (lib441_patterns,
                         PatternSet(lib2_like(), max_variants=8)):
            assert len(PatternTrie(patterns).groups) < CUT_FILTER_MIN_GROUPS

    def test_off_below_the_gate_threshold(self, lib443_patterns):
        subject = fuzz_subject(8)
        assert subject.n_gates < CUT_FILTER_MIN_GATES
        matcher = Matcher(lib443_patterns)
        matcher.attach(subject)
        assert not matcher.filter_on

    def test_forcing_overrides_the_rule(self, subjects, lib441_patterns,
                                        lib443_patterns):
        on = Matcher(lib441_patterns, cut_filter=True)
        on.attach(fuzz_subject(8))
        assert on.filter_on
        off = Matcher(lib443_patterns, cut_filter=False)
        off.attach(subjects["C3540s"])
        assert not off.filter_on

    def test_shared_matcher_alternating_sizes(self, lib443_patterns):
        """One matcher switching the filter per subject == fresh ones."""
        small, large = fuzz_subject(8), fuzz_subject(40)
        assert small.n_gates < CUT_FILTER_MIN_GATES <= large.n_gates
        shared = Matcher(lib443_patterns)
        for subject in (small, large, small, large):
            got = compute_labels(subject, lib443_patterns, matcher=shared,
                                 keep_matches=True)
            assert shared.filter_on is (subject is large)
            fresh = compute_labels(subject, lib443_patterns,
                                   matcher=Matcher(lib443_patterns),
                                   keep_matches=True)
            for mine, theirs in zip(got.matches_per_node,
                                    fresh.matches_per_node):
                assert [m.identity() for m in mine] == [
                    m.identity() for m in theirs
                ]
            assert got.arrival == fresh.arrival
        assert shared.stats.cut_filter_nodes > 0
        assert shared.stats.signature_hits > 0
