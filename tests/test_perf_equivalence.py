"""The perf layer is invisible to results.

The :mod:`repro.perf` caches (cone signatures, pattern-trie grouping,
interned feasibility shapes) and the multiprocessing suite runner must
change *nothing* observable:

* at every node the matcher finds exactly the matches of the
  certificate's reference enumerator
  (:class:`repro.check.reference_match.ReferenceMatcher`), which shares
  none of the caches: identity sets and ``n_matches`` compare exactly,
  and the delay bound through C006's tolerance (the relabeling takes
  the exact minimum, labeling breaks near-ties with an epsilon);
* a matcher shared across circuits gives byte-identical arrivals and
  best matches (pattern and exact binding) to a fresh one, because the
  best-match tie-breaking in labeling is order-sensitive;
* parallel table rows equal serial ones.
"""

import pytest

from repro.bench.suite import TABLE1_NAMES, TABLE23_NAMES, build_subject
from repro.check import certify_mapping
from repro.check.reference_match import ReferenceMatcher
from repro.core.dag_mapper import map_dag
from repro.core.labeling import compute_labels
from repro.core.match import Matcher, MatchKind
from repro.core.tree_mapper import map_tree
from repro.harness.experiment import run_tree_vs_dag
from repro.library.builtin import lib44_1
from repro.library.patterns import PatternSet


@pytest.fixture(scope="module")
def patterns():
    return PatternSet(lib44_1(), max_variants=8)


def _best_identity(labels):
    """(pattern identity, exact binding) of every best match."""
    out = []
    for match in labels.best:
        if match is None:
            out.append(None)
        else:
            out.append(
                (
                    id(match.pattern),
                    tuple(sorted(
                        (uid, node.uid) for uid, node in match.binding.items()
                    )),
                )
            )
    return out


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_cached_labeling_identical_to_seed(name, patterns):
    """The matcher's match sets are the reference enumerator's."""
    _, subject = build_subject(name)
    for kind in (MatchKind.STANDARD, MatchKind.EXACT):
        matcher = Matcher(patterns, kind)
        fast = compute_labels(subject, patterns, kind=kind, matcher=matcher)
        reference = ReferenceMatcher(patterns, kind, subject)
        n_matches = 0
        for node in subject.topological():
            want = {m.identity() for m in reference.matches_at(node)}
            got = {m.identity() for m in matcher.matches_at(node)}
            assert got == want, (name, kind, node.uid)
            n_matches += len(want)
        assert fast.n_matches == n_matches
        assert fast.match_stats["signature_hits"] > 0


@pytest.mark.parametrize("name", ["C432s", "C6288s"])
def test_cached_mapping_identical_results(name, patterns):
    """Both mappers' delay is the reference relabeling's (C006)."""
    _, subject = build_subject(name)
    for result in (map_dag(subject, patterns), map_tree(subject, patterns)):
        report = certify_mapping(result, patterns=patterns)
        assert not report.has_errors, report.format()


def test_shared_matcher_across_circuits(patterns):
    """One matcher reused over the suite replays, never diverges."""
    shared = Matcher(patterns, MatchKind.STANDARD)
    for name in ("C432s", "C880s"):
        _, subject = build_subject(name)
        fresh = compute_labels(subject, patterns)
        fast = compute_labels(subject, patterns, matcher=shared)
        assert fast.arrival == fresh.arrival
        assert _best_identity(fast) == _best_identity(fresh)
    # The cache is subject-independent, so the second circuit must have
    # reused signatures learned on the first.
    assert shared.stats.signature_hits > 0


def test_parallel_rows_equal_serial(patterns):
    names = TABLE23_NAMES[:3]
    serial = run_tree_vs_dag(patterns, names=names)
    parallel = run_tree_vs_dag(
        patterns, names=names, jobs=len(names), library_spec="44-1"
    )
    assert len(parallel) == len(serial)
    for a, b in zip(serial, parallel):
        assert b.circuit == a.circuit
        assert b.tree_delay == a.tree_delay
        assert b.dag_delay == a.dag_delay
        assert b.tree_area == a.tree_area
        assert b.dag_area == a.dag_area
        assert b.verified
        assert b.dag_counters["signature_misses"] > 0

