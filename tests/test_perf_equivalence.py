"""The perf layer is invisible to results: cached == uncached == parallel.

The :mod:`repro.perf` caches (cone signatures, pattern-trie grouping,
interned feasibility shapes) and the multiprocessing suite runner must
change *nothing* observable: per-node arrival times, the identity of the
selected best match (pattern and exact binding), delay and area all have
to be byte-identical to the seed's direct matching path, because the
best-match tie-breaking in labeling is order-sensitive.
"""

import pytest

from repro.bench.suite import TABLE1_NAMES, TABLE23_NAMES, build_subject
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


def reference(patterns, kind=MatchKind.STANDARD):
    """The seed's direct matching path (no perf caches)."""
    return Matcher(patterns, kind, cache=False)


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
    _, subject = build_subject(name)
    for kind in (MatchKind.STANDARD, MatchKind.EXACT):
        seed = compute_labels(subject, patterns, kind=kind,
                              matcher=reference(patterns, kind))
        fast = compute_labels(subject, patterns, kind=kind)
        # Byte-identical arrivals: same matches in the same order feed
        # the same float arithmetic, so == (not approx) is the contract.
        assert fast.arrival == seed.arrival
        assert fast.po_arrival == seed.po_arrival
        assert fast.n_matches == seed.n_matches
        assert _best_identity(fast) == _best_identity(seed)
        assert fast.match_stats["signature_hits"] > 0


@pytest.mark.parametrize("name", ["C432s", "C6288s"])
def test_cached_mapping_identical_results(name, patterns):
    _, subject = build_subject(name)
    dag_seed = map_dag(subject, patterns, matcher=reference(patterns))
    dag_fast = map_dag(subject, patterns)
    assert dag_fast.delay == dag_seed.delay
    assert dag_fast.area == dag_seed.area
    tree_seed = map_tree(subject, patterns,
                         matcher=reference(patterns, MatchKind.EXACT))
    tree_fast = map_tree(subject, patterns)
    assert tree_fast.delay == tree_seed.delay
    assert tree_fast.area == tree_seed.area


def test_shared_matcher_across_circuits(patterns):
    """One matcher reused over the suite replays, never diverges."""
    shared = Matcher(patterns, MatchKind.STANDARD, cache=True)
    for name in ("C432s", "C880s"):
        _, subject = build_subject(name)
        seed = compute_labels(subject, patterns, matcher=reference(patterns))
        fast = compute_labels(subject, patterns, matcher=shared)
        assert fast.arrival == seed.arrival
        assert _best_identity(fast) == _best_identity(seed)
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


def test_uncached_path_reports_no_cache_traffic(patterns):
    _, subject = build_subject("C432s")
    result = map_dag(subject, patterns, matcher=reference(patterns))
    assert result.counters["signature_hits"] == 0
    assert result.counters["signature_misses"] == 0
