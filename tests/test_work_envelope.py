"""The O(s·p) claim on the s axis, checked with work counters.

Section 3.4 bounds labeling by O(s·p): with the pattern set fixed, the
matching work per subject gate is bounded by a constant.  The matcher's
counters measure that work deterministically — feasibility checks plus
bindings plus binding groups enumerated — so the check needs no timer
and holds on any host.  Over the ``array_multiplier`` family (241, 1,313
and 5,953 gates at widths 4/8/16) the reference path (``cache=False``,
no cross-node memo) must stay inside a fixed per-gate envelope, and the
production path must never do more work than the reference on the same
circuit.
"""

import pytest

from repro.bench import circuits
from repro.core.dag_mapper import map_dag
from repro.core.match import Matcher
from repro.library.builtin import lib2_like, lib44_3
from repro.library.patterns import PatternSet
from repro.network.decompose import decompose_network

#: library, variants, multiplier widths, (low, high) reference work per
#: gate.  Measured: lib2@8 97.3 / 103.3 / 105.2, 44-3@4 2,712.8 / 3,033.7.
CASES = {
    "lib2@8": (lib2_like, 8, (4, 8, 16), (80.0, 125.0)),
    "44-3@4": (lib44_3, 4, (4, 8), (2200.0, 3600.0)),
}

#: The largest circuit's reference work per gate over the smallest's:
#: a log factor alone would read about 2 over this size range.
MAX_GROWTH = 1.25


def work(counters):
    return (
        counters["feasibility_hits"]
        + counters["feasibility_misses"]
        + counters["bindings_enumerated"]
        + counters["groups_enumerated"]
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_work_per_gate_stays_in_envelope(case):
    library, variants, widths, (low, high) = CASES[case]
    patterns = PatternSet(library(), variants)
    per_gate = []
    for width in widths:
        subject = decompose_network(circuits.array_multiplier(width))
        reference = map_dag(
            subject, patterns, matcher=Matcher(patterns, cache=False)
        )
        production = map_dag(subject, patterns)
        ref_work = work(reference.counters)
        assert low <= ref_work / subject.n_gates <= high, (case, width)
        assert work(production.counters) <= ref_work, (case, width)
        assert (production.delay, production.area) == (
            reference.delay, reference.area
        )
        per_gate.append(ref_work / subject.n_gates)
    assert per_gate[-1] <= MAX_GROWTH * per_gate[0], (case, per_gate)
