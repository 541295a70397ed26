"""The O(s·p) claim on the s axis, checked with work counters.

Section 3.4 bounds labeling by O(s·p): with the pattern set fixed, the
matching work per subject gate is bounded by a constant.  Work counters
measure that deterministically, so the check needs no timer and holds
on any host.  Over the ``array_multiplier`` family (241, 1,313 and 5,953
gates at widths 4/8/16):

* the reference enumerator that certifies the delay bound (C006) counts
  its (pattern node, subject node) steps, with no memo from one node to
  the next; its steps per gate must stay inside a fixed envelope;
* the production matcher's work (feasibility checks plus bindings plus
  binding groups enumerated) must never exceed the reference's on the
  same circuit;
* the mapping certifies clean with the pattern set given, so its delay
  equals the reference relabeling's within the certificate's tolerance.
"""

import pytest

from repro.bench import circuits
from repro.check import certify_mapping
from repro.core.dag_mapper import map_dag
from repro.library.builtin import lib2_like, lib44_3
from repro.library.patterns import PatternSet
from repro.network.decompose import decompose_network

#: library, variants, multiplier widths, (low, high) reference steps per
#: gate.  Measured: lib2@8 88.0 / 90.9 / 92.2, 44-3@4 2,004.5 / 2,149.4.
CASES = {
    "lib2@8": (lib2_like, 8, (4, 8, 16), (73.0, 109.0)),
    "44-3@4": (lib44_3, 4, (4, 8), (1630.0, 2550.0)),
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
        production = map_dag(subject, patterns)
        report = certify_mapping(production, patterns=patterns)
        assert not report.has_errors, report.format()
        ref_work = report.meta["relabel_steps"]
        assert low <= ref_work / subject.n_gates <= high, (case, width)
        assert work(production.counters) <= ref_work, (case, width)
        per_gate.append(ref_work / subject.n_gates)
    assert per_gate[-1] <= MAX_GROWTH * per_gate[0], (case, per_gate)
