"""Mapping certificate checker (repro.check.certificate).

Two halves:

* **Acceptance** — every Table-2/3 DAG-mapper run (the paper's five
  ISCAS-like circuits under 44-1 and 44-3) must certify with zero error
  diagnostics; under 44-1 that includes the independent relabeling
  bound (C006 with ``patterns=``), which must also catch a matcher that
  misses matches (the no-swap mutant below).
* **Mutation oracle** — a certified run is copied, one claim is
  falsified (a dropped match, a skewed arrival, a swapped cell, a
  doctored delay/area/PO), and the checker must reject it with the
  documented C-code.
"""

import copy
import dataclasses

import pytest

from repro.bench.suite import TABLE23_NAMES, build_subject
from repro.check import CheckReport, certify_mapping
from repro.check.certificate import attach_certificate
from repro.core.dag_mapper import map_dag
from repro.core.tree_mapper import map_tree
from repro.errors import CertificateError
from repro.library.builtin import lib44_1, lib44_3, mini_library
from repro.library.patterns import PatternSet
from repro.network.subject import NodeType


@pytest.fixture(scope="module")
def ps44_1():
    return PatternSet(lib44_1(), max_variants=8)


@pytest.fixture(scope="module")
def ps44_3():
    return PatternSet(lib44_3(), max_variants=4)


def codes(report):
    return [d.code for d in report]


# ----------------------------------------------------------------------
# Acceptance: the paper's experiment runs all certify clean.
# ----------------------------------------------------------------------
class TestTable23Acceptance:
    @pytest.mark.parametrize("name", TABLE23_NAMES)
    def test_dag_runs_certify_clean_under_44_1(self, name, ps44_1):
        _, subject = build_subject(name)
        result = map_dag(subject, ps44_1)
        report = certify_mapping(result)
        assert not report.has_errors, report.format()

    @pytest.mark.parametrize("name", TABLE23_NAMES)
    def test_dag_runs_certify_clean_under_44_3(self, name, ps44_3):
        _, subject = build_subject(name)
        result = map_dag(subject, ps44_3)
        report = certify_mapping(result)
        assert not report.has_errors, report.format()

    def test_independent_relabeling_confirms_bound(self, ps44_1):
        _, subject = build_subject("C2670s")
        result = map_dag(subject, ps44_1)
        report = certify_mapping(result, patterns=ps44_1)
        assert not report.has_errors, report.format()

    def test_tree_run_certifies_clean(self, ps44_1):
        _, subject = build_subject("C2670s")
        result = map_tree(subject, ps44_1)
        report = certify_mapping(result)
        assert not report.has_errors, report.format()


# ----------------------------------------------------------------------
# Independent relabeling (C006 with patterns=).
# ----------------------------------------------------------------------
def no_swap_patterns(library, max_variants):
    """A private pattern set whose matcher never tries a swapped fanin order.

    Every NAND2 of every pattern is marked swap-safe, so the production
    matcher enumerates one fanin order only and misses every match that
    needs the other: a mutant made of data, with no code patched.  The
    certificate's reference enumerator reads no swap-safe marks.
    """
    patterns = PatternSet(library(), max_variants)
    for pattern in patterns.patterns:
        pattern.swap_safe = {
            node.uid for node in pattern.nodes if node.kind is NodeType.NAND2
        }
    return patterns


#: Table-2 circuits (44-1 @ 8) whose delay the no-swap mutant changes.
NO_SWAP_SLOWER_44_1 = ("C2670s", "C5315s", "C7552s")


class TestIndependentRelabeling:
    @pytest.fixture(scope="class")
    def no_swap_44_1(self):
        return no_swap_patterns(lib44_1, 8)

    @pytest.mark.parametrize("name", TABLE23_NAMES)
    def test_no_swap_mutant_fails_c006_where_its_delay_differs(
        self, name, ps44_1, no_swap_44_1
    ):
        _, subject = build_subject(name)
        good = map_dag(subject, ps44_1)
        report = certify_mapping(good, patterns=ps44_1)
        assert not report.has_errors, report.format()
        mutant = map_dag(subject, no_swap_44_1)
        slower = mutant.delay > good.delay + 1e-6
        assert slower is (name in NO_SWAP_SLOWER_44_1)
        report = certify_mapping(mutant, patterns=no_swap_44_1)
        assert ("C006" in codes(report)) is slower, report.format()

    @pytest.mark.parametrize("mapper", [map_dag, map_tree],
                             ids=["dag", "tree"])
    def test_relabeling_reads_pi_arrivals(self, mapper, ps44_1):
        _, subject = build_subject("C2670s")
        late = {subject.pis[0].name: 50.0}
        result = mapper(subject, ps44_1, arrival_times=late)
        assert result.delay > mapper(subject, ps44_1).delay
        report = certify_mapping(result, patterns=ps44_1)
        assert not report.has_errors, report.format()


# ----------------------------------------------------------------------
# Mutation oracle: falsified claims are rejected with documented codes.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def good_run():
    patterns = PatternSet(mini_library(), max_variants=8)
    _, subject = build_subject("C432s")
    return map_dag(subject, patterns), patterns


def mutated(result, **label_overrides):
    """Shallow-copied result whose labels differ in the given fields."""
    labels = dataclasses.replace(result.labels, **label_overrides)
    out = copy.copy(result)
    out.labels = labels
    return out


def first_covered_uid(result):
    """uid of a non-PI node the cover definitely visits (a PO driver)."""
    for _, driver in result.labels.subject.pos:
        if not driver.is_pi:
            return driver.uid
    raise AssertionError("no internal PO driver")


class TestMutations:
    def test_dropped_match_rejected_c008(self, good_run):
        result, _ = good_run
        uid = first_covered_uid(result)
        best = list(result.labels.best)
        best[uid] = None
        report = certify_mapping(mutated(result, best=best))
        assert "C008" in codes(report)

    def test_skewed_arrival_rejected_c004(self, good_run):
        result, _ = good_run
        uid = first_covered_uid(result)
        arrival = list(result.labels.arrival)
        arrival[uid] += 1.5
        report = certify_mapping(mutated(result, arrival=arrival))
        assert "C004" in codes(report)

    def test_swapped_cell_rejected_c002_c005(self, good_run):
        result, patterns = good_run
        broken = copy.copy(result)
        broken.netlist = copy.deepcopy(result.netlist)
        inv = patterns.library.inverter()
        victim = next(g for g in broken.netlist.gates if g.gate.n_inputs == 2)
        victim.gate = inv
        victim.inputs = victim.inputs[:1]
        report = certify_mapping(broken)
        assert "C002" in codes(report)
        assert "C005" in codes(report)

    def test_doctored_delay_rejected_c006(self, good_run):
        result, _ = good_run
        broken = copy.copy(result)
        broken.delay = result.delay + 1.0
        report = certify_mapping(broken)
        assert "C006" in codes(report)

    def test_doctored_area_flagged_c009(self, good_run):
        result, _ = good_run
        broken = copy.copy(result)
        broken.area = result.area + 7.0
        report = certify_mapping(broken)
        assert "C009" in codes(report)
        assert report.by_code("C009")[0].severity.label() == "warning"

    def test_disconnected_po_rejected_c001(self, good_run):
        result, _ = good_run
        broken = copy.copy(result)
        broken.netlist = copy.deepcopy(result.netlist)
        name, _ = broken.netlist.pos[0]
        broken.netlist.pos[0] = (name, "nowhere")
        report = certify_mapping(broken)
        assert "C001" in codes(report)

    def test_skewed_po_arrival_rejected_c004(self, good_run):
        result, _ = good_run
        po_arrival = dict(result.labels.po_arrival)
        first = next(iter(po_arrival))
        po_arrival[first] += 0.25
        report = certify_mapping(mutated(result, po_arrival=po_arrival))
        assert "C004" in codes(report)


# ----------------------------------------------------------------------
# The mappers' check= hook.
# ----------------------------------------------------------------------
class TestTargetAware:
    """Certification of recovered covers (``target=`` mode)."""

    @pytest.fixture(scope="module")
    def recovered(self, good_run):
        from repro.core.area_recovery import recover_area_result

        result, patterns = good_run
        recovery = recover_area_result(
            result.labels, patterns, target=result.delay * 1.2
        )
        out = copy.copy(result)
        out.netlist = recovery.netlist
        out.delay = recovery.delay
        out.area = recovery.area
        return out, recovery

    def test_recovered_cover_certifies_clean(self, recovered):
        result, recovery = recovered
        report = certify_mapping(
            result, selection=recovery.selection, target=recovery.target
        )
        assert not report.has_errors, report.format()

    def test_missed_budget_rejected_c011(self, recovered):
        result, recovery = recovered
        # Claim a budget the recovered cover cannot actually meet.
        report = certify_mapping(
            result,
            selection=recovery.selection,
            target=recovery.delay * 0.5,
        )
        assert "C011" in codes(report)

    def test_doctored_delay_rejected_c006(self, recovered):
        result, recovery = recovered
        broken = copy.copy(result)
        broken.delay = result.delay + 1.0
        report = certify_mapping(
            broken, selection=recovery.selection, target=recovery.target
        )
        assert "C006" in codes(report)

    def test_replay_beating_labels_rejected_c004(self, recovered):
        result, recovery = recovered
        uid = first_covered_uid(result)
        arrival = list(result.labels.arrival)
        arrival[uid] += 10.0
        broken = mutated(result, arrival=arrival)
        report = certify_mapping(
            broken, selection=recovery.selection, target=recovery.target
        )
        assert "C004" in codes(report)


class TestCheckHook:
    def test_map_dag_check_attaches_clean_certificate(self):
        patterns = PatternSet(mini_library(), max_variants=8)
        _, subject = build_subject("C432s")
        result = map_dag(subject, patterns, check=True)
        assert isinstance(result.certificate, CheckReport)
        assert not result.certificate.has_errors

    def test_map_tree_check_attaches_clean_certificate(self):
        patterns = PatternSet(mini_library(), max_variants=8)
        _, subject = build_subject("C432s")
        result = map_tree(subject, patterns, check=True)
        assert isinstance(result.certificate, CheckReport)
        assert not result.certificate.has_errors

    def test_attach_certificate_raises_on_bad_run(self, good_run):
        result, _ = good_run
        broken = copy.copy(result)
        broken.delay = result.delay + 1.0
        with pytest.raises(CertificateError, match="C006"):
            attach_certificate(broken)
        # The failing report is still attached for post-mortem use.
        assert broken.certificate is not None
        assert broken.certificate.has_errors

    def test_attach_certificate_no_raise_mode(self, good_run):
        result, _ = good_run
        broken = copy.copy(result)
        broken.delay = result.delay + 1.0
        report = attach_certificate(broken, raise_on_error=False)
        assert report.has_errors
        assert broken.certificate is report
