"""End-to-end tests of the DAG and tree mappers (the paper's Section 3)."""

import pytest

from repro.bench import circuits
from repro.bench.suite import TABLE23_NAMES, build_subject
from repro.core.dag_mapper import map_dag
from repro.core.match import MatchKind
from repro.core.tree_mapper import map_tree, tree_roots
from repro.library.builtin import lib2_like, lib44_1, mini_library
from repro.library.patterns import PatternSet
from repro.network.decompose import decompose_network
from repro.network.simulate import check_equivalent
from repro.perf.parallel import resolve_library
from repro.timing.sta import analyze

_EPS = 1e-9

FACTORIES = {
    "c17": circuits.c17,
    "rca4": lambda: circuits.ripple_adder(4),
    "cla8": lambda: circuits.carry_lookahead_adder(8),
    "mult4": lambda: circuits.array_multiplier(4),
    "alu4": lambda: circuits.alu(4),
    "sec8": lambda: circuits.sec_corrector(8),
    "cmp6": lambda: circuits.comparator(6),
}


@pytest.fixture(scope="module")
def lib2_patterns():
    return PatternSet(lib2_like(), max_variants=8)


@pytest.fixture(scope="module")
def mini_patterns():
    return PatternSet(mini_library(), max_variants=8)


#: No builtin gate has pins of different delay; these variants jitter
#: every pin's delay, so a leaf delay paired with the wrong pin shows.
ASYMMETRIC_PINS = ["lib2@delay=0.3+seed=1", "44-1@delay=0.3+seed=1"]


@pytest.fixture(scope="module")
def table_inputs(lib2_patterns):
    """Table-2/3 subject graphs and their lib2@8 / 44-1@8 pattern sets."""
    subjects = {name: build_subject(name)[1] for name in TABLE23_NAMES}
    pattern_sets = {
        "lib2": lib2_patterns,
        "44-1": PatternSet(lib44_1(), max_variants=8),
    }
    for spec in ASYMMETRIC_PINS:
        pattern_sets[spec] = PatternSet(resolve_library(spec), max_variants=8)
    return subjects, pattern_sets


class TestEndToEnd:
    @pytest.mark.parametrize("name", list(FACTORIES))
    def test_both_mappers_equivalent_and_ordered(self, name, lib2_patterns):
        net = FACTORIES[name]()
        subject = decompose_network(net)
        dag = map_dag(subject, lib2_patterns)
        tree = map_tree(subject, lib2_patterns)
        check_equivalent(net, dag.netlist)
        check_equivalent(net, tree.netlist)
        # The paper's theorem: DAG covering is delay-optimal, tree is not.
        assert dag.delay <= tree.delay + _EPS

    @pytest.mark.parametrize("name", ["c17", "cla8", "mult4"])
    def test_sta_agrees_with_labels(self, name, lib2_patterns):
        subject = decompose_network(FACTORIES[name]())
        for result in (map_dag(subject, lib2_patterns),
                       map_tree(subject, lib2_patterns)):
            report = analyze(result.netlist)
            assert report.delay == pytest.approx(result.delay)

    @pytest.mark.parametrize("mapper", [map_dag, map_tree], ids=["dag", "tree"])
    @pytest.mark.parametrize("library", ["lib2", "44-1"] + ASYMMETRIC_PINS)
    @pytest.mark.parametrize("name", TABLE23_NAMES)
    def test_sta_delay_equals_label_delay(self, name, library, mapper,
                                          table_inputs):
        # The mappers report the labeling's arrival without running STA,
        # so the two must agree exactly, not just within a tolerance.
        subjects, pattern_sets = table_inputs
        result = mapper(subjects[name], pattern_sets[library])
        assert analyze(result.netlist).delay == result.delay

    def test_gate_library_accepted_directly(self):
        subject = decompose_network(circuits.c17())
        result = map_dag(subject, mini_library())
        assert result.netlist.gate_count() > 0

    def test_extended_kind(self, mini_patterns):
        net = circuits.parity_tree(6)
        subject = decompose_network(net)
        std = map_dag(subject, mini_patterns, kind=MatchKind.STANDARD)
        ext = map_dag(subject, mini_patterns, kind=MatchKind.EXTENDED)
        check_equivalent(net, ext.netlist)
        assert ext.delay <= std.delay + _EPS

    def test_arrival_times_respected(self, mini_patterns):
        net = circuits.c17()
        subject = decompose_network(net)
        arrival = {"g1": 10.0}
        result = map_dag(subject, mini_patterns, arrival_times=arrival)
        base = map_dag(subject, mini_patterns)
        assert result.delay >= base.delay

    def test_result_summary(self, mini_patterns):
        subject = decompose_network(circuits.c17())
        result = map_dag(subject, mini_patterns)
        summary = result.summary()
        assert summary["mode"] == "dag"
        assert summary["gates"] == result.netlist.gate_count()
        assert "MappingResult" in repr(result)


class TestTreeMapperSemantics:
    def test_tree_roots(self):
        subject = decompose_network(circuits.ripple_adder(4))
        roots = tree_roots(subject)
        for _, driver in subject.pos:
            assert driver.uid in roots
        for node in subject.multi_fanout_nodes():
            assert node.uid in roots

    def test_no_duplication_in_tree_cover(self, lib2_patterns):
        """Tree covering never duplicates: the interiors of instantiated
        matches are pairwise disjoint, and every multi-fanout node gets
        its own gate."""
        subject = decompose_network(circuits.carry_lookahead_adder(8))
        tree = map_tree(subject, lib2_patterns)
        signals = {g.output for g in tree.netlist.gates}
        for node in subject.multi_fanout_nodes():
            assert f"n{node.uid}" in signals

    def test_dag_can_duplicate(self, lib2_patterns):
        """On the figure-2 scenario, DAG covering drops the fanout node."""
        from repro.figures import figure2

        fig = figure2()
        dag = map_dag(fig.subject, fig.library)
        signals = {g.output for g in dag.netlist.gates}
        assert f"n{fig.middle.uid}" not in signals

    def test_area_objective_tree(self, lib2_patterns):
        net = circuits.alu(4)
        subject = decompose_network(net)
        delay_run = map_tree(subject, lib2_patterns, objective="delay")
        area_run = map_tree(subject, lib2_patterns, objective="area")
        check_equivalent(net, area_run.netlist)
        assert area_run.area <= delay_run.area + _EPS

    def test_area_objective_dag(self, lib2_patterns):
        net = circuits.alu(4)
        subject = decompose_network(net)
        delay_run = map_dag(subject, lib2_patterns, objective="delay")
        area_run = map_dag(subject, lib2_patterns, objective="area")
        check_equivalent(net, area_run.netlist)
        assert area_run.area <= delay_run.area + _EPS


class TestRicherLibraryHelps:
    def test_lib_richness_never_hurts_dag(self):
        """44-1's gates are a functional subset of lib2-like + complex
        gates; a richer pattern set can only lower the optimal label."""
        net = circuits.adder_comparator_mix(8)
        subject = decompose_network(net)
        small = map_dag(subject, PatternSet(lib44_1(), max_variants=8))
        # Extend 44-1 with an extra complex gate family: reuse lib2.
        rich = map_dag(subject, PatternSet(lib2_like(), max_variants=8))
        # Not strictly comparable (different delays), but both must be
        # valid and equivalent.
        check_equivalent(net, small.netlist)
        check_equivalent(net, rich.netlist)
