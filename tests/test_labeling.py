"""Tests for the delay-labeling DP (repro.core.labeling)."""

import math
import random

import pytest

from repro.core.labeling import compute_labels
from repro.core.match import Matcher, MatchKind
from repro.errors import MappingError
from repro.library.builtin import lib2_like, mini_library, unit_nand_library
from repro.library.gate import GateLibrary, make_gate
from repro.library.patterns import PatternSet
from repro.network.decompose import decompose_network
from repro.bench import circuits
from repro.network.subject import SubjectGraph


@pytest.fixture(scope="module")
def unit_patterns():
    return PatternSet(unit_nand_library())


@pytest.fixture(scope="module")
def mini_patterns():
    return PatternSet(mini_library(), max_variants=8)


class TestUnitDelay:
    """With only unit-delay INV and NAND2 every match covers exactly one
    node, so the optimal label equals the subject depth — an exact,
    independently computable oracle."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: circuits.c17(),
            lambda: circuits.ripple_adder(4),
            lambda: circuits.parity_tree(8),
            lambda: circuits.mux_tree(3),
        ],
    )
    def test_label_equals_depth(self, unit_patterns, factory):
        subject = decompose_network(factory())
        labels = compute_labels(subject, unit_patterns, MatchKind.STANDARD)
        depth = [0] * len(subject.nodes)
        for node in subject.topological():
            if node.fanins:
                depth[node.uid] = 1 + max(depth[f.uid] for f in node.fanins)
        for node in subject.topological():
            assert labels.arrival[node.uid] == pytest.approx(depth[node.uid])

    def test_tree_equals_dag_for_unit_library(self, unit_patterns):
        """Single-node patterns make tree and DAG labels identical."""
        subject = decompose_network(circuits.alu(4))
        dag = compute_labels(subject, unit_patterns, MatchKind.STANDARD)
        tree = compute_labels(subject, unit_patterns, MatchKind.EXACT)
        assert dag.max_arrival == pytest.approx(tree.max_arrival)


class TestDominance:
    """dag label <= tree label at every node; extended <= standard."""

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_match_class_label_ordering(self, mini_patterns, seed):
        rng = random.Random(seed)
        g = SubjectGraph()
        nodes = [g.add_pi(f"p{i}") for i in range(4)]
        for _ in range(30):
            if rng.random() < 0.3:
                nodes.append(g.add_inv(rng.choice(nodes), share=False))
            else:
                a, b = rng.sample(nodes, 2)
                nodes.append(g.add_nand2(a, b, share=False))
        g.set_po("o", nodes[-1])
        by_kind = {
            kind: compute_labels(g, mini_patterns, kind) for kind in MatchKind
        }
        for uid in range(len(g.nodes)):
            exact = by_kind[MatchKind.EXACT].arrival[uid]
            std = by_kind[MatchKind.STANDARD].arrival[uid]
            ext = by_kind[MatchKind.EXTENDED].arrival[uid]
            assert std <= exact + 1e-9
            assert ext <= std + 1e-9


class TestOptimality:
    def test_against_recursive_oracle(self, mini_patterns):
        """Independent top-down memoised DP must agree with the
        bottom-up labeling."""
        subject = decompose_network(circuits.ripple_adder(3))
        labels = compute_labels(subject, mini_patterns, MatchKind.STANDARD)

        matcher = Matcher(mini_patterns, MatchKind.STANDARD)
        matcher.attach(subject)
        memo = {}

        def oracle(node):
            if node.is_pi:
                return 0.0
            if node.uid in memo:
                return memo[node.uid]
            best = math.inf
            for match in matcher.matches_at(node):
                cost = 0.0
                for pin, leaf in match.leaves():
                    cost = max(cost, oracle(leaf) + match.gate.pin_delay(pin))
                best = min(best, cost)
            memo[node.uid] = best
            return best

        for node in subject.topological():
            assert labels.arrival[node.uid] == pytest.approx(oracle(node))

    def test_arrival_times_shift_labels(self, mini_patterns):
        subject = decompose_network(circuits.c17())
        base = compute_labels(subject, mini_patterns, MatchKind.STANDARD)
        arrival = {pi.name: 5.0 for pi in subject.pis}
        shifted = compute_labels(
            subject, mini_patterns, MatchKind.STANDARD, arrival_times=arrival
        )
        assert shifted.max_arrival == pytest.approx(base.max_arrival + 5.0)

    def test_po_arrival_map(self, mini_patterns):
        subject = decompose_network(circuits.c17())
        labels = compute_labels(subject, mini_patterns, MatchKind.STANDARD)
        assert set(labels.po_arrival) == {"g22", "g23"}
        assert labels.max_arrival == max(labels.po_arrival.values())


class TestErrors:
    def test_incomplete_library(self):
        # Inverter only: NAND2 nodes cannot be covered.
        lib = GateLibrary([make_gate("inv", 1.0, "O=!a")], name="invonly")
        patterns = PatternSet(lib)
        subject = decompose_network(circuits.c17())
        with pytest.raises(MappingError):
            compute_labels(subject, patterns, MatchKind.STANDARD)

    def test_unknown_objective(self, mini_patterns):
        subject = decompose_network(circuits.c17())
        with pytest.raises(ValueError):
            compute_labels(subject, mini_patterns, objective="power")


class TestAreaObjective:
    def test_area_labels_positive(self, mini_patterns):
        subject = decompose_network(circuits.ripple_adder(3))
        labels = compute_labels(
            subject, mini_patterns, MatchKind.EXACT, objective="area"
        )
        for _, driver in subject.pos:
            assert labels.arrival[driver.uid] > 0


class TestCodedDiagnostics:
    """[M001]/[M002]: dangling PO drivers and missing POs raise coded
    errors instead of silently defaulting the arrival to 0.0."""

    def test_m001_dangling_po_driver(self, mini_patterns):
        g = SubjectGraph()
        a, b = g.add_pi("a"), g.add_pi("b")
        g.set_po("ok", g.add_nand2(a, b))
        foreign = SubjectGraph()
        fa, fb = foreign.add_pi("x"), foreign.add_pi("y")
        g.set_po("bad", foreign.add_nand2(fa, fb))
        with pytest.raises(MappingError) as err:
            compute_labels(g, mini_patterns, MatchKind.STANDARD)
        assert "[M001]" in str(err.value)
        assert "'bad'" in str(err.value)

    def test_m002_no_primary_outputs(self, mini_patterns):
        g = SubjectGraph()
        a, b = g.add_pi("a"), g.add_pi("b")
        g.add_nand2(a, b)  # internal node, never exported as a PO
        labels = compute_labels(g, mini_patterns, MatchKind.STANDARD)
        with pytest.raises(MappingError) as err:
            labels.max_arrival
        assert "[M002]" in str(err.value)

    def test_valid_graph_unaffected(self, mini_patterns):
        subject = decompose_network(circuits.c17())
        labels = compute_labels(subject, mini_patterns, MatchKind.STANDARD)
        assert labels.max_arrival > 0
