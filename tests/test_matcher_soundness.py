"""Soundness of the matcher's symmetry pruning.

The matcher skips the swapped fanin order of a NAND2 pattern node only
when that is provably lossless (disjoint isomorphic tree children with no
external references).  These tests compare against a reference matcher
with the pruning disabled: the optimal labels must be bit-identical on
every node, for every library and match class — any divergence means the
pruning dropped a real match.
"""

import pytest

import repro.library.patterns as patterns_mod
from repro.bench import circuits
from repro.core.labeling import compute_labels
from repro.core.match import MatchKind
from repro.library.builtin import lib2_like, lib44_1, mini_library
from repro.library.patterns import PatternSet
from repro.network.decompose import decompose_network


@pytest.fixture()
def no_pruning(monkeypatch):
    """Disable the swap-safe analysis: every NAND2 tries both orders."""
    monkeypatch.setattr(
        patterns_mod, "_swap_safe_nodes", lambda nodes, keys, fanout: set()
    )


FACTORIES = {
    "cla8": lambda: circuits.carry_lookahead_adder(8),
    "alu4": lambda: circuits.alu(4),
    "sec8": lambda: circuits.sec_corrector(8),
    "mult4": lambda: circuits.array_multiplier(4),
    "pint9": lambda: circuits.priority_interrupt(9),
}

LIBS = {"mini": mini_library, "44-1": lib44_1, "lib2": lib2_like}


@pytest.mark.parametrize("circuit", list(FACTORIES))
@pytest.mark.parametrize("lib_name", list(LIBS))
def test_pruned_labels_identical_to_reference(circuit, lib_name, monkeypatch):
    subject = decompose_network(FACTORIES[circuit]())
    library = LIBS[lib_name]()

    pruned = PatternSet(library, max_variants=8)
    monkeypatch.setattr(
        patterns_mod, "_swap_safe_nodes", lambda nodes, keys, fanout: set()
    )
    reference = PatternSet(library, max_variants=8)
    monkeypatch.undo()

    for kind in (MatchKind.STANDARD, MatchKind.EXACT):
        fast = compute_labels(subject, pruned, kind)
        slow = compute_labels(subject, reference, kind)
        for uid in range(len(subject.nodes)):
            assert fast.arrival[uid] == pytest.approx(slow.arrival[uid]), (
                circuit, lib_name, kind, uid,
            )


class TestGoldenDelays:
    """Pinned optimal delays for the lib2-like library.

    These values were produced by the unpruned reference matcher; any
    change means an optimization broke delay optimality (or the library /
    decomposition changed, in which case regenerate deliberately).
    """

    GOLDEN = {
        "C880s": (25.90, 23.90),
        "C2670s": (48.05, 38.80),
        "C3540s": (45.35, 41.80),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_suite_delays(self, name):
        from repro.bench.suite import get_circuit
        from repro.core.dag_mapper import map_dag
        from repro.core.tree_mapper import map_tree

        patterns = PatternSet(lib2_like(), max_variants=8)
        subject = decompose_network(get_circuit(name))
        tree_want, dag_want = self.GOLDEN[name]
        assert map_tree(subject, patterns).delay == pytest.approx(tree_want)
        assert map_dag(subject, patterns).delay == pytest.approx(dag_want)
