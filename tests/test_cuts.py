"""Tests for k-feasible cut enumeration (repro.fpga.cuts)."""

from itertools import combinations

import pytest

from repro.fpga.cuts import enumerate_cuts
from repro.fuzz.generator import FuzzConfig, random_dag
from repro.network.bnet import BooleanNetwork
from repro.network.decompose import decompose_network


def tiny_dag():
    """a,b,c -> x=f(a,b), y=f(x,c)."""
    fanins = {"a": [], "b": [], "c": [], "x": ["a", "b"], "y": ["x", "c"]}
    topo = ["a", "b", "c", "x", "y"]
    return topo, fanins


class TestEnumerate:
    def test_trivial_cut_first(self):
        topo, fanins = tiny_dag()
        cuts = enumerate_cuts(
            topo, lambda n: fanins[n], lambda n: n in "abc", k=3
        )
        for node in topo:
            assert cuts[node][0] == frozenset([node])

    def test_expected_cuts(self):
        topo, fanins = tiny_dag()
        cuts = enumerate_cuts(
            topo, lambda n: fanins[n], lambda n: n in "abc", k=3
        )
        y_cuts = set(cuts["y"])
        assert frozenset(["x", "c"]) in y_cuts
        assert frozenset(["a", "b", "c"]) in y_cuts

    def test_k_bound_respected(self):
        topo, fanins = tiny_dag()
        cuts = enumerate_cuts(
            topo, lambda n: fanins[n], lambda n: n in "abc", k=2
        )
        for node in topo:
            for cut in cuts[node]:
                assert len(cut) <= 2
        assert frozenset(["a", "b", "c"]) not in set(cuts["y"])

    def test_dominance_pruning(self):
        # Reconvergence: y = f(x1, x2), x1 = g(a), x2 = h(a).
        fanins = {"a": [], "x1": ["a"], "x2": ["a"], "y": ["x1", "x2"]}
        topo = ["a", "x1", "x2", "y"]
        cuts = enumerate_cuts(
            topo, lambda n: fanins[n], lambda n: n == "a", k=3
        )
        y_cuts = set(cuts["y"])
        assert frozenset(["a"]) in y_cuts
        # {a, x1} is a superset of {a}: dominated, must be pruned.
        assert frozenset(["a", "x1"]) not in y_cuts

    def test_max_cuts_cap(self):
        # A wide node with many fanins can explode; the cap bounds it.
        width = 8
        fanins = {f"i{j}": [] for j in range(width)}
        fanins["n"] = [f"i{j}" for j in range(width)]
        topo = list(fanins)
        cuts = enumerate_cuts(
            topo, lambda n: fanins[n], lambda n: n.startswith("i"),
            k=8, max_cuts=5,
        )
        assert len(cuts["n"]) <= 6  # trivial + capped merged


def small_subject():
    net = BooleanNetwork("cuts_fixture")
    for pi in ("a", "b", "c", "d"):
        net.add_pi(pi)
    net.add_node("x", "a*b")
    net.add_node("y", "x+c")
    net.add_node("z", "!(y*d)")
    net.add_po("z")
    return decompose_network(net)


def brute_force_cuts(node, k):
    """Every minimal leaf set of at most ``k`` nodes cutting ``node``.

    A leaf set is a cut when it meets every path from a PI to ``node``
    (the node itself excluded); each path is held as a bitmask over the
    node's transitive fanin.  Sets are tried by size, and one holding a
    smaller cut is dominated and skipped.  The trivial cut is added.
    """
    index = {}
    paths = set()

    def walk(current, mask):
        for fanin in current.fanins:
            bit = 1 << index.setdefault(fanin, len(index))
            if fanin.is_pi:
                paths.add(mask | bit)
            else:
                walk(fanin, mask | bit)

    walk(node, 0)
    found = []
    for size in range(1, k + 1):
        for combo in combinations(range(len(index)), size):
            mask = sum(1 << i for i in combo)
            if any(cut & mask == cut for cut in found):
                continue
            if all(path & mask for path in paths):
                found.append(mask)
    nodes = list(index)
    cuts = {frozenset([node])}
    for mask in found:
        cuts.add(frozenset(n for i, n in enumerate(nodes) if mask >> i & 1))
    return cuts


class TestBruteForce:
    """The enumerator against every separating leaf set, on subjects
    small enough to try them all."""

    @staticmethod
    def check(subject, k):
        cuts = enumerate_cuts(
            subject.topological(),
            lambda n: list(n.fanins),
            lambda n: n.is_pi,
            k,
            max_cuts=10**9,
        )
        for node in subject.topological():
            assert set(cuts[node]) == brute_force_cuts(node, k), node.uid

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_small_subject(self, k):
        self.check(small_subject(), k)

    @pytest.mark.parametrize("n_nodes,seed,k", [
        (10, 0, 4), (10, 1, 4),
        (12, 2, 3), (16, 3, 3), (20, 4, 3),
    ])
    def test_random_subjects(self, n_nodes, seed, k):
        net = random_dag(FuzzConfig(n_inputs=4, n_nodes=n_nodes, seed=seed))
        self.check(decompose_network(net), k)
