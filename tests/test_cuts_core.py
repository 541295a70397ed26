"""k-feasible cut enumeration on subject graphs (repro.core.cuts).

Unit semantics on a hand-built subject, plus the cross-test required by
the two-enumerator design: the core enumerator in dominance mode must
agree with the FlowMap-side enumerator (repro.fpga.cuts) on shared
subject graphs, and the filter mode (no dominance pruning) must be a
superset of it.  The lazy query the matcher uses must reproduce the
eager filter-mode enumeration.  ``cut_function`` is differentially
checked against the bit-parallel cone evaluator.
"""

import pytest

from repro.bench.suite import build_subject
from repro.core.cuts import (
    DEFAULT_MAX_CUTS,
    LazyCuts,
    cut_function,
    cut_words,
    enumerate_cuts,
)
from repro.errors import NetworkError
from repro.fpga.cuts import enumerate_cuts as fpga_enumerate_cuts
from repro.fuzz.generator import FuzzConfig, random_dag
from repro.library.npn_table import DEFAULT_DEPTH_CAP, DEFAULT_K
from repro.network.bitsim import cone_words
from repro.network.bnet import BooleanNetwork
from repro.network.decompose import decompose_network
from repro.network.functions import variable_bits


def small_subject():
    net = BooleanNetwork("cuts_fixture")
    for pi in ("a", "b", "c", "d"):
        net.add_pi(pi)
    net.add_node("x", "a*b")
    net.add_node("y", "x+c")
    net.add_node("z", "!(y*d)")
    net.add_po("z")
    return decompose_network(net)


def fpga_reference(subject, k, max_cuts=10**9):
    return fpga_enumerate_cuts(
        subject.topological(),
        lambda n: list(n.fanins),
        lambda n: n.is_pi,
        k,
        max_cuts=max_cuts,
    )


class TestSemantics:
    def test_trivial_cut_depth_zero(self):
        subject = small_subject()
        enum = enumerate_cuts(subject, 3)
        for node in subject.topological():
            assert enum.at(node)[frozenset((node,))] == 0

    def test_pi_has_only_trivial_cut(self):
        subject = small_subject()
        enum = enumerate_cuts(subject, 4)
        for pi in subject.pis:
            assert enum.at(pi) == {frozenset((pi,)): 0}

    def test_k_bound_respected(self):
        subject = small_subject()
        enum = enumerate_cuts(subject, 2)
        for node in subject.topological():
            assert all(len(cut) <= 2 for cut in enum.at(node))

    def test_fanin_cut_depth_one(self):
        subject = small_subject()
        enum = enumerate_cuts(subject, 2)
        for node in subject.topological():
            if node.is_pi:
                continue
            fanin_cut = frozenset(node.fanins)
            if len(fanin_cut) <= 2:
                assert enum.at(node)[fanin_cut] == 1

    def test_depth_is_minimum_over_derivations(self):
        # Every cut's depth must be achievable and minimal: re-deriving
        # with a larger bound never lowers any depth, and bounding by a
        # cut's recorded depth must still produce it.
        subject = small_subject()
        full = enumerate_cuts(subject, 4)
        for node in subject.topological():
            for cut, depth in full.at(node).items():
                bounded = enumerate_cuts(subject, 4, max_depth=depth)
                assert bounded.at(node).get(cut) == depth

    def test_max_depth_filters(self):
        subject = small_subject()
        full = enumerate_cuts(subject, 4)
        capped = enumerate_cuts(subject, 4, max_depth=1)
        for node in subject.topological():
            expected = {
                c: d for c, d in full.at(node).items() if d <= 1
            }
            assert capped.at(node) == expected

    def test_k_zero_rejected(self):
        with pytest.raises(NetworkError, match="cut size bound"):
            enumerate_cuts(small_subject(), 0)

    def test_cap_taints_node_and_dependents(self):
        _, subject = build_subject("C432s")
        enum = enumerate_cuts(subject, 4, max_cuts=4)
        assert enum.tainted  # a real circuit blows a 4-cut cap somewhere
        # taint propagates: every non-PI consumer of a tainted node is
        # tainted too.
        for node in subject.topological():
            if node.is_pi:
                continue
            if any(f.uid in enum.tainted for f in node.fanins):
                assert node.uid in enum.tainted
        # the filter's configuration (depth-bounded, default cap) stays
        # taint-free on this circuit
        assert not enumerate_cuts(
            subject, 4, max_depth=6, max_cuts=DEFAULT_MAX_CUTS
        ).tainted


class TestCrossEnumerator:
    """Satellite cross-test: core dominance mode == fpga enumerator."""

    @pytest.mark.parametrize("name", ["C432s", "C2670s"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_dominance_mode_matches_fpga(self, name, k):
        _, subject = build_subject(name)
        core = enumerate_cuts(subject, k, dominance=True, max_cuts=10**9)
        ref = fpga_reference(subject, k)
        for node in subject.topological():
            assert core.leaf_sets(node) == set(ref[node]), node.uid

    def test_full_mode_superset_of_dominance(self):
        _, subject = build_subject("C432s")
        full = enumerate_cuts(subject, 4, max_cuts=10**9)
        dom = enumerate_cuts(subject, 4, dominance=True, max_cuts=10**9)
        for node in subject.topological():
            assert dom.leaf_sets(node) <= full.leaf_sets(node)

    def test_small_subject_agrees(self):
        subject = small_subject()
        core = enumerate_cuts(subject, 3, dominance=True, max_cuts=10**9)
        ref = fpga_reference(subject, 3)
        for node in subject.topological():
            assert core.leaf_sets(node) == set(ref[node])


def lazy_matches_eager(subject, k, depth, max_cuts=DEFAULT_MAX_CUTS):
    """Query every node lazily, top-down, and compare with the eager sets.

    Top-down order makes early queries compute their cones under small
    budgets, so later queries exercise the budget upgrade path.  Returns
    the number of nodes compared; the lazy query taints no node the
    eager enumeration leaves clean (its taint stops at the depth
    budget), so that is every node eager leaves untainted.
    """
    eager = enumerate_cuts(subject, k, max_depth=depth, max_cuts=max_cuts)
    lazy = LazyCuts(k, depth, max_cuts=max_cuts)
    compared = 0
    for node in reversed(subject.topological()):
        cuts, tainted = lazy.at(node)
        if node.uid in eager.tainted:
            continue
        assert not tainted, node.uid
        assert cuts == eager.at(node), node.uid
        compared += 1
    assert compared == len(subject.nodes) - len(eager.tainted)
    return compared


class TestLazyCuts:
    """The matcher's on-demand query == enumerate_cuts at untainted nodes."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_subjects(self, seed):
        net = random_dag(FuzzConfig(n_inputs=6, n_nodes=40, seed=seed))
        subject = decompose_network(net)
        assert lazy_matches_eager(subject, DEFAULT_K, DEFAULT_DEPTH_CAP)

    def test_c6288s(self):
        _, subject = build_subject("C6288s")
        compared = lazy_matches_eager(subject, DEFAULT_K, DEFAULT_DEPTH_CAP)
        assert compared == len(subject.nodes)  # nothing tainted here

    def test_tight_cap_taints_soundly(self):
        # with a cap this small both sides taint; untainted nodes agree
        _, subject = build_subject("C432s")
        assert lazy_matches_eager(subject, 4, 6, max_cuts=6)

    def test_budget_upgrade_recomputes(self):
        subject = small_subject()
        root = subject.pos[0][1]
        lazy = LazyCuts(3, 6)
        shallow, _ = lazy.at(root, budget=1)
        assert all(depth <= 1 for depth in shallow.values())
        deep, _ = lazy.at(root)
        assert deep == enumerate_cuts(subject, 3, max_depth=6).at(root)
        assert lazy.at(root, budget=1)[0] is deep  # larger budget kept

    def test_visits_only_the_queried_cone(self):
        _, subject = build_subject("C432s")
        lazy = LazyCuts(4, 2)
        lazy.at(subject.pos[0][1])
        assert 0 < len(lazy) < len(subject.nodes) // 4


class TestCutFunction:
    def test_matches_bitparallel_cone(self):
        _, subject = build_subject("C432s")
        enum = enumerate_cuts(subject, 4, max_depth=6)
        checked = 0
        for node in subject.topological():
            if node.is_pi:
                continue
            for (cut, _depth), bits in cut_words(node, enum.at(node)).items():
                order = sorted(cut, key=lambda leaf: leaf.uid)
                n = len(order)
                mask = (1 << (1 << n)) - 1
                words = {
                    leaf.uid: variable_bits(i, n)
                    for i, leaf in enumerate(order)
                }
                assert cone_words(node, words, mask) == bits
                checked += 1
            if checked > 500:
                break
        assert checked > 100

    def test_trivial_cut_is_identity(self):
        subject = small_subject()
        node = next(n for n in subject.topological() if not n.is_pi)
        assert cut_function(node, [node]) == variable_bits(0, 1)

    def test_non_cut_raises(self):
        subject = small_subject()
        root = subject.pos[0][1]
        with pytest.raises(NetworkError, match="escaped the leaf set"):
            cut_function(root, [subject.pis[0]])
