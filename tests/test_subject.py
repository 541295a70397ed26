"""Tests for the subject-graph data structure (repro.network.subject)."""

import pytest

from repro.errors import NetworkError
from repro.network.subject import NodeType, SubjectGraph, SubjectNode


def small_graph():
    g = SubjectGraph("g")
    a = g.add_pi("a")
    b = g.add_pi("b")
    n1 = g.add_nand2(a, b)
    n2 = g.add_inv(n1)
    n3 = g.add_nand2(n2, a)
    g.set_po("out", n3)
    return g, (a, b, n1, n2, n3)


class TestConstruction:
    def test_node_kinds(self):
        g, (a, b, n1, n2, n3) = small_graph()
        assert a.kind is NodeType.PI and a.is_pi
        assert n1.kind is NodeType.NAND2
        assert n2.kind is NodeType.INV
        assert g.n_nodes == 5
        assert g.n_gates == 3

    def test_arity_enforced(self):
        with pytest.raises(NetworkError):
            SubjectNode(0, NodeType.INV, ())
        with pytest.raises(NetworkError):
            SubjectNode(0, NodeType.NAND2, ())

    def test_duplicate_pi(self):
        g = SubjectGraph()
        g.add_pi("a")
        with pytest.raises(NetworkError):
            g.add_pi("a")

    def test_pi_lookup(self):
        g, _ = small_graph()
        assert g.pi("a").name == "a"
        with pytest.raises(NetworkError):
            g.pi("zz")

    def test_foreign_fanin_rejected(self):
        g1 = SubjectGraph()
        a = g1.add_pi("a")
        g2 = SubjectGraph()
        g2.add_pi("x")
        with pytest.raises(NetworkError):
            g2.add_inv(a)


class TestStrash:
    def test_nand_commutative_sharing(self):
        g = SubjectGraph()
        a = g.add_pi("a")
        b = g.add_pi("b")
        n1 = g.add_nand2(a, b)
        n2 = g.add_nand2(b, a)
        assert n1 is n2

    def test_inv_sharing(self):
        g = SubjectGraph()
        a = g.add_pi("a")
        assert g.add_inv(a) is g.add_inv(a)

    def test_share_false_duplicates(self):
        g = SubjectGraph()
        a = g.add_pi("a")
        b = g.add_pi("b")
        n1 = g.add_nand2(a, b)
        n2 = g.add_nand2(a, b, share=False)
        assert n1 is not n2


class TestQueries:
    def test_creation_order_topological(self):
        g, _ = small_graph()
        for node in g.topological():
            for fanin in node.fanins:
                assert fanin.uid < node.uid

    def test_depth(self):
        g, _ = small_graph()
        assert g.depth() == 3

    def test_multi_fanout(self):
        g, (a, b, n1, n2, n3) = small_graph()
        # a feeds n1 and n3 but PIs are excluded; no internal node has
        # fanout >= 2 here.
        assert g.multi_fanout_nodes() == []
        # Making n1 drive a PO as well gives it two uses (edge + PO ref).
        g.set_po("tap", n1)
        assert g.multi_fanout_nodes() == [n1]
        g2, (a2, b2, m1, m2, m3) = small_graph()
        extra = g2.add_inv(m1, share=False)
        g2.set_po("x", extra)
        assert m1 in g2.multi_fanout_nodes()

    def test_transitive_fanin(self):
        g, (a, b, n1, n2, n3) = small_graph()
        cone = g.transitive_fanin([n2])
        assert {n.uid for n in cone} == {a.uid, b.uid, n1.uid, n2.uid}

    def test_po_drivers(self):
        g, (*_, n3) = small_graph()
        assert g.po_drivers() == [n3]


class TestMultiFanoutCounting:
    def test_po_reference_counts_as_use(self):
        g = SubjectGraph()
        a = g.add_pi("a")
        n = g.add_inv(a)
        g.set_po("o1", n)
        g.set_po("o2", n)
        assert g.multi_fanout_nodes() == [n]

    def test_use_counts_are_fanin_edges_plus_po_refs(self):
        g = SubjectGraph()
        a = g.add_pi("a")
        b = g.add_pi("b")
        n = g.add_nand2(a, a)  # one node reading a twice: two uses
        m = g.add_nand2(n, b)
        g.set_po("o1", m)
        g.set_po("o2", m)
        g.set_po("o3", a)
        assert g.use_counts() == [3, 1, 1, 2]


class TestSimulation:
    def test_nand_inv_semantics(self):
        g, _ = small_graph()
        for m in range(4):
            bits = {"a": m & 1, "b": (m >> 1) & 1}
            n1 = 1 - (bits["a"] & bits["b"])
            n2 = 1 - n1
            expected = 1 - (n2 & bits["a"])
            assert g.simulate(bits, 1)["out"] == expected

    def test_missing_input(self):
        g, _ = small_graph()
        with pytest.raises(NetworkError):
            g.simulate({"a": 1}, 1)

    def test_stats_and_repr(self):
        g, _ = small_graph()
        stats = g.stats()
        assert stats["gates"] == 3
        assert "SubjectGraph" in repr(g)
