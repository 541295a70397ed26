"""Tests for pattern-graph generation (repro.library.patterns)."""

import pytest

from repro.library.builtin import lib2_like, lib44_1, mini_library
from repro.library.gate import Pin, make_gate
from repro.library.patterns import PatternSet, generate_patterns
from repro.network.subject import NodeType


def simulate_pattern(pattern, assignment):
    """Evaluate a pattern graph on a pin assignment (dict pin -> 0/1)."""
    values = {}
    for node in pattern.nodes:
        if node.is_leaf:
            values[node.uid] = assignment[node.pin]
        elif node.kind is NodeType.INV:
            values[node.uid] = 1 - values[node.fanins[0].uid]
        else:
            a, b = node.fanins
            values[node.uid] = 1 - (values[a.uid] & values[b.uid])
    return values[pattern.root.uid]


def assert_pattern_computes_gate(pattern):
    gate = pattern.gate
    for m in range(1 << gate.n_inputs):
        assignment = {
            pin: (m >> i) & 1 for i, pin in enumerate(gate.inputs)
        }
        assert simulate_pattern(pattern, assignment) == gate.tt.evaluate(m), (
            f"pattern of {gate.name} wrong at {assignment}"
        )


class TestGeneration:
    @pytest.mark.parametrize("factory", [mini_library, lib44_1, lib2_like])
    def test_all_patterns_compute_their_gate(self, factory):
        for gate in factory():
            for pattern in generate_patterns(gate, max_variants=8):
                assert_pattern_computes_gate(pattern)

    def test_inverter_pattern(self):
        inv = make_gate("inv", 1.0, "O=!a")
        patterns = generate_patterns(inv)
        assert len(patterns) == 1
        assert patterns[0].n_internal == 1
        assert patterns[0].root.kind is NodeType.INV

    def test_nand2_pattern(self):
        gate = make_gate("nand2", 1.0, "O=!(a*b)")
        patterns = generate_patterns(gate)
        assert len(patterns) == 1
        assert patterns[0].n_internal == 1
        assert patterns[0].root.kind is NodeType.NAND2

    def test_buffer_and_constant_skipped(self):
        assert generate_patterns(make_gate("buf", 1.0, "O=a")) == []
        assert generate_patterns(make_gate("one", 1.0, "O=CONST1")) == []

    def test_xor_is_leaf_dag(self):
        gate = make_gate("xor2", 1.0, "O=a*!b+!a*b")
        patterns = generate_patterns(gate, max_variants=8)
        assert patterns
        for pattern in patterns:
            # Each pin appears as exactly one (shared) leaf.
            assert len(pattern.leaves) == 2
            assert {leaf.pin for leaf in pattern.leaves} == {"a", "b"}

    def test_nand4_has_two_shapes(self):
        gate = make_gate("nand4", 1.0, "O=!(a*b*c*d)")
        patterns = generate_patterns(gate, max_variants=16)
        # Balanced and caterpillar bracketings, deduplicated structurally.
        assert len(patterns) == 2
        depths = sorted(p.depth for p in patterns)
        assert depths[0] < depths[1]
        for pattern in patterns:
            assert_pattern_computes_gate(pattern)

    def test_variant_cap(self):
        gate = make_gate("big", 1.0, "O=!(a*b*c*d + e*f*g*h)")
        capped = generate_patterns(gate, max_variants=3)
        assert 1 <= len(capped) <= 3
        for pattern in capped:
            assert_pattern_computes_gate(pattern)

    def test_patterns_are_deduplicated(self):
        gate = make_gate("nand3", 1.0, "O=!(a*b*c)")
        patterns = generate_patterns(gate, max_variants=32)
        keys = [p.key for p in patterns]
        assert len(keys) == len(set(keys))
        # All bracketings of 3 symmetric leaves are isomorphic: 1 pattern.
        assert len(patterns) == 1


class TestPatternSet:
    def test_indexing(self):
        ps = PatternSet(mini_library())
        assert len(ps) > 0
        for pattern in ps.for_root(NodeType.INV):
            assert pattern.root.kind is NodeType.INV
        for pattern in ps.for_root(NodeType.NAND2):
            assert pattern.root.kind is NodeType.NAND2
        assert ps.total_nodes == sum(len(p.nodes) for p in ps.patterns)
        assert "mini" in repr(ps)

    def test_skipped_gates_recorded(self):
        from repro.library.gate import GateLibrary

        lib = GateLibrary(
            [
                make_gate("inv", 1.0, "O=!a"),
                make_gate("nand2", 1.0, "O=!(a*b)"),
                make_gate("buf", 1.0, "O=a"),
            ]
        )
        ps = PatternSet(lib)
        assert ps.skipped == ["buf"]

    def test_max_depth(self):
        ps = PatternSet(lib44_1())
        assert ps.max_depth >= 3  # nand4 balanced = 3 levels

    def test_fanout_and_use_cap(self):
        ps = PatternSet(mini_library())
        for pattern in ps.patterns:
            refs = [f.uid for node in pattern.nodes for f in node.fanins]
            assert pattern.fanout == {uid: refs.count(uid) for uid in set(refs)}
            assert pattern.root.uid not in pattern.fanout
        # XOR2 patterns read each pin twice, so use counts above 2 are
        # indistinguishable to the exact match's out-degree condition
        xor = [p for p in ps.patterns if p.gate.name.startswith("xor")]
        assert xor and max(xor[0].fanout.values()) == 2
        assert ps.use_cap == 3
