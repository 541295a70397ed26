"""Tests for pattern-graph generation (repro.library.patterns)."""

import hashlib

import pytest

from repro.library.builtin import (
    lib2_like, lib2_sized, lib44_1, lib44_3, mini_library,
)
from repro.library.gate import Pin, make_gate
from repro.library.patterns import (
    PatternSet,
    _binary_variants,
    _Builder,
    _canonical_keys,
    _normalize,
    _pin_classes,
    _SkipGate,
    generate_patterns,
)
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


#: The pattern sets the digest pins: builtin library, variants per gate.
DIGEST_SETS = {
    "lib2@8": (lib2_like, 8),
    "44-1@8": (lib44_1, 8),
    "44-3@4": (lib44_3, 4),
    "mini@8": (mini_library, 8),
    "lib2_sized@4": (lib2_sized, 4),
}


def key_classes(patterns):
    """Key equality among one gate's pattern nodes, as first-equal maps.

    Each node maps to the first ``(pattern index, uid)`` of the gate
    whose canonical key equals its own, so the encoding does not depend
    on how keys are represented, only on which of them are equal.
    """
    first = {}
    return [
        [first.setdefault(p.node_keys[n.uid], (i, n.uid)) for n in p.nodes]
        for i, p in enumerate(patterns)
    ]


def pattern_set_digest(patterns):
    """sha256 (first 16 hex digits) of every pattern fact the matcher reads."""
    blob = []
    for gate in patterns.library:
        of_gate = [p for p in patterns.patterns if p.gate is gate]
        for pattern, classes in zip(of_gate, key_classes(of_gate)):
            blob.append((
                gate.name,
                [
                    (n.uid, n.kind.value, tuple(f.uid for f in n.fanins), n.pin)
                    for n in pattern.nodes
                ],
                pattern.root.uid,
                pattern.depth,
                sorted(pattern.pin_classes.items()),
                sorted(pattern.fanout.items()),
                sorted(pattern.swap_safe),
                classes,
            ))
    return hashlib.sha256(repr(blob).encode()).hexdigest()[:16]


class TestSamePatterns:
    @pytest.mark.parametrize("name", list(DIGEST_SETS))
    def test_recorded_digest(self, name):
        # Recorded pattern lists: a change here changes the trie groups,
        # the NPN table and every cover.
        factory, variants = DIGEST_SETS[name]
        patterns = PatternSet(factory(), max_variants=variants)
        assert pattern_set_digest(patterns) == {
            "lib2@8": "7a67f41e077f16bb",
            "44-1@8": "c09ecbc0778103e8",
            "44-3@4": "dba1ec3df7d0a20f",
            "mini@8": "4d3cb66c44fa0fce",
            "lib2_sized@4": "18767f551dfd327e",
        }[name]


def reference_tree_key(tree):
    """Nested-tuple key of a binary tree, operands sorted by ``repr``."""
    kind = tree[0]
    if kind == "var":
        return ("v", tree[1])
    if kind == "not":
        return ("!", reference_tree_key(tree[1]))
    a, b = sorted((reference_tree_key(tree[1]), reference_tree_key(tree[2])), key=repr)
    return (kind, a, b)


def reference_node_key(node, pin_classes, memo):
    """Nested-tuple key of a pattern subtree, fanins sorted by ``repr``."""
    if node.uid not in memo:
        if node.is_leaf:
            key = ("L", pin_classes.get(node.pin, node.pin))
        elif node.kind is NodeType.INV:
            key = ("I", reference_node_key(node.fanins[0], pin_classes, memo))
        else:
            children = (reference_node_key(f, pin_classes, memo) for f in node.fanins)
            key = ("N", tuple(sorted(children, key=repr)))
        memo[node.uid] = key
    return memo[node.uid]


def same_equality(pairs):
    """True when the first items are equal exactly where the second are."""
    forward, backward = {}, {}
    return all(
        forward.setdefault(a, b) == b and backward.setdefault(b, a) == a
        for a, b in pairs
    )


class TestInternedKeys:
    @pytest.mark.parametrize("variants", [1, 4, 16])
    @pytest.mark.parametrize(
        "factory", [lib2_like, lib44_1, lib44_3, mini_library, lib2_sized]
    )
    def test_same_equality_as_nested_keys(self, factory, variants):
        # Every candidate of every gate, the ones generate_patterns drops
        # as duplicates included: the interned tree and node keys must be
        # equal exactly where the nested-tuple keys are.
        for gate in factory():
            try:
                norm = _normalize(gate.expr)
            except _SkipGate:
                continue
            pin_classes = _pin_classes(gate)
            ids = {}
            tree_pairs, node_pairs = [], []
            for tree, key in _binary_variants(norm, variants * 4, ids):
                tree_pairs.append((key, reference_tree_key(tree)))
                builder = _Builder(gate)
                root = builder.emit(tree, inverted=False)
                keys = _canonical_keys(builder.nodes, pin_classes, ids)
                memo = {}
                reference_node_key(root, pin_classes, memo)
                assert set(memo) == set(keys)
                node_pairs.extend((keys[uid], ref) for uid, ref in memo.items())
            assert same_equality(tree_pairs), gate.name
            assert same_equality(node_pairs), gate.name
