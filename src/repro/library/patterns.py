"""Pattern-graph generation: library gates -> NAND2-INV pattern DAGs.

Each library gate's function is decomposed into one or more NAND2-INV
*pattern graphs* (Keutzer's formulation).  Leaves of a pattern correspond
to gate input pins; a leaf may be shared by several internal nodes (a
"leaf-DAG", e.g. XOR patterns), and general DAG patterns are allowed — the
paper shows they are safe for delay optimisation (Section 3.1).

For every associative operator we enumerate *all structurally distinct
bracketings* (up to a per-gate cap), so the pattern set plays the role of
the "expanded pattern graphs" of Rudell's matcher (footnote 2 of the
paper); input permutations themselves are explored inside the matcher, not
here.  Because both the subject graph and the patterns are produced by the
same balanced decomposition style, the canonical shapes line up.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import LibraryError
from repro.library.gate import Gate, GateLibrary, Pin
from repro.network.expr import And, Const, Expr, Not, Or, Var, Xor
from repro.network.subject import NodeType

if TYPE_CHECKING:
    from repro.perf.trie import PatternTrie

__all__ = ["PatternNode", "PatternGraph", "PatternSet", "generate_patterns"]

#: Default cap on decomposition variants kept per gate.
DEFAULT_MAX_VARIANTS = 16

#: Operand count above which only balanced/left-linear bracketings are tried.
_FULL_ENUM_LIMIT = 5


class PatternNode:
    """A node of a pattern graph.

    ``kind`` is :data:`NodeType.PI` for leaves (then :attr:`pin` names the
    gate input pin), else INV or NAND2.
    """

    __slots__ = ("uid", "kind", "fanins", "pin")

    def __init__(
        self,
        uid: int,
        kind: NodeType,
        fanins: Tuple["PatternNode", ...] = (),
        pin: Optional[str] = None,
    ):
        self.uid = uid
        self.kind = kind
        self.fanins = fanins
        self.pin = pin

    @property
    def is_leaf(self) -> bool:
        return self.kind is NodeType.PI

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"<leaf#{self.uid} pin={self.pin}>"
        fanins = ",".join(str(f.uid) for f in self.fanins)
        return f"<{self.kind.value}#{self.uid}({fanins})>"


class PatternGraph:
    """One NAND2-INV decomposition of a library gate."""

    __slots__ = (
        "gate", "root", "nodes", "leaves", "n_internal", "depth",
        "pin_classes", "key", "node_keys", "fanout", "swap_safe",
        "leaf_delays",
    )

    def __init__(
        self,
        gate: Gate,
        root: PatternNode,
        nodes: List[PatternNode],
        pin_classes: Dict[str, int],
        node_keys: Dict[int, int],
    ):
        self.gate = gate
        self.root = root
        #: All nodes in topological order (leaves first).
        self.nodes = nodes
        self.leaves: List[PatternNode] = [n for n in nodes if n.is_leaf]
        self.n_internal = len(nodes) - len(self.leaves)
        self.depth = _depth_of(root, nodes)
        #: pin name -> interchangeability class (symmetric pins with
        #: identical timing share a class).  Used for canonicalisation
        #: here and for match deduplication in the matcher.
        self.pin_classes: Dict[str, int] = dict(pin_classes)
        #: Per-node canonical subtree keys (uid -> key, see
        #: :func:`_canonical_keys`), interned per gate: keys of one
        #: gate's patterns compare, keys of different gates do not.
        self.node_keys = node_keys
        #: Canonical key up to pin interchangeability: two decompositions
        #: that differ only in the placement of mutually symmetric,
        #: timing-identical pins produce the same key (the matcher's pin
        #: binding recovers either assignment).
        self.key = node_keys[root.uid]
        #: node uid -> number of fanin references to it inside the
        #: pattern (absent for the root): the pattern side of the exact
        #: match's out-degree condition.
        self.fanout: Dict[int, int] = {}
        for node in nodes:
            for fanin in node.fanins:
                self.fanout[fanin.uid] = self.fanout.get(fanin.uid, 0) + 1
        #: NAND2 nodes whose swapped fanin order is provably redundant:
        #: the children are isomorphic (equal canonical keys), *disjoint*
        #: and tree-shaped, so composing a match with the child
        #: isomorphism turns any swapped-order match into an
        #: unswapped-order match with the same pin-class costs.  Shared
        #: leaves (e.g. XOR patterns) break that argument and are
        #: excluded.
        self.swap_safe: set = _swap_safe_nodes(nodes, node_keys, self.fanout)
        #: (leaf uid, pin-to-output delay) in :attr:`leaves` order, read
        #: by the labeling passes.  The independent checks (certificate,
        #: STA) look pins up on the gate instead, so a wrong pairing here
        #: shows as a label/STA mismatch.
        self.leaf_delays: Tuple[Tuple[int, float], ...] = tuple(
            (leaf.uid, gate.pin_delay(leaf.pin)) for leaf in self.leaves
        )

    def __repr__(self) -> str:
        return (
            f"PatternGraph({self.gate.name!r}, internal={self.n_internal}, "
            f"depth={self.depth})"
        )


def _depth_of(root: PatternNode, nodes: Sequence[PatternNode]) -> int:
    """Depth of ``root`` over ``nodes`` in topological order."""
    depth: Dict[int, int] = {}
    for node in nodes:
        depth[node.uid] = (
            1 + max(depth[f.uid] for f in node.fanins) if node.fanins else 0
        )
    return depth[root.uid]


#: A normalised expression / binary pattern tree: nested tuples whose
#: first element names the node kind ('var'/'not'/'and'/'or'/'and2'/
#: 'or2').  The shape is recursive, so the alias stays deliberately
#: loose.
_Tree = Tuple[object, ...]

#: An intern table, one per :func:`generate_patterns` call: key entry
#: (an operator and its operands' ids) -> id.
_Ids = Dict[Tuple[object, ...], int]

#: A binary tree and its canonical key: an id, interned per gate, that
#: two trees share exactly when they are equal up to the operand order
#: of their commutative and2/or2 nodes.
_Keyed = Tuple[_Tree, int]


def _subtree_scan(node: PatternNode) -> Tuple[Set[int], bool]:
    """(uid set, is_tree) of the sub-DAG rooted at ``node``."""
    seen: set = set()
    is_tree = True
    stack = [node]
    while stack:
        current = stack.pop()
        if current.uid in seen:
            is_tree = False
            continue
        seen.add(current.uid)
        stack.extend(current.fanins)
    return seen, is_tree


def _swap_safe_nodes(
    nodes: Sequence[PatternNode],
    node_keys: Dict[int, int],
    fanout: Dict[int, int],
) -> Set[int]:
    """NAND2 nodes where trying only one fanin order is lossless.

    Requirements: the two children have equal canonical keys (so a
    pin-class-preserving isomorphism exists), both subtrees are trees,
    they are disjoint from each other, *and* no subtree node is
    referenced from anywhere else in the pattern — otherwise swapping
    interacts with bindings established outside the pair and can reach
    matches the unswapped order cannot.
    """
    safe: Set[int] = set()
    for node in nodes:
        if node.kind is not NodeType.NAND2:
            continue
        p0, p1 = node.fanins
        if p0 is p1 or node_keys[p0.uid] != node_keys[p1.uid]:
            continue
        set0, tree0 = _subtree_scan(p0)
        set1, tree1 = _subtree_scan(p1)
        if not (tree0 and tree1) or (set0 & set1):
            continue
        if all(fanout.get(uid, 0) == 1 for uid in set0 | set1):
            safe.add(node.uid)
    return safe


def _canonical_keys(
    nodes: Sequence[PatternNode], pin_classes: Dict[str, int], ids: _Ids
) -> Dict[int, int]:
    """Per-node canonical keys (uid -> key) of a pattern DAG.

    ``nodes`` is in topological order.  A key is the ``ids`` entry of
    ``("L", pin class)``, ``("I", child key)`` or ``("N", smaller child
    key, larger child key)``, so two subtrees get equal keys exactly when
    they are isomorphic up to fanin order and interchangeable pins.
    """
    keys: Dict[int, int] = {}
    for node in nodes:
        if node.is_leaf:
            entry: Tuple[object, ...] = ("L", pin_classes.get(node.pin, node.pin))
        elif node.kind is NodeType.INV:
            entry = ("I", keys[node.fanins[0].uid])
        else:
            a, b = keys[node.fanins[0].uid], keys[node.fanins[1].uid]
            entry = ("N", a, b) if a <= b else ("N", b, a)
        keys[node.uid] = ids.setdefault(entry, len(ids))
    return keys


# ----------------------------------------------------------------------
# Normalisation of gate expressions to {var, not, and, or} trees
# ----------------------------------------------------------------------


class _SkipGate(Exception):
    """Raised when a gate has no useful pattern (constant or buffer)."""


def _pin_classes(gate: Gate) -> Dict[str, int]:
    """Group gate pins into interchangeability classes.

    Pins ``i`` and ``j`` are interchangeable when swapping them leaves the
    gate function unchanged *and* they carry identical timing/loading
    parameters.  Decomposition variants that differ only in the placement
    of interchangeable pins are redundant, because the matcher assigns
    pins to subject nodes freely during binding.
    """
    n = gate.n_inputs
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def pin_params(pin: Pin) -> Tuple:
        return (
            pin.phase, pin.input_load, pin.max_load,
            pin.rise_block, pin.rise_fanout, pin.fall_block, pin.fall_fanout,
        )

    from repro.network.functions import TruthTable

    bits = gate.tt.bits
    var_masks = [TruthTable.variable(i, n).bits for i in range(n)]
    full = (1 << (1 << n)) - 1
    for i in range(n):
        for j in range(i + 1, n):
            if pin_params(gate.pins[i]) != pin_params(gate.pins[j]):
                continue
            # f is symmetric in (i, j) iff its value on every minterm with
            # x_i=0, x_j=1 equals the value on the swapped minterm.
            m01 = (~var_masks[i] & var_masks[j]) & full
            m10 = (var_masks[i] & ~var_masks[j]) & full
            shift = (1 << j) - (1 << i)
            if ((bits & m01) >> shift) == (bits & m10):
                parent[find(i)] = find(j)
    return {gate.inputs[i]: find(i) for i in range(n)}


def _normalize(expr: Expr) -> _Tree:
    """Rewrite an Expr into nested ('var'|'not'|'and'|'or') tuples."""
    if isinstance(expr, Var):
        return ("var", expr.name)
    if isinstance(expr, Const):
        raise _SkipGate("constant gate")
    if isinstance(expr, Not):
        return ("not", _normalize(expr.child))
    if isinstance(expr, And):
        return ("and", [_normalize(a) for a in expr.args])
    if isinstance(expr, Or):
        return ("or", [_normalize(a) for a in expr.args])
    if isinstance(expr, Xor):
        result = _normalize(expr.args[0])
        for arg in expr.args[1:]:
            other = _normalize(arg)
            result = (
                "or",
                [
                    ("and", [result, ("not", other)]),
                    ("and", [("not", result), other]),
                ],
            )
        return result
    raise LibraryError(f"unsupported expression node {type(expr).__name__}")


# ----------------------------------------------------------------------
# Bracketing enumeration: n-ary ops -> structurally distinct binary trees
# ----------------------------------------------------------------------


def _join(op2: str, a: _Keyed, b: _Keyed, ids: _Ids) -> _Keyed:
    """The keyed tree ``op2(a, b)``."""
    (tree_a, key_a), (tree_b, key_b) = a, b
    entry = (op2, key_a, key_b) if key_a <= key_b else (op2, key_b, key_a)
    return (op2, tree_a, tree_b), ids.setdefault(entry, len(ids))


def _bracketings(op: str, items: List[_Keyed], cap: int, ids: _Ids) -> List[_Keyed]:
    """All structurally distinct ways to binarise ``op(items)``."""
    if len(items) == 1:
        return [items[0]]
    if len(items) > _FULL_ENUM_LIMIT:
        return [_balanced(op + "2", items, ids), _linear(op + "2", items, ids)]
    results: Dict[int, _Keyed] = {}
    _merge_rec(op + "2", items, results, cap, ids)
    return list(results.values())


def _merge_rec(
    op2: str, items: List[_Keyed], out: Dict[int, _Keyed], cap: int, ids: _Ids
) -> None:
    if len(out) >= cap:
        return
    if len(items) == 1:
        out.setdefault(items[0][1], items[0])
        return
    n = len(items)
    tried: Set[int] = set()
    for i in range(n):
        for j in range(i + 1, n):
            merged = _join(op2, items[i], items[j], ids)
            if merged[1] in tried:
                continue
            tried.add(merged[1])
            rest = [items[k] for k in range(n) if k not in (i, j)] + [merged]
            _merge_rec(op2, rest, out, cap, ids)
            if len(out) >= cap:
                return


def _balanced(op2: str, items: List[_Keyed], ids: _Ids) -> _Keyed:
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    left, right = _balanced(op2, items[:mid], ids), _balanced(op2, items[mid:], ids)
    return _join(op2, left, right, ids)


def _linear(op2: str, items: List[_Keyed], ids: _Ids) -> _Keyed:
    keyed = items[0]
    for item in items[1:]:
        keyed = _join(op2, keyed, item, ids)
    return keyed


def _binary_variants(norm: _Tree, cap: int, ids: _Ids) -> List[_Keyed]:
    """All binary-tree realisations of a normalised expression (capped)."""
    kind = norm[0]
    if kind == "var":
        return [(norm, ids.setdefault(("v", norm[1]), len(ids)))]
    if kind == "not":
        return [
            (("not", tree), ids.setdefault(("!", key), len(ids)))
            for tree, key in _binary_variants(norm[1], cap, ids)
        ]
    op, operands = kind, norm[1]
    operand_variant_lists = [_binary_variants(o, cap, ids) for o in operands]
    results: Dict[int, _Keyed] = {}
    for combo in itertools.product(*operand_variant_lists):
        for keyed in _bracketings(op, list(combo), cap, ids):
            results.setdefault(keyed[1], keyed)
            if len(results) >= cap:
                return list(results.values())
    return list(results.values())


# ----------------------------------------------------------------------
# Emission: binary tree -> PatternGraph (NAND2/INV with phase pushing)
# ----------------------------------------------------------------------


class _Builder:
    """Builds one pattern graph with local structural hashing."""

    def __init__(self, gate: Gate):
        self.gate = gate
        self.nodes: List[PatternNode] = []
        self._leaves: Dict[str, PatternNode] = {}
        self._strash: Dict[Tuple, PatternNode] = {}

    def leaf(self, pin: str) -> PatternNode:
        node = self._leaves.get(pin)
        if node is None:
            node = PatternNode(len(self.nodes), NodeType.PI, (), pin)
            self.nodes.append(node)
            self._leaves[pin] = node
        return node

    def inv(self, child: PatternNode) -> PatternNode:
        if child.kind is NodeType.INV:
            return child.fanins[0]
        key = (NodeType.INV, child.uid)
        node = self._strash.get(key)
        if node is None:
            node = PatternNode(len(self.nodes), NodeType.INV, (child,))
            self.nodes.append(node)
            self._strash[key] = node
        return node

    def nand2(self, a: PatternNode, b: PatternNode) -> PatternNode:
        key = (NodeType.NAND2, tuple(sorted((a.uid, b.uid))))
        node = self._strash.get(key)
        if node is None:
            node = PatternNode(len(self.nodes), NodeType.NAND2, (a, b))
            self.nodes.append(node)
            self._strash[key] = node
        return node

    def emit(self, tree: _Tree, inverted: bool) -> PatternNode:
        kind = tree[0]
        if kind == "var":
            node = self.leaf(tree[1])
            return self.inv(node) if inverted else node
        if kind == "not":
            return self.emit(tree[1], not inverted)
        if kind == "and2":
            nand = self.nand2(
                self.emit(tree[1], False), self.emit(tree[2], False)
            )
            return nand if inverted else self.inv(nand)
        if kind == "or2":
            nand = self.nand2(self.emit(tree[1], True), self.emit(tree[2], True))
            return self.inv(nand) if inverted else nand
        raise LibraryError(f"bad binary tree node {kind!r}")


def generate_patterns(
    gate: Gate, max_variants: int = DEFAULT_MAX_VARIANTS
) -> List[PatternGraph]:
    """All (capped, deduplicated) pattern graphs for one gate.

    Returns an empty list for gates with no mappable pattern: constants and
    buffers (which have no NAND2/INV root).
    """
    try:
        norm = _normalize(gate.expr)
    except _SkipGate:
        return []
    pin_classes = _pin_classes(gate)
    ids: _Ids = {}
    patterns: Dict[int, PatternGraph] = {}
    for tree, _ in _binary_variants(norm, max_variants * 4, ids):
        builder = _Builder(gate)
        root = builder.emit(tree, inverted=False)
        if root.is_leaf:
            # Buffer: f == pin. No internal node to match against.
            continue
        node_keys = _canonical_keys(builder.nodes, pin_classes, ids)
        if node_keys[root.uid] not in patterns:
            patterns[node_keys[root.uid]] = PatternGraph(
                gate, root, builder.nodes, pin_classes, node_keys
            )
        if len(patterns) >= max_variants:
            break
    return list(patterns.values())


class PatternSet:
    """All pattern graphs of a library, indexed for the matcher.

    The set owns every fact that depends on the patterns alone, and
    every matcher over it shares them: :attr:`trie` is built on first
    use, at most once, and no fact is written afterwards.

    Attributes:
        library: the gate library the set was built from.
        max_variants: pattern-decomposition variants per gate.
        patterns: every pattern graph.
        by_root_kind: patterns grouped by root node type, the matcher's
            first-level filter.
        total_nodes: sum of pattern node counts — the paper's ``p`` in the
            O(s*p) complexity bound (Section 3.4).
        max_depth: the deepest pattern, which bounds a match's cone.
        use_cap: ``1 +`` the largest pattern fanout; exact-kind cone
            signatures clamp subject use counts to it, since all larger
            counts fail the out-degree condition alike.
        skipped: names of gates with no pattern (constants, buffers).
    """

    def __init__(
        self,
        library: GateLibrary,
        max_variants: int = DEFAULT_MAX_VARIANTS,
    ):
        self.library = library
        self.max_variants = max_variants
        self.patterns: List[PatternGraph] = []
        self.skipped: List[str] = []
        for gate in library:
            gate_patterns = generate_patterns(gate, max_variants)
            if gate_patterns:
                self.patterns.extend(gate_patterns)
            else:
                self.skipped.append(gate.name)
        self.by_root_kind: Dict[NodeType, List[PatternGraph]] = {
            NodeType.INV: [],
            NodeType.NAND2: [],
        }
        for pattern in self.patterns:
            self.by_root_kind[pattern.root.kind].append(pattern)
        self.total_nodes = sum(len(p.nodes) for p in self.patterns)
        self.max_depth = max((p.depth for p in self.patterns), default=0)
        self.use_cap = 1 + max(
            (max(p.fanout.values(), default=0) for p in self.patterns),
            default=0,
        )

    @classmethod
    def of(
        cls,
        library: Union[GateLibrary, "PatternSet"],
        max_variants: int = DEFAULT_MAX_VARIANTS,
    ) -> "PatternSet":
        """``library`` if it is a pattern set, else its pattern set."""
        if isinstance(library, PatternSet):
            return library
        return cls(library, max_variants)

    @cached_property
    def trie(self) -> "PatternTrie":
        """The matcher's binding groups, feasibility and capped shapes."""
        from repro.perf.trie import PatternTrie

        return PatternTrie(self)

    def same_set(self, other: "PatternSet") -> bool:
        """Whether ``other`` holds exactly this set's patterns.

        True for this set and for any set built from the same library
        object with the same variant count: generation is deterministic,
        so both hold equal patterns in the same order.
        """
        return other is self or (
            other.library is self.library
            and other.max_variants == self.max_variants
        )

    def for_root(self, kind: NodeType) -> List[PatternGraph]:
        return self.by_root_kind.get(kind, [])

    def __len__(self) -> int:
        return len(self.patterns)

    def __repr__(self) -> str:
        return (
            f"PatternSet({self.library.name!r}, {len(self.patterns)} patterns "
            f"from {len(self.library)} gates, total_nodes={self.total_nodes})"
        )
