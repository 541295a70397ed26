"""Pattern prefix trie: share matching work across a pattern set.

Rich libraries produce hundreds of patterns whose NAND2/INV
decompositions overlap heavily — the variants of one gate share whole
subtrees, and different gates (AND4 vs NAND4 vs their duals) reduce to
the same shapes.  The seed matcher enumerated every pattern independently
at every subject node; this module merges that work on two levels:

* **Binding groups** — patterns whose *ordered* structural serialization
  (kinds, fanin order, leaf sharing, swap-safe marks) is identical are
  matched by enumerating one representative; every member's bindings are
  recovered through the first-visit correspondence.  The enumeration is
  purely structure-driven, so the translated binding stream is exactly —
  element for element, in order — what enumerating the member itself
  would produce.  Grouping keys include the swap-safe marks so the
  symmetry pruning applied for the representative is the one every
  member would apply.
* **Shape interning** — the structural-feasibility memo (`Matcher._feasible`)
  is keyed by the interned *unordered* shape of a pattern subtree instead
  of the subtree's identity.  Feasibility is invariant under child order
  and ignores leaf pins and sharing, so one cache entry serves every
  occurrence of a shape across the entire pattern set: shared prefixes
  are walked once per subject node.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.library.patterns import PatternGraph, PatternNode, PatternSet
from repro.network.subject import NodeType

__all__ = ["PatternGroup", "PatternTrie"]


class PatternGroup:
    """Patterns sharing one ordered structural serialization.

    Attributes:
        rep: the representative pattern (first member in set order); all
            binding enumeration runs against its nodes.
        members: every pattern in the group, in pattern-set order.
        translations: ``id(pattern) -> (rep uid -> member uid)`` map, with
            ``None`` for the representative itself (identity).
    """

    __slots__ = ("rep", "members", "translations")

    def __init__(self, rep: PatternGraph):
        self.rep = rep
        self.members: List[PatternGraph] = [rep]
        self.translations: Dict[int, Optional[Dict[int, int]]] = {id(rep): None}

    def add(self, pattern: PatternGraph, rep_order: List[PatternNode],
            order: List[PatternNode]) -> None:
        self.members.append(pattern)
        self.translations[id(pattern)] = {
            rep_node.uid: node.uid for rep_node, node in zip(rep_order, order)
        }


def _ordered_serial(
    pattern: PatternGraph,
) -> Tuple[Tuple[Tuple, ...], List[PatternNode]]:
    """(token tuple, first-visit node order) of a pattern's exact structure.

    The serialization is a prefix code (INV: one child, NAND2: two,
    leaves and back-references terminal), so equal token tuples imply the
    first-visit orders are aligned by a structure-preserving isomorphism
    — the correspondence used to translate bindings between group
    members.
    """
    tokens: List[Tuple] = []
    order: List[PatternNode] = []
    index: Dict[int, int] = {}
    swap_safe = pattern.swap_safe
    # Preorder, first fanin first: a node's back-reference test runs when
    # it is popped, after its left sibling's whole subtree.
    stack: List[PatternNode] = [pattern.root]
    while stack:
        node = stack.pop()
        key = id(node)
        local = index.get(key)
        if local is not None:
            tokens.append(("ref", local))
            continue
        index[key] = len(order)
        order.append(node)
        kind = node.kind
        if kind is NodeType.PI:
            tokens.append(("L",))
        elif kind is NodeType.INV:
            tokens.append(("I",))
            stack.append(node.fanins[0])
        else:
            tokens.append(("N", node.uid in swap_safe))
            stack.append(node.fanins[1])
            stack.append(node.fanins[0])
    return tuple(tokens), order


def _shape_key(node: PatternNode, memo: Dict[int, object]) -> object:
    """Canonical *unordered* shape of a pattern subtree (pins erased).

    This is exactly the information structural feasibility depends on:
    the check recurses over kinds trying both child orders and terminates
    at leaves unconditionally, so it is invariant under child order, leaf
    identity and sharing.
    """
    key = memo.get(id(node))
    if key is not None:
        return key
    kind = node.kind
    if kind is NodeType.PI:
        key = "L"
    elif kind is NodeType.INV:
        key = ("I", _shape_key(node.fanins[0], memo))
    else:
        a = _shape_key(node.fanins[0], memo)
        b = _shape_key(node.fanins[1], memo)
        if repr(a) > repr(b):
            a, b = b, a
        key = ("N", a, b)
    memo[id(node)] = key
    return key


class PatternTrie:
    """Binding groups plus interned feasibility shapes for a pattern set.

    Attributes:
        groups: every :class:`PatternGroup`, in first-appearance order.
        group_of: ``id(pattern) -> PatternGroup``.
        shape_of: ``id(pattern node) -> interned shape id`` for every node
            of every pattern; nodes with equal unordered shape share one id.
        n_shapes: number of distinct shapes interned.
    """

    __slots__ = ("groups", "group_of", "shape_of", "n_shapes")

    def __init__(self, patterns: PatternSet):
        self.groups: List[PatternGroup] = []
        self.group_of: Dict[int, PatternGroup] = {}
        by_serial: Dict[Tuple, Tuple[PatternGroup, List[PatternNode]]] = {}
        for pattern in patterns.patterns:
            serial, order = _ordered_serial(pattern)
            if len(order) != len(pattern.nodes):
                # A node unreachable from the root (cannot happen with the
                # current builder) would leave bindings incomplete after
                # translation; keep such a pattern in a singleton group.
                serial = ("solo", id(pattern))
            entry = by_serial.get(serial)
            if entry is None:
                group = PatternGroup(pattern)
                by_serial[serial] = (group, order)
                self.groups.append(group)
            else:
                group, rep_order = entry
                group.add(pattern, rep_order, order)
            self.group_of[id(pattern)] = group

        intern: Dict[object, int] = {}
        self.shape_of: Dict[int, int] = {}
        memo: Dict[int, object] = {}
        for pattern in patterns.patterns:
            for node in pattern.nodes:
                key = _shape_key(node, memo)
                sid = intern.get(key)
                if sid is None:
                    sid = len(intern)
                    intern[key] = sid
                self.shape_of[id(node)] = sid
        self.n_shapes = len(intern)

    def __repr__(self) -> str:
        n_patterns = sum(len(g.members) for g in self.groups)
        return (
            f"PatternTrie({n_patterns} patterns in {len(self.groups)} groups, "
            f"{self.n_shapes} shapes)"
        )
