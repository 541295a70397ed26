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


#: Serialization tokens of :func:`_ordered_serial`; a back-reference to
#: the node first visited at position ``i`` is the token ``-1 - i``.
_LEAF, _INV, _NAND2, _NAND2_SWAP_SAFE = 0, 1, 2, 3


def _ordered_serial(
    pattern: PatternGraph,
) -> Tuple[Tuple[int, ...], List[PatternNode]]:
    """(token tuple, first-visit node order) of a pattern's exact structure.

    The serialization is a prefix code (INV: one child, NAND2: two,
    leaves and back-references terminal), so equal token tuples imply the
    first-visit orders are aligned by a structure-preserving isomorphism
    — the correspondence used to translate bindings between group
    members.
    """
    tokens: List[int] = []
    order: List[PatternNode] = []
    index: Dict[int, int] = {}
    swap_safe = pattern.swap_safe
    # Preorder, first fanin first: a node's back-reference test runs when
    # it is popped, after its left sibling's whole subtree.
    stack: List[PatternNode] = [pattern.root]
    while stack:
        node = stack.pop()
        uid = node.uid
        local = index.get(uid)
        if local is not None:
            tokens.append(-1 - local)
            continue
        index[uid] = len(order)
        order.append(node)
        fanins = node.fanins
        if not fanins:
            tokens.append(_LEAF)
        elif len(fanins) == 1:
            tokens.append(_INV)
            stack.append(fanins[0])
        else:
            tokens.append(_NAND2_SWAP_SAFE if uid in swap_safe else _NAND2)
            stack.append(fanins[1])
            stack.append(fanins[0])
    return tuple(tokens), order


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
        by_serial: Dict[
            Tuple[object, ...], Tuple[PatternGroup, List[PatternNode]]
        ] = {}
        serial: Tuple[object, ...]
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

        # Bottom-up over each pattern's topological node list: a node's
        # shape key is its children's shape ids, NAND2 children sorted.
        # The arity is the kind (PI 0, INV 1, NAND2 2), so equal keys are
        # equal unordered shapes.
        intern: Dict[Tuple[int, ...], int] = {}
        shape_of: Dict[int, int] = {}
        for pattern in patterns.patterns:
            for node in pattern.nodes:
                fanins = node.fanins
                key: Tuple[int, ...] = ()
                if len(fanins) == 1:
                    key = (shape_of[id(fanins[0])],)
                elif fanins:
                    a = shape_of[id(fanins[0])]
                    b = shape_of[id(fanins[1])]
                    key = (a, b) if a <= b else (b, a)
                sid = intern.get(key)
                if sid is None:
                    sid = intern[key] = len(intern)
                shape_of[id(node)] = sid
        self.shape_of = shape_of
        self.n_shapes = len(intern)

    def __repr__(self) -> str:
        n_patterns = sum(len(g.members) for g in self.groups)
        return (
            f"PatternTrie({n_patterns} patterns in {len(self.groups)} groups, "
            f"{self.n_shapes} shapes)"
        )
