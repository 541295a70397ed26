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
* **Capped shapes** — every pattern's tree shape cut off at
  :data:`SHAPE_DEPTH_CAP` levels (:func:`pattern_shape`), interned in a
  second id space that the matcher's shape filter extends with subject
  cone shapes (see ``Matcher._filtered_patterns``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, cast

from repro.library.patterns import PatternGraph, PatternNode, PatternSet
from repro.network.subject import NodeType

__all__ = [
    "PatternGroup",
    "PatternTrie",
    "SHAPE_DEPTH_CAP",
    "intern_shape_key",
    "pattern_shape",
]

#: Depth bound of the shape filter's pattern shapes and cone shapes.
SHAPE_DEPTH_CAP = 6

#: A depth-capped pattern shape: ``("?",)`` wildcard (leaf or beyond
#: the cap), ``("I", child)`` inverter, ``("N", a, b)`` NAND with
#: children in sorted order (canonical under NAND symmetry).
Shape = Tuple[object, ...]

#: Interned capped shape: ``None`` for the atoms (id 0 the wildcard, id
#: 1 the subject-PI marker), else the sorted tuple of the children's ids.
ShapeKey = Optional[Tuple[int, ...]]

_WILDCARD: Shape = ("?",)


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


def pattern_shape(pattern: PatternGraph, depth_cap: int = SHAPE_DEPTH_CAP) -> Shape:
    """The pattern tree truncated at ``depth_cap``, leaves collapsed.

    Leaves (and anything deeper than the cap) become the ``("?",)``
    wildcard; NAND children are sorted so symmetric bracketings share
    one canonical shape.  Any match maps every inner pattern node onto
    a subject node of the same kind preserving edges, so this shape
    embeds into the subject cone's depth-``depth_cap`` unfolding.
    """
    return _truncated_shape(pattern.root, depth_cap)


def _truncated_shape(node: PatternNode, budget: int) -> Shape:
    if not node.fanins or budget == 0:  # a leaf, or the cap
        return _WILDCARD
    if node.kind is NodeType.INV:
        return ("I", _truncated_shape(node.fanins[0], budget - 1))
    a = _truncated_shape(node.fanins[0], budget - 1)
    b = _truncated_shape(node.fanins[1], budget - 1)
    return ("N", a, b) if a <= b else ("N", b, a)  # type: ignore[operator]


def intern_shape_key(
    intern: Dict[Tuple[int, ...], int], keys: List[ShapeKey], key: Tuple[int, ...]
) -> int:
    """The id of ``key`` in the space ``keys`` (indexed by ``intern``)."""
    sid = intern.get(key)
    if sid is None:
        sid = intern[key] = len(keys)
        keys.append(key)
    return sid


def _intern_shape(
    intern: Dict[Tuple[int, ...], int], keys: List[ShapeKey], shape: Shape
) -> int:
    if shape[0] == "?":
        return 0
    children = (_intern_shape(intern, keys, cast(Shape, c)) for c in shape[1:])
    return intern_shape_key(intern, keys, tuple(sorted(children)))


class PatternTrie:
    """Binding groups plus interned feasibility and capped shapes.

    Attributes:
        groups: every :class:`PatternGroup`, in first-appearance order.
        group_of: ``id(pattern) -> PatternGroup``.
        shape_of: ``id(pattern node) -> interned shape id`` for every node
            of every pattern; nodes with equal unordered shape share one id.
        n_shapes: number of distinct shapes interned.
        capped_keys: capped-shape id -> :data:`ShapeKey` of every capped
            pattern shape and sub-shape: the frozen id space the shape
            filter extends with cone shapes (in a copy).
        capped_ids: root kind -> capped-shape id of every pattern in
            ``PatternSet.for_root`` order.
    """

    __slots__ = (
        "groups", "group_of", "shape_of", "n_shapes", "capped_keys", "capped_ids",
    )

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

        # Capped shapes once per group (members are isomorphic), groups
        # in first-appearance order, so ids are numbered as a walk over
        # every pattern would number them.
        keys: List[ShapeKey] = [None, None]  # the two atoms
        capped_intern: Dict[Tuple[int, ...], int] = {}
        capped_of: Dict[int, int] = {}
        for group in self.groups:
            sid = _intern_shape(capped_intern, keys, pattern_shape(group.rep))
            for member in group.members:
                capped_of[id(member)] = sid
        self.capped_keys: Tuple[ShapeKey, ...] = tuple(keys)
        self.capped_ids: Dict[NodeType, Tuple[int, ...]] = {
            kind: tuple(capped_of[id(p)] for p in ps)
            for kind, ps in patterns.by_root_kind.items()
        }

    def __repr__(self) -> str:
        n_patterns = sum(len(g.members) for g in self.groups)
        return (
            f"PatternTrie({n_patterns} patterns in {len(self.groups)} groups, "
            f"{self.n_shapes} shapes)"
        )
