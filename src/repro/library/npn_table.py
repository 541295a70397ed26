"""Library preprocessing for the matcher's cut filter.

The matcher tries every library pattern at every subject node; on rich
libraries its cut filter (:class:`repro.core.match.Matcher`) first asks
a cheap functional question — *could this pattern's function possibly
live here?* — and only runs the binding enumerator for patterns that
survive.  This module builds everything that question needs, **once per
pattern set**:

* a *truncation chain* per pattern: for each height ``t`` up to
  ``depth_cap``, truncate the pattern at its nodes of min-distance
  ``>= t`` from the root; whenever that frontier has at most ``k``
  members, record ``(t, n, canonical bits)`` of the frontier function's
  NPN class.  Any injective structural match of the pattern maps the
  height-``t`` frontier onto a subject cut of size ``<= k`` whose cone
  function is NPN-equal and whose minimum derivation depth is ``<= t``
  — so a subject node lacking such a cut can skip the pattern entirely.
  (The argument needs fanin-multiset-preserving matches, which holds
  for STANDARD/EXACT; the filter never runs for EXTENDED.)
* a *truncated shape* per pattern: the pattern tree cut off at depth
  ``depth_cap``, leaves and deeper structure collapsed to a wildcard.
  Any injective match embeds this shape into the subject cone's
  depth-bounded unfolding (matches preserve edges and kinds), so the
  matcher can also skip patterns whose NAND2/INV *bracketing* cannot
  possibly align — a structural complement to the functional chains,
  which cannot see bracketing at all.
* a *chain-orbit map*: every function NPN-equivalent to some chain
  entry, mapped to that entry's ``(n, canonical bits)``.  The chains
  are classified through this one map: a frontier function is looked
  up, and on a miss its NPN orbit (the ``2 * 2^n * n!`` images under
  input permutation, input negation and output negation) is walked once
  and every image stored under the orbit's minimum — exactly the
  smallest form :func:`repro.network.npn.npn_canonical` searches for.
  The matcher looks a subject cut's function up in the same map: a
  function outside it is in no chain's class, so it can satisfy no
  chain entry.  The chains of 44-3 at four variants use ten classes, so
  the map holds 548 entries.

* the filter's *ids*: per root kind, the dense chain id and the
  interned shape id of every pattern in ``for_root`` order.  The
  pattern-shape id space is frozen; a matcher extends a copy of it.

Building the table costs one orbit walk per chain class plus one lookup
per pattern level — about 0.12 s for the 876-pattern 44-3 set.  It is
built in memory only, once per pattern set (:attr:`PatternSet.npn_table`,
at the first attach that turns the filter on), always with ``k`` =
:data:`DEFAULT_K` and ``depth_cap`` = :data:`DEFAULT_DEPTH_CAP`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, cast

from repro.library.patterns import PatternGraph, PatternNode, PatternSet
from repro.network.functions import negate_inputs_bits, permute_bits, variable_bits
from repro.network.subject import NodeType

__all__ = [
    "NPNTable",
    "build_npn_table",
    "pattern_chain",
    "pattern_shape",
]

#: Frontier-size bound for chain entries.  Cuts wider than this are
#: never consulted, so the subject-side enumeration stays k-feasible
#: with small k even for 6-input libraries.
DEFAULT_K = 4

#: Truncation-height bound.  Pattern levels beyond this contribute no
#: chain entry (subject cut enumeration is depth-bounded to match).
DEFAULT_DEPTH_CAP = 6

#: One chain entry: (truncation height, frontier size, canonical bits).
ChainEntry = Tuple[int, int, int]

#: A pattern's truncation chain, ascending in height.
Chain = Tuple[ChainEntry, ...]

#: ``(n, function bits) -> (n, canonical bits)`` over whole NPN orbits.
OrbitMap = Dict[Tuple[int, int], Tuple[int, int]]

#: A depth-truncated pattern shape: ``("?",)`` wildcard (leaf or beyond
#: the depth cap), ``("I", child)`` inverter, ``("N", a, b)`` NAND with
#: children in sorted order (canonical under NAND symmetry).
Shape = Tuple[object, ...]

#: Interned shape: ``None`` for the atoms (id 0 the wildcard, id 1 the
#: subject-PI marker), else the sorted tuple of the children's ids.
ShapeKey = Optional[Tuple[int, ...]]

_WILDCARD: Shape = ("?",)


def pattern_chain(
    pattern: PatternGraph,
    k: int = DEFAULT_K,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    orbits: Optional[OrbitMap] = None,
) -> Chain:
    """The truncation chain of one pattern (see the module docstring).

    Height ``t`` truncates the pattern at the nodes whose *minimum*
    distance from the root is ``>= t`` (leaves always terminate); the
    entry is emitted only when that frontier has ``<= k`` members.  The
    frontier function is evaluated as a packed word over the frontier
    ordered by node uid and classified through ``orbits`` (a fresh map
    when ``None``), which gains the orbit of every new class.
    """
    if orbits is None:
        orbits = {}
    dist: Dict[int, int] = {pattern.root.uid: 0}
    frontier: List[PatternNode] = [pattern.root]
    while frontier:
        nxt: List[PatternNode] = []
        for node in frontier:
            if node.is_leaf:
                continue
            for fanin in node.fanins:
                if fanin.uid not in dist:
                    dist[fanin.uid] = dist[node.uid] + 1
                    nxt.append(fanin)
        frontier = nxt
    # The height-t frontier is the inner nodes at min-distance t plus the
    # leaves at min-distance <= t: a node's shortest path from the root
    # runs through inner nodes nearer than it.  One pass in uid order
    # (pattern nodes are stored by uid) fills every height's frontier.
    top = min(pattern.depth, depth_cap)
    frontiers: List[List[PatternNode]] = [[] for _ in range(top + 1)]
    for node in pattern.nodes:
        d = dist.get(node.uid, top + 1)
        if d > top:
            continue
        if node.is_leaf:
            for t in range(d, top + 1):
                frontiers[t].append(node)
        else:
            frontiers[d].append(node)
    chain: List[ChainEntry] = []
    for t in range(1, top + 1):
        order = frontiers[t]
        n = len(order)
        if n <= k:
            chain.append((t, n, _classify(orbits, n, _cone_bits(pattern.root, order))))
    return tuple(chain)


def _classify(orbits: OrbitMap, n: int, bits: int) -> int:
    """Canonical bits of an ``n``-input function, filling ``orbits``.

    A miss walks the function's orbit in permutation / input-negation /
    output-negation order and stores every image under the minimum.
    """
    cls = orbits.get((n, bits))
    if cls is None:
        full = (1 << (1 << n)) - 1
        images: List[int] = []
        for perm in permutations(range(n)):
            for neg in range(1 << n):
                image = permute_bits(negate_inputs_bits(bits, neg, n), perm, n)
                images += (image, image ^ full)
        cls = (n, min(images))
        for image in images:
            orbits[(n, image)] = cls
    return cls[1]


def pattern_shape(
    pattern: PatternGraph, depth_cap: int = DEFAULT_DEPTH_CAP
) -> Shape:
    """The pattern tree truncated at ``depth_cap``, leaves collapsed.

    Leaves (and anything deeper than the cap) become the ``("?",)``
    wildcard; NAND children are sorted so symmetric bracketings share
    one canonical shape.  An injective STANDARD/EXACT match maps every
    inner pattern node onto a subject node of the same kind preserving
    edges, so this shape always embeds into the subject cone's
    depth-``depth_cap`` unfolding — the matcher uses that as a
    structural pre-filter.
    """
    return _truncated_shape(pattern.root, depth_cap)


def _truncated_shape(node: PatternNode, budget: int) -> Shape:
    if node.is_leaf or budget == 0:
        return _WILDCARD
    if node.kind is NodeType.INV:
        return ("I", _truncated_shape(node.fanins[0], budget - 1))
    a = _truncated_shape(node.fanins[0], budget - 1)
    b = _truncated_shape(node.fanins[1], budget - 1)
    return ("N", a, b) if a <= b else ("N", b, a)  # type: ignore[operator]


def _cone_bits(root: PatternNode, leaves: Sequence[PatternNode]) -> int:
    """Packed cone function of a pattern root over ordered frontier nodes."""
    n = len(leaves)
    mask = (1 << (1 << n)) - 1
    words: Dict[int, int] = {
        leaf.uid: variable_bits(i, n) for i, leaf in enumerate(leaves)
    }
    stack: List[PatternNode] = [root]
    while stack:
        node = stack[-1]
        if node.uid in words:
            stack.pop()
            continue
        pending = [f for f in node.fanins if f.uid not in words]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if node.kind is NodeType.INV:
            words[node.uid] = ~words[node.fanins[0].uid] & mask
        else:
            a, b = node.fanins
            words[node.uid] = ~(words[a.uid] & words[b.uid]) & mask
    return words[root.uid]


@dataclass(frozen=True)
class NPNTable:
    """Precomputed NPN data of one pattern set (see the module docstring).

    Attributes:
        chains: one chain per pattern, aligned with
            ``PatternSet.patterns`` order.
        shapes: one depth-truncated shape per pattern, same alignment
            (see :func:`pattern_shape`).
        chain_orbits: ``(n, function bits) -> (n, canonical bits)`` for
            every function in the NPN class of some chain entry.
        chain_entries: the distinct chains, indexed by chain id.
        chain_ids_by_kind: root kind -> chain id of every pattern in
            ``PatternSet.for_root`` order.
        shape_keys: shape id -> :data:`ShapeKey` of every pattern shape
            and sub-shape: the frozen pattern-shape id space.
        shape_ids_by_kind: root kind -> shape id of every pattern in
            ``for_root`` order.
        k: frontier/cut-size bound the chains were built with (a class
            constant, :data:`DEFAULT_K`).
        depth_cap: truncation-height bound (:data:`DEFAULT_DEPTH_CAP`).
    """

    chains: Tuple[Chain, ...]
    shapes: Tuple[Shape, ...]
    chain_orbits: OrbitMap
    chain_entries: Tuple[Chain, ...]
    chain_ids_by_kind: Dict[NodeType, Tuple[int, ...]]
    shape_keys: Tuple[ShapeKey, ...]
    shape_ids_by_kind: Dict[NodeType, Tuple[int, ...]]
    k: ClassVar[int] = DEFAULT_K
    depth_cap: ClassVar[int] = DEFAULT_DEPTH_CAP


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


def build_npn_table(patterns: PatternSet) -> NPNTable:
    """Build the NPN table of one pattern set (aligned with its order)."""
    orbits: OrbitMap = {}
    chains = {id(p): pattern_chain(p, orbits=orbits) for p in patterns.patterns}
    shapes = {id(p): pattern_shape(p) for p in patterns.patterns}
    chain_id: Dict[Chain, int] = {}
    for chain in chains.values():
        chain_id.setdefault(chain, len(chain_id))
    keys: List[ShapeKey] = [None, None]  # the two atoms
    intern: Dict[Tuple[int, ...], int] = {}
    shape_id = {pid: _intern_shape(intern, keys, s) for pid, s in shapes.items()}
    by_kind = patterns.by_root_kind.items()
    return NPNTable(
        chains=tuple(chains.values()),
        shapes=tuple(shapes.values()),
        chain_orbits=orbits,
        chain_entries=tuple(chain_id),
        chain_ids_by_kind={
            kind: tuple(chain_id[chains[id(p)]] for p in ps) for kind, ps in by_kind
        },
        shape_keys=tuple(keys),
        shape_ids_by_kind={
            kind: tuple(shape_id[id(p)] for p in ps) for kind, ps in by_kind
        },
    )
