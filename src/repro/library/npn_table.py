"""Library preprocessing for the matcher's cut filter.

The matcher tries every library pattern at every subject node; on rich
libraries its cut filter (:class:`repro.core.match.Matcher`) first asks
a cheap functional question — *could this pattern's function possibly
live here?* — and only runs the binding enumerator for patterns that
survive.  This module builds everything that question needs, **once per
pattern set** (:func:`table_for`):

* a *truncation chain* per pattern: for each height ``t`` up to
  ``depth_cap``, truncate the pattern at its nodes of min-distance
  ``>= t`` from the root; whenever that frontier has at most ``k``
  members, record ``(t, n, npn_canonical(frontier function))``.  Any
  injective structural match of the pattern maps the height-``t``
  frontier onto a subject cut of size ``<= k`` whose cone function is
  NPN-equal and whose minimum derivation depth is ``<= t`` — so a
  subject node lacking such a cut can skip the pattern entirely.  (The
  argument needs fanin-multiset-preserving matches, which holds for
  STANDARD/EXACT; the filter never runs for EXTENDED.)
* an *NPN-class -> cells* hash table: every library cell function with
  at most ``cell_limit`` inputs, canonised with
  :func:`repro.network.npn.npn_canonical`, keyed by class with the
  input transform kept alongside — :meth:`NPNTable.lookup` maps a cut
  function straight to the cells (and pin transforms) realising it.
* a *truncated shape* per pattern: the pattern tree cut off at depth
  ``depth_cap``, leaves and deeper structure collapsed to a wildcard.
  Any injective match embeds this shape into the subject cone's
  depth-bounded unfolding (matches preserve edges and kinds), so the
  matcher can also skip patterns whose NAND2/INV *bracketing* cannot
  possibly align — a structural complement to the functional chains,
  which cannot see bracketing at all.
* a *chain-orbit map*: every function NPN-equivalent to some chain
  entry, mapped to that entry's ``(n, canonical bits)``.  The matcher
  looks a subject cut's function up here instead of canonicalising it:
  a function outside the map is in no chain's class, so it can satisfy
  no chain entry.  The chains of 44-3 at four variants use ten classes,
  so the map holds 548 entries.

Building the table costs one NPN canonicalisation per pattern level and
per cell, plus one orbit walk per chain class — about 0.15 s for the
876-pattern 44-3 set — and it is built in memory only, at the first
mapping run that turns the filter on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import LibraryError
from repro.library.patterns import PatternGraph, PatternNode, PatternSet
from repro.network.functions import TruthTable, variable_bits
from repro.network.npn import NPNTransform, apply_transform, npn_canonical
from repro.network.subject import NodeType

__all__ = [
    "CellEntry",
    "NPNTable",
    "build_npn_table",
    "pattern_chain",
    "pattern_shape",
    "table_for",
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

#: One class member: the cell name and the transform mapping the cell
#: function onto the class representative
#: (``apply_transform(transform, gate.tt) == canonical``).
CellEntry = Tuple[str, NPNTransform]

#: A depth-truncated pattern shape: ``("?",)`` wildcard (leaf or beyond
#: the depth cap), ``("I", child)`` inverter, ``("N", a, b)`` NAND with
#: children in sorted order (canonical under NAND symmetry).
Shape = Tuple[object, ...]

_WILDCARD: Shape = ("?",)


def pattern_chain(
    pattern: PatternGraph,
    k: int = DEFAULT_K,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> Chain:
    """The truncation chain of one pattern (see the module docstring).

    Height ``t`` truncates the pattern at the nodes whose *minimum*
    distance from the root is ``>= t`` (leaves always terminate); the
    entry is emitted only when that frontier has ``<= k`` members.  The
    frontier function is evaluated as a packed word over the frontier
    ordered by node uid and NPN-canonised.
    """
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
    chain: List[ChainEntry] = []
    for t in range(1, min(pattern.depth, depth_cap) + 1):
        leaves: List[PatternNode] = []
        seen: set = set()
        stack: List[PatternNode] = [pattern.root]
        while stack:
            node = stack.pop()
            if node.uid in seen:
                continue
            seen.add(node.uid)
            if node.is_leaf or dist[node.uid] >= t:
                leaves.append(node)
            else:
                stack.extend(node.fanins)
        if len(leaves) > k:
            continue
        order = sorted(leaves, key=lambda n: n.uid)
        n = len(order)
        canonical, _ = npn_canonical(
            TruthTable(n, _cone_bits(pattern.root, order))
        )
        chain.append((t, n, canonical.bits))
    return tuple(chain)


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

    def walk(node: PatternNode, budget: int) -> Shape:
        if node.is_leaf or budget == 0:
            return _WILDCARD
        if node.kind is NodeType.INV:
            return ("I", walk(node.fanins[0], budget - 1))
        a = walk(node.fanins[0], budget - 1)
        b = walk(node.fanins[1], budget - 1)
        return ("N", a, b) if a <= b else ("N", b, a)  # type: ignore[operator]

    return walk(pattern.root, depth_cap)


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


@dataclass
class NPNTable:
    """Precomputed NPN data of one pattern set (see the module docstring).

    Attributes:
        k: frontier/cut-size bound the chains were built with.
        depth_cap: truncation-height bound.
        cell_limit: max cell input count admitted to ``cell_classes``.
        chains: one chain per pattern, aligned with
            ``PatternSet.patterns`` order.
        shapes: one depth-truncated shape per pattern, same alignment
            (see :func:`pattern_shape`).
        cell_classes: ``(n, canonical bits) -> cells`` in that class,
            each with the transform mapping the *cell function onto the
            representative*.
        chain_orbits: ``(n, function bits) -> (n, canonical bits)`` for
            every function in the NPN class of some chain entry.
    """

    k: int
    depth_cap: int
    cell_limit: int
    chains: Tuple[Chain, ...]
    shapes: Tuple[Shape, ...]
    cell_classes: Dict[Tuple[int, int], Tuple[CellEntry, ...]]
    chain_orbits: Dict[Tuple[int, int], Tuple[int, int]]

    def lookup(self, tt: TruthTable) -> List[Tuple[str, NPNTransform]]:
        """Cells realising ``tt``, with the cut -> cell input transform.

        For each returned ``(name, transform)``,
        ``apply_transform(transform, tt) == gate.tt`` — i.e. the
        transform carries the cut function onto the cell function, so
        its permutation/negations say which cut leaf (and phase) drives
        which cell pin.  Empty when no cell of ``<= cell_limit`` inputs
        matches.
        """
        from repro.network.npn import compose_transforms, invert_transform

        canonical, to_canon = npn_canonical(tt)
        out: List[Tuple[str, NPNTransform]] = []
        for name, cell_to_canon in self.cell_classes.get(
            (tt.n_vars, canonical.bits), ()
        ):
            out.append(
                (name, compose_transforms(invert_transform(cell_to_canon),
                                          to_canon))
            )
        return out

    def chain_of(self, index: int) -> Chain:
        """The chain of the pattern at ``index`` in pattern-set order."""
        return self.chains[index]

    def shape_of(self, index: int) -> Shape:
        """The shape of the pattern at ``index`` in pattern-set order."""
        return self.shapes[index]


def _build_cell_classes(
    patterns: PatternSet, cell_limit: int
) -> Dict[Tuple[int, int], Tuple[CellEntry, ...]]:
    classes: Dict[Tuple[int, int], List[CellEntry]] = {}
    for gate in patterns.library:
        if gate.n_inputs < 1 or gate.n_inputs > cell_limit:
            continue
        canonical, transform = npn_canonical(gate.tt)
        classes.setdefault((gate.n_inputs, canonical.bits), []).append(
            (gate.name, transform)
        )
    return {key: tuple(entries) for key, entries in classes.items()}


def _chain_orbits(
    chains: Iterable[Chain],
) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """Every function NPN-equivalent to a chain entry -> its class."""
    orbits: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for n, canonical in sorted({(n, bits) for chain in chains for _t, n, bits in chain}):
        tt = TruthTable(n, canonical)
        for perm in permutations(range(n)):
            for neg in range(1 << n):
                for out_neg in (False, True):
                    image = apply_transform(NPNTransform(perm, neg, out_neg), tt)
                    orbits[(n, image.bits)] = (n, canonical)
    return orbits


def build_npn_table(
    patterns: PatternSet,
    k: int = DEFAULT_K,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    cell_limit: Optional[int] = None,
) -> NPNTable:
    """Build the NPN table of one pattern set.

    Args:
        patterns: the pattern set (the table aligns with its order).
        k: frontier/cut-size bound for chains (<= 6; the subject-side
            cut enumeration must use the same k).
        depth_cap: truncation-height bound for chains.
        cell_limit: admit cells with at most this many inputs into the
            class table (default ``k``; n = 5/6 canonicalisation costs
            tens of ms to half a second per *new* class, so widening
            beyond 4 is an explicit choice).

    Raises:
        LibraryError: ``k`` or ``depth_cap`` out of range.
    """
    if not 1 <= k <= 6:
        raise LibraryError(f"NPN table k must be in 1..6, got {k}")
    if depth_cap < 1:
        raise LibraryError(f"NPN table depth_cap must be >= 1, got {depth_cap}")
    limit = k if cell_limit is None else cell_limit
    chains = tuple(
        pattern_chain(p, k=k, depth_cap=depth_cap) for p in patterns.patterns
    )
    return NPNTable(
        k=k,
        depth_cap=depth_cap,
        cell_limit=limit,
        chains=chains,
        shapes=tuple(
            pattern_shape(p, depth_cap) for p in patterns.patterns
        ),
        cell_classes=_build_cell_classes(patterns, limit),
        chain_orbits=_chain_orbits(chains),
    )


def table_for(
    patterns: PatternSet,
    k: int = DEFAULT_K,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    cell_limit: Optional[int] = None,
) -> NPNTable:
    """The NPN table of ``patterns``, memoized on the pattern set.

    Repeated mapping runs over one in-process :class:`PatternSet` (the
    suite harness, the benchmarks) share one table build; distinct
    parameter combinations get distinct entries.
    """
    memo: Dict[Tuple[int, int, Optional[int]], NPNTable]
    memo = getattr(patterns, "_npn_tables", None)  # type: ignore[assignment]
    if memo is None:
        memo = {}
        setattr(patterns, "_npn_tables", memo)
    memo_key = (k, depth_cap, cell_limit)
    table = memo.get(memo_key)
    if table is None:
        table = build_npn_table(
            patterns, k=k, depth_cap=depth_cap, cell_limit=cell_limit
        )
        memo[memo_key] = table
    return table
