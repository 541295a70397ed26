"""k-feasible cut enumeration on NAND2-INV subject graphs.

The matcher's cut filter (:class:`repro.core.match.Matcher`) needs, at
every signature-miss subject node, the set of small *cuts* — leaf sets
that separate the node from the primary inputs — together with the
packed truth table of the cone function each cut induces.  This module
provides the enumerators and the cone evaluation;
:mod:`repro.library.npn_table` classifies the functions by NPN class and
owns the library side.

Two enumeration modes share one merge step (:func:`merge_step`):

* ``dominance=False`` (the filter's mode): *all* k-feasible cuts are
  kept, deduplicated by leaf set with the **minimum derivation depth**
  retained — the matching filter needs depth because a pattern truncated
  at height ``t`` can only map onto a cut derivable within ``t`` merge
  levels.  ``max_depth`` bounds the derivation depth (cuts deeper than
  any pattern are useless to the filter) and ``max_cuts`` caps the
  per-node set; a capped node and everything above it is *tainted*, which
  the consumer must treat as "any pattern may match here".
* ``dominance=True``: dominated cuts (supersets of another cut) are
  pruned exactly like the FlowMap-side enumerator
  (:func:`repro.fpga.cuts.enumerate_cuts`); the two are cross-tested
  against each other on shared subject graphs.  Dominance pruning is
  closed under merging — any merged cut derived from a dominated cut is
  itself dominated by the merge using the dominating cut — so pruning at
  every node loses no irredundant cut.

The derivation depth of a cut is 0 for the trivial cut ``{node}`` and
``1 + max`` over the fanin cuts it merges, minimised over derivations.
A cut may be derivable both shallowly and deeply; keeping the minimum is
what makes the matching filter sound (see ``repro.library.npn_table``).

:func:`enumerate_cuts` runs the merge bottom-up over the whole subject;
:class:`LazyCuts` runs it on demand below the nodes the filter queries,
which is what the matcher uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import NetworkError
from repro.network.functions import variable_bits
from repro.network.subject import NodeType, SubjectGraph, SubjectNode

__all__ = [
    "CutEnumeration", "LazyCuts", "cut_function", "enumerate_cuts", "merge_step",
]

#: A cut is the frozenset of its leaf nodes.
Cut = FrozenSet[SubjectNode]

#: Default per-node cut cap for the filter mode (beyond it: taint).
DEFAULT_MAX_CUTS = 128


@dataclass
class CutEnumeration:
    """Per-node k-feasible cuts of one subject graph.

    Attributes:
        k: the cut-size bound the enumeration ran with.
        max_depth: the derivation-depth bound (``None`` = unbounded).
        cuts: node uid -> {cut -> minimum derivation depth}.  Every
            node's trivial cut ``{node}`` is present with depth 0.
        tainted: uids whose cut set was truncated by ``max_cuts`` — or
            that depend on a truncated node — and is therefore
            incomplete.  Consumers using cuts to *exclude* possibilities
            must not exclude anything at a tainted node.
    """

    k: int
    max_depth: Optional[int]
    cuts: Dict[int, Dict[Cut, int]]
    tainted: Set[int] = field(default_factory=set)

    def at(self, node: SubjectNode) -> Dict[Cut, int]:
        """The cut set of one node (trivial cut included)."""
        return self.cuts[node.uid]

    def leaf_sets(self, node: SubjectNode) -> Set[Cut]:
        """The cuts of ``node`` as a plain set (cross-test convenience)."""
        return set(self.cuts[node.uid])


def enumerate_cuts(
    subject: SubjectGraph,
    k: int,
    max_depth: Optional[int] = None,
    max_cuts: int = DEFAULT_MAX_CUTS,
    dominance: bool = False,
) -> CutEnumeration:
    """All k-feasible cuts of every node, bottom-up.

    Args:
        subject: the NAND2-INV subject graph.
        k: cut-size bound (the matcher uses the NPN table's width, <= 6).
        max_depth: drop cuts whose minimum derivation depth exceeds this
            (filter mode; ``None`` keeps everything).
        max_cuts: per-node cap.  In filter mode exceeding it truncates
            the set and taints the node; in dominance mode it caps after
            pruning, like the FlowMap enumerator's ``max_cuts``.
        dominance: prune dominated cuts (supersets of kept cuts).

    Raises:
        NetworkError: ``k < 1`` (no node has a 0-feasible cut).
    """
    if k < 1:
        raise NetworkError(f"cut size bound must be >= 1, got {k}")
    cuts: Dict[int, Dict[Cut, int]] = {}
    tainted: Set[int] = set()
    for node in subject.topological():
        node_cuts, truncated = merge_step(
            node, [cuts[f.uid] for f in node.fanins], k, max_depth,
            max_cuts, dominance,
        )
        if truncated or any(f.uid in tainted for f in node.fanins):
            tainted.add(node.uid)
        cuts[node.uid] = node_cuts
    return CutEnumeration(k=k, max_depth=max_depth, cuts=cuts, tainted=tainted)


def merge_step(
    node: SubjectNode,
    fanin_cuts: Sequence[Dict[Cut, int]],
    k: int,
    max_depth: Optional[int],
    max_cuts: int = DEFAULT_MAX_CUTS,
    dominance: bool = False,
) -> Tuple[Dict[Cut, int], bool]:
    """The cut set of one node from its fanins' sets, and its truncation.

    Every combination of one cut per fanin whose union has at most ``k``
    leaves becomes a cut of ``node`` at depth ``1 + max`` of the merged
    depths, minimised per leaf set; fanin cuts that would land deeper
    than ``max_depth`` are skipped.  The trivial cut ``{node}`` is added
    at depth 0.  The flag is true when the filter-mode cap dropped cuts.
    """
    trivial: Cut = frozenset((node,))
    if not node.fanins:
        return {trivial: 0}, False
    acc: Dict[Cut, int] = {frozenset(): -1}
    for fanin_set in fanin_cuts:
        nxt: Dict[Cut, int] = {}
        for c1, d1 in acc.items():
            for c2, d2 in fanin_set.items():
                d2 += 1
                if max_depth is not None and d2 > max_depth:
                    continue
                merged = c1 | c2
                if len(merged) > k:
                    continue
                depth = d1 if d1 >= d2 else d2
                old = nxt.get(merged)
                if old is None or depth < old:
                    nxt[merged] = depth
        acc = nxt
    truncated = False
    if dominance:
        acc = _prune_dominated(acc, max_cuts)
    elif len(acc) > max_cuts:
        acc = dict(list(acc.items())[:max_cuts])
        truncated = True
    acc[trivial] = 0
    return acc, truncated


class LazyCuts:
    """Filter-mode cut sets of one subject, computed on first query.

    :meth:`at` returns what :func:`enumerate_cuts` with the same ``k``
    and ``max_depth`` holds at the queried node — but only walks the
    ``max_depth`` levels of cone below it, because a cut of depth
    ``<= d`` merges fanin cuts of depth ``<= d - 1``.  Each level down
    the walk therefore asks for one less depth (the *budget*).  A node
    keeps the set of the largest budget computed so far; a smaller
    budget reuses it, since the merge step skips the deeper cuts.

    Taint follows :func:`enumerate_cuts`: a node whose set, or some
    fanin set it merged, was truncated is tainted.  An untainted node's
    set is complete, so it equals the eager enumeration's set wherever
    that one is untainted too.
    """

    def __init__(self, k: int, max_depth: int, max_cuts: int = DEFAULT_MAX_CUTS):
        self.k = k
        self.max_depth = max_depth
        self.max_cuts = max_cuts
        # uid -> (budget, cut set, tainted)
        self._memo: Dict[int, Tuple[int, Dict[Cut, int], bool]] = {}

    def __len__(self) -> int:
        """Number of nodes whose cut set has been computed."""
        return len(self._memo)

    def at(
        self, node: SubjectNode, budget: Optional[int] = None
    ) -> Tuple[Dict[Cut, int], bool]:
        """``(cuts, tainted)`` of ``node`` down to depth ``budget``.

        ``budget`` defaults to ``max_depth``.  The returned set may hold
        deeper cuts left from an earlier, larger budget.
        """
        if budget is None:
            budget = self.max_depth
        hit = self._memo.get(node.uid)
        if hit is not None and hit[0] >= budget:
            return hit[1], hit[2]
        if budget <= 0:
            entry = (budget, {frozenset((node,)): 0}, False)
        else:
            fanin_sets = []
            taint = False
            for fanin in node.fanins:
                fanin_cuts, fanin_taint = self.at(fanin, budget - 1)
                fanin_sets.append(fanin_cuts)
                taint = taint or fanin_taint
            cuts, truncated = merge_step(
                node, fanin_sets, self.k, budget, self.max_cuts
            )
            entry = (budget, cuts, taint or truncated)
        self._memo[node.uid] = entry
        return entry[1], entry[2]


def _prune_dominated(acc: Dict[Cut, int], max_cuts: int) -> Dict[Cut, int]:
    """Drop cuts that are supersets of another cut, then cap.

    Mirrors :func:`repro.fpga.cuts._merge`: scan in ascending size order
    so every potential dominator is kept before its supersets appear.
    """
    kept: Dict[Cut, int] = {}
    for cut in sorted(acc, key=len):
        if any(other <= cut for other in kept):
            continue
        kept[cut] = acc[cut]
        if len(kept) >= max_cuts:
            break
    return kept


def cut_function(root: SubjectNode, leaves: Sequence[SubjectNode]) -> int:
    """Packed truth table of the cone of ``root`` over ordered ``leaves``.

    Leaf ``i`` is variable ``i``; the result is the ``2^len(leaves)``-bit
    word of the cone function, computed by iterative evaluation over the
    cone (every path from ``root`` must reach a leaf — guaranteed for
    cuts produced by :func:`enumerate_cuts`).

    Raises:
        NetworkError: the walk escapes the leaf set (not a cut of
            ``root``, e.g. it reaches a PI that is not a leaf).
    """
    n = len(leaves)
    mask = (1 << (1 << n)) - 1
    words: Dict[int, int] = {
        leaf.uid: variable_bits(i, n) for i, leaf in enumerate(leaves)
    }
    if root.uid in words:
        return words[root.uid]
    stack: List[SubjectNode] = [root]
    while stack:
        node = stack[-1]
        if node.uid in words:
            stack.pop()
            continue
        if node.kind is NodeType.PI:
            raise NetworkError(
                f"cone walk from node {root.uid} escaped the leaf set at "
                f"PI {node.name!r}: not a cut"
            )
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


def cut_words(
    node: SubjectNode, cut_set: Dict[Cut, int]
) -> Dict[Tuple[Cut, int], int]:
    """Helper for tests: {(cut, depth) -> function bits} at one node.

    Leaves are ordered by uid, matching what the cut filter does.
    The trivial cut is skipped (its function is the single variable).
    """
    out: Dict[Tuple[Cut, int], int] = {}
    for cut, depth in cut_set.items():
        if len(cut) == 1 and next(iter(cut)) is node:
            continue
        order = sorted(cut, key=lambda leaf: leaf.uid)
        out[(cut, depth)] = cut_function(node, order)
    return out
