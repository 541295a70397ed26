"""Structural cone signatures for match memoization.

:func:`cone_signature` canonically encodes everything the matcher's
:meth:`matches_at` can observe about a subject node: the NAND2/INV cone
below it up to the pattern set's maximum depth, including node kinds,
fanin *order*, the DAG sharing structure (which paths reconverge on the
same node), and — for exact matches only — the fanout-use counts of the
nodes an internal pattern node could bind.

Two subject nodes with equal signatures therefore have isomorphic match
sets: the canonical first-visit ordering of the cone doubles as the
isomorphism, so matches enumerated at one node can be *replayed* at the
other by rebinding every pattern node through its cone position.  The
enumeration itself is structure-driven (kind checks, fanin order, the
pattern's own swap-safe sets), so the replayed list is byte-identical —
same matches, same order, same dedup decisions — to what a fresh
enumeration would produce.

Why the cone suffices (soundness):

* A pattern node at distance ``k`` from the pattern root binds a subject
  node at path-distance ``k`` from the subject root, so every bound node
  lies within ``max_depth`` edges of the root — inside the cone.
* Internal pattern nodes have a subtree of depth >= 1, hence distance
  <= max_depth - 1: nodes whose *minimum* distance equals ``max_depth``
  can only be bound by pattern leaves, which accept any node.  They are
  encoded as opaque cut points (identity only, no kind, no fanins).
* Structural feasibility recurses in lockstep over pattern and subject,
  so it too never inspects anything beyond the cone.
* For :class:`MatchKind.EXACT` the out-degree condition compares subject
  fanout-use counts against pattern-side fanout, so the signature also
  carries ``min(uses, cap)`` per interior-bindable node, where ``cap``
  exceeds every pattern-side fanout (all larger counts behave alike).
  The root's own count is excluded: the pattern root never has
  pattern-side fanout, so it is never tested.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.network.subject import NodeType, SubjectNode

__all__ = ["Signature", "cone_signature"]

#: One node's signature: (token tuple, canonical cone nodes).
Signature = Tuple[Tuple[int, ...], List[SubjectNode]]

#: Token codes.  The serialization is prefix-decodable: INV is followed by
#: one child encoding, NAND2 by two, PI/CUT/back-refs are terminal, and an
#: optional use-count token directly follows an expanded node's kind.
_INV = 1
_NAND2 = 2
_PI = 3
_CUT = 4
_USE_BASE = 16


def cone_signature(
    root: SubjectNode,
    depth_limit: int,
    uses: Optional[List[int]] = None,
    use_cap: int = 0,
) -> Signature:
    """Canonical signature of the matching-relevant cone under ``root``.

    Args:
        root: the subject node matches would be rooted at.
        depth_limit: the pattern set's maximum depth; the cone is
            truncated at this edge distance from ``root``.
        uses: per-uid fanout-use counts; pass only for exact matching,
            where the out-degree condition makes them match-relevant.
        use_cap: counts are recorded as ``min(count, use_cap)``; choose it
            larger than every pattern-side fanout.

    Returns:
        ``(key, cone_nodes)`` — a flat hashable token tuple, and the
        distinct cone nodes in canonical first-visit order.  Replaying a
        cached match template is ``{puid: cone_nodes[idx]}``.
    """
    # Pass 1: minimum edge distance from the root, BFS by levels.  A node
    # is expanded in the serialization iff it is internal and its minimum
    # distance is strictly below the limit; everything first reachable at
    # exactly the limit is an opaque cut point.  Nodes hash by identity,
    # so they key the walk's dicts directly.
    min_depth = {root: 0}
    frontier = [root]
    for d in range(1, depth_limit + 1):
        nxt: List[SubjectNode] = []
        for node in frontier:
            for fanin in node.fanins:  # a PI has none
                if fanin not in min_depth:
                    min_depth[fanin] = d
                    nxt.append(fanin)
        if not nxt:
            break
        frontier = nxt

    # Pass 2: deterministic DFS preorder following fanin order, on an
    # explicit stack (fanins pushed last-first, so the first fanin's
    # subtree is walked before the second fanin is popped).  First
    # visits allocate dense local ids; re-visits emit back-references,
    # which is what captures the sharing structure.
    tokens: List[int] = []
    nodes: List[SubjectNode] = []
    index: Dict[SubjectNode, int] = {}
    stack = [root]
    pop = stack.pop
    push = stack.append
    emit = tokens.append
    while stack:
        node = pop()
        local = index.get(node)
        if local is not None:
            emit(-1 - local)
            continue
        index[node] = len(nodes)
        nodes.append(node)
        if min_depth[node] >= depth_limit:
            emit(_CUT)
            continue
        kind = node.kind
        if kind is NodeType.PI:
            emit(_PI)
            continue
        emit(_INV if kind is NodeType.INV else _NAND2)
        if uses is not None and node is not root:
            emit(_USE_BASE + min(uses[node.uid], use_cap))
        fanins = node.fanins
        if len(fanins) == 1:
            push(fanins[0])
        else:
            push(fanins[1])
            push(fanins[0])
    return tuple(tokens), nodes
