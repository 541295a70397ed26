"""Reference match enumerator: the matches the certificate relabels with.

C006 relabels a mapping independently and compares its worst primary
output arrival with the run's.  A match the production matcher
(:class:`repro.core.match.Matcher`) never finds leaves its labels slower
than the optimum, and a relabeling that ran the same enumeration would
miss the same match.  So this enumerator is written from the paper's
Definitions 1-3 alone and shares nothing with the matcher's machinery:
no pattern trie, cut filter, cone signatures, feasibility
memo or swap-safe pruning.  Of a pattern it reads the gate, root, nodes
and pin classes, and it keeps no memo from one
:meth:`ReferenceMatcher.matches_at` call to the next.

The walk composes the bindings of each pattern subtree bottom-up.  At a
NAND2 it tries both fanin orders, or one when both fanins are the same
subject node.  While composing, standard and exact matches stay
one-to-one, and exact matches keep the whole subject fanout of every
interior node inside the match.  Each complete binding is then
confirmed with :func:`repro.core.match.verify_match` and deduplicated
by :meth:`Match.identity`, in pattern-set order.

One reduction keeps the walk polynomial on gates with many symmetric
pins.  The bindings of a *closed* subtree — a tree whose nodes below its
root occur nowhere else in the pattern — are kept once per outcome: the
subject nodes it binds and its (pin class, subject leaf) pairs.  That is
all the rest of a match sees of it: the other subtrees meet it only in
those subject nodes, and the identity and the arrival read leaves by pin
class, whose pins share their timing.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.match import Match, MatchKind, subject_uses, verify_match
from repro.library.patterns import PatternGraph, PatternNode, PatternSet
from repro.network.subject import NodeType, SubjectGraph, SubjectNode

__all__ = ["ReferenceMatcher"]

PI = NodeType.PI

#: The bindings of one pattern subtree: pattern uid -> subject node, the
#: uids of the subject nodes bound, and the (pin class, subject leaf uid)
#: pairs of its leaves.
_Partial = Tuple[
    Dict[int, SubjectNode], FrozenSet[int], FrozenSet[Tuple[object, int]]
]


class _Facts:
    """What the walk needs of one pattern, derived from its nodes alone."""

    __slots__ = ("nodes", "leaf_class")

    def __init__(self, pattern: PatternGraph):
        fanout: Dict[int, int] = {}
        below: Dict[int, FrozenSet[int]] = {}
        for node in pattern.nodes:  # topological: fanins first
            reach = {node.uid}
            for fanin in node.fanins:
                fanout[fanin.uid] = fanout.get(fanin.uid, 0) + 1
                reach |= below[fanin.uid]
            below[node.uid] = frozenset(reach)
        closed: Set[int] = set()
        for node in pattern.nodes:
            if all(f.uid in closed and fanout[f.uid] == 1 for f in node.fanins):
                closed.add(node.uid)
        #: internal uid -> (references to it inside the pattern, uids in
        #: both fanin subtrees, nodes below it, whether it roots a
        #: closed subtree).
        self.nodes: Dict[int, Tuple[int, FrozenSet[int], int, bool]] = {}
        #: leaf uid -> pin class.
        self.leaf_class: Dict[int, object] = {}
        classes = pattern.pin_classes
        for node in pattern.nodes:
            if node.kind is PI:
                self.leaf_class[node.uid] = classes.get(node.pin, node.pin)
                continue
            shared: FrozenSet[int] = frozenset()
            if node.kind is NodeType.NAND2:
                p0, p1 = node.fanins
                shared = below[p0.uid] & below[p1.uid]
            self.nodes[node.uid] = (
                fanout.get(node.uid, 0), shared, len(below[node.uid]) - 1,
                node.uid in closed,
            )


class ReferenceMatcher:
    """Every match of a pattern set at the nodes of one subject graph.

    ``steps`` counts the walk's work: one step per (pattern node,
    subject node) pair whose bindings it composes.
    """

    def __init__(self, patterns: PatternSet, kind: MatchKind,
                 subject: SubjectGraph):
        self.kind = kind
        self.subject = subject
        self.steps = 0
        self._injective = kind is not MatchKind.EXTENDED
        self._exact = kind is MatchKind.EXACT
        self._uses = subject_uses(subject)
        self._patterns = [(p, _Facts(p)) for p in patterns.patterns]

    def matches_at(self, snode: SubjectNode) -> List[Match]:
        """The matches rooted at ``snode``, one per identity."""
        out: List[Match] = []
        if snode.is_pi:
            return out
        seen: Set[Tuple[object, ...]] = set()
        for pattern, facts in self._patterns:
            if pattern.root.kind is not snode.kind:
                continue
            for binding, _, _ in self._bindings(facts, pattern.root, snode):
                match = Match(pattern, snode, binding)
                if not verify_match(match, self.subject, self.kind,
                                    uses=self._uses).ok:
                    continue
                identity = match.identity()
                if identity not in seen:
                    seen.add(identity)
                    out.append(match)
        return out

    def _bindings(
        self, facts: _Facts, pnode: PatternNode, snode: SubjectNode
    ) -> List[_Partial]:
        """Bindings of the subtree at ``pnode`` that map it to ``snode``.

        The caller has checked that ``pnode`` is a leaf or of ``snode``'s
        kind.
        """
        self.steps += 1
        puid, suid = pnode.uid, snode.uid
        if pnode.kind is PI:
            return [({puid: snode}, frozenset((suid,)),
                     frozenset(((facts.leaf_class[puid], suid),)))]
        fanout, shared, n_below, closed = facts.nodes[puid]
        if self._exact and fanout and self._uses.get(suid, 0) != fanout:
            return []  # Definition 2: an interior node's fanout stays inside
        injective = self._injective
        out: List[_Partial] = []
        own = frozenset((suid,))
        if pnode.kind is NodeType.INV:
            child, s0 = pnode.fanins[0], snode.fanins[0]
            if child.kind is not PI and child.kind is not s0.kind:
                return out  # Definition 1: kinds and edges are preserved
            for binding, images, pairs in self._bindings(facts, child, s0):
                if not (injective and suid in images):
                    out.append(({**binding, puid: snode}, images | own, pairs))
            return out
        p0, p1 = pnode.fanins
        if p0.kind is PI:
            # Both pairings are tried, so the child that can fail goes first.
            p0, p1 = p1, p0
        k0, k1 = p0.kind, p1.kind
        s0, s1 = snode.fanins
        outcomes: Set[object] = set()
        for a, b in ((s0, s1),) if s0 is s1 else ((s0, s1), (s1, s0)):
            if (k0 is not PI and k0 is not a.kind) or (
                k1 is not PI and k1 is not b.kind
            ):
                continue  # Definition 1: kinds and edges are preserved
            first = self._bindings(facts, p0, a)
            second = self._bindings(facts, p1, b) if first else first
            for bind0, images0, pairs0 in first:
                for bind1, images1, pairs1 in second:
                    images = images0 | images1
                    if injective and (len(images) != n_below or suid in images):
                        continue  # Definition 1: one-to-one
                    if shared and any(
                        bind0[uid] is not bind1[uid] for uid in shared
                    ):
                        continue  # a shared pattern node bound twice
                    pairs = pairs0 | pairs1
                    if closed:
                        outcome = (images, pairs)
                        if outcome in outcomes:
                            continue
                        outcomes.add(outcome)
                    out.append(
                        ({**bind0, **bind1, puid: snode}, images | own, pairs)
                    )
        return out
