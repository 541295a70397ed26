"""Graph matching between pattern graphs and subject graphs.

Implements Rudell's *graph match* algorithm with the three match classes
of the paper's Section 3.2:

* **standard match** (Definition 1): a one-to-one mapping of pattern nodes
  into subject nodes preserving edges and the in-degree of internal nodes.
  Interior subject nodes *may* have fanout escaping the match.
* **exact match** (Definition 2): a standard match whose interior nodes
  additionally have their full fanout inside the match (out-degree
  equality).  This is the class conventional tree covering is restricted
  to.
* **extended match** (Definition 3): a standard match without the
  one-to-one requirement, which lets the matcher *unfold* the subject DAG
  by duplicating subject nodes (paper Figure 1).  Unfolding implies one
  condition Definition 3's text leaves implicit: at every pattern node
  the children map bijectively onto the subject node's fanins (two
  pattern children may share a subject node only when the subject node
  itself appears twice in the fanin list) — otherwise a "match" could
  implement the wrong function.

Input permutations of a pattern are explored here (both orders of every
NAND2 node), which is what expands the pattern set in the sense of the
paper's footnote 2.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.library.gate import Gate
from repro.library.patterns import PatternGraph, PatternNode, PatternSet
from repro.network.subject import NodeType, SubjectGraph, SubjectNode
from repro.perf.counters import MatchStats
from repro.perf.signature import Signature, cone_signature
from repro.perf.trie import SHAPE_DEPTH_CAP, ShapeKey, intern_shape_key

__all__ = [
    "MatchKind",
    "Match",
    "Matcher",
    "MatchViolation",
    "MatchVerification",
    "verify_match",
]


class MatchKind(enum.Enum):
    """The three match classes of Definitions 1-3."""

    STANDARD = "standard"
    EXACT = "exact"
    EXTENDED = "extended"


#: One replayable match template: (pattern, ((pattern uid, cone position), ...)).
_SigTemplate = Tuple["PatternGraph", Tuple[Tuple[int, int], ...]]


class Match:
    """A successful match of a pattern graph rooted at a subject node.

    Attributes:
        pattern: the matched :class:`PatternGraph`.
        root: the subject node implementing the gate output.
        binding: pattern node uid -> subject node, for every pattern node.
    """

    __slots__ = ("pattern", "root", "binding")

    def __init__(
        self,
        pattern: PatternGraph,
        root: SubjectNode,
        binding: Dict[int, SubjectNode],
    ):
        self.pattern = pattern
        self.root = root
        self.binding = binding

    @property
    def gate(self) -> Gate:
        return self.pattern.gate

    def leaves(self) -> List[Tuple[str, SubjectNode]]:
        """(pin name, subject node) for every pattern leaf."""
        return [
            (leaf.pin, self.binding[leaf.uid]) for leaf in self.pattern.leaves
        ]

    def internal_nodes(self) -> List[SubjectNode]:
        """Subject nodes covered by internal pattern nodes (root included)."""
        out = []
        seen = set()
        for pnode in self.pattern.nodes:
            if pnode.is_leaf:
                continue
            snode = self.binding[pnode.uid]
            if snode.uid not in seen:
                seen.add(snode.uid)
                out.append(snode)
        return out

    def identity(self) -> Tuple[object, ...]:
        """Key identifying functionally identical matches for dedup.

        Pins are reduced to their interchangeability classes: two matches
        that differ only by swapping symmetric, timing-identical pins
        implement the same gate instance with the same cost.
        """
        classes = self.pattern.pin_classes
        return (
            self.pattern.gate.name,
            self.root.uid,
            frozenset(
                (classes.get(pin, pin), node.uid) for pin, node in self.leaves()
            ),
        )

    def __repr__(self) -> str:
        pins = ", ".join(f"{pin}->{node.uid}" for pin, node in self.leaves())
        return f"Match({self.gate.name} @ {self.root.uid}; {pins})"


#: The cut filter runs only for pattern sets with at least this many
#: trie binding groups.  Its shape work breaks even with the binding
#: enumeration it saves at about 31 groups, and every value from 32 to
#: 264 picks the same builtin libraries (calibration:
#: docs/PERFORMANCE.md, "Cut filter").
CUT_FILTER_MIN_GROUPS = 256


class Matcher:
    """Enumerates matches of a pattern set on a subject graph.

    The matcher runs the performance layer of :mod:`repro.perf`:
    structural cone signatures memoize whole ``matches_at`` results
    across structurally identical subject nodes, and the pattern trie
    shares binding enumeration and feasibility work across patterns.
    Both are exact: they change the work, never the match list.  The
    certificate's independent relabeling (C006) checks the matcher
    against :class:`repro.check.reference_match.ReferenceMatcher`,
    which shares none of this machinery.

    On rich libraries a **cut filter** runs in front of the binding
    enumerator at every signature miss: a pattern whose depth-capped
    tree shape (the trie's capped shapes) cannot embed into the subject
    cone's depth-capped unfolding is dropped.  That test is
    :meth:`_feasible` cut off at :data:`~repro.perf.trie.SHAPE_DEPTH_CAP`
    levels, and :meth:`_enumerate` checks :meth:`_feasible` at the root
    of every pattern for every kind, so a dropped pattern would have
    yielded no binding and the match stream is byte-identical with or
    without the filter.  The answer depends only on the node's interned
    cone shape, so it is memoized by that shape id for the matcher's
    lifetime.

    The filter runs when the pattern trie has at least
    :data:`CUT_FILTER_MIN_GROUPS` groups, for every kind and on every
    subject.  ``cut_filter=True``/``False`` overrides that rule
    (differential checks and benchmarks compare the two).  The filter
    is the matcher's only switch between code paths.

    Pattern-side facts (fanouts, use cap, trie) belong to the
    :class:`PatternSet`; a matcher holds per-subject state and its memos.
    """

    def __init__(
        self,
        patterns: PatternSet,
        kind: MatchKind = MatchKind.STANDARD,
        cut_filter: Optional[bool] = None,
    ):
        self.patterns = patterns
        self.kind = kind
        self.stats = MatchStats()
        self._force_filter = cut_filter
        #: whether the cut filter runs on the attached subject.
        self.filter_on = False
        # This matcher's copy of the trie's frozen capped-shape id
        # space, extended with its subjects' cone shapes; filled, with
        # the kept-list memo, at the first attach that turns the filter on.
        self._shape_keys: List[ShapeKey] = []
        # signature key -> list of (pattern, ((pattern uid, cone index), ...))
        # templates; subject-independent, so it survives attach().
        self._sig_cache: Dict[Tuple[int, ...], List[_SigTemplate]] = {}
        # Signatures a caller computed for one subject (offer_signatures),
        # and the attached subject's adopted copy of them.
        self._offered: Optional[Tuple[SubjectGraph, List[Optional[Signature]]]] = None
        self._signatures: Optional[List[Optional[Signature]]] = None

    def offer_signatures(
        self, subject: SubjectGraph, signatures: List[Optional[Signature]]
    ) -> None:
        """Hand in cone signatures already computed for ``subject``'s nodes.

        ``signatures[uid]`` must be ``cone_signature`` of that node
        under this matcher's pattern set and kind (``None`` where not
        computed).  The next :meth:`attach` adopts them if it attaches
        this very subject, and :meth:`matches_at` then reads a node's
        signature instead of walking its cone again; attaching any other
        subject drops them, and a node whose entry is not rooted at it
        gets its own walk.
        """
        self._offered = (subject, signatures)

    # ------------------------------------------------------------------
    def attach(self, subject: SubjectGraph) -> None:
        """Precompute subject-side data (fanout-use counts, depths).

        Also applies the cut-filter rule (see the class docstring); the
        filter's cone shapes are computed lazily, at the signature misses
        that consult them.
        """
        self._uses = subject.use_counts()
        # Clamped-to-1 view for area-flow denominators: hoisted here so
        # the labeling pass reads one list instead of counting uses per
        # node (PIs included).
        self._uses_floor: List[int] = [u if u > 1 else 1 for u in self._uses]
        self._depth: List[int] = [0] * len(subject.nodes)
        for node in subject.nodes:
            if node.fanins:
                self._depth[node.uid] = 1 + max(
                    self._depth[f.uid] for f in node.fanins
                )
        # Structural-feasibility memo: (pattern shape, subject uid) ->
        # can the pattern subtree embed at the subject node, ignoring
        # binding constraints?  A necessary condition that is computed at
        # most once per pair — this is what keeps the labeling within the
        # paper's O(s*p) bound in practice.  The key is the trie's
        # interned subtree shape, so every pattern sharing the shape
        # shares the entry.
        self._feasible_cache: Dict[Tuple[int, int], bool] = {}
        offered, self._offered = self._offered, None
        self._signatures = (
            offered[1] if offered is not None and offered[0] is subject else None
        )
        self.filter_on = self._wants_filter()
        if self.filter_on:
            if not self._shape_keys:
                self._start_filter()
            # (uid, depth) -> interned cone-unfolding shape id
            self._cone_shapes: Dict[Tuple[int, int], int] = {}
            # (pattern shape id, cone shape id) -> embeds?  Valid across
            # subjects, but scoped to one: with no other test in front
            # of it, every root-kind pattern reaches it at each new cone
            # shape, and a lifetime memo grows with every subject seen.
            self._embed_memo: Dict[Tuple[int, int], bool] = {}

    def _wants_filter(self) -> bool:
        """The cut-filter rule (see the class docstring)."""
        if self._force_filter is not None:
            return self._force_filter
        return len(self.patterns.trie.groups) >= CUT_FILTER_MIN_GROUPS

    # ------------------------------------------------------------------
    # Cut filter
    # ------------------------------------------------------------------
    def _start_filter(self) -> None:
        """The private shape space and the kept-list memo, both lifelong."""
        # Pattern shapes and subject cone unfoldings share one id space,
        # so the embed test memoizes on a pair of small ints; the cone
        # shapes go into this copy, never into the trie.
        self._shape_keys = list(self.patterns.trie.capped_keys)
        self._shape_intern = {
            key: sid for sid, key in enumerate(self._shape_keys) if key is not None
        }
        # cone shape id -> (kept patterns, number pruned)
        self._filtered_memo: Dict[int, Tuple[List[PatternGraph], int]] = {}

    def _cone_shape(self, node: SubjectNode, depth: int) -> int:
        """Interned depth-``depth`` unfolding shape of the cone at ``node``.

        A PI is the PI marker at any depth, and any other node at depth
        0 the wildcard; otherwise the shape is the node's kind over its
        fanins' depth-``depth - 1`` shapes.  Memoized per attached
        subject.
        """
        if node.is_pi:
            return 1
        if depth == 0:
            return 0
        memo_key = (node.uid, depth)
        sid = self._cone_shapes.get(memo_key)
        if sid is None:
            children = (self._cone_shape(f, depth - 1) for f in node.fanins)
            key = tuple(sorted(children))
            sid = intern_shape_key(self._shape_intern, self._shape_keys, key)
            self._cone_shapes[memo_key] = sid
        return sid

    def _embed(self, pid: int, sid: int) -> bool:
        """Can the capped pattern shape embed into the capped cone shape?

        :meth:`_feasible` cut off at the cap, so a necessary condition
        for a match of any kind (edges and kinds are preserved, and a
        pattern inner node can never sit on a PI).  The "?" wildcard
        (pattern leaves and the cap) embeds anywhere; NAND children try
        both pairings.  Memoized per attached subject.
        """
        if pid == 0:  # wildcard
            return True
        memo = self._embed_memo
        memo_key = (pid, sid)
        cached = memo.get(memo_key)
        if cached is not None:
            return cached
        pk = self._shape_keys[pid]
        sk = self._shape_keys[sid]
        assert pk is not None  # pattern shapes contain no PI atom
        if sk is None or len(pk) != len(sk):
            result = False  # atomic subject (PI/boundary) or kind mismatch
        elif len(pk) == 1:
            result = self._embed(pk[0], sk[0])
        else:
            p1, p2 = pk
            s1, s2 = sk
            result = (self._embed(p1, s1) and self._embed(p2, s2)) or (
                p1 != p2
                and s1 != s2
                and self._embed(p1, s2)
                and self._embed(p2, s1)
            )
        memo[memo_key] = result
        return result

    def _filtered_patterns(self, snode: SubjectNode) -> List[PatternGraph]:
        """Patterns worth trying at ``snode``, in pattern-set order.

        Without the cut filter this is the full root-kind list; with it,
        patterns whose capped tree shape cannot embed into the node's
        capped cone unfolding are dropped.  Dropping never reorders, so
        both feed the identity dedup the same match stream.  The answer
        is a function of the cone shape id alone (which also fixes the
        root kind), so it is memoized by that id across subjects.
        """
        root_patterns = self.patterns.for_root(snode.kind)
        if not self.filter_on:
            return root_patterns
        stats = self.stats
        stats.cut_filter_nodes += 1
        sid = self._cone_shape(snode, SHAPE_DEPTH_CAP)
        hit = self._filtered_memo.get(sid)
        if hit is None:
            shape_ids = self.patterns.trie.capped_ids[snode.kind]
            kept = [
                pattern
                for pattern, psid in zip(root_patterns, shape_ids)
                if self._embed(psid, sid)
            ]
            hit = (kept, len(root_patterns) - len(kept))
            self._filtered_memo[sid] = hit
        else:
            stats.cut_cone_hits += 1
        stats.cut_patterns_pruned += hit[1]
        return hit[0]

    def _feasible(self, pnode: PatternNode, snode: SubjectNode) -> bool:
        """Binding-independent embeddability of a pattern subtree."""
        if pnode.kind is NodeType.PI:
            return True
        key = (self.patterns.trie.shape_of[id(pnode)], snode.uid)
        cached = self._feasible_cache.get(key)
        if cached is not None:
            self.stats.feasibility_hits += 1
            return cached
        self.stats.feasibility_misses += 1
        if pnode.kind is not snode.kind:
            result = False
        elif pnode.kind is NodeType.INV:
            result = self._feasible(pnode.fanins[0], snode.fanins[0])
        else:
            p0, p1 = pnode.fanins
            s0, s1 = snode.fanins
            result = (
                self._feasible(p0, s0) and self._feasible(p1, s1)
            ) or (
                s0 is not s1
                and self._feasible(p0, s1)
                and self._feasible(p1, s0)
            )
        self._feasible_cache[key] = result
        return result

    def matches_at(self, snode: SubjectNode) -> List[Match]:
        """All (deduplicated) matches of the pattern set rooted at ``snode``.

        :meth:`attach` must have been called with the subject graph first.
        """
        if snode.is_pi:
            return []
        stats = self.stats
        signatures = self._signatures
        entry: Optional[Signature] = None
        if signatures is not None and snode.uid < len(signatures):
            entry = signatures[snode.uid]
        if entry is None or entry[1][0] is not snode:
            entry = cone_signature(
                snode,
                self.patterns.max_depth,
                uses=self._uses if self.kind is MatchKind.EXACT else None,
                use_cap=self.patterns.use_cap,
            )
        sig, cone = entry
        templates = self._sig_cache.get(sig)
        if templates is not None:
            # Replay: rebind every cached match onto this root through the
            # canonical cone ordering.  Never recomputed.
            stats.signature_hits += 1
            stats.matches_replayed += len(templates)
            return [
                Match(pattern, snode, {puid: cone[pos] for puid, pos in items})
                for pattern, items in templates
            ]
        stats.signature_misses += 1
        results = self._matches_at_grouped(snode)
        index = {id(node): pos for pos, node in enumerate(cone)}
        templates = []  # type: List[_SigTemplate]
        for match in results:
            try:
                items = tuple(
                    (puid, index[id(node)])
                    for puid, node in match.binding.items()
                )
            except KeyError:
                # A bound node escaped the signature cone — impossible by
                # the depth argument in repro.perf.signature; refuse to
                # cache rather than risk an unsound replay.
                return results
            templates.append((match.pattern, items))
        self._sig_cache[sig] = templates
        return results

    def _matches_at_grouped(self, snode: SubjectNode) -> List[Match]:
        """One enumeration per pattern group, bindings translated.

        Patterns are visited in pattern-set order and each group's
        binding list is in enumeration order, so the match stream, and
        therefore the identity dedup, is exactly what enumerating every
        pattern on its own would give.
        """
        results: List[Match] = []
        seen: Set[Tuple[object, ...]] = set()
        depth = self._depth[snode.uid]
        stats = self.stats
        group_of = self.patterns.trie.group_of
        group_bindings: Dict[int, List[Dict[int, SubjectNode]]] = {}
        for pattern in self._filtered_patterns(snode):
            if pattern.depth > depth:
                continue  # the pattern cannot fit above the PIs
            group = group_of[id(pattern)]
            bindings = group_bindings.get(id(group))
            if bindings is None:
                bindings = self._enumerate(group.rep, snode)
                group_bindings[id(group)] = bindings
                stats.groups_enumerated += 1
                stats.bindings_enumerated += len(bindings)
            translation = group.translations[id(pattern)]
            for b in bindings:
                if translation is None:
                    binding = b
                else:
                    binding = {
                        translation[puid]: node for puid, node in b.items()
                    }
                match = Match(pattern, snode, binding)
                key = match.identity()
                if key not in seen:
                    seen.add(key)
                    results.append(match)
        return results

    # ------------------------------------------------------------------
    def _enumerate(
        self, pattern: PatternGraph, root: SubjectNode
    ) -> List[Dict[int, SubjectNode]]:
        """Complete bindings of ``pattern`` rooted at ``root``, in DFS order.

        Obligations live on one shared stack (top = end of list): each
        level pops its obligation, pushes child obligations before
        recursing and restores the stack on the way out, so a step costs
        O(1).  Plain recursion that appends each complete binding to the
        result list: one Python frame per obligation, where nested
        generators cost a frame per level for every binding yielded.
        """
        injective = self.kind is not MatchKind.EXTENDED
        exact = self.kind is MatchKind.EXACT
        pattern_fanout = pattern.fanout
        swap_safe = pattern.swap_safe
        feasible = self._feasible
        uses = self._uses
        binding: Dict[int, SubjectNode] = {}
        # Subject uids bound so far; only injective kinds consult it.
        images: Set[int] = set()
        stack: List[Tuple[PatternNode, SubjectNode]] = [(pattern.root, root)]
        out: List[Dict[int, SubjectNode]] = []

        def assign() -> None:
            if not stack:
                out.append(dict(binding))
                return
            pnode, snode = stack.pop()
            puid = pnode.uid
            prior = binding.get(puid)
            if prior is not None:
                if prior is snode:
                    assign()
            elif injective and snode.uid in images:
                pass
            elif pnode.kind is NodeType.PI:
                binding[puid] = snode
                if injective:
                    images.add(snode.uid)
                    assign()
                    images.discard(snode.uid)
                else:
                    assign()
                del binding[puid]
            elif feasible(pnode, snode) and not (
                # Interior node: all subject fanout must stay inside the
                # match, i.e. out-degree equality (Definition 2, cond. 3).
                exact
                and pattern_fanout.get(puid, 0) > 0
                and uses[snode.uid] != pattern_fanout[puid]
            ):
                binding[puid] = snode
                if injective:
                    images.add(snode.uid)
                if pnode.kind is NodeType.INV:
                    stack.append((pnode.fanins[0], snode.fanins[0]))
                    assign()
                    stack.pop()
                else:
                    p0, p1 = pnode.fanins
                    s0, s1 = snode.fanins
                    stack.append((p1, s1))
                    stack.append((p0, s0))
                    assign()
                    if s0 is not s1 and puid not in swap_safe:
                        # swap_safe: disjoint isomorphic tree children
                        # make the swapped order redundant (it can only
                        # reproduce cost-identical matches).
                        stack[-2] = (p1, s0)
                        stack[-1] = (p0, s1)
                        assign()
                    del stack[-2:]
                if injective:
                    images.discard(snode.uid)
                del binding[puid]
            stack.append((pnode, snode))

        assign()
        del assign  # break the closure's self-reference
        return out

    @property
    def uses_floor(self) -> List[int]:
        """Per-uid use counts clamped to at least 1 (area-flow denominators).

        Computed once in :meth:`attach`; treat as read-only.
        """
        return self._uses_floor


class MatchViolation:
    """One violation of a match-class definition, with a stable code.

    The codes are the ``C1##`` series of the :mod:`repro.check` catalog:

    ========  =====================================================
    ``C101``  pattern node unbound
    ``C102``  pattern edge not preserved in the subject
    ``C103``  fanin multiset / in-degree mismatch at a pattern node
    ``C104``  mapping not one-to-one (standard/exact matches)
    ``C105``  out-degree mismatch at an interior node (exact matches)
    ``C106``  root binding mismatch
    ========  =====================================================
    """

    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchViolation):
            return NotImplemented
        return self.code == other.code and self.message == other.message

    def __hash__(self) -> int:
        return hash((self.code, self.message))

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"

    def __repr__(self) -> str:
        return f"MatchViolation({self.code!r}, {self.message!r})"


class MatchVerification:
    """Structured result of :func:`verify_match`.

    Behaves like the violation collection it wraps: it is *falsy when the
    match is valid*, iterable, and sized — so ``assert not
    verify_match(...)`` still reads "the match is valid".  ``ok`` is the
    explicit spelling, ``codes()``/``messages()`` project the violation
    fields, and the :mod:`repro.check` certificate checker consumes the
    records directly as C-series diagnostics.
    """

    __slots__ = ("violations",)

    def __init__(self, violations: Optional[List[MatchViolation]] = None):
        self.violations: List[MatchViolation] = list(violations or [])

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str) -> None:
        self.violations.append(MatchViolation(code, message))

    def codes(self) -> List[str]:
        return [v.code for v in self.violations]

    def messages(self) -> List[str]:
        return [v.message for v in self.violations]

    def __bool__(self) -> bool:
        return bool(self.violations)

    def __len__(self) -> int:
        return len(self.violations)

    def __iter__(self) -> Iterator[MatchViolation]:
        return iter(self.violations)

    def __repr__(self) -> str:
        if self.ok:
            return "MatchVerification(ok)"
        return f"MatchVerification({self.codes()})"


def subject_uses(subject: SubjectGraph) -> Dict[int, int]:
    """Per-uid fanout-use counts (fanin edges plus PO references).

    The out-degree side of Definition 3 (exact matches).  Callers that
    verify many matches against one subject should compute this once and
    pass it to :func:`verify_match` via ``uses=`` — recomputing it per
    match makes every verification O(|subject|).
    """
    uses: Dict[int, int] = {}
    for snode in subject.nodes:
        for fanin in snode.fanins:
            uses[fanin.uid] = uses.get(fanin.uid, 0) + 1
    for _, driver in subject.pos:
        uses[driver.uid] = uses.get(driver.uid, 0) + 1
    return uses


def verify_match(
    match: Match,
    subject: SubjectGraph,
    kind: MatchKind,
    uses: Optional[Dict[int, int]] = None,
) -> MatchVerification:
    """Independently check a match against Definitions 1-3.

    Returns a :class:`MatchVerification` — falsy when the match is valid,
    otherwise a collection of coded :class:`MatchViolation` records.
    Used by the test suite as an oracle for the matcher and by
    :mod:`repro.check` as the certificate primitive for cover legality.
    ``uses`` optionally supplies :func:`subject_uses` precomputed (only
    consulted for exact matches).
    """
    problems = MatchVerification()
    pattern = match.pattern
    binding = match.binding

    for pnode in pattern.nodes:
        if pnode.uid not in binding:
            problems.add("C101", f"pattern node {pnode.uid} unbound")
    if problems:
        return problems

    # Condition 1: edge preservation.  Subject fanins are NAND2/INV
    # (at most two), so each pattern edge is checked directly against
    # the bound parent's fanin list — materialising the subject's whole
    # edge set here made every verification O(|subject|).
    for pnode in pattern.nodes:
        for fanin in pnode.fanins:
            child_uid = binding[fanin.uid].uid
            parent = binding[pnode.uid]
            if all(f.uid != child_uid for f in parent.fanins):
                problems.add(
                    "C102",
                    f"pattern edge {fanin.uid}->{pnode.uid} not preserved",
                )

    # Condition 2: in-degree equality for internal pattern nodes, plus
    # the per-node fanin bijection that DAG unfolding implies: the
    # multiset of a pattern node's child images must equal the subject
    # node's fanin multiset.  (Definition 3's literal text would admit
    # two pattern children following the *same* subject edge — e.g.
    # matching NAND2(m, m') onto NAND2(a, b) with both m, m' on a —
    # which does not correspond to any unfolding of the subject DAG and
    # implements the wrong function.  Standard/exact matches satisfy the
    # bijection automatically through injectivity.)
    for pnode in pattern.nodes:
        if pnode.is_leaf:
            continue
        snode = binding[pnode.uid]
        if len(pnode.fanins) != len(snode.fanins):
            problems.add(
                "C103", f"in-degree mismatch at pattern node {pnode.uid}"
            )
            continue
        child_images = sorted(binding[c.uid].uid for c in pnode.fanins)
        subject_fanins = sorted(f.uid for f in snode.fanins)
        if child_images != subject_fanins:
            problems.add(
                "C103",
                f"fanin multiset mismatch at pattern node {pnode.uid}: "
                f"children map to {child_images}, subject has {subject_fanins}",
            )

    # One-to-one for standard/exact.
    if kind is not MatchKind.EXTENDED:
        images = [binding[p.uid].uid for p in pattern.nodes]
        if len(set(images)) != len(images):
            problems.add("C104", "mapping is not one-to-one")

    # Out-degree equality for exact matches (interior nodes only).
    if kind is MatchKind.EXACT:
        pattern_fanout: Dict[int, int] = {}
        for pnode in pattern.nodes:
            for fanin in pnode.fanins:
                pattern_fanout[fanin.uid] = pattern_fanout.get(fanin.uid, 0) + 1
        if uses is None:
            uses = subject_uses(subject)
        for pnode in pattern.nodes:
            if pnode.is_leaf or pattern_fanout.get(pnode.uid, 0) == 0:
                continue
            if uses.get(binding[pnode.uid].uid, 0) != pattern_fanout[pnode.uid]:
                problems.add(
                    "C105", f"out-degree mismatch at pattern node {pnode.uid}"
                )

    # The root must implement the gate output at the designated node.
    if binding[pattern.root.uid] is not match.root:
        problems.add("C106", "root binding mismatch")
    return problems
