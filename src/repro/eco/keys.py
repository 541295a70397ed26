"""Interned per-node validity keys for incremental (ECO) remapping.

The eco key of a subject node is a dense integer that canonically encodes
*everything the delay-labeling pass can observe* at that node:

* the matching-relevant cone structure — exactly the
  :func:`repro.perf.signature.cone_signature` token tuple, including
  fanin order, DAG sharing back-references and (for exact matching) the
  capped fanout-use counts of interior-bindable nodes, and
* recursively, the eco keys of every other node in the cone (primary
  inputs contribute their arrival time).

Two nodes with equal eco keys — whether in the same subject graph or in
the graphs of two different networks — therefore have byte-identical
match streams (modulo rebinding through the shared canonical cone
ordering, see :mod:`repro.perf.signature`) *and* byte-identical leaf
arrival times, so the labeling pass computes the same best match, the
same arrival and the same tie-breaks at both.  This is the soundness
argument of :func:`repro.eco.eco_remap`: a node of the edited subject
whose key also occurs in the base subject is *clean* and its old label
can be spliced in verbatim; every node whose key is new is *dirty* and
is remapped.  Dirtiness propagates up the fanout cone automatically
because a node's key contains its cone members' keys.

Keys are interned in an :class:`EcoKeyTable`, so the clean test is a
dict lookup on small ints.  Interning compares full tuples (no raw
``hash()`` use), so equal keys imply equal encodings — there is no
collision unsoundness.

A base subject's keys never change, so :func:`repro.eco.eco_remap`
computes them once, on its first call against the base, and keeps them
as a :class:`BaseKeys` on the base's labels: the frozen key table, the
splice donor of every key and each donor's rebinding through its
canonical cone.  Each call interns the edited subject's keys in an
overlay table over the frozen one, so the kept table never grows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.labeling import Labels
from repro.core.match import MatchKind
from repro.library.patterns import PatternGraph, PatternSet
from repro.network.subject import SubjectGraph, SubjectNode
from repro.perf.signature import Signature, cone_signature

__all__ = ["BaseKeys", "EcoKeyTable", "SubjectKeys", "compute_subject_keys"]

#: A splice donor: the base label's arrival and area flow, its pattern,
#: and its binding as ((pattern uid, cone position), ...) pairs.
Donor = Tuple[float, float, PatternGraph, Tuple[Tuple[int, int], ...]]


class EcoKeyTable:
    """Interns structural key tuples into dense integers.

    ``EcoKeyTable(frozen)`` is an overlay: a key the frozen table holds
    keeps its int, a new key gets the next int past both tables and is
    stored in the overlay alone, so the frozen table is only read.
    """

    def __init__(self, frozen: Optional["EcoKeyTable"] = None) -> None:
        if frozen is not None and frozen._frozen:
            raise ValueError("an overlay table cannot be frozen under another")
        self._frozen: Dict[Tuple[object, ...], int] = (
            {} if frozen is None else frozen._intern
        )
        self._intern: Dict[Tuple[object, ...], int] = {}

    def __len__(self) -> int:
        return len(self._frozen) + len(self._intern)

    def intern(self, value: Tuple[object, ...]) -> int:
        key = self._frozen.get(value)
        if key is None:
            key = self._intern.get(value)
            if key is None:
                key = len(self._frozen) + len(self._intern)
                self._intern[value] = key
        return key


class SubjectKeys:
    """Eco keys and cone signatures for every node of one subject graph.

    Attributes:
        keys: per-uid interned eco key.
        signatures: per-uid ``cone_signature`` result — token tuple and
            canonical cone node list (``cone[0]`` is the node itself);
            ``None`` for primary inputs.
    """

    __slots__ = ("keys", "signatures")

    def __init__(self, keys: List[int], signatures: List[Optional[Signature]]):
        self.keys = keys
        self.signatures = signatures


class BaseKeys:
    """What :func:`repro.eco.eco_remap` keeps of a base mapping.

    Built once per base, from its labels and its subject's keys, and
    stored on the labels.  It depends on nothing else: every remap
    against the base must use the base's own pattern set and match kind,
    and the base's PI arrivals are read from its labels.

    Attributes:
        table: the frozen key table of the base subject.
        donors: eco key -> :data:`Donor` taken from the first base node
            (in topological order) that carries the key; ``None`` when
            that node's match binds a node outside its signature cone
            (the EXTENDED defensive case of ``Matcher.matches_at``),
            which has no canonical rebinding, so the key stays dirty.
    """

    __slots__ = ("table", "donors")

    def __init__(self, labels: Labels, table: EcoKeyTable, keys: SubjectKeys):
        self.table = table
        self.donors: Dict[int, Optional[Donor]] = {}
        for node in labels.subject.topological():
            key = keys.keys[node.uid]
            if not node.is_pi and key not in self.donors:
                self.donors[key] = _donor(labels, node, keys.signatures[node.uid])


def _donor(
    labels: Labels, node: SubjectNode, signature: Optional[Signature]
) -> Optional[Donor]:
    """``node``'s label as a splice donor, its binding as cone positions."""
    match = labels.best[node.uid]
    if match is None or signature is None:
        return None  # pragma: no cover - labeling labels every internal node
    pos_of = {member: pos for pos, member in enumerate(signature[1])}
    try:
        items = tuple((puid, pos_of[snode]) for puid, snode in match.binding.items())
    except KeyError:
        return None
    return (labels.arrival[node.uid], labels.area_flow[node.uid], match.pattern, items)


def compute_subject_keys(
    subject: SubjectGraph,
    kind: MatchKind,
    arrival_times: Dict[str, float],
    patterns: PatternSet,
    table: EcoKeyTable,
) -> SubjectKeys:
    """Compute the eco key of every node of ``subject`` in topological order.

    Args:
        subject: the NAND2-INV subject graph.
        kind: match class of the mapping run the keys will gate; exact
            matching folds fanout-use counts into the signatures.
        arrival_times: PI arrival times by name (missing names are 0.0,
            matching the labeling pass).
        patterns: the pattern set of the mapping run; its ``max_depth``
            bounds the cones and its ``use_cap`` clamps the use counts.
        table: interning table; keys compared across subjects must be
            interned in one table or in an overlay over it.
    """
    uses = subject.use_counts() if kind is MatchKind.EXACT else None
    n = len(subject.nodes)
    keys: List[int] = [0] * n
    signatures: List[Optional[Signature]] = [None] * n
    depth, use_cap = patterns.max_depth, patterns.use_cap
    intern = table.intern
    for node in subject.topological():
        if node.is_pi:
            arrival = float(arrival_times.get(node.name, 0.0))
            keys[node.uid] = intern(("pi", arrival))
            continue
        signature = cone_signature(node, depth, uses=uses, use_cap=use_cap)
        cone = signature[1]
        keys[node.uid] = intern(
            (signature[0], tuple([keys[member.uid] for member in cone[1:]]))
        )
        signatures[node.uid] = signature
    return SubjectKeys(keys, signatures)
