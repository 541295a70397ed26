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

Keys are interned in an :class:`EcoKeyTable` shared between the two
subjects, so the clean test is a dict lookup on small ints.  Interning
compares full tuples (no raw ``hash()`` use), so equal keys imply equal
encodings — there is no collision unsoundness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.match import MatchKind
from repro.library.patterns import PatternSet
from repro.network.subject import SubjectGraph, SubjectNode
from repro.perf.signature import cone_signature

__all__ = ["EcoKeyTable", "SubjectKeys", "compute_subject_keys"]


class EcoKeyTable:
    """Interns structural key tuples into dense integers.

    Shared across the base and edited subjects of one
    :func:`repro.eco.eco_remap` call so equal structures map to equal
    ints and the clean-node test is a plain dict lookup.
    """

    def __init__(self) -> None:
        self._intern: Dict[Tuple[object, ...], int] = {}

    def __len__(self) -> int:
        return len(self._intern)

    def intern(self, value: Tuple[object, ...]) -> int:
        key = self._intern.get(value)
        if key is None:
            key = len(self._intern)
            self._intern[value] = key
        return key


class SubjectKeys:
    """Eco keys and canonical cones for every node of one subject graph.

    Attributes:
        keys: per-uid interned eco key.
        cones: per-uid canonical cone node list (``cone[0]`` is the node
            itself); ``None`` for primary inputs.
    """

    __slots__ = ("keys", "cones")

    def __init__(self, keys: List[int], cones: List[Optional[List[SubjectNode]]]):
        self.keys = keys
        self.cones = cones


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
        table: shared interning table (pass the same instance for the
            base and the edited subject).
    """
    uses = subject.use_counts() if kind is MatchKind.EXACT else None
    n = len(subject.nodes)
    keys: List[int] = [0] * n
    cones: List[Optional[List[SubjectNode]]] = [None] * n
    for node in subject.topological():
        if node.is_pi:
            arrival = float(arrival_times.get(node.name, 0.0))
            keys[node.uid] = table.intern(("pi", arrival))
            continue
        sig, cone = cone_signature(
            node, patterns.max_depth, uses=uses, use_cap=patterns.use_cap
        )
        child_keys = tuple(keys[member.uid] for member in cone[1:])
        keys[node.uid] = table.intern((sig, child_keys))
        cones[node.uid] = cone
    return SubjectKeys(keys, cones)
