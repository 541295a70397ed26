"""Diff-aware incremental remapping (``eco_remap``).

Production mapping traffic is dominated by *edits*: small netlist changes
that invalidate only the fanout cones of the touched nodes.  This module
remaps such an edit incrementally:

1. decompose the edited network into its subject graph,
2. compute interned eco keys (:mod:`repro.eco.keys`) for the base run's
   subject and the edited subject over a shared table,
3. label the edited subject with :func:`repro.core.dag_mapper.map_dag`,
   splicing the base run's ``(arrival, area_flow, match)`` verbatim at
   every *clean* node (its key occurs in the base subject) through the
   labeling reuse hook, and running ordinary matching only on the dirty
   region,
4. re-certify the patch with :func:`repro.check.eco.certify_patch`
   (E-series codes), which structurally verifies every spliced and
   remapped match in the final cover.

Correctness contract (enforced by fuzz oracle F011 and the ``eco``
campaign mode): the result is **byte-identical** — same delay, same
area, same mapped-BLIF cover — to a from-scratch ``map_dag`` of the
edited network with the same patterns and kind.  The argument is
an induction over the edited subject in topological order: equal eco
keys imply equal cone structure and equal leaf arrivals, hence the same
match stream (modulo rebinding through the canonical cone ordering) and
bitwise-equal best-match selection; see :mod:`repro.eco.keys`.

The one intentional divergence: a clean node's ``area_flow`` is copied
from the base run even though the edit may have changed fanout counts
elsewhere.  ``area_flow`` is a load heuristic consumed only by area
recovery — never by delay labeling, cover construction, or
certification — so the byte-identity contract (delay, area, cover) is
unaffected; ``eco_remap`` therefore supports the ``delay`` objective
only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple, Union

from repro.core.dag_mapper import map_dag
from repro.core.match import Match, Matcher, MatchKind
from repro.core.result import MappingResult
from repro.errors import MappingError
from repro.library.gate import GateLibrary
from repro.library.patterns import PatternSet
from repro.network.bnet import BooleanNetwork
from repro.network.decompose import decompose_network
from repro.network.subject import SubjectGraph, SubjectNode
from repro.check.diagnostics import CheckReport
from repro.eco.keys import EcoKeyTable, compute_subject_keys

__all__ = ["EcoResult", "eco_remap"]


@dataclass
class EcoResult:
    """Outcome of one :func:`eco_remap` call.

    Attributes:
        result: the mapping of the edited network; byte-identical to a
            from-scratch ``map_dag`` of it.
        nodes_reused: internal subject nodes whose label was spliced in
            from the base run.
        nodes_remapped: internal subject nodes that went through
            ordinary matching (the dirty region).
        reused_uids: uids of the spliced nodes in the edited subject.
        patch_report: the patch-certification report (E-series codes);
            ``None`` when certification was disabled.
        cpu_seconds: wall-clock of the whole incremental run, including
            both key passes (``result.cpu_seconds`` covers only the
            labeling + cover portion).
    """

    result: MappingResult
    nodes_reused: int
    nodes_remapped: int
    reused_uids: FrozenSet[int]
    patch_report: Optional[CheckReport]
    cpu_seconds: float

    @property
    def reuse_fraction(self) -> float:
        total = self.nodes_reused + self.nodes_remapped
        return self.nodes_reused / total if total else 0.0

    def summary(self) -> str:
        res = self.result
        return (
            f"eco {res.netlist.name}: delay={res.delay:.3f} area={res.area:.2f} "
            f"reused={self.nodes_reused} remapped={self.nodes_remapped} "
            f"({100.0 * self.reuse_fraction:.1f}% clean) "
            f"cpu={self.cpu_seconds * 1e3:.1f}ms"
        )


def _require_delay_dag_base(base: MappingResult) -> None:
    if base.mode != "dag":
        raise MappingError(
            "[M005] eco_remap requires a dag-mode base MappingResult "
            f"(map_dag output); got mode {base.mode!r}"
        )
    if base.labels.objective != "delay":
        raise MappingError(
            "[M005] eco_remap supports the 'delay' objective only: clean "
            "nodes splice the base run's area_flow verbatim, which is only "
            "sound when label selection never reads it; got objective "
            f"{base.labels.objective!r}"
        )


def eco_remap(
    base: MappingResult,
    edited: Union[BooleanNetwork, SubjectGraph],
    library: Union[GateLibrary, PatternSet],
    arrival_times: Optional[Dict[str, float]] = None,
    base_arrival_times: Optional[Dict[str, float]] = None,
    max_variants: int = 16,
    decompose: str = "balanced",
    matcher: Optional[Matcher] = None,
    certify: bool = True,
    check: bool = False,
) -> EcoResult:
    """Incrementally remap an edited network against a base mapping.

    Args:
        base: the base network's mapping — a ``map_dag`` result with the
            ``delay`` objective.  The match kind is inherited from it.
        edited: the edited network (decomposed with ``decompose`` style)
            or a pre-built subject graph.
        library: the *same* library (or pattern set) the base run used;
            a mismatching library name is rejected with ``M006``.
        arrival_times: PI arrival times for the edited run.
        base_arrival_times: PI arrival times the *base* run was labeled
            with; defaults to ``arrival_times``.  Getting this wrong is
            safe but slow — keys stop matching and everything remaps.
        max_variants: pattern-decomposition variants (when ``library``
            is a raw :class:`GateLibrary`).
        decompose: technology-decomposition style for ``edited``.
        matcher: optional pre-built matcher (same patterns/kind) shared
            across calls to amortise its caches.
        certify: run :func:`repro.check.eco.certify_patch` on the result
            and raise :class:`~repro.errors.CertificateError` when the
            patch report contains errors.
        check: additionally run the full mapping certificate
            (:func:`repro.check.certificate.attach_certificate`) on the
            spliced result, exactly as ``map_dag(check=True)`` would.

    Returns:
        An :class:`EcoResult`; ``result.counters`` carries the
        ``eco_nodes_reused`` / ``eco_nodes_remapped`` split.
    """
    started = time.perf_counter()
    _require_delay_dag_base(base)
    kind = MatchKind(base.match_kind)

    patterns = PatternSet.of(library, max_variants)
    if patterns.library.name != base.library:
        raise MappingError(
            f"[M006] eco_remap library {patterns.library.name!r} does not "
            f"match the base mapping's library {base.library!r}; reuse "
            "across libraries is unsound"
        )

    if isinstance(edited, SubjectGraph):
        new_subject = edited
    else:
        new_subject = decompose_network(edited, style=decompose)

    old_labels = base.labels
    old_subject = old_labels.subject
    if base_arrival_times is None:
        base_arrival_times = arrival_times

    table = EcoKeyTable()
    old_keys = compute_subject_keys(
        old_subject, kind, base_arrival_times or {}, patterns, table
    )
    new_keys = compute_subject_keys(
        new_subject, kind, arrival_times or {}, patterns, table
    )

    # First topological occurrence of each key in the base subject is the
    # splice donor; later occurrences are structurally identical anyway.
    donor_of: Dict[int, int] = {}
    for node in old_subject.topological():
        if not node.is_pi:
            donor_of.setdefault(old_keys.keys[node.uid], node.uid)

    reused: Set[int] = set()

    def reuse(node: SubjectNode) -> Optional[Tuple[float, float, Match]]:
        donor_uid = donor_of.get(new_keys.keys[node.uid])
        if donor_uid is None:
            return None
        donor_match = old_labels.best[donor_uid]
        if donor_match is None:
            return None  # pragma: no cover - labeling always sets best
        donor_cone = old_keys.cones[donor_uid]
        new_cone = new_keys.cones[node.uid]
        if donor_cone is None or new_cone is None:
            return None  # pragma: no cover - internal nodes carry cones
        pos_of = {id(member): pos for pos, member in enumerate(donor_cone)}
        try:
            binding = {
                puid: new_cone[pos_of[id(snode)]]
                for puid, snode in donor_match.binding.items()
            }
        except KeyError:
            # A bound node escaped the donor's signature cone (the
            # EXTENDED defensive case of Matcher.matches_at): there is no
            # canonical rebinding, so treat the node as dirty.
            return None
        reused.add(node.uid)
        return (
            old_labels.arrival[donor_uid],
            old_labels.area_flow[donor_uid],
            Match(donor_match.pattern, node, binding),
        )

    result = map_dag(
        new_subject,
        patterns,
        kind=kind,
        arrival_times=arrival_times,
        objective="delay",
        matcher=matcher,
        check=check,
        reuse=reuse,
    )

    n_internal = sum(1 for node in new_subject.nodes if not node.is_pi)
    reused_uids = frozenset(reused)
    patch_report: Optional[CheckReport] = None
    if certify:
        from repro.check.eco import certify_patch

        patch_report = certify_patch(result, reused_uids, base, raise_on_error=True)
    return EcoResult(
        result=result,
        nodes_reused=len(reused_uids),
        nodes_remapped=n_internal - len(reused_uids),
        reused_uids=reused_uids,
        patch_report=patch_report,
        cpu_seconds=time.perf_counter() - started,
    )
