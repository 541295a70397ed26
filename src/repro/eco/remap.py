"""Diff-aware incremental remapping (``eco_remap``).

Production mapping traffic is dominated by *edits*: small netlist changes
that invalidate only the fanout cones of the touched nodes.  This module
remaps such an edit incrementally:

1. decompose the edited network into its subject graph,
2. compute interned eco keys (:mod:`repro.eco.keys`) for the edited
   subject, in an overlay over the base's kept key table (the base's
   own keys are computed on the first call against it and kept on its
   labels),
3. label the edited subject with :func:`repro.core.dag_mapper.map_dag`,
   splicing the base run's ``(arrival, area_flow, match)`` verbatim at
   every *clean* node (its key occurs in the base subject) through the
   labeling reuse hook, and running ordinary matching only on the dirty
   region — on the cone signatures the key pass computed, which it
   hands to the matcher,
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
from repro.eco.keys import BaseKeys, EcoKeyTable, compute_subject_keys

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
            the key passes — the base's only on the first call against
            it (``result.cpu_seconds`` covers only the labeling + cover
            portion).
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


def _require_same_patterns(
    patterns: PatternSet, base: MappingResult, matcher: Optional[Matcher],
    kind: MatchKind,
) -> None:
    """M006: the call and its matcher use the set that labelled the base."""
    base_set = base.labels.patterns
    if not patterns.same_set(base_set):
        raise MappingError(
            f"[M006] eco_remap pattern set ({patterns.library.name!r}, "
            f"{patterns.max_variants} variants) is not the set that "
            f"labelled the base ({base_set.library.name!r}, "
            f"{base_set.max_variants} variants); pass that set, or one "
            "built from the same library object with the same variant "
            "count: reuse across pattern sets is unsound"
        )
    if matcher is not None and (
        matcher.kind is not kind or not matcher.patterns.same_set(base_set)
    ):
        raise MappingError(
            f"[M006] eco_remap matcher ({matcher.kind.value} matches, "
            f"{matcher.patterns.library.name!r}, "
            f"{matcher.patterns.max_variants} variants) is not built for "
            f"the base's pattern set and {kind.value} matches"
        )


def _base_keys(base: MappingResult, patterns: PatternSet, kind: MatchKind) -> BaseKeys:
    """The base's kept keys, computed on the first call against it."""
    labels = base.labels
    kept = labels.eco_keys
    if kept is None:
        subject = labels.subject
        table = EcoKeyTable()
        arrivals = {pi.name: labels.arrival[pi.uid] for pi in subject.pis}
        keys = compute_subject_keys(subject, kind, arrivals, patterns, table)
        kept = labels.eco_keys = BaseKeys(labels, table, keys)
    return kept


def eco_remap(
    base: MappingResult,
    edited: Union[BooleanNetwork, SubjectGraph],
    library: Union[GateLibrary, PatternSet],
    arrival_times: Optional[Dict[str, float]] = None,
    max_variants: int = 16,
    decompose: str = "balanced",
    matcher: Optional[Matcher] = None,
    certify: bool = True,
    check: bool = False,
) -> EcoResult:
    """Incrementally remap an edited network against a base mapping.

    Args:
        base: the base network's mapping — a ``map_dag`` result with the
            ``delay`` objective.  The match kind is inherited from it,
            and its PI arrival times are read from its labels.  The
            first call against a base keeps its eco keys on its labels.
        edited: the edited network (decomposed with ``decompose`` style)
            or a pre-built subject graph.
        library: the pattern set that labelled the base, an equal one
            (same library object, same variant count) or that library;
            any other set is rejected with ``M006``.
        arrival_times: PI arrival times for the edited run.
        max_variants: pattern-decomposition variants (when ``library``
            is a raw :class:`GateLibrary`).
        decompose: technology-decomposition style for ``edited``.
        matcher: optional pre-built matcher (same patterns/kind) shared
            across calls to amortise its caches; one for another set or
            kind is rejected with ``M006``.
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
    _require_same_patterns(patterns, base, matcher, kind)

    if isinstance(edited, SubjectGraph):
        new_subject = edited
    else:
        new_subject = decompose_network(edited, style=decompose)

    kept = _base_keys(base, patterns, kind)
    new_keys = compute_subject_keys(
        new_subject, kind, arrival_times or {}, patterns, EcoKeyTable(kept.table)
    )
    keys, signatures, donors = new_keys.keys, new_keys.signatures, kept.donors
    reused: Set[int] = set()

    def reuse(node: SubjectNode) -> Optional[Tuple[float, float, Match]]:
        donor = donors.get(keys[node.uid])
        signature = signatures[node.uid]
        if donor is None or signature is None:
            return None
        arrival, area_flow, pattern, items = donor
        cone = signature[1]
        reused.add(node.uid)
        return (
            arrival,
            area_flow,
            Match(pattern, node, {puid: cone[pos] for puid, pos in items}),
        )

    # The key pass has walked every cone; the matcher reads the dirty
    # nodes' signatures instead of walking them again.
    if matcher is None:
        matcher = Matcher(patterns, kind)
    matcher.offer_signatures(new_subject, signatures)
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
