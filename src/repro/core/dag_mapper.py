"""The paper's contribution: delay-optimal technology mapping of DAGs.

:func:`map_dag` runs the full flow of Section 3: optimal-delay labeling of
the subject DAG using standard (or extended) matches, then queue-based
cover construction with implicit node duplication.  The result is
delay-optimal with respect to the subject graph, the pattern set, and the
match class — the exact claim of the paper — in time O(s * p) where ``s``
is the subject size and ``p`` the total pattern size (Section 3.4).
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Set, Union

from repro.core.cover import build_cover
from repro.core.labeling import ReuseHook, compute_labels
from repro.core.match import Matcher, MatchKind
from repro.core.result import MappingResult
from repro.library.gate import GateLibrary
from repro.library.patterns import PatternSet
from repro.network.subject import SubjectGraph

__all__ = ["map_dag"]


def map_dag(
    subject: SubjectGraph,
    library: Union[GateLibrary, PatternSet],
    kind: MatchKind = MatchKind.STANDARD,
    arrival_times: Optional[Dict[str, float]] = None,
    objective: str = "delay",
    max_variants: int = 16,
    matcher: Optional[Matcher] = None,
    check: bool = False,
    reuse: Optional[ReuseHook] = None,
) -> MappingResult:
    """Map a subject DAG directly, without tree decomposition.

    Args:
        subject: NAND2-INV subject graph.
        library: gate library (or a pre-built :class:`PatternSet`, which
            amortises pattern generation across runs).
        kind: ``STANDARD`` (the paper's experiments, footnote 3) or
            ``EXTENDED`` (Definition 3, allowing subject-node unfolding).
            ``EXACT`` is legal but yields tree-covering behaviour; use
            :func:`repro.core.tree_mapper.map_tree` for the real baseline.
        arrival_times: optional PI arrival times.
        objective: ``'delay'`` (the paper) or ``'area'`` (heuristic
            area-flow covering for comparison experiments).
        max_variants: pattern-decomposition variants per gate.
        matcher: optional pre-built :class:`repro.core.match.Matcher`
            reused across circuits (amortises its signature cache), or
            one with its cut filter forced on or off.
        check: certify the result via :mod:`repro.check` before
            returning; the report is attached as ``result.certificate``
            and :class:`~repro.errors.CertificateError` is raised when
            it contains error-severity diagnostics.
        reuse: optional ECO splice hook forwarded to
            :func:`repro.core.labeling.compute_labels`; used by
            :func:`repro.eco.eco_remap` to retain labels of clean cones.

    Returns:
        A :class:`MappingResult`.  ``result.delay`` is the labeling's
        optimal arrival under the delay objective (the netlist's STA
        delay equals it, which the tests pin) and the netlist's STA
        delay under the area objective.
    """
    return _map(
        subject, library, "dag", kind, arrival_times, objective, max_variants,
        matcher, check, reuse=reuse,
    )


def _map(
    subject: SubjectGraph,
    library: Union[GateLibrary, PatternSet],
    mode: str,
    kind: MatchKind,
    arrival_times: Optional[Dict[str, float]],
    objective: str,
    max_variants: int,
    matcher: Optional[Matcher],
    check: bool,
    boundary_uids: Optional[Set[int]] = None,
    reuse: Optional[ReuseHook] = None,
) -> MappingResult:
    """Label, cover, time and optionally certify: both mappers' driver.

    ``compute_labels`` and ``build_cover`` are looked up in this module
    at call time, so patching them here reaches ``map_dag`` and
    :func:`repro.core.tree_mapper.map_tree` alike.
    """
    patterns = PatternSet.of(library, max_variants)
    start = time.perf_counter()
    labels = compute_labels(
        subject,
        patterns,
        kind=kind,
        arrival_times=arrival_times,
        objective=objective,
        boundary_uids=boundary_uids,
        matcher=matcher,
        reuse=reuse,
    )
    netlist = build_cover(labels, name=f"{subject.name}_{mode}")
    elapsed = time.perf_counter() - start

    if objective == "delay":
        delay = labels.max_arrival
    else:
        from repro.timing.sta import analyze  # local import to avoid a cycle

        delay = analyze(netlist, arrival_times=arrival_times).delay
    result = MappingResult(
        netlist=netlist,
        labels=labels,
        delay=delay,
        area=netlist.area(),
        cpu_seconds=elapsed,
        mode=mode,
        match_kind=kind.value,
        library=patterns.library.name,
        n_matches=labels.n_matches,
        counters=labels.match_stats,
    )
    if check:
        from repro.check.certificate import attach_certificate

        attach_certificate(result)
    return result
