"""Optimal-delay labeling of subject graphs (the paper's Section 3.1).

This is the FlowMap labeling idea transplanted to library matching: visit
subject nodes in topological order; at each node enumerate all matches
rooted there and record the best achievable arrival time::

    label(n) = min over matches m at n of
               max over leaves l of m of (label(l) + pin_delay(m, l))

Primary inputs carry user-provided arrival times (default 0).  The actual
pin-to-pin delays of the matched gate replace FlowMap's unit LUT delay.
The principle of optimality holds because every cover of n must present
the inputs of *some* match of n at its leaves (the paper's argument), so
``label(n)`` is the minimum delay of any cover of ``n`` — with respect to
the match class in use:

* ``MatchKind.STANDARD`` / ``EXTENDED`` -> DAG covering (the paper),
* ``MatchKind.EXACT``    -> conventional tree covering (the baseline),
  since exact matches are precisely the matches usable inside trees.

A secondary *area-flow* label is computed in the same pass; it estimates
the duplication-aware area of the best cover and is used by area recovery
and by the area-objective tree mapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import MappingError
from repro.core.match import Match, Matcher, MatchKind
from repro.library.patterns import PatternSet
from repro.network.subject import SubjectGraph, SubjectNode

__all__ = ["Labels", "ReuseHook", "compute_labels"]

_EPS = 1e-9

#: Signature of the ECO reuse hook: given an internal subject node, return
#: ``(arrival, area_flow, match)`` to splice a previous run's label in, or
#: ``None`` to run ordinary matching at that node.
ReuseHook = Callable[[SubjectNode], Optional[Tuple[float, float, Match]]]


@dataclass
class Labels:
    """Result of the labeling pass.

    Attributes:
        arrival: per-node optimal arrival time (indexed by node uid).
        best: per-node best match (None for PIs).
        matches_per_node: all matches found, kept only when requested.
        po_arrival: PO name -> arrival of its driver.
        n_matches: total number of matches enumerated (work measure).
        objective: 'delay' or 'area'.
    """

    subject: SubjectGraph
    arrival: List[float]
    best: List[Optional[Match]]
    po_arrival: Dict[str, float]
    n_matches: int
    objective: str
    area_flow: List[float]
    matches_per_node: Optional[List[List[Match]]] = None
    match_stats: Optional[Dict[str, float]] = None

    @property
    def max_arrival(self) -> float:
        """The optimal delay of the circuit: worst PO arrival.

        Raises:
            MappingError: (code ``M002``) when the subject has no primary
                outputs — the delay bound is undefined, and silently
                reporting 0.0 would let a broken subject graph certify.
        """
        if not self.po_arrival:
            raise MappingError(
                "[M002] subject graph has no primary outputs; the delay "
                "bound (worst PO arrival) is undefined"
            )
        return max(self.po_arrival.values())

    def match_at(self, node: SubjectNode) -> Optional[Match]:
        return self.best[node.uid]


def compute_labels(
    subject: SubjectGraph,
    patterns: PatternSet,
    kind: MatchKind = MatchKind.STANDARD,
    arrival_times: Optional[Dict[str, float]] = None,
    objective: str = "delay",
    keep_matches: bool = False,
    boundary_uids: Optional[Set[int]] = None,
    matcher: Optional[Matcher] = None,
    reuse: Optional[ReuseHook] = None,
) -> Labels:
    """Label every subject node with its optimal cost and best match.

    Args:
        subject: the NAND2-INV subject graph.
        patterns: pattern set of the target library.
        kind: match class (see module docstring).
        arrival_times: optional PI arrival times by name (default 0.0).
        objective: ``'delay'`` (the paper) or ``'area'`` (Keutzer-style
            minimum-area covering; exact for trees, a load-estimate
            heuristic for DAGs).
        keep_matches: retain the full match list per node (memory-heavy;
            used by area recovery and the tests).
        boundary_uids: for the area objective, subject uids whose area is
            accounted elsewhere (tree leaves); their label contributes 0
            to covering matches.
        matcher: reuse a pre-built matcher (its signature cache is
            subject-independent, so sharing one across circuits amortises
            both the trie construction and the memoized match sets).
            Must have been constructed with the same patterns and kind.
            ``None`` builds a default :class:`~repro.core.match.Matcher`;
            ``Matcher(patterns, kind, cache=False)`` is the reference
            path, which produces identical labels.
        reuse: optional ECO splice hook (:data:`ReuseHook`).  Consulted
            for every internal node *before* matching; when it returns a
            ``(arrival, area_flow, match)`` triple the node's label is
            taken verbatim and the matcher is never invoked there.  The
            caller (:func:`repro.eco.eco_remap`) guarantees the spliced
            label equals what matching would have produced.  Incompatible
            with ``keep_matches`` (reused nodes have no match list).

    Raises:
        MappingError: if some node has no match (library lacks INV/NAND2).
        ValueError: on an unknown objective, or ``reuse`` with
            ``keep_matches``.
    """
    if objective not in ("delay", "area"):
        raise ValueError(f"unknown objective {objective!r}")
    if reuse is not None and keep_matches:
        raise ValueError("reuse hook is incompatible with keep_matches")
    arrival_times = arrival_times or {}

    # A PO whose driver is not a member of the graph would silently label
    # with the list default (arrival 0.0); reject it up front with a
    # coded error (the lintable form of this defect is N022).
    n = len(subject.nodes)
    for po_name, driver in subject.pos:
        if not 0 <= driver.uid < n or subject.nodes[driver.uid] is not driver:
            raise MappingError(
                f"[M001] primary output {po_name!r} is driven by node "
                f"{driver.uid}, which is not part of the subject graph; "
                f"its arrival would silently default to 0.0 (lint code "
                f"N022 reports the same defect)"
            )

    if matcher is None:
        matcher = Matcher(patterns, kind)
    matcher.attach(subject)
    arrival: List[float] = [0.0] * n
    area_flow: List[float] = [0.0] * n
    best: List[Optional[Match]] = [None] * n
    all_matches: Optional[List[List[Match]]] = [[] for _ in range(n)] if keep_matches else None
    n_matches = 0

    # Fanout-use counts for the area-flow estimate, clamped to >= 1;
    # hoisted into Matcher.attach() so the pass reads one precomputed
    # list instead of a per-node (PIs included) subject_uses() call.
    uses = matcher.uses_floor

    for node in subject.topological():
        if node.is_pi:
            arrival[node.uid] = float(arrival_times.get(node.name, 0.0))
            area_flow[node.uid] = 0.0
            continue
        if reuse is not None:
            spliced = reuse(node)
            if spliced is not None:
                arrival[node.uid], area_flow[node.uid], best[node.uid] = spliced
                matcher.stats.eco_nodes_reused += 1
                continue
            matcher.stats.eco_nodes_remapped += 1
        matches = matcher.matches_at(node)
        n_matches += len(matches)
        if all_matches is not None:
            all_matches[node.uid] = matches
        if not matches:
            raise MappingError(
                f"no match at subject node {node!r}; the library must "
                f"contain at least an inverter and a 2-input NAND"
            )
        best_match: Optional[Match] = None
        best_cost = math.inf
        best_tie = (math.inf, math.inf)
        best_af = math.inf
        for match in matches:
            gate = match.gate
            cost = 0.0
            af = gate.area
            for pin, leaf in match.leaves():
                t = arrival[leaf.uid] + gate.pin_delay(pin)
                if t > cost:
                    cost = t
                af += area_flow[leaf.uid] / uses[leaf.uid]
            if af < best_af:
                best_af = af
            if objective == "delay":
                primary = cost
                tie = (gate.area, float(len(match.pattern.leaves)))
            else:
                primary = gate.area
                for _, leaf in match.leaves():
                    if boundary_uids is not None and leaf.uid in boundary_uids:
                        continue
                    if leaf.is_pi:
                        continue
                    primary += arrival[leaf.uid]
                tie = (cost, float(len(match.pattern.leaves)))
            if primary < best_cost - _EPS or (
                abs(primary - best_cost) <= _EPS and tie < best_tie
            ):
                best_cost = primary
                best_tie = tie
                best_match = match
        arrival[node.uid] = best_cost
        area_flow[node.uid] = best_af
        best[node.uid] = best_match

    po_arrival = {name: arrival[driver.uid] for name, driver in subject.pos}
    return Labels(
        subject=subject,
        arrival=arrival,
        best=best,
        po_arrival=po_arrival,
        n_matches=n_matches,
        objective=objective,
        area_flow=area_flow,
        matches_per_node=all_matches,
        match_stats=matcher.stats.as_dict(),
    )
