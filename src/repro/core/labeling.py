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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import MappingError
from repro.core.match import Match, Matcher, MatchKind
from repro.library.patterns import PatternSet
from repro.network.subject import SubjectGraph, SubjectNode

if TYPE_CHECKING:
    from repro.eco.keys import BaseKeys

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
        po_arrival: PO name -> arrival of its driver.
        n_matches: total number of matches enumerated (work measure).
        objective: 'delay' or 'area'.
        patterns: the pattern set the labels were computed with.
        eco_keys: what :func:`repro.eco.eco_remap` keeps of these labels
            when they serve as its base; set by its first call against
            them.
    """

    subject: SubjectGraph
    arrival: List[float]
    best: List[Optional[Match]]
    po_arrival: Dict[str, float]
    n_matches: int
    objective: str
    area_flow: List[float]
    patterns: PatternSet
    match_stats: Optional[Dict[str, float]] = None
    eco_keys: Optional["BaseKeys"] = field(
        default=None, init=False, repr=False, compare=False
    )

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


def compute_labels(
    subject: SubjectGraph,
    patterns: PatternSet,
    kind: MatchKind = MatchKind.STANDARD,
    arrival_times: Optional[Dict[str, float]] = None,
    objective: str = "delay",
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
        boundary_uids: for the area objective, subject uids whose area is
            accounted elsewhere (tree leaves); their label contributes 0
            to covering matches.
        matcher: reuse a pre-built matcher (its signature cache is
            subject-independent, so sharing one across circuits amortises
            both the trie construction and the memoized match sets).
            Must have been constructed with the same patterns and kind.
            ``None`` builds a default :class:`~repro.core.match.Matcher`;
            one with its cut filter forced on or off produces identical
            labels.
        reuse: optional ECO splice hook (:data:`ReuseHook`).  Consulted
            for every internal node *before* matching; when it returns a
            ``(arrival, area_flow, match)`` triple the node's label is
            taken verbatim and the matcher is never invoked there.  The
            caller (:func:`repro.eco.eco_remap`) guarantees the spliced
            label equals what matching would have produced.

    Raises:
        MappingError: if some node has no match (library lacks INV/NAND2).
        ValueError: on an unknown objective.
    """
    if objective not in ("delay", "area"):
        raise ValueError(f"unknown objective {objective!r}")
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
    n_matches = 0

    # Fanout-use counts for the area-flow estimate, clamped to >= 1;
    # Matcher.attach() precomputes them for every node, PIs included.
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
            binding = match.binding
            leaf_delays = match.pattern.leaf_delays
            cost = 0.0
            af = gate.area
            for leaf_id, delay in leaf_delays:
                uid = binding[leaf_id].uid
                t = arrival[uid] + delay
                if t > cost:
                    cost = t
                af += area_flow[uid] / uses[uid]
            if af < best_af:
                best_af = af
            if objective == "delay":
                primary = cost
                tie = (gate.area, float(len(leaf_delays)))
            else:
                primary = gate.area
                for leaf_id, _ in leaf_delays:
                    leaf = binding[leaf_id]
                    if boundary_uids is not None and leaf.uid in boundary_uids:
                        continue
                    if leaf.is_pi:
                        continue
                    primary += arrival[leaf.uid]
                tie = (cost, float(len(leaf_delays)))
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
        patterns=patterns,
        match_stats=matcher.stats.as_dict(),
    )
