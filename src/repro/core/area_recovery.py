"""Area recovery under a delay target (the paper's concluding extension).

The paper's mapper always instantiates the fastest match at every node,
"no matter how critical the node is", and its conclusions point to Cong &
Ding's area-delay trade-off work as the fix: off-critical subnetworks can
use slower-but-smaller matches without hurting the cycle time.

:func:`recover_area` implements that pass for library mapping: it rebuilds
the cover from the primary outputs, propagating *required times*; at each
needed node it picks, among all matches whose arrival meets the node's
required time, the one with the smallest estimated area (gate area plus
the area-flow of leaves not otherwise needed).  Because every node's
optimal label is a lower bound on its required time, a feasible match
always exists and the delay target is met by construction.

:func:`recover_area_result` is the richer entry point used by the
campaign engine, the Pareto tuner and the ``F010`` fuzz oracle: it keeps
the per-node match *selection* alongside the netlist, so the recovered
cover can be replayed and certified by
:func:`repro.check.certify_mapping` (``selection=`` + ``target=``).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.cover import build_cover
from repro.core.labeling import Labels
from repro.core.match import Match, Matcher, MatchKind
from repro.core.netlist import MappedNetlist
from repro.errors import MappingError
from repro.library.patterns import PatternSet

__all__ = ["RecoveryResult", "recover_area", "recover_area_result"]

_EPS = 1e-9


@dataclass
class RecoveryResult:
    """One area-recovery run, replayable and certifiable.

    Attributes:
        netlist: the recovered cover (or the plain delay-optimal cover
            when the heuristic lost the "never worse" comparison).
        labels: the delay-objective labeling the recovery ran over.
        selection: the per-node match override that built ``netlist``;
            ``None`` when the plain cover won (replay from
            ``labels.best`` reproduces it).
        target: the delay budget the cover is guaranteed to meet.
        delay: STA delay of ``netlist`` (<= ``target``).
        area: cell area of ``netlist``.
        plain_area: cell area of the plain delay-optimal cover — the
            baseline of the "never worse" guarantee.
        cpu_seconds: wall-clock of the recovery pass.
    """

    netlist: MappedNetlist
    labels: Labels
    selection: Optional[Dict[int, Match]]
    target: float
    delay: float
    area: float
    plain_area: float
    cpu_seconds: float

    @property
    def saving(self) -> float:
        """Fractional area saved vs the plain delay-optimal cover."""
        if self.plain_area <= 0:
            return 0.0
        return (self.plain_area - self.area) / self.plain_area


def recover_area_result(
    labels: Labels,
    patterns: PatternSet,
    kind: MatchKind = MatchKind.STANDARD,
    target: Optional[float] = None,
    name: Optional[str] = None,
) -> RecoveryResult:
    """Area recovery keeping the selection for replay/certification.

    Same contract as :func:`recover_area`, but the returned
    :class:`RecoveryResult` records the per-node selection, the plain
    cover's area and the STA delay, so callers (campaign workers, the
    fuzz battery) can certify the cover independently.
    """
    subject = labels.subject
    if labels.objective != "delay":
        raise MappingError("area recovery needs a delay-objective labeling")
    optimal = labels.max_arrival
    if target is None:
        target = optimal
    if target < optimal - _EPS:
        raise MappingError(
            f"target {target:g} is below the optimal delay {optimal:g}"
        )

    started = time.perf_counter()
    matcher = Matcher(patterns, kind)
    matcher.attach(subject)
    arrival = labels.arrival
    area_flow = labels.area_flow

    required: Dict[int, float] = {}
    for _, driver in subject.pos:
        required[driver.uid] = min(required.get(driver.uid, math.inf), target)

    selection: Dict[int, Match] = {}
    # Process needed nodes top-down (max-heap on uid works because uids
    # are topological: all of a node's consumers have larger uids, so by
    # the time we pop a node every consumer has tightened its required
    # time).  The pop order is fully deterministic — uids are unique
    # ints, every pushed leaf's uid is smaller than the node that pushed
    # it, and ``in_heap`` blocks duplicates — so the heap yields nodes
    # in strictly decreasing uid order.  The heuristic ``estimate``
    # below depends on which nodes are already in ``selection`` and is
    # therefore deterministic too: it sees exactly the nodes with a
    # larger uid that the cover walk needed.
    heap: List[int] = [-uid for uid in required]
    heapq.heapify(heap)
    in_heap = set(required)

    while heap:
        uid = -heapq.heappop(heap)
        in_heap.discard(uid)
        node = subject.nodes[uid]
        if node.is_pi:
            continue
        budget = required[uid]
        best_match: Optional[Match] = None
        best_cost: Tuple[float, float] = (math.inf, math.inf)
        for match in matcher.matches_at(node):
            worst = 0.0
            estimate = match.gate.area
            feasible = True
            for leaf_id, delay in match.pattern.leaf_delays:
                leaf = match.binding[leaf_id]
                t = arrival[leaf.uid] + delay
                if t > budget + _EPS:
                    feasible = False
                    break
                worst = max(worst, t)
                if not leaf.is_pi and leaf.uid not in selection:
                    estimate += area_flow[leaf.uid]
            if not feasible:
                continue
            # Ties on (estimate, worst) keep the first match in the
            # matcher's enumeration order, which is deterministic.
            cost = (estimate, worst)
            if cost < best_cost:
                best_cost = cost
                best_match = match
        if best_match is None:
            # Fall back to the delay-optimal match (always feasible:
            # every node's label is a lower bound on its required time).
            best_match = labels.best[uid]
            if best_match is None:
                raise MappingError(
                    f"[M004] area recovery has no match at subject node "
                    f"{uid} ({node!r}): the labeling recorded no best "
                    f"match and no feasible alternative exists under the "
                    f"required time {budget:g}"
                )
        selection[uid] = best_match
        for leaf_id, delay in best_match.pattern.leaf_delays:
            leaf = best_match.binding[leaf_id]
            if leaf.is_pi:
                continue
            slack = budget - delay
            if slack < required.get(leaf.uid, math.inf) - _EPS:
                required[leaf.uid] = slack
            if leaf.uid not in in_heap and leaf.uid not in selection:
                heapq.heappush(heap, -leaf.uid)
                in_heap.add(leaf.uid)

    recovered = build_cover(
        labels, name=name or f"{subject.name}_recovered", selection=selection
    )
    # The per-node choice is guided by a heuristic area estimate, so on
    # rare structures it can lose to the plain delay-optimal cover (which
    # shares larger matches).  Guarantee "never worse": keep the smaller.
    plain = build_cover(labels, name=recovered.name)
    plain_area = plain.area()

    from repro.timing.sta import analyze  # local import to avoid a cycle

    if plain_area < recovered.area():
        return RecoveryResult(
            netlist=plain,
            labels=labels,
            selection=None,
            target=target,
            delay=analyze(plain).delay,
            area=plain_area,
            plain_area=plain_area,
            cpu_seconds=time.perf_counter() - started,
        )
    return RecoveryResult(
        netlist=recovered,
        labels=labels,
        selection=selection,
        target=target,
        delay=analyze(recovered).delay,
        area=recovered.area(),
        plain_area=plain_area,
        cpu_seconds=time.perf_counter() - started,
    )


def recover_area(
    labels: Labels,
    patterns: PatternSet,
    kind: MatchKind = MatchKind.STANDARD,
    target: Optional[float] = None,
    name: Optional[str] = None,
) -> MappedNetlist:
    """Build a cover that meets ``target`` delay with reduced area.

    Args:
        labels: a *delay-objective* labeling of the subject graph.
        patterns: the pattern set used for labeling.
        kind: match class (must not be stricter than the labeling's).
        target: delay budget; defaults to the optimal delay
            (``labels.max_arrival``), i.e. recover area at zero delay cost.
        name: netlist name.

    Returns:
        A mapped netlist whose STA delay is <= ``target`` and whose area
        is never above the plain delay-optimal cover's.
    """
    return recover_area_result(
        labels, patterns, kind=kind, target=target, name=name
    ).netlist
