"""Pan-Liu style sequential labeling: mapping coupled with retiming.

Section 4 of the paper describes the key ingredient of optimal sequential
mapping: *"a polynomial-time decision procedure which determines whether
there exists a mapping whose cycle time is less than or equal to a given
value.  This procedure is used repeatedly to guide a binary search...
The core of this decision procedure is again a labeling scheme quite
similar to the one used in FlowMap...  This step of examining all k-cuts
can be replaced by pattern matching."*

This module implements that procedure for library mapping.  Sequential
arrival labels (l-values) are computed over the subject graph plus the
latch edges: within the combinational core,

    l(v) = min over matches m at v of max over leaves u (l(u) + d(m, u)),

and across a latch edge ``l(q) = l(d) - phi`` — crossing a register buys
one clock period, which is exactly what retiming exploits.  For target
period ``phi`` the labels are relaxed Bellman-Ford style; they converge
within ``#latches + 1`` sweeps iff a mapping + retiming with cycle time
``phi`` exists (an increasing label on a register cycle certifies
infeasibility).  A binary search then finds the minimum feasible period.

Scope note (documented in DESIGN.md): matches never span a latch
boundary of the *subject graph* — the full Pan-Liu procedure also
explores matches across registers by implicit retiming of the cone.  The
coupled label is therefore optimal over {mapping restricted to the
combinational core} x {all retimings}, which already dominates the
retime-map-retime pipeline of :mod:`repro.sequential.seqmap` (proved by
the test suite's ``phi* <= retimed_period`` checks).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.match import Matcher, MatchKind
from repro.errors import MappingError, RetimingError
from repro.library.gate import GateLibrary
from repro.library.patterns import PatternSet
from repro.network.bnet import BooleanNetwork
from repro.network.decompose import decompose_network
from repro.network.subject import SubjectGraph

__all__ = ["SequentialLabels", "feasible_period", "min_sequential_period"]

_EPS = 1e-6


@dataclass
class SequentialLabels:
    """Converged l-values for one feasible target period."""

    phi: float
    arrival: Dict[int, float]
    rounds: int

    def max_po_arrival(self) -> float:
        return max(self.arrival.values(), default=0.0)


class _SequentialLabeler:
    """Shared state for repeated feasibility queries on one circuit."""

    def __init__(
        self,
        net: BooleanNetwork,
        patterns: PatternSet,
        kind: MatchKind = MatchKind.STANDARD,
    ):
        self.net = net
        self.subject: SubjectGraph = decompose_network(net)
        self.matcher = Matcher(patterns, kind)
        self.matcher.attach(self.subject)
        #: matches cached per internal node uid.
        self.matches = {}
        for node in self.subject.topological():
            if not node.is_pi:
                matches = self.matcher.matches_at(node)
                if not matches:
                    raise MappingError(f"no match at {node!r}")
                self.matches[node.uid] = matches
        #: latch edges as (driver po-name, pseudo-pi name) with weights,
        #: resolving pure latch chains into a single weighted edge.
        self.latch_edges: List[Tuple[str, str, int]] = []
        latch_out = {l.output: l.input for l in net.latches}
        for latch in net.latches:
            comb = latch.input
            weight = 1
            seen = set()
            while comb in latch_out:
                if comb in seen:
                    raise RetimingError("pure register loop without logic")
                seen.add(comb)
                comb = latch_out[comb]
                weight += 1
            self.latch_edges.append((comb, latch.output, weight))
        self.real_pis = [pi for pi in net.pis]
        self.real_pos = [po for po in net.pos]
        self._po_driver = {name: driver for name, driver in self.subject.pos}
        self._pi_node = {pi.name: pi for pi in self.subject.pis}
        self.max_pin_delay = max(
            (m.gate.max_pin_delay() for ms in self.matches.values() for m in ms),
            default=0.0,
        )
        self.min_pin_delay = min(
            (m.gate.max_pin_delay() for ms in self.matches.values() for m in ms),
            default=0.0,
        )

    def _sweep(self, arrival: List[float], phi: float) -> None:
        """One forward relaxation of the combinational labels."""
        for node in self.subject.topological():
            if node.is_pi:
                continue
            best = math.inf
            for match in self.matches[node.uid]:
                binding = match.binding
                worst = -math.inf
                for leaf_id, delay in match.pattern.leaf_delays:
                    t = arrival[binding[leaf_id].uid] + delay
                    if t > worst:
                        worst = t
                if worst < best:
                    best = worst
            arrival[node.uid] = best

    def check(self, phi: float) -> Optional[SequentialLabels]:
        """Decision procedure: labels for period ``phi`` or None."""
        n = len(self.subject.nodes)
        arrival = [0.0] * n
        # Real PIs arrive at 0; latch outputs start optimistic (very
        # early) and are raised by relaxation.
        low = -(len(self.net.latches) + 1) * (phi + 1.0) - 1.0
        for name, node in self._pi_node.items():
            arrival[node.uid] = 0.0 if name in set(self.real_pis) else low

        rounds = len(self.net.latches) + 2
        for round_idx in range(rounds):
            self._sweep(arrival, phi)
            changed = False
            for comb, pseudo_pi, weight in self.latch_edges:
                driver = self._po_driver[comb]
                value = arrival[driver.uid] - phi * weight
                target = self._pi_node[pseudo_pi]
                if value > arrival[target.uid] + _EPS:
                    arrival[target.uid] = value
                    changed = True
            if not changed:
                break
        else:
            # Still increasing after the Bellman-Ford bound: a register
            # cycle accumulates delay faster than phi pays for it.
            return None

        # Host constraint: real outputs must meet the period.  Latch
        # inputs carry no such bound — an l-value above phi at a register
        # input simply means retiming will move that register backward
        # along the path (the -phi latch edges account for it), which is
        # exactly the freedom the Pan-Liu formulation encodes.
        for po in self.real_pos:
            driver = self._po_driver.get(po)
            if driver is None:
                continue
            if arrival[driver.uid] > phi + _EPS:
                return None
        result = {i: arrival[i] for i in range(n)}
        return SequentialLabels(phi=phi, arrival=result, rounds=rounds)


def feasible_period(
    net: BooleanNetwork,
    library: Union[GateLibrary, PatternSet],
    phi: float,
    kind: MatchKind = MatchKind.STANDARD,
    max_variants: int = 8,
) -> Optional[SequentialLabels]:
    """The Section 4 decision procedure for one target cycle time."""
    patterns = PatternSet.of(library, max_variants)
    return _SequentialLabeler(net, patterns, kind).check(phi)


def min_sequential_period(
    net: BooleanNetwork,
    library: Union[GateLibrary, PatternSet],
    kind: MatchKind = MatchKind.STANDARD,
    max_variants: int = 8,
    tolerance: float = 1e-3,
) -> Tuple[float, SequentialLabels]:
    """Binary search over the decision procedure (the paper's Section 4).

    Returns the minimum cycle time achievable by optimal technology
    mapping of the combinational core combined with retiming, and the
    labels certifying it.
    """
    patterns = PatternSet.of(library, max_variants)
    labeler = _SequentialLabeler(net, patterns, kind)

    low = max(labeler.min_pin_delay, tolerance)
    # Upper bound: the purely combinational optimum of the core is always
    # feasible (registers stay at the boundary).
    high = low
    probe = labeler.check(low)
    if probe is not None:
        return low, probe
    high = max(low * 2, 1.0)
    best: Optional[SequentialLabels] = None
    for _ in range(60):
        best = labeler.check(high)
        if best is not None:
            break
        high *= 2
    if best is None:
        raise MappingError("no feasible cycle time found (diverging search)")
    while high - low > tolerance:
        mid = (low + high) / 2
        labels = labeler.check(mid)
        if labels is not None:
            best = labels
            high = mid
        else:
            low = mid
    return high, best
