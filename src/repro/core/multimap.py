"""Mapping over multiple decompositions (Lehman et al., Section 4).

The paper observes that optimality holds only *with respect to one
subject graph*, chosen blindly among many decompositions, and cites
Lehman et al.'s mapping graphs — which encode many decompositions at once
— as the remedy, noting "the two techniques can be combined".

This module provides the lightweight version of that combination: map the
circuit once per decomposition style and stitch a composite netlist that
implements every primary output with its *fastest* cover.  Each output
cone comes from a single subject graph, so the result is a sound netlist
(verified by simulation) whose per-output delay is the minimum over the
decompositions — a lower bound on what a full choice-node mapping graph
could be asked to beat.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Union

from repro.core.dag_mapper import map_dag
from repro.core.match import MatchKind
from repro.core.netlist import MappedNetlist
from repro.core.result import MappingResult
from repro.errors import MappingError
from repro.library.gate import GateLibrary
from repro.library.patterns import PatternSet
from repro.network.bnet import BooleanNetwork
from repro.network.decompose import STYLES, decompose_network

__all__ = ["MultiMapResult", "map_multi_decomposition"]


@dataclass
class MultiMapResult:
    """Composite mapping over several decomposition styles."""

    netlist: MappedNetlist
    per_style: Dict[str, MappingResult]
    po_style: Dict[str, str]
    delay: float
    area: float
    cpu_seconds: float

    def improvement_over(self, style: str) -> float:
        """Relative delay gain of the composite vs a single style."""
        base = self.per_style[style].delay
        if base <= 0:
            return 0.0
        return (base - self.delay) / base

    def __repr__(self) -> str:
        styles = ", ".join(
            f"{s}={r.delay:.3f}" for s, r in self.per_style.items()
        )
        return (
            f"MultiMapResult(delay={self.delay:.3f} vs [{styles}], "
            f"area={self.area:.1f})"
        )


def map_multi_decomposition(
    net: BooleanNetwork,
    library: Union[GateLibrary, PatternSet],
    styles: Sequence[str] = STYLES,
    kind: MatchKind = MatchKind.STANDARD,
    max_variants: int = 8,
) -> MultiMapResult:
    """Map under every decomposition style; stitch the best cover per PO.

    Internal signals are namespaced per style, so the composite never
    aliases nets from different subject graphs; primary inputs are shared
    and each PO is driven by the style that reached it fastest.
    """
    if not styles:
        raise MappingError("need at least one decomposition style")
    patterns = PatternSet.of(library, max_variants)
    start = time.perf_counter()
    per_style: Dict[str, MappingResult] = {}
    po_arrivals: Dict[str, Dict[str, float]] = {}
    for style in styles:
        subject = decompose_network(net, style=style)
        result = map_dag(subject, patterns, kind=kind)
        per_style[style] = result
        po_arrivals[style] = dict(result.labels.po_arrival)

    po_names = net.combinational_outputs()
    po_style: Dict[str, str] = {}
    for po in po_names:
        # A style that never produced this output must not win the
        # per-PO selection: a missing arrival is +inf, not 0.0 (the
        # old default silently elected non-covering decompositions).
        po_style[po] = min(
            styles, key=lambda s: po_arrivals[s].get(po, math.inf)
        )
        if po not in po_arrivals[po_style[po]]:
            raise MappingError(
                f"[M003] no decomposition style drives primary output "
                f"{po!r} (styles tried: {', '.join(styles)})"
            )

    composite = MappedNetlist(f"{net.name}_multimap")
    for pi in net.combinational_inputs():
        composite.add_pi(pi)

    def qualified(style: str, signal: str) -> str:
        if composite.is_pi(signal):
            return signal
        return f"{style}:{signal}"

    # Emit, per style, only the gates in the cones of the POs that style
    # won, namespacing internal nets.
    needed_pos: Dict[str, List[str]] = {s: [] for s in styles}
    for po, style in po_style.items():
        needed_pos[style].append(po)
    for style in styles:
        if not needed_pos[style]:
            continue
        netlist = per_style[style].netlist
        po_signal = dict(netlist.pos)
        keep: Set[int] = set()
        stack = [po_signal[po] for po in needed_pos[style]]
        driver = {g.output: g for g in netlist.gates}
        while stack:
            signal = stack.pop()
            if signal in keep or composite.is_pi(signal):
                continue
            keep.add(signal)
            gate = driver.get(signal)
            if gate is not None:
                stack.extend(gate.inputs)
        for gate in netlist.topological_gates():
            if gate.output not in keep:
                continue
            composite.add_gate(
                gate.gate,
                [qualified(style, s) for s in gate.inputs],
                qualified(style, gate.output),
            )
        for po in needed_pos[style]:
            composite.add_po(po, qualified(style, po_signal[po]))
    composite.check()

    # Every chosen style is guaranteed to carry its PO's arrival by the
    # selection loop above, so index directly: a regression here should
    # raise, never silently report a 0.0 arrival.
    delay = max(
        (po_arrivals[po_style[po]][po] for po in po_names),
        default=0.0,
    )
    return MultiMapResult(
        netlist=composite,
        per_style=per_style,
        po_style=po_style,
        delay=delay,
        area=composite.area(),
        cpu_seconds=time.perf_counter() - start,
    )
