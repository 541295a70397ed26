"""Delay/area Pareto fronts over campaign rows, with stable emission.

A front is the non-dominated subset of the (delay, area) points one
circuit collected across library variants and delay targets.  Every
reduction here is a pure function of the row *values* — points are
deduplicated and sorted by explicit keys, floats are never formatted
through locale-dependent paths — so the CSV/JSON emission is
byte-identical however the campaign was scheduled, which the pareto
smoke test and the ``pareto`` case of ``benchmarks/bench_ab.py``
assert.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.perf.campaign import CampaignRow

__all__ = [
    "ParetoPoint",
    "pareto_front",
    "fronts_by_circuit",
    "front_csv",
    "front_json",
]

#: Version tag of the JSON emission format.
FRONT_FORMAT = "repro-pareto/1"


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate (delay, area) point of a circuit's trade-off chart.

    Attributes:
        circuit: source network name.
        delay: mapped (or recovered) delay of the point's cover.
        area: total cell area of the cover.
        library: the library variant spec that produced it.
        target: absolute delay budget of a recover-mode row (0.0 for
            plain mapping rows).
        label: the campaign job label (ties the point to its journal
            row and certificate).
        cover: content digest of the mapped netlist.
    """

    circuit: str
    delay: float
    area: float
    library: str
    target: float
    label: str
    cover: str

    @classmethod
    def from_row(cls, row: CampaignRow) -> "ParetoPoint":
        return cls(
            circuit=row.circuit,
            delay=row.delay,
            area=row.area,
            library=row.library,
            target=row.target,
            label=row.label,
            cover=row.cover,
        )

    def identity(self) -> tuple:
        """Deterministic tie-break key among coordinate-equal points."""
        return (self.library, self.target, self.label)


def pareto_front(points: Iterable[ParetoPoint]) -> List[ParetoPoint]:
    """The non-dominated subset, sorted by ascending delay.

    A point is dominated when another point is no worse in both delay
    and area and strictly better in at least one.  Coordinate-equal
    points collapse to the one with the smallest :meth:`identity` key,
    so the front is a function of the point *set*, not its order.
    """
    by_coord: Dict[tuple, ParetoPoint] = {}
    for point in points:
        coord = (point.delay, point.area)
        held = by_coord.get(coord)
        if held is None or point.identity() < held.identity():
            by_coord[coord] = point
    front: List[ParetoPoint] = []
    best_area = math.inf
    for point in sorted(
        by_coord.values(), key=lambda p: (p.delay, p.area) + p.identity()
    ):
        if point.area < best_area:
            front.append(point)
            best_area = point.area
    return front


def fronts_by_circuit(
    rows: Iterable[object],
) -> Dict[str, List[ParetoPoint]]:
    """Group campaign rows per circuit and reduce each to its front.

    Failure rows (``row.failed``) are skipped — a failed job simply
    contributes no point.
    """
    pools: Dict[str, List[ParetoPoint]] = {}
    for row in rows:
        if getattr(row, "failed", False) or not isinstance(row, CampaignRow):
            continue
        pools.setdefault(row.circuit, []).append(ParetoPoint.from_row(row))
    return {
        circuit: pareto_front(points)
        for circuit, points in sorted(pools.items())
    }


def _fmt(value: float) -> str:
    """Stable float rendering (shortest round-trip repr)."""
    return repr(float(value))


def front_csv(fronts: Dict[str, List[ParetoPoint]]) -> str:
    """Deterministic CSV: one row per front point, circuits sorted."""
    lines = ["circuit,delay,area,library,target,label,cover"]
    for circuit in sorted(fronts):
        for p in fronts[circuit]:
            lines.append(
                f"{p.circuit},{_fmt(p.delay)},{_fmt(p.area)},{p.library},"
                f"{_fmt(p.target)},{p.label},{p.cover}"
            )
    return "\n".join(lines) + "\n"


def front_json(fronts: Dict[str, List[ParetoPoint]]) -> str:
    """Deterministic JSON document (sorted keys, fixed indent)."""
    payload = {
        "format": FRONT_FORMAT,
        "circuits": {
            circuit: [
                {
                    "delay": p.delay,
                    "area": p.area,
                    "library": p.library,
                    "target": p.target,
                    "label": p.label,
                    "cover": p.cover,
                }
                for p in points
            ]
            for circuit, points in sorted(fronts.items())
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
