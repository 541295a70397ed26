"""Machine-readable table report (``repro-map table --bench-json``).

Top-level run metadata (library, match kind, jobs, pattern variants,
wall time) plus one record per table row carrying both mappers' wall
times, results and the :mod:`repro.perf` instrumentation counters.
"""

from __future__ import annotations

import json
import platform
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.harness.experiment import ComparisonRow
    from repro.perf.parallel import CellFailure

__all__ = ["SCHEMA", "rows_to_records", "write_bench_json"]

SCHEMA = "repro-bench-mapper/1"


def rows_to_records(
    rows: Sequence[Union["CellFailure", "ComparisonRow"]],
) -> List[Dict[str, object]]:
    """Flatten :class:`~repro.harness.experiment.ComparisonRow` objects.

    :class:`~repro.perf.parallel.CellFailure` rows from the
    fault-tolerant runner become ``{"failed": true, ...}`` records so a
    bench report of a degraded run still accounts for every cell.
    """
    records: List[Dict[str, object]] = []
    for row in rows:
        if getattr(row, "failed", False):
            record = dict(row.as_dict())
            record["failed"] = True
            records.append(record)
            continue
        records.append(
            {
                "circuit": row.circuit,
                "subject_gates": row.subject_gates,
                "tree_wall_s": round(row.tree_cpu, 4),
                "dag_wall_s": round(row.dag_cpu, 4),
                "wall_s": round(row.tree_cpu + row.dag_cpu, 4),
                "tree_delay": row.tree_delay,
                "dag_delay": row.dag_delay,
                "tree_area": row.tree_area,
                "dag_area": row.dag_area,
                "verified": row.verified,
                "tree_counters": row.tree_counters,
                "dag_counters": row.dag_counters,
                "sim_counters": getattr(row, "sim_counters", None),
            }
        )
    return records


def write_bench_json(
    path: str,
    library: str,
    circuits: List[Dict[str, object]],
    max_variants: int,
    kind: str = "standard",
    jobs: int = 1,
    total_wall_s: Optional[float] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Write the report; returns the payload that was written."""
    payload: Dict[str, object] = {
        "schema": SCHEMA,
        # Run metadata, never byte-compared against other runs.
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),  # repro: allow[S102]
        "python": platform.python_version(),
        "machine": platform.machine(),
        "library": library,
        "match_kind": kind,
        "jobs": jobs,
        "max_variants": max_variants,
    }
    if total_wall_s is not None:
        payload["total_wall_s"] = round(total_wall_s, 4)
    if extra:
        payload.update(extra)
    payload["circuits"] = circuits
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload
