"""Bench smoke for the cut-enumeration matching engine.

Two entry points:

* ``python benchmarks/bench_cuts.py`` — the CI smoke.  Maps the
  Table-2/3 circuits with the structural and the cut matching engines on
  the *reference* (uncached) matcher path, sweeping library size
  (lib2 -> 44-1 -> 44-3 -> sized lib2), asserts both engines produce
  identical delay and area everywhere, asserts the cut engine is at
  least ``--require-speedup`` times faster on the 625-gate 44-3 library
  (where pattern pruning pays; on small libraries the filter overhead
  dominates and the honest slowdown is reported, not gated), asserts a
  repeated 44-3 table build is fully served by the NPN canonicalisation
  cache, and writes everything to ``BENCH_cuts.json``.
* ``pytest benchmarks/bench_cuts.py`` — the same engine comparison as
  pytest-benchmark cases (one circuit on 44-3, so the suite stays quick).
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.bench.suite import TABLE23_NAMES, build_subject
from repro.core.dag_mapper import map_dag
from repro.library.builtin import lib2_like, lib2_sized, lib44_1, lib44_3
from repro.library.npn_table import build_npn_table, table_for
from repro.library.patterns import PatternSet
from repro.network.npn import NPN_STATS
from repro.perf.benchjson import result_record, write_bench_json

_EPS = 1e-9

#: The library sweep: (label, factory, max_variants).  Ordered by
#: pattern count — the cut filter's win grows with library size.
_SWEEP: List[Tuple[str, object, int]] = [
    ("lib2", lib2_like, 8),
    ("44-1", lib44_1, 8),
    ("44-3", lib44_3, 4),
    ("lib2-sized", lambda: lib2_sized((1, 2, 4)), 8),
]

#: The library the speedup gate applies to.
_GATED_LIBRARY = "44-3"


def _bench_library(
    label: str,
    patterns: PatternSet,
    names: Sequence[str],
    verbose: bool,
) -> Dict[str, object]:
    """Both engines over ``names`` on the reference path; one record."""
    t0 = time.perf_counter()
    table = table_for(patterns, use_cache=False)
    table_build_s = time.perf_counter() - t0
    records: List[dict] = []
    total_structural = 0.0
    total_cuts = 0.0
    for name in names:
        _, subject = build_subject(name)
        t0 = time.perf_counter()
        structural = map_dag(subject, patterns, cache=False)
        t1 = time.perf_counter()
        cuts = map_dag(subject, patterns, cache=False, engine="cuts")
        t2 = time.perf_counter()
        if abs(cuts.delay - structural.delay) > _EPS:
            raise AssertionError(
                f"{label}/{name}: cut-engine delay {cuts.delay} != "
                f"structural {structural.delay}"
            )
        if abs(cuts.area - structural.area) > _EPS:
            raise AssertionError(
                f"{label}/{name}: cut-engine area {cuts.area} != "
                f"structural {structural.area}"
            )
        total_structural += t1 - t0
        total_cuts += t2 - t1
        record = result_record(name, subject.n_gates, cuts, wall_s=t2 - t1)
        record["structural_wall_s"] = round(t1 - t0, 4)
        records.append(record)
        if verbose:
            print(
                f"{label:10s} {name:8s} structural {t1 - t0:6.2f}s  "
                f"cuts {t2 - t1:6.2f}s  delay {cuts.delay:g}  "
                f"area {cuts.area:g}"
            )
    speedup = total_structural / max(total_cuts + table_build_s, 1e-9)
    if verbose:
        print(
            f"{label:10s} TOTAL    structural {total_structural:6.2f}s  "
            f"cuts {total_cuts:6.2f}s (+{table_build_s:.2f}s table)  "
            f"speedup {speedup:.2f}x"
        )
    return {
        "library": label,
        "n_patterns": len(patterns.patterns),
        "npn_classes": len(table.cell_classes),
        "table_build_s": round(table_build_s, 4),
        "structural_total_s": round(total_structural, 4),
        "cuts_total_s": round(total_cuts, 4),
        "speedup": round(speedup, 3),
        "circuits": records,
    }


def _assert_npn_cache_warm(patterns: PatternSet) -> Dict[str, int]:
    """Satellite gate: a repeat table build must be all NPN-cache hits."""
    hits0, misses0 = NPN_STATS.hits, NPN_STATS.misses
    build_npn_table(patterns, use_cache=False)
    hits = NPN_STATS.hits - hits0
    misses = NPN_STATS.misses - misses0
    if misses != 0:
        raise AssertionError(
            f"repeat 44-3 table build missed the NPN cache {misses} times"
        )
    if hits == 0:
        raise AssertionError("repeat 44-3 table build never hit the NPN cache")
    return {"repeat_build_hits": hits, "repeat_build_misses": misses}


def run_smoke(
    names: Sequence[str] = tuple(TABLE23_NAMES),
    out: Optional[str] = "BENCH_cuts.json",
    require_speedup: float = 2.0,
    fast: bool = False,
    verbose: bool = True,
) -> float:
    """Engine sweep over the library sizes; returns the 44-3 speedup."""
    sweep = [e for e in _SWEEP if not fast or e[0] in ("lib2", _GATED_LIBRARY)]
    libraries: List[Dict[str, object]] = []
    gated_speedup = 0.0
    npn_cache: Dict[str, int] = {}
    for label, factory, max_variants in sweep:
        patterns = PatternSet(factory(), max_variants=max_variants)
        entry = _bench_library(label, patterns, names, verbose)
        entry["max_variants"] = max_variants
        libraries.append(entry)
        if label == _GATED_LIBRARY:
            gated_speedup = float(entry["speedup"])  # type: ignore[arg-type]
            npn_cache = _assert_npn_cache_warm(patterns)
    if out:
        write_bench_json(
            out,
            library="sweep",
            circuits=[],
            max_variants=0,
            extra={
                "speedup_cuts_vs_structural": round(gated_speedup, 3),
                "engines": ["structural", "cuts"],
                "gated_library": _GATED_LIBRARY,
                "require_speedup": require_speedup,
                "npn_cache": npn_cache,
                "libraries": libraries,
            },
        )
        if verbose:
            print(f"written {out}")
    if gated_speedup < require_speedup:
        raise AssertionError(
            f"cut engine only {gated_speedup:.2f}x faster on "
            f"{_GATED_LIBRARY}; require >= {require_speedup:g}x"
        )
    return gated_speedup


# ---------------------------------------------------------------- pytest


@pytest.mark.parametrize("engine", ["structural", "cuts"])
def test_engine_c2670_44_3(benchmark, engine, lib44_3_patterns, get_subject):
    subject = get_subject("C2670s")
    if engine == "cuts":
        table_for(lib44_3_patterns)  # amortised once per library in prod
    result = benchmark.pedantic(
        lambda: map_dag(subject, lib44_3_patterns, cache=False, engine=engine),
        rounds=1,
        iterations=1,
    )
    reference = map_dag(subject, lib44_3_patterns, cache=False)
    assert abs(result.delay - reference.delay) <= _EPS
    assert abs(result.area - reference.area) <= _EPS
    benchmark.extra_info.update(
        {"delay": round(result.delay, 3), "area": round(result.area, 1)}
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_cuts.json",
                        help="report path ('' to skip writing)")
    parser.add_argument("--fast", action="store_true",
                        help="only lib2 and 44-3, only C2670s and C6288s")
    parser.add_argument("--require-speedup", type=float, default=2.0)
    args = parser.parse_args(argv)
    names = ["C2670s", "C6288s"] if args.fast else TABLE23_NAMES
    run_smoke(
        names=names,
        out=args.out or None,
        require_speedup=args.require_speedup,
        fast=args.fast,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
