"""Bench smoke for the streaming campaign engine's warm-worker payoff.

Two entry points:

* ``python benchmarks/bench_throughput.py`` — the CI smoke.  Streams a
  seeded mapping ensemble (seeds rotating over lib2 -> 44-1 -> 44-3, so
  consecutive jobs need *different* cache bundles) through the campaign
  engine twice: once over the warm long-lived pool, once with per-job
  process dispatch (``warm=False``: a fresh worker and a fresh pattern
  build for every job — what a naive ``Pool.map`` per job costs).
  Asserts the two runs produce byte-identical stable rows, asserts the
  warm pool clears ``--require-speedup`` on jobs/s, and writes both
  runs' throughput counters (jobs/s, p50/p95/p99 latency, warm-cache
  hits/misses, shard occupancy) to ``BENCH_throughput.json``.
* ``pytest benchmarks/bench_throughput.py`` — a quick warm-campaign
  case on the mini library as a pytest-benchmark entry.

The 44-3 library is the load-bearing member of the rotation: its 625
gates cost ~0.9s of pattern decomposition per process, so the cold
baseline pays that on every third job while the warm pool pays it once
per worker.
"""

from __future__ import annotations

import argparse
from typing import Dict, Optional, Sequence

import pytest

from repro.perf.benchjson import write_bench_json
from repro.perf.campaign import run_mapping_campaign, seed_ensemble
from repro.perf.counters import RunStats
from repro.perf.parallel import default_jobs

#: Library rotation for the ensemble; 44-3 makes cold dispatch honest.
_LIBRARIES = ("lib2", "44-1", "44-3")

#: Jobs in the committed run / the CI ``--fast`` smoke.
_FULL_JOBS = 500
_FAST_JOBS = 120


def _run(label: str, jobs: list, workers: int, warm: bool,
         verbose: bool) -> tuple:
    # large_weight routes the 8x circuits to a dedicated shard whenever
    # the pool has >= 2 workers (single-worker runs ignore it).
    outcome = run_mapping_campaign(jobs, workers=workers, warm=warm,
                                   large_weight=50)
    stats = outcome.stats
    if not outcome.ok:
        failures = [r for r in outcome.rows if getattr(r, "failed", False)]
        raise AssertionError(f"{label} run had failures: {failures[:3]}")
    if verbose:
        print(
            f"{label:5s} {stats.cells_ok:4d} jobs in {stats.wall_s:7.2f}s  "
            f"{stats.jobs_per_s:7.1f} jobs/s  p50 {stats.p50_s * 1e3:6.1f}ms  "
            f"p99 {stats.p99_s * 1e3:6.1f}ms  warm {stats.warm_hits}/"
            f"{stats.warm_hits + stats.warm_misses}  "
            f"spawned {stats.workers_spawned}"
        )
    return outcome, stats


def _stats_record(stats: RunStats) -> Dict[str, object]:
    keep = (
        "cells_ok", "cells_failed", "wall_s", "jobs_per_s",
        "p50_s", "p95_s", "p99_s", "warm_hits", "warm_misses",
        "shard_small_jobs", "shard_large_jobs", "shard_steals",
        "workers_spawned", "workers_recycled", "retries", "crashes",
    )
    full = stats.as_dict()
    return {name: full[name] for name in keep}


def run_smoke(
    n_jobs: int = _FULL_JOBS,
    out: Optional[str] = "BENCH_throughput.json",
    require_speedup: float = 3.0,
    fast: bool = False,
    verbose: bool = True,
) -> float:
    """Warm-vs-cold campaign throughput; returns the jobs/s speedup."""
    if fast:
        n_jobs = min(n_jobs, _FAST_JOBS)
    workers = max(1, min(4, default_jobs()))
    ensemble = seed_ensemble(
        range(n_jobs),
        _LIBRARIES,
        nodes=12,
        inputs=5,
        max_variants=4,
        large_every=50,
    )
    if verbose:
        print(
            f"{len(ensemble)} jobs over {workers} workers, libraries "
            f"{'/'.join(_LIBRARIES)} (every 50th job 8x larger)"
        )
    warm_outcome, warm = _run("warm", ensemble, workers, True, verbose)
    cold_outcome, cold = _run("cold", ensemble, workers, False, verbose)
    for a, b in zip(warm_outcome.rows, cold_outcome.rows):
        if a.stable() != b.stable():
            raise AssertionError(
                f"warm/cold rows diverge for {a.label}: "
                f"{a.stable()} != {b.stable()}"
            )
    speedup = warm.jobs_per_s / max(cold.jobs_per_s, 1e-9)
    if verbose:
        print(f"warm pool speedup {speedup:.2f}x (gate {require_speedup:g}x)")
    if out:
        write_bench_json(
            out,
            library="/".join(_LIBRARIES),
            circuits=[],
            jobs=workers,
            max_variants=4,
            extra={
                "speedup_warm_vs_cold": round(speedup, 3),
                "ensemble_jobs": len(ensemble),
                "require_speedup": require_speedup,
                "rows_identical": True,
                "warm": _stats_record(warm),
                "cold": _stats_record(cold),
            },
        )
        if verbose:
            print(f"written {out}")
    if speedup < require_speedup:
        raise AssertionError(
            f"warm pool only {speedup:.2f}x faster than per-job dispatch; "
            f"require >= {require_speedup:g}x"
        )
    return speedup


# ---------------------------------------------------------------- pytest


def test_campaign_warm_mini(benchmark):
    ensemble = seed_ensemble(range(12), ["mini", "lib2"], nodes=10, inputs=4)
    outcome = benchmark.pedantic(
        lambda: run_mapping_campaign(ensemble, workers=2),
        rounds=1,
        iterations=1,
    )
    assert outcome.ok
    assert outcome.stats.warm_hits > 0
    benchmark.extra_info.update(
        {
            "jobs_per_s": round(outcome.stats.jobs_per_s, 1),
            "p99_ms": round(outcome.stats.p99_s * 1e3, 2),
        }
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_throughput.json",
                        help="report path ('' to skip writing)")
    parser.add_argument("--jobs", type=int, default=_FULL_JOBS,
                        help="ensemble size (default 500)")
    parser.add_argument("--fast", action="store_true",
                        help=f"cap the ensemble at {_FAST_JOBS} jobs")
    parser.add_argument("--require-speedup", type=float, default=3.0)
    args = parser.parse_args(argv)
    run_smoke(
        n_jobs=args.jobs,
        out=args.out or None,
        require_speedup=args.require_speedup,
        fast=args.fast,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
