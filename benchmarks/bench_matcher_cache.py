"""Bench smoke for the :mod:`repro.perf` matching caches.

Two entry points:

* ``python benchmarks/bench_matcher_cache.py`` — the CI smoke.  Maps the
  Table-2/3 circuits under the rich 44-3 library with the default
  matcher and with the cache-free reference path
  (``Matcher(cache=False)``), asserts the cached path is at least
  ``--require-speedup`` times faster with *identical* delay and area,
  and writes the wall times and cache counters to ``BENCH_mapper.json``.
* ``pytest benchmarks/bench_matcher_cache.py`` — the same comparison as
  pytest-benchmark cases (one circuit, so the suite stays quick).
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional, Sequence

import pytest

from repro.bench.suite import TABLE23_NAMES, build_subject
from repro.core.dag_mapper import map_dag
from repro.core.match import Matcher, MatchKind
from repro.library.builtin import lib44_3
from repro.library.patterns import PatternSet
from repro.perf.benchjson import result_record, write_bench_json

_EPS = 1e-9


def run_smoke(
    names: Sequence[str] = tuple(TABLE23_NAMES),
    out: Optional[str] = "BENCH_mapper.json",
    max_variants: int = 4,
    require_speedup: float = 2.0,
    verbose: bool = True,
) -> float:
    """Cached vs uncached mapping over ``names``; returns the speedup."""
    patterns = PatternSet(lib44_3(), max_variants=max_variants)
    # One shared matcher amortises the trie and the signature cache
    # across circuits, exactly as a library-per-process suite run would.
    shared = Matcher(patterns, MatchKind.STANDARD, cache=True)
    records: List[dict] = []
    total_cached = 0.0
    total_uncached = 0.0
    for name in names:
        _, subject = build_subject(name)
        t0 = time.perf_counter()
        cached = map_dag(subject, patterns, matcher=shared)
        t1 = time.perf_counter()
        uncached = map_dag(subject, patterns,
                           matcher=Matcher(patterns, cache=False))
        t2 = time.perf_counter()
        if abs(cached.delay - uncached.delay) > _EPS:
            raise AssertionError(
                f"{name}: cached delay {cached.delay} != uncached {uncached.delay}"
            )
        if abs(cached.area - uncached.area) > _EPS:
            raise AssertionError(
                f"{name}: cached area {cached.area} != uncached {uncached.area}"
            )
        total_cached += t1 - t0
        total_uncached += t2 - t1
        record = result_record(name, subject.n_gates, cached, wall_s=t1 - t0)
        record["uncached_wall_s"] = round(t2 - t1, 4)
        records.append(record)
        if verbose:
            print(
                f"{name:8s} cached {t1 - t0:6.2f}s  uncached {t2 - t1:6.2f}s  "
                f"delay {cached.delay:g}  area {cached.area:g}"
            )
    speedup = total_uncached / max(total_cached, 1e-9)
    if verbose:
        print(
            f"TOTAL    cached {total_cached:6.2f}s  uncached "
            f"{total_uncached:6.2f}s  speedup {speedup:.2f}x"
        )
    if out:
        write_bench_json(
            out,
            library="44-3",
            circuits=records,
            max_variants=max_variants,
            total_wall_s=total_cached,
            speedup=speedup,
        )
        if verbose:
            print(f"written {out}")
    if speedup < require_speedup:
        raise AssertionError(
            f"cached path only {speedup:.2f}x faster; require "
            f">= {require_speedup:g}x"
        )
    return speedup


# ---------------------------------------------------------------- pytest


@pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
def test_matcher_cache_c2670(benchmark, cache, lib44_3_patterns, get_subject):
    subject = get_subject("C2670s")
    result = benchmark.pedantic(
        lambda: map_dag(subject, lib44_3_patterns,
                        matcher=Matcher(lib44_3_patterns, cache=cache)),
        rounds=1,
        iterations=1,
    )
    reference = map_dag(subject, lib44_3_patterns,
                        matcher=Matcher(lib44_3_patterns, cache=False))
    assert abs(result.delay - reference.delay) <= _EPS
    assert abs(result.area - reference.area) <= _EPS
    if cache:
        assert result.counters["signature_hits"] > 0
    benchmark.extra_info.update(
        {"delay": round(result.delay, 3), "area": round(result.area, 1)}
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_mapper.json",
                        help="report path ('' to skip writing)")
    parser.add_argument("--fast", action="store_true",
                        help="only map C2670s and C6288s")
    parser.add_argument("--variants", type=int, default=4)
    parser.add_argument("--require-speedup", type=float, default=2.0)
    args = parser.parse_args(argv)
    names = ["C2670s", "C6288s"] if args.fast else TABLE23_NAMES
    run_smoke(
        names=names,
        out=args.out or None,
        max_variants=args.variants,
        require_speedup=args.require_speedup,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
