"""Bench smoke for the matcher's cut filter, forced on against off.

Two entry points:

* ``python benchmarks/bench_cuts.py`` — the CI smoke.  Maps the
  Table-2/3 circuits with the cut filter forced off (every pattern tried
  structurally) and forced on, sweeping library size (lib2 -> 44-1 ->
  44-3 -> sized lib2), on two matcher paths:

  - the *reference* path (``Matcher(cache=False)``), where no signature
    replay masks the filter — ``speedup_cuts_vs_structural``, the gated
    ratio;
  - the default *cached* path — ``speedup_cuts_vs_structural_cached``,
    the ratio a default run sees where the matcher's rule turns the
    filter on.

  It asserts all four runs produce identical delay and area everywhere,
  asserts the reference-path ratio is at least ``--require-speedup`` on
  the 625-gate 44-3 library (where pattern pruning pays; on small
  libraries the filter overhead dominates and the honest slowdown is
  reported, not gated), asserts a repeated 44-3 table build is fully
  served by the NPN canonicalisation cache, and writes everything to
  ``BENCH_cuts.json``.
* ``pytest benchmarks/bench_cuts.py`` — the same comparison as
  pytest-benchmark cases (one circuit on 44-3, so the suite stays quick).
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.bench.suite import TABLE23_NAMES, build_subject
from repro.core.dag_mapper import map_dag
from repro.core.match import Matcher
from repro.core.result import MappingResult
from repro.library.builtin import lib2_like, lib2_sized, lib44_1, lib44_3
from repro.library.npn_table import build_npn_table, table_for
from repro.library.patterns import PatternSet
from repro.network.npn import NPN_STATS
from repro.network.subject import SubjectGraph
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


def _timed_map(
    subject: SubjectGraph, patterns: PatternSet, cache: bool, cut_filter: bool
) -> Tuple[MappingResult, float]:
    """One fresh-matcher ``map_dag`` with the filter forced; (result, s)."""
    matcher = Matcher(patterns, cache=cache, cut_filter=cut_filter)
    t0 = time.perf_counter()
    result = map_dag(subject, patterns, matcher=matcher)
    return result, time.perf_counter() - t0


def _bench_library(
    label: str,
    patterns: PatternSet,
    names: Sequence[str],
    verbose: bool,
) -> Dict[str, object]:
    """Filter off vs on over ``names``, on both matcher paths; one record."""
    t0 = time.perf_counter()
    table = table_for(patterns)
    table_build_s = time.perf_counter() - t0
    records: List[dict] = []
    # (cache, cut_filter) -> total seconds over the circuits
    totals = {key: 0.0 for key in
              ((False, False), (False, True), (True, False), (True, True))}
    for name in names:
        _, subject = build_subject(name)
        runs = {key: _timed_map(subject, patterns, *key) for key in totals}
        structural = runs[(False, False)][0]
        for key, (result, wall_s) in runs.items():
            totals[key] += wall_s
            for what in ("delay", "area"):
                got = getattr(result, what)
                want = getattr(structural, what)
                if abs(got - want) > _EPS:
                    raise AssertionError(
                        f"{label}/{name}: {what} {got} with (cache, "
                        f"cut_filter)={key} != {want} on the reference path"
                    )
        cuts, cuts_s = runs[(False, True)]
        record = result_record(name, subject.n_gates, cuts, wall_s=cuts_s)
        record["structural_wall_s"] = round(runs[(False, False)][1], 4)
        record["cached_cuts_wall_s"] = round(runs[(True, True)][1], 4)
        record["cached_structural_wall_s"] = round(runs[(True, False)][1], 4)
        records.append(record)
        if verbose:
            print(
                f"{label:10s} {name:8s} reference: off "
                f"{runs[(False, False)][1]:6.2f}s  on {cuts_s:6.2f}s   "
                f"cached: off {runs[(True, False)][1]:6.2f}s  on "
                f"{runs[(True, True)][1]:6.2f}s  delay {cuts.delay:g}  "
                f"area {cuts.area:g}"
            )
    speedup = totals[(False, False)] / max(
        totals[(False, True)] + table_build_s, 1e-9
    )
    cached_speedup = totals[(True, False)] / max(
        totals[(True, True)] + table_build_s, 1e-9
    )
    if verbose:
        print(
            f"{label:10s} TOTAL    (+{table_build_s:.2f}s table)  "
            f"reference {speedup:.2f}x  cached {cached_speedup:.2f}x"
        )
    return {
        "library": label,
        "n_patterns": len(patterns.patterns),
        "npn_classes": len(table.cell_classes),
        "table_build_s": round(table_build_s, 4),
        "structural_total_s": round(totals[(False, False)], 4),
        "cuts_total_s": round(totals[(False, True)], 4),
        "speedup": round(speedup, 3),
        "cached_structural_total_s": round(totals[(True, False)], 4),
        "cached_cuts_total_s": round(totals[(True, True)], 4),
        "cached_speedup": round(cached_speedup, 3),
        "circuits": records,
    }


def _assert_npn_cache_warm(patterns: PatternSet) -> Dict[str, int]:
    """Satellite gate: a repeat table build must be all NPN-cache hits."""
    hits0, misses0 = NPN_STATS.hits, NPN_STATS.misses
    build_npn_table(patterns)
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
    """Filter sweep over the library sizes; returns the gated 44-3 ratio."""
    sweep = [e for e in _SWEEP if not fast or e[0] in ("lib2", _GATED_LIBRARY)]
    libraries: List[Dict[str, object]] = []
    gated_speedup = 0.0
    cached_speedup = 0.0
    npn_cache: Dict[str, int] = {}
    for label, factory, max_variants in sweep:
        patterns = PatternSet(factory(), max_variants=max_variants)
        entry = _bench_library(label, patterns, names, verbose)
        entry["max_variants"] = max_variants
        libraries.append(entry)
        if label == _GATED_LIBRARY:
            gated_speedup = float(entry["speedup"])  # type: ignore[arg-type]
            cached_speedup = float(entry["cached_speedup"])  # type: ignore[arg-type]
            npn_cache = _assert_npn_cache_warm(patterns)
    if out:
        write_bench_json(
            out,
            library="sweep",
            circuits=[],
            max_variants=0,
            extra={
                "speedup_cuts_vs_structural": round(gated_speedup, 3),
                "speedup_cuts_vs_structural_cached": round(cached_speedup, 3),
                "cut_filter": ["forced off", "forced on"],
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
            f"cut filter only {gated_speedup:.2f}x faster on "
            f"{_GATED_LIBRARY}; require >= {require_speedup:g}x"
        )
    return gated_speedup


# ---------------------------------------------------------------- pytest


@pytest.mark.parametrize("engine", ["structural", "cuts"])
def test_engine_c2670_44_3(benchmark, engine, lib44_3_patterns, get_subject):
    subject = get_subject("C2670s")
    cut_filter = engine == "cuts"
    if cut_filter:
        table_for(lib44_3_patterns)  # amortised once per library in prod
    result = benchmark.pedantic(
        lambda: map_dag(subject, lib44_3_patterns, matcher=Matcher(
            lib44_3_patterns, cache=False, cut_filter=cut_filter)),
        rounds=1,
        iterations=1,
    )
    reference = map_dag(subject, lib44_3_patterns,
                        matcher=Matcher(lib44_3_patterns, cache=False))
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
