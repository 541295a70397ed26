"""Bench smoke for incremental (ECO) remapping.

Two entry points:

* ``python benchmarks/bench_eco.py`` — the CI smoke.  For each Table-3
  circuit on the 44-3 library: map it from scratch, derive a small
  seeded edit script (a handful of typed edits, well under the 5 %-of-
  nodes budget the contract is stated for), apply it, then remap the
  edit both ways — incrementally with ``eco_remap`` (patch
  certification on and the base run's matcher shared, as in production
  ECO loops) and from scratch with ``map_dag``.  Asserts the two are
  byte-identical everywhere (delay,
  area, mapped-BLIF cover), asserts the incremental path is at least
  ``--require-speedup`` times faster over the suite, and writes
  everything to ``BENCH_eco.json``.
* ``pytest benchmarks/bench_eco.py`` — the same differential as a
  pytest-benchmark case (one circuit, so the suite stays quick).
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Optional, Sequence

import pytest

from repro.bench.suite import TABLE23_NAMES, build_subject
from repro.core.dag_mapper import map_dag
from repro.core.match import Matcher
from repro.eco import eco_remap
from repro.fuzz.generator import random_edit_script
from repro.library.builtin import lib44_3
from repro.library.patterns import PatternSet
from repro.network.decompose import decompose_network
from repro.network.mapped_io import dumps_mapped_blif
from repro.perf.benchjson import result_record, write_bench_json

_EPS = 1e-9

#: The contract's edit budget: scripts must touch at most this fraction
#: of the circuit's nodes (the bench uses far fewer — a real ECO).
_EDIT_FRACTION_CAP = 0.05

#: Edits per circuit and the seed they are drawn with.
_N_EDITS = 4
_EDIT_SEED = 1998


def _bench_circuit(
    name: str, patterns: PatternSet, verbose: bool
) -> Dict[str, object]:
    """One circuit: base map, edit, eco vs scratch; returns the record."""
    net, subject = build_subject(name)
    # The matcher outlives the base run, exactly as in an ECO loop: the
    # dirty region is small but holds the deepest cones, so the base
    # run's warm match cache is where the incremental win comes from.
    matcher = Matcher(patterns)
    t0 = time.perf_counter()
    base = map_dag(subject, patterns, matcher=matcher)
    base_wall = time.perf_counter() - t0

    script = random_edit_script(net, seed=_EDIT_SEED, n_edits=_N_EDITS)
    edit_fraction = len(script) / max(net.n_nodes, 1)
    if edit_fraction > _EDIT_FRACTION_CAP:
        raise AssertionError(
            f"{name}: edit script touches {edit_fraction:.1%} of nodes; "
            f"the contract budget is {_EDIT_FRACTION_CAP:.0%}"
        )
    edited = script.apply(net)

    t0 = time.perf_counter()
    eco = eco_remap(base, edited, patterns, matcher=matcher)
    eco_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    scratch = map_dag(decompose_network(edited), patterns)
    scratch_wall = time.perf_counter() - t0

    if abs(eco.result.delay - scratch.delay) > _EPS:
        raise AssertionError(
            f"{name}: eco delay {eco.result.delay} != "
            f"from-scratch {scratch.delay}"
        )
    if abs(eco.result.area - scratch.area) > _EPS:
        raise AssertionError(
            f"{name}: eco area {eco.result.area} != "
            f"from-scratch {scratch.area}"
        )
    assert eco.result.netlist is not None and scratch.netlist is not None
    if dumps_mapped_blif(eco.result.netlist) != dumps_mapped_blif(
        scratch.netlist
    ):
        raise AssertionError(f"{name}: eco cover bytes differ from scratch")

    record = result_record(name, subject.n_gates, eco.result, wall_s=eco_wall)
    record.update(
        base_wall_s=round(base_wall, 4),
        scratch_wall_s=round(scratch_wall, 4),
        n_edits=len(script),
        edit_fraction=round(edit_fraction, 5),
        edit_script=script.encode(),
        nodes_reused=eco.nodes_reused,
        nodes_remapped=eco.nodes_remapped,
        reuse_fraction=round(eco.reuse_fraction, 4),
        speedup=round(scratch_wall / max(eco_wall, 1e-9), 3),
    )
    if verbose:
        print(
            f"{name:8s} scratch {scratch_wall:6.2f}s  eco {eco_wall:6.2f}s  "
            f"({record['speedup']:5.2f}x)  reused {eco.nodes_reused}"
            f"/{eco.nodes_reused + eco.nodes_remapped}  "
            f"delay {eco.result.delay:g}  area {eco.result.area:g}"
        )
    return record


def run_smoke(
    names: Sequence[str] = tuple(TABLE23_NAMES),
    out: Optional[str] = "BENCH_eco.json",
    require_speedup: float = 2.0,
    verbose: bool = True,
) -> float:
    """Eco-vs-scratch differential over ``names``; returns the speedup."""
    patterns = PatternSet(lib44_3(), max_variants=4)
    records: List[Dict[str, object]] = [
        _bench_circuit(name, patterns, verbose) for name in names
    ]
    total_eco = sum(float(r["wall_s"]) for r in records)  # type: ignore[arg-type]
    total_scratch = sum(float(r["scratch_wall_s"]) for r in records)  # type: ignore[arg-type]
    speedup = total_scratch / max(total_eco, 1e-9)
    if verbose:
        print(
            f"TOTAL    scratch {total_scratch:6.2f}s  eco {total_eco:6.2f}s  "
            f"speedup {speedup:.2f}x"
        )
    if out:
        write_bench_json(
            out,
            library="44-3",
            circuits=records,
            max_variants=4,
            extra={
                "speedup_eco_vs_scratch": round(speedup, 3),
                "n_edits": _N_EDITS,
                "edit_seed": _EDIT_SEED,
                "edit_fraction_cap": _EDIT_FRACTION_CAP,
                "require_speedup": require_speedup,
                "certify_patch": True,
                "shared_matcher": True,
            },
        )
        if verbose:
            print(f"written {out}")
    if speedup < require_speedup:
        raise AssertionError(
            f"incremental remap only {speedup:.2f}x faster than "
            f"from-scratch; require >= {require_speedup:g}x"
        )
    return speedup


# ---------------------------------------------------------------- pytest


def test_eco_vs_scratch_c2670_44_3(benchmark, lib44_3_patterns, get_network):
    net = get_network("C2670s")
    matcher = Matcher(lib44_3_patterns)
    base = map_dag(decompose_network(net), lib44_3_patterns, matcher=matcher)
    script = random_edit_script(net, seed=_EDIT_SEED, n_edits=_N_EDITS)
    edited = script.apply(net)
    eco = benchmark.pedantic(
        lambda: eco_remap(base, edited, lib44_3_patterns, matcher=matcher),
        rounds=1,
        iterations=1,
    )
    scratch = map_dag(decompose_network(edited), lib44_3_patterns)
    assert abs(eco.result.delay - scratch.delay) <= _EPS
    assert abs(eco.result.area - scratch.area) <= _EPS
    assert eco.result.netlist is not None and scratch.netlist is not None
    assert dumps_mapped_blif(eco.result.netlist) == dumps_mapped_blif(
        scratch.netlist
    )
    benchmark.extra_info.update(
        {
            "reused": eco.nodes_reused,
            "remapped": eco.nodes_remapped,
            "delay": round(eco.result.delay, 3),
        }
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_eco.json",
                        help="report path ('' to skip writing)")
    parser.add_argument("--fast", action="store_true",
                        help="only C2670s and C6288s")
    parser.add_argument("--require-speedup", type=float, default=2.0)
    args = parser.parse_args(argv)
    names = ["C2670s", "C6288s"] if args.fast else TABLE23_NAMES
    run_smoke(
        names=names,
        out=args.out or None,
        require_speedup=args.require_speedup,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
