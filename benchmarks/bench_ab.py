"""A/B bench runner: every case maps one baseline path against one candidate.

Each entry of :data:`CASES` names its two sides, the items it runs them
on (full, ``--fast`` and a small pytest input), how item times combine
and its speedup gate.  One loop runs every item through the baseline
and then the candidate side, times both, requires their outputs to be
exactly equal, and gates ``baseline time / candidate time``: summed over
the items, or the worst single item for ``bitsim``.

* ``python benchmarks/bench_ab.py CASE... [--fast] [--require-speedup X]
  [--out FILE]`` runs the named cases.  ``--require-speedup`` replaces
  every case's own gate, and ``--out`` writes one ``repro-ab/1`` JSON
  record.  The exit status is 1 when a gate fails.
* ``pytest benchmarks/bench_ab.py`` runs every case on its small input
  with the identity check on and the gate off.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

import pytest

from repro.bench.suite import TABLE23_NAMES, build_subject
from repro.core.dag_mapper import map_dag
from repro.core.match import Match, Matcher
from repro.eco import eco_remap
from repro.fuzz.generator import random_edit_script
from repro.library.builtin import lib44_3
from repro.library.patterns import PatternNode, PatternSet
from repro.network.bitsim import adapt, random_words, simulate_words
from repro.network.decompose import decompose_network
from repro.network.mapped_io import dumps_mapped_blif
from repro.network.simulate import check_equivalent
from repro.network.subject import NodeType, SubjectNode
from repro.perf.campaign import run_mapping_campaign, seed_ensemble
from repro.perf.parallel import default_jobs
from repro.tune import LatticeConfig, front_csv, front_json, run_pareto, seed_sources

SCHEMA = "repro-ab/1"

#: A zero-argument callable that runs one side of one item.
Side = Callable[[], Any]
#: ``pairs(items)`` yields ``(item, baseline side, candidate side)``.
Pairs = Callable[[Sequence[Any]], Iterator[Tuple[Any, Side, Side]]]

#: The two circuits every ``--fast`` mapping case runs.
_FAST_CIRCUITS = ("C2670s", "C6288s")


@dataclass(frozen=True)
class Case:
    """One A/B comparison and the gate it must clear."""

    name: str
    baseline: str
    candidate: str
    pairs: Pairs
    items: Tuple[Any, ...]
    fast: Tuple[Any, ...]
    small: Tuple[Any, ...]
    #: Default speedup gate; ``None`` checks output identity only.
    gate: Optional[float]
    #: Gate the worst item's ratio instead of the ratio of the totals.
    worst_item: bool = False
    #: What the two sides must agree on, computed outside the timing.
    outputs: Callable[[Any], Any] = lambda result: result


def _workers() -> int:
    return max(1, min(4, default_jobs()))


def _mapped(result: Any) -> Tuple[float, float, str]:
    return result.delay, result.area, dumps_mapped_blif(result.netlist)


def _lib44_3_patterns() -> PatternSet:
    # A fresh pattern set per run: its trie is not built yet, so a
    # side that needs it pays the build.
    return PatternSet(lib44_3(), max_variants=4)


class UncachedMatcher(Matcher):
    """The matcher without its caches: the baseline of two cases.

    Every pattern is enumerated on its own, with no signature replay
    and no binding groups, and the feasibility memo is keyed by pattern
    node instead of the trie's shared subtree shapes.  The cut filter
    runs only when forced.
    """

    def matches_at(self, snode: SubjectNode) -> List[Match]:
        if snode.is_pi:
            return []
        results: List[Match] = []
        seen: Set[Tuple[object, ...]] = set()
        depth = self._depth[snode.uid]
        for pattern in self._filtered_patterns(snode):
            if pattern.depth > depth:
                continue  # the pattern cannot fit above the PIs
            for binding in self._enumerate(pattern, snode):
                match = Match(pattern, snode, binding)
                key = match.identity()
                if key not in seen:
                    seen.add(key)
                    results.append(match)
        return results

    def _feasible(self, pnode: PatternNode, snode: SubjectNode) -> bool:
        if pnode.kind is NodeType.PI:
            return True
        key = (id(pnode), snode.uid)
        cached = self._feasible_cache.get(key)
        if cached is not None:
            self.stats.feasibility_hits += 1
            return cached
        self.stats.feasibility_misses += 1
        if pnode.kind is not snode.kind:
            result = False
        elif pnode.kind is NodeType.INV:
            result = self._feasible(pnode.fanins[0], snode.fanins[0])
        else:
            p0, p1 = pnode.fanins
            s0, s1 = snode.fanins
            result = (
                self._feasible(p0, s0) and self._feasible(p1, s1)
            ) or (
                s0 is not s1
                and self._feasible(p0, s1)
                and self._feasible(p1, s0)
            )
        self._feasible_cache[key] = result
        return result


def _matcher_cache(items: Sequence[str]) -> Iterator[Tuple[Any, Side, Side]]:
    patterns = _lib44_3_patterns()
    # One shared matcher amortises the trie and the signature cache
    # across circuits, exactly as a library-per-process table run does.
    shared = Matcher(patterns)
    for name in items:
        subject = build_subject(name)[1]
        yield (
            name,
            lambda: map_dag(subject, patterns, matcher=UncachedMatcher(
                patterns, cut_filter=False)),
            lambda: map_dag(subject, patterns, matcher=shared),
        )


#: Lanes of the timed bitsim batch: enough that the packed advantage is
#: unambiguous, few enough that the scalar oracle (one network pass per
#: lane) finishes in CI.
_BITSIM_LANES = 256


def _bitsim(items: Sequence[str]) -> Iterator[Tuple[Any, Side, Side]]:
    for name in items:
        net, subject = build_subject(name)
        check_equivalent(net, subject)  # the consumer-level check, untimed
        words, mask = random_words(adapt(net).inputs, vectors=_BITSIM_LANES,
                                   seed=2024)

        def side(engine: str) -> Side:
            return lambda: (
                simulate_words(net, words, mask, engine=engine),
                simulate_words(subject, words, mask, engine=engine),
            )

        yield name, side("scalar"), side("packed")


def _cut_filter(items: Sequence[str]) -> Iterator[Tuple[Any, Side, Side]]:
    # The uncached matcher, where no signature replay masks the filter;
    # the first filtered run pays the trie build (the shape filter's
    # pattern shapes live in the trie).
    patterns = _lib44_3_patterns()
    for name in items:
        subject = build_subject(name)[1]

        def side(on: bool) -> Side:
            return lambda: map_dag(subject, patterns, matcher=UncachedMatcher(
                patterns, cut_filter=on))

        yield name, side(False), side(True)


#: Edits per circuit, the seed they are drawn with, and the share of a
#: circuit's nodes an edit script may touch under the ECO contract.
_N_EDITS = 4
_EDIT_SEED = 1998
_EDIT_FRACTION_CAP = 0.05


def _eco(items: Sequence[str]) -> Iterator[Tuple[Any, Side, Side]]:
    patterns = _lib44_3_patterns()
    for name in items:
        net, subject = build_subject(name)
        # The matcher outlives the base run, as in an ECO loop: the dirty
        # region is small but holds the deepest cones, so the base run's
        # warm match cache is where the incremental win comes from.
        matcher = Matcher(patterns)
        base = map_dag(subject, patterns, matcher=matcher)
        script = random_edit_script(net, seed=_EDIT_SEED, n_edits=_N_EDITS)
        if len(script) > _EDIT_FRACTION_CAP * net.n_nodes:
            raise AssertionError(
                f"{name}: the edit script touches {len(script)} of "
                f"{net.n_nodes} nodes, over the {_EDIT_FRACTION_CAP:.0%} "
                f"ECO budget"
            )
        edited = script.apply(net)
        yield (
            name,
            lambda: map_dag(decompose_network(edited), patterns),
            lambda: eco_remap(base, edited, patterns, matcher=matcher).result,
        )


def _warm_pool(items: Sequence[int]) -> Iterator[Tuple[Any, Side, Side]]:
    # 44-3 makes cold dispatch honest: its pattern build costs the cold
    # side ~0.9 s on every third job and the warm pool once per worker.
    # Both sides run every job, so their time ratio is the jobs/s ratio.
    for n_jobs in items:
        ensemble = seed_ensemble(range(n_jobs), ("lib2", "44-1", "44-3"),
                                 nodes=12, inputs=5, max_variants=4,
                                 large_every=50)

        def side(warm: bool) -> Side:
            def run() -> Any:
                outcome = run_mapping_campaign(
                    ensemble, workers=_workers(), warm=warm, large_weight=50)
                if not outcome.ok:
                    raise AssertionError(f"warm={warm} run had failures")
                return outcome
            return run

        yield n_jobs, side(False), side(True)


_LATTICE = LatticeConfig(variants=3, drop=0.2, delay_jitter=0.05,
                         area_jitter=0.05, targets=(1.0, 1.15),
                         max_variants=(6,), seed=7)
_REFINE = 6


def _pareto(items: Sequence[int]) -> Iterator[Tuple[Any, Side, Side]]:
    for n_seeds in items:
        sources = seed_sources(range(n_seeds), nodes=14, inputs=5)

        def side(workers: int) -> Side:
            def run() -> List[str]:
                emitted = []
                for refine in (0, _REFINE):
                    outcome = run_pareto(sources, "lib2", _LATTICE,
                                         workers=workers,
                                         refine_budget=refine)
                    if not outcome.ok:
                        raise AssertionError(
                            f"-j {workers} run had failures: "
                            f"{outcome.failures[:3]}")
                    emitted += [front_csv(outcome.fronts),
                                front_json(outcome.fronts)]
                return emitted
            return run

        yield n_seeds, side(1), side(_workers())


CASES: Dict[str, Case] = {case.name: case for case in (
    Case("matcher_cache",
         "a fresh UncachedMatcher per circuit, 44-3 @ 4",
         "one shared default Matcher", _matcher_cache,
         TABLE23_NAMES, _FAST_CIRCUITS, ("C2670s",), gate=2.0,
         outputs=_mapped),
    Case("bitsim", "scalar simulate_words, network and subject, 256 lanes",
         "packed simulate_words", _bitsim,
         TABLE23_NAMES, _FAST_CIRCUITS, ("C2670s",), gate=10.0,
         worst_item=True),
    Case("cut_filter", "UncachedMatcher, cut filter forced off, 44-3 @ 4",
         "cut filter forced on, trie build included", _cut_filter,
         TABLE23_NAMES, _FAST_CIRCUITS, ("C2670s",), gate=2.0,
         outputs=_mapped),
    Case("eco", "map_dag of the edited circuit from scratch, 44-3 @ 4",
         "eco_remap sharing the base run's matcher", _eco,
         TABLE23_NAMES, _FAST_CIRCUITS, ("C2670s",), gate=2.0,
         outputs=_mapped),
    Case("warm_pool", "campaign with per-job dispatch (warm=False)",
         "campaign over the warm pool", _warm_pool,
         (500,), (120,), (12,), gate=3.0,
         outputs=lambda outcome: [row.stable() for row in outcome.rows]),
    Case("pareto", "pareto lattice and refinement at -j 1",
         "the same over the pool", _pareto,
         (6,), (3,), (2,), gate=None),
)}


def same_outputs(label: str, baseline: Any, candidate: Any) -> None:
    """The identity check every case applies to every item."""
    if baseline != candidate:
        raise AssertionError(f"{label}: baseline and candidate outputs differ")


def _timed(side: Side) -> Tuple[Any, float]:
    start = time.perf_counter()
    result = side()
    return result, time.perf_counter() - start


def run_case(case: Case, items: Sequence[Any],
             gate: Optional[float]) -> Dict[str, Any]:
    """Time both sides of every item; returns the case's report record.

    Raises :class:`AssertionError` when the sides' outputs differ; a
    missed gate is reported as ``"passed": false``.
    """
    records: List[Dict[str, Any]] = []
    base_times: List[float] = []
    cand_times: List[float] = []
    for item, baseline, candidate in case.pairs(items):
        base_result, base_s = _timed(baseline)
        cand_result, cand_s = _timed(candidate)
        same_outputs(f"{case.name}/{item}", case.outputs(base_result),
                     case.outputs(cand_result))
        base_times.append(base_s)
        cand_times.append(cand_s)
        records.append({"item": item, "baseline_s": round(base_s, 4),
                        "candidate_s": round(cand_s, 4),
                        "speedup": round(base_s / cand_s, 3)})
        print(f"{case.name:13s} {item!s:8s} baseline {base_s:8.3f}s  "
              f"candidate {cand_s:8.3f}s  {base_s / cand_s:7.2f}x")
    base_total, cand_total = sum(base_times), sum(cand_times)
    if case.worst_item:
        speedup = min(b / c for b, c in zip(base_times, cand_times))
    else:
        speedup = base_total / cand_total
    passed = gate is None or speedup >= gate
    verdict = ("identity only" if gate is None
               else f"{'pass' if passed else 'FAIL'} >= {gate:g}x")
    print(f"{case.name:13s} {'worst' if case.worst_item else 'total':8s} "
          f"baseline {base_total:8.3f}s  candidate {cand_total:8.3f}s  "
          f"{speedup:7.2f}x  ({verdict})")
    return {
        "case": case.name,
        "baseline": case.baseline,
        "candidate": case.candidate,
        "combine": "worst item" if case.worst_item else "total",
        "items": records,
        "baseline_s": round(base_total, 4),
        "candidate_s": round(cand_total, 4),
        "speedup": round(speedup, 3),
        "require_speedup": gate,
        "passed": passed,
    }


# ---------------------------------------------------------------- pytest


@pytest.mark.parametrize("case", list(CASES.values()), ids=list(CASES))
def test_case_outputs_identical(case: Case) -> None:
    run_case(case, case.small, gate=None)


def test_differing_outputs_fail_the_case() -> None:
    case = Case("differs", "returns 1", "returns 2",
                lambda items: ((i, lambda: 1, lambda: 2) for i in items),
                (0,), (0,), (0,), gate=None)
    with pytest.raises(AssertionError, match="differs/0: baseline and "
                                             "candidate outputs differ"):
        run_case(case, case.small, gate=None)


# ------------------------------------------------------------------ main


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", nargs="+", choices=list(CASES),
                        metavar="CASE", help=f"one of {', '.join(CASES)}")
    parser.add_argument("--fast", action="store_true",
                        help="run each case's reduced item list")
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="X", help="gate every case at X instead "
                                          "of its own threshold")
    parser.add_argument("--out", metavar="FILE",
                        help="write the repro-ab/1 JSON record")
    args = parser.parse_args(argv)
    records = []
    for name in args.cases:
        case = CASES[name]
        gate = case.gate if args.require_speedup is None else args.require_speedup
        records.append(run_case(case, case.fast if args.fast else case.items,
                                gate))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"schema": SCHEMA, "python": platform.python_version(),
                       "machine": platform.machine(), "workers": _workers(),
                       "fast": args.fast, "cases": records}, handle, indent=2)
            handle.write("\n")
        print(f"written {args.out}")
    failed = [record["case"] for record in records if not record["passed"]]
    if failed:
        print(f"speedup gate missed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
