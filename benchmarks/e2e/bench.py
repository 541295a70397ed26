#!/usr/bin/env python3
"""End-to-end benchmark of the DAG mapper: BLIF in, certified netlist out.

Run from the repository root (the script finds ``src/`` itself)::

    python3 benchmarks/e2e/bench.py --workload table3_44-3 --seed 0
    python3 benchmarks/e2e/bench.py --workload all --seed 0 --out run.json
    python3 benchmarks/e2e/bench.py --workload eco_44-3 --seed 0 --trace 1
    python3 benchmarks/e2e/bench.py --write-expected

One workload runs in the calling process; ``--workload all`` runs each
workload in a fresh subprocess.  Each workload runs a fixed number of
rounds, ``--seconds`` times its nominal rounds per second, so how fast
the code runs never changes how much work a run measures.  Every run
prints its metrics by name with their units, then as its last line one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  It exits 1 when any output fails a check.

The program is driven only through its public functions (``read_blif``,
``decompose_network``, ``PatternSet``, ``map_dag(check=True)``,
``dumps_mapped_blif``, ``eco_remap``, ``stream_campaign``).  With
``--trace 1`` the end-to-end metrics are replaced by per-layer ones,
timed from outside by the wrappers of ``spans.py``; the trace is written
to ``--trace-dir``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED_PATH = HERE / "expected.json"

for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

try:
    from repro import (
        PatternSet,
        check_equivalent,
        decompose_network,
        map_dag,
        read_blif,
        write_blif,
    )
    from repro.bench.suite import get_circuit, get_reference
    from repro.core.match import Matcher
    from repro.eco import eco_remap
    from repro.errors import NetworkError
    from repro.fuzz.generator import config_from_dict, random_dag, random_edit_script
    from repro.network.mapped_io import dumps_mapped_blif
    from repro.network.simulate import input_names, simulate_outputs
    from repro.perf.campaign import CampaignJob, seed_ensemble, stream_campaign
    from repro.perf.counters import RunStats, percentile
    from repro.perf.parallel import resolve_library
except ImportError as exc:  # run outside a checkout that holds src/
    raise SystemExit(f"bench: cannot import the mapper from {ROOT / 'src'}: {exc}")

from spans import Tracer

#: The paper's Table-3 circuits plus C6288 at its real 16x16 size, whose
#: signature hit rate (88%) differs from C6288s's (63%), so the matcher's
#: working set varies within one pass.
TABLE_CIRCUITS = ("C2670s", "C3540s", "C5315s", "C6288s", "C7552s", "C6288full")
ECO_CIRCUITS = TABLE_CIRCUITS[:5]

#: Set-up repetitions (pattern-set builds, campaign pool starts) whose
#: median is ``setup_s``: one 44-3 build took 0.69-1.28 s across runs.
SETUP_BUILDS = 3
#: Campaign jobs replayed in-process, untraced and traced, by a traced run.
REPLAY_JOBS = 30
#: Edit rounds (one edit per circuit) and campaign jobs whose outputs
#: ``--write-expected`` records; a run checks those it reaches.
GOLDEN_ROUNDS = 24
GOLDEN_JOBS = 1000

MASK64 = (1 << 64) - 1

#: name -> (unit, better).  ``--trace 0`` reports these.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "gates_per_s": ("gates/s", "higher"),
    "ops_per_s": ("ops/s", "higher"),
    "circuit_geomean_ms": ("ms", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better).  ``--trace 1`` reports these.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "match.matches_at_ms": ("ms", "lower"),
    "match.calls": ("count", "lower"),
    "match.init_ms": ("ms", "lower"),
    "match.attach_ms": ("ms", "lower"),
    "match.signature_hit_rate": ("frac", "higher"),
    "match.feasibility_hit_rate": ("frac", "higher"),
    "match.bindings_enumerated": ("count", "lower"),
    "match.groups_enumerated": ("count", "lower"),
    "match.matches_per_node": ("count", "lower"),
    "patterns.build_s": ("s", "lower"),
    "patterns.count": ("count", "lower"),
    "labeling.self_ms": ("ms", "lower"),
    "cover.ms": ("ms", "lower"),
    "sta.ms": ("ms", "lower"),
    "decompose.ms": ("ms", "lower"),
    "blif.read_ms": ("ms", "lower"),
    "mapped_io.write_ms": ("ms", "lower"),
    "certificate.ms": ("ms", "lower"),
    "certificate.verify_match_ms": ("ms", "lower"),
    "certificate.equivalence_ms": ("ms", "lower"),
    "eco.keys_ms": ("ms", "lower"),
    "eco.map_ms": ("ms", "lower"),
    "eco.patch_cert_ms": ("ms", "lower"),
    "eco.reuse_fraction": ("frac", "higher"),
    "eco.nodes_remapped": ("count", "lower"),
    "stream.overhead_frac": ("frac", "lower"),
    "stream.warm_hit_rate": ("frac", "higher"),
    "stream.workers_spawned": ("count", "lower"),
    "stream.retries": ("count", "lower"),
    "stream.shard_steals": ("count", "higher"),
    "trace.overhead": ("frac", "lower"),
}

#: Per-op mean milliseconds of a record in the trace summary:
#: metric -> (record name, "total" or "self").
_LAYER_TIMES: Dict[str, Tuple[str, str]] = {
    "match.matches_at_ms": ("match.matches_at", "total"),
    "match.init_ms": ("match.init", "total"),
    "match.attach_ms": ("match.attach", "total"),
    "labeling.self_ms": ("labeling", "self"),
    "cover.ms": ("cover", "total"),
    "sta.ms": ("sta", "total"),
    "decompose.ms": ("decompose", "total"),
    "blif.read_ms": ("blif.read", "total"),
    "mapped_io.write_ms": ("mapped_io.write", "total"),
    "certificate.ms": ("certificate", "total"),
    "certificate.verify_match_ms": ("certificate.verify_match", "total"),
    "certificate.equivalence_ms": ("certificate.equivalence", "total"),
    "eco.keys_ms": ("eco.keys", "total"),
    "eco.map_ms": ("eco.map", "total"),
    "eco.patch_cert_ms": ("eco.patch_cert", "total"),
}


# ----------------------------------------------------------------------
# One workload run: samples, checks and the trace
# ----------------------------------------------------------------------


@dataclass
class Op:
    """One timed operation: a circuit mapped, an edit remapped, a job run.

    ``mode`` is ``"run"`` for the samples end-to-end metrics come from,
    and ``"untraced"``/``"traced"`` for the two halves of a traced run.
    """

    item: str
    gates: int
    seconds: float
    mode: str = "run"
    ok: bool = True
    counters: Optional[Dict[str, float]] = None


class Run:
    """Everything one workload run measures and checks."""

    def __init__(
        self,
        workload: str,
        seed: int,
        count: int,
        trace: bool = False,
        expected: Optional[Dict[str, Dict[str, object]]] = None,
        record: bool = False,
    ):
        self.workload = workload
        self.seed = seed
        #: rounds to run: passes, edit rounds or jobs.
        self.count = count
        self.tracer = Tracer() if trace else None
        self.expected = expected or {}
        #: ``--write-expected``: also compare eco covers to a from-scratch map.
        self.record = record
        self.outputs: Dict[str, Dict[str, object]] = {}
        self.ops: List[Op] = []
        self.errors: List[str] = []
        self.setup_s = 0.0
        #: wall-clock of a parallel run; serial runs sum their op times.
        self.wall_s: Optional[float] = None
        #: per-layer values a runner measures itself (set-up, stream).
        self.layer: Dict[str, float] = {}
        self._tracing = False

    def modes(self, index: int) -> Tuple[str, ...]:
        """Modes to run op ``index`` in: traced runs alternate the order."""
        if self.tracer is None:
            return ("run",)
        return ("untraced", "traced") if index % 2 == 0 else ("traced", "untraced")

    @contextmanager
    def phase(self, mode: str) -> Iterator[None]:
        """Install the trace wrappers for the duration of a traced op."""
        traced = mode == "traced"
        if traced:
            assert self.tracer is not None
            self.tracer.install()
        self._tracing = traced
        try:
            yield
        finally:
            self._tracing = False
            if traced:
                self.tracer.uninstall()  # type: ignore[union-attr]

    def span(self, name: str, label: str = ""):  # type: ignore[no-untyped-def]
        if self._tracing:
            return self.tracer.span(name, label)  # type: ignore[union-attr]
        return nullcontext()

    # ------------------------------------------------------------ checks
    def fail(self, item: str, message: str) -> None:
        self.errors.append(f"{item}: {message}")

    def check(self, op: Op, key: str, problem: Optional[str]) -> None:
        """Fail ``op`` when a check found a ``problem``."""
        if problem is not None:
            op.ok = False
            self.fail(key, problem)

    def output(self, key: str, delay: float, area: float, cover: str) -> Optional[str]:
        """Record one output; how it differs from the golden file, if it does."""
        got = {"delay": delay, "area": area, "cover": cover}
        self.outputs[key] = got
        want = self.expected.get(key)
        if want is not None and want != got:
            return f"output {got} differs from expected {want}"
        return None

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of any worker it has waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _digest(text: str) -> str:
    """First 16 hex digits of the SHA-256 of a mapped BLIF (as CampaignRow.cover)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _scratch_dir() -> "tempfile.TemporaryDirectory[str]":
    """A temporary directory inside the checkout (``.bench_work/``)."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=work)


def _timed_builds(run: Run, library: str, max_variants: int) -> PatternSet:
    """Build the pattern set SETUP_BUILDS times; set-up is the median."""
    lib = resolve_library(library)
    seconds = []
    for _ in range(SETUP_BUILDS):
        t0 = time.perf_counter()
        patterns = PatternSet(lib, max_variants=max_variants)
        seconds.append(time.perf_counter() - t0)
    run.layer["patterns.build_s"] = statistics.median(seconds)
    run.layer["patterns.count"] = len(patterns)
    return patterns


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _reference_mismatch(name: str, net: object, netlist: object, seed: int) -> Optional[str]:
    """Compare 64 seeded vectors of ``netlist`` with the hand-written model."""
    ref = get_reference(name)
    if ref is None:
        return None
    rng = random.Random(zlib.crc32(f"vectors:{seed}:{name}".encode()))
    words = {pi: rng.getrandbits(64) for pi in input_names(net)}
    got = simulate_outputs(netlist, words, MASK64)
    for lane in range(64):
        expected = ref({pi: (word >> lane) & 1 for pi, word in words.items()})
        for out, bit in expected.items():
            if (got[out] >> lane) & 1 != bit:
                return f"output {out} differs from the reference model on vector {lane}"
    return None


def _timed(run: Run, item: str, key: str, mode: str, body: Callable[[], tuple]):  # type: ignore[no-untyped-def]
    """Time ``body()`` as one op; an exception makes it a failed op.

    Returns ``(op, values)``, or ``None`` for a failed op.  The caller
    fills in the op's gates and counters and runs its checks untimed.
    """
    with run.phase(mode):
        t0 = time.perf_counter()
        try:
            with run.span("op", key):
                values = body()
        except Exception as exc:  # any failure is a failed op, not a crash
            run.ops.append(Op(item, 0, time.perf_counter() - t0, mode, ok=False))
            run.fail(key, f"{type(exc).__name__}: {exc}")
            return None
        op = Op(item, 0, time.perf_counter() - t0, mode)
    run.ops.append(op)
    return op, values


def _table_op(run: Run, name: str, path: str, patterns: PatternSet, mode: str) -> None:
    """Read, decompose, map with a fresh matcher and certificate, write."""

    def body() -> tuple:
        with run.span("blif.read"):
            net = read_blif(path)
        with run.span("decompose"):
            subject = decompose_network(net)
        with run.span("map_dag"):
            result = map_dag(subject, patterns, check=True)
        with run.span("mapped_io.write"):
            text = dumps_mapped_blif(result.netlist)
        return net, subject, result, text

    timed = _timed(run, name, name, mode, body)
    if timed is None:
        return
    op, (net, subject, result, text) = timed
    op.gates = subject.n_gates
    op.counters = dict(result.counters, n_matches=result.n_matches)
    run.check(op, name, _reference_mismatch(name, net, result.netlist, run.seed))
    run.check(op, name, run.output(name, result.delay, result.area, _digest(text)))


def run_table(
    run: Run, library: str, max_variants: int, circuits: Sequence[str]
) -> None:
    """``run.count`` passes over ``circuits``."""
    patterns = _timed_builds(run, library, max_variants)
    run.setup_s = run.layer["patterns.build_s"]
    with _scratch_dir() as tmp:
        paths = {}
        for name in circuits:
            paths[name] = os.path.join(tmp, f"{name}.blif")
            write_blif(get_circuit(name), paths[name])
        # Warm-up: lazy imports and first-call caches are paid once per
        # process, not once per circuit.
        map_dag(decompose_network(read_blif(paths[circuits[0]])), patterns)
        rng = random.Random(run.seed)
        order = list(circuits)
        for passes in range(run.count):
            rng.shuffle(order)
            for i, name in enumerate(order):
                for mode in run.modes(passes + i):
                    _table_op(run, name, paths[name], patterns, mode)


def _eco_op(
    run: Run, key: str, name: str, base: object, edited: object,
    patterns: PatternSet, shared: Matcher, mode: str,
) -> None:
    """One incremental remap of an edited circuit, then its mapped BLIF."""
    before = shared.stats.as_dict()

    def body() -> tuple:
        with run.span("eco_remap"):
            result = eco_remap(base, edited, patterns, matcher=shared).result
        with run.span("mapped_io.write"):
            text = dumps_mapped_blif(result.netlist)
        return result, text

    timed = _timed(run, name, key, mode, body)
    if timed is None:
        return
    op, (result, text) = timed
    op.gates = result.labels.subject.n_gates
    op.counters = {k: v - before[k] for k, v in result.counters.items()}
    op.counters["n_matches"] = result.n_matches
    try:
        check_equivalent(edited, result.netlist)
    except NetworkError as exc:
        run.check(op, key, f"not equivalent to the edited source: {exc}")
    run.check(op, key, run.output(key, result.delay, result.area, _digest(text)))
    if run.record:
        scratch = map_dag(decompose_network(edited), patterns)
        if (scratch.delay, scratch.area, dumps_mapped_blif(scratch.netlist)) != (
            result.delay, result.area, text
        ):
            run.check(op, key, "eco cover differs from a from-scratch map_dag")


def run_eco(
    run: Run, library: str, max_variants: int, circuits: Sequence[str],
    n_edits: int = 4,
) -> None:
    """``run.count`` rounds of one edit per circuit, with a shared matcher.

    Round ``k`` applies the same edit script to a circuit on every seed;
    the seed orders the circuits within each round.  One 4-edit script
    can cost five times another, so with seed-drawn scripts the spread
    across seeds (14-32%) exceeded every bound.
    """
    patterns = _timed_builds(run, library, max_variants)
    shared = Matcher(patterns)
    t0 = time.perf_counter()
    bases = {}
    for name in circuits:
        net = get_circuit(name)
        bases[name] = (net, map_dag(decompose_network(net), patterns, matcher=shared))
    run.setup_s = run.layer["patterns.build_s"] + time.perf_counter() - t0
    rng = random.Random(run.seed)
    order = list(circuits)
    for rounds in range(run.count):
        # A repeated edit would find its dirty cones in the shared cache,
        # so a traced run alternates whole rounds instead of repeating ops.
        mode = "run" if run.tracer is None else ("untraced", "traced")[rounds % 2]
        rng.shuffle(order)
        for name in order:
            net, base = bases[name]
            key = f"{name}#{rounds}"
            script = random_edit_script(net, seed=zlib.crc32(key.encode()), n_edits=n_edits)
            _eco_op(run, key, name, base, script.apply(net), patterns, shared, mode)


def _replay_job(run: Run, job: CampaignJob, patterns: PatternSet, row: object, mode: str) -> None:
    """Run one campaign job in this process; it must reproduce the pool's row."""
    net = random_dag(config_from_dict(json.loads(job.source[2])).with_seed(int(job.source[1])))

    def body() -> tuple:
        with run.span("decompose"):
            subject = decompose_network(net)
        with run.span("map_dag"):
            result = map_dag(subject, patterns, check=True)
        with run.span("verify"):
            check_equivalent(net, result.netlist)
        with run.span("mapped_io.write"):
            cover = _digest(dumps_mapped_blif(result.netlist))
        return subject, result, cover

    timed = _timed(run, job.label, job.label, mode, body)
    if timed is None:
        return
    op, (subject, result, cover) = timed
    op.gates = subject.n_gates
    op.counters = dict(result.counters, n_matches=result.n_matches)
    got = (result.delay, result.area, cover)
    if row is not None and got != (row.delay, row.area, row.cover):  # type: ignore[attr-defined]
        run.check(op, job.label, f"in-process replay {got} differs from the pool's row {row}")


def run_campaign(
    run: Run, libraries: Sequence[str], workers: int = 2, large_weight: int = 50,
) -> None:
    """``run.count`` jobs streamed in a closed loop over a warm pool."""
    jobs = seed_ensemble(
        [run.seed * 1_000_000 + i for i in range(run.count)], libraries,
        nodes=12, inputs=5, max_variants=4, check=True, verify=True, large_every=50,
    )
    # Set-up: a fresh pool until one job of every library has come back,
    # which includes forking the workers and building their bundles.
    probe = jobs[: len(libraries)]
    starts = []
    for _ in range(SETUP_BUILDS):
        t0 = time.perf_counter()
        for result in stream_campaign(probe, workers=workers, large_weight=large_weight):
            if result.failed:
                raise RuntimeError(f"set-up job {result.label} failed: {result.row}")
        starts.append(time.perf_counter() - t0)
    run.setup_s = statistics.median(starts)

    stats = RunStats()
    rows: Dict[int, object] = {}
    busy = 0.0
    started = time.perf_counter()
    stream = stream_campaign(jobs, workers=workers, large_weight=large_weight, stats=stats)
    try:
        for result in stream:
            job = jobs[result.index]
            if result.failed:
                run.ops.append(Op(job.label, 0, result.wall_s, ok=False))
                run.fail(job.label, str(result.row))
            else:
                row = result.row
                rows[result.index] = row
                op = Op(job.label, row.subject_gates, result.wall_s)  # type: ignore[attr-defined]
                run.ops.append(op)
                run.check(op, job.label, run.output(job.label, row.delay, row.area, row.cover))  # type: ignore[attr-defined]
            busy += result.wall_s
        run.wall_s = time.perf_counter() - started
    finally:
        stream.close()
    warm = stats.warm_hits + stats.warm_misses
    run.layer.update({
        "stream.overhead_frac": 1.0 - busy / (run.wall_s * workers),
        "stream.warm_hit_rate": stats.warm_hits / warm if warm else 0.0,
        "stream.workers_spawned": stats.workers_spawned,
        "stream.retries": stats.retries,
        "stream.shard_steals": stats.shard_steals,
    })
    if run.tracer is None:
        return
    # The pool's workers cannot be traced from here, so a traced run
    # replays the first jobs in this process to see where a job's time goes.
    t0 = time.perf_counter()
    patterns = {lib: PatternSet(resolve_library(lib), max_variants=4) for lib in libraries}
    run.layer["patterns.build_s"] = time.perf_counter() - t0
    run.layer["patterns.count"] = sum(len(p) for p in patterns.values())
    for i, job in enumerate(jobs[:REPLAY_JOBS]):
        for mode in run.modes(i):
            _replay_job(run, job, patterns[job.library], rows.get(i), mode)


#: name -> (runner, nominal rounds per second, keyword arguments).  A
#: run is ``--seconds`` times the rate in rounds: 4 passes, 20 passes,
#: 8 edit rounds (40 edits) and 600 jobs at 20 s.  Why each: README.md.
WORKLOADS: Dict[str, Tuple[Callable[..., None], float, Dict[str, object]]] = {
    "table3_44-3": (run_table, 0.2, {"library": "44-3", "max_variants": 4, "circuits": TABLE_CIRCUITS}),
    "table2_44-1": (run_table, 1.0, {"library": "44-1", "max_variants": 8, "circuits": TABLE_CIRCUITS}),
    "eco_44-3": (run_eco, 0.4, {"library": "44-3", "max_variants": 4, "circuits": ECO_CIRCUITS}),
    "campaign_mixed": (run_campaign, 30.0, {"libraries": ("lib2", "44-1", "44-3")}),
}


def rounds_for(name: str, seconds: float) -> int:
    """The fixed number of rounds a ``seconds`` run of ``name`` makes."""
    return max(1, round(seconds * WORKLOADS[name][1]))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _by_item(ops: Sequence[Op]) -> Dict[str, List[Op]]:
    out: Dict[str, List[Op]] = {}
    for op in ops:
        out.setdefault(op.item, []).append(op)
    return out


def _medians(ops: Sequence[Op]) -> Dict[str, float]:
    """Median op seconds of each item."""
    return {item: statistics.median(op.seconds for op in group)
            for item, group in _by_item(ops).items()}


def end_to_end(run: Run) -> Dict[str, float]:
    """The end-to-end metrics, from the ``run``-mode samples that passed."""
    ops = [op for op in run.ops if op.ok and op.mode == "run"]
    times = [op.seconds for op in ops]
    out = {name: 0.0 for name in END_TO_END}
    out["setup_s"] = run.setup_s
    out["peak_rss_mb"] = _peak_rss_mb()
    if not ops:
        return out
    medians = list(_medians(ops).values())
    if run.wall_s is None:
        gates = sum(statistics.median(op.gates for op in group) for group in _by_item(ops).values())
        out["gates_per_s"] = gates / sum(medians)
        out["ops_per_s"] = len(ops) / sum(times)
    else:
        out["gates_per_s"] = sum(op.gates for op in ops) / run.wall_s
        out["ops_per_s"] = len(ops) / run.wall_s
    out["circuit_geomean_ms"] = 1e3 * math.exp(statistics.fmean(math.log(t) for t in medians))
    out["op_p50_ms"] = 1e3 * percentile(times, 50)
    out["op_p90_ms"] = 1e3 * percentile(times, 90)
    return out


def per_layer(run: Run) -> Dict[str, float]:
    """The per-layer metrics of a traced run, per traced op."""
    assert run.tracer is not None
    traced = [op for op in run.ops if op.ok and op.mode == "traced"]
    n = len(traced) or 1
    summary = run.tracer.summary()
    out = {name: 0.0 for name in PER_LAYER}
    for metric, (record, kind) in _LAYER_TIMES.items():
        out[metric] = 1e3 * summary.get(record, {}).get(f"{kind}_s", 0.0) / n
    calls = summary.get("match.matches_at", {}).get("calls", 0)
    out["match.calls"] = calls / n
    totals: Dict[str, float] = {}
    for op in traced:
        for key, value in (op.counters or {}).items():
            totals[key] = totals.get(key, 0) + value

    def ratio(num: str, other: str) -> float:
        den = totals.get(num, 0) + totals.get(other, 0)
        return totals.get(num, 0) / den if den else 0.0

    out["match.signature_hit_rate"] = ratio("signature_hits", "signature_misses")
    out["match.feasibility_hit_rate"] = ratio("feasibility_hits", "feasibility_misses")
    out["match.bindings_enumerated"] = totals.get("bindings_enumerated", 0) / n
    out["match.groups_enumerated"] = totals.get("groups_enumerated", 0) / n
    out["match.matches_per_node"] = totals.get("n_matches", 0) / calls if calls else 0.0
    out["eco.reuse_fraction"] = ratio("eco_nodes_reused", "eco_nodes_remapped")
    out["eco.nodes_remapped"] = totals.get("eco_nodes_remapped", 0) / n
    out.update({k: v for k, v in run.layer.items() if k in PER_LAYER})
    with_trace = _medians(traced)
    without = _medians([op for op in run.ops if op.ok and op.mode == "untraced"])
    paired = with_trace.keys() & without.keys()
    if paired:
        out["trace.overhead"] = (sum(with_trace[i] for i in paired)
                                 / sum(without[i] for i in paired) - 1.0)
    return out


def run_workload(
    name: str,
    seed: int,
    count: int,
    trace: bool = False,
    record: bool = False,
    **overrides: object,
) -> Run:
    """Run ``count`` rounds of one named workload.

    ``overrides`` replace the workload's arguments (the smoke tests use
    them to shrink it).
    """
    runner, _, kwargs = WORKLOADS[name]
    expected = {} if record else load_expected().get(name, {})
    run = Run(name, seed, count, trace=trace, expected=expected, record=record)
    runner(run, **{**kwargs, **overrides})
    return run


def result_line(run: Run) -> Dict[str, object]:
    """The final stdout object: correctness counts and the metrics."""
    if run.tracer is None:
        values, units = end_to_end(run), END_TO_END
    else:
        values, units = per_layer(run), PER_LAYER
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in values.items()},
    }


def load_expected() -> Dict[str, Dict[str, Dict[str, object]]]:
    if not EXPECTED_PATH.is_file():
        return {}
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["outputs"]


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def describe(run: Run, line: Dict[str, object]) -> List[str]:
    """Human-readable lines printed before the JSON result."""
    mode = "traced" if run.tracer is not None else "run"
    out = [f"workload {run.workload}  seed {run.seed}  ops {run.attempted}  "
           f"failed {run.failed}  fail_frac {run.failed / max(run.attempted, 1):.4f}"]
    ops = [op for op in run.ops if op.ok and op.mode == mode]
    groups = _by_item(ops)
    if len(groups) <= 12:  # circuits; a campaign's jobs are all distinct
        for item, seconds in _medians(ops).items():
            out.append(f"  {item:14s} n={len(groups[item]):<4d} median {1e3 * seconds:10.2f} ms  "
                       f"{groups[item][0].gates} subject gates")
    out.append(f"  ({len(ops)} samples; percentiles are nearest-rank)")
    for name, metric in line["metrics"].items():  # type: ignore[union-attr]
        out.append(f"  {name:30s} {metric['value']:14.6g} {metric['unit']}")
    out.extend(f"  FAIL {error}" for error in run.errors[:20])
    if len(run.errors) > 20:
        out.append(f"  ... {len(run.errors) - 20} more failures")
    return out


def write_trace(run: Run, directory: str) -> List[str]:
    """Chrome trace-event file plus the per-layer self-time summary."""
    assert run.tracer is not None
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, f"{run.workload}.seed{run.seed}")
    summary = run.tracer.summary()
    total = sum(row["self_s"] for row in summary.values()) or 1.0
    layers = {
        name: {
            "calls": int(row["calls"]),
            "total_ms": 1e3 * row["total_s"],
            "self_ms": 1e3 * row["self_s"],
            "self_share": row["self_s"] / total,
        }
        for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
    }
    extra = {"workload": run.workload, "seed": run.seed, "per_layer": per_layer(run)}
    run.tracer.write(f"{stem}.trace.json", extra)
    with open(f"{stem}.layers.json", "w", encoding="utf-8") as handle:
        json.dump({**extra, "self_time": layers}, handle, indent=1)
        handle.write("\n")
    return [f"{stem}.trace.json", f"{stem}.layers.json"]


def write_expected() -> int:
    """Record the seed-0 outputs of every workload into expected.json."""
    counts = {"table3_44-3": 1, "table2_44-1": 1, "eco_44-3": GOLDEN_ROUNDS,
              "campaign_mixed": GOLDEN_JOBS}
    outputs = {}
    for name, count in counts.items():
        run = run_workload(name, 0, count=count, record=True)
        print(f"{name}: {len(run.outputs)} outputs, {run.failed} failed")
        if run.failed:
            for error in run.errors:
                print(f"  FAIL {error}")
            return 1
        # One output per line, so a changed cover is a one-line diff.
        entries = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                             for k, v in sorted(run.outputs.items()))
        outputs[name] = f" {json.dumps(name)}: {{\n{entries}\n }}"
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        handle.write('{"schema": "repro-e2e-expected/1", "seed": 0, "outputs": {\n')
        handle.write(",\n".join(outputs.values()) + "\n}}\n")
    print(f"written {EXPECTED_PATH}")
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh subprocess; the last line merges them."""
    merged: Dict[str, object] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    full: Dict[str, object] = {}
    status = 0
    for name in WORKLOADS:
        with _scratch_dir() as tmp:
            out = os.path.join(tmp, "run.json")
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--trace-dir", args.trace_dir, "--out", out]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                status = 1
            if not lines or not os.path.exists(out):
                merged["correct"] = False
                continue
            line = json.loads(lines[-1])
            with open(out, encoding="utf-8") as handle:
                full[name] = json.load(handle)
        merged["correct"] = merged["correct"] and line["correct"]
        merged["attempted"] += line["attempted"]  # type: ignore[operator]
        merged["failed"] += line["failed"]  # type: ignore[operator]
        for metric, value in line["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value  # type: ignore[index]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(full, handle, indent=1)
            handle.write("\n")
    print(json.dumps(merged))
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run length; each workload turns it into a fixed "
                             "number of rounds (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-dir", default=".bench_trace",
                        help="where a traced run writes its trace files")
    parser.add_argument("--out", help="write the full result (with details) as JSON")
    parser.add_argument("--write-expected", action="store_true",
                        help="record the seed-0 outputs into expected.json")
    args = parser.parse_args(argv)
    if args.write_expected:
        return write_expected()
    if args.workload == "all":
        return run_all(args)
    count = rounds_for(args.workload, args.seconds)
    run = run_workload(args.workload, args.seed, count, trace=bool(args.trace))
    line = result_line(run)
    print("\n".join(describe(run, line)))
    if run.tracer is not None:
        for path in write_trace(run, args.trace_dir):
            print(f"  trace written to {path}")
    if args.out:
        detail = {
            **line,
            "workload": run.workload,
            "seed": run.seed,
            "errors": run.errors,
            "ops": [vars(op) for op in run.ops],
            "outputs": run.outputs,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(detail, handle, indent=1)
            handle.write("\n")
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
