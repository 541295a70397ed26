"""Instrumentation counters: three classes, one per layer that counts.

* :class:`MatchStats` rides along with one :class:`Matcher` and counts
  the work its caches and cut filter saved or performed; it surfaces in
  :class:`repro.core.labeling.Labels`/:class:`repro.core.result.MappingResult`
  and in the per-circuit records of ``repro-map table --bench-json``.
* :class:`SimStats` accumulates the bit-parallel simulation kernel's
  invocations.
* :class:`RunStats` holds the worker pool supervisor's counters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Sequence

__all__ = ["MatchStats", "SimStats", "RunStats", "percentile"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100]).

    Nearest-rank (no interpolation) so a reported p99 is always a
    latency that actually occurred.  Returns 0.0 for an empty sample.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[min(len(ordered), int(rank)) - 1]


@dataclass
class MatchStats:
    """Counters for one matching run (one subject graph, one matcher).

    Attributes:
        signature_hits: subject nodes whose match list was replayed from a
            structurally identical node.
        signature_misses: subject nodes matched from scratch (and cached).
        feasibility_hits: structural-feasibility memo hits.
        feasibility_misses: feasibility entries computed.
        bindings_enumerated: complete bindings produced by the enumerator.
        groups_enumerated: (pattern group, subject node) enumerations run.
        matches_replayed: matches materialised via signature replay.
        cut_filter_nodes: subject nodes whose pattern loop ran under the
            matcher's cut filter (zero when the filter was off), memo
            hits included.
        cut_cone_hits: of those, nodes answered from the filter's
            kept-list memo (an equal depth-capped cone shape seen
            before) without any embed test.
        cut_patterns_pruned: patterns skipped by that filter before any
            binding enumeration.
        eco_nodes_reused: subject nodes whose label/match was spliced in
            from a previous mapping by the ECO reuse hook
            (:func:`repro.eco.eco_remap`) without consulting the matcher.
        eco_nodes_remapped: subject nodes the reuse hook declined (dirty
            region) and that went through ordinary matching.
    """

    signature_hits: int = 0
    signature_misses: int = 0
    feasibility_hits: int = 0
    feasibility_misses: int = 0
    bindings_enumerated: int = 0
    groups_enumerated: int = 0
    matches_replayed: int = 0
    cut_filter_nodes: int = 0
    cut_cone_hits: int = 0
    cut_patterns_pruned: int = 0
    eco_nodes_reused: int = 0
    eco_nodes_remapped: int = 0

    @property
    def signature_hit_rate(self) -> float:
        total = self.signature_hits + self.signature_misses
        return self.signature_hits / total if total else 0.0

    def merge(self, other: "MatchStats") -> "MatchStats":
        """Accumulate another run's counters into this one (returns self)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {f.name: getattr(self, f.name) for f in fields(self)}
        out["signature_hit_rate"] = round(self.signature_hit_rate, 4)
        return out


@dataclass
class SimStats:
    """Counters for the bit-parallel simulation kernel (:mod:`repro.network.bitsim`).

    One process-wide accumulator (``repro.network.bitsim.SIM_STATS``)
    collects every kernel invocation; the harness snapshots it around a
    run and writes the per-run ``sim_vectors_per_sec`` into the
    ``repro-map table --bench-json`` report.

    Attributes:
        runs: kernel invocations (one per simulated object per pass).
        vectors: simulation vectors evaluated, summed over runs (the
            number of active bit lanes per pass).
        seconds: wall-clock time spent inside the kernel.
        scalar_runs: invocations that ran the per-vector reference
            engine (``engine='scalar'``) instead of the packed one.
    """

    runs: int = 0
    vectors: int = 0
    seconds: float = 0.0
    scalar_runs: int = 0

    @property
    def vectors_per_sec(self) -> float:
        return self.vectors / self.seconds if self.seconds > 0 else 0.0

    def record(self, vectors: int, seconds: float, scalar: bool = False) -> None:
        """Account one kernel invocation."""
        self.runs += 1
        self.vectors += vectors
        self.seconds += seconds
        if scalar:
            self.scalar_runs += 1

    def merge(self, other: "SimStats") -> "SimStats":
        """Accumulate another run's counters into this one (returns self)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def snapshot(self) -> "SimStats":
        """An independent copy (for before/after deltas)."""
        return SimStats(self.runs, self.vectors, self.seconds, self.scalar_runs)

    def delta(self, since: "SimStats") -> "SimStats":
        """Counters accumulated after ``since`` was snapshotted."""
        return SimStats(
            self.runs - since.runs,
            self.vectors - since.vectors,
            self.seconds - since.seconds,
            self.scalar_runs - since.scalar_runs,
        )

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {f.name: getattr(self, f.name) for f in fields(self)}
        out["seconds"] = round(self.seconds, 6)
        out["sim_vectors_per_sec"] = round(self.vectors_per_sec, 1)
        return out


@dataclass
class RunStats:
    """Supervisor counters for one run of the worker pool.

    Filled by :func:`repro.perf.parallel.stream_jobs` into the instance
    its caller passes in, written into the journal's ``end`` record, the
    campaign's ``--stats-json`` and the ``run_stats`` block of
    ``repro-map table --bench-json``.

    Attributes:
        cells_total: cells requested (including resumed ones).
        cells_ok: cells that returned a real row this run.
        cells_failed: cells that ended as :class:`CellFailure` rows.
        cells_resumed: cells replayed from the resume journal.
        retries: re-dispatches after a failed attempt.
        timeouts: attempts killed by the per-cell timeout.
        crashes: attempts lost to a dead worker process.
        workers_replaced: replacement workers spawned mid-run.
        interrupted: the run was stopped by ``KeyboardInterrupt``.
        wall_s: supervisor wall-clock for the whole run.
        jobs_per_s: completed jobs per second of engine wall-clock
            (resumed cells excluded — they never hit a worker).
        p50_s / p95_s / p99_s: nearest-rank percentiles of per-job
            wall-clock (all attempts of a job summed).
        warm_hits: jobs served by a worker that already held the job's
            cache bundle (pattern set, trie and memos).
        warm_misses: jobs that had to build their bundle first.
        shard_small_jobs / shard_large_jobs: jobs routed to each shard
            of the size-sharded stream engine.
        shard_steals: small jobs executed by an idle large-shard worker.
        workers_spawned: worker processes started over the whole run.
        workers_recycled: workers retired after their job by the
            cold-dispatch baseline (``warm=False``).
    """

    cells_total: int = 0
    cells_ok: int = 0
    cells_failed: int = 0
    cells_resumed: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    workers_replaced: int = 0
    interrupted: bool = False
    wall_s: float = 0.0
    jobs_per_s: float = 0.0
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    warm_hits: int = 0
    warm_misses: int = 0
    shard_small_jobs: int = 0
    shard_large_jobs: int = 0
    shard_steals: int = 0
    workers_spawned: int = 0
    workers_recycled: int = 0

    def observe_latencies(self, latencies: Sequence[float]) -> None:
        """Fill the latency percentiles from per-job wall-clocks."""
        self.p50_s = percentile(latencies, 50)
        self.p95_s = percentile(latencies, 95)
        self.p99_s = percentile(latencies, 99)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        out["wall_s"] = round(self.wall_s, 4)
        out["jobs_per_s"] = round(self.jobs_per_s, 3)
        for name in ("p50_s", "p95_s", "p99_s"):
            out[name] = round(getattr(self, name), 6)
        return out
