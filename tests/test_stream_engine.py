"""The worker pool's one entry point (repro.perf.parallel.stream_jobs).

Exercises the pool through a generic bundle factory with cheap
picklable payloads: completion-order emission, bounded in-flight
backpressure against an instrumented lazy iterator, size sharding with
steal accounting, cold dispatch (a fresh worker per job), warm
cache-bundle counters, per-task error isolation and the fail-fast
``[R003]`` path.
"""

import multiprocessing
import signal
import time

import pytest

from repro.errors import RunnerConfigError, WorkerInitError
from repro.perf.counters import RunStats
from repro.perf.parallel import CellFailure, StreamJob, stream_jobs


def _scaled_factory(scale):
    """Module-level bundle factory (must be picklable by reference)."""

    def build(bundle_key):
        def runner(payload):
            if payload == "boom":
                raise ValueError("injected task error")
            return payload * scale

        return runner

    return build


def _broken_factory():
    """A bundle factory whose every build raises (the R003 path)."""

    def build(bundle_key):
        raise RuntimeError("cannot build this bundle")

    return build


def _sleepy_factory(seconds):
    """Bundle factory whose jobs take ``seconds`` each."""

    def build(bundle_key):
        def runner(payload):
            time.sleep(seconds)
            return payload

        return runner

    return build


def _run_stream(jobs, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("eager_bundles", ((),))
    stats = kwargs.setdefault("stats", RunStats())
    engine = stream_jobs(iter(jobs), _scaled_factory, (10,), **kwargs)
    results = list(engine)
    return results, stats


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            list(stream_jobs(iter([]), _scaled_factory, (1,), workers=0))

    def test_bad_knobs_rejected(self, monkeypatch):
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            list(stream_jobs(iter([]), _scaled_factory, (1,), workers=1,
                             cell_timeout=0))
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            list(stream_jobs(iter([]), _scaled_factory, (1,), workers=1,
                             retries=-1))
        monkeypatch.setenv("REPRO_CELL_BACKOFF", "later")
        with pytest.raises(RunnerConfigError, match="REPRO_CELL_BACKOFF"):
            list(stream_jobs(iter([]), _scaled_factory, (1,), workers=1))

    def test_eager_bundle_failure_is_coded_and_prompt(self):
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(6)]
        started = time.perf_counter()
        with pytest.raises(WorkerInitError, match=r"\[R003\]"):
            list(stream_jobs(iter(jobs), _broken_factory, workers=2,
                             eager_bundles=((),)))
        assert time.perf_counter() - started < 10.0
        assert multiprocessing.active_children() == []

    def test_empty_iterator_completes_without_results(self):
        results, stats = _run_stream([])
        assert results == []
        assert stats.workers_spawned == 0


class TestStreaming:
    def test_every_job_yields_once_with_original_index(self):
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(20)]
        results, stats = _run_stream(jobs)
        assert sorted(r.index for r in results) == list(range(20))
        for r in results:
            assert r.row == r.index * 10
            assert not r.failed
        assert stats.workers_spawned == 2

    def test_backpressure_bounds_iterator_pull(self):
        pulled = []
        workers = 2

        def feed():
            for i in range(30):
                pulled.append(i)
                yield StreamJob(label=f"t{i}", payload=i)

        consumed = 0
        engine = stream_jobs(
            feed(), _scaled_factory, (1,),
            workers=workers, eager_bundles=((),),
        )
        for _ in engine:
            consumed += 1
            # Engine invariant: in-flight (pulled minus completed) never
            # exceeds 4 * workers, and completed >= consumed here.
            assert len(pulled) <= consumed + 4 * workers + 1
        assert consumed == 30

    def test_eager_bundles_make_every_job_warm(self):
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(16)]
        results, stats = _run_stream(jobs, workers=2)
        assert stats.warm_misses == 0
        assert stats.warm_hits == 16
        assert all(r.warm for r in results)

    def test_lazy_bundles_miss_once_per_worker(self):
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(16)]
        results, stats = _run_stream(jobs, workers=2, eager_bundles=())
        assert stats.warm_misses == 2
        assert stats.warm_hits == 14
        assert sum(1 for r in results if not r.warm) == 2

    def test_task_error_becomes_failure_result(self):
        jobs = [
            StreamJob(label="ok", payload=3),
            StreamJob(label="bad", payload="boom"),
        ]
        results, stats = _run_stream(jobs, retries=1, backoff=0.0)
        by_label = {r.label: r for r in results}
        assert by_label["ok"].row == 30
        failure = by_label["bad"]
        assert failure.failed
        assert isinstance(failure.row, CellFailure)
        assert failure.row.error_type == "ValueError"
        assert failure.row.attempts == 2
        assert stats.retries == 1


class TestSharding:
    def test_weights_route_to_large_shard(self):
        jobs = [
            StreamJob(label=f"t{i}", payload=i,
                      weight=500 if i % 5 == 0 else 1)
            for i in range(20)
        ]
        results, stats = _run_stream(jobs, workers=2, large_weight=100)
        assert len(results) == 20
        assert stats.shard_large_jobs == 4
        assert stats.shard_small_jobs == 16

    def test_large_workers_steal_small_jobs_when_idle(self):
        # Only small jobs: the large-shard worker has nothing of its own
        # and must steal to stay busy.
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(40)]
        _, stats = _run_stream(jobs, workers=2, large_weight=100)
        assert stats.shard_large_jobs == 0
        assert stats.shard_steals > 0

    def test_without_large_weight_no_large_shard(self):
        jobs = [StreamJob(label=f"t{i}", payload=i, weight=10 ** 9)
                for i in range(6)]
        _, stats = _run_stream(jobs, workers=2)
        assert stats.shard_large_jobs == 0
        assert stats.shard_steals == 0


class TestRecycling:
    def test_recycle_after_one_is_cold_dispatch(self):
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(8)]
        results, stats = _run_stream(jobs, workers=2, warm=False,
                                     eager_bundles=())
        assert len(results) == 8
        assert stats.warm_hits == 0
        assert stats.warm_misses == 8
        assert stats.workers_recycled == 8
        assert stats.workers_spawned >= 8

    def test_recycled_results_match_warm_results(self):
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(10)]
        warm_results, _ = _run_stream(jobs)
        cold_results, _ = _run_stream(jobs, warm=False)
        warm_rows = {r.index: r.row for r in warm_results}
        cold_rows = {r.index: r.row for r in cold_results}
        assert warm_rows == cold_rows

    def test_latency_percentiles_populated(self):
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(10)]
        _, stats = _run_stream(jobs)
        assert stats.jobs_per_s > 0
        assert 0 < stats.p50_s <= stats.p95_s <= stats.p99_s


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX timers")
class TestInterrupt:
    def test_every_job_gets_one_row_after_ctrl_c(self):
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(40)]
        stats = RunStats()

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            results = list(stream_jobs(
                iter(jobs), _sleepy_factory, (0.2,), workers=2,
                eager_bundles=((),), stats=stats,
            ))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert sorted(r.index for r in results) == list(range(40))
        assert stats.interrupted
        assert stats.cells_total == 40
        stopped = [r for r in results if r.failed]
        assert stopped
        assert all(r.row.kind == "interrupted" for r in stopped)
        assert stats.cells_ok + stats.cells_failed == 40
        assert multiprocessing.active_children() == []
