"""The fault-tolerant warm worker pool and its one entry point.

Every fan-out in the repository — the paper's table cells
(:func:`repro.harness.experiment.run_tree_vs_dag`), mapping and tuning
campaigns (:mod:`repro.perf.campaign`, :mod:`repro.tune`) and fuzz
seeds (:func:`repro.fuzz.run.run_campaign`) — is a *job source*: it
builds :class:`StreamJob` entries and streams them through
:func:`stream_jobs`.  The pool owns everything the sources share:

* jobs come from an **unbounded iterator**, pulled only while fewer
  than ``4 * workers`` are unfinished, and results are yielded in
  **completion order** the moment they land, so an arbitrarily long
  stream runs in constant memory;
* workers hold **cache bundles**: every job names a bundle key, and a
  worker builds each distinct bundle once — eagerly at init for
  ``eager_bundles`` (a broken configuration fails fast with the coded
  ``R003`` error), lazily on first use otherwise — then reuses it for
  every later job with the same key.  ``warm=False`` retires each
  worker after one job: the cold per-job-dispatch baseline;
* any failure — an in-job exception (stringified in the worker, so
  unpicklable exceptions cannot poison the result channel), a dead
  worker process, or a job over the per-job timeout — becomes a
  structured :class:`CellFailure` row while every other job keeps
  running.  Transient failures retry with exponential backoff
  (timeouts do not: a hang is assumed deterministic), and dead or
  killed workers are replaced while work remains;
* with ``large_weight`` set, jobs at or above that weight run on a
  dedicated *large* quarter of the pool so a few heavy circuits cannot
  head-of-line block the small ones; idle large workers steal small
  jobs, small workers never take large ones;
* jobs carrying a journal key are appended to a ``repro-run-journal/1``
  file (:mod:`repro.perf.journal`) as they finish, and ``resume``
  replays every job recorded ``ok`` under the same key without
  dispatching it;
* ``KeyboardInterrupt`` shuts the pool down gracefully: every job the
  source yields still gets exactly one result, unfinished ones as
  ``interrupted`` failure rows.

Deterministic fault injection for tests and CI::

    REPRO_FAULT_INJECT="crash:C432s,hang:C880s,flaky:C1908s"

``crash`` hard-exits the worker (``os._exit``), ``hang`` sleeps forever
(pair it with a timeout), ``flaky`` raises on the first attempt only —
exercising crash isolation, timeout replacement and bounded retry
respectively.  Labels are the targets: suite circuit names, campaign
job labels, ``seed<N>`` for fuzz seeds.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro import env
from repro.errors import (
    EnvVarError,
    RunnerConfigError,
    UnknownLibrarySpecError,
    WorkerInitError,
)
from repro.perf.counters import RunStats
from repro.perf.journal import CellKey, JournalWriter, load_journal

if TYPE_CHECKING:
    from repro.library.gate import GateLibrary

__all__ = [
    "BUILTIN_SPECS",
    "CellFailure",
    "StreamJob",
    "StreamResult",
    "default_jobs",
    "resolve_library",
    "stream_jobs",
]

#: Builtin library specs accepted by :func:`resolve_library` (anything
#: else must be a readable genlib file).
BUILTIN_SPECS: Tuple[str, ...] = ("lib2", "44-1", "44-3", "mini")

#: Default bounded-retry budget for transient (error/crash) failures.
DEFAULT_RETRIES = 2

#: Default base delay (seconds) of the exponential retry backoff.
DEFAULT_BACKOFF = 0.05

#: Supervisor poll tick (seconds): the granularity of timeout
#: enforcement and dead-worker detection.
_TICK = 0.05

#: A bundle key: any hashable, picklable tuple understood by the
#: source's bundle factory (e.g. ``(library, variants, kind, engine)``).
BundleKey = Tuple[object, ...]

#: ``factory(*factory_args)`` runs once per worker process and returns
#: ``build(bundle_key) -> runner``; ``runner(payload)`` runs one job.
BundleFactory = Callable[..., Callable[[BundleKey], Callable[[Any], Any]]]

#: Per-worker state installed by the worker initializer.
_STATE: dict = {}


@dataclass
class CellFailure:
    """A structured failure row standing in for one job's result.

    Attributes:
        circuit: the label of the failed job (a suite circuit name for
            table cells).
        iscas: the ISCAS tag of the circuit; the table source fills it
            in, other sources leave it empty.
        kind: ``"error"`` (in-job exception), ``"crash"`` (worker
            process died), ``"timeout"`` (per-job timeout exceeded) or
            ``"interrupted"`` (run stopped by ``KeyboardInterrupt``).
        error: human-readable failure text (exception text, exit code,
            or timeout description).
        error_type: exception class name or a synthetic tag
            (``WorkerCrash``/``CellTimeout``/``RunInterrupted``).
        attempts: attempts consumed before giving up.
        wall_s: wall-clock spent across all attempts of this job.
    """

    circuit: str
    iscas: str
    kind: str
    error: str
    error_type: str
    attempts: int
    wall_s: float

    #: Duck-typing marker: ``getattr(row, "failed", False)`` separates
    #: failure rows from real rows without importing this module.
    failed = True

    def as_dict(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit,
            "iscas": self.iscas,
            "kind": self.kind,
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "wall_s": round(self.wall_s, 6),
        }


def resolve_library(spec: str) -> "GateLibrary":
    """Build a library from a respawnable spec (builtin name or genlib path).

    A spec containing ``@`` is a *variant spec* —
    ``base@drop=..+delay=..+area=..+seed=..`` — expanded by
    :mod:`repro.library.variants`: the base resolves recursively and the
    suffix applies a deterministic, seed-keyed perturbation.  (The
    ``@`` form takes precedence over file lookup, so genlib paths must
    not contain ``@``.)

    Raises:
        UnknownLibrarySpecError: (code ``R001``) when ``spec`` is neither
            a builtin name nor an existing genlib file — naming the spec
            and listing the valid builtins so CLI users can self-correct.
        LibraryError: a variant suffix is malformed.
    """
    if "@" in spec:
        from repro.library.variants import apply_variant, parse_variant_spec

        variant = parse_variant_spec(spec)
        return apply_variant(resolve_library(variant.base), variant)

    from repro.library.builtin import lib2_like, lib44_1, lib44_3, mini_library

    builders = {
        "lib2": lib2_like,
        "44-1": lib44_1,
        "44-3": lib44_3,
        "mini": mini_library,
    }
    if tuple(builders) != BUILTIN_SPECS:
        raise RunnerConfigError(
            "builtin library table out of sync with BUILTIN_SPECS: "
            f"{tuple(builders)} != {BUILTIN_SPECS}"
        )
    if spec in builders:
        return builders[spec]()
    if not os.path.isfile(spec):
        raise UnknownLibrarySpecError(spec, BUILTIN_SPECS)
    from repro.library.genlib import read_genlib

    return read_genlib(spec)


def default_jobs() -> int:
    """A sensible ``--jobs`` default: the CPUs *this process may use*.

    ``os.sched_getaffinity`` respects cgroup/container CPU restrictions
    and ``taskset``; the bare ``os.cpu_count()`` (the seed behaviour)
    over-subscribes restricted containers.  Falls back to ``cpu_count``
    (then 1) where the affinity API does not exist (macOS, Windows) or
    exists but fails at runtime (some BSDs raise ``OSError``).
    """
    getter = getattr(os, "sched_getaffinity", None)
    if getter is None:
        return os.cpu_count() or 1
    try:
        affinity = len(getter(0))
    except OSError:
        affinity = 0
    return affinity or os.cpu_count() or 1


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _init_worker(
    factory: BundleFactory,
    factory_args: Tuple[object, ...],
    eager: Tuple[BundleKey, ...],
) -> None:
    """Worker initializer: install the bundle factory and eager bundles.

    ``factory`` must be a picklable (module-level) callable;
    ``factory(*factory_args)`` runs once per worker process and returns
    ``build(bundle_key) -> runner``.  Each key in ``eager`` is built
    immediately — so a broken configuration fails at init (``R003``)
    rather than per job — and any other key a job later names is built
    lazily on first use and cached for the worker's lifetime.  Built
    bundles never cross the process boundary, so they may hold
    arbitrarily heavy state (pattern sets, NPN tables, matcher memos).
    """
    build = factory(*factory_args)
    bundles = {bundle_key: build(bundle_key) for bundle_key in eager}
    _STATE.clear()  # repro: allow[S202] per-worker state
    _STATE["build"] = build  # repro: allow[S202] per-worker state
    _STATE["bundles"] = bundles  # repro: allow[S202] per-worker state


def _run_task(payload: object) -> object:
    """Run one job: ``payload`` is ``(bundle_key, inner_payload)``.

    Returns a ``(warm, row)`` envelope: ``warm`` is True when the
    worker already held the job's cache bundle (the supervisor turns
    this into the ``warm_hits``/``warm_misses`` counters).
    """
    bundle_key, inner = payload  # type: ignore[misc]
    bundles = _STATE["bundles"]
    runner = bundles.get(bundle_key)
    warm = runner is not None
    if runner is None:
        runner = _STATE["build"](bundle_key)
        bundles[bundle_key] = runner
    return (warm, runner(inner))


def _inject_fault(name: str, attempt: int) -> None:
    """Deterministic test hook: honour ``REPRO_FAULT_INJECT``.

    The variable is a comma-separated list of ``mode:label`` items;
    modes are ``crash`` (hard ``os._exit``, every attempt), ``hang``
    (sleep forever, every attempt) and ``flaky`` (raise on the first
    attempt only, succeed on retry).
    """
    spec = env.read_str("REPRO_FAULT_INJECT", "") or ""
    for item in spec.split(","):
        mode, sep, target = item.strip().partition(":")
        if not sep or target != name:
            continue
        if mode == "crash":
            os._exit(13)
        elif mode == "hang":
            while True:  # pragma: no cover - killed by the supervisor
                time.sleep(3600)
        elif mode == "flaky" and attempt == 0:
            raise RuntimeError(
                f"injected flaky failure for {name!r} (attempt {attempt})"
            )


def _worker_main(
    worker_id: int,
    inbox: multiprocessing.Queue,
    results: multiprocessing.connection.Connection,
    initargs: tuple,
) -> None:
    """One worker process: init once, then run single tasks.

    ``results`` is this worker's private end of a one-way pipe — each
    worker is the sole producer on its own channel, so a worker that
    dies mid-send (a real crash, the injected ``os._exit``, a timeout
    kill) can never leave a lock held that would deadlock its siblings,
    which a shared ``multiprocessing.Queue`` feeder thread can.

    Messages (parsed only by :func:`stream_jobs`)::

        ("init_failed", worker_id, text)
        ("done", worker_id, index, attempt, (warm, row), wall)
        ("fail", worker_id, index, attempt, error_type, text, wall)
    """
    try:
        _init_worker(*initargs)
    except KeyboardInterrupt:  # pragma: no cover - parent shuts us down
        return
    except BaseException as exc:
        try:
            results.send(("init_failed", worker_id, _describe(exc)))
        finally:
            return
    while True:
        try:
            task = inbox.get()
        except (KeyboardInterrupt, EOFError, OSError):  # pragma: no cover
            return
        if task is None:
            return
        task_id, label, payload, attempt = task
        started = time.perf_counter()
        try:
            _inject_fault(label, attempt)
            row = _run_task(payload)
            wall = time.perf_counter() - started
            results.send(("done", worker_id, task_id, attempt, row, wall))
        except KeyboardInterrupt:  # pragma: no cover
            return
        except BaseException as exc:
            wall = time.perf_counter() - started
            message = ("fail", worker_id, task_id, attempt,
                       type(exc).__name__, _describe(exc), wall)
            try:
                results.send(message)
            except BaseException:  # pragma: no cover - result channel broken
                os._exit(17)


def _describe(exc: BaseException) -> str:
    """Stringify an exception so it always crosses the process boundary."""
    try:
        text = str(exc)
    except Exception:  # pragma: no cover - pathological __str__
        text = "<unprintable exception>"
    name = type(exc).__name__
    return f"{name}: {text}" if text else name


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------


@dataclass
class StreamJob:
    """One unit of streamed work.

    Attributes:
        label: display name; also the target of ``REPRO_FAULT_INJECT``.
        payload: picklable argument handed to the bundle's runner.
        bundle: cache-bundle key this job needs (see module docstring).
        weight: size hint for sharding; jobs with ``weight >=
            large_weight`` go to the large-worker shard.
        key: optional journal identity; when set the finished job is
            journalled, and a resumed run replays it.
    """

    label: str
    payload: object
    bundle: BundleKey = ()
    weight: int = 0
    key: Optional[CellKey] = None


@dataclass
class StreamResult:
    """One finished job, yielded in completion order.

    Attributes:
        index: 0-based position of the job in the input stream.
        label: the job's label.
        row: the runner's return value, or a :class:`CellFailure` when
            ``failed``.
        failed: True when ``row`` is a failure row.
        warm: the worker already held the job's cache bundle.
        worker_id: id of the worker that produced the result (-1 for
            failures and for rows replayed from the resume journal).
        attempts: attempts consumed (0 for replayed rows).
        wall_s: wall-clock across all attempts of this job.
    """

    index: int
    label: str
    row: object
    failed: bool
    warm: bool
    worker_id: int
    attempts: int
    wall_s: float


@dataclass
class _Worker:
    """Supervisor-side worker handle."""

    proc: multiprocessing.process.BaseProcess
    inbox: Any
    conn: Any
    shard: str
    task: Optional[Tuple[int, int]] = None  # (index, attempt)
    assigned_at: float = 0.0


def _resolve_knobs(
    cell_timeout: Optional[float],
    retries: Optional[int],
    backoff: Optional[float],
) -> Tuple[Optional[float], int, float]:
    """Resolve timeout/retries/backoff: argument, then env, then default.

    Raises:
        RunnerConfigError: a non-numeric ``REPRO_CELL_*`` value or an
            out-of-range knob (``R002``).
    """
    try:
        if cell_timeout is None:
            cell_timeout = env.read_float("REPRO_CELL_TIMEOUT", None)
        if retries is None:
            retries = env.read_int("REPRO_CELL_RETRIES", DEFAULT_RETRIES)
        if backoff is None:
            backoff = env.read_float("REPRO_CELL_BACKOFF", DEFAULT_BACKOFF)
    except EnvVarError as exc:
        raise RunnerConfigError(f"[R002] {exc}") from None
    if cell_timeout is not None and cell_timeout <= 0:
        raise RunnerConfigError(
            f"[R002] cell timeout must be positive, got {cell_timeout!r}"
        )
    if retries is None or retries < 0:
        raise RunnerConfigError(f"[R002] retries must be >= 0, got {retries!r}")
    if backoff is None or backoff < 0:
        raise RunnerConfigError(f"[R002] backoff must be >= 0, got {backoff!r}")
    return cell_timeout, int(retries), float(backoff)


def stream_jobs(
    jobs: Iterable[StreamJob],
    factory: BundleFactory,
    factory_args: Tuple[object, ...] = (),
    *,
    workers: Optional[int] = None,
    warm: bool = True,
    eager_bundles: Sequence[BundleKey] = (),
    large_weight: Optional[int] = None,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    journal: Optional[str] = None,
    resume: Optional[str] = None,
    row_type: Optional[Type[Any]] = None,
    stats: Optional[RunStats] = None,
) -> Iterator[StreamResult]:
    """Stream ``jobs`` through the supervised warm-worker pool.

    Yields exactly one :class:`StreamResult` per job, **in completion
    order**; consume lazily for constant-memory runs and ``close()`` the
    stream to shut the pool down early.

    Args:
        jobs: the job source; pulled lazily (at most ``4 * workers``
            unfinished jobs at a time).
        factory / factory_args: the picklable bundle factory run once
            per worker (see :func:`_init_worker`).
        workers: worker processes (default: the schedulable CPU count),
            capped at the number of jobs when the source is short.
        warm: keep workers (and their bundles) across jobs; ``False``
            retires every worker after one job.
        eager_bundles: bundle keys every worker builds at init.
        large_weight: jobs at least this heavy run on the large shard.
        cell_timeout: per-attempt wall-clock budget in seconds; a job
            over budget has its worker killed and replaced.  Defaults to
            ``REPRO_CELL_TIMEOUT`` (unset = no timeout).
        retries: retry budget for transient failures (in-job exceptions
            and worker crashes).  Defaults to ``REPRO_CELL_RETRIES`` or 2.
        backoff: base of the exponential retry backoff
            (``backoff * 2**attempt`` seconds).  Defaults to
            ``REPRO_CELL_BACKOFF`` or 0.05.
        journal: append one JSONL record per finished keyed job.
        resume: replay a previous journal: keyed jobs recorded ``ok``
            come back without running (``attempts=0``, ``worker_id=-1``)
            and new records append to it unless ``journal`` is given.
        row_type: dataclass that replayed row payloads are rebuilt into
            (the raw payload dict when None).
        stats: accumulates the run's counters (totals, retries,
            timeouts, crashes, warm hits, shard occupancy, latency
            percentiles, jobs/s, wall-clock); its final state is the
            journal's ``end`` record.

    Raises:
        RunnerConfigError: bad ``workers`` or knob values (``R002``).
        WorkerInitError: a worker's bundle factory failed (``R003``).
        JournalError: unreadable ``resume`` journal (``R004``).
    """
    if workers is None:
        workers = default_jobs()
    if workers < 1:
        raise RunnerConfigError(f"[R002] workers must be >= 1, got {workers!r}")
    cell_timeout, retries, backoff = _resolve_knobs(cell_timeout, retries, backoff)
    replay = load_journal(resume) if resume is not None else None
    journal_path = journal if journal is not None else resume
    writer = JournalWriter(journal_path) if journal_path else None
    run_stats = stats if stats is not None else RunStats()
    inflight_cap = 4 * workers
    sharded = large_weight is not None and workers >= 2
    n_large = max(1, min(workers - 1, round(workers / 4))) if sharded else 0

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    initargs = (factory, factory_args, tuple(eager_bundles))

    source = iter(jobs)
    exhausted = False
    seen: List[StreamJob] = []
    done: Set[int] = set()
    ready_small: Deque[Tuple[int, int]] = deque()
    ready_large: Deque[Tuple[int, int]] = deque()
    delayed: List[Tuple[float, int, int]] = []  # (eligible_at, index, attempt)
    cell_wall: Dict[int, float] = {}
    latencies: List[float] = []
    pool: Dict[int, _Worker] = {}
    retiring: List[_Worker] = []
    next_wid = 0
    emit: Deque[StreamResult] = deque()
    started = time.perf_counter()

    def enqueue(index: int, attempt: int) -> None:
        if sharded and seen[index].weight >= int(large_weight or 0):
            ready_large.append((index, attempt))
            if attempt == 0:
                run_stats.shard_large_jobs += 1
        else:
            ready_small.append((index, attempt))
            if attempt == 0:
                run_stats.shard_small_jobs += 1

    def pull() -> Optional[int]:
        """Take the next job from the source; its index, or None at the end."""
        nonlocal exhausted
        try:
            job = next(source)
        except StopIteration:
            exhausted = True
            return None
        seen.append(job)
        run_stats.cells_total += 1
        cell_wall[len(seen) - 1] = 0.0
        return len(seen) - 1

    def refill() -> None:
        while not exhausted and len(seen) - len(done) < inflight_cap:
            index = pull()
            if index is None:
                return
            job = seen[index]
            row = (
                replay.completed_row(job.key, row_type)
                if replay is not None and job.key is not None
                else None
            )
            if row is None:
                enqueue(index, 0)
                continue
            run_stats.cells_resumed += 1
            done.add(index)
            emit.append(StreamResult(
                index=index, label=job.label, row=row, failed=False,
                warm=True, worker_id=-1, attempts=0, wall_s=0.0,
            ))

    def work_remains() -> bool:
        return bool(ready_small or ready_large or delayed) or not exhausted

    def spawn(shard: str) -> None:
        nonlocal next_wid
        inbox = ctx.SimpleQueue()
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(next_wid, inbox, send_conn, initargs),
            daemon=True,
            name=f"repro-pool-worker-{next_wid}",
        )
        proc.start()
        send_conn.close()  # child keeps its copy; parent only reads
        pool[next_wid] = _Worker(
            proc=proc, inbox=inbox, conn=recv_conn, shard=shard
        )
        next_wid += 1
        run_stats.workers_spawned += 1

    def drain(conn: multiprocessing.connection.Connection) -> List[tuple]:
        messages: List[tuple] = []
        try:
            while conn.poll():
                messages.append(conn.recv())
        except (EOFError, OSError):
            pass  # sender died; the liveness sweep owns its task
        return messages

    def finish(result: StreamResult) -> None:
        done.add(result.index)
        latencies.append(result.wall_s)
        if result.failed:
            run_stats.cells_failed += 1
        else:
            run_stats.cells_ok += 1
        emit.append(result)

    def finish_failed(index: int, failure: CellFailure) -> None:
        finish(StreamResult(
            index=index, label=seen[index].label, row=failure, failed=True,
            warm=False, worker_id=-1, attempts=failure.attempts,
            wall_s=failure.wall_s,
        ))

    def finish_ok(
        index: int, worker_id: int, warm_hit: bool, row: object,
        attempt: int, wall: float,
    ) -> None:
        cell_wall[index] += wall
        if warm_hit:
            run_stats.warm_hits += 1
        else:
            run_stats.warm_misses += 1
        job = seen[index]
        if writer is not None and job.key is not None:
            writer.cell_ok(job.key, row, attempt + 1, cell_wall[index])
        finish(StreamResult(
            index=index, label=job.label, row=row, failed=False,
            warm=warm_hit, worker_id=worker_id, attempts=attempt + 1,
            wall_s=cell_wall[index],
        ))

    def attempt_failed(
        index: int,
        attempt: int,
        fail_kind: str,
        error_type: str,
        error: str,
        wall: float,
        retryable: bool,
    ) -> None:
        cell_wall[index] += wall
        if retryable and attempt < retries:
            run_stats.retries += 1
            eligible = time.perf_counter() + backoff * (2 ** attempt)
            delayed.append((eligible, index, attempt + 1))
            return
        job = seen[index]
        failure = CellFailure(
            circuit=job.label,
            iscas="",
            kind=fail_kind,
            error=error,
            error_type=error_type,
            attempts=attempt + 1,
            wall_s=cell_wall[index],
        )
        if writer is not None and job.key is not None:
            writer.cell_failed(
                job.key, failure.as_dict(), failure.attempts, failure.wall_s
            )
        finish_failed(index, failure)

    def interrupted(index: int) -> None:
        finish_failed(index, CellFailure(
            circuit=seen[index].label,
            iscas="",
            kind="interrupted",
            error="run interrupted before this job finished",
            error_type="RunInterrupted",
            attempts=0,
            wall_s=cell_wall[index],
        ))

    def retire(worker_id: int) -> None:
        worker = pool.pop(worker_id)
        try:
            worker.inbox.put(None)
        except (OSError, ValueError):  # pragma: no cover - inbox closed
            pass
        retiring.append(worker)
        run_stats.workers_recycled += 1
        if work_remains():
            spawn(worker.shard)

    def handle(message: tuple) -> None:
        tag = message[0]
        if tag == "init_failed":
            _, _worker_id, text = message
            raise WorkerInitError(
                f"[R003] pool worker failed to initialise: {text}"
            )
        _, worker_id, index, attempt, *rest = message
        worker = pool.get(worker_id)
        if (
            worker is None
            or worker.task != (index, attempt)
            or index in done
        ):
            return  # stale message from a worker we already killed
        worker.task = None
        if tag == "done":
            envelope, wall = rest
            warm_hit, row = envelope
            finish_ok(index, worker_id, bool(warm_hit), row, attempt, wall)
        else:  # "fail"
            error_type, error, wall = rest
            attempt_failed(
                index, attempt, "error", error_type, error, wall,
                retryable=True,
            )
        if not warm:
            retire(worker_id)

    def reap_worker(worker_id: int, kill: bool) -> None:
        worker = pool.pop(worker_id)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        if kill and worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(1.0)
            if worker.proc.is_alive():  # pragma: no cover - stubborn child
                worker.proc.kill()
                worker.proc.join(1.0)
        else:
            worker.proc.join(0.1)
        if work_remains() and len(pool) < workers:
            run_stats.workers_replaced += 1
            spawn(worker.shard)

    try:
        try:
            refill()
            to_spawn = workers if not exhausted else min(
                workers, len(seen) - len(done)
            )
            if writer is not None:
                writer.start(to_spawn, cell_timeout, retries)
            large_target = min(n_large, max(0, to_spawn - 1))
            for i in range(to_spawn):
                spawn("large" if i < large_target else "small")
            while True:
                refill()
                if exhausted and len(done) >= len(seen):
                    break
                now = time.perf_counter()
                for entry in sorted(delayed):
                    if entry[0] <= now:
                        delayed.remove(entry)
                        enqueue(entry[1], entry[2])  # retries keep their shard
                for worker in pool.values():
                    if worker.task is not None:
                        continue
                    ready: Optional[Tuple[int, int]] = None
                    if worker.shard == "large":
                        if ready_large:
                            ready = ready_large.popleft()
                        elif ready_small:
                            ready = ready_small.popleft()
                            run_stats.shard_steals += 1
                    elif ready_small:
                        ready = ready_small.popleft()
                    if ready is None:
                        continue
                    index, attempt = ready
                    job = seen[index]
                    worker.task = ready
                    worker.assigned_at = now
                    worker.inbox.put(
                        (index, job.label, (job.bundle, job.payload), attempt)
                    )
                conns = [worker.conn for worker in pool.values()]
                if conns:
                    try:
                        readable = multiprocessing.connection.wait(
                            conns, timeout=_TICK
                        )
                    except OSError:  # pragma: no cover - closed under us
                        readable = []
                else:  # pragma: no cover - pool between reap and spawn
                    time.sleep(_TICK)
                    readable = []
                for conn in readable:
                    for message in drain(conn):
                        handle(message)
                now = time.perf_counter()
                for worker_id in list(pool):
                    worker = pool[worker_id]
                    if not worker.proc.is_alive():
                        # A result sent before death wins over the crash
                        # verdict: drain the private pipe first.
                        for message in drain(worker.conn):
                            handle(message)
                        if worker_id not in pool:
                            continue  # retired while draining
                        if worker.task is not None:
                            run_stats.crashes += 1
                            index, attempt = worker.task
                            attempt_failed(
                                index,
                                attempt,
                                "crash",
                                "WorkerCrash",
                                "worker process died with exit code "
                                f"{worker.proc.exitcode}",
                                now - worker.assigned_at,
                                retryable=True,
                            )
                        reap_worker(worker_id, kill=False)
                    elif (
                        worker.task is not None
                        and cell_timeout is not None
                        and now - worker.assigned_at > cell_timeout
                    ):
                        run_stats.timeouts += 1
                        index, attempt = worker.task
                        attempt_failed(
                            index,
                            attempt,
                            "timeout",
                            "CellTimeout",
                            f"cell exceeded the {cell_timeout:g}s per-cell "
                            "timeout; worker killed and replaced",
                            now - worker.assigned_at,
                            retryable=False,
                        )
                        reap_worker(worker_id, kill=True)
                for retired in list(retiring):
                    if not retired.proc.is_alive():
                        retired.proc.join(0.1)
                        try:
                            retired.conn.close()
                        except OSError:  # pragma: no cover
                            pass
                        retiring.remove(retired)
                while emit:
                    yield emit.popleft()
        except KeyboardInterrupt:
            run_stats.interrupted = True
            for index in range(len(seen)):
                if index not in done:
                    interrupted(index)
            # Jobs never pulled still owe the caller a row.
            late = pull()
            while late is not None:
                interrupted(late)
                late = pull()
    finally:
        for worker in list(pool.values()) + retiring:
            if worker.proc.is_alive() and worker.task is None:
                try:
                    worker.inbox.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        deadline = time.perf_counter() + 1.0
        for worker in list(pool.values()) + retiring:
            worker.proc.join(max(0.0, deadline - time.perf_counter()))
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(1.0)
                if worker.proc.is_alive():  # pragma: no cover
                    worker.proc.kill()
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        run_stats.wall_s = time.perf_counter() - started
        run_stats.jobs_per_s = (
            len(latencies) / run_stats.wall_s if run_stats.wall_s > 0 else 0.0
        )
        run_stats.observe_latencies(latencies)
        if writer is not None:
            writer.end(run_stats.as_dict())
    while emit:
        yield emit.popleft()
