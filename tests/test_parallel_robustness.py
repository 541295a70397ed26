"""Fault tolerance of the worker pool (repro.perf.parallel).

Table cells reach the pool through ``run_tree_vs_dag(...,
library_spec=...)``; the generic pool tests call ``stream_jobs``
directly.  Every failure mode is exercised through the deterministic
``REPRO_FAULT_INJECT`` hook: worker crashes and hangs must yield
structured :class:`CellFailure` rows without aborting the run, retries
must be bounded, the JSONL journal must make runs resumable, and a
clean supervised run must reproduce the serial rows exactly.
"""

import dataclasses
import json

import pytest

from repro.core.match import MatchKind
from repro.errors import (
    JournalError,
    RunnerConfigError,
    UnknownLibrarySpecError,
)
from repro.harness.experiment import (
    ComparisonRow,
    run_tree_vs_dag,
    tree_vs_dag_cell,
)
from repro.library.builtin import mini_library
from repro.library.patterns import PatternSet
from repro.perf import journal as journal_mod
from repro.perf.parallel import (
    BUILTIN_SPECS,
    CellFailure,
    StreamJob,
    default_jobs,
    resolve_library,
    stream_jobs,
)

SPEC = "mini"
KIND = MatchKind.STANDARD
NAMES = ["C432s", "C880s", "C1908s"]

#: Wall-clock fields that legitimately differ between two runs of the
#: same cell; everything else in a row must be byte-identical.
_TIMING_FIELDS = {"tree_cpu", "dag_cpu", "sim_counters"}


def _cells(names, spec=SPEC, **kwargs):
    """Table cells through the pool (the library object goes unused)."""
    return run_tree_vs_dag(
        mini_library(), names=names, kind=KIND, library_spec=spec, **kwargs
    )


def _run(names=NAMES, **kwargs):
    kwargs.setdefault("verify", False)
    kwargs.setdefault("jobs", 2)
    return _cells(names, **kwargs)


def _serial_rows(names=NAMES, verify=False):
    patterns = PatternSet(resolve_library(SPEC), max_variants=8)
    return [
        tree_vs_dag_cell(name, patterns, kind=KIND, verify=verify)
        for name in names
    ]


def _stable(row):
    payload = dataclasses.asdict(row)
    return {k: v for k, v in payload.items() if k not in _TIMING_FIELDS}


class TestConfigValidation:
    def test_empty_names_returns_empty_without_workers(self):
        assert _cells([], jobs=2) == []

    @pytest.mark.parametrize("jobs", [0, -1, -8])
    def test_bad_jobs_raises_coded_error(self, jobs):
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            _cells(NAMES, jobs=jobs)

    def test_bad_timeout_and_retries(self):
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            _run(cell_timeout=0.0)
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            _run(retries=-1)

    def test_env_timeout_must_be_numeric(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "soon")
        with pytest.raises(RunnerConfigError, match="REPRO_CELL_TIMEOUT"):
            _run()

    def test_unknown_spec_raises_before_spawning(self):
        with pytest.raises(UnknownLibrarySpecError, match=r"\[R001\]"):
            _cells(NAMES, spec="lib3", jobs=2)

    def test_resolve_library_error_lists_builtins(self):
        with pytest.raises(UnknownLibrarySpecError) as info:
            resolve_library("no-such-library")
        message = str(info.value)
        for spec in BUILTIN_SPECS:
            assert spec in message
        assert "no-such-library" in message

    def test_runner_options_without_spec_rejected(self):
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            run_tree_vs_dag(
                PatternSet(mini_library()), names=["C432s"], journal="x.jsonl"
            )


class TestDefaultJobs:
    def test_prefers_scheduler_affinity(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert default_jobs() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 5)
        assert default_jobs() == 5

    def test_never_below_one(self, monkeypatch):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert default_jobs() == 1

    def test_affinity_oserror_falls_back_to_cpu_count(self, monkeypatch):
        def boom(pid):
            raise OSError("no affinity for this process")

        monkeypatch.setattr("os.sched_getaffinity", boom, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        assert default_jobs() == 3


class TestFaultInjection:
    def test_crash_is_isolated_and_bounded(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:C880s")
        rows = _run(retries=1)
        assert not getattr(rows[0], "failed", False)
        assert not getattr(rows[2], "failed", False)
        failure = rows[1]
        assert isinstance(failure, CellFailure)
        assert failure.circuit == "C880s"
        assert failure.iscas == "C880"
        assert failure.kind == "crash"
        assert failure.error_type == "WorkerCrash"
        assert failure.attempts == 2  # initial try + 1 bounded retry
        assert "exit code" in failure.error
        # the healthy neighbours are real rows, identical to serial.
        serial = _serial_rows()
        assert _stable(rows[0]) == _stable(serial[0])
        assert _stable(rows[2]) == _stable(serial[2])

    def test_hang_is_killed_by_cell_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "hang:C432s")
        rows = _run(names=["C432s", "C880s"], cell_timeout=1.0)
        failure = rows[0]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "timeout"
        assert failure.attempts == 1  # timeouts are not retried
        assert "timeout" in failure.error
        assert not getattr(rows[1], "failed", False)

    def test_flaky_cell_recovers_on_retry(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "flaky:C432s")
        journal = str(tmp_path / "run.jsonl")
        rows = _run(retries=2, journal=journal)
        assert all(not getattr(r, "failed", False) for r in rows)
        state = journal_mod.load_journal(journal)
        record = next(
            r for r in state.records
            if r.get("event") == "cell" and r.get("name") == "C432s"
        )
        assert record["status"] == "ok"
        assert record["attempts"] == 2

    def test_retries_exhaust_for_persistent_errors(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:C432s")
        rows = _run(names=["C432s"], jobs=1, retries=0)
        assert rows[0].attempts == 1


class TestJournalResume:
    def test_resume_skips_finished_and_reruns_failures(
        self, monkeypatch, tmp_path
    ):
        journal = str(tmp_path / "run.jsonl")
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:C880s")
        first = _run(retries=0, journal=journal)
        assert isinstance(first[1], CellFailure)

        monkeypatch.delenv("REPRO_FAULT_INJECT")
        resumed = _run(resume=journal)
        assert all(not getattr(r, "failed", False) for r in resumed)
        # the resumed run recomputed only the crashed cell: the healthy
        # cells have exactly one journal record across both runs.
        state = journal_mod.load_journal(journal)
        cell_records = [
            r for r in state.records if r.get("event") == "cell"
        ]
        by_name = {}
        for record in cell_records:
            by_name.setdefault(record["name"], []).append(record["status"])
        assert by_name["C432s"] == ["ok"]
        assert by_name["C1908s"] == ["ok"]
        assert by_name["C880s"] == ["failed", "ok"]
        # ... and the merged rows equal an uninterrupted serial run.
        serial = _serial_rows()
        assert [_stable(r) for r in resumed] == [_stable(r) for r in serial]

    def test_resume_ignores_cells_with_other_configuration(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        _run(names=["C432s"], jobs=1, journal=journal, verify=False)
        state = journal_mod.load_journal(journal)
        key_other = journal_mod.cell_key(SPEC, KIND.value, "C432s", 8, True, False)
        key_same = journal_mod.cell_key(SPEC, KIND.value, "C432s", 8, False, False)
        assert state.completed_row(key_other) is None
        assert state.completed_row(key_same) is not None

    def test_journal_row_payload_roundtrips_exactly(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        rows = _run(names=["C432s"], jobs=1, journal=journal)
        state = journal_mod.load_journal(journal)
        key = journal_mod.cell_key(SPEC, KIND.value, "C432s", 8, False, False)
        rebuilt = state.completed_row(key, ComparisonRow)
        assert dataclasses.asdict(rebuilt) == dataclasses.asdict(rows[0])

    def test_missing_journal_raises_coded_error(self, tmp_path):
        with pytest.raises(JournalError, match=r"\[R004\]"):
            journal_mod.load_journal(str(tmp_path / "absent.jsonl"))

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        _run(names=["C432s"], jobs=1, journal=journal)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"event": "cell", "name": "C880')  # killed mid-write
        state = journal_mod.load_journal(journal)
        key = journal_mod.cell_key(SPEC, KIND.value, "C432s", 8, False, False)
        assert state.completed_row(key) is not None

    def test_malformed_interior_line_is_an_error(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write(json.dumps({"event": "end"}) + "\n")
        with pytest.raises(JournalError, match=r"\[R004\]"):
            journal_mod.load_journal(journal)


class TestCleanRunEquivalence:
    def test_supervised_rows_identical_to_serial(self):
        rows = _run(verify=True)
        serial = _serial_rows(verify=True)
        assert [_stable(r) for r in rows] == [_stable(r) for r in serial]
        assert all(r.verified for r in rows)

    def test_bench_records_account_for_failures(self):
        from repro.perf.benchjson import rows_to_records

        rows = _serial_rows(names=["C432s"])
        failure = CellFailure(
            circuit="C880s", iscas="C880", kind="timeout",
            error="cell exceeded the 1s per-cell timeout",
            error_type="CellTimeout", attempts=1, wall_s=1.0,
        )
        records = rows_to_records(rows + [failure])
        assert len(records) == 2
        assert "failed" not in records[0]
        assert records[1]["failed"] is True
        assert records[1]["kind"] == "timeout"
        assert records[1]["circuit"] == "C880s"

    def test_run_tree_vs_dag_journal_path(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        rows = run_tree_vs_dag(
            PatternSet(mini_library()),
            names=["C432s"],
            verify=False,
            library_spec=SPEC,
            journal=journal,
        )
        assert len(rows) == 1 and not getattr(rows[0], "failed", False)
        events = [r.get("event") for r in journal_mod.load_journal(journal).records]
        assert events[0] == "start" and "cell" in events and events[-1] == "end"


# ----------------------------------------------------------------------
# Generic task pool (stream_jobs)
# ----------------------------------------------------------------------


def _square_factory(offset):
    """Module-level so the bundle factory is picklable under spawn."""

    def build(bundle_key):
        def runner(payload):
            if payload == "boom":
                raise RuntimeError("injected task error")
            return offset + payload * payload

        return runner

    return build


def _pool(offset, payloads, labels=None, **kwargs):
    """Run payloads through ``stream_jobs``; rows in payload order."""
    if labels is None:
        labels = [f"task{i}" for i in range(len(payloads))]
    jobs = [
        StreamJob(label=label, payload=payload)
        for label, payload in zip(labels, payloads)
    ]
    rows = [None] * len(jobs)
    for result in stream_jobs(jobs, _square_factory, (offset,), **kwargs):
        rows[result.index] = result.row
    return rows


class TestGenericTaskPool:
    def test_results_in_payload_order(self):
        rows = _pool(10, [3, 1, 4, 1, 5], workers=3)
        assert rows == [19, 11, 26, 11, 35]

    def test_empty_payloads(self):
        assert _pool(0, []) == []

    def test_task_error_becomes_failure_row(self):
        rows = _pool(
            0, [2, "boom", 3], labels=["a", "b", "c"], workers=2,
            retries=1, backoff=0.0,
        )
        assert rows[0] == 4 and rows[2] == 9
        failure = rows[1]
        assert getattr(failure, "failed", False)
        assert failure.circuit == "b"
        assert failure.error_type == "RuntimeError"
        assert failure.attempts == 2  # initial + one bounded retry

    def test_fault_injection_targets_labels(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "flaky:t1")
        rows = _pool(
            0, [1, 2], labels=["t0", "t1"], workers=2, retries=2,
            backoff=0.0,
        )
        assert rows == [1, 4]  # flaky succeeds on retry
