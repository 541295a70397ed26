"""JSONL run journal for the worker pool.

Every finished job that carries a journal key
(:attr:`repro.perf.parallel.StreamJob.key`) is appended as one JSON line
the moment it completes, so a crashed, interrupted or killed run loses
at most the jobs that were in flight.  ``--resume <journal>`` replays
the journal: jobs recorded as ``ok`` under the *same key* are
reconstructed without re-running, failed or missing jobs run again,
and the merged result is identical to an uninterrupted run because row
payloads round-trip through JSON exactly (Python serialises floats via
``repr``, which is lossless).

A key names everything that can change a row's payload.  Table cells
use (library spec, match kind, circuit, ``max_variants``, ``verify``,
``check``); campaign jobs add the circuit source (with the generator
knobs), ``mode``, ``decompose`` and ``target``.  The key's fields are
written at the top level of the cell record, and on load every field
that is not bookkeeping is part of the key — so a record from an older
run that lacks a field never matches a job that has it.

Record shapes (schema ``repro-run-journal/1``)::

    {"schema": ..., "event": "start", "jobs": N, "cell_timeout": ...,
     "retries": ...}
    {"event": "cell", "status": "ok", "name": ..., "spec": ...,
     "kind": ..., "max_variants": ..., "verify": ..., "check": ...,
     ...further key fields..., "attempts": N, "wall_s": ...,
     "row": {...row fields...}}
    {"event": "cell", "status": "failed", ..., "failure": {...}}
    {"event": "end", "stats": {...RunStats fields...}}

Whether the matcher ran its cut filter is not part of any key: the
matcher decides per subject, and the filter is enforced byte-identical
(``tests/test_engine_equality.py``, fuzz oracle ``F009``).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.errors import JournalError

__all__ = [
    "JOURNAL_SCHEMA",
    "CellKey",
    "JournalState",
    "JournalWriter",
    "cell_key",
    "load_journal",
    "row_to_payload",
    "payload_to_row",
]

JOURNAL_SCHEMA = "repro-run-journal/1"

#: Sorted ``(field, value)`` pairs: everything that can change a row's
#: payload (see the module docstring).
CellKey = Tuple[Tuple[str, object], ...]

#: Cell-record fields that are bookkeeping rather than key.
_RECORD_FIELDS = frozenset(
    ("event", "status", "attempts", "wall_s", "row", "failure")
)

#: Key fields every cell record must carry.
_BASE_FIELDS = ("spec", "kind", "name", "max_variants", "verify", "check")


def _frozen(value: object) -> object:
    """JSON lists back to tuples, so a loaded key is hashable and equal."""
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(item) for item in value)
    return value


def cell_key(
    spec: str,
    kind: str,
    name: str,
    max_variants: int,
    verify: bool,
    check: bool,
    **extra: object,
) -> CellKey:
    """The identity under which a journalled job may be reused.

    ``extra`` adds source-specific key fields (campaign jobs name their
    circuit source, mode, decomposition and delay target).
    """
    fields = dict(
        extra, spec=spec, kind=kind, name=name,
        max_variants=int(max_variants), verify=bool(verify),
        check=bool(check),
    )
    return tuple(sorted((k, _frozen(v)) for k, v in fields.items()))


def row_to_payload(row: Any) -> Dict[str, object]:
    """Flatten a dataclass row to JSON-able fields."""
    return dataclasses.asdict(row)


def payload_to_row(payload: Dict[str, object], row_type: Type[Any]) -> Any:
    """Rebuild a ``row_type`` dataclass from its journalled payload.

    Unknown keys (from a journal written by a newer version) are
    dropped rather than rejected, so old code can still resume.
    """
    names = {f.name for f in dataclasses.fields(row_type)}
    return row_type(**{k: v for k, v in payload.items() if k in names})


@dataclass
class JournalState:
    """Everything :func:`load_journal` recovered from a journal file."""

    path: str
    #: cell key -> ("ok" row payload, attempts) for the *last* ok record.
    completed: Dict[CellKey, Tuple[Dict[str, object], int]] = field(
        default_factory=dict
    )
    #: cell key -> failure payload for keys whose last record failed.
    failures: Dict[CellKey, Dict[str, object]] = field(default_factory=dict)
    #: every parsed record, in file order (for reporting/tests).
    records: List[Dict[str, object]] = field(default_factory=list)

    def completed_row(
        self, key: CellKey, row_type: Optional[Type[Any]] = None
    ) -> Optional[Any]:
        """The ``row_type`` row recorded ok for ``key`` (the raw payload
        without a ``row_type``), or None."""
        entry = self.completed.get(key)
        if entry is None:
            return None
        if row_type is None:
            return entry[0]
        return payload_to_row(entry[0], row_type)


def load_journal(path: str) -> JournalState:
    """Parse a journal; raises :class:`JournalError` (``R004``) when broken.

    A truncated *final* line (the run died mid-write) is tolerated and
    ignored; malformed earlier lines or a wrong schema are errors.
    """
    if not os.path.exists(path):
        raise JournalError(f"[R004] run journal {path!r} does not exist")
    state = JournalState(path=path)
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            if lineno == len(lines):
                break  # torn tail write from a killed run
            raise JournalError(
                f"[R004] run journal {path}:{lineno}: malformed JSON record"
            )
        if not isinstance(record, dict):
            raise JournalError(
                f"[R004] run journal {path}:{lineno}: record is not an object"
            )
        schema = record.get("schema")
        if schema is not None and schema != JOURNAL_SCHEMA:
            raise JournalError(
                f"[R004] run journal {path}:{lineno}: schema {schema!r} "
                f"is not {JOURNAL_SCHEMA!r}"
            )
        state.records.append(record)
        if record.get("event") != "cell":
            continue
        missing = [name for name in _BASE_FIELDS if name not in record]
        if missing:
            raise JournalError(
                f"[R004] run journal {path}:{lineno}: cell record is "
                f"missing the {missing[0]!r} field"
            )
        key: CellKey = tuple(sorted(
            (k, _frozen(v)) for k, v in record.items()
            if k not in _RECORD_FIELDS
        ))
        if record.get("status") == "ok":
            row = record.get("row")
            if not isinstance(row, dict):
                raise JournalError(
                    f"[R004] run journal {path}:{lineno}: ok record "
                    "carries no row payload"
                )
            state.completed[key] = (row, int(record.get("attempts", 1)))
            state.failures.pop(key, None)
        else:
            state.failures[key] = record.get("failure") or {}
    return state


class JournalWriter:
    """Append-only journal emitter; one ``open``+``fsync`` per record.

    Opening per record (instead of holding the handle) keeps every line
    durable against the supervisor itself being killed, which is the
    exact scenario the journal exists for.
    """

    def __init__(self, path: str):
        self.path = path

    def _append(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def start(
        self, jobs: int, cell_timeout: Optional[float], retries: int
    ) -> None:
        self._append(
            {
                "schema": JOURNAL_SCHEMA,
                "event": "start",
                "jobs": jobs,
                "cell_timeout": cell_timeout,
                "retries": retries,
            }
        )

    def cell_ok(
        self, key: CellKey, row: Any, attempts: int, wall_s: float
    ) -> None:
        self._append(
            {
                "event": "cell",
                "status": "ok",
                **dict(key),
                "attempts": attempts,
                "wall_s": round(wall_s, 6),
                "row": row_to_payload(row),
            }
        )

    def cell_failed(
        self,
        key: CellKey,
        failure: Dict[str, object],
        attempts: int,
        wall_s: float,
    ) -> None:
        self._append(
            {
                "event": "cell",
                "status": "failed",
                **dict(key),
                "attempts": attempts,
                "wall_s": round(wall_s, 6),
                "failure": failure,
            }
        )

    def end(self, stats: Dict[str, object]) -> None:
        self._append({"event": "end", "stats": stats})
