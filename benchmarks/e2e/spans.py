"""In-memory span tracer for the end-to-end benchmark.

The tracer times the program from outside: :meth:`Tracer.install`
replaces the module attributes that each caller resolves at run time
with timing wrappers, and :meth:`Tracer.uninstall` puts the originals
back.  Nothing under ``src/`` knows it is being traced.

Two kinds of record are kept:

* a **span** per call of a coarse function (one labeling pass, one
  cover, one certificate ...), with its parent span and the operation
  it belongs to;
* an **accumulation** for hot functions (``Matcher.matches_at`` and
  ``verify_match`` run once per subject node or cover gate, about 11k
  times per Table-3 pass): a call count and a total, added to whichever
  span is open when the call returns, instead of a span of its own.

A span's self time is its duration minus its children's durations and
minus the accumulated totals charged to it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = ["Span", "Tracer", "TARGETS"]

#: What :meth:`Tracer.install` wraps: (module, attribute, record name,
#: accumulate).  ``Class.method`` attributes are patched on the class.
#: Each attribute is the one its caller looks up at call time, so
#: ``decompose_network`` and ``map_dag`` are wrapped where
#: ``repro.eco.remap`` imported them, not where they are defined.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.core.dag_mapper", "compute_labels", "labeling", False),
    ("repro.core.dag_mapper", "build_cover", "cover", False),
    ("repro.timing.sta", "analyze", "sta", False),
    ("repro.core.match", "Matcher.__init__", "match.init", False),
    ("repro.core.match", "Matcher.attach", "match.attach", False),
    ("repro.core.match", "Matcher.matches_at", "match.matches_at", True),
    ("repro.check.certificate", "certify_mapping", "certificate", False),
    ("repro.check.certificate", "verify_match", "certificate.verify_match", True),
    ("repro.check.certificate", "random_equivalence", "certificate.equivalence", False),
    ("repro.check.certificate", "exhaustive_equivalence", "certificate.equivalence", False),
    ("repro.eco.remap", "decompose_network", "decompose", False),
    ("repro.eco.remap", "compute_subject_keys", "eco.keys", False),
    ("repro.eco.remap", "map_dag", "eco.map", False),
    ("repro.check.eco", "certify_patch", "eco.patch_cert", False),
    ("repro.check.eco", "verify_match", "eco.verify_match", True),
)


class Span:
    """One timed call: name, parent, operation and accumulated hot calls."""

    __slots__ = ("sid", "name", "label", "parent", "op", "start", "end", "acc")

    def __init__(self, sid: int, name: str, label: str, parent: int, op: int):
        self.sid = sid
        self.name = name
        self.label = label
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        #: accumulation name -> [calls, total seconds]
        self.acc: Dict[str, List[float]] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; written out once the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.origin = time.perf_counter()
        self._stack: List[Span] = []
        self._ops = 0
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    @contextmanager
    def span(self, name: str, label: str = "") -> Iterator[Span]:
        """Time the ``with`` body as a span nested in the open one.

        A span opened with no span open starts a new operation;
        ``label`` names what the span works on (a circuit, an edit).
        """
        if self._stack:
            parent = self._stack[-1]
            op, parent_id = parent.op, parent.sid
        else:
            self._ops += 1
            op, parent_id = self._ops, -1
        record = Span(len(self.spans), name, label, parent_id, op)
        self.spans.append(record)
        self._stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------ patching
    def _wrap(self, fn: Callable, name: str, accumulate: bool) -> Callable:
        tracer = self
        if accumulate:
            # Charges each call to the open span (dropped when none is).
            # Kept to the fewest steps: a table pass makes ~11k hot calls
            # of ~30 us each, so each microsecond here is ~3% overhead.
            clock = time.perf_counter
            stack = self._stack

            @functools.wraps(fn)
            def hot(*args, **kwargs):  # type: ignore[no-untyped-def]
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if stack:
                        entry = stack[-1].acc.setdefault(name, [0, 0.0])
                        entry[0] += 1
                        entry[1] += clock() - t0

            return hot

        @functools.wraps(fn)
        def timed(*args, **kwargs):  # type: ignore[no-untyped-def]
            with tracer.span(name):
                return fn(*args, **kwargs)

        return timed

    def install(self) -> None:
        """Wrap every :data:`TARGETS` attribute (idempotent per tracer)."""
        if self._patches:
            return
        for module_name, attr, name, accumulate in TARGETS:
            owner: object = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, accumulate))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ summaries
    def children_seconds(self) -> Dict[int, float]:
        """Span id -> summed duration of its direct child spans."""
        out: Dict[int, float] = {}
        for record in self.spans:
            if record.parent >= 0:
                out[record.parent] = out.get(record.parent, 0.0) + record.seconds
        return out

    def self_seconds(self, record: Span, children: Dict[int, float]) -> float:
        """Duration minus child spans and accumulated hot calls."""
        acc = sum(total for _, total in record.acc.values())
        return record.seconds - children.get(record.sid, 0.0) - acc

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per record name: calls, total and self seconds.

        Accumulations appear under their own names (self = total).
        """
        children = self.children_seconds()
        out: Dict[str, Dict[str, float]] = {}

        def row(name: str) -> Dict[str, float]:
            return out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

        for record in self.spans:
            entry = row(record.name)
            entry["calls"] += 1
            entry["total_s"] += record.seconds
            entry["self_s"] += self.self_seconds(record, children)
            for acc_name, (calls, total) in record.acc.items():
                acc_entry = row(acc_name)
                acc_entry["calls"] += calls
                acc_entry["total_s"] += total
                acc_entry["self_s"] += total
        return out

    def chrome_events(self) -> List[Dict[str, object]]:
        """Chrome trace-event ``X`` records (Perfetto / chrome://tracing)."""
        pid = os.getpid()
        events: List[Dict[str, object]] = []
        for record in self.spans:
            args: Dict[str, object] = {"op": record.op, "span": record.sid,
                                       "parent": record.parent}
            if record.label:
                args["label"] = record.label
            for acc_name, (calls, total) in record.acc.items():
                args[f"{acc_name}.calls"] = int(calls)
                args[f"{acc_name}.ms"] = round(total * 1e3, 3)
            events.append({
                "name": record.name,
                "ph": "X",
                "ts": round((record.start - self.origin) * 1e6, 1),
                "dur": round(record.seconds * 1e6, 1),
                "pid": pid,
                "tid": 0,
                "args": args,
            })
        return events

    def write(self, path: str, extra: Dict[str, object]) -> None:
        """Write the Chrome trace with ``extra`` as its ``otherData``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.chrome_events(), "otherData": extra},
                      handle, indent=1)
            handle.write("\n")
