"""Exception hierarchy for the repro package.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class.  Parse errors carry a :class:`SourceLoc` — file name,
1-based line number and the offending token where available — which the
static-analysis layer (:mod:`repro.check`) converts into located
diagnostics instead of tracebacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SourceLoc:
    """A position in a textual input (genlib, BLIF, expression).

    Attributes:
        file: source file name, when the text came from disk.
        line: 1-based line number of the offending construct.
        column: 1-based column, when the tokenizer tracks it.
    """

    file: Optional[str] = None
    line: Optional[int] = None
    column: Optional[int] = None

    def __str__(self) -> str:
        if self.file is None:
            if self.line is None:
                return "<input>"
            text = f"line {self.line}"
            if self.column is not None:
                text += f", column {self.column}"
            return text
        parts = [self.file]
        if self.line is not None:
            parts.append(str(self.line))
            if self.column is not None:
                parts.append(str(self.column))
        return ":".join(parts)

    def is_known(self) -> bool:
        return self.file is not None or self.line is not None


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ReproError):
    """A textual input (expression, BLIF, genlib) could not be parsed.

    Attributes:
        line: 1-based line number of the offending token, when known.
        file: name of the source file, when known.
        token: the offending token text, when known.
        loc: the same information as a :class:`SourceLoc`.
    """

    def __init__(
        self,
        message: str,
        line: Optional[int] = None,
        file: Optional[str] = None,
        token: Optional[str] = None,
    ):
        prefix = ""
        if file is not None and line is not None:
            prefix = f"{file}:{line}: "
        elif file is not None:
            prefix = f"{file}: "
        elif line is not None:
            prefix = f"line {line}: "
        suffix = f" (near {token!r})" if token is not None else ""
        super().__init__(f"{prefix}{message}{suffix}")
        self.line = line
        self.file = file
        self.token = token
        self.bare_message = message

    @property
    def loc(self) -> SourceLoc:
        return SourceLoc(file=self.file, line=self.line)


class EnvVarError(ReproError):
    """A registered ``REPRO_*`` environment variable has a malformed value.

    The message is ``NAME='raw' <problem>`` so call sites can wrap it in
    their own coded errors (``[R002]`` runner config, network errors)
    without rewording; ``name`` and ``raw`` ride along as attributes.
    """

    def __init__(self, name: str, raw: str, problem: str):
        super().__init__(f"{name}={raw!r} {problem}")
        self.name = name
        self.raw = raw
        self.problem = problem


class NetworkError(ReproError):
    """The Boolean network is malformed or an operation on it is invalid."""


class LibraryError(ReproError):
    """A gate library is malformed or unusable."""


class LibraryIncompleteError(LibraryError):
    """The library cannot cover some subject node (needs INV and NAND2)."""


class MappingError(ReproError):
    """Technology mapping failed (e.g. no match at a node)."""


class CertificateError(MappingError):
    """A mapping certificate was rejected by :mod:`repro.check`."""


class TimingError(ReproError):
    """Static timing analysis failed (e.g. combinational cycle)."""


class RetimingError(ReproError):
    """Retiming is infeasible or the sequential graph is malformed."""


class RunnerError(ReproError):
    """The fault-tolerant worker pool could not run at all.

    This covers *setup* failures (bad configuration, unusable library
    spec, workers that cannot initialise, broken journals) — coded
    ``[R###]`` in the message, catalogued in ``docs/CHECKING.md``.
    Individual job failures never raise; they come back as structured
    :class:`repro.perf.parallel.CellFailure` rows instead.
    """


class UnknownLibrarySpecError(RunnerError, LibraryError):
    """[R001] A library spec is neither a builtin name nor a genlib file."""

    def __init__(self, spec: str, builtins: "tuple" = ()):
        listing = ", ".join(builtins) if builtins else "none"
        super().__init__(
            f"[R001] unknown library spec {spec!r}: not a builtin library "
            f"(valid specs: {listing}) and not a readable genlib file"
        )
        self.spec = spec
        self.builtins = tuple(builtins)


class RunnerConfigError(RunnerError):
    """[R002] An invalid runner configuration value (jobs, timeout,
    retries, an output path into a missing directory)."""


class WorkerInitError(RunnerError):
    """[R003] A worker process failed inside its pool initializer."""


class JournalError(RunnerError):
    """[R004] A run journal is malformed or incompatible with this run."""
