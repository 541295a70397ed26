"""Typed registry of every ``REPRO_*`` environment variable.

This module is the *only* place in the package that touches
``os.environ`` — the source linter enforces this with code ``S104``
(see :mod:`repro.check.source`).  Scattered ``os.environ.get`` calls
made the determinism story unauditable: a knob could silently change a
byte-compared output (simulation vector counts, worker-pool budgets,
fault injection) without showing up in any one inventory.  Here every
variable has a name, a type, a default and a one-line description, and
reads go through parse-validating accessors that raise the coded
:class:`~repro.errors.EnvVarError` on malformed values.

Semantics shared by every accessor:

* an unset variable *and* an empty string both mean "use the default" —
  ``FOO= cmd`` is a common way to neutralise a variable in CI;
* parse failures raise :class:`EnvVarError` whose message starts with
  ``NAME=<raw>`` so call sites can convert it into their own coded
  error (``[R002]`` in the worker pool, :class:`NetworkError` in the
  simulation kernel) without rewording;
* reading a name that is not in :data:`REGISTRY` is a programming
  error and raises ``KeyError`` — register new knobs here first.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import EnvVarError

__all__ = [
    "EnvVar",
    "REGISTRY",
    "read_float",
    "read_int",
    "read_raw",
    "read_str",
]


@dataclass(frozen=True)
class EnvVar:
    """One registered environment variable.

    Attributes:
        name: the full ``REPRO_*`` variable name.
        kind: value type, one of ``"int"``, ``"float"``, ``"str"``,
            ``"path"`` (documentation; the accessor used at the call
            site is what parses).
        default: human-readable default, for docs and ``--help`` text
            (``None`` = unset means the feature is off).
        description: one line on what the variable controls.
    """

    name: str
    kind: str
    default: Optional[str]
    description: str


def _registry(entries: Tuple[EnvVar, ...]) -> Dict[str, EnvVar]:
    out: Dict[str, EnvVar] = {}
    for var in entries:
        if var.name in out:
            raise ValueError(f"duplicate env var registration {var.name!r}")
        out[var.name] = var
    return out


#: Every environment variable the package reads, in catalog order.
REGISTRY: Dict[str, EnvVar] = _registry(
    (
        EnvVar(
            "REPRO_SIM_VECTORS", "int", "4096",
            "random simulation batch width for >16-input equivalence",
        ),
        EnvVar(
            "REPRO_SIM_SEED", "int", "2024",
            "PRNG seed for the random simulation batch",
        ),
        EnvVar(
            "REPRO_CELL_TIMEOUT", "float", None,
            "per-job wall-clock budget (seconds) in the worker pool",
        ),
        EnvVar(
            "REPRO_CELL_RETRIES", "int", "2",
            "bounded retry budget for transient job failures",
        ),
        EnvVar(
            "REPRO_CELL_BACKOFF", "float", "0.05",
            "base delay (seconds) of the exponential retry backoff",
        ),
        EnvVar(
            "REPRO_FAULT_INJECT", "str", None,
            "deterministic worker fault injection: mode:label[,mode:label]",
        ),
        EnvVar(
            "REPRO_FUZZ_INJECT", "str", None,
            "deterministic fuzz-oracle mutation: delay|cover|corrupt|engine",
        ),
        EnvVar(
            "REPRO_TUNE_SEED", "int", "2024",
            "base PRNG seed for library-variant generation in repro.tune",
        ),
    )
)


def read_raw(name: str) -> Optional[str]:
    """The raw value of a *registered* variable; ``None`` when unset/empty.

    This is the package's single ``os.environ`` access point.
    """
    if name not in REGISTRY:
        raise KeyError(
            f"environment variable {name!r} is not registered in repro.env"
        )
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    return raw


def read_str(name: str, default: Optional[str] = None) -> Optional[str]:
    """A registered string variable, or ``default`` when unset."""
    raw = read_raw(name)
    return default if raw is None else raw


def read_int(name: str, default: Optional[int] = None) -> Optional[int]:
    """A registered integer variable, or ``default`` when unset.

    Raises:
        EnvVarError: the value is set but is not an integer.
    """
    raw = read_raw(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise EnvVarError(name, raw, "is not an integer") from None


def read_float(name: str, default: Optional[float] = None) -> Optional[float]:
    """A registered float variable, or ``default`` when unset.

    Raises:
        EnvVarError: the value is set but is not a number.
    """
    raw = read_raw(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise EnvVarError(name, raw, "is not a number") from None
