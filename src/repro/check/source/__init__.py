"""Source-level static analysis: determinism and worker-safety lints.

The data linters of :mod:`repro.check` guard what the mapper *consumes*
(netlists, libraries, certificates); this package guards the *code
itself* — the coding rules that make the repository's byte-identical
determinism promises (journal ``--resume`` replay, engine equality,
corpus replay) actually hold.  Every finding is a coded
:class:`~repro.check.diagnostics.Diagnostic` (``S###`` codes,
catalogued in ``docs/CHECKING.md``) with a real
:class:`~repro.errors.SourceLoc` into the offending file:

* ``S1##`` determinism: unseeded ``random.*`` calls, wall-clock time
  sources, order-sensitive iteration over unordered sets, and direct
  ``os.environ`` access outside the typed :mod:`repro.env` registry;
* ``S2##`` worker safety: unpicklable callables handed to the
  fault-tolerant pool, and writes to mutable module-level globals from
  functions reachable from the worker entry points of
  :mod:`repro.perf.parallel`;
* ``S3##`` exception hygiene: broad handlers that swallow silently and
  ``assert`` used for runtime validation.

Intentional violations are silenced inline with ``# repro:
allow[S###]`` on the flagged line; every other finding gates (the CI
runs ``repro-map check --source --strict`` and expects none).
"""

from repro.check.source.analyzer import (
    ModuleInfo,
    analyze_package,
    analyze_paths,
    parse_module,
)
from repro.check.source.suppress import suppressions_for_source

__all__ = [
    "ModuleInfo",
    "analyze_package",
    "analyze_paths",
    "parse_module",
    "suppressions_for_source",
]
