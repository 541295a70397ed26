"""Mapping result record shared by the DAG and tree mappers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.labeling import Labels
from repro.core.netlist import MappedNetlist

if TYPE_CHECKING:  # avoid a runtime repro.check <-> repro.core cycle
    from repro.check.diagnostics import CheckReport

__all__ = ["MappingResult"]


@dataclass
class MappingResult:
    """Everything an experiment needs about one mapping run.

    Attributes:
        netlist: the mapped circuit.
        labels: the labeling that produced it.
        delay: the labeling's optimal arrival under the delay objective,
            the netlist's STA delay under the area objective.  Under the
            load-independent model the two agree; the mappers do not run
            STA to confirm it, the tests pin it.
        area: total cell area of the netlist.
        cpu_seconds: wall-clock mapping time (labeling + cover).
        mode: 'dag' or 'tree'.
        match_kind: the match class used.
        library: library name.
        n_matches: matches enumerated during labeling (work measure).
        counters: per-run instrumentation from the :mod:`repro.perf`
            layer (signature-cache hits/misses, feasibility-cache hits,
            bindings enumerated, cut-filter nodes and pruned patterns);
            ``None`` when unavailable.
        certificate: the :class:`repro.check.CheckReport` produced when
            the mapper ran with ``check=True``; ``None`` otherwise.
        sim_vectors: random-batch width the certificate's equivalence
            stage used (``None`` until a certificate runs); recorded so
            the run is reproducible under ``REPRO_SIM_VECTORS``.
        sim_seed: PRNG seed of that stage (``None`` until a certificate
            runs); pairs with ``REPRO_SIM_SEED``.
    """

    netlist: MappedNetlist
    labels: Labels
    delay: float
    area: float
    cpu_seconds: float
    mode: str
    match_kind: str
    library: str
    n_matches: int
    counters: Optional[Dict[str, float]] = None
    certificate: Optional["CheckReport"] = None
    sim_vectors: Optional[int] = None
    sim_seed: Optional[int] = None

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "mode": self.mode,
            "library": self.library,
            "delay": round(self.delay, 4),
            "area": round(self.area, 2),
            "gates": self.netlist.gate_count(),
            "cpu_s": round(self.cpu_seconds, 3),
            "matches": self.n_matches,
        }
        if self.counters is not None:
            out["signature_hit_rate"] = self.counters.get("signature_hit_rate")
        return out

    def __repr__(self) -> str:
        return (
            f"MappingResult(mode={self.mode}, delay={self.delay:.3f}, "
            f"area={self.area:.1f}, gates={self.netlist.gate_count()}, "
            f"cpu={self.cpu_seconds:.3f}s)"
        )
