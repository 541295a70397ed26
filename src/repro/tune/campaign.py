"""Tuning campaigns: job lattices, front reduction and hill-climbing.

:func:`run_pareto` expands a circuit ensemble × library-variant ×
delay-target lattice into :class:`~repro.perf.campaign.CampaignJob`
entries (mode ``recover``, so every point trades area against an
explicit delay budget and is certifiable with the target-aware
certificate), streams them through the warm-worker campaign engine,
and reduces the rows into per-circuit Pareto fronts.  An optional
refinement loop proposes :func:`~repro.library.variants.neighbor_specs`
around the surviving front points and re-reduces, stopping at a job
budget — a deterministic greedy chart-improver.

:func:`tune_search` is the scalar cousin: hill-climb over variant specs
against a normalised ``delay + alpha * area`` objective averaged over
the ensemble.

Everything here is deterministic by construction: variant specs are
seed-keyed strings, proposals iterate sorted fronts, and all reductions
are pure functions of row values — so outputs are byte-identical across
reruns and worker counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import RunnerConfigError
from repro.library.variants import generate_variants, neighbor_specs
from repro.perf.campaign import (
    MODE_WEIGHT,
    CampaignJob,
    CampaignRow,
    run_mapping_campaign,
)
from repro.perf.counters import RunStats
from repro.tune.pareto import ParetoPoint, fronts_by_circuit

__all__ = [
    "DEFAULT_TARGETS",
    "LatticeConfig",
    "ParetoOutcome",
    "TuneOutcome",
    "suite_sources",
    "seed_sources",
    "lattice_jobs",
    "run_pareto",
    "tune_search",
]

#: Delay budgets swept per (circuit, variant) pair, as slack multipliers
#: on the optimal delay: 1.0 recovers area at zero delay cost, the rest
#: trade delay headroom for smaller covers.
DEFAULT_TARGETS: Tuple[float, ...] = (1.0, 1.1, 1.25)

#: A campaign source: (label stem, CampaignJob source tuple, weight).
Source = Tuple[str, Tuple[str, ...], int]


def suite_sources(names: Sequence[str]) -> List[Source]:
    """Ensemble sources from benchmark-suite circuit names."""
    from repro.bench.suite import SUITE

    sources: List[Source] = []
    for name in names:
        if name not in SUITE:
            raise RunnerConfigError(
                f"[R002] unknown suite circuit {name!r} "
                f"(valid: {', '.join(sorted(SUITE))})"
            )
        sources.append((name, ("suite", name), 0))
    return sources


def seed_sources(
    seeds: Sequence[int], nodes: int = 16, inputs: int = 6
) -> List[Source]:
    """Ensemble sources from fuzz-generator seeds (self-contained jobs)."""
    from repro.fuzz.generator import FuzzConfig

    gen_json = json.dumps(
        FuzzConfig(n_inputs=inputs, n_nodes=nodes).as_dict(), sort_keys=True
    )
    return [
        (f"s{int(seed)}", ("seed", str(int(seed)), gen_json), nodes)
        for seed in seeds
    ]


@dataclass(frozen=True)
class LatticeConfig:
    """Knobs of the (variant, circuit, target) job lattice.

    Attributes:
        variants: library variants per base library (the first is
            always the unperturbed base).
        drop / delay_jitter / area_jitter: perturbation amplitudes
            handed to :func:`repro.library.variants.generate_variants`.
        targets: delay budgets as slack multipliers on the optimal
            delay.
        max_variants: pattern-variant counts swept per job.
        kind: match kind of every job.
        check: run the target-aware mapping certificate in-worker
            (default on — front points must be certificate-backed).
        verify: simulate every cover against its source network.
        seed: base PRNG seed for variant generation (``None`` means
            2024).
    """

    variants: int = 4
    drop: float = 0.15
    delay_jitter: float = 0.05
    area_jitter: float = 0.05
    targets: Tuple[float, ...] = DEFAULT_TARGETS
    max_variants: Tuple[int, ...] = (8,)
    kind: str = "standard"
    check: bool = True
    verify: bool = False
    seed: Optional[int] = None


def _check_sources(sources: Sequence[Source]) -> None:
    stems = [stem for stem, _, _ in sources]
    if not stems:
        raise RunnerConfigError("[R002] tuning campaign needs >= 1 circuit")
    if len(set(stems)) != len(stems):
        raise RunnerConfigError(
            f"[R002] duplicate ensemble stems: {sorted(stems)}"
        )
    for stem in stems:
        if "." in stem or "," in stem:
            raise RunnerConfigError(
                f"[R002] ensemble stem {stem!r} must not contain '.' or ','"
            )


def _recover_job(
    label: str,
    source: Tuple[str, ...],
    library: str,
    config: LatticeConfig,
    target: float,
    max_variants: int,
    weight: int,
) -> CampaignJob:
    return CampaignJob(
        label=label,
        source=source,
        library=library,
        mode="recover",
        kind=config.kind,
        max_variants=max_variants,
        verify=config.verify,
        check=config.check,
        target=target,
        weight=weight * MODE_WEIGHT["recover"],
    )


def lattice_jobs(
    sources: Sequence[Source],
    library: str,
    config: LatticeConfig = LatticeConfig(),
) -> List[CampaignJob]:
    """Expand the full (circuit, variant, max_variants, target) lattice.

    Labels encode the lattice coordinates (``stem.v<i>.m<mv>.t<slack>``)
    so a reduced front point can be traced back to its journal row, and
    the refinement loop can recover the circuit stem by parsing the
    label's first component.
    """
    _check_sources(sources)
    specs = generate_variants(
        library,
        config.variants,
        drop=config.drop,
        delay=config.delay_jitter,
        area=config.area_jitter,
        seed=2024 if config.seed is None else config.seed,
    )
    jobs: List[CampaignJob] = []
    for stem, source, weight in sources:
        for vi, spec in enumerate(specs):
            for mv in config.max_variants:
                for target in config.targets:
                    jobs.append(_recover_job(
                        label=f"{stem}.v{vi}.m{mv}.t{format(target, 'g')}",
                        source=source,
                        library=spec,
                        config=config,
                        target=target,
                        max_variants=mv,
                        weight=weight,
                    ))
    return jobs


@dataclass
class ParetoOutcome:
    """A finished Pareto campaign: fronts plus full row provenance."""

    fronts: Dict[str, List[ParetoPoint]]
    rows: List[CampaignRow]
    failures: List[object]
    jobs_run: int
    refine_jobs: int
    stats: List[RunStats] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _split_rows(
    outcome_rows: Sequence[object],
) -> Tuple[List[CampaignRow], List[object]]:
    rows: List[CampaignRow] = []
    failures: List[object] = []
    for row in outcome_rows:
        if getattr(row, "failed", False):
            failures.append(row)
        elif isinstance(row, CampaignRow):
            rows.append(row)
    return rows, failures


def run_pareto(
    sources: Sequence[Source],
    library: str = "lib2",
    config: LatticeConfig = LatticeConfig(),
    workers: Optional[int] = None,
    warm: bool = True,
    refine_budget: int = 0,
    journal_path: Optional[str] = None,
    resume_path: Optional[str] = None,
) -> ParetoOutcome:
    """Chart per-circuit delay/area fronts over a variant lattice.

    With ``refine_budget > 0``, after the lattice lands the loop
    repeatedly proposes variant neighbours around every current front
    point (sorted circuit/point/neighbour order, deduplicated against
    everything already run) and streams them as extra ``recover`` jobs,
    until the budget is spent or no proposal is fresh.  The budget
    bounds *extra jobs*, so the total job count is
    ``len(lattice) + refine_budget`` at most.
    """
    jobs = lattice_jobs(sources, library, config)
    outcome = run_mapping_campaign(
        jobs,
        workers=workers,
        warm=warm,
        journal_path=journal_path,
        resume_path=resume_path,
    )
    rows, failures = _split_rows(outcome.rows)
    stats = [outcome.stats]
    fronts = fronts_by_circuit(rows)
    jobs_run = len(jobs)
    refine_jobs = 0

    stem_map: Dict[str, Source] = {s[0]: s for s in sources}
    seen: Set[Tuple[str, str, float, int]] = {
        (job.label.split(".", 1)[0], job.library, job.target,
         job.max_variants)
        for job in jobs
    }
    mv0 = config.max_variants[0]
    ridx = 0
    budget = int(refine_budget)
    while budget > 0:
        proposals: List[CampaignJob] = []
        for circuit in sorted(fronts):
            for point in fronts[circuit]:
                stem = point.label.split(".", 1)[0]
                source = stem_map.get(stem)
                if source is None:
                    continue
                # Climb at the point's own slack multiplier, recovered
                # from the label (the row stores the absolute budget).
                slack = float(point.label.rsplit(".t", 1)[1])
                for spec in neighbor_specs(point.library):
                    key = (stem, spec, slack, mv0)
                    if key in seen or len(proposals) >= budget:
                        continue
                    seen.add(key)
                    proposals.append(_recover_job(
                        label=f"{stem}.r{ridx}.t{format(slack, 'g')}",
                        source=source[1],
                        library=spec,
                        config=config,
                        target=slack,
                        max_variants=mv0,
                        weight=source[2],
                    ))
                    ridx += 1
        if not proposals:
            break
        extra = run_mapping_campaign(
            proposals, workers=workers, warm=warm,
            journal_path=journal_path,
        )
        budget -= len(proposals)
        refine_jobs += len(proposals)
        jobs_run += len(proposals)
        stats.append(extra.stats)
        extra_rows, extra_failures = _split_rows(extra.rows)
        rows.extend(extra_rows)
        failures.extend(extra_failures)
        new_fronts = fronts_by_circuit(rows)
        if new_fronts == fronts:
            break  # converged: no proposal moved any front
        fronts = new_fronts

    return ParetoOutcome(
        fronts=fronts,
        rows=rows,
        failures=failures,
        jobs_run=jobs_run,
        refine_jobs=refine_jobs,
        stats=stats,
    )


# ----------------------------------------------------------------------
# Scalar hill-climbing tuner
# ----------------------------------------------------------------------


@dataclass
class TuneOutcome:
    """A finished scalar tuning search.

    ``history`` records every evaluated ``(spec, score)`` pair in
    evaluation order; ``best``/``best_score`` are the winner.  Scores
    are the ensemble mean of ``delay/base_delay + alpha * area/base_area``
    against the unperturbed base library, so 1 + alpha is the baseline.
    """

    best: str
    best_score: float
    history: List[Tuple[str, float]]
    rows: List[CampaignRow]
    failures: List[object]
    jobs_run: int


def _score_rows(
    rows: Sequence[CampaignRow],
    base: Dict[str, Tuple[float, float]],
    alpha: float,
) -> float:
    if len(rows) != len(base):
        return math.inf  # a circuit failed under this candidate
    total = 0.0
    for row in rows:
        base_delay, base_area = base[row.circuit]
        delay_term = row.delay / base_delay if base_delay > 0 else 1.0
        area_term = row.area / base_area if base_area > 0 else 1.0
        total += delay_term + alpha * area_term
    return total / len(base)


def tune_search(
    sources: Sequence[Source],
    library: str = "lib2",
    alpha: float = 0.5,
    rounds: int = 3,
    config: LatticeConfig = LatticeConfig(),
    workers: Optional[int] = None,
    warm: bool = True,
    budget: int = 64,
) -> TuneOutcome:
    """Greedy hill-climb over library variants on a scalar objective.

    Each round evaluates every :func:`neighbor_specs` proposal of the
    incumbent over the whole ensemble (mode ``recover`` at slack 1.0,
    so delay stays optimal per variant and area is recovered), keeps
    the best scorer, and stops when no neighbour improves, ``rounds``
    are exhausted, or the evaluation ``budget`` (in jobs) runs out.
    """
    _check_sources(sources)
    mv0 = config.max_variants[0]

    def evaluate(
        specs: Sequence[str], tag: str
    ) -> Tuple[Dict[str, List[CampaignRow]], List[object], int]:
        jobs: List[CampaignJob] = []
        for ci, spec in enumerate(specs):
            for stem, source, weight in sources:
                jobs.append(_recover_job(
                    label=f"{stem}.{tag}c{ci}",
                    source=source,
                    library=spec,
                    config=config,
                    target=1.0,
                    max_variants=mv0,
                    weight=weight,
                ))
        outcome = run_mapping_campaign(jobs, workers=workers, warm=warm)
        rows, failures = _split_rows(outcome.rows)
        per_spec: Dict[str, List[CampaignRow]] = {s: [] for s in specs}
        for row in rows:
            per_spec[row.library].append(row)
        return per_spec, failures, len(jobs)

    all_rows: List[CampaignRow] = []
    all_failures: List[object] = []
    history: List[Tuple[str, float]] = []

    per_spec, failures, n_jobs = evaluate([library], "g0")
    all_failures.extend(failures)
    base_rows = per_spec[library]
    all_rows.extend(base_rows)
    jobs_run = n_jobs
    if len(base_rows) != len(sources):
        raise RunnerConfigError(
            f"[R002] base library {library!r} failed on "
            f"{len(sources) - len(base_rows)} ensemble circuit(s); "
            "cannot establish a tuning baseline"
        )
    base = {row.circuit: (row.delay, row.area) for row in base_rows}
    best, best_score = library, _score_rows(base_rows, base, alpha)
    history.append((best, best_score))

    for round_no in range(1, max(0, int(rounds)) + 1):
        proposals = [
            spec for spec in neighbor_specs(best)
            if all(spec != seen_spec for seen_spec, _ in history)
        ]
        max_candidates = (budget - jobs_run) // max(1, len(sources))
        if max_candidates <= 0 or not proposals:
            break
        proposals = proposals[:max_candidates]
        per_spec, failures, n_jobs = evaluate(proposals, f"g{round_no}")
        jobs_run += n_jobs
        all_failures.extend(failures)
        improved = False
        for spec in proposals:
            rows = per_spec[spec]
            all_rows.extend(rows)
            score = _score_rows(rows, base, alpha)
            history.append((spec, score))
            if score < best_score:
                best, best_score = spec, score
                improved = True
        if not improved:
            break

    return TuneOutcome(
        best=best,
        best_score=best_score,
        history=history,
        rows=all_rows,
        failures=all_failures,
        jobs_run=jobs_run,
    )
