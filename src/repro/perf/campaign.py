"""Mapping campaigns: heterogeneous job streams over warm workers.

A *campaign job* is one mapping run — a circuit (suite name, BLIF file
or generated seed), a library spec, a mapper mode and the matcher
options — and a campaign is an arbitrarily long stream of such jobs
fanned over the worker pool of :mod:`repro.perf.parallel`.  Jobs
sharing a cache bundle key (``library``, ``max_variants``, ``kind``)
reuse the worker's pattern set — with its memoized NPN-class table —
instead of rebuilding it per process; that amortisation is the whole
point (the ``warm_pool`` case of ``benchmarks/bench_ab.py`` gates it).

Results are :class:`CampaignRow` dataclasses whose :meth:`~CampaignRow.stable`
view (everything except the timing field) is **byte-identical** however
the jobs are scheduled — warm pool, cold per-job processes, replacement
workers after a crash — which the equivalence tests assert.  The mapped
netlist itself travels as a short content digest (``cover``), so a row
stays cheap to pickle while still certifying *which* cover was chosen.

Journal rows use the ``repro-run-journal/1`` format with the job's
library as the cell ``spec``, the job label as the cell ``name`` and
every other row-changing job field in the key (:meth:`CampaignJob.key`),
so a partially journalled campaign resumes with the same machinery (and
the same byte-identity guarantee) as the table cells.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import RunnerConfigError
from repro.perf.counters import RunStats
from repro.perf.journal import CellKey, cell_key
from repro.perf.parallel import (
    StreamJob,
    StreamResult,
    resolve_library,
    stream_jobs,
)

__all__ = [
    "CampaignJob",
    "CampaignRow",
    "CampaignOutcome",
    "load_manifest",
    "seed_ensemble",
    "stream_campaign",
    "run_mapping_campaign",
]

#: Mapper modes a job may name.
MODES = ("dag", "tree", "recover", "multi", "eco")

#: Relative job-cost multipliers for the engine's size sharding: area
#: recovery adds a required-time pass over the labeled cover, multimap
#: runs one full mapping per decomposition style, eco maps the base from
#: scratch plus the incremental and the from-scratch comparison run.
MODE_WEIGHT: Dict[str, int] = {
    "dag": 1, "tree": 1, "recover": 2, "multi": 3, "eco": 3,
}


@dataclass(frozen=True)
class CampaignJob:
    """One mapping job of a campaign stream (picklable, hashable).

    Attributes:
        label: unique display/journal name of the job.
        source: where the circuit comes from — ``("suite", name)``,
            ``("blif", path)`` or ``("seed", seed, generator_json)``
            (the generator knobs as canonical JSON, so the job is
            self-contained and reproducible in any worker).
        library: respawnable library spec (builtin name, genlib path or
            ``base@...`` variant spec — see :mod:`repro.library.variants`).
        mode: ``"dag"``, ``"tree"``, ``"recover"`` (area recovery under
            a delay budget), ``"multi"`` (multi-decomposition stitch) or
            ``"eco"`` (derive a seeded edit pair from the circuit,
            remap incrementally, and fail unless the result is
            byte-identical to a from-scratch remap of the edited net).
        kind: match kind for the DAG mapper.
        max_variants: pattern variants per gate.
        verify: simulate the mapped netlist against its source.
        check: run the mapping certificate inside the worker (for
            ``recover`` this is the target-aware recovered-cover
            certificate; for ``multi`` every per-style run is certified).
        decompose: subject decomposition style (ignored by ``multi``,
            which maps every style).
        target: ``recover``-mode delay budget as a slack multiplier on
            the optimal delay (``1.0`` = recover area at zero delay
            cost); ignored by the other modes.
        weight: size hint for the engine's large/small sharding.
    """

    label: str
    source: Tuple[str, ...]
    library: str = "lib2"
    mode: str = "dag"
    kind: str = "standard"
    max_variants: int = 8
    verify: bool = False
    check: bool = False
    decompose: str = "balanced"
    target: float = 1.0
    weight: int = 0

    def bundle(self) -> Tuple[object, ...]:
        """The cache-bundle key this job needs in its worker."""
        return (self.library, int(self.max_variants), self.kind)

    def key(self) -> CellKey:
        """The journal identity: every field that can change the row.

        ``weight`` is left out (it only steers scheduling).
        """
        return cell_key(
            self.library, self.kind, self.label, self.max_variants,
            self.verify, self.check, source=self.source, mode=self.mode,
            decompose=self.decompose, target=self.target,
        )


@dataclass
class CampaignRow:
    """One finished campaign job (scheduling-independent except cpu_s).

    Attributes:
        label: the job label.
        circuit: the source network's name.
        mode / kind / library: echo of the job options.
        subject_gates: NAND2/INV nodes of the decomposed subject.
        delay: mapped delay (load-independent model).
        area: total cell area.
        gates: gate count of the mapped netlist.
        n_matches: matches enumerated during labeling.
        cover: 16-hex-digit SHA-256 digest of the mapped netlist's BLIF
            text — a content certificate for the chosen cover.
        verified: the mapped netlist was simulation-checked against the
            source network.
        cpu_s: worker-side wall-clock of the mapping run (the only
            field excluded from :meth:`stable`).
        target: absolute delay budget a ``recover`` job resolved its
            slack multiplier to (``0.0`` for the other modes; defaulted
            so pre-existing journals replay).
    """

    label: str
    circuit: str
    mode: str
    kind: str
    library: str
    subject_gates: int
    delay: float
    area: float
    gates: int
    n_matches: int
    cover: str
    verified: bool
    cpu_s: float
    target: float = 0.0

    #: Duck-typing marker matching ComparisonRow/CellFailure handling.
    failed = False

    def stable(self) -> Dict[str, object]:
        """Every scheduling-independent field (drops ``cpu_s``)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        del out["cpu_s"]
        return out


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _build_network(job: CampaignJob) -> object:
    src = job.source
    if src[0] == "suite":
        from repro.bench.suite import SUITE

        return SUITE[src[1]].build()
    if src[0] == "blif":
        from repro.network.blif import read_blif

        return read_blif(src[1])
    if src[0] == "seed":
        from repro.fuzz.generator import config_from_dict, random_dag

        config = config_from_dict(json.loads(src[2])).with_seed(int(src[1]))
        return random_dag(config)
    raise RunnerConfigError(f"[R002] unknown campaign source {src!r}")


def _run_campaign_job(job: CampaignJob, patterns: object) -> CampaignRow:
    from repro.core.dag_mapper import map_dag
    from repro.core.match import MatchKind
    from repro.core.tree_mapper import map_tree
    from repro.network.decompose import decompose_network
    from repro.network.mapped_io import dumps_mapped_blif

    net = _build_network(job)
    kind = MatchKind(job.kind)
    target = 0.0
    if job.mode == "multi":
        from repro.core.multimap import map_multi_decomposition

        multi = map_multi_decomposition(net, patterns, kind=kind)  # type: ignore[arg-type]
        if job.check:
            from repro.check.certificate import attach_certificate

            for style_result in multi.per_style.values():
                attach_certificate(style_result)
        netlist = multi.netlist
        delay, area, cpu_s = multi.delay, multi.area, multi.cpu_seconds
        subject_gates = max(
            r.labels.subject.n_gates for r in multi.per_style.values()
        )
        n_matches = sum(r.n_matches for r in multi.per_style.values())
    elif job.mode == "eco":
        from repro.eco import eco_remap
        from repro.errors import MappingError
        from repro.fuzz.generator import derive_edit_seed, random_edit_script

        subject = decompose_network(net, style=job.decompose)
        base = map_dag(subject, patterns, kind=kind)
        script = random_edit_script(net, seed=derive_edit_seed(net), n_edits=2)  # type: ignore[arg-type]
        edited = script.apply(net)  # type: ignore[arg-type]
        eco = eco_remap(
            base, edited, patterns, decompose=job.decompose, check=job.check,  # type: ignore[arg-type]
        )
        scratch = map_dag(
            decompose_network(edited, style=job.decompose), patterns,
            kind=kind,
        )
        if (
            eco.result.delay != scratch.delay
            or eco.result.area != scratch.area
            or dumps_mapped_blif(eco.result.netlist)
            != dumps_mapped_blif(scratch.netlist)
        ):
            raise MappingError(
                f"[M007] eco campaign divergence on {edited.name!r}: "
                f"incremental (delay {eco.result.delay!r}, area "
                f"{eco.result.area!r}) != from-scratch (delay "
                f"{scratch.delay!r}, area {scratch.area!r}), or covers "
                f"differ"
            )
        net = edited  # the row (and verify) describe the edited circuit
        netlist = eco.result.netlist
        delay, area = eco.result.delay, eco.result.area
        cpu_s = eco.cpu_seconds
        subject_gates = eco.result.labels.subject.n_gates
        n_matches = eco.result.n_matches
    else:
        subject = decompose_network(net, style=job.decompose)
        if job.mode == "tree":
            result = map_tree(subject, patterns, check=job.check)
        else:
            result = map_dag(
                subject, patterns, kind=kind,
                check=job.check and job.mode == "dag",
            )
        netlist = result.netlist
        delay, area, cpu_s = result.delay, result.area, result.cpu_seconds
        subject_gates = subject.n_gates
        n_matches = result.n_matches
        if job.mode == "recover":
            from dataclasses import replace as dc_replace

            from repro.core.area_recovery import recover_area_result

            target = result.delay * max(1.0, float(job.target))
            recovery = recover_area_result(
                result.labels, patterns, kind=kind, target=target,  # type: ignore[arg-type]
            )
            netlist = recovery.netlist
            delay, area = recovery.delay, recovery.area
            cpu_s += recovery.cpu_seconds
            if job.check:
                from repro.check.certificate import attach_certificate

                attach_certificate(
                    dc_replace(result, netlist=netlist, delay=delay, area=area),
                    selection=recovery.selection,
                    target=target,
                )
    verified = False
    if job.verify:
        from repro.network.simulate import check_equivalent

        check_equivalent(net, netlist)
        verified = True
    cover = hashlib.sha256(
        dumps_mapped_blif(netlist).encode("utf-8")
    ).hexdigest()[:16]
    return CampaignRow(
        label=job.label,
        circuit=getattr(net, "name", job.label),
        mode=job.mode,
        kind=job.kind,
        library=job.library,
        subject_gates=subject_gates,
        delay=delay,
        area=area,
        gates=netlist.gate_count(),
        n_matches=n_matches,
        cover=cover,
        verified=verified,
        cpu_s=cpu_s,
        target=target,
    )


def _mapping_bundle_factory() -> Callable[[tuple], Callable[[object], object]]:
    """Per-worker bundle factory for mapping campaigns.

    One bundle per distinct ``(library, max_variants, kind)``: the
    pattern set, which builds its trie at the bundle's first job and
    keeps it for the worker's life.  Jobs only carry the key; the
    heavy state never crosses the process boundary.
    """

    def build(bundle_key: tuple) -> Callable[[object], object]:
        from repro.library.patterns import PatternSet

        library_spec, max_variants, _kind = bundle_key
        patterns = PatternSet(
            resolve_library(library_spec), max_variants=max_variants
        )

        def runner(job: object) -> object:
            return _run_campaign_job(job, patterns)  # type: ignore[arg-type]

        return runner

    return build


# ----------------------------------------------------------------------
# Job construction
# ----------------------------------------------------------------------

#: FuzzConfig knobs a manifest/ensemble entry may set for seed jobs.
_GENERATOR_KNOBS = (
    "n_inputs", "n_nodes", "n_outputs", "reconvergence", "fanout_skew",
    "depth_bias",
)


#: Every key a manifest entry may carry: one circuit source, the
#: generator knobs of a seed source, and the per-job overrides.
_MANIFEST_KEYS = frozenset((
    "circuit", "blif", "seed", "inputs", "nodes", "outputs",
    "reconvergence", "fanout_skew", "depth_bias", "label", "library",
    "mode", "kind", "max_variants", "verify", "check", "decompose",
    "target", "weight",
))


def _generator_json(**knobs: object) -> str:
    from repro.fuzz.generator import FuzzConfig

    config = FuzzConfig(**{k: v for k, v in knobs.items() if v is not None})  # type: ignore[arg-type]
    return json.dumps(config.as_dict(), sort_keys=True)


def load_manifest(
    path: str,
    library: str = "lib2",
    mode: str = "dag",
    kind: str = "standard",
    max_variants: int = 8,
    verify: bool = False,
    check: bool = False,
) -> List[CampaignJob]:
    """Parse a JSONL job manifest into :class:`CampaignJob` entries.

    Each line is one JSON object naming exactly one circuit source —
    ``{"circuit": "C432s"}`` (suite name), ``{"blif": "path"}`` or
    ``{"seed": 7}`` (optionally with generator knobs ``inputs``/
    ``nodes``/``outputs``/``reconvergence``/``fanout_skew``/
    ``depth_bias``) — plus optional per-job overrides (``label``,
    ``library``, ``mode``, ``kind``, ``max_variants``, ``verify``,
    ``check``, ``decompose``, ``target``, ``weight``).  The keyword
    arguments are the defaults a line inherits.  An entry's effective
    weight is scaled by its mode's :data:`MODE_WEIGHT` multiplier
    (recovery and multimap jobs cost more than plain runs).

    Raises:
        RunnerConfigError: unreadable file, or a malformed entry or an
            unknown key (``R002``).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise RunnerConfigError(
            f"[R002] cannot read campaign manifest {path!r}: {exc}"
        ) from None
    jobs: List[CampaignJob] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            raise RunnerConfigError(
                f"[R002] campaign manifest {path}:{lineno}: malformed JSON"
            ) from None
        if not isinstance(entry, dict):
            raise RunnerConfigError(
                f"[R002] campaign manifest {path}:{lineno}: entry is not "
                "an object"
            )
        unknown = sorted(set(entry) - _MANIFEST_KEYS)
        if unknown:
            hint = (
                "; the matcher now chooses its own cut filter"
                if "engine" in unknown else ""
            )
            raise RunnerConfigError(
                f"[R002] campaign manifest {path}:{lineno}: unknown key "
                f"{unknown[0]!r}; accepted keys: "
                f"{', '.join(sorted(_MANIFEST_KEYS))}{hint}"
            )
        sources = [k for k in ("circuit", "blif", "seed") if k in entry]
        if len(sources) != 1:
            raise RunnerConfigError(
                f"[R002] campaign manifest {path}:{lineno}: need exactly "
                f"one of circuit/blif/seed, got {sources or 'none'}"
            )
        weight = int(entry.get("weight", 0))
        if "circuit" in entry:
            source: Tuple[str, ...] = ("suite", str(entry["circuit"]))
            stem = str(entry["circuit"])
        elif "blif" in entry:
            source = ("blif", str(entry["blif"]))
            stem = os.path.splitext(os.path.basename(str(entry["blif"])))[0]
        else:
            gen_json = _generator_json(
                n_inputs=entry.get("inputs"),
                n_nodes=entry.get("nodes"),
                n_outputs=entry.get("outputs"),
                reconvergence=entry.get("reconvergence"),
                fanout_skew=entry.get("fanout_skew"),
                depth_bias=entry.get("depth_bias"),
            )
            source = ("seed", str(int(entry["seed"])), gen_json)
            stem = f"s{int(entry['seed'])}"
            if not weight:
                weight = int(entry.get("nodes", 0))
        job_mode = str(entry.get("mode", mode))
        jobs.append(CampaignJob(
            label=str(entry.get("label", f"j{lineno}-{stem}")),
            source=source,
            library=str(entry.get("library", library)),
            mode=job_mode,
            kind=str(entry.get("kind", kind)),
            max_variants=int(entry.get("max_variants", max_variants)),
            verify=bool(entry.get("verify", verify)),
            check=bool(entry.get("check", check)),
            decompose=str(entry.get("decompose", "balanced")),
            target=float(entry.get("target", 1.0)),
            weight=weight * MODE_WEIGHT.get(job_mode, 1),
        ))
    if not jobs:
        raise RunnerConfigError(
            f"[R002] campaign manifest {path!r} contains no jobs"
        )
    return jobs


def seed_ensemble(
    seeds: Sequence[int],
    libraries: Sequence[str],
    nodes: int = 16,
    inputs: int = 6,
    mode: str = "dag",
    kind: str = "standard",
    max_variants: int = 8,
    verify: bool = False,
    check: bool = False,
    large_nodes: Optional[int] = None,
    large_every: int = 0,
) -> List[CampaignJob]:
    """A seeded fuzz-circuit ensemble rotating over ``libraries``.

    Each seed becomes one job labelled ``s<seed>-<library>``; libraries
    rotate round-robin so consecutive jobs hit *different* cache
    bundles — the worst case for per-process cache rebuilds and exactly
    what the warm pool amortises.  With ``large_every > 0``, every
    ``large_every``-th job generates a ``large_nodes``-node circuit
    instead (``weight`` = its node count) to exercise the engine's
    size sharding.
    """
    if not seeds or not libraries:
        raise RunnerConfigError(
            "[R002] seed ensemble needs at least one seed and one library"
        )
    small_json = _generator_json(n_inputs=inputs, n_nodes=nodes)
    big = large_nodes if large_nodes is not None else nodes * 8
    large_json = _generator_json(n_inputs=inputs, n_nodes=big)
    jobs: List[CampaignJob] = []
    for i, seed in enumerate(seeds):
        library = libraries[i % len(libraries)]
        is_large = large_every > 0 and i % large_every == large_every - 1
        jobs.append(CampaignJob(
            label=f"s{seed}-{library}",
            source=(
                "seed", str(seed), large_json if is_large else small_json
            ),
            library=library,
            mode=mode,
            kind=kind,
            max_variants=max_variants,
            verify=verify,
            check=check,
            weight=(big if is_large else nodes) * MODE_WEIGHT.get(mode, 1),
        ))
    return jobs


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------


@dataclass
class CampaignOutcome:
    """Materialised campaign result: rows in job order, plus counters."""

    rows: List[object]
    stats: RunStats

    @property
    def ok(self) -> bool:
        return not any(getattr(row, "failed", False) for row in self.rows)


def stream_campaign(
    jobs: Sequence[CampaignJob],
    workers: Optional[int] = None,
    warm: bool = True,
    journal_path: Optional[str] = None,
    resume_path: Optional[str] = None,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    large_weight: Optional[int] = None,
    stats: Optional[RunStats] = None,
) -> Iterator[StreamResult]:
    """Stream ``jobs`` through warm workers, yielding completion order.

    ``warm=False`` is the cold baseline: every job runs in a fresh
    worker process and rebuilds its cache bundle — per-job process
    dispatch, the thing the warm pool is benchmarked against.
    ``resume_path`` replays jobs journalled ``ok`` under the same key
    without re-running them (``resumed`` results carry ``attempts=0``,
    ``worker_id=-1``).  Result ``index`` values refer to positions in
    ``jobs``; everything else is :func:`~repro.perf.parallel.stream_jobs`.

    Raises:
        UnknownLibrarySpecError: a job names a bad library (``R001``),
            before any worker is spawned.
        RunnerConfigError: an unknown job mode or bad knob values
            (``R002``).
        WorkerInitError: a worker failed to initialise (``R003``).
        JournalError: unreadable ``resume_path`` (``R004``).
    """
    jobs = list(jobs)
    for mode in sorted({job.mode for job in jobs}):
        if mode not in MODES:
            raise RunnerConfigError(
                f"[R002] campaign job mode must be one of {MODES}, "
                f"got {mode!r}"
            )
    for spec in sorted({job.library for job in jobs}):
        resolve_library(spec)  # fail fast (R001) before any fork
    return stream_jobs(
        (
            StreamJob(
                label=job.label,
                payload=job,
                bundle=job.bundle(),
                weight=job.weight,
                key=job.key(),
            )
            for job in jobs
        ),
        _mapping_bundle_factory,
        workers=workers,
        warm=warm,
        large_weight=large_weight,
        cell_timeout=cell_timeout,
        retries=retries,
        backoff=backoff,
        journal=journal_path,
        resume=resume_path,
        row_type=CampaignRow,
        stats=stats,
    )


def run_mapping_campaign(
    jobs: Sequence[CampaignJob],
    workers: Optional[int] = None,
    warm: bool = True,
    journal_path: Optional[str] = None,
    resume_path: Optional[str] = None,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    large_weight: Optional[int] = None,
) -> CampaignOutcome:
    """Run a campaign to completion; rows come back in job order.

    A convenience wrapper over :func:`stream_campaign` for finite job
    lists: every job yields exactly one row — a :class:`CampaignRow` or
    a :class:`~repro.perf.parallel.CellFailure` — at its input position.
    """
    jobs = list(jobs)
    stats = RunStats()
    rows: List[object] = [None] * len(jobs)
    for result in stream_campaign(
        jobs,
        workers=workers,
        warm=warm,
        journal_path=journal_path,
        resume_path=resume_path,
        cell_timeout=cell_timeout,
        retries=retries,
        backoff=backoff,
        large_weight=large_weight,
        stats=stats,
    ):
        rows[result.index] = result.row
    return CampaignOutcome(rows=rows, stats=stats)
