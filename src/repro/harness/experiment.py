"""Experiment runners for every table and figure of the paper.

Each function returns plain data rows that
:mod:`repro.harness.tables` renders in the paper's layout.  The mapping
experiments verify every mapped netlist against its source network by
simulation before reporting, so a row in a table is also a correctness
certificate.

Experiment ids (DESIGN.md section 4):

* E1/E2/E3 — :func:`table1` / :func:`table2` / :func:`table3`: tree vs
  DAG covering under lib2-like / 44-1 / 44-3.
* E6 — :func:`flowmap_experiment`: FlowMap depth optimality.
* E7 — :func:`sequential_experiment`: retime-map-retime cycle times.
* E8 — :func:`area_recovery_experiment`.
* E9 — :func:`match_class_ablation`: standard vs extended matches.
* E10 — :func:`scaling_experiment`: runtime vs subject size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.bench import circuits as bench_circuits
from repro.bench.suite import SUITE, TABLE1_NAMES, TABLE23_NAMES
from repro.core.area_recovery import recover_area
from repro.core.dag_mapper import map_dag
from repro.core.match import MatchKind
from repro.core.tree_mapper import map_tree
from repro.errors import MappingError
from repro.fpga.flowmap import cutmap, flowmap
from repro.library.builtin import lib2_like, lib44_1, lib44_3
from repro.library.gate import GateLibrary
from repro.library.patterns import PatternSet
from repro.network.decompose import decompose_network
from repro.network.simulate import check_equivalent
from repro.perf.counters import RunStats
from repro.sequential.seqmap import map_sequential
from repro.timing.sta import analyze

__all__ = [
    "ComparisonRow",
    "tree_vs_dag_cell",
    "run_tree_vs_dag",
    "table1",
    "table2",
    "table3",
    "match_class_ablation",
    "scaling_experiment",
    "flowmap_experiment",
    "sequential_experiment",
    "area_recovery_experiment",
    "load_model_experiment",
    "decomposition_sensitivity_experiment",
    "buffering_experiment",
    "area_delay_curve",
    "panliu_experiment",
    "multimap_experiment",
    "sized_library_experiment",
    "library_scaling_experiment",
]


@dataclass
class ComparisonRow:
    """One row of a tree-vs-DAG table (the paper's Tables 1-3 layout)."""

    circuit: str
    iscas: str
    subject_gates: int
    tree_delay: float
    dag_delay: float
    tree_area: float
    dag_area: float
    tree_cpu: float
    dag_cpu: float
    verified: bool
    tree_counters: Optional[Dict[str, float]] = None
    dag_counters: Optional[Dict[str, float]] = None
    #: Bit-parallel kernel counters for this cell's verification stage
    #: (vectors, seconds, sim_vectors_per_sec); None when verify=False.
    sim_counters: Optional[Dict[str, float]] = None

    @property
    def improvement(self) -> float:
        """Relative delay improvement of DAG over tree covering."""
        if self.tree_delay <= 0:
            return 0.0
        return (self.tree_delay - self.dag_delay) / self.tree_delay


def tree_vs_dag_cell(
    name: str,
    patterns: PatternSet,
    kind: MatchKind = MatchKind.STANDARD,
    verify: bool = True,
    check: bool = False,
) -> ComparisonRow:
    """One (circuit, library) cell of a tree-vs-DAG table: both mappers.

    Self-contained so that :func:`run_tree_vs_dag` can dispatch cells to
    pool workers (:func:`_suite_bundle_factory`); each cell is deterministic,
    so rows are identical however the cells are scheduled.  ``check=True``
    runs the :mod:`repro.check` certificate on both mapping results
    (raising :class:`~repro.errors.CertificateError` on any error).
    """
    entry = SUITE[name]
    net = entry.build()
    subject = decompose_network(net)
    tree = map_tree(subject, patterns, check=check)
    dag = map_dag(subject, patterns, kind=kind, check=check)
    verified = False
    sim_counters: Optional[Dict[str, float]] = None
    if verify:
        from repro.network.bitsim import SIM_STATS

        before = SIM_STATS.snapshot()
        check_equivalent(net, tree.netlist)
        check_equivalent(net, dag.netlist)
        verified = True
        sim_counters = SIM_STATS.delta(before).as_dict()
    return ComparisonRow(
        circuit=name,
        iscas=entry.iscas,
        subject_gates=subject.n_gates,
        tree_delay=tree.delay,
        dag_delay=dag.delay,
        tree_area=tree.area,
        dag_area=dag.area,
        tree_cpu=tree.cpu_seconds,
        dag_cpu=dag.cpu_seconds,
        verified=verified,
        tree_counters=tree.counters,
        dag_counters=dag.counters,
        sim_counters=sim_counters,
    )


def _suite_bundle_factory() -> Callable[[tuple], Callable[[str], ComparisonRow]]:
    """Pool-worker bundle factory for table cells.

    The returned ``build`` turns one bundle key — ``(spec, max_variants,
    kind_value, verify, check)`` — into a runner mapping a circuit name
    to its :class:`ComparisonRow`.  Building the pattern set is the
    expensive part, paid once per worker.
    """

    def build(bundle_key: tuple) -> Callable[[str], ComparisonRow]:
        from repro.perf.parallel import resolve_library

        spec, max_variants, kind_value, verify, check = bundle_key
        patterns = PatternSet(resolve_library(spec), max_variants=max_variants)
        kind = MatchKind(kind_value)

        def runner(name: str) -> ComparisonRow:
            return tree_vs_dag_cell(
                name,
                patterns,
                kind=kind,
                verify=verify,
                check=check,
            )

        return runner

    return build


def run_tree_vs_dag(
    library: Union[GateLibrary, PatternSet],
    names: Optional[Sequence[str]] = None,
    kind: MatchKind = MatchKind.STANDARD,
    max_variants: int = 8,
    verify: bool = True,
    jobs: int = 1,
    library_spec: Optional[str] = None,
    check: bool = False,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    journal: Optional[str] = None,
    resume: Optional[str] = None,
    stats: Optional[RunStats] = None,
) -> List[ComparisonRow]:
    """Map every named suite circuit with both mappers on one library.

    ``jobs > 1`` streams the cells through the worker pool
    (:func:`repro.perf.parallel.stream_jobs`, which rejects ``jobs < 1``
    with ``[R002]``); this needs ``library_spec`` (a builtin library
    name or genlib path) so each worker can rebuild the pattern set, and
    falls back to the serial path when no spec is available.  Serial and
    pooled runs produce identical rows.  ``check=True`` certifies every
    mapping result (serial and pooled alike).

    The runner options also *force* the pool (even at ``jobs=1``, with
    one isolated worker): ``cell_timeout`` bounds each cell's
    wall-clock, ``retries`` bounds transient-failure retries,
    ``journal`` appends one JSONL record per finished cell, and
    ``resume`` replays a previous journal so only missing or failed
    cells are re-run.  In the pool a failed cell yields a
    :class:`repro.perf.parallel.CellFailure` entry in the returned list
    instead of aborting the run, and ``stats`` collects the run's
    counters.
    """
    names = list(TABLE1_NAMES if names is None else names)
    forced = any(
        opt is not None for opt in (cell_timeout, retries, journal, resume)
    )
    if library_spec is None and forced:
        # jobs > 1 without a spec keeps the historical serial fallback,
        # but the fault-tolerance options cannot be silently dropped.
        from repro.errors import RunnerConfigError

        raise RunnerConfigError(
            "[R002] cell_timeout/retries/journal/resume need library_spec "
            "so worker processes can rebuild the pattern set"
        )
    if library_spec is None or (jobs == 1 and not forced):
        patterns = PatternSet.of(library, max_variants)
        return [
            tree_vs_dag_cell(
                name, patterns, kind=kind, verify=verify, check=check
            )
            for name in names
        ]
    from repro.perf.journal import cell_key
    from repro.perf.parallel import StreamJob, resolve_library, stream_jobs

    resolve_library(library_spec)  # fail fast (R001) before any fork
    bundle = (
        library_spec, int(max_variants), kind.value, bool(verify),
        bool(check),
    )
    stream = stream_jobs(
        (
            StreamJob(
                label=name,
                payload=name,
                bundle=bundle,
                key=cell_key(
                    library_spec, kind.value, name, max_variants, verify,
                    check,
                ),
            )
            for name in names
        ),
        _suite_bundle_factory,
        workers=jobs,
        eager_bundles=(bundle,),
        cell_timeout=cell_timeout,
        retries=retries,
        journal=journal,
        resume=resume,
        row_type=ComparisonRow,
        stats=stats,
    )
    rows: List[Any] = [None] * len(names)
    for result in stream:
        row: Any = result.row
        if result.failed:
            entry = SUITE.get(result.label)
            row.iscas = entry.iscas if entry is not None else ""
        rows[result.index] = row
    return rows


def table1(**kwargs: Any) -> List[ComparisonRow]:
    """E1 / paper Table 1: tree vs DAG under the lib2-like library."""
    kwargs.setdefault("library_spec", "lib2")
    return run_tree_vs_dag(lib2_like(), names=kwargs.pop("names", TABLE1_NAMES), **kwargs)


def table2(**kwargs: Any) -> List[ComparisonRow]:
    """E2 / paper Table 2: tree vs DAG under the 7-gate 44-1 library."""
    kwargs.setdefault("library_spec", "44-1")
    return run_tree_vs_dag(lib44_1(), names=kwargs.pop("names", TABLE23_NAMES), **kwargs)


def table3(max_variants: int = 4, **kwargs: Any) -> List[ComparisonRow]:
    """E3 / paper Table 3: tree vs DAG under the rich 44-3 library."""
    kwargs.setdefault("library_spec", "44-3")
    return run_tree_vs_dag(
        lib44_3(),
        names=kwargs.pop("names", TABLE23_NAMES),
        max_variants=max_variants,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Ablations and extension experiments
# ----------------------------------------------------------------------


def match_class_ablation(
    library: Optional[GateLibrary] = None,
    names: Optional[Sequence[str]] = None,
    max_variants: int = 8,
) -> List[Dict[str, object]]:
    """E9: standard vs extended matches (paper footnote 3).

    The paper reports "no major difference in mapping quality"; extended
    matches can only improve delay (they subsume standard matches), so
    the expected shape is extended_delay <= standard_delay with a tiny or
    zero gap.
    """
    patterns = PatternSet(library or lib2_like(), max_variants=max_variants)
    rows: List[Dict[str, object]] = []
    for name in names or TABLE23_NAMES:
        net = SUITE[name].build()
        subject = decompose_network(net)
        std = map_dag(subject, patterns, kind=MatchKind.STANDARD)
        ext = map_dag(subject, patterns, kind=MatchKind.EXTENDED)
        check_equivalent(net, ext.netlist)
        rows.append(
            {
                "circuit": name,
                "standard_delay": std.delay,
                "extended_delay": ext.delay,
                "standard_matches": std.n_matches,
                "extended_matches": ext.n_matches,
                "standard_cpu": std.cpu_seconds,
                "extended_cpu": ext.cpu_seconds,
            }
        )
    return rows


def scaling_experiment(
    sizes: Sequence[int] = (2, 3, 4, 5, 6, 8),
    library: Optional[GateLibrary] = None,
    max_variants: int = 8,
) -> List[Dict[str, float]]:
    """E10: mapper runtime vs subject size (Section 3.4 linearity).

    Maps the array-multiplier family; with the library fixed, labeling
    work per node is bounded, so cpu/subject_gates should be roughly
    constant.
    """
    patterns = PatternSet(library or lib2_like(), max_variants=max_variants)
    rows: List[Dict[str, float]] = []
    for size in sizes:
        subject = decompose_network(bench_circuits.array_multiplier(size))
        result = map_dag(subject, patterns)
        rows.append(
            {
                "width": size,
                "subject_gates": subject.n_gates,
                "cpu": result.cpu_seconds,
                "cpu_per_gate": result.cpu_seconds / max(1, subject.n_gates),
                "delay": result.delay,
            }
        )
    return rows


def flowmap_experiment(
    names: Optional[Sequence[str]] = None,
    ks: Sequence[int] = (4, 5),
    cross_check: bool = True,
) -> List[Dict[str, object]]:
    """E6: FlowMap depth-optimal LUT mapping (the paper's Section 2 basis).

    Runs the max-flow engine, optionally cross-checking depths against
    the explicit cut-enumeration engine, and verifies LUT netlists by
    simulation.
    """
    rows: List[Dict[str, object]] = []
    for name in names or ["C432s", "C880s", "C1908s", "C2670s"]:
        net = SUITE[name].build()
        for k in ks:
            flow = flowmap(net, k=k)
            check_equivalent(net, flow.network)
            row: Dict[str, object] = {
                "circuit": name,
                "k": k,
                "depth": flow.depth,
                "luts": flow.lut_count(),
                "cpu": flow.cpu_seconds,
            }
            if cross_check:
                cuts = cutmap(net, k=k)
                row["cut_depth"] = cuts.depth
                row["agree"] = cuts.depth == flow.depth
            rows.append(row)
    return rows


def sequential_experiment(
    library: Optional[GateLibrary] = None,
    max_variants: int = 8,
) -> List[Dict[str, object]]:
    """E7: retime-map-retime cycle times on sequential workloads."""
    library = library or lib2_like()
    patterns = PatternSet(library, max_variants=max_variants)
    workloads = {
        "lfsr16": bench_circuits.lfsr(16),
        "acc8": bench_circuits.accumulator(8),
        "mult4_reg": bench_circuits.register_boundaries(
            bench_circuits.array_multiplier(4), output_stages=3
        ),
        "cla8_reg": bench_circuits.register_boundaries(
            bench_circuits.carry_lookahead_adder(8), output_stages=2
        ),
    }
    rows: List[Dict[str, object]] = []
    for name, net in workloads.items():
        for mode in ("tree", "dag"):
            result = map_sequential(net, patterns, mode=mode)
            rows.append(
                {
                    "circuit": name,
                    "mode": mode,
                    "mapped_period": result.mapped_period,
                    "retimed_period": result.retimed_period,
                    "regs_before": result.registers_before,
                    "regs_after": result.registers_after,
                    "cpu": result.cpu_seconds,
                }
            )
    return rows


def load_model_experiment(
    names: Optional[Sequence[str]] = None,
    max_variants: int = 8,
) -> List[Dict[str, object]]:
    """E11: how good is the load-independent approximation (footnote 4)?

    Maps under the load-independent model (as the paper does), then
    re-times the same netlists under the genlib linear load model.  The
    ratio quantifies the error the paper's Section 5 argues is acceptable;
    buffering (E12) is the mitigation it cites.
    """
    from repro.timing.delay_model import LoadDependentModel

    patterns = PatternSet(lib2_like(), max_variants=max_variants)
    model = LoadDependentModel()
    rows: List[Dict[str, object]] = []
    for name in names or TABLE23_NAMES:
        net = SUITE[name].build()
        subject = decompose_network(net)
        for result in (map_tree(subject, patterns), map_dag(subject, patterns)):
            loaded = analyze(result.netlist, model=model)
            rows.append(
                {
                    "circuit": name,
                    "mode": result.mode,
                    "intrinsic_delay": result.delay,
                    "loaded_delay": loaded.delay,
                    "ratio": loaded.delay / result.delay if result.delay else 1.0,
                    "max_fanout": max(
                        result.netlist.fanout_counts().values(), default=0
                    ),
                }
            )
    return rows


def buffering_experiment(
    names: Optional[Sequence[str]] = None,
    max_fanout: int = 3,
    max_variants: int = 8,
) -> List[Dict[str, object]]:
    """E12: buffer trees at the fanout points DAG covering creates.

    Section 3.5: buffering "can be directly used in conjunction with DAG
    covering to speed up such multiple-fanout points".  We buffer the DAG
    cover and measure the load-model delay before/after.
    """
    from repro.timing.buffering import buffer_fanout
    from repro.timing.delay_model import LoadDependentModel

    library = lib2_like()
    patterns = PatternSet(library, max_variants=max_variants)
    model = LoadDependentModel()
    rows: List[Dict[str, object]] = []
    for name in names or TABLE23_NAMES:
        net = SUITE[name].build()
        subject = decompose_network(net)
        dag = map_dag(subject, patterns)
        before = analyze(dag.netlist, model=model).delay
        report = buffer_fanout(dag.netlist, library, max_fanout=max_fanout)
        check_equivalent(net, report.netlist)
        after = analyze(report.netlist, model=model).delay
        rows.append(
            {
                "circuit": name,
                "loaded_before": before,
                "loaded_after": after,
                "buffers": report.buffers_added,
                "signals_buffered": report.signals_buffered,
                "area_before": dag.netlist.area(),
                "area_after": report.netlist.area(),
            }
        )
    return rows


def decomposition_sensitivity_experiment(
    names: Optional[Sequence[str]] = None,
    max_variants: int = 8,
) -> List[Dict[str, object]]:
    """E13: sensitivity to the initial subject-graph decomposition.

    The paper's Section 4 observes that optimality is relative to one
    arbitrarily chosen decomposition and cites Lehman et al.'s mapping
    graphs as the remedy.  Mapping balanced vs linear subject graphs of
    the same circuits measures how much is at stake.
    """
    patterns = PatternSet(lib2_like(), max_variants=max_variants)
    rows: List[Dict[str, object]] = []
    for name in names or TABLE23_NAMES:
        net = SUITE[name].build()
        row: Dict[str, object] = {"circuit": name}
        for style in ("balanced", "linear"):
            subject = decompose_network(net, style=style)
            dag = map_dag(subject, patterns)
            check_equivalent(net, dag.netlist)
            row[f"{style}_gates"] = subject.n_gates
            row[f"{style}_delay"] = dag.delay
        rows.append(row)
    return rows


def area_delay_curve(
    name: str = "C2670s",
    factors: Sequence[float] = (1.0, 1.05, 1.1, 1.2, 1.4),
    max_variants: int = 8,
) -> List[Dict[str, float]]:
    """E14: the area-delay trade-off curve of the concluding extension."""
    patterns = PatternSet(lib2_like(), max_variants=max_variants)
    net = SUITE[name].build()
    subject = decompose_network(net)
    dag = map_dag(subject, patterns)
    rows: List[Dict[str, float]] = []
    for factor in factors:
        target = dag.delay * factor
        recovered = recover_area(dag.labels, patterns, target=target)
        report = analyze(recovered)
        rows.append(
            {
                "target_factor": factor,
                "delay": report.delay,
                "area": recovered.area(),
                "gates": float(recovered.gate_count()),
            }
        )
    return rows


def panliu_experiment(
    library: Optional[GateLibrary] = None,
    max_variants: int = 8,
) -> List[Dict[str, object]]:
    """E16: the Section 4 decision procedure vs retime-map-retime.

    The coupled labeling (mapping aware of retiming slack) must never be
    worse than the three-step pipeline, and on register-starved pipelines
    it is strictly better because it can pick matches knowing where the
    registers will land.
    """
    from repro.sequential.panliu import min_sequential_period

    patterns = PatternSet(library or lib2_like(), max_variants=max_variants)
    workloads = {
        "acc6": bench_circuits.accumulator(6),
        "lfsr12": bench_circuits.lfsr(12),
        "mult4_p2": bench_circuits.register_boundaries(
            bench_circuits.array_multiplier(4), output_stages=2
        ),
    }
    rows: List[Dict[str, object]] = []
    for name, net in workloads.items():
        three_step = map_sequential(net, patterns, mode="dag")
        phi_star, _ = min_sequential_period(net, patterns)
        rows.append(
            {
                "circuit": name,
                "three_step_period": three_step.retimed_period,
                "coupled_period": phi_star,
                "gain_pct": 100.0
                * (three_step.retimed_period - phi_star)
                / max(three_step.retimed_period, 1e-9),
            }
        )
    return rows


def library_scaling_experiment(
    name: str = "C880s",
    fractions: Sequence[float] = (0.25, 0.5, 1.0),
    max_variants: int = 4,
) -> List[Dict[str, object]]:
    """E19: runtime scales with the pattern-set size p (Section 3.4).

    E10 fixes the library and grows the subject (the ``s`` of O(s*p));
    this experiment fixes the subject and grows the library by mapping
    against increasing prefixes of the rich 44-3 library.  cpu per
    pattern node should stay roughly constant, and delay can only
    improve as gates are added.
    """
    from repro.library.gate import GateLibrary

    full = lib44_3()
    subject = decompose_network(SUITE[name].build())
    # The prefix must always contain INV and NAND2 to stay complete.
    essentials = [full.inverter(), full.nand2()]
    others = [g for g in full if g.name not in {e.name for e in essentials}]
    rows: List[Dict[str, object]] = []
    for fraction in fractions:
        count = max(1, int(len(others) * fraction))
        library = GateLibrary(
            essentials + others[:count], name=f"44-3@{fraction:g}"
        )
        patterns = PatternSet(library, max_variants=max_variants)
        result = map_dag(subject, patterns)
        rows.append(
            {
                "fraction": fraction,
                "gates": len(library),
                "pattern_nodes": patterns.total_nodes,
                "delay": result.delay,
                "cpu": result.cpu_seconds,
                "cpu_per_pattern_node": result.cpu_seconds
                / max(1, patterns.total_nodes),
            }
        )
    return rows


def multimap_experiment(
    names: Optional[Sequence[str]] = None,
    max_variants: int = 8,
) -> List[Dict[str, object]]:
    """E17: mapping over multiple decompositions (Lehman et al. lite).

    Per-output choice between balanced and linear subject graphs; the
    composite delay can only match or beat every single decomposition —
    the "combine the two techniques" remark of Section 4.
    """
    from repro.core.multimap import map_multi_decomposition

    patterns = PatternSet(lib2_like(), max_variants=max_variants)
    rows: List[Dict[str, object]] = []
    for name in names or TABLE23_NAMES:
        net = SUITE[name].build()
        result = map_multi_decomposition(net, patterns)
        check_equivalent(net, result.netlist)
        rows.append(
            {
                "circuit": name,
                "balanced": result.per_style["balanced"].delay,
                "linear": result.per_style["linear"].delay,
                "composite": result.delay,
                "area": result.area,
            }
        )
    return rows


def sized_library_experiment(
    strength_counts: Sequence[int] = (1, 2, 3),
    names: Optional[Sequence[str]] = None,
    max_variants: int = 8,
) -> List[Dict[str, object]]:
    """E18: discrete gate sizing is expensive (Section 5's remark).

    Replicating every gate in k drive strengths leaves the
    load-independent optimum untouched (the fastest strength dominates)
    while the matching work grows with k — the cost the paper cites as
    its reason to prefer one delay per gate plus continuous sizing.
    """
    from repro.library.builtin import lib2_sized

    rows: List[Dict[str, object]] = []
    for name in names or ["C880s", "C2670s"]:
        net = SUITE[name].build()
        subject = decompose_network(net)
        for count in strength_counts:
            strengths = tuple(2 ** i for i in range(count))
            library = lib2_sized(strengths)
            patterns = PatternSet(library, max_variants=max_variants)
            result = map_dag(subject, patterns)
            rows.append(
                {
                    "circuit": name,
                    "strengths": count,
                    "gates": len(library),
                    "delay": result.delay,
                    "cpu": result.cpu_seconds,
                    "matches": result.n_matches,
                }
            )
    return rows


def area_recovery_experiment(
    library: Optional[GateLibrary] = None,
    names: Optional[Sequence[str]] = None,
    max_variants: int = 8,
    slack_factors: Sequence[float] = (1.0, 1.1),
) -> List[Dict[str, object]]:
    """E8: area recovery at the optimal delay and with 10% slack."""
    patterns = PatternSet(library or lib2_like(), max_variants=max_variants)
    rows: List[Dict[str, object]] = []
    for name in names or TABLE23_NAMES:
        net = SUITE[name].build()
        subject = decompose_network(net)
        dag = map_dag(subject, patterns)
        row: Dict[str, object] = {
            "circuit": name,
            "delay": dag.delay,
            "area_plain": dag.area,
        }
        for factor in slack_factors:
            target = dag.delay * factor
            recovered = recover_area(
                dag.labels, patterns, target=target
            )
            check_equivalent(net, recovered)
            report = analyze(recovered)
            if report.delay > target + 1e-6:
                raise MappingError(
                    f"area recovery broke the delay target on {name}: "
                    f"{report.delay:.6f} > {target:.6f}"
                )
            key = "opt" if factor == 1.0 else f"x{factor:g}"
            row[f"area_{key}"] = recovered.area()
            row[f"delay_{key}"] = report.delay
        rows.append(row)
    return rows
