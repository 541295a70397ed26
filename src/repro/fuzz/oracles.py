"""The differential oracle battery: cross-checks for one fuzzed netlist.

Each fuzzed circuit runs through every cheap independent oracle the
repository has accumulated, and every disagreement becomes a coded
``F###`` diagnostic in a standard :class:`~repro.check.CheckReport`:

``F001``  the DAG mapper's delay exceeds the tree mapper's — the paper's
          central invariant (DAG covering dominates tree covering under
          the load-independent model) violated;
``F002``  a mapped netlist is not functionally equivalent to the source
          network (packed bit-parallel equivalence, exhaustive on small
          input counts, seeded random beyond);
``F003``  the packed big-int engine and the per-vector scalar engine
          disagree on some output word — the simulation kernel itself is
          broken;
``F004``  :func:`repro.check.certify_mapping` rejects a mapping run (the
          certificate's ``C###`` findings ride along in the message);
``F005``  a randomly constructed cover beats the labeling's claimed
          optimal arrival — disproving delay optimality;
``F006``  a mapper raised instead of producing a result;
``F007``  the generated network (or its subject graph) fails the
          structural linters — a generator defect, not a mapper one;
``F009``  the matcher's cut filter forced on (``Matcher(cut_filter=True)``)
          produces a different delay, area or cover than forced off on
          either mapper — the filter only drops patterns that provably
          cannot match, so any divergence is a filter-soundness bug;
``F010``  area recovery or multimap violates its contract: a recovered
          cover fails the target-aware mapping certificate, misses its
          delay budget or is larger than the plain cover, or the
          multi-decomposition composite is not simulation-equivalent to
          the source network (or slower than its best single style);
``F011``  incremental remapping diverges from from-scratch: a seeded
          edit script is derived from the circuit, applied, and
          :func:`repro.eco.eco_remap` of the edited network against the
          unmutated base mapping must be byte-identical (delay, area,
          mapped-BLIF cover) to a fresh ``map_dag`` — once per forced
          cut-filter state.

The battery never raises on a failing circuit; it reports.  Deterministic
fault injection for tests and CI mirrors the worker pool's
``REPRO_FAULT_INJECT`` hook::

    REPRO_FUZZ_INJECT=delay    # mis-report the DAG delay (F001/F004)
    REPRO_FUZZ_INJECT=cover    # corrupt one selected match (F004, F002)
    REPRO_FUZZ_INJECT=corrupt  # functionally corrupt one output (F002)
    REPRO_FUZZ_INJECT=engine   # skew the filtered re-map (F009)
    REPRO_FUZZ_INJECT=eco      # skew the incremental re-map (F011)

Each mutation is applied to the mapping result *inside* the battery, so
a reproducer replayed under the same environment fails identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import env
from repro.check import certify_mapping, lint_network, lint_subject
from repro.check.diagnostics import CheckReport
from repro.core.cover import build_cover
from repro.core.dag_mapper import map_dag
from repro.core.match import Matcher, MatchKind
from repro.core.result import MappingResult
from repro.core.tree_mapper import map_tree
from repro.library.patterns import PatternSet
from repro.network import bitsim
from repro.network.bnet import BooleanNetwork
from repro.network.decompose import decompose_network
from repro.network.subject import SubjectGraph
from repro.network.simulate import (
    exhaustive_equivalence,
    random_equivalence,
)
from repro.perf.parallel import resolve_library
from repro.timing.sta import analyze

__all__ = ["OracleConfig", "run_battery", "INJECT_MODES", "FUZZ_INJECT_ENV"]

#: Environment hook selecting a deterministic result mutation.
FUZZ_INJECT_ENV = "REPRO_FUZZ_INJECT"

#: The supported mutation classes (see the module docstring).
INJECT_MODES: Tuple[str, ...] = ("delay", "cover", "corrupt", "engine", "eco")

_EPS = 1e-9


@dataclass(frozen=True)
class OracleConfig:
    """Which library/mapper configuration the battery checks.

    Attributes:
        library: respawnable library spec (builtin name or genlib path).
        kind: DAG match class (``standard`` / ``exact`` / ``extended``).
        max_variants: pattern decomposition variants per gate.
        decompose: subject-graph decomposition style.
        optimality_trials: random covers probed per circuit (F005).
        optimality_max_gates: skip the F005 probe above this subject
            size (random covers get slow and weak on big graphs).
        scalar_max_inputs: skip the scalar/packed differential (F003)
            above this input count (the scalar engine is ~100x slower).
        cross_engines: run the F009 filter-on-vs-off differential, and
            F011 with the filter forced on as well as off.
        contract_max_gates: skip the F010 recovery/multimap contract
            probe above this subject size (multimap maps the circuit
            once per decomposition style).
        inject: mutation class, or ``None`` to read ``REPRO_FUZZ_INJECT``.
    """

    library: str = "mini"
    kind: str = "standard"
    max_variants: int = 8
    decompose: str = "balanced"
    optimality_trials: int = 8
    optimality_max_gates: int = 120
    scalar_max_inputs: int = 10
    cross_engines: bool = True
    contract_max_gates: int = 200
    inject: Optional[str] = None

    def resolved_inject(self) -> Optional[str]:
        mode = self.inject
        if mode is None:
            mode = env.read_str(FUZZ_INJECT_ENV)
        if mode is not None and mode not in INJECT_MODES:
            raise ValueError(
                f"unknown fuzz injection mode {mode!r}; "
                f"valid: {', '.join(INJECT_MODES)}"
            )
        return mode

    def as_dict(self) -> Dict[str, object]:
        return {
            "library": self.library,
            "kind": self.kind,
            "max_variants": self.max_variants,
            "decompose": self.decompose,
        }

    def build_patterns(self) -> PatternSet:
        return PatternSet(
            resolve_library(self.library), max_variants=self.max_variants
        )


# ----------------------------------------------------------------------
# Deterministic result mutations (the injected-bug classes)
# ----------------------------------------------------------------------


def _inject_delay(result: MappingResult) -> str:
    """Mis-report the DAG delay by a full unit (a delay-miscount bug)."""
    result.delay += 1.0
    return "reported delay inflated by 1.0"


def _inject_cover(result: MappingResult, patterns: PatternSet) -> str:
    """Corrupt one selected match's instantiation (a wrong-cover bug).

    Rewires the first gate instance's first input pin to a primary input
    it does not use — structurally safe (a PI can never create a cycle)
    and always a certificate violation (``C002``).  Falls back to
    swapping the cell for a same-arity, different-function cell when the
    netlist offers no rewire target.
    """
    netlist = result.netlist
    for gate in netlist.gates:
        for pi in netlist.pis:
            if pi not in gate.inputs:
                gate.inputs = (pi,) + tuple(gate.inputs[1:])
                return (
                    f"instance {gate.instance!r} pin 0 rewired to {pi!r}"
                )
    for gate in netlist.gates:
        for cell in patterns.library:
            if cell.n_inputs == gate.gate.n_inputs and cell.tt != gate.gate.tt:
                gate.gate = cell
                return (
                    f"instance {gate.instance!r} cell swapped to {cell.name!r}"
                )
    return _inject_delay(result)  # degenerate netlist: fall back


def _inject_corrupt(result: MappingResult, patterns: PatternSet) -> str:
    """Functionally corrupt one primary output (a wrong-function bug).

    Inserts a library inverter in front of the first primary output, so
    that output's function is complemented — guaranteed inequivalence.
    """
    netlist = result.netlist
    if not netlist.pos:
        return _inject_delay(result)
    inverter = patterns.library.inverter()
    po_name, signal = netlist.pos[0]
    corrupted = "fuzz_corrupt__"
    netlist.add_gate(inverter, [signal], corrupted)
    netlist.pos[0] = (po_name, corrupted)
    return f"primary output {po_name!r} complemented via {inverter.name!r}"


def _apply_injection(
    mode: Optional[str],
    result: MappingResult,
    patterns: PatternSet,
    report: CheckReport,
) -> None:
    if mode is None or mode in ("engine", "eco"):
        return  # "engine"/"eco" are applied inside their own oracles
    if mode == "delay":
        what = _inject_delay(result)
    elif mode == "cover":
        what = _inject_cover(result, patterns)
    else:
        what = _inject_corrupt(result, patterns)
    report.meta["inject"] = mode
    report.meta["inject_detail"] = what


# ----------------------------------------------------------------------
# Individual oracles
# ----------------------------------------------------------------------


def _check_equivalence(
    report: CheckReport, net: BooleanNetwork, result: MappingResult, tag: str
) -> None:
    """F002: mapped netlist vs source network, packed engine."""
    try:
        n_inputs = len(net.combinational_inputs())
        if n_inputs <= bitsim.EXHAUSTIVE_LIMIT:
            cex = exhaustive_equivalence(net, result.netlist)
        else:
            cex = random_equivalence(net, result.netlist)
    except Exception as exc:  # adapter/shape failures are findings too
        report.add(
            "F002",
            f"{tag} equivalence check failed to run: {exc}",
            obj=net.name,
        )
        return
    if cex is not None:
        report.add(
            "F002",
            f"{tag} netlist differs from the source network: {cex}",
            obj=net.name,
        )


def _check_engines(
    report: CheckReport,
    net: BooleanNetwork,
    result: MappingResult,
    max_inputs: int,
) -> None:
    """F003: packed vs scalar output words on identical input batches."""
    for obj, tag in ((net, "source"), (result.netlist, "mapped")):
        try:
            sim = bitsim.adapt(obj)
            if len(sim.inputs) > max_inputs:
                continue
            words, mask = bitsim.exhaustive_words(sim.inputs)
            packed = bitsim.simulate_words(sim, words, mask, engine="packed")
            scalar = bitsim.simulate_words(sim, words, mask, engine="scalar")
        except Exception as exc:
            report.add(
                "F003", f"{tag} engine cross-check failed to run: {exc}",
                obj=net.name,
            )
            continue
        for name in sim.outputs:
            if packed[name] != scalar[name]:
                report.add(
                    "F003",
                    f"{tag} output {name!r}: packed word "
                    f"{packed[name]:#x} != scalar word {scalar[name]:#x}",
                    obj=net.name,
                )
                break


def _cover_multiset(result: MappingResult) -> List[Tuple[str, Tuple[str, ...]]]:
    """The cover as a comparable multiset of (cell, input signals)."""
    return sorted(
        (gate.gate.name, tuple(gate.inputs)) for gate in result.netlist.gates
    )


def _forced(patterns: PatternSet, kind: MatchKind, cut_filter: bool) -> Matcher:
    """A fresh matcher with the cut filter forced on or off."""
    return Matcher(patterns, kind, cut_filter=cut_filter)


def _check_filter_agreement(
    report: CheckReport,
    subject: SubjectGraph,
    patterns: PatternSet,
    kind: MatchKind,
    inject: Optional[str],
) -> None:
    """F009: the cut filter must not change any mapping result.

    Maps the subject with the filter forced on and forced off (both
    mappers, whatever the matcher's own rule would choose) and compares
    delay, area and the selected cover.  The filter only drops patterns
    that provably cannot match under any match class, so any divergence
    is an error.  Independent of the battery's main results, so the
    other injection modes cannot trip it.
    """

    def remap(tag: str, cut_filter: bool) -> MappingResult:
        if tag == "tree":
            return map_tree(subject, patterns, matcher=_forced(
                patterns, MatchKind.EXACT, cut_filter))
        return map_dag(subject, patterns, kind=kind, matcher=_forced(
            patterns, kind, cut_filter))

    for tag in ("tree", "DAG"):
        try:
            plain = remap(tag, False)
            filtered = remap(tag, True)
        except Exception as exc:
            report.add(
                "F009",
                f"{tag} mapping with the cut filter forced raised "
                f"{type(exc).__name__}: {exc}",
                obj=subject.name,
            )
            continue
        if inject == "engine":
            filtered.delay += 1.0
            report.meta["inject"] = "engine"
            report.meta["inject_detail"] = (
                "filtered re-map reported delay inflated by 1.0"
            )
        if abs(filtered.delay - plain.delay) > _EPS:
            report.add(
                "F009",
                f"{tag} delay diverges: filter on {filtered.delay:.4f} != "
                f"off {plain.delay:.4f}",
                obj=subject.name,
            )
            continue
        if abs(filtered.area - plain.area) > _EPS:
            report.add(
                "F009",
                f"{tag} area diverges: filter on {filtered.area:.4f} != "
                f"off {plain.area:.4f}",
                obj=subject.name,
            )
            continue
        if _cover_multiset(filtered) != _cover_multiset(plain):
            report.add(
                "F009",
                f"{tag} cover diverges with the cut filter on and off "
                f"(same delay/area, different gate selection)",
                obj=subject.name,
            )


def _check_eco(
    report: CheckReport,
    net: BooleanNetwork,
    subject: SubjectGraph,
    patterns: PatternSet,
    kind: MatchKind,
    config: OracleConfig,
    dag_result: MappingResult,
    inject: Optional[str],
) -> None:
    """F011: incremental remapping must equal from-scratch, byte for byte.

    Derives a deterministic edit script from the circuit's own shape
    (:func:`repro.fuzz.generator.derive_edit_seed`, so shrunken
    candidates re-derive valid scripts), applies it, and compares
    ``eco_remap`` against a fresh ``map_dag`` of the edited network —
    with exact ``==`` on delay, area and the mapped-BLIF text, once per
    forced cut-filter state.  Runs *before* any result mutation, against
    the unmutated base mapping; the ``eco`` injection mode skews the
    incremental result inside this oracle only.
    """
    from repro.eco import eco_remap
    from repro.errors import NetworkError
    from repro.fuzz.generator import derive_edit_seed, random_edit_script
    from repro.network.mapped_io import dumps_mapped_blif

    try:
        script = random_edit_script(net, seed=derive_edit_seed(net), n_edits=2)
        edited = script.apply(net)
    except NetworkError as exc:
        report.meta["eco_skipped"] = str(exc)
        return
    report.meta["eco_script"] = script.encode()

    states = [False]
    if config.cross_engines:
        states.append(True)
    for cut_filter in states:
        tag = f"filter-{'on' if cut_filter else 'off'}"
        try:
            eco = eco_remap(
                dag_result, edited, patterns, decompose=config.decompose,
                matcher=_forced(patterns, kind, cut_filter),
            )
        except Exception as exc:
            report.add(
                "F011",
                f"{tag} eco remap raised {type(exc).__name__}: {exc}",
                obj=net.name,
            )
            continue
        try:
            scratch = map_dag(
                decompose_network(edited, style=config.decompose),
                patterns,
                kind=kind,
                matcher=_forced(patterns, kind, cut_filter),
            )
        except Exception as exc:
            report.add(
                "F011",
                f"{tag} from-scratch remap raised "
                f"{type(exc).__name__}: {exc}",
                obj=net.name,
            )
            continue
        result = eco.result
        if inject == "eco" and not cut_filter:
            result.delay += 1.0
            report.meta["inject"] = "eco"
            report.meta["inject_detail"] = (
                "incremental reported delay inflated by 1.0"
            )
        if result.delay != scratch.delay:
            report.add(
                "F011",
                f"{tag} delay diverges: eco {result.delay!r} != "
                f"from-scratch {scratch.delay!r} "
                f"(reused {eco.nodes_reused}/{eco.nodes_reused + eco.nodes_remapped})",
                obj=net.name,
            )
        elif result.area != scratch.area:
            report.add(
                "F011",
                f"{tag} area diverges: eco {result.area!r} != "
                f"from-scratch {scratch.area!r}",
                obj=net.name,
            )
        elif dumps_mapped_blif(result.netlist) != dumps_mapped_blif(
            scratch.netlist
        ):
            report.add(
                "F011",
                f"{tag} cover diverges between incremental and "
                f"from-scratch mapping (same delay/area)",
                obj=net.name,
            )


def _check_certificate(
    report: CheckReport, result: MappingResult, tag: str
) -> None:
    """F004: the independent mapping certificate must accept the run."""
    try:
        cert = certify_mapping(result)
    except Exception as exc:
        report.add("F004", f"{tag} certificate crashed: {exc}")
        return
    errors = cert.errors()
    if errors:
        codes = sorted({d.code for d in errors})
        first = errors[0]
        report.add(
            "F004",
            f"{tag} certificate rejected ({', '.join(codes)}): "
            f"{first.code} {first.message}",
        )


def _check_recovery_contract(
    report: CheckReport,
    net: BooleanNetwork,
    result: MappingResult,
    patterns: PatternSet,
    kind: MatchKind,
) -> None:
    """F010 (recovery half): recover_area output honours its contract.

    The recovered cover must pass the target-aware mapping certificate,
    meet its delay budget, and never exceed the plain delay-optimal
    cover's area (the "never worse" guarantee).  Runs over the
    *labels*, so the result mutations of the injection modes cannot
    trip it.
    """
    from dataclasses import replace

    from repro.core.area_recovery import recover_area_result

    target = result.labels.max_arrival * 1.15
    try:
        recovery = recover_area_result(
            result.labels, patterns, kind=kind, target=target
        )
    except Exception as exc:
        report.add(
            "F010",
            f"area recovery raised {type(exc).__name__}: {exc}",
            obj=net.name,
        )
        return
    if recovery.delay > target + _EPS:
        report.add(
            "F010",
            f"recovered delay {recovery.delay:.4f} exceeds the target "
            f"{target:.4f}",
            obj=net.name,
        )
    if recovery.area > recovery.plain_area + _EPS:
        report.add(
            "F010",
            f"recovered area {recovery.area:.4f} exceeds the plain "
            f"cover's {recovery.plain_area:.4f} (never-worse violated)",
            obj=net.name,
        )
    recovered_result = replace(
        result,
        netlist=recovery.netlist,
        delay=recovery.delay,
        area=recovery.area,
        certificate=None,
    )
    try:
        cert = certify_mapping(
            recovered_result,
            selection=recovery.selection,
            target=recovery.target,
        )
    except Exception as exc:
        report.add(
            "F010", f"recovered-cover certificate crashed: {exc}",
            obj=net.name,
        )
        return
    errors = cert.errors()
    if errors:
        codes = sorted({d.code for d in errors})
        report.add(
            "F010",
            f"recovered-cover certificate rejected ({', '.join(codes)}): "
            f"{errors[0].code} {errors[0].message}",
            obj=net.name,
        )


def _check_multimap_contract(
    report: CheckReport,
    net: BooleanNetwork,
    patterns: PatternSet,
    kind: MatchKind,
) -> None:
    """F010 (multimap half): the stitched composite is sound and no
    slower than its best single decomposition style."""
    from repro.core.multimap import map_multi_decomposition

    try:
        multi = map_multi_decomposition(net, patterns, kind=kind)
    except Exception as exc:
        report.add(
            "F010", f"multimap raised {type(exc).__name__}: {exc}",
            obj=net.name,
        )
        return
    best_single = min(r.delay for r in multi.per_style.values())
    if multi.delay > best_single + _EPS:
        report.add(
            "F010",
            f"multimap composite delay {multi.delay:.4f} exceeds its "
            f"best single style's {best_single:.4f}",
            obj=net.name,
        )
    try:
        n_inputs = len(net.combinational_inputs())
        if n_inputs <= bitsim.EXHAUSTIVE_LIMIT:
            cex = exhaustive_equivalence(net, multi.netlist)
        else:
            cex = random_equivalence(net, multi.netlist)
    except Exception as exc:
        report.add(
            "F010",
            f"multimap equivalence check failed to run: {exc}",
            obj=net.name,
        )
        return
    if cex is not None:
        report.add(
            "F010",
            f"multimap composite differs from the source network: {cex}",
            obj=net.name,
        )


def _check_optimality(
    report: CheckReport,
    result: MappingResult,
    matcher: Matcher,
    trials: int,
    seed: int,
) -> None:
    """F005: no random cover may beat the labeling's optimal arrival."""
    labels = result.labels
    subject = labels.subject
    rng = random.Random(seed)
    optimal = labels.max_arrival
    for trial in range(trials):
        selection = {}
        try:
            for node in subject.topological():
                if node.is_pi:
                    continue
                matches = matcher.matches_at(node)
                if not matches:
                    return  # incomplete matcher state; F006/F004 covers it
                selection[node.uid] = rng.choice(matches)
            netlist = build_cover(labels, selection=selection)
            delay = analyze(netlist).delay
        except Exception as exc:
            report.add(
                "F005",
                f"random-cover probe {trial} failed to run: {exc}",
                obj=subject.name,
            )
            return
        if delay < optimal - _EPS:
            report.add(
                "F005",
                f"random cover reaches delay {delay:.4f} < claimed "
                f"optimum {optimal:.4f} (trial {trial})",
                obj=subject.name,
            )
            return


# ----------------------------------------------------------------------
# The battery
# ----------------------------------------------------------------------


def run_battery(
    net: BooleanNetwork,
    config: OracleConfig = OracleConfig(),
    patterns: Optional[PatternSet] = None,
) -> CheckReport:
    """Run every oracle over one network; findings never raise.

    Args:
        net: the (usually generated) source network to check.
        config: library/mapper configuration and probe budgets.
        patterns: pre-built pattern set matching ``config`` — pass one
            to amortise pattern generation across a fuzzing campaign.

    Returns:
        A :class:`CheckReport` whose diagnostics all carry ``F###``
        codes; ``report.meta`` records the circuit name, sizes, both
        mappers' delays and any injected mutation, so a failing report
        is self-describing.
    """
    report = CheckReport()
    report.meta["circuit"] = net.name
    report.meta["config"] = config.as_dict()
    inject = config.resolved_inject()

    # F007: the generated network itself must lint clean.
    lint = lint_network(net)
    if lint.has_errors:
        for diag in lint.errors():
            report.add(
                "F007", f"network lint: {diag.code} {diag.message}",
                obj=diag.obj,
            )
        return report

    if patterns is None:
        patterns = config.build_patterns()
    kind = MatchKind(config.kind)

    try:
        subject = decompose_network(net, style=config.decompose)
    except Exception as exc:
        report.add("F007", f"decomposition failed: {exc}", obj=net.name)
        return report
    sub_lint = lint_subject(subject)
    if sub_lint.has_errors:
        for diag in sub_lint.errors():
            report.add(
                "F007", f"subject lint: {diag.code} {diag.message}",
                obj=diag.obj,
            )
        return report
    report.meta["n_gates"] = subject.n_gates

    # Both mappers; a crash in either is itself a finding (F006).
    try:
        tree_result = map_tree(subject, patterns)
    except Exception as exc:
        report.add("F006", f"tree mapper raised {type(exc).__name__}: {exc}",
                   obj=net.name)
        tree_result = None
    try:
        dag_result = map_dag(subject, patterns, kind=kind)
    except Exception as exc:
        report.add("F006", f"DAG mapper raised {type(exc).__name__}: {exc}",
                   obj=net.name)
        dag_result = None
    if dag_result is None or tree_result is None:
        return report

    # F009 maps on its own, so the injection modes below cannot trip it
    # (and "engine" only it).
    if config.cross_engines:
        _check_filter_agreement(report, subject, patterns, kind, inject)

    # F011 also runs before mutation: eco reuses the unmutated dag_result
    # as its base mapping, and only the "eco" mode skews it (inside).
    if subject.n_gates <= config.contract_max_gates:
        _check_eco(
            report, net, subject, patterns, kind, config, dag_result, inject
        )

    _apply_injection(inject, dag_result, patterns, report)
    report.meta["dag_delay"] = dag_result.delay
    report.meta["tree_delay"] = tree_result.delay

    # F001: the paper's invariant — DAG covering never loses to trees.
    if dag_result.delay > tree_result.delay + _EPS:
        report.add(
            "F001",
            f"DAG delay {dag_result.delay:.4f} > tree delay "
            f"{tree_result.delay:.4f}",
            obj=net.name,
        )

    _check_equivalence(report, net, dag_result, "DAG")
    _check_equivalence(report, net, tree_result, "tree")
    _check_engines(report, net, dag_result, config.scalar_max_inputs)
    _check_certificate(report, dag_result, "DAG")
    _check_certificate(report, tree_result, "tree")

    if subject.n_gates <= config.contract_max_gates:
        _check_recovery_contract(report, net, dag_result, patterns, kind)
        _check_multimap_contract(report, net, patterns, kind)

    if subject.n_gates <= config.optimality_max_gates:
        matcher = Matcher(patterns, kind)
        matcher.attach(subject)
        _check_optimality(
            report,
            dag_result,
            matcher,
            trials=config.optimality_trials,
            seed=len(net.pis) * 10007 + subject.n_gates,
        )
    return report
