"""Command-line interface: ``repro-map`` (or ``python -m repro``).

Subcommands::

    map         map a BLIF file with the DAG or tree mapper
    eco         incrementally remap an edited BLIF against a base mapping
    flowmap     k-LUT FPGA mapping (FlowMap)
    table       regenerate one of the paper's Tables 1-3
    bench       list or emit the benchmark suite as BLIF
    libgen      emit a built-in library as genlib text
    experiments run the full experiment battery (tables + ablations)
    check       lint inputs and certify mapping runs (coded diagnostics)
    fuzz        differential fuzzing with minimization and a corpus
    campaign    stream a batch of mapping jobs over warm workers
    pareto      chart per-circuit delay/area Pareto fronts over library variants
    tune        hill-climb library variants on a delay/area objective
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.suite import ALL_CIRCUITS, SUITE, TABLE23_NAMES
from repro.core.dag_mapper import map_dag
from repro.errors import ReproError, RunnerConfigError
from repro.core.match import MatchKind
from repro.core.netlist import mapped_to_network
from repro.core.tree_mapper import map_tree
from repro.fpga.flowmap import flowmap
from repro.harness import experiment as exp
from repro.harness.tables import format_comparison_table, format_rows
from repro.library.builtin import BUILTIN_LIBRARIES
from repro.library.genlib import dumps_genlib
from repro.network.blif import read_blif, write_blif
from repro.network.decompose import decompose_network
from repro.network.simulate import check_equivalent
from repro.perf.parallel import resolve_library


def _parse_arrivals(spec: Optional[str]) -> Optional[dict]:
    """Parse ``--arrivals a=1.5,b=2`` into a dict."""
    if not spec:
        return None
    arrivals = {}
    for item in spec.split(","):
        if "=" not in item:
            raise SystemExit(f"bad --arrivals item {item!r}; use pin=time")
        name, value = item.split("=", 1)
        arrivals[name.strip()] = float(value)
    return arrivals


def _cmd_map(args: argparse.Namespace) -> int:
    net = read_blif(args.blif)
    library = resolve_library(args.library)
    subject = decompose_network(net, style=args.decompose)
    kind = MatchKind(args.match)
    arrivals = _parse_arrivals(args.arrivals)
    if args.mode == "dag":
        result = map_dag(subject, library, kind=kind,
                         max_variants=args.variants, arrival_times=arrivals)
    else:
        result = map_tree(subject, library, max_variants=args.variants,
                          arrival_times=arrivals)
    if args.verify:
        check_equivalent(net, result.netlist)
    print(f"circuit   : {net.name}")
    print(f"mode      : {result.mode} ({result.match_kind} matches)")
    print(f"library   : {result.library}")
    print(f"subject   : {subject.n_gates} NAND2/INV nodes")
    print(f"delay     : {result.delay:.3f}")
    print(f"area      : {result.area:.2f} ({result.netlist.gate_count()} gates)")
    print(f"cpu       : {result.cpu_seconds:.3f}s ({result.n_matches} matches)")
    counters = result.counters
    if counters:
        print(f"cache     : signature hit rate "
              f"{counters.get('signature_hit_rate', 0.0):.2f} "
              f"({int(counters['signature_hits'])} hits / "
              f"{int(counters['signature_misses'])} misses)")
        if counters["cut_filter_nodes"]:
            print(f"filter    : cut filter on at "
                  f"{int(counters['cut_filter_nodes'])} nodes "
                  f"({int(counters['cut_cone_hits'])} from the cone memo), "
                  f"{int(counters['cut_patterns_pruned'])} candidate "
                  f"patterns pruned")
        else:
            print("filter    : cut filter off")
    if args.verify:
        print("verified  : equivalent to the source network")
    if args.path:
        from repro.timing.sta import analyze

        report = analyze(result.netlist)
        print(f"critical path to {report.worst_po()!r}:")
        driver = {g.output: g for g in result.netlist.gates}
        for signal in report.critical_path:
            gate = driver.get(signal)
            what = f"{gate.gate.name}" if gate else "primary input"
            print(f"  {report.arrivals[signal]:8.3f}  {signal:12s} {what}")
    if args.dot:
        from repro.network.dot import netlist_to_dot
        from repro.timing.sta import analyze

        report = analyze(result.netlist)
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(
                netlist_to_dot(result.netlist,
                               critical_path=report.critical_path)
            )
        print(f"dot       : {args.dot}")
    if args.output:
        from repro.network.mapped_io import write_mapped_blif, write_verilog

        if args.format == "gate":
            write_mapped_blif(result.netlist, args.output)
        elif args.format == "verilog":
            write_verilog(result.netlist, args.output)
        else:
            write_blif(mapped_to_network(result.netlist), args.output)
        print(f"written   : {args.output} ({args.format})")
    return 0


def _cmd_eco(args: argparse.Namespace) -> int:
    from repro.eco import eco_remap
    from repro.library.patterns import PatternSet

    base_net = read_blif(args.base)
    edited_net = read_blif(args.edited)
    patterns = PatternSet(resolve_library(args.library), args.variants)
    kind = MatchKind(args.match)
    arrivals = _parse_arrivals(args.arrivals)
    base = map_dag(decompose_network(base_net, style=args.decompose),
                   patterns, kind=kind, arrival_times=arrivals)
    eco = eco_remap(base, edited_net, patterns, arrival_times=arrivals,
                    decompose=args.decompose)
    result = eco.result
    print(f"base      : {base_net.name} "
          f"(delay {base.delay:.3f}, area {base.area:.2f})")
    print(f"edited    : {edited_net.name}")
    print(f"mode      : {result.mode} ({result.match_kind} matches)")
    print(f"library   : {result.library}")
    print(f"reused    : {eco.nodes_reused} nodes "
          f"({100.0 * eco.reuse_fraction:.1f}% clean)")
    print(f"remapped  : {eco.nodes_remapped} nodes")
    print(f"delay     : {result.delay:.3f}")
    print(f"area      : {result.area:.2f} ({result.netlist.gate_count()} gates)")
    print(f"cpu       : {eco.cpu_seconds:.3f}s ({result.n_matches} matches)")
    if args.verify:
        from repro.network.mapped_io import dumps_mapped_blif

        scratch = map_dag(decompose_network(edited_net, style=args.decompose),
                          patterns, kind=kind, arrival_times=arrivals)
        identical = (result.delay == scratch.delay
                     and result.area == scratch.area
                     and dumps_mapped_blif(result.netlist)
                     == dumps_mapped_blif(scratch.netlist))
        if not identical:
            print("verify    : MISMATCH against the from-scratch mapping")
            return 1
        print(f"verify    : byte-identical to the from-scratch mapping "
              f"(scratch cpu {scratch.cpu_seconds:.3f}s)")
    if args.output:
        from repro.network.mapped_io import write_mapped_blif

        write_mapped_blif(result.netlist, args.output)
        print(f"written   : {args.output}")
    return 0


def _cmd_flowmap(args: argparse.Namespace) -> int:
    net = read_blif(args.blif)
    if args.area:
        from repro.fpga.depth_area import flowmap_area

        result = flowmap_area(net, k=args.k, depth_slack=args.slack)
    else:
        result = flowmap(net, k=args.k)
    if args.verify:
        check_equivalent(net, result.network)
    print(f"circuit : {net.name}")
    print(f"k       : {result.k}")
    print(f"engine  : {result.engine}")
    print(f"depth   : {result.depth}")
    print(f"luts    : {result.lut_count()}")
    print(f"cpu     : {result.cpu_seconds:.3f}s")
    if args.verify:
        print("verified: equivalent to the source network")
    if args.output:
        from repro.fpga.lutnet import lutnet_to_network

        write_blif(lutnet_to_network(result.network), args.output)
        print(f"written : {args.output}")
    return 0


#: Paper table -> (experiment, library, max_variants, title).
_TABLES: Dict[int, Tuple[Callable[..., List[exp.ComparisonRow]], str, int, str]] = {
    1: (exp.table1, "lib2", 8,
        "Table 1: tree vs DAG mapping, lib2-like library"),
    2: (exp.table2, "44-1", 8,
        "Table 2: tree vs DAG mapping, 44-1 library (7 gates)"),
    3: (exp.table3, "44-3", 4,
        "Table 3: tree vs DAG mapping, 44-3 library (rich)"),
}


def _cmd_table(args: argparse.Namespace) -> int:
    import time

    from repro.perf.counters import RunStats

    experiment, library, max_variants, title = _TABLES[args.number]
    stats = RunStats()
    common = dict(verify=not args.no_verify, jobs=args.jobs,
                  cell_timeout=args.cell_timeout, retries=args.retries,
                  journal=args.journal, resume=args.resume, stats=stats,
                  max_variants=max_variants)
    if args.fast and args.number == 1:
        common["names"] = TABLE23_NAMES
    started = time.perf_counter()
    rows = experiment(**common)
    total = time.perf_counter() - started
    print(format_comparison_table(rows, title))
    failed = [row for row in rows if getattr(row, "failed", False)]
    if args.bench_json:
        from repro.perf.benchjson import rows_to_records, write_bench_json

        extra: Dict[str, object] = {"table": args.number}
        if failed or args.journal or args.resume or args.cell_timeout:
            extra["run_stats"] = stats.as_dict()
        write_bench_json(
            args.bench_json,
            library=library,
            circuits=rows_to_records(rows),
            jobs=args.jobs,
            max_variants=max_variants,
            total_wall_s=total,
            extra=extra,
        )
        print(f"written {args.bench_json}")
    return 1 if failed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.name is None:
        for entry in ALL_CIRCUITS.values():
            print(f"{entry.name:9s} (≈{entry.iscas}) {entry.description}")
        return 0
    entry = ALL_CIRCUITS[args.name]
    net = entry.build()
    if args.output:
        write_blif(net, args.output)
        print(f"written {args.output}: {net.stats()}")
    else:
        print(net.stats())
    return 0


def _cmd_libgen(args: argparse.Namespace) -> int:
    library = BUILTIN_LIBRARIES[args.name]()
    text = dumps_genlib(library)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"written {args.output}: {len(library)} gates")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Combinational equivalence check between two BLIF files."""
    from repro.network.simulate import exhaustive_equivalence, random_equivalence
    from repro.network.simulate import input_names

    net_a = read_blif(args.blif_a)
    net_b = read_blif(args.blif_b)
    if len(input_names(net_a)) <= 16:
        cex = exhaustive_equivalence(net_a, net_b)
        method = "exhaustive"
    else:
        cex = random_equivalence(net_a, net_b, vectors=args.vectors)
        method = f"random ({args.vectors} vectors)"
    if cex is None:
        print(f"EQUIVALENT ({method})")
        return 0
    print(f"NOT EQUIVALENT: {cex}")
    return 1


def _cmd_seqmap(args: argparse.Namespace) -> int:
    from repro.sequential.panliu import min_sequential_period
    from repro.sequential.seqmap import map_sequential

    net = read_blif(args.blif)
    if net.is_combinational():
        print("note: the circuit has no latches; periods equal the "
              "combinational delay")
    library = resolve_library(args.library)
    result = map_sequential(net, library, mode=args.mode,
                            max_variants=args.variants)
    print(f"circuit        : {net.name} ({len(net.latches)} latches)")
    print(f"mode           : {args.mode}")
    print(f"comb. delay    : {result.comb.delay:.3f}")
    print(f"mapped period  : {result.mapped_period:.3f}")
    print(f"retimed period : {result.retimed_period:.3f} "
          f"({100 * result.improvement:.1f}% gain)")
    print(f"registers      : {result.registers_before} -> "
          f"{result.registers_after}")
    if args.coupled:
        phi, _ = min_sequential_period(net, library,
                                       max_variants=args.variants)
        print(f"coupled period : {phi:.3f} (Pan-Liu decision procedure)")
    return 0


def _cmd_libstats(args: argparse.Namespace) -> int:
    from repro.library.patterns import PatternSet
    from repro.network.npn import npn_classes

    library = resolve_library(args.library)
    patterns = PatternSet(library, max_variants=args.variants)
    print(f"library     : {library.name}")
    print(f"gates       : {len(library)} (max {library.max_inputs()} inputs)")
    areas = library.total_area_range()
    print(f"area range  : {areas[0]:g} .. {areas[1]:g}")
    small = [g.tt for g in library if g.n_inputs <= 4]
    if small:
        classes = npn_classes(small)
        print(f"NPN classes : {len(classes)} among the {len(small)} gates "
              f"with <= 4 inputs")
    print(f"patterns    : {len(patterns)} "
          f"({patterns.total_nodes} nodes, max depth {patterns.max_depth})")
    if patterns.skipped:
        print(f"skipped     : {', '.join(patterns.skipped)} "
              f"(constants/buffers have no pattern)")
    by_inputs: dict = {}
    for gate in library:
        by_inputs[gate.n_inputs] = by_inputs.get(gate.n_inputs, 0) + 1
    dist = ", ".join(f"{n}-input: {c}" for n, c in sorted(by_inputs.items()))
    print(f"input dist  : {dist}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    sections: List[str] = []
    names = TABLE23_NAMES if args.fast else None
    # One journal serves all three tables: cell records are keyed by
    # (spec, kind, circuit, ...), so a resumed battery skips every
    # finished cell of every table.
    runner = dict(jobs=args.jobs, cell_timeout=args.cell_timeout,
                  retries=args.retries, journal=args.journal,
                  resume=args.resume)
    sections.append(
        format_comparison_table(
            exp.table1(names=names, **runner), "Table 1: lib2-like library"
        )
    )
    sections.append(
        format_comparison_table(exp.table2(**runner), "Table 2: 44-1 library")
    )
    sections.append(
        format_comparison_table(exp.table3(**runner), "Table 3: 44-3 library")
    )
    sections.append(
        format_rows(exp.match_class_ablation(), "E9: standard vs extended matches")
    )
    sections.append(format_rows(exp.scaling_experiment(), "E10: runtime scaling"))
    sections.append(format_rows(exp.flowmap_experiment(), "E6: FlowMap"))
    sections.append(format_rows(exp.sequential_experiment(), "E7: sequential"))
    sections.append(
        format_rows(exp.area_recovery_experiment(), "E8: area recovery")
    )
    sections.append(
        format_rows(exp.load_model_experiment(), "E11: load-model gap")
    )
    sections.append(
        format_rows(exp.buffering_experiment(), "E12: fanout buffering")
    )
    sections.append(
        format_rows(
            exp.decomposition_sensitivity_experiment(),
            "E13: decomposition sensitivity",
        )
    )
    sections.append(
        format_rows(exp.area_delay_curve(), "E14: area-delay trade-off curve")
    )
    sections.append(
        format_rows(exp.panliu_experiment(), "E16: Pan-Liu coupled period")
    )
    sections.append(
        format_rows(exp.multimap_experiment(), "E17: multiple decompositions")
    )
    sections.append(
        format_rows(exp.sized_library_experiment(), "E18: discrete sizing cost")
    )
    sections.append(
        format_rows(exp.library_scaling_experiment(), "E19: library-size scaling")
    )
    text = "\n\n".join(sections)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"written {args.output}")
    else:
        print(text)
    return 0


def _cmd_check_source(args: argparse.Namespace) -> int:
    """``repro-map check --source``: the S### source linter.

    With no positional inputs the installed :mod:`repro` package is
    analyzed (the self-application CI runs); otherwise the given files
    and directories are.  Every finding gates (warnings only with
    ``--strict``); intentional ones carry an inline ``# repro:
    allow[S###]``.
    """
    from repro.check.source import analyze_package, analyze_paths

    if args.inputs:
        report = analyze_paths(args.inputs)
        label = ", ".join(args.inputs)
    else:
        report = analyze_package()
        label = "package repro"

    print(f"== source analysis: {label} ==")
    text = report.format()
    if text:
        print(text)
    suppressed = report.meta.get("suppressed", 0)
    print(
        f"summary: {report.summary()} over {report.meta.get('files', 0)} "
        f"file(s), {suppressed} suppressed inline; "
        f"gating on {len(report)} finding(s)"
    )
    return report.exit_code(strict=args.strict)


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import CODES, certify_mapping
    from repro.check.library_lint import lint_genlib_file
    from repro.check.netlist_lint import lint_blif_file, lint_subject
    from repro.library.patterns import PatternSet

    if args.list_codes:
        for code in sorted(CODES):
            info = CODES[code]
            print(f"{code}  {info.severity.label():7s} {info.title}")
        return 0
    if args.source:
        return _cmd_check_source(args)
    if not args.inputs:
        raise SystemExit(
            "repro check: give at least one .blif/.genlib input "
            "(or --list-codes / --source)"
        )

    exit_code = 0
    for path in args.inputs:
        is_lib = path.endswith((".genlib", ".lib"))
        if is_lib:
            report, _ = lint_genlib_file(path, max_variants=args.variants)
        else:
            report, net = lint_blif_file(path)
            if net is not None and not report.has_errors:
                subject = decompose_network(net, style=args.decompose)
                report.extend(lint_subject(subject))
                if args.certify:
                    library = resolve_library(args.library)
                    patterns = PatternSet(library, max_variants=args.variants)
                    kind = MatchKind(args.match)
                    if args.mode == "dag":
                        result = map_dag(subject, patterns, kind=kind)
                    else:
                        result = map_tree(subject, patterns)
                    report.extend(certify_mapping(result, patterns=patterns))
        print(f"== {path} ==")
        text = report.format()
        if text:
            print(text)
        print(f"summary: {report.summary()}")
        exit_code = max(exit_code, report.exit_code(strict=args.strict))
    return exit_code


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import (
        FuzzConfig,
        OracleConfig,
        parse_seed_spec,
        run_campaign,
    )

    try:
        seeds = parse_seed_spec(args.seeds)
        generator = FuzzConfig(
            n_inputs=args.inputs,
            n_nodes=args.nodes,
            n_outputs=args.outputs,
            reconvergence=args.reconvergence,
            fanout_skew=args.fanout_skew,
            depth_bias=args.depth_bias,
        )
        oracle = OracleConfig(
            library=args.library,
            kind=args.match,
            max_variants=args.variants,
            decompose=args.decompose,
            inject=args.inject,
        )
    except ValueError as exc:
        raise SystemExit(f"repro-map fuzz: {exc}") from None
    progress = None if args.quiet else (lambda line: print(f"  {line}"))
    result = run_campaign(
        seeds,
        generator,
        oracle,
        minimize=args.minimize,
        corpus_dir=args.corpus,
        budget=args.budget,
        jobs=args.jobs,
        shrink_evals=args.shrink_evals,
        task_timeout=args.cell_timeout,
        progress=progress,
    )
    for outcome in result.failures:
        print(f"FAIL seed {outcome.seed} {outcome.name}: "
              f"{', '.join(outcome.codes)}")
        for message in outcome.messages:
            print(f"  {message}")
        if outcome.shrink_stats is not None:
            orig = outcome.shrink_stats["original_size"]
            final = outcome.shrink_stats["final_size"]
            print(f"  minimized {orig[0]} -> {final[0]} nodes in "
                  f"{outcome.shrink_stats['evaluations']} evaluations")
        if outcome.shrink_error is not None:
            print(f"  F008 shrinker could not preserve the failure: "
                  f"{outcome.shrink_error}")
        if outcome.corpus_stem is not None:
            print(f"  reproducer: {args.corpus}/{outcome.corpus_stem}"
                  ".blif (+ .json)")
    for failure in result.worker_failures:
        print(f"WORKER {failure.circuit}: {failure.kind} "
              f"({failure.error_type}) {failure.error}")
    skipped = f", {len(result.skipped)} skipped (budget)" if result.skipped \
        else ""
    print(f"fuzz: {len(result.seeds_run)} seeds, {result.clean} clean, "
          f"{len(result.failures)} failing, "
          f"{len(result.worker_failures)} worker failures{skipped} "
          f"in {result.wall_s:.2f}s")
    return 0 if result.ok else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    import json

    from repro.fuzz import parse_seed_spec
    from repro.perf.campaign import (
        load_manifest,
        seed_ensemble,
        stream_campaign,
    )
    from repro.perf.counters import RunStats

    if args.manifest is None and args.seeds is None:
        raise SystemExit(
            "repro-map campaign: give a JSONL manifest or --seeds"
        )
    if args.manifest is not None and args.seeds is not None:
        raise SystemExit(
            "repro-map campaign: manifest and --seeds are exclusive"
        )
    if args.manifest is not None:
        jobs = load_manifest(
            args.manifest,
            library=args.library,
            mode=args.mode,
            kind=args.match,
            max_variants=args.variants,
            verify=args.verify,
            check=args.check,
        )
    else:
        try:
            seeds = parse_seed_spec(args.seeds)
        except ValueError as exc:
            raise SystemExit(f"repro-map campaign: {exc}") from None
        libraries = [s.strip() for s in args.libraries.split(",") if s.strip()]
        jobs = seed_ensemble(
            seeds,
            libraries or [args.library],
            nodes=args.nodes,
            inputs=args.inputs,
            mode=args.mode,
            kind=args.match,
            max_variants=args.variants,
            verify=args.verify,
            check=args.check,
            large_every=args.large_every,
        )

    stats = RunStats()
    failed = 0
    for result in stream_campaign(
        jobs,
        workers=args.jobs,
        warm=not args.cold,
        journal_path=args.journal,
        resume_path=args.resume,
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        large_weight=args.large_weight,
        stats=stats,
    ):
        row = result.row
        if result.failed:
            failed += 1
            if not args.quiet:
                print(f"FAILED {result.label}: {row.kind} "
                      f"({row.error_type}) {row.error}")
            continue
        if not args.quiet:
            origin = "resumed" if result.worker_id < 0 else (
                "warm" if result.warm else "cold"
            )
            print(f"{result.label}: delay={row.delay:g} area={row.area:g} "
                  f"gates={row.gates} cover={row.cover} "
                  f"[{origin}] {result.wall_s:.3f}s")
    hit_total = stats.warm_hits + stats.warm_misses
    hit_rate = stats.warm_hits / hit_total if hit_total else 0.0
    print(f"campaign: {stats.cells_ok} ok, {stats.cells_failed} failed, "
          f"{stats.cells_resumed} resumed in {stats.wall_s:.2f}s "
          f"({stats.jobs_per_s:.1f} jobs/s, p50 {stats.p50_s * 1e3:.1f}ms, "
          f"p99 {stats.p99_s * 1e3:.1f}ms, "
          f"warm-cache {hit_rate:.0%} of {hit_total})")
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(stats.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if failed else 0


def _tune_sources(args: argparse.Namespace, prog: str) -> list:
    """Build the circuit ensemble shared by ``pareto`` and ``tune``."""
    from repro.fuzz import parse_seed_spec
    from repro.tune import seed_sources, suite_sources

    names = [c.strip() for c in (args.circuits or "").split(",") if c.strip()]
    if bool(names) == bool(args.seeds):
        raise SystemExit(
            f"{prog}: give exactly one of --circuits or --seeds"
        )
    if names:
        return suite_sources(names)
    try:
        seeds = parse_seed_spec(args.seeds)
    except ValueError as exc:
        raise SystemExit(f"{prog}: {exc}") from None
    return seed_sources(seeds, nodes=args.nodes, inputs=args.inputs)


def _lattice_config(args: argparse.Namespace) -> "object":
    from repro.tune import LatticeConfig

    targets = tuple(
        float(t) for t in args.targets.split(",") if t.strip()
    )
    max_variants = tuple(
        int(v) for v in str(args.variants).split(",") if v.strip()
    )
    return LatticeConfig(
        variants=args.lib_variants,
        drop=args.drop,
        delay_jitter=args.delay_jitter,
        area_jitter=args.area_jitter,
        targets=targets,
        max_variants=max_variants,
        kind=args.match,
        check=not args.no_check,
        verify=args.verify,
        seed=args.seed,
    )


def _cmd_pareto(args: argparse.Namespace) -> int:
    from repro.tune import front_csv, front_json, run_pareto

    sources = _tune_sources(args, "repro-map pareto")
    outcome = run_pareto(
        sources,
        library=args.library,
        config=_lattice_config(args),
        workers=args.jobs,
        warm=not args.cold,
        refine_budget=args.refine,
        journal_path=args.journal,
        resume_path=args.resume,
    )
    csv_text = front_csv(outcome.fronts)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
        print(f"written {args.csv}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(front_json(outcome.fronts))
        print(f"written {args.json}")
    if not args.quiet:
        sys.stdout.write(csv_text)
    points = sum(len(front) for front in outcome.fronts.values())
    wall = sum(s.wall_s for s in outcome.stats)
    print(f"pareto: {len(outcome.fronts)} circuit(s), {points} front "
          f"point(s) from {outcome.jobs_run} job(s) "
          f"({outcome.refine_jobs} refinement) in {wall:.2f}s")
    for failure in outcome.failures:
        print(f"FAILED {getattr(failure, 'circuit', '?')}: "
              f"{getattr(failure, 'error', failure)}")
    return 0 if outcome.ok else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.tune import tune_search

    sources = _tune_sources(args, "repro-map tune")
    outcome = tune_search(
        sources,
        library=args.library,
        alpha=args.alpha,
        rounds=args.rounds,
        config=_lattice_config(args),
        workers=args.jobs,
        warm=not args.cold,
        budget=args.budget,
    )
    if not args.quiet:
        for spec, score in outcome.history:
            marker = " <- best" if spec == outcome.best else ""
            print(f"  {score:10.4f}  {spec}{marker}")
    print(f"tune: best {outcome.best!r} "
          f"(score {outcome.best_score:.4f}, baseline {1 + args.alpha:.4f}) "
          f"after {outcome.jobs_run} job(s), "
          f"{len(outcome.history)} candidate(s)")
    for failure in outcome.failures:
        print(f"FAILED {getattr(failure, 'circuit', '?')}: "
              f"{getattr(failure, 'error', failure)}")
    return 0 if not outcome.failures else 1


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance knobs of the worker pool (``table``, ``experiments``
    and ``campaign``)."""
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill and replace a worker whose cell exceeds "
                             "this wall-clock budget; the cell becomes a "
                             "structured failure row (default: "
                             "REPRO_CELL_TIMEOUT or no timeout)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="bounded retries for transient cell failures "
                             "(default: REPRO_CELL_RETRIES or 2)")
    parser.add_argument("--journal", metavar="FILE",
                        help="append one JSONL record per finished cell; a "
                             "killed run loses at most the cells in flight")
    parser.add_argument("--resume", metavar="FILE",
                        help="replay a run journal: finished cells are "
                             "reused, failed/missing cells re-run; new "
                             "records append to the same file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-map",
        description="Delay-optimal technology mapping by DAG covering (DAC'98 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="map a BLIF netlist to a gate library")
    p_map.add_argument("blif")
    p_map.add_argument("--library", "-l", default="lib2",
                       help="builtin name (lib2, 44-1, 44-3, mini) or genlib path")
    p_map.add_argument("--mode", choices=("dag", "tree"), default="dag")
    p_map.add_argument("--match", choices=("standard", "exact", "extended"),
                       default="standard")
    p_map.add_argument("--variants", type=int, default=8,
                       help="pattern decomposition variants per gate")
    p_map.add_argument("--decompose", choices=("balanced", "linear"),
                       default="balanced",
                       help="subject-graph decomposition style")
    p_map.add_argument("--arrivals",
                       help="PI arrival times, e.g. 'a=1.5,b=2' "
                            "(unlisted inputs arrive at 0)")
    p_map.add_argument("--output", "-o", help="write the mapped netlist")
    p_map.add_argument("--format", choices=("logic", "gate", "verilog"),
                       default="logic",
                       help="output format: logic BLIF (.names), mapped "
                            "BLIF (.gate) or structural Verilog")
    p_map.add_argument("--verify", action="store_true",
                       help="simulate mapped vs source network")
    p_map.add_argument("--path", action="store_true",
                       help="print the critical path with arrival times")
    p_map.add_argument("--dot", metavar="FILE",
                       help="write a Graphviz view with the critical path "
                            "highlighted")
    p_map.set_defaults(func=_cmd_map)

    p_eco = sub.add_parser(
        "eco",
        help="incrementally remap an edited BLIF against a base mapping",
        description="Map the base BLIF from scratch, then remap the "
                    "edited BLIF incrementally: labels of subject nodes "
                    "whose fanin cone (and leaf arrivals) are unchanged "
                    "are spliced from the base run and only the dirty "
                    "region is re-matched.  The result is byte-identical "
                    "to a from-scratch mapping of the edited netlist "
                    "(--verify asserts this).",
    )
    p_eco.add_argument("base", help="base BLIF netlist")
    p_eco.add_argument("edited", help="edited BLIF netlist")
    p_eco.add_argument("--library", "-l", default="lib2",
                       help="builtin name (lib2, 44-1, 44-3, mini) or "
                            "genlib path")
    p_eco.add_argument("--match", choices=("standard", "exact", "extended"),
                       default="standard")
    p_eco.add_argument("--variants", type=int, default=8,
                       help="pattern decomposition variants per gate")
    p_eco.add_argument("--decompose", choices=("balanced", "linear"),
                       default="balanced")
    p_eco.add_argument("--arrivals",
                       help="PI arrival times, e.g. 'a=1.5,b=2'")
    p_eco.add_argument("--verify", action="store_true",
                       help="also map the edited netlist from scratch and "
                            "fail unless delay, area and cover are "
                            "byte-identical")
    p_eco.add_argument("--output", "-o",
                       help="write the patched mapped netlist (.gate BLIF)")
    p_eco.set_defaults(func=_cmd_eco)

    p_fm = sub.add_parser("flowmap", help="k-LUT FPGA mapping (FlowMap)")
    p_fm.add_argument("blif")
    p_fm.add_argument("-k", type=int, default=4)
    p_fm.add_argument("--area", action="store_true",
                      help="run the depth-bounded area-recovery engine")
    p_fm.add_argument("--slack", type=int, default=0,
                      help="extra LUT levels allowed with --area")
    p_fm.add_argument("--output", "-o", help="write the LUT netlist as BLIF")
    p_fm.add_argument("--verify", action="store_true")
    p_fm.set_defaults(func=_cmd_flowmap)

    p_tab = sub.add_parser("table", help="regenerate a paper table")
    p_tab.add_argument("number", type=int, choices=(1, 2, 3))
    p_tab.add_argument("--fast", action="store_true",
                       help="table 1 only: use the 5-circuit subset")
    p_tab.add_argument("--no-verify", action="store_true")
    p_tab.add_argument("--jobs", "-j", type=int, default=1,
                       help="worker processes for the suite cells "
                            "(parallel rows are identical to serial)")
    p_tab.add_argument("--bench-json", metavar="FILE",
                       help="also write wall times and cache counters "
                            "as JSON (repro-bench-mapper/1 schema)")
    _add_runner_arguments(p_tab)
    p_tab.set_defaults(func=_cmd_table)

    p_bench = sub.add_parser("bench", help="list or emit benchmark circuits")
    p_bench.add_argument("name", nargs="?", choices=list(ALL_CIRCUITS))
    p_bench.add_argument("--output", "-o")
    p_bench.set_defaults(func=_cmd_bench)

    p_lib = sub.add_parser("libgen", help="emit a builtin library as genlib")
    p_lib.add_argument("name", choices=list(BUILTIN_LIBRARIES))
    p_lib.add_argument("--output", "-o")
    p_lib.set_defaults(func=_cmd_libgen)

    p_ver = sub.add_parser("verify",
                           help="equivalence-check two BLIF files")
    p_ver.add_argument("blif_a")
    p_ver.add_argument("blif_b")
    p_ver.add_argument("--vectors", type=int, default=4096)
    p_ver.set_defaults(func=_cmd_verify)

    p_seq = sub.add_parser("seqmap",
                           help="sequential mapping + retiming (Section 4)")
    p_seq.add_argument("blif", help="BLIF file with .latch statements")
    p_seq.add_argument("--library", "-l", default="lib2")
    p_seq.add_argument("--mode", choices=("dag", "tree"), default="dag")
    p_seq.add_argument("--variants", type=int, default=8)
    p_seq.add_argument("--coupled", action="store_true",
                       help="also run the Pan-Liu coupled binary search")
    p_seq.set_defaults(func=_cmd_seqmap)

    p_stats = sub.add_parser("libstats", help="summarise a gate library")
    p_stats.add_argument("--library", "-l", default="lib2",
                         help="builtin name or genlib path")
    p_stats.add_argument("--variants", type=int, default=8)
    p_stats.set_defaults(func=_cmd_libstats)

    p_exp = sub.add_parser("experiments", help="run the full experiment battery")
    p_exp.add_argument("--output", "-o")
    p_exp.add_argument("--fast", action="store_true")
    p_exp.add_argument("--jobs", "-j", type=int, default=1,
                       help="worker processes for the table experiments")
    _add_runner_arguments(p_exp)
    p_exp.set_defaults(func=_cmd_experiments)

    p_chk = sub.add_parser(
        "check",
        help="lint BLIF/genlib inputs and certify mapping runs",
        description="Static verification: netlist lints (N###) for .blif "
                    "inputs, library lints (L###) for .genlib inputs, and "
                    "— with --certify — an independent mapping certificate "
                    "(C###) for each BLIF circuit.",
    )
    p_chk.add_argument("inputs", nargs="*",
                       help=".blif or .genlib/.lib files")
    p_chk.add_argument("--strict", action="store_true",
                       help="exit non-zero on warnings too")
    p_chk.add_argument("--certify", action="store_true",
                       help="map each BLIF input and certify the result")
    p_chk.add_argument("--list-codes", action="store_true",
                       help="print the diagnostic code catalog and exit")
    p_chk.add_argument("--source", action="store_true",
                       help="run the S### source linter over the repro "
                            "package (or the given files/directories)")
    p_chk.add_argument("--library", "-l", default="lib2",
                       help="library for --certify (builtin name or genlib)")
    p_chk.add_argument("--mode", choices=("dag", "tree"), default="dag")
    p_chk.add_argument("--match", choices=("standard", "exact", "extended"),
                       default="standard")
    p_chk.add_argument("--variants", type=int, default=8)
    p_chk.add_argument("--decompose", choices=("balanced", "linear"),
                       default="balanced")
    p_chk.set_defaults(func=_cmd_check)

    p_fz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generate, cross-check, minimize",
        description="Run the differential oracle battery over seeded "
                    "random networks: DAG-vs-tree delay (F001), mapped "
                    "equivalence (F002), packed-vs-scalar engines (F003), "
                    "mapping certificates (F004), optimality probes "
                    "(F005).  Failures can be delta-debugged to minimal "
                    "reproducers and persisted into a replayable corpus.",
    )
    p_fz.add_argument("--seeds", default="0:50", metavar="SPEC",
                      help="seed spec: N, A:B (half-open), A:B:STEP, or a "
                           "comma-separated mix (default 0:50)")
    p_fz.add_argument("--budget", type=float, default=None, metavar="SECONDS",
                      help="campaign wall-clock budget; seeds not started "
                           "in time are reported as skipped")
    p_fz.add_argument("--minimize", action="store_true",
                      help="delta-debug each failing network to a minimal "
                           "reproducer")
    p_fz.add_argument("--corpus", metavar="DIR",
                      help="persist every failure (minimized when "
                           "available) as a replayable corpus entry")
    p_fz.add_argument("--jobs", "-j", type=int, default=1,
                      help="fan seeds out over the fault-tolerant worker "
                           "pool (crashed/hung seeds cost one task)")
    p_fz.add_argument("--cell-timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="per-seed wall-clock limit when --jobs > 1")
    p_fz.add_argument("--library", "-l", default="mini",
                      help="builtin name or genlib path (default mini)")
    p_fz.add_argument("--match", choices=("standard", "exact", "extended"),
                      default="standard")
    p_fz.add_argument("--variants", type=int, default=8)
    p_fz.add_argument("--decompose", choices=("balanced", "linear"),
                      default="balanced")
    p_fz.add_argument("--inputs", type=int, default=8,
                      help="primary inputs per generated network")
    p_fz.add_argument("--nodes", type=int, default=40,
                      help="internal nodes per generated network")
    p_fz.add_argument("--outputs", type=int, default=None,
                      help="primary outputs (default: nodes // 10)")
    p_fz.add_argument("--reconvergence", type=float, default=0.3,
                      help="reconvergent-path density knob in [0, 1]")
    p_fz.add_argument("--fanout-skew", type=float, default=0.0,
                      help="rich-get-richer fanout bias in [0, 1)")
    p_fz.add_argument("--depth-bias", type=float, default=0.5,
                      help="deep-chain growth bias in [0, 1]")
    p_fz.add_argument("--shrink-evals", type=int, default=400,
                      help="oracle evaluations budgeted per minimization")
    p_fz.add_argument("--inject",
                      choices=("delay", "cover", "corrupt", "engine", "eco"),
                      default=None,
                      help="deterministic fault injection (self-test; "
                           "REPRO_FUZZ_INJECT is the env equivalent)")
    p_fz.add_argument("--quiet", "-q", action="store_true",
                      help="suppress per-seed progress lines")
    p_fz.set_defaults(func=_cmd_fuzz)

    p_cg = sub.add_parser(
        "campaign",
        help="stream a batch of mapping jobs over warm workers",
        description="Run many mapping jobs through the streaming "
                    "campaign engine: a long-lived worker pool that "
                    "builds each (library, variants, kind) "
                    "cache bundle once per worker and reuses it across "
                    "jobs, with size sharding, backpressure and "
                    "journal-based resume.  Jobs come from a JSONL "
                    "manifest (one {\"circuit\"|\"blif\"|\"seed\": ...} "
                    "object per line) or a --seeds fuzz ensemble.",
    )
    p_cg.add_argument("manifest", nargs="?", default=None,
                      help="JSONL job manifest (omit when using --seeds)")
    p_cg.add_argument("--seeds", default=None, metavar="SPEC",
                      help="generate a seeded ensemble instead of reading "
                           "a manifest: N, A:B (half-open), A:B:STEP, or "
                           "a comma-separated mix")
    p_cg.add_argument("--libraries", default="lib2", metavar="SPECS",
                      help="comma-separated library rotation for --seeds "
                           "ensembles (default lib2)")
    p_cg.add_argument("--library", "-l", default="lib2",
                      help="default library for manifest entries that "
                           "name none (default lib2)")
    p_cg.add_argument("--mode", choices=("dag", "tree", "eco"), default="dag")
    p_cg.add_argument("--match", choices=("standard", "exact", "extended"),
                      default="standard")
    p_cg.add_argument("--variants", type=int, default=8)
    p_cg.add_argument("--verify", action="store_true",
                      help="simulation-check every mapped netlist against "
                           "its source")
    p_cg.add_argument("--check", action="store_true",
                      help="run the mapping certificate in the worker")
    p_cg.add_argument("--inputs", type=int, default=6,
                      help="primary inputs per --seeds circuit")
    p_cg.add_argument("--nodes", type=int, default=16,
                      help="internal nodes per --seeds circuit")
    p_cg.add_argument("--large-every", type=int, default=0, metavar="N",
                      help="make every Nth --seeds circuit 8x larger "
                           "(exercises size sharding; default off)")
    p_cg.add_argument("--jobs", "-j", type=int, default=None,
                      help="worker processes (default: CPU affinity)")
    p_cg.add_argument("--cold", action="store_true",
                      help="per-job process dispatch (fresh worker and "
                           "cache build per job; the A/B baseline)")
    p_cg.add_argument("--large-weight", type=int, default=None, metavar="W",
                      help="jobs with weight >= W route to the dedicated "
                           "large-job shard")
    p_cg.add_argument("--stats-json", metavar="FILE",
                      help="write the run's throughput counters as JSON")
    p_cg.add_argument("--quiet", "-q", action="store_true",
                      help="suppress per-job result lines")
    _add_runner_arguments(p_cg)
    p_cg.set_defaults(func=_cmd_campaign)

    def add_ensemble_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--circuits", metavar="NAMES",
                       help="comma-separated benchmark-suite circuits "
                            "(e.g. C432s,C499s)")
        p.add_argument("--seeds", default=None, metavar="SPEC",
                       help="fuzz-seed ensemble instead of suite circuits: "
                            "N, A:B (half-open), A:B:STEP, or a mix")
        p.add_argument("--inputs", type=int, default=6,
                       help="primary inputs per --seeds circuit")
        p.add_argument("--nodes", type=int, default=16,
                       help="internal nodes per --seeds circuit")
        p.add_argument("--library", "-l", default="lib2",
                       help="base library: builtin name, genlib path or "
                            "variant spec (base@drop=..+seed=..)")
        p.add_argument("--lib-variants", type=int, default=4, metavar="N",
                       help="library variants generated from the base "
                            "(the first is always the unperturbed base)")
        p.add_argument("--drop", type=float, default=0.15,
                       help="per-cell removal probability of a variant")
        p.add_argument("--delay-jitter", type=float, default=0.05,
                       help="relative pin block-delay jitter amplitude")
        p.add_argument("--area-jitter", type=float, default=0.05,
                       help="relative cell-area jitter amplitude")
        p.add_argument("--targets", default="1,1.1,1.25", metavar="SLACKS",
                       help="comma-separated delay budgets as slack "
                            "multipliers on the optimal delay")
        p.add_argument("--variants", default="8", metavar="NS",
                       help="pattern variants per gate; a comma list "
                            "sweeps several values")
        p.add_argument("--match", choices=("standard", "exact", "extended"),
                       default="standard")
        p.add_argument("--seed", type=int, default=None,
                       help="variant-generation seed (default 2024)")
        p.add_argument("--no-check", action="store_true",
                       help="skip the in-worker mapping certificate "
                            "(on by default: every front point is "
                            "certificate-backed)")
        p.add_argument("--verify", action="store_true",
                       help="also simulate every cover against its source")
        p.add_argument("--jobs", "-j", type=int, default=None,
                       help="worker processes (default: CPU affinity)")
        p.add_argument("--cold", action="store_true",
                       help="per-job process dispatch (A/B baseline)")
        p.add_argument("--quiet", "-q", action="store_true")

    p_pa = sub.add_parser(
        "pareto",
        help="chart per-circuit delay/area Pareto fronts over library "
             "variants",
        description="Expand a (circuit, library-variant, delay-target) "
                    "job lattice, stream it through the warm-worker "
                    "campaign engine in area-recovery mode, and reduce "
                    "the rows into per-circuit non-dominated delay/area "
                    "fronts.  Output is byte-identical across reruns and "
                    "worker counts; every front point is backed by a "
                    "certificate-checked mapping unless --no-check.",
    )
    add_ensemble_arguments(p_pa)
    p_pa.add_argument("--refine", type=int, default=0, metavar="N",
                      help="hill-climbing refinement budget: up to N "
                           "extra jobs proposed around front points")
    p_pa.add_argument("--csv", metavar="FILE",
                      help="write the fronts as CSV")
    p_pa.add_argument("--json", metavar="FILE",
                      help="write the fronts as a JSON document")
    p_pa.add_argument("--journal", metavar="FILE",
                      help="append one JSONL record per finished job")
    p_pa.add_argument("--resume", metavar="FILE",
                      help="replay a run journal for the lattice jobs")
    p_pa.set_defaults(func=_cmd_pareto)

    p_tu = sub.add_parser(
        "tune",
        help="hill-climb library variants on a delay/area objective",
        description="Greedy library tuning: evaluate neighbour variants "
                    "of the incumbent over the whole ensemble (area "
                    "recovery at zero delay cost) and keep the best "
                    "normalised delay + alpha * area scorer, under a "
                    "total job budget.",
    )
    add_ensemble_arguments(p_tu)
    p_tu.add_argument("--alpha", type=float, default=0.5,
                      help="area weight of the scalar objective")
    p_tu.add_argument("--rounds", type=int, default=3,
                      help="hill-climbing rounds")
    p_tu.add_argument("--budget", type=int, default=64,
                      help="total evaluation budget in jobs")
    p_tu.set_defaults(func=_cmd_tune)

    return parser


#: Destinations of every option naming a file a command writes.
_OUTPUT_DESTS = ("output", "bench_json", "stats_json", "journal", "csv",
                 "json", "dot")


def _check_output_dirs(args: argparse.Namespace) -> None:
    """Fail with ``[R002]`` before any work when an output file's
    directory does not exist, instead of a traceback after the run."""
    for dest in _OUTPUT_DESTS:
        path = getattr(args, dest, None)
        directory = os.path.dirname(path) if path else ""
        if directory and not os.path.isdir(directory):
            flag = "--" + dest.replace("_", "-")
            raise RunnerConfigError(
                f"[R002] {flag} {path!r}: directory {directory!r} does "
                f"not exist"
            )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_output_dirs(args)
        return args.func(args)
    except ReproError as exc:
        # Coded, self-describing errors (e.g. [R001] unknown library
        # spec) are user errors, not crashes: no traceback.
        print(f"repro-map: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
