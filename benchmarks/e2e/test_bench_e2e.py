"""Smoke tests of the end-to-end benchmark at reduced sizes.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/e2e``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench

BENCHMARK_JSON = bench.ROOT / "BENCHMARK.json"

#: Workload overrides that keep each smoke run to a few seconds.
SMALL = {
    "table3_44-3": {"circuits": ("C2670s",)},
    "table2_44-1": {"circuits": ("C2670s", "C6288s")},
    "eco_44-3": {"circuits": ("C2670s",)},
    "campaign_mixed": {"libraries": ("lib2", "44-1")},
}
COUNT = {"table3_44-3": 1, "table2_44-1": 1, "eco_44-3": 2, "campaign_mixed": 9}


def small_run(name: str, seed: int = 0, trace: bool = False) -> bench.Run:
    return bench.run_workload(name, seed, trace=trace, count=COUNT[name], **SMALL[name])


@pytest.fixture(scope="module")
def spec():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_benchmark_json_names_what_the_harness_reports(spec):
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert _units(spec["end_to_end"]) == {k: u for k, (u, _) in bench.END_TO_END.items()}
    assert _units(spec["per_layer"]) == {k: u for k, (u, _) in bench.PER_LAYER.items()}
    better = {e["name"]: e["better"] for e in spec["end_to_end"] + spec["per_layer"]}
    for name, (_, direction) in {**bench.END_TO_END, **bench.PER_LAYER}.items():
        assert better[name] == direction, name


def test_run_length_is_a_fixed_round_count():
    assert [bench.rounds_for(name, 20) for name in bench.WORKLOADS] == [4, 20, 8, 600]
    assert all(bench.rounds_for(name, 0) == 1 for name in bench.WORKLOADS)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_metric_and_unit_is_reported(spec, name):
    run = small_run(name)
    line = bench.result_line(run)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: m["unit"] for k, m in line["metrics"].items()} == _units(spec["end_to_end"])
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("name", ["table2_44-1", "eco_44-3", "campaign_mixed"])
def test_traced_run_reports_every_layer_metric(spec, name, tmp_path):
    run = small_run(name, trace=True)
    line = bench.result_line(run)
    assert line["correct"], run.errors
    assert {k: m["unit"] for k, m in line["metrics"].items()} == _units(spec["per_layer"])
    assert line["metrics"]["match.calls"]["value"] > 0
    paths = bench.write_trace(run, str(tmp_path))
    with open(paths[0], encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_seed0_outputs_match_the_golden_file():
    run = bench.run_workload("table2_44-1", 0, count=1)
    assert run.failed == 0, run.errors
    golden = bench.load_expected()["table2_44-1"]
    assert run.outputs == {name: golden[name] for name in run.outputs}


def test_wrong_cover_is_a_failure_and_a_nonzero_exit(monkeypatch, capsys):
    import repro.core.dag_mapper as dag_mapper

    original = dag_mapper.build_cover
    gates = bench.resolve_library("44-1").gates

    def wrong_cover(labels, name):
        netlist = original(labels, name)
        first = netlist.gates[0]
        first.gate = next(
            g for g in gates
            if g.n_inputs == first.gate.n_inputs and g.name != first.gate.name
        )
        return netlist

    monkeypatch.setattr(dag_mapper, "build_cover", wrong_cover)
    code = bench.main(["--workload", "table2_44-1", "--seed", "1", "--seconds", "1"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0


@pytest.mark.parametrize("name", ["table2_44-1", "eco_44-3"])
def test_trace_children_never_exceed_their_parent(name):
    run = small_run(name, trace=True)
    tracer = run.tracer
    children = tracer.children_seconds()
    assert tracer.spans
    for span in tracer.spans:
        assert span.seconds >= 0
        assert tracer.self_seconds(span, children) >= -1e-9, span.name


def test_same_seed_repeats_counts_and_outputs():
    first, second = (small_run("table2_44-1", seed=3, trace=True) for _ in range(2))
    counts = [
        {k: v for k, v in bench.per_layer(run).items()
         if k.startswith("match.") and not k.endswith("_ms")}
        for run in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["match.calls"] > 0
    assert first.outputs == second.outputs
    eco = [small_run("eco_44-3", seed=3).outputs for _ in range(2)]
    assert eco[0] == eco[1] and len(eco[0]) == COUNT["eco_44-3"]


def test_fails_without_program_sources(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir(parents=True)
    for name in ("bench.py", "spans.py"):
        shutil.copy(Path(bench.__file__).with_name(name), copy / name)
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", "table2_44-1",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
