"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import main
from repro.library.genlib import read_genlib
from repro.network.blif import read_blif


class TestBenchAndLibgen:
    def test_bench_list(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "C6288s" in out

    def test_bench_emit(self, tmp_path, capsys):
        path = tmp_path / "c.blif"
        assert main(["bench", "C1908s", "-o", str(path)]) == 0
        net = read_blif(path)
        assert net.n_nodes > 0

    def test_bench_stats_only(self, capsys):
        assert main(["bench", "C1908s"]) == 0
        assert "nodes" in capsys.readouterr().out

    def test_libgen_stdout(self, capsys):
        assert main(["libgen", "mini"]) == 0
        assert "GATE" in capsys.readouterr().out

    def test_libgen_file(self, tmp_path, capsys):
        path = tmp_path / "l.genlib"
        assert main(["libgen", "44-1", "-o", str(path)]) == 0
        lib = read_genlib(path)
        assert len(lib) == 7

    def test_verify_equivalent(self, tmp_path, capsys):
        from repro.bench import circuits
        from repro.network.blif import write_blif

        a = tmp_path / "a.blif"
        b = tmp_path / "b.blif"
        write_blif(circuits.ripple_adder(4), a)
        write_blif(circuits.carry_lookahead_adder(4), b)
        assert main(["verify", str(a), str(b)]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_verify_different(self, tmp_path, capsys):
        from repro.network.bnet import BooleanNetwork
        from repro.network.blif import write_blif

        def two_input(expr):
            net = BooleanNetwork("t")
            net.add_pi("a")
            net.add_pi("b")
            net.add_node("f", expr)
            net.add_po("f")
            return net

        a = tmp_path / "a.blif"
        b = tmp_path / "b.blif"
        write_blif(two_input("a*b"), a)
        write_blif(two_input("a+b"), b)
        assert main(["verify", str(a), str(b)]) == 1
        assert "NOT EQUIVALENT" in capsys.readouterr().out

    def test_seqmap(self, tmp_path, capsys):
        from repro.bench import circuits
        from repro.network.blif import write_blif

        path = tmp_path / "seq.blif"
        write_blif(circuits.accumulator(4), path)
        assert main(["seqmap", str(path), "-l", "mini", "--coupled"]) == 0
        out = capsys.readouterr().out
        assert "retimed period" in out
        assert "coupled period" in out

    def test_seqmap_combinational_note(self, tmp_path, capsys):
        from repro.bench import circuits
        from repro.network.blif import write_blif

        path = tmp_path / "comb.blif"
        write_blif(circuits.c17(), path)
        assert main(["seqmap", str(path), "-l", "mini"]) == 0
        assert "no latches" in capsys.readouterr().out

    def test_libstats(self, capsys):
        assert main(["libstats", "-l", "44-1"]) == 0
        out = capsys.readouterr().out
        assert "NPN classes" in out
        assert "patterns" in out


class TestMapping:
    @pytest.fixture()
    def blif_path(self, tmp_path):
        path = tmp_path / "c.blif"
        main(["bench", "C1908s", "-o", str(path)])
        return str(path)

    def test_map_dag(self, blif_path, capsys, tmp_path):
        out = tmp_path / "mapped.blif"
        code = main([
            "map", blif_path, "--library", "mini", "--verify",
            "-o", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "delay" in text and "verified" in text
        assert "filter    : cut filter off" in text  # mini: too few groups
        mapped = read_blif(out)
        assert mapped.n_nodes > 0

    def test_map_reports_cut_filter(self, blif_path, capsys):
        assert main(["map", blif_path, "--library", "44-3",
                     "--variants", "4"]) == 0
        text = capsys.readouterr().out
        assert "filter    : cut filter on at " in text
        assert "from the cone memo), " in text
        assert "candidate patterns pruned" in text

    @pytest.mark.parametrize(
        "command", ["map", "eco", "table", "campaign", "pareto", "tune"]
    )
    def test_matcher_knobs_are_gone(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        assert "--engine" not in text and "--no-cache" not in text

    def test_map_gate_format(self, blif_path, capsys, tmp_path):
        out = tmp_path / "mapped_gate.blif"
        assert main(["map", blif_path, "--library", "mini",
                     "--format", "gate", "-o", str(out)]) == 0
        text = out.read_text()
        assert ".gate" in text

    def test_map_verilog_format(self, blif_path, capsys, tmp_path):
        out = tmp_path / "mapped.v"
        assert main(["map", blif_path, "--library", "mini",
                     "--format", "verilog", "-o", str(out)]) == 0
        assert "endmodule" in out.read_text()

    def test_map_tree_mode(self, blif_path, capsys):
        assert main(["map", blif_path, "--library", "mini",
                     "--mode", "tree"]) == 0
        assert "tree" in capsys.readouterr().out

    def test_map_arrivals_and_style(self, blif_path, capsys):
        assert main(["map", blif_path, "--library", "mini",
                     "--decompose", "linear", "--arrivals", "d0=5"]) == 0
        out = capsys.readouterr().out
        assert "delay" in out

    def test_map_bad_arrivals(self, blif_path):
        with pytest.raises(SystemExit):
            main(["map", blif_path, "--library", "mini",
                  "--arrivals", "nonsense"])

    def test_map_custom_genlib(self, blif_path, tmp_path, capsys):
        lib_path = tmp_path / "l.genlib"
        main(["libgen", "mini", "-o", str(lib_path)])
        capsys.readouterr()
        assert main(["map", blif_path, "--library", str(lib_path)]) == 0

    def test_flowmap(self, blif_path, capsys):
        assert main(["flowmap", blif_path, "-k", "5", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "depth" in out and "verified" in out

    def test_flowmap_area_with_output(self, blif_path, capsys, tmp_path):
        out = tmp_path / "luts.blif"
        assert main(["flowmap", blif_path, "-k", "4", "--area",
                     "--slack", "1", "-o", str(out)]) == 0
        assert ".names" in out.read_text()
        assert "area" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_bench(self):
        with pytest.raises(SystemExit):
            main(["bench", "nope"])


class TestReports:
    @pytest.mark.parametrize("number,variants", [(1, 8), (2, 8), (3, 4)])
    def test_table_bench_json_records_max_variants(
        self, number, variants, tmp_path, monkeypatch, capsys
    ):
        from repro.harness import experiment

        seen = []

        def run_tree_vs_dag(library, names=None, max_variants=8, **kwargs):
            seen.append(max_variants)
            return []

        monkeypatch.setattr(experiment, "run_tree_vs_dag", run_tree_vs_dag)
        report = tmp_path / "bench.json"
        assert main(["table", str(number), "--bench-json", str(report)]) == 0
        assert seen == [variants]
        assert json.loads(report.read_text())["max_variants"] == variants

    @pytest.mark.parametrize("argv,flag", [
        (["table", "1", "--fast", "--bench-json", "{out}"], "--bench-json"),
        (["table", "1", "--fast", "--journal", "{out}"], "--journal"),
        (["campaign", "--seeds", "0:1", "--stats-json", "{out}"],
         "--stats-json"),
        (["campaign", "--seeds", "0:1", "--journal", "{out}"], "--journal"),
        (["pareto", "--seeds", "0:1", "--csv", "{out}"], "--csv"),
        (["pareto", "--seeds", "0:1", "--json", "{out}"], "--json"),
        (["map", "{blif}", "-o", "{out}"], "--output"),
    ], ids=["table-bench-json", "table-journal", "campaign-stats-json",
            "campaign-journal", "pareto-csv", "pareto-json", "map-output"])
    def test_output_into_missing_directory_fails_first(
        self, argv, flag, tmp_path, capsys
    ):
        blif = tmp_path / "and2.blif"
        blif.write_text(".model and2\n.inputs a b\n.outputs y\n"
                        ".names a b y\n11 1\n.end\n")
        out = tmp_path / "missing" / "report"
        argv = [arg.format(out=out, blif=blif) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        assert "[R002]" in captured.err and flag in captured.err
        assert str(tmp_path / "missing") in captured.err


class TestEco:
    @pytest.fixture(scope="class")
    def pair_files(self, tmp_path_factory):
        from repro.fuzz.generator import FuzzConfig, random_edit_pair
        from repro.network.blif import write_blif

        tmp = tmp_path_factory.mktemp("eco")
        base, edited, _ = random_edit_pair(
            FuzzConfig(n_inputs=6, n_nodes=24, seed=7)
        )
        base_path = tmp / "base.blif"
        edited_path = tmp / "edited.blif"
        write_blif(base, base_path)
        write_blif(edited, edited_path)
        return str(base_path), str(edited_path)

    def test_eco_remap_verified(self, pair_files, capsys):
        base, edited = pair_files
        assert main(["eco", base, edited, "-l", "mini", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "reused" in out and "remapped" in out
        assert "byte-identical to the from-scratch mapping" in out

    def test_eco_writes_mapped_blif(self, pair_files, tmp_path, capsys):
        from repro.library.builtin import mini_library
        from repro.network.mapped_io import read_mapped_blif

        base, edited = pair_files
        out_path = tmp_path / "patched.blif"
        assert main(["eco", base, edited, "-l", "mini",
                     "-o", str(out_path)]) == 0
        netlist = read_mapped_blif(out_path, mini_library())
        assert netlist.gate_count() > 0

    def test_eco_cuts_engine_and_match_kinds(self, pair_files, capsys):
        # 44-3 at 4 variants and 67+ subject gates: the matcher's rule
        # turns the cut filter on for both the base and the edited map.
        base, edited = pair_files
        assert main(["eco", base, edited, "-l", "44-3", "--variants", "4",
                     "--match", "exact", "--verify"]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_campaign_eco_mode(self, capsys):
        assert main(["campaign", "--seeds", "0:4", "--mode", "eco",
                     "--libraries", "mini", "--nodes", "12", "--inputs",
                     "5", "-q"]) == 0
        assert "4 ok, 0 failed" in capsys.readouterr().out
