"""The ``repro-map fuzz`` subcommand: exit codes, output, corpus files.

The CLI is the CI entry point: a clean campaign must exit 0; any single
injected mutation must exit 1, print a coded ``F###`` line, and write a
minimized reproducer that replays deterministically from its recorded
seed.
"""

import pytest

from repro.cli import main
from repro.fuzz import load_corpus, random_dag, replay
from repro.network.blif import dumps_blif


def test_clean_run_exits_zero(capsys):
    assert main(["fuzz", "--seeds", "0:3", "--nodes", "20", "-q"]) == 0
    out = capsys.readouterr().out
    assert "3 seeds, 3 clean, 0 failing" in out


@pytest.mark.parametrize("mode", ["delay", "cover", "corrupt", "engine"])
def test_injected_mutation_exits_one_with_code(mode, capsys, tmp_path):
    corpus = tmp_path / "corpus"
    status = main([
        "fuzz", "--seeds", "0:2", "--nodes", "25", "--inject", mode,
        "--minimize", "--corpus", str(corpus), "-q",
    ])
    assert status == 1
    out = capsys.readouterr().out
    assert "FAIL seed 0" in out
    assert " F0" in out  # a coded F### diagnostic is printed
    assert "minimized" in out
    entries = load_corpus(corpus)
    assert len(entries) == 2
    # The reproducer replays deterministically: from the stored BLIF...
    report = replay(entries[0])
    codes = {diag.code for diag in report.errors()}
    assert codes & set(entries[0].expect)
    # ...and the original regenerates bit-identically from its seed.
    config = entries[0].generator_config()
    assert dumps_blif(random_dag(config)) == dumps_blif(random_dag(config))


def test_env_injection_reaches_cli(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FUZZ_INJECT", "corrupt")
    assert main(["fuzz", "--seeds", "0:1", "--nodes", "20", "-q"]) == 1
    assert "F002" in capsys.readouterr().out


def test_budget_reports_skipped(capsys):
    assert main(["fuzz", "--seeds", "0:50", "--budget", "0", "-q"]) == 0
    assert "50 skipped (budget)" in capsys.readouterr().out


def test_bad_seed_spec_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["fuzz", "--seeds", "nope"])


def test_bad_knob_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["fuzz", "--seeds", "0:1", "--reconvergence", "2.0"])


def test_unknown_library_is_coded_error(capsys):
    assert main(["fuzz", "--seeds", "0:1", "-l", "nope"]) == 2
    assert "[R001]" in capsys.readouterr().err


def test_non_positive_cell_timeout_is_coded_error(capsys):
    status = main([
        "fuzz", "--seeds", "0:4", "--jobs", "2", "--cell-timeout", "0", "-q",
    ])
    assert status == 2
    assert "[R002]" in capsys.readouterr().err


def test_parallel_cli_run(capsys):
    status = main([
        "fuzz", "--seeds", "0:4", "--nodes", "20", "--jobs", "2", "-q",
    ])
    assert status == 0
    assert "4 seeds, 4 clean" in capsys.readouterr().out
