"""The campaign driver (repro.fuzz.run): seeds, budget, jobs, corpus.

Campaign results must be identical between serial and parallel
dispatch, the wall-clock budget must skip — never half-run — seeds, and
pool-level worker failures (via ``REPRO_FAULT_INJECT``) must surface as
infrastructure failures distinct from oracle findings.
"""

import os

import pytest

from repro.fuzz import (
    FuzzConfig,
    OracleConfig,
    load_corpus,
    parse_seed_spec,
    run_campaign,
)

_GEN = FuzzConfig(n_nodes=25)


class TestSeedSpec:
    def test_forms(self):
        assert parse_seed_spec("7") == [7]
        assert parse_seed_spec("0:4") == [0, 1, 2, 3]
        assert parse_seed_spec("0:10:3") == [0, 3, 6, 9]
        assert parse_seed_spec("1,4,9") == [1, 4, 9]
        assert parse_seed_spec("0:3,2,5") == [0, 1, 2, 5]

    @pytest.mark.parametrize("bad", ["", "a", "1:2:3:4", "1:b", "5:5"])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_seed_spec(bad)


class TestSerialCampaign:
    def test_clean_seeds(self):
        result = run_campaign(range(4), _GEN)
        assert result.ok
        assert result.clean == 4
        assert result.seeds_run == [0, 1, 2, 3]
        assert result.skipped == []

    def test_failures_reported_per_seed(self):
        result = run_campaign(
            [0, 1], _GEN, OracleConfig(inject="corrupt")
        )
        assert not result.ok
        assert len(result.failures) == 2
        assert result.failures[0].seed == 0
        assert result.failures[0].codes

    def test_zero_budget_skips_everything(self):
        result = run_campaign(range(10), _GEN, budget=0.0)
        assert result.seeds_run == []
        assert result.skipped == list(range(10))

    def test_progress_callback(self):
        lines = []
        result = run_campaign(
            [0], _GEN, OracleConfig(inject="delay"), progress=lines.append
        )
        assert not result.ok
        assert lines and "seed 0" in lines[0]


class TestParallelCampaign:
    def test_matches_serial(self):
        oracle = OracleConfig(inject="cover")
        serial = run_campaign(range(4), _GEN, oracle, minimize=True)
        parallel = run_campaign(range(4), _GEN, oracle, minimize=True,
                                jobs=2)
        assert len(parallel.failures) == len(serial.failures) == 4
        for a, b in zip(serial.failures, parallel.failures):
            assert a.seed == b.seed
            assert a.codes == b.codes
            assert a.minimized_blif == b.minimized_blif

    def test_worker_crash_is_isolated(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:seed1")
        monkeypatch.setenv("REPRO_CELL_RETRIES", "0")
        result = run_campaign(range(3), _GEN, jobs=2)
        assert len(result.worker_failures) == 1
        assert result.worker_failures[0].circuit == "seed1"
        assert sorted(result.seeds_run) == [0, 2]
        assert result.clean == 2
        assert not result.ok

    def test_pool_honours_the_retry_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:seed3")
        monkeypatch.setenv("REPRO_CELL_RETRIES", "0")
        result = run_campaign([2, 3, 4], _GEN, jobs=2)
        [failure] = result.worker_failures
        assert failure.circuit == "seed3"
        assert failure.kind == "crash"
        assert failure.attempts == 1


class TestCorpusIntegration:
    def test_failures_land_in_corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        result = run_campaign(
            [0, 1], _GEN, OracleConfig(inject="corrupt"), minimize=True,
            corpus_dir=str(corpus),
        )
        entries = load_corpus(corpus)
        assert len(entries) == 2
        stems = {entry.stem for entry in entries}
        assert {o.corpus_stem for o in result.failures} == stems
        for entry in entries:
            assert os.path.isfile(entry.blif_path)
            assert entry.meta["inject"] == "corrupt"
            assert entry.generator_config().seed in (0, 1)
