"""Mapping campaigns over the streaming engine (repro.perf.campaign).

The load-bearing guarantee: a campaign's stable rows (everything but
worker-side timing) are byte-identical however the jobs are scheduled —
warm pool, cold per-job dispatch, replacement workers after an injected
crash, or journal resume — and the JSONL manifest / seed-ensemble /
CLI front ends all agree on what a job means.
"""

import json

import pytest

from repro.errors import RunnerConfigError, UnknownLibrarySpecError
from repro.perf.campaign import (
    CampaignJob,
    CampaignRow,
    load_manifest,
    run_mapping_campaign,
    seed_ensemble,
)

#: A small mixed ensemble: two libraries, both mapper modes, two match
#: kinds — three distinct cache bundles the pool must juggle.
def _mixed_jobs():
    jobs = seed_ensemble(range(4), ["mini", "lib2"], nodes=10, inputs=4,
                         verify=True)
    jobs.append(CampaignJob(
        label="exact-job", source=jobs[0].source, library="mini",
        kind="exact", verify=True,
    ))
    jobs.append(CampaignJob(
        label="tree-job", source=jobs[1].source, library="mini",
        mode="tree", verify=True,
    ))
    return jobs


class TestJobConstruction:
    def test_seed_ensemble_rotates_libraries(self):
        jobs = seed_ensemble(range(4), ["mini", "lib2"], nodes=8, inputs=4)
        assert [j.library for j in jobs] == ["mini", "lib2", "mini", "lib2"]
        assert [j.label for j in jobs] == [
            "s0-mini", "s1-lib2", "s2-mini", "s3-lib2",
        ]
        assert all(j.weight == 8 for j in jobs)

    def test_seed_ensemble_large_every(self):
        jobs = seed_ensemble(range(6), ["mini"], nodes=8, inputs=4,
                             large_every=3, large_nodes=40)
        assert [j.weight for j in jobs] == [8, 8, 40, 8, 8, 40]

    def test_seed_ensemble_empty_rejected(self):
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            seed_ensemble([], ["mini"])

    def test_row_stable_view_drops_timing(self):
        names = {f for f in CampaignRow.__dataclass_fields__}
        row = CampaignRow(**{
            name: 0 for name in names
        })
        stable = row.stable()
        assert "cpu_s" not in stable
        assert set(stable) == names - {"cpu_s"}

    def test_manifest_roundtrip(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text(
            '{"circuit": "C432s", "library": "mini", "weight": 200}\n'
            "# a comment line\n"
            "\n"
            '{"seed": 7, "nodes": 9, "inputs": 4, "label": "tiny",'
            ' "kind": "exact"}\n'
        )
        jobs = load_manifest(str(path), library="lib2")
        assert len(jobs) == 2
        assert jobs[0].source == ("suite", "C432s")
        assert jobs[0].library == "mini"
        assert jobs[0].weight == 200
        assert jobs[1].label == "tiny"
        assert jobs[1].kind == "exact"
        assert jobs[1].library == "lib2"
        assert jobs[1].source[0] == "seed"
        assert jobs[1].weight == 9

    def test_mixed_jobs_span_several_bundles(self):
        assert len({job.bundle() for job in _mixed_jobs()}) == 3

    def test_manifest_unknown_key_is_coded(self, tmp_path):
        path = tmp_path / "typo.jsonl"
        path.write_text('{"seed": 1, "max_variant": 2, "libary": "44-3"}\n')
        with pytest.raises(RunnerConfigError,
                           match=r"\[R002\].*:1: unknown key 'libary'; "
                                 r"accepted keys: .*max_variants"):
            load_manifest(str(path))

    def test_manifest_engine_key_points_at_the_matcher(self, tmp_path):
        path = tmp_path / "engine.jsonl"
        path.write_text('{"circuit": "C432s", "engine": "cuts"}\n')
        with pytest.raises(RunnerConfigError,
                           match=r"unknown key 'engine'.*chooses its own"):
            load_manifest(str(path))

    def test_manifest_malformed_json_is_coded(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"circuit": "C432s"\n')
        with pytest.raises(RunnerConfigError, match=r"\[R002\].*:1"):
            load_manifest(str(path))

    def test_manifest_needs_exactly_one_source(self, tmp_path):
        path = tmp_path / "two.jsonl"
        path.write_text('{"circuit": "C432s", "seed": 3}\n')
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            load_manifest(str(path))

    def test_manifest_missing_file_is_coded(self, tmp_path):
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            load_manifest(str(tmp_path / "absent.jsonl"))

    def test_manifest_empty_is_coded(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("# only comments\n")
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            load_manifest(str(path))


class TestCampaignModes:
    """The recover and multi campaign modes added for library tuning."""

    def _mode_jobs(self):
        base = seed_ensemble(range(2), ["mini"], nodes=10, inputs=4)
        jobs = []
        for job in base:
            jobs.append(CampaignJob(
                label=job.label + "-rec", source=job.source, library="mini",
                mode="recover", target=1.2, check=True, verify=True,
            ))
            jobs.append(CampaignJob(
                label=job.label + "-multi", source=job.source,
                library="mini", mode="multi", check=True, verify=True,
            ))
        return jobs

    def test_recover_rows_meet_their_budget(self):
        out = run_mapping_campaign(self._mode_jobs(), workers=1)
        assert out.ok
        recs = [r for r in out.rows if r.label.endswith("-rec")]
        assert recs
        for row in recs:
            assert row.target > 0.0
            assert row.delay <= row.target + 1e-9
            assert row.verified

    def test_multi_rows_have_zero_target(self):
        out = run_mapping_campaign(self._mode_jobs(), workers=1)
        multis = [r for r in out.rows if r.label.endswith("-multi")]
        assert multis
        for row in multis:
            assert row.target == 0.0
            assert row.verified

    def test_modes_warm_cold_byte_identical(self):
        jobs = self._mode_jobs()
        warm = run_mapping_campaign(jobs, workers=2, warm=True)
        cold = run_mapping_campaign(jobs, workers=2, warm=False)
        assert warm.ok and cold.ok
        for a, b in zip(warm.rows, cold.rows):
            assert a.stable() == b.stable()

    def test_manifest_target_and_mode_weight(self, tmp_path):
        from repro.perf.campaign import MODE_WEIGHT

        path = tmp_path / "jobs.jsonl"
        path.write_text(
            '{"seed": 1, "nodes": 8, "inputs": 4, "mode": "recover",'
            ' "target": 1.3}\n'
            '{"seed": 2, "nodes": 8, "inputs": 4, "mode": "multi"}\n'
        )
        jobs = load_manifest(str(path), library="mini")
        assert jobs[0].mode == "recover"
        assert jobs[0].target == 1.3
        assert jobs[0].weight == 8 * MODE_WEIGHT["recover"]
        assert jobs[1].weight == 8 * MODE_WEIGHT["multi"]


class TestValidation:
    def test_bad_library_fails_before_spawning(self):
        jobs = [CampaignJob(label="x", source=("suite", "C432s"),
                            library="no-such-lib")]
        with pytest.raises(UnknownLibrarySpecError, match=r"\[R001\]"):
            run_mapping_campaign(jobs, workers=1)

    def test_bad_mode_is_coded(self):
        jobs = [CampaignJob(label="x", source=("suite", "C432s"),
                            library="mini", mode="sideways")]
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            run_mapping_campaign(jobs, workers=1)


class TestEquivalence:
    def test_warm_and_cold_rows_byte_identical(self):
        jobs = _mixed_jobs()
        warm = run_mapping_campaign(jobs, workers=2, warm=True)
        cold = run_mapping_campaign(jobs, workers=2, warm=False)
        assert warm.ok and cold.ok
        assert warm.stats.warm_hits > 0
        assert cold.stats.warm_hits == 0
        assert cold.stats.workers_recycled == len(jobs)
        for a, b in zip(warm.rows, cold.rows):
            assert a.stable() == b.stable()
        assert all(r.verified for r in warm.rows)

    def test_crash_mid_stream_isolated_and_survivors_identical(
        self, monkeypatch
    ):
        jobs = _mixed_jobs()
        clean = run_mapping_campaign(jobs, workers=2)
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:s2-mini")
        hurt = run_mapping_campaign(jobs, workers=2, retries=1, backoff=0.0)
        assert len(hurt.rows) == len(jobs)
        failed = [r for r in hurt.rows if getattr(r, "failed", False)]
        assert [f.circuit for f in failed] == ["s2-mini"]
        assert failed[0].kind == "crash"
        assert hurt.stats.crashes >= 1
        assert hurt.stats.workers_replaced >= 1
        for a, b in zip(clean.rows, hurt.rows):
            if getattr(b, "failed", False):
                continue
            assert a.stable() == b.stable()

    def test_flaky_job_recovers_with_identical_row(self, monkeypatch):
        jobs = _mixed_jobs()
        clean = run_mapping_campaign(jobs, workers=2)
        monkeypatch.setenv("REPRO_FAULT_INJECT", "flaky:s1-lib2")
        retried = run_mapping_campaign(jobs, workers=2, retries=2,
                                       backoff=0.0)
        assert retried.ok
        assert retried.stats.retries >= 1
        for a, b in zip(clean.rows, retried.rows):
            assert a.stable() == b.stable()


class TestJournalResume:
    def test_partial_journal_replays_byte_identical(self, tmp_path):
        jobs = _mixed_jobs()
        journal = tmp_path / "campaign.jsonl"
        first = run_mapping_campaign(jobs[:3], workers=2,
                                     journal_path=str(journal))
        assert first.ok
        # Drop the end record: the run died mid-campaign.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n")
        resumed = run_mapping_campaign(jobs, workers=2,
                                       resume_path=str(journal))
        assert resumed.ok
        assert resumed.stats.cells_resumed == 3
        fresh = run_mapping_campaign(jobs, workers=2)
        for a, b in zip(resumed.rows, fresh.rows):
            assert a.stable() == b.stable()

    def test_journal_records_failures_and_completes(
        self, tmp_path, monkeypatch
    ):
        jobs = _mixed_jobs()
        journal = tmp_path / "crash.jsonl"
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:s0-mini")
        out = run_mapping_campaign(jobs, workers=2, retries=1, backoff=0.0,
                                   journal_path=str(journal))
        assert not out.ok
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        assert records[0]["event"] == "start"
        assert records[-1]["event"] == "end"
        cells = [r for r in records if r["event"] == "cell"]
        assert len(cells) == len(jobs)
        by_name = {r["name"]: r["status"] for r in cells}
        assert by_name.pop("s0-mini") == "failed"
        assert set(by_name.values()) == {"ok"}

    def test_resume_reruns_journalled_failures(self, tmp_path, monkeypatch):
        jobs = _mixed_jobs()
        journal = tmp_path / "retry.jsonl"
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:s0-mini")
        run_mapping_campaign(jobs, workers=2, retries=0, backoff=0.0,
                             journal_path=str(journal))
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        resumed = run_mapping_campaign(jobs, workers=2,
                                       resume_path=str(journal))
        assert resumed.ok
        assert resumed.stats.cells_resumed == len(jobs) - 1
        fresh = run_mapping_campaign(jobs, workers=2)
        for a, b in zip(resumed.rows, fresh.rows):
            assert a.stable() == b.stable()


    def test_resume_ignores_rows_of_another_mode(self, tmp_path):
        dag_jobs = seed_ensemble(range(3), ["mini"], nodes=12, inputs=5)
        tree_jobs = seed_ensemble(range(3), ["mini"], nodes=12, inputs=5,
                                  mode="tree")
        journal = tmp_path / "modes.jsonl"
        run_mapping_campaign(dag_jobs, workers=2, journal_path=str(journal))
        resumed = run_mapping_campaign(tree_jobs, workers=2,
                                       resume_path=str(journal))
        assert resumed.ok
        assert resumed.stats.cells_resumed == 0
        fresh = run_mapping_campaign(tree_jobs, workers=2)
        for a, b in zip(resumed.rows, fresh.rows):
            assert a.stable() == b.stable()
            assert a.mode == "tree"

    def test_resume_ignores_rows_of_another_circuit_source(self, tmp_path):
        small = seed_ensemble(range(3), ["mini"], nodes=12, inputs=5)
        large = seed_ensemble(range(3), ["mini"], nodes=20, inputs=5)
        assert [j.label for j in small] == [j.label for j in large]
        journal = tmp_path / "nodes.jsonl"
        run_mapping_campaign(small, workers=2, journal_path=str(journal))
        resumed = run_mapping_campaign(large, workers=2,
                                       resume_path=str(journal))
        assert resumed.stats.cells_resumed == 0
        fresh = run_mapping_campaign(large, workers=2)
        for a, b in zip(resumed.rows, fresh.rows):
            assert a.stable() == b.stable()

    def test_record_without_the_new_key_fields_never_matches(self, tmp_path):
        jobs = seed_ensemble(range(2), ["mini"], nodes=10, inputs=4)
        journal = tmp_path / "old.jsonl"
        run_mapping_campaign(jobs, workers=1, journal_path=str(journal))
        # Strip the campaign key fields, as an older writer recorded them.
        records = []
        for line in journal.read_text().splitlines():
            record = json.loads(line)
            for name in ("source", "mode", "decompose", "target"):
                record.pop(name, None)
            records.append(json.dumps(record))
        journal.write_text("\n".join(records) + "\n")
        resumed = run_mapping_campaign(jobs, workers=1,
                                       resume_path=str(journal))
        assert resumed.ok
        assert resumed.stats.cells_resumed == 0


class TestCli:
    def test_seeds_mode_streams_and_summarises(self, capsys):
        from repro.cli import main

        code = main([
            "campaign", "--seeds", "0:4", "--libraries", "mini",
            "--nodes", "8", "--inputs", "4", "-j", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "s0-mini: delay=" in out
        assert "campaign: 4 ok, 0 failed" in out

    def test_manifest_mode_with_stats_json(self, tmp_path, capsys):
        from repro.cli import main

        manifest = tmp_path / "jobs.jsonl"
        manifest.write_text(
            '{"seed": 1, "nodes": 8, "inputs": 4, "library": "mini"}\n'
        )
        stats_path = tmp_path / "stats.json"
        code = main([
            "campaign", str(manifest), "-j", "1",
            "--stats-json", str(stats_path),
        ])
        assert code == 0
        stats = json.loads(stats_path.read_text())
        assert stats["cells_ok"] == 1
        assert "jobs_per_s" in stats and "p99_s" in stats

    def test_failures_exit_nonzero(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:s0-mini")
        code = main([
            "campaign", "--seeds", "0:2", "--libraries", "mini",
            "--nodes", "8", "--inputs", "4", "-j", "1",
            "--retries", "0",
        ])
        assert code == 1
        assert "FAILED s0-mini" in capsys.readouterr().out

    def test_seeds_and_manifest_are_exclusive(self, tmp_path):
        from repro.cli import main

        manifest = tmp_path / "jobs.jsonl"
        manifest.write_text('{"seed": 1}\n')
        with pytest.raises(SystemExit):
            main(["campaign", str(manifest), "--seeds", "0:2"])

    def test_neither_source_is_an_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["campaign"])


class TestEcoMode:
    """The eco campaign mode: incremental remap, byte-checked in-worker."""

    #: Parametrization label -> (library, variants, nodes): mini's few
    #: trie groups keep the matcher's cut filter off; 44-3 turns it on.
    SIDES = {"structural": ("mini", 8, 14), "cuts": ("44-3", 4, 30)}

    def _eco_jobs(self, engine="structural"):
        library, variants, nodes = self.SIDES[engine]
        base = seed_ensemble(range(3), [library], nodes=nodes, inputs=5)
        return [CampaignJob(
            label=job.label + "-eco", source=job.source, library=library,
            mode="eco", max_variants=variants, verify=True, check=True,
        ) for job in base]

    @pytest.mark.parametrize("engine", ["structural", "cuts"])
    def test_rows_describe_the_edited_circuit(self, engine):
        from repro.core.match import CUT_FILTER_MIN_GROUPS
        from repro.library.patterns import PatternSet
        from repro.perf.parallel import resolve_library

        library, variants, _ = self.SIDES[engine]
        patterns = PatternSet(resolve_library(library), max_variants=variants)
        rich = len(patterns.trie.groups) >= CUT_FILTER_MIN_GROUPS
        assert rich is (engine == "cuts")
        out = run_mapping_campaign(self._eco_jobs(engine), workers=1)
        assert out.ok, [f.error for f in out.failures]
        for row in out.rows:
            assert row.mode == "eco"
            assert "__eco__" in row.circuit  # name encodes the edit script
            assert row.verified  # simulated against the *edited* network
            assert row.delay > 0 and row.cover

    def test_warm_and_cold_rows_byte_identical(self):
        jobs = self._eco_jobs()
        warm = run_mapping_campaign(jobs, workers=2, warm=True)
        cold = run_mapping_campaign(jobs, workers=2, warm=False)
        assert warm.ok and cold.ok
        for a, b in zip(warm.rows, cold.rows):
            assert a.stable() == b.stable()

    def test_divergence_is_a_coded_mapping_error(self, monkeypatch):
        import repro.eco
        from repro.errors import MappingError
        from repro.library.builtin import mini_library
        from repro.library.patterns import PatternSet
        from repro.perf.campaign import _run_campaign_job

        real = repro.eco.eco_remap

        def skewed(*args, **kwargs):
            out = real(*args, **kwargs)
            out.result.delay += 1.0
            return out

        # The worker body imports eco_remap from the package namespace, so
        # patching repro.eco reaches the in-process job runner.
        monkeypatch.setattr(repro.eco, "eco_remap", skewed)
        patterns = PatternSet(mini_library(), max_variants=8)
        with pytest.raises(MappingError, match=r"\[M007\]"):
            _run_campaign_job(self._eco_jobs()[0], patterns)

    def test_eco_mode_weight(self):
        from repro.perf.campaign import MODE_WEIGHT, MODES

        assert "eco" in MODES
        assert MODE_WEIGHT["eco"] >= 2  # maps the circuit three times
