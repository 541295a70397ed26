"""The differential oracle battery (repro.fuzz.oracles).

Clean generated circuits must pass every oracle; each injected mutation
class must be caught with the documented ``F###`` code; the injection
hook must honour both the explicit config field and the
``REPRO_FUZZ_INJECT`` environment variable.
"""

import pytest

from repro.fuzz import (
    FUZZ_INJECT_ENV,
    FuzzConfig,
    INJECT_MODES,
    OracleConfig,
    random_dag,
    run_battery,
)
from repro.network.bnet import BooleanNetwork
from repro.network.decompose import decompose_network


def _codes(report):
    return sorted({diag.code for diag in report.errors()})


@pytest.fixture(scope="module")
def patterns():
    return OracleConfig().build_patterns()


class TestCleanCircuits:
    @pytest.mark.parametrize("seed", range(5))
    def test_no_findings_on_generated_circuits(self, seed, patterns):
        net = random_dag(FuzzConfig(n_nodes=25, seed=seed))
        report = run_battery(net, patterns=patterns)
        assert _codes(report) == [], report.format()
        assert report.meta["circuit"] == net.name
        assert report.meta["dag_delay"] <= report.meta["tree_delay"] + 1e-9
        assert report.meta["n_gates"] > 0

    def test_clean_on_fixture_net(self, small_net, patterns):
        report = run_battery(small_net, patterns=patterns)
        assert _codes(report) == [], report.format()


class TestInjectedMutations:
    """Every mutation class must be caught by at least one oracle."""

    @pytest.mark.parametrize(
        "mode,expected",
        [
            ("delay", "F004"),    # inflated delay breaks the certificate
            ("cover", "F004"),    # rewired pin breaks cover replay (C002)
            ("corrupt", "F002"),  # complemented PO breaks equivalence
            ("engine", "F009"),   # inflated filtered re-map: filter on != off
            ("eco", "F011"),      # skewed incremental delay: eco diverges
        ],
    )
    def test_mode_is_caught(self, mode, expected, patterns):
        net = random_dag(FuzzConfig(n_nodes=25, seed=1))
        config = OracleConfig(inject=mode)
        report = run_battery(net, config, patterns=patterns)
        codes = _codes(report)
        assert expected in codes, f"{mode}: got {codes}\n{report.format()}"
        assert report.meta["inject"] == mode
        assert report.meta["inject_detail"]

    def test_env_var_injection(self, monkeypatch, patterns):
        monkeypatch.setenv(FUZZ_INJECT_ENV, "corrupt")
        net = random_dag(FuzzConfig(n_nodes=20, seed=2))
        report = run_battery(net, patterns=patterns)
        assert "F002" in _codes(report)

    def test_explicit_inject_overrides_env(self, monkeypatch, patterns):
        monkeypatch.setenv(FUZZ_INJECT_ENV, "corrupt")
        net = random_dag(FuzzConfig(n_nodes=20, seed=2))
        report = run_battery(net, OracleConfig(inject="delay"),
                             patterns=patterns)
        assert report.meta["inject"] == "delay"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzz injection"):
            OracleConfig(inject="nonsense").resolved_inject()
        assert set(INJECT_MODES) == {"delay", "cover", "corrupt", "engine",
                                     "eco"}


class TestEngineAgreement:
    """F009: the cut filter forced on and off must agree on every circuit."""

    def test_engine_inject_reports_f009_only_there(self, patterns):
        net = random_dag(FuzzConfig(n_nodes=25, seed=3))
        report = run_battery(net, OracleConfig(inject="engine"),
                             patterns=patterns)
        assert _codes(report) == ["F009"], report.format()
        assert report.meta["inject"] == "engine"

    def test_cross_engines_runs_by_default(self, patterns):
        net = random_dag(FuzzConfig(n_nodes=20, seed=5))
        report = run_battery(net, patterns=patterns)
        assert _codes(report) == [], report.format()

    def test_cross_engines_false_skips_check(self, patterns):
        # with the agreement check disabled, the filter injection has no
        # oracle left to catch it
        net = random_dag(FuzzConfig(n_nodes=25, seed=3))
        report = run_battery(
            net,
            OracleConfig(inject="engine", cross_engines=False),
            patterns=patterns,
        )
        assert "F009" not in _codes(report), report.format()

    def test_extended_kind_skipped(self):
        # the cut filter refuses EXTENDED, so the agreement check must
        # stand down rather than report a spurious F009
        config = OracleConfig(kind="extended", inject="engine")
        net = random_dag(FuzzConfig(n_nodes=20, seed=6))
        report = run_battery(net, config, patterns=config.build_patterns())
        assert "F009" not in _codes(report), report.format()

    def test_compares_forced_states_where_the_rule_is_on(self):
        # 44-3: the default run filters, so F009 must still map once
        # with the filter forced off
        from repro.check.diagnostics import CheckReport
        from repro.core.match import Matcher, MatchKind
        from repro.fuzz.oracles import _check_filter_agreement

        config = OracleConfig(library="44-3", max_variants=4)
        subject = decompose_network(random_dag(FuzzConfig(n_nodes=30, seed=2)))
        patterns = config.build_patterns()
        default = Matcher(patterns)
        default.attach(subject)
        assert default.filter_on
        for inject, codes in ((None, []), ("engine", ["F009", "F009"])):
            report = CheckReport()
            _check_filter_agreement(report, subject, patterns,
                                    MatchKind.STANDARD, inject)
            assert [d.code for d in report.errors()] == codes


class TestRecoveryAndMultimapContract:
    """F010: area recovery and multimap must honour their contracts."""

    def test_clean_circuits_pass_contract(self, patterns):
        net = random_dag(FuzzConfig(n_nodes=30, seed=7))
        report = run_battery(net, patterns=patterns)
        assert "F010" not in _codes(report), report.format()

    def test_recovery_budget_violation_caught(self, monkeypatch, patterns):
        from dataclasses import replace

        import repro.core.area_recovery as ar

        real = ar.recover_area_result

        def lying(labels, pats, **kwargs):
            recovery = real(labels, pats, **kwargs)
            return replace(recovery, delay=recovery.target * 2.0)

        monkeypatch.setattr(ar, "recover_area_result", lying)
        net = random_dag(FuzzConfig(n_nodes=25, seed=1))
        report = run_battery(net, patterns=patterns)
        codes = _codes(report)
        assert "F010" in codes, report.format()
        assert any("target" in d.message for d in report.errors()
                   if d.code == "F010")

    def test_never_worse_violation_caught(self, monkeypatch, patterns):
        from dataclasses import replace

        import repro.core.area_recovery as ar

        real = ar.recover_area_result

        def bloated(labels, pats, **kwargs):
            recovery = real(labels, pats, **kwargs)
            return replace(recovery, area=recovery.plain_area * 2.0 + 1.0)

        monkeypatch.setattr(ar, "recover_area_result", bloated)
        net = random_dag(FuzzConfig(n_nodes=25, seed=1))
        report = run_battery(net, patterns=patterns)
        assert any("never-worse" in d.message for d in report.errors()
                   if d.code == "F010"), report.format()

    def test_multimap_slower_than_single_style_caught(
        self, monkeypatch, patterns
    ):
        from dataclasses import replace

        import repro.core.multimap as mm

        real = mm.map_multi_decomposition

        def sluggish(net, pats, **kwargs):
            multi = real(net, pats, **kwargs)
            return replace(multi, delay=multi.delay * 3.0 + 1.0)

        monkeypatch.setattr(mm, "map_multi_decomposition", sluggish)
        net = random_dag(FuzzConfig(n_nodes=25, seed=2))
        report = run_battery(net, patterns=patterns)
        assert any("best single style" in d.message for d in report.errors()
                   if d.code == "F010"), report.format()

    def test_contract_gated_by_subject_size(self, monkeypatch, patterns):
        import repro.core.area_recovery as ar

        def boom(labels, pats, **kwargs):
            raise RuntimeError("should never be called")

        monkeypatch.setattr(ar, "recover_area_result", boom)
        net = random_dag(FuzzConfig(n_nodes=25, seed=1))
        report = run_battery(
            net, OracleConfig(contract_max_gates=0), patterns=patterns
        )
        assert "F010" not in _codes(report), report.format()


class TestStructuralGate:
    def test_broken_network_reports_f007_and_stops(self, patterns):
        net = BooleanNetwork("bad")
        net.add_pi("a")
        net.add_node("n", "!a")
        net.add_po("n")
        net.pos.append("ghost")  # undefined PO: lint error N003
        report = run_battery(net, patterns=patterns)
        assert _codes(report) == ["F007"]
        assert "N003" in report.errors()[0].message


class TestConfigSurface:
    def test_as_dict_roundtrip_fields(self):
        config = OracleConfig(library="44-1", kind="extended",
                              max_variants=4, decompose="linear")
        data = config.as_dict()
        assert data == {
            "library": "44-1", "kind": "extended",
            "max_variants": 4, "decompose": "linear",
        }

    def test_battery_runs_under_other_library(self, lib441_patterns):
        net = random_dag(FuzzConfig(n_nodes=18, seed=4))
        report = run_battery(
            net, OracleConfig(library="44-1"), patterns=lib441_patterns
        )
        assert _codes(report) == [], report.format()


class TestEcoOracle:
    """F011: incremental remapping must equal from-scratch, byte for byte."""

    def test_clean_run_records_replayable_script(self, patterns):
        from repro.network.edits import EditScript

        net = random_dag(FuzzConfig(n_nodes=25, seed=1))
        report = run_battery(net, patterns=patterns)
        assert "F011" not in _codes(report), report.format()
        script = EditScript.decode(report.meta["eco_script"])
        assert len(script) >= 1
        script.apply(net)  # the recorded script must replay on the base

    def test_eco_inject_reports_f011_only_there(self, patterns):
        net = random_dag(FuzzConfig(n_nodes=25, seed=3))
        report = run_battery(net, OracleConfig(inject="eco"),
                             patterns=patterns)
        assert _codes(report) == ["F011"], report.format()
        assert report.meta["inject"] == "eco"
        assert "delay inflated" in report.meta["inject_detail"]

    def test_runs_for_extended_kind_structural_only(self, lib441_patterns):
        net = random_dag(FuzzConfig(n_nodes=20, seed=6))
        report = run_battery(
            net, OracleConfig(library="44-1", kind="extended"),
            patterns=lib441_patterns,
        )
        assert "F011" not in _codes(report), report.format()
        assert "eco_script" in report.meta

    def test_gated_by_contract_max_gates(self, patterns):
        net = random_dag(FuzzConfig(n_nodes=25, seed=2))
        report = run_battery(
            net, OracleConfig(contract_max_gates=0), patterns=patterns
        )
        assert "eco_script" not in report.meta
        assert "F011" not in _codes(report)
