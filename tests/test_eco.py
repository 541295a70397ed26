"""Incremental (ECO) remapping (repro.eco) and patch certification.

The hard contract under test: ``eco_remap(base, edited, ...)`` is
byte-identical — delay, area, mapped-BLIF cover — to a from-scratch
``map_dag`` of the edited network, with the matcher's cut filter forced
off and on and for every match kind, while actually reusing labels on
realistic edits.  The E-series patch certificate must catch tampered
splices.
"""

import copy
import dataclasses

import pytest

import repro.core.match
import repro.eco.keys
from repro.check.eco import certify_patch
from repro.core.dag_mapper import map_dag
from repro.core.match import Match, Matcher, MatchKind
from repro.core.tree_mapper import map_tree
from repro.eco import EcoKeyTable, compute_subject_keys, eco_remap
from repro.errors import CertificateError, MappingError
from repro.fuzz.generator import (
    FuzzConfig,
    derive_edit_seed,
    random_dag,
    random_edit_pair,
    random_edit_script,
)
from repro.library.patterns import PatternSet
from repro.network.decompose import decompose_network
from repro.network.edits import Edit, EditScript
from repro.network.mapped_io import dumps_mapped_blif

#: Parametrization labels of the two matcher configurations: every
#: pattern tried structurally (cut filter forced off) or pre-filtered
#: through cuts (forced on).
CUT_FILTER = {"structural": False, "cuts": True}

ENGINES_BY_KIND = [
    (MatchKind.STANDARD, "structural"),
    (MatchKind.STANDARD, "cuts"),
    (MatchKind.EXACT, "structural"),
    (MatchKind.EXACT, "cuts"),
    (MatchKind.EXTENDED, "structural"),  # the filter refuses EXTENDED
]


def identical(a, b):
    return (
        a.delay == b.delay
        and a.area == b.area
        and dumps_mapped_blif(a.netlist) == dumps_mapped_blif(b.netlist)
    )


def forced(patterns, kind, engine):
    """A fresh matcher with the cut filter forced per ``CUT_FILTER``."""
    return Matcher(patterns, kind, cut_filter=CUT_FILTER[engine])


def scratch_map(net, patterns, kind, engine, arrivals=None):
    return map_dag(
        decompose_network(net),
        patterns,
        kind=kind,
        arrival_times=arrivals,
        matcher=forced(patterns, kind, engine),
    )


@pytest.fixture(scope="module")
def edit_pair():
    return random_edit_pair(FuzzConfig(n_inputs=8, n_nodes=40, seed=7), n_edits=2)


class TestByteIdentity:
    @pytest.mark.parametrize("kind,engine", ENGINES_BY_KIND)
    def test_matches_from_scratch_mapping(self, kind, engine, mini_patterns, edit_pair):
        base_net, edited, script = edit_pair
        base = scratch_map(base_net, mini_patterns, kind, engine)
        eco = eco_remap(base, edited, mini_patterns,
                        matcher=forced(mini_patterns, kind, engine))
        scratch = scratch_map(edited, mini_patterns, kind, engine)
        assert identical(eco.result, scratch), (kind, engine)
        assert eco.nodes_reused > 0, "a 2-edit script must leave clean cones"
        assert eco.nodes_remapped > 0, "the edit must dirty its fanout"
        assert 0.0 < eco.reuse_fraction < 1.0

    def test_counters_and_metadata(self, mini_patterns, edit_pair):
        base_net, edited, _ = edit_pair
        base = scratch_map(base_net, mini_patterns, MatchKind.STANDARD, "structural")
        eco = eco_remap(base, edited, mini_patterns)
        counters = eco.result.counters
        assert counters["eco_nodes_reused"] == eco.nodes_reused
        assert counters["eco_nodes_remapped"] == eco.nodes_remapped
        assert eco.result.match_kind == base.match_kind
        assert eco.patch_report is not None and not eco.patch_report.has_errors
        assert eco.patch_report.meta["nodes_reused"] == eco.nodes_reused
        assert "reused" in eco.summary()

    def test_arrival_times_respected(self, mini_patterns, edit_pair):
        base_net, edited, _ = edit_pair
        arrivals = {pi: 0.5 * i for i, pi in enumerate(base_net.pis)}
        base = scratch_map(
            base_net, mini_patterns, MatchKind.STANDARD, "structural", arrivals
        )
        eco = eco_remap(base, edited, mini_patterns, arrival_times=arrivals)
        scratch = scratch_map(
            edited, mini_patterns, MatchKind.STANDARD, "structural", arrivals
        )
        assert identical(eco.result, scratch)
        assert eco.nodes_reused > 0

    def test_accepts_raw_library_and_subject(self, mini_lib, edit_pair):
        base_net, edited, _ = edit_pair
        subject = decompose_network(base_net)
        base = map_dag(subject, mini_lib, kind=MatchKind.STANDARD, max_variants=8)
        eco = eco_remap(
            base, decompose_network(edited), mini_lib, max_variants=8
        )
        scratch = map_dag(decompose_network(edited), mini_lib, max_variants=8)
        assert identical(eco.result, scratch)


class TestEdgeCases:
    @pytest.mark.parametrize("engine", ["structural", "cuts"])
    def test_empty_diff_reuses_everything(self, engine, mini_patterns, edit_pair):
        base_net, _, _ = edit_pair
        base = scratch_map(base_net, mini_patterns, MatchKind.STANDARD, engine)
        eco = eco_remap(base, base_net, mini_patterns, matcher=forced(
            mini_patterns, MatchKind.STANDARD, engine))
        assert eco.nodes_remapped == 0
        assert eco.reuse_fraction == 1.0
        assert identical(eco.result, base)

    @pytest.mark.parametrize("engine", ["structural", "cuts"])
    def test_changed_arrivals_dirty_everything(self, engine, mini_patterns, edit_pair):
        base_net, _, _ = edit_pair
        base = scratch_map(base_net, mini_patterns, MatchKind.STANDARD, engine)
        moved = {pi: 3.25 for pi in base_net.pis}
        eco = eco_remap(base, base_net, mini_patterns, arrival_times=moved,
                        matcher=forced(mini_patterns, MatchKind.STANDARD, engine))
        assert eco.nodes_reused == 0
        scratch = scratch_map(
            base_net, mini_patterns, MatchKind.STANDARD, engine, moved
        )
        assert identical(eco.result, scratch)

    def test_base_arrivals_read_from_labels(self, mini_patterns, edit_pair):
        """The base's PI arrivals come from its labels, never from the
        edited run's: moving some arrivals along with an edit splices no
        stale label, and the result equals from-scratch."""
        base_net, edited, _ = edit_pair
        base = scratch_map(base_net, mini_patterns, MatchKind.STANDARD,
                           "structural")
        moved = {pi: 3.25 for pi in list(base_net.pis)[:2]}
        eco = eco_remap(base, edited, mini_patterns, arrival_times=moved)
        scratch = scratch_map(edited, mini_patterns, MatchKind.STANDARD,
                              "structural", moved)
        assert identical(eco.result, scratch)
        assert eco.nodes_reused > 0
        assert not eco.patch_report.has_errors

    def test_po_toggle_preserves_ordering(self, mini_patterns):
        """A PO-only edit: covers splice wholesale, PO order must survive."""
        net = random_dag(FuzzConfig(n_inputs=6, n_nodes=30, n_outputs=4, seed=3))
        internal = [node.name for node in net.nodes() if node.name not in net.pos]
        script = EditScript((Edit("po", internal[0]),))
        edited = script.apply(net)
        base = scratch_map(net, mini_patterns, MatchKind.STANDARD, "structural")
        eco = eco_remap(base, edited, mini_patterns)
        scratch = scratch_map(edited, mini_patterns, MatchKind.STANDARD, "structural")
        assert identical(eco.result, scratch)
        assert [name for name, _ in eco.result.labels.subject.pos] == [
            name for name, _ in scratch.labels.subject.pos
        ]

    def test_extended_leaves_stay_sound(self, lib441_patterns, edit_pair):
        """EXTENDED matches bind nodes past the cone; escapes must go dirty."""
        base_net, edited, _ = edit_pair
        base = scratch_map(base_net, lib441_patterns, MatchKind.EXTENDED, "structural")
        eco = eco_remap(base, edited, lib441_patterns)
        scratch = scratch_map(edited, lib441_patterns, MatchKind.EXTENDED, "structural")
        assert identical(eco.result, scratch)

    def test_stuck_constant_edit(self, mini_patterns):
        net = random_dag(FuzzConfig(n_inputs=6, n_nodes=24, seed=9))
        target = next(iter(net.pos))
        script = EditScript((Edit("stuck", target, "1"),))
        edited = script.apply(net)
        base = scratch_map(net, mini_patterns, MatchKind.STANDARD, "structural")
        eco = eco_remap(base, edited, mini_patterns)
        scratch = scratch_map(edited, mini_patterns, MatchKind.STANDARD, "structural")
        assert identical(eco.result, scratch)


class TestValidation:
    def test_tree_base_rejected_m005(self, mini_patterns, edit_pair):
        base_net, edited, _ = edit_pair
        base = map_tree(decompose_network(base_net), mini_patterns)
        with pytest.raises(MappingError, match=r"\[M005\]"):
            eco_remap(base, edited, mini_patterns)

    def test_library_mismatch_rejected_m006(self, mini_patterns, lib441_patterns,
                                            edit_pair):
        base_net, edited, _ = edit_pair
        base = scratch_map(base_net, mini_patterns, MatchKind.STANDARD, "structural")
        with pytest.raises(MappingError, match=r"\[M006\]"):
            eco_remap(base, edited, lib441_patterns)


class TestPatternSetCheck:
    """The base records the pattern set that labelled it (M006, E005)."""

    @pytest.fixture(scope="class")
    def pair(self):
        return random_edit_pair(FuzzConfig(n_inputs=6, n_nodes=24, seed=0))

    def test_other_variant_count_rejected_m006(self, lib441, lib441_patterns,
                                               pair):
        # Spliced under 8 variants, this base gave delay 17.0 where a
        # from-scratch map gives 16.0.
        base_net, edited, _ = pair
        base = map_dag(decompose_network(base_net), PatternSet(lib441, 1))
        with pytest.raises(MappingError, match=r"\[M006\].*pattern set"):
            eco_remap(base, edited, lib441_patterns)

    def test_equal_set_accepted(self, lib441, lib441_patterns, pair):
        base_net, edited, _ = pair
        base = map_dag(decompose_network(base_net), PatternSet(lib441, 8))
        eco = eco_remap(base, edited, lib441_patterns)
        scratch = map_dag(decompose_network(edited), lib441_patterns)
        assert identical(eco.result, scratch)

    def test_matcher_of_other_kind_rejected_m006(self, lib441_patterns, pair):
        base_net, edited, _ = pair
        base = map_dag(decompose_network(base_net), lib441_patterns)
        with pytest.raises(MappingError, match=r"\[M006\].*matcher"):
            eco_remap(base, edited, lib441_patterns,
                      matcher=Matcher(lib441_patterns, MatchKind.EXACT))

    def test_pattern_set_divergence_e005(self, lib441, lib441_patterns, pair):
        base_net, edited, _ = pair
        base = map_dag(decompose_network(base_net), lib441_patterns)
        eco = eco_remap(base, edited, lib441_patterns)
        other = map_dag(decompose_network(base_net), PatternSet(lib441, 1))
        report = certify_patch(eco.result, eco.reused_uids, other)
        assert "E005" in {d.code for d in report.errors()}


class TestKeptKeys:
    """A base's keys are computed once and kept on its labels."""

    def test_second_edit_walks_each_edited_cone_once(self, monkeypatch,
                                                     mini_patterns, edit_pair):
        base_net, edited, _ = edit_pair
        base = scratch_map(base_net, mini_patterns, MatchKind.STANDARD,
                           "structural")
        matcher = Matcher(mini_patterns)
        eco_remap(base, edited, mini_patterns, matcher=matcher)
        calls = {"keys": 0, "matcher": 0}

        def counting(where, real):
            def wrapped(*args, **kwargs):
                calls[where] += 1
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(repro.eco.keys, "cone_signature", counting(
            "keys", repro.eco.keys.cone_signature))
        monkeypatch.setattr(repro.core.match, "cone_signature", counting(
            "matcher", repro.core.match.cone_signature))
        script = random_edit_script(base_net, seed=2, n_edits=2)
        subject = decompose_network(script.apply(base_net))
        eco = eco_remap(base, subject, mini_patterns, matcher=matcher)
        assert eco.nodes_remapped > 0
        assert calls == {"keys": subject.n_gates, "matcher": 0}

    @pytest.mark.parametrize("kind,engine", ENGINES_BY_KIND)
    def test_twenty_edits_of_one_base(self, kind, engine, mini_patterns):
        net = random_dag(FuzzConfig(n_inputs=8, n_nodes=40, seed=5))
        base = scratch_map(net, mini_patterns, kind, engine)
        matcher = forced(mini_patterns, kind, engine)
        sizes = set()
        for step in range(20):
            script = random_edit_script(
                net, seed=derive_edit_seed(net) + step, n_edits=2
            )
            edited = script.apply(net)
            eco = eco_remap(base, edited, mini_patterns, matcher=matcher)
            scratch = scratch_map(edited, mini_patterns, kind, engine)
            assert identical(eco.result, scratch), (kind, engine, step)
            sizes.add(len(base.labels.eco_keys.table))
        assert len(sizes) == 1, "the kept table grew"

    def test_overlay_never_writes_the_frozen_table(self):
        frozen = EcoKeyTable()
        a = frozen.intern(("a",))
        overlay = EcoKeyTable(frozen)
        assert overlay.intern(("a",)) == a
        b = overlay.intern(("b",))
        assert b not in (a,) and overlay.intern(("b",)) == b
        assert len(frozen) == 1 and len(overlay) == 2
        with pytest.raises(ValueError):
            EcoKeyTable(overlay)


def mutated(result, **label_overrides):
    labels = dataclasses.replace(result.labels, **label_overrides)
    out = copy.copy(result)
    out.labels = labels
    return out


def covered_uid(result):
    for _, driver in result.labels.subject.pos:
        if not driver.is_pi:
            return driver.uid
    raise AssertionError("no internal PO driver")


class TestCertifyPatch:
    @pytest.fixture(scope="class")
    def eco_run(self, mini_patterns):
        base_net, edited, _ = random_edit_pair(
            FuzzConfig(n_inputs=8, n_nodes=40, seed=7), n_edits=2
        )
        base = scratch_map(base_net, mini_patterns, MatchKind.STANDARD, "structural")
        return base, eco_remap(base, edited, mini_patterns)

    def test_clean_run_certifies(self, eco_run):
        base, eco = eco_run
        report = certify_patch(eco.result, eco.reused_uids, base)
        assert not report.has_errors, report.format()
        assert report.meta["covered_reused"] + report.meta["covered_remapped"] > 0

    def test_broken_spliced_binding_e001(self, eco_run):
        base, eco = eco_run
        uid = covered_uid(eco.result)
        best = list(eco.result.labels.best)
        match = best[uid]
        best[uid] = Match(match.pattern, match.root,
                          dict(list(match.binding.items())[:-1]))
        report = certify_patch(
            mutated(eco.result, best=best),
            eco.reused_uids | frozenset({uid}), base,
        )
        codes = {d.code for d in report.errors()}
        assert "E001" in codes
        assert "C101" in codes

    def test_broken_remapped_binding_e002(self, eco_run):
        base, eco = eco_run
        uid = covered_uid(eco.result)
        best = list(eco.result.labels.best)
        match = best[uid]
        best[uid] = Match(match.pattern, match.root,
                          dict(list(match.binding.items())[:-1]))
        report = certify_patch(
            mutated(eco.result, best=best),
            eco.reused_uids - frozenset({uid}), base,
        )
        assert "E002" in {d.code for d in report.errors()}

    def test_stale_arrival_e003(self, eco_run):
        base, eco = eco_run
        uid = covered_uid(eco.result)
        arrival = list(eco.result.labels.arrival)
        arrival[uid] += 1.5
        report = certify_patch(mutated(eco.result, arrival=arrival),
                               eco.reused_uids, base)
        assert "E003" in {d.code for d in report.errors()}

    def test_missing_po_match_e004(self, eco_run):
        base, eco = eco_run
        uid = covered_uid(eco.result)
        best = list(eco.result.labels.best)
        best[uid] = None
        report = certify_patch(mutated(eco.result, best=best),
                               eco.reused_uids, base)
        assert "E004" in {d.code for d in report.errors()}

    def test_metadata_divergence_e005(self, mini_patterns, eco_run):
        base, eco = eco_run
        exact_base = map_dag(base.labels.subject, mini_patterns,
                             kind=MatchKind.EXACT)
        report = certify_patch(eco.result, eco.reused_uids, exact_base)
        assert "E005" in {d.code for d in report.errors()}

    def test_raise_on_error(self, eco_run):
        base, eco = eco_run
        uid = covered_uid(eco.result)
        best = list(eco.result.labels.best)
        best[uid] = None
        with pytest.raises(CertificateError, match="E004"):
            certify_patch(mutated(eco.result, best=best),
                          eco.reused_uids, base, raise_on_error=True)


class TestKeys:
    def test_identical_subjects_share_keys(self, mini_patterns):
        net = random_dag(FuzzConfig(n_inputs=6, n_nodes=24, seed=4))
        subject_a = decompose_network(net)
        subject_b = decompose_network(net)
        table = EcoKeyTable()
        keys_a = compute_subject_keys(subject_a, MatchKind.STANDARD, {},
                                      mini_patterns, table)
        keys_b = compute_subject_keys(subject_b, MatchKind.STANDARD, {},
                                      mini_patterns, table)
        for a, b in zip(subject_a.topological(), subject_b.topological()):
            assert keys_a.keys[a.uid] == keys_b.keys[b.uid]

    def test_exact_kind_sees_fanout(self, mini_patterns):
        """EXACT keys encode use counts, so a fanout change dirties a node."""
        net = random_dag(FuzzConfig(n_inputs=6, n_nodes=24, seed=4))
        internal = [node.name for node in net.nodes() if node.name not in net.pos]
        script = EditScript((Edit("po", internal[0]),))
        edited = script.apply(net)
        table = EcoKeyTable()

        def key_count(kind):
            a = compute_subject_keys(decompose_network(net), kind, {},
                                     mini_patterns, table)
            b = compute_subject_keys(decompose_network(edited), kind, {},
                                     mini_patterns, table)
            shared = set(a.keys) & set(b.keys)
            return len(shared)

        assert key_count(MatchKind.EXACT) <= key_count(MatchKind.STANDARD)
