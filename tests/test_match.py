"""Tests for the graph matcher (repro.core.match).

The matcher is checked against :func:`verify_match`, an independent
implementation of Definitions 1-3, on hand-built and randomly generated
subject graphs.
"""

import gc
import random
import types

import pytest

from repro.core.match import Match, Matcher, MatchKind, subject_uses, verify_match
from repro.library.builtin import lib2_like, mini_library
from repro.library.patterns import PatternSet
from repro.network.bitsim import cone_words
from repro.network.decompose import decompose_network
from repro.network.functions import variable_bits
from repro.bench import circuits
from repro.network.subject import SubjectGraph


def random_subject(seed: int, n_gates: int = 40) -> SubjectGraph:
    """Random NAND2-INV DAG.

    NAND2 fanins are kept distinct: technology decomposition never emits
    NAND2(x, x), and such degenerate nodes would (correctly) have no
    standard match of the two-leaf NAND2 pattern.
    """
    rng = random.Random(seed)
    g = SubjectGraph(f"rand{seed}")
    nodes = [g.add_pi(f"p{i}") for i in range(5)]
    for _ in range(n_gates):
        if rng.random() < 0.4:
            nodes.append(g.add_inv(rng.choice(nodes), share=False))
        else:
            a, b = rng.sample(nodes, 2)
            nodes.append(g.add_nand2(a, b, share=False))
    g.set_po("o", nodes[-1])
    return g


@pytest.fixture(scope="module")
def mini_patterns():
    return PatternSet(mini_library(), max_variants=8)


@pytest.fixture(scope="module")
def lib2_patterns():
    return PatternSet(lib2_like(), max_variants=8)


class TestValidity:
    @pytest.mark.parametrize("kind", list(MatchKind))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_all_matches_valid(self, mini_patterns, kind, seed):
        subject = random_subject(seed)
        matcher = Matcher(mini_patterns, kind)
        matcher.attach(subject)
        total = 0
        for node in subject.topological():
            for match in matcher.matches_at(node):
                problems = verify_match(match, subject, kind)
                assert not problems, problems
                total += 1
        assert total > 0

    def test_no_matches_at_pi(self, mini_patterns):
        subject = random_subject(4)
        matcher = Matcher(mini_patterns, MatchKind.STANDARD)
        matcher.attach(subject)
        assert matcher.matches_at(subject.pis[0]) == []

    def test_matches_deduplicated(self, mini_patterns):
        subject = random_subject(5)
        matcher = Matcher(mini_patterns, MatchKind.STANDARD)
        matcher.attach(subject)
        for node in subject.topological():
            identities = [m.identity() for m in matcher.matches_at(node)]
            assert len(identities) == len(set(identities))


class TestSubsumption:
    """exact <= standard <= extended (as sets of match identities)."""

    @pytest.mark.parametrize("seed", [7, 8])
    def test_match_class_hierarchy(self, mini_patterns, seed):
        subject = random_subject(seed)
        sets = {}
        for kind in MatchKind:
            matcher = Matcher(mini_patterns, kind)
            matcher.attach(subject)
            found = set()
            for node in subject.topological():
                for match in matcher.matches_at(node):
                    found.add(match.identity())
            sets[kind] = found
        assert sets[MatchKind.EXACT] <= sets[MatchKind.STANDARD]
        assert sets[MatchKind.STANDARD] <= sets[MatchKind.EXTENDED]


class TestSemantics:
    def test_trivial_nand_and_inv_always_match(self, mini_patterns):
        subject = decompose_network(circuits.c17())
        matcher = Matcher(mini_patterns, MatchKind.STANDARD)
        matcher.attach(subject)
        for node in subject.topological():
            if not node.is_pi:
                assert matcher.matches_at(node), f"no match at {node!r}"

    def test_standard_match_across_fanout(self):
        """A standard match may cover an interior node with external
        fanout; an exact match may not (Definitions 1 vs 2)."""
        from repro.figures import figure2

        fig = figure2()
        patterns = PatternSet(fig.library)
        o1 = fig.subject.po_drivers()[0]

        std = Matcher(patterns, MatchKind.STANDARD)
        std.attach(fig.subject)
        std_names = {m.gate.name for m in std.matches_at(o1)}
        assert "big" in std_names

        exact = Matcher(patterns, MatchKind.EXACT)
        exact.attach(fig.subject)
        exact_names = {m.gate.name for m in exact.matches_at(o1)}
        assert "big" not in exact_names
        assert "nand2" in exact_names

    def test_extended_match_unfolds_dag(self):
        from repro.figures import figure1

        fig = figure1()
        patterns = PatternSet(fig.library)
        for kind, expected in ((MatchKind.STANDARD, 0), (MatchKind.EXTENDED, 1)):
            matcher = Matcher(patterns, kind)
            matcher.attach(fig.subject)
            matches = [
                m for m in matcher.matches_at(fig.top) if m.gate.name == "nor2"
            ]
            assert len(matches) == expected
            for match in matches:
                assert not verify_match(match, fig.subject, kind)

    def test_match_accessors(self, mini_patterns):
        subject = decompose_network(circuits.c17())
        matcher = Matcher(mini_patterns, MatchKind.STANDARD)
        matcher.attach(subject)
        node = subject.po_drivers()[0]
        match = matcher.matches_at(node)[0]
        assert match.root is node
        assert match.internal_nodes()
        assert len(match.leaves()) == len(match.pattern.leaves)
        assert all(pin for pin, _ in match.leaves())
        assert "Match(" in repr(match)

    def test_subject_uses(self, mini_patterns):
        subject = decompose_network(circuits.c17())
        uses = subject_uses(subject)
        for _, driver in subject.pos:
            assert uses[driver.uid] >= 1

    def test_reattach_resets_caches(self, mini_patterns):
        """One Matcher reused across two different subjects must not leak
        the feasibility cache (it is keyed by subject node uids)."""
        matcher = Matcher(mini_patterns, MatchKind.STANDARD)
        first = decompose_network(circuits.c17())
        matcher.attach(first)
        counts_first = {
            n.uid: len(matcher.matches_at(n))
            for n in first.topological() if not n.is_pi
        }
        second = decompose_network(circuits.parity_tree(4))
        matcher.attach(second)
        for node in second.topological():
            if not node.is_pi:
                assert matcher.matches_at(node)
        # And going back reproduces the original counts exactly.
        matcher.attach(first)
        for node in first.topological():
            if not node.is_pi:
                assert len(matcher.matches_at(node)) == counts_first[node.uid]


class TestCompletenessOracle:
    """Brute-force cross-check on a tiny subject graph: the matcher finds
    exactly the bindings a naive enumerator finds."""

    def test_nand2_match_count(self, mini_patterns):
        # n2 = NAND2(NAND2(a, b), INV(c)) == a*b + c, so the aoi21 gate
        # (!(a*b + c), whose pattern root is an inverter) matches at
        # n3 = INV(n2).
        g = SubjectGraph()
        a, b, c = (g.add_pi(x) for x in "abc")
        n1 = g.add_nand2(a, b)
        inv_c = g.add_inv(c)
        n2 = g.add_nand2(n1, inv_c)
        n3 = g.add_inv(n2)
        g.set_po("o", n3)
        matcher = Matcher(mini_patterns, MatchKind.STANDARD)
        matcher.attach(g)

        by_gate = {}
        for m in matcher.matches_at(n2):
            by_gate.setdefault(m.gate.name, []).append(m)
        # nand2 rooted at n2: exactly one after symmetric-pin dedup.
        assert len(by_gate["nand2"]) == 1
        assert {n.uid for _, n in by_gate["nand2"][0].leaves()} == {
            n1.uid, inv_c.uid
        }

        by_gate3 = {}
        for m in matcher.matches_at(n3):
            by_gate3.setdefault(m.gate.name, []).append(m)
        assert "aoi21" in by_gate3
        assert len(by_gate3["aoi21"]) == 1
        leaf_uids = sorted(n.uid for _, n in by_gate3["aoi21"][0].leaves())
        assert leaf_uids == sorted([a.uid, b.uid, c.uid])
        # The inverter's trivial pattern also matches at n3.
        assert "inv" in by_gate3


def cone_computes_gate(match) -> bool:
    """Does the matched subject cone compute the gate's function?

    EXTENDED matches drop injectivity, so they are the one match class
    where an unsound binding could silently change functionality.  The
    check evaluates the subject cone between the match root and its leaf
    nodes over packed truth-table words and compares it against the
    gate's truth table with its pins bound to the same words.  Free
    variables go only to *pure* leaves: a subject node bound both as a
    leaf and as an interior node (an unfolding artefact) always equals
    its own cone function of the deeper leaves, so both sides evaluate
    it that way, and shared leaves tie the corresponding gate inputs
    together on both sides.
    """
    leaves = match.leaves()
    interior = {snode.uid for snode in match.internal_nodes()}
    order = list(
        {node.uid: node for _, node in leaves if node.uid not in interior}
        .values()
    )
    mask = (1 << (1 << len(order))) - 1
    leaf_words = {
        node.uid: variable_bits(k, len(order)) for k, node in enumerate(order)
    }
    pin_word = {pin: cone_words(node, leaf_words, mask) for pin, node in leaves}
    expected = match.gate.tt.eval_words(
        [pin_word.get(pin, 0) for pin in match.gate.inputs], mask
    )
    return cone_words(match.root, leaf_words, mask) == expected


class TestConeCrosscheck:
    """The packed-cone functional check accepts every EXTENDED match the
    matcher produces (the matches are sound) and rejects a corrupted one
    (the check can fail)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_crosscheck_accepts_all_matches(self, mini_patterns, seed):
        subject = random_subject(seed)
        matcher = Matcher(mini_patterns, MatchKind.EXTENDED)
        matcher.attach(subject)
        total = 0
        for node in subject.topological():
            for match in matcher.matches_at(node):
                assert cone_computes_gate(match), match
                total += 1
        assert total > 0

    def test_crosscheck_rejects_corrupted_binding(self, mini_patterns):
        subject = random_subject(1)
        matcher = Matcher(mini_patterns, MatchKind.EXTENDED)
        matcher.attach(subject)
        # aoi21 = !(a*b + c) is not symmetric in a and c: exchanging the
        # subject nodes bound to those pins breaks the match whenever the
        # two leaves are distinct pure leaves.
        corrupted_matches = 0
        for node in subject.topological():
            for match in matcher.matches_at(node):
                pins = dict(match.leaves())
                interior = {n.uid for n in match.internal_nodes()}
                if (match.gate.name != "aoi21" or pins["a"] is pins["c"]
                        or {pins["a"].uid, pins["c"].uid} & interior):
                    continue
                swap = {"a": pins["c"], "c": pins["a"]}
                binding = dict(match.binding)
                for leaf in match.pattern.leaves:
                    if leaf.pin in swap:
                        binding[leaf.uid] = swap[leaf.pin]
                corrupted = Match(match.pattern, match.root, binding)
                assert not cone_computes_gate(corrupted), corrupted
                corrupted_matches += 1
        assert corrupted_matches > 0

    def test_uses_floor_hoisted(self, mini_patterns):
        subject = random_subject(6)
        matcher = Matcher(mini_patterns, MatchKind.STANDARD)
        matcher.attach(subject)
        floor = matcher.uses_floor
        uses = subject_uses(subject)
        for node in subject.nodes:
            assert floor[node.uid] == max(1, uses.get(node.uid, 0))


class TestNoReferenceCycles:
    def test_matching_leaves_no_closure_cycles(self):
        # The recursive helpers of cone signatures and binding enumeration
        # run per subject node, and the pattern set's trie and NPN table
        # are built inside the first matcher's first calls; none of them
        # may leave self-referencing closures for the cyclic GC.
        subject = decompose_network(circuits.array_multiplier(4))
        patterns = PatternSet(lib2_like(), max_variants=8)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for cut_filter in (None, True):
                matcher = Matcher(patterns, MatchKind.STANDARD,
                                  cut_filter=cut_filter)
                matcher.attach(subject)
                for node in subject.topological():
                    matcher.matches_at(node)
                del matcher
            gc.collect()
            leaked = sorted(
                obj.__qualname__ for obj in gc.garbage
                if isinstance(obj, types.FunctionType)
                and obj.__module__.startswith("repro.")
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []

    def test_pattern_set_build_leaves_no_cyclic_garbage(self):
        # Pattern generation runs once per library on the set-up path of
        # every table run, campaign bundle and fixture; its key and depth
        # passes are loops, so a build frees all it allocates by
        # reference counting alone.
        library = lib2_like()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            patterns = PatternSet(library, max_variants=8)
            del patterns
            gc.collect()
            garbage = [type(obj).__qualname__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == []
