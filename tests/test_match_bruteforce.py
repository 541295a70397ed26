"""Completeness oracles for the graph matcher.

For small subject graphs and patterns, enumerate *every* mapping of
pattern nodes to subject nodes by exhaustive assignment, keep those
satisfying Definition 1/2/3 via :func:`verify_match`, and require both
the matcher and the certificate's reference enumerator
(:class:`repro.check.reference_match.ReferenceMatcher`) to find exactly
the same set (up to match identity).  This checks completeness — the
enumerators miss nothing — whereas ``verify_match`` alone only checks
soundness.

The brute force is exponential, so seeded random subjects from
:mod:`repro.fuzz.generator` compare the matcher with the reference
enumerator instead: under mini and lib2, in all three match kinds, the
two identity sets must be equal at every node.
"""

from itertools import product

import pytest

from repro.check.reference_match import ReferenceMatcher
from repro.core.match import Match, Matcher, MatchKind, verify_match
from repro.fuzz.generator import FuzzConfig, random_dag
from repro.library.builtin import lib2_like, mini_library
from repro.library.patterns import PatternSet
from repro.network.decompose import decompose_network
from repro.network.subject import SubjectGraph


def brute_force_matches(pattern, subject, root, kind):
    """All valid bindings by exhaustive enumeration (exponential)."""
    pattern_nodes = pattern.nodes
    candidates = subject.nodes
    found = set()
    for combo in product(candidates, repeat=len(pattern_nodes)):
        binding = {p.uid: s for p, s in zip(pattern_nodes, combo)}
        if binding[pattern.root.uid] is not root:
            continue
        match = Match(pattern, root, binding)
        if not verify_match(match, subject, kind):
            found.add(match.identity())
    return found


def graphs():
    """Small subject graphs with reconvergence, sharing, and fanout."""
    out = []

    g1 = SubjectGraph("chain")
    a, b, c = (g1.add_pi(x) for x in "abc")
    n1 = g1.add_nand2(a, b)
    n2 = g1.add_inv(n1)
    n3 = g1.add_nand2(n2, c)
    g1.set_po("o", n3)
    out.append(g1)

    g2 = SubjectGraph("reconv")
    a, b = (g2.add_pi(x) for x in "ab")
    n1 = g2.add_nand2(a, b)
    i1 = g2.add_inv(a)
    i2 = g2.add_inv(b)
    n2 = g2.add_nand2(i1, i2)
    n3 = g2.add_nand2(n1, n2)
    g2.set_po("o", n3)
    out.append(g2)

    g3 = SubjectGraph("fanout")
    a, b, c = (g3.add_pi(x) for x in "abc")
    shared = g3.add_nand2(a, b)
    n1 = g3.add_nand2(shared, c)
    n2 = g3.add_inv(shared)
    n3 = g3.add_nand2(n1, n2)
    g3.set_po("o", n3)
    out.append(g3)

    g4 = SubjectGraph("xorish")
    a, b = (g4.add_pi(x) for x in "ab")
    ia = g4.add_inv(a)
    ib = g4.add_inv(b)
    n1 = g4.add_nand2(a, ib)
    n2 = g4.add_nand2(ia, b)
    n3 = g4.add_nand2(n1, n2)
    g4.set_po("o", n3)
    out.append(g4)

    return out


@pytest.fixture(scope="module")
def patterns():
    # mini library: inv, nand2, nand3, nor2, aoi21, xor2 — max 7 nodes per
    # pattern, small enough for |V_s|^|V_p| enumeration on tiny subjects.
    return PatternSet(mini_library(), max_variants=8)


@pytest.mark.parametrize("subject", graphs(), ids=lambda g: g.name)
@pytest.mark.parametrize("kind", list(MatchKind))
def test_matcher_is_complete(subject, kind, patterns):
    matcher = Matcher(patterns, kind)
    matcher.attach(subject)
    reference = ReferenceMatcher(patterns, kind, subject)
    for node in subject.topological():
        if node.is_pi:
            continue
        got = {m.identity() for m in matcher.matches_at(node)}
        ref = {m.identity() for m in reference.matches_at(node)}
        want = set()
        for pattern in patterns.patterns:
            if len(pattern.nodes) > 6:
                continue  # keep the brute force tractable
            want |= brute_force_matches(pattern, subject, node, kind)
        assert _small(got, patterns) == want, (subject.name, kind, node)
        assert _small(ref, patterns) == want, (subject.name, kind, node)


#: Seeded random subjects per library: 5 inputs and 12 two-input nodes
#: before decomposition, with reconvergence, hubs and deep chains.
RANDOM_SEEDS = range(60)
LIBRARIES = {"mini": mini_library, "lib2": lib2_like}


def random_subject(seed):
    return decompose_network(random_dag(FuzzConfig(
        n_inputs=5, n_nodes=12, seed=seed, fanout_skew=0.3)))


@pytest.mark.parametrize("library", sorted(LIBRARIES))
@pytest.mark.parametrize("kind", list(MatchKind))
def test_matcher_equals_reference_on_random_subjects(library, kind):
    patterns = PatternSet(LIBRARIES[library](), max_variants=8)
    # One matcher for every subject: replayed match lists are checked
    # too, not only freshly enumerated ones.
    matcher = Matcher(patterns, kind)
    for seed in RANDOM_SEEDS:
        subject = random_subject(seed)
        matcher.attach(subject)
        reference = ReferenceMatcher(patterns, kind, subject)
        for node in subject.topological():
            got = [m.identity() for m in matcher.matches_at(node)]
            want = [m.identity() for m in reference.matches_at(node)]
            assert len(got) == len(want) == len(set(want))
            assert set(got) == set(want), (library, kind, seed, node.uid)


def _small(identities, patterns):
    """The identities whose gate has a pattern the brute force covers."""
    return {i for i in identities if _pattern_size(i, patterns) <= 6}


def _pattern_size(identity, patterns):
    gate_name = identity[0]
    return min(
        len(p.nodes) for p in patterns.patterns if p.gate.name == gate_name
    )
