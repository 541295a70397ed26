"""Property tests: cone signatures are sound on random subject graphs.

Soundness means equal signatures imply isomorphic match sets, so a match
computed at one root can be replayed at any same-signature root by leaf
rebinding and remain valid.  Checked three ways on Hypothesis-generated
networks (the :mod:`tests.test_property_infrastructure` generators):

* every match the matcher returns — replayed or not — passes the
  independent :func:`repro.core.match.verify_match` oracle;
* per node, the matcher's identity set equals the certificate's
  reference enumerator's
  (:class:`repro.check.reference_match.ReferenceMatcher`, which has no
  cross-node cache at all);
* nodes that share a signature get the same matches from the reference
  enumerator alone, through the cone's canonical positions, i.e.
  distinct cones never alias into one cache entry.
"""

from hypothesis import given

from repro.check.reference_match import ReferenceMatcher
from repro.core.match import Matcher, MatchKind, verify_match
from repro.library.builtin import lib44_1
from repro.library.patterns import PatternSet
from repro.network.decompose import decompose_network
from repro.perf.signature import cone_signature
from tests.test_property_infrastructure import random_networks

_PATTERNS = PatternSet(lib44_1(), max_variants=4)
_KINDS = (MatchKind.STANDARD, MatchKind.EXACT, MatchKind.EXTENDED)


def _match_shape(match, position):
    """A match's identity with leaves named by cone position, so that
    matches at different roots compare."""
    gate, _, leaves = match.identity()
    return gate, frozenset((cls, position[uid]) for cls, uid in leaves)


@given(random_networks())
def test_cached_matches_verify_and_equal_seed(net):
    subject = decompose_network(net)
    for kind in _KINDS:
        cached = Matcher(_PATTERNS, kind)
        cached.attach(subject)
        reference = ReferenceMatcher(_PATTERNS, kind, subject)
        for node in subject.topological():
            if node.is_pi:
                continue
            fast = cached.matches_at(node)
            want = reference.matches_at(node)
            assert len(fast) == len(want)
            assert {m.identity() for m in fast} == {
                m.identity() for m in want
            }
            for match in fast:
                assert match.root is node
                assert verify_match(match, subject, kind).ok


@given(random_networks())
def test_equal_signatures_never_alias(net):
    """Signature equality implies isomorphic reference match sets."""
    subject = decompose_network(net)
    reference = ReferenceMatcher(_PATTERNS, MatchKind.STANDARD, subject)
    by_signature = {}
    for node in subject.topological():
        if node.is_pi:
            continue
        signature, cone = cone_signature(node, _PATTERNS.max_depth)
        assert cone[0] is node
        position = {cone_node.uid: pos for pos, cone_node in enumerate(cone)}
        shapes = frozenset(
            _match_shape(m, position) for m in reference.matches_at(node)
        )
        if signature in by_signature:
            other_node, other_shapes = by_signature[signature]
            assert shapes == other_shapes, (
                f"cones at {node!r} and {other_node!r} share a signature "
                f"but match differently"
            )
        else:
            by_signature[signature] = (node, shapes)
