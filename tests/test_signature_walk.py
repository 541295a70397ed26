"""``cone_signature``'s flat walks equal the recursive walk they replace.

The signature keys the matcher's template cache and the ECO keys, and its
cone order is the rebinding map of every replayed or spliced match, so
the explicit-stack preorder must reproduce the recursive DFS exactly:
the same tokens and the same cone nodes in the same order.  The
recursive version is kept here, test-only, as the reference; the check
covers every node of the Table-2/3 circuits at the depth limits of their
pattern sets (44-1 at 8 variants, 44-3 at 4), with and without use
counts.
"""

import pytest

from repro.bench.suite import TABLE23_NAMES, get_circuit
from repro.library.builtin import lib44_1, lib44_3
from repro.library.patterns import PatternSet
from repro.network.decompose import decompose_network
from repro.network.subject import NodeType
from repro.perf.signature import _CUT, _INV, _NAND2, _PI, _USE_BASE, cone_signature


def recursive_cone_signature(root, depth_limit, uses=None, use_cap=0):
    """The recursive two-pass walk ``cone_signature`` used to be."""
    min_depth = {id(root): 0}
    frontier = [root]
    for d in range(depth_limit):
        nxt = []
        for node in frontier:
            if node.kind is NodeType.PI:
                continue
            for fanin in node.fanins:
                if id(fanin) not in min_depth:
                    min_depth[id(fanin)] = d + 1
                    nxt.append(fanin)
        if not nxt:
            break
        frontier = nxt

    tokens, nodes, index = [], [], {}

    def visit(node, is_root):
        local = index.get(id(node))
        if local is not None:
            tokens.append(-1 - local)
            return
        index[id(node)] = len(nodes)
        nodes.append(node)
        if min_depth[id(node)] >= depth_limit:
            tokens.append(_CUT)
            return
        if node.kind is NodeType.PI:
            tokens.append(_PI)
            return
        tokens.append(_INV if node.kind is NodeType.INV else _NAND2)
        if uses is not None and not is_root:
            tokens.append(_USE_BASE + min(uses[node.uid], use_cap))
        for fanin in node.fanins:
            visit(fanin, False)

    visit(root, True)
    del visit
    return tuple(tokens), nodes


@pytest.fixture(scope="module")
def limits():
    """(max_depth, use_cap) of the Table-2 and Table-3 pattern sets."""
    return [
        (patterns.max_depth, patterns.use_cap)
        for patterns in (PatternSet(lib44_1(), 8), PatternSet(lib44_3(), 4))
    ]


@pytest.mark.parametrize("name", TABLE23_NAMES)
def test_flat_walk_equals_recursive_walk(name, limits):
    subject = decompose_network(get_circuit(name))
    uses = subject.use_counts()
    for depth, use_cap in limits:
        for counts in (None, uses):
            for node in subject.nodes:
                tokens, cone = cone_signature(node, depth, counts, use_cap)
                want_tokens, want_cone = recursive_cone_signature(
                    node, depth, counts, use_cap
                )
                assert tokens == want_tokens, (name, node.uid, depth)
                assert len(cone) == len(want_cone)
                assert all(a is b for a, b in zip(cone, want_cone))
