"""Conventional tree covering: the baseline the paper compares against.

Keutzer's three-step approach — (1) break the subject DAG into a forest at
multi-fanout points, (2) map each tree optimally by dynamic programming,
(3) glue — is equivalent to labeling the whole DAG with *exact* matches
(Definition 2): exact matches are precisely the matches whose interiors
stay inside one fanout-free region, so the DP never crosses a tree
boundary and every multi-fanout node presents its own mapped arrival to
its consumers.  No subject node is ever duplicated.

Both objectives from the literature are provided: minimum delay
(Rudell/Touati — used in the paper's Tables 1-3) and minimum area
(Keutzer's original), where tree leaves are cost boundaries.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Union

from repro.core import dag_mapper
from repro.core.match import Matcher, MatchKind
from repro.core.result import MappingResult
from repro.library.gate import GateLibrary
from repro.library.patterns import PatternSet
from repro.network.subject import SubjectGraph

__all__ = ["map_tree", "tree_roots"]


def tree_roots(subject: SubjectGraph) -> Set[int]:
    """Uids of tree roots: PO drivers and multi-fanout nodes.

    These are the points where the conventional flow cuts the DAG into a
    forest of fanout-free trees.
    """
    roots = {driver.uid for _, driver in subject.pos}
    roots.update(node.uid for node in subject.multi_fanout_nodes())
    return roots


def map_tree(
    subject: SubjectGraph,
    library: Union[GateLibrary, PatternSet],
    arrival_times: Optional[Dict[str, float]] = None,
    objective: str = "delay",
    max_variants: int = 16,
    matcher: Optional[Matcher] = None,
    check: bool = False,
) -> MappingResult:
    """Map via conventional tree covering (exact matches, no duplication).

    ``matcher`` shares or selects the matcher exactly as in
    :func:`repro.core.dag_mapper.map_dag` (it must use EXACT matches),
    and ``check=True`` certifies the result the same way (the report
    lands on ``result.certificate``; errors raise ``CertificateError``).
    """
    boundary: Optional[Set[int]] = None
    if objective == "area":
        boundary = tree_roots(subject) | {pi.uid for pi in subject.pis}
    return dag_mapper._map(
        subject, library, "tree", MatchKind.EXACT, arrival_times, objective,
        max_variants, matcher, check, boundary_uids=boundary,
    )
