"""Subject graphs: NAND2-INV DAGs, the input to technology mapping.

Following Keutzer's formulation (and the paper's Section 1), both the
circuit to be mapped and every library gate are decomposed into networks of
two-input NAND gates and inverters.  The decomposed circuit is the
*subject graph*; decomposed gates are *pattern graphs*
(:mod:`repro.library.patterns` reuses the same node structure).

A :class:`SubjectGraph` keeps nodes in creation order, which is guaranteed
topological (fanins are created before fanouts).  Structural hashing merges
identical ``(type, fanins)`` nodes so the subject graph is compact; the
paper's optimality claim is *with respect to the chosen subject graph*, so
any fixed, deterministic construction is faithful.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import NetworkError

__all__ = ["NodeType", "SubjectNode", "SubjectGraph"]


class NodeType(enum.Enum):
    """Node kinds appearing in subject and pattern graphs."""

    PI = "pi"
    INV = "inv"
    NAND2 = "nand2"

    def arity(self) -> int:
        if self is NodeType.PI:
            return 0
        if self is NodeType.INV:
            return 1
        return 2


class SubjectNode:
    """One subject-graph node.

    Attributes:
        uid: dense integer id, unique within the graph, topological.
        kind: :class:`NodeType`.
        fanins: tuple of fanin nodes (empty for PIs).
        fanouts: list of reader nodes (maintained by the graph).
        name: optional signal name (PIs and nodes that drive POs get one).
    """

    __slots__ = ("uid", "kind", "fanins", "fanouts", "name")

    def __init__(
        self,
        uid: int,
        kind: NodeType,
        fanins: Tuple["SubjectNode", ...],
        name: Optional[str] = None,
    ):
        if len(fanins) != kind.arity():
            raise NetworkError(
                f"{kind.value} node must have {kind.arity()} fanins, got {len(fanins)}"
            )
        self.uid = uid
        self.kind = kind
        self.fanins = fanins
        self.fanouts: List["SubjectNode"] = []
        self.name = name

    @property
    def is_pi(self) -> bool:
        return self.kind is NodeType.PI

    def __repr__(self) -> str:
        fanins = ",".join(str(f.uid) for f in self.fanins)
        label = f" {self.name!r}" if self.name else ""
        return f"<{self.kind.value}#{self.uid}({fanins}){label}>"


class SubjectGraph:
    """A NAND2-INV DAG with named primary inputs and outputs."""

    __slots__ = ("name", "nodes", "pis", "pos", "_pi_by_name", "_strash")

    def __init__(self, name: str = "subject"):
        self.name = name
        self.nodes: List[SubjectNode] = []
        self.pis: List[SubjectNode] = []
        #: list of (po name, driver node) pairs; several POs may share a
        #: driver, and a PO may be driven by a PI directly.
        self.pos: List[Tuple[str, SubjectNode]] = []
        self._pi_by_name: Dict[str, SubjectNode] = {}
        self._strash: Dict[Tuple[NodeType, Tuple[int, ...]], SubjectNode] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_pi(self, name: str) -> SubjectNode:
        if name in self._pi_by_name:
            raise NetworkError(f"duplicate PI {name!r}")
        node = SubjectNode(len(self.nodes), NodeType.PI, (), name)
        self.nodes.append(node)
        self.pis.append(node)
        self._pi_by_name[name] = node
        return node

    def pi(self, name: str) -> SubjectNode:
        try:
            return self._pi_by_name[name]
        except KeyError:
            raise NetworkError(f"no PI named {name!r}") from None

    def add_inv(self, fanin: SubjectNode, share: bool = True) -> SubjectNode:
        return self._add(NodeType.INV, (fanin,), share)

    def add_nand2(
        self, a: SubjectNode, b: SubjectNode, share: bool = True
    ) -> SubjectNode:
        return self._add(NodeType.NAND2, (a, b), share)

    def _add(
        self, kind: NodeType, fanins: Tuple[SubjectNode, ...], share: bool
    ) -> SubjectNode:
        for fanin in fanins:
            if fanin is not self.nodes[fanin.uid]:
                raise NetworkError("fanin belongs to a different graph")
        key = None
        if share:
            ids = tuple(f.uid for f in fanins)
            if kind is NodeType.NAND2:
                ids = tuple(sorted(ids))
            key = (kind, ids)
            existing = self._strash.get(key)
            if existing is not None:
                return existing
        node = SubjectNode(len(self.nodes), kind, fanins)
        self.nodes.append(node)
        for fanin in fanins:
            fanin.fanouts.append(node)
        if key is not None:
            self._strash[key] = node
        return node

    def set_po(self, name: str, driver: SubjectNode) -> None:
        self.pos.append((name, driver))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total node count including PIs."""
        return len(self.nodes)

    @property
    def n_gates(self) -> int:
        """Internal (NAND2 + INV) node count."""
        return len(self.nodes) - len(self.pis)

    def topological(self) -> List[SubjectNode]:
        """Nodes in topological order (creation order is topological)."""
        return list(self.nodes)

    def po_drivers(self) -> List[SubjectNode]:
        return [driver for _, driver in self.pos]

    def depth(self) -> int:
        """Longest PI-to-PO path length in nodes (unit delay per gate)."""
        level = [0] * len(self.nodes)
        for node in self.nodes:
            if node.fanins:
                level[node.uid] = 1 + max(level[f.uid] for f in node.fanins)
        return max((level[d.uid] for d in self.po_drivers()), default=0)

    def transitive_fanin(self, roots: Iterable[SubjectNode]) -> List[SubjectNode]:
        """All nodes in the fanin cones of ``roots`` (roots included)."""
        seen: Dict[int, SubjectNode] = {}
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node.uid in seen:
                continue
            seen[node.uid] = node
            stack.extend(node.fanins)
        return [self.nodes[uid] for uid in sorted(seen)]

    def use_counts(self) -> List[int]:
        """Per-uid fanout-use counts: fanin edges plus PO references.

        The subject side of the exact match's out-degree condition, read
        by the matcher, the ECO keys and :meth:`multi_fanout_nodes`.
        """
        uses = [0] * len(self.nodes)
        for node in self.nodes:
            for fanin in node.fanins:
                uses[fanin.uid] += 1
        for _, driver in self.pos:
            uses[driver.uid] += 1
        return uses

    def multi_fanout_nodes(self) -> List[SubjectNode]:
        """Internal nodes with fanout >= 2 (the tree-decomposition cut points)."""
        uses = self.use_counts()
        return [n for n in self.nodes if not n.is_pi and uses[n.uid] >= 2]

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, inputs: Dict[str, int], mask: int) -> Dict[str, int]:
        """Bit-parallel simulation; returns PO name -> packed word."""
        values: List[int] = [0] * len(self.nodes)
        for pi in self.pis:
            if pi.name not in inputs:
                raise NetworkError(f"missing input word for {pi.name!r}")
            values[pi.uid] = inputs[pi.name] & mask
        for node in self.nodes:
            if node.kind is NodeType.INV:
                values[node.uid] = ~values[node.fanins[0].uid] & mask
            elif node.kind is NodeType.NAND2:
                a, b = node.fanins
                values[node.uid] = ~(values[a.uid] & values[b.uid]) & mask
        return {name: values[driver.uid] for name, driver in self.pos}

    def stats(self) -> Dict[str, int]:
        inv = sum(1 for n in self.nodes if n.kind is NodeType.INV)
        nand = sum(1 for n in self.nodes if n.kind is NodeType.NAND2)
        return {
            "pis": len(self.pis),
            "pos": len(self.pos),
            "inv": inv,
            "nand2": nand,
            "gates": inv + nand,
            "depth": self.depth(),
            "multi_fanout": len(self.multi_fanout_nodes()),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"SubjectGraph({self.name!r}, pis={s['pis']}, pos={s['pos']}, "
            f"gates={s['gates']}, depth={s['depth']})"
        )
