"""Bit-parallel Boolean kernel: the big-int truth-table engine.

Every circuit representation in this package — Boolean networks, subject
graphs, mapped netlists, LUT networks, expression ASTs and library
pattern graphs — can be evaluated over *packed words*: Python big-ints
holding one function value per bit lane.  This module is the single
kernel behind all of them.  One topological pass computes either

* the full packed truth table of every output (``<= 16`` primary
  inputs: the lanes enumerate all ``2**n`` assignments in minterm order,
  so an output word *is* a :class:`~repro.network.functions.TruthTable`),
  or
* a seeded random-vector batch (beyond 16 inputs; width configurable via
  ``REPRO_SIM_VECTORS`` / ``REPRO_SIM_SEED`` or keyword arguments).

The per-vector *scalar* engine is retained behind ``engine='scalar'`` as
the reference oracle: it re-runs the same adapter once per lane with a
one-bit mask (dict-based scalar simulation), and the differential
property tests pin the two engines bit-for-bit together.  Consumers —
:mod:`repro.network.simulate` equivalence, :mod:`repro.check`
certificates and library lint, the matcher's EXTENDED-match cross-check
— all sit on top of this module.

Every kernel invocation is accounted in :data:`SIM_STATS`
(:class:`repro.perf.counters.SimStats`), which the experiment harness
snapshots into per-run ``sim_vectors_per_sec`` counters.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import env
from repro.errors import EnvVarError, NetworkError
from repro.network.bnet import BooleanNetwork
from repro.network.expr import Expr
from repro.network.functions import TruthTable, variable_bits
from repro.network.subject import NodeType, SubjectGraph, SubjectNode
from repro.perf.counters import SimStats

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "DEFAULT_VECTORS",
    "DEFAULT_SEED",
    "SIM_STATS",
    "SimObject",
    "adapt",
    "configured_vectors",
    "configured_seed",
    "exhaustive_words",
    "random_words",
    "simulate_words",
    "truth_tables",
    "cone_words",
    "pattern_table",
]

#: Above this many inputs the full truth table no longer fits a sane
#: big-int (2**16 lanes = 64 kbit words); callers fall back to random
#: batches.
EXHAUSTIVE_LIMIT = 16

#: Random-batch width when no override is given (one 4096-lane word).
DEFAULT_VECTORS = 4096

#: PRNG seed when no override is given.
DEFAULT_SEED = 2024

#: Process-wide kernel counters (snapshot around a run for deltas).
SIM_STATS = SimStats()


def configured_vectors(override: Optional[int] = None) -> int:
    """Random-batch width: explicit override > ``REPRO_SIM_VECTORS`` > default."""
    if override is not None:
        return override
    try:
        value = env.read_int("REPRO_SIM_VECTORS")
    except EnvVarError as exc:
        raise NetworkError(str(exc)) from exc
    if value is not None:
        if value <= 0:
            raise NetworkError(f"REPRO_SIM_VECTORS must be positive, got {value}")
        return value
    return DEFAULT_VECTORS


def configured_seed(override: Optional[int] = None) -> int:
    """PRNG seed: explicit override > ``REPRO_SIM_SEED`` > default."""
    if override is not None:
        return override
    try:
        value = env.read_int("REPRO_SIM_SEED")
    except EnvVarError as exc:
        raise NetworkError(str(exc)) from exc
    return DEFAULT_SEED if value is None else value


# ----------------------------------------------------------------------
# Adapters: one uniform view of every simulatable object
# ----------------------------------------------------------------------


@dataclass
class SimObject:
    """Uniform simulation view: input/output names plus a packed runner.

    ``run(words, mask)`` takes one packed word per input name and returns
    one packed word per output name, evaluated in a single topological
    pass (the packed engine calls it once; the scalar oracle calls it
    once per lane with ``mask=1``).
    """

    inputs: List[str]
    outputs: List[str]
    run: Callable[[Dict[str, int], int], Dict[str, int]]


def _adapt_expr(expr: Expr) -> SimObject:
    names = expr.support()

    def run(words: Dict[str, int], mask: int) -> Dict[str, int]:
        return {"out": expr.eval_words(words, mask) & mask}

    return SimObject(list(names), ["out"], run)


def _adapt_pattern(pattern: Any) -> SimObject:
    gate = pattern.gate

    def run(words: Dict[str, int], mask: int) -> Dict[str, int]:
        return {"out": _pattern_word(pattern, words, mask)}

    return SimObject(list(gate.inputs), ["out"], run)


def _pattern_word(pattern: Any, words: Dict[str, int], mask: int) -> int:
    """One packed pass over a pattern graph's NAND2-INV nodes."""
    values: Dict[int, int] = {}
    for node in pattern.nodes:  # topological, leaves first
        if node.is_leaf:
            values[node.uid] = words.get(node.pin, 0) & mask
        elif node.kind is NodeType.INV:
            values[node.uid] = ~values[node.fanins[0].uid] & mask
        else:
            a, b = node.fanins
            values[node.uid] = ~(values[a.uid] & values[b.uid]) & mask
    return values[pattern.root.uid]


def adapt(obj: Any) -> SimObject:
    """Build the uniform simulation view of any simulatable object.

    Supports :class:`BooleanNetwork`, :class:`SubjectGraph`,
    :class:`~repro.network.expr.Expr`, library pattern graphs, and any
    object implementing the ``sim_inputs``/``sim_outputs``/``simulate``
    protocol (mapped netlists, LUT networks).
    """
    if isinstance(obj, SimObject):
        return obj
    if isinstance(obj, BooleanNetwork):
        ins = obj.combinational_inputs()
        outs = obj.combinational_outputs()

        def run(words: Dict[str, int], mask: int) -> Dict[str, int]:
            values = obj.simulate(words, mask)
            return {name: values[name] for name in outs}

        return SimObject(ins, outs, run)
    if isinstance(obj, SubjectGraph):
        ins = [pi.name for pi in obj.pis]
        outs = [name for name, _ in obj.pos]
        return SimObject(ins, outs, obj.simulate)
    if isinstance(obj, Expr):
        return _adapt_expr(obj)
    if hasattr(obj, "sim_inputs") and hasattr(obj, "sim_outputs"):
        return SimObject(
            list(obj.sim_inputs()), list(obj.sim_outputs()), obj.simulate
        )
    if hasattr(obj, "gate") and hasattr(obj, "root") and hasattr(obj, "nodes"):
        return _adapt_pattern(obj)
    raise NetworkError(f"cannot simulate object of type {type(obj).__name__}")


# ----------------------------------------------------------------------
# Input-word construction
# ----------------------------------------------------------------------


def exhaustive_words(names: Sequence[str]) -> Tuple[Dict[str, int], int]:
    """Tiling words enumerating all ``2**n`` assignments, plus the lane mask.

    Input ``names[i]`` carries the period-``2**i`` tiling pattern, so lane
    ``a`` of every word holds assignment ``a`` in minterm order and an
    output word is the truth table over ``names`` order.
    """
    n = len(names)
    if n > EXHAUSTIVE_LIMIT:
        raise NetworkError(
            f"{n} inputs is too many for exhaustive simulation "
            f"(limit {EXHAUSTIVE_LIMIT})"
        )
    mask = (1 << (1 << n)) - 1
    return {name: variable_bits(i, n) for i, name in enumerate(names)}, mask


def random_words(
    names: Sequence[str],
    vectors: Optional[int] = None,
    seed: Optional[int] = None,
) -> Tuple[Dict[str, int], int]:
    """One seeded random word per input, ``vectors`` lanes wide."""
    width = configured_vectors(vectors)
    rng = random.Random(configured_seed(seed))
    mask = (1 << width) - 1
    return {name: rng.getrandbits(width) for name in names}, mask


# ----------------------------------------------------------------------
# The engines
# ----------------------------------------------------------------------


def _scalar_run(
    sim: SimObject, words: Dict[str, int], mask: int
) -> Dict[str, int]:
    """The reference oracle: one full evaluation pass per active lane."""
    outs = {name: 0 for name in sim.outputs}
    lanes = mask
    while lanes:
        lane = (lanes & -lanes).bit_length() - 1
        lanes &= lanes - 1
        env = {name: (words.get(name, 0) >> lane) & 1 for name in sim.inputs}
        result = sim.run(env, 1)
        for name in sim.outputs:
            outs[name] |= (result[name] & 1) << lane
    return outs


def simulate_words(
    obj: Any,
    words: Dict[str, int],
    mask: int,
    engine: str = "packed",
) -> Dict[str, int]:
    """Evaluate ``obj`` over packed input words; returns output words.

    ``engine='packed'`` runs one topological pass over big-int words;
    ``engine='scalar'`` runs the per-vector reference oracle.  Both
    return bit-identical words (the differential tests enforce it).
    """
    sim = adapt(obj)
    if engine not in ("packed", "scalar"):
        raise ValueError(f"unknown simulation engine {engine!r}")
    start = time.perf_counter()
    if engine == "packed":
        out = sim.run(words, mask)
    else:
        out = _scalar_run(sim, words, mask)
    SIM_STATS.record(
        vectors=bin(mask).count("1"),
        seconds=time.perf_counter() - start,
        scalar=engine == "scalar",
    )
    return {name: out[name] & mask for name in sim.outputs}


def truth_tables(
    obj: Any, engine: str = "packed"
) -> Tuple[List[str], Dict[str, TruthTable]]:
    """Full truth tables of every output, in one packed pass.

    Returns the input-name order the tables are expressed over and a map
    from output name to its :class:`TruthTable`.  Limited to
    :data:`EXHAUSTIVE_LIMIT` inputs.
    """
    sim = adapt(obj)
    words, mask = exhaustive_words(sim.inputs)
    out = simulate_words(sim, words, mask, engine=engine)
    n = len(sim.inputs)
    return list(sim.inputs), {
        name: TruthTable(n, word) for name, word in out.items()
    }


# ----------------------------------------------------------------------
# Cone and pattern evaluation (matcher / library-lint helpers)
# ----------------------------------------------------------------------


def cone_words(
    root: SubjectNode, leaf_words: Dict[int, int], mask: int
) -> int:
    """Packed word of a subject cone, stopping at the given leaf nodes.

    ``leaf_words`` maps subject uid -> packed word for every cone leaf;
    the walk from ``root`` must terminate on those leaves (reaching a
    primary input outside the leaf set is an error — the cone is not
    closed).  The match tests use it to check that an EXTENDED match's
    cone really computes its gate's function.
    """
    memo: Dict[int, int] = dict(leaf_words)

    def value(node: SubjectNode) -> int:
        word = memo.get(node.uid)
        if word is not None:
            return word
        if node.kind is NodeType.INV:
            word = ~value(node.fanins[0]) & mask
        elif node.kind is NodeType.NAND2:
            a, b = node.fanins
            word = ~(value(a) & value(b)) & mask
        else:
            raise NetworkError(
                f"cone evaluation reached node {node.uid} "
                f"({node.kind.value}) outside the leaf set"
            )
        memo[node.uid] = word
        return word

    return value(root)


def pattern_table(pattern: Any, inputs: Sequence[str]) -> TruthTable:
    """Exhaustive truth table of a pattern graph over ``inputs`` order.

    One packed pass over the pattern's NAND2-INV nodes using the shared
    cached tiling words; the library linter's L003 round trip and the
    pattern adapters both use it.
    """
    words, mask = exhaustive_words(inputs)
    start = time.perf_counter()
    bits = _pattern_word(pattern, words, mask)
    SIM_STATS.record(
        vectors=bin(mask).count("1"), seconds=time.perf_counter() - start
    )
    return TruthTable(len(inputs), bits)
