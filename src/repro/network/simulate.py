"""Equivalence checking on top of the bit-parallel kernel.

All circuit representations in this package (Boolean networks, subject
graphs, mapped netlists, LUT networks) are evaluated through
:mod:`repro.network.bitsim`: one topological pass over packed big-int
words — the full ``2**n``-lane truth-table batch up to
:data:`~repro.network.bitsim.EXHAUSTIVE_LIMIT` inputs, a seeded random
batch beyond.  An equivalence check is then a single XOR per common
output; the counterexample is read off the first set bit of the
difference word.

The per-vector scalar engine is retained behind ``engine='scalar'`` as
the reference oracle — it produces bit-identical difference words, hence
identical counterexamples (the differential property tests pin this).
The random batch width and seed follow ``REPRO_SIM_VECTORS`` /
``REPRO_SIM_SEED`` (:func:`~repro.network.bitsim.configured_vectors`,
:func:`~repro.network.bitsim.configured_seed`) unless given explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import NetworkError
from repro.network import bitsim
from repro.network.bitsim import EXHAUSTIVE_LIMIT as _EXHAUSTIVE_LIMIT
from repro.network.bitsim import SimObject

__all__ = [
    "Counterexample",
    "simulate_outputs",
    "random_equivalence",
    "exhaustive_equivalence",
    "check_equivalent",
    "input_names",
    "output_names",
]


@dataclass
class Counterexample:
    """A distinguishing input assignment found by an equivalence check."""

    assignment: Dict[str, int]
    output: str
    value_a: int
    value_b: int

    def __str__(self) -> str:
        bits = ", ".join(f"{k}={v}" for k, v in sorted(self.assignment.items()))
        return (
            f"output {self.output!r} differs ({self.value_a} vs {self.value_b}) "
            f"on [{bits}]"
        )


def input_names(obj: Any) -> List[str]:
    """Combinational input names of any supported circuit object."""
    return bitsim.adapt(obj).inputs


def output_names(obj: Any) -> List[str]:
    """Combinational output names of any supported circuit object."""
    return bitsim.adapt(obj).outputs


def simulate_outputs(obj: Any, inputs: Dict[str, int], mask: int) -> Dict[str, int]:
    """Simulate any supported circuit object; returns output name -> word."""
    return bitsim.simulate_words(obj, inputs, mask)


def _compare(
    ins: Sequence[str],
    outs_common: Sequence[str],
    sim_a: SimObject,
    sim_b: SimObject,
    words: Dict[str, int],
    mask: int,
    engine: str,
) -> Optional[Counterexample]:
    res_a = bitsim.simulate_words(sim_a, words, mask, engine=engine)
    res_b = bitsim.simulate_words(sim_b, words, mask, engine=engine)
    for name in outs_common:
        diff = (res_a[name] ^ res_b[name]) & mask
        if diff:
            lane = (diff & -diff).bit_length() - 1
            assignment = {k: (words[k] >> lane) & 1 for k in ins}
            return Counterexample(
                assignment,
                name,
                (res_a[name] >> lane) & 1,
                (res_b[name] >> lane) & 1,
            )
    return None


def _align(a: Any, b: Any) -> Tuple[List[str], List[str], SimObject, SimObject]:
    sim_a = bitsim.adapt(a)
    sim_b = bitsim.adapt(b)
    ins_a, ins_b = sim_a.inputs, sim_b.inputs
    if set(ins_a) != set(ins_b):
        raise NetworkError(
            "input mismatch: "
            f"only-a={sorted(set(ins_a) - set(ins_b))}, "
            f"only-b={sorted(set(ins_b) - set(ins_a))}"
        )
    common = [name for name in sim_a.outputs if name in set(sim_b.outputs)]
    if not common:
        raise NetworkError("no common outputs to compare")
    return ins_a, common, sim_a, sim_b


def random_equivalence(
    a: Any,
    b: Any,
    vectors: Optional[int] = None,
    seed: Optional[int] = None,
    engine: str = "packed",
) -> Optional[Counterexample]:
    """Random-batch equivalence check; None means no difference found.

    One seeded batch of ``vectors`` lanes (``REPRO_SIM_VECTORS`` /
    ``REPRO_SIM_SEED`` supply the defaults) plus the all-0 / all-1
    corner probes, evaluated in one pass per circuit.
    """
    ins, outs, sim_a, sim_b = _align(a, b)
    words, mask = bitsim.random_words(ins, vectors=vectors, seed=seed)
    cex = _compare(ins, outs, sim_a, sim_b, words, mask, engine)
    if cex is not None:
        return cex
    # Also probe the all-0 / all-1 corners, cheap and often revealing.
    for fill in (0, mask):
        corner = {name: fill for name in ins}
        cex = _compare(ins, outs, sim_a, sim_b, corner, mask, engine)
        if cex is not None:
            return cex
    return None


def exhaustive_equivalence(
    a: Any, b: Any, engine: str = "packed"
) -> Optional[Counterexample]:
    """Exhaustive equivalence for circuits with at most 16 inputs.

    Simulates all ``2**n`` assignments in a single pass using one wide
    tiling word per input, then XORs the packed output tables.
    """
    ins, outs, sim_a, sim_b = _align(a, b)
    words, mask = bitsim.exhaustive_words(ins)
    return _compare(ins, outs, sim_a, sim_b, words, mask, engine)


def check_equivalent(
    a: Any,
    b: Any,
    vectors: Optional[int] = None,
    seed: Optional[int] = None,
    engine: str = "packed",
) -> None:
    """Assert equivalence; exhaustive when small, random otherwise.

    Raises :class:`NetworkError` with the counterexample on mismatch.
    """
    if len(input_names(a)) <= _EXHAUSTIVE_LIMIT:
        cex = exhaustive_equivalence(a, b, engine=engine)
    else:
        cex = random_equivalence(a, b, vectors=vectors, seed=seed, engine=engine)
    if cex is not None:
        raise NetworkError(f"circuits differ: {cex}")
