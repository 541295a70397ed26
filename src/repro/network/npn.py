"""NPN canonicalisation of small Boolean functions.

Two functions are NPN-equivalent when one becomes the other under some
input Negation, input Permutation and output Negation.  Gate libraries
are naturally organised by NPN class (all bracketings/phases of the same
class share mapping behaviour), and the canonical form gives a cheap
library fingerprint: :func:`npn_classes` reports how many genuinely
different functions a library offers — e.g. the 44-3 replica's hundreds
of gates collapse to far fewer classes, quantifying its redundancy.

The canonical form is the lexicographically smallest image over all
``2^n * n! * 2`` transforms, found by exhaustive search, intended for
the n <= 6 functions that appear as library gates.  Nothing is cached:
the callers (library lint L004, ``repro-map libstats``, the tests)
canonicalise a library's worth of functions at most.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, Iterable, List, NamedTuple, Tuple

from repro.network.functions import TruthTable, negate_inputs_bits, permute_bits

__all__ = [
    "NPNTransform",
    "apply_transform",
    "npn_canonical",
    "npn_classes",
    "npn_equivalent",
]

_MAX_VARS = 6


class NPNTransform(NamedTuple):
    """The transform mapping a function onto its canonical form.

    canonical(x_0..x_{n-1}) =
        output_negate XOR f(y_0..y_{n-1}) where
        y_i = x_{perm[i]} XOR input_negations bit i
    (the convention pinned by the per-minterm oracle :func:`_apply_scalar`).
    """

    perm: Tuple[int, ...]
    input_negations: int
    output_negate: bool


def _apply(tt: TruthTable, perm: Tuple[int, ...], neg: int, out_neg: bool) -> int:
    """Bits of the transformed function (see :class:`NPNTransform`).

    Packed formulation: transformed[a] = tt[m(a) ^ neg] with
    ``m(a)_i = a_{perm[i]}``, i.e. input negation then word permutation,
    byte-identical to per-minterm evaluation (pinned by the scalar
    reference :func:`_apply_scalar` in the differential tests).
    """
    n = tt.n_vars
    bits = permute_bits(negate_inputs_bits(tt.bits, neg, n), perm, n)
    if out_neg:
        bits ^= (1 << (1 << n)) - 1
    return bits


def _apply_scalar(
    tt: TruthTable, perm: Tuple[int, ...], neg: int, out_neg: bool
) -> int:
    """Per-minterm reference implementation of :func:`_apply` (the oracle)."""
    n = tt.n_vars
    bits = 0
    for assignment in range(1 << n):
        original = 0
        for i in range(n):
            bit = (assignment >> perm[i]) & 1
            bit ^= (neg >> i) & 1
            original |= bit << i
        value = tt.evaluate(original) ^ int(out_neg)
        bits |= value << assignment
    return bits


def apply_transform(transform: NPNTransform, tt: TruthTable) -> TruthTable:
    """The image of ``tt`` under ``transform`` (see :class:`NPNTransform`)."""
    return TruthTable(
        tt.n_vars,
        _apply(
            tt, transform.perm, transform.input_negations,
            transform.output_negate,
        ),
    )


def npn_canonical(tt: TruthTable) -> Tuple[TruthTable, NPNTransform]:
    """The lexicographically-smallest NPN representative of ``tt``.

    Returns the canonical table and the first transform (in
    perm/negation/output-negation order) achieving it.
    """
    n = tt.n_vars
    if n > _MAX_VARS:
        raise ValueError(f"NPN canonicalisation limited to {_MAX_VARS} inputs")
    best_bits = None
    best: NPNTransform | None = None
    for perm in permutations(range(n)):
        for neg in range(1 << n):
            for out_neg in (False, True):
                bits = _apply(tt, perm, neg, out_neg)
                if best_bits is None or bits < best_bits:
                    best_bits = bits
                    best = NPNTransform(perm, neg, out_neg)
    assert best is not None and best_bits is not None
    return TruthTable(n, best_bits), best


def npn_equivalent(a: TruthTable, b: TruthTable) -> bool:
    """True when the functions are NPN-equivalent (same input count)."""
    if a.n_vars != b.n_vars:
        return False
    return npn_canonical(a)[0] == npn_canonical(b)[0]


def npn_classes(tables: Iterable[TruthTable]) -> Dict[TruthTable, List[int]]:
    """Group functions by NPN class.

    Returns canonical table -> indices of the inputs belonging to it.
    """
    classes: Dict[TruthTable, List[int]] = {}
    for index, tt in enumerate(tables):
        canonical, _ = npn_canonical(tt)
        classes.setdefault(canonical, []).append(index)
    return classes
