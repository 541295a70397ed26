"""NPN canonicalisation of small Boolean functions.

Two functions are NPN-equivalent when one becomes the other under some
input Negation, input Permutation and output Negation.  Gate libraries
are naturally organised by NPN class (all bracketings/phases of the same
class share mapping behaviour), and the canonical form gives a cheap
library fingerprint: :func:`npn_classes` reports how many genuinely
different functions a library offers — e.g. the 44-3 replica's hundreds
of gates collapse to far fewer classes, quantifying its redundancy.

The enumeration is exhaustive (``2^n * n! * 2`` transforms), intended for
the n <= 6 functions that appear as library gates.  Because the library
NPN table (:mod:`repro.library.npn_table`) canonicalises one function
per pattern level and per cell, :func:`npn_canonical` is memoized behind
a process-wide cache keyed on ``(n, bits)``:

* for n <= 4 a miss *orbit-fills* the memo — every transform image of the
  queried function shares its class, so one exhaustive search stores the
  entire NPN orbit (at most ``2 * 2^n * n!`` entries).  The number of
  exhaustive searches is then bounded by the number of distinct classes
  ever encountered (222 for n = 4), not the number of distinct functions;
* for n >= 5 orbits are too large to enumerate eagerly, so entries go
  into a bounded LRU.

Cache telemetry accumulates in :data:`NPN_STATS` (a
:class:`repro.perf.counters.NPNStats`).  Memoized answers return the
same canonical table as a fresh search; the accompanying transform is
*a* transform achieving it (for orbit-filled entries, the composition of
the orbit walk with the representative's transform), not necessarily the
search's first-found one — every consumer, including the library NPN
table, only relies on validity, which the transform algebra below makes
checkable: ``apply_transform(t, f) == canonical``.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import permutations
from typing import Dict, Iterable, List, NamedTuple, Tuple

from repro.network.functions import (
    TruthTable,
    invert_permutation,
    negate_inputs_bits,
    permute_bits,
)
from repro.perf.counters import NPNStats

__all__ = [
    "NPNTransform",
    "NPN_STATS",
    "apply_transform",
    "clear_npn_cache",
    "compose_transforms",
    "invert_transform",
    "npn_canonical",
    "npn_classes",
    "npn_equivalent",
]

_MAX_VARS = 6

#: Orbit filling is worthwhile while an orbit (<= 2 * 2^n * n!) is small
#: against the function space (2^2^n): up to n = 4.
_ORBIT_FILL_MAX_VARS = 4

#: Bound on memo entries for n >= 5 functions (LRU beyond this).
_LRU_MAX = 4096

#: Process-wide canonicalisation counters (see module docstring).
NPN_STATS = NPNStats()


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


# ----------------------------------------------------------------------
# Transform algebra
# ----------------------------------------------------------------------


def apply_transform(transform: NPNTransform, tt: TruthTable) -> TruthTable:
    """The image of ``tt`` under ``transform`` (see :class:`NPNTransform`)."""
    return TruthTable(
        tt.n_vars,
        _apply(
            tt, transform.perm, transform.input_negations,
            transform.output_negate,
        ),
    )


def invert_transform(transform: NPNTransform) -> NPNTransform:
    """The inverse transform: ``apply(invert(t), apply(t, f)) == f``.

    With ``g(x) = out ^ f(y)``, ``y_i = x_{perm[i]} ^ neg_i``, solving for
    ``f`` gives ``f(y) = out ^ g(x)`` with ``x_j = y_{perm'[j]} ^ neg'_j``
    where ``perm'`` is the inverse permutation and ``neg'_j = neg_{perm'[j]}``
    (the original negation of the position that lands on ``j``).
    """
    inv_perm = tuple(invert_permutation(transform.perm))
    neg = 0
    for j, source in enumerate(inv_perm):
        neg |= ((transform.input_negations >> source) & 1) << j
    return NPNTransform(inv_perm, neg, transform.output_negate)


def compose_transforms(after: NPNTransform, before: NPNTransform) -> NPNTransform:
    """The transform applying ``before`` first, then ``after``.

    ``apply(compose(a, b), f) == apply(a, apply(b, f))`` for every ``f``
    (pinned by the property tests).
    """
    a_perm, a_neg, a_out = after
    b_perm, b_neg, b_out = before
    perm = tuple(a_perm[b_perm[j]] for j in range(len(a_perm)))
    neg = 0
    for j in range(len(a_perm)):
        bit = ((a_neg >> b_perm[j]) & 1) ^ ((b_neg >> j) & 1)
        neg |= bit << j
    return NPNTransform(perm, neg, a_out ^ b_out)


# ----------------------------------------------------------------------
# Canonicalisation (memoized)
# ----------------------------------------------------------------------

#: (n, bits) -> (canonical bits, transform achieving it).  Orbit-filled
#: entries (n <= 4) are permanent — their total count is bounded by the
#: function space; n >= 5 entries live in LRU order (moved on hit).
_memo: "OrderedDict[Tuple[int, int], Tuple[int, NPNTransform]]" = OrderedDict()
_lru_entries = 0


def clear_npn_cache() -> None:
    """Drop every memoized canonicalisation (tests and benchmarks)."""
    global _lru_entries
    _memo.clear()
    _lru_entries = 0


def _canonical_search(tt: TruthTable) -> Tuple[int, NPNTransform]:
    """The exhaustive ``2^n * n! * 2`` search (the unmemoized reference)."""
    best_bits = None
    best: NPNTransform | None = None
    n = tt.n_vars
    for perm in permutations(range(n)):
        for neg in range(1 << n):
            for out_neg in (False, True):
                bits = _apply(tt, perm, neg, out_neg)
                if best_bits is None or bits < best_bits:
                    best_bits = bits
                    best = NPNTransform(perm, neg, out_neg)
    assert best is not None and best_bits is not None
    return best_bits, best


def npn_canonical(tt: TruthTable) -> Tuple[TruthTable, NPNTransform]:
    """The lexicographically-smallest NPN representative of ``tt``.

    Returns the canonical table and one transform achieving it.  Memoized
    process-wide (see the module docstring); counters in :data:`NPN_STATS`.
    """
    global _lru_entries
    n = tt.n_vars
    if n > _MAX_VARS:
        raise ValueError(f"NPN canonicalisation limited to {_MAX_VARS} inputs")
    key = (n, tt.bits)
    cached = _memo.get(key)
    if cached is not None:
        NPN_STATS.hits += 1
        canonical_bits, transform = cached
        if n > _ORBIT_FILL_MAX_VARS:
            _memo.move_to_end(key)
        return TruthTable(n, canonical_bits), transform
    NPN_STATS.misses += 1
    canonical_bits, transform = _canonical_search(tt)
    if n <= _ORBIT_FILL_MAX_VARS:
        # Orbit filling: every image g = T(f) of f shares the class, and
        # canonical = B(f) = B(T^-1(g)) makes compose(B, invert(T)) a
        # valid transform for g.  One search stores the whole orbit.
        full = (1 << (1 << n)) - 1
        bits = tt.bits
        before = len(_memo)
        for perm in permutations(range(n)):
            inv_perm = tuple(invert_permutation(perm))
            for neg in range(1 << n):
                image = permute_bits(negate_inputs_bits(bits, neg, n), perm, n)
                walk = NPNTransform(perm, neg, False)
                back = compose_transforms(transform, invert_transform(walk))
                _memo.setdefault((n, image), (canonical_bits, back))
                _memo.setdefault(
                    (n, image ^ full),
                    (canonical_bits, NPNTransform(back.perm, back.input_negations,
                                                  not back.output_negate)),
                )
        NPN_STATS.orbit_entries += len(_memo) - before
    else:
        _memo[key] = (canonical_bits, transform)
        _lru_entries += 1
        if _lru_entries > _LRU_MAX:
            # Evict the least recently used n >= 5 entry: orbit-filled
            # keys are appended in bulk on misses and never moved, so
            # scan from the cold end for a large-n key.
            for old_key in _memo:
                if old_key[0] > _ORBIT_FILL_MAX_VARS:
                    del _memo[old_key]
                    _lru_entries -= 1
                    NPN_STATS.evictions += 1
                    break
    return TruthTable(n, canonical_bits), transform


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
