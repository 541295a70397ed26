"""Property tests for NPN canonicalisation (repro.network.npn).

:func:`npn_canonical` is the exhaustive reference: its transform must
achieve its canonical, and the canonical must be a fixpoint shared by
every image.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.functions import TruthTable
from repro.network.npn import (
    NPNTransform,
    apply_transform,
    npn_canonical,
    npn_equivalent,
)


@st.composite
def tables(draw, max_vars=4):
    n = draw(st.integers(min_value=1, max_value=max_vars))
    bits = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return TruthTable(n, bits)


@st.composite
def transforms(draw, n):
    perm = tuple(draw(st.permutations(range(n))))
    neg = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    out = draw(st.booleans())
    return NPNTransform(perm, neg, out)


@st.composite
def table_with_transform(draw):
    tt = draw(tables())
    return tt, draw(transforms(tt.n_vars))


class TestCanonical:
    @given(tables())
    def test_transform_achieves_canonical(self, tt):
        canonical, transform = npn_canonical(tt)
        assert apply_transform(transform, tt) == canonical

    @given(tables())
    def test_canonical_is_fixpoint(self, tt):
        canonical, _ = npn_canonical(tt)
        again, _ = npn_canonical(canonical)
        assert again == canonical

    @given(table_with_transform())
    def test_equivalent_to_every_image(self, case):
        tt, t = case
        image = apply_transform(t, tt)
        assert npn_equivalent(tt, image)
        assert npn_canonical(tt)[0] == npn_canonical(image)[0]

    @given(tables(), tables())
    def test_equivalence_iff_equal_canonicals(self, a, b):
        same = npn_canonical(a)[0] == npn_canonical(b)[0] and (
            a.n_vars == b.n_vars
        )
        assert npn_equivalent(a, b) == same

    def test_oversized_function_rejected(self):
        with pytest.raises(ValueError, match="limited to"):
            npn_canonical(TruthTable(7, 0))
