"""The precomputed NPN-class table (repro.library.npn_table).

Covers the library side of the matcher's cut filter: chain
construction, cell-class lookup with transform validity, the
per-pattern-set memo, and parameter validation.
"""

import pytest

from repro.errors import LibraryError
from repro.library.builtin import lib44_3
from repro.library.npn_table import (
    build_npn_table,
    pattern_chain,
    pattern_shape,
    table_for,
)
from repro.library.patterns import PatternSet
from repro.network.functions import TruthTable
from repro.network.npn import NPN_STATS, apply_transform, npn_canonical


def fresh(patterns, **kwargs):
    """A new build, bypassing the per-pattern-set memo."""
    return build_npn_table(patterns, **kwargs)


class TestChains:
    def test_one_chain_per_pattern_in_order(self, lib441_patterns):
        table = fresh(lib441_patterns)
        assert len(table.chains) == len(lib441_patterns.patterns)
        for i, pattern in enumerate(lib441_patterns.patterns):
            assert table.chain_of(i) == pattern_chain(
                pattern, k=table.k, depth_cap=table.depth_cap
            )

    def test_chain_entries_well_formed(self, lib441_patterns):
        table = fresh(lib441_patterns)
        for chain in table.chains:
            for t, n, bits in chain:
                assert 1 <= t <= table.depth_cap
                assert 1 <= n <= table.k
                assert 0 <= bits < (1 << (1 << n))
            # truncation heights strictly increase along a chain
            heights = [t for t, _, _ in chain]
            assert heights == sorted(set(heights))

    def test_chain_frontiers_are_canonical(self, lib441_patterns):
        table = fresh(lib441_patterns)
        for chain in table.chains:
            for _t, n, bits in chain:
                canonical, _ = npn_canonical(TruthTable(n, bits))
                assert canonical.bits == bits


class TestCellClasses:
    def test_every_small_cell_is_findable(self, lib441_patterns):
        table = fresh(lib441_patterns)
        library = lib441_patterns.library
        for gate in library:
            if not 1 <= gate.n_inputs <= table.cell_limit:
                continue
            names = [name for name, _ in table.lookup(gate.tt)]
            assert gate.name in names

    def test_lookup_transforms_carry_cut_onto_cell(self, lib441_patterns):
        table = fresh(lib441_patterns)
        library = lib441_patterns.library
        checked = 0
        for gate in library:
            if not 1 <= gate.n_inputs <= table.cell_limit:
                continue
            for name, transform in table.lookup(gate.tt):
                cell = library.gate(name)
                assert apply_transform(transform, gate.tt) == cell.tt
                checked += 1
        assert checked > 0

    def test_lookup_miss_is_empty(self, mini_patterns):
        table = fresh(mini_patterns)
        # 4-input XOR-ish parity is not in the mini NAND/INV/AOI library
        assert table.lookup(TruthTable(4, 0x6996)) == []

    def test_cell_limit_filters(self, lib441_patterns):
        table = fresh(lib441_patterns, cell_limit=1)
        assert all(n == 1 for n, _bits in table.cell_classes)


class TestChainOrbits:
    """The map the matcher's cut filter uses instead of canonicalising."""

    def test_exactly_the_chain_classes(self, lib441_patterns):
        table = fresh(lib441_patterns)
        classes = {(n, bits) for chain in table.chains for _t, n, bits in chain}
        assert set(table.chain_orbits.values()) == classes
        for (n, bits), cls in table.chain_orbits.items():
            canonical, _ = npn_canonical(TruthTable(n, bits))
            assert (n, canonical.bits) == cls
        # complete where the function space is small enough to sweep
        for n in {n for n, _ in classes if n <= 3}:
            for bits in range(1 << (1 << n)):
                canonical, _ = npn_canonical(TruthTable(n, bits))
                if (n, canonical.bits) in classes:
                    assert (n, bits) in table.chain_orbits


class TestShapes:
    @staticmethod
    def _depth(shape):
        if shape == ("?",):
            return 0
        return 1 + max(TestShapes._depth(child) for child in shape[1:])

    def test_one_shape_per_pattern_well_formed(self, lib441_patterns):
        table = fresh(lib441_patterns)
        assert len(table.shapes) == len(lib441_patterns.patterns)

        def check(shape):
            assert shape[0] in ("?", "I", "N")
            if shape[0] == "?":
                assert shape == ("?",)
            elif shape[0] == "I":
                check(shape[1])
            else:
                a, b = shape[1], shape[2]
                assert a <= b  # NAND children canonically ordered
                check(a)
                check(b)

        for i, pattern in enumerate(lib441_patterns.patterns):
            shape = table.shape_of(i)
            check(shape)
            assert self._depth(shape) <= table.depth_cap
            assert shape == pattern_shape(pattern, table.depth_cap)

    def test_depth_cap_truncates_to_wildcards(self, lib441_patterns):
        deep = fresh(lib441_patterns)
        for pattern in lib441_patterns.patterns:
            shallow = pattern_shape(pattern, depth_cap=1)
            assert self._depth(shallow) <= 1
        # some 44-1 pattern is deeper than one level, so capping matters
        assert any(
            pattern_shape(p, depth_cap=1) != pattern_shape(p, deep.depth_cap)
            for p in lib441_patterns.patterns
        )


class TestTableFor:
    def test_memoized_per_pattern_set(self, mini_patterns):
        a = table_for(mini_patterns)
        b = table_for(mini_patterns)
        assert a is b

    def test_repeat_build_served_by_npn_memo(self):
        """A second 44-3 build canonicalises nothing anew."""
        patterns = PatternSet(lib44_3(), max_variants=4)
        fresh(patterns)
        before = NPN_STATS.snapshot()
        fresh(patterns)
        delta = NPN_STATS.delta(before)
        assert delta.misses == 0
        assert delta.hits > 0

    def test_distinct_parameters_distinct_tables(self, mini_patterns):
        a = table_for(mini_patterns)
        b = table_for(mini_patterns, k=3)
        assert a is not b
        assert b.k == 3


class TestValidation:
    @pytest.mark.parametrize("k", [0, 7])
    def test_k_out_of_range(self, mini_patterns, k):
        with pytest.raises(LibraryError, match="k must be in 1..6"):
            build_npn_table(mini_patterns, k=k)

    def test_depth_cap_positive(self, mini_patterns):
        with pytest.raises(LibraryError, match="depth_cap"):
            build_npn_table(mini_patterns, depth_cap=0)
