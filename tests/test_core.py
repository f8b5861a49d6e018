import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mseboot import CountTable, ModelSpec, is_hierarchical
from mseboot.core import (
    MAX_LISTS,
    canonical_key,
    history_from_str,
    history_to_str,
    order,
    subsets,
)

from conftest import marginal_count


def test_order_is_popcount():
    assert order(0) == 0
    assert order(0b1011) == 3


def test_subsets_includes_empty_and_self():
    subs = set(subsets(0b101))
    assert subs == {0b000, 0b001, 0b100, 0b101}


def test_history_notation_roundtrip():
    for mask in (0b1, 0b110, 0b1011, 1 << 15):
        assert history_from_str(history_to_str(mask), 16) == mask


def test_history_from_str_rejects_out_of_range():
    with pytest.raises(ValueError):
        history_from_str("4", 3)


class TestMarginalCount:
    """The test suite's ``marginal_count`` oracle on the Korea table."""

    def test_korea_triple_intersection(self, korea):
        # cases appearing on all three lists
        assert marginal_count(korea, 0b111) == 12

    def test_korea_total(self, korea):
        assert marginal_count(korea, 0) == 123
        assert korea.n_total == 123

    def test_korea_first_list(self, korea):
        # 12 + 54 + 6 + 5 histories containing list B
        assert marginal_count(korea, 0b001) == 77

    def test_monotone_in_subset(self, korea):
        for theta in range(8):
            for bigger in range(8):
                if theta & bigger == theta:
                    assert marginal_count(korea, theta) >= marginal_count(korea, bigger)


class TestIsHierarchical:
    def test_null_model(self):
        assert is_hierarchical({0, 1, 2, 4}, 3)

    def test_missing_pair_under_triple(self):
        assert not is_hierarchical({0, 1, 2, 4, 7}, 3)

    def test_two_pairs(self):
        assert not is_hierarchical({0, 1, 2, 4, 3, 6, 7}, 3)  # triple without 0b101
        assert is_hierarchical({0, 1, 2, 4, 3, 6}, 3)

    def test_saturated_rejected(self):
        assert not is_hierarchical(set(range(8)), 3)

    def test_missing_main_effect(self):
        assert not is_hierarchical({0, 1, 2}, 3)


class TestSupportKey:
    def test_scaling_invariance(self, korea):
        tripled = CountTable.from_counts(3, {m: 3 * n for m, n in korea.counts.items()})
        assert tripled.support == korea.support

    def test_zeroed_cell_changes_key(self, korea):
        counts = dict(korea.counts)
        counts.pop(0b101)
        smaller = CountTable.from_counts(3, counts)
        assert smaller.support != korea.support

    def test_table1_n2_vs_n3(self, table1):
        assert table1["n2"].support != table1["n3"].support

    @given(
        scale=st.integers(min_value=1, max_value=100),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_key_invariant_under_any_positive_scale(self, scale, seed):
        from conftest import random_table

        table = random_table(np.random.default_rng(seed), 3, zero_prob=0.4)
        scaled = CountTable.from_counts(
            3, {m: scale * n for m, n in table.counts.items()}
        )
        assert scaled.support == table.support


def frozen_from_counts(t, counts):
    """``CountTable.from_counts`` as it was when direct construction took
    any mapping as given: the items of the table it built."""
    if not 1 <= t <= MAX_LISTS:
        raise ValueError(f"number of lists must be in 1..{MAX_LISTS}, got {t}")
    clean = {}
    for mask, n in counts.items():
        if not 0 < mask < (1 << t):
            raise ValueError(f"history mask {mask} invalid for t={t} (empty or out of range)")
        if n < 0 or n != int(n):
            raise ValueError(f"count for {history_to_str(mask)} must be a non-negative integer")
        if n > 0:
            clean[mask] = int(n)
    return tuple(sorted(clean.items(), key=lambda kv: canonical_key(kv[0])))


class TestCountTable:
    def test_zero_counts_equivalent_to_absence(self):
        a = CountTable.from_counts(2, {1: 5, 2: 0})
        b = CountTable.from_counts(2, {1: 5})
        assert a == b
        assert a.support == {1}

    def test_construction_normalizes(self):
        # built directly from a listed zero or from cells out of order, a
        # table holds its positive counts in canonical order, so it is
        # the table ``from_counts`` gives
        listed = {1: 5, 2: 5, 3: 0, 4: 5, 5: 5, 6: 5, 7: 5}
        direct = CountTable(3, listed)
        clean = CountTable.from_counts(3, listed)
        backwards = CountTable(3, dict(reversed(clean.counts.items())))
        for table in (direct, clean, backwards):
            assert tuple(table.counts.items()) == (
                (1, 5), (2, 5), (4, 5), (5, 5), (6, 5), (7, 5)
            )
            assert table == direct and direct == table
            assert hash(table) == hash(direct)
        assert len({direct, clean, backwards}) == 1
        # a different count, or the same counts on another number of lists,
        # is another table
        assert direct != CountTable(3, {**listed, 7: 6})
        assert direct != CountTable(4, listed)

    @pytest.mark.parametrize("t, counts, message", [
        (3, {1: 3, 8: 5}, "history mask 8 invalid for t=3"),
        (3, {0: 2}, "history mask 0 invalid for t=3"),
        (17, {1: 3}, "number of lists must be in 1..16, got 17"),
        (0, {}, "number of lists must be in 1..16, got 0"),
        (3, {1: 3, 2: -1}, "count for 2 must be a non-negative integer"),
        (3, {1: 3, 2: 2.5}, "count for 2 must be a non-negative integer"),
    ], ids=["history 8", "history 0", "t=17", "t=0", "count -1", "count 2.5"])
    def test_direct_construction_rejects_what_from_counts_rejects(
        self, t, counts, message
    ):
        with pytest.raises(ValueError, match=message):
            CountTable(t, counts)
        with pytest.raises(ValueError, match=message):
            CountTable.from_counts(t, counts)

    @given(
        t=st.integers(min_value=0, max_value=MAX_LISTS + 1),
        cells=st.lists(
            st.tuples(
                st.integers(min_value=-1, max_value=70),
                st.one_of(
                    st.integers(min_value=-1, max_value=9),
                    st.sampled_from([0.0, 2.0, 2.5, True]),
                    st.integers(min_value=0, max_value=9).map(np.int64),
                ),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_construction_is_the_frozen_from_counts(self, t, cells):
        counts = dict(cells)
        try:
            want = frozen_from_counts(t, counts)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                CountTable(t, counts)
            return
        got = CountTable(t, counts)
        assert tuple(got.counts.items()) == want
        assert all(type(n) is int for n in got.counts.values())
        assert got == CountTable(t, dict(want)) == CountTable.from_counts(t, counts)

    def test_rejects_empty_history(self):
        with pytest.raises(ValueError):
            CountTable.from_counts(2, {0: 3})

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            CountTable.from_counts(2, {1: -1})

    def test_rejects_mask_out_of_range(self):
        with pytest.raises(ValueError):
            CountTable.from_counts(2, {4: 1})


class TestModelSpec:
    def test_from_notation_korea_winner(self):
        m = ModelSpec.from_notation("[12,23]", 3)
        assert m.params == {0, 1, 2, 4, 0b011, 0b110}
        assert m.notation() == "[12,23]"

    def test_null_model_notation(self):
        assert ModelSpec.null_model(3).notation() == "[1,2,3]"

    def test_rejects_non_hierarchical(self):
        with pytest.raises(ValueError):
            ModelSpec(3, frozenset({0, 1, 2, 4, 7}))

    def test_rejects_saturated(self):
        with pytest.raises(ValueError):
            ModelSpec(2, frozenset({0, 1, 2, 3}))

    def test_closure_from_generators(self):
        m = ModelSpec.from_generators(4, [0b0111])
        assert 0b011 in m.params and 0b101 in m.params and 0b110 in m.params
        assert m.max_order == 3
