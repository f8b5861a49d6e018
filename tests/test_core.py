import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mseboot import CountTable, ModelSpec, is_hierarchical
from mseboot.core import history_from_str, history_to_str, order, subsets

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
        import numpy as np

        from conftest import random_table

        table = random_table(np.random.default_rng(seed), 3, zero_prob=0.4)
        scaled = CountTable.from_counts(
            3, {m: scale * n for m, n in table.counts.items()}
        )
        assert scaled.support == table.support


class TestCountTable:
    def test_zero_counts_equivalent_to_absence(self):
        a = CountTable.from_counts(2, {1: 5, 2: 0})
        b = CountTable.from_counts(2, {1: 5})
        assert a == b
        assert a.support == {1}

    def test_a_listed_zero_compares_and_hashes_as_the_clean_table(self):
        # built directly, a table may list a cell at 0 or list its cells
        # out of order; it is the table of its positive counts
        listed = {1: 5, 2: 5, 3: 0, 4: 5, 5: 5, 6: 5, 7: 5}
        direct = CountTable(3, listed)
        clean = CountTable.from_counts(3, listed)
        backwards = CountTable(3, dict(reversed(clean.counts.items())))
        assert direct.support == clean.support
        for other in (clean, backwards):
            assert direct == other and other == direct
            assert hash(direct) == hash(other)
        assert len({direct, clean, backwards}) == 1
        # a different count, or the same counts on another number of lists,
        # is another table
        assert direct != CountTable(3, {**listed, 7: 6})
        assert direct != CountTable(4, listed)

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
