import itertools
import math

import numpy as np
import pytest

from mseboot import (
    ModelSpec,
    bic_ranks,
    enumerate_models,
    fit,
    is_hierarchical,
    neighbors,
    random_order2_starts,
    rank_order,
    select_best_bic,
)
from mseboot import modelspace
from mseboot.modelspace import ModelSpaceError, downhill_lockstep

from conftest import random_table


def model_distance(a, b):
    """The oracle for neighbours and degree-2 ranks: the size of the
    symmetric difference of the two parameter sets."""
    if a.t != b.t:
        raise ModelSpaceError("models must be over the same number of lists")
    return len(a.params ^ b.params)


class TestEnumerate:
    @pytest.mark.parametrize("t,l,expected", [(3, 2, 8), (4, 3, 113)])
    def test_counts(self, t, l, expected):
        assert len(enumerate_models(t, l)) == expected

    def test_members_valid_and_distinct(self):
        space = enumerate_models(4, 3)
        seen = set()
        for m in space:
            assert is_hierarchical(m.params, 4)
            assert m.max_order <= 3
            assert m.params not in seen
            seen.add(m.params)

    def test_includes_null_model(self):
        space = enumerate_models(4, 2)
        assert ModelSpec.null_model(4) in space.models

    def test_safety_limit(self, monkeypatch):
        monkeypatch.setattr(modelspace, "DEFAULT_SAFETY_LIMIT", 100)
        with pytest.raises(ModelSpaceError):
            enumerate_models(5, 4)

    def test_safety_limit_reached_by_the_walk(self, monkeypatch):
        # 2^6 sets of pairs on 4 lists fit under 100, the 113 models do not
        monkeypatch.setattr(modelspace, "DEFAULT_SAFETY_LIMIT", 100)
        with pytest.raises(ModelSpaceError, match=r"\(t=4, l=3\) exceeds safety limit 100"):
            enumerate_models(4, 3)
        assert len(enumerate_models(4, 2)) == 64

    @pytest.mark.parametrize("t, l", [(7, 2), (8, 2), (16, 15)])
    def test_too_many_sets_of_pairs_refused_before_the_walk(self, monkeypatch, t, l):
        # every set of order-2 terms is a model: 2^21 of them on 7 lists
        walked = []
        monkeypatch.setattr(modelspace, "_iter_downsets", walked.append)
        with pytest.raises(ModelSpaceError, match=(
            rf"^model space for \(t={t}, l={l}\) exceeds safety limit 40000$"
        )):
            enumerate_models(t, l)
        assert walked == []

    def test_invalid_args(self):
        with pytest.raises(ModelSpaceError):
            enumerate_models(3, 3)
        with pytest.raises(ModelSpaceError):
            enumerate_models(1, 1)


class TestDistance:
    """The ``model_distance`` oracle."""

    def test_zero_for_identical(self):
        m = ModelSpec.from_notation("[12,13]", 3)
        assert model_distance(m, m) == 0

    def test_one_added_pair(self):
        null = ModelSpec.null_model(3)
        assert model_distance(null, ModelSpec.from_generators(3, [0b011])) == 1

    def test_symmetric_difference_of_pairs(self):
        a = ModelSpec.from_generators(3, [0b011, 0b101])
        b = ModelSpec.from_generators(3, [0b110])
        assert model_distance(a, b) == 3

    def test_rejects_mismatched_t(self):
        with pytest.raises(ModelSpaceError):
            model_distance(ModelSpec.null_model(3), ModelSpec.null_model(4))


class TestNeighbors:
    def test_null_model_t3(self):
        got = {m.params for m in neighbors(ModelSpec.null_model(3), 2)}
        expected = {
            ModelSpec.from_generators(3, [p]).params for p in (0b011, 0b101, 0b110)
        }
        assert got == expected

    def test_all_pairs_t3(self):
        full = ModelSpec.from_generators(3, [0b011, 0b101, 0b110])
        got = {m.params for m in neighbors(full, 2)}
        assert len(got) == 3
        assert all(len(full.params - p) == 1 for p in got)

    def test_order_cap_blocks_triple(self):
        full = ModelSpec.from_generators(3, [0b011, 0b101, 0b110])
        capped = neighbors(full, 2)
        assert all(m.max_order <= 2 for m in capped)
        uncapped = neighbors(full)  # l defaults to t-1 = 2 here as well
        assert all(m.max_order <= 2 for m in uncapped)

    @pytest.mark.parametrize("t,l", [(3, 2), (4, 2), (4, 3)])
    def test_matches_brute_force_distance_one(self, t, l):
        space = enumerate_models(t, l)
        for model in space:
            brute = {
                other.params
                for other in space
                if model_distance(model, other) == 1
            }
            assert {m.params for m in neighbors(model, l)} == brute

    def test_symmetry(self):
        space = enumerate_models(4, 3)
        for model in space.models[::7]:
            for nb in neighbors(model, 3):
                assert model.params in {m.params for m in neighbors(nb, 3)}


class TestRanks:
    def _random_bics(self, space, rng):
        vals = rng.normal(size=len(space)) * 10
        vals[rng.random(len(space)) < 0.2] = math.inf
        return vals.tolist()

    def test_best_model_rank_one_all_degrees(self, korea_space):
        bics = self._random_bics(korea_space, np.random.default_rng(1))
        bics[3] = -100.0
        ranks = bic_ranks(korea_space, bics, K=4)
        assert ranks.shape == (4, len(korea_space))
        for k in range(1, 5):
            assert ranks[k - 1][3] == 1

    def test_neighbor_of_best_gets_r2_one(self, korea_space):
        bics = self._random_bics(korea_space, np.random.default_rng(2))
        best = int(np.argmin([b if math.isfinite(b) else math.inf for b in bics]))
        ranks = bic_ranks(korea_space, bics, K=2)
        for nb in neighbors(korea_space.models[best], korea_space.l):
            assert ranks[1][korea_space.index_of(nb)] == 1

    def test_recursion_matches_brute_force(self, korea_space):
        # oracle: r2 from explicit 1-neighbour sets under the distance
        rng = np.random.default_rng(3)
        bics = self._random_bics(korea_space, rng)
        ranks = bic_ranks(korea_space, bics, K=2)
        r1 = ranks[0]
        for i, model in enumerate(korea_space):
            close = [
                j
                for j, other in enumerate(korea_space)
                if model_distance(model, other) <= 1
            ]
            assert ranks[1][i] == min(r1[j] for j in close)

    def test_rank_monotone_in_degree(self):
        space = enumerate_models(4, 2)
        rng = np.random.default_rng(4)
        bics = self._random_bics(space, rng)
        ranks = bic_ranks(space, bics, K=5)
        for k in range(2, 6):
            assert (ranks[k - 1] <= ranks[k - 2]).all()

    def test_infinite_bics_ranked_last(self, korea_space):
        bics = [1.0, math.inf, 3.0, math.inf, 2.0, 5.0, 4.0, 6.0]
        r1 = bic_ranks(korea_space, bics, K=1)[0]
        assert r1[0] == 1
        assert {r1[1], r1[3]} == {7, 8}
        assert r1[1] < r1[3]  # canonical tie-break among infinities


class TestRankOrder:
    def test_degree1_starts_at_bic_minimum(self, korea_space):
        bics = [5.0, 1.0, 3.0, 2.0, 4.0, 8.0, 7.0, 6.0]
        ranks = bic_ranks(korea_space, bics, K=2)
        assert rank_order(korea_space, ranks, 1)[0] == 1

    def test_degrees_agree_at_position_one(self, korea_space):
        rng = np.random.default_rng(5)
        bics = (rng.normal(size=8) * 10).tolist()
        ranks = bic_ranks(korea_space, bics, K=2)
        assert rank_order(korea_space, ranks, 1)[0] == rank_order(korea_space, ranks, 2)[0]

    def test_degree2_matches_oracle_sort(self):
        space = enumerate_models(4, 2)
        rng = np.random.default_rng(6)
        bics = (rng.normal(size=len(space)) * 10).tolist()
        ranks = bic_ranks(space, bics, K=2)
        got = rank_order(space, ranks, 2)
        oracle = sorted(
            range(len(space)),
            key=lambda i: (ranks[1][i], ranks[0][i]),
        )
        assert got == oracle


def one_table_search(start, l, fitter):
    """``downhill_lockstep`` from one start on one table, each BIC from
    ``fitter``."""
    [found] = downhill_lockstep(
        1, [start], l, lambda pairs: [fitter(m) for _, m in pairs]
    )
    return found


class TestDownhill:
    def _bic_fitter(self, table):
        def fitter(model):
            return fit(model, table).bic

        return fitter

    def test_start_at_global_minimum_stays(self, korea_space):
        rng = np.random.default_rng(7)
        table = random_table(rng, 3)
        fitter = self._bic_fitter(table)
        best, _ = select_best_bic(korea_space.models, table)
        found = one_table_search(best, 2, fitter)
        assert found is not None and found[0] == best

    def test_reaches_exhaustive_minimum_from_null(self, korea_space):
        for seed in range(5):
            table = random_table(np.random.default_rng(seed), 3)
            fitter = self._bic_fitter(table)
            _, best_fit = select_best_bic(korea_space.models, table)
            found = one_table_search(ModelSpec.null_model(3), 2, fitter)
            assert found is not None
            assert found[1] == pytest.approx(best_fit.bic)

    def test_no_finite_model_returns_none(self):
        found = one_table_search(
            ModelSpec.null_model(3), 2, lambda m: math.inf
        )
        assert found is None

    @pytest.mark.parametrize("l", [0, 3])
    def test_max_order_outside_range_rejected_before_any_fit(self, l):
        calls = []
        with pytest.raises(ModelSpaceError, match=f"1..t-1, got l={l}"):
            one_table_search(ModelSpec.null_model(3), l, calls.append)
        assert calls == []


class TestRandomStarts:
    def test_t3_all_pairs_unique(self):
        rng = np.random.default_rng(8)
        starts = random_order2_starts(3, 3, 4, rng)
        expected = ModelSpec.from_generators(3, [0b011, 0b101, 0b110])
        assert all(s == expected for s in starts)

    def test_valid_order2_models(self):
        rng = np.random.default_rng(9)
        for s in random_order2_starts(5, 5, 5, rng):
            assert is_hierarchical(s.params, 5)
            assert s.max_order == 2
            assert sum(1 for p in s.params if bin(p).count("1") == 2) == 5

    def test_deterministic_given_seed(self):
        a = random_order2_starts(5, 5, 5, np.random.default_rng(10))
        b = random_order2_starts(5, 5, 5, np.random.default_rng(10))
        assert a == b

    def test_two_lists_rejected(self):
        # the only pair of two lists is the saturated model
        with pytest.raises(ModelSpaceError, match="at least 3 lists"):
            random_order2_starts(2, 1, 1, np.random.default_rng(0))

    def test_too_many_pairs_rejected(self):
        with pytest.raises(ModelSpaceError):
            random_order2_starts(3, 4, 1, np.random.default_rng(0))
