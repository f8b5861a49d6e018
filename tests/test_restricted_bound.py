"""The restricted bootstrap's row-minimum bound against the unpruned evaluation.

A restriction to one size needs only each row's BIC minimum, with ties
to the earliest column, not its records.  So ``restricted_bootstrap``
fits its top models in two passes and skips a pair when a first-pass
supermodel's BIC proves the pair lies strictly above a fitted BIC of its
row (``bootstrap._two_passes`` and ``bootstrap._skipped`` with
``keep="minimum"``).  These tests compare it with
``driver_oracle.oracle_restricted_bootstrap``, which fits every pair:
the results must be equal, every pair it fits must get the oracle's
bits, and every pair it skips must lie strictly above a fitted BIC of
its row in the oracle's arrays.  They also pin the rule on exact numbers
and the saving on ``table1_n1``.
"""

import numpy as np
import pytest

import driver_oracle
from mseboot import CountTable, ModelSpec, bootstrap, enumerate_models, glm
from mseboot.bootstrap import _skipped, _two_passes, restricted_bootstrap
from mseboot.existence import ExistenceCache
from mseboot.glm import FitSettings, NoModelFoundError

from conftest import KOREA_COUNTS, TABLE1, random_table
from driver_oracle import oracle_restricted_bootstrap

KOREA = CountTable.from_counts(3, KOREA_COUNTS)

SETTINGS = [
    pytest.param(degree, sample_size, id=f"degree{degree}-{sample_size}")
    for degree in (1, 2)
    for sample_size in ("case", "capture")
]


def recorded_evaluations(monkeypatch, module):
    """The (models, tables, arrays) of every ``_evaluate_models`` call
    ``module`` makes from now on."""
    calls = []
    real = module._evaluate_models

    def recording(models, tables, *args):
        arrays = real(models, tables, *args)
        calls.append((list(models), list(tables), arrays))
        return arrays

    monkeypatch.setattr(module, "_evaluate_models", recording)
    return calls


def assert_matches_the_oracle(monkeypatch, table, space, degree, sample_size,
                              **kwargs):
    """The restricted bootstrap gives the oracle's result, fits every pair
    it does not skip to the oracle's bits, and skips only pairs that lie
    strictly above a fitted BIC of their row.  Returns the number of
    skipped pairs."""
    kwargs.update(degree=degree, settings=FitSettings(sample_size=sample_size))
    cache = ExistenceCache()
    wanted = recorded_evaluations(monkeypatch, driver_oracle)
    got = recorded_evaluations(monkeypatch, bootstrap)
    try:
        want = oracle_restricted_bootstrap(table, space, cache=cache, **kwargs)
    except NoModelFoundError:
        with pytest.raises(NoModelFoundError):
            restricted_bootstrap(table, space, cache=cache, **kwargs)
        return 0
    assert restricted_bootstrap(table, space, cache=cache, **kwargs) == want
    # the resamples, then the jackknife tables; the oracle fits the
    # original table without ``_evaluate_models``
    assert len(got) == 3 and len(wanted) == 2
    skipped = 0
    for (models, tables, (bics, ests)), (*want_args, (want_bics, want_ests)) in zip(
        got[1:], wanted
    ):
        assert [models, tables] == want_args
        skip = np.isinf(bics) & np.isfinite(want_bics)
        assert np.array_equal(bics[~skip], want_bics[~skip])
        assert np.array_equal(ests[~skip], want_ests[~skip], equal_nan=True)
        assert np.isnan(ests[skip]).all()
        rows, cols = np.nonzero(skip)
        least_fitted = np.where(skip, np.inf, want_bics).min(axis=1)
        assert (want_bics[rows, cols] > least_fitted[rows]).all()
        skipped += len(rows)
    return skipped


@pytest.mark.parametrize("n_top", [10, None])
@pytest.mark.parametrize("degree, sample_size", SETTINGS)
def test_korea_matches_the_unpruned_restriction(monkeypatch, degree, sample_size,
                                                n_top):
    skipped = assert_matches_the_oracle(
        monkeypatch, KOREA, enumerate_models(3, 2), degree, sample_size,
        B=200, seed=5, n_top=n_top,
    )
    # the one maximal model, [12,13,23], has no MLE on a Korea support,
    # and column 0 never bounds below its own BIC
    assert skipped == 0


@pytest.mark.parametrize("n_top", [10, None])
@pytest.mark.parametrize("degree, sample_size", SETTINGS)
@pytest.mark.parametrize("name", sorted(TABLE1))
def test_table1_matches_the_unpruned_restriction(monkeypatch, name, degree,
                                                 sample_size, n_top):
    table = CountTable.from_counts(4, TABLE1[name])
    skipped = assert_matches_the_oracle(
        monkeypatch, table, enumerate_models(4, 3), degree, sample_size,
        B=25, seed=3, n_top=n_top,
    )
    # the bound is exercised: in every degree-1 ranking the top 10 hold
    # submodels that a first-pass supermodel proves away (on n3 at degree
    # 2 under "case" it skips nothing at B=25)
    if n_top is not None and degree == 1:
        assert skipped > 0


@pytest.mark.parametrize("index", range(20))
def test_sparse_random_tables_match_the_unpruned_restriction(monkeypatch, index):
    # seeded sparse tables on 3-5 lists with their order-2 spaces; each
    # table takes one of the four settings in turn, and every other one
    # the top 10 models (on 5 lists the top 30 of 1,024 otherwise)
    t = 3 + index % 3
    table = random_table(np.random.default_rng(500 + index), t, mean=6.0,
                         zero_prob=0.35)
    n_top = 10 if index % 2 else (None if t < 5 else 30)
    degree, sample_size = SETTINGS[index % len(SETTINGS)].values
    assert_matches_the_oracle(
        monkeypatch, table, enumerate_models(t, 2), degree, sample_size,
        B=20, seed=index, n_top=n_top,
    )


def test_table1_n1_top10_fits_at_most_80_percent_of_the_pairs(monkeypatch):
    table, space = CountTable.from_counts(4, TABLE1["n1"]), enumerate_models(4, 3)
    calls = [0]
    real = glm.fit

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(glm, "fit", counting)
    oracle_restricted_bootstrap(table, space, B=200, n_top=10, seed=0)
    unpruned, calls[0] = calls[0], 0
    restricted_bootstrap(table, space, B=200, n_top=10, seed=0)
    assert calls[0] <= 0.8 * unpruned


def models(*notations):
    return [ModelSpec.from_notation(n, 3) for n in notations]


def test_two_passes_bounds_each_column_by_the_maximal_top_models():
    ranked = models("[13,23]", "[12]", "[1,23]", "[2,13]", "[1,2,3]", "[12,13]")
    # only [13,23] (column 0) and [12,13] have no supermodel among the
    # top models; column 1, first for the records, is bounded here
    assert _two_passes(ranked, "minimum") == (
        [0, 5], [(1, 5), (2, 0), (3, 0), (3, 5), (4, 0), (4, 5)]
    )
    # column 0 goes first even below a later column
    assert _two_passes(models("[1,23]", "[12]", "[13,23]"), "minimum") == (
        [0, 1, 2], []
    )
    # a column below column 0 alone is bounded by it, column 1 too
    assert _two_passes(models("[13,23]", "[1,23]", "[1,2,3]"), "minimum") == (
        [0], [(1, 0), (2, 0)]
    )


def skips(row, penalties):
    """Whether column 2 of one row, a submodel of column 1, is skipped by
    the row-minimum rule."""
    bics, penalties = np.array([row]), np.array([penalties])
    return bool(_skipped(bics, penalties, [(2, 1)], "minimum")[0, 2])


def test_row_minimum_rule_on_exact_numbers():
    # column 1, a supermodel of column 2, bounds it by 100 - 6 + 5 = 99
    penalties = (3.0, 6.0, 5.0)
    assert skips([98.0, 100.0, np.inf], penalties)
    assert not skips([99.5, 100.0, np.inf], penalties)
    # a tie with the least BIC is not enough: ties go to the earliest
    assert not skips([99.0, 100.0, np.inf], penalties)
    # nor is a lead inside the margin, 1e-9 of the larger BIC
    assert not skips([99.0 - 1e-8, 100.0, np.inf], penalties)
    assert skips([99.0 - 1e-6, 100.0, np.inf], penalties)
    # a lead of exactly the margin is not enough either: the bound,
    # 1 - 1 + 1e-9, is the least, 0, plus 1e-9 x max(1, 0, 1)
    assert not skips([0.0, 1.0, np.inf], (0.0, 1.0, 1e-9))
    assert skips([0.0, 1.0, np.inf], (0.0, 1.0, 2e-9))
    # the penalties of the pair's own row set the bound
    assert skips([99.5, 100.0, np.inf], (3.0, 6.0, 5.9))


def test_the_least_is_taken_over_the_whole_row():
    # column 0 bounds column 1 by 100 - 6 + 5 = 99, above column 2's BIC,
    # which comes after it: no record, and skipped for the minimum alone
    bics = np.array([[100.0, np.inf, 98.0]])
    penalties = np.array([[6.0, 5.0, 1.0]])
    assert _skipped(bics, penalties, [(1, 0)], "minimum")[0, 1]
    assert not _skipped(bics, penalties, [(1, 0)], "records").any()


@pytest.mark.parametrize("keep", ["minimum", "records"])
def test_only_finite_bounds_count(keep):
    # a supermodel whose fit did not converge bounds nothing, whatever
    # the least BIC
    bics = np.array([[0.0, np.inf, np.inf]])
    penalties = np.array([[1.0, 6.0, 5.0]])
    assert not _skipped(bics, penalties, [(2, 1)], keep).any()
    # a finite bound far larger than the least sets the margin, 1e-9 x
    # 1000: the bound, 1000 - 990 + 0 = 10, leads the least by 5e-7 only
    bics = np.array([[10.0 - 5e-7, 1000.0, np.inf]])
    penalties = np.array([[1.0, 990.0, 0.0]])
    assert not _skipped(bics, penalties, [(2, 1)], keep).any()
    bics[0, 0] = 10.0 - 2e-6
    assert _skipped(bics, penalties, [(2, 1)], keep)[0, 2]


def test_row_minimum_uses_only_the_bounds_given():
    # column 1 would prove column 2 lies above column 0, but it is not a
    # supermodel of it
    bics = np.array([[50.0, 100.0, np.inf]])
    penalties = np.array([[1.0, 6.0, 0.5]])
    assert not _skipped(bics, penalties, [(2, 0)], "minimum").any()
    assert _skipped(bics, penalties, [(2, 1)], "minimum")[0, 2]
