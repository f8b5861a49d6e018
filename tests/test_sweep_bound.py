"""The sweep's supermodel bound against the unpruned evaluation.

``ntop_sweep`` fits its top models in two passes and skips a pair when a
first-pass supermodel's BIC proves the pair is no record of its row
(``bootstrap._two_passes`` and ``bootstrap._skipped``).  These tests
compare it with ``driver_oracle.oracle_ntop_sweep``, which fits every
pair: the intervals and the filled estimates must be equal, and every
pair the sweep skipped must lie strictly above the least BIC before it
in the oracle's arrays.  They also pin the rule itself on exact numbers
and the saving on Korea.  ``restricted_bootstrap`` bounds its pairs by
the row minimum instead (``tests/test_restricted_bound.py``), but on
Korea's full space it still fits every pair that passes existence: the
one maximal model, ``[12,13,23]``, has no MLE on any Korea support, and
column 0 never bounds a pair below its own BIC.
"""

import numpy as np
import pytest

from mseboot import CountTable, ModelSpec, enumerate_models
from mseboot import glm
from mseboot.bootstrap import (
    _skipped,
    _two_passes,
    jackknife_tables,
    ntop_sweep,
    resamples,
    restricted_bootstrap,
)
from mseboot.existence import fr_check

from conftest import KOREA_COUNTS, TABLE1, random_table
from driver_oracle import assert_sweep_matches_the_oracle, oracle_ntop_sweep

KOREA = CountTable.from_counts(3, KOREA_COUNTS)

SETTINGS = [
    pytest.param(degree, sample_size, id=f"degree{degree}-{sample_size}")
    for degree in (1, 2)
    for sample_size in ("case", "capture")
]


@pytest.mark.parametrize("degree, sample_size", SETTINGS)
def test_korea_matches_the_unpruned_sweep(degree, sample_size):
    skipped = assert_sweep_matches_the_oracle(
        KOREA, enumerate_models(3, 2), degree, sample_size, B=200, seed=5
    )
    assert skipped > 0


@pytest.mark.parametrize("degree, sample_size", SETTINGS)
@pytest.mark.parametrize("name", sorted(TABLE1))
def test_table1_full_space_matches_the_unpruned_sweep(name, degree, sample_size):
    table = CountTable.from_counts(4, TABLE1[name])
    skipped = assert_sweep_matches_the_oracle(
        table, enumerate_models(4, 3), degree, sample_size, B=25, seed=3
    )
    assert skipped > 0


def sparse_case(index):
    """Seeded sparse table ``index`` on 3-5 lists, its order-2 space and its
    keyword arguments: on 5 lists the top 30 of 1,024 models."""
    t = 3 + index % 3
    table = random_table(np.random.default_rng(300 + index), t, mean=6.0,
                         zero_prob=0.35)
    kwargs = dict(B=20, seed=index, n_top_high=None if t < 5 else 30)
    return table, enumerate_models(t, 2), kwargs


@pytest.mark.parametrize("index", range(20))
def test_sparse_random_tables_match_the_unpruned_sweep(index):
    # each table takes one of the four settings in turn, so that every
    # list count meets every setting
    table, space, kwargs = sparse_case(index)
    degree, sample_size = SETTINGS[index % len(SETTINGS)].values
    assert_sweep_matches_the_oracle(table, space, degree, sample_size, **kwargs)


def counted_fits(monkeypatch):
    calls = [0]
    real = glm.fit

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(glm, "fit", counting)
    return calls


def test_korea_sweep_fits_at_most_55_percent_of_the_pairs(monkeypatch):
    space = enumerate_models(3, 2)
    calls = counted_fits(monkeypatch)
    oracle_ntop_sweep(KOREA, space, B=200, seed=0)
    unpruned, calls[0] = calls[0], 0
    ntop_sweep(KOREA, space, B=200, seed=0)
    assert calls[0] <= 0.55 * unpruned


def test_restricted_bootstrap_fits_every_pair_that_passes_existence(monkeypatch):
    # one fit per (table, model whose MLE exists), the premise of the
    # benchmark's phase attribution test.  The row-minimum bound skips
    # nothing here: the first pass holds column 0 and the one maximal
    # model, [12,13,23], which has no MLE on any Korea support, and
    # column 0 bounds its submodels only below its own BIC, the least
    # first-pass BIC of the row
    space = enumerate_models(3, 2)
    calls = counted_fits(monkeypatch)
    restricted_bootstrap(KOREA, space, B=20, seed=3)
    tables = [KOREA, *resamples(KOREA, 3, 20),
              *(t for _, t in jackknife_tables(KOREA))]
    assert calls[0] == sum(1 for t in tables for m in space if fr_check(m, t))


def models(*notations):
    return [ModelSpec.from_notation(n, 3) for n in notations]


def test_two_passes_bounds_each_later_column_by_its_first_pass_supermodels():
    ranked = models("[13,23]", "[12]", "[1,23]", "[2,13]", "[1,2,3]", "[12,13]")
    # [1,23], [2,13] and [1,2,3] have a supermodel before them; [12,13]
    # has none, and bounds the two of its submodels before it as well
    assert _two_passes(ranked, "records") == (
        [0, 1, 5], [(2, 0), (3, 0), (3, 5), (4, 0), (4, 1), (4, 5)]
    )
    # column 1 is fitted first even below column 0
    assert _two_passes(models("[13,23]", "[1,23]", "[1,2,3]"), "records") == (
        [0, 1], [(2, 0), (2, 1)]
    )
    # no column below another: everything in the first pass
    assert _two_passes(models("[12]", "[13]", "[23]", "[12,13,23]"), "records") == (
        [0, 1, 2, 3], []
    )


def skips(bic_0, bic_1, penalties=(6.0, 4.0, 5.0)):
    """Whether column 2, a submodel of column 0, is skipped on one row."""
    bics = np.array([[bic_0, bic_1, np.inf]])
    return bool(_skipped(bics, np.array([penalties]), [(2, 0)], "records")[0, 2])


def test_skip_rule_on_exact_numbers():
    # the bound on column 2 is 100 - 6 + 5 = 99
    assert skips(100.0, 98.0)
    assert not skips(100.0, 99.5)
    # a tie with the least BIC before it is not enough
    assert not skips(100.0, 99.0)
    # nor is a lead inside the margin, 1e-9 of the larger BIC
    assert not skips(100.0, 99.0 - 1e-8)
    assert skips(100.0, 99.0 - 1e-6)
    assert not skips(1e12, 1e12 - 1 - 1e2)
    assert skips(1e12, 1e12 - 1 - 1e4)
    # an unconverged supermodel bounds nothing
    assert not skips(np.inf, 0.0)
    # the penalties of the pair's own row set the bound
    assert skips(100.0, 99.5, penalties=(6.0, 4.0, 5.9))


def test_nothing_is_skipped_while_no_column_before_it_is_finite():
    # a first-pass supermodel after the column bounds it, but no column
    # before it converged
    bics = np.array([[np.inf, np.inf, np.inf, 100.0]])
    penalties = np.array([[1.0, 1.0, 5.0, 6.0]])
    assert not _skipped(bics, penalties, [(2, 3)], "records").any()


def test_skip_uses_only_the_bounds_given():
    # column 1 would prove column 2 no record, but it is not a supermodel
    bics = np.array([[50.0, 100.0, np.inf]])
    penalties = np.array([[1.0, 6.0, 0.5]])
    assert not _skipped(bics, penalties, [(2, 0)], "records").any()
    assert _skipped(bics, penalties, [(2, 1)], "records")[0, 2]
