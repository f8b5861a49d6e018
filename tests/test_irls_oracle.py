"""The grouped IRLS kernel against the frozen scalar loop, bit for bit.

Every comparison is ``==``: a fit that differs from the scalar loop in the
last bit can flip a bootstrap count and so change the printed intervals.
"""

import math
from collections import defaultdict

import numpy as np
import pytest

from mseboot import CountTable, ModelSpec, enumerate_models, glm
from mseboot.bootstrap import replicate_rng, resample
from mseboot._cephes import log_factorial
from mseboot.glm import FitSettings

import irls_oracle
from conftest import KOREA_COUNTS, TABLE1, random_table, unchecked_fits
from irls_oracle import oracle_bic_from_mu, oracle_fit

def bic_from_mu(model, table, mu, settings=FitSettings()):
    """The BIC of means ``mu`` (cell -> mean) as ``fit`` makes it from a
    solved row: ``glm._neg_log_likelihood`` on the row of those cells,
    then ``glm._bic``."""
    counts = [table.count(w) for w in mu]
    nll = glm._neg_log_likelihood(
        np.array([counts], dtype=float),
        np.array([list(mu.values())], dtype=float),
        np.array([[log_factorial(n) for n in counts]]),
    )
    return glm._bic(model, table, float(nll[0]), settings)


FIXTURES = {"korea": (3, KOREA_COUNTS)} | {
    f"table1_{k}": (4, v) for k, v in TABLE1.items()
}


def test_irls_limits_are_the_oracles():
    # no fixture iterates long enough to reach the iteration cap, so the
    # fit comparisons alone would not see it move
    names = ("MAX_ITER", "REL_TOL", "ABS_TOL", "ALPHA_FLOOR")
    assert [getattr(glm, n) for n in names] == [getattr(irls_oracle, n) for n in names]


def outcome(res):
    return (res.status, res.flags, res.bic, res.population_estimate, res.alpha, res.mu)


def by_support(tables):
    groups = defaultdict(list)
    for t in tables:
        groups[t.support].append(t)
    return list(groups.values())


def check_against_oracle(table, models, n_resamples, seed):
    """Compare one table alone, then its resamples grouped by support.

    Returns the number of (model, group) pairs whose rows ended with more
    than one outcome.
    """
    groups = by_support(
        [resample(table, replicate_rng(seed, i)) for i in range(n_resamples)]
    )
    mixed = 0
    for model in models:
        [[alone]] = unchecked_fits([(model, [table])])
        assert outcome(alone) == outcome(oracle_fit(model, table))
        for group in groups:
            [got] = unchecked_fits([(model, group)])
            assert len(got) == len(group)
            for t, res in zip(group, got):
                assert outcome(res) == outcome(oracle_fit(model, t))
            mixed += len({(r.status, r.flags) for r in got}) > 1
    return mixed


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_matches_oracle(name):
    t, counts = FIXTURES[name]
    table = CountTable.from_counts(t, counts)
    check_against_oracle(table, enumerate_models(t, t - 1).models, 6, seed=len(name))


def test_sparse_random_tables_match_oracle_without_existence_gate():
    # no existence check: these tables give diverged and redundant fits
    # next to converged ones, sometimes within one support group
    rng = np.random.default_rng(2024)
    models = enumerate_models(4, 3).models[::6]
    mixed = 0
    outcomes = set()
    for k in range(15):
        table = random_table(rng, 4, zero_prob=0.5)
        mixed += check_against_oracle(table, models, 4, seed=k)
        outcomes |= {r.flags for [r] in unchecked_fits((m, [table]) for m in models)}
    assert mixed > 0
    assert {(), ("diverged",), ("parameter_redundant",)} <= outcomes


def test_wide_dense_table_matches_oracle():
    # tall 63-cell systems with 7 to 14 columns, the shape of a downhill
    # search on six lists
    rng = np.random.default_rng(66)
    table = random_table(rng, 6, mean=6.0)
    assert len(table.support) == 63
    by_size = defaultdict(list)
    for m in enumerate_models(6, 2).models:
        by_size[len(m.params)].append(m)
    # one model of each size from the null model's 7 parameters to 14
    chosen = [by_size[k][int(rng.integers(len(by_size[k])))] for k in range(7, 15)]
    assert check_against_oracle(table, chosen, 12, seed=6) == 0


@pytest.mark.parametrize("settings", [
    FitSettings(),
    FitSettings(sample_size="capture"),
])
def test_bic_from_mu_matches_oracle(settings):
    # counts up to 20000 and fitted means that are not the counts
    rng = np.random.default_rng(7)
    model = ModelSpec.from_notation("[12,13]", 3)
    for scale in (1, 30, 1000, 20000):
        counts = {m: int(rng.integers(0, scale + 1)) for m in range(1, 8)}
        counts[1] = max(counts[1], 1)
        table = CountTable.from_counts(3, counts)
        mu = {m: float(rng.uniform(0.1, 2.0)) * (n + 0.5) for m, n in counts.items()}
        assert bic_from_mu(model, table, mu, settings) == (
            oracle_bic_from_mu(model, table, mu, settings)
        )


def test_bic_from_mu_takes_logarithms_as_the_scalar_loop_does():
    # np.log and math.log disagree in the last bit on about one value in
    # ten thousand on some CPUs; try fitted means where they do
    rng = np.random.default_rng(11)
    values = rng.uniform(1.0, 5000.0, 100_000)
    odd = [v for v, a in zip(values.tolist(), np.log(values).tolist())
           if a != math.log(v)]
    model = ModelSpec.from_notation("[12,13]", 3)
    for v in odd[:20] + values[:5].tolist():
        counts = {m: 3 * m for m in range(1, 8)} | {1: max(1, round(v))}
        table = CountTable.from_counts(3, counts)
        mu = {m: n + 0.25 for m, n in counts.items()} | {1: v}
        assert bic_from_mu(model, table, mu) == oracle_bic_from_mu(model, table, mu)
