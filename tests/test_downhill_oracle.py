"""The lockstep downhill search against the frozen sequential search.

Every comparison is ``==``: searching many tables together must select
the same model, with the same BIC and estimate, as searching each table
alone, and must fit exactly the same (table, model) pairs, each once.
"""

import math

import numpy as np
import pytest

from mseboot import (
    CountTable,
    ExistenceCache,
    FitSettings,
    ModelSpec,
    glm,
    random_order2_starts,
)
from mseboot.bootstrap import (
    _downhill_selected,
    jackknife_tables,
    replicate_rng,
    resample,
)
from mseboot.modelspace import downhill_lockstep

from conftest import KOREA_COUNTS, TABLE1, random_table
from downhill_oracle import (
    oracle_best_over_starts,
    oracle_downhill_estimate,
    oracle_downhill_search,
)


def starts_for(t, n_random, seed):
    """The null model, then random order-2 starts as ``--starts`` draws them."""
    starts = [ModelSpec.null_model(t)]
    if n_random:
        n_pairs = min(5, t * (t - 1) // 2)
        rng = np.random.default_rng(seed)
        starts += random_order2_starts(t, n_pairs, n_random, rng)
    return starts


def with_resamples(table, n, seed):
    return [table] + [resample(table, replicate_rng(seed, i)) for i in range(n)]


def check_against_oracle(tables, l, starts, monkeypatch):
    """Compare every table's selection and fitted pairs; returns how many
    (model, support) pairs the lockstep search found without an MLE."""
    fitted = []
    real_fit = glm.fit

    def recording_fit(model, table, *args, **kwargs):
        fitted.append((id(table), model.params))
        return real_fit(model, table, *args, **kwargs)

    cache = ExistenceCache()
    with monkeypatch.context() as m:
        m.setattr(glm, "fit", recording_fit)
        got = _downhill_selected(tables, l, starts, cache, FitSettings())
    assert len(fitted) == len(set(fitted)), "a (table, model) pair was fitted twice"
    rejected = sum(not v for v in cache.verdicts.values())

    row = {id(t): i for i, t in enumerate(tables)}
    got_fitted = {(row[k], params) for k, params in fitted}
    want_fitted = set()
    assert len(got) == len(tables)
    for i, table in enumerate(tables):
        # the verdicts depend only on (model, support), so the oracle may
        # reuse the cache the lockstep search filled
        models = set()
        want = oracle_downhill_estimate(table, l, starts, cache, fitted=models)
        assert got[i] == want, f"table {i}"
        want_fitted |= {(i, params) for params in models}
    assert got_fitted == want_fitted
    return rejected


@pytest.mark.parametrize("n_random", [0, 2])
def test_korea_resamples_with_differing_supports(n_random, monkeypatch):
    table = CountTable.from_counts(3, KOREA_COUNTS)
    tables = with_resamples(table, 60, seed=1)
    tables += [jt for _, jt in jackknife_tables(table)]
    assert len({t.support for t in tables}) > 1
    check_against_oracle(tables, 2, starts_for(3, n_random, 11), monkeypatch)


@pytest.mark.parametrize("n_random", [0, 2])
def test_table1_with_existence_rejections(n_random, monkeypatch):
    tables = []
    for name, counts in sorted(TABLE1.items()):
        tables += with_resamples(CountTable.from_counts(4, counts), 5, seed=len(name))
    rejected = check_against_oracle(
        tables, 3, starts_for(4, n_random, 12), monkeypatch
    )
    assert rejected > 0


@pytest.mark.parametrize("n_random", [0, 2])
def test_sparse_random_tables_searched_together(n_random, monkeypatch):
    rng = np.random.default_rng(404)
    tables = [random_table(rng, 4, zero_prob=0.5) for _ in range(15)]
    assert len({t.support for t in tables}) > 1
    check_against_oracle(tables, 3, starts_for(4, n_random, 13), monkeypatch)


def dense_six_list_table(seed):
    """Dense 6-list table with a few pairwise interactions, every cell > 0."""
    rng = np.random.default_rng(seed)
    main = rng.uniform(-0.8, 0.0, 6)
    pairs = [(1 << i) | (1 << j) for i in range(6) for j in range(i + 1, 6)]
    inter = dict(zip(rng.choice(pairs, 4, replace=False).tolist(),
                     rng.uniform(0.3, 0.8, 4) * rng.choice([-1.0, 1.0], 4)))
    counts = {}
    for w in range(1, 64):
        eta = sum(a for i, a in enumerate(main) if w >> i & 1)
        eta += sum(g for p, g in inter.items() if w & p == p)
        counts[w] = int(rng.poisson(60.0 * math.exp(eta))) + 5
    return CountTable.from_counts(6, counts)


@pytest.mark.parametrize("n_random", [0, 2])
def test_dense_six_list_table(n_random, monkeypatch):
    table = dense_six_list_table(6)
    tables = with_resamples(table, 1, seed=6)
    tables += [jt for _, jt in jackknife_tables(table)][:2]
    check_against_oracle(tables, 2, starts_for(6, n_random, 14), monkeypatch)


def test_one_table_search_calls_the_fitter_as_the_oracle_does():
    table = CountTable.from_counts(4, TABLE1["n1"])
    cache = ExistenceCache()
    calls = {"got": [], "want": []}

    def fitter(key):
        def bic(model):
            calls[key].append(model.params)
            return next(glm.fit_pairs([(model, table)], cache=cache)).bic
        return bic

    start = ModelSpec.null_model(4)
    got = fitter("got")
    [found] = downhill_lockstep(1, [start], 3, lambda pairs: [got(m) for _, m in pairs])
    assert found == oracle_downhill_search(start, 3, fitter("want"))
    assert calls["got"] == calls["want"]


@pytest.mark.parametrize("t, l", [(4, 3), (5, 2)])
def test_ties_go_to_the_first_neighbour_and_the_first_start(t, l):
    # integer-valued BICs with infinite holes: many neighbours and many
    # local minima tie, which real fits almost never do
    rng = np.random.default_rng(t)
    terms = [m for m in range(1 << t) if 2 <= bin(m).count("1") <= l]
    scores = [dict(zip(terms, rng.integers(-2, 2, len(terms)).tolist()))
              for _ in range(6)]

    def bic(k, model):
        s = sum(scores[k].get(p, 0) for p in model.params)
        return math.inf if s == -3 else float(s)

    starts = starts_for(t, 4, seed=t)
    found = downhill_lockstep(
        len(scores), starts, l, lambda pairs: [bic(k, m) for k, m in pairs]
    )
    ties = 0
    for k, got in enumerate(found):
        assert got == oracle_best_over_starts(starts, l, lambda m: bic(k, m))
        ends = [oracle_downhill_search(s, l, lambda m: bic(k, m)) for s in starts]
        ties += len({e[1] for e in ends if e}) < len({e[0] for e in ends if e})
    assert ties > 0
