"""Every public fitting entry point checks that the extended MLE exists.

Unchecked, the IRLS reports ``converged`` on most pairs whose MLE does not
exist, with estimates up to 6e13 on the bundled sparse tables.  ``fit``,
``fit_group``, ``fit_groups`` and the two selectors must return no
estimate for such a pair, and the bootstrap drivers must never solve one.
"""

import numpy as np
import pytest

from mseboot import (
    CountTable,
    ExistenceCache,
    ModelSpec,
    chisq_bootstrap,
    diagnostics,
    downhill_bootstrap,
    enumerate_models,
    fit,
    fr_check,
    ntop_sweep,
    restricted_bootstrap,
    select_best_bic,
    select_by_chisq,
)
from mseboot import glm
from mseboot.glm import STATUS_FR_FAILED, fit_group, fit_groups

from conftest import TABLE1, random_table, unchecked_fits

SPACE = enumerate_models(4, 3)


def table1_tables():
    return [CountTable.from_counts(4, TABLE1[k]) for k in ("n1", "n2", "n3", "n4")]


def seeded_sparse_tables():
    rng = np.random.default_rng(5)
    return [random_table(rng, 4, zero_prob=0.5) for _ in range(25)]


@pytest.fixture(scope="module", params=["table1", "seeded_sparse"])
def no_mle_pairs(request):
    """(expected count, the (model, table) pairs whose MLE does not
    exist)."""
    if request.param == "table1":
        expected, tables = 164, table1_tables()
    else:
        expected, tables = 1843, seeded_sparse_tables()
    pairs = [(m, t) for t in tables for m in SPACE if not fr_check(m, t)]
    return expected, pairs


def assert_no_estimate(res):
    assert res.status == STATUS_FR_FAILED
    assert res.population_estimate is None and res.bic == float("inf")
    assert res.alpha == {} and res.mu == {}


def test_fit_and_fit_group_give_no_estimate(no_mle_pairs):
    expected, pairs = no_mle_pairs
    assert len(pairs) == expected
    for model, table in pairs:
        assert_no_estimate(fit(model, table))
        [res] = fit_group(model, [table])
        assert_no_estimate(res)


def test_fit_groups_gives_no_estimate(no_mle_pairs):
    _, pairs = no_mle_pairs
    # each problem twice over, on a table and its double, which shares its
    # support and so its verdict
    problems = [
        (m, [t, CountTable.from_counts(4, {w: 2 * n for w, n in t.counts.items()})])
        for m, t in pairs
    ]
    results = list(fit_groups(problems))
    assert len(results) == len(problems)
    for got in results:
        assert len(got) == 2
        for res in got:
            assert_no_estimate(res)


def test_fit_groups_equals_the_engine_where_the_mle_exists():
    def outcome(res):
        return (res.status, res.flags, res.bic, res.population_estimate,
                res.alpha, res.mu)

    tables = table1_tables() + seeded_sparse_tables()[:6]
    problems = [(m, [t]) for t in tables for m in SPACE.models[::4]]
    checked = list(fit_groups(problems))
    failed = 0
    for (model, [table]), [got], [raw] in zip(
        problems, checked, unchecked_fits(problems)
    ):
        if fr_check(model, table):
            assert outcome(got) == outcome(raw)
        else:
            assert_no_estimate(got)
            failed += 1
    assert 0 < failed < len(problems)


@pytest.mark.parametrize("name", ["table1", "seeded_sparse"])
def test_selectors_pick_only_models_whose_mle_exists(name):
    tables = table1_tables() if name == "table1" else seeded_sparse_tables()[:8]
    for table in tables:
        cache = ExistenceCache()
        model, res = select_best_bic(SPACE, table, cache)
        assert fr_check(model, table) and res.converged
        chosen = select_by_chisq(SPACE, table, 0.0, 1.0, cache)
        assert chosen is None or fr_check(chosen.model, table)


def test_one_fit_groups_call_makes_one_check_many_call(monkeypatch):
    calls = []
    real = ExistenceCache.check_many

    def counting(self, pairs):
        calls.append(len(pairs))
        return real(self, pairs)

    monkeypatch.setattr(ExistenceCache, "check_many", counting)
    table = table1_tables()[3]
    problems = [(m, [table]) for m in SPACE.models + SPACE.models[:10]]
    cache = ExistenceCache()
    results = list(fit_groups(problems, cache=cache))
    assert calls == [len(problems)]
    assert cache.hits + cache.misses == len(problems)
    assert cache.misses == len(SPACE)
    assert any(r.status == STATUS_FR_FAILED for [r] in results)
    assert any(r.converged for [r] in results)


def test_bootstrap_drivers_solve_only_problems_whose_mle_exists(monkeypatch):
    verdicts = {}

    def exists(model, table):
        key = (model.params, table.support)
        if key not in verdicts:
            verdicts[key] = fr_check(model, table)
        return verdicts[key]

    real = glm.solve_groups
    solved = []

    def checked_solve(problems, rows=None):
        for red, tables in problems:
            # a reduction keeps every parameter of its model, estimable or dead
            params = frozenset(red.theta_dagger) | red.minus_infinity_params
            model = ModelSpec(tables[0].t, params)
            assert exists(model, tables[0]), model.notation()
            solved.append(len(tables))
        return real(problems, rows)

    monkeypatch.setattr(glm, "solve_groups", checked_solve)
    table = CountTable.from_counts(4, TABLE1["n4"])
    space = enumerate_models(4, 2)
    cache = ExistenceCache()
    restricted_bootstrap(table, space, B=5, n_top=4, seed=1, cache=cache)
    ntop_sweep(table, space, B=5, n_top_high=4, seed=1, cache=cache)
    downhill_bootstrap(table, l=2, B=5, seed=1, cache=cache)
    chisq_bootstrap(table, space, B=5, seed=1, p_lo=0.0, p_hi=1.0, cache=cache)
    diagnostics(table, space, B=5, seed=1, ntop_grid=(1, 5), cache=cache)
    assert solved
    # the drivers met pairs with no MLE, and solved none of them
    assert not all(cache.verdicts.values())
