"""``glm.fit`` as a read of its solved row, against the eager body it
replaced, bit for bit.

``fit`` reads a row's scalars from ``GroupSolution.scalars`` (converted
once per group) and leaves ``alpha`` and ``mu`` to be built the first time
they are read; the BIC sums take their logarithms through
``np.frompyfunc(math.log)``.  Both are checked here against frozen copies
of the code they replaced, with ``==``.
"""

import dataclasses
import math

import numpy as np
import pytest

from mseboot import CountTable, enumerate_models
from mseboot import glm
from mseboot.bootstrap import downhill_bootstrap, ntop_sweep
from mseboot.glm import (
    STATUS_CONVERGED,
    STATUS_NOT_CONVERGED,
    FitResult,
    FitSettings,
    fit,
    pearson_chisq,
    solve_groups,
)

from conftest import KOREA_COUNTS, random_table, reduced
from test_stacked_irls import emptied_reduction, mixed_problems  # noqa: F401

FIELDS = ("model", "status", "alpha", "mu", "bic", "population_estimate",
          "deviance_change", "flags")


def eager_fit(model, table, settings, solved):
    """The body of ``glm.fit`` before it read rows lazily, kept unchanged."""
    solution, i = solved
    change = float(solution.change[i])
    if solution.flags[i] is not None:
        return FitResult(model, STATUS_NOT_CONVERGED, deviance_change=change,
                         flags=(solution.flags[i],))

    red = solution.reduced
    alpha = dict(zip(red.theta_dagger, solution.beta[i].tolist()))
    for th in red.minus_infinity_params:
        alpha[th] = -math.inf
    mu_map = dict(zip(red.omega_dagger, solution.mu[i].tolist()))
    bic = glm._bic(model, table, float(solution.neg_log_likelihood[i]), settings)
    m_hat = math.exp(alpha[0]) + table.n_total
    if solution.first_deviance[i] + 1e-8 < solution.deviance[i]:
        return FitResult(model, STATUS_NOT_CONVERGED, deviance_change=change,
                         flags=("deviance_increase",))
    return FitResult(
        model,
        STATUS_CONVERGED,
        alpha=alpha,
        mu=mu_map,
        bic=bic,
        population_estimate=m_hat,
        deviance_change=change,
    )


def frozen_neg_log_likelihood(counts, mu, log_factorials):
    """``glm._neg_log_likelihood`` with its list comprehension of
    ``math.log``, kept unchanged."""
    n_log_m = np.zeros_like(mu)
    positive = counts > 0
    n_log_m[positive] = counts[positive] * np.array(
        [math.log(m) for m in mu[positive].tolist()]
    )
    sums = np.cumsum((mu - n_log_m) + log_factorials, axis=1)
    return sums[:, -1] if sums.shape[1] else np.zeros(len(sums))


def same_value(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return type(a) is type(b) and a == b


def assert_same_result(got, want, table):
    for name in FIELDS:
        assert same_value(getattr(got, name), getattr(want, name)), name
    assert type(got.alpha) is dict and type(got.mu) is dict
    assert list(got.alpha.items()) == list(want.alpha.items())
    assert list(got.mu.items()) == list(want.mu.items())
    assert repr(got) == repr(want)
    if not math.isnan(want.deviance_change):
        assert got == want
    if want.converged:
        assert pearson_chisq(got, table) == pearson_chisq(want, table)


# the glm constants each case sets: 12 iterations leave rows diverged,
# settled and still iterating in one batch
@pytest.mark.parametrize("settings", [{}, {"MAX_ITER": 12}])
def test_row_reads_match_the_eager_fit(
    settings, emptied_reduction, monkeypatch  # noqa: F811
):
    for name, value in settings.items():
        monkeypatch.setattr(glm, name, value)
    problems = mixed_problems()
    flags = set()
    infinite = 0
    for (model, tables), solution in zip(problems, solve_groups(reduced(problems))):
        for i, table in enumerate(tables):
            got = fit(model, table, FitSettings(), (solution, i))
            assert_same_result(
                got, eager_fit(model, table, FitSettings(), (solution, i)), table
            )
            flags.add(got.flags)
            infinite += -math.inf in got.alpha.values()
    expected = {(), ("diverged",), ("parameter_redundant",), ("no_cells_left",)}
    if settings:
        expected.add(("max_iterations",))
    assert expected <= flags
    assert infinite


def test_deviance_increase_row_matches_the_eager_fit():
    table = CountTable.from_counts(3, KOREA_COUNTS)
    model = enumerate_models(3, 2).models[0]
    solution = solve_groups(reduced([(model, [table, table])]))[0]
    assert solution.flags == (None, None)
    # the first row's deviance rose across the iterations
    first = solution.first_deviance.copy()
    first[0] = solution.deviance[0] - 1.0
    risen = dataclasses.replace(solution, first_deviance=first)
    outcomes = []
    for i in range(2):
        got = fit(model, table, FitSettings(), (risen, i))
        assert_same_result(got, eager_fit(model, table, FitSettings(), (risen, i)),
                           table)
        outcomes.append((got.status, got.flags))
    assert outcomes == [(STATUS_NOT_CONVERGED, ("deviance_increase",)),
                        (STATUS_CONVERGED, ())]


def test_estimates_are_built_on_first_read_and_the_row_let_go():
    table = CountTable.from_counts(3, KOREA_COUNTS)
    model = enumerate_models(3, 2).models[-1]
    res = fit(model, table)
    assert res._row is not None
    alpha = res.alpha
    assert res._row is None and res.alpha is alpha and type(res.mu) is dict
    assert res == FitResult(model, res.status, alpha=dict(alpha), mu=dict(res.mu),
                            bic=res.bic, population_estimate=res.population_estimate,
                            deviance_change=res.deviance_change)


def test_keyword_construction_compares_and_prints_as_fields():
    model = enumerate_models(3, 2).models[0]
    res = FitResult(model, STATUS_CONVERGED, alpha={0: 1.5}, mu={1: 2.0}, bic=3.0,
                    population_estimate=4.0, deviance_change=0.0)
    assert res == FitResult(model, STATUS_CONVERGED, {0: 1.5}, {1: 2.0}, 3.0, 4.0, 0.0)
    assert res != FitResult(model, STATUS_CONVERGED, alpha={0: 1.5}, bic=3.0)
    assert repr(res) == (
        f"FitResult(model={model!r}, status='converged', alpha={{0: 1.5}}, "
        "mu={1: 2.0}, bic=3.0, population_estimate=4.0, deviance_change=0.0, "
        "flags=())"
    )
    empty = FitResult(model, glm.STATUS_FR_FAILED)
    assert (empty.alpha, empty.mu, empty.bic, empty.flags) == ({}, {}, math.inf, ())
    assert empty.alpha is not FitResult(model, glm.STATUS_FR_FAILED).alpha
    # fields compare as a tuple, as a dataclass's do: the default NaN is
    # one object, so equal to itself
    assert empty == FitResult(model, glm.STATUS_FR_FAILED)
    with pytest.raises(TypeError):
        hash(empty)


def random_rows(rng, rows, cells):
    counts = rng.poisson(3.0, size=(rows, cells)).astype(float)
    mu = rng.gamma(2.0, 3.0, size=(rows, cells))
    log_factorials = np.array(
        [[glm.log_factorial(int(n)) for n in row] for row in counts]
    )
    return counts, mu, log_factorials


# np.log differs from math.log in the last bit on about one value in ten
# thousand, so the largest case would show a vectorized log
@pytest.mark.parametrize("rows,cells", [(1, 7), (40, 15), (5, 1), (2000, 127)])
def test_neg_log_likelihood_matches_the_list_comprehension(rows, cells):
    rng = np.random.default_rng(rows * 100 + cells)
    args = random_rows(rng, rows, cells)
    assert np.array_equal(glm._neg_log_likelihood(*args),
                          frozen_neg_log_likelihood(*args))


@pytest.mark.parametrize("counts,mu", [
    # zero counts take no logarithm
    ([[0.0, 0.0, 0.0]], [[1.0, 2.0, 3.0]]),
    ([[0.0, 4.0, 0.0], [2.0, 0.0, 1.0]], [[1e-300, 3.5, 0.0], [7.0, 0.0, 1e300]]),
    # means at the ends of the double range
    ([[1.0, 3.0, 5.0]], [[1e-300, 5e-324, 2.2250738585072014e-308]]),
    ([[1.0, 3.0, 5.0]], [[1e300, 1e305, 1e-300]]),
])
def test_neg_log_likelihood_edge_rows(counts, mu):
    counts, mu = np.array(counts), np.array(mu)
    log_factorials = np.vectorize(lambda n: glm.log_factorial(int(n)))(counts)
    got = glm._neg_log_likelihood(counts, mu, log_factorials)
    assert got.dtype == np.float64
    assert np.array_equal(got, frozen_neg_log_likelihood(counts, mu, log_factorials))


@pytest.mark.parametrize("rows", [0, 3])
def test_neg_log_likelihood_zero_width_cell_axis(rows):
    empty = np.empty((rows, 0))
    got = glm._neg_log_likelihood(empty, empty, empty)
    assert np.array_equal(got, frozen_neg_log_likelihood(empty, empty, empty))
    assert got.shape == (rows,)


def test_neg_log_likelihood_of_a_zero_mean_raises_as_math_log():
    counts, mu = np.array([[2.0, 1.0]]), np.array([[3.0, 0.0]])
    with pytest.raises(ValueError) as want:
        frozen_neg_log_likelihood(counts, mu, np.zeros((1, 2)))
    with pytest.raises(ValueError) as got:
        glm._neg_log_likelihood(counts, mu, np.zeros((1, 2)))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("settings", [
    FitSettings(), FitSettings(sample_size="capture"),
])
def test_bic_from_mu_is_unchanged(settings):
    # a fit's BIC is the frozen sum over its fitted means
    rng = np.random.default_rng(11)
    converged = 0
    for _ in range(30):
        table = random_table(rng, 4, zero_prob=0.3)
        model = enumerate_models(4, 2).models[int(rng.integers(0, 20))]
        res = fit(model, table, settings)
        if not res.converged:
            continue
        converged += 1
        counts = [table.count(w) for w in res.mu]
        nll = frozen_neg_log_likelihood(
            np.array([counts], dtype=float),
            np.array([list(res.mu.values())], dtype=float),
            np.array([[glm.log_factorial(n) for n in counts]]),
        )
        assert res.bic == glm._bic(model, table, float(nll[0]), settings)
    assert converged > 10


def test_solution_arrays_are_read_only(emptied_reduction):  # noqa: F811
    problems = mixed_problems()
    for solution in solve_groups(reduced(problems)):
        for name in ("beta", "mu", "deviance", "neg_log_likelihood",
                     "first_deviance", "change"):
            a = getattr(solution, name)
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
            if a.size:
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[0] = 1.0


@pytest.fixture
def counted(monkeypatch):
    """Calls of ``glm.fit``, and the rows of the problems ``solve_groups``
    was given."""
    seen = {"fits": 0, "rows": 0}
    real_fit, real_solve = glm.fit, glm.solve_groups

    def counting_fit(model, table, settings=FitSettings(), solved=None):
        seen["fits"] += 1
        return real_fit(model, table, settings, solved)

    def counting_solve(problems, rows=None):
        seen["rows"] += sum(len(tables) for _, tables in problems)
        return real_solve(problems, rows)

    monkeypatch.setattr(glm, "fit", counting_fit)
    monkeypatch.setattr(glm, "solve_groups", counting_solve)
    return seen


def test_fit_is_called_once_per_solved_row_in_a_downhill_bootstrap(counted):
    rng = np.random.default_rng(4)
    table = random_table(rng, 4)
    downhill_bootstrap(table, l=2, B=4, seed=2)
    assert counted["fits"] == counted["rows"] > 0


def test_fit_is_called_once_per_solved_row_in_a_sweep(counted):
    table = CountTable.from_counts(3, KOREA_COUNTS)
    ntop_sweep(table, enumerate_models(3, 2), B=15, seed=6)
    assert counted["fits"] == counted["rows"] > 0

