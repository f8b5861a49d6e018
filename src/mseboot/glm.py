"""Poisson loglinear fitting, BIC, and model selection criteria.

Fitting uses iteratively reweighted least squares with a log link after
the sparsity reduction: parameters whose marginal count is zero are
recorded as -inf and the cells forced to zero by them are dropped before
the numerical fit.  Estimates therefore live in [-inf, inf).

Tables that share a support share the reduction and the design matrix,
so ``solve_group`` fits one model to a whole group of them in a single
IRLS run; ``fit`` is its one-table case.  Each table's least-squares step
is still its own LAPACK ``dgelsd`` solve, as ``scipy.linalg.lstsq``
would make it; numpy's stacked ``lstsq`` kernel makes the solves of all
rows in one call per iteration.  Normal equations would be faster and
would change the last bits of the estimates.

The BIC is likewise the scalar loop's, bit for bit: logarithms come from
``math.log`` (``np.log`` differs from it in the last bit on about one
value in several thousand) and each table's terms are added left to
right, which neither ``np.sum`` (pairwise) nor Python 3.12's ``sum``
(compensated) does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg
from scipy import special

from .core import CountTable, ModelSpec, canonical_key, marginal_count

STATUS_CONVERGED = "converged"
STATUS_NOT_CONVERGED = "not_converged"
STATUS_FR_FAILED = "fr_failed"


class NoModelFoundError(Exception):
    """Every candidate model was assigned an infinite BIC."""


@dataclass(frozen=True)
class FitSettings:
    max_iter: int = 100
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    alpha_floor: float = -30.0
    # BIC sample size: "case" uses the number of observed cases, "capture"
    # the number of observable cells 2^t - 1.
    sample_size: str = "case"
    # Count all model parameters in the BIC penalty, or only the ones
    # actually estimated (the -inf ones excluded).
    count_all_params: bool = True


@dataclass(frozen=True)
class ReducedProblem:
    """Outcome of the sparsity reduction for one (model, table) pair."""

    theta_dagger: tuple[int, ...]
    omega_dagger: tuple[int, ...]
    minus_infinity_params: frozenset[int]


@dataclass(frozen=True)
class FitResult:
    model: ModelSpec
    status: str
    alpha: dict[int, float] = field(default_factory=dict)
    mu: dict[int, float] = field(default_factory=dict)
    bic: float = math.inf
    population_estimate: float | None = None
    deviance_change: float = math.nan
    flags: tuple[str, ...] = ()

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def reduce_for_sparsity(model: ModelSpec, table: CountTable) -> ReducedProblem:
    """Split parameters into estimable ones and those fixed at -inf.

    A parameter is dropped when no observed case includes all its lists;
    every cell containing such a parameter is removed too (those cells
    necessarily hold zero counts).
    """
    dead = frozenset(
        theta for theta in model.params if marginal_count(table, theta) == 0
    )
    theta_dagger = tuple(
        sorted((p for p in model.params if p not in dead), key=canonical_key)
    )
    omega_dagger = tuple(
        w
        for w in sorted(range(1, 1 << table.t), key=canonical_key)
        if not any(d & w == d for d in dead)
    )
    return ReducedProblem(theta_dagger, omega_dagger, dead)


def containment(omega: Sequence[int], theta: Sequence[int]) -> np.ndarray:
    """Boolean cells x parameters array: parameter j is contained in cell i."""
    theta = np.asarray(theta, dtype=np.int64)
    return (np.asarray(omega, dtype=np.int64)[:, None] & theta) == theta


def design_matrix(omega: Sequence[int], theta: Sequence[int]) -> np.ndarray:
    """0/1 incidence of parameter-contained-in-cell."""
    return containment(omega, theta).astype(float)


def _poisson_deviance(y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Deviance of each row (the last axis holds the cells)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ylogy = np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0) / mu), 0.0)
    return 2.0 * np.sum(ylogy - (y - mu), axis=-1)


def log_likelihood(y: np.ndarray, mu: np.ndarray) -> float:
    """Poisson log-likelihood including the factorial normalizer."""
    with np.errstate(divide="ignore"):
        term = np.where(y > 0, y * np.log(mu), 0.0)
    return float(np.sum(term - mu - special.gammaln(y + 1)))


def _neg_log_likelihood(counts: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Each row's sum over its cells of m - n log m + log n!.

    ``math.log`` takes the logarithms, of the positive-count cells only,
    because ``np.log`` differs from it in the last bit on a few values.
    The terms are added left to right (``cumsum``), not pairwise as
    ``np.sum`` adds them, so every row is the scalar loop's sum.
    """
    n_log_m = np.zeros_like(mu)
    positive = counts > 0
    n_log_m[positive] = counts[positive] * np.array(
        [math.log(m) for m in mu[positive].tolist()]
    )
    sums = np.cumsum((mu - n_log_m) + special.gammaln(counts + 1), axis=1)
    return sums[:, -1] if sums.shape[1] else np.zeros(len(sums))


def _bic(
    model: ModelSpec,
    table: CountTable,
    neg_log_likelihood: float,
    settings: FitSettings,
    n_estimated: int | None,
) -> float:
    """Parameter-count penalty plus twice the negative log-likelihood."""
    if settings.sample_size == "case":
        size = table.n_total
    elif settings.sample_size == "capture":
        size = (1 << table.t) - 1
    else:
        raise ValueError(f"unknown sample size convention {settings.sample_size!r}")
    if settings.count_all_params or n_estimated is None:
        n_params = len(model.params)
    else:
        n_params = n_estimated
    return n_params * math.log(size) + 2.0 * neg_log_likelihood


def bic_from_mu(
    model: ModelSpec,
    table: CountTable,
    mu: dict[int, float],
    settings: FitSettings = FitSettings(),
    n_estimated: int | None = None,
) -> float:
    """BIC: parameter-count penalty plus twice the negative log-likelihood.

    Cells outside the fitted set contribute nothing (their count and
    fitted mean are both zero).  This is the one-row case of the BIC
    ``solve_group`` computes for a whole group.
    """
    counts = np.array([[table.count(w) for w in mu]], dtype=float)
    nll = _neg_log_likelihood(counts, np.array([list(mu.values())], dtype=float))
    return _bic(model, table, float(nll[0]), settings, n_estimated)


# numpy's stacked dgelsd: one LAPACK solve per row, with the tolerance
# scipy.linalg.lstsq passes for float64 input
_LSTSQ = _umath_linalg.lstsq
_RCOND = np.finfo(np.float64).eps


def _least_squares_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution of ``A[k] x = b[k]`` for every k, as rows.

    Every row is its own LAPACK ``dgelsd`` solve, all made by one call.
    """
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    # a row whose SVD does not converge comes back as NaN
    with np.errstate(invalid="ignore"):
        x = _LSTSQ(A, b[:, :, None], _RCOND)[0][:, :, 0]
    if np.isnan(x).any():
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    return x


@dataclass(frozen=True)
class GroupSolution:
    """IRLS outcome of one model on tables sharing a support; row i is
    table i.

    ``flags[i]`` is None when the deviance of row i settled, otherwise the
    reason its iteration stopped.  ``beta``, ``mu`` and ``deviance`` hold
    the final iterate of the settled rows and ``neg_log_likelihood`` the
    sum their BIC is made of (NaN elsewhere); ``change`` is each row's
    last deviance change.
    """

    reduced: ReducedProblem
    flags: tuple[str | None, ...]
    beta: np.ndarray  # (tables, estimable parameters)
    mu: np.ndarray  # (tables, retained cells)
    deviance: np.ndarray
    neg_log_likelihood: np.ndarray
    first_deviance: np.ndarray
    change: np.ndarray


def _stopped(red: ReducedProblem, rows: int, flag: str) -> GroupSolution:
    """A group none of whose rows can be iterated."""
    nan = np.full(rows, np.nan)
    empty = np.empty((rows, 0))
    return GroupSolution(red, (flag,) * rows, empty, empty, nan, nan, nan, nan)


def solve_group(
    model: ModelSpec,
    tables: Sequence[CountTable],
    settings: FitSettings = FitSettings(),
) -> GroupSolution:
    """IRLS for one model on every table of a group sharing one support.

    The reduction, design matrix and rank check depend only on the
    support, so they are computed once.  The elementwise steps run on a
    (tables, cells) array, and each row's weighted least-squares step is
    still its own LAPACK ``dgelsd`` solve, made for all rows in one numpy
    call per iteration, so every row is the result the loop would give on
    that table alone.  Rows leave the iteration as they converge or
    diverge.  The BIC sums of the settled rows are computed together at
    the end, bit for bit as ``bic_from_mu`` gives them (``math.log``, and
    a left-to-right sum over the cells).
    """
    if not tables:
        raise ValueError("cannot fit an empty group")
    # counts are stored in canonical cell order, so tables sharing a
    # support list their cells in the same order
    cells = list(tables[0].counts)
    if any(list(t.counts) != cells for t in tables):
        raise ValueError("tables fitted as a group must share one support")
    if tables[0].n_total == 0:
        raise ValueError("cannot fit an empty table")
    red = reduce_for_sparsity(model, tables[0])
    rows = len(tables)
    if not red.omega_dagger:
        return _stopped(red, rows, "no_cells_left")
    X = design_matrix(red.omega_dagger, red.theta_dagger)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        return _stopped(red, rows, "parameter_redundant")
    # every positive cell is retained: a dead parameter has no positive
    # cell containing it
    column = {w: k for k, w in enumerate(red.omega_dagger)}
    Y = np.zeros((rows, len(red.omega_dagger)))
    Y[:, [column[w] for w in cells]] = [list(t.counts.values()) for t in tables]

    # strictly positive working means for the log link; the first solve
    # lands on an actual model fit and deviance is tracked from there.
    # y, m, d and prev hold the rows still iterating; idx maps them to tables
    beta = np.zeros((rows, X.shape[1]))
    mu = np.zeros((rows, X.shape[0]))
    dev = np.full(rows, np.inf)
    first_dev = np.full(rows, np.nan)
    change = np.full(rows, np.nan)
    flags: list[str | None] = ["max_iterations"] * rows
    idx = np.arange(rows)
    y, m, prev = Y, Y + 0.5, None
    for _ in range(settings.max_iter):
        if not idx.size:
            break
        z = np.log(m) + (y - m) / m
        sw = np.sqrt(m)
        step = _least_squares_rows(X * sw[:, :, None], z * sw)
        diverged = step.min(axis=1) < settings.alpha_floor
        if diverged.any():
            for r in idx[diverged]:
                flags[r] = "diverged"
            keep = ~diverged
            idx, y, step = idx[keep], y[keep], step[keep]
            prev = None if prev is None else prev[keep]
        m = np.exp(np.matmul(X, step[:, :, None])[..., 0])
        d = _poisson_deviance(y, m)
        if prev is None:
            first_dev[idx] = d
        else:
            ch = np.abs(d - prev)
            change[idx] = ch
            settled = (ch < settings.abs_tol) | (
                ch < settings.rel_tol * np.maximum(1.0, np.abs(prev))
            )
            if settled.any():
                done = idx[settled]
                for r in done:
                    flags[r] = None
                beta[done], mu[done], dev[done] = step[settled], m[settled], d[settled]
                keep = ~settled
                idx, y, m, d = idx[keep], y[keep], m[keep], d[keep]
        prev = d
    nll = np.full(rows, np.nan)
    settled = np.array([f is None for f in flags])
    nll[settled] = _neg_log_likelihood(Y[settled], mu[settled])
    return GroupSolution(red, tuple(flags), beta, mu, dev, nll, first_dev, change)


def fit(
    model: ModelSpec,
    table: CountTable,
    settings: FitSettings = FitSettings(),
    solved: tuple[GroupSolution, int] | None = None,
) -> FitResult:
    """Extended maximum likelihood fit of one model by IRLS.

    This is the one-table case of ``solve_group``.  ``solved`` passes a
    group solution that already holds ``table`` at the given row; the
    result is then read from that row instead of solving again.

    Callers normally verify the existence criterion first; without it the
    fit may diverge, which is detected via the coefficient floor and
    reported as non-convergence.
    """
    solution, i = solved if solved is not None else (
        solve_group(model, [table], settings), 0
    )
    change = float(solution.change[i])
    if solution.flags[i] is not None:
        return FitResult(model, STATUS_NOT_CONVERGED, deviance_change=change,
                         flags=(solution.flags[i],))

    red = solution.reduced
    alpha = dict(zip(red.theta_dagger, solution.beta[i].tolist()))
    for th in red.minus_infinity_params:
        alpha[th] = -math.inf
    mu_map = dict(zip(red.omega_dagger, solution.mu[i].tolist()))
    bic = _bic(model, table, float(solution.neg_log_likelihood[i]), settings,
               len(red.theta_dagger))
    m_hat = math.exp(alpha[0]) + table.n_total
    if solution.first_deviance[i] + 1e-8 < solution.deviance[i]:
        # deviance must not increase across IRLS iterations
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


def fit_group(
    model: ModelSpec,
    tables: Sequence[CountTable],
    settings: FitSettings = FitSettings(),
) -> list[FitResult]:
    """``fit`` on every table of a group sharing one support, with a single
    IRLS run for the whole group.  Each table's result is still made by a
    call to ``fit``, so anything wrapping ``fit`` sees one call per table."""
    solution = solve_group(model, tables, settings)
    return [fit(model, t, settings, (solution, i)) for i, t in enumerate(tables)]


def fit_or_reject(
    model: ModelSpec,
    table: CountTable,
    existence_checker: Callable[[ModelSpec, CountTable], bool] | None,
    settings: FitSettings = FitSettings(),
) -> FitResult:
    """Fit with the existence criterion applied first.  Without a checker
    existence is decided on a fresh ``ExistenceCache``."""
    exists = _checked(existence_checker, [model], table)
    if not exists(model, table):
        return FitResult(model, STATUS_FR_FAILED)
    return fit(model, table, settings)


def _checked(
    existence_checker: Callable[[ModelSpec, CountTable], bool] | None,
    candidates: Sequence[ModelSpec],
    table: CountTable,
) -> Callable[[ModelSpec, CountTable], bool]:
    """``existence_checker``, or when it is None the verdicts of one
    ``check_many`` over the candidates on a fresh cache."""
    if existence_checker is not None:
        return existence_checker
    # existence imports this module's sparsity reduction
    from .existence import ExistenceCache

    exists = ExistenceCache().check_many([(m, table) for m in candidates])
    verdicts = dict(zip((m.params for m in candidates), exists))
    return lambda model, _: verdicts[model.params]


def select_best_bic(
    candidates: Iterable[ModelSpec],
    table: CountTable,
    existence_checker: Callable[[ModelSpec, CountTable], bool] | None = None,
    settings: FitSettings = FitSettings(),
) -> tuple[ModelSpec, FitResult]:
    """Fit every candidate and return the BIC minimizer.

    Candidates failing the existence check or the fit get an infinite
    BIC; without a checker existence is decided as in ``fit_or_reject``,
    for all candidates in one batch.  Ties go to the earliest candidate
    in the given (canonical) order.  Raises NoModelFoundError when
    nothing attains a finite BIC.
    """
    candidates = list(candidates)
    exists = _checked(existence_checker, candidates, table)
    best: tuple[ModelSpec, FitResult] | None = None
    for model in candidates:
        res = fit_or_reject(model, table, exists, settings)
        if res.bic < (best[1].bic if best is not None else math.inf):
            best = (model, res)
    if best is None or math.isinf(best[1].bic):
        raise NoModelFoundError("no candidate model has a finite BIC")
    return best


@dataclass(frozen=True)
class ChisqResult:
    model: ModelSpec
    fit: FitResult
    statistic: float
    df: int
    p_value: float

    @property
    def ratio(self) -> float:
        return self.statistic / self.df


def pearson_chisq(fit_result: FitResult, table: CountTable) -> tuple[float, int]:
    """Pearson goodness-of-fit statistic and residual degrees of freedom."""
    if not fit_result.converged:
        raise ValueError("chi-squared statistic requires a converged fit")
    stat = sum(
        (table.count(w) - m) ** 2 / m for w, m in fit_result.mu.items()
    )
    n_estimated = sum(1 for a in fit_result.alpha.values() if math.isfinite(a))
    df = len(fit_result.mu) - n_estimated
    return float(stat), df


def select_by_chisq(
    candidates: Iterable[ModelSpec],
    table: CountTable,
    p_lo: float = 0.05,
    p_hi: float = 0.3,
    existence_checker: Callable[[ModelSpec, CountTable], bool] | None = None,
    settings: FitSettings = FitSettings(),
) -> ChisqResult | None:
    """Choose the model minimizing chi-squared per degree of freedom
    among those whose goodness-of-fit p-value falls in [p_lo, p_hi].

    Models with no residual degrees of freedom are never candidates.
    Without a checker existence is decided as in ``select_best_bic``.
    Returns None when the window admits no model at all.
    """
    if not 0.0 <= p_lo <= p_hi <= 1.0:
        raise ValueError(f"invalid p-value window [{p_lo}, {p_hi}]")
    candidates = list(candidates)
    exists = _checked(existence_checker, candidates, table)
    best: ChisqResult | None = None
    for model in candidates:
        res = fit_or_reject(model, table, exists, settings)
        if not res.converged:
            continue
        stat, df = pearson_chisq(res, table)
        if df <= 0:
            continue
        p = float(special.chdtrc(df, stat))
        if not p_lo <= p <= p_hi:
            continue
        cand = ChisqResult(model, res, stat, df, p)
        if best is None or cand.ratio < best.ratio:
            best = cand
    return best
