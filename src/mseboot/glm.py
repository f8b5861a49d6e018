"""Poisson loglinear fitting, BIC, and model selection criteria.

Fitting uses iteratively reweighted least squares with a log link after
the sparsity reduction: parameters whose marginal count is zero are
recorded as -inf and the cells forced to zero by them are dropped before
the numerical fit.  Estimates therefore live in [-inf, inf).

Tables that share a support share the reduction and the design matrix,
so ``solve_group`` fits one model to a whole group of them; ``fit`` is
its one-table case.  ``solve_groups`` takes many such (model, group)
problems at once and stacks those whose designs have the same shape
(retained cells x estimable parameters), whatever their model or
support: one IRLS run iterates a whole stack, one design and one count
vector per row.  ``solve_group`` is its one-problem case, so there is
one IRLS loop.  Each row's least-squares step is still its own LAPACK
``dgelsd`` solve, as ``scipy.linalg.lstsq`` would make it, and its own
matrix-vector product; numpy's stacked ``lstsq`` kernel makes the solves
of all rows in one call per iteration.  Normal equations would be
faster and would change the last bits of the estimates.

A call on a stack of at least ``SPLIT_ELEMENTS`` design elements is cut
into contiguous chunks of rows, one per CPU the process may use (its
affinity mask, ``os.sched_getaffinity``, which ``taskset`` limits): the
calling thread solves the first chunk and a thread pool, made on the
first split, the others, at the same time, as the kernel releases the
GIL; a chunk no pool thread has started by the time the calling thread
is done is solved by the calling thread.  The pool runs nothing but the
kernel.  A row's solve does not depend on the other rows of its call, so
the output is the same for any CPU count, bit for bit; on one CPU nothing
is split and no pool is made.

The BIC is likewise the scalar loop's, bit for bit: logarithms come from
``math.log`` (``np.log`` differs from it in the last bit on about one
value in several thousand), each ``log n!`` from ``_cephes`` (the
double ``scipy.special.gammaln(n + 1)`` gives, taken once per table as
``CountTable.log_factorials``), and each table's terms are added left to
right, which neither ``np.sum`` (pairwise) nor Python 3.12's ``sum``
(compensated) does.
"""

from __future__ import annotations

import math
import os
from concurrent import futures
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from ._cephes import log_factorial
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


@cache
def canonical_cells(t: int) -> tuple[int, ...]:
    """The 2^t - 1 non-empty histories of t lists, in canonical order."""
    return tuple(sorted(range(1, 1 << t), key=canonical_key))


def reduce_for_sparsity(model: ModelSpec, table: CountTable) -> ReducedProblem:
    """Split parameters into estimable ones and those fixed at -inf.

    A parameter is dropped when no observed case includes all its lists;
    every cell containing such a parameter is removed too (those cells
    necessarily hold zero counts).
    """
    # a parameter that is itself a positive cell has a positive marginal
    dead = frozenset(
        theta
        for theta in model.params
        if table.counts.get(theta, 0) <= 0 and marginal_count(table, theta) == 0
    )
    theta_dagger = tuple(p for p in model.sorted_params if p not in dead)
    omega_dagger = canonical_cells(table.t)
    if dead:
        omega_dagger = tuple(
            w for w in omega_dagger if not any(d & w == d for d in dead)
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
    """Poisson log-likelihood including the factorial normalizer, for any
    real ``y`` (log y! is log Gamma(y + 1))."""
    # imported here: scipy.special is a large share of the package's import
    # time, and the fit and the BIC need log n! at integers only
    from scipy import special

    with np.errstate(divide="ignore"):
        term = np.where(y > 0, y * np.log(mu), 0.0)
    return float(np.sum(term - mu - special.gammaln(y + 1)))


def _neg_log_likelihood(
    counts: np.ndarray, mu: np.ndarray, log_factorials: np.ndarray
) -> np.ndarray:
    """Each row's sum over its cells of m - n log m + log n!, where
    ``log_factorials`` holds each cell's log n!.

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
    sums = np.cumsum((mu - n_log_m) + log_factorials, axis=1)
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
    counts = [table.count(w) for w in mu]
    nll = _neg_log_likelihood(
        np.array([counts], dtype=float),
        np.array([list(mu.values())], dtype=float),
        np.array([[log_factorial(n) for n in counts]]),
    )
    return _bic(model, table, float(nll[0]), settings, n_estimated)


# numpy's stacked dgelsd: one LAPACK solve per row, with the tolerance
# scipy.linalg.lstsq passes for float64 input
_LSTSQ = _umath_linalg.lstsq
_RCOND = np.finfo(np.float64).eps

# fewest design elements (rows x cells x parameters) of a least-squares
# stack whose rows are split across the CPUs; a smaller stack is solved
# by one call, as handing a chunk to another thread costs more than it
# saves.  Replaying the stacks of the three benchmark workloads on 2 CPUs,
# thresholds from 2,000 to 3,000 gave the least total solve time
SPLIT_ELEMENTS = 2_000

# (process id, pool): a forked child inherits the pool without its
# threads, so it makes its own
_pool: tuple[int, futures.ThreadPoolExecutor] | None = None


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, which ``taskset``
    limits."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor() -> futures.ThreadPoolExecutor:
    """The pool that solves all chunks but the first, made on first use.

    Threads that race here may each make a pool; the one not kept is
    collected once its chunks are solved, and its threads exit.
    """
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = (os.getpid(), futures.ThreadPoolExecutor(max(_cpu_count() - 1, 1)))
    return _pool[1]


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_LSTSQ`` on rows ``b`` of shape (rows, cells, 1)."""
    # a row whose SVD does not converge comes back as NaN, and
    # ``np.errstate`` holds only in the thread that enters it
    with np.errstate(invalid="ignore"):
        return _LSTSQ(A, b, _RCOND)[0][:, :, 0]


def _least_squares_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution of ``A[k] x = b[k]`` for every k, as rows.

    Every row is its own LAPACK ``dgelsd`` solve.  A stack of at least
    ``SPLIT_ELEMENTS`` elements is cut into contiguous chunks of rows, one
    per CPU: this thread solves the first and a thread pool the others,
    at the same time (the kernel releases the GIL).  A row's solve does
    not depend on the other rows of its call, so the result is the same
    for any number of chunks and whichever thread solves them, bit for
    bit.
    """
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    b = b[:, :, None]
    chunks = min(_cpu_count(), len(A)) if A.size >= SPLIT_ELEMENTS else 1
    if chunks < 2:
        x = _solve(A, b)
    else:
        ends = [len(A) * k // chunks for k in range(chunks + 1)]
        pool = _executor()
        rest = [
            pool.submit(_solve, A[lo:hi], b[lo:hi])
            for lo, hi in zip(ends[1:-1], ends[2:])
        ]
        parts = []
        # every chunk is done with A and b before this returns or raises
        try:
            parts.append(_solve(A[:ends[1]], b[:ends[1]]))
        finally:
            for f, lo, hi in zip(rest, ends[1:-1], ends[2:]):
                # a chunk no pool thread has started (its CPU is busy) is
                # solved here rather than waited for
                parts.append(_solve(A[lo:hi], b[lo:hi]) if f.cancel() else f.result())
        x = np.concatenate(parts)
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


# most elements (rows x cells x parameters) of the stacked design one IRLS
# run holds; a single group larger than this is still solved whole
STACK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class _Posed:
    """A group ready to iterate: its design, and its counts and their log
    factorials, one row per table, in the order of the retained cells."""

    reduced: ReducedProblem
    X: np.ndarray  # (retained cells, estimable parameters)
    Y: np.ndarray  # (tables, retained cells)
    log_factorials: np.ndarray  # like Y


def _pose(model: ModelSpec, tables: Sequence[CountTable]) -> _Posed | GroupSolution:
    """Reduction, design and counts of one group, or its solution when no
    row can be iterated."""
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
    if not red.omega_dagger:
        return _stopped(red, len(tables), "no_cells_left")
    X = design_matrix(red.omega_dagger, red.theta_dagger)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        return _stopped(red, len(tables), "parameter_redundant")
    # every positive cell is retained: a dead parameter has no positive
    # cell containing it
    column = {w: k for k, w in enumerate(red.omega_dagger)}
    positive = [column[w] for w in cells]
    Y = np.zeros((len(tables), len(red.omega_dagger)))
    Y[:, positive] = [list(t.counts.values()) for t in tables]
    # a retained zero cell adds log 0! = 0
    log_factorials = np.zeros_like(Y)
    log_factorials[:, positive] = [t.log_factorials for t in tables]
    return _Posed(red, X, Y, log_factorials)


def _stacks(posed: dict[int, _Posed]) -> Iterator[list[int]]:
    """Keys of the groups each IRLS run takes: groups of one design shape,
    up to ``STACK_ELEMENTS`` elements in all unless one group alone is
    larger."""
    by_shape: dict[tuple[int, int], list[int]] = {}
    for k, p in posed.items():
        by_shape.setdefault(p.X.shape, []).append(k)
    for (cells, params), keys in by_shape.items():
        stack: list[int] = []
        size = 0
        for k in keys:
            n = len(posed[k].Y) * cells * params
            if stack and size + n > STACK_ELEMENTS:
                yield stack
                stack, size = [], 0
            stack.append(k)
            size += n
        yield stack


def _irls(X: np.ndarray, Y: np.ndarray, settings: FitSettings) -> tuple:
    """IRLS on every row of a stack: row k fits counts ``Y[k]`` with design
    ``X[k]``.

    ``X`` must be C-contiguous: numpy's ``matmul`` takes another path on
    another layout, and that path moves the fitted means in the last bit.
    Returns the fields of ``GroupSolution`` after ``reduced``, for all rows,
    without ``neg_log_likelihood``.
    """
    rows = len(Y)
    # strictly positive working means for the log link; the first solve
    # lands on an actual model fit and deviance is tracked from there.
    # x, y, m, d and prev hold the rows still iterating; idx maps them to
    # rows of the stack
    beta = np.zeros((rows, X.shape[2]))
    mu = np.zeros((rows, X.shape[1]))
    dev = np.full(rows, np.inf)
    first_dev = np.full(rows, np.nan)
    change = np.full(rows, np.nan)
    flags: list[str | None] = ["max_iterations"] * rows
    idx = np.arange(rows)
    x, y, m, prev = X, Y, Y + 0.5, None
    for _ in range(settings.max_iter):
        if not idx.size:
            break
        z = np.log(m) + (y - m) / m
        sw = np.sqrt(m)
        step = _least_squares_rows(x * sw[:, :, None], z * sw)
        diverged = step.min(axis=1) < settings.alpha_floor
        if diverged.any():
            for r in idx[diverged]:
                flags[r] = "diverged"
            keep = ~diverged
            idx, x, y, step = idx[keep], x[keep], y[keep], step[keep]
            prev = None if prev is None else prev[keep]
        m = np.exp(np.matmul(x, step[:, :, None])[..., 0])
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
                idx, x, y, m, d = idx[keep], x[keep], y[keep], m[keep], d[keep]
        prev = d
    return flags, beta, mu, dev, first_dev, change


def solve_groups(
    problems: Sequence[tuple[ModelSpec, Sequence[CountTable]]],
    settings: FitSettings = FitSettings(),
) -> list[GroupSolution]:
    """``solve_group`` on every (model, tables sharing one support) problem,
    with one IRLS run per stack of equal design shape.

    Each group is reduced, designed and rank-checked on its own.  The
    groups whose designs have the same (retained cells, estimable
    parameters) shape are then stacked, one design and one count vector
    per table, up to ``STACK_ELEMENTS`` elements a stack, and iterated
    together.  Every row is still its own ``dgelsd`` solve and its own
    matrix-vector product, so each solution equals the one
    ``solve_group`` gives the problem alone, bit for bit.
    """
    solutions: list[GroupSolution | None] = []
    posed: dict[int, _Posed] = {}
    for k, (model, tables) in enumerate(problems):
        p = _pose(model, tables)
        if isinstance(p, GroupSolution):
            solutions.append(p)
        else:
            solutions.append(None)
            posed[k] = p
    for stack in _stacks(posed):
        groups = [posed[k] for k in stack]
        ends = np.cumsum([len(p.Y) for p in groups])
        # filled in place: a concatenation of broadcast views may come out
        # in another memory layout
        X = np.empty((ends[-1], *groups[0].X.shape))
        for p, end in zip(groups, ends):
            X[end - len(p.Y):end] = p.X
        Y = np.concatenate([p.Y for p in groups])
        flags, beta, mu, dev, first_dev, change = _irls(X, Y, settings)
        nll = np.full(len(Y), np.nan)
        settled = np.array([f is None for f in flags])
        nll[settled] = _neg_log_likelihood(
            Y[settled], mu[settled],
            np.concatenate([p.log_factorials for p in groups])[settled],
        )
        arrays = (beta, mu, dev, nll, first_dev, change)
        split = [np.split(a, ends[:-1]) for a in arrays]
        for n, (k, p, end) in enumerate(zip(stack, groups, ends)):
            solutions[k] = GroupSolution(
                p.reduced, tuple(flags[end - len(p.Y):end]), *(a[n] for a in split)
            )
    return solutions


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
    a left-to-right sum over the cells).  This is the one-problem case of
    ``solve_groups``, which stacks the rows of many such groups.
    """
    return solve_groups([(model, tables)], settings)[0]


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


def fit_groups(
    problems: Sequence[tuple[ModelSpec, Sequence[CountTable]]],
    settings: FitSettings = FitSettings(),
) -> Iterator[list[FitResult]]:
    """``fit`` on every table of every (model, tables sharing one support)
    problem, in order, one problem's list of results at a time.

    All problems are solved by ``solve_groups`` when the first list is
    asked for, in one IRLS run per stack of equal design shape.  Each
    table's result is still made by a call to ``fit``, so anything
    wrapping ``fit`` sees one call per table, made as its list is taken.
    """
    problems = list(problems)
    solutions = solve_groups(problems, settings)
    for (model, tables), solution in zip(problems, solutions):
        yield [fit(model, t, settings, (solution, i)) for i, t in enumerate(tables)]


def fit_group(
    model: ModelSpec,
    tables: Sequence[CountTable],
    settings: FitSettings = FitSettings(),
) -> list[FitResult]:
    """``fit`` on every table of a group sharing one support, with a single
    IRLS run for the whole group: the one-problem case of ``fit_groups``."""
    return next(fit_groups([(model, tables)], settings))


def fit_or_reject(
    model: ModelSpec,
    table: CountTable,
    existence_checker: Callable[[ModelSpec, CountTable], bool] | None,
    settings: FitSettings = FitSettings(),
) -> FitResult:
    """Fit with the existence criterion applied first.  Without a checker
    existence is decided on a fresh ``ExistenceCache``."""
    if not _verdicts(existence_checker, [model], table)[0]:
        return FitResult(model, STATUS_FR_FAILED)
    return fit(model, table, settings)


def _verdicts(
    existence_checker: Callable[[ModelSpec, CountTable], bool] | None,
    candidates: Sequence[ModelSpec],
    table: CountTable,
) -> list[bool]:
    """Whether each candidate's MLE exists on ``table``: by
    ``existence_checker``, or when it is None by one ``check_many`` over
    the candidates on a fresh cache."""
    if existence_checker is not None:
        return [existence_checker(m, table) for m in candidates]
    # existence imports this module's sparsity reduction
    from .existence import ExistenceCache

    return ExistenceCache().check_many([(m, table) for m in candidates])


def fit_candidates(
    candidates: Sequence[ModelSpec],
    table: CountTable,
    exists: Sequence[bool],
    settings: FitSettings = FitSettings(),
) -> Iterator[FitResult]:
    """Each candidate's fit on ``table``, in order, or a ``fr_failed``
    result where ``exists`` says its MLE does not exist.  The candidates
    that exist are fitted by one ``fit_groups`` call."""
    fitted = fit_groups(
        [(m, [table]) for m, ok in zip(candidates, exists) if ok], settings
    )
    for model, ok in zip(candidates, exists):
        yield next(fitted)[0] if ok else FitResult(model, STATUS_FR_FAILED)


def select_best_bic(
    candidates: Iterable[ModelSpec],
    table: CountTable,
    existence_checker: Callable[[ModelSpec, CountTable], bool] | None = None,
    settings: FitSettings = FitSettings(),
) -> tuple[ModelSpec, FitResult]:
    """Fit every candidate and return the BIC minimizer.

    Candidates failing the existence check or the fit get an infinite
    BIC; without a checker existence is decided as in ``fit_or_reject``,
    for all candidates in one batch.  The candidates that pass are fitted
    together (``fit_candidates``).  Ties go to the earliest candidate in
    the given (canonical) order.  Raises NoModelFoundError when nothing
    attains a finite BIC.
    """
    candidates = list(candidates)
    exists = _verdicts(existence_checker, candidates, table)
    best: tuple[ModelSpec, FitResult] | None = None
    for res in fit_candidates(candidates, table, exists, settings):
        if res.bic < (best[1].bic if best is not None else math.inf):
            best = (res.model, res)
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
    Without a checker existence is decided as in ``select_best_bic``, and
    the candidates that pass are likewise fitted together.
    Returns None when the window admits no model at all.
    """
    if not 0.0 <= p_lo <= p_hi <= 1.0:
        raise ValueError(f"invalid p-value window [{p_lo}, {p_hi}]")
    # imported here: scipy.special is a large share of the package's import
    # time, and only this selector needs a chi-squared tail
    from scipy import special

    candidates = list(candidates)
    exists = _verdicts(existence_checker, candidates, table)
    best: ChisqResult | None = None
    for res in fit_candidates(candidates, table, exists, settings):
        if not res.converged:
            continue
        stat, df = pearson_chisq(res, table)
        if df <= 0:
            continue
        p = float(special.chdtrc(df, stat))
        if not p_lo <= p <= p_hi:
            continue
        cand = ChisqResult(res.model, res, stat, df, p)
        if best is None or cand.ratio < best.ratio:
            best = cand
    return best
