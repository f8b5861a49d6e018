"""Poisson loglinear fitting, BIC, and model selection criteria.

Fitting uses iteratively reweighted least squares with a log link after
the sparsity reduction: parameters whose marginal count is zero are
recorded as -inf and the cells forced to zero by them are dropped before
the numerical fit.  Estimates therefore live in [-inf, inf).

The reduction (``sparsity.reduce_for_sparsity``) and the design depend
only on the table's support, and so does existence.  ``fit_pairs`` is
the one place that groups by it: it takes flat (model, table) pairs,
groups them by ``(model.params, table.support)``, decides for all
groups in one ``ExistenceCache.check_many`` call whether the extended
MLE exists, and solves only those where it does, from the reductions
the cache keeps: each (model, support) is reduced once for the check
and the fit.  The others get ``fr_failed`` results with no estimate.
``fit``, ``select_best_bic``, ``select_by_chisq`` and every bootstrap
driver fit through it.  Below it, ``solve_groups`` is the unchecked
numeric engine: its problems come reduced, as (reduction, tables
sharing one support) pairs.

Tables that share a support share the reduction and the design matrix,
so one such problem fits one model to a whole group of them.
``solve_groups`` takes many such problems at once and stacks those whose
designs have the same shape (retained cells x estimable parameters),
whatever their model or support, up to ``STACK_ELEMENTS`` design
elements a stack (a larger group is cut into pieces of rows): one IRLS
run iterates a whole stack, one design and one count vector per row.
Each row's least-squares step is still its own LAPACK
``dgelsd`` solve, as ``scipy.linalg.lstsq`` would make it, and its own
matrix-vector product; numpy's stacked ``lstsq`` kernel makes the solves
of all rows in one call per iteration.  Normal equations would be faster
and would change the last bits of the estimates.

Each stack is one task on a thread pool of one thread per CPU the
process may use (its affinity mask, ``os.sched_getaffinity``, which
``taskset`` limits), made on first use.  Each pool thread pins itself
to its own CPU of that mask, so the threads do not take turns on one CPU
while another idles; the calling thread stays unpinned.  On more than
one CPU a call's stacks are also cut to an even share of its design
elements, so that no one stack holds most of it.  A task builds its
stacked design and runs IRLS on it; numpy's kernels release the GIL, so
stacks iterate side by side.  The pool runs nothing else: the
reduction, the design, the BIC sums and ``fit`` stay on the calling
thread.  A row's solve does not depend on the other rows of its stack,
so the output is the same for any CPU count and any cut, bit for bit.

``fit`` with a ``solved`` row turns that row into a ``FitResult``.  It
reads the row's scalars from lists its group converts once, and a
converged result builds its ``alpha`` and ``mu`` dicts only when they
are read, as the bootstrap selectors read neither.

The BIC is likewise the scalar loop's, bit for bit: logarithms come from
``math.log``, called on each value in a C loop (``np.frompyfunc``;
``np.log`` differs from it in the last bit on about one value in ten
thousand), each ``log n!`` from ``_cephes`` (the
double ``scipy.special.gammaln(n + 1)`` gives, taken once per table as
``CountTable.log_factorials``), and each table's terms are added left to
right, which neither ``np.sum`` (pairwise) nor Python 3.12's ``sum``
(compensated) does.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent import futures
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .core import CountTable, ModelSpec
from .existence import ExistenceCache, check_lists
# nothing here reduces: ``reduce_for_sparsity`` stays importable from this
# module because ``bench/trace_spans.py`` wraps it by this name
from .sparsity import ReducedProblem, design_matrix, reduce_for_sparsity  # noqa: F401

STATUS_CONVERGED = "converged"
STATUS_NOT_CONVERGED = "not_converged"
STATUS_FR_FAILED = "fr_failed"


class NoModelFoundError(Exception):
    """Every candidate model was assigned an infinite BIC."""


# IRLS stops a row after MAX_ITER iterations ("max_iterations"), once its
# deviance change is below ABS_TOL or below REL_TOL times the previous
# deviance (at least 1), and when any coefficient falls below ALPHA_FLOOR
# ("diverged").  Read at each call.
MAX_ITER = 100
REL_TOL = 1e-10
ABS_TOL = 1e-12
ALPHA_FLOOR = -30.0


@dataclass(frozen=True)
class FitSettings:
    # BIC sample size: "case" uses the number of observed cases, "capture"
    # the number of observable cells 2^t - 1.
    sample_size: str = "case"


class FitResult:
    """One model's fit to one table.

    ``alpha`` maps each model parameter to its estimate (-inf for those the
    sparsity reduction fixes) and ``mu`` each retained cell to its fitted
    mean; both are empty unless the fit converged.  ``fit`` makes a
    converged result from its solved group row (``row``, a
    ``GroupSolution`` and a row index) and builds ``alpha`` and ``mu``
    from it the first time either is read, then lets the row go: the
    bootstrap selectors read only ``bic`` and ``population_estimate``.
    Results compare and print as the fields below, ``alpha`` and ``mu``
    as plain dicts.
    """

    __slots__ = ("model", "status", "_alpha", "_mu", "bic",
                 "population_estimate", "deviance_change", "flags", "_row")
    _FIELDS = ("model", "status", "alpha", "mu", "bic", "population_estimate",
               "deviance_change", "flags")

    def __init__(
        self,
        model: ModelSpec,
        status: str,
        alpha: dict[int, float] | None = None,
        mu: dict[int, float] | None = None,
        bic: float = math.inf,
        population_estimate: float | None = None,
        deviance_change: float = math.nan,
        flags: tuple[str, ...] = (),
        *,
        row: tuple[GroupSolution, int] | None = None,
    ) -> None:
        self.model = model
        self.status = status
        self._row = row
        if row is None:
            self._alpha = {} if alpha is None else alpha
            self._mu = {} if mu is None else mu
        self.bic = bic
        self.population_estimate = population_estimate
        self.deviance_change = deviance_change
        self.flags = flags

    def _read_row(self) -> None:
        solution, i = self._row
        red = solution.reduced
        alpha = dict(zip(red.theta_dagger, solution.beta[i].tolist()))
        for th in red.minus_infinity_params:
            alpha[th] = -math.inf
        self._alpha = alpha
        self._mu = dict(zip(red.omega_dagger, solution.mu[i].tolist()))
        self._row = None

    @property
    def alpha(self) -> dict[int, float]:
        if self._row is not None:
            self._read_row()
        return self._alpha

    @property
    def mu(self) -> dict[int, float]:
        if self._row is not None:
            self._read_row()
        return self._mu

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        # as a tuple, as dataclasses compare: a field holding the same NaN
        # object is equal
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._FIELDS, self._values()))
        return f"FitResult({fields})"


def _poisson_deviance(y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Deviance of each row (the last axis holds the cells)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ylogy = np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0) / mu), 0.0)
    return 2.0 * np.sum(ylogy - (y - mu), axis=-1)


# ``math.log`` on every element in a C loop, as an array of Python floats
_math_log = np.frompyfunc(math.log, 1, 1)


def _neg_log_likelihood(
    counts: np.ndarray, mu: np.ndarray, log_factorials: np.ndarray
) -> np.ndarray:
    """Each row's sum over its cells of m - n log m + log n!, where
    ``log_factorials`` holds each cell's log n!.

    ``math.log`` takes the logarithms, of the positive-count cells only,
    because ``np.log`` differs from it in the last bit on a few values;
    numpy calls it on each value in a C loop (``np.frompyfunc``), and a
    value it rejects raises its ``ValueError``.
    The terms are added left to right (``cumsum``), not pairwise as
    ``np.sum`` adds them, so every row is the scalar loop's sum.
    """
    n_log_m = np.zeros_like(mu)
    positive = counts > 0
    n_log_m[positive] = counts[positive] * _math_log(mu[positive]).astype(float)
    sums = np.cumsum((mu - n_log_m) + log_factorials, axis=1)
    return sums[:, -1] if sums.shape[1] else np.zeros(len(sums))


def log_sample_size(table: CountTable, settings: FitSettings) -> float:
    """The BIC penalty of one model parameter on ``table``: the log of its
    cases (``"case"``) or of its 2^t - 1 observable cells (``"capture"``)."""
    if settings.sample_size == "case":
        size = table.n_total
    elif settings.sample_size == "capture":
        size = (1 << table.t) - 1
    else:
        raise ValueError(f"unknown sample size convention {settings.sample_size!r}")
    return math.log(size)


def _bic(
    model: ModelSpec,
    table: CountTable,
    neg_log_likelihood: float,
    settings: FitSettings,
) -> float:
    """Parameter-count penalty, over every model parameter, plus twice the
    negative log-likelihood."""
    return len(model.params) * log_sample_size(table, settings) + 2.0 * neg_log_likelihood


# numpy's stacked dgelsd: one LAPACK solve per row, with the tolerance
# scipy.linalg.lstsq passes for float64 input
_LSTSQ = _umath_linalg.lstsq
_RCOND = np.finfo(np.float64).eps

# (process id, pool, its thread count): a forked child inherits the pool
# without its threads, so it makes its own
_pool: tuple[int, futures.ThreadPoolExecutor, int] | None = None


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, which ``taskset``
    limits."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pin(mask: tuple[int, ...], order: Iterator[int]) -> None:
    """Pool thread initializer: pin this thread alone to the next CPU of
    ``mask``, round robin.  A thread the system refuses stays unpinned;
    an initializer that raised would break the whole pool."""
    # ``next`` on an ``itertools.count`` is one call into C, so two
    # threads starting at once take different numbers
    cpu = mask[next(order) % len(mask)]
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass


def _executor() -> tuple[futures.ThreadPoolExecutor, int]:
    """The pool of one thread per CPU that runs IRLS stacks, made on first
    use, and its thread count.

    The affinity mask is read when the pool is made and kept with it: each
    pool thread pins itself to one CPU of it (``_pin``), round robin in the
    mask's own CPU ids, where ``os.sched_setaffinity`` exists.  On Linux
    that call sets the calling thread's mask only, so the thread that
    calls ``solve_groups``, and every other thread, stays unpinned.  The
    thread count, which also sets the cut (``_stacks``), is the pool's
    from then on, whatever the calling thread's mask becomes.

    Threads that race here may each make a pool; the one not kept is
    collected once its stacks are done, and its threads exit.
    """
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        threads = _cpu_count()
        if hasattr(os, "sched_setaffinity"):
            mask = tuple(sorted(os.sched_getaffinity(0)))
            pool = futures.ThreadPoolExecutor(
                threads, initializer=_pin, initargs=(mask, itertools.count())
            )
        else:
            pool = futures.ThreadPoolExecutor(threads)
        _pool = (os.getpid(), pool, threads)
    return _pool[1], _pool[2]


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution of ``A[k] x = b[k]`` for every k, as rows:
    ``_LSTSQ`` on each row.  Raises ``ValueError`` when an entry is not
    finite and ``LinAlgError`` when a row's SVD does not converge."""
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    # a row whose SVD does not converge comes back as NaN, and
    # ``np.errstate`` holds only in the thread that enters it
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
    reason its iteration stopped.  For a settled row, ``beta``, ``mu``
    and ``deviance`` hold the final iterate and ``neg_log_likelihood``
    the sum its BIC is made of.  A row that was iterated but did not
    settle keeps the starting values: ``beta`` and ``mu`` 0, ``deviance``
    inf, ``neg_log_likelihood`` NaN.  A group stopped before iterating
    (``parameter_redundant``, ``no_cells_left``) has no columns in
    ``beta`` and ``mu`` and NaN in the rest.  ``first_deviance`` is the
    deviance after a row's first step and ``change`` its last deviance
    change, each NaN until the row has one.  The arrays are read-only: a
    ``FitResult`` reads its row after ``fit`` returns.
    """

    reduced: ReducedProblem
    flags: tuple[str | None, ...]
    beta: np.ndarray  # (tables, estimable parameters)
    mu: np.ndarray  # (tables, retained cells)
    deviance: np.ndarray
    neg_log_likelihood: np.ndarray
    first_deviance: np.ndarray
    change: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.beta, self.mu, self.deviance, self.neg_log_likelihood,
                  self.first_deviance, self.change):
            a.flags.writeable = False

    @cached_property
    def scalars(self) -> tuple[tuple, list, list, list, list, list]:
        """The per-row scalars ``fit`` reads, as Python values converted
        once for all rows: flags, change, first deviance, deviance,
        negative log-likelihood and the intercept (the first estimable
        parameter, as 0 comes first in canonical order and is never dead;
        a group stopped before iterating has none)."""
        return (
            self.flags, self.change.tolist(), self.first_deviance.tolist(),
            self.deviance.tolist(), self.neg_log_likelihood.tolist(),
            self.beta[:, 0].tolist() if self.beta.shape[1] else [],
        )


def _stopped(red: ReducedProblem, rows: int, flag: str) -> GroupSolution:
    """A group none of whose rows can be iterated."""
    nan = np.full(rows, np.nan)
    empty = np.empty((rows, 0))
    return GroupSolution(red, (flag,) * rows, empty, empty, nan, nan, nan, nan)


# most elements (rows x cells x parameters) of the stacked design one IRLS
# run holds; a group larger than this is cut into pieces of rows
STACK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class _Posed:
    """A group ready to iterate: its design, and its counts and their log
    factorials, one row per table, in the order of the retained cells."""

    reduced: ReducedProblem
    X: np.ndarray  # (retained cells, estimable parameters)
    Y: np.ndarray  # (tables, retained cells)
    log_factorials: np.ndarray  # like Y


def _support_cells(tables: Sequence[CountTable]) -> tuple[int, ...]:
    """The positive cells of a group's tables in canonical order, or a
    ``ValueError`` for an empty group, tables of different supports or
    all-zero tables."""
    if not tables:
        raise ValueError("cannot fit an empty group")
    support = tables[0].support
    if any(t.support != support for t in tables):
        raise ValueError("tables fitted as a group must share one support")
    if not support:
        raise ValueError("cannot fit an empty table")
    return tuple(tables[0].counts)


def _group_rows(tables: Sequence[CountTable], rows: dict) -> tuple:
    """A group's cells, count rows and log n! rows, in the canonical order
    of its support, made once per group.

    ``rows`` maps the identities of a group's tables to them, so a group
    fitted with several models converts its counts once; making an entry
    validates the group (``_support_cells``).  Every table of a group
    lists exactly its support's cells, in that order, so each row is its
    ``counts`` as they are.
    """
    key = tuple(map(id, tables))
    entry = rows.get(key)
    if entry is None:
        cells = _support_cells(tables)
        counts = np.array([list(t.counts.values()) for t in tables], dtype=float)
        log_factorials = np.array([t.log_factorials for t in tables])
        # shared by the posed groups of every model fitted on these tables
        counts.flags.writeable = log_factorials.flags.writeable = False
        entry = rows[key] = cells, counts, log_factorials
    return entry


def _pose(
    red: ReducedProblem, tables: Sequence[CountTable], rows: dict, designs: dict
) -> _Posed | GroupSolution:
    """Design and counts of one group, reduced to ``red``, or its solution
    when no row can be iterated.

    ``rows`` holds the groups' ``_group_rows`` entries.  ``designs`` maps
    each (retained cells, estimable parameters) pair to its read-only
    design and whether that has full column rank, so problems posing the
    same design share one array and one rank test.
    """
    cells, counts, log_factorials = _group_rows(tables, rows)
    if not red.omega_dagger:
        return _stopped(red, len(tables), "no_cells_left")
    design = red.omega_dagger, red.theta_dagger
    if design not in designs:
        X = design_matrix(*design)
        X.flags.writeable = False
        designs[design] = X, np.linalg.matrix_rank(X) == X.shape[1]
    X, full_rank = designs[design]
    if not full_rank:
        return _stopped(red, len(tables), "parameter_redundant")
    if cells == red.omega_dagger:
        return _Posed(red, X, counts, log_factorials)
    # a dead parameter has no positive cell containing it, so every
    # positive cell is retained
    column = {w: k for k, w in enumerate(red.omega_dagger)}
    positive = [column[w] for w in cells]
    Y = np.zeros((len(tables), len(red.omega_dagger)))
    Y[:, positive] = counts
    # a retained zero cell adds log 0! = 0
    posed_log_factorials = np.zeros_like(Y)
    posed_log_factorials[:, positive] = log_factorials
    return _Posed(red, X, Y, posed_log_factorials)


def _stacks(
    posed: dict[int, _Posed], cpus: int
) -> Iterator[list[tuple[int, int, int]]]:
    """The pieces of groups each IRLS run takes, as (key, first row, end
    row): pieces of one design shape, up to the call's limit of elements
    in all.  A group larger than the limit is cut into pieces of as many
    rows as fit, and a row larger than it alone is a stack of its own.

    The limit is ``STACK_ELEMENTS`` on one CPU.  On ``cpus`` > 1 it is
    also at most an even share of the call's design elements, one
    (2 x ``cpus``)-th rounded up, so that every pool thread gets work and
    no one stack holds most of the call while the other threads wait; but
    never below ``STACK_ELEMENTS // 16``, as a smaller stack pays its
    per-iteration Python steps for too few solves.
    """
    limit = STACK_ELEMENTS
    if cpus > 1:
        total = sum(len(p.Y) * p.X.size for p in posed.values())
        limit = min(limit, max(STACK_ELEMENTS // 16, -(-total // (2 * cpus))))
    by_shape: dict[tuple[int, int], list[int]] = {}
    for k, p in posed.items():
        by_shape.setdefault(p.X.shape, []).append(k)
    for (cells, params), keys in by_shape.items():
        most = max(limit // (cells * params), 1)
        stack: list[tuple[int, int, int]] = []
        size = 0
        for k in keys:
            rows = len(posed[k].Y)
            for lo in range(0, rows, most):
                hi = min(lo + most, rows)
                if stack and size + hi - lo > most:
                    yield stack
                    stack, size = [], 0
                stack.append((k, lo, hi))
                size += hi - lo
        yield stack


def _stacked(posed: dict[int, _Posed], stack: list[tuple[int, int, int]]) -> tuple:
    """A stack's stacked design, each piece's group design repeated once
    per row, and its count rows: the input of ``_irls``."""
    pieces = [(posed[k], lo, hi) for k, lo, hi in stack]
    # filled in place: a concatenation of broadcast views may come out in
    # another memory layout
    X = np.empty((sum(hi - lo for _, lo, hi in pieces), *pieces[0][0].X.shape))
    end = 0
    for p, lo, hi in pieces:
        X[end:end + hi - lo] = p.X
        end += hi - lo
    return X, np.concatenate([p.Y[lo:hi] for p, lo, hi in pieces])


def _irls(X: np.ndarray, Y: np.ndarray) -> tuple:
    """IRLS on every row of a stack: row k fits counts ``Y[k]`` with design
    ``X[k]``.

    Each iteration solves the weighted least squares of all rows still
    iterating in one ``_solve`` call.  ``X`` must be C-contiguous: numpy's
    ``matmul`` takes another path on another layout, and that path moves
    the fitted means in the last bit.  Returns the fields of
    ``GroupSolution`` after ``reduced``, for all rows, without
    ``neg_log_likelihood``.
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
    # every iteration's weighted design goes to the front of one buffer
    weighted = np.empty_like(X)
    for _ in range(MAX_ITER):
        if not idx.size:
            break
        z = np.log(m) + (y - m) / m
        sw = np.sqrt(m)
        step = _solve(np.multiply(x, sw[:, :, None], out=weighted[:len(x)]), z * sw)
        diverged = step.min(axis=1) < ALPHA_FLOOR
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
            settled = (ch < ABS_TOL) | (ch < REL_TOL * np.maximum(1.0, np.abs(prev)))
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
    problems: Sequence[tuple[ReducedProblem, Sequence[CountTable]]],
) -> list[GroupSolution]:
    """IRLS on every table of each (reduction, tables sharing one support)
    problem, with one IRLS run per stack of equal design shape; solution i
    is problem i's, row k of it table k's.

    A problem's reduction is its model's on its tables' support
    (``existence.ExistenceCache.reduction``).  Each group is validated
    and its counts converted once per call, however many models it is
    posed with (``_group_rows``), and each distinct design is built and
    rank-checked once per call.  The groups whose
    designs have the same (retained cells, estimable parameters) shape
    are then stacked, one design and one count vector per table, up to
    ``STACK_ELEMENTS`` elements a stack, and on a pool of several
    threads up to an even share of the call (``_stacks``; a larger group
    is cut into pieces of rows), and iterated together.  Each stack is
    one task on the pool (``_executor``), whose threads are pinned one
    to a CPU; the task builds its stacked design and runs ``_irls``.  An
    error in any stack is raised here once the stacks already running
    have finished, and the queued ones are cancelled.
    Every row is still its own ``dgelsd`` solve and its own matrix-vector
    product, so each solution equals the one the problem gets alone, and
    each row the one its table gets alone, bit for bit.  Rows leave the
    iteration as they converge or diverge, and the BIC sums of the settled
    rows are computed together on the calling thread as each stack's task
    returns, bit for bit as the scalar loop adds them (``math.log``, and a
    left-to-right sum over the cells); each piece's rows are then copied
    into its group's solution arrays, which are made once per group.
    """
    solutions: list[GroupSolution | None] = [None] * len(problems)
    posed: dict[int, _Posed] = {}
    rows: dict = {}
    designs: dict = {}
    for k, (red, tables) in enumerate(problems):
        p = _pose(red, tables, rows, designs)
        if isinstance(p, GroupSolution):
            solutions[k] = p
        else:
            posed[k] = p

    def run_stack(stack: list[tuple[int, int, int]]) -> tuple:
        X, Y = _stacked(posed, stack)
        return Y, _irls(X, Y)

    pool, cpus = _executor()
    stacks = list(_stacks(posed, cpus))
    # each posed group's flags and GroupSolution arrays after ``reduced``,
    # filled row by row as its stacks return
    filled = {k: ([None] * len(p.Y), np.empty((len(p.Y), p.X.shape[1])),
                  np.empty(p.Y.shape), *(np.empty(len(p.Y)) for _ in range(4)))
              for k, p in posed.items()}
    tasks = [pool.submit(run_stack, stack) for stack in stacks]
    try:
        for stack, task in zip(stacks, tasks):
            Y, (flags, beta, mu, dev, first_dev, change) = task.result()
            nll = np.full(len(Y), np.nan)
            settled = np.array([f is None for f in flags])
            log_factorials = [posed[k].log_factorials[lo:hi] for k, lo, hi in stack]
            nll[settled] = _neg_log_likelihood(
                Y[settled], mu[settled], np.concatenate(log_factorials)[settled]
            )
            start = 0
            for k, lo, hi in stack:
                end = start + hi - lo
                for a, b in zip(filled[k], (flags, beta, mu, dev, nll, first_dev, change)):
                    a[lo:hi] = b[start:end]
                start = end
    finally:
        # on an error, queued stacks are dropped and running ones finish
        # before it is raised, so no task of this call outlives it
        for task in tasks:
            task.cancel()
        futures.wait(tasks)
    for k, (flags, *arrays) in filled.items():
        solutions[k] = GroupSolution(posed[k].reduced, tuple(flags), *arrays)
    return solutions


def fit(
    model: ModelSpec,
    table: CountTable,
    settings: FitSettings = FitSettings(),
    solved: tuple[GroupSolution, int] | None = None,
) -> FitResult:
    """Extended maximum likelihood fit of one model by IRLS, or a
    ``fr_failed`` result with no estimate when the extended MLE does not
    exist on ``table``.

    This is the one-pair case of ``fit_pairs``, which checks existence
    on a fresh ``ExistenceCache``; the two selectors check it the same
    way.  ``solved`` is only for a row of a
    ``solve_groups`` solution that already holds ``table``, at the given
    index: the result is then read from that row, unchecked, instead of
    solving again.  The row's scalars come from
    ``GroupSolution.scalars``, converted once per group, and a converged
    result builds ``alpha`` and ``mu`` from the row only when they are
    read.  A fit that still diverges is detected via the coefficient
    floor and reported as non-convergence.
    """
    if solved is None:
        return next(fit_pairs([(model, table)], settings))
    solution, i = solved
    flags, change, first_deviance, deviance, nll, intercept = solution.scalars
    if flags[i] is not None:
        return FitResult(model, STATUS_NOT_CONVERGED, deviance_change=change[i],
                         flags=(flags[i],))

    bic = _bic(model, table, nll[i], settings)
    m_hat = math.exp(intercept[i]) + table.n_total
    if first_deviance[i] + 1e-8 < deviance[i]:
        # deviance must not increase across IRLS iterations
        return FitResult(model, STATUS_NOT_CONVERGED, deviance_change=change[i],
                         flags=("deviance_increase",))
    return FitResult(
        model,
        STATUS_CONVERGED,
        bic=bic,
        population_estimate=m_hat,
        deviance_change=change[i],
        row=(solution, i),
    )


def fit_pairs(
    pairs: Iterable[tuple[ModelSpec, CountTable]],
    settings: FitSettings = FitSettings(),
    cache: ExistenceCache | None = None,
) -> Iterator[FitResult]:
    """``fit`` on every (model, table) pair, one result per pair in order.

    When the first result is asked for, the pairs are grouped by
    ``(model.params, table.support)`` in order of first occurrence: the
    existence verdict, the reduction and the design depend only on that
    key.  A result's ``model`` is the first of its group, equal to its
    pair's.  Every pair is validated first: a model on another number of
    lists than its table, or an all-zero table, raises ``ValueError``.
    Existence is decided for all groups in one ``check_many`` call on
    ``cache`` (a fresh ``ExistenceCache`` when it is None), on each
    group's first table.  A pair whose extended MLE does not exist gets
    a ``fr_failed`` result with no estimate.  The other groups are solved
    by one ``solve_groups`` call, from the reductions the cache keeps
    (``ExistenceCache.reduction``), one row per pair.  Each of their
    results is still made by a call to ``fit``, so anything wrapping
    ``fit`` sees one call per pair, made as its result is taken; each
    call reads its row from the group's scalars, converted once
    (``GroupSolution.scalars``), and leaves ``alpha`` and ``mu`` to be
    built if they are read.
    """
    # each key's group index, each group's model and tables, and each
    # pair's group and its row in it; the list count is part of the key,
    # so validating a group's first pair validates the group
    keys: dict[tuple[frozenset[int], int, frozenset[int]], int] = {}
    groups: list[tuple[ModelSpec, list[CountTable]]] = []
    order: list[tuple[int, int]] = []
    for model, table in pairs:
        key = (model.params, table.t, table.support)
        g = keys.get(key)
        if g is None:
            check_lists(model, table)
            if not table.counts:
                raise ValueError("cannot fit an empty table")
            g = keys[key] = len(groups)
            groups.append((model, []))
        tables = groups[g][1]
        order.append((g, len(tables)))
        tables.append(table)
    if cache is None:
        cache = ExistenceCache()
    exists = cache.check_many([(model, tables[0]) for model, tables in groups])
    solved = iter(solve_groups([
        (cache.reduction(model, tables[0]), tables)
        for (model, tables), ok in zip(groups, exists) if ok
    ]))
    solutions = [next(solved) if ok else None for ok in exists]
    for g, i in order:
        model, tables = groups[g]
        solution = solutions[g]
        if solution is None:
            yield FitResult(model, STATUS_FR_FAILED)
        else:
            yield fit(model, tables[i], settings, (solution, i))


def select_best_bic(
    candidates: Iterable[ModelSpec],
    table: CountTable,
    cache: ExistenceCache | None = None,
    settings: FitSettings = FitSettings(),
) -> tuple[ModelSpec, FitResult]:
    """Fit every candidate and return the BIC minimizer.

    The candidates are checked and fitted together by one ``fit_pairs``
    call on ``cache``; those failing the existence check or the fit get
    an infinite BIC.  ``lowest_bic`` picks among the fits: ties go to the
    earliest candidate in the given (canonical) order, and nothing
    attaining a finite BIC raises NoModelFoundError.
    """
    return lowest_bic(fit_pairs([(m, table) for m in candidates], settings, cache))


def lowest_bic(fits: Iterable[FitResult]) -> tuple[ModelSpec, FitResult]:
    """The model and fit with the smallest BIC, the first on ties.  Raises
    NoModelFoundError when no fit has a finite BIC."""
    best: tuple[ModelSpec, FitResult] | None = None
    for res in fits:
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


def check_p_window(p_lo: float, p_hi: float) -> None:
    """Reject a p-value window that is not a subinterval of [0, 1]."""
    if not 0.0 <= p_lo <= p_hi <= 1.0:
        raise ValueError(f"invalid p-value window [{p_lo}, {p_hi}]")


def chisq_choice(
    fits: Iterable[FitResult], table: CountTable, p_lo: float, p_hi: float
) -> ChisqResult | None:
    """The fit with the smallest chi-squared per degree of freedom among
    the converged ``fits`` whose goodness-of-fit p-value falls in
    [p_lo, p_hi]; ties go to the first.

    Models with no residual degrees of freedom are never candidates.
    Returns None when the window admits no fit at all.
    """
    # imported here: scipy.special is a large share of the package's import
    # time, and only this rule needs a chi-squared tail
    from scipy import special

    best: ChisqResult | None = None
    for res in fits:
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


def select_by_chisq(
    candidates: Iterable[ModelSpec],
    table: CountTable,
    p_lo: float = 0.05,
    p_hi: float = 0.3,
    cache: ExistenceCache | None = None,
    settings: FitSettings = FitSettings(),
) -> ChisqResult | None:
    """Choose the model minimizing chi-squared per degree of freedom
    among those whose goodness-of-fit p-value falls in [p_lo, p_hi]
    (``chisq_choice`` over the candidates' fits, in order).

    The candidates are checked and fitted together as in
    ``select_best_bic``.  Returns None when the window admits no model at
    all.
    """
    check_p_window(p_lo, p_hi)
    fits = fit_pairs([(m, table) for m in candidates], settings, cache)
    return chisq_choice(fits, table, p_lo, p_hi)
