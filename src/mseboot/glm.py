"""Poisson loglinear fitting, BIC, and model selection criteria.

Fitting uses iteratively reweighted least squares with a log link after
the sparsity reduction: parameters whose marginal count is zero are
recorded as -inf and the cells forced to zero by them are dropped before
the numerical fit.  Estimates therefore live in [-inf, inf).

The reduction (``sparsity.reduce_for_sparsity``) and the design depend
only on the table's support, and so does existence.  ``fit_groups``
validates its (model, group) problems, decides for all of them in one
``ExistenceCache.check_many`` call whether the extended MLE exists, and
solves only those where it does, from the reductions the cache keeps:
each (model, support) is reduced once for the check and the fit.  The
others get ``fr_failed`` results with no estimate.  ``fit``,
``fit_group``, ``select_best_bic`` and ``select_by_chisq`` all fit
through it.  Below it, ``solve_groups`` is the unchecked numeric engine:
its problems come reduced, as (reduction, tables) pairs.

Tables that share a support share the reduction and the design matrix,
so one (model, group) problem fits one model to a whole group of them.
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

The IRLS run is a generator that yields each iteration's least-squares
request, and ``_pipeline`` keeps a few runs in flight at once: one more
than the CPUs the process may use (its affinity mask,
``os.sched_getaffinity``, which ``taskset`` limits).  A thread pool of
CPUs - 1 threads, made on first use, solves requests of at least
``SPLIT_ELEMENTS`` elements while the calling thread takes the
elementwise step of another run, as the kernel releases the GIL.  When
no run's request is solved, the calling thread solves one no pool thread
has started.  A request with no other run in flight is cut into
contiguous chunks of rows, one per CPU.  The pool runs nothing but the
kernel, so the reduction, the design and ``fit`` stay on the calling
thread.  A row's solve does not depend on the other rows of its request,
so the output is the same for any CPU count, bit for bit; on one CPU one
run is in flight, every request is solved inline and no pool is made.

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

import math
import os
from concurrent import futures
from dataclasses import dataclass
from functools import cached_property
from typing import Generator, Iterable, Iterator, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from ._cephes import log_factorial
from .core import CountTable, ModelSpec, canonical_key
from .existence import ExistenceCache
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


def _bic(
    model: ModelSpec,
    table: CountTable,
    neg_log_likelihood: float,
    settings: FitSettings,
) -> float:
    """Parameter-count penalty, over every model parameter, plus twice the
    negative log-likelihood."""
    if settings.sample_size == "case":
        size = table.n_total
    elif settings.sample_size == "capture":
        size = (1 << table.t) - 1
    else:
        raise ValueError(f"unknown sample size convention {settings.sample_size!r}")
    return len(model.params) * math.log(size) + 2.0 * neg_log_likelihood


# numpy's stacked dgelsd: one LAPACK solve per row, with the tolerance
# scipy.linalg.lstsq passes for float64 input
_LSTSQ = _umath_linalg.lstsq
_RCOND = np.finfo(np.float64).eps

# fewest design elements (rows x cells x parameters) of a least-squares
# request that goes to the pool; a smaller one is solved by the calling
# thread, as handing it to another thread costs more than it saves
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


def _window(cpus: int) -> int:
    """IRLS runs in flight at once on ``cpus`` CPUs: one solving on each
    pool thread, one the calling thread steps and one whose request waits
    for the first CPU to come free.  On one CPU a second run would only
    hold memory."""
    return 1 if cpus < 2 else cpus + 1


def _executor() -> futures.ThreadPoolExecutor:
    """The pool of CPUs - 1 threads that solves least-squares chunks, made
    on first use.

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


class _Chunk:
    """Contiguous rows of one least-squares request: kept for the calling
    thread, or handed to ``pool`` when one is given."""

    def __init__(
        self, A: np.ndarray, b: np.ndarray, pool: futures.Executor | None = None
    ) -> None:
        self.A, self.b, self.x = A, b, None
        self.future = None if pool is None else pool.submit(_solve, A, b)

    def done(self) -> bool:
        return self.x is not None or (self.future is not None and self.future.done())

    def solve_here(self) -> bool:
        """Solve the rows on this thread, unless they are solved or a pool
        thread has started them."""
        if self.x is None and (self.future is None or self.future.cancel()):
            self.x = _solve(self.A, self.b)
            return True
        return False

    def result(self) -> np.ndarray:
        return self.x if self.x is not None else self.future.result()


def _post(A: np.ndarray, b: np.ndarray, alone: bool, cpus: int) -> list[_Chunk]:
    """The chunks of the request ``A[k] x = b[k]`` for every k.

    A request of at least ``SPLIT_ELEMENTS`` elements goes to the pool:
    whole while other runs are in flight, or, when it is the only one, cut
    into contiguous chunks of rows, one per CPU, the first kept for the
    calling thread.  Anything smaller, and everything on one CPU, is the
    calling thread's.
    """
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    b = b[:, :, None]
    if cpus < 2 or A.size < SPLIT_ELEMENTS:
        return [_Chunk(A, b)]
    if not alone:
        return [_Chunk(A, b, _executor())]
    chunks = min(cpus, len(A))
    ends = [len(A) * k // chunks for k in range(chunks + 1)]
    return [
        _Chunk(A[lo:hi], b[lo:hi], _executor() if lo else None)
        for lo, hi in zip(ends, ends[1:])
    ]


def _gather(chunks: list[_Chunk]) -> np.ndarray:
    """The solution rows of a solved request, in order."""
    parts = [c.result() for c in chunks]
    x = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if np.isnan(x).any():
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    return x


def _pipeline(
    runs: Iterable[tuple[object, Generator]]
) -> Iterator[tuple[object, object]]:
    """Drive IRLS runs and yield each one's tag and return value as it
    finishes.

    ``runs`` gives (tag, generator) pairs; a generator yields least-squares
    requests ``(A, b)``, is sent the solution rows of each, and returns its
    result.  Up to ``_window`` runs are in flight, and the next pair is
    taken from ``runs`` only when one finishes.  The calling thread steps
    the first run whose request is solved and posts its next request
    (``_post``).  While none is solved it solves a chunk no pool thread
    has started, the newest run's first (the pool takes the oldest
    first), and when there is none it waits for the pool.  The pool runs
    nothing but ``_solve``.  A row's solve does not depend on the other
    rows of its request, so every row is the same for any CPU count and
    whichever thread solves it, bit for bit.  An error is raised only once
    every chunk handed to the pool is done with its arrays.
    """
    cpus = _cpu_count()
    runs = iter(runs)
    # [tag, generator, chunks of its request (None before the first)]
    flight: list[list] = []
    try:
        while True:
            while len(flight) < _window(cpus):
                run = next(runs, None)
                if run is None:
                    break
                flight.append([*run, None])
            if not flight:
                return
            run = next(
                (r for r in flight if r[2] is None or all(c.done() for c in r[2])),
                None,
            )
            if run is None:
                if not any(c.solve_here() for r in reversed(flight) for c in r[2]):
                    futures.wait(
                        [c.future for r in flight for c in r[2] if not c.done()],
                        return_when=futures.FIRST_COMPLETED,
                    )
                continue
            solution = None if run[2] is None else _gather(run[2])
            # the solved request is let go before the next one is made
            run[2] = []
            try:
                A, b = run[1].send(solution)
            except StopIteration as stop:
                flight.remove(run)
                yield run[0], stop.value
                continue
            run[2] = _post(A, b, len(flight) == 1, cpus)
            # the chunks hold the request; this frame must not keep it
            # while suspended at the yield above
            del A, b
    finally:
        pending = [c.future for r in flight for c in r[2] or () if c.future is not None]
        for f in pending:
            f.cancel()
        futures.wait(pending)


@dataclass(frozen=True)
class GroupSolution:
    """IRLS outcome of one model on tables sharing a support; row i is
    table i.

    ``flags[i]`` is None when the deviance of row i settled, otherwise the
    reason its iteration stopped.  ``beta``, ``mu`` and ``deviance`` hold
    the final iterate of the settled rows and ``neg_log_likelihood`` the
    sum their BIC is made of (NaN elsewhere); ``change`` is each row's
    last deviance change.  The arrays are read-only: a ``FitResult`` reads
    its row after ``fit`` returns.
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
    return tuple(sorted(support, key=canonical_key))


def _group_rows(tables: Sequence[CountTable], rows: dict) -> tuple:
    """A group's cells, count rows and log n! rows, in the canonical order
    of its support, made once per group.

    ``rows`` maps the identities of a group's tables to them, so a group
    fitted with several models converts its counts once; making an entry
    validates the group (``_support_cells``).  A table listing exactly
    those cells gives its counts as they are; one built directly, which
    may list a zero cell or list its cells out of order, is read cell by
    cell.
    """
    key = tuple(map(id, tables))
    entry = rows.get(key)
    if entry is None:
        cells = _support_cells(tables)
        counts, log_factorials = [], []
        for t in tables:
            if tuple(t.counts) == cells:
                counts.append(list(t.counts.values()))
                log_factorials.append(t.log_factorials)
            else:
                row = [t.counts[w] for w in cells]
                counts.append(row)
                log_factorials.append(list(map(log_factorial, row)))
        counts = np.array(counts, dtype=float)
        log_factorials = np.array(log_factorials)
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


def _stacks(posed: dict[int, _Posed]) -> Iterator[list[tuple[int, int, int]]]:
    """The pieces of groups each IRLS run takes, as (key, first row, end
    row): pieces of one design shape, up to ``STACK_ELEMENTS`` elements in
    all.  A group larger than that is cut into pieces of as many rows as
    fit, and a row larger than that alone is a stack of its own."""
    by_shape: dict[tuple[int, int], list[int]] = {}
    for k, p in posed.items():
        by_shape.setdefault(p.X.shape, []).append(k)
    for (cells, params), keys in by_shape.items():
        most = max(STACK_ELEMENTS // (cells * params), 1)
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


def _irls(
    X: np.ndarray, Y: np.ndarray
) -> Generator[tuple[np.ndarray, np.ndarray], np.ndarray, tuple]:
    """IRLS on every row of a stack: row k fits counts ``Y[k]`` with design
    ``X[k]``.

    A generator: each iteration yields its weighted least-squares request
    ``(A, b)`` and is sent the solution rows of ``A[k] x = b[k]``
    (``_pipeline`` drives it).  ``X`` must be C-contiguous: numpy's
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
    # every request's weighted design goes to the front of one buffer: a
    # request is solved before the next is made, and a chunk the calling
    # thread took back from the pool, which stays queued until a pool
    # thread reaches it, then holds a view of the buffer, not an array
    weighted = np.empty_like(X)
    # x drops rows as they leave; the whole design need not be kept
    del X
    for _ in range(MAX_ITER):
        if not idx.size:
            break
        z = np.log(m) + (y - m) / m
        sw = np.sqrt(m)
        step = yield np.multiply(x, sw[:, :, None], out=weighted[:len(x)]), z * sw
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


def _runs(posed: dict[int, _Posed]) -> Iterator[tuple[tuple, Generator]]:
    """One IRLS run per stack, in ``_stacks`` order, tagged with its pieces
    and counts; each stacked design is built as its run is taken."""
    for stack in _stacks(posed):
        pieces = [(posed[k], lo, hi) for k, lo, hi in stack]
        # filled in place: a concatenation of broadcast views may come out
        # in another memory layout
        X = np.empty((sum(hi - lo for _, lo, hi in pieces), *pieces[0][0].X.shape))
        end = 0
        for p, lo, hi in pieces:
            X[end:end + hi - lo] = p.X
            end += hi - lo
        Y = np.concatenate([p.Y[lo:hi] for p, lo, hi in pieces])
        run = _irls(X, Y)
        # only the run holds the design while it is in flight
        del X
        yield (stack, Y), run


def solve_groups(
    problems: Sequence[tuple[ReducedProblem, Sequence[CountTable]]],
    rows: dict | None = None,
) -> list[GroupSolution]:
    """IRLS on every table of each (reduction, tables sharing one support)
    problem, with one IRLS run per stack of equal design shape; solution i
    is problem i's, row k of it table k's.

    A problem's reduction is its model's on its tables' support
    (``existence.ExistenceCache.reduction``).  ``rows`` holds the groups'
    ``_group_rows`` entries when the caller has validated and converted
    them, as ``fit_groups`` has; when it is None each group is validated
    here.  Each distinct design is built and rank-checked once per call.
    The groups whose
    designs have the same (retained cells, estimable parameters) shape
    are then stacked, one design and one count vector per table, up to
    ``STACK_ELEMENTS`` elements a stack (a larger group is cut into
    pieces of rows), and iterated together; ``_pipeline``
    keeps a few stacks in flight at once, so one stack's step overlaps
    another's least squares.  Every row is still its own ``dgelsd`` solve
    and its own matrix-vector product, so each solution equals the one
    the problem gets alone, and each row the one its table gets alone,
    bit for bit.  Rows leave the iteration as they converge or diverge,
    and the BIC sums of the settled rows are computed together at the
    end, bit for bit as the scalar loop adds them (``math.log``, and a
    left-to-right sum over the cells).
    """
    solutions: list[GroupSolution | None] = [None] * len(problems)
    posed: dict[int, _Posed] = {}
    if rows is None:
        rows = {}
    designs: dict = {}
    for k, (red, tables) in enumerate(problems):
        p = _pose(red, tables, rows, designs)
        if isinstance(p, GroupSolution):
            solutions[k] = p
        else:
            posed[k] = p
    # (first row, flags, GroupSolution arrays after ``reduced``) of each
    # piece of each group, as the stacks holding them finish
    pieces: dict[int, list] = {k: [] for k in posed}
    runs = _pipeline(_runs(posed))
    for (stack, Y), (flags, beta, mu, dev, first_dev, change) in runs:
        nll = np.full(len(Y), np.nan)
        settled = np.array([f is None for f in flags])
        log_factorials = [posed[k].log_factorials[lo:hi] for k, lo, hi in stack]
        nll[settled] = _neg_log_likelihood(
            Y[settled], mu[settled], np.concatenate(log_factorials)[settled]
        )
        start = 0
        for k, lo, hi in stack:
            end = start + hi - lo
            pieces[k].append((lo, flags[start:end], *(
                a[start:end] for a in (beta, mu, dev, nll, first_dev, change)
            )))
            start = end
    for k, p in posed.items():
        parts = sorted(pieces[k], key=lambda part: part[0])
        fields = zip(*(part[2:] for part in parts))
        solutions[k] = GroupSolution(
            p.reduced, tuple(f for part in parts for f in part[1]),
            *(a[0] if len(a) == 1 else np.concatenate(a) for a in fields),
        )
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

    This is the one-table case of ``fit_group``, which checks existence
    on a fresh ``ExistenceCache``; ``fit_groups`` and the two selectors
    check it the same way.  ``solved`` is only for a row of a
    ``solve_groups`` solution that already holds ``table``, at the given
    index: the result is then read from that row, unchecked, instead of
    solving again.  The row's scalars come from
    ``GroupSolution.scalars``, converted once per group, and a converged
    result builds ``alpha`` and ``mu`` from the row only when they are
    read.  A fit that still diverges is detected via the coefficient
    floor and reported as non-convergence.
    """
    if solved is None:
        return fit_group(model, [table], settings)[0]
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


def fit_groups(
    problems: Sequence[tuple[ModelSpec, Sequence[CountTable]]],
    settings: FitSettings = FitSettings(),
    cache: ExistenceCache | None = None,
) -> Iterator[list[FitResult]]:
    """``fit`` on every table of every (model, tables sharing one support)
    problem, in order, one problem's list of results at a time.

    When the first list is asked for, every group is validated and its
    counts converted, once per group (``_group_rows``), then existence is
    decided for all problems in one ``check_many`` call on ``cache`` (a
    fresh ``ExistenceCache`` when it is None), on each group's first
    table: the verdict depends only on the support.  A problem whose
    extended MLE does not exist gets a ``fr_failed`` result per table,
    with no estimate.  The others are solved by one ``solve_groups`` call,
    which reuses the converted counts and the reductions the cache keeps
    (``ExistenceCache.reduction``), in one IRLS run per stack of equal
    design shape.  Each of their tables' results is still made by a call
    to ``fit``, so anything wrapping ``fit`` sees one call per table, made as
    its list is taken; each call reads its row from the group's scalars,
    converted once (``GroupSolution.scalars``), and leaves ``alpha`` and
    ``mu`` to be built if they are read.
    """
    problems = list(problems)
    rows: dict = {}
    for _, tables in problems:
        _group_rows(tables, rows)
    if cache is None:
        cache = ExistenceCache()
    exists = cache.check_many([(model, tables[0]) for model, tables in problems])
    solving = [
        (cache.reduction(model, tables[0]), tables)
        for (model, tables), ok in zip(problems, exists) if ok
    ]
    solutions = iter(solve_groups(solving, rows))
    for (model, tables), ok in zip(problems, exists):
        if not ok:
            yield [FitResult(model, STATUS_FR_FAILED) for _ in tables]
            continue
        solution = next(solutions)
        yield [fit(model, t, settings, (solution, i)) for i, t in enumerate(tables)]


def fit_group(
    model: ModelSpec,
    tables: Sequence[CountTable],
    settings: FitSettings = FitSettings(),
    cache: ExistenceCache | None = None,
) -> list[FitResult]:
    """``fit`` on every table of a group sharing one support, with a single
    existence check and a single IRLS run for the whole group: the
    one-problem case of ``fit_groups``."""
    return next(fit_groups([(model, tables)], settings, cache))


def select_best_bic(
    candidates: Iterable[ModelSpec],
    table: CountTable,
    cache: ExistenceCache | None = None,
    settings: FitSettings = FitSettings(),
) -> tuple[ModelSpec, FitResult]:
    """Fit every candidate and return the BIC minimizer.

    The candidates are checked and fitted together by one ``fit_groups``
    call on ``cache``; those failing the existence check or the fit get
    an infinite BIC.  ``lowest_bic`` picks among the fits: ties go to the
    earliest candidate in the given (canonical) order, and nothing
    attaining a finite BIC raises NoModelFoundError.
    """
    fits = fit_groups([(m, [table]) for m in candidates], settings, cache)
    return lowest_bic(res for [res] in fits)


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
    fits = fit_groups([(m, [table]) for m in candidates], settings, cache)
    return chisq_choice((res for [res] in fits), table, p_lo, p_hi)
