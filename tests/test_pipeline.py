"""``glm._pipeline``: the IRLS runs of a batch kept in flight together, one
run's step on the calling thread while the pool solves another's least
squares.

Each run has at most one request in flight, and a request is solved
whole: on the calling thread, or by the pool when there is a second CPU
and it has at least ``glm.POOL_ELEMENTS`` design elements.  Results must
not depend on the CPU count or on which thread solves a request, bit for
bit, and must equal one call of numpy's stacked ``dgelsd`` kernel; errors
must surface only once the pool is done with every request handed to it;
and nothing but ``glm._solve`` may run off the calling thread.  The CPU
count is monkeypatched, so pools larger than this machine's are covered
too, and every test here makes its own pool even when the process may
use one CPU only.
"""

import multiprocessing
import os
import threading
import time
import warnings
from concurrent import futures

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from mseboot import CountTable, ModelSpec, existence, glm
from mseboot.bootstrap import replicate_rng, resample
from mseboot.core import canonical_key
from mseboot.glm import fit_pairs, solve_groups
from mseboot.sparsity import canonical_cells, design_matrix

from conftest import KOREA_COUNTS, least_squares_rows, pairs_of, reduced
from test_stacked_irls import mixed_problems

FIELDS = ("beta", "mu", "deviance", "neg_log_likelihood", "first_deviance", "change")

# glm.MAX_ITER for each case: 12 iterations leave rows diverged, settled
# and still iterating in one batch
MAX_ITERS = [glm.MAX_ITER, 12]

# (lists, estimable parameters): the 7 x 6, 15 x 11 and 63 x 22 designs
# the benchmark workloads stack
SHAPES = [(3, 6), (4, 11), (6, 22)]


def assert_same_solutions(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.reduced == b.reduced and a.flags == b.flags
        for field in FIELDS:
            x, y = getattr(a, field), getattr(b, field)
            assert x.shape == y.shape and np.array_equal(x, y, equal_nan=True), field


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool at the start; the one the test makes is shut down after it."""
    monkeypatch.setattr(glm, "_pool", None)
    yield
    if glm._pool is not None:
        glm._pool[1].shutdown()


@pytest.fixture
def busy_pipeline(monkeypatch, fresh_pool):
    """Every request goes to the pool, and stacks are small, so many runs
    are in flight at once."""
    monkeypatch.setattr(glm, "POOL_ELEMENTS", 1)
    monkeypatch.setattr(glm, "STACK_ELEMENTS", 2_000)


@pytest.fixture
def submitted(monkeypatch):
    """(rows, future) of each request handed to the pool; only ``_solve``
    may be."""
    seen = []
    real = glm._executor

    class Recording:
        def submit(self, fn, A, b):
            assert fn is glm._solve
            seen.append((len(A), real().submit(fn, A, b)))
            return seen[-1][1]

    monkeypatch.setattr(glm, "_executor", Recording)
    return seen


def one_lstsq_call(A, b):
    return _umath_linalg.lstsq(A, b[:, :, None], np.finfo(np.float64).eps)[0][:, :, 0]


def weighted_rows(t, params, rows, seed):
    """``rows`` weighted least-squares problems on one design, as IRLS poses
    them; every third row is rank-deficient (two equal columns)."""
    rng = np.random.default_rng(seed)
    cells = canonical_cells(t)
    X = design_matrix(cells, sorted(range(1 << t), key=canonical_key)[:params])
    sw = np.sqrt(rng.uniform(0.5, 60.0, (rows, len(cells))))
    A = np.ascontiguousarray(np.broadcast_to(X, (rows, *X.shape))) * sw[:, :, None]
    A[::3, :, -1] = A[::3, :, -2]
    b = rng.normal(2.0, 1.0, (rows, len(cells))) * sw
    return A, b


def row_counts(t, params):
    """Row counts on both sides of ``glm.POOL_ELEMENTS``."""
    per_row = len(canonical_cells(t)) * params
    below = (glm.POOL_ELEMENTS - 1) // per_row
    return sorted({1, 2, 3, 5, 7, below, below + 1, below + 2})


def one_request(A, b):
    """An IRLS run stand-in that posts the one request ``(A, b)``."""
    return (yield A, b)


@pytest.fixture(scope="module")
def one_cpu_solutions():
    """``solve_groups`` on ``mixed_problems()`` driven inline on one CPU."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glm, "_cpu_count", lambda: 1)
        solutions = []
        for max_iter in MAX_ITERS:
            mp.setattr(glm, "MAX_ITER", max_iter)
            solutions.append(solve_groups(reduced(mixed_problems())))
        return solutions


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("n", range(len(MAX_ITERS)))
def test_any_cpu_count_gives_the_one_cpu_results(
    n, cpus, one_cpu_solutions, monkeypatch, busy_pipeline, submitted
):
    monkeypatch.setattr(glm, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(glm, "MAX_ITER", MAX_ITERS[n])
    # every request as its run posted it, and every array solved, on
    # either thread; both lists keep their arrays alive, so ids are unique
    posted, solved = [], []
    real_post, real_solve = glm._post, glm._solve

    def recording_post(A, b, cpus):
        posted.append(A)
        return real_post(A, b, cpus)

    def recording_solve(A, b):
        solved.append(A)
        return real_solve(A, b)

    monkeypatch.setattr(glm, "_post", recording_post)
    monkeypatch.setattr(glm, "_solve", recording_solve)
    got = solve_groups(reduced(mixed_problems()))
    assert_same_solutions(got, one_cpu_solutions[n])
    flags = {f for s in got for f in s.flags}
    expected = {None, "diverged", "parameter_redundant"}
    if n:
        expected.add("max_iterations")
    assert expected <= flags
    if cpus == 1:
        assert submitted == [] and glm._pool is None
    else:
        assert submitted and all(f.done() for _, f in submitted)
    # each request, the pool's included, is solved once and whole: it
    # holds all of its run's rows
    assert len(solved) == len(posted)
    assert {id(A) for A in solved} == {id(A) for A in posted}


def test_window_bounds_the_runs_in_flight(monkeypatch, busy_pipeline):
    monkeypatch.setattr(glm, "_cpu_count", lambda: 2)
    live, most = set(), [0]
    real_irls = glm._irls

    def counting_irls(X, Y):
        key = object()
        live.add(key)
        most[0] = max(most[0], len(live))
        try:
            return (yield from real_irls(X, Y))
        finally:
            live.discard(key)

    monkeypatch.setattr(glm, "_irls", counting_irls)
    solve_groups(reduced(mixed_problems()))
    assert most[0] == glm._window(2) == 3
    assert glm._window(1) == 1


def _fault_when_pool_busy(monkeypatch, fault):
    """Make one request fail while a pool thread is in the middle of
    another: a NaN row from a solve on this thread, or a request holding an
    inf.  Pool solves take a while, so the pipeline has to wait for them.
    Returns the pool's finishing times and when the fault was made."""
    main = threading.get_ident()
    running, finished, faulted = [0], [], []
    real_lstsq, real_irls = glm._LSTSQ, glm._irls

    def lstsq(A, b, rcond):
        if threading.get_ident() == main:
            x, *rest = real_lstsq(A, b, rcond)
            if fault == "nan_row" and running[0] and not faulted:
                faulted.append(time.monotonic())
                x[0] = np.sqrt(np.full(x[0].shape, -1.0))
            return (x, *rest)
        running[0] += 1
        try:
            time.sleep(0.02)
            return real_lstsq(A, b, rcond)
        finally:
            finished.append(time.monotonic())
            running[0] -= 1

    def irls(X, Y):
        inner = real_irls(X, Y)
        request = next(inner)
        while True:
            if fault == "non_finite" and running[0] and not faulted:
                faulted.append(time.monotonic())
                request = (request[0], request[1].copy())
                request[1][0, 0] = np.inf
            try:
                request = inner.send((yield request))
            except StopIteration as stop:
                return stop.value

    monkeypatch.setattr(glm, "_LSTSQ", lstsq)
    monkeypatch.setattr(glm, "_irls", irls)
    return finished, faulted


@pytest.mark.parametrize("fault, error, match", [
    ("nan_row", np.linalg.LinAlgError, "did not converge"),
    ("non_finite", ValueError, "infs or NaNs"),
])
def test_error_comes_after_every_submitted_chunk(
    fault, error, match, monkeypatch, busy_pipeline, submitted
):
    monkeypatch.setattr(glm, "_cpu_count", lambda: 2)
    finished, faulted = _fault_when_pool_busy(monkeypatch, fault)
    with pytest.raises(error, match=match):
        solve_groups(reduced(mixed_problems()))
    raised = time.monotonic()
    assert len(faulted) == 1
    assert submitted and all(f.done() for _, f in submitted)
    # a request was still being solved when the fault was made, and the
    # error waited for it
    assert any(t > faulted[0] for t in finished)
    assert max(finished) <= raised


def _solve_in_child(problems, conn):
    solutions = solve_groups(problems)
    conn.send(([s.flags for s in solutions], [s.mu for s in solutions], glm._pool[0]))
    conn.close()


def test_forked_child_makes_its_own_pool(monkeypatch, busy_pipeline):
    """A pool inherited across ``fork`` has no threads and never runs new
    work; the child's pipeline must make a pool of its own."""
    monkeypatch.setattr(glm, "_cpu_count", lambda: 2)
    problems = reduced(mixed_problems()[:120])
    parent = solve_groups(problems)
    assert glm._pool is not None and glm._pool[0] == os.getpid()

    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_solve_in_child, args=(problems, send))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child hung on the inherited pool"
        flags, mu, pool_pid = receive.recv()
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert pool_pid == child.pid
    assert flags == [s.flags for s in parent]
    assert all(np.array_equal(a, s.mu) for a, s in zip(mu, parent))


def test_traced_functions_run_on_the_calling_thread(
    monkeypatch, busy_pipeline, submitted
):
    """The benchmark's spans assume one thread: ``fit``, the reduction and
    the design are the calling thread's, and the pool runs only
    ``_solve`` (checked by ``submitted``).  ``fit_pairs`` fits from the
    reductions its existence cache makes, so the reduction is wrapped
    where ``existence`` calls it."""
    monkeypatch.setattr(glm, "_cpu_count", lambda: 2)
    seen = set()
    for module, name in ((glm, "fit"), (existence, "reduce_for_sparsity"),
                         (glm, "design_matrix")):
        def wrapped(*args, _name=name, _real=getattr(module, name), **kwargs):
            seen.add((_name, threading.get_ident()))
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
    for _ in fit_pairs(pairs_of(mixed_problems())):
        pass
    assert {name for name, _ in seen} == {"fit", "reduce_for_sparsity", "design_matrix"}
    assert {thread for _, thread in seen} == {threading.get_ident()}
    assert submitted


def test_count_rows_are_made_once_per_group(monkeypatch):
    problems = reduced(mixed_problems())
    caches = []
    real_pose = glm._pose

    def recording_pose(red, tables, rows, designs):
        caches.append(rows)
        return real_pose(red, tables, rows, designs)

    monkeypatch.setattr(glm, "_pose", recording_pose)
    solve_groups(problems)
    # one dict for the call, one entry per distinct group of tables
    assert all(rows is caches[0] for rows in caches)
    groups = {tuple(map(id, tables)) for _, tables in problems}
    assert len(caches[0]) == len(groups) < len(problems)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("t, params", SHAPES)
def test_whole_request_equals_one_lstsq_call(
    t, params, cpus, monkeypatch, fresh_pool, submitted
):
    monkeypatch.setattr(glm, "_cpu_count", lambda: cpus)
    for rows in row_counts(t, params):
        A, b = weighted_rows(t, params, rows, seed=rows)
        submitted.clear()
        got = least_squares_rows(A, b)
        assert got.shape == (rows, params)
        assert np.array_equal(got, one_lstsq_call(A, b)), rows
        # the pool is handed the whole request or nothing
        pooled = cpus > 1 and A.size >= glm.POOL_ELEMENTS
        assert [n for n, _ in submitted] == ([rows] if pooled else []), rows


def test_non_finite_input_raises_before_any_submit(monkeypatch, fresh_pool, submitted):
    monkeypatch.setattr(glm, "_cpu_count", lambda: 2)
    A, b = weighted_rows(4, 11, 40, seed=1)
    for bad in (np.inf, np.nan):
        A2, b2 = A.copy(), b.copy()
        A2[-1, 0, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            least_squares_rows(A2, b)
        b2[-1, -1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            least_squares_rows(A, b2)
    assert submitted == []


def test_nan_row_solved_by_the_pool_raises_linalg_error_without_warning(
    monkeypatch, fresh_pool, submitted
):
    """The kernel returns NaN for a row whose SVD does not converge and
    raises the invalid flag, which warns unless ``np.errstate`` ignores it;
    the pool thread must ignore it itself, as errstate is per thread.  A
    second run in flight keeps the calling thread busy until the pool has
    started the first run's request, so it cannot take that back."""
    monkeypatch.setattr(glm, "_cpu_count", lambda: 2)
    A, b = weighted_rows(4, 11, 40, seed=2)
    marker = 1e300
    b[-1, 0] = marker
    threads = []
    pool_started = threading.Event()
    real = glm._LSTSQ

    def lstsq_failing_on_marked_rows(A, b, rcond):
        x, *rest = real(A, b, rcond)
        bad = b[:, 0, 0] == marker
        if bad.any():
            threads.append(threading.get_ident())
            pool_started.set()
            # NaN, raising the invalid flag as the kernel does
            x[bad] = np.sqrt(np.full(x[bad].shape, -1.0))
        else:
            # the second run's request waits for the pool to start the first
            assert pool_started.wait(30)
        return (x, *rest)

    monkeypatch.setattr(glm, "_LSTSQ", lstsq_failing_on_marked_rows)
    second = weighted_rows(3, 6, 1, seed=3)
    runs = [("marked", one_request(A, b)), ("second", one_request(*second))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            list(glm._pipeline(runs))
    assert [n for n, _ in submitted] == [40]
    assert len(threads) == 1 and threads[0] != threading.get_ident()


def test_request_no_pool_thread_started_is_solved_here(monkeypatch):
    """A request still queued when the calling thread has nothing else to
    do (the pool's CPUs are busy) is taken back and solved here."""
    monkeypatch.setattr(glm, "_cpu_count", lambda: 3)
    queued = []

    class Busy:
        def submit(self, fn, A, b):
            queued.append(futures.Future())
            return queued[-1]

    monkeypatch.setattr(glm, "_executor", Busy)
    A, b = weighted_rows(6, 22, 7, seed=3)
    assert A.size >= glm.POOL_ELEMENTS
    assert np.array_equal(least_squares_rows(A, b), one_lstsq_call(A, b))
    assert len(queued) == 1 and queued[0].cancelled()


def test_one_cpu_makes_no_pool(monkeypatch, fresh_pool):
    monkeypatch.setattr(glm, "_cpu_count", lambda: 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was made on one CPU")

    monkeypatch.setattr(glm.futures, "ThreadPoolExecutor", no_pool)
    korea = CountTable.from_counts(3, KOREA_COUNTS)
    group = [resample(korea, replicate_rng(3, i)) for i in range(400)]
    group = [t for t in group if len(t.counts) == 6]
    assert len(group) * 7 * 4 >= glm.POOL_ELEMENTS
    fits = list(glm.fit_pairs((ModelSpec.null_model(3), t) for t in group))
    assert all(f.converged for f in fits)
    assert glm._pool is None
