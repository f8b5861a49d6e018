"""``glm._least_squares_rows`` split across CPUs against one unsplit call of
numpy's stacked ``dgelsd`` kernel, bit for bit.

A stack of at least ``glm.SPLIT_ELEMENTS`` design elements is cut into
contiguous chunks of rows, one per CPU; this thread solves the first and a
thread pool the others.  Every row is still its own solve, so the result
must not depend on the number of chunks.  The CPU count is monkeypatched,
so chunk counts above this machine's are covered too.
"""

import multiprocessing
import os
import threading
import warnings
from concurrent import futures

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from mseboot import CountTable, ModelSpec
from mseboot import glm
from mseboot.bootstrap import replicate_rng, resample
from mseboot.core import canonical_key
from mseboot.sparsity import canonical_cells, design_matrix

from conftest import KOREA_COUNTS

# (lists, estimable parameters): the 7 x 6, 15 x 11 and 63 x 22 designs
# the benchmark workloads stack
SHAPES = [(3, 6), (4, 11), (6, 22)]


def unsplit(A, b):
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
    per_row = len(canonical_cells(t)) * params
    below = (glm.SPLIT_ELEMENTS - 1) // per_row
    return sorted({1, 2, 3, 5, 7, below, below + 1, below + 2})


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool at the start; the one the test makes is shut down after it."""
    monkeypatch.setattr(glm, "_pool", None)
    yield
    if glm._pool is not None:
        glm._pool[1].shutdown()


@pytest.fixture
def submits(monkeypatch, fresh_pool):
    """Row counts of the chunks handed to the pool."""
    seen = []
    real = glm._executor

    class Recording:
        def submit(self, fn, A, b):
            seen.append(len(A))
            return real().submit(fn, A, b)

    monkeypatch.setattr(glm, "_executor", Recording)
    return seen


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("t, params", SHAPES)
def test_split_equals_one_unsplit_call(t, params, cpus, monkeypatch, submits):
    monkeypatch.setattr(glm, "_cpu_count", lambda: cpus)
    for rows in row_counts(t, params):
        A, b = weighted_rows(t, params, rows, seed=rows)
        submits.clear()
        got = glm._least_squares_rows(A, b)
        assert got.shape == (rows, params)
        assert np.array_equal(got, unsplit(A, b)), rows
        chunks = min(cpus, rows) if A.size >= glm.SPLIT_ELEMENTS else 1
        assert len(submits) == chunks - 1
        # contiguous chunks as even as the rows allow; the first is this
        # thread's
        assert sum(submits) == rows - rows // chunks


def test_non_finite_input_raises_before_any_submit(monkeypatch, submits):
    monkeypatch.setattr(glm, "_cpu_count", lambda: 2)
    A, b = weighted_rows(4, 11, 40, seed=1)
    for bad in (np.inf, np.nan):
        A2, b2 = A.copy(), b.copy()
        A2[-1, 0, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            glm._least_squares_rows(A2, b)
        b2[-1, -1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            glm._least_squares_rows(A, b2)
    assert submits == []


def test_nan_row_in_last_chunk_raises_linalg_error_without_warning(monkeypatch, submits):
    """The kernel returns NaN for a row whose SVD does not converge and
    raises the invalid flag, which warns unless ``np.errstate`` ignores it;
    the pool thread must ignore it itself, as errstate is per thread."""
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
            # the first chunk waits, so the pool solves the last one
            assert pool_started.wait(30)
        return (x, *rest)

    monkeypatch.setattr(glm, "_LSTSQ", lstsq_failing_on_marked_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            glm._least_squares_rows(A, b)
    assert submits == [20]
    assert len(threads) == 1 and threads[0] != threading.get_ident()


def test_chunk_no_pool_thread_started_is_solved_here(monkeypatch):
    """A chunk still queued when this thread is done with its own (the
    pool's CPUs are busy) is taken back and solved here."""
    monkeypatch.setattr(glm, "_cpu_count", lambda: 3)
    queued = []

    class Busy:
        def submit(self, fn, A, b):
            queued.append(futures.Future())
            return queued[-1]

    monkeypatch.setattr(glm, "_executor", Busy)
    A, b = weighted_rows(6, 22, 7, seed=3)
    assert np.array_equal(glm._least_squares_rows(A, b), unsplit(A, b))
    assert len(queued) == 2 and all(f.cancelled() for f in queued)


def test_one_cpu_makes_no_pool(monkeypatch, fresh_pool):
    monkeypatch.setattr(glm, "_cpu_count", lambda: 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was made on one CPU")

    monkeypatch.setattr(glm.futures, "ThreadPoolExecutor", no_pool)
    korea = CountTable.from_counts(3, KOREA_COUNTS)
    group = [resample(korea, replicate_rng(3, i)) for i in range(400)]
    group = [t for t in group if len(t.counts) == 6]
    assert len(group) * 7 * 4 >= glm.SPLIT_ELEMENTS
    fits = glm.fit_group(ModelSpec.null_model(3), group)
    assert all(f.converged for f in fits)
    assert glm._pool is None


def _fit_in_child(model, group, conn):
    solution = glm.solve_groups([(model, group)])[0]
    conn.send((solution.flags, solution.beta, solution.mu, glm._pool[0]))
    conn.close()


def test_forked_child_makes_its_own_pool(monkeypatch, fresh_pool):
    """A pool inherited across ``fork`` has no threads and never runs new
    work; the child must solve its stacks with a pool of its own."""
    monkeypatch.setattr(glm, "_cpu_count", lambda: 2)
    korea = CountTable.from_counts(3, KOREA_COUNTS)
    group = [resample(korea, replicate_rng(4, i)) for i in range(400)]
    group = [t for t in group if len(t.counts) == 6]
    model = ModelSpec.from_notation("[12,13]", 3)
    assert len(group) * 7 * 5 >= glm.SPLIT_ELEMENTS
    parent = glm.solve_groups([(model, group)])[0]
    assert glm._pool is not None and glm._pool[0] == os.getpid()

    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_fit_in_child, args=(model, group, send))
    child.start()
    send.close()
    try:
        assert receive.poll(30), "the forked child hung on the inherited pool"
        flags, beta, mu, pool_pid = receive.recv()
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert pool_pid == child.pid
    assert flags == parent.flags
    assert np.array_equal(beta, parent.beta) and np.array_equal(mu, parent.mu)
