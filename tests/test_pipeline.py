"""Errors on the way from a least-squares input to ``glm.solve_groups``'s
caller.

A non-finite input is refused before it reaches LAPACK; a row whose SVD
fails raises ``LinAlgError`` on the pool thread that solved it, with no
``RuntimeWarning``; and an error in one stack is raised only once every
stack task already running has finished, the queued ones cancelled, so
no task of a failed call outlives it.  The CPU count is monkeypatched
and every test here makes its own pool.
"""

import threading
import time
import warnings

import numpy as np
import pytest

from mseboot import glm
from mseboot.core import canonical_key
from mseboot.glm import solve_groups
from mseboot.sparsity import canonical_cells, design_matrix

from conftest import least_squares_rows, reduced
from test_stacked_irls import mixed_problems

# seconds each pool solve of the error test takes, so that a stack is
# still iterating on the other thread when one fails
SLOW_SOLVE = 0.02


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool at the start and two CPUs, with small stacks so a batch
    makes many of them; the pool the test makes is shut down after it."""
    monkeypatch.setattr(glm, "_pool", None)
    monkeypatch.setattr(glm, "_cpu_count", lambda: 2)
    monkeypatch.setattr(glm, "STACK_ELEMENTS", 2_000)
    yield
    if glm._pool is not None:
        glm._pool[1].shutdown()


@pytest.fixture
def submitted(monkeypatch):
    """The future of each task handed to the pool."""
    seen = []
    real = glm._executor

    class Recording:
        def __init__(self, pool):
            self.pool = pool

        def submit(self, fn, *args):
            seen.append(self.pool.submit(fn, *args))
            return seen[-1]

    def recording_executor():
        pool, threads = real()
        return Recording(pool), threads

    monkeypatch.setattr(glm, "_executor", recording_executor)
    return seen


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


def _fault_while_another_stack_runs(monkeypatch, fault):
    """Slow every solve down, and make one fail while another stack is
    iterating on the other pool thread: a NaN row from the kernel, which
    raises the invalid flag as a failed SVD does, or a right-hand side
    holding an inf.  Returns the (thread, time) at which each ``_irls``
    call finished, the (thread, time) of the fault and the count of
    ``_irls`` calls in progress."""
    lock = threading.Lock()
    calls, active, finished, faulted = [0], [0], [], []
    real_lstsq, real_solve, real_irls = glm._LSTSQ, glm._solve, glm._irls

    def irls(X, Y):
        with lock:
            active[0] += 1
        try:
            return real_irls(X, Y)
        finally:
            with lock:
                active[0] -= 1
                finished.append((threading.get_ident(), time.monotonic()))

    def fault_now():
        with lock:
            calls[0] += 1
            if faulted or calls[0] < 5 or active[0] < 2:
                return False
            faulted.append((threading.get_ident(), time.monotonic()))
            return True

    def lstsq(A, b, rcond):
        time.sleep(SLOW_SOLVE)
        x, *rest = real_lstsq(A, b, rcond)
        if fault == "nan_row" and fault_now():
            x[0] = np.sqrt(np.full(x[0].shape, -1.0))
        return (x, *rest)

    def solve(A, b):
        if fault == "non_finite" and fault_now():
            b = b.copy()
            b[0, 0] = np.inf
        return real_solve(A, b)

    monkeypatch.setattr(glm, "_irls", irls)
    monkeypatch.setattr(glm, "_LSTSQ", lstsq)
    monkeypatch.setattr(glm, "_solve", solve)
    return finished, faulted, active


@pytest.mark.parametrize("fault, error, match", [
    ("nan_row", np.linalg.LinAlgError, "did not converge"),
    ("non_finite", ValueError, "infs or NaNs"),
])
def test_error_comes_after_every_submitted_chunk(
    fault, error, match, monkeypatch, fresh_pool, submitted
):
    with monkeypatch.context() as mp:
        finished, faulted, active = _fault_while_another_stack_runs(mp, fault)
        with pytest.raises(error, match=match):
            solve_groups(reduced(mixed_problems()))
        raised = time.monotonic()
        in_progress = active[0]
    assert len(faulted) == 1
    assert faulted[0][0] != threading.get_ident()
    # every task is done: the running ones finished, the queued ones were
    # cancelled
    assert submitted and all(f.done() for f in submitted)
    assert any(f.cancelled() for f in submitted)
    assert in_progress == 0
    # a stack was iterating on the other thread when the fault was made,
    # and the error waited for it
    fault_thread, fault_time = faulted[0]
    assert any(th != fault_thread and t > fault_time for th, t in finished)
    assert max(t for _, t in finished) <= raised


def test_non_finite_input_raises_before_any_submit(monkeypatch):
    """An inf or NaN in the design or the right-hand side raises
    ``ValueError`` and never reaches the kernel."""
    kernel_calls = []
    real = glm._LSTSQ

    def recording_lstsq(A, b, rcond):
        kernel_calls.append(len(A))
        return real(A, b, rcond)

    monkeypatch.setattr(glm, "_LSTSQ", recording_lstsq)
    A, b = weighted_rows(4, 11, 40, seed=1)
    for bad in (np.inf, np.nan):
        A2, b2 = A.copy(), b.copy()
        A2[-1, 0, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            least_squares_rows(A2, b)
        b2[-1, -1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            least_squares_rows(A, b2)
    assert kernel_calls == []
    least_squares_rows(A, b)
    assert kernel_calls == [40]


def test_nan_row_solved_by_the_pool_raises_linalg_error_without_warning(
    monkeypatch, fresh_pool
):
    """The kernel returns NaN for a row whose SVD does not converge and
    raises the invalid flag, which warns unless ``np.errstate`` ignores it;
    the pool thread must ignore it itself, as errstate is per thread."""
    A, b = weighted_rows(4, 11, 40, seed=2)
    marker = 1e300
    b[-1, 0] = marker
    threads = []
    real = glm._LSTSQ

    def lstsq_failing_on_marked_rows(A, b, rcond):
        x, *rest = real(A, b, rcond)
        bad = b[:, 0, 0] == marker
        if bad.any():
            threads.append(threading.get_ident())
            # NaN, raising the invalid flag as the kernel does
            x[bad] = np.sqrt(np.full(x[bad].shape, -1.0))
        return (x, *rest)

    monkeypatch.setattr(glm, "_LSTSQ", lstsq_failing_on_marked_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        task = glm._executor()[0].submit(glm._solve, A, b)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            task.result()
    assert len(threads) == 1 and threads[0] != threading.get_ident()
