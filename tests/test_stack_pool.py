"""``glm.solve_groups`` on the thread pool: each IRLS stack is one task,
which builds its stacked design and runs ``glm._irls`` whole.

Results must not depend on the CPU count, bit for bit; an error in any
stack must reach the caller and leave the pool working; a forked child
must make its own pool; and the reduction, the design and ``fit`` must
stay on the calling thread.  The CPU count is monkeypatched, so pools
larger than this machine's are covered too, and every test here makes
its own pool.
"""

import multiprocessing
import os
import threading
import warnings

import numpy as np
import pytest

from mseboot import existence, glm
from mseboot.glm import fit_pairs, solve_groups

from conftest import pairs_of, reduced
from test_stacked_irls import mixed_problems

FIELDS = ("beta", "mu", "deviance", "neg_log_likelihood", "first_deviance", "change")

# glm.MAX_ITER for each case: 12 iterations leave rows diverged, settled
# and still iterating in one batch
MAX_ITERS = [glm.MAX_ITER, 12]

# small stacks, so a batch makes many of them and every pool thread
# takes some
SMALL_STACK = 2_000


def assert_same_solutions(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.reduced == b.reduced and a.flags == b.flags
        for field in FIELDS:
            x, y = getattr(a, field), getattr(b, field)
            assert x.shape == y.shape and np.array_equal(x, y, equal_nan=True), field


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool at the start, small stacks; the pool the test makes is shut
    down after it."""
    monkeypatch.setattr(glm, "_pool", None)
    monkeypatch.setattr(glm, "STACK_ELEMENTS", SMALL_STACK)
    yield
    if glm._pool is not None:
        glm._pool[1].shutdown()


@pytest.fixture
def irls_threads(monkeypatch):
    """The thread of each ``glm._irls`` call."""
    seen = []
    real = glm._irls

    def recording_irls(X, Y):
        seen.append(threading.get_ident())
        return real(X, Y)

    monkeypatch.setattr(glm, "_irls", recording_irls)
    return seen


@pytest.fixture(scope="module")
def one_cpu_solutions():
    """``solve_groups`` on ``mixed_problems()`` with small stacks on a pool
    of one thread."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glm, "_cpu_count", lambda: 1)
        mp.setattr(glm, "_pool", None)
        mp.setattr(glm, "STACK_ELEMENTS", SMALL_STACK)
        solutions = []
        for max_iter in MAX_ITERS:
            mp.setattr(glm, "MAX_ITER", max_iter)
            solutions.append(solve_groups(reduced(mixed_problems())))
        if glm._pool is not None:
            glm._pool[1].shutdown()
        return solutions


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("n", range(len(MAX_ITERS)))
def test_any_cpu_count_gives_the_one_cpu_results(
    n, cpus, one_cpu_solutions, monkeypatch, fresh_pool, irls_threads
):
    monkeypatch.setattr(glm, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(glm, "MAX_ITER", MAX_ITERS[n])
    got = solve_groups(reduced(mixed_problems()))
    assert_same_solutions(got, one_cpu_solutions[n])
    flags = {f for s in got for f in s.flags}
    expected = {None, "diverged", "parameter_redundant"}
    if n:
        expected.add("max_iterations")
    assert expected <= flags
    # one thread per CPU, and every stack iterated on one of them
    assert glm._pool[1]._max_workers == cpus
    assert len(irls_threads) > 4 * cpus
    assert threading.get_ident() not in irls_threads
    assert len(set(irls_threads)) <= cpus


def _fault_one_stack(monkeypatch, fault):
    """Make the fifth least-squares solve of a batch fail: a NaN row from
    the kernel, which raises the invalid flag as a failed SVD does, or a
    right-hand side holding an inf.  Returns the threads that faulted."""
    lock = threading.Lock()
    calls, faulted = [0], []
    real_lstsq, real_solve = glm._LSTSQ, glm._solve

    def fifth():
        with lock:
            calls[0] += 1
            if calls[0] != 5:
                return False
        faulted.append(threading.get_ident())
        return True

    def lstsq(A, b, rcond):
        x, *rest = real_lstsq(A, b, rcond)
        if fifth():
            x[0] = np.sqrt(np.full(x[0].shape, -1.0))
        return (x, *rest)

    def solve(A, b):
        if fifth():
            b = b.copy()
            b[0, 0] = np.inf
        return real_solve(A, b)

    if fault == "nan_row":
        monkeypatch.setattr(glm, "_LSTSQ", lstsq)
    else:
        monkeypatch.setattr(glm, "_solve", solve)
    return faulted


@pytest.mark.parametrize("fault, error, match", [
    ("nan_row", np.linalg.LinAlgError, "did not converge"),
    ("non_finite", ValueError, "infs or NaNs"),
], ids=["nan_row", "non_finite"])
def test_error_in_one_stack_reaches_the_caller(
    fault, error, match, one_cpu_solutions, monkeypatch, fresh_pool
):
    """The error is the stack's own, raised with no ``RuntimeWarning``
    (``np.errstate`` holds only in the pool thread that enters it), and
    the same pool solves the next batch."""
    monkeypatch.setattr(glm, "_cpu_count", lambda: 2)
    with monkeypatch.context() as mp:
        faulted = _fault_one_stack(mp, fault)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match):
                solve_groups(reduced(mixed_problems()))
    assert len(faulted) == 1 and faulted[0] != threading.get_ident()
    pool = glm._pool
    assert_same_solutions(solve_groups(reduced(mixed_problems())), one_cpu_solutions[0])
    assert glm._pool is pool


def _solve_in_child(problems, conn):
    solutions = solve_groups(problems)
    conn.send(([s.flags for s in solutions], [s.mu for s in solutions], glm._pool[0]))
    conn.close()


def test_forked_child_makes_its_own_pool(monkeypatch, fresh_pool):
    """A pool inherited across ``fork`` has no threads and never runs new
    work; the child must make a pool of its own."""
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
    monkeypatch, fresh_pool, irls_threads
):
    """The benchmark's spans assume one thread: ``fit``, the reduction and
    the design are the calling thread's, and the pool runs the stacks.
    ``fit_pairs`` fits from the reductions its existence cache makes, so
    the reduction is wrapped where ``existence`` calls it."""
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
    assert irls_threads and threading.get_ident() not in irls_threads


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
