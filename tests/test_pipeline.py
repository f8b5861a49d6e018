"""``glm._pipeline``: the IRLS runs of a batch kept in flight together, one
run's step on the calling thread while the pool solves another's least
squares.

Results must not depend on the CPU count or on which thread solves a
chunk, bit for bit; errors must surface only once the pool is done with
every chunk handed to it; and nothing but ``glm._solve`` may run off the
calling thread.  The CPU count is monkeypatched, so pools larger than
this machine's are covered too, and every test here makes its own pool
even when the process may use one CPU only.
"""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from mseboot import existence, glm
from mseboot.glm import fit_groups, solve_groups

from conftest import reduced
from test_stacked_irls import mixed_problems

FIELDS = ("beta", "mu", "deviance", "neg_log_likelihood", "first_deviance", "change")

# glm.MAX_ITER for each case: 12 iterations leave rows diverged, settled
# and still iterating in one batch
MAX_ITERS = [glm.MAX_ITER, 12]


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
    """Every request of two or more rows goes to the pool, and stacks are
    small, so many runs are in flight at once."""
    monkeypatch.setattr(glm, "SPLIT_ELEMENTS", 1)
    monkeypatch.setattr(glm, "STACK_ELEMENTS", 2_000)


@pytest.fixture
def submitted(monkeypatch):
    """Futures of the chunks handed to the pool; only ``_solve`` may be."""
    seen = []
    real = glm._executor

    class Recording:
        def submit(self, fn, A, b):
            assert fn is glm._solve
            seen.append(real().submit(fn, A, b))
            return seen[-1]

    monkeypatch.setattr(glm, "_executor", Recording)
    return seen


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
    posts = []
    real_post = glm._post

    def recording_post(A, b, alone, cpus):
        posts.append(alone)
        return real_post(A, b, alone, cpus)

    monkeypatch.setattr(glm, "_post", recording_post)
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
        # requests went to the pool while other runs were in flight
        assert submitted and all(f.done() for f in submitted)
        assert False in posts


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
    """Make one request fail while a pool thread is in the middle of a
    chunk: a NaN row from a solve on this thread, or a request holding an
    inf.  Pool chunks take a while, so the pipeline has to wait for them.
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
    assert submitted and all(f.done() for f in submitted)
    # a chunk was still being solved when the fault was made, and the
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
    ``_solve`` (checked by ``submitted``).  ``fit_groups`` fits from the
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
    for _ in fit_groups(mixed_problems()):
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
