"""``glm.solve_groups`` on the thread pool: each IRLS stack is one task,
which builds its stacked design and runs ``glm._irls`` whole.

Results must not depend on the CPU count, bit for bit; an error in any
stack must reach the caller and leave the pool working; a forked child
must make its own pool; and the reduction, the design and ``fit`` must
stay on the calling thread.  Each pool thread is pinned to one CPU of
the affinity mask the pool was made with, round robin, and the calling
thread is never pinned; a call's stacks are cut to an even share of its
design elements for the pool's thread count.  The CPU count is
monkeypatched, so pools larger than this machine's are covered too, and
every test here makes its own pool.
"""

import math
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
FULL_STACK = glm.STACK_ELEMENTS

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity"
)


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
    assert glm._pool[1]._max_workers == glm._pool[2] == cpus
    assert len(irls_threads) > 4 * cpus
    assert threading.get_ident() not in irls_threads
    assert len(set(irls_threads)) <= cpus
    # at the full stack size the CPU count sets the cut: 3 and 4 CPUs cut
    # these problems into more stacks than 1 and 2 do
    monkeypatch.setattr(glm, "STACK_ELEMENTS", FULL_STACK)
    assert_same_solutions(solve_groups(reduced(mixed_problems())), one_cpu_solutions[n])


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


def pool_thread_masks():
    """The affinity mask of every thread of the pool, read on the thread:
    one task per thread, each waiting for all the others, starts them all."""
    pool, threads = glm._executor()
    barrier = threading.Barrier(threads, timeout=30)

    def mask(_):
        barrier.wait()
        return threading.get_ident(), frozenset(os.sched_getaffinity(0))

    return dict(pool.map(mask, range(threads)))


@needs_affinity
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_each_pool_thread_is_pinned_to_one_cpu_round_robin(
    cpus, one_cpu_solutions, monkeypatch, fresh_pool
):
    """On a mask of m CPUs, thread i of the pool runs on CPU i mod m of the
    mask, by its own ids (``taskset -c 1`` starts at CPU 1); the calling
    thread keeps its mask."""
    mask = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(glm, "_cpu_count", lambda: cpus)
    assert_same_solutions(solve_groups(reduced(mixed_problems())), one_cpu_solutions[0])
    assert os.sched_getaffinity(0) == set(mask)
    masks = pool_thread_masks()
    assert len(masks) == cpus
    assert all(len(m) == 1 for m in masks.values())
    assert sorted(min(m) for m in masks.values()) == sorted(
        mask[i % len(mask)] for i in range(cpus)
    )
    if cpus <= len(mask):
        assert len(set(masks.values())) == cpus


@needs_affinity
def test_a_refused_pin_leaves_the_thread_unpinned(
    one_cpu_solutions, monkeypatch, fresh_pool
):
    """An ``OSError`` from ``os.sched_setaffinity`` (a CPU the system will
    not give) must not break the pool, whose threads then keep the mask
    they started with."""
    monkeypatch.setattr(glm, "_cpu_count", lambda: 2)
    refused = []

    def refuse(pid, cpus):
        refused.append(threading.get_ident())
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    assert_same_solutions(solve_groups(reduced(mixed_problems())), one_cpu_solutions[0])
    masks = pool_thread_masks()
    assert set(masks.values()) == {frozenset(os.sched_getaffinity(0))}
    assert set(refused) == set(masks) and threading.get_ident() not in refused


def test_nothing_is_pinned_without_sched_setaffinity(
    one_cpu_solutions, monkeypatch, fresh_pool
):
    monkeypatch.setattr(glm, "_cpu_count", lambda: 2)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    assert_same_solutions(solve_groups(reduced(mixed_problems())), one_cpu_solutions[0])
    assert glm._pool[1]._initializer is None
    if hasattr(os, "sched_getaffinity"):
        masks = pool_thread_masks()
        assert set(masks.values()) == {frozenset(os.sched_getaffinity(0))}


def _pin_in_child(problems, conn):
    """Narrow the child's mask to the last CPU of the one it inherited,
    then solve and report the masks of the pool it makes."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    solutions = solve_groups(problems)
    conn.send(([s.mu for s in solutions], glm._pool[0], os.sched_getaffinity(0),
               set(pool_thread_masks().values())))
    conn.close()


@needs_affinity
def test_forked_child_pins_within_its_own_mask(monkeypatch, fresh_pool):
    """The parent's pool was made with the parent's mask; the child's pool
    must read the child's."""
    monkeypatch.setattr(glm, "_cpu_count", lambda: 2)
    problems = reduced(mixed_problems()[:120])
    parent = solve_groups(problems)
    last = max(os.sched_getaffinity(0))

    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_pin_in_child, args=(problems, send))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child hung"
        mu, pool_pid, child_mask, thread_masks = receive.recv()
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert pool_pid == child.pid
    assert child_mask == {last} and thread_masks == {frozenset({last})}
    assert all(np.array_equal(a, s.mu) for a, s in zip(mu, parent))


@pytest.fixture
def cuts(monkeypatch):
    """The CPU count and the stacks of each ``glm._stacks`` call."""
    seen = []
    real = glm._stacks

    def recording_stacks(posed, cpus):
        seen.append((cpus, list(real(posed, cpus))))
        return iter(seen[-1][1])

    monkeypatch.setattr(glm, "_stacks", recording_stacks)
    return seen


@needs_affinity
def test_narrowing_the_callers_mask_keeps_the_pool_and_the_cut(
    monkeypatch, fresh_pool, cuts
):
    """The pool's size and the cut are the mask's when the pool was made,
    not the calling thread's at each call."""
    monkeypatch.setattr(glm, "STACK_ELEMENTS", FULL_STACK)
    mask = os.sched_getaffinity(0)
    problems = reduced(mixed_problems())
    first = solve_groups(problems)
    pool = glm._pool
    os.sched_setaffinity(0, {min(mask)})
    try:
        assert glm._cpu_count() == 1
        assert_same_solutions(solve_groups(problems), first)
    finally:
        os.sched_setaffinity(0, mask)
    assert glm._pool is pool and pool[2] == len(mask)
    assert len(cuts) == 2 and cuts[0] == cuts[1] and cuts[0][0] == len(mask)


def posed_of(problems):
    """The iterable groups of ``problems``, posed as ``solve_groups`` poses
    them."""
    rows, designs = {}, {}
    posed = {k: glm._pose(red, tables, rows, designs)
             for k, (red, tables) in enumerate(problems)}
    return {k: p for k, p in posed.items() if isinstance(p, glm._Posed)}


def call_limit(posed, cpus):
    """Most design elements a stack of the call may hold."""
    if cpus == 1:
        return glm.STACK_ELEMENTS
    total = sum(len(p.Y) * p.X.size for p in posed.values())
    share = math.ceil(total / (2 * cpus))
    return min(glm.STACK_ELEMENTS, max(glm.STACK_ELEMENTS // 16, share))


def greedy_cut(posed, limit):
    """The one-CPU cut at ``limit`` elements, written out: per design shape
    in order of first occurrence, pieces of as many rows as fit are added
    to the open stack until the next would overflow it."""
    stacks = []
    shapes = {}
    for k, p in posed.items():
        shapes.setdefault(p.X.shape, []).append(k)
    for (cells, params), keys in shapes.items():
        most = max(limit // (cells * params), 1)
        stack, size = [], 0
        for k in keys:
            rows = len(posed[k].Y)
            for lo in range(0, rows, most):
                hi = min(lo + most, rows)
                if stack and size + hi - lo > most:
                    stacks.append(stack)
                    stack, size = [], 0
                stack.append((k, lo, hi))
                size += hi - lo
        stacks.append(stack)
    return stacks


def elements(posed, stack):
    return sum((hi - lo) * posed[k].X.size for k, lo, hi in stack)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_no_stack_exceeds_the_calls_limit(cpus, monkeypatch):
    monkeypatch.setattr(glm, "STACK_ELEMENTS", FULL_STACK)
    posed = posed_of(reduced(mixed_problems()))
    limit = call_limit(posed, cpus)
    got = list(glm._stacks(posed, cpus))
    assert got == greedy_cut(posed, limit)
    assert all(elements(posed, stack) <= limit for stack in got)
    if cpus == 1:
        # today's cut, at STACK_ELEMENTS
        assert limit == FULL_STACK
    elif cpus > 2:
        # the call's largest shapes exceed its share, and are cut
        assert len(got) > len(list(glm._stacks(posed, 1)))


def test_one_cpu_keeps_the_stack_elements_cut(monkeypatch):
    """A call of one design shape, below ``STACK_ELEMENTS`` but well above
    the floor, is one stack on one CPU and is cut on two."""
    monkeypatch.setattr(glm, "STACK_ELEMENTS", FULL_STACK)
    posed = posed_of(reduced(mixed_problems()))
    posed = {k: p for k, p in posed.items() if p.X.shape == (15, 10)}
    total = sum(len(p.Y) * p.X.size for p in posed.values())
    assert 2 * (FULL_STACK // 16) < total <= FULL_STACK
    one = list(glm._stacks(posed, 1))
    assert one == greedy_cut(posed, FULL_STACK) and len(one) == 1
    assert len(list(glm._stacks(posed, 2))) > 1


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_a_row_larger_than_the_limit_is_a_stack_of_its_own(cpus, monkeypatch):
    monkeypatch.setattr(glm, "STACK_ELEMENTS", 100)
    posed = posed_of(reduced(mixed_problems()))
    limit = call_limit(posed, cpus)
    got = list(glm._stacks(posed, cpus))
    assert got == greedy_cut(posed, limit)
    alone = 0
    for stack in got:
        if elements(posed, stack) > limit:
            assert len(stack) == 1 and stack[0][2] - stack[0][1] == 1
            alone += 1
    assert alone and any(sum(hi - lo for _, lo, hi in stack) > 1 for stack in got)
    # every row of every group is in exactly one stack, in order
    for k, p in posed.items():
        pieces = [(lo, hi) for stack in got for key, lo, hi in stack if key == k]
        assert [lo for lo, _ in pieces] == [0] + [hi for _, hi in pieces[:-1]]
        assert pieces[-1][1] == len(p.Y)


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_a_call_below_the_floor_is_not_cut_further(cpus, monkeypatch):
    """A call of fewer than ``STACK_ELEMENTS // 16`` elements is one stack
    per design shape, however many CPUs share it."""
    monkeypatch.setattr(glm, "STACK_ELEMENTS", FULL_STACK)
    problems = reduced(mixed_problems())
    posed = posed_of(problems[:10])
    total = sum(len(p.Y) * p.X.size for p in posed.values())
    assert total <= FULL_STACK // 16
    got = list(glm._stacks(posed, cpus))
    assert got == list(glm._stacks(posed, 1))
    assert len(got) == len({p.X.shape for p in posed.values()})
    # without the floor, its share would cut it
    assert greedy_cut(posed, math.ceil(total / (2 * cpus))) != got
