import functools
import itertools
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from mseboot import (
    CountTable,
    ExistenceCache,
    ModelSpec,
    ReducedProblem,
    enumerate_models,
    fr_check,
    lp_max_s,
    reduce_for_sparsity,
)
from mseboot import existence
from mseboot.bootstrap import replicate_rng, resample
from mseboot.existence import (
    CERTIFIED,
    FALLBACK,
    FAST_PATH,
    INFEASIBLE,
    NULL_SPACE,
    OPTIMAL,
    RANK,
    FloatSolution,
    simplex_max,
)

from conftest import TABLE1, marginal_count, random_table, unchecked_fits


def vertex_enumeration_max(c, A, b):
    """Oracle: best objective over all basic feasible solutions.

    Exhaustive over basis column subsets with exact Gaussian elimination;
    only usable for tiny programs.
    """
    m, n = len(A), len(c)
    rows = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(A, b)]
    best = None
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(min(m, n) + 1)
    )
    for cols in subsets:
        # solve the square system restricted to these columns
        mat = [[rows[i][j] for j in cols] + [rows[i][-1]] for i in range(m)]
        k = len(cols)
        sol = _solve_exact(mat, k)
        if sol is None:
            continue
        if any(v < 0 for v in sol):
            continue
        z = [Fraction(0)] * n
        for j, v in zip(cols, sol):
            z[j] = v
        # must satisfy all constraints, not just the square part
        if any(sum(Fraction(A[i][j]) * z[j] for j in range(n)) != b[i] for i in range(m)):
            continue
        val = sum(Fraction(c[j]) * z[j] for j in range(n))
        if best is None or val > best:
            best = val
    return best


def _solve_exact(mat, k):
    """Gaussian elimination on an augmented k-column system; None if singular."""
    m = len(mat)
    rows = [row[:] for row in mat]
    pivots = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if piv is None:
            return None
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * bq for a, bq in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    if r < k:
        return None
    # leftover rows must be consistent
    for i in range(r, m):
        if rows[i][-1] != 0:
            return None
    sol = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        sol[col] = rows[i][-1]
    return sol


class TestSimplex:
    def test_simple_bounded_problem(self):
        # max x + y st x + y <= 4, x <= 3 (slacks s1, s2)
        c = [Fraction(1), Fraction(1), Fraction(0), Fraction(0)]
        A = [
            [Fraction(1), Fraction(1), Fraction(1), Fraction(0)],
            [Fraction(1), Fraction(0), Fraction(0), Fraction(1)],
        ]
        b = [Fraction(4), Fraction(3)]
        status, value, _ = simplex_max(c, A, b)
        assert status == OPTIMAL
        assert value == 4

    def test_infeasible_detected(self):
        c = [Fraction(1)]
        A = [[Fraction(1)], [Fraction(1)]]
        b = [Fraction(1), Fraction(2)]
        status, _, _ = simplex_max(c, A, b)
        assert status == INFEASIBLE

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_vertex_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        A = [[Fraction(int(rng.integers(-3, 4))) for _ in range(n)] for _ in range(m)]
        b = [Fraction(int(rng.integers(0, 6))) for _ in range(m)]
        c = [Fraction(int(rng.integers(-3, 4))) for _ in range(n)]
        status, value, _ = simplex_max(c, A, b)
        oracle = vertex_enumeration_max(c, A, b)
        if status == INFEASIBLE:
            assert oracle is None
        elif status == OPTIMAL:
            assert oracle is not None
            assert value == oracle


class TestLpMaxS:
    def test_positive_table_lower_bound(self):
        rng = np.random.default_rng(1)
        table = random_table(rng, 3)
        model = ModelSpec.from_generators(3, [0b011])
        problem = reduce_for_sparsity(model, table)
        status, s = lp_max_s(problem, table)
        assert status == OPTIMAL
        assert s >= min(table.counts.values())

    def test_table1_n2_not_positive(self, table1, abcd_model):
        status, s = lp_max_s(reduce_for_sparsity(abcd_model, table1["n2"]), table1["n2"])
        assert status == OPTIMAL
        assert s <= 0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_oracle_on_random_instances(self, seed):
        rng = np.random.default_rng(100 + seed)
        table = random_table(rng, 3, zero_prob=0.5)
        space = enumerate_models(3, 2)
        model = space.models[int(rng.integers(len(space)))]
        problem = reduce_for_sparsity(model, table)
        if not problem.omega_dagger:
            return
        n_cells = len(problem.omega_dagger)
        colsum = [sum(problem.incidence[i][j] for i in range(n_cells))
                  for j in range(len(problem.theta_dagger))]
        A = [[Fraction(problem.incidence[i][j]) for i in range(n_cells)]
             + [Fraction(colsum[j]), Fraction(-colsum[j])]
             for j in range(len(problem.theta_dagger))]
        b = [Fraction(marginal_count(table, th)) for th in problem.theta_dagger]
        c = [Fraction(0)] * n_cells + [Fraction(1), Fraction(-1)]
        status, s = lp_max_s(problem, table)
        oracle = vertex_enumeration_max(c, A, b)
        if status == OPTIMAL:
            assert s == oracle
        else:
            assert oracle is None


class TestFrCheck:
    def test_table1_verdict_pattern(self, table1, abcd_model):
        verdicts = {name: fr_check(abcd_model, tab) for name, tab in table1.items()}
        assert verdicts == {"n1": True, "n2": False, "n3": True, "n4": False}

    def test_all_positive_always_passes(self):
        rng = np.random.default_rng(2)
        for t, l in [(3, 2), (4, 3)]:
            table = random_table(rng, t)
            for model in enumerate_models(t, l).models[::5]:
                assert fr_check(model, table)

    def test_korea_verdicts(self, korea, korea_space):
        failing = {
            m.notation() for m in korea_space if not fr_check(m, korea)
        }
        assert failing == {"[12,13]", "[12,13,23]"}

    def test_dead_parameter_still_passes_on_surviving_cells(self):
        # only list 2 is ever observed: list 1's parameter goes to -inf and
        # the surviving single cell is positive, so the estimate exists
        t2 = CountTable.from_counts(2, {0b10: 2})
        assert fr_check(ModelSpec.null_model(2), t2) is True

    def test_empty_cell_set_is_infeasible(self):
        problem = ReducedProblem((0,), (), frozenset())
        status, s = lp_max_s(problem, CountTable.from_counts(2, {1: 5}))
        assert status == INFEASIBLE and s is None

    @pytest.mark.parametrize("seed", range(40))
    def test_support_theorem_rescaling(self, seed):
        rng = np.random.default_rng(200 + seed)
        table = random_table(rng, 3, zero_prob=0.4)
        space = enumerate_models(3, 2)
        model = space.models[int(rng.integers(len(space)))]
        scale = int(rng.integers(1, 20))
        scaled = CountTable.from_counts(
            3, {m: scale * n for m, n in table.counts.items()}
        )
        indicator = CountTable.from_counts(3, {m: 1 for m in table.support})
        base = fr_check(model, table)
        assert fr_check(model, scaled) == base
        assert fr_check(model, indicator) == base

    def test_consistency_with_fitting(self):
        # an FR failure must never coexist with a clean interior fit
        rng = np.random.default_rng(3)
        space = enumerate_models(3, 2)
        for _ in range(30):
            table = random_table(rng, 3, zero_prob=0.4)
            for model in space:
                if fr_check(model, table):
                    continue
                [[res]] = unchecked_fits([(model, [table])])
                if not res.converged:
                    continue
                assert min(res.mu.values()) < 1e-4


class TestCache:
    def test_hit_on_second_query(self, korea):
        cache = ExistenceCache()
        model = ModelSpec.from_notation("[12,23]", 3)
        cache.check(model, korea)
        assert cache.misses == 1
        cache.check(model, korea)
        assert cache.hits == 1 and cache.misses == 1

    def test_doubled_table_shares_entry(self, korea):
        cache = ExistenceCache()
        doubled = CountTable.from_counts(
            3, {m: 2 * n for m, n in korea.counts.items()}
        )
        model = ModelSpec.from_notation("[12,13]", 3)
        v1 = cache.check(model, korea)
        v2 = cache.check(model, doubled)
        assert v1 == v2
        assert cache.misses == 1 and cache.hits == 1

    def test_support_change_triggers_fresh_check(self, korea):
        cache = ExistenceCache()
        model = ModelSpec.from_notation("[12,23]", 3)
        cache.check(model, korea)
        counts = dict(korea.counts)
        counts[0b010] = 0  # a singleton with count dropping to zero
        shrunk = CountTable.from_counts(3, counts)
        cache.check(model, shrunk)
        assert cache.misses == 2

    def test_verdicts_match_uncached(self, korea, korea_space):
        cache = ExistenceCache()
        for m in korea_space:
            assert cache.check(m, korea) == fr_check(m, korea)

    def test_decided_counts_every_miss(self, korea, korea_space, table1, monkeypatch):
        # without the null-space route, the program decides the pairs the
        # rank proof leaves
        monkeypatch.setattr(existence, "null_space_verdict", lambda problem, zero: None)
        cache = ExistenceCache()
        for table in [korea, *table1.values()]:
            space = korea_space if table.t == 3 else enumerate_models(4, 2)
            for m in space:
                cache.check(m, table)
        assert sum(cache.decided.values()) == cache.misses
        assert cache.decided[FAST_PATH] > 0 and cache.decided[CERTIFIED] > 0
        assert cache.decided[FALLBACK] == 0


    def test_full_support_decided_before_any_build(self, monkeypatch):
        table = random_table(np.random.default_rng(6), 6)
        assert len(table.support) == 63
        models = enumerate_models(6, 2).models[::100]
        builds = []
        build = existence.reduce_for_sparsity
        monkeypatch.setattr(existence, "reduce_for_sparsity",
                            lambda model, table: builds.append(model) or build(model, table))
        cache = ExistenceCache()
        assert cache.check_many([(m, table) for m in models]) == [True] * len(models)
        assert cache.decided == {FAST_PATH: len(models)}
        tally = Counter()
        assert fr_check(models[0], table, tally) and tally == {FAST_PATH: 1}
        assert builds == []


@functools.cache
def exact_verdict(model, table):
    """The exact-rational simplex's answer, the oracle for ``fr_check``."""
    problem = reduce_for_sparsity(model, table)
    if not problem.omega_dagger:
        return False
    status, s = lp_max_s(problem, table)
    return status == OPTIMAL and s > 0


def check_together(pairs):
    """``check_many`` on a fresh cache, with the size of every
    ``float_solve`` call it made.  The rank proof runs once for every
    miss that the fast path does not settle."""
    sizes, proofs = [], []
    solve, prove = existence.float_solve, existence.proves_full_rank
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(existence, "float_solve",
                   lambda blocks: sizes.append(len(blocks)) or solve(blocks))
        mp.setattr(existence, "proves_full_rank",
                   lambda problem, zero: proofs.append(1) or prove(problem, zero))
        cache = ExistenceCache()
        verdicts = cache.check_many(pairs)
    assert len(proofs) == cache.misses - cache.decided[FAST_PATH]
    return verdicts, cache, sizes


def assert_agrees(models, tables, batch_certifies=True):
    """One ``fr_check`` per pair, then all pairs decided together in two
    orders, each equal to the exact verdict without a fallback.  Every
    verdict of the rank route is True.

    ``batch_certifies``: every block is certified from the batched solve,
    none is solved again alone, and ``float_solve`` is not called when no
    block is posed.
    """
    tally = Counter()
    for table in tables:
        for model in models:
            ranked = tally[RANK]
            verdict = fr_check(model, table, tally)
            assert verdict == exact_verdict(model, table), (
                model.notation(), table.support
            )
            assert verdict or tally[RANK] == ranked
    assert tally[FALLBACK] == 0
    pairs = [(m, t) for t in tables for m in models]
    shuffled = [pairs[k] for k in np.random.default_rng(len(pairs)).permutation(len(pairs))]
    for order in (pairs, shuffled):
        verdicts, cache, sizes = check_together(order)
        assert verdicts == [exact_verdict(m, t) for m, t in order]
        assert cache.decided[FALLBACK] == 0
        posed = cache.decided[CERTIFIED]
        assert sizes == ([posed] if posed else []) or not batch_certifies
    return tally


def sparse_table(t, n_cells, seed):
    """n_cells distinct nonempty histories with positive counts."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(np.arange(1, 1 << t), size=n_cells, replace=False)
    return CountTable.from_counts(
        t, {int(c): int(rng.poisson(3)) + 1 for c in cells}
    )


def all_pairs(t):
    return ModelSpec.from_generators(
        t, [(1 << a) | (1 << b) for a, b in itertools.combinations(range(t), 2)]
    )


class TestCertifiedCheck:
    """The float solve with its exact certificate against the exact simplex."""

    @pytest.fixture(autouse=True)
    def without_the_null_space_route(self, monkeypatch):
        # the program decides every pair the rank proof leaves
        monkeypatch.setattr(existence, "null_space_verdict", lambda problem, zero: None)

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_table1_and_resample_supports(self, name):
        table = CountTable.from_counts(4, TABLE1[name])
        supports = {table.support: table}
        for i in range(50):
            r = resample(table, replicate_rng(len(name) + 3, i))
            supports.setdefault(r.support, r)
        tally = assert_agrees(enumerate_models(4, 3).models, supports.values())
        assert tally[CERTIFIED] > 0 and tally[RANK] > 0

    def test_korea_space(self, korea, korea_space):
        tally = assert_agrees(korea_space.models, [korea])
        assert tally[RANK] > 0

    @pytest.mark.parametrize("t", [4, 5])
    def test_sparse_random_tables(self, t):
        rng = np.random.default_rng(40 + t)
        models = enumerate_models(t, 2).models
        tables = [random_table(rng, t, zero_prob=0.5) for _ in range(10)]
        tally = assert_agrees(models[:: len(models) // 12], tables)
        assert tally[CERTIFIED] > 0 and tally[RANK] > 0

    @pytest.mark.parametrize("seed", range(40))
    def test_random_triples(self, seed):
        rng = np.random.default_rng(100 + seed)
        table = random_table(rng, 3, zero_prob=0.5)
        space = enumerate_models(3, 2)
        model = space.models[int(rng.integers(len(space)))]
        assert_agrees([model], [table])

    def test_without_the_rank_proof_the_lp_decides(self, monkeypatch, table1):
        # the pairs the rank proof settles keep their verdicts when it
        # comes up short and the certified program decides them instead
        monkeypatch.setattr(existence, "proves_full_rank", lambda problem, zero: False)
        tally = assert_agrees(enumerate_models(4, 3).models, table1.values())
        assert tally[RANK] == 0 and tally[CERTIFIED] > 0

    def test_the_active_set_vertex_certifies_every_verdict(self, table1):
        # every certified verdict comes from the exact vertex of the float
        # solution's active set.  A batched dual can name a vertex whose
        # exact system leaves y of mixed sign; that block is then solved
        # again alone
        tally = assert_agrees(enumerate_models(4, 3).models, table1.values(),
                              batch_certifies=False)
        assert tally[CERTIFIED] > 0

    @pytest.mark.parametrize("name, exists", [("n1", True), ("n2", False)])
    def test_wrong_float_solution_falls_back(self, monkeypatch, table1, abcd_model,
                                             name, exists):
        # report the opposite verdict: a non-existence vector for a model
        # whose estimate exists and a direction for one whose does not
        def wrong(blocks):
            ((incidence, zero),) = blocks
            n_cells, n_params = incidence.shape
            if exists:
                return [FloatSolution(0.0, np.zeros(n_cells), np.ones(n_params))]
            return [FloatSolution(0.5, np.ones(n_cells), np.zeros(n_params))]

        lp_calls = []
        exact_lp = existence.lp_max_s
        monkeypatch.setattr(existence, "float_solve", wrong)
        monkeypatch.setattr(
            existence, "lp_max_s", lambda p, t: lp_calls.append(p) or exact_lp(p, t)
        )
        cache = ExistenceCache()
        assert cache.check(abcd_model, table1[name]) is exists
        assert cache.decided == {FALLBACK: 1}
        assert len(lp_calls) == 1

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_batch_verdicts_do_not_depend_on_chunking(self, monkeypatch, table1, chunk):
        table = table1["n2"]
        tables = [table] + [resample(table, replicate_rng(9, i)) for i in range(8)]
        pairs = [(m, t) for t in tables for m in enumerate_models(4, 3).models]
        monkeypatch.setattr(existence, "CHUNK", chunk)
        linprog_calls = []
        linprog = scipy.optimize.linprog
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *a, **k: linprog_calls.append(1) or linprog(*a, **k))
        verdicts, cache, sizes = check_together(pairs)
        assert verdicts == [exact_verdict(m, t) for m, t in pairs]
        assert sizes[0] > 64 and len(sizes) == 1
        assert len(linprog_calls) == math.ceil(sizes[0] / chunk)
        assert cache.decided[FALLBACK] == 0
        assert sum(cache.decided.values()) == cache.misses

    def test_wrong_block_falls_back_alone(self, monkeypatch, table1):
        # one block of the batch gets a solution claiming the opposite
        # verdict, also when solved alone; only that pair falls back
        table = table1["n2"]
        models = enumerate_models(4, 3).models
        # models differing only in parameters the reduction drops pose the
        # same cells and parameters; the target's must be posed by it
        # alone, and the rank proof must leave it to the float solve
        problems = [reduce_for_sparsity(m, table) for m in models]
        posed = [(p.omega_dagger, p.theta_dagger) for p in problems]
        target, problem = next(
            (m, p) for m, p in zip(models, problems)
            if posed.count((p.omega_dagger, p.theta_dagger)) == 1
            and p.omega_dagger and p.zero_cells(table)
            and not existence.proves_full_rank(p, p.zero_cells(table))
        )
        target_zero = problem.zero_cells(table)
        exists = exact_verdict(target, table)
        solve = existence.float_solve
        spoiled = []

        def one_wrong(blocks):
            out = solve(blocks)
            for k, (incidence, zero) in enumerate(blocks):
                if list(zero) == target_zero and np.array_equal(incidence, problem.matrix):
                    n_cells, n_params = incidence.shape
                    out[k] = (FloatSolution(0.0, np.zeros(n_cells), np.ones(n_params))
                              if exists else
                              FloatSolution(0.5, np.ones(n_cells), np.zeros(n_params)))
                    spoiled.append(len(blocks))
            return out

        lp_calls = []
        exact_lp = existence.lp_max_s
        monkeypatch.setattr(existence, "float_solve", one_wrong)
        monkeypatch.setattr(
            existence, "lp_max_s", lambda p, t: lp_calls.append(p) or exact_lp(p, t)
        )
        cache = ExistenceCache()
        pairs = [(m, table) for m in models]
        assert cache.check_many(pairs) == [exact_verdict(m, table) for m in models]
        assert spoiled[0] > 1 and spoiled[1:] == [1]
        assert cache.decided[FALLBACK] == 1 and len(lp_calls) == 1
        assert lp_calls[0] == problem
        assert cache.decided[CERTIFIED] > 1
        assert sum(cache.decided.values()) == cache.misses == len(models)

    def test_width_t8_all_pairs_within_budget(self):
        # the exact simplex needs minutes on these tables
        for n_cells, route in ((60, RANK), (30, CERTIFIED)):
            table = sparse_table(8, n_cells, seed=1)
            tally = Counter()
            start = time.perf_counter()
            assert fr_check(all_pairs(8), table, tally)
            assert time.perf_counter() - start < 2.0
            assert tally == {route: 1}

    def test_width_t6_all_pairs_matches_exact(self):
        table = sparse_table(6, 60, seed=1)
        tally = assert_agrees([all_pairs(6)], [table])
        assert tally == {RANK: 1}
        # fewer positive cells than parameters: the rank proof cannot hold
        sparse = sparse_table(6, 15, seed=1)
        assert len(sparse.support) < len(reduce_for_sparsity(all_pairs(6), sparse).theta_dagger)
        tally = assert_agrees([all_pairs(6)], [sparse])
        assert tally == {CERTIFIED: 1}

    def test_width_t12_all_pairs_rank_matches_the_lp(self, monkeypatch):
        table = sparse_table(12, 200, seed=1)
        tally = Counter()
        start = time.perf_counter()
        assert fr_check(all_pairs(12), table, tally)
        assert time.perf_counter() - start < 2.0
        assert tally == {RANK: 1}
        monkeypatch.setattr(existence, "proves_full_rank", lambda problem, zero: False)
        assert fr_check(all_pairs(12), table, tally)
        assert tally == {RANK: 1, CERTIFIED: 1}

    def test_width_t14_all_pairs_within_budget(self):
        # 300 positive cells, 106 parameters and 16,083 zero cells
        table = sparse_table(14, 300, seed=1)
        tally = Counter()
        start = time.perf_counter()
        assert fr_check(all_pairs(14), table, tally)
        assert time.perf_counter() - start < 2.0
        assert tally == {RANK: 1}


@pytest.fixture
def no_program(monkeypatch):
    """``float_solve`` fails the test if any block is sent to it."""
    def refuse(blocks):
        raise AssertionError(f"float_solve called on {len(blocks)} blocks")

    monkeypatch.setattr(existence, "float_solve", refuse)


class TestNullSpaceRoute:
    """The exact null-space route against the exact simplex: the pairs the
    rank proof leaves are decided without any program."""

    @pytest.mark.usefixtures("no_program")
    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_table1_and_resample_supports(self, name):
        table = CountTable.from_counts(4, TABLE1[name])
        supports = {table.support: table}
        for i in range(50):
            r = resample(table, replicate_rng(len(name) + 3, i))
            supports.setdefault(r.support, r)
        tally = assert_agrees(enumerate_models(4, 3).models, supports.values())
        assert tally[NULL_SPACE] > 0 and tally[RANK] > 0
        assert tally[CERTIFIED] == tally[FALLBACK] == 0

    @pytest.mark.usefixtures("no_program")
    def test_korea_space(self, korea, korea_space):
        tally = assert_agrees(korea_space.models, [korea])
        assert tally[NULL_SPACE] > 0 and tally[CERTIFIED] == 0

    @pytest.mark.usefixtures("no_program")
    @pytest.mark.parametrize("t", [4, 5])
    def test_sparse_random_tables(self, t):
        rng = np.random.default_rng(40 + t)
        models = enumerate_models(t, 2).models
        tables = [random_table(rng, t, zero_prob=0.5) for _ in range(10)]
        tally = assert_agrees(models[:: len(models) // 12], tables)
        assert tally[NULL_SPACE] > 0 and tally[RANK] > 0
        assert tally[CERTIFIED] == 0

    @pytest.mark.usefixtures("no_program")
    @pytest.mark.parametrize("seed", range(40))
    def test_random_triples(self, seed):
        rng = np.random.default_rng(100 + seed)
        table = random_table(rng, 3, zero_prob=0.5)
        space = enumerate_models(3, 2)
        model = space.models[int(rng.integers(len(space)))]
        assert assert_agrees([model], [table])[CERTIFIED] == 0

    def test_seeded_sweep_matches_the_exact_simplex(self, monkeypatch):
        # every pair the rank proof leaves at t = 3-5 is decided, never
        # declined, and each failure stands on a certificate that passed
        proves = existence._proves_failure
        certificates = []

        def checked(w, params_of_cell, zero):
            certificates.append(proves(w, params_of_cell, zero))
            return certificates[-1]

        monkeypatch.setattr(existence, "_proves_failure", checked)
        decided = Counter()
        for t, n_tables, step in ((3, 20, 1), (4, 16, 8), (5, 6, 30)):
            rng = np.random.default_rng(70 + t)
            models = enumerate_models(t, min(t - 1, 2)).models[::step]
            for _ in range(n_tables):
                table = random_table(rng, t, zero_prob=0.4)
                for model in models:
                    problem = reduce_for_sparsity(model, table)
                    zero = problem.zero_cells(table)
                    if (not problem.omega_dagger or not zero
                            or existence.proves_full_rank(problem, zero)):
                        continue
                    before = len(certificates)
                    verdict = existence.null_space_verdict(problem, zero)
                    assert verdict == exact_verdict(model, table), (
                        model.notation(), table.support
                    )
                    assert certificates[before:] == ([] if verdict else [True])
                    decided[verdict] += 1
        assert decided == {True: 39, False: 125}

    def test_rank_deficient_reduced_design(self):
        # list 3 is never observed, so its parameter is dropped with every
        # cell containing it: [12] keeps 4 parameters on 3 cells.  Two
        # null vectors of the positive cells span one direction on the
        # zero cell
        model = ModelSpec.from_notation("[12]", 3)
        table = CountTable.from_counts(3, {0b001: 4, 0b011: 2})
        problem = reduce_for_sparsity(model, table)
        assert (len(problem.omega_dagger), len(problem.theta_dagger)) == (3, 4)
        zero = problem.zero_cells(table)
        positive = [row for i, row in enumerate(problem.incidence) if i not in zero]
        assert len(existence._null_space(positive, 4)) == 2
        tally = Counter()
        assert fr_check(model, table, tally) is exact_verdict(model, table) is False
        assert tally == {NULL_SPACE: 1}

    def test_full_rank_leaves_no_null_space(self, table1):
        # where the rank proof holds the basis is empty (k' = 0), and the
        # route alone also says the estimate exists
        proved = 0
        for table in table1.values():
            for model in enumerate_models(4, 3).models:
                problem = reduce_for_sparsity(model, table)
                zero = problem.zero_cells(table)
                if problem.omega_dagger and zero and existence.proves_full_rank(problem, zero):
                    assert existence.null_space_verdict(problem, zero) is True
                    proved += 1
        assert proved > 50

    def test_null_space_basis_is_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rows = rng.integers(-3, 4, size=(int(rng.integers(0, 5)), 5)).tolist()
            basis = existence._null_space(rows, 5)
            assert len(basis) == 5 - (np.linalg.matrix_rank(rows) if rows else 0)
            for x in basis:
                assert any(x) and math.gcd(*x) == 1
                assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)

    def test_wide_all_pairs_decline_to_the_program(self):
        # fewer positive cells than parameters leaves too many rays to try
        sparse = sparse_table(6, 15, seed=1)
        problem = reduce_for_sparsity(all_pairs(6), sparse)
        assert existence.null_space_verdict(problem, problem.zero_cells(sparse)) is None
        assert assert_agrees([all_pairs(6)], [sparse]) == {CERTIFIED: 1}
        table = sparse_table(8, 30, seed=1)
        tally = Counter()
        start = time.perf_counter()
        assert fr_check(all_pairs(8), table, tally)
        assert time.perf_counter() - start < 2.0
        assert tally == {CERTIFIED: 1}

    def test_program_is_imported_when_a_pair_needs_it(self):
        # in a fresh process: the declined pair gets the exact verdict
        # through the program, whose modules load only then
        import mseboot

        table = sparse_table(6, 15, seed=1)
        code = f"""if True:
            import sys
            from collections import Counter
            from mseboot import CountTable, ModelSpec, fr_check

            model = ModelSpec.from_generators(6, {list(all_pairs(6).generators)!r})
            table = CountTable.from_counts(6, {dict(table.counts)!r})
            before = "scipy.optimize" in sys.modules
            tally = Counter()
            verdict = fr_check(model, table, tally)
            print(before, verdict, dict(tally), "scipy.optimize" in sys.modules)
        """
        env = {**os.environ, "PYTHONPATH": str(Path(mseboot.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=env,
        )
        exists = exact_verdict(all_pairs(6), table)
        assert out.stdout.split() == [
            "False", str(exists), "{'certified':", "1}", "True"
        ]
