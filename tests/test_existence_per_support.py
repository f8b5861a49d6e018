"""Existence work done once per support, against frozen copies of the
per-miss code it replaced.

``ExistenceCache.check_many`` builds one indicator table and one set of
positive cells per distinct support, reads each miss's zero cells off
that set, and sums the marginal counts ``nu`` only when ``lp_max_s``
reads them.  ``proves_full_rank`` eliminates over GF(2) first and modulo
``RANK_PRIME`` only when that falls short.  ``glm.solve_groups`` builds
and rank-tests each distinct design once per call.

The oracles below are the code as it was before: ``prime_proves_full_rank``
eliminates modulo the prime alone, and ``per_miss_check_many`` builds an
indicator table, the reduction (by marginal count sums), ``nu`` and the
zero cells (by ``table.count``) for every miss.

Why the ``decided`` tallies cannot move: a GF(2) proof names an n x n
minor of the 0/1 incidence matrix that is odd, hence a nonzero integer.
Hadamard's bound caps the determinant of an n x n 0/1 matrix at
(n + 1)^((n + 1) / 2) / 2^n, which is below 2^31 - 1 for n <= 22.  With at
most 22 estimable parameters every nonzero minor is therefore nonzero
modulo the prime too, so the prime proves full rank exactly when the
rank over the rationals is full, and GF(2) proves it only then: the rank
route settles the same misses as before.  Every problem here has at most
22 parameters, and the tests check that.
"""

import functools
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from mseboot import CountTable, ExistenceCache, ModelSpec, enumerate_models, fit, glm
from mseboot import existence, support_key
from mseboot.core import canonical_key, marginal_count
from mseboot.existence import (
    CERTIFIED,
    FAST_PATH,
    NULL_SPACE,
    RANK,
    RANK_PRIME,
    ExistenceProblem,
    fr_check,
)
from mseboot.glm import ReducedProblem, canonical_cells

from conftest import TABLE1, random_table

# the largest n whose 0/1 minors all lie below the prime (Hadamard's bound)
MAX_EXACT_PARAMS = 22


def hadamard_bound(n):
    """Largest possible determinant of an n x n 0/1 matrix, rounded up."""
    return math.ceil((n + 1) ** ((n + 1) / 2) / 2**n)


def prime_proves_full_rank(problem, zero):
    """``proves_full_rank`` before the GF(2) pass: elimination modulo
    ``RANK_PRIME`` on int64 arrays only."""
    positive = np.ones(len(problem.omega), dtype=bool)
    positive[list(zero)] = False
    m = problem.contains[positive].astype(np.int64)
    n_rows, n_cols = m.shape
    if n_rows < n_cols:
        return False
    for j in range(n_cols):
        nonzero = np.flatnonzero(m[j:, j])
        if not nonzero.size:
            return False
        k = j + int(nonzero[0])
        if k != j:
            m[[j, k]] = m[[k, j]]
        m[j + 1:, j:] = (
            m[j + 1:, j:] * m[j, j] - np.outer(m[j + 1:, j], m[j, j:])
        ) % RANK_PRIME
    return True


def marginal_reduction(model, table):
    """``reduce_for_sparsity`` before the bit test: a parameter is dead when
    its marginal count sum is 0."""
    dead = frozenset(
        theta for theta in model.params
        if table.counts.get(theta, 0) <= 0 and marginal_count(table, theta) == 0
    )
    theta = tuple(p for p in model.sorted_params if p not in dead)
    omega = tuple(w for w in canonical_cells(table.t) if not any(d & w == d for d in dead))
    return ReducedProblem(theta, omega, dead)


def per_miss_check_many(cache, pairs):
    """``check_many`` before the per-support work: every miss builds its own
    indicator, reduction, ``nu`` and zero cells, and the prime alone
    proves rank."""
    keys = [(model.params, support_key(table)) for model, table in pairs]
    posed = {}
    for (model, table), key in zip(pairs, keys):
        if key in cache.verdicts or key in posed or len(table.counts) == (1 << table.t) - 1:
            continue
        indicator = CountTable.from_counts(table.t, {w: 1 for w in table.support})
        red = marginal_reduction(model, indicator)
        nu = tuple(marginal_count(indicator, th) for th in red.theta_dagger)
        problem = ExistenceProblem(red.omega_dagger, red.theta_dagger, nu)
        zero = [i for i, w in enumerate(problem.omega) if indicator.count(w) == 0]
        posed[key] = (problem, zero)
    solved, asked = {}, []
    for key, (problem, zero) in posed.items():
        proved = None
        if problem.omega and zero:
            if prime_proves_full_rank(problem, zero):
                proved = True, RANK
            else:
                verdict = existence.null_space_verdict(problem, zero)
                proved = (None, CERTIFIED) if verdict is None else (verdict, NULL_SPACE)
        solved[key] = (problem, zero, proved, None)
        if proved and proved[0] is None:
            asked.append(key)
    if asked:
        blocks = [(solved[k][0].matrix, solved[k][1]) for k in asked]
        for key, sol in zip(asked, existence.float_solve(blocks)):
            solved[key] = (*solved[key][:3], sol)
    return [cache.check(model, table, solved.get(key)) for (model, table), key in zip(pairs, keys)]


def table1_tables():
    return [CountTable.from_counts(4, TABLE1[k]) for k in ("n1", "n2", "n3", "n4")]


def seeded_sparse_tables():
    # the 25 tables of tests/test_fit_checks_existence.py
    rng = np.random.default_rng(5)
    return [random_table(rng, 4, zero_prob=0.5) for _ in range(25)]


@functools.cache
def case(name):
    """(models, tables): the full 4-list space on the bundled and the
    seeded sparse tables, and a spread of order-2 models on sparse 5- and
    6-list tables."""
    if name in ("table1", "seeded_sparse"):
        tables = table1_tables() if name == "table1" else seeded_sparse_tables()
        return enumerate_models(4, 3).models, tables
    t, n_tables, step, zero_prob = {"t5": (5, 6, 25, 0.5), "t6": (6, 4, 1500, 0.7)}[name]
    rng = np.random.default_rng(90 + t)
    models = enumerate_models(t, 2).models[::step]
    return models, [random_table(rng, t, zero_prob=zero_prob) for _ in range(n_tables)]


CASES = ("seeded_sparse", "t5", "t6", "table1")


@pytest.mark.parametrize("name", CASES)
def test_check_many_matches_the_per_miss_oracle(name):
    models, tables = case(name)
    pairs = [(m, t) for t in tables for m in models]
    assert max(len(m.params) for m in models) <= MAX_EXACT_PARAMS
    assert hadamard_bound(MAX_EXACT_PARAMS) < RANK_PRIME
    new, old = ExistenceCache(), ExistenceCache()
    assert new.check_many(pairs) == per_miss_check_many(old, pairs)
    assert new.decided == old.decided
    assert (new.hits, new.misses, new.verdicts) == (old.hits, old.misses, old.verdicts)
    assert new.decided[RANK] > 0


@pytest.mark.parametrize("name", CASES)
def test_rank_proof_matches_the_prime_alone(name):
    models, tables = case(name)
    proved = Counter()
    for table in tables:
        indicator = CountTable.from_counts(table.t, {w: 1 for w in table.support})
        for model in models:
            problem = ExistenceProblem.build(model, indicator)
            zero = problem.zero_cells(indicator)
            if not problem.omega or not zero:
                continue
            got = existence.proves_full_rank(problem, zero)
            assert got == prime_proves_full_rank(problem, zero)
            proved[got] += 1
    assert proved[True] > 0 and proved[False] > 0


def test_gf2_is_tried_first(monkeypatch):
    # every full rank over GF(2) is a rank verdict, and GF(2) alone proves
    # most of them; the prime is left the rest
    rank_mod_2 = existence._rank_mod_2
    short = []

    def counting(contains):
        rank = rank_mod_2(contains)
        short.append(rank < contains.shape[1])
        return rank

    monkeypatch.setattr(existence, "_rank_mod_2", counting)
    models, tables = case("table1")
    tally = Counter()
    for table in tables:
        for model in models:
            fr_check(model, table, tally)
    assert 0 < sum(short) < len(short)
    assert tally[RANK] >= short.count(False) > tally[RANK] // 2


def test_gf2_rank_of_small_matrices():
    rng = np.random.default_rng(8)
    for _ in range(100):
        rows, cols = rng.integers(1, 8, size=2)
        a = rng.random((rows, cols)) < 0.5
        # rank over GF(2) by brute force: the largest k with a k x k minor
        # whose determinant is odd
        rank = max(
            (k for k in range(1, min(rows, cols) + 1)
             for r in itertools.combinations(range(rows), k)
             for c in itertools.combinations(range(cols), k)
             if round(np.linalg.det(a[np.ix_(r, c)].astype(float))) % 2),
            default=0,
        )
        assert existence._rank_mod_2(a) == rank


def test_one_indicator_per_distinct_support(monkeypatch):
    indicators = []
    real = existence._indicator
    monkeypatch.setattr(existence, "_indicator",
                        lambda table: indicators.append(support_key(table)) or real(table))
    tables = table1_tables()
    # each table twice over, on itself and its double, which shares its support
    doubled = [CountTable.from_counts(4, {w: 2 * n for w, n in t.counts.items()})
               for t in tables]
    models = enumerate_models(4, 3).models
    cache = ExistenceCache()
    cache.check_many([(m, t) for t in tables + doubled for m in models])
    assert sorted(indicators) == sorted({support_key(t) for t in tables})
    # a second call over the same pairs is all hits and builds nothing
    cache.check_many([(m, t) for t in tables for m in models])
    assert len(indicators) == len(tables)


def test_rank_and_null_space_routes_sum_no_margins(monkeypatch):
    def refuse(*args):
        raise AssertionError("marginal_count called")

    def no_program(blocks):
        raise AssertionError("float_solve called")

    monkeypatch.setattr(existence, "marginal_count", refuse)
    monkeypatch.setattr(existence, "float_solve", no_program)
    cache = ExistenceCache()
    cache.check_many([(m, t) for t in table1_tables() for m in enumerate_models(4, 3).models])
    assert set(cache.decided) == {FAST_PATH, RANK, NULL_SPACE}
    assert cache.decided[RANK] > 0 and cache.decided[NULL_SPACE] > 0


def test_nu_is_summed_when_the_lp_reads_it(table1, abcd_model):
    problem = ExistenceProblem.build(abcd_model, table1["n2"])
    assert "nu" not in vars(problem)
    assert problem.nu == tuple(marginal_count(table1["n2"], th) for th in problem.theta)
    given = ExistenceProblem(problem.omega, problem.theta, problem.nu)
    assert given == problem and hash(given) == hash(problem)
    assert ExistenceProblem(problem.omega, problem.theta, (0,) * len(problem.theta)) != problem


def test_one_design_and_rank_test_per_distinct_design(monkeypatch):
    korea = CountTable.from_counts(3, {0b111: 12, 0b011: 54, 0b101: 6, 0b001: 5,
                                       0b010: 5, 0b100: 41})
    shrunk = CountTable.from_counts(3, {**korea.counts, 0b111: 0})
    tables = table1_tables()
    problems = [(m, [t]) for t in (korea, shrunk) for m in enumerate_models(3, 2).models]
    problems += [(m, [t]) for t in tables for m in enumerate_models(4, 2).models[::2]]
    ranks, designs = [], []
    matrix_rank, design_matrix = np.linalg.matrix_rank, glm.design_matrix
    monkeypatch.setattr(np.linalg, "matrix_rank",
                        lambda X: ranks.append(X.shape) or matrix_rank(X))
    monkeypatch.setattr(glm, "design_matrix",
                        lambda omega, theta: designs.append((omega, theta))
                        or design_matrix(omega, theta))
    distinct = set()
    for model, [table] in problems:
        red = glm.reduce_for_sparsity(model, table)
        if red.omega_dagger:
            distinct.add((red.omega_dagger, red.theta_dagger))
    for _ in range(2):
        ranks.clear()
        designs.clear()
        solutions = glm.solve_groups(problems)
        assert sorted(designs) == sorted(distinct) and len(ranks) == len(distinct)
    assert len(distinct) < len(problems)
    # a shared design gives each problem the solution it gets alone
    monkeypatch.setattr(np.linalg, "matrix_rank", matrix_rank)
    for (model, group), got in zip(problems, solutions):
        alone = glm.solve_group(model, group)
        assert got.flags == alone.flags
        assert np.array_equal(got.beta, alone.beta, equal_nan=True)


ZERO_LISTED = {1: 5, 2: 5, 3: 0, 4: 5, 5: 5, 6: 5, 7: 5}


def test_a_listed_zero_count_is_outside_the_support():
    direct = CountTable(3, ZERO_LISTED)
    clean = CountTable.from_counts(3, ZERO_LISTED)
    assert direct.support == clean.support == frozenset({1, 2, 4, 5, 6, 7})
    assert support_key(direct) == support_key(clean)
    assert not existence._full_support(direct)
    model = ModelSpec.from_notation("[12,13,23]", 3)
    assert fr_check(model, direct) is fr_check(model, clean) is False
    cache = ExistenceCache()
    assert cache.check_many([(model, direct), (model, clean)]) == [False, False]
    assert (cache.hits, cache.misses) == (1, 1)
    got, want = fit(model, direct), fit(model, clean)
    assert got.status == want.status == glm.STATUS_FR_FAILED
    assert got.population_estimate is want.population_estimate is None


@pytest.mark.parametrize("order", ["canonical", "reversed"])
def test_a_listed_zero_count_fits_as_the_clean_table(order):
    # a listed zero may sit in a cell the reduction drops, and a table
    # built directly may list its cells out of canonical order
    models = enumerate_models(3, 2).models
    cells = range(1, 8)
    compared = 0
    for r in range(1, 7):
        for support in itertools.combinations(cells, r):
            for zero in set(cells) - set(support):
                counts = {w: 3 + w for w in support} | {zero: 0}
                listed = sorted(counts.items(), key=lambda kv: canonical_key(kv[0]),
                                reverse=order == "reversed")
                direct, clean = CountTable(3, dict(listed)), CountTable.from_counts(3, counts)
                for model in models:
                    got, want = fit(model, direct), fit(model, clean)
                    assert (got.status, got.flags, got.bic, got.population_estimate,
                            got.alpha, got.mu) == (want.status, want.flags, want.bic,
                                                   want.population_estimate, want.alpha,
                                                   want.mu)
                    compared += got.converged
    assert compared > 100
