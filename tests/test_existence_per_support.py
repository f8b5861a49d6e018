"""Existence work done once per (model, support), against frozen copies
of the per-miss code it replaced.

``ExistenceCache.check_many`` reduces each miss once, on the table it is
asked about, reads its zero cells off the table's support and keeps the
reduction for the fit; ``lp_max_s`` sums the marginal counts ``nu`` off
the table only when it runs.  ``proves_full_rank`` eliminates over GF(2)
first and modulo ``RANK_PRIME`` only when that falls short.
``glm.solve_groups`` builds and rank-tests each distinct design once per
call.  Everything is keyed by ``CountTable.support``.

The oracles below are the code as it was before: ``prime_proves_full_rank``
eliminates modulo the prime alone, and ``per_miss_check_many`` builds an
indicator table, the reduction (by marginal count sums) and the zero
cells (by ``table.count``) for every miss.

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

import ast
import functools
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mseboot import CountTable, ExistenceCache, ModelSpec, enumerate_models, fit, glm
from mseboot import existence
from mseboot.bootstrap import _group_fits
from mseboot.core import canonical_key
from mseboot.existence import (
    CERTIFIED,
    FAST_PATH,
    NULL_SPACE,
    RANK,
    RANK_PRIME,
    fr_check,
    lp_max_s,
    reduce_for_sparsity,
)
from mseboot.sparsity import ReducedProblem, canonical_cells

from conftest import TABLE1, marginal_count, random_table, reduced

# the largest n whose 0/1 minors all lie below the prime (Hadamard's bound)
MAX_EXACT_PARAMS = 22


def hadamard_bound(n):
    """Largest possible determinant of an n x n 0/1 matrix, rounded up."""
    return math.ceil((n + 1) ** ((n + 1) / 2) / 2**n)


def prime_proves_full_rank(problem, zero):
    """``proves_full_rank`` before the GF(2) pass: elimination modulo
    ``RANK_PRIME`` on int64 arrays only."""
    positive = np.ones(len(problem.omega_dagger), dtype=bool)
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
    indicator, reduction and zero cells, and the prime alone proves
    rank."""
    keys = [(model.params, table.support) for model, table in pairs]
    posed = {}
    for (model, table), key in zip(pairs, keys):
        if key in cache.verdicts or key in posed or len(table.counts) == (1 << table.t) - 1:
            continue
        indicator = CountTable.from_counts(table.t, {w: 1 for w in table.support})
        problem = marginal_reduction(model, indicator)
        zero = [i for i, w in enumerate(problem.omega_dagger) if indicator.count(w) == 0]
        posed[key] = (problem, zero)
    solved, asked = {}, []
    for key, (problem, zero) in posed.items():
        proved = None
        if problem.omega_dagger and zero:
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
        for model in models:
            problem = reduce_for_sparsity(model, table)
            zero = problem.zero_cells(table)
            if not problem.omega_dagger or not zero:
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


def test_one_reduction_per_distinct_pair(monkeypatch):
    reduced = []
    real = existence.reduce_for_sparsity
    monkeypatch.setattr(existence, "reduce_for_sparsity",
                        lambda model, table: reduced.append((model.params, table.support))
                        or real(model, table))
    tables = table1_tables()
    # each table twice over, on itself and its double, which shares its support
    doubled = [CountTable.from_counts(4, {w: 2 * n for w, n in t.counts.items()})
               for t in tables]
    models = enumerate_models(4, 3).models
    cache = ExistenceCache()
    cache.check_many([(m, t) for t in tables + doubled for m in models])
    pairs = {(m.params, t.support) for t in tables for m in models}
    assert len(reduced) == len(set(reduced)) == len(pairs) == len(models) * len(tables)
    assert set(reduced) == pairs == set(cache.reductions) == set(cache.verdicts)
    # a second call over the same pairs is all hits and reduces nothing,
    # and the fit reads the reductions the checks made
    cache.check_many([(m, t) for t in tables for m in models])
    assert [cache.reduction(m, t) for t in doubled for m in models] == [
        real(m, t) for t in tables for m in models
    ]
    assert len(reduced) == len(pairs)


def test_rank_and_null_space_routes_sum_no_margins(monkeypatch):
    # ``lp_max_s`` is the only code that sums the margins nu
    def refuse(*args):
        raise AssertionError("lp_max_s called")

    def no_program(blocks):
        raise AssertionError("float_solve called")

    monkeypatch.setattr(existence, "lp_max_s", refuse)
    monkeypatch.setattr(existence, "float_solve", no_program)
    cache = ExistenceCache()
    cache.check_many([(m, t) for t in table1_tables() for m in enumerate_models(4, 3).models])
    assert set(cache.decided) == {FAST_PATH, RANK, NULL_SPACE}
    assert cache.decided[RANK] > 0 and cache.decided[NULL_SPACE] > 0


def test_nu_is_summed_when_the_lp_reads_it(monkeypatch, table1, abcd_model):
    table = table1["n2"]
    problem = reduce_for_sparsity(abcd_model, table)
    assert "nu" not in vars(problem)
    programs = []
    simplex_max = existence.simplex_max
    monkeypatch.setattr(existence, "simplex_max",
                        lambda c, A, b: programs.append(b) or simplex_max(c, A, b))
    status, s_star = lp_max_s(problem, table)
    assert status == existence.OPTIMAL and s_star <= 0
    # one margin per estimable parameter, summed on the table given
    assert programs == [[Fraction(marginal_count(table, th))
                         for th in problem.theta_dagger]]
    # the problem compares as its three fields, whatever it has built
    problem.incidence
    fresh = reduce_for_sparsity(abcd_model, table)
    assert fresh == problem and hash(fresh) == hash(problem)
    assert ReducedProblem(problem.theta_dagger, problem.omega_dagger, frozenset()) != problem


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
    problems = reduced(problems)
    distinct = {
        (red.omega_dagger, red.theta_dagger) for red, _ in problems if red.omega_dagger
    }
    for _ in range(2):
        ranks.clear()
        designs.clear()
        solutions = glm.solve_groups(problems)
        assert sorted(designs) == sorted(distinct) and len(ranks) == len(distinct)
    assert len(distinct) < len(problems)
    # a shared design gives each problem the solution it gets alone
    monkeypatch.setattr(np.linalg, "matrix_rank", matrix_rank)
    for (red, group), got in zip(problems, solutions):
        alone = glm.solve_groups([(red, group)])[0]
        assert got.flags == alone.flags
        assert np.array_equal(got.beta, alone.beta, equal_nan=True)


ZERO_LISTED = {1: 5, 2: 5, 3: 0, 4: 5, 5: 5, 6: 5, 7: 5}


def test_a_listed_zero_count_is_outside_the_support():
    direct = CountTable(3, ZERO_LISTED)
    clean = CountTable.from_counts(3, ZERO_LISTED)
    assert direct.support == clean.support == frozenset({1, 2, 4, 5, 6, 7})
    assert not existence._full_support(direct)
    model = ModelSpec.from_notation("[12,13,23]", 3)
    assert fr_check(model, direct) is fr_check(model, clean) is False
    cache = ExistenceCache()
    assert cache.check_many([(model, direct), (model, clean)]) == [False, False]
    assert (cache.hits, cache.misses) == (1, 1)
    assert list(cache.verdicts) == [(model.params, clean.support)]
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


# a 3-list table without cell 23, so some models have no MLE on it
TWIN = {0b001: 5, 0b010: 4, 0b100: 7, 0b011: 3, 0b101: 2, 0b111: 6}


def built_directly(kind):
    """A table built directly that shares ``TWIN``'s support: listing a
    zero cell in canonical order, or listing its cells in reverse."""
    if kind == "zero listed":
        counts = sorted({**TWIN, 0b110: 0}.items(), key=lambda kv: canonical_key(kv[0]))
    else:
        counts = sorted(TWIN.items(), key=lambda kv: canonical_key(kv[0]), reverse=True)
    return CountTable(3, dict(counts))


@pytest.mark.parametrize("kind", ["zero listed", "out of order"])
def test_a_table_built_directly_shares_its_twins_key(kind):
    direct, twin = built_directly(kind), CountTable.from_counts(3, TWIN)
    assert tuple(direct.counts) != tuple(twin.counts)
    models = enumerate_models(3, 2).models
    cache = ExistenceCache()
    verdicts = cache.check_many([(m, t) for m in models for t in (direct, twin)])
    assert verdicts[::2] == verdicts[1::2] and True in verdicts and False in verdicts
    # one entry per model, for both tables
    assert (cache.misses, cache.hits) == (len(models), len(models))
    assert set(cache.verdicts) == set(cache.reductions) == {
        (m.params, twin.support) for m in models
    }
    # and one group per model, holding both tables
    fitted = _group_fits(models, [direct, twin], cache, glm.FitSettings())
    assert [(group, j) for (group, j), _ in fitted] == [
        ([0, 1], j) for j in range(len(models))
    ]
    assert cache.misses == len(models)


@pytest.mark.parametrize("kind", ["zero listed", "out of order"])
def test_a_table_built_directly_fits_as_its_twin(monkeypatch, kind):
    direct, twin = built_directly(kind), CountTable.from_counts(3, TWIN)
    real = glm.solve_groups
    solved = []

    def recording(problems, rows=None):
        solutions = real(problems, rows)
        solved.extend(zip(problems, solutions))
        return solutions

    monkeypatch.setattr(glm, "solve_groups", recording)
    models = enumerate_models(3, 2).models
    list(glm.fit_groups([(m, [direct, twin]) for m in models]))
    assert 0 < len(solved) < len(models)
    for (red, group), together in solved:
        assert group == [direct, twin]
        alone = [real([(red, [t])])[0] for t in group]
        assert together.reduced == alone[0].reduced == alone[1].reduced
        assert together.flags == alone[0].flags + alone[1].flags
        for field in ("beta", "mu", "deviance", "neg_log_likelihood",
                      "first_deviance", "change"):
            rows = getattr(together, field)
            a, b = (getattr(s, field) for s in alone)
            assert np.array_equal(a, b, equal_nan=True), field
            assert np.array_equal(rows[:1], a, equal_nan=True), field
            assert np.array_equal(rows[1:], b, equal_nan=True), field


ISOLATED_IMPORTS = """
import importlib.util, sys, types
# the package without its __init__, which imports every module
spec = importlib.util.find_spec("mseboot")
package = types.ModuleType("mseboot")
package.__path__ = list(spec.submodule_search_locations)
sys.modules["mseboot"] = package
import mseboot.sparsity
assert "mseboot.glm" not in sys.modules and "mseboot.existence" not in sys.modules
import mseboot.existence
assert "mseboot.glm" not in sys.modules
import mseboot.glm
assert mseboot.glm.ExistenceCache is mseboot.existence.ExistenceCache
assert mseboot.glm.ReducedProblem is mseboot.existence.ReducedProblem
"""


def test_existence_imports_without_glm():
    src = str(Path(glm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", ISOLATED_IMPORTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # and no function imports from the other module
    for module in (glm, existence):
        tree = ast.parse(Path(module.__file__).read_text())
        nested = [
            node for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.ImportFrom)
        ]
        assert not [n.module for n in nested if n.module in ("glm", "existence")]
