"""``glm.solve_groups`` against one call per problem and against the
frozen scalar loop, bit for bit.

A batch stacks the groups of equal design shape, whatever their model or
support, into one IRLS run.  Every comparison is ``==``: a stacked row
must be the fit its table gets alone, down to the last bit.
"""

import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import irls_oracle
from mseboot import CountTable, ModelSpec, enumerate_models, fr_check
from mseboot import glm, sparsity
from mseboot.bootstrap import replicate_rng, resample
from mseboot.glm import FitSettings, ReducedProblem, fit_groups, solve_groups

from conftest import KOREA_COUNTS, random_table, reduced, unchecked_fits
from irls_oracle import oracle_fit

# its reduction is emptied by ``emptied_reduction``, as no valid table
# empties it, to put a ``no_cells_left`` problem in the batch
EMPTIED = ModelSpec.from_notation("[12,3]", 3)


def outcome(res):
    return (res.status, res.flags, res.bic, res.population_estimate, res.alpha, res.mu)


def by_support(tables):
    groups = defaultdict(list)
    for t in tables:
        groups[t.support].append(t)
    return list(groups.values())


def resample_groups(table, n, seed):
    return by_support([resample(table, replicate_rng(seed, i)) for i in range(n)])


def mixed_problems():
    """(model, group) problems of several models and supports, on three
    and four lists: groups of equal and of unequal design shape, and,
    without an existence check, groups whose rows diverge or whose design
    is rank-deficient."""
    problems = []
    korea = CountTable.from_counts(3, KOREA_COUNTS)
    groups = [[korea]] + resample_groups(korea, 12, seed=5)
    problems += [(m, g) for m in enumerate_models(3, 2).models for g in groups]
    rng = np.random.default_rng(2024)
    models = enumerate_models(4, 3).models[::6]
    for k in range(6):
        table = random_table(rng, 4, zero_prob=0.5)
        groups = [[table]] + resample_groups(table, 4, seed=k)
        problems += [(m, g) for m in models for g in groups]
    return problems


@pytest.fixture
def emptied_reduction(monkeypatch):
    real = sparsity.reduce_for_sparsity

    def reduce(model, table):
        red = real(model, table)
        if model != EMPTIED:
            return red
        return ReducedProblem(red.theta_dagger, (), red.minus_infinity_params)

    monkeypatch.setattr(sparsity, "reduce_for_sparsity", reduce)
    monkeypatch.setattr(irls_oracle, "reduce_for_sparsity", reduce)


@pytest.fixture
def stacks(monkeypatch):
    """Every stack ``solve_groups`` iterates: (pieces of groups, elements,
    design shapes, whether the stacked design was C-contiguous)."""
    seen = []
    real_stacks, real_irls = glm._stacks, glm._irls

    def recording_stacks(posed):
        for stack in real_stacks(posed):
            designs = [posed[k].X for k, _, _ in stack]
            size = sum((hi - lo) * posed[k].X.size for k, lo, hi in stack)
            seen.append([len(stack), size, {X.shape for X in designs}, None])
            yield stack

    def recording_irls(X, Y):
        assert X.shape[0] == len(Y) and seen[-1][1] == X.size
        seen[-1][3] = X.flags.c_contiguous
        return real_irls(X, Y)

    monkeypatch.setattr(glm, "_stacks", recording_stacks)
    monkeypatch.setattr(glm, "_irls", recording_irls)
    return seen


# the glm constants each case sets: 12 iterations leave rows diverged,
# settled and still iterating in one batch
@pytest.mark.parametrize("settings", [{}, {"MAX_ITER": 12}])
def test_mixed_batch_matches_each_group_alone_and_the_oracle(
    settings, emptied_reduction, stacks, monkeypatch
):
    for name, value in settings.items():
        monkeypatch.setattr(glm, name, value)
    # the oracle keeps its own limits and takes the iteration cap apart
    max_iter = settings.get("MAX_ITER", irls_oracle.MAX_ITER)
    problems = mixed_problems()
    batch = unchecked_fits(problems)
    assert len(batch) == len(problems)
    batch_stacks = list(stacks)
    flags = set()
    for (model, group), got in zip(problems, batch):
        assert [outcome(r) for r in got] == [
            outcome(r) for r in unchecked_fits([(model, group)])[0]
        ]
        assert [outcome(r) for r in got] == [
            outcome(oracle_fit(model, t, max_iter=max_iter)) for t in group
        ]
        flags |= {r.flags for r in got}
    expected = {(), ("diverged",), ("parameter_redundant",), ("no_cells_left",)}
    if settings:
        expected.add(("max_iterations",))
    assert expected <= flags
    # the batch was stacked: far fewer IRLS runs than groups, each on one
    # C-contiguous design shape
    assert len(batch_stacks) < len(problems) / 4
    assert all(len(shapes) == 1 and contiguous for _, _, shapes, contiguous in stacks)


def test_solutions_equal_solve_group_field_by_field(emptied_reduction):
    problems = mixed_problems()
    for (model, group), got in zip(problems, solve_groups(reduced(problems))):
        alone = glm.solve_groups(reduced([(model, group)]))[0]
        assert got.reduced == alone.reduced and got.flags == alone.flags
        for field in ("beta", "mu", "deviance", "neg_log_likelihood",
                      "first_deviance", "change"):
            a, b = getattr(got, field), getattr(alone, field)
            assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True), field


def test_small_stack_cap_changes_nothing(monkeypatch, stacks):
    # the first group of its shape is larger than the cap alone
    korea = CountTable.from_counts(3, KOREA_COUNTS)
    big = max(resample_groups(korea, 40, seed=9), key=len)
    problems = [(ModelSpec.null_model(3), big)] + mixed_problems()
    uncapped = [[outcome(r) for r in got] for got in unchecked_fits(problems)]
    stacks.clear()
    cap = 400
    assert len(big) * 7 * 4 > cap
    monkeypatch.setattr(glm, "STACK_ELEMENTS", cap)
    capped = [[outcome(r) for r in got] for got in unchecked_fits(problems)]
    assert capped == uncapped
    # no stack exceeds the cap, the group larger than it included
    assert all(size <= cap for _, size, _, _ in stacks)
    assert any(n > 1 for n, _, _, _ in stacks)
    assert all(len(shapes) == 1 and contiguous for _, _, shapes, contiguous in stacks)


def test_group_cut_into_pieces_equals_the_whole_group(monkeypatch, stacks):
    korea = CountTable.from_counts(3, KOREA_COUNTS)
    big = max(resample_groups(korea, 300, seed=11), key=len)
    problems = [(m, big) for m in enumerate_models(3, 2).models]
    whole = solve_groups(reduced(problems))
    assert len(stacks) < len(problems)
    stacks.clear()
    # a few rows a piece, and pieces of one group in several stacks
    monkeypatch.setattr(glm, "STACK_ELEMENTS", 7 * 7 * 5)
    cut = solve_groups(reduced(problems))
    assert len(stacks) > 2 * len(problems)
    for got, alone in zip(cut, whole):
        assert got.reduced == alone.reduced and got.flags == alone.flags
        for field in ("beta", "mu", "deviance", "neg_log_likelihood",
                      "first_deviance", "change"):
            a, b = getattr(got, field), getattr(alone, field)
            assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True), field


# One group of 120 tables under the all-pairs model on 9 lists: 511 cells x
# 46 parameters, 188 KB of design per row.  Solved whole it raises the peak
# by over 40 MB (a design copy per row, a weighted copy per iteration);
# cut into stacks of at most STACK_ELEMENTS elements, with the CPU count
# (and so the number of stacks in flight) fixed, by under 10 MB.
LARGE_GROUP_CHILD = """
import json, resource, sys
import numpy as np
from mseboot import CountTable, ModelSpec, glm
from mseboot.sparsity import reduce_for_sparsity
glm._cpu_count = lambda: 2
t = 9
rng = np.random.default_rng(0)
counts = {w: int(rng.integers(5, 40)) for w in range(1, 1 << t)}
table = CountTable.from_counts(t, counts)
model = ModelSpec.from_generators(
    t, [(1 << i) | (1 << j) for i in range(t) for j in range(i + 1, t)])
red = reduce_for_sparsity(model, table)
# two rows are cut across both threads, so both have solved before the
# peak is read
glm.solve_groups([(red, [table] * 2)])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
solution = glm.solve_groups([(red, [table] * 120)])[0]
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"peak_rise_mb": (after - before) / 1024,
                  "flags": sorted(set(map(str, solution.flags)))}))
"""
LARGE_GROUP_BUDGET_MB = 20


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
def test_large_group_peak_memory_is_bounded():
    src = str(Path(glm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", LARGE_GROUP_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["flags"] == ["None"]
    assert result["peak_rise_mb"] < LARGE_GROUP_BUDGET_MB


def test_fit_is_called_per_table_as_each_list_is_taken(monkeypatch):
    korea = CountTable.from_counts(3, KOREA_COUNTS)
    groups = resample_groups(korea, 10, seed=1)
    problems = [(m, g) for m in enumerate_models(3, 2).models for g in groups]
    calls, solves = [], []
    real_fit, real_solve = glm.fit, glm.solve_groups

    def counting_fit(model, table, settings=FitSettings(), solved=None):
        calls.append(model)
        return real_fit(model, table, settings, solved)

    def counting_solve(problems, rows=None):
        solves.append(len(problems))
        return real_solve(problems, rows)

    monkeypatch.setattr(glm, "fit", counting_fit)
    monkeypatch.setattr(glm, "solve_groups", counting_solve)
    fitted = fit_groups(problems)
    assert calls == [] and solves == []
    exists = [fr_check(m, g[0]) for m, g in problems]
    assert not all(exists)
    for (model, group), ok in zip(problems, exists):
        before = len(calls)
        next(fitted)
        # a problem with no MLE is neither solved nor fitted
        assert calls[before:] == ([model] * len(group) if ok else [])
    # one solve for the whole batch, not one per group
    assert solves == [sum(exists)]


def test_empty_batch():
    assert solve_groups([]) == []
    assert list(fit_groups([])) == []
