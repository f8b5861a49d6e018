"""Acceptance suite: one test per release criterion, each printing a
pass line with the measured values when its assertions hold.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest

from mseboot import (
    CountTable,
    ExistenceCache,
    ModelSpec,
    diagnostics,
    downhill_bootstrap,
    enumerate_models,
    fit,
    fr_check,
    load_fixture,
    NoModelFoundError,
    ntop_sweep,
    select_best_bic,
)
from mseboot.bootstrap import adjusted_level
from mseboot.cli import main
from mseboot.sparsity import design_matrix, reduce_for_sparsity

from conftest import marginal_count, random_table
from irls_oracle import log_likelihood

SEED = 42
SWEEP_SEED = 53


@pytest.fixture(scope="module")
def korea():
    return load_fixture("korea")[0]


@pytest.fixture(scope="module")
def korea_space():
    return enumerate_models(3, 2)


@pytest.fixture(scope="module")
def korea_sweep(korea, korea_space):
    started = time.perf_counter()
    state, results = ntop_sweep(korea, korea_space, B=1000, seed=SWEEP_SEED)
    return state, results, time.perf_counter() - started


def _report(name, detail=""):
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


def test_criterion_1_model_space_counts():
    started = time.perf_counter()
    counts = {
        (5, 4): len(enumerate_models(5, 4)),
        (5, 2): len(enumerate_models(5, 2)),
        (4, 3): len(enumerate_models(4, 3)),
        (3, 2): len(enumerate_models(3, 2)),
    }
    elapsed = time.perf_counter() - started
    assert counts == {(5, 4): 6893, (5, 2): 1024, (4, 3): 113, (3, 2): 8}
    assert elapsed < 60.0
    _report("criterion 1 (model-space counts)", f"{counts} in {elapsed:.2f}s")


def test_criterion_2_korea_selection(korea, korea_space):
    started = time.perf_counter()
    failing = {m.notation() for m in korea_space if not fr_check(m, korea)}
    model, res = select_best_bic(
        [m for m in korea_space if m.notation() not in failing], korea
    )
    elapsed = time.perf_counter() - started
    assert failing == {"[12,13]", "[12,13,23]"}
    assert model.notation() == "[12,23]"
    assert abs(res.population_estimate - 157.2) <= 0.05
    assert elapsed < 1.0
    _report(
        "criterion 2 (Korea selection)",
        f"winner {model.notation()}, estimate {res.population_estimate:.2f} in {elapsed:.2f}s",
    )


def test_criterion_3_sparse_table_verdicts():
    started = time.perf_counter()
    model = ModelSpec.from_notation("[123,14]", 4)
    verdicts = {
        name: fr_check(model, load_fixture(f"table1_{name}")[0])
        for name in ("n1", "n2", "n3", "n4")
    }
    elapsed = time.perf_counter() - started
    assert verdicts == {"n1": True, "n2": False, "n3": True, "n4": False}
    assert elapsed < 1.0
    _report("criterion 3 (existence verdicts)", f"{verdicts} in {elapsed:.2f}s")


def test_criterion_4_korea_bootstrap(korea_sweep):
    state, results, elapsed = korea_sweep
    assert elapsed < 30.0
    lo1, hi1 = results[1].intervals[0.95]
    assert abs(lo1 - 131) <= 0.1 * 131
    assert abs(hi1 - 248) <= 0.1 * 248
    # restricting to two models vs considering all six: endpoints agree
    # within one order-statistic step at the same seed, i.e. at most one
    # distinct bootstrap value lies strictly between the paired endpoints
    uniq6 = np.unique(
        [v for v in state.filled_estimates[:, 5] if math.isfinite(v)]
    )
    for level in (0.8, 0.95):
        for e2, e6 in zip(results[2].intervals[level], results[6].intervals[level]):
            lo, hi = min(e2, e6), max(e2, e6)
            between = int(np.sum((uniq6 > lo + 1e-9) & (uniq6 < hi - 1e-9)))
            assert between <= 1, (level, e2, e6, between)
    _report(
        "criterion 4 (Korea bootstrap)",
        f"n_top=1 95% CI [{lo1:.0f}, {hi1:.0f}] vs [131, 248] in {elapsed:.1f}s",
    )


def test_criterion_5_korea_downhill(korea):
    started = time.perf_counter()
    res = downhill_bootstrap(korea, B=1000, seed=SEED)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    assert round(res.point_estimate) == 157
    lo, hi = res.intervals[0.95]
    assert abs(lo - 128) <= 0.1 * 128
    assert abs(hi - 349) <= 0.1 * 349
    _report(
        "criterion 5 (Korea downhill)",
        f"estimate {res.point_estimate:.1f}, 95% CI [{lo:.0f}, {hi:.0f}] vs [128, 349] in {elapsed:.1f}s",
    )


def test_criterion_6_korea_diagnostics(korea, korea_space):
    started = time.perf_counter()
    report = diagnostics(korea, korea_space, B=1000, seed=SEED, ntop_grid=(1, 2, 8))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert 0.95 <= report.mean_rho <= 0.99
    _report(
        "criterion 6 (Korea diagnostics)",
        f"mean Spearman rho {report.mean_rho:.4f} in {elapsed:.1f}s",
    )


def test_criterion_7_support_theorem_property():
    rng = np.random.default_rng(SEED)
    failures = 0
    for trial in range(200):
        t = int(rng.integers(3, 5))
        table = random_table(rng, t, zero_prob=float(rng.uniform(0.2, 0.6)))
        space = enumerate_models(t, t - 1)
        model = space.models[int(rng.integers(len(space)))]
        scale = int(rng.integers(1, 50))
        scaled = CountTable.from_counts(
            t, {m: scale * n for m, n in table.counts.items()}
        )
        indicator = CountTable.from_counts(t, {m: 1 for m in table.support})
        base = fr_check(model, table)
        if fr_check(model, scaled) != base or fr_check(model, indicator) != base:
            failures += 1
    assert failures == 0
    _report("criterion 7 (support theorem)", "200 randomized triples, 0 mismatches")


def test_criterion_8_sweep_correctness():
    space = enumerate_models(3, 2)
    mismatches = 0
    checked = 0
    instances = 0
    instance = 0
    while instances < 20:
        instance += 1
        rng = np.random.default_rng(1000 + instance)
        table = random_table(rng, 3, zero_prob=0.25)
        cache = ExistenceCache()
        try:
            state, results = ntop_sweep(
                table, space, B=50, seed=instance, cache=cache
            )
        except NoModelFoundError:
            # too sparse for any model to be estimable: not a sweep case
            continue
        instances += 1
        B, nh = state.bic_array.shape
        for i in range(B):
            for j in range(nh):
                prefix = state.bic_array[i, : j + 1]
                k = int(np.argmin(prefix))
                expected = (
                    math.nan if math.isinf(prefix[k]) else state.estimate_array[i, k]
                )
                got = state.filled_estimates[i, j]
                checked += 1
                if math.isnan(expected):
                    mismatches += 0 if math.isnan(got) else 1
                else:
                    mismatches += 0 if got == expected else 1
    assert mismatches == 0
    _report(
        "criterion 8 (sweep correctness)",
        f"{checked} (replicate, n_top) cells, exact equality",
    )


def test_criterion_9_bca_degenerate_and_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def oracle(z0, a, beta):
        zb = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(beta) - 1)
        denom = 1 - a * (z0 + zb)
        arg = z0 + (z0 + zb) / denom
        return float(0.5 * (1 + mpmath.erf(arg / mpmath.sqrt(2))))

    worst = 0.0
    for z0 in (-0.5, -0.1, 0.0, 0.1, 0.5):
        for a in (-0.2, -0.05, 0.0, 0.05, 0.2):
            for beta in (0.025, 0.1, 0.5, 0.9, 0.975):
                got = adjusted_level(z0, a, beta)
                assert got is not None
                worst = max(worst, abs(got - oracle(z0, a, beta)))
    assert worst <= 1e-9

    # z0 = a = 0 reduces to the percentile bootstrap exactly
    rng = np.random.default_rng(SEED)
    boot = np.sort(rng.normal(size=500))
    for beta in (0.025, 0.975):
        bt = adjusted_level(0.0, 0.0, beta)
        k = min(max(math.ceil(bt * len(boot)), 1), len(boot))
        assert boot[k - 1] == boot[math.ceil(beta * len(boot)) - 1]
    _report(
        "criterion 9 (BCa formula)",
        f"max deviation from high-precision oracle {worst:.2e}",
    )


def test_criterion_10_glm_correctness():
    # closed form for two lists with main effects only
    table = CountTable.from_counts(2, {0b11: 10, 0b01: 20, 0b10: 30})
    res = fit(ModelSpec.null_model(2), table)
    closed = 20 * 30 / 10 + 60
    assert abs(res.population_estimate - closed) <= 1e-6 * closed

    # score equations on random instances
    rng = np.random.default_rng(SEED)
    checked = 0
    for _ in range(100):
        t = int(rng.integers(2, 5))
        tab = random_table(rng, t, zero_prob=0.2)
        space = enumerate_models(t, t - 1)
        model = space.models[int(rng.integers(len(space)))]
        r = fit(model, tab)
        if not r.converged:
            continue
        red = reduce_for_sparsity(model, tab)
        for theta in red.theta_dagger:
            fitted = sum(m for w, m in r.mu.items() if w & theta == theta)
            observed = marginal_count(tab, theta)
            assert abs(fitted - observed) <= 1e-6 * max(1, observed)
        checked += 1
    assert checked >= 50

    # analytic score vs central finite differences
    for _ in range(20):
        tab = random_table(rng, 3)
        model = ModelSpec.from_generators(3, [0b011])
        red = reduce_for_sparsity(model, tab)
        X = design_matrix(red.omega_dagger, red.theta_dagger)
        y = np.array([tab.count(w) for w in red.omega_dagger], dtype=float)
        alpha = rng.normal(scale=0.3, size=X.shape[1])
        analytic = X.T @ (y - np.exp(X @ alpha))
        h = 1e-6
        for j in range(len(alpha)):
            e = np.zeros_like(alpha)
            e[j] = h
            fd = (
                log_likelihood(y, np.exp(X @ (alpha + e)))
                - log_likelihood(y, np.exp(X @ (alpha - e)))
            ) / (2 * h)
            assert fd == pytest.approx(analytic[j], rel=1e-4, abs=1e-6)
    _report(
        "criterion 10 (GLM correctness)",
        f"closed form, {checked} score-equation instances, gradient checks",
    )


def test_criterion_11_determinism(tmp_path, capsys):
    outputs = []
    for workers in ("1", "8"):
        path = tmp_path / f"w{workers}.json"
        code = main([
            "bootstrap", "--data", "fixture:korea", "--reps", "200",
            "--seed", str(SEED), "--ntop", "2", "--workers", workers,
            "--out", str(path),
        ])
        assert code == 0
        outputs.append(path.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    parsed = json.loads(outputs[0])
    assert parsed["result"]["n_top"] == 2
    _report(
        "criterion 11 (determinism)",
        f"{len(outputs[0])} bytes identical across 1 and 8 workers",
    )
