"""Frozen scalar IRLS fit: the bitwise oracle for the grouped kernel.

This is the one-table ``glm.fit`` loop as it stood before fitting was
grouped by support, solving each weighted least-squares step through
``scipy.linalg.lstsq``, with the BIC computed as it was before
``special.gammaln`` ran once per table.  It is kept unchanged on purpose; the grouped
kernel must reproduce its results exactly, not approximately, because a
last-bit difference in an estimate can flip a bootstrap comparison.

It keeps its own copies of the IRLS limits, so a change to ``glm``'s
constants fails the oracle tests instead of moving the oracle with it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg, special

from mseboot.core import CountTable, ModelSpec
from mseboot.glm import (
    STATUS_CONVERGED,
    STATUS_NOT_CONVERGED,
    FitResult,
    FitSettings,
)
from mseboot.sparsity import design_matrix, reduce_for_sparsity

# glm.MAX_ITER, REL_TOL, ABS_TOL and ALPHA_FLOOR as the goldens were made
MAX_ITER = 100
REL_TOL = 1e-10
ABS_TOL = 1e-12
ALPHA_FLOOR = -30.0


def _poisson_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        ylogy = np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0) / mu), 0.0)
    return 2.0 * float(np.sum(ylogy - (y - mu)))


def log_likelihood(y: np.ndarray, mu: np.ndarray) -> float:
    """Poisson log-likelihood including the factorial normalizer, for any
    real ``y`` (log y! is log Gamma(y + 1))."""
    with np.errstate(divide="ignore"):
        term = np.where(y > 0, y * np.log(mu), 0.0)
    return float(np.sum(term - mu - special.gammaln(y + 1)))


def oracle_bic_from_mu(
    model: ModelSpec,
    table: CountTable,
    mu: dict[int, float],
    settings: FitSettings = FitSettings(),
) -> float:
    """The BIC of fitted means ``mu`` (cell -> mean), with one scalar
    ``gammaln`` call per cell: the sum ``glm.solve_groups`` makes for a
    row and ``glm.fit`` turns into the BIC."""
    if settings.sample_size == "case":
        size = table.n_total
    elif settings.sample_size == "capture":
        size = (1 << table.t) - 1
    else:
        raise ValueError(f"unknown sample size convention {settings.sample_size!r}")
    dev = 0.0
    for w, m in mu.items():
        n = table.count(w)
        dev += m - (n * math.log(m) if n > 0 else 0.0) + float(special.gammaln(n + 1))
    return len(model.params) * math.log(size) + 2.0 * dev


def oracle_fit(
    model: ModelSpec,
    table: CountTable,
    settings: FitSettings = FitSettings(),
    max_iter: int = MAX_ITER,
) -> FitResult:
    if table.n_total == 0:
        raise ValueError("cannot fit an empty table")
    red = reduce_for_sparsity(model, table)
    if not red.omega_dagger:
        return FitResult(model, STATUS_NOT_CONVERGED, flags=("no_cells_left",))
    y = np.array([table.count(w) for w in red.omega_dagger], dtype=float)
    X = design_matrix(red.omega_dagger, red.theta_dagger)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        return FitResult(model, STATUS_NOT_CONVERGED, flags=("parameter_redundant",))

    mu = y + 0.5
    beta = np.zeros(X.shape[1])
    first_dev: float | None = None
    prev_dev: float | None = None
    dev = math.inf
    converged = False
    diverged = False
    change = math.nan
    for _ in range(max_iter):
        eta = np.log(mu)
        z = eta + (y - mu) / mu
        sw = np.sqrt(mu)
        beta, *_ = linalg.lstsq(X * sw[:, None], z * sw, lapack_driver="gelsd")
        if np.min(beta) < ALPHA_FLOOR:
            diverged = True
            break
        mu = np.exp(X @ beta)
        dev = _poisson_deviance(y, mu)
        if first_dev is None:
            first_dev = dev
        if prev_dev is not None:
            change = abs(dev - prev_dev)
            if change < ABS_TOL or change < REL_TOL * max(1.0, abs(prev_dev)):
                converged = True
                break
        prev_dev = dev
    if diverged or not converged:
        flag = "diverged" if diverged else "max_iterations"
        return FitResult(model, STATUS_NOT_CONVERGED, deviance_change=change,
                         flags=(flag,))

    alpha = {th: float(b) for th, b in zip(red.theta_dagger, beta)}
    for th in red.minus_infinity_params:
        alpha[th] = -math.inf
    mu_map = {w: float(m) for w, m in zip(red.omega_dagger, mu)}
    bic = oracle_bic_from_mu(model, table, mu_map, settings)
    m_hat = math.exp(alpha[0]) + table.n_total
    if first_dev is not None and first_dev + 1e-8 < dev:
        return FitResult(model, STATUS_NOT_CONVERGED, deviance_change=change,
                         flags=("deviance_increase",))
    return FitResult(
        model,
        STATUS_CONVERGED,
        alpha=alpha,
        mu=mu_map,
        bic=bic,
        population_estimate=m_hat,
        deviance_change=change,
    )
