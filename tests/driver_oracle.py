"""Frozen bootstrap drivers: the oracle for the one shared driver.

These are ``restricted_bootstrap``, ``ntop_sweep``, ``chisq_bootstrap``
and ``diagnostics`` as they stood when each driver had its own body: the
original table fitted through ``fit_candidates`` (now one ``fit_groups``
call, which checks existence first as the callers of ``fit_candidates``
did), the restricted
bootstrap selecting per replicate by ``argmin`` over its own evaluation
arrays, chisq checking and selecting one table at a time, and every
driver building its own ``IntervalResult``.  They are kept unchanged on
purpose but for those calls; the shared driver must give equal results,
and the same ``SweepState`` arrays.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from mseboot.bootstrap import (
    DEFAULT_B,
    DEFAULT_LEVELS,
    DiagnosticsReport,
    IntervalResult,
    SweepState,
    _record_fills,
    bca_components,
    bca_interval,
    jackknife_tables,
    resamples,
)
from mseboot.core import CountTable
from mseboot.existence import ExistenceCache
from mseboot.glm import (
    ChisqResult,
    FitSettings,
    NoModelFoundError,
    fit_groups,
    pearson_chisq,
)
from mseboot.modelspace import ModelSpace, bic_ranks, rank_order


def _support_groups(tables):
    groups = {}
    for i, table in enumerate(tables):
        groups.setdefault(tuple(table.counts), []).append(i)
    return list(groups.values())


def _evaluate_models(models, tables, cache, settings):
    bics = np.full((len(tables), len(models)), np.inf)
    ests = np.full((len(tables), len(models)), np.nan)
    pairs = [(rows, j) for rows in _support_groups(tables) for j in range(len(models))]
    fitted = fit_groups(
        [(models[j], [tables[i] for i in rows]) for rows, j in pairs], settings, cache
    )
    for (rows, j), results in zip(pairs, fitted):
        for i, res in zip(rows, results):
            if res.converged:
                bics[i, j] = res.bic
                ests[i, j] = res.population_estimate
    return bics, ests


def _select_from_eval(bics, ests):
    j = int(np.argmin(bics))
    if math.isinf(bics[j]):
        return None
    return float(ests[j])


def original_fits(table, space, cache, settings):
    fits = [r for [r] in fit_groups([(m, [table]) for m in space], settings, cache)]
    bics = np.array([f.bic for f in fits])
    ests = np.array(
        [f.population_estimate if f.converged else np.nan for f in fits]
    )
    return bics, ests, fits


def space_ordering(space, bics, degree=1):
    return rank_order(space, bic_ranks(space, bics, K=degree), degree)


def oracle_restricted_bootstrap(
    table: CountTable,
    space: ModelSpace,
    B: int = DEFAULT_B,
    n_top: int | None = None,
    levels: Sequence[float] = DEFAULT_LEVELS,
    seed: int = 0,
    degree: int = 1,
    settings: FitSettings = FitSettings(),
    cache: ExistenceCache | None = None,
) -> IntervalResult:
    if B < 1:
        raise ValueError("need at least one bootstrap replication")
    cache = cache if cache is not None else ExistenceCache()
    bics, _, fits = original_fits(table, space, cache, settings)
    ordering = space_ordering(space, bics, degree)
    best = fits[ordering[0]]
    if not best.converged:
        raise NoModelFoundError("no model has a finite BIC on the original data")
    m_hat = best.population_estimate
    if n_top is None:
        n_top = len(space)
    n_top = min(n_top, len(space))
    if n_top < 1:
        raise ValueError("n_top must be at least 1")
    top_models = [space.models[i] for i in ordering[:n_top]]

    def selected(tables):
        bics, ests = _evaluate_models(top_models, tables, cache, settings)
        return [_select_from_eval(b, e) for b, e in zip(bics, ests)]

    boot = selected(resamples(table, seed, B))
    jack_masks, jack_tables = zip(*jackknife_tables(table))
    jack = list(zip(jack_masks, selected(jack_tables)))
    comps = bca_components(boot, jack, table, m_hat)
    return IntervalResult(
        point_estimate=m_hat,
        intervals=bca_interval(comps, m_hat, levels),
        method="degree2" if degree == 2 else "bic",
        B=B,
        seed=seed,
        n_top=n_top,
        selected_model=best.model.notation(),
        z0_hat=comps.z0_hat,
        a_hat=comps.a_hat,
        excluded_boot=comps.excluded_boot,
        excluded_jack=comps.excluded_jack,
        flags=comps.flags,
    )


def _estimate_columns(filled):
    cells = filled.astype(object)
    cells[~np.isfinite(filled)] = None
    return cells.T.tolist()


def oracle_ntop_sweep(
    table: CountTable,
    space: ModelSpace,
    B: int = DEFAULT_B,
    n_top_high: int | None = None,
    levels: Sequence[float] = DEFAULT_LEVELS,
    seed: int = 0,
    degree: int = 1,
    settings: FitSettings = FitSettings(),
    cache: ExistenceCache | None = None,
) -> tuple[SweepState, dict[int, IntervalResult]]:
    if B < 1:
        raise ValueError("need at least one bootstrap replication")
    cache = cache if cache is not None else ExistenceCache()
    bics0, _, fits = original_fits(table, space, cache, settings)
    ordering = space_ordering(space, bics0, degree)
    best = fits[ordering[0]]
    if not best.converged:
        raise NoModelFoundError("no model has a finite BIC on the original data")
    m_hat = best.population_estimate
    if n_top_high is None:
        n_top_high = len(space)
    n_top_high = min(n_top_high, len(space))
    top_models = [space.models[i] for i in ordering[:n_top_high]]

    reps = resamples(table, seed, B)
    bic_array, est_array = _evaluate_models(top_models, reps, cache, settings)
    filled_boot = _record_fills(bic_array, est_array)

    jack_masks, jack_tables = zip(*jackknife_tables(table))
    jack_bics, jack_ests = _evaluate_models(top_models, jack_tables, cache, settings)
    filled_jack = _record_fills(jack_bics, jack_ests)

    state = SweepState(bic_array, est_array, filled_boot)
    boot_columns = _estimate_columns(filled_boot)
    jack_columns = _estimate_columns(filled_jack)
    results = {}
    for n_top in range(1, n_top_high + 1):
        boot = boot_columns[n_top - 1]
        jack = list(zip(jack_masks, jack_columns[n_top - 1]))
        comps = bca_components(boot, jack, table, m_hat)
        results[n_top] = IntervalResult(
            point_estimate=m_hat,
            intervals=bca_interval(comps, m_hat, levels),
            method="sweep",
            B=B,
            seed=seed,
            n_top=n_top,
            selected_model=best.model.notation(),
            z0_hat=comps.z0_hat,
            a_hat=comps.a_hat,
            excluded_boot=comps.excluded_boot,
            excluded_jack=comps.excluded_jack,
            flags=comps.flags,
        )
    return state, results


def _select_by_chisq(candidates, table, p_lo, p_hi, cache, settings):
    from scipy import special

    best = None
    for [res] in fit_groups([(m, [table]) for m in candidates], settings, cache):
        if not res.converged:
            continue
        stat, df = pearson_chisq(res, table)
        if df <= 0:
            continue
        p = float(special.chdtrc(df, stat))
        if not p_lo <= p <= p_hi:
            continue
        cand = ChisqResult(res.model, res, stat, df, p)
        if best is None or cand.ratio < best.ratio:
            best = cand
    return best


def oracle_chisq_bootstrap(
    table: CountTable,
    space: ModelSpace,
    B: int = DEFAULT_B,
    levels: Sequence[float] = DEFAULT_LEVELS,
    seed: int = 0,
    p_lo: float = 0.05,
    p_hi: float = 0.3,
    settings: FitSettings = FitSettings(),
    cache: ExistenceCache | None = None,
) -> IntervalResult:
    if B < 1:
        raise ValueError("need at least one bootstrap replication")
    cache = cache if cache is not None else ExistenceCache()

    def select(t: CountTable) -> ChisqResult | None:
        return _select_by_chisq(space.models, t, p_lo, p_hi, cache, settings)

    def estimate(t: CountTable) -> float | None:
        res = select(t)
        return None if res is None else res.fit.population_estimate

    chosen = select(table)
    if chosen is None:
        raise NoModelFoundError(
            "no model falls in the requested p-value window on the original data"
        )
    m_hat = chosen.fit.population_estimate

    boot = [estimate(t) for t in resamples(table, seed, B)]
    jack = [(mask, estimate(jt)) for mask, jt in jackknife_tables(table)]
    comps = bca_components(boot, jack, table, m_hat)
    flags = comps.flags + (("replicates_excluded",) if comps.excluded_boot else ())
    return IntervalResult(
        point_estimate=m_hat,
        intervals=bca_interval(comps, m_hat, levels),
        method="chisq",
        B=B,
        seed=seed,
        selected_model=chosen.model.notation(),
        z0_hat=comps.z0_hat,
        a_hat=comps.a_hat,
        excluded_boot=comps.excluded_boot,
        excluded_jack=comps.excluded_jack,
        flags=flags,
    )


def oracle_diagnostics(
    table: CountTable,
    space: ModelSpace,
    B: int = DEFAULT_B,
    seed: int = 0,
    ntop_grid: Sequence[int] = (1, 5, 10, 50, 100),
    settings: FitSettings = FitSettings(),
    cache: ExistenceCache | None = None,
) -> DiagnosticsReport:
    from scipy import stats

    cache = cache if cache is not None else ExistenceCache()
    bics0, _, _ = original_fits(table, space, cache, settings)
    if not np.isfinite(bics0).any():
        raise NoModelFoundError("no model has a finite BIC on the original data")
    ranks = bic_ranks(space, bics0, K=2)
    order1 = rank_order(space, ranks, 1)
    order2 = rank_order(space, ranks, 2)
    pos1 = {j: p + 1 for p, j in enumerate(order1)}
    pos2 = {j: p + 1 for p, j in enumerate(order2)}

    reps = resamples(table, seed, B)
    rep_bics, _ = _evaluate_models(space.models, reps, cache, settings)

    def one(bics):
        both = np.isfinite(bics0) & np.isfinite(bics)
        rho = None
        if both.sum() >= 3:
            rho = float(stats.spearmanr(bics0[both], bics[both]).statistic)
        j = int(np.argmin(bics))
        if math.isinf(bics[j]):
            return rho, None
        return rho, j

    outcomes = [one(bics) for bics in rep_bics]
    rhos = tuple(r for r, _ in outcomes if r is not None)
    winners = [j for _, j in outcomes if j is not None]
    m1 = tuple(pos1[j] for j in winners)
    m2 = tuple(pos2[j] for j in winners)
    containment = {
        n: sum(1 for p in m1 if p <= n)
        for n in sorted({min(n, len(space)) for n in ntop_grid})
    }
    return DiagnosticsReport(
        rho=rhos,
        mean_rho=float(np.mean(rhos)) if rhos else math.nan,
        rho_undefined=B - len(rhos),
        containment=containment,
        m1=m1,
        m2=m2,
        B=B,
        excluded=B - len(winners),
    )
