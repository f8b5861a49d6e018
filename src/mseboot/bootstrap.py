"""Bootstrap and jackknife inference for the selected-model population size.

Replicates are multinomial resamples of the observed table; the interval
construction is bias-corrected and accelerated, with the acceleration
obtained from a weighted jackknife over the positive cells.  Model
selection is repeated inside every replicate, optionally restricted to
the models ranking best on the original data, searched greedily, or
filtered by a goodness-of-fit window.

Every driver has one shape.  ``_start`` checks B and the seed and
supplies the existence cache, all before any fit.  The rule then
selects on the original table, on all resamples and on all jackknife
tables, and ``_intervals`` turns each column of replicate estimates into
an ``IntervalResult``.  Restricting selection to the top n models of the
original data's ranking is column n of the sweep over n: ``_ranked``
fits the top models once and reads off the columns it is asked for,
all of them for ``ntop_sweep`` and one for ``restricted_bootstrap``.

Determinism: replicate i draws its resample from its own generator,
``PCG64(SeedSequence([seed, i]))`` (``replicate_rng`` is the reference
definition).  ``resamples`` computes that ``SeedSequence`` hash for all
replicates in one array pass (``_seedseq``) and seeds each replicate's
fresh ``PCG64`` from its row, so the draws are the same.  Resamples are
drawn in replicate order, then grouped by ``CountTable.support``, and
each model is checked and fitted once per group; the groups of all
models are fitted together, one IRLS run per stack of equal design shape
(``glm.fit_groups``).  Every replicate still gets exactly the estimate a
fit of that table alone gives.  Jackknife tables are grouped the same
way, and the goodness-of-fit rule fits its tables the same way, in
slices of ``CHISQ_SLICE`` tables.  The greedy search
does the same round by round: the searches of the original table, all
replicates and all jackknife tables take one step together, and the
models the round needs are checked and fitted once per (model, support).

The normal CDF and its inverse in the BCa endpoints come from
``_cephes``, which gives the doubles ``scipy.special.ndtr`` and
``ndtri`` give without importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._cephes import ndtr, ndtri
from ._seedseq import generate_states
from .core import CountTable, ModelSpec
from .existence import ExistenceCache
from .glm import (
    ChisqResult,
    FitResult,
    FitSettings,
    NoModelFoundError,
    check_p_window,
    chisq_choice,
    fit_groups,
)
from .modelspace import (
    ModelSpace,
    bic_ranks,
    downhill_lockstep,
    rank_order,
)

DEFAULT_LEVELS = (0.8, 0.95)
DEFAULT_B = 1000
# most resamples or jackknife tables ``chisq_bootstrap`` selects on at
# once: every fit of a slice is held until the slice's choices are made,
# so a slice bounds the memory that would otherwise grow with B x models
CHISQ_SLICE = 128


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replicate: the reference definition
    of what replicate ``index`` draws (``resamples`` draws the same)."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def resample(table: CountTable, rng: np.random.Generator) -> CountTable:
    """Multinomial resample: same number of cases, probabilities from counts.

    The resample lists its cells in the order of ``table.counts``, so a
    canonical table gives a canonical resample, built without checking
    or sorting it again; any other goes through ``CountTable.from_counts``.
    A resample that keeps every positive cell of ``table`` shares its
    ``support`` object.
    """
    if table.n_total == 0:
        raise ValueError("cannot resample an empty table")
    draw = rng.multinomial(table.n_total, table.cell_probabilities).tolist()
    counts = {m: k for m, k in zip(table.counts, draw) if k}
    if table.canonical:
        rep = CountTable(table.t, counts)
    else:
        rep = CountTable.from_counts(table.t, counts)
    if len(counts) == len(table.support):
        # only positive cells can draw a case, so this is the source's
        # support: one frozenset for all such resamples instead of one
        # each (the cached property's slot; the dataclass is frozen)
        rep.__dict__["support"] = table.support
    return rep


class _ReplicateSeed:
    """Stands in for ``SeedSequence([seed, i])`` when a ``PCG64`` seeds
    itself from it: ``generate_state(4, np.uint64)`` returns the words
    that sequence would, computed beforehand for all replicates at once.
    Registered as numpy's ``ISeedSequence`` at the first draw.
    """

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a replicate seed holds exactly four uint64 words")
        return self.state


def resamples(table: CountTable, seed: int, B: int) -> list[CountTable]:
    """``[resample(table, replicate_rng(seed, i)) for i in range(B)]``.

    The ``SeedSequence`` hash of all B replicates is one array pass
    (``_seedseq.generate_states``); each replicate's fresh ``PCG64`` seeds
    itself from its row of that hash, so it draws what ``replicate_rng``
    gives.  ``resample`` is still called once per replicate.
    """
    # imported at the first draw, not with the package: numpy.random
    # would add to every start-up
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_ReplicateSeed)
    return [
        resample(table, Generator(PCG64(_ReplicateSeed(state))))
        for state in generate_states(seed, np.arange(B))
    ]


def jackknife_tables(table: CountTable) -> list[tuple[int, CountTable]]:
    """One table per positive cell, with that cell's count lowered by one."""
    out = []
    for mask in table.counts:
        counts = dict(table.counts)
        counts[mask] -= 1
        out.append((mask, CountTable.from_counts(table.t, counts)))
    return out


@dataclass(frozen=True)
class BcaComponents:
    """Everything the BCa endpoint formula needs."""

    boot_estimates: tuple[float, ...]  # finite, replicate order
    jackknife_estimates: dict[int, float]
    jackknife_mean: float
    s2: float
    s3: float
    z0_hat: float
    a_hat: float
    excluded_boot: int
    excluded_jack: int
    flags: tuple[str, ...] = ()


def bca_components(
    boot: Sequence[float | None],
    jack: Iterable[tuple[int, float | None]],
    table: CountTable,
    m_hat: float,
) -> BcaComponents:
    """Assemble bias-correction and acceleration from replicate estimates.

    ``None`` entries (replicates with no estimable model) are dropped and
    counted.  Jackknife estimates are weighted by the cell counts.
    """
    flags: list[str] = []
    kept = [b for b in boot if b is not None and math.isfinite(b)]
    excluded_boot = len(boot) - len(kept)
    if not kept:
        raise NoModelFoundError("every bootstrap replicate was excluded")
    n_below = sum(1 for b in kept if b < m_hat)
    prop = n_below / len(kept)
    lo, hi = 1.0 / (len(kept) + 1), len(kept) / (len(kept) + 1)
    if prop <= 0.0 or prop >= 1.0:
        prop = min(max(prop, lo), hi)
        flags.append("z0_clamped")
    z0 = ndtri(prop)

    jack_kept: dict[int, float] = {}
    excluded_jack = 0
    for mask, est in jack:
        if est is None or not math.isfinite(est):
            excluded_jack += 1
        else:
            jack_kept[mask] = est
    if not jack_kept:
        raise NoModelFoundError("every jackknife replicate was excluded")
    weights = {mask: table.count(mask) for mask in jack_kept}
    w_sum = sum(weights.values())
    mean = sum(weights[m] * e for m, e in jack_kept.items()) / w_sum
    s2 = sum(weights[m] * (mean - e) ** 2 for m, e in jack_kept.items())
    s3 = sum(weights[m] * (mean - e) ** 3 for m, e in jack_kept.items())
    if s2 > 0:
        a_hat = s3 / (6.0 * s2**1.5)
    else:
        a_hat = 0.0
        flags.append("zero_jackknife_variance")
    return BcaComponents(
        boot_estimates=tuple(kept),
        jackknife_estimates=jack_kept,
        jackknife_mean=mean,
        s2=s2,
        s3=s3,
        z0_hat=z0,
        a_hat=a_hat,
        excluded_boot=excluded_boot,
        excluded_jack=excluded_jack,
        flags=tuple(flags),
    )


def adjusted_level(z0: float, a: float, beta: float) -> float | None:
    """One-sided level after bias correction and acceleration.

    Returns None when the denominator is not positive, in which case the
    endpoint degenerates to an extreme order statistic.
    """
    zb = ndtri(beta)
    denom = 1.0 - a * (z0 + zb)
    if denom <= 0.0:
        return None
    return ndtr(z0 + (z0 + zb) / denom)


def _quantile(sorted_boot: np.ndarray, beta_tilde: float) -> float:
    """Empirical quantile: the ceil(level * B)-th order statistic."""
    n = len(sorted_boot)
    k = min(max(math.ceil(beta_tilde * n), 1), n)
    return float(sorted_boot[k - 1])


@dataclass(frozen=True)
class IntervalResult:
    """Point estimate plus BCa intervals and run diagnostics."""

    point_estimate: float
    intervals: dict[float, tuple[float, float]]
    method: str
    B: int
    seed: int | None
    n_top: int | None = None
    selected_model: str | None = None
    z0_hat: float = math.nan
    a_hat: float = math.nan
    excluded_boot: int = 0
    excluded_jack: int = 0
    flags: tuple[str, ...] = ()


def bca_interval(
    components: BcaComponents,
    m_hat: float,
    levels: Sequence[float] = DEFAULT_LEVELS,
) -> dict[float, tuple[float, float]]:
    """Two-sided BCa intervals at each confidence level."""
    sorted_boot = np.sort(components.boot_estimates)
    out: dict[float, tuple[float, float]] = {}
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError(f"confidence level must be in (0,1), got {level}")
        alpha = 1.0 - level
        ends = []
        for beta in (alpha / 2.0, 1.0 - alpha / 2.0):
            bt = adjusted_level(components.z0_hat, components.a_hat, beta)
            if bt is None:
                # the adjustment pushed past the sample range
                zb = ndtri(beta)
                ends.append(
                    float(sorted_boot[-1])
                    if components.z0_hat + zb > 0
                    else float(sorted_boot[0])
                )
            else:
                ends.append(_quantile(sorted_boot, bt))
        lo, hi = min(ends), max(ends)
        out[level] = (lo, hi)
    return out


# ---------------------------------------------------------------------------
# The parts every driver shares
# ---------------------------------------------------------------------------


def _start(B: int, seed: int, cache: ExistenceCache | None) -> ExistenceCache:
    """Reject B < 1 and a negative seed (which ``SeedSequence`` refuses)
    before any fit; return ``cache``, or a fresh cache when it is None."""
    if B < 1:
        raise ValueError("need at least one bootstrap replication")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return cache if cache is not None else ExistenceCache()


def _intervals(
    table: CountTable,
    m_hat: float,
    jack_masks: Sequence[int],
    columns: Iterable[tuple[int | None, Sequence[float | None], Sequence[float | None]]],
    levels: Sequence[float],
    flag_exclusions: bool = False,
    **fields,
) -> list[IntervalResult]:
    """One ``IntervalResult`` per column of replicate estimates.

    A column is (n_top, bootstrap estimates, jackknife estimates in the
    order of ``jack_masks``); ``bca_components`` excludes the replicates
    whose estimate is None or not finite.
    ``fields`` are the results' method, B, seed and selected model.  With
    ``flag_exclusions`` a column that excluded a bootstrap replicate is
    flagged ``replicates_excluded``.
    """
    results = []
    for n_top, boot, jack in columns:
        comps = bca_components(boot, list(zip(jack_masks, jack)), table, m_hat)
        excluded = flag_exclusions and comps.excluded_boot > 0
        results.append(IntervalResult(
            point_estimate=m_hat,
            intervals=bca_interval(comps, m_hat, levels),
            n_top=n_top,
            z0_hat=comps.z0_hat,
            a_hat=comps.a_hat,
            excluded_boot=comps.excluded_boot,
            excluded_jack=comps.excluded_jack,
            flags=comps.flags + (("replicates_excluded",) if excluded else ()),
            **fields,
        ))
    return results


def _group_fits(
    models: Sequence[ModelSpec],
    tables: Sequence[CountTable],
    cache: ExistenceCache,
    settings: FitSettings,
) -> Iterator[tuple[tuple[list[int], int], list[FitResult]]]:
    """((table indices, model index), their fits) for every (support, model)
    group: supports in order of first use, models in order within each,
    so each table meets its models in order.  A group whose MLE does not
    exist has ``fr_failed`` fits.

    Tables are grouped by ``CountTable.support``.  The existence verdict
    and the reduction depend only on the support, so they are made once
    per (model, support): one ``fit_groups`` call checks all groups and
    fits those that pass, stacking the groups of equal design shape.
    """
    supports: dict[frozenset[int], list[int]] = {}
    for i, table in enumerate(tables):
        supports.setdefault(table.support, []).append(i)
    pairs = [(rows, j) for rows in supports.values() for j in range(len(models))]
    fitted = fit_groups(
        [(models[j], [tables[i] for i in rows]) for rows, j in pairs], settings, cache
    )
    return zip(pairs, fitted)


def _evaluate_models(
    models: Sequence[ModelSpec],
    tables: Sequence[CountTable],
    cache: ExistenceCache,
    settings: FitSettings,
) -> tuple[np.ndarray, np.ndarray]:
    """(BIC, population estimate) arrays of shape (tables, models); inf/nan
    where not estimable."""
    bics = np.full((len(tables), len(models)), np.inf)
    ests = np.full((len(tables), len(models)), np.nan)
    for (group, j), results in _group_fits(models, tables, cache, settings):
        for i, res in zip(group, results):
            if res.converged:
                bics[i, j] = res.bic
                ests[i, j] = res.population_estimate
    return bics, ests


# ---------------------------------------------------------------------------
# Restriction to the top-ranked models, for one size or a sweep of sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepState:
    """Per-replicate model evaluations for the restriction-size sweep."""

    bic_array: np.ndarray  # (B, n_top_high)
    estimate_array: np.ndarray
    filled_estimates: np.ndarray  # (B, n_top_high)


def _record_fills(bics: np.ndarray, ests: np.ndarray) -> np.ndarray:
    """Per-restriction estimates of every row, from its record values.

    A row's records are the positions whose BIC is below every earlier
    one (finite BICs only; the others are +inf).  Entry (i, n - 1) of
    the filled array is the estimate at row i's last record within its
    first n models, which is their BIC minimum with ties to the earliest,
    and NaN while that minimum is infinite.
    """
    n_cols = bics.shape[1]
    below = np.empty(bics.shape, dtype=bool)
    below[:, 0] = bics[:, 0] < np.inf
    below[:, 1:] = bics[:, 1:] < np.minimum.accumulate(bics, axis=1)[:, :-1]
    last = np.maximum.accumulate(np.where(below, np.arange(n_cols), -1), axis=1)
    picked = np.take_along_axis(ests, np.maximum(last, 0), axis=1)
    return np.where(last >= 0, picked, np.nan)


def _ranked(
    table: CountTable,
    space: ModelSpace,
    B: int,
    sizes: Sequence[int],
    levels: Sequence[float],
    seed: int,
    degree: int,
    method: str,
    settings: FitSettings,
    cache: ExistenceCache | None,
) -> tuple[SweepState, list[IntervalResult]]:
    """The bootstrap with each replicate's selection restricted to the top
    n models of the original data's ranking, for each n in ``sizes``
    (none above the size of the space).

    The space is fitted on the original table, and the top ``max(sizes)``
    models on every resample and every jackknife table.  The restriction
    to the top n reads column n of the record fills, and BCa runs only
    for the sizes asked for.
    """
    cache = _start(B, seed, cache)
    if min(sizes, default=0) < 1:
        raise ValueError("n_top must be at least 1")
    (bics,), (ests,) = _evaluate_models(space.models, [table], cache, settings)
    ordering = rank_order(space, bic_ranks(space, bics, K=degree), degree)
    m_hat = float(ests[ordering[0]])
    if math.isnan(m_hat):
        raise NoModelFoundError("no model has a finite BIC on the original data")
    top_models = [space.models[i] for i in ordering[: max(sizes)]]

    bic_array, est_array = _evaluate_models(
        top_models, resamples(table, seed, B), cache, settings
    )
    filled_boot = _record_fills(bic_array, est_array)
    jack_masks, jack_tables = zip(*jackknife_tables(table))
    filled_jack = _record_fills(
        *_evaluate_models(top_models, jack_tables, cache, settings)
    )

    # NaN marks an excluded replicate, as None does
    picked = [n - 1 for n in sizes]
    results = _intervals(
        table, m_hat, jack_masks,
        zip(sizes, filled_boot[:, picked].T.tolist(), filled_jack[:, picked].T.tolist()),
        levels,
        method=method, B=B, seed=seed,
        selected_model=space.models[ordering[0]].notation(),
    )
    return SweepState(bic_array, est_array, filled_boot), results


def restricted_bootstrap(
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
    """Bootstrap with per-replicate selection restricted to the models
    ranking best on the original data; ``n_top=None`` considers them all.
    This is column ``n_top`` of ``ntop_sweep``.
    """
    n_top = len(space) if n_top is None else min(n_top, len(space))
    method = "degree2" if degree == 2 else "bic"
    _, (result,) = _ranked(
        table, space, B, [n_top], levels, seed, degree, method, settings, cache
    )
    return result


def ntop_sweep(
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
    """Intervals for every restriction size up to ``n_top_high`` from a
    single pass of model evaluations per replicate.
    """
    n_high = len(space) if n_top_high is None else min(n_top_high, len(space))
    sizes = range(1, n_high + 1)
    state, results = _ranked(
        table, space, B, sizes, levels, seed, degree, "sweep", settings, cache
    )
    return state, dict(zip(sizes, results))


# ---------------------------------------------------------------------------
# Greedy-search and goodness-of-fit-window variants
# ---------------------------------------------------------------------------


def _downhill_selected(
    tables: Sequence[CountTable],
    l: int,
    starts: Sequence[ModelSpec],
    cache: ExistenceCache,
    settings: FitSettings,
) -> list[tuple[ModelSpec, float, float] | None]:
    """(model, BIC, estimate) of the best local BIC minimum over the starts,
    per table, or None.

    The searches of all tables advance in lockstep.  Each round's models
    are grouped by (model, support), and one ``fit_groups`` call checks
    existence once per group, for all of the round's groups, and fits the
    groups that pass.
    """
    estimates: list[dict[frozenset[int], float]] = [{} for _ in tables]

    def evaluate(pairs: list[tuple[int, ModelSpec]]) -> list[float]:
        bics = [math.inf] * len(pairs)
        groups: dict[tuple[frozenset[int], frozenset[int]], list[int]] = {}
        for n, (i, model) in enumerate(pairs):
            groups.setdefault((model.params, tables[i].support), []).append(n)
        fitted = fit_groups(
            [(pairs[rows[0]][1], [tables[pairs[n][0]] for n in rows])
             for rows in groups.values()],
            settings, cache,
        )
        for rows, results in zip(groups.values(), fitted):
            model = pairs[rows[0]][1]
            for n, res in zip(rows, results):
                if res.converged:
                    bics[n] = res.bic
                    estimates[pairs[n][0]][model.params] = res.population_estimate
        return bics

    found = downhill_lockstep(len(tables), starts, l, evaluate)
    return [
        None if f is None else (f[0], f[1], estimates[i][f[0].params])
        for i, f in enumerate(found)
    ]


def downhill_bootstrap(
    table: CountTable,
    l: int | None = None,
    B: int = DEFAULT_B,
    levels: Sequence[float] = DEFAULT_LEVELS,
    seed: int = 0,
    starts: Sequence[ModelSpec] | None = None,
    settings: FitSettings = FitSettings(),
    cache: ExistenceCache | None = None,
) -> IntervalResult:
    """Bootstrap where each replicate's model is found by greedy descent
    from the null model (and any extra starts) instead of full selection.

    The original table, the B resamples and the jackknife tables are
    searched together in one lockstep search: every search takes one
    step per round, and the models a round needs are fitted once per
    (model, support) for every table sharing that support.  Each table's
    search reads only its own BICs, so the result is the one three
    separate searches give.  Raises ``ModelSpaceError`` before any fit
    when ``l`` is outside 1..t-1, and ``NoModelFoundError`` once the
    search ends when the original table has no model with finite BIC.
    """
    cache = _start(B, seed, cache)
    if l is None:
        l = table.t - 1
    if starts is None:
        starts = [ModelSpec.null_model(table.t)]

    reps = resamples(table, seed, B)
    jack_masks, jack_tables = zip(*jackknife_tables(table))
    found = _downhill_selected([table, *reps, *jack_tables], l, starts, cache, settings)
    if found[0] is None:
        raise NoModelFoundError("greedy search found no model with finite BIC")
    best_model, _, m_hat = found[0]
    estimates = [None if f is None else f[2] for f in found[1:]]
    (result,) = _intervals(
        table, m_hat, jack_masks, [(None, estimates[:B], estimates[B:])], levels,
        method="downhill", B=B, seed=seed, selected_model=best_model.notation(),
    )
    return result


def chisq_bootstrap(
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
    """Bootstrap of the goodness-of-fit-window selection rule.

    Replicates where no model falls in the p-value window are excluded
    and counted; the resulting interval therefore carries a validity
    caveat (the exclusions are reported, not imputed).  The original
    table, and the resamples and the jackknife tables in slices of
    ``CHISQ_SLICE`` tables, are each selected on by one grouped check and
    fit of the space (``_group_fits``), and ``glm.chisq_choice`` picks
    each table's model from its fits.  A fit depends only on its table,
    so the slicing does not change a bit of the result.
    """
    cache = _start(B, seed, cache)
    check_p_window(p_lo, p_hi)

    def select(tables: Sequence[CountTable]) -> list[ChisqResult | None]:
        fits: list[list[FitResult]] = [[] for _ in tables]
        for (group, _), results in _group_fits(space.models, tables, cache, settings):
            for i, res in zip(group, results):
                fits[i].append(res)
        # each table's fits are let go once its choice is made: the Pearson
        # statistics build every fit's alpha and mu
        fits.reverse()
        return [chisq_choice(fits.pop(), t, p_lo, p_hi) for t in tables]

    def estimates(tables: Sequence[CountTable]) -> list[float | None]:
        return [
            None if c is None else c.fit.population_estimate
            for first in range(0, len(tables), CHISQ_SLICE)
            for c in select(tables[first:first + CHISQ_SLICE])
        ]

    (chosen,) = select([table])
    if chosen is None:
        raise NoModelFoundError(
            "no model falls in the requested p-value window on the original data"
        )
    m_hat = chosen.fit.population_estimate
    assert m_hat is not None

    boot = estimates(resamples(table, seed, B))
    jack_masks, jack_tables = zip(*jackknife_tables(table))
    (result,) = _intervals(
        table, m_hat, jack_masks, [(None, boot, estimates(jack_tables))], levels,
        flag_exclusions=True,
        method="chisq", B=B, seed=seed, selected_model=chosen.model.notation(),
    )
    return result


# ---------------------------------------------------------------------------
# Diagnostics on the full-space bootstrap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsReport:
    """How well original-data model ranks predict replicate selections."""

    rho: tuple[float, ...]
    mean_rho: float
    rho_undefined: int
    containment: dict[int, int]
    m1: tuple[int, ...]
    m2: tuple[int, ...]
    B: int
    excluded: int


def diagnostics(
    table: CountTable,
    space: ModelSpace,
    B: int = DEFAULT_B,
    seed: int = 0,
    ntop_grid: Sequence[int] = (1, 5, 10, 50, 100),
    settings: FitSettings = FitSettings(),
    cache: ExistenceCache | None = None,
) -> DiagnosticsReport:
    """Rank agreement between original and replicate BIC values.

    For each replicate: the Spearman correlation over models where both
    fits exist, and the position of the replicate's best model in the
    degree-1 and degree-2 orderings of the original data.  A B below 1,
    a negative seed or a ``ntop_grid`` entry below 1 is rejected before
    any fit.
    """
    cache = _start(B, seed, cache)
    if min(ntop_grid, default=1) < 1:
        raise ValueError(
            f"ntop_grid entries must be at least 1, got {', '.join(map(str, ntop_grid))}"
        )
    # imported here: scipy.stats is a large share of the package's import
    # time and memory, and nothing else needs it
    from scipy import stats

    (bics0,), _ = _evaluate_models(space.models, [table], cache, settings)
    if not np.isfinite(bics0).any():
        raise NoModelFoundError("no model has a finite BIC on the original data")
    ranks = bic_ranks(space, bics0, K=2)
    order1 = rank_order(space, ranks, 1)
    order2 = rank_order(space, ranks, 2)
    pos1 = {j: p + 1 for p, j in enumerate(order1)}
    pos2 = {j: p + 1 for p, j in enumerate(order2)}

    reps = resamples(table, seed, B)
    rep_bics, _ = _evaluate_models(space.models, reps, cache, settings)

    def one(bics: np.ndarray) -> tuple[float | None, int | None]:
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
