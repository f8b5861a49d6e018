"""Frozen sequential greedy search: the oracle for the lockstep descent.

This is the sequential greedy search and ``bootstrap._downhill_estimate``
as they stood before the searches of many tables advanced together
(``modelspace.downhill_lockstep``): one table at a time, one start after
another, every model fitted alone by ``fit_pairs`` on a one-pair list,
which checks existence first.  It is kept unchanged on purpose but for
that call; the lockstep search must select the same model with the same
BIC and estimate, and fit the same (table, model) pairs.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from mseboot.core import CountTable, ModelSpec
from mseboot.existence import ExistenceCache
from mseboot.glm import FitResult, FitSettings, fit_pairs
from mseboot.modelspace import neighbors


def oracle_downhill_search(
    start: ModelSpec,
    l: int,
    fitter: Callable[[ModelSpec], float],
    fit_cache: dict[frozenset[int], float] | None = None,
) -> tuple[ModelSpec, float] | None:
    cache = fit_cache if fit_cache is not None else {}

    def evaluate(model: ModelSpec) -> float:
        key = model.params
        if key not in cache:
            cache[key] = fitter(model)
        return cache[key]

    current, current_bic = start, evaluate(start)
    while True:
        best_n, best_bic = None, math.inf
        for cand in neighbors(current, l):
            b = evaluate(cand)
            if b < best_bic:
                best_n, best_bic = cand, b
        if best_n is not None and best_bic < current_bic:
            current, current_bic = best_n, best_bic
        else:
            break
    if math.isinf(current_bic):
        return None
    return current, current_bic


def oracle_best_over_starts(
    starts: Sequence[ModelSpec],
    l: int,
    fitter: Callable[[ModelSpec], float],
) -> tuple[ModelSpec, float] | None:
    """Best local minimum over the starts, searched one after another."""
    shared: dict[frozenset[int], float] = {}
    best: tuple[ModelSpec, float] | None = None
    for start in starts:
        found = oracle_downhill_search(start, l, fitter, fit_cache=shared)
        if found is not None and (best is None or found[1] < best[1]):
            best = found
    return best


def oracle_downhill_estimate(
    table: CountTable,
    l: int,
    starts: Sequence[ModelSpec],
    cache: ExistenceCache,
    settings: FitSettings = FitSettings(),
    fitted: set[frozenset[int]] | None = None,
) -> tuple[ModelSpec, float, float] | None:
    """(model, BIC, estimate) of the best local minimum over the starts.

    ``fitted`` receives every model that passed the existence check and
    was therefore fitted to ``table``.
    """
    fits: dict[frozenset[int], FitResult] = {}

    def bic_of(model: ModelSpec) -> float:
        [res] = fit_pairs([(model, table)], settings, cache)
        fits[model.params] = res
        if fitted is not None and res.status != "fr_failed":
            fitted.add(model.params)
        return res.bic

    best = oracle_best_over_starts(starts, l, bic_of)
    if best is None:
        return None
    res = fits[best[0].params]
    return best[0], res.bic, res.population_estimate
