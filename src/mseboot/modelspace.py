"""Hierarchical model lattice: enumeration, neighbours, ranks, greedy search.

A hierarchical model is determined by its parameters of order >= 2 (the
empty history and main effects are always present), which must form a
down-set in the subset lattice.  Enumeration walks that lattice in
canonical order so output is reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import ModelSpec, canonical_key, order, subsets

# most models an enumeration may produce: above the 32,768 of t=6, l=2,
# and reached within seconds, so that a space too large to search fails
# with an error instead of running for hours (t=6, l=5 has millions).
# Read at each call
DEFAULT_SAFETY_LIMIT = 40_000


class ModelSpaceError(Exception):
    pass


def _higher_terms(t: int, l: int) -> list[int]:
    """All masks of order 2..l over t lists, in canonical order."""
    return sorted(
        (m for m in range(1 << t) if 2 <= order(m) <= l),
        key=canonical_key,
    )


def check_max_order(t: int, l: int) -> None:
    """Raise ``ModelSpaceError`` unless 1 <= l <= t - 1."""
    if not 1 <= l <= t - 1:
        raise ModelSpaceError(f"maximum order must be in 1..t-1, got l={l}")


def _immediate_subs(mask: int) -> list[int]:
    """Order-(k-1) subsets of a mask of order k."""
    return [mask & ~(1 << i) for i in range(mask.bit_length()) if mask >> i & 1]


@dataclass(frozen=True)
class ModelSpace:
    """All hierarchical models on t lists with parameter order <= l."""

    t: int
    l: int
    models: tuple[ModelSpec, ...]

    def __len__(self) -> int:
        return len(self.models)

    def __iter__(self) -> Iterator[ModelSpec]:
        return iter(self.models)

    def index_of(self, model: ModelSpec) -> int:
        return self._index[model.params]

    @property
    def _index(self) -> dict[frozenset[int], int]:
        d = self.__dict__.get("_index_cache")
        if d is None:
            d = {m.params: i for i, m in enumerate(self.models)}
            self.__dict__["_index_cache"] = d
        return d


def _iter_downsets(elems: list[int]) -> Iterator[frozenset[int]]:
    """Down-sets of the order->=2 term poset, via include/exclude DFS.

    Elements are processed in canonical order, so every immediate subset
    of a term precedes it and membership can be checked incrementally.
    Each down-set is produced exactly once, the exclude branch of every
    element before its include branch.  The search keeps its path in
    ``included`` instead of one generator frame per element.
    """
    lower = [[s for s in _immediate_subs(e) if order(s) >= 2] for e in elems]
    chosen: set[int] = set()
    included: list[int] = []  # positions of the included elements, ascending
    # the first leaf excludes every element
    yield frozenset()
    while True:
        # backtrack from the leaf to the deepest excluded element that can
        # be included; every element after it is then excluded
        i = len(elems) - 1
        while i >= 0:
            if included and included[-1] == i:
                included.pop()
                chosen.remove(elems[i])
            elif all(s in chosen for s in lower[i]):
                break
            i -= 1
        if i < 0:
            return
        included.append(i)
        chosen.add(elems[i])
        yield frozenset(chosen)


def enumerate_models(t: int, l: int | None = None) -> ModelSpace:
    """Enumerate the full hierarchical model space on t lists, max order l,
    or raise ``ModelSpaceError`` past ``DEFAULT_SAFETY_LIMIT`` models."""
    if l is None:
        l = t - 1
    if not 2 <= t:
        raise ModelSpaceError(f"need at least 2 lists, got t={t}")
    check_max_order(t, l)
    base = frozenset([0] + [1 << i for i in range(t)])
    elems = _higher_terms(t, l)
    models: list[ModelSpec] = []
    for down in _iter_downsets(elems):
        if len(models) >= DEFAULT_SAFETY_LIMIT:
            raise ModelSpaceError(
                f"model space for (t={t}, l={l}) exceeds safety limit "
                f"{DEFAULT_SAFETY_LIMIT}"
            )
        models.append(ModelSpec(t, base | down))
    models.sort(key=lambda m: tuple(m.sorted_params))
    return ModelSpace(t, l, tuple(models))


def neighbors(model: ModelSpec, l: int | None = None) -> list[ModelSpec]:
    """Models at distance exactly 1: add or drop one order->=2 term,
    preserving the hierarchy and the order cap.  Excludes the model itself.
    """
    t = model.t
    if l is None:
        l = t - 1
    out: list[ModelSpec] = []
    present = model.params
    # removable: maximal order->=2 terms
    for p in present:
        if order(p) >= 2 and not any(
            q != p and q & p == p for q in present
        ):
            out.append(ModelSpec(t, present - {p}))
    # addable: absent terms of order 2..l whose subsets are all present
    for m in _higher_terms(t, l):
        if m not in present and all(s in present for s in subsets(m) if s != m):
            out.append(ModelSpec(t, present | {m}))
    out.sort(key=lambda m: tuple(m.sorted_params))
    return out


def primary_ranks(bic_values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n by ascending BIC; infinite values last, ties canonical.

    Canonical here means position in the (canonically ordered) space.
    """
    n = len(bic_values)
    idx = sorted(range(n), key=lambda i: (math.isinf(bic_values[i]), bic_values[i], i))
    ranks = np.empty(n, dtype=int)
    for rank, i in enumerate(idx, start=1):
        ranks[i] = rank
    return ranks


def bic_ranks(space: ModelSpace, bic_values: Sequence[float], K: int = 2) -> np.ndarray:
    """BIC ranks of degrees 1..K via the neighbour-minimum recursion, as a
    (K, models) array: row k - 1 holds every model's rank r_k, row 0 the
    original rank r_1."""
    if K < 1:
        raise ModelSpaceError("K must be >= 1")
    if len(bic_values) != len(space):
        raise ModelSpaceError("bic_values must align with the model space")
    n = len(space)
    ranks = np.empty((K, n), dtype=int)
    ranks[0] = primary_ranks(bic_values)
    if K > 1:
        neigh = [
            [space.index_of(m) for m in neighbors(model, space.l)] + [i]
            for i, model in enumerate(space)
        ]
        for k in range(1, K):
            prev = ranks[k - 1]
            ranks[k] = [min(prev[j] for j in neigh[i]) for i in range(n)]
    return ranks


def rank_order(space: ModelSpace, ranks: np.ndarray, degree: int = 1) -> list[int]:
    """Model indices sorted by rank of the given degree, ties by lower degree.

    ``ranks`` is ``bic_ranks``'s array.  Degree 1 orders by r_1 alone;
    degree 2 by (r_2, r_1).  Deterministic because r_1 is a permutation.
    """
    if not 1 <= degree <= ranks.shape[0]:
        raise ModelSpaceError(f"degree {degree} not available in rank table")
    keys = [tuple(ranks[k][i] for k in reversed(range(degree)))
            for i in range(len(space))]
    return sorted(range(len(space)), key=lambda i: keys[i])


def downhill_lockstep(
    n_tables: int,
    starts: Sequence[ModelSpec],
    l: int,
    evaluate: Callable[[list[tuple[int, ModelSpec]]], Sequence[float]],
) -> list[tuple[ModelSpec, float] | None]:
    """Greedy descent from every start on each of ``n_tables`` tables at once.

    Every (table, start) search takes one step per round.  A round first
    gathers, in one call to ``evaluate``, the BIC of each (table index,
    model) pair that some search needs and that table's memo lacks: the
    current model and all its neighbours (inf for existence failures or
    non-convergence).  Each search then moves to its strictly smallest
    neighbour if that improves on the current BIC, the canonically first
    one on ties, and stops otherwise.  Per table, the result is the best
    local minimum over the starts (taken in start order, strictly
    smaller wins), or None when no start reached a finite BIC.  Each
    table's BICs are kept by model, shared by its starts.
    """
    for t in {s.t for s in starts}:
        check_max_order(t, l)
    memos: list[dict[frozenset[int], float]] = [{} for _ in range(n_tables)]
    moves: dict[frozenset[int], list[ModelSpec]] = {}
    # [table, start index, current model]; a search leaves when it stops
    active = [[i, k, s] for i in range(n_tables) for k, s in enumerate(starts)]
    ends: dict[tuple[int, int], tuple[ModelSpec, float]] = {}
    while active:
        pending: dict[tuple[int, frozenset[int]], ModelSpec] = {}
        for i, _, model in active:
            if model.params not in moves:
                moves[model.params] = neighbors(model, l)
            for cand in (model, *moves[model.params]):
                if cand.params not in memos[i]:
                    pending.setdefault((i, cand.params), cand)
        if pending:
            pairs = [(i, cand) for (i, _), cand in pending.items()]
            for (i, cand), bic in zip(pairs, evaluate(pairs)):
                memos[i][cand.params] = bic
        still = []
        for search in active:
            i, k, model = search
            memo = memos[i]
            best_n, best_bic = None, math.inf
            for cand in moves[model.params]:
                b = memo[cand.params]
                if b < best_bic:
                    best_n, best_bic = cand, b
            if best_n is not None and best_bic < memo[model.params]:
                search[2] = best_n
                still.append(search)
            else:
                ends[i, k] = model, memo[model.params]
        active = still
    out: list[tuple[ModelSpec, float] | None] = []
    for i in range(n_tables):
        best = None
        for k in range(len(starts)):
            model, bic = ends[i, k]
            if not math.isinf(bic) and (best is None or bic < best[1]):
                best = model, bic
        out.append(best)
    return out


def random_order2_starts(
    t: int, n_pairs: int, count: int, rng: np.random.Generator
) -> list[ModelSpec]:
    """Random order-2 starting models, each from distinct uniform pairs."""
    if t < 3:
        # the only pair of two lists makes the saturated model
        raise ModelSpaceError(f"random order-2 starts need at least 3 lists, got t={t}")
    pairs = [m for m in range(1 << t) if order(m) == 2]
    if n_pairs > len(pairs):
        raise ModelSpaceError(f"requested {n_pairs} pairs but only {len(pairs)} exist")
    starts = []
    for _ in range(count):
        picked = rng.choice(len(pairs), size=n_pairs, replace=False)
        starts.append(ModelSpec.from_generators(t, [pairs[i] for i in picked]))
    return starts
