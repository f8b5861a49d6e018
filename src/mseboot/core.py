"""Capture histories, count tables, and loglinear model specifications.

A capture history is the subset of lists on which a case appears.  We
encode a history as an integer bitmask over list positions 1..t (bit
``i - 1`` set means list ``i`` is in the history); the empty history is
mask 0.  Both observed counts and model parameters are indexed by
histories, so this module is the shared vocabulary of everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Mapping

import numpy as np

from ._cephes import log_factorial

MAX_LISTS = 16

# Characters used for list indices in bracket notation ("[12,23]").
# Lists 10..16 are rendered A..G so the notation stays one char per list.
_LIST_CHARS = "123456789ABCDEFG"


def order(mask: int) -> int:
    """Number of lists in the history (popcount of the mask)."""
    return bin(mask).count("1")


def canonical_key(mask: int) -> tuple[int, int]:
    """Sort key ordering histories by (order, numeric mask)."""
    return (order(mask), mask)


def subsets(mask: int) -> Iterable[int]:
    """All subsets of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def history_to_str(mask: int) -> str:
    """Render a history in list-character notation, '0' for the empty one."""
    if mask == 0:
        return "0"
    return "".join(_LIST_CHARS[i] for i in range(MAX_LISTS) if mask >> i & 1)


def history_from_str(token: str, t: int) -> int:
    """Parse a history token such as '123' or '14' into a bitmask."""
    mask = 0
    for ch in token.strip():
        try:
            i = _LIST_CHARS.index(ch.upper())
        except ValueError:
            raise ValueError(f"invalid list character {ch!r} in {token!r}") from None
        if i >= t:
            raise ValueError(f"list {ch!r} out of range for t={t}")
        mask |= 1 << i
    return mask


def _validate_t(t: int) -> None:
    if not 1 <= t <= MAX_LISTS:
        raise ValueError(f"number of lists must be in 1..{MAX_LISTS}, got {t}")


@cache
def canonical_cells(t: int) -> tuple[int, ...]:
    """The 2^t - 1 non-empty histories of t lists, in canonical order."""
    return tuple(sorted(range(1, 1 << t), key=canonical_key))


@cache
def _cell_positions(t: int) -> dict[int, int]:
    """Each non-empty history of t lists and its place in canonical order."""
    return {mask: i for i, mask in enumerate(canonical_cells(t))}


@dataclass(frozen=True)
class CountTable:
    """Observed capture counts over the non-empty histories of t lists.

    ``counts`` holds the positive counts only, in canonical order of
    their histories: construction drops zero counts and sorts the rest,
    and raises ``ValueError`` for t outside 1..``MAX_LISTS``, a history
    outside 1..2^t - 1 or a negative or fractional count.  A dict already
    in that form is kept, not copied, so it must not change afterwards.
    Instances are immutable and safe to share across threads.
    """

    t: int
    counts: Mapping[int, int]

    def __post_init__(self) -> None:
        _validate_t(self.t)
        position = _cell_positions(self.t)
        canonical = type(self.counts) is dict
        last = -1
        for mask, n in self.counts.items():
            at = position.get(mask, -1)
            if at < 0:
                raise ValueError(f"history mask {mask} invalid for t={self.t} (empty or out of range)")
            if type(n) is not int or n <= 0:
                if n < 0 or n != int(n):
                    raise ValueError(f"count for {history_to_str(mask)} must be a non-negative integer")
                canonical = False
            if at <= last:
                canonical = False
            last = at
        if not canonical:
            cells = sorted(self.counts.items(), key=lambda kv: position[kv[0]])
            object.__setattr__(self, "counts", {m: int(n) for m, n in cells if n})

    @staticmethod
    def from_counts(t: int, counts: Mapping[int, int]) -> "CountTable":
        """``CountTable(t, counts)``."""
        return CountTable(t, counts)

    @cached_property
    def n_total(self) -> int:
        return sum(self.counts.values())

    @cached_property
    def support(self) -> frozenset[int]:
        """The cells with a positive count.  Everything that depends only
        on which cells are positive (the existence verdict, the sparsity
        reduction, the grouping of tables for a fit) is keyed by it."""
        return frozenset(self.counts)

    @cached_property
    def cell_probabilities(self) -> np.ndarray:
        """Each count over the sum of the counts, in the order of
        ``counts`` (read-only): the cell probabilities of a resample."""
        counts = np.array(list(self.counts.values()), dtype=float)
        probs = counts / counts.sum()
        probs.flags.writeable = False
        return probs

    @cached_property
    def log_factorials(self) -> tuple[float, ...]:
        """log n! of each count, in the order of ``counts``."""
        return tuple(map(log_factorial, self.counts.values()))

    def count(self, mask: int) -> int:
        return self.counts.get(mask, 0)

    def __hash__(self) -> int:
        return hash((self.t, tuple(self.counts.items())))


def is_hierarchical(params: Iterable[int], t: int) -> bool:
    """Whether a parameter set is a valid hierarchical (non-saturated) model.

    Requires the empty history and all t order-1 histories, closure under
    subsets, and excludes the saturated model containing every history.
    """
    _validate_t(t)
    pset = set(params)
    if 0 not in pset:
        return False
    for i in range(t):
        if (1 << i) not in pset:
            return False
    if len(pset) == 1 << t:
        return False
    for theta in pset:
        if not 0 <= theta < (1 << t):
            return False
        if any(sub not in pset for sub in subsets(theta)):
            return False
    return True


@dataclass(frozen=True)
class ModelSpec:
    """One hierarchical loglinear model: a downward-closed parameter set."""

    t: int
    params: frozenset[int]

    def __post_init__(self) -> None:
        if not is_hierarchical(self.params, self.t):
            raise ValueError(
                f"parameter set {sorted(self.params)} is not a hierarchical "
                f"non-saturated model on t={self.t} lists"
            )

    @staticmethod
    def null_model(t: int) -> "ModelSpec":
        return ModelSpec(t, frozenset([0] + [1 << i for i in range(t)]))

    @staticmethod
    def from_generators(t: int, generators: Iterable[int]) -> "ModelSpec":
        """Build the hierarchical closure of the generators plus main effects."""
        pset = {0} | {1 << i for i in range(t)}
        for g in generators:
            pset.update(subsets(g))
        return ModelSpec(t, frozenset(pset))

    @staticmethod
    def from_notation(text: str, t: int) -> "ModelSpec":
        """Parse bracket notation such as '[123,14]' or '[1,2,3]'."""
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        gens = [history_from_str(tok, t) for tok in body.split(",") if tok.strip()]
        return ModelSpec.from_generators(t, gens)

    @cached_property
    def max_order(self) -> int:
        return max(order(p) for p in self.params)

    @cached_property
    def sorted_params(self) -> tuple[int, ...]:
        return tuple(sorted(self.params, key=canonical_key))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Maximal non-empty parameters, in canonical order."""
        nonempty = [p for p in self.params if p != 0]
        maximal = [
            p
            for p in nonempty
            if not any(q != p and q & p == p for q in nonempty)
        ]
        return tuple(sorted(maximal, key=canonical_key))

    def notation(self) -> str:
        """Bracket notation listing the maximal parameters."""
        return "[" + ",".join(history_to_str(g) for g in self.generators) + "]"

    def __repr__(self) -> str:
        return f"ModelSpec(t={self.t}, {self.notation()})"
