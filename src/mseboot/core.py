"""Capture histories, count tables, and loglinear model specifications.

A capture history is the subset of lists on which a case appears.  We
encode a history as an integer bitmask over list positions 1..t (bit
``i - 1`` set means list ``i`` is in the history); the empty history is
mask 0.  Both observed counts and model parameters are indexed by
histories, so this module is the shared vocabulary of everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True)
class CountTable:
    """Observed capture counts over the non-empty histories of t lists.

    ``counts`` is sparse: histories absent from the map have count zero.
    Instances are immutable and safe to share across threads.
    """

    t: int
    counts: Mapping[int, int]

    @staticmethod
    def from_counts(t: int, counts: Mapping[int, int]) -> "CountTable":
        _validate_t(t)
        clean: dict[int, int] = {}
        for mask, n in counts.items():
            if not 0 < mask < (1 << t):
                raise ValueError(f"history mask {mask} invalid for t={t} (empty or out of range)")
            if n < 0 or n != int(n):
                raise ValueError(f"count for {history_to_str(mask)} must be a non-negative integer")
            if n > 0:
                clean[mask] = int(n)
        ordered = dict(sorted(clean.items(), key=lambda kv: canonical_key(kv[0])))
        return CountTable(t, ordered)

    @cached_property
    def n_total(self) -> int:
        return sum(self.counts.values())

    @cached_property
    def support(self) -> frozenset[int]:
        """The cells with a positive count; a table built directly may
        also list cells at 0.  Everything that depends only on which cells
        are positive (the existence verdict, the sparsity reduction, the
        grouping of tables for a fit) is keyed by it."""
        return frozenset(mask for mask, n in self.counts.items() if n > 0)

    @cached_property
    def canonical(self) -> bool:
        """Whether ``counts`` holds valid histories of t lists in canonical
        order, as ``from_counts`` leaves them."""
        if not 1 <= self.t <= MAX_LISTS or not all(0 < m < 1 << self.t for m in self.counts):
            return False
        keys = list(map(canonical_key, self.counts))
        return all(a < b for a, b in zip(keys, keys[1:]))

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
        """log n! of each positive count, in the order of ``counts``."""
        return tuple(map(log_factorial, self.counts.values()))

    def count(self, mask: int) -> int:
        return self.counts.get(mask, 0)

    def __hash__(self) -> int:
        return hash((self.t, tuple(sorted(self.counts.items()))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return self.t == other.t and dict(self.counts) == dict(other.counts)


def marginal_count(table: CountTable, theta: int) -> int:
    """Total count over all observed histories containing ``theta``.

    For theta = 0 this is the number of observed cases.
    """
    if theta >= (1 << table.t) or theta < 0:
        raise ValueError(f"history mask {theta} out of range for t={table.t}")
    return sum(n for mask, n in table.counts.items() if mask & theta == theta)


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
