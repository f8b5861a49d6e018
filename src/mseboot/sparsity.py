"""The sparsity reduction of one (model, support) pair, and its design.

A parameter whose marginal count is zero has its estimate at -inf, and
every cell containing it is forced to zero (Fienberg & Rinaldo 2012).
``reduce_for_sparsity`` records those parameters and drops those cells;
what is left, the retained cells and the estimable parameters, depends
only on which cells of the table are positive.  ``ReducedProblem`` holds
the result, which both the existence check and the IRLS fit read, and
builds the 0/1 incidence of parameter-in-cell in the forms the exact
existence routes read when they first ask for it.

This module imports neither ``glm`` nor ``existence``: both import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import CountTable, ModelSpec, canonical_cells


def containment(omega: Sequence[int], theta: Sequence[int]) -> np.ndarray:
    """Boolean cells x parameters array: parameter j is contained in cell i."""
    theta = np.asarray(theta, dtype=np.int64)
    return (np.asarray(omega, dtype=np.int64)[:, None] & theta) == theta


def design_matrix(omega: Sequence[int], theta: Sequence[int]) -> np.ndarray:
    """0/1 incidence of parameter-contained-in-cell."""
    return containment(omega, theta).astype(float)


@dataclass(frozen=True)
class ReducedProblem:
    """Outcome of the sparsity reduction for one (model, support) pair.

    ``omega_dagger`` are the retained cells in canonical order,
    ``theta_dagger`` the estimable parameters and
    ``minus_infinity_params`` those fixed at -inf.  ``contains[i, j]`` is
    True when parameter j is contained in retained cell i; ``incidence``
    is the same array as integer tuples, and ``params_of_cell`` lists the
    parameters each cell contains.  Each of these three is made when first
    read.  Problems compare equal when
    their three fields are.
    """

    theta_dagger: tuple[int, ...]
    omega_dagger: tuple[int, ...]
    minus_infinity_params: frozenset[int]

    @cached_property
    def contains(self) -> np.ndarray:
        return containment(self.omega_dagger, self.theta_dagger)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.contains.astype(int).tolist()))

    @cached_property
    def params_of_cell(self) -> list[list[int]]:
        return [[j for j, a in enumerate(row) if a] for row in self.incidence]

    def zero_cells(self, table: CountTable) -> list[int]:
        """Positions in ``omega_dagger`` of the retained cells outside
        ``table``'s support."""
        positive = table.support
        return [i for i, w in enumerate(self.omega_dagger) if w not in positive]


def reduce_for_sparsity(model: ModelSpec, table: CountTable) -> ReducedProblem:
    """Split parameters into estimable ones and those fixed at -inf.

    A parameter is dropped when no observed case includes all its lists;
    every cell containing such a parameter is removed too (those cells
    necessarily hold zero counts).  Only the support is read: a parameter
    lives as soon as one positive cell contains it.
    """
    positive = table.support
    # a parameter that is itself a positive cell has a positive marginal
    dead = frozenset(
        theta
        for theta in model.params
        if theta not in positive and not any(w & theta == theta for w in positive)
    )
    theta_dagger = tuple(p for p in model.sorted_params if p not in dead)
    omega_dagger = canonical_cells(table.t)
    if dead:
        omega_dagger = tuple(
            w for w in omega_dagger if not any(d & w == d for d in dead)
        )
    return ReducedProblem(theta_dagger, omega_dagger, dead)
