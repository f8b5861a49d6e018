"""Existence of the extended maximum likelihood estimate.

The estimate exists iff the marginal-matching linear program has a
strictly positive optimum: some real cell vector x with the model's
margins is positive in every retained cell.  Writing x = n + z, that
holds iff some direction z with A^T z = 0 is positive on every retained
zero cell (Fienberg & Rinaldo 2012, Ann. Statist. 40(2); the program is
the one of Chan, Silverman & Vincent 2021, JASA).  By Gordan's theorem
that fails iff some y = A w vanishes on the positive cells and is
nonzero and of one sign on the zero cells.

``fr_check`` tries five routes in order, and ``tally`` and
``ExistenceCache.decided`` count the one that decided under its key:

1. ``FAST_PATH``: every retained cell is positive, so the data vector
   itself is such an x; or the reduction leaves no cell at all.
2. ``RANK``: the incidence rows of the positive cells have full column
   rank, proved exactly by elimination over GF(2), on rows packed into
   Python ints, and when that comes up short by elimination modulo the
   prime ``RANK_PRIME``.  Then no nonzero y = A w vanishes on the positive
   cells, so nothing rules a direction out and the estimate exists.  This
   route only ever says True; when both proofs come up short the next
   route runs.
3. ``NULL_SPACE``: the w with A w = 0 on the positive cells are w = N u
   for an exact integer basis N of that null space, so the question is
   whether some u makes V u = A_Z N u nonzero and of one sign.  After
   dropping dependent columns of V the cone {u : V u >= 0} is pointed,
   so it is {0} unless it has an extreme ray, and each extreme ray is
   the null space of some k' - 1 independent rows of V (k' columns).
   Trying every such set of rows decides the question in integer
   arithmetic (Eriksson, Fienberg, Rinaldo & Sullivant 2006, J. Symbolic
   Comput. 41(2)); a failure verdict is checked on its w as the
   certificate below is.  The route declines a problem larger than
   ``NULL_SPACE_MAX_ENTRIES`` or one needing more than
   ``NULL_SPACE_MAX_SUBSETS`` sets of rows.
4. ``CERTIFIED``: HiGHS solves the direction program in floating point
   and the answer is accepted only after an exact check in integer
   arithmetic: either a direction z as above, or a vector y = A w as
   above, which rules every such z out.  The certificate is the vertex
   the float solution's active set names, solved exactly.
5. ``FALLBACK``: only when neither certifies does the exact-rational
   simplex (``lp_max_s``) decide, so a float error can cost time but
   never change a verdict.

Since the verdict depends only on which cells are positive, repeated
checks during resampling are served from a cache keyed by the model and
``CountTable.support``.  The problem every route reads is the pair's
``sparsity.ReducedProblem``, posed once per (model, support) on the
table it is asked about; the cache keeps it beside the verdict, and
``glm.fit_groups`` fits from it.  ``ExistenceCache.check_many`` answers
a list of pairs at once: it reduces every miss with a zero cell, tries
the rank proof and the null-space route on it, and the programs of the
misses that remain are independent, so ``float_solve`` stacks them as
the blocks of one block-diagonal program and solves up to ``CHUNK`` of
them per HiGHS call.  Each block is still certified on its own; a block
that does not certify is solved again alone before ``lp_max_s`` is
tried.  SciPy's ``optimize`` and ``sparse`` modules are imported by the
first ``float_solve`` call, not with this module.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .core import CountTable, ModelSpec
from .sparsity import ReducedProblem, reduce_for_sparsity

INFEASIBLE = "infeasible"
OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

# how fr_check reached a verdict
FAST_PATH = "fast_path"
RANK = "rank"
NULL_SPACE = "null_space"
CERTIFIED = "certified"
FALLBACK = "fallback"

# the rank proof eliminates modulo this prime; it is below 2^31, so the
# difference of two products of residues fits in an int64
RANK_PRIME = 2**31 - 1

# the null-space route declines, before any elimination, a problem with
# more cells x parameters than this (all problems on up to 6 lists and
# all-pairs models on 7 are below it) ...
NULL_SPACE_MAX_ENTRIES = 4096
# ... and, once the null space is known, one that would try more sets of
# rows than this in its search for an extreme ray
NULL_SPACE_MAX_SUBSETS = 5000

# a float this close to a bound is read as on it when the active set is
# taken from the float solution; a wrong reading costs only the fallback
ACTIVE_TOL = 1e-9
# most programs stacked into one HiGHS solve: from a few dozen on, a
# stack costs a third or less per program of solving them one by one,
# while stacks of many hundreds cost more per program and hold more memory
CHUNK = 64


def simplex_max(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> tuple[str, Fraction | None, list[Fraction] | None]:
    """Two-phase simplex: maximize c.z subject to A z = b, z >= 0.

    All arithmetic is exact (Fraction); Bland's rule prevents cycling.
    Returns (status, optimal value, solution vector).
    """
    m, n = len(A), len(c)
    # normalize to b >= 0
    rows = []
    rhs = []
    for i in range(m):
        if b[i] < 0:
            rows.append([-a for a in A[i]])
            rhs.append(-b[i])
        else:
            rows.append(list(A[i]))
            rhs.append(b[i])

    # tableau with artificial variables for phase 1
    total = n + m
    T = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
         + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]

    def pivot(r: int, col: int) -> None:
        piv = T[r][col]
        T[r] = [v / piv for v in T[r]]
        for i in range(m):
            if i != r and T[i][col] != 0:
                f = T[i][col]
                T[i] = [vi - f * vr for vi, vr in zip(T[i], T[r])]
        basis[r] = col

    def optimize(obj: list[Fraction], allowed: int) -> str:
        # obj holds reduced costs for a maximization; allowed bounds the
        # eligible column range
        while True:
            # reduced costs relative to the current basis
            red = list(obj)
            z = Fraction(0)
            for i, bi in enumerate(basis):
                if obj[bi] != 0:
                    coeff = obj[bi]
                    for j in range(allowed):
                        red[j] -= coeff * T[i][j]
                    z += coeff * T[i][-1]
            enter = next((j for j in range(allowed)
                          if j not in basis and red[j] > 0), None)
            if enter is None:
                return OPTIMAL
            ratios = [
                (T[i][-1] / T[i][enter], basis[i], i)
                for i in range(m)
                if T[i][enter] > 0
            ]
            if not ratios:
                return UNBOUNDED
            _, _, r = min(ratios)  # Bland: smallest ratio, then basis index
            pivot(r, enter)

    # phase 1: maximize -(sum of artificials)
    phase1 = [Fraction(0)] * n + [Fraction(-1)] * m
    optimize(phase1, total)
    art_value = sum(T[i][-1] for i in range(m) if basis[i] >= n)
    if art_value > 0:
        return INFEASIBLE, None, None
    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                pivot(i, col)
    # rows still basic in an artificial variable are redundant (all-zero
    # in the structural columns); they stay inert in phase 2 because the
    # artificial columns are excluded from entering
    status = optimize(list(c) + [Fraction(0)] * m, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    z = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            z[bi] = T[i][-1]
    value = sum(ci * zi for ci, zi in zip(c, z))
    return OPTIMAL, value, z


def lp_max_s(problem: ReducedProblem, table: CountTable) -> tuple[str, Fraction | None]:
    """Maximum slack s over x with A^T x = nu and x >= s elementwise, where
    ``nu`` holds the marginal counts of the estimable parameters on
    ``table``.

    Substituting y = x - s*1 (y >= 0) and splitting the free s gives a
    standard-form LP.  The all-ones parameter column bounds s above, so
    the program is never unbounded; infeasibility is reported distinctly.
    This is the exact path ``fr_check`` falls back on when the float
    solve cannot be certified.
    """
    n_cells = len(problem.omega_dagger)
    n_params = len(problem.theta_dagger)
    if n_cells == 0:
        return INFEASIBLE, None
    # columns: y_1..y_ncells, s_plus, s_minus
    colsum = [
        sum(problem.incidence[i][j] for i in range(n_cells))
        for j in range(n_params)
    ]
    A = [
        [Fraction(problem.incidence[i][j]) for i in range(n_cells)]
        + [Fraction(colsum[j]), Fraction(-colsum[j])]
        for j in range(n_params)
    ]
    # nu_j: the total count over the table's cells containing parameter j
    b = [
        Fraction(sum(n for mask, n in table.counts.items() if mask & th == th))
        for th in problem.theta_dagger
    ]
    c = [Fraction(0)] * n_cells + [Fraction(1), Fraction(-1)]
    status, value, _ = simplex_max(c, A, b)
    if status != OPTIMAL:
        return status, None
    return OPTIMAL, value


class FloatSolution(NamedTuple):
    """HiGHS optimum of the direction LP solved by ``float_solve``."""

    t: float  # the margin: z_i >= t on every zero cell
    z: np.ndarray  # direction, one entry per retained cell
    w: np.ndarray  # duals of A^T z = 0, one per parameter


def float_solve(
    blocks: Sequence[tuple[np.ndarray, Sequence[int]]],
) -> list[FloatSolution | None]:
    """For every block (A, zero): maximize t subject to A^T z = 0 and
    z_i >= t on the zero cells, in floating point.

    ``A`` is the cells x parameters 0/1 incidence matrix and ``zero`` the
    positions of the zero cells.  Each zero cell is written z_i = t + s_i
    with 0 <= s_i <= 1, every other z_i lies in [-1, 1] and t in [0, 1],
    so HiGHS sees only the parameter rows.  The blocks share no variable,
    so up to ``CHUNK`` of them are stacked into one block-diagonal program
    that maximizes the sum of their margins; any optimum of the stack is
    an optimum of every block, and so are the blocks' slices of the
    equality duals.  The solve has no time limit and HiGHS runs
    deterministically, so the same input gives the same solutions.  An
    entry is None when HiGHS reports no optimum for its chunk.
    """
    # imported here: the two modules are a third of the package's import
    # time, and most runs never reach this program
    from scipy import optimize, sparse

    out: list[FloatSolution | None] = []
    for first in range(0, len(blocks), CHUNK):
        chunk = blocks[first:first + CHUNK]
        a_eq, cost, bounds, is_zero = [], [], [], []
        for incidence, zero in chunk:
            n_cells = incidence.shape[0]
            cells = np.zeros(n_cells, dtype=bool)
            cells[zero] = True
            is_zero.append(cells)
            a_eq.append(np.column_stack([incidence.T, incidence[cells].sum(axis=0)]))
            c = np.zeros(n_cells + 1)
            c[-1] = -1.0
            cost.append(c)
            b = np.ones((n_cells + 1, 2))
            b[:n_cells, 0] = np.where(cells, 0.0, -1.0)
            b[-1, 0] = 0.0
            bounds.append(b)
        n_rows = sum(a.shape[0] for a in a_eq)
        res = optimize.linprog(
            np.concatenate(cost),
            A_eq=sparse.block_diag(a_eq, format="csr"),
            b_eq=np.zeros(n_rows),
            bounds=np.vstack(bounds),
            method="highs",
        )
        if res.status != 0:
            out += [None] * len(chunk)
            continue
        col = row = 0
        for a, cells in zip(a_eq, is_zero):
            n_params, width = a.shape
            x = res.x[col:col + width]
            t = float(x[-1])
            z = x[:-1].copy()
            z[cells] += t
            out.append(FloatSolution(t, z, res.eqlin.marginals[row:row + n_params]))
            col, row = col + width, row + n_params
    return out


def _common_scale(values: Sequence[Fraction]) -> list[int]:
    """The rationals multiplied by the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values]


def _eliminate(
    rows: Sequence[Sequence[int]], n: int
) -> tuple[list[Sequence[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination on the first n columns of
    integer rows, each reduced by its gcd after every update.

    Returns the rows, the pivot rows first, and the pivot column of each
    pivot row: every other row is 0 in the first n columns, and a pivot
    column is 0 outside its pivot row.  The given rows are not modified.
    """
    aug = list(rows)
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        found = next((k for k in range(r, len(aug)) if aug[k][col]), None)
        if found is None:
            continue
        aug[r], aug[found] = aug[found], aug[r]
        lead = aug[r]
        p = lead[col]
        for k, row in enumerate(aug):
            f = row[col]
            if k != r and f:
                new = [p * a - f * b for a, b in zip(row, lead)]
                g = math.gcd(*new)
                aug[k] = [v // g for v in new] if g > 1 else new
        pivots.append(col)
    return aug, pivots


def _solve_exact(rows: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """One solution of rows . x = rhs, free unknowns at 0; None if the
    system is inconsistent."""
    n = len(rows[0])
    aug, pivots = _eliminate([list(row) + [b] for row, b in zip(rows, rhs)], n)
    if any(row[-1] for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, col in zip(aug, pivots):
        x[col] = Fraction(row[-1], row[col])
    return x


def _null_space(rows: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """An integer basis of {x in Z^n : rows . x = 0}, one vector per free
    column of the elimination, each with coprime entries."""
    aug, pivots = _eliminate(rows, n)
    pivot_cols = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        # x_free = d and x_col = -row[free] d / row[col] for each pivot row
        used = [(row, col) for row, col in zip(aug, pivots) if row[free]]
        d = math.lcm(*(row[col] for row, col in used))
        x = [0] * n
        x[free] = d
        for row, col in used:
            x[col] = -row[free] * d // row[col]
        g = math.gcd(*x)
        basis.append([v // g for v in x])
    return basis


def _primal_vertex(
    sol: FloatSolution, cells_of_param: list[list[int]], zero: Sequence[int]
) -> list[int] | None:
    """Exact direction at the vertex the float solution's active set names.

    A cell on a bound keeps it: z_i = +-1 on a positive cell, z_i = t or
    t + 1 on a zero cell, with t = 1 when t is on its upper bound.  The
    other cells and t solve A^T z = 0.
    """
    z, t = sol.z.tolist(), sol.t
    t_fixed = abs(t - 1) <= ACTIVE_TOL
    # cell -> (a, b) for z_i = a t + b
    bound: dict[int, tuple[int, int]] = {}
    for i in zero:
        for b in (0, 1):
            if abs(z[i] - t - b) <= ACTIVE_TOL:
                bound[i] = (0, 1 + b) if t_fixed else (1, b)
    zero_set = set(zero)
    for i, v in enumerate(z):
        if i not in zero_set:
            for b in (-1, 1):
                if abs(v - b) <= ACTIVE_TOL:
                    bound[i] = (0, b)
    free = [i for i in range(len(z)) if i not in bound]
    column = {i: k for k, i in enumerate(free)}
    rows, rhs = [], []
    for cells in cells_of_param:
        row = [0] * (len(free) + 1)  # the last unknown is t
        rest = 0
        for i in cells:
            if i in column:
                row[column[i]] += 1
            else:
                a, b = bound[i]
                row[-1] += a
                rest -= b
        rows.append(row)
        rhs.append(rest)
    x = _solve_exact(rows, rhs)
    if x is None:
        return None
    exact = [Fraction(0)] * len(z)
    for i, (a, b) in bound.items():
        exact[i] = a * x[-1] + b
    for i, k in column.items():
        exact[i] = x[k]
    return _common_scale(exact)


def _dual_vertex(
    incidence: Sequence[Sequence[int]], y: np.ndarray, zero: Sequence[int]
) -> list[int] | None:
    """Exact w whose A w is 0 on every cell except the zero cells where the
    float y = A w is nonzero, equal on those where the float values are
    equal, and sums to -1 over those."""
    pushed = [i for i in zero if abs(y[i]) > ACTIVE_TOL]
    if not pushed:
        return None
    total = [sum(col) for col in zip(*(incidence[i] for i in pushed))]
    pushed_set = set(pushed)
    kept = [list(row) for i, row in enumerate(incidence) if i not in pushed_set]
    # y_i = y_j for two pushed cells the float y puts at one value
    ties, first = [], []
    for i in pushed:
        j = next((j for j in first if abs(y[i] - y[j]) <= ACTIVE_TOL), None)
        if j is None:
            first.append(i)
        else:
            ties.append([a - b for a, b in zip(incidence[i], incidence[j])])
    w = _solve_exact(kept + ties + [total], [0] * (len(kept) + len(ties)) + [-1])
    return None if w is None else _common_scale(w)


def _proves_existence(
    z: list[int] | None, cells_of_param: list[list[int]], zero: Sequence[int]
) -> bool:
    """z is positive on every zero cell and A^T z = 0 exactly."""
    return (
        z is not None
        and all(z[i] > 0 for i in zero)
        and all(sum(z[i] for i in cells) == 0 for cells in cells_of_param)
    )


def _proves_failure(
    w: list[int] | None, params_of_cell: list[list[int]], zero: Sequence[int]
) -> bool:
    """y = A w vanishes on the positive cells and is nonzero and of one
    sign on the zero cells, so y.z = 0 forbids z > 0 there."""
    if w is None:
        return False
    y = [sum(w[j] for j in params) for params in params_of_cell]
    zero_set = set(zero)
    if any(v for i, v in enumerate(y) if i not in zero_set):
        return False
    on_zero = [y[i] for i in zero]
    return any(on_zero) and (min(on_zero) >= 0 or max(on_zero) <= 0)


def _rank_mod_2(contains: np.ndarray) -> int:
    """Rank over GF(2) of a boolean matrix, each row eliminated as a Python
    int whose bit j is column j; the rows left once the rank is full are
    not read."""
    n_cols = contains.shape[1]
    packed = np.packbits(contains, axis=1, bitorder="little")
    # leading bit -> the reduced row kept for it
    basis: dict[int, int] = {}
    for row in packed:
        if len(basis) == n_cols:
            break
        bits = int.from_bytes(row.tobytes(), "little")
        while bits:
            lead = bits.bit_length()
            kept = basis.get(lead)
            if kept is None:
                basis[lead] = bits
                break
            bits ^= kept
    return len(basis)


def proves_full_rank(problem: ReducedProblem, zero: Sequence[int]) -> bool:
    """Whether the incidence rows of the positive cells provably have full
    column rank, which proves that the estimate exists.

    Full column rank means A w = 0 on the positive cells only for w = 0,
    so no y = A w can vanish there and rule a direction out.  The proof is
    Gaussian elimination over GF(2) on rows packed into Python ints, and
    when that falls short, modulo ``RANK_PRIME`` on int64 arrays.  A full
    rank modulo 2 or the prime names a square minor that is odd, or
    nonzero modulo the prime, hence a nonzero integer.  False proves
    nothing: the rank is short, or the prime divides every full minor.
    """
    positive = np.ones(len(problem.omega_dagger), dtype=bool)
    positive[list(zero)] = False
    contains = problem.contains[positive]
    n_rows, n_cols = contains.shape
    if n_rows < n_cols:
        return False
    if _rank_mod_2(contains) == n_cols:
        return True
    m = contains.astype(np.int64)
    for j in range(n_cols):
        nonzero = np.flatnonzero(m[j:, j])
        if not nonzero.size:
            return False
        k = j + int(nonzero[0])
        if k != j:
            m[[j, k]] = m[[k, j]]
        # row_i * pivot - row_j * m_ij clears column j below the pivot
        m[j + 1:, j:] = (
            m[j + 1:, j:] * m[j, j] - np.outer(m[j + 1:, j], m[j, j:])
        ) % RANK_PRIME
    return True


def null_space_verdict(problem: ReducedProblem, zero: Sequence[int]) -> bool | None:
    """Whether the estimate exists, decided exactly on the null space of
    the positive cells' incidence rows; None when the route declines.

    With N an integer basis of {w : A_S w = 0} (S the positive cells), a
    y = A w that vanishes on S is A N u, and its zero-cell part is V u for
    V = A_Z N.  Keeping a maximal set of independent columns of V leaves
    V' with k' columns and the same values V u, and the cone
    {u : V' u >= 0} is pointed.  For k' = 0 every such y is 0 and the
    estimate exists.  Otherwise the cone is {0} unless it has an extreme
    ray, which spans the null space of some k' - 1 independent rows of V'
    and on which V' is of one sign.  So every set of k' - 1 distinct
    nonzero rows (up to scale) of rank k' - 1 is tried: when its null
    vector g has V' g >= 0 or <= 0, w = N g is checked by
    ``_proves_failure`` and the estimate does not exist; when none does,
    it exists.  The route declines a problem with more than
    ``NULL_SPACE_MAX_ENTRIES`` incidence entries, and one needing more
    than ``NULL_SPACE_MAX_SUBSETS`` sets of rows.
    """
    n_params = len(problem.theta_dagger)
    if len(problem.omega_dagger) * n_params > NULL_SPACE_MAX_ENTRIES:
        return None
    zero_set = set(zero)
    basis = _null_space(
        [row for i, row in enumerate(problem.incidence) if i not in zero_set], n_params
    )
    params_of_cell = problem.params_of_cell
    v = [[sum(w[j] for j in params_of_cell[i]) for w in basis] for i in zero]
    _, independent = _eliminate(v, len(basis))
    k = len(independent)
    if k == 0:
        return True
    v = [[row[c] for c in independent] for row in v]
    rows = set()
    for row in v:
        g = math.gcd(*row)
        if g:
            lead = next(a for a in row if a)
            rows.add(tuple(a // g if lead > 0 else -a // g for a in row))
    if math.comb(len(rows), k - 1) > NULL_SPACE_MAX_SUBSETS:
        return None
    for subset in itertools.combinations(sorted(rows), k - 1):
        null = _null_space(subset, k)
        if len(null) != 1:
            continue
        (g,) = null
        y = [sum(a * b for a, b in zip(row, g)) for row in v]
        if min(y) >= 0 or max(y) <= 0:
            w = [
                sum(gc * basis[c][j] for gc, c in zip(g, independent))
                for j in range(n_params)
            ]
            # a failure verdict stands only on its checked certificate
            return False if _proves_failure(w, params_of_cell, zero) else None
    return True


def certify(
    problem: ReducedProblem, zero: Sequence[int], sol: FloatSolution | None
) -> bool | None:
    """The float solution's verdict once an exact certificate confirms it.

    ``zero`` lists the positions in ``problem.omega_dagger`` of the retained
    cells with a zero count, and ``sol`` is ``float_solve``'s answer for
    them.  The certificate is the exact vertex of the solution's active
    set (``_primal_vertex`` or ``_dual_vertex``); None when it does not
    verify or there is no float solution.
    """
    if sol is None:
        return None
    if sol.t > ACTIVE_TOL:
        cells_of_param = [
            [i for i, row in enumerate(problem.incidence) if row[j]]
            for j in range(len(problem.theta_dagger))
        ]
        z = _primal_vertex(sol, cells_of_param, zero)
        return True if _proves_existence(z, cells_of_param, zero) else None
    w = _dual_vertex(problem.incidence, problem.matrix @ sol.w, zero)
    return False if _proves_failure(w, problem.params_of_cell, zero) else None


# an ``ExistenceCache`` key: the model's parameters, which name the number
# of lists, and the table's support
Key = tuple[frozenset[int], frozenset[int]]

# a pair's problem, the positions of its zero cells, the verdict and route
# of ``prove`` on it (None when not tried) and its float solution from a
# batched ``float_solve``
Solved = tuple[
    ReducedProblem, list[int], tuple[bool | None, str] | None, FloatSolution | None
]


def prove(problem: ReducedProblem, zero: Sequence[int]) -> tuple[bool | None, str]:
    """The verdict of the exact routes and the route that reached it:
    ``RANK`` or ``NULL_SPACE``, or None and ``CERTIFIED`` when both
    decline and the program must decide."""
    if proves_full_rank(problem, zero):
        return True, RANK
    verdict = null_space_verdict(problem, zero)
    return (None, CERTIFIED) if verdict is None else (verdict, NULL_SPACE)


def fr_check(
    model: ModelSpec,
    table: CountTable,
    tally: Counter | None = None,
    solved: Solved | None = None,
) -> bool:
    """Whether the extended maximum likelihood estimate exists.

    Fast path: when every retained cell has a positive count the data
    vector itself is a feasible point with positive slack; a table with
    every cell positive is decided so before any problem is built.  A
    table where the reduction removes every cell cannot identify any
    parameter.
    Otherwise a full column rank of the positive cells' incidence rows
    (``proves_full_rank``) proves existence, and failing that
    ``null_space_verdict`` decides; when it declines ``certify`` decides,
    and ``lp_max_s`` when it cannot.

    ``solved`` passes the pair's reduction, the positions of its zero
    cells, what ``prove`` said on it (None when not tried) and its float
    solution from a batched ``float_solve`` (None when it was not solved);
    when that solution does not certify, the problem is solved again on
    its own before ``lp_max_s`` runs.  ``tally``, when given, counts the
    route taken under ``FAST_PATH``, ``RANK``, ``NULL_SPACE``,
    ``CERTIFIED`` or ``FALLBACK``.
    """
    if _full_support(table):
        verdict, route = True, FAST_PATH
    else:
        verdict, route = _decide(model, table, solved)
    if tally is not None:
        tally[route] += 1
    return verdict


def _full_support(table: CountTable) -> bool:
    """Every cell of ``table`` is positive, hence every retained one."""
    return len(table.support) == (1 << table.t) - 1


def _decide(
    model: ModelSpec, table: CountTable, solved: Solved | None
) -> tuple[bool, str]:
    """``fr_check``'s verdict and route on a table with a zero cell."""
    problem, zero, proved, batched = solved or _posed(model, table)
    if not problem.omega_dagger or not zero:
        return bool(problem.omega_dagger), FAST_PATH
    verdict, route = proved or prove(problem, zero)
    if verdict is None:
        verdict = certify(problem, zero, batched)
        if verdict is None:
            (alone,) = float_solve([(problem.matrix, zero)])
            verdict = certify(problem, zero, alone)
        if verdict is None:
            status, s_star = lp_max_s(problem, table)
            verdict, route = status == OPTIMAL and s_star > 0, FALLBACK
    return verdict, route


def _posed(model: ModelSpec, table: CountTable) -> Solved:
    """The pair's reduction and the positions of its zero cells, with what
    ``prove`` says on it unless the fast path settles it, and no float
    solution yet."""
    problem = reduce_for_sparsity(model, table)
    zero = problem.zero_cells(table)
    proved = prove(problem, zero) if problem.omega_dagger and zero else None
    return problem, zero, proved, None


@dataclass
class ExistenceCache:
    """Verdict cache keyed by (model, support).

    A key is ``(model.params, table.support)``, as the verdict depends
    only on which cells are positive.  ``reductions`` holds, under the
    same keys, the ``ReducedProblem`` of every pair the cache has
    reduced, so each (model, support) is reduced once for the check and
    the fit.
    ``hits`` and ``misses`` count lookups; ``decided`` counts how the
    misses were settled, under ``FAST_PATH``, ``RANK``, ``NULL_SPACE``,
    ``CERTIFIED`` and ``FALLBACK``.
    """

    verdicts: dict[Key, bool] = field(default_factory=dict)
    reductions: dict[Key, ReducedProblem] = field(default_factory=dict, init=False)
    hits: int = 0
    misses: int = 0
    decided: Counter = field(default_factory=Counter)

    def check(
        self,
        model: ModelSpec,
        table: CountTable,
        solved: Solved | None = None,
    ) -> bool:
        """The cached verdict, or ``fr_check`` on a miss.  ``solved``, as in
        ``fr_check``, holds the pair's reduction, its zero cells, what
        ``prove`` said on it and its batched float solution; the reduction
        is kept."""
        key = (model.params, table.support)
        cached = self.verdicts.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        if solved is None and not _full_support(table):
            solved = _posed(model, table)
        verdict = fr_check(model, table, self.decided, solved)
        self.verdicts[key] = verdict
        if solved is not None:
            # the fit reads the three fields only: the incidence arrays
            # the routes built are let go with ``solved``
            self.reductions[key] = replace(solved[0])
        self.misses += 1
        return verdict

    def reduction(self, model: ModelSpec, table: CountTable) -> ReducedProblem:
        """The reduction of (model, ``table``'s support): the one a check
        made, or one made now and kept, as for a full support, which the
        fast path decides without reducing."""
        key = (model.params, table.support)
        red = self.reductions.get(key)
        if red is None:
            red = self.reductions[key] = reduce_for_sparsity(model, table)
        return red

    def check_many(
        self, pairs: Sequence[tuple[ModelSpec, CountTable]]
    ) -> list[bool]:
        """``check`` on every (model, table) pair, in order.

        Each distinct miss on a table with a zero cell is posed first
        (``_posed``): it is reduced, its zero cells are read off the
        table's support, and the exact routes (``prove``) are tried on it
        unless the fast path settles it.  Those they decline go to one
        ``float_solve`` call, made only when there are any; each pair is
        then looked up by ``check``, so hits, misses and the calls to
        ``check`` and ``fr_check`` are what a loop over ``check`` gives.
        """
        keys = [(model.params, table.support) for model, table in pairs]
        solved: dict[Key, Solved] = {}
        asked = []
        for (model, table), key in zip(pairs, keys):
            if key in self.verdicts or key in solved or _full_support(table):
                continue
            solved[key] = _posed(model, table)
            proved = solved[key][2]
            if proved and proved[0] is None:
                asked.append(key)
        if asked:
            blocks = [(solved[k][0].matrix, solved[k][1]) for k in asked]
            for key, sol in zip(asked, float_solve(blocks)):
                solved[key] = (*solved[key][:3], sol)
        return [
            self.check(model, table, solved.get(key))
            for (model, table), key in zip(pairs, keys)
        ]
