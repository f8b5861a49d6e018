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
   whether some u makes V u = A_Z N u nonzero and of one sign.
   ``null_space_form`` builds V' (a maximal set of independent columns
   of V, k' of them) once per pair, and the cone {u : V' u >= 0} is
   pointed, so it is {0} unless it has an extreme ray, and each extreme
   ray is the null space of some k' - 1 independent rows of V'.  Trying
   every such set of rows decides the question in integer arithmetic
   (Eriksson, Fienberg, Rinaldo & Sullivant 2006, J. Symbolic Comput.
   41(2)); a failure verdict is checked on its w as the certificates
   below are.  The route declines a pair needing more than
   ``NULL_SPACE_MAX_SUBSETS`` sets of rows.
4. ``CERTIFIED``: HiGHS solves a program over the k' variables u of the
   same form in floating point, and its answer is accepted only after an
   exact check in integer arithmetic: the extreme ray its active rows
   name, checked as the route above checks one, or a vector lambda > 0
   with V'^T lambda = 0, one exact linear solve, which rules every ray
   out (Stiemke's lemma).
5. ``FALLBACK``: only when neither certifies does the exact-rational
   simplex (``lp_max_s``) decide, so a float error can cost time but
   never change a verdict.

Since the verdict depends only on which cells are positive, repeated
checks during resampling are served from a cache keyed by the model and
``CountTable.support``.  The problem every route reads is the pair's
``sparsity.ReducedProblem``, posed once per (model, support) on the
table it is asked about; the cache hands it to ``fr_check``, keeps it
beside the verdict, and ``glm.fit_pairs`` fits from it.  Every route
runs inside ``fr_check``, so its time is part of the check that needed
it.  ``ExistenceCache.check_many`` is a loop over ``check``.  SciPy's
``optimize`` module is imported by the first ``float_solve`` call, not
with this module.
"""

from __future__ import annotations

import itertools
import math
import operator
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

# the null-space route declines a pair that would try more sets of rows
# than this in its search for an extreme ray
NULL_SPACE_MAX_SUBSETS = 5000

# a float this close to 0 is read as 0 when a certificate is taken from
# the float solution; a wrong reading costs only the fallback
ACTIVE_TOL = 1e-9


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
    """HiGHS optimum of the program ``float_solve`` poses on V'."""

    value: float  # the optimum of sum(W u): 1 when the cone has a ray, else 0
    wu: np.ndarray  # W u at the optimum, one entry per zero cell
    duals: np.ndarray  # y >= 0 of W u >= 0, one per zero cell
    exponents: list[int]  # row i of W is row i of V' over 2^exponents[i]


def float_solve(v: Sequence[Sequence[int]]) -> FloatSolution | None:
    """Maximize sum(W u) subject to W u >= 0 and sum(W u) <= 1 over free u,
    in floating point.

    ``v`` is V' of ``null_space_form``, one row per zero cell, and W is V'
    with row i divided by 2^e_i, the least power of two above the row's
    largest absolute entry, so that HiGHS sees no entry above 1 however
    large V' grows.  As the columns of V' are independent, the optimum is
    1 when some u makes V' u nonzero and >= 0 and 0 when none does; with
    no column there is no variable, the optimum is 0 and no program is
    posed.  The solve has no time limit and HiGHS runs deterministically,
    so the same input gives the same solution.  None when HiGHS reports no
    optimum.
    """
    vf = np.array(v, dtype=float)
    exponents = np.frexp(np.abs(vf).max(axis=1, initial=0.0))[1]
    w = np.ldexp(vf, -exponents[:, None])
    n_rows, k = w.shape
    if k == 0:
        return FloatSolution(0.0, np.zeros(n_rows), np.zeros(n_rows), exponents.tolist())
    # imported here: the module is a third of the package's import time,
    # and most runs never reach this program
    from scipy import optimize

    total = w.sum(axis=0)
    b_ub = np.append(np.zeros(n_rows), 1.0)
    res = optimize.linprog(-total, A_ub=np.vstack([-w, total]), b_ub=b_ub,
                           bounds=(None, None), method="highs")
    if res.status != 0:
        return None
    duals = -res.ineqlin.marginals[:n_rows]
    return FloatSolution(-res.fun, w @ res.x, duals, exponents.tolist())


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


def _solve_exact(
    rows: Sequence[Sequence[int]], rhs: Sequence[int], n: int
) -> list[Fraction] | None:
    """One solution of rows . x = rhs over n unknowns, free unknowns at 0;
    None if the system is inconsistent."""
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


class NullSpaceForm(NamedTuple):
    """A pair's existence question as ``null_space_form`` poses it."""

    basis: list[list[int]]  # N: an integer basis of {w : A_S w = 0}
    kept: list[int]  # the independent columns of V = A_Z N that V' keeps
    v: list[list[int]]  # V', one row per zero cell


def null_space_form(problem: ReducedProblem, zero: Sequence[int]) -> NullSpaceForm:
    """N, the kept columns and V' for the cells ``zero`` of ``problem``.

    V = A_Z N is one exact integer matrix product: on int64 when the
    largest absolute row sum of N, which bounds every entry and partial
    sum, is below 2^63, and on Python ints otherwise.  When the whole
    reduced design provably has full column rank (``proves_full_rank``
    with no zero cell), V c = 0 only when N c = 0, so every column is
    kept; otherwise ``_eliminate`` keeps a maximal set of independent
    columns.  Either way V' has the values V u and independent columns.
    """
    n_params = len(problem.theta_dagger)
    zero_set = set(zero)
    basis = _null_space(
        [row for i, row in enumerate(problem.incidence) if i not in zero_set], n_params
    )
    bound = max((sum(map(abs, w)) for w in basis), default=0)
    dtype = np.int64 if bound < 2**63 else object
    n = np.array(basis, dtype=dtype).reshape(len(basis), n_params)
    v = (problem.contains[zero].astype(dtype) @ n.T).tolist()
    kept = list(range(len(basis)))
    if kept and not proves_full_rank(problem, []):
        _, kept = _eliminate(v, len(basis))
        v = [[row[c] for c in kept] for row in v]
    return NullSpaceForm(basis, kept, v)


def _ray(form: NullSpaceForm, rows: Sequence[Sequence[int]]) -> list[int] | None:
    """w = N g for the one null vector g of ``rows``, rows of V', when
    V' g is of one sign; None when the rows leave another null space or
    V' g takes both signs."""
    null = _null_space(rows, len(form.kept))
    if len(null) != 1:
        return None
    (g,) = null
    y = (sum(map(operator.mul, row, g)) for row in form.v)
    first = next((d for d in y if d), 0)
    if any(d * first < 0 for d in y):
        return None
    kept = [form.basis[c] for c in form.kept]
    return [sum(map(operator.mul, g, column)) for column in zip(*kept)]


def null_space_verdict(
    problem: ReducedProblem, zero: Sequence[int], form: NullSpaceForm
) -> bool | None:
    """Whether the estimate exists, decided exactly on ``form``, the pair's
    ``null_space_form``; None when the route declines.

    With N an integer basis of {w : A_S w = 0} (S the positive cells), a
    y = A w that vanishes on S is A N u, and its zero-cell part is V u for
    V = A_Z N.  V' keeps k' independent columns of V and has the same
    values V u, so the cone {u : V' u >= 0} is pointed.  For k' = 0 every
    such y is 0 and the estimate exists.  Otherwise the cone is {0} unless
    it has an extreme ray, which spans the null space of some k' - 1
    independent rows of V' and on which V' is of one sign.  So every set
    of k' - 1 distinct nonzero rows (up to scale) is tried by ``_ray``:
    when one names a ray, its w = N g is checked by ``_proves_failure``
    and the estimate does not exist; when none does, it exists.  The
    route declines a pair needing more than ``NULL_SPACE_MAX_SUBSETS``
    sets of rows.
    """
    k = len(form.kept)
    if k == 0:
        return True
    rows = set()
    for row in form.v:
        g = math.gcd(*row)
        if g:
            lead = next(a for a in row if a)
            rows.add(tuple(a // g if lead > 0 else -a // g for a in row))
    if math.comb(len(rows), k - 1) > NULL_SPACE_MAX_SUBSETS:
        return None
    for subset in itertools.combinations(sorted(rows), k - 1):
        w = _ray(form, subset)
        if w is not None:
            # a failure verdict stands only on its checked certificate
            return False if _proves_failure(w, problem.params_of_cell, zero) else None
    return True


def certify(
    problem: ReducedProblem, zero: Sequence[int], form: NullSpaceForm
) -> bool | None:
    """The verdict of ``float_solve`` on ``form.v`` once an exact
    certificate confirms it; None when the certificate does not verify or
    HiGHS reports no optimum.

    Optimum 1: the rows of V' that W u leaves at 0 name a ray g, which
    ``_ray`` and ``_proves_failure`` check as ``null_space_verdict`` checks
    one, and the estimate does not exist.  Optimum 0: the duals y of
    W u >= 0 make W^T (1 + y) = 0, so lambda_i = 2^(E - e_i) (1 + y_i),
    with e_i the scale exponent of row i and E the largest, has
    V'^T lambda = 0.  On the zero cells where y_i is 0 that fixes
    lambda_i = 2^(E - e_i); V'^T lambda = 0 is solved exactly for the
    rest, and lambda > 0 proves that the estimate exists: lambda^T V' u = 0
    leaves no u with V' u nonzero and >= 0 (Stiemke's lemma).
    """
    sol = float_solve(form.v)
    if sol is None:
        return None
    if sol.value > 0.5:
        active = [row for row, x in zip(form.v, sol.wu) if abs(x) <= ACTIVE_TOL]
        w = _ray(form, active)
        return False if _proves_failure(w, problem.params_of_cell, zero) else None
    top = max(sol.exponents)
    shifts = [top - e for e in sol.exponents]
    pushed = [i for i, y in enumerate(sol.duals) if y > ACTIVE_TOL]
    fixed = sorted(set(range(len(shifts))) - set(pushed))
    columns = list(zip(*form.v))
    lam = _solve_exact(
        [[col[i] for i in pushed] for col in columns],
        [-sum(col[i] << shifts[i] for i in fixed) for col in columns],
        len(pushed),
    )
    return True if lam is not None and all(x > 0 for x in lam) else None


# an ``ExistenceCache`` key: the model's parameters, which name the number
# of lists, and the table's support
Key = tuple[frozenset[int], frozenset[int]]


def fr_check(
    model: ModelSpec,
    table: CountTable,
    tally: Counter | None = None,
    problem: ReducedProblem | None = None,
) -> bool:
    """Whether the extended maximum likelihood estimate exists.

    Fast path: when every retained cell has a positive count the data
    vector itself is a feasible point with positive slack; a table with
    every cell positive is decided so before any problem is built.  A
    table where the reduction removes every cell cannot identify any
    parameter.
    Otherwise a full column rank of the positive cells' incidence rows
    (``proves_full_rank``) proves existence, and failing that the pair's
    ``null_space_form`` is built once: ``null_space_verdict`` decides on
    it, and when it declines, ``certify`` decides from HiGHS's answer on
    the same form, and ``lp_max_s`` when it cannot.

    ``problem`` is the pair's reduction, made here when not given, and
    ``tally``, when given, counts the route taken under its key.  A model
    on another number of lists than ``table`` raises ``ValueError``.
    """
    check_lists(model, table)
    if _full_support(table):
        verdict, route = True, FAST_PATH
    else:
        verdict, route = _decide(problem or reduce_for_sparsity(model, table), table)
    if tally is not None:
        tally[route] += 1
    return verdict


def check_lists(model: ModelSpec, table: CountTable) -> None:
    """Raise ``ValueError`` when ``model`` and ``table`` are on different
    numbers of lists."""
    if model.t != table.t:
        raise ValueError(
            f"model {model.notation()} is on {model.t} lists, the table on {table.t}"
        )


def _full_support(table: CountTable) -> bool:
    """Every cell of ``table`` is positive, hence every retained one."""
    return len(table.support) == (1 << table.t) - 1


def _decide(problem: ReducedProblem, table: CountTable) -> tuple[bool, str]:
    """``fr_check``'s verdict and route on a table with a zero cell."""
    zero = problem.zero_cells(table)
    if not problem.omega_dagger or not zero:
        return bool(problem.omega_dagger), FAST_PATH
    if proves_full_rank(problem, zero):
        return True, RANK
    form = null_space_form(problem, zero)
    verdict = null_space_verdict(problem, zero, form)
    if verdict is not None:
        return verdict, NULL_SPACE
    verdict = certify(problem, zero, form)
    if verdict is not None:
        return verdict, CERTIFIED
    status, s_star = lp_max_s(problem, table)
    return status == OPTIMAL and s_star > 0, FALLBACK


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

    verdicts: dict[Key, bool] = field(default_factory=dict, init=False)
    reductions: dict[Key, ReducedProblem] = field(default_factory=dict, init=False)
    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    decided: Counter = field(default_factory=Counter, init=False)

    def check(self, model: ModelSpec, table: CountTable) -> bool:
        """The cached verdict, or ``fr_check`` on a miss.  A miss whose
        table has a zero cell is reduced here, and ``fr_check`` decides
        from that reduction, which is kept.  A model on another number
        of lists than ``table`` raises ``ValueError``, on a hit too."""
        check_lists(model, table)
        key = (model.params, table.support)
        cached = self.verdicts.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        problem = None if _full_support(table) else reduce_for_sparsity(model, table)
        verdict = fr_check(model, table, self.decided, problem)
        self.verdicts[key] = verdict
        if problem is not None:
            # the fit reads the three fields only: the incidence arrays
            # the routes built are let go with ``problem``
            self.reductions[key] = replace(problem)
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
        """``check`` on every (model, table) pair, in order, so hits, misses
        and ``decided`` count as a loop over ``check`` does."""
        return [self.check(model, table) for model, table in pairs]
