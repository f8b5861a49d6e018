import numpy as np
import pytest

from mseboot import CountTable, ModelSpec, enumerate_models
from mseboot import glm, sparsity

# The bundled Korea table (described under "Bundled data" in README.md):
# lists B, C, D mapped to bits 1, 2, 4.
KOREA_COUNTS = {
    0b111: 12,
    0b011: 54,
    0b101: 6,
    0b001: 5,
    0b010: 5,
    0b100: 41,
}

# Four sparse four-list tables sharing the same singleton counts.
A, B, C, D = 1, 2, 4, 8
_TABLE1_BASE = {A: 13, B: 16, C: 12, D: 11, A | B: 3, B | D: 4}
TABLE1 = {
    "n1": {**_TABLE1_BASE, A | B | C: 2, A | C | D: 1, B | C | D: 1},
    "n2": {**_TABLE1_BASE, A | B | C: 2},
    "n3": dict(_TABLE1_BASE),
    "n4": {**_TABLE1_BASE, A | B: 0, A | B | C: 2},
}


@pytest.fixture
def korea():
    return CountTable.from_counts(3, KOREA_COUNTS)


@pytest.fixture(scope="session")
def korea_space():
    return enumerate_models(3, 2)


@pytest.fixture
def table1():
    return {k: CountTable.from_counts(4, v) for k, v in TABLE1.items()}


@pytest.fixture
def abcd_model():
    return ModelSpec.from_notation("[123,14]", 4)


def random_table(rng: np.random.Generator, t: int, mean: float = 8.0,
                 zero_prob: float = 0.0) -> CountTable:
    """Random positive table; optionally zero out cells to make it sparse."""
    counts = {}
    for mask in range(1, 1 << t):
        if rng.random() < zero_prob:
            continue
        counts[mask] = int(rng.poisson(mean)) + 1
    if not counts:
        counts[1] = 1
    return CountTable.from_counts(t, counts)


def marginal_count(table: CountTable, theta: int) -> int:
    """Total count over the observed histories containing ``theta``; for
    theta = 0 the number of observed cases."""
    return sum(n for mask, n in table.counts.items() if mask & theta == theta)


def reduced(problems):
    """(model, tables sharing one support) problems as the (reduction,
    tables) problems ``glm.solve_groups`` takes, each model reduced on its
    group's support.  ``sparsity.reduce_for_sparsity`` is looked up at each
    call, so a test may replace it."""
    return [(sparsity.reduce_for_sparsity(model, tables[0]), tables)
            for model, tables in problems]


def unchecked_fits(problems):
    """Each (model, tables sharing one support) problem's fits with no
    existence check, as lists of ``FitResult``: the IRLS engine's own
    outcomes (``glm.solve_groups``), ``diverged``, ``parameter_redundant``
    and ``no_cells_left`` rows included, each read by ``glm.fit`` from its
    solved row."""
    problems = list(problems)
    solutions = glm.solve_groups(reduced(problems))
    return [
        [glm.fit(model, t, glm.FitSettings(), (solution, i))
         for i, t in enumerate(tables)]
        for (model, tables), solution in zip(problems, solutions)
    ]


def least_squares_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution of ``A[k] x = b[k]`` for every k, as rows:
    one request driven through ``glm._pipeline`` on its own, so a request
    of at least ``glm.SPLIT_ELEMENTS`` elements is cut into one chunk of
    rows per CPU, the first solved by this thread and the others by the
    pool."""
    def request():
        return (yield A, b)

    [(_, x)] = glm._pipeline([(None, request())])
    return x
