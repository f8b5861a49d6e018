"""Workload definitions and their seeded inputs.

A workload is one ``mseboot bootstrap`` command line.  The workload seed
is passed to mseboot as ``--seed`` and, for ``wide_t6_downhill``, also
drives the generator of the input table, which mseboot only sees as an
aggregated CSV file.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixture: str | None  # bundled dataset, or None for a generated table
    args: tuple[str, ...]  # CLI arguments after the --data option
    t: int
    l: int
    space_size: int  # hierarchical models with interaction order <= l
    B: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="korea_sweep",
            why="headline sweep on bundled Korea data; IRLS fits are ~90% of "
            "the run, so glm.fit moves run_s and replicates_per_s here and "
            "existence and neighbors should not",
            fixture="korea",
            args=("--sweep", "--reps", "1000"),
            t=3, l=2, space_size=8, B=1000,
        ),
        Workload(
            name="sparse_n1_top10",
            why="sparse 4-list table whose resamples change support; exact "
            "existence LPs dominate, so existence moves run_s here and "
            "should not on korea_sweep or wide_t6_downhill",
            fixture="table1_n1",
            args=("--ntop", "10", "--reps", "200"),
            t=4, l=3, space_size=113, B=200,
        ),
        Workload(
            name="wide_t6_downhill",
            why="seeded dense 6-list table via CSV; greedy search and the 63 "
            "jackknife tables dominate, so reduce, design and neighbors move "
            "run_s here and not on korea_sweep",
            fixture=None,
            args=("--method", "downhill", "--max-order", "2", "--reps", "10"),
            t=6, l=2, space_size=2 ** 15, B=10,
        ),
    )
}

WIDE_T = 6
WIDE_N_TOTAL = 30000
WIDE_N_PAIRS = 4
# no resample of 30000 cases empties a cell this full, so existence is
# always settled without a linear program
WIDE_MIN_CELL = 20


def wide_table(seed: int) -> dict[int, int]:
    """Dense 6-list table drawn from a loglinear model with four random
    pairwise interactions; every one of the 63 cells holds at least
    ``WIDE_MIN_CELL`` cases.

    Only ``seed`` drives it: the generator is seeded from a string, which
    Python hashes with SHA-512, so the table is the same on every
    platform.  A draw with a thinner cell is discarded, model and all.
    """
    rng = random.Random(f"wide_t6_downhill:{seed}")
    pairs = [(i, j) for i in range(WIDE_T) for j in range(i + 1, WIDE_T)]
    cells = list(range(1, 1 << WIDE_T))
    for _ in range(100):
        main = [rng.uniform(-0.8, 0.0) for _ in range(WIDE_T)]
        inter = {
            pair: rng.uniform(0.3, 0.8) * rng.choice((-1.0, 1.0))
            for pair in rng.sample(pairs, WIDE_N_PAIRS)
        }
        weights = []
        for w in cells:
            x = [(w >> i) & 1 for i in range(WIDE_T)]
            eta = sum(a * xi for a, xi in zip(main, x))
            eta += sum(g * x[i] * x[j] for (i, j), g in inter.items())
            weights.append(math.exp(eta))
        counts = dict.fromkeys(cells, 0)
        for w in rng.choices(cells, weights, k=WIDE_N_TOTAL):
            counts[w] += 1
        if min(counts.values()) >= WIDE_MIN_CELL:
            return counts
    raise RuntimeError(f"no table with every cell >= {WIDE_MIN_CELL} for seed {seed}")


def write_table(counts: dict[int, int], t: int, path: Path) -> None:
    """Aggregated CSV: one 0/1 column per list, then ``count``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow([f"L{i + 1}" for i in range(t)] + ["count"])
        for w, n in counts.items():
            writer.writerow([(w >> i) & 1 for i in range(t)] + [n])


def read_table(path: Path) -> dict[int, int]:
    """Counts of an aggregated CSV, keyed by capture-history bit mask."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    counts: dict[int, int] = {}
    for row in rows[1:]:
        mask = sum(int(v) << i for i, v in enumerate(row[:-1]))
        counts[mask] = counts.get(mask, 0) + int(row[-1])
    return counts


@dataclass(frozen=True)
class Prepared:
    """One workload at one seed: the CLI argv and the counts it reads."""

    workload: Workload
    seed: int
    argv: tuple[str, ...]
    counts: dict[int, int]

    @property
    def n_total(self) -> int:
        return sum(self.counts.values())

    @property
    def positive_cells(self) -> int:
        return sum(1 for n in self.counts.values() if n > 0)

    @property
    def units(self) -> int:
        """Bootstrap replicates plus jackknife tables (one per positive cell)."""
        return self.workload.B + self.positive_cells

    def shape(self) -> dict:
        return {
            "t": self.workload.t,
            "l": self.workload.l,
            "model_space_size": self.workload.space_size,
            "B": self.workload.B,
            "jackknife_tables": self.positive_cells,
            "positive_cells": self.positive_cells,
            "n_total": self.n_total,
        }


def prepare(name: str, seed: int, root: Path, work_dir: Path) -> Prepared:
    """Build the inputs of workload ``name`` for ``seed``."""
    w = WORKLOADS[name]
    if w.fixture is not None:
        path = root / "src" / "mseboot" / "data" / f"{w.fixture}.csv"
        counts = read_table(path)
        data = f"fixture:{w.fixture}"
    else:
        counts = wide_table(seed)
        path = work_dir / f"{w.name}_seed{seed}.csv"
        write_table(counts, w.t, path)
        data = str(path.relative_to(root))
    argv = ("bootstrap", "--data", data, *w.args, "--seed", str(seed), "--workers", "1")
    return Prepared(w, seed, argv, counts)
