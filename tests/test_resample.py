"""The vectorized replicate draw and the array record fill, against the
per-replicate and per-row code they replace, compared with ``==``."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mseboot import (
    CountTable,
    chisq_bootstrap,
    diagnostics,
    downhill_bootstrap,
    glm,
    load_fixture,
    ntop_sweep,
    restricted_bootstrap,
)
from mseboot._seedseq import generate_states
from mseboot.bootstrap import (
    _record_fills,
    _ReplicateSeed,
    replicate_rng,
    resample,
    resamples,
)

from conftest import random_table

SEEDS = (0, 1, 7, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3)
INDICES = (0, 1, 2, 999, 2**31, 2**32 - 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_states_equal_seed_sequence(seed):
    states = generate_states(seed, np.array(INDICES))
    assert states.shape == (len(INDICES), 4) and states.dtype == np.uint64
    for i, row in zip(INDICES, states):
        expected = np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
        assert row.tolist() == expected.tolist()


def test_states_reject_indices_beyond_one_word():
    with pytest.raises(ValueError):
        generate_states(3, np.array([2**32]))
    with pytest.raises(ValueError):
        generate_states(3, np.array([-1]))


def test_a_replicate_seed_gives_only_what_pcg64_asks_for():
    seed = _ReplicateSeed(generate_states(3, np.arange(1))[0])
    with pytest.raises(ValueError):
        seed.generate_state(8, np.uint32)


def _tables():
    yield load_fixture("korea")[0]
    yield load_fixture("table1_n1")[0]
    # dense six lists, as the benchmark's greedy-search workload reads
    yield random_table(np.random.default_rng(21), 6, mean=40.0)


@pytest.mark.parametrize("table", list(_tables()), ids=["korea", "table1_n1", "t6"])
@pytest.mark.parametrize("seed", [0, 3, 404, 2**40 + 9])
def test_resamples_equal_one_generator_per_replicate(table, seed):
    B = 120
    got = resamples(table, seed, B)
    expected = [resample(table, replicate_rng(seed, i)) for i in range(B)]
    assert got == expected
    assert [list(t.counts.items()) for t in got] == [
        list(t.counts.items()) for t in expected
    ]


def test_resamples_call_resample_once_per_replicate(monkeypatch):
    from mseboot import bootstrap

    calls = []

    def counting(table, rng):
        calls.append(rng)
        return resample(table, rng)

    monkeypatch.setattr(bootstrap, "resample", counting)
    resamples(load_fixture("korea")[0], 5, 17)
    assert len(calls) == 17


def frozen_resample(table, rng):
    """``resample`` as it was when every resample went through
    ``CountTable.from_counts``."""
    masks = list(table.counts)
    probs = np.array([table.counts[m] for m in masks], dtype=float)
    draw = rng.multinomial(table.n_total, probs / probs.sum())
    return CountTable.from_counts(
        table.t, {m: int(k) for m, k in zip(masks, draw) if k > 0}
    )


@pytest.mark.parametrize("seed", range(6))
def test_resample_of_a_non_canonical_table_equals_from_counts(seed):
    # built from its cells out of canonical order, a table holds them in
    # canonical order, and its resamples are the ones ``from_counts`` built
    base = random_table(np.random.default_rng(seed), 4, zero_prob=0.3)
    cells = list(base.counts.items())
    np.random.default_rng(seed + 100).shuffle(cells)
    table = CountTable(4, dict(cells))
    assert list(table.counts.items()) == list(base.counts.items())
    for i in range(20):
        got = resample(table, replicate_rng(seed, i))
        expected = frozen_resample(table, replicate_rng(seed, i))
        assert list(got.counts.items()) == list(expected.counts.items())


@pytest.mark.parametrize("direct", [False, True], ids=["canonical", "zero listed"])
def test_a_resample_keeping_every_cell_shares_the_support(direct):
    korea = load_fixture("korea")[0]
    # a table built from a listed zero count drops it, so both are korea
    table = CountTable(3, {**korea.counts, 6: 0}) if direct else korea
    shared = dropped = 0
    for rep in resamples(table, 0, 200):
        positive = frozenset(m for m, n in rep.counts.items() if n > 0)
        assert rep.support == positive
        if positive == table.support:
            assert rep.support is table.support
            shared += 1
        else:
            assert rep.support is not table.support
            dropped += 1
    assert shared and dropped


def frozen_record_fill(bics, ests):
    """``_record_fill`` as it was, one row at a time."""
    nh = len(bics)
    filled = np.full(nh, np.nan)
    records = []
    j_prev = nh + 1
    while j_prev > 1:
        prefix = bics[: j_prev - 1]
        j_k = int(np.argmin(prefix)) + 1
        if math.isinf(bics[j_k - 1]):
            break
        records.append(j_k)
        filled[j_k - 1 : j_prev - 1] = ests[j_k - 1]
        j_prev = j_k
    return tuple(records), filled


def _rows(seed, n_rows, n_cols):
    rng = np.random.default_rng(seed)
    # few distinct values, so ties are common
    bics = rng.integers(0, 4, size=(n_rows, n_cols)).astype(float)
    bics[rng.random((n_rows, n_cols)) < 0.3] = np.inf
    bics[0, 0] = np.inf
    bics[1] = np.inf
    ests = rng.normal(size=(n_rows, n_cols)) * 100
    ests[rng.random((n_rows, n_cols)) < 0.1] = np.nan
    return bics, ests


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n_cols", [1, 2, 9])
def test_record_fills_equal_the_row_walk(seed, n_cols):
    bics, ests = _rows(seed, 40, n_cols)
    filled = _record_fills(bics, ests)
    assert filled.shape == bics.shape
    for i in range(len(bics)):
        _, expected_filled = frozen_record_fill(bics[i], ests[i])
        np.testing.assert_array_equal(filled[i], expected_filled)
    assert np.isnan(filled[1]).all()


@pytest.mark.parametrize("driver", [
    lambda t, s: restricted_bootstrap(t, s, B=5, seed=-1),
    lambda t, s: ntop_sweep(t, s, B=5, seed=-1),
    lambda t, s: downhill_bootstrap(t, B=5, seed=-1),
    lambda t, s: chisq_bootstrap(t, s, B=5, seed=-1),
    lambda t, s: diagnostics(t, s, B=5, seed=-1),
], ids=["restricted", "sweep", "downhill", "chisq", "diagnostics"])
def test_drivers_reject_a_negative_seed_before_any_fit(
    monkeypatch, korea, korea_space, driver
):
    calls = []
    monkeypatch.setattr(glm, "fit", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        driver(korea, korea_space)
    assert calls == []


def test_cli_import_leaves_out_numpy_random():
    # numpy.random is imported at the first draw, not at start-up
    import mseboot

    code = "import sys, mseboot.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(mseboot.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env,
    )
    assert out.stdout.strip() == "False"
