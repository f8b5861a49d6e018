"""``glm.fit_pairs``: flat (model, table) pairs, grouped by (model, support)
in one place.

A pair's result must not depend on the other pairs it is fitted with, on
their order or on a duplicate, and a model on another number of lists
than its table must be refused by every fitting and existence entry
point before anything is fitted.
"""

import numpy as np
import pytest

from mseboot import (
    CountTable,
    ExistenceCache,
    ModelSpec,
    chisq_bootstrap,
    diagnostics,
    downhill_bootstrap,
    enumerate_models,
    existence,
    fit,
    fr_check,
    glm,
    ntop_sweep,
    restricted_bootstrap,
    select_best_bic,
    select_by_chisq,
)
from mseboot import cli
from mseboot.bootstrap import replicate_rng, resample
from mseboot.glm import STATUS_FR_FAILED, fit_pairs

from conftest import KOREA_COUNTS, TABLE1


@pytest.mark.parametrize("seed", [0, 1])
def test_pair_order_and_duplicates_do_not_change_a_fit(seed):
    rng = np.random.default_rng(seed)
    n2 = CountTable.from_counts(4, TABLE1["n2"])
    tables = [n2] + [resample(n2, replicate_rng(seed, i)) for i in range(40)]
    models = enumerate_models(4, 2).models[::4]
    pairs = [(m, t) for t in tables for m in models]
    # duplicate pairs, the same objects and equal copies, then shuffled
    duplicates = [pairs[k] for k in rng.choice(len(pairs), 20, replace=False)]
    pairs += duplicates + [(m, CountTable(4, dict(t.counts))) for m, t in duplicates[:5]]
    pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    keys = {(m.params, t.support) for m, t in pairs}
    assert len({t.support for _, t in pairs}) > 2 and len(keys) < len(pairs)

    cache = ExistenceCache()
    results = list(fit_pairs(pairs, cache=cache))
    assert len(results) == len(pairs)
    for (model, table), got in zip(pairs, results):
        assert got.model == model
        assert got == fit(model, table)
    statuses = {r.status for r in results}
    assert STATUS_FR_FAILED in statuses and glm.STATUS_CONVERGED in statuses
    # one existence lookup per (model, support)
    assert cache.hits + cache.misses == len(keys)


KOREA = CountTable.from_counts(3, KOREA_COUNTS)
SPACE4 = enumerate_models(4, 2)
NULL4 = ModelSpec.null_model(4)

# every entry point given a 4-list model or space on the 3-list Korea table
ENTRY_POINTS = {
    "fit": lambda: fit(NULL4, KOREA),
    "fit_pairs": lambda: list(fit_pairs([(ModelSpec.null_model(3), KOREA), (NULL4, KOREA)])),
    "select_best_bic": lambda: select_best_bic(SPACE4.models, KOREA),
    "select_by_chisq": lambda: select_by_chisq(SPACE4.models, KOREA, 0.0, 1.0),
    "restricted_bootstrap": lambda: restricted_bootstrap(KOREA, SPACE4, B=5),
    "ntop_sweep": lambda: ntop_sweep(KOREA, SPACE4, B=5),
    "downhill_bootstrap": lambda: downhill_bootstrap(KOREA, l=2, B=5, starts=[NULL4]),
    "chisq_bootstrap": lambda: chisq_bootstrap(KOREA, SPACE4, B=5, p_lo=0.0, p_hi=1.0),
    "diagnostics": lambda: diagnostics(KOREA, SPACE4, B=5, ntop_grid=(1,)),
    "fr_check": lambda: fr_check(NULL4, KOREA),
    "ExistenceCache.check": lambda: ExistenceCache().check(NULL4, KOREA),
    "ExistenceCache.check_many": lambda: ExistenceCache().check_many([(NULL4, KOREA)]),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_a_model_on_another_number_of_lists_is_refused(entry, monkeypatch):
    def nothing(*args, **kwargs):
        raise AssertionError("reduced or fitted before the list counts were checked")

    for module in (existence, glm):
        monkeypatch.setattr(module, "reduce_for_sparsity", nothing)
    monkeypatch.setattr(glm, "solve_groups", nothing)
    with pytest.raises(ValueError, match=r"\[1,2,3,4\] is on 4 lists, the table on 3"):
        ENTRY_POINTS[entry]()


def test_cli_fit_refuses_a_space_on_another_number_of_lists(capsys, monkeypatch):
    # ``fit`` enumerates the table's own space; given another, it exits 2
    monkeypatch.setattr(cli, "enumerate_models", lambda t, l: SPACE4)
    code = cli.main(["fit", "--data", "fixture:korea"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "is on 4 lists, the table on 3" in captured.err
