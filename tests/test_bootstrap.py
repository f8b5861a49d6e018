import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from mseboot import (
    CountTable,
    ExistenceCache,
    ModelSpec,
    NoModelFoundError,
    bca_components,
    bca_interval,
    chisq_bootstrap,
    diagnostics,
    downhill_bootstrap,
    enumerate_models,
    jackknife_tables,
    ntop_sweep,
    resample,
    restricted_bootstrap,
    select_best_bic,
)
from mseboot import bootstrap, existence, glm
from mseboot.bootstrap import (
    DEFAULT_LEVELS,
    IntervalResult,
    _downhill_selected,
    _evaluate_models,
    _record_fills,
    adjusted_level,
    replicate_rng,
)
from mseboot.glm import FitSettings
from mseboot.modelspace import ModelSpaceError

from conftest import KOREA_COUNTS, TABLE1, random_table
from driver_oracle import (
    assert_sweep_matches_the_oracle,
    oracle_chisq_bootstrap,
    oracle_diagnostics,
    oracle_restricted_bootstrap,
)


def three_search_downhill(table, l=None, B=1000, levels=DEFAULT_LEVELS,
                          seed=0, starts=None, settings=FitSettings()):
    """``downhill_bootstrap`` as it was when the original table, the
    resamples and the jackknife tables were searched one after another."""
    if l is None:
        l = table.t - 1
    cache = ExistenceCache()
    if starts is None:
        starts = [ModelSpec.null_model(table.t)]

    def selected(tables):
        found = _downhill_selected(tables, l, starts, cache, settings)
        return [None if f is None else f[2] for f in found]

    (found,) = _downhill_selected([table], l, starts, cache, settings)
    if found is None:
        raise NoModelFoundError("greedy search found no model with finite BIC")
    best_model, _, m_hat = found

    boot = selected([resample(table, replicate_rng(seed, i)) for i in range(B)])
    jack_masks, jack_tables = zip(*jackknife_tables(table))
    jack = list(zip(jack_masks, selected(jack_tables)))
    comps = bca_components(boot, jack, table, m_hat)
    return IntervalResult(
        point_estimate=m_hat,
        intervals=bca_interval(comps, m_hat, levels),
        method="downhill",
        B=B,
        seed=seed,
        selected_model=best_model.notation(),
        z0_hat=comps.z0_hat,
        a_hat=comps.a_hat,
        excluded_boot=comps.excluded_boot,
        excluded_jack=comps.excluded_jack,
        flags=comps.flags,
    )


class TestResample:
    def test_single_cell_degenerate(self):
        table = CountTable.from_counts(2, {0b01: 17})
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert resample(table, rng) == table

    def test_total_preserved(self, korea):
        rng = np.random.default_rng(1)
        for _ in range(50):
            rep = resample(korea, rng)
            assert rep.n_total == korea.n_total
            assert rep.support <= korea.support

    def test_cell_means_match_multinomial(self, korea):
        reps = 10_000
        sums = {m: 0 for m in korea.counts}
        rng = np.random.default_rng(2)
        for _ in range(reps):
            rep = resample(korea, rng)
            for m in sums:
                sums[m] += rep.count(m)
        n = korea.n_total
        for m, total in sums.items():
            p = korea.count(m) / n
            se = math.sqrt(n * p * (1 - p) / reps)
            assert abs(total / reps - korea.count(m)) <= 3 * se


class TestJackknife:
    def test_korea_has_six_tables(self, korea):
        assert len(jackknife_tables(korea)) == 6

    def test_totals_drop_by_one(self, korea):
        for _, jt in jackknife_tables(korea):
            assert jt.n_total == korea.n_total - 1

    def test_unit_cell_shrinks_support(self):
        table = CountTable.from_counts(2, {0b01: 1, 0b10: 5})
        tabs = dict(jackknife_tables(table))
        assert tabs[0b01].support == {0b10}
        assert tabs[0b10].support == {0b01, 0b10}

    def test_a_listed_zero_cell_gives_no_table(self, korea):
        # korea has no case in cell 23; listed at 0 it is still no cell
        listed = CountTable(3, {**korea.counts, 0b110: 0})
        got = jackknife_tables(listed)
        assert [mask for mask, _ in got] == list(korea.counts)
        assert got == jackknife_tables(korea)


class TestBcaFormula:
    def test_no_correction_recovers_percentile(self):
        for beta in (0.025, 0.1, 0.5, 0.9, 0.975):
            assert adjusted_level(0.0, 0.0, beta) == pytest.approx(beta, abs=1e-12)

    def test_known_adjustment(self):
        # z0 = 0.1, a = 0.05, beta = 0.975 worked through the formula
        got = adjusted_level(0.1, 0.05, 0.975)
        assert got == pytest.approx(0.99174, abs=5e-5)

    def test_non_positive_denominator_returns_none(self):
        assert adjusted_level(2.0, 0.5, 0.975) is None


class TestBcaComponents:
    def _components(self, boot, jack, table, m_hat):
        return bca_components(boot, jack, table, m_hat)

    def test_weighted_jackknife_mean(self, korea):
        jack = [(m, 100.0 + m) for m in korea.counts]
        comps = self._components([90.0, 110.0], jack, korea, 100.0)
        num = sum(korea.count(m) * (100.0 + m) for m in korea.counts)
        assert comps.jackknife_mean == pytest.approx(num / korea.n_total)

    def test_acceleration_from_sums(self, korea):
        jack = [(m, float(m)) for m in korea.counts]
        comps = self._components([1.0, 2.0, 3.0], jack, korea, 2.0)
        assert comps.a_hat == pytest.approx(comps.s3 / (6 * comps.s2**1.5))

    def test_z0_from_proportion_below(self, korea):
        from scipy.special import ndtr

        jack = [(m, float(m)) for m in korea.counts]
        boot = [1.0, 2.0, 3.0, 4.0]
        comps = self._components(boot, jack, korea, 3.5)
        assert ndtr(comps.z0_hat) == pytest.approx(0.75)

    def test_all_one_side_clamped(self, korea):
        jack = [(m, float(m)) for m in korea.counts]
        comps = self._components([5.0, 6.0], jack, korea, 1.0)
        assert "z0_clamped" in comps.flags

    def test_excluded_counted(self, korea):
        jack = [(m, float(m)) for m in korea.counts]
        comps = self._components([1.0, None, 2.0, None], jack, korea, 1.5)
        assert comps.excluded_boot == 2
        assert len(comps.boot_estimates) == 2

    def test_all_excluded_raises(self, korea):
        jack = [(m, float(m)) for m in korea.counts]
        with pytest.raises(NoModelFoundError):
            self._components([None, None], jack, korea, 1.0)

    def test_endpoints_are_order_statistics(self, korea):
        rng = np.random.default_rng(3)
        boot = rng.normal(100, 20, size=200).tolist()
        jack = [(m, float(100 + rng.normal())) for m in korea.counts]
        comps = self._components(boot, jack, korea, 100.0)
        intervals = bca_interval(comps, 100.0, levels=(0.8, 0.95))
        for lo, hi in intervals.values():
            assert lo in boot and hi in boot
            assert min(boot) <= lo <= hi <= max(boot)


class TestRecordFill:
    @pytest.mark.parametrize("seed", range(10))
    def test_equals_prefix_minimum_selection(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        bics = rng.normal(size=n)
        bics[rng.random(n) < 0.3] = np.inf
        ests = rng.normal(size=n) * 100
        filled = _record_fills(bics[None], ests[None])[0]
        for j in range(1, n + 1):
            prefix = bics[:j]
            k = int(np.argmin(prefix))
            if math.isinf(prefix[k]):
                assert math.isnan(filled[j - 1])
            else:
                assert filled[j - 1] == ests[k]


class TestRestrictedBootstrap:
    def test_rejects_zero_replications(self, korea, korea_space):
        with pytest.raises(ValueError):
            restricted_bootstrap(korea, korea_space, B=0)

    def test_two_replications_run(self, korea, korea_space):
        res = restricted_bootstrap(korea, korea_space, B=2, n_top=1, seed=5)
        assert res.B == 2
        for lo, hi in res.intervals.values():
            assert lo <= hi

    def test_ntop_one_conditions_on_selected_model(self, korea, korea_space):
        res = restricted_bootstrap(korea, korea_space, B=40, n_top=1, seed=6)
        assert res.selected_model == "[12,23]"
        assert res.point_estimate == pytest.approx(157.2, abs=0.05)

    def test_same_seed_reproduces(self, korea, korea_space):
        a = restricted_bootstrap(korea, korea_space, B=50, n_top=2, seed=7)
        b = restricted_bootstrap(korea, korea_space, B=50, n_top=2, seed=7)
        assert a == b

    def test_a_table_listing_a_zero_cell_gives_its_twins_result(
        self, korea, korea_space
    ):
        listed = CountTable(3, {**korea.counts, 0b110: 0})
        got = restricted_bootstrap(listed, korea_space, B=40, n_top=2, seed=4)
        assert got == restricted_bootstrap(korea, korea_space, B=40, n_top=2, seed=4)

    def test_degree_orderings_agree_at_extremes(self, korea, korea_space):
        # identical at n_top = 1 and n_top = |space| for the same seed
        for n_top in (1, len(korea_space)):
            d1 = restricted_bootstrap(
                korea, korea_space, B=40, n_top=n_top, seed=9, degree=1
            )
            d2 = restricted_bootstrap(
                korea, korea_space, B=40, n_top=n_top, seed=9, degree=2
            )
            assert d1.intervals == d2.intervals


class TestSweep:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_restriction(self, seed, korea_space):
        table = random_table(np.random.default_rng(seed), 3, zero_prob=0.2)
        B = 20
        cache = ExistenceCache()
        state, results = ntop_sweep(table, korea_space, B=B, seed=seed, cache=cache)
        # oracle: the frozen restricted bootstrap re-selects directly among
        # the top-j models per replicate
        for j in (1, 2, len(korea_space)):
            direct = oracle_restricted_bootstrap(
                table, korea_space, B=B, n_top=j, seed=seed, cache=cache
            )
            assert results[j].intervals == direct.intervals

    def test_filled_estimates_equal_restricted_min(self, korea, korea_space):
        state, _ = ntop_sweep(korea, korea_space, B=30, seed=11)
        B, nh = state.bic_array.shape
        for i in range(B):
            for j in range(nh):
                prefix = state.bic_array[i, : j + 1]
                k = int(np.argmin(prefix))
                if math.isinf(prefix[k]):
                    assert math.isnan(state.filled_estimates[i, j])
                else:
                    assert state.filled_estimates[i, j] == state.estimate_array[i, k]


class TestDownhillBootstrap:
    def test_a_table_listing_a_zero_cell_gives_its_twins_result(self, korea):
        listed = CountTable(3, {**korea.counts, 0b110: 0})
        got = downhill_bootstrap(listed, B=40, seed=4)
        assert got == downhill_bootstrap(korea, B=40, seed=4)

    def test_korea_matches_exhaustive_point_estimate(self, korea):
        res = downhill_bootstrap(korea, B=30, seed=12)
        assert res.selected_model == "[12,23]"
        assert round(res.point_estimate) == 157

    def test_agrees_with_select_best_bic_on_original(self, korea_space):
        table = random_table(np.random.default_rng(13), 3)
        res = downhill_bootstrap(table, B=2, seed=13)
        model, fit_res = select_best_bic(korea_space.models, table)
        assert res.selected_model == model.notation()
        assert res.point_estimate == pytest.approx(fit_res.population_estimate)

    @pytest.mark.parametrize("l", [0, 3])
    def test_max_order_outside_range_rejected_before_any_fit(self, l, monkeypatch):
        # on this table a search with l=3 reaches [12,13,23] and would
        # propose the saturated model
        table = CountTable.from_counts(
            3, {1: 300, 2: 300, 4: 300, 3: 20, 5: 20, 6: 20, 7: 200}
        )
        calls = []
        monkeypatch.setattr(glm, "fit", lambda *a, **k: calls.append(a))
        with pytest.raises(ModelSpaceError, match=f"1..t-1, got l={l}"):
            downhill_bootstrap(table, l=l, B=2, seed=1)
        assert calls == []

    def test_no_starts_rejected_before_any_fit(self, korea, monkeypatch):
        calls = []
        monkeypatch.setattr(glm, "fit", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="at least one starting model"):
            downhill_bootstrap(korea, B=2, seed=1, starts=[])
        assert calls == []

    def test_extra_starts_never_worse_on_original(self, korea):
        from mseboot import random_order2_starts

        base = downhill_bootstrap(korea, B=2, seed=14)
        starts = [ModelSpec.null_model(3)] + random_order2_starts(
            3, 3, 2, np.random.default_rng(14)
        )
        more = downhill_bootstrap(korea, B=2, seed=14, starts=starts)
        # a superset of starts can only find an equal or better minimum
        assert more.point_estimate == pytest.approx(base.point_estimate)

    @pytest.mark.parametrize("case", ["korea", "korea_starts", "table1_n2", "random5"])
    def test_one_search_equals_three_searches(self, case, monkeypatch):
        from mseboot import random_order2_starts

        if case == "korea":
            table, kwargs = CountTable.from_counts(3, KOREA_COUNTS), dict(B=30, seed=12)
        elif case == "korea_starts":
            table = CountTable.from_counts(3, KOREA_COUNTS)
            starts = [ModelSpec.null_model(3)] + random_order2_starts(
                3, 3, 2, np.random.default_rng(14)
            )
            kwargs = dict(B=20, seed=14, starts=starts)
        elif case == "table1_n2":
            # zero cells, and models without an MLE on some supports
            table, kwargs = CountTable.from_counts(4, TABLE1["n2"]), dict(B=20, seed=2)
        else:
            table = random_table(np.random.default_rng(22), 5, zero_prob=0.3)
            kwargs = dict(l=3, B=10, seed=22)
        want = three_search_downhill(table, **kwargs)
        searches = []
        monkeypatch.setattr(
            bootstrap, "_downhill_selected",
            lambda tables, *a: searches.append(len(tables)) or _downhill_selected(tables, *a),
        )
        got = downhill_bootstrap(table, **kwargs)
        assert got == want
        assert searches == [1 + kwargs["B"] + len(table.counts)]

    def test_no_model_on_the_original_table_raises(self):
        # one cell seen by every list: no model has a finite BIC
        table = CountTable.from_counts(3, {7: 50})
        with pytest.raises(NoModelFoundError) as info:
            downhill_bootstrap(table, B=5, seed=1)
        assert str(info.value) == "greedy search found no model with finite BIC"


class TestChisqBootstrap:
    def test_full_window_never_excludes(self):
        table = random_table(np.random.default_rng(15), 4)
        space = enumerate_models(4, 2)
        res = chisq_bootstrap(
            table, space, B=20, seed=15, p_lo=0.0, p_hi=1.0
        )
        assert res.excluded_boot == 0

    def test_invalid_window_rejected(self, korea, korea_space):
        with pytest.raises(ValueError):
            chisq_bootstrap(korea, korea_space, B=5, p_lo=0.5, p_hi=0.2)

    def test_exclusions_match_per_replicate_oracle(self):
        from mseboot import select_by_chisq

        table = random_table(np.random.default_rng(16), 4)
        space = enumerate_models(4, 2)
        B, seed = 20, 16
        res = chisq_bootstrap(table, space, B=B, seed=seed, p_lo=0.2, p_hi=0.6)
        excluded = 0
        for i in range(B):
            rep = resample(table, replicate_rng(seed, i))
            if select_by_chisq(space.models, rep, 0.2, 0.6) is None:
                excluded += 1
        assert res.excluded_boot == excluded

    def test_fits_are_held_one_slice_at_a_time(self, monkeypatch):
        # a sparse table on which the window excludes some replicates
        table = random_table(np.random.default_rng(1), 4, zero_prob=0.4)
        space = enumerate_models(4, 2)
        B, jack = 40, len(table.counts)
        held = []
        fit_pairs = bootstrap.fit_pairs

        def recording(pairs, settings, cache):
            pairs = list(pairs)
            held.append(len({id(t) for _, t in pairs}))
            return fit_pairs(pairs, settings, cache)

        monkeypatch.setattr(bootstrap, "fit_pairs", recording)
        monkeypatch.setattr(bootstrap, "CHISQ_SLICE", B + jack)
        unsliced = chisq_bootstrap(table, space, B=B, seed=1)
        assert held == [1, B, jack]
        held.clear()
        monkeypatch.setattr(bootstrap, "CHISQ_SLICE", 16)
        assert chisq_bootstrap(table, space, B=B, seed=1) == unsliced
        assert max(held) == 16 and held[0] == 1
        assert len(held) == 1 + math.ceil(B / 16) + math.ceil(jack / 16)
        assert sum(held) == 1 + B + jack
        assert unsliced.excluded_boot > 0


class TestDiagnostics:
    def test_containment_at_full_space_is_B(self, korea, korea_space):
        report = diagnostics(
            korea, korea_space, B=30, seed=17, ntop_grid=(1, 2, 8)
        )
        assert report.containment[8] == 30 - report.excluded
        assert report.excluded == 0

    def test_containment_monotone(self, korea, korea_space):
        report = diagnostics(
            korea, korea_space, B=50, seed=18, ntop_grid=(1, 2, 4, 8)
        )
        counts = [report.containment[n] for n in sorted(report.containment)]
        assert counts == sorted(counts)

    def test_m1_and_m2_agree_at_position_one(self, korea, korea_space):
        report = diagnostics(korea, korea_space, B=50, seed=19, ntop_grid=(1,))
        for p1, p2 in zip(report.m1, report.m2):
            assert (p1 == 1) == (p2 == 1)
            assert p2 <= len(korea_space)

    @pytest.mark.parametrize("B", [0, -3])
    def test_rejects_non_positive_replications_before_any_fit(
        self, B, korea, korea_space, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(glm, "fit", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="at least one bootstrap replication"):
            diagnostics(korea, korea_space, B=B, seed=1)
        assert calls == []

    def test_rejects_grid_entries_below_one_before_any_fit(
        self, korea, korea_space, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(glm, "fit", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="got 0, -4"):
            diagnostics(korea, korea_space, B=5, seed=1, ntop_grid=(0, -4))
        assert calls == []

    def test_rho_close_to_one_for_large_counts(self):
        # huge counts make replicates nearly identical to the original
        big = CountTable.from_counts(
            3, {m: 10_000 * (i + 1) for i, m in enumerate(range(1, 8))}
        )
        space = enumerate_models(3, 2)
        report = diagnostics(big, space, B=5, seed=20, ntop_grid=(1,))
        assert report.mean_rho > 0.95


class TestExistenceLookups:
    """Batched existence checks still make one ``ExistenceCache.check``
    call per lookup and one ``fr_check`` call per miss."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        check, fr_check = ExistenceCache.check, existence.fr_check
        monkeypatch.setattr(
            ExistenceCache, "check",
            lambda self, *a: calls.update(["check"]) or check(self, *a),
        )
        monkeypatch.setattr(
            existence, "fr_check", lambda *a: calls.update(["fr_check"]) or fr_check(*a)
        )
        return calls

    def assert_counted(self, calls, cache, lookups):
        assert calls["check"] == cache.hits + cache.misses == lookups
        assert calls["fr_check"] == cache.misses == sum(cache.decided.values())
        assert cache.misses > 0 and cache.hits > 0

    def test_restricted(self, korea, korea_space, calls, monkeypatch):
        handed = []
        fit_pairs = bootstrap.fit_pairs

        def recording(pairs, *args):
            pairs = list(pairs)
            handed.append({(m.params, t.support) for m, t in pairs})
            return fit_pairs(pairs, *args)

        monkeypatch.setattr(bootstrap, "fit_pairs", recording)
        cache = ExistenceCache()
        restricted_bootstrap(korea, korea_space, B=20, n_top=5, seed=3, cache=cache)
        # the space on the original table, then two passes over the top
        # models for the resamples and two for the jackknife tables; the
        # second pass hands over only the pairs the bound does not skip,
        # and each call looks each of its (model, support) pairs up once
        assert len(handed) == 5
        self.assert_counted(calls, cache, sum(map(len, handed)))

    def test_chisq(self, korea, korea_space, calls):
        cache, B = ExistenceCache(), 20
        chisq_bootstrap(korea, korea_space, B=B, seed=3, p_lo=0.0, p_hi=1.0,
                        cache=cache)
        reps = [resample(korea, replicate_rng(3, i)) for i in range(B)]
        jack = [t for _, t in jackknife_tables(korea)]
        # the space once on the original table, then once per support of
        # the resamples and of the jackknife tables
        supports = len({t.support for t in reps}) + len(
            {t.support for t in jack}
        )
        self.assert_counted(calls, cache, len(korea_space) * (1 + supports))

    def test_downhill(self, korea, calls):
        cache = ExistenceCache()
        downhill_bootstrap(korea, B=20, seed=3, cache=cache)
        # one search looks each (model, support) up once, so all miss
        assert cache.misses == len(cache.verdicts)
        first = calls["check"]
        # a second run on the same cache finds every verdict there
        downhill_bootstrap(korea, B=20, seed=3, cache=cache)
        assert cache.hits == calls["check"] - first
        assert calls["fr_check"] == cache.misses == len(cache.verdicts)
        self.assert_counted(calls, cache, calls["check"])


class TestOneDriver:
    """Every driver equals its frozen body from before the drivers shared
    one head, one ranked body and one BCa tail (``driver_oracle``)."""

    @staticmethod
    def table(name):
        if name == "korea":
            return CountTable.from_counts(3, KOREA_COUNTS), enumerate_models(3, 2)
        return CountTable.from_counts(4, TABLE1["n1"]), enumerate_models(4, 3)

    @pytest.mark.parametrize("name, B", [("korea", 200), ("table1_n1", 40)])
    @pytest.mark.parametrize("n_top", [1, 10, None])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_restricted(self, name, B, n_top, degree):
        table, space = self.table(name)
        kwargs = dict(B=B, n_top=n_top, seed=7, degree=degree)
        want = oracle_restricted_bootstrap(table, space, **kwargs)
        assert restricted_bootstrap(table, space, **kwargs) == want

    @pytest.mark.parametrize("name, B", [("korea", 200), ("table1_n1", 40)])
    @pytest.mark.parametrize("n_top_high", [1, 10, None])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_sweep(self, name, B, n_top_high, degree):
        table, space = self.table(name)
        # the sweep skips pairs its supermodel bound proves are no record:
        # they read inf, and every other pair holds the oracle's fit
        assert_sweep_matches_the_oracle(
            table, space, degree, "case", B=B, n_top_high=n_top_high, seed=7
        )

    @pytest.mark.parametrize("case", ["korea", "sparse"])
    def test_chisq(self, case):
        if case == "korea":
            table, space = self.table("korea")
        else:
            # a sparse four-list table on which the window admits no
            # model for some replicates
            table = random_table(np.random.default_rng(1), 4, zero_prob=0.4)
            space = enumerate_models(4, 2)
        want = oracle_chisq_bootstrap(table, space, B=40, seed=1)
        assert chisq_bootstrap(table, space, B=40, seed=1) == want
        if case == "sparse":
            assert want.excluded_boot > 0 and "replicates_excluded" in want.flags

    @pytest.mark.parametrize("name, B", [("korea", 200), ("table1_n1", 40)])
    def test_diagnostics(self, name, B):
        table, space = self.table(name)
        kwargs = dict(B=B, seed=7, ntop_grid=(1, 2, 10, 500))
        assert diagnostics(table, space, **kwargs) == oracle_diagnostics(
            table, space, **kwargs
        )

    def test_downhill(self):
        table, _ = self.table("table1_n1")
        assert downhill_bootstrap(table, B=20, seed=7) == three_search_downhill(
            table, B=20, seed=7
        )

    def test_restricted_is_one_column_of_the_sweep(self, monkeypatch):
        table, space = self.table("table1_n1")
        columns = []
        bca = bootstrap.bca_components
        monkeypatch.setattr(
            bootstrap, "bca_components", lambda *a: columns.append(a) or bca(*a)
        )
        got = restricted_bootstrap(table, space, B=40, n_top=10, seed=7)
        _, sweep = ntop_sweep(table, space, B=40, n_top_high=10, seed=7)
        # BCa runs for the one column asked for, then for all ten
        assert len(columns) == 1 + 10
        assert dataclasses.replace(got, method="sweep") == sweep[10]
