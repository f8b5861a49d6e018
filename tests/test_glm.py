import math

import numpy as np
import pytest
from numpy.linalg import _umath_linalg
from scipy import linalg
from scipy.special import gammaln

from mseboot import (
    CountTable,
    ModelSpec,
    NoModelFoundError,
    enumerate_models,
    fit,
    fr_check,
    reduce_for_sparsity,
    select_best_bic,
    select_by_chisq,
)
from mseboot import glm
from mseboot.core import canonical_key
from mseboot.glm import FitSettings
from mseboot.sparsity import containment, design_matrix

from conftest import least_squares_rows, marginal_count, random_table, unchecked_fits
from irls_oracle import log_likelihood


class TestReduction:
    def test_positive_table_no_reduction(self, korea):
        model = ModelSpec.from_generators(3, [0b011, 0b110])
        table = random_table(np.random.default_rng(0), 3)
        red = reduce_for_sparsity(model, table)
        assert not red.minus_infinity_params
        assert set(red.omega_dagger) == set(range(1, 8))

    def test_table1_n2_ad_parameter_dropped(self, table1, abcd_model):
        red = reduce_for_sparsity(abcd_model, table1["n2"])
        ad = 0b1001
        assert marginal_count(table1["n2"], ad) == 0
        assert red.minus_infinity_params == {ad}
        assert all(w & ad != ad for w in red.omega_dagger)
        # every removed cell held a zero count
        removed = set(range(1, 16)) - set(red.omega_dagger)
        assert all(table1["n2"].count(w) == 0 for w in removed)

    def test_korea_pair_model_no_reduction(self, korea):
        model = ModelSpec.from_generators(3, [0b011, 0b101])  # BC, BD
        assert marginal_count(korea, 0b011) == 66
        assert marginal_count(korea, 0b101) == 18
        red = reduce_for_sparsity(model, korea)
        assert not red.minus_infinity_params

    @pytest.mark.parametrize("t", range(2, 7))
    def test_matches_the_frozen_reduction(self, t):
        """Against the reduction as it sorted every cell on every call."""

        def frozen(model, table):
            dead = frozenset(
                theta for theta in model.params if marginal_count(table, theta) == 0
            )
            theta_dagger = tuple(
                sorted((p for p in model.params if p not in dead), key=canonical_key)
            )
            omega_dagger = tuple(
                w
                for w in sorted(range(1, 1 << table.t), key=canonical_key)
                if not any(d & w == d for d in dead)
            )
            return glm.ReducedProblem(theta_dagger, omega_dagger, dead)

        models = enumerate_models(t, min(t - 1, 2)).models
        models = models[:: max(1, len(models) // 300)]
        rng = np.random.default_rng(t)
        tables = [
            random_table(rng, t, zero_prob=zero)
            for zero in (0.0, 0.0, 0.3, 0.5, 0.7, 0.9)
            for _ in range(2)
        ]
        dead = 0
        for table in tables:
            for model in models:
                red = reduce_for_sparsity(model, table)
                assert red == frozen(model, table)
                dead += bool(red.minus_infinity_params)
        assert dead


class TestDesign:
    @pytest.mark.parametrize("seed", range(5))
    def test_containment_matches_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(2, 15))
        cells = rng.integers(1, 1 << t, size=int(rng.integers(1, 200))).tolist()
        params = rng.integers(0, 1 << t, size=int(rng.integers(1, 40))).tolist()
        loop = [[th & w == th for th in params] for w in cells]
        got = containment(cells, params)
        assert got.dtype == bool and got.tolist() == loop
        assert design_matrix(cells, params).tolist() == [
            [1.0 if c else 0.0 for c in row] for row in loop
        ]

    def test_empty_cell_list(self):
        assert containment([], [0, 1]).shape == (0, 2)


def gelsd_rows(A, b):
    """``scipy.linalg.lstsq`` with the gelsd driver, one row at a time."""
    eps = np.finfo(np.float64).eps
    return np.array([
        linalg.lstsq(a, v, lapack_driver="gelsd", cond=eps)[0] for a, v in zip(A, b)
    ])


class TestLeastSquaresRows:
    """The stacked solve against scipy's gelsd, bit for bit."""

    def test_numpy_kernel_signature(self):
        # a numpy whose private stacked lstsq differs fails here first
        signature = "(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)"
        assert _umath_linalg.lstsq.signature == signature

    @pytest.mark.parametrize("rows", [1, 2, 1000])
    def test_matches_scipy_gelsd(self, rows):
        rng = np.random.default_rng(rows)
        for m, n in ((7, 4), (63, 14)):
            X = (rng.random((m, n)) < 0.5).astype(float)
            X[:, 0] = 1.0
            sw = np.sqrt(rng.gamma(2.0, 20.0, (rows, m)))
            A, b = X * sw[:, :, None], rng.normal(size=(rows, m)) * sw
            assert np.array_equal(least_squares_rows(A, b), gelsd_rows(A, b))

    def test_rank_deficient_rows_match_scipy_gelsd(self):
        rng = np.random.default_rng(5)
        X = (rng.random((15, 6)) < 0.5).astype(float)
        X[:, 5] = X[:, 0] + X[:, 1]
        sw = np.sqrt(rng.gamma(2.0, 20.0, (50, 15)))
        A, b = X * sw[:, :, None], rng.normal(size=(50, 15)) * sw
        assert np.array_equal(least_squares_rows(A, b), gelsd_rows(A, b))

    def test_non_finite_input_rejected(self):
        A, b = np.ones((3, 5, 2)), np.ones((3, 5))
        b[1, 2] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            least_squares_rows(A, b)
        A[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            least_squares_rows(A, np.ones((3, 5)))

    def test_unconverged_row_raises(self, monkeypatch):
        # the kernel reports a failed SVD as a row of NaN
        def failing(A, b, rcond):
            x, *rest = _umath_linalg.lstsq(A, b, rcond)
            x[1] = np.nan
            return (x, *rest)

        monkeypatch.setattr(glm, "_LSTSQ", failing)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            least_squares_rows(np.ones((3, 5, 2)), np.ones((3, 5)))


class TestFit:
    def test_lincoln_petersen_closed_form(self):
        table = CountTable.from_counts(2, {0b11: 10, 0b01: 20, 0b10: 30})
        res = fit(ModelSpec.null_model(2), table)
        assert res.converged
        # closed form: dark figure N10*N01/N11
        assert math.exp(res.alpha[0]) == pytest.approx(60.0, rel=1e-6)
        assert res.population_estimate == pytest.approx(120.0, rel=1e-6)

    def test_korea_selected_model_estimate(self, korea):
        res = fit(ModelSpec.from_notation("[12,23]", 3), korea)
        assert res.converged
        assert res.population_estimate == pytest.approx(157.2, abs=0.05)

    def test_recovers_exact_product_means(self):
        # independence table built from exact products has an interior MLE
        p = [0.4, 0.5, 0.25]
        total = 6400.0
        counts = {}
        for mask in range(1, 8):
            prob = 1.0
            for i in range(3):
                prob *= p[i] if mask >> i & 1 else 1 - p[i]
            counts[mask] = int(round(total * prob))
        table = CountTable.from_counts(3, counts)
        res = fit(ModelSpec.null_model(3), table)
        assert res.converged
        for mask, mu in res.mu.items():
            assert mu == pytest.approx(counts[mask], rel=1e-4)

    @pytest.mark.parametrize("seed", range(100))
    def test_score_equations_hold(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(2, 5))
        table = random_table(rng, t, zero_prob=0.2)
        space = enumerate_models(t, t - 1)
        model = space.models[int(rng.integers(len(space)))]
        res = fit(model, table)
        if not res.converged:
            return
        red = reduce_for_sparsity(model, table)
        for theta in red.theta_dagger:
            fitted = sum(m for w, m in res.mu.items() if w & theta == theta)
            observed = marginal_count(table, theta)
            assert abs(fitted - observed) <= 1e-6 * max(1, observed)

    def test_analytic_score_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            table = random_table(rng, 3)
            model = ModelSpec.from_generators(3, [0b011])
            red = reduce_for_sparsity(model, table)
            X = design_matrix(red.omega_dagger, red.theta_dagger)
            y = np.array([table.count(w) for w in red.omega_dagger], dtype=float)
            alpha = rng.normal(scale=0.3, size=X.shape[1])

            def loglik(a):
                return log_likelihood(y, np.exp(X @ a))

            analytic = X.T @ (y - np.exp(X @ alpha))
            h = 1e-6
            for j in range(len(alpha)):
                e = np.zeros_like(alpha)
                e[j] = h
                fd = (loglik(alpha + e) - loglik(alpha - e)) / (2 * h)
                assert fd == pytest.approx(analytic[j], rel=1e-4, abs=1e-6)

    def test_deviance_never_increases(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            table = random_table(rng, 4, zero_prob=0.3)
            model = ModelSpec.from_generators(4, [0b0011, 0b1100])
            [[res]] = unchecked_fits([(model, [table])])
            assert "deviance_increase" not in res.flags

    def test_population_estimate_exceeds_observed(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            table = random_table(rng, 3, zero_prob=0.2)
            res = fit(ModelSpec.null_model(3), table)
            if res.converged:
                assert res.population_estimate >= table.n_total

    def test_empty_table_rejected(self):
        table = CountTable.from_counts(2, {1: 0, 2: 0})
        with pytest.raises(ValueError):
            fit(ModelSpec.null_model(2), table)

    def test_group_must_share_one_support(self, korea, monkeypatch):
        from mseboot import ExistenceCache

        model = ModelSpec.null_model(3)
        shrunk = CountTable.from_counts(3, {**korea.counts, 0b001: 0})
        # the engine still refuses a group of mixed supports; fit_pairs
        # groups by support itself, so mixed pairs are each fitted as alone
        with pytest.raises(ValueError):
            glm.solve_groups([(reduce_for_sparsity(model, korea), [korea, shrunk])])
        assert list(glm.fit_pairs([(model, korea), (model, shrunk)])) == [
            fit(model, korea), fit(model, shrunk)
        ]
        assert list(glm.fit_pairs([])) == []

        # every pair is validated before existence is checked for any
        def no_check(self, pairs):
            raise AssertionError("existence checked before validation")

        monkeypatch.setattr(ExistenceCache, "check_many", no_check)
        empty = CountTable.from_counts(3, {1: 0, 2: 0})
        for bad in [(model, empty), (ModelSpec.null_model(4), korea)]:
            with pytest.raises(ValueError):
                next(glm.fit_pairs([(model, korea), bad]))

    @pytest.mark.parametrize("entry", ["fit_groups", "fit_group", "solve_groups", "solve_group"])
    @pytest.mark.parametrize("bad", ["empty group", "mixed supports", "all-zero table"])
    def test_each_entry_point_rejects_a_bad_group(self, korea, entry, bad):
        group = {
            "empty group": [],
            "mixed supports": [korea, CountTable.from_counts(3, {**korea.counts, 0b001: 0})],
            "all-zero table": [CountTable.from_counts(3, {1: 0})],
        }[bad]
        model = ModelSpec.null_model(3)
        red = reduce_for_sparsity(model, korea)
        if entry.startswith("solve"):
            # the bad group after a good one, or as the only problem
            problems = [(red, [korea])] if entry == "solve_groups" else []
            with pytest.raises(ValueError):
                glm.solve_groups(problems + [(red, group)])
            return
        # fit_pairs takes the group's tables as pairs, after a good pair
        # ("fit_groups") or alone ("fit_group"), and groups them by support
        # itself: only the all-zero table is a bad pair
        tables = ([korea] if entry == "fit_groups" else []) + group
        pairs = [(model, t) for t in tables]
        if bad == "all-zero table":
            with pytest.raises(ValueError):
                next(glm.fit_pairs(pairs))
        else:
            assert list(glm.fit_pairs(pairs)) == [fit(model, t) for t in tables]

    def test_fit_groups_validates_each_group_once(self, table1, monkeypatch):
        from mseboot.bootstrap import replicate_rng, resample

        tables = [resample(table1["n2"], replicate_rng(3, i)) for i in range(40)]
        models = enumerate_models(4, 2).models[::3]
        validated = []
        real = glm._support_cells
        monkeypatch.setattr(glm, "_support_cells",
                            lambda tables: validated.append(tables[0].support)
                            or real(tables))
        results = list(glm.fit_pairs([(m, t) for t in tables for m in models]))
        # the engine validates each support's tables once, however many
        # models are solved on them; a support every model fails is not
        # solved, so not validated there
        assert len(set(validated)) == len(validated) > 1
        assert set(validated) == {
            t.support for t in tables if any(fr_check(m, t) for m in models)
        }
        assert any(r.converged for r in results)


class TestBic:
    def test_penalty_difference_with_shared_mu(self, korea):
        small = ModelSpec.from_generators(3, [0b011])
        large = ModelSpec.from_generators(3, [0b011, 0b110])
        counts = np.array([list(korea.counts.values())], dtype=float)
        nll = glm._neg_log_likelihood(counts, counts, np.array([korea.log_factorials]))
        b_small = glm._bic(small, korea, float(nll[0]), FitSettings())
        b_large = glm._bic(large, korea, float(nll[0]), FitSettings())
        expected = (len(large.params) - len(small.params)) * math.log(korea.n_total)
        assert b_large - b_small == pytest.approx(expected, abs=1e-12)

    def test_korea_minimum_among_passing_models(self, korea, korea_space):
        from mseboot import fr_check

        results = {
            m.notation(): fit(m, korea).bic
            for m in korea_space
            if fr_check(m, korea)
        }
        assert min(results, key=results.get) == "[12,23]"

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(13)
        table = random_table(rng, 3)
        model = ModelSpec.from_generators(3, [0b101])
        res = fit(model, table)
        assert res.converged
        # direct re-evaluation of the definition on the fitted means
        direct = len(model.params) * math.log(table.n_total)
        for w in range(1, 8):
            mu = res.mu[w]
            n = table.count(w)
            direct += 2 * (mu - n * math.log(mu) + gammaln(n + 1))
        assert res.bic == pytest.approx(direct, rel=1e-12)

    def test_capture_sample_size_convention(self, korea):
        model = ModelSpec.from_notation("[12,23]", 3)
        case = fit(model, korea, FitSettings(sample_size="case"))
        capture = fit(model, korea, FitSettings(sample_size="capture"))
        diff = len(model.params) * (math.log(7) - math.log(123))
        assert capture.bic - case.bic == pytest.approx(diff, abs=1e-9)


class TestSelectBestBic:
    def test_korea_winner(self, korea, korea_space):
        from mseboot import ExistenceCache

        cache = ExistenceCache()
        model, res = select_best_bic(korea_space.models, korea, cache=cache)
        assert model.notation() == "[12,23]"
        assert res.population_estimate == pytest.approx(157.2, abs=0.05)

    def test_single_candidate(self, korea):
        model = ModelSpec.null_model(3)
        chosen, _ = select_best_bic([model], korea)
        assert chosen == model

    def test_matches_exhaustive_oracle(self, korea_space):
        rng = np.random.default_rng(14)
        for _ in range(5):
            table = random_table(rng, 3)
            chosen, _ = select_best_bic(korea_space.models, table)
            oracle = min(
                korea_space.models, key=lambda m: fit(m, table).bic
            )
            assert chosen == oracle

    def test_all_infinite_raises(self, korea, korea_space):
        from mseboot import ExistenceCache

        # a cache that holds a failing verdict for every candidate
        cache = ExistenceCache()
        cache.verdicts.update(
            {(m.params, korea.support): False for m in korea_space}
        )
        with pytest.raises(NoModelFoundError):
            select_best_bic(korea_space.models, korea, cache=cache)

    def test_no_checker_still_checks_existence(self, table1):
        # unchecked, [24,123] wins on n4 with an estimate of 5.9e13 although
        # its maximum likelihood estimate does not exist
        from mseboot import ExistenceCache
        from mseboot.glm import STATUS_FR_FAILED

        table = table1["n4"]
        space = enumerate_models(4, 3)
        model, res = select_best_bic(space, table)
        assert model.notation() == "[1,2,3,4]"
        assert res.population_estimate == pytest.approx(190.48, abs=0.01)
        assert (model, res) == select_best_bic(space, table, ExistenceCache())
        unchecked = ModelSpec.from_notation("[24,123]", 4)
        assert fit(unchecked, table).status == STATUS_FR_FAILED
        chosen = select_by_chisq(space, table, 0.0, 1.0)
        assert chosen.model.notation() == "[4,13,23]"  # [14,24,123] unchecked
        assert chosen == select_by_chisq(space, table, 0.0, 1.0, ExistenceCache())


class TestSelectByChisq:
    def test_exact_fit_discarded_by_upper_cutoff(self):
        # a model with as many parameters as free cells fits exactly (p = 1)
        rng = np.random.default_rng(15)
        table = random_table(rng, 3)
        rich = ModelSpec.from_generators(3, [0b011, 0b101, 0b110])
        got = select_by_chisq([rich], table)
        assert got is None

    def test_empty_window_returns_none(self, korea):
        got = select_by_chisq([ModelSpec.null_model(3)], korea, p_lo=0.99, p_hi=1.0)
        assert got is None

    def test_invalid_window_rejected(self, korea):
        with pytest.raises(ValueError):
            select_by_chisq([ModelSpec.null_model(3)], korea, p_lo=0.5, p_hi=0.1)

    def test_matches_brute_force_filter(self):
        from scipy import stats

        from mseboot.glm import pearson_chisq

        space = enumerate_models(4, 2)
        rng = np.random.default_rng(16)
        for _ in range(3):
            table = random_table(rng, 4)
            got = select_by_chisq(space.models, table, 0.05, 0.95)
            candidates = []
            for m in space:
                res = fit(m, table)
                if not res.converged:
                    continue
                stat, df = pearson_chisq(res, table)
                if df <= 0:
                    continue
                p = stats.chi2.sf(stat, df)
                if 0.05 <= p <= 0.95:
                    candidates.append((stat / df, m))
            if not candidates:
                assert got is None
            else:
                assert got is not None
                assert got.model == min(candidates, key=lambda c: c[0])[1]
