"""``_cephes`` against the installed ``scipy.special``, compared with ``==``.

The BIC and the BCa endpoints are byte-identical to what scipy's
``gammaln``, ``ndtr`` and ``ndtri`` gave them only while every double
agrees; a tolerance would hide exactly the last-bit differences that
change the output.
"""

import math

import numpy as np
import pytest
from scipy import special

from mseboot import _cephes
from mseboot.bootstrap import DEFAULT_LEVELS


def mismatches(ours, x, theirs):
    """Inputs whose result differs, NaN equal to NaN."""
    got = np.array([ours(v) for v in x.tolist()])
    want = theirs(x)
    bad = (got != want) & ~(np.isnan(got) & np.isnan(want))
    return x[bad][:5].tolist()


class TestLogFactorial:
    def test_every_n_below_two_million(self):
        # n < 12 is the exact-product branch, then the A[] polynomial up
        # to n + 1 < 1000 and the three-term series beyond
        n = np.arange(2_000_000)
        got = np.array([_cephes.log_factorial(k) for k in range(len(n))])
        want = special.gammaln(n + 1.0)
        assert n[got != want][:5].tolist() == []

    def test_seeded_sample_up_to_ten_to_the_twelve(self):
        # above 1e8 no correction term is added
        rng = np.random.default_rng(20)
        n = np.floor(np.exp(rng.uniform(0.0, math.log(1e12), 200_000)))
        n = n.astype(np.int64)
        got = np.array([_cephes.log_factorial(k) for k in n.tolist()])
        assert n[got != special.gammaln(n + 1.0)][:5].tolist() == []
        assert (n > 1e8).sum() > 10_000

    def test_negative_n_is_refused(self):
        with pytest.raises(ValueError):
            _cephes.log_factorial(-1)


class TestNdtri:
    def test_seeded_uniforms(self):
        u = np.random.default_rng(21).uniform(size=200_000)
        assert mismatches(_cephes.ndtri, u, special.ndtri) == []

    def test_log_uniform_tails_down_to_1e_300(self):
        # both tail tables, split at 1/z = 8, and the exp(-2) switch
        rng = np.random.default_rng(22)
        y = np.exp(rng.uniform(math.log(1e-300), 0.0, 200_000))
        assert mismatches(_cephes.ndtri, y, special.ndtri) == []
        assert mismatches(_cephes.ndtri, 1.0 - y, special.ndtri) == []

    def test_one_minus_powers_of_ten(self):
        y = 1.0 - 10.0 ** -np.arange(1.0, 17.0)
        assert mismatches(_cephes.ndtri, y, special.ndtri) == []

    def test_every_bootstrap_proportion(self):
        # z0 is ndtri of k/B, clamped to [1/(B+1), B/(B+1)]: every
        # fraction with a denominator up to 2001
        y = np.unique(np.concatenate(
            [np.arange(1, q) / q for q in range(2, 2002)]
        ))
        assert len(y) > 1_000_000
        assert mismatches(_cephes.ndtri, y, special.ndtri) == []

    def test_betas_of_the_default_levels(self):
        betas = [b for lv in DEFAULT_LEVELS for b in ((1 - lv) / 2, 1 - (1 - lv) / 2)]
        assert [_cephes.ndtri(b) for b in betas] == special.ndtri(betas).tolist()

    def test_special_values(self):
        assert _cephes.ndtri(0.0) == -math.inf
        assert _cephes.ndtri(1.0) == math.inf
        assert _cephes.ndtri(-0.0) == -math.inf
        outside = (-1e-300, -1.0, math.nextafter(1.0, 2.0), 2.0, math.inf, -math.inf)
        for y in (*outside, math.nan):
            assert math.isnan(_cephes.ndtri(y)) and math.isnan(special.ndtri(y))


class TestNdtr:
    def test_seeded_normals(self):
        x = np.random.default_rng(23).normal(scale=3.0, size=200_000)
        assert mismatches(_cephes.ndtr, x, special.ndtr) == []

    @pytest.mark.parametrize("half_width", [1.5, 40.0])
    def test_dense_grid(self, half_width):
        # [-1.5, 1.5] crosses the erf/erfc switch at |x| = 1; [-40, 40]
        # both erfc tables and the underflow
        x = np.linspace(-half_width, half_width, 200_001)
        assert mismatches(_cephes.ndtr, x, special.ndtr) == []

    def test_special_values(self):
        assert _cephes.ndtr(math.inf) == 1.0 == special.ndtr(math.inf)
        assert _cephes.ndtr(-math.inf) == 0.0 == special.ndtr(-math.inf)
        assert math.isnan(_cephes.ndtr(math.nan))
