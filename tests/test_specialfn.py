import math

import numpy as np
import pytest

from circembed import inv_normal_cdf, log_gamma
from circembed.specialfn import log_bessel_k, log_gamma_ratio
from conftest import bessel_k


def gamma(x):
    """Gamma(x) as exp(log_gamma(x))."""
    return np.exp(log_gamma(x))


class TestGamma:
    def test_factorial_point(self):
        assert gamma(1.0) == pytest.approx(1.0, abs=0.0)

    def test_half(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_7p5(self):
        # reference: 50-digit evaluation
        assert gamma(7.5) == pytest.approx(1871.2543057977883, rel=1e-13)

    def test_accuracy_grid(self):
        # recurrence consistency gamma(x+1) = x gamma(x) across [0.5, 50]
        x = np.linspace(0.5, 49.0, 195)
        assert np.allclose(gamma(x + 1.0), x * gamma(x), rtol=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.5)


class TestLogGammaRatio:
    @pytest.mark.parametrize("nu", [1e8, 1e10, 1e14, 1e300])
    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
    def test_large_nu_matches_mpmath(self, nu, a):
        # the asymptotic series, up to nu = 1e300 where nu^2 overflows
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(int(math.log10(nu)) + 30):  # nu + a exactly
            x = mpmath.mpf(nu)
            exact = float(mpmath.loggamma(x + a) - mpmath.loggamma(x))
        assert log_gamma_ratio(nu, a) == pytest.approx(exact, rel=1e-15)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
    def test_matches_mpmath_over_the_finite_nu_range(self, a):
        # the difference of log_gamma values below nu = 50, the series from
        # there on: error within 512 units in the last place of
        # max(1, |value|), where the difference alone loses up to 1e8
        mpmath = pytest.importorskip("mpmath")
        nus = np.concatenate([np.geomspace(0.5, 1.4e14, 61),
                              [49.99, 50.0, 1e6, 9.9e7]])
        worst = 0.0
        for nu in nus.tolist():
            with mpmath.workdps(60):
                x = mpmath.mpf(nu)
                exact = float(mpmath.loggamma(x + a) - mpmath.loggamma(x))
            err = abs(log_gamma_ratio(nu, a) - exact) / max(1.0, abs(exact))
            worst = max(worst, err / 2.0**-53)
        assert worst <= 512


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) exp(-x)
        for x in (0.1, 1.0, 5.0, 20.0):
            closed = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
            assert bessel_k(0.5, x) == pytest.approx(closed, rel=1e-12)

    def test_three_halves_closed_form(self):
        # K_{3/2}(x) = sqrt(pi/(2x)) exp(-x) (1 + 1/x)
        x = 2.0
        closed = math.sqrt(math.pi / (2 * x)) * math.exp(-x) * (1 + 1 / x)
        assert closed == pytest.approx(0.17990665795209217, rel=1e-14)
        assert bessel_k(1.5, 2.0) == pytest.approx(closed, rel=1e-11)

    def test_small_argument(self):
        # reference: 50-digit evaluation
        assert bessel_k(2.0, 0.1) == pytest.approx(199.50396464211414, rel=1e-10)

    def test_underflow_saturates(self):
        assert bessel_k(0.5, 800.0) == 0.0

    def test_saturates_where_kve_is_nan(self):
        # scipy's kve gives NaN from x ~ 1.1e9 on, at every order
        for nu in (0.5, 2.0, 300.0):
            assert bessel_k(nu, 1e10) == 0.0
        assert np.array_equal(bessel_k(1.5, np.array([1e10, 1e300])),
                              np.zeros(2))

    def test_positive_decreasing(self):
        x = np.linspace(0.05, 30.0, 400)
        for nu in (0.5, 1.0, 2.0, 5.0, 17.3, 50.0):
            vals = bessel_k(nu, x)
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) < 0)

    def test_recurrence(self):
        # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
        for nu in np.linspace(1.0, 49.0, 25):
            for x in (0.5, 2.0, 10.0, 40.0, 120.0):
                lhs = bessel_k(nu + 1, x)
                rhs = bessel_k(nu - 1, x) + (2 * nu / x) * bessel_k(nu, x)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_uniform_large_order_bound(self):
        # sqrt(nu) e^(nu r) K_nu(nu r) stays below one constant on r >= 4;
        # the supremum over this grid is 2.1348... at nu=10, r=4 (50-digit
        # evaluation), so 2.2 is a sharp uniform cap
        for nu in (0.5, 1.0, 2.0, 5.0, 10.0):
            for r in np.linspace(4.0, 12.0, 17):
                val = math.sqrt(nu) * math.exp(nu * r) * bessel_k(nu, nu * r)
                assert val <= 2.2


class TestLogBesselK:
    @pytest.mark.parametrize("nu", [0.5, 1.5, 16.0, 100.0, 127.5, 200.0,
                                    1000.0])
    def test_large_argument_matches_mpmath(self, nu):
        # below NU_UNIFORM scipy's kve is NaN here and the Hankel expansion
        # takes over; from it on, (z / nu)^2 overflows at z = 1e300
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        z = np.array([2e9, 1e12, 1e300])
        exact = np.array([float(mpmath.log(mpmath.besselk(nu, mpmath.mpf(x))))
                          for x in z])
        got = log_bessel_k(nu, z)
        assert np.abs(got / exact - 1.0).max() <= 4 * np.finfo(float).eps


class TestInvNormalCdf:
    def test_median(self):
        assert inv_normal_cdf(0.5) == 0.0

    def test_upper_quantile(self):
        # root of Phi(x) = 0.975 located with a 50-digit erf inverse
        assert inv_normal_cdf(0.975) == pytest.approx(1.959963984540054,
                                                      abs=1e-12)

    def test_lower_quantile_by_antisymmetry(self):
        assert inv_normal_cdf(0.025) == pytest.approx(-1.959963984540054,
                                                      abs=1e-12)

    def test_antisymmetry_grid(self):
        p = np.arange(0.01, 0.50, 0.01)
        assert np.all(np.abs(inv_normal_cdf(p) + inv_normal_cdf(1.0 - p))
                      <= 1e-13)

    def test_domain(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                inv_normal_cdf(p)
