import math
import re

import numpy as np
import pytest

from circembed import (
    CapabilityError,
    CustomStationaryKernel,
    MaternKernel,
    covariance_tail_integral,
    gaussian_kernel,
    spectral_tail_integral,
)


def exponential_1d(sigma2=1.0, lam=1.0):
    return MaternKernel(sigma2=sigma2, lam=lam, nu=0.5, d=1)


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MaternKernel(sigma2=0.0, lam=1.0, nu=1.0, d=1)
        with pytest.raises(ValueError):
            MaternKernel(sigma2=1.0, lam=-1.0, nu=1.0, d=1)
        with pytest.raises(ValueError):
            MaternKernel(sigma2=1.0, lam=1.0, nu=1.0, d=4)
        with pytest.raises(ValueError, match="positive and finite"):
            MaternKernel(sigma2=math.inf, lam=1.0, nu=1.0, d=1)
        with pytest.raises(ValueError, match="nu must be positive"):
            MaternKernel(sigma2=1.0, lam=1.0, nu=0.0, d=1)

    @pytest.mark.parametrize("lam", [math.inf, math.nan, 0.0])
    def test_lam_must_be_positive_and_finite(self, lam):
        # at lam = inf the covariance is constant: no grid is then
        # positive definite
        with pytest.raises(ValueError, match="lam must be positive and "
                           f"finite, got lam={lam!r}"):
            MaternKernel(sigma2=1.0, lam=lam, nu=1.5, d=2)

    def test_nu_without_a_correct_digit_is_rejected(self):
        # eval_rel_error is 0.0063 at nu = 1e12 and 83 at nu = 1e16
        assert MaternKernel(1.0, 0.5, 1e12, 2).nu == 1e12
        for nu in (1e16, 1e200):
            with pytest.raises(ValueError, match="nu=inf"):
                MaternKernel(1.0, 0.5, nu, 2)

    def test_small_nu_needs_flag(self):
        with pytest.raises(ValueError):
            MaternKernel(sigma2=1.0, lam=1.0, nu=0.25, d=1)
        k = MaternKernel(sigma2=1.0, lam=1.0, nu=0.25, d=1,
                         allow_small_nu=True)
        assert k.nu == 0.25

    def test_gaussian_factory(self):
        k = gaussian_kernel(2.0, 0.5, 3)
        assert k.is_gaussian and k.d == 3 and k.sigma2 == 2.0

    def test_to_json_fields(self):
        assert MaternKernel(1.5, 0.25, 2.0, 2).to_json() == {
            "family": "matern", "sigma2": 1.5, "lambda": 0.25, "nu": 2.0,
            "d": 2}
        assert gaussian_kernel(1.0, 0.5, 3).to_json() == {
            "family": "matern", "sigma2": 1.0, "lambda": 0.5, "nu": "inf",
            "d": 3}


class TestRho:
    def test_lags_with_the_wrong_last_axis_are_rejected(self):
        custom = CustomStationaryKernel(
            rho_fn=lambda x: np.exp(-np.abs(x).sum(axis=-1)), d=2)
        for kernel in (MaternKernel(1.0, 1.0, 1.5, 2), custom):
            for lags in (np.ones(3), np.ones((4, 3))):
                with pytest.raises(ValueError, match=re.escape(
                        "rho: expected lag(s) with last axis 2")):
                    kernel.rho(lags)

    @pytest.mark.parametrize("nu", [0.5, 1.5, math.inf])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_custom_kernel_on_the_matern_profile_is_matern(self, d, nu):
        matern = MaternKernel(1.3, 0.4, nu, d)
        custom = CustomStationaryKernel(
            rho_fn=lambda x: matern.kappa(np.sqrt(np.sum(x * x, axis=1))
                                          / matern.lam), d=d)
        rng = np.random.default_rng(d)
        cases = [((d,), ()), ((6, d), (6,)), ((2, 3, d), (2, 3))]
        if d == 1:  # a bare lag or a 1-d array of them
            cases += [((), ()), ((5,), (5,))]
        for shape, out_shape in cases:
            lags = rng.standard_normal(shape)
            want, got = matern.rho(lags), custom.rho(lags)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want) == out_shape
            assert np.array_equal(got, want)
        wrong = [np.ones((4, d + 1)), np.ones((2, 3, d + 1))]
        if d > 1:
            wrong += [np.ones(d + 1), 1.0]
        for lags in wrong:
            messages = []
            for kernel in (matern, custom):
                with pytest.raises(ValueError) as info:
                    kernel.rho(lags)
                messages.append(str(info.value))
            assert messages[0] == messages[1]

    def test_exponential_case(self):
        k = exponential_1d()
        assert k.rho(2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_gaussian_point(self):
        k = gaussian_kernel(1.0, 0.5, 2)
        assert k.rho(np.array([0.3, 0.4])) == pytest.approx(
            math.exp(-0.5), rel=1e-14)

    def test_nu_three_halves_closed_form(self):
        # kappa(r) = (1 + sqrt(3) r) exp(-sqrt(3) r) at nu = 3/2
        k = MaternKernel(1.0, 1.0, 1.5, 1)
        assert k.rho(1.0) == pytest.approx(0.48335772459650765, rel=1e-11)
        r = np.linspace(0.05, 8.0, 40)
        closed = (1 + math.sqrt(3) * r) * np.exp(-math.sqrt(3) * r)
        assert np.allclose(k.kappa(r), closed, rtol=1e-11)

    def test_nu_half_closed_form_grid(self):
        k = exponential_1d()
        r = np.linspace(0.05, 8.0, 40)
        assert np.allclose(k.kappa(r), np.exp(-r), rtol=1e-11)

    def test_origin_is_variance(self):
        for k in (MaternKernel(3.7, 0.5, 1.0, 2), gaussian_kernel(3.7, 0.5, 2)):
            assert k.rho(np.zeros(2)) == 3.7

    def test_symmetry(self, rng):
        for k in (MaternKernel(1.0, 0.7, 1.3, 3), gaussian_kernel(1.0, 0.7, 3)):
            x = rng.normal(size=(32, 3))
            assert np.allclose(k.rho(x), k.rho(-x), rtol=0, atol=0)

    def test_monotone_radial_decay(self):
        r = np.linspace(1e-3, 10.0, 500)
        for nu in (0.5, 1.0, 1.5, 2.0, 4.0, 16.0, 64.0, math.inf):
            k = MaternKernel(1.0, 1.0, nu, 1)
            vals = k.kappa(r)
            assert np.all(np.diff(vals) < 0), f"nu={nu}"

    def test_gaussian_limit_continuity(self):
        # nu = 1e6 exercises the large-order evaluation path
        k_big = MaternKernel(1.0, 1.0, 1e6, 1)
        k_inf = gaussian_kernel(1.0, 1.0, 1)
        r = np.linspace(0.0, 3.0, 61)
        assert np.abs(k_big.kappa(r) - k_inf.kappa(r)).max() <= 1e-3


    @pytest.mark.parametrize("nu", [100.0, 127.5])
    def test_accurate_where_kve_overflows(self, nu):
        # at small z and large order kve overflows and kappa sums the
        # small-argument series; it errs by the rounding of its log-sum,
        # about 3000u, where the first correction alone erred by up to 4e-8
        mpmath = pytest.importorskip("mpmath")
        from scipy.special import kve
        mpmath.mp.dps = 40
        kernel = MaternKernel(1.0, 1.0, nu, 1)
        r = np.geomspace(1e-4, 1.0, 200) / math.sqrt(2 * nu)
        z = math.sqrt(2 * nu) * r  # the argument kappa passes to K_nu
        keep = np.isinf(kve(nu, z))
        assert keep.sum() > 50
        nu_mp = mpmath.mpf(nu)
        exact = np.array([float(2 ** (1 - nu_mp) / mpmath.gamma(nu_mp)
                                * mpmath.mpf(x) ** nu_mp
                                * mpmath.besselk(nu_mp, mpmath.mpf(x)))
                          for x in z[keep]])
        rel = np.abs(kernel.kappa(r[keep]) / exact - 1.0)
        assert rel.max() <= 2e-12

    @pytest.mark.parametrize("nu", [0.5, 1.5, 16.0, 100.0, 200.0])
    def test_zero_at_very_large_radii(self, nu):
        # scipy's kve is NaN from z ~ 1.1e9 on, at every order; from order
        # NU_UNIFORM on, (z / nu)^2 overflows from z / nu ~ 1.3e154
        kernel = MaternKernel(1.0, 1.0, nu, 1)
        r = np.array([1e10, 1e200, 1e300, math.inf])
        assert np.array_equal(kernel.kappa(r), np.zeros(4))
        assert kernel.kappa(1e10) == 0.0
        assert kernel.kappa(math.inf) == 0.0

    @pytest.mark.parametrize("nu", [0.5, 1.5, 16.0, 200.0, math.inf])
    def test_zero_where_the_scaled_radius_overflows(self, nu):
        # z = sqrt(2 nu) r overflows at these radii, and 8 z in the
        # large-argument expansion at 1.7e308; tier-1 makes warnings errors
        kernel = MaternKernel(1.0, 1.0, nu, 1)
        assert np.array_equal(kernel.kappa([1e308, 1.7e308]), [0.0, 0.0])

    @pytest.mark.parametrize("nu", [1.5, math.inf])
    def test_nan_radius_is_a_domain_error(self, nu):
        kernel = MaternKernel(1.0, 1.0, nu, 1)
        with pytest.raises(ValueError, match=r"kappa: requires r >= 0"):
            kernel.kappa([0.0, 1.0, math.inf, math.nan])


class TestEvalRelError:
    @pytest.mark.parametrize("nu", [0.5, 1.5, 4.0, 16.0, math.inf])
    def test_covers_mass_weighted_error(self, nu):
        # sum |kappa - exact| over the distinct radii of a d=2 column,
        # each counted once, against eval_rel_error * sum kappa
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        kernel = MaternKernel(1.0, 0.25, nu, 2)
        k = np.arange(25)
        r = np.unique(np.hypot(*np.meshgrid(k, k))) / 16 / kernel.lam
        got = kernel.kappa(r)
        if kernel.is_gaussian:
            exact = [mpmath.exp(-mpmath.mpf(x) ** 2 / 2) for x in r]
        else:
            nu_mp = mpmath.mpf(nu)
            exact = [mpmath.mpf(1) if x == 0 else
                     2 ** (1 - nu_mp) / mpmath.gamma(nu_mp)
                     * (mpmath.sqrt(2 * nu_mp) * x) ** nu_mp
                     * mpmath.besselk(nu_mp, mpmath.sqrt(2 * nu_mp) * x)
                     for x in map(mpmath.mpf, r)]
        exact = np.array([float(v) for v in exact])
        err = np.abs(got - exact).sum()
        assert err <= kernel.eval_rel_error * exact.sum()
        assert kernel.eval_rel_error < 1e-13

    @pytest.mark.parametrize("nu", [0.6, 0.75, 1.3, 2.3])
    def test_covers_kve_error_at_fractional_order(self, nu):
        # where 2 nu is not an integer, scipy's kve errs by hundreds of u
        # near z ~ 2; the bound (about 1.1e-13 here) must cover that too
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        kernel = MaternKernel(1.0, 0.25, nu, 2)
        k = np.arange(25)
        r = np.unique(np.hypot(*np.meshgrid(k, k))) / 16 / kernel.lam
        nu_mp = mpmath.mpf(nu)
        exact = np.array([1.0 if x == 0 else float(
            2 ** (1 - nu_mp) / mpmath.gamma(nu_mp)
            * (mpmath.sqrt(2 * nu_mp) * x) ** nu_mp
            * mpmath.besselk(nu_mp, mpmath.sqrt(2 * nu_mp) * x))
            for x in map(mpmath.mpf, r)])
        err = np.abs(kernel.kappa(r) - exact).sum()
        assert err <= kernel.eval_rel_error * exact.sum()


class TestSpectralDensity:
    def test_exponential_transform_at_zero(self):
        # 1-d transform of exp(-|x|) is 2/(1 + 4 pi^2 xi^2)
        k = exponential_1d()
        assert k.spectral_density(0.0) == pytest.approx(2.0, rel=1e-13)

    def test_exponential_transform_at_one(self):
        k = exponential_1d()
        expected = 2.0 / (1.0 + 4.0 * math.pi**2)
        assert expected == pytest.approx(0.04940904606371528, rel=1e-14)
        assert k.spectral_density(1.0) == pytest.approx(expected, rel=1e-12)

    def test_exponential_transform_grid(self):
        k = exponential_1d()
        xi = np.linspace(-3.0, 3.0, 31)
        assert np.allclose(k.spectral_density(xi),
                           2.0 / (1.0 + 4.0 * np.pi**2 * xi**2), rtol=1e-12)

    def test_gaussian_at_zero(self):
        k = gaussian_kernel(1.0, 1.0, 2)
        assert k.spectral_density(np.zeros(2)) == pytest.approx(
            2.0 * math.pi, rel=1e-13)

    def test_positive_everywhere(self, rng):
        # probe within the representable range; the Gaussian density
        # underflows (correctly, to 0) past ||xi|| ~ 12 for lam = 1/2
        for nu in (0.5, 1.0, 2.5, 10.0, math.inf):
            k = MaternKernel(1.0, 0.5, nu, 3)
            xi = rng.normal(scale=2.0, size=(64, 3))
            assert np.all(k.spectral_density(xi) > 0)

    def test_linear_in_variance(self):
        k1 = MaternKernel(1.0, 0.5, 1.5, 2)
        k7 = MaternKernel(7.3, 0.5, 1.5, 2)
        xi = np.array([0.4, -1.2])
        assert k7.spectral_density(xi) == pytest.approx(
            7.3 * k1.spectral_density(xi), rel=1e-13)

    def test_log_density_is_finite_where_its_ratio_overflows(self):
        # (2 pi r)^2 / (2 nu) overflows from r ~ 1e4 at nu = 1e-300
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        nu, d = 1e-300, 2
        kernel = MaternKernel(1.0, 0.5, nu, d, allow_small_nu=True)
        r = np.array([1e3, 1e4, 1e100, 1e300])
        with np.errstate(over="raise"):
            got = kernel.log_kappa_hat(r)
            assert kernel.log_kappa_hat(1e4) == got[1]
        nu_mp, half_d = mpmath.mpf(nu), mpmath.mpf(d) / 2
        exact = [float(d * mpmath.log(2) + half_d * mpmath.log(mpmath.pi)
                       + mpmath.loggamma(nu_mp + half_d)
                       - mpmath.loggamma(nu_mp)
                       - half_d * mpmath.log(2 * nu_mp)
                       - (nu_mp + half_d) * mpmath.log1p(
                           (2 * mpmath.pi * x) ** 2 / (2 * nu_mp)))
                 for x in map(mpmath.mpf, r)]
        assert np.all(np.isfinite(got))
        assert np.allclose(got, exact, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 16.0])
    def test_log_density_is_unchanged_where_its_ratio_is_finite(self, nu):
        # the one expression wherever the ratio is finite, bit for bit
        from circembed.specialfn import log_gamma_ratio
        kernel = MaternKernel(2.5, 0.5, nu, 3)
        r = np.concatenate([[0.0], np.geomspace(1e-8, 1e150, 500)])
        two_pi_r = 2.0 * np.pi * r
        before = (math.log(2.5) + 3 * math.log(2.0)
                  + 1.5 * math.log(math.pi) + log_gamma_ratio(nu, 1.5)
                  - 1.5 * math.log(2.0 * nu)
                  - (nu + 1.5) * np.log1p(two_pi_r * two_pi_r / (2.0 * nu)))
        assert np.array_equal(kernel.log_kappa_hat(r), before)


class TestTailIntegrals:
    def test_spectral_exponential_full_line(self):
        # int_0^inf kappa_hat_1 = half of rho(0) by Fourier inversion
        assert spectral_tail_integral(exponential_1d(), 0.0) == pytest.approx(
            0.5, rel=1e-9)

    def test_spectral_d2_closed_form(self):
        # d=2: int_a^inf r (2nu + (2 pi r)^2)^-(nu+1) dr is elementary:
        # total = (2 nu)^nu (2 nu + 4 pi^2 a^2)^-nu / (2 pi) * sigma2
        for nu in (1.0, 2.5):
            for a in (0.0, 1.0):
                k = MaternKernel(1.0, 1.0, nu, 2)
                expected = ((2 * nu) ** nu * (2 * nu + 4 * np.pi**2 * a**2) ** -nu
                            / (2 * np.pi))
                assert spectral_tail_integral(k, a) == pytest.approx(
                    expected, rel=1e-8)

    def test_spectral_gaussian_d2(self):
        # int_0^inf r (2 pi) exp(-2 pi^2 r^2) dr = 1/(2 pi)
        k = gaussian_kernel(1.0, 1.0, 2)
        assert spectral_tail_integral(k, 0.0) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-9)

    def test_covariance_exponential(self):
        assert covariance_tail_integral(exponential_1d(), 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-9)

    def test_covariance_gaussian(self):
        k = gaussian_kernel(1.0, 1.0, 1)
        assert covariance_tail_integral(k, 0.0) == pytest.approx(
            math.sqrt(math.pi / 2.0), rel=1e-9)

    def test_covariance_d2_nu_three_halves(self):
        # independent oracle: 60-digit quadrature of r (1+sqrt(3) r) e^(-sqrt(3) r)
        k = MaternKernel(1.0, 1.0, 1.5, 2)
        assert covariance_tail_integral(k, 2.0) == pytest.approx(
            0.26493580317204623, rel=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            spectral_tail_integral(exponential_1d(), -1.0)
        with pytest.raises(ValueError):
            covariance_tail_integral(exponential_1d(), -0.5)


class TestCustomKernel:
    def test_rho_callable(self):
        k = CustomStationaryKernel(
            rho_fn=lambda x: np.exp(-np.abs(x).sum(axis=-1)), d=2)
        assert k.rho(np.array([0.5, 0.5])) == pytest.approx(math.exp(-1.0))
        assert k.to_json() == {"family": "custom", "d": 2,
                               "has_spectral_density": False}

    def test_missing_spectral_density(self):
        k = CustomStationaryKernel(
            rho_fn=lambda x: np.exp(-np.abs(x).sum(axis=-1)), d=1)
        with pytest.raises(CapabilityError):
            k.spectral_density(0.3)

    def test_supplied_spectral_density(self):
        k = CustomStationaryKernel(
            rho_fn=lambda x: np.exp(-np.abs(x).sum(axis=-1)),
            rho_hat_fn=lambda xi: np.prod(
                2.0 / (1.0 + 4.0 * np.pi**2 * xi**2), axis=-1),
            d=1)
        assert k.spectral_density(0.0) == pytest.approx(2.0)
