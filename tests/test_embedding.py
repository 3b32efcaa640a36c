import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from circembed import (
    CustomStationaryKernel,
    Embedding,
    GridSpec,
    MaternKernel,
    NotPositiveDefiniteError,
    PDUndecidableError,
    SymmetryError,
    eigen_lower_bound_diagnostic,
    embedding,
    first_column,
    gaussian_kernel,
    minimal_embedding,
    spectrum,
)
from conftest import (anisotropic_matern, dense_extended_matrix,
                      dense_grid_matrix, gaussian_spectrum_oracle, phi,
                      rho_ext)


def exponential(d=1, lam=1.0, sigma2=1.0):
    return MaternKernel(sigma2=sigma2, lam=lam, nu=0.5, d=d)


class TestGridTypes:
    def test_grid_spec(self):
        g = GridSpec(d=2, m0=8)
        assert g.h0 == 0.125 and g.n_points == 81
        with pytest.raises(ValueError):
            GridSpec(d=0, m0=8)
        with pytest.raises(ValueError):
            GridSpec(d=1, m0=0)

    def test_embedding(self):
        e = Embedding(GridSpec(d=3, m0=4), m=6)
        assert e.ell == 1.5 and e.s == 12**3 and e.shape == (12, 12, 12)
        with pytest.raises(ValueError):
            Embedding(GridSpec(d=1, m0=4), m=3)


class TestPhi:
    def test_identity_branch(self):
        assert phi(0.3, 1.0) == 0.3

    def test_reflection_branch(self):
        assert phi(1.7, 1.0) == pytest.approx(0.3, rel=1e-15)

    def test_periodicity(self):
        assert phi(2.3, 1.0) == pytest.approx(0.3, rel=1e-14)
        x = np.linspace(-5.0, 5.0, 101)
        assert np.allclose(phi(x, 1.3), phi(x + 2.6, 1.3), atol=1e-12)

    def test_range(self):
        x = np.linspace(-10.0, 10.0, 400)
        y = phi(x, 0.7)
        assert np.all((y >= 0.0) & (y <= 0.7))


class TestRhoExt:
    def test_agreement_region(self, rng):
        k = MaternKernel(1.0, 0.5, 1.5, 2)
        x = rng.uniform(0.0, 1.5, size=(32, 2))
        assert np.allclose(rho_ext(k, x, 1.5), k.rho(x), rtol=0, atol=0)

    def test_reflection_1d(self):
        assert rho_ext(exponential(), np.array([1.5]), 1.0) == pytest.approx(
            math.exp(-0.5), rel=1e-13)

    def test_reflection_2d_gaussian(self):
        k = gaussian_kernel(1.0, 1.0, 2)
        val = rho_ext(k, np.array([1.5, 0.5]), 1.0)
        assert val == pytest.approx(math.exp(-0.25), rel=1e-13)
        assert val == pytest.approx(0.7788007830714049, rel=1e-13)


class TestFirstColumn:
    def test_origin_entry_is_variance(self):
        k = MaternKernel(2.5, 0.5, 1.0, 2)
        col = first_column(k, Embedding(GridSpec(d=2, m0=4), m=6))
        assert col[0, 0] == 2.5

    def test_exponential_small_case(self):
        # d=1, m=2, h0=0.5: column (1, e^-1/2, e^-1, e^-1/2)
        col = first_column(exponential(), Embedding(GridSpec(d=1, m0=2), m=2))
        expected = np.array([1.0, math.exp(-0.5), math.exp(-1.0),
                             math.exp(-0.5)])
        assert np.allclose(col, expected, rtol=1e-14)

    def test_even_symmetry(self, rng):
        k = MaternKernel(1.0, 0.7, 1.5, 2)
        emb = Embedding(GridSpec(d=2, m0=4), m=5)
        col = first_column(k, emb)
        two_m = 2 * emb.m
        for _ in range(20):
            i, j = rng.integers(0, two_m, size=2)
            assert col[i, j] == col[(two_m - i) % two_m, (two_m - j) % two_m]

    def test_matches_pointwise_definition(self, rng):
        k = MaternKernel(1.0, 0.5, 1.5, 2)
        emb = Embedding(GridSpec(d=2, m0=4), m=6)
        col = first_column(k, emb)
        h0, ell = emb.grid.h0, emb.ell
        for _ in range(20):
            i, j = rng.integers(0, 2 * emb.m, size=2)
            expected = rho_ext(k, h0 * np.array([i, j], dtype=float), ell)
            assert col[i, j] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("off,gap", [(8.0, "0.0855"), (30.0, "0.523")])
    def test_kernel_not_symmetric_in_each_coordinate_is_refused(self, off,
                                                                 gap):
        # exp(-x^T A x / 2) is even, but with A off-diagonal rho(x1, -x2) !=
        # rho(x1, x2): reflected about ell, it gave a circulant 0.0855 away
        # from R (off 8), or a search calling a positive definite kernel
        # not positive definite (off 30)
        A = np.array([[40.0, off], [off, 40.0]])
        kernel = CustomStationaryKernel(rho_fn=lambda x: np.exp(
            -0.5 * np.einsum("ni,ij,nj->n", x, A, x)), d=2)
        grid = GridSpec(d=2, m0=4)
        message = f"by {gap} on the grid's lags: the embedding needs a " \
                  "kernel symmetric in each coordinate"
        with pytest.raises(ValueError, match=message):
            minimal_embedding(kernel, grid, tol=1e-12)
        with pytest.raises(ValueError, match=message):
            first_column(kernel, Embedding(grid, 6))

    def test_kernel_symmetric_within_its_rounding_is_embedded(self):
        # a relative wobble within eval_rel_error is rounding, not asymmetry
        eps = np.finfo(float).eps

        def rho(x):
            return np.exp(-np.abs(x).sum(axis=-1))

        wobbly = CustomStationaryKernel(
            rho_fn=lambda x: rho(x) * (1.0 + 2 * eps * (x[:, 0] < 0)), d=2)
        assert wobbly.eval_rel_error == 4 * eps
        emb = Embedding(GridSpec(d=2, m0=4), 6)
        assert np.array_equal(first_column(wobbly, emb), first_column(
            CustomStationaryKernel(rho_fn=rho, d=2), emb))

    def test_kernel_and_grid_dimensions_must_agree(self):
        k = MaternKernel(1.0, 0.5, 1.5, 2)
        with pytest.raises(ValueError, match="kernel has d=2, grid has d=1"):
            first_column(k, Embedding(GridSpec(d=1, m0=8), m=8))


class TestSpectrum:
    def test_two_point_dft(self):
        emb = Embedding(GridSpec(d=1, m0=1), m=1)
        spec = spectrum(np.array([3.0, 1.0]), emb)
        assert np.allclose(spec.values, [4.0, 2.0])

    def test_four_point_dft(self):
        emb = Embedding(GridSpec(d=1, m0=2), m=2)
        c0, c1, c2 = 1.0, 0.5, 0.3
        spec = spectrum(np.array([c0, c1, c2, c1]), emb)
        expected = [c0 + 2 * c1 + c2, c0 - c2, c0 - 2 * c1 + c2, c0 - c2]
        assert np.allclose(spec.values, expected, atol=1e-14)

    def test_trace_identity(self):
        k = MaternKernel(2.0, 0.5, 1.5, 2)
        emb = Embedding(GridSpec(d=2, m0=8), m=12)
        spec = spectrum(first_column(k, emb), emb)
        assert spec.values.sum() == pytest.approx(emb.s * k.sigma2, rel=1e-12)

    def test_flattened_column_gives_the_shaped_spectrum(self):
        k = MaternKernel(1.0, 0.5, 1.5, 2)
        emb = Embedding(GridSpec(d=2, m0=4), m=6)
        column = first_column(k, emb)
        shaped, flat = spectrum(column, emb), spectrum(column.ravel(), emb)
        assert flat.values.shape == emb.shape
        assert np.array_equal(flat.values, shaped.values)
        assert (flat.min_value, flat.rounding_bound) == \
            (shaped.min_value, shaped.rounding_bound)

    def test_asymmetric_column_raises(self):
        emb = Embedding(GridSpec(d=1, m0=2), m=2)
        with pytest.raises(SymmetryError):
            spectrum(np.array([1.0, 0.8, 0.5, 0.1]), emb)

    @pytest.mark.parametrize("d,m0,m,nu", [
        (1, 4, 4, 0.5), (1, 4, 8, 1.5), (1, 8, 24, math.inf),
        (2, 4, 4, 0.5), (2, 4, 8, 1.5), (2, 8, 16, math.inf),
    ])
    def test_dense_oracle_equivalence(self, d, m0, m, nu):
        k = MaternKernel(1.0, 0.5, nu, d)
        emb = Embedding(GridSpec(d=d, m0=m0), m=m)
        spec = spectrum(first_column(k, emb), emb)
        dense = dense_extended_matrix(k, emb)
        oracle = np.linalg.eigvalsh(dense)
        mine = np.sort(spec.values_flat)
        assert np.abs(mine - oracle).max() <= 1e-10 * emb.s * k.sigma2

    def test_submatrix_property(self):
        k = MaternKernel(1.0, 0.5, 1.5, 2)
        grid = GridSpec(d=2, m0=3)
        emb = Embedding(grid, m=5)
        dense_ext = dense_extended_matrix(k, emb)
        dense = dense_grid_matrix(k, grid)
        # physical indices {0..m0}^d sit at lexicographic positions
        # i1 * 2m + i2 for i in that box
        two_m = 2 * emb.m
        idx = np.array([i1 * two_m + i2 for i1 in range(grid.m0 + 1)
                        for i2 in range(grid.m0 + 1)])
        assert np.array_equal(dense_ext[np.ix_(idx, idx)], dense)


class TestMinimalEmbedding:
    def test_exponential_immediate(self):
        # convex decreasing kernels embed at the minimal extension
        emb, spec = minimal_embedding(exponential(), GridSpec(d=1, m0=8),
                                      tol=0.0)
        assert emb.m == 8 and emb.ell == 1.0
        assert spec.min_value > 0

    def test_kernel_and_grid_dimensions_must_agree(self):
        # the isotropic path never calls rho, which checks the lag's d
        k = gaussian_kernel(1.0, 0.25, 1)
        with pytest.raises(ValueError, match="kernel has d=1, grid has d=3"):
            minimal_embedding(k, GridSpec(d=3, m0=8), tol=1e-13)

    def test_returned_spectrum_clamped(self):
        k = gaussian_kernel(1.0, 1.0, 1)
        emb, spec = minimal_embedding(k, GridSpec(d=1, m0=8), tol=1e-13,
                                      m_max=256)
        assert spec.values.min() >= 0.0
        assert spec.tolerance == 1e-13

    def test_m_max_exhaustion(self):
        k = gaussian_kernel(1.0, 1.0, 1)
        with pytest.raises(NotPositiveDefiniteError) as info:
            minimal_embedding(k, GridSpec(d=1, m0=8), tol=0.0, m_max=16)
        # the last minimum (-0.21) is far outside the rounding bound, so
        # the verdict is certified and the plain error is raised
        assert type(info.value) is NotPositiveDefiniteError
        assert info.value.min_eig < -info.value.rounding_bound

    def test_exhaustion_inside_rounding_bound_is_undecidable(self):
        k = gaussian_kernel(1.0, 0.5, 2)
        with pytest.raises(PDUndecidableError) as info:
            minimal_embedding(k, GridSpec(d=2, m0=32), tol=1e-13,
                              schedule="doubling", m_max=512)
        exc = info.value
        assert exc.m_max == 512
        assert abs(exc.min_eig + 1e-13) <= exc.rounding_bound
        assert "not positive definite within m_max=512" in str(exc)

    def test_certified_flag(self):
        # exponential kernel: one clear accept, far beyond the bound
        _, spec = minimal_embedding(exponential(), GridSpec(d=1, m0=8),
                                    tol=0.0)
        assert spec.certified is True
        assert spec.min_value > spec.rounding_bound > 0
        # a Gaussian at tol = 1e-13: the accepted minimum lies inside the
        # bound of -tol
        emb, spec = minimal_embedding(gaussian_kernel(1.0, 0.25, 2),
                                      GridSpec(d=2, m0=32), tol=1e-13)
        assert emb.m == 66
        assert abs(spec.min_value + 1e-13) <= spec.rounding_bound
        assert spec.certified is False

    def test_gaussian_default_tol(self):
        # 1e-13 accepts at m = 66; with tol = 0 every m up to 128 stays
        # undecided in float64
        kernel, grid = gaussian_kernel(1.0, 0.25, 2), GridSpec(d=2, m0=32)
        emb, spec = minimal_embedding(kernel, grid, m_max=128)
        assert emb.m == 66 and spec.tolerance == 1e-13
        with pytest.raises(PDUndecidableError):
            minimal_embedding(kernel, grid, tol=0.0, m_max=128)

    def test_default_tol_and_m_max(self):
        # finite nu: tol 0; the search runs out at m_max = 100 m0
        _, spec = minimal_embedding(MaternKernel(1.0, 0.5, 1.5, 1),
                                    GridSpec(d=1, m0=8))
        assert spec.tolerance == 0.0
        with pytest.raises(NotPositiveDefiniteError) as info:
            minimal_embedding(gaussian_kernel(1.0, 1.0, 1),
                              GridSpec(d=1, m0=8), tol=0.0)
        assert info.value.m_max == 800
        assert info.value.attempts[-1][0] == 800

    def test_custom_kernel_default_tol(self):
        # a custom kernel is not Gaussian: its default tol is 0
        kernel, grid = anisotropic_matern(2), GridSpec(d=2, m0=8)
        emb, spec = minimal_embedding(kernel, grid)
        assert spec.tolerance == 0.0
        assert emb == minimal_embedding(kernel, grid, tol=0.0)[0]

    @pytest.mark.parametrize("d,nu,lam,m0", [
        (1, 0.5, 1.0, 8), (1, 1.5, 0.5, 8), (2, 1.0, 0.5, 8),
        (2, 2.0, 0.25, 16), (1, math.inf, 0.5, 8),
    ])
    def test_doubling_schedule_agrees(self, d, nu, lam, m0):
        k = MaternKernel(1.0, lam, nu, d)
        grid = GridSpec(d=d, m0=m0)
        tol = 1e-13 if math.isinf(nu) else 0.0
        emb_a, spec_a = minimal_embedding(k, grid, tol=tol, m_max=2048)
        emb_b, spec_b = minimal_embedding(k, grid, tol=tol, m_max=2048,
                                          schedule="doubling")
        assert emb_a.m == emb_b.m
        assert np.array_equal(spec_a.values, spec_b.values)

    @pytest.mark.parametrize("schedule", ["increment", "doubling"])
    @pytest.mark.parametrize("d,m0,nu,m_max", [
        (3, 16, 1.5, 1600),  # accepts, the witness failing most m
        (2, 16, 8.0, 1024),  # runs out undecided
        (2, 16, 1.5, 16),    # m_max == m0: runs out at its only m
    ])
    def test_search_attempts_no_m_twice(self, monkeypatch, schedule, d, m0,
                                        nu, m_max):
        dct, fft = counted_transforms(monkeypatch)
        kernel = MaternKernel(1.0, 0.5, nu, d)
        try:
            emb, spec = minimal_embedding(kernel, GridSpec(d=d, m0=m0),
                                          tol=0.0, m_max=m_max,
                                          schedule=schedule)
            final, attempts = emb.m, spec.attempts
        except NotPositiveDefiniteError as exc:
            final, attempts = exc.m_max, exc.attempts
        screened = [m for m, _ in attempts]
        assert len(screened) == len(set(screened)), screened
        # every m is transformed at most once, by the DCT-I alone
        assert len(dct) == len(set(dct)), dct
        assert fft == []
        assert final in dct

    def test_search_memory_is_its_values_and_a_few_blocks(self):
        # unit steps to m = 66 in d = 3, every attempt decided by the
        # witness or the DCT-I: the search holds folded (m+1)^3 blocks and
        # allocates the (2m)^3 values once, on return.  A complex FFT of
        # the accepted column would take 3 times the values' bytes more
        kernel = MaternKernel(1.0, 0.5, 1.5, 3)
        (emb, spec), peak = traced_peak(lambda: minimal_embedding(
            kernel, GridSpec(d=3, m0=16), tol=0.0, m_max=1600))
        assert emb.m == 66
        assert "fft" not in {decider for _, decider in spec.attempts}
        block_bytes = 8 * (emb.m + 1) ** 3
        assert peak <= spec.values.nbytes + 4 * block_bytes, peak / 2**20

    def test_increment_runs_out_off_the_step_grid(self, monkeypatch):
        # m_step = 3 from m0 = 8 tries 8, 11, 14, 17; 20 lies past m_max
        kernel = MaternKernel(1.0, 1.0, 1.5, 1)
        grid = GridSpec(d=1, m0=8)
        dct, fft = counted_transforms(monkeypatch)
        with pytest.raises(NotPositiveDefiniteError) as info:
            minimal_embedding(kernel, grid, tol=0.0, m_max=19, m_step=3)
        monkeypatch.undo()
        assert [m for m, _ in info.value.attempts] == [8, 11, 14, 17]
        assert dct == [8, 11, 14, 17] and fft == []
        # the error reports the DCT-I of the folded block at m = 17, which
        # lies within 2b of the FFT of its column
        emb = Embedding(grid, 17)
        column = first_column(kernel, emb)
        last = scipy.fft.dctn(corner(column, 17), type=1)
        bound = embedding._rounding_bound(
            embedding._norm1(corner(column, 17), last.flat[0]), emb,
            kernel.eval_rel_error)
        assert info.value.m_max == 19
        assert info.value.min_eig == last.min()
        assert info.value.rounding_bound == bound
        full = spectrum(column, emb, column_rel_error=kernel.eval_rel_error)
        assert abs(info.value.min_eig - full.min_value) <= 2 * bound

    @pytest.mark.parametrize("tol", [-1e-13, math.nan, math.inf])
    def test_tol_must_be_a_nonnegative_number(self, tol):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            minimal_embedding(exponential(), GridSpec(d=1, m0=8), tol=tol)

    @pytest.mark.parametrize("settings,message", [
        ({"schedule": "halving"}, "unknown schedule 'halving'"),
        ({"schedule": "doubling", "m_step": 2},
         "doubling schedule supports m_step=1 only"),
    ], ids=["unknown", "doubling-step"])
    def test_schedule_checks(self, settings, message):
        with pytest.raises(ValueError, match=message):
            minimal_embedding(exponential(), GridSpec(d=1, m0=8), **settings)

    def test_monotone_in_correlation_length(self):
        # minimal ell does not grow when lam shrinks, all else fixed
        grid = GridSpec(d=2, m0=16)
        ells = []
        for lam in (1.0, 0.5, 0.25):
            emb, _ = minimal_embedding(MaternKernel(1.0, lam, 1.0, 2), grid,
                                       tol=0.0)
            ells.append(emb.ell)
        assert ells[0] >= ells[1] >= ells[2]

    def test_coarse_step_schedule(self):
        # m_step = lam*m0 searches ell on multiples of the correlation
        # length; minimal on that grid, not below it
        k = gaussian_kernel(1.0, 1.0, 1)
        grid = GridSpec(d=1, m0=8)
        emb, spec = minimal_embedding(k, grid, tol=1e-12, m_max=256, m_step=8)
        assert emb.m % 8 == 0
        assert spec.min_value >= -1e-12

    def test_record_names_the_decider_of_every_attempt(self):
        # unit steps from m0 = 64 to m = 119; the first attempt has no
        # earlier minimum to look near, and the witness only fails attempts
        kernel = MaternKernel(1.0, 0.25, 1.5, 2)
        emb, spec = minimal_embedding(kernel, GridSpec(d=2, m0=64), tol=0.0)
        assert [m for m, _ in spec.attempts] == list(range(64, emb.m + 1))
        deciders = [decider for _, decider in spec.attempts]
        assert set(deciders) <= {"witness", "dct"}
        assert deciders[0] == "dct" and deciders[-1] != "witness"
        assert deciders.count("witness") >= 0.9 * (len(deciders) - 1)

    @pytest.mark.parametrize("d,m0,m_max,lam", [
        (1, 4096, 4160, 1.0),  # d = 1: the DCT-I decides every attempt
        (2, 16, 40, 0.5),      # blocks of 289 to 1681 points
    ])
    def test_dct_alone_decides_where_it_is_cheaper(self, d, m0, m_max, lam):
        # in d = 1 the witness costs more than the DCT-I it would save; in
        # d >= 2 it screens blocks of any size, and the DCT-I decides the
        # first attempt and those the witness does not fail
        kernel = MaternKernel(1.0, lam, 1.5, d)
        with pytest.raises(NotPositiveDefiniteError) as info:
            minimal_embedding(kernel, GridSpec(d=d, m0=m0), tol=0.0,
                              m_max=m_max)
        dct = range(m0, m_max + 1) if d == 1 else (16, 25, 34)
        assert info.value.attempts == tuple(
            (m, "dct" if m in dct else "witness")
            for m in range(m0, m_max + 1))


def counted_transforms(monkeypatch):
    """Lists that record the m of every DCT-I and every FFT `spectrum` the
    search takes, in order."""
    dct, fft = [], []
    dctn, full_spectrum = scipy.fft.dctn, embedding.spectrum

    def counting_dctn(block, *args, **kwargs):
        dct.append(block.shape[0] - 1)
        return dctn(block, *args, **kwargs)

    def counting_spectrum(column, emb, *args, **kwargs):
        fft.append(emb.m)
        return full_spectrum(column, emb, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "dctn", counting_dctn)
    monkeypatch.setattr(embedding, "spectrum", counting_spectrum)
    return dct, fft


def corner(column, m):
    """The folded (m+1)^d block of an even (2m,)*d column."""
    return column[(slice(0, m + 1),) * column.ndim]


def traced_peak(fn):
    """fn() and the peak bytes `tracemalloc` sees while it runs."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRadialTable:
    # the benchmark's isotropic instances: d, m0, nu, lam and the m found
    @pytest.mark.parametrize("d,m0,nu,lam,m", [
        (1, 1024, 1.5, 0.2, 1653), (2, 64, 1.5, 0.5, 280),
        (3, 16, 1.5, 0.5, 66), (3, 16, 0.5, 0.5, 61),
        (2, 32, math.inf, 0.25, 66), (2, 32, 4.0, 0.25, 71),
        (2, 128, 0.5, 0.1, 128), (2, 64, 1.5, 0.1, 64),
    ])
    def test_power_of_two_m0_block_is_the_float_radius_formula(
            self, d, m0, nu, lam, m):
        # with h0 exact, sqrt(|j|^2) / m0 is the radius sqrt(sum (h0 j_i)^2)
        # bit for bit, so the block is kappa of the float sum of squares
        kernel = MaternKernel(1.0, lam, nu, d, allow_small_nu=True)
        grid = GridSpec(d=d, m0=m0)
        ax = grid.h0 * np.arange(m + 1)
        r2 = sum(ax.reshape([-1 if axis == i else 1 for axis in range(d)])
                 ** 2 for i in range(d))
        want = kernel.kappa(np.sqrt(r2) / kernel.lam)
        got = corner(first_column(kernel, Embedding(grid, m)), m)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("schedule", ["increment", "doubling"])
    @pytest.mark.parametrize("d,m0,isotropic", [
        (2, 12, True), (3, 6, True), (2, 12, False)])
    def test_search_blocks_equal_first_column_across_growths(
            self, monkeypatch, schedule, d, m0, isotropic):
        kernel = (MaternKernel(1.0, 0.5, 1.5, d) if isotropic
                  else anisotropic_matern(d))
        grid = GridSpec(d=d, m0=m0)
        taken, evaluations = [], []
        folded_block = embedding._FoldedBlocks.block
        # kappa for an isotropic kernel, rho on the lattice otherwise
        cls, name = ((MaternKernel, "kappa") if isotropic
                     else (CustomStationaryKernel, "rho"))
        evaluate = getattr(cls, name)

        def recording_block(blocks, m):
            block = folded_block(blocks, m)
            taken.append((len(blocks.lattice) - 1, m, block.copy()))
            return block

        def counting_evaluate(self, r):
            evaluations.append(np.size(r))
            return evaluate(self, r)

        monkeypatch.setattr(embedding._FoldedBlocks, "block", recording_block)
        monkeypatch.setattr(cls, name, counting_evaluate)
        emb, _ = minimal_embedding(kernel, grid, tol=0.0, m_max=100 * m0,
                                   schedule=schedule)
        monkeypatch.undo()
        sides = sorted({side for side, _, _ in taken})
        # one lattice per side, and one kernel evaluation per lattice; a
        # kernel that is not isotropic first meets its symmetry check
        assert len(sides) >= 3
        assert len(evaluations) == len(sides) + (not isotropic)
        assert sides[-1] >= emb.m > sides[-2]
        for side, m, block in taken:
            want = corner(first_column(kernel, Embedding(grid, m)), m)
            assert block.tobytes() == want.tobytes(), (side, m)

    @pytest.mark.parametrize("schedule,d,m0,nu", [
        ("increment", 3, 16, 0.5), ("doubling", 3, 16, 1.5),
        ("increment", 2, 64, 1.5)])
    def test_search_peak_is_values_lattice_and_blocks(
            self, monkeypatch, schedule, d, m0, nu):
        kernel = MaternKernel(1.0, 0.5, nu, d)
        grid = GridSpec(d=d, m0=m0)
        m_max = 100 * m0
        builds = []  # (m, side) at each lattice build
        folded_block = embedding._FoldedBlocks.block

        def recording_block(blocks, m):
            side = None if blocks.lattice is None else len(blocks.lattice)
            block = folded_block(blocks, m)
            if len(blocks.lattice) != side:
                builds.append((m, len(blocks.lattice) - 1))
            return block

        monkeypatch.setattr(embedding._FoldedBlocks, "block", recording_block)
        (emb, spec), peak = traced_peak(lambda: minimal_embedding(
            kernel, grid, tol=0.0, m_max=m_max, schedule=schedule))
        monkeypatch.undo()
        assert builds[0] == (m0, m0)
        for (_, before), (m, side) in zip(builds, builds[1:]):
            assert m > before
            if schedule == "increment":
                assert side == min(max(m, -(-5 * before // 4)), m_max)
            else:
                assert side == m
        if schedule == "doubling":
            # the m the search jumps to are the records of its attempts
            tried = [m for m, _ in spec.attempts]
            jumps = [m for i, m in enumerate(tried)
                     if m > max(tried[:i], default=0)]
            assert [m for m, _ in builds] == jumps
        # the _FoldedBlocks docstring's bound, with the lattice and block
        # of the returned search
        block_bytes = (emb.m + 1) ** d * 8
        lattice_bytes = (builds[-1][1] + 1) ** d * 8
        assert peak <= spec.values.nbytes + lattice_bytes + 4 * block_bytes, (
            peak, spec.values.nbytes, lattice_bytes, block_bytes)

    # tracemalloc peaks of the parent search (one table evaluation per
    # attempt, no table kept): 0.2 MiB at d=1 and 12.6 MiB at d=2.  A rank
    # index over every key up to d*size^2 would need 16 MiB at d=1
    @pytest.mark.parametrize("d,m0,lam,m,limit_mib", [
        (1, 1024, 0.2, 1653, 1), (2, 64, 0.5, 280, 19),
    ])
    def test_search_memory_follows_the_lattice(self, d, m0, lam, m,
                                               limit_mib):
        kernel = MaternKernel(1.0, lam, 1.5, d)
        (emb, _), peak = traced_peak(lambda: minimal_embedding(
            kernel, GridSpec(d=d, m0=m0), tol=0.0, m_max=100 * m0))
        assert emb.m == m
        assert peak <= limit_mib * 2**20, peak / 2**20

    def test_search_to_m_max_needs_no_more_than_its_spectrum(self):
        # d = 1 runs out at the default m_max = 100 m0 (coarse steps keep
        # it short); the table there has m_max + 1 values
        kernel = gaussian_kernel(1.0, 1.0, 1)
        grid = GridSpec(d=1, m0=64)
        m_max = 100 * grid.m0

        def search():
            with pytest.raises(PDUndecidableError):
                minimal_embedding(kernel, grid, tol=0.0, m_max=m_max,
                                  m_step=grid.m0)

        emb = Embedding(grid, m_max)
        _, search_peak = traced_peak(search)
        # the spectrum of a (2 m_max) column, built without the table
        _, spectrum_peak = traced_peak(
            lambda: spectrum(np.ones(emb.shape), emb))
        assert search_peak <= 2 * spectrum_peak, (search_peak, spectrum_peak)


class TestRoundingBound:
    @pytest.mark.parametrize("d,ms", [(2, range(56, 71)), (3, range(64, 81))])
    def test_bound_covers_long_double_oracle(self, d, ms):
        # Gaussian kernel with lam/h0 = 8, tol = 1e-13: the boundary lies
        # inside these ranges and under the float64 rounding floor
        tol = 1e-13
        kernel = gaussian_kernel(1.0, 1.0, d)
        grid = GridSpec(d=d, m0=8)
        certified = 0
        for m in ms:
            emb = Embedding(grid, m)
            spec = spectrum(first_column(kernel, emb), emb,
                            column_rel_error=kernel.eval_rel_error)
            exact = gaussian_spectrum_oracle(kernel, emb)
            err = float(np.abs(spec.values[(slice(0, m + 1),) * d]
                               - exact).max())
            assert err <= spec.rounding_bound, (m, err, spec.rounding_bound)
            if spec.decides(tol):
                certified += 1
                assert (spec.min_value >= -tol) == (exact.min() >= -tol), m
        if d == 2:
            assert certified > 0  # m = 56..61 are decided in float64

    @pytest.mark.parametrize("d,m0,lam,tol,decider", [
        (1, 64, 0.25, 1e-10, "dct"), (2, 32, 0.25, 1e-10, "dct"),
        (3, 8, 0.5, 1e-10, "dct"), (2, 32, 0.25, 1e-13, "dct"),
        (3, 8, 0.5, 1e-13, "dct"),
    ])
    def test_search_spectrum_within_its_bound_of_long_double_oracle(
            self, d, m0, lam, tol, decider):
        # the returned values are the DCT-I's at the final m; clamping
        # both sides at 0 moves no gap up
        kernel = gaussian_kernel(1.0, lam, d)
        emb, spec = minimal_embedding(kernel, GridSpec(d=d, m0=m0), tol=tol,
                                      m_max=100 * m0)
        assert spec.attempts[-1] == (emb.m, decider)
        exact = np.maximum(gaussian_spectrum_oracle(kernel, emb), 0.0)
        gap = np.abs(spec.values - embedding._unfold(exact, emb.m)).max()
        assert float(gap) <= spec.rounding_bound

    def test_norm_of_signed_column(self):
        # a column with negative entries takes the folded-block route
        kernel = CustomStationaryKernel(
            rho_fn=lambda x: np.cos(3.0 * x).prod(axis=-1), d=2)
        emb = Embedding(GridSpec(d=2, m0=4), m=6)
        column = first_column(kernel, emb)
        assert column.min() < 0
        spec = spectrum(column, emb)
        u = np.finfo(float).eps / 2
        expected = u * np.log2(emb.s) * np.abs(column).sum()
        assert spec.rounding_bound == pytest.approx(expected, rel=1e-12)

    def test_norm_of_nonnegative_column(self):
        kernel = MaternKernel(1.0, 0.5, 1.5, 3)
        emb = Embedding(GridSpec(d=3, m0=4), m=7)
        column = first_column(kernel, emb)
        spec = spectrum(column, emb, column_rel_error=1e-14)
        u = np.finfo(float).eps / 2
        expected = (u * np.log2(emb.s) + 1e-14) * column.sum()
        assert spec.rounding_bound == pytest.approx(expected, rel=1e-12)

    def test_decides(self):
        # eigenvalues 1.5 and -0.5: the verdict min >= -tol flips at 0.5
        spec = spectrum(np.array([0.5, 1.0]), Embedding(GridSpec(1, 1), 1))
        assert spec.certified is None and spec.min_value == -0.5
        b = spec.rounding_bound
        assert spec.decides(0.0)
        assert not spec.decides(0.5)
        assert spec.decides(0.5 + 10 * b) and spec.decides(0.5 - 10 * b)


class TestEigenLowerBoundDiagnostic:
    def test_never_exceeds_true_minimum(self):
        for (d, nu, lam, m0, m) in [(1, 0.5, 1.0, 8, 8), (1, 1.5, 0.5, 8, 16),
                                    (2, 1.0, 0.5, 4, 8)]:
            k = MaternKernel(1.0, lam, nu, d)
            emb = Embedding(GridSpec(d=d, m0=m0), m=m)
            spec = spectrum(first_column(k, emb), emb)
            bound = eigen_lower_bound_diagnostic(k, emb,
                                                 zeta_grid_n=2 * emb.m,
                                                 trunc_radius=3)
            assert bound <= spec.min_value + 1e-8

    def test_predicts_positive_definiteness(self):
        # lam/h0 = 2 keeps the aliased-density floor rho_hat(1/(2 h0))/h0
        # around 1e-8, above the double-precision FFT noise, so the FFT
        # minimum can confirm the diagnostic's positive verdict strictly
        k = gaussian_kernel(1.0, 1.0, 1)
        emb = Embedding(GridSpec(d=1, m0=2), m=16)  # ell = 8
        bound = eigen_lower_bound_diagnostic(k, emb, zeta_grid_n=2 * emb.m,
                                             trunc_radius=4)
        spec = spectrum(first_column(k, emb), emb)
        assert bound > 0
        assert spec.min_value > 0
        assert bound <= spec.min_value + 1e-8

    def test_scales_linearly_with_variance(self):
        emb = Embedding(GridSpec(d=1, m0=8), m=16)
        b1 = eigen_lower_bound_diagnostic(MaternKernel(1.0, 0.5, 1.0, 1), emb,
                                          zeta_grid_n=32, trunc_radius=3)
        b4 = eigen_lower_bound_diagnostic(MaternKernel(4.0, 0.5, 1.0, 1), emb,
                                          zeta_grid_n=32, trunc_radius=3)
        assert b4 == pytest.approx(4.0 * b1, rel=1e-10)
