import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circembed import (CustomStationaryKernel, GridSpec, MaternKernel,
                       ValidationReport, batch_sample_values,
                       dense_covariance, minimal_embedding, validate_samples)
from conftest import dense_grid_matrix

# derandomized and without an example database, so every run checks the
# same examples
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


class TestDenseCovariance:
    def test_matches_reference_assembly(self):
        k = MaternKernel(1.0, 0.5, 1.5, 2)
        grid = GridSpec(d=2, m0=3)
        assert np.allclose(dense_covariance(k, grid),
                           dense_grid_matrix(k, grid), atol=1e-15)

    @PROPERTY
    @given(d=st.sampled_from([1, 2, 3]), m0=st.integers(1, 6),
           nu=st.sampled_from([0.5, 1.5, 4.0, math.inf]),
           lam=st.floats(0.05, 2.0))
    def test_lag_table_equals_pairwise_assembly(self, d, m0, nu, lam):
        k = MaternKernel(1.0, lam, nu, d, allow_small_nu=True)
        grid = GridSpec(d=d, m0=m0)
        R = dense_covariance(k, grid)
        assert np.array_equal(R, dense_grid_matrix(k, grid))
        assert np.array_equal(R, R.T)

    def test_signed_lags_for_a_kernel_not_even_per_axis(self):
        # stationary, but rho(x1, -x2) != rho(x1, x2): a table of |lags|
        # would fail this
        k = CustomStationaryKernel(
            rho_fn=lambda x: np.exp(-(x[:, 0] + 0.5 * x[:, 1]) ** 2), d=2)
        grid = GridSpec(d=2, m0=4)
        R = dense_covariance(k, grid)
        assert np.array_equal(R, dense_grid_matrix(k, grid))
        # lag (1, 1) from (0, 0) to (1, 1), lag (1, -1) from (0, 1) to (1, 0)
        assert R[6, 0] != R[5, 1]

    def test_one_kappa_call(self, monkeypatch):
        k = MaternKernel(1.0, 0.5, 1.5, 3)
        calls = []
        kappa = MaternKernel.kappa

        def counting(self, r):
            calls.append(np.size(r))
            return kappa(self, r)

        monkeypatch.setattr(MaternKernel, "kappa", counting)
        dense_covariance(k, GridSpec(d=3, m0=5))
        assert calls == [11**3]

    def test_size_cap(self):
        k = MaternKernel(1.0, 0.5, 1.5, 3)
        with pytest.raises(MemoryError):
            dense_covariance(k, GridSpec(d=3, m0=32))


def dense_reference(values, kernel, grid, mean=0.0) -> ValidationReport:
    """`validate_samples` computed against the dense R, as before the lag
    table became the target."""
    n = values.shape[0]
    R = dense_covariance(kernel, grid)
    cov_tol = float(7.0 * (1.0 + np.abs(R).max()) / math.sqrt(n))
    mean_tol = float(4.0 * math.sqrt(R.diagonal().max() / n))
    emp_mean = values.mean(axis=0)
    centered = values - emp_mean
    emp_cov = centered.T @ centered
    emp_cov /= n - 1
    variances = emp_cov.diagonal() * ((n - 1) / n)
    max_cov_err = float(np.abs(emp_cov - R).max())
    max_mean_err = float(np.abs(emp_mean - mean).max())
    if np.allclose(variances, 0.0):
        return ValidationReport(
            n_samples=n, max_mean_error=max_mean_err, mean_tolerance=0.0,
            max_cov_error=max_cov_err, cov_tolerance=0.0, mean_ok=False,
            cov_ok=False, passed=False,
            message="degenerate input: all samples have zero variance")
    mean_ok = bool(max_mean_err <= mean_tol)
    cov_ok = bool(max_cov_err <= cov_tol)
    return ValidationReport(
        n_samples=n, max_mean_error=max_mean_err, mean_tolerance=mean_tol,
        max_cov_error=max_cov_err, cov_tolerance=cov_tol, mean_ok=mean_ok,
        cov_ok=cov_ok, passed=mean_ok and cov_ok)


def _bits(report: ValidationReport) -> dict:
    """The report's fields, each float as its exact hex form."""
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in dataclasses.asdict(report).items()}


def _tilted_kernel(d):
    # stationary, not even per axis: rho(x) = exp(-(w . x)^2)
    w = np.array([1.0, 0.5, 0.25][:d])
    return CustomStationaryKernel(rho_fn=lambda x: np.exp(-(x @ w) ** 2), d=d)


@pytest.fixture(scope="module")
def good_run():
    k = MaternKernel(1.0, 0.5, 0.5, 1)
    grid = GridSpec(d=1, m0=16)
    _, spec = minimal_embedding(k, grid, tol=0.0)
    values = batch_sample_values(spec, 0.0, n=5000, seed=21)
    return k, grid, values


class TestValidateSamples:
    def test_passes_on_genuine_samples(self, good_run):
        k, grid, values = good_run
        report = validate_samples(values, k, grid)
        assert report.passed and report.mean_ok and report.cov_ok
        assert report.max_cov_error <= report.cov_tolerance

    def test_cov_error_against_pairwise_assembly(self, good_run):
        k, grid, values = good_run
        centered = values - values.mean(axis=0)
        emp = centered.T @ centered / (len(values) - 1)
        report = validate_samples(values, k, grid)
        assert report.max_cov_error == np.abs(
            emp - dense_grid_matrix(k, grid)).max()

    def test_fails_on_wrong_kernel(self, good_run):
        _, grid, values = good_run
        wrong = MaternKernel(4.0, 0.5, 0.5, 1)  # wrong variance
        report = validate_samples(values, wrong, grid)
        assert not report.passed

    def test_nonzero_mean(self, good_run):
        k, grid, values = good_run
        report = validate_samples(values + 2.5, k, grid, mean=2.5)
        assert report.mean_ok

    def test_degenerate_input(self, good_run):
        k, grid, _ = good_run
        flat = np.ones((2000, grid.n_points))
        report = validate_samples(flat, k, grid)
        assert not report.passed
        assert "zero variance" in report.message

    def test_peak_memory_is_centred_samples_and_two_matrices(self, rng):
        # one n x M centred copy of the samples, R and the empirical
        # covariance; no n x M temporaries for the variances and no copy
        # of |R| next to the empirical covariance
        grid = GridSpec(d=2, m0=15)
        values = rng.normal(size=(1000, grid.n_points))
        tracemalloc.start()
        try:
            validate_samples(values, MaternKernel(1.0, 0.2, 1.5, 2), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix_bytes = 8 * grid.n_points ** 2
        assert peak <= values.nbytes + 2 * matrix_bytes + 2**17

    def test_peak_memory_is_centred_samples_one_matrix_and_lag_table(
            self, rng):
        # R is never built: the empirical covariance is the one M x M array
        grid = GridSpec(d=2, m0=15)
        values = rng.normal(size=(1000, grid.n_points))
        tracemalloc.start()
        try:
            validate_samples(values, MaternKernel(1.0, 0.2, 1.5, 2), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix_bytes = 8 * grid.n_points ** 2
        table_bytes = 8 * (2 * grid.m0 + 1) ** grid.d
        assert peak <= values.nbytes + matrix_bytes + table_bytes + 2**17

    @PROPERTY
    @given(d=st.sampled_from([1, 2, 3]), m0=st.integers(1, 4),
           nu=st.sampled_from([0.5, 1.5, 4.0, math.inf, "tilted"]),
           lam=st.floats(0.05, 1.0),
           kind=st.sampled_from(["genuine", "scaled", "constant"]),
           mean=st.sampled_from([0.0, 2.5]), seed=st.integers(0, 2**32 - 1))
    def test_report_equals_dense_reference(self, d, m0, nu, lam, kind, mean,
                                           seed):
        grid = GridSpec(d=d, m0=m0)
        kernel = (_tilted_kernel(d) if nu == "tilted" else
                  MaternKernel(1.0, lam, nu, d, allow_small_nu=True))
        n = 1000
        if kind == "constant":  # degenerate: zero variance everywhere
            values = np.full((n, grid.n_points), mean)
        else:
            w, V = np.linalg.eigh(dense_covariance(kernel, grid))
            factor = V * np.sqrt(np.maximum(w, 0.0))
            z = np.random.default_rng(seed).standard_normal(
                (n, grid.n_points))
            values = mean + (1.0 if kind == "genuine" else 3.0) * z @ factor.T
        got = validate_samples(values, kernel, grid, mean=mean)
        want = dense_reference(values, kernel, grid, mean=mean)
        assert _bits(got) == _bits(want)
        if kind != "genuine":  # a scale of 3 is far outside the tolerance
            assert not got.passed

    def test_cap_is_checked_before_sample_count(self):
        # one sample on 4225 points: the cap, not the sample count, refuses
        grid = GridSpec(d=2, m0=64)
        with pytest.raises(MemoryError, match="4225 points, above the cap "
                           "of 4096"):
            validate_samples(np.zeros((1, grid.n_points)),
                             MaternKernel(1.0, 0.2, 1.5, 2), grid)

    def test_minimum_sample_count(self, good_run):
        k, grid, values = good_run
        with pytest.raises(ValueError):
            validate_samples(values[:10], k, grid)

    def test_shape_mismatch(self, good_run):
        k, _, values = good_run
        with pytest.raises(ValueError):
            validate_samples(values, k, GridSpec(d=1, m0=8))

    def test_mean_size_mismatch(self, good_run):
        k, grid, values = good_run
        with pytest.raises(ValueError,
                           match="mean has 5 entries, grid has 17 points"):
            validate_samples(values, k, grid, mean=np.zeros(5))
