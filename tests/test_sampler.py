import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from circembed import (
    Embedding,
    GridSpec,
    MaternKernel,
    Spectrum,
    batch_sample_values,
    draw_normal,
    first_column,
    gaussian_kernel,
    importance_ordering,
    minimal_embedding,
    qmc_map,
    sample,
    sampler,
    spectrum,
)
from conftest import (dense_extended_matrix, dense_grid_matrix,
                      dense_orthogonal_factor, dense_transform, multi_indices)


def chunks_of(size):
    """Run the sampler with `size` samples per chunk, whatever the budget
    gives."""
    return mock.patch.object(sampler, "_chunk_size", return_value=size)


def exponential_spectrum(d=1, m0=2, m=2, lam=1.0):
    k = MaternKernel(1.0, lam, 0.5, d)
    emb = Embedding(GridSpec(d=d, m0=m0), m=m)
    return k, emb, spectrum(first_column(k, emb), emb)


class TestDrawNormal:
    def test_deterministic(self):
        a = draw_normal(64, seed=7, stream=3)
        b = draw_normal(64, seed=7, stream=3)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = draw_normal(64, seed=7, stream=0)
        b = draw_normal(64, seed=7, stream=1)
        assert not np.array_equal(a, b)

    def test_stream_independence_correlation(self):
        n = 10**5
        a = draw_normal(n, seed=11, stream=0)
        b = draw_normal(n, seed=11, stream=1)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) <= 0.02  # pre-registered 4/sqrt(n) scale bound

    def test_mean_bound(self):
        n = 10**6
        a = draw_normal(n, seed=13, stream=0)
        assert abs(a.mean()) <= 4.0 / math.sqrt(n)

    def test_domain(self):
        with pytest.raises(ValueError):
            draw_normal(0, seed=1)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (4, -2)])
    def test_negative_seed_or_stream_is_rejected(self, seed, stream):
        # numpy's own error named neither
        with pytest.raises(ValueError, match=f"seed={seed}, stream={stream}"):
            draw_normal(4, seed, stream)


class TestQmcMap:
    def test_center_maps_to_zero(self):
        y = qmc_map(np.full(8, 0.5), np.arange(8))
        assert np.array_equal(y, np.zeros(8))

    def test_inverse_cdf_routing(self):
        y = qmc_map(np.array([0.975, 0.5]), np.arange(2))
        assert y[0] == pytest.approx(1.959963984540054, abs=1e-12)
        assert y[1] == 0.0

    def test_ordering_permutes(self):
        point = np.array([0.9, 0.2, 0.5, 0.7])
        y_id = qmc_map(point, np.arange(4))
        perm = np.array([2, 0, 3, 1])
        y_perm = qmc_map(point, perm)
        assert sorted(y_id) == sorted(y_perm)
        for j in range(4):
            assert y_perm[perm[j]] == y_id[j]

    def test_domain(self):
        with pytest.raises(ValueError):
            qmc_map(np.array([0.0, 0.5]), np.arange(2))
        with pytest.raises(ValueError, match="must have equal length"):
            qmc_map(np.array([0.25, 0.5]), np.arange(3))


class TestImportanceOrdering:
    def test_distinct_strict_sort(self):
        _, _, spec = exponential_spectrum(m=2)
        order = importance_ordering(spec)
        vals = spec.values_flat[order]
        assert np.all(np.diff(vals) <= 0)
        assert vals[0] == spec.values_flat.max()

    def test_constant_spectrum_identity(self):
        emb = Embedding(GridSpec(d=1, m0=2), m=2)
        spec = Spectrum(values=np.full(4, 2.0), min_value=2.0, tolerance=0.0,
                        embedding=emb)
        assert np.array_equal(importance_ordering(spec), np.arange(4))

    def test_matches_dense_oracle_sort(self):
        k, emb, spec = exponential_spectrum(m=2)
        dense = dense_extended_matrix(k, emb)
        oracle_sorted = np.sort(np.linalg.eigvalsh(dense))[::-1]
        ordered = spec.values_flat[importance_ordering(spec)]
        assert np.allclose(ordered, oracle_sorted, atol=1e-12)


class TestSample:
    def test_zero_input_returns_mean(self):
        _, emb, spec = exponential_spectrum()
        mean = np.linspace(0.0, 1.0, emb.grid.n_points)
        out = sample(spec, mean, np.zeros(emb.s))
        assert np.array_equal(out, mean)

    def test_two_point_hand_computation(self):
        emb = Embedding(GridSpec(d=1, m0=1), m=1)
        spec = Spectrum(values=np.array([2.0, 0.0]), min_value=0.0,
                        tolerance=0.0, embedding=emb)
        out = sample(spec, 0.0, np.array([1.0, 0.0]))
        assert np.allclose(out, [1.0, 1.0], atol=1e-15)

    def test_matches_dense_factor_on_small_instance(self):
        # output must equal B_ext y restricted to the physical rows, with
        # B_ext = Q_ext diag(sqrt(Lambda)) assembled densely
        k, emb, spec = exponential_spectrum(d=1, m0=2, m=2, lam=1.0)
        q = dense_orthogonal_factor(emb)
        b_ext = q @ np.diag(np.sqrt(spec.values_flat))
        y = np.array([1.0, -1.0, 0.5, 2.0])
        expected = (b_ext @ y)[:3]
        out = sample(spec, 0.0, y)
        assert np.abs(out - expected).max() <= 1e-12

    def test_linearity(self, rng):
        _, emb, spec = exponential_spectrum(d=2, m0=2, m=3)
        y1 = rng.normal(size=emb.s)
        y2 = rng.normal(size=emb.s)
        a, b = 0.7, -1.9
        lhs = sample(spec, 0.0, a * y1 + b * y2)
        rhs = a * sample(spec, 0.0, y1) + b * sample(spec, 0.0, y2)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_involution_of_transform(self, rng):
        # Q_ext is symmetric orthogonal, so applying it twice is identity
        for shape in [(8,), (4, 4), (4, 4, 4)]:
            u = rng.normal(size=shape)
            twice = dense_transform(dense_transform(u))
            assert np.abs(twice - u).max() <= 1e-12

    def test_lognormal_is_exp_of_gaussian(self, rng):
        _, emb, spec = exponential_spectrum()
        y = rng.normal(size=emb.s)
        plain = sample(spec, 0.3, y)
        logn = sample(spec, 0.3, y, lognormal=True)
        assert np.array_equal(logn, np.exp(plain))

    def test_negative_spectrum_rejected(self):
        emb = Embedding(GridSpec(d=1, m0=1), m=1)
        spec = Spectrum(values=np.array([2.0, -0.1]), min_value=-0.1,
                        tolerance=0.0, embedding=emb)
        with pytest.raises(ValueError):
            sample(spec, 0.0, np.zeros(2))

    def test_mean_shape_mismatch(self):
        _, emb, spec = exponential_spectrum()
        with pytest.raises(ValueError):
            sample(spec, np.zeros(7), np.zeros(emb.s))

    def test_normal_count_mismatch(self):
        _, emb, spec = exponential_spectrum()
        with pytest.raises(ValueError, match=f"expected {emb.s} normal "
                           f"inputs, got {emb.s - 1}"):
            sample(spec, 0.0, np.zeros(emb.s - 1))


class TestFactorizationIdentity:
    @pytest.mark.parametrize("d,m0,m,nu", [
        (1, 2, 2, 0.5), (1, 4, 8, 1.5), (2, 2, 4, 0.5), (2, 4, 8, 1.5),
    ])
    def test_bbt_equals_r(self, d, m0, m, nu):
        k = MaternKernel(1.0, 0.5, nu, d)
        grid = GridSpec(d=d, m0=m0)
        emb = Embedding(grid, m=m)
        spec = spectrum(first_column(k, emb), emb)
        assert spec.min_value > 0, "instance must be positive definite"
        q = dense_orthogonal_factor(emb)
        b_ext = q @ np.diag(np.sqrt(spec.values_flat))
        # physical rows: indices {0..m0}^d in the lexicographic layout
        idx = multi_indices(2 * m, d)
        keep = np.all(idx <= m0, axis=1)
        b = b_ext[keep]
        r = dense_grid_matrix(k, grid)
        assert np.abs(b @ b.T - r).max() <= 1e-10

    def test_bbt_gaussian_with_clamp(self):
        k = gaussian_kernel(1.0, 1.0, 1)
        grid = GridSpec(d=1, m0=8)
        emb, spec = minimal_embedding(k, grid, tol=1e-13, m_max=512)
        q = dense_orthogonal_factor(emb)
        b_ext = q @ np.diag(np.sqrt(spec.values_flat))
        b = b_ext[:grid.m0 + 1]
        r = dense_grid_matrix(k, grid)
        assert np.abs(b @ b.T - r).max() <= 1e-10


class TestQmcPipeline:
    def test_qmc_point_drives_largest_eigenvalue_direction(self):
        # a point stratified only in its first coordinate must excite the
        # top eigenvalue direction
        _, emb, spec = exponential_spectrum(d=1, m0=2, m=2)
        order = importance_ordering(spec)
        point = np.full(emb.s, 0.5)
        point[0] = 0.975
        y = qmc_map(point, order)
        assert y[order[0]] == pytest.approx(1.959963984540054, abs=1e-12)
        out = sample(spec, 0.0, y)
        top = np.zeros(emb.s)
        top[order[0]] = y[order[0]]
        expected = sample(spec, 0.0, top)
        assert np.allclose(out, expected, atol=1e-15)


class TestBatchSample:
    def test_single_equals_stream_zero(self):
        _, emb, spec = exponential_spectrum()
        batch = batch_sample_values(spec, 0.0, n=1, seed=5)
        direct = sample(spec, 0.0, draw_normal(emb.s, seed=5, stream=0))
        assert np.array_equal(batch[0], direct)

    def test_negative_seed_is_rejected(self):
        _, _, spec = exponential_spectrum()
        with pytest.raises(ValueError, match="seed >= 0"):
            batch_sample_values(spec, 0.0, n=1, seed=-1)

    def test_content_is_stream_indexed(self):
        _, emb, spec = exponential_spectrum(d=2, m0=2, m=3)
        with chunks_of(3):
            batch = batch_sample_values(spec, 0.0, n=7, seed=42)
        for i in (0, 3, 6):
            direct = sample(spec, 0.0, draw_normal(emb.s, seed=42, stream=i))
            assert np.allclose(batch[i], direct, atol=0)

    def test_chunking_invariance(self):
        _, emb, spec = exponential_spectrum()
        with chunks_of(2):
            a = batch_sample_values(spec, 0.0, n=10, seed=3)
        with chunks_of(10):
            b = batch_sample_values(spec, 0.0, n=10, seed=3)
        assert np.array_equal(a, b)

    def test_pointwise_variance(self):
        # 5e4 samples: variance estimator sd ~ sigma^2 sqrt(2/n) ~ 0.0063
        k = MaternKernel(1.0, 0.5, 0.5, 1)
        emb, spec = minimal_embedding(k, GridSpec(d=1, m0=16), tol=0.0)
        vals = batch_sample_values(spec, 0.0, n=50_000, seed=101)
        var = vals.var(axis=0)
        assert np.abs(var - 1.0).max() <= 0.05

    def test_statistical_covariance(self):
        k = MaternKernel(1.0, 0.5, 0.5, 1)
        grid = GridSpec(d=1, m0=16)
        emb, spec = minimal_embedding(k, grid, tol=0.0)
        vals = batch_sample_values(spec, 0.0, n=50_000, seed=7)
        centered = vals - vals.mean(axis=0)
        emp = centered.T @ centered / (vals.shape[0] - 1)
        r = dense_grid_matrix(k, grid)
        assert np.abs(emp - r).max() <= 0.05

    def test_memory_follows_byte_budget(self):
        # d=3, m0=16: s = 122^3 normals per sample; a fixed chunk of 256
        # samples would hold all 64 at once, about 9 GB of transforms
        from circembed.sampler import SAMPLE_BUDGET_BYTES
        k = MaternKernel(1.0, 0.5, 0.5, 3)
        emb, spec = minimal_embedding(k, GridSpec(d=3, m0=16), tol=0.0)
        assert emb.m == 61
        tracemalloc.start()
        try:
            vals = batch_sample_values(spec, 0.0, n=64, seed=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vals.shape == (64, 17**3)
        assert peak < 4 * SAMPLE_BUDGET_BYTES + vals.nbytes

    def test_memory_follows_byte_budget_at_any_cpu_count(self):
        # one chunk in flight per CPU would hold 16 of these 29 MB rows
        from circembed.sampler import SAMPLE_BUDGET_BYTES
        k = MaternKernel(1.0, 0.5, 0.5, 3)
        emb, spec = minimal_embedding(k, GridSpec(d=3, m0=16), tol=0.0)
        assert emb.m == 61
        tracemalloc.start()
        try:
            with mock.patch.object(sampler, "worker_count", return_value=16):
                vals = batch_sample_values(spec, 0.0, n=64, seed=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vals.shape == (64, 17**3)
        assert peak < 4 * SAMPLE_BUDGET_BYTES + vals.nbytes
