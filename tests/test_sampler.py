import contextlib
import itertools
import math
import threading
import time
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
    inv_normal_cdf,
    minimal_embedding,
    sample,
    sampler,
    spectrum,
)
from conftest import (dense_grid_matrix, dense_orthogonal_factor,
                      dense_transform, multi_indices, traced_peak)


def chunks_of(size):
    """Run the sampler with `size` samples per chunk, whatever the budget
    gives."""
    return mock.patch.object(sampler, "_chunk_size", return_value=size)


def workers(count):
    """Run the sampler with `count` threads, whatever the host has."""
    return mock.patch.object(sampler, "worker_count", return_value=count)


def slabs_of_one():
    """Run the sampler with one line (2m values along the rfft's axis) per
    slab and one sample per chunk, unless the chunk size is patched too."""
    return mock.patch.object(sampler, "CHUNK_BYTES", 1)


def slabs_of(lines, emb, rows):
    """Run the sampler with slabs of `lines` lines in chunks of `rows`
    samples (more in a shorter last chunk), at most a sample's lines."""
    return mock.patch.object(sampler, "CHUNK_BYTES",
                             lines * rows * sampler._line_bytes(emb))


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


class TestOwnInputs:
    """Normal inputs of the caller's own, such as QMC points in (0, 1)^s
    mapped through inv_normal_cdf, drive `sample` directly."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_centre_point_gives_the_mean(self, d):
        _, emb, spec = exponential_spectrum(d=d, lam=0.5)
        mean = np.linspace(-1.0, 1.0, emb.grid.n_points)
        y = inv_normal_cdf(np.full(emb.s, 0.5))
        assert np.array_equal(sample(spec, mean, y), mean)

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_stratified_coordinate_excites_one_eigenvector(self, d):
        # a point away from 1/2 only in the coordinate of the top
        # eigenvalue gives that eigenvector, scaled by its root and the
        # coordinate's normal quantile, on the physical rows
        _, emb, spec = exponential_spectrum(d=d, m0=2, m=2)
        top = int(np.argmax(spec.values_flat))
        u = np.full(emb.s, 0.5)
        u[top] = 0.975
        out = sample(spec, 0.0, inv_normal_cdf(u))
        q = dense_orthogonal_factor(emb)
        keep = np.all(multi_indices(2 * emb.m, d) <= emb.grid.m0, axis=1)
        expected = (q[:, top] * math.sqrt(spec.values_flat[top])
                    * 1.959963984540054)[keep]
        assert np.abs(out - expected).max() <= 1e-12

    def test_a_symmetric_grid_of_points_gives_the_covariance(self):
        # the midpoint grid {(i + 1/2)/6}^s maps to normals with no cross
        # moments (each axis' quantiles are antisymmetric) and second
        # moment c on every axis, so its fields' mean outer product is
        # exactly c R
        k, emb, spec = exponential_spectrum(d=1, m0=2, m=2)
        assert spec.min_value > 0, "instance must be positive definite"
        axis = inv_normal_cdf((np.arange(6) + 0.5) / 6)
        c = float(np.mean(axis**2))
        fields = np.array([sample(spec, 0.0, y) for y in
                           itertools.product(axis, repeat=emb.s)])
        emp = fields.T @ fields / fields.shape[0]
        r = dense_grid_matrix(k, emb.grid)
        assert np.abs(emp - c * r).max() <= 1e-12


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
        with traced_peak() as peak:
            vals = batch_sample_values(spec, 0.0, n=64, seed=9)
        assert vals.shape == (64, 17**3)
        assert peak.bytes < 4 * SAMPLE_BUDGET_BYTES + vals.nbytes

    def test_memory_follows_byte_budget_at_any_cpu_count(self):
        # one chunk in flight per CPU would hold 16 of these 29 MB rows
        from circembed.sampler import SAMPLE_BUDGET_BYTES
        k = MaternKernel(1.0, 0.5, 0.5, 3)
        emb, spec = minimal_embedding(k, GridSpec(d=3, m0=16), tol=0.0)
        assert emb.m == 61
        with traced_peak() as peak, \
                mock.patch.object(sampler, "worker_count", return_value=16):
            vals = batch_sample_values(spec, 0.0, n=64, seed=9)
        assert vals.shape == (64, 17**3)
        assert peak.bytes < 4 * SAMPLE_BUDGET_BYTES + vals.nbytes


class TestStreamedSlabs:
    @pytest.mark.parametrize("lognormal", [False, True])
    @pytest.mark.parametrize("d,m0,m", [(1, 6, 9), (2, 3, 5), (3, 2, 4)])
    def test_rows_are_byte_equal_at_any_workers_chunks_and_slabs(
            self, d, m0, m, lognormal):
        _, emb, spec = exponential_spectrum(d=d, m0=m0, m=m, lam=0.5)
        mean = np.linspace(-1.0, 1.0, emb.grid.n_points)
        with workers(1):
            want = batch_sample_values(spec, mean, 10, 4, lognormal=lognormal)
        with slabs_of_one():
            assert sampler._slab_lines(emb, 1) == 1
        # slabs of 3 lines cross axis-0 planes in d = 3
        lines = emb.s // (2 * m)
        with slabs_of(3, emb, 4):
            assert sampler._slab_lines(emb, 4) == min(3, lines)
        for count in (1, 2, 3):
            for size in range(1, 11):
                for slabs in (slabs_of_one, contextlib.nullcontext,
                              lambda: slabs_of(3, emb, size)):
                    with workers(count), chunks_of(size), slabs():
                        got = batch_sample_values(spec, mean, 10, 4,
                                                  lognormal=lognormal)
                    assert got.tobytes() == want.tobytes()

    def test_a_sink_gets_every_row_once(self):
        _, emb, spec = exponential_spectrum(d=2, m0=3, m=5, lam=0.5)
        want = batch_sample_values(spec, 0.5, 23, 8)
        got, seen = np.empty_like(want), []

        def sink(lo, rows):
            seen.extend(range(lo, lo + len(rows)))
            got[lo:lo + len(rows)] = rows

        with workers(3), chunks_of(4):
            assert batch_sample_values(spec, 0.5, 23, 8, sink=sink) is None
        assert sorted(seen) == list(range(23))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("error", [OSError("disk went away"),
                                       KeyboardInterrupt()],
                             ids=["OSError", "KeyboardInterrupt"])
    def test_the_first_error_stops_the_run(self, error):
        # two threads and chunks of one sample: chunk 0's sink raises while
        # chunk 1 is in flight, and the chunks after them must not reach
        # the sink
        k = MaternKernel(1.0, 0.5, 0.5, 1)
        _, spec = minimal_embedding(k, GridSpec(d=1, m0=64), tol=0.0)
        raised, calls = threading.Event(), []

        def sink(lo, rows):
            calls.append(lo)
            if lo == 0:
                raised.set()
                raise error
            raised.wait(5)
            time.sleep(0.1)  # chunk 0's error reaches the sampler first

        with workers(2), chunks_of(1), pytest.raises(type(error)) as caught:
            batch_sample_values(spec, 0.0, 100, 1, sink=sink)
        assert caught.value is error
        assert 0 in calls and len(calls) <= 2  # the chunks in flight

    def test_no_more_chunks_or_threads_than_workers(self):
        # chunks of one sample: a chunk holds memory from its first draw
        # until its sink returns, and the memory budget relies on no more
        # than `workers` such chunks at once, run by as many threads
        _, _, spec = exponential_spectrum(d=2, m0=3, m=5, lam=0.5)
        lock, started, held, most = threading.Lock(), [], 0, 0
        generator, start = sampler._generator, threading.Thread.start

        def first_draw(seed, stream):
            nonlocal held, most
            with lock:
                held += 1
                most = max(most, held)
            return generator(seed, stream)

        def sink(lo, rows):
            nonlocal held
            time.sleep(0.001)  # other chunks start meanwhile
            with lock:
                held -= 1

        def counted_start(thread):
            started.append(thread)
            start(thread)

        with workers(3), chunks_of(1), \
                mock.patch.object(sampler, "_generator", first_draw), \
                mock.patch.object(threading.Thread, "start", counted_start):
            batch_sample_values(spec, 0.0, 60, 2, sink=sink)
        assert held == 0 and 1 <= most <= 3
        assert 1 <= len(started) <= 3

    def test_d3_peak_is_a_fraction_of_one_sample(self):
        # d=3, m0=16, m=61: one sample's normals are 14 MiB, and two whole
        # samples in flight with the whole square root took 78 MiB
        k = MaternKernel(1.0, 0.5, 0.5, 3)
        emb, spec = minimal_embedding(k, GridSpec(d=3, m0=16), tol=0.0)
        assert emb.m == 61
        with workers(2), traced_peak() as peak:
            batch_sample_values(spec, 0.0, n=8, seed=9)
        assert peak.bytes <= 24 * 2**20

    @pytest.mark.parametrize("m", [40, 80])
    def test_peak_is_below_the_folded_block_and_the_budget_at_any_m(self, m):
        # at m=80 one sample's normals and rfft output are 63 MiB
        from circembed.sampler import SAMPLE_BUDGET_BYTES
        emb = Embedding(GridSpec(d=3, m0=8), m=m)
        spec = Spectrum(values=np.ones(emb.shape), min_value=1.0,
                        tolerance=0.0, embedding=emb)
        with workers(16), traced_peak() as peak:
            batch_sample_values(spec, 0.0, n=16, seed=1,
                                sink=lambda lo, rows: None)
        assert peak.bytes < (m + 1) ** 3 * 8 + SAMPLE_BUDGET_BYTES
