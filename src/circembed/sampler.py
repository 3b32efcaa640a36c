"""Exact field sampling from a nonnegative circulant spectrum.

One sample costs one real d-dimensional FFT: scale an s-vector of standard
normals by the eigenvalue square roots, apply the unitary
positive-exponent DFT, add real and imaginary parts (the real symmetric
orthogonal factor of the circulant), and read off the physical grid
entries.  For real input, Re + Im of the positive-exponent DFT is Re - Im
of the negative-exponent one, so the transform runs as an rfft on the last
axis and complex FFTs on the others, each cut to indices 0..m0 before the
next axis (output pruning; m0 <= m makes the cut valid).

Samples are computed in chunks of rows sized to one core's cache
(CHUNK_BYTES), and a chunk is the unit of parallel work: one pool thread
draws and scales its normals, transforms them and writes the field
values, mean and `exp` included, into the output rows.  One thread per
CPU the process may run on, at most, works at once, and never more
chunks than SAMPLE_BUDGET_BYTES holds, so memory does not grow with the
number of samples.  When fewer chunks than CPUs are in flight (a small
batch, or rows so large that the budget holds few of them), the idle
CPUs share each chunk's FFTs.  Row i depends only on (seed, i), so the
output is the same bit for bit at any chunking or worker count.

A sample is its (m0+1)^d array of grid values: `sample` returns one,
`batch_sample_values` an (n, (m0+1)^d) array.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.fft

from .embedding import Spectrum, resolve_mean
from .specialfn import inv_normal_cdf

__all__ = [
    "draw_normal",
    "qmc_map",
    "importance_ordering",
    "sample",
    "batch_sample_values",
]

# Bytes of normals plus transform output held at once by all chunks in
# flight.
SAMPLE_BUDGET_BYTES = 64 * 2**20

# Bytes of normals plus transform output per chunk: about one core's L2
# cache, so a chunk stays in cache from its draws to its output rows.  On
# 2 CPUs with 2 MiB of L2 each, chunks of 512 KiB to 4 MiB sampled equally
# fast within the run-to-run spread, and 64 MiB took about twice as long.
CHUNK_BYTES = 2 * 2**20

# The module that runs the sampler's transforms (recorded in run manifests).
FFT_BACKEND = scipy.fft.__name__


def worker_count() -> int:
    """Threads the sampler uses: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def draw_normal(s: int, seed: int, stream: int = 0) -> np.ndarray:
    """s i.i.d. standard normals from a counter-based generator.

    Distinct (seed, stream) pairs give independent streams; the output is
    deterministic for a fixed pair.
    """
    if s < 1:
        raise ValueError("draw_normal: s must be >= 1")
    return _generator(seed, stream).standard_normal(s)


def _generator(seed: int, stream: int) -> np.random.Generator:
    """The Philox generator of stream `stream` of `seed`."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def qmc_map(point: np.ndarray, ordering: np.ndarray) -> np.ndarray:
    """Map one QMC point in (0,1)^s to normal inputs by the inverse CDF,
    routing coordinate j to position ordering[j] (most carefully
    stratified coordinate first -> largest-eigenvalue direction)."""
    point = np.asarray(point, dtype=float)
    ordering = np.asarray(ordering)
    if point.shape != ordering.shape:
        raise ValueError("qmc_map: point and ordering must have equal length")
    y = np.empty_like(point)
    y[ordering] = inv_normal_cdf(point)
    return y


def importance_ordering(spec: Spectrum) -> np.ndarray:
    """Flat (lexicographic) indices sorted by eigenvalue, nonincreasing;
    ties broken by lexicographic multi-index."""
    flat = spec.values_flat
    return np.argsort(-flat, kind="stable")


def _pruned_transform(u: np.ndarray, m0: int, workers: int) -> np.ndarray:
    """The real symmetric orthogonal circulant factor (the unitary
    positive-exponent DFT followed by Re + Im) applied to each u[i], cut to
    indices 0..m0 on every axis.

    Axis 0 of `u` indexes samples.  Re + Im of the unitary inverse DFT of
    a real array is Re - Im of its unitary forward DFT, which is computed
    as an rfft on the last axis and an fft on each other axis, keeping
    only indices 0..m0 after every axis.  `workers` threads share each
    axis's transforms; they change no value.
    """
    keep = slice(0, m0 + 1)
    w = scipy.fft.rfft(u, axis=-1, norm="ortho", workers=workers)[..., keep]
    for axis in range(1, u.ndim - 1):
        w = scipy.fft.fft(w, axis=axis, norm="ortho", workers=workers)
        w = w[(slice(None),) * axis + (keep,)]
    return w.real - w.imag


def _row_bytes(embedding) -> int:
    """Bytes one sample holds while it is transformed: its float64 normals
    and the complex output of the first (rfft) axis."""
    s, m = embedding.s, embedding.m
    return 8 * s + 16 * (s // (2 * m)) * (m + 1)


def _chunk_size(embedding) -> int:
    """Samples per chunk: as many as fit CHUNK_BYTES, at least one."""
    return max(1, CHUNK_BYTES // _row_bytes(embedding))


def _field_values(spec: Spectrum, mean, n: int, fill,
                  lognormal: bool) -> np.ndarray:
    """(n, (m0+1)^d) field values; fill(row, i) writes the s normals that
    drive row i into the float64 s-vector `row`.  The one transform path
    of `sample` and `batch_sample_values`, and the one place that rejects
    a spectrum with negative entries.

    Each chunk is filled, scaled by the eigenvalue square roots,
    transformed and written by one pool thread, several chunks at once, so
    a fill must be safe to run in several threads at once.
    """
    if spec.values.min() < 0.0:
        raise ValueError("spectrum has negative entries beyond the clamp; "
                         "not a valid factorization")
    emb = spec.embedding
    grid = emb.grid
    sqrt_vals = np.sqrt(spec.values_flat)
    mean_flat = resolve_mean(mean, grid.n_points)
    out = np.empty((n, grid.n_points))
    size = _chunk_size(emb)

    starts = range(0, n, size)
    workers = worker_count()
    budget_chunks = SAMPLE_BUDGET_BYTES // (size * _row_bytes(emb))
    in_flight = min(workers, len(starts), max(1, budget_chunks))
    # CPUs left without a chunk (a small batch, or a budget that holds few
    # chunks) share the chunks' FFTs.
    fft_workers = max(1, workers // in_flight)

    def run_chunk(lo: int) -> None:
        hi = min(lo + size, n)
        u = np.empty((hi - lo, emb.s))
        for i in range(lo, hi):
            row = u[i - lo]
            fill(row, i)
            row *= sqrt_vals  # while the row is still in cache
        v = _pruned_transform(u.reshape((hi - lo,) + emb.shape), grid.m0,
                              fft_workers)
        rows = out[lo:hi]
        np.add(v.reshape(hi - lo, -1), mean_flat, out=rows)
        if lognormal:
            np.exp(rows, out=rows)

    with ThreadPoolExecutor(max_workers=in_flight) as pool:
        list(pool.map(run_chunk, starts))
    return out


def sample(spec: Spectrum, mean, y: np.ndarray,
           lognormal: bool = False) -> np.ndarray:
    """One exact field sample driven by the normal input vector y: the
    values at the (m0+1)^d physical grid points x_k = h0 k, lexicographic.

    Requires a nonnegative spectrum (clamped by the minimal-extension
    search); `mean` is a constant or an array over the physical grid.
    """
    emb = spec.embedding
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != emb.s:
        raise ValueError(f"sample: expected {emb.s} normal inputs, got {y.size}")
    return _field_values(spec, mean, 1, lambda row, i: np.copyto(row, y),
                         lognormal)[0]


def batch_sample_values(spec: Spectrum, mean, n: int, seed: int,
                        lognormal: bool = False) -> np.ndarray:
    """n independent samples using streams 0..n-1 of the given seed, as
    an (n, (m0+1)^d) array.

    Row i equals sample(spec, mean, draw_normal(s, seed, i)), bit for bit,
    whatever the chunking or worker count.
    """
    if n < 1 or seed < 0:
        raise ValueError("batch_sample_values: n must be >= 1 and seed >= 0 "
                         f"(n={n}, seed={seed})")
    return _field_values(
        spec, mean, n,
        lambda row, i: _generator(seed, i).standard_normal(out=row),
        lognormal)
