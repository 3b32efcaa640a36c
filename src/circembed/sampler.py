"""Exact field sampling from a nonnegative circulant spectrum.

One sample costs one real d-dimensional FFT: scale an s-vector of standard
normals by the eigenvalue square roots, apply the unitary
positive-exponent DFT, add real and imaginary parts (the real symmetric
orthogonal factor of the circulant), and read off the physical grid
entries.  For real input, Re + Im of the positive-exponent DFT is Re - Im
of the negative-exponent one, so the transform runs as an rfft on the last
axis and complex FFTs on the others, each cut to indices 0..m0 before the
next axis (output pruning; m0 <= m makes the cut valid).

Samples are computed in chunks sized from SAMPLE_BUDGET_BYTES, so memory
does not grow with the number of samples.  Each chunk's normals are drawn
by one thread per CPU the process may run on, each over a contiguous range
of rows, and the chunk's FFTs use as many workers.  Row i depends only on
(seed, i), so the output is the same bit for bit at any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.fft

from .embedding import Spectrum
from .specialfn import inv_normal_cdf

__all__ = [
    "FieldSample",
    "draw_normal",
    "qmc_map",
    "importance_ordering",
    "sample",
    "batch_sample",
]

# Bytes of normals plus transform output held at once per chunk of samples.
SAMPLE_BUDGET_BYTES = 64 * 2**20

# The module that runs the sampler's transforms (recorded in run manifests).
FFT_BACKEND = scipy.fft.__name__


def worker_count() -> int:
    """Threads the sampler uses: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@dataclass
class FieldSample:
    """Field values at the (m0+1)^d physical grid points x_k = h0 k,
    lexicographic, plus provenance metadata."""

    values: np.ndarray
    meta: dict = field(default_factory=dict)


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


def _chunk_size(embedding, cap: Optional[int]) -> int:
    """Samples per chunk: as many as fit SAMPLE_BUDGET_BYTES with their
    float64 normals and the complex output of the first (rfft) axis, at
    least one, and at most `cap` when given."""
    s, m = embedding.s, embedding.m
    per_sample = 8 * s + 16 * (s // (2 * m)) * (m + 1)
    size = max(1, SAMPLE_BUDGET_BYTES // per_sample)
    return size if cap is None else max(1, min(size, cap))


def _resolve_mean(mean, n_points: int) -> np.ndarray:
    if mean is None:
        return np.zeros(n_points)
    mean = np.asarray(mean, dtype=float)
    if mean.ndim == 0:
        return np.full(n_points, float(mean))
    flat = mean.reshape(-1)
    if flat.size != n_points:
        raise ValueError(
            f"mean has {flat.size} entries, grid has {n_points} points")
    return flat


def _field_values(spec: Spectrum, mean, n: int, fill, lognormal: bool,
                  chunk: Optional[int]) -> np.ndarray:
    """(n, (m0+1)^d) field values; fill(row, i) writes the s normals that
    drive row i into the float64 s-vector `row`.  The one transform path
    of `sample` and the batch samplers.

    Each chunk's rows are filled and scaled by the eigenvalue square roots
    in `worker_count()` threads, each over a contiguous range of rows, so
    a fill must be safe to run in several threads at once.
    """
    emb = spec.embedding
    grid = emb.grid
    sqrt_vals = np.sqrt(spec.values_flat)
    mean_flat = _resolve_mean(mean, grid.n_points)
    out = np.empty((n, grid.n_points))
    size = _chunk_size(emb, chunk)
    workers = worker_count()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for lo in range(0, n, size):
            hi = min(lo + size, n)
            u = np.empty((hi - lo, emb.s))

            def scaled_normals(a: int, b: int) -> None:
                for i in range(a, b):
                    row = u[i - lo]
                    fill(row, i)
                    row *= sqrt_vals  # while the row is still in cache

            parts = min(workers, hi - lo)
            if parts == 1:
                scaled_normals(lo, hi)
            else:
                bounds = [lo + (hi - lo) * k // parts
                          for k in range(parts + 1)]
                list(pool.map(scaled_normals, bounds[:-1], bounds[1:]))
            v = _pruned_transform(u.reshape((hi - lo,) + emb.shape),
                                  grid.m0, workers)
            del u  # free this chunk before the next one is allocated
            out[lo:hi] = v.reshape(hi - lo, -1) + mean_flat
    if lognormal:
        np.exp(out, out=out)
    return out


def sample(spec: Spectrum, mean, y: np.ndarray,
           lognormal: bool = False) -> FieldSample:
    """One exact field sample driven by the normal input vector y.

    Requires a nonnegative spectrum (clamped by the minimal-extension
    search); `mean` is a constant or an array over the physical grid.
    """
    if spec.values.min() < 0.0:
        raise ValueError("sample: spectrum has negative entries beyond the "
                         "clamp; not a valid factorization")
    emb = spec.embedding
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != emb.s:
        raise ValueError(f"sample: expected {emb.s} normal inputs, got {y.size}")
    values = _field_values(spec, mean, 1, lambda row, i: np.copyto(row, y),
                           lognormal, chunk=1)
    return FieldSample(values=values[0], meta={"lognormal": bool(lognormal)})


def batch_sample(spec: Spectrum, mean, n: int, seed: int,
                 lognormal: bool = False, chunk: Optional[int] = None,
                 meta: Optional[dict] = None) -> list[FieldSample]:
    """n independent samples using streams 0..n-1 of the given seed.

    Sample i depends only on (seed, i); chunked batch FFTs change nothing
    about the per-sample content.
    """
    values = batch_sample_values(spec, mean, n, seed, lognormal=lognormal,
                                 chunk=chunk)
    base = dict(meta or {})
    out = []
    for i in range(n):
        info = dict(base, seed=seed, stream=i, lognormal=bool(lognormal))
        out.append(FieldSample(values=values[i], meta=info))
    return out


def batch_sample_values(spec: Spectrum, mean, n: int, seed: int,
                        lognormal: bool = False,
                        chunk: Optional[int] = None) -> np.ndarray:
    """Vectorized batch sampling; returns an (n, (m0+1)^d) array.

    Row i equals sample(spec, mean, draw_normal(s, seed, i)).values, bit
    for bit, whatever the chunking or worker count.  Chunks are sized from
    SAMPLE_BUDGET_BYTES; `chunk`, when given, caps the samples per chunk.
    """
    if n < 1:
        raise ValueError("batch_sample_values: n must be >= 1")
    if spec.values.min() < 0.0:
        raise ValueError("batch_sample: spectrum has negative entries beyond "
                         "the clamp; not a valid factorization")
    return _field_values(
        spec, mean, n,
        lambda row, i: _generator(seed, i).standard_normal(out=row),
        lognormal, chunk)
