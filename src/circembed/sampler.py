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
(CHUNK_BYTES), and a chunk is the only unit of parallel work: one pool
thread draws and scales its normals, transforms them (each FFT on that
thread alone) and computes the field values, mean and `exp` included,
then hands the finished rows to a sink.
Within a chunk, axis 0 of each sample is drawn, scaled by the square
roots of its slab of eigenvalues and rfft'd in slabs of at most
CHUNK_BYTES into a complex (2m)^(d-1) (m0+1) buffer, so no step holds a
whole (2m)^d sample, or all its square roots, when it is larger than
that.  One thread per CPU the process may run on, at most, works at
once, never more chunks than SAMPLE_BUDGET_BYTES holds, and at most one
more chunk per thread waits, queued and holding no memory, so memory
does not grow with the number of samples, and grows with the extension m
only through that buffer.  Row i depends only on (seed, i), so the
output is the same bit for bit at any chunking, slab height or worker
count.

A sample is its (m0+1)^d array of grid values: `sample` returns one,
`batch_sample_values` an (n, (m0+1)^d) array, or hands each chunk of rows
to a sink as it is done, such as a writer of the rows' file.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

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

# Bytes held at once by all chunks in flight (`_row_bytes` per sample).
SAMPLE_BUDGET_BYTES = 64 * 2**20

# Bytes per chunk, and of normals plus rfft output per slab: about one
# core's L2 cache, so a chunk stays in cache from its draws to its output
# rows.  On 2 CPUs with 2 MiB of L2 each, chunks of 512 KiB to 4 MiB
# sampled equally fast within the run-to-run spread, and 64 MiB took about
# twice as long.
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
    if s < 1 or seed < 0 or stream < 0:
        raise ValueError("draw_normal: s must be >= 1 and seed and stream "
                         f">= 0 (s={s}, seed={seed}, stream={stream})")
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


def _transform_bytes(embedding) -> int:
    """Bytes of a whole sample's normals and their complex rfft output."""
    s, m = embedding.s, embedding.m
    return 8 * s + 16 * (s // (2 * m)) * (m + 1)


def _slab_height(embedding, rows: int) -> int:
    """Axis-0 indices per slab of a chunk of `rows` samples: as many as
    fit CHUNK_BYTES, at least one; all 2m for d = 1, whose axis 0 is the
    rfft's."""
    two_m = 2 * embedding.m
    if embedding.grid.d == 1:
        return two_m
    plane = _transform_bytes(embedding) // two_m
    return min(two_m, max(1, CHUNK_BYTES // (rows * plane)))


def _row_bytes(embedding) -> int:
    """Bytes one sample holds while it is transformed: its slab of normals
    and their rfft output, its buffer of rfft output cut to m0+1 and its
    output row."""
    grid, two_m = embedding.grid, 2 * embedding.m
    slab = _transform_bytes(embedding) * _slab_height(embedding, 1) // two_m
    buffer = 16 * (embedding.s // two_m) * (grid.m0 + 1)
    return slab + buffer + 8 * grid.n_points


def _chunk_size(embedding) -> int:
    """Samples per chunk: as many as fit CHUNK_BYTES, at least one."""
    return max(1, CHUNK_BYTES // _row_bytes(embedding))


def _field_values(spec: Spectrum, mean, n: int, normals, lognormal: bool,
                  sink) -> None:
    """Field values of samples 0..n-1, handed to sink(lo, rows) one
    finished chunk at a time: rows is the (hi - lo, (m0+1)^d) array of
    samples lo..hi-1.  normals(i) returns draw(planes, a), which writes
    the normals that drive axis-0 indices a..a+len(planes)-1 of sample i
    into the float64 array `planes`; it is called for a = 0 first and then
    for each following slab in order.  The one transform path of `sample`,
    `batch_sample_values` and the CLI, and the one place that rejects a
    spectrum with negative entries.

    Each chunk is drawn, scaled and transformed by one pool thread,
    several chunks at once, so `normals` and `sink` must be safe to run in
    several threads at once.  Axis 0 of each sample goes through the
    draws, the scaling and the rfft in slabs (`_slab_height`) into a
    complex (2m)^(d-1) (m0+1) buffer; the other axes' FFTs then run on the
    chunk's buffer in axis order, as on whole samples, so the values do
    not depend on the slab height.
    """
    if spec.values.min() < 0.0:
        raise ValueError("spectrum has negative entries beyond the clamp; "
                         "not a valid factorization")
    emb = spec.embedding
    grid, m = emb.grid, emb.m
    keep = slice(0, grid.m0 + 1)
    mean_flat = resolve_mean(mean, grid.n_points)
    size = _chunk_size(emb)

    starts = range(0, n, size)
    budget_chunks = SAMPLE_BUDGET_BYTES // (size * _row_bytes(emb))
    in_flight = min(worker_count(), len(starts), max(1, budget_chunks))

    def rfft_slab(draws, buffer, a: int, b: int) -> None:
        slab = np.empty((len(draws), b - a) + emb.shape[1:])
        for draw, planes in zip(draws, slab):
            draw(planes, a)
        slab *= np.sqrt(spec.values[a:b])
        w = scipy.fft.rfft(slab, axis=-1, norm="ortho")
        # a d = 1 slab is the whole sample, whose axis 0 is the rfft's
        target = buffer if grid.d == 1 else buffer[:, a:b]
        target[...] = w[..., keep]

    def run_chunk(lo: int) -> None:
        hi = min(lo + size, n)
        draws = [normals(i) for i in range(lo, hi)]
        w = np.empty((hi - lo,) + emb.shape[:-1] + (grid.m0 + 1,), complex)
        height = _slab_height(emb, hi - lo)
        for a in range(0, 2 * m, height):
            rfft_slab(draws, w, a, min(a + height, 2 * m))
        for axis in range(1, grid.d):
            w = scipy.fft.fft(w, axis=axis, norm="ortho", overwrite_x=True)
            w = w[(slice(None),) * axis + (keep,)]
        rows = np.subtract(w.real, w.imag).reshape(hi - lo, -1)
        rows += mean_flat
        if lognormal:
            np.exp(rows, out=rows)
        sink(lo, rows)

    # chunks are submitted as others finish, so no more than 2 in_flight
    # exist at once, whatever n is; the second one per thread is queued, so
    # a thread that finishes a chunk starts the next without waiting for
    # this loop, and holds no memory until it runs.  The first error stops
    # the run.
    with ThreadPoolExecutor(max_workers=in_flight) as pool:
        running = set()
        for lo in starts:
            if len(running) == 2 * in_flight:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    future.result()
            running.add(pool.submit(run_chunk, lo))
        for future in running:
            future.result()


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
    y = y.reshape(emb.shape)
    out = np.empty(emb.grid.n_points)

    def draw(planes, a):
        np.copyto(planes, y[a:a + len(planes)])

    _field_values(spec, mean, 1, lambda i: draw, lognormal,
                  lambda lo, rows: np.copyto(out, rows[0]))
    return out


def batch_sample_values(spec: Spectrum, mean, n: int, seed: int,
                        lognormal: bool = False, sink=None):
    """n independent samples using streams 0..n-1 of the given seed, as
    an (n, (m0+1)^d) array.

    Row i equals sample(spec, mean, draw_normal(s, seed, i)), bit for bit,
    whatever the chunking or worker count.  With a `sink`, no array is
    built: each finished chunk of rows lo..hi-1 goes to sink(lo, rows) as
    it is done, in any order and from several threads at once, and the
    call returns None; the sampler then holds no more than its byte
    budget, whatever n is.
    """
    if n < 1 or seed < 0:
        raise ValueError("batch_sample_values: n must be >= 1 and seed >= 0 "
                         f"(n={n}, seed={seed})")
    out = None
    if sink is None:
        out = np.empty((n, spec.embedding.grid.n_points))

        def sink(lo, rows):
            out[lo:lo + len(rows)] = rows

    def normals(i):
        gen = _generator(seed, i)
        return lambda planes, a: gen.standard_normal(out=planes)

    _field_values(spec, mean, n, normals, lognormal, sink)
    return out
