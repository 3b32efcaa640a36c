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
Within a chunk, each sample is s/(2m) lines of 2m values along the
rfft's axis, in any d.  Its lines are drawn, scaled by the square roots
of their eigenvalues and rfft'd in slabs of at most CHUNK_BYTES (one line
at least) into a complex (s/(2m), m0+1) buffer, so no step holds a whole
(2m)^d sample, or all its square roots, when it is larger than that.
One thread per CPU the process may run on, at most, works at once, never
more chunks than SAMPLE_BUDGET_BYTES holds, and at most one more chunk
per thread waits, queued and holding no memory, so memory does not grow
with the number of samples, and grows with the extension m only through
that buffer.  Row i depends only on (seed, i), so the output is the same
bit for bit at any chunking, slab size or worker count.

A sample is its (m0+1)^d array of grid values: `sample` returns one,
driven by the caller's s normal inputs (such as QMC points mapped through
`specialfn.inv_normal_cdf`), `batch_sample_values` an (n, (m0+1)^d)
array, or hands each chunk of rows to a sink as it is done, such as a
writer of the rows' file.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

import numpy as np
import scipy.fft

from .embedding import Spectrum, resolve_mean

__all__ = [
    "draw_normal",
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


def _line_bytes(embedding) -> int:
    """Bytes of one line, 2m values along the rfft's axis: its normals and
    their complex rfft output."""
    m = embedding.m
    return 8 * 2 * m + 16 * (m + 1)


def _slab_lines(embedding, rows: int) -> int:
    """Lines per slab of a chunk of `rows` samples: as many as fit
    CHUNK_BYTES, at least one, at most a sample's s/(2m)."""
    lines = embedding.s // (2 * embedding.m)
    return min(lines, max(1, CHUNK_BYTES // (rows * _line_bytes(embedding))))


def _row_bytes(embedding) -> int:
    """Bytes one sample holds while it is transformed: its slab of normals
    and their rfft output, its buffer of rfft output cut to m0+1 and its
    output row."""
    grid = embedding.grid
    slab = _line_bytes(embedding) * _slab_lines(embedding, 1)
    buffer = 16 * (embedding.s // (2 * embedding.m)) * (grid.m0 + 1)
    return slab + buffer + 8 * grid.n_points


def _chunk_size(embedding) -> int:
    """Samples per chunk: as many as fit CHUNK_BYTES, at least one."""
    return max(1, CHUNK_BYTES // _row_bytes(embedding))


def _field_values(spec: Spectrum, mean, n: int, normals, lognormal: bool,
                  sink) -> None:
    """Field values of samples 0..n-1, handed to sink(lo, rows) one
    finished chunk at a time: rows is the (hi - lo, (m0+1)^d) array of
    samples lo..hi-1.  A sample is s/(2m) lines of 2m values along the
    rfft's axis, the last, in C order.  normals(i) returns draw(lines, a),
    which writes the normals of lines a..a+len(lines)-1 of sample i into
    the float64 (len(lines), 2m) array `lines`; it is called for a = 0
    first and then for each following slab in order.  The one transform
    path of `sample`, `batch_sample_values` and the CLI, and the one place
    that rejects a spectrum with negative entries.

    Each chunk is drawn, scaled and transformed by one pool thread,
    several chunks at once, so `normals` and `sink` must be safe to run in
    several threads at once.  The lines of each sample go through the
    draws, the scaling and the rfft in slabs (`_slab_lines`) into a
    complex (s/(2m), m0+1) buffer; the other axes' FFTs then run on the
    chunk's buffer, shaped (2m)^(d-1) (m0+1) per sample, in axis order, as
    on whole samples, so the values do not depend on the slab size.
    A lognormal value that overflows float64 raises ValueError, and the
    first error of a chunk or its sink stops the run: no other chunk
    starts after it.
    """
    if spec.values.min() < 0.0:
        raise ValueError("spectrum has negative entries beyond the clamp; "
                         "not a valid factorization")
    emb = spec.embedding
    grid, two_m = emb.grid, 2 * emb.m
    lines = emb.s // two_m
    keep = slice(0, grid.m0 + 1)
    eigs = spec.values.reshape(lines, two_m)  # a view of the search's values
    mean_flat = resolve_mean(mean, grid.n_points)
    size = _chunk_size(emb)

    starts = range(0, n, size)
    budget_chunks = SAMPLE_BUDGET_BYTES // (size * _row_bytes(emb))
    in_flight = min(worker_count(), len(starts), max(1, budget_chunks))
    failed = threading.Event()  # set by the first chunk that raises

    def rfft_slab(draws, buffer, a: int, b: int) -> None:
        slab = np.empty((len(draws), b - a, two_m))
        for draw, part in zip(draws, slab):
            draw(part, a)
        slab *= np.sqrt(eigs[a:b])
        buffer[:, a:b] = scipy.fft.rfft(slab, norm="ortho")[..., keep]

    def run_chunk(lo: int) -> None:
        if failed.is_set():  # a chunk raised: start no other
            return
        try:
            sink(lo, chunk_rows(lo))
        except BaseException:
            failed.set()
            raise

    def chunk_rows(lo: int) -> np.ndarray:
        hi = min(lo + size, n)
        draws = [normals(i) for i in range(lo, hi)]
        w = np.empty((hi - lo, lines, grid.m0 + 1), complex)
        step = _slab_lines(emb, hi - lo)
        for a in range(0, lines, step):
            rfft_slab(draws, w, a, min(a + step, lines))
        w = w.reshape((hi - lo,) + emb.shape[:-1] + (grid.m0 + 1,))
        for axis in range(1, grid.d):
            w = scipy.fft.fft(w, axis=axis, norm="ortho", overwrite_x=True)
            w = w[(slice(None),) * axis + (keep,)]
        rows = np.subtract(w.real, w.imag).reshape(hi - lo, -1)
        rows += mean_flat
        if lognormal:
            try:
                with np.errstate(over="raise"):
                    np.exp(rows, out=rows)
            except FloatingPointError:
                raise ValueError(
                    f"lognormal samples {lo}..{hi - 1} overflow float64: "
                    f"exp(x) is inf above x = 709.78; lower the mean (--mean)"
                ) from None
        return rows

    # chunks are submitted as others finish, so no more than 2 in_flight
    # exist at once, whatever n is; the second one per thread is queued, so
    # a thread that finishes a chunk starts the next without waiting for
    # this loop, and holds no memory until it runs.  The first error stops
    # the run: no chunk starts after it, and the queued ones are cancelled.
    with ThreadPoolExecutor(max_workers=in_flight) as pool:
        try:
            running = set()
            for lo in starts:
                if len(running) == 2 * in_flight:
                    done, running = wait(running, return_when=FIRST_COMPLETED)
                    for future in done:
                        future.result()
                running.add(pool.submit(run_chunk, lo))
            for future in running:
                future.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


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
    y = y.reshape(-1, 2 * emb.m)
    out = np.empty(emb.grid.n_points)

    def draw(lines, a):
        np.copyto(lines, y[a:a + len(lines)])

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
        return lambda lines, a: gen.standard_normal(out=lines)

    _field_values(spec, mean, n, normals, lognormal, sink)
    return out
