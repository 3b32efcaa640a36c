"""Shared oracles used across the test suite.

These deliberately avoid the package's FFT path: the extended matrix is
assembled entry by entry from the reflected covariance and handed to a
dense symmetric eigensolver, so agreement is a genuine two-route check.
The long-double spectrum oracle evaluates the Gaussian column and its
transform with 64-bit mantissas instead of 53.  The FFT-only and DCT-only
searches run the minimal-extension search with one full transform at
every attempt and no screen, the references for the package's search.
`phi` and `rho_ext` are the paper's reflection, applied pointwise: the
definition that the package's folded first column is checked against.
`bessel_k` is the linear K_nu of the package's one implementation,
`log_bessel_k`.  `traced_peak` measures the peak bytes allocated inside a block.
`norm_ordered_lattice` ranks integer lattice points by norm.
`anisotropic_matern` is a stationary kernel that is not isotropic.
"""

import contextlib
import math
import tracemalloc
import types

import numpy as np
import pytest
import scipy.fft

from circembed import (CustomStationaryKernel, Embedding, GridSpec,
                       NotPositiveDefiniteError, PDUndecidableError, Spectrum,
                       embedding, spectrum)
from circembed.specialfn import log_bessel_k


def multi_indices(n_per_axis, d):
    axis = np.arange(n_per_axis)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def norm_ordered_lattice(d: int, J: int) -> np.ndarray:
    """The first J points of Z^d by Euclidean norm, ties broken
    lexicographically on the coordinates, as a (J, d) integer array.  They
    come from the box {-R..R}^d, R = ceil(J^(1/d)), which holds them all
    when the J-th lies in the ball of radius R (asserted)."""
    R = math.ceil(J ** (1.0 / d))
    pts = multi_indices(2 * R + 1, d) - R
    norm2 = np.sum(pts * pts, axis=1)
    keys = tuple(pts[:, i] for i in reversed(range(d))) + (norm2,)
    order = np.lexsort(keys)[:J]
    assert order.size == J and norm2[order[-1]] <= R * R
    return pts[order]


def anisotropic_matern(d: int) -> CustomStationaryKernel:
    """The Matern-3/2 profile (1 + r) e^-r of r = sqrt(3) |x / scale| with
    a scale per axis: a stationary kernel, even in each coordinate, that
    is not isotropic."""
    scale = np.array([0.5, 0.25, 0.4][:d])

    def rho(x):
        r = math.sqrt(3.0) * np.sqrt(((x / scale) ** 2).sum(axis=-1))
        return (1.0 + r) * np.exp(-r)

    return CustomStationaryKernel(rho_fn=rho, d=d)


@contextlib.contextmanager
def traced_peak():
    """Trace allocations (numpy's included) inside the block; the yielded
    object's `bytes` is then their peak, in bytes."""
    peak = types.SimpleNamespace(bytes=None)
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def phi(x, ell: float):
    """2*ell-periodic reflection map: x on [0, ell], 2*ell - x on [ell, 2*ell]."""
    x = np.asarray(x, dtype=float)
    y = np.mod(x, 2.0 * ell)
    out = np.where(y <= ell, y, 2.0 * ell - y)
    return float(out) if out.ndim == 0 else out


def rho_ext(kernel, x, ell: float):
    """Reflected periodic extension of the covariance, applied componentwise.

    Coincides with rho on [0, ell]^d and is 2*ell-periodic per coordinate.
    """
    x = np.asarray(x, dtype=float)
    return kernel.rho(phi(x, ell))


def bessel_k(nu, x):
    """K_nu(x) as exp(log_bessel_k(nu, x))."""
    return np.exp(log_bessel_k(nu, x))


def dense_extended_matrix(kernel, embedding: Embedding) -> np.ndarray:
    """R_ext[k, k'] = rho_ext(h0 (k - k')), dense, lexicographic.

    The reflection phi(h0 j) = h0 min(j mod 2m, 2m - j mod 2m) is applied
    on the integer lags so entries are bit-identical to direct evaluation
    at the folded coordinates.
    """
    grid = embedding.grid
    idx = multi_indices(2 * embedding.m, grid.d)
    h0, two_m = grid.h0, 2 * embedding.m
    s = idx.shape[0]
    out = np.empty((s, s))
    for i in range(s):
        lag = np.abs(idx[i][None, :] - idx)
        folded = np.minimum(lag, two_m - lag)
        out[i] = kernel.rho(h0 * folded)
    return out


def dense_grid_matrix(kernel, grid: GridSpec) -> np.ndarray:
    """R[k, k'] = rho(h0 (k - k')) over the physical grid indices."""
    idx = multi_indices(grid.m0 + 1, grid.d)
    n = idx.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        out[i] = kernel.rho(grid.h0 * (idx[i][None, :] - idx))
    return out


def dense_orthogonal_factor(embedding: Embedding) -> np.ndarray:
    """Q_ext = Re(F) + Im(F) with F the unitary positive-exponent Fourier
    matrix, assembled densely in lexicographic layout."""
    grid = embedding.grid
    idx = multi_indices(2 * embedding.m, grid.d)
    s = idx.shape[0]
    phase = 2.0 * np.pi * (idx @ idx.T) / (2 * embedding.m)
    return (np.cos(phase) + np.sin(phase)) / np.sqrt(s)


def dense_transform(u: np.ndarray) -> np.ndarray:
    """Apply the real symmetric orthogonal circulant factor to the full
    (2m,)*d array u: the unitary positive-exponent DFT followed by Re + Im.
    Dense reference for the pruned transform the sampler runs."""
    w = np.fft.ifftn(u, norm="ortho")
    return w.real + w.imag


def gaussian_spectrum_oracle(kernel, embedding: Embedding) -> np.ndarray:
    """Circulant eigenvalues of a Gaussian kernel in long double, as the
    folded (m+1)^d block (the other eigenvalues repeat it by symmetry).

    The column sigma2 exp(-|k|^2 h0^2 / (2 lam^2)) is evaluated with np.exp
    on np.longdouble at the integer radii |k|^2, and the DFT of the even
    column is taken as the type-I DCT of its folded block.
    """
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("numpy long double is no wider than float64 here")
    assert kernel.is_gaussian
    grid = embedding.grid
    d, m = grid.d, embedding.m
    lam_over_h0 = np.longdouble(kernel.lam) * grid.m0
    sq = np.arange(m + 1, dtype=np.longdouble) ** 2
    k2 = sum(sq.reshape([-1 if axis == i else 1 for axis in range(d)])
             for i in range(d))
    block = np.longdouble(kernel.sigma2) * np.exp(-k2 / (2 * lam_over_h0**2))
    return scipy.fft.dctn(block, type=1)


def fft_only_search(kernel, grid: GridSpec, tol: float, m_max: int,
                    schedule: str = "increment", decided=None):
    """Outcome of the minimal-extension search with no screen and numpy's
    complex FFT: every attempt takes the `spectrum` of the even column
    unfolded from the search's folded block.  See `_unscreened_search`."""
    blocks = embedding._FoldedBlocks(kernel, grid, m_max)

    def fft(emb):
        column = embedding._unfold(blocks.block(emb.m), emb.m)
        return spectrum(column, emb, column_rel_error=kernel.eval_rel_error)

    return _unscreened_search(fft, grid, tol, m_max, schedule, decided)


def dct_only_search(kernel, grid: GridSpec, tol: float, m_max: int,
                    schedule: str = "increment", decided=None):
    """Outcome of the minimal-extension search with no screen and the
    DCT-I: every attempt takes the DCT-I of the search's folded block,
    with the search's rounding bound.  See `_unscreened_search`."""
    blocks = embedding._FoldedBlocks(kernel, grid, m_max)

    def dct(emb):
        block = blocks.block(emb.m)
        values = scipy.fft.dctn(block, type=1)
        bound = embedding._rounding_bound(
            embedding._norm1(block, values.flat[0]), emb,
            kernel.eval_rel_error)
        return Spectrum(values=values, min_value=float(values.min()),
                        tolerance=0.0, embedding=emb, rounding_bound=bound)

    return _unscreened_search(dct, grid, tol, m_max, schedule, decided)


def _unscreened_search(transform, grid: GridSpec, tol: float, m_max: int,
                       schedule: str, decided):
    """The minimal-extension search with transform(embedding) -> Spectrum
    at every attempt; the doubling schedule transforms the final m once
    more after the bisection.  When `decided` is a list, each attempt
    appends whether its verdict was certified.

    Returns ("ok", m, min_value, certified) or (error type name, m_max,
    min_eig) for a search that runs out at m_max.
    """
    decided = [] if decided is None else decided

    def attempt(m):
        spec = transform(Embedding(grid, m))
        decided.append(spec.decides(tol))
        return spec, spec.min_value >= -tol

    def accept(m, spec):
        return ("ok", m, spec.min_value, all(decided))

    def exhausted(spec):
        kind = NotPositiveDefiniteError if spec.decides(tol) \
            else PDUndecidableError
        return (kind.__name__, m_max, spec.min_value)

    m = grid.m0
    spec, ok = attempt(m)
    if ok:
        return accept(m, spec)
    if schedule == "increment":
        while m < m_max:
            m += 1
            spec, ok = attempt(m)
            if ok:
                return accept(m, spec)
        return exhausted(spec)
    lo = m
    while True:
        m = min(2 * m, m_max)
        spec, ok = attempt(m)
        if ok:
            hi = m
            break
        lo = m
        if m == m_max:
            return exhausted(spec)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        spec, ok = attempt(mid)
        if ok:
            hi = mid
        else:
            lo = mid
    spec, _ = attempt(hi)
    return accept(hi, spec)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)
