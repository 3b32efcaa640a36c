"""Periodic extension of a stationary covariance and its FFT spectrum.

The physical grid lives on the unit cube with m0 intervals per axis.  The
covariance matrix on that grid is nested block Toeplitz; reflecting the
covariance about ell = m * h0 >= 1 embeds it into a nested block circulant
matrix of order s = (2m)^d whose eigenvalues are the unnormalized d-dim
DFT of its first column.  The minimal-extension search enlarges m until the
spectrum is nonnegative to tolerance.

Normalization ledger: `spectrum` returns the *unnormalized* forward DFT of
the first column (the true circulant eigenvalues); the sampler applies the
1/sqrt(s) unitary normalization exactly once inside its transform.

Rounding: every spectrum carries a bound b on the float64 error of its
eigenvalues.  A verdict `min >= -tol` is certified when |min + tol| > b;
otherwise double precision cannot decide it, and a search that runs out of
extensions on such a verdict raises PDUndecidableError.

The search is one loop for both schedules.  It screens each attempt with
the type-I DCT of the folded (m+1)^d block of the even first column, which
equals its DFT (Martucci 1994), and takes the full FFT `spectrum` only
where the screen cannot fix the verdict and for the m it returns or runs
out at; no m is attempted twice.  The search and `first_column` take their
blocks from one source, `_FoldedBlocks`.  For an isotropic kernel it keeps
a radial table, kappa at each distinct integer |j|^2 of the lattice
{0..M}^d, with M doubled when an attempt goes beyond it; so the kernel is
evaluated once per table growth, not once per attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import (CapabilityError, NotPositiveDefiniteError,
                     PDUndecidableError, SymmetryError)

__all__ = [
    "GridSpec",
    "Embedding",
    "Spectrum",
    "phi",
    "rho_ext",
    "first_column",
    "spectrum",
    "minimal_embedding",
    "eigen_lower_bound_diagnostic",
]

# Imaginary residue of a spectrum, relative to its largest value, above
# which its column cannot be even-symmetric: rounding leaves far less.
IMAG_TOL = 1e-9

# Covariance tail `eigen_lower_bound_diagnostic` may leave out of its sum.
TAIL_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the unit cube: d in {1,2,3}, m0 intervals per axis,
    spacing h0 = 1/m0, points x_k = h0 k for k in {0..m0}^d."""

    d: int
    m0: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("GridSpec: d must be 1, 2 or 3")
        if self.m0 < 1:
            raise ValueError("GridSpec: m0 must be >= 1")

    @property
    def h0(self) -> float:
        return 1.0 / self.m0

    @property
    def n_points(self) -> int:
        return (self.m0 + 1) ** self.d


def grid_points(axis: np.ndarray, d: int) -> np.ndarray:
    """The points of axis^d in lexicographic order, shape (len(axis)^d, d):
    the layout of every grid, lag table and spectrum in the package."""
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


@dataclass(frozen=True)
class Embedding:
    """Extension of a GridSpec to the cube [0, ell]^d with ell = m h0 >= 1."""

    grid: GridSpec
    m: int

    def __post_init__(self):
        if self.m < self.grid.m0:
            raise ValueError("Embedding: m must be >= m0")

    @property
    def ell(self) -> float:
        return self.m / self.grid.m0

    @property
    def s(self) -> int:
        return (2 * self.m) ** self.grid.d

    @property
    def shape(self) -> tuple:
        return (2 * self.m,) * self.grid.d


@dataclass
class Spectrum:
    """Eigenvalues of the extended circulant, lexicographic over Z^d_{2m}.

    `values` has shape (2m,)*d (C-order flattening is the lexicographic
    layout); `min_value` is the smallest eigenvalue *before* any clamping;
    `tolerance` is the clamp threshold that was applied (0 when none).
    `rounding_bound` bounds the float64 error of every eigenvalue (see
    `spectrum`).  `certified` is set by `minimal_embedding`: True when every
    verdict of its search was decided beyond the rounding bound; None on a
    spectrum no search has judged.
    """

    values: np.ndarray
    min_value: float
    tolerance: float
    embedding: Embedding
    rounding_bound: float = 0.0
    certified: bool | None = None

    @property
    def values_flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def decides(self, tol: float) -> bool:
        """True when rounding cannot flip the verdict min >= -tol: the
        minimum lies farther than `rounding_bound` from -tol."""
        return abs(self.min_value + tol) > self.rounding_bound


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


def first_column(kernel, embedding: Embedding) -> np.ndarray:
    """First column of the extended circulant, shape (2m,)*d.

    Entry at multi-index k equals rho_ext(h0 k).  Isotropic kernels are
    evaluated once per distinct grid radius; the (2m)^d array is then
    assembled by reflection, so entry(k) = entry((2m - k) mod 2m) holds
    exactly.
    """
    m = embedding.m
    return _unfold(_FoldedBlocks(kernel, embedding.grid, m).block(m), m)


class _FoldedBlocks:
    """The folded (m+1)^d blocks rho(h0 j), j in {0..m}^d, of one kernel
    on one grid, for m up to `limit`; the even column repeats a block by
    reflection (`_unfold`).

    An isotropic kernel's blocks are looked up in one `_RadialTable`,
    made at the first m asked for and doubled (capped at `limit`) whenever
    a later m goes beyond it.  Other kernels evaluate rho on the lattice.
    """

    def __init__(self, kernel, grid: GridSpec, limit: int):
        self.kernel, self.grid, self.limit = kernel, grid, limit
        self.table = None

    def block(self, m: int) -> np.ndarray:
        kernel, grid = self.kernel, self.grid
        if not getattr(kernel, "is_isotropic", False):
            pts = grid_points(grid.h0 * np.arange(m + 1), grid.d)
            return kernel.rho(pts).reshape((m + 1,) * grid.d)
        if self.table is None or m > self.table.size:
            size = m if self.table is None else self.table.size
            while size < m:
                size = min(2 * size, self.limit)
            self.table = _RadialTable(kernel, grid, size)
        return self.table.block(m)


def _key_grid(squares: np.ndarray, d: int) -> np.ndarray:
    """|j|^2 over j in {0..n-1}^d, from squares[i] = i^2, i = 0..n-1."""
    keys = squares
    for _ in range(1, d):
        keys = keys[..., None] + squares
    return keys


class _RadialTable:
    """An isotropic kernel at the lattice points h0 j, j in {0..size}^d,
    with one `kappa` value per distinct integer key |j|^2 at the radius
    sqrt(|j|^2) / m0 / lam.

    In d = 1 the keys j^2 are distinct and ascending, so j indexes the
    values.  For d >= 2 a presence table over 0..d*size^2 marks the keys
    that occur and its cumulative sum ranks them, with no sort; it has
    fewer entries than the lattice in d = 3 and about twice as many in
    d = 2.  A block of any m <= size is a lookup, so a search evaluates
    the kernel once per table, not once per attempt.
    """

    def __init__(self, kernel, grid: GridSpec, size: int):
        self.d, self.size = grid.d, size
        squares = np.arange(size + 1) ** 2
        if self.d == 1:
            self.rank = None
            keys = squares
        else:
            present = np.zeros(self.d * size * size + 1, dtype=bool)
            present[_key_grid(squares, self.d)] = True
            # key 0 is present, so every count is >= 1
            self.rank = np.cumsum(present,
                                  dtype=np.min_scalar_type(present.size))
            self.rank -= 1
            keys = np.flatnonzero(present)
        self.values = kernel.kappa(np.sqrt(keys) / grid.m0 / kernel.lam)

    def block(self, m: int) -> np.ndarray:
        """The folded (m+1)^d block rho(h0 j), j in {0..m}^d, m <= size."""
        if self.rank is None:
            return self.values[:m + 1]
        keys = _key_grid(np.arange(m + 1) ** 2, self.d)
        return self.values[self.rank[keys]]


def _unfold(block: np.ndarray, m: int) -> np.ndarray:
    """The even (2m,)*d column whose folded block is `block`."""
    idx = np.minimum(np.arange(2 * m), 2 * m - np.arange(2 * m))
    return block[np.ix_(*([idx] * block.ndim))]


def spectrum(column: np.ndarray, embedding: Embedding,
             column_rel_error: float = 0.0) -> Spectrum:
    """Eigenvalues of the circulant with the given first column.

    The values are the unnormalized forward d-dimensional DFT of the
    column.  They must come out real (the column is even-symmetric); a
    relative imaginary residue above IMAG_TOL signals a symmetry bug
    upstream and raises SymmetryError.  The residue is zeroed.

    `rounding_bound` is (u log2(s) + column_rel_error) * ||column||_1 with
    u the unit roundoff: the FFT error grows like log2(s) (Higham 2002,
    ch. 24), and a relative error e in the column entries moves every
    eigenvalue by at most e * ||column||_1.  Pass the kernel's
    `eval_rel_error` as `column_rel_error`.
    """
    column = np.asarray(column, dtype=float)
    if column.shape != embedding.shape:
        column = column.reshape(embedding.shape)
    transform = np.fft.fftn(column)
    values = transform.real
    scale = np.abs(values).max()
    residue = np.abs(transform.imag).max()
    if residue > IMAG_TOL * scale:
        raise SymmetryError(
            f"spectrum: imaginary residue {residue:.3e} exceeds "
            f"{IMAG_TOL:.1e} * max|value| = {IMAG_TOL * scale:.3e}; "
            "first column is not even-symmetric")
    block = column[(slice(0, embedding.m + 1),) * column.ndim]
    bound = _rounding_bound(block, values.flat[0], embedding,
                            column_rel_error)
    return Spectrum(values=values, min_value=float(values.min()),
                    tolerance=0.0, embedding=embedding,
                    rounding_bound=bound)


def _rounding_bound(block: np.ndarray, lambda0: float, embedding: Embedding,
                    column_rel_error: float) -> float:
    """(u log2(s) + column_rel_error) * ||column||_1 (see `spectrum`) from
    the folded (m+1)^d block of an even column and its eigenvalue Lambda_0,
    without a temporary of the column's size: ||column||_1 is Lambda_0 for
    a nonnegative column, else the block weighted by how often each entry
    occurs in the column (1 at 0 and m, else 2)."""
    if block.min() >= 0.0:
        norm1 = float(lambda0)
    else:
        m = embedding.m
        weights = np.full(m + 1, 2.0)
        weights[[0, m]] = 1.0
        total = np.abs(block)
        for _ in range(block.ndim):
            total = total @ weights
        norm1 = float(total)
    u = np.finfo(float).eps / 2
    return float((u * np.log2(embedding.s) + column_rel_error) * norm1)


def _clamped(spec: Spectrum, tol: float, certified: bool) -> Spectrum:
    """Copy of `spec` with eigenvalues in [-tol, 0) clamped to 0."""
    values = np.maximum(spec.values, 0.0)
    return Spectrum(values=values, min_value=spec.min_value, tolerance=tol,
                    embedding=spec.embedding,
                    rounding_bound=spec.rounding_bound, certified=certified)


def _exhausted(spec: Spectrum, tol: float, m_max: int):
    """The error for a search that ran out of extensions at `spec`."""
    bound = spec.rounding_bound
    if spec.decides(tol):
        return NotPositiveDefiniteError(
            f"not positive definite within m_max={m_max} "
            f"(last min eigenvalue {spec.min_value!r}, rounding bound "
            f"{bound:.3e})", m_max=m_max, min_eig=spec.min_value,
            rounding_bound=bound)
    return PDUndecidableError(
        f"not positive definite within m_max={m_max} in float64: the last "
        f"min eigenvalue {spec.min_value!r} lies within the rounding bound "
        f"{bound:.3e} of -tol, so double precision cannot decide",
        m_max=m_max, min_eig=spec.min_value, rounding_bound=bound)


def minimal_embedding(kernel, grid: GridSpec, tol: float = 0.0,
                      m_max: int = 4096, schedule: str = "increment",
                      m_start: int | None = None, m_step: int = 1):
    """Smallest extension m >= m0 whose circulant spectrum is nonnegative
    to tolerance, i.e. min eigenvalue >= -tol (tol is absolute, on the
    unnormalized eigenvalues).

    Returns (Embedding, Spectrum) with eigenvalues in (-tol, 0) clamped to
    zero so downstream square roots stay real.  `min_value` on the returned
    Spectrum is the pre-clamp minimum; `certified` says whether every
    verdict of the search lay beyond the rounding bound.  Running out at
    m_max raises NotPositiveDefiniteError, or its subclass
    PDUndecidableError when the last verdict was not certified.

    One loop serves both schedules.  After a failed attempt the next m is
    m + m_step under schedule="increment" (the default step 1 is the
    literal minimal search) and min(2m, m_max) under "doubling"; the
    search runs out when that step leaves [m, m_max] or does not move m.
    Once an m passes, the doubling schedule bisects down to a boundary
    where m passes and m - 1 fails; it returns the same m as the linear
    scan whenever the passing region is upward closed in m (the
    cross-schedule tests exercise this on a matrix of instances).  No m
    is attempted twice.

    An attempt whose DCT-I minimum lies more than 3 rounding bounds from
    -tol is decided without the FFT; the results, errors and `certified`
    flag are those of a search that takes the FFT `spectrum` at every
    attempt.  The m returned or run out at is transformed at most once.
    """
    if not 0 <= tol < math.inf:
        raise ValueError("minimal_embedding: tol must be >= 0 and finite")
    if m_step < 1:
        raise ValueError("minimal_embedding: m_step must be >= 1")
    start = grid.m0 if m_start is None else m_start
    if start < grid.m0:
        raise ValueError("minimal_embedding: m_start must be >= m0")
    if m_max < start:
        raise ValueError("minimal_embedding: m_max must be >= the start m")
    if schedule not in ("increment", "doubling"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if schedule == "doubling" and m_step != 1:
        raise ValueError("doubling schedule supports m_step=1 only")

    column_rel_error = kernel.eval_rel_error
    blocks = _FoldedBlocks(kernel, grid, m_max)
    certified = True

    def attempt(m: int, screen: bool = True):
        """The verdict min >= -tol at m and the FFT spectrum, or None when
        the DCT screen decided."""
        nonlocal certified
        emb, block = Embedding(grid, m), blocks.block(m)
        if screen:
            # the DCT-I of the folded block is the FFT of the even column
            # up to rounding, and both lie within the rounding bound b of
            # the exact eigenvalues of this float64 column, so they differ
            # by at most 2b.  Beyond 3b from -tol the FFT verdict is known.
            values = scipy.fft.dctn(block, type=1)
            bound = _rounding_bound(block, values.flat[0], emb,
                                    column_rel_error)
            low = float(values.min())
            if abs(low + tol) > 3.0 * bound:
                return low >= -tol, None
        spec = spectrum(_unfold(block, m), emb,
                        column_rel_error=column_rel_error)
        certified = certified and spec.decides(tol)
        return spec.min_value >= -tol, spec

    # lo is the largest m known to fail: start - 1 until one does, and m
    # itself when the search runs out, so that no bisection follows
    m, lo = start, start - 1
    ok, spec = attempt(m)
    while not ok:
        lo = m
        step = m + m_step if schedule == "increment" else min(2 * m, m_max)
        if not m < step <= m_max:
            break
        m = step
        ok, spec = attempt(m)
    while schedule == "doubling" and m - lo > 1:
        mid = (lo + m) // 2
        passed, mid_spec = attempt(mid)
        if passed:
            m, spec = mid, mid_spec
        else:
            lo = mid
    if spec is None:
        _, spec = attempt(m, screen=False)
    if not ok:
        raise _exhausted(spec, tol, m_max)
    return Embedding(grid, m), _clamped(spec, tol, certified)


def eigen_lower_bound_diagnostic(kernel, embedding: Embedding,
                                 zeta_grid_n: int = 32,
                                 trunc_radius: int = 3) -> float:
    """Computable lower bound on all circulant eigenvalues:

        (1/h0^d) min_zeta sum_{|r|_inf <= R} rho_hat((zeta + r)/h0)
        - sum_{k outside the centered index box} |rho(h0 k)|.

    The zeta minimum is taken over a uniform zeta_grid_n^d grid on
    [-1/2, 1/2]^d (grid-resolution-limited, not a rigorous global
    minimum; aligning zeta_grid_n with 2m makes the bound comparable to
    the true spectrum minimum).  Truncating the positive spectral sum
    only lowers the bound; the covariance tail sum is extended until its
    analytically-estimated remainder is below TAIL_TOL.
    """
    if not getattr(kernel, "has_spectral_density", False):
        raise CapabilityError(
            "kernel capability missing: diagnostic needs a spectral density")
    grid = embedding.grid
    d, h0, m = grid.d, grid.h0, embedding.m

    # term 1: aliased spectral sum, minimized over the zeta grid
    zeta = grid_points(-0.5 + np.arange(zeta_grid_n) / zeta_grid_n, d)
    acc = np.zeros(zeta.shape[0])
    shifts = grid_points(np.arange(-trunc_radius, trunc_radius + 1), d)
    for r in shifts:
        acc += kernel.spectral_density((zeta + r) / h0)
    term1 = acc.min() / h0**d

    # term 2: covariance tail over indices outside the centered box
    # {-m..m-1}^d, truncated at sup-norm K with remainder < TAIL_TOL
    k_cap = _tail_truncation_radius(kernel, h0, m, d)
    term2 = _outside_box_abs_sum(kernel, h0, m, d, k_cap)
    return float(term1 - term2)


def _tail_truncation_radius(kernel, h0, m, d):
    """Smallest K with the remaining shell sum of |rho| provably < TAIL_TOL.

    Shell j contributes at most (3^d - 1) j^(d-1) kappa(h0 j / lam); the
    remainder past K is bounded using the empirical per-shell decay ratio,
    which is below 1 for every supported kernel (exponential or Gaussian
    radial decay).
    """
    if not getattr(kernel, "is_isotropic", False):
        raise CapabilityError("diagnostic tail bound needs an isotropic kernel")
    lam = kernel.lam

    def shell(j):
        return (3**d - 1) * j ** (d - 1) * abs(float(kernel.kappa(h0 * j / lam)))

    K = m + 1
    while K < 10**7:
        a, b = shell(K), shell(K + 1)
        if a == 0.0:
            return K
        ratio = b / a
        if ratio < 1.0 and a * ratio / (1.0 - ratio) < TAIL_TOL:
            return K
        K = max(K + 1, int(K * 1.25))
    raise NotPositiveDefiniteError("covariance tail does not decay; cannot "
                                   "certify the diagnostic truncation")


def _outside_box_abs_sum(kernel, h0, m, d, k_cap):
    """sum of |rho(h0 k)| over k in [-K..K]^d outside [-m..m-1]^d, for an
    isotropic kernel (`_tail_truncation_radius` requires one)."""
    if (2 * k_cap + 1) ** d > 5e7:
        raise MemoryError("diagnostic truncation box too large; "
                          "reduce the instance size")
    axis = np.arange(-k_cap, k_cap + 1)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    inside = np.ones(grids[0].shape, dtype=bool)
    for g in grids:
        inside &= (g >= -m) & (g <= m - 1)
    lag2 = np.zeros(grids[0].shape)
    for g in grids:
        lag2 += (h0 * g.astype(float)) ** 2
    r = np.sqrt(lag2[~inside])
    return float(np.abs(kernel.kappa(r / kernel.lam)).sum())
