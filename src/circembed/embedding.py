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

The search screens each attempt with the type-I DCT of the folded (m+1)^d
block of the even first column, which equals its DFT (Martucci 1994), and
takes the full FFT `spectrum` only where the screen cannot fix the verdict
and for the m it returns or runs out at.  For an isotropic kernel the
block is looked up in a radial table kept for the whole search: kappa at
each distinct integer |j|^2 of the lattice {0..M}^d, with M doubled when
an attempt goes beyond it.  So the kernel is evaluated once per table
growth, not once per attempt; `first_column` builds its block through the
same table.
"""

from __future__ import annotations

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
    return _unfold(_folded_column(kernel, embedding), embedding.m)


def _folded_column(kernel, embedding: Embedding) -> np.ndarray:
    """The folded (m+1)^d block of the first column: rho(h0 j) for j in
    {0..m}^d.  The even column repeats it by reflection (`_unfold`)."""
    grid, m = embedding.grid, embedding.m
    if getattr(kernel, "is_isotropic", False):
        return _RadialTable(kernel, grid, m).block(m)
    ax = grid.h0 * np.arange(m + 1)
    grids = np.meshgrid(*([ax] * grid.d), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    return kernel.rho(pts).reshape((m + 1,) * grid.d)


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


@dataclass(frozen=True)
class _Attempt:
    """One search attempt: the folded column block, the FFT spectrum when
    the search needed it (None when the DCT screen decided), and the
    verdict min >= -tol."""

    emb: Embedding
    block: np.ndarray
    spec: Spectrum | None
    ok: bool


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

    schedule="increment" walks m upward in steps of `m_step` (the default
    1 is the literal minimal search).  schedule="doubling" doubles m until
    the test passes and bisects down to a boundary where m passes and
    m - 1 fails; it returns the same m as the linear scan whenever the
    passing region is upward closed in m (the cross-schedule tests
    exercise this on a matrix of instances).

    An attempt whose DCT-I minimum lies more than 3 rounding bounds from
    -tol is decided without the FFT; the results, errors and `certified`
    flag are those of a search that takes the FFT `spectrum` at every
    attempt.
    """
    if tol < 0:
        raise ValueError("minimal_embedding: tol must be >= 0")
    if m_step < 1:
        raise ValueError("minimal_embedding: m_step must be >= 1")
    start = grid.m0 if m_start is None else m_start
    if start < grid.m0:
        raise ValueError("minimal_embedding: m_start must be >= m0")
    if m_max < start:
        raise ValueError("minimal_embedding: m_max must be >= the start m")

    column_rel_error = kernel.eval_rel_error
    certified = True

    def transform(emb: Embedding, block: np.ndarray) -> Spectrum:
        nonlocal certified
        spec = spectrum(_unfold(block, emb.m), emb,
                        column_rel_error=column_rel_error)
        certified = certified and spec.decides(tol)
        return spec

    table = None

    def folded(emb: Embedding) -> np.ndarray:
        # one radial table per search, doubled (up to m_max) whenever an
        # attempt's m exceeds it; the rho path for anisotropic kernels
        nonlocal table
        if not getattr(kernel, "is_isotropic", False):
            return _folded_column(kernel, emb)
        if table is None or emb.m > table.size:
            size = start if table is None else table.size
            while size < emb.m:
                size = min(2 * size, m_max)
            table = _RadialTable(kernel, grid, size)
        return table.block(emb.m)

    def attempt(m: int) -> _Attempt:
        emb = Embedding(grid, m)
        block = folded(emb)
        # screen: the DCT-I of the folded block is the FFT of the even
        # column up to rounding, and both lie within the rounding bound b
        # of the exact eigenvalues of this float64 column, so they differ
        # by at most 2b.  Beyond 3b from -tol the FFT verdict is known.
        values = scipy.fft.dctn(block, type=1)
        bound = _rounding_bound(block, values.flat[0], emb, column_rel_error)
        low = float(values.min())
        if abs(low + tol) > 3.0 * bound:
            return _Attempt(emb, block, None, low >= -tol)
        spec = transform(emb, block)
        return _Attempt(emb, block, spec, spec.min_value >= -tol)

    def spectrum_of(result: _Attempt) -> Spectrum:
        if result.spec is not None:
            return result.spec
        return transform(result.emb, result.block)

    def accept(result: _Attempt):
        spec = spectrum_of(result)
        return result.emb, _clamped(spec, tol, certified)

    def exhausted(result: _Attempt):
        return _exhausted(spectrum_of(result), tol, m_max)

    if schedule == "increment":
        m = start
        while m <= m_max:
            result = attempt(m)
            if result.ok:
                return accept(result)
            m += m_step
        raise exhausted(result)

    if schedule == "doubling":
        if m_step != 1:
            raise ValueError("doubling schedule supports m_step=1 only")
        result = attempt(start)
        if result.ok:
            return accept(result)
        lo = start  # largest known failing m
        m = start
        while True:
            m = min(2 * m, m_max)
            result = attempt(m)
            if result.ok:
                hi = result
                break
            lo = m
            if m == m_max:
                raise exhausted(result)
        while hi.emb.m - lo > 1:
            mid = (lo + hi.emb.m) // 2
            result = attempt(mid)
            if result.ok:
                hi = result
            else:
                lo = mid
        # boundary property established: lo fails, hi = lo + 1 passes.
        # Equality with the linear scan holds when the passing region is
        # upward closed in m, which the cross-schedule tests exercise.
        return accept(hi)

    raise ValueError(f"unknown schedule {schedule!r}")


def eigen_lower_bound_diagnostic(kernel, embedding: Embedding,
                                 zeta_grid_n: int = 32,
                                 trunc_radius: int = 3,
                                 tail_tol: float = 1e-12) -> float:
    """Computable lower bound on all circulant eigenvalues:

        (1/h0^d) min_zeta sum_{|r|_inf <= R} rho_hat((zeta + r)/h0)
        - sum_{k outside the centered index box} |rho(h0 k)|.

    The zeta minimum is taken over a uniform zeta_grid_n^d grid on
    [-1/2, 1/2]^d (grid-resolution-limited, not a rigorous global
    minimum; aligning zeta_grid_n with 2m makes the bound comparable to
    the true spectrum minimum).  Truncating the positive spectral sum
    only lowers the bound; the covariance tail sum is extended until its
    analytically-estimated remainder is below `tail_tol`.
    """
    if not getattr(kernel, "has_spectral_density", False):
        raise CapabilityError(
            "kernel capability missing: diagnostic needs a spectral density")
    grid = embedding.grid
    d, h0, m = grid.d, grid.h0, embedding.m

    # term 1: aliased spectral sum, minimized over the zeta grid
    axis = -0.5 + np.arange(zeta_grid_n) / zeta_grid_n
    zeta_grids = np.meshgrid(*([axis] * d), indexing="ij")
    zeta = np.stack([g.reshape(-1) for g in zeta_grids], axis=-1)
    acc = np.zeros(zeta.shape[0])
    shift_axis = np.arange(-trunc_radius, trunc_radius + 1)
    shift_grids = np.meshgrid(*([shift_axis] * d), indexing="ij")
    shifts = np.stack([g.reshape(-1) for g in shift_grids], axis=-1)
    for r in shifts:
        acc += kernel.spectral_density((zeta + r) / h0)
    term1 = acc.min() / h0**d

    # term 2: covariance tail over indices outside the centered box
    # {-m..m-1}^d, truncated at sup-norm K with remainder < tail_tol
    k_cap = _tail_truncation_radius(kernel, h0, m, d, tail_tol)
    term2 = _outside_box_abs_sum(kernel, h0, m, d, k_cap)
    return float(term1 - term2)


def _tail_truncation_radius(kernel, h0, m, d, tail_tol):
    """Smallest K with the remaining shell sum of |rho| provably < tail_tol.

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
        if ratio < 1.0 and a * ratio / (1.0 - ratio) < tail_tol:
            return K
        K = max(K + 1, int(K * 1.25))
    raise NotPositiveDefiniteError("covariance tail does not decay; cannot "
                                   "certify the diagnostic truncation")


def _outside_box_abs_sum(kernel, h0, m, d, k_cap):
    """sum of |rho(h0 k)| over k in [-K..K]^d outside [-m..m-1]^d."""
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
    if getattr(kernel, "is_isotropic", False):
        vals = np.abs(kernel.kappa(r / kernel.lam))
    else:
        pts = np.stack([h0 * g[~inside].astype(float) for g in grids], axis=-1)
        vals = np.abs(kernel.rho(pts))
    return float(vals.sum())
