"""Periodic extension of a stationary covariance and its FFT spectrum.

The physical grid lives on the unit cube with m0 intervals per axis.  The
covariance matrix on that grid is nested block Toeplitz; reflecting the
covariance about ell = m * h0 >= 1 embeds it into a nested block circulant
matrix of order s = (2m)^d whose eigenvalues are the unnormalized d-dim
DFT of its first column.  The minimal-extension search enlarges m until the
spectrum is nonnegative to tolerance.

Normalization ledger: `spectrum` returns the *unnormalized* forward DFT of
the first column (the true circulant eigenvalues), as does the DCT-I of
its folded block; the sampler applies the 1/sqrt(s) unitary
normalization exactly once inside its transform.

Rounding: every spectrum carries a bound b on the float64 error of its
eigenvalues.  A verdict `min >= -tol` is certified when |min + tol| > b;
otherwise double precision cannot decide it, and a search that runs out of
extensions on such a verdict raises PDUndecidableError.

The search is one loop for both schedules.  It decides each attempt with
the type-I DCT of the folded (m+1)^d block of the even first column, which
equals its DFT (Martucci 1994) and lies within b of the exact eigenvalues;
no m is attempted twice.  The spectrum it returns is that DCT-I block at
the returned m, unfolded once, so the search allocates a (2m)^d array
only on return, and no complex one.  `spectrum`, the full FFT of a
column, is the dense reference the search no longer calls.  In d >= 2,
in front of the DCT stands a witness screen: every eigenvalue is a cosine
sum over the folded block, so the 3^d eigenvalues around the frequency of
the last DCT minimum (and Lambda_0 with them) cost about 4 (m+1)^d
operations, and one of them far enough below -tol (beyond the DCT's
rounding bound and the witness's own, `_witnesses`) fails the attempt
with no transform.  In d = 1 the witness's 4(m+1) cosines cost 4 to 6
times the DCT-I of m+1 points (m = 1024..16384), so the DCT-I decides
every attempt there.  The search records how each attempt was decided.
The search and `first_column` take their blocks from one source,
`_FoldedBlocks`: one lattice array rho(h0 j), j in {0..L}^d, whose corner
views are the blocks.  It grows to L = min(max(m, ceil(5L/4)), m_max)
when an attempt goes beyond it, so the kernel is evaluated once per
growth, not once per attempt, and a search holds at most its returned
values, the lattice and a few blocks.

The eigenvalue lower bound and the other theory diagnostics live in
`analysis`; this module needs only numpy and `scipy.fft`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft

from .errors import (NotPositiveDefiniteError, PDUndecidableError,
                     SymmetryError)

__all__ = [
    "GridSpec",
    "Embedding",
    "Spectrum",
    "first_column",
    "spectrum",
    "minimal_embedding",
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


def grid_points(axis: np.ndarray, d: int) -> np.ndarray:
    """The points of axis^d in lexicographic order, shape (len(axis)^d, d):
    the layout of every grid, lag table and spectrum in the package."""
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def lag_table(kernel, grid: GridSpec) -> np.ndarray:
    """rho(h0 l) on the signed lags l in {-m0..m0}^d, from one `kernel.rho`
    call and assuming no symmetry of rho; shape (2 m0 + 1,)*d, lag l at
    index m0 + l."""
    lags = grid_points(np.arange(-grid.m0, grid.m0 + 1), grid.d)
    return np.asarray(kernel.rho(grid.h0 * lags), dtype=float).reshape(
        (2 * grid.m0 + 1,) * grid.d)


def resolve_mean(mean, n_points: int) -> np.ndarray:
    """The mean vector over a grid of n_points points from a constant, an
    array of n_points entries (any shape) or None (zero)."""
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
    `spectrum`).  From `spectrum` the values are the FFT of the column.
    From `minimal_embedding` they are the DCT-I of the folded block at the
    returned m, repeated by the evenness of the spectrum, and `min_value`
    and `rounding_bound` are the DCT-I's; both transforms lie within
    `rounding_bound` of the exact eigenvalues.  `certified` is set by
    `minimal_embedding`: True when every verdict of its search was decided
    beyond the rounding bound; None on a spectrum no search has judged.
    `attempts` is that search's record, one (m, decider) pair per attempt
    in order, the decider "witness" or "dct" (see `minimal_embedding`);
    empty without a search.
    """

    values: np.ndarray
    min_value: float
    tolerance: float
    embedding: Embedding
    rounding_bound: float = 0.0
    certified: bool | None = None
    attempts: tuple = ()

    @property
    def values_flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def decides(self, tol: float) -> bool:
        """True when rounding cannot flip the verdict min >= -tol: the
        minimum lies farther than `rounding_bound` from -tol."""
        return abs(self.min_value + tol) > self.rounding_bound


def first_column(kernel, embedding: Embedding) -> np.ndarray:
    """First column of the extended circulant, shape (2m,)*d.

    Entry at multi-index k equals rho(h0 min(k, 2m - k)), componentwise:
    the covariance reflected about ell.  Isotropic kernels are evaluated
    once per distinct grid radius; the (2m)^d array is then assembled by
    reflection, so entry(k) = entry((2m - k) mod 2m) holds exactly.
    """
    m = embedding.m
    return _unfold(_FoldedBlocks(kernel, embedding.grid, m).block(m), m)


class _FoldedBlocks:
    """The folded (m+1)^d blocks rho(h0 j), j in {0..m}^d, of one kernel
    on one grid, for m up to `limit`; the even column repeats a block by
    reflection (`_unfold`).

    rho(h0 j) does not depend on m, so every block is the leading corner
    view `lattice[:m+1, ..., :m+1]` of one lattice array of side L+1
    (`_lattice`).  The lattice is made at the first m asked for, L = m,
    and rebuilt only when an m goes beyond it, at L = min(max(m,
    ceil(5L/4)), limit): a unit-step search rebuilds it about once per
    quarter growth of m, and a doubling search at each m it jumps to.
    Between rebuilds a block costs no kernel evaluation and no copy.

    A kernel that is not isotropic is first evaluated once on the grid's
    signed lags (`lag_table`), and must be symmetric in each coordinate
    there, within its `eval_rel_error`, or ValueError is raised: the
    reflection about ell takes rho(h) for rho(|h|) componentwise.

    Memory: the lattice holds (L+1)^d floats, at most about (5/4)^d
    blocks of the largest m asked for (1.95 in d = 3).  A rebuild holds
    the old lattice beside the new one and, for an isotropic kernel, the
    new side's int64 keys and narrower ranks.  (Freeing the old lattice
    first lowers the traced peak but raised the process's peak RSS, by
    how the heap reuses freed blocks.)  A search's peak is then at most
    its returned values plus the lattice plus four blocks
    (`test_search_peak_is_values_lattice_and_blocks`).
    """

    def __init__(self, kernel, grid: GridSpec, limit: int):
        if kernel.d != grid.d:
            raise ValueError(f"kernel has d={kernel.d}, grid has d={grid.d}")
        if not kernel.is_isotropic:  # the blocks hold rho at |lag| only
            table = lag_table(kernel, grid)
            mirror = np.abs(np.arange(-grid.m0, grid.m0 + 1)) + grid.m0
            gap = np.abs(table - table[np.ix_(*[mirror] * grid.d)]).max()
            if gap > kernel.eval_rel_error * np.abs(table).max():
                raise ValueError(
                    f"rho(h) differs from rho(|h|), componentwise, by "
                    f"{gap:.3g} on the grid's lags: the embedding needs a "
                    f"kernel symmetric in each coordinate")
        self.kernel, self.grid, self.limit = kernel, grid, limit
        self.lattice = None

    def block(self, m: int) -> np.ndarray:
        if self.lattice is None or m >= len(self.lattice):
            side = m if self.lattice is None else min(
                max(m, -(-5 * (len(self.lattice) - 1) // 4)), self.limit)
            self.lattice = _lattice(self.kernel, self.grid, side)
        return self.lattice[(slice(0, m + 1),) * self.grid.d]


def _lattice(kernel, grid: GridSpec, side: int) -> np.ndarray:
    """rho(h0 j) over the lattice j in {0..side}^d, shape (side+1,)*d.

    A kernel that is not isotropic evaluates rho at every point.  An
    isotropic one evaluates `kappa` once per distinct integer key |j|^2,
    at the radius sqrt(|j|^2) / m0 / lam.  In d = 1 the keys j^2 are
    distinct and ascending, so j indexes the values.  For d >= 2 a
    presence table over 0..d*side^2 marks the keys that occur and its
    cumulative sum ranks them, with no sort; it has fewer entries than
    the lattice in d = 3 and about twice as many in d = 2.
    """
    d = grid.d
    if not kernel.is_isotropic:
        pts = grid_points(grid.h0 * np.arange(side + 1), d)
        return kernel.rho(pts).reshape((side + 1,) * d)
    keys = squares = np.arange(side + 1) ** 2
    if d > 1:
        lattice_keys = squares  # |j|^2 over the lattice
        for _ in range(1, d):
            lattice_keys = lattice_keys[..., None] + squares
        present = np.zeros(d * side * side + 1, dtype=bool)
        present[lattice_keys] = True
        # key 0 is present, so every count is >= 1
        rank = np.cumsum(present, dtype=np.min_scalar_type(present.size))
        rank -= 1
        keys = np.flatnonzero(present)
    # a radius past the float64 range is inf, where kappa is 0
    with np.errstate(over="ignore"):
        radii = np.sqrt(keys) / grid.m0 / kernel.lam
    values = kernel.kappa(radii)
    return values if d == 1 else values[rank[lattice_keys]]


def _unfold(block: np.ndarray, m: int) -> np.ndarray:
    """The even (2m,)*d column whose folded block is `block`."""
    idx = np.minimum(np.arange(2 * m), 2 * m - np.arange(2 * m))
    return block[np.ix_(*([idx] * block.ndim))]


def spectrum(column: np.ndarray, embedding: Embedding,
             column_rel_error: float = 0.0) -> Spectrum:
    """Eigenvalues of the circulant with the given first column.

    The values are the unnormalized forward d-dimensional DFT of the
    column, numpy's complex FFT of all (2m)^d entries: the dense reference
    for the DCT-I that `minimal_embedding` takes of the folded block.  They
    must come out real (the column is even-symmetric); a relative
    imaginary residue above IMAG_TOL signals a symmetry bug upstream and
    raises SymmetryError.  The residue is zeroed.

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
    bound = _rounding_bound(_norm1(block, values.flat[0]), embedding,
                            column_rel_error)
    return Spectrum(values=values, min_value=float(values.min()),
                    tolerance=0.0, embedding=embedding,
                    rounding_bound=bound)


def _rounding_bound(norm1: float, embedding: Embedding,
                    column_rel_error: float) -> float:
    """(u log2(s) + column_rel_error) * ||column||_1 (see `spectrum`), with
    norm1 = ||column||_1 (`_norm1`)."""
    u = np.finfo(float).eps / 2
    return float((u * np.log2(embedding.s) + column_rel_error) * norm1)


def _norm1(block: np.ndarray, lambda0: float) -> float:
    """||column||_1 of the even column with folded block `block` and
    eigenvalue Lambda_0, without a temporary of the column's size: Lambda_0
    for a nonnegative column, else the block weighted by how often each
    entry occurs in the column (1 at 0 and m, else 2)."""
    if block.min() >= 0.0:
        return float(lambda0)
    m = block.shape[0] - 1
    weights = np.full(m + 1, 2.0)
    weights[[0, m]] = 1.0
    total = np.abs(block)
    for _ in range(block.ndim):
        total = total @ weights
    return float(total)


def _witnesses(block: np.ndarray, freqs) -> np.ndarray:
    """Eigenvalues of the even column with folded block c = `block` at the
    frequencies k in freqs[0] x ... x freqs[d-1], each a list of integers
    in 0..m, as an array of shape (len(freqs[0]), ..., len(freqs[d-1])).

    Each is the cosine sum lambda_k = sum_j w_j c_j prod_i cos(pi j_i k_i
    / m), w_j = prod_i w_(j_i) with w = 1 at 0 and m and 2 between,
    contracted one axis at a time by einsum (no BLAS).  The cosines come
    from one `cos` call on the reduced arguments pi n / m, n = j k mod 2m.
    At k = 0 the sum is Lambda_0, the weighted block sum.

    Error (`_witness_bound`): each computed factor cos(pi n / m) has
    absolute error at most 32u, u the unit roundoff.  The argument
    pi n / m < 2 pi takes three roundings (pi, the quotient, the product),
    so it is off by at most 2 pi gamma_3 < 19u, and cos is 1-Lipschitz;
    numpy's cos adds a few ulp (< 8u).  A product of d such factors is then
    off by at most (1 + 32u)^d - 1 < 33 d u, and the weights are exact.
    The d nested sums of m+1 terms perturb every term by a relative
    gamma_(d(m+1)) (Higham 2002, eq. 3.5, in any summation order).  So the
    witness lies within
        b_w = 2 d (m + 33) u ||c||_1,    ||c||_1 = sum_j w_j |c_j|,
    of the exact eigenvalue of this float64 column, with a factor 2 to
    spare, which also covers ||c||_1 taken from a computed Lambda_0.
    """
    m = block.shape[0] - 1
    table = np.cos(np.multiply.outer([k for ks in freqs for k in ks],
                                     np.arange(m + 1)) % (2 * m)
                   * (math.pi / m))
    table[:, 1:m] *= 2.0
    values, start = block, 0
    for ks in freqs:
        rows = table[start:start + len(ks)]
        start += len(ks)
        values = np.einsum("j...,aj->...a", values, rows)
    return values


def _witness_bound(m: int, d: int, norm1: float) -> float:
    """b_w = 2 d (m + 33) u ||c||_1, the error of every `_witnesses` value
    of an (m+1)^d block whose column has 1-norm `norm1`."""
    return 2 * d * (m + 33) * (np.finfo(float).eps / 2) * norm1


def _witness_fails(block: np.ndarray, embedding: Embedding, at: int,
                   m_low: int, tol: float, column_rel_error: float) -> bool:
    """True when an eigenvalue near the last DCT-I minimum, at flat index
    `at` of the (m_low+1)^d spectrum, proves that the attempt fails: the
    `_witnesses` at k_i in round(m k*_i / m_low) + {-1, 0, 1}, within 0..m,
    reach below -tol - 3b - b_w.  b is the DCT-I's rounding bound
    (`_rounding_bound`) and b_w the witness's own (`_witness_bound`);
    Lambda_0 comes with them, at k = 0.  The DCT-I lies within b + b_w of
    the witness, so its minimum is below -tol - 2b: it would fail the
    attempt too and certify that verdict."""
    m, d = embedding.m, embedding.grid.d
    freqs = []
    for k in np.unravel_index(at, (m_low + 1,) * d):
        c = (2 * m * int(k) + m_low) // (2 * m_low)
        freqs.append([0] + [f for f in (c - 1, c, c + 1) if 0 < f <= m])
    witness = _witnesses(block, freqs)
    norm1 = _norm1(block, witness.flat[0])
    bound = _rounding_bound(norm1, embedding, column_rel_error)
    return bool(witness.min() < -tol - 3.0 * bound
                - _witness_bound(m, d, norm1))


def _exhausted(spec: Spectrum, tol: float, m_max: int, attempts: tuple):
    """The error for a search that ran out of extensions at `spec`."""
    bound, m = spec.rounding_bound, spec.embedding.m
    if spec.decides(tol):
        return NotPositiveDefiniteError(
            f"not positive definite within m_max={m_max} (last m tried {m}, "
            f"its min eigenvalue {spec.min_value!r}, rounding bound "
            f"{bound:.3e})", m_max=m_max, min_eig=spec.min_value,
            rounding_bound=bound, attempts=attempts)
    return PDUndecidableError(
        f"not positive definite within m_max={m_max} in float64: at the last "
        f"m tried, {m}, the min eigenvalue {spec.min_value!r} lies within the "
        f"rounding bound {bound:.3e} of -tol, so double precision cannot "
        f"decide",
        m_max=m_max, min_eig=spec.min_value, rounding_bound=bound,
        attempts=attempts)


def minimal_embedding(kernel, grid: GridSpec, tol: float | None = None,
                      m_max: int | None = None, schedule: str = "increment",
                      m_step: int = 1):
    """Smallest extension m >= m0 whose circulant spectrum is nonnegative
    to tolerance, i.e. min eigenvalue >= -tol (tol is absolute, on the
    unnormalized eigenvalues).  The search starts at m0.  By default tol
    is 1e-13 for a Gaussian kernel, whose true spectrum decays below
    double precision, and 0 otherwise, and m_max is 100 m0.

    Returns (Embedding, Spectrum) with eigenvalues in (-tol, 0) clamped to
    zero so downstream square roots stay real.  `min_value` on the returned
    Spectrum is the pre-clamp minimum; `certified` says whether every
    verdict of the search lay beyond the rounding bound.  Running out at
    m_max raises NotPositiveDefiniteError, or its subclass
    PDUndecidableError when the last verdict was not certified.  A
    spectrum that is not finite (its column overflows float64) raises
    ValueError at the m where it occurs.

    One loop serves both schedules.  After a failed attempt the next m is
    m + m_step under schedule="increment" (the default step 1 is the
    literal minimal search) and min(2m, m_max) under "doubling"; the
    search runs out when that step leaves [m, m_max] or does not move m.
    Once an m passes, the doubling schedule bisects down to a boundary
    where m passes and m - 1 fails; it returns the same m as the linear
    scan whenever the passing region is upward closed in m (the
    cross-schedule tests exercise this on a matrix of instances).  No m
    is attempted twice.

    Each attempt is decided by the first of two deciders that can, and
    the search records which: the returned spectrum's `attempts` and the
    raised error's `attempts` hold one (m, decider) pair per attempt.
    - "witness": in d >= 2, once a DCT-I minimum was negative, at
      frequency k* of an earlier m*, the eigenvalues at k_i in
      round(m k*_i / m*) + {-1, 0, 1} (`_witnesses`) fail the attempt
      when the smallest lies below -tol - 3b - b_w, with b the DCT-I's
      rounding bound and b_w the witness's own.  The DCT-I there is within b + b_w of the witness,
      so its minimum lies below -tol - 2b: the DCT-I fails the attempt
      too, and certifies its verdict.
    - "dct": the DCT-I of the folded block; the attempt passes when its
      minimum is >= -tol, and its verdict is certified when
      |min + tol| > b.
    The returned spectrum, and the `min_eig` and `rounding_bound` of a
    search that runs out, are the DCT-I's at that m; where the witness
    failed the m a search runs out at, that m is transformed once more
    (not recorded).  No m is transformed twice by the DCT-I otherwise.
    """
    tol = (1e-13 if kernel.is_gaussian else 0.0) if tol is None else tol
    m_max = 100 * grid.m0 if m_max is None else m_max
    if not 0 <= tol < math.inf:
        raise ValueError("minimal_embedding: tol must be >= 0 and finite")
    if m_step < 1:
        raise ValueError("minimal_embedding: m_step must be >= 1")
    if m_max < grid.m0:
        raise ValueError("minimal_embedding: m_max must be >= the start m")
    if schedule not in ("increment", "doubling"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if schedule == "doubling" and m_step != 1:
        raise ValueError("doubling schedule supports m_step=1 only")

    column_rel_error = kernel.eval_rel_error
    blocks = _FoldedBlocks(kernel, grid, m_max)
    certified = True
    record = []
    low_at = None  # (flat index, m) of the last negative DCT-I minimum

    def transform(emb: Embedding, block: np.ndarray) -> Spectrum:
        """The DCT-I of the folded block at emb.m: the spectrum whose
        values are the folded block of eigenvalues until the search
        returns."""
        nonlocal low_at
        values = scipy.fft.dctn(block, type=1)
        bound = _rounding_bound(_norm1(block, values.flat[0]), emb,
                                column_rel_error)
        at = int(values.argmin())
        low = float(values.flat[at])
        # a larger m only adds terms to an overflowed column sum
        if not (math.isfinite(low) and math.isfinite(bound)):
            raise ValueError(
                f"minimal_embedding: the spectrum at m={emb.m} is not finite "
                f"(min eigenvalue {low!r}, rounding bound {bound!r}): the "
                f"covariance column overflows float64")
        if low < 0.0:
            low_at = at, emb.m
        return Spectrum(values=values, min_value=low, tolerance=0.0,
                        embedding=emb, rounding_bound=bound)

    def attempt(m: int):
        """The verdict min >= -tol at m and the spectrum that decided it,
        None when the witness did; the decider is recorded."""
        nonlocal certified
        emb, block = Embedding(grid, m), blocks.block(m)
        if (low_at is not None and block.ndim > 1
                and _witness_fails(block, emb, *low_at, tol,
                                   column_rel_error)):
            record.append((m, "witness"))
            return False, None
        spec = transform(emb, block)
        record.append((m, "dct"))
        certified = certified and spec.decides(tol)
        return spec.min_value >= -tol, spec

    # lo is the largest m known to fail: m0 - 1 until one does, and m
    # itself when the search runs out, so that no bisection follows
    m, lo = grid.m0, grid.m0 - 1
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
    if spec is None:  # the witness failed m: its spectrum, unrecorded
        spec = transform(Embedding(grid, m), blocks.block(m))
    if not ok:
        raise _exhausted(spec, tol, m_max, tuple(record))
    blocks.lattice = None
    # eigenvalues in [-tol, 0) clamped to 0, then unfolded to (2m,)*d
    return Embedding(grid, m), replace(
        spec, values=_unfold(np.maximum(spec.values, 0.0), m), tolerance=tol,
        certified=certified, attempts=tuple(record))
