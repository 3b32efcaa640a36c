"""Monte-Carlo validation of sampled fields against the target moments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .embedding import GridSpec, lag_table, resolve_mean

__all__ = ["ValidationReport", "validate_samples", "DENSE_POINTS_CAP"]

# Largest grid validated.  It bounds the n M^2 / 2 multiply-adds of the
# empirical covariance and the (2 m0 + 1)^d lag table; the covariance is
# never held whole (BLOCK_BYTES).
DENSE_POINTS_CAP = 4096

# Bytes of one block row of the empirical covariance: as many axis-0
# planes of the grid as fit, and at least one.
BLOCK_BYTES = 8 << 20

# Fewest samples the Monte-Carlo tolerances are meant for.
MIN_SAMPLES = 1000


@dataclass
class ValidationReport:
    n_samples: int
    max_mean_error: float
    mean_tolerance: float
    max_cov_error: float
    cov_tolerance: float
    mean_ok: bool
    cov_ok: bool
    passed: bool
    message: str = ""


def _lag_view(kernel, grid: GridSpec):
    """(table, R): the `lag_table` and the read-only view R[i, j] =
    table[k_i - k_j] with axes (i_1..i_d, j_1..j_d).  Slicing i_1 and j_1
    gives the target of a block of whole axis-0 planes with no copy.
    MemoryError above DENSE_POINTS_CAP."""
    d, m0, n = grid.d, grid.m0, grid.n_points
    if n > DENSE_POINTS_CAP:
        raise MemoryError(f"the grid has {n} points, above the cap of "
                          f"{DENSE_POINTS_CAP} points for a dense covariance")
    table = lag_table(kernel, grid)
    # windows[i, b] = table[i + b] over 2d axes, with table indexed from
    # lag -m0; b = m0 - j gives the lag i - j
    windows = sliding_window_view(table, (m0 + 1,) * d)
    return table, windows[(Ellipsis,) + (slice(None, None, -1),) * d]


def validate_samples(values: np.ndarray, kernel, grid: GridSpec,
                     mean=0.0) -> ValidationReport:
    """Compare empirical mean and covariance of sampled fields (rows of
    `values`) with the target mean and R, read from the lag table.
    Tolerances: 7 (1 + max|R|)/sqrt(n) on the covariance, 4 sqrt(max R_ii
    / n) on the mean; every lag occurs in R, so max|R| is the table's
    largest |value|, and every R_ii is its lag-0 entry.

    Neither R nor the M x M empirical covariance E is built.  E is formed
    in block rows of whole axis-0 planes, as many as fit BLOCK_BYTES and
    at least one, and only from the diagonal on: E and R are symmetric,
    since the lag table of a covariance is even (rho(-h) = rho(h)).  A
    table that is not even, beyond `kernel.eval_rel_error` times its
    largest |value|, is no covariance's and raises ValueError, before the
    samples are counted.  A single block is C^T C, which numpy computes
    as a symmetric product."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("validate_samples: expected a (n_samples, M) array")
    n, M = values.shape
    if M != grid.n_points:
        raise ValueError(
            f"validate_samples: samples have {M} points, grid has "
            f"{grid.n_points}")
    table, R = _lag_view(kernel, grid)
    scale = np.abs(table).max()
    if np.abs(table - np.flip(table)).max() > kernel.eval_rel_error * scale:
        raise ValueError("validate_samples: rho(-h) != rho(h) on the grid's "
                         "lags, so the kernel is not a covariance")
    if n < MIN_SAMPLES:
        raise ValueError(f"validate_samples: need at least {MIN_SAMPLES} "
                         f"samples, got {n}")
    d, m0 = grid.d, grid.m0
    mean_target = resolve_mean(mean, M)
    cov_tol = float(7.0 * (1.0 + scale) / math.sqrt(n))
    mean_tol = float(4.0 * math.sqrt(table[(m0,) * d] / n))

    emp_mean = values.mean(axis=0)
    centered = values - emp_mean
    plane = M // (m0 + 1)
    rows = plane * max(1, BLOCK_BYTES // (8 * plane * M))
    rest = (slice(None),) * (d - 1)
    variances = np.empty(M)
    max_cov_err = 0.0
    for lo in range(0, M, rows):
        hi = min(lo + rows, M)
        a = lo // plane
        cut = (slice(a, hi // plane),) + rest + (slice(a, None),) + rest
        # the block rows lo:hi of E from column lo on, minus R in place
        block = centered[:, lo:hi].T @ centered[:, lo:]
        block /= n - 1
        variances[lo:hi] = block[:, :hi - lo].diagonal()
        err = block.reshape(R[cut].shape)  # a view of block
        err -= R[cut]
        max_cov_err = np.maximum(max_cov_err, np.abs(block, out=block).max())
        del block, err  # one block at a time
    max_cov_err = float(max_cov_err)
    # the sample variances (divisor n)
    variances *= (n - 1) / n
    max_mean_err = float(np.abs(emp_mean - mean_target).max())

    degenerate = bool(np.allclose(variances, 0.0))
    if degenerate:
        mean_tol = cov_tol = 0.0
    mean_ok = not degenerate and bool(max_mean_err <= mean_tol)
    cov_ok = not degenerate and bool(max_cov_err <= cov_tol)
    return ValidationReport(
        n_samples=n, max_mean_error=max_mean_err, mean_tolerance=mean_tol,
        max_cov_error=max_cov_err, cov_tolerance=cov_tol, mean_ok=mean_ok,
        cov_ok=cov_ok, passed=mean_ok and cov_ok, message=(
            "degenerate input: all samples have zero variance"
            if degenerate else ""))
