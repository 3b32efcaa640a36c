"""Monte-Carlo validation of sampled fields against the target moments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .embedding import GridSpec, grid_points, resolve_mean

__all__ = ["ValidationReport", "dense_covariance", "validate_samples",
           "DENSE_POINTS_CAP"]

# Largest grid validated: its M x M empirical covariance takes 128 MiB.
DENSE_POINTS_CAP = 4096

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
    """(table, R): rho(h0 l) on the signed lags l in {-m0..m0}^d, from one
    `kernel.rho` call and assuming no symmetry of rho in any coordinate,
    and the read-only view R[i, j] = table[k_i - k_j] with axes
    (i_1..i_d, j_1..j_d).  MemoryError above DENSE_POINTS_CAP."""
    d, m0, n = grid.d, grid.m0, grid.n_points
    if n > DENSE_POINTS_CAP:
        raise MemoryError(f"the grid has {n} points, above the cap of "
                          f"{DENSE_POINTS_CAP} points for a dense covariance")
    lags = grid_points(np.arange(-m0, m0 + 1), d)
    table = np.asarray(kernel.rho(grid.h0 * lags),
                       dtype=float).reshape((2 * m0 + 1,) * d)
    # windows[i, b] = table[i + b] over 2d axes, with table indexed from
    # lag -m0; b = m0 - j gives the lag i - j
    windows = sliding_window_view(table, (m0 + 1,) * d)
    return table, windows[(Ellipsis,) + (slice(None, None, -1),) * d]


def dense_covariance(kernel, grid: GridSpec) -> np.ndarray:
    """Target covariance matrix R[i, j] = rho(h0 (k_i - k_j)) over the
    lexicographic grid indices k: the contiguous copy of the lag table's
    view (R is nested block Toeplitz).  Raises MemoryError above
    DENSE_POINTS_CAP grid points."""
    n = grid.n_points
    return np.ascontiguousarray(_lag_view(kernel, grid)[1]).reshape(n, n)


def validate_samples(values: np.ndarray, kernel, grid: GridSpec,
                     mean=0.0) -> ValidationReport:
    """Compare empirical mean and covariance of sampled fields (rows of
    `values`) with the target mean and R, read from the lag table (R is
    never built).  Tolerances: 7 (1 + max|R|)/sqrt(n) on the covariance,
    4 sqrt(max R_ii / n) on the mean; every lag occurs in R, so max|R| is
    the table's largest |value|, and every R_ii is its lag-0 entry."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("validate_samples: expected a (n_samples, M) array")
    n, M = values.shape
    if M != grid.n_points:
        raise ValueError(
            f"validate_samples: samples have {M} points, grid has "
            f"{grid.n_points}")
    table, R = _lag_view(kernel, grid)
    if n < MIN_SAMPLES:
        raise ValueError(f"validate_samples: need at least {MIN_SAMPLES} "
                         f"samples, got {n}")
    mean_target = resolve_mean(mean, M)
    cov_tol = float(7.0 * (1.0 + np.abs(table).max()) / math.sqrt(n))
    mean_tol = float(4.0 * math.sqrt(table[(grid.m0,) * grid.d] / n))

    emp_mean = values.mean(axis=0)
    centered = values - emp_mean
    emp_cov = centered.T @ centered
    emp_cov /= n - 1
    # the sample variances (divisor n), from the diagonal before R goes
    variances = emp_cov.diagonal() * ((n - 1) / n)
    lag_err = emp_cov.reshape(R.shape)  # a view: emp_cov minus R in place
    lag_err -= R
    max_cov_err = float(np.abs(emp_cov, out=emp_cov).max())
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
