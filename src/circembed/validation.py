"""Monte-Carlo validation of sampled fields against the target moments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .embedding import GridSpec, grid_points

__all__ = ["ValidationReport", "dense_covariance", "validate_samples",
           "DENSE_POINTS_CAP"]

# Largest grid whose dense covariance matrix validation assembles.
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

    def to_json(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "max_mean_error": self.max_mean_error,
            "mean_tolerance": self.mean_tolerance,
            "max_cov_error": self.max_cov_error,
            "cov_tolerance": self.cov_tolerance,
            "mean_ok": self.mean_ok,
            "cov_ok": self.cov_ok,
            "passed": self.passed,
            "message": self.message,
        }


def dense_covariance(kernel, grid: GridSpec) -> np.ndarray:
    """Target covariance matrix R[i, j] = rho(h0 (k_i - k_j)), assembled
    densely over the lexicographic grid indices k.

    R is nested block Toeplitz: an entry depends only on the integer lag
    k_i - k_j in {-m0..m0}^d.  So `kernel.rho` is evaluated once, on the
    (2 m0 + 1)^d signed lags h0 l, and R is copied out of that table.  The
    signed table assumes no symmetry of rho in any coordinate.  Raises
    MemoryError above DENSE_POINTS_CAP grid points.
    """
    d, m0, n = grid.d, grid.m0, grid.n_points
    if n > DENSE_POINTS_CAP:
        raise MemoryError(
            f"dense_covariance: {n} points exceeds cap {DENSE_POINTS_CAP}")
    lags = grid_points(np.arange(-m0, m0 + 1), d)
    table = np.asarray(kernel.rho(grid.h0 * lags), dtype=float)
    # windows[i, b] = table[i + b] over 2d axes (i_1..i_d, b_1..b_d) with
    # table indexed from lag -m0; b = m0 - j gives the lag i - j
    windows = sliding_window_view(table.reshape((2 * m0 + 1,) * d),
                                  (m0 + 1,) * d)
    flip_j = (Ellipsis,) + (slice(None, None, -1),) * d
    return np.ascontiguousarray(windows[flip_j]).reshape(n, n)


def validate_samples(values: np.ndarray, kernel, grid: GridSpec,
                     mean=0.0) -> ValidationReport:
    """Compare empirical mean and covariance of sampled fields (rows of
    `values`) against the prescribed mean and covariance matrix.

    The covariance tolerance is the Monte-Carlo bound 7 (1 + max|R|)/sqrt(n);
    the mean tolerance is 4 sqrt(max R_ii / n).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("validate_samples: expected a (n_samples, M) array")
    n, M = values.shape
    if M != grid.n_points:
        raise ValueError(
            f"validate_samples: samples have {M} points, grid has "
            f"{grid.n_points}")
    if n < MIN_SAMPLES:
        raise ValueError(f"validate_samples: need at least {MIN_SAMPLES} "
                         f"samples, got {n}")
    R = dense_covariance(kernel, grid)
    # the tolerances first, so that |R| and the empirical covariance are
    # never held at once
    cov_tol = float(7.0 * (1.0 + np.abs(R).max()) / math.sqrt(n))
    mean_tol = float(4.0 * math.sqrt(R.diagonal().max() / n))
    mean = np.asarray(mean, dtype=float)
    mean_target = np.full(M, float(mean)) if mean.ndim == 0 else mean.reshape(M)

    emp_mean = values.mean(axis=0)
    centered = values - emp_mean
    emp_cov = centered.T @ centered
    emp_cov /= n - 1
    # the sample variances (divisor n), from the diagonal before R goes
    variances = emp_cov.diagonal() * ((n - 1) / n)
    emp_cov -= R
    max_cov_err = float(np.abs(emp_cov, out=emp_cov).max())
    max_mean_err = float(np.abs(emp_mean - mean_target).max())

    if np.allclose(variances, 0.0):
        return ValidationReport(
            n_samples=n, max_mean_error=max_mean_err, mean_tolerance=0.0,
            max_cov_error=max_cov_err, cov_tolerance=0.0, mean_ok=False,
            cov_ok=False, passed=False,
            message="degenerate input: all samples have zero variance")

    mean_ok = bool(max_mean_err <= mean_tol)
    cov_ok = bool(max_cov_err <= cov_tol)
    return ValidationReport(
        n_samples=n, max_mean_error=max_mean_err, mean_tolerance=mean_tol,
        max_cov_error=max_cov_err, cov_tolerance=cov_tol, mean_ok=mean_ok,
        cov_ok=cov_ok, passed=mean_ok and cov_ok)
