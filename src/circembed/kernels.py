"""Stationary covariance kernels and their spectral densities.

Provides the Matern family (including its Gaussian nu = inf limit) and a
hook for user-supplied stationary symbols.  Kernels are immutable values;
every evaluation is pure.  The Matern profile takes ln Gamma and ln K_nu
from `specialfn`, the package's one special-function layer.

Conventions
-----------
A kernel is isotropic when rho(x) = kappa(||x||_2 / lam) for a radial
profile kappa with kappa(0) = sigma2.  Its spectral density uses the
ordinary-frequency Fourier transform

    rho_hat(xi) = integral rho(x) exp(-2 pi i xi . x) dx
                = lam^d kappa_hat_d(lam ||xi||_2),

so that positive definiteness of rho is equivalent to rho_hat > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .errors import CapabilityError, QuadratureError
from .specialfn import NU_UNIFORM, log_bessel_k, log_gamma, log_gamma_ratio

__all__ = [
    "MaternKernel",
    "CustomStationaryKernel",
    "gaussian_kernel",
    "spectral_tail_integral",
    "covariance_tail_integral",
]


def _lag_norm(x, d: int, error: str):
    """Norm of the lag(s) x as `MaternKernel.rho` takes them."""
    x = np.asarray(x, dtype=float)
    if d == 1 and (x.ndim == 0 or (x.ndim == 1 and x.shape[-1] != 1)):
        return np.abs(x)
    if x.shape[-1] != d:
        raise ValueError(error)
    return np.sqrt(np.sum(x * x, axis=-1))


@dataclass(frozen=True)
class MaternKernel:
    """Matern covariance with variance sigma2, correlation length lam,
    smoothness nu (math.inf selects the Gaussian limit) and dimension d.

    The analyzed smoothness range is nu >= 1/2; values in (0, 1/2) are
    accepted only with allow_small_nu=True and carry no guarantees from
    the bound evaluators.
    """

    sigma2: float
    lam: float
    nu: float
    d: int
    allow_small_nu: bool = False

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError("MaternKernel: sigma2 must be positive")
        if not self.lam > 0:
            raise ValueError("MaternKernel: lam must be positive")
        if self.d not in (1, 2, 3):
            raise ValueError("MaternKernel: d must be 1, 2 or 3")
        if not (self.nu > 0):
            raise ValueError("MaternKernel: nu must be positive")
        if self.nu < 0.5 and not self.allow_small_nu:
            raise ValueError(
                "MaternKernel: nu < 1/2 is outside the analyzed range; "
                "pass allow_small_nu=True to accept it anyway")

    # -- capabilities -----------------------------------------------------

    @property
    def is_gaussian(self) -> bool:
        return math.isinf(self.nu)

    @property
    def is_isotropic(self) -> bool:
        return True

    @property
    def has_spectral_density(self) -> bool:
        return True

    @property
    def eval_rel_error(self) -> float:
        """Relative float64 error of `kappa`, weighted by covariance mass:
        over the values c_j of a grid column, sum |computed - exact| is
        estimated to stay below eval_rel_error * sum |c_j|.

        Gaussian: the scaled radius carries at most d + 8 relative
        roundings, so exp(-x) with x = r^2/2 errs by u (2 + (d + 8) x), and
        the mean of x under Gaussian lattice weights is at most d/2.
        Matern: `kappa` sums logarithms, each rounded relative to its size;
        the constant terms are |1 - nu| ln 2 and |ln Gamma(nu)|, nu stands
        for the terms in z where the mass lies, and the factor 2 and the 4
        cover exp, kve and the products.  Against mpmath (d = 2, nu from
        0.5 to 100) the mass-weighted error stays below half of this.
        Where 2 nu is not an integer (and nu < 128, so kve is used), scipy's
        kve itself errs by up to about 900u near z ~ 2 already at nu = 0.6,
        where at integer and half-integer orders up to 16 it errs by at
        most 32u; a 2^10 u term covers that.
        """
        u = np.finfo(float).eps / 2
        if self.is_gaussian:
            return u * (2.0 + (self.d + 8) * self.d / 2.0)
        nu = self.nu
        terms = abs(1.0 - nu) * math.log(2.0) + abs(log_gamma(nu)) + nu
        bound = u * (4.0 + 2.0 * terms)
        if nu < NU_UNIFORM and not (2.0 * nu).is_integer():
            bound += 2.0**10 * u  # kve at fractional orders
        if nu >= NU_UNIFORM:
            bound += 1e-10  # truncation of the uniform expansion
        return bound

    # -- radial profile ---------------------------------------------------

    def kappa(self, r):
        """Radial profile kappa(r) with r the scaled lag ||x||_2 / lam."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if np.any(r < 0):
            raise ValueError("kappa: requires r >= 0")
        out = np.empty_like(r)
        if self.is_gaussian:
            out = self.sigma2 * np.exp(-0.5 * r * r)
        else:
            pos = r > 0
            out[~pos] = self.sigma2
            if pos.any():
                nu = self.nu
                z = math.sqrt(2.0 * nu) * r[pos]
                log_k = ((1.0 - nu) * math.log(2.0) - log_gamma(nu)
                         + nu * np.log(z) + log_bessel_k(nu, z))
                out[pos] = self.sigma2 * np.exp(log_k)
        return float(out[0]) if scalar else out

    def rho(self, x):
        """Covariance rho(x) at a lag x (shape (d,)) or lags (shape (n, d)).

        For d = 1 a bare scalar or 1-d array of lags is also accepted.
        """
        r = _lag_norm(x, self.d, f"rho: expected lag(s) with last axis {self.d}")
        return self.kappa(r / self.lam)

    # -- spectral side ----------------------------------------------------

    def log_kappa_hat(self, r):
        """log of the d-dimensional radial spectral profile kappa_hat_d(r)."""
        r = np.asarray(r, dtype=float)
        d = self.d
        if self.is_gaussian:
            return (math.log(self.sigma2) + 0.5 * d * math.log(2.0 * math.pi)
                    - 2.0 * np.pi**2 * r * r)
        nu = self.nu
        two_pi_r = 2.0 * np.pi * r
        return (math.log(self.sigma2) + d * math.log(2.0)
                + 0.5 * d * math.log(math.pi)
                + log_gamma_ratio(nu, 0.5 * d)
                - 0.5 * d * math.log(2.0 * nu)
                - (nu + 0.5 * d) * np.log1p(two_pi_r * two_pi_r / (2.0 * nu)))

    def kappa_hat(self, r):
        """Radial spectral profile kappa_hat_d(r); strictly positive."""
        r = np.asarray(r, dtype=float)
        out = np.exp(self.log_kappa_hat(r))
        return float(out) if out.ndim == 0 else out

    def spectral_density(self, xi):
        """Spectral density rho_hat(xi) = lam^d kappa_hat_d(lam ||xi||_2)."""
        r = _lag_norm(xi, self.d,
                      f"spectral_density: expected last axis {self.d}")
        return self.lam**self.d * self.kappa_hat(self.lam * r)

    def to_json(self) -> dict:
        return {
            "family": "matern",
            "sigma2": self.sigma2,
            "lambda": self.lam,
            "nu": "inf" if self.is_gaussian else self.nu,
            "d": self.d,
        }

    @staticmethod
    def from_json(obj: dict) -> "MaternKernel":
        nu = obj["nu"]
        nu = math.inf if nu in ("inf", None) else float(nu)
        return MaternKernel(sigma2=float(obj["sigma2"]), lam=float(obj["lambda"]),
                            nu=nu, d=int(obj["d"]), allow_small_nu=True)


def gaussian_kernel(sigma2: float, lam: float, d: int) -> MaternKernel:
    """Gaussian covariance sigma2 exp(-||x||^2 / (2 lam^2)) as the Matern
    nu = inf limit."""
    return MaternKernel(sigma2=sigma2, lam=lam, nu=math.inf, d=d)


def _at_points(fn, x, d: int, error: str):
    """fn at a point x (shape (d,)), a float, or at points (shape (n, d))."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[-1] != d:
        raise ValueError(error)
    out = np.asarray(fn(pts), dtype=float).reshape(pts.shape[0])
    return float(out[0]) if x.ndim <= 1 else out


@dataclass(frozen=True)
class CustomStationaryKernel:
    """User-supplied stationary symbol.

    `rho_fn` must accept an (n, d) array of lags and return n covariance
    values; `rho_hat_fn` (optional) does the same for frequencies.  The
    caller is responsible for rho being symmetric in each coordinate,
    which the embedding machinery relies on.
    """

    rho_fn: Callable[[np.ndarray], np.ndarray]
    d: int
    rho_hat_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def is_gaussian(self) -> bool:
        return False

    @property
    def is_isotropic(self) -> bool:
        return False

    @property
    def has_spectral_density(self) -> bool:
        return self.rho_hat_fn is not None

    @property
    def eval_rel_error(self) -> float:
        """Relative error of `rho_fn` (see MaternKernel.eval_rel_error),
        assumed to be that of a few float64 operations."""
        return 4 * np.finfo(float).eps

    def rho(self, x):
        return _at_points(self.rho_fn, x, self.d,
                          f"rho: expected lag(s) with last axis {self.d}")

    def spectral_density(self, xi):
        if self.rho_hat_fn is None:
            raise CapabilityError(
                "kernel capability missing: no spectral density supplied")
        return _at_points(self.rho_hat_fn, xi, self.d,
                          f"spectral_density: expected last axis {self.d}")

    def to_json(self) -> dict:
        return {"family": "custom", "d": self.d,
                "has_spectral_density": self.has_spectral_density}


# -- radial tail integrals ----------------------------------------------

_QUAD_REL_TOL = 1e-8


def _require_isotropic(kernel):
    if not getattr(kernel, "is_isotropic", False):
        raise CapabilityError("operation requires an isotropic kernel")


def _checked_quad(f, lower, rel_tol=_QUAD_REL_TOL):
    val, err = integrate.quad(f, lower, np.inf, epsabs=0.0, epsrel=1e-11,
                              limit=400)
    if not np.isfinite(val) or (val != 0.0 and err > rel_tol * abs(val)):
        raise QuadratureError(
            f"tail quadrature did not converge: value={val!r}, "
            f"error estimate={err!r}")
    return val


def spectral_tail_integral(kernel, lower: float) -> float:
    """integral_lower^inf r^(d-1) kappa_hat_d(r) dr for an isotropic kernel.

    Computed by adaptive quadrature on the transformed half line to
    relative accuracy 1e-8; raises QuadratureError when the estimate does
    not reach that.
    """
    _require_isotropic(kernel)
    if lower < 0:
        raise ValueError("spectral_tail_integral: requires lower >= 0")
    d = kernel.d

    def f(r):
        return r**(d - 1) * float(np.exp(kernel.log_kappa_hat(r)))

    return _checked_quad(f, lower)


def covariance_tail_integral(kernel, lower: float) -> float:
    """integral_lower^inf r^(d-1) |kappa(r)| dr for an isotropic kernel.

    kappa >= 0 for the Matern family, so the absolute value is free.
    """
    _require_isotropic(kernel)
    if lower < 0:
        raise ValueError("covariance_tail_integral: requires lower >= 0")
    d = kernel.d

    def f(r):
        return r**(d - 1) * abs(float(kernel.kappa(r)))

    return _checked_quad(f, lower)
