"""Stationary covariance kernels and their spectral densities.

Provides the Matern family (including its Gaussian nu = inf limit) and a
hook for user-supplied stationary symbols.  Kernels are immutable values;
every evaluation is pure.  The Matern profile takes ln Gamma and ln K_nu
from `specialfn`, the package's one special-function layer.  The radial
tail integrals of these profiles are theory and live in `analysis`.

Every kernel states its capabilities as the properties `is_gaussian`,
`is_isotropic` and `eval_rel_error`.  A kernel without a spectral density
says so in one way only: its `spectral_density` raises CapabilityError.

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

from .errors import CapabilityError
from .specialfn import NU_UNIFORM, log_bessel_k, log_gamma, log_gamma_ratio

__all__ = [
    "MaternKernel",
    "CustomStationaryKernel",
    "gaussian_kernel",
]


def _at_lags(fn, x, d: int, expected: str):
    """fn, mapping an (n, d) array of lags or frequencies to n values, at x
    of shape (d,) or (..., d), in d = 1 also a scalar or a 1-d array; the
    result has the shape of x without its d components (a float at one)."""
    x = np.asarray(x, dtype=float)
    if d == 1 and (x.ndim == 0 or x.ndim == 1 and x.shape[0] != 1):
        x = x[..., None]
    if x.ndim == 0 or x.shape[-1] != d:
        raise ValueError(f"{expected} with last axis {d}")
    out = np.asarray(fn(x.reshape(-1, d)), dtype=float).reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MaternKernel:
    """Matern covariance with variance sigma2, correlation length lam,
    smoothness nu (math.inf selects the Gaussian limit) and dimension d.

    The analyzed smoothness range is nu >= 1/2; values in (0, 1/2) are
    accepted only with allow_small_nu=True and carry no guarantees from
    the bound evaluators.  A finite nu whose `eval_rel_error` is 1 or more
    (from nu ~ 1.4e14) is rejected: kappa would have no correct digit.
    """

    sigma2: float
    lam: float
    nu: float
    d: int
    allow_small_nu: bool = False

    def __post_init__(self):
        if not 0 < self.sigma2 < math.inf:
            raise ValueError("MaternKernel: sigma2 must be positive and finite")
        if not 0 < self.lam < math.inf:
            raise ValueError("MaternKernel: lam must be positive and finite, "
                             f"got lam={self.lam!r}")
        if self.d not in (1, 2, 3):
            raise ValueError("MaternKernel: d must be 1, 2 or 3")
        if not (self.nu > 0):
            raise ValueError("MaternKernel: nu must be positive")
        if self.nu < 0.5 and not self.allow_small_nu:
            raise ValueError(
                "MaternKernel: nu < 1/2 is outside the analyzed range; "
                "pass allow_small_nu=True to accept it anyway")
        if not self.is_gaussian and not self.eval_rel_error < 1.0:
            raise ValueError(
                f"MaternKernel: at nu={self.nu!r} kappa has no correct digit "
                f"in float64 (eval_rel_error {self.eval_rel_error:.2g}); "
                f"use nu=inf for the Gaussian limit")

    # -- capabilities -----------------------------------------------------

    @property
    def is_gaussian(self) -> bool:
        return math.isinf(self.nu)

    @property
    def is_isotropic(self) -> bool:
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
        if not np.all(r >= 0):  # NaN too
            raise ValueError("kappa: requires r >= 0")
        if self.is_gaussian:
            # exp(-r^2/2) is 0 from r ~ 38.6 on; the cap keeps r * r finite
            r = np.minimum(r, 64.0)
            out = self.sigma2 * np.exp(-0.5 * r * r)
        else:
            # sigma2 at 0, and 0 from z = sqrt(2 nu) r = 1e300 on (r = inf
            # too), where kappa has long underflowed and z may overflow
            nu = self.nu
            out = np.where(r > 0, 0.0, self.sigma2)
            pos = (r > 0) & (r < 1e300 / math.sqrt(2.0 * nu))
            if pos.any():
                z = math.sqrt(2.0 * nu) * r[pos]
                log_k = ((1.0 - nu) * math.log(2.0) - log_gamma(nu)
                         + nu * np.log(z) + log_bessel_k(nu, z))
                out[pos] = self.sigma2 * np.exp(log_k)
        return float(out[0]) if scalar else out

    def rho(self, x):
        """Covariance rho(x) at the lag(s) x, as `_at_lags` reads them."""
        return _at_lags(lambda p: self.kappa(np.linalg.norm(p, axis=1)
                                             / self.lam), x, self.d,
                        "rho: expected lag(s)")

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

    def spectral_density(self, xi):
        """Spectral density rho_hat(xi) = lam^d kappa_hat_d(lam ||xi||_2) > 0
        at the frequency(ies) xi, as `_at_lags` reads them."""
        return _at_lags(lambda p: self.lam**self.d * np.exp(
            self.log_kappa_hat(self.lam * np.linalg.norm(p, axis=1))),
            xi, self.d, "spectral_density: expected frequency(ies)")

    def to_json(self) -> dict:
        return {
            "family": "matern",
            "sigma2": self.sigma2,
            "lambda": self.lam,
            "nu": "inf" if self.is_gaussian else self.nu,
            "d": self.d,
        }


def gaussian_kernel(sigma2: float, lam: float, d: int) -> MaternKernel:
    """Gaussian covariance sigma2 exp(-||x||^2 / (2 lam^2)) as the Matern
    nu = inf limit."""
    return MaternKernel(sigma2=sigma2, lam=lam, nu=math.inf, d=d)


@dataclass(frozen=True)
class CustomStationaryKernel:
    """User-supplied stationary symbol.

    `rho_fn` must accept an (n, d) array of lags and return n covariance
    values; `rho_hat_fn` (optional) does the same for frequencies, and
    without it `spectral_density` raises CapabilityError.  Both take the
    shapes that `MaternKernel` takes.  The caller is responsible for rho
    being symmetric in each coordinate, which the embedding relies on.
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
    def eval_rel_error(self) -> float:
        """Relative error of `rho_fn` (see MaternKernel.eval_rel_error),
        assumed to be that of a few float64 operations."""
        return 4 * np.finfo(float).eps

    def rho(self, x):
        return _at_lags(self.rho_fn, x, self.d, "rho: expected lag(s)")

    def spectral_density(self, xi):
        if self.rho_hat_fn is None:
            raise CapabilityError(
                "kernel capability missing: no spectral density supplied")
        return _at_lags(self.rho_hat_fn, xi, self.d,
                        "spectral_density: expected frequency(ies)")

    def to_json(self) -> dict:
        return {"family": "custom", "d": self.d,
                "has_spectral_density": self.rho_hat_fn is not None}
