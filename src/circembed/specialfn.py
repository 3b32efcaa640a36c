"""Scalar special functions backing the covariance formulas: the one
module of the package that calls `scipy.special`, and the layer the
kernels evaluate Gamma and K_nu through.  All functions accept scalars or
numpy arrays and evaluate in 64-bit arithmetic.

`bessel_k` stays on the linear kve(nu, x) exp(-x): through `log_bessel_k`
it would move by up to 5.2e-14 relative (464u) on nu in [0.5, 50],
x <= 120, and from nu = NU_UNIFORM take the uniform expansion, which is
accurate to about 1e-10 only.
"""

import math

import numpy as np
from scipy import special as _sp

__all__ = ["gamma", "log_gamma", "log_gamma_ratio", "bessel_k",
           "log_bessel_k", "NU_UNIFORM", "inv_normal_cdf"]

# Order from which `log_bessel_k` uses the uniform large-order expansion
# instead of scipy's kve (which overflows for large order at small
# argument).  At nu = 128 the truncated expansion is accurate to ~1e-10.
NU_UNIFORM = 128.0


def _domain_check(cond, message):
    if not np.all(cond):
        raise ValueError(message)


def gamma(x):
    """Gamma function for positive real arguments."""
    x = np.asarray(x, dtype=float)
    _domain_check(x > 0, "gamma: requires x > 0")
    out = _sp.gamma(x)
    return float(out) if out.ndim == 0 else out


def log_gamma(x):
    """Natural log of the gamma function for positive real arguments."""
    x = np.asarray(x, dtype=float)
    _domain_check(x > 0, "log_gamma: requires x > 0")
    out = _sp.gammaln(x)
    return float(out) if out.ndim == 0 else out


def log_gamma_ratio(nu: float, a: float) -> float:
    """ln Gamma(nu + a) - ln Gamma(nu), stable also for very large nu."""
    if nu < 1e8:
        return log_gamma(nu + a) - log_gamma(nu)
    return a * math.log(nu) + a * (a - 1.0) / (2.0 * nu)


def bessel_k(nu, x):
    """Modified Bessel function of the second kind K_nu(x) for real order.

    The symmetry K_{-nu} = K_nu is applied, so the sign of `nu` is
    irrelevant.  Saturates to 0 on exponent underflow for large x instead
    of raising; x <= 0 is a domain error.
    """
    nu = np.abs(np.asarray(nu, dtype=float))
    x = np.asarray(x, dtype=float)
    _domain_check(x > 0, "bessel_k: requires x > 0")
    # kve = exp(x) K_nu(x) stays representable far past where K_nu itself
    # underflows; the product underflows gracefully to 0.
    out = _sp.kve(nu, x) * np.exp(-x)
    return float(out) if out.ndim == 0 else out


def _log_bessel_k_uniform(nu, z):
    """log K_nu(z) by the uniform large-order asymptotic expansion.

    Valid for nu >= NU_UNIFORM, any z > 0.  Four series terms give
    relative error O(nu^-4).
    """
    w = z / nu
    sq = np.sqrt(1.0 + w * w)
    eta = sq + np.log(w / (1.0 + sq))
    t = 1.0 / sq
    t2 = t * t
    u1 = t * (3.0 - 5.0 * t2) / 24.0
    u2 = t2 * (81.0 - t2 * (462.0 - 385.0 * t2)) / 1152.0
    u3 = (t * t2 * (30375.0 - t2 * (369603.0 - t2 * (765765.0 - 425425.0 * t2)))
          / 414720.0)
    series = 1.0 - u1 / nu + u2 / nu**2 - u3 / nu**3
    return 0.5 * np.log(np.pi / (2.0 * nu)) - nu * eta - 0.25 * np.log1p(w * w) \
        + np.log(series)


def log_bessel_k(nu: float, z):
    """log K_nu(z) for scalar order nu >= 0.5 and array z > 0: scipy's
    scaled kve below order NU_UNIFORM, the uniform expansion above."""
    z = np.asarray(z, dtype=float)
    if nu >= NU_UNIFORM:
        return _log_bessel_k_uniform(nu, z)
    out = np.empty_like(z)
    scaled = _sp.kve(nu, z)
    ok = np.isfinite(scaled)
    out[ok] = np.log(scaled[ok]) - z[ok]
    if not ok.all():
        # kve overflows only at small z and large order.  There
        # K_nu(z) = Gamma(nu) (z/2)^-nu / 2 sum_k c_k up to a relative
        # (z/2)^(2 nu), with c_0 = 1, c_k = c_(k-1) (-z^2/4) / (k (nu - k)),
        # summed until a term falls below the unit roundoff.
        zb = z[~ok]
        q = -0.25 * zb * zb
        term, corr, k = 1.0, 0.0, 1
        while k < nu:
            term = term * q / (k * (nu - k))
            corr = corr + term
            if np.abs(term).max() < np.finfo(float).eps / 2:
                break
            k += 1
        out[~ok] = (math.log(0.5) + log_gamma(nu)
                    + nu * (math.log(2.0) - np.log(zb)) + np.log1p(corr))
    return out


def inv_normal_cdf(p):
    """Inverse of the standard normal CDF on the open interval (0, 1)."""
    p = np.asarray(p, dtype=float)
    _domain_check((p > 0) & (p < 1), "inv_normal_cdf: requires 0 < p < 1")
    out = _sp.ndtri(p)
    return float(out) if out.ndim == 0 else out
