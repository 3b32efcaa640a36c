"""Scalar special functions backing the covariance formulas: the one
module of the package that calls `scipy.special`, and the layer the
kernels evaluate Gamma and K_nu through.  All functions accept scalars or
numpy arrays and evaluate in 64-bit arithmetic.  Gamma and K_nu come in
the log domain only, as the Matern profile sums them.
"""

import math

import numpy as np
from scipy import special as _sp

__all__ = ["log_gamma", "log_gamma_ratio", "log_bessel_k", "NU_UNIFORM",
           "inv_normal_cdf"]

# Order from which `log_bessel_k` uses the uniform large-order expansion
# instead of scipy's kve (which overflows for large order at small
# argument).  At nu = 128 the truncated expansion is accurate to ~1e-10.
NU_UNIFORM = 128.0
# Bernoulli numbers B_0 .. B_6, for `log_gamma_ratio`
_BERNOULLI = (1.0, -0.5, 1.0 / 6.0, 0.0, -1.0 / 30.0, 0.0, 1.0 / 42.0)


def _domain_check(cond, message):
    if not np.all(cond):
        raise ValueError(message)


def log_gamma(x):
    """Natural log of the gamma function for positive real arguments."""
    x = np.asarray(x, dtype=float)
    _domain_check(x > 0, "log_gamma: requires x > 0")
    out = _sp.gammaln(x)
    return float(out) if out.ndim == 0 else out


def log_gamma_ratio(nu: float, a: float) -> float:
    """ln Gamma(nu + a) - ln Gamma(nu).  From nu = 50 on, where that
    difference cancels, the series a ln nu + sum_(k=2..7) (-1)^k
    (B_k(a) - B_k) / (k (k-1) nu^(k-1)) in Bernoulli polynomials."""
    if nu < 50.0:
        return log_gamma(nu + a) - log_gamma(nu)
    series = 0.0
    for k in range(7, 1, -1):  # by Horner's rule in 1 / nu
        shift = sum(math.comb(k, j) * _BERNOULLI[j] * a ** (k - j)
                    for j in range(k))  # B_k(a) - B_k
        series = (series + (-1) ** k * shift / (k * (k - 1))) / nu
    return a * math.log(nu) + series


def _log_bessel_k_uniform(nu, z):
    """log K_nu(z) by the uniform large-order asymptotic expansion.

    Valid for nu >= NU_UNIFORM, any z > 0.  Four series terms give
    relative error O(nu^-4).
    """
    w = z / nu
    sq = np.hypot(1.0, w)  # w * w overflows from w ~ 1.3e154
    eta = sq + np.log(w / (1.0 + sq))
    t = 1.0 / sq
    t2 = t * t
    u1 = t * (3.0 - 5.0 * t2) / 24.0
    u2 = t2 * (81.0 - t2 * (462.0 - 385.0 * t2)) / 1152.0
    u3 = (t * t2 * (30375.0 - t2 * (369603.0 - t2 * (765765.0 - 425425.0 * t2)))
          / 414720.0)
    series = 1.0 - u1 / nu + u2 / nu**2 - u3 / nu**3
    return 0.5 * np.log(np.pi / (2.0 * nu)) - nu * eta - 0.5 * np.log(sq) \
        + np.log(series)


def log_bessel_k(nu: float, z):
    """log K_nu(z) for scalar order nu >= 0.5 and array z > 0: scipy's
    scaled kve below order NU_UNIFORM, the uniform expansion above."""
    z = np.asarray(z, dtype=float)
    if nu >= NU_UNIFORM:
        return _log_bessel_k_uniform(nu, z)
    scaled = _sp.kve(nu, z)
    out = np.subtract(np.log(scaled), z, out=np.empty_like(z))
    small = np.isposinf(scaled)
    if small.any():
        # kve overflows only at small z and large order.  There
        # K_nu(z) = Gamma(nu) (z/2)^-nu / 2 sum_k c_k up to a relative
        # (z/2)^(2 nu), with c_0 = 1, c_k = c_(k-1) (-z^2/4) / (k (nu - k)),
        # summed until a term falls below the unit roundoff.
        zb = z[small]
        q = -0.25 * zb * zb
        term, corr, k = 1.0, 0.0, 1
        while k < nu:
            term = term * q / (k * (nu - k))
            corr = corr + term
            if np.abs(term).max() < np.finfo(float).eps / 2:
                break
            k += 1
        out[small] = (math.log(0.5) + log_gamma(nu)
                      + nu * (math.log(2.0) - np.log(zb)) + np.log1p(corr))
    large = np.isnan(scaled) & ~np.isnan(z)  # where kve gave up
    if large.any():
        # kve is NaN from z ~ 1.1e9 on.  There the large-argument (Hankel)
        # expansion K_nu(z) = sqrt(pi / (2z)) e^-z sum_k a_k z^-k, with
        # a_0 = 1, a_k = a_(k-1) (4 nu^2 - (2k - 1)^2) / (8k) (DLMF 10.40.2),
        # falls below the unit roundoff within a few terms.
        zb = z[large]
        term, corr, k = 1.0, 0.0, 1
        while True:
            # divided by 8k and zb in turn: 8k zb overflows near 1.8e308
            term = term * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k) / zb
            corr = corr + term
            if np.abs(term).max() < np.finfo(float).eps / 2:
                break
            k += 1
        out[large] = 0.5 * np.log(0.5 * np.pi / zb) - zb + np.log1p(corr)
    return out


def inv_normal_cdf(p):
    """Inverse of the standard normal CDF on the open interval (0, 1)."""
    p = np.asarray(p, dtype=float)
    _domain_check((p > 0) & (p < 1), "inv_normal_cdf: requires 0 < p < 1")
    out = _sp.ndtri(p)
    return float(out) if out.ndim == 0 else out
