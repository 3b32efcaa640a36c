"""Executable diagnostics for the embedding theory.

Contains the radial tail integrals of kappa and kappa_hat and the
sufficient positive-definiteness criterion built on them for isotropic
kernels, a computable lower bound on the circulant eigenvalues, the
extension-length bound evaluators for the Matern family and its Gaussian
limit (with empirically calibrated constants; the theory proves their
existence, not their values), the eigenvalues of the continuous
periodized covariance operator, the norm-ordered integer lattice (a
(J, d) integer array), eigenvalue-decay reports, the
dimension-independence sum used by QMC convergence theory, and an
aliasing (sampling-theorem) identity check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .embedding import Embedding, GridSpec, Spectrum, grid_points
from .errors import CapabilityError, ConvergenceError, QuadratureError
from .kernels import MaternKernel

__all__ = [
    "DecayReport",
    "BoundConstants",
    "PdCriterionResult",
    "SamplingIdentityResult",
    "pd_criterion",
    "matern_ell_bound",
    "gaussian_ell_bound",
    "continuous_eigenvalue",
    "lattice_ordering",
    "plateau_end",
    "decay_sequence",
    "decay_report",
    "qmc_criterion_sum",
    "sampling_theorem_check",
    "calibrate_constants",
    "spectral_tail_integral",
    "covariance_tail_integral",
    "eigen_lower_bound_diagnostic",
]

_MAX_DOUBLINGS = 16  # of the rectangle rule in `continuous_eigenvalue`
_RECT_REL_TOL = 1e-8  # its relative agreement between two doublings
_QUAD_REL_TOL = 1e-8  # relative accuracy the tail quadrature must reach
LATTICE_BOX_CAP = 50_000_000  # points in one truncated lattice box

# Covariance tail `eigen_lower_bound_diagnostic` may leave out of its sum.
TAIL_TOL = 1e-12
DECAY_REL_TOL = 0.15  # relative slope deviation `decay_report` passes


def _require_isotropic(kernel, what: str):
    if not kernel.is_isotropic:
        raise CapabilityError(f"{what} requires an isotropic kernel")


def _capped_grid(axis: np.ndarray, d: int,
                 what: str = "truncation box") -> np.ndarray:
    """`grid_points(axis, d)`, after checking that its axis.size^d points
    are at most LATTICE_BOX_CAP: every lattice box and sampled grid here."""
    if axis.size ** d > LATTICE_BOX_CAP:
        raise MemoryError(f"{what} too large: {axis.size}^{d} = "
                          f"{axis.size ** d} points, above the cap of "
                          f"{LATTICE_BOX_CAP}")
    return grid_points(axis, d)


@dataclass
class DecayReport:
    """Least-squares log-log fit of the normalized eigenvalue decay
    sqrt(Lambda_j / s) against the rank j over a fit window."""

    j_lo: int
    j_hi: int
    slope: float
    expected_beta: float
    rel_dev: float
    passed: bool
    degenerate: bool
    points: np.ndarray  # (j, sqrt(Lambda_j/s)) pairs over the window


@dataclass
class BoundConstants:
    """Constants for the extension-length bounds.  The theory only proves
    existence; values are user-supplied or calibrated from sweep data."""

    C1: Optional[float] = None
    C2: Optional[float] = None
    B: Optional[float] = None


@dataclass
class PdCriterionResult:
    lhs: float
    rhs: float
    satisfied: bool


def _checked_quad(f, lower):
    """integral_lower^inf f; QuadratureError when quad warns (its message
    comes with the estimate), when f overflows or is not finite, or when
    the estimate misses relative accuracy _QUAD_REL_TOL."""
    from scipy import integrate  # loads scipy.linalg: only theory needs it
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            val, err, _, *warning = integrate.quad(
                f, lower, np.inf, epsabs=0.0, epsrel=1e-11, limit=400,
                full_output=1)
    except (FloatingPointError, OverflowError) as exc:
        raise QuadratureError(f"tail quadrature from {lower!r}: the "
                              f"integrand is not finite ({exc})") from None
    if warning or not np.isfinite(val) or (
            val != 0.0 and err > _QUAD_REL_TOL * abs(val)):
        raise QuadratureError(
            f"tail quadrature did not converge: value={val!r}, "
            f"error estimate={err!r}"
            + "".join(f" ({w.splitlines()[0]})" for w in warning))
    return val


def spectral_tail_integral(kernel, lower: float) -> float:
    """integral_lower^inf r^(d-1) kappa_hat_d(r) dr for an isotropic kernel.

    Computed by adaptive quadrature on the transformed half line to
    relative accuracy 1e-8; raises QuadratureError when the estimate does
    not reach that.
    """
    _require_isotropic(kernel, "spectral_tail_integral")
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
    _require_isotropic(kernel, "covariance_tail_integral")
    if lower < 0:
        raise ValueError("covariance_tail_integral: requires lower >= 0")
    d = kernel.d

    def f(r):
        return r**(d - 1) * abs(float(kernel.kappa(r)))

    return _checked_quad(f, lower)


def pd_criterion(kernel: MaternKernel, grid: GridSpec,
                 ell: float) -> PdCriterionResult:
    """Sufficient condition for the extended circulant to be positive
    definite, for an isotropic kernel with decreasing |kappa| and positive
    decreasing kappa_hat:

        int_{3 lam sqrt(d)/(2 h0)}^inf r^(d-1) kappa_hat_d(r) dr
          >  (3^d - 1) 3^(d-1) d^(d/2-1) / (2 (h0/lam)^d)
             * int_{(ell - h0)/lam}^inf r^(d-1) |kappa(r)| dr .

    Both sides are linear in sigma2, so the verdict is variance-free.
    """
    _require_isotropic(kernel, "pd_criterion")
    d, h0, lam = grid.d, grid.h0, kernel.lam
    if not ell > h0:
        raise ValueError("pd_criterion: requires ell > h0")
    # (lam/h0)^d as a product: 0 where it underflows, inf where it overflows
    coef = ((3**d - 1) * 3 ** (d - 1) * d ** (0.5 * d - 1.0) / 2.0
            * math.prod([lam / h0] * d))
    if not coef < math.inf:
        raise ValueError(
            f"pd_criterion: (lam/h0)^{d} is not finite in float64 at "
            f"lam={lam!r}, h0={h0!r}: lower --lambda or --m0")
    lhs = spectral_tail_integral(kernel, 3.0 * lam * math.sqrt(d) / (2.0 * h0))
    rhs = coef * covariance_tail_integral(kernel, (ell - h0) / lam)
    return PdCriterionResult(lhs=lhs, rhs=rhs, satisfied=bool(lhs > rhs))


def eigen_lower_bound_diagnostic(kernel, embedding: Embedding,
                                 zeta_grid_n: int = 32,
                                 trunc_radius: int = 3) -> float:
    """Lower bound on all circulant eigenvalues of an isotropic kernel:

        (1/h0^d) min_zeta sum_{|r|_inf <= R} rho_hat((zeta + r)/h0)
        - sum_{k outside the centered index box} |rho(h0 k)|.

    The zeta minimum is taken over a uniform zeta_grid_n^d grid on
    [-1/2, 1/2]^d (grid-resolution-limited, not a rigorous global
    minimum; aligning zeta_grid_n with 2m makes the bound comparable to
    the true spectrum minimum).  Truncating the positive spectral sum
    only lowers the bound; the covariance tail sum is extended until its
    analytically-estimated remainder is below TAIL_TOL.
    """
    _require_isotropic(kernel, "eigen_lower_bound_diagnostic")
    grid = embedding.grid
    d, h0, m = grid.d, grid.h0, embedding.m

    # term 1: aliased spectral sum, minimized over the zeta grid
    shifts = _capped_grid(np.arange(-trunc_radius, trunc_radius + 1), d)
    zeta = _capped_grid(-0.5 + np.arange(zeta_grid_n) / zeta_grid_n, d,
                        "zeta grid")
    acc = np.zeros(zeta.shape[0])
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
    raise ConvergenceError("covariance tail does not decay; cannot "
                           "certify the diagnostic truncation")


def _outside_box_abs_sum(kernel, h0, m, d, k_cap):
    """sum of |rho(h0 k)| over k in [-K..K]^d outside [-m..m-1]^d, for an
    isotropic kernel."""
    k = _capped_grid(np.arange(-k_cap, k_cap + 1), d)
    lag = h0 * k[~np.all((k >= -m) & (k <= m - 1), axis=1)]
    r = np.sqrt(np.sum(lag * lag, axis=1))
    return float(np.abs(kernel.kappa(r / kernel.lam)).sum())


def matern_ell_bound(nu: float, lam: float, h0: float,
                     consts: BoundConstants) -> float:
    """Extension length sufficient for positive definiteness in the Matern
    case:  lam * (C1 + C2 nu^(1/2) log(max(lam/h0, nu^(1/2)))).

    Needs finite C1 and C2 >= 2 sqrt(2), a finite h0 > 0 and the hypotheses
    1/2 <= nu < inf, 0 < lam <= 1, h0/lam <= 1/e; a violation, NaN too,
    raises ValueError.
    """
    if consts.C1 is None or consts.C2 is None:
        raise ValueError("matern_ell_bound: needs C1 and C2")
    if not math.isfinite(consts.C1):
        raise ValueError("matern_ell_bound: C1 must be finite")
    if not 2.0 * math.sqrt(2.0) <= consts.C2 < math.inf:
        raise ValueError("matern_ell_bound: requires finite C2 >= 2 sqrt(2)")
    if not (0.5 <= nu < math.inf):
        raise ValueError("matern_ell_bound hypothesis violated: 1/2 <= nu < inf")
    if not 0.0 < lam <= 1.0:
        raise ValueError("matern_ell_bound hypothesis violated: 0 < lam <= 1")
    if not 0.0 < h0 < math.inf:
        raise ValueError("matern_ell_bound: requires a finite h0 > 0")
    if not h0 / lam <= math.exp(-1.0):
        raise ValueError("matern_ell_bound hypothesis violated: h0/lam <= 1/e")
    return lam * (consts.C1 + consts.C2 * math.sqrt(nu)
                  * math.log(max(lam / h0, math.sqrt(nu))))


def gaussian_ell_bound(lam: float, h0: float, B: float) -> float:
    """Extension length sufficient for positive definiteness in the
    Gaussian (nu = inf) case:  1 + lam * max(sqrt(2) lam/h0, B), for a
    finite B, a finite lam > 0 and a finite h0 > 0 (NaN fails each)."""
    if not (math.isfinite(B) and 0.0 < lam < math.inf):
        raise ValueError("gaussian_ell_bound: needs a finite B and lam > 0")
    if not 0.0 < h0 < math.inf:
        raise ValueError("gaussian_ell_bound: requires a finite h0 > 0")
    return 1.0 + lam * max(math.sqrt(2.0) * lam / h0, B)


def continuous_eigenvalue(kernel, ell: float, k, quad_n: int = 64) -> float:
    """Eigenvalue of the continuous periodized covariance operator,

        lambda_k(ell) = int_{[-ell, ell]^d} rho(x) cos(2 pi xi_k . x) dx,
        xi_k = k / (2 ell),

    by the tensor rectangle rule with quad_n points per axis, doubled (at
    most _MAX_DOUBLINGS times) until two successive values agree to
    _RECT_REL_TOL relatively.
    """
    if not 0 < ell < math.inf:
        raise ValueError("continuous_eigenvalue: ell must be finite and > 0")
    if quad_n < 2:
        raise ValueError("continuous_eigenvalue: quad_n must be >= 2")
    d = kernel.d
    if not math.prod([2.0 * ell] * d) < math.inf:
        raise ValueError(f"continuous_eigenvalue: ell={ell!r} is too large: "
                         f"the volume (2 ell)^{d} of its grid overflows")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.size != d:
        raise ValueError(f"continuous_eigenvalue: k must have {d} components")
    xi = k / (2.0 * ell)

    def rect(n: int) -> float:
        if n**d > 2**24:
            raise ConvergenceError(
                "continuous_eigenvalue: rectangle rule grid too large")
        pts = grid_points(-ell + 2.0 * ell * np.arange(n) / n, d)
        vals = kernel.rho(pts) * np.cos(2.0 * np.pi * (pts @ xi))
        with np.errstate(over="ignore"):  # an overflow is reported below
            value = float(vals.sum() * (2.0 * ell / n) ** d)
        if not math.isfinite(value):
            raise ValueError(f"continuous_eigenvalue: the rectangle rule "
                             f"overflows at ell={ell!r} for {kernel!r}")
        return value

    prev = rect(quad_n)
    n = quad_n
    for _ in range(_MAX_DOUBLINGS):
        n *= 2
        cur = rect(n)
        if abs(cur - prev) <= _RECT_REL_TOL * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise ConvergenceError(
        f"continuous_eigenvalue: rectangle rule did not converge to "
        f"rel_tol={_RECT_REL_TOL} within {_MAX_DOUBLINGS} doublings")


def lattice_ordering(d: int, J: int) -> np.ndarray:
    """First J integer lattice points k(1)=0, k(2), ... ordered by
    Euclidean norm, ties broken lexicographically on the coordinates, as a
    (J, d) integer array; the ordering for smaller J is a prefix of the
    ordering for larger J."""
    if J < 1:
        raise ValueError("lattice_ordering: J must be >= 1")
    if d not in (1, 2, 3):
        raise ValueError("lattice_ordering: d must be 1, 2 or 3")
    # a ball of radius R holding at least J points.  It contains the cube
    # of half-side a = R/sqrt(d) and its (2 floor(a) + 1)^d > (2a - 1)^d
    # points, which exceed J whenever (2a + 1)^d >= 2J + 2d and
    # (2a + 1) / (2a - 1) <= 2^(1/d), i.e. from R = 8 on; the tests count
    # the balls of every smaller R
    R = 1
    while (2 * (R / math.sqrt(d)) + 1) ** d < 2 * J + 2 * d:
        R += 1
    pts = _capped_grid(np.arange(-R, R + 1), d, "lattice box")
    norm2 = np.sum(pts * pts, axis=1)
    keep = norm2 <= R * R  # only full shells are safely ordered
    pts, norm2 = pts[keep], norm2[keep]
    keys = tuple(pts[:, i] for i in reversed(range(d))) + (norm2,)
    order = np.lexsort(keys)
    return pts[order[:J]]


def plateau_end(spec: Spectrum, nu: float) -> int:
    """First rank j with Lambda_j <= 2^-(nu + d/2) Lambda_1, d that of the
    spectrum's grid: how far the Matern density has fallen at its corner
    frequency, where (2 pi lam xi)^2 = 2 nu.  s when none fell that far."""
    vals = np.sort(spec.values_flat)[::-1]
    fallen = vals <= 2.0 ** -(nu + 0.5 * spec.embedding.grid.d) * vals[0]
    return int(np.argmax(fallen)) + 1 if fallen.any() else vals.size


def decay_sequence(spec: Spectrum) -> np.ndarray:
    """sqrt(Lambda_j / s), j = 1..s, nonincreasing; Lambda_j < 0 as 0."""
    flat = spec.values_flat
    return np.sort(np.sqrt(np.maximum(flat, 0.0) / flat.size))[::-1]


def decay_report(spec: Spectrum, nu: float,
                 fit_range: Optional[tuple] = None) -> DecayReport:
    """Fit the decay rate of the nonincreasing sqrt(Lambda_j / s) sequence
    on a log-log scale and compare with the conjectured exponent
    -(1 + 2 nu / d) / 2, d that of the spectrum's grid; the report passes
    when the relative deviation is at most DECAY_REL_TOL.

    `fit_range` is an inclusive (j_lo, j_hi) rank window of two finite
    numbers, rounded inward to integer ranks.  The default
    runs from the end of the spectral plateau (`plateau_end`) to s^0.9,
    past which the asymptotic rate is expected; when the plateau reaches
    s^0.9 that window is empty and the report is degenerate.  Zero
    eigenvalues inside the window (clamped or below the floating-point
    floor) are excluded from the fit.
    """
    s = spec.values_flat.size
    if fit_range is None:
        j_lo, j_hi = plateau_end(spec, nu), int(math.floor(s**0.9))
    else:
        if not (isinstance(fit_range, (tuple, list)) and len(fit_range) == 2
                and all(isinstance(v, numbers.Real) and math.isfinite(v)
                        for v in fit_range)):
            raise ValueError("decay_report: fit range must be two finite "
                             f"numbers, not {fit_range!r}")
        j_lo = max(1, int(math.ceil(fit_range[0])))
        j_hi = min(s, int(math.floor(fit_range[1])))
        if not (1 <= j_lo < j_hi <= s):
            raise ValueError(f"decay_report: invalid fit range {fit_range}")
    vals = decay_sequence(spec)
    j = np.arange(1, s + 1)
    window = (j >= j_lo) & (j <= j_hi)
    points = np.column_stack([j[window], vals[window]])
    positive = window & (vals > 0)
    expected_beta = 0.5 * (1.0 + 2.0 * nu / spec.embedding.grid.d)
    x = np.log(j[positive])
    y = np.log(vals[positive])
    degenerate = bool(positive.sum() < 2 or np.ptp(y) == 0.0)
    if degenerate:
        slope = 0.0
    else:
        slope = float(np.polyfit(x, y, 1)[0])
    rel_dev = float(abs(slope - (-expected_beta)) / expected_beta)
    passed = bool((not degenerate) and rel_dev <= DECAY_REL_TOL)
    return DecayReport(j_lo=j_lo, j_hi=j_hi, slope=slope,
                       expected_beta=expected_beta, rel_dev=rel_dev,
                       passed=passed, degenerate=degenerate, points=points)


def qmc_criterion_sum(spec: Spectrum, p: float) -> float:
    """sum_k (Lambda_k / s)^(p/2) over the whole spectrum; the quantity
    whose boundedness in s underpins dimension-independent QMC rates."""
    if not (0.0 < p < 1.0):
        raise ValueError("qmc_criterion_sum: requires 0 < p < 1")
    flat = spec.values_flat
    if flat.min() < 0.0:
        raise ValueError("qmc_criterion_sum: spectrum must be nonnegative")
    s = flat.size
    return float(np.sum((flat / s) ** (0.5 * p)))


@dataclass
class SamplingIdentityResult:
    lhs: float
    rhs: float
    residual: float


def sampling_theorem_check(kernel, h: float, xi, k_trunc: int,
                           r_trunc: int) -> SamplingIdentityResult:
    """Check the aliasing identity

        sum_k rho(h k) cos(2 pi h k . xi)  =  h^(-d) sum_r rho_hat(xi + r/h)

    with both lattice sums truncated at the given sup-norm radii (>= 0).
    """
    if not 0 < h < math.inf:
        raise ValueError("sampling_theorem_check: h must be finite and > 0")
    d = kernel.d
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.size != d:
        raise ValueError(f"sampling_theorem_check: xi must have {d} components")
    if not np.isfinite(xi).all():
        raise ValueError("sampling_theorem_check: xi must be finite")
    if k_trunc < 0 or r_trunc < 0:
        raise ValueError("sampling_theorem_check: k_trunc and r_trunc must "
                         "be >= 0")
    pts = _capped_grid(np.arange(-k_trunc, k_trunc + 1), d).astype(float)
    shifts = _capped_grid(np.arange(-r_trunc, r_trunc + 1), d).astype(float)

    # the spectral side first: a kernel without a density fails here.  A
    # side that overflows or is NaN is reported below, not warned about
    with np.errstate(all="ignore"):
        rhs = float(np.sum(kernel.spectral_density(xi[None, :] + shifts / h))
                    / np.float64(h) ** d)
        lhs = float(np.sum(kernel.rho(h * pts)
                           * np.cos(2.0 * np.pi * h * (pts @ xi))))
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(
            f"sampling_theorem_check: the identity is not finite in float64 "
            f"at h={h!r}, xi={xi.tolist()} for {kernel!r} (lhs {lhs!r}, "
            f"rhs {rhs!r})")
    return SamplingIdentityResult(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs))


def calibrate_constants(sweep_results: Sequence[tuple]) -> tuple:
    """Fit bound constants from sweep rows (d, nu, lam, h0, empirical_ell).

    Finite-nu rows calibrate (C1, C2) as the least upper envelope of
    ell/lam over the feature nu^(1/2) log(max(lam/h0, nu^(1/2))) (linear
    program: minimize total slack subject to domination, C1 >= 0 and
    C2 >= 2 sqrt(2)).  Rows with nu = inf calibrate B as the smallest
    value making 1 + lam max(sqrt(2) lam/h0, B) dominate.

    Returns (BoundConstants, stats) where stats reports per-family slack.
    """
    rows = list(sweep_results)
    if not rows:
        raise ValueError("calibrate_constants: empty input")
    finite = [(d, nu, lam, h0, ell) for (d, nu, lam, h0, ell) in rows
              if not math.isinf(nu)]
    gauss = [(d, nu, lam, h0, ell) for (d, nu, lam, h0, ell) in rows
             if math.isinf(nu)]
    consts = BoundConstants()
    stats: dict = {}

    if finite:
        if len(finite) < 4:
            raise ValueError("calibrate_constants: need at least 4 finite-nu "
                             "rows to fit C1, C2")
        x = np.array([math.sqrt(nu) * math.log(max(lam / h0, math.sqrt(nu)))
                      for (_, nu, lam, h0, _) in finite])
        y = np.array([ell / lam for (_, _, lam, _, ell) in finite])
        c2_min = 2.0 * math.sqrt(2.0)
        n = len(finite)
        from scipy import optimize  # loads scipy.linalg: only theory needs it
        # minimize sum of slacks (C1 + C2 x_i - y_i) over C1 >= 0, C2 >= c2_min
        res = optimize.linprog(c=[n, float(x.sum())],
                               A_ub=np.column_stack([-np.ones(n), -x]),
                               b_ub=-y,
                               bounds=[(0.0, None), (c2_min, None)],
                               method="highs")
        if not res.success:
            raise RuntimeError(
                f"calibrate_constants: envelope fit infeasible: {res.message}")
        consts.C1, consts.C2 = float(res.x[0]), float(res.x[1])
        slack = consts.C1 + consts.C2 * x - y
        stats["matern"] = {"n": n, "max_slack": float(slack.max()),
                           "mean_slack": float(slack.mean()),
                           "min_slack": float(slack.min())}

    if gauss:
        needed = [(ell - 1.0) / lam for (_, _, lam, h0, ell) in gauss
                  if math.sqrt(2.0) * lam / h0 < (ell - 1.0) / lam]
        consts.B = float(max(needed)) if needed else 0.0
        bounds = np.array([gaussian_ell_bound(lam, h0, consts.B)
                           for (_, _, lam, h0, _) in gauss])
        ells = np.array([ell for (*_, ell) in gauss])
        stats["gaussian"] = {"n": len(gauss),
                             "max_slack": float((bounds - ells).max()),
                             "mean_slack": float((bounds - ells).mean()),
                             "min_slack": float((bounds - ells).min())}
    return consts, stats
