"""Closed-form Gaussian machinery.

Univariate normal cdf/pdf/quantile, the correlated bivariate normal cdf with
its partial derivatives, two-dimensional sprinkled and errorless decoupling
checks, the tail-gap scan behind the best-possible Gaussian-decay constant,
and the Gaussian isoperimetric profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError
from .kernels import _gauss_legendre_panels

SQRT_2PI = math.sqrt(2.0 * math.pi)
# ceiling for the decay constant in any Gaussian-error sprinkled bound: 1/(3-2*sqrt(2))
NEG_BOUND_CEIL = 1.0 / (3.0 - 2.0 * math.sqrt(2.0))
SLACK_TOL = 1e-12  # roundoff allowance of the two-dimensional checks


def std_cdf(u):
    return special.ndtr(u)


# exp(-u^2 / 2) underflows to 0 from |u| = 38.6 on, so clipping |u| here leaves every value as it
# was and keeps u^2 from overflowing
PDF_CLIP = 40.0


def std_pdf(u):
    return np.exp(-np.square(np.minimum(np.abs(u), PDF_CLIP)) / 2.0) / SQRT_2PI


def std_quantile(p):
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("quantile requires p in (0,1)")
    out = special.ndtri(p)
    return float(out) if out.ndim == 0 else out


def _clip(u: float) -> float:
    """u with |u| clipped at PDF_CLIP, where every Gaussian density factor of u has underflowed."""
    return math.copysign(min(abs(u), PDF_CLIP), u)


def _phi2(rho: float, u: float, v: float) -> float:
    om = 1.0 - rho * rho
    u, v = _clip(u), _clip(v)
    return math.exp(-(u * u - 2.0 * rho * u * v + v * v) / (2.0 * om)) / (2.0 * math.pi * math.sqrt(om))


# 4 panels of 24 Gauss-Legendre nodes on [0, 1], scaled to [0, asin rho] by each call: the
# absolute error is below 1e-14 for |rho| <= 1 - 2^-52 and |u|, |v| <= 8 (1e-11 with 2 panels)
_BVN_RULE = _gauss_legendre_panels(1.0, 4)


def _check_levels(u: float, v: float) -> None:
    if math.isnan(u) or math.isnan(v):
        raise DomainError(f"levels u and v must not be nan, got u={u}, v={v}")


def bivariate_cdf(rho: float, u: float, v: float) -> float:
    """P[Z1 <= u, Z2 <= v] for a rho-correlated standard Gaussian pair.

    Computed as Phi(u)Phi(v) + int_0^rho phi_r(u,v) dr, using the identity
    dPhi_rho/drho = phi_rho, in the variable r = sin(theta):

        (1/2pi) int_0^asin(rho) exp(-((u^2 + v^2) - 2uv sin t) / (2 cos^2 t)) dt,

    with cos^2 t taken as 1 - sin^2 t.  The substitution cancels the 1/sqrt(1 - r^2)
    of phi_r, so the integrand is smooth up to |rho| = 1 and one fixed rule
    (``_BVN_RULE``) is accurate to roundoff (Drezner & Wesolowsky 1990; Genz 2004).
    The value is symmetric in (u, v) bit for bit.  The endpoints |rho| = 1 reduce
    to min/max forms.
    """
    if not -1.0 <= rho <= 1.0:
        raise DomainError("correlation must lie in [-1, 1]")
    _check_levels(u, v)
    if np.isinf(u) or np.isinf(v):
        if u == -np.inf or v == -np.inf:
            return 0.0
        if u == np.inf:
            return float(special.ndtr(v))
        return float(special.ndtr(u))
    if rho == 1.0:
        return float(special.ndtr(min(u, v)))
    if rho == -1.0:
        return float(max(0.0, special.ndtr(u) + special.ndtr(v) - 1.0))
    base = float(special.ndtr(u) * special.ndtr(v))
    if rho == 0.0:
        return base
    b = math.asin(rho)
    t, w = _BVN_RULE
    s = np.sin(b * t)
    # the exponent is at most -max(u^2, v^2) / 2, so each term past PDF_CLIP is 0 already
    u, v = _clip(u), _clip(v)
    q = ((u * u + v * v) - 2.0 * u * v * s) / (2.0 * (1.0 - s * s))
    val = b * float(w @ np.exp(-q)) / (2.0 * math.pi)
    return min(1.0, max(0.0, base + val))


def bivariate_cdf_derivs(rho: float, u: float, v: float) -> tuple[float, float, float]:
    """(d/du, d/dv, d/drho) of the bivariate cdf; needs |rho| < 1.

    At an infinite level each derivative is its limit: d/du is 0 at an
    infinite u, and d/drho is 0 at an infinite u or v.
    """
    if not -1.0 < rho < 1.0:
        raise DomainError("derivatives require |rho| < 1")
    _check_levels(u, v)
    om = math.sqrt(1.0 - rho * rho)

    def partial(a, b):  # d/da of P[Z1 <= a, Z2 <= b]
        return 0.0 if math.isinf(a) else float(std_pdf(a) * special.ndtr((b - a * rho) / om))

    dr = 0.0 if math.isinf(u) or math.isinf(v) else _phi2(rho, u, v)
    return partial(u, v), partial(v, u), dr


def sprinkle_exponent(eps: float, var: float) -> float:
    """-eps^2 / (8 var), the exponent of the Gaussian sprinkle bounds, for eps >= 0 and var >= 0.

    A Python float raises OverflowError on eps**2 past the float range; where eps^2 or 8 var
    leaves the range, the quotient is taken as (eps / sqrt(var))^2 / 8, so a huge sprinkle
    gives -inf, a bound of 0.  Inside the range it is the plain expression, bit for bit.
    """
    try:
        num = eps**2
    except OverflowError:
        num = math.inf
    den = 8.0 * var
    if num < math.inf and 0.0 < den < math.inf:
        return -num / den
    if var == 0.0:  # var underflowed to 0: any positive sprinkle is past the range
        return -math.inf if eps else -0.0
    r = eps / math.sqrt(var)
    return -(r * r) / 8.0


@dataclass(frozen=True)
class SlackReport:
    """One inequality instance: lhs <= rhs with slack = rhs - lhs."""

    lhs: float
    rhs: float
    slack: float
    passed: bool
    kappa: float | None = None


def check_2dcase_sprinkled(rho: float, u: float, v: float, eps: float) -> SlackReport:
    """Phi_rho(u,v) <= Phi(u) Phi(v+eps) + exp(-eps^2/(8 rho^2)) for rho in (0,1]."""
    if not 0.0 < rho <= 1.0:
        raise DomainError("sprinkled 2d check requires rho in (0,1]")
    if eps < 0.0:
        raise DomainError("eps must be nonnegative")
    lhs = bivariate_cdf(rho, u, v)
    rhs = float(special.ndtr(u) * special.ndtr(v + eps)) + math.exp(sprinkle_exponent(eps, rho**2))
    return SlackReport(lhs, rhs, rhs - lhs, rhs - lhs >= -SLACK_TOL)


def errorless_kappa(rho: float, u: float, v: float) -> float:
    return 2.0 + max(0.0, -max(u, v)) / math.sqrt(1.0 - rho * rho)


def check_2dcase_errorless(rho: float, u: float, v: float) -> SlackReport:
    """Phi_rho(u,v) <= Phi(u+kappa rho) Phi(v+kappa rho) for rho in [0,1)."""
    if not 0.0 <= rho < 1.0:
        raise DomainError("errorless 2d check requires rho in [0,1)")
    kappa = errorless_kappa(rho, u, v)
    lhs = bivariate_cdf(rho, u, v)
    rhs = float(special.ndtr(u + kappa * rho) * special.ndtr(v + kappa * rho))
    return SlackReport(lhs, rhs, rhs - lhs, rhs - lhs >= -SLACK_TOL, kappa=kappa)


@dataclass(frozen=True)
class NegBoundTable:
    """Tail-gap scan r(u) = P[Z>=u] - P[Z>=u(1-kappa)]^2 with diagnostics.

    exponent[i] = -log(max(r, 0)) / (kappa^2 u^2); NaN where u = 0 or r <= 0.
    """

    kappa: float
    u: np.ndarray
    log_r: np.ndarray  # NaN where r <= 0
    r: np.ndarray
    exponent: np.ndarray

    def rows(self):
        return zip(self.u, self.r, self.exponent)


def neg_bound_scan(kappa: float, u_values) -> NegBoundTable:
    """Evaluate the perfectly-correlated pair gap in log scale.

    Everything is computed through log_ndtr so the scan stays accurate where
    the raw tails underflow double precision (u around 40).
    """
    if not 0.0 < kappa < 1.0:
        raise DomainError("kappa must lie in (0,1)")
    u = np.asarray(u_values, dtype=float)
    if np.any(u < 0) or np.any(np.diff(u) <= 0):
        raise DomainError("u_values must be nonnegative and increasing")
    a = special.log_ndtr(-u)
    b2 = 2.0 * special.log_ndtr(-u * (1.0 - kappa))
    log_r = np.full_like(u, np.nan)
    pos = b2 < a
    log_r[pos] = a[pos] + np.log1p(-np.exp(b2[pos] - a[pos]))
    r = np.where(pos, np.exp(log_r), np.exp(a) - np.exp(b2))
    exponent = np.full_like(u, np.nan)
    ok = pos & (u > 0)
    exponent[ok] = -log_r[ok] / (kappa**2 * u[ok] ** 2)
    return NegBoundTable(kappa, u, log_r, r, exponent)


def fit_limiting_exponent(table: NegBoundTable) -> float:
    """Extrapolate the scan's diagnostic exponent to u -> infinity.

    The finite-u exponent carries a log(sqrt(2 pi) u)/u^2 correction from the
    Gaussian tail asymptotic; fitting it out on the larger half of the finite
    rows (at least four) yields the limiting constant.
    """
    ok = np.isfinite(table.exponent) & (table.u > 0)
    u, c = table.u[ok], table.exponent[ok]
    if len(u) < 4:
        raise DomainError("too few finite scan rows to extrapolate")
    k = max(4, len(u) // 2)
    u, c = u[-k:], c[-k:]
    g = np.log(SQRT_2PI * u) / u**2
    design = np.vstack([np.ones_like(g), g]).T
    coef, *_ = np.linalg.lstsq(design, c, rcond=None)
    return float(coef[0])


def isoperimetric_profile(p: float, t: float) -> float:
    """Phi(Phi^{-1}(p) + t): minimal measure growth under an epsilon-enlargement."""
    if not 0.0 < p < 1.0:
        raise DomainError("profile requires p in (0,1)")
    if t < 0.0:
        raise DomainError("profile requires t >= 0")
    return float(special.ndtr(special.ndtri(p) + t))
