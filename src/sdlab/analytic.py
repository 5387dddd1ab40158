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
from scipy import integrate, special

from .errors import DomainError

SQRT_2PI = math.sqrt(2.0 * math.pi)
# ceiling for the decay constant in any Gaussian-error sprinkled bound: 1/(3-2*sqrt(2))
NEG_BOUND_CEIL = 1.0 / (3.0 - 2.0 * math.sqrt(2.0))


def std_cdf(u):
    return special.ndtr(u)


def std_pdf(u):
    return np.exp(-np.square(u) / 2.0) / SQRT_2PI


def std_quantile(p):
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("quantile requires p in (0,1)")
    out = special.ndtri(p)
    return float(out) if out.ndim == 0 else out


def _phi2(rho: float, u: float, v: float) -> float:
    om = 1.0 - rho * rho
    return math.exp(-(u * u - 2.0 * rho * u * v + v * v) / (2.0 * om)) / (2.0 * math.pi * math.sqrt(om))


def _check_levels(u: float, v: float) -> None:
    if math.isnan(u) or math.isnan(v):
        raise DomainError(f"levels u and v must not be nan, got u={u}, v={v}")


def bivariate_cdf(rho: float, u: float, v: float) -> float:
    """P[Z1 <= u, Z2 <= v] for a rho-correlated standard Gaussian pair.

    Computed as Phi(u)Phi(v) + int_0^rho phi_r(u,v) dr, using the identity
    dPhi_rho/drho = phi_rho; the endpoints |rho| = 1 reduce to min/max forms.
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
    val, _ = integrate.quad(_phi2, 0.0, rho, args=(u, v), epsabs=1e-14, epsrel=1e-13, limit=200)
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


@dataclass(frozen=True)
class SlackReport:
    """One inequality instance: lhs <= rhs with slack = rhs - lhs."""

    lhs: float
    rhs: float
    slack: float
    passed: bool
    kappa: float | None = None


def check_2dcase_sprinkled(rho: float, u: float, v: float, eps: float, tol: float = 1e-12) -> SlackReport:
    """Phi_rho(u,v) <= Phi(u) Phi(v+eps) + exp(-eps^2/(8 rho^2)) for rho in (0,1]."""
    if not 0.0 < rho <= 1.0:
        raise DomainError("sprinkled 2d check requires rho in (0,1]")
    if eps < 0.0:
        raise DomainError("eps must be nonnegative")
    lhs = bivariate_cdf(rho, u, v)
    rhs = float(special.ndtr(u) * special.ndtr(v + eps)) + math.exp(-(eps**2) / (8.0 * rho**2))
    return SlackReport(lhs, rhs, rhs - lhs, rhs - lhs >= -tol)


def errorless_kappa(rho: float, u: float, v: float) -> float:
    return 2.0 + max(0.0, -max(u, v)) / math.sqrt(1.0 - rho * rho)


def check_2dcase_errorless(rho: float, u: float, v: float, tol: float = 1e-12) -> SlackReport:
    """Phi_rho(u,v) <= Phi(u+kappa rho) Phi(v+kappa rho) for rho in [0,1)."""
    if not 0.0 <= rho < 1.0:
        raise DomainError("errorless 2d check requires rho in [0,1)")
    kappa = errorless_kappa(rho, u, v)
    lhs = bivariate_cdf(rho, u, v)
    rhs = float(special.ndtr(u + kappa * rho) * special.ndtr(v + kappa * rho))
    return SlackReport(lhs, rhs, rhs - lhs, rhs - lhs >= -tol, kappa=kappa)


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
    u = np.asarray(list(u_values), dtype=float)
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
