"""Correlation quantifiers: sup cross-covariance, capacity, maximum correlation.

Capacity Cap(I) is the inverse of the minimal quadratic energy mu^T K mu over
probability vectors mu on I, solved by Frank-Wolfe with away steps so the
duality gap doubles as a convergence certificate.  The maximum correlation
coefficient is the top canonical correlation of the two coordinate blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .kernels import repair_psd

CAP_INFINITE_ENERGY = 1e-14
CAP_MAX_ITER = 200_000


def _checked(K, *index_sets):
    """K as a finite square float matrix, then each index set as an index array into it."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.size == 0 or not np.isfinite(K).all():
        raise InputError(f"covariance matrix must be finite, square and nonempty, got shape {K.shape}")
    idx = [np.asarray(list(s), dtype=np.intp) for s in index_sets]
    for i in idx:  # a negative index would silently wrap around
        if i.size == 0 or i.min() < 0 or i.max() >= len(K):
            raise InputError(f"index set must be nonempty and lie in [0, {len(K)}), got {i.tolist()}")
    return (K, *idx)


def sup_cross_cov(K: np.ndarray, I1, I2) -> float:
    """max over (i,j) in I1 x I2 of |K(i,j)|."""
    K, i, j = _checked(K, I1, I2)
    return float(np.abs(K[np.ix_(i, j)]).max())


def cross_cov_range(K: np.ndarray, I1, I2) -> tuple[float, float]:
    K, i, j = _checked(K, I1, I2)
    block = K[np.ix_(i, j)]
    return float(block.min()), float(block.max())


@dataclass
class CapacityResult:
    value: float  # Cap(I), may be math.inf
    minimizer: np.ndarray  # probability vector on I
    energy: float  # mu^T K mu at the minimizer
    gap: float  # Frank-Wolfe duality gap at termination
    iterations: int
    converged: bool
    infinite: bool = False


def capacity(K: np.ndarray, I=None, tol: float = 1e-10) -> CapacityResult:
    """Minimize mu^T K mu over the simplex on I; Cap = 1/energy.

    Frank-Wolfe with away steps and exact line search (the objective is
    quadratic).  Terminates when the duality gap drops below
    tol * max(energy, 1e-300); an energy below 1e-14 is reported as infinite
    capacity rather than an error.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tol must be finite and positive, got {tol}")
    K, idx = _checked(K, range(len(K)) if I is None else I)
    A = K[np.ix_(idx, idx)]
    A, _ = repair_psd(0.5 * (A + A.T))
    m = A.shape[0]
    if m == 1:
        e = float(A[0, 0])
        inf_flag = e < CAP_INFINITE_ENERGY
        return CapacityResult(math.inf if inf_flag else 1.0 / e, np.array([1.0]), e, 0.0, 0, True, inf_flag)

    start = int(np.argmin(np.diag(A)))
    mu = np.zeros(m)
    mu[start] = 1.0
    Amu = A[:, start].copy()
    for it in range(1, CAP_MAX_ITER + 1):
        grad = 2.0 * Amu
        energy = float(mu @ Amu)
        s = int(np.argmin(grad))
        fw_gap = float(grad @ mu - grad[s])
        if fw_gap <= tol * max(energy, 1e-300) or energy < CAP_INFINITE_ENERGY:
            inf_flag = energy < CAP_INFINITE_ENERGY
            return CapacityResult(
                math.inf if inf_flag else 1.0 / energy, mu, energy, fw_gap, it - 1, True, inf_flag
            )
        support = np.nonzero(mu > 0)[0]
        a = int(support[np.argmax(grad[support])])
        away_gap = float(grad[a] - grad @ mu)
        if fw_gap >= away_gap:
            direction = -mu.copy()
            direction[s] += 1.0
            Ad = A[:, s] - Amu
            gamma_max = 1.0
        else:
            direction = mu.copy()
            direction[a] -= 1.0
            Ad = Amu - A[:, a]
            gamma_max = mu[a] / (1.0 - mu[a]) if mu[a] < 1.0 else 1.0
        denom = float(direction @ Ad)
        slope = float(grad @ direction)
        if denom <= 0:
            gamma = gamma_max
        else:
            gamma = min(gamma_max, max(0.0, -slope / (2.0 * denom)))
        if gamma <= 0:
            return CapacityResult(1.0 / energy, mu, energy, fw_gap, it, False)
        mu = mu + gamma * direction
        np.clip(mu, 0.0, None, out=mu)
        mu /= mu.sum()
        Amu = Amu + gamma * Ad
        if it % 256 == 0:  # refresh accumulated roundoff
            Amu = A @ mu
    energy = float(mu @ Amu)
    grad = 2.0 * Amu
    fw_gap = float(grad @ mu - grad.min())
    return CapacityResult(1.0 / energy if energy > CAP_INFINITE_ENERGY else math.inf,
                          mu, energy, fw_gap, CAP_MAX_ITER, False, energy < CAP_INFINITE_ENERGY)


@dataclass
class MaxCorrResult:
    rho: float  # in [0, 1]
    alpha: np.ndarray  # direction on I1, unit variance
    beta: np.ndarray  # direction on I2, unit variance
    ridge: float  # regularization actually applied


def _inv_sqrt(block: np.ndarray, ridge) -> tuple[np.ndarray, float]:
    w, v = np.linalg.eigh(block)
    wmax = max(float(w[-1]), 0.0)
    if ridge is None:
        if wmax <= 0 or w[0] <= 1e-12 * wmax:
            ridge = 1e-10 * float(np.trace(block))
        else:
            ridge = 0.0
    elif ridge == 0.0 and (wmax <= 0 or w[0] <= 1e-12 * wmax):
        raise NumericalError(
            "covariance block numerically singular; pass ridge (about 1e-10 * trace) to regularize"
        )
    w = w + ridge
    return (v / np.sqrt(w)) @ v.T, float(ridge)


def max_corr(K: np.ndarray, I1, I2, ridge: float | None = None) -> MaxCorrResult:
    """Largest canonical correlation between the two coordinate blocks.

    ridge=None applies 1e-10 * trace only when a block is near singular;
    an explicit ridge=0.0 on a singular block raises instead.  An explicit
    ridge must be finite and >= 0.
    """
    if ridge is not None and not (math.isfinite(ridge) and ridge >= 0):
        raise InputError(f"ridge must be finite and >= 0, got {ridge}")
    K, i, j = _checked(K, I1, I2)
    A = K[np.ix_(i, i)]
    B = K[np.ix_(j, j)]
    C = K[np.ix_(i, j)]
    Ai, ra = _inv_sqrt(A, ridge)
    Bi, rb = _inv_sqrt(B, ridge)
    W = Ai @ C @ Bi
    u, s, vt = np.linalg.svd(W)
    rho = float(min(1.0, max(0.0, s[0] if s.size else 0.0)))
    alpha = Ai @ u[:, 0]
    beta = Bi @ vt[0]
    return MaxCorrResult(rho, alpha, beta, max(ra, rb))


@dataclass
class ChainCheck:
    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool


@dataclass
class ChainReport:
    """The ordered correlation-quantifier chain plus capacity-based bounds."""

    rho: float
    max_normalized_entry: float
    cross_over_global: float
    cap1: CapacityResult
    cap2: CapacityResult
    lower_bound: float  # sqrt(Cap1 Cap2) * min K(i,j)
    upper_bound: float | None  # sqrt(Cap1 Cap2) * max |K(i,j)|, asserted for gff only
    checks: list[ChainCheck] = field(default_factory=list)
    passed: bool = True


def bound_chain_report(K: np.ndarray, I1, I2, gff_model: bool = False, tol: float = 1e-9) -> ChainReport:
    """Evaluate 1 >= rho >= max normalized |K| >= cross/global, plus capacity bounds."""
    K, i, j = _checked(K, I1, I2)
    mc = max_corr(K, i, j)
    diag = np.diag(K)
    norm = np.sqrt(np.outer(diag[i], diag[j]))
    block = K[np.ix_(i, j)]
    max_norm_entry = float(np.abs(block / norm).max())
    cross = float(np.abs(block).max())
    global_max = float(np.abs(K).max())
    ratio = cross / global_max if global_max > 0 else 0.0
    c1 = capacity(K, i)
    c2 = capacity(K, j)
    min_entry = float(block.min())
    caps = math.sqrt(c1.value * c2.value) if not (c1.infinite or c2.infinite) else math.inf
    lower = caps * min_entry if np.isfinite(caps) else (math.inf if min_entry > 0 else -math.inf)
    upper = caps * cross if gff_model and np.isfinite(caps) else None
    gap_slack = 2.0 * (c1.gap + c2.gap)
    checks = [
        ChainCheck("rho<=1", mc.rho, 1.0, 1.0 - mc.rho, mc.rho <= 1.0 + tol),
        ChainCheck("normalized<=rho", max_norm_entry, mc.rho, mc.rho - max_norm_entry,
                   max_norm_entry <= mc.rho + tol),
        ChainCheck("ratio<=normalized", ratio, max_norm_entry, max_norm_entry - ratio,
                   ratio <= max_norm_entry + tol),
        ChainCheck("caplower<=rho", lower, mc.rho, mc.rho - lower,
                   lower <= mc.rho + tol + gap_slack),
    ]
    if upper is not None:
        checks.append(ChainCheck("rho<=capupper", mc.rho, upper, upper - mc.rho,
                                 mc.rho <= upper + tol + gap_slack))
    return ChainReport(
        rho=mc.rho,
        max_normalized_entry=max_norm_entry,
        cross_over_global=ratio,
        cap1=c1,
        cap2=c2,
        lower_bound=lower,
        upper_bound=upper,
        checks=checks,
        passed=all(c.passed for c in checks),
    )
