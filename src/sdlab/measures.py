"""Correlation quantifiers: sup cross-covariance, capacity, maximum correlation.

Capacity Cap(I) is the inverse of the minimal quadratic energy mu^T K mu over
probability vectors mu on I, solved exactly by an active-set method that the
Frank-Wolfe duality gap certifies.  The maximum correlation coefficient is
the top canonical correlation of the two coordinate blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .errors import InputError, NumericalError
from .kernels import _exponent, _symmetrized, repair_psd

CAP_INFINITE_ENERGY = 1e-14
CHAIN_TOL = 1e-9  # roundoff allowance of each bound_chain_report check


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


@dataclass
class CapacityResult:
    value: float  # Cap(I), may be math.inf
    minimizer: np.ndarray  # probability vector on I
    energy: float  # mu^T K mu at the minimizer
    gap: float  # Frank-Wolfe duality gap at termination
    iterations: int  # active-set steps, one KKT solve each
    converged: bool
    infinite: bool = False


def _affine_min(A: np.ndarray, L: np.ndarray | None = None) -> np.ndarray:
    """argmin z^T A z subject to sum(z) = 1: A^-1 1 normalized when A has a Cholesky factor (L), else
    the least-squares solution of the (consistent) KKT system [[A, 1], [1^T, 0]] (z, -energy) = (0, 1)."""
    k = len(A)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            y = cho_solve((np.linalg.cholesky(A) if L is None else L, True), np.ones(k), check_finite=False)
            if 0 < y.sum() < math.inf:
                return y / y.sum()
    except np.linalg.LinAlgError:
        pass
    M = np.block([[A, np.ones((k, 1))], [np.ones((1, k)), 0.0]])
    return np.linalg.lstsq(M, np.eye(k + 1)[k])[0][:k]


def capacity(K: np.ndarray, I=None, tol: float = 1e-10) -> CapacityResult:
    """Minimize mu^T K mu over the simplex on I; Cap = 1/energy.

    Exact active-set solve (Wolfe's minimum-norm point; Lawson & Hanson ch. 23) from the
    barycentre of I.  Each step (``iterations`` counts them) moves toward the affine minimizer
    on the support as far as the simplex allows, dropping coordinates that reach 0; after a
    full step the coordinate of least gradient (A mu)_i joins.  It stops when the duality gap
    2(mu^T A mu - min_i (A mu)_i) is at most tol * max(energy, 1e-300), or at an energy below
    1e-14 * max(1, largest variance): zero up to roundoff, infinite capacity.  A full step that
    fails to lower the energy (roundoff only) ends it with ``converged=False``.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tol must be finite and positive, got {tol}")
    K, idx = _checked(K, range(len(K)) if I is None else I)
    A = K[np.ix_(idx, idx)]
    A = _symmetrized(A)
    try:  # the PSD gate passes a matrix with a Cholesky factor; the factor serves the first solve
        L = np.linalg.cholesky(np.ldexp(A, -_exponent(np.diag(A))))
    except np.linalg.LinAlgError:
        L, A = None, repair_psd(A)[0]
    m, dmax = len(A), float(np.diag(A).max())
    floor, e = CAP_INFINITE_ENERGY * max(1.0, dmax), _exponent(np.diag(A))
    A = np.ldexp(A, -e)  # exact: the largest variance moves into [1/2, 1); L, if set, factors this A
    mu = np.full(m, 1.0 / m)
    support = np.arange(m)
    steps, full, last = 0, False, math.inf
    while True:
        Amu = A @ mu
        energy = math.ldexp(float(mu @ Amu), e)
        gap = max(0.0, 2.0 * (energy - math.ldexp(float(Amu.min()), e)))
        infinite = energy < floor
        if infinite or gap <= tol * max(energy, 1e-300):
            return CapacityResult(math.inf if infinite else 1.0 / energy, mu, energy, gap, steps, True, infinite)
        if full:
            add = int(np.argmin(Amu))
            if not energy < last or mu[add] > 0:  # no descent left above roundoff
                return CapacityResult(1.0 / energy, mu, energy, gap, steps, False)
            last, support = energy, np.append(support, add)
        z = _affine_min(A, L) if steps == 0 else _affine_min(A[np.ix_(support, support)])
        steps += 1
        cur = mu[support]
        full = bool((z > 0).all())
        if not full:
            neg = np.flatnonzero(z <= 0)
            d = cur[neg] - z[neg]  # > 0 unless cur = z = 0 there: a blocked coordinate
            ratio = np.divide(cur[neg], d, out=np.zeros(len(neg)), where=d > 0)
            z = np.clip(cur + ratio.min() * (z - cur), 0.0, None)
            z[neg[ratio <= ratio.min()]] = 0.0
        mu = np.zeros(m)
        mu[support] = z / z.sum()
        support = support[z > 0]


@dataclass
class MaxCorrResult:
    rho: float  # in [0, 1]
    alpha: np.ndarray  # direction on I1, unit variance
    beta: np.ndarray  # direction on I2, unit variance
    ridge: float  # regularization actually applied


def _inv_sqrt(block: np.ndarray, ridge) -> tuple[np.ndarray, float]:
    w, v = np.linalg.eigh(block)
    wmax = max(float(w[-1]), 0.0)
    singular = wmax <= 0 or w[0] <= 1e-12 * wmax
    if ridge is None:
        ridge = 1e-10 * float(np.trace(block)) if singular else 0.0
    elif ridge == 0.0 and singular:
        raise NumericalError(
            "covariance block numerically singular; pass ridge (about 1e-10 * trace) to regularize"
        )
    w = w + ridge
    return (v / np.sqrt(w)) @ v.T, float(ridge)


def max_corr(K: np.ndarray, I1, I2, ridge: float | None = None) -> MaxCorrResult:
    """Largest canonical correlation between the two coordinate blocks.

    ridge=None applies 1e-10 * trace only when a block is near singular;
    an explicit ridge=0.0 on a singular block raises instead.  An explicit
    ridge must be finite and >= 0.  A block whose variances are all zero
    gives rho = 0 with zero directions and no ridge.  The matrix on I1 and I2
    passes the PSD gate ``repair_psd``: an indefinite one raises ModelError.
    """
    if ridge is not None and not (math.isfinite(ridge) and ridge >= 0):
        raise InputError(f"ridge must be finite and >= 0, got {ridge}")
    K, i, j = _checked(K, I1, I2)
    A = K[np.ix_(i, i)]
    B = K[np.ix_(j, j)]
    C = K[np.ix_(i, j)]
    constant = not (A.diagonal().any() and B.diagonal().any())
    if constant and C.any():  # a block with zero variances is a.s. constant; PSD forces C = 0
        raise InputError("a zero-variance block has nonzero cross covariance: not a covariance")
    repair_psd(K[np.ix_(np.r_[i, j], np.r_[i, j])])  # the PSD gate: ModelError if indefinite
    if constant:
        return MaxCorrResult(0.0, np.zeros(len(i)), np.zeros(len(j)), 0.0)
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


def bound_chain_report(K: np.ndarray, I1, I2, gff_model: bool = False) -> ChainReport:
    """Evaluate 1 >= rho >= max normalized |K| >= cross/global, plus capacity bounds."""
    K, i, j = _checked(K, I1, I2)
    mc = max_corr(K, i, j)
    diag = np.diag(K)
    norm = np.sqrt(np.outer(diag[i], diag[j]))
    block = K[np.ix_(i, j)]
    # a zero-variance coordinate is a.s. constant: its normalized entries are 0
    max_norm_entry = float(np.abs(np.divide(block, norm, out=np.zeros_like(block), where=norm > 0)).max())
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
        ChainCheck("rho<=1", mc.rho, 1.0, 1.0 - mc.rho, mc.rho <= 1.0 + CHAIN_TOL),
        ChainCheck("normalized<=rho", max_norm_entry, mc.rho, mc.rho - max_norm_entry,
                   max_norm_entry <= mc.rho + CHAIN_TOL),
        ChainCheck("ratio<=normalized", ratio, max_norm_entry, max_norm_entry - ratio,
                   ratio <= max_norm_entry + CHAIN_TOL),
        ChainCheck("caplower<=rho", lower, mc.rho, mc.rho - lower,
                   lower <= mc.rho + CHAIN_TOL + gap_slack),
    ]
    if upper is not None:
        checks.append(ChainCheck("rho<=capupper", mc.rho, upper, upper - mc.rho,
                                 mc.rho <= upper + CHAIN_TOL + gap_slack))
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
