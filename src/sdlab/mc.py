"""Monte Carlo verification engine for the decoupling inequality suite.

Every verifier reduces to threshold statistics: for an increasing event A and
a field X, {X + u in A} iff T_A(X) <= u, so one threshold array per event
serves every sprinkling level.  This makes sprinkled indicators exactly
monotone in the sprinkling parameter replicate by replicate.

Difference estimators are paired (`_gap`): replicates are grouped in twos (a, b) and

    d = (J(a) + J(b))/2 - (S1(a) S2(b) + S1(b) S2(a))/2

is an unbiased per-pair statistic for P[A1 and A2] - P[X+e1 in A1] P[X+e2 in A2]
whose empirical standard deviation gives the standard error.  All reductions
run in fixed replicate order, so reports are bit-identical for any worker
count.
"""

from __future__ import annotations

import functools
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import analytic, measures
from .errors import InputError, ParameterError, PreconditionError
from .events import EventSpec, compile_event
from .sampler import DensePlan, Grid, SamplerPlan, plan_decomposed

VERDICT_PASS = "pass"
VERDICT_NOISE = "pass-within-noise"
VERDICT_FAIL = "fail"
VERDICT_NA = "not-applicable"


def classify(slack: float, se: float) -> str:
    """fail only when slack < -3 combined standard errors."""
    if slack >= 0:
        return VERDICT_PASS
    if slack >= -3.0 * se:
        return VERDICT_NOISE
    return VERDICT_FAIL


_WORST = {VERDICT_PASS: 0, VERDICT_NOISE: 1, VERDICT_NA: 2, VERDICT_FAIL: 3}


@dataclass(frozen=True)
class TermEstimate:
    value: float
    se: float
    n: int


@dataclass(frozen=True)
class SideCheck:
    name: str
    estimate: float
    se: float
    bound: float
    slack: float
    verdict: str


@dataclass
class InequalityReport:
    theorem_id: str
    terms: dict[str, TermEstimate]
    sides: list[SideCheck]
    constants: dict[str, float]
    seed: int
    n: int
    wall_time_s: float
    verdict: str = VERDICT_PASS
    slack: float = float("nan")
    se: float = float("nan")
    notes: tuple[str, ...] = ()

    def finalize(self) -> "InequalityReport":
        if self.sides:
            worst = max(self.sides, key=lambda s: (_WORST[s.verdict], -s.slack))
            self.slack, self.se = worst.slack, worst.se
            if self.verdict != VERDICT_NA:
                self.verdict = worst.verdict
        return self

    def to_dict(self) -> dict:
        def num(x):
            x = float(x)
            return x if np.isfinite(x) else None  # strict JSON: no NaN/Inf tokens

        return {
            "theorem_id": self.theorem_id,
            "terms": {k: {"value": v.value, "se": v.se, "n": v.n} for k, v in self.terms.items()},
            "sides": [
                {"name": s.name, "estimate": s.estimate, "se": s.se, "bound": num(s.bound),
                 "slack": num(s.slack), "verdict": s.verdict}
                for s in self.sides
            ],
            "constants": {k: num(v) for k, v in self.constants.items()},
            "seed": int(self.seed),
            "n": int(self.n),
            "slack": num(self.slack),
            "se": num(self.se),
            "verdict": self.verdict,
            "notes": list(self.notes),
            "meta": {"wall_time_s": float(self.wall_time_s)},
        }


# ---------------------------------------------------------------------------
# threshold engine with a small cross-call cache

_CACHE: OrderedDict[tuple, np.ndarray] = OrderedDict()
_CACHE_LOCK = threading.Lock()
_CACHE_MAX = 8
CHUNK = 256


def _check_replicates(n) -> None:
    """Every estimate carries a standard error, so it needs two replicates at least."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError(f"n must be an integer >= 2, got {n!r}")


def event_thresholds(plan: SamplerPlan, specs, n: int, workers: int = 1) -> np.ndarray:
    """Threshold matrix of shape (len(specs), n) over replicates 0..n-1.

    The matrix is read-only: the cache hands the same array to every caller.
    """
    _check_replicates(n)
    specs = tuple(specs)
    key = (plan.fingerprint, specs, int(n))
    with _CACHE_LOCK:
        if key in _CACHE:
            _CACHE.move_to_end(key)
            return _CACHE[key]
    compiled = [compile_event(s, plan.index) for s in specs]
    out = np.empty((len(specs), n))
    blocks = [(a, min(a + CHUNK, n)) for a in range(0, n, CHUNK)]

    def work(block):
        a, b = block
        draws = plan.draw_batch(range(a, b))
        for k, ce in enumerate(compiled):
            out[k, a:b] = ce.thresholds_batch(draws)

    if workers <= 1:
        for blk in blocks:
            work(blk)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, blocks))
    out.flags.writeable = False
    with _CACHE_LOCK:
        _CACHE[key] = out
        while len(_CACHE) > _CACHE_MAX:
            _CACHE.popitem(last=False)
    return out


def _mean_se(x: np.ndarray) -> TermEstimate:
    n = len(x)
    sd = float(np.std(x, ddof=1)) if n > 1 else 0.0
    return TermEstimate(float(np.mean(x)), sd / np.sqrt(n), n)


def _gap(t1: np.ndarray, t2: np.ndarray, e1: float, e2: float) -> tuple[TermEstimate, np.ndarray, ...]:
    """Paired estimate of the decoupling gap P[A1 and A2] - P[X+e1 in A1] P[X+e2 in A2].

    Returns the estimate with the joint and sprinkled indicators it was
    computed from.
    """
    joint = ((t1 <= 0) & (t2 <= 0)).astype(float)
    s1, s2 = (t1 <= e1).astype(float), (t2 <= e2).astype(float)
    m = (len(joint) // 2) * 2
    a, b = slice(0, m, 2), slice(1, m, 2)
    d = 0.5 * (joint[a] + joint[b]) - 0.5 * (s1[a] * s2[b] + s1[b] * s2[a])
    return _mean_se(d), joint, s1, s2


# ---------------------------------------------------------------------------
# verifier spine: a verifier is wrapped in @_timed, which stamps wall_time_s.
# It builds classified sides with _upper or _lower (_side for any other slack),
# pass-or-fail sides with _allowance, and returns _report(...).


def _timed(verify):
    """Stamp the report's wall time over the whole verifier call."""
    @functools.wraps(verify)
    def run(*args, **kwargs):
        t0 = time.perf_counter()
        rep = verify(*args, **kwargs)
        rep.wall_time_s = time.perf_counter() - t0
        return rep
    return run


def _report(theorem_id, terms, sides, constants, seed, n, verdict=VERDICT_PASS, notes=()):
    """The one place a report is built; not-applicable reports keep their verdict."""
    return InequalityReport(theorem_id, terms, sides, constants, seed, n, 0.0,
                            verdict=verdict, notes=tuple(notes)).finalize()


def _side(name, est, se, bound, slack) -> SideCheck:
    return SideCheck(name, est, se, bound, slack, classify(slack, se))


def _upper(name, est: float, se: float, bound: float) -> SideCheck:
    """est <= bound, with slack bound - est."""
    return _side(name, est, se, bound, bound - est)


def _lower(name, est: float, se: float, bound: float) -> SideCheck:
    """est >= bound, with slack est - bound."""
    return _side(name, est, se, bound, est - bound)


def _allowance(name, diff: float, se: float, allowance: float) -> SideCheck:
    """|difference| <= allowance: pass or fail only, the noise is already in the allowance."""
    slack = allowance - diff
    return SideCheck(name, diff, se, allowance, slack, VERDICT_PASS if slack >= 0 else VERDICT_FAIL)


def _cross_range(plan, A1: EventSpec, A2: EventSpec) -> tuple[float, float, float]:
    """Min, max and max-abs of the cross covariance between the two supports."""
    block = plan.cov_block(A1.support, A2.support)
    kmin, kmax = float(block.min()), float(block.max())
    return kmin, kmax, max(abs(kmin), abs(kmax))


def _mixed_sign(theorem_id, plan, n, kmin, kmax, note):
    """A not-applicable report when the cross covariance takes both signs, else None."""
    if kmin < -1e-12 and kmax > 1e-12:
        return _report(theorem_id, {}, [], {"min_cross": kmin, "max_cross": kmax},
                       plan.base_seed, n, VERDICT_NA, (note,))


def _cov(a: np.ndarray, b: np.ndarray) -> TermEstimate:
    """Unbiased sample covariance of paired replicates, with its SE."""
    n = len(a)
    return _mean_se((a - a.mean()) * (b - b.mean()) * (n / (n - 1)))


# ---------------------------------------------------------------------------
# verifiers


@_timed
def verify_sprinkled(plan: SamplerPlan, A1: EventSpec, A2: EventSpec, eps1: float, eps2: float, n: int,
                     constant_mode: str = "proof-36", workers: int = 1) -> InequalityReport:
    """Two-sided sprinkled decoupling at error c * max|K_cross| / (eps1 eps2).

    constant_mode "proof-36" uses the explicit constant 36 on both sides;
    "positive-1" requires cross-covariances >= 0 and then uses c=1 for the
    upward side and c=0 for the downward side.
    """
    if eps1 <= 0 or eps2 <= 0:
        raise ParameterError("sprinkling parameters must be positive")
    kmin, _, kappa = _cross_range(plan, A1, A2)
    notes = []
    if constant_mode == "proof-36":
        c_up, c_down = 36.0, 36.0
    elif constant_mode == "positive-1":
        if kmin < -1e-12:
            return _report("thm1.1", {}, [], {"kappa": kappa, "min_cross": kmin}, plan.base_seed, n,
                           VERDICT_NA, ("cross-covariance sign check failed; c=1 branch inapplicable",))
        c_up, c_down = 1.0, 0.0
    else:
        raise ParameterError(f"unknown constant_mode {constant_mode!r}")
    if set(A1.support) & set(A2.support) and eps1 != eps2:
        warnings.warn("supports overlap; inhomogeneous bound applies after restricting to disjoint blocks")
        notes.append("overlapping supports")
    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    bound = c_up * kappa / (eps1 * eps2)
    bound_dn = c_down * kappa / (eps1 * eps2)
    lhs_up, joint, up1, up2 = _gap(t1, t2, eps1, eps2)
    d_dn, _, dn1, dn2 = _gap(t1, t2, -eps1, -eps2)  # estimates P12 - P[-e1]P[-e2]
    sides = [
        _upper("sprinkle-up", lhs_up.value, lhs_up.se, bound),
        _upper("sprinkle-down", -d_dn.value, d_dn.se, bound_dn),
    ]
    terms = {
        "joint": _mean_se(joint),
        "p1_up": _mean_se(up1),
        "p2_up": _mean_se(up2),
        "p1_down": _mean_se(dn1),
        "p2_down": _mean_se(dn2),
    }
    consts = {"kappa": kappa, "min_cross": kmin, "c_up": c_up, "c_down": c_down,
              "eps1": eps1, "eps2": eps2, "bound_up": bound, "bound_down": bound_dn}
    return _report("thm1.1", terms, sides, consts, plan.base_seed, n, notes=notes)


@_timed
def verify_threshold_cov(plan, A1, A2, n: int, workers: int = 1) -> InequalityReport:
    """Cov[T_A1, T_A2] between min and max cross-covariance (sign-definite case)."""
    kmin, kmax, kabs = _cross_range(plan, A1, A2)
    if na := _mixed_sign("prop2.2", plan, n, kmin, kmax, "mixed-sign cross covariance: hypothesis unmet"):
        return na
    lo, hi = (kmin, kabs) if kmin >= -1e-12 else (-kabs, kmax)
    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    est = _cov(t1, t2)
    sides = [_lower("cov>=lower", est.value, est.se, lo), _upper("cov<=upper", est.value, est.se, hi)]
    return _report("prop2.2", {"cov": est}, sides,
                   {"lower": lo, "upper": hi, "min_cross": kmin, "max_cross": kmax}, plan.base_seed, n)


HOEFFDING_BINS = 256  # histogram bins per axis of the integration box
HOEFFDING_REACH = (8.0, 16.0, 32.0, 64.0)  # box half-widths tried, in threshold sds
HOEFFDING_BUDGET = 0.02  # largest truncation budget a box may leave


def _tail_bound_fn(level: float, size: int, sigma: float):
    def m(u):
        u = np.asarray(u, dtype=float)
        if sigma == 0.0:  # every support site has zero variance: the threshold is constant, no tail
            return np.zeros_like(u)
        z = np.abs(u - level) / sigma
        return np.minimum(0.5, size * special.ndtr(-z))
    return m


def _sqrt_integral(fn, lo: float, hi: float, npts: int = 2001) -> float:
    grid = np.linspace(lo, hi, npts)
    return float(np.trapezoid(np.sqrt(fn(grid)), grid))


@_timed
def verify_hoeffding(plan, A1, A2, n: int, workers: int = 1) -> InequalityReport:
    """Cov[T1,T2] against the double integral of the joint-cdf defect.

    The integral is taken from the empirical cdfs over the box level +- k sd
    of each threshold, at HOEFFDING_BINS bins per axis.  The contribution
    outside the box is bounded through the Gaussian tails of the 1-Lipschitz
    thresholds and reported as a truncation budget; k is the first of
    HOEFFDING_REACH whose budget is at most HOEFFDING_BUDGET.  At k = 64 the
    box covers the 42-sd reach of both tails, so its budget is 0.
    """
    sig1 = float(np.sqrt(np.diag(plan.cov_block(A1.support, A1.support)).max()))
    sig2 = float(np.sqrt(np.diag(plan.cov_block(A2.support, A2.support)).max()))
    m1 = _tail_bound_fn(A1.level, len(A1.support), sig1)
    m2 = _tail_bound_fn(A2.level, len(A2.support), sig2)
    lo1, hi1 = A1.level - 42.0 * sig1, A1.level + 42.0 * sig1
    lo2, hi2 = A2.level - 42.0 * sig2, A2.level + 42.0 * sig2
    full1, full2 = _sqrt_integral(m1, lo1, hi1), _sqrt_integral(m2, lo2, hi2)
    for k in HOEFFDING_REACH:
        u_lo, u_hi = A1.level - k * sig1, A1.level + k * sig1
        v_lo, v_hi = A2.level - k * sig2, A2.level + k * sig2
        budget = (  # tail mass outside the box, over the 42-sd reach of each threshold
            _sqrt_integral(m1, min(u_lo, lo1), u_lo) * full2
            + _sqrt_integral(m1, u_hi, max(u_hi, hi1)) * full2
            + _sqrt_integral(m2, min(v_lo, lo2), v_lo) * full1
            + _sqrt_integral(m2, v_hi, max(v_hi, hi2)) * full1
        )
        if budget <= HOEFFDING_BUDGET:
            break

    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    cov_est = _cov(t1, t2)

    def box_integral(bins: int) -> float:
        mu = u_lo + (np.arange(bins) + 0.5) * (u_hi - u_lo) / bins
        mv = v_lo + (np.arange(bins) + 0.5) * (v_hi - v_lo) / bins
        eu = np.concatenate(([-np.inf], mu, [np.inf]))
        ev = np.concatenate(([-np.inf], mv, [np.inf]))
        counts, _, _ = np.histogram2d(t1, t2, bins=(eu, ev))
        F12 = counts.cumsum(axis=0).cumsum(axis=1)[:-1, :-1] / n
        F1 = np.searchsorted(np.sort(t1), mu, side="right") / n
        F2 = np.searchsorted(np.sort(t2), mv, side="right") / n
        integrand = F12 - np.outer(F1, F2)
        du = (u_hi - u_lo) / bins
        dv = (v_hi - v_lo) / bins
        return float(integrand.sum() * du * dv)

    integral = box_integral(HOEFFDING_BINS)
    resolution = abs(integral - box_integral(HOEFFDING_BINS // 2))
    side = _allowance("cov=integral", abs(cov_est.value - integral), cov_est.se,
                      3.0 * cov_est.se + budget + resolution)
    terms = {"cov": cov_est, "integral": TermEstimate(integral, 0.0, n)}
    consts = {"budget": budget, "resolution": resolution, "bins": HOEFFDING_BINS}
    return _report("hoeffding", terms, [side], consts, plan.base_seed, n)


@_timed
def verify_positive_association(plan, A1, A2, n: int, workers: int = 1) -> InequalityReport:
    """P[A1 and A2] - P[A1] P[A2] signed according to the cross-covariance sign."""
    kmin, kmax, _ = _cross_range(plan, A1, A2)
    if na := _mixed_sign("pa", plan, n, kmin, kmax, "mixed-sign cross covariance"):
        return na
    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    gap, joint, i1, i2 = _gap(t1, t2, 0.0, 0.0)
    if kmin >= -1e-12:
        side = _lower("gap>=0", gap.value, gap.se, 0.0)
    else:  # slack -gap, not 0.0 - gap, so a zero gap keeps its signed-zero slack
        side = _side("gap<=0", gap.value, gap.se, 0.0, -gap.value)
    terms = {"gap": gap, "p1": _mean_se(i1), "p2": _mean_se(i2), "joint": _mean_se(joint)}
    return _report("pa", terms, [side], {"min_cross": kmin, "max_cross": kmax}, plan.base_seed, n)


INTERP_NODES = 24  # Gauss-Legendre nodes of the interpolation integral


def _grad_index(desc, column, n: int) -> np.ndarray:
    """Per-replicate index of the gradient's nonzero coordinate; column(i) gives coordinate i."""
    if desc[0] == "linear":
        return np.full(n, desc[1], dtype=np.intp)
    i, j = desc[1], desc[2]
    return np.where(column(i) >= column(j), i, j).astype(np.intp)


def _func_values(desc, draws: np.ndarray) -> np.ndarray:
    if desc[0] == "linear":
        return draws[:, desc[1]]
    return np.maximum(draws[:, desc[1]], draws[:, desc[2]])


@_timed
def verify_interp_formula(plan: DensePlan, n: int) -> InequalityReport:
    """Interpolation covariance identity for linear and max-of-two functionals.

    Cov[f(X), g(X)] equals the exponentially weighted time integral of
    sum_ij K(i,j) E[df_i(X) dg_j(X^t)] along the Ornstein-Uhlenbeck
    interpolation X^t; the integral is mapped to (0,1) by s = e^{-t} and
    evaluated with Gauss-Legendre nodes sharing one replicate set.  The cases
    are linear-linear across two sites and on one site, plus max-linear when
    the plan has three sites.
    """
    if not isinstance(plan, DensePlan):
        raise InputError("interpolation check needs a dense plan with explicit covariance")
    _check_replicates(n)
    K = plan.cov
    dim = K.shape[0]
    cases = [(("linear", 0), ("linear", min(1, dim - 1))), (("linear", 0), ("linear", 0))]
    if dim >= 3:
        cases.append((("max", 0, 1), ("linear", 2)))
    s_nodes, s_w = np.polynomial.legendre.leggauss(INTERP_NODES)
    s_nodes = 0.5 * (s_nodes + 1.0)
    s_w = 0.5 * s_w
    X, Xp = plan.draw_pair_batch(range(n))
    sides, terms = [], {}
    for ci, (fd, gd) in enumerate(cases):
        lhs = _cov(_func_values(fd, X), _func_values(gd, X))
        fidx = _grad_index(fd, lambda i: X[:, i], n)

        def rhs_at(nodes, weights):
            acc = np.zeros(n)
            for s, wk in zip(nodes, weights):
                gidx = _grad_index(gd, lambda i: s * X[:, i] + np.sqrt(1.0 - s * s) * Xp[:, i], n)
                acc += wk * K[fidx, gidx]
            return acc

        rhs = _mean_se(rhs_at(s_nodes, s_w))
        half = np.polynomial.legendre.leggauss(INTERP_NODES // 2)
        hn, hw = 0.5 * (half[0] + 1.0), 0.5 * half[1]
        quad_budget = abs(float(np.mean(rhs_at(hn, hw))) - rhs.value)
        se = float(np.hypot(lhs.se, rhs.se))
        sides.append(_allowance(f"case{ci}:{fd[0]}-{gd[0]}", abs(lhs.value - rhs.value), se,
                                3.0 * se + quad_budget))
        terms[f"lhs{ci}"] = lhs
        terms[f"rhs{ci}"] = rhs
    return _report("interp", terms, sides, {"t_nodes": INTERP_NODES}, plan.base_seed, n)


@_timed
def verify_finite_range(model, grid: Grid, radius: float, A1, A2, eps: float, n: int,
                        base_seed: int = 0, workers: int = 1) -> InequalityReport:
    """Sprinkled decoupling with the moving-average error 3 max|I| exp(-eps^2/(8 sigma^2))."""
    if eps <= 0:
        raise ParameterError("eps must be positive")
    plan = plan_decomposed(model, grid, radius, base_seed)
    p1 = np.asarray(A1.support, dtype=float) * grid.spacing
    p2 = np.asarray(A2.support, dtype=float) * grid.spacing
    d2 = ((p1[:, None, :] - p2[None, :, :]) ** 2).sum(-1)
    separation = float(np.sqrt(d2.min()))
    if separation <= 2.0 * radius:
        raise PreconditionError(
            f"supports separated by {separation:.3f} <= 2 * radius = {2 * radius:.3f}: "
            "the truncated fields are not independent across the two blocks"
        )
    sigma2 = plan.sigma2
    size = max(len(A1.support), len(A2.support))
    bound = finite_range_bound(size, sigma2, eps)
    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    lhs = _gap(t1, t2, eps, eps)[0]
    consts = {"sigma2": sigma2, "radius": radius, "eps": eps, "max_support": size,
              "separation": separation, "bound": bound}
    return _report("prop1.8", {"lhs": lhs}, [_upper("finite-range", lhs.value, lhs.se, bound)],
                   consts, base_seed, n)


def finite_range_bound(max_support: int, sigma2: float, eps: float) -> float:
    if sigma2 <= 0:
        return 0.0
    return 3.0 * max_support * float(np.exp(-(eps**2) / (8.0 * sigma2)))


def _rho_of(plan, A1, A2) -> float:
    pts = tuple(A1.support) + tuple(A2.support)
    n1 = len(A1.support)
    return measures.max_corr(plan.cov_block(pts, pts), np.arange(n1), np.arange(n1, len(pts))).rho


@_timed
def verify_sdi2(plan, A1, A2, eps: float, n: int, workers: int = 1) -> InequalityReport:
    """One-sided sprinkling against exp(-eps^2 / (8 |K|_inf rho^2))."""
    if eps <= 0:
        raise ParameterError("eps must be positive")
    rho = _rho_of(plan, A1, A2)
    kinf = plan.max_abs_cov()
    bound = float(np.exp(-(eps**2) / (8.0 * kinf * rho**2))) if rho > 0 else 0.0
    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    lhs, _, p1, p2e = _gap(t1, t2, 0.0, eps)
    return _report("thm1.7", {"lhs": lhs, "p1": _mean_se(p1), "p2_eps": _mean_se(p2e)},
                   [_upper("one-sided-sprinkle", lhs.value, lhs.se, bound)],
                   {"rho": rho, "k_inf": kinf, "eps": eps, "bound": bound}, plan.base_seed, n)


@_timed
def verify_sdi3(plan, A1, A2, delta1: float, delta2: float, n: int, workers: int = 1) -> InequalityReport:
    """Errorless sprinkled decoupling at eps = kappa rho sqrt(|K|_inf).

    Hypothesis failures (rho too large, marginals too small) yield a
    not-applicable verdict, never a fail.
    """
    if not (0 < delta1 < 1 and 0 < delta2 < 1):
        raise ParameterError("delta1, delta2 must lie in (0,1)")
    rho = _rho_of(plan, A1, A2)
    kinf = plan.max_abs_cov()
    if rho > 1.0 - delta1:
        return _report("thm1.10", {}, [], {"rho": rho, "delta1": delta1}, plan.base_seed, n,
                       VERDICT_NA, (f"rho={rho:.4f} exceeds 1-delta1={1-delta1:.4f}",))
    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    marginals = {"p1": _mean_se((t1 <= 0).astype(float)), "p2": _mean_se((t2 <= 0).astype(float))}
    pmax = max(marginals["p1"].value, marginals["p2"].value)
    if pmax < delta2:
        return _report("thm1.10", marginals, [], {"rho": rho, "delta2": delta2}, plan.base_seed, n,
                       VERDICT_NA, (f"max marginal {pmax:.4f} below delta2={delta2}",))
    kappa = 2.0 + max(0.0, -analytic.std_quantile(delta2)) / np.sqrt(delta1)
    eps = kappa * rho * float(np.sqrt(kinf))
    lhs = _gap(t1, t2, eps, eps)[0]
    # slack -lhs, not 0.0 - lhs, so a zero lhs keeps its signed-zero slack
    side = _side("errorless", lhs.value, lhs.se, 0.0, -lhs.value)
    consts = {"rho": rho, "k_inf": kinf, "kappa": kappa, "eps": eps,
              "delta1": delta1, "delta2": delta2}
    return _report("thm1.10", {"lhs": lhs, **marginals}, [side], consts, plan.base_seed, n)


@_timed
def verify_isoperimetric(plan, A, eps: float, n: int, workers: int = 1) -> InequalityReport:
    """P[X+eps in A] >= Phi(Phi^{-1}(P[X in A]) + eps / sqrt(|K|_inf))."""
    if eps < 0:
        raise ParameterError("eps must be nonnegative")
    (t,) = event_thresholds(plan, (A,), n, workers)
    p0, pe = _mean_se((t <= 0).astype(float)), _mean_se((t <= eps).astype(float))
    if p0.value <= 0.0 or p0.value >= 1.0:
        return _report("cor2.6", {"p0": p0, "p_eps": pe}, [], {"eps": eps}, plan.base_seed, n,
                       VERDICT_NA, ("degenerate marginal estimate",))
    kinf = plan.max_abs_cov()
    t_shift = eps / float(np.sqrt(kinf))
    target = analytic.isoperimetric_profile(p0.value, t_shift)
    q = analytic.std_quantile(p0.value)
    dprof = float(analytic.std_pdf(q + t_shift) / analytic.std_pdf(q))
    se = float(np.hypot(pe.se, dprof * p0.se))
    return _report("cor2.6", {"p0": p0, "p_eps": pe}, [_lower("profile", pe.value, se, target)],
                   {"eps": eps, "k_inf": kinf, "target": target}, plan.base_seed, n)


@_timed
def verify_noise_stability(plan, A1, A2, n: int, workers: int = 1) -> InequalityReport:
    """P[A1 and A2] <= Phi_rho(Phi^{-1} P[A1], Phi^{-1} P[A2])."""
    rho = _rho_of(plan, A1, A2)
    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    _, joint, i1, i2 = _gap(t1, t2, 0.0, 0.0)
    p1, p2, p12 = _mean_se(i1), _mean_se(i2), _mean_se(joint)
    if not (0 < p1.value < 1 and 0 < p2.value < 1):
        return _report("cor2.7", {"p1": p1, "p2": p2}, [], {"rho": rho}, plan.base_seed, n,
                       VERDICT_NA, ("marginal estimate at 0 or 1: quantile undefined",))
    u, v = analytic.std_quantile(p1.value), analytic.std_quantile(p2.value)
    rhs = analytic.bivariate_cdf(rho, u, v)
    if rho < 1.0:
        du, dv, _ = analytic.bivariate_cdf_derivs(rho, u, v)
        # delta method through Phi^{-1}: d rhs/d p = (dPhi_rho/du) / phi(u) <= 1
        r1 = du / float(analytic.std_pdf(u))
        r2 = dv / float(analytic.std_pdf(v))
    else:
        r1 = r2 = 1.0
    se = float(np.sqrt(p12.se**2 + (r1 * p1.se) ** 2 + (r2 * p2.se) ** 2))
    return _report("cor2.7", {"p1": p1, "p2": p2, "joint": p12},
                   [_upper("noise-stability", p12.value, se, rhs)], {"rho": rho, "rhs": rhs},
                   plan.base_seed, n)
