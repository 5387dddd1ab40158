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

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytic, measures
from .errors import InputError, NumericalError, ParameterError, PreconditionError
from .events import EventSpec, compile_event
from .kernels import _exponent
from .sampler import BANK_BYTES, BANK_ROWS, DensePlan, Grid, SamplerPlan, _columns, _Store, plan_decomposed

VERDICT_PASS = "pass"
VERDICT_NOISE = "pass-within-noise"
VERDICT_FAIL = "fail"
VERDICT_NA = "not-applicable"
NOISE_SES = 3.0  # the noise width, in standard errors, that a slack may fall short by


def classify(slack: float, se: float) -> str:
    """fail only when slack < -NOISE_SES standard errors; a NaN or an infinity is a defect, never a verdict."""
    if not (math.isfinite(slack) and math.isfinite(se)):
        raise NumericalError(f"a side has slack {slack:.4g} and se {se:.4g}: no verdict reads a number that is not finite")
    if slack >= 0:
        return VERDICT_PASS
    if slack >= -NOISE_SES * se:
        return VERDICT_NOISE
    return VERDICT_FAIL


_WORST = {VERDICT_PASS: 0, VERDICT_NOISE: 1, VERDICT_FAIL: 2}


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
    verdict: str
    slack: float
    se: float
    notes: tuple[str, ...] = ()

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
# threshold engine with a cross-call cache, bounded in bytes like the noise bank

_CACHE = _Store(BANK_BYTES)
_CACHE_LOCK = _CACHE.lock


def _check_replicates(n) -> None:
    """Every estimate carries a standard error, so it needs two replicates at least."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError(f"n must be an integer >= 2, got {n!r}")


def compile_events(plan: SamplerPlan, specs) -> tuple[list, np.ndarray | None]:
    """The events compiled on the support draw ``plan.draw_batch(replicates, cols)``, and cols,
    the sorted union of their support columns in the plan: None when that is every column."""
    cols = np.unique(np.concatenate([np.empty(0, np.intp), *(_columns(plan.index, s.support) for s in specs)]))
    if len(cols) == len(plan.points):
        return [compile_event(s, plan.index) for s in specs], None
    index = {plan.points[c]: k for k, c in enumerate(cols.tolist())}
    return [compile_event(s, index) for s in specs], cols


def event_thresholds(plan: SamplerPlan, specs, n: int, workers: int = 1) -> np.ndarray:
    """Threshold matrix of shape (len(specs), n) over replicates 0..n-1; read-only, as the
    cache hands the same array to every caller.

    Replicates are drawn and thresholded in chunks of whole draw blocks, BANK_ROWS *
    max(1, BANK_ROWS // width) of them for ``width`` support columns: at most BANK_ROWS**2
    support values, or one block when a block is wider.  The draws stay per block and every
    threshold is a function of its replicate's row alone, so the matrix does not depend on
    the chunk size or the worker count."""
    _check_replicates(n)
    specs = tuple(specs)
    key = (plan.fingerprint, specs, int(n))
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    compiled, cols = compile_events(plan, specs)
    out = np.empty((len(specs), n))
    step = BANK_ROWS * max(1, BANK_ROWS // len(plan.points if cols is None else cols))
    chunks = [(a, min(a + step, n)) for a in range(0, n, step)]

    def work(chunk):
        a, b = chunk
        draws = plan.draw_batch(range(a, b), cols)
        for k, ce in enumerate(compiled):
            out[k, a:b] = ce.thresholds_batch(draws)

    if workers <= 1:
        for chunk in chunks:
            work(chunk)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, chunks))
    return _CACHE.put(key, out)


def _mean_se(x: np.ndarray) -> TermEstimate:
    """Mean and standard error, on x scaled exactly by 2^-e so that squares of tiny terms do not underflow."""
    n = len(x)
    if n < 2:  # one term has no spread: a standard error of 0 would make any gap a fail
        raise ParameterError("an estimate needs two terms for its standard error: n >= 4 for a paired one")
    e = _exponent(x)
    y = np.ldexp(x, -e)
    sd = float(np.ldexp(np.std(y, ddof=1), e))
    return TermEstimate(float(np.ldexp(np.mean(y), e)), sd / np.sqrt(n), n)


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
# verifier spine: a verifier builds every side with _upper or _lower (_side for any
# other slack), so classify decides every verdict, and returns _report(...), with no
# sides where the theorem does not apply; cli.run_config stamps wall_time_s.


def _report(theorem_id, terms, sides, constants, seed, n, notes=()):
    """The one place a verdict is decided: the worst side's, with its slack and se, or not-applicable without sides."""
    worst = max(sides, key=lambda s: (_WORST[s.verdict], -s.slack), default=None)
    verdict, slack, se = (VERDICT_NA, math.nan, math.nan) if worst is None else (worst.verdict, worst.slack, worst.se)
    return InequalityReport(theorem_id, terms, sides, constants, seed, n, 0.0, verdict, slack, se, tuple(notes))


def _side(name, est, se, bound, slack) -> SideCheck:
    return SideCheck(name, est, se, bound, slack, classify(slack, se))


def _upper(name, est: float, se: float, bound: float) -> SideCheck:
    """est <= bound, with slack bound - est."""
    return _side(name, est, se, bound, bound - est)


def _lower(name, est: float, se: float, bound: float) -> SideCheck:
    """est >= bound, with slack est - bound."""
    return _side(name, est, se, bound, est - bound)


# a cross covariance within SIGN_FLOOR times the largest variance on the two
# supports has no sign, so the sign gates read K and 4^j K alike
SIGN_FLOOR = 1e-12


def _max_var(plan, *events: EventSpec) -> float:
    """The largest variance on the events' supports."""
    return max(float(np.diag(plan.cov_block(A.support, A.support)).max()) for A in events)


def _cross_range(plan, A1: EventSpec, A2: EventSpec) -> tuple[float, float, float, float]:
    """Min, max and max-abs of the cross covariance between the two supports, and the sign floor."""
    block = plan.cov_block(A1.support, A2.support)
    kmin, kmax = float(block.min()), float(block.max())
    return kmin, kmax, max(abs(kmin), abs(kmax)), SIGN_FLOOR * _max_var(plan, A1, A2)


def _mixed_sign(theorem_id, plan, n, kmin, kmax, floor, note):
    """A not-applicable report when the cross covariance takes both signs, else None."""
    if kmin < -floor and kmax > floor:
        return _report(theorem_id, {}, [], {"min_cross": kmin, "max_cross": kmax},
                       plan.base_seed, n, (note,))


def _cov(a: np.ndarray, b: np.ndarray) -> TermEstimate:
    """Unbiased sample covariance of paired replicates, with its SE; scaled by 2^-e so the product cannot overflow."""
    n = len(a)
    if n < 3:  # both terms of n = 2 are equal, so their spread says nothing
        raise ParameterError("a covariance estimate needs n >= 3 replicates")
    ea, eb = _exponent(a), _exponent(b)
    a, b = np.ldexp(a, -ea), np.ldexp(b, -eb)
    est = _mean_se((a - a.mean()) * (b - b.mean()) * (n / (n - 1)))
    return TermEstimate(*np.ldexp((est.value, est.se), ea + eb).tolist(), n)


# ---------------------------------------------------------------------------
# verifiers


def verify_sprinkled(plan: SamplerPlan, A1: EventSpec, A2: EventSpec, eps1: float, eps2: float, n: int,
                     constant_mode: str = "proof-36", workers: int = 1) -> InequalityReport:
    """Two-sided sprinkled decoupling at error c * max|K_cross| / (eps1 eps2).

    constant_mode "proof-36" uses the explicit constant 36 on both sides;
    "positive-1" requires cross-covariances >= 0 and then uses c=1 for the
    upward side and c=0 for the downward side.
    """
    if not (eps1 > 0 and eps2 > 0):  # written so that NaN fails
        raise ParameterError(f"sprinkling parameters must be positive, got {eps1!r} and {eps2!r}")
    kmin, _, kappa, floor = _cross_range(plan, A1, A2)
    notes = []
    if constant_mode == "proof-36":
        c_up, c_down = 36.0, 36.0
    elif constant_mode == "positive-1":
        if kmin < -floor:
            return _report("thm1.1", {}, [], {"kappa": kappa, "min_cross": kmin}, plan.base_seed, n,
                           ("cross-covariance sign check failed; c=1 branch inapplicable",))
        c_up, c_down = 1.0, 0.0
    else:
        raise ParameterError(f"unknown constant_mode {constant_mode!r}")
    if set(A1.support) & set(A2.support) and eps1 != eps2:
        warnings.warn("supports overlap; inhomogeneous bound applies after restricting to disjoint blocks")
        notes.append("overlapping supports")
    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    # c kappa / (eps1 eps2): 0 when c kappa is, and inf, which classify refuses, when eps1 eps2 underflows to 0
    bound, bound_dn = (c * kappa and (c * kappa / (eps1 * eps2) if eps1 * eps2 else math.inf) for c in (c_up, c_down))
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


def verify_threshold_cov(plan, A1, A2, n: int, workers: int = 1) -> InequalityReport:
    """Cov[T_A1, T_A2] between min and max cross-covariance (sign-definite case)."""
    kmin, kmax, kabs, floor = _cross_range(plan, A1, A2)
    if na := _mixed_sign("prop2.2", plan, n, kmin, kmax, floor, "mixed-sign cross covariance: hypothesis unmet"):
        return na
    lo, hi = (kmin, kabs) if kmin >= -floor else (-kabs, kmax)
    consts = {"lower": lo, "upper": hi, "min_cross": kmin, "max_cross": kmax}
    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    # A threshold of positive variance that is one float on every replicate lost
    # the field to the level's rounding unit: the draws cannot test the bounds.
    if any(t.min() == t.max() and _max_var(plan, A) > 0 for A, t in ((A1, t1), (A2, t2))):
        return _report("prop2.2", {}, [], consts, plan.base_seed, n,
                       ("thresholds constant in floating point: the field's sd is below the level's rounding unit",))
    est = _cov(t1, t2)
    sides = [_lower("cov>=lower", est.value, est.se, lo), _upper("cov<=upper", est.value, est.se, hi)]
    return _report("prop2.2", {"cov": est}, sides, consts, plan.base_seed, n)


HOEFFDING_BINS = 256  # histogram bins per axis of the integration box


def verify_hoeffding(plan, A1, A2, n: int, workers: int = 1) -> InequalityReport:
    """Cov[T1,T2] against the double integral of the joint-cdf defect.

    The integral is taken from the empirical cdfs of the replicates over the
    box [min T1, max T1] x [min T2, max T2], at HOEFFDING_BINS bins per axis.
    The empirical defect F12 - F1 F2 is 0 outside that box, so the box
    truncates nothing: the bound on |cov - integral| is the change from every
    other midpoint of the same count table, and classify reads the noise.
    """
    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    cov_est = _cov(t1, t2)
    # k = #{mid <= t}, so mid[k - 1] <= t < mid[k] with -inf and inf past the ends.  One (2, n) array for
    # both axes: after one per axis glibc's mmap threshold stayed low, and interp ran 40 % slower next.
    t = np.stack((t1, t2))
    lo, hi = t.min(axis=1), t.max(axis=1)
    mid = lo[:, None] + (np.arange(HOEFFDING_BINS) + 0.5) * (hi - lo)[:, None] / HOEFFDING_BINS
    k1, k2 = (np.searchsorted(m, x, side="right") for m, x in zip(mid, t))
    du, dv = (hi - lo) / HOEFFDING_BINS
    size = HOEFFDING_BINS + 1
    counts = np.bincount(k1 * size + k2, minlength=size * size).reshape(size, size)
    F = counts.cumsum(axis=0).cumsum(axis=1) / n  # F[i, j]: the share with t1 < mid[0, i] and t2 < mid[1, j]
    defect = F[:-1, :-1] - np.outer(F[:-1, -1], F[-1, :-1])  # F12 - F1 F2, F1 and F2 the margins
    integral = float(defect.sum() * du * dv)
    # the odd midpoints are a grid of spacing 2 du x 2 dv on the same counts
    resolution = abs(integral - float(defect[1::2, 1::2].sum() * (2 * du) * (2 * dv)))
    side = _upper("cov=integral", abs(cov_est.value - integral), cov_est.se, resolution)
    terms = {"cov": cov_est, "integral": TermEstimate(integral, 0.0, n)}
    consts = {"resolution": resolution, "bins": HOEFFDING_BINS}
    return _report("hoeffding", terms, [side], consts, plan.base_seed, n)


def verify_positive_association(plan, A1, A2, n: int, workers: int = 1) -> InequalityReport:
    """P[A1 and A2] - P[A1] P[A2] signed according to the cross-covariance sign."""
    kmin, kmax, _, floor = _cross_range(plan, A1, A2)
    if na := _mixed_sign("pa", plan, n, kmin, kmax, floor, "mixed-sign cross covariance"):
        return na
    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    gap, joint, i1, i2 = _gap(t1, t2, 0.0, 0.0)
    if kmin >= -floor:
        side = _lower("gap>=0", gap.value, gap.se, 0.0)
    else:  # slack -gap, not 0.0 - gap, so a zero gap keeps its signed-zero slack
        side = _side("gap<=0", gap.value, gap.se, 0.0, -gap.value)
    terms = {"gap": gap, "p1": _mean_se(i1), "p2": _mean_se(i2), "joint": _mean_se(joint)}
    return _report("pa", terms, [side], {"min_cross": kmin, "max_cross": kmax}, plan.base_seed, n)


def _grad_index(desc, X: np.ndarray) -> np.ndarray:
    """Per-replicate index of the coordinate where f's gradient is 1 (it is 0 elsewhere)."""
    if desc[0] == "linear":
        return np.full(len(X), desc[1], dtype=np.intp)
    i, j = desc[1], desc[2]
    return np.where(X[:, i] >= X[:, j], i, j).astype(np.intp)


def _func_values(desc, draws: np.ndarray) -> np.ndarray:
    if desc[0] == "linear":
        return draws[:, desc[1]]
    return np.maximum(draws[:, desc[1]], draws[:, desc[2]])


def verify_interp_formula(plan: DensePlan, n: int) -> InequalityReport:
    """Interpolation covariance identity for a linear or max-of-two f against g = X_j.

    Cov[f(X), g(X)] equals the integral over t > 0 of e^{-t} sum_ik K(i,k)
    E[df_i(X) dg_k(X^t)] along the Ornstein-Uhlenbeck interpolation X^t.  With
    g = X_j the gradient dg is e_j at every t, so the integrand does not depend
    on t and the integral of e^{-t} is 1: the rhs is Stein's mean of K[i, j] over
    the coordinate i where df(X) is 1, and no quadrature enters.  The cases are
    linear f on another site and on site j itself, plus f = max(X0, X1) when the
    plan has three sites.  Each case's bound on |lhs - rhs| is 0: classify reads
    the noise.
    """
    if not isinstance(plan, DensePlan):
        raise InputError("interpolation check needs a dense plan with explicit covariance")
    _check_replicates(n)
    K = plan.cov
    dim = K.shape[0]
    cases = [(("linear", 0), min(1, dim - 1)), (("linear", 0), 0)]
    if dim >= 3:
        cases.append((("max", 0, 1), 2))
    # X' is unread, but the pair draw stays: its X is draw_batch's bit for bit, and perfbench's
    # traced verify-dense run requires the DensePlan.draw_pair_batch span.
    X, _ = plan.draw_pair_batch(range(n))
    sides, terms = [], {}
    for ci, (fd, j) in enumerate(cases):
        lhs = _cov(_func_values(fd, X), X[:, j])
        rhs = _mean_se(K[_grad_index(fd, X), j])
        se = float(np.hypot(lhs.se, rhs.se))
        sides.append(_upper(f"case{ci}:{fd[0]}-linear", abs(lhs.value - rhs.value), se, 0.0))
        terms[f"lhs{ci}"] = lhs
        terms[f"rhs{ci}"] = rhs
    return _report("interp", terms, sides, {}, plan.base_seed, n)


def verify_finite_range(model, grid: Grid, radius: float, A1, A2, eps: float, n: int,
                        base_seed: int = 0, workers: int = 1) -> InequalityReport:
    """Sprinkled decoupling with the moving-average error 3 max|I| exp(-eps^2/(8 sigma^2))."""
    if not eps > 0:  # written so that NaN fails
        raise ParameterError(f"eps must be positive, got {eps!r}")
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
    return 3.0 * max_support * float(np.exp(analytic.sprinkle_exponent(eps, sigma2)))


def _rho_of(plan, A1, A2) -> float:
    pts = tuple(A1.support) + tuple(A2.support)
    n1 = len(A1.support)
    return measures.max_corr(plan.cov_block(pts, pts), np.arange(n1), np.arange(n1, len(pts))).rho


def verify_sdi2(plan, A1, A2, eps: float, n: int, workers: int = 1) -> InequalityReport:
    """One-sided sprinkling against exp(-eps^2 / (8 |K|_inf rho^2))."""
    if not eps > 0:  # written so that NaN fails
        raise ParameterError(f"eps must be positive, got {eps!r}")
    rho = _rho_of(plan, A1, A2)
    kinf = plan.max_abs_cov()
    bound = float(np.exp(analytic.sprinkle_exponent(eps, kinf * rho**2))) if rho > 0 else 0.0
    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    lhs, _, p1, p2e = _gap(t1, t2, 0.0, eps)
    return _report("thm1.7", {"lhs": lhs, "p1": _mean_se(p1), "p2_eps": _mean_se(p2e)},
                   [_upper("one-sided-sprinkle", lhs.value, lhs.se, bound)],
                   {"rho": rho, "k_inf": kinf, "eps": eps, "bound": bound}, plan.base_seed, n)


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
                       (f"rho={rho:.4f} exceeds 1-delta1={1-delta1:.4f}",))
    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    marginals = {"p1": _mean_se((t1 <= 0).astype(float)), "p2": _mean_se((t2 <= 0).astype(float))}
    pmax = max(marginals["p1"].value, marginals["p2"].value)
    if pmax < delta2:
        return _report("thm1.10", marginals, [], {"rho": rho, "delta2": delta2}, plan.base_seed, n,
                       (f"max marginal {pmax:.4f} below delta2={delta2}",))
    kappa = 2.0 + max(0.0, -analytic.std_quantile(delta2)) / np.sqrt(delta1)
    eps = kappa * rho * float(np.sqrt(kinf))
    lhs = _gap(t1, t2, eps, eps)[0]
    # slack -lhs, not 0.0 - lhs, so a zero lhs keeps its signed-zero slack
    side = _side("errorless", lhs.value, lhs.se, 0.0, -lhs.value)
    consts = {"rho": rho, "k_inf": kinf, "kappa": kappa, "eps": eps,
              "delta1": delta1, "delta2": delta2}
    return _report("thm1.10", {"lhs": lhs, **marginals}, [side], consts, plan.base_seed, n)


def verify_isoperimetric(plan, A, eps: float, n: int, workers: int = 1) -> InequalityReport:
    """P[X+eps in A] >= Phi(Phi^{-1}(P[X in A]) + eps / sqrt(|K|_inf))."""
    if not eps >= 0:  # written so that NaN fails
        raise ParameterError(f"eps must be nonnegative, got {eps!r}")
    (t,) = event_thresholds(plan, (A,), n, workers)
    p0, pe = _mean_se((t <= 0).astype(float)), _mean_se((t <= eps).astype(float))
    if p0.value <= 0.0 or p0.value >= 1.0:
        return _report("cor2.6", {"p0": p0, "p_eps": pe}, [], {"eps": eps}, plan.base_seed, n,
                       ("degenerate marginal estimate",))
    kinf = plan.max_abs_cov()
    t_shift = eps / float(np.sqrt(kinf))
    target = analytic.isoperimetric_profile(p0.value, t_shift)
    q = analytic.std_quantile(p0.value)
    dprof = float(analytic.std_pdf(q + t_shift) / analytic.std_pdf(q))
    se = float(np.hypot(pe.se, dprof * p0.se))
    return _report("cor2.6", {"p0": p0, "p_eps": pe}, [_lower("profile", pe.value, se, target)],
                   {"eps": eps, "k_inf": kinf, "target": target}, plan.base_seed, n)


def verify_noise_stability(plan, A1, A2, n: int, workers: int = 1) -> InequalityReport:
    """P[A1 and A2] <= Phi_rho(Phi^{-1} P[A1], Phi^{-1} P[A2])."""
    rho = _rho_of(plan, A1, A2)
    t1, t2 = event_thresholds(plan, (A1, A2), n, workers)
    _, joint, i1, i2 = _gap(t1, t2, 0.0, 0.0)
    p1, p2, p12 = _mean_se(i1), _mean_se(i2), _mean_se(joint)
    if not (0 < p1.value < 1 and 0 < p2.value < 1):
        return _report("cor2.7", {"p1": p1, "p2": p2}, [], {"rho": rho}, plan.base_seed, n,
                       ("marginal estimate at 0 or 1: quantile undefined",))
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
