"""Deterministic multi-scale bootstrap engine and its Monte Carlo drivers.

The recursion bounds annulus-crossing probabilities at scale 5R by squares of
those at scale R plus a decoupling error, iterated along geometric scales with
a summable sprinkling schedule.  Scales blow past float range long before the
closure conditions bite, so every decay function works in log-log space:
``log_value(log_r)`` maps log r to log h(r).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import mc
from .errors import DomainError, InputError, ParameterError
from .events import AnnulusCrossing, BoxCrossing
from .sampler import MAX_SITES, Grid, plan_circulant

LOG2 = math.log(2.0)
LOG5 = math.log(5.0)
_LOG_R_CAP = 1e28  # the closure scan gives up above this log R0
_K_MAX = 60  # the condition scan runs over r = 2^k, k <= _K_MAX


@dataclass(frozen=True)
class DecayFunction:
    """Named decreasing positive function r -> value, evaluated as log h(log r).

    families:
      polylog:   c * (log(1+r))^(-gamma)
      loginv:    c * (log r)^(-gamma)          (needs r > 1)
      power:     c * r^(-alpha)
      stretched: c0 * exp(-c * r^beta)
    """

    family: str
    c: float = 1.0
    gamma: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.c, self.gamma, self.alpha, self.beta)):
            raise ParameterError(f"decay parameters must be finite, got {self!r}")
        if self.c <= 0:
            raise ParameterError(f"decay constant c must be positive, got {self.c!r}")

    def log_value(self, log_r):
        log_r = np.asarray(log_r, dtype=float)
        if self.family == "polylog":
            # log(1+r) = log_r + log1p(exp(-log_r)) for r = exp(log_r)
            lg = log_r + np.log1p(np.exp(-np.minimum(log_r, 700.0)))
            return math.log(self.c) - self.gamma * np.log(lg)
        if self.family == "loginv":
            if np.any(log_r <= 0):
                raise DomainError("loginv decay needs r > 1")
            return math.log(self.c) - self.gamma * np.log(log_r)
        if self.family == "power":
            return math.log(self.c) - self.alpha * log_r
        if self.family == "stretched":
            expo = self.beta * log_r
            with np.errstate(over="ignore"):
                val = -self.c * np.exp(np.minimum(expo, 709.0))
            return np.where(expo > 709.0, -np.inf, val)
        raise ParameterError(f"unknown decay family {self.family!r}")


def polylog(gamma: float, c: float = 1.0) -> DecayFunction:
    return DecayFunction("polylog", c=c, gamma=gamma)


def loginv(gamma: float, c: float = 1.0) -> DecayFunction:
    return DecayFunction("loginv", c=c, gamma=gamma)


def power(alpha: float, c: float = 1.0) -> DecayFunction:
    return DecayFunction("power", c=c, alpha=alpha)


def stretched_exp(c: float, beta: float = 1.0) -> DecayFunction:
    if not 0 < beta:
        raise ParameterError("stretched exponential needs beta > 0")
    return DecayFunction("stretched", c=c, beta=beta)


def decay_from_string(text: str) -> DecayFunction:
    """'polylog:3.5', 'power:2', 'stretched:0.04,0.3', 'loginv:0.5'."""
    name, _, args = text.partition(":")
    try:
        vals = [float(v) for v in args.split(",")]
    except ValueError:
        raise ParameterError(f"decay {text!r} must be family:numbers, as in 'polylog:3.5'") from None
    if len(vals) > 2:
        raise ParameterError(f"decay {text!r} takes one or two numbers, as in 'polylog:3.5,1'")
    # the table is built per call, so each name reaches the module's binding of its factory
    factory = {"polylog": polylog, "loginv": loginv, "power": power, "stretched": stretched_exp}.get(name)
    if factory is None:
        raise ParameterError(f"unknown decay family {name!r}")
    return factory(*vals)


@dataclass(frozen=True)
class HFromG:
    """h(r) = g(r) * (log r)^(2+delta), the effective error after sprinkling."""

    g: DecayFunction
    delta: float

    def log_value(self, log_r):
        log_r = np.asarray(log_r, dtype=float)
        if np.any(log_r <= 0):
            raise DomainError("h is defined for r > 1")
        return self.g.log_value(log_r) + (2.0 + self.delta) * np.log(log_r)


# ---------------------------------------------------------------------------
# Theorem-style condition checking


@dataclass
class ConditionsReport:
    h_to_zero: bool
    ratio_bounded: bool
    square_ratio_to_zero: bool
    c_prime: float | None
    verdict: bool
    diagnostics: list[str] = field(default_factory=list)


def _tail_decreasing(vals: np.ndarray, k: int = 10) -> bool:
    tail = vals[-k:]
    return bool(np.all(np.diff(tail) < 0))


def _log_square_ratio(hp, log_r):
    """log h'(r)^2 / h'(5r) at log r, the quantity of the closure's ratio condition."""
    return 2.0 * np.asarray(hp.log_value(log_r)) - np.asarray(hp.log_value(log_r + LOG5))


def check_subcritical_conditions(g: DecayFunction, delta: float,
                                 h_prime: DecayFunction | HFromG | None = None) -> ConditionsReport:
    """Check h -> 0, sup h/h'(25 r) < inf (reported as c'), h'(r)^2/h'(5r) -> 0.

    Checks run on the geometric grid r = 2^k, k <= _K_MAX, with the tail trend
    standing in for the limit statements.
    """
    if not delta > 0:  # also rejects nan
        raise ParameterError(f"delta must be positive, got {delta!r}")
    h = HFromG(g, delta)
    hp = h if h_prime is None else h_prime
    logs = np.arange(2, _K_MAX + 1, dtype=float) * LOG2
    lh = h.log_value(logs)
    lhp25 = hp.log_value(logs + math.log(25.0))
    if h_prime is not None and np.any(np.diff(hp.log_value(logs)) >= 0):
        raise InputError("h' candidate must be decreasing")
    diags: list[str] = []

    h_dec = _tail_decreasing(lh)
    h_small = lh[-1] < lh[0]
    h_to_zero = h_dec and h_small
    if not h_to_zero:
        diags.append("h(r) = g(r) (log r)^(2+delta) does not tend to 0 on the scan")

    # boundedness of h/h'(25r): a nonincreasing tail is bounded outright; an
    # increasing tail is accepted only when the log-ratio increments are
    # summable (increment * k^2 not growing), i.e. the ratio converges
    log_ratio = lh - lhp25
    d = np.diff(log_ratio)
    ks = np.arange(3, _K_MAX + 1, dtype=float)
    if np.all(d[-10:] <= 1e-12):
        ratio_bounded = True
    else:
        mid, end = len(d) // 2, len(d) - 1
        s_mid = max(float(d[mid] * ks[mid] ** 2), 1e-12)
        s_end = float(d[end] * ks[end] ** 2)
        ratio_bounded = s_end <= 2.0 * s_mid
    if not ratio_bounded:
        diags.append("h(r)/h'(25r) grows along the scan; no finite c'")
    c_prime = float(np.exp(log_ratio.max())) if ratio_bounded else None

    sq = _log_square_ratio(hp, logs)
    finite = np.isfinite(sq)
    sq_ok = bool(finite.sum() >= 3) and _tail_decreasing(sq[finite], k=min(10, finite.sum())) \
        and sq[finite][-1] < sq[finite][0]
    if not sq_ok:
        diags.append("h'(r)^2 / h'(5r) does not tend to 0 on the scan")

    return ConditionsReport(h_to_zero, ratio_bounded, sq_ok, c_prime,
                            h_to_zero and ratio_bounded and sq_ok, diags)


# ---------------------------------------------------------------------------
# annulus covering construction


@dataclass
class AnnulusCovering:
    x_points: np.ndarray  # shell near radius 6R
    y_points: np.ndarray  # shell near radius 8R
    n_d: int
    spacing: float
    min_separation: float


def _shell_points(radius: float, spacing: float, d: int) -> np.ndarray:
    """Lattice points of spacing*Z^d within half a cell diagonal of the sphere."""
    tol = spacing * math.sqrt(d) / 2.0
    m = int(math.ceil((radius + tol) / spacing))
    ranges = [np.arange(-m, m + 1)] * d
    mesh = np.meshgrid(*ranges, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1) * spacing
    norms = np.linalg.norm(pts, axis=1)
    return pts[np.abs(norms - radius) <= tol]


def annulus_covering(d: int, R: float) -> AnnulusCovering:
    """Point sets whose R-annulus crossings are forced by any B(5R) -> bd B(10R) path.

    Shells at radii 6R and 8R with lattice spacing R/sqrt(d): any sphere point
    is within half a cell diagonal (R/2) of a shell point, and the two shells
    stay at least 2R - 2*(R/2) = R apart.  The construction scales linearly in
    R, so the counts depend only on the dimension.
    """
    if d < 2:
        raise InputError("annulus covering is defined for d >= 2")
    if R <= 0:
        raise InputError("R must be positive")
    s = R / math.sqrt(d)
    xs = _shell_points(6.0 * R, s, d)
    ys = _shell_points(8.0 * R, s, d)
    d2 = ((xs[:, None, :] - ys[None, :, :]) ** 2).sum(-1)
    sep = float(np.sqrt(d2.min()))
    if sep < R - 1e-9 * R:
        raise ParameterError(f"shell separation {sep:.4f} below R={R}")
    return AnnulusCovering(xs, ys, max(len(xs), len(ys)), s, sep)


# ---------------------------------------------------------------------------
# sprinkling schedule


def _check_count(name: str, value, most: int | None = None) -> None:
    """ParameterError unless value is an integer >= 1 and, when ``most`` is given, at most it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")
    if most is not None and value > most:
        raise ParameterError(f"{name} must be at most {most}, got {value!r}")


def _log_R0(R0: float | None, log_R0: float | None) -> float:
    """log R0, taken from log_R0 when given; ParameterError unless finite and positive."""
    if log_R0 is None:
        if R0 is None or not R0 > 1:
            raise ParameterError("R0 must exceed 1")
        log_R0 = math.log(R0)
    if not (math.isfinite(log_R0) and log_R0 > 0):
        raise ParameterError(f"log R0 must be finite and positive, got {log_R0!r}")
    return log_R0


@dataclass
class Schedule:
    levels: np.ndarray  # ell_1 .. ell_{n_max}
    ell_inf_lower: float
    tail_bound: float


def sprinkle_schedule(R0: float | None, delta: float, ell_prime: float, n_max: int,
                      log_R0: float | None = None) -> Schedule:
    """ell_1 = ell'; ell_{n+1} = ell_n - (log(R0 5^n))^(-1-delta/2).

    Accepts log_R0 directly for scales beyond float range.  The limit bound
    comes from comparing the tail sum with the integral of
    (log R0 + x log 5)^(-1-delta/2).
    """
    if not delta > 0:  # also rejects nan
        raise ParameterError(f"delta must be positive, got {delta!r}: for delta <= 0 the sprinkling sums "
                             "diverge and ell_inf = -infinity")
    if not math.isfinite(ell_prime):
        raise ParameterError(f"ell' must be finite, got {ell_prime!r}")
    _check_count("n_max", n_max, MAX_SITES)  # one float per level
    log_R0 = _log_R0(R0, log_R0)
    half = delta / 2.0  # not (1 + delta/2) - 1, which is 0 for delta <= 2.2e-16
    n = np.arange(1, n_max + 1, dtype=float)
    steps = (log_R0 + n * LOG5) ** (-1.0 - half)  # decrement applied after level n
    levels = np.empty(n_max)
    levels[0] = ell_prime
    if n_max > 1:
        levels[1:] = ell_prime - np.cumsum(steps[:-1])
    # convexity: sum_{n >= N} f(n) <= int_{N - 1/2}^inf f, with f(x) = (log R0 + x log 5)^(-1-delta/2)
    scale = half * LOG5
    tail = (log_R0 + (n_max - 0.5) * LOG5) ** -half / scale if scale > 0 else math.inf
    if not math.isfinite(tail):
        raise ParameterError(f"delta = {delta!r} is too small: the schedule's tail bound, about 2/(delta log 5), "
                             "overflows a float")
    return Schedule(levels, float(levels[-1] - tail), float(tail))


# ---------------------------------------------------------------------------
# recursion engine


@dataclass
class ClosureResult:
    log_R0_min: float
    p1_max: float
    c_prime: float
    n_d: int


def _closure_args(g: DecayFunction, delta: float, n_d, c, h_prime) -> tuple[DecayFunction | HFromG, float]:
    """h' (h when None) and the scanned c', once n_d, c and the subcritical conditions pass."""
    _check_count("n_d", n_d)
    if not (math.isfinite(c) and c > 0):
        raise ParameterError(f"c must be finite and positive, got {c!r}")
    cond = check_subcritical_conditions(g, delta, h_prime)
    if not cond.verdict:
        raise ParameterError("subcritical conditions fail: " + "; ".join(cond.diagnostics))
    return HFromG(g, delta) if h_prime is None else h_prime, cond.c_prime


def _ratio_floor(n_d: int, c: float, cp: float) -> float:
    """log (4 n_d^4 c c')^{-1}, the ratio condition's bound on log h'(r)^2 / h'(5r)."""
    return -math.log(4.0 * n_d**4 * c * cp)


def _p1_ceiling(hp, n_d: int, c: float, cp: float, log_R0: float) -> float:
    """2 n_d^2 c c' h'(25 R0), the largest p1 the closure admits."""
    return 2.0 * n_d**2 * c * cp * math.exp(float(hp.log_value(log_R0 + math.log(25.0))))


def _min_log_R0(hp, n_d: int, c: float, cp: float) -> float:
    """Smallest log r from which h'(r)^2 / h'(5r) <= (4 n_d^4 c c')^{-1}, by
    geometric scan and bisection on the decreasing tail of the ratio."""
    thresh_log = _ratio_floor(n_d, c, cp)
    lo = 2.0 * LOG2
    if _log_square_ratio(hp, lo) <= thresh_log:
        return lo
    hi = lo
    while _log_square_ratio(hp, hi) > thresh_log:
        hi *= 2.0
        if hi > _LOG_R_CAP:
            raise ParameterError("no admissible R0 below the scan cap")
    lo_b = hi / 2.0
    for _ in range(200):
        mid = 0.5 * (lo_b + hi)
        if _log_square_ratio(hp, mid) > thresh_log:
            lo_b = mid
        else:
            hi = mid
    return hi


def find_closure(g: DecayFunction, delta: float, n_d: int, c: float = 36.0,
                 h_prime: DecayFunction | HFromG | None = None) -> ClosureResult:
    """Smallest admissible log R0 plus the matching p1 ceiling, with the scanned c'."""
    hp, cp = _closure_args(g, delta, n_d, c, h_prime)
    log_R0 = _min_log_R0(hp, n_d, c, cp)
    return ClosureResult(log_R0, min(1.0, _p1_ceiling(hp, n_d, c, cp, log_R0)), cp, n_d)


@dataclass
class RecursionReport:
    q: np.ndarray  # worst-case crossing bounds q_1..q_n
    invariant_bound: np.ndarray  # 2 n_d^2 c c' h'(5 R0 5^n)
    closure_r0_ok: bool
    closure_base_ok: bool
    invariant_ok: bool
    log_R0: float
    p1: float
    c_prime: float
    failures: list[str] = field(default_factory=list)
    log_R0_min: float | None = None
    p1_max: float | None = None

    @property
    def verdict(self) -> bool:
        return self.closure_r0_ok and self.closure_base_ok and self.invariant_ok


def run_recursion(g: DecayFunction, delta: float, n_d: int, c: float, R0: float | None,
                  p1: float, c_prime: float | None = None,
                  h_prime: DecayFunction | HFromG | None = None, n_steps: int = 40,
                  log_R0: float | None = None) -> RecursionReport:
    """Iterate q_{n+1} = n_d^2 q_n^2 + c n_d^2 h(R0 5^n) and audit the closure.

    Verifies the two closure conditions (the ratio condition at every scale the
    run touches, and p1 below its ceiling) and the induction invariant
    q_n <= 2 n_d^2 c c' h'(5 R0 5^n); on failure the report names the failing
    condition and the minimal R0 / maximal p1 that would fix it.
    """
    if not 0.0 <= p1 <= 1.0:
        raise ParameterError("p1 must be a probability")
    _check_count("n_steps", n_steps, MAX_SITES)  # a few floats per step
    hp, cp = _closure_args(g, delta, n_d, c, h_prime)
    log_R0 = _log_R0(R0, log_R0)
    h = HFromG(g, delta)
    cp = c_prime if c_prime is not None else cp
    if not (math.isfinite(cp) and cp > 0):
        raise ParameterError(f"c' must be finite and positive, got {cp!r}")
    M = 2.0 * n_d**2 * c * cp
    failures: list[str] = []

    scales = log_R0 + np.arange(0, n_steps + 2) * LOG5
    sq = _log_square_ratio(hp, scales)
    r0_ok = bool(np.all(sq <= _ratio_floor(n_d, c, cp) + 1e-12))
    log_R0_min = None
    if not r0_ok:
        log_R0_min = _min_log_R0(hp, n_d, c, cp)
        failures.append(
            f"ratio condition h'(r)^2/h'(5r) <= 1/(4 n_d^4 c c') fails at some scale >= R0; "
            f"minimal log R0 = {log_R0_min:.6g}"
        )
    p1_cap = _p1_ceiling(hp, n_d, c, cp, log_R0)
    base_ok = p1 <= p1_cap * (1.0 + 1e-12)
    if not base_ok:
        failures.append(f"initial bound fails: p1 = {p1:.3e} above ceiling {p1_cap:.3e}")

    q = np.empty(n_steps)
    q[0] = p1
    log_h_scales = np.asarray(h.log_value(scales[1:n_steps]))
    with np.errstate(under="ignore"):
        add = c * n_d**2 * np.exp(log_h_scales)
    for k in range(1, n_steps):
        q[k] = min(1.0, n_d**2 * q[k - 1] ** 2 + add[k - 1])
    with np.errstate(under="ignore", over="ignore"):
        inv = M * np.exp(np.asarray(hp.log_value(log_R0 + (np.arange(1, n_steps + 1) + 1) * LOG5)))
    inv_ok = bool(np.all(q <= np.minimum(inv, 1.0) * (1 + 1e-9) + 1e-300)) if (r0_ok and base_ok) else False
    if r0_ok and base_ok and not inv_ok:
        failures.append("induction invariant q_n <= 2 n_d^2 c c' h'(5 R0 5^n) failed")
    return RecursionReport(
        q=q, invariant_bound=inv, closure_r0_ok=r0_ok, closure_base_ok=base_ok,
        invariant_ok=inv_ok, log_R0=log_R0, p1=p1, c_prime=cp, failures=failures,
        log_R0_min=log_R0_min,
        p1_max=p1_cap,
    )


# ---------------------------------------------------------------------------
# Monte Carlo crossing drivers


@dataclass
class CrossingEstimate:
    estimate: float
    se: float
    n: int
    R: float
    ell: float
    kind: str
    thresholds: np.ndarray  # read-only: the threshold cache holds it


def _crossing_event(kind: str, R_sites: int, aspect: float):
    if R_sites < 2:
        raise ParameterError("grid too small: R must span at least two sites")
    if kind == "annulus":
        return AnnulusCrossing((0,) * 2, R_sites, 2 * R_sites)
    if kind == "one_arm":
        return AnnulusCrossing((0,) * 2, 0.0, R_sites)
    if kind in ("hcross", "vcross"):
        nx, ny = int(round(aspect * R_sites)), int(R_sites)
        if nx < 2:
            raise ParameterError(f"box too short: aspect {aspect!r} * R = {R_sites} sites rounds to {nx} < 2 sites")
        if kind == "vcross":
            nx, ny = ny, nx
        axis = 0 if kind == "hcross" else 1
        return BoxCrossing((0, 0), (nx - 1, ny - 1), axis=axis)
    raise ParameterError(f"unknown crossing kind {kind!r}")


def _support_grid(events, spacing: float) -> Grid:
    """The bounding box of the events' supports."""
    pts = np.array([p for ev in events for p in ev.support])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    return Grid(tuple(int(s) for s in hi - lo + 1), spacing, tuple(int(o) for o in lo))


def _crossing_estimates(model, event, radii, spacing: float, ell: float, n: int, seed: int, workers: int,
                        **finite) -> tuple[np.ndarray, list[mc.TermEstimate]]:
    """Thresholds of event(R in sites) per radius R on one circulant plan over the supports' bounding
    box, and P_ell from each; spacing, ell, the radii and the ``finite`` numbers must be finite."""
    if model.dim != 2:
        raise ParameterError("crossing drivers are implemented for d = 2")
    if not (math.isfinite(spacing) and spacing > 0):
        raise ParameterError(f"spacing must be finite and > 0, got {spacing!r}")
    for name, v in (("ell", ell), *(("R", r) for r in radii), *finite.items()):
        if not math.isfinite(v):
            raise ParameterError(f"{name} must be finite, got {v!r}")
    events = tuple(event(int(round(r / spacing))) for r in radii)
    T = mc.event_thresholds(plan_circulant(model, _support_grid(events, spacing), seed), events, n, workers)
    return T, [mc._mean_se((t <= ell).astype(float)) for t in T]


def estimate_crossing(model, spacing: float, ell: float, R: float, kind: str, n: int,
                      seed: int, aspect: float = 5.0, workers: int = 1) -> CrossingEstimate:
    """P_ell of an annulus / one-arm / box-crossing event at level 0 for f + ell.

    Implemented as a threshold comparison (event occurs iff threshold <= ell),
    which makes the estimate exactly nondecreasing in ell replicate by
    replicate.
    """
    T, (est,) = _crossing_estimates(model, lambda m: _crossing_event(kind, m, aspect), (R,), spacing, ell, n,
                                    seed, workers, aspect=aspect)
    return CrossingEstimate(est.value, est.se, n, R, ell, kind, T[0])


@dataclass
class DecayRow:
    R: float
    estimate: float
    se: float
    envelope: float


@dataclass
class DecayTable:
    rows: list[DecayRow]
    ell: float
    monotone_in_R: bool
    thresholds: np.ndarray  # read-only, one row per radius: the threshold cache holds it


def subcritical_decay_table(model, ell: float, R_values, n: int, seed: int,
                            h_prime: DecayFunction | HFromG | None = None,
                            spacing: float = 1.0, workers: int = 1) -> DecayTable:
    """One-arm probabilities at increasing R with a scaled decay envelope.

    All radii share one field per replicate (nested events), so the estimates
    are nonincreasing in R exactly, not just within noise.
    """
    Rs = sorted(float(r) for r in R_values)
    if not Rs:
        raise InputError("need at least one radius")
    T, ests = _crossing_estimates(model, lambda m: AnnulusCrossing((0, 0), 0.0, m), Rs, spacing, ell, n, seed,
                                  workers)
    rows = []
    env_scale = None
    for r, t in zip(Rs, ests):
        env = float("nan")
        if h_prime is not None:
            val = math.exp(float(h_prime.log_value(math.log(max(r, 1.0 + 1e-9)))))
            if env_scale is None:
                env_scale = (t.value / val) if val > 0 else 0.0
            env = env_scale * val
        rows.append(DecayRow(r, t.value, t.se, env))
    mono = all(rows[k].estimate >= rows[k + 1].estimate for k in range(len(rows) - 1))
    return DecayTable(rows, ell, mono, T)
