"""Command-line front end: experiment configs, verification runs, persistence.

Exit codes: 0 all verdicts pass (or pass-within-noise / not-applicable),
2 at least one fail verdict, 1 configuration or model errors.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import numbers
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import analytic, bootstrap, kernels, measures, mc
from .errors import ConfigError, SdlabError
from .events import AllAbove, BoxCrossing, event_from_dict, event_to_dict, lattice_ball
from .sampler import MAX_SITES, Grid, plan_circulant, plan_dense, write_snapshot

ENV_OUT = "SDLAB_OUT"


@dataclass(frozen=True)
class ExperimentConfig:
    theorem: str
    model: dict = field(default_factory=lambda: {"family": "iid", "d": 1})
    grid: dict | None = None
    events: tuple = ()
    eps: tuple = (0.5,)
    n: int = 10_000
    seed: int = 0
    workers: int = 1
    constant_mode: str = "proof-36"
    delta1: float = 0.5
    delta2: float = 0.25
    radius: float = 1.5

    def __post_init__(self):
        """ConfigError unless n >= 2 and workers are integers and eps, delta1, delta2 and radius
        numbers; the plans check the seed, and the verifiers the ranges."""
        def bad(x, kind=numbers.Real):
            return not isinstance(x, kind) or isinstance(x, bool)

        if bad(self.n, numbers.Integral) or self.n < 2:
            raise ConfigError(f"n must be an integer >= 2, got {self.n!r}")
        if not self.eps or any(map(bad, self.eps)):
            raise ConfigError(f"eps must hold at least one sprinkle value, all numbers, got {list(self.eps)!r}")
        if bad(self.workers, numbers.Integral) or any(map(bad, (self.delta1, self.delta2, self.radius))):
            raise ConfigError("workers must be an integer and delta1, delta2 and radius numbers, got "
                              f"{self.workers!r}, {self.delta1!r}, {self.delta2!r} and {self.radius!r}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        keys = [f.name for f in dataclasses.fields(ExperimentConfig)]
        if not isinstance(d, dict) or "theorem" not in d or set(d) - set(keys):
            unknown = sorted(set(d) - set(keys)) if isinstance(d, dict) else []
            raise ConfigError(f"config must be a JSON object with a theorem and no unknown keys "
                              f"(unknown: {unknown}); valid keys: {', '.join(keys)}")
        if not all(isinstance(d.get(k, []), list) for k in ("events", "eps")):
            raise ConfigError("config events and eps must be JSON lists")
        d["events"] = tuple(d.get("events", ()))
        d["eps"] = tuple(d.get("eps", (0.5,)))
        return ExperimentConfig(**d)

    @property
    def hash(self) -> str:
        # worker count is execution infrastructure: it must not change the
        # experiment identity (reports are byte-identical across worker counts)
        d = json.loads(self.to_json())
        d.pop("workers", None)
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]


def build_model(spec: dict) -> kernels.CovarianceModel:
    if not isinstance(spec, dict):
        raise ConfigError(f"model must be a JSON object, got {spec!r}")
    fam = spec.get("family", "iid")
    try:
        d = int(spec.get("d", 2))
        params = {k: float(spec[k]) for k in ("alpha", "gamma") if k in spec}
        matrix = np.asarray(spec.get("matrix", []), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model parameters must be numbers: {exc}") from None
    if fam in ("iid", "iid_standard"):
        return kernels.iid_standard(d)
    if fam in ("bf", "bargmann_fock"):
        return kernels.bargmann_fock(d)
    if fam == "gff":
        return kernels.gff(d)
    if fam == "cauchy":
        return kernels.cauchy(params.get("alpha", 2.0), d)
    if fam in ("wave", "monochromatic_wave"):
        return kernels.monochromatic_wave(d)
    if fam in ("polylog", "polylog_decay"):
        if "c" in spec:
            raise ConfigError("polylog model takes gamma only: K(0,x) = (log(e+|x|))^(-gamma) has no constant c")
        return kernels.polylog_decay(params.get("gamma", 3.5), d)
    if fam == "explicit":
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
            raise ConfigError("explicit model needs a nonempty square matrix")
        return kernels.explicit(matrix)
    raise ConfigError(f"unknown model family {fam!r}; valid: iid, bf, gff, cauchy, wave, polylog, explicit")


def _grid(config: ExperimentConfig) -> Grid:
    g = config.grid
    if not isinstance(g, dict) or "shape" not in g:
        raise ConfigError(f"{config.theorem} needs a grid with a shape")
    return Grid(g["shape"], g.get("spacing", 1.0), g.get("origin"))


def build_plan(config: ExperimentConfig, events):
    """Circulant plan on the config's grid, else a dense plan: over every index
    of an explicit matrix, or over the union of the event supports."""
    model = build_model(config.model)
    if config.grid is not None:
        return plan_circulant(model, _grid(config), config.seed)
    if model.family == "explicit":
        pts = [(i,) for i in range(model.matrix.shape[0])]
    else:
        pts = sorted({p for ev in events for p in ev.support})
    cov = kernels.build_cov_matrix(model, pts)
    return plan_dense(cov, config.seed, pts)


# ---------------------------------------------------------------------------
# theorem registry: one entry per theorem id


@dataclass(frozen=True)
class TheoremSpec:
    """A theorem id's title, built-in desk instance and verifier.

    ``defaults`` are the ExperimentConfig fields of the desk instance.
    ``run(config, events)`` calls the theorem's ``mc.verify_*`` function, which
    reads the first ``n_events`` events.
    """

    title: str
    defaults: dict
    run: Callable[[ExperimentConfig, tuple], mc.InequalityReport]
    n_events: int = 2


def _above(sites, level: float = 0.0) -> dict:
    return event_to_dict(AllAbove(tuple((i,) for i in sites), level))


_IID8 = {"model": {"family": "iid", "d": 1}, "events": (_above(range(4)), _above(range(4, 8)))}
_PAIR = {"model": {"family": "explicit", "matrix": [[1.0, 1.0], [1.0, 1.0]]},
         "events": (_above([0]), _above([1]))}
_BF_BLOCKS = {
    "model": {"family": "bf", "d": 2},
    "grid": {"shape": [24, 24], "spacing": 0.5},
    "events": (event_to_dict(BoxCrossing((0, 0), (4, 4), 0)),
               event_to_dict(BoxCrossing((19, 19), (23, 23), 0))),
}

# runners look mc.verify_* up when called, so a wrapped (traced) verifier is reached
THEOREMS: dict[str, TheoremSpec] = {
    # eps = (e1, e2); a single value sprinkles both events
    "thm1.1": TheoremSpec(
        "sprinkled decoupling inequality", dict(_IID8, eps=(0.5, 0.5)),
        lambda c, ev: mc.verify_sprinkled(build_plan(c, ev), ev[0], ev[1], c.eps[0], c.eps[:2][-1],
                                          c.n, c.constant_mode, c.workers)),
    "prop2.2": TheoremSpec(
        "threshold covariance bounds", _PAIR,
        lambda c, ev: mc.verify_threshold_cov(build_plan(c, ev), ev[0], ev[1], c.n, c.workers)),
    "hoeffding": TheoremSpec(
        "Hoeffding covariance formula", _PAIR,
        lambda c, ev: mc.verify_hoeffding(build_plan(c, ev), ev[0], ev[1], c.n, c.workers)),
    "pa": TheoremSpec(
        "local positive association", dict(_PAIR, events=(_above([0], 1.0), _above([1], 1.0))),
        lambda c, ev: mc.verify_positive_association(build_plan(c, ev), ev[0], ev[1], c.n, c.workers)),
    # interp reads no event; its events place the points of a non-explicit model
    "interp": TheoremSpec(
        "interpolation covariance identity",
        {"model": {"family": "explicit", "matrix": [[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]]},
         "events": (_above([0]), _above([1]))},
        lambda c, ev: mc.verify_interp_formula(build_plan(c, ev), c.n), n_events=0),
    "prop1.8": TheoremSpec(
        "finite-range sprinkled decoupling", dict(_BF_BLOCKS, eps=(1.0,), radius=1.5),
        lambda c, ev: mc.verify_finite_range(build_model(c.model), _grid(c), c.radius, ev[0], ev[1],
                                             c.eps[0], c.n, c.seed, c.workers)),
    "thm1.7": TheoremSpec(
        "maximum-correlation sprinkled decoupling", dict(_IID8, eps=(0.5,)),
        lambda c, ev: mc.verify_sdi2(build_plan(c, ev), ev[0], ev[1], c.eps[0], c.n, c.workers)),
    "thm1.10": TheoremSpec(
        "errorless sprinkled decoupling", dict(_BF_BLOCKS, delta1=0.5, delta2=0.25),
        lambda c, ev: mc.verify_sdi3(build_plan(c, ev), ev[0], ev[1], c.delta1, c.delta2, c.n, c.workers)),
    "cor2.6": TheoremSpec(
        "Gaussian isoperimetric enlargement",
        {"model": {"family": "explicit", "matrix": [[1.0]]}, "events": (_above([0]),), "eps": (0.3,)},
        lambda c, ev: mc.verify_isoperimetric(build_plan(c, ev), ev[0], c.eps[0], c.n, c.workers),
        n_events=1),
    "cor2.7": TheoremSpec(
        "Gaussian noise stability", _IID8,
        lambda c, ev: mc.verify_noise_stability(build_plan(c, ev), ev[0], ev[1], c.n, c.workers)),
}
THEOREM_IDS = tuple(THEOREMS)


def _theorem(theorem) -> TheoremSpec:
    spec = THEOREMS.get(theorem) if isinstance(theorem, str) else None
    if spec is None:
        raise ConfigError(f"unknown theorem id {theorem!r}; valid ids: {', '.join(THEOREMS)}")
    return spec


def default_config(theorem: str, n: int, seed: int, workers: int) -> ExperimentConfig:
    """Built-in desk instance per theorem id (used by verify defaults and suites)."""
    defaults = copy.deepcopy(_theorem(theorem).defaults)
    return ExperimentConfig(theorem=theorem, n=n, seed=seed, workers=workers, **defaults)


def run_config(config: ExperimentConfig) -> mc.InequalityReport:
    """Validate the config against its theorem's registry entry, then verify; wall_time_s times the run."""
    spec = _theorem(config.theorem)
    events = tuple(event_from_dict(d) for d in config.events)
    if len(events) < spec.n_events:
        raise ConfigError(f"{config.theorem} reads {spec.n_events} events; the config has {len(events)}")
    t0 = time.perf_counter()
    report = spec.run(config, events)
    report.wall_time_s = time.perf_counter() - t0
    return report


def _report_json(report: mc.InequalityReport, config: ExperimentConfig) -> str:
    d = report.to_dict()
    d["title"] = THEOREMS[report.theorem_id].title
    d["config_hash"] = config.hash
    d["meta"]["timestamp"] = time.time()
    return json.dumps(d, sort_keys=True, indent=1)


def _out_dir(args) -> str:
    out = getattr(args, "out", None) or os.environ.get(ENV_OUT, ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write(args, name: str, text: str) -> str:
    """Write ``text`` to the file ``name`` of the output directory; return its path."""
    path = os.path.join(_out_dir(args), name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _numbers(option: str, text: str | None, kind=float) -> list:
    """A command-line option's comma-separated list of ``kind`` numbers."""
    try:
        return [kind(v) for v in text.split(",")]
    except (AttributeError, ValueError):  # AttributeError: the option was not given
        raise ConfigError(f"{option} must be comma-separated {kind.__name__} values, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    try:
        spec = json.loads(args.model) if args.model.startswith("{") else {"family": args.model, "d": args.d}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--model must be a family name or a JSON object: {exc}") from None
    model = build_model(spec)
    grid = Grid(_numbers("--shape", args.shape, int), args.spacing)
    plan = plan_circulant(model, grid, args.seed)
    values = plan.draw_batch([args.replicate])[0]
    out = os.path.join(_out_dir(args), args.file)
    write_snapshot(out, values, grid, args.seed, args.replicate, model.family)
    print(f"wrote {out}: {values.size} values")
    return 0


def cmd_bvn(args) -> int:
    val = analytic.bivariate_cdf(args.rho, args.u, args.v)
    out = {"rho": args.rho, "u": args.u, "v": args.v, "cdf": val}
    if abs(args.rho) < 1.0:
        du, dv, dr = analytic.bivariate_cdf_derivs(args.rho, args.u, args.v)
        out.update({"d_du": du, "d_dv": dv, "d_drho": dr})
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_negbound(args) -> int:
    if not (np.isfinite(args.u_step) and args.u_step > 0 and np.isfinite(args.u_max)
            and args.u_max >= args.u_step):
        raise ConfigError(f"--u-step must be finite and > 0 and --u-max finite and >= it, "
                          f"got {args.u_step} and {args.u_max}")
    if (args.u_max + 1e-12 - args.u_step) / args.u_step > MAX_SITES:  # np.arange's row count, before its ceil
        raise ConfigError(f"--u-max {args.u_max} at --u-step {args.u_step} makes more rows than "
                          f"MAX_SITES = {MAX_SITES}")
    u = np.arange(args.u_step, args.u_max + 1e-12, args.u_step)
    table = analytic.neg_bound_scan(args.kappa, u)
    text = "u,r,exponent\n" + "".join(f"{uu:.6g},{r:.17g},{ex:.12g}\n" for uu, r, ex in table.rows())
    if args.file:
        print(f"wrote {_write(args, args.file, text)}")
    else:
        sys.stdout.write(text)
    try:
        fit = analytic.fit_limiting_exponent(table)
        print(f"# fitted limiting exponent: {fit:.6f}", file=sys.stderr)
    except SdlabError as exc:
        print(f"# limiting exponent not extrapolated: {exc}", file=sys.stderr)
    return 0


def _read_matrix(path: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt warns, not raises, on an empty file
            return np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError, UserWarning) as exc:
        raise ConfigError(f"--matrix {path!r} is not a readable numeric CSV: {exc}") from None


def _solver_input(args, shifts) -> tuple[np.ndarray, list[list[int]]]:
    """The --matrix CSV with no index sets, else the model's covariance on the lattice balls of
    radius --ball shifted by each of ``shifts`` along axis 0, with each ball's indices."""
    if args.matrix:
        return _read_matrix(args.matrix), []
    model = build_model({"family": args.model, "d": args.d})
    ball = lattice_ball((0,) * args.d, args.ball)
    reach = max((p[0] for p in ball), default=-1)  # the ball spans -reach to reach along axis 0
    if len(shifts) > 1 and abs(shifts[1] - shifts[0]) <= 2 * reach:
        raise ConfigError(f"--dist {args.dist} must exceed {2 * reach}, the width of the --ball {args.ball} "
                          "lattice ball along axis 0: the two shifted balls overlap")
    K = kernels.build_cov_matrix(model, [(p[0] + s, *p[1:]) for s in shifts for p in ball])
    return K, [list(range(k * len(ball), (k + 1) * len(ball))) for k in range(len(shifts))]


def cmd_capacity(args) -> int:
    K, balls = _solver_input(args, (0,))
    idx = balls[0] if balls else (_numbers("--set", args.set, int) if args.set else None)
    res = measures.capacity(K, idx, tol=args.tol)
    print(json.dumps({
        "capacity": res.value, "energy": res.energy, "gap": res.gap,
        "iterations": res.iterations, "converged": res.converged,
        "infinite": res.infinite,
    }, sort_keys=True))
    return 0


def cmd_maxcorr(args) -> int:
    K, balls = _solver_input(args, (0, args.dist))
    i1, i2 = balls or (_numbers("--i1", args.i1, int), _numbers("--i2", args.i2, int))
    res = measures.max_corr(K, i1, i2, None if args.ridge < 0 else args.ridge)
    print(json.dumps({"rho": res.rho, "ridge": res.ridge}, sort_keys=True))
    return 0


def _exit_code(verdicts) -> int:
    return 2 if any(v == mc.VERDICT_FAIL for v in verdicts) else 0


def cmd_verify(args) -> int:
    if args.config:
        try:
            with open(args.config) as fh:
                config = ExperimentConfig.from_json(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        if args.theorem and args.theorem != config.theorem:
            raise ConfigError("theorem id on the command line conflicts with the config file")
    elif args.theorem is None:
        raise ConfigError("verify needs a theorem id or --config")
    else:
        config = default_config(args.theorem, args.n, args.seed, args.workers)
        if args.eps is not None:
            config = dataclasses.replace(config, eps=tuple(_numbers("--eps", args.eps)))
        if args.model:
            config = dataclasses.replace(config, model={"family": args.model, "d": args.d})
    report = run_config(config)
    out = _write(args, f"{config.theorem.replace('.', '_')}_{config.hash}.json", _report_json(report, config))
    print(f"{config.theorem}: {report.verdict} (slack={report.slack:.4g}, se={report.se:.4g}) -> {out}")
    return _exit_code([report.verdict])


def _run_suite(args, n: int, csv_name: str) -> int:
    """Run every theorem's desk instance once; one report per id plus a CSV summary."""
    rows, verdicts = [], []
    for tid in THEOREMS:
        config = default_config(tid, n, args.seed, args.workers)
        report = run_config(config)
        _write(args, f"{tid.replace('.', '_')}.json", _report_json(report, config))
        rows.append(f"{tid},{report.slack:.10g},{report.se:.10g},{report.verdict}")
        verdicts.append(report.verdict)
        print(rows[-1])
    path = _write(args, csv_name, "theorem_id,slack,se,verdict\n" + "\n".join(rows) + "\n")
    print(f"wrote {path}: {verdicts.count(mc.VERDICT_FAIL)} fail verdicts")
    return _exit_code(verdicts)


def cmd_verify_all(args) -> int:
    return _run_suite(args, args.n, "summary.csv")


def cmd_suite(args) -> int:
    return _run_suite(args, 10_000 if args.set == "smoke" else 100_000, f"suite_{args.set}.csv")


def cmd_schedule(args) -> int:
    sched = bootstrap.sprinkle_schedule(args.R0, args.delta, args.ell_prime, args.n_max, log_R0=args.log_R0)
    text = "n,ell\n" + "".join(f"{i},{v:.17g}\n" for i, v in enumerate(sched.levels, 1))
    print(json.dumps({"ell_inf_lower": sched.ell_inf_lower, "tail_bound": sched.tail_bound}, sort_keys=True))
    print(f"wrote {_write(args, 'schedule.csv', text)}")
    return 0


def cmd_run_recursion(args) -> int:
    g = bootstrap.decay_from_string(args.g)
    hp = bootstrap.decay_from_string(args.h_prime) if args.h_prime else None
    n_d = args.n_d if args.n_d is not None else bootstrap.annulus_covering(args.d, 1.0).n_d
    R0, log_R0, p1 = args.R0, args.log_R0, args.p1
    if log_R0 is None and R0 is None:
        closure = bootstrap.find_closure(g, args.delta, n_d, args.c, hp)
        log_R0 = closure.log_R0_min
        p1 = closure.p1_max if p1 is None else p1
    elif p1 is None:
        p1 = 1e-6
    rep = bootstrap.run_recursion(g, args.delta, n_d, args.c, R0, p1, h_prime=hp,
                                  n_steps=args.n_steps, log_R0=log_R0)
    sched = bootstrap.sprinkle_schedule(None, args.delta, args.ell_prime, 1000, log_R0=rep.log_R0)
    cert = {
        "n_d": n_d, "c": args.c, "c_prime": rep.c_prime, "log_R0": rep.log_R0,
        "p1": rep.p1, "closure_r0_ok": rep.closure_r0_ok, "closure_base_ok": rep.closure_base_ok,
        "invariant_ok": rep.invariant_ok, "verdict": rep.verdict,
        "q_first": rep.q[0], "q_last": rep.q[-1], "failures": rep.failures,
        "ell_inf_lower": sched.ell_inf_lower,
    }
    _write(args, "recursion_certificate.json", json.dumps(cert, sort_keys=True, indent=1))
    print(json.dumps(cert, sort_keys=True))
    return 0 if rep.verdict else 2


def cmd_crossing(args) -> int:
    model = build_model({"family": args.model, "d": 2})
    est = bootstrap.estimate_crossing(model, args.spacing, args.ell, args.R, args.kind, args.n, args.seed,
                                      aspect=args.aspect, workers=args.workers)
    print(json.dumps({"estimate": est.estimate, "se": est.se, "n": est.n,
                      "R": est.R, "ell": est.ell, "kind": est.kind}, sort_keys=True))
    return 0


def cmd_decay_table(args) -> int:
    model = build_model({"family": args.model, "d": 2})
    hp = bootstrap.decay_from_string(args.h_prime) if args.h_prime else None
    table = bootstrap.subcritical_decay_table(model, args.ell, _numbers("--Rs", args.Rs), args.n, args.seed,
                                              h_prime=hp, spacing=args.spacing, workers=args.workers)
    text = "R,estimate,se,envelope\n" + "".join(
        f"{r.R:.6g},{r.estimate:.10g},{r.se:.10g},{r.envelope:.10g}\n" for r in table.rows)
    print(f"wrote {_write(args, 'decay_table.csv', text)} (monotone in R: {table.monotone_in_R})")
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sdlab", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT} or .)")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    seeded.add_argument("--workers", type=int, default=1)
    solver = argparse.ArgumentParser(add_help=False)  # a CSV matrix, else a model on a lattice ball
    solver.add_argument("--matrix", default=None, help="CSV covariance matrix")
    solver.add_argument("--model", default="gff")
    solver.add_argument("--d", type=int, default=3)
    solver.add_argument("--ball", type=float, default=4.0)
    closure = argparse.ArgumentParser(add_help=False)
    closure.add_argument("--R0", type=float, default=None)
    closure.add_argument("--log-R0", dest="log_R0", type=float, default=None)
    closure.add_argument("--delta", type=float, default=0.25)
    closure.add_argument("--ell-prime", dest="ell_prime", type=float, default=-1.0)

    sp = sub.add_parser("sample", parents=[out], help="write a field snapshot")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--model", default="bf")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--shape", default="32,32")
    sp.add_argument("--spacing", type=float, default=1.0)
    sp.add_argument("--replicate", type=int, default=0)
    sp.add_argument("--file", default="field.snap")
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("bvn", help="bivariate normal cdf and derivatives")
    sp.add_argument("rho", type=float)
    sp.add_argument("u", type=float)
    sp.add_argument("v", type=float)
    sp.set_defaults(fn=cmd_bvn)

    sp = sub.add_parser("negbound", parents=[out], help="tail-gap scan table as CSV")
    sp.add_argument("--kappa", type=float, default=0.293)
    sp.add_argument("--u-max", type=float, default=40.0)
    sp.add_argument("--u-step", type=float, default=1.0)
    sp.add_argument("--file", default=None)
    sp.set_defaults(fn=cmd_negbound)

    sp = sub.add_parser("capacity", parents=[out, solver], help="simplex-energy capacity of an index set")
    sp.add_argument("--set", default=None, help="comma-separated indices into the matrix")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(fn=cmd_capacity)

    sp = sub.add_parser("maxcorr", parents=[out, solver], help="maximum correlation coefficient between blocks")
    sp.add_argument("--i1", default=None)
    sp.add_argument("--i2", default=None)
    sp.add_argument("--dist", type=int, default=12)
    sp.add_argument("--ridge", type=float, default=-1.0, help="negative means automatic")
    sp.set_defaults(fn=cmd_maxcorr)

    sp = sub.add_parser("verify", parents=[out, seeded], help="run one theorem verification")
    sp.add_argument("theorem", nargs="?", default=None, choices=THEOREM_IDS)
    sp.add_argument("--config", default=None, help="JSON experiment config file")
    sp.add_argument("--model", default=None)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--eps", default=None, help="comma-separated sprinkle values")
    sp.add_argument("-n", type=int, default=100_000)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("verify-all", parents=[out, seeded], help="run every theorem id once")
    sp.add_argument("-n", type=int, default=10_000)
    sp.set_defaults(fn=cmd_verify_all)

    sp = sub.add_parser("suite", parents=[out, seeded], help="built-in config sets")
    sp.add_argument("set", choices=("smoke", "full"))
    sp.set_defaults(fn=cmd_suite)

    sp = sub.add_parser("bootstrap", help="multi-scale recursion tools")
    boot = sp.add_subparsers(dest="boot_cmd", required=True)

    bp = boot.add_parser("schedule", parents=[out, closure])
    bp.add_argument("--n-max", dest="n_max", type=int, default=1000)
    bp.set_defaults(fn=cmd_schedule)

    bp = boot.add_parser("run-recursion", parents=[out, closure])
    bp.add_argument("--g", default="polylog:3.5")
    bp.add_argument("--h-prime", dest="h_prime", default=None)
    bp.add_argument("--d", type=int, default=2)
    bp.add_argument("--n-d", dest="n_d", type=int, default=None)
    bp.add_argument("--c", type=float, default=36.0)
    bp.add_argument("--p1", type=float, default=None,
                    help="default: the closure's ceiling, or 1e-6 with --R0/--log-R0")
    bp.add_argument("--n-steps", dest="n_steps", type=int, default=40)
    bp.set_defaults(fn=cmd_run_recursion)

    bp = boot.add_parser("crossing", parents=[out, seeded])
    bp.add_argument("--model", default="bf")
    bp.add_argument("--spacing", type=float, default=0.5)
    bp.add_argument("--ell", type=float, default=0.0)
    bp.add_argument("--R", type=float, default=32.0)
    bp.add_argument("--kind", default="hcross",
                    choices=("annulus", "one_arm", "hcross", "vcross"))
    bp.add_argument("--aspect", type=float, default=5.0)
    bp.add_argument("-n", type=int, default=2000)
    bp.set_defaults(fn=cmd_crossing)

    bp = boot.add_parser("decay-table", parents=[out, seeded])
    bp.add_argument("--model", default="bf")
    bp.add_argument("--spacing", type=float, default=1.0)
    bp.add_argument("--ell", type=float, default=-0.5)
    bp.add_argument("--Rs", default="8,16,32")
    bp.add_argument("--h-prime", dest="h_prime", default=None)
    bp.add_argument("-n", type=int, default=2000)
    bp.set_defaults(fn=cmd_decay_table)

    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SdlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
