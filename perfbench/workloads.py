"""The four benchmark workloads: inputs from a seed, one pass, output checks, digests.

Each workload has four parts, called by ``worker.py`` in one fresh interpreter:

* ``setup(seed, workdir)`` builds the pass inputs from the seed (untimed part of
  ``setup_s``, together with ``import sdlab``);
* ``run(inputs)`` is the timed pass, the work a user waits for;
* ``check(outputs)`` returns one ``(operation, failure)`` pair per operation,
  ``failure`` being ``None`` when the operation's outputs are correct;
* ``digests(outputs)`` maps each operation to a digest of its outputs minus
  volatile fields, so repetitions with one seed can be compared.

The check functions take plain data (dicts, numbers), so the benchmark's own
test can feed them doctored results without running a workload.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = ROOT / "docs" / "report.schema.json"

SMOKE_IDS = ("thm1.1", "prop2.2", "hoeffding", "pa", "interp",
             "prop1.8", "thm1.7", "thm1.10", "cor2.6", "cor2.7")
DENSE_IDS = ("thm1.1", "prop2.2", "hoeffding", "pa", "interp", "thm1.7", "cor2.6", "cor2.7")
VERIFY_N = 100_000  # the `sdlab verify` default

CROSSING_LEVELS = (-0.2, -0.1, 0.0, 0.1, 0.2)
CROSSING_N = 2000
CROSSING_R = 16.0  # 32 x 32 sites at spacing 0.5, on a 64^2 torus
ONE_ARM_RS = (4, 8, 16)
ONE_ARM_LEVEL = -0.5

GFF_BALLS = (2, 4, 6)
PAIR_R, PAIR_DIST = 4, 12  # the `sdlab maxcorr` defaults
CAP_TOL = {"ball": 1e-9, "psd": 1e-10, "identity": 1e-12, "two_point": 1e-12}


def digest(obj) -> str:
    """sha256 of canonical JSON; floats keep every digit through repr."""
    text = json.dumps(obj, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(o):
    if hasattr(o, "tolist"):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _schema_validator():
    import jsonschema

    schema = json.loads(SCHEMA_PATH.read_text())
    return jsonschema.Draft202012Validator(schema)


def check_reports(reports: dict, ids) -> list[tuple[str, str | None]]:
    """One operation per theorem id: the report exists, validates, and does not fail.

    ``reports`` maps a theorem id to its report dict as the CLI writes it, or to
    a string naming why no report was produced.
    """
    validator = _schema_validator()
    ops = []
    for tid in ids:
        rep = reports.get(tid)
        if rep is None:
            ops.append((tid, "no report"))
        elif isinstance(rep, str):
            ops.append((tid, rep))
        else:
            errors = sorted(e.message for e in validator.iter_errors(rep))
            if errors:
                ops.append((tid, "schema: " + errors[0]))
            elif rep.get("theorem_id") != tid:
                ops.append((tid, f"report is for {rep.get('theorem_id')!r}"))
            elif rep["verdict"] == "fail":
                ops.append((tid, f"fail verdict (slack {rep['slack']}, se {rep['se']})"))
            else:
                ops.append((tid, None))
    return ops


def report_digests(reports: dict) -> dict[str, str]:
    out = {}
    for tid, rep in reports.items():
        if isinstance(rep, dict):
            out[tid] = digest({k: v for k, v in rep.items() if k != "meta"})
    return out


# ---------------------------------------------------------------------------
# smoke: `sdlab suite smoke`, the user path


class Smoke:
    name = "smoke"

    def setup(self, seed: int, workdir: Path) -> dict:
        out = workdir / "smoke"
        argv = ["suite", "smoke", "--seed", str(seed), "--workers", "1", "--out", str(out)]
        return {"argv": argv, "out": out}

    def run(self, inputs: dict) -> dict:
        from sdlab import cli

        try:
            code = cli.main(inputs["argv"])
        except Exception as exc:  # a traceback fails every operation of the pass
            code = _failure(exc)
        return {"code": code, "out": inputs["out"]}

    @staticmethod
    def load(outputs: dict) -> dict:
        reports = {}
        for tid in SMOKE_IDS:
            path = Path(outputs["out"]) / f"{tid.replace('.', '_')}.json"
            if path.exists():
                reports[tid] = json.loads(path.read_text())
        return reports

    def check(self, outputs: dict) -> list[tuple[str, str | None]]:
        return check_smoke(outputs["code"], self.load(outputs))

    def digests(self, outputs: dict) -> dict[str, str]:
        out = report_digests(self.load(outputs))
        csv = Path(outputs["out"]) / "suite_smoke.csv"
        if csv.exists():
            out["suite_smoke.csv"] = digest(csv.read_text())
        return out


def check_smoke(code, reports: dict) -> list[tuple[str, str | None]]:
    ops = check_reports(reports, SMOKE_IDS)
    ops.append(("exit-code", None if code == 0 else f"exit code {code}"))
    return ops


# ---------------------------------------------------------------------------
# verify-dense: the dense-plan theorem ids at the `sdlab verify` default n


class VerifyDense:
    name = "verify-dense"

    def setup(self, seed: int, workdir: Path) -> dict:
        from sdlab import cli

        return {"configs": [cli.default_config(tid, VERIFY_N, seed, 1) for tid in DENSE_IDS]}

    def run(self, inputs: dict) -> dict:
        from sdlab import cli

        results = []
        for config in inputs["configs"]:
            try:
                results.append((config, cli.run_config(config)))
            except Exception as exc:
                results.append((config, _failure(exc)))
        return {"results": results}

    @staticmethod
    def load(outputs: dict) -> dict:
        from sdlab import cli

        reports = {}
        for config, rep in outputs["results"]:
            # the report exactly as `sdlab verify` writes it
            reports[config.theorem] = rep if isinstance(rep, str) else json.loads(cli._report_json(rep, config))
        return reports

    def check(self, outputs: dict) -> list[tuple[str, str | None]]:
        return check_reports(self.load(outputs), DENSE_IDS)

    def digests(self, outputs: dict) -> dict[str, str]:
        return report_digests(self.load(outputs))


# ---------------------------------------------------------------------------
# crossing: criterion 9's percolation desk experiment, swept over levels


class Crossing:
    name = "crossing"

    def setup(self, seed: int, workdir: Path) -> dict:
        from sdlab import kernels

        return {"model": kernels.bargmann_fock(2), "seed": seed}

    def run(self, inputs: dict) -> dict:
        from sdlab import bootstrap

        model, seed = inputs["model"], inputs["seed"]
        out = {}
        for ell in CROSSING_LEVELS:
            try:
                est = bootstrap.estimate_crossing(model, 0.5, ell, CROSSING_R, "hcross", CROSSING_N,
                                                  seed, aspect=1.0, workers=1)
                out[f"ell={ell:g}"] = {"estimate": est.estimate, "se": est.se, "ell": ell}
            except Exception as exc:
                out[f"ell={ell:g}"] = _failure(exc)
        try:
            table = bootstrap.subcritical_decay_table(model, ONE_ARM_LEVEL, ONE_ARM_RS, CROSSING_N,
                                                      seed, workers=1)
            out["one-arm"] = {"rows": [[r.R, r.estimate, r.se] for r in table.rows],
                              "monotone_in_R": table.monotone_in_R}
        except Exception as exc:
            out["one-arm"] = _failure(exc)
        return out

    def check(self, outputs: dict) -> list[tuple[str, str | None]]:
        return check_crossing(outputs)

    def digests(self, outputs: dict) -> dict[str, str]:
        return {k: digest(v) for k, v in outputs.items() if isinstance(v, dict)}


def check_crossing(outputs: dict) -> list[tuple[str, str | None]]:
    """Criterion 9's invariants: square crossing near 1/2 at ell = 0,
    estimates nondecreasing in ell, one-arm estimates nonincreasing in R."""
    ops = []
    prev = None
    for ell in CROSSING_LEVELS:
        key = f"ell={ell:g}"
        res = outputs.get(key)
        if not isinstance(res, dict):
            ops.append((key, res or "no estimate"))
            continue
        est = res["estimate"]
        fail = None
        if not 0.0 <= est <= 1.0:
            fail = f"estimate {est} outside [0, 1]"
        elif ell == 0.0 and not 0.4 <= est <= 0.6:
            fail = f"square crossing {est} outside [0.4, 0.6]"
        elif prev is not None and est < prev:
            fail = f"estimate {est} below {prev} at the previous level"
        ops.append((key, fail))
        prev = est
    table = outputs.get("one-arm")
    if not isinstance(table, dict):
        ops.append(("one-arm", table or "no table"))
    else:
        ests = [row[1] for row in table["rows"]]
        mono = all(a >= b for a, b in zip(ests, ests[1:]))
        if not table["monotone_in_R"]:
            ops.append(("one-arm", "monotone_in_R is false"))
        elif not mono:
            ops.append(("one-arm", f"estimates {ests} increase with R"))
        else:
            ops.append(("one-arm", None))
    return ops


# ---------------------------------------------------------------------------
# solvers: the deterministic layers, no Monte Carlo


def ball_points(R: int, d: int = 3, center=None) -> list[tuple[int, ...]]:
    """Lattice points of the Euclidean ball of radius R (criterion 3's balls)."""
    c = center or (0,) * d
    rng = range(-R, R + 1)
    return [tuple(ci + o for ci, o in zip(c, off)) for off in itertools.product(rng, repeat=d)
            if sum(o * o for o in off) <= R * R]


class Solvers:
    name = "solvers"

    def setup(self, seed: int, workdir: Path) -> dict:
        import numpy as np
        from sdlab import kernels

        rng = np.random.default_rng(seed)
        m = 24
        A = rng.standard_normal((m, m))
        psd = A @ A.T / m
        psd = 0.5 * (psd + psd.T)
        p1 = ball_points(PAIR_R)
        p2 = [(x + PAIR_DIST, y, z) for x, y, z in p1]
        bvn = [(float(rng.uniform(-0.95, 0.95)), float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
               for _ in range(48)]
        zero = [(0.0, float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))) for _ in range(16)]
        return {
            "model": kernels.gff(3),
            "balls": {R: ball_points(R) for R in GFF_BALLS},
            "pair": (p1, p2),
            "psd": psd,
            "identity_m": int(rng.integers(5, 21)),
            "two_point_r": float(rng.uniform(-0.9, 0.9)),
            "bvn": bvn + zero,
        }

    def run(self, inputs: dict) -> dict:
        import numpy as np
        from sdlab import analytic, bootstrap, kernels, measures

        out = {}

        def op(name, fn):
            try:
                out[name] = fn()
            except Exception as exc:
                out[name] = _failure(exc)

        model = inputs["model"]
        covs = {}

        def cov(key, pts):
            covs[key] = kernels.build_cov_matrix(model, pts)
            return {"shape": list(covs[key].shape), "trace": float(np.trace(covs[key]))}

        def cap(K, tol):
            res = measures.capacity(K, tol=tol)
            return {"value": res.value, "energy": res.energy, "gap": res.gap, "tol": tol,
                    "iterations": res.iterations, "converged": res.converged}

        for R, pts in inputs["balls"].items():
            op(f"cov:ball{R}", lambda: cov(R, pts))
        p1, p2 = inputs["pair"]
        op("cov:pair", lambda: cov("pair", p1 + p2))
        for R in inputs["balls"]:
            op(f"capacity:ball{R}", lambda: cap(covs[R], CAP_TOL["ball"]))
        op("capacity:psd", lambda: cap(inputs["psd"], CAP_TOL["psd"]))
        m = inputs["identity_m"]
        op("capacity:identity", lambda: dict(cap(np.eye(m), CAP_TOL["identity"]), m=m))
        r = inputs["two_point_r"]
        op("capacity:two_point",
           lambda: dict(cap(np.array([[1.0, r], [r, 1.0]]), CAP_TOL["two_point"]), r=r))
        i1 = list(range(len(p1)))
        i2 = list(range(len(p1), len(p1) + len(p2)))
        op("max_corr", lambda: {"rho": measures.max_corr(covs["pair"], i1, i2).rho})

        def chain():
            rep = measures.bound_chain_report(covs["pair"], i1, i2, gff_model=True)
            return {"passed": rep.passed, "rho": rep.rho,
                    "checks": [[c.name, c.lhs, c.rhs, c.passed] for c in rep.checks]}

        op("bound_chain", chain)

        def bvn():
            rows = []
            for rho, u, v in inputs["bvn"]:
                rows.append([rho, u, v, analytic.bivariate_cdf(rho, u, v), analytic.bivariate_cdf(rho, v, u),
                             float(analytic.std_cdf(u) * analytic.std_cdf(v)),
                             list(analytic.bivariate_cdf_derivs(rho, u, v))])
            return {"rows": rows}

        op("bvn", bvn)

        def recursion():
            g, hp = bootstrap.polylog(3.5), bootstrap.loginv(0.5)
            n_d = bootstrap.annulus_covering(2, 1.0).n_d
            closure = bootstrap.find_closure(g, 0.25, n_d, 36.0, hp)
            rep = bootstrap.run_recursion(g, 0.25, n_d, 36.0, None, closure.p1_max, h_prime=hp,
                                          n_steps=25, log_R0=closure.log_R0_min)
            sched = bootstrap.sprinkle_schedule(None, 0.25, -1.0, 500, log_R0=closure.log_R0_min)
            return {"log_R0": closure.log_R0_min, "p1": closure.p1_max, "verdict": rep.verdict,
                    "q": rep.q.tolist(), "ell_inf_lower": sched.ell_inf_lower}

        op("recursion", recursion)
        return out

    def check(self, outputs: dict) -> list[tuple[str, str | None]]:
        return check_solvers(outputs)

    def digests(self, outputs: dict) -> dict[str, str]:
        return {k: digest(v) for k, v in outputs.items() if isinstance(v, dict)}


SOLVER_OPS = (tuple(f"cov:ball{R}" for R in GFF_BALLS) + ("cov:pair",)
              + tuple(f"capacity:ball{R}" for R in GFF_BALLS)
              + ("capacity:psd", "capacity:identity", "capacity:two_point",
                 "max_corr", "bound_chain", "bvn", "recursion"))


def _check_solver(name: str, res: dict) -> str | None:
    if name.startswith("capacity:"):
        if not res["converged"]:
            return "Frank-Wolfe did not converge"
        if not res["gap"] <= res["tol"] * max(res["energy"], 1e-300):
            return f"duality gap {res['gap']:.3e} above tol * energy"
        if name == "capacity:identity" and not abs(res["value"] - res["m"]) <= 1e-6:
            return f"Cap(I_{res['m']}) = {res['value']!r}"
        if name == "capacity:two_point":
            want = 2.0 / (1.0 + res["r"])
            if not abs(res["value"] - want) <= 1e-8:
                return f"two-point capacity {res['value']!r}, closed form {want!r}"
    elif name == "max_corr":
        if not 0.0 <= res["rho"] <= 1.0:
            return f"rho {res['rho']} outside [0, 1]"
    elif name == "bound_chain":
        bad = [c[0] for c in res["checks"] if not c[3]]
        if bad or not res["passed"]:
            return f"chain checks failed: {bad}"
    elif name == "bvn":
        for rho, u, v, fuv, fvu, prod, _ in res["rows"]:
            if not abs(fuv - fvu) <= 1e-12:
                return f"bivariate_cdf({rho}, u, v) not symmetric at u={u}, v={v}"
            if rho == 0.0 and not abs(fuv - prod) <= 1e-15:
                return f"bivariate_cdf(0, {u}, {v}) = {fuv} != Phi(u)Phi(v) = {prod}"
    elif name == "recursion":
        q = res["q"]
        if not res["verdict"]:
            return "recursion verdict false"
        if not q[19] < 1e-6 * q[0]:
            return f"q20/q1 = {q[19] / q[0]:.3e} not below 1e-6"
        if not math.isfinite(res["ell_inf_lower"]):
            return "ell_inf lower bound not finite"
    return None


def check_solvers(outputs: dict) -> list[tuple[str, str | None]]:
    ops = []
    for name in SOLVER_OPS:
        res = outputs.get(name)
        ops.append((name, (res or "not run") if not isinstance(res, dict) else _check_solver(name, res)))
    return ops


WORKLOADS = {w.name: w for w in (Smoke(), VerifyDense(), Crossing(), Solvers())}
