"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import sys
import time

import numpy as np
import pytest
from scipy import special

from sdlab import analytic, bootstrap, cli, events, kernels, mc, measures, sampler

import oracles

PASS_VERDICTS = (mc.VERDICT_PASS, mc.VERDICT_NOISE)


def report(criterion: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    # bypass pytest capture so the per-criterion line always reaches the log
    print(f"\nACCEPTANCE {criterion}: {status} [{elapsed:.1f}s/{budget:.0f}s] {detail}",
          file=sys.__stdout__)
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s over budget {budget}s"


def block_events(k=4, level=0.0):
    A1 = events.AllAbove(tuple((i,) for i in range(k)), level)
    A2 = events.AllAbove(tuple((i,) for i in range(k, 2 * k)), level)
    return A1, A2


def single_events(level=0.0):
    return events.AllAbove(((0,),), level), events.AllAbove(((1,),), level)


def test_criterion_1_negative_bound_constant():
    t0 = time.perf_counter()
    table = analytic.neg_bound_scan(0.293, np.arange(1.0, 41.0))
    c_limit = analytic.fit_limiting_exponent(table)
    elapsed = time.perf_counter() - t0
    ceil = analytic.NEG_BOUND_CEIL  # 1/(3-2 sqrt 2) = 5.8284...
    ok = 5.0 <= c_limit <= 5.83 and c_limit <= ceil + 0.01
    report("1 (tail-gap constant)", ok,
           f"limiting exponent {c_limit:.4f}, ceiling {ceil:.4f}", elapsed, 1.0)


def test_criterion_2_bivariate_identities():
    t0 = time.perf_counter()
    worst_asin = 0.0
    for rho in np.arange(0.01, 0.996, 0.01):
        got = analytic.bivariate_cdf(float(rho), 0.0, 0.0)
        want = 0.25 + math.asin(rho) / (2 * math.pi)
        worst_asin = max(worst_asin, abs(got - want))
    ok = worst_asin <= 1e-10

    worst_slack = np.inf
    for rho in np.arange(0.05, 0.951, 0.05):
        for u in np.arange(-2.0, 2.01, 0.5):
            for v in np.arange(-2.0, 2.01, 0.5):
                for eps in np.arange(0.0, 4.01, 0.5):
                    rep = analytic.check_2dcase_sprinkled(float(rho), float(u), float(v), float(eps))
                    worst_slack = min(worst_slack, rep.slack)
    ok &= worst_slack >= -1e-12

    worst_slack2 = np.inf
    for rho in np.arange(0.0, 0.951, 0.05):
        for u in np.arange(-2.0, 2.01, 0.5):
            for v in np.arange(-2.0, 2.01, 0.5):
                rep = analytic.check_2dcase_errorless(float(rho), float(u), float(v))
                worst_slack2 = min(worst_slack2, rep.slack)
    ok &= worst_slack2 >= -1e-12
    elapsed = time.perf_counter() - t0
    report("2 (bivariate identities)", bool(ok),
           f"asin err {worst_asin:.2e}, sprinkled slack >= {worst_slack:.2e}, "
           f"errorless slack >= {worst_slack2:.2e}", elapsed, 10.0)


def test_criterion_3_capacity_oracles():
    t0 = time.perf_counter()
    worst = 0.0
    for r in np.arange(-0.9, 0.91, 0.1):
        K = np.array([[1.0, float(r)], [float(r), 1.0]])
        got = measures.capacity(K, tol=1e-12).value
        worst = max(worst, abs(got - 2.0 / (1.0 + float(r))))
    ok = worst <= 1e-8

    worst_id = 0.0
    for m in range(1, 21):
        got = measures.capacity(np.eye(m), tol=1e-12).value
        worst_id = max(worst_id, abs(got - m))
    ok &= worst_id <= 1e-6

    model = kernels.gff(3)
    caps = {}
    for R in (2, 4, 8):
        pts = [(i, j, k) for i in range(-R, R + 1) for j in range(-R, R + 1)
               for k in range(-R, R + 1) if i * i + j * j + k * k <= R * R]
        K = kernels.build_cov_matrix(model, pts)
        caps[R] = measures.capacity(K, tol=1e-9).value
    r1, r2 = caps[4] / caps[2], caps[8] / caps[4]
    ok &= caps[2] < caps[4] < caps[8]
    ok &= abs(r1 - 2.0) <= 0.5 and abs(r2 - 2.0) <= 0.5
    elapsed = time.perf_counter() - t0
    report("3 (capacity)", bool(ok),
           f"2pt err {worst:.1e}, identity err {worst_id:.1e}, gff ratios {r1:.3f}/{r2:.3f}",
           elapsed, 60.0)


def test_criterion_4_threshold_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    compiled = {}
    for nx in (2, 3, 4):
        for ny in (2, 3, 4):
            spec = events.BoxCrossing((0, 0), (nx - 1, ny - 1), axis=0)
            idx = {p: k for k, p in enumerate(spec.support)}
            compiled[(nx, ny)] = (spec, idx, events.compile_event(spec, idx))
    fields = {key: [] for key in compiled}  # instances in draw order, stacked per grid
    for _ in range(10_000):
        nx, ny = rng.integers(2, 5), rng.integers(2, 5)
        fields[(int(nx), int(ny))].append(rng.integers(-4, 5, size=(ny, nx)).astype(float))
    mismatches = 0
    total = 0
    for key, (spec, idx, ce) in compiled.items():
        if not fields[key]:
            continue
        got = ce.thresholds_batch(np.array([[f[p[1], p[0]] for p in spec.support] for f in fields[key]]))
        for field, t in zip(fields[key], got):
            mismatches += t != -oracles.grid_maximin(field.T, axis=0)
            total += 1
    ok = mismatches == 0

    # Lemma-style invariants on 10^3 random samples each, drawn in the order of
    # the per-sample checks they replace and evaluated as stacks
    spec = events.BoxCrossing((0, 0), (3, 3), axis=0)
    idx = {p: k for k, p in enumerate(spec.support)}
    ce = events.compile_event(spec, idx)
    spec_loc = events.AllAbove(((0,), (1,)), 0.0)
    idx_loc = {(i,): i for i in range(4)}
    ce_loc = events.compile_event(spec_loc, idx_loc)
    cols = {k: [] for k in ("v", "w", "h", "up", "u", "vl", "wl")}
    for _ in range(1000):
        v = rng.normal(size=16)
        cols["v"].append(v)
        cols["w"].append(v + rng.normal(size=16) * 0.3)
        cols["h"].append(float(rng.normal()))
        cols["up"].append(v + rng.uniform(0, 1, 16))
        cols["u"].append(float(rng.normal()))
        vl = rng.normal(size=4)
        wl = vl.copy()
        wl[2:] = rng.normal(size=2)
        cols["vl"].append(vl)
        cols["wl"].append(wl)
    v, w, up, vl, wl = (np.array(cols[k]) for k in ("v", "w", "up", "vl", "wl"))
    h, u = np.array(cols["h"]), np.array(cols["u"])
    tv = ce.thresholds_batch(v)
    lip = bool(np.all(np.abs(tv - ce.thresholds_batch(w)) <= np.abs(v - w).max(axis=1) + 1e-12))
    shift_eq = bool(np.all(ce.thresholds_batch(v + h[:, None]) == tv - h))
    mono = bool(np.all(ce.thresholds_batch(up) <= tv + 1e-12))
    consist = all(oracles.box_crossing_occurs(v[k] + u[k], spec.support, spec.lo, spec.hi, spec.axis) == (
        tv[k] <= u[k]) for k in range(len(v)))
    local = bool(np.all(ce_loc.thresholds_batch(vl) == ce_loc.thresholds_batch(wl)))
    ok &= lip and shift_eq and mono and local and consist
    elapsed = time.perf_counter() - t0
    report("4 (thresholds)", bool(ok),
           f"{total} instances, {mismatches} mismatches; invariants "
           f"lip={lip} shift={shift_eq} mono={mono} local={local} consist={consist}",
           elapsed, 30.0)


def test_criterion_5_sprinkled_decoupling_suite():
    t0 = time.perf_counter()
    n = 100_000
    verdicts = []

    # (a) i.i.d. disjoint blocks
    plan = sampler.plan_dense(np.eye(8), 101)
    rep = mc.verify_sprinkled(plan, *block_events(), 0.5, 0.5, n, workers=4)
    verdicts.append(rep.verdict)

    # (b) rank-1 (Z,Z) against the closed form, plus the c=1 positive branch
    plan2 = sampler.plan_dense(np.array([[1.0, 1.0], [1.0, 1.0]]), 102)
    A1, A2 = single_events(0.5)
    closed_ok = True
    for eps in (0.25, 0.5, 1.0):
        rep = mc.verify_sprinkled(plan2, A1, A2, eps, eps, n, constant_mode="positive-1", workers=4)
        verdicts.append(rep.verdict)
        closed = special.ndtr(-0.5) - special.ndtr(-(0.5 - eps)) ** 2
        closed_ok &= abs(rep.sides[0].estimate - closed) <= 3 * rep.sides[0].se
        assert rep.constants["c_up"] == 1.0

    # (c) BargmannFock 32^2 grid crossing pair, three sprinkle values
    grid = sampler.Grid((32, 32), 0.5)
    plan3 = sampler.plan_circulant(kernels.bargmann_fock(2), grid, 103)
    C1 = events.BoxCrossing((0, 0), (7, 7), 0)
    C2 = events.BoxCrossing((24, 0), (31, 7), 0)
    for eps in (0.25, 0.5, 1.0):
        rep = mc.verify_sprinkled(plan3, C1, C2, eps, eps, n, workers=4)
        verdicts.append(rep.verdict)
    rep = mc.verify_sprinkled(plan3, C1, C2, 0.5, 0.5, n, constant_mode="positive-1", workers=4)
    verdicts.append(rep.verdict)

    ok = all(v in PASS_VERDICTS for v in verdicts) and closed_ok
    elapsed = time.perf_counter() - t0
    report("5 (sprinkled decoupling)", bool(ok),
           f"verdicts {verdicts}, closed-form match {closed_ok}", elapsed, 300.0)


def test_criterion_6_threshold_cov_hoeffding_pa_interp():
    t0 = time.perf_counter()
    n = 30_000
    plan_iid = sampler.plan_dense(np.eye(8), 201)
    plan_zz = sampler.plan_dense(np.array([[1.0, 1.0], [1.0, 1.0]]), 202)
    plan_corr = sampler.plan_dense(np.array([[1.0, 0.6], [0.6, 1.0]]), 203)
    plan_neg = sampler.plan_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]), 204)
    grid = sampler.Grid((16, 16), 0.5)
    plan_bf = sampler.plan_circulant(kernels.bargmann_fock(2), grid, 205)
    bf1 = events.AllAbove(((0, 0), (1, 0), (0, 1)), 0.0)
    bf2 = events.AllAbove(((15, 15), (14, 15), (15, 14)), 0.0)

    verdicts = {}
    # prop 2.2: independent / rank-1 equality / BF grid
    verdicts["p22_iid"] = mc.verify_threshold_cov(plan_iid, *block_events(), n).verdict
    rep_zz = mc.verify_threshold_cov(plan_zz, *single_events(), n)
    verdicts["p22_zz"] = rep_zz.verdict
    verdicts["p22_bf"] = mc.verify_threshold_cov(plan_bf, bf1, bf2, n).verdict

    # hoeffding: independent / rank-1 Cov=1 / correlated 2x2
    verdicts["hf_iid"] = mc.verify_hoeffding(plan_iid, *block_events(), n).verdict
    rep_hf = mc.verify_hoeffding(plan_zz, *single_events(), n)
    verdicts["hf_zz"] = rep_hf.verdict
    cov_one = abs(rep_hf.terms["cov"].value - 1.0) <= 3 * rep_hf.terms["cov"].se
    int_one = abs(rep_hf.terms["integral"].value - rep_hf.terms["cov"].value) \
        <= rep_hf.sides[0].bound
    verdicts["hf_corr"] = mc.verify_hoeffding(plan_corr, *single_events(), n).verdict

    # positive association: independent / positive pair / negated pair
    verdicts["pa_iid"] = mc.verify_positive_association(plan_iid, *block_events(), n).verdict
    verdicts["pa_zz"] = mc.verify_positive_association(plan_zz, *single_events(1.0), n).verdict
    verdicts["pa_neg"] = mc.verify_positive_association(plan_neg, *single_events(1.0), n).verdict

    # interpolation formula: linear, identical, max-of-two cases
    K3 = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]])
    plan3 = sampler.plan_dense(K3, 206)
    verdicts["interp"] = mc.verify_interp_formula(plan3, n).verdict

    ok = all(v in PASS_VERDICTS for v in verdicts.values()) and cov_one and int_one
    elapsed = time.perf_counter() - t0
    report("6 (cov/hoeffding/pa/interp)", bool(ok),
           f"{verdicts}, hoeffding Cov=1 within tol: {cov_one and int_one}", elapsed, 180.0)


def gff_two_ball_plan(seed, R=2, dist=8):
    model = kernels.gff(3)
    b1 = [(i, j, k) for i in range(-R, R + 1) for j in range(-R, R + 1)
          for k in range(-R, R + 1) if i * i + j * j + k * k <= R * R]
    b2 = [(x + dist, y, z) for (x, y, z) in b1]
    pts = b1 + b2
    K = kernels.build_cov_matrix(model, pts)
    plan = sampler.plan_dense(K, seed, pts)
    A1 = events.AllAbove(tuple(b1), 0.0)
    A2 = events.AllAbove(tuple(b2), 0.0)
    return plan, A1, A2


def test_criterion_7_isoperimetry_family():
    t0 = time.perf_counter()
    n = 30_000
    verdicts = {}
    plan_iid = sampler.plan_dense(np.eye(8), 301)
    plan_zz = sampler.plan_dense(np.array([[1.0, 1.0], [1.0, 1.0]]), 302)

    # thm 1.7: independent / rank-1 / gff two balls
    verdicts["sdi2_iid"] = mc.verify_sdi2(plan_iid, *block_events(), 0.5, n).verdict
    verdicts["sdi2_zz"] = mc.verify_sdi2(plan_zz, *single_events(0.5), 1.0, n).verdict
    gplan, G1, G2 = gff_two_ball_plan(303)
    verdicts["sdi2_gff"] = mc.verify_sdi2(gplan, G1, G2, 1.0, n).verdict
    # closed-form grid for the rank-1 case
    grid_ok = True
    for u in np.linspace(-2, 2, 9):
        for eps in np.linspace(0.25, 4.0, 8):
            lhs = special.ndtr(-u) * special.ndtr(u - eps)
            grid_ok &= lhs <= math.exp(-(eps**2) / 8.0) + 1e-12

    # thm 1.10: kappa formula, applicable case, two not-applicable guards
    grid = sampler.Grid((24, 24), 0.5)
    plan_bf = sampler.plan_circulant(kernels.bargmann_fock(2), grid, 304)
    B1 = events.BoxCrossing((0, 0), (4, 4), 0)
    B2 = events.BoxCrossing((19, 19), (23, 23), 0)
    rep = mc.verify_sdi3(plan_bf, B1, B2, 0.5, 0.25, n)
    verdicts["sdi3_bf"] = rep.verdict
    kappa_ok = mc.verify_sdi3(plan_iid, *block_events(level=-1.0), 0.5, 0.5, 4000).constants["kappa"] == 2.0
    na1 = mc.verify_sdi3(plan_zz, *single_events(), 0.5, 0.25, 2000).verdict
    na2 = mc.verify_sdi3(plan_iid, *block_events(level=3.0), 0.5, 0.25, 2000).verdict
    never_fail = na1 == mc.VERDICT_NA and na2 == mc.VERDICT_NA

    # prop 1.8: sigma2 against the direct tail sum, pass on separated blocks
    gridp = sampler.Grid((28, 28), 0.5)
    dec = sampler.plan_decomposed(kernels.bargmann_fock(2), gridp, 3.0, 305)
    mg = [np.minimum(np.arange(m), m - np.arange(m)) * 0.5 for m in dec.torus_shape]
    dist = np.sqrt(mg[0][:, None] ** 2 + mg[1][None, :] ** 2)
    q = dec.q_near + dec.q_far
    sigma_ok = abs(dec.sigma2 - float((np.where(dist > 3.0, q, 0.0) ** 2).sum())) <= 1e-10
    P1 = events.BoxCrossing((0, 0), (5, 5), 0)
    P2 = events.BoxCrossing((22, 22), (27, 27), 0)
    rep18 = mc.verify_finite_range(kernels.bargmann_fock(2), gridp, 3.0, P1, P2, 1.0, n,
                                   base_seed=306)
    verdicts["p18_bf"] = rep18.verdict
    verdicts["p18_largeR"] = mc.verify_finite_range(
        kernels.bargmann_fock(2), gridp, 6.0, events.AllAbove(((0, 0),), 0.0),
        events.AllAbove(((27, 27),), 0.0), 1.0, 10_000, base_seed=307).verdict
    spot_ok = mc.finite_range_bound(36, 0.01, 1.0) == pytest.approx(108 * math.exp(-12.5), rel=1e-12)

    # cor 2.6: half-space equality / eps=0 / BF crossing
    plan1 = sampler.plan_dense(np.eye(1), 308)
    H = events.AllAbove(((0,),), 0.0)
    verdicts["iso_half"] = mc.verify_isoperimetric(plan1, H, 0.7, n).verdict
    verdicts["iso_eps0"] = mc.verify_isoperimetric(plan_iid, block_events()[0], 0.0, 5000).verdict
    grid16 = sampler.Grid((16, 16), 0.5)
    plan_bf16 = sampler.plan_circulant(kernels.bargmann_fock(2), grid16, 309)
    CR = events.BoxCrossing((0, 0), (15, 15), 0)
    verdicts["iso_bf"] = mc.verify_isoperimetric(plan_bf16, CR, 0.3, n).verdict

    # cor 2.7: independent equality / rank-1 equality / gff pair
    verdicts["ns_iid"] = mc.verify_noise_stability(plan_iid, *block_events(), n).verdict
    verdicts["ns_zz"] = mc.verify_noise_stability(plan_zz, *single_events(0.8), n).verdict
    verdicts["ns_gff"] = mc.verify_noise_stability(gplan, G1, G2, n).verdict

    ok = (all(v in PASS_VERDICTS for v in verdicts.values())
          and grid_ok and kappa_ok and never_fail and sigma_ok and spot_ok)
    elapsed = time.perf_counter() - t0
    report("7 (thm1.7/1.10/prop1.8/cor2.6-2.7)", bool(ok),
           f"{verdicts}, grid={grid_ok} kappa={kappa_ok} na-guard={never_fail} "
           f"sigma2={sigma_ok}", elapsed, 300.0)


def test_criterion_8_bootstrap_engine():
    t0 = time.perf_counter()
    g = bootstrap.polylog(3.5)
    hp = bootstrap.loginv(0.5)
    n_d = bootstrap.annulus_covering(2, 1.0).n_d
    closure = bootstrap.find_closure(g, 0.25, n_d, 36.0, hp)
    rep = bootstrap.run_recursion(g, 0.25, n_d, 36.0, None, closure.p1_max, h_prime=hp,
                                  n_steps=25, log_R0=closure.log_R0_min)
    sched = bootstrap.sprinkle_schedule(None, 0.25, -1.0, 500, log_R0=closure.log_R0_min)
    decay_ok = rep.verdict and rep.q[19] < 1e-6 * rep.q[0]
    ell_ok = np.isfinite(sched.ell_inf_lower)

    reject = bootstrap.check_subcritical_conditions(bootstrap.polylog(1.5), 0.25)
    reject_ok = (not reject.verdict and not reject.h_to_zero
                 and any("does not tend to 0" in d for d in reject.diagnostics))
    ok = decay_ok and ell_ok and reject_ok
    elapsed = time.perf_counter() - t0
    report("8 (bootstrap engine)", bool(ok),
           f"closure log_R0={closure.log_R0_min:.3e}, p1={closure.p1_max:.3e}, "
           f"q20/q1={rep.q[19] / rep.q[0]:.2e}, ell_inf>={sched.ell_inf_lower:.3f}, "
           f"gamma=1.5 rejected={reject_ok}", elapsed, 1.0)


def test_criterion_9_percolation_desk_experiment():
    t0 = time.perf_counter()
    model = kernels.bargmann_fock(2)
    est = bootstrap.estimate_crossing(model, 0.5, 0.0, 32.0, "hcross", 2000, 401,
                                      aspect=1.0, workers=4)
    square_ok = 0.4 <= est.estimate <= 0.6

    table = bootstrap.subcritical_decay_table(model, -0.5, [8, 16, 32], 2000, 402, workers=4)
    mono_R = table.monotone_in_R
    T = table.thresholds
    mono_ell = all(np.all((T <= a) <= (T <= b)) for a, b in [(-1.0, -0.5), (-0.5, 0.0), (0.0, 0.5)])
    ok = square_ok and mono_R and mono_ell
    elapsed = time.perf_counter() - t0
    report("9 (percolation desk)", bool(ok),
           f"square crossing {est.estimate:.3f} (se {est.se:.3f}), one-arm "
           f"{[r.estimate for r in table.rows]}, mono_R={mono_R}, mono_ell={mono_ell}",
           elapsed, 600.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()

    def run_suite(out, workers):
        with mc._CACHE_LOCK:
            mc._CACHE.clear()
        code = cli.main(["suite", "smoke", "--out", str(out), "--seed", "5",
                        "--workers", str(workers)])
        assert code == 0

    run_suite(tmp_path / "w1", 1)
    run_suite(tmp_path / "w8", 8)
    same = True
    details = []
    csv1 = (tmp_path / "w1" / "suite_smoke.csv").read_bytes()
    csv8 = (tmp_path / "w8" / "suite_smoke.csv").read_bytes()
    same &= csv1 == csv8
    for f1 in sorted((tmp_path / "w1").glob("*.json")):
        f8 = tmp_path / "w8" / f1.name
        d1 = json.loads(f1.read_text())
        d8 = json.loads(f8.read_text())
        d1.pop("meta"), d8.pop("meta")  # wall time and timestamp are volatile
        if d1 != d8:
            same = False
            details.append(f1.name)
    elapsed = time.perf_counter() - t0
    report("10 (determinism)", same, f"smoke suite workers 1 vs 8, diffs: {details}",
           elapsed, 600.0)
