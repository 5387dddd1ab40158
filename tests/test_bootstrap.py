import math

import mpmath as mp
import numpy as np
import pytest

from sdlab import bootstrap, events, kernels
from sdlab.errors import DomainError, InputError, ParameterError

import golden


# --- decay functions -----------------------------------------------------------


def test_decay_families_log_values():
    g = bootstrap.polylog(3.5)
    assert float(g.log_value(math.log(1.0))) == pytest.approx(-3.5 * math.log(math.log(2.0)))
    p = bootstrap.power(2.0, c=3.0)
    assert float(p.log_value(5.0)) == pytest.approx(math.log(3.0) - 10.0)
    s = bootstrap.stretched_exp(0.1, 0.5)
    assert float(s.log_value(math.log(4.0))) == pytest.approx(-0.1 * 2.0)


def test_decay_from_string():
    assert bootstrap.decay_from_string("polylog:3.5").gamma == 3.5
    assert bootstrap.decay_from_string("loginv:0.5").gamma == 0.5
    assert bootstrap.decay_from_string("stretched:0.04,0.3").beta == 0.3
    with pytest.raises(ParameterError):
        bootstrap.decay_from_string("nosuch:1")
    # a missing or non-numeric argument is a typed error, not an IndexError/ValueError
    for text in ("polylog", "stretched", "polylog:x", "power:"):
        with pytest.raises(ParameterError, match="as in 'polylog:3.5'"):
            bootstrap.decay_from_string(text)


def test_h_from_g_huge_scales_stay_finite():
    h = bootstrap.HFromG(bootstrap.polylog(3.5), 0.25)
    v = float(h.log_value(1e20))
    assert np.isfinite(v) and v < 0


# --- subcritical conditions ------------------------------------------------------


def test_conditions_polylog_h_equals_hprime():
    # gamma > 2 + delta: all three conditions hold with h' = h
    rep = bootstrap.check_subcritical_conditions(bootstrap.polylog(3.5), 0.25)
    assert rep.verdict
    assert rep.c_prime is not None and rep.c_prime > 0


def test_conditions_power_decay():
    rep = bootstrap.check_subcritical_conditions(bootstrap.power(1.0), 0.5)
    assert rep.verdict


def test_conditions_stretched_exponential_slow_beta():
    # 5^beta < 2 keeps the square-ratio condition alive
    g = bootstrap.stretched_exp(1.0, 0.3)
    hp = bootstrap.stretched_exp(1.0 / 25.0, 0.3)
    rep = bootstrap.check_subcritical_conditions(g, 0.25, hp)
    assert rep.verdict


def test_conditions_reject_gamma_below_threshold():
    rep = bootstrap.check_subcritical_conditions(bootstrap.polylog(1.5), 0.25)
    assert not rep.verdict
    assert not rep.h_to_zero
    assert any("does not tend to 0" in d for d in rep.diagnostics)


def test_conditions_reject_superexponential_hprime():
    g = bootstrap.polylog(3.5)
    hp = bootstrap.stretched_exp(1.0, 2.0)  # e^{-r^2}: square ratio blows up
    rep = bootstrap.check_subcritical_conditions(g, 0.25, hp)
    assert not rep.square_ratio_to_zero
    assert not rep.verdict


def test_conditions_reject_nondecreasing_candidate():
    class Growing:
        def log_value(self, log_r):
            return np.asarray(log_r, dtype=float)

    with pytest.raises(InputError):
        bootstrap.check_subcritical_conditions(bootstrap.polylog(3.5), 0.25, Growing())


# --- annulus covering --------------------------------------------------------------


def test_annulus_covering_separation_exact():
    cov = bootstrap.annulus_covering(2, 1.0)
    assert cov.min_separation >= 1.0


def test_annulus_covering_count_scale_invariant():
    a = bootstrap.annulus_covering(2, 1.0)
    b = bootstrap.annulus_covering(2, 7.3)
    c = bootstrap.annulus_covering(2, 256.0)
    assert a.n_d == b.n_d == c.n_d


def test_annulus_covering_shells_cover_spheres():
    # every sphere point sits within half a cell diagonal of a shell point
    rng = np.random.default_rng(4)
    for R in (1.0, 5.0):
        cov = bootstrap.annulus_covering(2, R)
        tol = cov.spacing * math.sqrt(2) / 2
        for radius, pts in ((6 * R, cov.x_points), (8 * R, cov.y_points)):
            theta = rng.uniform(0, 2 * math.pi, size=100)
            sphere = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
            d = np.sqrt(((sphere[:, None, :] - pts[None, :, :]) ** 2).sum(-1)).min(axis=1)
            assert d.max() <= tol + 1e-9


def test_annulus_covering_paths_hit_both_shells():
    # random lattice paths from B(5R) to the sphere of radius 10R cross both
    # shells within R/2 of a covering point
    R = 4.0
    cov = bootstrap.annulus_covering(2, R)
    rng = np.random.default_rng(9)
    for _ in range(200):
        pos = np.array([rng.integers(-3, 4), rng.integers(-3, 4)], dtype=float)
        path = [pos.copy()]
        while np.linalg.norm(path[-1]) < 10 * R:
            step = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)], p=[0.4, 0.1, 0.25, 0.25])
            path.append(path[-1] + step)
        path = np.asarray(path)
        for shell in (cov.x_points, cov.y_points):
            d = np.sqrt(((path[:, None, :] - shell[None, :, :]) ** 2).sum(-1)).min()
            assert d <= R / 2 + 1e-9


# --- schedule -------------------------------------------------------------------------


def test_schedule_first_level_and_first_step():
    s = bootstrap.sprinkle_schedule(10.0, 2.0, -1.5, 5)
    assert s.levels[0] == -1.5
    assert s.levels[0] - s.levels[1] == pytest.approx(math.log(50.0) ** -2, rel=1e-12)
    assert np.all(np.diff(s.levels) < 0)


def test_schedule_limit_bound_consistency():
    a = bootstrap.sprinkle_schedule(10.0, 1.0, 0.0, 1000)
    b = bootstrap.sprinkle_schedule(10.0, 1.0, 0.0, 10_000)
    assert a.ell_inf_lower <= a.levels[-1]
    assert abs(a.ell_inf_lower - b.ell_inf_lower) < 1e-6
    # lower bound really is below the true limit (longer run stays above it)
    assert b.levels[-1] >= a.ell_inf_lower


def test_schedule_rejects_nonpositive_delta():
    with pytest.raises(ParameterError, match="diverge"):
        bootstrap.sprinkle_schedule(10.0, 0.0, -1.0, 10)


@pytest.mark.parametrize("delta", [1e-8, 1e-12, 0.25])
def test_schedule_tail_matches_mpmath(delta):
    # delta/2 was taken as (1 + delta/2) - 1: the tail's relative error was 6e-9 at
    # delta = 1e-8 and 9e-5 at 1e-12
    s = bootstrap.sprinkle_schedule(10.0, delta, 0.0, 1000)
    with mp.workdps(40):
        half = mp.mpf(delta) / 2
        exact = (mp.log(10) + mp.mpf(999.5) * mp.log(5)) ** -half / (half * mp.log(5))
    assert abs(s.tail_bound - exact) <= 1e-14 * exact
    assert s.ell_inf_lower == s.levels[-1] - s.tail_bound


def test_schedule_rejects_a_delta_whose_tail_overflows():
    with pytest.raises(ParameterError, match="delta = 1e-310 is too small"):
        bootstrap.sprinkle_schedule(10.0, 1e-310, 0.0, 10)
    assert math.isfinite(bootstrap.sprinkle_schedule(10.0, 1e-300, 0.0, 10).ell_inf_lower)


# --- initial bound -----------------------------------------------------------------------


def test_initial_bound_scalings_exact():
    b1 = bootstrap.initial_bound(-100.0, 4.0, 2.0, 2)
    assert bootstrap.initial_bound(-200.0, 4.0, 2.0, 2) == pytest.approx(b1 / 2, rel=1e-12)
    assert bootstrap.initial_bound(-100.0, 8.0, 2.0, 2) == pytest.approx(4 * b1, rel=1e-12)
    assert b1 == pytest.approx(bootstrap.covering_constant(2) * 16.0 * 2.0 / 100.0, rel=1e-12)


def test_initial_bound_needs_negative_level():
    with pytest.raises(DomainError):
        bootstrap.initial_bound(0.5, 4.0, 1.0, 2)


# --- recursion ------------------------------------------------------------------------------


def test_recursion_trivial_zero_case():
    # p1 = 0 with (numerically) vanishing g keeps q identically negligible
    g = bootstrap.power(9.0, c=1e-300)
    rep = bootstrap.run_recursion(g, 0.5, n_d=10, c=36.0, R0=100.0, p1=0.0, n_steps=10)
    assert np.all(rep.q <= 1e-250)


def test_recursion_polylog_closure_and_decay():
    g = bootstrap.polylog(3.5)
    hp = bootstrap.loginv(0.5)
    n_d = bootstrap.annulus_covering(2, 1.0).n_d
    cl = bootstrap.find_closure(g, 0.25, n_d, 36.0, hp)
    rep = bootstrap.run_recursion(g, 0.25, n_d, 36.0, None, cl.p1_max, h_prime=hp,
                                  n_steps=25, log_R0=cl.log_R0_min)
    assert rep.verdict
    assert rep.closure_r0_ok and rep.closure_base_ok and rep.invariant_ok
    assert rep.q[19] < 1e-6 * rep.q[0]
    assert np.all(rep.q[:20] <= np.minimum(rep.invariant_bound[:20], 1.0) * (1 + 1e-9))


def test_recursion_flags_base_violation():
    g = bootstrap.polylog(3.5)
    hp = bootstrap.loginv(0.5)
    n_d = 50
    cl = bootstrap.find_closure(g, 0.25, n_d, 36.0, hp)
    rep = bootstrap.run_recursion(g, 0.25, n_d, 36.0, None, min(1.0, 2.5 * cl.p1_max),
                                  h_prime=hp, n_steps=10, log_R0=cl.log_R0_min)
    assert not rep.closure_base_ok
    assert any("p1" in f for f in rep.failures)
    assert rep.p1_max == pytest.approx(cl.p1_max, rel=1e-9)


def test_recursion_flags_r0_violation_with_minimal_fix():
    g = bootstrap.polylog(3.5)
    hp = bootstrap.loginv(0.5)
    n_d = 50
    cl = bootstrap.find_closure(g, 0.25, n_d, 36.0, hp)
    rep = bootstrap.run_recursion(g, 0.25, n_d, 36.0, None, 1e-9, h_prime=hp,
                                  n_steps=5, log_R0=cl.log_R0_min / 1e6)
    assert not rep.closure_r0_ok
    assert rep.log_R0_min == pytest.approx(cl.log_R0_min, rel=1e-6)


def test_recursion_suggestion_uses_the_run_c_prime():
    g = bootstrap.polylog(3.5)
    hp = bootstrap.loginv(0.5)
    n_d = 10
    cl = bootstrap.find_closure(g, 0.25, n_d, 36.0, hp)
    cp = 1e6 * cl.c_prime
    rep = bootstrap.run_recursion(g, 0.25, n_d, 36.0, None, 1e-9, c_prime=cp, h_prime=hp, log_R0=1e3)
    assert not rep.closure_r0_ok and rep.log_R0_min > cl.log_R0_min
    again = bootstrap.run_recursion(g, 0.25, n_d, 36.0, None, 1e-9, c_prime=cp, h_prime=hp,
                                    log_R0=rep.log_R0_min)
    assert again.closure_r0_ok
    # with the scanned c' the suggestion is find_closure's, to the bit
    rep = bootstrap.run_recursion(g, 0.25, n_d, 36.0, None, 1e-9, h_prime=hp, log_R0=1e3)
    assert rep.log_R0_min == cl.log_R0_min
    # no admissible R0 below the scan cap is a typed error, not a suggestion that fails
    with pytest.raises(ParameterError, match="scan cap"):
        bootstrap.run_recursion(g, 0.25, 92, 36.0, None, 1e-9, c_prime=cp, h_prime=hp, log_R0=1e3)


@pytest.mark.parametrize("n_d", [0, -3, 2.5, True, None])
def test_closure_and_recursion_need_a_covering_number(n_d):
    g, hp = bootstrap.polylog(3.5), bootstrap.loginv(0.5)
    with pytest.raises(ParameterError, match="n_d must be an integer >= 1"):
        bootstrap.find_closure(g, 0.25, n_d, 36.0, hp)
    with pytest.raises(ParameterError, match="n_d must be an integer >= 1"):
        bootstrap.run_recursion(g, 0.25, n_d, 36.0, 100.0, 0.01, h_prime=hp)


@pytest.mark.parametrize("kwargs, message", [
    ({"n_steps": 0}, "n_steps must be an integer >= 1"),
    ({"n_steps": 2.0}, "n_steps must be an integer >= 1"),
    ({"R0": -5.0}, "R0 must exceed 1"),
    ({"R0": 1.0}, "R0 must exceed 1"),
    ({"R0": math.nan}, "R0 must exceed 1"),
    ({"R0": math.inf}, "log R0 must be finite and positive"),
    ({"log_R0": math.inf}, "log R0 must be finite and positive"),
    ({"log_R0": math.nan}, "log R0 must be finite and positive"),
    ({"log_R0": 0.0}, "log R0 must be finite and positive"),
    ({"c": 0.0}, "c must be finite and positive"),
    ({"c_prime": -1.0}, "c' must be finite and positive"),
    ({"c_prime": math.inf}, "c' must be finite and positive"),
])
def test_recursion_rejects_malformed_numbers(kwargs, message):
    args = {"R0": 100.0, "n_steps": 10, "c": 36.0, **kwargs}
    with pytest.raises(ParameterError, match=message):
        bootstrap.run_recursion(bootstrap.polylog(3.5), 0.25, 10, args.pop("c"), args.pop("R0"), 0.01,
                                h_prime=bootstrap.loginv(0.5), **args)


@pytest.mark.parametrize("kwargs, message", [
    ({"n_max": 0}, "n_max must be an integer >= 1"),
    ({"n_max": -2}, "n_max must be an integer >= 1"),
    ({"R0": math.inf}, "log R0 must be finite and positive"),
    ({"R0": None, "log_R0": math.inf}, "log R0 must be finite and positive"),
])
def test_schedule_rejects_malformed_numbers(kwargs, message):
    args = {"R0": 10.0, "n_max": 5, **kwargs}
    with pytest.raises(ParameterError, match=message):
        bootstrap.sprinkle_schedule(args.pop("R0"), 0.25, -1.0, **args)


@pytest.mark.parametrize("text, message", [
    ("polylog:3.5,0", "decay constant c must be positive"),
    ("power:2,-1", "decay constant c must be positive"),
    ("polylog:3.5,1,2", "one or two numbers"),
    ("stretched:0.04,0.3,1", "one or two numbers"),
    ("loginv:inf", "decay parameters must be finite"),
])
def test_decay_from_string_rejects_malformed_numbers(text, message):
    with pytest.raises(ParameterError, match=message):
        bootstrap.decay_from_string(text)


def test_recursion_rejects_bad_conditions():
    with pytest.raises(ParameterError):
        bootstrap.run_recursion(bootstrap.polylog(1.5), 0.25, 10, 36.0, 100.0, 0.01)


def test_recursion_dominates_smaller_start():
    # dominance of the quadratic map: a run started at p1' <= p1 stays below
    # the reference trajectory step by step (the mechanism behind comparing
    # the worst-case recursion with measured crossing probabilities)
    g = bootstrap.polylog(3.5)
    hp = bootstrap.loginv(0.5)
    n_d = 92
    cl = bootstrap.find_closure(g, 0.25, n_d, 36.0, hp)
    hi = bootstrap.run_recursion(g, 0.25, n_d, 36.0, None, cl.p1_max, h_prime=hp,
                                 n_steps=20, log_R0=cl.log_R0_min)
    lo = bootstrap.run_recursion(g, 0.25, n_d, 36.0, None, 0.25 * cl.p1_max, h_prime=hp,
                                 n_steps=20, log_R0=cl.log_R0_min)
    assert np.all(lo.q <= hi.q * (1 + 1e-12))


# --- crossing drivers (kept tiny; the acceptance suite scales them up) ---------------


def test_estimate_crossing_extreme_levels():
    model = kernels.bargmann_fock(2)
    hi = bootstrap.estimate_crossing(model, 1.0, 10.0, 6.0, "hcross", 200, 3, aspect=1.0)
    lo = bootstrap.estimate_crossing(model, 1.0, -10.0, 6.0, "hcross", 200, 3, aspect=1.0)
    assert hi.estimate == 1.0
    assert lo.estimate == 0.0


def test_estimate_crossing_monotone_in_level():
    model = kernels.bargmann_fock(2)
    est = bootstrap.estimate_crossing(model, 1.0, 0.0, 6.0, "one_arm", 400, 5)
    T = est.thresholds
    for a, b in [(-0.5, 0.0), (0.0, 0.3), (0.3, 1.0)]:
        assert np.all((T <= a) <= (T <= b))


@pytest.mark.parametrize("n", [0, 1, -3, 2.5, True])
def test_crossing_drivers_need_two_replicates(n):
    model = kernels.bargmann_fock(2)
    with pytest.raises(ParameterError, match="n must be an integer >= 2"):
        bootstrap.estimate_crossing(model, 1.0, 0.0, 6.0, "hcross", n, 3)
    with pytest.raises(ParameterError, match="n must be an integer >= 2"):
        bootstrap.subcritical_decay_table(model, -0.5, [4, 8], n, 7)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_crossing_drivers_refuse_non_finite_numbers(value):
    # each ended in a ValueError or OverflowError traceback, and a NaN ell in estimate 0.0
    model = kernels.bargmann_fock(2)
    crossing = {"spacing": 1.0, "ell": 0.0, "R": 6.0, "kind": "hcross", "n": 200, "seed": 3, "aspect": 1.0}
    decay = {"ell": -0.5, "R_values": [4, 8], "n": 200, "seed": 7, "spacing": 1.0}
    for driver, kwargs in ((bootstrap.estimate_crossing, crossing), (bootstrap.subcritical_decay_table, decay)):
        for name in ("spacing", "ell", "R", "R_values", "aspect"):
            if name in kwargs:
                bad = [4, value] if name == "R_values" else value
                with pytest.raises(ParameterError, match="must be finite"):
                    driver(model, **{**kwargs, name: bad})


@pytest.mark.parametrize("kind", ["hcross", "vcross"])
@pytest.mark.parametrize("aspect", [-1.0, 0.0, 0.01, 0.24])
def test_box_crossing_shorter_than_two_sites_is_refused(kind, aspect):
    # the crossing length used to be raised to 2 sites in silence: aspect -1 gave estimate 1.0, se 0.0
    with pytest.raises(ParameterError, match="box too short"):
        bootstrap._crossing_event(kind, 6, aspect)
    with pytest.raises(ParameterError, match="box too short"):
        bootstrap.estimate_crossing(kernels.bargmann_fock(2), 1.0, 0.0, 6.0, kind, 64, 3, aspect=aspect)
    box = bootstrap._crossing_event(kind, 6, 0.25)  # 1.5 rounds to 2 sites, the shortest box kept
    assert np.ptp(np.array(box.support), axis=0).tolist() == ([1, 5] if kind == "hcross" else [5, 1])


def test_decay_table_monotone_and_envelope():
    model = kernels.bargmann_fock(2)
    table = bootstrap.subcritical_decay_table(model, -0.5, [4, 8], 400, 7,
                                              h_prime=bootstrap.stretched_exp(0.2, 1.0))
    assert table.monotone_in_R
    assert table.rows[0].envelope == pytest.approx(table.rows[0].estimate, rel=1e-12)
    assert all(np.isfinite(r.envelope) for r in table.rows)


def test_decay_table_exact_monotone_in_level():
    model = kernels.bargmann_fock(2)
    t1 = bootstrap.subcritical_decay_table(model, -0.5, [4, 8], 400, 7)
    T = t1.thresholds
    p_low = (T <= -0.8).mean(axis=1)
    p_high = (T <= -0.2).mean(axis=1)
    assert np.all(p_low <= p_high)


def test_crossing_estimates_match_golden():
    # the 32 x 32 hcross and the R = 4, 8, 16 one-arm table at n = 512, seed 11;
    # regenerate: PYTHONPATH=src python tests/golden.py
    assert golden.crossing_mismatches() == []


def test_crossing_thresholds_are_read_only():
    # the threshold cache hands one array to every caller: a write must not
    # change the next estimate for the same config
    model = kernels.bargmann_fock(2)
    est = bootstrap.estimate_crossing(model, 1.0, 0.0, 6.0, "hcross", 400, 3, aspect=1.0)
    with pytest.raises(ValueError):
        est.thresholds[:] = 1.0
    table = bootstrap.subcritical_decay_table(model, -0.5, [4, 8], 400, 7)
    with pytest.raises(ValueError):
        table.thresholds[0, 0] = 0.0
    again = bootstrap.estimate_crossing(model, 1.0, 0.0, 6.0, "hcross", 400, 3, aspect=1.0)
    assert again.estimate == est.estimate and again.se == est.se


@pytest.mark.parametrize("specs, shape, origin", [
    (("annulus",), (17, 17), (-8, -8)), (("one_arm",), (9, 9), (-4, -4)),
    (("hcross",), (6, 4), (0, 0)), (("vcross",), (4, 6), (0, 0)),
    ((events.AnnulusCrossing((0, 0), 0.0, 2), events.AnnulusCrossing((0, 0), 0.0, 5)), (11, 11), (-5, -5)),
])
def test_support_grid_is_the_bounding_box(specs, shape, origin):
    specs = [bootstrap._crossing_event(s, 4, 1.5) if isinstance(s, str) else s for s in specs]
    grid = bootstrap._support_grid(specs, 0.5)
    assert (grid.shape, grid.origin, grid.spacing) == (shape, origin, 0.5)
