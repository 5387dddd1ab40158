import math
import sys
import tracemalloc

import numpy as np
import oracles
import pytest
from scipy import special, stats

from sdlab import cli, events, kernels, mc, sampler
from sdlab.errors import NumericalError, ParameterError, PreconditionError


def iid_plan(n_coords=8, seed=1):
    return sampler.plan_dense(np.eye(n_coords), seed)


def pair_plan(seed=2):
    return sampler.plan_dense(np.array([[1.0, 1.0], [1.0, 1.0]]), seed)


def block_events(k=4, level=0.0):
    A1 = events.AllAbove(tuple((i,) for i in range(k)), level)
    A2 = events.AllAbove(tuple((i,) for i in range(k, 2 * k)), level)
    return A1, A2


def single_events(level=0.0):
    return events.AllAbove(((0,),), level), events.AllAbove(((1,),), level)


def clear_cache():
    with mc._CACHE_LOCK:
        mc._CACHE.clear()
    sampler._BANK.clear()


Q = lambda x: special.ndtr(-x)  # noqa: E731  upper Gaussian tail


# --- engine -------------------------------------------------------------------


def test_threshold_engine_deterministic_across_workers():
    # 8 support columns make chunks of 8,192 replicates: n = 30,000 is three whole chunks and a
    # ragged fourth, so the eight workers do split the work
    plan = iid_plan()
    A1, A2 = block_events()
    clear_cache()
    t1 = mc.event_thresholds(plan, (A1, A2), 30_000, workers=1).copy()
    clear_cache()
    t8 = mc.event_thresholds(plan, (A1, A2), 30_000, workers=8).copy()
    assert np.array_equal(t1, t8)


def _chunk_plan(kind):
    """A plan and site, box and annulus events on it: a dense plan on a 6 x 6 lattice; an 8 x 8
    circulant box that the box event covers whole, so its support draw is the FFT draw; a split
    plan whose support draw is its restriction, a factor draw."""
    bf = kernels.bargmann_fock(2)
    if kind == "dense":
        pts = sampler.Grid((6, 6)).sites()
        plan = sampler.plan_dense(kernels.build_cov_matrix(bf, pts), 3, pts)
        box, center = events.BoxCrossing((0, 0), (4, 4), 0, 0.2), (3, 3)
    elif kind == "circulant":
        plan = sampler.plan_circulant(bf, sampler.Grid((8, 8), 0.5), 3)
        box, center = events.BoxCrossing((0, 0), (7, 7), 1, 0.2), (4, 4)
    else:
        plan = sampler.plan_decomposed(bf, sampler.Grid((10, 9), 0.5), 1.5, 3)
        box, center = events.BoxCrossing((1, 1), (5, 5), 0, 0.2), (6, 5)
    return plan, (events.AllAbove(((0, 0), (2, 3)), -0.5), box, events.AnnulusCrossing(center, 1, 2.5, 0.1))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["dense", "circulant", "split"])
def test_event_thresholds_are_the_thresholds_of_each_draw_block(kind, workers):
    """Chunks of whole blocks change nothing: the matrix is one thresholds_batch per 256-replicate
    block, concatenated, at an n of two whole chunks and a ragged third."""
    plan, specs = _chunk_plan(kind)
    compiled, cols = mc.compile_events(plan, specs)
    assert (cols is None) == (kind == "circulant")
    width = len(plan.points) if cols is None else len(cols)
    n = 2 * sampler.BANK_ROWS * max(1, sampler.BANK_ROWS // width) + 300
    assert n > 4 * sampler.BANK_ROWS
    clear_cache()
    got = mc.event_thresholds(plan, specs, n, workers)
    blocks = [plan.draw_batch(range(a, min(a + sampler.BANK_ROWS, n)), cols)
              for a in range(0, n, sampler.BANK_ROWS)]
    want = np.stack([np.concatenate([ce.thresholds_batch(x) for x in blocks]) for ce in compiled])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("workers", [1, 2])
def test_fft_draw_thresholds_at_an_odd_n_are_a_prefix_of_an_even_n(workers):
    """Replicates 2k and 2k + 1 share pair k's draw: at n = 513 the last chunk is replicate 512
    alone, the real part of pair 256, and the thresholds are the first 513 of n = 1024.  The
    32 x 32 box crossing reads the whole box, so its draw is the FFT draw, in chunks of one block."""
    plan = sampler.plan_circulant(kernels.bargmann_fock(2), sampler.Grid((32, 32), 0.5), 6)
    specs = (events.BoxCrossing((0, 0), (31, 31), 0), events.AllAbove(((0, 0), (31, 31)), -0.5))
    assert mc.compile_events(plan, specs)[1] is None
    clear_cache()
    odd = mc.event_thresholds(plan, specs, 513, workers)
    even = mc.event_thresholds(plan, specs, 1024, workers)
    assert odd.shape == (2, 513) and np.array_equal(odd, even[:, :513])


def test_a_chunk_of_a_wide_dense_plan_holds_its_support_columns_only():
    """A 1-site event on 200 sites chunks 8,192 replicates as one; the dense draw cuts each block
    to the support as it goes, so the chunk never holds all 200 columns of its 32 blocks."""
    m, n = 200, 32 * sampler.BANK_ROWS
    plan = sampler.plan_dense(np.eye(m), 7)
    specs = (events.AllAbove(((5,),), 0.0),)
    clear_cache()
    plan.draw_batch(range(n))  # the 32 blocks' noise (13 MB) into the bank, out of the measurement
    tracemalloc.start()
    try:
        mc.event_thresholds(plan, specs, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * sampler.BANK_ROWS * m * 8  # a few blocks at every column, not 32


def test_torus_support_draws_are_deterministic_across_workers_sharing_the_kernel_cache():
    # eight threads on two cores race to build and store the plan's one restriction
    bf = kernels.bargmann_fock(2)
    specs = (events.AllAbove(((0, 0), (1, 1)), 0.0), events.BoxCrossing((10, 10), (14, 14), 0))
    # 27 support columns make chunks of 2,304 replicates: n = 8,000 is three and a ragged fourth
    runs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 8):
            clear_cache()
            plan = sampler.plan_decomposed(bf, sampler.Grid((24, 24), 0.5), 1.5, 9)
            runs.append(mc.event_thresholds(plan, specs, 8000, workers=workers))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(*runs)


def _fresh_thresholds(plan, spec, n):
    (ce,), cols = mc.compile_events(plan, (spec,))
    return ce.thresholds_batch(plan.draw_batch(range(n), cols))


@pytest.mark.parametrize("pair", ["origin", "box", "points"])
def test_cached_thresholds_match_fresh_for_plans_differing_in_index_map(pair):
    # each pair shares draws but not its index map, so a shared cache key
    # would serve the second plan the first plan's thresholds
    bf = kernels.bargmann_fock(2)
    if pair == "origin":
        plans = [sampler.plan_circulant(bf, sampler.Grid((8, 8), 1.0, origin), 7)
                 for origin in ((0, 0), (-3, -3))]
        spec = events.AllAbove(((0, 0), (1, 1)), 0.0)
    elif pair == "box":
        plans = [sampler.plan_decomposed(bf, sampler.Grid((s, s), 0.5), 1.5, 7) for s in (24, 20)]
        spec = events.BoxCrossing((0, 0), (4, 4), 0)
    else:
        plans = [sampler.plan_dense(np.eye(2), 5, pts) for pts in ([(0,), (1,)], [(1,), (0,)])]
        spec = events.AllAbove(((0,),), 0.0)
    assert plans[0].fingerprint != plans[1].fingerprint
    clear_cache()
    for plan in plans:
        cached = mc.event_thresholds(plan, (spec,), 64)[0]
        assert np.array_equal(cached, _fresh_thresholds(plan, spec, 64))


@pytest.mark.parametrize("split", [False, True], ids=["circulant", "split"])
def test_torus_thresholds_at_n_are_a_prefix_of_those_at_a_larger_n(split):
    # each row of the last, partial block of n = 300 is the same row in the full block of n = 1000
    bf = kernels.bargmann_fock(2)
    grid = sampler.Grid((24, 24), 0.5)
    plan = sampler.plan_decomposed(bf, grid, 1.5, 3) if split else sampler.plan_circulant(bf, grid, 3)
    specs = (events.BoxCrossing((0, 0), (4, 4), 0), events.AllAbove(((19, 19), (23, 20)), 0.0))
    clear_cache()
    assert np.array_equal(mc.event_thresholds(plan, specs, 300), mc.event_thresholds(plan, specs, 1000)[:, :300])


def test_finite_range_bound_keeps_its_bits_and_is_zero_past_the_float_range():
    for size, sigma2, eps in ((25, 0.0111, 0.5), (3, 2.5, 1.7), (1, 1e-300, 1e-140)):
        assert mc.finite_range_bound(size, sigma2, eps) == 3.0 * size * float(np.exp(-(eps**2) / (8.0 * sigma2)))
    assert mc.finite_range_bound(25, 0.0111, 1e200) == 0.0


def test_sprinkling_indicator_monotone_per_replicate():
    plan = iid_plan()
    A1, _ = block_events()
    T = mc.event_thresholds(plan, (A1,), 2000)[0]
    eps_grid = np.linspace(-1.0, 2.0, 13)
    prev = np.zeros(len(T), dtype=bool)
    for e in eps_grid:
        cur = T <= e
        assert np.all(prev <= cur)
        prev = cur


def test_paired_estimator_agrees_with_independent_streams():
    plan_a = iid_plan(seed=11)
    plan_b = iid_plan(seed=12)
    A1, A2 = block_events(level=0.0)
    n = 40_000
    rep = mc.verify_sprinkled(plan_a, A1, A2, 0.5, 0.5, n)
    paired = rep.sides[0].estimate
    paired_se = rep.sides[0].se
    # independent streams: joint from plan_a, marginals from plan_b
    Ta = mc.event_thresholds(plan_a, (A1, A2), n)
    Tb = mc.event_thresholds(plan_b, (A1, A2), n)
    joint = ((Ta[0] <= 0) & (Ta[1] <= 0)).mean()
    indep = joint - (Tb[0] <= 0.5).mean() * (Tb[1] <= 0.5).mean()
    combined = math.hypot(paired_se, 2.0 / math.sqrt(n))
    assert abs(paired - indep) < 5 * max(combined, 1e-3)
    # pairing reduces variance: per-pair statistic built from unrelated
    # replicates has a larger empirical SD than the shared-replicate one
    m = n // 2
    a, b = slice(0, n, 2), slice(1, n, 2)
    d_paired = 0.5 * (((Ta[0, a] <= 0) & (Ta[1, a] <= 0)).astype(float)
                      + ((Ta[0, b] <= 0) & (Ta[1, b] <= 0)).astype(float)) \
        - 0.5 * ((Ta[0, a] <= 0.5) * (Ta[1, b] <= 0.5)
                 + (Ta[0, b] <= 0.5) * (Ta[1, a] <= 0.5))
    d_indep = ((Ta[0, a] <= 0) & (Ta[1, a] <= 0)).astype(float) \
        - (Tb[0, a] <= 0.5) * (Tb[1, b] <= 0.5)
    assert d_paired.std(ddof=1) < d_indep.std(ddof=1)


# --- thm1.1 --------------------------------------------------------------------


def test_sprinkled_iid_disjoint_passes():
    rep = mc.verify_sprinkled(iid_plan(), *block_events(), 0.5, 0.5, 20_000)
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)
    assert rep.sides[0].estimate <= 3 * rep.sides[0].se  # lhs <= 0 within noise


def test_sprinkled_rank1_closed_form():
    u, eps = 0.5, 0.5
    A1, A2 = single_events(level=u)
    rep = mc.verify_sprinkled(pair_plan(), A1, A2, eps, eps, 50_000, constant_mode="positive-1")
    closed = Q(u) - Q(u - eps) ** 2
    got = rep.sides[0].estimate
    assert abs(got - closed) < 3 * rep.sides[0].se
    assert rep.constants["c_up"] == 1.0 and rep.constants["c_down"] == 0.0
    assert rep.constants["kappa"] == 1.0
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)


def test_sprinkled_inhomogeneous_eps():
    A1, A2 = block_events()
    rep = mc.verify_sprinkled(iid_plan(), A1, A2, 0.25, 1.0, 10_000)
    assert rep.constants["bound_up"] == pytest.approx(36.0 * 0.0 / 0.25, abs=0)  # kappa=0 for iid
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)


def test_sprinkled_positive_mode_on_negative_correlation_is_na():
    plan = sampler.plan_dense(np.array([[1.0, -0.5], [-0.5, 1.0]]), 3)
    rep = mc.verify_sprinkled(plan, *single_events(), 0.5, 0.5, 1000, constant_mode="positive-1")
    assert rep.verdict == mc.VERDICT_NA


def test_sprinkled_rejects_bad_eps():
    with pytest.raises(ParameterError):
        mc.verify_sprinkled(iid_plan(), *block_events(), 0.0, 0.5, 100)


def test_sprinkled_overlapping_supports_warn_on_inhomogeneous_eps():
    plan = iid_plan(4)
    A1 = events.AllAbove(((0,), (1,)), 0.0)
    A2 = events.AllAbove(((1,), (2,)), 0.0)  # shares coordinate 1
    with pytest.warns(UserWarning, match="overlap"):
        rep = mc.verify_sprinkled(plan, A1, A2, 0.25, 1.0, 1000)
    assert "overlapping supports" in rep.notes


# --- prop2.2 -------------------------------------------------------------------


def test_threshold_cov_independent_blocks():
    rep = mc.verify_threshold_cov(iid_plan(), *block_events(), 20_000)
    assert rep.constants["lower"] == 0.0
    assert rep.constants["upper"] == 0.0
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)
    assert abs(rep.terms["cov"].value) < 3 * rep.terms["cov"].se


def test_threshold_cov_rank1_equality():
    rep = mc.verify_threshold_cov(pair_plan(), *single_events(), 30_000)
    assert rep.constants["lower"] == 1.0 and rep.constants["upper"] == 1.0
    assert abs(rep.terms["cov"].value - 1.0) < 3 * rep.terms["cov"].se
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)


def test_threshold_cov_mixed_sign_na():
    K = np.array([[1.0, 0.3, -0.3], [0.3, 1.0, 0.0], [-0.3, 0.0, 1.0]])
    plan = sampler.plan_dense(K, 5)
    A1 = events.AllAbove(((0,),), 0.0)
    A2 = events.AllAbove(((1,), (2,)), 0.0)
    rep = mc.verify_threshold_cov(plan, A1, A2, 100)
    assert rep.verdict == mc.VERDICT_NA


def test_threshold_cov_below_rounding_unit_is_not_applicable():
    # sd 1e-150 under level 1: every T = 1 - X rounds to 1.0, so the sample covariance
    # was 0 with se 0 and the lower bound 5e-301 made slack -5e-301 a fail
    plan = sampler.plan_dense(np.array([[1e-300, 5e-301], [5e-301, 1e-300]]), 3)
    rep = mc.verify_threshold_cov(plan, *single_events(1.0), 4_000)
    assert rep.verdict == mc.VERDICT_NA
    assert rep.sides == [] and "rounding unit" in rep.notes[0]
    assert rep.constants["lower"] == 5e-301


def test_threshold_cov_bf_grid():
    grid = sampler.Grid((16, 16), 0.5)
    plan = sampler.plan_circulant(kernels.bargmann_fock(2), grid, 9)
    A1 = events.AllAbove(((0, 0), (1, 0), (0, 1)), 0.0)
    A2 = events.AllAbove(((15, 15), (14, 15), (15, 14)), 0.0)
    rep = mc.verify_threshold_cov(plan, A1, A2, 20_000)
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)


# --- hoeffding -----------------------------------------------------------------


def test_hoeffding_independent_integral_near_zero():
    rep = mc.verify_hoeffding(iid_plan(), *block_events(), 20_000)
    assert rep.verdict != mc.VERDICT_FAIL
    assert abs(rep.terms["integral"].value) < 0.05


def test_hoeffding_rank1_reproduces_unit_covariance():
    rep = mc.verify_hoeffding(pair_plan(), *single_events(), 30_000)
    assert rep.verdict == mc.VERDICT_PASS
    assert rep.terms["cov"].value == pytest.approx(1.0, abs=3 * rep.terms["cov"].se)
    assert rep.terms["integral"].value == pytest.approx(rep.terms["cov"].value, abs=0.08)


def test_hoeffding_correlated_2x2():
    plan = sampler.plan_dense(np.array([[1.0, 0.6], [0.6, 1.0]]), 8)
    rep = mc.verify_hoeffding(plan, *single_events(), 30_000)
    assert rep.verdict == mc.VERDICT_PASS


@pytest.mark.parametrize("var, level", [(9.0, 0.0), (1.0, 12.0), (1.0, 1e6)],
                         ids=["variance-9", "level-12", "level-1e6"])
def test_hoeffding_box_follows_level_and_scale(var, level):
    # the box is the replicates' span, outside which the empirical defect is 0, so the
    # bound has no truncation term; a fixed (-8, 8)^2 box would miss every threshold
    # at level 12 and 1e6 and integrate to 0
    plan = sampler.plan_dense(np.full((2, 2), var), 2)
    rep = mc.verify_hoeffding(plan, *single_events(level), 5_000)
    assert rep.verdict != mc.VERDICT_FAIL
    assert rep.sides[0].bound == rep.constants["resolution"]
    assert rep.terms["integral"].value == pytest.approx(var, rel=0.05)


@pytest.mark.parametrize("level", [0.0, 0.3])
@pytest.mark.parametrize("constant_first", [True, False], ids=["constant-first", "constant-second"])
def test_hoeffding_zero_variance_site_is_no_false_fail(level, constant_first):
    # a zero-variance site's threshold is constant: its span, the Hoeffding integral and
    # the bound are 0 and classify reads the noise alone, where dividing by its sd made a
    # budget nan; at level 0.3 the covariance rounds to 3e-33 at se 2e-18
    plan = sampler.plan_dense(np.array([[0.0, 0.0], [0.0, 1.0]]), 3)
    A_const, A_var = single_events(level)
    rep = mc.verify_hoeffding(plan, *((A_const, A_var) if constant_first else (A_var, A_const)), 4_000)
    assert rep.verdict != mc.VERDICT_FAIL
    assert rep.constants["resolution"] == 0.0
    assert rep.sides[0].bound == 0.0
    assert rep.terms["integral"].value == 0.0
    assert math.isfinite(rep.sides[0].slack)


def _thresholds(kind, n=4_000):
    rng = np.random.default_rng(11)
    z1, z2 = rng.standard_normal((2, n))
    t1, t2 = z1, 0.6 * z1 + 0.8 * z2
    if kind == "tied":  # integers spanning 0..512: every odd value sits on a midpoint, an edge of two bins
        t1, t2 = (np.clip(np.round(128 * t + 256), 0, 512) for t in (t1, t2))
        t1[:2], t2[:2] = (0, 512), (512, 0)
    elif kind == "constant":
        t1 = np.full(n, 0.3)
    elif kind == "scaled":
        t1, t2 = 1e300 * t1, 1e-300 * t2
    elif kind == "level":
        t1, t2 = t1 + 1e6, t2 - 1e6
    return t1, t2


def _hoeffding_on(monkeypatch, t1, t2):
    """verify_hoeffding's report on the thresholds (t1, t2) in place of its draws."""
    monkeypatch.setattr(mc, "event_thresholds", lambda plan, specs, n, workers=1: (t1, t2))
    return mc.verify_hoeffding(pair_plan(), *single_events(), len(t1))


@pytest.mark.parametrize("kind", ["normal", "tied", "constant", "scaled", "level"])
def test_hoeffding_integral_is_the_histogram2d_sum_bit_for_bit(monkeypatch, kind):
    # one searchsorted bin per threshold and one count table give the integral that
    # np.histogram2d with +-inf outer edges gave, to the last bit, ties on the edges included
    t1, t2 = _thresholds(kind)
    rep = _hoeffding_on(monkeypatch, t1, t2)
    assert rep.terms["integral"].value == oracles.hoeffding_box_integral(t1, t2, mc.HOEFFDING_BINS)
    assert rep.verdict != mc.VERDICT_FAIL


def _bin_cov(k1, k2) -> float:
    """Cov_{1/n} of two integer arrays, exactly in integers before its one rounding."""
    n, s1, s2, s12 = len(k1), int(k1.sum()), int(k2.sum()), int((k1 * k2).sum())
    return (n * s12 - s1 * s2) / n**2


@pytest.mark.parametrize("kind", ["draws", "tied", "level"])
def test_hoeffding_integrals_are_the_covariance_of_the_bin_indices(monkeypatch, kind):
    # Hoeffding's formula on the bin indices k = #{midpoints <= t}: the fine sum is
    # du dv Cov(k1, k2), and the sum at every other (odd) midpoint is 4 du dv Cov(k1 // 2, k2 // 2)
    if kind == "draws":
        t1, t2 = mc.event_thresholds(pair_plan(5), single_events(), 100_000)
    else:
        t1, t2 = _thresholds(kind)
    bins = mc.HOEFFDING_BINS
    k1, k2 = oracles.hoeffding_bins(t1, bins), oracles.hoeffding_bins(t2, bins)
    du, dv = (t1.max() - t1.min()) / bins, (t2.max() - t2.min()) / bins
    fine, coarse = du * dv * _bin_cov(k1, k2), 4 * du * dv * _bin_cov(k1 // 2, k2 // 2)
    rep = _hoeffding_on(monkeypatch, t1, t2)
    assert rep.terms["integral"].value == pytest.approx(fine, rel=1e-12, abs=1e-12)
    assert rep.constants["resolution"] == pytest.approx(abs(fine - coarse), rel=1e-9, abs=1e-12)


# --- positive association -------------------------------------------------------


def test_pa_independent():
    rep = mc.verify_positive_association(iid_plan(), *block_events(), 20_000)
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)
    assert abs(rep.terms["gap"].value) < 3 * rep.terms["gap"].se


def test_pa_rank1_positive_gap_matches_closed_form():
    A1, A2 = single_events(level=1.0)
    rep = mc.verify_positive_association(pair_plan(), A1, A2, 50_000)
    closed = Q(1.0) - Q(1.0) ** 2
    assert rep.verdict == mc.VERDICT_PASS
    assert abs(rep.terms["gap"].value - closed) < 3 * rep.terms["gap"].se + 1e-3


def test_pa_negatively_correlated_pair():
    plan = sampler.plan_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]), 21)
    A1, A2 = single_events(level=1.0)
    rep = mc.verify_positive_association(plan, A1, A2, 50_000)
    # P[Z>=1, -Z>=1] = 0 < Q(1)^2
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)
    assert rep.terms["gap"].value <= 0.0
    assert rep.terms["joint"].value == 0.0


def test_pa_tiny_scale_negative_cross_is_no_false_fail():
    # an absolute sign floor of 1e-12 read the cross covariance -5e-151 as nonnegative, so
    # pa checked gap >= 0 and failed at slack -0.0855, se 0.0056
    plan = sampler.plan_dense(np.array([[1e-150, -5e-151], [-5e-151, 1e-150]]), 3)
    rep = mc.verify_positive_association(plan, *single_events(0.0), 4_000)
    assert [s.name for s in rep.sides] == ["gap<=0"]
    assert rep.verdict != mc.VERDICT_FAIL


def _sign_gated(j: int):
    """Reports whose sides hang on a cross-covariance sign gate, for K scaled by 4^j and
    every level and sprinkle by 2^j: the law of each event, and its draws, stay the same."""
    k, u = 4.0**j, 2.0**j
    neg = sampler.plan_dense(k * np.array([[1.0, -0.5], [-0.5, 1.0]]), 5)
    pos = sampler.plan_dense(k * np.array([[1.0, 0.3], [0.3, 1.0]]), 5)
    mixed = sampler.plan_dense(k * np.array([[1.0, 0.4, -0.3], [0.4, 1.0, 0.0], [-0.3, 0.0, 1.0]]), 5)
    A1, A2 = single_events(0.5 * u)
    B2 = events.AllAbove(((1,), (2,)), 0.5 * u)
    n = 4_000
    reps = [
        mc.verify_positive_association(neg, A1, A2, n),
        mc.verify_positive_association(pos, A1, A2, n),
        mc.verify_positive_association(mixed, A1, B2, n),
        mc.verify_threshold_cov(neg, A1, A2, n),
        mc.verify_threshold_cov(mixed, A1, B2, n),
        mc.verify_sprinkled(neg, A1, A2, 0.5 * u, 0.5 * u, n, constant_mode="positive-1"),
        mc.verify_sprinkled(pos, A1, A2, 0.5 * u, 0.5 * u, n, constant_mode="positive-1"),
    ]
    return [(r.theorem_id, r.verdict, [(s.name, s.verdict) for s in r.sides]) for r in reps]


@pytest.mark.parametrize("j", [-250, -200, -100, -20, 20, 100, 200, 250])
def test_sign_gates_are_scale_invariant(j):
    """Scaling K by 4^j and the levels by 2^j keeps every unit-scale verdict, for j in [-250, 250]."""
    assert _sign_gated(j) == _sign_gated(0)


# --- interpolation formula -------------------------------------------------------


def test_interp_tiny_variance_is_no_false_fail():
    # variance 1e-300: the squared per-replicate products underflowed, so se was 0
    # and the one-site case failed with slack -5e-305; the rescaled se is about 2e-302
    rep = mc.verify_interp_formula(sampler.plan_dense(np.diag([1e-300, 1.0, 1.0]), 3), 4_000)
    assert rep.verdict != mc.VERDICT_FAIL
    assert all(s.verdict != mc.VERDICT_FAIL and s.se > 0 and math.isfinite(s.slack) for s in rep.sides)
    assert rep.terms["lhs1"].se > 0


def test_interp_zero_variance_site_is_no_false_fail():
    # eigh left about 1e-16 in the factor row of the variance-0 site 1, so case 0, the
    # sample covariance of X0 and X1, had slack -2.8e-16 at se 1.1e-17
    K = np.array([[4.0, 0, -4, -2], [0, 0, 0, 0], [-4, 0, 17, 9], [-2, 0, 9, 11]])
    plan = sampler.plan_dense(K, 0)
    assert np.all(plan.factor[1] == 0.0)
    rep = mc.verify_interp_formula(plan, 4_000)
    assert rep.verdict != mc.VERDICT_FAIL
    assert [s.bound for s in rep.sides] == [0.0] * len(rep.sides)
    assert rep.terms["lhs0"].value == 0.0


def test_mean_se_rescale_is_exact():
    # the power-of-two rescale changes no bit of a unit-scale estimate
    x = np.random.default_rng(8).standard_normal(1001)
    got = mc._mean_se(x)
    assert got.value == float(np.mean(x)) and got.se == float(np.std(x, ddof=1)) / np.sqrt(1001)


def test_interp_linear_and_max_cases():
    K = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]])
    plan = sampler.plan_dense(K, 31)
    rep = mc.verify_interp_formula(plan, 30_000)
    assert rep.verdict != mc.VERDICT_FAIL
    assert [s.bound for s in rep.sides] == [0.0] * 3
    # linear-linear case: both sides estimate K(0,1) = 0.5
    assert rep.terms["lhs0"].value == pytest.approx(0.5, abs=4 * rep.terms["lhs0"].se)
    assert rep.terms["rhs0"].value == pytest.approx(0.5, abs=1e-9)  # gradient indices constant
    # f = g = X_0: both sides estimate K(0,0) = 1
    assert rep.terms["rhs1"].value == pytest.approx(1.0, abs=1e-9)
    # max case against a large-n direct covariance oracle
    rng = np.random.default_rng(123)
    L = np.linalg.cholesky(K)
    X = rng.standard_normal((200_000, 3)) @ L.T
    direct = np.cov(np.maximum(X[:, 0], X[:, 1]), X[:, 2])[0, 1]
    assert rep.terms["rhs2"].value == pytest.approx(direct, abs=0.02)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_interp_rhs_is_steins_mean_so_no_quadrature_budget(dim, seed):
    # every built-in case has a linear g = X_j, so the interpolation integrand does not
    # depend on t and the rhs is Stein's mean of K[grad f index, j], bit for bit, with no
    # quadrature error to budget; a case with a non-linear g would need its own budget
    A = np.random.default_rng(100 + seed).standard_normal((dim, dim))
    K = A @ A.T + 0.1 * np.eye(dim)
    plan = sampler.plan_dense(K, seed)
    n = 2_000
    rep = mc.verify_interp_formula(plan, n)
    X, _ = plan.draw_pair_batch(range(n))
    cases = [(np.zeros(n, dtype=np.intp), min(1, dim - 1)), (np.zeros(n, dtype=np.intp), 0)]
    if dim >= 3:  # f = max(X0, X1), whose gradient picks the larger site, and g = X2
        cases.append((np.where(X[:, 0] >= X[:, 1], 0, 1), 2))
    assert [s.name.split(":")[0] for s in rep.sides] == [f"case{ci}" for ci in range(len(cases))]
    assert all(s.name.endswith("-linear") for s in rep.sides)
    assert "t_nodes" not in rep.constants
    for ci, (fidx, j) in enumerate(cases):
        assert rep.terms[f"rhs{ci}"].value == float(np.mean(K[fidx, j]))


# Fixed before any result was read: S seeds of the desk instance at n replicates, and a
# false-alarm rate for the whole test, split evenly over its mean and variance checks.
INTERP_Z_SEEDS, INTERP_Z_N, INTERP_Z_FALSE_ALARM = 200, 2_000, 1e-4


def test_interp_terms_are_unbiased_with_honest_ses_at_the_exact_oracle():
    # the desk instance's terms against oracles.interp_terms: rhs0 and rhs1 are a K entry on
    # every replicate, so they are exact; for lhs0, lhs1, lhs2 and rhs2, z = (estimate - exact)/se
    # over the seeds must have a mean inside the normal bound and a variance inside the
    # two-sided chi-square bound, each check at INTERP_Z_FALSE_ALARM / 8
    reps = [cli.run_config(cli.default_config("interp", INTERP_Z_N, seed, 1)) for seed in range(INTERP_Z_SEEDS)]
    exact = oracles.interp_terms(cli.default_config("interp", INTERP_Z_N, 0, 1).model["matrix"])
    assert sorted(exact) == sorted(reps[0].terms)
    for name in ("rhs0", "rhs1"):
        assert all(r.terms[name].value == exact[name] and r.terms[name].se == 0.0 for r in reps)
    names = ("lhs0", "lhs1", "lhs2", "rhs2")
    alpha = INTERP_Z_FALSE_ALARM / (2 * len(names))
    S = INTERP_Z_SEEDS
    mean_bound = stats.norm.isf(alpha / 2) / math.sqrt(S)
    var_lo, var_hi = stats.chi2.ppf(alpha / 2, S - 1) / (S - 1), stats.chi2.isf(alpha / 2, S - 1) / (S - 1)
    for name in names:
        z = np.array([(r.terms[name].value - exact[name]) / r.terms[name].se for r in reps])
        assert abs(z.mean()) <= mean_bound, (name, z.mean(), mean_bound)
        assert var_lo <= z.var(ddof=1) <= var_hi, (name, z.var(ddof=1), var_lo, var_hi)


# --- finite range ------------------------------------------------------------------


def test_finite_range_bound_spot_value():
    assert mc.finite_range_bound(36, 0.01, 1.0) == pytest.approx(108.0 * math.exp(-12.5), rel=1e-12)


def test_finite_range_separation_precondition():
    grid = sampler.Grid((16, 16), 0.5)
    A1 = events.BoxCrossing((0, 0), (5, 5), 0)
    A2 = events.BoxCrossing((8, 8), (13, 13), 0)  # 1.5 units away < 2*radius
    with pytest.raises(PreconditionError):
        mc.verify_finite_range(kernels.bargmann_fock(2), grid, 1.5, A1, A2, 1.0, 100)


def test_finite_range_bf_blocks_pass():
    grid = sampler.Grid((24, 24), 0.5)
    A1 = events.BoxCrossing((0, 0), (5, 5), 0)
    A2 = events.BoxCrossing((18, 18), (23, 23), 0)  # 6.5 units apart > 2*1.5
    rep = mc.verify_finite_range(kernels.bargmann_fock(2), grid, 1.5, A1, A2, 1.0, 8000, base_seed=6)
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)
    assert rep.constants["separation"] > 3.0


def test_finite_range_large_radius_zero_bound():
    grid = sampler.Grid((20, 20), 0.5)
    A1 = events.AllAbove(((0, 0),), 0.0)
    A2 = events.AllAbove(((19, 19),), 0.0)
    rep = mc.verify_finite_range(kernels.bargmann_fock(2), grid, 4.0, A1, A2, 1.0, 8000, base_seed=8)
    assert rep.constants["sigma2"] < 1e-10
    assert rep.constants["bound"] == 0.0
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)


# --- thm1.7 / thm1.10 ---------------------------------------------------------------


def test_sdi2_independent_blocks():
    rep = mc.verify_sdi2(iid_plan(), *block_events(), 0.5, 20_000)
    assert rep.constants["rho"] == 0.0
    assert rep.constants["bound"] == 0.0
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)


def test_sdi2_rank1_closed_form_grid():
    # (Z,Z): lhs(u, eps) = Q(u) Phi(u - eps) <= exp(-eps^2/8)
    for u in np.linspace(-2, 2, 9):
        for eps in np.linspace(0.1, 4.0, 9):
            lhs = Q(u) * special.ndtr(u - eps)
            assert lhs <= math.exp(-(eps**2) / 8.0) + 1e-12


def test_sdi2_rank1_mc():
    A1, A2 = single_events(level=0.5)
    rep = mc.verify_sdi2(pair_plan(), A1, A2, 1.0, 30_000)
    assert rep.constants["rho"] == pytest.approx(1.0, abs=1e-8)
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)


def test_sdi2_bound_reads_rho_squared_on_equicorrelated_blocks():
    # K = (1 - r) I + r 11^T on 8 sites: the top canonical correlation of blocks 0-3 and 4-7 is
    # that of their sums, 16 r / (4 + 12 r); at 0 < rho < 1 a bound with rho for rho^2 differs
    r, eps = 0.3, 0.5
    plan = sampler.plan_dense((1 - r) * np.eye(8) + r * np.ones((8, 8)), 5)
    rep = mc.verify_sdi2(plan, *block_events(), eps, 2_000)
    rho = 4 * r / (1 + 3 * r)
    assert rep.constants["rho"] == pytest.approx(rho, abs=1e-12)
    assert rep.constants["k_inf"] == 1.0
    assert rep.constants["bound"] == pytest.approx(math.exp(-(eps**2) / (8 * rho**2)), rel=1e-12)


def test_sdi3_kappa_formula():
    plan = iid_plan()
    A1, A2 = block_events(level=-1.0)  # marginals around 0.97^4 ~ high
    rep = mc.verify_sdi3(plan, A1, A2, 0.5, 0.5, 10_000)
    assert rep.constants["kappa"] == 2.0  # delta2 >= 1/2 level
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)


def test_sdi3_independent_blocks():
    rep = mc.verify_sdi3(iid_plan(), *block_events(level=-2.0), 0.5, 0.25, 20_000)
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)


def test_sdi3_high_rho_is_na_not_fail():
    A1, A2 = single_events()
    rep = mc.verify_sdi3(pair_plan(), A1, A2, 0.5, 0.25, 1000)
    assert rep.verdict == mc.VERDICT_NA


def test_sdi3_low_marginals_na_not_fail():
    A1, A2 = block_events(level=3.0)  # P[all 4 above 3] ~ 3e-12
    rep = mc.verify_sdi3(iid_plan(), A1, A2, 0.5, 0.25, 2000)
    assert rep.verdict == mc.VERDICT_NA


# --- corollaries ---------------------------------------------------------------------


def test_isoperimetric_half_space_equality():
    plan = sampler.plan_dense(np.eye(1), 17)
    A = events.AllAbove(((0,),), 0.0)
    rep = mc.verify_isoperimetric(plan, A, 0.7, 50_000)
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)
    # equality case: estimate hugs the profile
    assert abs(rep.sides[0].estimate - rep.constants["target"]) < 4 * rep.sides[0].se


def test_isoperimetric_eps_zero_equality():
    plan = iid_plan()
    A, _ = block_events()
    rep = mc.verify_isoperimetric(plan, A, 0.0, 5000)
    assert rep.sides[0].slack == pytest.approx(0.0, abs=1e-12)
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)


def test_isoperimetric_bf_crossing():
    grid = sampler.Grid((16, 16), 0.5)
    plan = sampler.plan_circulant(kernels.bargmann_fock(2), grid, 23)
    A = events.BoxCrossing((0, 0), (15, 15), 0)
    rep = mc.verify_isoperimetric(plan, A, 0.3, 20_000)
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)


def test_noise_stability_independent_equality():
    rep = mc.verify_noise_stability(iid_plan(), *block_events(), 20_000)
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)
    prod = rep.terms["p1"].value * rep.terms["p2"].value
    assert rep.constants["rhs"] == pytest.approx(prod, abs=1e-12)


def test_noise_stability_rank1_equality():
    A1, A2 = single_events(level=0.8)
    rep = mc.verify_noise_stability(pair_plan(), A1, A2, 30_000)
    assert rep.constants["rho"] == pytest.approx(1.0, abs=1e-8)
    assert rep.verdict in (mc.VERDICT_PASS, mc.VERDICT_NOISE)


def test_report_serialization():
    rep = mc.verify_sprinkled(iid_plan(), *block_events(), 0.5, 0.5, 2000)
    d = rep.to_dict()
    assert d["theorem_id"] == "thm1.1"
    assert set(d) >= {"terms", "sides", "constants", "verdict", "slack", "se", "seed", "n", "meta"}
    assert "wall_time_s" in d["meta"]


# --- verifier spine ------------------------------------------------------------------


def test_classify_edges():
    se = 0.01
    assert mc.classify(0.0, se) == mc.VERDICT_PASS
    assert mc.classify(-3.0 * se, se) == mc.VERDICT_NOISE
    assert mc.classify(np.nextafter(-3.0 * se, -1.0), se) == mc.VERDICT_FAIL
    assert mc.classify(0.0, 0.0) == mc.VERDICT_PASS
    assert mc.classify(-1e-300, 0.0) == mc.VERDICT_FAIL


@pytest.mark.parametrize("slack, se", [(math.inf, 0.1), (-math.inf, 0.1), (-0.5, math.inf), (0.5, -math.inf)])
def test_classify_refuses_an_infinity(slack, se):
    # an infinite slack read as pass or fail, and an infinite se made any shortfall pass-within-noise
    with pytest.raises(NumericalError):
        mc.classify(slack, se)


def test_side_helpers_slack_conventions():
    up, lo = mc._upper("u", 0.25, 0.1, 0.5), mc._lower("l", 0.25, 0.1, 0.5)
    assert (up.slack, up.verdict) == (0.25, mc.VERDICT_PASS)
    assert (lo.slack, lo.verdict) == (-0.25, mc.VERDICT_NOISE)
    assert (lo.estimate, lo.se, lo.bound) == (0.25, 0.1, 0.5)


@pytest.mark.parametrize("seed", range(3))
def test_classify_decides_every_side_of_every_desk_instance(seed):
    # one verdict rule: no side folds the noise into its bound, so hoeffding's bound is the
    # change at every other midpoint alone and each interp case's bound is the identity's 0
    for tid in cli.THEOREM_IDS:
        rep = cli.run_config(cli.default_config(tid, 2_000, seed, 1))
        for side in rep.sides:
            assert side.verdict == mc.classify(side.slack, side.se), (tid, side)
        if tid == "hoeffding":
            assert [s.bound for s in rep.sides] == [rep.constants["resolution"]]
        if tid == "interp":
            assert rep.sides and all(s.bound == 0.0 for s in rep.sides)


def test_report_verdict_is_derived_from_its_sides():
    # no sides: not-applicable, with no slack or se to read
    rep = mc._report("t", {}, [], {}, 0, 10, ("n/a",))
    assert rep.verdict == mc.VERDICT_NA and math.isnan(rep.slack) and math.isnan(rep.se)
    assert rep.notes == ("n/a",)
    # sides: the worst verdict, then the smallest slack, with that side's se
    sides = [mc._upper("pass", 0.5, 0.1, 1.0), mc._upper("deep", 1.2, 0.1, 1.0), mc._upper("shallow", 1.1, 0.2, 1.0)]
    rep = mc._report("t", {}, sides, {}, 0, 10)
    assert (rep.verdict, rep.slack, rep.se) == (mc.VERDICT_NOISE, sides[1].slack, 0.1)
    fail = mc._upper("fail", 2.0, 0.3, 1.0)
    rep = mc._report("t", {}, [*sides, fail], {}, 0, 10)
    assert (rep.verdict, rep.slack, rep.se) == (mc.VERDICT_FAIL, -1.0, 0.3)


def test_not_applicable_reports_are_timed():
    # run_config stamps the wall time of every report, not-applicable ones included
    matrix = [[1.0, 0.5, -0.5], [0.5, 1.0, 0.0], [-0.5, 0.0, 1.0]]
    evs = (events.event_to_dict(events.AllAbove(((0,),), 0.0)),
           events.event_to_dict(events.AllAbove(((1,), (2,)), 0.0)))
    for tid in ("prop2.2", "pa"):
        config = cli.ExperimentConfig(theorem=tid, model={"family": "explicit", "matrix": matrix},
                                      events=evs, n=100, seed=3)
        rep = cli.run_config(config)
        assert rep.verdict == mc.VERDICT_NA and rep.wall_time_s > 0
        assert rep.constants == {"min_cross": -0.5, "max_cross": 0.5}


@pytest.mark.parametrize("side", [
    lambda x: mc._upper("u", x, 0.1, 1.0),
    lambda x: mc._upper("u", 0.5, x, 1.0),
    lambda x: mc._side("s", -x, 0.1, 0.0, x),
], ids=["upper-estimate", "upper-se", "side-slack"])
def test_a_nan_side_is_a_numerical_error_not_a_verdict(side):
    # classify read a NaN slack as fail, and a NaN se beside a positive slack as pass
    assert side(0.5).verdict == mc.VERDICT_PASS
    with pytest.raises(NumericalError):
        side(float("nan"))


def test_pa_zero_gap_keeps_negative_zero_slack():
    # slack is -gap, as in earlier reports: a zero gap serialises as -0.0, not 0.0
    plan = sampler.plan_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]), 21)
    rep = mc.verify_positive_association(plan, *single_events(level=4.0), 100)
    assert rep.terms["gap"].value == 0.0
    assert math.copysign(1.0, rep.to_dict()["sides"][0]["slack"]) == -1.0


@pytest.mark.parametrize("n", [0, 1, 2.5])
def test_replicate_count_below_two_is_a_parameter_error(n):
    # interp draws its own replicates; n = 1 used to end in a ZeroDivisionError
    with pytest.raises(ParameterError, match="n must be an integer >= 2"):
        mc.verify_interp_formula(sampler.plan_dense(np.eye(3), 1), n)
    with pytest.raises(ParameterError, match="n must be an integer >= 2"):
        mc.event_thresholds(iid_plan(), block_events(), n)


def test_cached_thresholds_are_read_only():
    # every caller gets the cached array itself, so a write would poison the next caller
    clear_cache()
    plan, events = iid_plan(), block_events()
    T = mc.event_thresholds(plan, events, 500)
    before = T.copy()
    with pytest.raises(ValueError):
        T[0, :] = 0.0
    again = mc.event_thresholds(plan, events, 500)
    assert again is T and np.array_equal(again, before)


def test_thresholds_above_the_cache_bound_come_back_read_only_and_are_not_kept(monkeypatch):
    clear_cache()
    plan, evs = iid_plan(), block_events()
    store = sampler._Store(2 * 500 * 8)  # holds one 2 x 500 matrix; a 2 x 501 one is above the bound
    monkeypatch.setattr(mc, "_CACHE", store)
    small = mc.event_thresholds(plan, evs, 500)
    big = mc.event_thresholds(plan, evs, 501)
    assert not big.flags.writeable
    assert list(store._entries) == [(plan.fingerprint, evs, 500)]
    again = mc.event_thresholds(plan, evs, 501)
    assert again is not big and np.array_equal(again, big)
    assert mc.event_thresholds(plan, evs, 500) is small


# --- NaN parameters -------------------------------------------------------------
# each check is written so that NaN fails it: a NaN sprinkle gave a fail of NaN
# slack, or a verdict on an event no replicate can meet, and a NaN radius a pass

NAN = float("nan")


def test_thm1_1_nan_sprinkle_is_a_parameter_error():
    for eps1, eps2 in ((NAN, 0.5), (0.5, NAN)):
        with pytest.raises(ParameterError, match="sprinkling parameters must be positive"):
            mc.verify_sprinkled(iid_plan(), *block_events(), eps1, eps2, 100)


def test_thm1_7_nan_sprinkle_is_a_parameter_error():
    with pytest.raises(ParameterError, match="eps must be positive"):
        mc.verify_sdi2(iid_plan(), *block_events(), NAN, 100)


def test_cor2_6_nan_sprinkle_is_a_parameter_error():
    with pytest.raises(ParameterError, match="eps must be nonnegative"):
        mc.verify_isoperimetric(iid_plan(), block_events()[0], NAN, 100)


def bf_blocks():
    return (kernels.bargmann_fock(2), sampler.Grid((24, 24), 0.5),
            events.BoxCrossing((0, 0), (4, 4)), events.BoxCrossing((19, 19), (23, 23)))


def test_prop1_8_nan_sprinkle_is_a_parameter_error():
    model, grid, A1, A2 = bf_blocks()
    with pytest.raises(ParameterError, match="eps must be positive"):
        mc.verify_finite_range(model, grid, 1.5, A1, A2, NAN, 100)


def test_prop1_8_nan_radius_is_a_parameter_error():
    model, grid, A1, A2 = bf_blocks()
    with pytest.raises(ParameterError, match="truncation radius nan is not at least one grid cell"):
        mc.verify_finite_range(model, grid, NAN, A1, A2, 1.0, 100)


def test_estimates_from_one_term_are_parameter_errors():
    # at n = 2 or 3 a paired estimate has one pair, and at n = 2 both covariance
    # terms are equal: each had se 0, so any negative slack was a fail
    A1, A2 = single_events()
    for n in (2, 3):
        with pytest.raises(ParameterError, match="two terms"):
            mc.verify_sprinkled(pair_plan(), A1, A2, 0.5, 0.5, n)
    with pytest.raises(ParameterError, match="needs n >= 3"):
        mc.verify_threshold_cov(pair_plan(), A1, A2, 2)
    assert mc.verify_threshold_cov(pair_plan(), A1, A2, 3).sides
