import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab import events, kernels, sampler
from sdlab.errors import InputError, SpecError

import oracles


def grid_sample(field2d: np.ndarray) -> tuple[np.ndarray, dict]:
    """Values and index map of a 2d field, sites (x, y) in column-major order."""
    ny, nx = field2d.shape
    index = {}
    vals = []
    for x in range(nx):
        for y in range(ny):
            index[(x, y)] = len(vals)
            vals.append(field2d[y, x])
    return np.array(vals), index


def thresholds(spec, index, rows) -> np.ndarray:
    """T_A of each row of a stack of samples."""
    return events.compile_event(spec, index).thresholds_batch(np.asarray(rows, dtype=float))


def hcross_spec(nx, ny, level=0.0):
    return events.BoxCrossing((0, 0), (nx - 1, ny - 1), axis=0, level=level)


def test_all_above_basic():
    spec = events.AllAbove(((0,), (1,)), 0.5)
    t = thresholds(spec, {(0,): 0, (1,): 1}, [[1.0, 2.0], [1.0, 0.2]])
    assert t[0] <= 0
    assert not t[1] <= 0


def test_two_by_two_diagonal_no_crossing():
    # rows y=0,1: [[+1,-1],[-1,+1]] has no monotone-lattice path of positives
    field = np.array([[1.0, -1.0], [-1.0, 1.0]])
    vals, idx = grid_sample(field)
    assert not thresholds(hcross_spec(2, 2), idx, [vals])[0] <= 0


def test_annulus_all_above_occurs():
    spec = events.AnnulusCrossing((0, 0), 1.0, 3.0, 0.0)
    idx = {p: i for i, p in enumerate(spec.support)}
    t = thresholds(spec, idx, [np.ones(len(idx)), -np.ones(len(idx))])
    assert t[0] <= 0
    assert not t[1] <= 0


def test_missing_support_raises():
    spec = events.AllAbove(((5,),), 0.0)
    with pytest.raises(InputError):
        events.compile_event(spec, {(0,): 0})


def test_threshold_all_above_closed_form():
    spec = events.AllAbove(((0,), (1,), (2,)), 0.0)
    vals, idx = [[0.3, -0.7, 1.2]], {(i,): i for i in range(3)}
    assert thresholds(spec, idx, vals)[0] == pytest.approx(0.7)
    spec1 = events.AnyAbove(((1,),), 0.0)
    assert thresholds(spec1, idx, vals)[0] == pytest.approx(0.7)  # -sample_1


def test_threshold_empty_support_raises():
    with pytest.raises(SpecError):
        events.compile_event(events.AllAbove((), 0.0), {})


def test_threshold_3x3_matches_enumeration():
    rng = np.random.default_rng(1)
    spec = hcross_spec(3, 3)
    fields = [rng.integers(-5, 6, size=(3, 3)).astype(float) for _ in range(50)]
    samples = [grid_sample(field) for field in fields]
    got = thresholds(spec, samples[0][1], [vals for vals, _ in samples])
    for field, t in zip(fields, got):
        assert t == -oracles.grid_maximin(field.T, axis=0)


def test_union_find_matches_enumeration_all_small_grids():
    rng = np.random.default_rng(7)
    for nx in (2, 3, 4):
        for ny in (2, 3, 4):
            spec = hcross_spec(nx, ny)
            idx = {p: k for k, p in enumerate(spec.support)}
            ce = events.compile_event(spec, idx)
            fields = [rng.integers(-4, 5, size=(ny, nx)).astype(float) for _ in range(60)]
            got = ce.thresholds_batch(np.array([[f[p[1], p[0]] for p in spec.support] for f in fields]))
            for field, t in zip(fields, got):
                assert t == -oracles.grid_maximin(field.T, axis=0)


def crossing_ends(spec):
    """Source and sink sites of a crossing event, as the oracles read them."""
    if isinstance(spec, events.BoxCrossing):
        return ([p for p in spec.support if p[spec.axis] == spec.lo[spec.axis]],
                [p for p in spec.support if p[spec.axis] == spec.hi[spec.axis]])
    return oracles.annulus_ends(spec.support, spec.center, spec.r_inner)


@pytest.mark.parametrize("spec", [
    events.AnnulusCrossing((0, 0), 0.0, 2.0), events.AnnulusCrossing((0, 0), 0.0, 3.0),
    events.AnnulusCrossing((1, -2), 1.0, 2.5), events.AnnulusCrossing((0, 0), 1.0, 3.0),
    events.BoxCrossing((0, 0, 0), (1, 2, 2), 0), events.BoxCrossing((0, 0, 0), (1, 2, 2), 1),
    events.BoxCrossing((0, 0, 0), (1, 2, 2), 2), events.BoxCrossing((-3,), (4,), 0),
])
def test_threshold_matches_enumeration_beyond_2d_boxes(spec):
    src, snk = crossing_ends(spec)
    idx = {p: k for k, p in enumerate(spec.support)}
    ce = events.compile_event(spec, idx)
    rng = np.random.default_rng(17)
    fields = rng.integers(-3, 4, size=(100, len(idx))).astype(float)  # ties
    got = ce.thresholds_batch(fields)
    for vals, t in zip(fields, got):
        assert t == -oracles.support_maximin(vals, spec.support, src, snk)


@st.composite
def crossing_specs(draw):
    """Boxes in d = 1-3 along any axis, and annuli in d = 2, 3 with r_inner 0 or > 0, off-centre."""
    level = draw(st.sampled_from([0.0, -0.0, 0.5]))
    d = draw(st.integers(1, 3))
    if d == 1 or draw(st.booleans()):
        lo = tuple(draw(st.integers(-3, 3)) for _ in range(d))
        ext = [draw(st.integers(1, {1: 12, 2: 7, 3: 4}[d])) for _ in range(d)]
        return events.BoxCrossing(lo, tuple(a + e - 1 for a, e in zip(lo, ext)), draw(st.integers(0, d - 1)), level)
    r_outer = draw(st.floats(0.5, {2: 4.5, 3: 2.5}[d]))
    r_inner = draw(st.one_of(st.just(0.0), st.floats(0.5, r_outer).filter(lambda r: r < r_outer)))
    return events.AnnulusCrossing(tuple(draw(st.integers(-3, 3)) for _ in range(d)), r_inner, r_outer, level)


def field_stack(kind: str, seed: int, reps: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "floats":
        return rng.normal(size=(reps, m))
    if kind == "ties":
        return rng.integers(-2, 3, size=(reps, m)).astype(float)
    if kind == "signed-zeros":
        return rng.choice([-0.0, 0.0, 1.0, -1.0], size=(reps, m), p=[0.35, 0.35, 0.15, 0.15])
    return np.full((reps, m), rng.choice([-0.0, 0.0, 1.5]))  # constant


@settings(max_examples=300, deadline=None, derandomize=True)
@given(crossing_specs(), st.sampled_from(["floats", "ties", "signed-zeros", "constant"]),
       st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_crossing_thresholds_equal_bisection_bit_for_bit(spec, kind, seed, reps):
    idx = {p: k for k, p in enumerate(spec.support)}
    ce = events.compile_event(spec, idx)
    vals = field_stack(kind, seed, reps, len(idx))
    got, ref = ce.thresholds_batch(vals), oracles.bisection_thresholds(ce, vals)
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))
    if len(idx) <= 12:
        src, snk = crossing_ends(spec)
        for row, t in zip(vals, got):
            assert t == spec.level - oracles.support_maximin(row, spec.support, src, snk)


def _bf_stack(spec, spacing, seed=5, n=2048):
    pts = np.array(spec.support)
    grid = sampler.Grid(tuple(int(s) for s in np.ptp(pts, axis=0) + 1), spacing, tuple(int(c) for c in pts.min(axis=0)))
    plan = sampler.plan_circulant(kernels.bargmann_fock(2), grid, seed)
    return plan, [plan.draw_batch(range(a, a + 256)) for a in range(0, n, 256)]


@pytest.mark.parametrize("spec, spacing", [
    (events.BoxCrossing((0, 0), (31, 31), 0), 0.5),  # the crossing workload's 32 x 32 hcross
    (events.AnnulusCrossing((0, 0), 0.0, 16), 1.0),  # its R = 16 one-arm
])
def test_crossing_thresholds_on_bargmann_fock_equal_bisection(spec, spacing):
    plan, stacks = _bf_stack(spec, spacing)
    ce = events.compile_event(spec, plan.index)
    settled = 0
    for draws in stacks:
        got = ce.thresholds_batch(draws)
        assert np.array_equal(got, oracles.bisection_thresholds(ce, draws))
        settled += int(np.sum(spec.level - ce._path_bound(draws[:, ce.cols]) == got))
    assert 0 < settled < 2048  # both the confirming labelling and the bisection decide replicates


def serpentine(width: int, turns: int, seed: int = 0) -> np.ndarray:
    """field[x, y] of a box whose one high route from x = 0 to x = width - 1 runs along
    rows 0, 2, ..., 2 * turns, alternately rightward and leftward (``turns`` even, so the
    last row runs rightward); every other site is low."""
    rng = np.random.default_rng(seed)
    field = -1.0 - rng.uniform(size=(width, 2 * turns + 1))
    for r in range(turns + 1):
        y = 2 * r
        field[1:width - 1, y] = 2.0 + rng.uniform(size=width - 2)
        if r < turns:  # the step down to the next row, at the end this row runs to
            field[width - 2 if r % 2 == 0 else 1, y + 1] = 2.0 + rng.uniform()
    field[0, 0] = 2.0 + rng.uniform()
    field[width - 1, 2 * turns] = 2.0 + rng.uniform()
    return field


@pytest.mark.parametrize("extra", [0, 4])
def test_serpentine_bound_is_strict_and_bisection_decides(extra):
    # each outward-and-back pass follows the route through two of its turns
    field = serpentine(9, 2 * events.PATH_PASSES + extra)
    spec = events.BoxCrossing((0, 0), (field.shape[0] - 1, field.shape[1] - 1), 0)
    idx = {p: k for k, p in enumerate(spec.support)}
    vals = np.array([[field[p] for p in spec.support]])
    ce = events.compile_event(spec, idx)
    route_min = field[field > 0].min()
    assert ce._path_bound(vals)[0] < route_min  # the sweeps cannot follow every turn
    probes = []
    crossed = ce._crossed
    ce._crossed = lambda box, u: probes.append(u.copy()) or crossed(box, u)
    got = ce.thresholds_batch(vals)
    assert got[0] == -route_min == oracles.bisection_thresholds(ce, vals)[0]
    assert len(probes) > 1  # the confirming labelling crossed, so the bisection ran


def test_occurs_iff_threshold_below_shift():
    rng = np.random.default_rng(3)
    spec = hcross_spec(4, 3)
    idx = {p: k for k, p in enumerate(spec.support)}
    ce = events.compile_event(spec, idx)
    draws = [(rng.normal(size=len(spec.support)), rng.normal()) for _ in range(300)]
    vals = np.array([v for v, _ in draws])
    u = np.array([u for _, u in draws])
    t = ce.thresholds_batch(vals)
    occurs = ce.thresholds_batch(vals + u[:, None]) <= 0
    for k in range(len(draws)):
        assert occurs[k] == (t[k] <= u[k])
        assert oracles.box_crossing_occurs(vals[k] + u[k], spec.support, spec.lo, spec.hi, spec.axis) == (
            t[k] <= u[k])


def test_threshold_shift_equivariance_exact():
    rng = np.random.default_rng(5)
    spec = hcross_spec(4, 4)
    idx = {p: k for k, p in enumerate(spec.support)}
    ce = events.compile_event(spec, idx)
    draws = [(rng.normal(size=len(spec.support)), float(rng.normal())) for _ in range(100)]
    vals = np.array([v for v, _ in draws])
    h = np.array([h for _, h in draws])
    assert np.array_equal(ce.thresholds_batch(vals + h[:, None]), ce.thresholds_batch(vals) - h)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=9, max_size=9),
       st.lists(st.floats(-0.5, 0.5, allow_nan=False), min_size=9, max_size=9))
def test_threshold_lipschitz(vals, pert):
    spec = hcross_spec(3, 3)
    idx = {p: k for k, p in enumerate(spec.support)}
    v = np.array(vals)
    w = v + np.array(pert)
    tv, tw = thresholds(spec, idx, [v, w])
    assert abs(tv - tw) <= np.abs(v - w).max() + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=9, max_size=9),
       st.lists(st.floats(0, 1, allow_nan=False), min_size=9, max_size=9))
def test_threshold_monotone_under_increase(vals, bump):
    spec = hcross_spec(3, 3)
    idx = {p: k for k, p in enumerate(spec.support)}
    v = np.array(vals)
    t_up, t = thresholds(spec, idx, [v + np.array(bump), v])
    assert t_up <= t + 1e-12


def test_threshold_support_locality():
    # off-support coordinates cannot change the threshold
    spec = events.AllAbove(((0,), (1,)), 0.0)
    idx = {(i,): i for i in range(4)}
    rng = np.random.default_rng(11)
    v, w = [], []
    for _ in range(100):
        v.append(rng.normal(size=4))
        w.append(v[-1].copy())
        w[-1][2:] = rng.normal(size=2)
    assert np.array_equal(thresholds(spec, idx, v), thresholds(spec, idx, w))


def test_monotone_event_contract():
    rng = np.random.default_rng(13)
    spec = hcross_spec(3, 3)
    idx = {p: k for k, p in enumerate(spec.support)}
    v, w = [], []
    for _ in range(200):
        v.append(rng.normal(size=9))
        w.append(v[-1] + rng.uniform(0, 1, size=9))
    for tv, tw in zip(thresholds(spec, idx, v), thresholds(spec, idx, w)):
        if tv <= 0:
            assert tw <= 0


def test_tie_breaking_deterministic_on_integer_fields():
    spec = hcross_spec(3, 3)
    idx = {p: k for k, p in enumerate(spec.support)}
    ce = events.compile_event(spec, idx)
    vals = np.zeros(9)
    t1 = ce.thresholds_batch(vals[None])[0]
    t2 = ce.thresholds_batch(vals.copy()[None])[0]
    assert t1 == t2 == 0.0


def test_one_arm_event():
    spec = events.AnnulusCrossing((0, 0), 0.0, 3.0)
    idx = {p: i for i, p in enumerate(spec.support)}
    vals = -np.ones(len(idx))
    # only a straight positive path from center to the boundary
    for x in range(0, 4):
        if (x, 0) in idx:
            vals[idx[(x, 0)]] = 1.0
    cut = vals.copy()
    cut[idx[(2, 0)]] = -1.0  # cut the path
    t = thresholds(spec, idx, [vals, cut])
    assert t[0] <= 0
    assert not t[1] <= 0


def test_event_serialization_roundtrip():
    specs = [
        events.AllAbove(((0, 1), (2, 2)), 0.25),
        events.AnyAbove(((1,),), -1.0),
        hcross_spec(4, 2, level=0.5),
        events.AnnulusCrossing((1, -2), 2.0, 4.0, 0.1),
    ]
    for s in specs:
        assert events.event_from_dict(events.event_to_dict(s)) == s


@pytest.mark.parametrize("d", [
    {"kind": "all_above", "level": 0.0},  # missing sites
    {"kind": "all_above", "sites": [[0]], "lvl": 0.0},  # unknown key
    {"kind": "box", "lo": [0, 0], "hi": [1, 1]},  # unknown kind
    {"sites": [[0]]},  # no kind
    {"kind": ["all_above"], "sites": [[0]]},  # unhashable kind
    {"kind": "box_crossing", "lo": [0, 0], "hi": [1, "x"]},  # malformed corner
    {"kind": "annulus_crossing", "center": [0, 0], "r_inner": 2.0, "r_outer": 1.0},  # radii swapped
    [["all_above"]],  # not an object
])
def test_event_from_dict_rejects_malformed_input(d):
    with pytest.raises(InputError):
        events.event_from_dict(d)


@pytest.mark.parametrize("d", [
    {"kind": "box_crossing", "lo": [0, 0], "hi": [3, 3], "axis": True},
    {"kind": "box_crossing", "lo": [0, 0], "hi": [3, 3], "axis": 0.5},
    {"kind": "box_crossing", "lo": [0, 0], "hi": [3, 3], "axis": "0"},
])
def test_box_crossing_axis_must_be_an_int(d):
    # true and 0.5 passed the range check and ended in an IndexError in compile_event
    with pytest.raises(InputError, match="axis must be an integer"):
        events.event_from_dict(d)


@pytest.mark.parametrize("r_inner, r_outer", [
    (-np.inf, 3.0), (-1.0, 3.0), (np.nan, 3.0), (0.0, np.inf), (0.0, np.nan), (True, 3.0), (0.0, "3"),
])
def test_annulus_radii_must_be_finite_and_ordered(r_inner, r_outer):
    # r_inner = -inf was accepted
    with pytest.raises(InputError, match="r_inner|r_outer"):
        events.AnnulusCrossing((0, 0), r_inner, r_outer)


@pytest.mark.parametrize("cls, args", [
    (events.AllAbove, (((0,),),)), (events.AnyAbove, (((0,),),)),
    (events.BoxCrossing, ((0, 0), (1, 1), 0)), (events.AnnulusCrossing, ((0, 0), 0.0, 2.0)),
])
@pytest.mark.parametrize("level", [None, "x", np.nan, -np.inf, False])
def test_event_level_must_be_a_finite_real(cls, args, level):
    with pytest.raises(InputError, match="level must be a finite real number"):
        cls(*args, level)


def test_event_numbers_keep_their_type():
    for d in ({"kind": "all_above", "sites": [[0]], "level": 1},
              {"kind": "box_crossing", "lo": [0, 0], "hi": [2, 2], "axis": np.int64(1), "level": np.float32(0.5)},
              {"kind": "annulus_crossing", "center": [0, 0], "r_inner": 0, "r_outer": 3, "level": -2}):
        back = events.event_to_dict(events.event_from_dict(d))
        assert back == d and [type(v) for v in back.values()] == [type(v) for v in d.values()]


def test_event_to_dict_rejects_unknown_type():
    with pytest.raises(InputError):
        events.event_to_dict(("all_above", ((0,),)))


@pytest.mark.parametrize("center, radius", [((0, 0, 0), 4.0), ((0, 0), 2.5), ((1, -2), 3), ((0,), 1.0), ((0, 0), 0.0)])
def test_lattice_ball_is_the_row_major_euclidean_ball(center, radius):
    import itertools

    m = int(np.ceil(radius))
    offsets = itertools.product(range(-m, m + 1), repeat=len(center))
    expect = tuple(tuple(c + o for c, o in zip(center, off)) for off in offsets
                   if sum(o * o for o in off) <= radius * radius)
    assert events.lattice_ball(center, radius) == expect
    if radius > 0:
        assert events.AnnulusCrossing(center, 0.0, radius).support == expect


@pytest.mark.parametrize("radius", [np.inf, np.nan])
def test_lattice_ball_needs_a_finite_radius(radius):
    with pytest.raises(InputError, match="ball radius must be finite"):
        events.lattice_ball((0, 0), radius)


@pytest.mark.parametrize("build", [
    lambda hi: events.BoxCrossing((0, 0), hi),
    lambda hi: events.event_from_dict({"kind": "box_crossing", "lo": [0, 0], "hi": list(hi)}),
], ids=["box", "config-box"])
def test_a_crossing_box_spans_at_most_max_sites(build):
    # 4096^2 = 2**24 sites construct (the support is built only when read); 24929 * 673 = 2**24 + 1 raise
    assert build((4095, 4095)).hi == (4095, 4095)
    with pytest.raises(InputError, match="MAX_SITES"):
        build((24928, 672))


def test_a_lattice_ball_bounding_box_spans_at_most_max_sites():
    # the (2 ceil(r) + 1)^d bounding box is checked before any site is built: 4097^2 > 2**24
    with pytest.raises(InputError, match="MAX_SITES"):
        events.lattice_ball((0, 0), 2048)
    annulus = events.AnnulusCrossing((0, 0), 1e7, 2e7)
    with pytest.raises(InputError, match="MAX_SITES"):
        annulus.support
    assert events.lattice_ball((0, 0), -1e9) == ()  # an empty ball spans no sites
