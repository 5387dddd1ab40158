import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab import events
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


@pytest.mark.parametrize("spec", [
    events.AnnulusCrossing((0, 0), 0.0, 2.0), events.AnnulusCrossing((0, 0), 0.0, 3.0),
    events.AnnulusCrossing((1, -2), 1.0, 2.5), events.AnnulusCrossing((0, 0), 1.0, 3.0),
    events.BoxCrossing((0, 0, 0), (1, 2, 2), 0), events.BoxCrossing((0, 0, 0), (1, 2, 2), 1),
    events.BoxCrossing((0, 0, 0), (1, 2, 2), 2), events.BoxCrossing((-3,), (4,), 0),
])
def test_threshold_matches_enumeration_beyond_2d_boxes(spec):
    if isinstance(spec, events.BoxCrossing):
        src = [p for p in spec.support if p[spec.axis] == spec.lo[spec.axis]]
        snk = [p for p in spec.support if p[spec.axis] == spec.hi[spec.axis]]
    else:
        src, snk = oracles.annulus_ends(spec.support, spec.center, spec.r_inner)
    idx = {p: k for k, p in enumerate(spec.support)}
    ce = events.compile_event(spec, idx)
    rng = np.random.default_rng(17)
    fields = rng.integers(-3, 4, size=(100, len(idx))).astype(float)  # ties
    got = ce.thresholds_batch(fields)
    for vals, t in zip(fields, got):
        assert t == -oracles.support_maximin(vals, spec.support, src, snk)


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
