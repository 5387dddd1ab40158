import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab import events
from sdlab.errors import InputError, SpecError
from sdlab.sampler import FieldSample

import oracles


def grid_sample(field2d: np.ndarray) -> FieldSample:
    ny, nx = field2d.shape
    index = {}
    vals = []
    for x in range(nx):
        for y in range(ny):
            index[(x, y)] = len(vals)
            vals.append(field2d[y, x])
    return FieldSample(np.array(vals), index)


def hcross_spec(nx, ny, level=0.0):
    return events.BoxCrossing((0, 0), (nx - 1, ny - 1), axis=0, level=level)


def test_all_above_basic():
    spec = events.AllAbove(((0,), (1,)), 0.5)
    fs = FieldSample(np.array([1.0, 2.0]), {(0,): 0, (1,): 1})
    assert events.occurs(spec, fs)
    fs2 = FieldSample(np.array([1.0, 0.2]), {(0,): 0, (1,): 1})
    assert not events.occurs(spec, fs2)


def test_two_by_two_diagonal_no_crossing():
    # rows y=0,1: [[+1,-1],[-1,+1]] has no monotone-lattice path of positives
    field = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert not events.occurs(hcross_spec(2, 2), grid_sample(field))


def test_annulus_all_above_occurs():
    spec = events.AnnulusCrossing((0, 0), 1.0, 3.0, 0.0)
    idx = {p: i for i, p in enumerate(spec.support)}
    fs = FieldSample(np.ones(len(idx)), idx)
    assert events.occurs(spec, fs)
    assert not events.occurs(spec, FieldSample(-np.ones(len(idx)), idx))


def test_missing_support_raises():
    spec = events.AllAbove(((5,),), 0.0)
    with pytest.raises(InputError):
        events.occurs(spec, FieldSample(np.zeros(1), {(0,): 0}))


def test_threshold_all_above_closed_form():
    spec = events.AllAbove(((0,), (1,), (2,)), 0.0)
    fs = FieldSample(np.array([0.3, -0.7, 1.2]), {(i,): i for i in range(3)})
    assert events.threshold(spec, fs) == pytest.approx(0.7)
    spec1 = events.AnyAbove(((1,),), 0.0)
    assert events.threshold(spec1, fs) == pytest.approx(0.7)  # -sample_1


def test_threshold_empty_support_raises():
    with pytest.raises(SpecError):
        events.compile_event(events.AllAbove((), 0.0), {})


def test_threshold_3x3_matches_enumeration():
    rng = np.random.default_rng(1)
    spec = hcross_spec(3, 3)
    for _ in range(50):
        field = rng.integers(-5, 6, size=(3, 3)).astype(float)
        fs = grid_sample(field)
        t = events.threshold(spec, fs)
        assert t == -oracles.grid_maximin(field.T, axis=0)


def test_union_find_matches_enumeration_all_small_grids():
    rng = np.random.default_rng(7)
    for nx in (2, 3, 4):
        for ny in (2, 3, 4):
            spec = hcross_spec(nx, ny)
            idx = {p: k for k, p in enumerate(spec.support)}
            ce = events.compile_event(spec, idx)
            for _ in range(60):
                field = rng.integers(-4, 5, size=(ny, nx)).astype(float)
                vals = np.array([field[p[1], p[0]] for p in spec.support])
                assert ce.threshold(vals) == -oracles.grid_maximin(field.T, axis=0)


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
        assert ce.threshold(vals) == t


def test_occurs_iff_threshold_below_shift():
    rng = np.random.default_rng(3)
    spec = hcross_spec(4, 3)
    idx = {p: k for k, p in enumerate(spec.support)}
    ce = events.compile_event(spec, idx)
    for _ in range(300):
        vals = rng.normal(size=len(spec.support))
        u = rng.normal()
        t = ce.threshold(vals)
        assert ce.occurs(vals + u) == (t <= u)
        assert oracles.box_crossing_occurs(vals + u, spec.support, spec.lo, spec.hi, spec.axis) == (t <= u)


def test_threshold_shift_equivariance_exact():
    rng = np.random.default_rng(5)
    spec = hcross_spec(4, 4)
    idx = {p: k for k, p in enumerate(spec.support)}
    ce = events.compile_event(spec, idx)
    for _ in range(100):
        vals = rng.normal(size=len(spec.support))
        h = float(rng.normal())
        assert ce.threshold(vals + h) == ce.threshold(vals) - h


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=9, max_size=9),
       st.lists(st.floats(-0.5, 0.5, allow_nan=False), min_size=9, max_size=9))
def test_threshold_lipschitz(vals, pert):
    spec = hcross_spec(3, 3)
    idx = {p: k for k, p in enumerate(spec.support)}
    ce = events.compile_event(spec, idx)
    v = np.array(vals)
    w = v + np.array(pert)
    assert abs(ce.threshold(v) - ce.threshold(w)) <= np.abs(v - w).max() + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=9, max_size=9),
       st.lists(st.floats(0, 1, allow_nan=False), min_size=9, max_size=9))
def test_threshold_monotone_under_increase(vals, bump):
    spec = hcross_spec(3, 3)
    idx = {p: k for k, p in enumerate(spec.support)}
    ce = events.compile_event(spec, idx)
    v = np.array(vals)
    assert ce.threshold(v + np.array(bump)) <= ce.threshold(v) + 1e-12


def test_threshold_support_locality():
    # off-support coordinates cannot change the threshold
    spec = events.AllAbove(((0,), (1,)), 0.0)
    idx = {(i,): i for i in range(4)}
    ce = events.compile_event(spec, idx)
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.normal(size=4)
        w = v.copy()
        w[2:] = rng.normal(size=2)
        assert ce.threshold(v) == ce.threshold(w)


def test_monotone_event_contract():
    rng = np.random.default_rng(13)
    spec = hcross_spec(3, 3)
    idx = {p: k for k, p in enumerate(spec.support)}
    ce = events.compile_event(spec, idx)
    for _ in range(200):
        v = rng.normal(size=9)
        w = v + rng.uniform(0, 1, size=9)
        if ce.occurs(v):
            assert ce.occurs(w)


def test_tie_breaking_deterministic_on_integer_fields():
    spec = hcross_spec(3, 3)
    idx = {p: k for k, p in enumerate(spec.support)}
    ce = events.compile_event(spec, idx)
    vals = np.zeros(9)
    t1 = ce.threshold(vals)
    t2 = ce.threshold(vals.copy())
    assert t1 == t2 == 0.0


def test_one_arm_event():
    spec = events.AnnulusCrossing((0, 0), 0.0, 3.0)
    idx = {p: i for i, p in enumerate(spec.support)}
    vals = -np.ones(len(idx))
    # only a straight positive path from center to the boundary
    for x in range(0, 4):
        if (x, 0) in idx:
            vals[idx[(x, 0)]] = 1.0
    assert events.occurs(spec, FieldSample(vals, idx))
    vals[idx[(2, 0)]] = -1.0  # cut the path
    assert not events.occurs(spec, FieldSample(vals, idx))


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
