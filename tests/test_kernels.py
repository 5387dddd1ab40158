import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdlab import kernels, measures, sampler
from sdlab.errors import DomainError, InputError, ModelError, ParameterError, SdlabError

import oracles

RNG = np.random.default_rng(20260810)

FAMILIES = [
    kernels.gff(3),
    kernels.bargmann_fock(2),
    kernels.cauchy(2.0, 2),
    kernels.monochromatic_wave(2),
    kernels.polylog_decay(3.5, 2),
    kernels.iid_standard(2),
]


def test_bargmann_fock_at_zero():
    m = kernels.bargmann_fock(2)
    assert kernels.eval_cov(m, (0.0, 0.0), (0.0, 0.0)) == 1.0


def test_iid_off_diagonal_zero():
    m = kernels.iid_standard(2)
    assert kernels.eval_cov(m, (0, 0), (1, 0)) == 0.0
    assert kernels.eval_cov(m, (3, 5), (3, 5)) == 1.0


def test_gff_origin_value_against_closed_form():
    # Fourier/Bessel quadrature vs the Watson product formula
    assert kernels.gff_green((0, 0, 0), 3) == pytest.approx(oracles.watson_g3_origin(), abs=1e-9)


def test_gff_harmonic_relation():
    # (1/2d) sum_{y~x} G(y) - G(x) = -delta_{x,0}
    d = 3
    for x, expect in [((0, 0, 0), -1.0), ((1, 0, 0), 0.0), ((1, 1, 0), 0.0)]:
        acc = 0.0
        for ax in range(d):
            for step in (-1, 1):
                y = list(x)
                y[ax] += step
                acc += kernels.gff_green(tuple(y), d)
        defect = acc / (2 * d) - kernels.gff_green(x, d)
        assert defect == pytest.approx(expect, abs=1e-6)


def test_gff_rejects_low_dimension():
    with pytest.raises(DomainError):
        kernels.gff(2)


def test_cauchy_parameter_error():
    with pytest.raises(ParameterError):
        kernels.cauchy(0.0, 2)


@pytest.mark.parametrize("make", [kernels.cauchy, kernels.polylog_decay], ids=["cauchy", "polylog"])
@pytest.mark.parametrize("value", [float("nan"), math.inf])
def test_non_finite_kernel_parameter_is_a_parameter_error(make, value):
    # `alpha <= 0` let NaN through, and prop1.8 then read fail (slack=nan, se=0)
    with pytest.raises(ParameterError, match="requires a finite"):
        make(value, 2)


def test_cauchy_example_value():
    m = kernels.cauchy(2.0, 2)
    assert kernels.eval_cov(m, (0.0, 0.0), (1.0, 0.0)) == pytest.approx(0.5, abs=0)


def test_wave_limit_at_zero_is_one():
    m = kernels.monochromatic_wave(2)
    assert kernels.eval_cov(m, (0.0, 0.0), (1e-9, 0.0)) == pytest.approx(1.0, abs=1e-12)
    m3 = kernels.monochromatic_wave(3)
    assert kernels.eval_cov(m3, (0.0,) * 3, (1e-9, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_wave_d2_matches_bessel_oracle():
    m = kernels.monochromatic_wave(2)
    for r in np.linspace(0.01, 50.0, 97):
        got = kernels.eval_cov(m, (0.0, 0.0), (float(r), 0.0))
        assert got == pytest.approx(oracles.bessel_j_mp(0, float(r)), abs=1e-12)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.family)
def test_symmetry_exact(model):
    d = model.dim
    for _ in range(1000):
        if model.family in ("gff", "iid_standard"):  # kernels on the sites of Z^d
            x = tuple(RNG.integers(-6, 7, size=d).tolist())
            y = tuple(RNG.integers(-6, 7, size=d).tolist())
        else:
            x = tuple(RNG.normal(size=d).tolist())
            y = tuple(RNG.normal(size=d).tolist())
        assert kernels.eval_cov(model, x, y) == kernels.eval_cov(model, y, x)


@pytest.mark.parametrize("model", [kernels.cauchy(1.5, 2), kernels.polylog_decay(3.5, 2)],
                         ids=["cauchy", "polylog"])
def test_decay_nonincreasing_along_ray(model):
    radii = np.linspace(0.0, 60.0, 100)
    vals = [kernels.eval_cov(model, (0.0, 0.0), (float(r), 0.0)) for r in radii]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_stationarity_under_translation():
    m = kernels.bargmann_fock(2)
    for _ in range(50):
        x, y, t = RNG.normal(size=2), RNG.normal(size=2), RNG.normal(size=2)
        a = kernels.eval_cov(m, tuple(x), tuple(y))
        b = kernels.eval_cov(m, tuple(x + t), tuple(y + t))
        assert a == pytest.approx(b, abs=1e-14)


def test_build_cov_iid_identity():
    m = kernels.iid_standard(2)
    pts = [(0, 0), (1, 0), (5, 5)]
    assert np.array_equal(kernels.build_cov_matrix(m, pts), np.eye(3))


def test_build_cov_cauchy_example():
    m = kernels.cauchy(2.0, 2)
    got = kernels.build_cov_matrix(m, [(0.0, 0.0), (1.0, 0.0)])
    assert np.allclose(got, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)


def test_build_cov_polylog_diagonal_convention():
    # normalized kernel: K(0,0) = 1, off-diagonal g(r)/g(0) = (log(e+r))^-gamma
    m = kernels.polylog_decay(3.5, 2)
    got = kernels.build_cov_matrix(m, [(0, 0), (1, 0)])
    expect = np.log(np.e + 1.0) ** -3.5
    assert got[0, 0] == 1.0
    assert got[0, 1] == pytest.approx(expect, abs=1e-15)


def test_build_cov_duplicate_points_rejected():
    with pytest.raises(InputError):
        kernels.build_cov_matrix(kernels.iid_standard(1), [(0,), (0,)])


def test_build_cov_caps_its_entries_before_the_first_matrix(monkeypatch):
    # n^2 is checked before any n x n array: 9,487 points (9.0003e7 entries) end in an
    # InputError at once, where they would need about 2.2 GB to build
    pts = [(i,) for i in range(9_487)]
    with pytest.raises(InputError, match="9487 points has 90003169 entries, more than MAX_COV_ENTRIES"):
        kernels.build_cov_matrix(kernels.iid_standard(1), pts)
    # the cap is on n^2, inclusive, for every family
    monkeypatch.setattr(kernels, "MAX_COV_ENTRIES", 9)
    for model in (kernels.gff(3), kernels.explicit(np.eye(4))):
        assert kernels.build_cov_matrix(model, [(i, 0, 0)[:model.dim] for i in range(3)]).shape == (3, 3)
        with pytest.raises(InputError, match="4 points has 16 entries"):
            kernels.build_cov_matrix(model, [(i, 0, 0)[:model.dim] for i in range(4)])


def test_build_cov_exactly_symmetric_and_psd():
    m = kernels.bargmann_fock(2)
    pts = [(float(i), float(j)) for i in range(5) for j in range(5)]
    got = kernels.build_cov_matrix(m, pts)
    assert np.array_equal(got, got.T)
    assert np.linalg.eigvalsh(got).min() >= -1e-10


def test_build_cov_indefinite_matrix_raises():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(ModelError):
        kernels.build_cov_matrix(kernels.explicit(bad), [(0,), (1,)])


def test_explicit_requires_symmetry():
    with pytest.raises(InputError):
        kernels.explicit(np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_eval_cov_on_an_explicit_model_reads_the_matrix():
    K = np.array([[2.0, 0.5, -0.25], [0.5, 1.0, 0.0], [-0.25, 0.0, 3.0]])
    m = kernels.explicit(K)
    for i, j in itertools.product(range(3), repeat=2):
        assert kernels.eval_cov(m, i, (j,)) == K[i, j]
    for i, j in ((3, 0), (0, 3), (-1, 0)):
        with pytest.raises(InputError, match="outside explicit matrix of size 3"):
            kernels.eval_cov(m, i, j)


def test_wave_d3_is_sin_r_over_r():
    r = np.linspace(0.01, 50.0, 97)
    got = [kernels.eval_cov(kernels.monochromatic_wave(3), (0.0,) * 3, (float(x), 0.0, 0.0)) for x in r]
    assert got == pytest.approx(np.sin(r) / r, rel=1e-13, abs=1e-14)


def test_export_csv_roundtrip(tmp_path):
    m = kernels.build_cov_matrix(kernels.bargmann_fock(2), [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)])
    path = tmp_path / "cov.csv"
    kernels.export_cov_csv(m, path)
    back = np.loadtxt(path, delimiter=",")
    assert np.array_equal(back, m)


def test_green_cache_concurrent_reads():
    import concurrent.futures as cf

    offs = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    with cf.ThreadPoolExecutor(8) as pool:
        vals = list(pool.map(lambda o: kernels.gff_green(o, 3), offs * 4))
    serial = [kernels.gff_green(o, 3) for o in offs * 4]
    assert vals == serial


def _ball(R, d=3, shift=0):
    r = range(-R, R + 1)
    return [(p[0] + shift,) + p[1:] for p in itertools.product(r, repeat=d)
            if sum(v * v for v in p) <= R * R]


def _pair_offsets(points):
    a = np.asarray(points, dtype=float)
    return (a[:, None, :] - a[None, :, :]).reshape(-1, a.shape[1])


def _d10_rows():
    # coordinates 0..99 in d = 10: a mixed-radix key 100**10 overflows int64
    i = np.arange(100)[:, None]
    rows = (i * np.arange(1, 11) * 37 + np.arange(10)) % 100
    return np.vstack([rows, rows[:, ::-1], np.full((1, 10), 99), np.zeros((1, 10))]).astype(float)


GREEN_CASES = {
    "ball2": lambda: _pair_offsets(_ball(2)),
    "ball4": lambda: _pair_offsets(_ball(4)),
    "ball6": lambda: _pair_offsets(_ball(6)),
    "maxcorr_pair": lambda: _pair_offsets(_ball(4) + _ball(4, shift=12)),
    "d4": lambda: _pair_offsets(_ball(2, d=4)),
    "d5": lambda: _pair_offsets(np.random.default_rng(5).integers(-6, 7, size=(40, 5))),
    "single": lambda: np.array([[3.0, -1.0, 2.0]]),
    "zero": lambda: np.zeros((1, 3)),
    "negative": lambda: -np.array([[1, 2, 3], [3, 2, 1], [0, 5, 1], [2, 2, 0]], dtype=float),
    "coord_1e6": lambda: np.array([[1e6, 0, 0], [1e6, 1e6, 1e6], [-3, 1e6, 2], [0, 0, 1]]),
    "d10_0_99": _d10_rows,
}


@pytest.mark.parametrize("name", list(GREEN_CASES))
def test_gff_cov_of_offsets_equals_reference_cold_and_warm(name):
    offsets = GREEN_CASES[name]()
    d = offsets.shape[1]
    ref = oracles.green_reference(offsets, d)
    assert np.array_equal(kernels.cov_of_offsets(kernels.gff(d), offsets), ref)
    assert np.array_equal(kernels.cov_of_offsets(kernels.gff(d), offsets), ref)  # repeated call


def test_gff_values_do_not_depend_on_earlier_gff_work():
    kernels.build_cov_matrix(kernels.gff(3), _ball(2))
    kernels.gff_green((3, 1, 0), 3)
    offsets = GREEN_CASES["ball4"]()
    assert np.array_equal(kernels.cov_of_offsets(kernels.gff(3), offsets), oracles.green_reference(offsets, 3))


def test_gff_green_equals_the_matrix_entry_of_a_fresh_process():
    pts = _ball(2)
    code = ("import json; from sdlab import kernels; "
            f"print(json.dumps(kernels.build_cov_matrix(kernels.gff(3), {pts!r}).tolist()))")
    env = dict(os.environ, PYTHONPATH=str(Path(kernels.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    fresh = json.loads(out.stdout)  # json floats round-trip exactly
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            assert kernels.gff_green(np.subtract(p, q), 3) == fresh[i][j], (p, q)


def test_green_batch_value_does_not_depend_on_batch_size():
    rows = np.array(list(itertools.product(range(8), repeat=3))[:463], dtype=float)  # rows[0] = 0
    assert len({kernels._green_batch(rows[:m], 3)[0] for m in range(1, 464)}) == 1


def test_gff_large_coordinate_needs_no_table_up_to_it():
    import tracemalloc

    offsets = np.array([[0.0, 1e6, 0.0]])
    tracemalloc.start()
    try:
        got = kernels.cov_of_offsets(kernels.gff(3), offsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, oracles.green_reference(offsets, 3))
    assert peak < 16 * 2**20


def test_gff_row_keys_order_rows_lexicographically():
    rows = np.array([[0, 99, 5], [2**62, 0, 7], [0, 99, 5], [1, 2**62, 2**62], [0, 0, 2**62]],
                    dtype=np.int64)
    keys = kernels._row_keys(iter(rows.T))
    assert keys.dtype == np.int64
    order = sorted(range(len(rows)), key=lambda i: tuple(rows[i]))
    assert [tuple(rows[i]) for i in np.argsort(keys, kind="stable")] == [tuple(rows[i]) for i in order]
    assert keys[0] == keys[2] and len(set(keys.tolist())) == 4


def test_gff_empty_offsets_give_empty_array():
    got = kernels.cov_of_offsets(kernels.gff(3), np.empty((0, 3)))
    assert got.shape == (0,)


def test_build_cov_gff_ball6_equals_parent_assembly():
    # the matrix the np.unique(axis=0) kernel assembled: offsets, symmetrize, repair
    pts = _ball(6)
    n = len(pts)
    m = oracles.green_reference(_pair_offsets(pts), 3).reshape(n, n)
    expect, _ = kernels.repair_psd(0.5 * (m + m.T))
    assert np.array_equal(kernels.build_cov_matrix(kernels.gff(3), pts), expect)


@pytest.mark.parametrize("offset", [(0.5, 0, 0), (0, 0, 2.25), (np.nan, 0, 0), (np.inf, 1, 1), (-np.inf, 0, 0),
                                    (2.0**63, 0, 0), (100000.5, 0, 0), (0, -60000.4, 0)])
def test_gff_green_rejects_off_lattice_offsets(offset):
    with pytest.raises(DomainError):
        kernels.gff_green(offset, 3)
    with pytest.raises(DomainError):
        kernels.eval_cov(kernels.gff(3), (0, 0, 0), offset)


def test_gff_green_integer_offsets_unchanged():
    for off in [(0, 0, 0), (1, 0, 0), (-2, 3, 1), (0, 0, 10**6), (np.int64(4), 1, -1), (2.0, 1.0, 0.0),
                (3 + 1e-12, 0, 0), (0, 10**6 - 2e-9, 0)]:
        expect = oracles.green_reference(np.array([off], dtype=float), 3)[0]
        assert kernels.gff_green(off, 3) == expect


@pytest.mark.parametrize("model", FAMILIES + [kernels.explicit(np.eye(2))], ids=lambda m: m.family)
def test_build_cov_empty_point_set_is_input_error(model):
    with pytest.raises(InputError, match="point set is empty"):
        kernels.build_cov_matrix(model, [])
    with pytest.raises(InputError, match="point set is empty"):
        kernels.build_cov_matrix(model, np.empty((0, model.dim)))


INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1


@pytest.mark.parametrize("gate", [
    lambda K: kernels.build_cov_matrix(kernels.explicit(K), [(0,), (1,)]),
    lambda K: sampler.plan_dense(K, 0),
    lambda K: measures.capacity(K),
], ids=["build_cov_matrix", "plan_dense", "capacity"])
def test_indefinite_matrix_is_one_model_error(gate):
    with pytest.raises(ModelError) as exc:
        gate(INDEFINITE)
    assert str(exc.value) == ("covariance matrix is not PSD: clipped eigenvalue mass 1.000e+00 "
                              "exceeds 1e-06 of trace 2.000e+00")


def test_psd_gate_compares_clipped_mass_and_trace_past_the_float_range():
    # the trace 2.25e308 summed to inf, so half the trace could be clipped and the gate passed
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    K = (q * np.array([1.5e308, 1.5e308, -0.75e308])) @ q.T
    K = np.triu(K) + np.triu(K, 1).T
    assert np.isfinite(K).all() and np.trace(K / 4) > np.finfo(float).max / 4
    with pytest.raises(ModelError, match="clipped eigenvalue mass 7.500e\\+307"):
        kernels.repair_psd(K)


def test_psd_gate_passes_a_cholesky_matrix_unchanged():
    rng = np.random.default_rng(18)
    B = rng.standard_normal((12, 12))
    K = B @ B.T
    rep, clipped = kernels.repair_psd(K)
    assert rep is K and clipped == 0.0
    # a singular PSD matrix has no factor; the eigenvalue rule keeps it, with roundoff-sized mass
    v = rng.standard_normal(12)
    S = np.outer(v, v)
    rep, clipped = kernels.repair_psd(S)
    assert rep is S and 0.0 <= clipped <= 1e-12 * np.trace(S)


def test_psd_gate_clips_a_slightly_indefinite_matrix():
    # diag(1, 1, -1e-8) in a rotated basis: the gate clips the negative eigenvalue
    Q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    K = (Q * [1.0, 1.0, -1e-8]) @ Q.T
    K = np.triu(K) + np.triu(K, 1).T  # exactly symmetric
    rep, clipped = kernels.repair_psd(K)
    assert np.array_equal(rep, rep.T)
    assert clipped == pytest.approx(1e-8, rel=1e-6)
    assert kernels.repair_psd(rep)[0] is rep  # PSD: the gate keeps it
    # both gates take the indefinite matrix through the same repair
    assert np.array_equal(sampler.plan_dense(K, 0).cov, rep)
    cap = measures.capacity(K)
    assert cap.converged and cap.value == pytest.approx(measures.capacity(rep).value, rel=1e-9)


def test_psd_gate_clip_near_the_float_limit_stays_finite():
    # the repaired matrix was symmetrized as 0.5 * (rep + rep.T), which overflowed to inf
    a, b = 1.2e308, 1e306
    c = math.sqrt(a) * math.sqrt(b) * (1 + 5e-7)  # eigenvalues about 1.2e308 and -1e300
    rep, clipped = kernels.repair_psd(np.array([[a, c], [c, b]]))
    assert np.isfinite(rep).all() and np.array_equal(rep, rep.T) and clipped > 0
    assert kernels.repair_psd(rep)[0] is rep


@pytest.mark.parametrize("jitter", [0.0, 1e-16, 1e-14, 1e-12, -1e-14])
def test_psd_gate_cholesky_accepts_only_what_the_eigenvalue_rule_keeps(jitter):
    # a matrix with a Cholesky factor has lambda_min >= -n eps lambda_max, far above -PSD_REL_TOL lambda_max
    rng = np.random.default_rng(7)
    for rank in (3, 10, 29):
        B = rng.standard_normal((30, rank))
        K = B @ B.T + jitter * np.eye(30)
        try:
            np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            continue
        w = np.linalg.eigvalsh(K)
        assert w[0] >= -kernels.PSD_REL_TOL * max(w[-1], 1.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_psd_gate_rejects_non_finite_matrices(bad):
    K = np.array([[bad]])
    with pytest.raises(InputError, match="covariance matrix must be finite"):
        kernels.repair_psd(K)
    # nan is not equal to itself, so a nan matrix already fails the symmetry checks
    message = "symmetric" if np.isnan(bad) else "covariance matrix must be finite"
    with pytest.raises(InputError, match=message):
        sampler.plan_dense(K, 0)
    with pytest.raises(InputError, match=message):
        kernels.build_cov_matrix(kernels.explicit(np.full((2, 2), bad)), [(0,), (1,)])


@pytest.mark.parametrize("offsets", [np.zeros((1, 2)), np.zeros((4, 1)), np.zeros((1, 4))])
def test_gff_offsets_need_model_dimension(offsets):
    with pytest.raises(InputError, match="gff offsets must have 3 coordinates"):
        kernels.cov_of_offsets(kernels.gff(3), offsets)
    with pytest.raises(InputError, match="gff offsets must have 3 coordinates"):
        kernels.gff_green(offsets[0], 3)
    with pytest.raises(InputError, match="gff offsets must have 3 coordinates"):
        kernels.build_cov_matrix(kernels.gff(3), [(0,) * offsets.shape[1], (1,) * offsets.shape[1]])


def test_isotropic_kernels_accept_lower_dimensional_points():
    # a point set of lower dimension is a valid embedding for an isotropic profile
    got = kernels.cov_of_offsets(kernels.bargmann_fock(2), np.array([[1.0]]))
    assert got[0] == np.exp(-0.5)


def test_gff_green_shares_the_offsets_cache():
    val = kernels.gff_green((2, -1, 0), 3)
    assert kernels.cov_of_offsets(kernels.gff(3), np.array([[0.0, 2.0, 1.0]]))[0] == val


# ---------------------------------------------------------------------------
# build_cov_matrix: one kernel evaluation per distinct displacement, equal to the
# pairwise assembly bit for bit


def _grid(spacing, side, d=2):
    return [tuple(spacing * c for c in p) for p in itertools.product(range(side), repeat=d)]


def _float_points(seed, n, d):
    return [tuple(p) for p in np.random.default_rng(seed).normal(scale=3.0, size=(n, d))]


ISOTROPIC = [kernels.bargmann_fock(2), kernels.cauchy(1.5, 2), kernels.monochromatic_wave(2),
             kernels.polylog_decay(3.5, 2)]
ASSEMBLY_CASES = {
    "gff_ball2": (kernels.gff(3), lambda: _ball(2)),
    "gff_ball4": (kernels.gff(3), lambda: _ball(4)),
    "gff_ball6": (kernels.gff(3), lambda: _ball(6)),
    "gff_maxcorr_pair": (kernels.gff(3), lambda: _ball(4) + _ball(4, shift=12)),
    "gff_d4_ball2": (kernels.gff(4), lambda: _ball(2, d=4)),
    "gff_single": (kernels.gff(3), lambda: [(3, -1, 2)]),
    "gff_1e6_apart": (kernels.gff(3), lambda: [(0, 0, 0), (10**6, 0, 0)]),
    "iid_grid": (kernels.iid_standard(2), lambda: _grid(0.5, 6)),
    **{f"{m.family}_grid": (m, lambda: _grid(0.5, 24)) for m in ISOTROPIC},
    **{f"{m.family}_float": (m, lambda: _float_points(60, 60, 2)) for m in ISOTROPIC},
    # 60 float points in d = 8: the per-axis difference ranks need _row_keys' re-ranking
    "cauchy_d8_rerank": (kernels.cauchy(1.5, 8), lambda: _float_points(8, 60, 8)),
}


@pytest.mark.parametrize("name", list(ASSEMBLY_CASES))
def test_build_cov_matrix_equals_the_pairwise_assembly(name):
    model, points = ASSEMBLY_CASES[name]
    pts = points()
    got = kernels.build_cov_matrix(model, pts)
    assert np.array_equal(got, oracles.cov_matrix_reference(model, pts))
    assert np.array_equal(got, got.T)  # so the gathered matrix needs no symmetrizing


def _pair_keys(pts):
    return kernels._row_keys(kernels._axis_codes(col) for col in np.asarray(pts, dtype=float).T)


def test_assembly_cases_reach_both_dedupe_branches_and_the_re_ranking():
    # a lattice ball's keys fit a presence table; float points' keys go through np.unique
    for pts, table in [(_ball(6), True), (_grid(0.5, 24), True), (_float_points(60, 60, 2), False)]:
        key = _pair_keys(pts)
        assert (int(key.max()) < len(key)) == table
    codes = [kernels._axis_codes(col) for col in np.asarray(_float_points(8, 60, 8)).T]
    assert math.prod(int(c.max()) + 1 for c in codes) > 2**63


@pytest.mark.parametrize("pts", [_ball(4), _float_points(3, 40, 3), [(0, 0, 0)]], ids=["ball4", "float", "single"])
def test_distinct_presence_table_and_unique_agree(pts):
    key = _pair_keys(pts)
    for shift in (0, 2**40):  # the shifted keys exceed their count: np.unique's branch
        rep, inverse = kernels._distinct(key + shift)
        expect_uniq, expect_inverse = np.unique(key, return_inverse=True)
        assert np.array_equal(inverse, expect_inverse.ravel())
        assert np.array_equal(key[rep], expect_uniq)


@pytest.mark.parametrize("model, pts", [
    (kernels.gff(3), [(0, 0, 0), (0.5, 0, 0)]),
    (kernels.gff(3), [(0, 0, 0), (60000.4, 0, 0)]),
    (kernels.gff(3), [(0, 0), (1, 0)]),
    (kernels.gff(3), [(0, 0, 0, 0), (1, 0, 0, 0)]),
    (kernels.gff(3), [(0, 0, 0), (np.nan, 0, 0)]),
    (kernels.gff(3), []),
    (kernels.gff(3), [(0, 0, 0), (1, 2, 3), (0, 0, 0)]),
    (kernels.bargmann_fock(2), []),
    (kernels.bargmann_fock(2), [(0.5, 1.0), (0.5, 1.0)]),
    (kernels.cauchy(1.5, 2), [(0.0, 0.0), (np.inf, 0.0)]),
], ids=["half", "60000.4", "d2", "d4", "nan", "gff_empty", "gff_duplicate", "bf_empty", "bf_duplicate",
        "cauchy_inf"])
def test_build_cov_matrix_errors_match_the_pairwise_assembly(model, pts):
    with np.errstate(invalid="ignore"):  # inf - inf is nan, which the PSD gate rejects
        with pytest.raises(SdlabError) as expect:
            oracles.cov_matrix_reference(model, pts)
        with pytest.raises(type(expect.value), match=re.escape(str(expect.value))):
            kernels.build_cov_matrix(model, pts)


def test_build_cov_matrix_memory_does_not_grow_with_the_coordinate_span():
    import tracemalloc

    pts = [(0, 0, 0), (10**6, 0, 0)]
    tracemalloc.start()
    try:
        got = kernels.build_cov_matrix(kernels.gff(3), pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, oracles.cov_matrix_reference(kernels.gff(3), pts))
    assert peak < 16 * 2**20
