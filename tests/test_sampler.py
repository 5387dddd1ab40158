import math

import numpy as np
import pytest

import oracles
from sdlab import kernels, sampler
from sdlab.errors import EmbeddingError, InputError, ModelError, ParameterError


def test_plan_dense_identity_factor():
    plan = sampler.plan_dense(np.eye(2), 1)
    assert np.array_equal(plan.factor, np.eye(2))


def test_plan_dense_rank_one_pair():
    plan = sampler.plan_dense(np.array([[1.0, 1.0], [1.0, 1.0]]), 1)
    assert np.allclose(plan.factor, [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)
    x = plan.draw_batch(range(50))
    assert np.allclose(x[:, 0], x[:, 1], atol=1e-12)


def test_plan_dense_multiply_back():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 9))
    cov = a @ a.T
    plan = sampler.plan_dense(cov, 0)
    assert np.abs(plan.factor @ plan.factor.T - cov).max() < 1e-10


def test_plan_dense_rejects_asymmetric():
    with pytest.raises(InputError):
        sampler.plan_dense(np.array([[1.0, 0.1], [0.2, 1.0]]), 0)


def test_plan_dense_rejects_indefinite():
    with pytest.raises(ModelError):
        sampler.plan_dense(np.array([[1.0, 2.0], [2.0, 1.0]]), 0)


def test_draw_deterministic_and_order_free():
    plan = sampler.plan_dense(np.eye(4), base_seed=42)
    a = plan.draw_batch([3, 1, 2])
    b = plan.draw_batch([1, 2, 3])
    assert np.array_equal(a[0], b[2])
    assert np.array_equal(a[1], b[0])
    again = plan.draw_batch([3])[0]
    assert np.array_equal(a[0], again)


# unsorted, with gaps, one index past 2**40 and the largest valid index
STREAM_REPLICATES = [7, 0, 3, 2**40 + 5, 1, 2**64 - 1, 12]


def _random_cov(d: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).normal(size=(d, d))
    return a @ a.T


@pytest.mark.parametrize("base_seed", [0, -1, 2**63 + 7])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 33, 257])
def test_dense_draws_match_fresh_philox_streams(d, base_seed):
    plan = sampler.plan_dense(_random_cov(d, d), base_seed)
    x = plan.draw_batch(STREAM_REPLICATES)
    a, b = plan.draw_pair_batch(STREAM_REPLICATES)
    for k, r in enumerate(STREAM_REPLICATES):
        assert np.array_equal(x[k], plan.factor @ oracles.philox_normals(base_seed, r, d))
        z = oracles.philox_normals(base_seed, r, (2, d))
        assert np.array_equal(a[k], plan.factor @ z[0])
        assert np.array_equal(b[k], plan.factor @ z[1])


@pytest.mark.parametrize("base_seed", [0, -1, 2**63 + 7])
def test_torus_noise_matches_fresh_philox_streams(base_seed):
    w = sampler._noise(base_seed, STREAM_REPLICATES, (64, 64))
    ref = np.stack([oracles.philox_normals(base_seed, r, (64, 64)) for r in STREAM_REPLICATES])
    assert np.array_equal(w, ref)


@pytest.mark.parametrize("replicates", [[0, -1], [2**64], [1.5]], ids=["negative", "2**64", "float"])
def test_draw_rejects_bad_replicate_index(replicates):
    plan = sampler.plan_dense(np.eye(2), 0)
    with pytest.raises(ParameterError, match="replicate"):
        plan.draw_batch(replicates)


def test_draw_marginals_standard_normal():
    from scipy import stats

    plan = sampler.plan_dense(np.eye(1), base_seed=9)
    x = plan.draw_batch(range(100_000))[:, 0]
    stat, pval = stats.kstest(x, "norm")
    assert pval > 1e-3


def test_rank_degenerate_samples_stay_in_column_space():
    cov = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    plan = sampler.plan_dense(cov, 3)
    x = plan.draw_batch(range(200))
    # projection on the column space of cov
    u, s, _ = np.linalg.svd(cov)
    basis = u[:, s > 1e-12]
    resid = x - (x @ basis) @ basis.T
    assert np.abs(resid).max() < 1e-8


def test_circulant_iid_flat_spectrum():
    plan = sampler.plan_circulant(kernels.iid_standard(2), sampler.Grid((8, 8)), 0)
    assert np.allclose(plan.sqrt_spectrum, 1.0)
    x = plan.draw_batch(range(4000)).ravel()
    assert abs(x.mean()) < 4 * x.std() / np.sqrt(len(x))
    assert abs(x.std() - 1.0) < 0.02


def test_circulant_requires_stationary():
    model = kernels.explicit(np.eye(3))
    with pytest.raises(ModelError):
        sampler.plan_circulant(model, sampler.Grid((3,)), 0)


def test_circulant_bf_empirical_covariance():
    # lag (1,0) at spacing 0.5: exp(-0.125) = 0.8825
    grid = sampler.Grid((16, 16), 0.5)
    plan = sampler.plan_circulant(kernels.bargmann_fock(2), grid, 7)
    n = 10_000
    x = plan.draw_batch(range(n))
    i = plan.index[(0, 0)]
    j = plan.index[(1, 0)]
    prod = x[:, i] * x[:, j]
    est, se = prod.mean(), prod.std(ddof=1) / np.sqrt(n)
    assert abs(est - np.exp(-0.125)) < 3 * se


def test_circulant_covariance_fidelity_audit():
    grid = sampler.Grid((12, 12), 0.5)
    plan = sampler.plan_circulant(kernels.bargmann_fock(2), grid, 13)
    n = 10_000
    x = plan.draw_batch(range(n))
    rng = np.random.default_rng(0)
    pts = list(plan.points)
    for _ in range(20):
        p, q = pts[rng.integers(len(pts))], pts[rng.integers(len(pts))]
        i, j = plan.index[p], plan.index[q]
        target = plan.cov_block([p], [q])[0, 0]
        prod = x[:, i] * x[:, j]
        se = prod.std(ddof=1) / np.sqrt(n)
        assert abs(prod.mean() - target) < 4 * max(se, 1e-12)


def test_circulant_torus_grows_until_the_spectrum_is_nonnegative():
    bf = kernels.bargmann_fock(2)
    small = sampler.plan_circulant(bf, sampler.Grid((8, 8), 0.5), 0)  # 16^2 clips at padding 2
    assert small.torus_shape == (32, 32)
    assert small.clipped_fraction <= sampler.SPECTRUM_CLIP_LIMIT
    big = sampler.plan_circulant(bf, sampler.Grid((24, 24), 0.5), 0)  # 5-smooth 48^2 clips nothing
    assert big.torus_shape == (48, 48)
    assert math.copysign(1.0, big.clipped_fraction) == 1.0  # +0.0, not -0.0
    with pytest.raises(EmbeddingError, match="at padding 4"):
        sampler.plan_circulant(kernels.monochromatic_wave(2), sampler.Grid((32, 32)), 0)


@pytest.mark.parametrize("spacing", [0.5, 1.0])
def test_circulant_torus_never_exceeds_the_power_of_two_rule(spacing):
    bf = kernels.bargmann_fock(2)
    for s in range(2, 41):
        old = oracles.pow2_torus(bf, (s, s), spacing, sampler.SPECTRUM_CLIP_LIMIT)
        if old is None:  # the smallest boxes at spacing 0.5 embed on no torus
            with pytest.raises(EmbeddingError):
                sampler.plan_circulant(bf, sampler.Grid((s, s), spacing), 0)
            continue
        plan = sampler.plan_circulant(bf, sampler.Grid((s, s), spacing), 0)
        assert all(m <= o for m, o in zip(plan.torus_shape, old)), (s, plan.torus_shape, old)
        assert plan.clipped_fraction <= sampler.SPECTRUM_CLIP_LIMIT
    if spacing == 0.5:  # 5-smooth 18^2 clips for a 9^2 box; 5-smooth-only would give 36^2
        assert sampler.plan_circulant(bf, sampler.Grid((9, 9), spacing), 0).torus_shape == (32, 32)


def test_circulant_polylog_embedding_feasible():
    plan = sampler.plan_circulant(kernels.polylog_decay(1.0, 3.5, 1), sampler.Grid((128,)), 0)
    assert plan.clipped_fraction < 1e-6


def test_decomposed_plan_tail_and_split():
    grid = sampler.Grid((20, 20), 0.5)
    plan = sampler.plan_decomposed(kernels.bargmann_fock(2), grid, radius=3.0, base_seed=11)
    # sigma2 equals the direct tail sum of q^2 outside the radius
    q = np.fft.ifftn(np.fft.fftn(plan.q_near + plan.q_far)).real  # identity; use stored q parts
    direct = float((plan.q_far**2).sum())
    assert plan.sigma2 == pytest.approx(direct, abs=1e-300)
    mgrid = [np.minimum(np.arange(m), m - np.arange(m)) * 0.5 for m in plan.torus_shape]
    dist = np.sqrt(mgrid[0][:, None] ** 2 + mgrid[1][None, :] ** 2)
    tail_oracle = float((np.where(dist > 3.0, plan.q_near + plan.q_far, 0.0) ** 2).sum())
    assert plan.sigma2 == pytest.approx(tail_oracle, abs=1e-10)
    x1, x2 = plan.draw_split_batch(range(100))
    full = plan.draw_batch(range(100))
    assert np.allclose(x1 + x2, full, atol=1e-10)


def test_decomposed_variance_additivity_and_cov():
    grid = sampler.Grid((16, 16), 0.5)
    plan = sampler.plan_decomposed(kernels.bargmann_fock(2), grid, radius=2.0, base_seed=2)
    n = 10_000
    x1, x2 = plan.draw_split_batch(range(n))
    x = x1 + x2
    v1 = x1.var(axis=0, ddof=1).mean()
    v2 = x2.var(axis=0, ddof=1).mean()
    vx = x.var(axis=0, ddof=1).mean()
    assert v1 + v2 >= vx - 0.05  # disjoint kernels: variances add up to Var X
    i, j = plan.index[(0, 0)], plan.index[(2, 1)]
    prod = x[:, i] * x[:, j]
    target = plan.cov_block([(0, 0)], [(2, 1)])[0, 0]
    assert abs(prod.mean() - target) < 3 * prod.std(ddof=1) / np.sqrt(n)


def test_decomposed_radius_large_kills_tail():
    grid = sampler.Grid((10, 10), 0.5)
    plan = sampler.plan_decomposed(kernels.bargmann_fock(2), grid, radius=50.0, base_seed=1)
    assert plan.sigma2 == 0.0
    _, x2 = plan.draw_split_batch(range(5))
    assert np.abs(x2).max() == 0.0


def test_decomposed_radius_below_cell_rejected():
    with pytest.raises(ParameterError):
        sampler.plan_decomposed(kernels.bargmann_fock(2), sampler.Grid((8, 8), 0.5), 0.2, 0)


def test_split_draw_sums_to_the_plan_draw():
    grid = sampler.Grid((10, 10), 0.5)
    plan = sampler.plan_decomposed(kernels.bargmann_fock(2), grid, 2.0, 19)
    x1, x2 = plan.draw_split_batch([4])
    full = plan.draw_batch([4])
    assert np.allclose(x1 + x2, full, atol=1e-12)


def test_decomposed_x1_independence_across_separated_sets():
    grid = sampler.Grid((24, 24), 0.5)
    radius = 1.5
    plan = sampler.plan_decomposed(kernels.bargmann_fock(2), grid, radius, base_seed=4)
    n = 20_000
    x1, _ = plan.draw_split_batch(range(n))
    # sites 10 units apart (20 cells) >> 2*radius: X1 values must be uncorrelated
    i, j = plan.index[(0, 0)], plan.index[(20, 0)]
    prod = x1[:, i] * x1[:, j]
    se = prod.std(ddof=1) / np.sqrt(n)
    assert abs(prod.mean()) < 4 * se
    # exact check through the kernel: q_near supports separated by > 2*radius cannot overlap
    assert plan.cov_block([(0, 0)], [(20, 0)])[0, 0] < 1e-10
    # exact check on the X1 law: the near filter's covariance irfftn(|f_near|^2)
    # vanishes at every torus offset longer than 2*radius
    c1 = np.fft.irfftn(np.abs(plan._filters[0]) ** 2, s=plan.torus_shape, axes=(0, 1))
    mg = [np.minimum(np.arange(m), m - np.arange(m)) * 0.5 for m in plan.torus_shape]
    dist = np.hypot(mg[0][:, None], mg[1][None, :])
    assert np.abs(c1[dist > 2 * radius]).max() < 1e-12


@pytest.mark.parametrize("model", [kernels.bargmann_fock(2), kernels.cauchy(2.0, 2)], ids=["bf", "cauchy2"])
@pytest.mark.parametrize("split", [False, True], ids=["circulant", "split"])
def test_torus_filters_reproduce_cov_block_exactly(model, split):
    # the draws are irfftn(rfftn(w) * f) summed over the plan's filters, so
    # their covariance at offset h is irfftn(|sum f|^2)(h mod torus)
    grid = sampler.Grid((16, 16), 0.5)
    plan = sampler.plan_decomposed(model, grid, 1.5, 0) if split else sampler.plan_circulant(model, grid, 0)
    c = np.fft.irfftn(np.abs(sum(plan._filters)) ** 2, s=plan.torus_shape, axes=(0, 1))
    pts = np.array(plan.points)
    off = (pts[:, None, :] - pts[None, :, :]) % np.array(plan.torus_shape)
    implied = c[off[..., 0], off[..., 1]]
    assert np.abs(implied - plan.cov_block(plan.points, plan.points)).max() < 1e-12


@pytest.mark.parametrize("shape, split", [
    ((7,), False), ((6, 5), False), ((5, 6, 4), False), ((6, 5), True), ((5, 6, 4), True),
], ids=["1d", "2d", "3d", "2d-split", "3d-split"])
def test_box_only_inverse_is_bit_identical_to_irfftn(shape, split):
    bf = kernels.bargmann_fock(len(shape))
    grid = sampler.Grid(shape, 1.0)
    plan = sampler.plan_decomposed(bf, grid, 1.5, 5) if split else sampler.plan_circulant(bf, grid, 5)
    reps = range(600)  # crosses the 512-replicate FFT block
    axes = tuple(range(1, len(shape) + 1))
    wf = np.fft.rfftn(np.stack([oracles.philox_normals(5, r, plan.torus_shape) for r in reps]), axes=axes)
    box = (slice(None),) + tuple(slice(0, s) for s in shape)
    ref = [np.fft.irfftn(wf * f, s=plan.torus_shape, axes=axes)[box].reshape(len(reps), -1)
           for f in plan._filters]
    got = plan.draw_split_batch(reps) if split else (plan.draw_batch(reps),)
    assert len(got) == len(ref) == (2 if split else 1)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)


@pytest.mark.parametrize("kwargs", [
    dict(shape=()), dict(shape=(24.5, 24)), dict(shape="24"), dict(shape=(0, 24)), dict(shape=(True, 2)),
    dict(shape=(4, 4), spacing="x"), dict(shape=(4, 4), spacing=-0.5), dict(shape=(4, 4), spacing=float("inf")),
    dict(shape=(4, 4), origin=(0,)), dict(shape=(4, 4), origin=(0, 0.5)),
])
def test_grid_rejects_malformed_fields(kwargs):
    with pytest.raises(InputError):
        sampler.Grid(**kwargs)


def test_grid_normalises_json_lists():
    g = sampler.Grid([3, 2], 1, [-1, 0])
    assert g == sampler.Grid((3, 2), 1.0, (-1, 0))
    assert isinstance(g.spacing, float) and len(g.sites()) == 6


def test_snapshot_roundtrip(tmp_path):
    grid = sampler.Grid((6, 6), 1.0)
    plan = sampler.plan_circulant(kernels.bargmann_fock(2), grid, 5)
    s = plan.draw_batch([3])[0]
    path = tmp_path / "f.snap"
    sampler.write_snapshot(path, s, grid, 5, 3, "bargmann_fock")
    header, vals = sampler.read_snapshot(path)
    assert header["grid_shape"] == [6, 6]
    assert header["replicate"] == 3
    assert np.array_equal(vals, s)
