import math
import sys
from concurrent.futures import ThreadPoolExecutor

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
        assert np.array_equal(x[k], plan.factor @ oracles.block_row_normals(base_seed, r, d))
        z = oracles.block_row_normals(base_seed, r, 2 * d)
        assert np.array_equal(a[k], plan.factor @ z[:d])
        assert np.array_equal(b[k], plan.factor @ z[d:])


@pytest.mark.parametrize("base_seed", [0, -1, 2**63 + 7])
def test_torus_noise_matches_fresh_philox_streams(base_seed):
    w = sampler._noise(base_seed, STREAM_REPLICATES, (64, 64))
    ref = np.stack([oracles.philox_normals(base_seed, r, (64, 64)) for r in STREAM_REPLICATES])
    assert np.array_equal(w, ref)


def test_philox_normals_prefix_property():
    """The first k normals of a stream do not depend on how many are drawn, which the noise
    bank's slicing of a block stream rests on.  Some replicates must reach
    the ziggurat's rejection branch, which reads more than one 64-bit word per normal."""
    width, rejected = 8, 0
    for r in range(2000):
        gen = np.random.Generator(np.random.Philox(key=np.array([3, r], dtype=np.uint64)))
        wide = gen.standard_normal(width)
        assert np.array_equal(wide, oracles.philox_normals(3, r, width))
        st = gen.bit_generator.state
        rejected += 4 * st["state"]["counter"][0] - 4 + st["buffer_pos"] > width  # words drawn
        for k in range(1, width):
            assert np.array_equal(wide[:k], oracles.philox_normals(3, r, k))
    assert rejected > 0


def test_dense_draws_do_not_depend_on_the_bank_state():
    """Narrow, wide and pair draws of one seed give the same rows whatever the bank held before."""
    narrow = sampler.plan_dense(_random_cov(2, 0), 21)
    wide = sampler.plan_dense(_random_cov(5, 1), 21)
    reps = [700, 3, 255, 256, 2**64 - 1, 3]
    draws = [lambda: narrow.draw_batch(reps), lambda: narrow.draw_pair_batch(reps),
             lambda: wide.draw_batch(reps), lambda: wide.draw_pair_batch(reps)]
    cold = []
    for draw in draws:
        sampler._BANK.clear()
        cold.append(draw())
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
        sampler._BANK.clear()
        for k in order:
            assert np.array_equal(draws[k](), cold[k])
    for k, r in enumerate(reps):
        z = oracles.block_row_normals(21, r, 10)
        assert np.array_equal(cold[2][k], wide.factor @ z[:5])
        assert np.array_equal(cold[3][0][k], wide.factor @ z[:5])
        assert np.array_equal(cold[3][1][k], wide.factor @ z[5:])


def test_block_noise_prefix_across_widths():
    """Row i of a block holds stream positions j * 256 + i, so a narrower block is a column
    slice of a wider one: the bank's slicing rule and the pair draw's two copies rest on it.
    The block must reach the ziggurat's rejection branch, which reads more than one 64-bit
    word per normal."""
    width = 8
    wide = sampler._block_noise(3, 11, width)
    assert wide.shape == (sampler.BANK_ROWS, width)
    assert np.array_equal(wide, oracles.block_normals(3, 11, width))
    for k in range(1, width):
        assert np.array_equal(sampler._block_noise(3, 11, k), wide[:, :k])
    bits = np.random.Philox(key=np.array([3, 11], dtype=np.uint64), counter=[0, 0, 0, 1])
    np.random.Generator(bits).standard_normal(width * sampler.BANK_ROWS)
    st = bits.state
    assert 4 * st["state"]["counter"][0] - 4 + st["buffer_pos"] > width * sampler.BANK_ROWS  # words drawn


@pytest.mark.parametrize("base_seed", [0, -1, 2**63 + 7])
def test_block_streams_are_disjoint_from_replicate_streams(base_seed):
    """Counter word 3 = 1 keeps block (s, b) off per-replicate stream (s, b), which shares its key."""
    for b in (0, 1, 2**56 - 1):
        block = sampler._block_noise(base_seed, b, 1)[:, 0]  # the block stream's first 256 normals
        assert np.intersect1d(block, sampler._noise(base_seed, [b], (256,))[0]).size == 0


def test_runs_of_a_range_inside_one_block_match_the_general_path():
    # a step-1 range is cut at the block edges arithmetically, inside one block or across several
    top = 2**64 - 1
    cases = [range(0, 256), range(10, 20), range(255, 256), range(256, 300), range(250, 262),
             range(top - 255, top + 1), range(top - 4, top + 1), range(top, top + 1), range(0, 600, 3),
             range(7, 7), [3, 2, 700, 701], [top, 0, top - 1],
             range(0, 1024), range(0, 1025), range(100, 1000), range(255, 257), range(256, 768),
             range(top - 600, top + 1), range(top - 511, top + 1), range(top - 700, top - 3)]
    for reps in cases:
        fast = list(sampler._runs(sampler._replicate_indices(reps)))
        general = list(sampler._runs(list(reps)))
        assert len(fast) == len(general)
        for (lo, hi, rows), (glo, ghi, grows) in zip(fast, general):
            assert (lo, hi) == (glo, ghi) and rows.dtype == grows.dtype and np.array_equal(rows, grows)


@pytest.mark.parametrize("kind", ["dense", "circulant", "split"])
def test_one_replicate_draw_is_its_row_of_the_block_draw(kind):
    """Row r of a factor draw depends on (plan, cols, seed, r) alone: draw_batch([r]) equals row
    r of the draw of r's whole block, for a dense plan and for a torus restriction."""
    top = 2**64 - 1
    if kind == "dense":
        plan, cols = sampler.plan_dense(_random_cov(6, 2), 9), None
    else:
        plan = _torus_plan((10, 9), None, kind == "split", seed=9)
        cols = np.random.default_rng(4).permutation(len(plan.points))[:12]
    draw = plan.draw_split_batch if kind == "split" else plan.draw_batch
    for r in (0, 255, 256, top):
        b = r // sampler.BANK_ROWS
        sampler._BANK.clear()
        block = draw(range(b * sampler.BANK_ROWS, (b + 1) * sampler.BANK_ROWS), cols)
        sampler._BANK.clear()
        one = draw([r], cols)
        for got, full in zip(one, block) if kind == "split" else [(one, block)]:
            assert got.shape == (1, full.shape[1]) and np.array_equal(got[0], full[r % sampler.BANK_ROWS])
        if kind == "dense":
            x, xp = plan.draw_pair_batch([r])
            z = oracles.block_row_normals(9, r, 12)
            assert np.array_equal(x[0], one[0]) and np.array_equal(x[0], plan.factor @ z[:6])
            assert np.array_equal(xp[0], plan.factor @ z[6:])
        else:
            factor = plan._restriction(np.asarray(cols))
            z = factor @ oracles.block_row_normals(9, r, factor.shape[1])
            assert np.array_equal(np.concatenate(one, axis=1)[0] if kind == "split" else one[0], z)


def test_a_dense_draw_at_columns_is_the_full_draw_at_those_columns():
    # each block is cut to cols as it is drawn: a draw of several blocks, in any column order,
    # is the draw of every column sliced
    plan = sampler.plan_dense(_random_cov(10, 3), 9)
    cols = np.array([7, 0, 4])
    reps = range(100, 3 * sampler.BANK_ROWS + 40)
    assert np.array_equal(plan.draw_batch(reps, cols), plan.draw_batch(reps)[:, cols])


def test_noise_bank_evicts_least_recently_used_blocks(monkeypatch):
    block_bytes = sampler.BANK_ROWS * 4 * 8
    bank = sampler._Store(3 * block_bytes)
    monkeypatch.setattr(sampler, "_BANK", bank)
    for b in range(4):
        sampler._bank_block(7, b, 4)
    assert list(bank._entries) == [(7, 1), (7, 2), (7, 3)]
    assert bank._nbytes == 3 * block_bytes
    sampler._bank_block(7, 1, 2)  # served by the width-4 block, now most recently used
    sampler._bank_block(7, 4, 4)
    assert list(bank._entries) == [(7, 3), (7, 1), (7, 4)]
    wider = sampler._bank_block(7, 3, 8)  # redrawn at width 8: two blocks' bytes, so (7, 1) goes
    assert wider.shape == (sampler.BANK_ROWS, 8) and not wider.flags.writeable
    assert list(bank._entries) == [(7, 4), (7, 3)]
    assert bank._nbytes == 3 * block_bytes
    assert np.array_equal(wider, oracles.block_normals(7, 3, 8))


def test_noise_bank_under_threads(monkeypatch):
    """Threads draw three widths through one small bank that must evict: every draw equals
    its value from a fresh bank, and the byte count matches the blocks held."""
    plans = [sampler.plan_dense(_random_cov(d, d), 4) for d in (1, 3, 6)]
    reps = range(0, 8 * sampler.BANK_ROWS, 3)
    expected = []
    for plan in plans:
        monkeypatch.setattr(sampler, "_BANK", sampler._Store(sampler.BANK_BYTES))
        expected.append(plan.draw_batch(reps))
    bank = sampler._Store(5 * sampler.BANK_ROWS * 6 * 8)  # five of the widest blocks
    monkeypatch.setattr(sampler, "_BANK", bank)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(plans[k % 3].draw_batch, reps) for k in range(24)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, got in enumerate(results):
        assert np.array_equal(got, expected[k % 3])
    assert bank._nbytes == sum(b.nbytes for b in bank._entries.values()) <= bank.max_bytes


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


def test_circulant_non_finite_spectrum_is_a_model_error():
    # a NaN spectrum set the clipped fraction to 0.0 and passed the embedding
    model = kernels.cauchy(2.0, 2)
    object.__setattr__(model, "alpha", float("nan"))  # past the model's own parameter check
    with pytest.raises(ModelError, match="spectrum is not finite"):
        sampler.plan_circulant(model, sampler.Grid((8, 8)), 0)


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
    limit = sampler.SPECTRUM_CLIP_LIMIT
    # an 8^2 box at spacing 0.5: the smallest exact torus clips, and so do the 16^2 tori of padding 2
    assert oracles.smallest_exact_torus(bf, (8, 8), 0.5, limit) is None
    small = sampler.plan_circulant(bf, sampler.Grid((8, 8), 0.5), 0)
    assert small.torus_shape == (32, 32)
    assert small.clipped_fraction <= limit
    # a 24^2 box at spacing 0.5 is exact on 36^2, where padding 2 took 48^2
    assert sampler.plan_circulant(bf, sampler.Grid((24, 24), 0.5), 0).torus_shape == (36, 36)
    # the 32^2 crossing box: 40^2 passes the clip test but wraps its lags by 4e-5, so 45^2
    assert oracles.clipped_fraction(bf, (40, 40), 0.5) <= limit
    assert sampler.plan_circulant(bf, sampler.Grid((32, 32), 0.5), 0).torus_shape == (45, 45)
    # Cauchy alpha = 2 decays too slowly to wrap a box lag: it keeps the doubled torus
    cauchy = sampler.plan_circulant(kernels.cauchy(2.0, 2), sampler.Grid((32, 32), 0.5), 0)
    assert cauchy.torus_shape == (64, 64)
    assert math.copysign(1.0, cauchy.clipped_fraction) == 1.0  # +0.0, not -0.0
    with pytest.raises(EmbeddingError, match="at padding 4"):
        sampler.plan_circulant(kernels.monochromatic_wave(2), sampler.Grid((32, 32)), 0)


@pytest.mark.parametrize("spacing", [0.5, 1.0])
def test_circulant_torus_never_exceeds_the_power_of_two_rule(spacing):
    bf = kernels.bargmann_fock(2)
    limit = sampler.SPECTRUM_CLIP_LIMIT
    for s in range(2, 41):
        exact = oracles.smallest_exact_torus(bf, (s, s), spacing, limit)
        old = oracles.pow2_torus(bf, (s, s), spacing, limit)
        if exact is None and old is None:  # 3^2 and 4^2 at spacing 0.5 embed on no torus tried
            with pytest.raises(EmbeddingError):
                sampler.plan_circulant(bf, sampler.Grid((s, s), spacing), 0)
            continue
        plan = sampler.plan_circulant(bf, sampler.Grid((s, s), spacing), 0)
        if exact is not None:
            assert plan.torus_shape == exact, (s, plan.torus_shape, exact)
        if old is not None:
            assert all(m <= o for m, o in zip(plan.torus_shape, old)), (s, plan.torus_shape, old)
        assert plan.clipped_fraction <= limit
    if spacing == 0.5:
        # a 2^2 box has no lag to wrap on 2^2, whose spectrum is nonnegative; every doubled torus clips
        assert sampler.plan_circulant(bf, sampler.Grid((2, 2), spacing), 0).torus_shape == (2, 2)
        # 9^2: the smallest exact torus and 5-smooth 18^2 clip; 5-smooth-only would give 36^2
        assert sampler.plan_circulant(bf, sampler.Grid((9, 9), spacing), 0).torus_shape == (32, 32)


@pytest.mark.parametrize("model, spacings", [
    (kernels.bargmann_fock(2), (0.5, 1.0)), (kernels.cauchy(2.0, 2), (0.5, 1.0)), (kernels.cauchy(4.0, 2), (0.5, 1.0)),
    (kernels.polylog_decay(3.5, 2), (0.5, 1.0)), (kernels.iid_standard(2), (1.0,)),
    (kernels.bargmann_fock(3), (0.5, 1.0)), (kernels.gff(3), (1.0,)),
], ids=["bf", "cauchy-2", "cauchy-4", "polylog-3.5", "iid", "bf-3d", "gff-3d"])
def test_smallest_torus_gathers_one_kernel_evaluation(monkeypatch, model, spacings):
    # each candidate's wrapped covariance is gathered from K at the box lags, evaluated once,
    # and the search ends where evaluating the kernel afresh for every candidate ends
    shapes = [(2, 2), (5, 12), (9, 9), (24, 24), (33, 33), (64, 20)] if model.dim == 2 else [(2, 2, 2), (6, 5, 4), (9, 9, 9)]
    calls = []
    cov_of_offsets = sampler.cov_of_offsets
    monkeypatch.setattr(sampler, "cov_of_offsets", lambda *a: calls.append(1) or cov_of_offsets(*a))
    for shape in shapes:
        for spacing in spacings:
            for margin in (0.0, 3.0):
                grid = sampler.Grid(shape, spacing)
                floor = [math.ceil(min(n + margin / spacing, 2 * n)) for n in shape]
                calls.clear()
                torus = sampler._smallest_torus(model, grid, floor)
                assert len(calls) == 1
                assert torus == oracles.smallest_torus_per_candidate(model, grid, floor), (shape, spacing, margin)


def test_a_grid_spans_at_most_max_sites():
    # the shape's product is checked before any site is built: 2**24 sites construct, 24929 * 673 = 2**24 + 1 raise
    assert sampler.Grid((4096, 4096)).shape == (4096, 4096)
    for shape in [(24929, 673), (100_000, 100_000), (2**40,)]:
        with pytest.raises(InputError, match="MAX_SITES"):
            sampler.Grid(shape)


def _stated_limit(plan) -> float:
    """How far a torus plan's box covariance may sit from the kernel: the wrap error, at most
    SPECTRUM_CLIP_LIMIT * K(0), plus the clipped spectrum, at most c / (1 - 2c) * K(0) for a
    clipped fraction c; and rounding."""
    c = plan.clipped_fraction
    return (sampler.SPECTRUM_CLIP_LIMIT + c / (1 - 2 * c)) * plan.max_abs_cov() + 1e-12


def _wrapped_kernel(plan, pts) -> np.ndarray:
    """The covariance the torus embeds between the sites ``pts``: the kernel at each lag h
    taken per axis as min(|h| mod T, T - |h| mod T)."""
    pts, torus = np.asarray(pts), np.array(plan.torus_shape)
    lag = np.abs(pts[:, None, :] - pts[None, :, :]) % torus
    wrapped = np.minimum(lag, torus - lag) * plan.grid.spacing
    return kernels.cov_of_offsets(plan.model, wrapped.reshape(-1, pts.shape[1])).reshape(len(pts), len(pts))


@pytest.mark.parametrize("model, shape, spacing", [
    (kernels.bargmann_fock(2), (16, 16), 0.5), (kernels.bargmann_fock(2), (16, 16), 1.0),
    (kernels.cauchy(2.0, 2), (16, 16), 0.5), (kernels.cauchy(4.0, 2), (16, 16), 0.5),
    (kernels.polylog_decay(3.5, 1), (128,), 1.0), (kernels.iid_standard(2), (6, 5), 1.0),
    (kernels.gff(3), (4, 4, 4), 1.0),
], ids=["bf-0.5", "bf-1", "cauchy2", "cauchy4", "polylog", "iid", "gff"])
def test_torus_covariance_matches_cov_block_on_the_box(model, shape, spacing):
    # the circulant draw's covariance at box lag h is irfftn(|f|^2)(h mod torus), and the
    # restriction of every box column factors the same law
    plan = sampler.plan_circulant(model, sampler.Grid(shape, spacing), 0)
    (f,) = plan._filters
    c = np.fft.irfftn(np.abs(f) ** 2, s=plan.torus_shape, axes=range(len(shape)))
    pts = np.array(plan.points)
    lag = (pts[:, None, :] - pts[None, :, :]) % np.array(plan.torus_shape)
    ref = plan.cov_block(plan.points, plan.points)
    assert np.abs(c[tuple(np.moveaxis(lag, -1, 0))] - ref).max() <= _stated_limit(plan)
    factor = plan._restriction(np.arange(len(plan.points)))
    assert np.abs(factor @ factor.T - ref).max() <= _stated_limit(plan)


def test_circulant_polylog_embedding_feasible():
    plan = sampler.plan_circulant(kernels.polylog_decay(3.5, 1), sampler.Grid((128,)), 0)
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


def test_decomposed_x1_independence_on_a_torus_smaller_than_the_doubled_one():
    # X1 is independent across sets more than 2 radius apart in the torus metric; each torus
    # axis at least the box plus 2 radius (or twice the box) makes the box metric agree
    bf, grid, radius = kernels.bargmann_fock(2), sampler.Grid((24, 8), 1.0), 5.0
    plan = sampler.plan_decomposed(bf, grid, radius, 3)
    assert plan.torus_shape[0] < 2 * 24
    assert all(t >= min(n + 2 * radius / grid.spacing, 2 * n) for t, n in zip(plan.torus_shape, grid.shape))
    a = [plan.index[(x, y)] for x in range(3) for y in range(8)]
    b = [plan.index[(x, y)] for x in range(21, 24) for y in range(8)]
    assert 18 * grid.spacing > 2 * radius  # the blocks' box distance
    cols, m = np.array(a + b), len(a)
    # exactly 0 from the near kernel itself: no torus site lies within the radius of both blocks
    assert np.all(oracles.torus_support_cov(plan, cols, [plan.q_near])[:m, m:] == 0.0)
    # and through the near filter (rows and columns 0 .. 2m - 1 of two filters) up to rounding
    assert np.abs(oracles.torus_support_cov(plan, cols)[:m, m : 2 * m]).max() < 1e-15
    # the smallest exact torus alone is shorter than the box plus 2 radius: X1 wraps across the blocks
    short = sampler.DecomposedPlan(sampler.plan_circulant(bf, grid, 3), radius)
    assert short.torus_shape[0] < 24 + 2 * radius / grid.spacing
    assert np.abs(oracles.torus_support_cov(short, cols, [short.q_near])[:m, m:]).max() > 1e-6


@pytest.mark.parametrize("model", [kernels.bargmann_fock(2), kernels.cauchy(2.0, 2)], ids=["bf", "cauchy2"])
@pytest.mark.parametrize("split", [False, True], ids=["circulant", "split"])
def test_torus_filters_reproduce_cov_block_exactly(model, split):
    # the draws are irfftn(rfftn(w) * f) summed over the plan's filters, so their covariance
    # at offset h is irfftn(|sum f|^2)(h mod torus): exactly the kernel wrapped on the torus,
    # and the kernel itself to the stated limit
    grid = sampler.Grid((16, 16), 0.5)
    plan = sampler.plan_decomposed(model, grid, 1.5, 0) if split else sampler.plan_circulant(model, grid, 0)
    c = np.fft.irfftn(np.abs(sum(plan._filters)) ** 2, s=plan.torus_shape, axes=(0, 1))
    pts = np.array(plan.points)
    off = (pts[:, None, :] - pts[None, :, :]) % np.array(plan.torus_shape)
    implied = c[off[..., 0], off[..., 1]]
    assert np.abs(implied - _wrapped_kernel(plan, pts)).max() < 1e-12
    assert np.abs(implied - plan.cov_block(plan.points, plan.points)).max() <= _stated_limit(plan)


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


def _torus_plan(shape, origin, split, seed=5):
    spacing = 1.0 if len(shape) == 3 else 0.5  # the 3-d box at 0.5 clips too much spectrum
    grid = sampler.Grid(shape, spacing, origin)
    bf = kernels.bargmann_fock(len(shape))
    return sampler.plan_decomposed(bf, grid, 1.5, seed) if split else sampler.plan_circulant(bf, grid, seed)


@pytest.mark.parametrize("split", [False, True], ids=["circulant", "split"])
@pytest.mark.parametrize("origin", [False, True], ids=["corner", "origin"])
@pytest.mark.parametrize("shape", [(40,), (10, 9), (6, 5, 4)], ids=["1d", "2d", "3d"])
def test_support_draw_matches_the_fft_draw(shape, origin, split):
    """In law: the support draw is the dense restriction whose factor times its transpose is
    the FFT draw's covariance at the columns, Q^T Q, and row r applies that factor to the
    normals of r's row of block (seed, r // 256).  Bargmann-Fock's kernels are even, so a slip of the lag's sign or
    a dropped conj would not show on them; the plan is also run with random filters."""
    plan = _torus_plan(shape, tuple(range(-3, 2 * len(shape) - 3, 2)) if origin else None, split)
    cols = np.random.default_rng(len(shape)).permutation(len(plan.points))[:30]  # any order
    assert sampler._restriction_wins(len(plan._filters) * len(cols), math.prod(plan.torus_shape))
    rng = np.random.default_rng(0)
    reps = [0, 255, 256, 2**64 - 1]
    sampler._BANK.clear()
    for filters in (plan._filters, [np.fft.rfftn(rng.normal(size=plan.torus_shape)) for _ in plan._filters]):
        plan._set_filters(*filters)
        ref = oracles.torus_support_cov(plan, cols)
        factor = plan._restriction(cols)
        assert np.abs(factor @ factor.T - ref).max() <= 1e-12 * ref.diagonal().max()
        got = plan.draw_split_batch(reps, cols) if split else (plan.draw_batch(reps, cols),)
        for k, r in enumerate(reps):
            x = factor @ oracles.block_row_normals(5, r, factor.shape[1])
            for a, g in enumerate(got):  # the circulant filter, or the near and far filters
                assert g.shape == (len(reps), 30) and np.array_equal(g[k], x[30 * a : 30 * (a + 1)])
    assert not sampler._BANK._entries  # the dense plans' shared blocks stay theirs


@pytest.mark.parametrize("model", [kernels.bargmann_fock(2), kernels.cauchy(2.0, 2)], ids=["bf", "cauchy2"])
@pytest.mark.parametrize("split", [False, True], ids=["circulant", "split"])
def test_restriction_blocks_sum_to_cov_block(model, split):
    # the field is the sum of the filters' moving averages, so its covariance at the columns
    # is the sum of the restriction's blocks: exactly the kernel wrapped on the torus, and the
    # kernel itself to the stated limit
    grid = sampler.Grid((16, 16), 0.5)
    plan = sampler.plan_decomposed(model, grid, 1.5, 0) if split else sampler.plan_circulant(model, grid, 0)
    cols = np.random.default_rng(1).permutation(len(plan.points))[:40]
    m, nf = len(cols), len(plan._filters)
    factor = plan._restriction(cols)
    cov = factor @ factor.T
    summed = sum(cov[a * m : (a + 1) * m, b * m : (b + 1) * m] for a in range(nf) for b in range(nf))
    pts = [plan.points[c] for c in cols]
    assert np.abs(summed - _wrapped_kernel(plan, pts)).max() < 1e-12
    assert np.abs(summed - plan.cov_block(pts, pts)).max() <= _stated_limit(plan)


@pytest.mark.parametrize("split", [False, True], ids=["circulant", "split"])
def test_support_draw_on_the_fft_path_is_the_box_draw_at_those_columns(monkeypatch, split):
    plan = _torus_plan((10, 9), (2, -4), split)
    cols = np.array([7, 0, 88, 41])
    monkeypatch.setattr(sampler, "_restriction_wins", lambda columns, torus_size: False)
    got = plan.draw_split_batch(range(300), cols) if split else (plan.draw_batch(range(300), cols),)
    ref = plan.draw_split_batch(range(300)) if split else (plan.draw_batch(range(300)),)
    for g, r in zip(got, ref, strict=True):
        assert np.array_equal(g, r[:, cols])


@pytest.mark.parametrize("split", [False, True], ids=["circulant", "split"])
def test_support_draw_row_depends_on_the_replicate_alone(split):
    # the restriction applies its factor to each replicate's own normals
    plan = _torus_plan((10, 9), None, split)
    cols = np.arange(0, 90, 3)
    draw = plan.draw_split_batch if split else (lambda reps, c: (plan.draw_batch(reps, c),))
    block = draw(range(512), cols)
    for r in (0, 3, 255, 256, 300, 511):
        for one, rows in zip(draw([r], cols), block, strict=True):
            assert np.array_equal(one[0], rows[r])
    shuffled = [300, 3, 300, 511, 0]
    for got, rows in zip(draw(shuffled, cols), block, strict=True):
        assert np.array_equal(got, rows[shuffled])


def test_cost_rule_draws_smoke_supports_by_restriction_and_crossing_boxes_by_fft():
    # thm1.10 and prop1.8 read two 5 x 5 boxes of a 24^2 grid on the 36^2 torus; the
    # one-arm table reads 797 sites on 40^2, and a crossing of a whole 32^2 box 1,024 on 45^2
    assert sampler._restriction_wins(50, 36 * 36) and sampler._restriction_wins(2 * 50, 36 * 36)
    assert not sampler._restriction_wins(1024, 45 * 45) and not sampler._restriction_wins(797, 40 * 40)
    # the factor's size, not the torus's, bounds the cache: 100 columns on 128^3 take an
    # 80 kB factor, and the factor outgrows BANK_BYTES past 1,448 columns
    assert sampler._restriction_wins(100, 128**3)
    assert sampler._restriction_wins(1448, 2**40) and not sampler._restriction_wins(1449, 2**40)


@pytest.mark.parametrize("cols", [[0, 90], [-1], [[0, 1]], [0.0, 1.0], ["0"]])
def test_support_draw_rejects_columns_outside_the_plan(cols):
    plan = _torus_plan((10, 9), None, False)
    with pytest.raises(InputError):
        plan.draw_batch([0], cols)
    with pytest.raises(InputError):
        sampler.plan_dense(np.eye(90), 0).draw_batch([0], cols)


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
