import math

import numpy as np
import pytest

from sdlab import kernels, measures
from sdlab.errors import InputError, NumericalError

import oracles

RNG = np.random.default_rng(77)


def random_psd(n, rng=RNG):
    a = rng.normal(size=(n, n + 3))
    return a @ a.T / (n + 3)


# --- sup cross covariance ---------------------------------------------------


def test_sup_cross_cov_identity_disjoint():
    assert measures.sup_cross_cov(np.eye(4), [0, 1], [2, 3]) == 0.0


def test_sup_cross_cov_single_entry():
    K = np.array([[1.0, 0.3], [0.3, 1.0]])
    assert measures.sup_cross_cov(K, [0], [1]) == 0.3


def test_sup_cross_cov_empty_raises():
    with pytest.raises(InputError):
        measures.sup_cross_cov(np.eye(3), [], [1])


def test_sup_cross_cov_gff_balls_pair_scan():
    model = kernels.gff(3)
    b1 = [(i, j, k) for i in range(-4, 5) for j in range(-4, 5) for k in range(-4, 5)
          if i * i + j * j + k * k <= 16]
    b2 = [(x + 12, y, z) for (x, y, z) in b1]
    pts = b1 + b2
    K = kernels.build_cov_matrix(model, pts)
    i1 = list(range(len(b1)))
    i2 = list(range(len(b1), len(pts)))
    got = measures.sup_cross_cov(K, i1, i2)
    # exhaustive scan oracle + monotonicity: the max sits at the closest pair
    block = K[np.ix_(i1, i2)]
    assert got == np.abs(block).max()
    d2 = np.array([[sum((a - b) ** 2 for a, b in zip(p, q)) for q in b2] for p in b1])
    closest = np.unravel_index(np.argmin(d2), d2.shape)
    assert got == pytest.approx(block[closest], abs=1e-12)


# --- capacity ----------------------------------------------------------------


def test_capacity_identity_uniform():
    for m in (1, 2, 5, 11):
        res = measures.capacity(np.eye(m), tol=1e-12)
        assert res.value == pytest.approx(m, abs=1e-9)
        assert np.allclose(res.minimizer, np.full(m, 1.0 / m), atol=1e-6)
        assert res.gap <= 1e-12 * max(res.energy, 1e-300) + 1e-300


@pytest.mark.parametrize("r", [-0.9, -0.5, 0.0, 0.3, 0.9])
def test_capacity_two_point_closed_form(r):
    K = np.array([[1.0, r], [r, 1.0]])
    res = measures.capacity(K, tol=1e-12)
    assert res.value == pytest.approx(2.0 / (1.0 + r), abs=1e-8)
    assert res.value == pytest.approx(oracles.capacity_2pt_oracle(r), abs=1e-5)
    assert abs(res.minimizer.sum() - 1.0) <= 1e-12
    assert np.all(res.minimizer >= 0)


def test_capacity_monotone_under_inclusion():
    for _ in range(50):
        K = random_psd(8)
        idx = RNG.permutation(8)
        small = idx[:4]
        large = idx[:7]
        cs = measures.capacity(K, small).value
        cl = measures.capacity(K, large).value
        assert cs <= cl * (1 + 1e-8) + 1e-8


def test_capacity_scale_law():
    K = random_psd(6)
    c = 3.7
    r1 = measures.capacity(K, tol=1e-12)
    r2 = measures.capacity(c * K, tol=1e-12)
    assert r2.value == pytest.approx(r1.value / c, rel=1e-9)


def test_capacity_infinite_flag():
    K = np.zeros((3, 3))
    res = measures.capacity(K)
    assert res.infinite and math.isinf(res.value)


def test_capacity_certificate_bounds_suboptimality():
    # FW gap upper-bounds energy suboptimality on 2-point instances
    for r in np.arange(-0.9, 0.95, 0.1):
        K = np.array([[1.0, r], [r, 1.0]])
        res = measures.capacity(K, tol=1e-12)
        best = (1.0 + r) / 2.0
        assert res.energy - best <= res.gap + 1e-15


# --- max correlation ----------------------------------------------------------


def test_max_corr_block_diagonal_zero():
    K = np.eye(4)
    assert measures.max_corr(K, [0, 1], [2, 3]).rho == 0.0


@pytest.mark.parametrize("K, i1, i2", [
    (np.array([[0.0, 0.0], [0.0, 1.0]]), [0], [1]),
    (np.array([[0.0, 0.0], [0.0, 1.0]]), [1], [0]),
    (np.zeros((3, 3)), [0, 1], [2]),
])
def test_max_corr_zero_variance_block_is_uncorrelated(K, i1, i2):
    # a block with zero variances is a.s. constant: rho = 0, with or without a ridge
    for ridge in (None, 0.0, 1e-3):
        assert measures.max_corr(K, i1, i2, ridge).rho == 0.0


def test_max_corr_zero_variance_block_with_cross_covariance_is_rejected():
    with pytest.raises(InputError, match="zero-variance block"):
        measures.max_corr(np.array([[0.0, 0.5], [0.5, 1.0]]), [0], [1])


def test_max_corr_duplicated_coordinate_is_one():
    # X = (Z, Z, W): block {0} vs {1} share the same coordinate
    K = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    res = measures.max_corr(K, [0, 2], [1])
    assert res.rho == pytest.approx(1.0, abs=1e-8)


def test_max_corr_2x2_equals_abs_correlation():
    for r in (-0.8, -0.2, 0.35, 0.9):
        K = np.array([[1.0, r], [r, 1.0]])
        assert measures.max_corr(K, [0], [1]).rho == pytest.approx(abs(r), abs=1e-12)


def test_max_corr_symmetry():
    K = random_psd(7) + 0.5 * np.eye(7)
    a = measures.max_corr(K, [0, 1, 2], [3, 4, 5, 6]).rho
    b = measures.max_corr(K, [3, 4, 5, 6], [0, 1, 2]).rho
    assert a == pytest.approx(b, abs=1e-10)


def test_max_corr_invariant_under_block_recombination():
    K = random_psd(6) + 0.5 * np.eye(6)
    i1, i2 = [0, 1, 2], [3, 4, 5]
    base = measures.max_corr(K, i1, i2).rho
    M = RNG.normal(size=(3, 3)) + 3 * np.eye(3)  # invertible mixing of block 1
    T = np.eye(6)
    T[:3, :3] = M
    K2 = T @ K @ T.T
    got = measures.max_corr(K2, i1, i2).rho
    assert got == pytest.approx(base, abs=1e-8)


def test_max_corr_directions_achieve_rho():
    K = random_psd(6) + 0.5 * np.eye(6)
    i1, i2 = [0, 1], [2, 3, 4, 5]
    res = measures.max_corr(K, i1, i2)
    A = K[np.ix_(i1, i1)]
    B = K[np.ix_(i2, i2)]
    C = K[np.ix_(i1, i2)]
    num = float(res.alpha @ C @ res.beta)
    den = math.sqrt(float(res.alpha @ A @ res.alpha) * float(res.beta @ B @ res.beta))
    assert abs(num) / den == pytest.approx(res.rho, abs=1e-9)


def test_max_corr_singular_block_advises_ridge():
    K = np.array([[1.0, 1.0, 0.2], [1.0, 1.0, 0.1], [0.2, 0.1, 1.0]])
    with pytest.raises(NumericalError):
        measures.max_corr(K, [0, 1], [2], ridge=0.0)
    res = measures.max_corr(K, [0, 1], [2])  # automatic ridge
    assert 0.0 <= res.rho <= 1.0 and res.ridge > 0


def test_max_corr_bounded_by_one():
    for _ in range(25):
        K = random_psd(6)
        res = measures.max_corr(K, [0, 1, 2], [3, 4, 5])
        assert -1e-12 <= res.rho <= 1.0 + 1e-12


# --- bound chain --------------------------------------------------------------


def test_chain_block_diagonal():
    K = np.eye(6)
    rep = measures.bound_chain_report(K, [0, 1, 2], [3, 4, 5])
    assert rep.passed
    assert rep.rho == 0.0
    assert rep.max_normalized_entry == 0.0
    assert rep.cross_over_global == 0.0


def test_chain_2x2_collapses_to_equalities():
    K = np.array([[1.0, 0.3], [0.3, 1.0]])
    rep = measures.bound_chain_report(K, [0], [1])
    assert rep.passed
    assert rep.rho == pytest.approx(0.3, abs=1e-12)
    assert rep.max_normalized_entry == pytest.approx(0.3, abs=1e-12)
    assert rep.cross_over_global == pytest.approx(0.3, abs=1e-12)
    # caplower: sqrt(cap*cap)*minK = 2/(1.3) * 0.3 = 0.4615... > rho = 0.3?
    # no: caps are 2/(1+r) each only on the pair; on single points cap = 1
    assert rep.lower_bound == pytest.approx(0.3, abs=1e-9)


def test_chain_gff_balls():
    model = kernels.gff(3)
    b1 = [(i, j, k) for i in range(-2, 3) for j in range(-2, 3) for k in range(-2, 3)
          if i * i + j * j + k * k <= 4]
    b2 = [(x + 8, y, z) for (x, y, z) in b1]
    pts = b1 + b2
    K = kernels.build_cov_matrix(model, pts)
    i1 = list(range(len(b1)))
    i2 = list(range(len(b1), len(pts)))
    rep = measures.bound_chain_report(K, i1, i2, gff_model=True)
    assert rep.passed
    assert rep.upper_bound is not None
    assert rep.rho <= rep.upper_bound + 1e-9
    assert rep.lower_bound <= rep.rho + 1e-9


def test_chain_ordering_random_instances():
    for _ in range(20):
        K = random_psd(7) + 0.3 * np.eye(7)
        rep = measures.bound_chain_report(K, [0, 1, 2], [3, 4, 5, 6])
        assert 1.0 + 1e-12 >= rep.rho >= rep.max_normalized_entry - 1e-9
        assert rep.max_normalized_entry >= rep.cross_over_global - 1e-12


# --- input checks ------------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda K, I: measures.sup_cross_cov(K, [0], I),
    lambda K, I: measures.sup_cross_cov(K, I, [0]),
    lambda K, I: measures.capacity(K, I),
    lambda K, I: measures.max_corr(K, [0], I),
    lambda K, I: measures.bound_chain_report(K, I, [0]),
])
@pytest.mark.parametrize("K, I, message", [
    (np.eye(2), [1, -1], r"\[0, 2\)"),
    (np.eye(2), [2], r"\[0, 2\)"),
    (np.eye(2, 3), [1], r"square and nonempty, got shape \(2, 3\)"),
    (np.array([[1.0, np.inf], [np.inf, 1.0]]), [1], r"finite, square and nonempty, got shape \(2, 2\)"),
])
def test_index_sets_and_matrices_are_checked(call, K, I, message):
    # a negative index used to wrap around to the last row: a silent wrong answer
    with pytest.raises(InputError, match=message):
        call(K, I)
