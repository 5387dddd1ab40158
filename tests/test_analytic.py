import math

import numpy as np
import pytest
from scipy import integrate

from sdlab import analytic
from sdlab.errors import DomainError

import oracles


def test_std_cdf_basics():
    assert analytic.std_cdf(0.0) == 0.5
    assert analytic.std_quantile(0.5) == 0.0
    assert analytic.std_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)


def test_quantile_roundtrip():
    for p in np.linspace(1e-12, 1 - 1e-12, 101):
        assert abs(analytic.std_cdf(analytic.std_quantile(p)) - p) <= 1e-12


def test_quantile_domain():
    with pytest.raises(DomainError):
        analytic.std_quantile(0.0)
    with pytest.raises(DomainError):
        analytic.std_quantile(1.0)


def test_pdf_is_cdf_derivative():
    h = 1e-6
    for u in (-3.0, -0.7, 0.0, 1.3, 4.0):
        fd = (analytic.std_cdf(u + h) - analytic.std_cdf(u - h)) / (2 * h)
        assert analytic.std_pdf(u) == pytest.approx(fd, abs=1e-6)


def test_pdf_is_zero_past_its_underflow_with_no_warning():
    # squaring 1e200 overflowed with a RuntimeWarning, which pytest turns into an error
    assert analytic.std_pdf(1e200) == analytic.std_pdf(-np.inf) == analytic.std_pdf(38.7) == 0.0
    assert np.array_equal(analytic.std_pdf(np.array([1e300, -1e160])), [0.0, 0.0])
    assert math.isnan(analytic.std_pdf(math.nan))
    u = np.concatenate([np.linspace(-38.6, 38.6, 20_001), np.random.default_rng(0).normal(size=1000) * 5])
    old = np.exp(-np.square(u) / 2.0) / analytic.SQRT_2PI
    assert np.array_equal(analytic.std_pdf(u), old)
    assert all(analytic.std_pdf(float(x)) == y for x, y in zip(u[::97], old[::97]))


def test_sprinkle_exponent_is_the_plain_quotient_inside_the_float_range():
    rng = np.random.default_rng(1)
    for eps, var in zip(10.0 ** rng.uniform(-150, 150, 5000), 10.0 ** rng.uniform(-150, 150, 5000)):
        eps, var = float(eps), float(var)
        assert analytic.sprinkle_exponent(eps, var) == -(eps**2) / (8.0 * var)
    assert analytic.sprinkle_exponent(0.0, 1.0) == 0.0


@pytest.mark.parametrize("eps, var, expected", [
    (1e200, 1.0, -math.inf), (1e200, 1e-300, -math.inf), (1.0, 0.0, -math.inf), (0.0, 0.0, 0.0),
    (1e155, 1e308, -12.5), (1e200, 1e300, -1.25e99),
])
def test_sprinkle_exponent_past_the_float_range(eps, var, expected):
    # eps**2 raised OverflowError and var = 0 ZeroDivisionError; 8 var = inf left eps^2 / inf
    assert analytic.sprinkle_exponent(eps, var) == pytest.approx(expected)


def test_2dcase_sprinkled_check_at_a_huge_sprinkle():
    rep = analytic.check_2dcase_sprinkled(0.5, 0.0, 0.0, 1e200)
    assert rep.rhs == 0.5 and rep.passed


# --- bivariate cdf ---------------------------------------------------------

BVN_ORACLE = [
    # (rho, u, v, value) frozen from the mpmath regression-form quadrature
    (0.7, 0.3, -0.4, 0.31225374992103483),
    (0.95, 1.0, 1.2, 0.83034264616199758),
    (-0.6, -0.5, 0.8, 0.17190350684057812),
    (0.5, 0.0, 0.0, 1.0 / 3.0),
]


@pytest.mark.parametrize("rho,u,v,want", BVN_ORACLE)
def test_bivariate_cdf_against_oracle(rho, u, v, want):
    assert analytic.bivariate_cdf(rho, u, v) == pytest.approx(want, abs=1e-12)


def _bvn_grid():
    # a seeded grid, then u = +-v at the correlations where the regression form has a near-step
    rng = np.random.default_rng(20260)
    cases = [(float(r), float(u), float(v))
             for r, u, v in zip(rng.uniform(-1, 1, 40), rng.uniform(-8, 8, 40), rng.uniform(-8, 8, 40))]
    for rho in (0.9999999, -0.9999999, 1 - 2**-52, -(1 - 2**-52)):
        for x in (-6.0, -3.0, -0.5, 0.0, 1.0, 4.0):
            cases += [(rho, x, x)] + ([(rho, x, -x)] if x else [])
    return cases


BVN_GRID = _bvn_grid()


@pytest.mark.parametrize("rho,u,v", BVN_GRID)
def test_bivariate_cdf_against_mended_oracle(rho, u, v):
    assert abs(analytic.bivariate_cdf(rho, u, v) - oracles.bvn_mp(rho, u, v)) <= 1e-13


def test_bivariate_cdf_is_symmetric_bit_for_bit():
    rng = np.random.default_rng(7)
    cases = BVN_GRID + [(float(r), float(u), float(v))
                        for r, u, v in zip(rng.uniform(-1, 1, 500), rng.normal(0, 4, 500), rng.normal(0, 4, 500))]
    for rho, u, v in cases:
        assert analytic.bivariate_cdf(rho, u, v) == analytic.bivariate_cdf(rho, v, u)


def test_bivariate_cdf_near_unit_correlation_regression():
    # 4.3e-5 below the rho = 1 limit Phi(1) = 0.8413447460659952, which a rule that misses the
    # near-step of the regression form reads
    assert analytic.bivariate_cdf(0.9999999, 1.0, 1.0) == pytest.approx(0.8413015754880525, abs=1e-13)


@pytest.mark.parametrize("rho", [0.9999999, 1 - 2**-52])
def test_bvn_oracle_asin_identity_and_unit_limits(rho):
    for r in (-rho, -0.5, 0.3, rho):
        assert oracles.bvn_mp(r, 0.0, 0.0) == pytest.approx(0.25 + math.asin(r) / (2 * math.pi), abs=1e-15)
    phi = analytic.std_cdf
    # where the levels differ (rho -> 1) or are equal (rho -> -1), the gap to the limit is
    # exp(-c / (1 - |rho|)) and far below double precision
    assert oracles.bvn_mp(rho, 1.0, 2.0) == pytest.approx(phi(1.0), abs=1e-15)
    assert oracles.bvn_mp(rho, 2.0, -0.5) == pytest.approx(phi(-0.5), abs=1e-15)
    assert oracles.bvn_mp(-rho, 1.0, 1.0) == pytest.approx(2 * phi(1.0) - 1, abs=1e-15)
    assert oracles.bvn_mp(-rho, -0.5, 0.2) == pytest.approx(0.0, abs=1e-15)
    assert oracles.bvn_mp(1.0, 1.0, 1.0) == pytest.approx(phi(1.0), abs=1e-16)
    assert oracles.bvn_mp(-1.0, 1.0, 1.0) == pytest.approx(2 * phi(1.0) - 1, abs=1e-16)


def test_bivariate_cdf_independence():
    for u, v in [(-1.0, 2.0), (0.4, 0.4), (3.0, -3.0)]:
        got = analytic.bivariate_cdf(0.0, u, v)
        assert got == pytest.approx(analytic.std_cdf(u) * analytic.std_cdf(v), abs=1e-15)


def test_bivariate_cdf_asin_identity():
    for rho in np.linspace(-0.99, 0.99, 67):
        want = 0.25 + math.asin(rho) / (2 * math.pi)
        assert analytic.bivariate_cdf(float(rho), 0.0, 0.0) == pytest.approx(want, abs=1e-12)


def test_bivariate_cdf_perfect_correlation():
    assert analytic.bivariate_cdf(1.0, 0.7, 1.5) == pytest.approx(analytic.std_cdf(0.7), abs=0)
    assert analytic.bivariate_cdf(-1.0, 0.7, 1.5) == pytest.approx(
        analytic.std_cdf(0.7) + analytic.std_cdf(1.5) - 1.0, abs=0
    )


def test_bivariate_cdf_monotone_in_all_arguments():
    us = np.linspace(-2, 2, 9)
    rhos = np.linspace(-0.9, 0.9, 7)
    for v in (-1.0, 0.5):
        vals = [analytic.bivariate_cdf(0.3, float(u), v) for u in us]
        assert all(a <= b + 1e-13 for a, b in zip(vals, vals[1:]))
        vals = [analytic.bivariate_cdf(float(r), 0.4, v) for r in rhos]
        assert all(a <= b + 1e-13 for a, b in zip(vals, vals[1:]))


def test_bivariate_derivs_closed_forms_and_fd():
    h = 1e-5
    for rho, u, v in [(0.0, 0.3, -0.8), (0.6, -1.0, 0.5), (-0.4, 0.2, 0.2)]:
        du, dv, dr = analytic.bivariate_cdf_derivs(rho, u, v)
        fd_u = (analytic.bivariate_cdf(rho, u + h, v) - analytic.bivariate_cdf(rho, u - h, v)) / (2 * h)
        fd_v = (analytic.bivariate_cdf(rho, u, v + h) - analytic.bivariate_cdf(rho, u, v - h)) / (2 * h)
        fd_r = (analytic.bivariate_cdf(rho + h, u, v) - analytic.bivariate_cdf(rho - h, u, v)) / (2 * h)
        assert du == pytest.approx(fd_u, abs=1e-6)
        assert dv == pytest.approx(fd_v, abs=1e-6)
        assert dr == pytest.approx(fd_r, abs=1e-6)


def test_bivariate_derivs_domain_error_at_unit_correlation():
    with pytest.raises(DomainError):
        analytic.bivariate_cdf_derivs(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        analytic.bivariate_cdf_derivs(-1.0, 0.0, 0.0)


def test_bivariate_deriv_symmetries():
    du, dv, dr = analytic.bivariate_cdf_derivs(0.0, 0.4, -0.9)
    assert du == pytest.approx(analytic.std_pdf(0.4) * analytic.std_cdf(-0.9), abs=1e-15)
    du2, dv2, _ = analytic.bivariate_cdf_derivs(0.35, -0.9, 0.4)
    du3, dv3, _ = analytic.bivariate_cdf_derivs(0.35, 0.4, -0.9)
    assert du3 == pytest.approx(dv2, abs=1e-15)
    assert dv3 == pytest.approx(du2, abs=1e-15)
    _, _, dr0 = analytic.bivariate_cdf_derivs(0.0, 0.0, 0.0)
    assert dr0 == pytest.approx(1.0 / (2 * math.pi), abs=1e-15)


@pytest.mark.parametrize("call", [analytic.bivariate_cdf, analytic.bivariate_cdf_derivs])
@pytest.mark.parametrize("u, v", [(math.nan, 0.0), (0.5, math.nan), (math.nan, math.inf)])
def test_bivariate_nan_level_is_a_domain_error(call, u, v):
    with pytest.raises(DomainError, match="must not be nan"):
        call(0.5, u, v)


@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.35])
def test_bivariate_derivs_at_infinite_levels_are_their_limits(rho):
    # at |level| = 40 every term that vanishes in the limit has underflowed to 0
    for u, v in [(math.inf, 0.3), (-math.inf, 0.3), (-0.7, math.inf), (0.2, -math.inf),
                 (math.inf, math.inf), (-math.inf, math.inf)]:
        got = analytic.bivariate_cdf_derivs(rho, u, v)
        assert got == analytic.bivariate_cdf_derivs(rho, max(-40.0, min(40.0, u)), max(-40.0, min(40.0, v)))
        assert got[2] == 0.0


@pytest.mark.parametrize("rho", [-0.9, 0.35, 0.5, 0.9999999])
def test_bivariate_at_huge_finite_levels_equals_clipped_and_infinite(rho):
    # a finite level past PDF_CLIP is clipped inside the integrand and phi_rho, where each
    # term has underflowed to 0 already; unclipped, u * u overflows and inf - inf is nan
    big = 1e200
    for u, v in [(big, 0.3), (-big, 0.3), (-0.7, big), (0.2, -big), (big, big), (-big, big), (-big, -big)]:
        clipped = [max(-40.0, min(40.0, x)) for x in (u, v)]
        limit = [math.copysign(math.inf, x) if abs(x) == big else x for x in (u, v)]
        for call in (analytic.bivariate_cdf, analytic.bivariate_cdf_derivs):
            assert call(rho, u, v) == call(rho, *clipped) == call(rho, *limit)
    assert analytic.bivariate_cdf(rho, big, big) == 1.0


def test_rho_deriv_equals_mixed_second_derivative():
    h = 1e-4
    for rho, u, v in [(0.3, 0.5, -0.2), (0.65, -1.1, 0.7)]:
        _, _, dr = analytic.bivariate_cdf_derivs(rho, u, v)
        f = analytic.bivariate_cdf
        mixed = (
            f(rho, u + h, v + h) - f(rho, u + h, v - h) - f(rho, u - h, v + h) + f(rho, u - h, v - h)
        ) / (4 * h * h)
        assert dr == pytest.approx(mixed, abs=1e-5)


# --- 2d decoupling checks --------------------------------------------------


def test_sprinkled_2d_perfect_correlation_example():
    rep = analytic.check_2dcase_sprinkled(1.0, 0.0, 0.0, 0.0)
    assert rep.lhs == pytest.approx(0.5)
    assert rep.rhs == pytest.approx(1.25)
    assert rep.passed


def test_sprinkled_2d_large_eps_limit():
    rep = analytic.check_2dcase_sprinkled(0.5, 0.3, -0.2, 40.0)
    assert rep.rhs == pytest.approx(analytic.std_cdf(0.3), abs=1e-12)
    assert rep.passed


def test_errorless_2d_rho_zero_equality():
    rep = analytic.check_2dcase_errorless(0.0, 0.4, -1.2)
    assert rep.slack == pytest.approx(0.0, abs=1e-15)
    assert rep.passed


def test_errorless_kappa_value():
    assert analytic.errorless_kappa(0.5, 0.0, 0.0) == 2.0
    k = analytic.errorless_kappa(0.6, -1.0, -2.0)
    assert k == pytest.approx(2.0 + 1.0 / math.sqrt(1 - 0.36), abs=1e-15)


# --- tail-gap scan ----------------------------------------------------------


def test_neg_bound_scan_at_zero_like_values():
    t = analytic.neg_bound_scan(0.5, [1e-12, 1.0])
    # r(0+) = 1/2 - 1/4
    assert t.r[0] == pytest.approx(0.25, abs=1e-9)


def test_neg_bound_scan_matches_mp_oracle():
    t = analytic.neg_bound_scan(0.3, np.arange(1.0, 11.0))
    assert t.exponent[-1] == pytest.approx(oracles.neg_bound_exponent_mp(0.3, 10.0), rel=1e-10)
    t2 = analytic.neg_bound_scan(0.293, np.arange(1.0, 41.0))
    assert t2.exponent[-1] == pytest.approx(oracles.neg_bound_exponent_mp(0.293, 40.0), rel=1e-9)
    # gap stays positive over the scan; the raw r underflows double near u=40,
    # which is what the log-scale column is for
    assert np.all(np.isfinite(t2.log_r))


def test_neg_bound_scan_domain():
    with pytest.raises(DomainError):
        analytic.neg_bound_scan(1.5, [1.0, 2.0])
    with pytest.raises(DomainError):
        analytic.neg_bound_scan(0.3, [2.0, 1.0])


def test_fit_limiting_exponent_recovers_ceiling():
    t = analytic.neg_bound_scan(0.293, np.arange(1.0, 41.0))
    c_inf = analytic.fit_limiting_exponent(t)
    assert c_inf == pytest.approx(1.0 / (2 * 0.293**2), abs=5e-3)
    assert c_inf <= analytic.NEG_BOUND_CEIL + 0.01


# --- profile & classical bounds ---------------------------------------------


def test_isoperimetric_profile_basics():
    assert analytic.isoperimetric_profile(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)
    assert analytic.isoperimetric_profile(0.5, 1.0) == pytest.approx(analytic.std_cdf(1.0), abs=1e-15)
    # semigroup
    p = 0.37
    a, b = 0.4, 0.9
    lhs = analytic.isoperimetric_profile(analytic.isoperimetric_profile(p, a), b)
    assert lhs == pytest.approx(analytic.isoperimetric_profile(p, a + b), abs=1e-12)
    with pytest.raises(DomainError):
        analytic.isoperimetric_profile(1.5, 0.1)


def test_gaussian_tail_half_exponential_bound():
    t = np.linspace(0, 30, 500)
    assert np.all(1.0 - analytic.std_cdf(t) <= np.exp(-(t**2) / 2) / 2 + 1e-300)


def test_bivariate_cdf_against_dblquad():
    # adaptive 2d quadrature as an independent numerical route
    def pdf(y, x, rho):
        om = 1 - rho * rho
        return math.exp(-(x * x - 2 * rho * x * y + y * y) / (2 * om)) / (2 * math.pi * math.sqrt(om))

    for rho, u, v in [(0.45, 0.2, 0.9), (-0.3, -0.6, 0.1)]:
        want, err = integrate.dblquad(pdf, -9.0, u, -9.0, v, args=(rho,), epsabs=1e-11)
        assert analytic.bivariate_cdf(rho, u, v) == pytest.approx(want, abs=1e-9)
