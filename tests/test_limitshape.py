"""Limit-shape functions g, h and their derivatives.

The central dual-route check: the small-u power series and the Bessel-ratio
quadrature-free forms must agree to 1e-9 across (0, 1), and analytic
derivatives must match finite differences of the function everywhere
(including across the internal series/Bessel/asymptotic branch seams).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulertails.constants import H_LARGE_BRACKET, H_SMALL_BRACKET
from eulertails.errors import DomainError
from eulertails.limitshape import (
    g_deriv,
    g_fn,
    gp_minus_2,
    gp_over_u,
    h_deriv,
    h_fn,
    h_over_u2,
    log_w_shape,
    series_h_small,
    w_shape_ratio,
)
from eulertails.primes import primes_for
from eulertails.profile import _fast_sums


def _ref_series_su(u, d, terms=16):
    """Reference: the d-th derivative of S(u) = sum u^{2l}/(l!(l+1)!) by a
    separate term-wise loop per order, which the one-pass helper must match
    bit for bit."""
    out = np.zeros_like(u)
    for l in range(terms, -1, -1):
        e = 2 * l - d
        if e < 0:
            continue
        c = 1.0
        for k in range(2 * l, e, -1):
            c *= k
        term = c * u**e
        for k in range(1, l + 1):
            term /= k * (k + 1)
        out = out + term
    return out


def _ref_g_derivs(u):
    s0, s1, s2, s3 = (_ref_series_su(u, d) for d in range(4))
    r1, r2, r3 = s1 / s0, s2 / s0, s3 / s0
    return np.log(s0), r1, s2 / s0 - (s1 / s0) ** 2, r3 - 3 * r2 * r1 + 2 * r1**3


# spans the series (<0.25), Bessel, and asymptotic (>25) branches
BRANCH_GRID = [0.01, 0.1, 0.2, 0.249, 0.251, 0.7, 1.0, 3.0, 24.9, 25.1, 60.0, 500.0]


class TestG:
    def test_zero(self):
        assert g_fn(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_even_symmetry(self):
        for u in (0.3, 1.0, 5.0):
            assert g_fn(-u) == pytest.approx(g_fn(u), abs=1e-12)

    def test_small_u_leading_term(self):
        # g(u) = u^2/2 - ... as u -> 0
        u = 1e-4
        assert g_fn(u) == pytest.approx(u * u / 2.0, rel=1e-6)

    def test_value_at_tenth(self):
        # log(1 + u^2/2 + u^4/12 + ...) = u^2/2 - u^4/24 + O(u^6)
        u = 0.1
        assert g_fn(u) == pytest.approx(u**2 / 2 - u**4 / 24, abs=1e-8)

    def test_branch_seams_continuous(self):
        for seam in (0.25, 25.0, 1e7):
            lo = g_fn(seam * (1 - 1e-9))
            hi = g_fn(seam * (1 + 1e-9))
            assert hi == pytest.approx(lo, rel=1e-8, abs=1e-9)

    @pytest.mark.parametrize("u", BRANCH_GRID)
    def test_first_derivative_matches_fd(self, u):
        step = max(u, 1.0) * 1e-6
        fd = (g_fn(u + step) - g_fn(u - step)) / (2 * step)
        assert g_deriv(u, 1) == pytest.approx(fd, rel=3e-8, abs=1e-9)

    @pytest.mark.parametrize("u", BRANCH_GRID)
    def test_second_derivative_matches_fd(self, u):
        step = max(u, 1.0) * 2e-5
        fd = (g_deriv(u + step, 1) - g_deriv(u - step, 1)) / (2 * step)
        assert g_deriv(u, 2) == pytest.approx(fd, rel=2e-7, abs=1e-10)

    def test_third_derivative_matches_fd(self):
        for u in (0.4, 2.0, 30.0):
            step = max(u, 1.0) * 5e-4
            fd = (g_deriv(u + step, 2) - g_deriv(u - step, 2)) / (2 * step)
            assert g_deriv(u, 3) == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_gp_limits(self):
        # g'(u) = u - u^3/6 + ... near 0; g'(u) = 2 - 3/(2u) + ... at infinity
        assert g_deriv(1e-5, 1) == pytest.approx(1e-5, rel=1e-6)
        assert gp_minus_2(1e6) * 1e6 == pytest.approx(-1.5, rel=1e-5)

    def test_gp_minus_2_consistent(self):
        for u in (1.0, 5.0, 40.0):
            assert gp_minus_2(u) == pytest.approx(g_deriv(u, 1) - 2.0, abs=1e-12)

    def test_huge_argument_finite(self):
        # above the Bessel overflow cutoff the asymptotic branch takes over
        for u in (5e6, 1e8, 1e12):
            assert math.isfinite(g_fn(u))
            assert math.isfinite(g_deriv(u, 2))


class TestH:
    def test_zero_values(self):
        assert h_fn(0.0) == pytest.approx(0.0, abs=1e-15)
        assert h_deriv(0.0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_equals_g_below_one(self):
        for u in (0.2, 0.7, 0.999):
            assert h_fn(u) == pytest.approx(g_fn(u), abs=1e-14)

    def test_equals_g_minus_2u_above_one(self):
        for u in (1.0, 2.5, 10.0):
            assert h_fn(u) == pytest.approx(g_fn(u) - 2 * u, rel=1e-12, abs=1e-12)

    def test_jump_at_one(self):
        eps = 1e-9
        jump = h_fn(1.0 + eps) - h_fn(1.0 - eps)
        assert jump == pytest.approx(-2.0, abs=1e-6)

    def test_midpoint_bracket(self):
        # h ~ u^2/2 on (0,1): 0.5^2/16 < h(0.5) < 0.5^2/2
        val = h_fn(0.5)
        assert 0.25 / 16 < val < 0.25 / 2

    def test_order2_undefined_at_jump(self):
        with pytest.raises(DomainError):
            h_deriv(1.0, 2)
        with pytest.raises(DomainError):
            h_deriv(1.0, 3)

    def test_order2_equals_g_everywhere_else(self):
        for u in (0.5, 0.999, 1.001, 4.0):
            assert h_deriv(u, 2) == pytest.approx(g_deriv(u, 2), abs=1e-13)

    def test_negative_domain_rejected(self):
        with pytest.raises(DomainError):
            h_fn(-0.1)


class TestSeries:
    def test_zero(self):
        assert series_h_small(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_leading_coefficient_is_half(self):
        # h(u)/u^2 -> 1/2: fixes the absolute normalization of the series
        # (u small enough to isolate the leading term, large enough that
        # forming 1 + u^2/2 costs no double-rounding at this tolerance)
        u = 1e-3
        assert series_h_small(u) / u**2 == pytest.approx(0.5, rel=1e-6)

    def test_matches_h_to_1e9_on_unit_interval(self):
        for u in np.arange(0.05, 0.999, 0.05):
            assert series_h_small(float(u)) == pytest.approx(
                float(h_fn(float(u))), abs=1e-9
            ), f"u={u}"

    def test_agreement_at_half_with_six_terms(self):
        assert series_h_small(0.5, terms=6) == pytest.approx(h_fn(0.5), abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            series_h_small(1.0)
        with pytest.raises(DomainError):
            series_h_small(-0.1)


class TestOnePassSeries:
    """The one-pass series helper keeps every bit of the per-order loops."""

    def test_g_and_derivatives_match_reference_loop(self):
        u = np.random.default_rng(11).uniform(0.0, 0.25, 4000)
        ref = _ref_g_derivs(u)
        assert np.array_equal(g_fn(u), ref[0])
        for order in (1, 2, 3):
            assert np.array_equal(g_deriv(u, order), ref[order]), order
            assert np.array_equal(g_deriv(-u, order), (-1) ** order * ref[order])

    def test_fast_path_sums_match_reference_loop(self):
        for sigma in (3.0, 20.0, 150.0):
            p = primes_for(1e5)
            p = p[p > 16 * sigma].astype(float)
            ref_log, r1, r2, _ = _ref_g_derivs(sigma / p)
            log_e, mean, var = _fast_sums(p, sigma)
            assert np.array_equal(log_e, ref_log)
            assert np.array_equal(mean, 0.5 * r1 * (-2.0 * np.log1p(-1.0 / p)))
            assert np.array_equal(var, r2 / p**2)


def _ref_series_h_small(u, terms):
    s = np.zeros_like(u)
    for l in range(terms - 1, -1, -1):
        term = u ** (2 * l)
        for k in range(1, l + 1):
            term /= k * (k + 1)
        s = s + term
    return np.log(s)


def _ref_h_over_u2_small(us):
    rest = np.zeros_like(us)
    for l in range(16, 0, -1):
        term = us ** (2 * (l - 1))
        for k in range(1, l + 1):
            term /= k * (k + 1)
        rest = rest + term
    u2 = us * us
    with np.errstate(invalid="ignore"):
        ratio = np.log1p(u2 * rest) / u2
    return np.where(u2 * rest < 1e-15, rest, ratio)


def _ref_gp_over_u_small(us):
    s1u = np.zeros_like(us)
    for l in range(16, 0, -1):
        term = 2.0 * l * us ** (2 * (l - 1))
        for k in range(1, l + 1):
            term /= k * (k + 1)
        s1u = s1u + term
    return s1u / _ref_series_su(us, 0)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestSharedSeriesLoop:
    """series_h_small, h_over_u2 and gp_over_u share one series loop; each
    keeps every bit of its own former loop (these sums feed b_{j,0}, b_{j,1}
    and a_j, so a tolerance would not do)."""

    EDGES = np.array([0.0, 5e-324, 1e-300, 1e-160, 1e-8, 0.1, 0.2499999999999999])

    def grid(self, hi):
        rng = np.random.default_rng(24)
        return np.concatenate(
            [
                self.EDGES,
                rng.uniform(0.0, hi, 20_000),
                hi * 10.0 ** rng.uniform(-320.0, 0.0, 20_000),
            ]
        )

    def test_series_h_small_bits(self):
        u = np.concatenate([self.grid(1.0), [0.9999999999999999]])
        for terms in (16, 6, 1):
            got = series_h_small(u, terms)
            assert np.array_equal(_bits(got), _bits(_ref_series_h_small(u, terms)))
        assert series_h_small(0.2499999999999999) == float(
            _ref_series_h_small(np.asarray(0.2499999999999999), 16)
        )

    def test_h_over_u2_bits(self):
        u = self.grid(0.25)
        assert np.array_equal(_bits(h_over_u2(u)), _bits(_ref_h_over_u2_small(u)))

    def test_gp_over_u_bits(self):
        u = self.grid(0.25)
        assert np.array_equal(_bits(gp_over_u(u)), _bits(_ref_gp_over_u_small(u)))


class TestNormalizedForms:
    @given(st.floats(min_value=1e-8, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_h_over_u2_bracket(self, u):
        lo, hi = H_SMALL_BRACKET
        assert lo <= float(h_over_u2(u)) <= hi

    def test_h_over_u2_limit(self):
        assert float(h_over_u2(1e-12)) == pytest.approx(0.5, rel=1e-10)

    def test_h_over_u2_consistent_with_h(self):
        for u in (0.3, 0.6, 0.95):
            assert float(h_over_u2(u)) == pytest.approx(h_fn(u) / u**2, rel=1e-12)

    def test_gp_over_u_limit_and_consistency(self):
        assert float(gp_over_u(1e-12)) == pytest.approx(1.0, rel=1e-9)
        for u in (0.4, 0.9):
            assert float(gp_over_u(u)) == pytest.approx(g_deriv(u, 1) / u, rel=1e-11)

    def test_h_large_ratio_bracket(self):
        lo, hi = H_LARGE_BRACKET
        for u in (1.0, 3.0, 10.0, 100.0):
            assert lo <= float(h_fn(u)) / math.log(2 * u) <= hi


class TestWShape:
    def test_ratio_tends_to_constant(self):
        # W_j(u) e^{-2u} u^{j+3/2} approaches sqrt(pi)/2 * ... ; here only
        # stabilization matters (the bracket suite pins the range)
        vals = [w_shape_ratio(u, 0) for u in (10.0, 20.0, 40.0)]
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])

    def test_log_w_shape_matches_direct_quadrature(self):
        from eulertails.quadrature import gauss_legendre

        for u, j in ((0.5, 0), (2.0, 1), (8.0, 2)):
            direct = gauss_legendre(
                lambda t: np.exp(2 * u * np.cos(t)) * (1 - np.cos(t)) ** j
                * np.sin(t) ** 2,
                0.0,
                math.pi,
                nodes=256,
            )
            assert log_w_shape(u, j) == pytest.approx(math.log(direct), abs=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_w_shape(0.0, 0)
