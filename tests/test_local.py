"""Single Euler factor: D_p, moments E_p(s), weighted moments, derivatives.

Key dual routes exercised here: theta-integral vs u-substituted integral
for the weighted moments; Gauss-Legendre vs adaptive Simpson for every
moment operator; and the large-p closed forms against direct quadrature.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulertails.constants import FAST_PATH_CHECK_C, WEIGHTED_RATIO_C
from eulertails.errors import DomainError
from eulertails.local import (
    FAST_PATH_FACTOR,
    LocalDerivatives,
    d_p,
    local_approx,
    local_approx_all,
    local_log_derivatives,
    local_moment,
    local_moment_log,
    local_moment_weighted,
    log_d_p,
    nodes_for,
)
from eulertails.quadrature import DEFAULT_QUAD, QuadratureSpec

ADAPTIVE = QuadratureSpec(scheme="adaptive_simpson")

ORTHOGONALITY_PRIMES = (2, 3, 5, 101, 9973)


class TestDp:
    def test_min_denominator(self):
        assert d_p(2, 0.0) == pytest.approx(4.0, abs=1e-14)

    def test_max_denominator(self):
        assert d_p(3, math.pi) == pytest.approx(9.0 / 16.0, abs=1e-14)

    def test_right_angle(self):
        assert d_p(5, math.pi / 2) == pytest.approx(25.0 / 26.0, abs=1e-14)

    @given(
        st.sampled_from([2, 3, 7, 101]),
        st.floats(min_value=0.0, max_value=math.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_pointwise_bracket(self, p, theta):
        val = d_p(p, theta)
        assert (1 + 1 / p) ** -2 - 1e-12 <= val <= (1 - 1 / p) ** -2 + 1e-12

    def test_log_consistency(self):
        th = np.linspace(0, math.pi, 7)
        assert np.allclose(np.exp(log_d_p(7, th)), d_p(7, th), rtol=1e-14)


class TestNodesFor:
    @pytest.mark.parametrize("tau", [0.0, 37.5])
    @pytest.mark.parametrize("sigma", [-600.0, 0.0, 3.0, 569.0])
    def test_array_form_matches_scalar(self, sigma, tau):
        p = np.arange(2, 10_001)
        got = nodes_for(p, sigma, tau)
        assert got.dtype.kind == "i" and got.shape == p.shape
        scalar = [nodes_for(int(q), sigma, tau) for q in p]
        assert all(type(n) is int for n in scalar)
        assert got.tolist() == scalar

    def test_cap(self):
        assert nodes_for(2, 0.0, 1e9) == 20000
        assert nodes_for(np.array([2, 3]), 0.0, 1e9).tolist() == [20000, 20000]


class TestMoments:
    @pytest.mark.parametrize("p", ORTHOGONALITY_PRIMES)
    def test_orthogonality_zero_and_one(self, p):
        assert abs(local_moment(p, 0.0) - 1.0) < 1e-10
        assert abs(local_moment(p, 1.0) - 1.0) < 1e-10

    @pytest.mark.parametrize("p", (2, 5, 97))
    def test_minus_one_closed_form(self, p):
        assert local_moment(p, -1.0) == pytest.approx(1.0 + p**-2, abs=1e-12)

    def test_positive_at_p2_s3_and_scheme_agreement(self):
        a = local_moment(2, 3.0)
        b = local_moment(2, 3.0, quad=ADAPTIVE)
        assert a > 0
        assert a == pytest.approx(b, rel=1e-10)

    def test_real_s_returns_real(self):
        assert isinstance(local_moment(3, 2.0), float)
        assert isinstance(local_moment(3, 1 + 1j), complex)

    def test_complex_modulus_bound(self):
        for p in (2, 11):
            for sigma in (0.5, 4.0):
                for tau in (0.7, 5.0, 40.0):
                    ratio = abs(local_moment(p, complex(sigma, tau)))
                    assert ratio <= local_moment(p, sigma) * (1 + 1e-12)

    def test_complex_conjugate_symmetry(self):
        val = local_moment_log(5, complex(2.0, 3.0))
        conj = local_moment_log(5, complex(2.0, -3.0))
        assert val == pytest.approx(conj.conjugate(), rel=1e-12)

    def test_log_domain_no_overflow(self):
        # sigma/p = 400: natural scale would overflow e^{sigma log 4}
        lv = local_moment_log(2, 800.0)
        assert math.isfinite(lv)
        # leading term s log 4 minus an O(log s) Laplace correction
        assert 800.0 * math.log(4.0) - 20.0 < lv < 800.0 * math.log(4.0)

    def test_moment_bracket_positive_sigma(self):
        for p in (2, 17):
            for sigma in (0.5, 3.0, 20.0):
                val = local_moment_log(p, sigma)
                lo = -2 * sigma * math.log(1 + 1 / p)
                hi = -2 * sigma * math.log(1 - 1 / p)
                assert lo - 1e-10 <= val <= hi + 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            local_moment(1, 2.0)


class TestWeightedMoments:
    def test_j0_equals_moment(self):
        for p, sigma in ((2, 0.5), (17, 5.0)):
            assert local_moment_weighted(p, 0, sigma) == pytest.approx(
                local_moment(p, sigma), rel=1e-12
            )

    def test_j1_at_sigma0(self):
        # weight (1 - cos t): the cos term integrates to zero
        assert local_moment_weighted(7, 1, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", (2, 17, 1009))
    @pytest.mark.parametrize("j", (0, 1, 2))
    @pytest.mark.parametrize("sigma", (0.5, 5.0, 50.0))
    def test_route_agreement(self, p, j, sigma):
        th = local_moment_weighted(p, j, sigma, route="theta")
        u = local_moment_weighted(p, j, sigma, route="u")
        assert u == pytest.approx(th, rel=1e-8)

    def test_heavy_tilt_route_agreement(self):
        th = local_moment_weighted(101, 2, 50.0, route="theta")
        u = local_moment_weighted(101, 2, 50.0, route="u")
        assert u == pytest.approx(th, rel=1e-8)

    def test_ratio_envelope(self):
        # E_{p,j}(sigma) / E_p(sigma) <= C_j (p / sigma)^j, frozen constants
        for j, c in WEIGHTED_RATIO_C.items():
            for p in (11, 101):
                for sigma in (8.0, 40.0):
                    ratio = local_moment_weighted(p, j, sigma) / local_moment(
                        p, sigma
                    )
                    assert ratio <= c * (p / sigma) ** j * (1 + 1e-9)

    def test_unknown_route(self):
        with pytest.raises(DomainError):
            local_moment_weighted(5, 1, 1.0, route="vertex")


class TestLogDerivatives:
    def test_value_at_zero_is_one(self):
        for p in (2, 13):
            der = local_log_derivatives(p, 0.0)
            assert der.value == pytest.approx(1.0, abs=1e-12)

    def test_dlog_at_zero_closed_form(self):
        # (2/pi) int log D_2 sin^2 = -1/8: only the k=2 character survives
        der = local_log_derivatives(2, 0.0)
        assert der.dlog1 == pytest.approx(-0.125, abs=1e-10)

    def test_curvature_positive(self):
        for p, sigma in ((13, 5.0), (3, 0.5), (101, 60.0)):
            assert local_log_derivatives(p, sigma).curvature > 0

    def test_matches_finite_differences(self):
        p, sigma, step = 7, 3.0, 1e-4
        der = local_log_derivatives(p, sigma)
        lv = lambda s: local_moment_log(p, s)
        fd1 = (lv(sigma + step) - lv(sigma - step)) / (2 * step)
        fd2 = (lv(sigma + step) - 2 * lv(sigma) + lv(sigma - step)) / step**2
        assert der.dlog1 == pytest.approx(fd1, rel=1e-7)
        assert der.curvature == pytest.approx(fd2, rel=1e-5)

    def test_scheme_agreement(self):
        a = local_log_derivatives(5, 4.0)
        b = local_log_derivatives(5, 4.0, quad=ADAPTIVE)
        assert a.dlog1 == pytest.approx(b.dlog1, rel=1e-9)
        assert a.curvature == pytest.approx(b.curvature, rel=1e-8)

    def test_negative_sigma(self):
        der = local_log_derivatives(3, -2.0)
        assert der.value == pytest.approx(local_moment(3, -2.0), rel=1e-12)
        assert der.curvature > 0  # curvature is a variance for any real sigma


class TestLargePApprox:
    def test_dlog_envelope(self):
        p, sigma = 997, 100.0
        approx = local_approx(p, sigma, "dlog1")
        exact = local_log_derivatives(p, sigma).dlog1
        envelope = FAST_PATH_CHECK_C * (1 / p**2 + sigma / p**3)
        assert abs(approx - exact) <= envelope

    def test_curvature_envelope(self):
        p, sigma = 499, 200.0
        approx = local_approx(p, sigma, "curvature")
        exact = local_log_derivatives(p, sigma).curvature
        envelope = FAST_PATH_CHECK_C * min(1 / (sigma**2 * p), 1 / (sigma * p**2))
        assert abs(approx - exact) <= envelope

    def test_small_u_limit(self):
        # g'(u) -> 0 as u -> 0, so the approximation vanishes for p >> sigma
        assert abs(local_approx(10**6 + 3, 3.0, "dlog1")) < 1e-5

    def test_regime_validation(self):
        with pytest.raises(DomainError):
            local_approx(3, 100.0, "dlog1")  # p < sqrt(sigma)
        with pytest.raises(DomainError):
            local_approx(997, 1.0, "dlog1")  # sigma < 3
        with pytest.raises(DomainError):
            local_approx(997, 100.0, "hessian")

    def test_all_struct_consistent(self):
        der = local_approx_all(499, 40.0)
        assert isinstance(der, LocalDerivatives)
        assert der.dlog1 == pytest.approx(local_approx(499, 40.0, "dlog1"), rel=1e-14)
        assert der.curvature == pytest.approx(
            local_approx(499, 40.0, "curvature"), rel=1e-14
        )
        assert der.log_value != 0.0

    def test_fast_path_factor_inside_validity(self):
        # the profile splits at p > 16 max(sigma, 1): comfortably beyond the
        # p >= sqrt(sigma) validity floor of the closed forms
        assert FAST_PATH_FACTOR >= 16.0
