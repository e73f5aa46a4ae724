"""Saddle equation phi_1(+-kappa, y) = target: solver and expansion.

FROZEN_KAPPA values are an independent oracle (50-digit tanh-sinh
evaluation of phi_1 plus bisection to 30 digits, rounded to 6 decimals).
"""

import math

import pytest

from eulertails.coefficients import gamma0, kappa_expansion_coeffs
from eulertails.constants import (
    EULER_GAMMA,
    LOG_ZETA2,
    SADDLE_BRACKET,
    T_SUPPORTED,
)
from eulertails.errors import ConsistencyError, DomainError, RegimeError
from eulertails.profile import phi_profile
from eulertails.saddle import (
    _newton,
    lower_target,
    saddle_expansion,
    solve_saddle,
    solve_saddle_lower,
    upper_target,
)

FROZEN_KAPPA = {
    (1.5, 30.0): 5.608243,
    (2.0, 50.0): 9.799170,
    (2.5, 80.0): 16.836498,
    (4.0, 200.0): 86.670906,
}
FROZEN_KAPPA_LOWER = {(1.5, 50.0): 2.486801}


class TestTargets:
    def test_upper_target(self):
        assert upper_target(1.0) == pytest.approx(2 * EULER_GAMMA, rel=1e-15)
        assert upper_target(4.0) == pytest.approx(
            2 * (math.log(4.0) + EULER_GAMMA), rel=1e-15
        )

    def test_lower_target(self):
        assert lower_target(1.0) == pytest.approx(
            -2 * (EULER_GAMMA - LOG_ZETA2), rel=1e-15
        )
        assert lower_target(3.0) < lower_target(2.0) < lower_target(1.0)


class TestUpperSolve:
    @pytest.mark.parametrize("key", sorted(FROZEN_KAPPA))
    def test_frozen_oracles(self, key):
        t, y = key
        sol = solve_saddle(t, y)
        assert sol.kappa == pytest.approx(FROZEN_KAPPA[key], abs=2e-6)

    @pytest.mark.parametrize("t", (1.0, 2.5, 5.0))
    @pytest.mark.parametrize("scale", (1, 10))
    def test_certificate_on_grid(self, t, scale):
        y = math.ceil(2 * math.exp(t)) * scale
        sol = solve_saddle(t, y)
        assert abs(sol.residual) <= 1e-10
        assert sol.iterations <= 8
        assert math.exp(t) / 8 <= sol.kappa <= 8 * math.exp(t)
        assert sol.bracket == (
            SADDLE_BRACKET[0] * math.exp(t),
            SADDLE_BRACKET[1] * math.exp(t),
        )
        assert sol.log_kappa == pytest.approx(math.log(sol.kappa), rel=1e-15)
        assert not sol.lower

    def test_solution_solves_the_equation(self):
        sol = solve_saddle(2.0, 50.0)
        phi1 = phi_profile(sol.kappa, 50.0).phi(1)
        assert phi1 == pytest.approx(upper_target(2.0), abs=1e-10)
        assert sol.profile_at_kappa.sigma == sol.kappa
        assert sol.profile_at_kappa.phi(2) > 0

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            solve_saddle(0.5, 1000.0)  # below T_SUPPORTED
        with pytest.raises(RegimeError):
            solve_saddle(T_SUPPORTED[1] + 1.0, 1e9)
        with pytest.raises(RegimeError):
            solve_saddle(3.0, 30.0)  # y < 2 e^t


class TestLowerSolve:
    def test_frozen_oracle(self):
        sol = solve_saddle_lower(1.5, 50.0)
        assert sol.kappa == pytest.approx(
            FROZEN_KAPPA_LOWER[(1.5, 50.0)], abs=2e-6
        )
        assert sol.lower
        assert abs(sol.residual) <= 1e-10
        assert sol.profile_at_kappa.sigma == -sol.kappa

    def test_solves_mirrored_equation(self):
        sol = solve_saddle_lower(2.0, 60.0)
        phi1 = phi_profile(-sol.kappa, 60.0).phi(1)
        assert phi1 == pytest.approx(lower_target(2.0), abs=1e-10)

    def test_bulk_threshold_is_rejected(self):
        # at t = 1 the lower threshold exceeds the untilted mean phi_1(0, y)
        with pytest.raises(RegimeError, match="bulk"):
            solve_saddle_lower(1.0, 50.0)

    def test_kappa_increases_with_t(self):
        k = [solve_saddle_lower(t, 200.0).kappa for t in (1.5, 2.0, 2.5)]
        assert k[0] < k[1] < k[2]


class TestExpansion:
    def test_leading_term(self):
        assert saddle_expansion(3.0, 1e5, J=0) == pytest.approx(
            math.exp(3.0 - gamma0()), rel=1e-14
        )

    def test_relative_error_decreases_in_t(self):
        errs = []
        for t in (4.0, 5.0, 6.0):
            kappa = solve_saddle(t, 1e5).kappa
            approx = saddle_expansion(t, 1e5, J=2)
            errs.append(abs(approx - kappa) / kappa)
        assert errs[0] > errs[1] > errs[2]

    def test_expansion_error_tracks_first_omitted_term(self):
        # J = 2 drops gamma_3 / t^3 first; the true error stays within a
        # small factor of it (the series coefficients grow, so the bare
        # 1/t^3 remainder shape would undercount)
        t, y = 5.0, 1e5
        kappa = solve_saddle(t, y).kappa
        rel = abs(saddle_expansion(t, y, J=2) - kappa) / kappa
        first_omitted = abs(kappa_expansion_coeffs(3)[2]) / t**3
        assert rel <= 3.0 * first_omitted

    def test_domain(self):
        with pytest.raises(DomainError):
            saddle_expansion(3.0, 1e5, J=5)
        with pytest.raises(DomainError):
            saddle_expansion(0.0, 1e5)


class TestNewton:
    """The safeguarded solver on synthetic increasing functions."""

    @staticmethod
    def counted(f, fprime):
        calls = []

        def eval_f(kappa):
            calls.append(kappa)
            return f(kappa), fprime, None

        return calls, eval_f

    def test_converging_solve_skips_bracket_ends(self):
        calls, eval_f = self.counted(lambda k: k - 0.3, 1.0)
        kappa, _, f, iters = _newton(0.0, 1.0, 0.5, 1e-12, eval_f)
        assert kappa == pytest.approx(0.3, abs=1e-12)
        assert abs(f) <= 1e-12
        assert len(calls) == iters + 1
        assert 0.0 not in calls and 1.0 not in calls

    def test_no_root_in_bracket(self):
        calls, eval_f = self.counted(lambda k: k + 1.0, 1.0)
        with pytest.raises(ConsistencyError, match="no sign change"):
            _newton(0.0, 1.0, 0.5, 1e-12, eval_f)
        assert calls[-2:] == [0.0, 1.0]

    def test_unreached_tolerance_with_sign_change(self):
        # a derivative far too small sends every step out of the bracket,
        # and 30 bisections cannot reach |f| <= 1e-15
        calls, eval_f = self.counted(lambda k: k - 1.0 / 3.0, 1e-6)
        with pytest.raises(ConsistencyError, match="did not reach"):
            _newton(0.0, 1.0, 0.5, 1e-15, eval_f)
        assert calls[-2:] == [0.0, 1.0]
