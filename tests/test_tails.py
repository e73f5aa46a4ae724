"""Tail probabilities by saddle, expansion, and smoothed contour routes.

FROZEN_* values are independent oracles for log Phi / log Psi (50-digit
profile evaluations pushed through the same formulas, rounded to 5
decimals). The three routes must also agree with each other within their
own error indicators -- that cross-validation is the point of the module.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from test_acceptance import Budget

from eulertails.errors import AccuracyError, ConsistencyError, DomainError
from eulertails.profile import MomentLine
from eulertails.saddle import solve_saddle, solve_saddle_lower
from eulertails.tails import (
    SmoothingParams,
    TailEstimate,
    Y_INF_FACTOR,
    _resolve_params,
    default_smoothing,
    smoothing_kernel,
    tail_expansion,
    tail_perron,
    tail_perron_lower,
    tail_saddle,
    tail_saddle_lower,
)

FROZEN_LOG_PHI_SADDLE = {
    (1.5, 30.0): -7.17568,
    (2.0, 50.0): -11.51328,
    (2.5, 80.0): -17.29464,
    (4.0, 200.0): -54.26852,
}
FROZEN_LOG_PHI_PERRON = {
    (1.5, 30.0): -7.00710,
    (2.0, 50.0): -11.33975,
    (2.5, 80.0): -17.11446,
}
FROZEN_LOG_PSI_SADDLE = -2.13656  # (t, y) = (1.5, 50)
FROZEN_LOG_PSI_PERRON = -2.04353


class TestTailEstimate:
    def _make(self, **kw):
        base = dict(
            t=2.0,
            y=50.0,
            tail="upper",
            log_value=-3.0,
            method="perron",
            error_indicator=0.1,
        )
        base.update(kw)
        return TailEstimate(**base)

    def test_positive_log_value_rejected(self):
        with pytest.raises(ConsistencyError):
            self._make(log_value=0.5)

    def test_tiny_positive_fuzz_tolerated(self):
        assert self._make(log_value=5e-10).log_value == pytest.approx(5e-10)

    def test_vocabulary(self):
        with pytest.raises(DomainError):
            self._make(tail="middle")
        with pytest.raises(DomainError):
            self._make(method="divination")

    def test_numpy_scalars_normalized(self):
        est = self._make(
            log_value=np.float64(-3.0), error_indicator=np.float64(0.1)
        )
        assert type(est.log_value) is float
        assert type(est.error_indicator) is float


class TestSmoothing:
    def test_defaults(self):
        params = default_smoothing(2.0)
        assert params.lam == pytest.approx(0.25 * math.exp(-2.0), rel=1e-15)
        assert params.N == 1 and params.tau_max is None

    def test_validation(self):
        with pytest.raises(DomainError):
            SmoothingParams(lam=0.0)
        with pytest.raises(DomainError):
            SmoothingParams(lam=0.1, N=0)
        with pytest.raises(DomainError):
            SmoothingParams(lam=0.1, tau_max=-1.0)

    def test_kernel_series_matches_exact_form(self):
        params = SmoothingParams(lam=1.0, N=2)
        for x in (5e-5, 2e-4, 0.3):  # straddles the series/exact switch
            val = smoothing_kernel(complex(x), params)
            exact = (math.expm1(x) / x) ** 2
            assert val.real == pytest.approx(exact, rel=1e-8)
            assert val.imag == 0.0

    def test_kernel_at_origin_is_one(self):
        assert smoothing_kernel(0j, SmoothingParams(lam=0.5, N=3)) == 1.0


class TestSaddleUpper:
    @pytest.mark.parametrize("key", sorted(FROZEN_LOG_PHI_SADDLE))
    def test_frozen_oracles(self, key):
        t, y = key
        est = tail_saddle(t, y)
        assert est.log_value == pytest.approx(
            FROZEN_LOG_PHI_SADDLE[key], abs=2e-5
        )
        assert est.tail == "upper" and est.method == "saddle_gauss"

    def test_asymptotic_mode_structure(self):
        # phi_0 - kappa * target - log kappa - (1/2) log(2 pi phi_2), exactly
        t, y = 2.0, 50.0
        sol = solve_saddle(t, y)
        est = tail_saddle(t, y, mode="asymptotic", solution=sol)
        prof = sol.profile_at_kappa
        expected = (
            prof.phi(0)
            - sol.kappa * sol.target
            - sol.log_kappa
            - 0.5 * math.log(2 * math.pi * prof.phi(2))
        )
        assert est.log_value == pytest.approx(expected, abs=1e-12)

    def test_refined_within_asymptotic_indicator(self):
        for t, y in ((1.5, 30.0), (4.0, 200.0)):
            r = tail_saddle(t, y, mode="refined")
            a = tail_saddle(t, y, mode="asymptotic")
            assert abs(r.log_value - a.log_value) <= a.error_indicator
            assert r.error_indicator < a.error_indicator

    def test_shared_solution_reused(self):
        sol = solve_saddle(2.0, 50.0)
        assert tail_saddle(2.0, 50.0, solution=sol).log_value == (
            tail_saddle(2.0, 50.0).log_value
        )

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            tail_saddle(2.0, 50.0, mode="heuristic")


class TestExpansionUpper:
    def test_values_deepen_monotonically(self):
        vals = [tail_expansion(6.0, J=J).log_value for J in (1, 2, 3, 4)]
        errs = [tail_expansion(6.0, J=J).error_indicator for J in (1, 2, 3, 4)]
        assert vals == sorted(vals, reverse=True)  # each term is negative
        assert errs == sorted(errs, reverse=True)

    @pytest.mark.parametrize("t", (4.0, 6.0, 8.0))
    def test_routes_agree_within_indicators(self, t):
        series = tail_expansion(t, J=4, route="saddle_series")
        comp = tail_expansion(t, J=2, route="t_series", coeff_source="composed")
        gap = abs(series.log_value - comp.log_value)
        assert gap <= 2.0 * (series.error_indicator + comp.error_indicator)

    def test_closed_form_coefficients_halve_leading_term(self):
        # closed-form a*_1 = 1 vs composed a*_1 = 2: factor ~2 at J = 1
        comp = tail_expansion(6.0, J=1, route="t_series")
        closed = tail_expansion(
            6.0, J=1, route="t_series", coeff_source="closed_form"
        )
        assert comp.log_value / closed.log_value == pytest.approx(2.0, rel=1e-6)

    def test_finite_y_matches_infinite_y_when_large(self):
        big = tail_expansion(4.0, y=1e6, J=3)
        inf = tail_expansion(4.0, J=3)
        assert big.log_value == pytest.approx(inf.log_value, rel=1e-3)

    def test_tracks_saddle_route(self):
        t, y = 6.0, 1e5
        series = tail_expansion(t, y=y, J=4)
        direct = tail_saddle(t, y)
        assert abs(series.log_value - direct.log_value) <= (
            series.error_indicator + direct.error_indicator
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            tail_expansion(4.0, J=5)
        with pytest.raises(DomainError):
            tail_expansion(4.0, J=3, route="t_series")
        with pytest.raises(DomainError):
            tail_expansion(4.0, route="oracle")
        with pytest.raises(DomainError):
            tail_expansion(4.0, route="t_series", coeff_source="guessed")


class TestPerronUpper:
    @pytest.mark.parametrize("key", sorted(FROZEN_LOG_PHI_PERRON))
    def test_frozen_oracles(self, key):
        t, y = key
        _, upper = tail_perron(t, y)
        assert upper.log_value == pytest.approx(
            FROZEN_LOG_PHI_PERRON[key], abs=2e-5
        )
        assert upper.method == "perron"

    @pytest.mark.parametrize("lam_scale", (0.25, 0.0625))
    def test_sandwich_against_saddle(self, lam_scale):
        t, y = 2.0, 50.0
        params = SmoothingParams(lam=lam_scale * math.exp(-t))
        lo_est, up_est = tail_perron(t, y, params=params)
        assert lo_est.log_value == up_est.log_value  # same V, two readings
        assert lo_est.t == pytest.approx(
            t * math.exp(-0.5 * params.lam), rel=1e-14
        )
        at_t = tail_saddle(t, y)
        at_shift = tail_saddle(lo_est.t, y)
        fuzz = 2.0 * at_t.error_indicator
        assert at_t.log_value - fuzz <= up_est.log_value
        assert up_est.log_value <= at_shift.log_value + fuzz

    def test_kernel_power_shares_bandwidth(self):
        # N = 2 with lambda/2 has the same lambda*N: same shifted t'
        t, y = 2.0, 50.0
        single = tail_perron(t, y, params=SmoothingParams(lam=0.25 * math.exp(-t)))
        double = tail_perron(
            t, y, params=SmoothingParams(lam=0.125 * math.exp(-t), N=2)
        )
        assert double[0].t == pytest.approx(single[0].t, rel=1e-14)
        assert double[1].log_value == pytest.approx(
            single[1].log_value, abs=0.05
        )

    def test_bandwidth_cap(self):
        with pytest.raises(DomainError, match="lambda"):
            tail_perron(2.0, 50.0, params=SmoothingParams(lam=1.0))

    def test_truncation_guard(self):
        params = SmoothingParams(lam=0.25 * math.exp(-2.0), tau_max=3.0)
        with Budget(10.0), pytest.raises(AccuracyError, match="truncation"):
            tail_perron(2.0, 50.0, params=params)


@pytest.mark.parametrize(
    "tail,t,y",
    [
        ("upper", 2.0, 50.0),
        ("upper", 1.5, 30.0),
        ("lower", 1.5, 30.0),
        ("lower", 2.0, 50.0),
    ],
)
def test_perron_trapezoid_matches_adaptive_quad(tail, t, y):
    # the same integrand, built through MomentLine.__call__ and integrated
    # by QUADPACK over [0, tau_max]
    sign = -1.0 if tail == "lower" else 1.0
    sol = solve_saddle(t, y, tail=tail)
    params = _resolve_params(t, sol.kappa, None)
    line = MomentLine(sign * sol.kappa, y, tau_max=params.tau_max)

    def integrand(tau):
        s = sol.kappa + 1j * tau
        lam = line(np.asarray([sign * tau]))[0]
        val = np.exp(lam + sign * 1j * tau * sol.residual)
        return (val * smoothing_kernel(s, params) / s).real

    total, _ = quad(integrand, 0.0, params.tau_max, epsabs=0.0, epsrel=1e-13, limit=500)
    prof = sol.profile_at_kappa
    expected = (
        prof.values[0] - sign * sol.kappa * sol.target + math.log(total / math.pi)
    )
    pair = tail_perron(t, y, solution=sol, tail=tail)
    assert pair[1].log_value == pytest.approx(expected, abs=1e-10)


class TestLowerTail:
    def test_frozen_saddle(self):
        est = tail_saddle_lower(1.5, 50.0)
        assert est.log_value == pytest.approx(FROZEN_LOG_PSI_SADDLE, abs=2e-5)
        assert est.tail == "lower"

    def test_frozen_perron_and_sandwich(self):
        lo_est, up_est = tail_perron_lower(1.5, 50.0)
        assert up_est.log_value == pytest.approx(
            FROZEN_LOG_PSI_PERRON, abs=2e-5
        )
        at_t = tail_saddle_lower(1.5, 50.0)
        at_shift = tail_saddle_lower(lo_est.t, 50.0)
        fuzz = 2.0 * at_t.error_indicator
        assert at_t.log_value - fuzz <= up_est.log_value
        assert up_est.log_value <= at_shift.log_value + fuzz

    def test_monotone_in_t(self):
        vals = [tail_saddle_lower(t, 200.0).log_value for t in (1.5, 2.0, 2.5)]
        assert vals == sorted(vals, reverse=True)

    def test_variants_bundle(self):
        # both lower-tail routes from one saddle solve
        sol = solve_saddle(1.5, 50.0, tail="lower")
        est = tail_saddle(1.5, 50.0, solution=sol, tail="lower")
        assert est.tail == "lower"
        assert est.log_value == pytest.approx(FROZEN_LOG_PSI_SADDLE, abs=2e-5)
        lo_est, up_est = tail_perron(1.5, 50.0, solution=sol, tail="lower")
        assert lo_est.log_value == up_est.log_value
        assert up_est.log_value == pytest.approx(FROZEN_LOG_PSI_PERRON, abs=2e-5)


class TestTailArgument:
    """One ``tail=`` argument; the *_lower names are aliases of it."""

    @pytest.mark.parametrize("t,y", [(1.5, 50.0), (3.0, 1e3)])
    def test_aliases_are_the_lower_tail(self, t, y):
        sol = solve_saddle(t, y, tail="lower")
        assert repr(sol) == repr(solve_saddle_lower(t, y))
        assert repr(tail_saddle(t, y, tail="lower")) == repr(tail_saddle_lower(t, y))
        asym = tail_saddle(t, y, mode="asymptotic", solution=sol, tail="lower")
        assert repr(asym) == repr(tail_saddle_lower(t, y, "asymptotic", sol))
        assert repr(tail_perron(t, y, tail="lower")) == repr(tail_perron_lower(t, y))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: solve_saddle(2.0, 50.0, tail="both"),
            lambda: tail_saddle(2.0, 50.0, tail="Upper"),
            lambda: tail_perron(2.0, 50.0, tail="lower_"),
            lambda: tail_saddle(2.0, 50.0, solution=solve_saddle(2.0, 50.0), tail="mid"),
        ],
    )
    def test_unknown_tail_rejected(self, call):
        with pytest.raises(DomainError, match="tail must be one of"):
            call()


class TestForeignSolution:
    """A ``solution=`` of another point or tail is rejected, not used."""

    @pytest.fixture(scope="class")
    def sols(self):
        return {
            "lower": solve_saddle_lower(3.0, 1e4),
            "point": solve_saddle(2.0, 50.0),
            "upper": solve_saddle(3.0, 1e4),
        }

    @pytest.mark.parametrize("wrong", ["lower", "point"])
    def test_tail_saddle(self, sols, wrong):
        assert tail_saddle(3.0, 1e4, solution=sols["upper"]).t == 3.0
        with pytest.raises(DomainError, match="solution="):
            tail_saddle(3.0, 1e4, solution=sols[wrong])

    @pytest.mark.parametrize("wrong", ["lower", "point"])
    def test_tail_perron(self, sols, wrong):
        with pytest.raises(DomainError, match="solution="):
            tail_perron(3.0, 1e4, solution=sols[wrong])

    @pytest.mark.parametrize("wrong", ["lower", "point"])
    def test_tail_expansion(self, sols, wrong):
        assert tail_expansion(3.0, 1e4, solution=sols["upper"]).t == 3.0
        with pytest.raises(DomainError, match="solution="):
            tail_expansion(3.0, 1e4, solution=sols[wrong])

    def test_expansion_at_infinity_matches_y_eff(self):
        sol = solve_saddle(2.0, Y_INF_FACTOR * math.exp(2.0))
        assert repr(tail_expansion(2.0, solution=sol)) == repr(tail_expansion(2.0))
        with pytest.raises(DomainError, match="solution="):
            tail_expansion(2.0, solution=solve_saddle(2.0, 50.0))

    def test_upper_solution_passed_to_lower_alias(self, sols):
        with pytest.raises(DomainError, match="upper-tail saddle at"):
            tail_saddle_lower(3.0, 1e4, solution=sols["upper"])
        with pytest.raises(DomainError, match="solution="):
            tail_perron_lower(3.0, 1e4, solution=sols["upper"])
