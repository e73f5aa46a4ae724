"""Acceptance gate: ten end-to-end criteria, one test each.

Each test prints its measured numbers (visible with -s or ``-rA``, and in
any failure report), asserts the stated tolerances, and enforces its wall
clock budget with time.monotonic(). Criteria 2 and 7 assert requirements
that the computed mathematics contradicts (the direct quadrature gives
a_1 = 2, which also shifts the doubly-logarithmic law by log 2); they are
implemented exactly as stated and fail honestly rather than being
weakened -- the failure messages carry the measured values.
"""

import math
import time

import pytest

from eulertails.cli import VERIFY_SUITES
from eulertails.coefficients import (
    a_star_coeffs,
    coefficient_a,
    coefficient_b,
    gamma0,
)
from eulertails.constants import EULER_GAMMA
from eulertails.limitshape import h_fn, series_h_small
from eulertails.local import local_moment, local_moment_weighted
from eulertails.mc import SamplerConfig, estimate_tail_plain, estimate_tail_tilted
from eulertails.profile import phi_asymptotic_remainder, phi_profile
from eulertails.saddle import saddle_expansion, solve_saddle, solve_saddle_lower
from eulertails.tails import (
    tail_perron,
    tail_saddle,
    tail_saddle_lower,
)

SEED = 20260825


class Budget:
    """Wall-clock budget; asserts on exit so slow passes still fail."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            assert self.elapsed <= self.limit, (
                f"budget exceeded: {self.elapsed:.1f}s > {self.limit:g}s"
            )
        return False


def test_criterion_01_local_moments_and_profile_vanish():
    with Budget(1.0):
        for p in (2, 3, 5, 101, 9973):
            e0 = local_moment(p, 0.0)
            e1 = local_moment(p, 1.0)
            print(f"p={p}: |E(0)-1|={abs(e0 - 1):.2e} |E(1)-1|={abs(e1 - 1):.2e}")
            assert abs(e0 - 1.0) < 1e-10
            assert abs(e1 - 1.0) < 1e-10
        for y in (50.0, 1e3):
            v = phi_profile(1.0, y).phi(0)
            print(f"phi0(1, {y:g}) = {v:.3e}")
            assert abs(v) < 1e-8


def test_criterion_02_expansion_constants_and_identities():
    with Budget(10.0):
        b12 = coefficient_b(1, 2)
        a1 = coefficient_a(1)
        a_star_1 = a_star_coeffs(strict=False)[0]
        idents = {
            j: abs(coefficient_a(j) - (coefficient_b(j, 1) - coefficient_b(j, 0)))
            for j in (1, 2, 3)
        }
        print(f"b_12 = {b12!r}, a_1 = {a1!r}, a*_1 = {a_star_1!r}")
        print("identity gaps:", {j: f"{v:.2e}" for j, v in idents.items()})
        assert abs(b12 - 2.0) < 1e-6
        assert a_star_1 == 1.0
        for j, gap in idents.items():
            assert gap < 1e-6, f"a_{j} vs b_{j},1 - b_{j},0 gap {gap:.2e}"
        # stated requirement; the direct quadrature and the b-identity both
        # give a_1 = 2, so this is expected to fail until the requirement
        # is reconciled with the computed value
        assert abs(a1 - 1.0) < 1e-6, (
            f"a_1 = {a1!r}: computed value is 2 (= b_1,1 - b_1,0 = "
            f"{coefficient_b(1, 1) - coefficient_b(1, 0)!r}), "
            "not 1 as required"
        )


def test_criterion_03_dual_route_weighted_moments_and_series():
    with Budget(5.0):
        worst = 0.0
        for j in (0, 1, 2):
            for p in (2, 17, 1009):
                for sigma in (0.5, 5.0, 50.0):
                    via_theta = local_moment_weighted(p, j, sigma, route="theta")
                    via_u = local_moment_weighted(p, j, sigma, route="u")
                    rel = abs(via_theta - via_u) / abs(via_theta)
                    worst = max(worst, rel)
                    assert rel < 1e-8, (j, p, sigma, rel)
        print(f"worst dual-route relative gap: {worst:.2e}")
        worst_series = 0.0
        for i in range(1, 20):
            u = 0.05 * i
            gap = abs(series_h_small(u) - h_fn(u))
            worst_series = max(worst_series, gap)
            assert gap < 1e-9, (u, gap)
        print(f"worst series-vs-h gap on (0,1): {worst_series:.2e}")


def test_criterion_04_saddle_certificates_and_expansion_decay():
    with Budget(30.0):
        max_res, max_iter = 0.0, 0
        for i in range(15):
            t = 1.0 + 0.5 * i
            for scale in (1, 10):
                y = math.ceil(2 * math.exp(t)) * scale
                sol = solve_saddle(t, y)
                max_res = max(max_res, abs(sol.residual))
                max_iter = max(max_iter, sol.iterations)
                assert abs(sol.residual) <= 1e-10, (t, y, sol.residual)
                assert sol.iterations <= 8, (t, y, sol.iterations)
                assert math.exp(t) / 8 <= sol.kappa <= 8 * math.exp(t)
        print(f"grid: max residual {max_res:.2e}, max iterations {max_iter}")
        errs = []
        for t in (4.0, 5.0, 6.0, 7.0, 8.0):
            kappa = solve_saddle(t, 1e5).kappa
            errs.append(abs(saddle_expansion(t, 1e5, J=2) - kappa) / kappa)
        print("J=2 expansion rel errors:", [f"{e:.4f}" for e in errs])
        assert all(a > b for a, b in zip(errs, errs[1:])), errs


def test_criterion_05_plain_monte_carlo_against_saddle_and_contour():
    with Budget(120.0):
        for t, y in ((1.5, 30.0), (2.0, 50.0), (2.5, 80.0)):
            sol = solve_saddle(t, y)
            saddle = tail_saddle(t, y, solution=sol)
            ref = math.exp(saddle.log_value)
            cfg = SamplerConfig(seed=SEED, n_samples=1_000_000, y=y)
            est = estimate_tail_plain(t, cfg)
            lo_est, up_est = tail_perron(t, y, solution=sol)
            fuzz = 2.0 * saddle.error_indicator
            if est.advisory == "zero_hits_95_bound":
                expected_hits = ref * cfg.n_samples
                print(
                    f"({t},{y:g}): zero hits, bound {est.mean:.3e} vs "
                    f"ref {ref:.3e} (expected hits {expected_hits:.3f})"
                )
                # zero hits is itself the consistency check when the
                # expected count is small; the 95% bound must cover ref
                assert expected_hits < 10.0
                assert est.mean >= ref
                assert est.mean >= math.exp(up_est.log_value - fuzz)
            else:
                z = (est.mean - ref) / est.stderr
                print(
                    f"({t},{y:g}): p={est.mean:.4e}±{est.stderr:.1e} "
                    f"ref={ref:.4e} z={z:+.2f}"
                )
                assert abs(z) <= 4.0
                # contour value V: saddle(t) <= V <= saddle(t') and the MC
                # interval must reach it
                shifted = tail_saddle(lo_est.t, y)
                assert saddle.log_value - fuzz <= up_est.log_value
                assert up_est.log_value <= shifted.log_value + fuzz
                assert est.mean + 4 * est.stderr >= math.exp(saddle.log_value - fuzz)
                assert est.mean - 4 * est.stderr <= math.exp(shifted.log_value + fuzz)


def test_criterion_06_tilted_monte_carlo_at_large_threshold():
    with Budget(60.0):
        t, y = 4.0, 200.0
        sol = solve_saddle(t, y)
        ref = tail_saddle(t, y, solution=sol).log_value
        cfg = SamplerConfig(seed=SEED, n_samples=100_000, y=y)
        est = estimate_tail_tilted(t, sol.kappa, cfg)
        z = (est.mean - ref) / est.stderr
        print(f"tilted ({t},{y:g}): log p = {est.mean:.5f}±{est.stderr:.5f} "
              f"ref {ref:.5f} z={z:+.2f}")
        assert est.log_domain
        assert abs(z) <= 4.0


def test_perron_at_t6_y1e3_within_budget():
    # a 16384-node angular rule, sized for the full 20 sqrt(kappa) log kappa
    # cap, takes 6 s to build on 2 vCPUs; the contour sizes its rules for the
    # trapezoid grid's extent instead and takes about 0.1 s
    with Budget(10.0):
        lo_est, up_est = tail_perron(6.0, 1e3)
        print(f"perron (6,1e3): log V = {up_est.log_value:.6f}")
        assert lo_est.log_value == up_est.log_value < 0.0


def test_criterion_07_doubly_logarithmic_law():
    with Budget(60.0):
        offsets = {}
        for t in (3.0, 4.0, 5.0, 6.0):
            est = tail_saddle(t, 1e4)
            lhs = math.log(-est.log_value)
            rhs = t - gamma0() - math.log(t)
            offsets[t] = lhs - rhs
        print("log(-log Phi) - (t - gamma0 - log t):",
              {t: f"{v:+.4f}" for t, v in offsets.items()})
        for t, off in offsets.items():
            # stated bound; the computed a_1 = 2 shifts the law by
            # log 2 + O(1/t) ~ 1.08..1.14 on this grid, so this fails
            # until the requirement is reconciled with the computed a_1
            assert abs(off) <= 1.0, (
                f"t={t}: offset {off:+.4f} exceeds 1 (grid offsets: "
                + ", ".join(f"{k}:{v:+.4f}" for k, v in offsets.items())
                + "; consistent with a log 2 shift from a_1 = 2)"
            )


def test_criterion_08_profile_asymptotics_at_large_y():
    with Budget(120.0):
        b11 = coefficient_b(1, 1)
        for sigma in (50.0, 200.0, 1e3):
            phi1 = phi_profile(sigma, 1e6).phi(1)
            approx = (
                2 * math.log(math.log(sigma)) + 2 * EULER_GAMMA
                + b11 / math.log(sigma)
            )
            budget = 20.0 * phi_asymptotic_remainder(sigma, 1e6, 1, 1)
            gap = abs(phi1 - approx)
            print(f"sigma={sigma:g}: |phi1 - expansion| = {gap:.5f} "
                  f"(allowed {budget:.5f})")
            assert gap <= budget, (sigma, gap, budget)
        curv = phi_profile(1e3, 1e6).phi(2) * 1e3 * math.log(1e3)
        print(f"phi2 * sigma * log sigma at sigma=1e3: {curv:.4f}")
        assert 1.0 <= curv <= 4.0


def test_criterion_09_invariant_suites():
    with Budget(120.0):
        failures = []
        for suite, runner in VERIFY_SUITES.items():
            for name, ok, detail in runner():
                status = "PASS" if ok else "FAIL"
                print(f"{status} [{suite}] {name} ({detail})")
                if not ok:
                    failures.append((suite, name, detail))
        assert not failures, failures


def test_criterion_10_lower_tail_routes_and_monotonicity():
    with Budget(60.0):
        t, y = 1.5, 50.0
        ref = math.exp(tail_saddle_lower(t, y).log_value)
        cfg = SamplerConfig(seed=SEED, n_samples=1_000_000, y=y)
        est = estimate_tail_plain(t, cfg, tail="lower")
        z = (est.mean - ref) / est.stderr
        print(f"lower ({t},{y:g}): p={est.mean:.5e}±{est.stderr:.1e} "
              f"ref={ref:.5e} z={z:+.2f}")
        assert abs(z) <= 4.0
        vals = [
            tail_saddle_lower(tt, 1e3).log_value for tt in (1.5, 2.0, 2.5, 3.0)
        ]
        print("log Psi on t grid:", [f"{v:.4f}" for v in vals])
        assert all(a >= b for a, b in zip(vals, vals[1:]))
