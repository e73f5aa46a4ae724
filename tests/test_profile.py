"""Aggregated moment profile phi_n(sigma, y), its asymptotics, and the
complex continuation along vertical lines.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eulertails import profile
from eulertails.coefficients import coefficient_b
from eulertails.constants import CHUNK_DOUBLES, EULER_GAMMA
from eulertails.errors import DomainError
from eulertails.local import local_moment_log, nodes_for
from eulertails.primes import primes_for
from eulertails.profile import (
    MomentLine,
    _bucket_sums,
    _bucket_tables,
    _chunks,
    _layout,
    decay_ratio_check,
    moment_complex,
    phi_asymptotic,
    phi_asymptotic_remainder,
    phi_profile,
)
from eulertails.quadrature import DEFAULT_QUAD, QuadratureSpec

ADAPTIVE = QuadratureSpec(scheme="adaptive_simpson")

# fast path vs all-quadrature relative gaps measured at sigma=50, y=1e4,
# frozen with a factor-2 margin
FAST_PATH_GAPS = {0: 5.2e-5, 1: 4.3e-5, 2: 1.3e-6}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestPhiProfile:
    @pytest.mark.parametrize("y", (50.0, 1000.0))
    def test_phi0_at_zero_tilt_is_exact_zero(self, y):
        assert phi_profile(0.0, y).phi(0) == 0.0

    @pytest.mark.parametrize("y", (50.0, 1000.0))
    def test_phi0_at_unit_tilt_vanishes(self, y):
        assert abs(phi_profile(1.0, y).phi(0)) < 1e-8

    def test_phi1_at_zero_closed_form(self):
        # sum over p <= 10 of -1/(2 p^2): see the p = 2 local closed form
        expected = -0.5 * (1 / 4 + 1 / 9 + 1 / 25 + 1 / 49)
        assert phi_profile(0.0, 10.0).phi(1) == pytest.approx(
            expected, abs=1e-10
        )

    def test_additive_over_prime_ranges(self):
        lo = phi_profile(2.0, 50.0, fast_path=False)
        hi = phi_profile(2.0, 200.0, fast_path=False)
        gap = math.fsum(
            local_moment_log(int(p), 2.0)
            for p in primes_for(200.0)
            if p > 50
        )
        assert hi.phi(0) == pytest.approx(lo.phi(0) + gap, rel=1e-12)

    @pytest.mark.parametrize("sigma", (-2.0, 0.5, 3.0, 20.0))
    def test_curvature_positive(self, sigma):
        assert phi_profile(sigma, 100.0).phi(2) > 0

    def test_fast_path_matches_quadrature(self):
        fast = phi_profile(50.0, 1e4, fast_path=True)
        slow = phi_profile(50.0, 1e4, fast_path=False)
        for n, cap in FAST_PATH_GAPS.items():
            rel = abs(fast.phi(n) - slow.phi(n)) / abs(slow.phi(n))
            assert rel < cap

    def test_scheme_agreement_small_y(self):
        gl = phi_profile(1.5, 50.0)
        ad = phi_profile(1.5, 50.0, quad=ADAPTIVE)
        for n in (0, 1, 2):
            assert gl.phi(n) == pytest.approx(ad.phi(n), rel=1e-9)

    def test_higher_orders_by_differencing(self):
        prof = phi_profile(2.0, 100.0, max_order=4)
        assert math.isfinite(prof.phi(3)) and math.isfinite(prof.phi(4))
        # compare order 3 against an independent central difference of phi2
        step = 0.05
        fd = (
            phi_profile(2.0 + step, 100.0).phi(2)
            - phi_profile(2.0 - step, 100.0).phi(2)
        ) / (2 * step)
        assert prof.phi(3) == pytest.approx(fd, rel=1e-3)

    def test_orders_beyond_request_are_nan(self):
        prof = phi_profile(1.0, 50.0, max_order=2)
        assert math.isnan(prof.phi(3)) and math.isnan(prof.phi(4))

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_profile(1.0, 1.5)
        with pytest.raises(DomainError):
            phi_profile(1.0, 50.0, max_order=5)
        with pytest.raises(DomainError):
            phi_profile(1.0, 50.0).phi(7)


class TestAsymptotic:
    def test_phi1_expansion_tracks_profile(self):
        sigma, y = 50.0, 1e5
        measured = phi_profile(sigma, y).phi(1)
        expansion = phi_asymptotic(sigma, y, 1, 1)
        budget = 20.0 * phi_asymptotic_remainder(sigma, y, 1, 1)
        assert abs(measured - expansion) <= budget

    def test_expansion_shapes(self):
        sigma, y = 100.0, 1e6
        log_s = math.log(sigma)
        base = 2 * math.log(log_s) + 2 * EULER_GAMMA
        assert phi_asymptotic(sigma, y, 1, 2) == pytest.approx(
            base
            + coefficient_b(1, 1) / log_s
            + coefficient_b(2, 1) / log_s**2,
            rel=1e-13,
        )
        assert phi_asymptotic(sigma, y, 0, 1) == pytest.approx(
            sigma * (base + coefficient_b(1, 0) / log_s), rel=1e-13
        )
        assert phi_asymptotic(sigma, y, 2, 1) == pytest.approx(
            coefficient_b(1, 2) / (sigma * log_s), rel=1e-13
        )

    def test_remainder_shrinks_with_depth(self):
        r = [phi_asymptotic_remainder(1e3, 1e9, 1, J) for J in (1, 2, 3)]
        assert r[0] > r[1] > r[2] > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_asymptotic(2.0, 1e6, 1, 1)  # sigma < 3
        with pytest.raises(DomainError):
            phi_asymptotic(50.0, 10.0, 1, 1)  # y < sigma
        with pytest.raises(DomainError):
            phi_asymptotic(50.0, 1e6, 3, 1)
        with pytest.raises(DomainError):
            phi_asymptotic(50.0, 1e6, 1, 6)


class TestMomentComplex:
    def test_zero_is_zero(self):
        assert moment_complex(0.0, 50.0) == 0.0

    def test_real_axis_matches_profile(self):
        val = moment_complex(2.5 + 0j, 200.0)
        assert val.imag == 0.0
        assert val.real == pytest.approx(
            phi_profile(2.5, 200.0, fast_path=False).phi(0), rel=1e-12
        )

    def test_conjugate_symmetry(self):
        a = moment_complex(1.5 + 2.0j, 50.0)
        b = moment_complex(1.5 - 2.0j, 50.0)
        assert b == pytest.approx(a.conjugate(), rel=1e-10)

    def test_modulus_bounded_by_real_axis(self):
        phi0 = phi_profile(3.0, 100.0).phi(0)
        for tau in (0.5, 4.0, 30.0):
            assert moment_complex(3.0 + 1j * tau, 100.0).real <= phi0 + 1e-12

    def test_small_tau_taylor(self):
        sigma, y, tau = 2.0, 50.0, 1e-3
        prof = phi_profile(sigma, y, fast_path=False)
        val = moment_complex(complex(sigma, tau), y)
        assert val.imag == pytest.approx(tau * prof.phi(1), rel=1e-5)
        assert val.real == pytest.approx(
            prof.phi(0) - 0.5 * tau**2 * prof.phi(2), abs=1e-9
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            moment_complex(1.0 + 1j, 1.0)


class TestMomentLine:
    def test_header_derivatives_match_profile(self):
        line = MomentLine(2.0, 50.0)
        prof = phi_profile(2.0, 50.0, fast_path=False)
        assert line.phi0 == pytest.approx(prof.phi(0), abs=2e-13)
        assert line.phi1 == pytest.approx(prof.phi(1), abs=2e-13)
        assert line.phi2 == pytest.approx(prof.phi(2), abs=2e-13)

    def test_centered_value_at_zero(self):
        line = MomentLine(2.0, 50.0)
        assert line(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_unwrapped_continuation(self):
        sigma, y, tau = 2.0, 50.0, 0.5
        line = MomentLine(sigma, y, tau_max=tau)
        lam = line(np.array([tau]))[0]
        recon = lam + line.phi0 + 1j * tau * line.phi1
        direct = moment_complex(complex(sigma, tau), y)
        assert recon.real == pytest.approx(direct.real, abs=1e-10)
        assert math.remainder(recon.imag - direct.imag, 2 * math.pi) == (
            pytest.approx(0.0, abs=1e-9)
        )

    def test_vectorized_shape_and_symmetry(self):
        line = MomentLine(1.0, 30.0, tau_max=5.0)
        taus = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        out = line(taus)
        assert out.shape == (5,)
        assert np.allclose(out[:2], np.conj(out[::-1][:2]), atol=1e-12)

    def test_real_part_nonpositive(self):
        # centered modulus never exceeds its tau = 0 value
        line = MomentLine(4.0, 100.0, tau_max=50.0)
        taus = np.linspace(0.1, 50.0, 25)
        assert np.all(np.real(line(taus)) <= 1e-12)


    @pytest.mark.parametrize("sigma,y", [(200.0, 1e4), (-200.0, 1e4), (2.0, 50.0)])
    def test_grid_matches_call(self, sigma, y):
        # the contour route's first grid: h = w/2 out to 12 w
        line = MomentLine(sigma, y)
        h, m = 0.5 / math.sqrt(line.phi2), 25
        for tau0 in (0.0, 0.5 * h):
            taus = tau0 + h * np.arange(m)
            assert np.max(np.abs(line.grid(tau0, h, m) - line(taus))) <= 1e-12


class TestDecay:
    def test_report_small_grid(self):
        report = decay_ratio_check(5.0, 200.0, [1.0, 10.0, 100.0])
        assert report.all_ok
        assert [pt.regime for pt in report.points] == [1, 3, 3]
        ratios = [pt.ratio for pt in report.points]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_gaussian_window(self):
        # between c1 sqrt(sigma) log sigma ~ 27 and sigma: Gaussian regime
        report = decay_ratio_check(50.0, 300.0, [40.0])
        assert report.points[0].regime == 2
        assert report.all_ok

    def test_domain(self):
        with pytest.raises(DomainError):
            decay_ratio_check(2.0, 200.0, [1.0])
        with pytest.raises(DomainError):
            decay_ratio_check(5.0, 200.0, [1.0], delta=0.5)


def _next_pow2_rule(want: int) -> int:
    """The power-of-two rule (floor 64) of a prime needing ``want`` nodes."""
    return max(64, 1 << (int(want) - 1).bit_length())


class TestBucketLayout:
    @pytest.mark.parametrize("y", (1e3, 1e5))
    @pytest.mark.parametrize("tau", (0.0, 37.5))
    @pytest.mark.parametrize("sigma", (-600.0, -3.0, 0.0, 3.0, 569.0, 4208.0))
    def test_ranges_tile_the_primes_with_each_primes_rule(self, sigma, tau, y):
        primes = primes_for(y)
        layout = _layout(primes, sigma, DEFAULT_QUAD, tau_max=tau)
        nodes = [n for _, _, n in layout]
        assert nodes == sorted(set(nodes))  # increasing, one range per rule
        edge = 0
        for lo, hi, n in reversed(layout):  # in prime order
            assert lo == edge < hi
            edge = hi
            want = nodes_for(primes[lo:hi], sigma, tau)
            assert all(_next_pow2_rule(k) == n for k in want)
        assert edge == primes.size

    def test_fixed_nodes_is_one_range(self):
        primes = primes_for(1e3)
        assert _layout(primes, 3.0, DEFAULT_QUAD.with_nodes(96)) == [
            (0, primes.size, 96)
        ]


def _one_shot_bucket_sums(tables, sigma):
    """The whole-bucket reduction that the chunked _bucket_sums replaced."""
    w, s2, logd = tables
    kern = sigma * logd
    mx = np.max(kern, axis=1)
    kern -= mx[:, None]
    np.exp(kern, out=kern)
    kern *= s2
    z = kern @ w
    scratch = kern * logd
    mean = scratch @ w / z
    np.square(np.subtract(logd, mean[:, None], out=scratch), out=scratch)
    scratch *= kern
    var = scratch @ w / z
    log_e = mx + np.log(z * (2.0 / np.pi))
    return log_e, mean, var


def _chunk_rule_mismatches() -> list[tuple[int, float, int]]:
    """(n, sigma, rows) where the chunked and the whole-bucket reductions of
    real log D_p rows differ in any bit."""
    primes = primes_for(2e5).astype(float)
    bad = []
    for n in (64, 128, 256):
        r = CHUNK_DOUBLES // n
        for sigma in (-566.0, 3.0, 569.0):
            for size in (1, 2, r - 1, r, r + 1, 2 * r + 1, 5 * r + 3):
                tables = _bucket_tables(primes[:size], n)
                got = _bucket_sums(tables, sigma)
                want = _one_shot_bucket_sums(tables, sigma)
                if not all(
                    np.array_equal(g.view(np.int64), w.view(np.int64))
                    for g, w in zip(got, want)
                ):
                    bad.append((n, sigma, size))
    return bad


class TestChunkedReduction:
    def test_chunked_bucket_sums_keep_every_bit(self):
        # a whole-bucket product split over several BLAS threads rounds by
        # the split, so compare as the benchmark runs: on one BLAS thread
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
        code = "import test_profile as t; print(t._chunk_rule_mismatches())"
        run = subprocess.run(
            [sys.executable, "-c", code],
            cwd=Path(__file__).parent,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert run.stdout.strip() == "[]"

    def test_chunks_never_end_in_one_row(self):
        for hi in range(1, 40):
            parts = _chunks(0, hi, 4)
            assert [a for a, _ in parts] == list(range(0, hi, 4))[: len(parts)]
            assert parts[-1][1] == hi
            assert hi == 1 or all(b - a >= 2 for a, b in parts)


@pytest.fixture
def cold_cache():
    profile._Y_CACHE.clear()
    yield
    profile._Y_CACHE.clear()


def _cold(*args, **kwargs):
    profile._Y_CACHE.clear()
    return repr(phi_profile(*args, **kwargs).values)


class TestYCache:
    def test_values_do_not_depend_on_cache_state(self, cold_cache):
        calls = [(-40.0, 1e4, 4), (75.9, 1e4, 4), (-3.0, 1e3, 2), (569.0, 1e5, 2)]
        cold = [_cold(s, y, max_order=m) for s, y, m in calls]
        profile._Y_CACHE.clear()
        for _ in range(2):  # warm, in the y order (y1, y2, y1, ...)
            for (s, y, m), want in zip(calls, cold):
                assert repr(phi_profile(s, y, max_order=m).values) == want

    def test_cached_tables_are_read_only(self, cold_cache):
        phi_profile(-40.0, 1e4)
        tables = profile._Y_CACHE["tables"]
        assert tables
        for _, _, logd in tables.values():
            with pytest.raises(ValueError):
                logd[0, 0] = 0.0

    def test_only_the_latest_y_is_held(self, cold_cache):
        phi_profile(-40.0, 1e4, max_order=4)
        phi_profile(-40.0, 1e3)
        held = profile._Y_CACHE["tables"]
        assert profile._Y_CACHE["y"] == 1000
        assert profile._Y_CACHE["primes"] is primes_for(1e3)
        rows = [logd.shape[0] for _, _, logd in held.values()]
        assert rows and max(rows) <= primes_for(1e3).size

    def test_remembered_pass_is_keyed_by_quad_and_fast_path(self, cold_cache):
        variants = [{"fast_path": False}, {"quad": DEFAULT_QUAD.with_nodes(96)}, {}]
        cold = [_cold(50.0, 1e4, max_order=4, **kw) for kw in variants]
        assert len(set(cold)) == 3
        for kw, want in zip(variants, cold):
            phi_profile(50.0, 1e4, max_order=4)  # remembers the fast-path pass
            assert repr(phi_profile(50.0, 1e4, max_order=4, **kw).values) == want

    def test_warm_call_memory_stays_in_chunks(self, cold_cache):
        phi_profile(-566.0, 1e6, max_order=4)
        tracemalloc.start()
        try:
            phi_profile(-566.0, 1e6, max_order=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
