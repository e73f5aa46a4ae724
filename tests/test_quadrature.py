"""Quadrature toolbox: spec validation, both schemes, reductions."""

import math
import tracemalloc

import numpy as np
import pytest

from eulertails.errors import AccuracyError, DomainError
from eulertails.quadrature import (
    DEFAULT_QUAD,
    QuadratureSpec,
    adaptive_simpson,
    gauss_legendre,
    integrate,
    kahan_sum,
    leggauss,
    panel_nodes,
)


class TestSpec:
    def test_defaults(self):
        assert DEFAULT_QUAD.scheme == "gauss_legendre_fixed"
        assert DEFAULT_QUAD.nodes is None

    def test_rejects_unknown_scheme(self):
        with pytest.raises(DomainError):
            QuadratureSpec(scheme="monte_carlo")

    def test_rejects_tiny_node_count(self):
        with pytest.raises(DomainError):
            QuadratureSpec(nodes=4)

    def test_with_nodes_returns_new_spec(self):
        spec = DEFAULT_QUAD.with_nodes(96)
        assert spec.nodes == 96
        assert DEFAULT_QUAD.nodes is None

    def test_fingerprint_distinguishes_settings(self):
        a = QuadratureSpec()
        b = QuadratureSpec(nodes=64)
        c = QuadratureSpec(scheme="adaptive_simpson")
        assert len({a.fingerprint, b.fingerprint, c.fingerprint}) == 3

    def test_fingerprint_stable(self):
        assert QuadratureSpec().fingerprint == QuadratureSpec().fingerprint


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        # degree 2n-1 polynomials are integrated exactly
        val = gauss_legendre(lambda x: 7 * x**6 - x**3 + 2, 0.0, 1.0, nodes=8)
        assert val == pytest.approx(1.0 - 0.25 + 2.0, abs=1e-14)

    def test_sin_squared_normalization(self):
        val = gauss_legendre(
            lambda t: (2 / math.pi) * np.sin(t) ** 2, 0.0, math.pi, nodes=48
        )
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_split_points_respected(self):
        # |x - 1/3| has a kink; a panel boundary there restores full accuracy
        f = lambda x: np.abs(x - 1.0 / 3.0)
        exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
        plain = gauss_legendre(f, 0.0, 1.0, nodes=32)
        split = gauss_legendre(f, 0.0, 1.0, nodes=32, splits=(1.0 / 3.0,))
        assert abs(split - exact) < 1e-14
        assert abs(split - exact) < abs(plain - exact)

    def test_panel_nodes_cover_interval(self):
        x, w = panel_nodes(0.0, 2.0, 40)
        assert x.min() > 0.0 and x.max() < 2.0
        assert math.fsum(w) == pytest.approx(2.0, abs=1e-14)


class TestAdaptiveSimpson:
    def test_smooth_integral(self):
        val = adaptive_simpson(np.exp, 0.0, 1.0, abs_tol=1e-12, rel_tol=1e-12)
        assert val == pytest.approx(math.e - 1.0, abs=1e-11)

    def test_peaked_integrand(self):
        # narrow Gaussian: adaptivity has to find the peak
        val = adaptive_simpson(
            lambda x: np.exp(-((x - 0.7) ** 2) * 1e4),
            0.0,
            1.0,
            abs_tol=1e-13,
            rel_tol=1e-12,
        )
        assert val == pytest.approx(math.sqrt(math.pi) / 100.0, rel=1e-9)

    def test_nonfinite_integrand_raises(self):
        with np.errstate(divide="ignore"), pytest.raises(AccuracyError):
            adaptive_simpson(lambda x: 1.0 / x, 0.0, 1.0, abs_tol=1e-10, rel_tol=1e-8)

    def test_matches_gauss_legendre(self):
        f = lambda t: np.exp(2.0 * np.cos(t)) * np.sin(t) ** 2
        a = adaptive_simpson(f, 0.0, math.pi, abs_tol=1e-13, rel_tol=1e-12)
        b = gauss_legendre(f, 0.0, math.pi, nodes=64)
        assert a == pytest.approx(b, rel=1e-11)


class TestLeggauss:
    def test_bit_identical_to_numpy(self):
        for n in [*range(2, 301), 1024]:
            x, w = leggauss(n)
            x_np, w_np = np.polynomial.legendre.leggauss(n)
            assert np.array_equal(x, x_np), f"nodes differ at n={n}"
            assert np.array_equal(w, w_np), f"weights differ at n={n}"

    def test_memory_is_linear_in_nodes(self):
        # the dense companion-matrix route allocates 8192^2 doubles = 512 MB
        tracemalloc.start()
        try:
            leggauss.__wrapped__(8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


class TestIntegrateDispatch:
    def test_dispatch_gauss(self):
        spec = QuadratureSpec(nodes=32)
        val = integrate(np.cos, 0.0, math.pi / 2, spec)
        assert val == pytest.approx(1.0, abs=1e-13)

    def test_dispatch_adaptive(self):
        spec = QuadratureSpec(scheme="adaptive_simpson")
        val = integrate(np.cos, 0.0, math.pi / 2, spec)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_default_nodes_used_when_auto(self):
        val = integrate(np.sin, 0.0, math.pi, DEFAULT_QUAD, default_nodes=64)
        assert val == pytest.approx(2.0, abs=1e-13)


class TestReductions:
    def test_kahan_matches_fsum(self):
        rng = np.random.default_rng(3)
        xs = (rng.random(2000) - 0.5) * 10.0 ** rng.integers(-8, 8, 2000)
        assert kahan_sum(xs) == pytest.approx(math.fsum(xs), rel=1e-15)
