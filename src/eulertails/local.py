"""Local factors of the random Euler product and their moments.

For a prime p the local factor over the angular measure (2/pi) sin^2 t dt is

    D_p(t) = (1 - 2 cos(t)/p + p^{-2})^{-1},

bounded between (1 + 1/p)^{-2} and (1 - 1/p)^{-2}. The s-th moment

    E_p(s) = (2/pi) integral_0^pi D_p(t)^s sin^2 t dt

satisfies E_p(0) = E_p(1) = 1 (orthogonality of the angular weight against
the first two Chebyshev components of D_p) and E_p(-1) = 1 + p^{-2}.

All moment evaluations happen in the log domain with the integrand's peak
factored out, so arbitrarily large tilts sigma never overflow. Weighted
moments E_{p,j}(s) carry an extra (1 - cos t)^j factor and admit a second,
independent representation as a Jacobi-weighted integral on [0, 1]; both
routes are implemented and cross-checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .limitshape import g_deriv, g_fn
from .quadrature import QuadratureSpec, DEFAULT_QUAD, integrate, jacgauss, panel_nodes

ROUTES = ("theta", "u")

#: primes beyond this multiple of max(sigma, 1) may use the limit-shape
#: approximations of `local_approx` without visible accuracy loss
FAST_PATH_FACTOR = 16.0


@dataclass(frozen=True)
class LocalDerivatives:
    """E_p value with its first two logarithmic derivatives at real sigma."""

    p: int
    sigma: float
    value: float  #: E_p(sigma); inf if it overflows (see log_value)
    dlog1: float  #: d/ds log E_p at sigma
    curvature: float  #: d^2/ds^2 log E_p at sigma (> 0)
    log_value: float = 0.0  #: log E_p(sigma), always finite


def inv_d_p(p, cos_theta):
    """1/D_p = 1 - 2 cos(theta)/p + p^-2, the one place it is written.

    p keeps the caller's type (int, float or array): numpy's array power
    and Python's float power round p^-2 differently at some primes, so
    coercing p here would move bits.
    """
    return 1.0 - 2.0 * cos_theta / p + p ** (-2.0)


def d_p(p: int | float, theta) -> np.ndarray | float:
    """Local factor D_p(theta)."""
    if p < 2:
        raise DomainError("d_p requires p >= 2")
    out = 1.0 / inv_d_p(p, np.cos(np.asarray(theta, dtype=float)))
    return float(out) if out.ndim == 0 else out


def log_d_p(p: int | float | np.ndarray, theta) -> np.ndarray | float:
    """log D_p(theta), computed without forming the reciprocal; p may be an
    array broadcasting against theta."""
    out = -np.log(inv_d_p(p, np.cos(np.asarray(theta, dtype=float))))
    return float(out) if out.ndim == 0 else out


def nodes_for(
    p: int | float | np.ndarray, sigma: float = 0.0, tau: float = 0.0
) -> int | np.ndarray:
    """Gauss-Legendre size resolving the |sigma|-tilt peak and tau-phase;
    elementwise (an int array) for an array p."""
    peak = 12.0 * np.sqrt(max(abs(sigma), 1.0) / p)
    osc = 4.8 * abs(tau) / p
    n = np.minimum(np.ceil(48.0 + peak + osc), 20000).astype(int)
    return int(n) if n.ndim == 0 else n


def _angular_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    th, w = panel_nodes(0.0, np.pi, n)
    return th, w, np.cos(th), np.sin(th) ** 2


def local_moment(
    p: int | float, s: complex | float, quad: QuadratureSpec = DEFAULT_QUAD
) -> complex | float:
    """E_p(s) for real or complex s (linear scale; may overflow for huge
    real parts -- use :func:`local_moment_log` downstream)."""
    lv = local_moment_log(p, s, quad)
    out = np.exp(lv)
    if np.iscomplexobj(np.asarray(s)) or isinstance(s, complex):
        return complex(out)
    return float(np.real(out))


def local_moment_log(
    p: int | float, s: complex | float, quad: QuadratureSpec = DEFAULT_QUAD
) -> complex | float:
    """log E_p(s), peak-factored; complex for complex s (principal branch)."""
    if p < 2:
        raise DomainError("local_moment requires p >= 2")
    sc = complex(s)
    mx = sc.real * float(log_d_p(p, 0.0 if sc.real >= 0 else np.pi))
    if quad.scheme == "adaptive_simpson":

        def tilted(th: np.ndarray, trig) -> np.ndarray:
            logd = np.asarray(log_d_p(p, th))
            k = np.exp(sc.real * logd - mx) * np.sin(th) ** 2
            return k * trig(sc.imag * logd) if sc.imag else k

        val = integrate(lambda th: tilted(th, np.cos), 0.0, np.pi, quad)
        if sc.imag:
            val = val + 1j * integrate(lambda th: tilted(th, np.sin), 0.0, np.pi, quad)
        val *= 2.0 / np.pi
    else:
        n = quad.nodes if quad.nodes is not None else nodes_for(p, sc.real, sc.imag)
        th, w, _, s2 = _angular_rule(n)
        logd = np.asarray(log_d_p(p, th))
        m = sc.real * logd
        kernel = np.exp(m - mx + 1j * sc.imag * logd) if sc.imag else np.exp(m - mx)
        val = np.dot(kernel * s2, w) * (2.0 / np.pi)
    out = mx + np.log(val)
    if isinstance(s, complex) or np.iscomplexobj(np.asarray(s)):
        return complex(out)
    return float(np.real(out))


def local_moment_weighted(
    p: int | float,
    j: int,
    sigma: float,
    route: str = "theta",
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Weighted moment E_{p,j}(sigma) with weight (1 - cos t)^j.

    Routes:

    * ``theta``: (2/pi) integral_0^pi (1-cos t)^j D_p(t)^sigma sin^2 t dt;
    * ``u``: substitution u = (1 - cos t)/2, giving the Jacobi-weighted form
      (2^{j+3}/pi) integral_0^1 ((1-1/p)^2 + 4u/p)^{-sigma} u^{j+1/2}
      (1-u)^{1/2} du, evaluated by Gauss-Jacobi so the endpoint algebraic
      weights are exact.
    """
    if route not in ROUTES:
        raise DomainError(f"route must be one of {ROUTES}")
    if j < 0:
        raise DomainError("weight order j must be >= 0")
    if route == "theta":
        n = quad.nodes if quad.nodes is not None else nodes_for(p, sigma)
        th, w, c, s2 = _angular_rule(n)
        logd = np.asarray(log_d_p(p, th))
        m = sigma * logd
        mx = float(np.max(m))
        val = np.dot(np.exp(m - mx) * (1.0 - c) ** j * s2, w) * (2.0 / np.pi)
        return float(np.exp(mx) * val) if mx < 700 else float("inf")
    n = quad.nodes if quad.nodes is not None else max(64, nodes_for(p, sigma) // 2)
    x, w = jacgauss(n, 0.5, j + 0.5)
    u = 0.5 * (x + 1.0)
    base = (1.0 - 1.0 / p) ** 2 + 4.0 * u / p
    m = -sigma * np.log(base)
    mx = float(np.max(m))
    # weight on [-1,1] is (1-x)^{1/2} (1+x)^{j+1/2} = 2^{j+1} (1-u)^{1/2} u^{j+1/2},
    # and du = dx/2, so the u-integral equals sum(w f)/2^{j+2}
    val = np.dot(np.exp(m - mx), w) / 2 ** (j + 2)
    out = mx + np.log(val) + (j + 3) * np.log(2.0) - np.log(np.pi)
    return float(np.exp(out)) if out < 700 else float("inf")


def local_log_derivatives(
    p: int | float, sigma: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> LocalDerivatives:
    """E_p(sigma) together with d log E_p and its curvature in s."""
    if quad.scheme == "adaptive_simpson":
        mx = sigma * float(log_d_p(p, 0.0 if sigma >= 0 else np.pi))

        def weighted(th: np.ndarray, fn) -> np.ndarray:
            logd = np.asarray(log_d_p(p, th))
            return np.exp(sigma * logd - mx) * np.sin(th) ** 2 * fn(logd)

        z = integrate(lambda th: weighted(th, np.ones_like), 0.0, np.pi, quad)
        mean = integrate(lambda th: weighted(th, lambda l: l), 0.0, np.pi, quad) / z
        var = (
            integrate(lambda th: weighted(th, lambda l: (l - mean) ** 2), 0.0, np.pi, quad)
            / z
        )
    else:
        n = quad.nodes if quad.nodes is not None else nodes_for(p, sigma)
        th, w, _, s2 = _angular_rule(n)
        logd = np.asarray(log_d_p(p, th))
        m = sigma * logd
        mx = float(np.max(m))
        wgt = np.exp(m - mx) * s2
        z = float(np.dot(wgt, w))
        mean = float(np.dot(wgt * logd, w)) / z
        var = float(np.dot(wgt * (logd - mean) ** 2, w)) / z
    log_value = mx + np.log(z * 2.0 / np.pi)
    return LocalDerivatives(
        p=int(p),
        sigma=float(sigma),
        value=float(np.exp(log_value)) if log_value < 700 else float("inf"),
        dlog1=mean,
        curvature=var,
        log_value=float(log_value),
    )


APPROX_ORDERS = ("dlog1", "curvature")


def local_approx(p: int | float, sigma: float, order: str) -> float:
    """Limit-shape approximation of a log-derivative of E_p for large p.

    Valid for sigma >= 3 and p >= sqrt(sigma):

    * ``dlog1``:     d log E_p  ~ (1/2) g'(sigma/p) log D_p(0),
    * ``curvature``: d^2 log E_p ~ g''(sigma/p) / p^2.
    """
    if order not in APPROX_ORDERS:
        raise DomainError(f"order must be one of {APPROX_ORDERS}")
    if sigma < 3:
        raise DomainError("local_approx requires sigma >= 3")
    if p < np.sqrt(sigma):
        raise DomainError("local_approx requires p >= sqrt(sigma)")
    u = sigma / p
    if order == "dlog1":
        return 0.5 * float(g_deriv(u, 1)) * float(log_d_p(p, 0.0))
    return float(g_deriv(u, 2)) / p**2


def local_approx_all(p: int | float, sigma: float) -> LocalDerivatives:
    """All limit-shape approximations at once (log E_p(sigma) ~ g(sigma/p)
    plus the two derivative forms of :func:`local_approx`)."""
    log_value = float(g_fn(sigma / p))
    return LocalDerivatives(
        p=int(p),
        sigma=float(sigma),
        value=float(np.exp(log_value)) if log_value < 700 else float("inf"),
        dlog1=local_approx(p, sigma, "dlog1"),
        curvature=local_approx(p, sigma, "curvature"),
        log_value=log_value,
    )
