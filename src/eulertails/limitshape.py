"""Limit shape functions of the angular average.

Everything here concerns the function

    g(u) = log( (2/pi) * integral_0^pi exp(2u cos t) sin^2 t dt )

and its piecewise companion h(u) = g(u) - 2u for u >= 1, h = g below 1.
The angular integral is a modified Bessel ratio, g(u) = log(I_1(2u)/u),
which is what the implementation evaluates: a scaled-Bessel path for
moderate and large u, and the power series

    I_1(2u)/u = sum_{l >= 0} u^{2l} / (l! (l+1)!)

below a small-u crossover where the direct ratio formulas lose digits to
cancellation.

h jumps by -2 at u = 1 (the linear term switches on at a point where it is
not zero), so h and h' are defined piecewise, h'' = g'' pointwise, and
second- and higher-order one-point evaluations exactly at u = 1 are domain
errors. Integrals against h treat u = 1 as a mandatory split and evaluate
one-sided limits at it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ive

from .errors import DomainError
from .quadrature import QuadratureSpec, DEFAULT_QUAD, panel_nodes

#: below this, power series; above, scaled-Bessel ratio formulas
_SERIES_CUTOFF = 0.25
_SERIES_TERMS = 16
#: (2l)!/(2l-d)!, the factor that d derivatives bring down from u^{2l}
_SERIES_PERM = [[float(math.perm(2 * l, d)) for d in range(4)]
                for l in range(_SERIES_TERMS + 1)]
#: above this, asymptotic series in w = 1/(2u) for derivatives -- the Bessel
#: ratio forms cancel to ~u * eps relative error, which the tail integrals
#: of the coefficient module would amplify
_ASYM_CUTOFF = 25.0
#: g'(u) - 2 = sum c_k w^k (k >= 1), relative error < 4e-19 at the cutoff
_ASYM_GP = (
    0.0,
    -3.0,
    3.0 / 4,
    3.0 / 4,
    63.0 / 64,
    27.0 / 16,
    1899.0 / 512,
    81.0 / 8,
    543483.0 / 16384,
    32427.0 / 256,
    72251109.0 / 131072,
    2752623.0 / 1024,
    30413055339.0 / 2097152,
    87745113.0 / 1024,
    9228545313147.0 / 16777216,
    15608572587.0 / 4096,
)
#: g''(u) = sum c_k w^k (k >= 2), relative error < 7e-18 at the cutoff
_ASYM_GPP = (
    0.0,
    0.0,
    6.0,
    -3.0,
    -9.0 / 2,
    -63.0 / 8,
    -135.0 / 8,
    -5697.0 / 128,
    -567.0 / 4,
    -543483.0 / 1024,
    -291843.0 / 128,
    -361255545.0 / 32768,
    -30278853.0 / 512,
    -91239166017.0 / 262144,
    -1140686469.0 / 512,
    -64599817192029.0 / 4194304,
    -234128588805.0 / 2048,
)
#: above this, scipy's scaled Bessel ive is unreliable (NaN well below
#: 1e12); h and g switch to the direct large-u expansion
_IVE_CUTOFF = 1e7


def _h_large(u: np.ndarray) -> np.ndarray:
    """h(u) = log(I_1(2u) e^{-2u}) - log u for u >= _IVE_CUTOFF."""
    return (
        -1.5 * np.log(u)
        - 0.5 * np.log(4.0 * np.pi)
        + np.log1p(-3.0 / (16.0 * u) - 15.0 / (512.0 * u * u))
    )


def series_s(u: np.ndarray, order: int) -> np.ndarray:
    """Rows S, S', ..., S^(order) of S(u) = sum u^{2l}/(l!(l+1)!), term-wise in
    one descending pass over l: each power u^e is taken once (order d at l and
    order d-2 at l-1 share it), and all orders at one l divide together."""
    out = np.zeros((order + 1,) + u.shape)
    terms = np.empty_like(out)
    rows = list(terms)
    # leading nd rows of out and terms; one row as a 1-D view (less overhead)
    heads = [(out[0], rows[0])] + [(out[:i], terms[:i]) for i in range(2, order + 2)]
    powers: dict[int, np.ndarray] = {}
    for l in range(_SERIES_TERMS, -1, -1):
        nd = min(order, 2 * l) + 1
        for d in range(nd):
            e = 2 * l - d
            pw = powers.pop(e) if e in powers else u**e
            if d >= 2:
                powers[e] = pw
            np.multiply(_SERIES_PERM[l][d], pw, rows[d])
        acc, t = heads[nd - 1]
        for k in range(1, l + 1):
            t /= k * (k + 1)
        acc += t
    return out


def _series_sum(u, ls, e, c=None):
    """sum over l in ls (in that order) of c(l) u^{e(l)} / prod_{k<=l} k(k+1),
    with c(l) = 1 when c is None."""
    s = np.zeros_like(u)
    for l in ls:
        term = u ** e(l)
        if c is not None:
            term = c(l) * term
        for k in range(1, l + 1):
            term /= k * (k + 1)
        s = s + term
    return s


def series_h_small(u, terms: int = _SERIES_TERMS):
    """h(u) for 0 <= u < 1 from the truncated power series.

    Returns log( sum_{l < terms} u^{2l} / (l! (l+1)!) ).
    """
    u = np.asarray(u, dtype=float)
    if np.any(u < 0) or np.any(u >= 1):
        raise DomainError("series_h_small is defined for 0 <= u < 1")
    out = np.log(_series_sum(u, range(terms - 1, -1, -1), lambda l: 2 * l))
    return float(out) if out.ndim == 0 else out


def g_fn(u):
    """g(u) = log(I_1(2u)/u), even in u, g(0) = 0."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.empty_like(u)
    small = u < _SERIES_CUTOFF
    huge = u >= _IVE_CUTOFF
    mid = ~small & ~huge
    out[small] = np.log(series_s(u[small], 0)[0])
    ub = u[mid]
    # ive(1, 2u) = I_1(2u) e^{-2u}; log(I_1(2u)/u) = log(ive/u) + 2u
    out[mid] = np.log(ive(1, 2 * ub) / ub) + 2 * ub
    out[huge] = _h_large(u[huge]) + 2 * u[huge]
    return float(out) if out.ndim == 0 else out


def _g_derivs_bessel(u: np.ndarray, order: int) -> np.ndarray:
    R = ive(0, 2 * u) / ive(1, 2 * u)
    if order == 1:
        return 2 * R - 2 / u
    Rp = 2 - 2 * R * R + R / u
    if order == 2:
        return 2 * Rp + 2 / u**2
    Rpp = -4 * R * Rp + Rp / u - R / u**2
    return 2 * Rpp - 4 / u**3


def _poly_w(coeffs, w: np.ndarray) -> np.ndarray:
    out = np.zeros_like(w)
    for c in reversed(coeffs):
        out = out * w + c
    return out


def gp_minus_2(u) -> np.ndarray | float:
    """g'(u) - 2 for u > 0, computed without the cancelling subtraction."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    big = u >= _ASYM_CUTOFF
    out[big] = _poly_w(_ASYM_GP, 1.0 / (2.0 * u[big]))
    rest = u[~big]
    small = rest < _SERIES_CUTOFF
    sub = np.empty_like(rest)
    sub[small] = _g_derivs_series(rest[small], 1) - 2.0
    sub[~small] = _g_derivs_bessel(rest[~small], 1) - 2.0
    out[~big] = sub
    return float(out) if out.ndim == 0 else out


def _g_derivs_asym(u: np.ndarray, order: int) -> np.ndarray:
    w = 1.0 / (2.0 * u)
    if order == 1:
        return _poly_w(_ASYM_GP, w) + 2.0
    if order == 2:
        return _poly_w(_ASYM_GPP, w)
    # term-wise derivative: d/du w^k = -2k w^{k+1}
    cubic = tuple(-2.0 * k * c for k, c in enumerate(_ASYM_GPP))
    return w * _poly_w(cubic, w)


def _g_derivs_series(u: np.ndarray, order: int) -> np.ndarray:
    s = series_s(u, order)
    r1 = s[1] / s[0]
    if order == 1:
        return r1
    if order == 2:
        return s[2] / s[0] - r1**2
    r2, r3 = s[2] / s[0], s[3] / s[0]
    return r3 - 3 * r2 * r1 + 2 * r1**3


def g_deriv(u, order: int = 1):
    """Derivatives g', g'', g''' (orders 1-3) at any real u.

    g is even, so odd orders are odd functions; g'(0) = 0, g''(0) = 1
    (the series path supplies those limits).
    """
    if order not in (1, 2, 3):
        raise DomainError("g_deriv supports orders 1, 2, 3")
    u = np.asarray(u, dtype=float)
    sign = np.where(u < 0, -1.0, 1.0) if order % 2 else 1.0
    u = np.abs(u)
    out = np.empty_like(u)
    small = u < _SERIES_CUTOFF
    big = u >= _ASYM_CUTOFF
    mid = ~small & ~big
    out[small] = _g_derivs_series(u[small], order)
    out[mid] = _g_derivs_bessel(u[mid], order)
    out[big] = _g_derivs_asym(u[big], order)
    out = out * sign
    return float(out) if out.ndim == 0 else out


def h_fn(u):
    """h(u) = g(u) - 2u for u >= 1, g(u) for u < 1 (jump of -2 at u = 1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise DomainError("h_fn requires u >= 0")
    out = np.empty_like(u)
    huge = u >= _IVE_CUTOFF
    big = (u >= 1.0) & ~huge
    ub = u[big]
    # g - 2u = log(I_1(2u) e^{-2u} / u) exactly: no cancelling subtraction
    out[big] = np.log(ive(1, 2 * ub)) - np.log(ub)
    out[huge] = _h_large(u[huge])
    out[~(big | huge)] = np.asarray(g_fn(u[~(big | huge)]))
    return float(out) if out.ndim == 0 else out


def h_deriv(u, order: int = 1):
    """Piecewise derivatives of h.

    Order 1 is g' - 2 on u >= 1 and g' below (value at exactly u = 1 follows
    the u >= 1 branch). Orders 2 and 3 equal the g derivatives pointwise but
    are undefined at the jump itself: evaluating them at u = 1 is a domain
    error. Order 3 uses a central difference of the analytic second
    derivative with step ~ u * 1e-4 (clamped), matching how the profile
    module differentiates.
    """
    if order not in (1, 2, 3):
        raise DomainError("h_deriv supports orders 1, 2, 3")
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise DomainError("h_deriv requires u >= 0")
    if order >= 2 and np.any(u == 1.0):
        raise DomainError("h derivatives of order >= 2 are undefined at u = 1")
    if order == 1:
        out = np.where(u >= 1.0, np.asarray(gp_minus_2(np.maximum(u, 1.0))),
                       np.asarray(g_deriv(u, 1)))
    elif order == 2:
        out = np.asarray(g_deriv(u, 2))
    else:
        step = np.clip(u * 1e-4, 1e-6, 1e-2)
        # keep the stencil on one side of the (removable for g'') point u=1
        step = np.where(np.abs(u - 1.0) < 2 * step, np.abs(u - 1.0) / 2 + 1e-9, step)
        out = (np.asarray(g_deriv(u + step, 2)) - np.asarray(g_deriv(u - step, 2))) / (
            2 * step
        )
    return float(out) if out.ndim == 0 else out


def h_over_u2(u):
    """h(u)/u^2 on [0, 1], finite at 0 (limit 1/2), left-continuous at 1
    (the u < 1 branch g(u)/u^2, not the jumped value).

    Computed as log1p of the series remainder so it does not collapse to
    0/u^2 when u^2 is below machine epsilon.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u < 0) or np.any(u > 1):
        raise DomainError("h_over_u2 is defined on [0, 1]")
    out = np.empty_like(u)
    small = u < _SERIES_CUTOFF
    us = u[small]
    # sum_{l>=1} u^{2(l-1)} / (l! (l+1)!)
    rest = _series_sum(us, range(_SERIES_TERMS, 0, -1), lambda l: 2 * (l - 1))
    u2 = us * us
    with np.errstate(invalid="ignore"):
        ratio = np.log1p(u2 * rest) / u2
    out[small] = np.where(u2 * rest < 1e-15, rest, ratio)
    ub = u[~small]
    out[~small] = np.asarray(g_fn(ub)) / (ub * ub)
    return float(out) if out.ndim == 0 else out


def gp_over_u(u):
    """g'(u)/u on [0, 1], finite at 0 (limit g''(0) = 1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0) or np.any(u > 1):
        raise DomainError("gp_over_u is defined on [0, 1]")
    out = np.empty_like(u)
    small = u < _SERIES_CUTOFF
    us = u[small]
    # sum_{l>=1} 2l u^{2(l-1)} / (l! (l+1)!)
    s1u = _series_sum(
        us, range(_SERIES_TERMS, 0, -1), lambda l: 2 * (l - 1), lambda l: 2.0 * l
    )
    out[small] = s1u / series_s(us, 0)[0]
    ub = u[~small]
    out[~small] = np.asarray(g_deriv(ub, 1)) / ub
    return float(out) if out.ndim == 0 else out


def log_w_shape(u: float, j: int, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """log W_j(u), W_j(u) = integral_0^pi e^{2u cos t} (1 - cos t)^j sin^2 t dt.

    Evaluated as 2u + log integral of the exponentially tilted remainder, so
    it stays finite for large u.
    """
    if u <= 0:
        raise DomainError("log_w_shape requires u > 0")
    n = quad.nodes if quad.nodes is not None else max(200, int(12 * np.sqrt(u)) + 32)
    th, w = panel_nodes(0.0, np.pi, n)
    c = np.cos(th)
    vals = np.exp(2 * u * (c - 1.0)) * (1.0 - c) ** j * np.sin(th) ** 2
    return 2.0 * u + float(np.log(np.dot(vals, w)))


def w_shape_ratio(u: float, j: int, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """W_j(u) e^{-2u} u^{j+3/2} -- the bracketed shape ratio."""
    return float(np.exp(log_w_shape(u, j, quad) - 2.0 * u + (j + 1.5) * np.log(u)))
