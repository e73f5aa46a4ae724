"""Quadrature toolbox.

Two schemes are supported everywhere a :class:`QuadratureSpec` is accepted:

* ``gauss_legendre_fixed`` -- fixed-node Gauss-Legendre panels (the default;
  all integrands here are piecewise analytic, so convergence is geometric);
* ``adaptive_simpson`` -- classic adaptive Simpson, used for the expansion
  coefficient integrals and as an independent verification scheme.

Sums that accumulate many per-prime contributions use compensated (Kahan)
summation in a fixed index order so results are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_jacobi

from .errors import AccuracyError, DomainError

SCHEMES = ("gauss_legendre_fixed", "adaptive_simpson")

#: rounding-floor multiple for the adaptive acceptance test (see
#: :func:`adaptive_simpson`); sized to the worst relative noise of the
#: package's integrands (Bessel-ratio curvature formulas, ~8e-13)
_NOISE_FLOOR = 8192.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureSpec:
    """Scheme selection and tolerances for the integral operators.

    ``nodes`` is the Gauss-Legendre panel size; ``None`` lets each operator
    pick a size from its own resolution policy (peak width, oscillation
    count). ``split_points`` adds mandatory panel boundaries, e.g. at
    integrand kinks.
    """

    scheme: str = "gauss_legendre_fixed"
    nodes: int | None = None
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    split_points: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise DomainError(f"unknown quadrature scheme {self.scheme!r}")
        if self.nodes is not None and self.nodes < 8:
            raise DomainError("quadrature nodes must be >= 8")

    def with_nodes(self, nodes: int) -> "QuadratureSpec":
        return replace(self, nodes=nodes)

    @property
    def fingerprint(self) -> str:
        """Stable string identifying numerically relevant settings."""
        n = "auto" if self.nodes is None else str(self.nodes)
        return (
            f"{self.scheme}:n={n}:atol={self.abs_tol:.1e}:rtol={self.rel_tol:.1e}"
            f":splits={','.join(f'{s:g}' for s in self.split_points)}"
        )


DEFAULT_QUAD = QuadratureSpec()


@lru_cache(maxsize=128)
def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes and weights on [-1, 1]: numpy's recipe, with
    the eigenvalues of the tridiagonal Jacobi matrix (Golub-Welsch) in place
    of a dense one. O(n^2) time, O(n) memory, the same bits as numpy's rule.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    leg = np.polynomial.legendre
    c = np.append(np.zeros(n), 1.0)
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[: n - 1] * scl[1:n]
    x = eigvalsh_tridiagonal(np.zeros(n), off, lapack_driver="sterf")
    df = leg.legval(x, leg.legder(c))
    x -= leg.legval(x, c) / df
    fm = leg.legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


@lru_cache(maxsize=64)
def jacgauss(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Jacobi rule for weight (1-x)^alpha (1+x)^beta on [-1, 1]."""
    x, w = roots_jacobi(n, alpha, beta)
    return x, w


def panel_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to [a, b]."""
    x, w = leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    nodes: int,
    splits: Sequence[float] = (),
) -> float:
    """Integrate a vectorized callable over [a, b] with GL panels."""
    pts = sorted({a, b, *(s for s in splits if a < s < b)})
    total = 0.0
    comp = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        x, w = panel_nodes(lo, hi, nodes)
        term = float(np.dot(f(x), w))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
    max_depth: int = 48,
) -> float:
    """Adaptive Simpson with Richardson acceptance test.

    Breadth-first and vectorized: every refinement level evaluates ``f``
    once on all pending midpoints, so ``f`` must accept numpy arrays.
    Child intervals inherit half the parent tolerance (the usual bound-
    preserving split); accepted pieces are summed in position order with
    compensation, so the result is deterministic.

    The acceptance test adds a rounding floor proportional to the L1 mass
    of each piece: when the Richardson error is at the rounding noise of
    the integrand values themselves, further subdivision cannot help and
    the piece is accepted. Total accuracy is therefore bounded below by
    ~1e-13 times the integral of |f|.
    """
    if a == b:
        return 0.0
    if b < a:
        raise DomainError("adaptive_simpson requires a <= b")
    fs = np.asarray(f(np.array([a, 0.5 * (a + b), b])), dtype=float)
    if not np.all(np.isfinite(fs)):
        raise AccuracyError(f"integrand not finite on [{a:g}, {b:g}]")
    lo, hi = np.array([a]), np.array([b])
    flo, fm, fhi = fs[0:1], fs[1:2], fs[2:3]
    whole = (b - a) / 6.0 * (flo + 4.0 * fm + fhi)
    tol = np.array([max(abs_tol, rel_tol * abs(float(whole[0])))])
    pos_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    for _ in range(max_depth):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        fnew = np.asarray(f(np.concatenate([lm, rm])), dtype=float)
        if not np.all(np.isfinite(fnew)):
            raise AccuracyError("integrand returned a non-finite value")
        k = lo.size
        flm, frm = fnew[:k], fnew[k:]
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fm)
        right = (hi - mid) / 6.0 * (fm + 4.0 * frm + fhi)
        err = left + right - whole
        l1 = (mid - lo) / 6.0 * (np.abs(flo) + 4.0 * np.abs(flm) + np.abs(fm)) + (
            hi - mid
        ) / 6.0 * (np.abs(fm) + 4.0 * np.abs(frm) + np.abs(fhi))
        done = np.abs(err) <= 15.0 * tol + _NOISE_FLOOR * l1
        if np.any(done):
            pos_parts.append(lo[done])
            val_parts.append((left + right + err / 15.0)[done])
        split = ~done
        if not np.any(split):
            lo = lo[:0]
            break
        lo = np.concatenate([lo[split], mid[split]])
        hi = np.concatenate([mid[split], hi[split]])
        fhi = np.concatenate([fm[split], fhi[split]])
        flo = np.concatenate([flo[split], fm[split]])
        fm = np.concatenate([flm[split], frm[split]])
        whole = np.concatenate([left[split], right[split]])
        half = tol[split] / 2.0
        tol = np.concatenate([half, half])
    if lo.size:
        worst = float(lo[np.argmin(hi - lo)])
        raise AccuracyError(
            f"adaptive Simpson failed to converge on {lo.size} subintervals "
            f"(smallest near x = {worst:g})"
        )
    pos = np.concatenate(pos_parts)
    val = np.concatenate(val_parts)
    return kahan_sum(val[np.argsort(pos, kind="stable")])


def integrate(
    f: Callable,
    a: float,
    b: float,
    quad: QuadratureSpec = DEFAULT_QUAD,
    default_nodes: int = 64,
) -> float:
    """Integrate with the scheme selected by ``quad``.

    ``f`` must accept numpy arrays for the Gauss-Legendre scheme; scalars
    are enough for adaptive Simpson.
    """
    if quad.scheme == "gauss_legendre_fixed":
        n = quad.nodes if quad.nodes is not None else default_nodes
        return gauss_legendre(f, a, b, n, quad.split_points)
    total = 0.0
    pts = sorted({a, b, *(s for s in quad.split_points if a < s < b)})
    for lo, hi in zip(pts[:-1], pts[1:]):
        total += adaptive_simpson(f, lo, hi, quad.abs_tol, quad.rel_tol)
    return total


def kahan_sum(values: np.ndarray) -> float:
    """Compensated sum in index order (deterministic, order-stable)."""
    total = 0.0
    comp = 0.0
    for v in np.asarray(values, dtype=float).ravel():
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total
