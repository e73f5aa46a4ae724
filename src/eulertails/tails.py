"""Tail probabilities of the random Euler product, by three routes.

With L(1, y) the random product over primes p <= y, the two tails are

    Phi(t, y) = P( L(1, y) > (e^gamma t)^2 ),
    Psi(t, y) = P( L(1, y) < (e^gamma t / zeta(2))^-2 ),

computed entirely in log-domain (at large t the probabilities sit far
below the floating-point underflow threshold). Three mutually validating
methods are provided:

* ``saddle_gauss`` -- exponential tilt at the saddle kappa(t, y); the
  probability is exp(phi_0 - kappa * target) times a boundary factor.
  Mode ``refined`` (default) evaluates the boundary factor as the exact
  Laplace transform of a unit Gaussian on the half-line, with third- and
  fourth-cumulant (skew/kurtosis) corrections; mode ``asymptotic`` keeps
  the plain 1/(kappa sqrt(2 pi phi_2)) prefactor, which the refined factor
  reproduces in the large-deviation limit.
* ``expansion`` -- closed forms with the computed coefficients: either
  -kappa sum_j a_j / log^j kappa (route ``saddle_series``) or the doubly
  exponential -e^{t-gamma_0} sum_j a*_j / t^j (route ``t_series``).
* ``perron`` -- a smoothed contour integral along Re s = kappa whose value
  V is sandwiched between the tail at t and at t e^{-lambda N / 2}, so a
  single number certifies both an upper and a lower estimate. The integral
  is a trapezoid sum on a uniform tau grid, with the angular phases of
  :class:`.profile.MomentLine` advanced by recurrence from node to node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erfcx

from .coefficients import a_star_detail, coefficient_a, gamma0
from .constants import SADDLE_ERROR_C_ASYMPTOTIC, SADDLE_ERROR_C_REFINED
from .errors import AccuracyError, ConsistencyError, DomainError
from .profile import MomentLine
from .quadrature import DEFAULT_QUAD, QuadratureSpec
from .saddle import TAILS, SaddleSolution, solve_saddle

METHODS = ("saddle_gauss", "expansion", "perron", "monte_carlo")
SADDLE_MODES = ("refined", "asymptotic")
EXPANSION_ROUTES = ("saddle_series", "t_series")
COEFF_SOURCES = ("composed", "closed_form")

#: y = infinity sentinel resolves to y_eff = Y_INF_FACTOR * e^t, which makes
#: the kappa/(y log y) part of the remainder negligible against 1/log kappa
Y_INF_FACTOR = 1e3


@dataclass(frozen=True)
class TailEstimate:
    """One tail probability in log-domain with its method provenance."""

    t: float
    y: float
    tail: str  #: "upper" (Phi) or "lower" (Psi)
    log_value: float  #: natural log of the probability
    method: str
    error_indicator: float  #: uncertainty of log_value (~ relative error)
    J: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.tail not in TAILS:
            raise DomainError(f"tail must be one of {TAILS}")
        if self.method not in METHODS:
            raise DomainError(f"method must be one of {METHODS}")
        # numpy scalars sneak in from vector code; normalize so repr/json
        # of an estimate never depends on which route produced it
        object.__setattr__(self, "log_value", float(self.log_value))
        object.__setattr__(self, "error_indicator", float(self.error_indicator))
        if self.log_value > 1e-9:
            raise ConsistencyError(
                f"log probability must be <= 0, got {self.log_value:g}"
            )


@dataclass(frozen=True)
class SmoothingParams:
    """Contour-smoothing parameters: kernel ((e^{lambda s}-1)/(lambda s))^N.

    Inside the tail sandwich the product lambda*N must stay below e^{-t}
    so that the smoothing bandwidth t (1 - e^{-lambda N / 2}) is small on
    the t-scale; :func:`tail_perron` enforces this.
    """

    lam: float
    N: int = 1
    #: cap on the contour grid extent; None -> 20 sqrt(kappa) log kappa
    tau_max: float | None = None

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise DomainError("smoothing lambda must be positive")
        if self.N < 1:
            raise DomainError("smoothing power N must be >= 1")
        if self.tau_max is not None and self.tau_max <= 0:
            raise DomainError("tau_max must be positive")


def default_smoothing(t: float) -> SmoothingParams:
    """Sandwich default: lambda = e^{-t}/4, N = 1, automatic truncation."""
    return SmoothingParams(lam=0.25 * math.exp(-t), N=1)


def smoothing_kernel(s: complex, params: SmoothingParams) -> complex:
    """((e^{lambda s} - 1)/(lambda s))^N with the s = 0 singularity removed."""
    return complex(_kernel_vals(np.asarray([complex(s)]), params)[0])


def _kernel_vals(s: np.ndarray, params: SmoothingParams) -> np.ndarray:
    w = params.lam * np.asarray(s, dtype=complex)
    small = np.abs(w) < 1e-4
    ws = np.where(small, 0.0, w)
    with np.errstate(invalid="ignore"):
        base = np.where(
            small,
            1.0 + w / 2.0 + w**2 / 6.0 + w**3 / 24.0,
            (np.exp(ws) - 1.0) / np.where(small, 1.0, ws),
        )
    return base**params.N


# ---------------------------------------------------------------------------
# Gaussian / Edgeworth boundary factor of the tilted representation.
# ---------------------------------------------------------------------------


def _hermite_e(k: int, z: float) -> float:
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    return float(np.polynomial.hermite_e.hermeval(z, coeffs))


def _laplace_halfline(k: int, z0: float) -> float:
    """M_k(z0) = integral_0^inf e^{-z0 w} phi(w) He_k(w) dw, in the scaled
    form e^{z0^2/2} * (closed form), which stays bounded for large z0."""
    m0 = 0.5 * erfcx(z0 / math.sqrt(2.0))
    if k == 0:
        return m0
    tail = sum(
        math.comb(k, j) * (-z0) ** (k - j) * _hermite_e(j - 1, z0)
        for j in range(1, k + 1)
    )
    return (-z0) ** k * m0 + tail / math.sqrt(2.0 * math.pi)


def _boundary_factor(z0: float, lam3: float, lam4: float, refined: bool) -> float:
    """E[e^{-z0 W} 1_{W >= 0}] for the standardized tilted overshoot W.

    The plain Gaussian value is M_0 = e^{z0^2/2} Q(z0); the refined value
    adds the Edgeworth skew/kurtosis corrections

        M_0 + (lam3/6) M_3 + (lam4/24) M_4 + (lam3^2/72) M_6.

    For z0 -> inf, M_0 -> 1/(z0 sqrt(2 pi)), recovering the plain
    1/(kappa sqrt(2 pi phi_2)) prefactor.
    """
    if not refined:
        return 1.0 / (z0 * math.sqrt(2.0 * math.pi))
    b = (
        _laplace_halfline(0, z0)
        + lam3 / 6.0 * _laplace_halfline(3, z0)
        + lam4 / 24.0 * _laplace_halfline(4, z0)
        + lam3**2 / 72.0 * _laplace_halfline(6, z0)
    )
    if not b > 0.0:
        raise AccuracyError(
            f"boundary factor {b:g} not positive at z0={z0:g}: cumulant "
            "corrections too large for this regime"
        )
    return b


def _solution(
    t: float,
    y: float,
    tail: str,
    solution: SaddleSolution | None,
    quad: QuadratureSpec,
) -> SaddleSolution:
    """The saddle of ``tail`` at (t, y): ``solution`` if given, which must
    belong to that point and tail, else a fresh solve."""
    if tail not in TAILS:
        raise DomainError(f"tail must be one of {TAILS}")
    if solution is None:
        return solve_saddle(t, y, quad=quad, tail=tail)
    have = (solution.t, solution.y, "lower" if solution.lower else "upper")
    if have != (float(t), float(y), tail):
        raise DomainError(
            f"solution= is the {have[2]}-tail saddle at (t={have[0]:g}, "
            f"y={have[1]:g}), not the {tail}-tail saddle at (t={t:g}, y={y:g})"
        )
    return solution


def _saddle_estimate(
    t: float,
    y: float,
    mode: str,
    solution: SaddleSolution | None,
    quad: QuadratureSpec,
    tail: str,
) -> TailEstimate:
    if mode not in SADDLE_MODES:
        raise DomainError(f"mode must be one of {SADDLE_MODES}")
    sol = _solution(t, y, tail, solution, quad)
    prof = sol.profile_at_kappa
    phi0, _, phi2, phi3, phi4 = prof.values
    z0 = sol.kappa * math.sqrt(phi2)
    sign = -1.0 if sol.lower else 1.0
    # the overshoot's skew flips orientation on the negative axis
    lam3 = sign * phi3 / phi2**1.5
    lam4 = phi4 / phi2**2
    base = phi0 - sign * sol.kappa * sol.target
    b = _boundary_factor(z0, lam3, lam4, refined=(mode == "refined"))
    c = SADDLE_ERROR_C_REFINED if mode == "refined" else SADDLE_ERROR_C_ASYMPTOTIC
    return TailEstimate(
        t=sol.t,
        y=sol.y,
        tail=tail,
        log_value=base + math.log(b),
        method="saddle_gauss",
        error_indicator=c * sol.t * math.exp(-sol.t),
    )


def tail_saddle(
    t: float,
    y: float,
    mode: str = "refined",
    solution: SaddleSolution | None = None,
    quad: QuadratureSpec = DEFAULT_QUAD,
    tail: str = "upper",
) -> TailEstimate:
    """log Phi(t, y) by the tilted (saddle-point) representation, or log
    Psi(t, y) with ``tail="lower"``, mirrored at s = -kappa.

    Mode ``asymptotic`` is exactly phi_0 - log kappa - (1/2) log(2 pi
    phi_2) - kappa * target (upper tail); mode ``refined`` replaces the
    last two terms by the boundary factor with cumulant corrections,
    shrinking the error from O(t e^{-t}) to a small multiple of it.
    ``solution`` reuses the saddle of this tail at (t, y).
    """
    return _saddle_estimate(t, y, mode, solution, quad, tail)


def tail_saddle_lower(
    t: float,
    y: float,
    mode: str = "refined",
    solution: SaddleSolution | None = None,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> TailEstimate:
    """``tail_saddle(t, y, mode, solution, quad, tail="lower")``."""
    return _saddle_estimate(t, y, mode, solution, quad, "lower")


def tail_expansion(
    t: float,
    y: float = math.inf,
    J: int = 2,
    route: str = "saddle_series",
    coeff_source: str = "composed",
    solution: SaddleSolution | None = None,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> TailEstimate:
    """log Phi by closed-form expansions with computed coefficients.

    Route ``saddle_series``: log Phi = -kappa sum_{j<=J} a_j / log^j kappa
    with the numerically solved kappa (J <= 4). Route ``t_series``:
    log Phi = -e^{t-gamma_0} sum_{j<=J} a*_j / t^j (J <= 2); its
    ``coeff_source`` picks the self-consistent composed a*_j (default) or
    the direct closed forms (which disagree with the composed series; see
    :mod:`.coefficients`). y may be infinity: the solver then runs at
    y_eff = 10^3 e^t, large enough that the finite-y part of the remainder
    is negligible. ``solution`` reuses a saddle already solved at (t, y_eff).
    """
    if route not in EXPANSION_ROUTES:
        raise DomainError(f"route must be one of {EXPANSION_ROUTES}")
    if coeff_source not in COEFF_SOURCES:
        raise DomainError(f"coeff_source must be one of {COEFF_SOURCES}")
    y_eff = Y_INF_FACTOR * math.exp(t) if math.isinf(y) else float(y)
    if route == "saddle_series":
        if not 1 <= J <= 4:
            raise DomainError("saddle_series route supports J in 1..4")
        sol = _solution(t, y_eff, "upper", solution, quad)
        log_k = math.log(sol.kappa)
        series = math.fsum(
            coefficient_a(j) / log_k**j for j in range(1, J + 1)
        )
        log_value = -sol.kappa * series
        # first neglected term plus the finite-y truncation effect
        err = sol.kappa * (
            abs(coefficient_a(J + 1)) * log_k ** -(J + 1)
            + sol.kappa / (y_eff * math.log(y_eff))
        )
    else:
        if not 1 <= J <= 2:
            raise DomainError("t_series route supports J in 1..2")
        detail = a_star_detail()
        coeffs = detail.composed if coeff_source == "composed" else detail.closed_form
        series = math.fsum(coeffs[j - 1] / t**j for j in range(1, J + 1))
        scale = math.exp(t - gamma0())
        log_value = -scale * series
        # J = 1: the next term is known exactly; J = 2: reuse the last
        # known coefficient magnitude as the implied constant
        next_mag = abs(coeffs[J]) if J < len(coeffs) else abs(coeffs[-1])
        err = scale * (
            next_mag * t ** -(J + 1)
            + math.exp(t) * t / (y_eff * math.log(y_eff))
        )
    return TailEstimate(
        t=float(t),
        y=float(y),
        tail="upper",
        log_value=log_value,
        method="expansion",
        error_indicator=err,
        J=J,
    )


# ---------------------------------------------------------------------------
# Smoothed contour integration (both tails).
# ---------------------------------------------------------------------------


def _resolve_params(
    t: float, kappa: float, params: SmoothingParams | None
) -> SmoothingParams:
    if params is None:
        params = default_smoothing(t)
    if params.lam * params.N > math.exp(-t) * (1.0 + 1e-12):
        raise DomainError(
            f"smoothing bandwidth lambda*N = {params.lam * params.N:g} "
            f"exceeds e^-t = {math.exp(-t):g}; the sandwich needs "
            "lambda*N <= e^-t"
        )
    if params.tau_max is None:
        params = replace(
            params, tau_max=20.0 * math.sqrt(kappa) * math.log(kappa)
        )
    return params


def _perron_log_value(
    sol: SaddleSolution, params: SmoothingParams, quad: QuadratureSpec
) -> tuple[float, float]:
    """(log V, relative error indicator) for the smoothed contour integral.

    V = (1/pi) e^{phi_0 - s target} * integral_0^inf of the centered real
    integrand, analytic in a strip and near-Gaussian with width w =
    phi_2^{-1/2}, so the trapezoid sum on tau_j = j h converges geometrically
    (Trefethen & Weideman, SIAM Review 56, 2014). From h = w/2 on [0, 12 w],
    the extent doubles up to tau_max while the last node holds > 1e-13 of
    the sum; then h halves, at most 6 times, until two sums agree to 1e-7.
    """
    kappa = sol.kappa
    sign = -1.0 if sol.lower else 1.0
    prof = sol.profile_at_kappa
    base = prof.values[0] - sign * kappa * sol.target
    lines: list[MomentLine] = []

    def integrand(tau0: float, h: float, m: int) -> np.ndarray:
        taus = tau0 + h * np.arange(m)
        # angular rules sized for the grid extent, rebuilt when it doubles
        if not lines or lines[-1].tau_max < taus[-1]:
            lines.append(MomentLine(sign * kappa, sol.y, quad=quad, tau_max=taus[-1]))
        lam = lines[-1].grid(sign * tau0, sign * h, m) + sign * 1j * taus * sol.residual
        s = kappa + 1j * taus
        return np.real(np.exp(lam) * _kernel_vals(s, params) / s)

    # an even node count n keeps the 2h sum on the same extent n h
    h = 0.5 / math.sqrt(prof.values[2])
    n_cap = 2 * int(params.tau_max / (2.0 * h))
    n = min(24, n_cap)
    f = integrand(0.0, h, n + 1)
    total = h * (math.fsum(f) - 0.5 * f[0])
    while n < n_cap and not abs(f[-1]) * h <= 1e-13 * total:
        n_new = min(2 * n, n_cap)
        f = np.concatenate([f, integrand((n + 1) * h, h, n_new - n)])
        total = h * (math.fsum(f) - 0.5 * f[0])
        n = n_new
    if total <= 0.0:
        raise AccuracyError(
            "contour integral evaluated to a non-positive value; "
            "the smoothing/truncation parameters are inconsistent"
        )
    truncation = abs(f[-1]) * h / total
    if truncation > 0.1:
        raise AccuracyError(
            f"contour truncation leaves {truncation:.1%} of the integral at "
            f"the grid end; increase tau_max (currently {params.tau_max:g})"
        )
    change = abs(total - 2.0 * h * (math.fsum(f[::2]) - 0.5 * f[0]))
    for _ in range(6):
        if change <= 1e-7 * total:
            break
        h, n, coarse = 0.5 * h, 2 * n, total  # new nodes: the odd multiples of h
        total = 0.5 * coarse + h * math.fsum(integrand(h, 2.0 * h, n // 2))
        change = abs(total - coarse)
    return base + math.log(total / math.pi), change / total + truncation + 1e-6


def _perron_pair(
    t: float,
    y: float,
    params: SmoothingParams | None,
    solution: SaddleSolution | None,
    quad: QuadratureSpec,
    tail: str,
) -> tuple[TailEstimate, TailEstimate]:
    sol = _solution(t, y, tail, solution, quad)
    t = sol.t
    params = _resolve_params(t, sol.kappa, params)
    log_v, rel = _perron_log_value(sol, params, quad)
    # sandwich: tail(t) <= V <= tail(t e^{-lambda N / 2}) for both tails
    t_shift = t * math.exp(-0.5 * params.lam * params.N)
    upper_est = TailEstimate(
        t=t,
        y=sol.y,
        tail=tail,
        log_value=log_v,
        method="perron",
        error_indicator=rel,
    )
    lower_est = TailEstimate(
        t=t_shift,
        y=sol.y,
        tail=tail,
        log_value=log_v,
        method="perron",
        error_indicator=rel,
    )
    return lower_est, upper_est


def tail_perron(
    t: float,
    y: float,
    params: SmoothingParams | None = None,
    solution: SaddleSolution | None = None,
    quad: QuadratureSpec = DEFAULT_QUAD,
    tail: str = "upper",
) -> tuple[TailEstimate, TailEstimate]:
    """Smoothed contour value V with Phi(t, y) <= V <= Phi(t', y),
    t' = t e^{-lambda N / 2}; with ``tail="lower"`` the same sandwich
    Psi(t) <= V <= Psi(t') at s = -kappa.

    Returns (lower, upper): the same V once as a lower estimate for the
    tail at t' (the estimate's t is t') and once as an upper estimate for
    the tail at t. The integrand is centered at the saddle, so the
    oscillatory phase is gone and the contour integral is a near-Gaussian
    profile. ``solution`` reuses the saddle of this tail at (t, y).
    """
    return _perron_pair(t, y, params, solution, quad, tail)


def tail_perron_lower(
    t: float,
    y: float,
    params: SmoothingParams | None = None,
    solution: SaddleSolution | None = None,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> tuple[TailEstimate, TailEstimate]:
    """``tail_perron(t, y, params, solution, quad, tail="lower")``."""
    return _perron_pair(t, y, params, solution, quad, "lower")
