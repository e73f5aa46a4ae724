"""Saddle point of the tilted-moment problem for both tails.

The upper-tail threshold at parameter t is exp(2(log t + gamma)); its
saddle kappa(t, y) > 0 solves

    phi_1(kappa, y) = 2 (log t + gamma),

which has a unique root because phi_2 > 0 (tilted variance). The lower
tail mirrors this on the negative axis: the threshold (6 pi^-2 e^gamma
t)^-2 gives

    phi_1(-kappa, y) = -2 (log t + gamma - log zeta(2)),

again with a unique root whenever the target lies below the untilted mean
phi_1(0, y); for t close to 1 it does not (the lower threshold then sits
inside the bulk), and the solver reports a regime error rather than a
spurious root.

One solver covers both tails, chosen by ``tail="upper"|"lower"``: it runs
safeguarded Newton (kappa <- kappa - (phi_1 - target) / phi_2, mirrored on
the negative axis) inside a frozen bracket kappa ~ e^t, initialized for the
upper tail at the closed-form expansion kappa ~ e^{t - gamma_0}(1 + sum_j
gamma_j / t^j), whose coefficients come from :mod:`.coefficients`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coefficients import gamma0, kappa_expansion_coeffs
from .constants import (
    EULER_GAMMA,
    LOG_ZETA2,
    SADDLE_BRACKET,
    SADDLE_BRACKET_LOWER,
    T_SUPPORTED,
)
from .errors import ConsistencyError, DomainError, RegimeError
from .primes import primes_for
from .profile import MAX_ORDER, ProfileDerivatives, phi_profile
from .quadrature import DEFAULT_QUAD, QuadratureSpec

#: the two tails: Phi ("upper") and Psi ("lower")
TAILS = ("upper", "lower")

#: default residual tolerance on phi_1 at the returned saddle
DEFAULT_TOL = 1e-10

_MAX_NEWTON = 30


@dataclass(frozen=True)
class SaddleSolution:
    """Root of the saddle equation with its certificate."""

    t: float
    y: float
    kappa: float  #: positive magnitude of the tilt (lower tail: s = -kappa)
    log_kappa: float
    target: float  #: the phi_1 value being matched
    residual: float
    bracket: tuple[float, float]
    iterations: int
    profile_at_kappa: ProfileDerivatives  #: orders 0..4 at the saddle tilt
    lower: bool = False


def upper_target(t: float) -> float:
    """phi_1 value at the upper-tail saddle: 2(log t + gamma)."""
    return 2.0 * (math.log(t) + EULER_GAMMA)


def lower_target(t: float) -> float:
    """phi_1 value at the lower-tail saddle: -2(log t + gamma - log zeta(2))."""
    return -2.0 * (math.log(t) + EULER_GAMMA - LOG_ZETA2)


def _check_regime(t: float, y: float) -> None:
    lo, hi = T_SUPPORTED
    if not lo <= t <= hi:
        raise RegimeError(f"t={t:g} outside supported range [{lo:g}, {hi:g}]")
    if y < 2.0 * math.exp(t):
        raise RegimeError(
            f"y={y:g} below the uniform regime floor 2 e^t = "
            f"{2.0 * math.exp(t):.6g}: raise y or lower t"
        )


def _newton(
    lo: float,
    hi: float,
    kappa0: float,
    tol: float,
    eval_f,
) -> tuple[float, ProfileDerivatives, float, int]:
    """Safeguarded Newton for an increasing f inside a sign bracket.

    ``eval_f(kappa)`` returns (f(kappa), f'(kappa) > 0, profile); the root
    is tracked inside [lo, hi], falling back to bisection whenever the
    Newton step leaves the current bracket. An iterate with |f| <= tol
    certifies the root, so the ends are evaluated only if Newton fails.
    """
    kappa = min(max(kappa0, lo), hi)
    a, b = lo, hi
    iterations = 0
    for _ in range(_MAX_NEWTON):
        f, fprime, prof = eval_f(kappa)
        if abs(f) <= tol:
            return kappa, prof, f, iterations
        if f < 0.0:
            a = kappa
        else:
            b = kappa
        step = kappa - f / fprime
        kappa = step if a < step < b else 0.5 * (a + b)
        iterations += 1
    f_lo, _, _ = eval_f(lo)
    f_hi, _, _ = eval_f(hi)
    if not (f_lo < 0.0 < f_hi):
        raise ConsistencyError(
            f"no sign change over the frozen bracket [{lo:.6g}, {hi:.6g}]: "
            f"f(lo)={f_lo:.3e}, f(hi)={f_hi:.3e}"
        )
    raise ConsistencyError(
        f"saddle iteration did not reach |residual| <= {tol:g} in "
        f"{_MAX_NEWTON} steps (last residual {f:.3e})"
    )


def solve_saddle(
    t: float,
    y: float,
    tol: float = DEFAULT_TOL,
    quad: QuadratureSpec = DEFAULT_QUAD,
    tail: str = "upper",
) -> SaddleSolution:
    """Saddle kappa(t, y) > 0 of one tail: phi_1(kappa, y) = upper_target(t),
    or with ``tail="lower"`` phi_1(-kappa, y) = lower_target(t).

    The lower tail is feasible only when its target sits below the untilted
    mean phi_1(0, y); otherwise the threshold lies inside the bulk of the
    distribution and a regime error is raised.
    """
    return _solve(t, y, tol, quad, tail)


def solve_saddle_lower(
    t: float,
    y: float,
    tol: float = DEFAULT_TOL,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> SaddleSolution:
    """``solve_saddle(t, y, tol, quad, tail="lower")``."""
    return _solve(t, y, tol, quad, "lower")


def _solve(
    t: float, y: float, tol: float, quad: QuadratureSpec, tail: str
) -> SaddleSolution:
    if tail not in TAILS:
        raise DomainError(f"tail must be one of {TAILS}")
    t, y = float(t), float(y)
    _check_regime(t, y)
    lower = tail == "lower"
    sign = -1.0 if lower else 1.0
    target = lower_target(t) if lower else upper_target(t)
    if lower:
        # phi_1(0, y) in closed form: E[log D_p] = -1/(2 p^2) under Sato-Tate
        mean0 = -0.5 * math.fsum(primes_for(y).astype(float) ** -2.0)
        if target >= mean0:
            raise RegimeError(
                f"lower-tail threshold at t={t:g} lies inside the bulk: "
                f"target {target:.6f} >= phi_1(0, y) = {mean0:.6f} "
                "(no positive tilt exists; t is too small)"
            )
    c_lo, c_hi = SADDLE_BRACKET_LOWER if lower else SADDLE_BRACKET
    lo, hi = c_lo * math.exp(t), c_hi * math.exp(t)

    # f(kappa) = sign (phi_1(sign kappa, y) - target) is increasing in kappa
    # with derivative phi_2(sign kappa, y) > 0 in both tails
    def eval_f(kappa: float):
        prof = phi_profile(sign * kappa, y, max_order=2, quad=quad)
        return sign * (prof.values[1] - target), prof.values[2], prof

    kappa0 = math.sqrt(lo * hi) if lower else saddle_expansion(t, y, J=2)
    kappa, _, _, iters = _newton(lo, hi, kappa0, tol, eval_f)
    full = phi_profile(sign * kappa, y, max_order=MAX_ORDER, quad=quad)
    return SaddleSolution(
        t=t,
        y=y,
        kappa=kappa,
        log_kappa=math.log(kappa),
        target=target,
        residual=full.values[1] - target,
        bracket=(lo, hi),
        iterations=iters,
        profile_at_kappa=full,
        lower=lower,
    )


def saddle_expansion(t: float, y: float, J: int = 2) -> float:
    """Closed-form approximation kappa ~ e^{t-gamma_0}(1 + sum_j gamma_j/t^j).

    The expansion is y-free; y only enters its accuracy (the dropped
    remainder is O(1/t^{J+1} + e^t t/(y log y)) relative). J = 0 gives the
    pure leading term.
    """
    if not 0 <= J <= 4:
        raise DomainError("saddle expansion implemented for J in [0, 4]")
    if t <= 0:
        raise DomainError("saddle expansion requires t > 0")
    series = 1.0
    if J >= 1:
        gammas = kappa_expansion_coeffs(J)
        series += math.fsum(g / t**j for j, g in enumerate(gammas, start=1))
    return math.exp(t - gamma0()) * series
