"""Tail distribution of random Euler products over Sato-Tate angles.

The random model takes independent angles theta_p with density
(2/pi) sin^2 theta and studies L(1, y) = prod_{p <= y} (1 - 2 cos theta_p
/ p + p^-2)^{-1}. This package evaluates the upper and lower tail
probabilities

    Phi(t, y) = P(log L >= 2 (log t + gamma)),
    Psi(t, y) = P(log L <= -2 (log t + gamma - log zeta(2))),

by four mutually validating routes: a saddle-point (tilted Gaussian)
formula, asymptotic series with computed constants, smoothed contour
integration, and Monte Carlo simulation (plain and exponentially tilted).
See the CLI (``eulertails --help``) for the scriptable surface.
"""

from .coefficients import (
    AStarDetail,
    ExpansionCoefficients,
    a_star_coeffs,
    a_star_detail,
    coefficient_a,
    coefficient_a_detail,
    coefficient_b,
    coefficient_b_error,
    compute_coefficients,
    gamma0,
    kappa_expansion_coeffs,
)
from .errors import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    EulertailsError,
    RegimeError,
)
from .local import (
    LocalDerivatives,
    d_p,
    local_approx,
    local_approx_all,
    local_log_derivatives,
    local_moment,
    local_moment_log,
    local_moment_weighted,
    log_d_p,
)
from .manifest import RunManifest
from .mc import (
    McEstimate,
    SamplerConfig,
    empirical_moment,
    estimate_tail_plain,
    estimate_tail_tilted,
    sample_angle,
)
from .primes import mertens_log_sum, primes_for, primes_up_to
from .profile import (
    MomentLine,
    ProfileDerivatives,
    decay_ratio_check,
    moment_complex,
    phi_asymptotic,
    phi_asymptotic_remainder,
    phi_profile,
)
from .quadrature import DEFAULT_QUAD, QuadratureSpec
from .saddle import (
    SaddleSolution,
    lower_target,
    saddle_expansion,
    solve_saddle,
    solve_saddle_lower,
    upper_target,
)
from .tails import (
    SmoothingParams,
    TailEstimate,
    default_smoothing,
    smoothing_kernel,
    tail_expansion,
    tail_perron,
    tail_perron_lower,
    tail_saddle,
    tail_saddle_lower,
)

__version__ = "0.1.0"

__all__ = [
    "AStarDetail",
    "AccuracyError",
    "ConsistencyError",
    "DEFAULT_QUAD",
    "DomainError",
    "EulertailsError",
    "ExpansionCoefficients",
    "LocalDerivatives",
    "McEstimate",
    "MomentLine",
    "ProfileDerivatives",
    "QuadratureSpec",
    "RegimeError",
    "RunManifest",
    "SaddleSolution",
    "SamplerConfig",
    "SmoothingParams",
    "TailEstimate",
    "a_star_coeffs",
    "a_star_detail",
    "coefficient_a",
    "coefficient_a_detail",
    "coefficient_b",
    "coefficient_b_error",
    "compute_coefficients",
    "d_p",
    "decay_ratio_check",
    "default_smoothing",
    "empirical_moment",
    "estimate_tail_plain",
    "estimate_tail_tilted",
    "gamma0",
    "kappa_expansion_coeffs",
    "local_approx",
    "local_approx_all",
    "local_log_derivatives",
    "local_moment",
    "local_moment_log",
    "local_moment_weighted",
    "log_d_p",
    "lower_target",
    "mertens_log_sum",
    "moment_complex",
    "phi_asymptotic",
    "phi_asymptotic_remainder",
    "phi_profile",
    "primes_for",
    "primes_up_to",
    "saddle_expansion",
    "sample_angle",
    "smoothing_kernel",
    "solve_saddle",
    "solve_saddle_lower",
    "tail_expansion",
    "tail_perron",
    "tail_perron_lower",
    "tail_saddle",
    "tail_saddle_lower",
    "upper_target",
]
