"""Mathematical constants and frozen calibration envelopes.

Calibrated constants were measured on wide parameter grids with margin and
then frozen; tests re-measure and assert containment. They are not fitted
per run.
"""

from __future__ import annotations

import math

#: Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.5772156649015328606

#: log zeta(2) = log(pi^2 / 6).
LOG_ZETA2 = math.log(math.pi * math.pi / 6.0)

# ---------------------------------------------------------------------------
# Frozen envelopes for the shape-function brackets (measured -> margin).
# ---------------------------------------------------------------------------

#: Bracket for W_j(u) e^{-2u} u^{j+3/2} on u in [1, 50], j = 0, 1, 2.
W_RATIO_BRACKETS = {0: (0.30, 0.46), 1: (0.17, 0.35), 2: (0.14, 0.44)}

#: Bracket for h(u)/u^2 on (0, 1).
H_SMALL_BRACKET = (0.46, 0.51)

#: Bracket constants c1 <= h(u)/log(2u) <= c2 on [1, 100] (h is negative there).
H_LARGE_BRACKET = (-2.30, -1.50)

#: Weighted-moment ratio constants: E_{p,j}(s)/E_p(s) <= C_j (p/s)^j.
WEIGHTED_RATIO_C = {0: 1.0, 1: 1.0, 2: 1.2, 3: 2.0}

#: most float64s a chunked kernel holds in one temporary (1 MB): Monte Carlo
#: uniforms per row chunk, profile table cells per bucket chunk
CHUNK_DOUBLES = 1 << 17

#: Fast-path sentinel tolerance: closed-form vs quadrature discrepancy must
#: stay below C times the closed forms' own error envelope.
FAST_PATH_CHECK_C = 10.0

# ---------------------------------------------------------------------------
# Decay of |E(sigma + i tau, y)| / E(sigma, y) along vertical lines.
# Three regimes: trivial (ratio <= 1) below c1 sqrt(sigma) log sigma,
# Gaussian exp(-c2 tau^2 / (sigma log^2 sigma)) up to tau = sigma,
# stretched-exponential exp(-c3 |tau|^delta) up to y^{1/delta}.
# ---------------------------------------------------------------------------

DECAY_C1 = 1.0
DECAY_C2 = 1.0
DECAY_DELTA = 0.2
DECAY_C3 = 2.0

# ---------------------------------------------------------------------------
# Saddle-point evaluation error constants: relative error C * t * e^{-t}.
# ---------------------------------------------------------------------------

#: Gaussian saddle with exact boundary factor and skew/kurtosis corrections.
SADDLE_ERROR_C_REFINED = 0.1

#: Plain asymptotic prefactor 1/(kappa sqrt(2 pi phi_2)).
SADDLE_ERROR_C_ASYMPTOTIC = 0.5

#: Solver brackets: kappa in [e^t/8, 8 e^t]; lower-tail kappa in [e^t/8, 4 e^t].
SADDLE_BRACKET = (0.125, 8.0)
SADDLE_BRACKET_LOWER = (0.125, 4.0)

#: Supported range of the tail parameter t.
T_SUPPORTED = (1.0, 12.0)
