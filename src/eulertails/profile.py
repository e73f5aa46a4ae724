"""Cumulant profile of the random Euler product over primes up to y.

The log-moment profile is

    phi(s, y) = log E[ L(1, y)^s ] = sum_{p <= y} log E_p(s),

where E_p is the local angular moment of :mod:`.local`. ``phi_n`` denotes
the n-th s-derivative at real s = sigma: phi_1 is the tilted mean of
log L(1, y), phi_2 its tilted variance (hence positive for every real
tilt), and phi_3, phi_4 the higher cumulants, which enter only through
error estimates.

Evaluation strategy: primes are bucketed by required Gauss-Legendre node
count, rounded up to a power of two; as that count is nonincreasing in p,
each bucket is a contiguous run of primes. The sigma-independent log D_p
tables of the most recent y are kept, read-only, over a prefix of its
primes that grows as buckets need. Each bucket is reduced in row chunks of
at most 2^17 doubles, counted from its first row and never ending in a
one-row chunk (a one-row product takes another BLAS path, which can move
the last bit); exact summation (math.fsum) hides the chunks. For tilts
sigma >= 3, primes with p > 16 max(sigma, 1) can optionally be routed
through the limit-shape closed forms

    log E_p ~ g(sigma/p),   dlog E_p ~ (1/2) g'(sigma/p) log D_p(0),
    d^2 log E_p ~ g''(sigma/p) / p^2,

an O(sigma/p^2)-accurate fast path; a sentinel subset of fast-path primes
is always cross-checked against quadrature. Orders 3 and 4 are
Richardson-extrapolated central differences of the order-2 sum in sigma,
which is accurate far beyond their only role of bounding error terms; the
four shifted passes sum only phi_2. The order-0..2 pass of the last call at
the same (sigma, quad, fast_path) is reused, so the order-4 call at a
converged Newton iterate repeats no pass of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    CHUNK_DOUBLES,
    DECAY_C1,
    DECAY_C2,
    DECAY_C3,
    DECAY_DELTA,
    EULER_GAMMA,
    FAST_PATH_CHECK_C,
)
from .coefficients import coefficient_b
from .errors import AccuracyError, ConsistencyError, DomainError
from .limitshape import series_s
from .local import FAST_PATH_FACTOR, local_log_derivatives, log_d_p, nodes_for
from .primes import primes_for
from .quadrature import DEFAULT_QUAD, QuadratureSpec, panel_nodes

#: orders carried by ProfileDerivatives (phi_0 .. phi_4)
MAX_ORDER = 4

#: relative step for the order-3/4 central differences in sigma
_FD_REL_STEP = 0.02

#: primes per chunk of _fast_sums (series_s holds ~8 doubles per prime)
_FAST_CHUNK = CHUNK_DOUBLES // 8

#: number of fast-path primes re-checked by quadrature on every call
_SENTINEL_COUNT = 4

#: cap on the expansion length of phi_asymptotic (b-coefficients beyond
#: this are increasingly expensive and useless inside the error term)
J_MAX = 5


@dataclass(frozen=True)
class ProfileDerivatives:
    """phi_n(sigma, y) for n = 0..4; entries beyond max_order are NaN."""

    sigma: float
    y: float
    values: tuple[float, float, float, float, float]

    def phi(self, n: int) -> float:
        if not 0 <= n <= MAX_ORDER:
            raise DomainError(f"order must be in 0..{MAX_ORDER}")
        return self.values[n]


def _layout(
    primes: np.ndarray, sigma: float, quad: QuadratureSpec, tau_max: float = 0.0
) -> list[tuple[int, int, int]]:
    """Shared-rule buckets as (lo, hi, nodes) ranges of primes[lo:hi].

    nodes_for is nonincreasing in p, so each bucket is one contiguous run;
    the list runs in increasing node count (decreasing primes), the order
    in which MomentLine adds its buckets up.
    """
    if quad.nodes is not None:
        return [(0, primes.size, quad.nodes)]
    want = nodes_for(primes, sigma, tau_max)
    # round the node count up to the next power of two (floor 64) so that
    # only a handful of distinct rules are instantiated
    pow2 = np.maximum(64, 2 ** np.ceil(np.log2(want)).astype(int))
    edges = [0, *(np.flatnonzero(pow2[1:] != pow2[:-1]) + 1).tolist(), primes.size]
    runs = list(zip(edges[:-1], edges[1:]))
    return [(lo, hi, int(pow2[lo])) for lo, hi in reversed(runs)]


def _chunks(lo: int, hi: int, step: int) -> list[tuple[int, int]]:
    """[a, b) chunks of step rows covering [lo, hi), counted from lo. A
    one-row tail joins the chunk before it: numpy's product of a one-row
    matrix takes another BLAS path, which can move the last bit."""
    edges = list(range(lo, hi, max(step, 2)))
    if len(edges) > 1 and hi - edges[-1] == 1:
        edges.pop()
    return list(zip(edges, edges[1:] + [hi]))


def _bucket_tables(pvec: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """sigma-independent (weights, sin^2, log D_p) tables for one bucket."""
    th, w = panel_nodes(0.0, np.pi, n)
    return w, np.sin(th) ** 2, log_d_p(pvec[:, None], th[None, :])


#: state of the most recent int(y): its "primes"; "tables", per node count
#: n the (weights, sin^2, log D_p) tables of the n-node rule, log D_p over a
#: prefix of the primes and read-only; "last", the latest order-0..2 pass
#: as ((sigma, quad, fast_path), sums)
_Y_CACHE: dict = {}


def _y_cache(y: float) -> dict:
    """The cache of y, emptied first if it holds another y."""
    if not math.isfinite(y) or _Y_CACHE.get("y") != int(y):
        primes = primes_for(y)  # DomainError for a non-finite y
        _Y_CACHE.clear()
        _Y_CACHE.update(y=int(y), primes=primes, tables={}, last=(None, None))
    return _Y_CACHE


def _tables(cache: dict, n: int, m: int) -> tuple[np.ndarray, ...]:
    """The cached n-node tables, log D_p over at least the first m primes
    of the cached y; a short table is extended in row chunks."""
    w, s2, logd = cache["tables"].get(n) or _bucket_tables(np.empty(0), n)
    if logd.shape[0] < m:
        grown = np.empty((m, n))
        grown[: logd.shape[0]] = logd
        for a, b in _chunks(logd.shape[0], m, CHUNK_DOUBLES // n):
            grown[a:b] = _bucket_tables(cache["primes"][a:b].astype(float), n)[2]
        grown.setflags(write=False)
        cache["tables"][n] = w, s2, logd = w, s2, grown
    return w, s2, logd


def _bucket_sums(tables: tuple[np.ndarray, ...], sigma: float) -> np.ndarray:
    """Rows (log E_p, dlog E_p, curvature) for one bucket, peak-factored,
    in row chunks of at most CHUNK_DOUBLES table cells."""
    w, s2, logd = tables
    out = np.empty((3, logd.shape[0]))
    for a, b in _chunks(0, logd.shape[0], CHUNK_DOUBLES // w.size):
        rows = logd[a:b]
        kern = sigma * rows
        mx = np.max(kern, axis=1)
        kern -= mx[:, None]
        np.exp(kern, out=kern)
        kern *= s2
        z = kern @ w
        scratch = kern * rows
        mean = scratch @ w / z
        np.square(np.subtract(rows, mean[:, None], out=scratch), out=scratch)
        scratch *= kern
        out[:, a:b] = mx + np.log(z * (2.0 / np.pi)), mean, scratch @ w / z
    return out


def _fast_sums(pvec: np.ndarray, sigma: float) -> np.ndarray:
    """Limit-shape closed forms for p > 16 sigma (u < 1/16: the series
    branch), as rows like _bucket_sums'; elementwise, in prime chunks."""
    out = np.empty((3, pvec.size))
    for a, b in _chunks(0, pvec.size, _FAST_CHUNK):
        p = pvec[a:b]
        log_d0 = -2.0 * np.log1p(-1.0 / p)
        s0, s1, s2 = series_s(sigma / p, 2)
        r1 = s1 / s0
        out[:, a:b] = np.log(s0), 0.5 * r1 * log_d0, (s2 / s0 - r1**2) / p**2
    return out


def _sentinel_check(pvec: np.ndarray, sigma: float, quad: QuadratureSpec) -> None:
    """Compare the fast path against quadrature on its smallest primes.

    The tolerance is the closed forms' own error envelope (relative factor
    1 + O(sigma/p^2) for the value, absolute O(1/p^2 + sigma/p^3) for the
    first log-derivative, min(1/(sigma^2 p), 1/(sigma p^2)) for the
    curvature) with one frozen calibration constant.
    """
    sent = pvec[:_SENTINEL_COUNT]
    f_log, f_mean, f_var = _fast_sums(sent, sigma)
    c = FAST_PATH_CHECK_C
    for i, p in enumerate(sent):
        ref = local_log_derivatives(p, sigma, quad)
        checks = (
            ("log-moment", f_log[i], ref.log_value, c * sigma / p**2),
            ("dlog", f_mean[i], ref.dlog1, c * (p**-2 + sigma * p**-3.0)),
            (
                "curvature",
                f_var[i],
                ref.curvature,
                c * min(1.0 / (sigma**2 * p), 1.0 / (sigma * p**2)),
            ),
        )
        for label, fast, slow, allow in checks:
            if abs(fast - slow) > allow:
                raise ConsistencyError(
                    f"fast-path {label} at p={int(p)}, sigma={sigma:g} is "
                    f"{abs(fast - slow):.3e} from quadrature "
                    f"(allowed {allow:.3e})"
                )


def phi_profile(
    sigma: float,
    y: float,
    max_order: int = 2,
    quad: QuadratureSpec = DEFAULT_QUAD,
    fast_path: bool = True,
) -> ProfileDerivatives:
    """phi_n(sigma, y) for n = 0..max_order by summation over primes.

    Negative tilts are supported (always by quadrature; the closed-form
    fast path applies only for sigma >= 3, to primes p > 16 max(sigma, 1)).
    Orders 3 and 4 are central differences of the order-2 sum with two step
    sizes and Richardson extrapolation, over a sigma-independent bucket
    layout so the differenced function is smooth.
    """
    sigma = float(sigma)
    y = float(y)
    if y < 2:
        raise DomainError("phi_profile requires y >= 2")
    if not 0 <= max_order <= MAX_ORDER:
        raise DomainError(f"max_order must be in 0..{MAX_ORDER}")
    cache = _y_cache(y)
    primes = cache["primes"]

    if quad.scheme == "adaptive_simpson":
        # verification route: per-prime adaptive quadrature, no fast path
        fast_p = np.empty(0)

        def terms(s: float) -> np.ndarray:
            locs = [local_log_derivatives(int(p), s, quad) for p in primes]
            return np.array([(l.log_value, l.dlog1, l.curvature) for l in locs]).T

    else:
        k = primes.size
        if fast_path and sigma >= 3.0:
            k = int(np.searchsorted(primes, FAST_PATH_FACTOR * sigma, side="right"))
        layout = _layout(primes[:k], sigma, quad)
        tables = {n: _tables(cache, n, hi) for _, hi, n in layout}
        fast_p = primes[k:].astype(float)

        def terms(s: float) -> np.ndarray:
            out = np.empty((3, primes.size))
            for lo, hi, n in layout:
                w, s2, logd = tables[n]
                out[:, lo:hi] = _bucket_sums((w, s2, logd[lo:hi]), s)
            out[:, k:] = _fast_sums(fast_p, s)
            return out

    key = (sigma, quad, fast_path)
    if cache["last"][0] == key:
        phi0, phi1, phi2 = cache["last"][1]
    else:
        if fast_p.size:
            _sentinel_check(fast_p, sigma, quad)
        phi0, phi1, phi2 = (math.fsum(row.tolist()) for row in terms(sigma))
        cache["last"] = key, (phi0, phi1, phi2)
    if sigma == 0.0:
        phi0 = 0.0  # exact: every E_p(0) = 1
    values = [phi0, phi1, phi2, math.nan, math.nan]
    if max_order >= 3:
        h = _FD_REL_STEP * max(abs(sigma), 1.0)
        c2 = {
            d: math.fsum(terms(sigma + d * h)[2].tolist())
            for d in (-1.0, -0.5, 0.5, 1.0)
        }
        d_h = (c2[1.0] - c2[-1.0]) / (2.0 * h)
        d_h2 = (c2[0.5] - c2[-0.5]) / h
        values[3] = (4.0 * d_h2 - d_h) / 3.0
        if max_order == 4:
            s_h = (c2[1.0] - 2.0 * phi2 + c2[-1.0]) / h**2
            s_h2 = (c2[0.5] - 2.0 * phi2 + c2[-0.5]) / (0.5 * h) ** 2
            values[4] = (4.0 * s_h2 - s_h) / 3.0
    out = values[: max_order + 1] + [math.nan] * (MAX_ORDER - max_order)
    if not all(math.isfinite(v) for v in out[: max_order + 1]):
        raise AccuracyError(
            f"non-finite profile value at sigma={sigma:g}, y={y:g}"
        )
    return ProfileDerivatives(sigma=sigma, y=y, values=tuple(out))


def phi_asymptotic(sigma: float, y: float, n: int, J: int) -> float:
    """Expansion of phi_n(sigma, y) in powers of 1/log(sigma).

    For n = 0:  sigma (2 log log sigma + 2 gamma + sum_j b_{j,0}/log^j sigma),
    for n = 1:          2 log log sigma + 2 gamma + sum_j b_{j,1}/log^j sigma,
    for n = 2:  (1/sigma) sum_j b_{j,2}/log^j sigma,

    each truncated at j = J; the neglected remainder is estimated by
    :func:`phi_asymptotic_remainder`.
    """
    if not (y >= sigma >= 3):
        raise DomainError("phi_asymptotic requires y >= sigma >= 3")
    if n not in (0, 1, 2):
        raise DomainError("phi_asymptotic supports orders n = 0, 1, 2")
    if not 1 <= J <= J_MAX:
        raise DomainError(f"J must be in 1..{J_MAX}")
    log_s = math.log(sigma)
    series = math.fsum(
        coefficient_b(j, n) / log_s**j for j in range(1, J + 1)
    )
    if n == 0:
        return sigma * (2.0 * math.log(log_s) + 2.0 * EULER_GAMMA + series)
    if n == 1:
        return 2.0 * math.log(log_s) + 2.0 * EULER_GAMMA + series
    return series / sigma


def phi_asymptotic_remainder(sigma: float, y: float, n: int, J: int) -> float:
    """Size of the remainder dropped by :func:`phi_asymptotic`.

    The shape is R_J(sigma, y) = 1/log^{J+1} sigma + sigma/(y log y),
    carried with the same outer scaling as the expansion itself (sigma for
    n = 0, 1 for n = 1, 1/sigma for n = 2); the implied constant is left to
    the caller's tolerance.
    """
    if not (y >= sigma >= 3):
        raise DomainError("remainder requires y >= sigma >= 3")
    r = math.log(sigma) ** -(J + 1) + sigma / (y * math.log(y))
    scale = {0: sigma, 1: 1.0, 2: 1.0 / sigma}[n]
    return scale * r


def moment_complex(
    s: complex, y: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> complex:
    """log E[ L(1, y)^s ] for complex s, as a log-value.

    The real part is exact in branch terms; the imaginary part is the
    continuous continuation from the real axis, obtained per prime by
    stepping tau from 0 and unwrapping the factor's phase (each local
    moment is nonzero, so the continuation is well defined).
    """
    s = complex(s)
    y = float(y)
    if y < 2:
        raise DomainError("moment_complex requires y >= 2")
    sigma, tau = s.real, s.imag
    primes = primes_for(y)
    if tau == 0.0:
        prof = phi_profile(sigma, y, max_order=0, quad=quad, fast_path=False)
        return complex(prof.values[0], 0.0)
    re_parts: list[float] = []
    im_parts: list[float] = []
    for p in primes:
        log_d0 = -2.0 * math.log1p(-1.0 / p)
        steps = int(np.ceil(abs(tau) * log_d0 / 0.5)) + 2
        th, w = panel_nodes(0.0, np.pi, nodes_for(p, sigma, tau))
        s2 = np.sin(th) ** 2
        logd = log_d_p(p, th)
        m = sigma * logd
        mx = float(np.max(m))
        kern = np.exp(m - mx) * s2 * w
        for _ in range(5):
            tgrid = np.linspace(0.0, tau, steps)
            vals = np.exp(1j * np.outer(logd, tgrid))
            line = kern @ vals
            args = np.unwrap(np.angle(line))
            if np.max(np.abs(np.diff(args))) < 2.5:
                break
            steps *= 2
        else:
            raise AccuracyError(
                f"phase tracking for p={p} did not stabilize at {steps} steps"
            )
        re_parts.append(mx + math.log(abs(line[-1]) * 2.0 / np.pi))
        im_parts.append(float(args[-1]))
    return complex(math.fsum(re_parts), math.fsum(im_parts))


class MomentLine:
    """Centered complex log-moment along the vertical line Re s = sigma.

    Precomputes the tilted angular kernels once; calling the object with an
    array of imaginary offsets tau returns

        Lambda(tau) = log E(sigma + i tau, y) - phi_0 - i tau phi_1,

    with each prime's factor taken on the principal branch after removing
    its linear phase (the removal keeps every factor's argument small, and
    the downstream contour integrand only needs the total phase mod 2 pi).
    ``tau_max`` sizes the angular rules for the intended oscillation range.
    """

    def __init__(
        self,
        sigma: float,
        y: float,
        quad: QuadratureSpec = DEFAULT_QUAD,
        tau_max: float = 0.0,
    ) -> None:
        self.sigma = float(sigma)
        self.y = float(y)
        self.tau_max = float(tau_max)
        primes = primes_for(y)
        self._buckets: list[tuple[np.ndarray, np.ndarray]] = []
        parts0: list[np.ndarray] = []
        parts1: list[np.ndarray] = []
        parts2: list[np.ndarray] = []
        for lo, hi, n in _layout(primes, sigma, quad, tau_max=tau_max):
            w, s2, logd = _bucket_tables(primes[lo:hi].astype(float), n)
            m = self.sigma * logd
            mx = np.max(m, axis=1)
            kern = np.exp(m - mx[:, None]) * s2[None, :] * w[None, :]
            z = kern.sum(axis=1)
            mean = (kern * logd).sum(axis=1) / z
            logd -= mean[:, None]  # centred in place: no second (p, n) table
            var = (kern * logd**2).sum(axis=1) / z
            self._buckets.append((kern / z[:, None], logd))
            parts0.append(mx + np.log(z * (2.0 / np.pi)))
            parts1.append(mean)
            parts2.append(var)
        self.phi0 = math.fsum(np.concatenate(parts0))
        self.phi1 = math.fsum(np.concatenate(parts1))
        self.phi2 = math.fsum(np.concatenate(parts2))

    def __call__(self, taus: np.ndarray) -> np.ndarray:
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        out = np.zeros(taus.size, dtype=complex)
        chunk = max(1, 2_000_000 // max(sum(k.size for k, _ in self._buckets), 1))
        for lo in range(0, taus.size, chunk):
            tg = taus[lo : lo + chunk]
            for kern, centred in self._buckets:
                phase = centred[:, :, None] * tg[None, None, :]
                out[lo : lo + chunk] += _log_factors(kern, np.exp(1j * phase))
        return out

    def grid(self, tau0: float, h: float, m: int) -> np.ndarray:
        """Lambda(tau0 + j h), j < m, as ``self(taus)`` up to rounding: the
        phases e^{i tau (log D_p - mean)} advance by one multiply per node."""
        out = np.zeros(m, dtype=complex)
        for kern, centred in self._buckets:
            z = np.exp(1j * tau0 * centred)
            step = np.exp(1j * h * centred)
            for j in range(m):
                out[j] += _log_factors(kern, z[:, :, None])[0]
                z *= step
        return out


def _log_factors(kern: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_p log(sum_n kern z) for phases z of shape (p, n, m); log|v| + i arg v
    is np.log's principal branch, an order of magnitude faster."""
    vals = np.einsum("pn,pnm->pm", kern, z)
    return (np.log(np.abs(vals)) + 1j * np.angle(vals)).sum(axis=0)


@dataclass(frozen=True)
class DecayPoint:
    """One vertical-line modulus sample against its regime bound."""

    tau: float
    ratio: float  #: |E(sigma + i tau, y)| / E(sigma, y)
    regime: int  #: 1 trivial, 2 Gaussian, 3 stretched-exponential
    bound: float
    ok: bool


@dataclass(frozen=True)
class DecayReport:
    sigma: float
    y: float
    delta: float
    points: tuple[DecayPoint, ...]
    all_ok: bool


def decay_ratio_check(
    sigma: float,
    y: float,
    tau_grid,
    delta: float = DECAY_DELTA,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> DecayReport:
    """Classify |E(sigma+i tau, y)|/E(sigma, y) into its decay regimes.

    Regimes (boundaries in |tau|): below c1 sqrt(sigma) log sigma, and
    above y^(1/delta), only the trivial bound 1 is claimed; between that
    and sigma, a Gaussian bound exp(-c2 tau^2 / (sigma log^2 sigma));
    between sigma and y^(1/delta), a stretched-exponential bound
    exp(-c3 |tau|^delta). The constants are frozen calibrations, not
    claims about any theoretical implied constants.
    """
    sigma = float(sigma)
    y = float(y)
    if not (y >= sigma >= 3):
        raise DomainError("decay_ratio_check requires y >= sigma >= 3")
    if not 0.0 < delta < 0.25:
        raise DomainError("delta must lie in (0, 1/4)")
    line = MomentLine(sigma, y, quad=quad, tau_max=float(np.max(np.abs(tau_grid))))
    log_s = math.log(sigma)
    t_low = DECAY_C1 * math.sqrt(sigma) * log_s
    t_high = y ** (1.0 / delta)
    points = []
    for tau in tau_grid:
        tau = float(tau)
        ratio = float(np.exp(np.real(line(np.asarray([tau]))[0])))
        at = abs(tau)
        if at <= t_low or at >= t_high:
            regime, bound = 1, 1.0
        elif at <= sigma:
            regime = 2
            bound = math.exp(-DECAY_C2 * tau**2 / (sigma * log_s**2))
        else:
            regime = 3
            bound = math.exp(-DECAY_C3 * at**delta)
        # the trivial bound holds in every regime; allow quadrature fuzz
        ok = ratio <= min(bound, 1.0) * (1.0 + 1e-9)
        points.append(DecayPoint(tau=tau, ratio=ratio, regime=regime, bound=bound, ok=ok))
    return DecayReport(
        sigma=sigma,
        y=y,
        delta=delta,
        points=tuple(points),
        all_ok=all(pt.ok for pt in points),
    )
