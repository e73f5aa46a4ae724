"""Monte Carlo simulation of the random Euler product.

Samples Sato-Tate angles (density (2/pi) sin^2 theta on [0, pi]), builds
log L(1, y) = -sum_{p<=y} log(1 - 2 cos(theta_p)/p + p^-2) with independent
angles, and estimates tail probabilities and moments. Two tail estimators:

* plain: indicator frequency, usable while the expected hit count is
  reasonable (t up to ~2.5 for millions of samples);
* tilted: importance sampling with per-prime angle proposals proportional
  to D_p(theta)^kappa sin^2 theta (kappa from the saddle solver), which
  keeps roughly half the proposals above the threshold at any t. Proposals
  are drawn from a per-prime tabulated density, piecewise constant on 4096
  cells with Simpson cell masses; weights divide by the piecewise-constant
  density actually sampled, so the estimator is unbiased by construction,
  independent of table resolution. All weight arithmetic is in log-domain.

Reproducibility contract: samples are processed in blocks of 2^15; block b
of a run draws from a counter-based generator seeded with the tuple
(seed, stream_id, b). Within a block, draws are used in consecutive row
chunks of at most 2^17 uniforms, which give the same numbers as one draw.
Estimates combine per-block statistics in block order with exact
(compensated / log-sum-exp) reductions, so any distribution of whole
blocks across workers reproduces the serial result bit for bit; tests
exercise exactly this partition invariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CHUNK_DOUBLES
from .errors import AccuracyError, DomainError
from .local import inv_d_p, log_d_p
from .primes import primes_for
from .saddle import TAILS, lower_target, upper_target

#: samples per RNG block (fixed partition of sample indices to substreams)
BLOCK = 1 << 15

#: cells of the per-prime tilted proposal table
TABLE_CELLS = 4096

#: most uniforms a sampler holds at once (1 MB of doubles)
CHUNK_DRAWS = CHUNK_DOUBLES


@dataclass(frozen=True)
class SamplerConfig:
    """Seeded description of one simulation run."""

    seed: int
    n_samples: int
    y: float
    tilt: float | None = None  #: kappa of the tilted proposal, if any
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")
        if self.n_samples < 1:
            raise DomainError("n_samples must be >= 1")
        if self.y < 2:
            raise DomainError("y must be >= 2")
        if self.tilt is not None and not math.isfinite(self.tilt):
            raise DomainError("tilt must be finite")
        if self.stream_id < 0:
            raise DomainError("stream_id must be >= 0")


@dataclass(frozen=True)
class McEstimate:
    """Simulation estimate; ``mean`` is a log-probability when log_domain."""

    mean: float
    stderr: float
    n: int
    log_domain: bool
    advisory: str | None = None


def rng_for_block(config: SamplerConfig, block: int) -> np.random.Generator:
    """The counter-based generator owning sample indices
    [block * 2^15, (block+1) * 2^15) of this config."""
    seq = np.random.SeedSequence((config.seed, config.stream_id, block))
    return np.random.Generator(np.random.Philox(seq))


def block_sizes(n_samples: int) -> list[int]:
    """Sizes of the consecutive sample blocks of a run of n_samples."""
    full, rest = divmod(n_samples, BLOCK)
    return [BLOCK] * full + ([rest] if rest else [])


def _row_chunks(rng: np.random.Generator, n_rows: int, width: int):
    """(rows, uniforms) over consecutive row chunks of at most CHUNK_DRAWS
    draws; together they hold the numbers of rng.random((n_rows, width))."""
    step = max(1, CHUNK_DRAWS // width)
    for start in range(0, n_rows, step):
        yield slice(start, start + step), rng.random((min(step, n_rows - start), width))


def invert_angle_cdf(u: np.ndarray) -> np.ndarray:
    """theta with (theta - sin theta cos theta)/pi = u, elementwise.

    Twelve Newton steps from the small-angle start (3 pi u / 2)^(1/3),
    folded onto [0, pi/2] by the symmetry F(pi - theta) = 1 - F(theta),
    with a bisection fallback for any entry still above 1e-12 residual. An
    entry whose iterate repeats bit for bit (a fixed point or a 2-cycle)
    leaves with the value its 12th iterate would have, so the result is
    exactly that of twelve steps.
    """
    u = np.asarray(u, dtype=float)
    flip = u > 0.5
    v = np.where(flip, 1.0 - u, u)
    th = np.cbrt(1.5 * np.pi * v).ravel()
    out, at, vk, prev = np.empty(th.size), np.arange(th.size), v.ravel(), th
    for k in range(1, 13):
        s = np.sin(th)
        f = (th - s * np.cos(th)) / np.pi - vk
        d = 2.0 * s**2 / np.pi
        new = np.clip(th - f / np.maximum(d, 1e-18), 0.0, 0.5 * np.pi)
        bits = new.view(np.int64)
        done = (bits == th.view(np.int64)) | (bits == prev.view(np.int64))
        # a repeat persists, so retire once a quarter of the entries repeat;
        # x_12 of a 2-cycle {x_k-1, x_k} is its even-indexed member
        if 4 * np.count_nonzero(done) >= done.size:
            out[at[done]] = (th if k % 2 else new)[done]
            at, vk, th, new = (a[~done] for a in (at, vk, th, new))
        prev, th = th, new
    out[at] = th
    th = out.reshape(u.shape)
    bad = np.abs((th - np.sin(th) * np.cos(th)) / np.pi - v) > 1e-12
    if np.any(bad):
        lo = np.zeros(np.count_nonzero(bad))
        hi = np.full_like(lo, 0.5 * np.pi)
        vb = v[bad]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            high = (mid - np.sin(mid) * np.cos(mid)) / np.pi > vb
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
        th[bad] = 0.5 * (lo + hi)
    return np.where(flip, np.pi - th, th)


def sample_angle(rng: np.random.Generator, size: int | None = None):
    """Sato-Tate angle draw(s): scalar by default, array for given size."""
    u = rng.random() if size is None else rng.random(size)
    out = invert_angle_cdf(np.asarray(u))
    return float(out) if size is None else out


def _log_product(primes: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """log L rows for an (n, len(primes)) matrix of angles."""
    return log_d_p(np.asarray(primes, dtype=float), theta).sum(axis=-1)


def _plain_log_l(primes: np.ndarray, rng: np.random.Generator, n_rows: int) -> np.ndarray:
    """log L of n_rows plain samples, drawn and inverted in row chunks."""
    log_l = np.empty(n_rows)
    for rows, u in _row_chunks(rng, n_rows, primes.size):
        log_l[rows] = _log_product(primes, invert_angle_cdf(u))
    return log_l


# ---------------------------------------------------------------------------
# Plain estimators.
# ---------------------------------------------------------------------------


def empirical_moment(s: float, config: SamplerConfig) -> McEstimate:
    """Sample mean of L(1, y)^s over plain Sato-Tate draws.

    Restricted to |s| <= 10 and y <= 200, where the plain-sampling variance
    is a workable oracle; an advisory flags estimates whose standard error
    exceeds half the mean (for nonnegative samples the empirical ratio is
    capped at sqrt((n-1)/n), so "exceeds the mean" would never trigger).
    """
    if abs(s) > 10:
        raise DomainError("empirical_moment supports |s| <= 10")
    if config.y > 200:
        raise DomainError("empirical_moment supports y <= 200")
    primes = primes_for(config.y)
    sums: list[float] = []
    sums_sq: list[float] = []
    for block, n_b in enumerate(block_sizes(config.n_samples)):
        vals = np.exp(s * _plain_log_l(primes, rng_for_block(config, block), n_b))
        sums.append(float(vals.sum()))
        sums_sq.append(float((vals * vals).sum()))
    n = config.n_samples
    mean = math.fsum(sums) / n
    var = max(math.fsum(sums_sq) / n - mean * mean, 0.0)
    stderr = math.sqrt(var / n)
    advisory = "high_variance" if stderr > 0.5 * abs(mean) else None
    return McEstimate(mean=mean, stderr=stderr, n=n, log_domain=False, advisory=advisory)


def _threshold(t: float, tail: str) -> float:
    if tail not in TAILS:
        raise DomainError(f"tail must be one of {TAILS}")
    return upper_target(t) if tail == "upper" else lower_target(t)


def plain_block_hits(
    t: float, config: SamplerConfig, block: int, tail: str = "upper"
) -> int:
    """Number of threshold crossings inside one sample block."""
    sizes = block_sizes(config.n_samples)
    if not 0 <= block < len(sizes):
        raise DomainError(f"block must be in 0..{len(sizes) - 1}")
    thr = _threshold(t, tail)
    primes = primes_for(config.y)
    logl = _plain_log_l(primes, rng_for_block(config, block), sizes[block])
    hits = logl >= thr if tail == "upper" else logl <= thr
    return int(np.count_nonzero(hits))


def estimate_tail_plain(
    t: float, config: SamplerConfig, tail: str = "upper"
) -> McEstimate:
    """Indicator-frequency estimate of the tail probability (linear scale).

    With zero hits the point estimate is replaced by the one-sided 95%
    bound -log(0.05)/n and flagged.
    """
    hits = sum(
        plain_block_hits(t, config, block, tail)
        for block in range(len(block_sizes(config.n_samples)))
    )
    n = config.n_samples
    if hits == 0:
        return McEstimate(
            mean=-math.log(0.05) / n,
            stderr=0.0,
            n=n,
            log_domain=False,
            advisory="zero_hits_95_bound",
        )
    p_hat = hits / n
    return McEstimate(
        mean=p_hat,
        stderr=math.sqrt(p_hat * (1.0 - p_hat) / n),
        n=n,
        log_domain=False,
    )


# ---------------------------------------------------------------------------
# Exponentially tilted estimator.
# ---------------------------------------------------------------------------


class TiltedTables:
    """Per-prime piecewise-constant proposals ~ D_p(theta)^kappa sin^2.

    Cell masses are Simpson approximations of the tilted density on a
    uniform 4096-cell grid, floored at a tiny positive value so the
    proposal support is all of [0, pi]; ``log_q`` stores the exact log
    proposal density per cell, which is what the importance weights use.
    ``guide[i, b]`` counts the ``cum[i]`` entries <= b/4096, bracketing
    the cell of any uniform in [b/4096, (b+1)/4096).
    """

    def __init__(self, y: float, kappa: float) -> None:
        self.y = float(y)
        self.kappa = float(kappa)
        self.primes = primes_for(y)
        edges = np.linspace(0.0, np.pi, TABLE_CELLS + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        self.delta = delta = np.pi / TABLE_CELLS
        shape, width = (self.primes.size, TABLE_CELLS), TABLE_CELLS + 2
        self.cum, self.log_q = np.empty(shape), np.empty(shape)
        self.guide = np.empty((shape[0], TABLE_CELLS + 1), dtype=np.int32)
        for start in range(0, shape[0], CHUNK_DRAWS // TABLE_CELLS):
            rows = slice(start, start + CHUNK_DRAWS // TABLE_CELLS)
            p = self.primes[rows, None].astype(float)
            g_edges, g_mids = (kappa * log_d_p(p, x[None, :]) for x in (edges, mids))
            g_max = g_edges.max(axis=1, keepdims=True)
            f_edges = np.exp(g_edges - g_max) * np.sin(edges)[None, :] ** 2
            f_mids = np.exp(g_mids - g_max) * np.sin(mids)[None, :] ** 2
            masses = (delta / 6.0) * (f_edges[:, :-1] + 4.0 * f_mids + f_edges[:, 1:])
            masses = np.maximum(masses, 1e-300)
            total = masses.sum(axis=1, keepdims=True)
            cum = self.cum[rows] = np.cumsum(masses, axis=1) / total
            self.log_q[rows] = np.log(masses) - np.log(total) - math.log(delta)
            # cum <= b/4096 iff ceil(4096 cum) <= b (4096 cum is exact); the
            # ceilings, at most 4097, are counted in 4098 bins per row
            first = np.ceil(cum * TABLE_CELLS).astype(np.intp)
            first += width * np.arange(len(cum))[:, None]
            counts = np.bincount(first.ravel(), minlength=len(cum) * width)
            self.guide[rows] = counts.reshape(-1, width).cumsum(axis=1)[:, :-1]

    def cells(self, u: np.ndarray) -> np.ndarray:
        """Proposal cell of every uniform in u, shape (primes, n): the count
        searchsorted(cum[i], u[i], side="right"), capped at the last cell."""
        row = np.arange(len(u))[:, None]
        at = (u * TABLE_CELLS).astype(np.intp) + (TABLE_CELLS + 1) * row  # u*4096 exact
        lo, hi = self.guide.ravel()[at].ravel(), self.guide.ravel()[at + 1].ravel()
        # cum[i] entries below lo are <= u and those from hi on are > u;
        # one probe at lo settles every bracket of width 0 or 1
        cum, u = self.cum.ravel(), u.ravel()
        base = np.repeat(np.arange(0, cum.size, TABLE_CELLS), len(u) // len(row))
        up = (cum[base + np.minimum(lo, TABLE_CELLS - 1)] <= u) & (lo < hi)
        lo += up
        todo = np.flatnonzero(up & (lo < hi))
        while todo.size:
            mid = (lo[todo] + hi[todo]) >> 1
            go = cum[base[todo] + mid] <= u[todo]
            lo[todo] = np.where(go, mid + 1, lo[todo])
            hi[todo] = np.where(go, hi[todo], mid)
            todo = todo[lo[todo] < hi[todo]]
        return np.minimum(lo, TABLE_CELLS - 1).reshape(at.shape)


def tilted_block_stats(
    t: float,
    tables: TiltedTables,
    config: SamplerConfig,
    block: int,
    tail: str = "upper",
) -> tuple[float, float, int, int]:
    """(logsumexp w, logsumexp w^2, hits, n) over one block's hit samples,
    where w is the importance weight of the plain measure against the
    tilted proposal."""
    sizes = block_sizes(config.n_samples)
    if not 0 <= block < len(sizes):
        raise DomainError(f"block must be in 0..{len(sizes) - 1}")
    n_b = sizes[block]
    thr = _threshold(t, tail)
    primes = tables.primes
    p = primes[:, None].astype(float)
    cell_at = TABLE_CELLS * np.arange(primes.size)[:, None]
    log_w, log_l = np.empty(n_b), np.empty(n_b)
    log_two_over_pi = math.log(2.0 / math.pi)
    for rows, u in _row_chunks(rng_for_block(config, block), n_b, 2 * primes.size):
        # (primes, rows) layout; x - (q - s) == x + (s - q), so subtracting
        # prime by prime from 0 repeats the per-prime sums bit for bit
        u_cell, u_off = np.ascontiguousarray(u.reshape(-1, primes.size, 2).T)
        cell = tables.cells(u_cell)
        theta = (cell + u_off) * tables.delta
        with np.errstate(divide="ignore"):
            log_st = log_two_over_pi + 2.0 * np.log(np.sin(theta))
        neg_w = tables.log_q.ravel()[cell + cell_at] - log_st
        log_w[rows] = np.subtract.reduce(neg_w, axis=0, initial=0.0)
        log_d = np.log(inv_d_p(p, np.cos(theta)))
        log_l[rows] = np.subtract.reduce(log_d, axis=0, initial=0.0)
    hits = log_l >= thr if tail == "upper" else log_l <= thr
    lw = log_w[hits]
    if lw.size == 0:
        return -math.inf, -math.inf, 0, n_b
    m = float(np.max(lw))
    lse = m + math.log(float(np.exp(lw - m).sum()))
    lse2 = 2.0 * m + math.log(float(np.exp(2.0 * (lw - m)).sum()))
    return lse, lse2, int(lw.size), n_b


def estimate_tail_tilted(
    t: float,
    kappa: float | None,
    config: SamplerConfig,
    tail: str = "upper",
) -> McEstimate:
    """Tilted importance-sampling tail estimate, in log-domain.

    ``kappa`` should be the saddle tilt for (t, y) (the lower tail tilts
    by -kappa internally); when None, ``config.tilt`` is used. ``mean`` is
    the log tail probability; ``stderr`` is the delta-method standard
    error of that log value.
    """
    if kappa is None:
        kappa = config.tilt
    if kappa is None:
        raise DomainError("estimate_tail_tilted needs kappa (or config.tilt)")
    if tail not in TAILS:
        raise DomainError(f"tail must be one of {TAILS}")
    signed = kappa if tail == "upper" else -kappa
    tables = TiltedTables(config.y, signed)
    stats = [
        tilted_block_stats(t, tables, config, block, tail)
        for block in range(len(block_sizes(config.n_samples)))
    ]
    hits = sum(s[2] for s in stats)
    if hits == 0:
        raise AccuracyError(
            "tilted estimator saw no threshold crossings; the tilt does "
            "not match the threshold or n_samples is far too small"
        )
    n = config.n_samples
    lse_w = np.logaddexp.reduce([s[0] for s in stats])
    lse_w2 = np.logaddexp.reduce([s[1] for s in stats])
    log_mean = float(lse_w) - math.log(n)
    # delta method: var(log X) ~ var(X)/X^2, all formed from log-moments
    ratio = math.exp(float(lse_w2) - math.log(n) - 2.0 * log_mean)
    stderr = math.sqrt(max(ratio - 1.0, 0.0) / n)
    return McEstimate(mean=log_mean, stderr=stderr, n=n, log_domain=True)
