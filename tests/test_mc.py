"""Monte Carlo estimators: angle sampler, moments, plain and tilted tails.

Every stochastic check runs with a fixed seed, so the suite is exactly
reproducible; seeds were not tuned (first choice kept unless a z-score
legitimately exceeded its 4-sigma budget, which did not happen).
"""

import math
import tracemalloc

import numpy as np
import pytest
from test_acceptance import Budget

from eulertails.errors import AccuracyError, DomainError
from eulertails.mc import (
    BLOCK,
    TABLE_CELLS,
    SamplerConfig,
    TiltedTables,
    _log_product,
    block_sizes,
    empirical_moment,
    estimate_tail_plain,
    estimate_tail_tilted,
    invert_angle_cdf,
    plain_block_hits,
    rng_for_block,
    sample_angle,
    tilted_block_stats,
)
from eulertails.primes import mertens_log_sum, primes_for
from eulertails.profile import phi_profile
from eulertails.saddle import lower_target, solve_saddle, upper_target
from eulertails.tails import tail_saddle, tail_saddle_lower


def angle_cdf(theta):
    return (theta - np.sin(theta) * np.cos(theta)) / math.pi


# Reference copies of the one-shot samplers: every block drawn in one piece,
# twelve Newton steps for every angle, and one searchsorted per prime.


def _ref_invert_angle_cdf(u):
    u = np.asarray(u, dtype=float)
    flip = u > 0.5
    v = np.where(flip, 1.0 - u, u)
    th = np.cbrt(1.5 * np.pi * v)
    for _ in range(12):
        f = (th - np.sin(th) * np.cos(th)) / np.pi - v
        d = 2.0 * np.sin(th) ** 2 / np.pi
        th = np.clip(th - f / np.maximum(d, 1e-18), 0.0, 0.5 * np.pi)
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
        th = th.copy()
        th[bad] = 0.5 * (lo + hi)
    return np.where(flip, np.pi - th, th)


def _ref_plain_log_l(cfg, block):
    primes = primes_for(cfg.y)
    u = rng_for_block(cfg, block).random((block_sizes(cfg.n_samples)[block], primes.size))
    p = primes.astype(float)
    theta = _ref_invert_angle_cdf(u)
    return (-np.log(1.0 - 2.0 * np.cos(theta) / p + p**-2.0)).sum(axis=-1)


def _ref_tables(y, kappa):
    p = primes_for(y)[:, None].astype(float)
    edges = np.linspace(0.0, np.pi, TABLE_CELLS + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    delta = np.pi / TABLE_CELLS

    def tilted_log(theta):
        return kappa * -np.log(1.0 - 2.0 * np.cos(theta)[None, :] / p + p**-2.0)

    g_edges, g_mids = tilted_log(edges), tilted_log(mids)
    g_max = g_edges.max(axis=1, keepdims=True)
    f_edges = np.exp(g_edges - g_max) * np.sin(edges)[None, :] ** 2
    f_mids = np.exp(g_mids - g_max) * np.sin(mids)[None, :] ** 2
    masses = (delta / 6.0) * (f_edges[:, :-1] + 4.0 * f_mids + f_edges[:, 1:])
    masses = np.maximum(masses, 1e-300)
    total = masses.sum(axis=1, keepdims=True)
    return np.cumsum(masses, axis=1) / total, np.log(masses) - np.log(total) - math.log(delta)


def _ref_tilted_block_stats(t, tables, cfg, block, tail):
    n_b = block_sizes(cfg.n_samples)[block]
    thr = upper_target(t) if tail == "upper" else lower_target(t)
    u = rng_for_block(cfg, block).random((n_b, tables.primes.size, 2))
    log_w = np.zeros(n_b)
    log_l = np.zeros(n_b)
    log_two_over_pi = math.log(2.0 / math.pi)
    for i, p in enumerate(tables.primes):
        cell = np.minimum(
            np.searchsorted(tables.cum[i], u[:, i, 0], side="right"),
            TABLE_CELLS - 1,
        )
        theta = (cell + u[:, i, 1]) * tables.delta
        with np.errstate(divide="ignore"):
            log_st = log_two_over_pi + 2.0 * np.log(np.sin(theta))
        log_w += log_st - tables.log_q[i][cell]
        log_l -= np.log(1.0 - 2.0 * np.cos(theta) / p + p**-2.0)
    lw = log_w[log_l >= thr if tail == "upper" else log_l <= thr]
    if lw.size == 0:
        return -math.inf, -math.inf, 0, n_b
    m = float(np.max(lw))
    lse = m + math.log(float(np.exp(lw - m).sum()))
    lse2 = 2.0 * m + math.log(float(np.exp(2.0 * (lw - m)).sum()))
    return lse, lse2, int(lw.size), n_b


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SamplerConfig(seed=-1, n_samples=10, y=30.0)
        with pytest.raises(DomainError):
            SamplerConfig(seed=1 << 64, n_samples=10, y=30.0)
        with pytest.raises(DomainError):
            SamplerConfig(seed=0, n_samples=0, y=30.0)
        with pytest.raises(DomainError):
            SamplerConfig(seed=0, n_samples=10, y=1.0)
        with pytest.raises(DomainError):
            SamplerConfig(seed=0, n_samples=10, y=30.0, stream_id=-1)

    def test_block_sizes(self):
        assert block_sizes(BLOCK) == [BLOCK]
        assert block_sizes(BLOCK + 1) == [BLOCK, 1]
        assert block_sizes(3 * BLOCK + 17) == [BLOCK, BLOCK, BLOCK, 17]
        assert sum(block_sizes(123_456)) == 123_456

    def test_block_rng_reproducible(self):
        cfg = SamplerConfig(seed=42, n_samples=10, y=30.0)
        a = rng_for_block(cfg, 3).random(8)
        b = rng_for_block(cfg, 3).random(8)
        assert np.array_equal(a, b)

    def test_streams_are_separate(self):
        base = SamplerConfig(seed=42, n_samples=10, y=30.0)
        other = SamplerConfig(seed=42, n_samples=10, y=30.0, stream_id=1)
        assert not np.array_equal(
            rng_for_block(base, 0).random(8), rng_for_block(other, 0).random(8)
        )


class TestAngleSampler:
    def test_inversion_residual(self):
        u = np.concatenate(
            [
                np.array([1e-15, 1e-9, 1e-4]),
                np.linspace(0.001, 0.999, 997),
                1.0 - np.array([1e-15, 1e-9, 1e-4]),
            ]
        )
        theta = invert_angle_cdf(u)
        assert np.all((theta >= 0) & (theta <= math.pi))
        assert np.max(np.abs(angle_cdf(theta) - u)) < 1e-12

    def test_symmetry(self):
        u = np.linspace(0.01, 0.49, 25)
        assert np.allclose(
            invert_angle_cdf(1.0 - u), math.pi - invert_angle_cdf(u), atol=1e-12
        )

    def test_monotone(self):
        theta = invert_angle_cdf(np.linspace(1e-6, 1 - 1e-6, 2000))
        assert np.all(np.diff(theta) > 0)

    def test_sample_moments(self):
        rng = np.random.default_rng(2026)
        theta = sample_angle(rng, 200_000)
        # E cos = 0 (sd 1/2), E cos^2 = 1/4 under (2/pi) sin^2
        assert abs(np.mean(np.cos(theta))) < 4 * 0.5 / math.sqrt(200_000)
        assert np.mean(np.cos(theta) ** 2) == pytest.approx(0.25, abs=0.005)

    def test_scalar_draw(self):
        rng = np.random.default_rng(0)
        theta = sample_angle(rng)
        assert np.ndim(theta) == 0 and 0 <= float(theta) <= math.pi

    def test_ks_statistic(self):
        rng = np.random.default_rng(2026)
        n = 20_000
        theta = np.sort(sample_angle(rng, n))
        grid = (np.arange(1, n + 1)) / n
        ks = np.max(
            np.maximum(
                np.abs(angle_cdf(theta) - grid),
                np.abs(angle_cdf(theta) - (grid - 1 / n)),
            )
        )
        assert ks < 1.63 / math.sqrt(n)  # 1% critical value


class TestRandomProduct:
    """log L rows of the samplers at forced angles."""

    def test_maximal_angles(self):
        # theta = 0 maximizes every factor: log L = 2 sum -log(1 - 1/p)
        primes = primes_for(100.0)
        got = _log_product(primes, np.zeros((2, primes.size)))
        assert got.shape == (2,) and got[0] == got[1]
        assert got[0] == pytest.approx(2.0 * mertens_log_sum(100.0).value, rel=1e-13)

    def test_central_angles(self):
        primes = primes_for(50.0)
        got = _log_product(primes, np.full((1, primes.size), math.pi / 2))[0]
        expected = -math.fsum(math.log1p(float(p) ** -2.0) for p in primes)
        assert got == pytest.approx(expected, rel=1e-13)


class TestMoments:
    def test_zeroth_moment_exact(self):
        cfg = SamplerConfig(seed=0, n_samples=2048, y=30.0)
        est = empirical_moment(0.0, cfg)
        assert est.mean == 1.0 and est.stderr == 0.0
        assert est.n == 2048 and not est.log_domain

    @pytest.mark.parametrize("s", (2.0, -2.0))
    def test_matches_profile_within_4_sigma(self, s):
        cfg = SamplerConfig(seed=7, n_samples=100_000, y=50.0)
        est = empirical_moment(s, cfg)
        ref = math.exp(phi_profile(s, 50.0).phi(0))
        assert abs(est.mean - ref) <= 4 * est.stderr

    def test_high_variance_advisory(self):
        cfg = SamplerConfig(seed=1, n_samples=64, y=200.0)
        est = empirical_moment(10.0, cfg)
        assert est.advisory == "high_variance"

    def test_domain(self):
        cfg = SamplerConfig(seed=0, n_samples=10, y=50.0)
        with pytest.raises(DomainError):
            empirical_moment(11.0, cfg)
        with pytest.raises(DomainError):
            empirical_moment(2.0, SamplerConfig(seed=0, n_samples=10, y=300.0))


class TestPlainTail:
    def test_upper_within_4_sigma_of_saddle(self):
        cfg = SamplerConfig(seed=20260825, n_samples=300_000, y=30.0)
        est = estimate_tail_plain(1.5, cfg)
        ref = math.exp(tail_saddle(1.5, 30.0).log_value)
        assert abs(est.mean - ref) <= 4 * est.stderr

    def test_lower_within_4_sigma_of_saddle(self):
        cfg = SamplerConfig(seed=20260825, n_samples=65_636, y=50.0)
        est = estimate_tail_plain(1.5, cfg, tail="lower")
        ref = math.exp(tail_saddle_lower(1.5, 50.0).log_value)
        assert abs(est.mean - ref) <= 4 * est.stderr

    def test_zero_hits_reports_bound(self):
        cfg = SamplerConfig(seed=3, n_samples=4096, y=80.0)
        est = estimate_tail_plain(2.5, cfg)
        assert est.advisory == "zero_hits_95_bound"
        assert est.mean == pytest.approx(-math.log(0.05) / 4096, rel=1e-15)
        assert est.stderr == 0.0

    def test_partition_invariance(self):
        # hits computed per block in any order recombine to the serial count
        cfg = SamplerConfig(seed=123, n_samples=2 * BLOCK + 500, y=30.0)
        serial = estimate_tail_plain(1.5, cfg)
        shuffled = [plain_block_hits(1.5, cfg, b) for b in (2, 0, 1)]
        assert sum(shuffled) / cfg.n_samples == serial.mean

    def test_block_index_validated(self):
        cfg = SamplerConfig(seed=0, n_samples=10, y=30.0)
        with pytest.raises(DomainError):
            plain_block_hits(1.5, cfg, 1)

    def test_tail_vocabulary(self):
        cfg = SamplerConfig(seed=0, n_samples=10, y=30.0)
        with pytest.raises(DomainError):
            estimate_tail_plain(1.5, cfg, tail="sideways")


class TestTiltedTail:
    def test_within_4_sigma_of_saddle(self):
        cfg = SamplerConfig(seed=20260825, n_samples=8192, y=50.0)
        est = estimate_tail_tilted(2.0, 9.799170, cfg)
        assert est.log_domain
        ref = tail_saddle(2.0, 50.0).log_value
        assert abs(est.mean - ref) <= 4 * est.stderr

    def test_weight_normalization(self):
        # a threshold far below the a.s. minimum of log L makes every
        # sample a hit, so the estimator returns log E[w] = log 1 = 0
        # up to sampling error -- a direct unbiasedness check
        cfg = SamplerConfig(seed=301, n_samples=100_000, y=50.0)
        est = estimate_tail_tilted(1e-130, 2.0, cfg)
        assert abs(est.mean) <= 4 * est.stderr
        assert est.stderr < 0.02

    def test_tilt_from_config(self):
        explicit = estimate_tail_tilted(
            2.0, 9.799170, SamplerConfig(seed=8, n_samples=4096, y=50.0)
        )
        implicit = estimate_tail_tilted(
            2.0,
            None,
            SamplerConfig(seed=8, n_samples=4096, y=50.0, tilt=9.799170),
        )
        assert implicit.mean == explicit.mean
        assert implicit.stderr == explicit.stderr

    def test_missing_tilt_rejected(self):
        cfg = SamplerConfig(seed=0, n_samples=16, y=50.0)
        with pytest.raises(DomainError):
            estimate_tail_tilted(2.0, None, cfg)

    def test_zero_hits_is_an_error(self):
        # nearly-plain sampling cannot reach the t = 3 threshold
        cfg = SamplerConfig(seed=5, n_samples=4096, y=50.0)
        with pytest.raises(AccuracyError):
            estimate_tail_tilted(3.0, 0.05, cfg)

    def test_partition_invariance(self):
        cfg = SamplerConfig(seed=124, n_samples=BLOCK + 100, y=50.0)
        kappa = 9.799170
        serial = estimate_tail_tilted(2.0, kappa, cfg)
        tables = TiltedTables(cfg.y, kappa)
        # compute per-block stats out of order, then combine in block order
        stats = {b: tilted_block_stats(2.0, tables, cfg, b) for b in (1, 0)}
        ordered = [stats[0], stats[1]]
        lse_w = np.logaddexp.reduce([s[0] for s in ordered])
        lse_w2 = np.logaddexp.reduce([s[1] for s in ordered])
        log_mean = float(lse_w) - math.log(cfg.n_samples)
        ratio = math.exp(float(lse_w2) - math.log(cfg.n_samples) - 2 * log_mean)
        stderr = math.sqrt(max(ratio - 1.0, 0.0) / cfg.n_samples)
        assert log_mean == serial.mean
        assert stderr == serial.stderr

    def test_lower_tail_tilts_negative(self):
        cfg = SamplerConfig(seed=9, n_samples=32_768, y=50.0)
        est = estimate_tail_tilted(1.5, 2.486801, cfg, tail="lower")
        ref = tail_saddle_lower(1.5, 50.0).log_value
        assert abs(est.mean - ref) <= 4 * est.stderr


class TestChunkedSamplers:
    """Row chunks, retired Newton entries and the guided cell search keep
    every bit of the one-shot samplers kept above."""

    def test_invert_matches_twelve_newton_steps(self):
        u = np.random.default_rng(21).random(1 << 20)
        edge = np.array(
            [0.0, 0.5, 1.0, 5e-324, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)]
        )
        for arr in (u, u**12, 1.0 - u**12, edge, u[:6000].reshape(40, 150)):
            got, ref = invert_angle_cdf(arr), _ref_invert_angle_cdf(arr)
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize(
        "t,y,n,tail",
        [
            (1.5, 30.0, BLOCK + 5, "upper"),
            (1.5, 50.0, BLOCK + 777, "lower"),
            (1.5, 1e3, 3000, "upper"),
        ],
    )
    def test_plain_matches_one_shot_draw(self, t, y, n, tail):
        cfg = SamplerConfig(seed=31, n_samples=n, y=y)
        thr = upper_target(t) if tail == "upper" else lower_target(t)
        for block in range(len(block_sizes(n))):
            log_l = _ref_plain_log_l(cfg, block)
            hits = log_l >= thr if tail == "upper" else log_l <= thr
            assert plain_block_hits(t, cfg, block, tail) == np.count_nonzero(hits)

    @pytest.mark.parametrize("s", (-3.0, 0.5, 2.0))
    def test_moment_matches_one_shot_draw(self, s):
        cfg = SamplerConfig(seed=32, n_samples=BLOCK + 300, y=50.0)
        vals = [np.exp(s * _ref_plain_log_l(cfg, b)) for b in (0, 1)]
        mean = math.fsum(float(v.sum()) for v in vals) / cfg.n_samples
        assert empirical_moment(s, cfg).mean == mean

    @pytest.mark.parametrize("y,kappa", [(50.0, 9.8), (30.0, -3.0), (1e3, 0.05), (1e3, 60.0)])
    def test_tables_match_one_shot_build(self, y, kappa):
        tab = TiltedTables(y, kappa)
        cum, log_q = _ref_tables(y, kappa)
        assert np.array_equal(tab.cum, cum)
        assert np.array_equal(tab.log_q, log_q)
        assert tab.guide.dtype == np.int32
        grid = np.arange(TABLE_CELLS + 1) / TABLE_CELLS
        for i in range(0, tab.primes.size, 7):
            assert np.array_equal(tab.guide[i], np.searchsorted(cum[i], grid, side="right"))

    @pytest.mark.parametrize(
        "t,y,kappa,n,tail",
        [
            (2.0, 50.0, 9.799170, BLOCK + 1, "upper"),
            (1.5, 50.0, 2.486801, 3001, "lower"),
            (1e-130, 50.0, 2.0, 2000, "upper"),  # every sample a hit
            (3.0, 50.0, 0.05, 2000, "upper"),  # no hits
            (3.0, 1e3, None, 600, "upper"),
            (2.0, 1e3, 60.0, 600, "lower"),
        ],
    )
    def test_tilted_matches_per_prime_loop(self, t, y, kappa, n, tail):
        if kappa is None:
            kappa = solve_saddle(t, y).kappa
        tables = TiltedTables(y, kappa if tail == "upper" else -kappa)
        cfg = SamplerConfig(seed=33, n_samples=n, y=y)
        for block in range(len(block_sizes(n))):
            got = tilted_block_stats(t, tables, cfg, block, tail)
            assert got == _ref_tilted_block_stats(t, tables, cfg, block, tail)

    def test_one_row_blocks_sum_in_prime_order(self):
        # np.add.reduce(axis=0) sums a (primes, 1) chunk pairwise, not in order
        tables = TiltedTables(1e3, 2.0)
        for seed in range(8):
            cfg = SamplerConfig(seed=seed, n_samples=BLOCK + 1, y=1e3)
            got = tilted_block_stats(1e-130, tables, cfg, 1)
            assert got == _ref_tilted_block_stats(1e-130, tables, cfg, 1, "upper")

    def test_block_memory_is_bounded(self):
        # one-shot draws at y = 1e4 took 80 MB (tilted) and 40 MB (plain)
        cfg = SamplerConfig(seed=34, n_samples=4096, y=1e4)
        tables = TiltedTables(1e4, solve_saddle(3.0, 1e4).kappa)
        with Budget(10.0):
            for run in (
                lambda: tilted_block_stats(3.0, tables, cfg, 0),
                lambda: plain_block_hits(3.0, cfg, 0),
            ):
                tracemalloc.start()
                try:
                    run()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


class TestTiltedTables:
    def test_cdf_structure(self):
        tab = TiltedTables(50.0, 9.8)
        assert tab.cum.shape == (primes_for(50.0).size, 4096)
        assert np.all(np.diff(tab.cum, axis=1) >= 0)
        assert np.allclose(tab.cum[:, -1], 1.0, atol=1e-12)

    def test_density_normalized(self):
        tab = TiltedTables(30.0, -3.0)
        mass = np.exp(tab.log_q).sum(axis=1) * tab.delta
        assert np.allclose(mass, 1.0, atol=1e-12)

    def test_peak_location_tracks_tilt_sign(self):
        # positive kappa favors theta near 0; negative kappa near pi
        pos = TiltedTables(30.0, 8.0)
        neg = TiltedTables(30.0, -8.0)
        cell_pos = int(np.argmax(pos.log_q[0]))
        cell_neg = int(np.argmax(neg.log_q[0]))
        assert cell_pos < 4096 // 2 < cell_neg
