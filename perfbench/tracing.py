"""Layer tracing from outside the package.

:class:`Tracer` replaces the public functions of each ``eulertails`` layer
with wrappers that record spans (name, parent, start, end, plus counts taken
from call arguments and results). The package binds names with
``from .x import y``, so a function is replaced under every name, in every
``eulertails`` module, that refers to it; methods are replaced on their
class. :meth:`Tracer.uninstall` puts every original back.

:func:`summarize` turns the spans of one process into additive raw sums,
:func:`merge` combines the sums of several processes, and
:func:`layer_metrics` derives the per-layer metrics from them.
"""

from __future__ import annotations

import inspect
import math
import sys
import time

import numpy as np

# (module, attribute) of every wrapped function, by layer; "Class.method"
# names a method wrapped on its class
TARGETS = {
    "cli": ("eulertails.cli", ["main"]),
    "coefficients": (
        "eulertails.coefficients",
        [
            "coefficient_b",
            "coefficient_b_error",
            "coefficient_a",
            "coefficient_a_detail",
            "gamma0",
            "b_prime_coeffs",
            "kappa_expansion_coeffs",
            "a_star_detail",
            "a_star_coeffs",
            "compute_coefficients",
        ],
    ),
    "limitshape": (
        "eulertails.limitshape",
        [
            "g_fn",
            "g_deriv",
            "gp_minus_2",
            "h_fn",
            "h_deriv",
            "h_over_u2",
            "gp_over_u",
            "series_h_small",
            "log_w_shape",
            "w_shape_ratio",
        ],
    ),
    "quadrature": (
        "eulertails.quadrature",
        ["leggauss", "adaptive_simpson", "integrate", "gauss_legendre"],
    ),
    "primes": ("eulertails.primes", ["primes_up_to", "primes_for"]),
    "local": (
        "eulertails.local",
        [
            "local_moment",
            "local_moment_log",
            "local_moment_weighted",
            "local_log_derivatives",
            "local_approx",
            "local_approx_all",
        ],
    ),
    "profile": (
        "eulertails.profile",
        [
            "phi_profile",
            "moment_complex",
            "decay_ratio_check",
            "MomentLine.__init__",
            "MomentLine.__call__",
        ],
    ),
    "saddle": (
        "eulertails.saddle",
        ["solve_saddle", "solve_saddle_lower", "saddle_expansion"],
    ),
    "tails": (
        "eulertails.tails",
        [
            "tail_saddle",
            "tail_saddle_lower",
            "tail_expansion",
            "tail_perron",
            "tail_perron_lower",
        ],
    ),
    "mc": (
        "eulertails.mc",
        [
            "estimate_tail_plain",
            "estimate_tail_tilted",
            "plain_block_hits",
            "tilted_block_stats",
            "TiltedTables.__init__",
        ],
    ),
}

#: span name given to the integrand calls adaptive Simpson makes; their time
#: belongs to the layer that called the quadrature, not to quadrature
INTEGRAND = "integrand"


class Span:
    __slots__ = ("name", "parent", "start", "end", "phase", "data")

    def __init__(self, name: str, parent: int, phase: str) -> None:
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = time.perf_counter()
        self.end = math.nan
        self.data: dict | None = None


class Tracer:
    """Span recorder; install() wraps the layers, uninstall() restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "timed"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._primes_for = None

    # -- span bookkeeping ---------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, self.phase))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, hook=None):
        sig = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                bound = sig.bind(*args, **kwargs).arguments
                self.spans[idx].data = hook(bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _primes(self, y) -> int:
        return int(self._primes_for(y).size)

    # -- wrappers with counts -----------------------------------------------
    def _leggauss(self, fn):
        # every call is a span; only cache misses count as rule builds
        def wrapper(n):
            before = fn.cache_info().misses
            idx = self._open("quadrature.leggauss")
            try:
                result = fn(n)
            finally:
                self._close(idx)
            if fn.cache_info().misses == before:
                self.spans[idx].name = "quadrature.leggauss_hit"
            self.spans[idx].data = {"nodes": int(n)}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _adaptive_simpson(self, fn):
        def wrapper(f, *args, **kwargs):
            points = [0]

            def integrand(x):
                points[0] += int(np.size(x))
                idx = self._open(INTEGRAND)
                try:
                    return f(x)
                finally:
                    self._close(idx)

            idx = self._open("quadrature.adaptive_simpson")
            try:
                return fn(integrand, *args, **kwargs)
            finally:
                self._close(idx)
                self.spans[idx].data = {"points": points[0]}

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook_for(self, qualname: str):
        size_of_first = lambda b, r: {"points": int(np.size(next(iter(b.values()))))}
        hooks = {
            "phi_profile": lambda b, r: {
                "prime_sums": self._primes(b["y"])
                * (5 if b.get("max_order", 2) >= 3 else 1)
            },
            "MomentLine.__call__": lambda b, r: {
                "taus": int(np.size(b["taus"])),
                "tau_primes": int(np.size(b["taus"])) * self._primes(b["self"].y),
            },
            "solve_saddle": lambda b, r: {"iterations": r.iterations},
            "solve_saddle_lower": lambda b, r: {"iterations": r.iterations},
            "plain_block_hits": lambda b, r: self._block(b, draws=1),
            "tilted_block_stats": lambda b, r: dict(
                self._block(b, draws=2), lse=r[0], lse2=r[1], hits=r[2], n=r[3]
            ),
        }
        if qualname in hooks:
            return hooks[qualname]
        if qualname in TARGETS["limitshape"][1]:
            return size_of_first
        return None

    def _block(self, b, draws: int) -> dict:
        from eulertails.mc import block_sizes

        rows = block_sizes(b["config"].n_samples)[b["block"]]
        primes = self._primes(b["config"].y)
        return {"sample_primes": rows * primes, "bytes": rows * primes * 8 * draws}

    # -- install / uninstall ------------------------------------------------
    def install(self) -> None:
        """Wrap the targets in every imported ``eulertails`` module (a
        module not imported yet, such as ``cli`` in a library process, is
        not in use and stays as it is)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "eulertails" or name.startswith("eulertails."))
        ]
        self._primes_for = sys.modules["eulertails.primes"].primes_for
        for layer, (module_name, names) in TARGETS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for qualname in names:
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    span = f"{layer}.{qualname}"
                    wrapped = self._wrap(orig, span, self._hook_for(qualname))
                    setattr(cls, meth, wrapped)
                    self._patches.append((cls, meth, orig))
                    continue
                orig = getattr(module, qualname)
                if qualname == "leggauss":
                    wrapped = self._leggauss(orig)
                elif qualname == "adaptive_simpson":
                    wrapped = self._adaptive_simpson(orig)
                else:
                    wrapped = self._wrap(orig, f"{layer}.{qualname}", self._hook_for(qualname))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
                            self._patches.append((m, attr, orig))

    def uninstall(self) -> bool:
        """Restore every original; True when each binding reads it again."""
        patches, self._patches = self._patches, []
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)
        return all(getattr(owner, attr) is orig for owner, attr, orig in patches)


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------

#: raw keys combined by max instead of sum
_MAX_KEYS = ("quadrature.max_rule_nodes", "mc.block_bytes_max")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[Span], phase: str = "timed") -> dict[str, float]:
    """Additive raw sums over the spans of one process in one phase."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start

    def ancestors(i: int):
        p = spans[i].parent
        while p >= 0:
            yield spans[p]
            p = spans[p].parent

    raw: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        raw[key] = raw.get(key, 0.0) + value

    def bump_max(key: str, value: float) -> None:
        raw[key] = max(raw.get(key, 0.0), value)

    ess: dict[int, list[tuple[float, float]]] = {}
    for i, s in enumerate(spans):
        if s.phase != phase:
            continue
        dur = s.end - s.start
        self_s = dur - child_time[i]
        data = s.data or {}
        layer = _layer(s.name)
        anc = list(ancestors(i))
        if s.name != INTEGRAND:
            add(f"{layer}.spans", 1)
        # inclusive time of a layer counts only its outermost spans
        if s.name != INTEGRAND and not any(_layer(a.name) == layer for a in anc):
            add(f"{layer}.incl_s", dur)
            add(f"{layer}.points_outer", data.get("points", 0))
        name = s.name
        if name == INTEGRAND:
            owner = next((a.name for a in anc if _layer(a.name) != "quadrature"), "")
            if owner.startswith("tails.tail_perron"):
                add("tails.perron_self_s", self_s)
        elif name == "quadrature.leggauss":
            add("quadrature.rule_builds", 1)
            add("quadrature.rule_build_s", dur)
            bump_max("quadrature.max_rule_nodes", data["nodes"])
        elif name == "quadrature.adaptive_simpson":
            add("quadrature.simpson_calls", 1)
            add("quadrature.simpson_points", data["points"])
            add("quadrature.simpson_self_s", self_s)
        elif name == "quadrature.integrate":
            if any(_layer(a.name) == "coefficients" for a in anc):
                add("coefficients.integrals", 1)
        elif name == "primes.primes_up_to":
            add("primes.sieve_calls", 1)
            add("primes.sieve_s", dur)
        elif name == "local.local_log_derivatives":
            add("local.log_derivative_calls", 1)
        elif name == "profile.phi_profile":
            add("profile.phi_calls", 1)
            add("profile.phi_self_s", self_s)
            add("profile.phi_prime_sums", data["prime_sums"])
            if any(a.name.startswith("saddle.solve_saddle") for a in anc):
                add("saddle.profile_calls", 1)
        elif name == "profile.MomentLine.__init__":
            add("profile.line_builds", 1)
            add("profile.line_build_s", self_s)
        elif name == "profile.MomentLine.__call__":
            add("profile.line_taus", data["taus"])
            add("profile.line_call_s", self_s)
            add("profile.line_tau_primes", data["tau_primes"])
        elif name in ("saddle.solve_saddle", "saddle.solve_saddle_lower"):
            add("saddle.solves", 1)
            add("saddle.newton_iters", data["iterations"])
            if any(a.name == "tails.tail_expansion" for a in anc):
                add("tails.expansion_resolves", 1)
        elif name in ("tails.tail_saddle", "tails.tail_saddle_lower"):
            add("tails.saddle_gauss_s", dur)
        elif name == "tails.tail_expansion":
            add("tails.expansion_s", dur)
        elif name.startswith("tails.tail_perron"):
            add("tails.perron_self_s", self_s)
        elif name == "mc.TiltedTables.__init__":
            add("mc.table_build_s", self_s)
        elif name == "mc.tilted_block_stats":
            add("mc.tilted_s", self_s)
            add("mc.tilted_sample_primes", data["sample_primes"])
            add("mc.tilted_hits", data["hits"])
            add("mc.tilted_n", data["n"])
            bump_max("mc.block_bytes_max", data["bytes"])
            ess.setdefault(s.parent, []).append((data["lse"], data["lse2"]))
        elif name == "mc.plain_block_hits":
            add("mc.plain_s", self_s)
            add("mc.plain_sample_primes", data["sample_primes"])
            bump_max("mc.block_bytes_max", data["bytes"])
        if layer == "saddle" and name != INTEGRAND:
            add("saddle.self_s", self_s)
    # effective sample size of each tilted estimate, from its blocks' weights
    for blocks in ess.values():
        lse = float(np.logaddexp.reduce([b[0] for b in blocks]))
        lse2 = float(np.logaddexp.reduce([b[1] for b in blocks]))
        if math.isfinite(lse):
            add("mc.tilted_ess", math.exp(2.0 * lse - lse2))
    return raw


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key in _MAX_KEYS:
                out[key] = max(out.get(key, 0.0), value)
            else:
                out[key] = out.get(key, 0.0) + value
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics (without the cli ones) from merged raw sums."""
    g = lambda key: raw.get(key, 0.0)
    return {
        "coefficients.integrals": g("coefficients.integrals"),
        "coefficients.s": g("coefficients.incl_s"),
        "limitshape.points": g("limitshape.points_outer"),
        "limitshape.s": g("limitshape.incl_s"),
        "quadrature.rule_builds": g("quadrature.rule_builds"),
        "quadrature.rule_build_s": g("quadrature.rule_build_s"),
        "quadrature.max_rule_nodes": g("quadrature.max_rule_nodes"),
        "quadrature.simpson_calls": g("quadrature.simpson_calls"),
        "quadrature.simpson_points": g("quadrature.simpson_points"),
        "quadrature.simpson_self_s": g("quadrature.simpson_self_s"),
        "primes.sieve_calls": g("primes.sieve_calls"),
        "primes.sieve_s": g("primes.sieve_s"),
        "local.log_derivative_calls": g("local.log_derivative_calls"),
        "local.s": g("local.incl_s"),
        "profile.phi_calls": g("profile.phi_calls"),
        "profile.phi_self_s": g("profile.phi_self_s"),
        "profile.phi_ns_per_prime_sum": _ratio(
            g("profile.phi_self_s"), g("profile.phi_prime_sums"), 1e9
        ),
        "profile.line_builds": g("profile.line_builds"),
        "profile.line_build_s": g("profile.line_build_s"),
        "profile.line_taus": g("profile.line_taus"),
        "profile.line_ns_per_tau_prime": _ratio(
            g("profile.line_call_s"), g("profile.line_tau_primes"), 1e9
        ),
        "saddle.solves": g("saddle.solves"),
        "saddle.newton_iters": g("saddle.newton_iters"),
        "saddle.profile_calls_per_solve": _ratio(
            g("saddle.profile_calls"), g("saddle.solves")
        ),
        "saddle.self_s": g("saddle.self_s"),
        "tails.saddle_gauss_s": g("tails.saddle_gauss_s"),
        "tails.expansion_s": g("tails.expansion_s"),
        "tails.perron_self_s": g("tails.perron_self_s"),
        "tails.expansion_resolves": g("tails.expansion_resolves"),
        "mc.table_build_s": g("mc.table_build_s"),
        "mc.tilted_ns_per_sample_prime": _ratio(
            g("mc.tilted_s"), g("mc.tilted_sample_primes"), 1e9
        ),
        "mc.plain_ns_per_sample_prime": _ratio(
            g("mc.plain_s"), g("mc.plain_sample_primes"), 1e9
        ),
        "mc.tilted_hit_ratio": _ratio(g("mc.tilted_hits"), g("mc.tilted_n")),
        "mc.tilted_ess_ratio": _ratio(g("mc.tilted_ess"), g("mc.tilted_n")),
        "mc.block_bytes_max": g("mc.block_bytes_max"),
    }


#: unit of every per-layer metric :func:`layer_metrics` returns
UNITS = {
    name: (
        "ns"
        if "_ns_per_" in name
        else "s"
        if name.endswith("_s") or name.endswith(".s")
        else "B"
        if name.endswith("_bytes_max")
        else "1"
        if name.endswith("_ratio") or name.endswith("_per_solve")
        else "count"
    )
    for name in layer_metrics({})
}
