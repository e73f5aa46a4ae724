"""Command-line surface.

Subcommands ``constants | saddle | tail | mc | verify | table`` adapt the
library to files and pipelines. Conventions:

* stdout carries only the deterministic payload (stable bytes for fixed
  inputs, so runs can be diffed); files written via ``--out`` additionally
  embed the :class:`~eulertails.manifest.RunManifest` — as a leading
  ``# manifest:`` comment line in CSV, as a ``"manifest"`` key in JSON;
* tail tables use the fixed CSV schema
  ``t,y,method,J,log_value,error_indicator,seed`` with ``log_value`` the
  natural log of the tail probability (upper or lower per ``--tail``);
* exit codes: 0 ok, 1 domain/regime errors, 2 accuracy/consistency errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from .coefficients import COEFF_QUAD, compute_coefficients
from .errors import ConsistencyError, DomainError, EulertailsError
from .manifest import ARTIFACT_VERSION, ConstantRecord, RunManifest
from .mc import (
    BLOCK,
    SamplerConfig,
    TiltedTables,
    estimate_tail_plain,
    estimate_tail_tilted,
    plain_block_hits,
    rng_for_block,
    sample_angle,
    tilted_block_stats,
)
from .profile import moment_complex, phi_profile
from .quadrature import DEFAULT_QUAD, QuadratureSpec
from .saddle import SaddleSolution, solve_saddle
from .tails import (
    SmoothingParams,
    TailEstimate,
    tail_expansion,
    tail_perron,
    tail_saddle,
)

CSV_COLUMNS = ("t", "y", "method", "J", "log_value", "error_indicator", "seed")

_CONSTANT_COLUMNS = ("name", "j", "n", "value", "abs_error_estimate")


# ---------------------------------------------------------------------------
# Formatting and output plumbing.
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """Exact, deterministic cell rendering (floats via repr)."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        # repr(float(...)): numpy scalars pass the isinstance check but their
        # own repr is "np.float64(...)", which is not a valid CSV number.
        return repr(float(value))
    return str(value)


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])
    return buf.getvalue()


def _json_clean(rows) -> list[dict]:
    out = []
    for row in rows:
        clean = {}
        for k, v in row.items():
            clean[k] = None if isinstance(v, float) and math.isnan(v) else v
        out.append(clean)
    return out


def _emit(rows, columns, args, manifest: RunManifest) -> None:
    """Print payload to stdout; with --out also write the manifested file."""
    fmt = args.format
    if fmt == "csv":
        payload = _csv_text(columns, rows)
        file_text = f"# manifest: {manifest.to_json()}\n{payload}"
    else:
        payload = json.dumps({"rows": _json_clean(rows)}, indent=2) + "\n"
        file_text = (
            json.dumps(
                {"manifest": manifest.to_dict(), "rows": _json_clean(rows)}, indent=2
            )
            + "\n"
        )
    sys.stdout.write(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(file_text)


def _manifest(args, start: float, constants: dict | None = None) -> RunManifest:
    return RunManifest(
        command_line="eulertails " + " ".join(args.raw_argv),
        seed=getattr(args, "seed", None),
        quad=_quad_from(args),
        constants=constants or {},
        wall_time_s=time.monotonic() - start,
        artifact_version=ARTIFACT_VERSION,
    )


def _quad_from(args) -> QuadratureSpec:
    nodes = getattr(args, "quad_nodes", None)
    return DEFAULT_QUAD if nodes is None else DEFAULT_QUAD.with_nodes(nodes)


def _smoothing_from(args) -> SmoothingParams | None:
    lam = getattr(args, "lam", None)
    kernel_n = getattr(args, "kernel_n", None)
    tau_max = getattr(args, "tau_max", None)
    if lam is None and kernel_n is None and tau_max is None:
        return None
    if lam is None:
        raise DomainError("--N/--tau-max require --lambda as well")
    return SmoothingParams(
        lam=lam, N=kernel_n if kernel_n is not None else 1, tau_max=tau_max
    )


def _parse_float(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"{flag} takes a number, got {text!r}") from None


def _resolve_tilt(args, sol_kappa) -> float | None:
    """None for plain sampling, else the tilting parameter."""
    tilt = getattr(args, "tilt", None)
    if tilt is None:
        return None
    if tilt == "auto":
        return float(sol_kappa() if callable(sol_kappa) else sol_kappa)
    return _parse_float("--tilt", tilt)


def _row(t, y, method, J, log_value, error_indicator, seed) -> dict:
    return {
        "t": t,
        "y": y,
        "method": method,
        "J": J,
        "log_value": log_value,
        "error_indicator": error_indicator,
        "seed": seed,
    }


def _estimate_row(est: TailEstimate) -> dict:
    return _row(
        est.t, est.y, est.method, est.J, est.log_value, est.error_indicator, est.seed
    )


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    start = time.monotonic()
    rows = compute_coefficients(args.J, COEFF_QUAD).rows()
    constants = {
        row["name"]: ConstantRecord(
            value=row["value"], abs_error=row["abs_error_estimate"]
        )
        for row in rows
    }
    _emit(rows, _CONSTANT_COLUMNS, args, _manifest(args, start, constants))
    return 0


# ---------------------------------------------------------------------------
# saddle
# ---------------------------------------------------------------------------


def _solution_payload(sol: SaddleSolution) -> dict:
    return {
        "t": sol.t,
        "y": sol.y,
        "tail": "lower" if sol.lower else "upper",
        "kappa": sol.kappa,
        "log_kappa": sol.log_kappa,
        "target": sol.target,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "bracket_lo": sol.bracket[0],
        "bracket_hi": sol.bracket[1],
        "phi0": sol.profile_at_kappa.phi(0),
        "phi1": sol.profile_at_kappa.phi(1),
        "phi2": sol.profile_at_kappa.phi(2),
    }


def cmd_saddle(args) -> int:
    start = time.monotonic()
    quad = _quad_from(args)
    sol = solve_saddle(args.t, args.y, tol=args.tol, quad=quad, tail=args.tail)
    payload = _solution_payload(sol)
    _emit([payload], tuple(payload.keys()), args, _manifest(args, start))
    return 0


# ---------------------------------------------------------------------------
# tail / mc / table
# ---------------------------------------------------------------------------


def _mc_row(args, t, y, tail, sol_kappa) -> dict:
    seed = args.seed
    n = args.n_samples
    tilt = _resolve_tilt(args, sol_kappa)
    cfg = SamplerConfig(seed=seed, n_samples=n, y=y, tilt=tilt)
    method = "monte_carlo"
    if tilt is None:
        est = estimate_tail_plain(t, cfg, tail=tail)
        if est.advisory == "zero_hits_95_bound":
            return _row(t, y, method, None, math.log(est.mean), float("nan"), seed)
        return _row(t, y, method, None, math.log(est.mean), est.stderr / est.mean, seed)
    est = estimate_tail_tilted(t, tilt, cfg, tail=tail)
    return _row(t, y, method, None, est.mean, est.stderr, seed)


def _tail_rows(args, t: float, methods: list[str]) -> list[dict]:
    quad = _quad_from(args)
    tail = args.tail
    y = args.y
    need_saddle = bool({"saddle", "perron"} & set(methods)) or (
        "mc" in methods and getattr(args, "tilt", None) == "auto"
    )
    sol = None
    if need_saddle:
        sol = solve_saddle(t, y, quad=quad, tail=tail)
    rows = []
    for method in methods:
        if method == "saddle":
            est = tail_saddle(t, y, solution=sol, quad=quad, tail=tail)
            rows.append(_estimate_row(est))
        elif method == "expansion":
            if tail == "lower":
                raise DomainError(
                    "the expansion route covers the upper tail only; "
                    "use --method saddle, perron, or mc for --tail lower"
                )
            est = tail_expansion(t, y, J=args.J, solution=sol, quad=quad)
            rows.append(_estimate_row(est))
        elif method == "perron":
            params = _smoothing_from(args)
            _, upper_est = tail_perron(t, y, params, solution=sol, quad=quad, tail=tail)
            rows.append(_estimate_row(upper_est))
        elif method == "mc":
            rows.append(_mc_row(args, t, y, tail, lambda: sol.kappa))
        else:
            raise DomainError(f"unknown method {method!r}")
    return rows


def _method_list(args) -> list[str]:
    if args.method == "all":
        methods = ["saddle", "expansion", "perron", "mc"]
        if args.tail == "lower":
            methods.remove("expansion")
        return methods
    return [args.method]


def cmd_tail(args) -> int:
    start = time.monotonic()
    rows = _tail_rows(args, args.t, _method_list(args))
    _emit(rows, CSV_COLUMNS, args, _manifest(args, start))
    return 0


def cmd_mc(args) -> int:
    start = time.monotonic()
    sol_kappa = None
    if getattr(args, "tilt", None) == "auto":
        sol = solve_saddle(args.t, args.y, quad=_quad_from(args), tail=args.tail)
        sol_kappa = sol.kappa
    rows = [_mc_row(args, args.t, args.y, args.tail, sol_kappa)]
    _emit(rows, CSV_COLUMNS, args, _manifest(args, start))
    return 0


def cmd_table(args) -> int:
    start = time.monotonic()
    t_grid = [_parse_float("--t", part) for part in args.t.split(",") if part.strip()]
    if not t_grid:
        raise DomainError("--t must list at least one value, e.g. --t 2,3,4")
    rows = []
    for t in t_grid:
        rows.extend(_tail_rows(args, t, _method_list(args)))
    _emit(rows, CSV_COLUMNS, args, _manifest(args, start))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _suite_convexity() -> list[tuple[str, bool, str]]:
    checks = []
    for y in (50.0, 1000.0):
        for sigma in (-5.0, -2.0, -0.5, 0.0, 0.5, 1.0, 3.0, 10.0, 50.0):
            phi2 = phi_profile(sigma, y, max_order=2).phi(2)
            checks.append(
                (
                    f"phi2(sigma={sigma:g}, y={y:g}) > 0",
                    phi2 > 0.0,
                    f"phi2 = {phi2:.6e}",
                )
            )
    return checks


def _suite_modulus() -> list[tuple[str, bool, str]]:
    checks = []
    y = 200.0
    for sigma in (5.0, 20.0):
        bound = phi_profile(sigma, y, max_order=0).phi(0)
        for tau in (1.0, 10.0, 100.0):
            real = moment_complex(complex(sigma, tau), y).real
            checks.append(
                (
                    f"|E({sigma:g}+{tau:g}i, {y:g})| <= E({sigma:g}, {y:g})",
                    real <= bound + 1e-12,
                    f"log ratio = {real - bound:.6e}",
                )
            )
    return checks


def _suite_shape_brackets() -> list[tuple[str, bool, str]]:
    from .constants import H_LARGE_BRACKET, H_SMALL_BRACKET, W_RATIO_BRACKETS
    from .limitshape import h_fn, h_over_u2, w_shape_ratio

    checks = []
    for j, (lo, hi) in sorted(W_RATIO_BRACKETS.items()):
        for u in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
            r = w_shape_ratio(u, j)
            checks.append(
                (
                    f"W_{j} ratio at u={u:g} in [{lo}, {hi}]",
                    lo <= r <= hi,
                    f"ratio = {r:.6f}",
                )
            )
    lo, hi = H_SMALL_BRACKET
    for u in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        r = float(h_over_u2(u))
        checks.append(
            (f"h(u)/u^2 at u={u:g} in [{lo}, {hi}]", lo <= r <= hi, f"{r:.6f}")
        )
    lo, hi = H_LARGE_BRACKET
    for u in (1.0, 2.0, 5.0, 10.0, 30.0, 100.0):
        r = float(h_fn(u)) / math.log(2.0 * u)
        checks.append(
            (f"h(u)/log(2u) at u={u:g} in [{lo}, {hi}]", lo <= r <= hi, f"{r:.6f}")
        )
    return checks


def _suite_mc_repro() -> list[tuple[str, bool, str]]:
    checks = []
    cfg = SamplerConfig(seed=123, n_samples=2 * BLOCK + 500, y=30.0)
    serial = estimate_tail_plain(1.5, cfg)
    hits = {b: plain_block_hits(1.5, cfg, b) for b in (2, 0, 1)}
    manual = sum(hits[b] for b in sorted(hits)) / cfg.n_samples
    checks.append(
        (
            "plain estimator invariant under block partition",
            manual == serial.mean,
            f"serial {serial.mean!r} vs recombined {manual!r}",
        )
    )
    cfg2 = SamplerConfig(seed=124, n_samples=BLOCK + 100, y=50.0)
    kappa = 9.8
    serial_t = estimate_tail_tilted(2.0, kappa, cfg2)
    tables = TiltedTables(50.0, kappa)
    stats = {b: tilted_block_stats(2.0, tables, cfg2, b) for b in (1, 0)}
    ordered = [stats[b] for b in sorted(stats)]
    lse = float(np.logaddexp.reduce([s[0] for s in ordered]))
    manual_t = lse - math.log(cfg2.n_samples)
    checks.append(
        (
            "tilted estimator invariant under block partition",
            manual_t == serial_t.mean,
            f"serial {serial_t.mean!r} vs recombined {manual_t!r}",
        )
    )
    return checks


def _suite_ks() -> list[tuple[str, bool, str]]:
    n = 100_000
    rng = rng_for_block(SamplerConfig(seed=2026, n_samples=1, y=10.0), 0)
    theta = sample_angle(rng, size=n)
    u = np.sort((theta - np.sin(theta) * np.cos(theta)) / np.pi)
    grid = np.arange(1, n + 1) / n
    stat = max(
        float(np.max(np.abs(u - grid))), float(np.max(np.abs(u - (grid - 1.0 / n))))
    )
    bound = 1.63 / math.sqrt(n)
    return [
        (
            f"angle sampler KS statistic < {bound:.5f} (n = {n})",
            stat < bound,
            f"KS = {stat:.5f}",
        )
    ]


VERIFY_SUITES = {
    "convexity": _suite_convexity,
    "modulus": _suite_modulus,
    "shape-brackets": _suite_shape_brackets,
    "mc-repro": _suite_mc_repro,
    "ks": _suite_ks,
}


def cmd_verify(args) -> int:
    suites = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for suite in suites:
        for name, ok, detail in VERIFY_SUITES[suite]():
            status = "PASS" if ok else "FAIL"
            print(f"{status} [{suite}] {name}  ({detail})")
            failures += 0 if ok else 1
    if failures:
        raise ConsistencyError(f"{failures} verification check(s) failed")
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulertails",
        description=(
            "Tail distribution of random Euler products over Sato-Tate "
            "angles: saddle-point, series-expansion, contour, and Monte "
            "Carlo evaluations of log Phi / log Psi."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {ARTIFACT_VERSION}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="also write the result (with manifest) here")
    quadf = argparse.ArgumentParser(add_help=False)
    quadf.add_argument(
        "--quad-nodes",
        type=int,
        help="fixed Gauss-Legendre node count (default: per-operator policy)",
    )
    tailsel = argparse.ArgumentParser(add_help=False)
    tailsel.add_argument(
        "--tail",
        choices=("upper", "lower"),
        default="upper",
        help="upper tail Phi (default) or lower tail Psi",
    )
    mcflags = argparse.ArgumentParser(add_help=False)
    mcflags.add_argument(
        "--n-samples", type=int, default=100_000, help="Monte Carlo sample count"
    )
    mcflags.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    mcflags.add_argument(
        "--tilt",
        nargs="?",
        const="auto",
        default=None,
        help=(
            "importance-sample with exponential tilt: bare --tilt uses the "
            "saddle kappa, --tilt X uses X; omit for plain sampling"
        ),
    )
    smooth = argparse.ArgumentParser(add_help=False)
    smooth.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        help="contour smoothing bandwidth (default e^-t / 4)",
    )
    smooth.add_argument(
        "--N", dest="kernel_n", type=int, help="smoothing kernel power (default 1)"
    )
    smooth.add_argument(
        "--tau-max", type=float, help="cap on the contour grid extent (default policy)"
    )

    p = sub.add_parser(
        "constants",
        parents=[output],
        help="expansion constants table (bit-stable)",
        description=(
            "Compute the expansion constants up to depth J with error "
            "estimates. These constants always use the pinned "
            "high-accuracy scheme; --quad-nodes does not affect them."
        ),
    )
    p.add_argument("--J", type=int, default=2, help="expansion depth (1..8)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(handler=cmd_constants)

    p = sub.add_parser(
        "saddle",
        parents=[output, quadf, tailsel],
        help="solve for the saddle point kappa(t, y)",
    )
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(handler=cmd_saddle)

    p = sub.add_parser(
        "tail",
        parents=[output, quadf, tailsel, mcflags, smooth],
        help="tail probability at one (t, y) by the chosen method(s)",
        description=(
            "Rows use the stable schema t,y,method,J,log_value,"
            "error_indicator,seed. Method all = saddle + expansion + "
            "perron + mc (expansion is upper-tail only)."
        ),
    )
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument(
        "--method",
        choices=("saddle", "expansion", "perron", "mc", "all"),
        default="all",
    )
    p.add_argument("--J", type=int, default=2, help="expansion depth")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_tail)

    p = sub.add_parser(
        "mc",
        parents=[output, quadf, tailsel, mcflags],
        help="Monte Carlo tail estimate (plain or tilted)",
    )
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_mc)

    p = sub.add_parser(
        "verify",
        help="run an invariant suite; exits nonzero on any failure",
    )
    p.add_argument("suite", choices=(*VERIFY_SUITES, "all"))
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser(
        "table",
        parents=[output, quadf, tailsel, mcflags, smooth],
        help="CSV comparing methods across a t-grid at fixed y",
    )
    p.add_argument(
        "--t", required=True, help="comma-separated t grid, e.g. --t 2,3,4"
    )
    p.add_argument("--y", type=float, required=True)
    p.add_argument(
        "--method",
        choices=("saddle", "expansion", "perron", "mc", "all"),
        default="all",
    )
    p.add_argument("--J", type=int, default=2)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(raw)
    args.raw_argv = raw
    try:
        return args.handler(args)
    except EulertailsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
