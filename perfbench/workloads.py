"""The benchmark's workloads: op lists, inputs drawn from the seed, output
rows and the checks against the stored seed references.

Every op turns its outputs into a list of rows. A row is one of

* ``estimate``: a tail estimate (``log_value``, ``error_indicator``,
  ``mc`` true for Monte Carlo rows, whose indicator is a standard error);
* ``saddle``: a saddle solution (``kappa``, ``residual``, ``phi2``);
* ``constant``: an expansion constant (``value``, ``abs_error``);
* ``verify``: one ``eulertails verify`` line (``ok``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

#: Monte Carlo seeds have stored references: the run's seed picks one of
#: MC_SLOTS seeds, so MC outputs are checked exactly against their own
#: reference rather than statistically against another seed's
MC_SLOTS = 8
MC_SEED_BASE = 1000


def mc_seed(seed: int) -> int:
    return MC_SEED_BASE + seed % MC_SLOTS


# ---------------------------------------------------------------------------
# Op lists.
# ---------------------------------------------------------------------------

#: cli-cold: one op is one fresh ``python -m eulertails.cli`` process;
#: ``{mc}`` is replaced by the run's Monte Carlo seed
CLI_OPS = [
    "saddle --t 2 --y 50",
    "saddle --t 6 --y 1e6",
    "saddle --t 4 --y 1e5 --tail lower",
    "tail --t 2 --y 50 --method all --n-samples 8192 --seed {mc} --tilt",
    "tail --t 1.5 --y 50 --tail lower",
    "tail --t 5 --y 1e4 --method perron",
    "table --t 1.5,2,2.5,3 --y 80 --method all --n-samples 50000 --seed {mc}",
    "mc --t 4 --y 200 --tilt --n-samples 100000 --seed {mc}",
    "verify all",
    "constants --J 3",
]

#: upper-tail and lower-tail points. y = 1e3 is left out: with it the
#: median op fell between two size classes and moved by 22% between passes.
#: t = 7 is in so that 11 ops (y = 1e6, and the contour ops) reach the
#: tail rank n - 10: with 18 points that rank is the slowest of the four
#: y = 1e4 contour ops, whose latency spread 31% over ten runs.
TAIL_POINTS = [
    (t, y)
    for t in (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    for y in (1e4, 1e5, 1e6)
    if y >= 2.0 * math.exp(t)
]

def with_perron(t: float, y: float) -> bool:
    """The contour route runs where its rules have at most 4096 nodes: at
    (t=6, y=1e3) a 16384-node rule build takes 147 s, and at t=8 the
    32768-node rule needs 8 GiB."""
    return t <= 5.0 and y <= 1e5


#: mc: (route, t, y, n_samples)
MC_OPS = [
    ("tilted", 2.0, 50.0, 2**17),
    ("tilted", 4.0, 200.0, 2**17),
    ("tilted", 3.0, 1e3, 2**16),
    ("tilted", 3.0, 1e4, 2**15),
    ("plain", 1.5, 30.0, 2**17),
    ("plain", 1.5, 1e3, 2**16),
]


def cli_argv(op: str, seed: int) -> list[str]:
    return op.format(mc=mc_seed(seed)).split()


def op_ids(workload: str) -> list[str]:
    if workload == "cli-cold":
        return list(CLI_OPS)
    if workload in ("upper-tail", "lower-tail"):
        return [f"t={t:g},y={y:g}" for t, y in TAIL_POINTS]
    if workload == "mc":
        return [f"{r},t={t:g},y={y:g},n={n}" for r, t, y, n in MC_OPS]
    raise KeyError(workload)


def pass_order(workload: str, seed: int, passes: int) -> list[str]:
    """The op sequence of a run: each pass is the op list shuffled by seed."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(passes):
        ids = op_ids(workload)
        rng.shuffle(ids)
        out.extend(ids)
    return out


def reference_key(workload: str, op: str, seed: int) -> str:
    """Ops whose output depends on the Monte Carlo seed keep one reference
    per slot."""
    if workload == "mc" or "{mc}" in op:
        return f"{op}@{mc_seed(seed)}"
    return op


# ---------------------------------------------------------------------------
# In-process ops (the package is passed in, so a tracer can wrap it).
# ---------------------------------------------------------------------------


def estimate_row(est) -> dict:
    return {
        "kind": "estimate",
        "method": est.method,
        "log_value": est.log_value,
        "error_indicator": est.error_indicator,
        "mc": False,
    }


def saddle_row(sol) -> dict:
    return {
        "kind": "saddle",
        "kappa": sol.kappa,
        "residual": sol.residual,
        "phi2": sol.profile_at_kappa.values[2],
    }


def parse_point(op: str) -> dict[str, float]:
    fields = dict(part.split("=") for part in op.split(",")[-3:] if "=" in part)
    return {k: float(v) for k, v in fields.items()}


def upper_op(et, t: float, y: float) -> list[dict]:
    sol = et.solve_saddle(t, y)
    rows = [
        saddle_row(sol),
        estimate_row(et.tail_saddle(t, y, solution=sol)),
        estimate_row(et.tail_expansion(t, y, J=2)),
    ]
    if with_perron(t, y):
        rows.append(estimate_row(et.tail_perron(t, y, solution=sol)[1]))
    return rows


def lower_op(et, t: float, y: float) -> list[dict]:
    sol = et.solve_saddle_lower(t, y)
    rows = [saddle_row(sol), estimate_row(et.tail_saddle_lower(t, y, solution=sol))]
    if with_perron(t, y):
        rows.append(estimate_row(et.tail_perron_lower(t, y, solution=sol)[1]))
    return rows


def mc_kappas(et) -> dict[tuple[float, float], float]:
    """Saddle tilts of the tilted mc ops (computed during set-up)."""
    return {
        (t, y): et.solve_saddle(t, y).kappa
        for route, t, y, _ in MC_OPS
        if route == "tilted"
    }


def mc_op(et, op: str, seed: int, kappas) -> list[dict]:
    route = op.split(",")[0]
    p = parse_point(op)
    t, y, n = p["t"], p["y"], int(p["n"])
    cfg = et.SamplerConfig(seed=mc_seed(seed), n_samples=n, y=y)
    if route == "tilted":
        est = et.estimate_tail_tilted(t, kappas[(t, y)], cfg)
        log_value, err = est.mean, est.stderr
    else:
        est = et.estimate_tail_plain(t, cfg)
        log_value, err = math.log(est.mean), est.stderr / est.mean
    return [
        {
            "kind": "estimate",
            "method": f"monte_carlo_{route}",
            "log_value": log_value,
            "error_indicator": err,
            "mc": True,
        }
    ]


def run_inprocess_op(et, workload: str, op: str, seed: int, kappas) -> list[dict]:
    if workload == "mc":
        return mc_op(et, op, seed, kappas)
    p = parse_point(op)
    fn = upper_op if workload == "upper-tail" else lower_op
    return fn(et, p["t"], p["y"])


# ---------------------------------------------------------------------------
# CLI output parsing.
# ---------------------------------------------------------------------------


def cli_rows(argv: list[str], stdout: str) -> list[dict]:
    """Rows of one CLI invocation's stdout (raises ValueError if malformed)."""
    command = argv[0]
    if command == "saddle":
        return [
            {"kind": "saddle", "kappa": r["kappa"], "residual": r["residual"], "phi2": r["phi2"]}
            for r in json.loads(stdout)["rows"]
        ]
    if command == "verify":
        lines = [line for line in stdout.splitlines() if line.strip()]
        if not lines:
            raise ValueError("verify printed nothing")
        return [
            {"kind": "verify", "name": line.split("  (")[0][5:], "ok": line.startswith("PASS ")}
            for line in lines
        ]
    if command == "constants":
        return [
            {
                "kind": "constant",
                "name": r["name"],
                "value": r["value"],
                # JSON prints a non-finite error estimate as null
                "abs_error": math.nan if r["abs_error_estimate"] is None else r["abs_error_estimate"],
            }
            for r in json.loads(stdout)["rows"]
        ]
    records = list(csv.DictReader(io.StringIO(stdout)))
    if not records:
        raise ValueError(f"{command} printed no rows")
    return [
        {
            "kind": "estimate",
            "method": r["method"],
            "log_value": float(r["log_value"]),
            # a zero-hit plain MC row prints an empty (NaN) indicator
            "error_indicator": float(r["error_indicator"] or "nan"),
            "mc": r["method"] == "monte_carlo",
        }
        for r in records
    ]


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def _within(value: float, ref: float, limit: float) -> bool:
    if not math.isfinite(limit):
        return value == ref
    return math.isfinite(value) and abs(value - ref) <= limit


def check_rows(rows: list[dict], refs: list[dict]) -> str | None:
    """None when the rows agree with their references, else the reason.

    An estimate may differ from its reference by the reference row's
    error_indicator (4 x the standard error for Monte Carlo rows); a saddle
    root by what both residuals allow, |residual| / phi_2 each; a constant
    by its reference's error estimate; every verify line must pass.
    """
    if len(rows) != len(refs):
        return f"{len(rows)} rows, reference has {len(refs)}"
    for row, ref in zip(rows, refs):
        if row["kind"] != ref["kind"]:
            return f"row kind {row['kind']} where the reference has {ref['kind']}"
        kind = row["kind"]
        if kind == "estimate":
            if row["method"] != ref["method"]:
                return f"method {row['method']} where the reference has {ref['method']}"
            limit = ref["error_indicator"] * (4.0 if ref["mc"] else 1.0)
            if not _within(row["log_value"], ref["log_value"], limit):
                return (
                    f"{row['method']} log_value {row['log_value']!r} is more than "
                    f"{limit:.3g} from {ref['log_value']!r}"
                )
        elif kind == "saddle":
            limit = (abs(row["residual"]) + abs(ref["residual"])) / ref["phi2"]
            if not _within(row["kappa"], ref["kappa"], limit):
                return f"kappa {row['kappa']!r} is more than {limit:.3g} from {ref['kappa']!r}"
        elif kind == "constant":
            if row["name"] != ref["name"] or not _within(
                row["value"], ref["value"], ref["abs_error"]
            ):
                return f"constant {row['name']} = {row['value']!r}, reference {ref['value']!r}"
        elif kind == "verify":
            if not row["ok"]:
                return f"verify check failed: {row['name']}"
    return None
