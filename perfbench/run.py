"""eulertails benchmark: one workload per run, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Workloads (see workloads.py for the op lists):

* ``cli-cold``   ten CLI invocations, each a fresh process;
* ``upper-tail`` saddle, expansion and contour routes of the upper tail;
* ``lower-tail`` saddle and contour routes of the lower tail;
* ``mc``         tilted and plain Monte Carlo estimators.

The load generator issues one op at a time and waits for it. In-process
workloads run in one fresh worker process; ``cli-cold`` runs every op as a
fresh child with its own empty constants cache. BLAS runs on one thread in
every process (see ``BLAS_THREADS``). ``--seconds`` sets the
number of whole passes over the op list: the count whose nominal duration
(measured on a 2-vCPU machine) comes closest to it, but at least enough
passes for ten ops to lie beyond the tail percentile. Each pass is the op
list shuffled by ``--seed``, which also picks the Monte Carlo seed.

Every op's output is checked against the stored references. The last line
of stdout is a JSON object ``{correct, attempted, failed, metrics}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. The line before it carries the run's details (environment,
percentiles and their op counts, failures), which are also written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: BLAS thread pools of one thread, in the harness and every process it
#: starts. By default numpy's and scipy's OpenBLAS each start a pool that
#: spins after every call, so a CLI child has up to three runnable threads
#: on a 2-vCPU machine. With one busy process beside the run, that cut
#: cli-cold ops_per_s by 19-22% and raised op_tail_s by 7-17%; with one
#: thread the changes were at most 4% and 8%. On a shared host op_tail_s
#: then spread past its bound between runs of the same code.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import tracing  # noqa: E402
import workloads  # noqa: E402

#: per workload: minimum passes (so that n - 10 >= 1 for the tail
#: percentile), nominal seconds per pass on a 2-vCPU machine, and set-ups
#: per run (the tail workloads' set-up takes ~6 s, so they set up twice).
WORKLOADS = {
    "cli-cold": {"min_passes": 2, "pass_s": 17.0, "setups": 5},
    "upper-tail": {"min_passes": 1, "pass_s": 23.0, "setups": 2},
    "lower-tail": {"min_passes": 1, "pass_s": 20.0, "setups": 2},
    "mc": {"min_passes": 2, "pass_s": 12.5, "setups": 3},
}

#: a run must end within this many seconds; children still running are killed
RUN_DEADLINE_S = 170.0

#: ops that must lie beyond the reported tail percentile
TAIL_BEYOND = 10

REFERENCES = HERE / "references.json"


class Child:
    """One child process, reaped with os.wait4 so its own peak RSS is read."""

    def __init__(self, argv, *, stdout, stderr, env=None, deadline: float) -> None:
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
        self.killed = False
        self._timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self._kill)
        self._timer.start()

    def _kill(self) -> None:
        self.killed = True
        self.proc.kill()

    def wait(self) -> tuple[int, float, float]:
        """(exit code, wall seconds, peak RSS in MB)."""
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.monotonic() - self.t0
        self._timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, wall, usage.ru_maxrss / 1024.0


def _child_env(**extra: str) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def passes_for(workload: str, seconds: float) -> int:
    spec = WORKLOADS[workload]
    return max(spec["min_passes"], round(seconds / spec["pass_s"]))


# ---------------------------------------------------------------------------
# cli-cold.
# ---------------------------------------------------------------------------


def _import_time(run_dir: Path, deadline: float) -> float:
    """Wall time of a fresh interpreter that imports eulertails.cli."""
    child = Child(
        [sys.executable, "-c", "import eulertails.cli"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_child_env(EULERTAILS_CACHE_DIR=str(run_dir / "cache-import")),
        deadline=deadline,
    )
    rc, wall, _ = child.wait()
    if rc != 0:
        raise RuntimeError("importing eulertails.cli failed")
    return wall


def run_cli_cold(ops: list[str], seed: int, trace: bool, run_dir: Path, deadline: float) -> dict:
    setups = [_import_time(run_dir, deadline) for _ in range(WORKLOADS["cli-cold"]["setups"])]
    records = []
    start = time.monotonic()
    for i, op in enumerate(ops):
        argv = workloads.cli_argv(op, seed)
        cache = run_dir / f"cache-{i}"
        cache.mkdir()
        out_path, err_path = run_dir / f"op-{i}.out", run_dir / f"op-{i}.err"
        trace_path = run_dir / f"op-{i}.trace.json"
        if trace:
            cmd = [sys.executable, str(HERE / "worker.py"), "cli", str(trace_path), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "eulertails.cli", *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            child = Child(
                cmd, stdout=out, stderr=err,
                env=_child_env(EULERTAILS_CACHE_DIR=str(cache)), deadline=deadline,
            )
            rc, wall, rss = child.wait()
        records.append(
            {"op": op, "argv": argv, "rc": rc, "latency_s": wall, "rss_mb": rss,
             "killed": child.killed, "out": out_path, "err": err_path, "trace": trace_path}
        )
    wall_s = time.monotonic() - start

    results, raws, imports = [], [], []
    for rec in records:
        stdout = rec["out"].read_bytes()
        entry = {"op": rec["op"], "latency_s": rec["latency_s"], "rc": rec["rc"]}
        if rec["killed"]:
            entry["error"] = "killed at the run deadline"
        elif rec["rc"] != 0:
            tail = rec["err"].read_text(errors="replace").strip().splitlines()[-1:]
            entry["error"] = f"exit code {rec['rc']}" + (": " + tail[0] if tail else "")
        else:
            try:
                entry["rows"] = workloads.cli_rows(rec["argv"], stdout.decode())
            except (ValueError, KeyError) as exc:
                entry["error"] = f"unparsable output: {exc}"
        entry["stdout_sha256"] = hashlib.sha256(stdout).hexdigest()
        if trace and rec["trace"].exists():
            child_trace = json.loads(rec["trace"].read_text())
            raws.append(child_trace["raw"])
            imports.append(child_trace["import_s"])
        results.append(entry)
    return {
        "setups": setups,
        "ops": results,
        "wall_s": wall_s,
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "raw": tracing.merge(raws),
        "setup_raw": {},
        "import_s": statistics.median(imports) if imports else 0.0,
    }


# ---------------------------------------------------------------------------
# In-process workloads.
# ---------------------------------------------------------------------------


def _worker(plan: dict, run_dir: Path, tag: str, deadline: float) -> tuple[dict, float]:
    plan_path, out_path = run_dir / f"plan-{tag}.json", run_dir / f"result-{tag}.json"
    err_path = run_dir / f"worker-{tag}.err"
    plan = dict(plan, t0=time.monotonic())
    plan_path.write_text(json.dumps(plan))
    with open(err_path, "wb") as err:
        child = Child(
            [sys.executable, str(HERE / "worker.py"), "inprocess", str(plan_path), str(out_path)],
            stdout=subprocess.DEVNULL, stderr=err,
            env=_child_env(EULERTAILS_CACHE_DIR=str(run_dir / f"cache-{tag}")),
            deadline=deadline,
        )
        rc, _, rss = child.wait()
    if rc != 0 or not out_path.exists():
        detail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        raise RuntimeError(f"worker exited with {rc}: {detail}")
    return json.loads(out_path.read_text()), rss


def run_inprocess(workload: str, ops: list[str], seed: int, trace: bool,
                  run_dir: Path, deadline: float) -> dict:
    plan = {"workload": workload, "seed": seed, "ops": ops, "trace": trace, "setup_only": False}
    setups = []
    for i in range(WORKLOADS[workload]["setups"] - 1):
        extra, _ = _worker(dict(plan, setup_only=True, trace=False), run_dir, f"setup{i}", deadline)
        setups.append(extra["setup_s"])
    result, rss = _worker(plan, run_dir, "main", deadline)
    setups.append(result["setup_s"])
    return {
        "setups": setups,
        "ops": result["ops"],
        "wall_s": result["wall_s"],
        "peak_rss_mb": rss,
        "raw": result.get("raw", {}),
        "setup_raw": result.get("setup_raw", {}),
        "import_s": result["import_s"],
        "wrappers_removed": result.get("wrappers_removed"),
    }


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def _references() -> dict:
    return json.loads(REFERENCES.read_text())


def tail_rank(n: int) -> int:
    """1-based rank of the highest order statistic with TAIL_BEYOND ops
    beyond it (0 when the run has too few ops)."""
    return max(n - TAIL_BEYOND, 0)


def stdout_changed(ops: list[dict], seed: int) -> int:
    """CLI invocations whose stdout bytes differ from the reference's. A
    change is not a failure: output formats and indicators may change on
    purpose, and the values are checked row by row."""
    refs = _references()["cli-cold"]
    return sum(
        1
        for e in ops
        if e["stdout_sha256"]
        != refs.get(workloads.reference_key("cli-cold", e["op"], seed), {}).get("sha256")
    )


def check_ops(workload: str, ops: list[dict], seed: int) -> list[str]:
    """Failure reasons, one per failed op."""
    refs = _references()[workload]
    failures = []
    for entry in ops:
        reason = entry.get("error")
        if reason is None:
            ref = refs.get(workloads.reference_key(workload, entry["op"], seed))
            if ref is None:
                reason = "no stored reference"
            else:
                reason = workloads.check_rows(entry["rows"], ref["rows"])
        if reason is not None:
            failures.append(f"{entry['op']}: {reason}")
    return failures


def environment() -> dict:
    import ctypes

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    threads = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads[Path(path).name] = getter()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git not available)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eulertails" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"perfbench: missing {REFERENCES}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    workload, seed, trace = args.workload, args.seed, bool(args.trace)
    passes = passes_for(workload, args.seconds)
    ops = workloads.pass_order(workload, seed, passes)
    base = ROOT / ".perfbench"
    run_dir = base / f"run-{workload}-{seed}-{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        if workload == "cli-cold":
            res = run_cli_cold(ops, seed, trace, run_dir, deadline)
        else:
            res = run_inprocess(workload, ops, seed, trace, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = check_ops(workload, res["ops"], seed)
    changed = stdout_changed(res["ops"], seed) if workload == "cli-cold" else 0
    latencies = sorted(e["latency_s"] for e in res["ops"])
    n = len(latencies)
    rank = tail_rank(n)
    attempted, failed = n, len(failures)
    ops_per_s = n / res["wall_s"]
    if trace:
        metrics = {
            "cli.import_s": (res["import_s"], "s"),
            "cli.stdout_changed": (changed, "count"),
            **{k: (v, None) for k, v in tracing.layer_metrics(res["raw"]).items()},
            **{f"setup.{k}": (v, None) for k, v in tracing.layer_metrics(res["setup_raw"]).items()
               if k in ("coefficients.s", "quadrature.rule_build_s", "primes.sieve_s")},
            "trace.ops_per_s": (ops_per_s, "ops/s"),
        }
    else:
        metrics = {
            "setup_s": (statistics.median(res["setups"]), "s"),
            "ops_per_s": (ops_per_s, "ops/s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (latencies[rank - 1] if rank >= 1 else math.nan, "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    metrics = {
        k: {"value": float(v), "unit": u or tracing.UNITS[k.removeprefix("setup.")]}
        for k, (v, u) in metrics.items()
    }

    details = {
        "workload": workload,
        "seed": seed,
        "trace": args.trace,
        "passes": passes,
        "ops": n,
        "mc_seed": workloads.mc_seed(seed),
        "op_p50_s": {"ops": n},
        "op_tail_s": {"percentile": 100.0 * rank / n, "rank": rank, "ops": n},
        "setup_s": {"samples": res["setups"]},
        "failed_ops_ratio": failed / attempted,
        "failures": failures[:10],
        "stdout_changed": changed,
        "wrappers_removed": res.get("wrappers_removed"),
        "environment": environment(),
        "latencies": {e["op"]: [] for e in res["ops"]},
    }
    for e in res["ops"]:
        details["latencies"][e["op"]].append(e["latency_s"])
    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(details, metrics=metrics), indent=1)
    )
    print("perfbench " + json.dumps({k: v for k, v in details.items() if k != "latencies"}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
