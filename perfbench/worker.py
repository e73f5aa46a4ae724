"""Benchmark worker processes.

``worker.py inprocess PLAN OUT`` imports the package, sets up the workload
named in the JSON plan file, then runs the plan's ops one at a time and
writes timings, output rows and (when traced) per-layer sums to OUT.

``worker.py cli OUT -- ARGV...`` is one traced CLI invocation: it imports
``eulertails.cli``, wraps the layers and calls ``main(ARGV)``; stdout and
the exit code are the CLI's own, the trace sums go to OUT.

Both put the checkout's ``src`` first on ``sys.path``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _write(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload))


def run_inprocess(plan: dict, out: str) -> None:
    workload, seed = plan["workload"], plan["seed"]
    t = time.perf_counter()
    import eulertails as et

    import_s = time.perf_counter() - t
    tracer = tracing.Tracer() if plan["trace"] else None
    if tracer is not None:
        tracer.phase = "setup"
        tracer.install()
    # set-up: fill the package's caches as a first user call would
    kappas = None
    if workload == "mc":
        kappas = workloads.mc_kappas(et)
    else:
        for t_, y in workloads.TAIL_POINTS:
            if y == 1e4:
                workloads.run_inprocess_op(et, workload, f"t={t_:g},y={y:g}", seed, None)
    setup_s = time.monotonic() - plan["t0"]
    result = {"setup_s": setup_s, "import_s": import_s, "ops": []}
    if not plan["setup_only"]:
        if tracer is not None:
            tracer.phase = "timed"
        start = time.perf_counter()
        for op in plan["ops"]:
            t_op = time.perf_counter()
            record = {"op": op}
            try:
                record["rows"] = workloads.run_inprocess_op(et, workload, op, seed, kappas)
            except Exception as exc:  # an op failure is a measured outcome
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["latency_s"] = time.perf_counter() - t_op
            result["ops"].append(record)
        result["wall_s"] = time.perf_counter() - start
    if tracer is not None:
        result["wrappers_removed"] = tracer.uninstall()
        result["raw"] = tracing.summarize(tracer.spans, "timed")
        result["setup_raw"] = tracing.summarize(tracer.spans, "setup")
    _write(out, result)


def run_cli(out: str, argv: list[str]) -> int:
    t = time.perf_counter()
    import eulertails.cli

    import_s = time.perf_counter() - t
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = eulertails.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        _write(out, {"import_s": import_s, "raw": tracing.summarize(tracer.spans, "timed")})
    return rc


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "inprocess":
        run_inprocess(json.loads(Path(sys.argv[2]).read_text()), sys.argv[3])
    elif mode == "cli":
        sys.exit(run_cli(sys.argv[2], sys.argv[4:]))
    else:
        sys.exit(f"unknown worker mode {mode!r}")
