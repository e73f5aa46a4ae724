"""Tests of the benchmark harness itself, one small op per workload.

    python3 -m pytest perfbench/test_perfbench.py

Each test checks that a traced run records spans in every layer the
workload is meant to exercise, that tracing leaves outputs bit-identical,
and that the wrappers are removed afterwards.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: layers each workload is meant to exercise (set-up included)
LAYERS = {
    "cli-cold": ["cli", "coefficients", "limitshape", "quadrature", "primes", "tails"],
    "upper-tail": [
        "coefficients", "limitshape", "quadrature", "primes", "local", "profile", "saddle", "tails",
    ],
    "lower-tail": ["quadrature", "primes", "profile", "saddle", "tails"],
    "mc": ["mc", "primes", "saddle"],
}

SMALL_OPS = {
    "upper-tail": "t=4,y=10000",
    "lower-tail": "t=4,y=10000",
    "mc": "tilted,t=2,y=50,n=131072",
}


def _env(tmp_path: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), EULERTAILS_CACHE_DIR=str(tmp_path / "cache"))


def _inprocess(tmp_path: Path, workload: str, trace: bool) -> dict:
    plan = {
        "workload": workload, "seed": 0, "ops": [SMALL_OPS[workload]],
        "trace": trace, "setup_only": False, "t0": time.monotonic(),
    }
    plan_path, out = tmp_path / f"plan{int(trace)}.json", tmp_path / f"out{int(trace)}.json"
    plan_path.write_text(json.dumps(plan))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "inprocess", str(plan_path), str(out)],
        check=True, env=_env(tmp_path), timeout=300,
    )
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload", sorted(SMALL_OPS))
def test_inprocess_trace(tmp_path, workload):
    plain = _inprocess(tmp_path, workload, trace=False)
    traced = _inprocess(tmp_path, workload, trace=True)
    for result in (plain, traced):
        assert [op.get("error") for op in result["ops"]] == [None]
    assert json.dumps(traced["ops"][0]["rows"]) == json.dumps(plain["ops"][0]["rows"])
    assert traced["wrappers_removed"] is True
    spans = tracing.merge([traced["raw"], traced["setup_raw"]])
    missing = [layer for layer in LAYERS[workload] if not spans.get(f"{layer}.spans")]
    assert not missing, f"no spans recorded in {missing}"


def test_cli_trace(tmp_path):
    argv = workloads.cli_argv(workloads.CLI_OPS[3], seed=0)
    plain = subprocess.run(
        [sys.executable, "-m", "eulertails.cli", *argv],
        capture_output=True, check=True, env=_env(tmp_path), timeout=300,
    )
    trace_path = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "cli", str(trace_path), "--", *argv],
        capture_output=True, check=True, env=_env(tmp_path / "fresh"), timeout=300,
    )
    assert traced.stdout == plain.stdout
    raw = json.loads(trace_path.read_text())["raw"]
    missing = [layer for layer in LAYERS["cli-cold"] if not raw.get(f"{layer}.spans")]
    assert not missing, f"no spans recorded in {missing}"


def test_uninstall_restores_every_binding():
    import eulertails
    import eulertails.cli  # noqa: F401
    from eulertails.mc import TiltedTables
    from eulertails.profile import MomentLine

    def snapshot():
        names = {
            (name, attr): value
            for name, module in sys.modules.items()
            if name == "eulertails" or name.startswith("eulertails.")
            for attr, value in vars(module).items()
        }
        for cls in (MomentLine, TiltedTables):
            names.update({(cls.__name__, attr): v for attr, v in vars(cls).items()})
        return names

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        eulertails.solve_saddle(2.0, 50.0)
        assert snapshot() != before
    finally:
        assert tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert any(s.name == "saddle.solve_saddle" for s in tracer.spans)
