"""Regenerate references.json: the seed outputs of every benchmark op.

    python3 perfbench/make_references.py

Runs each op once, untraced, with the package in the checkout's ``src``:
the seed-independent ops once, the ops that draw Monte Carlo samples once
per Monte Carlo seed slot. Run it only at a commit whose outputs are the
intended reference; any op that fails stops it.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    refs: dict[str, dict] = {name: {} for name in run.WORKLOADS}
    for slot in range(workloads.MC_SLOTS):
        for workload in run.WORKLOADS:
            ops = [
                op
                for op in workloads.op_ids(workload)
                if slot == 0 or workloads.reference_key(workload, op, slot) != op
            ]
            if not ops:
                continue
            run_dir = run.ROOT / ".perfbench" / f"references-{workload}-{slot}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            deadline = time.monotonic() + 900.0
            try:
                if workload == "cli-cold":
                    res = run.run_cli_cold(ops, slot, False, run_dir, deadline)
                else:
                    res = run.run_inprocess(workload, ops, slot, False, run_dir, deadline)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            for entry in res["ops"]:
                if "error" in entry:
                    print(f"{workload} {entry['op']}: {entry['error']}", file=sys.stderr)
                    return 1
                ref = {"rows": entry["rows"]}
                if "stdout_sha256" in entry:
                    ref["sha256"] = entry["stdout_sha256"]
                refs[workload][workloads.reference_key(workload, entry["op"], slot)] = ref
            print(f"slot {slot} {workload}: {len(res['ops'])} ops", flush=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
