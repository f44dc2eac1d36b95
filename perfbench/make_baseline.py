#!/usr/bin/env python3
"""Rebuild perfbench/baseline.json from the run records in .perfbench/.

    python3 perfbench/make_baseline.py

Keeps, per workload and exploration seed, the trajectory_hash, j_max and
steps_used of the runs made at the workload's current total_steps.  Refresh
it only in a change that documents why trajectories moved.
"""

import json
import sys

from run import BASELINE, OUT
from workloads import WORKLOADS


def main():
    baseline = {}
    for path in sorted(OUT.glob("*-trace*.json")):
        record = json.loads(path.read_text())
        workload = WORKLOADS.get(record["workload"])
        if workload is None or record["total_steps"] != workload.total_steps:
            continue
        entry = baseline.setdefault(workload.name, {
            "total_steps": workload.total_steps, "seeds": {}})
        for call in record["calls"]:
            got = {k: call[k] for k in ("trajectory_hash", "j_max",
                                         "steps_used")}
            seen = entry["seeds"].setdefault(str(call["seed"]), got)
            if seen != got:
                sys.exit(f"{path.name}: seed {call['seed']} disagrees with "
                         f"an earlier record")
    for entry in baseline.values():
        entry["seeds"] = dict(sorted(entry["seeds"].items(),
                                     key=lambda kv: int(kv[0])))
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {BASELINE}: " + ", ".join(
        f"{name} {len(e['seeds'])} seeds" for name, e in baseline.items()))


if __name__ == "__main__":
    main()
