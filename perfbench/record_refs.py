"""Record the benchmark's references from the current commit.

    python3 perfbench/record_refs.py sweep|classify|probe

References are recorded once, at the commit that defines the benchmark, and
later commits are checked against them; re-recording them would hide a
changed verdict.  ``sweep`` writes the ``coupledq sweep`` CSV of the
196-point grid.  ``classify`` draws the three-queue pool and runs each point
with a long deadline, recording labels, time and cost stratum.  ``probe``
runs every probe candidate once to record its time, which sets its stratum.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 7
POOL_SIZE = 48
POOL_BOX = (0.1, 2.6)
RECORD_DEADLINE_S = 60.0


# Cost bands (seconds at the seed commit) that cut classify-3q's pool where
# its costs have gaps; the slow band is split further so that every round
# holds the same spread of costs.
CLASSIFY_BANDS = (("fast", 0.05), ("1d", 0.2), ("2d", 1.0), ("slow-lo", 1.45),
                  ("slow-mid", 1.65))


def _stratum(ok: bool, seconds: float) -> str:
    if not ok or seconds > workloads.DEADLINE_S["classify-3q"]:
        return "fail"
    for name, upper in CLASSIFY_BANDS:
        if seconds < upper:
            return name
    return "slow-hi"


def _record(workload: str, ops: list) -> list:
    p = run.Pass(workload, False, RECORD_DEADLINE_S)
    try:
        for op in ops:
            p.run(op)
            print(p.results[-1], flush=True)
    finally:
        p.close()
    return p.results


def record_sweep() -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    csv_text = subprocess.run(
        [sys.executable, "-m", "coupledq.cli", "sweep", "--scenario", "two_basestations",
         "--param", "gamma=2.0", "--grid", "0.1:1.4:0.1"],
        env=env, check=True, capture_output=True, text=True).stdout
    with open(os.path.join(workloads.REFS, "sweep_2q.csv"), "w", encoding="utf-8") as f:
        f.write(csv_text)


def record_classify() -> None:
    import numpy as np

    rng = np.random.default_rng(POOL_SEED)
    ops = [[round(float(v), 3) for v in rng.uniform(*POOL_BOX, 3)] for _ in range(POOL_SIZE)]
    points = []
    for op, ok, seconds, out in _record("classify-3q", ops):
        status = "ok" if ok else out
        entry = {"rates": op, "status": status, "seconds": round(seconds, 4),
                 "stratum": _stratum(ok, seconds)}
        if ok:
            entry["system"], entry["per_queue"] = out
        points.append(entry)
    doc = {"spec": "three_queue_table(a=3, a_ij=2), the three_queues preset",
           "pool_seed": POOL_SEED, "box": POOL_BOX,
           "record_deadline_s": RECORD_DEADLINE_S, "cap_bytes": run.CAP_BYTES,
           "points": points}
    with open(os.path.join(workloads.REFS, "classify_3q.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)


def record_probe() -> None:
    cands = workloads.probe_candidates()
    ops = [[*c["rates"], c["probe_seed"]] for c in cands]
    points = []
    for c, (op, ok, seconds, out) in zip(cands, _record("probe-2q", ops)):
        if not ok:
            raise SystemExit(f"probe failed at {op}: {out}")
        points.append({**c, "seconds": round(seconds, 4), "verdict": out})
    agree = sum(p["verdict"] == p["want"] for p in points)
    doc = {"horizons": workloads.PROBE_HORIZONS, "replicas": workloads.PROBE_REPLICAS,
           "agreement": f"{agree}/{len(points)}", "points": points}
    with open(os.path.join(workloads.REFS, "probe_2q.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)


if __name__ == "__main__":
    {"sweep": record_sweep, "classify": record_classify, "probe": record_probe}[sys.argv[1]]()
