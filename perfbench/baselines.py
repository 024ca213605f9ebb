"""Per-op figures from a span file that a traced run writes to ``perfbench/out/``.

    python3 perfbench/baselines.py perfbench/out/trace-sweep-2q-seed1.jsonl [OP_INPUT_JSON ...]

For each op (or only those whose input is given, e.g. ``'[0.5, 0.5]'``) it
prints the op's generator builds, the states they hold in total, the largest
box, the simulator events and the time in each kind of span.  Set-up spans
(structure checks) have no op and are reported as ``setup``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def per_op(path: str) -> dict:
    inputs, stats = {}, defaultdict(lambda: defaultdict(float))
    with open(path, encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            if "input" in rec:
                inputs[rec["op"]] = rec["input"]
                continue
            s = stats["setup" if rec["op"] is None else rec["op"]]
            s[rec["name"] + "_s"] += rec["end"] - rec["start"]
            if rec["name"] == "ctmc.build":
                s["builds"] += 1
                s["states"] += rec["states"]
                s["max_states"] = max(s["max_states"], rec["states"])
            if rec["name"] == "simulate.path":
                s["events"] += rec["events"]
    return {op: (inputs.get(op), dict(s)) for op, s in stats.items()}


def main(argv) -> int:
    wanted = [json.loads(a) for a in argv[1:]]
    for op, (inp, s) in per_op(argv[0]).items():
        if wanted and inp not in wanted:
            continue
        if "events" in s and s.get("simulate.path_s"):
            s["events_per_s"] = s["events"] / s["simulate.path_s"]
        print(json.dumps({"op": op, "input": inp, **{k: round(v, 6) for k, v in s.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
