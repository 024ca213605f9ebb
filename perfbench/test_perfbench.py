"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# A 2-D point whose prefix solves need ~640 MB of address space at the seed
# commit, while set-up needs ~340 MB.
KNOWN_2D_POINT = [1.27, 0.858, 0.796]
SMALL_CAP = 450 * 1024 ** 2


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _tiny_ops(workload):
    ops = next(workloads.rounds(workload, 5))
    if workload == "sweep-2q":   # skip the ~1 s boundary points
        ref = workloads.sweep_reference()
        ops = [op for op in ops if ref[tuple(op)][0] != "B"]
    if workload == "classify-3q":
        pool = {tuple(p["rates"]): p for p in
                workloads._load_json("classify_3q.json")["points"]}
        ops = [op for op in ops if pool[tuple(op)]["stratum"] == "fast"]
    return ops[:3]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_completes_and_checks(workload):
    p = run.Pass(workload, False, workloads.DEADLINE_S[workload])
    try:
        for op in _tiny_ops(workload):
            assert p.run(op), p.results[-1]
    finally:
        p.close()
    problems, _ = run.check(workload, p.results)
    assert problems == []


def test_traced_tiny_run_matches_untraced():
    workload = "couple-corpus"
    p = run.Pass(workload, False, workloads.DEADLINE_S[workload])
    try:
        for op in _tiny_ops(workload):
            p.run(op)
    finally:
        p.close()
    tp, problems = run.traced_pass(workload, p)
    assert problems == []
    values, spans = run.per_layer(p, tp)
    assert set(values) == {name for name, _, _ in layers.PER_LAYER}
    assert values["simulate.pair_s"] > 0 and spans


def _last_json(args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    out = _last_json(["--workload", "couple-corpus", "--seed", "2",
                      "--seconds", "1", "--trace", str(trace)])
    assert out["correct"] is True and out["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in _benchmark_json()[key]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == spec


def test_benchmark_json_lists_workloads_and_layers():
    spec = _benchmark_json()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)


def test_small_cap_marks_known_2d_point_failed():
    p = run.Pass("classify-3q", False, 60.0, cap=SMALL_CAP)
    try:
        assert not p.run(KNOWN_2D_POINT)
        assert len(p.setups) == 2        # a fresh worker replaced the failed one
        assert p.run([1.663, 2.343, 2.039])
    finally:
        p.close()
    assert len(p.setups) == 2
    assert [ok for _, ok, _, _ in p.results] == [False, True]


def test_tracer_restores_originals():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import coupledq
    from tracer import Tracer

    before = (coupledq.engine.adaptive_stationary, coupledq.ctmc.build_truncated_generator,
              coupledq.StabilityEngine.classify, coupledq.AllocationSpec.rate)
    tracer = Tracer()
    tracer.install()
    try:
        assert coupledq.engine.adaptive_stationary is not before[0]
        assert coupledq.ctmc.build_truncated_generator is not before[1]
    finally:
        tracer.restore()
    after = (coupledq.engine.adaptive_stationary, coupledq.ctmc.build_truncated_generator,
             coupledq.StabilityEngine.classify, coupledq.AllocationSpec.rate)
    assert all(a is b for a, b in zip(before, after))
