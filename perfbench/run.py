"""coupledq benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep-2q --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Run from the root of a checkout; the library is imported from ``src/``.
Each workload's ops run in one worker process (``worker.py``) under an
address-space cap and a per-op deadline; a crashed, capped or late op is
marked failed and a fresh worker takes over.  With ``--trace 0`` the last
stdout line is a JSON object holding the end-to-end metrics; with
``--trace 1`` the same ops run once untraced and once traced, outputs must
match, and the JSON holds the per-layer metrics.  Outputs are checked
against ``refs/``; a failed check prints ``"correct": false`` without
numbers and exits 1.  See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

CAP_BYTES = 2 * 1024 ** 3
# Set-ups per run: worker starts that only set up and stop, before the loop
# (the worker that serves the ops is one more) and after it, so that
# setup_s samples both ends of the run.
SETUPS_BEFORE = 2
SETUPS_AFTER = 2
SETUP_DEADLINE_S = 120.0
TRACED_DEADLINE_FACTOR = 4.0
OUT_DIR = os.path.join(HERE, "out")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("peak_rss_mb", "MB"))


class WorkerDied(Exception):
    pass


class Worker:
    """One worker process; ``call`` returns its reply or raises WorkerDied."""

    def __init__(self, workload: str, trace: bool, cap: int = CAP_BYTES):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), workload, str(cap),
             "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        )
        self._buf = b""
        try:
            self.ready = self._read(SETUP_DEADLINE_S)
        except WorkerDied:
            self.stop(kill=True)
            raise

    def _read(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise WorkerDied("deadline")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise WorkerDied("exited")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, req: dict, timeout: float) -> dict:
        try:
            self.proc.stdin.write((json.dumps(req) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerDied("exited") from None
        return self._read(timeout)

    def stop(self, kill: bool = False) -> None:
        """End the worker and reap it.  A healthy worker sees its input
        close and exits on its own, restoring traced functions first; a
        failed one is killed."""
        if not kill:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()


class Pass:
    """One pass of ops through a worker, restarting it after each failure."""

    def __init__(self, workload: str, trace: bool, deadline: float, cap: int = CAP_BYTES):
        self.workload = workload
        self.trace = trace
        self.deadline = deadline
        self.cap = cap
        self.setups = []
        self.rss_kb = 0
        self.traces = []
        self.worker = None
        self.results = []          # (op, ok, seconds, output or error)

    def _start(self):
        try:
            w = Worker(self.workload, self.trace, self.cap)
        except WorkerDied as exc:
            raise SystemExit(f"worker set-up failed ({exc}); is src/coupledq present?")
        self.setups.append(w.ready["setup_s"])
        self.rss_kb = max(self.rss_kb, w.ready["rss_kb"])
        if self.trace:
            self.traces.append(w.ready["trace"])
        return w

    def setup_only(self):
        self._start().stop()

    def run(self, op) -> bool:
        if self.worker is None:
            self.worker = self._start()
        req = {"id": len(self.results), "op": op}
        try:
            reply = self.worker.call(req, self.deadline)
        except WorkerDied as exc:
            reply = {"ok": False, "error": f"worker {exc}", "s": self.deadline}
        if reply["ok"]:
            self.rss_kb = max(self.rss_kb, reply["rss_kb"])
            if self.trace:
                self.traces.append(reply["trace"])
            self.results.append((op, True, reply["s"], reply["out"]))
            return True
        self.results.append((op, False, self.deadline, reply["error"]))
        self.worker.stop(kill=True)
        self.worker = self._start()
        return False

    def close(self):
        if self.worker is not None:
            self.worker.stop()
            self.worker = None


def run_window(workload: str, seed: int, seconds: float) -> tuple:
    """Untraced closed loop: whole rounds until the next one would overrun."""
    p = Pass(workload, False, workloads.DEADLINE_S[workload])
    for _ in range(SETUPS_BEFORE):
        p.setup_only()
    p.worker = p._start()
    start = time.perf_counter()
    last = 0.0
    try:
        for ops in workloads.rounds(workload, seed):
            t = time.perf_counter()
            for op in ops:
                p.run(op)
            now = time.perf_counter()
            last = now - t
            if now - start + last > seconds:
                break
        wall = time.perf_counter() - start
    finally:
        p.close()
    for _ in range(SETUPS_AFTER):
        p.setup_only()
    return p, wall


def check(workload: str, results) -> tuple:
    checker = workloads.Checker(workload)
    for op, ok, _, out in results:
        if ok:
            checker.op(op, out)
    return checker.finish(), checker


def end_to_end(p: Pass, wall: float) -> dict:
    done = [s for _, ok, s, _ in p.results if ok]
    lat = [s if ok else p.deadline for _, ok, s, _ in p.results]
    return {
        "setup_s": statistics.median(p.setups),
        "ops_per_s": len(done) / wall,
        "op_ms_p50": 1000.0 * statistics.median(lat),
        "peak_rss_mb": p.rss_kb / 1024.0,
    }


def traced_pass(workload: str, untraced: Pass) -> tuple:
    """Run the ops that succeeded untraced again, traced; same outputs required."""
    ops = [op for op, ok, _, _ in untraced.results if ok]
    p = Pass(workload, True, workloads.DEADLINE_S[workload] * TRACED_DEADLINE_FACTOR)
    problems = []
    try:
        for op in ops:
            p.run(op)
    finally:
        p.close()
    want = [(op, out) for op, ok, _, out in untraced.results if ok]
    got = [(op, out if ok else f"failed: {out}") for op, ok, _, out in p.results]
    for (op, a), (_, b) in zip(want, got):
        if a != b:
            problems.append(f"traced output differs at {op}: {b} vs untraced {a}")
    return p, problems


def per_layer(untraced: Pass, traced: Pass) -> tuple:
    spans = [s for t in traced.traces for s in t["spans"]]
    counters = {}
    for t in traced.traces:
        for k, v in t["counters"].items():
            counters[k] = max(counters.get(k, 0), v) if k == "max_states" else counters.get(k, 0) + v
    untraced_s = sum(s for _, ok, s, _ in untraced.results if ok) + statistics.median(untraced.setups)
    overhead = sum(s for _, _, s, _ in traced.results) + traced.setups[0] - untraced_s
    return layers.metrics(spans, counters, overhead), spans


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    # A traced run spends half its time untraced and the rest on the same
    # ops traced, so it lasts about as long as an untraced one.
    p, wall = run_window(workload, seed, seconds / 2 if trace else seconds)
    problems, checker = check(workload, p.results)
    attempted = len(p.results)
    failed = sum(1 for r in p.results if not r[1])
    metrics = {}
    if trace and not problems:
        tp, tproblems = traced_pass(workload, p)
        problems += tproblems
        if not problems:
            values, spans = per_layer(p, tp)
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl")
            with open(path, "w", encoding="utf-8") as f:
                for i, (op, _, _, _) in enumerate(tp.results):
                    f.write(json.dumps({"op": i, "input": op}) + "\n")
                for s in spans:
                    f.write(json.dumps(s) + "\n")
            print(f"{workload}: {len(spans)} spans written to {os.path.relpath(path, ROOT)}")
            for name, unit, _ in layers.PER_LAYER:
                metrics[name] = {"value": values[name], "unit": unit}
    elif not problems:
        values = end_to_end(p, wall)
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    for msg in problems[:20]:
        print(f"{workload}: CHECK FAILED: {msg}")
    if problems:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    for name, m in metrics.items():
        print(f"{workload:14s} {name:28s} {m['value']:14.6g} {m['unit']}")
    if not trace:
        print(f"{workload:14s} {'failed_frac':28s} {failed / attempted:14.6g} 1")
    print(f"{workload}: {attempted} ops attempted, {failed} failed, wall {wall:.2f} s"
          + (f", {checker.unreferenced} completed without a seed-commit reference"
             if checker.unreferenced else "")
          + (f", probe agreement {checker.agree}/{checker.probed}" if checker.probed else ""))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "coupledq", "__init__.py")):
        print("run.py: no src/coupledq in this checkout", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        status |= run_workload(name, args.seed, args.seconds, bool(args.trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
