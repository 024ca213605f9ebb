"""Benchmark worker: sets up one workload, then serves its ops over a pipe.

Usage: python3 perfbench/worker.py WORKLOAD CAP_BYTES TRACE

The worker caps its own address space with ``setrlimit`` (nothing outside
this process is touched), imports ``coupledq`` from the checkout's ``src``
directory and runs the workload's set-up.  It then answers one JSON request
per stdin line with one JSON reply per stdout line.  The parent enforces the
per-op deadline and restarts the worker after any failed op.
"""

import time

_t0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    workload, cap, trace = argv[0], int(argv[1]), argv[2] == "1"
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    import workloads

    # Replies go to a private copy of stdout; anything the library or its
    # native code prints lands on stderr instead of in the reply stream.
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = workloads.setup(workload)
    ready = {"ready": True, "setup_s": time.perf_counter() - _t0, "rss_kb": _rss_kb()}
    if tracer is not None:
        ready["trace"] = tracer.drain()
    out.write(json.dumps(ready) + "\n")
    out.flush()

    try:
        for line in sys.stdin:
            req = json.loads(line)
            if tracer is not None:
                tracer.op = req["id"]
            start = time.perf_counter()
            try:
                result = workloads.run_op(workload, state, req["op"])
                reply = {"ok": True, "out": result}
            except Exception as exc:  # reported to the parent as a failed op
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            reply["s"] = time.perf_counter() - start
            reply["rss_kb"] = _rss_kb()
            if tracer is not None:
                reply["trace"] = tracer.drain()
            out.write(json.dumps(reply) + "\n")
            out.flush()
    finally:
        if tracer is not None:
            tracer.restore()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
