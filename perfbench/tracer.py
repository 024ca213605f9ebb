"""Call tracing for the traced benchmark run, installed from outside the library.

Wrappers replace the public functions of the ``allocation``, ``ctmc``,
``engine`` and ``simulate`` layers at every place the name is looked up at
call time: module globals of every loaded ``coupledq`` module that hold the
original function, and class attributes for methods.  ``Tracer.restore``
puts every original back.

Coarse calls (classify, adaptive solve, build, solve, expect, structure
checks, path, probe, pair) record a span ``(name, start, end, parent, op)``.
Per-state calls (``rate``, ``rate_unmemoized``, ``lower_partial_limit``) run
millions of times, so they only bump a counter; ``lower_partial_limit`` also
accumulates time.  Build, adaptive-solve and path spans also carry their
state, box and event counts.  Every timed call adds its duration to the span
that called it, which gives the self time of ``classify`` and of the probe.
"""

from __future__ import annotations

import functools
import sys
import time

_clock = time.perf_counter

# (module, attribute, span name or None for per-state, layer)
_FUNCTIONS = (
    ("coupledq.allocation", "check_partially_decreasing", "structure.pd", "allocation"),
    ("coupledq.allocation", "check_uniform_limits", "structure.ul", "allocation"),
    ("coupledq.allocation", "lower_partial_limit", None, "allocation"),
    ("coupledq.ctmc", "adaptive_stationary", "ctmc.adaptive", "ctmc"),
    ("coupledq.ctmc", "build_truncated_generator", "ctmc.build", "ctmc"),
    ("coupledq.ctmc", "solve_stationary", "ctmc.solve", "ctmc"),
    ("coupledq.simulate", "simulate_path", "simulate.path", "simulate"),
    ("coupledq.simulate", "empirical_stability_probe", "simulate.probe", "simulate"),
    ("coupledq.simulate", "simulate_coupled_pair", "simulate.pair", "simulate"),
    ("coupledq.simulate", "random_hypothesis_pair", "simulate.pair_gen", "simulate"),
)

# (module, class, method, span name or None, layer)
_METHODS = (
    ("coupledq.allocation", "AllocationSpec", "rate", None, "allocation"),
    ("coupledq.allocation", "AllocationSpec", "rate_unmemoized", None, "allocation"),
    ("coupledq.ctmc", "StationaryDistribution", "expect", "ctmc.expect", "ctmc"),
    ("coupledq.engine", "StabilityEngine", "classify", "engine.classify", "engine"),
    ("coupledq.engine", "StabilityEngine", "sequential_prefix", "engine.scan", "engine"),
    ("coupledq.engine", "StabilityEngine", "general_bounds", "engine.bounds", "engine"),
)

COUNTER_KEYS = (
    "rate_calls", "rate_fn_calls", "rate_fn_in_rate", "limit_calls", "limit_s",
    "boxes_tried", "states_built", "max_states", "noconv", "adaptive_returned",
    "certified", "events", "engine_covered_s", "probe_covered_s",
)


class _Frame:
    __slots__ = ("layer", "name", "span_id", "covered")

    def __init__(self, layer, name, span_id):
        self.layer = layer
        self.name = name
        self.span_id = span_id
        self.covered = 0.0


class Tracer:
    """Collects spans and counters; one instance per traced worker."""

    def __init__(self):
        self.op = None
        self.spans = []
        self.counters = dict.fromkeys(COUNTER_KEYS, 0)
        self._stack = []
        self._next_span = 0
        self._rate_depth = [0]
        self._saved = []

    # -- installation ----------------------------------------------------------

    def install(self):
        import coupledq  # noqa: F401  (loads every layer module)

        for mod_name, attr, span, layer in _FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, attr, span, layer)
            for name, module in list(sys.modules.items()):
                if not (name == "coupledq" or name.startswith("coupledq.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, attr, span, layer in _METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, attr, span, layer))

    def restore(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, attr, span, layer):
        if span is None:
            return getattr(self, f"_count_{attr}")(fn)
        stack = self._stack
        counters = self.counters
        after = getattr(self, f"_after_{attr}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_span
            self._next_span += 1
            frame = _Frame(layer, span, span_id)
            stack.append(frame)
            start = _clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent.covered += duration
                    if layer != "engine" and parent.layer == "engine":
                        counters["engine_covered_s"] += duration
                    if span == "simulate.path" and parent.name == "simulate.probe":
                        counters["probe_covered_s"] += duration
                record = {
                    "id": span_id, "name": span, "start": start, "end": end,
                    "parent": parent.span_id if parent is not None else None,
                    "op": self.op, "self": duration - frame.covered,
                }
                info = after(result, exc) if after is not None else None
                if info:
                    record.update(info)
                self.spans.append(record)

        return wrapper

    # Per-state wrappers stay as light as possible: no frame of their own.

    def _count_rate(self, fn):
        counters, depth = self.counters, self._rate_depth

        @functools.wraps(fn)
        def rate(*args, **kwargs):
            counters["rate_calls"] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return rate

    def _count_rate_unmemoized(self, fn):
        counters, depth = self.counters, self._rate_depth

        @functools.wraps(fn)
        def rate_unmemoized(*args, **kwargs):
            counters["rate_fn_calls"] += 1
            if depth[0]:
                counters["rate_fn_in_rate"] += 1
            return fn(*args, **kwargs)

        return rate_unmemoized

    def _count_lower_partial_limit(self, fn):
        counters, stack = self.counters, self._stack

        @functools.wraps(fn)
        def lower_partial_limit(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                counters["limit_calls"] += 1
                counters["limit_s"] += duration
                if stack:
                    parent = stack[-1]
                    parent.covered += duration
                    if parent.layer == "engine":
                        counters["engine_covered_s"] += duration

        return lower_partial_limit

    def _after_adaptive_stationary(self, result, exc):
        c = self.counters
        if exc is not None:
            report = getattr(exc, "report", None)
            if type(exc).__name__ == "NoConvergence":
                c["noconv"] += 1
        else:
            report = result[1]
            c["adaptive_returned"] += 1
            c["certified"] += bool(report.certified)
        if report is None:
            return None
        c["boxes_tried"] += len(report.history)
        return {"boxes": len(report.history), "certified": report.certified}

    def _after_build_truncated_generator(self, result, exc):
        if exc is not None:
            return None
        n = result.n_states
        self.counters["states_built"] += n
        self.counters["max_states"] = max(self.counters["max_states"], n)
        return {"states": n}

    def _after_simulate_path(self, result, exc):
        if exc is not None:
            return None
        self.counters["events"] += result.event_count
        return {"events": result.event_count}

    # -- draining ----------------------------------------------------------------

    def drain(self):
        """Spans and counters gathered since the last drain; resets both."""
        out = {"spans": self.spans, "counters": dict(self.counters)}
        self.spans = []
        for key in self.counters:
            self.counters[key] = 0
        return out
