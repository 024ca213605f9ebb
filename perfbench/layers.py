"""Per-layer metrics of the traced run, computed from spans and counters.

Each metric names the end-to-end metric it should move; README.md has the
full map.  Sums run over the traced worker's set-up and all traced ops.
"""

from __future__ import annotations

# (name, unit, better)
PER_LAYER = (
    ("allocation.structure_s", "s", "lower"),
    ("allocation.rate_calls", "count", "lower"),
    ("allocation.rate_fn_calls", "count", "lower"),
    ("allocation.memo_hit_ratio", "1", "higher"),
    ("allocation.limit_calls", "count", "lower"),
    ("allocation.limit_s", "s", "lower"),
    ("ctmc.adaptive_calls", "count", "lower"),
    ("ctmc.adaptive_s", "s", "lower"),
    ("ctmc.boxes_tried", "count", "lower"),
    ("ctmc.build_calls", "count", "lower"),
    ("ctmc.build_s", "s", "lower"),
    ("ctmc.states_built", "count", "lower"),
    ("ctmc.max_states", "count", "lower"),
    ("ctmc.solve_s", "s", "lower"),
    ("ctmc.expect_calls", "count", "lower"),
    ("ctmc.expect_s", "s", "lower"),
    ("ctmc.noconv", "count", "lower"),
    ("ctmc.certified_ratio", "1", "higher"),
    ("engine.classify_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.scan_calls", "count", "lower"),
    ("engine.general_bounds_s", "s", "lower"),
    ("simulate.events", "count", "higher"),
    ("simulate.events_per_s", "1/s", "higher"),
    ("simulate.path_s", "s", "lower"),
    ("simulate.probe_self_s", "s", "lower"),
    ("simulate.pair_s", "s", "lower"),
    ("simulate.pair_gen_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _total(spans, name):
    """Time in spans of ``name``; no traced call nests inside itself."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _count(spans, name):
    return sum(1 for s in spans if s["name"] == name)


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(spans: list, c: dict, overhead_s: float) -> dict:
    """Every PER_LAYER value; a layer a workload never enters reads 0."""
    classify_s = _total(spans, "engine.classify")
    path_s = _total(spans, "simulate.path")
    probe_s = _total(spans, "simulate.probe")
    return {
        "allocation.structure_s": _total(spans, "structure.pd") + _total(spans, "structure.ul"),
        "allocation.rate_calls": c["rate_calls"],
        "allocation.rate_fn_calls": c["rate_fn_calls"],
        "allocation.memo_hit_ratio": _ratio(c["rate_calls"] - c["rate_fn_in_rate"], c["rate_calls"]),
        "allocation.limit_calls": c["limit_calls"],
        "allocation.limit_s": c["limit_s"],
        "ctmc.adaptive_calls": _count(spans, "ctmc.adaptive"),
        "ctmc.adaptive_s": _total(spans, "ctmc.adaptive"),
        "ctmc.boxes_tried": c["boxes_tried"],
        "ctmc.build_calls": _count(spans, "ctmc.build"),
        "ctmc.build_s": _total(spans, "ctmc.build"),
        "ctmc.states_built": c["states_built"],
        "ctmc.max_states": c["max_states"],
        "ctmc.solve_s": _total(spans, "ctmc.solve"),
        "ctmc.expect_calls": _count(spans, "ctmc.expect"),
        "ctmc.expect_s": _total(spans, "ctmc.expect"),
        "ctmc.noconv": c["noconv"],
        "ctmc.certified_ratio": _ratio(c["certified"], c["adaptive_returned"]),
        "engine.classify_s": classify_s,
        "engine.self_s": classify_s - c["engine_covered_s"],
        "engine.scan_calls": _count(spans, "engine.scan"),
        "engine.general_bounds_s": _total(spans, "engine.bounds"),
        "simulate.events": c["events"],
        "simulate.events_per_s": _ratio(c["events"], path_s),
        "simulate.path_s": path_s,
        "simulate.probe_self_s": probe_s - c["probe_covered_s"],
        "simulate.pair_s": _total(spans, "simulate.pair"),
        "simulate.pair_gen_s": _total(spans, "simulate.pair_gen"),
        "trace.overhead_s": overhead_s,
    }
