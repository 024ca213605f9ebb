"""Scenario files and built-in model presets.

A scenario is a JSON document with the exact key set::

    {
      "name": "...",                      # optional
      "n_queues": 2,
      "arrival_rates": [0.3, 0.4],        # or "grid": [{"min":..,"max":..,"step":..}, ...]
      "allocation": {
        "kind": "product",
        "gain": {"cap": 3.0, "form": "log_gain"},
        "interference": {"form": "exp_interference", "gamma": 2.0}
      },
      "bound": 1.5,                       # optional loosened rate bound
      "limit_tol": 1e-9,                  # optional
      "tolerances": {"margins_tol": 1e-4},# optional engine overrides
      "seed": 1234                        # optional
    }

``kind = "table"`` instead takes ``a_i`` (three solo rates) and ``a_ij``
(pairwise rates keyed "12", "13", ..., 1-based), with the both-busy rate
fixed at 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .allocation import (
    GAIN_FORMS,
    INTERFERENCE_FORMS,
    AllocationSpec,
    base_station_pair,
    build_product_allocation,
    constant_allocation,
    log_gain,
    one_server_power_law,
    three_queue_table,
)
from .engine import Tolerances
from .errors import ScenarioError


@dataclass
class GridAxis:
    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.lo, self.hi, self.step)):
            raise ScenarioError(
                f"grid axis {self.lo}:{self.hi}:{self.step} must be finite")
        if self.lo <= 0:
            raise ScenarioError(f"grid rates must be strictly positive, got {self.lo}")
        if self.step <= 0:
            raise ScenarioError(f"grid step must be positive, got {self.step}")
        if self.hi < self.lo:
            raise ScenarioError(f"grid range [{self.lo}, {self.hi}] is empty")

    def values(self) -> list:
        out = []
        k = 0
        while True:
            v = round(self.lo + k * self.step, 12)
            if v > self.hi + 1e-9 * self.step:
                break
            out.append(v)
            k += 1
        return out


@dataclass
class Scenario:
    name: str
    spec: AllocationSpec
    rates: Optional[tuple] = None
    grid: Optional[list] = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int = 20080447
    params: dict = field(default_factory=dict)

    @property
    def n_queues(self) -> int:
        return self.spec.n_queues

    def grid_points(self) -> list:
        if self.grid is None:
            raise ScenarioError(f"scenario {self.name!r} has no sweep grid")
        axes = [ax.values() for ax in self.grid]
        points = [()]
        for vals in axes:
            points = [p + (v,) for p in points for v in vals]
        return points


def _require(cond, msg):
    if not cond:
        raise ScenarioError(msg)


def _build_allocation(n: int, block: dict, bound_override) -> AllocationSpec:
    _require(isinstance(block, dict), "allocation must be an object")
    kind = block.get("kind")
    if kind == "table":
        _require(n == 3, "table allocations describe exactly three queues")
        keys = set(block) - {"kind", "a_i", "a_ij"}
        _require(not keys, f"unknown allocation keys {sorted(keys)}")
        a_i = block.get("a_i")
        _require(isinstance(a_i, list) and len(a_i) == 3, "a_i must list three rates")
        a_ij_raw = block.get("a_ij", {})
        _require(isinstance(a_ij_raw, dict), "a_ij must map 'ij' pairs to rates")
        a_pair = {}
        for key, val in a_ij_raw.items():
            _require(
                isinstance(key, str) and len(key) == 2 and key[0] in "123"
                and key[1] in "123" and key[0] != key[1],
                f"a_ij key {key!r} must be a two-digit 1-based pair like '23'",
            )
            a_pair[(int(key[0]) - 1, int(key[1]) - 1)] = float(val)
        for i in range(3):
            for j in range(3):
                if i != j:
                    a_pair.setdefault((i, j), 1.0)
        spec = three_queue_table(tuple(float(v) for v in a_i), a_pair, strict=False)
    elif kind == "product":
        keys = set(block) - {"kind", "gain", "interference"}
        _require(not keys, f"unknown allocation keys {sorted(keys)}")
        gain = block.get("gain", {})
        inter = block.get("interference", {})
        gform = gain.get("form", "log_gain")
        _require(gform in GAIN_FORMS, f"unknown gain form {gform!r}")
        cap = float(gain.get("cap", 3.0))
        iform = inter.get("form")
        _require(iform in INTERFERENCE_FORMS, f"unknown interference form {iform!r}")
        gamma = float(inter.get("gamma", 1.0))
        g = GAIN_FORMS[gform](cap)
        factor = INTERFERENCE_FORMS[iform](gamma)
        gains = [g] * n
        interference = [
            {j: factor for j in range(n) if j != i} for i in range(n)
        ]
        spec = build_product_allocation(gains, interference)
    else:
        raise ScenarioError(f"allocation kind must be 'table' or 'product', got {kind!r}")

    if bound_override is not None:
        b = float(bound_override)
        _require(
            b >= spec.bound - 1e-12,
            f"declared bound {b} below the allocation's natural bound {spec.bound}",
        )
        spec = replace(spec, bound=b)
    return spec


_TOP_KEYS = {
    "name", "n_queues", "arrival_rates", "grid", "allocation",
    "bound", "limit_tol", "tolerances", "seed",
}


def scenario_from_dict(data: dict, name: str = "scenario") -> Scenario:
    _require(isinstance(data, dict), "scenario document must be an object")
    unknown = set(data) - _TOP_KEYS
    _require(not unknown, f"unknown scenario keys {sorted(unknown)}")
    n = data.get("n_queues")
    _require(isinstance(n, int) and n >= 1, "n_queues must be a positive integer")
    _require("allocation" in data, "scenario needs an allocation block")

    tol_block = data.get("tolerances", {})
    _require(isinstance(tol_block, dict), "tolerances must be an object")
    tol_kw = {"limit_tol": data["limit_tol"]} if "limit_tol" in data else {}
    tol_kw.update(tol_block)
    try:
        tolerances = Tolerances().replace(**tol_kw)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    spec = _build_allocation(n, data["allocation"], data.get("bound"))

    rates = None
    grid = None
    if "arrival_rates" in data:
        raw = data["arrival_rates"]
        _require(isinstance(raw, list) and len(raw) == n,
                 f"arrival_rates must list {n} rates")
        rates = tuple(float(v) for v in raw)
        _require(all(v > 0 and math.isfinite(v) for v in rates),
                 "arrival rates must be strictly positive")
    if "grid" in data:
        raw = data["grid"]
        _require(isinstance(raw, list) and len(raw) == n,
                 f"grid must list {n} axes")
        grid = []
        for ax in raw:
            _require(isinstance(ax, dict) and set(ax) == {"min", "max", "step"},
                     "each grid axis needs the keys min, max and step")
            try:
                grid.append(GridAxis(*(float(ax[k]) for k in ("min", "max", "step"))))
            except (TypeError, ValueError):
                raise ScenarioError(f"grid axis {ax} is not numeric") from None
    _require(rates is not None or grid is not None,
             "scenario needs arrival_rates or a grid")

    return Scenario(
        name=str(data.get("name", name)),
        spec=spec,
        rates=rates,
        grid=grid,
        tolerances=tolerances,
        seed=int(data.get("seed", 20080447)),
        params=dict(data.get("allocation", {})),
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    return scenario_from_dict(data, name=path)


# ---------------------------------------------------------------------------
# Built-in presets
# ---------------------------------------------------------------------------

def _one_server_alpha(params: dict) -> Scenario:
    alpha = float(params.get("alpha", 2.0))
    lam = float(params.get("lambda1", params.get("lam", 0.9)))
    return Scenario(
        name="one_server_alpha",
        spec=one_server_power_law(alpha),
        rates=(lam,),
        params={"alpha": alpha},
    )


def _two_basestations(params: dict) -> Scenario:
    gamma = float(params.get("gamma", 2.0))
    form = str(params.get("form", "exp_interference"))
    cap = float(params.get("cap", 3.0))
    lam = params.get("rates")
    rates = tuple(float(v) for v in lam) if lam is not None else None
    grid = None
    if rates is None:
        step = float(params.get("step", 0.05))
        hi = float(params.get("hi", 1.45))
        grid = [GridAxis(step, hi, step), GridAxis(step, hi, step)]
    return Scenario(
        name="two_basestations",
        spec=base_station_pair(gamma, form=form, cap=cap),
        rates=rates,
        grid=grid,
        params={"gamma": gamma, "form": form, "cap": cap},
    )


def _three_queues(params: dict) -> Scenario:
    a = tuple(float(params.get(f"a{i}", 3.0)) for i in (1, 2, 3))
    a_pair = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                a_pair[(i, j)] = float(params.get(f"a{i + 1}{j + 1}", 2.0))
    lam = params.get("rates", (0.5, 1.2, 0.3))
    return Scenario(
        name="three_queues",
        spec=three_queue_table(a, a_pair, strict=False),
        rates=tuple(float(v) for v in lam),
        params={"a": a, "a_pair": {f"{i+1}{j+1}": v for (i, j), v in a_pair.items()}},
    )


def _mm1(params: dict) -> Scenario:
    lam = float(params.get("lam", 0.5))
    mu = float(params.get("mu", 1.0))
    return Scenario(
        name="mm1",
        spec=constant_allocation((mu,)),
        rates=(lam,),
        params={"mu": mu},
    )


# name -> (factory, the parameter keys it reads)
BUILTIN_SCENARIOS = {
    "one_server_alpha": (_one_server_alpha, {"alpha", "lambda1", "lam"}),
    "two_basestations": (_two_basestations,
                         {"gamma", "form", "cap", "rates", "step", "hi"}),
    "three_queues": (_three_queues, {"rates", "a1", "a2", "a3"} | {
        f"a{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3) if i != j}),
    "mm1": (_mm1, {"lam", "mu"}),
}


def builtin_scenario(name: str, params: Optional[dict] = None) -> Scenario:
    try:
        factory, keys = BUILTIN_SCENARIOS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown built-in scenario {name!r}; available: "
            f"{', '.join(sorted(BUILTIN_SCENARIOS))}"
        ) from None
    params = dict(params or {})
    unknown = set(params) - keys
    _require(not unknown, f"unknown parameters {sorted(unknown)} for scenario "
                          f"{name!r}; it reads {', '.join(sorted(keys))}")
    try:
        return factory(params)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"scenario {name!r}: {exc}") from None


def resolve_scenario(ref: str, params: Optional[dict] = None) -> Scenario:
    """A built-in name, or a path to a JSON scenario file (which takes no
    parameters)."""
    if ref in BUILTIN_SCENARIOS:
        return builtin_scenario(ref, params)
    _require(not params, f"parameters {sorted(params or ())} apply to built-in "
                         f"scenarios only, not to the file {ref!r}")
    return load_scenario(ref)
