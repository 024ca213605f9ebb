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

The allocation kinds:

- ``product``: gain times pairwise interference, as above; ``gamma > 0``;
- ``table``: three queues, ``a_i`` (three solo rates) and ``a_ij`` (pairwise
  rates keyed "12", "13", ..., 1-based, default 1), with the both-busy rate
  fixed at 1;
- ``constant``: ``mu``, one fixed service rate per queue;
- ``power_law``: one queue served at ``(1 + 1/x)^alpha``.

Every value above that is a number must be a JSON number; a quoted number or
a boolean is rejected, not coerced.

Each built-in preset is a function from its ``--param`` values to such a
document, so presets and files are read by the same code and get the same
checks.  :class:`Scenario` itself checks its arrival rates and grid, also
when a command-line flag replaces them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .allocation import (
    GAIN_FORMS,
    INTERFERENCE_FORMS,
    AllocationSpec,
    build_product_allocation,
    constant_allocation,
    one_server_power_law,
    three_queue_table,
)
from .engine import Tolerances
from .errors import InvalidShape, ScenarioError

# the most points an axis, or a whole grid, may hold; checked before building
MAX_GRID_POINTS = 100_000
DEFAULT_SEED = 20080447  # of a scenario, and of couple-check's random pairs


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
        if (self.hi - self.lo) / self.step >= MAX_GRID_POINTS:
            raise ScenarioError(
                f"grid axis {self.lo}:{self.hi}:{self.step} has more than "
                f"{MAX_GRID_POINTS} points")

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


@dataclass(frozen=True)
class Scenario:
    name: str
    spec: AllocationSpec
    rates: Optional[tuple] = None
    grid: Optional[list] = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int = DEFAULT_SEED
    params: dict = field(default_factory=dict)  # the allocation block

    def __post_init__(self):
        n = self.n_queues
        _require(self.rates is not None or self.grid is not None,
                 "scenario needs arrival_rates or a grid")
        if self.rates is not None:
            _require(len(self.rates) == n,
                     f"scenario has {n} queues, got {len(self.rates)} rates")
            _require(all(math.isfinite(r) and r > 0 for r in self.rates),
                     f"arrival rates must be positive and finite, got {list(self.rates)}")
        _require(self.grid is None or len(self.grid) == n,
                 f"scenario has {n} queues, got {len(self.grid or ())} grid axes")

    @property
    def n_queues(self) -> int:
        return self.spec.n_queues

    def grid_points(self) -> list:
        if self.grid is None:
            raise ScenarioError(f"scenario {self.name!r} has no sweep grid")
        axes = [ax.values() for ax in self.grid]
        if math.prod(len(vals) for vals in axes) > MAX_GRID_POINTS:
            raise ScenarioError(f"grid of {' x '.join(str(len(v)) for v in axes)} "
                                f"points has more than {MAX_GRID_POINTS}")
        points = [()]
        for vals in axes:
            points = [p + (v,) for p in points for v in vals]
        return points


# what the allocation builders raise for values they reject, e.g. a negative
# service rate or a non-positive interference gamma
_REJECTED = (ValueError, TypeError, OverflowError, InvalidShape)


def _require(cond, msg):
    if not cond:
        raise ScenarioError(msg)


def _number(value, key: str, kind=float):
    """``kind(value)`` of a JSON number, or a :class:`ScenarioError` naming
    ``key``.  A bool or a quoted number is not a number, and ``kind=int``
    takes whole numbers only."""
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    try:
        if not isinstance(value, (int, float)) or isinstance(value, bool) or fraction:
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        need = "an integer" if kind is int else "a number"
        raise ScenarioError(f"{key} must be {need}, got {value!r}") from None


# allocation kind -> the keys its block may hold besides "kind"
_ALLOCATION_KEYS = {
    "table": {"a_i", "a_ij"},
    "product": {"gain", "interference"},
    "constant": {"mu"},
    "power_law": {"alpha"},
}
# the table kind's pairwise-rate keys, 1-based: "12", "13", "21", ...
_PAIRS = [i + j for i, j in itertools.permutations("123", 2)]


def _build_allocation(n: int, block: dict, bound: Optional[float]) -> AllocationSpec:
    _require(isinstance(block, dict), "allocation must be an object")
    kind = block.get("kind")
    _require(isinstance(kind, str) and kind in _ALLOCATION_KEYS,
             f"allocation kind must be one of {', '.join(_ALLOCATION_KEYS)}, "
             f"got {kind!r}")
    keys = set(block) - {"kind"} - _ALLOCATION_KEYS[kind]
    _require(not keys, f"unknown allocation keys {sorted(keys)}")
    if kind == "table":
        _require(n == 3, "table allocations describe exactly three queues")
        a_i = block.get("a_i")
        _require(isinstance(a_i, list) and len(a_i) == 3, "a_i must list three rates")
        a_ij_raw = block.get("a_ij", {})
        _require(isinstance(a_ij_raw, dict), "a_ij must map 'ij' pairs to rates")
        a_pair = {}
        for key, val in a_ij_raw.items():
            _require(key in _PAIRS,
                     f"a_ij key {key!r} must be a two-digit 1-based pair like '23'")
            a_pair[(int(key[0]) - 1, int(key[1]) - 1)] = _number(val, f"a_ij {key!r}")
        for ij in itertools.permutations(range(3), 2):
            a_pair.setdefault(ij, 1.0)
        spec = three_queue_table(tuple(_number(v, "a_i") for v in a_i), a_pair)
    elif kind == "product":
        gain = block.get("gain", {})
        inter = block.get("interference", {})
        _require(isinstance(gain, dict) and isinstance(inter, dict),
                 "gain and interference must be objects")
        gform = gain.get("form", "log_gain")
        _require(gform in GAIN_FORMS, f"unknown gain form {gform!r}")
        cap = _number(gain.get("cap", 3.0), "gain.cap")
        iform = inter.get("form")
        _require(iform in INTERFERENCE_FORMS, f"unknown interference form {iform!r}")
        gamma = _number(inter.get("gamma", 1.0), "interference.gamma")
        g = GAIN_FORMS[gform](cap)
        factor = INTERFERENCE_FORMS[iform](gamma)
        gains = [g] * n
        interference = [
            {j: factor for j in range(n) if j != i} for i in range(n)
        ]
        spec = build_product_allocation(gains, interference)
    elif kind == "constant":
        mu = block.get("mu")
        _require(isinstance(mu, list) and len(mu) == n, f"mu must list {n} rates")
        spec = constant_allocation([_number(v, "mu") for v in mu])
    else:
        _require(n == 1, "power_law allocations describe exactly one queue")
        spec = one_server_power_law(_number(block.get("alpha"), "alpha"))

    if bound is not None:
        _require(
            bound >= spec.bound - 1e-12,
            f"declared bound {bound} below the allocation's natural bound {spec.bound}",
        )
        spec = replace(spec, bound=bound)
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
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             "n_queues must be a positive integer")
    _require("allocation" in data, "scenario needs an allocation block")

    tol_block = data.get("tolerances", {})
    _require(isinstance(tol_block, dict), "tolerances must be an object")
    _require(not ("limit_tol" in data and "limit_tol" in tol_block),
             "limit_tol is set both at the top level and under tolerances; give it once")
    tol_kw = {"limit_tol": data["limit_tol"]} if "limit_tol" in data else {}
    tol_kw.update(tol_block)
    try:
        tolerances = Tolerances().replace(**tol_kw)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    bound = _number(data["bound"], "bound") if "bound" in data else None
    try:
        spec = _build_allocation(n, data["allocation"], bound)
    except _REJECTED as exc:
        raise ScenarioError(f"allocation: {exc}") from None

    rates = None
    grid = None
    if "arrival_rates" in data:
        raw = data["arrival_rates"]
        _require(isinstance(raw, (list, tuple)), "arrival_rates must be a list")
        rates = tuple(_number(v, "arrival_rates") for v in raw)
    if "grid" in data:
        raw = data["grid"]
        _require(isinstance(raw, list), "grid must be a list of axes")
        grid = []
        for ax in raw:
            _require(isinstance(ax, dict) and set(ax) == {"min", "max", "step"},
                     "each grid axis needs the keys min, max and step")
            grid.append(GridAxis(*(_number(ax[k], f"grid axis {k}")
                                   for k in ("min", "max", "step"))))

    return Scenario(
        name=str(data.get("name", name)),
        spec=spec,
        rates=rates,
        grid=grid,
        tolerances=tolerances,
        seed=_number(data.get("seed", DEFAULT_SEED), "seed", int),
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
# Built-in presets: each turns its parameters into a scenario document
# ---------------------------------------------------------------------------

def _one_server_alpha(params: dict) -> dict:
    _require(not {"lam", "lambda1"} <= set(params),
             "lam and lambda1 both set the arrival rate; give one of them")
    return {"n_queues": 1,
            "arrival_rates": [params.get("lambda1", params.get("lam", 0.9))],
            "allocation": {"kind": "power_law", "alpha": params.get("alpha", 2.0)}}


def _two_basestations(params: dict) -> dict:
    doc = {"n_queues": 2, "allocation": {
        "kind": "product",
        "gain": {"form": "log_gain", "cap": params.get("cap", 3.0)},
        "interference": {"form": params.get("form", "exp_interference"),
                         "gamma": params.get("gamma", 2.0)}}}
    if params.get("rates") is not None:
        _require(not {"step", "hi"} & set(params),
                 "step and hi set the default grid; give them without rates")
        doc["arrival_rates"] = params["rates"]
    else:
        step = params.get("step", 0.05)
        doc["grid"] = [{"min": step, "max": params.get("hi", 1.45), "step": step}] * 2
    return doc


def _three_queues(params: dict) -> dict:
    return {"n_queues": 3, "arrival_rates": params.get("rates", [0.5, 1.2, 0.3]),
            "allocation": {"kind": "table",
                           "a_i": [params.get(f"a{i}", 3.0) for i in (1, 2, 3)],
                           "a_ij": {ij: params.get(f"a{ij}", 2.0) for ij in _PAIRS}}}


def _mm1(params: dict) -> dict:
    return {"n_queues": 1, "arrival_rates": [params.get("lam", 0.5)],
            "allocation": {"kind": "constant", "mu": [params.get("mu", 1.0)]}}


# name -> (document builder, the parameter keys it reads)
BUILTIN_SCENARIOS = {
    "one_server_alpha": (_one_server_alpha, {"alpha", "lambda1", "lam"}),
    "two_basestations": (_two_basestations,
                         {"gamma", "form", "cap", "rates", "step", "hi"}),
    "three_queues": (_three_queues,
                     {"rates", "a1", "a2", "a3"} | {f"a{ij}" for ij in _PAIRS}),
    "mm1": (_mm1, {"lam", "mu"}),
}


def builtin_scenario(name: str, params: Optional[dict] = None) -> Scenario:
    try:
        document, keys = BUILTIN_SCENARIOS[name]
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
        return scenario_from_dict(document(params), name)
    except ScenarioError as exc:
        raise ScenarioError(f"scenario {name!r}: {exc}") from None


def resolve_scenario(ref: str, params: Optional[dict] = None) -> Scenario:
    """A built-in name, or a path to a JSON scenario file (which takes no
    parameters)."""
    if ref in BUILTIN_SCENARIOS:
        return builtin_scenario(ref, params)
    _require(not params, f"parameters {sorted(params or ())} apply to built-in "
                         f"scenarios only, not to the file {ref!r}")
    return load_scenario(ref)
