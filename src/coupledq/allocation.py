"""Service allocations for parallel queues with coupled, state-dependent rates.

An allocation assigns every queue ``i`` a service rate ``phi_i(x)`` that may
depend on the whole occupancy vector ``x``.  This module represents such
allocations, verifies the structural hypotheses the classification engine
relies on (boundedness, partial monotonicity, uniform saturation limits), and
evaluates saturated views where a subset of coordinates is pinned at infinity.

Queue indices are 0-based throughout the library.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    BoundViolation,
    InvalidShape,
    NoUniformLimit,
    SaturationNotConverged,
)

State = tuple  # tuple[int, ...]
RateFn = Callable[[int, State], float]
# array form of a RateFn: (i, X) -> rate_fn(i, row) for each row of the (m, n) array X
ArrayRateFn = Callable[[int, np.ndarray], np.ndarray]
# analytic saturated-limit evaluator: (prefix, queue, u) -> value or None, with
# prefix the sorted unsaturated queues and u their occupancies in that order
LimitFn = Callable[[tuple, int, State], Optional[float]]

DEFAULT_SAT_LEVEL = 64
DEFAULT_GROWTH = 2.0
DEFAULT_LIMIT_TOL = 1e-9
MAX_ESCALATIONS = 96
# factor tables stop growing here; larger queue lengths are evaluated row by row
FACTOR_TABLE_CAP = 1 << 20

_MONO_SLACK = 1e-12  # absorbs float noise in composed rate functions


@dataclass(frozen=True)
class ArrivalRates:
    """Strictly positive Poisson arrival rates, one per queue."""

    rates: tuple

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        for r in self.rates:
            if not (r > 0.0 and math.isfinite(r)):
                raise ValueError(f"arrival rates must be strictly positive, got {r}")

    def __len__(self):
        return len(self.rates)

    def __getitem__(self, i):
        return self.rates[i]

    def __iter__(self):
        return iter(self.rates)


def as_rates(rates) -> ArrivalRates:
    if isinstance(rates, ArrivalRates):
        return rates
    return ArrivalRates(tuple(rates))


@dataclass(eq=False)
class AllocationSpec:
    """A family of bounded service-rate functions on Z_+^N.

    ``rate_fn(i, x)`` must be deterministic and stay in ``[0, bound]``; every
    evaluation is validated, and none is cached.  Instances are treated as
    immutable after construction and are safe to share across concurrent
    evaluations under the GIL.

    ``analytic_limits(prefix, queue, u)`` optionally returns the saturated
    limit of queue ``queue``'s rate when every queue outside ``prefix`` is at
    infinity.  ``prefix`` is the sorted tuple of unsaturated queues and ``u``
    holds their occupancies in that order; ``queue`` may lie inside or
    outside ``prefix``.  Returning ``None`` falls back to numeric escalation.

    The builders also give the spec an array form of ``rate_fn`` that
    :meth:`rates_at` uses; any other spec is evaluated there row by row.
    The structure gates and the engine's envelope bounds evaluate whole
    boxes of states through :meth:`rates_at`.
    """

    n_queues: int
    rate_fn: RateFn
    bound: float
    analytic_limits: Optional[LimitFn] = None
    monotone_by_construction: bool = False
    _array_fn: Optional[ArrayRateFn] = field(default=None, repr=False)

    def __post_init__(self):
        if self.n_queues < 1:
            raise ValueError("n_queues must be positive")
        if not (self.bound > 0 and math.isfinite(self.bound)):
            raise ValueError("bound must be a positive finite real")

    def rate(self, i: int, x: State) -> float:
        """Validated rate of queue ``i`` at state ``x``."""
        return self.rate_unmemoized(i, x)

    def rate_unmemoized(self, i: int, x: State) -> float:
        """The one scalar evaluation; :meth:`rate` is its public name."""
        v = float(self.rate_fn(i, x))
        if not math.isfinite(v) or v < 0.0 or v > self.bound:
            raise self._out_of_range(i, x, v)
        return v

    def _out_of_range(self, i: int, x: State, v: float) -> BoundViolation:
        return BoundViolation(f"rate_fn({i}, {x}) = {v!r} outside [0, {self.bound}]")

    def rates_at(self, i: int, X) -> np.ndarray:
        """Rates of queue ``i`` at every row of the ``(m, n)`` state array ``X``.

        Equal bit for bit to ``rate_unmemoized(i, tuple(row))`` row by row,
        validated the same way: the first bad row raises the
        :class:`BoundViolation` that ``rate_unmemoized`` raises for it.
        """
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.n_queues or X.dtype.kind not in "iu":
            raise ValueError(
                f"states must be an integer array of shape (m, {self.n_queues})"
            )
        if X.size and np.minimum.reduce(X, axis=None) < 0:
            raise ValueError("queue lengths must be nonnegative")
        if self._array_fn is None:
            return np.array(
                [self.rate_unmemoized(i, row) for row in map(tuple, X.tolist())],
                dtype=float,
            )
        v = self._array_fn(i, X)
        if v.size and not (np.minimum.reduce(v) >= 0.0
                           and np.maximum.reduce(v) <= self.bound):
            bad = int(np.argmin((v >= 0.0) & (v <= self.bound)))
            raise self._out_of_range(i, tuple(X[bad].tolist()), float(v[bad]))
        return v


class _FactorTable:
    """Values ``f(0), f(1), ...`` of a one-coordinate factor, filled on demand.

    A fill at most doubles the table: entries further past its end, such as
    the saturation levels of the uniform-limit check, are evaluated one by
    one and not stored.
    """

    def __init__(self, f: Callable[[int], float]):
        self.f = f
        self.values = np.empty(0)

    def at(self, col: np.ndarray) -> np.ndarray:
        """``f`` at each entry of ``col``, a column of nonnegative queue lengths."""
        try:
            return self.values[col]
        except IndexError:  # some entry lies past the table
            pass
        size = min(max(2 * self.values.size, 64), FACTOR_TABLE_CAP)
        if int(col.max()) < size:
            new = [float(self.f(x)) for x in range(self.values.size, size)]
            self.values = np.concatenate([self.values, new])
            return self.values[col]
        keys, inverse = np.unique(col, return_inverse=True)
        return np.array([float(self.f(x)) for x in keys.tolist()])[inverse]


@dataclass(eq=False)
class SaturationContext:
    """Evaluator for rate limits with every queue outside ``prefix`` saturated.

    ``prefix`` is the set of unsaturated queues, kept as a sorted tuple.
    Numeric values come from minimizing the rate over the grid
    ``{R, R+1, ceil(R*growth)}`` per saturated coordinate and escalating
    ``R`` until two consecutive levels agree within ``limit_tol``.  The
    ``R+1`` probe catches parity-periodic rate functions that levels ``R``
    and ``2R`` alone would miss.
    """

    prefix: tuple
    sat_level: int = DEFAULT_SAT_LEVEL
    growth_factor: float = DEFAULT_GROWTH
    limit_tol: float = DEFAULT_LIMIT_TOL

    def __post_init__(self):
        self.prefix = tuple(sorted(self.prefix))
        if len(set(self.prefix)) != len(self.prefix) or any(q < 0 for q in self.prefix):
            raise ValueError(f"prefix {self.prefix} must list distinct queue indices")
        if self.sat_level < 1 or self.growth_factor <= 1.0 or self.limit_tol <= 0:
            raise ValueError("bad saturation parameters")

    def _levels(self, r: int) -> tuple:
        return tuple(sorted({r, r + 1, max(r + 2, math.ceil(r * self.growth_factor))}))

    def _grid_min(self, spec: AllocationSpec, queue: int, u: State, r: int) -> float:
        x = [0] * spec.n_queues
        for q, c in zip(self.prefix, u):
            x[q] = c
        saturated = [q for q in range(spec.n_queues) if q not in self.prefix]
        best = math.inf
        for combo in itertools.product(self._levels(r), repeat=len(saturated)):
            for q, v in zip(saturated, combo):
                x[q] = v
            best = min(best, spec.rate(queue, tuple(x)))
        return best

    def value(self, spec: AllocationSpec, queue: int, u) -> float:
        """Saturated limit of queue ``queue``'s rate with the prefix at ``u``."""
        u = tuple(int(c) for c in u)
        if len(u) != len(self.prefix):
            raise ValueError("prefix length mismatch")
        r = self.sat_level
        prev = self._grid_min(spec, queue, u, r)
        for _ in range(MAX_ESCALATIONS):
            r = max(r + 1, math.ceil(r * self.growth_factor))
            cur = self._grid_min(spec, queue, u, r)
            if abs(cur - prev) < self.limit_tol:
                return cur
            prev = cur
        raise SaturationNotConverged(
            f"saturated limit for queue {queue} at prefix {self.prefix} = {u} did "
            f"not stabilize within {self.limit_tol} after {MAX_ESCALATIONS} escalations"
        )


def _probe_side(dim: int, cap: int, budget: int = 256) -> int:
    """Side ``c + 1`` of the prefix probe box {0..c}^dim, with c shrunk so
    the box fits the budget."""
    return min(cap, max(1, int(round(budget ** (1.0 / max(dim, 1)))) - 1)) + 1


def _state_grid(axes) -> np.ndarray:
    """(count, dim) array of every state whose coordinate ``q`` runs over
    ``axes[q]``, in ``itertools.product`` order.  An axis is a sequence of
    queue lengths, or an int ``k`` standing for ``0..k-1``."""
    axes = [np.arange(a) if np.ndim(a) == 0 else np.asarray(a, dtype=np.intp)
            for a in axes]
    n = len(axes)
    X = np.empty([len(a) for a in axes] + [n], dtype=np.intp)
    for q, a in enumerate(axes):
        X[..., q] = a.reshape([-1 if k == q else 1 for k in range(n)])
    return X.reshape(math.prod(X.shape[:-1]), n)


def lower_partial_limit(spec: AllocationSpec, ctx: SaturationContext, queue: int, u) -> float:
    """Worst-case limiting rate of queue ``queue`` with every queue outside
    ``ctx.prefix`` saturated and the prefix queues at occupancies ``u``.

    Uses the allocation's analytic limit when available, otherwise the
    context's numeric escalation.
    """
    u = tuple(int(c) for c in u)
    if spec.analytic_limits is not None:
        v = spec.analytic_limits(ctx.prefix, queue, u)
        if v is not None:
            v = float(v)
            if not (0.0 <= v <= spec.bound + _MONO_SLACK):
                raise BoundViolation(f"analytic limit {v} outside [0, {spec.bound}]")
            return min(v, spec.bound)
    return ctx.value(spec, queue, u)


@dataclass
class StructureReport:
    """Outcome of the sampled structural hypothesis checks.

    The checks are finite-box verifications, gates rather than proofs: the
    hypotheses quantify over the whole lattice and are undecidable for
    black-box rate functions.
    """

    probe_box: tuple = ()
    partially_decreasing: Optional[bool] = None
    pd_counterexample: Optional[tuple] = None  # (x, y, i) with x <= y, x_i = y_i
    uniform_limits: Optional[bool] = None
    worst_residual: Optional[float] = None
    guaranteed_by_shape: bool = False


def default_pd_box(n_queues: int, cap: int = 64) -> int:
    """Per-coordinate cap for the monotonicity sweep, shrunk so the
    exhaustive state count stays near 2**18 for many queues."""
    return min(cap, max(3, int(round((2 ** 18) ** (1.0 / n_queues))) - 1))


def check_partially_decreasing(spec: AllocationSpec, box: Optional[int] = None) -> StructureReport:
    """Exhaustively verify phi_i(x) >= phi_i(y) for x <= y, x_i = y_i on a box.

    Single-coordinate increments suffice by transitivity.  Every rate on the
    box is evaluated first, one :meth:`AllocationSpec.rates_at` call per
    queue; a failing check reports the first counterexample ``(x, y, i)``
    with ``y = x + e_j``, ordered by ``x`` in ``itertools.product`` order,
    then ``j``, then ``i``.

    An out-of-bound rate anywhere on the box raises :class:`BoundViolation`,
    also when a counterexample comes before it in that order.  The message
    names the lowest-numbered queue with a bad rate, at its first bad state
    in ``itertools.product`` order.
    """
    if box is None:
        box = default_pd_box(spec.n_queues)
    if box < 1:
        raise ValueError("box must be nonempty")
    n = spec.n_queues
    report = StructureReport(probe_box=(box,) * n, partially_decreasing=True)
    if n == 1:  # a single queue has no other coordinate to compare along
        return report
    shape = (box + 1,) * n
    X = _state_grid(shape)
    rates = [spec.rates_at(i, X).reshape(shape) for i in range(n)]
    found = []  # (x, j, i) of each pair's first rise, x in product order
    for j in range(n):
        lower = (slice(None),) * j + (slice(None, -1),)
        upper = (slice(None),) * j + (slice(1, None),)
        for i in range(n):
            if i == j:
                continue
            rise = rates[i][lower] < rates[i][upper] - _MONO_SLACK
            if rise.any():
                x = np.unravel_index(np.argmax(rise), rise.shape)
                found.append((tuple(map(int, x)), j, i))
    if found:
        x, j, i = min(found)
        report.partially_decreasing = False
        report.pd_counterexample = (x, x[:j] + (x[j] + 1,) + x[j + 1:], i)
    return report


def default_schedule(start: int = DEFAULT_SAT_LEVEL, levels: int = 17) -> tuple:
    return tuple(start * 2 ** k for k in range(levels))


def check_uniform_limits(
    spec: AllocationSpec,
    schedule=None,
    tol: float = 1e-6,
    prefix_cap: int = 8,
) -> StructureReport:
    """Verify that every rate function settles uniformly when any coordinate
    subset is saturated.

    For each saturated subset and each probed prefix state, the residual is
    the spread (max - min) of the rate over the saturation grid
    ``{R, R+1, 2R}`` per saturated coordinate; it must fall below ``tol`` at
    some schedule level.  Raises :class:`NoUniformLimit` when the final level
    still misses ``tol`` and the allocation does not carry a shape guarantee.
    """
    if schedule is None:
        schedule = default_schedule()
    schedule = tuple(int(r) for r in schedule)
    if any(b <= a for a, b in zip(schedule, schedule[1:])) or not schedule:
        raise ValueError("schedule must be strictly increasing and nonempty")
    if tol <= 0:
        raise ValueError("tol must be positive")

    n = spec.n_queues
    worst = 0.0
    for m in range(1, n + 1):  # size of the saturated subset
        for sat in itertools.combinations(range(n), m):
            side = range(_probe_side(n - m, prefix_cap))
            residual = math.inf
            for r in schedule:
                levels = sorted({r, r + 1, 2 * r})
                axes = [levels if q in sat else side for q in range(n)]
                X, shape = _state_grid(axes), [len(a) for a in axes]
                # the largest spread over the saturation combos at a probe state
                residual = max(float(np.ptp(spec.rates_at(i, X).reshape(shape), axis=sat).max())
                               for i in range(n))
                if residual < tol:
                    break
            worst = max(worst, residual)
            if residual >= tol and not spec.monotone_by_construction:
                report = StructureReport(
                    probe_box=(prefix_cap,) * n,
                    uniform_limits=False,
                    worst_residual=worst,
                )
                raise NoUniformLimit(
                    f"saturation residual {residual:.3g} for subset {sat} still above "
                    f"{tol} at level {schedule[-1]}",
                    report=report,
                )
    return StructureReport(
        probe_box=(prefix_cap,) * n,
        uniform_limits=True,
        worst_residual=worst,
        guaranteed_by_shape=spec.monotone_by_construction,
    )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def constant_allocation(mus) -> AllocationSpec:
    """phi_i identically mu_i; saturated limits are the constants themselves."""
    mus = tuple(float(m) for m in mus)
    if any(m < 0 or not math.isfinite(m) for m in mus):
        raise ValueError("service rates must be finite and nonnegative")
    bound = max(mus) if max(mus) > 0 else 1.0

    def rate(i, x, _mus=mus):
        return _mus[i]

    def rates(i, X, _mus=mus):
        return np.full(len(X), _mus[i])

    def limits(prefix, queue, u, _mus=mus):
        return _mus[queue]

    return AllocationSpec(
        n_queues=len(mus), rate_fn=rate, bound=bound,
        analytic_limits=limits, monotone_by_construction=True, _array_fn=rates,
    )


def busy_table_allocation(tables: Sequence[Mapping[frozenset, float]],
                          strict: bool = True) -> AllocationSpec:
    """Allocation whose rates depend only on which *other* queues are busy.

    ``tables[i]`` maps a frozenset of busy other-queue indices to queue ``i``'s
    rate.  Saturated limits are exact table lookups (a pinned coordinate is
    simply busy).  With ``strict`` the table must be monotone under subset
    inclusion (more busy neighbors never helps), which is exactly the partial
    monotonicity hypothesis for this family.
    """
    n = len(tables)
    norm = []
    for i, tab in enumerate(tables):
        t = {}
        for subset in map(frozenset, itertools.chain.from_iterable(
                itertools.combinations([j for j in range(n) if j != i], m)
                for m in range(n))):
            if subset not in tab:
                raise ValueError(f"table for queue {i} missing busy set {set(subset)}")
            t[subset] = float(tab[subset])
        norm.append(t)
    if strict:
        for i, t in enumerate(norm):
            for s, v in t.items():
                for s2, v2 in t.items():
                    if s < s2 and v < v2 - _MONO_SLACK:
                        raise InvalidShape(
                            f"queue {i}: rate {v} for busy set {set(s)} below rate "
                            f"{v2} for larger busy set {set(s2)}"
                        )
    bound = max(max(t.values()) for t in norm)
    # queue i's rate by the bit mask of all busy queues (bit i ignored)
    by_mask = tuple(
        np.array([t[frozenset(j for j in range(n) if m >> j & 1 and j != i)]
                  for m in range(2 ** n)])
        for i, t in enumerate(norm)
    )

    def rate(i, x, _t=tuple(norm)):
        busy = frozenset(j for j, c in enumerate(x) if c > 0 and j != i)
        return _t[i][busy]

    def rates(i, X, _v=by_mask, _w=1 << np.arange(n)):
        return _v[i][(X > 0) @ _w]

    def limits(prefix, queue, u, _t=tuple(norm), _n=n):
        x = dict(zip(prefix, u))  # saturated queues are busy
        return _t[queue][frozenset(j for j in range(_n) if j != queue and x.get(j, 1) > 0)]

    return AllocationSpec(
        n_queues=n, rate_fn=rate, bound=bound,
        analytic_limits=limits, monotone_by_construction=True, _array_fn=rates,
    )


def three_queue_table(a: Sequence[float], a_pair: Mapping, strict: bool = True) -> AllocationSpec:
    """Three coupled queues whose rates see only the busy pattern of the others.

    Queue ``i`` serves at ``a[i]`` when both other queues are empty, at
    ``a_pair[(i, j)]`` when only queue ``j`` is busy, and at 1 when both are.
    Monotonicity needs ``a[i] >= a_pair[(i, j)] >= 1``.
    """
    if len(a) != 3:
        raise ValueError("need exactly three solo rates")
    tables = []
    for i in range(3):
        others = [j for j in range(3) if j != i]
        tab = {frozenset(): float(a[i]), frozenset(others): 1.0}
        for j in others:
            tab[frozenset({j})] = float(a_pair[(i, j)])
        tables.append(tab)
    return busy_table_allocation(tables, strict=strict)


def build_product_allocation(gains, interference) -> AllocationSpec:
    """Allocation of the form phi_i(x) = g_i(x_i) * prod_j f_ij(x_j).

    ``gains[i]`` is ``(g_i, g_i_limit)`` with ``g_i`` increasing and bounded by
    its limit; ``interference[i]`` maps other-coordinate ``j`` to
    ``(f_ij, f_ij_limit)`` with ``f_ij`` decreasing to its limit.  Shapes are
    sampled on a probe range and rejected when violated.  Saturated limits are
    assembled in closed form from the factor limits, and the product of an
    increasing bounded gain with decreasing factors settles uniformly, so the
    uniform-limit check passes by construction.
    """
    n = len(gains)
    if len(interference) != n:
        raise ValueError("need one interference map per queue")
    gains = [(g, float(lim)) for g, lim in gains]
    inter = []
    for i, fm in enumerate(interference):
        m = {}
        for j, (f, lim) in dict(fm).items():
            if j == i or not 0 <= j < n:
                raise ValueError(f"interference factor index {j} invalid for queue {i}")
            m[int(j)] = (f, float(lim))
        inter.append(m)

    probe = list(range(0, 33)) + [64, 128, 1024]
    for i, (g, lim) in enumerate(gains):
        vals = [float(g(x)) for x in probe]
        for a, b in zip(vals, vals[1:]):
            if b < a - _MONO_SLACK:
                raise InvalidShape(f"gain for queue {i} decreases on the probe range")
        if any(v > lim + _MONO_SLACK for v in vals):
            raise InvalidShape(f"gain for queue {i} exceeds its declared limit {lim}")
    for i, fm in enumerate(inter):
        for j, (f, lim) in fm.items():
            vals = [float(f(x)) for x in probe]
            for a, b in zip(vals, vals[1:]):
                if b > a + _MONO_SLACK:
                    raise InvalidShape(
                        f"interference factor ({i},{j}) increases on the probe range"
                    )
            if any(v < lim - _MONO_SLACK for v in vals) or any(v < 0 for v in vals):
                raise InvalidShape(
                    f"interference factor ({i},{j}) drops below its declared limit"
                )

    bound = max(
        lim * math.prod(f(0) for f, _ in inter[i].values())
        if inter[i] else lim
        for i, (_, lim) in enumerate(gains)
    )

    def rate(i, x, _g=tuple(gains), _f=tuple(inter)):
        v = _g[i][0](x[i])
        for j, (f, _) in _f[i].items():
            v *= f(x[j])
        return v

    # one table per factor, multiplied in rate()'s order: bit for bit rate()
    gain_tabs = tuple(_FactorTable(g) for g, _ in gains)
    inter_tabs = tuple(tuple((j, _FactorTable(f)) for j, (f, _) in fm.items())
                       for fm in inter)

    def rates(i, X, _g=gain_tabs, _f=inter_tabs):
        v = _g[i].at(X[:, i])
        for j, tab in _f[i]:
            v = v * tab.at(X[:, j])
        return v

    def limits(prefix, queue, u, _g=tuple(gains), _f=tuple(inter)):
        x = dict(zip(prefix, u))  # saturated queues take the factor limits
        v = _g[queue][0](x[queue]) if queue in x else _g[queue][1]
        for j, (f, lim) in _f[queue].items():
            v *= f(x[j]) if j in x else lim
        return v

    return AllocationSpec(
        n_queues=n, rate_fn=rate, bound=bound,
        analytic_limits=limits, monotone_by_construction=True, _array_fn=rates,
    )


# Built-in gain / interference families ------------------------------------

def log_gain(cap: float = 3.0):
    """Scheduling gain min(cap, log(1+x)): increasing, bounded by cap."""
    return (lambda x: min(cap, math.log1p(x)), cap)


def exp_interference(gamma: float):
    """Interference factor 1 / (6 - 4 exp(-gamma t)): decreasing to 1/6."""
    return (lambda t: 1.0 / (6.0 - 4.0 * math.exp(-gamma * t)), 1.0 / 6.0)


def poly_interference(gamma: float):
    """Interference factor 1 / (6 - 4 (1+t)^-gamma): decreasing to 1/6."""
    return (lambda t: 1.0 / (6.0 - 4.0 * (1.0 + t) ** (-gamma)), 1.0 / 6.0)


INTERFERENCE_FORMS = {
    "exp_interference": exp_interference,
    "poly_interference": poly_interference,
}
GAIN_FORMS = {"log_gain": log_gain}


def base_station_pair(gamma: float, form: str = "exp_interference",
                      cap: float = 3.0) -> AllocationSpec:
    """Two interfering base stations with channel-aware scheduling gain."""
    try:
        factor = INTERFERENCE_FORMS[form]
    except KeyError:
        raise ValueError(f"unknown interference form {form!r}") from None
    g = log_gain(cap)
    return build_product_allocation(
        gains=[g, g],
        interference=[{1: factor(gamma)}, {0: factor(gamma)}],
    )


def one_server_power_law(alpha: float) -> AllocationSpec:
    """Single queue served at (1 + 1/x)^alpha, decreasing to 1.

    Carries no analytic limits on purpose: it exercises the numeric
    saturation escalation.  The value at 0 is irrelevant (no departures
    there) and is pinned to the x=1 value to keep the function bounded.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    bound = 2.0 ** alpha

    def rate(i, x, _a=alpha, _b=bound):
        if x[0] == 0:
            return _b
        return (1.0 + 1.0 / x[0]) ** _a

    return AllocationSpec(n_queues=1, rate_fn=rate, bound=bound)
