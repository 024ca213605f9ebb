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
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import BoundViolation, InvalidShape, SaturationNotConverged

State = tuple  # tuple[int, ...]
RateFn = Callable[[int, State], float]
# array form of a RateFn: (i, X) -> rate_fn(i, row) for each row of the (m, n) array X
ArrayRateFn = Callable[[int, np.ndarray], np.ndarray]
# analytic saturated-limit evaluator: (prefix, queue, U) -> m values or None,
# with prefix the sorted unsaturated queues and each row of the (m, len(prefix))
# array U their occupancies in that order
LimitFn = Callable[[tuple, int, np.ndarray], Optional[np.ndarray]]

DEFAULT_SAT_LEVEL = 64
DEFAULT_GROWTH = 2.0
DEFAULT_LIMIT_TOL = 1e-9
DEFAULT_UNIFORM_TOL = 1e-6
# saturation levels R of the uniform-limit check, and the cap on its prefix probe box
_UNIFORM_LEVELS = tuple(DEFAULT_SAT_LEVEL * 2 ** k for k in range(17))
_UNIFORM_PROBE_CAP = 8
MAX_ESCALATIONS = 96
# factor tables stop growing here; larger queue lengths are evaluated row by row
FACTOR_TABLE_CAP = 1 << 20

_MONO_SLACK = 1e-12  # absorbs float noise in composed rate functions


@dataclass(frozen=True)
class ArrivalRates:
    """Poisson arrival rates, one per queue, as floats; ``ValueError``
    rejects a rate that is not a finite real above 0, such as a bool or "1"."""

    rates: tuple

    def __post_init__(self):
        object.__setattr__(self, "rates",
                           tuple(_check_real("arrival rate", r) for r in self.rates))

    def __len__(self):
        return len(self.rates)

    def __getitem__(self, i):
        return self.rates[i]

    def __iter__(self):
        return iter(self.rates)


def as_rates(rates, n: Optional[int] = None) -> ArrivalRates:
    """``rates`` as :class:`ArrivalRates`, whose rule it must pass; with
    ``n`` given, ``ValueError`` also rejects a vector without ``n`` rates."""
    if not isinstance(rates, ArrivalRates):
        rates = ArrivalRates(tuple(rates))
    if n is not None and len(rates) != n:
        raise ValueError(f"rate vector length mismatch: {len(rates)} rates for {n} queues")
    return rates


@dataclass(eq=False)
class AllocationSpec:
    """A family of bounded service-rate functions on Z_+^N.

    ``rate_fn(i, x)`` must be deterministic and stay in ``[0, bound]``; every
    evaluation is validated, and none is cached.  The simulation probe's
    lockstep is the one caller that validates later: it calls the array form
    directly at each step and checks each chunk of steps at its end, before
    accounting any of them (see ``simulate._lockstep``).  Instances are
    treated as immutable after construction and are safe to share across
    concurrent evaluations under the GIL.

    ``analytic_limits(prefix, queue, U)`` optionally returns the saturated
    limits of queue ``queue``'s rate when every queue outside ``prefix`` is at
    infinity, one per row of ``U``.  ``prefix`` is the sorted tuple of
    unsaturated queues and each row of the ``(m, len(prefix))`` integer array
    ``U`` holds their occupancies in that order; ``queue`` may lie inside or
    outside ``prefix``.  Returning ``None`` falls back to numeric escalation.
    The builders read the limits from the same tables as their array form of
    ``rate_fn``.

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
        _check_integer("n_queues", self.n_queues)
        _check_real("bound", self.bound)

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
        X = _check_states(X, self.n_queues)
        if self._array_fn is None:
            return np.array(
                [self.rate_unmemoized(i, row) for row in map(tuple, X.tolist())],
                dtype=float,
            )
        v = self._array_fn(i, X)
        self._check_bounds(v[None], X.T, (i,))
        return v

    def _check_bounds(self, V: np.ndarray, S: np.ndarray, queues) -> None:
        """Raise :meth:`rate_unmemoized`'s :class:`BoundViolation` for the
        first entry of ``V`` in C order outside ``[0, bound]``.

        ``V[..., a, r]`` is the rate of queue ``queues[a]`` at the state
        ``S[..., :, r]``; the leading axes of ``V`` and ``S`` agree.
        """
        if V.size and not (np.minimum.reduce(V, axis=None) >= 0.0
                           and np.maximum.reduce(V, axis=None) <= self.bound):
            *lead, a, r = np.unravel_index(
                int(np.argmin((V >= 0.0) & (V <= self.bound))), V.shape)
            x = S[(*lead, slice(None), r)]
            raise self._out_of_range(queues[a], tuple(x.tolist()),
                                     float(V[(*lead, a, r)]))


class _FactorTable:
    """Values ``f(0), f(1), ...`` of a one-coordinate factor, filled on demand.

    The table holds ``2**k + 1`` entries, so that a truncation box of side
    ``2**k`` fits it exactly.  The first fill makes 65 entries.  A later
    fill doubles ``2**k``, and only when the entries asked for past the end
    follow it without a gap, as a box or a path one step past the end asks
    for them.  Other entries past the end, such as the saturation levels
    ``R, R + 1, 2R`` of the uniform-limit check, are evaluated one by one
    and not stored.
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
        end = self.values.size
        size = min(max(2 * end - 1, 65), FACTOR_TABLE_CAP + 1)
        top = int(col.max())
        if top < size and (end == 0 or np.unique(col[col >= end]).size == top - end + 1):
            new = [float(self.f(x)) for x in range(end, size)]
            self.values = np.concatenate([self.values, new])
            return self.values[col]
        keys, inverse = np.unique(col, return_inverse=True)
        return np.array([float(self.f(x)) for x in keys.tolist()])[inverse]


def _probe_side(dim: int) -> int:
    """Side ``c + 1`` of the prefix probe box {0..c}^dim, with c at most
    ``_UNIFORM_PROBE_CAP`` and shrunk so the box holds about 256 states."""
    return min(_UNIFORM_PROBE_CAP, max(1, int(round(256 ** (1.0 / max(dim, 1)))) - 1)) + 1


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


def _check_real(name: str, value, floor: float = 0.0, *, inclusive: bool = False) -> float:
    """``value`` as a float, or ``ValueError`` unless it is a real, not a
    bool, that fits a float and is finite and above ``floor`` (at least
    ``floor`` when ``inclusive``)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        v = float(value) if real else math.nan
    except OverflowError:  # an int or a fraction beyond the float range
        v = math.nan
    if not (floor < v < math.inf or inclusive and v == floor):
        rule = ">=" if inclusive else "above"
        raise ValueError(f"{name} must be a finite number {rule} {floor:g}, got {value!r}")
    return v


def _check_integer(name: str, value, floor: int = 1) -> None:
    """``ValueError`` unless ``value`` is an integer of at least ``floor``, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < floor:
        raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")


def _check_states(X, width: int) -> np.ndarray:
    """``X`` as an ``(m, width)`` array of nonnegative integers, or
    ``ValueError``; an empty one, such as ``[()]``, reads as integers."""
    X = np.asarray(X)
    if X.ndim == 2 and X.size == 0:
        X = X.astype(np.intp)
    if X.ndim != 2 or X.shape[1] != width or X.dtype.kind not in "iu":
        raise ValueError(f"states must be an integer array of shape (m, {width})")
    if X.size and np.minimum.reduce(X, axis=None) < 0:
        raise ValueError("queue lengths must be nonnegative")
    return X


def _escalate(spec: AllocationSpec, prefix: tuple, queue: int, U: np.ndarray,
              sat_level: int, growth: float, limit_tol: float) -> np.ndarray:
    """Numeric saturated limits at each row of ``U``, escalated state by state
    on Python ints: a level can pass int64 before the limit settles."""
    saturated = [q for q in range(spec.n_queues) if q not in prefix]

    def grid_min(u, r):  # the least rate over the saturation grid of level r
        levels = sorted({r, r + 1, max(r + 2, math.ceil(r * growth))})
        x = [0] * spec.n_queues
        for q, c in zip(prefix, u):
            x[q] = c
        best = math.inf
        for combo in itertools.product(levels, repeat=len(saturated)):
            for q, v in zip(saturated, combo):
                x[q] = v
            best = min(best, spec.rate(queue, tuple(x)))
        return best

    out = np.empty(len(U))
    for k, u in enumerate(U.tolist()):
        r = sat_level
        prev = grid_min(u, r)
        for _ in range(MAX_ESCALATIONS):
            r = max(r + 1, math.ceil(r * growth))
            cur = grid_min(u, r)
            if abs(cur - prev) < limit_tol:
                break
            prev = cur
        else:
            raise SaturationNotConverged(
                f"saturated limit for queue {queue} at prefix {prefix} = "
                f"{tuple(u)} did not stabilize within {limit_tol} after "
                f"{MAX_ESCALATIONS} escalations"
            )
        out[k] = cur
    return out


def lower_partial_limit(spec: AllocationSpec, prefix, queue: int, U, *,
                        sat_level: int = DEFAULT_SAT_LEVEL, growth: float = DEFAULT_GROWTH,
                        limit_tol: float = DEFAULT_LIMIT_TOL) -> np.ndarray:
    """Worst-case limiting rates of queue ``queue`` with every queue outside
    ``prefix`` saturated, one per row of ``U``.

    ``prefix`` lists distinct queues of the spec in any order, and ``U`` is
    an ``(m, len(prefix))`` nonnegative integer array of their occupancies
    in increasing queue order.  The allocation's analytic limits are used
    when available (the first one outside ``[0, bound]`` raises
    :class:`BoundViolation`).  Otherwise each value is the least rate over
    the grid ``{R, R+1, ceil(R*growth)}`` per saturated queue, with ``R``
    escalated from ``sat_level`` until two consecutive levels agree within
    ``limit_tol``; the ``R+1`` probe catches parity-periodic rate functions
    that levels ``R`` and ``2R`` alone would miss.
    ``ValueError`` rejects, before any rate is read, a queue outside the spec
    or given as a bool, a ``sat_level`` not an integer >= 1, a ``growth``
    not a finite real above 1, a ``limit_tol`` not one above 0, and a bad ``U``.
    """
    prefix, n = tuple(sorted(prefix)), spec.n_queues
    if len(set(prefix)) < len(prefix) or not set(prefix) | {queue} <= set(range(n)):
        raise ValueError(f"need distinct queues of range({n}): prefix {prefix}, queue {queue}")
    for q in (*prefix, queue):  # in range already: this rejects a bool or 1.0
        _check_integer("queue", q, 0)
    _check_integer("sat_level", sat_level)
    _check_real("growth", growth, 1.0)
    _check_real("limit_tol", limit_tol)
    U = _check_states(U, len(prefix))
    v = None if spec.analytic_limits is None else spec.analytic_limits(prefix, queue, U)
    if v is None:
        return _escalate(spec, prefix, queue, U, sat_level, growth, limit_tol)
    v = np.asarray(v, dtype=float)
    bad = ~((v >= 0.0) & (v <= spec.bound + _MONO_SLACK))
    if bad.any():
        raise BoundViolation(
            f"analytic limit {float(v[np.argmax(bad)])} outside [0, {spec.bound}]")
    return np.minimum(v, spec.bound)


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


def default_pd_box(n_queues: int) -> int:
    """Per-coordinate cap for the monotonicity sweep, at most 64 and shrunk
    so the exhaustive state count stays near 2**18 for many queues."""
    return min(64, max(3, int(round((2 ** 18) ** (1.0 / n_queues))) - 1))


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
    in ``itertools.product`` order.  A ``box`` other than ``None`` or an
    integer >= 1 (a bool, say) raises ``ValueError``.
    """
    if box is None:
        box = default_pd_box(spec.n_queues)
    _check_integer("box", box)
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


def check_uniform_limits(spec: AllocationSpec, tol: float = DEFAULT_UNIFORM_TOL) -> StructureReport:
    """Verify that every rate function settles uniformly when any coordinate
    subset is saturated, and return the report either way.

    For each saturated subset and each probed prefix state, the residual is
    the spread (max - min) of the rate over the saturation grid
    ``{R, R+1, 2R}`` per saturated coordinate; it must fall below ``tol`` at
    some level ``R = 64 * 2**k``, ``k < 17``.  When a subset still misses
    ``tol`` at the last level and the allocation does not carry a shape
    guarantee, the report has ``uniform_limits=False`` and the worst residual
    so far.  ``ValueError`` rejects a ``tol`` not a finite real above 0.
    """
    _check_real("tol", tol)
    n = spec.n_queues
    report = StructureReport(probe_box=(_UNIFORM_PROBE_CAP,) * n, uniform_limits=True,
                             worst_residual=0.0,
                             guaranteed_by_shape=spec.monotone_by_construction)
    for m in range(1, n + 1):  # size of the saturated subset
        for sat in itertools.combinations(range(n), m):
            side = range(_probe_side(n - m))
            for r in _UNIFORM_LEVELS:
                levels = sorted({r, r + 1, 2 * r})
                axes = [levels if q in sat else side for q in range(n)]
                X, shape = _state_grid(axes), [len(a) for a in axes]
                # the largest spread over the saturation combos at a probe state
                residual = max(float(np.ptp(spec.rates_at(i, X).reshape(shape), axis=sat).max())
                               for i in range(n))
                if residual < tol:
                    break
            report.worst_residual = max(report.worst_residual, residual)
            if residual >= tol and not spec.monotone_by_construction:
                report.uniform_limits = False
                return report
    return report


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def constant_allocation(mus) -> AllocationSpec:
    """phi_i identically mu_i; saturated limits are the constants themselves.
    ``ValueError`` rejects a rate that is not a finite real >= 0, such as a bool or "1"."""
    mus = tuple(_check_real("service rate", m, inclusive=True) for m in mus)
    bound = max(mus) if max(mus) > 0 else 1.0

    def rate(i, x, _mus=mus):
        return _mus[i]

    def rates(i, X, _mus=mus):
        return np.full(len(X), _mus[i])

    def limits(prefix, queue, U, _mus=mus):
        return np.full(len(U), _mus[queue])

    return AllocationSpec(
        n_queues=len(mus), rate_fn=rate, bound=bound,
        analytic_limits=limits, monotone_by_construction=True, _array_fn=rates,
    )


def busy_table_allocation(tables: Sequence[Mapping[frozenset, float]]) -> AllocationSpec:
    """Allocation whose rates depend only on which *other* queues are busy.

    ``tables[i]`` maps a frozenset of busy other-queue indices to queue ``i``'s
    rate.  Saturated limits are exact table lookups (a pinned coordinate is
    simply busy).  Any table builds: partial monotonicity holds when more busy
    neighbors never help, and the engine's structure gate judges that and
    reports it.  ``ValueError`` rejects a missing busy set and a rate that is
    not a finite real >= 0, such as a bool or "1".
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
            v = tab[subset]
            t[subset] = _check_real(f"table rate {v!r} of queue {i} for busy set "
                                    f"{set(subset)}", v, inclusive=True)
        norm.append(t)
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

    def limits(prefix, queue, U, _v=by_mask, _all=2 ** n - 1):
        w = 1 << np.array(prefix, dtype=np.intp)  # saturated queues are busy
        return _v[queue][(U > 0) @ w + (_all - int(w.sum()))]

    return AllocationSpec(
        n_queues=n, rate_fn=rate, bound=bound,
        analytic_limits=limits, monotone_by_construction=True, _array_fn=rates,
    )


def three_queue_table(a: Sequence[float], a_pair: Mapping) -> AllocationSpec:
    """Three coupled queues whose rates see only the busy pattern of the others.

    Queue ``i`` serves at ``a[i]`` when both other queues are empty, at
    ``a_pair[(i, j)]`` when only queue ``j`` is busy, and at 1 when both are.
    Monotonicity needs ``a[i] >= a_pair[(i, j)] >= 1``; the rates are checked
    and the table built as :func:`busy_table_allocation` does."""
    if len(a) != 3:
        raise ValueError("need exactly three solo rates")
    tables = []
    for i in range(3):
        others = [j for j in range(3) if j != i]
        tab = {frozenset(): a[i], frozenset(others): 1.0}
        for j in others:
            tab[frozenset({j})] = a_pair[(i, j)]
        tables.append(tab)
    return busy_table_allocation(tables)


def build_product_allocation(gains, interference) -> AllocationSpec:
    """Allocation of the form phi_i(x) = g_i(x_i) * prod_j f_ij(x_j).

    ``gains[i]`` is ``(g_i, g_i_limit)`` with ``g_i`` increasing and bounded by
    its limit; ``interference[i]`` maps other-coordinate ``j`` to
    ``(f_ij, f_ij_limit)`` with ``f_ij`` decreasing to its limit.  Shapes are
    sampled on a probe range and rejected when violated.  Saturated limits are
    assembled in closed form from the factor limits, and the product of an
    increasing bounded gain with decreasing factors settles uniformly, so the
    uniform-limit check passes by construction.  ``ValueError`` rejects a
    declared limit that is not a finite real >= 0.
    """
    n = len(gains)
    if len(interference) != n:
        raise ValueError("need one interference map per queue")
    gains = [(g, _check_real(f"gain limit of queue {i}", lim, inclusive=True))
             for i, (g, lim) in enumerate(gains)]
    inter = []
    for i, fm in enumerate(interference):
        m = {}
        for j, (f, lim) in dict(fm).items():
            _check_integer("interference index", j, 0)
            if j == i or not 0 <= j < n:
                raise ValueError(f"interference factor index {j} invalid for queue {i}")
            m[int(j)] = (f, _check_real(f"interference limit ({i},{j})", lim, inclusive=True))
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
    lims = tuple((g_lim, tuple(lim for _, lim in fm.values()))
                 for (_, g_lim), fm in zip(gains, inter))

    def rates(i, X, _g=gain_tabs, _f=inter_tabs):
        v = _g[i].at(X[:, i])
        for j, tab in _f[i]:
            v = v * tab.at(X[:, j])
        return v

    def limits(prefix, queue, U, _g=gain_tabs, _f=inter_tabs, _lims=lims):
        cols = dict(zip(prefix, U.T))  # saturated queues take the factor limits
        g_lim, f_lims = _lims[queue]
        v = _g[queue].at(cols[queue]) if queue in cols else np.full(len(U), g_lim)
        for (j, tab), lim in zip(_f[queue], f_lims):
            v = v * (tab.at(cols[j]) if j in cols else lim)
        return v

    return AllocationSpec(
        n_queues=n, rate_fn=rate, bound=bound,
        analytic_limits=limits, monotone_by_construction=True, _array_fn=rates,
    )


# Built-in gain / interference families ------------------------------------

def log_gain(cap: float = 3.0):
    """Scheduling gain min(cap, log(1+x)): increasing, bounded by cap.
    ``ValueError`` rejects a ``cap`` that is not a finite real above 0."""
    cap = _check_real("cap", cap)
    return (lambda x: min(cap, math.log1p(x)), cap)


def exp_interference(gamma: float):
    """Interference factor 1 / (6 - 4 exp(-gamma t)): decreasing to 1/6.
    ``ValueError`` rejects a ``gamma`` that is not a finite real above 0, such
    as a bool or "1": at gamma = 0 the factor stays at 1/2, above its limit."""
    gamma = _check_real("gamma", gamma)
    return (lambda t: 1.0 / (6.0 - 4.0 * math.exp(-gamma * t)), 1.0 / 6.0)


def poly_interference(gamma: float):
    """Interference factor 1 / (6 - 4 (1+t)^-gamma): decreasing to 1/6;
    ``gamma`` as for :func:`exp_interference`."""
    gamma = _check_real("gamma", gamma)
    return (lambda t: 1.0 / (6.0 - 4.0 * (1.0 + t) ** (-gamma)), 1.0 / 6.0)


INTERFERENCE_FORMS = {
    "exp_interference": exp_interference,
    "poly_interference": poly_interference,
}
GAIN_FORMS = {"log_gain": log_gain}


def base_station_pair(gamma: float, form: str = "exp_interference",
                      cap: float = 3.0) -> AllocationSpec:
    """Two interfering base stations with channel-aware scheduling gain;
    ``ValueError`` rejects an unknown ``form`` or a ``gamma`` the form rejects."""
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
    ``ValueError`` rejects an ``alpha`` that is not a finite real >= 0, such as a bool or "1",
    and one of 1024 or more, whose bound ``2**alpha`` overflows a float.
    """
    alpha = _check_real("alpha", alpha, inclusive=True)
    if alpha >= 1024:
        raise ValueError(f"alpha must be below 1024, got {alpha!r}")
    bound = 2.0 ** alpha

    def rate(i, x, _a=alpha, _b=bound):
        if x[0] == 0:
            return _b
        return (1.0 + 1.0 / x[0]) ** _a

    return AllocationSpec(n_queues=1, rate_fn=rate, bound=bound)
