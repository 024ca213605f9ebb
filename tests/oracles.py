"""Test-side oracles and helpers that the library itself does not need."""

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from coupledq.allocation import (
    _MONO_SLACK,
    DEFAULT_GROWTH,
    DEFAULT_LIMIT_TOL,
    DEFAULT_SAT_LEVEL,
    MAX_ESCALATIONS,
    AllocationSpec,
    ArrivalRates,
    StructureReport,
    _probe_side,
    _state_grid,
    as_rates,
    default_pd_box,
    lower_partial_limit,
)
from coupledq.ctmc import StationaryDistribution
from coupledq.errors import (
    BoundViolation,
    HypothesisViolated,
    SaturationNotConverged,
)
from coupledq.simulate import (
    _BATCH,
    _RATE_SLACK,
    HIST_CAP,
    CouplingReport,
    PathSample,
    _stream,
)


def prob(dist: StationaryDistribution, state) -> float:
    """Mass of ``dist`` at ``state``; zero outside its box."""
    idx = 0
    for c, t in zip(state, dist.box):
        if not 0 <= c <= t:
            return 0.0
        idx = idx * (t + 1) + c
    return float(dist.masses[idx])


def marginal(dist: StationaryDistribution, i: int) -> np.ndarray:
    """Marginal law of coordinate ``i`` of ``dist``."""
    g = dist.grid()
    return g.sum(axis=tuple(a for a in range(g.ndim) if a != i))


def relabel(spec: AllocationSpec, rates, sigma) -> tuple:
    """Relabeled system: queue ``i`` of the result is queue ``sigma[i]`` of the
    input, with states permuted to match.

    Round trip with the inverse permutation is the identity pointwise.
    Analytic limits are transported: a prefix of new queues maps through
    ``sigma`` to a prefix of old queues, its occupancies reordered to match.
    """
    sigma = tuple(sigma)
    n = spec.n_queues
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"sigma {sigma} is not a permutation of 0..{n - 1}")
    rates = as_rates(rates)
    inv = [0] * n
    for k, j in enumerate(sigma):
        inv[j] = k

    def new_rate(i, x, _spec=spec, _sigma=sigma, _inv=tuple(inv)):
        y = tuple(x[_inv[j]] for j in range(len(_inv)))
        return _spec.rate(_sigma[i], y)

    new_limits = None
    if spec.analytic_limits is not None:
        def new_limits(prefix, queue, U, _spec=spec, _sigma=sigma):
            col = {_sigma[k]: c for c, k in enumerate(prefix)}
            old = tuple(sorted(col))
            return _spec.analytic_limits(old, _sigma[queue], U[:, [col[q] for q in old]])

    new_spec = AllocationSpec(
        n_queues=n,
        rate_fn=new_rate,
        bound=spec.bound,
        analytic_limits=new_limits,
        monotone_by_construction=spec.monotone_by_construction,
    )
    new_rates = ArrivalRates(tuple(rates[sigma[i]] for i in range(n)))
    return new_spec, new_rates


class DivergentSeries(Exception):
    """Closed-form stationary series failed the ratio test."""


def stationary_1d_closed_form(
    lam: float,
    death_fn,
    cutoff: float = 1e-15,
    max_terms: int = 2_000_000,
    divergence_eps: float = 1e-9,
) -> StationaryDistribution:
    """Single-queue stationary law from the detailed-balance product formula.

    Terms follow ``t(x) = t(x-1) * lam / death_fn(x)``; the series must pass a
    ratio test (ratio below ``1 - divergence_eps`` beyond a probe index) and
    is truncated once the geometric tail bound drops below ``cutoff``.
    An oracle independent of the generator-based solver.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    terms = [1.0]
    total = 1.0
    bad_streak = 0
    recent_ok = 0
    x = 0
    tail = 1.0
    while True:
        x += 1
        d = float(death_fn(x))
        if d <= 0 or not math.isfinite(d):
            raise ValueError(f"death_fn({x}) = {d!r} must be strictly positive")
        r = lam / d
        t = terms[-1] * r
        terms.append(t)
        total += t
        if x >= 64 and r >= 1.0 - divergence_eps:
            bad_streak += 1
            if bad_streak >= 16:
                raise DivergentSeries(
                    f"term ratio {r:.6g} at x={x} fails the ratio test"
                )
        else:
            bad_streak = 0
        recent_ok = recent_ok + 1 if r < 1.0 else 0
        if x >= 64 and recent_ok >= 8:
            tail = t * r / (1.0 - r)
            if tail < cutoff * total:
                break
        if x >= max_terms:
            raise DivergentSeries(f"series still unsettled after {max_terms} terms")
    masses = np.asarray(terms) / total
    # renormalize exactly after the float division
    masses = masses / masses.sum()
    return StationaryDistribution(
        masses, (len(terms) - 1,), residual=0.0,
        boundary_mass=float(tail / total),
    )


# -- scalar references for the array-valued structure gates and envelopes ----

def check_partially_decreasing_scalar(spec: AllocationSpec, box=None) -> StructureReport:
    """State-by-state reference for ``check_partially_decreasing``: walks the
    box in ``itertools.product`` order, then ``j``, then ``i``, and stops at
    the first counterexample."""
    if box is None:
        box = default_pd_box(spec.n_queues)
    n = spec.n_queues
    report = StructureReport(probe_box=(box,) * n, partially_decreasing=True)
    for x in itertools.product(range(box + 1), repeat=n):
        for j in range(n):
            if x[j] >= box:
                continue
            y = x[:j] + (x[j] + 1,) + x[j + 1:]
            for i in range(n):
                if i == j:
                    continue
                if spec.rate(i, x) < spec.rate(i, y) - _MONO_SLACK:
                    report.partially_decreasing = False
                    report.pd_counterexample = (x, y, i)
                    return report
    return report


def check_uniform_limits_scalar(spec: AllocationSpec, tol=1e-6) -> StructureReport:
    """State-by-state reference for ``check_uniform_limits``, at its levels
    64 * 2**k, k < 17, and its probe cap 8."""
    n = spec.n_queues
    worst = 0.0
    for m in range(1, n + 1):
        for sat in itertools.combinations(range(n), m):
            prefix_slots = [j for j in range(n) if j not in sat]
            probes = list(itertools.product(range(_probe_side(len(prefix_slots))),
                                            repeat=len(prefix_slots)))
            residual = math.inf
            for r in (64 * 2 ** k for k in range(17)):
                levels = sorted({r, r + 1, 2 * r})
                spread = 0.0
                for u in probes:
                    base = [0] * n
                    for slot, v in zip(prefix_slots, u):
                        base[slot] = v
                    for i in range(n):
                        lo, hi = math.inf, -math.inf
                        for combo in itertools.product(levels, repeat=m):
                            for slot, v in zip(sat, combo):
                                base[slot] = v
                            val = spec.rate(i, tuple(base))
                            lo = min(lo, val)
                            hi = max(hi, val)
                        spread = max(spread, hi - lo)
                residual = spread
                if residual < tol:
                    break
            worst = max(worst, residual)
            if residual >= tol and not spec.monotone_by_construction:
                return StructureReport(probe_box=(8,) * n, uniform_limits=False,
                                       worst_residual=worst)
    return StructureReport(
        probe_box=(8,) * n,
        uniform_limits=True,
        worst_residual=worst,
        guaranteed_by_shape=spec.monotone_by_construction,
    )


def envelope_scalar(engine, i: int, kind: str) -> float:
    """State-by-state reference for ``StabilityEngine._envelope``."""
    spec, n, tol = engine.spec, engine.spec.n_queues, engine.tol
    pick = min if kind == "lower" else max
    others = [j for j in range(n) if j != i]

    if engine.structure().partially_decreasing:
        def level_val(r):
            vals = []
            for own in sorted({r, r + 1, 2 * r}):
                if kind == "lower":
                    vals.append(lower_partial_limit_scalar(
                        spec, (i,), i, (own,), sat_level=tol.sat_level,
                        growth=tol.growth, limit_tol=tol.limit_tol))
                else:
                    x = [0] * n
                    x[i] = own
                    vals.append(spec.rate(i, tuple(x)))
            return pick(vals)
    else:
        probe = list(range(tol.bounds_probe_cap + 1))

        def level_val(r):
            own_levels = sorted({r, r + 1, 2 * r})
            best = None
            for own in own_levels:
                for combo in itertools.product(probe + own_levels, repeat=len(others)):
                    x = [0] * n
                    x[i] = own
                    for j, v in zip(others, combo):
                        x[j] = v
                    val = spec.rate(i, tuple(x))
                    best = val if best is None else pick(best, val)
            return best

    r = tol.sat_level
    prev = level_val(r)
    for _ in range(48):
        r = max(r + 1, math.ceil(r * tol.growth))
        cur = level_val(r)
        if abs(cur - prev) < max(tol.limit_tol, 1e-9):
            return cur
        prev = cur
    raise SaturationNotConverged(f"envelope {kind} bound for queue {i} did not stabilize")


# -- state-by-state references for the array-valued saturated limits ---------

def scalar_limits(spec: AllocationSpec):
    """A builder's closed-form saturated limit ``(prefix, queue, u) -> value``
    at one state, read from the data its scalar ``rate_fn`` holds: the
    reference for the builder's array ``analytic_limits``."""
    builder = spec.rate_fn.__qualname__.split(".")[0]
    data = spec.rate_fn.__defaults__
    if builder == "constant_allocation":
        mus, = data
        return lambda prefix, queue, u: mus[queue]
    if builder == "busy_table_allocation":
        tables, = data

        def limits(prefix, queue, u):
            x = dict(zip(prefix, u))  # saturated queues are busy
            return tables[queue][frozenset(
                j for j in range(spec.n_queues) if j != queue and x.get(j, 1) > 0)]
        return limits
    if builder == "build_product_allocation":
        gains, inter = data

        def limits(prefix, queue, u):
            x = dict(zip(prefix, u))  # saturated queues take the factor limits
            v = gains[queue][0](x[queue]) if queue in x else gains[queue][1]
            for j, (f, lim) in inter[queue].items():
                v *= f(x[j]) if j in x else lim
            return v
        return limits
    if builder == "relabel":
        inner, sigma, _ = data
        inner_limits = scalar_limits(inner)

        def limits(prefix, queue, u):
            occ = {sigma[k]: c for k, c in zip(prefix, u)}
            old = tuple(sorted(occ))
            return inner_limits(old, sigma[queue], tuple(occ[q] for q in old))
        return limits
    raise ValueError(f"no scalar limits for a spec built by {builder}")


def saturation_value(spec: AllocationSpec, prefix, queue: int, u, *,
                     sat_level=DEFAULT_SAT_LEVEL, growth=DEFAULT_GROWTH,
                     limit_tol=DEFAULT_LIMIT_TOL) -> float:
    """State-by-state reference for the numeric escalation of
    ``lower_partial_limit`` at one state: the grid minimum over ``{R, R+1,
    ceil(R*growth)}`` per saturated queue, escalating ``R`` from
    ``sat_level`` until two levels agree within ``limit_tol``."""
    prefix, u = tuple(sorted(prefix)), tuple(int(c) for c in u)
    saturated = [q for q in range(spec.n_queues) if q not in prefix]

    def grid_min(r):
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

    r = sat_level
    prev = grid_min(r)
    for _ in range(MAX_ESCALATIONS):
        r = max(r + 1, math.ceil(r * growth))
        cur = grid_min(r)
        if abs(cur - prev) < limit_tol:
            return cur
        prev = cur
    raise SaturationNotConverged(
        f"saturated limit for queue {queue} at prefix {prefix} = {u} did "
        f"not stabilize within {limit_tol} after {MAX_ESCALATIONS} escalations"
    )


def lower_partial_limit_scalar(spec: AllocationSpec, prefix, queue: int, u, **kw) -> float:
    """State-by-state reference for ``lower_partial_limit``; ``kw`` are its
    escalation settings."""
    u = tuple(int(c) for c in u)
    if spec.analytic_limits is not None:
        v = float(scalar_limits(spec)(tuple(sorted(prefix)), queue, u))
        if not (0.0 <= v <= spec.bound + _MONO_SLACK):
            raise BoundViolation(f"analytic limit {v} outside [0, {spec.bound}]")
        return min(v, spec.bound)
    return saturation_value(spec, prefix, queue, u, **kw)


def limit_at(spec: AllocationSpec, prefix, queue: int, u, **kw) -> float:
    """The library's ``lower_partial_limit`` at the one state ``u``; ``kw``
    are its escalation settings."""
    return float(lower_partial_limit(spec, prefix, queue, np.array([u], dtype=np.intp),
                                     **kw)[0])


def tabulated(fn, dim: int):
    """Death rates ``fn(i, x)`` of a ``dim``-queue chain as a generator takes
    them: a ``deaths(box)`` that calls ``fn`` state by state where
    ``x_i > 0``, and holds zero elsewhere."""
    def deaths(box):
        assert len(box) == dim
        coords = _state_grid([t + 1 for t in box])
        out = np.zeros(coords.shape)
        rows, cols = np.nonzero(coords > 0)
        states = coords.tolist()
        out[rows, cols] = [float(fn(c, tuple(states[s])))
                           for s, c in zip(rows.tolist(), cols.tolist())]
        return out

    return deaths


def array_deaths(fn, keys):
    """Death rates ``fn(keys[i], U)`` of coordinate ``i``, one array call per
    key at the states ``U`` of the whole box: a ``deaths(box)`` for a
    generator."""
    def deaths(box):
        U = _state_grid([t + 1 for t in box])
        return np.stack([fn(k, U) for k in keys], axis=1)

    return deaths



def coo_reference_matrix(gen):
    """The generator ``Q`` as a canonical CSR, assembled through COO triplets
    and scipy's ``tocsr``: births below the upper face, deaths where the rate
    is positive, the diagonal ``-out`` everywhere."""
    import scipy.sparse as sp

    box, dim, rates = gen.box, gen.dim, gen.birth_rates
    shape = tuple(t + 1 for t in gen.box)
    count = gen.n_states
    coords = np.stack(np.unravel_index(np.arange(count), shape), axis=1)
    idx = np.arange(count)
    strides = [math.prod(shape[i + 1:]) for i in range(dim)]
    rows_parts, cols_parts, data_parts = [], [], []
    out_rate = np.zeros(count)
    for i in range(dim):
        up = coords[:, i] < box[i]
        rows_parts.append(idx[up])
        cols_parts.append(idx[up] + strides[i])
        data_parts.append(np.full(int(up.sum()), rates[i]))
        out_rate += np.where(up, rates[i], 0.0)
    for i in range(dim):
        down = gen.death_values[:, i] > 0.0
        rows_parts.append(idx[down])
        cols_parts.append(idx[down] - strides[i])
        data_parts.append(gen.death_values[down, i])
        out_rate += gen.death_values[:, i]
    rows = np.concatenate(rows_parts + [idx])
    cols = np.concatenate(cols_parts + [idx])
    data = np.concatenate(data_parts + [-out_rate])
    return sp.coo_matrix((data, (rows, cols)), shape=(count, count)).tocsr()


def grounded_system(matrix, ground: int) -> tuple:
    """``(A, rhs)`` of ``pi Q = 0`` with the mass at ``ground`` fixed to 1:
    ``Q`` transposed through COO without that state's row and column, as a
    CSC, and minus the ground's row as the right-hand side."""
    import scipy.sparse as sp

    count = matrix.shape[0]
    coo = matrix.tocoo()
    # transposed entries: row <- col, col <- row
    r, c, d = coo.col, coo.row, coo.data
    keep = (r != ground) & (c != ground)
    rows = r[keep] - (r[keep] > ground)
    cols = c[keep] - (c[keep] > ground)
    a = sp.coo_matrix((d[keep], (rows, cols)), shape=(count - 1, count - 1)).tocsc()
    rhs = np.zeros(count - 1)
    gmask = (r != ground) & (c == ground)
    np.add.at(rhs, r[gmask] - (r[gmask] > ground), -d[gmask])
    return a, rhs


def grounded_lu(gen, ground: int) -> tuple:
    """The LU route grounded at any state, on the reference matrix:
    ``(normalized law, residual)``, or ``(None, inf)`` when the solve gives
    no finite positive mass."""
    import scipy.sparse.linalg as spla

    matrix = coo_reference_matrix(gen)
    a, rhs = grounded_system(matrix, ground)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        x = np.atleast_1d(spla.spsolve(a, rhs))
        raw = np.maximum(np.concatenate([x[:ground], [1.0], x[ground:]]), 0.0)
    total = raw.sum()
    if not (math.isfinite(total) and total > 0):
        return None, math.inf
    vec = raw / total
    return vec, float(np.abs(matrix.T @ vec).max())

class _Draws:
    """Batched exponential gaps and uniforms from one stream, ``_BATCH`` of
    each at a time: the scalar draws that ``simulate._ChunkDraws`` returns
    chunk by chunk, and with it the lockstep and the coupled pair."""

    def __init__(self, rng: np.random.Generator, scale: float):
        self.rng = rng
        self.scale = scale
        self._gaps = np.empty(0)
        self._unis = np.empty(0)
        self._i = 0

    def next(self) -> tuple:
        if self._i >= self._gaps.size:
            self._gaps = self.rng.exponential(scale=self.scale, size=_BATCH)
            self._unis = self.rng.random(_BATCH)
            self._i = 0
        g, u = self._gaps[self._i], self._unis[self._i]
        self._i += 1
        return float(g), float(u)


@dataclass
class ReferencePath(PathSample):
    """A :class:`PathSample` that also holds its checkpoints."""

    checkpoints: list = field(default_factory=list)   # (t, cum hist, cum overflow, state, cum area)


def reference_path(rates, spec: AllocationSpec, x0, horizon: float, seed: int,
                   *, sample_interval=None, checkpoint_times=(),
                   rng=None) -> ReferencePath:
    """Uniformized path of the queueing chain, one event at a time: the
    scalar reference of :func:`coupledq.simulate.simulate_path` and of each
    replica of the lockstep probe.

    It draws from ``rng`` (``_stream(seed)`` by default) through ``_Draws``,
    reads a death rate only at a busy queue, and stops at the first death.
    Each checkpoint time ``c`` is recorded at the first event time ``end``
    with ``c <= end + 1e-15``, and the path resumes from ``c``.
    """
    rates = as_rates(rates)
    n = spec.n_queues
    if len(rates) != n:
        raise ValueError("rate vector length mismatch")
    state = tuple(int(c) for c in x0)
    if len(state) != n or any(c < 0 for c in state):
        raise ValueError(f"initial state {state} invalid")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if sample_interval is not None and not (math.isfinite(sample_interval)
                                            and sample_interval > 0):
        raise ValueError(f"sample_interval must be positive and finite, "
                         f"got {sample_interval!r}")

    lam = tuple(rates)
    total_lam = sum(lam)
    big = total_lam + n * spec.bound
    rng = rng if rng is not None else _stream(seed)
    draws = _Draws(rng, 1.0 / big)

    hist = np.zeros((n, HIST_CAP + 1))
    over = np.zeros(n)
    area = [0.0] * n
    cps = sorted(float(c) for c in checkpoint_times)
    cp_out = []
    cp_i = 0
    samples = []
    next_sample = 0.0 if sample_interval else math.inf

    t = 0.0
    events = 0
    rate_of = spec.rate_unmemoized

    def settle(seg: float):
        for i in range(n):
            xi = state[i]
            if xi <= HIST_CAP:
                hist[i, xi] += seg
            else:
                over[i] += seg
            area[i] += xi * seg

    def advance(dt: float):
        nonlocal t, cp_i, next_sample
        end = t + dt
        while cp_i < len(cps) and cps[cp_i] <= end + 1e-15:
            seg = cps[cp_i] - t
            if seg > 0:
                settle(seg)
            t = cps[cp_i]
            cp_out.append((t, hist.copy(), over.copy(), state, tuple(area)))
            cp_i += 1
        while next_sample <= end + 1e-15:
            samples.append((next_sample, state))
            next_sample += sample_interval
        if end > t:
            settle(end - t)
            t = end

    if horizon > 0:
        while True:
            gap, u = draws.next()
            if t + gap >= horizon:
                advance(horizon - t)
                break
            advance(gap)
            events += 1
            v = u * big
            if v < total_lam:
                for i in range(n):
                    v -= lam[i]
                    if v < 0:
                        state = state[:i] + (state[i] + 1,) + state[i + 1:]
                        break
            else:
                v -= total_lam
                for i in range(n):
                    if state[i] > 0:
                        v -= rate_of(i, state)
                        if v < 0:
                            state = state[:i] + (state[i] - 1,) + state[i + 1:]
                            break
                # else self-loop
    while cp_i < len(cps):  # checkpoints exactly at the horizon
        cp_out.append((t, hist.copy(), over.copy(), state, tuple(area)))
        cp_i += 1

    slope = tuple(state[i] / horizon if horizon > 0 else 0.0 for i in range(n))
    avg = tuple(area[i] / horizon if horizon > 0 else float(state[i]) for i in range(n))
    return ReferencePath(
        seed=seed, horizon=horizon, event_count=events,
        histograms=hist, overflow=over, final_state=state,
        time_average=avg, drift_slope=slope,
        samples=samples, checkpoints=cp_out,
    )


def reference_coupled_pair(rates_x, spec_x: AllocationSpec,
                           rates_y, spec_y: AllocationSpec,
                           x0, y0, seed: int,
                           *, horizon: Optional[float] = None,
                           max_events: Optional[int] = None) -> CouplingReport:
    """Joint path of two chains under the order-preserving transition table,
    one branch per kind of move: the scalar reference of
    :func:`coupledq.simulate.simulate_coupled_pair`, drawing through
    ``_Draws``.

    The lower chain must start below the upper one on the compared
    coordinates, and the rate hypotheses (birth rates dominated above, death
    rates dominated below, on states where the compared coordinates agree)
    are checked online; a violation aborts with a precise witness.
    """
    rates_x, rates_y = as_rates(rates_x), as_rates(rates_y)
    nx, ny = spec_x.n_queues, spec_y.n_queues
    c = min(nx, ny)
    x = tuple(int(v) for v in x0)
    y = tuple(int(v) for v in y0)
    if len(x) != nx or len(y) != ny:
        raise ValueError("initial state dimension mismatch")
    if any(x[i] > y[i] for i in range(c)):
        raise ValueError(f"initial states not ordered on compared coordinates: {x} vs {y}")
    if horizon is None and max_events is None:
        raise ValueError("need a time horizon or an event budget")
    if horizon is not None and not (math.isfinite(horizon) and horizon >= 0):
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon!r}")
    if max_events is not None and not max_events >= 0:
        raise ValueError(f"max_events must be nonnegative, got {max_events!r}")

    big = sum(rates_x) + sum(rates_y) + nx * spec_x.bound + ny * spec_y.bound
    draws = _Draws(_stream(seed), 1.0 / big)
    rx, ry = tuple(rates_x), tuple(rates_y)
    fx, fy = spec_x.rate_unmemoized, spec_y.rate_unmemoized

    hist_x = np.zeros((nx, HIST_CAP + 1))
    hist_y = np.zeros((ny, HIST_CAP + 1))
    max_gap = [y[i] - x[i] for i in range(c)]
    violations = 0
    t = 0.0
    events = 0

    def check_hypotheses():
        for i in range(c):
            if x[i] == y[i]:
                if rx[i] > ry[i] + _RATE_SLACK:
                    raise HypothesisViolated(
                        f"birth rate {rx[i]} of lower chain exceeds {ry[i]} of upper "
                        f"chain at coordinate {i}, states {x} / {y}",
                        x=x, y=y, coord=i,
                    )
                if x[i] > 0 and fx(i, x) < fy(i, y) - _RATE_SLACK:
                    raise HypothesisViolated(
                        f"death rate {fx(i, x)} of lower chain below {fy(i, y)} of "
                        f"upper chain at coordinate {i}, states {x} / {y}",
                        x=x, y=y, coord=i,
                    )

    check_hypotheses()
    while True:
        if max_events is not None and events >= max_events:
            break
        gap, u = draws.next()
        if horizon is not None and t + gap >= horizon:
            seg = horizon - t
            for i in range(nx):
                hist_x[i, min(x[i], HIST_CAP)] += seg
            for i in range(ny):
                hist_y[i, min(y[i], HIST_CAP)] += seg
            t = horizon
            break
        for i in range(nx):
            hist_x[i, min(x[i], HIST_CAP)] += gap
        for i in range(ny):
            hist_y[i, min(y[i], HIST_CAP)] += gap
        t += gap
        events += 1

        v = u * big
        moved = False
        for i in range(c):
            if x[i] == y[i]:
                lam, eta = rx[i], ry[i]
                v -= lam
                if v < 0:  # joint birth
                    x = x[:i] + (x[i] + 1,) + x[i + 1:]
                    y = y[:i] + (y[i] + 1,) + y[i + 1:]
                    moved = True
                    break
                v -= max(eta - lam, 0.0)
                if v < 0:  # upper-only birth
                    y = y[:i] + (y[i] + 1,) + y[i + 1:]
                    moved = True
                    break
                if x[i] > 0:
                    phi, psi = fx(i, x), fy(i, y)
                    v -= psi
                    if v < 0:  # joint death
                        x = x[:i] + (x[i] - 1,) + x[i + 1:]
                        y = y[:i] + (y[i] - 1,) + y[i + 1:]
                        moved = True
                        break
                    v -= max(phi - psi, 0.0)
                    if v < 0:  # lower-only death
                        x = x[:i] + (x[i] - 1,) + x[i + 1:]
                        moved = True
                        break
            else:  # x[i] < y[i]: transitions cannot cross
                v -= rx[i]
                if v < 0:
                    x = x[:i] + (x[i] + 1,) + x[i + 1:]
                    moved = True
                    break
                v -= ry[i]
                if v < 0:
                    y = y[:i] + (y[i] + 1,) + y[i + 1:]
                    moved = True
                    break
                if x[i] > 0:
                    v -= fx(i, x)
                    if v < 0:
                        x = x[:i] + (x[i] - 1,) + x[i + 1:]
                        moved = True
                        break
                if y[i] > 0:
                    v -= fy(i, y)
                    if v < 0:
                        y = y[:i] + (y[i] - 1,) + y[i + 1:]
                        moved = True
                        break
        if not moved:
            for i in range(c, nx):  # uncompared lower coordinates
                v -= rx[i]
                if v < 0:
                    x = x[:i] + (x[i] + 1,) + x[i + 1:]
                    moved = True
                    break
                if x[i] > 0:
                    v -= fx(i, x)
                    if v < 0:
                        x = x[:i] + (x[i] - 1,) + x[i + 1:]
                        moved = True
                        break
        if not moved:
            for i in range(c, ny):  # uncompared upper coordinates
                v -= ry[i]
                if v < 0:
                    y = y[:i] + (y[i] + 1,) + y[i + 1:]
                    moved = True
                    break
                if y[i] > 0:
                    v -= fy(i, y)
                    if v < 0:
                        y = y[:i] + (y[i] - 1,) + y[i + 1:]
                        moved = True
                        break
        # else: self-loop

        if moved:
            for i in range(c):
                gap_i = y[i] - x[i]
                if gap_i < 0:
                    violations += 1
                if gap_i > max_gap[i]:
                    max_gap[i] = gap_i
            check_hypotheses()

    elapsed = t
    slope_x = tuple(x[i] / elapsed if elapsed > 0 else 0.0 for i in range(nx))
    slope_y = tuple(y[i] / elapsed if elapsed > 0 else 0.0 for i in range(ny))
    return CouplingReport(
        violations=violations, sampled_instants=events,
        max_gap=tuple(max_gap), drift_slope_x=slope_x, drift_slope_y=slope_y,
        elapsed=elapsed, final_x=x, final_y=y,
        histograms_x=hist_x, histograms_y=hist_y,
    )
