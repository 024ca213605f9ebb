"""Test-side oracles and helpers that the library itself does not need."""

import itertools
import math

import numpy as np

from coupledq.allocation import (
    _MONO_SLACK,
    AllocationSpec,
    ArrivalRates,
    StructureReport,
    _probe_side,
    as_rates,
    default_pd_box,
    default_schedule,
)
from coupledq.ctmc import StationaryDistribution
from coupledq.errors import DivergentSeries, NoUniformLimit, SaturationNotConverged


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
        def new_limits(prefix, queue, u, _spec=spec, _sigma=sigma):
            occ = {_sigma[k]: c for k, c in zip(prefix, u)}
            old = tuple(sorted(occ))
            return _spec.analytic_limits(old, _sigma[queue], tuple(occ[q] for q in old))

    new_spec = AllocationSpec(
        n_queues=n,
        rate_fn=new_rate,
        bound=spec.bound,
        analytic_limits=new_limits,
        monotone_by_construction=spec.monotone_by_construction,
    )
    new_rates = ArrivalRates(tuple(rates[sigma[i]] for i in range(n)))
    return new_spec, new_rates


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


def check_uniform_limits_scalar(spec: AllocationSpec, schedule=None, tol=1e-6,
                                prefix_cap=8) -> StructureReport:
    """State-by-state reference for ``check_uniform_limits``."""
    schedule = tuple(int(r) for r in (schedule or default_schedule()))
    n = spec.n_queues
    worst = 0.0
    for m in range(1, n + 1):
        for sat in itertools.combinations(range(n), m):
            prefix_slots = [j for j in range(n) if j not in sat]
            probes = list(itertools.product(range(_probe_side(len(prefix_slots), prefix_cap)),
                                            repeat=len(prefix_slots)))
            residual = math.inf
            for r in schedule:
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


def envelope_scalar(engine, i: int, kind: str) -> float:
    """State-by-state reference for ``StabilityEngine._envelope``."""
    spec, n, tol = engine.spec, engine.spec.n_queues, engine.tol
    pick = min if kind == "lower" else max
    others = [j for j in range(n) if j != i]

    if engine.structure()[0]:
        def level_val(r):
            vals = []
            for own in sorted({r, r + 1, 2 * r}):
                if kind == "lower":
                    vals.append(engine._ell(frozenset({i}), i, (own,)))
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
