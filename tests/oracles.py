"""Test-side oracles and helpers that the library itself does not need."""

import math

import numpy as np

from coupledq.allocation import AllocationSpec, ArrivalRates, as_rates
from coupledq.ctmc import StationaryDistribution
from coupledq.errors import DivergentSeries


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
