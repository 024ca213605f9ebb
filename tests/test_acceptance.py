"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import itertools
import math
import time

import numpy as np
import pytest

from coupledq.allocation import (
    AllocationSpec,
    base_station_pair,
    constant_allocation,
    exp_interference,
    log_gain,
    lower_partial_limit,
    one_server_power_law,
    poly_interference,
    three_queue_table,
)
from coupledq.ctmc import build_truncated_generator, solve_stationary
from coupledq.engine import Label, StabilityEngine, SystemLabel
from coupledq.simulate import (
    empirical_stability_probe,
    random_hypothesis_pair,
    simulate_coupled_pair,
    _stream,
)
from oracles import (
    array_deaths,
    limit_at,
    prob,
    reference_path,
    scalar_limits,
    stationary_1d_closed_form,
    tabulated,
)


pytestmark = pytest.mark.acceptance


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} -- {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def make_three_queue(a23=2.0):
    a_pair = {(i, j): 2.0 for i in range(3) for j in range(3) if i != j}
    a_pair[(1, 2)] = a23
    return three_queue_table((3.0, 3.0, 3.0), a_pair)


@pytest.fixture(scope="module")
def bs_engine():
    return StabilityEngine(base_station_pair(2.0))


def test_criterion_1_one_server_boundary():
    start = time.perf_counter()
    ok = True
    details = []
    for alpha in (0.5, 2.0):
        eng = StabilityEngine(one_server_power_law(alpha))
        got = (
            eng.classify((0.95,)).system,
            eng.classify((1.05,)).system,
            eng.classify((1.0,)).system,
        )
        want = (SystemLabel.STABLE, SystemLabel.UNSTABLE,
                SystemLabel.BOUNDARY_INDETERMINATE)
        ok &= got == want
        details.append(f"alpha={alpha}: {[g.value for g in got]}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report(1, ok, f"{'; '.join(details)}; elapsed {elapsed:.2f}s (< 5s)")


def test_criterion_2_stage2_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for a23 in (1.0, 1.5, 3.0):
        engine = StabilityEngine(make_three_queue(a23=a23))
        for lam1 in (0.1, 0.3, 0.5, 0.7, 0.9):
            scan = engine.sequential_prefix((lam1, 0.5, 0.5), (0, 1, 2))
            got = scan.stages[1].avg_rate
            want = lam1 + a23 * (1.0 - lam1)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    _report(2, ok, f"max |L - closed form| = {worst:.2e} (< 1e-6) over 15 "
                   f"combinations; elapsed {elapsed:.1f}s (< 30s)")


def test_criterion_3_stage3_probabilities():
    spec = make_three_queue()
    deaths = array_deaths(lambda k, U: lower_partial_limit(spec, (0, 1), k, U), (0, 1))

    def splits(box):
        gen = build_truncated_generator((0.5, 1.2), deaths, (box, box), death_bound=spec.bound)
        g = solve_stationary(gen, tol=1e-12).grid()
        return np.array([
            g[0, 0], g[0, 1:].sum(), g[1:, 0].sum(), g[1:, 1:].sum()
        ])

    p = splits(96)
    p2 = splits(192)
    sum_err = abs(p.sum() - 1.0)
    drift = np.abs(p - p2).max()
    ok = sum_err < 1e-10 and drift < 1e-6
    _report(3, ok, f"p00..p11 = {np.round(p, 8).tolist()}, sum error "
                   f"{sum_err:.1e} (< 1e-10), box-doubling drift {drift:.1e} (< 1e-6)")


def test_criterion_4_corner_and_diagonal(bs_engine):
    spec = bs_engine.spec
    corner_analytic = limit_at(spec, (), 0, ())
    blind = AllocationSpec(2, spec.rate_fn, spec.bound)
    corner_numeric = limit_at(blind, (), 0, ())
    corner_ok = abs(corner_analytic - 0.5) < 1e-9 and abs(corner_numeric - 0.5) < 1e-9

    last_stable = None
    first_unstable = None
    for k in range(30, 71):
        lam = round(0.01 * k, 12)
        v = bs_engine.classify((lam, lam))
        if v.system is SystemLabel.STABLE:
            last_stable = lam
        elif v.system is SystemLabel.UNSTABLE and first_unstable is None:
            first_unstable = lam
    bracket_ok = (
        last_stable is not None and first_unstable is not None
        and last_stable < 0.5 < first_unstable
        and first_unstable - last_stable <= 0.02 + 1e-12
    )
    _report(4, corner_ok and bracket_ok,
            f"corner analytic {corner_analytic:.12f}, numeric "
            f"{corner_numeric:.12f} (0.5 +- 1e-9); diagonal transition "
            f"{last_stable} -> {first_unstable} brackets 0.5 at 0.01 resolution")


def _series_oracle_L12(lam1, gamma, family, cap=3.0):
    """Independent series-summation oracle for the saturated average rate of
    queue 2: closed-form prefix law x explicit interference sum."""
    g, _ = log_gain(cap)
    h, _ = (exp_interference if family == "exp" else poly_interference)(gamma)
    dist = stationary_1d_closed_form(lam1, lambda x: g(x) / 6.0)
    return cap * sum(h(x) * prob(dist, (x,)) for x in range(dist.box[0] + 1))


def test_criterion_5_curve_oracle_agreement():
    worst = 0.0
    lam_points = np.linspace(0.03, 0.45, 20)
    for family, builder in (("exp", exp_interference), ("poly", poly_interference)):
        for gamma in (0.05, 2.0):
            g = log_gain(3.0)
            from coupledq.allocation import build_product_allocation
            spec = build_product_allocation(
                gains=[g, g],
                interference=[{1: builder(gamma)}, {0: builder(gamma)}],
            )
            engine = StabilityEngine(spec)
            for lam1 in lam_points:
                scan = engine.sequential_prefix((float(lam1), 0.5), (0, 1))
                engine_val = scan.stages[1].avg_rate
                oracle = _series_oracle_L12(float(lam1), gamma, family)
                worst = max(worst, abs(engine_val - oracle))
    ok = worst < 1e-6
    _report(5, ok, f"max |engine - series oracle| = {worst:.2e} (< 1e-6) over "
                   f"20 rate points x {{exp,poly}} x gamma in {{0.05, 2.0}}")


def test_criterion_6_coupling_suite():
    rng = _stream(606060)
    violations = 0
    pairs = 10_000
    for k in range(pairs):
        lam, sx, eta, sy, x0, y0 = random_hypothesis_pair(rng)
        rep = simulate_coupled_pair(lam, sx, eta, sy, x0, y0,
                                    seed=70_000 + k, max_events=1000)
        violations += rep.violations

    tv_worst = 0.0
    systems = []
    mm_fast = constant_allocation((2.0,))
    mm_slow = constant_allocation((1.0,))
    systems.append(((0.5,), mm_fast, (0.5,), mm_slow, (0,), (0,)))
    two_lo = constant_allocation((1.5, 1.2))
    two_hi = constant_allocation((1.0, 1.0))
    systems.append(((0.4, 0.5), two_lo, (0.6, 0.5), two_hi, (0, 0), (0, 0)))
    tq = make_three_queue()
    # the saturated limits in closed form, read once per rate the pair reads
    limits = scalar_limits(tq)
    assert all(limits((0, 1), k2, u) == limit_at(tq, (0, 1), k2, u)
               for k2 in (0, 1) for u in itertools.product(range(6), repeat=2))
    bound_spec = AllocationSpec(2, lambda k2, u: limits((0, 1), k2, u), bound=tq.bound)
    systems.append(((0.5, 1.2, 0.3), tq, (0.5, 1.2), bound_spec, (0, 0, 0), (0, 0)))

    horizon = 1e5
    for idx, (lam, sx, eta, sy, x0, y0) in enumerate(systems):
        rep = simulate_coupled_pair(lam, sx, eta, sy, x0, y0,
                                    seed=909_000 + idx, horizon=horizon)
        violations += rep.violations
        for i in range(len(x0)):
            ref = reference_path(lam, sx, x0, horizon, seed=717_000 + 10 * idx + i)
            tv = 0.5 * np.abs(
                rep.occupancy_distribution_x(i) - ref.occupancy_distribution(i)
            ).sum()
            tv_worst = max(tv_worst, tv)
    ok = violations == 0 and tv_worst < 0.03
    _report(6, ok, f"{pairs} randomized pairs x 1000 events: {violations} "
                   f"ordering violations (= 0); marginal TV worst {tv_worst:.4f} (< 0.03)")


def test_criterion_7_solver_correctness():
    db_worst = 0.0
    one_d_cases = [
        (0.5, lambda x: 1.0),
        (0.9, lambda x: 1.0),
        (0.6, lambda x: (1.0 + 1.0 / x) ** 2.0),
        (0.3, lambda x: min(3.0, math.log1p(x)) / 6.0 * 6.0),
        (0.45, lambda x: 0.5 + 1.5 / (1.0 + x)),
    ]
    for lam, death in one_d_cases:
        gen = build_truncated_generator(
            (lam,), tabulated(lambda i, x, _d=death: _d(x[0]), 1), (300,), death_bound=4.0
        )
        dist = solve_stationary(gen, tol=1e-12)
        m = dist.masses
        for x in range(300):
            db_worst = max(
                db_worst, abs(m[x + 1] * gen.death_values[x + 1, 0] - m[x] * lam)
            )

    def geometric(rho, size):
        pmf = (1 - rho) * rho ** np.arange(size)
        return pmf / pmf.sum()

    gen2 = build_truncated_generator(
        (0.5, 0.4), tabulated(lambda i, x: (1.0, 0.8)[i], 2), (40, 40), death_bound=1.0
    )
    d2 = solve_stationary(gen2, tol=1e-12)
    ref2 = np.outer(geometric(0.5, 41), geometric(0.5, 41))
    tv2 = 0.5 * np.abs(d2.grid() - ref2).sum()

    mus = (1.0, 1.25, 2.0)
    gen3 = build_truncated_generator(
        (0.5, 0.5, 0.5), tabulated(lambda i, x: mus[i], 3), (32, 32, 32), death_bound=2.0
    )
    d3 = solve_stationary(gen3, tol=1e-12)
    gs = [geometric(0.5 / mus[i], 33) for i in range(3)]
    ref3 = np.einsum("i,j,k->ijk", *gs)
    tv3 = 0.5 * np.abs(d3.grid() - ref3).sum()

    ok = db_worst < 1e-10 and tv2 < 1e-8 and tv3 < 1e-8
    _report(7, ok, f"detailed-balance residual {db_worst:.1e} (< 1e-10); "
                   f"product-form TV 2-D {tv2:.1e}, 3-D {tv3:.1e} (< 1e-8)")


def test_criterion_8_down_closedness():
    rng = np.random.default_rng(808080)
    checked = 0
    inversions = 0

    def run_pairs(engine, n_pairs, lo, hi):
        nonlocal checked, inversions
        nq = engine.spec.n_queues
        for _ in range(n_pairs):
            lam = rng.uniform(lo, hi, size=nq)
            v = engine.classify(tuple(lam))
            checked += 1
            if v.system is SystemLabel.STABLE:
                frac = rng.uniform(0.2, 1.0, size=nq)
                lam2 = np.maximum(lam * frac, 1e-3)
                v2 = engine.classify(tuple(lam2))
                if v2.system is not SystemLabel.STABLE:
                    inversions += 1

    run_pairs(StabilityEngine(base_station_pair(2.0)), 120, 0.05, 0.9)
    run_pairs(
        StabilityEngine(
            __import__("coupledq.allocation", fromlist=["base_station_pair"])
            .base_station_pair(2.0, form="poly_interference")
        ),
        40, 0.05, 0.9,
    )
    run_pairs(StabilityEngine(make_three_queue()), 40, 0.1, 1.2)
    ok = checked == 200 and inversions == 0
    _report(8, ok, f"{checked} randomized dominated pairs, "
                   f"{inversions} stable->non-stable inversions (= 0)")


def test_criterion_9_simulation_cross_check(bs_engine):
    start = time.perf_counter()
    grid = [round(0.1 * k, 12) for k in range(1, 15)]
    points = [(a, b) for a in grid for b in grid]
    candidates = []
    for pt in points:
        v = bs_engine.classify(pt)
        if v.margin is None or abs(v.margin) < 0.05:
            continue
        if v.system is SystemLabel.STABLE:
            candidates.append((pt, "looks_stable"))
        elif v.system is SystemLabel.UNSTABLE:
            candidates.append((pt, "looks_unstable"))
    # deterministic thinning to keep the desk-scale budget
    step = max(1, len(candidates) // 120)
    sample = candidates[::step]
    assert len(sample) >= 100, f"only {len(sample)} usable sweep points"

    agree = 0
    for idx, (pt, want) in enumerate(sample):
        diag = empirical_stability_probe(
            pt, bs_engine.spec, (0, 0), [1000, 2000, 4000], 32, seed=990_000 + idx
        )
        agree += diag.verdict == want
    frac = agree / len(sample)
    elapsed = time.perf_counter() - start
    ok = frac >= 0.95 and elapsed < 900.0
    _report(9, ok, f"probe agreement {agree}/{len(sample)} = {frac:.3f} "
                   f"(>= 0.95) on |margin| >= 0.05 points; elapsed "
                   f"{elapsed / 60:.1f} min (< 15 min)")
