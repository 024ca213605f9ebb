"""Classification engine: bounds, sequential chains, witnesses, verdicts, sweeps."""

import itertools
import math

import numpy as np
import pytest

import coupledq.ctmc
import coupledq.engine
from coupledq.allocation import (
    AllocationSpec,
    ArrivalRates,
    SaturationContext,
    base_station_pair,
    constant_allocation,
    lower_partial_limit,
    one_server_power_law,
    three_queue_table,
)
from coupledq.engine import (
    Label,
    StabilityEngine,
    SystemLabel,
    Tolerances,
    _PointCache,
    region_label,
    verify_certificate,
)
from coupledq.ctmc import adaptive_stationary
from coupledq.errors import PermutationCapExceeded
from oracles import envelope_scalar, relabel


def make_three_queue(a23=2.0):
    a_pair = {(i, j): 2.0 for i in range(3) for j in range(3) if i != j}
    a_pair[(1, 2)] = a23
    return three_queue_table((3.0, 3.0, 3.0), a_pair)


@pytest.fixture(scope="module")
def bs_engine():
    return StabilityEngine(base_station_pair(2.0))


@pytest.fixture(scope="module")
def tq_engine():
    return StabilityEngine(make_three_queue())


# -- envelope bounds ---------------------------------------------------------------

def test_general_bounds_two_valued_rate():
    spec = AllocationSpec(
        2,
        lambda i, x: (1.2 if x[1] % 2 == 0 else 0.8) if i == 0 else 1.0,
        bound=1.2,
    )
    eng = StabilityEngine(spec)
    for lam, want in ((0.5, Label.STABLE), (1.5, Label.UNSTABLE), (1.0, Label.INDETERMINATE)):
        out = eng.general_bounds((lam, 0.5))
        assert out[0].label is want
        assert out[0].lower == pytest.approx(0.8)
        assert out[0].upper == pytest.approx(1.2)


ENVELOPE_SPECS = {
    "monotone": lambda: base_station_pair(0.05),
    "monotone-black-box": lambda: AllocationSpec(2, base_station_pair(0.7).rate_fn, 3.0),
    "two-valued": lambda: AllocationSpec(
        2, lambda i, x: (1.2 if x[1] % 2 == 0 else 0.8) if i == 0 else 1.0, bound=1.2),
    # the upper envelope is met at one (own, other) pair of saturation levels
    "diagonal": lambda: AllocationSpec(
        2, lambda i, x: 2.0 if x[1 - i] == x[i] + 1 else 1.0, bound=2.0),
    # queue 0 serves faster as queue 1 grows: the lower envelope sits at an
    # empty queue 1, not at its saturation limit
    "rising": lambda: AllocationSpec(
        2, lambda i, x: min(1.0 + x[1], 5.0) / 5.0 if i == 0 else 1.0, bound=1.0),
    "three-queue-non-monotone": lambda: three_queue_table(
        (3.0, 1.5, 3.0), {(i, j): 2.0 for i in range(3) for j in range(3) if i != j},
        strict=False),
}


@pytest.mark.parametrize("name", sorted(ENVELOPE_SPECS))
def test_envelope_bounds_match_scalar_oracle(name):
    spec = ENVELOPE_SPECS[name]()
    eng = StabilityEngine(spec, Tolerances(bounds_probe_cap=4))
    assert eng.structure()[0] is name.startswith("monotone")
    for i in range(spec.n_queues):
        for kind in ("lower", "upper"):
            assert eng._envelope(i, kind).hex() == envelope_scalar(eng, i, kind).hex()


# -- sequential chains ---------------------------------------------------------------

def test_sequential_independent_pair():
    eng = StabilityEngine(constant_allocation((1.0, 1.0)))
    scan = eng.sequential_prefix((0.5, 0.5), (0, 1))
    assert scan.n_max == 2
    assert [s.margin for s in scan.stages] == pytest.approx([0.5, 0.5])


def test_sequential_three_queue_stage2_margin(tq_engine):
    scan = tq_engine.sequential_prefix((0.5, 1.2, 0.3), (0, 1, 2))
    assert scan.n_max == 3
    assert scan.stages[1].avg_rate == pytest.approx(1.5, abs=1e-6)
    assert scan.stages[1].margin == pytest.approx(0.3, abs=1e-6)


def test_sequential_one_queue_power_law():
    eng = StabilityEngine(one_server_power_law(0.5))
    scan = eng.sequential_prefix((0.9,), (0,))
    assert scan.n_max == 1
    assert scan.stages[0].avg_rate == pytest.approx(1.0, abs=1e-6)


def test_sequential_chain_stops_at_failure(tq_engine):
    scan = tq_engine.sequential_prefix((1.5, 0.2, 0.2), (0, 1, 2))
    assert scan.n_max == 0
    assert len(scan.stages) == 1
    assert scan.stages[0].margin < 0


# -- saturation witnesses ---------------------------------------------------------------

def unstable_at(engine, rates, sigma, n):
    """Whether ``classify``'s saturation witness test holds for the first
    ``n`` queues of ``sigma``; the structure gate it sits behind must pass."""
    pd_ok, ul_ok, _ = engine.structure()
    assert pd_ok and ul_ok
    return engine._unstable_at(rates, sigma, n, _PointCache()) is not None


def test_unstable_single_queue_at_zero_prefix():
    eng = StabilityEngine(constant_allocation((1.0,)))
    assert unstable_at(eng, (1.3,), (0,), 0) is True
    assert unstable_at(eng, (0.7,), (0,), 0) is False


def test_unstable_deep_point(bs_engine):
    assert unstable_at(bs_engine, (2.9, 2.9), (0, 1), 0) is True


def test_stable_point_never_witnesses(bs_engine):
    for n in (0, 1):
        for sigma in ((0, 1), (1, 0)):
            assert unstable_at(bs_engine, (0.3, 0.3), sigma, n) is False


# -- full classification ---------------------------------------------------------------

def test_one_server_boundary_classification():
    for alpha in (0.5, 2.0):
        eng = StabilityEngine(one_server_power_law(alpha))
        assert eng.classify((0.95,)).system is SystemLabel.STABLE
        assert eng.classify((1.05,)).system is SystemLabel.UNSTABLE
        assert eng.classify((1.0,)).system is SystemLabel.BOUNDARY_INDETERMINATE


def test_independent_pair_stable():
    v = StabilityEngine(constant_allocation((1.0, 1.0))).classify((0.5, 0.5))
    assert v.system is SystemLabel.STABLE
    assert all(l is Label.STABLE for l in v.per_queue)


def test_base_station_quadrants(bs_engine):
    v = bs_engine.classify((0.45, 0.45))
    assert v.system is SystemLabel.STABLE and region_label(v) == "S"
    v = bs_engine.classify((2.9, 2.9))
    assert v.system is SystemLabel.UNSTABLE and region_label(v) == "U"
    v = bs_engine.classify((0.3, 1.0))
    assert region_label(v) == "S1"
    v = bs_engine.classify((1.0, 0.3))
    assert region_label(v) == "S2"


def test_permutation_cap():
    spec = constant_allocation((1.0,) * 7)
    with pytest.raises(PermutationCapExceeded):
        StabilityEngine(spec).classify((0.5,) * 7)


def test_hypotheses_unverified_falls_back_to_bounds():
    spec = AllocationSpec(
        2,
        lambda i, x: (min(0.5 + 0.2 * x[1], 2.0)) if i == 0 else 1.0,
        bound=2.0,
    )
    v = StabilityEngine(spec).classify((0.3, 0.5))
    assert v.system in (SystemLabel.HYPOTHESES_UNVERIFIED, SystemLabel.STABLE)
    assert v.certificate.kind == "envelope-bounds"


def test_verdict_record_round_trip(bs_engine):
    v = bs_engine.classify((0.45, 0.45))
    rec = v.to_record()
    assert rec["system"] == "stable"
    assert rec["tolerances"]["margins_tol"] == v.margins_tol
    assert rec["certificate"]["kind"] == "sequential"
    stages = rec["certificate"]["stages"]
    assert all(s["lambda"] < s["avg_rate"] for s in stages)


# -- sweeps ------------------------------------------------------------------------------

def test_sweep_single_point(bs_engine):
    samples = bs_engine.sweep([(0.3, 0.3)])
    assert len(samples) == 1
    assert samples[0].region == "S"
    assert samples[0].wall_time >= 0


def test_sweep_monotone_column_no_reentry(bs_engine):
    lam1 = 0.35
    labels = [
        bs_engine.sweep([(lam1, l2)])[0].region
        for l2 in np.arange(0.1, 1.3, 0.1)
    ]
    seen_non_stable = False
    for code in labels:
        if code != "S":
            seen_non_stable = True
        assert not (seen_non_stable and code == "S")


def test_sweep_records_errors():
    spec = constant_allocation((1.0, 1.0))
    eng = StabilityEngine(spec)
    samples = eng.sweep([(0.5, 0.5), (-1.0, 0.5)])
    assert samples[0].region == "S"
    assert samples[1].region == "ERR"
    assert samples[1].error


# a stable, a boundary, a one-queue-stable and an unstable point
LIMIT_GRID = [(0.3, 0.3), (0.9, 0.5), (0.3, 1.0), (1.4, 1.4)]


def test_sweep_reuses_limit_tables(monkeypatch):
    calls = []
    real = coupledq.engine.lower_partial_limit

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(coupledq.engine, "lower_partial_limit", counting)
    eng = StabilityEngine(base_station_pair(2.0))
    first = eng.sweep(LIMIT_GRID)
    assert calls
    calls.clear()
    second = eng.sweep(LIMIT_GRID)
    assert calls == []
    assert [s.region for s in first] == ["S", "B", "S1", "U"]
    for a, b in zip(first, second):
        fresh = StabilityEngine(base_station_pair(2.0)).classify(a.rates)
        assert a.verdict.to_record() == b.verdict.to_record() == fresh.to_record()


def test_limit_tables_bounded_by_largest_box(monkeypatch):
    sides = {}
    real = coupledq.ctmc.build_truncated_generator

    def recording(rates, deaths, box, **kwargs):
        gen = real(rates, deaths, box, **kwargs)
        sides[gen.dim] = max(sides.get(gen.dim, 0), *gen.box)
        return gen

    monkeypatch.setattr(coupledq.ctmc, "build_truncated_generator", recording)
    eng = StabilityEngine(base_station_pair(2.0))
    eng.sweep(LIMIT_GRID)
    assert sides[1] == 65_536
    for prefix, table in eng._tables.items():
        assert set(table.arrays) <= {0, 1}
        for arr in table.arrays.values():
            assert arr.ndim == len(prefix)
            assert all(n <= sides[len(prefix)] + 1 for n in arr.shape)


# -- cross-theory consistency ---------------------------------------------------------------

def test_down_closedness_small_sample(bs_engine):
    rng = np.random.default_rng(7)
    for _ in range(10):
        lam = rng.uniform(0.05, 0.8, size=2)
        v = bs_engine.classify(tuple(lam))
        if v.system is SystemLabel.STABLE:
            frac = rng.uniform(0.3, 1.0, size=2)
            v2 = bs_engine.classify(tuple(lam * frac))
            assert v2.system is SystemLabel.STABLE


def test_permutation_equivariance(tq_engine):
    spec = tq_engine.spec
    rates = (0.5, 1.2, 0.3)
    base = tq_engine.classify(rates).per_queue
    quick = Tolerances(pd_box=8)  # structure gate rechecked on a small box
    for sigma in itertools.permutations(range(3)):
        spec2, rates2 = relabel(spec, ArrivalRates(rates), sigma)
        v2 = StabilityEngine(spec2, quick).classify(tuple(rates2))
        assert tuple(v2.per_queue) == tuple(base[sigma[i]] for i in range(3))


def test_bounds_never_contradicted(bs_engine):
    rng = np.random.default_rng(21)
    for _ in range(12):
        lam = tuple(rng.uniform(0.05, 1.6, size=2))
        t1 = bs_engine.general_bounds(lam)
        v = bs_engine.classify(lam)
        for b in t1:
            if b.label is Label.STABLE:
                assert v.per_queue[b.queue] is Label.STABLE
            elif b.label is Label.UNSTABLE:
                assert v.per_queue[b.queue] is Label.UNSTABLE


def test_single_queue_reduces_to_birth_death_criterion():
    rng = np.random.default_rng(33)
    for _ in range(20):
        limit = rng.uniform(0.4, 2.0)
        amp = rng.uniform(0.0, 1.5)
        decay = rng.uniform(0.5, 3.0)

        def rate(i, x, _l=limit, _a=amp, _d=decay):
            return _l + _a / (1.0 + x[0]) ** _d

        spec = AllocationSpec(1, rate, bound=limit + amp)
        lam = rng.uniform(0.1, 2.2)
        if abs(lam - limit) < 5e-3:
            continue
        v = StabilityEngine(spec).classify((lam,))
        want = SystemLabel.STABLE if lam < limit else SystemLabel.UNSTABLE
        assert v.system is want, (lam, limit, v.system)


def test_weaker_interference_decay_enlarges_region(bs_engine):
    # the saturated prefix law is decay-independent, while the interference
    # factor is pointwise larger for small gamma, so the all-stable region
    # for gamma = 0.05 contains the gamma = 2.0 one on any shared grid
    soft = StabilityEngine(base_station_pair(0.05))
    grid = [round(0.15 + 0.3 * k, 12) for k in range(5)]
    hard_stable = 0
    for l1 in grid:
        for l2 in grid:
            hard = bs_engine.classify((l1, l2)).system
            if hard is SystemLabel.STABLE:
                hard_stable += 1
                assert soft.classify((l1, l2)).system is SystemLabel.STABLE
    assert hard_stable >= 1
    # both families share the 0.5 saturated corner
    assert soft.classify((0.45, 0.45)).system is SystemLabel.STABLE
    assert soft.classify((0.55, 0.55)).system is SystemLabel.UNSTABLE


def test_certificate_soundness_doubled_boxes(tq_engine, bs_engine):
    spec3 = tq_engine.spec
    v = tq_engine.classify((0.5, 1.2, 0.3))
    assert verify_certificate(spec3, (0.5, 1.2, 0.3), v)
    v = bs_engine.classify((0.3, 1.0))
    assert verify_certificate(bs_engine.spec, (0.3, 1.0), v)


def test_certificate_descent_witness_verifies(bs_engine):
    # the witness sits one descent step below the queried point; its stage
    # records keep the queried point's margin of zero
    for pt in ((0.5, 0.6), (0.5, 1.4)):
        v = bs_engine.classify(pt)
        cert = v.certificate
        assert v.system is SystemLabel.UNSTABLE and v.margin == 0.0
        assert cert.witness_rates == (0.4998, pt[1] - 2e-4)
        assert verify_certificate(bs_engine.spec, pt, v)


def test_certificate_recheck_rejects_other_rates(bs_engine):
    v = bs_engine.classify((0.45, 0.45))
    assert verify_certificate(bs_engine.spec, (0.45, 0.45), v)
    assert not verify_certificate(bs_engine.spec, (0.55, 0.55), v)


def test_prefix_law_matches_hand_built_saturated_pair(tq_engine):
    # reference: the generator built from per-state saturated-limit callbacks
    spec = tq_engine.spec
    rates = (0.5, 1.2, 0.3)
    ctx = SaturationContext((0, 1))
    ref, ref_report = adaptive_stationary(
        rates[:2], lambda k, u: lower_partial_limit(spec, ctx, k, u),
        death_bound=spec.bound,
    )
    dist, report = tq_engine.prefix_law(rates, (1, 0))
    assert report.boxes_tried == ref_report.boxes_tried
    assert report.certified and ref_report.certified
    assert np.array_equal(dist.masses, ref.masses)
