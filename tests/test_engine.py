"""Classification engine: bounds, sequential chains, witnesses, verdicts, sweeps."""

import csv
import dataclasses
import itertools
import math
import pathlib

import numpy as np
import pytest

import coupledq.ctmc
import coupledq.engine
from coupledq.allocation import (
    AllocationSpec,
    ArrivalRates,
    base_station_pair,
    build_product_allocation,
    constant_allocation,
    exp_interference,
    one_server_power_law,
    three_queue_table,
)
from coupledq.engine import (
    Certificate,
    Label,
    StabilityEngine,
    SystemLabel,
    Tolerances,
    region_label,
    verify_certificate,
)
from coupledq.cli import main
from coupledq.ctmc import adaptive_stationary
from coupledq.errors import NoConvergence, PermutationCapExceeded, SaturationNotConverged
from oracles import envelope_scalar, lower_partial_limit_scalar, relabel, tabulated


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
    # a gain still rising at every saturation level: the lower envelope is the
    # smallest of the limits at the levels {r, r+1, 2r}; with growth 1.5 the
    # largest, at 2r, is not the smallest of a later level
    "monotone-settling": lambda: build_product_allocation(
        [(lambda x: 2.0 - 1.0 / (1.0 + x), 2.0)] * 2,
        [{1: exp_interference(1.0)}, {0: exp_interference(1.0)}]),
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
        (3.0, 1.5, 3.0), {(i, j): 2.0 for i in range(3) for j in range(3) if i != j}),
}


def check_envelope_against_oracle(name, **tol):
    spec = ENVELOPE_SPECS[name]()
    eng = StabilityEngine(spec, Tolerances(bounds_probe_cap=4, **tol))
    assert eng.structure().partially_decreasing is name.startswith("monotone")
    for i in range(spec.n_queues):
        for kind in ("lower", "upper"):
            assert eng._envelope(i, kind).hex() == envelope_scalar(eng, i, kind).hex()


@pytest.mark.parametrize("name", sorted(ENVELOPE_SPECS))
def test_envelope_bounds_match_scalar_oracle(name):
    check_envelope_against_oracle(name)


@pytest.mark.parametrize("name", sorted(ENVELOPE_SPECS))
def test_envelope_bounds_match_scalar_oracle_at_growth_1_5(name):
    # levels of another parity and spacing than the default growth's
    check_envelope_against_oracle(name, growth=1.5)


def test_envelope_levels_stay_in_the_state_arrays_range(deadline):
    # with growth 3, a rate settling like 1/log escalates past int64 within
    # 48 levels: the escalation stops there and reports it did not settle
    spec = AllocationSpec(
        2, lambda i, x: 1.0 + 1.0 / math.log(x[i] + 2.0) + 0.1 / (1.0 + x[1 - i]), 3.0)
    eng = StabilityEngine(spec, Tolerances(growth=3))
    assert eng.structure().partially_decreasing
    for kind in ("lower", "upper"):
        with deadline(10.0), pytest.raises(SaturationNotConverged,
                                           match=f"envelope {kind} bound for queue 0"):
            eng._envelope(0, kind)


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
    ``n`` queues of ``sigma``: the scan reaches depth ``n`` and every later
    queue exceeds its saturated average.  The structure gate it sits behind
    must pass."""
    report = engine.structure()
    assert report.partially_decreasing and report.uniform_limits
    if engine.sequential_prefix(rates, sigma).n_max < n:
        return False
    return engine._excess(rates, sigma, n) is not None


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


def rising_spec():
    """Queue 0 serves faster as queue 1 grows: partial monotonicity fails."""
    return AllocationSpec(
        2,
        lambda i, x: (min(0.5 + 0.2 * x[1], 2.0)) if i == 0 else 1.0,
        bound=2.0,
    )


def test_hypotheses_unverified_falls_back_to_bounds():
    spec = rising_spec()
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


def test_sweep_records_an_unreadable_point_as_given(bs_engine):
    # the failed point was recorded through float(), which raised out of the sweep
    point = ("abc", 0.5)
    samples = bs_engine.sweep([point, (0.3, 0.4)])
    assert [s.region for s in samples] == ["ERR", "S"]
    assert samples[0].rates is point
    assert samples[0].error.startswith("ValueError: arrival rate must be")


# a stable, a boundary, a one-queue-stable and an unstable point
LIMIT_GRID = [(0.3, 0.3), (0.9, 0.5), (0.3, 1.0), (1.4, 1.4)]


def test_sweep_reuses_limit_tables(monkeypatch):
    calls = []
    real = coupledq.engine.lower_partial_limit

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    growth_calls = []  # the limit calls of each store growth, moved out of calls
    real_limits = StabilityEngine._limits

    def limits(self, prefix, queue, box):
        before, old = len(calls), self._limit_arrays.get((prefix, queue))
        out = real_limits(self, prefix, queue, box)
        made = calls[before:]
        del calls[before:]
        if self._limit_arrays[(prefix, queue)] is not old:
            growth_calls.append(made)
        else:
            assert made == []
        return out

    monkeypatch.setattr(coupledq.engine, "lower_partial_limit", counting)
    monkeypatch.setattr(StabilityEngine, "_limits", limits)
    eng = StabilityEngine(base_station_pair(2.0))
    first = eng.sweep(LIMIT_GRID)
    # one array call per (prefix, queue, store growth) and none on a read
    # that does not grow; the other calls are the lower envelopes', one per
    # saturation level for the levels {r, r+1, 2r}
    assert growth_calls and all(len(c) == 1 for c in growth_calls)
    assert 0 < len(calls) <= 2 * 49
    assert all(len(args[3]) == 3 for args in calls)
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
    assert eng._limit_arrays
    for (prefix, queue), arr in eng._limit_arrays.items():
        assert queue in {0, 1}
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


def test_certificate_uniform_limit_fallback_verifies():
    # queue 0's rate nears its limit like 1/sqrt(x1), so the uniform-limit
    # gate fails and instability comes from the envelope bounds alone; the
    # certificate's scan breaks at queue 0, and that record claims nothing
    spec = AllocationSpec(
        2, lambda i, x: 1.0 + 1.0 / math.sqrt(1.0 + x[1]) if i == 0 else 1.0, bound=2.0)
    v = StabilityEngine(spec).classify((2.5, 0.3))
    cert = v.certificate
    assert v.system is SystemLabel.UNSTABLE and cert.kind == "sequential"
    assert len(cert.stages) > cert.n and cert.bounds
    assert verify_certificate(spec, (2.5, 0.3), v)


def test_certificate_recheck_rejects_other_rates(bs_engine):
    # a sequential certificate, and an envelope-bounds one whose labels
    # change at the other rates
    for eng, at, other in [(bs_engine, (0.45, 0.45), (0.55, 0.55)),
                           (StabilityEngine(rising_spec()), (0.3, 0.5), (1.9, 1.5))]:
        v = eng.classify(at)
        assert v.system in (SystemLabel.STABLE, SystemLabel.UNSTABLE)
        assert verify_certificate(eng.spec, at, v)
        assert not verify_certificate(eng.spec, other, v)


def test_certificate_must_support_its_label(bs_engine):
    # relabelled the other way, each verdict verified: the replay never read the label
    spec = bs_engine.spec
    other = {SystemLabel.STABLE: SystemLabel.UNSTABLE, SystemLabel.UNSTABLE: SystemLabel.STABLE}
    for pt, system in [((0.3, 1.4), SystemLabel.UNSTABLE), ((0.3, 0.3), SystemLabel.STABLE)]:
        v = bs_engine.classify(pt)
        assert v.system is system and verify_certificate(spec, pt, v)
        assert not verify_certificate(spec, pt, dataclasses.replace(v, system=other[system]))
    # excess records after a scan of full depth claim nothing
    stable = bs_engine.classify((0.3, 0.3))
    forged = dataclasses.replace(stable.certificate, excess=stable.certificate.stages[1:])
    assert not verify_certificate(spec, (0.3, 0.3), dataclasses.replace(
        stable, system=SystemLabel.UNSTABLE, certificate=forged))


def test_stable_certificate_must_cover_every_queue():
    # queue 1 is unstable; a scan of depth 0, or of a sigma that lists queue 0
    # twice, verified as STABLE
    eng = StabilityEngine(constant_allocation((1.0, 0.1)))
    v = eng.classify((0.3, 0.5))
    assert v.per_queue == (Label.STABLE, Label.UNSTABLE)
    for sigma, n in [((0, 1), 0), ((1, 0), 0), ((0, 0), 2), ((0,), 1), ((0, 1), 3),
                     ((0, 1), None), ((0, 1, 2), 1)]:
        cert = Certificate(kind="sequential", sigma=sigma, n=n)
        forged = dataclasses.replace(v, system=SystemLabel.STABLE, certificate=cert)
        assert not verify_certificate(eng.spec, (0.3, 0.5), forged), (sigma, n)
    assert v.system is SystemLabel.UNSTABLE and verify_certificate(eng.spec, (0.3, 0.5), v)


def test_entry_points_check_rates_and_sigma():
    # a third rate was dropped silently, a missing one raised IndexError, and
    # a sigma listing a queue twice scanned queue 0 against itself
    eng = StabilityEngine(base_station_pair(2.0))
    v = eng.classify((0.3, 0.3))
    calls = [eng.classify, eng.general_bounds, lambda r: eng.sequential_prefix(r, (0, 1)),
             lambda r: eng.prefix_law(r, (0,)), lambda r: verify_certificate(eng.spec, r, v)]
    for rates in ((0.3, 0.3, 0.3), (0.3,)):
        for call in calls:
            with pytest.raises(ValueError, match="rate vector length mismatch"):
                call(rates)
    for sigma in ((0, 0), (0,), (0, 5), (0, 1, 2), (-1, 0)):
        with pytest.raises(ValueError, match="not a permutation"):
            eng.sequential_prefix((0.3, 0.3), sigma)
    for prefix in ((5,), (0, -1)):
        with pytest.raises(ValueError, match="outside range"):
            eng.prefix_law((0.3, 0.3), prefix)
    assert eng.sequential_prefix((0.3, 0.3), [1, 0]).n_max == 2


def test_prefix_law_matches_hand_built_saturated_pair(tq_engine):
    # reference: the generator built from per-state saturated-limit callbacks
    spec = tq_engine.spec
    rates = (0.5, 1.2, 0.3)
    ref, ref_report = adaptive_stationary(
        rates[:2], tabulated(lambda k, u: lower_partial_limit_scalar(spec, (0, 1), k, u), 2),
        death_bound=spec.bound,
    )
    dist, report = tq_engine.prefix_law(rates, (1, 0))
    assert report.boxes_tried == ref_report.boxes_tried
    assert report.certified and ref_report.certified
    assert np.array_equal(dist.masses, ref.masses)


# -- one point's prefix laws ---------------------------------------------------------------

def test_three_queue_report_solves_each_prefix_once(count_solves, capsys):
    # classify, the six scans after it and the saturated pair's law share
    # the point's five prefix solves
    assert main(["three-queues", "--rates", "0.5,1.2,0.3"]) == 0
    assert len(count_solves) == len(set(count_solves)) == 5


def test_scans_and_laws_after_classify_reuse_its_solves(count_solves):
    eng = StabilityEngine(base_station_pair(2.0))
    v = eng.classify((0.3, 1.0))
    assert v.certificate.witness_rates is None
    solved = [prefix for _, prefix in count_solves]
    assert solved == [(0,)]
    count_solves.clear()
    # the point is keyed by its rates, whatever the container
    for rates in ((0.3, 1.0), ArrivalRates((0.3, 1.0))):
        for sigma in itertools.permutations(range(2)):
            eng.sequential_prefix(rates, sigma)
        for prefix in solved:
            eng.prefix_law(rates, prefix)
    assert count_solves == []


def test_other_rates_resolve_and_so_does_a_return(count_solves):
    eng = StabilityEngine(base_station_pair(2.0))
    for pt in ((0.3, 1.0), (1.3, 0.2), (0.3, 1.0)):
        eng.classify(pt)
    assert count_solves == [((0.3,), (0,)), ((0.2,), (1,)), ((0.3,), (0,))]


def test_repeated_no_convergence_solves_once(count_solves):
    eng = StabilityEngine(constant_allocation((1.0, 1.0)), Tolerances(state_cap=1 << 14))
    messages = []
    for _ in range(2):
        with pytest.raises(NoConvergence) as exc:
            eng.prefix_law((1.5, 0.3), {0})
        messages.append(str(exc.value))
    assert messages[0] == messages[1] and "state cap" in messages[0]
    assert eng._L((1.5, 0.3), frozenset({0}), 1).value == 0.0
    assert len(count_solves) == 1


def test_missed_residual_gives_untrustworthy_stages(deadline):
    # no solve meets residual_tol = 1e-300: each solved stage is untrustworthy,
    # and the verdicts fall back to the envelope bounds
    spec = base_station_pair(2.0)
    tol = Tolerances(residual_tol=1e-300)
    with deadline(10):
        eng = StabilityEngine(spec, tol)
        stable = eng.classify((0.3, 0.4))
        with pytest.raises(NoConvergence, match="missed residual tol .* best residual"):
            eng.prefix_law((0.3, 0.4), {0})
        boundary = StabilityEngine(spec, tol).classify((0.5, 0.9))
        default = StabilityEngine(spec).classify((0.5, 0.9))
        for rates, verdict in (((0.3, 0.4), stable), ((0.5, 0.9), boundary)):
            assert verify_certificate(spec, rates, verdict)
    assert stable.system is SystemLabel.STABLE
    assert stable.per_queue == (Label.STABLE, Label.STABLE)
    assert [b.label for b in stable.certificate.bounds] == [Label.STABLE, Label.STABLE]
    solved = stable.certificate.stages[1]
    assert solved.as_dict()["trustworthy"] is False and solved.avg_rate == 0.0
    assert boundary.system is SystemLabel.BOUNDARY_INDETERMINATE
    assert default.system is SystemLabel.UNSTABLE


def test_descent_witness_solves_as_before(count_solves):
    # the scans at the point solve nothing; the descent's one step below it
    # solves queue 0's prefix once
    v = StabilityEngine(base_station_pair(2.0)).classify((0.5, 0.6))
    assert v.certificate.witness_rates is not None
    assert count_solves == [((0.4998,), (0,))]


def test_region_map_solve_count(count_solves):
    # a fresh engine over the benchmark grid in file order: 138 solves of
    # 32 distinct (rates, prefix) keys, and the reference labels and margins
    ref = pathlib.Path(__file__).parents[1] / "perfbench" / "refs" / "sweep_2q.csv"
    with open(ref, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    eng = StabilityEngine(base_station_pair(2.0))
    for row in rows:
        v = eng.classify((float(row["lambda_1"]), float(row["lambda_2"])))
        margin = "" if v.margin is None else f"{v.margin:.9g}"
        assert [region_label(v), margin] == [row["label"], row["margin"]]
    assert len(count_solves) == 138
    assert len(set(count_solves)) == 32


# -- random black-box specs ---------------------------------------------------------------

def clipped_linear_spec(rng):
    """A black-box 2-queue spec: queue i serves at ``base[i]`` less a share
    of the other queue's occupancy, clipped at that queue's saturation
    level and at a floor; partially decreasing by construction."""
    base = rng.uniform(0.5, 2.0, size=2)
    weights = rng.uniform(0.0, 0.6, size=(2, 2)) * base[:, None]
    np.fill_diagonal(weights, 0.0)
    sat = rng.integers(1, 9, size=2)

    def rate(i, x):
        v = base[i]
        for k in range(2):
            v -= weights[i, k] * min(x[k], sat[k]) / sat[k]
        return max(v, 0.1)

    return AllocationSpec(2, rate, bound=float(base.max())), base


def test_random_black_box_pairs(deadline):
    # every definite verdict rechecks, a stable point stays stable at 0.9x
    # its rates, and swapping the queues swaps the labels
    rng = np.random.default_rng(2024)
    definite = 0
    with deadline(90.0):
        for _ in range(20):
            spec, base = clipped_linear_spec(rng)
            swapped_spec, _ = relabel(spec, (1.0, 1.0), (1, 0))
            eng, swapped = StabilityEngine(spec), StabilityEngine(swapped_spec)
            for _ in range(6):
                rates = tuple(float(v) for v in rng.uniform(0.05, 1.4, size=2) * base)
                v = eng.classify(rates)
                definite += v.system in (SystemLabel.STABLE, SystemLabel.UNSTABLE)
                assert verify_certificate(spec, rates, v), rates
                if v.system is SystemLabel.STABLE:
                    lower = eng.classify(tuple(0.9 * r for r in rates))
                    assert lower.system is SystemLabel.STABLE, rates
                assert swapped.classify(rates[::-1]).per_queue == v.per_queue[::-1], rates
    assert definite >= 100
