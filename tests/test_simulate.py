"""Simulator: path law, coupling order preservation, marginal equivalence, probe."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from coupledq.allocation import (
    AllocationSpec,
    base_station_pair,
    constant_allocation,
    one_server_power_law,
    three_queue_table,
)
from coupledq import simulate
from coupledq.errors import BoundViolation, HypothesisViolated
from coupledq.scenario import builtin_scenario
from coupledq.simulate import (
    HIST_CAP,
    MAX_SAMPLES,
    empirical_stability_probe,
    random_hypothesis_pair,
    simulate_coupled_pair,
    simulate_path,
    _stream,
)
from oracles import _Draws, limit_at, reference_coupled_pair, reference_path, scalar_limits


def make_three_queue():
    a_pair = {(i, j): 2.0 for i in range(3) for j in range(3) if i != j}
    return three_queue_table((3.0, 3.0, 3.0), a_pair)


def test_mm1_occupancy_matches_geometric():
    spec = constant_allocation((1.0,))
    path = simulate_path((0.5,), spec, (0,), 1e5, seed=42)
    occ = path.occupancy_distribution(0)
    geom = 0.5 * 0.5 ** np.arange(HIST_CAP + 1)
    assert 0.5 * np.abs(occ - geom).sum() < 0.02


def test_zero_horizon():
    spec = constant_allocation((1.0,))
    path = simulate_path((0.5,), spec, (3,), 0.0, seed=1)
    assert path.final_state == (3,)
    assert path.event_count == 0
    assert path.histograms.sum() == 0.0


def test_unstable_drift_slope():
    spec = constant_allocation((1.0,))
    path = simulate_path((1.5,), spec, (0,), 2e4, seed=7)
    assert path.drift_slope[0] == pytest.approx(0.5, abs=0.05)


def test_event_count_band():
    spec = constant_allocation((1.0,))
    horizon = 5e4
    path = simulate_path((0.5,), spec, (0,), horizon, seed=3)
    mean = 1.5 * horizon
    assert abs(path.event_count - mean) <= 5 * math.sqrt(mean)


def test_histogram_mass_equals_horizon():
    spec = constant_allocation((1.0, 2.0))
    horizon = 3000.0
    path = simulate_path((0.5, 0.9), spec, (0, 0), horizon, seed=9)
    for i in range(2):
        total = path.histograms[i].sum() + path.overflow[i]
        assert total == pytest.approx(horizon, rel=1e-12)


def test_determinism_event_for_event():
    spec = constant_allocation((1.0,))
    a = simulate_path((0.8,), spec, (0,), 2000.0, seed=99, sample_interval=10.0)
    b = simulate_path((0.8,), spec, (0,), 2000.0, seed=99, sample_interval=10.0)
    assert a.event_count == b.event_count
    assert a.final_state == b.final_state
    assert a.samples == b.samples
    assert np.array_equal(a.histograms, b.histograms)


def test_sample_interval_records_path():
    spec = constant_allocation((1.0,))
    path = simulate_path((0.5,), spec, (0,), 100.0, seed=5, sample_interval=10.0)
    times = [t for t, _ in path.samples]
    assert times == pytest.approx([10.0 * k for k in range(11)])


@pytest.mark.parametrize("interval", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_sample_interval_must_be_positive_and_finite(interval, deadline):
    # a negative interval used to append samples forever, zero to record none
    spec = constant_allocation((1.0,))
    with deadline(1.0), pytest.raises(ValueError, match="sample_interval"):
        simulate_path((0.5,), spec, (0,), 10.0, seed=5, sample_interval=interval)


@pytest.mark.parametrize("horizon, interval", [
    (2000.0, 1e-9),                    # 2e12 samples
    (float(MAX_SAMPLES), 1.0),         # the first ratio past the cap
    (2.0 ** 60, 1.0),                  # s + 1.0 == s long before the horizon
])
def test_sample_count_is_capped_before_any_sample_time(horizon, interval, deadline):
    # the sample times used to be built before the run, without a bound
    spec = constant_allocation((1.0,))
    with deadline(1.0), pytest.raises(ValueError, match="samples"):
        simulate_path((0.5,), spec, (0,), horizon, seed=5, sample_interval=interval)


def test_path_dump_csv(tmp_path):
    from coupledq.simulate import dump_path_csv

    spec = constant_allocation((1.0, 1.0))
    path = simulate_path((0.5, 0.4), spec, (0, 0), 50.0, seed=5, sample_interval=5.0)
    out = tmp_path / "path.csv"
    with open(out, "w") as f:
        dump_path_csv(path, f)
    lines = out.read_text().splitlines()
    assert lines[0] == "time,queue_1,queue_2"
    assert len(lines) == 1 + len(path.samples)
    t0, q1, q2 = lines[1].split(",")
    assert float(t0) == 0.0 and q1 == "0" and q2 == "0"


# -- coupled pairs ----------------------------------------------------------------

def test_coupled_mm1_pair_preserves_order():
    fast = constant_allocation((2.0,))
    slow = constant_allocation((1.0,))
    rep = simulate_coupled_pair((0.5,), fast, (0.5,), slow, (0,), (0,),
                                seed=5, horizon=1e4)
    assert rep.violations == 0
    assert rep.max_gap[0] >= 0


def test_coupled_three_queue_vs_saturated_bound():
    # full system below its two-queue saturated bound on the compared prefix
    spec = make_three_queue()

    def bound_rate(k, u):
        return limit_at(spec, (0, 1), k, u)

    bound_spec = AllocationSpec(2, bound_rate, bound=spec.bound)
    rep = simulate_coupled_pair(
        (0.5, 1.2, 0.3), spec, (0.5, 1.2), bound_spec,
        (0, 0, 0), (0, 0), seed=17, max_events=20000,
    )
    assert rep.violations == 0


def test_inverted_pair_hypothesis_violated():
    spec = constant_allocation((1.0,))
    with pytest.raises(HypothesisViolated) as err:
        simulate_coupled_pair((1.0,), spec, (0.5,), spec, (0,), (0,),
                              seed=5, horizon=100.0)
    assert err.value.coord == 0


def test_death_rate_hypothesis_checked_online():
    lower = constant_allocation((1.0,))
    upper = constant_allocation((2.0,))  # upper chain serving faster: invalid
    with pytest.raises(HypothesisViolated):
        simulate_coupled_pair((0.5,), lower, (0.5,), upper, (0,), (0,),
                              seed=5, horizon=1000.0)


def test_unordered_start_rejected():
    spec = constant_allocation((1.0,))
    with pytest.raises(ValueError):
        simulate_coupled_pair((0.5,), spec, (0.5,), spec, (3,), (1,),
                              seed=5, horizon=10.0)


def test_coupled_marginal_matches_independent_path():
    spec_x = constant_allocation((2.0,))
    spec_y = constant_allocation((1.0,))
    rep = simulate_coupled_pair((0.5,), spec_x, (0.6,), spec_y, (0,), (0,),
                                seed=12, horizon=1e5)
    path_x = reference_path((0.5,), spec_x, (0,), 1e5, seed=543)
    path_y = reference_path((0.6,), spec_y, (0,), 1e5, seed=544)
    tv_x = 0.5 * np.abs(
        rep.occupancy_distribution_x(0) - path_x.occupancy_distribution(0)
    ).sum()
    tv_y = 0.5 * np.abs(
        rep.occupancy_distribution_y(0) - path_y.occupancy_distribution(0)
    ).sum()
    assert tv_x < 0.03
    assert tv_y < 0.03


def test_random_pair_corpus_smoke():
    rng = _stream(2024)
    total = 0
    for k in range(50):
        lam, sx, eta, sy, x0, y0 = random_hypothesis_pair(rng)
        rep = simulate_coupled_pair(lam, sx, eta, sy, x0, y0,
                                    seed=1000 + k, max_events=500)
        total += rep.violations
    assert total == 0


def _pair_outcome(fn, args, kwargs):
    try:
        return fn(*args, **kwargs)
    except (HypothesisViolated, BoundViolation) as exc:
        return exc


def _assert_same_pair(*args, **kwargs):
    """``simulate_coupled_pair`` returns the report of the scalar reference
    field for field, histograms byte for byte, or raises the same error."""
    got = _pair_outcome(simulate_coupled_pair, args, kwargs)
    want = _pair_outcome(reference_coupled_pair, args, kwargs)
    assert type(got) is type(want), (got, want)
    if isinstance(want, HypothesisViolated):
        assert (str(got), got.x, got.y, got.coord) == (str(want), want.x, want.y, want.coord)
    elif isinstance(want, BoundViolation):
        assert str(got) == str(want)
    else:
        for f in dataclasses.fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), f.name
            else:
                assert repr(a) == repr(b), f.name
    return want


def _bound_pair_cases():
    # (rates_x, spec_x, rates_y, spec_y, x0, y0): a rate leaves [0, bound]
    # on the lower chain, on the upper chain, or on an uncompared queue
    over = AllocationSpec(2, _over_bound, bound=2.0)
    nan = AllocationSpec(2, _nan_when_busy, bound=2.0)
    one = constant_allocation((1.0,))
    return [
        ((0.9, 0.6), over, (0.9, 0.6), over, (0, 0), (0, 0)),
        ((0.9, 0.6), nan, (0.9, 0.6), nan, (0, 0), (0, 0)),
        ((0.9,), one, (0.9, 0.6), over, (0,), (0, 0)),
        ((0.9, 0.6), over, (0.9,), one, (0, 0), (0,)),
    ]


def test_coupled_pair_matches_reference(deadline):
    with deadline(120.0):
        rng = _stream(606060)  # criterion 6's corpus
        for k in range(1000):
            lam, sx, eta, sy, x0, y0 = random_hypothesis_pair(rng)
            _assert_same_pair(lam, sx, eta, sy, x0, y0, seed=70_000 + k, max_events=1000)

        tq = make_three_queue()
        limits = scalar_limits(tq)  # as criterion 6 reads the saturated limits
        bound_spec = AllocationSpec(2, lambda k, u: limits((0, 1), k, u), bound=tq.bound)
        lo3 = constant_allocation((2.0, 1.5, 1.0))
        hi2 = constant_allocation((1.0, 1.0))
        systems = [  # criterion 6's three systems, then nx > ny and nx < ny from busy starts
            ((0.5,), constant_allocation((2.0,)), (0.5,), constant_allocation((1.0,)),
             (0,), (0,)),
            ((0.4, 0.5), constant_allocation((1.5, 1.2)), (0.6, 0.5), hi2, (0, 0), (0, 0)),
            ((0.5, 1.2, 0.3), tq, (0.5, 1.2), bound_spec, (0, 0, 0), (0, 0)),
            ((0.4, 0.5, 0.3), lo3, (0.6, 0.5), hi2, (2, 0, 3), (4, 1)),
            ((0.5,), constant_allocation((3.0,)), (0.5, 1.2, 0.3), tq, (1,), (2, 3, 0)),
        ]
        for idx, system in enumerate(systems):
            rep = _assert_same_pair(*system, seed=909_000 + idx, horizon=1e4)
            assert rep.sampled_instants > 10_000
        for budget in ({"max_events": 0}, {"horizon": 0.0}, {"horizon": 0}):
            rep = _assert_same_pair(*systems[3], seed=1, **budget)
            assert rep.sampled_instants == 0

        one, two = constant_allocation((1.0,)), constant_allocation((2.0,))
        for system in [((1.0,), one, (0.5,), one, (0,), (0,)),   # birth rates inverted
                       ((0.5,), one, (0.5,), two, (0,), (0,))]:  # death rates inverted
            err = _assert_same_pair(*system, seed=5, horizon=1000.0)
            assert isinstance(err, HypothesisViolated)
        for system in _bound_pair_cases():
            for seed in (1, 9):
                err = _assert_same_pair(*system, seed=seed, horizon=100.0)
                assert isinstance(err, BoundViolation)


@pytest.mark.parametrize("run", [
    lambda spec, x0: simulate_path((0.5,), spec, x0, 10.0, seed=1),
    lambda spec, x0: empirical_stability_probe((0.5,), spec, x0, [10.0], 2, 1),
    lambda spec, x0: simulate_coupled_pair((0.5,), spec, (0.5,), spec, x0, (1,),
                                           seed=1, horizon=10.0),
    lambda spec, x0: simulate_coupled_pair((0.5,), spec, (0.5,), spec, (0,), x0,
                                           seed=1, horizon=10.0),
], ids=["path", "probe", "pair-x", "pair-y"])
@pytest.mark.parametrize("x0", [(0.7,), (-3,), (0, 0), (), (math.inf,), (math.nan,),
                                (2 ** 70,), (2 ** 62,), ("1",), (None,), (True,), (1.0,)])
def test_start_must_be_nonnegative_integers_of_the_right_length(run, x0):
    # a start of (0.7,) was floored to (0,), and the pair booked x0 = (-3,)
    # into the overflow column of its histograms through index -1; an
    # infinite or int64-overflowing start raised OverflowError, and a NaN one
    # Python's own ValueError; (True,) ran from (1,), and (1.0,) was taken
    with pytest.raises(ValueError, match="initial state"):
        run(constant_allocation((1.0,)), x0)


def test_largest_start_runs():
    spec = constant_allocation((1.0,))
    top = 2 ** 62 - 1
    path = simulate_path((0.5,), spec, (top,), 10.0, seed=1)
    assert path.final_state[0] > top - path.event_count
    rep = simulate_coupled_pair((0.5,), spec, (0.5,), spec, (top,), (top,),
                                seed=1, max_events=10)
    assert rep.sampled_instants == 10


BAD_COUNTS = {
    "probe-replicas-bool": lambda spec: empirical_stability_probe(
        (0.5,), spec, (0,), [10.0], True, 1),
    "probe-replicas-float": lambda spec: empirical_stability_probe(
        (0.5,), spec, (0,), [10.0], 2.5, 1),
    "probe-replicas-zero": lambda spec: empirical_stability_probe(
        (0.5,), spec, (0,), [10.0], 0, 1),
    "pair-max-events-float": lambda spec: simulate_coupled_pair(
        (0.5,), spec, (0.5,), spec, (0,), (0,), seed=1, max_events=2.5),
    "pair-max-events-bool": lambda spec: simulate_coupled_pair(
        (0.5,), spec, (0.5,), spec, (0,), (0,), seed=1, max_events=True),
    "pair-max-events-nan": lambda spec: simulate_coupled_pair(
        (0.5,), spec, (0.5,), spec, (0,), (0,), seed=1, max_events=math.nan),
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_counts_must_be_integers(case):
    # replicas=True or 2.5 raised TypeError inside numpy; max_events=2.5 ran
    # 3 events and max_events=True ran 1
    name = "max_events" if "max-events" in case else "replicas"
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        BAD_COUNTS[case](constant_allocation((1.0,)))


@pytest.mark.parametrize("rates_x, rates_y", [
    ((0.5, 0.7), (0.5,)), ((0.5,), (0.5, 0.7)), ((), (0.5,)),
])
def test_pair_rate_vectors_must_match_the_specs(rates_x, rates_y):
    # an extra rate silently enlarged the clock; a short vector raised IndexError
    spec = constant_allocation((1.0,))
    with pytest.raises(ValueError, match="rate vector length"):
        simulate_coupled_pair(rates_x, spec, rates_y, spec, (0,), (0,),
                              seed=1, horizon=10.0)
    two = constant_allocation((1.0, 1.0))
    with pytest.raises(ValueError, match="rate vector length"):
        simulate_coupled_pair(rates_x[:1], two, rates_y[:1], two, (0, 0), (0, 0),
                              seed=1, horizon=10.0)


SEEDED_RUNS = {
    "path": lambda spec, seed: simulate_path((0.5,), spec, (0,), 10.0, seed=seed).final_state,
    "probe": lambda spec, seed: empirical_stability_probe(
        (0.5,), spec, (0,), [10.0], 2, seed).slope_mean,
    "pair": lambda spec, seed: simulate_coupled_pair(
        (0.5,), spec, (0.5,), spec, (0,), (0,), seed=seed, max_events=50).final_x,
}


@pytest.mark.parametrize("run", sorted(SEEDED_RUNS))
def test_seeds_are_integers(run):
    # seed=1.5, "3" and None raised TypeError, np.int64(1) OverflowError,
    # and seed=True ran as seed 1
    spec, go = constant_allocation((1.0,)), SEEDED_RUNS[run]
    for bad in (1.5, "3", None, True, np.float64(2.0)):
        with pytest.raises(ValueError, match="seed must be an integer"):
            go(spec, bad)
    assert go(spec, np.int64(7)) == go(spec, 7)
    # negative seeds wrap mod 2**64
    assert go(spec, np.uint64(2 ** 64 - 5)) == go(spec, 2 ** 64 - 5) == go(spec, -5)


# -- probe ------------------------------------------------------------------------

def test_probe_labels():
    spec = constant_allocation((1.0,))
    horizons = [100, 200, 400]
    assert empirical_stability_probe((0.5,), spec, (0,), horizons, 32, 11).verdict == "looks_stable"
    assert empirical_stability_probe((1.5,), spec, (0,), horizons, 32, 11).verdict == "looks_unstable"
    assert empirical_stability_probe((1.0,), spec, (0,), horizons, 32, 11).verdict == "inconclusive"


def test_probe_warns_below_replica_floor():
    spec = constant_allocation((1.0,))
    diag = empirical_stability_probe((0.5,), spec, (0,), [50, 100], 8, 2)
    assert diag.warnings
    assert "below the normal-band floor" in diag.warnings[0]


def test_probe_is_deterministic():
    spec = constant_allocation((1.0,))
    a = empirical_stability_probe((0.9,), spec, (0,), [100, 200], 16, 5)
    b = empirical_stability_probe((0.9,), spec, (0,), [100, 200], 16, 5)
    assert a.slope_mean == b.slope_mean
    assert a.escape_fraction == b.escape_fraction


def test_probe_rejects_fewer_than_one_replica():
    spec = constant_allocation((1.0,))
    with pytest.raises(ValueError, match="replicas"):
        empirical_stability_probe((1.5,), spec, (0,), [50, 100], 0, 3)
    with pytest.raises(ValueError, match="replicas"):
        empirical_stability_probe((1.5,), spec, (0,), [50, 100], -2, 3)


# -- lockstep probe against one reference path per replica --------------------------

def _checkpoints(horizons):
    """The probe's checkpoint layout: horizon, sorted checkpoints, and the
    indices of the quarter and half checkpoints."""
    horizons = sorted(float(h) for h in horizons)
    t_max = horizons[-1]
    cps = sorted(set(horizons) | {t_max / 4.0, t_max / 2.0})
    return t_max, cps, (cps.index(t_max / 4.0), cps.index(t_max / 2.0))


def _reference_probe(rates, spec, x0, horizons, replicas, seed):
    """The probe as one ``reference_path`` per replica on ``_stream(seed, r)``:
    the oracle of the lockstep probe.  Returns the diagnostic's fields and
    the paths."""
    n = spec.n_queues
    t_max, cps, (q1_idx, mid_idx) = _checkpoints(horizons)
    t_mid = t_max / 2.0
    t_q1 = t_max / 4.0

    early = np.zeros((n, HIST_CAP + 1))
    early_over = np.zeros(n)
    last = np.zeros((n, HIST_CAP + 1))
    last_over = np.zeros(n)
    slopes = np.zeros((replicas, n))
    mid_area = np.zeros(n)
    late_area = np.zeros(n)
    paths = []
    for r in range(replicas):
        path = reference_path(
            rates, spec, x0, t_max, seed,
            checkpoint_times=cps, rng=_stream(seed, r),
        )
        paths.append(path)
        mid_cp = path.checkpoints[mid_idx]
        slopes[r] = [
            (path.final_state[i] - mid_cp[3][i]) / (t_max - t_mid)
            for i in range(n)
        ]
        q1_cp = path.checkpoints[q1_idx]
        early += mid_cp[1] - q1_cp[1]
        early_over += mid_cp[2] - q1_cp[2]
        last += path.histograms - mid_cp[1]
        last_over += path.overflow - mid_cp[2]
        mid_area += np.asarray(mid_cp[4]) - np.asarray(q1_cp[4])
        total_area = np.asarray(path.time_average) * t_max
        late_area += total_area - np.asarray(mid_cp[4])

    cover = []
    escape = []
    for i in range(n):
        total_early = early[i].sum() + early_over[i]
        cum = np.cumsum(early[i])
        k = min(int(np.searchsorted(cum, 0.999 * total_early)), HIST_CAP)
        cover.append(k)
        total_last = last[i].sum() + last_over[i]
        above = last[i, k + 1:].sum() + last_over[i]
        escape.append(above / total_last if total_last > 0 else 0.0)

    mean = slopes.mean(axis=0)
    sd = slopes.std(axis=0, ddof=1) if replicas > 1 else np.zeros(n)
    lcb = mean - 1.645 * sd / math.sqrt(replicas)
    ratio = (late_area / (t_max - t_mid) / replicas) / np.maximum(
        mid_area / (t_mid - t_q1) / replicas, 1e-9)
    drifting = [lcb[i] > 0 and ratio[i] > 1.7 for i in range(n)]
    if any(drifting):
        verdict = "looks_unstable"
    elif all(e < 0.01 for e in escape):
        verdict = "looks_stable"
    else:
        verdict = "inconclusive"
    diag = dict(
        verdict=verdict,
        slope_mean=tuple(float(v) for v in mean),
        slope_lcb=tuple(float(v) for v in lcb),
        escape_fraction=tuple(float(e) for e in escape),
        growth_ratio=tuple(float(v) for v in ratio),
        cover_level=tuple(cover),
    )
    return diag, paths


def _assert_lockstep_matches(spec, rates, x0, horizons, replicas, seed):
    want, paths = _reference_probe(rates, spec, x0, horizons, replicas, seed)
    got = empirical_stability_probe(rates, spec, x0, horizons, replicas, seed)
    for key in ("verdict", "slope_mean", "slope_lcb", "growth_ratio", "cover_level"):
        assert getattr(got, key) == want[key], key
    for a, b in zip(got.escape_fraction, want["escape_fraction"]):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
    assert got.replicas == replicas

    # replica by replica: the states and areas the diagnostic is made of
    t_max, cps, bounds = _checkpoints(horizons)
    reps = simulate._lockstep(rates, spec, x0, t_max, cps, bounds, replicas, seed)
    for r, path in enumerate(paths):
        assert tuple(int(c) for c in reps.final[r]) == path.final_state
        assert tuple(reps.area[r] / t_max) == path.time_average
        for j, cp in enumerate(path.checkpoints):
            assert tuple(int(c) for c in reps.cp_state[j, r]) == cp[3]
            assert tuple(reps.cp_area[j, r]) == cp[4]
    # the window histograms, summed in another order
    n = spec.n_queues
    want_windows = np.zeros((3, n, HIST_CAP + 2))
    for path in paths:
        cum = [np.concatenate([h, o[:, None]], axis=1) for _, h, o, _, _ in path.checkpoints]
        whole = np.concatenate([path.histograms, path.overflow[:, None]], axis=1)
        want_windows[1] += cum[bounds[1]] - cum[bounds[0]]
        want_windows[2] += whole - cum[bounds[1]]
    np.testing.assert_allclose(reps.windows[1:], want_windows[1:],
                               rtol=1e-12, atol=1e-12 * t_max * replicas)


def _pair_rate(i, x):
    return 1.0 + 0.5 / (1.0 + x[1 - i]) + 0.25 * (x[i] % 2)


PROBE_CORPUS = {
    "mm1-stable": (constant_allocation((1.0,)), (0.5,), (0,), (100, 200, 400), 16, 11),
    "mm1-unstable": (constant_allocation((1.0,)), (1.5,), (0,), (100, 200, 400), 16, 11),
    "mm1-critical": (constant_allocation((1.0,)), (1.0,), (0,), (100, 200, 400), 16, 11),
    # queue lengths past HIST_CAP in the second half
    "mm1-overflow": (constant_allocation((1.0,)), (1.5,), (0,), (12000,), 4, 12),
    "bs-stable": (base_station_pair(2.0), (0.3, 0.3), (0, 0), (250, 500, 1000), 16, 990_001),
    "bs-unstable": (base_station_pair(2.0), (1.2, 1.0), (0, 0), (250, 500, 1000), 16, 990_002),
    "bs-boundary": (base_station_pair(2.0), (0.5, 0.5), (0, 0), (250, 500, 1000), 16, 990_003),
    "three-queue": (make_three_queue(), (0.5, 1.2, 0.3), (0, 0, 0), (150, 300, 600), 12, 7),
    "power-law": (one_server_power_law(2.0), (0.9,), (3,), (100, 200, 400), 16, 5),
    "lambda-spec": (AllocationSpec(2, _pair_rate, bound=1.75), (0.6, 0.7), (2, 5),
                    (100, 200, 400), 16, 13),
    "tiny-checkpoints": (constant_allocation((1.0, 2.0)), (0.5, 0.9), (0, 0),
                         (0.3, 1.7, 3.1), 32, 21),
    "unit-checkpoints": (base_station_pair(2.0), (0.4, 0.6), (1, 0), (1.0, 2.0, 4.0), 32, 22),
    "one-replica": (constant_allocation((1.0,)), (0.8,), (0,), (50, 100), 1, 4),
}


@pytest.mark.parametrize("name", sorted(PROBE_CORPUS))
def test_lockstep_probe_matches_per_replica_reference(name):
    spec, rates, x0, horizons, replicas, seed = PROBE_CORPUS[name]
    _assert_lockstep_matches(spec, rates, x0, horizons, replicas, seed)


def test_lockstep_checkpoint_just_past_an_event():
    # A checkpoint less than 1e-15 past an event time passes the path's
    # `c <= end + 1e-15` test at that event, and the path resumes from the
    # checkpoint, not from the event time.  Here it is the quarter checkpoint.
    spec = constant_allocation((1.0, 2.0))
    rates, seed = (0.5, 0.9), 31
    big = sum(rates) + 2 * spec.bound
    end = float(_stream(seed, 0).exponential(scale=1.0 / big, size=1)[0])
    c = end + 8e-16
    assert end < c <= end + 1e-15
    _assert_lockstep_matches(spec, rates, (0, 0), (2 * c, 4 * c), 32, seed)


# -- guessed windows of deaths against the window of one step ----------------------

GUESS_CASES = {
    "constant": (constant_allocation((1.0,)), (0.8,), (3,)),
    "base-station": (base_station_pair(2.0), (0.4, 0.5), (2, 0)),
    "three-queue": (make_three_queue(), (0.5, 1.2, 0.3), (1, 0, 4)),
    "scenario": (builtin_scenario("two_basestations",
                                  {"gamma": 0.5, "form": "poly_interference"}).spec,
                 (0.9, 0.3), (0, 5)),
}


def _lockstep_bytes(spec, rates, x0, replicas, seed):
    # checkpoints a fraction of an event apart fall inside one window
    cps = [0.0, 1.3, 1.31, 1.32, 9.0, 40.0, 40.0 + 1e-9, 90.0]
    reps = simulate._lockstep(rates, spec, x0, 90.0, cps, (2, 5), replicas, seed)
    return {key: (value.shape, value.tobytes()) for key, value in vars(reps).items()}


@pytest.mark.parametrize("replicas", [1, 5, 32])
@pytest.mark.parametrize("name", sorted(GUESS_CASES))
def test_guessed_windows_match_one_step_windows(name, replicas, monkeypatch):
    spec, rates, x0 = GUESS_CASES[name]
    empty = (0,) * spec.n_queues
    for seed, start in itertools.product((3, 41, 990_007), (empty, x0)):
        got = _lockstep_bytes(spec, rates, start, replicas, seed)
        with monkeypatch.context() as m:
            m.setattr(simulate, "_GUESS", 1)
            want = _lockstep_bytes(spec, rates, start, replicas, seed)
        assert got == want, (seed, start)


def _spy_array_form(spec, on_call):
    """``spec`` whose array form calls ``on_call(X)`` before evaluating."""
    inner = spec._array_fn

    def rates(i, X):
        on_call(X)
        return inner(i, X)

    return dataclasses.replace(spec, _array_fn=rates)


def test_array_form_raising_off_the_path_falls_back_to_single_steps():
    # The array form raises above the highest level each replica's reference
    # path visits in each queue, so only a guessed state can make it raise;
    # the chunk then goes on one step at a time, and the probe is still the
    # reference.
    spec, rates, x0, horizons, replicas, seed = PROBE_CORPUS["bs-stable"]
    _, paths = _reference_probe(rates, spec, x0, horizons, replicas, seed)
    assert not any(p.overflow.any() for p in paths)
    top = np.array([[np.flatnonzero(h)[-1] for h in p.histograms] for p in paths])
    raised = []
    one_step = {False: 0, True: 0}  # one-step calls without and with raising

    def spy(X, raising):
        one_step[raising] += len(X) == replicas
        if raising and (X.reshape(-1, replicas, spec.n_queues) > top).any():
            raised.append(X.copy())
            raise RuntimeError("off the path")

    for raising in (False, True):
        _assert_lockstep_matches(_spy_array_form(spec, lambda X: spy(X, raising)),
                                 rates, x0, horizons, replicas, seed)
    assert raised and all(len(X) > replicas for X in raised)
    assert one_step[True] > one_step[False]


def test_array_form_never_sees_a_negative_state():
    # a guessed death of an empty queue would take it to -1; it is dropped
    # before the array form sees the window's states
    spec, rates, x0, horizons, replicas, seed = PROBE_CORPUS["bs-stable"]
    negative = []
    _assert_lockstep_matches(
        _spy_array_form(spec, lambda X: negative.append(bool((X < 0).any()))),
        rates, x0, horizons, replicas, seed)
    assert negative and not any(negative)


# -- simulate_path, the lockstep with one replica, against the scalar reference -----

@pytest.mark.parametrize("name", sorted(PROBE_CORPUS))
def test_simulate_path_matches_reference_path(name):
    spec, rates, x0, _, _, seed = PROBE_CORPUS[name]
    # at horizon 0.3 the third sample time, 0.1 + 0.1 + 0.1, lies past it
    for horizon, interval in itertools.product((0.0, 0.3, 10.0, 100.0, 2000.0),
                                               (0.1, 0.3, 1 / 3, 2.5, 10.0)):
        got = simulate_path(rates, spec, x0, horizon, seed, sample_interval=interval)
        want = reference_path(rates, spec, x0, horizon, seed, sample_interval=interval)
        case = (horizon, interval)
        assert got.final_state == want.final_state, case
        assert got.event_count == want.event_count, case
        assert got.samples == want.samples, case
        assert got.drift_slope == want.drift_slope, case
        # the sample times are the lockstep's checkpoints, which split segments
        split = reference_path(rates, spec, x0, horizon, seed,
                               checkpoint_times=[t for t, _ in want.samples])
        assert got.time_average == split.time_average, case
        np.testing.assert_allclose(got.histograms, want.histograms, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.overflow, want.overflow, rtol=1e-12, atol=0)


NON_FINITE_HORIZONS = {
    "path-inf": lambda spec: simulate_path((0.5,), spec, (0,), math.inf, seed=1),
    "path-nan": lambda spec: simulate_path((0.5,), spec, (0,), math.nan, seed=1),
    "path-negative": lambda spec: simulate_path((0.5,), spec, (0,), -1.0, seed=1),
    "probe-nan": lambda spec: empirical_stability_probe((0.5,), spec, (0,), [math.nan], 4, 1),
    "probe-inf": lambda spec: empirical_stability_probe((0.5,), spec, (0,), [10, math.inf], 4, 1),
    "pair-nan": lambda spec: simulate_coupled_pair((0.5,), spec, (0.5,), spec, (0,), (0,),
                                                   seed=1, horizon=math.nan),
    "pair-inf": lambda spec: simulate_coupled_pair((0.5,), spec, (0.5,), spec, (0,), (0,),
                                                   seed=1, horizon=math.inf),
    "pair-max-events": lambda spec: simulate_coupled_pair((0.5,), spec, (0.5,), spec,
                                                          (0,), (0,), seed=1, max_events=-5),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_HORIZONS))
def test_horizons_must_be_finite(case, deadline):
    # an infinite or NaN horizon used to run forever, or to return 0 events
    name = "max_events" if case.endswith("max-events") else "horizon"
    with deadline(1.0), pytest.raises(ValueError, match=name):
        NON_FINITE_HORIZONS[case](constant_allocation((1.0,)))


# -- the lockstep's bound check against a per-event reference ----------------------

def _first_bad_rate(rate, n, bound, rates, seed, replicas):
    """Message of the first out-of-bound rate in (step, queue, replica)
    order, where step ``k`` of a replica is the state after its first ``k``
    events: each replica's events replayed one by one from
    ``_Draws(_stream(seed, r))`` as ``reference_path`` draws them, with every
    queue's rate read at every state."""
    lam = tuple(float(v) for v in rates)
    total_lam = sum(lam)
    big = total_lam + n * bound
    found = []
    for r in range(replicas):
        draws = _Draws(_stream(seed, r), 1.0 / big)
        x = [0] * n
        for k in itertools.count():
            phi = [float(rate(i, tuple(x))) for i in range(n)]
            bad = [i for i in range(n) if not 0.0 <= phi[i] <= bound]
            if bad:
                i = bad[0]
                found.append((k, i, r, f"rate_fn({i}, {tuple(x)}) = {phi[i]!r} "
                                       f"outside [0, {bound}]"))
                break
            v = draws.next()[1] * big
            if v < total_lam:  # a birth, as in reference_path
                weights, step = lam, 1
            else:              # a death at a busy queue, or a self-loop
                v -= total_lam
                weights, step = [p if c > 0 else 0.0 for p, c in zip(phi, x)], -1
            for i in range(n):
                v -= weights[i]
                if v < 0:
                    x[i] += step
                    break
    return min(found)[3]


def _over_bound(i, x):
    # queue 0 leaves [0, 2] once x_0 >= 4, queue 1 once x_0 + x_1 >= 5
    if i == 0:
        return 2.5 if x[0] >= 4 else 1.0
    return 3.0 if x[0] + x[1] >= 5 else 1.0


def _over_bound_array(i, X):
    if i == 0:
        return np.where(X[:, 0] >= 4, 2.5, 1.0)
    return np.where(X[:, 0] + X[:, 1] >= 5, 3.0, 1.0)


def _nan_when_busy(i, x):
    # NaN on queue 1 once x_0 >= 3, also while queue 1 is empty
    return math.nan if i == 1 and x[0] >= 3 else 1.0


def _nan_when_busy_array(i, X):
    # the NaN can take an empty queue to -1 later in the chunk; raising on
    # such a state must not hide the NaN that came first
    if (X < 0).any():
        raise RuntimeError("negative queue length")
    return np.where((X[:, 0] >= 3) & (i == 1), math.nan, 1.0)


BOUND_CASES = {
    "array": (_over_bound, _over_bound_array),
    "black-box": (_over_bound, None),
    "nan-array": (_nan_when_busy, _nan_when_busy_array),
    "nan-black-box": (_nan_when_busy, None),
}


@pytest.mark.parametrize("seed", [1, 9])
@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_probe_reports_first_out_of_bound_rate(case, seed, deadline):
    # seed 1: the first bad rate is replica 7's at step 6, before replica
    # 0's and before queue 0's first bad rate; seed 9: both queues are bad
    # at the first bad state, and queue 0 is named
    rate, array_fn = BOUND_CASES[case]
    spec = AllocationSpec(2, rate, bound=2.0, _array_fn=array_fn)
    want = _first_bad_rate(rate, 2, 2.0, (0.9, 0.6), seed, 8)
    with deadline(10.0), pytest.raises(BoundViolation) as err:
        empirical_stability_probe((0.9, 0.6), spec, (0, 0), (50, 100), 8, seed)
    assert str(err.value) == want


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_simulate_path_reports_first_out_of_bound_rate(case, deadline):
    # a single path reads every queue's rate at every step, as the probe does
    rate, array_fn = BOUND_CASES[case]
    spec = AllocationSpec(2, rate, bound=2.0, _array_fn=array_fn)
    want = _first_bad_rate(rate, 2, 2.0, (0.9, 0.6), 1, 1)
    with deadline(10.0), pytest.raises(BoundViolation) as err:
        simulate_path((0.9, 0.6), spec, (0, 0), 100.0, seed=1)
    assert str(err.value) == want
