"""Simulator: path law, coupling order preservation, marginal equivalence, probe."""

import math

import numpy as np
import pytest

from coupledq.allocation import (
    AllocationSpec,
    SaturationContext,
    base_station_pair,
    constant_allocation,
    lower_partial_limit,
    one_server_power_law,
    three_queue_table,
)
from coupledq import simulate
from coupledq.errors import HypothesisViolated
from coupledq.simulate import (
    HIST_CAP,
    empirical_stability_probe,
    random_hypothesis_pair,
    simulate_coupled_pair,
    simulate_path,
    _stream,
)


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
    ctx = SaturationContext((0, 1, 2), 2)

    def bound_rate(k, u):
        return lower_partial_limit(spec, ctx, k, u)

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
    path_x = simulate_path((0.5,), spec_x, (0,), 1e5, seed=543)
    path_y = simulate_path((0.6,), spec_y, (0,), 1e5, seed=544)
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


# -- lockstep probe against one simulate_path per replica ---------------------------

def _checkpoints(horizons):
    """The probe's checkpoint layout: horizon, sorted checkpoints, and the
    indices of the quarter and half checkpoints."""
    horizons = sorted(float(h) for h in horizons)
    t_max = horizons[-1]
    cps = sorted(set(horizons) | {t_max / 4.0, t_max / 2.0})
    return t_max, cps, (cps.index(t_max / 4.0), cps.index(t_max / 2.0))


def _reference_probe(rates, spec, x0, horizons, replicas, seed):
    """The probe as one ``simulate_path`` per replica on ``_stream(seed, r)``:
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
        path = simulate_path(
            rates, spec, x0, t_max, seed,
            checkpoint_times=cps, _rng=_stream(seed, r),
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
