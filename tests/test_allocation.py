"""Allocation module: evaluation, structure checks, saturated limits, relabeling."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from coupledq.allocation import (
    FACTOR_TABLE_CAP,
    AllocationSpec,
    _FactorTable,
    ArrivalRates,
    SaturationContext,
    base_station_pair,
    build_product_allocation,
    busy_table_allocation,
    check_partially_decreasing,
    check_uniform_limits,
    constant_allocation,
    exp_interference,
    log_gain,
    lower_partial_limit,
    one_server_power_law,
    poly_interference,
    three_queue_table,
)
from coupledq.engine import StabilityEngine
from coupledq.errors import (
    BoundViolation,
    InvalidShape,
    NoUniformLimit,
    SaturationNotConverged,
)
from oracles import (
    check_partially_decreasing_scalar,
    check_uniform_limits_scalar,
    relabel,
)


def make_three_queue(a=(3.0, 3.0, 3.0), a_pair_val=2.0, **over):
    a_pair = {(i, j): a_pair_val for i in range(3) for j in range(3) if i != j}
    a_pair.update(over)
    return three_queue_table(a, a_pair)


def strip_analytic(spec):
    """Black-box twin of a spec: same rates, no closed-form limits."""
    return AllocationSpec(spec.n_queues, spec.rate_fn, spec.bound)


# -- evaluation ---------------------------------------------------------------

def test_constant_evaluate():
    spec = constant_allocation((1.0, 2.0))
    assert spec.rate(1, (5, 0)) == 2.0
    assert spec.rate(0, (0, 0)) == 1.0


def test_three_queue_case_table():
    spec = make_three_queue(a=(3.0, 3.0, 3.0), a_pair_val=2.0)
    # queue 3 with queue 1 busy and queue 2 empty serves at the pairwise rate
    assert spec.rate(2, (1, 0, 7)) == 2.0
    # both others busy: unit rate
    assert spec.rate(2, (1, 1, 7)) == 1.0
    # both others empty: solo rate
    assert spec.rate(2, (0, 0, 7)) == 3.0


def test_product_zero_gain_at_empty():
    spec = base_station_pair(0.7)
    for x2 in (0, 3, 50):
        assert spec.rate(0, (0, x2)) == 0.0


def test_bound_violation_is_hard_error():
    bad = AllocationSpec(1, lambda i, x: -0.5, bound=1.0)
    with pytest.raises(BoundViolation):
        bad.rate(0, (0,))
    over = AllocationSpec(1, lambda i, x: 2.0, bound=1.0)
    with pytest.raises(BoundViolation):
        over.rate(0, (3,))
    nan = AllocationSpec(1, lambda i, x: float("nan"), bound=1.0)
    with pytest.raises(BoundViolation):
        nan.rate(0, (3,))


def test_rate_evaluates_on_every_call():
    calls = []

    def rate(i, x):
        calls.append((i, x))
        return 1.0

    spec = AllocationSpec(2, rate, bound=2.0)
    assert spec.rate(0, (1, 2)) == spec.rate(0, (1, 2)) == 1.0
    assert calls == [(0, (1, 2))] * 2


def test_arrival_rates_strictly_positive():
    with pytest.raises(ValueError):
        ArrivalRates((0.5, 0.0))
    with pytest.raises(ValueError):
        ArrivalRates((-1.0,))


# -- partial monotonicity ------------------------------------------------------

def test_constants_partially_decreasing():
    report = check_partially_decreasing(constant_allocation((1.0, 2.0)), box=8)
    assert report.partially_decreasing is True


def test_three_queue_partially_decreasing():
    report = check_partially_decreasing(make_three_queue(), box=6)
    assert report.partially_decreasing is True


def test_increasing_rate_caught_with_counterexample():
    spec = AllocationSpec(
        2, lambda i, x: min(1.0 + x[1], 5.0) if i == 0 else 1.0, bound=5.0
    )
    report = check_partially_decreasing(spec, box=4)
    assert report.partially_decreasing is False
    x, y, i = report.pd_counterexample
    assert x == (0, 0) and y == (0, 1) and i == 0
    assert all(a <= b for a, b in zip(x, y)) and x[i] == y[i]
    assert spec.rate(i, x) < spec.rate(i, y)


# -- uniform limits -------------------------------------------------------------

def test_constants_uniform_limits_zero_residual():
    report = check_uniform_limits(constant_allocation((1.0, 2.0)))
    assert report.uniform_limits is True
    assert report.worst_residual == 0.0


def test_product_black_box_uniform_limits_exponential_decay():
    # numeric residual decays like exp(-gamma R); no shape hint needed
    spec = strip_analytic(base_station_pair(2.0))
    report = check_uniform_limits(spec, tol=1e-6)
    assert report.uniform_limits is True
    assert report.worst_residual < 1e-6
    assert report.guaranteed_by_shape is False


def test_product_saturation_residual_decays_exponentially():
    # spread of phi over saturation levels {R, R+1, 2R} is governed by the
    # interference tail: |h(R) - h(2R)| ~ (4/36) exp(-gamma R)
    gamma = 0.05
    spec = strip_analytic(base_station_pair(gamma))
    g, _ = log_gain(3.0)

    def spread(r):
        worst = 0.0
        for x1 in range(4):
            vals = [spec.rate(0, (x1, s)) for s in (r, r + 1, 2 * r)]
            worst = max(worst, max(vals) - min(vals))
        return worst

    s64, s128, s256 = spread(64), spread(128), spread(256)
    assert s64 > 0
    bound = lambda r: 3.0 * (4.0 / 36.0) * math.exp(-gamma * r) * 1.2
    assert s64 <= bound(64)
    assert s128 <= bound(128)
    assert s128 <= s64 * math.exp(-gamma * 64) * 1.5
    assert s256 <= s128 * math.exp(-gamma * 128) * 1.5


def test_oscillating_rate_has_no_uniform_limit():
    spec = AllocationSpec(
        2,
        lambda i, x: (1.5 if x[1] % 2 == 0 else 0.5) if i == 0 else 1.0,
        bound=2.0,
    )
    with pytest.raises(NoUniformLimit):
        check_uniform_limits(spec)


def test_uniform_limits_schedule_must_increase():
    with pytest.raises(ValueError):
        check_uniform_limits(constant_allocation((1.0,)), schedule=(64, 64))


# -- saturated limits ------------------------------------------------------------

def case_table_saturated_q2(spec, x1):
    """Independent oracle for queue 2's limit with queue 3 pinned busy:
    read the case table directly at any busy witness state."""
    return spec.rate(1, (x1, 0, 1))


def test_lower_partial_limit_three_queue():
    spec = make_three_queue(a_pair_val=2.0)
    ctx = SaturationContext((0,))
    assert lower_partial_limit(spec, ctx, 1, (0,)) == case_table_saturated_q2(spec, 0) == 2.0
    for x1 in (1, 2, 9):
        assert lower_partial_limit(spec, ctx, 1, (x1,)) == case_table_saturated_q2(spec, x1) == 1.0


def test_lower_partial_limit_numeric_matches_analytic():
    # asymmetric rates, so a limit read for the wrong queue shows
    spec = three_queue_table((3.0, 2.5, 2.2), {(0, 1): 2.5, (0, 2): 2.0, (1, 0): 1.5,
                                               (1, 2): 2.0, (2, 0): 1.2, (2, 1): 1.8})
    blind = strip_analytic(spec)
    for m in range(4):
        for prefix in itertools.combinations(range(3), m):
            ctx = SaturationContext(prefix)
            for queue in range(3):
                for u in itertools.product(range(3), repeat=m):
                    va = lower_partial_limit(spec, ctx, queue, u)
                    vb = lower_partial_limit(blind, ctx, queue, u)
                    assert va == pytest.approx(vb, abs=1e-9)


def test_lower_partial_limit_product_analytic():
    spec = base_station_pair(2.0)
    ctx = SaturationContext((0,))
    h = exp_interference(2.0)[0]
    for x1 in range(6):
        assert lower_partial_limit(spec, ctx, 1, (x1,)) == pytest.approx(3.0 * h(x1), abs=1e-12)
    ctx0 = SaturationContext(())
    assert lower_partial_limit(spec, ctx0, 0, ()) == pytest.approx(0.5, abs=1e-12)


def test_lower_partial_limit_product_numeric_route():
    blind = strip_analytic(base_station_pair(2.0))
    ctx = SaturationContext((0,))
    h = exp_interference(2.0)[0]
    for x1 in (0, 1, 4):
        assert lower_partial_limit(blind, ctx, 1, (x1,)) == pytest.approx(3.0 * h(x1), abs=1e-7)


def test_lower_partial_limit_constant_n0():
    spec = constant_allocation((0.7, 1.3))
    ctx = SaturationContext(())
    assert lower_partial_limit(spec, ctx, 1, ()) == 1.3


def test_power_law_numeric_limit_is_one():
    spec = one_server_power_law(2.0)
    ctx = SaturationContext(())
    assert lower_partial_limit(spec, ctx, 0, ()) == pytest.approx(1.0, abs=1e-7)


def test_saturation_not_converged_for_slow_tail():
    # 1/log decay stabilizes far too slowly for the default tolerance
    spec = AllocationSpec(1, lambda i, x: 1.0 + 1.0 / math.log(x[0] + 2.0), bound=3.0)
    ctx = SaturationContext(())
    with pytest.raises(SaturationNotConverged):
        lower_partial_limit(spec, ctx, 0, ())


def test_prefix_consistency_inequality():
    # dropping one coordinate from the saturated set can only lower the limit
    spec = make_three_queue()
    tol = 1e-9
    ctx1 = SaturationContext((0,))
    ctx2 = SaturationContext((0, 1))
    for i in range(3):
        for x1 in range(4):
            v1 = lower_partial_limit(spec, ctx1, i, (x1,))
            for x2 in (64, 100, 1000):
                v2 = lower_partial_limit(spec, ctx2, i, (x1, x2))
                assert v1 <= v2 + tol


def test_saturated_limits_inherit_partial_monotonicity():
    spec = make_three_queue()
    ctx = SaturationContext((0, 1))
    cap = 6
    for i in range(3):
        for x in itertools.product(range(cap + 1), repeat=2):
            for j in range(2):
                if x[j] >= cap or (i < 2 and j == i):
                    continue
                y = x[:j] + (x[j] + 1,) + x[j + 1:]
                assert lower_partial_limit(spec, ctx, i, x) >= \
                    lower_partial_limit(spec, ctx, i, y) - 1e-12


# -- relabeling -------------------------------------------------------------------

def test_relabel_identity():
    spec = make_three_queue()
    rates = ArrivalRates((0.2, 0.7, 0.4))
    spec2, rates2 = relabel(spec, rates, (0, 1, 2))
    assert tuple(rates2) == tuple(rates)
    for x in itertools.product(range(3), repeat=3):
        for i in range(3):
            assert spec2.rate(i, x) == spec.rate(i, x)


def test_relabel_swap_rates():
    spec = constant_allocation((1.0, 2.0))
    _, rates2 = relabel(spec, ArrivalRates((0.2, 0.7)), (1, 0))
    assert tuple(rates2) == (0.7, 0.2)


def test_relabel_three_cycle_definition():
    # sigma = (2,3,1) in 1-based labels: relabeled queue 1 is original queue 2
    spec = make_three_queue(a=(3.0, 2.5, 2.2), a_pair_val=1.5)
    sigma = (1, 2, 0)
    spec2, _ = relabel(spec, ArrivalRates((0.1, 0.2, 0.3)), sigma)
    for x in itertools.product(range(3), repeat=3):
        assert spec2.rate(0, x) == spec.rate(1, (x[2], x[0], x[1]))


def test_relabel_round_trip_pointwise():
    spec = make_three_queue(a=(3.0, 2.5, 2.2), a_pair_val=1.5)
    rates = ArrivalRates((0.1, 0.2, 0.3))
    sigma = (2, 0, 1)
    inv = tuple(sigma.index(k) for k in range(3))
    spec2, rates2 = relabel(*relabel(spec, rates, sigma), inv)
    assert tuple(rates2) == tuple(rates)
    for x in itertools.product(range(3), repeat=3):
        for i in range(3):
            assert spec2.rate(i, x) == spec.rate(i, x)


def test_relabel_transports_analytic_limits():
    spec = make_three_queue()
    sigma = (1, 2, 0)
    spec2, _ = relabel(spec, ArrivalRates((0.1, 0.2, 0.3)), sigma)
    blind2 = strip_analytic(spec2)
    for m in range(4):
        for prefix in itertools.combinations(range(3), m):
            ctx = SaturationContext(prefix)
            for queue in range(3):
                for u in itertools.product(range(2), repeat=m):
                    assert lower_partial_limit(spec2, ctx, queue, u) == pytest.approx(
                        lower_partial_limit(blind2, ctx, queue, u), abs=1e-9
                    )


# -- product builder ---------------------------------------------------------------

def test_product_constant_degenerate():
    spec = build_product_allocation(
        gains=[(lambda x: 1.0, 1.0)] * 2,
        interference=[{1: (lambda t: 0.7, 0.7)}, {0: (lambda t: 1.3, 1.3)}],
    )
    assert spec.rate(0, (4, 9)) == pytest.approx(0.7)
    assert spec.rate(1, (4, 9)) == pytest.approx(1.3)


def test_product_evaluates_exactly():
    gamma = 0.05
    g, gcap = log_gain(3.0)
    h, _ = exp_interference(gamma)
    spec = base_station_pair(gamma)
    for x in itertools.product(range(8), repeat=2):
        assert spec.rate(0, x) == g(x[0]) * h(x[1])
        assert spec.rate(1, x) == g(x[1]) * h(x[0])


def test_product_structure_gates_pass():
    spec = base_station_pair(0.05)
    assert check_partially_decreasing(spec, box=12).partially_decreasing
    assert check_uniform_limits(spec).uniform_limits


def test_product_corner_value():
    spec = base_station_pair(2.0)
    ctx = SaturationContext(())
    for i in range(2):
        assert lower_partial_limit(spec, ctx, i, ()) == pytest.approx(0.5, abs=1e-12)


def test_product_rejects_decreasing_gain():
    with pytest.raises(InvalidShape):
        build_product_allocation(
            gains=[(lambda x: 1.0 / (1.0 + x), 1.0)],
            interference=[{}],
        )


def test_product_rejects_increasing_interference():
    with pytest.raises(InvalidShape):
        build_product_allocation(
            gains=[(lambda x: 1.0, 1.0), (lambda x: 1.0, 1.0)],
            interference=[{1: (lambda t: min(1.0 + t, 5.0), 1.0)}, {}],
        )


# -- array rates --------------------------------------------------------------

def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


RATES_AT_SPECS = {
    "constant": lambda: constant_allocation((1.0, 2.5, 0.0)),
    "busy-table": lambda: make_three_queue(a=(3.0, 2.5, 2.0), a_pair_val=1.5),
    "product-exp": lambda: base_station_pair(2.0),
    "product-poly": lambda: base_station_pair(0.7, "poly_interference"),
    "product-3q": lambda: build_product_allocation(
        [log_gain(2.0), log_gain(3.0), log_gain(1.5)],
        [{j: exp_interference(0.5) for j in range(3) if j != 0},
         {0: poly_interference(1.5)},
         {1: exp_interference(1.0), 0: poly_interference(0.3)}]),
    "relabel": lambda: relabel(base_station_pair(2.0), ArrivalRates((0.5, 0.4)), (1, 0))[0],
    "black-box": lambda: strip_analytic(base_station_pair(1.0)),
    "power-law": lambda: one_server_power_law(2.0),
}


@pytest.mark.parametrize("name", sorted(RATES_AT_SPECS))
def test_rates_at_matches_scalar_bit_for_bit(name):
    spec = RATES_AT_SPECS[name]()
    rng = np.random.default_rng(7)
    # small states first, then states past the factor tables filled so far
    for top in (4, 40, 3000):
        X = rng.integers(0, top, size=(64, spec.n_queues))
        for i in range(spec.n_queues):
            want = [spec.rate_unmemoized(i, tuple(int(c) for c in row)) for row in X]
            assert np.array_equal(_bits(spec.rates_at(i, X)), _bits(want))
        assert spec.rates_at(0, X[:0]).shape == (0,)
    # queue lengths past the factor-table cap are evaluated row by row
    X = np.array([[FACTOR_TABLE_CAP + 5] * spec.n_queues, [1] * spec.n_queues])
    for i in range(spec.n_queues):
        want = [spec.rate_unmemoized(i, tuple(int(c) for c in row)) for row in X]
        assert np.array_equal(_bits(spec.rates_at(i, X)), _bits(want))


def test_rates_at_rejects_bad_state_arrays():
    spec = base_station_pair(2.0)
    for bad in (np.zeros((3, 3), dtype=int), np.zeros((3, 2)), np.zeros(2, dtype=int),
                np.array([[1, -1]])):
        with pytest.raises(ValueError):
            spec.rates_at(0, bad)


def test_rates_at_raises_scalar_bound_violation_text():
    def rate(i, x):
        if x[0] == 2:
            return float("nan")
        return 2.0 if x[0] > 3 else 0.5

    black_box = AllocationSpec(2, rate, bound=1.0)
    jump = (lambda x: 1.0 if x < 2000 else 5.0, 1.0)  # past its limit beyond the probe range
    table = build_product_allocation(
        [jump, jump], [{1: exp_interference(1.0)}, {0: exp_interference(1.0)}])
    cases = [(black_box, [[1, 0], [4, 1], [2, 5], [7, 7]], (4, 1)),
             (black_box, [[1, 0], [2, 5], [4, 1]], (2, 5)),
             (table, [[1, 0], [2500, 0], [3000, 1]], (2500, 0))]
    for spec, rows, first_bad in cases:
        with pytest.raises(BoundViolation) as scalar:
            spec.rate_unmemoized(0, first_bad)
        with pytest.raises(BoundViolation) as array:
            spec.rates_at(0, np.array(rows))
        assert str(array.value) == str(scalar.value)


# -- array structure gates against their scalar oracles -------------------------

def _bumpy_table(seed):
    """Black-box 3-queue rates on {0..4}^3: decreasing in the other queues
    except for a few random bumps, so the first counterexample sits anywhere."""
    rng = np.random.default_rng(seed)
    X = np.stack(np.meshgrid(*[np.arange(5)] * 3, indexing="ij"), axis=-1)
    tables = []
    for i in range(3):
        t = 1.0 / (1.0 + X.sum(axis=-1) - X[..., i])
        for k in rng.integers(0, t.size, size=4):
            t.flat[k] += 0.3
        tables.append(t)
    return AllocationSpec(3, lambda i, x, _t=tables: float(_t[i][x]), bound=2.0)


def _three_queue_non_monotone():
    a_pair = {(i, j): 2.0 for i in range(3) for j in range(3) if i != j}
    a_pair[(2, 1)] = 3.5  # queue 3 serves faster with queue 2 busy
    return three_queue_table((3.0, 3.0, 3.0), a_pair, strict=False)


GATE_SPECS = {
    **RATES_AT_SPECS,
    "busy-table-2q": lambda: busy_table_allocation(
        [{frozenset(): 2.0, frozenset({1}): 1.0}, {frozenset(): 1.5, frozenset({0}): 0.5}]),
    "three-queue-non-monotone": _three_queue_non_monotone,
    "product-exp-slow": lambda: base_station_pair(0.05),
    "oscillating": lambda: AllocationSpec(
        2, lambda i, x: (1.5 if x[1] % 2 == 0 else 0.5) if i == 0 else 1.0, bound=2.0),
    "increasing": lambda: AllocationSpec(
        2, lambda i, x: min(1.0 + x[1], 5.0) if i == 0 else 1.0, bound=5.0),
}


def _gate_outcome(check, spec, **kw):
    try:
        r = check(spec, **kw)
    except NoUniformLimit as exc:
        return ("no uniform limit", str(exc), exc.report.worst_residual.hex())
    residual = None if r.worst_residual is None else r.worst_residual.hex()
    return (r.probe_box, r.partially_decreasing, r.pd_counterexample,
            r.uniform_limits, residual, r.guaranteed_by_shape)


@pytest.mark.parametrize("black_box", [False, True], ids=["builder", "black-box"])
@pytest.mark.parametrize("name", sorted(GATE_SPECS))
def test_array_gates_match_scalar_oracles(name, black_box):
    spec = GATE_SPECS[name]()
    # {0..63}^3 state by state takes seconds: the scalar walk of a 3-queue
    # spec that passes the check, and the row-by-row array check of a 3-queue
    # black box, are compared on the small boxes only
    slow_walk = spec.n_queues >= 3 and (
        black_box or check_partially_decreasing(spec).partially_decreasing)
    boxes = (1, 3, 6) if slow_walk else (None, 1, 3, 6)
    if black_box:
        spec = strip_analytic(spec)
    for box in boxes:
        assert _gate_outcome(check_partially_decreasing, spec, box=box) == \
            _gate_outcome(check_partially_decreasing_scalar, spec, box=box)
    for kw in ({}, {"tol": 1e-3, "prefix_cap": 2}, {"schedule": (4, 9, 30)}):
        assert _gate_outcome(check_uniform_limits, spec, **kw) == \
            _gate_outcome(check_uniform_limits_scalar, spec, **kw)


@pytest.mark.parametrize("seed", range(6))
def test_pd_counterexample_order_matches_scalar_walk(seed):
    spec = _bumpy_table(seed)
    array_twin = AllocationSpec(3, spec.rate_fn, spec.bound, _array_fn=lambda i, X: np.array(
        [spec.rate_fn(i, tuple(row)) for row in X.tolist()]))
    want = check_partially_decreasing_scalar(spec, box=4)
    assert want.partially_decreasing is False
    for s in (spec, array_twin):
        got = check_partially_decreasing(s, box=4)
        assert (got.partially_decreasing, got.pd_counterexample) == \
            (False, want.pd_counterexample)


def test_gates_raise_the_scalar_bound_violation():
    def one_bad_state(bad):
        return AllocationSpec(
            2, lambda i, x: 9.0 if (i, x) == bad else 1.0 / (1.0 + x[1 - i]), bound=1.0)

    for check, oracle, bad in (
        (check_partially_decreasing, check_partially_decreasing_scalar, (1, (2, 3))),
        (check_uniform_limits, check_uniform_limits_scalar, (0, (3, 128))),
    ):
        spec = one_bad_state(bad)
        with pytest.raises(BoundViolation) as scalar:
            oracle(spec)
        with pytest.raises(BoundViolation) as array:
            check(spec)
        assert str(array.value) == str(scalar.value)
        assert f"rate_fn({bad[0]}, {bad[1]})" in str(array.value)


def test_pd_check_raises_for_a_bound_violation_after_a_counterexample():
    # queue 0 serves faster as queue 1 grows, so the walk's first
    # counterexample is at the origin; two states further on are out of bound
    def rate(i, x):
        if (i, x) in ((1, (0, 5)), (0, (4, 4))):
            return 9.0
        return 0.5 + 0.01 * x[1] if i == 0 else 0.5

    spec = AllocationSpec(2, rate, bound=1.0)
    want = check_partially_decreasing_scalar(spec, box=6)
    assert (want.partially_decreasing, want.pd_counterexample) == \
        (False, ((0, 0), (0, 1), 0))
    # the array check evaluates the whole box first: the bad rates raise, and
    # the message names queue 0's bad state although queue 1's comes first
    with pytest.raises(BoundViolation, match=r"rate_fn\(0, \(4, 4\)\) = 9\.0"):
        check_partially_decreasing(spec, box=6)


def test_fresh_three_queue_structure_is_fast_and_uncached(deadline):
    spec = make_three_queue()
    assert "_memo" not in {f.name for f in dataclasses.fields(AllocationSpec)}
    assert not hasattr(spec, "_memo")
    with deadline(2.0):
        pd_ok, ul_ok, report = StabilityEngine(spec).structure()
    assert pd_ok and ul_ok and report.probe_box == (63, 63, 63)


def test_factor_table_evaluates_far_entries_one_by_one():
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 / (1.0 + x)

    table = _FactorTable(f)
    assert np.array_equal(table.at(np.array([3, 0])), [0.25, 1.0])
    assert table.values.size == 64 and len(calls) == 64
    # saturation levels far past the table: one call per distinct entry, no fill
    col = np.array([5, 4096, 4097, 8192, 4096])
    assert np.array_equal(_bits(table.at(col)), _bits(1.0 / (1.0 + col)))
    assert table.values.size == 64 and len(calls) == 64 + 4
    # a lockstep walk one past the end doubles the table, as before
    table.at(np.array([64]))
    assert table.values.size == 128 and len(calls) == 128 + 4


def test_poly_uniform_limit_check_does_not_fill_factor_tables(deadline):
    spec = base_station_pair(0.7, "poly_interference")
    with deadline(0.5):
        assert check_uniform_limits(spec).uniform_limits
    gain_tabs, inter_tabs = spec._array_fn.__defaults__
    sizes = [t.values.size for t in gain_tabs] + \
        [t.values.size for tabs in inter_tabs for _, t in tabs]
    assert max(sizes) <= 128
