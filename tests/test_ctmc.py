"""Solver module: truncated generators, stationary solves, saturated averages."""

import dataclasses
import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from coupledq import ctmc
from coupledq.allocation import (
    AllocationSpec,
    ArrivalRates,
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
from coupledq.ctmc import (
    DEFAULT_RESIDUAL_TOL,
    StationaryDistribution,
    adaptive_stationary,
    build_truncated_generator,
    solve_stationary,
)
from coupledq.engine import StabilityEngine, Tolerances
from coupledq.errors import BoundViolation, BoxTooLarge, NoConvergence
from coupledq.simulate import empirical_stability_probe, simulate_coupled_pair, simulate_path
from oracles import (
    DivergentSeries,
    array_deaths,
    coo_reference_matrix,
    grounded_lu,
    grounded_system,
    limit_at,
    lower_partial_limit_scalar,
    marginal,
    prob,
    stationary_1d_closed_form,
    tabulated,
)


def make_three_queue(a23=2.0):
    a_pair = {(i, j): 2.0 for i in range(3) for j in range(3) if i != j}
    a_pair[(1, 2)] = a23
    return three_queue_table((3.0, 3.0, 3.0), a_pair)


def engine_average(spec, rates, sigma, n, i, **tol):
    """The engine's average of queue ``sigma[i]``'s saturated limit under the
    law of the saturated prefix ``sigma[:n]``."""
    engine = StabilityEngine(spec, Tolerances(**tol))
    return engine._L(ArrivalRates(rates), frozenset(sigma[:n]), sigma[i]).value


def geometric(rho, size):
    pmf = (1 - rho) * rho ** np.arange(size)
    return pmf / pmf.sum()


# -- generator construction -----------------------------------------------------

def test_mm1_generator_rows():
    gen = build_truncated_generator((0.5,), tabulated(lambda i, x: 1.0, 1), (2,),
                                    death_bound=1.0)
    expected = np.array([
        [-0.5, 0.5, 0.0],
        [1.0, -1.5, 0.5],
        [0.0, 1.0, -1.0],
    ])
    assert np.allclose(coo_reference_matrix(gen).toarray(), expected)


def test_two_queue_generator_conservative():
    gen = build_truncated_generator(
        (0.3, 0.4), tabulated(lambda i, x: (1.0, 2.0)[i], 2), (1, 1), death_bound=2.0
    )
    assert gen.n_states == 4
    rowsums = np.asarray(coo_reference_matrix(gen).sum(axis=1)).ravel()
    assert np.abs(rowsums).max() < 1e-13


def test_only_unit_steps_carry_rate():
    gen = build_truncated_generator(
        (0.3, 0.4), tabulated(lambda i, x: 1.0, 2), (3, 3), death_bound=1.0
    )
    coo = coo_reference_matrix(gen).tocoo()
    shape = tuple(t + 1 for t in gen.box)
    for r, c in zip(coo.row, coo.col):
        if r == c:
            continue
        xr = np.unravel_index(r, shape)
        xc = np.unravel_index(c, shape)
        diff = [b - a for a, b in zip(xr, xc)]
        assert sorted(map(abs, diff)) == [0, 1]


def test_saturated_pair_generator_uses_case_table():
    spec = make_three_queue()
    deaths = array_deaths(lambda k, U: lower_partial_limit(spec, (0, 1), k, U), (0, 1))
    gen = build_truncated_generator((0.5, 1.2), deaths, (40, 40), death_bound=spec.bound)
    grid = gen.death_values.reshape(41, 41, 2)
    # queue 1 death: pairwise rate only while queue 2 is empty (queue 3 busy)
    assert grid[3, 0, 0] == 2.0
    assert grid[3, 5, 0] == 1.0
    assert grid[0, 5, 1] == 2.0
    assert grid[4, 5, 1] == 1.0


def test_box_cap():
    with pytest.raises(BoxTooLarge):
        build_truncated_generator(
            (0.5, 0.5), tabulated(lambda i, x: 1.0, 2), (10_000, 10_000), death_bound=1.0
        )


def _oracle_specs():
    product = build_product_allocation(
        gains=[log_gain(3.0)] * 3,
        interference=[{1: exp_interference(2.0), 2: exp_interference(1.0)},
                      {0: exp_interference(2.0)},
                      {0: exp_interference(0.5), 1: exp_interference(2.0)}],
    )

    def black_box(i, x):
        return (1.0 + 0.5 * (i + 1) / (1.0 + x[i])) * math.prod(
            0.5 + 0.5 * math.exp(-3.0 * x[j]) for j in range(3) if j != i)

    return {
        "constant": constant_allocation((1.0, 0.7, 0.4)),
        "busy-table": make_three_queue(a23=1.5),
        "product": product,
        "black-box": AllocationSpec(3, black_box, bound=2.5),
    }


def _both_paths(rates, ref, eng, box, bound):
    """(state-by-state reference result or error, result or error from the
    engine's limit store, read as ``prefix_law`` reads it)."""
    prefix = frozenset(range(len(rates)))

    def stored(b):
        return np.stack([eng._limits(prefix, q, b) for q in sorted(prefix)], axis=1)

    out = []
    for deaths in (ref, stored):
        try:
            out.append(build_truncated_generator(rates, deaths, box, death_bound=bound))
        except BoundViolation as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("name", ["constant", "busy-table", "product", "black-box"])
@pytest.mark.parametrize("boxes", [[(24,), (48,), (24,)], [(5, 5), (9, 9), (5, 5)],
                                   [(3, 3, 3), (4, 4, 4), (3, 3, 3)]])
def test_tabulated_deaths_match_callback_oracle(name, boxes):
    spec = _oracle_specs()[name]
    dim = len(boxes[0])
    rates = (0.4, 0.3, 0.2)[:dim]
    prefix = frozenset(range(dim))
    eng = StabilityEngine(spec, Tolerances(limit_tol=1e-12))
    tol = eng.tol

    def death(k, u):
        return lower_partial_limit_scalar(spec, prefix, k, u, sat_level=tol.sat_level,
                                          growth=tol.growth, limit_tol=tol.limit_tol)

    real_ell = eng._ell
    asked = []  # the states of each limit call, by queue

    def nan_at_empty(p, q, U):
        # never consulted where u_q = 0: the store holds it, the generator ignores it
        assert p == prefix
        asked.append((q, U.shape[0]))
        return np.where(U[:, q] == 0, math.nan, real_ell(p, q, U))

    eng._ell = nan_at_empty
    side, stored = 0, 0  # the stored cube's side and state count
    for box in boxes:  # grows the store, then reads a slice of it
        grown = max(box) > side
        side = max(side, *box)
        before, added = len(asked), (side + 1) ** dim - stored
        stored += added
        ref, got = _both_paths(rates, tabulated(death, dim), eng, box, spec.bound)
        assert ref.box == got.box == box
        ref_q, got_q = coo_reference_matrix(ref), coo_reference_matrix(got)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(ref_q, attr), getattr(got_q, attr))
        assert np.array_equal(ref.death_values, got.death_values)
        assert np.array_equal(ref.boundary_mask, got.boundary_mask)
        # one call per queue and growth, at the states the growth adds
        assert asked[before:] == ([(q, added) for q in range(dim)] if grown else [])
        assert {k: a.shape for k, a in eng._limit_arrays.items()} == {
            (prefix, q): (side + 1,) * dim for q in range(dim)}

    # out-of-range rates: both paths name the same first offending (i, x)
    first = (1,) * dim
    for bad_value in (-0.25, math.nan, spec.bound * 1.5):
        def bad(k, u, _v=bad_value):
            return _v if k == dim - 1 and u in (first, (2,) * dim) else death(k, u)

        def bad_array(p, q, U, _v=bad_value):
            hit = (q == dim - 1) & ((U == 1).all(axis=1) | (U == 2).all(axis=1))
            return np.where(hit, _v, real_ell(p, q, U))

        bad_eng = StabilityEngine(spec, tol)
        bad_eng._ell = bad_array
        ref, got = _both_paths(rates, tabulated(bad, dim), bad_eng, boxes[0], spec.bound)
        assert isinstance(ref, str) and ref == got
        assert f"at (i={dim - 1}, x={first})" in ref


_ORACLE_BOXES = [(1,), (7,), (300,), (1, 1), (6, 4), (1, 5), (3, 3, 3), (2, 5, 3), (1, 1, 1)]


def _box_chain(box):
    """A chain on ``box`` whose zero deaths inside the box (no entry) sit
    next to positive ones."""
    def death(i, x):
        if (3 * sum(x) + 5 * i) % 4 == 3:
            return 0.0
        return 1.0 + ((7 * x[i] + i) % 5) / 5.0

    rates = (0.4, 0.7, 0.25)[:len(box)]
    gen = build_truncated_generator(rates, tabulated(death, len(box)), box, death_bound=2.0)
    shape = tuple(t + 1 for t in gen.box)
    busy = np.stack(np.unravel_index(np.arange(gen.n_states), shape), axis=1) > 0
    assert (busy & (gen.death_values == 0.0)).any()
    return gen


def _lu_inputs(gen, monkeypatch):
    """``_direct_solve(gen)`` and the ``(A, rhs)`` it hands to SuperLU."""
    seen = []
    real = spla.spsolve

    def spying(a, rhs):
        seen.append((a, rhs))
        return real(a, rhs)

    with monkeypatch.context() as m:
        m.setattr(spla, "spsolve", spying)
        with np.errstate(over="ignore", invalid="ignore"):
            x = ctmc._direct_solve(gen)
    (a, rhs), = seen
    return x, a, rhs


@pytest.mark.parametrize("box", _ORACLE_BOXES)
def test_direct_csr_matches_coo_oracle_bit_for_bit(box, monkeypatch):
    # the LU's grounded system, against the route through the oracle's CSR;
    # a zero birth rate keeps its entries, and its rhs entry reads +0.0
    gen = _box_chain(box)
    for chain in (gen, dataclasses.replace(gen, birth_rates=(0.0,) + gen.birth_rates[1:])):
        x, a, rhs = _lu_inputs(chain, monkeypatch)
        ref, ref_rhs = grounded_system(coo_reference_matrix(chain), 0)
        assert type(a) is type(ref)
        assert a.shape == ref.shape
        for attr in ("indptr", "indices", "data"):
            got, want = getattr(a, attr), getattr(ref, attr)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert rhs.dtype == ref_rhs.dtype
        assert np.array_equal(rhs, ref_rhs)
        assert np.array_equal(np.signbit(rhs), np.signbit(ref_rhs))
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            want_x = np.concatenate([[1.0], np.atleast_1d(spla.spsolve(ref, ref_rhs))])
        assert np.array_equal(x, want_x, equal_nan=True)


# -- stationary solves -------------------------------------------------------------

def test_mm1_stationary_matches_geometric():
    gen = build_truncated_generator((0.5,), tabulated(lambda i, x: 1.0, 1), (60,),
                                    death_bound=1.0)
    dist = solve_stationary(gen, tol=1e-10)
    assert prob(dist, (0,)) == pytest.approx(0.5, abs=1e-9)
    assert dist.residual <= 1e-10
    ref = geometric(0.5, 61)
    assert np.abs(dist.masses - ref).sum() < 1e-9


def test_normalization_contract():
    gen = build_truncated_generator(
        (0.4, 0.8), tabulated(lambda i, x: 1.0 + (x[1 - i] == 0), 2), (20, 20),
        death_bound=2.0
    )
    dist = solve_stationary(gen)
    assert dist.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert dist.masses.min() >= 0.0


def test_detailed_balance_on_1d_solves():
    for lam, death in (
        (0.5, lambda x: 1.0),
        (0.9, lambda x: 1.0),
        (0.7, lambda x: 1.0 + 1.0 / (1.0 + x[0])),
    ):
        gen = build_truncated_generator((lam,), tabulated(lambda i, x, _d=death: _d(x), 1),
                                        (200,), death_bound=2.0)
        dist = solve_stationary(gen, tol=1e-10)
        m = dist.masses
        for x in range(200):
            d_next = gen.death_values[x + 1, 0]
            assert abs(m[x + 1] * d_next - m[x] * lam) < 1e-10


def test_product_form_2d():
    gen = build_truncated_generator(
        (0.5, 0.5), tabulated(lambda i, x: 1.0, 2), (40, 40), death_bound=1.0
    )
    dist = solve_stationary(gen, tol=1e-10)
    g = geometric(0.5, 41)
    ref = np.outer(g, g)
    tv = 0.5 * np.abs(dist.grid() - ref).sum()
    assert tv < 1e-8


def test_product_form_3d():
    mus = (1.0, 1.25, 2.0)
    lam = (0.5, 0.5, 0.5)
    gen = build_truncated_generator(
        lam, tabulated(lambda i, x: mus[i], 3), (32, 32, 32), death_bound=2.0
    )
    dist = solve_stationary(gen, tol=1e-10)
    gs = [geometric(lam[i] / mus[i], 33) for i in range(3)]
    ref = np.einsum("i,j,k->ijk", *gs)
    tv = 0.5 * np.abs(dist.grid() - ref).sum()
    assert tv < 1e-8


_INTERIOR_ZEROS = {5, 17, 18}


def _base_station_deaths():
    # queue 0's saturated limit with queue 1 saturated, one array call per
    # box as the engine's store makes it
    spec = base_station_pair(2.0)
    return array_deaths(lambda k, U: lower_partial_limit(spec, (0,), k, U), (0,)), spec.bound


ONE_D_CASES = {
    # name: (lam, deaths, box, death bound); deaths None = the base station's
    "mm1-rho-0.5": (0.5, tabulated(lambda i, x: 1.0, 1), 200, 1.0),
    "mm1-rho-0.999": (0.999, tabulated(lambda i, x: 1.0, 1), 16384, 1.0),
    "base-station-prefix": (0.5, None, 65536, None),
    "top-heavy": (1.5, tabulated(lambda i, x: 1.0, 1), 4096, 1.0),
    "interior-zero-deaths": (
        0.7, tabulated(lambda i, x: 0.0 if x[0] in _INTERIOR_ZEROS else 1.0 + 1.0 / x[0], 1),
        64, 2.0),
    "underflowing-products": (1e-3, tabulated(lambda i, x: 1.0, 1), 1024, 1.0),
    "underflowing-ratio": (
        10.0, tabulated(lambda i, x: 5e-324 if x[0] == 7 else 20.0, 1), 64, 20.0),
}


@pytest.mark.parametrize("name", list(ONE_D_CASES))
def test_detailed_balance_1d_matches_grounded_lu(name, monkeypatch):
    lam, deaths, box, bound = ONE_D_CASES[name]
    if deaths is None:
        deaths, bound = _base_station_deaths()
    gen = build_truncated_generator((lam,), deaths, (box,), death_bound=bound)
    tol = DEFAULT_RESIDUAL_TOL

    def no_lu(g):
        raise AssertionError("the 1-D solve fell back to the LU route")

    with monkeypatch.context() as m:
        m.setattr(ctmc, "_direct_solve", no_lu)
        dist = solve_stationary(gen, tol=tol)
    assert dist.residual <= tol

    x = np.arange(gen.n_states)
    tests = np.stack([gen.death_values[:, 0], 1.0 / (1.0 + x)], axis=1)
    compared = 0
    for ground in (0, gen.n_states - 1):
        ref, residual = grounded_lu(gen, ground)
        if residual > tol:   # this ground is ill-conditioned for this chain
            continue
        compared += 1
        assert np.abs(dist.masses - ref).max() <= 1e-12
        assert np.abs(dist.masses @ tests - ref @ tests).max() <= 1e-12
    assert compared >= 1
    if name == "interior-zero-deaths":
        assert not dist.masses[:max(_INTERIOR_ZEROS)].any()


@pytest.mark.parametrize("bad", ["nan", "inaccurate", "zero-birth"])
def test_1d_solve_falls_back_to_grounded_lu(bad, monkeypatch):
    gen = build_truncated_generator((0.6,), tabulated(lambda i, x: 1.0, 1), (100,),
                                    death_bound=1.0)
    count = gen.n_states
    if bad == "zero-birth":
        # detailed balance divides by the birth rate: lam = 0 gives a
        # non-finite law; the LU system is built from the same zero rate
        gen = dataclasses.replace(gen, birth_rates=(0.0,))
        assert not np.isfinite(ctmc._detailed_balance_1d(gen)).all()
        dist = solve_stationary(gen)
    else:
        fake = np.full(count, math.nan) if bad == "nan" else np.ones(count)
        monkeypatch.setattr(ctmc, "_detailed_balance_1d", lambda g: fake)
        dist = solve_stationary(gen)
    ref, residual = grounded_lu(gen, 0)
    assert np.array_equal(dist.masses, ref)
    assert dist.residual == residual <= DEFAULT_RESIDUAL_TOL


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bad", ["nan", "inaccurate"])
def test_solve_raises_no_convergence_when_every_candidate_misses(dim, bad, monkeypatch):
    gen = build_truncated_generator((0.6,) * dim, tabulated(lambda i, x: 1.0, dim),
                                    (100,) if dim == 1 else (6, 6), death_bound=1.0)
    count = gen.n_states
    fake = np.full(count, math.nan) if bad == "nan" else np.ones(count)
    monkeypatch.setattr(ctmc, "_detailed_balance_1d", lambda g: fake)
    monkeypatch.setattr(ctmc, "_direct_solve", lambda g: fake)
    best = math.inf if bad == "nan" else ctmc._residual(gen, np.full(count, 1.0 / count))
    assert best > DEFAULT_RESIDUAL_TOL
    with pytest.raises(NoConvergence, match=rf"box {re.escape(str(gen.box))} .* "
                                            rf"best residual {best:.3e}$"):
        solve_stationary(gen)
    with pytest.raises(NoConvergence, match=f"best residual {best:.3e}$"):
        adaptive_stationary((0.6,) * dim, tabulated(lambda i, x: 1.0, dim), death_bound=1.0,
                            start_box=100 if dim == 1 else 6)


_MM1_DEATHS = tabulated(lambda i, x: 1.0, 1)


@pytest.mark.parametrize("entry, name, value", [
    ("solve", "tol", math.nan),
    ("solve", "tol", math.inf),
    ("solve", "tol", 0.0),
    ("solve", "tol", True),
    ("adaptive", "tail_tol", math.nan),
    ("adaptive", "tail_tol", -math.inf),
    ("adaptive", "residual_tol", math.nan),
    ("adaptive", "residual_tol", -1e-10),
    ("adaptive", "start_box", 0),
    ("adaptive", "start_box", 32.0),
    ("adaptive", "start_box", True),
    ("adaptive", "state_cap", math.nan),
    ("adaptive", "state_cap", math.inf),
    ("adaptive", "state_cap", 0),
    ("adaptive", "state_cap", True),
])
def test_entry_points_reject_bad_tolerances(entry, name, value, deadline):
    # a stable M/M/1 chain: an unchecked value returns a law, it cannot run away
    with deadline(30), pytest.raises(ValueError, match=f"^{name} must be"):
        if entry == "solve":
            gen = build_truncated_generator((0.5,), _MM1_DEATHS, (40,), death_bound=1.0)
            solve_stationary(gen, **{name: value})
        else:
            kw = {"state_cap": 1 << 12, name: value}
            adaptive_stationary((0.5,), _MM1_DEATHS, death_bound=1.0, **kw)


# rates that settle at no saturation level
_PARITY = AllocationSpec(2, lambda i, x: 1.0 + 0.5 * (x[1 - i] % 2), 1.5)


def _never_read(i, x):
    raise AssertionError(f"rate read at {x} before the arguments were checked")


_BLACK_BOX = AllocationSpec(1, _never_read, 2.0)
_ONE = constant_allocation((1.0,))
_HUGE = 10 ** 400  # does not fit a float: it raised OverflowError, or passed
_REAL_BAD = (math.nan, math.inf, -math.inf, 0.0, -1.0, True, "1", _HUGE)
_NONNEGATIVE_BAD = tuple(v for v in _REAL_BAD if v != 0.0)  # 0 is legal here
_COUNT_BAD = (math.nan, math.inf, -1, 2.5, True, "1")
# case -> (the argument's name in the message, the call, the bad values);
# tol=NaN passed _PARITY, box 2.5 built box 2, sat_level=2.5 read rates at
# levels 2.5 and 3.5, and queue=True read queue 1; an arrival rate, a
# horizon, gamma, alpha or a service rate of True was read as 1.0, and one
# of "1" too, or it raised TypeError
_BAD_ARGUMENTS = {
    "uniform-tol": ("tol", lambda v: check_uniform_limits(_PARITY, tol=v), _REAL_BAD),
    "pd-box": ("box", lambda v: check_partially_decreasing(_PARITY, box=v), _COUNT_BAD + (0,)),
    "build-box": ("box", lambda v: build_truncated_generator(
        (0.5,), _MM1_DEATHS, (v,), death_bound=1.0), _COUNT_BAD + (0,)),
    "build-state-cap": ("state_cap", lambda v: build_truncated_generator(
        (0.5,), _MM1_DEATHS, (4,), death_bound=1.0, state_cap=v), _COUNT_BAD + (0,)),
    "build-death-bound": ("death_bound", lambda v: build_truncated_generator(
        (0.5,), _MM1_DEATHS, (4,), death_bound=v), _REAL_BAD),
    "limit-sat-level": ("sat_level",
                        lambda v: lower_partial_limit(_BLACK_BOX, (), 0, [()], sat_level=v),
                        _COUNT_BAD + (0,)),
    "limit-growth": ("growth",
                     lambda v: lower_partial_limit(_BLACK_BOX, (), 0, [()], growth=v),
                     _REAL_BAD + (1.0,)),
    "limit-limit-tol": ("limit_tol",
                        lambda v: lower_partial_limit(_BLACK_BOX, (), 0, [()], limit_tol=v),
                        _REAL_BAD),
    # a queue out of range gets the range message; a bool is in range
    "limit-queue": ("queue", lambda v: lower_partial_limit(_PARITY, (0,), v, [[1]]),
                    (True, False)),
    "classify-rate": ("arrival rate",
                      lambda v: StabilityEngine(base_station_pair(2.0)).classify((v, 0.5)),
                      _REAL_BAD),
    "adaptive-rate": ("arrival rate", lambda v: adaptive_stationary(
        (v,), _MM1_DEATHS, death_bound=1.0), _REAL_BAD),
    "path-rate": ("arrival rate", lambda v: simulate_path((v,), _ONE, (0,), 10.0, 1),
                  _REAL_BAD),
    "path-horizon": ("horizon", lambda v: simulate_path((0.5,), _ONE, (0,), v, 1),
                     _NONNEGATIVE_BAD),
    "pair-horizon": ("horizon", lambda v: simulate_coupled_pair(
        (0.5,), _ONE, (0.5,), _ONE, (0,), (0,), 1, horizon=v), _NONNEGATIVE_BAD),
    "probe-horizon": ("horizon", lambda v: empirical_stability_probe(
        (0.5,), _ONE, (0,), [10.0, v], 2, 1), _REAL_BAD),
    "exp-gamma": ("gamma", exp_interference, _REAL_BAD),
    "poly-gamma": ("gamma", poly_interference, _REAL_BAD),
    "base-station-gamma": ("gamma", base_station_pair, _REAL_BAD),
    # 2.0 ** alpha overflowed: OverflowError, not ValueError
    "alpha": ("alpha", one_server_power_law, _NONNEGATIVE_BAD + (1024.0, 2000.0, 2000)),
    # cap=True built a gain capped at 1, and "3" raised TypeError
    "gain-cap": ("cap", log_gain, _REAL_BAD),
    "base-station-cap": ("cap", lambda v: base_station_pair(2.0, cap=v), _REAL_BAD),
    # a NaN limit was accepted, with bound 1.5
    "gain-limit": ("gain limit of queue 1", lambda v: build_product_allocation(
        gains=[log_gain(), (lambda x: 0.0, v)], interference=[{}, {}]), _NONNEGATIVE_BAD),
    "interference-limit": (r"interference limit \(0,1\)", lambda v: build_product_allocation(
        gains=[log_gain(), log_gain()], interference=[{1: (lambda t: 1.0, v)}, {}]),
        _NONNEGATIVE_BAD),
    # each of these keys was read as queue 1: [{1.5: ...}, {}] built with bound 3.0
    "interference-index": ("interference index", lambda v: build_product_allocation(
        gains=[log_gain(), log_gain()], interference=[{v: exp_interference(2.0)}, {}]),
        (True, 1.0, 1.5)),
    "constant-rate": ("service rate", lambda v: constant_allocation((1.0, v)),
                      _NONNEGATIVE_BAD),
    "table-rate": (r"table rate .+ of queue 0 for busy set set\(\)",
                   lambda v: busy_table_allocation([{frozenset(): v}]), _NONNEGATIVE_BAD),
}


@pytest.mark.parametrize("case, value", [
    (case, value) for case, (_, _, values) in _BAD_ARGUMENTS.items() for value in values
], ids=lambda v: "10**400" if v is _HUGE else None)
def test_library_arguments_reject_bad_values(case, value, deadline):
    name, call, _ = _BAD_ARGUMENTS[case]
    with deadline(30), pytest.raises(ValueError, match=f"^{name} must be"):
        call(value)


# each knob's entry point, and the name it gives the knob
_KNOB_ENTRIES = {
    "sat_level": ("sat_level", _BAD_ARGUMENTS["limit-sat-level"][1]),
    "growth": ("growth", _BAD_ARGUMENTS["limit-growth"][1]),
    "limit_tol": ("limit_tol", _BAD_ARGUMENTS["limit-limit-tol"][1]),
    "uniform_tol": ("tol", _BAD_ARGUMENTS["uniform-tol"][1]),
    "pd_box": ("box", _BAD_ARGUMENTS["pd-box"][1]),
    **{knob: (knob, lambda v, _k=knob: adaptive_stationary(
        (0.5,), _MM1_DEATHS, death_bound=1.0, **{"state_cap": 1 << 12, _k: v}))
       for knob in ("tail_tol", "residual_tol", "start_box", "state_cap")},
}


@pytest.mark.parametrize("knob", sorted(_KNOB_ENTRIES))
def test_entry_points_reject_what_tolerances_rejects(knob, deadline):
    name, call = _KNOB_ENTRIES[knob]
    rejected = 0
    for value in (math.nan, math.inf, -math.inf, -1, 0, 0.0, 1, 1.0, 2.5, True, False,
                  "1", "2.5", "nan", "x", None, [2], _HUGE):
        try:
            Tolerances(**{knob: value})
        except ValueError:
            rejected += 1
            with deadline(30), pytest.raises(ValueError, match=f"^{name} must be"):
                call(value)
        else:  # numbers only: the CLI, not Tolerances, reads --tol text
            assert not isinstance(value, (str, bool)), value
    assert rejected >= 10


def test_distribution_mass_must_sum_to_one():
    with pytest.raises(ValueError, match="mass sums to 0.9, not 1"):
        StationaryDistribution(np.array([0.5, 0.4]), (1,), 0.0, 0.4)


def test_distribution_mass_must_be_nonnegative():
    with pytest.raises(ValueError, match="negative probability mass"):
        StationaryDistribution(np.array([1.5, -0.5]), (1,), 0.0, -0.5)


def _random_1d_chain(rng):
    """A 1-D generator with random rates: sides from 1 up, interior zero
    and subnormal deaths mixed in."""
    side = int(rng.choice([1, 2, 3, int(rng.integers(4, 300))]))
    lam = float(rng.uniform(0.05, 3.0))
    deaths = rng.uniform(0.0, 2.0, side + 1)
    kinds = rng.random(side + 1)
    deaths[kinds < 0.1] = 0.0
    deaths[(kinds >= 0.1) & (kinds < 0.2)] = 5e-324
    table = deaths.tolist()
    return build_truncated_generator((lam,), tabulated(lambda i, x: table[x[0]], 1), (side,),
                                     death_bound=2.0)


def _probe_vectors(gen, rng):
    """Normalized vectors to apply ``Q`` to: the detailed-balance law of a
    1-D chain (where finite), a random law and a law peaked on one state."""
    count = gen.n_states
    raw = [ctmc._detailed_balance_1d(gen)] if gen.dim == 1 else []
    raw.append(rng.random(count))
    peaked = np.full(count, 1e-300)
    peaked[int(rng.integers(count))] = 1.0
    raw.append(peaked)
    for vec in raw:
        vec = np.maximum(vec, 0.0)
        total = vec.sum()
        if math.isfinite(total) and total > 0:
            yield vec / total


def test_flux_matches_csr_matvec_bit_for_bit():
    # the oracle's CSR matvec, in every dimension: random 1-D chains and
    # the chains of the grounded-system test
    rng = np.random.default_rng(20101)
    chains = [_random_1d_chain(rng) for _ in range(400)]
    chains += [_box_chain(box) for box in _ORACLE_BOXES]
    checked = 0
    for gen in chains:
        matrix = coo_reference_matrix(gen)
        for vec in _probe_vectors(gen, rng):
            want = matrix.T @ vec
            got = ctmc._flux(gen, vec)
            assert np.array_equal(got, want)
            assert (ctmc._residual(gen, vec).hex()
                    == float(np.abs(want).max()).hex())
            checked += 1
    assert checked > 1000


def _count_assemblies(monkeypatch):
    """The box of each ``_direct_solve`` call, the one assembly of a system."""
    calls = []
    real = ctmc._direct_solve

    def counting(gen):
        calls.append(gen.box)
        return real(gen)

    monkeypatch.setattr(ctmc, "_direct_solve", counting)
    return calls


def test_certified_1d_solve_never_assembles_the_lu_system(monkeypatch):
    calls = _count_assemblies(monkeypatch)
    gen = build_truncated_generator((0.5,), tabulated(lambda i, x: 1.0, 1), (40,),
                                    death_bound=1.0)
    assert gen.n_states == 41 and not calls
    _, report = adaptive_stationary((0.9,), tabulated(lambda i, x: 1.0, 1), death_bound=1.0)
    assert report.certified and len(report.history) > 1
    assert calls == []


def test_lu_and_2d_solves_assemble_once_per_box(monkeypatch):
    calls = _count_assemblies(monkeypatch)
    _, report = adaptive_stationary((0.5, 0.4), tabulated(lambda i, x: 1.0, 2), death_bound=1.0)
    assert report.certified
    assert calls == report.boxes_tried

    del calls[:]
    monkeypatch.setattr(ctmc, "_detailed_balance_1d",
                        lambda g: np.full(g.n_states, math.nan))
    _, report = adaptive_stationary((0.9,), tabulated(lambda i, x: 1.0, 1), death_bound=1.0)
    assert report.certified
    assert calls == report.boxes_tried


# -- adaptive escalation ---------------------------------------------------------

def test_adaptive_certifies_heavier_load_with_larger_box():
    dist5, rep5 = adaptive_stationary(
        (0.5,), tabulated(lambda i, x: 1.0, 1), death_bound=1.0
    )
    dist9, rep9 = adaptive_stationary(
        (0.9,), tabulated(lambda i, x: 1.0, 1), death_bound=1.0
    )
    assert rep5.certified and rep9.certified
    assert prob(dist9, (0,)) == pytest.approx(0.1, abs=1e-8)
    assert rep9.history[-1].box[0] > rep5.history[-1].box[0]


def test_adaptive_unstable_raises_no_convergence():
    # positive drift: mass accumulates at the moving boundary, never certifies
    with pytest.raises(NoConvergence) as caught:
        adaptive_stationary(
            (1.2,), tabulated(lambda i, x: 1.0, 1), death_bound=1.0, state_cap=1 << 14
        )
    # the cap hit carries its solve report, with every box tried
    report = caught.value.report
    assert not report.certified
    assert [trial.box for trial in report.history] == [(32 << k,) for k in range(9)]
    assert report.history[-1].boundary_mass >= 1e-8


def test_adaptive_empty_prefix_convention():
    dist, rep = adaptive_stationary((), tabulated(lambda i, x: 1.0, 0), death_bound=1.0)
    assert rep.certified
    assert dist.masses.tolist() == [1.0]
    assert prob(dist, ()) == 1.0


# -- saturated average rates -------------------------------------------------------

def test_constant_rates_average_is_exact():
    spec = constant_allocation((0.7, 1.3))
    for lam in (0.1, 0.4, 0.65):
        val = engine_average(spec, (lam, 0.3), (0, 1), 1, 1)
        assert val == pytest.approx(1.3, abs=1e-12)


def test_three_queue_stage2_closed_form():
    # average service for queue 2 with queue 3 saturated: lam1 + a23 (1 - lam1)
    for lam1, a23 in ((0.5, 2.0), (0.3, 1.5)):
        spec = make_three_queue(a23=a23)
        val = engine_average(spec, (lam1, 1.0, 0.3), (0, 1, 2), 1, 1)
        assert val == pytest.approx(lam1 + a23 * (1 - lam1), abs=1e-6)


def test_unstable_prefix_maps_to_zero():
    spec = constant_allocation((1.0, 1.0))
    val = engine_average(spec, (1.5, 0.3), (0, 1), 1, 1, state_cap=1 << 14)
    assert val == 0.0
    with pytest.raises(NoConvergence):
        StabilityEngine(spec, Tolerances(state_cap=1 << 14)).prefix_law((1.5, 0.3), {0})


def test_stage0_is_saturated_limit():
    spec = make_three_queue()
    assert engine_average(spec, (0.5, 0.5, 0.5), (0, 1, 2), 0, 0) == 1.0


# -- closed-form series -------------------------------------------------------------

def test_closed_form_geometric():
    dist = stationary_1d_closed_form(0.5, lambda x: 1.0)
    assert prob(dist, (0,)) == pytest.approx(0.5, abs=1e-12)
    assert prob(dist, (3,)) == pytest.approx(0.5 ** 4, abs=1e-12)


def test_closed_form_detailed_balance_exact():
    death = lambda x: (1.0 + 1.0 / x) ** 0.7
    dist = stationary_1d_closed_form(0.6, death)
    m = dist.masses
    for x in range(min(50, len(m) - 1)):
        assert m[x + 1] * death(x + 1) == pytest.approx(m[x] * 0.6, rel=1e-12)


def test_closed_form_divergent():
    with pytest.raises(DivergentSeries):
        stationary_1d_closed_form(1.2, lambda x: 1.0)


def test_closed_form_matches_solver_on_base_station_prefix():
    g, _ = log_gain(3.0)
    death = lambda x: g(x) / 6.0
    lam = 0.3
    oracle = stationary_1d_closed_form(lam, death)
    gen = build_truncated_generator(
        (lam,), tabulated(lambda i, x: death(x[0]), 1), (max(80, oracle.box[0]),),
        death_bound=0.5
    )
    dist = solve_stationary(gen, tol=1e-12)
    size = min(len(oracle.masses), len(dist.masses))
    tv = 0.5 * np.abs(oracle.masses[:size] - dist.masses[:size]).sum()
    assert tv < 1e-10


def test_base_station_average_vs_series_oracle():
    spec_alloc = __import__("coupledq.allocation", fromlist=["base_station_pair"])
    spec = spec_alloc.base_station_pair(2.0)
    lam1 = 0.3
    engine_val = engine_average(spec, (lam1, 0.5), (0, 1), 1, 1)
    g, _ = log_gain(3.0)
    h, _ = exp_interference(2.0)
    oracle_dist = stationary_1d_closed_form(lam1, lambda x: g(x) / 6.0)
    oracle = 3.0 * sum(
        h(x) * prob(oracle_dist, (x,)) for x in range(oracle_dist.box[0] + 1)
    )
    assert engine_val == pytest.approx(oracle, abs=1e-6)


# -- comparison properties -----------------------------------------------------------

def test_monotone_rate_perturbation_converges():
    # saturated average under death rates raised by eps decreases to the
    # unperturbed value as eps -> 0
    spec = make_three_queue()
    lam1 = 0.5

    def avg_with_eps(eps):
        def death(k, U):
            return lower_partial_limit(spec, (0,), k, U) + eps

        dist, _ = adaptive_stationary((lam1,), array_deaths(death, (0,)),
                                      death_bound=spec.bound + eps)
        return dist.expect(lambda u: limit_at(spec, (0,), 1, u))

    base = avg_with_eps(0.0)
    vals = [avg_with_eps(eps) for eps in (0.1, 0.01, 0.001)]
    assert vals[0] >= vals[1] >= vals[2] >= base - 1e-10
    assert vals[2] == pytest.approx(base, abs=1e-2)
    assert abs(vals[2] - base) < abs(vals[0] - base)


def test_pointwise_larger_death_rates_give_smaller_tails():
    lam = (0.6, 0.6)
    gen_lo = build_truncated_generator(
        lam, tabulated(lambda i, x: 1.0, 2), (30, 30), death_bound=2.0
    )
    gen_hi = build_truncated_generator(
        lam, tabulated(lambda i, x: 1.0 + 0.5 / (1.0 + x[1 - i]), 2), (30, 30),
        death_bound=2.0
    )
    d_lo = solve_stationary(gen_lo)
    d_hi = solve_stationary(gen_hi)
    for i in range(2):
        tail_lo = np.cumsum(marginal(d_lo, i)[::-1])[::-1]
        tail_hi = np.cumsum(marginal(d_hi, i)[::-1])[::-1]
        assert (tail_hi <= tail_lo + 1e-9).all()


# Saturated averages of a base-station round: the verdict records at three
# points and the functionals of every box of a 1-D prefix up to 65,537 states.
_THREADS_SCRIPT = """
import json
from coupledq.allocation import base_station_pair
from coupledq.engine import StabilityEngine

eng = StabilityEngine(base_station_pair(2.0))
out = [eng.classify(pt).to_record() for pt in [(0.5, 0.6), (0.45, 0.45), (1.3, 0.2)]]
dist, report = eng.prefix_law((0.4998, 0.6), frozenset({0}))
out.append([[t.n_states] + [f.hex() for f in t.functionals] for t in report.history])
print(json.dumps(out))
"""


def test_saturated_averages_do_not_depend_on_blas_threads():
    # a threaded BLAS dot splits a vector of 65,537 entries across threads
    src = str(pathlib.Path(ctmc.__file__).parents[1])
    outs = []
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert "[65537, " in outs[0]
    assert outs[0] == outs[1]

