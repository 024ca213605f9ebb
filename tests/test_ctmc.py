"""Solver module: truncated generators, stationary solves, saturated averages."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from coupledq import ctmc
from coupledq.allocation import (
    AllocationSpec,
    SaturationContext,
    base_station_pair,
    build_product_allocation,
    constant_allocation,
    exp_interference,
    log_gain,
    lower_partial_limit,
    three_queue_table,
)
from coupledq.ctmc import (
    DEFAULT_RESIDUAL_TOL,
    LimitTable,
    TabulatedDeaths,
    adaptive_stationary,
    build_truncated_generator,
    saturated_average_rate,
    solve_stationary,
    stationary_1d_closed_form,
)
from coupledq.errors import BoundViolation, BoxTooLarge, DivergentSeries, NoConvergence


def make_three_queue(a23=2.0):
    a_pair = {(i, j): 2.0 for i in range(3) for j in range(3) if i != j}
    a_pair[(1, 2)] = a23
    return three_queue_table((3.0, 3.0, 3.0), a_pair)


def geometric(rho, size):
    pmf = (1 - rho) * rho ** np.arange(size)
    return pmf / pmf.sum()


# -- generator construction -----------------------------------------------------

def test_mm1_generator_rows():
    gen = build_truncated_generator((0.5,), lambda i, x: 1.0, (2,), death_bound=1.0)
    expected = np.array([
        [-0.5, 0.5, 0.0],
        [1.0, -1.5, 0.5],
        [0.0, 1.0, -1.0],
    ])
    assert np.allclose(gen.matrix.toarray(), expected)
    assert gen.uniformization_constant == pytest.approx(1.5)


def test_two_queue_generator_conservative():
    gen = build_truncated_generator(
        (0.3, 0.4), lambda i, x: (1.0, 2.0)[i], (1, 1), death_bound=2.0
    )
    assert gen.n_states == 4
    rowsums = np.asarray(gen.matrix.sum(axis=1)).ravel()
    assert np.abs(rowsums).max() < 1e-13


def test_only_unit_steps_carry_rate():
    gen = build_truncated_generator(
        (0.3, 0.4), lambda i, x: 1.0, (3, 3), death_bound=1.0
    )
    coo = gen.matrix.tocoo()
    shape = gen.shape_box
    for r, c in zip(coo.row, coo.col):
        if r == c:
            continue
        xr = np.unravel_index(r, shape)
        xc = np.unravel_index(c, shape)
        diff = [b - a for a, b in zip(xr, xc)]
        assert sorted(map(abs, diff)) == [0, 1]


def test_saturated_pair_generator_uses_case_table():
    spec = make_three_queue()
    ctx = SaturationContext((0, 1, 2), 2)

    def death(k, u):
        return lower_partial_limit(spec, ctx, k, u)

    gen = build_truncated_generator((0.5, 1.2), death, (40, 40), death_bound=spec.bound)
    grid = gen.death_values.reshape(41, 41, 2)
    # queue 1 death: pairwise rate only while queue 2 is empty (queue 3 busy)
    assert grid[3, 0, 0] == 2.0
    assert grid[3, 5, 0] == 1.0
    assert grid[0, 5, 1] == 2.0
    assert grid[4, 5, 1] == 1.0


def test_box_cap():
    with pytest.raises(BoxTooLarge):
        build_truncated_generator(
            (0.5, 0.5), lambda i, x: 1.0, (10_000, 10_000), death_bound=1.0
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


def _both_paths(rates, fn, box, table, bound):
    """(callback-path result or error, table-path result or error)."""
    out = []
    for deaths in (fn, TabulatedDeaths(table, tuple(range(len(rates))))):
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
    ctx = SaturationContext((0, 1, 2), dim, limit_tol=1e-12)

    def death(k, u):
        return lower_partial_limit(spec, ctx, k, u)

    def death_nan_at_empty(k, u):
        # never consulted where u_k = 0: a table holds it, the generator ignores it
        return math.nan if u[k] == 0 else death(k, u)

    table = LimitTable(death_nan_at_empty, dim)
    for box in boxes:  # grows the table, then reads a slice of it
        ref, got = _both_paths(rates, death, box, table, spec.bound)
        assert ref.box == got.box == box
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(ref.matrix, attr), getattr(got.matrix, attr))
        assert np.array_equal(ref.death_values, got.death_values)
        assert np.array_equal(ref.boundary_mask, got.boundary_mask)
        assert ref.uniformization_constant == got.uniformization_constant
    assert set(table.arrays) == set(range(dim))
    assert all(a.shape == (max(b[0] for b in boxes) + 1,) * dim
               for a in table.arrays.values())

    # out-of-range rates: both paths name the same first offending (i, x)
    first = (1,) * dim
    for bad_value in (-0.25, math.nan, spec.bound * 1.5):
        def bad(k, u, _v=bad_value):
            return _v if k == dim - 1 and u in (first, (2,) * dim) else death(k, u)

        ref, got = _both_paths(rates, bad, boxes[0], LimitTable(bad, dim), spec.bound)
        assert isinstance(ref, str) and ref == got
        assert f"at (i={dim - 1}, x={first})" in ref


def _coo_reference_matrix(gen):
    """The generator assembled the way the solver once did, through COO
    triplets and scipy's ``tocsr``; the oracle for the direct CSR assembly."""
    box, dim, rates = gen.box, gen.dim, gen.birth_rates
    shape = gen.shape_box
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


@pytest.mark.parametrize("box", [(1,), (7,), (300,), (1, 1), (6, 4), (1, 5),
                                 (3, 3, 3), (2, 5, 3), (1, 1, 1)])
def test_direct_csr_matches_coo_oracle_bit_for_bit(box):
    def death(i, x):
        # zero deaths inside the box (no entry) next to positive ones
        if (3 * sum(x) + 5 * i) % 4 == 3:
            return 0.0
        return 1.0 + ((7 * x[i] + i) % 5) / 5.0

    rates = (0.4, 0.7, 0.25)[:len(box)]
    gen = build_truncated_generator(rates, death, box, death_bound=2.0)
    busy = np.stack(np.unravel_index(np.arange(gen.n_states), gen.shape_box), axis=1) > 0
    assert (busy & (gen.death_values == 0.0)).any()
    ref = _coo_reference_matrix(gen)
    assert type(gen.matrix) is type(ref)
    assert gen.matrix.shape == ref.shape
    for attr in ("indptr", "indices", "data"):
        got, want = getattr(gen.matrix, attr), getattr(ref, attr)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# -- stationary solves -------------------------------------------------------------

def test_mm1_stationary_matches_geometric():
    gen = build_truncated_generator((0.5,), lambda i, x: 1.0, (60,), death_bound=1.0)
    dist = solve_stationary(gen, tol=1e-10)
    assert dist.prob((0,)) == pytest.approx(0.5, abs=1e-9)
    assert dist.residual <= 1e-10
    ref = geometric(0.5, 61)
    assert np.abs(dist.masses - ref).sum() < 1e-9


def test_normalization_contract():
    gen = build_truncated_generator(
        (0.4, 0.8), lambda i, x: 1.0 + (x[1 - i] == 0), (20, 20), death_bound=2.0
    )
    dist = solve_stationary(gen)
    assert dist.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert dist.masses.min() >= 0.0


def test_detailed_balance_on_1d_solves():
    for lam, death in (
        (0.5, lambda x: 1.0),
        (0.9, lambda x: 1.0),
        (0.7, lambda x: 1.0 + 1.0 / (1.0 + x[0] if isinstance(x, tuple) else x)),
    ):
        death_fn = (lambda i, x, _d=death: _d(x[0])) if True else None
        gen = build_truncated_generator((lam,), lambda i, x, _d=death: _d(x[0] if isinstance(x, tuple) else x), (200,), death_bound=2.0)
        dist = solve_stationary(gen, tol=1e-10)
        m = dist.masses
        for x in range(200):
            d_next = gen.death_values[x + 1, 0]
            assert abs(m[x + 1] * d_next - m[x] * lam) < 1e-10


def test_product_form_2d():
    gen = build_truncated_generator(
        (0.5, 0.5), lambda i, x: 1.0, (40, 40), death_bound=1.0
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
        lam, lambda i, x: mus[i], (32, 32, 32), death_bound=2.0
    )
    dist = solve_stationary(gen, tol=1e-10)
    gs = [geometric(lam[i] / mus[i], 33) for i in range(3)]
    ref = np.einsum("i,j,k->ijk", *gs)
    tv = 0.5 * np.abs(dist.grid() - ref).sum()
    assert tv < 1e-8


def test_power_backend_agrees():
    gen = build_truncated_generator((0.5,), lambda i, x: 1.0, (40,), death_bound=1.0)
    direct = solve_stationary(gen, tol=1e-10, method="direct")
    power = solve_stationary(gen, tol=1e-10, method="power")
    assert np.abs(direct.masses - power.masses).max() < 1e-8


_INTERIOR_ZEROS = {5, 17, 18}


def _base_station_deaths():
    # queue 0's saturated limit with queue 1 saturated, tabulated as the
    # engine tabulates it
    spec = base_station_pair(2.0)
    ctx = SaturationContext((0, 1), 1)
    table = LimitTable(lambda k, u: lower_partial_limit(spec, ctx, k, u), 1)
    return TabulatedDeaths(table, (0,)), spec.bound


ONE_D_CASES = {
    # name: (lam, deaths, box, death bound); deaths None = the base station's
    "mm1-rho-0.5": (0.5, lambda i, x: 1.0, 200, 1.0),
    "mm1-rho-0.999": (0.999, lambda i, x: 1.0, 16384, 1.0),
    "base-station-prefix": (0.5, None, 65536, None),
    "top-heavy": (1.5, lambda i, x: 1.0, 4096, 1.0),
    "interior-zero-deaths": (
        0.7, lambda i, x: 0.0 if x[0] in _INTERIOR_ZEROS else 1.0 + 1.0 / x[0], 64, 2.0),
    "underflowing-products": (1e-3, lambda i, x: 1.0, 1024, 1.0),
    "underflowing-ratio": (10.0, lambda i, x: 5e-324 if x[0] == 7 else 20.0, 64, 20.0),
}


def _grounded_lu(gen, ground):
    """The LU route the 1-D solve replaced: normalized solution and residual."""
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.maximum(ctmc._direct_solve(gen.matrix, ground), 0.0)
    total = raw.sum()
    if not (math.isfinite(total) and total > 0):
        return None, math.inf
    vec = raw / total
    return vec, float(np.abs(gen.matrix.T @ vec).max())


@pytest.mark.parametrize("name", list(ONE_D_CASES))
def test_detailed_balance_1d_matches_grounded_lu(name, monkeypatch):
    lam, deaths, box, bound = ONE_D_CASES[name]
    if deaths is None:
        deaths, bound = _base_station_deaths()
    gen = build_truncated_generator((lam,), deaths, (box,), death_bound=bound)
    tol = DEFAULT_RESIDUAL_TOL

    def no_lu(matrix, ground):
        raise AssertionError("the 1-D solve fell back to the LU route")

    with monkeypatch.context() as m:
        m.setattr(ctmc, "_direct_solve", no_lu)
        dist = solve_stationary(gen, tol=tol)
    assert dist.residual <= tol

    x = np.arange(gen.n_states)
    tests = np.stack([gen.death_values[:, 0], 1.0 / (1.0 + x)], axis=1)
    compared = 0
    for ground in (0, gen.n_states - 1):
        ref, residual = _grounded_lu(gen, ground)
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
    gen = build_truncated_generator((0.6,), lambda i, x: 1.0, (100,), death_bound=1.0)
    count = gen.n_states
    if bad == "zero-birth":
        # the detailed-balance route reads this rate; the LU route, the matrix
        dist = solve_stationary(dataclasses.replace(gen, birth_rates=(0.0,)))
    else:
        fake = np.full(count, math.nan) if bad == "nan" else np.ones(count)
        monkeypatch.setattr(ctmc, "_detailed_balance_1d", lambda g: fake)
        dist = solve_stationary(gen)
    ref, residual = _grounded_lu(gen, 0)
    assert np.array_equal(dist.masses, ref)
    assert dist.residual == residual <= DEFAULT_RESIDUAL_TOL


# -- adaptive escalation ---------------------------------------------------------

def test_adaptive_certifies_heavier_load_with_larger_box():
    dist5, rep5 = adaptive_stationary(
        (0.5,), lambda i, x: 1.0, death_bound=1.0
    )
    dist9, rep9 = adaptive_stationary(
        (0.9,), lambda i, x: 1.0, death_bound=1.0
    )
    assert rep5.certified and rep9.certified
    assert dist9.prob((0,)) == pytest.approx(0.1, abs=1e-8)
    assert rep9.history[-1].box[0] > rep5.history[-1].box[0]


def test_adaptive_unstable_raises_no_convergence():
    # positive drift: mass accumulates at the moving boundary, never certifies
    with pytest.raises(NoConvergence):
        adaptive_stationary(
            (1.2,), lambda i, x: 1.0, death_bound=1.0, state_cap=1 << 14
        )


def test_adaptive_empty_prefix_convention():
    dist, rep = adaptive_stationary((), lambda i, x: 1.0, death_bound=1.0)
    assert rep.certified
    assert dist.masses.tolist() == [1.0]
    assert dist.prob(()) == 1.0


# -- saturated average rates -------------------------------------------------------

def test_constant_rates_average_is_exact():
    spec = constant_allocation((0.7, 1.3))
    for lam in (0.1, 0.4, 0.65):
        val = saturated_average_rate(spec, (lam, 0.3), (0, 1), 1, 1)
        assert val == pytest.approx(1.3, abs=1e-12)


def test_three_queue_stage2_closed_form():
    # average service for queue 2 with queue 3 saturated: lam1 + a23 (1 - lam1)
    for lam1, a23 in ((0.5, 2.0), (0.3, 1.5)):
        spec = make_three_queue(a23=a23)
        val = saturated_average_rate(spec, (lam1, 1.0, 0.3), (0, 1, 2), 1, 1)
        assert val == pytest.approx(lam1 + a23 * (1 - lam1), abs=1e-6)


def test_unstable_prefix_maps_to_zero():
    spec = constant_allocation((1.0, 1.0))
    val = saturated_average_rate(
        spec, (1.5, 0.3), (0, 1), 1, 1, state_cap=1 << 14
    )
    assert val == 0.0


def test_stage0_is_saturated_limit():
    spec = make_three_queue()
    assert saturated_average_rate(spec, (0.5, 0.5, 0.5), (0, 1, 2), 0, 0) == 1.0


# -- closed-form series -------------------------------------------------------------

def test_closed_form_geometric():
    dist = stationary_1d_closed_form(0.5, lambda x: 1.0)
    assert dist.prob((0,)) == pytest.approx(0.5, abs=1e-12)
    assert dist.prob((3,)) == pytest.approx(0.5 ** 4, abs=1e-12)


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
        (lam,), lambda i, x: death(x[0]), (max(80, oracle.box[0]),), death_bound=0.5
    )
    dist = solve_stationary(gen, tol=1e-12)
    size = min(len(oracle.masses), len(dist.masses))
    tv = 0.5 * np.abs(oracle.masses[:size] - dist.masses[:size]).sum()
    assert tv < 1e-10


def test_base_station_average_vs_series_oracle():
    spec_alloc = __import__("coupledq.allocation", fromlist=["base_station_pair"])
    spec = spec_alloc.base_station_pair(2.0)
    lam1 = 0.3
    engine_val = saturated_average_rate(spec, (lam1, 0.5), (0, 1), 1, 1)
    g, _ = log_gain(3.0)
    h, _ = exp_interference(2.0)
    oracle_dist = stationary_1d_closed_form(lam1, lambda x: g(x) / 6.0)
    oracle = 3.0 * sum(
        h(x) * oracle_dist.prob((x,)) for x in range(oracle_dist.box[0] + 1)
    )
    assert engine_val == pytest.approx(oracle, abs=1e-6)


# -- comparison properties -----------------------------------------------------------

def test_monotone_rate_perturbation_converges():
    # saturated average under death rates raised by eps decreases to the
    # unperturbed value as eps -> 0
    spec = make_three_queue()
    ctx = SaturationContext((0, 1, 2), 1)
    lam1 = 0.5

    def avg_with_eps(eps):
        def death(k, u):
            return lower_partial_limit(spec, ctx, k, u) + eps

        dist, _ = adaptive_stationary((lam1,), death, death_bound=spec.bound + eps)
        return dist.expect(lambda u: lower_partial_limit(spec, ctx, 1, u))

    base = avg_with_eps(0.0)
    vals = [avg_with_eps(eps) for eps in (0.1, 0.01, 0.001)]
    assert vals[0] >= vals[1] >= vals[2] >= base - 1e-10
    assert vals[2] == pytest.approx(base, abs=1e-2)
    assert abs(vals[2] - base) < abs(vals[0] - base)


def test_pointwise_larger_death_rates_give_smaller_tails():
    lam = (0.6, 0.6)
    gen_lo = build_truncated_generator(
        lam, lambda i, x: 1.0, (30, 30), death_bound=2.0
    )
    gen_hi = build_truncated_generator(
        lam, lambda i, x: 1.0 + 0.5 / (1.0 + x[1 - i]), (30, 30), death_bound=2.0
    )
    d_lo = solve_stationary(gen_lo)
    d_hi = solve_stationary(gen_hi)
    for i in range(2):
        tail_lo = np.cumsum(d_lo.marginal(i)[::-1])[::-1]
        tail_hi = np.cumsum(d_hi.marginal(i)[::-1])[::-1]
        assert (tail_hi <= tail_lo + 1e-9).all()


def test_dump_csv_format(tmp_path):
    gen = build_truncated_generator((0.5,), lambda i, x: 1.0, (3,), death_bound=1.0)
    dist = solve_stationary(gen)
    out = tmp_path / "dist.csv"
    with open(out, "w") as f:
        dist.dump_csv(f)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# residual=")
    assert "boundary_mass=" in lines[0]
    assert lines[1] == "x_0,probability"
    assert len(lines) == 2 + 4
