"""Truncated generators and stationary solves for multiclass birth-death chains.

State spaces are boxes ``{0..T_1} x ... x {0..T_n}``; births are suppressed on
the upper face (reflecting truncation), which keeps the generator conservative
and biases mass inward where the boundary-mass certificate can see it.
A generator keeps its death rates as an array; its canonical CSR matrix is
assembled from them on first use and cached.

Stationary distributions come from ``solve_stationary``.  A 1-D chain (every
saturated prefix of one queue) is reversible, so its law follows exactly from
detailed balance, computed in log space from the top of the box; a chain of
two or more dimensions gets a sparse LU solve grounded at one state.  Each
result must pass the same residual check, and a failure falls through to the
grounded LU solve and then to a uniformized power iteration that polishes the
best candidate.  A 1-D chain's residual comes from a three-term recurrence on
its death array, so a detailed-balance law that passes never assembles the
matrix; only the LU solves and the polish read it.  ``adaptive_stationary``
doubles the box until the tail is certified; the engine builds every saturated
prefix law through it.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .allocation import _state_grid, as_rates
from .errors import (
    BoundViolation,
    BoxTooLarge,
    NoConvergence,
    SolveFailure,
)

STATE_CAP = 50_000_000
SWEEP_BUDGET = 1_000_000
DEFAULT_TAIL_TOL = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_START_BOX = 32

DeathFn = Callable[[int, tuple], float]


class LimitTable:
    """Per-state values ``fn(key, u)`` over the cube ``{0..T}^dim``, one array
    per key, for the largest ``T`` asked for so far.

    A value at ``u`` must not depend on the box it is asked for in, so every
    smaller box is a slice of the stored array and growing the cube evaluates
    only the states it adds.  Memory is bounded by the largest box asked for.
    """

    def __init__(self, fn: DeathFn, dim: int):
        self.fn = fn
        self.dim = dim
        self.arrays = {}

    def values(self, key, box: tuple) -> np.ndarray:
        """``fn(key, u)`` at every state ``u`` of ``box``, in state order."""
        arr = self.arrays.get(key)
        side = max(box, default=0)
        if arr is None or (self.dim and arr.shape[0] <= side):
            arr = self._grow(key, arr, side)
            self.arrays[key] = arr
        return np.ravel(arr[tuple(slice(t + 1) for t in box)])

    def _grow(self, key, old: Optional[np.ndarray], side: int) -> np.ndarray:
        shape = (side + 1,) * self.dim
        coords = _state_grid(shape)
        fresh = np.ones((len(coords), 1), dtype=bool)
        if old is not None:
            fresh[:, 0] = (coords >= old.shape[0]).any(axis=1)
        arr = _tabulate(self.fn, (key,), coords, fresh).reshape(shape)
        if old is not None:
            arr[tuple(slice(n) for n in old.shape)] = old
        return arr


@dataclass(frozen=True)
class TabulatedDeaths:
    """Death rates read from a :class:`LimitTable`: coordinate ``i`` of the
    chain dies at ``table.values(keys[i], box)`` wherever ``x_i > 0``."""

    table: LimitTable
    keys: tuple


Deaths = Union[DeathFn, TabulatedDeaths]


@dataclass(eq=False)
class TruncatedGenerator:
    """Conservative rate matrix of a truncated multiclass birth-death chain.

    The chain is held as its birth rates and death array; ``matrix``, the
    canonical CSR generator, is assembled from them on first access and then
    cached, so a solve that never reads it never pays for it.
    """

    dim: int
    box: tuple
    birth_rates: tuple
    death_bound: float
    uniformization_constant: float
    death_values: np.ndarray      # (n_states, dim), zero where x_i = 0
    boundary_mask: np.ndarray     # bool, any coordinate at its cap

    @property
    def n_states(self) -> int:
        return self.death_values.shape[0]

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        return _assemble_csr(self.box, self.birth_rates, self.death_values)


def _box_tuple(box, dim) -> tuple:
    if isinstance(box, int):
        box = (box,) * dim
    box = tuple(int(t) for t in box)
    if len(box) != dim or any(t < 1 for t in box):
        raise ValueError(f"box {box} invalid for dimension {dim}")
    return box


def _tabulate(fn: DeathFn, keys, coords: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The one per-state loop: ``fn(keys[c], x)`` at every state ``x`` (a row
    of ``coords``) and column ``c`` where ``mask`` holds, state by state;
    zero elsewhere."""
    out = np.zeros(mask.shape)
    states = coords.tolist()
    rows, cols = np.nonzero(mask)
    out[rows, cols] = [float(fn(keys[c], tuple(states[s])))
                       for s, c in zip(rows.tolist(), cols.tolist())]
    return out


def _death_array(deaths: Deaths, coords: np.ndarray, busy: np.ndarray,
                 box: tuple) -> np.ndarray:
    """(count, dim) death rates, zero where ``busy`` (``x_i > 0``) fails,
    from either form of the death-rate parameter."""
    if isinstance(deaths, TabulatedDeaths):
        values = np.stack([deaths.table.values(k, box) for k in deaths.keys], axis=1)
        return np.where(busy, values, 0.0)
    return _tabulate(deaths, range(len(box)), coords, busy)


def _out_rate(rates, up: np.ndarray, death_values: np.ndarray) -> np.ndarray:
    """Each state's exit rate: its births, then its deaths, summed in
    coordinate order; that order fixes the rounding of the diagonal."""
    out = np.zeros(death_values.shape[0])
    for i in range(len(rates)):
        out += np.where(up[:, i], rates[i], 0.0)
    for i in range(len(rates)):
        out += death_values[:, i]
    return out


def _assemble_csr(box: tuple, rates, death_values: np.ndarray) -> sp.csr_matrix:
    """Canonical CSR of the generator, written row by row in column order.

    Strides strictly decrease along the coordinates (every side has at least
    two states), so each row's columns ascend as deaths along coordinate
    ``0, 1, ..., dim-1``, the diagonal, then births along ``dim-1, ..., 0``.
    Births sit below the upper face, deaths wherever the rate is positive.
    The index dtype is the one scipy picks: int32 while it holds every index
    and the entry count, int64 beyond.
    """
    count, dim = death_values.shape
    shape = tuple(t + 1 for t in box)
    up = _state_grid(shape) < np.asarray(box)
    down = death_values > 0.0
    out_rate = _out_rate(rates, up, death_values)
    strides = [math.prod(shape[i + 1:]) for i in range(dim)]
    nnz = count + int(np.count_nonzero(up)) + int(np.count_nonzero(down))
    idx_dtype = np.int32 if max(nnz, count) <= np.iinfo(np.int32).max else np.int64
    kinds = [(down[:, i], -strides[i], death_values[:, i]) for i in range(dim)]
    kinds.append((True, 0, -out_rate))
    kinds += [(up[:, i], strides[i], rates[i]) for i in reversed(range(dim))]

    # one column per entry kind; row-major compression keeps the row order
    idx = np.arange(count)
    present = np.empty((count, len(kinds)), dtype=bool)
    columns = np.empty((count, len(kinds)), dtype=idx_dtype)
    values = np.empty((count, len(kinds)))
    per_row = np.zeros(count, dtype=idx_dtype)
    for k, (mask, offset, vals) in enumerate(kinds):
        present[:, k] = mask
        columns[:, k] = idx + offset
        values[:, k] = vals
        per_row += mask
    indptr = np.zeros(count + 1, dtype=idx_dtype)
    np.cumsum(per_row, out=indptr[1:])
    return sp.csr_matrix((values[present], columns[present], indptr),
                         shape=(count, count))


def build_truncated_generator(
    rates,
    death_rate_fn: Deaths,
    box,
    *,
    death_bound: float,
    state_cap: int = STATE_CAP,
) -> TruncatedGenerator:
    """Generator over ``{0..T}^n`` with births suppressed on the upper face.

    ``death_rate_fn`` is either a callback ``(i, x) -> rate`` or a
    :class:`TabulatedDeaths`.  It is consulted only where ``x_i > 0`` and must
    stay within ``[0, death_bound]``.
    """
    rates = as_rates(rates)
    dim = len(rates)
    box = _box_tuple(box, dim)
    shape = tuple(t + 1 for t in box)
    count = math.prod(shape)
    if count > state_cap:
        raise BoxTooLarge(f"box {box} has {count} states, above cap {state_cap}")

    coords = _state_grid(shape)
    busy = coords > 0
    death_values = _death_array(death_rate_fn, coords, busy, box)
    slack = death_bound * 1e-12 + 1e-12
    ok = np.isfinite(death_values) & (death_values >= 0.0)
    ok &= death_values <= death_bound + slack
    bad = np.flatnonzero(busy & ~ok)
    if bad.size:
        s, i = divmod(int(bad[0]), dim)
        x = tuple(coords[s].tolist())
        raise BoundViolation(
            f"death rate {float(death_values[s, i])!r} at (i={i}, x={x}) "
            f"outside [0, {death_bound}]"
        )

    boundary_mask = (coords == np.asarray(box)).any(axis=1)
    uniformization = sum(rates) + dim * death_bound
    return TruncatedGenerator(
        dim=dim,
        box=box,
        birth_rates=tuple(rates),
        death_bound=death_bound,
        uniformization_constant=uniformization,
        death_values=death_values,
        boundary_mask=boundary_mask,
    )


@dataclass(eq=False)
class StationaryDistribution:
    """Probability mass over a truncated box with solve diagnostics."""

    masses: np.ndarray
    box: tuple
    residual: float
    boundary_mass: float

    def __post_init__(self):
        total = float(self.masses.sum())
        if abs(total - 1.0) > 1e-12:
            raise SolveFailure(f"mass sums to {total}, not 1")
        if float(self.masses.min(initial=0.0)) < 0.0:
            raise SolveFailure("negative probability mass")

    def grid(self) -> np.ndarray:
        return self.masses.reshape(tuple(t + 1 for t in self.box))

    def states(self):
        return itertools.product(*(range(t + 1) for t in self.box))

    def expect(self, fn: Callable[[tuple], float]) -> float:
        return float(sum(fn(x) * m for x, m in zip(self.states(), self.masses.tolist())))


@dataclass
class BoxTrial:
    box: tuple
    n_states: int
    residual: float
    boundary_mass: float
    functionals: tuple


@dataclass
class SolveReport:
    history: list = field(default_factory=list)
    certified: bool = False

    @property
    def boxes_tried(self):
        return [t.box for t in self.history]


def _direct_solve(matrix: sp.csr_matrix, ground: int) -> np.ndarray:
    """Solve pi Q = 0 grounded at one state: fix its mass to 1, solve the
    remaining balance equations, renormalize afterwards.

    Grounding preserves sparsity for the LU solve (no dense normalization
    row); it is well conditioned when the ground state carries substantial
    stationary mass, so callers ground at the origin for stable chains and
    retry at the box corner when mass has drifted outward.
    """
    count = matrix.shape[0]
    coo = matrix.tocoo()
    # transposed entries: row <- col, col <- row
    r, c, d = coo.col, coo.row, coo.data
    keep = (r != ground) & (c != ground)
    rows = r[keep] - (r[keep] > ground)
    cols = c[keep] - (c[keep] > ground)
    a = sp.coo_matrix((d[keep], (rows, cols)), shape=(count - 1, count - 1)).tocsc()
    rhs = np.zeros(count - 1)
    gmask = (r != ground) & (c == ground)
    np.add.at(rhs, r[gmask] - (r[gmask] > ground), -d[gmask])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        x = np.atleast_1d(spla.spsolve(a, rhs))
    return np.concatenate([x[:ground], [1.0], x[ground:]])


def _power_polish(matrix: sp.csr_matrix, pi: np.ndarray, lam: float,
                  tol: float, budget: int) -> tuple:
    """Uniformized power iteration pi <- pi (I + Q/Lambda), vector form."""
    qt = matrix.T.tocsr()
    check_every = 64
    sweeps = 0
    residual = float(np.abs(qt @ pi).max())
    while residual > tol and sweeps < budget:
        for _ in range(check_every):
            pi = pi + (qt @ pi) / lam
        pi = np.maximum(pi, 0.0)
        pi /= pi.sum()
        sweeps += check_every
        residual = float(np.abs(qt @ pi).max())
    return pi, residual, sweeps


def _flux_1d(gen: TruncatedGenerator, pi: np.ndarray) -> np.ndarray:
    """``pi Q`` of a 1-D chain from its death array, bit for bit what
    ``gen.matrix.T @ pi`` returns: scipy's CSC matvec adds the entries of
    column ``i`` of ``Q`` in row order, so ``y[i]`` is the birth from
    ``i-1``, then the diagonal, then the death from ``i+1``."""
    lam, mu = gen.birth_rates[0], gen.death_values[:, 0]
    up = np.ones((len(pi), 1), dtype=bool)
    up[-1] = False
    out = _out_rate(gen.birth_rates, up, gen.death_values)
    y = np.zeros(len(pi))
    y[1:] = lam * pi[:-1]
    y += (-out) * pi
    y[:-1] += mu[1:] * pi[1:]
    return y


def _residual(gen: TruncatedGenerator, pi: np.ndarray) -> float:
    """``max |pi Q|``; a 1-D chain never needs its matrix for it."""
    flux = _flux_1d(gen, pi) if gen.dim == 1 else gen.matrix.T @ pi
    return float(np.abs(flux).max())


def _detailed_balance_1d(gen: TruncatedGenerator) -> np.ndarray:
    """Unnormalized law of a 1-D chain from detailed balance
    ``w[k] lam = w[k+1] mu[k+1]``, run down from the top of the box in log
    space: ``log w[k] = sum_{j>k} log(mu[j] / lam)``.

    Scaling by the largest term keeps a top-heavy (unstable) chain finite,
    and a zero death rate leaves exact zero mass below it.  A zero birth
    rate gives a non-finite result, which the caller's check rejects.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        steps = np.log(gen.death_values[1:, 0] / gen.birth_rates[0])
        log_w = np.zeros(gen.n_states)
        log_w[:-1] = np.cumsum(steps[::-1])[::-1]
        return np.exp(log_w - log_w.max())


def _direct_candidates(gen: TruncatedGenerator):
    """Unnormalized solutions in the order ``solve_stationary`` tries them:
    detailed balance for a 1-D chain, then the LU solve grounded at the
    origin (where a stable chain keeps its mass), then at the box corner
    (where the load has pushed it).  Each is computed only when asked for."""
    if gen.dim == 1:
        yield _detailed_balance_1d(gen)
    for ground in (0, gen.n_states - 1):
        with np.errstate(over="ignore", invalid="ignore"):
            raw = _direct_solve(gen.matrix, ground)
        yield raw


def solve_stationary(gen: TruncatedGenerator,
                     tol: float = DEFAULT_RESIDUAL_TOL) -> StationaryDistribution:
    """Stationary distribution of the truncated chain, residual-checked.

    With strictly positive birth rates the whole box is reachable from the
    origin and the chain has a unique absorbing communicating class, so the
    solve is well posed; states outside that class receive mass zero
    automatically.

    Candidates are tried in order until one, normalized, has residual
    ``max |pi Q|`` at most ``tol``: detailed balance when ``gen.dim == 1``;
    the LU solve grounded at the origin; the LU solve grounded at the box
    corner.  If none passes, the best candidate is polished by uniformized
    power iteration, and :class:`SolveFailure` is raised when that does not
    reach ``tol`` either.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    count = gen.n_states

    def normalize(vec):
        vec = np.maximum(vec, 0.0)
        total = vec.sum()
        if not math.isfinite(total) or total <= 0:
            return None, math.inf
        vec = vec / total
        return vec, _residual(gen, vec)

    pi, residual = None, math.inf
    for raw in _direct_candidates(gen):
        cand, cand_res = normalize(raw)
        if cand is not None and cand_res < residual:
            pi, residual = cand, cand_res
        if residual <= tol:
            break
    if pi is None:
        pi = np.full(count, 1.0 / count)

    if residual > tol:
        pi, residual, _ = _power_polish(
            gen.matrix, pi, gen.uniformization_constant, tol, SWEEP_BUDGET
        )
        if residual > tol:
            raise SolveFailure(
                f"residual {residual:.3e} still above {tol:.3e} after polish"
            )
    boundary = float(pi[gen.boundary_mask].sum())
    return StationaryDistribution(pi, gen.box, residual, boundary)


def _functionals(gen: TruncatedGenerator, dist: StationaryDistribution) -> tuple:
    return tuple(float(dist.masses @ gen.death_values[:, i]) for i in range(gen.dim))


def adaptive_stationary(
    rates,
    death_rate_fn: Deaths,
    *,
    death_bound: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    start_box: int = DEFAULT_START_BOX,
    state_cap: int = STATE_CAP,
) -> tuple:
    """Escalate the truncation box (doubling) until the tail is certified.

    Certification requires boundary mass below ``tail_tol`` and the bounded
    test functionals (the expected death rates) to move by less than
    ``tail_tol`` between consecutive boxes.  Hitting the state cap with
    boundary mass still large raises :class:`NoConvergence` -- the expected
    signal for an unstable chain, mapped by callers to a zero average rate.
    """
    if tail_tol <= 0 or residual_tol <= 0:
        raise ValueError("tolerances must be positive")
    rates = as_rates(rates)
    n = len(rates)
    if n == 0:
        dist = StationaryDistribution(np.ones(1), (), 0.0, 0.0)
        report = SolveReport(history=[BoxTrial((), 1, 0.0, 0.0, ())], certified=True)
        return dist, report

    report = SolveReport(history=[], certified=False)
    prev = None
    dist = None
    t = start_box
    while True:
        count = (t + 1) ** n
        if count > state_cap:
            raise NoConvergence(
                f"state cap {state_cap} reached at box {t} with boundary mass "
                f"{dist.boundary_mass if dist is not None else 'n/a'}",
                distribution=dist,
                report=report,
            )
        gen = build_truncated_generator(
            rates, death_rate_fn, (t,) * n,
            death_bound=death_bound, state_cap=state_cap,
        )
        dist = solve_stationary(gen, tol=residual_tol)
        funcs = _functionals(gen, dist)
        report.history.append(
            BoxTrial(gen.box, count, dist.residual, dist.boundary_mass, funcs)
        )
        if (
            prev is not None
            and dist.boundary_mass < tail_tol
            and max(abs(a - b) for a, b in zip(funcs, prev)) < tail_tol
        ):
            report.certified = True
            return dist, report
        if (2 * t + 1) ** n > state_cap:
            if dist.boundary_mass >= tail_tol:
                raise NoConvergence(
                    f"state cap {state_cap} reached at box {t} with boundary mass "
                    f"{dist.boundary_mass:.3e} >= {tail_tol:.1e}",
                    distribution=dist,
                    report=report,
                )
            return dist, report  # flagged: boundary small but functionals unsettled
        prev = funcs
        t *= 2
