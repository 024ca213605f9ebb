"""Truncated generators and stationary solves for multiclass birth-death chains.

State spaces are boxes ``{0..T_1} x ... x {0..T_n}``; births are suppressed on
the upper face (reflecting truncation), which keeps the generator conservative
and biases mass inward where the boundary-mass certificate can see it.
Death rates come from the caller as a function of the box: ``deaths(box)``
returns every coordinate's rate at every state of ``box``, and this module
caches none of them.  A generator keeps its death rates as an array; its
canonical CSR matrix is assembled from them on first use and cached.

Stationary distributions come from ``solve_stationary``, which has two
candidates.  A 1-D chain (every saturated prefix of one queue) is reversible,
so its law follows first from detailed balance, computed in log space from the
top of the box.  Every other chain, and a 1-D chain whose detailed-balance law
misses the residual check, gets a sparse LU solve grounded at the origin.  A
law that misses the check on both raises :class:`NoConvergence`, which the
engine reads as an untrustworthy stage.  A 1-D chain's residual comes from a
three-term recurrence on its death array, so a detailed-balance law that
passes never assembles the matrix; only the LU solve reads it.
``adaptive_stationary`` doubles the box until the tail is certified; the
engine builds every saturated prefix law through it.

scipy is imported on first use, in ``_assemble_csr`` and ``_direct_solve``
alone: only the LU solve loads it, so importing this module, and every 1-D
prefix solve that detailed balance settles, does not.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .allocation import _check_integer, _check_real, _state_grid, as_rates
from .errors import BoundViolation, BoxTooLarge, NoConvergence

if TYPE_CHECKING:
    import scipy.sparse as sp

STATE_CAP = 50_000_000
DEFAULT_TAIL_TOL = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_START_BOX = 32


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
    death_values: np.ndarray      # (n_states, dim), zero where x_i = 0
    boundary_mask: np.ndarray     # bool, any coordinate at its cap

    @property
    def n_states(self) -> int:
        return self.death_values.shape[0]

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        return _assemble_csr(self.box, self.birth_rates, self.death_values)


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
    import scipy.sparse as sp

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
    deaths: Callable[[tuple], np.ndarray],
    box,
    *,
    death_bound: float,
    state_cap: int = STATE_CAP,
) -> TruncatedGenerator:
    """Generator over ``{0..T}^n`` with births suppressed on the upper face.

    ``deaths(box)`` returns the ``(n_states, n)`` death rates at every state
    of ``box``, in state order, with column ``i`` for coordinate ``i``.  They
    are used only where ``x_i > 0`` and must stay within ``[0, death_bound]``
    there; the first one outside raises :class:`BoundViolation` naming its
    ``(i, x)``.  ``box`` is one side for all coordinates or one for each;
    ``ValueError`` rejects a side or ``state_cap`` not an integer >= 1 and a
    ``death_bound`` not a finite real above 0, and a bool as any of them.
    """
    _check_real("death_bound", death_bound)
    _check_integer("state_cap", state_cap)
    rates = as_rates(rates)
    dim = len(rates)
    box = (box,) * dim if np.ndim(box) == 0 else tuple(box)
    for t in box:
        _check_integer("box", t)
    if len(box) != dim:
        raise ValueError(f"box {box} invalid for dimension {dim}")
    box = tuple(int(t) for t in box)
    shape = tuple(t + 1 for t in box)
    count = math.prod(shape)
    if count > state_cap:
        raise BoxTooLarge(f"box {box} has {count} states, above cap {state_cap}")

    coords = _state_grid(shape)
    busy = coords > 0
    death_values = np.where(busy, deaths(box), 0.0)
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
    return TruncatedGenerator(
        dim=dim,
        box=box,
        birth_rates=tuple(rates),
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
            raise ValueError(f"mass sums to {total}, not 1")
        if float(self.masses.min(initial=0.0)) < 0.0:
            raise ValueError("negative probability mass")

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
    stationary mass.  ``solve_stationary`` grounds at the origin; the tests
    compare a 1-D law with both the origin and the box corner.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

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


def solve_stationary(gen: TruncatedGenerator,
                     tol: float = DEFAULT_RESIDUAL_TOL) -> StationaryDistribution:
    """Stationary distribution of the truncated chain, residual-checked.

    With strictly positive birth rates the whole box is reachable from the
    origin and the chain has a unique absorbing communicating class, so the
    solve is well posed; states outside that class receive mass zero
    automatically.

    Two candidates are tried in order until one, normalized, has residual
    ``max |pi Q|`` at most ``tol``: detailed balance when ``gen.dim == 1``,
    then the LU solve grounded at the origin.  If neither does,
    :class:`NoConvergence` is raised naming the box and the smallest
    residual reached.
    """
    _check_real("tol", tol)

    def origin_lu(g):
        with np.errstate(over="ignore", invalid="ignore"):
            return _direct_solve(g.matrix, 0)

    best = math.inf
    for candidate in (_detailed_balance_1d, origin_lu) if gen.dim == 1 else (origin_lu,):
        pi = np.maximum(candidate(gen), 0.0)
        total = pi.sum()
        if not (math.isfinite(total) and total > 0):
            continue
        pi = pi / total
        residual = _residual(gen, pi)
        if residual <= tol:
            boundary = float(pi[gen.boundary_mask].sum())
            return StationaryDistribution(pi, gen.box, residual, boundary)
        best = min(best, residual)
    raise NoConvergence(
        f"stationary solve on box {gen.box} missed residual tol {tol:.1e}: "
        f"best residual {best:.3e}"
    )


def saturated_average(masses: np.ndarray, values: np.ndarray) -> float:
    """``sum(masses * values)`` in one fixed order.

    A BLAS dot splits long vectors across threads, so its last bits depend
    on the thread count; ``einsum`` adds in the same order whatever the
    thread count.
    """
    return float(np.einsum("i,i->", masses, values))


def _functionals(gen: TruncatedGenerator, dist: StationaryDistribution) -> tuple:
    return tuple(saturated_average(dist.masses, gen.death_values[:, i])
                 for i in range(gen.dim))


def adaptive_stationary(
    rates,
    deaths: Callable[[tuple], np.ndarray],
    *,
    death_bound: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    start_box: int = DEFAULT_START_BOX,
    state_cap: int = STATE_CAP,
) -> tuple:
    """Escalate the truncation box (doubling) until the tail is certified.

    Each box tried reads ``deaths`` as :func:`build_truncated_generator`
    does.  Certification requires boundary mass below ``tail_tol`` and the
    bounded test functionals (the expected death rates) to move by less than
    ``tail_tol`` between consecutive boxes.  Hitting the state cap with
    boundary mass still large raises :class:`NoConvergence` -- the expected
    signal for an unstable chain, mapped by callers to a zero average rate --
    and so does a box whose :func:`solve_stationary` misses
    ``residual_tol``.  The tolerances must be finite and above 0, and
    ``start_box`` and ``state_cap`` integers of at least 1.
    """
    _check_real("tail_tol", tail_tol)
    _check_real("residual_tol", residual_tol)
    _check_integer("start_box", start_box)
    _check_integer("state_cap", state_cap)
    rates = as_rates(rates)
    n = len(rates)
    if n == 0:
        dist = StationaryDistribution(np.ones(1), (), 0.0, 0.0)
        report = SolveReport(history=[BoxTrial((), 1, 0.0, 0.0, ())], certified=True)
        return dist, report

    report = SolveReport(history=[], certified=False)
    prev = None
    t = start_box
    # past the first box, a box is tried only if it fits the cap
    if (t + 1) ** n > state_cap:
        raise NoConvergence(f"state cap {state_cap} reached at box {t} with boundary mass n/a",
                            report=report)
    while True:
        count = (t + 1) ** n
        gen = build_truncated_generator(
            rates, deaths, (t,) * n,
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
