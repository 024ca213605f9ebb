"""Truncated generators and stationary solves for multiclass birth-death chains.

State spaces are boxes ``{0..T_1} x ... x {0..T_n}``; births are suppressed on
the upper face (reflecting truncation), which keeps the generator conservative
and biases mass inward where the boundary-mass certificate can see it.
Death rates come from the caller as a function of the box: ``deaths(box)``
returns every coordinate's rate at every state of ``box``, and this module
caches none of them.  A generator is its birth rates and its death array;
no matrix is cached.

Stationary distributions come from ``solve_stationary``, which has two
candidates.  A 1-D chain (every saturated prefix of one queue) is reversible,
so its law follows first from detailed balance, computed in log space from the
top of the box.  Every other chain, and a 1-D chain whose detailed-balance law
misses the residual check, gets a sparse LU solve grounded at the origin,
whose system ``_direct_solve`` assembles from the rates.  A law that misses
the check on both raises :class:`NoConvergence`, which the engine reads as an
untrustworthy stage.  The residual ``max |pi Q|`` is read from the birth rates
and the death array in every dimension, without a matrix.
``adaptive_stationary`` doubles the box until the tail is certified; the
engine builds every saturated prefix law through it.

scipy is imported on first use, in ``_direct_solve`` alone: only the LU solve
loads it, so importing this module, every residual and every 1-D prefix solve
that detailed balance settles do not.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .allocation import _check_integer, _check_real, _state_grid, as_rates
from .errors import BoundViolation, BoxTooLarge, NoConvergence

STATE_CAP = 50_000_000
DEFAULT_TAIL_TOL = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_START_BOX = 32


@dataclass(eq=False)
class TruncatedGenerator:
    """Conservative rate matrix of a truncated multiclass birth-death chain,
    held as its birth rates and death array.  Each state's exit rate, the
    diagonal's negative, is derived from them once, on the state grid."""

    dim: int
    box: tuple
    birth_rates: tuple
    death_values: np.ndarray      # (n_states, dim), zero where x_i = 0
    boundary_mask: np.ndarray     # bool, any coordinate at its cap
    _exit: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # births, then deaths, summed in coordinate order: that order fixes
        # the rounding of the diagonal
        shape = tuple(t + 1 for t in self.box)
        out = np.zeros(shape)
        for k, lam in enumerate(self.birth_rates):
            out.swapaxes(0, k)[:-1] += lam       # below the upper face
        deaths = self.death_values.reshape(shape + (self.dim,))
        for k in range(self.dim):
            out += deaths[..., k]
        self._exit = out

    @property
    def n_states(self) -> int:
        return self.death_values.shape[0]


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

    death_values = np.array(deaths(box), dtype=float)
    boundary_mask = np.zeros(shape, dtype=bool)
    for k in range(dim):  # deaths unused where x_k = 0; the upper face x_k = T_k
        death_values.reshape(shape + (dim,)).swapaxes(0, k)[0, ..., k] = 0.0
        boundary_mask.swapaxes(0, k)[-1] = True
    slack = death_bound * 1e-12 + 1e-12
    if not (np.minimum.reduce(death_values, axis=None) >= 0.0
            and np.maximum.reduce(death_values, axis=None) <= death_bound + slack):
        ok = (death_values >= 0.0) & (death_values <= death_bound + slack)
        s, i = divmod(int(np.argmin(ok)), dim)
        x = tuple(int(c) for c in np.unravel_index(s, shape))
        raise BoundViolation(
            f"death rate {float(death_values[s, i])!r} at (i={i}, x={x}) "
            f"outside [0, {death_bound}]"
        )

    return TruncatedGenerator(
        dim=dim,
        box=box,
        birth_rates=tuple(rates),
        death_values=death_values,
        boundary_mask=boundary_mask.reshape(count),
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


def _direct_solve(gen: TruncatedGenerator) -> np.ndarray:
    """Solve pi Q = 0 grounded at the origin: fix its mass to 1, solve the
    remaining balance equations, renormalize afterwards.

    The system is ``Q`` transposed without the origin's row and column,
    assembled here as one COO: births where ``x_k < T_k``, deaths where the
    rate is positive, the diagonal ``-out`` everywhere.  The origin's births
    give the right-hand side, ``rhs[s_k - 1] = -lam_k``.  Grounding preserves
    sparsity for the LU solve (no dense normalization row); it is well
    conditioned when the origin carries substantial stationary mass.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    count, dim = gen.death_values.shape
    shape = gen._exit.shape
    strides = [math.prod(shape[k + 1:]) for k in range(dim)]
    up = _state_grid(shape) < np.asarray(gen.box)
    down = gen.death_values > 0.0
    down[strides, range(dim)] = False   # the deaths into the origin
    # (mask, step, rate) of each kind of entry, by source state; grouped in
    # column order within a row, so the CSC below comes out sorted
    kinds = [(down[:, k], -strides[k], gen.death_values[:, k]) for k in range(dim)]
    kinds.append((np.ones(count, bool), 0, -gen._exit.ravel()))
    kinds += [(up[:, k], strides[k], np.full(count, gen.birth_rates[k]))
              for k in reversed(range(dim))]
    rows, cols, data = [], [], []
    for mask, step, rate in kinds:
        src = np.flatnonzero(mask[1:]) + 1      # the origin's row goes
        rows.append(src + (step - 1))
        cols.append(src - 1)
        data.append(rate[src])
    a = sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(count - 1, count - 1)).tocsc()
    rhs = np.zeros(count - 1)
    rhs[np.subtract(strides, 1)] -= gen.birth_rates
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        x = np.atleast_1d(spla.spsolve(a, rhs))
    return np.concatenate([[1.0], x])


def _flux(gen: TruncatedGenerator, pi: np.ndarray) -> np.ndarray:
    """``pi Q`` from the birth rates and the death array, in any dimension.

    Bit for bit what scipy's CSC matvec ``Q.T @ pi`` returns: it adds the
    entries of column ``i`` of ``Q`` in row order, so ``y[i]`` takes the
    births from ``i - s_0, ..., i - s_{d-1}``, then the diagonal, then the
    deaths from ``i + s_{d-1}, ..., i + s_0``.
    """
    p = pi.reshape(gen._exit.shape)
    deaths = gen.death_values.reshape(p.shape + (gen.dim,))
    y = np.zeros(p.shape)
    for k, lam in enumerate(gen.birth_rates):
        y.swapaxes(0, k)[1:] += lam * p.swapaxes(0, k)[:-1]
    y -= gen._exit * p
    for k in reversed(range(gen.dim)):
        yk, pk, dk = y.swapaxes(0, k), p.swapaxes(0, k), deaths[..., k].swapaxes(0, k)
        yk[:-1] += dk[1:] * pk[1:]
    return y.ravel()


def _residual(gen: TruncatedGenerator, pi: np.ndarray) -> float:
    """``max |pi Q|``, read from the birth rates and the death array."""
    return float(np.abs(_flux(gen, pi)).max())


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
            return _direct_solve(g)

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
                    report=report,
                )
            return dist, report  # flagged: boundary small but functionals unsettled
        prev = funcs
        t *= 2
