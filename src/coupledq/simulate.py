"""Stochastic simulation of the queueing chain and of coupled pairs.

All paths are generated by uniformization: a single Poisson clock of rate
``Lambda = sum(lambda) + N * bound`` ticks, and each tick applies one
transition (or a self-loop) drawn from the current state's rates.  For a
coupled pair the same clock drives a joint categorical draw over the
order-preserving transition table, which keeps both marginals exact while
never letting the compared coordinates cross.

Randomness comes from counter-based Philox streams: one stream per replica,
derived deterministically from the base seed.  The stability probe advances
its replicas in lockstep, each on its own stream, and reproduces event for
event the paths ``simulate_path`` draws from the same streams.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .allocation import AllocationSpec, as_rates
from .errors import HypothesisViolated

HIST_CAP = 4096
_BATCH = 8192
_CHUNK = 256  # lockstep steps drawn and accounted at a time; divides _BATCH
_RATE_SLACK = 1e-12


def _stream(seed: int, replica: int = 0) -> np.random.Generator:
    bit = np.random.Philox(key=np.uint64(seed & (2 ** 64 - 1)))
    if replica:
        bit = bit.jumped(replica)
    return np.random.Generator(bit)


class _Draws:
    """Batched exponential gaps and uniforms from one stream."""

    def __init__(self, rng: np.random.Generator, scale: float):
        self.rng = rng
        self.scale = scale
        self._gaps = np.empty(0)
        self._unis = np.empty(0)
        self._i = 0

    def next(self) -> tuple:
        if self._i >= self._gaps.size:
            self._gaps = self.rng.exponential(scale=self.scale, size=_BATCH)
            self._unis = self.rng.random(_BATCH)
            self._i = 0
        g, u = self._gaps[self._i], self._unis[self._i]
        self._i += 1
        return float(g), float(u)


@dataclass
class PathSample:
    """One simulated trajectory with time-weighted occupancy accounting."""

    seed: int
    horizon: float
    event_count: int
    histograms: np.ndarray        # (n_queues, HIST_CAP + 1), time mass per level
    overflow: np.ndarray          # (n_queues,), time mass above HIST_CAP
    final_state: tuple
    time_average: tuple
    drift_slope: tuple            # X_i(horizon) / horizon
    samples: list = field(default_factory=list)       # (t, state) at sample_interval
    checkpoints: list = field(default_factory=list)   # (t, cum hist, cum overflow, state, cum area)

    def occupancy_distribution(self, i: int) -> np.ndarray:
        """Normalized time-occupancy histogram of queue i (overflow excluded)."""
        total = self.histograms[i].sum() + self.overflow[i]
        if total <= 0:
            out = np.zeros(HIST_CAP + 1)
            out[0] = 1.0
            return out
        return self.histograms[i] / total


def simulate_path(rates, spec: AllocationSpec, x0, horizon: float, seed: int,
                  *, sample_interval: Optional[float] = None,
                  checkpoint_times: Sequence[float] = (),
                  _rng: Optional[np.random.Generator] = None) -> PathSample:
    """Uniformized path of the queueing chain; reproducible for a fixed seed."""
    rates = as_rates(rates)
    n = spec.n_queues
    if len(rates) != n:
        raise ValueError("rate vector length mismatch")
    state = tuple(int(c) for c in x0)
    if len(state) != n or any(c < 0 for c in state):
        raise ValueError(f"initial state {state} invalid")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if sample_interval is not None and not (math.isfinite(sample_interval)
                                            and sample_interval > 0):
        raise ValueError(f"sample_interval must be positive and finite, "
                         f"got {sample_interval!r}")

    lam = tuple(rates)
    total_lam = sum(lam)
    big = total_lam + n * spec.bound
    rng = _rng if _rng is not None else _stream(seed)
    draws = _Draws(rng, 1.0 / big)

    hist = np.zeros((n, HIST_CAP + 1))
    over = np.zeros(n)
    area = [0.0] * n
    cps = sorted(float(c) for c in checkpoint_times)
    cp_out = []
    cp_i = 0
    samples = []
    next_sample = 0.0 if sample_interval else math.inf

    t = 0.0
    events = 0
    rate_of = spec.rate_unmemoized

    def settle(seg: float):
        for i in range(n):
            xi = state[i]
            if xi <= HIST_CAP:
                hist[i, xi] += seg
            else:
                over[i] += seg
            area[i] += xi * seg

    def advance(dt: float):
        nonlocal t, cp_i, next_sample
        end = t + dt
        while cp_i < len(cps) and cps[cp_i] <= end + 1e-15:
            seg = cps[cp_i] - t
            if seg > 0:
                settle(seg)
            t = cps[cp_i]
            cp_out.append((t, hist.copy(), over.copy(), state, tuple(area)))
            cp_i += 1
        while next_sample <= end + 1e-15:
            samples.append((next_sample, state))
            next_sample += sample_interval
        if end > t:
            settle(end - t)
            t = end

    if horizon > 0:
        while True:
            gap, u = draws.next()
            if t + gap >= horizon:
                advance(horizon - t)
                break
            advance(gap)
            events += 1
            v = u * big
            if v < total_lam:
                for i in range(n):
                    v -= lam[i]
                    if v < 0:
                        state = state[:i] + (state[i] + 1,) + state[i + 1:]
                        break
            else:
                v -= total_lam
                for i in range(n):
                    if state[i] > 0:
                        v -= rate_of(i, state)
                        if v < 0:
                            state = state[:i] + (state[i] - 1,) + state[i + 1:]
                            break
                # else self-loop
    while cp_i < len(cps):  # checkpoints exactly at the horizon
        cp_out.append((t, hist.copy(), over.copy(), state, tuple(area)))
        cp_i += 1

    slope = tuple(state[i] / horizon if horizon > 0 else 0.0 for i in range(n))
    avg = tuple(area[i] / horizon if horizon > 0 else float(state[i]) for i in range(n))
    return PathSample(
        seed=seed, horizon=horizon, event_count=events,
        histograms=hist, overflow=over, final_state=state,
        time_average=avg, drift_slope=slope,
        samples=samples, checkpoints=cp_out,
    )


@dataclass
class CouplingReport:
    """Joint-path statistics of an order-preserving coupled pair."""

    violations: int
    sampled_instants: int
    max_gap: tuple                 # per compared coordinate, max(y_i - x_i)
    drift_slope_x: tuple
    drift_slope_y: tuple
    elapsed: float
    final_x: tuple
    final_y: tuple
    histograms_x: np.ndarray
    histograms_y: np.ndarray

    def occupancy_distribution_x(self, i: int) -> np.ndarray:
        total = self.histograms_x[i].sum()
        return self.histograms_x[i] / total if total > 0 else self.histograms_x[i]

    def occupancy_distribution_y(self, i: int) -> np.ndarray:
        total = self.histograms_y[i].sum()
        return self.histograms_y[i] / total if total > 0 else self.histograms_y[i]


def simulate_coupled_pair(rates_x, spec_x: AllocationSpec,
                          rates_y, spec_y: AllocationSpec,
                          x0, y0, seed: int,
                          *, horizon: Optional[float] = None,
                          max_events: Optional[int] = None,
                          _rng: Optional[np.random.Generator] = None) -> CouplingReport:
    """Joint path of two chains under the order-preserving transition table.

    The lower chain must start below the upper one on the compared
    coordinates, and the rate hypotheses (birth rates dominated above, death
    rates dominated below, on states where the compared coordinates agree)
    are checked online; a violation aborts with a precise witness.
    """
    rates_x, rates_y = as_rates(rates_x), as_rates(rates_y)
    nx, ny = spec_x.n_queues, spec_y.n_queues
    c = min(nx, ny)
    x = tuple(int(v) for v in x0)
    y = tuple(int(v) for v in y0)
    if len(x) != nx or len(y) != ny:
        raise ValueError("initial state dimension mismatch")
    if any(x[i] > y[i] for i in range(c)):
        raise ValueError(f"initial states not ordered on compared coordinates: {x} vs {y}")
    if horizon is None and max_events is None:
        raise ValueError("need a time horizon or an event budget")

    big = sum(rates_x) + sum(rates_y) + nx * spec_x.bound + ny * spec_y.bound
    rng = _rng if _rng is not None else _stream(seed)
    draws = _Draws(rng, 1.0 / big)
    rx, ry = tuple(rates_x), tuple(rates_y)
    fx, fy = spec_x.rate_unmemoized, spec_y.rate_unmemoized

    hist_x = np.zeros((nx, HIST_CAP + 1))
    hist_y = np.zeros((ny, HIST_CAP + 1))
    max_gap = [y[i] - x[i] for i in range(c)]
    violations = 0
    t = 0.0
    events = 0

    def check_hypotheses():
        for i in range(c):
            if x[i] == y[i]:
                if rx[i] > ry[i] + _RATE_SLACK:
                    raise HypothesisViolated(
                        f"birth rate {rx[i]} of lower chain exceeds {ry[i]} of upper "
                        f"chain at coordinate {i}, states {x} / {y}",
                        x=x, y=y, coord=i,
                    )
                if x[i] > 0 and fx(i, x) < fy(i, y) - _RATE_SLACK:
                    raise HypothesisViolated(
                        f"death rate {fx(i, x)} of lower chain below {fy(i, y)} of "
                        f"upper chain at coordinate {i}, states {x} / {y}",
                        x=x, y=y, coord=i,
                    )

    check_hypotheses()
    while True:
        if max_events is not None and events >= max_events:
            break
        gap, u = draws.next()
        if horizon is not None and t + gap >= horizon:
            seg = horizon - t
            for i in range(nx):
                hist_x[i, min(x[i], HIST_CAP)] += seg
            for i in range(ny):
                hist_y[i, min(y[i], HIST_CAP)] += seg
            t = horizon
            break
        for i in range(nx):
            hist_x[i, min(x[i], HIST_CAP)] += gap
        for i in range(ny):
            hist_y[i, min(y[i], HIST_CAP)] += gap
        t += gap
        events += 1

        v = u * big
        moved = False
        for i in range(c):
            if x[i] == y[i]:
                lam, eta = rx[i], ry[i]
                v -= lam
                if v < 0:  # joint birth
                    x = x[:i] + (x[i] + 1,) + x[i + 1:]
                    y = y[:i] + (y[i] + 1,) + y[i + 1:]
                    moved = True
                    break
                v -= max(eta - lam, 0.0)
                if v < 0:  # upper-only birth
                    y = y[:i] + (y[i] + 1,) + y[i + 1:]
                    moved = True
                    break
                if x[i] > 0:
                    phi, psi = fx(i, x), fy(i, y)
                    v -= psi
                    if v < 0:  # joint death
                        x = x[:i] + (x[i] - 1,) + x[i + 1:]
                        y = y[:i] + (y[i] - 1,) + y[i + 1:]
                        moved = True
                        break
                    v -= max(phi - psi, 0.0)
                    if v < 0:  # lower-only death
                        x = x[:i] + (x[i] - 1,) + x[i + 1:]
                        moved = True
                        break
            else:  # x[i] < y[i]: transitions cannot cross
                v -= rx[i]
                if v < 0:
                    x = x[:i] + (x[i] + 1,) + x[i + 1:]
                    moved = True
                    break
                v -= ry[i]
                if v < 0:
                    y = y[:i] + (y[i] + 1,) + y[i + 1:]
                    moved = True
                    break
                if x[i] > 0:
                    v -= fx(i, x)
                    if v < 0:
                        x = x[:i] + (x[i] - 1,) + x[i + 1:]
                        moved = True
                        break
                if y[i] > 0:
                    v -= fy(i, y)
                    if v < 0:
                        y = y[:i] + (y[i] - 1,) + y[i + 1:]
                        moved = True
                        break
        if not moved:
            for i in range(c, nx):  # uncompared lower coordinates
                v -= rx[i]
                if v < 0:
                    x = x[:i] + (x[i] + 1,) + x[i + 1:]
                    moved = True
                    break
                if x[i] > 0:
                    v -= fx(i, x)
                    if v < 0:
                        x = x[:i] + (x[i] - 1,) + x[i + 1:]
                        moved = True
                        break
        if not moved:
            for i in range(c, ny):  # uncompared upper coordinates
                v -= ry[i]
                if v < 0:
                    y = y[:i] + (y[i] + 1,) + y[i + 1:]
                    moved = True
                    break
                if y[i] > 0:
                    v -= fy(i, y)
                    if v < 0:
                        y = y[:i] + (y[i] - 1,) + y[i + 1:]
                        moved = True
                        break
        # else: self-loop

        if moved:
            for i in range(c):
                gap_i = y[i] - x[i]
                if gap_i < 0:
                    violations += 1
                if gap_i > max_gap[i]:
                    max_gap[i] = gap_i
            check_hypotheses()

    elapsed = t
    slope_x = tuple(x[i] / elapsed if elapsed > 0 else 0.0 for i in range(nx))
    slope_y = tuple(y[i] / elapsed if elapsed > 0 else 0.0 for i in range(ny))
    return CouplingReport(
        violations=violations, sampled_instants=events,
        max_gap=tuple(max_gap), drift_slope_x=slope_x, drift_slope_y=slope_y,
        elapsed=elapsed, final_x=x, final_y=y,
        histograms_x=hist_x, histograms_y=hist_y,
    )


def dump_path_csv(path: PathSample, fileobj) -> None:
    """Trajectory dump: ``time, queue_1, ..., queue_N`` per recorded sample.

    Samples exist when the path was simulated with a ``sample_interval``.
    """
    n = len(path.final_state)
    fileobj.write("time," + ",".join(f"queue_{i + 1}" for i in range(n)) + "\n")
    for t, state in path.samples:
        fileobj.write(f"{t:.10g}," + ",".join(str(c) for c in state) + "\n")


def random_hypothesis_pair(rng: np.random.Generator, max_queues: int = 3):
    """Random pair of systems satisfying the comparison rate hypotheses.

    The upper chain gets a random monotone (partially decreasing) death-rate
    family; the lower chain serves at least as fast wherever the compared
    coordinates agree, and its arrivals never exceed the upper chain's.
    Returns (rates_x, spec_x, rates_y, spec_y, x0, y0).
    """
    nx = int(rng.integers(1, max_queues + 1))
    ny = int(rng.integers(1, max_queues + 1))
    c = min(nx, ny)

    eta = rng.uniform(0.2, 2.0, size=ny)
    lam = np.empty(nx)
    for i in range(nx):
        lam[i] = rng.uniform(0.05, eta[i]) if i < c else rng.uniform(0.2, 2.0)

    base = rng.uniform(1.0, 3.0, size=ny)
    weights = rng.uniform(0.0, 0.6, size=(ny, ny))
    np.fill_diagonal(weights, 0.0)
    sat = int(rng.integers(2, 9))
    floor = 0.25

    def psi(j, y, _b=base, _w=weights, _s=sat):
        v = _b[j]
        for k in range(len(y)):
            v -= _w[j, k] * min(y[k], _s) / _s
        return max(v, floor)

    bump = rng.uniform(0.0, 0.8, size=nx)
    extra_base = rng.uniform(0.5, 3.0, size=nx)

    def phi(i, x, _c=c, _ny=ny):
        if i < _c:
            padded = tuple(x[k] if k < _c else 0 for k in range(_ny))
            return psi(i, padded) + bump[i]
        return max(extra_base[i] - 0.3 * min(x[i - 1] if i > 0 else 0, 5) / 5, floor)

    bound_y = float(base.max())
    bound_x = float(bound_y + bump.max(initial=0.0) + extra_base.max(initial=0.0))
    spec_y = AllocationSpec(n_queues=ny, rate_fn=psi, bound=bound_y)
    spec_x = AllocationSpec(n_queues=nx, rate_fn=phi, bound=bound_x)

    x0 = tuple(int(v) for v in rng.integers(0, 4, size=nx))
    y0 = list(int(v) for v in rng.integers(0, 4, size=ny))
    for i in range(c):
        y0[i] = x0[i] + int(rng.integers(0, 4))
    return tuple(lam), spec_x, tuple(eta), spec_y, x0, tuple(y0)


@dataclass
class _Replicas:
    """Per-replica outcome of :func:`_lockstep`.

    ``windows[w, i]`` holds queue ``i``'s time mass per level (overflow in
    the last column) summed over every replica's segments settled while the
    number ``c`` of checkpoints already recorded has
    ``searchsorted(bounds, c) == w``.
    """

    final: np.ndarray       # (R, n) states at the horizon
    area: np.ndarray        # (R, n) time integrals of the queue lengths
    cp_state: np.ndarray    # (len(cps), R, n) states at the checkpoints
    cp_area: np.ndarray     # (len(cps), R, n) time integrals at the checkpoints
    windows: np.ndarray     # (len(bounds) + 1, n, HIST_CAP + 2)


def _advance(t: float, end: float, c: int, cps: Sequence[float]):
    """``simulate_path``'s ``advance`` from ``t`` to ``end`` with ``c``
    checkpoints recorded: the pieces ``(segment, c)`` it settles and
    ``(None, j)`` for each checkpoint ``j`` it records, in order, and the
    time and checkpoint count after it."""
    pieces = []
    while c < len(cps) and cps[c] <= end + 1e-15:
        seg = cps[c] - t
        if seg > 0:
            pieces.append((seg, c))
        t = cps[c]
        pieces.append((None, c))
        c += 1
    if end > t:
        pieces.append((end - t, c))
        t = end
    return pieces, t, c


class _ChunkDraws:
    """The gaps and uniforms that each stream's ``_Draws`` returns for its
    next ``_CHUNK`` events.  ``_Draws`` takes a batch of gaps and then a
    batch of uniforms from its stream, so a clone advanced past the gaps
    yields the uniforms."""

    def __init__(self, streams: list, scale: float):
        self.gap_rngs = self.uni_rngs = streams
        self.scale = scale
        self.drawn = 0
        self._skip = np.empty(_BATCH)

    def next(self, which, gaps: np.ndarray, unis: np.ndarray) -> None:
        """Fill rows ``which`` of the ``(R, _CHUNK)`` arrays."""
        if self.drawn % _BATCH == 0:
            self.gap_rngs = self.uni_rngs
            self.uni_rngs = [copy.deepcopy(g) for g in self.gap_rngs]
            for r in which:
                self.uni_rngs[r].standard_exponential(out=self._skip)
        for r in which:
            self.gap_rngs[r].standard_exponential(out=gaps[r])
            self.uni_rngs[r].random(out=unis[r])
        gaps *= self.scale
        self.drawn += _CHUNK


def _meet(row: np.ndarray, gaps: np.ndarray, c: int, cps: Sequence[float],
          horizon: float):
    """Steps of one replica's chunk that meet a checkpoint or the horizon.

    ``row`` holds the chunk's event times ``t, t + gap, ...``; where
    ``advance`` leaves the path on a checkpoint just past an event, the
    later times are recomputed from it in place.  Returns the number of
    event steps (``_CHUNK`` unless the horizon falls in the chunk) and
    ``(step, pieces, checkpoint count after it)`` for every step that met
    something."""
    ends = row[1:]
    pending = [*cps, math.inf]
    met = []
    while True:
        k_end = int(np.searchsorted(ends, horizon))         # t + gap >= horizon
        k_cp = int(np.searchsorted(ends + 1e-15, pending[c]))
        if k_cp >= k_end:
            break
        pieces, t, c = _advance(float(row[k_cp]), float(ends[k_cp]), c, cps)
        met.append((k_cp, pieces, c))
        if t != ends[k_cp]:
            row[k_cp + 1:] = np.cumsum(np.concatenate([[t], gaps[k_cp + 1:]]))
    if k_end < len(ends):
        t = float(row[k_end])
        pieces, _, c = _advance(t, t + (horizon - t), c, cps)
        pieces += [(None, j) for j in range(c, len(cps))]  # checkpoints at the horizon
        met.append((k_end, pieces, len(cps)))
    return k_end, met


def _lockstep(rates, spec: AllocationSpec, x0, horizon: float,
              cps: Sequence[float], bounds: Sequence[int],
              replicas: int, seed: int) -> _Replicas:
    """``replicas`` uniformized paths on ``_stream(seed, r)``, all advanced
    by one event per step, with ``cps`` sorted and at most ``horizon``.

    Each path is event for event the one ``simulate_path`` draws from the
    same stream with the same checkpoints: the draws come in the same order,
    and times, transitions, segments and areas use the same float operations
    in the same order.  Only the shared window histograms add their segments
    in another order.
    """
    rates = as_rates(rates)
    n = spec.n_queues
    if len(rates) != n:
        raise ValueError("rate vector length mismatch")
    start = tuple(int(c) for c in x0)
    if len(start) != n or any(c < 0 for c in start):
        raise ValueError(f"initial state {start} invalid")
    R, C, B = replicas, _CHUNK, HIST_CAP + 2
    lam = tuple(rates)
    total_lam = sum(lam)
    big = total_lam + n * spec.bound
    pending = np.array([*cps, math.inf])
    lam_steps = np.broadcast_to(np.array(lam), (R, C, n))
    queue_bins = np.arange(n) * B

    # states as (n, R), so that each queue's column X[:, i] is contiguous
    XT = np.tile(np.array(start, dtype=np.int64)[:, None], (1, R))
    X = XT.T
    t = np.zeros(R)
    count = np.zeros(R, dtype=np.int64)  # checkpoints recorded so far
    active = np.ones(R, dtype=bool)
    area = np.zeros((R, n))
    cp_state = np.zeros((len(cps), R, n), dtype=np.int64)
    cp_area = np.zeros((len(cps), R, n))
    windows = np.zeros((len(bounds) + 1) * n * B)

    draws = _ChunkDraws([_stream(seed, r) for r in range(R)], 1.0 / big)
    G = np.empty((R, C))
    U = np.empty((R, C))
    S = np.empty((C, n, R), dtype=np.int64)  # the state during each step
    M = np.empty((n + 1, R))
    while active.any():
        draws.next(np.flatnonzero(active), G, U)

        # event times: t = t + gap, save where a checkpoint or the horizon
        # is met; those steps become pieces settled as advance() does
        T = np.cumsum(np.concatenate([t[:, None], G], axis=1), axis=1)
        labels = np.repeat(count[:, None], C, axis=1)  # checkpoints before each step
        last = np.where(active, C, 0)                  # event steps in the chunk
        met = {}
        meets = active & ((T[:, -1] + 1e-15 >= pending[count]) | (T[:, -1] >= horizon))
        for r in np.flatnonzero(meets):
            last[r], met[r] = _meet(T[r], G[r], int(count[r]), cps, horizon)
            for k, _, c in met[r]:
                labels[r, k + 1:] = c
            count[r] = met[r][-1][2]
        t = T[:, -1].copy()
        live = np.arange(C) < last[:, None]
        n_steps = min(C, int(last[active].max(initial=0)) + 1)
        active &= last == C

        # births do not depend on the state: v = u * big, then v -= lam[i]
        v = U * big
        is_birth = live & (v < total_lam)
        born = np.subtract.accumulate(
            np.concatenate([v[..., None], lam_steps], axis=2), axis=2)[..., 1:] < 0
        born[..., 1:] ^= born[..., :-1]
        born &= is_birth[..., None]
        dB = born.transpose(1, 2, 0).astype(np.int64)
        V0 = np.where(live & ~is_birth, v - total_lam, np.inf).T.copy()

        # deaths: v -= total_lam, then v -= rate_i for each busy queue in order
        for k in range(n_steps):
            S[k] = XT
            for i in range(n):
                M[i + 1] = spec.rates_at(i, X)
            M[0] = V0[k]
            M[1:] *= XT > 0
            below = np.subtract.accumulate(M) < 0  # v - r_0 - ... - r_i; row 0 is v >= 0
            XT -= below[1:] ^ below[:-1]           # death at the first queue taking it below 0
            XT += dB[k]

        # accounting: the segments of plain steps at once, then the pieces
        # of the steps that met something, in time order per replica
        seg = np.where(live, T[:, 1:] - T[:, :-1], 0.0)
        for r, steps in met.items():
            for k, _, _ in steps:
                seg[r, k] = 0.0
        seg = seg[:, :n_steps].T
        Sk = S[:n_steps].transpose(0, 2, 1)
        wid = np.searchsorted(bounds, labels[:, :n_steps].T)
        idx = (wid[..., None] * n * B + queue_bins) + np.minimum(Sk, B - 1)
        windows += np.bincount(idx.ravel(),
                               np.broadcast_to(seg[..., None], Sk.shape).ravel(),
                               minlength=windows.size)
        contrib = Sk * seg[..., None]
        start_area = area
        area = np.cumsum(np.concatenate([area[None], contrib]), axis=0)[-1]
        for r, steps in met.items():
            a, k0 = start_area[r], 0
            for k, pieces, _ in steps:
                a = np.cumsum(np.concatenate([a[None], contrib[k0:k, r]]), axis=0)[-1]
                x = Sk[k, r]
                for piece, j in pieces:
                    if piece is None:
                        cp_state[j, r] = x
                        cp_area[j, r] = a
                    else:
                        a = a + x * piece
                        w = int(np.searchsorted(bounds, j))
                        windows[w * n * B + queue_bins + np.minimum(x, B - 1)] += piece
                k0 = k + 1
            area[r] = np.cumsum(np.concatenate([a[None], contrib[k0:, r]]), axis=0)[-1]

    return _Replicas(final=X, area=area, cp_state=cp_state, cp_area=cp_area,
                     windows=windows.reshape(len(bounds) + 1, n, B))


@dataclass
class ProbeDiagnostic:
    """Finite-horizon stability heuristic; never overrides the analytic engine.

    The thresholds (99.9% early-mass cover, 1% escape, one-sided normal band
    on the drift slope) are engineering choices for a quantity the math
    defines over all time; they are reported alongside the verdict.
    """

    verdict: str                   # looks_stable | looks_unstable | inconclusive
    slope_mean: tuple
    slope_lcb: tuple
    escape_fraction: tuple
    growth_ratio: tuple            # late-window mean occupancy / mid-window mean
    cover_level: tuple             # per-queue occupancy threshold K_i
    replicas: int
    horizons: tuple
    warnings: tuple = ()


def empirical_stability_probe(rates, spec: AllocationSpec, x0,
                              horizons: Sequence[float], replicas: int,
                              seed: int) -> ProbeDiagnostic:
    """Replicated drift/tightness probe.

    Looks unstable when some queue's mean drift slope is significantly
    positive; looks stable when, at the longest horizon, at most 1% of
    occupancy mass sits above the level covering 99.9% of early-horizon mass.
    """
    rates = as_rates(rates)
    n = spec.n_queues
    horizons = sorted(float(h) for h in horizons)
    if not horizons or horizons[0] <= 0:
        raise ValueError("horizons must be positive")
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    warnings = []
    if replicas < 30:
        warnings.append(
            f"replicas={replicas} below the normal-band floor of 30; "
            "verdict confidence reduced"
        )
    t_max = horizons[-1]
    t_mid = t_max / 2.0
    t_q1 = t_max / 4.0
    cps = sorted(set(horizons) | {t_q1, t_mid})
    q1_idx = cps.index(t_q1)
    mid_idx = cps.index(t_mid)

    reps = _lockstep(rates, spec, x0, t_max, cps, (q1_idx, mid_idx), replicas, seed)
    # drift estimated from the second-half increment: centered at zero for
    # stable chains, at the escape slope for transient ones
    slopes = (reps.final - reps.cp_state[mid_idx]) / (t_max - t_mid)
    # cover window: second quarter of the paths, past the empty-start burn-in;
    # escape window: second half
    early, early_over = reps.windows[1, :, :-1], reps.windows[1, :, -1]
    last, last_over = reps.windows[2, :, :-1], reps.windows[2, :, -1]
    mid_area = np.zeros(n)
    late_area = np.zeros(n)
    for r in range(replicas):
        mid_area += reps.cp_area[mid_idx, r] - reps.cp_area[q1_idx, r]
        # area / t_max * t_max rounds as a path's time_average * t_max does
        late_area += reps.area[r] / t_max * t_max - reps.cp_area[mid_idx, r]

    cover = []
    escape = []
    for i in range(n):
        total_early = early[i].sum() + early_over[i]
        cum = np.cumsum(early[i])
        k = int(np.searchsorted(cum, 0.999 * total_early))
        k = min(k, HIST_CAP)
        cover.append(k)
        total_last = last[i].sum() + last_over[i]
        above = last[i, k + 1:].sum() + last_over[i]
        escape.append(above / total_last if total_last > 0 else 0.0)

    mean = slopes.mean(axis=0)
    sd = slopes.std(axis=0, ddof=1) if replicas > 1 else np.zeros(n)
    lcb = mean - 1.645 * sd / math.sqrt(replicas)

    mid_mean = mid_area / (t_mid - t_q1) / replicas
    late_mean = late_area / (t_max - t_mid) / replicas
    ratio = late_mean / np.maximum(mid_mean, 1e-9)

    # Drift alone cannot separate linear escape from diffusive (null-recurrent)
    # growth at desk horizons; linear escape doubles window means between the
    # second quarter and the second half, diffusion only grows them by ~sqrt(2).
    drifting = [lcb[i] > 0 and ratio[i] > 1.7 for i in range(n)]
    if any(drifting):
        verdict = "looks_unstable"
    elif all(e < 0.01 for e in escape):
        verdict = "looks_stable"
    else:
        verdict = "inconclusive"
    return ProbeDiagnostic(
        verdict=verdict,
        slope_mean=tuple(float(v) for v in mean),
        slope_lcb=tuple(float(v) for v in lcb),
        escape_fraction=tuple(float(e) for e in escape),
        growth_ratio=tuple(float(v) for v in ratio),
        cover_level=tuple(cover),
        replicas=replicas,
        horizons=tuple(horizons),
        warnings=tuple(warnings),
    )
