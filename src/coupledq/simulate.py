"""Stochastic simulation of the queueing chain and of coupled pairs.

All paths are generated by uniformization: a single Poisson clock of rate
``Lambda = sum(lambda) + N * bound`` ticks, and each tick applies one
transition (or a self-loop) drawn from the current state's rates.  For a
coupled pair the same clock drives a joint categorical draw over the
order-preserving transition table, which keeps both marginals exact while
never letting the compared coordinates cross.  Its slots come per compared
coordinate (where the chains agree: joint birth, upper-only birth, joint
death, lower-only death; elsewhere the four separate moves), then per
uncompared coordinate, and read each rate at most once per joint state.

Randomness comes from counter-based Philox streams: one stream per replica,
derived deterministically from the base seed.  A stream gives its events'
exponential gaps and uniforms in batches of ``_BATCH``: a batch's gaps in
one call as it starts, then its uniforms a chunk at a time.  Single paths
and the stability probe's replicas are all drawn by one lockstep loop, which
advances its replicas one event per step, each on its own stream.  It
settles the deaths of up to 32 steps at a time from guessed states, and
the result is the one a loop of single steps gives.  A coupled pair draws
its one stream as the lockstep draws replica 0.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .allocation import AllocationSpec, _check_integer, _check_real, as_rates
from .errors import HypothesisViolated

HIST_CAP = 4096
_BATCH = 8192
_CHUNK = 256  # lockstep steps drawn and accounted at a time; divides _BATCH
_GUESS = 32   # lockstep steps whose deaths are guessed and checked at once
_RATE_SLACK = 1e-12
# the most samples a path may record; checked before any sample time is built
MAX_SAMPLES = 1_000_000
_MAX_START = 2 ** 62  # a start leaves the lockstep's int64 states room to grow


def _stream(seed: int, replica: int = 0) -> np.random.Generator:
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    bit = np.random.Philox(key=np.uint64(int(seed) & (2 ** 64 - 1)))
    if replica:
        bit = bit.jumped(replica)
    return np.random.Generator(bit)


def _checked_start(rates, spec: AllocationSpec, x0) -> tuple:
    """``(rates, x0)`` as tuples; ``ValueError`` unless each has one entry per
    queue, the rates pass :class:`ArrivalRates` and ``x0`` holds integers in ``[0, 2**62)``."""
    rates = tuple(as_rates(rates, spec.n_queues))
    given = tuple(x0)
    for c in given:
        _check_integer("initial state entry", c, 0)
    if len(given) != spec.n_queues or any(c >= _MAX_START for c in given):
        raise ValueError(f"initial state {given} invalid: need {spec.n_queues} "
                         f"nonnegative integers below 2**62")
    return rates, tuple(int(c) for c in given)


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
    samples: list = field(default_factory=list)   # (t, state) at sample_interval

    def occupancy_distribution(self, i: int) -> np.ndarray:
        """Normalized time-occupancy histogram of queue i (overflow excluded)."""
        total = self.histograms[i].sum() + self.overflow[i]
        if total <= 0:
            out = np.zeros(HIST_CAP + 1)
            out[0] = 1.0
            return out
        return self.histograms[i] / total


def simulate_path(rates, spec: AllocationSpec, x0, horizon: float, seed: int,
                  *, sample_interval: Optional[float] = None) -> PathSample:
    """Uniformized path of the queueing chain; reproducible for a fixed seed.

    The lockstep run of :func:`_lockstep` with one replica, on
    ``_stream(seed)``.  With a ``sample_interval`` ``s``, the sample times
    ``0, s, s + s, ...`` up to ``horizon + 1e-15`` are its checkpoints.
    ``ValueError`` rejects what :func:`check_sampling` or :class:`ArrivalRates`
    rejects, and rates or a start (integers in ``[0, 2**62)``) not one per queue.
    """
    check_sampling(horizon, sample_interval)
    times = []
    if sample_interval and horizon > 0:
        s = 0.0
        while s <= horizon + 1e-15:
            times.append(s)
            s += sample_interval
    reps = _lockstep(rates, spec, x0, horizon, times, (), 1, seed)
    state = tuple(int(c) for c in reps.final[0])
    area = reps.area[0].tolist()
    slope = tuple(c / horizon if horizon > 0 else 0.0 for c in state)
    avg = tuple(a / horizon if horizon > 0 else float(c) for a, c in zip(area, state))
    samples = [(s, tuple(x)) for s, x in zip(times, reps.cp_state[:, 0].tolist())]
    return PathSample(
        seed=seed, horizon=horizon, event_count=int(reps.events[0]),
        histograms=reps.windows[0, :, :-1], overflow=reps.windows[0, :, -1],
        final_state=state, time_average=avg, drift_slope=slope, samples=samples,
    )


def check_sampling(horizon: float, sample_interval: Optional[float]) -> None:
    """Raise ``ValueError`` unless :func:`simulate_path` takes ``horizon``
    and ``sample_interval``: a finite real horizon >= 0, and a finite real
    interval above 0 with ``horizon / sample_interval`` below ``MAX_SAMPLES``;
    a bool or a numeric string is neither."""
    _check_real("horizon", horizon, inclusive=True)
    if sample_interval is None:
        return
    _check_real("sample_interval", sample_interval)
    if horizon / sample_interval >= MAX_SAMPLES:
        raise ValueError(f"horizon {horizon!r} at sample_interval {sample_interval!r} "
                         f"asks for more than {MAX_SAMPLES} samples")


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
                          max_events: Optional[int] = None) -> CouplingReport:
    """Joint path of two chains under the order-preserving transition table.

    The lower chain ``x`` must start below the upper chain ``y`` on the
    compared coordinates ``i < c = min(nx, ny)``.  An event draws ``(gap,
    u)`` from ``_stream(seed)`` as a lockstep of one replica does, and ``v =
    u * Lambda`` takes the first slot whose ``v -= amount`` goes below 0,
    or a self-loop past the last.  The slots, in order: for each compared
    ``i``, where ``x_i = y_i`` joint birth ``lambda_i``, upper-only birth
    ``max(eta_i - lambda_i, 0)`` and, if busy, joint death ``psi_i(y)`` and
    lower-only death ``max(phi_i(x) - psi_i(y), 0)``; where ``x_i < y_i``
    the births of ``x_i`` and ``y_i``, then the deaths of the busy ones;
    then each uncompared queue's birth and, if busy, death, ``x``'s first.

    The rate hypotheses (birth rates dominated above, death rates dominated
    below, where the compared coordinates agree) are checked at the start
    and after every move; a violation aborts with a precise witness.  Each
    rate is read at most once per joint state: by the check, or when the
    walk through the table reaches its slot.
    ``ValueError`` rejects rates or starts that do not fit their specs or
    their order, neither ``horizon`` nor ``max_events``, a horizon that
    :func:`check_sampling` rejects, and a ``max_events`` not an integer >= 0.
    """
    rates_x, x = _checked_start(rates_x, spec_x, x0)
    rates_y, y = _checked_start(rates_y, spec_y, y0)
    nx, ny = spec_x.n_queues, spec_y.n_queues
    c = min(nx, ny)
    if any(x[i] > y[i] for i in range(c)):
        raise ValueError(f"initial states not ordered on compared coordinates: {x} vs {y}")
    if horizon is None and max_events is None:
        raise ValueError("need a time horizon or an event budget")
    if horizon is not None:
        check_sampling(horizon, None)
    if max_events is not None:
        _check_integer("max_events", max_events, 0)

    big = sum(rates_x) + sum(rates_y) + nx * spec_x.bound + ny * spec_y.bound
    hist_x, hist_y = np.zeros((nx, HIST_CAP + 1)), np.zeros((ny, HIST_CAP + 1))
    max_gap = [y[i] - x[i] for i in range(c)]
    violations, events, t = 0, 0, 0.0
    known = {}  # (0, i) -> phi_i(x) and (1, i) -> psi_i(y) at the current states

    def rate(side: int, i: int) -> float:
        if (side, i) not in known:
            known[side, i] = spec_y.rate_unmemoized(i, y) if side else spec_x.rate_unmemoized(i, x)
        return known[side, i]

    def check_hypotheses():
        for i in range(c):
            if x[i] != y[i]:
                continue
            if rates_x[i] > rates_y[i] + _RATE_SLACK:
                why = f"birth rate {rates_x[i]} of lower chain exceeds {rates_y[i]}"
            elif x[i] > 0 and rate(0, i) < rate(1, i) - _RATE_SLACK:
                why = f"death rate {rate(0, i)} of lower chain below {rate(1, i)}"
            else:
                continue
            raise HypothesisViolated(f"{why} of upper chain at coordinate {i}, "
                                     f"states {x} / {y}", x=x, y=y, coord=i)

    def table():  # the slots (amount, (i, dx, dy)) at the current states
        for i in range(c):
            if x[i] == y[i]:
                yield rates_x[i], (i, 1, 1)
                yield max(rates_y[i] - rates_x[i], 0.0), (i, 0, 1)
                if x[i] > 0:  # the check has read both rates
                    yield rate(1, i), (i, -1, -1)
                    yield max(rate(0, i) - rate(1, i), 0.0), (i, -1, 0)
            else:  # x_i < y_i: the moves cannot cross
                yield rates_x[i], (i, 1, 0)
                yield rates_y[i], (i, 0, 1)
                if x[i] > 0:
                    yield rate(0, i), (i, -1, 0)
                if y[i] > 0:
                    yield rate(1, i), (i, 0, -1)
        for side, z, lam in ((0, x, rates_x), (1, y, rates_y)):
            for i in range(c, len(z)):  # uncompared: (i, 1, 0) is a birth of x
                yield lam[i], (i, 1 - side, side)
                if z[i] > 0:
                    yield rate(side, i), (i, side - 1, -side)

    check_hypotheses()
    draws = _pair_draws(seed, 1.0 / big)
    while max_events is None or events < max_events:
        gap, u = next(draws)
        stop = horizon is not None and t + gap >= horizon
        seg = horizon - t if stop else gap
        for hist, z in ((hist_x, x), (hist_y, y)):
            for i, q in enumerate(z):
                hist[i, min(q, HIST_CAP)] += seg
        if stop:
            t = horizon
            break
        t += gap
        events += 1

        v = u * big
        for amount, (i, dx, dy) in table():
            v -= amount
            if v < 0:
                if dx:
                    x = x[:i] + (x[i] + dx,) + x[i + 1:]
                if dy:
                    y = y[:i] + (y[i] + dy,) + y[i + 1:]
                known.clear()
                for j in range(c):
                    violations += y[j] < x[j]
                    max_gap[j] = max(max_gap[j], y[j] - x[j])
                check_hypotheses()
                break

    return CouplingReport(
        violations=violations, sampled_instants=events, max_gap=tuple(max_gap),
        drift_slope_x=tuple(q / t if t > 0 else 0.0 for q in x),
        drift_slope_y=tuple(q / t if t > 0 else 0.0 for q in y),
        elapsed=t, final_x=x, final_y=y, histograms_x=hist_x, histograms_y=hist_y,
    )


def _pair_draws(seed: int, scale: float):
    """``(gap, u)`` per event, as the lockstep draws them from ``_stream(seed)``."""
    draws = _ChunkDraws([_stream(seed)], scale)
    while True:
        gaps, unis = draws.next((0,))
        yield from zip(gaps[0].tolist(), unis[0].tolist())


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
    events: np.ndarray      # (R,) events before the horizon
    area: np.ndarray        # (R, n) time integrals of the queue lengths
    cp_state: np.ndarray    # (len(cps), R, n) states at the checkpoints
    cp_area: np.ndarray     # (len(cps), R, n) time integrals at the checkpoints
    windows: np.ndarray     # (len(bounds) + 1, n, HIST_CAP + 2)


def _advance(t: float, end: float, c: int, cps: Sequence[float]):
    """A path's advance from ``t`` to ``end`` with ``c`` checkpoints
    recorded: the pieces ``(segment, c)`` it settles and ``(None, j)`` for
    each checkpoint ``j`` it records, in order, and the time and checkpoint
    count after it.  A checkpoint at most 1e-15 past ``end`` is recorded,
    and the path resumes from it."""
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
    """The gaps and uniforms of each stream's next ``_CHUNK`` events, as a
    scalar loop takes them (``tests/oracles.py``): ``_BATCH`` gaps, then
    ``_BATCH`` uniforms.  As a batch starts, each stream in ``which`` draws
    its gaps in one call, scaled once, and a chunk's gaps are a view of
    them; the chunk's uniforms come from the same stream, past the gaps."""

    def __init__(self, streams: list, scale: float):
        self.streams, self.scale, self.drawn = streams, scale, 0
        self.gaps = np.empty((len(streams), _BATCH))
        self.unis = np.empty((len(streams), _CHUNK))

    def next(self, which) -> tuple:
        """``(gaps, unis)``, ``(R, _CHUNK)``, drawn in rows ``which``; later calls reuse them."""
        at = self.drawn % _BATCH
        for r in which:
            if at == 0:
                self.streams[r].standard_exponential(out=self.gaps[r])
                self.gaps[r] *= self.scale
            self.streams[r].random(out=self.unis[r])
        self.drawn += _CHUNK
        return self.gaps[:, at:at + _CHUNK], self.unis


def _meet(row: np.ndarray, gaps: np.ndarray, c: int, cps: Sequence[float],
          pending: np.ndarray, horizon: float):
    """Steps of one replica's chunk that meet a checkpoint or the horizon.

    ``row`` holds the chunk's event times ``t, t + gap, ...``, and
    ``pending`` is ``cps`` followed by infinity; where :func:`_advance`
    leaves the path on a checkpoint just past an event, the later times are
    recomputed from it in place.  Returns the number of
    event steps (``_CHUNK`` unless the horizon falls in the chunk) and
    ``(step, pieces, checkpoint count after it)`` for every step that met
    something."""
    ends = row[1:]
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


def _deaths(M: np.ndarray, busy: np.ndarray) -> np.ndarray:
    """Which queue dies at each step of a window: ``(w, n, R)`` from ``M``
    of shape ``(n + 1, w, R)``, which holds each step's ``v`` after the
    births in row 0 and queue ``i``'s rate in row ``1 + i``.  ``v -=
    rate_i`` for each busy queue in order, and the queue that takes ``v``
    below 0 dies.  ``M`` is overwritten."""
    np.multiply(M[1:], busy, out=M[1:])
    for i in range(len(M) - 1):  # v - r_0 - ... - r_i; row 0 is v >= 0
        np.subtract(M[i], M[i + 1], out=M[i + 1])
    below = M < 0
    return (below[1:] != below[:-1]).transpose(1, 0, 2)


def _lockstep(rates, spec: AllocationSpec, x0, horizon: float,
              cps: Sequence[float], bounds: Sequence[int],
              replicas: int, seed: int) -> _Replicas:
    """``replicas`` uniformized paths on ``_stream(seed, r)``, all advanced
    by one event per step, with ``cps`` sorted and at most ``horizon``
    (plus 1e-15).

    Each path is event for event the one a scalar loop draws from the same
    stream with the same checkpoints (``tests/oracles.reference_path``):
    the draws come in the same order, and times, transitions, segments and
    areas use the same float operations in the same order.  Only the window
    histograms add their segments in another order.

    Births do not depend on the state, so a chunk's births are drawn at
    once; its deaths are settled in windows of up to ``_GUESS`` steps from
    the last settled state.  Each window guesses its deaths: a step already
    tried keeps the death it got last time, and a new step dies as it would
    at the rates and busy queues of the last settled step.  A guessed death
    of an empty queue is dropped, so the guessed states are nonnegative,
    and every queue's array form is evaluated once at all of them.  The
    deaths those rates give are settled up to and including the first step
    whose guess was wrong, since every state up to that step was right,
    and the next window starts after it.  The deaths, and with them
    everything else, are those of one step at a time, which is the window
    of one step, whatever the guesses.  So the array form may be evaluated
    at nonnegative states up to ``_GUESS`` steps off the path; if it raises
    in a window of more than one step, the rest of the chunk goes one step
    at a time, where an error is the one the path meets first.  A spec
    without an array form goes through ``rates_at`` one step at a time,
    so its ``rate_fn`` sees only the path's states.

    The array form is evaluated unchecked, and each chunk's rates are
    checked once, after its last step and before any of its accounting,
    raising the ``BoundViolation`` of :meth:`AllocationSpec.rates_at` for
    the first bad (step, queue, replica).  A bad rate can only corrupt
    later states of the same chunk (a NaN on an empty queue survives the
    zeroing and can take the queue to -1); none of them is accounted or
    reported.  An exception the array form raises at one step on such a
    state is preceded by the check of the steps so far.
    """
    lam, start = _checked_start(rates, spec, x0)
    n = spec.n_queues
    R, C, B = replicas, _CHUNK, HIST_CAP + 2
    total_lam = sum(lam)
    big = total_lam + n * spec.bound
    pending = np.array([*cps, math.inf])
    queue_bins = np.arange(n) * B

    # states as (n, R), a replica per column, and X = XT.T a replica per row
    XT = np.tile(np.array(start, dtype=np.int64)[:, None], (1, R))
    X = XT.T
    t = np.zeros(R)
    events = np.zeros(R, dtype=np.int64)
    count = np.zeros(R, dtype=np.int64)  # checkpoints recorded so far
    active = np.ones(R, dtype=bool)
    area = np.zeros((R, n))
    cp_state = np.zeros((len(cps), R, n), dtype=np.int64)
    cp_area = np.zeros((len(cps), R, n))
    windows = np.zeros((len(bounds) + 1) * n * B)

    draws = _ChunkDraws([_stream(seed, r) for r in range(R)], 1.0 / big)
    dB = np.empty((C, n, R), dtype=np.int64)  # the births at each step
    S = np.empty((C, n, R), dtype=np.int64)  # the state during each step
    V = np.empty((C, n, R))                  # the rates during each step
    array = spec._declared.rates
    rate, guess = (spec.rates_at, 1) if array is None else (array, _GUESS)
    Z = np.empty((n, guess * R), dtype=np.int64)  # a window's states; Z.T has contiguous columns
    M = np.empty((n + 1, guess, R))               # its v and rates, see _deaths
    guessed = np.empty((guess, n, R), dtype=bool)
    held = np.zeros((n, R))                       # the rates at the last settled step
    while active.any():
        G, U = draws.next(np.flatnonzero(active))

        # event times: t = t + gap, save where a checkpoint or the horizon
        # is met; those steps become pieces settled as advance() does
        T = np.cumsum(np.concatenate([t[:, None], G], axis=1), axis=1)
        labels = np.repeat(count[:, None], C, axis=1)  # checkpoints before each step
        last = np.where(active, C, 0)                  # event steps in the chunk
        met = {}
        meets = active & ((T[:, -1] + 1e-15 >= pending[count]) | (T[:, -1] >= horizon))
        for r in np.flatnonzero(meets):
            last[r], met[r] = _meet(T[r], G[r], int(count[r]), cps, pending, horizon)
            for k, _, c in met[r]:
                labels[r, k + 1:] = c
            count[r] = met[r][-1][2]
        t = T[:, -1].copy()
        live = np.arange(C) < last[:, None]
        n_steps = min(C, int(last[active].max(initial=0)) + 1)
        events += last
        active &= last == C

        # births do not depend on the state: v = u * big, then v -= lam[i]
        v = np.multiply(U.T, big, order="C")
        is_birth = live.T & (v < total_lam)
        rest, below = v, False
        for i in range(n):  # born: the first i with v - lam[0] - ... - lam[i] < 0
            rest, was = rest - lam[i], below
            below = rest < 0
            dB[:, i] = (below ^ was) & is_birth
        V0 = np.where(live.T & ~is_birth, v - total_lam, np.inf)

        # deaths: v -= total_lam, then v -= rate_i for each busy queue in
        # order; steps k..k+w-1 at a time, their states built from guessed
        # deaths and settled up to the first step whose death was guessed wrong
        k, width, have = 0, guess, 0  # steps k..k+have-1 keep their guesses
        while k < n_steps:
            w = min(width, n_steps - k)
            if 1 < w and have < w:  # a step not yet tried dies as at the last settled rates
                H = np.empty((n + 1, w - have, R))
                H[0] = V0[k + have:k + w]
                H[1:] = held[:, None]
                guessed[have:w] = _deaths(H, XT[:, None] > 0)
            Sw, Zw, Mw = S[k:k + w], Z[:, :w * R], M[:, :w]
            Sw[0] = XT
            if w > 1:  # the guessed states, a guessed death of an empty queue dropped
                np.subtract(dB[k:k + w - 1], guessed[:w - 1], out=Sw[1:])
                np.add.accumulate(Sw, axis=0, out=Sw)
                Sw -= np.minimum.accumulate(np.minimum(Sw, 0), axis=0)
            Zw.reshape(n, w, R)[...] = Sw.transpose(1, 0, 2)
            try:
                for i in range(n):
                    Mw[1 + i] = rate(i, Zw.T).reshape(w, R)
            except Exception:
                if w > 1:  # maybe off the path: the rest of the chunk step by step
                    width = 1
                    continue
                Mw[1 + i:] = 0.0  # a bad rate before the error is reported first
                V[k] = Mw[1:, 0]
                spec._check_bounds(V[:k + 1], S[:k + 1], range(n))
                raise
            V[k:k + w] = Mw[1:].transpose(1, 0, 2)
            Mw[0] = V0[k:k + w]
            busy = Sw > 0
            died = _deaths(Mw, busy.transpose(1, 0, 2))
            s = w  # each step's state is right while the deaths before it are
            if w > 1:
                wrong = died[:w - 1] != (guessed[:w - 1] & busy[:w - 1])
                j = int(wrong.argmax())
                if wrong.flat[j]:
                    s = j // (n * R) + 1
            np.add(Sw[s - 1], dB[k + s - 1], out=XT)
            XT -= died[s - 1]
            guessed[:w - s] = died[s:w]
            have = w - s
            held[:] = V[k + s - 1]
            k += s
        spec._check_bounds(V[:n_steps], S[:n_steps], range(n))

        # accounting: the segments of plain steps at once, then the pieces
        # of the steps that met something, in time order per replica
        seg = np.where(live, T[:, 1:] - T[:, :-1], 0.0)
        for r, steps in met.items():
            for k, _, _ in steps:
                seg[r, k] = 0.0
        seg = np.ascontiguousarray(seg[:, :n_steps].T)
        base = np.searchsorted(bounds, labels[:, :n_steps].T) * (n * B)
        # a queue at a time, over the bins from the lowest it touched; each
        # bin adds its segments in (step, replica) order
        for i in range(n):
            idx = np.minimum(S[:n_steps, i], B - 1) + (base + i * B)
            lo = int(idx.min())
            counts = np.bincount((idx - lo).ravel(), seg.ravel())
            windows[lo:lo + counts.size] += counts
        contrib = S[:n_steps].transpose(0, 2, 1) * seg[..., None]
        start_area = area
        area = np.cumsum(np.concatenate([area[None], contrib]), axis=0)[-1]
        for r, steps in met.items():
            a, k0 = start_area[r], 0
            for k, pieces, _ in steps:
                a = np.cumsum(np.concatenate([a[None], contrib[k0:k, r]]), axis=0)[-1]
                x = S[k, :, r]
                for piece, j in pieces:
                    if piece is None:
                        cp_state[j, r] = x
                        cp_area[j, r] = a
                    else:
                        a = a + x * piece
                        w = bisect.bisect_left(bounds, j)
                        windows[w * n * B + queue_bins + np.minimum(x, B - 1)] += piece
                k0 = k + 1
            area[r] = np.cumsum(np.concatenate([a[None], contrib[k0:, r]]), axis=0)[-1]

    return _Replicas(final=X, events=events, area=area, cp_state=cp_state, cp_area=cp_area,
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
    ``ValueError`` rejects no horizons, one not a finite real above 0 (such as
    a bool or "1"), a ``replicas`` not an integer >= 1, and rates and a start
    as :func:`simulate_path` does.  Each replica takes about 130 KB of
    working memory at two queues, 64 KB of it a batch of gaps (``_BATCH`` floats).
    """
    n = spec.n_queues
    horizons = sorted(_check_real("horizon", h) for h in horizons)
    if not horizons:
        raise ValueError("need at least one horizon")
    _check_integer("replicas", replicas, 1)
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
