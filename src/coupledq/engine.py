"""Stability classification for parallel queues with coupled service rates.

The engine decides, per queue and for the whole system, whether the queue
length process is stable, by chaining saturated-prefix solves: a permutation
of the queues is scanned left to right, each queue's arrival rate is compared
against the average service it would receive were all later queues saturated,
and the verdict is assembled from the best witnesses over all permutations.
Strict inequalities are made checkable with a margin tolerance; points inside
the margin band are reported as boundary-indeterminate rather than guessed.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from typing import Optional

import numpy as np

from .allocation import (
    DEFAULT_GROWTH,
    DEFAULT_LIMIT_TOL,
    DEFAULT_SAT_LEVEL,
    DEFAULT_UNIFORM_TOL,
    AllocationSpec,
    ArrivalRates,
    StructureReport,
    _check_integer,
    _check_real,
    _levels,
    _rates_over,
    _state_grid,
    as_rates,
    check_partially_decreasing,
    check_uniform_limits,
    lower_partial_limit,
)
from .ctmc import (
    DEFAULT_RESIDUAL_TOL,
    DEFAULT_START_BOX,
    DEFAULT_TAIL_TOL,
    STATE_CAP,
    adaptive_stationary,
    saturated_average,
)
from .errors import (
    NoConvergence,
    PermutationCapExceeded,
    SaturationNotConverged,
)


class Label(str, Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    INDETERMINATE = "indeterminate"


class SystemLabel(str, Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    BOUNDARY_INDETERMINATE = "boundary-indeterminate"
    HYPOTHESES_UNVERIFIED = "hypotheses-unverified"


# smallest admissible value of each integer knob; every other knob is a
# float that must be finite and positive (``growth``: above 1)
_INT_FLOORS = {"sat_level": 1, "pd_box": 1, "start_box": 1, "state_cap": 1,
               "permutation_cap": 1, "descent_steps": 0, "bounds_probe_cap": 0}


@dataclass(frozen=True)
class Tolerances:
    """All numeric knobs of the classification pipeline; everything explicit.

    Values are numbers, checked and normalized on construction by the rule
    of the library argument of the same name: an integer at least the knob's
    floor, or a finite real above 0 (``growth``: above 1).  A bool or a
    numeric string raises ``ValueError``.  Float knobs are stored as floats;
    an integer knob also takes an integral float, such as a JSON ``32.0``,
    and is stored as an int.  ``pd_box`` may also be ``None`` (the default
    box).  The CLI parses ``--tol`` text into numbers before it gets here.
    """

    margins_tol: float = 1e-4
    limit_tol: float = DEFAULT_LIMIT_TOL
    tail_tol: float = DEFAULT_TAIL_TOL
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    uniform_tol: float = DEFAULT_UNIFORM_TOL
    sat_level: int = DEFAULT_SAT_LEVEL
    growth: float = DEFAULT_GROWTH
    pd_box: Optional[int] = None
    start_box: int = DEFAULT_START_BOX
    state_cap: int = STATE_CAP
    permutation_cap: int = 6
    descent_steps: int = 20
    bounds_probe_cap: int = 8

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None and f.name == "pd_box":
                continue
            floor = _INT_FLOORS.get(f.name)
            if floor is None:
                v = _check_real(f"tolerance {f.name}", v, 1.0 if f.name == "growth" else 0.0)
            else:
                v = int(v) if isinstance(v, float) and v.is_integer() else v
                _check_integer(f"tolerance {f.name}", v, floor)
                v = int(v)
            object.__setattr__(self, f.name, v)

    def replace(self, **kw) -> "Tolerances":
        """A copy with the given knobs changed; an unknown knob or a bad
        value raises ``ValueError``."""
        data = asdict(self)
        for k in kw:
            if k not in data:
                raise ValueError(f"unknown tolerance {k!r}")
        data.update(kw)
        return Tolerances(**data)


def _record(pairs) -> dict:
    """The ``asdict`` factory of the JSON records: enums by value, tuples as
    lists, and a stage's ``lam`` under the key ``"lambda"``."""
    def plain(v):
        if isinstance(v, Enum):
            return v.value
        return [plain(x) for x in v] if isinstance(v, (tuple, list)) else v
    return {"lambda" if k == "lam" else k: plain(v) for k, v in pairs}


@dataclass
class StageRecord:
    """One link of the sequential chain: queue `queue` at position `position`
    under the scanned permutation, its arrival rate, the saturated average
    service rate it faces, and the resulting margin."""

    position: int
    queue: int
    lam: float
    avg_rate: float
    margin: float
    trustworthy: bool

    def as_dict(self) -> dict:
        return asdict(self, dict_factory=_record)


@dataclass
class PrefixScan:
    sigma: tuple
    n_max: int
    stages: list


@dataclass
class QueueBounds:
    queue: int
    lower: float
    upper: float
    label: Label


@dataclass
class Certificate:
    """The inequalities behind a verdict, each with both numeric sides.

    ``sigma`` is the scanned permutation and ``n`` the depth of its stable
    prefix.  ``stages`` hold the prefix inequalities ``lam < avg``; records
    past ``n`` mark where the chain broke and claim nothing.  ``excess``
    holds the saturated inequalities ``lam > avg``.  For a descent witness
    (``witness_rates`` set), ``excess`` and ``witness_rates`` belong to the
    witness point below the queried one, while ``stages`` keep the figures
    of the scan at the queried point; :func:`verify_certificate` replays
    both at the witness point.
    """

    kind: str                       # "sequential" | "saturation-witness" | "envelope-bounds"
    sigma: Optional[tuple] = None
    n: Optional[int] = None
    stages: list = field(default_factory=list)          # StageRecord, inequalities lam < avg
    excess: list = field(default_factory=list)          # StageRecord, inequalities lam > avg
    bounds: list = field(default_factory=list)          # QueueBounds
    witness_rates: Optional[tuple] = None               # descent fallback point
    descent_r: Optional[float] = None

    def as_dict(self) -> dict:
        return asdict(self, dict_factory=_record)


@dataclass
class StabilityVerdict:
    per_queue: tuple
    system: SystemLabel
    certificate: Optional[Certificate]
    margins_tol: float
    margin: Optional[float] = None
    notes: tuple = ()
    tolerances: Optional[Tolerances] = None

    def to_record(self) -> dict:
        return asdict(self, dict_factory=_record)


@dataclass
class RegionSample:
    rates: tuple
    verdict: Optional[StabilityVerdict]
    wall_time: float
    error: Optional[str] = None

    @property
    def region(self) -> str:
        return region_label(self.verdict) if self.verdict else "ERR"


def region_label(verdict: StabilityVerdict) -> str:
    """Two-queue region code: S (both stable), S1/S2 (only that queue),
    U (both unstable), B (anything indeterminate)."""
    labels = verdict.per_queue
    if any(l is Label.INDETERMINATE for l in labels):
        return "B"
    if all(l is Label.STABLE for l in labels):
        return "S"
    if all(l is Label.UNSTABLE for l in labels):
        return "U"
    if len(labels) == 2:
        return "S1" if labels[0] is Label.STABLE else "S2"
    stable = "".join(str(i + 1) for i, l in enumerate(labels) if l is Label.STABLE)
    return f"S{stable}"


@dataclass
class _LValue:
    value: float
    trustworthy: bool


class StabilityEngine:
    """Shared-state classifier for one allocation.

    The saturated limits ``ell(prefix, queue, u)`` behind every prefix solve
    depend on the allocation alone, never on the arrival rates.  The engine
    keeps them in one store, :meth:`_limits`: one array per ``(prefix,
    queue)`` over the largest cube asked for so far, and builds every
    generator and saturated average from slices of it.  An array fills on
    first use and grows only when a solve needs a larger box, with one
    :func:`lower_partial_limit` call for the states a growth adds, so the
    store's memory is bounded by the largest box solved.  Structure checks
    and envelope bounds are cached too, so build one engine per allocation
    and reuse it across a grid.

    The stationary solves are the only work that depends on the arrival
    rates.  The engine keeps the saturated prefix laws of one rate vector,
    and the averages read from them, until a call arrives with another
    vector; so every scan, witness test and :meth:`prefix_law` call at one
    point solves each prefix once, and the memory held is the limit store
    plus one point's laws.  classify() itself is pure: results depend only
    on (rates, spec, tolerances).
    """

    def __init__(self, spec: AllocationSpec, tolerances: Tolerances = Tolerances()):
        self.spec = spec
        self.tol = tolerances
        self._limit_arrays = {}  # (prefix, queue) -> limits over the largest cube
        self._structure = None
        self._envelopes = {}
        self._point = None  # the rate vector whose laws are kept
        self._laws = {}     # prefix -> (dist, SolveReport), or the NoConvergence message
        self._lvals = {}    # (prefix, queue) -> _LValue

    # -- saturated limit plumbing ------------------------------------------

    def _ell(self, prefix: frozenset, queue: int, U) -> np.ndarray:
        return lower_partial_limit(self.spec, prefix, queue, U, sat_level=self.tol.sat_level,
                                   growth=self.tol.growth, limit_tol=self.tol.limit_tol)

    def _limits(self, prefix: frozenset, queue: int, box: tuple) -> np.ndarray:
        """``ell(prefix, queue, u)`` at every state ``u`` of ``box``, in state
        order: a slice of the stored array, grown first to a cube that holds
        ``box``, by one limit call for the states the growth adds."""
        key = (prefix, queue)
        old = self._limit_arrays.get(key)
        side = max(box, default=0)
        if old is None or (prefix and old.shape[0] <= side):
            shape = (side + 1,) * len(prefix)
            coords = _state_grid(shape)
            arr, fresh = np.empty(shape), slice(None)
            if old is not None:
                fresh = (coords >= old.shape[0]).any(axis=1)
                arr[tuple(slice(n) for n in old.shape)] = old
            arr.reshape(-1)[fresh] = self._ell(prefix, queue, coords[fresh])
            self._limit_arrays[key] = old = arr
        return np.ravel(old[tuple(slice(t + 1) for t in box)])

    def _at(self, rates) -> ArrivalRates:
        """``rates`` made the kept point; a new vector must have one rate per
        queue, and drops the old one's laws.  The key is the normalized
        tuple, so a plain tuple and an ``ArrivalRates`` of the same rates agree."""
        rates = as_rates(rates)
        if rates.rates != self._point:
            self._point = as_rates(rates, self.spec.n_queues).rates
            self._laws = {}
            self._lvals = {}
        return rates

    def prefix_law(self, rates, prefix) -> tuple:
        """Stationary law of the saturated prefix process and its solve report.

        The queues in ``prefix`` (in increasing order) arrive at their rates
        in ``rates`` and are served at their saturated limits with every
        other queue at infinity, read from the engine's limit store.  The
        box escalation follows the engine's tolerances; an escalation that
        does not converge, or a box whose stationary solve misses
        ``residual_tol``, raises :class:`NoConvergence`.  The outcome is
        kept with the point's other laws: a repeated call returns the same
        law, or raises :class:`NoConvergence` again with the same message
        (the unconverged law itself is not kept).
        """
        rates, prefix, n = self._at(rates), tuple(prefix), self.spec.n_queues
        if not set(prefix) <= set(range(n)):
            raise ValueError(f"prefix {sorted(prefix)} holds a queue outside range({n})")
        for q in prefix:  # in range already: True and 1.0 would hit prefix {1}'s kept law
            _check_integer("queue", q, 0)
        prefix = frozenset(prefix)
        law = self._laws.get(prefix)
        if law is None:
            order = tuple(sorted(prefix))
            try:
                law = adaptive_stationary(
                    tuple(rates[q] for q in order),
                    lambda box: np.stack([self._limits(prefix, q, box) for q in order], 1),
                    death_bound=self.spec.bound,
                    tail_tol=self.tol.tail_tol,
                    residual_tol=self.tol.residual_tol,
                    start_box=self.tol.start_box,
                    state_cap=self.tol.state_cap,
                )
            except NoConvergence as exc:
                self._laws[prefix] = str(exc)
                raise
            self._laws[prefix] = law
        if isinstance(law, str):
            raise NoConvergence(law)
        return law

    def _L(self, rates, prefix: frozenset, queue: int) -> _LValue:
        rates = self._at(rates)
        key = (prefix, queue)
        got = self._lvals.get(key)
        if got is not None:
            return got
        if not prefix:
            val = _LValue(float(self._limits(prefix, queue, ())[0]), trustworthy=True)
        else:
            try:
                dist, report = self.prefix_law(rates, prefix)
            except NoConvergence:
                val = _LValue(0.0, trustworthy=False)
            else:
                value = saturated_average(dist.masses, self._limits(prefix, queue, dist.box))
                val = _LValue(value, trustworthy=report.certified)
        self._lvals[key] = val
        return val

    # -- structure gates -----------------------------------------------------

    def structure(self) -> StructureReport:
        """The partial-monotonicity report on ``pd_box``, with the
        uniform-limit gate's ``uniform_limits``, ``worst_residual`` and
        ``uniform_by_construction``; the monotonicity gate runs first."""
        if self._structure is None:
            pd = check_partially_decreasing(self.spec, box=self.tol.pd_box)
            ul = check_uniform_limits(self.spec, tol=self.tol.uniform_tol)
            self._structure = replace(pd, uniform_limits=ul.uniform_limits,
                                      worst_residual=ul.worst_residual,
                                      uniform_by_construction=ul.uniform_by_construction)
        return self._structure

    # -- envelope (model-free) bounds ----------------------------------------

    def _envelope(self, i: int, kind: str) -> float:
        key = (i, kind)
        if key in self._envelopes:
            return self._envelopes[key]
        n, tol = self.spec.n_queues, self.tol
        pd_ok = self.structure().partially_decreasing
        # Monotone in the other coordinates, the inner extremum over them sits
        # at their saturation limit (lower) or at zero (upper); otherwise the
        # other coordinates run over a probe grid and the own levels.
        prev = np.inf
        for r in itertools.islice(_levels(tol.sat_level, tol.growth), 49):  # 48 steps
            own = sorted({r, r + 1, 2 * r})
            if pd_ok and kind == "lower":
                cur = float(np.min(self._ell(frozenset({i}), i, np.array([own], dtype=object).T)))
            else:
                others = [0] if pd_ok else [*range(tol.bounds_probe_cap + 1), *own]
                v = _rates_over(self.spec, [i], [own if j == i else others for j in range(n)])[0]
                cur = float(v.min() if kind == "lower" else v.max())
            if abs(cur - prev) < tol.limit_tol:
                self._envelopes[key] = cur
                return cur
            prev = cur
        raise SaturationNotConverged(
            f"envelope {kind} bound for queue {i} did not stabilize"
        )

    def general_bounds(self, rates) -> list:
        """Per-queue verdicts from the saturated rate envelopes alone.

        Queue i is stable when its arrival rate sits below the worst-case
        envelope with margin, transient when above the best-case envelope.
        Valid for arbitrary bounded allocations.
        """
        rates = as_rates(rates, self.spec.n_queues)
        out = []
        for i in range(self.spec.n_queues):
            lo = self._envelope(i, "lower")
            hi = self._envelope(i, "upper")
            if rates[i] < lo - self.tol.margins_tol:
                lab = Label.STABLE
            elif rates[i] > hi + self.tol.margins_tol:
                lab = Label.UNSTABLE
            else:
                lab = Label.INDETERMINATE
            out.append(QueueBounds(i, lo, hi, lab))
        return out

    # -- sequential machinery --------------------------------------------------

    def sequential_prefix(self, rates, sigma) -> PrefixScan:
        """Longest stable prefix of the permutation: consecutive queues whose
        arrival rate clears the saturated average rate with margin."""
        rates, sigma, n = as_rates(rates, self.spec.n_queues), tuple(sigma), self.spec.n_queues
        if sorted(sigma) != list(range(n)):
            raise ValueError(f"sigma {sigma} is not a permutation of range({n})")
        for q in sigma:  # True and 1.0 sort as 1, and would hit queue 1's kept values
            _check_integer("queue", q, 0)
        stages = []
        n_max = 0
        for pos in range(n):
            queue = sigma[pos]
            prefix = frozenset(sigma[:pos])
            lval = self._L(rates, prefix, queue)
            margin = lval.value - rates[queue]
            stages.append(StageRecord(pos, queue, rates[queue], lval.value,
                                      margin, lval.trustworthy))
            if margin > self.tol.margins_tol and lval.trustworthy:
                n_max = pos + 1
            else:
                break
        return PrefixScan(sigma, n_max, stages)

    def _excess(self, rates, sigma, n: int):
        """Saturation witness test behind a scan of ``sigma`` whose first
        ``n`` queues are stable with margin: every later queue strictly
        exceeds its saturated average rate.

        Returns the list of excess records, or None when no witness."""
        prefix = frozenset(sigma[:n])
        excess = []
        for pos in range(n, self.spec.n_queues):
            queue = sigma[pos]
            lval = self._L(rates, prefix, queue)
            if not lval.trustworthy:
                return None
            gap = rates[queue] - lval.value
            if gap <= self.tol.margins_tol:
                return None
            excess.append(StageRecord(pos, queue, rates[queue], lval.value,
                                      gap, lval.trustworthy))
        return excess

    def _witness(self, rates, scans):
        """The first saturation witness ``(sigma, n, excess)``, trying the
        scans in order, each at depths ``n = 0 .. min(n_max, N - 1)``; None
        when there is none."""
        for scan in scans:
            for n in range(min(scan.n_max, self.spec.n_queues - 1) + 1):
                excess = self._excess(rates, scan.sigma, n)
                if excess is not None:
                    return scan.sigma, n, excess
        return None

    # -- classification ---------------------------------------------------------

    def classify(self, rates) -> StabilityVerdict:
        rates, nq = as_rates(rates, self.spec.n_queues), self.spec.n_queues
        if nq > self.tol.permutation_cap:
            raise PermutationCapExceeded(
                f"{nq} queues exceeds the permutation search cap "
                f"{self.tol.permutation_cap}; use general_bounds instead"
            )
        structure = self.structure()
        pd_ok, ul_ok = structure.partially_decreasing, structure.uniform_limits
        t1 = self.general_bounds(rates)
        notes = []
        if structure.uniform_by_construction:
            notes.append("uniform limits guaranteed by construction")

        if not pd_ok:
            notes.append(
                f"partial monotonicity fails at {structure.pd_counterexample}; "
                "envelope bounds only"
            )
            per_queue = tuple(b.label for b in t1)
            system = self._aggregate_system(per_queue, pd_ok=False)
            cert = Certificate(kind="envelope-bounds", bounds=t1)
            return StabilityVerdict(per_queue, system, cert, self.tol.margins_tol,
                                    margin=self._bounds_margin(rates, t1),
                                    notes=tuple(notes), tolerances=self.tol)

        perms = list(itertools.permutations(range(nq)))
        scans = {}
        for sigma in perms:
            scan = self.sequential_prefix(rates, sigma)
            scans[sigma] = scan
            if scan.n_max == nq:
                cert = Certificate(kind="sequential", sigma=sigma, n=nq,
                                   stages=scan.stages)
                per_queue = tuple(Label.STABLE for _ in range(nq))
                margin = min(s.margin for s in scan.stages)
                return StabilityVerdict(per_queue, SystemLabel.STABLE, cert,
                                        self.tol.margins_tol, margin=margin,
                                        notes=tuple(notes), tolerances=self.tol)

        witness = None
        if ul_ok:
            witness = self._witness(rates, scans.values())
            witness = (*witness, None, None) if witness else self._descend(rates, perms)
        else:
            notes.append("uniform-limit check failed: refusing instability claims")

        stable_queues = set()
        for sigma, scan in scans.items():
            stable_queues.update(sigma[:scan.n_max])
        unstable_queues = set()
        cert = None
        margin = None
        if witness is not None:
            sigma_w, n_w, excess, w_rates, w_r = witness
            unstable_queues.update(sigma_w[n_w:])
            stages = scans[sigma_w].stages[:n_w]
            cert = Certificate(kind="saturation-witness", sigma=sigma_w, n=n_w,
                               stages=stages, excess=excess,
                               witness_rates=w_rates, descent_r=w_r)
            candidates = [s.margin for s in excess]
            candidates += [s.margin for s in stages]
            margin = min(candidates) if candidates else None

        for b in t1:
            if b.label is Label.STABLE:
                stable_queues.add(b.queue)
            elif b.label is Label.UNSTABLE:
                unstable_queues.add(b.queue)

        conflict = stable_queues & unstable_queues
        if conflict:
            notes.append(f"conflicting evidence for queues {sorted(conflict)}")
            stable_queues -= conflict
            unstable_queues -= conflict

        per_queue = tuple(
            Label.STABLE if q in stable_queues
            else Label.UNSTABLE if q in unstable_queues
            else Label.INDETERMINATE
            for q in range(nq)
        )
        system = self._aggregate_system(per_queue, pd_ok=True, ul_ok=ul_ok)
        if cert is None:
            best_sigma = max(scans, key=lambda s: scans[s].n_max)
            cert = Certificate(kind="sequential", sigma=best_sigma,
                               n=scans[best_sigma].n_max,
                               stages=scans[best_sigma].stages, bounds=t1)
        return StabilityVerdict(per_queue, system, cert, self.tol.margins_tol,
                                margin=margin, notes=tuple(notes),
                                tolerances=self.tol)

    def _descend(self, rates: ArrivalRates, perms):
        """Search below the given point for a saturation witness; instability
        there transfers upward by stochastic dominance."""
        for k in range(self.tol.descent_steps):
            r = self.tol.margins_tol * (2.0 ** k)
            if r >= min(rates):
                return None
            tilde = as_rates(tuple(l - r for l in rates))
            scans = (self.sequential_prefix(tilde, s) for s in perms)
            witness = self._witness(tilde, scans)
            if witness is not None:
                return (*witness, tilde.rates, r)
        return None

    def _aggregate_system(self, per_queue, pd_ok: bool, ul_ok: bool = True) -> SystemLabel:
        if all(l is Label.STABLE for l in per_queue):
            return SystemLabel.STABLE
        if any(l is Label.UNSTABLE for l in per_queue):
            return SystemLabel.UNSTABLE
        if not pd_ok or not ul_ok:
            return SystemLabel.HYPOTHESES_UNVERIFIED
        return SystemLabel.BOUNDARY_INDETERMINATE

    def _bounds_margin(self, rates, t1) -> Optional[float]:
        gaps = []
        for b in t1:
            if b.label is Label.STABLE:
                gaps.append(b.lower - rates[b.queue])
            elif b.label is Label.UNSTABLE:
                gaps.append(rates[b.queue] - b.upper)
        return min(gaps) if gaps else None

    # -- sweeps ------------------------------------------------------------------

    def sweep(self, rate_grid) -> list:
        """Classify every grid point; failures are recorded, not raised, with
        the point as given."""
        samples = []
        for point in rate_grid:
            start = time.perf_counter()
            try:
                verdict = self.classify(point)
                samples.append(RegionSample(tuple(as_rates(point).rates), verdict,
                                            time.perf_counter() - start))
            except Exception as exc:  # per-point capture, sweep continues
                samples.append(RegionSample(point, None,
                                            time.perf_counter() - start,
                                            error=f"{type(exc).__name__}: {exc}"))
        return samples


def verify_certificate(spec: AllocationSpec, rates, verdict: StabilityVerdict) -> bool:
    """Replay a definite verdict's certificate with the engine's own scan,
    witness test and envelope bounds, on a fresh engine whose solves start
    from twice the verdict's start box.

    The certificate must support the label: ``sigma[:n]`` and the STABLE
    bounds cover every queue (STABLE), or it has excess records or an
    UNSTABLE bound (UNSTABLE); ``sigma``, when set, is a permutation and
    ``0 <= n <= N``.  At its rates (the witness rates of a descent witness,
    ``rates`` otherwise) the scan of ``sigma`` must reach depth ``n``, the
    witness test must hold after it when there are excess records, and
    every envelope bound must keep its label.  A definite verdict without a
    certificate fails; an indeterminate one claims nothing and passes.
    """
    cert, nq = verdict.certificate, spec.n_queues
    if verdict.system not in (SystemLabel.STABLE, SystemLabel.UNSTABLE):
        return True
    if cert is None:
        return False
    sigma = tuple(cert.sigma or ())
    if sigma and (sorted(sigma) != list(range(nq)) or cert.n not in range(nq + 1)):
        return False
    if verdict.system is SystemLabel.STABLE:
        stable = {b.queue for b in cert.bounds if b.label is Label.STABLE}
        supported = stable | set(sigma[:cert.n]) == set(range(nq))
    else:
        supported = cert.excess or any(b.label is Label.UNSTABLE for b in cert.bounds)
    if not supported:
        return False
    tol = verdict.tolerances or Tolerances()
    engine = StabilityEngine(spec, tol.replace(start_box=2 * tol.start_box))
    at = as_rates(cert.witness_rates or rates, nq)
    if sigma:
        if engine.sequential_prefix(at, sigma).n_max < cert.n:
            return False
        if cert.excess and not engine._excess(at, sigma, cert.n):
            return False
    if not cert.bounds:
        return True
    labels = [b.label for b in engine.general_bounds(at)]
    return all(labels[b.queue] is b.label for b in cert.bounds)
