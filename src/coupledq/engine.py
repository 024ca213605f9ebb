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
import math
import time
from dataclasses import dataclass, field, fields, asdict
from enum import Enum
from typing import Optional

import numpy as np

from .allocation import (
    DEFAULT_GROWTH,
    DEFAULT_LIMIT_TOL,
    DEFAULT_SAT_LEVEL,
    AllocationSpec,
    ArrivalRates,
    SaturationContext,
    StructureReport,
    _state_grid,
    as_rates,
    check_partially_decreasing,
    check_uniform_limits,
    default_pd_box,
    lower_partial_limit,
)
from .ctmc import (
    DEFAULT_RESIDUAL_TOL,
    DEFAULT_START_BOX,
    DEFAULT_TAIL_TOL,
    STATE_CAP,
    LimitTable,
    TabulatedDeaths,
    adaptive_stationary,
)
from .errors import (
    NoConvergence,
    NoUniformLimit,
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

    Values are checked and normalized on construction: a number or numeric
    string becomes a float, or an int for the integer knobs, and a value out
    of range raises ``ValueError``.  ``pd_box`` may also be ``None`` (the
    default box).
    """

    margins_tol: float = 1e-4
    limit_tol: float = DEFAULT_LIMIT_TOL
    tail_tol: float = DEFAULT_TAIL_TOL
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    uniform_tol: float = 1e-6
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
            try:
                num = math.nan if isinstance(v, bool) else float(v)
            except (TypeError, ValueError):
                num = math.nan
            floor = _INT_FLOORS.get(f.name)
            if floor is None:
                low = 1.0 if f.name == "growth" else 0.0
                ok = math.isfinite(num) and num > low
                need = f"a finite number above {low:g}"
            else:
                ok = num.is_integer() and num >= floor
                need = f"an integer >= {floor}"
            if not ok:
                raise ValueError(f"tolerance {f.name} must be {need}, got {v!r}")
            if floor is not None:
                num = v if isinstance(v, int) else int(num)
            object.__setattr__(self, f.name, num)

    def replace(self, **kw) -> "Tolerances":
        """A copy with the given knobs changed; an unknown knob or a bad
        value raises ``ValueError``."""
        data = asdict(self)
        for k in kw:
            if k not in data:
                raise ValueError(f"unknown tolerance {k!r}")
        data.update(kw)
        return Tolerances(**data)


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

    def as_dict(self):
        return {
            "position": self.position,
            "queue": self.queue,
            "lambda": self.lam,
            "avg_rate": self.avg_rate,
            "margin": self.margin,
            "trustworthy": self.trustworthy,
        }


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
    prefix.  ``stages`` hold the prefix inequalities ``lam < avg`` and
    ``excess`` the saturated ones ``lam > avg``.  For a descent witness
    (``witness_rates`` set), ``excess`` and ``witness_rates`` belong to the
    witness point below the queried one, while ``stages`` keep the figures
    of the scan at the queried point; :func:`verify_certificate` rechecks
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

    def as_dict(self):
        return {
            "kind": self.kind,
            "sigma": list(self.sigma) if self.sigma is not None else None,
            "n": self.n,
            "stages": [s.as_dict() for s in self.stages],
            "excess": [s.as_dict() for s in self.excess],
            "bounds": [
                {"queue": b.queue, "lower": b.lower, "upper": b.upper,
                 "label": b.label.value}
                for b in self.bounds
            ],
            "witness_rates": list(self.witness_rates) if self.witness_rates else None,
            "descent_r": self.descent_r,
        }


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
        return {
            "per_queue": [l.value for l in self.per_queue],
            "system": self.system.value,
            "margin": self.margin,
            "margins_tol": self.margins_tol,
            "certificate": self.certificate.as_dict() if self.certificate else None,
            "notes": list(self.notes),
            "tolerances": asdict(self.tolerances) if self.tolerances else None,
        }


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
    unstable_prefix: bool = False


class _PointCache:
    """Per-arrival-rate-vector cache of saturated prefix solves, the only
    lambda-dependent work; the limits they read live in the engine's tables."""

    def __init__(self):
        self.laws = {}    # frozenset -> (dist, SolveReport), or None when unconverged
        self.lvals = {}   # (frozenset, queue) -> _LValue


class StabilityEngine:
    """Shared-state classifier for one allocation.

    The saturated limits ``ell(prefix, queue, u)`` behind every prefix solve
    depend on the allocation alone, never on the arrival rates.  The engine
    keeps one :class:`LimitTable` per prefix, one array per queue over the
    largest cube solved so far, and builds every generator and saturated
    average from slices of it.  Tables fill on first use and grow only when
    a solve needs a larger box, so their memory is bounded by the largest
    box solved.  Saturation contexts, structure checks and envelope bounds
    are cached too; only the stationary solves are redone per point, so
    build one engine per allocation and reuse it across a grid.  classify()
    itself is pure: results depend only on (rates, spec, tolerances).
    """

    def __init__(self, spec: AllocationSpec, tolerances: Tolerances = Tolerances()):
        self.spec = spec
        self.tol = tolerances
        self._contexts = {}
        self._tables = {}   # prefix -> LimitTable keyed by queue
        self._structure = None
        self._envelopes = {}

    # -- saturated limit plumbing ------------------------------------------

    def _ctx(self, prefix: frozenset) -> SaturationContext:
        ctx = self._contexts.get(prefix)
        if ctx is None:
            ctx = SaturationContext(
                prefix,
                sat_level=self.tol.sat_level,
                growth_factor=self.tol.growth,
                limit_tol=self.tol.limit_tol,
            )
            self._contexts[prefix] = ctx
        return ctx

    def _ell(self, prefix: frozenset, queue: int, u) -> float:
        return lower_partial_limit(self.spec, self._ctx(prefix), queue, u)

    def _table(self, prefix: frozenset) -> LimitTable:
        table = self._tables.get(prefix)
        if table is None:
            table = LimitTable(lambda q, u, _p=prefix: self._ell(_p, q, u), len(prefix))
            self._tables[prefix] = table
        return table

    def prefix_law(self, rates, prefix) -> tuple:
        """Stationary law of the saturated prefix process and its solve report.

        The queues in ``prefix`` (in increasing order) arrive at their rates
        in ``rates`` and are served at their saturated limits with every
        other queue at infinity, read from the engine's limit tables.  The
        box escalation follows the engine's tolerances; an escalation that
        does not converge raises :class:`NoConvergence`.
        """
        rates = as_rates(rates)
        prefix = frozenset(prefix)
        order = tuple(sorted(prefix))
        return adaptive_stationary(
            tuple(rates[q] for q in order),
            TabulatedDeaths(self._table(prefix), order),
            death_bound=self.spec.bound,
            tail_tol=self.tol.tail_tol,
            residual_tol=self.tol.residual_tol,
            start_box=self.tol.start_box,
            state_cap=self.tol.state_cap,
        )

    def _L(self, rates: ArrivalRates, prefix: frozenset, queue: int,
           cache: _PointCache) -> _LValue:
        key = (prefix, queue)
        got = cache.lvals.get(key)
        if got is not None:
            return got
        table = self._table(prefix)
        if not prefix:
            val = _LValue(float(table.values(queue, ())[0]), trustworthy=True)
            cache.lvals[key] = val
            return val
        if prefix not in cache.laws:
            try:
                cache.laws[prefix] = self.prefix_law(rates, prefix)
            except NoConvergence:
                cache.laws[prefix] = None
        law = cache.laws[prefix]
        if law is None:
            val = _LValue(0.0, trustworthy=False, unstable_prefix=True)
        else:
            dist, report = law
            value = float(dist.masses @ table.values(queue, dist.box))
            val = _LValue(value, trustworthy=report.certified)
        cache.lvals[key] = val
        return val

    # -- structure gates -----------------------------------------------------

    def structure(self) -> tuple:
        """(partially_decreasing_ok, uniform_limits_ok, merged report)."""
        if self._structure is None:
            box = self.tol.pd_box or default_pd_box(self.spec.n_queues)
            pd = check_partially_decreasing(self.spec, box=box)
            try:
                ul = check_uniform_limits(self.spec, tol=self.tol.uniform_tol)
                ul_ok = bool(ul.uniform_limits)
            except NoUniformLimit as exc:
                ul = exc.report or StructureReport(uniform_limits=False)
                ul_ok = False
            merged = StructureReport(
                probe_box=pd.probe_box,
                partially_decreasing=pd.partially_decreasing,
                pd_counterexample=pd.pd_counterexample,
                uniform_limits=ul_ok,
                worst_residual=ul.worst_residual,
                guaranteed_by_shape=ul.guaranteed_by_shape,
            )
            self._structure = (bool(pd.partially_decreasing), ul_ok, merged)
        return self._structure

    # -- envelope (model-free) bounds ----------------------------------------

    def _envelope(self, i: int, kind: str) -> float:
        key = (i, kind)
        if key in self._envelopes:
            return self._envelopes[key]
        spec, n = self.spec, self.spec.n_queues
        pick = np.min if kind == "lower" else np.max
        pd_ok = self.structure()[0]
        own_prefix = frozenset({i})
        # Monotone in the other coordinates, the inner extremum over them sits
        # at their saturation limit (lower) or at zero (upper); otherwise the
        # other coordinates run over a probe grid and the own levels.
        probe = list(range(self.tol.bounds_probe_cap + 1))

        def level_val(r):
            own = sorted({r, r + 1, 2 * r})
            if pd_ok and kind == "lower":
                return min(self._ell(own_prefix, i, (v,)) for v in own)
            others = [0] if pd_ok else probe + own
            X = _state_grid([own if j == i else others for j in range(n)])
            return float(pick(spec.rates_at(i, X)))

        r = self.tol.sat_level
        prev = level_val(r)
        for _ in range(48):
            r = max(r + 1, math.ceil(r * self.tol.growth))
            cur = level_val(r)
            if abs(cur - prev) < max(self.tol.limit_tol, 1e-9):
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
        rates = as_rates(rates)
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

    def sequential_prefix(self, rates, sigma, cache: Optional[_PointCache] = None) -> PrefixScan:
        """Longest stable prefix of the permutation: consecutive queues whose
        arrival rate clears the saturated average rate with margin."""
        rates = as_rates(rates)
        sigma = tuple(sigma)
        cache = cache or _PointCache()
        n = self.spec.n_queues
        stages = []
        n_max = 0
        for pos in range(n):
            queue = sigma[pos]
            prefix = frozenset(sigma[:pos])
            lval = self._L(rates, prefix, queue, cache)
            margin = lval.value - rates[queue]
            stages.append(StageRecord(pos, queue, rates[queue], lval.value,
                                      margin, lval.trustworthy))
            if margin > self.tol.margins_tol and lval.trustworthy:
                n_max = pos + 1
            else:
                break
        return PrefixScan(sigma, n_max, stages)

    def _unstable_at(self, rates, sigma, n: int, cache: _PointCache):
        """Saturation witness test: first n queues stable with margin, all
        later queues strictly exceeding their saturated average rate.

        Returns the list of excess records, or None when no witness."""
        rates = as_rates(rates)
        sigma = tuple(sigma)
        nq = self.spec.n_queues
        scan = self.sequential_prefix(rates, sigma, cache)
        if scan.n_max < n:
            return None
        prefix = frozenset(sigma[:n])
        excess = []
        for pos in range(n, nq):
            queue = sigma[pos]
            lval = self._L(rates, prefix, queue, cache)
            if not lval.trustworthy:
                return None
            gap = rates[queue] - lval.value
            if gap <= self.tol.margins_tol:
                return None
            excess.append(StageRecord(pos, queue, rates[queue], lval.value,
                                      gap, lval.trustworthy))
        return excess

    # -- classification ---------------------------------------------------------

    def classify(self, rates) -> StabilityVerdict:
        rates = as_rates(rates)
        nq = self.spec.n_queues
        if len(rates) != nq:
            raise ValueError("rate vector length mismatch")
        if nq > self.tol.permutation_cap:
            raise PermutationCapExceeded(
                f"{nq} queues exceeds the permutation search cap "
                f"{self.tol.permutation_cap}; use general_bounds instead"
            )
        pd_ok, ul_ok, structure = self.structure()
        t1 = self.general_bounds(rates)
        notes = []
        if structure.guaranteed_by_shape:
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

        cache = _PointCache()
        perms = list(itertools.permutations(range(nq)))
        scans = {}
        for sigma in perms:
            scan = self.sequential_prefix(rates, sigma, cache)
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
            for sigma in perms:
                for n in range(scans[sigma].n_max + 1):
                    excess = self._unstable_at(rates, sigma, n, cache)
                    if excess is not None:
                        witness = (sigma, n, excess, None, None)
                        break
                if witness:
                    break
            if witness is None:
                witness = self._descend(rates, perms)
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
            stage_part = scans.get(sigma_w)
            stages = stage_part.stages[:n_w] if stage_part else []
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
        nq = self.spec.n_queues
        for k in range(self.tol.descent_steps):
            r = self.tol.margins_tol * (2.0 ** k)
            if r >= min(rates) :
                return None
            tilde = tuple(l - r for l in rates)
            cache = _PointCache()
            for sigma in perms:
                for n in range(nq):
                    excess = self._unstable_at(tilde, sigma, n, cache)
                    if excess is not None:
                        return (sigma, n, excess, tilde, r)
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
        """Classify every grid point; failures are recorded, not raised."""
        samples = []
        for point in rate_grid:
            start = time.perf_counter()
            try:
                verdict = self.classify(point)
                samples.append(RegionSample(tuple(as_rates(point).rates), verdict,
                                            time.perf_counter() - start))
            except Exception as exc:  # per-point capture, sweep continues
                samples.append(RegionSample(tuple(float(x) for x in point), None,
                                            time.perf_counter() - start,
                                            error=f"{type(exc).__name__}: {exc}"))
        return samples


def verify_certificate(spec: AllocationSpec, rates, verdict: StabilityVerdict) -> bool:
    """Recheck every certificate inequality on a fresh engine whose solves
    start from twice the verdict's start box.

    The inequalities are rechecked at the certificate's rates: the witness
    rates of a descent witness, ``rates`` otherwise.  (A descent certificate's
    stage records keep the queried point's figures.)  A recomputed average
    that is not certified confirms nothing.
    """
    cert = verdict.certificate
    if verdict.system not in (SystemLabel.STABLE, SystemLabel.UNSTABLE):
        return True
    if cert is None or cert.kind == "envelope-bounds":
        return True
    tol = verdict.tolerances or Tolerances()
    engine = StabilityEngine(spec, tol.replace(start_box=2 * tol.start_box))
    at = as_rates(cert.witness_rates or rates)
    cache = _PointCache()
    for rec in cert.stages:
        L = engine._L(at, frozenset(cert.sigma[:rec.position]), rec.queue, cache)
        if not (L.trustworthy and at[rec.queue] < L.value - tol.margins_tol):
            return False
    for rec in cert.excess:
        L = engine._L(at, frozenset(cert.sigma[:cert.n]), rec.queue, cache)
        if not (L.trustworthy and at[rec.queue] > L.value + tol.margins_tol):
            return False
    return True
