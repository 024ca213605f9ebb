"""The four benchmark workloads: their inputs, their ops and their checks.

Parent side (no ``coupledq`` import): ``rounds`` turns the run seed into ops,
and ``Checker`` compares outputs with the references recorded at the seed
commit under ``refs/``.  Worker side: ``setup`` and ``run_op``
call only the public API that the CLI subcommands call.

Every workload is a closed loop with one caller.  Ops come in rounds of a
fixed composition, drawn by the seed from fixed strata of inputs, so runs
with different seeds do the same mix of cheap and expensive work.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")

PROBE_HORIZONS = (1000.0, 2000.0, 4000.0)
PROBE_REPLICAS = 32
PROBE_MIN_MARGIN = 0.05
PROBE_AGREEMENT = 0.95
PAIR_EVENTS = 1000
PAIRS_PER_ROUND = 16

# Per-op deadline in seconds.  classify-3q's is the one that bites: points
# whose 2-D prefix solves escalate past it are the failures ROADMAP item 3
# must remove.
DEADLINE_S = {"sweep-2q": 60.0, "classify-3q": 5.0, "probe-2q": 30.0, "couple-corpus": 10.0}

# classify-3q ops per round, by the cost band the point fell in at the seed
# commit (record_refs.CLASSIFY_BANDS): envelope or 1-D verdicts under 50 ms,
# 1-D prefix solves under 0.2 s, 2-D prefix solves under 1 s, three bands of
# slow 2-D solves under the deadline, and points that crash or overrun it.
# Each of the seven 2-D points runs three times in every round, with four
# ops below and four above them, so a round's median op is the median of 21
# 2-D solves; fewer let the host's speed noise through.
CLASSIFY_ROUND = {"fast": 3, "1d": 1, "2d": 21, "slow-lo": 1, "slow-mid": 1,
                  "slow-hi": 1, "fail": 1}
# probe-2q takes one point per round from each third of the candidates by
# probe time.  Short rounds (~9 s) fill a run's time evenly, and the median
# op is the median of the middle third's ops spread over the whole run.
PROBE_STRATA = 3

NAMES = tuple(DEADLINE_S)


# -- references ---------------------------------------------------------------

def _load_json(name):
    with open(os.path.join(REFS, name), encoding="utf-8") as f:
        return json.load(f)


def sweep_reference() -> dict:
    """(lambda_1, lambda_2) -> (label, margin) as ``coupledq sweep`` prints them."""
    with open(os.path.join(REFS, "sweep_2q.csv"), encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    return {(float(r["lambda_1"]), float(r["lambda_2"])): (r["label"], r["margin"])
            for r in rows}


def probe_candidates() -> list:
    """Sweep points with |margin| >= 0.05 and a definite label, in grid
    order, as acceptance criterion 9 picks them; each carries its analytic
    verdict and the fixed probe seed criterion 9's scheme gives it."""
    out = []
    for (a, b), (label, margin) in sweep_reference().items():
        if label == "B" or not margin or abs(float(margin)) < PROBE_MIN_MARGIN:
            continue
        want = "looks_stable" if label == "S" else "looks_unstable"
        out.append({"rates": [a, b], "want": want, "probe_seed": 990_000 + len(out)})
    return out


# -- parent side: inputs --------------------------------------------------------

def _strata(workload: str) -> list:
    """[(count per round, [op inputs])] for the workload."""
    if workload == "sweep-2q":
        return [(196, [list(pt) for pt in sweep_reference()])]
    if workload == "classify-3q":
        pool = _load_json("classify_3q.json")["points"]
        return [(n, [p["rates"] for p in pool if p["stratum"] == name])
                for name, n in CLASSIFY_ROUND.items()]
    if workload == "probe-2q":
        timed = _load_json("probe_2q.json")["points"]
        timed.sort(key=lambda p: p["seconds"])
        size = math.ceil(len(timed) / PROBE_STRATA)
        return [(1, [[*p["rates"], p["probe_seed"]] for p in timed[k:k + size]])
                for k in range(0, len(timed), size)]
    raise KeyError(workload)


def rounds(workload: str, seed: int):
    """Endless rounds of ops.  Each stratum is walked in a seeded order,
    round after round; the ops of a round are shuffled together."""
    rng = random.Random(seed)
    if workload == "couple-corpus":
        k = 0
        while True:
            yield [[seed, k + j] for j in range(PAIRS_PER_ROUND)]
            k += PAIRS_PER_ROUND
    strata = []
    for count, items in _strata(workload):
        items = list(items)
        rng.shuffle(items)
        strata.append([count, items, 0])
    while True:
        ops = []
        for entry in strata:
            count, items, pos = entry
            for _ in range(count):
                ops.append(items[pos % len(items)])
                pos += 1
            entry[2] = pos
        rng.shuffle(ops)
        yield ops


# -- parent side: checks --------------------------------------------------------

class Checker:
    """Compares each op's output with the references; collects problems."""

    def __init__(self, workload: str):
        self.workload = workload
        self.problems = []
        self.unreferenced = 0
        self.agree = self.probed = 0
        if workload == "sweep-2q":
            self.ref = sweep_reference()
        elif workload == "classify-3q":
            self.ref = {tuple(p["rates"]): p for p in _load_json("classify_3q.json")["points"]}
        elif workload == "probe-2q":
            self.ref = {tuple(p["rates"]): p["want"] for p in probe_candidates()}

    def op(self, op, out) -> None:
        w = self.workload
        if w == "sweep-2q":
            want = list(self.ref[tuple(op)])
            if out != want:
                self.problems.append(f"{op}: got {out}, reference {want}")
        elif w == "classify-3q":
            ref = self.ref[tuple(op)]
            if ref["status"] != "ok":
                self.unreferenced += 1
            elif out != [ref["system"], ref["per_queue"]]:
                self.problems.append(
                    f"{op}: got {out}, reference {[ref['system'], ref['per_queue']]}")
        elif w == "probe-2q":
            want = self.ref[tuple(op[:2])]
            self.probed += 1
            self.agree += out == want
            if out in ("looks_stable", "looks_unstable") and out != want:
                self.problems.append(f"{op}: probe says {out}, analytic verdict {want}")
        elif w == "couple-corpus":
            if out[0] != "ok" or out[1] != 0:
                self.problems.append(f"pair {op}: {out}")

    def finish(self) -> list:
        """Run-level checks; returns every problem found."""
        if self.workload == "probe-2q" and self.probed:
            # A run probes only a handful of points, so it cannot show an
            # agreement rate directly.  It fails when its misses would be
            # rarer than 1 in 1000 were the true agreement 0.95.
            misses = self.probed - self.agree
            if _binom_tail(self.probed, misses, 1.0 - PROBE_AGREEMENT) < 1e-3:
                self.problems.append(
                    f"probe agreement {self.agree}/{self.probed} refutes the "
                    f"{PROBE_AGREEMENT} bar")
        return self.problems


def _binom_tail(n: int, k: int, p: float) -> float:
    """P[Binomial(n, p) >= k]."""
    return sum(math.comb(n, j) * p ** j * (1 - p) ** (n - j) for j in range(k, n + 1))


# -- worker side ------------------------------------------------------------------

def setup(workload: str):
    """The set-up a worker pays before its first op: the scenario's spec,
    ``StabilityEngine(spec)`` and ``engine.structure()``; ``probe-2q`` needs
    the spec only and ``couple-corpus`` only the import."""
    from coupledq import StabilityEngine
    from coupledq.scenario import builtin_scenario

    if workload == "couple-corpus":
        return None
    if workload == "classify-3q":
        scn = builtin_scenario("three_queues")
    else:
        scn = builtin_scenario("two_basestations", {"gamma": 2.0})
    if workload == "probe-2q":
        return scn.spec
    engine = StabilityEngine(scn.spec, scn.tolerances)
    engine.structure()
    return engine


def run_op(workload: str, state, op):
    import coupledq

    if workload == "sweep-2q":
        sample = state.sweep([tuple(op)])[0]
        if sample.error is not None:
            raise RuntimeError(sample.error)
        margin = sample.verdict.margin
        return [sample.region, "" if margin is None else f"{margin:.9g}"]
    if workload == "classify-3q":
        verdict = state.classify(tuple(op))
        return [verdict.system.value, [label.value for label in verdict.per_queue]]
    if workload == "probe-2q":
        rates, probe_seed = tuple(op[:2]), op[2]
        diag = coupledq.simulate.empirical_stability_probe(
            rates, state, (0, 0), PROBE_HORIZONS, PROBE_REPLICAS, seed=probe_seed)
        return diag.verdict
    if workload == "couple-corpus":
        import numpy as np

        seed, k = op
        pair = coupledq.simulate.random_hypothesis_pair(np.random.default_rng([seed, k]))
        try:
            rep = coupledq.simulate.simulate_coupled_pair(
                *pair, seed=seed + k + 1, max_events=PAIR_EVENTS)
        except coupledq.HypothesisViolated as exc:
            return ["HypothesisViolated", str(exc)]
        return ["ok", rep.violations]
    raise KeyError(workload)
