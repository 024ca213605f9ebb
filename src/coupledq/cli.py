"""Command-line front end.

Subcommands: analyze, sweep, simulate, couple-check, three-queues.
Exit codes: 0 stable, 1 unstable, 2 indeterminate; 3 ordering violations,
4 coupling hypothesis violated; 64 usage or scenario errors, 70 internal.
All configuration is explicit flags; no environment variables.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Optional

from .engine import StabilityEngine, SystemLabel
from .errors import CoupledQError, HypothesisViolated, NoConvergence, ScenarioError
from .scenario import GridAxis, Scenario, builtin_scenario, resolve_scenario
from .simulate import (
    empirical_stability_probe,
    random_hypothesis_pair,
    simulate_coupled_pair,
    _stream,
)
from .svg import render_region_svg

EXIT_STABLE = 0
EXIT_UNSTABLE = 1
EXIT_INDETERMINATE = 2
EXIT_VIOLATIONS = 3
EXIT_HYPOTHESIS = 4
EXIT_USAGE = 64
EXIT_INTERNAL = 70


def _parse_kv(pairs) -> dict:
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ScenarioError(f"expected KEY=VALUE, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _parse_rates(text: str) -> tuple:
    try:
        rates = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ScenarioError(f"bad rate list {text!r}") from None
    if not all(math.isfinite(r) and r > 0 for r in rates):
        raise ScenarioError(f"rates must be positive and finite, got {text!r}")
    return rates


def _parse_grid(text: str, n: int):
    axes = text.split(",")
    if len(axes) == 1 and n > 1:
        axes = axes * n
    if len(axes) != n:
        raise ScenarioError(f"grid needs {n} axes, got {len(axes)}")
    out = []
    for ax in axes:
        parts = ax.split(":")
        if len(parts) != 3:
            raise ScenarioError(f"grid axis {ax!r} is not MIN:MAX:STEP")
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError:
            raise ScenarioError(f"grid axis {ax!r} is not numeric") from None
        out.append(GridAxis(lo, hi, step))
    return out


def _apply_overrides(scn: Scenario, args) -> Scenario:
    tol_kw = _parse_kv(getattr(args, "tol", None))
    if tol_kw:
        try:
            scn.tolerances = scn.tolerances.replace(**tol_kw)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
    if getattr(args, "rates", None):
        scn.rates = _parse_rates(args.rates)
        if len(scn.rates) != scn.n_queues:
            raise ScenarioError(
                f"scenario has {scn.n_queues} queues, got {len(scn.rates)} rates"
            )
    if getattr(args, "grid", None):
        scn.grid = _parse_grid(args.grid, scn.n_queues)
    if getattr(args, "seed", None) is not None:
        scn.seed = args.seed
    return scn


def _typed_params(pairs) -> dict:
    """``--param`` values: numbers where they parse as one, text otherwise."""
    typed = {}
    for k, v in _parse_kv(pairs).items():
        try:
            typed[k] = float(v)
        except ValueError:
            typed[k] = v
    return typed


def _scenario_from_args(args) -> Scenario:
    scn = resolve_scenario(args.scenario, _typed_params(args.param))
    return _apply_overrides(scn, args)


def _verdict_exit(system: SystemLabel) -> int:
    if system is SystemLabel.STABLE:
        return EXIT_STABLE
    if system is SystemLabel.UNSTABLE:
        return EXIT_UNSTABLE
    return EXIT_INDETERMINATE


def cmd_analyze(args) -> int:
    scn = _scenario_from_args(args)
    if scn.rates is None:
        raise ScenarioError("analyze needs a single rate point (use --rates)")
    engine = StabilityEngine(scn.spec, scn.tolerances)
    verdict = engine.classify(scn.rates)
    record = {
        "scenario": scn.name,
        "arrival_rates": list(scn.rates),
        "verdict": verdict.to_record(),
    }
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    return _verdict_exit(verdict.system)


def _sweep_rows(scn: Scenario):
    engine = StabilityEngine(scn.spec, scn.tolerances)
    points = scn.grid_points()
    samples = engine.sweep(points)
    rows = []
    for pt, sample in zip(points, samples):
        code = sample.region
        margin = sample.verdict.margin if sample.verdict else None
        rows.append((pt, code, margin))
    return rows


def cmd_sweep(args) -> int:
    scn = _scenario_from_args(args)
    if scn.grid is None:
        raise ScenarioError("sweep needs a grid (use --grid MIN:MAX:STEP[,..])")
    # region maps are two-dimensional: larger systems must pin all but two
    # coordinates with degenerate (min == max) axes
    axis_sizes = [len(ax.values()) for ax in scn.grid]
    varying = [i for i, size in enumerate(axis_sizes) if size > 1]
    if scn.n_queues == 2:
        ax_x, ax_y = 0, 1
    elif len(varying) == 2:
        ax_x, ax_y = varying
    elif len(varying) < 2 and scn.n_queues >= 2:
        ax_x, ax_y = 0, 1
    else:
        raise ScenarioError(
            f"{scn.n_queues}-queue sweeps must fix all but two coordinates "
            f"(got {len(varying)} varying axes)"
        )
    rows = _sweep_rows(scn)
    lines = ["lambda_1,lambda_2,label,margin"]
    for pt, code, margin in rows:
        m = "" if margin is None else f"{margin:.9g}"
        lines.append(f"{pt[ax_x]:.6g},{pt[ax_y]:.6g},{code},{m}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(csv_text)
        print(f"wrote {args.out} ({len(rows)} points)")
    else:
        sys.stdout.write(csv_text)
    if args.svg:
        xs = sorted({pt[ax_x] for pt, _, _ in rows})
        ys = sorted({pt[ax_y] for pt, _, _ in rows})
        index = {(pt[ax_x], pt[ax_y]): code for pt, code, _ in rows}
        labels = [[index[(x, y)] for x in xs] for y in ys]
        svg = render_region_svg(xs, ys, labels, title=f"{scn.name} stability regions")
        with open(args.svg, "w", encoding="utf-8") as f:
            f.write(svg)
        print(f"wrote {args.svg}")
    return EXIT_STABLE


def cmd_simulate(args) -> int:
    scn = _scenario_from_args(args)
    if scn.rates is None:
        raise ScenarioError("simulate needs a single rate point (use --rates)")
    horizons = [args.horizon / 4, args.horizon / 2, args.horizon]
    diag = empirical_stability_probe(
        scn.rates, scn.spec, (0,) * scn.n_queues, horizons, args.replicas, scn.seed
    )
    if args.dump:
        from .simulate import dump_path_csv, simulate_path

        path = simulate_path(
            scn.rates, scn.spec, (0,) * scn.n_queues, args.horizon, scn.seed,
            sample_interval=args.sample_interval,
        )
        with open(args.dump, "w", encoding="utf-8") as f:
            dump_path_csv(path, f)
        print(f"wrote {args.dump} ({len(path.samples)} samples)")
    record = {
        "scenario": scn.name,
        "arrival_rates": list(scn.rates),
        "verdict": diag.verdict,
        "slope_mean": list(diag.slope_mean),
        "slope_lcb": list(diag.slope_lcb),
        "escape_fraction": list(diag.escape_fraction),
        "growth_ratio": list(diag.growth_ratio),
        "cover_level": list(diag.cover_level),
        "replicas": diag.replicas,
        "horizons": list(diag.horizons),
        "warnings": list(diag.warnings),
        "note": "heuristic cross-check; thresholds: 99.9% cover, 1% escape, "
                "one-sided 95% drift band; never overrides the analytic verdict",
    }
    print(json.dumps(record, indent=2, sort_keys=True))
    return EXIT_STABLE


def cmd_couple_check(args) -> int:
    rng = _stream(args.seed)
    total_violations = 0
    if args.scenario and args.scenario_y:
        typed = _typed_params(args.param)
        low = resolve_scenario(args.scenario, typed)
        high = resolve_scenario(args.scenario_y, typed)
        for scn in (low, high):
            if scn.rates is None:
                raise ScenarioError(
                    f"couple-check needs a single rate point; scenario "
                    f"{scn.name!r} has none")
        try:
            rep = simulate_coupled_pair(
                low.rates, low.spec, high.rates, high.spec,
                (0,) * low.n_queues, (0,) * high.n_queues,
                seed=args.seed, max_events=args.events,
            )
        except HypothesisViolated as exc:
            print(f"hypothesis violated: {exc}")
            return EXIT_HYPOTHESIS
        total_violations = rep.violations
        print(
            f"pair {low.name} <= {high.name}: {rep.sampled_instants} events, "
            f"{rep.violations} ordering violations, max gaps {rep.max_gap}"
        )
    else:
        checked = 0
        for k in range(args.pairs):
            lam, spec_x, eta, spec_y, x0, y0 = random_hypothesis_pair(rng)
            try:
                rep = simulate_coupled_pair(
                    lam, spec_x, eta, spec_y, x0, y0,
                    seed=args.seed + k + 1, max_events=args.events,
                )
            except HypothesisViolated as exc:
                print(f"pair {k}: hypothesis violated: {exc}")
                return EXIT_HYPOTHESIS
            total_violations += rep.violations
            checked += 1
        print(
            f"checked {checked} randomized coupled pairs x {args.events} events: "
            f"{total_violations} ordering violations"
        )
    return EXIT_STABLE if total_violations == 0 else EXIT_VIOLATIONS


def cmd_three_queues(args) -> int:
    typed = _typed_params(args.param)
    rates = _parse_rates(args.rates)
    if len(rates) != 3:
        raise ScenarioError("three-queues needs exactly three rates")
    typed["rates"] = rates
    scn = builtin_scenario("three_queues", typed)
    scn = _apply_overrides(scn, args)
    a = scn.params["a"]
    a_pair = scn.params["a_pair"]
    ok = all(
        a[i] >= a_pair[f"{i + 1}{j + 1}"] >= 1.0
        for i in range(3) for j in range(3) if i != j
    )
    if not ok:
        print("warning: solo/pair rates break the monotonicity hypothesis "
              "(need a_i >= a_ij >= 1); verdicts may be unsound")

    engine = StabilityEngine(scn.spec, scn.tolerances)
    verdict = engine.classify(scn.rates)
    print(f"arrival rates: {list(rates)}")
    print(f"system: {verdict.system.value}")
    print(f"per-queue: {[l.value for l in verdict.per_queue]}")

    for sigma in itertools.permutations(range(3)):
        scan = engine.sequential_prefix(rates, sigma)
        pretty = "(" + ",".join(str(q + 1) for q in sigma) + ")"
        stage_txt = "; ".join(
            f"queue {s.queue + 1}: rate {s.lam:.6g} vs avg service {s.avg_rate:.6g} "
            f"(margin {s.margin:+.6g})"
            for s in scan.stages
        )
        print(f"permutation {pretty}: stable prefix depth {scan.n_max}; {stage_txt}")

    # identity-permutation saturated pair: empty/busy split of queues 1 and 2
    try:
        dist, report = engine.prefix_law(rates, (0, 1))
    except NoConvergence as exc:
        print(f"saturated pair (queues 1, 2) not certified: {exc}")
        return _verdict_exit(verdict.system)
    g = dist.grid()
    p00 = float(g[0, 0])
    p01 = float(g[0, 1:].sum())
    p10 = float(g[1:, 0].sum())
    p11 = float(g[1:, 1:].sum())
    a31 = a_pair["31"]
    a32 = a_pair["32"]
    rhs = a[2] * p00 + a31 * p10 + a32 * p01 + 1.0 * p11
    stage2 = rates[0] + a_pair["23"] * (1.0 - rates[0])
    print(f"saturated-pair occupancy split: p00={p00:.10f} p01={p01:.10f} "
          f"p10={p10:.10f} p11={p11:.10f} (sum {p00 + p01 + p10 + p11:.12f})")
    print(f"stage-2 threshold (queue 2): {stage2:.10f}")
    print(f"stage-3 threshold (queue 3): {rhs:.10f}")
    print(f"certified: {report.certified}; boxes tried: {report.boxes_tried}")
    return _verdict_exit(verdict.system)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coupledq",
        description="Stability classification for parallel queues with "
                    "coupled service rates",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, rates=True):
        sp.add_argument("--scenario", required=False,
                        help="built-in name or path to a JSON scenario file")
        sp.add_argument("--tol", action="append", metavar="KEY=VAL",
                        help="tolerance override (repeatable)")
        sp.add_argument("--param", action="append", metavar="KEY=VAL",
                        help="built-in scenario parameter (repeatable)")
        sp.add_argument("--seed", type=int, default=None)
        if rates:
            sp.add_argument("--rates", help="comma-separated arrival rates")

    sp = sub.add_parser("analyze", help="classify a single rate point")
    common(sp)
    sp.add_argument("--out", help="also write the verdict record to this file")
    sp.set_defaults(fn=cmd_analyze, scenario_required=True)

    sp = sub.add_parser("sweep", help="classify a rate grid, emit CSV/SVG")
    common(sp)
    sp.add_argument("--grid", metavar="MIN:MAX:STEP[,MIN:MAX:STEP]",
                    help="override the scenario grid")
    sp.add_argument("--out", help="CSV output path")
    sp.add_argument("--svg", help="SVG region-map output path")
    sp.set_defaults(fn=cmd_sweep, scenario_required=True)

    sp = sub.add_parser("simulate", help="empirical stability probe")
    common(sp)
    sp.add_argument("--horizon", type=_positive_float, default=2000.0)
    sp.add_argument("--replicas", type=_positive_int, default=32)
    sp.add_argument("--dump", help="write one sampled trajectory to this CSV")
    sp.add_argument("--sample-interval", type=_positive_float, default=1.0,
                    help="sampling interval for --dump")
    sp.set_defaults(fn=cmd_simulate, scenario_required=True)

    sp = sub.add_parser("couple-check",
                        help="order-preservation check on coupled pairs")
    sp.add_argument("--pairs", type=int, default=100)
    sp.add_argument("--events", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=20080447)
    sp.add_argument("--scenario", help="lower system (built-in or file)")
    sp.add_argument("--scenario-y", help="upper system (built-in or file)")
    sp.add_argument("--param", action="append", metavar="KEY=VAL")
    sp.set_defaults(fn=cmd_couple_check, scenario_required=False)

    sp = sub.add_parser("three-queues",
                        help="three coupled queues: per-permutation stage report")
    sp.add_argument("--rates", required=True, help="three arrival rates")
    sp.add_argument("--param", action="append", metavar="KEY=VAL",
                    help="a1..a3, a12..a32 table rates")
    sp.add_argument("--tol", action="append", metavar="KEY=VAL")
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=cmd_three_queues, scenario_required=False)
    return p


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if getattr(args, "scenario_required", False) and not args.scenario:
        print("error: --scenario is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CoupledQError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # keep verdict exit codes unambiguous
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
