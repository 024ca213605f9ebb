"""Scenario files and the command-line front end."""

import itertools
import json
import pathlib

import pytest

from coupledq.cli import main
from coupledq.engine import StabilityEngine
from coupledq.errors import ScenarioError
from coupledq.scenario import (
    GridAxis,
    builtin_scenario,
    load_scenario,
    resolve_scenario,
    scenario_from_dict,
)
from coupledq.svg import PALETTE


PRODUCT_DOC = {
    "name": "bs",
    "n_queues": 2,
    "arrival_rates": [0.3, 0.4],
    "allocation": {
        "kind": "product",
        "gain": {"cap": 3.0, "form": "log_gain"},
        "interference": {"form": "exp_interference", "gamma": 2.0},
    },
}

TABLE_DOC = {
    "n_queues": 3,
    "arrival_rates": [0.5, 1.2, 0.3],
    "allocation": {
        "kind": "table",
        "a_i": [3.0, 3.0, 3.0],
        "a_ij": {"12": 2.0, "13": 2.0, "21": 2.0, "23": 2.0, "31": 2.0, "32": 2.0},
    },
}


# -- scenario parsing -----------------------------------------------------------

def test_product_scenario_roundtrip():
    scn = scenario_from_dict(dict(PRODUCT_DOC))
    assert scn.n_queues == 2
    assert scn.rates == (0.3, 0.4)
    assert scn.spec.rate(0, (0, 5)) == 0.0


def test_table_scenario():
    scn = scenario_from_dict(dict(TABLE_DOC))
    assert scn.spec.rate(2, (1, 0, 7)) == 2.0


def test_unknown_key_rejected():
    doc = dict(PRODUCT_DOC)
    doc["extra"] = 1
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_grid_axes():
    doc = dict(PRODUCT_DOC)
    doc.pop("arrival_rates")
    doc["grid"] = [
        {"min": 0.1, "max": 0.3, "step": 0.1},
        {"min": 0.2, "max": 0.2, "step": 0.1},
    ]
    scn = scenario_from_dict(doc)
    assert scn.grid_points() == [(0.1, 0.2), (0.2, 0.2), (0.3, 0.2)]


def test_grid_axis_validation():
    with pytest.raises(ScenarioError):
        GridAxis(0.1, 0.5, 0.0)
    with pytest.raises(ScenarioError):
        GridAxis(0.5, 0.1, 0.1)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("lo, hi, step, message", [
    (0.1, NAN, 0.1, "finite"),
    (0.1, 0.5, INF, "finite"),
    (NAN, 0.5, 0.1, "finite"),
    (0.1, INF, 0.1, "finite"),
    (0.1, 0.5, NAN, "finite"),
    (0.0, 1.0, 0.5, "strictly positive"),
    (-0.5, 1.0, 0.5, "strictly positive"),
])
def test_grid_axis_rejects_non_finite_and_non_positive(lo, hi, step, message, deadline):
    with deadline(2.0):
        with pytest.raises(ScenarioError, match=message):
            GridAxis(lo, hi, step)
        doc = dict(PRODUCT_DOC)
        doc.pop("arrival_rates")
        doc["grid"] = [{"min": lo, "max": hi, "step": step}] * 2
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(doc)


@pytest.mark.parametrize("axis", [
    {"min": 0.1, "max": 0.3},
    {"min": "abc", "max": 0.3, "step": 0.1},
    {"min": None, "max": 0.3, "step": 0.1},
])
def test_scenario_grid_axis_needs_numeric_min_max_step(axis, tmp_path, capsys):
    doc = dict(PRODUCT_DOC)
    doc.pop("arrival_rates")
    doc["grid"] = [axis, {"min": 0.1, "max": 0.3, "step": 0.1}]
    with pytest.raises(ScenarioError, match="grid axis"):
        scenario_from_dict(doc)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--scenario", str(path)]) == 64
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    "0.1:nan:0.1", "0.1:0.5:inf", "nan:0.5:0.1", "0.1:abc:0.1", "0:1:0.5",
    "0.1:0.5",
])
def test_cli_sweep_rejects_bad_grid_axis(grid, capsys, deadline):
    with deadline(5.0):
        assert main(["sweep", "--scenario", "two_basestations", "--grid", grid]) == 64
    captured = capsys.readouterr()
    assert "scenario error" in captured.err and "ERR" not in captured.out


def test_bound_override_must_cover():
    doc = dict(PRODUCT_DOC)
    doc["bound"] = 0.1
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)
    doc["bound"] = 2.0
    scn = scenario_from_dict(doc)
    assert scn.spec.bound == 2.0


def test_tolerance_block():
    doc = dict(PRODUCT_DOC)
    doc["tolerances"] = {"margins_tol": 1e-3}
    doc["limit_tol"] = 1e-8
    scn = scenario_from_dict(doc)
    assert scn.tolerances.margins_tol == 1e-3
    assert scn.tolerances.limit_tol == 1e-8
    doc["tolerances"] = {"not_a_knob": 1}
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_probe_cap_rejected_in_both_spellings():
    doc = dict(PRODUCT_DOC)
    doc["probe_cap"] = 32
    with pytest.raises(ScenarioError, match="unknown scenario keys"):
        scenario_from_dict(doc)
    doc = dict(PRODUCT_DOC)
    doc["tolerances"] = {"probe_cap": 32}
    with pytest.raises(ScenarioError, match="unknown tolerance 'probe_cap'"):
        scenario_from_dict(doc)


def test_load_scenario_file(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(PRODUCT_DOC))
    scn = load_scenario(str(path))
    assert scn.rates == (0.3, 0.4)


def test_malformed_file_diagnostics(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert "2:" in str(err.value)  # line number surfaces


def test_unknown_builtin():
    with pytest.raises(ScenarioError):
        builtin_scenario("nope")


def test_builtin_params():
    scn = builtin_scenario("one_server_alpha", {"alpha": 0.5, "lambda1": 1.1})
    assert scn.rates == (1.1,)
    scn = builtin_scenario("two_basestations", {"gamma": 0.05})
    assert scn.grid is not None


def test_params_nothing_reads_are_rejected(tmp_path, capsys):
    with pytest.raises(ScenarioError, match="gama"):
        builtin_scenario("two_basestations", {"gama": 0.01})
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(PRODUCT_DOC))
    with pytest.raises(ScenarioError, match="built-in scenarios only"):
        resolve_scenario(str(path), {"gamma": 1.0})
    assert resolve_scenario(str(path), {}).rates == (0.3, 0.4)

    analyze = ["analyze", "--rates", "0.3,0.4"]
    assert main(analyze + ["--scenario", "two_basestations", "--param", "gama=0.01"]) == 64
    assert "gama" in capsys.readouterr().err
    assert main(analyze + ["--scenario", str(path), "--param", "gamma=0.01"]) == 64
    assert "built-in scenarios only" in capsys.readouterr().err
    pair = ["couple-check", "--scenario", "mm1", "--scenario-y", "mm1", "--events", "50"]
    assert main(pair + ["--param", "mu=2"]) == 0
    assert main(pair + ["--param", "nu=2"]) == 64


def test_cli_couple_check_takes_text_params(capsys):
    # --param values parse the same way as for analyze: text stays text
    pair = ["couple-check", "--scenario", "two_basestations", "--scenario-y",
            "two_basestations", "--events", "50", "--param", "form=poly_interference"]
    analyze = ["analyze", "--scenario", "two_basestations", "--rates", "0.3,0.3",
               "--param", "form=poly_interference"]
    assert main(analyze) == 0
    capsys.readouterr()
    # two_basestations has a grid, not a rate point: a usage error, not a crash
    assert main(pair) == 64
    err = capsys.readouterr().err
    assert "scenario error" in err and "single rate point" in err
    assert main(["couple-check", "--scenario", "mm1", "--scenario-y", "mm1",
                 "--events", "50", "--param", "mu=2", "--param", "lam=0.5"]) == 0
    assert main(["three-queues", "--rates", "0.5,1.2,0.3", "--param", "a1=abc"]) == 64
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, param, value, rates, message", [
    ("two_basestations", "form", "bogus", "0.5,0.5", "unknown interference form"),
    ("mm1", "mu", -1.0, "0.5", "service rates must be finite"),
    ("two_basestations", "rates", 0.5, "0.5,0.5", "'two_basestations'"),
])
def test_param_the_factory_rejects_exit_64(scenario, param, value, rates, message,
                                           capsys):
    with pytest.raises(ScenarioError, match=message):
        builtin_scenario(scenario, {param: value})
    argv = ["analyze", "--scenario", scenario, "--param", f"{param}={value}",
            "--rates", rates]
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert "scenario error" in err and message in err


@pytest.mark.parametrize("command", ["analyze", "three-queues", "simulate"])
@pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf"])
def test_cli_rejects_rates_not_positive_and_finite(command, bad, capsys, deadline):
    if command == "three-queues":
        argv = [command, "--rates", f"0.5,{bad},0.3"]
    else:
        argv = [command, "--scenario", "two_basestations", "--rates", f"0.5,{bad}"]
    if command == "simulate":
        argv += ["--horizon", "10", "--replicas", "1"]
    with deadline(5.0):
        assert main(argv) == 64
    assert "rates must be positive and finite" in capsys.readouterr().err


# -- CLI ------------------------------------------------------------------------

def test_cli_analyze_exit_codes(capsys):
    assert main(["analyze", "--scenario", "one_server_alpha", "--rates", "0.9"]) == 0
    assert main(["analyze", "--scenario", "one_server_alpha", "--rates", "1.1"]) == 1
    assert main(["analyze", "--scenario", "one_server_alpha", "--rates", "1.0"]) == 2
    out = capsys.readouterr().out
    assert '"system": "stable"' in out
    assert '"margins_tol"' in out


def test_cli_malformed_scenario_exit_64(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert main(["analyze", "--scenario", str(path), "--rates", "0.5"]) == 64
    assert "scenario error" in capsys.readouterr().err


def test_cli_missing_scenario_exit_64(capsys):
    assert main(["analyze", "--rates", "0.5"]) == 64


@pytest.mark.parametrize("where, key, value", [
    ("cli", "margins_tol", "-1"),       # once scanned into a critical prefix
    ("cli", "growth", "1.0"),
    ("cli", "growth", "0.5"),
    ("cli", "start_box", "1.5"),
    ("cli", "pd_box", "0"),
    ("cli", "tail_tol", "nan"),
    ("cli", "limit_tol", "inf"),
    ("cli", "sat_level", "0"),
    ("cli", "state_cap", "many"),
    ("cli", "permutation_cap", "0"),
    ("cli", "descent_steps", "-1"),
    ("cli", "bounds_probe_cap", "-2"),
    ("file", "pd_box", 0),
    ("file", "pd_box", 2.5),
    ("file", "start_box", None),
    ("file", "residual_tol", -1e-10),
    ("file", "limit_tol", "tight"),
])
def test_cli_rejects_bad_tolerances(where, key, value, tmp_path, capsys, deadline):
    if where == "cli":
        argv = ["analyze", "--scenario", "two_basestations", "--rates", "0.5,0.5",
                "--tol", f"{key}={value}"]
    else:
        doc = dict(PRODUCT_DOC, tolerances={key: value})
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        argv = ["analyze", "--scenario", str(path)]
    with deadline(30):
        assert main(argv) == 64
    assert f"tolerance {key} must be" in capsys.readouterr().err


def test_pd_box_from_a_scenario_file(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(dict(PRODUCT_DOC, tolerances={"pd_box": 8})))
    assert main(["analyze", "--scenario", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"]["tolerances"]["pd_box"] == 8


def test_cli_simulate_rejects_zero_replicas(capsys):
    argv = ["simulate", "--scenario", "mm1", "--rates", "1.5", "--horizon", "100"]
    assert main(argv + ["--replicas", "0"]) == 64
    assert "--replicas" in capsys.readouterr().err
    assert main(argv + ["--replicas", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["replicas"] == 4


@pytest.mark.parametrize("flag", ["--horizon", "--sample-interval"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "ten"])
def test_cli_simulate_rejects_bad_horizon_and_interval(flag, value, tmp_path,
                                                       capsys, deadline):
    dump = tmp_path / "path.csv"
    argv = ["simulate", "--scenario", "mm1", "--rates", "0.5", "--horizon", "10",
            "--replicas", "1", "--dump", str(dump)]
    with deadline(2.0):
        assert main(argv + [f"{flag}={value}"]) == 64
    assert flag in capsys.readouterr().err
    assert not dump.exists()


def test_cli_simulate_dump_honours_sample_interval(tmp_path, capsys):
    dump = tmp_path / "path.csv"
    argv = ["simulate", "--scenario", "mm1", "--rates", "0.5", "--horizon", "10",
            "--replicas", "1", "--dump", str(dump), "--sample-interval", "2.5"]
    assert main(argv) == 0
    assert "wrote" in capsys.readouterr().out
    times = [float(line.split(",")[0]) for line in dump.read_text().splitlines()[1:]]
    assert times == [0.0, 2.5, 5.0, 7.5, 10.0]


def test_cli_sweep_csv_and_svg_deterministic(tmp_path, capsys):
    args = [
        "sweep", "--scenario", "two_basestations", "--param", "gamma=2.0",
        "--grid", "0.2:0.6:0.2",
        "--out", str(tmp_path / "a.csv"), "--svg", str(tmp_path / "a.svg"),
    ]
    assert main(args) == 0
    args2 = [
        "sweep", "--scenario", "two_basestations", "--param", "gamma=2.0",
        "--grid", "0.2:0.6:0.2",
        "--out", str(tmp_path / "b.csv"), "--svg", str(tmp_path / "b.svg"),
    ]
    assert main(args2) == 0
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    lines = a.decode().splitlines()
    assert lines[0] == "lambda_1,lambda_2,label,margin"
    assert len(lines) == 1 + 9
    for code in PALETTE.values():
        pass  # palette must exist with fixed colors
    assert PALETTE["S"] == "#4caf50"


def test_cli_sweep_matches_benchmark_region_map(tmp_path):
    # every label and 9-digit margin of the 14 x 14 base-station grid
    ref = pathlib.Path(__file__).parents[1] / "perfbench" / "refs" / "sweep_2q.csv"
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--scenario", "two_basestations", "--param", "gamma=2.0",
        "--grid", "0.1:1.4:0.1", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_cli_sweep_single_point(tmp_path):
    out = tmp_path / "one.csv"
    assert main([
        "sweep", "--scenario", "two_basestations", "--param", "gamma=2.0",
        "--grid", "0.3:0.3:0.1", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.3,0.3,S,")


def test_cli_sweep_three_queue_fixes_one_axis(tmp_path):
    scn_path = tmp_path / "tq.json"
    doc = json.loads(json.dumps(TABLE_DOC))
    del doc["arrival_rates"]
    doc["grid"] = [
        {"min": 0.3, "max": 0.9, "step": 0.3},
        {"min": 0.4, "max": 1.0, "step": 0.3},
        {"min": 0.2, "max": 0.2, "step": 0.1},
    ]
    scn_path.write_text(json.dumps(doc))
    out = tmp_path / "tq.csv"
    assert main(["sweep", "--scenario", str(scn_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda_1,lambda_2,label,margin"
    assert len(lines) == 1 + 9
    assert lines[1].startswith("0.3,0.4,")


def test_cli_couple_check_default_corpus(capsys):
    assert main(["couple-check", "--pairs", "20", "--events", "300"]) == 0
    assert "0 ordering violations" in capsys.readouterr().out


def test_cli_couple_check_inverted_pair_exit(capsys, tmp_path):
    lo = {
        "n_queues": 1, "arrival_rates": [1.0],
        "allocation": {"kind": "product",
                       "gain": {"cap": 1.0, "form": "log_gain"},
                       "interference": {"form": "exp_interference", "gamma": 1.0}},
    }
    hi = dict(lo)
    hi = json.loads(json.dumps(lo))
    hi["arrival_rates"] = [0.5]
    pa = tmp_path / "lo.json"
    pb = tmp_path / "hi.json"
    pa.write_text(json.dumps(lo))
    pb.write_text(json.dumps(hi))
    rc = main(["couple-check", "--scenario", str(pa), "--scenario-y", str(pb),
               "--events", "200"])
    assert rc == 4
    assert "hypothesis violated" in capsys.readouterr().out


def test_cli_three_queues_report(capsys):
    rc = main(["three-queues", "--rates", "0.5,1.2,0.3", "--param", "a23=2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "stage-2 threshold (queue 2): 1.5000000000" in out
    # occupancy split sums to one at printed precision
    line = next(l for l in out.splitlines() if "sum" in l)
    total = float(line.split("(sum")[1].strip(" )"))
    assert abs(total - 1.0) < 1e-10
    assert "permutation (1,2,3)" in out


def test_cli_three_queues_saturated_pair_honours_tol(capsys):
    rc = main(["three-queues", "--rates", "0.5,1.2,0.3", "--tol", "start_box=64"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "boxes tried: [(64, 64), (128, 128), (256, 256)]" in out

    # boxes of 64^2 fit under the cap, 128^2 do not: the pair never certifies
    rc = main(["three-queues", "--rates", "0.5,1.2,0.3", "--tol", "state_cap=5000"])
    out = capsys.readouterr().out
    assert rc == 0  # permutation (3,1,2) still certifies stability
    assert "saturated pair (queues 1, 2) not certified: state cap 5000" in out
    assert "stage-3 threshold" not in out
    assert "(256, 256)" not in out


def test_cli_three_queues_warns_on_bad_table(capsys):
    main(["three-queues", "--rates", "0.5,0.5,0.5", "--param", "a12=0.5"])
    assert "monotonicity hypothesis" in capsys.readouterr().out


def test_cli_three_queues_equivariant_reports(capsys):
    main(["three-queues", "--rates", "0.5,1.2,0.3"])
    out1 = capsys.readouterr().out
    main(["three-queues", "--rates", "1.2,0.5,0.3"])
    out2 = capsys.readouterr().out

    def depths(text):
        out = {}
        for line in text.splitlines():
            if line.startswith("permutation ("):
                perm = tuple(int(c) for c in line.split("(")[1].split(")")[0].split(","))
                out[perm] = line.split("depth")[1].split(";")[0].strip()
        return out

    d1, d2 = depths(out1), depths(out2)
    # swapping queues 1 and 2 relabels the permutation reports
    swap = {1: 2, 2: 1, 3: 3}
    for perm, depth in d1.items():
        mapped = tuple(swap[q] for q in perm)
        assert d2[mapped] == depth
