"""Scenario files and the command-line front end."""

import itertools
import json

import pytest

from coupledq.allocation import ArrivalRates, relabel
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
