"""Scenario files and the command-line front end."""

import dataclasses
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from coupledq.allocation import INTERFERENCE_FORMS
from coupledq.cli import main
from coupledq.engine import StabilityEngine
from coupledq.errors import ScenarioError
from coupledq.scenario import (
    MAX_GRID_POINTS,
    GridAxis,
    Scenario,
    builtin_scenario,
    load_scenario,
    resolve_scenario,
    scenario_from_dict,
)
from coupledq.simulate import dump_path_csv
from coupledq.svg import PALETTE
from oracles import reference_path


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
    {"min": True, "max": True, "step": True},
    {"min": 0.1, "max": "0.3", "step": 0.1},
    {"min": 0.1, "max": 0.3, "step": False},
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


def test_cli_sweep_of_one_queue_needs_two_queues(capsys):
    # said "1-queue sweeps must fix all but two coordinates (got 1 varying axes)"
    assert main(["sweep", "--scenario", "mm1", "--grid", "0.1:0.5:0.1"]) == 64
    captured = capsys.readouterr()
    assert "a region map needs at least two queues" in captured.err
    assert captured.out == ""


def test_grid_axis_point_count_is_bounded(deadline):
    with deadline(2.0):
        axis = GridAxis(1.0, float(MAX_GRID_POINTS), 1.0)
        assert len(axis.values()) == MAX_GRID_POINTS
        with pytest.raises(ScenarioError, match="more than"):
            GridAxis(1.0, MAX_GRID_POINTS + 1.0, 1.0)
        with pytest.raises(ScenarioError, match="more than"):
            GridAxis(0.1, 1e9, 1e-9)


@pytest.mark.parametrize("grid", [
    "0.1:1e9:1e-9",                                   # one axis too long
    "0.1:100:0.001,0.1:100:0.001",                    # two fine axes, too many points
])
def test_cli_sweep_rejects_oversized_grid(grid, tmp_path, capsys, deadline):
    with deadline(10.0):
        assert main(["sweep", "--scenario", "two_basestations", "--grid", grid]) == 64
        lo, hi, step = (float(v) for v in grid.split(",")[0].split(":"))
        doc = dict(PRODUCT_DOC)
        doc.pop("arrival_rates")
        doc["grid"] = [{"min": lo, "max": hi, "step": step}] * 2
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--scenario", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.err.count("more than") == 2 and captured.out == ""


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


def test_builtin_params_are_the_allocation_block():
    scn = builtin_scenario("three_queues", {"a1": 2.5, "a23": 1.5})
    assert scn.params["kind"] == "table"
    assert scn.params["a_i"] == [2.5, 3.0, 3.0]
    assert scn.params["a_ij"] == {"12": 2.0, "13": 2.0, "21": 2.0, "23": 1.5,
                                  "31": 2.0, "32": 2.0}
    assert builtin_scenario("mm1", {"mu": 2.0}).params == {"kind": "constant",
                                                           "mu": [2.0]}


def test_preset_rates_must_match_its_queues():
    with pytest.raises(ScenarioError, match="'two_basestations'.*2 queues, got 1 rates"):
        builtin_scenario("two_basestations", {"rates": (0.3,)})
    assert builtin_scenario("two_basestations", {"rates": (0.3, 0.4)}).rates == (0.3, 0.4)


@pytest.mark.parametrize("grid_keys", [{"step": 0.1}, {"hi": 0.5}, {"step": 0.1, "hi": 0.5}])
def test_two_basestations_rejects_grid_keys_with_rates(grid_keys, capsys):
    # step and hi shape the default grid, which a rate point replaces
    with pytest.raises(ScenarioError, match="'two_basestations': step and hi"):
        builtin_scenario("two_basestations", {"rates": (0.3, 0.4), **grid_keys})
    assert builtin_scenario("two_basestations", grid_keys).grid is not None
    argv = ["analyze", "--scenario", "two_basestations", "--param", "rates=0.3"]
    for key, value in grid_keys.items():
        argv += ["--param", f"{key}={value}"]
    assert main(argv) == 64
    assert "scenario error: scenario 'two_basestations': step and hi" in \
        capsys.readouterr().err


def test_scenario_checks_its_rates_and_grid():
    spec = scenario_from_dict(dict(PRODUCT_DOC)).spec
    axis = GridAxis(0.1, 0.3, 0.1)
    with pytest.raises(ScenarioError, match="arrival_rates or a grid"):
        Scenario("s", spec)
    with pytest.raises(ScenarioError, match="2 queues, got 3 rates"):
        Scenario("s", spec, rates=(0.3, 0.4, 0.5))
    with pytest.raises(ScenarioError, match="2 queues, got 1 grid axes"):
        Scenario("s", spec, grid=[axis])
    for bad in (0.0, -1.0, NAN, INF):
        with pytest.raises(ScenarioError, match="rates must be positive and finite"):
            Scenario("s", spec, rates=(0.3, bad))
    scn = Scenario("s", spec, rates=(0.3, 0.4))
    with pytest.raises(ScenarioError, match="rates must be positive and finite"):
        dataclasses.replace(scn, rates=(0.3, -0.4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.rates = (0.3, -0.4)
    assert dataclasses.replace(scn, grid=[axis, axis]).grid == [axis, axis]


@pytest.mark.parametrize("n, allocation, message", [
    (1, {"kind": "constant"}, "mu must list 1 rates"),
    (1, {"kind": "constant", "mu": [1.0, 2.0]}, "mu must list 1 rates"),
    (1, {"kind": "constant", "mu": ["1"]}, "mu must be a number"),
    (1, {"kind": "constant", "mu": [-1.0]}, "allocation: service rate must be a finite number >= 0"),
    (1, {"kind": "constant", "mu": [1.0], "lam": 0.5}, "unknown allocation keys"),
    (1, {"kind": "power_law"}, "alpha must be a number, got None"),
    (1, {"kind": "power_law", "alpha": True}, "alpha must be a number"),
    (1, {"kind": "power_law", "alpha": -1.0}, "allocation: alpha must be a finite number >= 0"),
    (1, {"kind": "power_law", "alpha": 2.0, "mu": [1.0]}, "unknown allocation keys"),
    (2, {"kind": "power_law", "alpha": 2.0}, "exactly one queue"),
    (1, {"kind": "queue"}, "allocation kind must be"),
    (1, {"kind": "power_law", "alpha": 2000}, "allocation: alpha must be below 1024"),
])
def test_constant_and_power_law_kinds_check_their_keys(n, allocation, message):
    doc = {"n_queues": n, "arrival_rates": [0.5] * n, "allocation": allocation}
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(doc)


@pytest.mark.parametrize("name, params, doc", [
    ("mm1", {"mu": 2.0, "lam": 1.5},
     {"n_queues": 1, "arrival_rates": [1.5],
      "allocation": {"kind": "constant", "mu": [2.0]}}),
    ("one_server_alpha", {"alpha": 0.5},
     {"n_queues": 1, "arrival_rates": [0.9],
      "allocation": {"kind": "power_law", "alpha": 0.5}}),
])
def test_one_queue_presets_are_scenario_documents(name, params, doc, tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    argv = [a for k, v in params.items() for a in ("--param", f"{k}={v}")]
    assert main(["analyze", "--scenario", name, *argv]) == 0
    preset = json.loads(capsys.readouterr().out)
    assert main(["analyze", "--scenario", str(path)]) == 0
    from_file = json.loads(capsys.readouterr().out)
    assert preset.pop("scenario") == name and from_file.pop("scenario") == str(path)
    assert preset == from_file


def test_lam_and_lambda1_together_are_rejected(capsys):
    with pytest.raises(ScenarioError, match="lam and lambda1"):
        builtin_scenario("one_server_alpha", {"lam": 0.5, "lambda1": 0.7})
    argv = ["analyze", "--scenario", "one_server_alpha", "--param", "lam=0.5",
            "--param", "lambda1=0.7"]
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert "scenario error" in err and "lam and lambda1" in err


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
    ("mm1", "mu", -1.0, "0.5", "service rate must be a finite number >= 0"),
    ("two_basestations", "rates", 0.5, "0.5,0.5", "'two_basestations'"),
    ("two_basestations", "gamma", -1.0, "0.3,0.4", "gamma must be a finite number above 0"),
    ("two_basestations", "gamma", -0.01, "0.3,0.4", "gamma must be a finite number above 0"),
    ("two_basestations", "gamma", 0.0, "0.6,0.6", "gamma must be a finite number above 0"),
    ("three_queues", "a1", -3.0, "0.5,1.2,0.3", "must be a finite number >= 0"),
    ("three_queues", "a23", NAN, "0.5,1.2,0.3", "must be a finite number >= 0"),
    # the preset's own rate, with no --rates to replace it
    ("mm1", "lam", -1.0, None, "rates must be positive and finite"),
    ("mm1", "lam", NAN, None, "rates must be positive and finite"),
    ("one_server_alpha", "lambda1", 0.0, None, "rates must be positive and finite"),
])
def test_param_the_factory_rejects_exit_64(scenario, param, value, rates, message,
                                           capsys):
    with pytest.raises(ScenarioError, match=message):
        builtin_scenario(scenario, {param: value})
    commands = [["analyze"]]
    if rates is None:
        commands.append(["simulate", "--horizon", "10", "--replicas", "1"])
    for command in commands:
        argv = command + ["--scenario", scenario, "--param", f"{param}={value}"]
        assert main(argv + (["--rates", rates] if rates else [])) == 64
        err = capsys.readouterr().err
        assert "scenario error" in err and f"'{scenario}'" in err and message in err


@pytest.mark.parametrize("form", ["exp_interference", "poly_interference"])
def test_zero_gamma_is_rejected_for_both_forms(form, tmp_path, capsys):
    # at gamma = 0 the factor stays at 1/2 and never reaches its limit 1/6
    with pytest.raises(ValueError, match="gamma must be a finite number above 0"):
        INTERFERENCE_FORMS[form](0.0)
    argv = ["analyze", "--scenario", "two_basestations", "--rates", "0.6,0.6",
            "--param", "gamma=0", "--param", f"form={form}"]
    assert main(argv) == 64
    path = tmp_path / "scn.json"
    inter = {"form": form, "gamma": 0}
    path.write_text(json.dumps(_set_key(PRODUCT_DOC, "allocation.interference", inter)))
    assert main(["analyze", "--scenario", str(path)]) == 64
    err = capsys.readouterr().err
    assert err.count("scenario error") == 2 and err.count("gamma must be a finite number above 0") == 2
    assert "scenario error: allocation: gamma" in err


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


def test_cli_analyze_with_a_residual_tol_no_solve_meets(capsys, deadline):
    # every prefix solve misses the residual: envelope bounds decide (0.3, 0.4),
    # (0.5, 0.9) is left indeterminate
    argv = ["analyze", "--scenario", "two_basestations", "--tol", "residual_tol=1e-300"]
    with deadline(10):
        assert main([*argv, "--rates", "0.3,0.4"]) == 0
        assert main([*argv, "--rates", "0.5,0.9"]) == 2
    assert '"trustworthy": false' in capsys.readouterr().out


def test_cli_malformed_scenario_exit_64(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert main(["analyze", "--scenario", str(path), "--rates", "0.5"]) == 64
    assert "scenario error" in capsys.readouterr().err


def _set_key(doc, key, value):
    doc = json.loads(json.dumps(doc))
    *path, last = key.split(".")
    block = doc
    for part in path:
        block = block[part]
    if isinstance(block[last], list):
        block[last][0] = value
    else:
        block[last] = value
    return doc


# values a lax parse would ignore or coerce (a null bound, a fractional or
# boolean integer, a boolean number) follow the grid of non-numeric values
@pytest.mark.parametrize("doc, key, value", [
    (doc, key, value)
    for doc, key in [
        (PRODUCT_DOC, "arrival_rates"),
        (PRODUCT_DOC, "allocation.gain.cap"),
        (PRODUCT_DOC, "allocation.interference.gamma"),
        (dict(PRODUCT_DOC, bound=4.0), "bound"),
        (dict(PRODUCT_DOC, seed=7), "seed"),
        (TABLE_DOC, "arrival_rates"),
        (TABLE_DOC, "allocation.a_i"),
        (TABLE_DOC, "allocation.a_ij.23"),
    ]
    for value in ["abc", None, [1.0]]
    if not (key == "bound" and value is None)
] + [
    (dict(PRODUCT_DOC, bound=4.0), "bound", None),
    (dict(PRODUCT_DOC, seed=7), "seed", 1.5),
    (dict(PRODUCT_DOC, seed=7), "seed", True),
    (PRODUCT_DOC, "n_queues", True),
    (PRODUCT_DOC, "allocation.gain.cap", True),
    (PRODUCT_DOC, "allocation.gain.cap", "nan"),
    (PRODUCT_DOC, "arrival_rates", "0.3"),
    (dict(PRODUCT_DOC, seed=7), "seed", "7"),
    (PRODUCT_DOC, "allocation.gain.cap", "3"),
    (TABLE_DOC, "allocation.a_ij.23", "2"),
    (dict(PRODUCT_DOC, bound=4.0), "bound", "4"),
])
def test_cli_rejects_non_numeric_scenario_values(doc, key, value, tmp_path, capsys,
                                                 deadline):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_set_key(doc, key, value)))
    with deadline(10.0):
        assert main(["analyze", "--scenario", str(path)]) == 64
    err = capsys.readouterr().err
    name = key.removeprefix("allocation.").replace(".23", " '23'")
    need = {"seed": "an integer", "n_queues": "a positive integer"}.get(key, "a number")
    assert "scenario error" in err and f"{name} must be {need}" in err


@pytest.mark.parametrize("key, value", [
    ("allocation.gain.cap", float("nan")),
    ("allocation.gain.form", ["log_gain"]),
    ("allocation.interference.gamma", -1.0),
    ("bound", 1e400),
    ("allocation.interference.gamma", -0.01),
    ("allocation.interference.gamma", 0.0),
])
def test_cli_rejects_scenario_values_the_builders_reject(key, value, tmp_path, capsys,
                                                        deadline):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_set_key(dict(PRODUCT_DOC, bound=4.0), key, value)))
    with deadline(10.0):
        assert main(["analyze", "--scenario", str(path)]) == 64
    assert "scenario error: allocation:" in capsys.readouterr().err


def test_cli_rejects_an_alpha_whose_bound_overflows(tmp_path, capsys, deadline):
    # 2.0 ** 2000 raised OverflowError, and the message did not name alpha
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"n_queues": 1, "arrival_rates": [0.5],
                                "allocation": {"kind": "power_law", "alpha": 2000}}))
    with deadline(10.0):
        assert main(["analyze", "--scenario", str(path)]) == 64
    assert "scenario error: allocation: alpha must be below 1024" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("allocation.a_i", -3.0),  # the first solo rate
    ("allocation.a_ij", {"12": -0.5}),
])
def test_cli_rejects_negative_table_rates(key, value, tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_set_key(TABLE_DOC, key, value)))
    assert main(["analyze", "--scenario", str(path)]) == 64
    err = capsys.readouterr().err
    assert "scenario error: allocation: table rate -" in err
    assert "must be a finite number >= 0" in err
    assert main(["three-queues", "--rates", "0.5,1.2,0.3", "--param", "a1=-3"]) == 64
    assert "must be a finite number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--pairs", "--events"])
@pytest.mark.parametrize("value", ["-3", "0"])
def test_cli_couple_check_needs_positive_counts(flag, value, capsys):
    # a check over no pairs or no events would report success having
    # checked nothing
    assert main(["couple-check", flag, value]) == 64
    assert f"must be at least 1, got {value}" in capsys.readouterr().err


def test_cli_closed_pipe_exits_141_quietly(deadline):
    # The reader takes one line and goes away, as `| head -1` does.  The CSV
    # is larger than the pipe holds, so later writes find the pipe closed;
    # stdout is block-buffered, as it is in a plain run.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(__file__).parents[1] / "src")
    argv = [sys.executable, "-m", "coupledq.cli", "sweep", "--scenario",
            "two_basestations", "--grid", "3:12:0.1"]
    with deadline(60.0):
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait()
    assert first == b"lambda_1,lambda_2,label,margin\n"
    assert (code, err) == (141, b"")


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
    ("file", "margins_tol", "1e-3"),
    ("file", "start_box", "32"),
    ("file", "pd_box", "8"),
    ("top", "limit_tol", "1e-9"),
    ("top", "limit_tol", True),
])
def test_cli_rejects_bad_tolerances(where, key, value, tmp_path, capsys, deadline):
    if where == "cli":
        argv = ["analyze", "--scenario", "two_basestations", "--rates", "0.5,0.5",
                "--tol", f"{key}={value}"]
    else:
        block = {key: value} if where == "top" else {"tolerances": {key: value}}
        doc = dict(PRODUCT_DOC, **block)
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


@pytest.mark.parametrize("horizon, interval", [("2000", "1e-9"), ("1e6", "1")])
def test_cli_simulate_rejects_too_many_samples(horizon, interval, tmp_path, capsys,
                                               deadline):
    # checked before the probe runs; a ValueError from simulate_path would exit 70
    dump = tmp_path / "path.csv"
    argv = ["simulate", "--scenario", "mm1", "--rates", "0.5", "--horizon", horizon,
            "--replicas", "1", "--dump", str(dump), "--sample-interval", interval]
    with deadline(2.0):
        assert main(argv) == 64
    assert "samples" in capsys.readouterr().err
    assert not dump.exists()


def test_cli_simulate_dump_honours_sample_interval(tmp_path, capsys):
    dump = tmp_path / "path.csv"
    argv = ["simulate", "--scenario", "mm1", "--rates", "0.5", "--horizon", "10",
            "--replicas", "1", "--dump", str(dump), "--sample-interval", "2.5"]
    assert main(argv) == 0
    assert "wrote" in capsys.readouterr().out
    times = [float(line.split(",")[0]) for line in dump.read_text().splitlines()[1:]]
    assert times == [0.0, 2.5, 5.0, 7.5, 10.0]


@pytest.mark.parametrize("interval", ["1", "0.1", "0.3"])
def test_cli_simulate_dump_matches_reference_path(interval, tmp_path, capsys):
    # the --dump CSV, byte for byte, as written from the scalar reference path
    dump = tmp_path / "path.csv"
    assert main(["simulate", "--scenario", "two_basestations", "--rates", "0.5,0.6",
                 "--replicas", "1", "--sample-interval", interval,
                 "--dump", str(dump)]) == 0
    scn = builtin_scenario("two_basestations", {"rates": (0.5, 0.6)})
    ref = reference_path(scn.rates, scn.spec, (0, 0), 2000.0, scn.seed,
                         sample_interval=float(interval))
    want = io.StringIO()
    dump_path_csv(ref, want)
    assert dump.read_bytes() == want.getvalue().encode()


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


GOLDEN = pathlib.Path(__file__).parent / "data"
SCENARIOS = pathlib.Path(__file__).parents[1] / "demos" / "scenarios"


# Full-precision verdict records and reports, byte for byte.  Each file is
# the command's stdout; a change that is meant to move these figures
# rewrites the files with the same command and shows the moved bytes in its
# diff.
@pytest.mark.parametrize("argv, code, golden", [
    (["analyze", "--scenario", str(SCENARIOS / "three_queues.json")], 0,
     "analyze_three_queues.json"),
    # a sequential certificate
    (["analyze", "--scenario", "two_basestations", "--rates", "0.45,0.45"], 0,
     "analyze_two_basestations_0.45_0.45.json"),
    # a descent witness below the point
    (["analyze", "--scenario", "two_basestations", "--rates", "0.5,0.6"], 1,
     "analyze_two_basestations_0.5_0.6.json"),
    # a saturation witness behind a stable prefix
    (["analyze", "--scenario", "two_basestations", "--rates", "1.3,0.2"], 1,
     "analyze_two_basestations_1.3_0.2.json"),
    (["three-queues", "--rates", "0.5,1.2,0.3"], 0, "three_queues_0.5_1.2_0.3.txt"),
    (["analyze", "--scenario", "mm1", "--rates", "0.5"], 0, "analyze_mm1_0.5.json"),
    (["analyze", "--scenario", "one_server_alpha", "--rates", "0.95"], 0,
     "analyze_one_server_alpha_0.95.json"),
    (["sweep", "--scenario", "two_basestations", "--param", "form=poly_interference",
      "--param", "gamma=0.05", "--grid", "0.1:1.4:0.1"], 0,
     "sweep_two_basestations_poly_0.05.csv"),
    (["couple-check", "--pairs", "20", "--events", "300"], 0,
     "couple_check_pairs_20_events_300.txt"),
    # three queues below two, apart from each other after a few events
    (["couple-check", "--scenario", str(GOLDEN / "couple_lower.json"),
      "--scenario-y", str(GOLDEN / "couple_upper.json"), "--events", "2000"], 0,
     "couple_check_lower_upper.txt"),
])
def test_cli_outputs_match_golden_files(argv, code, golden, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


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


@pytest.mark.parametrize("flags", [
    ["--scenario", "mm1"],
    ["--scenario-y", "mm1"],
    ["--param", "mu=2"],
    ["--scenario", "mm1", "--param", "mu=2"],
])
def test_cli_couple_check_rejects_half_a_scenario_pair(flags, capsys):
    # these used to run the random corpus and exit 0
    assert main(["couple-check", "--pairs", "3", "--events", "50"] + flags) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scenario error" in captured.err and "--scenario-y" in captured.err


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
