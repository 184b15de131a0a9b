import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import popuc
from popuc import verify
from popuc.cli import main
from popuc.dynamics import ZeroPolicy, solve_at
from popuc.measures import Measure
from popuc.scenarios import scenario_json


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def mixed_config(tmp_path):
    return _write(
        tmp_path,
        "mixed.json",
        {
            "measure": {
                "ac": {"kind": "lebesgue", "scale": "1 - t"},
                "masses": [{"gamma": "t", "omega": "0"}],
            },
            "degree": 5,
            "grid": {"start": 0.1, "stop": 0.9, "steps": 9},
            "policy": {"kind": "fixed_b", "value": [-1.0, 0.0]},
            "theorem": "t23",
        },
    )


def test_moments_output(tmp_path, mixed_config):
    out = tmp_path / "m.json"
    code = main(
        ["moments", "--config", mixed_config, "--t", "0.5", "--order", "3", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["c"]["0"] == pytest.approx([1.0, 0.0])
    for k in ("1", "2", "3", "-1"):
        assert payload["c"][k] == pytest.approx([0.5, 0.0])


def test_opuc_output(tmp_path, mixed_config):
    out = tmp_path / "o.json"
    code = main(["opuc", "--config", mixed_config, "--t", "0.5", "--degree", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["polys"]) == 4
    assert payload["polys"][3][3] == pytest.approx([1.0, 0.0])
    assert len(payload["verblunsky"]) == 3
    assert all(n > 0 for n in payload["norms"])


def test_zeros_with_fixed_zero(tmp_path, mixed_config):
    out = tmp_path / "z.json"
    code = main(
        [
            "zeros", "--config", mixed_config, "--t", "0.5", "--degree", "5",
            "--fix-zero", "0,1", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["phases"]) == 5
    assert min(abs(p - math.pi / 2) for p in payload["phases"]) < 1e-9
    assert max(payload["residuals"]) < 1e-9
    assert payload["phases"] == list(_library_zeros(mixed_config, ZeroPolicy.fixed_xi(1j)))


def test_zeros_with_fixed_b(tmp_path, mixed_config):
    out = tmp_path / "z.json"
    code = main(
        [
            "zeros", "--config", mixed_config, "--t", "0.5", "--degree", "5",
            "--b=-1,0", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["b"] == [-1.0, 0.0]
    assert payload["phases"] == list(_library_zeros(mixed_config, ZeroPolicy.fixed_b(-1)))


def _library_zeros(config_path, policy):
    with open(config_path) as fh:
        m = Measure.from_json(json.load(fh)["measure"])
    return solve_at(m, 5, policy, 0.5).zero_set.phases


def test_zeros_needs_policy(tmp_path, mixed_config):
    assert main(["zeros", "--config", mixed_config]) == 2


def test_nan_policy_value_exits_2(mixed_config, capsys):
    assert main(["zeros", "--config", mixed_config, "--b", "nan,0"]) == 2
    assert capsys.readouterr().out == ""
    assert main(["sweep", "--config", mixed_config, "--fix-zero", "nan,0"]) == 2
    assert "unit circle" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["zeros", "sweep"])
def test_b_and_fix_zero_are_exclusive(mixed_config, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", mixed_config, "--b", "1,0", "--fix-zero", "0,1"])
    assert exc.value.code == 2


def test_zeros_rejects_degree_below_one(mixed_config):
    assert main(["zeros", "--config", mixed_config, "--degree", "0", "--b", "1,0"]) == 2


def test_sweep_csv_and_verdicts(tmp_path, mixed_config):
    csv_out = tmp_path / "traj.csv"
    verd_out = tmp_path / "verd.json"
    code = main(
        [
            "sweep", "--config", mixed_config, "--fix-zero", "0,1",
            "--out", str(csv_out), "--verdicts-out", str(verd_out),
        ]
    )
    assert code == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "t,zero_index,phase,velocity,residual"
    assert len(lines) == 1 + 9 * 5
    verdicts = json.loads(verd_out.read_text())
    assert len(verdicts) == 9
    assert all(len(entry["verdicts"]) == 4 for entry in verdicts)


def test_t22_sweep_labels_both_zeros_of_each_pair(tmp_path):
    masses = [
        {"gamma": "0.5 + 0.2*t", "omega": "1.0"},
        {"gamma": "0.5 + 0.2*t", "omega": "-1.0"},
        {"gamma": "0.8 - 0.1*t", "omega": "2.2"},
        {"gamma": "0.8 - 0.1*t", "omega": "-2.2"},
    ]
    config = _write(tmp_path, "conjugate.json", {
        "measure": {"masses": masses},
        "degree": 4,
        "grid": {"start": -0.5, "stop": 0.5, "steps": 11},
        "policy": {"kind": "fixed_b", "value": [1.0, 0.0]},
        "theorem": "t22",
    })
    csv_out, verd_out = tmp_path / "traj.csv", tmp_path / "verd.json"
    code = main(
        ["sweep", "--config", config, "--out", str(csv_out), "--verdicts-out", str(verd_out)]
    )
    assert code == 0
    rows = list(csv.DictReader(csv_out.open()))
    verdicts = json.loads(verd_out.read_text())
    assert len(verdicts) == 11
    for entry in verdicts:
        here = [r for r in rows if float(r["t"]) == pytest.approx(entry["t"], abs=1e-12)]
        off_axis = [r for r in here if abs(math.sin(float(r["phase"]))) > 1e-6]
        assert len(entry["verdicts"]) == len(off_axis) == 2
        for item in entry["verdicts"]:
            phi = item["tracked_phase"]
            row = min(here, key=lambda r: abs(math.remainder(float(r["phase"]) - phi, 2 * math.pi)))
            velocity = float(row["velocity"])
            assert abs(velocity) > 1e-6
            assert item["verdict"] == ("CCW" if velocity > 0 else "CW")
        assert {item["verdict"] for item in entry["verdicts"]} == {"CCW", "CW"}


def test_sweep_deterministic(tmp_path, mixed_config):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(["sweep", "--config", mixed_config, "--fix-zero", "0,1", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scenario_round_trips_into_sweep(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    assert main(["scenario", "lebesgue_mass_b", "--out", str(cfg_path)]) == 0
    out = tmp_path / "traj.csv"
    assert main(["sweep", "--config", str(cfg_path), "--grid", "0.1:0.9:5", "--out", str(out)]) == 0
    assert out.read_text().startswith("t,zero_index,phase,velocity,residual")


def test_scenario_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit):
        main(["scenario", "nope"])


def test_malformed_expression_exits_2(tmp_path):
    path = _write(
        tmp_path,
        "bad.json",
        {"measure": {"ac": {"kind": "none"}, "masses": [{"gamma": "1 +", "omega": "0"}]}},
    )
    assert main(["moments", "--config", path]) == 2


def test_missing_file_exits_2(tmp_path):
    assert main(["moments", "--config", str(tmp_path / "absent.json")]) == 2


def test_bad_grid_exits_2(tmp_path, mixed_config):
    code = main(
        ["sweep", "--config", mixed_config, "--fix-zero", "0,1", "--grid", "0:1:2",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_empty_grid_interval_exits_2(tmp_path, mixed_config, capsys):
    # a zero-width grid would divide by a zero step in the velocities
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", mixed_config, "--grid", "0.5:0.5:5", "--out", str(out)]) == 2
    assert "empty grid interval" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda obj: obj.update(degre=8), "degre"),
        (lambda obj: obj["grid"].update(step=50), "step"),
        (lambda obj: obj["policy"].update(values=[0.0, 1.0]), "values"),
    ],
    ids=["top_level", "grid", "policy"],
)
def test_misspelt_config_key_exits_2_and_names_it(tmp_path, mixed_config, capsys, edit, key):
    obj = json.loads(open(mixed_config).read())
    edit(obj)
    path = _write(tmp_path, "typo.json", obj)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda m: m.update(mass=[]), "mass"),
        (lambda m: m["ac"].update(scal=m["ac"].pop("scale")), "scal"),
        (lambda m: m["masses"][0].update(gama=m["masses"][0].pop("gamma")), "gama"),
    ],
    ids=["measure", "ac", "mass"],
)
def test_misspelt_measure_key_exits_2_and_names_it(tmp_path, mixed_config, capsys, edit, key):
    # a misspelt key would otherwise take its default: "scal" left the
    # Lebesgue scale at 1, and moments printed c_0 = 1.5 at t = 0.5
    obj = json.loads(open(mixed_config).read())
    edit(obj["measure"])
    path = _write(tmp_path, "typo.json", obj)
    assert main(["moments", "--config", path, "--t", "0.5", "--order", "1"]) == 2
    assert repr(key) in capsys.readouterr().err


def test_python_dash_m_popuc_runs_the_cli():
    src = str(Path(popuc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "popuc", "verify", "--only", "expr"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "PASS" in done.stdout


def test_degenerate_measure_exits_3(tmp_path):
    # two masses support OPUC only up to degree 2; degree-4 POPUC needs Q_3
    path = _write(
        tmp_path,
        "degenerate.json",
        {
            "measure": {
                "ac": {"kind": "none"},
                "masses": [
                    {"gamma": "1", "omega": "1.0"},
                    {"gamma": "1", "omega": "3.0"},
                ],
            }
        },
    )
    assert main(["zeros", "--config", path, "--degree", "4", "--b", "1,0"]) == 3


def test_verify_single_check(capsys):
    assert main(["verify", "--only", "expr"]) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out
    assert "expr" in captured.out


def test_verify_failing_check_exits_1(monkeypatch):
    failing = verify.CheckResult(name="always-fails", passed=False, detail="", seconds=0.0)
    monkeypatch.setitem(verify.CHECKS, "always-fails", lambda: failing)
    assert main(["verify", "--only", "always-fails"]) == 1


def test_nodes_zero_is_rejected_not_defaulted(tmp_path):
    path = _write(
        tmp_path,
        "custom.json",
        {"measure": {"ac": {"kind": "custom", "w": "1 + cos(theta)/2"}, "masses": []}},
    )
    assert main(["moments", "--config", path, "--nodes", "0"]) == 2


def test_too_few_nodes_rejected_for_lebesgue(tmp_path, mixed_config):
    out = str(tmp_path / "x")
    assert main(["moments", "--config", mixed_config, "--nodes", "8", "--out", out]) == 2
    assert main(["opuc", "--config", mixed_config, "--nodes", "8", "--out", out]) == 2
    assert main(["zeros", "--config", mixed_config, "--b", "1,0", "--nodes", "8", "--out", out]) == 2
    assert main(["sweep", "--config", mixed_config, "--fix-zero", "0,1", "--nodes", "8", "--out", out]) == 2


@pytest.mark.parametrize(
    "ac",
    [{"kind": "lebesgue", "scale": "-0.2"}, {"kind": "custom", "w": "cos(theta)"}],
    ids=["negative_lebesgue_scale", "negative_custom_weight"],
)
def test_negative_density_exits_2_from_every_command(tmp_path, ac, capsys):
    path = _write(
        tmp_path,
        "negative.json",
        {
            "measure": {"ac": ac, "masses": [{"gamma": "1", "omega": "0.5"}]},
            "degree": 3,
            "grid": {"start": 0.0, "stop": 1.0, "steps": 5},
        },
    )
    out = str(tmp_path / "x")
    assert main(["moments", "--config", path, "--nodes", "64", "--out", out]) == 2
    assert main(["opuc", "--config", path, "--nodes", "64", "--degree", "2", "--out", out]) == 2
    assert main(["zeros", "--config", path, "--nodes", "64", "--degree", "3", "--b", "1,0", "--out", out]) == 2
    assert main(["sweep", "--config", path, "--nodes", "64", "--b", "1,0", "--out", out]) == 2
    assert "numerical failure" not in capsys.readouterr().err


def test_sweep_degree_zero_is_rejected_not_defaulted(tmp_path, mixed_config):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", mixed_config, "--degree", "0", "--out", str(out)]) == 2
    assert not out.exists()


def test_sweep_config_with_unknown_theorem_exits_2(tmp_path, mixed_config):
    obj = json.loads(open(mixed_config).read())
    obj["theorem"] = "t99"
    path = _write(tmp_path, "t99.json", obj)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    verdicts = tmp_path / "v.json"
    assert main(["sweep", "--config", path, "--out", str(out), "--verdicts-out", str(verdicts)]) == 2
    assert not out.exists() and not verdicts.exists()


def test_flags_override_bad_config_values_before_validation(tmp_path, mixed_config):
    obj = json.loads(open(mixed_config).read())
    out = str(tmp_path / "s.csv")
    low_degree = _write(tmp_path, "degree1.json", dict(obj, degree=1))
    assert main(["sweep", "--config", low_degree, "--out", out]) == 2
    assert main(["sweep", "--config", low_degree, "--degree", "5", "--out", out]) == 0
    few_nodes = _write(tmp_path, "nodes8.json", dict(obj, nodes=8))
    assert main(["sweep", "--config", few_nodes, "--out", out]) == 2
    assert main(["sweep", "--config", few_nodes, "--nodes", "64", "--out", out]) == 0


def test_sweep_nodes_precedence(tmp_path):
    obj = {
        "measure": {"ac": {"kind": "custom", "w": "exp(cos(theta - t))"}, "masses": []},
        "degree": 4,
        "grid": {"start": 0.0, "stop": 0.2, "steps": 3},
        "policy": {"kind": "fixed_xi", "value": [0.0, 1.0]},
    }
    path = _write(tmp_path, "custom.json", obj)
    flag, out = tmp_path / "flag.csv", tmp_path / "out.csv"
    assert main(["sweep", "--config", path, "--nodes", "256", "--out", str(flag)]) == 0
    # the config's value beats the default, and a flag beats the config
    too_few = _write(tmp_path, "nodes8.json", dict(obj, nodes=8))
    assert main(["sweep", "--config", too_few, "--out", str(out)]) == 2
    assert main(["sweep", "--config", too_few, "--nodes", "256", "--out", str(out)]) == 0
    assert out.read_bytes() == flag.read_bytes()
    configured = _write(tmp_path, "nodes256.json", dict(obj, nodes=256))
    assert main(["sweep", "--config", configured, "--out", str(out)]) == 0
    assert out.read_bytes() == flag.read_bytes()
    assert main(["sweep", "--config", configured, "--nodes", "8", "--out", str(out)]) == 2


@pytest.mark.parametrize("value", [5.9, 5.0, "5", True], ids=["float", "integral_float", "string", "bool"])
@pytest.mark.parametrize("key", ["degree", "steps", "nodes"])
def test_non_integer_config_value_exits_2_and_names_it(tmp_path, mixed_config, capsys, key, value):
    # int() used to truncate these: "degree": 5.9 swept a degree-5 POPUC
    obj = json.loads(open(mixed_config).read())
    (obj["grid"] if key == "steps" else obj)[key] = value
    path = _write(tmp_path, "non_integer.json", obj)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [["0", "1"], 5, [0.0], [True, 0.0], None], ids=["strings", "number", "short", "bool", "null"])
@pytest.mark.parametrize("key", ["value", "lambda"])
def test_malformed_complex_pair_exits_2_and_names_it(tmp_path, capsys, key, value):
    # these used to escape as a TypeError, exit 1 (a failed verify check)
    obj = scenario_json("bs_mass_gamma")
    (obj["policy"] if key == "value" else obj["measure"]["ac"])[key] = value
    path = _write(tmp_path, "pair.json", obj)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()
    if key == "lambda":
        assert main(["moments", "--config", path, "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, "0.9", None, [0.5]], ids=["bool", "string", "null", "list"])
@pytest.mark.parametrize("key", ["start", "stop"])
def test_non_number_grid_bound_exits_2_and_names_it(tmp_path, mixed_config, capsys, key, value):
    # float() used to take these: "start": true swept from t = 1.0
    obj = json.loads(open(mixed_config).read())
    obj["grid"][key] = value
    path = _write(tmp_path, "bound.json", obj)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


def test_integer_grid_bounds_are_numbers(tmp_path):
    obj = scenario_json("bs_mass_gamma")
    out, ref = tmp_path / "int.csv", tmp_path / "float.csv"
    obj["grid"].update(start=1.0, stop=2.0, steps=5)
    assert main(["sweep", "--config", _write(tmp_path, "f.json", obj), "--out", str(ref)]) == 0
    obj["grid"].update(start=1, stop=2)
    assert main(["sweep", "--config", _write(tmp_path, "i.json", obj), "--out", str(out)]) == 0
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize(
    "command",
    [["moments"], ["opuc", "--degree", "3"], ["zeros", "--b", "1,0", "--degree", "4"]],
    ids=["moments", "opuc", "zeros"],
)
def test_every_command_reads_the_config_nodes(tmp_path, capsys, command):
    obj = {"measure": {"ac": {"kind": "custom", "w": "exp(cos(theta - t))"}, "masses": []}, "degree": 4}
    flag, out = tmp_path / "flag.json", tmp_path / "out.json"
    assert main([*command, "--config", _write(tmp_path, "plain.json", obj), "--nodes", "64", "--out", str(flag)]) == 0
    # the config's value beats the default, and a flag beats the config
    configured = _write(tmp_path, "nodes64.json", dict(obj, nodes=64))
    assert main([*command, "--config", configured, "--out", str(out)]) == 0
    assert out.read_bytes() == flag.read_bytes()
    too_few = _write(tmp_path, "nodes8.json", dict(obj, nodes=8))
    assert main([*command, "--config", too_few, "--out", str(out)]) == 2
    assert main([*command, "--config", too_few, "--nodes", "64", "--out", str(out)]) == 0
    assert out.read_bytes() == flag.read_bytes()
    assert main([*command, "--config", configured, "--nodes", "8", "--out", str(out)]) == 2
    not_integer = _write(tmp_path, "nodes64f.json", dict(obj, nodes=64.0))
    assert main([*command, "--config", not_integer, "--out", str(out)]) == 2
    assert "'nodes'" in capsys.readouterr().err
