import json

import numpy as np
import pytest

from popuc import cli
from popuc.cli import main
from popuc.dynamics import SweepConfig, ZeroPolicy, solve_at, sweep, sweep_verdicts
from popuc.measures import ACWeight, MassPoint, Measure
from popuc.scenarios import SCENARIOS, scenario_config, scenario_json

_BS = ACWeight.bernstein_szego(complex(0.0, -1.0 / 3.0))
_LEBESGUE_MASS = Measure.of(ACWeight.lebesgue("1 - t"), [MassPoint.of("t", "0")])

# each scenario as a SweepConfig built in code, the reference for its JSON data
REFERENCE = {
    "bs_mass_gamma": SweepConfig(
        Measure.of(_BS, [MassPoint.of("t", "2*pi/3")]),
        5, 0.01, 5.0, 50, ZeroPolicy.fixed_xi(1j), theorem="t23",
    ),
    "bs_mass_omega": SweepConfig(
        Measure.of(_BS, [MassPoint.of("1", "2*pi/3 + t")]),
        5, 0.0, 0.5, 50, ZeroPolicy.fixed_xi(1j), theorem="t23",
    ),
    "lebesgue_mass_b": SweepConfig(
        _LEBESGUE_MASS, 5, 0.1, 0.9, 50, ZeroPolicy.fixed_b(-1.0 + 0.0j), theorem="t23",
    ),
    "lebesgue_mass_fixed_one": SweepConfig(
        _LEBESGUE_MASS, 5, 0.05, 0.95, 50, ZeroPolicy.fixed_xi(1.0 + 0.0j), theorem="t23",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_config_equals_the_reference_construction(name):
    assert scenario_config(name) == REFERENCE[name]


def test_scenario_json_is_a_copy():
    obj = scenario_json("bs_mass_gamma")
    obj["measure"]["masses"][0]["gamma"] = "2"
    obj["degree"] = 7
    assert scenario_json("bs_mass_gamma") == SCENARIOS["bs_mass_gamma"]
    assert scenario_config("bs_mass_gamma") == REFERENCE["bs_mass_gamma"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_piped_into_sweep_matches_the_library(tmp_path, monkeypatch, name):
    cfg_path = tmp_path / "scenario.json"
    assert main(["scenario", name, "--out", str(cfg_path)]) == 0
    piped = _sweep_outputs(tmp_path / "piped", ["--config", str(cfg_path)])
    # the same CSV and verdict writers, fed scenario_config(name) itself
    monkeypatch.setattr(cli, "_load_config", lambda args: scenario_config(name))
    direct = _sweep_outputs(tmp_path / "direct", ["--config", "unread.json"])
    assert piped == direct
    cfg = scenario_config(name)
    assert json.loads(direct[1]) == json.loads(json.dumps(sweep_verdicts(cfg, sweep(cfg))))


def _sweep_outputs(prefix, argv):
    csv_out, verd_out = f"{prefix}.csv", f"{prefix}.json"
    assert main(["sweep", *argv, "--out", csv_out, "--verdicts-out", verd_out]) == 0
    with open(csv_out, "rb") as a, open(verd_out, "rb") as b:
        return a.read(), b.read()


def test_scenario_prints_expressions_in_source_form(capsys):
    assert main(["scenario", "bs_mass_gamma"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == SCENARIOS["bs_mass_gamma"]
    assert obj["measure"]["masses"][0]["omega"] == "2*pi/3"
    assert "h" not in obj


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_b_sets_fixed_b_for_any_scenario(tmp_path, name):
    # zeros --b replaces the printed scenario's policy; scenario takes no --b
    cfg_path, out = str(tmp_path / "scenario.json"), tmp_path / "zeros.json"
    assert main(["scenario", name, "--out", cfg_path]) == 0
    assert main(["zeros", "--config", cfg_path, "--b", "1,0", "--out", str(out)]) == 0
    cfg = scenario_config(name)
    zs = solve_at(cfg.measure, cfg.degree, ZeroPolicy.fixed_b(1), 0.0, cfg.nodes).zero_set
    payload = json.loads(out.read_text())
    assert payload["b"] == [1.0, 0.0] and payload["phases"] == zs.phases.tolist()
    with pytest.raises(SystemExit) as exc:
        main(["scenario", name, "--b", "1,0"])
    assert exc.value.code == 2


def test_from_json_fills_defaults():
    cfg = SweepConfig.from_json({"measure": {"ac": {"kind": "lebesgue"}}})
    assert cfg == SweepConfig(
        Measure.of(ACWeight.lebesgue("1")), 5, 0.0, 1.0, 10, ZeroPolicy.fixed_b(1)
    )


@pytest.mark.parametrize("key", ["h", "comment"])
def test_from_json_rejects_h_like_any_unknown_key(tmp_path, capsys, key):
    # the retired top-level h is read by nothing, so it fails as a typo does
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(scenario_json("lebesgue_mass_b"), **{key: 0.5})))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert repr(key) in capsys.readouterr().err


def test_from_json_takes_python_sequences_and_numpy_numbers():
    # a Python caller may pass tuples and numpy scalars where JSON has lists and floats
    obj = scenario_json("bs_mass_gamma")
    obj["measure"]["ac"]["lambda"] = (np.float64(0.0), -1.0 / 3.0)
    obj["policy"]["value"] = np.array([0.0, 1.0])
    obj["grid"].update(start=np.float64(0.01), stop=np.float64(5.0))
    assert SweepConfig.from_json(obj) == REFERENCE["bs_mass_gamma"]
    obj["grid"]["start"] = np.True_
    with pytest.raises(ValueError, match="'start'"):
        SweepConfig.from_json(obj)
