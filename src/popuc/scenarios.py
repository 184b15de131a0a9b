"""Built-in named scenarios mirroring the worked figure configurations.

Each scenario is a full run config (measure, degree, grid, policy, theorem)
in the JSON schema that ``popuc sweep --config`` reads, so sweeps and
verification need no external files.
"""
from __future__ import annotations

import copy

from .dynamics import SweepConfig, ZeroPolicy

__all__ = ["SCENARIOS", "scenario_config", "scenario_json"]

_BS = {"kind": "bernstein_szego", "lambda": [0.0, -1 / 3]}
_LEBESGUE_MASS = {
    "ac": {"kind": "lebesgue", "scale": "1 - t"},
    "masses": [{"gamma": "t", "omega": "0"}],
}

SCENARIOS = {
    # Bernstein-Szego weight plus a mass at 2 pi/3 whose weight is the
    # parameter; the POPUC keeps a zero pinned at i
    "bs_mass_gamma": {
        "measure": {"ac": _BS, "masses": [{"gamma": "t", "omega": "2*pi/3"}]},
        "degree": 5,
        "grid": {"start": 0.01, "stop": 5.0, "steps": 50},
        "policy": {"kind": "fixed_xi", "value": [0.0, 1.0]},
        "theorem": "t23",
    },
    # same weight, unit mass whose location angle is the parameter
    "bs_mass_omega": {
        "measure": {"ac": _BS, "masses": [{"gamma": "1", "omega": "2*pi/3 + t"}]},
        "degree": 5,
        "grid": {"start": 0.0, "stop": 0.5, "steps": 50},
        "policy": {"kind": "fixed_xi", "value": [0.0, 1.0]},
        "theorem": "t23",
    },
    # (1-gamma) Lebesgue plus the mass gamma at angle 0, constant b
    "lebesgue_mass_b": {
        "measure": _LEBESGUE_MASS,
        "degree": 5,
        "grid": {"start": 0.1, "stop": 0.9, "steps": 50},
        "policy": {"kind": "fixed_b", "value": [-1.0, 0.0]},
        "theorem": "t23",
    },
    # same measure with the POPUC zero pinned at 1 (the mass location);
    # every zero then stays put as gamma varies
    "lebesgue_mass_fixed_one": {
        "measure": _LEBESGUE_MASS,
        "degree": 5,
        "grid": {"start": 0.05, "stop": 0.95, "steps": 50},
        "policy": {"kind": "fixed_xi", "value": [1.0, 0.0]},
        "theorem": "t23",
    },
}


def scenario_json(name: str, b: complex | None = None) -> dict:
    """A copy of the scenario's run config; ``b`` replaces its policy with
    ``fixed_b(b)``."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    obj = copy.deepcopy(SCENARIOS[name])
    if b is not None:
        ZeroPolicy.fixed_b(b)  # an off-circle b is rejected here, as sweep rejects it
        obj["policy"] = {"kind": "fixed_b", "value": [float(b.real), float(b.imag)]}
    return obj


def scenario_config(name: str, b: complex | None = None) -> SweepConfig:
    return SweepConfig.from_json(scenario_json(name, b))
