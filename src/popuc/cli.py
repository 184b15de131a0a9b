"""Command-line interface.

Subcommands: moments, opuc, zeros, sweep, verify, scenario.
Exit codes: 0 success, 1 a verification check failed (``verify``),
2 configuration/validation failure, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .dynamics import (
    SweepConfig,
    TrackingError,
    ZeroPolicy,
    fd_velocity,
    solve_at,
    sweep,
    sweep_verdicts,
)
from .expressions import ExprError
from .measures import DEFAULT_NODES, MIN_NODES, Measure, MeasureError, json_number, moments
from .opuc import DegenerateMeasureError, gram_opuc
from .paraorthogonal import RootFindingError
from .predicates import THEOREMS
from .scenarios import SCENARIOS, scenario_json
from .verify import CHECKS, run_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_CONFIG_ERRORS = (ExprError, MeasureError, KeyError, ValueError, json.JSONDecodeError)
_NUMERICAL_ERRORS = (DegenerateMeasureError, RootFindingError, TrackingError)


def _complex_pair(text: str) -> complex:
    re_s, im_s = text.split(",")
    return complex(float(re_s), float(im_s))


def _load_measure(args) -> tuple[Measure, int]:
    """(measure, nodes): --nodes, else the config's ``nodes``, else the default; at least MIN_NODES."""
    with open(args.config) as fh:
        obj = json.load(fh)
    nodes = args.nodes if args.nodes is not None else json_number(obj, "nodes", DEFAULT_NODES, (int,))
    if nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} quadrature nodes, got {nodes}")
    return Measure.from_json(obj.get("measure", obj)), nodes


def _flag_policy(args) -> ZeroPolicy | None:
    """The policy set by --fix-zero or --b, if either was given."""
    if args.fix_zero is not None:
        return ZeroPolicy.fixed_xi(args.fix_zero)
    if args.b is not None:
        return ZeroPolicy.fixed_b(args.b)
    return None


def _load_config(args) -> SweepConfig:
    """The config file with the command-line flags written over it, so that a
    flag replaces a bad config value before validation."""
    with open(args.config) as fh:
        obj = json.load(fh)
    if args.degree is not None:
        obj["degree"] = args.degree
    if args.grid:
        start_s, stop_s, steps_s = args.grid.split(":")
        obj["grid"] = {"start": float(start_s), "stop": float(stop_s), "steps": int(steps_s)}
    policy = _flag_policy(args)
    if policy is not None:
        obj["policy"] = {"kind": policy.kind, "value": [policy.value.real, policy.value.imag]}
    if args.theorem:
        obj["theorem"] = args.theorem
    if args.nodes is not None:
        obj["nodes"] = args.nodes
    return SweepConfig.from_json(obj)


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj, out: str | None) -> None:
    _write_out(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def cmd_moments(args) -> int:
    m, nodes = _load_measure(args)
    ms = moments(m, args.t, args.order, nodes)
    payload = {
        "t": args.t,
        "K": args.order,
        "c": {str(k): [ms[k].real, ms[k].imag] for k in range(-args.order, args.order + 1)},
    }
    _dump_json(payload, args.out)
    return EXIT_OK


def cmd_opuc(args) -> int:
    m, nodes = _load_measure(args)
    n = args.degree
    ms = moments(m, args.t, 2 * n + 2, nodes)
    fam = gram_opuc(ms, n)
    payload = {
        "t": args.t,
        "polys": [
            [[c.real, c.imag] for c in fam[k].coeffs] for k in range(n + 1)
        ],
        "norms": [float(v) for v in fam.norms],
        "verblunsky": [[a.real, a.imag] for a in fam.alphas],
    }
    _dump_json(payload, args.out)
    return EXIT_OK


def cmd_zeros(args) -> int:
    policy = _flag_policy(args)
    if policy is None:
        print("zeros: need --b or --fix-zero", file=sys.stderr)
        return EXIT_CONFIG
    m, nodes = _load_measure(args)
    st = solve_at(m, args.degree, policy, args.t, nodes)
    zs = st.zero_set
    payload = {
        "t": args.t,
        "b": [st.popuc.b.real, st.popuc.b.imag],
        "phases": [float(ph) for ph in zs.phases],
        "residuals": [float(r) for r in zs.residuals],
        "min_gap": zs.min_gap,
    }
    _dump_json(payload, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    traj = sweep(cfg)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "zero_index", "phase", "velocity", "residual"])
    velocities = np.stack([fd_velocity(traj, k) for k in range(traj.n_zeros)], axis=1)
    # residual per chain requires the per-t sorted-order position of the chain
    for i, t in enumerate(traj.ts):
        zs = traj.zero_sets[i]
        for k in range(traj.n_zeros):
            pos = zs.nearest_index(traj.chains[i, k])
            writer.writerow(
                [
                    f"{t:.12g}",
                    k,
                    f"{traj.chains[i, k]:.15g}",
                    f"{velocities[i, k]:.15g}",
                    f"{zs.residuals[pos]:.3e}",
                ]
            )
    _write_out(buf.getvalue(), args.out)
    if args.verdicts_out:
        _dump_json(sweep_verdicts(cfg, traj), args.verdicts_out)
    return EXIT_OK


def cmd_verify(args) -> int:
    only = [args.only] if args.only else None
    results = run_checks(only)
    return EXIT_OK if all(r.passed for r in results) else 1


def cmd_scenario(args) -> int:
    _dump_json(scenario_json(args.name, args.b), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popuc",
        description="Paraorthogonal polynomials on the unit circle: "
        "moments, zeros, trajectories, and motion verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON config path")
        p.add_argument("--nodes", type=int, default=None, help="quadrature node count (at least 16)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def add_policy(p):
        policy = p.add_mutually_exclusive_group()
        policy.add_argument("--b", type=_complex_pair, default=None, metavar="RE,IM")
        policy.add_argument("--fix-zero", type=_complex_pair, default=None, metavar="RE,IM")

    p = sub.add_parser("moments", help="trigonometric moments c_{-K..K}")
    add_common(p)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--order", type=int, default=8, metavar="K")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("opuc", help="monic OPUC up to a degree")
    add_common(p)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--degree", type=int, default=4)
    p.set_defaults(func=cmd_opuc)

    p = sub.add_parser("zeros", help="POPUC unit-circle zeros at one t")
    add_common(p)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--degree", type=int, default=5, help="POPUC degree n+1")
    add_policy(p)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("sweep", help="trajectory CSV (+ verdict JSON) over a t grid")
    add_common(p)
    p.add_argument("--grid", default=None, metavar="START:STOP:STEPS")
    p.add_argument("--degree", type=int, default=None)
    add_policy(p)
    p.add_argument(
        "--theorem", choices=THEOREMS, default=None,
        help="reference zero: the pinned zero (t21, t23; one computation) or the "
        "conjugate partner (t22); the measure decides the continuous terms",
    )
    p.add_argument("--verdicts-out", default=None, help="verdict JSON path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--only", default=None, choices=sorted(CHECKS), help="run one check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scenario", help="emit a built-in scenario config as JSON")
    p.add_argument("name", choices=sorted(SCENARIOS))
    p.add_argument("--b", type=_complex_pair, default=None, metavar="RE,IM")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
