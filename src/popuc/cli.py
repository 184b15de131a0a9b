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
    fd_velocity,
    solve_at,
    sweep,
    sweep_verdicts,
)
from .measures import moments
from .opuc import DegenerateMeasureError, gram_opuc
from .paraorthogonal import RootFindingError
from .predicates import THEOREMS
from .scenarios import SCENARIOS, scenario_json
from .verify import CHECKS, run_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (DegenerateMeasureError, RootFindingError, TrackingError)


def _complex_pair(text: str) -> complex:
    re_s, im_s = text.split(",")
    return complex(float(re_s), float(im_s))


def _load_config(args) -> SweepConfig:
    """The run config with the command's flags written over it, so that a flag
    replaces a bad config value before the whole config is validated."""
    with open(args.config) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):  # no flag can mend it; from_json names the shape
        return SweepConfig.from_json(obj)
    flags = vars(args)
    for key in ("degree", "theorem", "nodes"):
        if flags.get(key) is not None:
            obj[key] = flags[key]
    if flags.get("grid"):
        start_s, stop_s, steps_s = args.grid.split(":")
        obj["grid"] = {"start": float(start_s), "stop": float(stop_s), "steps": int(steps_s)}
    for flag, kind in (("fix_zero", "fixed_xi"), ("b", "fixed_b")):
        if flags.get(flag) is not None:
            obj["policy"] = {"kind": kind, "value": [flags[flag].real, flags[flag].imag]}
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
    cfg = _load_config(args)
    ms = moments(cfg.measure, args.t, args.order, cfg.nodes)
    payload = {
        "t": args.t,
        "K": args.order,
        "c": {str(k): [ms[k].real, ms[k].imag] for k in range(-args.order, args.order + 1)},
    }
    _dump_json(payload, args.out)
    return EXIT_OK


def cmd_opuc(args) -> int:
    cfg = _load_config(args)
    n = cfg.degree - 1 if args.n is None else args.n
    fam = gram_opuc(moments(cfg.measure, args.t, n, cfg.nodes), n)
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
    cfg = _load_config(args)
    st = solve_at(cfg.measure, cfg.degree, cfg.policy, args.t, cfg.nodes)
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
    _dump_json(scenario_json(args.name), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popuc",
        description="Paraorthogonal polynomials on the unit circle: "
        "moments, zeros, trajectories, and motion verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run config path")
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
    p.add_argument(
        "--degree", dest="n", type=int, default=None, metavar="N",
        help="highest OPUC degree n (default: the config's degree - 1)",
    )
    p.set_defaults(func=cmd_opuc)

    p = sub.add_parser("zeros", help="POPUC unit-circle zeros at one t")
    add_common(p)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--degree", type=int, default=None, help="POPUC degree n+1 (default: the config's)")
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
    except ValueError as exc:  # ExprError, MeasureError and JSONDecodeError among them
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
