"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at ``--size tiny`` for one second in both trace modes and
checks that every metric BENCHMARK.json names prints with its unit, in the
human lines and in the result JSON. Then it breaks one oracle on purpose (a
negative residual tolerance) and checks that the failures reach
``error_rate`` and the result's ``failed`` count. Exits 1 on the first
failed check.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import sys

import run


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def tiny_run(workload: str, trace: int) -> tuple[str, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny"])
    out = buf.getvalue()
    if code != 0:
        fail(f"{workload} trace {trace} exited {code}:\n{out}")
    return out, json.loads(out.strip().splitlines()[-1])


def error_rate(out: str) -> float:
    match = re.search(r"^error_rate\s+(\S+) ratio \((\d+) failed of (\d+) jobs\)$", out, re.M)
    if match is None:
        fail(f"no error_rate line with its base in:\n{out}")
    return float(match.group(1))


def main() -> int:
    spec = run.load_spec()
    for entry in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out, result = tiny_run(entry["name"], trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"result keys {sorted(result)}")
            names = [m["name"] for m in spec[key]]
            if list(result["metrics"]) != names:
                fail(f"{entry['name']} trace {trace}: metrics {list(result['metrics'])} != {names}")
            for m in spec[key]:
                if not re.search(rf"^{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$", out, re.M):
                    fail(f"{entry['name']} trace {trace}: no line for {m['name']} in {m['unit']}")
                if result["metrics"][m["name"]]["unit"] != m["unit"]:
                    fail(f"{m['name']}: unit {result['metrics'][m['name']]['unit']}")
            if not result["correct"] or result["failed"] or error_rate(out) != 0.0:
                fail(f"{entry['name']} trace {trace}: failures at tiny size:\n{out}")
            print(f"ok  {entry['name']} trace {trace}: {len(names)} metrics, {result['attempted']} jobs")

    import workloads

    saved = workloads.RESIDUAL_TOL
    workloads.RESIDUAL_TOL = -1.0  # every closed-form residual now fails its oracle
    try:
        out, result = tiny_run("figure_sweeps", 0)
    finally:
        workloads.RESIDUAL_TOL = saved
    if result["correct"] or result["failed"] != result["attempted"] or error_rate(out) != 1.0:
        fail(f"a failing oracle did not raise error_rate:\n{out}")
    print(f"ok  broken oracle: error_rate 1 ({result['failed']} failed of {result['attempted']} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
