"""popuc benchmark: seeded workloads through the public API, checked by oracles.

    python3 perfbench/run.py --workload figure_sweeps --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--seconds`` defaults to BENCHMARK.json's ``run_seconds``.

Workloads, metric names and units come from BENCHMARK.json at the repo root.
popuc is imported from ``src/`` of the same checkout, never from elsewhere.

An untraced run sets up five times (here and in four fresh interpreters, so
each set-up pays for the import) and reports the median as ``setup_s``. A run
then makes passes over the workload's fixed job list, one thread, closed
loop, until ``--seconds`` is used. With ``--trace 0`` it prints the end-to-end
metrics, in reference seconds (see ``Reference``); with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics,
including the tracing overhead, in measured seconds. The last line of stdout is
the JSON result; the full record (environment, every metric, spans in a
traced run) goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 120
REFERENCE_S = 1e-3  # nominal duration of reference_work(): a 2-core x86 VM at its fast state
REFERENCE_SHARE = 0.05  # of the measured job time spent timing reference_work()
SETUP_REFERENCES = 30  # reference timings right after each set-up, to scale it


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def setup(name: str, seed: int, tiny: bool):
    """Import popuc from src/, build the workload's jobs (parsing their
    expressions) and make one warm-up solve. Returns (module, jobs, seconds)."""
    start = time.perf_counter()
    if not (SRC / "popuc" / "__init__.py").is_file():
        raise SystemExit(f"popuc sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import popuc

    if not Path(popuc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported popuc from {popuc.__file__}, not from {SRC}")
    import workloads

    jobs = workloads.WORKLOADS[name](seed, tiny)
    jobs[0].warm_up()
    return workloads, jobs, time.perf_counter() - start


def setup_samples(args, first: float) -> list[float]:
    """This process's set-up time plus that of SETUP_CHILDREN fresh interpreters."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class Reference:
    """Times a fixed computation that no change to popuc can alter, between jobs.

    On a shared 2-core x86 VM the machine's speed moved by 25-45% from one
    minute to the next, and the same job's median moved with it. Reporting each time as ``measured * REFERENCE_S / median(reference)``
    takes that common factor out; the measured seconds are printed and
    recorded too. ``reference_work`` mixes the three kinds of work popuc does:
    interpreted float arithmetic, small-array numpy calls and a small dense
    eigen- and linear solve.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.samples: list[float] = []
        self.spent = 0.0

    def reference_work(self) -> None:
        np = self.np
        x = 0.0
        for i in range(2000):
            x += math.sin(i * 1e-3) * (i % 7)
        a = np.arange(1.0, 49.0)
        for _ in range(40):
            a = np.sqrt(a * a + 1.0) - 0.5
        m = np.eye(48) + 1e-2 * np.cos(np.outer(a, a))
        for _ in range(2):
            np.linalg.eigvalsh(m)
            np.linalg.solve(m, a)

    def sample(self) -> None:
        start = time.perf_counter()
        self.reference_work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def keep_up(self, measured_s: float) -> None:
        """Samples until REFERENCE_SHARE of ``measured_s`` went to the reference."""
        while not self.samples or self.spent < REFERENCE_SHARE * measured_s:
            self.sample()

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


class Run:
    """Pass results of one measurement: walls, stage splits, failures, oracle reports."""

    def __init__(self, wl_module, jobs, reference: Reference | None = None):
        self.wl = wl_module
        self.jobs = jobs
        self.reference = reference
        self.measured_s = 0.0
        self.job_s: list[list[float]] = [[] for _ in jobs]
        self.walls: list[float] = []
        self.splits: list[Counter] = []
        self.balance_s: list[float] = []
        self.reports: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()

    def one_pass(self, tracer=None) -> list:
        """Runs every job once; returns (job, result) pairs for ``check``."""
        wall = 0.0
        split: Counter = Counter()
        results = []
        for index, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = len(self.walls) * len(self.jobs) + index
            self.attempted += 1
            if self.reference is not None:
                self.reference.keep_up(self.measured_s)
            start = time.perf_counter()
            try:
                result, job_split = job.run()
            except self.wl.LIBRARY_ERRORS as exc:
                result, problem = None, f"{job.label}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            self.measured_s += elapsed
            wall += elapsed
            self.job_s[index].append(elapsed)
            if result is None:
                self.failed += 1
                self.problems[problem] += 1
                continue
            split.update(job_split)
            if "balance_s" in job_split:
                self.balance_s.append(job_split["balance_s"])
            results.append((job, result))
        self.walls.append(wall)
        self.splits.append(split)
        return results

    def check(self, results: list) -> None:
        """Oracle checks, run after the timers and tracer are removed."""
        for job, result in results:
            report = job.check(result)
            self.reports.append(report)
            if report.problems:
                self.failed += 1
                self.problems.update(report.problems)

    def wall_s(self) -> float:
        """The pass time from each job's median over the passes: a burst of
        contention on a shared machine moves one sample of one job, not the
        result."""
        return sum(statistics.median(samples) for samples in self.job_s)


def measure(wl_module, jobs, seconds: float, traced: bool):
    """Closed loop over passes until ``seconds`` is used. Untraced, it times
    every solve_at; traced, it alternates untraced and traced passes."""
    import tracing

    plain = Run(wl_module, jobs, None if traced else Reference())
    traced_run = Run(wl_module, jobs) if traced else None
    timer = None if traced else tracing.SolveTimer()
    tracer = tracing.Tracer() if traced else None
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        patches = tracing.Patches()
        try:
            if timer is not None:
                timer.install(patches)
            results = plain.one_pass()
        finally:
            patches.restore()
        plain.check(results)
        if traced:
            try:
                tracer.install(patches)
                results = traced_run.one_pass(tracer)
            finally:
                patches.restore()
            traced_run.check(results)
        now = time.perf_counter()
        if now - start + (now - begin) > seconds:
            break
    return plain, traced_run, timer, tracer


def end_to_end(setup_s: list[float], plain: Run, timer) -> tuple[dict, dict, dict]:
    """(the BENCHMARK.json metrics, the per-workload stage times, every time as
    measured). Times in the first two are in reference seconds; ``setup_s``
    holds set-up times already scaled, each by the reference right after it."""
    measured = {
        "wall_s": plain.wall_s(),
        "solve_p50_ms": 1e3 * statistics.median(timer.samples),
    }
    for key in ("sweep_s", "verdicts_s"):
        if any(key in split for split in plain.splits):
            measured[key] = statistics.median(split[key] for split in plain.splits)
    if plain.balance_s:
        measured["balance_p50_ms"] = 1e3 * statistics.median(plain.balance_s)
        measured["balance_p90_ms"] = 1e3 * statistics.quantiles(plain.balance_s, n=10)[-1]
    scale = plain.reference.scale()
    scaled = {key: value * scale for key, value in measured.items()}
    metrics = {"setup_s": statistics.median(setup_s)}
    metrics.update((key, scaled.pop(key)) for key in ("wall_s", "solve_p50_ms"))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, scaled, measured


def per_layer(plain: Run, traced: Run, tracer) -> dict:
    import tracing

    passes = len(traced.walls)
    metrics: dict[str, float] = {}
    for name in tracing.SPANS + tracing.TIMED_LEAVES:
        metrics[f"{name}.self_s"] = tracer.self_s[name] / passes
    for name in tracing.SPANS + tracing.TIMED_LEAVES + tracing.COUNTED:
        metrics[f"{name}.calls"] = tracer.calls[name] / passes
    for layer, seconds in tracer.layer_self_s().items():
        metrics[f"{layer}.self_s"] = seconds / passes
    health = tracer.health
    for key in ("min_one_minus_abs_alpha", "min_norm_ratio"):
        metrics[f"opuc.{key}"] = getattr(health, key)
    for key in ("max_residual", "max_pre_projection_deviation", "min_gap"):
        metrics[f"paraorthogonal.{key}"] = getattr(health, key)
    reports = traced.reports
    metrics["dynamics.match_jump_ratio_max"] = max((r.match_jump_ratio for r in reports), default=0.0)
    metrics["dynamics.balance_mismatch_max"] = max((r.mismatch for r in reports), default=0.0)
    labels = sum((r.labels for r in reports), Counter())
    attempted = sum(r.verdicts for r in reports)
    for label in ("CCW", "CW", "Stationary", "Inconclusive"):
        metrics[f"predicates.verdict.{label.lower()}"] = labels[label] / passes
    conclusive = labels["CCW"] + labels["CW"] + labels["Stationary"]
    metrics["predicates.verdict.conclusive_ratio"] = conclusive / attempted if attempted else 0.0
    metrics["trace.overhead_s"] = traced.wall_s() - plain.wall_s()
    # a margin no call observed (no solves) reads 0 rather than an infinity JSON cannot hold
    return {k: v if math.isfinite(v) else 0.0 for k, v in metrics.items()}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_all(args, spec) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for entry in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 4 * args.seconds)
        sys.stdout.write(proc.stdout)
        if proc.returncode:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{entry['name']}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS
    if args.workload == "all":
        return run_all(args, spec)
    tiny = args.size == "tiny"

    wl_module, jobs, first = setup(args.workload, args.seed, tiny)
    if not args.trace:
        reference = Reference()
        for _ in range(SETUP_REFERENCES):
            reference.sample()
        first *= reference.scale()
    if args.setup_only:
        print(repr(first))
        return 0
    setup_s = [first] if args.trace else setup_samples(args, first)
    plain, traced, timer, tracer = measure(wl_module, jobs, args.seconds, bool(args.trace))

    env = environment()
    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, extra, measured = per_layer(plain, traced, tracer), {}, {}
    else:
        values, extra, measured = end_to_end(setup_s, plain, timer)
    runs = [plain, traced] if args.trace else [plain]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    problems = sum((r.problems for r in runs), Counter())
    error_rate = failed / attempted

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain.walls)}  jobs/pass {len(jobs)}")
    print(f"env {json.dumps(env)}")
    for m in metric_spec:
        print(f"{m['name']:44s} {values[m['name']]:.6g} {m['unit']}")
    for key, value in extra.items():
        print(f"{key:44s} {value:.6g} {'ms' if key.endswith('_ms') else 's'}")
    print(f"{'error_rate':44s} {error_rate:.6g} ratio ({failed} failed of {attempted} jobs)")
    if not args.trace:
        reference = plain.reference.samples
        print(f"samples: {len(setup_s)} set-ups, {len(plain.walls)} passes, "
              f"{len(timer.samples)} solve_at calls, {len(plain.balance_s)} balance checks, "
              f"{len(reference)} reference timings (median {1e3 * statistics.median(reference):.4g} ms; "
              f"times above are scaled to {1e3 * REFERENCE_S:g} ms)")
        print("measured " + ", ".join(f"{key} {value:.6g}" for key, value in measured.items()))
    for problem, count in list(problems.items())[:10]:
        print(f"FAIL x{count}: {problem}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec},
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "env": env, "result": result, "all_metrics": values, "stages": extra,
        "measured": measured,
        "error_rate": error_rate, "setup_samples_s": setup_s, "pass_walls_s": plain.walls,
        "job_s": plain.job_s, "problems": dict(problems),
    }
    if args.trace:
        record["traced_pass_walls_s"] = traced.walls
        record["spans"] = {"fields": ["name", "start", "end", "parent", "job"], "rows": tracer.spans}
    else:
        record["solve_at_s"] = timer.samples
        record["reference_s"] = plain.reference.samples
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
