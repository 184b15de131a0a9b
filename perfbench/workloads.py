"""The four benchmark workloads: seeded inputs, jobs, and oracle checks.

Each workload is a function from ``--seed`` to a fixed list of jobs. A job makes
popuc public calls (``run``) and is then checked against an oracle
(``check``); only ``run`` is timed. Oracles use the tolerances of
``popuc verify`` and the repo's zero finder, never looser ones.
"""
from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable

import numpy as np

from popuc import closed_forms, dynamics, scenarios
from popuc.dynamics import SweepConfig, TrackingError, ZeroPolicy
from popuc.expressions import ExprError
from popuc.measures import ACWeight, MassPoint, Measure, MeasureError
from popuc.opuc import DegenerateMeasureError
from popuc.paraorthogonal import RESIDUAL_TOL, RootFindingError
from popuc.predicates import PredicateError

# A job that raises one of these fails; any other exception is a defect of
# the benchmark or the program and stops the run.
LIBRARY_ERRORS = (
    DegenerateMeasureError,
    RootFindingError,
    TrackingError,
    MeasureError,
    PredicateError,
    ExprError,
)

# verify's gates: "zeros" (deviation, gap), "stationary" (drift), "balance"
# and "conjugate" (mismatch), "signs" (velocities below this are not signed)
DEVIATION_TOL = 1e-9
MIN_GAP_TOL = 1e-6
DRIFT_TOL = 1e-8
MISMATCH_TOL = 1e-4
VELOCITY_FLOOR = 1e-8


@dataclass
class Report:
    """Oracle outcome of one job, plus what the traced run reports about it."""

    problems: list[str] = field(default_factory=list)
    labels: Counter = field(default_factory=Counter)
    verdicts: int = 0
    match_jump_ratio: float = 0.0
    mismatch: float = 0.0


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.polyval(coeffs[::-1], z)


def bs_mass_popuc(degree: int, lam: complex, gamma: float, omega: float, xi: complex) -> np.ndarray:
    """Closed-form POPUC z Q(z) - conj(b) Q*(z) of Bernstein-Szego(lam) + gamma
    at omega, with b chosen so that it vanishes at xi; ascending coefficients."""
    q = closed_forms.bs_mass_opuc(degree - 1, lam, gamma, omega).coeffs
    q_star = np.conj(q[::-1])
    b = np.conj(xi) * np.conj(_horner(q, xi)) / np.conj(_horner(q_star, xi))
    p = np.zeros(len(q) + 1, dtype=complex)
    p[1:] = q
    p[:-1] -= np.conj(b / abs(b)) * q_star
    return p


def lebesgue_mass_popuc(degree: int, b: complex, gamma: float) -> np.ndarray:
    return closed_forms.lebesgue_mass_popuc(degree - 1, b, gamma).coeffs


@dataclass
class SweepJob:
    """``sweep`` (then ``sweep_verdicts``) over one config.

    ``oracle(t)`` gives the closed-form POPUC at t; every tracked zero must
    be a zero of it.
    """

    label: str
    cfg: SweepConfig
    oracle: Callable[[float], np.ndarray]
    verdicts: bool = True
    stationary: bool = False

    def run(self):
        start = perf_counter()
        traj = dynamics.sweep(self.cfg)
        mid = perf_counter()
        split = {"sweep_s": mid - start}
        verdicts = None
        if self.verdicts:
            verdicts = dynamics.sweep_verdicts(self.cfg, traj)
            split["verdicts_s"] = perf_counter() - mid
        return (traj, verdicts), split

    def warm_up(self) -> None:
        dynamics.solve_at(self.cfg.measure, self.cfg.degree, self.cfg.policy, self.cfg.t_start, self.cfg.nodes)

    def check(self, result) -> Report:
        traj, verdicts = result
        rep = Report()
        for i, (t, zs) in enumerate(zip(traj.ts, traj.zero_sets)):
            if len(zs) != self.cfg.degree:
                rep.problems.append(f"{self.label} t={t:.6g}: {len(zs)} zeros")
                continue
            if zs.pre_projection_deviation > DEVIATION_TOL or zs.min_gap <= MIN_GAP_TOL:
                rep.problems.append(
                    f"{self.label} t={t:.6g}: deviation {zs.pre_projection_deviation:.2e}, gap {zs.min_gap:.2e}"
                )
            coeffs = self.oracle(float(t))
            residual = float(np.max(np.abs(_horner(coeffs, zs.zeros)))) / float(np.max(np.abs(coeffs)))
            if residual > RESIDUAL_TOL:
                rep.problems.append(f"{self.label} t={t:.6g}: closed-form residual {residual:.2e}")
            if i:
                jump = float(np.max(np.abs(traj.chains[i] - traj.chains[i - 1])))
                rep.match_jump_ratio = max(rep.match_jump_ratio, jump / (traj.zero_sets[i - 1].min_gap / 2))
        if self.stationary:
            drift = float(np.max(np.abs(traj.chains - traj.chains[0])))
            if drift > DRIFT_TOL:
                rep.problems.append(f"{self.label}: stationary drift {drift:.2e}")
        if verdicts is not None:
            self._check_verdicts(traj, verdicts, rep)
        return rep

    def _check_verdicts(self, traj, verdicts, rep: Report) -> None:
        """Each CCW/CW/Stationary verdict must agree with its zero's velocity,
        by the sign rule of verify's "signs" check. The velocity is the grid
        finite difference of its chain; where that disagrees, it is the
        central difference with step h from fresh solves, because a grid
        difference spans a whole step (at a sweep's end, one-sided) and can
        miss a sign change inside it."""
        cfg = self.cfg
        velocities = np.stack([dynamics.fd_velocity(traj, k) for k in range(traj.n_zeros)], axis=1)
        for i, entry in enumerate(verdicts):
            for item in entry["verdicts"]:
                rep.verdicts += 1
                if "error" in item:
                    rep.problems.append(f"{self.label} t={entry['t']:.6g}: verdict error {item['error']}")
                    continue
                label = item["verdict"]
                rep.labels[label] += 1
                phase = traj.zero_sets[i].phases[item["zero_index"]]
                chain = int(np.argmin(np.abs(np.angle(np.exp(1j * (traj.chains[i] - phase))))))
                v = velocities[i, chain]
                if _contradicts(label, v):
                    v = dynamics.tracked_velocity(
                        cfg.measure, cfg.degree, cfg.policy, entry["t"], phase, cfg.h, cfg.nodes
                    )
                    if _contradicts(label, v):
                        rep.problems.append(f"{self.label} t={entry['t']:.6g}: {label} but velocity {v:.2e}")


def _contradicts(label: str, v: float) -> bool:
    return (
        (label == "CCW" and v < -VELOCITY_FLOOR)
        or (label == "CW" and v > VELOCITY_FLOOR)
        or (label == "Stationary" and abs(v) > VELOCITY_FLOOR)
    )


@dataclass
class BalanceJob:
    """One ``balance_check``; the tracked phase was picked by a set-up solve,
    or holds the library error that solve raised."""

    label: str
    measure: Measure
    degree: int
    policy: ZeroPolicy
    t: float
    tracked_phi: float | Exception
    theorem: str
    nodes: int = 4096

    def run(self):
        if isinstance(self.tracked_phi, Exception):
            raise self.tracked_phi
        start = perf_counter()
        entry = dynamics.balance_check(
            self.measure, self.degree, self.policy, self.t, self.tracked_phi,
            self.theorem, h=1e-5, nodes=self.nodes,
        )
        return entry, {"balance_s": perf_counter() - start}

    def warm_up(self) -> None:
        """Nothing to do: the set-up solves that picked the tracked zeros ran already."""

    def check(self, entry) -> Report:
        rep = Report(mismatch=entry.mismatch)
        if not entry.mismatch <= MISMATCH_TOL:
            rep.problems.append(f"{self.label} t={self.t:.6g}: balance mismatch {entry.mismatch:.2e}")
        return rep


def _perturb(rng, seed: int, value: float, width: float) -> float:
    """value itself for seed 0 (the inputs as shipped), else value + U(-width, width)."""
    return value if seed == 0 else value + float(rng.uniform(-width, width))


def figure_sweeps(seed: int, tiny: bool = False) -> list[SweepJob]:
    """The four built-in scenarios (degree 5, 50 steps), each as sweep then
    sweep_verdicts: what a ``popuc sweep --verdicts-out`` user runs.

    Why: about 80% of a pass is predicates (the two bs_mass_* verdict runs);
    opuc and paraorthogonal do little at degree 5. lebesgue_mass_b is fixed_b
    and yields no verdicts, and lebesgue_mass_fixed_one yields only
    Inconclusive (collision) verdicts, so the early-exit path is measured too.
    The seed moves pin angle, mass angle, b and grid ends inside ranges where
    every scenario still tracks; seed 0 is the scenarios as shipped.
    """
    rng = np.random.default_rng(seed)
    steps = 8 if tiny else None
    lam = complex(0.0, -1.0 / 3.0)
    jobs = []

    theta0 = _perturb(rng, seed, math.pi / 2, 0.15)
    omega = _perturb(rng, seed, 2 * math.pi / 3, 0.15)
    cfg = scenarios.scenario_config("bs_mass_gamma")
    if seed:
        cfg = replace(
            cfg,
            measure=Measure.of(ACWeight.bernstein_szego(lam), [MassPoint.of("t", repr(omega))]),
            policy=ZeroPolicy.fixed_xi(cmath.exp(1j * theta0)),
            t_start=0.01 + float(rng.uniform(0, 0.01)),
            t_stop=5.0 + float(rng.uniform(-0.5, 0.5)),
        )
    jobs.append(SweepJob(
        "bs_mass_gamma", replace(cfg, steps=steps or cfg.steps),
        lambda t, omega=omega, xi=cfg.policy.value: bs_mass_popuc(5, lam, t, omega, xi),
    ))

    theta0 = _perturb(rng, seed, math.pi / 2, 0.15)
    omega0 = _perturb(rng, seed, 2 * math.pi / 3, 0.15)
    cfg = scenarios.scenario_config("bs_mass_omega")
    if seed:
        cfg = replace(
            cfg,
            measure=Measure.of(ACWeight.bernstein_szego(lam), [MassPoint.of("1", f"{omega0!r} + t")]),
            policy=ZeroPolicy.fixed_xi(cmath.exp(1j * theta0)),
            t_start=float(rng.uniform(0, 0.05)),
            t_stop=0.5 + float(rng.uniform(-0.05, 0.05)),
        )
    jobs.append(SweepJob(
        "bs_mass_omega", replace(cfg, steps=steps or cfg.steps),
        lambda t, omega0=omega0, xi=cfg.policy.value: bs_mass_popuc(5, lam, 1.0, omega0 + t, xi),
    ))

    cfg = scenarios.scenario_config("lebesgue_mass_b")
    if seed:
        cfg = replace(
            cfg,
            policy=ZeroPolicy.fixed_b(cmath.exp(1j * (math.pi + rng.uniform(-0.5, 0.5)))),
            t_start=0.1 + float(rng.uniform(-0.05, 0.05)),
            t_stop=0.9 + float(rng.uniform(-0.05, 0.05)),
        )
    jobs.append(SweepJob(
        "lebesgue_mass_b", replace(cfg, steps=steps or cfg.steps),
        lambda t, b=cfg.policy.value: lebesgue_mass_popuc(5, b, t),
    ))

    cfg = scenarios.scenario_config("lebesgue_mass_fixed_one")
    if seed:
        cfg = replace(
            cfg,
            t_start=0.05 + float(rng.uniform(-0.03, 0.03)),
            t_stop=0.95 + float(rng.uniform(-0.03, 0.03)),
        )
    jobs.append(SweepJob(
        "lebesgue_mass_fixed_one", replace(cfg, steps=steps or cfg.steps),
        lambda t: lebesgue_mass_popuc(5, 1.0, t),
        stationary=True,
    ))
    return jobs


def high_degree(seed: int, tiny: bool = False) -> list[SweepJob]:
    """Bernstein-Szego(lam) plus the mass t at omega with xi = i pinned: short
    sweeps (3 steps) at degrees 40, 80 and 120, no verdicts.

    Why: at degree 120 gram_opuc is about 95% of solve_at, most of it in
    MomentSequence.toeplitz, with Aberth a few percent; this is the workload
    where the opuc layer does the work. Predicates never run, so it is the
    no-change control for verdict work. The seed draws lam, omega and the
    grid. Oracle: every zero is a zero of the closed-form POPUC.
    """
    rng = np.random.default_rng(seed)
    if seed == 0:
        lam, omega, t0, width = complex(0.0, -1.0 / 3.0), 2 * math.pi / 3, 0.5, 0.5
    else:
        lam = float(rng.uniform(0.2, 0.5)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        omega = math.pi / 2 + float(rng.uniform(0.5, 2 * math.pi - 0.5))
        t0, width = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.2, 0.5))
    measure = Measure.of(ACWeight.bernstein_szego(lam), [MassPoint.of("t", repr(omega))])
    return [
        SweepJob(
            f"degree_{degree}",
            SweepConfig(measure, degree, t0, t0 + width, 3, ZeroPolicy.fixed_xi(1j)),
            lambda t, degree=degree: bs_mass_popuc(degree, lam, t, omega, 1j),
            verdicts=False,
        )
        for degree in ((8, 12) if tiny else (40, 80, 120))
    ]


def custom_weight(seed: int, tiny: bool = False) -> list[SweepJob]:
    """A ``custom`` AC weight that is the Bernstein-Szego weight written out as
    an expression, (1 - r^2) (1 + a t) / (1 - 2 r cos(theta - beta) + r^2),
    plus the mass t at omega; degree 8, 4096 nodes, 4 steps, sweep then
    sweep_verdicts.

    Why: quadrature_moment re-walks the expression tree at every node for
    every moment, so measures plus expressions are nearly all of the sweep;
    the verdicts evaluate f_theta per node. Oracle: the zeros must be zeros
    of the closed-form POPUC of the same measure, lam = r e^{-i beta} and
    mass t / (1 + a t) relative to the weight's scale.
    """
    rng = np.random.default_rng(seed)
    if seed == 0:
        r, beta, a, omega, theta0, t0, width = 1 / 3, math.pi / 2, 0.5, 2 * math.pi / 3, math.pi / 2, 0.5, 0.5
    else:
        r, beta, a = float(rng.uniform(0.2, 0.45)), float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.2, 0.8))
        theta0 = float(rng.uniform(0, 2 * math.pi))
        omega = theta0 + float(rng.uniform(0.5, 2 * math.pi - 0.5))
        t0, width = float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.3, 0.6))
    weight = f"(1 - {r * r!r})*(1 + {a!r}*t)/(1 - {2 * r!r}*cos(theta - {beta!r}) + {r * r!r})"
    lam = r * cmath.exp(-1j * beta)
    xi = cmath.exp(1j * theta0)
    degree = 5 if tiny else 8
    cfg = SweepConfig(
        Measure.of(ACWeight.custom(weight), [MassPoint.of("t", repr(omega))]),
        degree, t0, t0 + width, 4, ZeroPolicy.fixed_xi(xi), theorem="t23",
        nodes=256 if tiny else 4096,
    )
    oracle = lambda t: bs_mass_popuc(degree, lam, t / (1 + a * t), omega, xi)  # noqa: E731
    return [SweepJob("custom", cfg, oracle)]


def _balance_job(label, measure, degree, policy, t, pick, theorem, nodes=4096) -> BalanceJob:
    """Job whose tracked zero is ``pick(zero_set)`` of a set-up solve at t."""
    try:
        zs = dynamics.solve_at(measure, degree, policy, t, nodes).zero_set
        phi: float | Exception = float(zs.phases[pick(zs)])
    except LIBRARY_ERRORS as exc:
        phi = exc
    return BalanceJob(label, measure, degree, policy, t, phi, theorem, nodes)


T21_SIZES = ((4, 4), (4, 5), (4, 6), (5, 5), (5, 6), (5, 6))


def balance(seed: int, tiny: bool = False) -> list[BalanceJob]:
    """Seeded balance_check instances in all three regimes: t21 random discrete
    measures with affine gamma and omega (degree 4-5, like verify's
    "balance"), t22 conjugate-pair measures (like verify's "conjugate"),
    t23 Lebesgue plus a mass with 1024 nodes (like "balance-mixed").

    Why: balance_check is the only caller of tracked_velocity, inner_product,
    deflate and the node quadrature. Each check is three tiny solves, the
    opposite shape to high_degree. 104 checks a pass, so that ten latency
    samples lie beyond the p90; t21 and t22 spread them over 24 and 4
    measures, so that one seed's share of slow root-finding averages out.
    Oracle: mismatch <= 1e-4, verify's gate.
    """
    rng = np.random.default_rng(seed)
    n21, n22, n23 = (2, 1, 1) if tiny else (24, 4, 10)
    jobs = []
    instances = 0
    while instances < n21:
        # the same mix of sizes for every seed, so that seeds move values, not cost
        degree, n_masses = T21_SIZES[instances % len(T21_SIZES)]
        base = np.sort(rng.uniform(0, 2 * math.pi, n_masses))
        if np.min(np.diff(np.concatenate([base, [base[0] + 2 * math.pi]]))) < 0.15:
            continue  # inputs with masses closer than verify allows
        masses = [
            MassPoint.of(
                f"{rng.uniform(0.3, 1.5):.6f} + {rng.uniform(-0.2, 0.2):.6f}*t",
                f"{base[j]:.6f} + {rng.uniform(-0.1, 0.1):.6f}*t",
            )
            for j in range(n_masses)
        ]
        measure = Measure.of(ACWeight.none(), masses)
        policy = ZeroPolicy.fixed_xi(cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        offset = int(rng.integers(1, degree))
        for t in (-0.05, 0.05):
            jobs.append(_balance_job(
                f"t21[{instances}]", measure, degree, policy, t,
                lambda zs, offset=offset: (zs.fixed_index + offset) % len(zs), "t21",
            ))
        instances += 1

    for pair in range(n22):
        om1, om2 = float(rng.uniform(0.6, 1.4)), float(rng.uniform(1.8, 2.6))
        g1, g2 = rng.uniform(0.3, 1.0, 2)
        s1, s2 = rng.uniform(-0.2, 0.2, 2)
        masses = [
            MassPoint.of(f"{g1:.6f} + {s1:.6f}*t", repr(om1)),
            MassPoint.of(f"{g1:.6f} + {s1:.6f}*t", repr(-om1)),
            MassPoint.of(f"{g2:.6f} + {s2:.6f}*t", repr(om2)),
            MassPoint.of(f"{g2:.6f} + {s2:.6f}*t", repr(-om2)),
        ]
        measure = Measure.of(ACWeight.none(), masses)
        for t in np.linspace(-0.5, 0.5, 4):
            jobs.append(_balance_job(
                f"t22[{pair}]", measure, 4, ZeroPolicy.fixed_b(1 + 0j), float(t),
                lambda zs: int(np.argmin(np.abs(zs.phases - math.pi / 2))), "t22",
            ))

    theta0 = _perturb(rng, seed, math.pi / 2, 0.6)
    measure = Measure.of(ACWeight.lebesgue("1 - t"), [MassPoint.of("t", "0")])
    policy = ZeroPolicy.fixed_xi(cmath.exp(1j * theta0))
    gammas = np.linspace(0.1, 0.9, n23) if seed == 0 else np.sort(rng.uniform(0.1, 0.9, n23))
    for gamma in gammas:
        for offset in range(1, 5):
            jobs.append(_balance_job(
                "t23", measure, 5, policy, float(gamma),
                lambda zs, offset=offset: (zs.fixed_index + offset) % len(zs), "t23", nodes=1024,
            ))
    return jobs


WORKLOADS = {
    "figure_sweeps": figure_sweeps,
    "high_degree": high_degree,
    "custom_weight": custom_weight,
    "balance": balance,
}
