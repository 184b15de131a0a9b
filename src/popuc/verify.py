"""Built-in verification suite: one named check per acceptance criterion.

Every check is deterministic (fixed RNG seed) and self-contained; the CLI
``verify`` subcommand and the test suite both run these.
"""
from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closed_forms import bs_mass_opuc, lebesgue_mass_popuc, w0_bs, w0_lebesgue
from .dynamics import (
    SweepConfig, TrackingError, ZeroPolicy, balance_check, fd_velocity, solve_at, sweep
)
from .expressions import ExprError, differentiate, evaluate
from .measures import (
    ACWeight, MassPoint, Measure, MeasureError, circular_gap, moments, theta_grid
)
from .opuc import DegenerateMeasureError, gram_opuc, inner_product, polyval, reversed_poly
from .paraorthogonal import RootFindingError, build_popuc, zeros_on_circle
from .predicates import MotionContext, PredicateError, mass_functionals, reference_index, verdicts_along
from .scenarios import scenario_config

__all__ = ["CheckResult", "CHECKS", "run_checks"]

SEED = 20240601

_PIPELINE_ERRORS = (
    DegenerateMeasureError, RootFindingError, TrackingError, MeasureError, PredicateError
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


def _random_measure(rng: np.random.Generator, max_masses: int = 8) -> Measure:
    """Random admissible measure: 1..max_masses separated masses, optional AC."""
    n_masses = int(rng.integers(1, max_masses + 1))
    base = np.sort(rng.uniform(0, 2 * math.pi, n_masses))
    # enforce separation by spreading collisions
    masses = []
    for k in range(n_masses):
        om = base[k] + 0.05 * k / n_masses
        gam = float(rng.uniform(0.05, 2.0))
        masses.append(MassPoint.of(gam, om))
    kind = rng.integers(0, 3)
    if kind == 0:
        ac = ACWeight.lebesgue(float(rng.uniform(0.1, 2.0)))
    elif kind == 1:
        lam = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
        ac = ACWeight.bernstein_szego(complex(lam), float(rng.uniform(0.1, 2.0)))
    else:
        ac = ACWeight.none()
    return Measure.of(ac, masses)


def check_zero_quality() -> CheckResult:
    """200 random measures: all POPUC zeros unimodular, simple, small residual."""
    rng = np.random.default_rng(SEED)
    worst_dev = worst_res = 0.0
    worst_gap = math.inf
    for trial in range(200):
        m = _random_measure(rng)
        max_deg = min(12, len(m.masses) if m.ac.kind == "none" else 12)
        if max_deg < 2:
            continue
        degree = int(rng.integers(2, max_deg + 1))
        b = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        st = solve_at(m, degree, ZeroPolicy.fixed_b(b), 0.0, nodes=1024)
        zs = st.zero_set
        scale = float(np.max(np.abs(st.popuc.poly.coeffs)))
        worst_dev = max(worst_dev, zs.pre_projection_deviation)
        worst_res = max(worst_res, float(np.max(zs.residuals)) / scale)
        worst_gap = min(worst_gap, zs.min_gap)
    ok = worst_dev <= 1e-9 and worst_res <= 1e-9 and worst_gap > 1e-6
    return CheckResult(
        "zeros",
        ok,
        f"max modulus deviation {worst_dev:.2e}, max residual {worst_res:.2e}, "
        f"min gap {worst_gap:.2e}",
    )


def check_oracle_example1() -> CheckResult:
    """Moment-pipeline OPUC match the Bernstein-Szego+mass closed form."""
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(50):
        r = rng.uniform(0, 0.8)
        ang = rng.uniform(0, 2 * math.pi)
        lam = r * cmath.exp(1j * ang)
        gamma = float(rng.uniform(1e-3, 5.0))
        omega = float(rng.uniform(0, 2 * math.pi))
        n = int(rng.integers(1, 7))
        m = Measure.of(ACWeight.bernstein_szego(lam), [MassPoint.of(gamma, omega)])
        fam = gram_opuc(moments(m, 0.0, n + 2), n)
        oracle = bs_mass_opuc(n, lam, gamma, omega)
        worst = max(worst, float(np.max(np.abs(fam[n].coeffs - oracle.coeffs))))
    return CheckResult("oracle-ex1", worst <= 1e-8, f"max coefficient deviation {worst:.2e}")


def check_oracle_example2() -> CheckResult:
    """Pipeline POPUC on (1-gamma) Lebesgue + gamma delta_0 match the closed form."""
    worst = 0.0
    m = Measure.of(ACWeight.lebesgue("1 - t"), [MassPoint.of("t", "0")])
    for gamma in (0.1, 0.5, 0.9):
        fam = gram_opuc(moments(m, gamma, 8), 4)
        for b in (1 + 0j, 1j, -1 + 0j):
            p = build_popuc(fam[4], b)
            oracle = lebesgue_mass_popuc(4, b, gamma)
            worst = max(worst, float(np.max(np.abs(p.poly.coeffs - oracle.coeffs))))
    return CheckResult("oracle-ex2", worst <= 1e-10, f"max coefficient deviation {worst:.2e}")


def check_fixed_zero() -> CheckResult:
    """Fixed-zero policy keeps |P(i)| tiny across both figure sweeps."""
    worst = 0.0
    for name in ("bs_mass_gamma", "bs_mass_omega"):
        cfg = scenario_config(name)
        for t in cfg.grid():
            st = solve_at(cfg.measure, cfg.degree, cfg.policy, float(t), nodes=1024)
            worst = max(worst, abs(polyval(st.popuc.poly.coeffs, 1j)))
    return CheckResult("fixed-zero", worst <= 1e-9, f"max |P(i)| = {worst:.2e}")


def check_balance_discrete() -> CheckResult:
    """Velocity balance for purely discrete measures with affine mass data."""
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    instances = 0
    while instances < 20:
        degree = int(rng.integers(4, 6))
        n_masses = int(rng.integers(max(3, degree), 7))
        base = np.sort(rng.uniform(0, 2 * math.pi, n_masses))
        if np.min(np.diff(np.concatenate([base, [base[0] + 2 * math.pi]]))) < 0.15:
            continue
        masses = [
            MassPoint.of(
                f"{rng.uniform(0.3, 1.5):.6f} + {rng.uniform(-0.2, 0.2):.6f}*t",
                f"{base[j]:.6f} + {rng.uniform(-0.1, 0.1):.6f}*t",
            )
            for j in range(n_masses)
        ]
        m = Measure.of(ACWeight.none(), masses)
        xi = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        pol = ZeroPolicy.fixed_xi(xi)
        try:
            st = solve_at(m, degree, pol, 0.0)
        except _PIPELINE_ERRORS:
            continue
        zs = st.zero_set
        non_fixed = [k for k in range(len(zs)) if k != zs.fixed_index]
        tracked = int(rng.choice(non_fixed))
        ts = np.linspace(-0.05, 0.05, 10)
        bad = False
        for t in ts:
            try:
                be = balance_check(m, degree, pol, float(t), zs.phases[tracked], "t21", h=1e-5)
            except _PIPELINE_ERRORS:
                bad = True
                break
            worst = max(worst, be.mismatch)
        if bad:
            continue
        instances += 1
    return CheckResult("balance", worst <= 1e-4, f"max relative mismatch {worst:.2e}")


def check_balance_mixed() -> CheckResult:
    """Velocity balance for the Lebesgue+mass mixed measure, theta0 = pi/2."""
    m = Measure.of(ACWeight.lebesgue("1 - t"), [MassPoint.of("t", "0")])
    pol = ZeroPolicy.fixed_xi(cmath.exp(1j * math.pi / 2))
    worst = 0.0
    for gamma in np.linspace(0.1, 0.9, 9):
        st = solve_at(m, 5, pol, float(gamma), nodes=1024)
        zs = st.zero_set
        for k in range(len(zs)):
            if k == zs.fixed_index:
                continue
            be = balance_check(
                m, 5, pol, float(gamma), zs.phases[k], "t23", h=1e-5, nodes=1024
            )
            worst = max(worst, be.mismatch)
    return CheckResult("balance-mixed", worst <= 1e-4, f"max relative mismatch {worst:.2e}")


def _sign_agreement(
    m: Measure, grid: tuple[float, float], theta0: float, split: float,
    w0: Callable[[float, float], float],
) -> str:
    """Sweep ``m`` with the zero pinned at theta0 and compare each zero's
    velocity with ``w0(phi, t)``: both positive on (theta0, split), both
    negative on (split, theta0 + 2 pi).  Returns the first disagreement, or ""."""
    pin = ZeroPolicy.fixed_xi(cmath.exp(1j * theta0))
    traj = sweep(SweepConfig(m, 5, *grid, 50, pin, theorem="t23"))
    for k in range(traj.n_zeros):
        if k == traj.fixed_chain:
            continue
        v = fd_velocity(traj, k)
        for i, t in enumerate(traj.ts):
            phi = theta0 + (traj.chains[i, k] - theta0) % (2 * math.pi)
            w = w0(phi, float(t))
            sign = 1.0 if phi < split else -1.0
            if abs(v[i]) > 1e-8 and not (sign * v[i] > 0 and sign * w > 0):
                return f"zero {k} at t={t:.3f}, phi={phi:.3f}: v={v[i]:.2e}, w0={w:.2e}"
    return ""


def check_sign_predictions() -> CheckResult:
    """Sweep velocities agree with the sign of the closed-form W_0 on both arcs."""
    # (a) Bernstein-Szego + mass; two pin angles so both arcs carry zeros
    omega = 2 * math.pi / 3
    m = Measure.of(
        ACWeight.bernstein_szego(complex(0, -1.0 / 3.0)), [MassPoint.of("t", f"{omega!r}")]
    )
    for theta0 in (math.pi / 2, 5.0):
        omega_win = theta0 + (omega - theta0) % (2 * math.pi)
        msg = _sign_agreement(
            m, (0.01, 5.0), theta0, omega_win,
            lambda phi, t: w0_bs(phi, theta0, omega_win),
        )
        if msg:
            return CheckResult("signs", False, f"BS scenario (theta0={theta0}): {msg}")
    # (b) Lebesgue + mass, theta0 = pi/2; the mass at 0 splits the arcs at 2 pi
    theta0 = math.pi / 2
    m = Measure.of(ACWeight.lebesgue("1 - t"), [MassPoint.of("t", "0")])
    msg = _sign_agreement(
        m, (0.05, 0.95), theta0, 2 * math.pi, lambda phi, t: w0_lebesgue(phi, theta0, t)
    )
    if msg:
        return CheckResult("signs", False, f"Lebesgue: {msg}")
    return CheckResult("signs", True, "velocity signs match W_0 on both arcs, both scenarios")


def check_stationary() -> CheckResult:
    """Pinning the zero at the mass location freezes every trajectory."""
    cfg = scenario_config("lebesgue_mass_fixed_one")
    traj = sweep(cfg)
    drift = float(np.max(np.abs(traj.chains - traj.chains[0])))
    return CheckResult("stationary", drift <= 1e-8, f"max phase drift {drift:.2e}")


def check_conjugate_pair() -> CheckResult:
    """Conjugate tracked pair persists and velocity signs match the verdict."""
    masses = [
        MassPoint.of("0.5 + 0.2*t", "1.0"),
        MassPoint.of("0.5 + 0.2*t", "-1.0"),
        MassPoint.of("0.8 - 0.1*t", "2.2"),
        MassPoint.of("0.8 - 0.1*t", "-2.2"),
    ]
    m = Measure.of(ACWeight.none(), masses)
    pol = ZeroPolicy.fixed_b(1 + 0j)
    worst_sym = 0.0
    for t in np.linspace(-0.5, 0.5, 11):
        st = solve_at(m, 4, pol, float(t))
        zs = st.zero_set
        tracked = [k for k, p in enumerate(zs.phases) if 1e-6 < p < math.pi - 1e-6]
        if len(tracked) != 1:
            return CheckResult("conjugate", False, f"expected one pair zero in (0, pi) at t={t}")
        k = tracked[0]
        partner = reference_index(zs, k, "t22")
        worst_sym = max(worst_sym, abs(zs.phases[k] + zs.phases[partner]))
        rep = verdicts_along([st.sample], [zs], "t22")[0][k]
        be = balance_check(m, 4, pol, float(t), zs.phases[k], "t22", h=1e-5)
        if rep.verdict == "CCW" and be.dphi_dt <= 1e-8:
            return CheckResult("conjugate", False, f"CCW verdict but velocity {be.dphi_dt:.2e} at t={t}")
        if rep.verdict == "CW" and be.dphi_dt >= -1e-8:
            return CheckResult("conjugate", False, f"CW verdict but velocity {be.dphi_dt:.2e} at t={t}")
        if be.mismatch > 1e-4:
            return CheckResult("conjugate", False, f"balance mismatch {be.mismatch:.2e} at t={t}")
    ok = worst_sym <= 1e-8
    return CheckResult("conjugate", ok, f"max |phi + phi_conj| = {worst_sym:.2e}, verdicts consistent")


def _unit_mass_functionals(phases, omegas, tracked: int, reference: int, moving: bool) -> np.ndarray:
    """W_j of :func:`mass_functionals` for unit masses at ``omegas``: s(omega_j) when
    still (gamma' = 1), -s S with the cotangent sum S when ``moving`` (omega' = 1)."""
    one, zero = np.ones(len(omegas)), np.zeros(len(omegas))
    ctx = MotionContext(
        phases=np.asarray(phases, dtype=float), gammas=one, omegas=np.asarray(omegas, dtype=float),
        dgammas=zero if moving else one, domegas=one if moving else zero, f_phases=np.zeros(len(phases)),
    )
    return mass_functionals(ctx, tracked, reference)


def _deflate(coeffs: np.ndarray, root: complex) -> np.ndarray:
    """Synthetic division: coefficients of p(z)/(z - root), remainder dropped.

    Intended for known zeros; the remainder is the residual p(root).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    m = len(coeffs) - 1
    out = np.zeros(m, dtype=complex)
    acc = coeffs[m]
    for k in range(m - 1, -1, -1):
        out[k] = acc
        acc = coeffs[k] + acc * root
    return out


def check_identities() -> CheckResult:
    """Real/complex equivalences of the production mass functionals,
    paraorthogonality, quotient, self-inversiveness, the sum rule in b."""
    rng = np.random.default_rng(SEED + 3)
    failures = []

    # s-factor vs complex form, 500 random triples
    worst = 0.0
    for _ in range(500):
        theta0, phi, theta = rng.uniform(0, 2 * math.pi, 3)
        if min(circular_gap(theta, phi), circular_gap(theta, theta0)) < 1e-3:
            continue
        lhs = _unit_mass_functionals([phi, theta0], [theta], 0, 1, moving=False)[0]
        zeta, xi, z = cmath.exp(1j * phi), cmath.exp(1j * theta0), cmath.exp(1j * theta)
        rhs = (1j * (zeta - xi) * z / ((z - xi) * (z - zeta))).real
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    if worst > 1e-12:
        failures.append(f"s-factor vs complex form: {worst:.2e}")

    # -s times the cotangent sum vs complex form, 250 random configurations
    worst = 0.0
    for _ in range(250):
        n = int(rng.integers(3, 11))
        phases = np.sort(rng.uniform(0, 2 * math.pi, n))
        if np.min(np.diff(phases)) < 1e-2:
            continue
        fixed, tracked = n - 2, n - 1
        theta = rng.uniform(0, 2 * math.pi)
        if np.min([circular_gap(theta, p) for p in phases]) < 1e-2:
            continue
        lhs = _unit_mass_functionals(phases, [theta], tracked, fixed, moving=True)[0]
        z = cmath.exp(1j * theta)
        zetas = np.exp(1j * phases)
        zeta, xi = zetas[tracked], zetas[fixed]
        s = (1j * (zeta - xi) * z / ((z - xi) * (z - zeta))).real
        cot_sum = -1j * (
            1.0
            - np.sum(np.conj(z) / (np.conj(z) - np.conj(zetas)))
            + np.sum(z / (z - np.delete(zetas, [fixed, tracked])))
        )
        rhs = -s * cot_sum.real
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)), abs(cot_sum.imag))
    if worst > 1e-12:
        failures.append(f"-s times cotangent sum vs complex form: {worst:.2e}")

    # paraorthogonality, quotient, self-inversiveness, vanishing sum; 50 measures
    for _ in range(50):
        m = _random_measure(rng, max_masses=6)
        max_deg = 12 if m.ac.kind != "none" else len(m.masses)
        if max_deg < 3:
            continue
        degree = int(rng.integers(3, max_deg + 1))
        n = degree - 1
        ms = moments(m, 0.0, 2 * degree + 4, nodes=1024)
        fam = gram_opuc(ms, n)
        b = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        p = build_popuc(fam[n], b)
        coeffs = p.poly.coeffs
        scale = float(np.max(np.abs(coeffs)))

        # self-inversiveness: reversed(P) = -b P
        dev = float(np.max(np.abs(reversed_poly(coeffs) + b * coeffs)))
        if dev > 1e-10 * scale:
            failures.append(f"self-inversiveness: {dev:.2e}")
            break

        # paraorthogonality: <P, z g> = 0 for random g of degree <= n-1
        g = np.concatenate([[0.0], rng.normal(size=n) + 1j * rng.normal(size=n)])
        ip = inner_product(coeffs, g, ms)
        if abs(ip) > 1e-9 * scale * float(np.max(np.abs(g))) * ms[0].real:
            failures.append(f"paraorthogonality: {abs(ip):.2e}")
            break

        zs = zeros_on_circle(p)
        # sum rule in b: each zero's d(phase)/d(arg b) is -|Q_n|/|P'|, and the phases sum to -arg b
        dp = polyval(coeffs[1:] * np.arange(1, n + 2), zs.zeros)
        rule = np.sum(np.abs(polyval(fam[n].coeffs, zs.zeros)) / np.abs(dp))
        if abs(rule - 1.0) > 1e-12:
            failures.append(f"sum rule: {abs(rule - 1.0):.2e}")
            break

        zeta = complex(np.exp(1j * zs.phases[int(rng.integers(0, len(zs)))]))
        d = _deflate(coeffs, zeta)

        # quotient property: <P/(z-zeta), h> = conj(h(zeta)) <P/(z-zeta), 1>
        h = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        lhs_q = inner_product(d, h, ms)
        rhs_q = np.conj(polyval(h, zeta)) * inner_product(d, [1.0], ms)
        denom = 1.0 + abs(lhs_q) + abs(rhs_q)
        if abs(lhs_q - rhs_q) / denom > 1e-8:
            failures.append(f"quotient property: {abs(lhs_q - rhs_q):.2e}")
            break

        # vanishing of the weighted sum over masses (discrete measures only)
        if m.ac.kind == "none" and len(zs) >= 2:
            others = [k for k in range(len(zs)) if circular_gap(zs.phases[k], float(np.angle(zeta))) > 1e-9]
            xi = complex(np.exp(1j * zs.phases[others[0]]))
            gam, om = ms.sample.gammas, ms.sample.omegas
            zm = np.exp(1j * om)
            pv = polyval(coeffs, zm)
            total = np.sum(gam * zm * pv * np.conj(pv) / ((zm - xi) * (zm - zeta)))
            vanish_scale = float(np.sum(gam * np.abs(pv) ** 2)) + 1e-30
            if abs(total) > 1e-9 * vanish_scale / max(zs.min_gap, 1e-3):
                failures.append(f"vanishing sum: {abs(total):.2e} vs scale {vanish_scale:.2e}")
                break

    # mixed identity: f(phi)-weighted combination vanishes
    m = Measure.of(ACWeight.lebesgue("1 - t"), [MassPoint.of("t", "0")])
    pol = ZeroPolicy.fixed_xi(cmath.exp(1j * math.pi / 2))
    st = solve_at(m, 5, pol, 0.4, nodes=2048)
    zs = st.zero_set
    tracked = (zs.fixed_index + 2) % len(zs)
    zeta = complex(np.exp(1j * zs.phases[tracked]))
    xi = cmath.exp(1j * math.pi / 2)
    coeffs = st.popuc.poly.coeffs
    d2 = _deflate(_deflate(coeffs, xi), zeta)
    pref = 1j * (zeta - xi)
    nodes = 2048
    thetas = theta_grid(math.pi / 2, nodes)
    zsn = np.exp(1j * thetas)
    integrand = (pref * zsn * polyval(d2, zsn) * np.conj(polyval(coeffs, zsn))).real
    ac_part = float(np.mean(integrand * (1 - 0.4)))
    gam, om = st.sample.gammas, st.sample.omegas
    zm = np.exp(1j * om)
    pv = np.abs(polyval(coeffs, zm)) ** 2
    svals = _unit_mass_functionals(zs.phases, om, tracked, zs.fixed_index, moving=False)
    mass_part = float(np.sum(gam * svals * pv))
    bracket = ac_part + mass_part
    bracket_scale = abs(ac_part) + abs(mass_part) + 1e-30
    if abs(bracket) > 1e-8 * bracket_scale:
        failures.append(f"mixed identity: {abs(bracket):.2e} vs scale {bracket_scale:.2e}")

    ok = not failures
    return CheckResult("identities", ok, "; ".join(failures) if failures else "all identities hold")


def check_expressions() -> CheckResult:
    """Symbolic derivatives match central finite differences on random trees."""
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    checked = 0
    while checked < 100:
        e = _random_tree(rng, depth=int(rng.integers(1, 6)))
        t = float(rng.uniform(-1, 1))
        try:
            d = differentiate(e, "t")
            h = 1e-6
            fd = (evaluate(e, {"t": t + h}) - evaluate(e, {"t": t - h})) / (2 * h)
            sym = evaluate(d, {"t": t})
        except ExprError:
            continue
        err = abs(sym - fd) / (1.0 + abs(sym))
        if not math.isfinite(err) or abs(fd) > 1e6:
            continue
        worst = max(worst, err)
        checked += 1
    return CheckResult("expr", worst <= 1e-6, f"max relative derivative error {worst:.2e}")


def _random_tree(rng: np.random.Generator, depth: int):
    from .expressions import BinOp, Call, Const, Var

    if depth <= 0 or rng.random() < 0.25:
        return Var("t") if rng.random() < 0.6 else Const(float(rng.uniform(-2, 2)))
    kind = rng.integers(0, 2)
    if kind == 0:
        op = ["+", "-", "*"][int(rng.integers(0, 3))]
        return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    fn = ["sin", "cos", "exp"][int(rng.integers(0, 3))]
    return Call(fn, _random_tree(rng, depth - 1))


CHECKS: dict[str, Callable[[], CheckResult]] = {
    "zeros": check_zero_quality,
    "oracle-ex1": check_oracle_example1,
    "oracle-ex2": check_oracle_example2,
    "fixed-zero": check_fixed_zero,
    "balance": check_balance_discrete,
    "balance-mixed": check_balance_mixed,
    "signs": check_sign_predictions,
    "stationary": check_stationary,
    "conjugate": check_conjugate_pair,
    "identities": check_identities,
    "expr": check_expressions,
}


def run_checks(only: list[str] | None = None, printer=print) -> list[CheckResult]:
    names = list(CHECKS) if not only else only
    results = []
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; choose from {list(CHECKS)}")
        start = time.perf_counter()
        res = CHECKS[name]()
        res.seconds = time.perf_counter() - start
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        printer(f"{status:4s}  {name:14s} {res.seconds:7.2f}s  {res.detail}")
    return results
