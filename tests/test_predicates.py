import cmath
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popuc import measures, predicates
from popuc.dynamics import (
    SweepConfig, ZeroPolicy, balance_check, solve_at, sweep, sweep_verdicts, tracked_velocity
)
from popuc.expressions import differentiate, evaluate, parse
from popuc.measures import (
    ANGLE_TOL, ACWeight, MassPoint, Measure, MeasureError, circular_gap, moments, theta_grid
)
from popuc.paraorthogonal import ZeroSet
from popuc.predicates import (
    NONNEG_TOL,
    STRICT_TOL,
    VERDICT_NODES,
    MotionContext,
    PredicateError,
    VerdictReport,
    motion_context,
    reference_index,
    s_factor,
    s_sum,
    verdict,
    verdicts_along,
    w_continuous,
)
from popuc.scenarios import scenario_config
from strategies import separable_weights


def _context(phases, gammas=(), omegas=(), dgammas=(), domegas=(), f=None, f_const=0.0):
    """A hand-built context; f, when given, maps angles to f(theta) and is
    sampled at the phases and on theta_grid(0, VERDICT_NODES)."""
    phases = np.asarray(phases, dtype=float)
    f_grid, f_phases = None, np.full(len(phases), f_const)
    if f is not None:
        f_grid, f_phases = f(theta_grid(0.0, VERDICT_NODES)), f(phases)
    return MotionContext(
        phases=phases,
        gammas=np.asarray(gammas, dtype=float),
        omegas=np.asarray(omegas, dtype=float),
        dgammas=np.asarray(dgammas, dtype=float),
        domegas=np.asarray(domegas, dtype=float),
        f_phases=f_phases,
        f_grid=f_grid,
    )


def w_mass(j: int, ctx: MotionContext, tracked: int, reference: int) -> float:
    """The scalar reference for the verdict tables' W_j of zero ``tracked``
    measured against zero ``reference``: s gamma_j' - gamma_j s S omega_j' -
    gamma_j s f(phi), with s and the cotangent sum S at omega_j."""
    phi = float(ctx.phases[tracked])
    s = s_factor(ctx.omegas[j], phi, float(ctx.phases[reference]))
    value = s * ctx.dgammas[j]
    if ctx.domegas[j] != 0.0:
        cot_sum = s_sum(ctx.omegas[j], ctx.phases, tracked, reference)
        value -= ctx.gammas[j] * s * cot_sum * ctx.domegas[j]
    f_phi = float(ctx.f_phases[tracked])
    if f_phi != 0.0:
        value -= ctx.gammas[j] * s * f_phi
    return value


def test_s_factor_exact_value():
    # phi = pi, theta0 = pi/2, theta = 3 pi/2:
    # sin(pi/4) / (2 sin(-pi/4) sin(-pi/2)) = 1/2
    assert s_factor(3 * math.pi / 2, math.pi, math.pi / 2) == pytest.approx(0.5, abs=1e-14)


def test_s_factor_vanishes_when_phi_equals_theta0():
    assert s_factor(1.0, 2.0, 2.0) == pytest.approx(0.0, abs=1e-14)


def test_s_factor_sign_split():
    theta0, phi = 1.0, 2.0
    assert s_factor(1.5, phi, theta0) < 0  # theta between theta0 and phi
    assert s_factor(4.0, phi, theta0) > 0  # theta outside the arc


def test_s_factor_pole():
    with pytest.raises(PredicateError):
        s_factor(2.0, 2.0, 1.0)


def test_s_factor_complex_form():
    rng = np.random.default_rng(71)
    for _ in range(200):
        theta0, phi, theta = rng.uniform(0, 2 * math.pi, 3)
        if min(circular_gap(theta, phi), circular_gap(theta, theta0)) < 1e-3:
            continue
        zeta, xi, z = cmath.exp(1j * phi), cmath.exp(1j * theta0), cmath.exp(1j * theta)
        rhs = (1j * (zeta - xi) * z / ((z - xi) * (z - zeta))).real
        lhs = s_factor(theta, phi, theta0)
        assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs))


def test_s_sum_half_weights():
    theta = 5.0
    expected = (
        0.5 / math.tan(0.5 * (0.5 - theta))
        + 1.0 / math.tan(0.5 * (1.5 - theta))
        + 0.5 / math.tan(0.5 * (3.0 - theta))
    )
    assert s_sum(theta, np.array([0.5, 1.5, 3.0]), 2, 0) == pytest.approx(expected, abs=1e-13)


def test_w_discrete_pure_gamma_term():
    ctx = _context(
        [0.5, 2.0],
        gammas=[1.0], omegas=[4.0], dgammas=[0.7], domegas=[0.0],
    )
    expected = 0.7 * s_factor(4.0, 2.0, 0.5)
    assert w_mass(0, ctx, 1, 0) == pytest.approx(expected, abs=1e-13)


def test_w_discrete_omega_term():
    ctx = _context(
        [0.5, 2.0],
        gammas=[1.3], omegas=[4.0], dgammas=[0.0], domegas=[0.2],
    )
    s = s_factor(4.0, 2.0, 0.5)
    expected = -1.3 * s * s_sum(4.0, ctx.phases, 1, 0) * 0.2
    assert w_mass(0, ctx, 1, 0) == pytest.approx(expected, abs=1e-13)


def test_w_mixed_reduces_to_discrete_without_ac():
    ctx = _context(
        [0.5, 2.0],
        gammas=[1.3], omegas=[4.0], dgammas=[0.3], domegas=[0.1],
    )
    s = s_factor(4.0, 2.0, 0.5)
    discrete = s * 0.3 - 1.3 * s * s_sum(4.0, ctx.phases, 1, 0) * 0.1
    assert w_mass(0, ctx, 1, 0) == pytest.approx(discrete, abs=1e-13)
    # a moving AC part with f constant in theta adds -gamma s f(phi)
    moving = replace(ctx, f_phases=np.full(2, -0.7))
    assert w_mass(0, moving, 1, 0) == pytest.approx(discrete + 1.3 * s * 0.7, abs=1e-13)


def test_w_continuous_vanishes_for_constant_f():
    nodes = np.array([4.0, 5.0])
    table = w_continuous(nodes, np.array([2.0, 3.0]), np.full(2, 0.5), np.full(2, 0.25), np.full(2, 0.25))
    assert table.shape == (2, 2)
    assert np.all(table == 0.0)


def test_motion_context_from_pipeline():
    m = Measure.of(ACWeight.lebesgue("1 - t"), [MassPoint.of("t", "0")])
    pol = ZeroPolicy.fixed_xi(cmath.exp(1j * math.pi / 2))
    state = solve_at(m, 5, pol, 0.4, nodes=512)
    zs = state.zero_set
    tracked = (zs.fixed_index + 2) % len(zs)
    ctx = motion_context(state.sample, zs)
    assert ctx.phases[zs.fixed_index] == pytest.approx(math.pi / 2, abs=1e-9)
    assert ctx.gammas[0] == pytest.approx(0.4)
    assert ctx.dgammas[0] == pytest.approx(1.0)
    assert ctx.domegas[0] == pytest.approx(0.0)
    # f = d/dt log(1-t) at t = 0.4, at every zero; no grid, since f is constant in theta
    assert ctx.f_phases[tracked] == pytest.approx(-1.0 / 0.6, abs=1e-12)
    assert np.all(ctx.f_phases == ctx.f_phases[0]) and ctx.f_grid is None


def test_motion_context_differentiates_each_expression_once(monkeypatch):
    calls = []
    real = measures.differentiate
    monkeypatch.setattr(measures, "differentiate", lambda e, v: calls.append(e) or real(e, v))
    m = Measure.of(
        ACWeight.lebesgue("1 - t"), [MassPoint.of("t", "0"), MassPoint.of("0.5", "2 + 0.3*t")]
    )
    zs = solve_at(m, 5, ZeroPolicy.fixed_xi(1j), 0.4, nodes=512).zero_set
    for tracked in (1, 2, 3):
        ctx = motion_context(m.at(0.4), zs)
    # d/dt of two gammas, two omegas and the Lebesgue scale, once each
    assert len(calls) == 5
    assert ctx.dgammas.tolist() == [1.0, 0.0] and ctx.domegas.tolist() == [0.0, 0.3]
    assert ctx.f_phases[tracked] == pytest.approx(-1.0 / 0.6, abs=1e-12)


def test_motion_context_rejects_a_negative_lebesgue_scale():
    # the record's one scale check rejects it for the moments and the motion
    # context alike; a motion context built past it once returned CCW, CCW, CCW, CW
    sample = Measure.of(ACWeight.lebesgue("-1 - t"), [MassPoint.of("t", "0")]).at(0.4)
    for read in (lambda: sample.factor, lambda: motion_context(sample, PHASES_ONLY)):
        with pytest.raises(MeasureError, match=r"^weight is negative at a quadrature node at t=0.4$"):
            read()
    with pytest.raises(MeasureError, match=r"^weight is negative at a quadrature node at t=0.4$"):
        moments(sample.measure, 0.4, 4)


def test_a_vanishing_weight_is_a_measure_error():
    # the record decides f, so both of its "weight vanishes" errors are the measure's
    zero_factor = Measure.of(ACWeight.lebesgue("t")).at(0.0)
    with pytest.raises(MeasureError, match=r"^weight vanishes at t=0.0: its t-factor is zero$"):
        motion_context(zero_factor, PHASES_ONLY)
    on_a_zero = Measure.of(ACWeight.custom("(1 - cos(theta - 0.5))*(1 + t*cos(theta))")).at(0.3, 64)
    with pytest.raises(MeasureError, match=r"^weight vanishes at theta=0.5$"):
        motion_context(on_a_zero, PHASES_ONLY)


def test_a_custom_weight_may_have_a_negative_t_factor():
    # the same weight as A(t) B(theta) with both factors negated: the same verdicts
    masses = [MassPoint.of("t", "2*pi/3")]
    reports = []
    for weight in ("(-1 - t)*(cos(theta) - 2)", "(1 + t)*(2 - cos(theta))"):
        m = Measure.of(ACWeight.custom(weight), masses)
        state = solve_at(m, 5, ZeroPolicy.fixed_xi(1j), 0.4, nodes=512)
        reports.append([r.to_json() for r in verdicts_along([state.sample], [state.zero_set], "t23")[0].values()])
    assert len(reports[0]) == 4 and reports[0] == reports[1]


# a conjugate-symmetric measure: masses at +-omega with equal weights
CONJUGATE = Measure.of(
    ACWeight.none(),
    [
        MassPoint.of("0.5 + 0.2*t", "1.0"),
        MassPoint.of("0.5 + 0.2*t", "-1.0"),
        MassPoint.of("0.8 - 0.1*t", "2.2"),
        MassPoint.of("0.8 - 0.1*t", "-2.2"),
    ],
)
# the same with moving masses, so that the cotangent sum enters W_j
CONJUGATE_MOVING = Measure.of(
    ACWeight.none(),
    [
        MassPoint.of("0.5 + 0.2*t", "1.0 + 0.1*t"),
        MassPoint.of("0.5 + 0.2*t", "-1.0 - 0.1*t"),
        MassPoint.of("0.8 - 0.1*t", "2.2 - 0.05*t"),
        MassPoint.of("0.8 - 0.1*t", "-2.2 + 0.05*t"),
    ],
)


def test_reference_index():
    pinned = solve_at(CONJUGATE, 4, ZeroPolicy.fixed_xi(cmath.exp(0.5j)), 0.0).zero_set
    for theorem in ("t21", "t23"):
        assert reference_index(pinned, 2, theorem) == pinned.fixed_index == 0
        assert reference_index(pinned, 0, theorem) is None
    zs = solve_at(CONJUGATE, 4, ZeroPolicy.fixed_b(1 + 0j), 0.0).zero_set
    for k in range(len(zs)):
        assert reference_index(zs, k, "t21") is None
        assert reference_index(zs, k, "t23") is None
    # b = 1 and a symmetric measure: zeros at pi, -phi, 0 and phi
    lower, upper = (k for k, p in enumerate(zs.phases) if abs(math.sin(p)) > 1e-6)
    assert zs.phases[lower] == pytest.approx(-zs.phases[upper], abs=1e-12)
    assert reference_index(zs, lower, "t22") == upper
    assert reference_index(zs, upper, "t22") == lower
    assert reference_index(zs, zs.nearest_index(0.0), "t22") is None
    assert reference_index(zs, zs.nearest_index(math.pi), "t22") is None


def test_reference_index_rejects_unknown_theorem():
    zs = solve_at(CONJUGATE, 4, ZeroPolicy.fixed_xi(cmath.exp(0.5j)), 0.0).zero_set
    with pytest.raises(ValueError, match="t99"):
        reference_index(zs, 2, "t99")


@pytest.mark.parametrize(
    "ac", [ACWeight.lebesgue("1 - t"), ACWeight.custom("exp(t*cos(theta - 1))")],
    ids=["lebesgue", "custom_cos"],
)
def test_t21_and_t23_verdicts_are_one_computation(ac):
    # the continuous terms follow from the measure, so the two names for the
    # pinned-zero regime give the same verdicts on a mixed measure
    m = Measure.of(ac, [MassPoint.of("t", "2*pi/3")])
    cfg = SweepConfig(m, 5, 0.1, 0.9, 9, ZeroPolicy.fixed_xi(1j), theorem="t23", nodes=1024)
    traj = sweep(cfg)
    t23 = sweep_verdicts(cfg, traj)
    t21 = sweep_verdicts(replace(cfg, theorem="t21"), traj)
    for theorem, entries in (("t23", t23), ("t21", t21)):
        for entry in entries:
            for item in entry["verdicts"]:
                assert item.pop("theorem") == theorem
    assert t21 == t23
    assert sum(len(entry["verdicts"]) for entry in t21) == 9 * 4


def _w_tilde(j: int, ctx: MotionContext, tracked: int, reference: int) -> float:
    """The paper's conjugate-pair functional W~_j, written out: with
    s~(theta, phi) = 1 / (2 (cos phi - cos theta)) and the sum
    sin(theta) / (cos(theta) - cos(phi)) plus cotangents over the other zeros,
    W~_j = s~ gamma_j' - gamma_j s~ sum omega_j'."""
    phi, theta = ctx.phases[tracked], ctx.omegas[j]
    s_conj = 0.5 / (math.cos(phi) - math.cos(theta))
    s_sum_conj = math.sin(theta) / (math.cos(theta) - math.cos(phi))
    for k, ph in enumerate(ctx.phases):
        if k not in (reference, tracked):
            s_sum_conj += 1.0 / math.tan(0.5 * (ph - theta))
    return s_conj * ctx.dgammas[j] - ctx.gammas[j] * s_conj * s_sum_conj * ctx.domegas[j]


@pytest.mark.parametrize("m", [CONJUGATE, CONJUGATE_MOVING], ids=["fixed", "moving"])
def test_t22_functionals_are_the_conjugate_pair_functionals(m):
    # W_j measured against the conjugate partner is 2 sin(phi) W~_j
    cfg = SweepConfig(m, 4, -0.5, 0.5, 11, ZeroPolicy.fixed_b(1 + 0j), theorem="t22")
    traj = sweep(cfg)
    checked = 0
    for entry, zs, sample in zip(sweep_verdicts(cfg, traj), traj.zero_sets, traj.samples):
        for item in entry["verdicts"]:
            k = item["zero_index"]
            ctx, partner = motion_context(sample, zs), reference_index(zs, k, "t22")
            expected = 2.0 * math.sin(ctx.phases[k]) * np.array(
                [_w_tilde(j, ctx, k, partner) for j in range(len(ctx.gammas))]
            )
            w = np.array(item["w_masses"])
            assert np.max(np.abs(w - expected)) <= 1e-13 * np.max(np.abs(expected))
            checked += 1
    assert checked == 2 * len(traj.ts)


def test_verdict_ccw_and_mirror():
    ctx = _context(
        [0.5, 2.0],
        gammas=[1.0, 0.8], omegas=[4.0, 5.0], dgammas=[0.7, 0.5], domegas=[0.0, 0.0],
    )
    rep = verdict(ctx, 1, 0, "t21")
    assert rep.verdict == "CCW"
    assert not rep.mirrored
    mirror = verdict(replace(ctx, dgammas=-ctx.dgammas, domegas=-ctx.domegas), 1, 0, "t21")
    assert mirror.verdict == "CW"
    assert mirror.mirrored
    assert "mirrored" in mirror.flags


def test_verdict_stationary():
    ctx = _context(
        [0.5, 2.0],
        gammas=[1.0], omegas=[4.0], dgammas=[0.0], domegas=[0.0],
    )
    assert verdict(ctx, 1, 0, "t21").verdict == "Stationary"


def test_verdict_inconclusive_on_mixed_signs():
    ctx = _context(
        [0.5, 2.0, 3.5],
        gammas=[1.0, 1.0], omegas=[1.2, 4.5], dgammas=[0.7, 0.7], domegas=[0.0, 0.0],
    )
    # s has opposite signs inside/outside the (theta0, phi) arc
    rep = verdict(ctx, 1, 0, "t21")
    assert rep.verdict == "Inconclusive"


def test_verdict_collision_flag():
    ctx = _context(
        [0.5, 2.0],
        gammas=[1.0], omegas=[0.5], dgammas=[0.7], domegas=[0.0],
    )
    rep = verdict(ctx, 1, 0, "t21")
    assert rep.verdict == "Inconclusive"
    assert "collision" in rep.flags


def test_verdict_t22_guards_conjugacy():
    ctx = _context(
        [0.5, 2.0],
        gammas=[1.0], omegas=[4.0], dgammas=[0.7], domegas=[0.0],
    )
    rep = verdict(ctx, 1, 0, "t22")
    assert rep.verdict == "Inconclusive"
    assert "non_conjugate_pair" in rep.flags


def test_verdict_t23_requires_monotone_f():
    ctx = _context(
        [0.5, 2.0],
        gammas=[1.0], omegas=[4.0], dgammas=[2.0], domegas=[0.0],
        f=np.cos,  # not monotone over the period
    )
    rep = verdict(ctx, 1, 0, "t23")
    assert rep.verdict != "CCW"
    assert "f_not_nondecreasing" in rep.flags


def test_verdict_rejects_unknown_theorem():
    ctx = _context([0.5, 2.0])
    with pytest.raises(ValueError):
        verdict(ctx, 1, 0, "t99")


def test_report_json_round_trip():
    ctx = _context(
        [0.5, 2.0],
        gammas=[1.0], omegas=[4.0], dgammas=[0.7], domegas=[0.0],
    )
    obj = verdict(ctx, 1, 0, "t21").to_json()
    assert list(obj) == [f.name for f in fields(VerdictReport)]
    assert obj["verdict"] == "CCW"
    assert obj["theorem"] == "t21"
    assert isinstance(obj["w_masses"], list)
    assert obj["tracked_phase"] == pytest.approx(2.0)


def _scalar_t23_verdict(ctx, tracked, reference):
    """Reference t23 verdict: s and the density functional node by node on
    scalars, on every (nodes // VERDICT_NODES)-th node of the context's f_grid,
    and f tested for monotonicity over the period that starts after theta0.

    Returns (label, flags, w_continuous_min, w_continuous_max, scale)."""
    # a mass on the tracked or reference zero, or a moving mass on any zero, is a pole
    near = circular_gap(ctx.omegas[:, None], ctx.phases[None, :]) < ANGLE_TOL
    if near[:, [tracked, reference]].any() or near[ctx.domegas != 0.0].any():
        return "Inconclusive", ("collision",), 0.0, 0.0, 0.0
    w_masses = np.array([w_mass(j, ctx, tracked, reference) for j in range(len(ctx.gammas))])
    phi, theta0 = float(ctx.phases[tracked]), float(ctx.phases[reference])

    def s(theta):
        return math.sin(0.5 * (phi - theta0)) / (
            2.0 * math.sin(0.5 * (phi - theta)) * math.sin(0.5 * (theta0 - theta))
        )

    f_phi = float(ctx.f_phases[tracked])
    wc, values = [], []
    if ctx.f_grid is not None:
        stride = max(1, len(ctx.f_grid) // VERDICT_NODES)
        nodes = theta_grid(0.0, len(ctx.f_grid))[::stride].tolist()
        f_nodes = ctx.f_grid[::stride].tolist()
        wc = [
            s(th) * (f - f_phi)
            for th, f in zip(nodes, f_nodes)
            if circular_gap(th, phi) > 1e-9 and circular_gap(th, theta0) > 1e-9
        ]
        start = next((i for i, th in enumerate(nodes) if th > theta0 % (2 * math.pi)), 0)
        values = f_nodes[start:] + f_nodes[:start]
    wc_min, wc_max = (min(wc), max(wc)) if wc else (0.0, 0.0)
    tol = NONNEG_TOL * (1.0 + max(map(abs, values), default=0.0))
    nondecreasing = all(b - a >= -tol for a, b in zip(values, values[1:]))
    nonincreasing = all(b - a <= tol for a, b in zip(values, values[1:]))
    scale = float(np.max(np.abs(w_masses), initial=0.0)) + max(abs(wc_min), abs(wc_max))
    if np.all(np.abs(w_masses) <= NONNEG_TOL) and max(abs(wc_min), abs(wc_max)) <= NONNEG_TOL:
        label = "Stationary"
    elif (
        np.all(w_masses >= -NONNEG_TOL * scale)
        and (max(w_masses, default=0.0) > STRICT_TOL * scale or wc_max > STRICT_TOL * scale)
        and nondecreasing
    ):
        label = "CCW"
    elif (
        np.all(w_masses <= NONNEG_TOL * scale)
        and (min(w_masses, default=0.0) < -STRICT_TOL * scale or wc_min < -STRICT_TOL * scale)
        and nonincreasing
    ):
        label = "CW"
    else:
        label = "Inconclusive"
    # a CW verdict needs f nonincreasing only, so it is flagged mirrored alone
    flags = ("mirrored",) if label == "CW" else () if nondecreasing else ("f_not_nondecreasing",)
    return label, flags, wc_min, wc_max, scale


CUSTOM_WEIGHTS = {
    # the Bernstein-Szego weight with lambda = -i/3 as an expression whose
    # scale grows with t: a product A(t) B(theta), so f is constant in theta
    "custom_scale": "(1 - 1/9)*(1 + 0.5*t)/(1 - 2/3*cos(theta - pi/2) + 1/9)",
    # f = cos(theta - 1), not monotone
    "custom_cos": "exp(t*cos(theta - 1))",
}


@pytest.mark.parametrize("name", ["bs_mass_gamma", "bs_mass_omega", "lebesgue", *CUSTOM_WEIGHTS])
def test_array_t23_verdict_matches_scalar_reference(name):
    if name in CUSTOM_WEIGHTS:
        m = Measure.of(ACWeight.custom(CUSTOM_WEIGHTS[name]), [MassPoint.of("t", "2*pi/3")])
        cfg = SweepConfig(m, 5, 0.5, 1.0, 4, ZeroPolicy.fixed_xi(1j), theorem="t23", nodes=1024)
    elif name == "lebesgue":
        m = Measure.of(ACWeight.lebesgue("1 - t"), [MassPoint.of("t", "2*pi/3")])
        cfg = SweepConfig(m, 5, 0.1, 0.9, 9, ZeroPolicy.fixed_xi(1j), theorem="t23")
    else:
        cfg = replace(scenario_config(name), steps=20)
    traj = sweep(cfg)
    checked = 0
    for zs, sample in zip(traj.zero_sets, traj.samples):
        ctx = motion_context(sample, zs)
        # no collision, so the reference runs its whole node-by-node pass
        assert not (circular_gap(ctx.omegas[:, None], ctx.phases[None, :]) < ANGLE_TOL).any()
        for k in range(len(zs)):
            if k == zs.fixed_index:
                continue
            rep = verdict(ctx, k, zs.fixed_index, "t23")
            label, flags, wc_min, wc_max, scale = _scalar_t23_verdict(ctx, k, zs.fixed_index)
            assert (rep.verdict, rep.flags) == (label, flags)
            assert abs(rep.w_continuous_min - wc_min) <= 1e-12 * scale
            assert abs(rep.w_continuous_max - wc_max) <= 1e-12 * scale
            checked += 1
    assert checked == len(traj.ts) * (cfg.degree - 1)


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("custom", [False, True])
def test_t23_verdict_runs_the_continuous_pass_only_when_f_varies(monkeypatch, custom):
    cfg = replace(scenario_config("bs_mass_gamma"), steps=5)
    if custom:
        m = Measure.of(ACWeight.custom(CUSTOM_WEIGHTS["custom_cos"]), [MassPoint.of("t", "2*pi/3")])
        cfg = replace(cfg, measure=m, t_start=0.5, t_stop=1.0, nodes=1024)
    traj = sweep(cfg)
    calls = _count_calls(monkeypatch, predicates, "w_continuous")
    entries = sweep_verdicts(cfg, traj)
    assert sum(len(entry["verdicts"]) for entry in entries) == 5 * 4
    assert (len(calls) > 0) == custom


def test_custom_bernstein_szego_weight_gives_the_closed_form_verdicts(monkeypatch):
    # custom_scale is the closed-form weight below written out as an expression;
    # neither has a theta-dependent f, so neither runs the density pass
    weights = [ACWeight.custom(CUSTOM_WEIGHTS["custom_scale"]), ACWeight.bernstein_szego(-1j / 3, "1 + 0.5*t")]
    cfgs = [
        SweepConfig(
            Measure.of(ac, [MassPoint.of("t", "2*pi/3")]), 5, 0.5, 1.0, 4,
            ZeroPolicy.fixed_xi(1j), theorem="t23", nodes=1024,
        )
        for ac in weights
    ]
    trajs = [sweep(cfg) for cfg in cfgs]
    calls = _count_calls(monkeypatch, predicates, "w_continuous")
    custom, closed = (sweep_verdicts(cfg, traj) for cfg, traj in zip(cfgs, trajs))
    assert calls == []
    pairs = [pair for a, b in zip(custom, closed) for pair in zip(a["verdicts"], b["verdicts"], strict=True)]
    assert len(pairs) == 4 * 4
    for x, y in pairs:
        assert (x["zero_index"], x["verdict"], x["flags"]) == (y["zero_index"], y["verdict"], y["flags"])
        assert x["w_continuous_min"] == x["w_continuous_max"] == y["w_continuous_max"] == 0.0
        scale = max(abs(w) for w in y["w_masses"])
        assert max(abs(a - b) for a, b in zip(x["w_masses"], y["w_masses"], strict=True)) <= 1e-13 * scale


PHASES_ONLY = ZeroSet(np.array([0.5, 2.5]), np.zeros(2), 0.0)


@settings(deadline=None, max_examples=150)
@given(
    separable_weights(), st.floats(-0.5, 0.5),
    st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=4),
)
def test_separable_weight_has_the_pointwise_constant_f(weight, t, thetas):
    ctx = motion_context(Measure.of(ACWeight.custom(weight)).at(t), PHASES_ONLY)
    assert ctx.f_grid is None
    f_const = ctx.f_phases[0]
    assert np.all(ctx.f_phases == f_const)
    w = parse(weight)
    for theta in thetas:
        bindings = {"theta": theta, "t": t}
        expected = evaluate(differentiate(w, "t"), bindings) / evaluate(w, bindings)
        # each factor's own A'/A is at most 2 in size, so this bound is relative to the terms
        assert abs(f_const - expected) <= 1e-12 * (1.0 + abs(expected))


@settings(deadline=None, max_examples=50)
@given(separable_weights(mixed=True), st.floats(-0.5, 0.5), st.sampled_from([64, 1000]))
def test_weight_with_a_mixed_factor_samples_f_on_the_grid(weight, t, nodes):
    # far phases: f is read at them reduced into [0, 2 pi)
    zs = ZeroSet(np.array([-2.0, 0.5, 8.0]), np.zeros(3), 0.0)
    ctx = motion_context(Measure.of(ACWeight.custom(weight)).at(t, nodes), zs)
    grid, f_grid = theta_grid(0.0, nodes), ctx.f_grid
    assert f_grid.shape == (nodes,)
    w = parse(weight)
    dw = differentiate(w, "t")
    for thetas, f in ((grid[[0, 7, -1]], f_grid[[0, 7, -1]]), (zs.phases % (2 * math.pi), ctx.f_phases)):
        for theta, value in zip(thetas.tolist(), f.tolist()):
            bindings = {"theta": theta, "t": t}
            expected = evaluate(dw, bindings) / evaluate(w, bindings)
            assert abs(value - expected) <= 1e-12 * (1.0 + abs(expected))


# fixed and moving masses together, with a moving Lebesgue part (f constant,
# not zero) and with a custom weight whose f varies
MIXED_MOTION = Measure.of(
    ACWeight.lebesgue("1 - 0.5*t"),
    [MassPoint.of("0.7", "2*pi/3"), MassPoint.of("0.4 + 0.3*t", "4 - 0.2*t")],
)
CUSTOM_MOTION = Measure.of(
    ACWeight.custom(CUSTOM_WEIGHTS["custom_cos"]),
    [MassPoint.of("0.7", "2*pi/3"), MassPoint.of("0.4 + 0.3*t", "4 - 0.2*t")],
)

# the weight exp(t cos(theta)) is even in theta, so the measure stays conjugation-symmetric
CONJUGATE_CUSTOM = Measure.of(ACWeight.custom("exp(t*cos(theta))"), CONJUGATE_MOVING.masses)


PASS_CASES = {
    "bs_mass_gamma": replace(scenario_config("bs_mass_gamma"), steps=12),
    "bs_mass_omega": replace(scenario_config("bs_mass_omega"), steps=12),
    "fixed_one": replace(scenario_config("lebesgue_mass_fixed_one"), steps=6),
    "mixed_motion": SweepConfig(MIXED_MOTION, 6, 0.1, 0.6, 6, ZeroPolicy.fixed_xi(1j)),
    "custom": SweepConfig(
        CUSTOM_MOTION, 5, 0.5, 1.0, 4, ZeroPolicy.fixed_xi(1j), theorem="t23", nodes=1024
    ),
    "t22": SweepConfig(CONJUGATE_MOVING, 4, -0.5, 0.5, 6, ZeroPolicy.fixed_b(1 + 0j), theorem="t22"),
    "t22_custom": SweepConfig(
        CONJUGATE_CUSTOM, 4, -0.5, 0.5, 4, ZeroPolicy.fixed_b(1 + 0j), theorem="t22", nodes=1024
    ),
}


@pytest.mark.parametrize("name", PASS_CASES)
def test_verdicts_at_is_the_scalar_verdict_zero_by_zero(name):
    # the one-pass table against the scalar functionals and the one-zero
    # verdict on a context built apart from the pass
    cfg = PASS_CASES[name]
    traj = sweep(cfg)
    checked = 0
    for t, zs, sample in zip(traj.ts, traj.zero_sets, traj.samples):
        reports = verdicts_along([sample], [zs], cfg.theorem)[0]
        expected_rows = [k for k in range(len(zs)) if reference_index(zs, k, cfg.theorem) is not None]
        assert list(reports) == expected_rows
        ctx = motion_context(cfg.measure.at(float(t), cfg.nodes), zs)
        for k, rep in reports.items():
            ref = reference_index(zs, k, cfg.theorem)
            assert rep.to_json() == verdict(ctx, k, ref, cfg.theorem).to_json()
            if rep.flags in (("collision",), ("non_conjugate_pair",)):
                continue
            scalar = np.array([w_mass(j, ctx, k, ref) for j in range(len(ctx.gammas))])
            label, flags, wc_min, wc_max, scale = _scalar_t23_verdict(ctx, k, ref)
            assert np.max(np.abs(rep.w_masses - scalar), initial=0.0) <= 1e-15 * scale
            assert (rep.verdict, rep.flags) == (label, flags)
            assert abs(rep.w_continuous_min - wc_min) <= 1e-12 * scale
            assert abs(rep.w_continuous_max - wc_max) <= 1e-12 * scale
            checked += 1
    if name == "fixed_one":
        assert checked == 0  # the pinned zero sits on the mass: every verdict is a collision
    else:
        assert checked >= len(traj.ts) * 2


def test_t22_pass_with_skipped_rows_keeps_each_reference_phase():
    # zeros 0 and 3 are each other's partner but not conjugate, so their rows
    # are skipped ahead of the conjugate pair 1, 2 that reads the grid
    zs = ZeroSet(np.array([-2.5, -1.0, 1.0, 2.0]), np.zeros(4), 0.0)
    m = Measure.of(ACWeight.custom(CUSTOM_WEIGHTS["custom_cos"]))
    reports = verdicts_along([m.at(0.5, 1024)], [zs], "t22")[0]
    ctx = motion_context(m.at(0.5, 1024), zs)
    assert [rep.flags == ("non_conjugate_pair",) for rep in reports.values()] == [True, False, False, True]
    for k, rep in reports.items():
        ref = reference_index(zs, k, "t22")
        assert rep.fixed_phase == zs.phases[ref]
        assert rep.to_json() == verdict(ctx, k, ref, "t22").to_json()


@pytest.mark.parametrize("theorem", ["t23", "t22"])
def test_verdicts_evaluate_f_once_per_reference_per_grid_point(monkeypatch, theorem):
    cfg = PASS_CASES["custom" if theorem == "t23" else "t22_custom"]
    traj = sweep(cfg)
    ac = cfg.measure.ac
    passes = []

    def counting(name, real):
        def wrapped(exprs, bindings):
            # the expressions each evaluation on angles reads, and at how many
            if "theta" in bindings:
                passes.append((name, exprs, np.size(bindings["theta"])))
            return real(exprs, bindings)
        return wrapped

    for name in ("evaluate", "evaluate_all"):
        monkeypatch.setattr(measures, name, counting(name, getattr(measures, name)))
    entries = sweep_verdicts(cfg, traj)
    rows = [len(entry["verdicts"]) for entry in entries]
    assert all("verdict" in item for entry in entries for item in entry["verdicts"])
    # under t22 each zero of a conjugate pair is the other's reference
    assert rows == [4 if theorem == "t23" else 2] * len(traj.ts)
    # whatever the number of references, per grid point one pass over the
    # weight and its d/dt at the zero phases and one d/dt on the moments'
    # nodes; the weight on those nodes is the sweep's own
    per_point = [("evaluate_all", (ac.weight, ac.d_dt), cfg.degree), ("evaluate", ac.d_dt, cfg.nodes)]
    assert passes == per_point * len(traj.ts)


@st.composite
def periodic_f_tables(draw):
    """(nodes, f, theta0s): 1-3 theta0, each on a node, between two nodes, or
    past the last node, and each with its own f on the M nodes of
    theta_grid(0, M), either a sorted table rolled round the circle (monotone
    but for one step) and perhaps negated, or any table."""
    m = draw(st.integers(16, 48))
    nodes = theta_grid(0.0, m)
    tables, theta0s = [], []
    for _ in range(draw(st.integers(1, 3))):
        values = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))
        if draw(st.booleans()):
            values = np.roll(np.sort(values), draw(st.integers(0, m - 1))) * draw(st.sampled_from([1.0, -1.0]))
        tables.append(values)
        j, frac = draw(st.integers(0, m - 1)), draw(st.floats(0.01, 0.99))
        where = draw(st.sampled_from(["on", "between", "past"]))
        theta0s.append({"on": nodes[j], "between": nodes[j], "past": nodes[-1]}[where]
                       + (0.0 if where == "on" else frac * 2 * math.pi / m))
    return nodes, np.array(tables), np.array(theta0s)


@settings(deadline=None, max_examples=200)
@given(periodic_f_tables())
def test_one_pass_monotonicity_is_the_rolled_diff_per_reference(case):
    nodes, tables, theta0s = case
    table = predicates._f_monotone(nodes, tables, theta0s)
    for values, theta0, row in zip(tables, theta0s, table.tolist()):
        # f over the open period from theta0: from the first node after it,
        # round to the last node before theta0 + 2 pi, so not at a node on theta0
        tol = NONNEG_TOL * (1.0 + float(np.max(np.abs(values))))
        theta0 %= 2 * math.pi
        start = next((i for i, th in enumerate(nodes) if th > theta0), 0)
        rolled = np.roll(values, -start)
        diffs = np.diff(rolled[:-1] if theta0 in nodes else rolled)
        assert row == [bool(np.all(diffs >= -tol)), bool(np.all(diffs <= tol))]


def test_mass_functionals_poles_match_the_scalar_functionals():
    # a fixed mass on a zero that is neither tracked nor the reference is no
    # pole (its cotangent sum is never read); on the tracked zero it is one,
    # and so is a moving mass on any zero
    fixed = _context(
        [0.5, 2.0, 3.5],
        gammas=[1.0, 0.6], omegas=[3.5, 5.0], dgammas=[0.7, 0.2], domegas=[0.0, 0.1],
    )
    expected = [w_mass(j, fixed, 1, 0) for j in range(2)]
    assert predicates.mass_functionals(fixed, 1, 0).tolist() == expected
    for ctx in (replace(fixed, omegas=np.array([2.0, 5.0])), replace(fixed, domegas=np.array([0.1, 0.1]))):
        with pytest.raises(PredicateError):
            [w_mass(j, ctx, 1, 0) for j in range(2)]
        with pytest.raises(PredicateError):
            predicates.mass_functionals(ctx, 1, 0)


def test_a_still_mass_on_a_zero_no_row_reads_leaves_the_point_its_verdicts():
    # xi = 1 pins a zero on the still mass at 0, which is its own conjugate and so
    # no t22 row's zero: the other rows read no pole, as their balance checks do not
    masses = [MassPoint.of("0.4 + 0.1*t", "0")] + [
        MassPoint.of(gamma, sign + omega)
        for gamma, omega in (("0.5 + 0.2*t", "1.0"), ("0.8 - 0.1*t", "2.2")) for sign in ("", "-")
    ]
    m = Measure.of(ACWeight.lebesgue("1 + 0.2*t"), masses)
    policy = ZeroPolicy.fixed_xi(1.0 + 0j)
    state = solve_at(m, 5, policy, 0.1)
    zs = state.zero_set
    assert circular_gap(zs.phases[zs.fixed_index], 0.0) < ANGLE_TOL
    reports = verdicts_along([state.sample], [zs], "t22")[0]
    ctx = motion_context(state.sample, zs)
    assert len(reports) == 4
    for k, rep in reports.items():
        assert "collision" not in rep.flags and len(rep.w_masses) == 5
        ref = reference_index(zs, k, "t22")
        assert rep.w_masses.tobytes() == predicates.mass_functionals(ctx, k, ref).tobytes()
        assert balance_check(m, 5, policy, 0.1, zs.phases[k], "t22").mismatch <= 1e-4


def test_a_mass_within_the_angle_tolerance_of_the_tracked_zero_is_a_pole():
    # 1e-10 from the tracked zero: inside ANGLE_TOL, so no W_j, for a verdict or a balance check
    ctx = _context([0.5, 2.0, 3.5], gammas=[1.0], omegas=[2.0 + 1e-10], dgammas=[0.7], domegas=[0.0])
    with pytest.raises(PredicateError):
        predicates.mass_functionals(ctx, 1, 0)
    rep = verdict(ctx, 1, 0, "t21")
    assert (rep.verdict, rep.flags) == ("Inconclusive", ("collision",))


@st.composite
def moving_discrete_measures(draw):
    """(measure, degree): 2-6 masses at least 0.3 apart at t = 0, with affine
    gamma_j(t) = g_j + g_j' t and omega_j(t) = o_j + o_j' t (|t| <= 1/2 keeps
    them 0.2 apart and positive), and a degree the support carries."""
    n_masses = draw(st.integers(2, 6))
    start = draw(st.floats(0.0, 2 * math.pi))
    gaps = draw(st.lists(st.floats(0.3, 0.75), min_size=n_masses, max_size=n_masses))
    gammas = draw(st.lists(st.floats(0.3, 1.5), min_size=n_masses, max_size=n_masses))
    slopes = draw(st.lists(st.floats(-0.2, 0.2), min_size=n_masses, max_size=n_masses))
    drifts = draw(st.lists(st.floats(-0.1, 0.1), min_size=n_masses, max_size=n_masses))
    omegas = start + np.cumsum(gaps)
    masses = [
        MassPoint.of(f"{g!r} + {dg!r}*t", f"{float(o)!r} + {do!r}*t")
        for g, dg, o, do in zip(gammas, slopes, omegas, drifts)
    ]
    return Measure.of(ACWeight.none(), masses), draw(st.integers(2, n_masses))


@settings(deadline=None, max_examples=100)
@given(moving_discrete_measures(), st.floats(-0.5, 0.5), st.floats(0.0, 2 * math.pi))
def test_conclusive_verdicts_have_the_sign_of_the_velocity(case, t, arg_xi):
    # the paper's discrete theorem: a zero whose W_j share a sign moves that
    # way; velocities below verify's floor of 1e-8 are not signed
    m, degree = case
    policy = ZeroPolicy.fixed_xi(cmath.exp(1j * arg_xi))
    state = solve_at(m, degree, policy, t)
    zs = state.zero_set
    for k, rep in verdicts_along([state.sample], [zs], "t21")[0].items():
        if rep.verdict == "Inconclusive":
            continue
        v = tracked_velocity(m, degree, policy, t, zs.phases[k], h=1e-5)
        if abs(v) > 1e-8:
            assert rep.verdict == ("CCW" if v > 0 else "CW"), (k, rep.verdict, v)


@st.composite
def nonperiodic_weights(draw):
    """A custom weight, positive on [0, 2 pi) for |t| <= 1/2, whose f =
    (d/dt w)/w varies with theta and is not 2 pi-periodic: read on [0, 2 pi),
    it jumps at theta = 0, where xi = 1 pins theta0."""
    form = draw(st.sampled_from(["{a} + {c}*t*theta", "{a} + {c}*t*theta*theta/20", "1 + exp({c}*t*theta)"]))
    a, c = draw(st.floats(2.0, 4.0)), draw(st.floats(0.05, 0.3)) * draw(st.sampled_from([1.0, -1.0]))
    return form.format(a=repr(a), c=repr(c))


@settings(deadline=None, max_examples=100)
@given(moving_discrete_measures(), nonperiodic_weights(), st.floats(-0.5, 0.5))
def test_conclusive_verdicts_on_a_nonperiodic_weight_have_the_sign_of_the_velocity(case, weight, t):
    # the mixed theorem with theta0 = 0 at the weight's jump: the open period
    # from theta0 is where f must be monotone, and W(theta) decides there too
    masses, degree = case[0].masses, case[1]
    m = Measure.of(ACWeight.custom(weight), masses)
    policy = ZeroPolicy.fixed_xi(1.0 + 0j)
    state = solve_at(m, degree, policy, t, nodes=1024)
    zs = state.zero_set
    for k, rep in verdicts_along([state.sample], [zs], "t23")[0].items():
        if rep.verdict == "Inconclusive":
            continue
        v = tracked_velocity(m, degree, policy, t, zs.phases[k], h=1e-5, nodes=1024)
        if abs(v) > 1e-8:
            assert rep.verdict == ("CCW" if v > 0 else "CW"), (k, rep.verdict, v)


def test_a_weight_pinned_at_its_jump_gets_verdicts_with_the_sign_of_the_velocity():
    # f of 1 + exp(t theta/8), read on [0, 2 pi), rises but for its jump at
    # theta = 0, and xi = 1 puts theta0 on that node: skipping the steps into
    # and out of theta0 leaves f monotone, so W(theta) can decide; counting the
    # step into theta0 flagged all 18 verdicts f_not_nondecreasing
    m = Measure.of(
        ACWeight.custom("1 + exp(t*theta/8)"), [MassPoint.of("0.5 + t", "2"), MassPoint.of("0.3 + t/2", "4.5")]
    )
    cfg = SweepConfig(m, 4, 0.2, 0.8, 6, ZeroPolicy.fixed_xi(1.0 + 0j), theorem="t23", nodes=1024)
    items = [(e["t"], item) for e in sweep_verdicts(cfg, sweep(cfg)) for item in e["verdicts"]]
    assert len(items) == 18
    assert not any("f_not_nondecreasing" in item["flags"] for _, item in items)
    conclusive = [(t, item) for t, item in items if item["verdict"] != "Inconclusive"]
    assert len(conclusive) >= 6
    for t, item in conclusive:
        v = tracked_velocity(m, 4, cfg.policy, t, item["tracked_phase"], nodes=1024)
        assert item["verdict"] == ("CCW" if v > 0 else "CW"), (t, item, v)


def test_a_cw_verdict_on_a_weight_whose_f_falls_is_flagged_mirrored_alone():
    # f of 1 + exp(-t theta/8) falls on the open period from theta0 = 0, which
    # a CW verdict needs; it is not nondecreasing, and that flag is for the
    # verdicts it leaves Inconclusive
    m = Measure.of(
        ACWeight.custom("1 + exp(-t*theta/8)"), [MassPoint.of("0.5 + t", "2"), MassPoint.of("0.3 + t/2", "4.5")]
    )
    cfg = SweepConfig(m, 4, 0.2, 0.8, 6, ZeroPolicy.fixed_xi(1.0 + 0j), theorem="t23", nodes=1024)
    items = [(e["t"], item) for e in sweep_verdicts(cfg, sweep(cfg)) for item in e["verdicts"]]
    cw = [(t, item) for t, item in items if item["verdict"] == "CW"]
    assert len(cw) >= 6
    for t, item in cw:
        assert item["flags"] == ["mirrored"]
        assert tracked_velocity(m, 4, cfg.policy, t, item["tracked_phase"], nodes=1024) < 0, (t, item)
    others = [item["flags"] for _, item in items if item["verdict"] != "CW"]
    assert others and all(flags == ["f_not_nondecreasing"] for flags in others)


@st.composite
def trajectory_inputs(draw):
    """(samples, zero sets, theorem): one random measure, discrete, closed-kind
    or custom (with or without a factor that mixes t and theta), at 2-6 values
    of t, each with the same number (2-6) of zeros drawn at random, not solved
    for.  Under t22 the zeros come in conjugate pairs, perhaps moved off them;
    else zero 0 is pinned or none is.  At a collision point a zero sits on a mass."""
    theorem = draw(st.sampled_from(predicates.THEOREMS))
    masses = []
    gaps = draw(st.lists(st.floats(0.5, 1.5), min_size=1, max_size=3))
    for omega in (draw(st.floats(0.0, 2 * math.pi)) + np.cumsum(gaps)).tolist():
        g, dg, do = draw(st.floats(0.3, 1.5)), draw(st.floats(-0.2, 0.2)), draw(st.sampled_from([0.0, 0.1, -0.05]))
        masses.append(MassPoint.of(f"{g!r} + {dg!r}*t", f"{omega!r} + {do!r}*t"))
    ac = draw(st.sampled_from(["none", "closed", "custom"]))
    if ac == "closed":
        # the scale t is negative or zero at t <= 0, where the motion data raises
        scale = draw(st.sampled_from(["1.5 + 0.5*t", "t"]))
        weight = ACWeight.bernstein_szego(draw(st.sampled_from([0, 0.4j, -0.3 + 0.2j])), scale)
    else:
        weight = ACWeight.none() if ac == "none" else ACWeight.custom(draw(separable_weights(draw(st.booleans()))))
    m = Measure.of(weight, masses)
    samples, zero_sets = [], []
    pinned, n = draw(st.booleans()), draw(st.integers(2, 6))
    # t on a grid of step 1/100, as a sweep's: a t-factor A(t) within a few ulps of 0 makes
    # f = A'/A overflow in the one-point pass as in the trajectory pass
    for t in sorted(draw(st.lists(st.integers(-50, 50), min_size=2, max_size=6, unique=True))):
        t /= 100
        sample = m.at(t, 256)
        phases = np.array(draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n)))
        if theorem == "t22":
            half = np.abs(phases[: n // 2]) + draw(st.sampled_from([0.0, 0.0, 0.3]))
            phases = np.concatenate([half, -half, phases[n // 2 * 2 :]])
        if draw(st.booleans()) and draw(st.booleans()):  # a collision
            phases[draw(st.integers(0, n - 1))] = sample.omegas[0]
        fixed = 0 if pinned and theorem != "t22" else None
        zero_sets.append(ZeroSet(phases, np.zeros(n), 0.0, fixed))
        samples.append(sample)
    return samples, zero_sets, theorem


def test_points_that_differ_in_zero_or_mass_count_are_named():
    # numpy's "inhomogeneous shape" ValueError once escaped from the stacking
    one, two = (Measure.of(ACWeight.none(), [MassPoint.of("1", w) for w in omegas]) for omegas in (["3"], ["3", "5"]))
    three, four = (ZeroSet(np.linspace(0.5, 2.5, n), np.zeros(n), 0.0, 0) for n in (3, 4))
    with pytest.raises(ValueError, match=r"the points differ in zero count: \[3, 4\]"):
        predicates.verdicts_along([one.at(0.2), one.at(0.3)], [three, four], "t21")
    with pytest.raises(ValueError, match=r"the points differ in mass count: \[1, 2\]"):
        predicates.verdicts_along([one.at(0.2), two.at(0.2)], [three, three], "t21")
    # 1024 and 1023 nodes both stride to 512 verdict nodes: the second point's f was
    # read on the first point's nodes, without an error
    mixed = Measure.of(ACWeight.custom(CUSTOM_WEIGHTS["custom_cos"]), one.masses)
    with pytest.raises(ValueError, match=r"the points differ in node count: \[1023, 1024\]"):
        predicates.verdicts_along([mixed.at(0.2, 1024), mixed.at(0.3, 1023)], [three, three], "t21")


def _json_or_error(reports):
    return json.dumps([
        (k, str(rep) if isinstance(rep, Exception) else rep.to_json()) for k, rep in reports.items()
    ])


# 150 examples take about 1.5 s of Tier-1's 30 s
@settings(deadline=None, max_examples=150)
@given(trajectory_inputs())
def test_the_trajectory_pass_is_the_one_point_pass_at_every_point(case):
    samples, zero_sets, theorem = case
    along = predicates.verdicts_along(samples, zero_sets, theorem)
    assert len(along) == len(samples)
    for sample, zs, reports in zip(samples, zero_sets, along):
        alone = verdicts_along([sample], [zs], theorem)[0]
        assert _json_or_error(reports) == _json_or_error(alone)
