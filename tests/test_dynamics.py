import cmath
import inspect
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popuc import dynamics, expressions, measures, predicates
from popuc.dynamics import (
    SweepConfig,
    TrackingError,
    ZeroPolicy,
    balance_check,
    fd_velocity,
    solve_at,
    sweep,
    sweep_verdicts,
    tracked_velocity,
)
from popuc.expressions import evaluate_all
from popuc.measures import ACWeight, MassPoint, Measure, moments
from popuc.opuc import inner_product, polyval
from popuc.paraorthogonal import ZeroSet
from popuc.predicates import PredicateError, motion_context, reference_index, verdicts_along
from popuc.scenarios import SCENARIOS, scenario_config
from popuc.verify import _deflate as deflate

DISCRETE = Measure.of(
    ACWeight.none(),
    [
        MassPoint.of("0.8 + 0.1*t", "0.6"),
        MassPoint.of("1.1 - 0.2*t", "1.9"),
        MassPoint.of("0.5 + 0.3*t", "3.1"),
        MassPoint.of("0.9", "4.4 + 0.05*t"),
        MassPoint.of("0.7", "5.6"),
    ],
)

MIXED = Measure.of(ACWeight.lebesgue("1 - t"), [MassPoint.of("t", "0")])


def test_zero_policy_validation():
    with pytest.raises(ValueError):
        ZeroPolicy("fixed_xi", 0.5 + 0j)
    with pytest.raises(ValueError):
        ZeroPolicy("other", 1.0 + 0j)
    assert ZeroPolicy.fixed_b(-1.0 + 0j).kind == "fixed_b"


def test_sweep_config_validation():
    pol = ZeroPolicy.fixed_b(1.0 + 0j)
    with pytest.raises(ValueError):
        SweepConfig(DISCRETE, 4, 0.0, 1.0, 2, pol)
    with pytest.raises(ValueError):
        SweepConfig(DISCRETE, 1, 0.0, 1.0, 10, pol)
    # h is not validated against the grid: no sweep reads it
    assert SweepConfig(DISCRETE, 4, 0.0, 1.0, 10, pol, h=0.2).h == 0.2
    with pytest.raises(ValueError, match="t99"):
        SweepConfig(DISCRETE, 4, 0.0, 1.0, 11, pol, theorem="t99")
    with pytest.raises(ValueError, match="empty grid interval"):
        SweepConfig(DISCRETE, 4, 0.5, 0.5, 5, pol)
    cfg = SweepConfig(DISCRETE, 4, 0.0, 1.0, 11, pol)
    assert len(cfg.grid()) == 11


def test_zero_policy_rejects_what_build_popuc_rejects():
    # a value 5e-10 off the circle used to pass the policy and fail every solve
    for make in (ZeroPolicy.fixed_b, ZeroPolicy.fixed_xi):
        with pytest.raises(ValueError):
            make(1.0 + 5e-10)


def test_fine_grid_sweeps_with_the_default_h():
    # spacing 1e-5 is below 2 h; such a config used to be rejected
    cfg = SweepConfig(MIXED, 5, 0.0, 0.01, 1001, ZeroPolicy.fixed_b(1))
    traj = sweep(cfg)
    assert traj.chains.shape == (1001, 5)


def test_solve_at_marks_fixed_zero():
    xi = cmath.exp(1j * 2.0)
    st = solve_at(DISCRETE, 4, ZeroPolicy.fixed_xi(xi), 0.0)
    zs = st.zero_set
    assert zs.fixed_index is not None
    assert abs(zs.phases[zs.fixed_index] - 2.0) < 1e-9
    assert abs(polyval(st.popuc.poly.coeffs, xi)) < 1e-10
    # window starts at the fixed zero, which is therefore index 0
    assert zs.fixed_index == 0


def test_pinned_zero_found_below_arg_xi_is_index_zero():
    # the computed pinned zero used to sit an ulp below arg xi and wrap to index 7
    xi = cmath.exp(-1j * math.pi / 12)
    zs = solve_at(Measure.of(ACWeight.lebesgue("1"), []), 8, ZeroPolicy.fixed_xi(xi), 0.0).zero_set
    assert zs.fixed_index == 0 and zs.phases[0] == cmath.phase(xi)


@st.composite
def pinned_sweeps(draw):
    """A fixed_xi SweepConfig: 1-6 masses at least 0.3 apart with affine
    gamma(t) and omega(t), an optional Lebesgue or Bernstein-Szego part, a
    degree below a discrete measure's mass count (at degree N, N masses with
    xi on a moving mass move zeros faster than this grid tracks), and xi
    anywhere on the circle."""
    kind = draw(st.sampled_from(["none", "lebesgue", "bernstein_szego"]))
    n_masses = draw(st.integers(3 if kind == "none" else 1, 6))
    start = draw(st.floats(0.0, 2 * math.pi))
    omegas = start + np.cumsum(draw(st.lists(st.floats(0.3, 0.75), min_size=n_masses, max_size=n_masses)))
    masses = [
        MassPoint.of(
            f"{draw(st.floats(0.3, 1.5))!r} + {draw(st.floats(-0.2, 0.2))!r}*t",
            f"{float(o)!r} + {draw(st.floats(-0.1, 0.1))!r}*t",
        )
        for o in omegas
    ]
    if kind == "lebesgue":
        ac = ACWeight.lebesgue(f"{draw(st.floats(0.1, 2.0))!r} + 0.5*t")
    elif kind == "bernstein_szego":
        ac = ACWeight.bernstein_szego(complex(draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.6, 0.6))))
    else:
        ac = ACWeight.none()
    degree = draw(st.integers(2, n_masses - 1 if kind == "none" else 8))
    xi = cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    return SweepConfig(Measure.of(ac, masses), degree, 0.0, 0.2, 4, ZeroPolicy.fixed_xi(xi), nodes=1024)


@settings(deadline=None, max_examples=60)
@given(pinned_sweeps())
def test_the_pinned_zero_is_xi_itself_and_its_chain_is_constant(cfg):
    # b puts a zero at xi, and that zero is xi: index 0 at phase arg xi to the
    # bit, cold or warm started, so its chain never moves
    theta0 = cmath.phase(cfg.policy.value)
    cold = solve_at(cfg.measure, cfg.degree, cfg.policy, 0.1, cfg.nodes).zero_set
    traj = sweep(cfg)
    for zs in (cold, *traj.zero_sets):
        assert zs.fixed_index == 0 and zs.phases[0] == theta0
    assert traj.fixed_chain == 0 and np.all(traj.chains[:, 0] == theta0)


def test_solve_at_fixed_b_has_no_marker():
    st = solve_at(DISCRETE, 4, ZeroPolicy.fixed_b(1.0 + 0j), 0.0)
    assert st.zero_set.fixed_index is None


def test_sweep_produces_continuous_chains():
    cfg = SweepConfig(DISCRETE, 4, 0.0, 0.5, 21, ZeroPolicy.fixed_xi(cmath.exp(1j * 2.0)))
    traj = sweep(cfg)
    assert traj.chains.shape == (21, 4)
    steps = np.abs(np.diff(traj.chains, axis=0))
    assert np.max(steps) < 0.3
    assert traj.fixed_chain == 0
    # the pinned chain does not move
    assert np.max(np.abs(traj.chains[:, 0] - traj.chains[0, 0])) < 1e-9


def test_fd_and_tracked_velocities_agree():
    cfg = SweepConfig(DISCRETE, 4, 0.0, 0.5, 21, ZeroPolicy.fixed_xi(cmath.exp(1j * 2.0)))
    traj = sweep(cfg)
    k = 2
    v_grid = fd_velocity(traj, k)
    mid = 10
    v_fresh = tracked_velocity(
        DISCRETE, 4, cfg.policy, float(traj.ts[mid]), float(traj.chains[mid, k])
    )
    assert v_grid[mid] == pytest.approx(v_fresh, abs=5e-3)


def test_fd_velocity_linear_chain_is_exact():
    cfg = SweepConfig(DISCRETE, 4, 0.0, 0.5, 11, ZeroPolicy.fixed_xi(cmath.exp(1j * 2.0)))
    traj = sweep(cfg)
    fake = traj.chains.copy()
    fake[:, 1] = 0.3 + 1.7 * traj.ts
    traj = replace(traj, chains=fake)
    v = fd_velocity(traj, 1)
    assert np.allclose(v, 1.7, atol=1e-12)


def test_tracking_error_on_count_change():
    from popuc.dynamics import _match

    st = solve_at(DISCRETE, 4, ZeroPolicy.fixed_b(1.0 + 0j), 0.0)
    with pytest.raises(TrackingError):
        _match(np.array([0.0, 1.0, 2.0]), st.zero_set, 1.0, 0.0)


def _match_by_table(prev_phases, new_set, min_gap, t):
    """The full-table matching the rotation replaced: each chain takes its
    nearest new zero, and the choice must be a bijection within half the gap."""
    m = len(prev_phases)
    if len(new_set) != m:
        raise TrackingError(f"zero count changed at t={t}")
    d = np.abs(np.angle(np.exp(1j * (new_set.phases[None, :] - prev_phases[:, None]))))
    perm = np.argmin(d, axis=1)
    if len(set(perm.tolist())) != m:
        raise TrackingError(f"ambiguous zero matching at t={t}")
    if np.max(d[np.arange(m), perm]) >= min_gap / 2:
        raise TrackingError(f"phase jump exceeds half the minimum gap at t={t}")
    return perm


def _jitters(m):
    # in half minimum gaps; |jitter| near 1 is left out, where roundoff decides
    below = st.floats(-0.95, 0.95)
    beyond = st.one_of(st.floats(1.05, 2.95), st.floats(-2.95, -1.05))
    return st.lists(st.one_of(below, below, beyond), min_size=m, max_size=m)


@settings(deadline=None, max_examples=400, derandomize=True)
@given(
    st.integers(2, 12).flatmap(
        lambda m: st.tuples(
            st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m), _jitters(m), st.integers(0, m - 1)
        )
    ),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
)
def test_rotation_match_is_the_full_table_match(case, ref_old, ref_new):
    # both zero sets ascend cyclically, so the rotation that sends chain 0 to
    # its nearest new zero is the nearest-zero assignment whenever every jump
    # stays below half the previous minimum gap, and both raise otherwise
    gaps, jitter, shift = case
    gaps = 2 * math.pi * np.array(gaps) / sum(gaps)
    old = ZeroSet(ref_old + np.cumsum(gaps) - gaps[0], np.zeros(len(gaps)), 0.0)
    moved = old.phases + np.array(jitter) * old.min_gap / 2
    new = ZeroSet(ref_new + np.sort(np.mod(moved - ref_new, 2 * math.pi)), np.zeros(len(gaps)), 0.0)
    prev = np.roll(old.phases, -shift)  # a chain order that starts anywhere in the cycle
    outcomes = []
    for match in (lambda *args: dynamics._match(*args)[0], _match_by_table):
        try:
            outcomes.append(match(prev, new, old.min_gap, 0.0).tolist())
        except TrackingError:
            outcomes.append("raised")
    assert outcomes[0] == outcomes[1]


def _match_steps_by_angle(prev_phases, new_set, perm):
    """_match's steps before np.arctan2 took np.angle's place, kept as a bitwise reference."""
    return np.angle(np.exp(1j * (new_set.phases[perm] - prev_phases)))


@settings(deadline=None, max_examples=150, derandomize=True)
@given(
    st.integers(1, 30).flatmap(
        lambda m: st.tuples(*(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m) for _ in range(2)))
    )
)
def test_match_steps_are_the_angle_form_bitwise(case):
    prev, new = (np.array(phases) for phases in case)
    new_set = ZeroSet(np.sort(new), np.zeros(len(new)), 0.0)
    perm, steps = dynamics._match(prev, new_set, math.inf, 0.0)  # an infinite gap: no jump raises
    w = np.exp(1j * (new_set.phases - prev[0]))
    nearest = int(np.argmin(np.abs(np.angle(w))))
    assert perm.tolist() == ((nearest + np.arange(len(prev))) % len(prev)).tolist()
    assert steps.tobytes() == _match_steps_by_angle(prev, new_set, perm).tobytes()


def test_balance_discrete():
    pol = ZeroPolicy.fixed_xi(cmath.exp(1j * 2.0))
    zs = solve_at(DISCRETE, 4, pol, 0.1).zero_set
    for k in range(len(zs)):
        if k == zs.fixed_index:
            continue
        be = balance_check(DISCRETE, 4, pol, 0.1, zs.phases[k], "t21")
        assert be.mismatch < 1e-4
        assert be.C > 0


def test_balance_mixed():
    pol = ZeroPolicy.fixed_xi(cmath.exp(1j * math.pi / 2))
    zs = solve_at(MIXED, 5, pol, 0.4, nodes=1024).zero_set
    k = (zs.fixed_index + 2) % len(zs)
    be = balance_check(MIXED, 5, pol, 0.4, zs.phases[k], "t23", nodes=1024)
    assert be.mismatch < 1e-4


CONJUGATE_MASSES = [
    MassPoint.of("0.5 + 0.2*t", "1.0"),
    MassPoint.of("0.5 + 0.2*t", "-1.0"),
    MassPoint.of("0.8 - 0.1*t", "2.2"),
    MassPoint.of("0.8 - 0.1*t", "-2.2"),
]


def test_balance_conjugate():
    m = Measure.of(ACWeight.none(), CONJUGATE_MASSES)
    pol = ZeroPolicy.fixed_b(1.0 + 0j)
    zs = solve_at(m, 4, pol, 0.0).zero_set
    tracked = [k for k, p in enumerate(zs.phases) if 1e-6 < p < math.pi - 1e-6][0]
    be = balance_check(m, 4, pol, 0.0, zs.phases[tracked], "t22")
    assert be.mismatch < 1e-4
    # the lower zero of the pair, measured against the upper one, moves the other way
    lower = balance_check(m, 4, pol, 0.0, -zs.phases[tracked], "t22")
    assert lower.mismatch < 1e-4
    assert lower.dphi_dt == pytest.approx(-be.dphi_dt, rel=1e-6)
    # the self-conjugate zeros at 0 and pi have no partner
    for phi in (0.0, math.pi):
        with pytest.raises(TrackingError):
            balance_check(m, 4, pol, 0.0, phi, "t22")


# Largest relative error seen, logged before balance_check took C in closed
# form: 5.4e-16, over both zeros of the pair at 11 t in [-0.5, 0.5]
T22_C_TOL = 1e-13


def test_t22_c_is_the_closed_form_at_the_zero_and_at_its_partner():
    m = Measure.of(ACWeight.none(), CONJUGATE_MASSES)
    pol = ZeroPolicy.fixed_b(1.0 + 0j)
    for t in np.linspace(-0.5, 0.5, 11):
        state = solve_at(m, 4, pol, float(t))
        zs = state.zero_set
        ms = moments(m, float(t), 3)
        for k in range(len(zs)):
            ref = reference_index(zs, k, "t22")
            if ref is None:
                continue
            zeta, xi = zs.zeros[k], zs.zeros[ref]
            be = balance_check(m, 4, pol, float(t), zs.phases[k], "t22")
            assert be.C == dynamics._c_at(state, zeta) + dynamics._c_at(state, xi)
            coeffs = state.popuc.poly.coeffs
            oracle = sum(float(inner_product(d, d, ms).real) for d in (
                deflate(coeffs, zeta), deflate(coeffs, np.conj(zeta))
            ))
            assert abs(be.C - oracle) <= T22_C_TOL * oracle


def test_t22_balance_rejects_a_partner_that_is_not_the_conjugate():
    # a measure without the mirror symmetry: the zero nearest -phi lies 0.43 rad
    # from it, where the verdict is Inconclusive
    m = Measure.of(ACWeight.none(), [
        MassPoint.of("0.5 + 0.2*t", "1.0"),
        MassPoint.of("0.9 + 0.2*t", "-0.7"),
        MassPoint.of("0.8 - 0.1*t", "2.2"),
        MassPoint.of("0.3 - 0.1*t", "-2.6"),
    ])
    pol = ZeroPolicy.fixed_b(1.0 + 0j)
    zs = solve_at(m, 4, pol, 0.1).zero_set
    k = zs.nearest_index(1.6314)
    partner = zs.phases[reference_index(zs, k, "t22")]
    assert abs(zs.phases[k] + partner) == pytest.approx(0.43, abs=0.005)
    assert verdicts_along([m.at(0.1)], [zs], "t22")[0][k].flags == ("non_conjugate_pair",)
    with pytest.raises(PredicateError, match="not a conjugate pair"):
        balance_check(m, 4, pol, 0.1, zs.phases[k], "t22")


def test_zero_policy_rejects_nan():
    for kind in ("fixed_xi", "fixed_b"):
        for value in (complex(math.nan, 0.0), complex(1.0, math.nan)):
            with pytest.raises(ValueError):
                ZeroPolicy(kind, value)


def test_balance_requires_fixed_zero_for_t21():
    with pytest.raises(TrackingError):
        balance_check(DISCRETE, 4, ZeroPolicy.fixed_b(1.0 + 0j), 0.1, 1.0, "t21")


def test_balance_rejects_unknown_theorem():
    pol = ZeroPolicy.fixed_xi(cmath.exp(1j * 2.0))
    zs = solve_at(DISCRETE, 4, pol, 0.1).zero_set
    k = (zs.fixed_index + 1) % len(zs)
    with pytest.raises(ValueError, match="t99"):
        balance_check(DISCRETE, 4, pol, 0.1, zs.phases[k], "t99")


def test_stationary_scenario_sweep():
    cfg = scenario_config("lebesgue_mass_fixed_one")
    traj = sweep(cfg)
    assert np.max(np.abs(traj.chains - traj.chains[0])) < 1e-8


def test_sweep_verdicts_propagates_defects(monkeypatch):
    # the trajectory pass turns only the library's errors into error entries
    cfg = SweepConfig(MIXED, 5, 0.2, 0.4, 3, ZeroPolicy.fixed_xi(1j), theorem="t23")
    traj = sweep(cfg)

    def broken_context(sample, zs):
        raise ZeroDivisionError("defect in a motion functional")

    monkeypatch.setattr(predicates, "motion_context", broken_context)
    with pytest.raises(ZeroDivisionError):
        sweep_verdicts(cfg, traj)


def test_an_error_at_one_grid_point_stays_at_that_point():
    # the t-factor (t - 1/2)^2 vanishes at the middle point alone, whose motion
    # data cannot be built; the points around it get the one-point verdicts
    masses = [MassPoint.of("1 + 0.2*t", w) for w in ("0.5", "2.5", "4.5")]
    m = Measure.of(ACWeight.custom("(t - 0.5)*(t - 0.5)*(2 + cos(theta))"), masses)
    cfg = SweepConfig(m, 3, 0.0, 1.0, 5, ZeroPolicy.fixed_xi(1j), theorem="t23")
    traj = sweep(cfg)
    entries = sweep_verdicts(cfg, traj)
    error = "weight vanishes at t=0.5: its t-factor is zero"
    assert entries[2]["verdicts"] == [{"zero_index": k, "error": error} for k in (1, 2)]
    for i in (0, 1, 3, 4):
        reports = verdicts_along([traj.samples[i]], [traj.zero_sets[i]], "t23")[0]
        assert entries[i]["verdicts"] == [dict(rep.to_json(), zero_index=k) for k, rep in reports.items()]
        assert all("verdict" in item for item in entries[i]["verdicts"])


def test_a_sweep_decides_its_verdicts_in_one_table_pass(monkeypatch):
    cfg = replace(scenario_config("bs_mass_omega"), steps=50)
    traj = sweep(cfg)
    calls = _count_calls(monkeypatch, predicates, "_mass_table")
    entries = sweep_verdicts(cfg, traj)
    assert len(calls) == 1
    assert len(entries) == 50 and all("verdict" in item for entry in entries for item in entry["verdicts"])


# a double zero on the node of theta_grid(0, 256) after the pinned zero at pi/2
NODE_ZERO = "(1 - cos(theta - pi/2 - pi/128))"


def test_weight_vanishing_at_a_verdict_node_gives_error_entry():
    # the second factor mixes t and theta, so f = (d/dt w)/w is taken on the
    # grid of the 256 nodes the moments use
    m = Measure.of(
        ACWeight.custom(f"{NODE_ZERO}*(1 + t + 0.1*t*cos(theta))"), [MassPoint.of("t", "2*pi/3")]
    )
    cfg = SweepConfig(m, 5, 0.5, 0.6, 3, ZeroPolicy.fixed_xi(1j), theorem="t23", nodes=256)
    entries = sweep_verdicts(cfg, sweep(cfg))
    errors = [item["error"] for entry in entries for item in entry["verdicts"] if "error" in item]
    assert len(errors) == 3 * 4
    assert all("weight vanishes" in err for err in errors)


def test_separable_weight_vanishing_at_a_verdict_node_gets_verdicts():
    # w = (1 + t) B(theta) has f = 1/(1 + t) at every theta, zeros of B included,
    # so no node is evaluated and the density functional is exactly zero
    m = Measure.of(ACWeight.custom(f"(1 + t)*{NODE_ZERO}"), [MassPoint.of("t", "2*pi/3")])
    cfg = SweepConfig(m, 5, 0.5, 0.6, 3, ZeroPolicy.fixed_xi(1j), theorem="t23", nodes=256)
    items = [item for entry in sweep_verdicts(cfg, sweep(cfg)) for item in entry["verdicts"]]
    assert len(items) == 3 * 4
    assert all("verdict" in item for item in items)
    assert all(item["w_continuous_min"] == item["w_continuous_max"] == 0.0 for item in items)


def test_separable_weight_with_a_vanishing_t_factor_gives_error_entry():
    # the separable counterpart of the Lebesgue scale t vanishing at t = 0
    masses = [MassPoint.of("1", w) for w in ("0.5", "2.5", "4.5")]
    m = Measure.of(ACWeight.custom("t*(2 + cos(theta))"), masses)
    cfg = SweepConfig(m, 3, 0.0, 1.0, 5, ZeroPolicy.fixed_xi(1j), theorem="t23")
    entries = sweep_verdicts(cfg, sweep(cfg))
    error = "weight vanishes at t=0.0: its t-factor is zero"
    assert entries[0]["verdicts"] == [{"zero_index": k, "error": error} for k in (1, 2)]
    assert all("verdict" in item for entry in entries[1:] for item in entry["verdicts"])


def test_shared_context_error_reaches_every_zero_at_its_grid_point():
    # the AC scale t, the weight's t-factor, vanishes at t = 0, where the motion
    # context cannot be built
    m = Measure.of(ACWeight.lebesgue("t"), [MassPoint.of("1", w) for w in ("0.5", "2.5", "4.5")])
    cfg = SweepConfig(m, 3, 0.0, 1.0, 5, ZeroPolicy.fixed_xi(1j), theorem="t23")
    entries = sweep_verdicts(cfg, sweep(cfg))
    error = "weight vanishes at t=0.0: its t-factor is zero"
    assert entries[0]["verdicts"] == [{"zero_index": k, "error": error} for k in (1, 2)]
    assert [item["zero_index"] for item in entries[1]["verdicts"]] == [1, 2]
    assert all("verdict" in item for item in entries[1]["verdicts"])


def _d2_ac_integral(m, state, f, tracked, reference, nodes=2048):
    """The AC integral of the balance identity, int s |P|^2 (f(theta) - f(phi)) w
    dtheta/2pi, by the midpoint rule in its deflated form: s(theta) |P|^2 =
    Re[i (zeta - xi) z D2(z) conj(P(z))] with D2 = P/((z - xi)(z - zeta)),
    smooth through both poles.  ``f`` maps angles to f.  Returns the integral
    and the integral of the integrand's absolute value."""
    p = state.popuc.poly.coeffs
    phi, theta0 = state.zero_set.phases[[tracked, reference]]
    zeta, xi = complex(np.exp(1j * phi)), complex(np.exp(1j * theta0))
    d2 = deflate(deflate(p, xi), zeta)
    thetas = 2.0 * math.pi * (np.arange(nodes) + 0.5) / nodes
    z = np.exp(1j * thetas)
    s_p2 = (1j * (zeta - xi) * z * polyval(d2, z) * np.conj(polyval(p, z))).real
    integrand = s_p2 * (f(thetas) - f(np.array([phi]))) * m.ac.density(thetas, state.t)
    return float(np.sum(integrand)) / nodes, float(np.sum(np.abs(integrand))) / nodes


@pytest.mark.parametrize("m", [MIXED, scenario_config("bs_mass_gamma").measure])
def test_t23_ac_integral_vanishes_when_f_is_constant_in_theta(m):
    pol = ZeroPolicy.fixed_xi(1j)
    state = solve_at(m, 5, pol, 0.4)
    zs = state.zero_set
    for k in range(len(zs)):
        if k == zs.fixed_index:
            continue
        ctx = motion_context(m.at(0.4), zs)
        assert ctx.f_grid is None and np.all(ctx.f_phases == ctx.f_phases[k])
        f = lambda theta: np.full(len(theta), ctx.f_phases[k])  # noqa: E731
        assert _d2_ac_integral(m, state, f, k, zs.fixed_index)[0] == 0.0
        assert balance_check(m, 5, pol, 0.4, ctx.phases[k], "t23").mismatch < 1e-4


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize(
    "m",
    [
        MIXED,
        Measure.of(ACWeight.custom("exp(t*cos(theta - 1))"), [MassPoint.of("t", "0")]),
        Measure.of(ACWeight.custom("(1 + t)*(2 + cos(theta - 1))"), [MassPoint.of("t", "0")]),
    ],
)
def test_t23_balance_evaluates_the_density_only_when_f_varies(monkeypatch, m):
    pol = ZeroPolicy.fixed_xi(1j)
    t, h, nodes = 0.4, 1e-5, 1024
    zs = solve_at(m, 5, pol, t, nodes).zero_set
    phi = zs.phases[(zs.fixed_index + 2) % len(zs)]
    varies = m.ac.kind == "custom" and m.ac.t_factor is None
    calls = _count_calls(monkeypatch, ACWeight, "density")
    for s in (t, t - h, t + h):
        solve_at(m, 5, pol, s, nodes)
    # only a weight with no t-factor takes its moments from the density
    solves = len(calls)
    assert solves == 3 * varies
    calls.clear()
    passes = _count_calls(monkeypatch, measures, "evaluate_all")
    evaluations = _count_calls(monkeypatch, measures, "evaluate")
    balance_check(m, 5, pol, t, phi, "t23", h, nodes)
    # no density beyond the solves: a varying f takes the weight on the
    # moments' nodes from the solve's record, and adds one pass at the zeros
    # and one d/dt on those nodes
    assert len(calls) == solves
    assert [np.size(args[1]["theta"]) for args in passes] == [5] * varies
    on_grid = [args for args in evaluations if "theta" in args[1] and args[0] is m.ac.d_dt]
    assert [np.size(args[1]["theta"]) for args in on_grid] == [nodes] * varies


def test_a_separable_sweep_evaluates_b_once_per_node_count(monkeypatch):
    # A(t) B(theta): each solve takes A(t) times B's moments, which one
    # evaluation of B on the grid gives for every sweep at that node count
    m = Measure.of(ACWeight.custom("(1 + 0.5*t)*(2 + cos(theta - 1))"), [MassPoint.of("t", "2")])
    densities = _count_calls(monkeypatch, ACWeight, "density")
    evaluations = _count_calls(monkeypatch, measures, "evaluate")
    for nodes in (256, 512, 256):
        cfg = SweepConfig(m, 5, 0.2, 0.8, 6, ZeroPolicy.fixed_xi(1j), theorem="t23", nodes=nodes)
        sweep_verdicts(cfg, sweep(cfg))
    assert densities == []
    assert [np.size(args[1]["theta"]) for args in evaluations if "theta" in args[1]] == [256, 512]


# the conjugate-symmetric masses of verify's "conjugate" check under four
# moving AC parts: two whose f is constant in theta (a Lebesgue scale, and a
# custom weight that factors as A(t) B(theta)) and two custom weights whose f is not
CONJUGATE_MASSES = [
    MassPoint.of("0.5 + 0.2*t", "1.0"),
    MassPoint.of("0.5 + 0.2*t", "-1.0"),
    MassPoint.of("0.8 - 0.1*t", "2.2"),
    MassPoint.of("0.8 - 0.1*t", "-2.2"),
]
MOVING_AC = {
    "lebesgue": ACWeight.lebesgue("1 - 0.5*t"),
    "custom_cos": ACWeight.custom("1 + 0.3*t*cos(theta)"),
    "custom_cos2": ACWeight.custom("(1+0.5*t)*(1.2 + cos(2*theta))"),
    "custom_mixed": ACWeight.custom("(1.2 + cos(2*theta))*(1 + 0.3*t*cos(theta))"),
}


# weights whose f varies with theta: two of MOVING_AC's and test_predicates'
# custom_cos, exp(t cos(theta - 1))
VARYING_AC = {
    "custom_cos": MOVING_AC["custom_cos"],
    "custom_mixed": MOVING_AC["custom_mixed"],
    "custom_exp": ACWeight.custom("exp(t*cos(theta - 1))"),
}


@pytest.mark.parametrize("ac", VARYING_AC.values(), ids=VARYING_AC)
@pytest.mark.parametrize("nodes", [1024, 4096])
def test_balance_ac_sum_is_the_deflated_midpoint_integral(ac, nodes):
    # without masses the right side is the AC sum alone; against the
    # deflate-twice midpoint integral, relative to the integral of |integrand|
    m, t = Measure.of(ac), 0.4
    pol = ZeroPolicy.fixed_xi(cmath.exp(2.5j))

    def f(theta):
        w, dw = evaluate_all((ac.weight, ac.d_dt), {"theta": theta, "t": t})
        return dw / w

    worst = 0.0
    for degree in range(4, 17):
        state = solve_at(m, degree, pol, t, nodes)
        zs = state.zero_set
        assert motion_context(state.sample, zs).f_grid is not None
        for k in {(zs.fixed_index + 1) % degree, (zs.fixed_index + degree // 2) % degree}:
            be = balance_check(m, degree, pol, t, zs.phases[k], "t23", nodes=nodes)
            oracle, scale = _d2_ac_integral(m, state, f, k, zs.fixed_index, nodes)
            worst = max(worst, abs(be.rhs - oracle) / scale)
    assert worst <= 1e-12


def test_weight_is_read_only_on_the_period_the_moments_integrate(monkeypatch):
    # a non-periodic weight, and a window [2.5, 2.5 + 2 pi) that holds zeros
    # past 2 pi: every theta handed to an evaluation lies in [0, 2 pi)
    m = Measure.of(ACWeight.custom("2 + sin(t*theta/7)"), [MassPoint.of("0.5 + 0.2*t", "1.0")])
    cfg = SweepConfig(m, 5, 0.5, 0.7, 3, ZeroPolicy.fixed_xi(cmath.exp(2.5j)), theorem="t23", nodes=256)
    traj = sweep(cfg)
    assert np.max(traj.zero_sets[0].phases) > 2 * math.pi
    thetas = []
    # the weight and its d/dt are evaluated in measures alone: on the moments'
    # grid and at the zero phases
    for module, name in ((measures, "evaluate"), (measures, "evaluate_all")):
        real = getattr(module, name)

        def recording(e, bindings, real=real):
            if "theta" in bindings:
                thetas.extend(np.ravel(bindings["theta"]).tolist())
            return real(e, bindings)

        monkeypatch.setattr(module, name, recording)
    entries = sweep_verdicts(cfg, traj)
    assert all("verdict" in item for entry in entries for item in entry["verdicts"])
    zs = traj.zero_sets[1]
    for phi in zs.phases[zs.phases > 2 * math.pi]:
        balance_check(m, 5, cfg.policy, float(traj.ts[1]), phi, "t23", nodes=256)
    assert len(thetas) > 0
    assert 0.0 <= min(thetas) and max(thetas) < 2 * math.pi


@pytest.mark.parametrize("ac", MOVING_AC.values(), ids=MOVING_AC)
def test_balance_takes_the_continuous_terms_in_every_regime(ac):
    # the AC terms follow from the measure: t21 and t22 balance on a mixed
    # measure as t23 does
    m = Measure.of(ac, CONJUGATE_MASSES)
    worst, checked = 0.0, 0
    for t in (-0.3, 0.2):
        pair = ZeroPolicy.fixed_b(1 + 0j)
        for degree in (4, 6, 8):
            zs = solve_at(m, degree, pair, t, 1024).zero_set
            for phi in zs.phases[(zs.phases > 1e-6) & (zs.phases < math.pi - 1e-6)]:
                worst = max(worst, balance_check(m, degree, pair, t, phi, "t22", nodes=1024).mismatch)
                checked += 1
        pin = ZeroPolicy.fixed_xi(1j)
        zs = solve_at(m, 6, pin, t, 1024).zero_set
        for k in range(len(zs)):
            if k != zs.fixed_index:
                worst = max(worst, balance_check(m, 6, pin, t, zs.phases[k], "t21", nodes=1024).mismatch)
                checked += 1
    assert checked == 22
    assert worst < 1e-4


def test_sweep_config_needs_sixteen_nodes():
    pol = ZeroPolicy.fixed_b(1.0 + 0j)
    with pytest.raises(ValueError):
        SweepConfig(MIXED, 4, 0.0, 1.0, 11, pol, nodes=8)
    assert SweepConfig(MIXED, 4, 0.0, 1.0, 11, pol, nodes=16).nodes == 16


def _high_degree_config(degree):
    measure = Measure.of(
        ACWeight.bernstein_szego(complex(0.0, -1.0 / 3.0)), [MassPoint.of("t", "2*pi/3")]
    )
    return SweepConfig(measure, degree, 0.5, 1.0, 3, ZeroPolicy.fixed_xi(1j))


@pytest.mark.parametrize(
    "cfg",
    [scenario_config(name) for name in SCENARIOS] + [_high_degree_config(d) for d in (40, 80, 120)],
)
def test_warm_started_sweep_matches_cold_solves(cfg):
    traj = sweep(cfg)
    for t, zs in zip(traj.ts, traj.zero_sets):
        cold = solve_at(cfg.measure, cfg.degree, cfg.policy, t, cfg.nodes).zero_set
        assert np.max(np.abs(zs.phases - cold.phases)) <= 1e-13
        if cfg.policy.kind == "fixed_xi":
            assert zs.fixed_index == 0 and zs.phases[0] == cmath.phase(cfg.policy.value)


def _record_solve_starts(monkeypatch):
    """Wrap dynamics.solve_at; return the list of ``start`` arguments it receives."""
    starts = []
    original = dynamics.solve_at
    signature = inspect.signature(original)

    def recording(*args, **kwargs):
        starts.append(signature.bind(*args, **kwargs).arguments.get("start"))
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_at", recording)
    return starts


def test_sweep_starts_each_point_from_the_previous_zeros(monkeypatch):
    starts = _record_solve_starts(monkeypatch)
    traj = sweep(scenario_config("bs_mass_gamma"))
    assert len(starts) == len(traj.ts)
    assert starts[0] is None
    for start, prev in zip(starts[1:], traj.zero_sets):
        assert np.array_equal(start, prev.zeros)


def test_balance_check_solves_cold(monkeypatch):
    pol = ZeroPolicy.fixed_xi(cmath.exp(1j * 2.0))
    zs = solve_at(DISCRETE, 4, pol, 0.1).zero_set
    starts = _record_solve_starts(monkeypatch)
    balance_check(DISCRETE, 4, pol, 0.1, zs.phases[(zs.fixed_index + 1) % len(zs)], "t21")
    assert starts and all(start is None for start in starts)


def test_sweep_stops_at_the_first_point_that_fails_to_match(monkeypatch):
    # the mass at t^4 outruns the grid between its second and third points
    m = Measure.of(ACWeight.lebesgue("1"), [MassPoint.of("2", "t*t*t*t")])
    cfg = SweepConfig(m, 4, 0.5, 2.0, 5, ZeroPolicy.fixed_b(1))
    starts = _record_solve_starts(monkeypatch)
    with pytest.raises(TrackingError, match="at t=1.25; refine the grid"):
        sweep(cfg)
    assert len(starts) == 3


def _record_evaluations(monkeypatch) -> list:
    """(expressions, bindings) of every outermost ``evaluate`` and
    ``evaluate_all`` call, wrapped in every popuc module that binds them, as
    perfbench's tracer wraps ``evaluate``."""
    calls, depth = [], [0]
    for name in ("evaluate", "evaluate_all"):
        real = getattr(expressions, name)

        def wrapped(exprs, bindings, real=real, many=name == "evaluate_all"):
            if not depth[0]:
                calls.append((tuple(exprs) if many else (exprs,), bindings))
            depth[0] += 1
            try:
                return real(exprs, bindings)
            finally:
                depth[0] -= 1

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "popuc" and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapped)
    return calls


def _evaluations_of(calls, exprs) -> int:
    return sum(any(e is x for e in evaluated for x in exprs) for evaluated, _ in calls)


def test_each_grid_point_samples_the_measure_once(monkeypatch):
    cfg = scenario_config("bs_mass_gamma")
    m, (mass,) = cfg.measure, cfg.measure.masses
    d_dts = (*mass.d_dt, m.ac.t_factor[1])
    calls = _record_evaluations(monkeypatch)
    traj = sweep(cfg)
    assert _evaluations_of(calls, d_dts) == 0  # a sweep reads no derivative
    sweep_verdicts(cfg, traj)
    # one record per point serves its moments and its verdicts
    assert cfg.steps == 50
    assert [_evaluations_of(calls, [e]) for e in (mass.gamma, mass.omega, m.ac.scale)] == [50] * 3
    assert [_evaluations_of(calls, [e]) for e in d_dts] == [50] * 3

    zs = traj.zero_sets[10]
    phi = float(zs.phases[(zs.fixed_index + 1) % len(zs)])
    calls.clear()
    balance_check(m, cfg.degree, cfg.policy, float(traj.ts[10]), phi, cfg.theorem)
    # its own solve and the two solves at t +- h
    assert [_evaluations_of(calls, [e]) for e in (mass.gamma, mass.omega, m.ac.scale)] == [3] * 3
    calls.clear()
    tracked_velocity(m, cfg.degree, cfg.policy, float(traj.ts[10]), phi)
    assert _evaluations_of(calls, d_dts) == 0


def test_a_varying_f_reads_the_weight_on_the_grid_from_the_solve(monkeypatch):
    ac = ACWeight.custom("exp(t*cos(theta - 1))")
    cfg = SweepConfig(Measure.of(ac, [MassPoint.of("t", "2*pi/3")]), 5, 0.5, 1.0, 20,
                      ZeroPolicy.fixed_xi(1j), theorem="t23", nodes=4096)
    calls = _record_evaluations(monkeypatch)
    entries = sweep_verdicts(cfg, sweep(cfg))
    assert all("verdict" in item for entry in entries for item in entry["verdicts"])
    on_grid = [
        exprs for exprs, bindings in calls
        if any(e is ac.weight for e in exprs) and np.size(bindings.get("theta")) >= cfg.nodes
    ]
    assert len(on_grid) == 20
