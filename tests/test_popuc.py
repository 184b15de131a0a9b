import cmath
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popuc import paraorthogonal
from popuc.measures import ACWeight, MassPoint, Measure, moments
from popuc.opuc import MonicPoly, gram_opuc, polyval, reversed_poly
from popuc.paraorthogonal import (
    PopucInstance,
    RootFindingError,
    ZeroSet,
    aberth_roots,
    build_popuc,
    fix_zero_param,
    zeros_on_circle,
)
from popuc.verify import _deflate as deflate


def _family(rng, degree):
    n_masses = int(rng.integers(degree, degree + 3))
    om = np.sort(rng.uniform(0, 2 * math.pi, n_masses)) + 0.01 * np.arange(n_masses)
    masses = [MassPoint.of(float(rng.uniform(0.1, 2.0)), float(o)) for o in om]
    lam = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    m = Measure.of(ACWeight.bernstein_szego(lam), masses)
    ms = moments(m, 0.0, 2 * degree + 2)
    return gram_opuc(ms, degree - 1)


def _bisection_zero_oracle(p, grid=8192):
    """All unit-circle zeros of a self-inversive polynomial by bisection.

    g(theta) = Re[v e^{-i m theta / 2} p(e^{i theta})] with v = e^{i arg(-b)/2}
    is real-valued on the circle; each simple zero of p is a sign change of g.
    """
    coeffs = p.poly.coeffs
    m = len(coeffs) - 1
    v = cmath.exp(0.5j * cmath.phase(-p.b))

    def g(theta):
        val = v * cmath.exp(-0.5j * m * theta) * polyval(coeffs, cmath.exp(1j * theta))
        assert abs(val.imag) < 1e-8 * (1 + abs(val))
        return val.real

    thetas = np.linspace(0.0, 2 * math.pi, grid + 1)
    vals = np.array([g(th) for th in thetas])
    roots = []
    for i in range(grid):
        a, b = thetas[i], thetas[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb > 0:
            continue
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = g(mid)
            if fa * fm <= 0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return np.sort(np.mod(roots, 2 * math.pi))


def test_build_popuc_structure():
    rng = np.random.default_rng(31)
    fam = _family(rng, 5)
    b = cmath.exp(1j * 1.2)
    p = build_popuc(fam[4], b)
    assert len(p.poly.coeffs) - 1 == 5
    # constant coefficient is -conj(b) times the leading one of Q*
    assert p.poly.coeffs[0] == pytest.approx(-np.conj(b), abs=1e-12)


def test_build_popuc_rejects_off_circle_b():
    rng = np.random.default_rng(33)
    fam = _family(rng, 4)
    with pytest.raises(ValueError):
        build_popuc(fam[3], 0.9 + 0j)


def test_fix_zero_param_pins_the_zero():
    rng = np.random.default_rng(37)
    for _ in range(20):
        fam = _family(rng, int(rng.integers(3, 7)))
        q = fam[len(fam.coeffs) - 1]
        xi = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        b = fix_zero_param(q, xi)
        assert abs(abs(b) - 1.0) < 1e-14
        p = build_popuc(q, b)
        assert abs(polyval(p.poly.coeffs, xi)) < 1e-9 * float(np.max(np.abs(p.poly.coeffs)))


def test_fix_zero_param_is_the_two_evaluation_formula():
    # b from Q_n(xi) alone against conj(xi) conj(Q_n(xi)) / conj(Q_n*(xi)), with
    # Q_n* evaluated apart.  Each Horner value errs by up to about 2n eps sum|c_k|
    # on the circle and b reads two, so the formulas differ by roundoff relative
    # to |Q_n(xi)|: over 4000 such draws by up to 20 ulps, 1.4 n eps sum|c_k| / |Q_n(xi)|
    rng = np.random.default_rng(41)
    for _ in range(40):
        fam = _family(rng, int(rng.integers(2, 9)))
        n = len(fam.coeffs) - 1
        q = fam[n]
        xi = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        q_xi, qs = (complex(np.polyval(c[::-1], xi)) for c in (q.coeffs, reversed_poly(q.coeffs)))
        two = xi.conjugate() * q_xi.conjugate() / qs.conjugate()
        b = fix_zero_param(q, xi)
        bound = 4 * n * np.finfo(float).eps * float(np.sum(np.abs(q.coeffs))) / abs(q_xi)
        assert abs(b - two / abs(two)) <= bound
        coeffs = build_popuc(q, b).poly.coeffs
        assert abs(complex(np.polyval(coeffs[::-1], xi))) <= 1e-12 * float(np.max(np.abs(coeffs)))


def test_fix_zero_lebesgue_example():
    # Q_4 = z^4 for pure Lebesgue; fixing xi = 1 gives b = 1, all 5th roots of unity
    m = Measure.of(ACWeight.lebesgue(1.0))
    fam = gram_opuc(moments(m, 0.0, 12), 4)
    b = fix_zero_param(fam[4], 1.0 + 0j)
    assert b == pytest.approx(1.0, abs=1e-14)
    zs = zeros_on_circle(build_popuc(fam[4], b), xi=1.0 + 0j)
    assert zs.fixed_index == 0 and zs.phases[0] == 0.0
    assert np.allclose(zs.phases, 2 * math.pi * np.arange(5) / 5, atol=1e-12)


def test_aberth_on_known_roots():
    # (z-1)(z-i)(z+1) = z^3 - i z^2 - z + i
    coeffs = np.array([1j, -1.0, -1j, 1.0], dtype=complex)
    roots = np.sort_complex(aberth_roots(coeffs))
    expected = np.sort_complex(np.array([1.0, -1.0, 1j]))
    assert np.max(np.abs(roots - expected)) < 1e-12


def _assert_aberth_finds_roots_of_unimodular_c(n, rotation=None):
    # z^n - c with |c| = 1: the n-th roots of c; every coefficient but two is zero
    c = cmath.exp(1j * (0.3 + n))
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0], coeffs[n] = -c, 1.0
    expected = np.exp(1j * (cmath.phase(c) + 2 * math.pi * np.arange(n)) / n)
    start = None if rotation is None else expected * cmath.exp(1j * rotation)
    roots = aberth_roots(coeffs, start=start)
    dist = np.abs(roots[:, None] - expected[None, :])
    assert np.max(np.min(dist, axis=0)) <= 1e-13
    assert len(set(np.argmin(dist, axis=1).tolist())) == n


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 50, 99, 119, 120])
def test_aberth_recovers_roots_of_unimodular_c(n):
    _assert_aberth_finds_roots_of_unimodular_c(n)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 50, 99, 119, 120])
def test_aberth_recovers_roots_of_unimodular_c_from_a_rotated_start(n):
    # the exact roots turned by a third of a slot: a warm start far from converged
    _assert_aberth_finds_roots_of_unimodular_c(n, rotation=2 * math.pi / (3 * n))


@pytest.mark.parametrize(
    "start", [np.ones(2), np.ones(4), np.array([1.0, np.nan, -1.0]), np.array([1.0, 1j, np.inf])]
)
def test_aberth_start_must_hold_one_finite_guess_per_root(start):
    coeffs = np.array([1j, -1.0, -1j, 1.0], dtype=complex)
    with pytest.raises(ValueError, match="3 finite initial guesses"):
        aberth_roots(coeffs, start=start)


def test_zeros_match_bisection_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        degree = int(rng.integers(3, 8))
        fam = _family(rng, degree)
        b = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        p = build_popuc(fam[degree - 1], b)
        zs = zeros_on_circle(p)
        oracle = _bisection_zero_oracle(p)
        assert len(oracle) == degree
        # the oracle's phases lie in [0, 2 pi), the zero set's in [-pi, pi): compare mod 2 pi
        assert np.max(np.abs(np.angle(np.exp(1j * (np.sort(np.mod(zs.phases, 2 * math.pi)) - oracle))))) < 1e-7


def test_zero_set_window_and_sorting():
    # phases ascend in [-pi, pi), or from the pinned zero at xi, which comes first
    rng = np.random.default_rng(43)
    fam = _family(rng, 5)
    xi = cmath.exp(0.7j)
    for p, pin, ref in ((build_popuc(fam[4], 1j), None, -math.pi),
                        (build_popuc(fam[4], fix_zero_param(fam[4], xi)), xi, cmath.phase(xi))):
        zs = zeros_on_circle(p, pin)
        assert np.all(zs.phases >= ref)
        assert np.all(zs.phases < ref + 2 * math.pi)
        assert np.all(np.diff(zs.phases) > 0)
        assert len(zs) == 5
        assert zs.fixed_index == (None if pin is None else 0)


def test_each_zero_passed_as_xi_comes_back_first_as_xi_itself():
    # z^8 - conj(b): each root, exact or a few ulps above or below the one the
    # zero finder computes, passed as xi is that zero, first at phase arg xi
    # to the bit, never last at arg xi + 2 pi
    p = build_popuc(MonicPoly(np.array([0, 0, 0, 0, 0, 0, 0, 1.0])), cmath.exp(0.4j))
    for k in range(8):
        root = cmath.exp(1j * (-0.4 + 2 * math.pi * k) / 8)
        for ulps in (0, 1, -1, 3, -3, 64, -64):
            xi = root * cmath.exp(1j * ulps * np.spacing(1.0))
            zs = zeros_on_circle(p, xi)
            assert zs.fixed_index == 0 and zs.phases[0] == cmath.phase(xi)
            assert np.all(np.diff(zs.phases) > 0.5)
            assert zs.phases[-1] < cmath.phase(xi) + 2 * math.pi


def test_zero_set_helpers():
    zs = ZeroSet(
        phases=np.array([0.1, 1.0, 2.5]),
        residuals=np.zeros(3),
        pre_projection_deviation=0.0,
    )
    assert zs.nearest_index(1.05) == 1
    assert zs.nearest_index(0.1 + 2 * math.pi) == 0
    assert zs.min_gap == pytest.approx(0.9)


def _min_gap_by_diff(phases):
    """ZeroSet.min_gap before its ring buffer, kept as a bitwise reference."""
    return float(np.min(np.diff(np.concatenate([phases, [phases[0] + 2.0 * math.pi]]))))


def _nearest_index_by_angle(phases, phase):
    """ZeroSet.nearest_index before np.arctan2 took np.angle's place, kept as a bitwise reference."""
    return int(np.argmin(np.abs(np.angle(np.exp(1j * (phases - phase))))))


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    st.floats(-math.pi, math.pi),
    st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True), min_size=1, max_size=40),
    st.floats(-10.0, 10.0),
)
def test_zero_set_helpers_are_their_diff_and_angle_forms_bitwise(start, offsets, phase):
    phases = start + np.sort(offsets)  # ascending within one window, ties allowed
    zs = ZeroSet(phases, np.zeros(len(phases)), 0.0)
    assert zs.min_gap == _min_gap_by_diff(phases)
    assert zs.nearest_index(phase) == _nearest_index_by_angle(phases, phase)
    assert zs.zeros.tobytes() == np.exp(1j * phases).tobytes()


def test_non_popuc_input_raises():
    # (z - 1/2)(z - 3) has roots off the circle
    p_coeffs = np.array([1.5, -3.5, 1.0], dtype=complex)
    from popuc.paraorthogonal import PopucInstance

    inst = PopucInstance(MonicPoly(p_coeffs), 1.0 + 0j)
    with pytest.raises(RootFindingError):
        zeros_on_circle(inst)


def test_nan_fails_every_guard():
    from popuc.paraorthogonal import PopucInstance

    q = MonicPoly(np.array([0.3, 1.0], dtype=complex))
    nan = complex(math.nan, 0.0)
    with pytest.raises(ValueError):
        build_popuc(q, nan)
    with pytest.raises(ValueError):
        fix_zero_param(q, nan)
    with pytest.raises(ValueError):
        MonicPoly(np.array([0.5, math.nan], dtype=complex))
    inst = PopucInstance(MonicPoly(np.array([math.nan, 0.0, 1.0], dtype=complex)), 1.0 + 0j)
    with np.errstate(invalid="ignore"), pytest.raises(RootFindingError):
        zeros_on_circle(inst)


def test_deflate():
    rng = np.random.default_rng(47)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    roots = np.roots(coeffs[::-1])
    out = deflate(coeffs, roots[0])
    z = 0.3 + 0.8j
    expected = polyval(coeffs, z) / (z - roots[0])
    assert polyval(out, z) == pytest.approx(expected, abs=1e-9)


def test_self_inversive():
    rng = np.random.default_rng(53)
    fam = _family(rng, 5)
    b = cmath.exp(1j * 2.0)
    p = build_popuc(fam[4], b)
    from popuc.opuc import reversed_poly

    assert np.max(np.abs(reversed_poly(p.poly.coeffs) + b * p.poly.coeffs)) < 1e-10


def _aberth_one_table_per_sweep(coeffs, start=None, rate_exit=True):
    """The zero finder with a fresh polyval table and matrix every sweep, and the
    nested np.where: the loop before its workspace, kept as a bitwise reference.
    It has no residual check at MAX_SWEEPS; with ``rate_exit=False`` it stops
    by the STEP_TOL rule alone."""
    from popuc.paraorthogonal import EPS, STEP_TOL

    coeffs = np.asarray(coeffs, dtype=complex)
    m = len(coeffs) - 1
    pair = np.stack([coeffs, np.append(coeffs[1:] * np.arange(1, m + 1), 0.0)])
    z = np.exp(1j * (2.0 * np.pi * (np.arange(m) + 0.25) / m)) if start is None else start
    last = math.inf
    for sweep in range(1, paraorthogonal.MAX_SWEEPS + 1):
        p, dp = polyval(pair, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), 0.0)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        denom = 1.0 - ratio * np.sum(1.0 / diff, axis=1)
        step = np.where(np.abs(denom) > 1e-300, ratio / denom, ratio)
        z = z - step
        largest, scale = np.max(np.abs(step)), max(1.0, np.max(np.abs(z)))
        if largest < STEP_TOL * scale:
            break
        if rate_exit and sweep > 1 and largest**3 < EPS * scale * last**2:
            break
        last = largest
    return z


def _aberth_before_the_pair_buffer(coeffs, start=None):
    """The zero finder before its (P, P') pair joined the workspace, with np.stack,
    np.append, np.sum, np.where and np.max, and fresh buffers in place of the
    workspace: kept as a bitwise reference.  It has no residual check at
    MAX_SWEEPS and no stall check, which only raise."""
    from popuc.paraorthogonal import EPS, MAX_SWEEPS, STEP_TOL

    coeffs = np.asarray(coeffs, dtype=complex)
    m = len(coeffs) - 1
    pair = np.stack([coeffs, np.append(coeffs[1:] * np.arange(1, m + 1), 0.0)])
    z = np.exp(1j * (2.0 * np.pi * (np.arange(m) + 0.25) / m)) if start is None else start
    table, recip = np.empty((m + 1, m), dtype=complex), np.empty((m, m), dtype=complex)
    last = math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep in range(1, MAX_SWEEPS + 1):
            p, dp = pair @ paraorthogonal.power_table(table, z)
            ratio = p / dp
            stalled = dp == 0
            ratio[stalled] = 0.0
            np.subtract(z[:, None], z[None, :], out=recip)
            recip.reshape(-1)[:: m + 1] = np.inf
            repulsion = np.sum(np.divide(1.0, recip, out=recip), axis=1)
            denom = 1.0 - ratio * repulsion
            step = np.where(np.abs(denom) > 1e-300, ratio / denom, ratio)
            z = z - step
            largest, scale = np.max(np.abs(step)), max(1.0, np.max(np.abs(z)))
            if largest < STEP_TOL * scale or (sweep > 1 and largest**3 < EPS * scale * last**2):
                break
            last = largest
    return z


@pytest.mark.parametrize("degree", range(2, 41))
def test_aberth_is_the_loop_before_the_pair_buffer_bitwise(degree):
    rng = np.random.default_rng(4000 + degree)
    q = _admissible_opuc(rng, degree)
    for arg in rng.uniform(0, 2 * math.pi, 2):
        coeffs = build_popuc(q, cmath.exp(1j * arg)).poly.coeffs
        near = build_popuc(q, cmath.exp(1j * (arg + 1e-3))).poly.coeffs
        # cold from the quarter-slot and the sign-change guesses, then warm
        for start in (None, paraorthogonal._circle_guesses(coeffs), aberth_roots(near)):
            assert aberth_roots(coeffs, start).tobytes() == _aberth_before_the_pair_buffer(coeffs, start).tobytes()


def _assert_aberth_is_the_reference_bitwise(coeffs, start=None):
    assert aberth_roots(coeffs, start).tobytes() == _aberth_one_table_per_sweep(coeffs, start).tobytes()


@pytest.mark.parametrize("degree", [2, 3, 5, 8, 13, 40, 120])
def test_aberth_is_the_one_table_per_sweep_loop_bitwise(degree):
    rng = np.random.default_rng(degree)
    q = _family(rng, degree)[degree - 1]
    for arg in rng.uniform(0, 2 * math.pi, 3):
        coeffs = build_popuc(q, cmath.exp(1j * arg)).poly.coeffs
        _assert_aberth_is_the_reference_bitwise(coeffs)  # cold
        near = build_popuc(q, cmath.exp(1j * (arg + 1e-3))).poly.coeffs
        _assert_aberth_is_the_reference_bitwise(coeffs, aberth_roots(near))  # warm


@pytest.mark.parametrize("degree", [4, 5, 9, 120])
def test_aberth_is_the_reference_bitwise_on_real_popucs(degree):
    # a measure symmetric under theta -> -theta with b = +-1, as under t22:
    # real coefficients up to roundoff, made exactly real; zeros in conjugate pairs
    om = np.linspace(0.4, 2.9, (degree + 1) // 2)
    masses = [MassPoint.of(0.3 + 0.1 * k, float(o)) for k, o in enumerate(om)]
    masses += [MassPoint.of(0.3 + 0.1 * k, float(-o)) for k, o in enumerate(om)]
    m = Measure.of(ACWeight.bernstein_szego(0.25), masses)
    q = gram_opuc(moments(m, 0.0, degree + 1), degree - 1)[degree - 1]
    for b in (1.0, -1.0):
        coeffs = build_popuc(q, b).poly.coeffs.real + 0j
        _assert_aberth_is_the_reference_bitwise(coeffs)
        _assert_aberth_is_the_reference_bitwise(coeffs, aberth_roots(coeffs) * cmath.exp(2e-3j))


def test_aberth_is_the_reference_bitwise_where_p_prime_vanishes():
    # P'(0) = P(0) = 0 for z^2 (z - 1), so the guess at 0, a root, takes a zero Newton ratio
    coeffs = np.array([0.0, 0.0, -1.0, 1.0], dtype=complex)
    _assert_aberth_is_the_reference_bitwise(coeffs, np.array([0.0, 1j, -1.0 + 0.5j]))


def test_aberth_raises_where_an_iterate_stalls_off_the_roots():
    # P'(0) = 0 but P(0) = -1 for z^3 - 1: the guess at 0 takes a zero step for
    # ever, and the loop without the check returns 0 as a root
    coeffs = np.array([-1.0, 0.0, 0.0, 1.0], dtype=complex)
    start = np.array([0.0, 1j, -1.0 + 0.5j])
    assert _aberth_one_table_per_sweep(coeffs, start)[0] == 0
    with pytest.raises(RootFindingError, match="stalled"):
        aberth_roots(coeffs, start)


def _count_sweeps(monkeypatch) -> list:
    """A list that gains one item per Aberth sweep (one power_table fill)."""
    sweeps = []
    power_table = paraorthogonal.power_table
    monkeypatch.setattr(
        paraorthogonal, "power_table", lambda table, z: sweeps.append(1) or power_table(table, z)
    )
    return sweeps


def test_aberth_takes_few_cold_sweeps_on_real_popucs(monkeypatch):
    # the real POPUCs of the bitwise test above, each solved cold.  Guesses
    # symmetric under conjugation (half a slot round) took 104 sweeps over the
    # eight solves, 35 of them at degree 4 with b = 1; the quarter-slot
    # guesses take 70
    sweeps = _count_sweeps(monkeypatch)
    for degree in (4, 5, 9, 120):
        om = np.linspace(0.4, 2.9, (degree + 1) // 2)
        masses = [MassPoint.of(0.3 + 0.1 * k, float(o)) for k, o in enumerate(om)]
        masses += [MassPoint.of(0.3 + 0.1 * k, float(-o)) for k, o in enumerate(om)]
        q = gram_opuc(moments(Measure.of(ACWeight.bernstein_szego(0.25), masses), 0.0, degree + 1), degree - 1)
        for b in (1.0, -1.0):
            aberth_roots(build_popuc(q[degree - 1], b).poly.coeffs.real + 0j)
    assert len(sweeps) <= 80


def _balance_seed_50_popuc():
    """The benchmark's balance seed 50, job t21[5], solved at t = 0.05 + 1e-5 (its
    t + h solve): six moving masses, degree 5, a zero pinned at xi by the b that
    the two-evaluation formula conj(xi) conj(Q_n(xi)) / conj(Q_n*(xi)) gave, which
    is 4.7e-16 from fix_zero_param's b."""
    masses = [
        MassPoint.of("0.490591 + 0.083179*t", "0.302592 - 0.007137*t"),
        MassPoint.of("0.908326 - 0.160391*t", "1.058325 - 0.049778*t"),
        MassPoint.of("0.347877 - 0.141415*t", "1.272358 - 0.040368*t"),
        MassPoint.of("0.71514 + 0.009848*t", "1.905284 + 0.063758*t"),
        MassPoint.of("0.316107 - 0.19388*t", "2.159184 + 0.019064*t"),
        MassPoint.of("0.697089 + 0.101116*t", "2.42541 - 0.007823*t"),
    ]
    xi = complex(0.22965421874083228, 0.9732722845198758)
    q = gram_opuc(moments(Measure.of(ACWeight.none(), masses), 0.05 + 1e-5, 4), 4)[4]
    return build_popuc(q, 0.6946801372701313 - 0.7193187797370173j), xi


def test_aberth_returns_the_iterate_the_residual_rule_accepts_at_the_roundoff_floor(monkeypatch):
    # from the quarter-slot guesses the largest step of this solve drops from
    # 8.7e-4 to 1.2e-9 at the sixth sweep, and the rate exit stops it there;
    # before that exit it wandered at 1-6e-14
    p, _ = _balance_seed_50_popuc()
    coeffs = p.poly.coeffs
    sweeps = _count_sweeps(monkeypatch)
    converged = aberth_roots(coeffs)
    assert len(sweeps) == 6
    # the converged roots turned by 4e-14 rad: the largest step wanders at the
    # roundoff floor, above STEP_TOL and without a sharp drop, so the sweeps run
    # on to MAX_SWEEPS, and the iterate there, accepted by its residual, is
    # returned as it is, within roundoff of the converged roots.  Which turns
    # wander depends on the last bits of the table of powers, so a new fill
    # order can need a new turn here
    start = converged * cmath.exp(4e-14j)
    sweeps.clear()
    roots = aberth_roots(coeffs, start)
    assert len(sweeps) == paraorthogonal.MAX_SWEEPS
    assert np.max(np.abs(polyval(coeffs, roots))) <= 1e-8 * np.max(np.abs(coeffs))
    assert roots.tobytes() == _aberth_one_table_per_sweep(coeffs, start).tobytes()
    assert np.max(np.min(np.abs(roots[:, None] - converged[None, :]), axis=1)) <= 1e-13


def test_the_seed_50_solve_converges_from_the_sign_changes(monkeypatch):
    p, xi = _balance_seed_50_popuc()
    sweeps = _count_sweeps(monkeypatch)
    zs = zeros_on_circle(p, xi)
    assert len(sweeps) <= 5
    assert len(zs) == 5 and zs.phases[0] == cmath.phase(xi)


def _t22_popuc(rng, b):
    """A degree-4 POPUC of the benchmark's t22 shape, two mass pairs at +-omega,
    with b = +-1: real coefficients, made exactly real.  With b = 1 it vanishes
    at 1 and -1."""
    om = (rng.uniform(0.6, 1.4), rng.uniform(1.8, 2.6))
    gammas = rng.uniform(0.3, 1.0, 2)
    masses = [MassPoint.of(float(g), float(s * o)) for g, o in zip(gammas, om) for s in (1, -1)]
    q = gram_opuc(moments(Measure.of(ACWeight.none(), masses), 0.0, 4), 3)[3]
    return build_popuc(q, b).poly.coeffs.real + 0j


def _assert_one_guess_near_each_zero(coeffs, zs):
    guesses = paraorthogonal._circle_guesses(coeffs)
    assert guesses is not None and len(guesses) == len(zs)
    dist = np.abs(np.angle(guesses[:, None] / zs.zeros[None, :]))
    assert np.all(np.min(dist, axis=1) < zs.min_gap / 2)
    assert len(set(np.argmin(dist, axis=1).tolist())) == len(zs)


def test_real_popucs_vanishing_at_plus_and_minus_one_get_a_guess_per_zero():
    # a node at theta = 0 (or pi) would sit on a zero of every such POPUC; a
    # grid with one, counting a change only where r_j r_{j+1} < 0, missed 484
    # of 1200 t22 solves
    rng = np.random.default_rng(22)
    for _ in range(100):
        for b in (1.0, -1.0):
            coeffs = _t22_popuc(rng, b)
            zs = zeros_on_circle(PopucInstance(MonicPoly(coeffs), complex(b)))
            if b == 1.0:
                assert np.min(np.abs(zs.zeros - 1.0)) <= 1e-14 and np.min(np.abs(zs.zeros + 1.0)) <= 1e-14
            _assert_one_guess_near_each_zero(coeffs, zs)



def _admissible_opuc(rng, degree):
    """Q_{degree-1} of 1-6 masses, some as close as 1e-3, with a Lebesgue or
    Bernstein-Szego part, so that every degree is carried."""
    n_masses = int(rng.integers(1, 7))
    om = rng.uniform(0, 2 * math.pi) + np.cumsum(rng.uniform(1e-3, 6.0 / n_masses, n_masses))
    masses = [MassPoint.of(float(rng.uniform(0.05, 2.0)), float(o)) for o in om]
    if rng.uniform() < 0.5:
        ac = ACWeight.lebesgue(float(rng.uniform(0.1, 2.0)))
    else:
        ac = ACWeight.bernstein_szego(complex(*rng.uniform(-0.6, 0.6, 2)), float(rng.uniform(0.1, 2.0)))
    return gram_opuc(moments(Measure.of(ac, masses), 0.0, degree), degree - 1)[degree - 1]


def _phase_distance(roots, reference):
    """The largest phase distance from a root to its nearest reference root."""
    d = np.remainder(np.angle(roots)[:, None] - np.angle(reference)[None, :] + math.pi, 2 * math.pi)
    return float(np.max(np.min(np.abs(d - math.pi), axis=1)))


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6, 8, 12, 16, 24, 40, 80, 120])
def test_aberth_zeros_stay_within_roundoff_of_the_step_tol_loop(degree):
    # the rate exit ends most solves a sweep before the STEP_TOL rule would.
    # Cold (from the sign-change guesses) and warm (from the zeros at a b
    # up to 1e-2 rad away), the zeros stay within 2e-15 rad of the loop run
    # with the STEP_TOL rule alone.  The bound was fixed before the rate exit,
    # at about twice the worst of 3000 prototype draws (8.9e-16); 125 draws a
    # degree of this generator read 0 without the rate exit and 4.4e-16 with it
    rng = np.random.default_rng(degree)
    for _ in range(40):
        q = _admissible_opuc(rng, degree)
        arg = rng.uniform(0, 2 * math.pi)
        coeffs = build_popuc(q, cmath.exp(1j * arg)).poly.coeffs
        near = build_popuc(q, cmath.exp(1j * (arg + rng.uniform(-1e-2, 1e-2)))).poly.coeffs
        for start in (paraorthogonal._circle_guesses(coeffs), aberth_roots(near, paraorthogonal._circle_guesses(near))):
            reference = _aberth_one_table_per_sweep(coeffs, start, rate_exit=False)
            assert _phase_distance(aberth_roots(coeffs, start), reference) <= 2e-15


def _popuc_of_degree(degree):
    return build_popuc(_admissible_opuc(np.random.default_rng(degree), degree), cmath.exp(0.7j))


def _same_zero_set(a, b):
    return a.phases.tobytes() == b.phases.tobytes() and a.residuals.tobytes() == b.residuals.tobytes()


def test_the_workspace_keeps_every_bit_across_degrees():
    # the pair, the power table and the reciprocals are views of one thread's buffers,
    # kept at the largest degree solved.  A fresh thread starts with none: its first
    # solve grows them to degree 120, the degree-5 solve takes views of them and must
    # match a degree-5 solve on buffers of its own size, and neither it nor a larger
    # solve leaves a trace on the later degree-120 solves; cold, and warm from the
    # zeros at a b 1e-3 rad away
    qs = {degree: _admissible_opuc(np.random.default_rng(degree), degree) for degree in (5, 120, 200)}
    popucs = {degree: build_popuc(q, cmath.exp(0.7j)) for degree, q in qs.items()}
    warm = {degree: zeros_on_circle(build_popuc(q, cmath.exp(0.701j))).zeros for degree, q in qs.items()}

    def in_a_fresh_thread(starts, *degrees):
        with ThreadPoolExecutor(max_workers=1) as pool:
            solves = [pool.submit(zeros_on_circle, popucs[d], None, starts[d]) for d in degrees]
            return [(zs.phases.tobytes(), zs.residuals.tobytes()) for zs in (f.result() for f in solves)]

    for starts in (dict.fromkeys(qs), warm):
        first, small, again, _, last = in_a_fresh_thread(starts, 120, 5, 120, 200, 120)
        assert again == first and last == first
        assert in_a_fresh_thread(starts, 5) == [small]


def test_two_threads_solve_at_once_as_each_does_alone():
    # with one buffer shared by both threads, 20 solves each failed in 25 of 30 runs
    # (a wrong zero set or a RootFindingError), and 80 solves each in 30 of 30
    popucs = [_popuc_of_degree(120), _popuc_of_degree(40)]
    alone = [zeros_on_circle(p) for p in popucs]
    start = threading.Barrier(2)

    def solve(p):
        start.wait()
        return [zeros_on_circle(p) for _ in range(80)]

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(solve, popucs))
    for zero_sets, expected in zip(results, alone):
        assert all(_same_zero_set(zs, expected) for zs in zero_sets)
