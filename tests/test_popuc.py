import cmath
import math

import numpy as np
import pytest

from popuc.measures import ACWeight, MassPoint, Measure, moments
from popuc.opuc import MonicPoly, gram_opuc, polyval
from popuc.paraorthogonal import (
    RootFindingError,
    ZeroSet,
    aberth_roots,
    build_popuc,
    deflate,
    fix_zero_param,
    zeros_on_circle,
)


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
    assert p.degree == 5
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
        q = fam[fam.max_degree]
        xi = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        b = fix_zero_param(q, xi)
        assert abs(abs(b) - 1.0) < 1e-14
        p = build_popuc(q, b)
        assert abs(p(xi)) < 1e-9 * float(np.max(np.abs(p.poly.coeffs)))


def test_fix_zero_lebesgue_example():
    # Q_4 = z^4 for pure Lebesgue; fixing xi = 1 gives b = 1, all 5th roots of unity
    m = Measure.of(ACWeight.lebesgue(1.0))
    fam = gram_opuc(moments(m, 0.0, 12), 4)
    b = fix_zero_param(fam[4], 1.0 + 0j)
    assert b == pytest.approx(1.0, abs=1e-14)
    zs = zeros_on_circle(build_popuc(fam[4], b), theta_ref=0.0)
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
        zs = zeros_on_circle(p, theta_ref=0.0)
        oracle = _bisection_zero_oracle(p)
        assert len(oracle) == degree
        assert np.max(np.abs(np.sort(zs.phases) - oracle)) < 1e-7


def test_zero_set_window_and_sorting():
    rng = np.random.default_rng(43)
    fam = _family(rng, 5)
    p = build_popuc(fam[4], 1j)
    ref = 0.7
    zs = zeros_on_circle(p, theta_ref=ref)
    assert np.all(zs.phases >= ref)
    assert np.all(zs.phases < ref + 2 * math.pi)
    assert np.all(np.diff(zs.phases) > 0)
    assert len(zs) == 5


def test_zero_just_below_window_start_is_the_zero_at_theta_ref():
    # z^8 - conj(b): a window starting a few ulps above a zero's computed
    # phase puts that zero first at theta_ref, not last at theta_ref + 2 pi
    p = build_popuc(MonicPoly(np.array([0, 0, 0, 0, 0, 0, 0, 1.0])), cmath.exp(0.4j))
    for raw in np.angle(aberth_roots(p.poly.coeffs)):
        for ulps in (1, 3, 64):
            ref = raw + ulps * np.spacing(abs(raw))
            zs = zeros_on_circle(p, theta_ref=ref)
            assert zs.phases[0] == ref
            assert np.all(np.diff(zs.phases) > 0.5)
            assert zs.phases[-1] < ref + 2 * math.pi
        # a zero further below the start than roundoff stays at the end of the window
        zs = zeros_on_circle(p, theta_ref=raw + 1e-9)
        assert zs.phases[-1] == pytest.approx(raw + 2 * math.pi, abs=1e-14)


def test_zero_set_helpers():
    zs = ZeroSet(
        phases=np.array([0.1, 1.0, 2.5]),
        residuals=np.zeros(3),
        pre_projection_deviation=0.0,
    )
    assert zs.nearest_index(1.05) == 1
    assert zs.nearest_index(0.1 + 2 * math.pi) == 0
    assert zs.min_gap == pytest.approx(0.9)


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


def _aberth_one_table_per_sweep(coeffs, start=None):
    """The zero finder with a fresh polyval table and matrix every sweep, and the
    nested np.where: the loop before its workspace, kept as a bitwise reference."""
    from popuc.paraorthogonal import MAX_SWEEPS, STEP_TOL

    coeffs = np.asarray(coeffs, dtype=complex)
    m = len(coeffs) - 1
    pair = np.stack([coeffs, np.append(coeffs[1:] * np.arange(1, m + 1), 0.0)])
    z = np.exp(1j * (2.0 * np.pi * (np.arange(m) + 0.5) / m)) if start is None else start
    for _ in range(MAX_SWEEPS):
        p, dp = polyval(pair, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), 0.0)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        denom = 1.0 - ratio * np.sum(1.0 / diff, axis=1)
        step = np.where(np.abs(denom) > 1e-300, ratio / denom, ratio)
        z = z - step
        if np.max(np.abs(step)) < STEP_TOL * max(1.0, np.max(np.abs(z))):
            break
    for _ in range(3):
        p, dp = polyval(pair, z)
        z = z - np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), 0.0)
    return z


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
    # P'(0) = 0 for z^3 - 1, so the guess at 0 takes a zero Newton ratio
    coeffs = np.array([-1.0, 0.0, 0.0, 1.0], dtype=complex)
    _assert_aberth_is_the_reference_bitwise(coeffs, np.array([0.0, 1j, -1.0 + 0.5j]))
