import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popuc.dynamics import ZeroPolicy, solve_at
from popuc.expressions import BinOp, Const, Neg
from popuc.measures import ACWeight, MassPoint, Measure, circular_gap, moments
from popuc.opuc import (
    DegenerateMeasureError,
    MonicPoly,
    gram_opuc,
    inner_product,
    polyval,
    reversed_poly,
    szego_step,
)
from popuc.paraorthogonal import build_popuc, zeros_on_circle


def _random_measure(rng):
    n_masses = int(rng.integers(2, 6))
    om = np.sort(rng.uniform(0, 2 * math.pi, n_masses))
    om += 0.01 * np.arange(n_masses)
    masses = [MassPoint.of(float(rng.uniform(0.1, 2.0)), float(o)) for o in om]
    lam = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    return Measure.of(ACWeight.bernstein_szego(lam), masses)


def _gram_schmidt_oracle(ms, n):
    """Monic orthogonal polynomials by modified Gram-Schmidt on {1, z, ..., z^n}."""
    basis = []
    for m in range(n + 1):
        e = np.zeros(m + 1, dtype=complex)
        e[m] = 1.0
        q = e
        for p in basis:
            padded = np.zeros(m + 1, dtype=complex)
            padded[: len(p)] = p
            coef = inner_product(q, p, ms) / inner_product(p, p, ms)
            q = q - coef * padded
        basis.append(q)
    return basis


def test_monic_poly_validates_leading_coefficient():
    with pytest.raises(ValueError):
        MonicPoly(np.array([1.0, 2.0], dtype=complex))
    p = MonicPoly(np.array([0.5, 1.0], dtype=complex))
    assert p.degree == 1
    assert p(2.0) == pytest.approx(2.5)


def test_polyval_horner():
    coeffs = np.array([1.0, -2.0, 3.0], dtype=complex)
    z = 1.5 + 0.5j
    assert polyval(coeffs, z) == pytest.approx(1 - 2 * z + 3 * z * z)
    zz = np.array([1.0, 1j])
    assert np.allclose(polyval(coeffs, zz), 1 - 2 * zz + 3 * zz * zz)


def _horner(coeffs, z):
    result = 0j
    for c in coeffs[::-1]:
        result = result * z + c
    return result


@settings(deadline=None)
@given(
    st.integers(0, 130),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.95, 1.05),
)
def test_polyval_matches_horner(degree, seed, arg, radius):
    # both roundoff errors are below 2 (degree + 1) eps sum |c_k| |z|^k
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    z = radius * cmath.exp(1j * arg)
    bound = 4 * (degree + 1) * np.finfo(float).eps * _horner(np.abs(coeffs), abs(z)).real
    assert abs(polyval(coeffs, z) - _horner(coeffs, z)) <= bound


def test_polyval_shapes():
    coeffs = np.array([1.0, -2.0, 3.0, 0.5j])
    for z in (0.3 + 0.8j, 2.0, 1, np.complex128(1j), np.array(0.5 - 0.5j)):
        value = polyval(coeffs, z)
        assert type(value) is complex
        assert value == pytest.approx(_horner(coeffs, complex(z)), abs=1e-14)
    zz = np.exp(1j * np.linspace(0, 6, 24)).reshape(2, 3, 4)
    values = polyval(coeffs, zz)
    assert values.shape == zz.shape
    assert np.allclose(values, np.vectorize(lambda z: _horner(coeffs, z))(zz), atol=1e-14)
    # each row of a coefficient stack is evaluated on its own
    stack = polyval(np.stack([coeffs, 2 * coeffs]), zz)
    assert stack.shape == (2,) + zz.shape
    assert np.array_equal(stack[0], values)
    assert polyval([], zz).shape == zz.shape


def test_reversed_poly_on_circle():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    z = np.exp(1j * 0.7)
    lhs = polyval(reversed_poly(coeffs), z)
    rhs = z**4 * np.conj(polyval(coeffs, z))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_inner_product_matches_direct_sum():
    m = Measure.of(ACWeight.none(), [MassPoint.of(0.7, 0.5), MassPoint.of(1.2, 2.5)])
    ms = moments(m, 0.0, 4)
    rng = np.random.default_rng(5)
    p = rng.normal(size=3) + 1j * rng.normal(size=3)
    q = rng.normal(size=4) + 1j * rng.normal(size=4)
    gam, om = m.mass_values(0.0)
    zm = np.exp(1j * om)
    direct = np.sum(gam * polyval(p, zm) * np.conj(polyval(q, zm)))
    assert inner_product(p, q, ms) == pytest.approx(direct, abs=1e-12)


def test_gram_opuc_matches_gram_schmidt():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = _random_measure(rng)
        n = 4
        ms = moments(m, 0.0, 2 * n + 2)
        fam = gram_opuc(ms, n)
        oracle = _gram_schmidt_oracle(ms, n)
        for k in range(n + 1):
            assert np.max(np.abs(fam[k].coeffs - oracle[k])) < 1e-9


def test_orthogonality():
    rng = np.random.default_rng(13)
    m = _random_measure(rng)
    n = 5
    ms = moments(m, 0.0, 2 * n + 2)
    fam = gram_opuc(ms, n)
    for j in range(n + 1):
        for k in range(j):
            ip = inner_product(fam[j].coeffs, fam[k].coeffs, ms)
            assert abs(ip) < 1e-10 * ms[0].real
        norm = inner_product(fam[j].coeffs, fam[j].coeffs, ms)
        assert norm.real == pytest.approx(fam.norms[j], rel=1e-9)
        assert norm.real > 0


def test_szego_recurrence():
    # Q_{k+1}(z) = z Q_k(z) - conj(alpha_k) Q_k*(z)
    rng = np.random.default_rng(17)
    m = _random_measure(rng)
    n = 5
    fam = gram_opuc(moments(m, 0.0, 2 * n + 2), n)
    for k in range(n):
        lhs = fam[k + 1].coeffs
        rhs = np.zeros(k + 2, dtype=complex)
        rhs[1:] = fam[k].coeffs
        rhs[: k + 1] -= np.conj(fam.alphas[k]) * reversed_poly(fam[k].coeffs)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_verblunsky_inside_disc():
    rng = np.random.default_rng(21)
    m = _random_measure(rng)
    fam = gram_opuc(moments(m, 0.0, 12), 5)
    assert np.all(np.abs(fam.alphas) < 1.0)


def test_bernstein_szego_has_explicit_opuc():
    # pure BS weight: Q_n(z) = z^{n-1} (z - conj(lambda)) for n >= 1
    lam = 0.3 - 0.4j
    m = Measure.of(ACWeight.bernstein_szego(lam))
    fam = gram_opuc(moments(m, 0.0, 10), 4)
    for n in range(1, 5):
        expected = np.zeros(n + 1, dtype=complex)
        expected[n] = 1.0
        expected[n - 1] = -np.conj(lam)
        assert np.max(np.abs(fam[n].coeffs - expected)) < 1e-13


def test_finite_support_degenerates():
    # N masses support Q_0..Q_{N-1}; at degree N the squared norm collapses
    # (the monic polynomial vanishing at all N points), so it must fail loudly
    N = 3
    om = [0.5, 2.0, 4.0]
    m = Measure.of(ACWeight.none(), [MassPoint.of(1.0, o) for o in om])
    ms = moments(m, 0.0, 2 * N + 4)
    fam = gram_opuc(ms, N - 1)
    assert fam.max_degree == N - 1
    with pytest.raises(DegenerateMeasureError):
        gram_opuc(ms, N)


def test_thirty_masses_support_degree_thirty_popuc():
    # 30 distinct masses support Q_0..Q_29, so the degree-30 POPUC exists even
    # though the 28x28 moment matrix has a smallest eigenvalue near 1e-11
    rng = np.random.default_rng(8)
    om = np.sort(rng.uniform(0, 2 * math.pi, 30))
    masses = [MassPoint.of(float(rng.uniform(0.05, 2.0)), float(o)) for o in om]
    state = solve_at(Measure.of(ACWeight.none(), masses), 30, ZeroPolicy.fixed_b(1), 0.0)
    zs = state.zero_set
    scale = float(np.max(np.abs(state.popuc.poly.coeffs)))
    assert len(zs) == 30
    assert zs.pre_projection_deviation <= 1e-9
    assert float(np.max(zs.residuals)) / scale <= 1e-9
    assert zs.min_gap > 1e-6


@st.composite
def admissible_measures(draw):
    """(measure, n): 1-8 masses at least 0.28 apart, an optional Lebesgue or
    Bernstein-Szego part, and a degree n the support carries."""
    n_masses = draw(st.integers(1, 8))
    start = draw(st.floats(0.0, 2 * math.pi))
    gaps = draw(st.lists(st.floats(0.3, 0.75), min_size=n_masses, max_size=n_masses))
    gammas = draw(st.lists(st.floats(0.05, 2.0), min_size=n_masses, max_size=n_masses))
    om = start + np.cumsum(gaps)
    masses = [MassPoint.of(g, float(o)) for g, o in zip(gammas, om)]
    kind = draw(st.sampled_from(["none", "lebesgue", "bernstein_szego"]))
    if kind == "lebesgue":
        ac = ACWeight.lebesgue(draw(st.floats(0.1, 2.0)))
    elif kind == "bernstein_szego":
        lam = complex(draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.6, 0.6)))
        ac = ACWeight.bernstein_szego(lam, draw(st.floats(0.1, 2.0)))
    else:
        ac = ACWeight.none()
    # N masses alone support Q_0..Q_{N-1}
    n = draw(st.integers(0, n_masses - 1 if kind == "none" else 10))
    return Measure.of(ac, masses), n


@settings(deadline=None)
@given(admissible_measures())
def test_recursion_alphas_inside_disc_and_norms_match(case):
    m, n = case
    ms = moments(m, 0.0, n + 1)
    fam = gram_opuc(ms, n)
    assert np.all(np.abs(fam.alphas) < 1.0)
    for k in range(n + 1):
        norm = inner_product(fam[k].coeffs, fam[k].coeffs, ms)
        assert abs(norm - fam.norms[k]) <= 1e-10 * ms[0].real


@settings(deadline=None)
@given(
    admissible_measures(),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.1, 2 * math.pi - 0.1),
)
def test_popuc_zeros_for_two_b_strictly_interlace(case, arg_b, delta):
    # Golinskii (2002): zeros of z Q_n - conj(b) Q_n* for distinct unimodular b
    # interlace on the circle
    m, n = case
    q = gram_opuc(moments(m, 0.0, n + 1), n)[n]
    phases = [
        np.mod(zeros_on_circle(build_popuc(q, np.exp(1j * a))).phases, 2 * math.pi)
        for a in (arg_b, arg_b + delta)
    ]
    merged = np.concatenate(phases)
    labels = np.repeat([0, 1], n + 1)[np.argsort(merged)]
    assert np.all(labels[1:] != labels[:-1])
    assert np.all(np.diff(np.sort(merged)) > 0)


def _popuc_zeros(m, n, b):
    p = build_popuc(gram_opuc(moments(m, 0.0, n + 1), n)[n], b)
    return p, zeros_on_circle(p)


@settings(deadline=None)
@given(admissible_measures(), st.floats(0.0, 2 * math.pi))
def test_popuc_is_self_reversed_up_to_minus_b(case, arg_b):
    # P = z Q_n - conj(b) Q_n* has P* = Q_n* - b z Q_n = -b P
    m, n = case
    b = np.exp(1j * arg_b)
    p, _ = _popuc_zeros(m, n, b)
    coeffs = p.poly.coeffs
    assert np.linalg.norm(reversed_poly(coeffs) + b * coeffs) <= 1e-12 * np.linalg.norm(coeffs)


@settings(deadline=None)
@given(admissible_measures(), st.floats(0.0, 2 * math.pi))
def test_popuc_zeros_are_unimodular_and_simple(case, arg_b):
    m, n = case
    _, zs = _popuc_zeros(m, n, np.exp(1j * arg_b))
    assert len(zs) == n + 1
    assert zs.min_gap > 0
    assert zs.pre_projection_deviation <= 1e-9


@settings(deadline=None)
@given(admissible_measures(), st.floats(0.0, 2 * math.pi))
def test_conjugate_measure_and_b_conjugate_the_zeros(case, arg_b):
    # mu(-theta) has masses at -omega_j and, for Bernstein-Szego, conj(lambda)
    m, n = case
    mirrored = Measure.of(
        replace(m.ac, lam=np.conj(m.ac.lam)),
        [MassPoint(mp.gamma, Neg(mp.omega)) for mp in m.masses],
    )
    b = np.exp(1j * arg_b)
    _, zs = _popuc_zeros(m, n, b)
    _, conj_zs = _popuc_zeros(mirrored, n, np.conj(b))
    for phase in -zs.phases:
        assert np.min(np.abs(np.angle(np.exp(1j * (conj_zs.phases - phase))))) <= 1e-9


# Largest circular error seen over 28000 Hypothesis draws of the test below
# (16400 of them masses alone) and 30000 uniform draws of masses alone:
# 1.2e-9 for masses alone (7 masses at degree 7; the Gram route loses digits
# on discrete measures, ROADMAP item 1) and 3.4e-13 with an AC part.
ROTATION_TOL = {"none": 1e-7, "ac": 1e-11}


@settings(deadline=None, max_examples=200)
@given(admissible_measures(), st.floats(0.0, 2 * math.pi), st.floats(-math.pi, math.pi))
def test_rotating_the_measure_and_xi_rotates_every_zero(case, psi, arg_xi):
    # mu(theta - psi) has masses at omega_j + psi and, for Bernstein-Szego,
    # lambda e^{-i psi}; pinned at xi e^{i psi}, its zeros are those of mu shifted by psi
    m, n = case
    rotated = Measure.of(
        replace(m.ac, lam=m.ac.lam * cmath.exp(-1j * psi)),
        [MassPoint(mp.gamma, BinOp("+", mp.omega, Const(psi))) for mp in m.masses],
    )
    zs = solve_at(m, n + 1, ZeroPolicy.fixed_xi(cmath.exp(1j * arg_xi)), 0.0).zero_set
    rot = solve_at(rotated, n + 1, ZeroPolicy.fixed_xi(cmath.exp(1j * (arg_xi + psi))), 0.0).zero_set
    assert len(rot) == len(zs)
    error = max(float(np.min(circular_gap(rot.phases, phase + psi))) for phase in zs.phases)
    assert error <= ROTATION_TOL["none" if m.ac.kind == "none" else "ac"]


@settings(deadline=None)
@given(admissible_measures(), st.floats(-math.pi, math.pi))
def test_pinned_zero_is_index_zero_at_arg_xi(case, arg_xi):
    # the fixed_xi window starts at arg xi, so the pinned zero never wraps to the end
    m, n = case
    xi = cmath.exp(1j * arg_xi)
    zs = solve_at(m, n + 1, ZeroPolicy.fixed_xi(xi), 0.0).zero_set
    assert zs.fixed_index == 0
    assert abs(zs.phases[0] - cmath.phase(xi)) <= 1e-12


@settings(deadline=None)
@given(
    admissible_measures(),
    st.sampled_from(["fixed_b", "fixed_xi"]),
    st.floats(-math.pi, math.pi),
    st.integers(0, 2**32 - 1),
)
def test_solve_at_from_random_starts_finds_the_cold_zeros(case, kind, arg, seed):
    # Aberth from any distinct unimodular guesses converges to the same zero set
    m, n = case
    policy = ZeroPolicy(kind, cmath.exp(1j * arg))
    start = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2 * math.pi, n + 1))
    cold = solve_at(m, n + 1, policy, 0.0).zero_set
    warm = solve_at(m, n + 1, policy, 0.0, start=start).zero_set
    assert warm.fixed_index == cold.fixed_index
    assert np.max(np.abs(warm.phases - cold.phases)) <= 1e-12


def _szego_chain(ms, n):
    """Q_0..Q_n, norms and alphas by one szego_step after another, each conj(alpha_k)
    from the first row of the Toeplitz matrix: the recursion before its table."""
    row = ms.toeplitz(n + 1)[0]
    polys, norms, alphas = [np.array([1.0 + 0.0j])], [row[0].real], []
    for m in range(1, n + 1):
        conj_alpha = complex(polys[-1] @ row[1 : m + 1]) / norms[-1]
        norms.append((1.0 - abs(conj_alpha) ** 2) * norms[-1])
        polys.append(szego_step(polys[-1], conj_alpha))
        alphas.append(np.conj(conj_alpha))
    return polys, np.array(norms), np.array(alphas, dtype=complex)


def _assert_gram_opuc_is_the_szego_chain(ms, n):
    fam = gram_opuc(ms, n)
    polys, norms, alphas = _szego_chain(ms, n)
    assert fam.max_degree == n and not fam.coeffs.flags.writeable
    for k in range(n + 1):
        assert fam[k].coeffs.tobytes() == polys[k].tobytes()
        assert not np.any(fam.coeffs[k, k + 1 :])
    assert fam.norms.tobytes() == norms.tobytes()
    assert fam.alphas.tobytes() == alphas.tobytes()


@settings(deadline=None)
@given(admissible_measures())
def test_gram_opuc_is_the_szego_chain_bitwise(case):
    m, n = case
    _assert_gram_opuc_is_the_szego_chain(moments(m, 0.0, n + 1), n)


@pytest.mark.parametrize("degree", [40, 80, 120])
def test_gram_opuc_is_the_szego_chain_bitwise_at_high_degree(degree):
    # the measure of the high-degree sweeps: Bernstein-Szego plus a mass
    m = Measure.of(ACWeight.bernstein_szego(-1j / 3), [MassPoint.of("t", "2*pi/3")])
    _assert_gram_opuc_is_the_szego_chain(moments(m, 0.7, 2 * degree + 2), degree - 1)
    _assert_gram_opuc_is_the_szego_chain(moments(m, 0.7, degree), degree)


def test_gram_opuc_beyond_the_moment_order_raises_index_error():
    ms = moments(Measure.of(ACWeight.lebesgue(1.0)), 0.0, 4)
    assert gram_opuc(ms, 4).max_degree == 4
    with pytest.raises(IndexError):
        gram_opuc(ms, 5)
    with pytest.raises(IndexError):
        gram_opuc(ms, 12)
