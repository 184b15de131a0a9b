import cmath
import math

import numpy as np
import pytest

from popuc import paraorthogonal
from popuc.closed_forms import bs_mass_opuc, lebesgue_mass_popuc, w0_bs, w0_lebesgue
from popuc.measures import ACWeight, MassPoint, Measure, moments
from popuc.opuc import gram_opuc
from popuc.dynamics import ZeroPolicy, solve_at
from popuc.paraorthogonal import build_popuc, fix_zero_param, zeros_on_circle


def test_bs_mass_gamma_zero_reduces_to_pure_bs():
    lam = 0.2 + 0.4j
    p = bs_mass_opuc(4, lam, 0.0, 1.0)
    expected = np.zeros(5, dtype=complex)
    expected[4] = 1.0
    expected[3] = -np.conj(lam)
    assert np.max(np.abs(p.coeffs - expected)) < 1e-15


def test_bs_mass_matches_pipeline():
    rng = np.random.default_rng(61)
    for _ in range(30):
        lam = complex(rng.uniform(-0.55, 0.55), rng.uniform(-0.55, 0.55))
        gamma = float(rng.uniform(0.01, 4.0))
        omega = float(rng.uniform(0, 2 * math.pi))
        n = int(rng.integers(1, 7))
        m = Measure.of(ACWeight.bernstein_szego(lam), [MassPoint.of(gamma, omega)])
        fam = gram_opuc(moments(m, 0.0, n + 2), n)
        oracle = bs_mass_opuc(n, lam, gamma, omega)
        assert np.max(np.abs(fam[n].coeffs - oracle.coeffs)) < 1e-10


def _assert_zeros_of_the_closed_form(degree, lam, gamma, omega):
    # the gates of verify's zeros check, on the closed-form POPUC with xi = i pinned
    xi = 1j
    m = Measure.of(ACWeight.bernstein_szego(lam), [MassPoint.of(gamma, omega)])
    zs = solve_at(m, degree, ZeroPolicy.fixed_xi(xi), 0.0).zero_set
    q = bs_mass_opuc(degree - 1, lam, gamma, omega).coeffs
    oracle = build_popuc(q, fix_zero_param(q, xi)).poly.coeffs
    residual = np.abs(np.polyval(oracle[::-1], zs.zeros)) / np.max(np.abs(oracle))
    assert len(zs) == degree
    assert np.max(residual) <= 1e-9
    assert zs.pre_projection_deviation <= 1e-9
    assert zs.min_gap > 1e-6
    assert zs.fixed_index == 0 and abs(zs.phases[0] - math.pi / 2) <= 1e-12


@pytest.mark.parametrize("degree", [40, 80, 120])
def test_high_degree_zeros_are_zeros_of_the_closed_form(degree):
    _assert_zeros_of_the_closed_form(degree, 0.4 * cmath.exp(2.1j), 0.7, 2.5)


def test_cold_start_at_degree_120_converges_from_the_one_cold_start(monkeypatch):
    # the benchmark's high_degree seed 917 at its first grid point: from guesses
    # half a slot round one iterate left the circle, z^120 overflowed and the
    # sweeps never converged.  The cold solve now starts from the sign changes
    # of P on the circle, one guess per zero, and converges in a few sweeps
    starts, sweeps = [], []
    aberth, power_table = paraorthogonal.aberth_roots, paraorthogonal.power_table
    monkeypatch.setattr(
        paraorthogonal,
        "aberth_roots",
        lambda coeffs, start=None: starts.append((coeffs, start)) or aberth(coeffs, start),
    )
    monkeypatch.setattr(
        paraorthogonal, "power_table", lambda table, z: sweeps.append(1) or power_table(table, z)
    )
    lam = complex(-0.22203401164395684, -0.14467961623616238)
    _assert_zeros_of_the_closed_form(120, lam, 1.1440700414318319, 3.5090864533493606)
    [(coeffs, start)] = starts
    assert len(start) == 120 and np.array_equal(start, paraorthogonal._circle_guesses(coeffs))
    assert len(sweeps) <= 5


def test_bs_mass_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bs_mass_opuc(3, 1.1, 0.5, 0.0)
    with pytest.raises(ValueError):
        bs_mass_opuc(3, 0.2, -0.5, 0.0)
    with pytest.raises(ValueError):
        bs_mass_opuc(0, 0.2, 0.5, 0.0)


def test_lebesgue_mass_popuc_matches_pipeline():
    m = Measure.of(ACWeight.lebesgue("1 - t"), [MassPoint.of("t", "0")])
    for gamma in (0.2, 0.5, 0.8):
        fam = gram_opuc(moments(m, gamma, 10), 4)
        for b in (1 + 0j, -1 + 0j, cmath.exp(0.4j)):
            p = build_popuc(fam.coeffs[4], b)
            oracle = lebesgue_mass_popuc(4, b, gamma)
            assert np.max(np.abs(p.poly.coeffs - oracle.coeffs)) < 1e-12


def test_lebesgue_mass_popuc_b_one_is_cyclotomic_like():
    # b = 1: the bracket vanishes, P = z^{n+1} - 1 regardless of gamma
    for gamma in (0.1, 0.7):
        p = lebesgue_mass_popuc(3, 1.0 + 0j, gamma)
        expected = np.zeros(5, dtype=complex)
        expected[4] = 1.0
        expected[0] = -1.0
        assert np.max(np.abs(p.coeffs - expected)) < 1e-15


def test_lebesgue_mass_popuc_zeros_on_circle():
    from popuc.paraorthogonal import PopucInstance

    p = lebesgue_mass_popuc(4, -1.0 + 0j, 0.6)
    inst = PopucInstance(p, -1.0 + 0j)
    zs = zeros_on_circle(inst)
    assert len(zs) == 5
    assert zs.pre_projection_deviation < 1e-9


def test_w0_bs_signs():
    theta0 = 1.0
    omega = 3.0
    assert w0_bs(2.0, theta0, omega) > 0  # phi in (theta0, omega)
    assert w0_bs(5.0, theta0, omega) < 0  # phi in (omega, theta0 + 2 pi)
    assert w0_bs(theta0, theta0, omega) == 0.0


def test_w0_bs_pole():
    with pytest.raises(ZeroDivisionError):
        w0_bs(2.0, 1.0, 1.0)


def test_w0_lebesgue_value():
    # phi = pi, theta0 = pi/2, gamma = 0.5:
    # sin(pi/4) / (2 * 0.5 * sin(pi/2) * sin(pi/4)) = 1
    assert w0_lebesgue(math.pi, math.pi / 2, 0.5) == pytest.approx(1.0, abs=1e-14)


def test_w0_lebesgue_signs():
    theta0 = math.pi / 2
    assert w0_lebesgue(3.0, theta0, 0.3) > 0  # (theta0, 2 pi)
    assert w0_lebesgue(2 * math.pi + 0.5, theta0, 0.3) < 0  # (2 pi, theta0 + 2 pi)


def test_w0_lebesgue_validates_gamma():
    with pytest.raises(ValueError):
        w0_lebesgue(3.0, 1.0, 1.5)
