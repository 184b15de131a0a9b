import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popuc import measures
from popuc.expressions import EvalError, ExprSyntaxError, differentiate, evaluate, parse

from popuc.measures import (
    ACWeight,
    MassPoint,
    Measure,
    MeasureError,
    circular_gap,
    moments,
    quadrature_moment,
)
from strategies import separable_weights


def test_circular_gap_wraps():
    assert circular_gap(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2, abs=1e-12)
    assert circular_gap(1.0, 1.0) == 0.0
    assert circular_gap(0.0, math.pi) == pytest.approx(math.pi, abs=1e-12)


def test_hermitian_symmetry():
    m = Measure.of(
        ACWeight.bernstein_szego(0.3 + 0.2j),
        [MassPoint.of(0.7, 1.1), MassPoint.of(0.2, 4.0)],
    )
    ms = moments(m, 0.0, 6)
    for k in range(7):
        assert ms[-k] == pytest.approx(np.conj(ms[k]), abs=0)
    assert ms[0].imag == 0.0


def test_lebesgue_moments():
    m = Measure.of(ACWeight.lebesgue(2.0))
    ms = moments(m, 0.0, 4)
    assert ms[0] == pytest.approx(2.0)
    for k in range(1, 5):
        assert ms[k] == 0.0


def test_lebesgue_is_the_lambda_zero_bernstein_szego_weight():
    for scale in (1.0, 2.0, "1 - t"):
        assert ACWeight.lebesgue(scale) == ACWeight.bernstein_szego(0, scale)
    with pytest.raises(MeasureError, match="unknown AC kind"):
        ACWeight("lebesgue", scale=parse("1"))
    # the JSON spelling stays, read through the bernstein_szego branch
    obj = {"ac": {"kind": "lebesgue", "scale": "1 - t"}}
    assert Measure.from_json(obj) == Measure.of(ACWeight.lebesgue("1 - t"))


def test_point_mass_moments():
    om = 0.9
    m = Measure.of(ACWeight.none(), [MassPoint.of(1.5, om)])
    ms = moments(m, 0.0, 3)
    for k in range(-3, 4):
        assert ms[k] == pytest.approx(1.5 * np.exp(-1j * k * om), abs=1e-14)


def test_bernstein_szego_moments_are_geometric():
    lam = 0.4 - 0.25j
    m = Measure.of(ACWeight.bernstein_szego(lam, scale=1.3))
    ms = moments(m, 0.0, 5)
    for k in range(6):
        assert ms[k] == pytest.approx(1.3 * lam**k, abs=1e-14)


def test_bernstein_szego_closed_form_matches_quadrature():
    lam = 0.5 + 0.3j
    w = ACWeight.bernstein_szego(lam)
    quad = quadrature_moment(Measure.of(w).at(0.0, 2048), 4)
    for k in range(5):
        assert quad[k] == pytest.approx(lam**k, abs=1e-12)


def _trapezoid_reference(w, t, K, nodes):
    """c_0..c_K by the trapezoid rule, one scalar density evaluation per node
    and a direct sum per order; e^{-ik theta_j} = e^{-2 pi i (jk mod N)/N}
    keeps the phases exact for large k."""
    vals = [evaluate(w.weight, {"theta": 2 * math.pi * j / nodes, "t": t}) for j in range(nodes)]
    return np.array([
        sum(v * cmath.exp(-2j * math.pi * (j * k % nodes) / nodes) for j, v in enumerate(vals))
        / nodes
        for k in range(K + 1)
    ])


@settings(deadline=None, max_examples=40)
@given(
    st.floats(0.1, 2.0),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from([16, 32, 64]),
    st.integers(0, 200),
)
def test_fft_moments_match_trapezoid_reference(a, beta, c, t, nodes, K):
    # a von Mises bump plus a squared sine in theta and t; K >= nodes aliases
    w = ACWeight.custom(
        f"exp({a!r}*cos(theta - {beta!r})) + {c!r}*sin(2*theta + t)*sin(2*theta + t)"
    )
    ms = moments(Measure.of(w), t, K, nodes)
    ref = _trapezoid_reference(w, t, K, nodes)
    assert np.max(np.abs(ms.c[K:] - ref)) <= 1e-13 * ref[0].real
    assert np.array_equal(ms.c[:K], np.conj(ms.c[K + 1:][::-1]))


def test_custom_weight_quadrature():
    # w(theta) = 1 + cos(theta)/2 has c_1 = 1/4 (cos = (e^i + e^-i)/2)
    m = Measure.of(ACWeight.custom("1 + cos(theta)/2"))
    ms = moments(m, 0.0, 3, nodes=512)
    assert ms[0] == pytest.approx(1.0, abs=1e-12)
    assert ms[1] == pytest.approx(0.25, abs=1e-12)
    assert ms[2] == pytest.approx(0.0, abs=1e-12)


def test_example_two_moments():
    # (1-gamma) dtheta/2pi + gamma delta_0 at gamma = 0.5: c_0 = 1, c_k = 0.5
    m = Measure.of(ACWeight.lebesgue("1 - t"), [MassPoint.of("t", "0")])
    ms = moments(m, 0.5, 4)
    assert ms[0] == pytest.approx(1.0)
    for k in range(1, 5):
        assert ms[k] == pytest.approx(0.5)


def test_negative_mass_rejected():
    m = Measure.of(ACWeight.none(), [MassPoint.of("t", "1.0")])
    with pytest.raises(MeasureError):
        m.at(-0.5)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_a_non_finite_t_is_rejected_by_name(t):
    # unit masses that do not depend on t once gave a record, moments and zeros at t = nan
    m = Measure.of(ACWeight.none(), [MassPoint.of(1.0, w) for w in ("0", "2", "4")])
    for read in (lambda: m.at(t), lambda: moments(m, t, 2)):
        with pytest.raises(MeasureError, match=f"t must be a finite number, got t={t}"):
            read()


def test_coincident_masses_rejected():
    m = Measure.of(
        ACWeight.none(), [MassPoint.of(1.0, "1.0"), MassPoint.of(1.0, "1.0 + t")]
    )
    with pytest.raises(MeasureError):
        moments(m, 0.0, 2)
    # separated at t = 0.3
    ms = moments(m, 0.3, 2)
    assert ms[0] == pytest.approx(2.0)


def test_coincidence_is_decided_round_the_circle():
    # 1e-10 and 2 pi - 1e-10 are 2e-10 apart across the wrap, first and last in sorted order
    for omegas in ([1e-10, 2 * math.pi - 1e-10], [3.0, 1e-10, 1.5, 2 * math.pi - 1e-10]):
        m = Measure.of(ACWeight.none(), [MassPoint.of(1.0, w) for w in omegas])
        with pytest.raises(MeasureError, match="coincident"):
            m.at(0.0)
    # 30 separated masses, the last 1e-3 short of the first across the wrap
    omegas = np.linspace(0.0, 2 * math.pi, 30, endpoint=False)
    omegas[-1] = 2 * math.pi - 1e-3
    m = Measure.of(ACWeight.none(), [MassPoint.of(1.0, float(w)) for w in omegas])
    assert m.at(0.0).omegas.tolist() == omegas.tolist()


def test_vanishing_total_mass_rejected():
    m = Measure.of(ACWeight.none(), [MassPoint.of("t", "1.0")])
    with pytest.raises(MeasureError):
        moments(m, 0.0, 2)


def test_bernstein_szego_needs_lambda_inside_disc():
    with pytest.raises(MeasureError):
        ACWeight.bernstein_szego(1.0 + 0.0j)


def test_bernstein_szego_needs_a_scale():
    # built without one, its moments once raised AttributeError on None
    with pytest.raises(MeasureError, match="bernstein_szego requires a scale"):
        ACWeight("bernstein_szego")


def test_toeplitz_layout():
    m = Measure.of(ACWeight.bernstein_szego(0.2 + 0.1j), [MassPoint.of(0.4, 2.0)])
    ms = moments(m, 0.0, 4)
    T = ms.toeplitz(3)
    for j in range(3):
        for k in range(3):
            assert T[j, k] == ms[j - k]
    assert np.allclose(T, T.conj().T)
    assert np.linalg.eigvalsh(T)[0] > 0


def test_json_round_trip():
    m = Measure.of(
        ACWeight.bernstein_szego(0.0 - 1 / 3 * 1j, scale="1 + t"),
        [MassPoint.of("t", "2*pi/3")],
    )
    obj = {
        "ac": {"kind": "bernstein_szego", "lambda": [0.0, -1 / 3], "scale": "1 + t"},
        "masses": [{"gamma": "t", "omega": "2*pi/3"}],
    }
    again = Measure.from_json(json.loads(json.dumps(obj)))
    assert again == m
    t = 0.7
    s1, s2 = m.at(t), again.at(t)
    assert np.allclose(s1.gammas, s2.gammas) and np.allclose(s1.omegas, s2.omegas)
    ms1 = moments(m, t, 3)
    ms2 = moments(again, t, 3)
    assert np.allclose(ms1.c, ms2.c)


@pytest.mark.parametrize(
    "measure, match",
    [
        (Measure.of(ACWeight.lebesgue(1.0), [MassPoint.of("t", "1.0")]), "negative mass"),
        (
            Measure.of(ACWeight.lebesgue(1.0), [MassPoint.of(1.0, "1.0"), MassPoint.of(1.0, "1.0")]),
            "coincident",
        ),
        (Measure.of(ACWeight.custom("cos(theta)"), [MassPoint.of(1.0, "1.0")]), "negative"),
        (Measure.of(ACWeight.lebesgue("0.2*t"), [MassPoint.of(1.0, "1.0")]), "negative"),
        (Measure.of(ACWeight.bernstein_szego(0.3j, "2*t"), [MassPoint.of(3.0, "1.0")]), "negative"),
        (Measure.of(ACWeight.lebesgue("1 + t")), "total mass"),
    ],
    ids=[
        "negative_mass",
        "coincident_masses",
        "negative_custom_density",
        "negative_lebesgue_scale",
        "negative_bernstein_szego_scale",
        "vanishing_mass",
    ],
)
def test_moments_rejects_inadmissible_measure(measure, match):
    with pytest.raises(MeasureError, match=match):
        moments(measure, -1.0, 4, nodes=256)


def _moments_by_outer(m, t, K, nodes):
    """moments' c before the broadcast phases and the filled array: np.outer, np.sum
    and np.concatenate, kept as a bitwise reference."""
    sample, k = m.at(t, nodes), np.arange(K + 1)
    masses = np.sum(sample.gammas * np.exp(-1j * np.outer(k, sample.omegas)), axis=1)
    half = measures._ac_moments(sample, K) + masses
    c = np.concatenate([np.conj(half[:0:-1]), half])
    c[K] = c[K].real
    return c


@pytest.mark.parametrize(
    "ac",
    [ACWeight.none(), ACWeight.lebesgue("1 + t"), ACWeight.bernstein_szego(0.3 - 0.2j, "2"),
     ACWeight.custom("2 + t*cos(theta)"), ACWeight.custom("(1 + t)*(2 + sin(theta))")],
)
def test_moments_are_the_outer_product_form_bitwise(ac):
    masses = [MassPoint.of("0.5 + t", "1.0"), MassPoint.of("0.3", "2.0 + t"), MassPoint.of("1.1", "4.0")]
    cases = [Measure.of(ac, masses), Measure.of(ac, masses[:1])] + ([Measure.of(ac)] if ac.kind != "none" else [])
    for m in cases:
        for t in (0.1, 0.7):
            for K in (0, 1, 5, 40):
                assert moments(m, t, K, 64).c.tobytes() == _moments_by_outer(m, t, K, 64).tobytes()


def test_moments_accepts_clean_measure():
    # a density that touches zero is admissible
    m = Measure.of(ACWeight.custom("1 - cos(theta)"), [MassPoint.of(0.5, 1.0)])
    assert moments(m, 0.0, 4, nodes=256)[0] == pytest.approx(1.5, abs=1e-12)


def test_from_json_names_the_place_of_an_expression_error_and_keeps_its_type():
    obj = {"masses": [{"gamma": "1 +", "omega": "0"}]}
    message = r"^masses\[0\]\.gamma: unexpected 'end of input' \(offset 3\)$"
    with pytest.raises(ExprSyntaxError, match=message) as err:
        Measure.from_json(obj)
    assert err.value.offset == 3


@pytest.mark.parametrize(
    "weight, factor",
    [
        # constant and theta-only factors drop out, and so do minus signs
        ("(1 - 1/9)*(1 + 0.5*t)/(1 - 2/3*cos(theta - pi/2) + 1/9)", "1 + 0.5*t"),
        ("-(2 + cos(theta))/(1 + t)*exp(t)", "1/(1 + t)*exp(t)"),
        ("1 + cos(theta)", "1"),
        # a factor that mixes t and theta, on the spine or below a sum
        ("(1 + t)*exp(t*cos(theta))", None),
        ("(1 + t)*(2 + cos(theta)) + t", None),
    ],
)
def test_t_factor_walks_the_product_spine(weight, factor):
    ac = ACWeight.custom(weight)
    if factor is None:
        assert ac.t_factor is None
        return
    a, da = ac.t_factor
    expected = parse(factor)
    for t in (-0.3, 0.4):
        assert evaluate(a, {"t": t}) == evaluate(expected, {"t": t})
        assert evaluate(da, {"t": t}) == pytest.approx(evaluate(differentiate(expected, "t"), {"t": t}), rel=1e-15)


def test_closed_kinds_take_their_scale_as_the_t_factor():
    # the closed kinds are scale(t) B(theta), B the Poisson kernel: their t-factor is the scale
    assert ACWeight.none().t_factor is None
    for ac in (ACWeight.lebesgue("1 + t"), ACWeight.bernstein_szego(0.3, "1 + t")):
        a, da = ac.t_factor
        assert a is ac.scale and ac.factors == (ac.scale, None)
        assert evaluate(a, {"t": 0.4}) == 1.4 and evaluate(da, {"t": 0.4}) == 1.0


@settings(deadline=None, max_examples=100)
@given(separable_weights(), st.floats(-0.5, 0.5), st.sampled_from([64, 1000]))
def test_separable_moments_are_the_quadrature_of_the_whole_weight(weight, t, nodes):
    # A(t) times B's cached moments against one FFT of the whole density
    m = Measure.of(ACWeight.custom(weight))
    c = moments(m, t, 6, nodes).c[6:]
    whole = quadrature_moment(m.at(t, nodes), 6)
    assert np.max(np.abs(c - whole)) <= 1e-13 * whole[0].real


@pytest.mark.parametrize(
    "weight, t, error, message",
    [
        # B changes sign and A(t) is not 0; B of one sign, A(t) of the other
        ("(1 + t)*cos(theta)", 0.5, MeasureError, "weight is negative at a quadrature node at t=0.5"),
        ("(1 + t)*(cos(theta) - 2)", 0.5, MeasureError, "weight is negative at a quadrature node at t=0.5"),
        # B overflows at every node; A(t) overflows or divides by zero
        ("(1 + t)*(2 + cos(theta))*1e300*1e300", 0.5, EvalError, "non-finite result in array evaluation"),
        ("exp(800*t)*(2 + cos(theta))", 1.0, EvalError, "exp: math range error"),
        ("(2 + cos(theta))/t", 0.0, EvalError, "division by zero"),
    ],
)
def test_a_separable_weight_is_rejected_as_its_whole_density_is(weight, t, error, message):
    m = Measure.of(ACWeight.custom(weight), [MassPoint.of("1", "0")])
    assert m.ac.t_factor is not None
    for moments_of in (lambda: quadrature_moment(m.at(t, 64), 4), lambda: moments(m, t, 4, 64)):
        with pytest.raises(error) as err:
            moments_of()
        assert str(err.value) == message


def test_a_zero_t_factor_admits_a_b_of_either_sign():
    # A(0) = 0 makes the whole weight 0 whatever the sign of B, as on the whole grid
    m = Measure.of(ACWeight.custom("t*cos(theta)"), [MassPoint.of("1", "0")])
    assert np.array_equal(moments(m, 0.0, 4, 64).c, np.ones(9))
    assert np.array_equal(quadrature_moment(m.at(0.0, 64), 4), np.zeros(5))
