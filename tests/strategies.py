"""Hypothesis strategies that more than one test module draws from."""
import math

import numpy as np
from hypothesis import strategies as st

from popuc.measures import ACWeight, MassPoint, Measure

# positive factors in t alone (|t| <= 1/2) and in theta alone, as source templates
T_FACTORS = ("({a!r} + {b!r}*t)", "exp({b!r}*t)", "sqrt({a!r} + {b!r}*t)", "({a!r} + sin({b!r}*t))")
THETA_FACTORS = ("({a!r} + {b!r}*cos(theta - {c!r}))", "exp({b!r}*sin(theta))", "{a!r}")


@st.composite
def separable_weights(draw, mixed=False):
    """A product/quotient of 1-5 factors, each in t alone or in theta alone,
    as source text; with ``mixed``, one more factor holds t and theta together."""
    factors = []
    for _ in range(draw(st.integers(1, 5))):
        templates = draw(st.sampled_from((T_FACTORS, THETA_FACTORS)))
        a, b, c = draw(st.floats(1.5, 3.0)), draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 6.0))
        factors.append(draw(st.sampled_from(templates)).format(a=a, b=b, c=c))
    if mixed:
        factors.insert(draw(st.integers(0, len(factors))), "(1 + 0.3*t*cos(theta))")
    ops = draw(st.lists(st.sampled_from("*/"), min_size=len(factors) - 1, max_size=len(factors) - 1))
    return factors[0] + "".join(op + factor for op, factor in zip(ops, factors[1:]))


@st.composite
def admissible_measures(draw, moving=False):
    """(measure, n): 1-8 masses at least 0.28 apart, an optional Lebesgue or
    Bernstein-Szego part, and a degree n the support carries.  With ``moving``,
    each mass's gamma and omega are affine in t, at rates of at most 0.1 and
    0.3 per unit t, so that on 0 <= t <= 0.3 the masses stay 0.1 apart and positive."""
    n_masses = draw(st.integers(1, 8))
    start = draw(st.floats(0.0, 2 * math.pi))
    gaps = draw(st.lists(st.floats(0.3, 0.75), min_size=n_masses, max_size=n_masses))
    gammas = draw(st.lists(st.floats(0.05, 2.0), min_size=n_masses, max_size=n_masses))
    om = start + np.cumsum(gaps)
    masses = [MassPoint.of(g, float(o)) for g, o in zip(gammas, om)]
    if moving:
        rate = st.tuples(st.floats(-0.1, 0.1), st.floats(-0.3, 0.3))
        rates = draw(st.lists(rate, min_size=n_masses, max_size=n_masses))
        masses = [
            MassPoint.of(f"{g!r} + {a!r}*t", f"{float(o)!r} + {d!r}*t") for g, o, (a, d) in zip(gammas, om, rates)
        ]
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
