"""Hypothesis strategies that more than one test module draws from."""
from hypothesis import strategies as st

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
