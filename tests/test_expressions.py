import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popuc import expressions

from popuc.expressions import (
    BinOp,
    Call,
    Const,
    EvalError,
    ExprSyntaxError,
    Neg,
    NonDifferentiableError,
    Var,
    differentiate,
    evaluate,
    evaluate_all,
    free_variables,
    parse,
)


def test_parse_literal_zero():
    assert parse("0") == Const(0.0)


def test_parse_arithmetic_of_literals():
    e = parse("2*pi/3 + t/4")
    assert evaluate(e, {"t": 0.0}) == pytest.approx(2 * math.pi / 3, abs=1e-12)
    assert evaluate(e, {"t": 1.0}) == pytest.approx(2 * math.pi / 3 + 0.25, abs=1e-12)


def test_precedence_and_associativity():
    assert evaluate(parse("2 - 3 - 4"), {}) == -5.0
    assert evaluate(parse("2 + 3 * 4"), {}) == 14.0
    assert evaluate(parse("8 / 4 / 2"), {}) == 1.0
    assert evaluate(parse("-2*3"), {}) == -6.0


def test_eval_binds_variables():
    assert evaluate(parse("t"), {"t": 0.5}) == 0.5


def test_eval_unbound_variable():
    with pytest.raises(EvalError):
        evaluate(parse("theta"), {"t": 1.0})


def test_eval_division_by_zero_is_error():
    with pytest.raises(EvalError):
        evaluate(parse("1/(1-t)"), {"t": 1.0})


def test_eval_domain_error():
    with pytest.raises(EvalError):
        evaluate(parse("sqrt(0-1)"), {})


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + $")
    assert err.value.offset == 4


def test_unknown_identifier_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("1 + foo")


def test_empty_source_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("   ")


@pytest.mark.parametrize("opening, closing, depth", [("(", ")", 500), ("-", "", 2000)], ids=["parentheses", "unary_minus"])
def test_nesting_beyond_300_levels_is_a_syntax_error_at_its_offset(opening, closing, depth):
    # these ended in a RecursionError; 300 levels still parse
    assert evaluate(parse(opening * 300 + "t" + closing * 300), {"t": 2.0}) == 2.0
    with pytest.raises(ExprSyntaxError, match="nested deeper than 300 levels") as err:
        parse(opening * depth + "1" + closing * depth)
    assert err.value.offset == 300 * len(opening)


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_a_flat_chain_of_more_than_300_operators_is_a_syntax_error(op):
    # 1500 ones joined by + parsed into a left-deep tree that evaluate could not
    # walk (RecursionError); the tree counts one level per operator
    value = {"+": 301.0, "-": -299.0, "*": 1.0, "/": 1.0}[op]
    assert evaluate(parse(op.join(["t"] * 301)), {"t": 1.0}) == value
    with pytest.raises(ExprSyntaxError, match="nested deeper than 300 levels") as err:
        parse(op.join(["t"] * 302))
    assert err.value.offset == 601  # the 301st operator
    with pytest.raises(ExprSyntaxError, match="nested deeper than 300 levels"):
        parse(op.join(["1"] * 1500))


def test_operators_and_calls_nest_into_one_tree_height():
    # 150 calls around a chain of 150 products: 300 levels parse, one more does not
    assert evaluate(parse("sin(" * 150 + "*".join(["t"] * 151) + ")" * 150), {"t": 0.0}) == 0.0
    with pytest.raises(ExprSyntaxError, match="nested deeper than 300 levels"):
        parse("sin(" * 150 + "*".join(["t"] * 152) + ")" * 150)


def test_derivative_of_variable():
    assert differentiate(parse("t"), "t") == Const(1.0)


def test_derivative_of_sine():
    assert differentiate(parse("sin(t)"), "t") == Call("cos", Var("t"))


def test_derivative_of_affine():
    d = differentiate(parse("0.1 + 0.8*t"), "t")
    assert d == Const(0.8)
    h = 1e-6
    e = parse("0.1 + 0.8*t")
    fd = (evaluate(e, {"t": 0.3 + h}) - evaluate(e, {"t": 0.3 - h})) / (2 * h)
    assert abs(evaluate(d, {"t": 0.3}) - fd) < 1e-10


def test_derivative_of_abs_rejected():
    with pytest.raises(NonDifferentiableError):
        differentiate(parse("abs(t)"), "t")


def _random_tree(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.integers(0, 3)
        if choice == 0:
            return Var("t")
        if choice == 1:
            return Var("theta")
        return Const(float(rng.uniform(-2, 2)))
    kind = rng.integers(0, 2)
    if kind == 0:
        op = "+-*/"[int(rng.integers(0, 4))]
        return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if rng.random() < 0.2:
        return Neg(_random_tree(rng, depth - 1))
    fn = ["sin", "cos", "exp", "sqrt", "abs"][int(rng.integers(0, 5))]
    return Call(fn, _random_tree(rng, depth - 1))


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        tree = _random_tree(rng, int(rng.integers(1, 6)))
        t = float(rng.uniform(-1, 1))
        try:
            d = differentiate(tree, "t")
            h = 1e-6
            up = evaluate(tree, {"t": t + h, "theta": 0.4})
            lo = evaluate(tree, {"t": t - h, "theta": 0.4})
            sym = evaluate(d, {"t": t, "theta": 0.4})
        except (EvalError, NonDifferentiableError):
            continue
        fd = (up - lo) / (2 * h)
        if abs(fd) > 1e6:
            continue
        assert abs(sym - fd) <= 1e-6 * (1 + abs(sym))
        checked += 1


@given(st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10))
def test_eval_matches_python_arithmetic(a, b):
    e = BinOp("*", BinOp("+", Var("t"), Const(b)), Const(2.0))
    assert evaluate(e, {"t": a}) == pytest.approx((a + b) * 2.0, rel=1e-12)


def _number(k: int, form: int) -> str:
    """k/4 written as Python and the grammar both read it: 2.25, .25 or 3."""
    text = repr(k / 4)
    if form == 1 and text.startswith("0."):
        return text[1:]
    if form == 2 and text.endswith(".0"):
        return text[:-1]
    return text


_LEAVES = st.one_of(
    st.sampled_from(["t", "theta", "pi"]), st.builds(_number, st.integers(0, 40), st.integers(0, 2))
)


def _compound(children):
    space = st.sampled_from(["", " "])
    return st.one_of(
        st.tuples(children, space, st.sampled_from("+-*/"), space, children).map("".join),
        children.map(lambda c: f"-{c}"),
        children.map(lambda c: f"({c})"),
        st.tuples(st.sampled_from(expressions.FUNCTIONS), children).map(lambda fc: f"{fc[0]}({fc[1]})"),
    )


# numbers carry a decimal point, so Python computes in floats throughout
_PYTHON_NAMES = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt, "abs": abs, "pi": math.pi}


@settings(max_examples=400, deadline=None)
@given(st.recursive(_LEAVES, _compound, max_leaves=12), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_parse_and_evaluate_agree_with_python_on_random_source(source, t, theta):
    # Python's own parser is the oracle for precedence, associativity, unary
    # minus and number tokens: the same text must give the same float, and
    # raise (or end non-finite) exactly where evaluate raises
    try:
        expected = eval(source, {"__builtins__": {}}, dict(_PYTHON_NAMES, t=t, theta=theta))
    except (ArithmeticError, ValueError):
        expected = math.nan
    tree = parse(source)
    try:
        value = evaluate(tree, {"t": t, "theta": theta})
    except EvalError:
        assert not math.isfinite(expected)
    else:
        assert value == expected


GRID = np.linspace(-3.0, 3.0, 25)  # holds 0.0 and 1.0 exactly


def _scalar_nodes(e, t):
    """Per-node reference: the scalar values on GRID, or None if any node raises."""
    values = []
    for theta in GRID:
        try:
            values.append(evaluate(e, {"t": t, "theta": float(theta)}))
        except EvalError:
            return None
    return np.array(values)


def _array_nodes(e, t):
    try:
        return np.broadcast_to(evaluate(e, {"t": t, "theta": GRID}), GRID.shape)
    except EvalError:
        return None


@pytest.mark.parametrize(
    "source, raises",
    [
        ("1/(theta - 1)", True),  # zero denominator at one node
        ("1/(theta - 1.05)", False),
        ("sqrt(theta - 1)", True),  # negative under the root at some nodes
        ("sqrt(theta + 4)", False),
        ("1/exp(300*theta*theta)", True),  # exp overflows, and 1/inf would hide it
        ("1/exp(50*theta*theta)", False),
        ("theta*1e200*1e200", True),  # non-finite result
        ("theta*1e100*1e100", False),
        ("sin(theta*1e200*1e200)", True),  # sin of an infinity
        ("t/(t - 0.5)", True),  # zero denominator in a scalar subtree
    ],
)
def test_array_evaluation_raises_where_a_node_raises(source, raises):
    e = parse(source)
    assert (_scalar_nodes(e, 0.5) is None) == raises
    assert (_array_nodes(e, 0.5) is None) == raises


# np.exp and math.exp differ by one ulp on some inputs; an ill-conditioned
# tree such as sin(1.94/exp(-theta/t)) amplifies that past 1e-12 (about one
# tree in 30000), so the examples are a fixed, derandomized set
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0))
def test_array_evaluation_matches_scalar_nodes(seed, t):
    rng = np.random.default_rng(seed)
    e = _random_tree(rng, int(rng.integers(1, 6)))
    scalar = _scalar_nodes(e, t)
    array = _array_nodes(e, t)
    assert (array is None) == (scalar is None)
    if scalar is not None:
        np.testing.assert_allclose(array, scalar, rtol=1e-12, atol=0)


def _per_node_walk(e, bindings):
    """The array walk before evaluate_all: every node computed where it stands,
    each array node under its own errstate; kept as a bitwise reference."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        value = bindings[e.name]
        return value.astype(float, copy=False) if isinstance(value, np.ndarray) else float(value)
    if isinstance(e, Neg):
        return -_per_node_walk(e.operand, bindings)
    if isinstance(e, BinOp):
        left, right = _per_node_walk(e.left, bindings), _per_node_walk(e.right, bindings)
        with np.errstate(over="ignore", invalid="ignore"):
            if e.op == "+":
                return left + right
            if e.op == "-":
                return left - right
            if e.op == "*":
                return left * right
            if np.any(right == 0.0):
                raise EvalError("division by zero")
            return left / right
    arg = _per_node_walk(e.arg, bindings)
    if not isinstance(arg, np.ndarray):
        try:
            return expressions._FUNC_IMPL[e.func](arg)
        except (ValueError, OverflowError):
            raise EvalError(e.func) from None
    if (e.func == "sqrt" and np.any(arg < 0.0)) or (e.func in ("sin", "cos") and np.any(np.isinf(arg))):
        raise EvalError(e.func)
    with np.errstate(over="ignore", invalid="ignore"):
        value = expressions._ARRAY_FUNC_IMPL[e.func](arg)
    if e.func == "exp" and np.any(np.isinf(value) & np.isfinite(arg)):
        raise EvalError(e.func)
    return value


def _per_node_value(e, bindings):
    try:
        value = _per_node_walk(e, bindings)
    except EvalError:
        return None
    return value if np.all(np.isfinite(value)) else None


# custom_weight's weight in the benchmark, the Bernstein-Szego weight with a
# moving scale written out: its quotient-rule d/dt repeats subtrees
BS_WEIGHT = parse("(1 - 0.1111)*(1 + 0.5*t)/(1 - 0.6667*cos(theta - 1.5707963267948966) + 0.1111)")


def test_evaluate_all_is_the_per_node_walk_bitwise():
    rng = np.random.default_rng(11)
    trees = [BS_WEIGHT] + [_random_tree(rng, int(rng.integers(1, 6))) for _ in range(300)]
    for e in trees:
        try:
            exprs = (e, differentiate(e, "t"), differentiate(e, "theta"))
        except NonDifferentiableError:
            exprs = (e,)
        for t in (-0.7, 0.5):
            bindings = {"t": t, "theta": GRID}
            expected = [_per_node_value(x, bindings) for x in exprs]
            try:
                values = evaluate_all(exprs, bindings)
            except EvalError:
                assert any(v is None for v in expected)
                continue
            assert [np.asarray(v).tobytes() for v in values] == [np.asarray(v).tobytes() for v in expected]
            assert np.asarray(evaluate(e, bindings)).tobytes() == np.asarray(values[0]).tobytes()


def _distinct_nodes(e, seen):
    if id(e) not in seen:
        seen[id(e)] = e
        for child in (getattr(e, name) for name in ("left", "right", "operand", "arg") if hasattr(e, name)):
            _distinct_nodes(child, seen)
    return seen


def test_evaluate_all_computes_each_node_object_once(monkeypatch):
    d_dt = differentiate(BS_WEIGHT, "t")
    nodes = _distinct_nodes(d_dt, {})
    assert len(nodes) == 18  # of the 38 nodes the tree has written out
    nodes = _distinct_nodes(BS_WEIGHT, nodes)
    computed = []
    for name in ("_binop", "_array_call", "_call"):
        real = getattr(expressions, name)
        monkeypatch.setattr(
            expressions, name, lambda *args, real=real: computed.append(1) or real(*args)
        )
    evaluate_all((BS_WEIGHT, d_dt), {"theta": GRID, "t": 0.5})
    assert len(computed) == sum(isinstance(n, (BinOp, Call)) for n in nodes.values())


@pytest.mark.parametrize(
    "source, names",
    [
        ("2*pi", set()),
        ("-sin(t)/3", {"t"}),
        ("1 + cos(theta)", {"theta"}),
        ("exp(t*cos(theta - 1))", {"t", "theta"}),
    ],
)
def test_free_variables(source, names):
    assert free_variables(parse(source)) == names
