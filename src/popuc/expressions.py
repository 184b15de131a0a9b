"""Small arithmetic expression language for parameter-dependent measure data.

Expressions range over the variables ``t`` and ``theta``, the constant
``pi``, the four arithmetic operations, unary minus, and the functions
``sin``, ``cos``, ``exp``, ``sqrt``, ``abs``.  Parsed trees are immutable
and support exact symbolic differentiation (except through ``abs``).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "BinOp",
    "Neg",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "EvalError",
    "NonDifferentiableError",
    "parse",
    "evaluate",
    "evaluate_all",
    "differentiate",
    "free_variables",
]

VARIABLES = ("t", "theta")
FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")
MAX_NESTING = 300  # deeper input would exhaust Python's recursion limit in the parser or in evaluate


class ExprError(ValueError):
    """Base class for expression-layer failures."""


class ExprSyntaxError(ExprError):
    """Malformed source text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Unbound variable, division by zero, domain error, or non-finite result."""


class NonDifferentiableError(ExprError):
    """Symbolic derivative requested through a non-differentiable node."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Const, Var, BinOp, Neg, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip over whitespace-only tail
            rest = source[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError(f"unexpected character {source[bad]!r}", bad)
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*;
    term := factor (('*'|'/') factor)*;
    factor := number | 'pi' | 't' | 'theta' | func '(' expr ')' | '(' expr ')' | '-' factor
    """

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0  # enclosing function calls, parentheses and unary minus signs

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        self.advance()

    def parse(self) -> Expr:
        e, _ = self.expr()
        kind, text, offset = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected {text!r}", offset)
        return e

    # each rule returns (tree, height): the BinOp, Neg and Call nodes on its
    # longest path, so a flat operator chain counts one level per operator

    def expr(self) -> tuple[Expr, int]:
        e, height = self.term()
        while True:
            kind, text, offset = self.peek()
            if kind != "op" or text not in "+-":
                return e, height
            self.advance()
            right, right_height = self.term()
            e, height = BinOp(text, e, right), self.above(max(height, right_height), offset)

    def term(self) -> tuple[Expr, int]:
        e, height = self.factor()
        while True:
            kind, text, offset = self.peek()
            if kind != "op" or text not in "*/":
                return e, height
            self.advance()
            right, right_height = self.factor()
            e, height = BinOp(text, e, right), self.above(max(height, right_height), offset)

    @staticmethod
    def above(height: int, offset: int) -> int:
        if height == MAX_NESTING:
            raise ExprSyntaxError(f"nested deeper than {MAX_NESTING} levels", offset)
        return height + 1

    def factor(self) -> tuple[Expr, int]:
        kind, text, offset = self.advance()
        if kind == "number":
            return Const(float(text)), 0
        if kind == "ident" and text not in FUNCTIONS:
            if text == "pi":
                return Const(math.pi), 0
            if text in VARIABLES:
                return Var(text), 0
            raise ExprSyntaxError(f"unknown identifier {text!r}", offset)
        if kind == "eof" or (kind == "op" and text not in "(-"):
            raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", offset)
        # a function call, a parenthesis or a unary minus: one level deeper
        self.depth = self.above(self.depth, offset)
        if text == "-":
            operand, height = self.factor()
            e, height = Neg(operand), self.above(height, offset)
        elif text == "(":
            e, height = self.expr()
            self.expect_op(")")
        else:
            self.expect_op("(")
            arg, height = self.expr()
            e, height = Call(text, arg), self.above(height, offset)
            self.expect_op(")")
        self.depth -= 1
        return e, height


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree.

    Raises :class:`ExprSyntaxError` with the byte offset on malformed input,
    on identifiers outside the grammar, on function calls, parentheses and
    unary minus signs nested more than ``MAX_NESTING`` deep, and on a tree
    taller than that, a flat chain of operators included.
    """
    if not isinstance(source, str) or source.strip() == "":
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(source).parse()


_FUNC_IMPL = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "abs": abs,
}

_ARRAY_FUNC_IMPL = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


def evaluate(e: Expr, bindings: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
    """Evaluate ``e`` with the given variable bindings.

    A binding may be a float or a numpy array (a whole theta grid, say); with
    an array binding the tree is walked once by :func:`evaluate_all`, so the
    result is an array wherever an array variable reaches it.  Division by
    zero, function domain errors, and non-finite results all raise
    :class:`EvalError` instead of propagating IEEE specials; on arrays they
    raise when they would at any single element.
    """
    try:
        return _finite(_eval(e, bindings))
    except _ArrayBinding:
        return evaluate_all((e,), bindings)[0]


def evaluate_all(exprs: tuple[Expr, ...], bindings: Mapping[str, float | np.ndarray]) -> list:
    """Evaluate each of ``exprs`` in turn, as :func:`evaluate` would, in one pass.

    A node object met twice, within one tree or across them (a derivative
    from :func:`differentiate` shares subtrees with its expression), is
    computed once, and the pass runs under one ``np.errstate``.  Sharing a
    node changes no bit of any value.
    """
    memo: dict[int, float | np.ndarray] = {}
    # IEEE overflow to inf is not an error here, as for Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        return [_finite(_eval_shared(e, bindings, memo)) for e in exprs]


def _finite(value: float | np.ndarray) -> float | np.ndarray:
    if isinstance(value, np.ndarray):
        if not np.all(np.isfinite(value)):
            raise EvalError("non-finite result in array evaluation")
    elif not math.isfinite(value):
        raise EvalError(f"non-finite result {value!r}")
    return value


class _ArrayBinding(Exception):
    """Raised by the scalar walk at a variable bound to an array."""


def _eval(e: Expr, bindings: Mapping[str, float | np.ndarray]) -> float:
    """The scalar walk; it raises :class:`_ArrayBinding` on an array variable."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            value = bindings[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
        if isinstance(value, np.ndarray):
            raise _ArrayBinding
        return float(value)
    if isinstance(e, Neg):
        return -_eval(e.operand, bindings)
    if isinstance(e, BinOp):
        return _binop(e.op, _eval(e.left, bindings), _eval(e.right, bindings))
    return _call(e.func, _eval(e.arg, bindings))


def _eval_shared(e: Expr, bindings: Mapping[str, float | np.ndarray], memo: dict) -> float | np.ndarray:
    """The walk of :func:`evaluate_all`: ``memo`` maps id(node) to its value.
    A node without an array below it takes the scalar walk's operations."""
    value = memo.get(id(e))
    if value is not None:
        return value
    if isinstance(e, Neg):
        value = -_eval_shared(e.operand, bindings, memo)
    elif isinstance(e, BinOp):
        value = _binop(e.op, _eval_shared(e.left, bindings, memo), _eval_shared(e.right, bindings, memo))
    elif isinstance(e, Call):
        arg = _eval_shared(e.arg, bindings, memo)
        value = _array_call(e.func, arg) if isinstance(arg, np.ndarray) else _call(e.func, arg)
    elif isinstance(e, Var) and isinstance(bindings.get(e.name), np.ndarray):
        value = bindings[e.name].astype(float, copy=False)
    else:  # a constant or a scalar variable
        value = _eval(e, bindings)
    memo[id(e)] = value
    return value


def _binop(op: str, left, right):
    """One arithmetic node on floats, or on arrays under the caller's errstate."""
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if np.any(right == 0.0) if isinstance(right, np.ndarray) else right == 0.0:
        raise EvalError("division by zero")
    return left / right


def _call(func: str, arg: float) -> float:
    try:
        return _FUNC_IMPL[func](arg)
    except (ValueError, OverflowError) as exc:
        raise EvalError(f"{func}: {exc}") from None


def _array_call(func: str, arg: np.ndarray) -> np.ndarray:
    """One function node on an array, under the caller's errstate: the
    element-wise counterparts of the math module's ValueError/OverflowError."""
    if func == "sqrt" and np.any(arg < 0.0):
        raise EvalError("sqrt: math domain error")
    if func in ("sin", "cos") and np.any(np.isinf(arg)):
        raise EvalError(f"{func}: math domain error")
    value = _ARRAY_FUNC_IMPL[func](arg)
    if func == "exp" and np.any(np.isinf(value) & np.isfinite(arg)):
        raise EvalError("exp: math range error")
    return value


# Folding constructors keep derivatives readable (0 + x -> x etc.); this is
# peephole constant folding only, not a simplification engine.

def _const(v: float) -> Const:
    return Const(float(v))


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value - b.value)
    if _is_const(a, 0.0):
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value * b.value)
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return _const(0.0)
    if _is_const(b, 1.0):
        return a
    return BinOp("/", a, b)


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic derivative of ``e`` with respect to ``var``.

    Raises :class:`NonDifferentiableError` when ``abs`` appears in ``e``.
    """
    if var not in VARIABLES:
        raise ExprError(f"cannot differentiate with respect to {var!r}")
    return _diff(e, var)


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Const):
        return _const(0.0)
    if isinstance(e, Var):
        return _const(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        d = _diff(e.operand, var)
        return _const(-d.value) if isinstance(d, Const) else Neg(d)
    if isinstance(e, BinOp):
        dl = _diff(e.left, var)
        dr = _diff(e.right, var)
        if e.op == "+":
            return _add(dl, dr)
        if e.op == "-":
            return _sub(dl, dr)
        if e.op == "*":
            return _add(_mul(dl, e.right), _mul(e.left, dr))
        num = _sub(_mul(dl, e.right), _mul(e.left, dr))
        return _div(num, _mul(e.right, e.right))
    da = _diff(e.arg, var)
    if e.func == "sin":
        return _mul(Call("cos", e.arg), da)
    if e.func == "cos":
        inner = _mul(Call("sin", e.arg), da)
        return _const(0.0) if _is_const(inner, 0.0) else Neg(inner)
    if e.func == "exp":
        return _mul(e, da)
    if e.func == "sqrt":
        return _div(da, _mul(_const(2.0), e))
    raise NonDifferentiableError("derivative of abs is not defined")


def free_variables(e: Expr) -> frozenset[str]:
    """The names of the variables that occur in ``e``."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, BinOp):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Neg):
        return free_variables(e.operand)
    if isinstance(e, Call):
        return free_variables(e.arg)
    return frozenset()
