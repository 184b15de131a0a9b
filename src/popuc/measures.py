"""Parameter-dependent measures on the unit circle and their trigonometric moments.

A measure is an optional absolutely continuous weight (against dtheta/2pi)
plus a finite list of point masses whose weights and locations are
expressions in the parameter ``t``.  Moments c_k = int e^{-ik theta} dmu of a
weight A(t) B(theta) are A(t) times the moments of B (:meth:`ACWeight.b_moments`):
the Poisson kernel's lam^k for ``bernstein_szego`` (``lebesgue`` is lam = 0), and
for a ``custom`` weight the periodic trapezoid rule, every c_k at once from one FFT
of B once per node count; a ``custom`` weight with a factor that mixes t and theta
takes one FFT of its whole density at each t.
Only this module evaluates the measure: once per grid point, into the
:class:`MeasureSample` that :func:`moments` hands on to the motion functionals,
whose f = (d/dt w)/w it decides (:meth:`MeasureSample.log_derivative`, ``MotionContext.f_grid``).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .expressions import BinOp, Const, Expr, Neg, differentiate, evaluate, evaluate_all, free_variables, parse

__all__ = [
    "MassPoint",
    "ACWeight",
    "Measure",
    "MeasureSample",
    "MomentSequence",
    "MeasureError",
    "moments",
    "quadrature_moment",
    "circular_gap",
    "known_keys",
    "json_number", "json_pair",
    "theta_grid",
    "DEFAULT_NODES",
    "MIN_NODES",
]

DEFAULT_NODES = 4096
# fewest nodes any theta grid may have
MIN_NODES = 16

# coincidence / collision tolerance for angles, modulo 2 pi
ANGLE_TOL = 1e-9

# the keys besides "kind" that Measure.from_json reads from each kind's ac object
AC_KEYS = {"none": (), "lebesgue": ("scale",), "bernstein_szego": ("lambda", "scale"), "custom": ("w",)}


class MeasureError(ValueError):
    """Invalid measure data at the queried parameter value."""


def circular_gap(a: float | np.ndarray, b: float | np.ndarray) -> float | np.ndarray:
    """Distance between angles ``a`` and ``b`` modulo 2 pi, in [0, pi];
    element-wise when either is an array."""
    d = (a - b) % (2.0 * math.pi)
    if isinstance(d, np.ndarray):
        return np.minimum(d, 2.0 * math.pi - d)
    return min(d, 2.0 * math.pi - d)


def theta_grid(theta0: float, nodes: int) -> np.ndarray:
    """``nodes`` equispaced angles over one period from ``theta0``: the
    trapezoid nodes theta0 + 2 pi j / nodes."""
    if nodes < MIN_NODES:
        raise MeasureError(f"a theta grid needs at least {MIN_NODES} nodes, got {nodes}")
    return theta0 + 2.0 * math.pi * np.arange(nodes) / nodes


def known_keys(obj: dict, where: str, keys: tuple[str, ...]) -> dict:
    """``obj``, once it is a JSON object with no key outside ``keys``; another
    value or a misspelt key raises ValueError naming it, not a later TypeError."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    if set(obj) - set(keys):
        raise ValueError(f"unknown {where} key(s) {sorted(set(obj) - set(keys))}")
    return obj


def json_number(obj: dict, key: str, default, kinds: tuple[type, ...] = (int, float)):
    """``obj[key]``, or ``default`` when absent; a bool or a value of no type in
    ``kinds`` (by default a number, e.g. a numpy float) raises ValueError naming the key."""
    value = obj.get(key, default)
    if not isinstance(value, kinds) or isinstance(value, bool):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"config key {key!r} must be a JSON {names}, got {value!r}")
    return value


def json_pair(obj: dict, key: str, default=None) -> complex:
    """re + i im from the [re, im] pair (a list, tuple or array) of numbers ``obj[key]``."""
    value = obj.get(key, default)
    pair = isinstance(value, (list, tuple, np.ndarray)) and len(value) == 2
    if not pair or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise ValueError(f"config key {key!r} must be a [re, im] pair of numbers, got {value!r}")
    return complex(*value)


def _as_expr(value: Expr | str | float) -> Expr:
    """The Expr of source text, of a finite number (not a bool) or itself; else ValueError."""
    if isinstance(value, str):
        return parse(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not abs(value) <= sys.float_info.max:  # inf and nan (JSON reads 1e400 as inf)
            raise ValueError(f"an expression number must be finite, got {value!r}")
        return parse(repr(float(value)))
    if isinstance(value, Expr):
        return value
    raise ValueError(f"an expression must be a string or a number, got {value!r}")


def _json_expr(value, where: str) -> Expr:
    """:func:`_as_expr` of a config value; its error, of the same type, names ``where``
    (say ``masses[0].gamma``) before the message."""
    try:
        return _as_expr(value)
    except ValueError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def _factors(e: Expr) -> tuple[Expr, Expr] | None:
    """(A(t), B(theta)) with ``e`` = A B along its spine of products, quotients and
    minus signs: A is ``e`` with its constant and theta-only factors as 1 and its signs
    dropped, B the rest.  None when a factor holds both t and theta."""
    if isinstance(e, Neg):
        split = _factors(e.operand)
        return None if split is None else (split[0], Neg(split[1]))
    if isinstance(e, BinOp) and e.op in ("*", "/"):
        left, right = _factors(e.left), _factors(e.right)
        if left is None or right is None:
            return None
        return BinOp(e.op, left[0], right[0]), BinOp(e.op, left[1], right[1])
    names = free_variables(e)
    if "t" not in names:
        return Const(1.0), e
    return None if "theta" in names else (e, Const(1.0))


@dataclass(frozen=True)
class MassPoint:
    """Point mass gamma(t) * delta(theta - omega(t))."""

    gamma: Expr
    omega: Expr

    @classmethod
    def of(cls, gamma: Expr | str | float, omega: Expr | str | float) -> "MassPoint":
        return cls(_as_expr(gamma), _as_expr(omega))

    @cached_property
    def d_dt(self) -> tuple[Expr, Expr]:
        """(d gamma/dt, d omega/dt), differentiated once per mass."""
        return differentiate(self.gamma, "t"), differentiate(self.omega, "t")


@dataclass(frozen=True)
class ACWeight:
    """Absolutely continuous part, a density against dtheta/2pi.

    kinds:
      - ``none``: no continuous part
      - ``bernstein_szego``: scale(t) * (1-|lam|^2)/|1-lam e^{i theta}|^2;
        its lam = 0 case, scale(t) alone, is :meth:`lebesgue`
      - ``custom``: arbitrary nonnegative expression in theta and t
    """

    kind: str
    scale: Expr | None = None
    lam: complex = 0j
    weight: Expr | None = None
    # b_moments' tables: lam^k per K for bernstein_szego, fft(B)/nodes per node count for custom
    _b_moments: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("none", "bernstein_szego", "custom"):
            raise MeasureError(f"unknown AC kind {self.kind!r}")
        if self.kind == "bernstein_szego" and (self.scale is None or abs(self.lam) >= 1.0):
            raise MeasureError("bernstein_szego requires a scale and |lambda| < 1")
        if self.kind == "custom" and self.weight is None:
            raise MeasureError("custom weight requires an expression")

    @classmethod
    def none(cls) -> "ACWeight":
        return cls("none")

    @classmethod
    def lebesgue(cls, scale: Expr | str | float = 1.0) -> "ACWeight":
        return cls.bernstein_szego(0, scale)

    @classmethod
    def bernstein_szego(cls, lam: complex, scale: Expr | str | float = 1.0) -> "ACWeight":
        return cls("bernstein_szego", scale=_as_expr(scale), lam=complex(lam))

    @classmethod
    def custom(cls, weight: Expr | str) -> "ACWeight":
        return cls("custom", weight=_as_expr(weight))

    @cached_property
    def d_dt(self) -> Expr | None:
        """d/dt of a ``custom`` weight (None for the other kinds), built once: for a
        weight with no :attr:`t_factor`, the d/dt that f = (d/dt w)/w takes on arrays of angles."""
        return differentiate(self.weight, "t") if self.kind == "custom" else None

    @cached_property
    def t_factor(self) -> tuple[Expr, Expr] | None:
        """(A, dA/dt) of :attr:`factors`, built once, so that f = (d/dt w)/w = A'/A at
        every theta; None for ``none`` or a mixed factor."""
        return None if self.factors is None else (self.factors[0], differentiate(self.factors[0], "t"))

    @cached_property
    def factors(self) -> tuple[Expr, Expr | None] | None:
        """(A, B) of a weight A(t) B(theta), built once: (scale, None) for ``bernstein_szego``,
        whose B is the Poisson kernel, and for ``custom`` the split of its product/quotient
        spine; None for ``none`` or when a factor on that spine holds both t and theta."""
        if self.kind == "bernstein_szego":
            return self.scale, None
        return _factors(self.weight) if self.kind == "custom" else None

    def b_moments(self, K: int, nodes: int) -> tuple[np.ndarray, bool, bool]:
        """(c_0..c_K of B, B < 0 at a node, B > 0 at a node) of the weight's :attr:`factors`:
        the Poisson kernel's lam^k, with B > 0, built once per ``K``, or the trapezoid
        moments fft(B)/nodes on theta_grid(0, nodes) of a ``custom`` B, once per ``nodes``."""
        if self.kind == "bernstein_szego":  # at lam = 0 (lebesgue) c_0 = 1 and c_k = 0 for k > 0
            if K not in self._b_moments:
                self._b_moments[K] = self.lam ** np.arange(K + 1)
            return self._b_moments[K], False, True
        if nodes not in self._b_moments:
            b = np.broadcast_to(evaluate(self.factors[1], {"theta": theta_grid(0.0, nodes)}), (nodes,))
            self._b_moments[nodes] = np.fft.fft(b) / nodes, bool(np.any(b < 0)), bool(np.any(b > 0))
        fft, negative, positive = self._b_moments[nodes]
        return fft[np.arange(K + 1) % nodes], negative, positive

    def density(self, theta: float | np.ndarray, t: float) -> np.ndarray:
        """The density w(theta; t) against dtheta/2pi, as an array of the
        shape of ``theta``: a whole grid of angles is evaluated in one pass."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "none":
            return np.zeros_like(theta)
        if self.kind == "custom":
            return np.broadcast_to(evaluate(self.weight, {"theta": theta, "t": t}), theta.shape)
        # the Poisson kernel; at lam = 0 (lebesgue) it is exactly the scale
        s = evaluate(self.scale, {"t": t})
        z = np.cos(theta) + 1j * np.sin(theta)
        return s * (1.0 - abs(self.lam) ** 2) / np.abs(1.0 - self.lam * z) ** 2


@dataclass(frozen=True)
class Measure:
    ac: ACWeight
    masses: tuple[MassPoint, ...] = ()

    @classmethod
    def of(cls, ac: ACWeight, masses: Iterable[MassPoint] = ()) -> "Measure":
        return cls(ac, tuple(masses))

    def at(self, t: float, nodes: int = DEFAULT_NODES) -> "MeasureSample":
        """The :class:`MeasureSample` at a finite ``t``; a negative or coincident mass raises MeasureError."""
        if not math.isfinite(t):
            raise MeasureError(f"t must be a finite number, got t={t}")
        gam = np.array([evaluate(m.gamma, {"t": t}) for m in self.masses], dtype=float)
        om = np.array([evaluate(m.omega, {"t": t}) for m in self.masses], dtype=float)
        if (gam < 0).any():
            raise MeasureError(f"negative mass weight at t={t}")
        if len(om) > 1:  # the closest pair is a pair of neighbours round the circle
            ordered = om % (2.0 * math.pi)
            ordered.sort()
            if circular_gap(ordered, ordered[np.arange(-1, len(om) - 1)]).min() < ANGLE_TOL:
                raise MeasureError(f"coincident mass points at t={t}")
        return MeasureSample(self, t, nodes, gam, om)

    @classmethod
    def from_json(cls, obj: dict) -> "Measure":
        """The measure of the documented JSON schema; an unknown key or a value
        of the wrong JSON shape in it, its ``ac`` object or a mass raises ValueError."""
        known_keys(obj, "measure", ("ac", "masses"))
        ac_obj = obj.get("ac", {"kind": "none"})
        kind = ac_obj.get("kind", "none") if isinstance(ac_obj, dict) else "none"
        if not isinstance(kind, str) or kind not in AC_KEYS:
            raise MeasureError(f"unknown AC kind {kind!r}")
        known_keys(ac_obj, "ac", ("kind", *AC_KEYS[kind]))
        if kind == "none":
            ac = ACWeight.none()
        elif kind == "custom":
            ac = ACWeight.custom(_json_expr(ac_obj.get("w"), "ac.w"))
        else:  # lebesgue is bernstein_szego with lambda 0
            lam = json_pair(ac_obj, "lambda") if kind == "bernstein_szego" else 0
            ac = ACWeight.bernstein_szego(lam, _json_expr(ac_obj.get("scale", "1"), "ac.scale"))
        masses = obj.get("masses", ())
        if not isinstance(masses, (list, tuple)):
            raise ValueError(f"measure key 'masses' must be a JSON array, got {masses!r}")
        points = []
        for j, mass in enumerate(masses):
            known_keys(mass, "mass", ("gamma", "omega"))
            gamma, omega = (_json_expr(mass.get(key), f"masses[{j}].{key}") for key in ("gamma", "omega"))
            points.append(MassPoint(gamma, omega))
        return cls.of(ac, points)


@dataclass(frozen=True, eq=False)
class MeasureSample:
    """A measure at one ``t``, read by a grid point's moments, verdicts and balance checks:
    gamma_j(t), omega_j(t), and all else on first read, so a solve evaluates only what it reads."""

    measure: Measure
    t: float
    nodes: int
    gammas: np.ndarray = field(repr=False)
    omegas: np.ndarray = field(repr=False)

    @cached_property
    def grid(self) -> np.ndarray:
        return theta_grid(0.0, self.nodes)

    @cached_property
    def d_masses(self) -> tuple[np.ndarray, np.ndarray]:
        """(gamma_j'(t), omega_j'(t)) from ``MassPoint.d_dt``."""
        masses = self.measure.masses
        return tuple(np.array([evaluate(mp.d_dt[i], {"t": self.t}) for mp in masses]) for i in (0, 1))

    @cached_property
    def factor(self) -> float:
        """A(t) of ``ACWeight.t_factor``, of a sign that keeps the weight nonnegative: A(t)
        may not have the sign opposite to B(theta) at a node, so it is 0 when B changes sign."""
        ac = self.measure.ac
        a = evaluate(ac.t_factor[0], {"t": self.t})
        _, negative, positive = ac.b_moments(0, self.nodes)
        if (a < 0 and positive) or (a > 0 and negative):
            raise MeasureError(f"weight is negative at a quadrature node at t={self.t}")
        return a

    @cached_property
    def density(self) -> np.ndarray:
        """The density on :attr:`grid`, finite and nonnegative, that :func:`quadrature_moment` takes.
        The finiteness check guards the closed kinds: a ``custom`` weight that is not
        finite at a node raises EvalError in ``expressions.evaluate`` first."""
        vals = self.measure.ac.density(self.grid, self.t)
        if not np.all(np.isfinite(vals)):
            raise MeasureError("weight evaluates non-finite at a quadrature node")
        if np.any(vals < 0):
            raise MeasureError(f"weight is negative at a quadrature node at t={self.t}")
        return vals

    def log_derivative(self, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """f = (d/dt w)/w of the AC part at the zero ``phases`` and, only for a weight with no
        t-factor, on :attr:`grid` (else None): zero without an AC part, A'/A for a weight A(t) B(theta).
        A weight with no t-factor is read at the phases reduced into [0, 2 pi), the period the
        moments integrate; a zero t-factor or a weight that vanishes raises MeasureError."""
        ac = self.measure.ac
        if ac.kind == "none":
            return np.zeros(len(phases)), None
        if ac.t_factor is not None:  # weight A(t) B(theta): f = A'/A
            if self.factor == 0.0:
                raise MeasureError(f"weight vanishes at t={self.t}: its t-factor is zero")
            return np.full(len(phases), evaluate(ac.t_factor[1], {"t": self.t}) / self.factor), None
        reduced = np.mod(phases, 2.0 * math.pi)  # 2 pi for a phase an ulp below 0
        theta = np.where(reduced < 2.0 * math.pi, reduced, 0.0)
        w, dw = evaluate_all((ac.weight, ac.d_dt), {"theta": theta, "t": self.t})
        dw_grid = evaluate(ac.d_dt, {"theta": self.grid, "t": self.t})
        theta_all, w_all = np.concatenate([theta, self.grid]), np.concatenate([w, self.density])
        if np.any(w_all <= 0):
            raise MeasureError(f"weight vanishes at theta={float(theta_all[w_all <= 0][0])!r}")
        return dw / w, dw_grid / self.density


@dataclass(frozen=True)
class MomentSequence:
    """Trigonometric moments c_k for k = -K..K at a fixed parameter value.

    Hermitian symmetry c_{-k} = conj(c_k) holds exactly by construction.
    """

    t: float
    K: int
    c: np.ndarray = field(repr=False)
    sample: MeasureSample = field(repr=False)

    def __getitem__(self, k: int) -> complex:
        if abs(k) > self.K:
            raise IndexError(f"moment order {k} exceeds K={self.K}")
        return complex(self.c[k + self.K])

    def toeplitz(self, size: int) -> np.ndarray:
        """The size x size matrix [c_{j-k}]_{0<=j,k<size}."""
        if size - 1 > self.K:
            raise IndexError("insufficient moment order for requested Toeplitz size")
        idx = np.arange(size)
        return self.c[self.K + idx[:, None] - idx[None, :]]


def quadrature_moment(sample: MeasureSample, K: int) -> np.ndarray:
    """Composite trapezoid values of int e^{-ik theta} w(theta; t) dtheta/2pi for k = 0..K,
    as an array, from one FFT of :attr:`MeasureSample.density`: c_k = fft(w)[k mod nodes] / nodes.
    Orders k >= nodes alias exactly as the trapezoid rule aliases them; for smooth periodic
    integrands the convergence is spectral.  :func:`moments` takes this route for a ``custom``
    weight with no t-factor; for A(t) B(theta) it scales B's moments, cached per ``nodes``."""
    return np.fft.fft(sample.density)[np.arange(K + 1) % sample.nodes] / sample.nodes


def _ac_moments(sample: MeasureSample, K: int) -> np.ndarray:
    """c_0..c_K of the absolutely continuous part, which the record checks: A(t) times
    the moments of B(theta) for a weight A(t) B(theta), else by :func:`quadrature_moment`."""
    ac = sample.measure.ac
    if ac.kind == "none":
        return np.zeros(K + 1, dtype=complex)
    if ac.t_factor is None:
        return quadrature_moment(sample, K)
    return sample.factor * ac.b_moments(K, sample.nodes)[0]


def moments(m: Measure, t: float, K: int, nodes: int = DEFAULT_NODES) -> MomentSequence:
    """Moments c_k, k = -K..K, of ``m`` at ``t`` and their record ``m.at(t, nodes)``.
    This is the one admissibility check: a negative or coincident mass, a negative
    density or a total mass that is not positive raises :class:`MeasureError`."""
    if K < 0:
        raise MeasureError("K must be nonnegative")
    sample, k = m.at(t, nodes), np.arange(K + 1)
    gam, om = sample.gammas, sample.omegas
    half = _ac_moments(sample, K) + np.add.reduce(gam * np.exp(-1j * (k[:, None] * om)), axis=1)
    c = np.empty(2 * K + 1, dtype=complex)
    np.conjugate(half[:0:-1], out=c[:K])
    c[K:] = half
    c[K] = c[K].real
    if c[K].real <= 0:
        raise MeasureError(f"total mass {c[K].real} is not positive at t={t}")
    return MomentSequence(t=t, K=K, c=c, sample=sample)
