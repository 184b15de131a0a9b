"""Parameter-dependent measures on the unit circle and their trigonometric moments.

A measure is an optional absolutely continuous weight (against dtheta/2pi)
plus a finite list of point masses whose weights and locations are
expressions in the parameter ``t``.  Moments c_k = int e^{-ik theta} dmu
are produced in closed form where available and otherwise by the periodic
trapezoid rule, every c_k at once from one FFT of the density on the node grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .expressions import Expr, differentiate, evaluate, parse

__all__ = [
    "MassPoint",
    "ACWeight",
    "Measure",
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


class MeasureError(ValueError):
    """Invalid measure data at the queried parameter value."""


def circular_gap(a: float | np.ndarray, b: float | np.ndarray) -> float | np.ndarray:
    """Distance between angles ``a`` and ``b`` modulo 2 pi, in [0, pi];
    element-wise when either is an array."""
    d = (a - b) % (2.0 * math.pi)
    if isinstance(d, np.ndarray):
        return np.minimum(d, 2.0 * math.pi - d)
    return min(d, 2.0 * math.pi - d)


def theta_grid(theta0: float, nodes: int, midpoint: bool = False) -> np.ndarray:
    """``nodes`` equispaced angles over one period from ``theta0``: the
    trapezoid nodes theta0 + 2 pi j / nodes, or with ``midpoint`` the
    midpoints theta0 + 2 pi (j + 1/2) / nodes."""
    if nodes < MIN_NODES:
        raise MeasureError(f"a theta grid needs at least {MIN_NODES} nodes, got {nodes}")
    return theta0 + 2.0 * math.pi * (np.arange(nodes) + (0.5 if midpoint else 0.0)) / nodes


def known_keys(obj: dict, where: str, keys: tuple[str, ...]) -> dict:
    """``obj``, once no key of it lies outside ``keys``; a misspelt key raises
    ValueError naming it instead of silently taking the default."""
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
    if isinstance(value, str):
        return parse(value)
    if isinstance(value, (int, float)):
        return parse(repr(float(value)))
    return value


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
      - ``lebesgue``: scale(t), constant in theta
      - ``bernstein_szego``: scale(t) * (1-|lam|^2)/|1-lam e^{i theta}|^2
      - ``custom``: arbitrary nonnegative expression in theta and t
    """

    kind: str
    scale: Expr | None = None
    lam: complex = 0j
    weight: Expr | None = None

    def __post_init__(self):
        if self.kind not in ("none", "lebesgue", "bernstein_szego", "custom"):
            raise MeasureError(f"unknown AC kind {self.kind!r}")
        if self.kind == "bernstein_szego" and abs(self.lam) >= 1.0:
            raise MeasureError("bernstein_szego requires |lambda| < 1")
        if self.kind == "custom" and self.weight is None:
            raise MeasureError("custom weight requires an expression")

    @classmethod
    def none(cls) -> "ACWeight":
        return cls("none")

    @classmethod
    def lebesgue(cls, scale: Expr | str | float = 1.0) -> "ACWeight":
        return cls("lebesgue", scale=_as_expr(scale))

    @classmethod
    def bernstein_szego(cls, lam: complex, scale: Expr | str | float = 1.0) -> "ACWeight":
        return cls("bernstein_szego", scale=_as_expr(scale), lam=complex(lam))

    @classmethod
    def custom(cls, weight: Expr | str) -> "ACWeight":
        return cls("custom", weight=_as_expr(weight))

    @cached_property
    def d_dt(self) -> Expr | None:
        """d/dt of the scale (the weight for ``custom``; None for ``none``), built once."""
        expr = self.weight if self.kind == "custom" else self.scale
        return None if expr is None else differentiate(expr, "t")

    def density(self, theta: float | np.ndarray, t: float) -> np.ndarray:
        """The density w(theta; t) against dtheta/2pi, as an array of the
        shape of ``theta``: a whole grid of angles is evaluated in one pass."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "none":
            return np.zeros_like(theta)
        if self.kind == "lebesgue":
            return np.full_like(theta, evaluate(self.scale, {"t": t}))
        if self.kind == "bernstein_szego":
            s = evaluate(self.scale, {"t": t})
            z = np.cos(theta) + 1j * np.sin(theta)
            return s * (1.0 - abs(self.lam) ** 2) / np.abs(1.0 - self.lam * z) ** 2
        return np.broadcast_to(evaluate(self.weight, {"theta": theta, "t": t}), theta.shape)


@dataclass(frozen=True)
class Measure:
    ac: ACWeight
    masses: tuple[MassPoint, ...] = ()

    @classmethod
    def of(cls, ac: ACWeight, masses: Iterable[MassPoint] = ()) -> "Measure":
        return cls(ac, tuple(masses))

    def mass_values(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(gamma_j(t), omega_j(t)) arrays, with invariant checks."""
        gam = np.array([evaluate(m.gamma, {"t": t}) for m in self.masses], dtype=float)
        om = np.array([evaluate(m.omega, {"t": t}) for m in self.masses], dtype=float)
        if np.any(gam < 0):
            raise MeasureError(f"negative mass weight at t={t}")
        for i in range(len(om)):
            for j in range(i + 1, len(om)):
                if circular_gap(om[i], om[j]) < ANGLE_TOL:
                    raise MeasureError(f"coincident mass points at t={t}")
        return gam, om

    @classmethod
    def from_json(cls, obj: dict) -> "Measure":
        """The measure of the documented JSON schema; an unknown key in the
        measure, its ``ac`` object or a mass raises ValueError."""
        known_keys(obj, "measure", ("ac", "masses"))
        ac_obj = known_keys(obj.get("ac", {"kind": "none"}), "ac", ("kind", "scale", "lambda", "w"))
        kind = ac_obj.get("kind", "none")
        if kind == "none":
            ac = ACWeight.none()
        elif kind == "lebesgue":
            ac = ACWeight.lebesgue(ac_obj.get("scale", "1"))
        elif kind == "bernstein_szego":
            ac = ACWeight.bernstein_szego(json_pair(ac_obj, "lambda"), ac_obj.get("scale", "1"))
        elif kind == "custom":
            ac = ACWeight.custom(ac_obj["w"])
        else:
            raise MeasureError(f"unknown AC kind {kind!r}")
        masses = []
        for mass in obj.get("masses", ()):
            known_keys(mass, "mass", ("gamma", "omega"))
            masses.append(MassPoint.of(mass["gamma"], mass["omega"]))
        return cls.of(ac, masses)


@dataclass(frozen=True)
class MomentSequence:
    """Trigonometric moments c_k for k = -K..K at a fixed parameter value.

    Hermitian symmetry c_{-k} = conj(c_k) holds exactly by construction.
    """

    t: float
    K: int
    c: np.ndarray = field(repr=False)

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


def quadrature_moment(w: ACWeight, t: float, K: int, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Composite trapezoid values of int e^{-ik theta} w(theta; t) dtheta/2pi
    for k = 0..K, as an array.

    The density is evaluated once, on ``nodes`` points over one period
    starting at 0, and every value comes from one FFT:
    c_k = fft(w)[k mod nodes] / nodes.  Orders k >= nodes alias
    exactly as the trapezoid rule aliases them.  For smooth periodic
    integrands the convergence is spectral.  A non-finite or negative value
    at any node raises :class:`MeasureError`.
    """
    thetas = theta_grid(0.0, nodes)
    vals = w.density(thetas, t)
    if not np.all(np.isfinite(vals)):
        raise MeasureError("weight evaluates non-finite at a quadrature node")
    if np.any(vals < 0):
        raise MeasureError(f"weight is negative at a quadrature node at t={t}")
    return np.fft.fft(vals)[np.arange(K + 1) % nodes] / nodes


def _ac_moments(ac: ACWeight, t: float, K: int, nodes: int) -> np.ndarray:
    """c_0..c_K of the absolutely continuous part; a density negative
    anywhere (for the closed forms, a negative scale) is rejected."""
    if ac.kind == "custom":
        return quadrature_moment(ac, t, K, nodes)
    if ac.kind == "none":
        return np.zeros(K + 1, dtype=complex)
    s = evaluate(ac.scale, {"t": t})
    if s < 0:
        raise MeasureError(f"AC density is negative: scale {s} at t={t}")
    # geometric moments of the Poisson-kernel (squared-modulus) weight;
    # lebesgue is its lam = 0 case, with c_0 = s and c_k = 0 for k > 0
    return s * ac.lam ** np.arange(K + 1)


def moments(m: Measure, t: float, K: int, nodes: int = DEFAULT_NODES) -> MomentSequence:
    """Moments c_k, k = -K..K, of ``m`` at parameter value ``t``.  This is the
    one admissibility check: a negative or coincident mass, a negative density
    or a total mass that is not positive raises :class:`MeasureError`."""
    if K < 0:
        raise MeasureError("K must be nonnegative")
    gam, om = m.mass_values(t)
    k = np.arange(K + 1)
    half = _ac_moments(m.ac, t, K, nodes) + np.sum(gam * np.exp(-1j * np.outer(k, om)), axis=1)
    c = np.concatenate([np.conj(half[:0:-1]), half])
    c[K] = c[K].real
    if c[K].real <= 0:
        raise MeasureError(f"total mass {c[K].real} is not positive at t={t}")
    return MomentSequence(t=t, K=K, c=c)
