"""Motion functionals and verdicts for the tracked POPUC zero.

Three regimes are supported:

  - ``t21``: purely discrete measures (per-mass functionals W_j);
  - ``t22``: a tracked pair of complex-conjugate zeros: the t21 functionals
    measured against the conjugate partner, W_j = 2 sin(phi) W~_j, because
    s(theta; phi, -phi) = 2 sin(phi) s~(theta, phi);
  - ``t23``: mixed measures (W_j with a continuous correction, plus the
    density functional W(theta) and the monotonicity of
    f(theta) = (d/dt weight)/weight).  Only a ``custom`` weight's f can
    depend on theta; for the others W(theta) is exactly zero, so the verdict
    tests no continuous part (``MotionContext.f_varies``).

The reference zero (theta0) is chosen in one place, :func:`reference_index`.
A verdict of CCW (counterclockwise), CW, Stationary, or Inconclusive is
returned together with the supporting numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .expressions import evaluate
from .measures import ANGLE_TOL, Measure, circular_gap, theta_grid
from .paraorthogonal import ZeroSet

__all__ = [
    "MotionContext",
    "VerdictReport",
    "PredicateError",
    "reference_index",
    "motion_context",
    "s_factor",
    "s_sum",
    "w_discrete",
    "w_continuous",
    "w_mixed",
    "THEOREMS",
    "mass_functionals",
    "verdict",
]

# "nonnegative" slack and "strictly positive" threshold, relative to scale
NONNEG_TOL = 1e-12
STRICT_TOL = 1e-10
POLE_TOL = 1e-12
# midpoint nodes of the theta grid on which verdicts test the continuous part
VERDICT_NODES = 512


class PredicateError(ValueError):
    """Pole collision or ill-posed motion context."""


@dataclass(frozen=True)
class MotionContext:
    """Zero configuration plus measure derivative data at one parameter value."""

    phases: np.ndarray
    fixed_index: int  # the reference zero theta0 (see reference_index)
    tracked_index: int
    gammas: np.ndarray
    omegas: np.ndarray
    dgammas: np.ndarray
    domegas: np.ndarray
    t: float
    # f(theta) = (d/dt weight)/weight, element-wise on an array of angles
    f_theta: Callable[[np.ndarray], np.ndarray] | None = None
    # False when f is constant in theta: then s(theta)(f(theta) - f(phi)) is
    # exactly zero, and verdicts and balance checks skip the continuous part
    f_varies: bool = True

    @property
    def theta0(self) -> float:
        return float(self.phases[self.fixed_index])

    @property
    def phi(self) -> float:
        return float(self.phases[self.tracked_index])

    @cached_property
    def ac_nodes(self) -> np.ndarray:
        """Midpoint nodes from theta0 on which verdicts test the continuous part."""
        return theta_grid(self.theta0, VERDICT_NODES, midpoint=True)

    @cached_property
    def f_at_phi(self) -> float:
        return 0.0 if self.f_theta is None else float(self.f_theta(self.phi))

    def collisions(self) -> list[tuple[int, int]]:
        """(mass index, zero index) pairs closer than the angle tolerance."""
        hits = []
        for j, om in enumerate(self.omegas):
            for k, ph in enumerate(self.phases):
                if circular_gap(om, ph) < ANGLE_TOL:
                    hits.append((j, k))
        return hits


def _ac_log_derivative(m: Measure, t: float) -> Callable[[np.ndarray], np.ndarray] | None:
    """f(theta; t) = (d/dt weight)/weight for the AC part, or None if absent.

    The returned function maps an array of angles to an array of the same
    shape in one evaluation pass."""
    ac = m.ac
    if ac.kind == "none":
        return None
    if ac.kind in ("lebesgue", "bernstein_szego"):
        s = evaluate(ac.scale, {"t": t})
        if s <= 0:
            raise PredicateError(f"AC scale {s} not positive at t={t}")
        value = evaluate(ac.d_dt, {"t": t}) / s
        return lambda theta: np.full(np.shape(theta), value)

    def f(theta: np.ndarray) -> np.ndarray:
        bindings = {"theta": theta, "t": t}
        w = np.broadcast_to(evaluate(ac.weight, bindings), np.shape(theta))
        vanishing = w <= 0
        if np.any(vanishing):
            bad = np.broadcast_to(theta, w.shape)[vanishing]
            raise PredicateError(f"weight vanishes at theta={float(bad[0])!r}")
        return evaluate(ac.d_dt, bindings) / w

    return f


def reference_index(zs: ZeroSet, tracked: int, theorem: str) -> int | None:
    """Index of the zero that zero ``tracked`` is measured against: its
    conjugate partner under t22, else the pinned zero; None when there is no
    such zero or it is the tracked zero itself."""
    ref = zs.nearest_index(-zs.phases[tracked]) if theorem == "t22" else zs.fixed_index
    return None if ref == tracked else ref


def motion_context(
    m: Measure, zs: ZeroSet, reference: int, tracked: int, t: float
) -> MotionContext:
    """Assemble a :class:`MotionContext` for zero ``tracked`` of ``zs``
    measured against zero ``reference``.

    Mass derivative data comes from exact symbolic differentiation of the
    gamma/omega expressions, done once per mass (``MassPoint.d_dt``).
    """
    gam, om = m.mass_values(t)
    dgam = np.array([evaluate(mp.d_dt[0], {"t": t}) for mp in m.masses])
    dom = np.array([evaluate(mp.d_dt[1], {"t": t}) for mp in m.masses])
    return MotionContext(
        phases=zs.phases,
        fixed_index=int(reference),
        tracked_index=int(tracked),
        gammas=gam,
        omegas=om,
        dgammas=dgam,
        domegas=dom,
        t=t,
        f_theta=_ac_log_derivative(m, t),
        f_varies=m.ac.kind == "custom",
    )


def s_factor(theta: float | np.ndarray, phi: float, theta0: float) -> float | np.ndarray:
    """sin((phi-theta0)/2) / (2 sin((phi-theta)/2) sin((theta0-theta)/2)),
    element-wise over an array ``theta``; a pole at any element raises."""
    if np.any((circular_gap(theta, phi) < POLE_TOL) | (circular_gap(theta, theta0) < POLE_TOL)):
        raise PredicateError("s-factor pole: theta collides with phi or theta0")
    return math.sin(0.5 * (phi - theta0)) / (
        2.0 * np.sin(0.5 * (phi - theta)) * np.sin(0.5 * (theta0 - theta))
    )


def s_sum(theta: float, ctx: MotionContext) -> float:
    """Cotangent sum over all zeros; the reference and tracked terms weigh 1/2."""
    total = 0.0
    for k, ph in enumerate(ctx.phases):
        if circular_gap(theta, ph) < POLE_TOL:
            raise PredicateError("cotangent pole: theta collides with a zero")
        weight = 0.5 if k in (ctx.fixed_index, ctx.tracked_index) else 1.0
        total += weight / math.tan(0.5 * (ph - theta))
    return total


def w_discrete(j: int, ctx: MotionContext) -> float:
    """Per-mass functional for purely discrete measures."""
    s = s_factor(ctx.omegas[j], ctx.phi, ctx.theta0)
    value = s * ctx.dgammas[j]
    if ctx.domegas[j] != 0.0:
        value -= ctx.gammas[j] * s * s_sum(ctx.omegas[j], ctx) * ctx.domegas[j]
    return value


def w_continuous(
    theta: float | np.ndarray, ctx: MotionContext, f_values: np.ndarray | None = None
) -> float | np.ndarray:
    """Density functional s(theta) * (f(theta) - f(phi)) for mixed measures,
    element-wise over an array ``theta``.  ``f_values`` are f at ``theta``
    when the caller has them already."""
    if ctx.f_theta is None:
        return 0.0
    if f_values is None:
        f_values = ctx.f_theta(theta)
    return s_factor(theta, ctx.phi, ctx.theta0) * (f_values - ctx.f_at_phi)


def w_mixed(j: int, ctx: MotionContext) -> float:
    """Discrete functional with the continuous-part correction term."""
    value = w_discrete(j, ctx)
    f_phi = ctx.f_at_phi
    if f_phi != 0.0:
        value -= ctx.gammas[j] * s_factor(ctx.omegas[j], ctx.phi, ctx.theta0) * f_phi
    return value


# the per-mass functional W_j of each regime
_FUNCTIONALS = {"t21": w_discrete, "t22": w_discrete, "t23": w_mixed}
THEOREMS = tuple(_FUNCTIONALS)


def mass_functionals(ctx: MotionContext, theorem: str) -> np.ndarray:
    """W_j of the ``theorem``'s regime for every mass, as an array."""
    if theorem not in _FUNCTIONALS:
        raise ValueError(f"unknown theorem selector {theorem!r}")
    functional = _FUNCTIONALS[theorem]
    return np.array([functional(j, ctx) for j in range(len(ctx.gammas))])


@dataclass(frozen=True)
class VerdictReport:
    verdict: str  # CCW | CW | Stationary | Inconclusive
    theorem: str  # t21 | t22 | t23
    w_masses: np.ndarray
    w_continuous_min: float
    w_continuous_max: float
    flags: tuple[str, ...]
    mirrored: bool
    tracked_phase: float
    fixed_phase: float

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "theorem": self.theorem,
            "w_masses": [float(w) for w in self.w_masses],
            "w_continuous_min": self.w_continuous_min,
            "w_continuous_max": self.w_continuous_max,
            "flags": list(self.flags),
            "mirrored": self.mirrored,
            "tracked_phase": self.tracked_phase,
            "fixed_phase": self.fixed_phase,
        }


def _inconclusive(ctx: MotionContext, theorem: str, flags: list[str]) -> VerdictReport:
    return VerdictReport(
        verdict="Inconclusive",
        theorem=theorem,
        w_masses=np.array([]),
        w_continuous_min=0.0,
        w_continuous_max=0.0,
        flags=tuple(flags),
        mirrored=False,
        tracked_phase=ctx.phi,
        fixed_phase=ctx.theta0,
    )


def _f_monotone(values: np.ndarray) -> tuple[bool, bool]:
    """(nondecreasing, nonincreasing) of f values across the sorted node grid."""
    tol = NONNEG_TOL * (1.0 + float(np.max(np.abs(values), initial=0.0)))
    diffs = np.diff(values)
    return bool(np.all(diffs >= -tol)), bool(np.all(diffs <= tol))


def verdict(ctx: MotionContext, theorem: str = "t21") -> VerdictReport:
    """Classify the tracked zero's motion as CCW, CW, Stationary, or
    Inconclusive, with a ``mirrored`` flag when the clockwise (sign-flipped)
    criterion fired.
    """
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem selector {theorem!r}")
    flags: list[str] = []
    if ctx.collisions():
        return _inconclusive(ctx, theorem, ["collision"])
    if theorem == "t22" and not abs(math.remainder(ctx.phi + ctx.theta0, 2.0 * math.pi)) <= 1e-8:
        return _inconclusive(ctx, theorem, ["non_conjugate_pair"])

    try:
        w_masses = mass_functionals(ctx, theorem)
    except PredicateError:
        return _inconclusive(ctx, theorem, ["pole"])

    wc_min = wc_max = 0.0
    nondecreasing = nonincreasing = True
    if theorem == "t23" and ctx.f_theta is not None and ctx.f_varies:
        nodes = ctx.ac_nodes
        f_nodes = ctx.f_theta(nodes)
        usable = (circular_gap(nodes, ctx.phi) > 1e-9) & (circular_gap(nodes, ctx.theta0) > 1e-9)
        wc = w_continuous(nodes[usable], ctx, f_nodes[usable])
        if len(wc):
            wc_min = float(np.min(wc))
            wc_max = float(np.max(wc))
        nondecreasing, nonincreasing = _f_monotone(f_nodes)
        if not nondecreasing:
            flags.append("f_not_nondecreasing")

    scale = float(np.max(np.abs(w_masses), initial=0.0)) + max(abs(wc_min), abs(wc_max))
    stationary = bool(np.all(np.abs(w_masses) <= NONNEG_TOL)) and max(
        abs(wc_min), abs(wc_max)
    ) <= NONNEG_TOL
    if stationary:
        label = "Stationary"
        mirrored = False
    elif (
        bool(np.all(w_masses >= -NONNEG_TOL * scale))
        and (float(np.max(w_masses, initial=0.0)) > STRICT_TOL * scale or wc_max > STRICT_TOL * scale)
        and (theorem != "t23" or nondecreasing)
    ):
        label = "CCW"
        mirrored = False
    elif (
        bool(np.all(w_masses <= NONNEG_TOL * scale))
        and (float(np.min(w_masses, initial=0.0)) < -STRICT_TOL * scale or wc_min < -STRICT_TOL * scale)
        and (theorem != "t23" or nonincreasing)
    ):
        label = "CW"
        mirrored = True
        flags.append("mirrored")
    else:
        label = "Inconclusive"
        mirrored = False
    return VerdictReport(
        verdict=label,
        theorem=theorem,
        w_masses=w_masses,
        w_continuous_min=wc_min,
        w_continuous_max=wc_max,
        flags=tuple(flags),
        mirrored=mirrored,
        tracked_phase=ctx.phi,
        fixed_phase=ctx.theta0,
    )
