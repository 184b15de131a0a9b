"""Motion functionals and verdicts for the tracked POPUC zero.

The measure decides the continuous terms.  With f(theta) = (d/dt weight)/weight,
the per-mass functional W_j (:func:`w_mass`) gains -gamma_j s f(phi) when the
AC part moves, and verdicts also test the density functional
W(theta) = s(theta) (f(theta) - f(phi)) and the monotonicity of f when f can
depend on theta (a ``custom`` weight; for the others W(theta) is exactly zero).

The regime (``theorem``) only picks the reference zero theta0, in
:func:`reference_index`: the pinned zero under ``t21`` and ``t23`` (one
computation under two names), the conjugate partner under ``t22``, where
W_j = 2 sin(phi) W~_j because s(theta; phi, -phi) = 2 sin(phi) s~(theta, phi).
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
    "w_mass",
    "w_continuous",
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
    # f(theta) = (d/dt weight)/weight, element-wise on an array of angles, for
    # a weight whose f can depend on theta; else None and f is f_const (zero
    # without an AC part), so verdicts and balance checks skip the density term
    f_theta: Callable[[np.ndarray], np.ndarray] | None = None
    f_const: float = 0.0

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
        return self.f_const if self.f_theta is None else float(self.f_theta(self.phi))

    def collisions(self) -> list[tuple[int, int]]:
        """(mass index, zero index) pairs closer than the angle tolerance."""
        hits = []
        for j, om in enumerate(self.omegas):
            for k, ph in enumerate(self.phases):
                if circular_gap(om, ph) < ANGLE_TOL:
                    hits.append((j, k))
        return hits


def _ac_log_derivative(m: Measure, t: float) -> tuple[Callable | None, float]:
    """(f_theta, f_const) of f(theta; t) = (d/dt weight)/weight for the AC part:
    f_theta, for a ``custom`` weight only, maps an array of angles to an array
    in one evaluation pass; the other weights have a constant f."""
    ac = m.ac
    if ac.kind == "none":
        return None, 0.0
    if ac.kind in ("lebesgue", "bernstein_szego"):
        s = evaluate(ac.scale, {"t": t})
        if s <= 0:
            raise PredicateError(f"AC scale {s} not positive at t={t}")
        return None, evaluate(ac.d_dt, {"t": t}) / s

    def f(theta: np.ndarray) -> np.ndarray:
        bindings = {"theta": theta, "t": t}
        w = np.broadcast_to(evaluate(ac.weight, bindings), np.shape(theta))
        vanishing = w <= 0
        if np.any(vanishing):
            bad = np.broadcast_to(theta, w.shape)[vanishing]
            raise PredicateError(f"weight vanishes at theta={float(bad[0])!r}")
        return evaluate(ac.d_dt, bindings) / w

    return f, 0.0


def reference_index(zs: ZeroSet, tracked: int, theorem: str) -> int | None:
    """Index of the zero that zero ``tracked`` is measured against: its
    conjugate partner under t22, else the pinned zero; None when there is no
    such zero or it is the tracked zero itself."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem selector {theorem!r}")
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
    f_theta, f_const = _ac_log_derivative(m, t)
    return MotionContext(
        phases=zs.phases,
        fixed_index=int(reference),
        tracked_index=int(tracked),
        gammas=gam,
        omegas=om,
        dgammas=dgam,
        domegas=dom,
        t=t,
        f_theta=f_theta,
        f_const=f_const,
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


def w_mass(j: int, ctx: MotionContext) -> float:
    """W_j = s gamma_j' - gamma_j s S omega_j' - gamma_j s f(phi), with s and the
    cotangent sum S at omega_j."""
    s = s_factor(ctx.omegas[j], ctx.phi, ctx.theta0)
    value = s * ctx.dgammas[j]
    if ctx.domegas[j] != 0.0:
        value -= ctx.gammas[j] * s * s_sum(ctx.omegas[j], ctx) * ctx.domegas[j]
    f_phi = ctx.f_at_phi
    if f_phi != 0.0:
        value -= ctx.gammas[j] * s * f_phi
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


# the regimes; each picks its reference zero in reference_index
THEOREMS = ("t21", "t22", "t23")


def mass_functionals(ctx: MotionContext) -> np.ndarray:
    """W_j for every mass, as an array."""
    return np.array([w_mass(j, ctx) for j in range(len(ctx.gammas))])


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
        w_masses = mass_functionals(ctx)
    except PredicateError:
        return _inconclusive(ctx, theorem, ["pole"])

    wc_min = wc_max = 0.0
    nondecreasing = nonincreasing = True
    if ctx.f_theta is not None:
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
        and nondecreasing
    ):
        label = "CCW"
        mirrored = False
    elif (
        bool(np.all(w_masses <= NONNEG_TOL * scale))
        and (float(np.min(w_masses, initial=0.0)) < -STRICT_TOL * scale or wc_min < -STRICT_TOL * scale)
        and nonincreasing
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
