"""Motion functionals and verdicts for the POPUC zeros at one parameter value.

The measure decides the continuous terms, from the numbers of its record at
one t (``measures.MeasureSample``): this module evaluates no expression and
reads no AC kind.  With f(theta) = (d/dt weight)/weight, the per-mass
functional W_j gains -gamma_j s f(phi) when the AC part moves, and verdicts
also test the density functional W(theta) = s(theta) (f(theta) - f(phi)) and
the monotonicity of f when f can depend on theta.  The record decides f
(``MeasureSample.log_derivative``): A'/A for every weight A(t) B(theta), for
which W(theta) is exactly zero, and for a ``custom`` weight with a factor that
mixes t and theta, also f on the record's grid, ``MotionContext.f_grid``.

The regime (``theorem``) only picks the reference zero theta0, in
:func:`reference_index`: the pinned zero under ``t21`` and ``t23`` (one
computation under two names), the conjugate partner under ``t22``, where
W_j = 2 sin(phi) W~_j because s(theta; phi, -phi) = 2 sin(phi) s~(theta, phi).
A verdict of CCW (counterclockwise), CW, Stationary, or Inconclusive is
returned together with the supporting numbers.

All zeros at one parameter value share the masses, f and the zero phases:
:func:`motion_context` gathers them once per grid point in a :class:`MotionContext`
from the record they were solved on, and every functional takes the zero pair it
reads, the tracked zero and its reference, as arguments.  :func:`verdicts_along`
decides every zero of every grid point of a sweep in one array pass, each row a
(point, tracked, reference): the W_j form one (rows x masses) table from one
half-angle table per point, and W(theta) one (rows x nodes) table on the moments'
nodes.  Its one-zero case is :func:`verdict` and :func:`mass_functionals`; the scalar
:func:`s_factor` and :func:`s_sum` are its reference.  Verdicts and balance checks share
one pole rule (:func:`_poles`): a row reads a pole when a mass lies within ANGLE_TOL of its
tracked or reference zero, or a moving mass within ANGLE_TOL of any zero.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .expressions import ExprError
from .measures import ANGLE_TOL, MeasureError, MeasureSample, circular_gap, theta_grid
from .paraorthogonal import ZeroSet

__all__ = [
    "MotionContext",
    "VerdictReport",
    "PredicateError",
    "reference_index",
    "conjugate_pair",
    "motion_context",
    "s_factor",
    "s_sum",
    "w_continuous",
    "THEOREMS",
    "mass_functionals",
    "verdict",
    "verdicts_along",
]

# "nonnegative" slack and "strictly positive" threshold, relative to scale
NONNEG_TOL = 1e-12
STRICT_TOL = 1e-10
# verdicts test the continuous part on every (nodes // VERDICT_NODES)-th grid node
VERDICT_NODES = 512
# the verdict labels; a row's label is one of these objects, not a new str per row
LABELS = ("Stationary", "CCW", "CW", "Inconclusive")


class PredicateError(ValueError):
    """Pole collision or ill-posed motion context."""


@dataclass(frozen=True)
class MotionContext:
    """Zero phases plus the measure's motion data at one parameter value, shared
    by every zero: f at the zeros and, when f can depend on theta, on the record's
    grid; the functionals take the zero pair they read as arguments."""

    phases: np.ndarray
    gammas: np.ndarray
    omegas: np.ndarray
    dgammas: np.ndarray
    domegas: np.ndarray
    # f(theta) = (d/dt weight)/weight at each zero phase (zero without an AC part)
    f_phases: np.ndarray
    # f on theta_grid(0, nodes) for a weight whose f can depend on theta; else
    # None, and verdicts and balance checks skip the density term
    f_grid: np.ndarray | None = None


def reference_index(zs: ZeroSet, tracked: int, theorem: str) -> int | None:
    """Index of the zero that zero ``tracked`` is measured against: its
    conjugate partner under t22, else the pinned zero; None when there is no
    such zero or it is the tracked zero itself."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem selector {theorem!r}")
    ref = zs.nearest_index(-zs.phases[tracked]) if theorem == "t22" else zs.fixed_index
    return None if ref == tracked else ref


def conjugate_pair(phi: float, theta0: float) -> bool:
    """Whether phi = -theta0 mod 2 pi within 1e-8, as a t22 pair must be."""
    return abs(math.remainder(phi + theta0, 2.0 * math.pi)) <= 1e-8


def motion_context(sample: MeasureSample, zs: ZeroSet) -> MotionContext:
    """Assemble the :class:`MotionContext` of the measure record ``sample``
    for the zeros ``zs`` solved on it, with f on the record's grid when it
    can depend on theta (``MeasureSample.log_derivative``).

    Mass derivative data comes from exact symbolic differentiation of the
    gamma/omega expressions, done once per mass (``MassPoint.d_dt``).
    """
    return MotionContext(
        zs.phases, sample.gammas, sample.omegas, *sample.d_masses, *sample.log_derivative(zs.phases)
    )


def s_factor(theta: float | np.ndarray, phi: float, theta0: float) -> float | np.ndarray:
    """sin((phi-theta0)/2) / (2 sin((phi-theta)/2) sin((theta0-theta)/2)),
    element-wise over an array ``theta``; a pole at any element raises."""
    if np.any((circular_gap(theta, phi) < ANGLE_TOL) | (circular_gap(theta, theta0) < ANGLE_TOL)):
        raise PredicateError("s-factor pole: theta collides with phi or theta0")
    return math.sin(0.5 * (phi - theta0)) / (
        2.0 * np.sin(0.5 * (phi - theta)) * np.sin(0.5 * (theta0 - theta))
    )


def s_sum(theta: float, phases: np.ndarray, tracked: int, reference: int) -> float:
    """Cotangent sum over the zeros at ``phases``; the terms of zeros
    ``tracked`` and ``reference`` weigh 1/2."""
    total = 0.0
    for k, ph in enumerate(phases):
        if circular_gap(theta, ph) < ANGLE_TOL:
            raise PredicateError("cotangent pole: theta collides with a zero")
        weight = 0.5 if k in (reference, tracked) else 1.0
        total += weight / math.tan(0.5 * (ph - theta))
    return total


def _mass_table(
    ctx: MotionContext, point: np.ndarray, tracked: np.ndarray, reference: np.ndarray
) -> np.ndarray:
    """W_j = s gamma_j' - gamma_j s S omega_j' - gamma_j s f(phi), with s
    (:func:`s_factor`) and the cotangent sum S (:func:`s_sum`) at omega_j, as
    a (rows x masses) table, row i for zero ``tracked[i]`` of grid point
    ``point[i]`` measured against its zero ``reference[i]``, all from one
    table of the half-angles (phase_l - omega_j)/2 per point; ``ctx`` is
    the points' stack, with a leading point axis (:func:`_stack`).
    No row may read a pole (:func:`_poles`)."""
    f_phi = ctx.f_phases[point, tracked]
    angles = 0.5 * (ctx.phases[:, None, :] - ctx.omegas[:, :, None])  # points x masses x zeros
    sines = np.sin(angles)
    numer = np.sin(0.5 * (ctx.phases[point, tracked] - ctx.phases[point, reference]))
    s = numer[:, None] / (2.0 * sines[point, :, tracked] * sines[point, :, reference])
    w = s * ctx.dgammas[point]
    moving = ctx.domegas[point] != 0.0
    if moving.any():
        # a mass that does not move may sit on a zero: its cotangents are not read
        cot = 1.0 / np.tan(np.where(moving[:, :, None], angles[point], 1.0))  # rows x masses x zeros
        zeros = np.arange(ctx.phases.shape[1])
        halved = (zeros == tracked[:, None]) | (zeros == reference[:, None])
        # the cotangent sums add their terms in zero order, as s_sum does
        terms = np.where(halved, 0.5, 1.0)[:, None, :] * cot
        cot_sum = np.cumsum(terms, axis=2)[:, :, -1]
        w = np.where(moving, w - ctx.gammas[point] * s * cot_sum * ctx.domegas[point], w)
    if f_phi.any():
        w -= np.where(f_phi[:, None] != 0.0, ctx.gammas[point] * s * f_phi[:, None], 0.0)
    return w


def _stack(ctxs: list[MotionContext], step: int = 1) -> MotionContext:
    """The contexts as one whose every field has one row per context, f on the
    grid taken on every ``step``-th node; points that differ in zero, mass or
    node count raise ValueError."""
    for what, name in (("zero", "phases"), ("mass", "gammas"), ("node", "f_grid")):
        if len(counts := {0 if (x := getattr(c, name)) is None else len(x) for c in ctxs}) > 1:
            raise ValueError(f"the points differ in {what} count: {sorted(counts)}")
    names = ("phases", "gammas", "omegas", "dgammas", "domegas", "f_phases")
    f_grid = None if ctxs[0].f_grid is None else np.array([c.f_grid[::step] for c in ctxs])
    return MotionContext(**{k: np.array([getattr(c, k) for c in ctxs]) for k in names}, f_grid=f_grid)


def w_continuous(
    nodes: np.ndarray, phis: np.ndarray, theta0s: np.ndarray, f_nodes: np.ndarray, f_phis: np.ndarray
) -> np.ndarray:
    """Density functional s(theta) (f(theta) - f(phi)) for mixed measures as a
    (rows x nodes) table, row i for the tracked phase ``phis[i]`` measured
    against ``theta0s[i]``; f is ``f_nodes`` at the nodes (one row for all
    rows, or one row each) and ``f_phis`` at the phases.  NaN at nodes
    within ANGLE_TOL of phi or theta0, which verdicts skip and where the
    balance integrand s |P|^2 vanishes."""
    phis, theta0s = phis[:, None], theta0s[:, None]
    usable = (circular_gap(nodes, phis) > ANGLE_TOL) & (circular_gap(nodes, theta0s) > ANGLE_TOL)
    den = 2.0 * np.sin(0.5 * (phis - nodes)) * np.sin(0.5 * (theta0s - nodes))
    s = np.sin(0.5 * (phis - theta0s)) / np.where(usable, den, np.nan)
    return s * (f_nodes - f_phis[:, None])


# the regimes; each picks its reference zero in reference_index
THEOREMS = ("t21", "t22", "t23")


def _poles(ctx: MotionContext, point: np.ndarray, tracked: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Whether each row (point, tracked, reference) of the stack ``ctx`` reads a pole:
    a mass within ANGLE_TOL of the row's tracked or reference zero, or a moving mass
    within ANGLE_TOL of any zero of its point."""
    near = circular_gap(ctx.omegas[:, :, None], ctx.phases[:, None, :]) < ANGLE_TOL  # points x masses x zeros
    moving = near.any(axis=2) & (ctx.domegas != 0.0)
    return (near[point, :, tracked] | near[point, :, reference] | moving[point]).any(axis=1)


def mass_functionals(ctx: MotionContext, tracked: int, reference: int) -> np.ndarray:
    """W_j for every mass of zero ``tracked`` measured against zero
    ``reference``, as an array: the one-row case of the verdict table.
    A row that reads a pole (:func:`_poles`) raises."""
    one = MotionContext(**{name: x if x is None else x[None] for name, x in vars(ctx).items()})
    row = np.array([0]), np.array([tracked]), np.array([reference])
    if _poles(one, *row)[0]:
        raise PredicateError("pole: a mass collides with a zero its functional reads")
    return _mass_table(one, *row)[0]


@dataclass  # not frozen: a sweep makes hundreds, and a frozen __init__ takes five times as long
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
        """The fields in order, as JSON values."""
        return dict(vars(self), w_masses=self.w_masses.tolist(), flags=list(self.flags))


def _inconclusive(phi: float, theta0: float, theorem: str, flag: str) -> VerdictReport:
    return VerdictReport("Inconclusive", theorem, np.array([]), 0.0, 0.0, (flag,), False, phi, theta0)


def _f_monotone(nodes: np.ndarray, values: np.ndarray, theta0s: np.ndarray) -> np.ndarray:
    """(nondecreasing, nonincreasing) of row i's f ``values[i]`` at the ascending ``nodes``
    of one period from 0, over the open period from ``theta0s[i]``, as a (rows x 2)
    table: every cyclic step but those touching theta0 (two when it is a node)."""
    tol = NONNEG_TOL * (1.0 + np.max(np.abs(values), axis=1, initial=0.0))
    diffs = np.diff(values, axis=1, append=values[:, :1])  # the last step closes the circle
    theta0s = np.mod(theta0s, 2.0 * math.pi)
    step = np.searchsorted(nodes, theta0s, side="right") - 1  # the step from the last node <= theta0
    bad = np.stack([diffs < -tol[:, None], diffs > tol[:, None]], axis=2)
    rows = np.arange(len(theta0s))
    into = (nodes[step] == theta0s)[:, None] & bad[rows, step - 1]  # and the step into theta0 on a node
    return bad.sum(axis=1) - bad[rows, step] - into == 0


def _labels(
    w_min: np.ndarray, w_max: np.ndarray, wc_min: np.ndarray, wc_max: np.ndarray,
    nondecreasing: np.ndarray, nonincreasing: np.ndarray,
) -> np.ndarray:
    """The label of each row, as its index in LABELS, from its signs: the extremes
    of 0 and its W_j, the extremes of its density functional, and the monotonicity of f."""
    w_abs, wc_abs = np.maximum(w_max, -w_min), np.maximum(np.abs(wc_min), np.abs(wc_max))
    tol, strict = NONNEG_TOL * (w_abs + wc_abs), STRICT_TOL * (w_abs + wc_abs)
    stationary = (w_abs <= NONNEG_TOL) & (wc_abs <= NONNEG_TOL)
    ccw = (w_min >= -tol) & ((w_max > strict) | (wc_max > strict)) & nondecreasing
    cw = (w_max <= tol) & ((w_min < -strict) | (wc_min < -strict)) & nonincreasing
    return np.select([stationary, ccw, cw], [0, 1, 2], 3)


def _verdict_rows(
    ctxs: list[MotionContext], rows: list[tuple[int, int, int]], theorem: str
) -> list[VerdictReport]:
    """Verdicts for the rows (point, tracked, reference): zero ``tracked`` of
    context ``ctxs[point]`` measured against its zero ``reference``, every row
    from one pass over the tables of :func:`_mass_table` and :func:`w_continuous`;
    the contexts share one measure and node count, as a sweep's do.  A row that
    reads a pole (:func:`_poles`) is a collision and enters no table; a t22 row
    that is no conjugate pair is Inconclusive."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem selector {theorem!r}")
    if not rows:
        return []
    point, tracked, reference = np.array(rows, dtype=int).T
    n = 0 if ctxs[0].f_grid is None else len(ctxs[0].f_grid)
    step = max(1, n // VERDICT_NODES)
    table = _stack(ctxs, step)
    phis, theta0s = table.phases[point, tracked].tolist(), table.phases[point, reference].tolist()
    is_clear = ~_poles(table, point, tracked, reference)
    point, tracked, reference = point[is_clear], tracked[is_clear], reference[is_clear]
    w_masses = _mass_table(table, point, tracked, reference)

    wc_min = wc_max = np.zeros(len(point))
    monotone = np.ones((len(point), 2), dtype=bool)  # f nondecreasing, nonincreasing
    if table.f_grid is not None:  # each row reads its own point's f on the shared nodes
        nodes, ref_phases = theta_grid(0.0, n)[::step], table.phases[point, reference]
        f_nodes, f_phis = table.f_grid[point], table.f_phases[point, tracked]
        wc = w_continuous(nodes, table.phases[point, tracked], ref_phases, f_nodes, f_phis)
        wc_min, wc_max = np.fmin.reduce(wc, axis=1), np.fmax.reduce(wc, axis=1)
        monotone = _f_monotone(nodes, f_nodes, ref_phases)

    w_min = np.minimum.reduce(w_masses, axis=1, initial=0.0)
    w_max = np.maximum.reduce(w_masses, axis=1, initial=0.0)
    labels = _labels(w_min, w_max, wc_min, wc_max, *monotone.T).tolist()
    wc_min, wc_max, nondecreasing = wc_min.tolist(), wc_max.tolist(), monotone[:, 0].tolist()
    reports, i = [], -1
    for phi, theta0, ok in zip(phis, theta0s, is_clear.tolist()):
        if not ok:
            reports.append(_inconclusive(phi, theta0, theorem, "collision"))
            continue
        i += 1
        if theorem == "t22" and not conjugate_pair(phi, theta0):
            reports.append(_inconclusive(phi, theta0, theorem, "non_conjugate_pair"))
            continue
        label = LABELS[labels[i]]
        # CW needs only f nonincreasing, so its flag says only that it is mirrored
        flags = ("mirrored",) if label == "CW" else () if nondecreasing[i] else ("f_not_nondecreasing",)
        reports.append(VerdictReport(
            label, theorem, w_masses[i], wc_min[i], wc_max[i], flags, label == "CW", phi, theta0
        ))
    return reports


def verdict(ctx: MotionContext, tracked: int, reference: int, theorem: str) -> VerdictReport:
    """Classify the motion of zero ``tracked``, measured against zero
    ``reference``, as CCW, CW, Stationary, or Inconclusive, with a
    ``mirrored`` flag when the clockwise (sign-flipped) criterion fired: the
    one-zero case of :func:`verdicts_along`.
    """
    return _verdict_rows([ctx], [(0, tracked, reference)], theorem)[0]


def verdicts_along(
    samples: Sequence[MeasureSample], zero_sets: Sequence[ZeroSet], theorem: str
) -> list[dict[int, VerdictReport | Exception]]:
    """The verdicts of a trajectory: for each record ``samples[i]`` of one measure
    at one node count and the zeros ``zero_sets[i]`` solved on it, as many at every
    point, the verdict of every zero that has a reference zero (see
    :func:`reference_index`), keyed by zero index in increasing order.  Each
    point's motion data is built once from its record; a MeasureError or
    ExprError there is that point's error, the value of each of its zeros.
    Every row of every other point comes from one table pass
    (:func:`_verdict_rows`)."""
    out, ctxs, rows = [], [], []
    for sample, zs in zip(samples, zero_sets):
        refs = {k: r for k in range(len(zs)) if (r := reference_index(zs, k, theorem)) is not None}
        out.append(refs)
        try:
            if refs:
                ctxs.append(motion_context(sample, zs))
                rows += [(len(ctxs) - 1, k, r) for k, r in refs.items()]
        except (MeasureError, ExprError) as exc:
            out[-1] = dict.fromkeys(refs, exc)
    reports = iter(_verdict_rows(ctxs, rows, theorem))
    return [{k: r if isinstance(r, Exception) else next(reports) for k, r in refs.items()} for refs in out]
