"""Parameter sweeps: zero trajectories, velocities, and balance identities.

The per-grid-point pipeline is moments -> OPUC -> paraorthogonality parameter
(per policy) -> POPUC -> zero set, with the measure's record (``measures.MeasureSample``)
that its verdicts and balance check read; consecutive zero sets are matched by nearest
circular phase, a rotation of their sorted order (the identity under a pinned zero), and
chained into continuous trajectories, whose linear extrapolation starts the next solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .measures import (
    DEFAULT_NODES,
    MIN_NODES,
    Measure,
    MeasureSample,
    json_number,
    json_pair,
    known_keys,
    moments,
)
from .opuc import OpucFamily, gram_opuc, horner, polyval
from .paraorthogonal import (
    UNIMODULAR_TOL,
    PopucInstance,
    ZeroSet,
    build_popuc,
    fix_zero_param,
    zeros_on_circle,
)
from .predicates import (
    THEOREMS,
    PredicateError,
    conjugate_pair,
    mass_functionals,
    motion_context,
    reference_index,
    verdicts_along,
    w_continuous,
)

__all__ = [
    "ZeroPolicy",
    "SweepConfig",
    "Trajectory",
    "BalanceEntry",
    "TrackingError",
    "solve_at",
    "sweep",
    "fd_velocity",
    "tracked_velocity",
    "balance_check",
    "sweep_verdicts",
]


class TrackingError(RuntimeError):
    """Zero matching failed (a count change or a jump too far) or the pipeline failed mid-sweep."""


@dataclass(frozen=True)
class ZeroPolicy:
    """How the paraorthogonality parameter is chosen along the sweep.

    ``fixed_xi`` recomputes b at every t so the POPUC keeps a zero at xi;
    ``fixed_b`` holds b constant.
    """

    kind: str  # "fixed_xi" | "fixed_b"
    value: complex

    def __post_init__(self):
        if self.kind not in ("fixed_xi", "fixed_b"):
            raise ValueError(f"unknown zero policy {self.kind!r}")
        if not abs(abs(self.value) - 1.0) <= UNIMODULAR_TOL:
            raise ValueError("policy value must lie on the unit circle")

    @classmethod
    def fixed_xi(cls, xi: complex) -> "ZeroPolicy":
        return cls("fixed_xi", complex(xi))

    @classmethod
    def fixed_b(cls, b: complex) -> "ZeroPolicy":
        return cls("fixed_b", complex(b))


@dataclass(frozen=True)
class SweepConfig:
    measure: Measure
    degree: int  # POPUC degree n+1
    t_start: float
    t_stop: float
    steps: int
    policy: ZeroPolicy
    h: float = 1e-5  # read only by perfbench's verdict oracle, until ROADMAP item 2
    theorem: str = "t21"
    nodes: int = DEFAULT_NODES

    def __post_init__(self):
        if self.steps < 3:
            raise ValueError("grid too small: need steps >= 3")
        if self.t_start == self.t_stop:
            raise ValueError(f"empty grid interval: start = stop = {self.t_start}")
        if self.degree < 2:
            raise ValueError("POPUC degree must be at least 2")
        if self.nodes < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} quadrature nodes, got {self.nodes}")
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem selector {self.theorem!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "SweepConfig":
        """The run config of the documented JSON schema; an absent key takes
        its default, and an unknown (say, misspelt) key raises ValueError."""
        known_keys(obj, "config", ("measure", "degree", "grid", "policy", "theorem", "nodes"))
        grid = known_keys(obj.get("grid", {}), "grid", ("start", "stop", "steps"))
        policy = known_keys(obj.get("policy", {}), "policy", ("kind", "value"))
        return cls(
            measure=Measure.from_json(obj.get("measure")),
            degree=json_number(obj, "degree", 5, (int,)),
            t_start=float(json_number(grid, "start", 0.0)),
            t_stop=float(json_number(grid, "stop", 1.0)),
            steps=json_number(grid, "steps", 10, (int,)),
            policy=ZeroPolicy(policy.get("kind", "fixed_b"), json_pair(policy, "value", [1.0, 0.0])),
            theorem=obj.get("theorem", "t21"),
            nodes=json_number(obj, "nodes", DEFAULT_NODES, (int,)),
        )

    def grid(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_stop, self.steps)


@dataclass(frozen=True)
class PipelineState:
    """Everything the pipeline produced at one parameter value."""

    t: float
    family: OpucFamily
    popuc: PopucInstance
    zero_set: ZeroSet
    sample: MeasureSample


def solve_at(
    m: Measure, degree: int, policy: ZeroPolicy, t: float, nodes: int = DEFAULT_NODES,
    start: np.ndarray | None = None,
) -> PipelineState:
    """Run moments -> OPUC -> b -> POPUC -> zeros at a single t.

    Under the fixed_xi policy b puts a zero at xi, which the zero set holds as
    xi itself, zero 0 (see :func:`~popuc.paraorthogonal.zeros_on_circle`).
    ``start`` seeds the zero finder (e.g. with the zeros at a nearby t);
    without it the search starts cold.
    """
    ms = moments(m, t, degree - 1, nodes)  # the orders gram_opuc reads
    family = gram_opuc(ms, degree - 1)
    q = family.coeffs[-1]  # Q_n, the table's last row, read-only
    xi = policy.value if policy.kind == "fixed_xi" else None
    popuc = build_popuc(q, policy.value if xi is None else fix_zero_param(q, xi))
    zs = zeros_on_circle(popuc, xi, start)
    return PipelineState(t=t, family=family, popuc=popuc, zero_set=zs, sample=ms.sample)


@dataclass(frozen=True)
class Trajectory:
    """Matched zero chains over the sweep grid.

    ``chains[i, k]`` is the unwrapped phase of zero ``k`` at grid point
    ``i``; chain indices follow the sorted order of the first zero set,
    and ``samples[i]`` is the measure record that set was solved on.
    """

    ts: np.ndarray
    zero_sets: tuple[ZeroSet, ...]
    chains: np.ndarray
    fixed_chain: int | None
    samples: tuple[MeasureSample, ...]

    @property
    def n_zeros(self) -> int:
        return self.chains.shape[1]


def _match(prev_phases: np.ndarray, new_set: ZeroSet, min_gap: float, t: float) -> tuple[np.ndarray, ...]:
    """Permutation p with new_set.phases[p[k]] continuing chain k, and each
    chain's step, the jump wrapped into [-pi, pi].

    Both phase sets ascend cyclically, so p is the rotation that sends chain 0
    to its nearest new zero; under a pinned zero, which is chain 0 and index 0
    of every zero set, that is the identity, taken with no search.  A jump
    beyond half the previous minimum gap aborts the sweep loudly; below it,
    each new zero is the nearest of exactly one old zero, so p is the
    nearest-phase assignment.
    """
    m = len(prev_phases)
    if len(new_set) != m:
        raise TrackingError(f"zero count changed at t={t}")
    if new_set.fixed_index is None:
        perm = (new_set.nearest_index(prev_phases[0]) + np.arange(m)) % m
    else:
        perm = np.arange(m)
    w = np.exp(1j * (new_set.phases[perm] - prev_phases))
    steps = np.arctan2(w.imag, w.real)
    if (jump := np.maximum.reduce(np.abs(steps))) >= min_gap / 2:
        raise TrackingError(f"phase jump {jump:.3e} exceeds half the minimum gap at t={t}; refine the grid")
    return perm, steps


_POINT = attrgetter("zero_set", "sample")  # all a sweep keeps of each PipelineState


def sweep(cfg: SweepConfig) -> Trajectory:
    """Track all zeros of the POPUC across the t grid.

    Each grid point after the first is matched to the chains before the next is
    solved.  The second starts its zero search from the first's zeros, each later
    one from every chain's linear extrapolation phi_{i-1} + (phi_{i-1} - phi_{i-2})
    (a pinned chain's is its zero), or, so that each guess stays in its own arc, from the
    zeros at t_{i-1} when a chain's last step reaches half their minimum gap.
    """
    ts = cfg.grid()
    zs, sample = _POINT(solve_at(cfg.measure, cfg.degree, cfg.policy, ts[0], cfg.nodes))
    zero_sets, samples = [zs], [sample]
    chains = np.zeros((len(ts), len(zs)))
    chains[0] = current = zs.phases
    for i in range(1, len(ts)):
        start = zs.zeros
        if i > 1 and np.maximum.reduce(np.abs(step := chains[i - 1] - chains[i - 2])) < zs.min_gap / 2:
            start = np.exp(1j * (chains[i - 1] + step))
        zs, sample = _POINT(solve_at(cfg.measure, cfg.degree, cfg.policy, ts[i], cfg.nodes, start=start))
        perm, steps = _match(current, zs, zero_sets[-1].min_gap, ts[i])
        chains[i] = chains[i - 1] + steps
        current = zs.phases[perm]
        zero_sets.append(zs)
        samples.append(sample)
    return Trajectory(
        ts=ts,
        zero_sets=tuple(zero_sets),
        chains=chains,
        fixed_chain=zero_sets[0].fixed_index,
        samples=tuple(samples),
    )


def fd_velocity(traj: Trajectory, k: int) -> np.ndarray:
    """d phi_k / dt on the grid: central differences inside, one-sided at ends."""
    phi = traj.chains[:, k]
    ts = traj.ts
    v = np.empty_like(phi)
    v[1:-1] = (phi[2:] - phi[:-2]) / (ts[2:] - ts[:-2])
    v[0] = (phi[1] - phi[0]) / (ts[1] - ts[0])
    v[-1] = (phi[-1] - phi[-2]) / (ts[-1] - ts[-2])
    return v


def tracked_velocity(
    m: Measure,
    degree: int,
    policy: ZeroPolicy,
    t: float,
    phi_ref: float,
    h: float = 1e-5,
    nodes: int = DEFAULT_NODES,
) -> float:
    """Central-difference angular velocity of the zero nearest ``phi_ref``,
    using fresh pipeline solves at t - h and t + h."""
    lo = solve_at(m, degree, policy, t - h, nodes).zero_set
    hi = solve_at(m, degree, policy, t + h, nodes).zero_set
    phi_lo = lo.phases[lo.nearest_index(phi_ref)]
    phi_hi = hi.phases[hi.nearest_index(phi_ref)]
    w = np.exp(1j * (phi_hi - phi_lo))
    return float(np.arctan2(w.imag, w.real)) / (2.0 * h)


@dataclass(frozen=True)
class BalanceEntry:
    """One evaluation of the velocity balance identity.

    lhs = C(t) * dphi/dt with dphi/dt by central finite difference;
    rhs is the |P|^2-weighted sum of the per-mass functionals, plus, when f
    depends on theta, the trapezoid sum of the density functional times
    |P|^2 w on the record's grid (the moments' nodes), where the motion context has ``f_grid``.
    """

    t: float
    C: float
    dphi_dt: float
    lhs: float
    rhs: float
    mismatch: float


def _c_at(state: PipelineState, zeta: complex) -> float:
    """C = int |P/(z - zeta)|^2 dmu = kappa_n |P'(zeta)| / |Q_n(zeta)| at a zero zeta of P:
    the Szego quadrature on the zeros of P is exact on |P/(z - zeta)|^2, with weight
    1/K_n(zeta, zeta) = kappa_n / (P'(zeta) conj(Q_n(zeta))) by Christoffel-Darboux."""
    p = dp = q = 0j
    for c in reversed(state.popuc.poly.coeffs.tolist()):  # Horner for P and P'
        p, dp = p * zeta + c, dp * zeta + p
    for c in reversed(state.family.coeffs[-1].tolist()):
        q = q * zeta + c
    return float(state.family.norms[-1]) * abs(dp) / abs(q)


def balance_check(
    m: Measure,
    degree: int,
    policy: ZeroPolicy,
    t: float,
    tracked_phi: float,
    theorem: str = "t21",
    h: float = 1e-5,
    nodes: int = DEFAULT_NODES,
) -> BalanceEntry:
    """Evaluate the balance identity at one t for the zero nearest ``tracked_phi``,
    measured against its :func:`~popuc.predicates.reference_index`.

    The left side multiplies C(t) by a finite-difference velocity from fresh
    solves at t +- h; the right side is computed from the motion functionals,
    so the two sides are independent numerical routes to the same quantity.
    Under t22 a partner that is not the conjugate raises PredicateError.
    """
    state = solve_at(m, degree, policy, t, nodes)
    zs = state.zero_set
    tracked = zs.nearest_index(tracked_phi)
    reference = reference_index(zs, tracked, theorem)
    if reference is None:
        raise TrackingError(f"the tracked zero has no {theorem} reference zero")
    phi, theta0 = float(zs.phases[tracked]), float(zs.phases[reference])
    if theorem == "t22" and not conjugate_pair(phi, theta0):
        raise PredicateError(f"the zeros at {phi!r} and {theta0!r} are not a conjugate pair")
    ctx = motion_context(state.sample, zs)
    coeffs = state.popuc.poly.coeffs
    pvals_at_masses = np.abs(polyval(coeffs, np.exp(1j * ctx.omegas))) ** 2
    rhs = float(np.sum(mass_functionals(ctx, tracked, reference) * pvals_at_masses))
    C = _c_at(state, complex(np.exp(1j * phi)))
    if theorem == "t22":
        C += _c_at(state, complex(np.exp(1j * theta0)))
    if ctx.f_grid is not None:  # else the AC integrand is exactly zero
        # trapezoid sum of W(theta) |P|^2 w dtheta/2pi; it vanishes at phi and theta0, where W is NaN
        grid, density = state.sample.grid, state.sample.density
        wc = w_continuous(grid, np.array([phi]), np.array([theta0]), ctx.f_grid, ctx.f_phases[[tracked]])
        p2 = np.abs(horner(coeffs, np.exp(1j * grid))) ** 2
        rhs += float(np.nansum(wc[0] * p2 * density)) / len(grid)

    dphi = tracked_velocity(m, degree, policy, t, phi, h, nodes)
    lhs = C * dphi
    mismatch = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-14)
    return BalanceEntry(t=t, C=C, dphi_dt=dphi, lhs=lhs, rhs=rhs, mismatch=mismatch)


def sweep_verdicts(cfg: SweepConfig, traj: Trajectory) -> list[dict]:
    """Per-grid-point verdicts for every zero that has a reference zero, every
    grid point from one :func:`~popuc.predicates.verdicts_along` pass over the
    trajectory; bad measure data at one grid point degrades gracefully, its
    zeros getting the error."""
    out = []
    for t, reports in zip(traj.ts, verdicts_along(traj.samples, traj.zero_sets, cfg.theorem)):
        items = [
            {"zero_index": k, "error": str(rep)} if isinstance(rep, Exception)
            else dict(rep.to_json(), zero_index=k)
            for k, rep in reports.items()
        ]
        out.append({"t": float(t), "verdicts": items})
    return out
