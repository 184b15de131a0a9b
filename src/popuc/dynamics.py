"""Parameter sweeps: zero trajectories, velocities, and balance identities.

The per-grid-point pipeline is moments -> OPUC -> paraorthogonality
parameter (per policy) -> POPUC -> zero set; consecutive zero sets are
matched by nearest circular phase and chained into continuous trajectories.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .expressions import ExprError
from .measures import (
    DEFAULT_NODES,
    MIN_NODES,
    Measure,
    MeasureError,
    MomentSequence,
    json_number,
    json_pair,
    known_keys,
    moments,
    theta_grid,
)
from .opuc import OpucFamily, gram_opuc, inner_product, polyval
from .paraorthogonal import (
    UNIMODULAR_TOL,
    PopucInstance,
    ZeroSet,
    build_popuc,
    deflate,
    fix_zero_param,
    zeros_on_circle,
)
from .predicates import (
    THEOREMS,
    PredicateError,
    mass_functionals,
    motion_context,
    reference_index,
    verdicts_at,
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
    """Trajectory matching became ambiguous or the pipeline failed mid-sweep."""


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
        its default, an unknown (say, misspelt) key raises ValueError, and the
        retired top-level ``h`` is ignored."""
        known_keys(obj, "config", ("measure", "degree", "grid", "policy", "theorem", "nodes", "h"))
        grid = known_keys(obj.get("grid", {}), "grid", ("start", "stop", "steps"))
        policy = known_keys(obj.get("policy", {}), "policy", ("kind", "value"))
        return cls(
            measure=Measure.from_json(obj["measure"]),
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
    ms: MomentSequence
    family: OpucFamily
    popuc: PopucInstance
    zero_set: ZeroSet


def solve_at(
    m: Measure, degree: int, policy: ZeroPolicy, t: float, nodes: int = DEFAULT_NODES,
    start: np.ndarray | None = None,
) -> PipelineState:
    """Run moments -> OPUC -> b -> POPUC -> zeros at a single t.

    Under the fixed_xi policy the zero window starts at the fixed zero's
    phase and ``fixed_index`` is marked (it is always index 0 there).
    ``start`` seeds the zero finder (e.g. with the zeros at a nearby t);
    without it the search starts cold.
    """
    ms = moments(m, t, 2 * degree + 2, nodes)
    family = gram_opuc(ms, degree - 1)
    q = family[degree - 1]
    if policy.kind == "fixed_xi":
        popuc = build_popuc(q, fix_zero_param(q, policy.value))
        theta_ref = cmath.phase(policy.value)
        zs = zeros_on_circle(popuc, theta_ref, start)
        zs = replace(zs, fixed_index=zs.nearest_index(theta_ref))
    else:
        popuc = build_popuc(q, policy.value)
        zs = zeros_on_circle(popuc, start=start)
    return PipelineState(t=t, ms=ms, family=family, popuc=popuc, zero_set=zs)


@dataclass(frozen=True)
class Trajectory:
    """Matched zero chains over the sweep grid.

    ``chains[i, k]`` is the unwrapped phase of zero ``k`` at grid point
    ``i``; chain indices follow the sorted order of the first zero set.
    """

    ts: np.ndarray
    zero_sets: tuple[ZeroSet, ...]
    chains: np.ndarray
    match_quality: float
    fixed_chain: int | None

    @property
    def n_zeros(self) -> int:
        return self.chains.shape[1]


def _match(prev_phases: np.ndarray, new_set: ZeroSet, min_gap: float, t: float) -> np.ndarray:
    """Permutation p with new_set.phases[p[k]] continuing chain k.

    Greedy nearest circular phase; a non-bijective assignment or a jump
    beyond half the previous minimum gap aborts the sweep loudly.
    """
    m = len(prev_phases)
    if len(new_set) != m:
        raise TrackingError(f"zero count changed at t={t}")
    # d[k, i]: circular distance from chain k to new zero i
    d = np.abs(np.angle(np.exp(1j * (new_set.phases[None, :] - prev_phases[:, None]))))
    perm = np.argmin(d, axis=1)
    jumps = d[np.arange(m), perm]
    if len(set(perm.tolist())) != m:
        raise TrackingError(f"ambiguous zero matching at t={t}")
    if np.max(jumps) >= min_gap / 2:
        raise TrackingError(
            f"phase jump {np.max(jumps):.3e} exceeds half the minimum gap at t={t}; "
            "refine the grid"
        )
    return perm


def sweep(cfg: SweepConfig) -> Trajectory:
    """Track all zeros of the POPUC across the t grid.

    Each grid point after the first starts its zero search from the zeros at
    the previous point, and is matched to the chains before the next is solved.
    """
    ts = cfg.grid()
    zs = solve_at(cfg.measure, cfg.degree, cfg.policy, ts[0], cfg.nodes).zero_set
    zero_sets = [zs]
    chains = np.zeros((len(ts), len(zs)))
    chains[0] = current = zs.phases
    max_jump = 0.0
    for i in range(1, len(ts)):
        zs = solve_at(cfg.measure, cfg.degree, cfg.policy, ts[i], cfg.nodes, start=zs.zeros).zero_set
        matched = zs.phases[_match(current, zs, zero_sets[-1].min_gap, ts[i])]
        delta = np.angle(np.exp(1j * (matched - current)))
        max_jump = max(max_jump, float(np.max(np.abs(delta))))
        chains[i] = chains[i - 1] + delta
        current = matched
        zero_sets.append(zs)
    return Trajectory(
        ts=ts,
        zero_sets=tuple(zero_sets),
        chains=chains,
        match_quality=max_jump,
        fixed_chain=zero_sets[0].fixed_index,
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
    return float(np.angle(np.exp(1j * (phi_hi - phi_lo)))) / (2.0 * h)


@dataclass(frozen=True)
class BalanceEntry:
    """One evaluation of the velocity balance identity.

    lhs = C(t) * dphi/dt with dphi/dt by central finite difference;
    rhs is the |P|^2-weighted sum of the per-mass functionals, plus the
    density functional's integral when f depends on theta.
    """

    t: float
    C: float
    dphi_dt: float
    lhs: float
    rhs: float
    mismatch: float


def _c_integral(ms: MomentSequence, popuc: PopucInstance, zeta: complex) -> float:
    """C-type integral int |P/(e^{i theta} - zeta)|^2 dmu over the full measure."""
    d = deflate(popuc.poly.coeffs, zeta)
    return float(inner_product(d, d, ms).real)


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
    """
    state = solve_at(m, degree, policy, t, nodes)
    zs = state.zero_set
    tracked = zs.nearest_index(tracked_phi)
    reference = reference_index(zs, tracked, theorem)
    if reference is None:
        raise TrackingError(f"the tracked zero has no {theorem} reference zero")
    ctx = motion_context(m, zs, t)
    phi = float(zs.phases[tracked])
    zeta = complex(np.exp(1j * phi))
    p = state.popuc
    pvals_at_masses = np.abs(polyval(p.poly.coeffs, np.exp(1j * ctx.omegas))) ** 2
    rhs = float(np.sum(mass_functionals(ctx, tracked, reference) * pvals_at_masses))
    C = _c_integral(state.ms, p, zeta)
    if theorem == "t22":
        C += _c_integral(state.ms, p, np.conj(zeta))
    if ctx.f_theta is not None:  # else the AC integrand is exactly zero
        xi = complex(np.exp(1j * zs.phases[reference]))
        # midpoint rule for int s(theta)|P|^2 (f(theta) - f(phi)) w(theta) dtheta/2pi,
        # with s(theta)|P|^2 = Re[i (zeta - xi) e^{i theta} D2 conj(P)] and
        # D2 = P/((z-xi)(z-zeta)); smooth through both poles
        d2 = deflate(deflate(p.poly.coeffs, xi), zeta)
        n = min(nodes, 2048)
        th = theta_grid(0.0, n, midpoint=True)
        z = np.exp(1j * th)
        s_p2 = (1j * (zeta - xi) * z * polyval(d2, z) * np.conj(polyval(p.poly.coeffs, z))).real
        rhs += float(np.sum(s_p2 * (ctx.f_theta(th) - ctx.f_theta(phi)) * m.ac.density(th, t))) / n

    dphi = tracked_velocity(m, degree, policy, t, phi, h, nodes)
    lhs = C * dphi
    mismatch = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-14)
    return BalanceEntry(t=t, C=C, dphi_dt=dphi, lhs=lhs, rhs=rhs, mismatch=mismatch)


def sweep_verdicts(
    cfg: SweepConfig, traj: Trajectory
) -> list[dict]:
    """Per-grid-point verdicts for every zero that has a reference zero, all
    zeros of a grid point from one :func:`~popuc.predicates.verdicts_at` pass."""
    out = []
    for t, zs in zip(traj.ts, traj.zero_sets):
        try:
            reports = verdicts_at(cfg.measure, zs, float(t), cfg.theorem)
            items = [dict(rep.to_json(), zero_index=k) for k, rep in reports.items()]
        except (PredicateError, MeasureError, ExprError) as exc:
            # bad measure data at one grid point degrades gracefully: its zeros get the error
            items = [
                {"zero_index": k, "error": str(exc)}
                for k in range(len(zs))
                if reference_index(zs, k, cfg.theorem) is not None
            ]
        out.append({"t": float(t), "verdicts": items})
    return out
