"""POPUC construction and unit-circle zero finding.

P(z) = z Q_n(z) - conj(b) Q_n*(z) with |b| = 1.  All zeros of a valid
POPUC lie on the unit circle and are simple; they are located by Aberth-
Ehrlich iteration (P and P' from one table of powers per sweep) to roundoff,
projected to modulus one and sorted round the circle from a pinned zero xi
(xi itself) or from -pi.  A cold search starts from the sign changes of P.
"""
from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .opuc import MonicPoly, horner, polyval, power_table

__all__ = [
    "PopucInstance",
    "ZeroSet",
    "RootFindingError",
    "build_popuc",
    "fix_zero_param",
    "zeros_on_circle",
    "aberth_roots",
]

UNIMODULAR_TOL = 1e-12
MODULUS_TOL = 1e-6
RESIDUAL_TOL = 1e-9
MAX_SWEEPS = 200  # Aberth-Ehrlich sweep cap
STEP_TOL = 1e-14  # the sweeps end once every step is below STEP_TOL * max(1, max|z|)
# ... or once the next step, predicted from the last two under quadratic
# convergence, is below EPS * max(1, max|z|), one ulp (Aberth converges cubically)
EPS = np.finfo(float).eps


class RootFindingError(RuntimeError):
    """Zero finder failed to converge or the zeros are not on the circle."""


@dataclass(frozen=True)
class PopucInstance:
    """POPUC of degree n+1 built from Q_n and a unimodular parameter b."""

    poly: MonicPoly
    b: complex


@dataclass(frozen=True)
class ZeroSet:
    """Sorted unit-circle zero phases of a POPUC.

    Phases ascend within one period window (see :func:`zeros_on_circle`);
    ``fixed_index`` designates the pinned zero, if there is one: it is 0.
    ``zeros`` are the points exp(i phases), computed here unless given, and
    ``min_gap`` is the smallest gap round the circle between neighbouring
    (ascending) phases, which a sweep reads at every point.
    """

    phases: np.ndarray
    residuals: np.ndarray
    pre_projection_deviation: float
    fixed_index: int | None = None
    zeros: np.ndarray | None = field(default=None, repr=False, compare=False)
    min_gap: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.zeros is None:
            object.__setattr__(self, "zeros", np.exp(1j * self.phases))
        ring = np.empty(len(self.phases) + 1)  # the phases, then the first one round again
        ring[:-1], ring[-1] = self.phases, self.phases[0] + 2.0 * math.pi
        object.__setattr__(self, "min_gap", float(np.minimum.reduce(np.subtract(ring[1:], ring[:-1]))))

    def __len__(self) -> int:
        return len(self.phases)

    def nearest_index(self, phase: float) -> int:
        w = np.exp(1j * (self.phases - phase))
        return int(np.abs(np.arctan2(w.imag, w.real)).argmin())


def build_popuc(q: np.ndarray, b: complex) -> PopucInstance:
    """z Q_n(z) - conj(b) Q_n*(z), monic of degree n+1, from the complex ascending
    coefficients ``q`` of monic Q_n (say, a row of :class:`~popuc.opuc.OpucFamily`'s
    table): the Szego step with b for alpha_n, into one array that P keeps."""
    if not abs(abs(b) - 1.0) <= UNIMODULAR_TOL:
        raise ValueError(f"|b| = {abs(b)} is off the unit circle")
    b = complex(b)
    p = np.zeros(len(q) + 1, dtype=complex)
    p[1:] = q
    p[:-1] -= b.conjugate() * np.conjugate(q[::-1])  # subtracted: negate-then-add flips a zero P[0]'s sign
    p.setflags(write=False)
    return PopucInstance(MonicPoly(p), b)


def fix_zero_param(q: np.ndarray, xi: complex) -> complex:
    """Unimodular b such that the POPUC built from Q_n's coefficients ``q`` vanishes at ``xi``.

    b = conj(xi) conj(Q_n(xi)) / conj(Q_n*(xi)), and on the circle Q_n*(xi) =
    xi^n conj(Q_n(xi)), so b = xi^(n-1) (conj(Q_n(xi)) / |Q_n(xi)|)^2 from one
    Horner pass; |b| = 1 up to roundoff, and it is renormalized exactly.
    """
    if not abs(abs(xi) - 1.0) <= UNIMODULAR_TOL:
        raise ValueError(f"|xi| = {abs(xi)} is off the unit circle")
    q_xi = 0j
    for c in reversed(q.tolist()):
        q_xi = q_xi * xi + c
    if not abs(q_xi) >= 1e-14:  # |Q_n*(xi)| = |Q_n(xi)|
        raise ValueError("reversed polynomial vanishes at xi (degenerate input)")
    u = q_xi.conjugate() / abs(q_xi)
    b = xi ** (len(q) - 2) * u * u
    return complex(b / abs(b))


class _Workspace(threading.local):
    """One thread's flat buffers behind Aberth's (P, P') pair, its table of
    powers and its reciprocal differences, kept at the largest degree the
    thread has solved."""

    pair = table = recip = np.empty(0, dtype=complex)


_workspace = _Workspace()


def _scratch(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's 2 x (m+1) pair, (m+1) x m table of powers and m x m matrix
    of differences, contiguous views of its workspace, which grows to fit them."""
    ws = _workspace
    if len(ws.recip) < m * m:
        ws.pair, ws.table, ws.recip = (np.empty(k, dtype=complex) for k in (2 * m + 2, (m + 1) * m, m * m))
    pair, table = ws.pair[: 2 * m + 2].reshape(2, m + 1), ws.table[: (m + 1) * m].reshape(m + 1, m)
    return pair, table, ws.recip[: m * m].reshape(m, m)


def aberth_roots(coeffs: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """All roots of the polynomial by Aberth-Ehrlich simultaneous iteration.

    ``start`` holds one finite initial guess per root, e.g. the zeros of a
    nearby polynomial; by default the guesses sit equispaced on the unit
    circle, offset by a quarter slot so that they are not symmetric under
    conjugation (a symmetric set slows polynomials with real coefficients,
    whose zeros are).  P and P', padded to one length and
    stacked as one pair, come from one table of powers per sweep, which like
    the reciprocal differences is filled in place, by :func:`opuc.power_table`:
    its first POWER_BLOCK rows are one running product, so that a fill up to
    degree 15 is four NumPy calls.  The pair, the table and
    the differences live in a per-thread workspace kept at the largest degree
    the thread has solved: at degree 80 to 120 the last two take 100-230 KB
    each, which the allocator would return to the OS after each solve and
    fault in again at the next; being per thread, it lets two threads solve
    at once.  The sweeps stop once every step is below STEP_TOL, or from the
    second sweep on once the next step predicted under quadratic convergence,
    largest (largest / last)^2, is below EPS max(1, max|z|); Aberth converges
    cubically at simple zeros, so the true next step is smaller still.  That
    takes a cold solve from the sign-change guesses about 2.2-2.4 sweeps and a
    warm one about 2.0-2.2, at degree 4 to 120; one from a sweep's extrapolated
    chains about 1.8.  At MAX_SWEEPS they stop too; the iterate stands if its
    residual is below 1e-8 max|coeff|, and is returned as it is.
    Raises :class:`RootFindingError` when the iteration does not converge or
    ends at a point where P' vanishes and P does not.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    m = len(coeffs) - 1
    if start is not None:
        start = np.asarray(start, dtype=complex)
        if start.shape != (m,) or not np.logical_and.reduce(np.isfinite(start)):
            raise ValueError(f"start must hold {m} finite initial guesses")
    if m < 1:
        return np.array([], dtype=complex)
    pair, table, recip = _scratch(m)  # P and P'; powers of z; z_i - z_j, then its reciprocal
    pair[0] = coeffs
    np.multiply(coeffs[1:], np.arange(1, m + 1), out=pair[1, :m])
    pair[1, m] = 0.0
    diagonal = recip.reshape(-1)[:: m + 1]
    z = np.exp(1j * (2.0 * np.pi * (np.arange(m) + 0.25) / m)) if start is None else start
    last = math.inf  # the largest step of the sweep before
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep in range(1, MAX_SWEEPS + 1):
            p, dp = pair @ power_table(table, z)
            ratio = p / dp
            stalled = dp == 0  # a zero Newton ratio, hence a zero step
            ratio[stalled] = 0.0
            np.subtract(z[:, None], z[None, :], out=recip)
            diagonal[:] = np.inf  # 1/inf = 0 drops j = i
            repulsion = np.add.reduce(np.divide(1.0, recip, out=recip), axis=1)
            denom = 1.0 - ratio * repulsion
            step = np.divide(ratio, denom, out=ratio, where=np.abs(denom) > 1e-300)
            z = z - step
            largest, scale = np.maximum.reduce(np.abs(step)), max(1.0, np.maximum.reduce(np.abs(z)))
            if largest < STEP_TOL * scale or (sweep > 1 and largest**3 < EPS * scale * last**2):
                break
            if sweep == MAX_SWEEPS:  # the iterate stands if its residual does
                if not np.maximum.reduce(np.abs(polyval(coeffs, z))) <= 1e-8 * np.maximum.reduce(np.abs(coeffs)):
                    raise RootFindingError("Aberth-Ehrlich iteration did not converge")
                break
            last = largest
    if np.logical_or.reduce(stalled & (p != 0)):
        raise RootFindingError("an iterate stalled where P' vanishes and P does not")
    return z


def _circle_guesses(coeffs: np.ndarray) -> np.ndarray | None:
    """One guess per zero of a self-inversive polynomial P of degree m, or None.

    P* = -b P makes r(theta) = Re(conj(kappa) e^{-i m theta/2} P(e^{i theta}))
    real up to roundoff for one unimodular kappa, and its sign changes bracket
    the m simple zeros on the circle.  r is sampled by Horner on the 8m nodes
    theta_j = 2 pi (j + 1/4) / 8m, off theta = 0 and pi where real POPUCs
    vanish; kappa is the phase of the largest sample, and r(theta_j + 2 pi) =
    (-1)^m r(theta_j) closes the circle.  Each guess is the linear
    interpolation inside its step.  Returns None unless the changes number m.
    """
    m = len(coeffs) - 1
    n = 8 * m
    j = np.arange(n) + 0.25
    p = horner(coeffs, np.exp((2j * math.pi / n) * j))
    p *= np.exp((-0.125j * math.pi) * j)  # e^{-i m theta_j / 2}
    r = (p * p[np.abs(p).argmax()].conjugate()).real
    after = np.empty(n)  # r at theta_{j+1}
    after[:-1], after[-1] = r[1:], (-1) ** m * r[0]
    change = ((r > 0) != (after > 0)).nonzero()[0]
    if len(change) != m:
        return None
    before = r[change]
    return np.exp((2j * math.pi / n) * (j[change] + before / (before - after[change])))


def zeros_on_circle(
    p: PopucInstance, xi: complex | None = None, start: np.ndarray | None = None
) -> ZeroSet:
    """Locate all zeros of a POPUC, project them to the circle, sort phases.

    The root nearest ``xi``, a zero that b put there (:func:`fix_zero_param`),
    is xi itself: first, at ``cmath.phase(xi)`` to the bit, with ``fixed_index``
    0; without xi the phases ascend from -pi.  ``start`` (one guess per zero)
    seeds :func:`aberth_roots`; by default it is :func:`_circle_guesses`, or
    Aberth's own quarter-slot guesses when those do not number one per zero.
    Raises :class:`RootFindingError` when a root strays further than 1e-6
    from the circle before projection (the input was not a POPUC) or when a
    projected residual, the pinned zero's among them, exceeds 1e-9 * max|coeff|.
    """
    coeffs = p.poly.coeffs
    roots = aberth_roots(coeffs, _circle_guesses(coeffs) if start is None else start)
    deviation = float(np.maximum.reduce(np.abs(np.abs(roots) - 1.0)))
    if not deviation <= MODULUS_TOL:
        raise RootFindingError(
            f"root modulus deviates {deviation:.3e} from 1; input is not a POPUC"
        )
    angles, theta_start = np.arctan2(roots.imag, roots.real), -math.pi
    if xi is not None:  # the root nearest xi is xi, with phase offset 0 exactly
        theta_start = angles[np.abs(roots - xi).argmin()] = cmath.phase(xi)
    offsets = np.mod(angles - theta_start, 2.0 * math.pi)
    offsets.sort()
    phases = theta_start + offsets
    zeros = np.exp(1j * phases)
    residuals = np.abs(coeffs @ power_table(_scratch(len(phases))[1], zeros))
    if not (largest := np.maximum.reduce(residuals)) <= RESIDUAL_TOL * np.maximum.reduce(np.abs(coeffs)):
        raise RootFindingError(f"projected residual {largest:.3e} exceeds tolerance")
    zs = ZeroSet(phases, residuals, deviation, None if xi is None else 0, zeros)
    if not zs.min_gap > 0:
        raise RootFindingError("coincident zeros; POPUC zeros must be simple")
    return zs
