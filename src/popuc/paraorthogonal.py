"""POPUC construction and unit-circle zero finding.

P(z) = z Q_n(z) - conj(b) Q_n*(z) with |b| = 1.  All zeros of a valid
POPUC lie on the unit circle and are simple; they are located by Aberth-
Ehrlich iteration (P and P' from one table of powers per sweep) with a Newton
polish, projected to modulus one and sorted into [theta_ref, theta_ref + 2 pi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .opuc import MonicPoly, polyval, power_table, reversed_poly, szego_step

__all__ = [
    "PopucInstance",
    "ZeroSet",
    "RootFindingError",
    "build_popuc",
    "fix_zero_param",
    "zeros_on_circle",
    "aberth_roots",
    "deflate",
]

UNIMODULAR_TOL = 1e-12
MODULUS_TOL = 1e-6
RESIDUAL_TOL = 1e-9
WRAP_TOL = 1e-12
MAX_SWEEPS = 200  # Aberth-Ehrlich sweep cap
STEP_TOL = 1e-14  # the sweeps end once every step is below STEP_TOL * max(1, max|z|)


class RootFindingError(RuntimeError):
    """Zero finder failed to converge or the zeros are not on the circle."""


@dataclass(frozen=True)
class PopucInstance:
    """POPUC of degree n+1 built from Q_n and a unimodular parameter b."""

    poly: MonicPoly
    b: complex

    @property
    def degree(self) -> int:
        return self.poly.degree

    def __call__(self, z):
        return self.poly(z)


@dataclass(frozen=True)
class ZeroSet:
    """Sorted unit-circle zero phases of a POPUC.

    Phases ascend within one period window (see :func:`zeros_on_circle`);
    ``fixed_index`` designates the pinned zero, if there is one.
    """

    phases: np.ndarray
    residuals: np.ndarray
    pre_projection_deviation: float
    fixed_index: int | None = None

    def __len__(self) -> int:
        return len(self.phases)

    @property
    def zeros(self) -> np.ndarray:
        return np.exp(1j * self.phases)

    @property
    def min_gap(self) -> float:
        ph = np.sort(self.phases)
        gaps = np.diff(np.concatenate([ph, [ph[0] + 2.0 * math.pi]]))
        return float(np.min(gaps))

    def nearest_index(self, phase: float) -> int:
        d = np.abs(np.angle(np.exp(1j * (self.phases - phase))))
        return int(np.argmin(d))


def build_popuc(q: MonicPoly, b: complex) -> PopucInstance:
    """z Q_n(z) - conj(b) Q_n*(z), monic of degree n+1: the Szego step with b for alpha_n."""
    if not abs(abs(b) - 1.0) <= UNIMODULAR_TOL:
        raise ValueError(f"|b| = {abs(b)} is off the unit circle")
    return PopucInstance(MonicPoly(szego_step(q.coeffs, np.conj(b))), complex(b))


def fix_zero_param(q: MonicPoly, xi: complex) -> complex:
    """Unimodular b such that the POPUC built from ``q`` vanishes at ``xi``.

    b = conj(xi) conj(Q_n(xi)) / conj(Q_n*(xi)); on the circle
    |Q_n*| = |Q_n| so |b| = 1 up to roundoff, and it is renormalized exactly.
    """
    if not abs(abs(xi) - 1.0) <= UNIMODULAR_TOL:
        raise ValueError(f"|xi| = {abs(xi)} is off the unit circle")
    q_xi, qs = polyval(np.stack([q.coeffs, reversed_poly(q.coeffs)]), xi)
    if not abs(qs) >= 1e-14:
        raise ValueError("reversed polynomial vanishes at xi (degenerate input)")
    b = np.conj(xi) * np.conj(q_xi) / np.conj(qs)
    return complex(b / abs(b))


def aberth_roots(coeffs: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """All roots of the polynomial by Aberth-Ehrlich simultaneous iteration.

    ``start`` holds one finite initial guess per root, e.g. the zeros of a
    nearby polynomial; by default the guesses sit equispaced on the unit
    circle, offset by half a slot (ideal for zeros that are themselves on the
    circle).  P and P', padded to one length and stacked, come from one table
    of powers per sweep, which like the reciprocal differences is filled in place.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    m = len(coeffs) - 1
    if start is not None:
        start = np.asarray(start, dtype=complex)
        if start.shape != (m,) or not np.all(np.isfinite(start)):
            raise ValueError(f"start must hold {m} finite initial guesses")
    if m < 1:
        return np.array([], dtype=complex)
    pair = np.stack([coeffs, np.append(coeffs[1:] * np.arange(1, m + 1), 0.0)])
    z = np.exp(1j * (2.0 * np.pi * (np.arange(m) + 0.5) / m)) if start is None else start
    table = np.empty((m + 1, m), dtype=complex)  # powers of z
    recip = np.empty((m, m), dtype=complex)  # z_i - z_j, then its reciprocal
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_SWEEPS):
            p, dp = pair @ power_table(table, z)
            ratio = p / dp
            ratio[dp == 0] = 0.0
            np.subtract(z[:, None], z[None, :], out=recip)
            recip.reshape(-1)[:: m + 1] = np.inf  # the diagonal: 1/inf = 0 drops j = i
            repulsion = np.sum(np.divide(1.0, recip, out=recip), axis=1)
            denom = 1.0 - ratio * repulsion
            step = np.where(np.abs(denom) > 1e-300, ratio / denom, ratio)
            z = z - step
            if np.max(np.abs(step)) < STEP_TOL * max(1.0, np.max(np.abs(z))):
                break
        else:
            if not np.max(np.abs(polyval(coeffs, z))) <= 1e-8 * np.max(np.abs(coeffs)):
                raise RootFindingError("Aberth-Ehrlich iteration did not converge")
        for _ in range(3):  # Newton polish, 0 where P' vanishes
            p, dp = pair @ power_table(table, z)
            ratio = p / dp
            ratio[dp == 0] = 0.0
            z = z - ratio
    return z


def zeros_on_circle(
    p: PopucInstance, theta_ref: float = -math.pi, start: np.ndarray | None = None
) -> ZeroSet:
    """Locate all zeros of a POPUC, project them to the circle, sort phases.

    ``start`` (initial guesses, one per zero) is passed to :func:`aberth_roots`.
    Raises :class:`RootFindingError` when a root strays further than 1e-6
    from the circle before projection (the input was not a POPUC) or when a
    projected residual exceeds 1e-9 * max|coeff|.
    """
    coeffs = p.poly.coeffs
    roots = aberth_roots(coeffs, start)
    deviation = float(np.max(np.abs(np.abs(roots) - 1.0)))
    if not deviation <= MODULUS_TOL:
        raise RootFindingError(
            f"root modulus deviates {deviation:.3e} from 1; input is not a POPUC"
        )
    # reduce into [theta_ref, theta_ref + 2 pi); a zero less than WRAP_TOL below
    # theta_ref + 2 pi is the zero at theta_ref (a pinned xi found an ulp low)
    offsets = np.mod(np.angle(roots) - theta_ref, 2.0 * math.pi)
    phases = theta_ref + np.sort(np.where(offsets > 2.0 * math.pi - WRAP_TOL, 0.0, offsets))
    scale = float(np.max(np.abs(coeffs)))
    residuals = np.abs(polyval(coeffs, np.exp(1j * phases)))
    if not np.max(residuals) <= RESIDUAL_TOL * scale:
        raise RootFindingError(
            f"projected residual {np.max(residuals):.3e} exceeds tolerance"
        )
    zs = ZeroSet(
        phases=phases,
        residuals=residuals,
        pre_projection_deviation=deviation,
    )
    if not zs.min_gap > 0:
        raise RootFindingError("coincident zeros; POPUC zeros must be simple")
    return zs


def deflate(coeffs: np.ndarray, root: complex) -> np.ndarray:
    """Synthetic division: coefficients of p(z)/(z - root), remainder dropped.

    Intended for known zeros; the remainder is the residual p(root).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    m = len(coeffs) - 1
    out = np.zeros(m, dtype=complex)
    acc = coeffs[m]
    for k in range(m - 1, -1, -1):
        out[k] = acc
        acc = coeffs[k] + acc * root
    return out
