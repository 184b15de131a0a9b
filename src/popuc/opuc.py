"""Monic orthogonal polynomials on the unit circle from a moment sequence.

Coefficient arrays are ascending: coeffs[k] multiplies z**k.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import MomentSequence

__all__ = [
    "MonicPoly",
    "OpucFamily",
    "DegenerateMeasureError",
    "gram_opuc",
    "reversed_poly",
    "szego_step",
    "inner_product",
    "polyval",
]

# smallest admissible norm ratio kappa_m / c_0; below it the support is exhausted
DEGENERACY_THRESHOLD = 1e-12


class DegenerateMeasureError(ValueError):
    """The norm ratio kappa_m / c_0 = prod (1 - |alpha_k|^2) collapsed
    (finite support exhausted)."""


def polyval(coeffs: np.ndarray, z: complex | np.ndarray) -> complex | np.ndarray:
    """Value at ``z`` (a complex for a 0-d ``z``) of an ascending coefficient array
    or of each row of a stack of them: the coefficients times one table of powers
    of ``z`` (see :func:`power_table`)."""
    z = np.asarray(z, dtype=complex)
    table = power_table(np.empty((np.shape(coeffs)[-1], z.size), dtype=complex), z.reshape(-1))
    result = (coeffs @ table).reshape(np.shape(coeffs)[:-1] + z.shape)
    return complex(result) if result.ndim == 0 else result


def power_table(table: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``table`` with row k set to z**k, by doubling: rows k..2k-1 are rows 0..k-1 times z^k."""
    k, n = 1, len(table)
    table[:1] = 1.0
    while k < n:
        np.multiply(table[: min(k, n - k)], z, out=table[k : 2 * k])
        k, z = 2 * k, z * z
    return table


@dataclass(frozen=True)
class MonicPoly:
    """Complex polynomial with leading coefficient exactly 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim != 1 or len(coeffs) == 0:
            raise ValueError("coefficient array must be one-dimensional and non-empty")
        if not abs(coeffs[-1] - 1.0) <= 1e-9:
            raise ValueError(f"leading coefficient {coeffs[-1]} is not 1")
        coeffs = coeffs.copy()
        coeffs[-1] = 1.0
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return polyval(self.coeffs, z)


def reversed_poly(coeffs: np.ndarray) -> np.ndarray:
    """Reversed polynomial p*(z) = z^m conj(p(1/conj(z))): b_k = conj(a_{m-k})."""
    return np.conj(np.asarray(coeffs, dtype=complex))[::-1].copy()


def inner_product(p: np.ndarray, q: np.ndarray, ms: MomentSequence) -> complex:
    """<p, q> = int p(e^{i theta}) conj(q(e^{i theta})) dmu = sum p_j conj(q_k) c_{k-j}."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    T = ms.toeplitz(max(len(p), len(q)))
    return complex(np.conj(q) @ T[: len(q), : len(p)] @ p)


def szego_step(coeffs: np.ndarray, conj_alpha: complex) -> np.ndarray:
    """z p(z) - conj_alpha p*(z): one step of the Szego recursion, one degree up."""
    coeffs = np.asarray(coeffs, dtype=complex)
    out = np.zeros(len(coeffs) + 1, dtype=complex)
    out[1:] = coeffs
    out[:-1] -= conj_alpha * reversed_poly(coeffs)
    return out


@dataclass(frozen=True)
class OpucFamily:
    """Q_0..Q_n as rows of a read-only table, with squared norms and Verblunsky coefficients.

    coeffs[k, :k+1] is Q_k; alphas[k] = -conj(Q_{k+1}(0)), for k = 0..n-1.
    """

    coeffs: np.ndarray
    norms: np.ndarray
    alphas: np.ndarray

    @property
    def max_degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, degree: int) -> MonicPoly:
        return MonicPoly(self.coeffs[degree, : degree + 1])


def gram_opuc(ms: MomentSequence, n: int) -> OpucFamily:
    """Q_0..Q_n by the Szego recursion Q_{k+1} = z Q_k - conj(alpha_k) Q_k*, a
    :func:`szego_step` into each row of one table; n > ms.K raises IndexError.

    conj(alpha_k) = <z Q_k, 1> / kappa_k and kappa_{k+1} = (1 - |alpha_k|^2) kappa_k,
    with kappa_k = ||Q_k||^2.  Raises :class:`DegenerateMeasureError` when the
    norm ratio kappa_m / c_0 = prod_{k<m} (1 - |alpha_k|^2) collapses, which for
    a pure N-point measure happens at degree N.
    """
    if n < 0:
        raise ValueError(f"OPUC degree {n} is negative")
    if n > ms.K:
        raise IndexError(f"OPUC degree {n} exceeds the moment order K={ms.K}")
    # [c_0, c_{-1}, ..., c_{-n}]: <z^{j+1}, 1> = c_{-(j+1)} = row[j + 1]
    row = ms.c[ms.K - n : ms.K + 1][::-1].copy()  # contiguous: a strided dot sums in another order
    c0 = row[0].real
    table = np.eye(n + 1, dtype=complex)  # row m becomes Q_m, monic of degree m
    norms, alphas = [c0], []
    for m in range(1, n + 1):
        q = table[m - 1, :m]
        conj_alpha = complex(q @ row[1 : m + 1]) / norms[-1]
        kappa = (1.0 - abs(conj_alpha) ** 2) * norms[-1]
        if kappa <= DEGENERACY_THRESHOLD * c0:
            raise DegenerateMeasureError(
                f"norm ratio collapsed at degree {m} (kappa_{m} / c_0 = {kappa / c0:.3e})"
            )
        table[m, 1 : m + 1] = q
        table[m, :m] -= conj_alpha * reversed_poly(q)
        norms.append(kappa)
        alphas.append(np.conj(conj_alpha))
    table.setflags(write=False)
    return OpucFamily(table, np.array(norms), np.array(alphas, dtype=complex))
