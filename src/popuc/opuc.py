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
    "inner_product",
    "polyval",
    "horner",
]

# smallest admissible norm ratio kappa_m / c_0; below it the support is exhausted
DEGENERACY_THRESHOLD = 1e-12
# rows of a table of powers filled by one running product (see power_table):
# 16 fills degree 8-24 faster than 8 does, and ties it at degree 4-5 and 40-120
POWER_BLOCK = 16


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


def horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Value of an ascending coefficient array at each point of the 1-d ``z`` by
    Horner's rule, in one array the size of ``z`` (:func:`polyval` tabulates powers),
    of the coefficients' dtype: real coefficients at real points stay real."""
    p = np.empty(len(z), dtype=coeffs.dtype)
    p.fill(coeffs[-1])
    for c in coeffs[-2::-1]:
        np.multiply(p, z, out=p)
        p += c
    return p


def power_table(table: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``table``, a buffer its caller owns, with row k set to z**k in place.

    Rows 0..POWER_BLOCK-1 are one running product (``np.multiply.accumulate``
    down rows that each hold z); above them rows k..2k-1 are rows 0..k-1 times
    z^k = z^(k-1) z.  At the 5 to 9 rows of most solves a fill costs NumPy's
    per-call overhead, not arithmetic, so the running product's four calls take
    about a third of the time of doubling from row 1, one call per power of two.
    Row k carries a relative error of about k ulps either way.
    """
    n = len(table)
    k = min(n, POWER_BLOCK)
    table[:1] = 1.0
    table[1:k] = z
    np.multiply.accumulate(table[1:k], out=table[1:k])
    while k < n:
        np.multiply(table[: min(k, n - k)], table[k - 1] * z, out=table[k : 2 * k])
        k *= 2
    return table


@dataclass(frozen=True)
class MonicPoly:
    """Complex polynomial with leading coefficient exactly 1, in a read-only array:
    a copy of the one given, unless that is read-only, owns its memory and ends in 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim != 1 or len(coeffs) == 0:
            raise ValueError("coefficient array must be one-dimensional and non-empty")
        if not abs(coeffs[-1] - 1.0) <= 1e-9:
            raise ValueError(f"leading coefficient {coeffs[-1]} is not 1")
        if coeffs.flags.writeable or coeffs.base is not None or coeffs[-1] != 1.0:
            coeffs = coeffs.copy()  # else a read-only array of its own, monic to the bit, is kept
            coeffs[-1] = 1.0
            coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)


def reversed_poly(coeffs: np.ndarray) -> np.ndarray:
    """Reversed polynomial p*(z) = z^m conj(p(1/conj(z))): b_k = conj(a_{m-k})."""
    return np.conj(np.asarray(coeffs, dtype=complex))[::-1].copy()


def inner_product(p: np.ndarray, q: np.ndarray, ms: MomentSequence) -> complex:
    """<p, q> = int p(e^{i theta}) conj(q(e^{i theta})) dmu = sum p_j conj(q_k) c_{k-j}."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    T = ms.toeplitz(max(len(p), len(q)))
    return complex(np.conj(q) @ T[: len(q), : len(p)] @ p)


@dataclass(frozen=True)
class OpucFamily:
    """Q_0..Q_n as rows of a read-only table, with squared norms and Verblunsky coefficients.

    coeffs[k, :k+1] is Q_k; alphas[k] = -conj(Q_{k+1}(0)), for k = 0..n-1.
    """

    coeffs: np.ndarray
    norms: np.ndarray
    alphas: np.ndarray

    def __getitem__(self, degree: int) -> MonicPoly:
        return MonicPoly(self.coeffs[degree, : degree + 1])


def gram_opuc(ms: MomentSequence, n: int) -> OpucFamily:
    """Q_0..Q_n by the Szego recursion Q_{k+1} = z Q_k - conj(alpha_k) Q_k*, one
    step into each row of one table; n > ms.K raises IndexError.

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
    c0 = kappa = float(row[0].real)
    flat = np.zeros((n + 1) ** 2 + 1, dtype=complex)  # one zero, then the table
    table = flat[1:].reshape(n + 1, n + 1)  # row m becomes Q_m, monic of degree m
    flat[1 :: n + 2] = 1.0  # the diagonal of the table
    step = np.empty(n, dtype=complex)  # conj_alpha Q_{m-1}*, taken from z Q_{m-1} in row m
    norms, alphas = np.empty(n + 1), np.empty(n, dtype=complex)
    norms[0] = c0
    for m in range(1, n + 1):
        q = table[m - 1, :m]
        conj_alpha = complex(q @ row[1 : m + 1]) / kappa
        kappa *= 1.0 - abs(conj_alpha) ** 2
        if kappa <= DEGENERACY_THRESHOLD * c0:
            raise DegenerateMeasureError(
                f"norm ratio collapsed at degree {m} (kappa_{m} / c_0 = {kappa / c0:.3e})"
            )
        r = np.conjugate(q[::-1], out=step[:m])
        np.multiply(conj_alpha, r, out=r)  # this operand order keeps every bit
        # row m is z q - r below its leading 1, in one subtraction: the m slots of
        # flat before q's last are a zero (the pad, or table[m-2, n]) and q[:-1]
        start = (m - 1) * (n + 1)
        np.subtract(flat[start : start + m], r, out=table[m, :m])
        norms[m], alphas[m - 1] = kappa, conj_alpha.conjugate()
    table.setflags(write=False)
    return OpucFamily(table, norms, alphas)
