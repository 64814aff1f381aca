"""Trace-ideal quantities for truncated operators.

Singular values are computed in the weighted metric, where the truncation
is an honest Hilbert space: one SVD of the metric transport h(A) gives
them, and every Schatten norm is read from them.  For the checks that
compare paths, ``singular_value_gap`` and ``schatten_norm_paths`` add a
second, independently computed path from one eigen decomposition of
h(A*A).  Eigenvalue inequalities (Weyl, whose p = 1 row is Lalesco's,
Horn, Lidskii) use the coordinate-matrix point spectrum, which is
similarity invariant and therefore metric independent.  Every function
returns numbers, such as the two sides of an inequality or the two paths
of an identity, and the suites judge them.  Every function takes an operator or a stack of them
(``BOperator`` with a (..., N, N) matrix) and returns its numbers with the
stack shape in front: a float per operator becomes an array of shape
(...,).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import numerics
from .operators import BOperator, adjoint, h_eigen, h_matrix

POWER_EXPONENTS = (1.0, 2.0, 4.0)


def _factor(A: BOperator) -> tuple[np.ndarray, np.ndarray, numerics.EigenResult, np.ndarray,
                                   np.ndarray]:
    """(s, h(A*A), eig, gap, scale): the singular values of A and, from one
    eigen decomposition of the transport h(A*A), the second path to them."""
    s = singular_values(A)
    prod_h = h_matrix(adjoint(A) @ A)
    eig = h_eigen(prod_h)
    s2 = s**2
    scale = np.maximum(1.0, s2[..., 0])
    gap = np.max(np.abs(s2 - eig.values), axis=-1)
    return s, prod_h, eig, gap, scale


def singular_value_gap(A: BOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted-metric singular values by two paths, and how far apart they are.

    Returns (s, gap, scale): s is ``singular_values(A)``; gap is the largest
    difference between s**2 and the weighted-metric eigenvalues of A*A;
    scale is max(1, s_1**2), the size the gap is judged against.  The
    comparison is made in the squared domain, where both paths carry a
    backward-error bound of order eps * s_1**2; taking square roots would
    amplify the error on small singular values by cond(A).
    """
    s, _, _, gap, scale = _factor(A)
    return s, gap, scale


def singular_values(A: BOperator) -> np.ndarray:
    """Singular values in the weighted metric, descending along the last
    axis: the SVD of the metric transport h(A)."""
    _, s, _ = numerics.svd(h_matrix(A))
    return s


def _orders(ps: Sequence[float]) -> list[float]:
    orders = [float(x) for x in ps]
    for x in orders:
        if not np.isfinite(x) or x < 1.0:
            raise ValueError(f"Schatten order must be a finite real >= 1, got {x}")
    return orders


# The p-th powers and roots of scalars go through np.float_power, which
# rounds as the C pow of a float does: a stack of operators then gets, bit
# for bit, what each operator alone gets from scalar arithmetic, where
# numpy's vectorised ``**`` on a row may round differently.


def _mu_norm(mu: np.ndarray, p: float) -> np.ndarray:
    return np.float_power(np.sum(mu**p, axis=-1), 1.0 / p)


def schatten_norm_paths(A: BOperator,
                        ps: Sequence[float]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The two defining formulas for the Schatten p-norm, one pair per order
    in ``ps``; comparing them is the job of the caller.

    First entry: the bracket formula (sum of Rayleigh brackets
    <A*A phi_n, phi_n*>^{p/2} over the biorthonormal eigenbasis of A*A)
    ^{1/p}, evaluated in H coordinates as diag(V^H h(A*A) V) / diag(V^H V)
    over the eigenvectors V.  Second entry: (sum mu_n^p)^{1/p} over the
    singular values, which is ``schatten_norm``.  Both come from one
    ``_factor`` call.
    """
    ps = _orders(ps)
    mu, prod_h, eig, _, _ = _factor(A)
    v = eig.vectors
    num = np.sum(v.conj() * (prod_h @ v), axis=-2)
    den = np.sum(np.abs(v) ** 2, axis=-2)
    brackets = np.maximum((num / den).real, 0.0)
    return [(np.float_power(np.sum(brackets ** (x / 2.0), axis=-1), 1.0 / x), _mu_norm(mu, x))
            for x in ps]


def schatten_norm(A: BOperator, ps: Sequence[float]) -> list[np.ndarray]:
    """Schatten p-norms (sum mu_n^p)^{1/p} over the singular values, one per
    order in ``ps``."""
    ps = _orders(ps)
    mu = singular_values(A)
    return [_mu_norm(mu, x) for x in ps]


def _power_sums(values: np.ndarray) -> np.ndarray:
    """sum_n values_n^p along the last axis, for each p in POWER_EXPONENTS
    (a new last axis)."""
    return np.stack([np.sum(np.float_power(values, p), axis=-1) for p in POWER_EXPONENTS], -1)


def weyl_sums(A: BOperator) -> np.ndarray:
    """Rows (sum |eigenvalue|^p, sum singular value^p), one for each p in
    POWER_EXPONENTS; Weyl's inequality says the first never exceeds the
    second."""
    lam = numerics.general_eigenvalues(A.matrix)
    return np.stack([_power_sums(np.abs(lam)), _power_sums(singular_values(A))], axis=-1)


def horn_sums(A1: BOperator, A2: BOperator) -> np.ndarray:
    """Rows (sum |eigenvalue of A1 A2|^p, sum (paired singular-value
    product)^p), both sorted descending, one for each p in POWER_EXPONENTS;
    Horn's inequality says the first never exceeds the second."""
    A1._require_same_space(A2)
    lam = numerics.general_eigenvalues((A1 @ A2).matrix)
    mu_pair = singular_values(A1) * singular_values(A2)
    return np.stack([_power_sums(np.abs(lam)), _power_sums(mu_pair)], axis=-1)


def lidskii_sums(A: BOperator) -> tuple[np.ndarray, np.ndarray]:
    """(sum of eigenvalues, coordinate trace): equal by Lidskii's theorem
    (similarity invariant)."""
    lam = numerics.general_eigenvalues(A.matrix)
    return np.sum(lam, axis=-1), np.trace(A.matrix, axis1=-2, axis2=-1)
