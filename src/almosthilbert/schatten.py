"""Trace-ideal quantities for truncated operators.

Singular values are computed in the weighted metric, where the truncation
is an honest Hilbert space: one SVD of the metric transport h(A) gives
them, and every Schatten norm is read from them.  For the checks that
compare paths, ``singular_value_gap`` and ``schatten_norm_paths`` add a
second, independently computed path from one eigen decomposition of
h(A*A).  Eigenvalue inequalities (Weyl, Horn, Lalesco, Lidskii) use the
coordinate-matrix point spectrum, which is similarity invariant and
therefore metric independent.  Every function returns numbers, such as
the two sides of an inequality or the two paths of an identity, and the
suites judge them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import numerics
from .operators import BOperator, adjoint, h_eigen, h_matrix

POWER_EXPONENTS = (1.0, 2.0, 4.0)


def _factor(A: BOperator) -> tuple[np.ndarray, np.ndarray, numerics.EigenResult, float, float]:
    """(s, h(A*A), eig, gap, scale): the singular values of A and, from one
    eigen decomposition of the transport h(A*A), the second path to them."""
    s = singular_values(A)
    prod_h = h_matrix(adjoint(A) @ A)
    eig = h_eigen(prod_h)
    s2 = s**2
    scale = max(1.0, float(s2[0]) if s.size else 0.0)
    gap = float(np.max(np.abs(s2 - eig.values))) if s.size else 0.0
    return s, prod_h, eig, gap, scale


def singular_value_gap(A: BOperator) -> tuple[np.ndarray, float, float]:
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
    """Singular values in the weighted metric, descending: the SVD of the
    metric transport h(A)."""
    _, s, _ = numerics.svd(h_matrix(A))
    return s


def _orders(ps: Sequence[float]) -> list[float]:
    orders = [float(x) for x in ps]
    for x in orders:
        if not np.isfinite(x) or x < 1.0:
            raise ValueError(f"Schatten order must be a finite real >= 1, got {x}")
    return orders


def _mu_norm(mu: np.ndarray, p: float) -> float:
    return float(np.sum(mu**p) ** (1.0 / p))


def schatten_norm_paths(A: BOperator, ps: Sequence[float]) -> list[tuple[float, float]]:
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
    num = np.sum(v.conj() * (prod_h @ v), axis=0)
    den = np.sum(np.abs(v) ** 2, axis=0)
    brackets = np.maximum((num / den).real, 0.0)
    return [(float(np.sum(brackets ** (x / 2.0)) ** (1.0 / x)), _mu_norm(mu, x)) for x in ps]


def schatten_norm(A: BOperator, ps: Sequence[float]) -> list[float]:
    """Schatten p-norms (sum mu_n^p)^{1/p} over the singular values, one per
    order in ``ps``."""
    ps = _orders(ps)
    mu = singular_values(A)
    return [_mu_norm(mu, x) for x in ps]


def _power_sums(values: np.ndarray) -> list[float]:
    """sum_n values_n^p for each p in POWER_EXPONENTS, one Python float per
    term, the terms added by numpy in list order."""
    return [float(np.sum([float(v) ** p for v in values])) for p in POWER_EXPONENTS]


def weyl_sums(A: BOperator) -> list[tuple[float, float]]:
    """(sum |eigenvalue|^p, sum singular value^p) for each p in
    POWER_EXPONENTS; Weyl's inequality says the first never exceeds the
    second."""
    lam = numerics.general_eigenvalues(A.matrix)
    return list(zip(_power_sums(np.abs(lam)), _power_sums(singular_values(A))))


def horn_sums(A1: BOperator, A2: BOperator) -> list[tuple[float, float]]:
    """(sum |eigenvalue of A1 A2|^p, sum (paired singular-value product)^p),
    both sorted descending, for each p in POWER_EXPONENTS; Horn's
    inequality says the first never exceeds the second."""
    A1._require_same_space(A2)
    lam = numerics.general_eigenvalues((A1 @ A2).matrix)
    mu_pair = singular_values(A1) * singular_values(A2)
    return list(zip(_power_sums(np.abs(lam)), _power_sums(mu_pair)))


def lidskii_sums(A: BOperator) -> tuple[complex, complex]:
    """(sum of eigenvalues, coordinate trace): equal by Lidskii's theorem
    (similarity invariant)."""
    lam = numerics.general_eigenvalues(A.matrix)
    return complex(np.sum(lam)), complex(np.trace(A.matrix))
