"""Trace-ideal quantities for truncated operators.

Singular values are computed in the weighted metric, where the truncation
is an honest Hilbert space, and every norm comes with a second,
independently computed path so the defining identities are checked rather
than assumed.  Eigenvalue inequalities (Weyl, Horn, Lalesco, Lidskii) use
the coordinate-matrix point spectrum, which is similarity invariant and
therefore metric independent; each function returns the two sides of its
inequality, and the suites judge them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import numerics
from .operators import BOperator, adjoint, h_eigen, h_matrix

POWER_EXPONENTS = (1.0, 2.0, 4.0)

# Relative tolerance between the two singular-value paths (squared domain).
_SINGULAR_TOL = 1e-10
# Relative tolerance between the two Schatten-norm paths.
_NORM_TOL = 1e-9


def _factor(A: BOperator) -> tuple[np.ndarray, np.ndarray, numerics.EigenResult, float, float]:
    """(s, h(A*A), eig, gap, scale): every Schatten quantity of A is read from
    this one SVD of its transport and one eigen decomposition of the
    transport h(A*A)."""
    _, s, _ = numerics.svd(h_matrix(A))
    prod_h = h_matrix(adjoint(A) @ A)
    eig = h_eigen(prod_h)
    s2 = s**2
    scale = max(1.0, float(s2[0]) if s.size else 0.0)
    gap = float(np.max(np.abs(s2 - eig.values))) if s.size else 0.0
    return s, prod_h, eig, gap, scale


def _require_agreement(gap: float, scale: float) -> None:
    if gap > _SINGULAR_TOL * scale:
        raise ArithmeticError(f"singular-value paths disagree by {gap:.3e}")


def singular_value_gap(A: BOperator) -> tuple[np.ndarray, float, float]:
    """Weighted-metric singular values by two paths, and how far apart they are.

    Returns (s, gap, scale): s is the SVD of the metric transport of A,
    descending; gap is the largest difference between s**2 and the
    weighted-metric eigenvalues of A*A; scale is max(1, s_1**2), the size
    the gap is judged against.  The comparison is made in the squared
    domain, where both paths carry a backward-error bound of order
    eps * s_1**2; taking square roots would amplify the error on small
    singular values by cond(A).
    """
    s, _, _, gap, scale = _factor(A)
    return s, gap, scale


def singular_values(A: BOperator) -> np.ndarray:
    """Singular values in the weighted metric, descending.

    The two paths of ``singular_value_gap`` must agree: a disagreement
    beyond 1e-10 (relative) raises ArithmeticError.
    """
    s, gap, scale = singular_value_gap(A)
    _require_agreement(gap, scale)
    return s


def schatten_norm_paths(A: BOperator, ps: Sequence[float]) -> list[tuple[float, float]]:
    """The two defining formulas for the Schatten p-norm, one pair per order
    in ``ps``.

    First entry: the bracket formula (sum of Rayleigh brackets
    <A*A phi_n, phi_n*>^{p/2} over the biorthonormal eigenbasis of A*A)
    ^{1/p}, evaluated in H coordinates as diag(V^H h(A*A) V) / diag(V^H V)
    over the eigenvectors V.  Second entry: (sum mu_n^p)^{1/p} over the
    SVD singular values.  Both come from one ``_factor`` call, whose
    singular-value gap must be within tolerance.
    """
    ps = [float(x) for x in ps]
    for x in ps:
        if not np.isfinite(x) or x < 1.0:
            raise ValueError(f"Schatten order must be a finite real >= 1, got {x}")
    mu, prod_h, eig, gap, scale = _factor(A)
    _require_agreement(gap, scale)
    v = eig.vectors
    num = np.sum(v.conj() * (prod_h @ v), axis=0)
    den = np.sum(np.abs(v) ** 2, axis=0)
    brackets = np.maximum((num / den).real, 0.0)
    return [(float(np.sum(brackets ** (x / 2.0)) ** (1.0 / x)),
             float(np.sum(mu**x) ** (1.0 / x))) for x in ps]


def schatten_norm(A: BOperator, ps: Sequence[float]) -> list[float]:
    """Schatten p-norms, one per order in ``ps``, with the two defining
    paths required to agree to 1e-9 relative; disagreement raises
    ArithmeticError."""
    norms = []
    for bracket_norm, mu_norm in schatten_norm_paths(A, ps):
        if abs(bracket_norm - mu_norm) > _NORM_TOL * max(1.0, mu_norm):
            raise ArithmeticError(
                f"Schatten paths disagree: bracket={bracket_norm!r} mu-sum={mu_norm!r}"
            )
        norms.append(mu_norm)
    return norms


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
