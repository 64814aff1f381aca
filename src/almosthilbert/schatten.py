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

from dataclasses import dataclass

import numpy as np

from . import numerics
from .operators import BOperator, adjoint, h_matrix

POWER_EXPONENTS = (1.0, 2.0, 4.0)


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values (descending) and eigenvalues (by multiplicity)."""

    mu: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        lam = np.asarray(self.lam, dtype=np.complex128)
        if mu.ndim != 1 or lam.shape != mu.shape:
            raise ValueError("mu and lam must be 1-D sequences of equal length")
        if mu.size and (np.min(mu) < 0.0 or np.any(np.diff(mu) > 0.0)):
            raise ValueError("singular values must be nonnegative and descending")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)


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
    mh = h_matrix(A)
    _, s, _ = numerics.svd(mh)
    prod_h = h_matrix(adjoint(A) @ A)
    eig = numerics.hermitian_eigen((prod_h + prod_h.conj().T) / 2.0)
    s2 = s**2
    scale = max(1.0, float(s2[0]) if s.size else 0.0)
    gap = float(np.max(np.abs(s2 - eig.values))) if s.size else 0.0
    return s, gap, scale


def singular_values(A: BOperator, tol: float = 1e-10) -> np.ndarray:
    """Singular values in the weighted metric, descending.

    The two paths of ``singular_value_gap`` must agree: a disagreement
    beyond ``tol`` (relative) raises ArithmeticError.
    """
    s, gap, scale = singular_value_gap(A)
    if gap > tol * scale:
        raise ArithmeticError(f"singular-value paths disagree by {gap:.3e}")
    return s


def singular_spectrum(A: BOperator) -> SingularSpectrum:
    """Bundle mu (weighted metric) with the coordinate point spectrum."""
    return SingularSpectrum(singular_values(A), numerics.general_eigenvalues(A.matrix))


def _validate_order(p: float) -> float:
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"Schatten order must be a finite real >= 1, got {p}")
    return p


def schatten_norm_paths(A: BOperator, p: float) -> tuple[float, float]:
    """The two defining formulas for the Schatten p-norm.

    First entry: the bracket formula (sum of Rayleigh brackets
    <A*A phi_n, phi_n*>^{p/2} over the biorthonormal eigenbasis of A*A)
    ^{1/p}.  Second entry: (sum mu_n^p)^{1/p} over the weighted-metric
    singular values.  The two share no factorization.
    """
    p = _validate_order(p)
    prod = adjoint(A) @ A
    mh = h_matrix(prod)
    eig = numerics.hermitian_eigen((mh + mh.conj().T) / 2.0)
    w = A.space.weights
    sw = np.sqrt(w)
    brackets = []
    for n in range(A.space.dim):
        c = eig.vectors[:, n] / sw
        mc = prod.matrix @ c
        num = np.sum(w * mc * np.conj(c))
        den = np.sum(w * c * np.conj(c))
        brackets.append(max((num / den).real, 0.0))
    bracket_norm = float(np.sum(np.asarray(brackets) ** (p / 2.0)) ** (1.0 / p))
    mu = singular_values(A)
    mu_norm = float(np.sum(mu**p) ** (1.0 / p))
    return bracket_norm, mu_norm


def schatten_norm(A: BOperator, p: float, tol: float = 1e-9) -> float:
    """Schatten p-norm, with the two defining paths required to agree
    to ``tol`` relative; disagreement raises ArithmeticError."""
    bracket_norm, mu_norm = schatten_norm_paths(A, p)
    if abs(bracket_norm - mu_norm) > tol * max(1.0, mu_norm):
        raise ArithmeticError(
            f"Schatten paths disagree: bracket={bracket_norm!r} mu-sum={mu_norm!r}"
        )
    return mu_norm


def _power_sums(values: np.ndarray) -> list[float]:
    """sum_n values_n^p for each p in POWER_EXPONENTS, one Python float per
    term, the terms added by numpy in list order."""
    return [float(np.sum([float(v) ** p for v in values])) for p in POWER_EXPONENTS]


def weyl_sums(A: BOperator) -> list[tuple[float, float]]:
    """(sum |eigenvalue|^p, sum singular value^p) for each p in
    POWER_EXPONENTS; Weyl's inequality says the first never exceeds the
    second."""
    spec = singular_spectrum(A)
    return list(zip(_power_sums(np.abs(spec.lam)), _power_sums(spec.mu)))


def horn_sums(A1: BOperator, A2: BOperator) -> list[tuple[float, float]]:
    """(sum |eigenvalue of A1 A2|^p, sum (paired singular-value product)^p),
    both sorted descending, for each p in POWER_EXPONENTS; Horn's
    inequality says the first never exceeds the second."""
    A1._require_same_space(A2)
    lam = numerics.general_eigenvalues((A1 @ A2).matrix)
    mu_pair = singular_values(A1) * singular_values(A2)
    return list(zip(_power_sums(np.abs(lam)), _power_sums(mu_pair)))


def lalesco_sums(A: BOperator) -> tuple[float, float]:
    """(sum |eigenvalue|, sum singular value): Lalesco's inequality says the
    first never exceeds the second."""
    spec = singular_spectrum(A)
    return float(np.sum(np.abs(spec.lam))), float(np.sum(spec.mu))


def lidskii_sums(A: BOperator) -> tuple[complex, complex]:
    """(sum of eigenvalues, coordinate trace): equal by Lidskii's theorem
    (similarity invariant)."""
    lam = numerics.general_eigenvalues(A.matrix)
    return complex(np.sum(lam)), complex(np.trace(A.matrix))
