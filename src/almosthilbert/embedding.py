"""The natural Hilbert space over a Schauder basis.

Given basis coefficients c_n(u) = <E_n*, u> and weights t_n = 2^{-n}, the
inner product is (u, v)_H = sum_n t_n c_n(u) conj(c_n(v)).  At truncation N
the geometry of H is entirely the diagonal Gram matrix diag(t_1..t_N) on
coefficient space; the completion is never materialized.  The linear dual
representation J_B sends u to the functional v -> (v, u)_H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .spaces import GridFunction, SchauderBasis, analyze, coefficients, lp_norm_rows


def dyadic_weights(N: int) -> np.ndarray:
    """t_n = 2^{-n} for n = 1..N; exact dyadic floats."""
    return 2.0 ** -np.arange(1, N + 1)


@dataclass(frozen=True, eq=False)
class EmbeddingSpace:
    basis: SchauderBasis
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.basis),):
            raise ValueError("weights must match the basis length")
        if not np.all(w > 0):
            raise ValueError("weights must be positive")
        if not w.sum() < 1.0:
            raise ValueError("partial weight sum must stay below 1")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return len(self.basis)


def embedding_space(basis: SchauderBasis, weights=None) -> EmbeddingSpace:
    """Wrap a basis with weights (default: the dyadic schedule 2^{-n})."""
    if weights is None:
        weights = dyadic_weights(len(basis))
    return EmbeddingSpace(basis=basis, weights=weights)


def h_inner(u: GridFunction, v: GridFunction, space: EmbeddingSpace) -> complex:
    """(u, v)_H = sum_n t_n <E_n*, u> conj(<E_n*, v>)."""
    return complex(coefficient_h_inner(coefficients(u, space.basis),
                                       coefficients(v, space.basis), space))


def coefficient_h_inner(cu: np.ndarray, cv: np.ndarray, space: EmbeddingSpace) -> np.ndarray:
    """sum_n t_n cu_n conj(cv_n) over the last axis: the H inner product of
    the functions with coefficients cu and cv, one per row of a stack."""
    return np.sum(space.weights * cu * np.conj(cv), axis=-1)


def coefficient_h_norm(c: np.ndarray, space: EmbeddingSpace) -> np.ndarray:
    """sqrt(sum_n t_n |c_n|^2) over the last axis: the H norm of the
    function with coefficients c, one per row of a stack."""
    return np.sqrt(np.sum(space.weights * np.abs(c) ** 2, axis=-1))


def h_norm(u: GridFunction, space: EmbeddingSpace) -> float:
    return float(coefficient_h_norm(coefficients(u, space.basis), space))


def gram_matrix(space: EmbeddingSpace) -> np.ndarray:
    """G_mk = h_inner(E_m, E_k) from c[n, m] = <E_n*, E_m>; diag(t_n) up to quadrature error."""
    c = analyze(space.basis.synthesis, space.basis).T
    return c.T @ (space.weights[:, None] * np.conj(c))


@dataclass(frozen=True, eq=False)
class DualFunctional:
    """The functional v -> (v, representer)_H; additive and conjugate-
    homogeneous in the representer."""

    representer: GridFunction
    space: EmbeddingSpace


def jb_apply(u: GridFunction, space: EmbeddingSpace) -> DualFunctional:
    """J_B(u): the Hilbert-space representation of a dual element."""
    u._require_same_grid(space.basis.grid)
    return DualFunctional(representer=u, space=space)


def evaluate(F: DualFunctional, v: GridFunction) -> complex:
    """Apply a dual functional: <v, J_B(u)> = (v, u)_H."""
    return h_inner(v, F.representer, F.space)


def biorthonormalize(values: np.ndarray, space: EmbeddingSpace) -> tuple[np.ndarray, np.ndarray]:
    """H-orthogonalize the grid functions along axis -2 of ``values``
    (..., k, M), normalize them in B, and build their biorthonormal duals'
    representers; every stack entry on its own, bit for bit as one entry
    alone.  Returns (psi, representers), both (..., k, M).  Linearly
    dependent input (in the truncated H metric) raises with the offending
    index."""
    basis = space.basis

    def inner(u, v):
        return coefficient_h_inner(analyze(u, basis), analyze(v, basis), space)

    def norm(u):
        return coefficient_h_norm(analyze(u, basis), space)

    phis = []
    for i in range(values.shape[-2]):
        v = values[..., i, :]
        phi = v
        for prev in phis:
            # the quotient rounds as the complex division of one entry does
            phi = phi - prev * numerics.quotient(inner(phi, prev), inner(prev, prev))[..., None]
        if np.any(norm(phi) <= 1e-6 * np.maximum(norm(v), 1e-300)):
            raise ValueError(f"rank deficiency at index {i}: "
                             "vector is H-dependent on its predecessors")
        phis.append(phi)
    phis = np.stack(phis, axis=-2)
    bn = lp_norm_rows(phis, basis.p)
    return phis * (1.0 / bn)[..., None], phis * (bn / inner(phis, phis).real)[..., None]


def gram_schmidt_biorthonormal(
    vectors, space: EmbeddingSpace
) -> tuple[tuple[GridFunction, ...], tuple[DualFunctional, ...]]:
    """H-orthogonalize, normalize in B, and build biorthonormal duals.

    Returns (psi, psi*) with psi_i of unit B-norm and the pairing
    evaluate(psi*_j, psi_i) = delta_ij.  Linearly dependent input (in the
    truncated H metric) raises with the offending index.
    """
    vectors = list(vectors)
    if not vectors:
        raise ValueError("need at least one vector")
    for v in vectors:
        v._require_same_grid(space.basis.grid)
    psis, representers = biorthonormalize(np.stack([v.values for v in vectors]), space)
    return (tuple(GridFunction(psi) for psi in psis),
            tuple(DualFunctional(GridFunction(r), space) for r in representers))
