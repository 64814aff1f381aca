"""The natural Hilbert space over a Schauder basis.

Given basis coefficients c_n(u) = <E_n*, u> and weights t_n = 2^{-n}, the
inner product is (u, v)_H = sum_n t_n c_n(u) conj(c_n(v)).  At truncation N
the geometry of H is entirely the diagonal Gram matrix diag(t_1..t_N) on
coefficient space, so the coefficient forms take the weights alone and what
crosses to the grid takes the basis as well; the completion is never
materialized.  Gram-Schmidt runs in coefficient space too: it analyzes its
input once and carries each function's coefficients beside its grid
values.  The linear dual
representation J_B sends u to the functional v -> (v, u)_H, which
``coefficient_h_inner`` evaluates on coefficient vectors.
"""

from __future__ import annotations

import numpy as np

from .spaces import (
    GridFunction,
    SchauderBasis,
    analyze,
    coefficients,
    lp_norm_rows,
)


def dyadic_weights(N: int) -> np.ndarray:
    """t_n = 2^{-n} for n = 1..N; exact dyadic floats."""
    return 2.0 ** -np.arange(1, N + 1)


# no check calls it; perfbench/workloads.py NAMED_FUNCTIONS traces it by name
def h_inner(u: GridFunction, v: GridFunction, basis: SchauderBasis,
            weights: np.ndarray) -> complex:
    """(u, v)_H = sum_n t_n <E_n*, u> conj(<E_n*, v>)."""
    return complex(coefficient_h_inner(coefficients(u, basis), coefficients(v, basis), weights))


def coefficient_h_inner(cu: np.ndarray, cv: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_n t_n cu_n conj(cv_n) over the last axis: the H inner product of
    the functions with coefficients cu and cv, one per row of a stack."""
    return np.sum(weights * cu * np.conj(cv), axis=-1)


def coefficient_h_norm(c: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sqrt(sum_n t_n |c_n|^2) over the last axis: the H norm of the
    function with coefficients c, one per row of a stack."""
    return np.sqrt(np.sum(weights * np.abs(c) ** 2, axis=-1))


def gram_matrix(basis: SchauderBasis, weights: np.ndarray) -> np.ndarray:
    """G_mk = h_inner(E_m, E_k) from c[n, m] = <E_n*, E_m>; diag(t_n) up to quadrature error."""
    c = analyze(basis.synthesis, basis).T
    return c.T @ (weights[:, None] * np.conj(c))


def biorthonormalize(values: np.ndarray, basis: SchauderBasis,
                     weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H-orthogonalize the grid functions along axis -2 of ``values``
    (..., k, M), normalize them in B, and build their biorthonormal duals'
    representers; every stack entry on its own, bit for bit as one entry
    alone.  The input is analyzed once: each Gram-Schmidt step updates the
    grid values and their coefficients together, and takes its inner
    products on the coefficients.  Returns (psi, representers), both
    (..., k, M).  Linearly dependent input (in the truncated H metric)
    raises with the offending index."""
    coeffs = analyze(values, basis)
    norms = coefficient_h_norm(coeffs, weights)
    phis, cs, squares = [], [], []
    for i in range(values.shape[-2]):
        phi, c = values[..., i, :], coeffs[..., i, :]
        for prev, c_prev, square in zip(phis, cs, squares):
            q = (coefficient_h_inner(c, c_prev, weights) / square)[..., None]
            phi, c = phi - prev * q, c - c_prev * q
        if np.any(coefficient_h_norm(c, weights) <= 1e-6 * np.maximum(norms[..., i], 1e-300)):
            raise ValueError(f"rank deficiency at index {i}: "
                             "vector is H-dependent on its predecessors")
        phis.append(phi)
        cs.append(c)
        squares.append(coefficient_h_inner(c, c, weights).real)
    phis = np.stack(phis, axis=-2)
    bn = lp_norm_rows(phis, basis.p)
    representers = phis * (bn / np.stack(squares, axis=-1))[..., None]
    phis *= (1.0 / bn)[..., None]
    return phis, representers
