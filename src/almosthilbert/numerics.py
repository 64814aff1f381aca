"""Dense complex linear algebra kernels used by every other module.

Thin, validating wrappers around LAPACK factorizations (via numpy), a
Pade matrix exponential, and a hand-rolled power method for induced
matrix p-norms.  All functions are pure: no global state, randomness only
through an explicit seed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


# Relative Frobenius tolerance of the Hermitian test in hermitian_eigen; the
# reconstructions of hermitian_eigen and svd are held to 10 times it.
_TOL = 1e-12


class EigenResult(NamedTuple):
    values: np.ndarray   # real, sorted descending
    vectors: np.ndarray  # columns orthonormal, vectors[:, k] pairs with values[k]


def as_matrix(m) -> np.ndarray:
    """Validate and return a dense 2-D complex128 matrix.

    Rejects non-2-D input and non-finite entries.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def hermitian_eigen(m) -> EigenResult:
    """Full spectral decomposition of a Hermitian matrix, eigenvalues descending.

    ``m`` must be square and Hermitian within 1e-12 (relative Frobenius).
    The reconstruction ``V diag(w) V^H`` is checked against ``m`` before
    returning; failure to reproduce the input within 1e-11 is raised
    rather than silently returned.
    """
    a = as_matrix(m)
    n, nc = a.shape
    if n != nc:
        raise ValueError("hermitian_eigen requires a square matrix")
    scale = max(1.0, float(np.linalg.norm(a)))
    herm_defect = float(np.linalg.norm(a - a.conj().T))
    if herm_defect > _TOL * scale:
        raise ValueError(f"matrix is not Hermitian within tol: defect={herm_defect:.3e}")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ArithmeticError(f"eigen iteration failed to converge: {exc}") from exc
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    resid = float(np.linalg.norm((v * w) @ v.conj().T - a))
    if resid > 10.0 * _TOL * scale:
        raise ArithmeticError(f"eigen reconstruction residual {resid:.3e} exceeds tolerance")
    return EigenResult(values=w, vectors=v)


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition M = U diag(s) V^H with s descending.

    Returns (U, s, V); note V, not V^H.  Reconstruction is verified to
    1e-11 * max(1, ||M||_F).
    """
    a = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ArithmeticError(f"svd failed to converge: {exc}") from exc
    scale = max(1.0, float(np.linalg.norm(a)))
    resid = float(np.linalg.norm((u * s) @ vh - a))
    if resid > 10.0 * _TOL * scale:
        raise ArithmeticError(f"svd reconstruction residual {resid:.3e} exceeds tolerance")
    return u, s, vh.conj().T


def general_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a general square matrix, with algebraic multiplicity.

    Sorted by descending modulus (ties by real part, then imaginary part)
    so the multiset has a stable presentation.  The eigenvalue sum is
    checked against the trace.
    """
    a = as_matrix(m)
    n, nc = a.shape
    if n != nc:
        raise ValueError("general_eigenvalues requires a square matrix")
    lam = np.linalg.eigvals(a)
    order = np.lexsort((lam.imag, lam.real, -np.abs(lam)))
    lam = lam[order]
    scale = max(1.0, float(np.linalg.norm(a)))
    gap = abs(lam.sum() - np.trace(a))
    if gap > 1e-10 * scale:
        raise ArithmeticError(f"eigenvalue sum misses the trace by {gap:.3e}")
    return lam


# Numerator coefficients b_0..b_13 of the degree-13 Pade approximant to e^x,
# and theta_13, the largest 1-norm at which it is accurate to unit roundoff
# (Higham, SIAM J. Matrix Anal. Appl. 26 (2005), Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm_pade13(a: np.ndarray) -> np.ndarray:
    """e^A by scaling and squaring: the degree-13 Pade approximant r_13 of
    A / 2^s, with s the least integer putting the 1-norm at or below
    theta_13, squared s times."""
    with np.errstate(over="ignore"):
        norm1 = float(np.max(np.sum(np.abs(a), axis=0)))
    if not math.isfinite(norm1):
        raise OverflowError("matrix 1-norm overflows float64; input norm too extreme")
    s = math.ceil(math.log2(norm1 / _THETA13)) if norm1 > _THETA13 else 0
    a = a * 2.0**-s
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    e = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            e = e @ e
    return e


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential e^M (scaling-and-squaring Pade approximation)."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix_exp requires a square matrix")
    e = _expm_pade13(a)
    if not np.all(np.isfinite(e)):
        raise OverflowError("matrix exponential overflowed; input norm too extreme")
    return e


def _pnorms(x: np.ndarray, p: float) -> np.ndarray:
    # The l^p norms of the columns of x (of x itself when x is a vector),
    # p in [1, inf]: the one p-norm definition of this module.
    ax = np.abs(x)
    if p == np.inf:
        return np.max(ax, axis=0, initial=0.0)
    return np.sum(ax**p, axis=0) ** (1.0 / p)


def vector_pnorm(x: np.ndarray, p: float) -> float:
    """The l^p norm of a vector, p in [1, inf]."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(_pnorms(np.ravel(x), p))


def _dual_columns(y: np.ndarray, norms: np.ndarray, p: float) -> np.ndarray:
    # Column j is the unit-q-norm vector z with <z, y_j> = ||y_j||_p (the
    # Hoelder equality case), given norms[j] = ||y_j||_p > 0.
    ay = np.abs(y)
    sign = np.where(ay > 0, y / np.where(ay > 0, ay, 1.0), 0.0)
    return (ay / norms) ** (p - 1.0) * sign


def opnorm_p_estimate(m, p: float, restarts: int = 4, seed: int = 0) -> float:
    """Lower-bound estimate of the induced p -> p matrix norm.

    p = 1 and p = inf use the exact column/row-sum formulas.  Finite p > 1
    runs the Boyd/Higham power method (Higham, Numer. Math. 62, 1992) from
    ``restarts`` random starting vectors, iterated together as the columns
    of one block, and returns the best fixed-point value reached.  A column
    is frozen once it meets the stationarity test or its image is 0; the
    iteration stops when every column is frozen or after 5,000 steps.
    Every returned value is ||M x||_p for some unit x, hence a valid lower
    bound on the true norm; it is exact for p in {1, 2, inf} up to
    iteration tolerance.  Deterministic for a fixed seed.
    """
    a = as_matrix(m)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if p == 1:
        return float(np.max(np.sum(np.abs(a), axis=0)))
    if p == np.inf:
        return float(np.max(np.sum(np.abs(a), axis=1)))
    if p < 1:
        raise ValueError("p must be >= 1 or inf")
    n = a.shape[1]
    q = p / (p - 1.0)
    ah = a.conj().T
    rng = np.random.default_rng(seed)
    # Column j is the start of restart j, drawn as a sequential loop would.
    g = rng.standard_normal((restarts, 2, n))
    x = (g[:, 0] + 1j * g[:, 1]).T
    x = x / _pnorms(x, p)
    est = np.zeros(restarts)
    live = np.arange(restarts)
    for _ in range(5000):
        y = a @ x
        ny = _pnorms(y, p)
        est[live] = ny
        moving = ny > 0.0
        live, x, y, ny = live[moving], x[:, moving], y[:, moving], ny[moving]
        if live.size == 0:
            break
        z = ah @ _dual_columns(y, ny, p)
        # Stationarity test: ||z||_q <= Re<x, z> signals a fixed point.
        nz = _pnorms(z, q)
        moving = nz > np.real(np.sum(x.conj() * z, axis=0)) + 1e-13 * np.maximum(ny, 1.0)
        live, z, nz = live[moving], z[:, moving], nz[moving]
        if live.size == 0:
            break
        x = _dual_columns(z, nz, q)
    return float(np.max(est))
