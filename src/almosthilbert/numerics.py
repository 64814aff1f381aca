"""Dense complex linear algebra kernels used by every other module.

Thin, validating wrappers around LAPACK factorizations (via numpy), a
Pade matrix exponential, a Frobenius norm, and a hand-rolled power method
for induced matrix p-norms.  Every kernel takes one matrix or a stack of
them, shape (..., N, N), and validates once per stack: one finiteness
test over the whole stack and residuals computed for every slice
together, raising if any slice fails.  The exponential scales and squares
each slice its own number of times.  Slice k of a stacked call equals the
call on slice k alone: bit for bit for the LAPACK kernels, the
exponential and the norm, and within the 1e-13 stationarity slack for the
power method.  A 2-D call is the stack of one.  All functions are pure:
no global state, randomness only through an explicit seed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


# Relative Frobenius tolerance of the Hermitian test in hermitian_eigen; the
# reconstructions of hermitian_eigen and svd are held to 10 times it.
_TOL = 1e-12


class EigenResult(NamedTuple):
    values: np.ndarray   # real, sorted descending along the last axis
    vectors: np.ndarray  # columns orthonormal, vectors[..., :, k] pairs with values[..., k]


def as_matrix(m) -> np.ndarray:
    """Validate and return a dense complex128 matrix or stack of matrices.

    Rejects input of fewer than two dimensions and non-finite entries.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _square(m, name: str) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} requires square matrices")
    return a


def frobenius_norm(x) -> np.ndarray:
    """The Frobenius norm of each slice of x, rounded as ``np.linalg.norm``
    rounds it for the slice alone: BLAS dot products of the real and the
    imaginary parts over the entries in the slice's own memory order.
    (``np.linalg.norm(x, axis=(-2, -1))`` sums squares pairwise instead,
    which rounds otherwise.)"""
    x = np.asarray(x)
    if x.strides[-1] != x.itemsize and x.strides[-2] == x.itemsize:
        x = x.swapaxes(-1, -2)  # column-major slices: read them column by column
    flat = np.ascontiguousarray(x).reshape(*x.shape[:-2], 1, -1)
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, as for one matrix
        return np.sqrt(sum((y @ y.swapaxes(-1, -2))[..., 0, 0] for y in parts))


def modulus(z) -> np.ndarray:
    """|z| elementwise, as the hypotenuse of the real and imaginary parts:
    that rounds as ``abs()`` of a Python complex does, while ``np.abs`` of a
    complex array can round otherwise on extreme values."""
    return np.hypot(z.real, z.imag)


def product(a, b) -> np.ndarray:
    """a * b elementwise from four real products, as the product of two
    Python complex numbers rounds; numpy's vectorised complex multiply can
    round otherwise (it may fuse a multiply and an add)."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _ct(x: np.ndarray) -> np.ndarray:
    # The conjugate transpose of each slice.
    return x.conj().swapaxes(-1, -2)


def _refuse(defect: np.ndarray, limit: np.ndarray, error: type, what: str) -> None:
    """Raise ``error`` if the defect of any slice exceeds its limit."""
    bad = defect > limit
    if np.any(bad):
        where = f" in slice {np.argwhere(bad)[0].tolist()}" if bad.ndim else ""
        raise error(f"{what} {float(np.max(defect[bad])):.3e} exceeds tolerance{where}")


def hermitian_eigen(m) -> EigenResult:
    """Full spectral decomposition of Hermitian matrices, eigenvalues descending.

    Each slice of ``m`` must be square and Hermitian within 1e-12 (relative
    Frobenius).  The reconstruction ``V diag(w) V^H`` is checked against
    ``m`` before returning; failure to reproduce any slice within 1e-11 is
    raised rather than silently returned.
    """
    a = _square(m, "hermitian_eigen")
    scale = np.maximum(1.0, frobenius_norm(a))
    _refuse(frobenius_norm(a - _ct(a)), _TOL * scale, ValueError,
            "matrix is not Hermitian: defect")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ArithmeticError(f"eigen iteration failed to converge: {exc}") from exc
    order = np.argsort(w, axis=-1)[..., ::-1]
    w = np.take_along_axis(w, order, axis=-1)
    # Each eigenvector is kept contiguous, as v[:, order] of one matrix
    # lays it out: sums over a vector's entries then round alike.
    v = np.take_along_axis(v.swapaxes(-1, -2), order[..., :, None], axis=-2).swapaxes(-1, -2)
    resid = frobenius_norm((v * w[..., None, :]) @ _ct(v) - a)
    _refuse(resid, 10.0 * _TOL * scale, ArithmeticError, "eigen reconstruction residual")
    return EigenResult(values=w, vectors=v)


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition M = U diag(s) V^H with s descending.

    Returns (U, s, V); note V, not V^H.  Reconstruction is verified to
    1e-11 * max(1, ||M||_F) on every slice.
    """
    a = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ArithmeticError(f"svd failed to converge: {exc}") from exc
    resid = frobenius_norm((u * s[..., None, :]) @ vh - a)
    _refuse(resid, 10.0 * _TOL * np.maximum(1.0, frobenius_norm(a)), ArithmeticError,
            "svd reconstruction residual")
    return u, s, _ct(vh)


def general_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of general square matrices, with algebraic multiplicity.

    Sorted by descending modulus (ties by real part, then imaginary part)
    so the multiset has a stable presentation.  Returned unjudged: how far
    their sum misses the trace is what ``lidskii-trace`` measures.
    """
    a = _square(m, "general_eigenvalues")
    lam = np.linalg.eigvals(a)
    order = np.lexsort((lam.imag, lam.real, -np.abs(lam)), axis=-1)
    return np.take_along_axis(lam, order, axis=-1)


# Numerator coefficients b_0..b_13 of the degree-13 Pade approximant to e^x,
# and theta_13, the largest 1-norm at which it is accurate to unit roundoff
# (Higham, SIAM J. Matrix Anal. Appl. 26 (2005), Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm_pade13(a: np.ndarray) -> np.ndarray:
    """e^A of each slice by scaling and squaring: the degree-13 Pade
    approximant r_13 of A / 2^s, with s the least integer putting the slice's
    1-norm at or below theta_13, squared s times.  Each slice has its own s,
    and a slice that needs fewer squarings than another is frozen (masked)
    once it has had its own."""
    with np.errstate(over="ignore"):
        norm1 = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    if not np.all(np.isfinite(norm1)):
        raise OverflowError("matrix 1-norm overflows float64; input norm too extreme")
    s = np.array([math.ceil(math.log2(x / _THETA13)) if x > _THETA13 else 0
                  for x in norm1.flat], dtype=int).reshape(norm1.shape)
    a = a * (2.0 ** -s)[..., None, None]
    b = _PADE13
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    e = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(int(np.max(s, initial=0))):
            live = s > step
            e[live] = e[live] @ e[live]
    return e


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential e^M of each slice (scaling-and-squaring Pade
    approximation of degree 13), raising OverflowError if any slice
    overflows."""
    e = _expm_pade13(_square(m, "matrix_exp"))
    if not np.all(np.isfinite(e)):
        raise OverflowError("matrix exponential overflowed; input norm too extreme")
    return e


_TINY = np.finfo(float).tiny


def _pnorms(x: np.ndarray, p: float, ax: np.ndarray | None = None) -> np.ndarray:
    # The l^p norms of the columns of x (the last axis but one), p in
    # [1, inf]: the one p-norm definition of this module.  Each column is
    # divided by its largest modulus before the power, so no power exceeds
    # 1 and a large p (the dual exponent 101 of p = 1.01) cannot overflow.
    # A zero column is divided by the smallest normal float instead.
    # ``ax`` is |x| where the caller has it already; it is not written to.
    if ax is None:
        ax = np.abs(x)
    if p == np.inf:
        return np.maximum.reduce(ax, axis=-2, initial=0.0)
    scale = np.maximum.reduce(ax, axis=-2, initial=_TINY)
    scaled = ax / scale[..., None, :]
    return np.add.reduce(np.power(scaled, p, out=scaled), axis=-2) ** (1.0 / p) * scale


# no check calls it; perfbench/workloads.py NAMED_FUNCTIONS traces it by name
def vector_pnorm(x: np.ndarray, p: float) -> float:
    """The l^p norm of a vector, p in [1, inf]."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(_pnorms(np.ravel(x)[:, None], p)[0])


def _dual_columns(y: np.ndarray, ay: np.ndarray, norms: np.ndarray, p: float) -> np.ndarray:
    # Column j is the unit-q-norm vector z with <z, y_j> = ||y_j||_p (the
    # Hoelder equality case), given ay = |y| and norms[j] = ||y_j||_p; a
    # zero column stays zero.
    nonzero = ay > 0
    sign = np.where(nonzero, y / np.where(nonzero, ay, 1.0), 0.0)
    return (ay / np.where(norms > 0, norms, 1.0)[..., None, :]) ** (p - 1.0) * sign


def opnorm_p_estimate(m, p: float, restarts: int = 4, seed=0):
    """Lower-bound estimate of the induced p -> p norm of each matrix.

    p = 1 and p = inf use the exact column/row-sum formulas.  Finite p > 1
    runs the Boyd/Higham power method (Higham, Numer. Math. 62, 1992) from
    ``restarts`` random starting vectors per matrix, iterated together as
    the columns of one block per slice, and returns the best fixed-point
    value reached.  A column is frozen (masked, not removed) once it meets
    the stationarity test or its image is 0; the iteration stops when every
    column of every slice is frozen or after 5,000 steps.  Every returned
    value is ||M x||_p for some unit x, hence a valid lower bound on the
    true norm; it is exact for p in {1, 2, inf} up to iteration tolerance.

    ``seed`` is one seed, or one per slice (shape ``m.shape[:-2]``); the
    starts of a slice are drawn from its seed alone, so each slice gets
    what a call on it alone gets.  Returns a float for a matrix and an
    array of shape ``m.shape[:-2]`` for a stack.
    """
    a = as_matrix(m)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if p == 1:
        return np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    if p == np.inf:
        return np.max(np.sum(np.abs(a), axis=-1), axis=-1)
    if p < 1:
        raise ValueError("p must be >= 1 or inf")
    stack, n = a.shape[:-2], a.shape[-1]
    q = p / (p - 1.0)
    ah = a.conj().swapaxes(-1, -2)
    # Column j of a slice is the start of restart j, drawn from the slice's
    # seed as a sequential loop would.
    seeds = np.broadcast_to(np.asarray(seed), stack)
    g = np.array([np.random.default_rng(int(s)).standard_normal((restarts, 2, n))
                  for s in seeds.flat]).reshape(*stack, restarts, 2, n)
    x = (g[..., 0, :] + 1j * g[..., 1, :]).swapaxes(-1, -2)
    x = x / _pnorms(x, p)[..., None, :]
    est = np.zeros(stack + (restarts,))
    live = np.ones(stack + (restarts,), dtype=bool)
    for _ in range(5000):
        y = a @ x
        ay = np.abs(y)  # |y| and |z| are taken once a step
        ny = _pnorms(y, p, ay)
        est = np.where(live, ny, est)
        live &= ny > 0.0
        if not live.any():
            break
        z = ah @ _dual_columns(y, ay, ny, p)
        # Stationarity test: ||z||_q <= Re<x, z> signals a fixed point.
        az = np.abs(z)
        nz = _pnorms(z, q, az)
        live &= nz > np.real(np.sum(x.conj() * z, axis=-2)) + 1e-13 * np.maximum(ny, 1.0)
        if not live.any():
            break
        x = np.where(live[..., None, :], _dual_columns(z, az, nz, q), x)
    return np.max(est, axis=-1)
