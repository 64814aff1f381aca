"""Truncated operators on B and their weighted-metric adjoints.

A BOperator is an N x N matrix acting on basis coefficients, or a stack
of them with shape (..., N, N) on one space.  The algebra, transports,
adjoint, norms, *-algebra and defining-identity defects, self-adjointness
and self-conjugacy tests, Lax checks, polar factors and the min-max
estimate act slice by slice, each slice as it would alone;
``spectral_decompose`` refuses a stack.  With Gram matrix W = diag(t_n),
the adjoint determined by h_inner(Au, v) = h_inner(u, A*v) is the closed
form A* = W^{-1} A^H W.  The similarity M -> W^{1/2} M W^{-1/2} transports
a coordinate matrix to the H metric, where self-adjointness becomes
ordinary Hermitian symmetry; polar and spectral decompositions, norm
checks, and the Courant-Fischer cross-check all run through that
transport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .embedding import EmbeddingSpace, coefficient_h_inner
from .spaces import analyze, synthesize

_RESTARTS = 4          # random starts of the coefficient p-norm power method
_ISOMETRY_TOL = 1e-8   # Frobenius defect allowed of exp(itA) as an H-isometry
_SPECTRAL_TOL = 1e-8   # self-adjointness required before a spectral resolution


@dataclass(frozen=True, eq=False)
class BOperator:
    matrix: np.ndarray
    space: EmbeddingSpace

    def __post_init__(self):
        m = numerics.as_matrix(self.matrix)
        n = self.space.dim
        if m.shape[-2:] != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match truncation {n}")
        object.__setattr__(self, "matrix", m)

    def _require_same_space(self, other: "BOperator"):
        """Refuse ``other`` unless its space is this one's, or has equal
        weights and a basis of the same p on the same grid."""
        a, b = self.space, other.space
        if a is not b and not (a.basis.p == b.basis.p
                               and a.basis.synthesis.shape == b.basis.synthesis.shape
                               and np.array_equal(a.weights, b.weights)):
            raise ValueError("operators live on different spaces")

    def __add__(self, other: "BOperator") -> "BOperator":
        self._require_same_space(other)
        return BOperator(self.matrix + other.matrix, self.space)

    def __matmul__(self, other: "BOperator") -> "BOperator":
        self._require_same_space(other)
        return BOperator(self.matrix @ other.matrix, self.space)


def h_matrix(A: BOperator) -> np.ndarray:
    """Transport to the H metric: W^{1/2} M W^{-1/2}."""
    sw = np.sqrt(A.space.weights)
    return A.matrix * (sw[:, None] / sw[None, :])


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def h_eigen(mh: np.ndarray) -> numerics.EigenResult:
    """Eigen decomposition of an operator's H-metric transport mh (from
    ``h_matrix``), symmetrized: eigenvalues descending, eigenvectors in H
    coordinates."""
    return numerics.hermitian_eigen(_sym(mh))


def from_h_matrix(mh: np.ndarray, space: EmbeddingSpace) -> BOperator:
    """Inverse transport W^{-1/2} M_H W^{1/2} back to coordinates."""
    sw = np.sqrt(space.weights)
    return BOperator(np.asarray(mh) * (sw[None, :] / sw[:, None]), space)


def adjoint(A: BOperator) -> BOperator:
    """A* = W^{-1} A^H W, the weighted conjugate transpose."""
    w = A.space.weights
    return BOperator(A.matrix.conj().swapaxes(-1, -2) * (w[None, :] / w[:, None]), A.space)


def h_opnorm(A: BOperator):
    """Operator norm in the H metric: top singular value of the transport,
    one per slice of A."""
    _, s, _ = numerics.svd(h_matrix(A))
    return np.max(s, axis=-1, initial=0.0)


def b_opnorm_estimate(A: BOperator, p: float, seed=0):
    """Lower estimate of the operator norm in the coefficient p-norm model of
    B, one per slice of A (``seed``: one, or one per slice)."""
    return numerics.opnorm_p_estimate(A.matrix, p, restarts=_RESTARTS, seed=seed)


def _scaled(a, A: BOperator) -> BOperator:
    """a * A with one scalar per slice of A."""
    return BOperator(np.asarray(a, dtype=np.complex128)[..., None, None] * A.matrix, A.space)


def adjoint_algebra_defect(A: BOperator, B: BOperator, a):
    """Worst relative defect of the *-algebra identities: conjugate
    homogeneity, involution, additivity, anti-multiplicativity, and
    self-adjointness of A*A; one per slice of A and B, with the scalar
    ``a`` one, or one per slice.  The defect of an identity lhs = rhs is
    ||lhs - rhs||_F / max(||lhs||_F, ||rhs||_F, 1)."""
    A._require_same_space(B)
    astar, bstar = adjoint(A), adjoint(B)
    sides = [(adjoint(_scaled(a, A)), _scaled(np.conj(a), astar)),
             (adjoint(astar), A),
             (adjoint(A + B), astar + bstar),
             (adjoint(A @ B), bstar @ astar),
             (adjoint(astar @ A), astar @ A)]
    lhs, rhs = (np.stack([pair[j].matrix for pair in sides]) for j in (0, 1))
    fro = numerics.frobenius_norm
    defects = fro(lhs - rhs) / np.maximum(np.maximum(fro(lhs), fro(rhs)), 1.0)
    return np.max(defects, axis=0)


def adjoint_identity_defect(A: BOperator, cu, cv):
    """Relative defect |(Au, v)_H - (u, A*v)_H| / max(1, |each side|) of the
    defining identity, for the functions u and v with coefficients cu and cv;
    one per slice of A, with cu and cv one row per slice.  Each function is
    synthesized on the grid and analysed back, and Au and A*v likewise: an
    operator acts on a grid function through its coefficients, as the
    synthesis of M c(u)."""
    space = A.space
    basis = space.basis

    def round_trip(c):
        return analyze(synthesize(c, basis), basis)

    def act(m, c):
        return round_trip((m @ c[..., None])[..., 0])

    c_u, c_v = round_trip(np.asarray(cu)), round_trip(np.asarray(cv))
    lhs = coefficient_h_inner(act(A.matrix, c_u), c_v, space)
    rhs = coefficient_h_inner(c_u, act(adjoint(A).matrix, c_v), space)
    modulus = numerics.modulus
    return modulus(lhs - rhs) / np.maximum(np.maximum(1.0, modulus(lhs)), modulus(rhs))


def _h_asymmetry(mh: np.ndarray) -> np.ndarray:
    """||mh - mh^H||_F of each slice of a transport mh (from ``h_matrix``)."""
    return numerics.frobenius_norm(mh - mh.conj().swapaxes(-1, -2))


def is_naturally_selfadjoint(A: BOperator, tol: float = 1e-10):
    """True iff A = A* within tol, judged in the H metric, where A* is the
    conjugate transpose: ||h(A) - h(A)^H||_F <= tol.  A bool for one
    operator, a bool array over the slices of a stack."""
    held = _h_asymmetry(h_matrix(A)) <= tol
    return bool(held) if held.ndim == 0 else held


def _h_symmetric_eigenvalues(T: BOperator) -> np.ndarray:
    """Eigenvalues of the H-metric symmetrization of each slice of T, which
    must already be H-symmetric to 1e-10 relative."""
    mh = h_matrix(T)
    defect = _h_asymmetry(mh)
    if np.any(defect > 1e-10 * np.maximum(1.0, numerics.frobenius_norm(mh))):
        raise ValueError(f"operator is not H-symmetric to 1e-10: defect={np.max(defect):.3e}")
    return h_eigen(mh).values


def _top_abs(values: np.ndarray):
    return np.max(np.abs(values), axis=-1, initial=0.0)


def lax_check(T: BOperator):
    """Lax's point-spectrum invariance for H-symmetric T, as a defect: the
    largest gap between the sorted coordinate eigenvalues and those of the
    H-metric symmetrization, relative to max(1, ||T||_H); one per slice of T."""
    lam = _h_symmetric_eigenvalues(T)
    lam_h = np.sort_complex(lam.astype(np.complex128))
    lam_b = np.sort_complex(numerics.general_eigenvalues(T.matrix))
    gap = np.max(np.abs(lam_b - lam_h), axis=-1, initial=0.0)
    return gap / np.maximum(1.0, _top_abs(lam))


def lax_khat(T: BOperator, p: float, seed=0):
    """The norm constant k-hat = ||T||_H^2 / ||T||_B^2 for H-symmetric T,
    with ||T||_B the coefficient p-norm estimate (the paper leaves k
    unquantified); one per slice of T, ``seed`` as for
    ``b_opnorm_estimate``."""
    norm_h = _top_abs(_h_symmetric_eigenvalues(T))
    norm_b = b_opnorm_estimate(T, p, seed)
    return norm_h**2 / np.maximum(norm_b**2, 1e-300)


def self_conjugacy_check(A: BOperator, tgrid):
    """True iff exp(itA) is an H-metric isometry for each t in tgrid, both
    signs; a bool for one operator, a bool array over the slices of a stack.
    The exponential is taken of the transport, E = exp(it h(A)) =
    h(exp(itA)), so the W^{1/2} scaling never enters it, and the isometry
    defect is evaluated exactly on the whole truncated space as
    ||E^H E - I||_F.  A slice is refuted at its first failing t and sign,
    and no later exponential is taken of it, so a slice that would overflow
    only past that point refutes rather than raises."""
    mh = h_matrix(A)
    eye = np.eye(A.space.dim)
    held = np.ones(mh.shape[:-2], dtype=bool)
    for t, sign in [(t, sign) for t in tgrid for sign in (1.0, -1.0)]:
        if not held.any():
            break
        e = numerics.matrix_exp(1j * sign * float(t) * mh[held])
        held[held] = numerics.frobenius_norm(e.conj().swapaxes(-1, -2) @ e - eye) <= _ISOMETRY_TOL
    return bool(held) if held.ndim == 0 else held


def polar_decompose(A: BOperator) -> tuple[BOperator, BOperator]:
    """A = U T with T = (A*A)^{1/2} naturally self-adjoint nonnegative and
    U an H-metric partial isometry.  Computed by one SVD in the H metric,
    h(A) = X diag(s) Y^H, as h(U) = X Y^H and h(T) = Y diag(s) Y^H; the
    factors are returned unjudged (``polar-reconstruction`` judges them);
    for a stack, both factors are stacks of the slices' factors."""
    mh = h_matrix(A)
    uh, s, vh = numerics.svd(mh)
    vh_t = vh.conj().swapaxes(-1, -2)
    t_h = (vh * s[..., None, :]) @ vh_t
    u_h = uh @ vh_t
    U = from_h_matrix(u_h, A.space)
    T = from_h_matrix(t_h, A.space)
    return U, T


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: np.ndarray            # distinct cluster values, descending
    projections: tuple[BOperator, ...]  # H-orthogonal projections, one per cluster


def spectral_decompose(A: BOperator) -> SpectralDecomposition:
    """Spectral resolution A = sum_j x_j P_j of a naturally self-adjoint
    operator.  Eigenvalues within relative gap 1e-8 are merged into one
    cluster so each projection is well defined under floating point."""
    if A.matrix.ndim > 2:
        raise ValueError("spectral_decompose takes one operator, "
                         f"not a stack of shape {A.matrix.shape}")
    if not is_naturally_selfadjoint(A, tol=_SPECTRAL_TOL):
        raise ValueError("spectral decomposition requires a naturally self-adjoint operator")
    vals, vecs = h_eigen(h_matrix(A))
    scale = max(1.0, float(np.max(np.abs(vals))))
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if abs(vals[i] - vals[clusters[-1][0]]) <= 1e-8 * scale:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    eigenvalues = []
    projections = []
    for idx in clusters:
        v = vecs[:, idx]
        p_h = v @ v.conj().T
        projections.append(from_h_matrix(p_h, A.space))
        eigenvalues.append(float(np.mean(vals[idx])))
    return SpectralDecomposition(np.array(eigenvalues), tuple(projections))


def minmax_eigenvalue(A: BOperator, k: int, trials: int = 8, seed=0):
    """Courant-Fischer estimate of the k-th largest eigenvalue (1-based,
    counted with multiplicity) of a naturally self-adjoint operator: the
    best, over ``trials`` random starts, of the minimal Rayleigh quotient
    on a k-dimensional subspace of the H metric.

    Each trial runs block Rayleigh-Ritz (LOBPCG; Knyazev, SIAM J. Sci.
    Comput. 23, 2001) on the symmetrized transport S: the search space is
    spanned by the orthonormal iterate X, the residual S X - X (X^H S X)
    and the previous step's direction, and X becomes its top k Ritz
    vectors.  A trial stops when the k-th Ritz value changes by
    at most 1e-12 relative, or after 2,000 steps, and reports the smallest
    eigenvalue of X^H S X: whatever search space found X, the result is
    the minimal Rayleigh quotient of the explicit subspace span(X).

    ``seed`` is one seed, or one per slice of A; a slice's starts are drawn
    from its seed alone, trial by trial.  Every trial of every slice is one
    slice of a single iteration, and a converged one is frozen (masked) while
    the others go on, so each slice gets what a call on it alone gets.
    Returns a float for one operator, an array over the slices of a stack."""
    n = A.space.dim
    if not 1 <= k <= n:
        raise ValueError(f"eigenvalue index k={k} out of range 1..{n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    stack = A.matrix.shape[:-2]
    # one row per (slice, trial), trials of a slice adjacent
    sym = np.repeat(_sym(h_matrix(A)).reshape(-1, n, n), trials, axis=0)
    starts = []
    for s in np.broadcast_to(np.asarray(seed), stack).flat:
        rng = np.random.default_rng(int(s))
        for _ in range(trials):
            starts.append(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
    x, _ = np.linalg.qr(np.array(starts))
    sx = sym @ x
    direction = np.empty_like(x)  # the previous step's, from the second step on
    prev = np.full(len(x), np.inf)
    live = np.ones(len(x), dtype=bool)
    for step in range(2000):
        xl, sxl = x[live], sx[live]
        resid = sxl - xl @ (xl.conj().swapaxes(-1, -2) @ sxl)
        blocks = [xl, resid] + ([direction[live]] if step else [])
        basis, _ = np.linalg.qr(np.concatenate(blocks, axis=-1))
        sbasis = sym[live] @ basis
        ritz = numerics.hermitian_eigen(_sym(basis.conj().swapaxes(-1, -2) @ sbasis))
        coef = ritz.vectors[..., :k]
        x[live], sx[live] = basis @ coef, sbasis @ coef
        direction[live] = basis[..., k:] @ coef[..., k:, :]
        cand = ritz.values[..., k - 1]
        done = np.abs(cand - prev[live]) <= 1e-12 * np.maximum(1.0, np.abs(cand))
        prev[live] = cand
        live[live] = ~done
        if not live.any():
            break
    xh = x.conj().swapaxes(-1, -2)
    low = numerics.hermitian_eigen(_sym(xh @ sym @ x)).values[..., -1]
    best = np.max(low.reshape(stack + (trials,)), axis=-1)
    return float(best) if best.ndim == 0 else best
