"""Truncated operators on B and their weighted-metric adjoints.

A BOperator is an N x N matrix acting on basis coefficients, or a stack
of them with shape (..., N, N) on one space.  The algebra, transports,
adjoint, norms, self-adjointness test, Lax checks and polar factors act
slice by slice; every other function refuses a stack.  With Gram
matrix W = diag(t_n), the adjoint determined by h_inner(Au, v) =
h_inner(u, A*v) is the closed form A* = W^{-1} A^H W.  The similarity
M -> W^{1/2} M W^{-1/2} transports a coordinate matrix to the H metric,
where self-adjointness becomes ordinary Hermitian symmetry; polar and
spectral decompositions, norm checks, and the Courant-Fischer cross-check
all run through that transport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .embedding import EmbeddingSpace, h_inner
from .spaces import GridFunction, coefficients, duality_map, lp_norm, pairing, reconstruct

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
        if other.space is not self.space and other.space.dim != self.space.dim:
            raise ValueError("operators live on different spaces")

    def __add__(self, other: "BOperator") -> "BOperator":
        self._require_same_space(other)
        return BOperator(self.matrix + other.matrix, self.space)

    def __sub__(self, other: "BOperator") -> "BOperator":
        self._require_same_space(other)
        return BOperator(self.matrix - other.matrix, self.space)

    def __matmul__(self, other: "BOperator") -> "BOperator":
        self._require_same_space(other)
        return BOperator(self.matrix @ other.matrix, self.space)

    def __mul__(self, scalar) -> "BOperator":
        return BOperator(complex(scalar) * self.matrix, self.space)

    __rmul__ = __mul__


def _one(A: BOperator, what: str) -> None:
    """Refuse a stack where ``what`` takes one operator."""
    if A.matrix.ndim > 2:
        raise ValueError(f"{what} takes one operator, not a stack of shape {A.matrix.shape}")


def apply_op(A: BOperator, u: GridFunction) -> GridFunction:
    """Act on a function through the truncation: synthesize M c(u)."""
    _one(A, "apply_op")
    return reconstruct(A.matrix @ coefficients(u, A.space.basis), A.space.basis)


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


def _rel_defect(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)), 1.0)
    return float(np.linalg.norm(lhs - rhs)) / scale


def adjoint_algebra_defect(A: BOperator, B: BOperator, a: complex) -> float:
    """Worst relative defect of the *-algebra identities: conjugate
    homogeneity, involution, additivity, anti-multiplicativity, and
    self-adjointness of A*A."""
    _one(A, "adjoint_algebra_defect")
    _one(B, "adjoint_algebra_defect")
    A._require_same_space(B)
    astar, bstar = adjoint(A), adjoint(B)
    return max(
        _rel_defect(adjoint(a * A).matrix, (np.conj(a) * astar).matrix),
        _rel_defect(adjoint(astar).matrix, A.matrix),
        _rel_defect(adjoint(A + B).matrix, (astar + bstar).matrix),
        _rel_defect(adjoint(A @ B).matrix, (bstar @ astar).matrix),
        _rel_defect(adjoint(astar @ A).matrix, (astar @ A).matrix),
    )


def _h_asymmetry(mh: np.ndarray) -> np.ndarray:
    """||mh - mh^H||_F of each slice of a transport mh (from ``h_matrix``)."""
    return np.linalg.norm(mh - mh.conj().swapaxes(-1, -2), axis=(-2, -1))


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
    if np.any(defect > 1e-10 * np.maximum(1.0, np.linalg.norm(mh, axis=(-2, -1)))):
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


def self_conjugacy_check(A: BOperator, tgrid) -> bool:
    """True iff exp(itA) is an H-metric isometry for each t in tgrid, both
    signs.  The exponential is taken of the transport, E = exp(it h(A)) =
    h(exp(itA)), so the W^{1/2} scaling never enters it, and the isometry
    defect is evaluated exactly on the whole truncated space as
    ||E^H E - I||_F."""
    _one(A, "self_conjugacy_check")
    mh = h_matrix(A)
    eye = np.eye(A.space.dim)
    for t in tgrid:
        for sign in (1.0, -1.0):
            e = numerics.matrix_exp(1j * sign * float(t) * mh)
            if float(np.linalg.norm(e.conj().T @ e - eye)) > _ISOMETRY_TOL:
                return False
    return True


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
    _one(A, "spectral_decompose")
    if not is_naturally_selfadjoint(A, tol=_SPECTRAL_TOL):
        raise ValueError("spectral decomposition requires a naturally self-adjoint operator")
    vals, vecs = h_eigen(h_matrix(A))
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
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


def minmax_eigenvalue(A: BOperator, k: int, trials: int = 8, seed: int = 0) -> float:
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
    the minimal Rayleigh quotient of the explicit subspace span(X)."""
    _one(A, "minmax_eigenvalue")
    n = A.space.dim
    if not 1 <= k <= n:
        raise ValueError(f"eigenvalue index k={k} out of range 1..{n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sym = _sym(h_matrix(A))
    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(trials):
        x = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        x, _ = np.linalg.qr(x)
        sx = sym @ x
        direction = None
        prev = np.inf
        for _ in range(2000):
            resid = sx - x @ (x.conj().T @ sx)
            blocks = [x, resid] if direction is None else [x, resid, direction]
            basis, _ = np.linalg.qr(np.hstack(blocks))
            sbasis = sym @ basis
            ritz = numerics.hermitian_eigen(_sym(basis.conj().T @ sbasis))
            coef = ritz.vectors[:, :k]
            x, sx = basis @ coef, sbasis @ coef
            direction = basis[:, k:] @ coef[k:]
            cand = float(ritz.values[k - 1])
            if abs(cand - prev) <= 1e-12 * max(1.0, abs(cand)):
                break
            prev = cand
        best = max(best, float(numerics.hermitian_eigen(_sym(x.conj().T @ sym @ x)).values[-1]))
    return best


def rayleigh_compare(A: BOperator, psi: GridFunction):
    """Both Rayleigh-type quotients at psi and their gap, in A's space.

    b_ratio uses the nonlinear duality bracket <A psi, J(psi-hat)> /
    <psi, J(psi-hat)>; h_ratio uses the H inner product.  The paper only
    claims the two are 'close', so this is a measurement.
    """
    space = A.space
    p = space.basis.p
    bn = lp_norm(psi, p)
    if bn == 0.0:
        raise ValueError("rayleigh_compare requires psi != 0")
    psi_star = duality_map((1.0 / bn) * psi, p)
    a_psi = apply_op(A, psi)
    b_ratio = pairing(a_psi, psi_star) / pairing(psi, psi_star)
    h_ratio = h_inner(a_psi, psi, space) / h_inner(psi, psi, space)
    return b_ratio, h_ratio, abs(b_ratio - h_ratio)


def finite_difference_operator(a: GridFunction, b: GridFunction,
                               space: EmbeddingSpace) -> BOperator:
    """Projection onto the basis of the periodic central-difference model of
    a(x) u'' + x b(x) u'.  Requires Re a >= some epsilon > 0 (ellipticity)."""
    grid = space.basis.grid
    a._require_same_grid(grid)
    b._require_same_grid(grid)
    if float(np.min(a.values.real)) <= 0.0:
        raise ValueError("ellipticity violated: a(x) must be bounded below by a positive constant")
    h = grid.spacing
    x = grid.midpoints()
    u = space.basis.synthesis  # row m is the member E_m
    d2 = (np.roll(u, -1, axis=1) - 2.0 * u + np.roll(u, 1, axis=1)) / h**2
    d1 = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2.0 * h)
    au = a.values * d2 + x * b.values * d1
    return BOperator(space.basis.analysis @ au.T * grid.cell_volume, space)
