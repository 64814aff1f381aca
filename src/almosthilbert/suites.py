"""Named verification suites over the whole library.

Every "invariant" of the individual modules is packaged here as a named
check: a function that draws its own random instances and measures the worst
violation.  Its registration declares the suite and the tolerance, and
``run_suite`` is the one place that compares the two and builds a check
result; the library modules and the check functions only return numbers.
Checks are grouped into suites (embedding, adjoint, schatten, ks2,
integral), and the four quantities the underlying theory leaves unquantified
(the equivalence constant k-hat, the ratio ||A*||_B/||A||_B for p != 2, the
Hilbert-transform L^p constant, and the Rayleigh-quotient gap) ride along
with *every* suite as measured-only entries.

Determinism: the master seed is split into independent per-check streams by
hashing the check name, so adding or removing one check never perturbs the
randomness of the others and a (suite, seed, params) triple always produces
the identical report.  Checks share no mutable state (the run's embedding
space, the one object they share, is never written to and its basis arrays
are read-only), so they could run concurrently; the report is order-stable
regardless because rendering sorts by check name.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from . import integrals, ks2, numerics, schatten
from .embedding import (
    EmbeddingSpace,
    embedding_space,
    evaluate,
    gram_matrix,
    gram_schmidt_biorthonormal,
    h_inner,
    h_norm,
    jb_apply,
)
from .operators import (
    BOperator,
    adjoint,
    adjoint_algebra_defect,
    apply_op,
    b_opnorm_estimate,
    from_h_matrix,
    h_eigen,
    h_matrix,
    h_opnorm,
    is_naturally_selfadjoint,
    lax_check,
    lax_khat,
    minmax_eigenvalue,
    polar_decompose,
    rayleigh_compare,
    self_conjugacy_check,
    spectral_decompose,
)
from .report import FAIL, MEASURED, PASS, CheckResult, VerificationReport
from .spaces import (
    GridFunction,
    coefficients,
    duality_map,
    fourier_sbasis,
    lp_norm,
    pairing,
    reconstruct,
)

SUITE_NAMES = ("embedding", "adjoint", "schatten", "ks2", "integral", "all")

P_SWEEP = (1.5, 2.0, 3.0, 4.0)

# The largest N whose dyadic weight sum 1 - 2^-N is still below 1.0 in float64.
_MAX_DIM = np.finfo(float).nmant + 1
# The largest K whose dyadic weight 2^-K is still above 0.0 in float64 (2^-1074).
_MAX_CUBES = np.finfo(float).nmant - np.finfo(float).minexp
# The p-norms sum |x|^p unscaled; by p = 200 that overflows float64 on the
# sampled functions.  64 is the largest power of two at least 2x below that.
_MAX_P = 64


@dataclass(frozen=True)
class SuiteParams:
    """Knobs shared by all checks; every field has a desk-scale default."""

    dim: int = 8
    grid: int = 256
    p: float = 3.0
    alpha: float = 0.5
    trials: int = 100
    cubes: int = 64

    def __post_init__(self):
        for name in ("dim", "grid", "trials", "cubes"):
            ks2._positive_int(name, getattr(self, name))
        if not 1 <= self.dim <= _MAX_DIM:
            raise ValueError(f"dim must lie in 1..{_MAX_DIM}: past that the dyadic weight "
                             f"sum 1 - 2^-dim rounds to 1.0 in float64, got {self.dim}")
        g = self.grid
        if g < 16 or g > 16384 or (g & (g - 1)) != 0:
            raise ValueError(f"grid must be a power of two in 16..16384, got {g}")
        if not 1.0 < self.p <= _MAX_P:
            raise ValueError(f"p must lie in (1, {_MAX_P}]: past that |x|^p overflows float64 "
                             f"in the unscaled p-norms, got {self.p}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 1 <= self.trials <= 100000:
            raise ValueError(f"trials must lie in 1..100000, got {self.trials}")
        if not 8 <= self.cubes <= _MAX_CUBES:
            raise ValueError(f"cubes must lie in 8..{_MAX_CUBES}: past that the dyadic weight "
                             f"2^-cubes rounds to 0.0 in float64, got {self.cubes}")


def check_seed(master: int, name: str) -> int:
    """Stable per-check seed: hash of the master seed and the check name."""
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# registry: check name -> (suite name or "*" for every suite, tolerance, function)
_REGISTRY: dict[str, tuple[str, float | None, object]] = {}


def _check(name: str, suite: str, tol: float | None = None):
    """Register ``fn(params, rng, spaces)`` as check ``name``, asserted against ``tol``
    (a measured entry when ``tol`` is None).  The function returns its worst
    violation and sample count, optionally followed by a dict of extra report
    params and a dict of tail bounds."""
    def deco(fn):
        if name in _REGISTRY:
            raise RuntimeError(f"duplicate check name {name!r}")
        _REGISTRY[name] = (suite, tol, fn)
        return fn

    return deco


def _count(params: SuiteParams, nominal: int) -> int:
    """Scale a nominal sample count by the trials knob (100 = nominal)."""
    return max(1, (nominal * params.trials) // 100)


class _Spaces:
    """The embedding spaces the checks of one ``run_suite`` call work in.

    The run's own space (``params.dim``, ``params.p``), which most checks
    use, is built on first use and then shared: its basis is deterministic
    and no check writes to it.  A space at another p or N is built afresh
    for each request and freed with its check, because keeping those too
    would raise the run's peak memory.
    """

    def __init__(self, params: SuiteParams):
        self.params = params
        self._own: EmbeddingSpace | None = None

    def get(self, p: float | None = None, dim: int | None = None) -> EmbeddingSpace:
        n = self.params.dim if dim is None else dim
        p = self.params.p if p is None else p
        if (n, p) != (self.params.dim, self.params.p):
            return self._build(n, p)
        if self._own is None:
            self._own = self._build(n, p)
        return self._own

    def _build(self, n: int, p: float) -> EmbeddingSpace:
        resolution = max(64, 8 * n, self.params.grid)
        return embedding_space(fourier_sbasis(n, p, resolution))


def _rand_coeffs(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_poly(space: EmbeddingSpace, rng) -> GridFunction:
    return reconstruct(_rand_coeffs(rng, space.dim), space.basis)


def _rand_operator(space: EmbeddingSpace, rng) -> BOperator:
    return BOperator(_rand_coeffs(rng, space.dim, space.dim) / np.sqrt(space.dim), space)


def _rand_selfadjoint(space: EmbeddingSpace, rng) -> BOperator:
    a = _rand_coeffs(rng, space.dim, space.dim)
    return from_h_matrix(a + a.conj().T, space)


def _rand_step(rng, resolution: int, levels: int = 8) -> GridFunction:
    vals = _rand_coeffs(rng, levels)
    return GridFunction(((0.0, 1.0),), np.repeat(vals, resolution // levels))


def _seed_int(rng) -> int:
    return int(rng.integers(0, 2**62))


# ---------------------------------------------------------------------------
# basis / duality-map checks (embedding suite)
# ---------------------------------------------------------------------------


@_check("duality-identity", "embedding", tol=1e-6)
def _chk_duality_identity(params, rng, spaces):
    per_p = _count(params, 200)
    worst = 0.0
    for p in P_SWEEP:
        space = spaces.get(p=p)
        q = p / (p - 1.0)
        for _ in range(per_p):
            u = _rand_poly(space, rng)
            ju = duality_map(u, p)
            np2 = lp_norm(u, p) ** 2
            a = abs(pairing(u, ju) - np2)
            b = abs(lp_norm(ju, q) ** 2 - np2)
            worst = max(worst, max(a, b) / max(np2, 1e-300))
    return worst, per_p * len(P_SWEEP)


@_check("duality-homogeneity", "embedding", tol=1e-8)
def _chk_duality_homogeneity(params, rng, spaces):
    n = _count(params, 100)
    by_p = {p: spaces.get(p=p) for p in P_SWEEP}
    worst = 0.0
    for i in range(n):
        p = P_SWEEP[i % len(P_SWEEP)]
        space = by_p[p]
        q = p / (p - 1.0)
        u = _rand_poly(space, rng)
        c = complex(_rand_coeffs(rng))
        lhs = duality_map(c * u, p)
        rhs = c * duality_map(u, p)
        worst = max(worst, lp_norm(lhs - rhs, q) / max(lp_norm(rhs, q), 1e-300))
    return worst, n


@_check("coefficient-projection", "embedding", tol=1e-10)
def _chk_coeff_projection(params, rng, spaces):
    n = _count(params, 100)
    basis = spaces.get().basis
    worst = 0.0
    for _ in range(n):
        u = GridFunction(basis.box, _rand_coeffs(rng, basis.synthesis.shape[1]))
        once = reconstruct(coefficients(u, basis), basis)
        twice = reconstruct(coefficients(once, basis), basis)
        scale = max(lp_norm(once, basis.p), 1e-300)
        worst = max(worst, lp_norm(twice - once, basis.p) / scale)
    return worst, n


# ---------------------------------------------------------------------------
# Hilbert-embedding checks (embedding suite)
# ---------------------------------------------------------------------------


@_check("embedding-hnorm-below-sup", "embedding", tol=1e-12)
def _chk_hnorm_sup(params, rng, spaces):
    per_p = _count(params, 125)
    worst = 0.0
    for p in P_SWEEP:
        space = spaces.get(p=p)
        for _ in range(per_p):
            u = _rand_poly(space, rng)
            cu = coefficients(u, space.basis)
            sup = float(np.max(np.abs(cu)))
            worst = max(worst, (h_norm(u, space) - sup) / max(sup, 1e-300))
    return max(0.0, worst), per_p * len(P_SWEEP)


@_check("embedding-hnorm-below-bnorm", "embedding", tol=5e-7)
def _chk_hnorm_bnorm(params, rng, spaces):
    per_p = _count(params, 125)
    worst = 0.0
    for p in P_SWEEP:
        space = spaces.get(p=p)
        for _ in range(per_p):
            u = _rand_poly(space, rng)
            bn = lp_norm(u, p)
            worst = max(worst, (h_norm(u, space) - bn) / max(bn, 1e-300))
    return max(0.0, worst), per_p * len(P_SWEEP)


@_check("embedding-middle-ratio", "embedding")
def _chk_middle_ratio(params, rng, spaces):
    # sup_n |<E_n*, u>| <= ||u||_B requires unit dual norms, which our
    # normalization only guarantees empirically -- so record the worst ratio.
    per_p = _count(params, 50)
    worst = 0.0
    for p in P_SWEEP:
        space = spaces.get(p=p)
        for _ in range(per_p):
            u = _rand_poly(space, rng)
            sup = float(np.max(np.abs(coefficients(u, space.basis))))
            worst = max(worst, sup / max(lp_norm(u, p), 1e-300))
    return worst, per_p * len(P_SWEEP)


@_check("embedding-gram-diagonal", "embedding", tol=1e-8)
def _chk_gram_diag(params, rng, spaces):
    space = spaces.get()
    g = gram_matrix(space)
    off = g - np.diag(np.diag(g))
    return float(np.max(np.abs(off))), space.dim * space.dim


@_check("embedding-jb-linear", "embedding", tol=1e-12)
def _chk_jb_linear(params, rng, spaces):
    n = _count(params, 100)
    space = spaces.get()
    worst = 0.0
    for _ in range(n):
        u, v, w = (_rand_poly(space, rng) for _ in range(3))
        a = complex(_rand_coeffs(rng))
        add = abs(evaluate(jb_apply(u + v, space), w)
                  - evaluate(jb_apply(u, space), w)
                  - evaluate(jb_apply(v, space), w))
        hom = abs(evaluate(jb_apply(a * u, space), w)
                  - np.conj(a) * evaluate(jb_apply(u, space), w))
        scale = max(1.0, abs(evaluate(jb_apply(u, space), w)))
        worst = max(worst, max(add, hom) / scale)
    return worst, n


@_check("embedding-gram-schmidt", "embedding", tol=1e-8)
def _chk_gram_schmidt(params, rng, spaces):
    n = _count(params, 20)
    space = spaces.get()
    k = min(4, space.dim)
    worst = 0.0
    for _ in range(n):
        vecs = [_rand_poly(space, rng) for _ in range(k)]
        psis, duals = gram_schmidt_biorthonormal(vecs, space)
        for i, psi in enumerate(psis):
            worst = max(worst, abs(lp_norm(psi, space.basis.p) - 1.0))
            for j in range(len(psis)):
                if i != j:
                    denom = h_norm(psis[i], space) * h_norm(psis[j], space)
                    worst = max(worst,
                                abs(h_inner(psis[i], psis[j], space)) / max(denom, 1e-300))
                delta = 1.0 if i == j else 0.0
                worst = max(worst, abs(evaluate(duals[j], psi) - delta))
    return worst, n * k


# ---------------------------------------------------------------------------
# operator-algebra checks (adjoint suite)
# ---------------------------------------------------------------------------

_ADJOINT_DIMS = (4, 8, 16)


@_check("adjoint-algebra", "adjoint", tol=1e-10)
def _chk_adjoint_algebra(params, rng, spaces):
    total = _count(params, 500)
    by_dim = [spaces.get(dim=d) for d in _ADJOINT_DIMS]
    worst = 0.0
    for i in range(total):
        space = by_dim[i % len(by_dim)]
        a_op = _rand_operator(space, rng)
        b_op = _rand_operator(space, rng)
        scalar = complex(_rand_coeffs(rng))
        worst = max(worst, adjoint_algebra_defect(a_op, b_op, scalar))
    return worst, total


@_check("adjoint-defining-identity", "adjoint", tol=1e-10)
def _chk_defining_identity(params, rng, spaces):
    n = _count(params, 1000)
    space = spaces.get()
    worst = 0.0
    for _ in range(n):
        a_op = _rand_operator(space, rng)
        u, v = _rand_poly(space, rng), _rand_poly(space, rng)
        lhs = h_inner(apply_op(a_op, u), v, space)
        rhs = h_inner(u, apply_op(adjoint(a_op), v), space)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return worst, n


@_check("adjoint-positive-product", "adjoint", tol=1e-10)
def _chk_positive_product(params, rng, spaces):
    n = _count(params, 100)
    space = spaces.get()
    worst = 0.0
    for _ in range(n):
        a_op = _rand_operator(space, rng)
        prod = adjoint(a_op) @ a_op
        lam = numerics.general_eigenvalues(prod.matrix)
        scale = max(1.0, float(np.max(np.abs(lam))) if lam.size else 1.0)
        worst = max(worst,
                    float(np.max(np.abs(lam.imag))) / scale,
                    max(0.0, -float(np.min(lam.real))) / scale)
    return worst, n


@_check("self-conjugacy-equivalence", "adjoint", tol=0.0)
def _chk_self_conjugacy(params, rng, spaces):
    half = _count(params, 200)
    space = spaces.get()
    tgrid = (0.25, 0.75)
    disagreements = 0
    for i in range(2 * half):
        if i % 2 == 0:
            a_op = _rand_selfadjoint(space, rng)
        else:
            a_op = _rand_operator(space, rng)
        lhs = self_conjugacy_check(a_op, tgrid)
        rhs = is_naturally_selfadjoint(a_op, tol=1e-8)
        disagreements += int(lhs != rhs)
    return float(disagreements), 2 * half


@_check("lax-spectrum-invariance", "adjoint", tol=1e-8)
def _chk_lax_spectrum(params, rng, spaces):
    n = _count(params, 200)
    space = spaces.get()
    worst = 0.0
    for _ in range(n):
        worst = max(worst, lax_check(_rand_selfadjoint(space, rng)))
    return worst, n


@_check("lax-norm-identity", "adjoint", tol=1e-8)
def _chk_lax_norm(params, rng, spaces):
    n = _count(params, 100)
    space = spaces.get()
    worst = 0.0
    for _ in range(n):
        a_op = _rand_operator(space, rng)
        na = h_opnorm(a_op)
        nprod = h_opnorm(adjoint(a_op) @ a_op)
        worst = max(worst, abs(nprod - na**2) / max(1.0, na**2))
    return worst, n


@_check("polar-reconstruction", "adjoint", tol=1e-9)
def _chk_polar(params, rng, spaces):
    n = _count(params, 50)
    space = spaces.get()
    eye = np.eye(space.dim)
    worst = 0.0
    for _ in range(n):
        a_op = _rand_operator(space, rng)
        u_op, t_op = polar_decompose(a_op)
        scale = max(float(np.linalg.norm(a_op.matrix)), 1e-300)
        worst = max(worst,
                    float(np.linalg.norm((u_op @ t_op).matrix - a_op.matrix)) / scale)
        th = h_matrix(t_op)
        tscale = max(1.0, float(np.linalg.norm(th)))
        worst = max(worst, float(np.linalg.norm(th - th.conj().T)) / tscale)
        lam = h_eigen(th).values
        worst = max(worst, max(0.0, -float(lam[-1])) / tscale)
        uh = h_matrix(u_op)
        worst = max(worst, float(np.linalg.norm(uh.conj().T @ uh - eye)))
    return worst, n


@_check("spectral-reconstruction", "adjoint", tol=1e-8)
def _chk_spectral(params, rng, spaces):
    n = _count(params, 50)
    space = spaces.get()
    eye = np.eye(space.dim)
    worst = 0.0
    for _ in range(n):
        a_op = _rand_selfadjoint(space, rng)
        dec = spectral_decompose(a_op)
        recon = sum(x * p_op.matrix for x, p_op in zip(dec.eigenvalues, dec.projections))
        scale = max(float(np.linalg.norm(a_op.matrix)), 1e-300)
        worst = max(worst, float(np.linalg.norm(recon - a_op.matrix)) / scale)
        total = sum(p_op.matrix for p_op in dec.projections)
        worst = max(worst, float(np.linalg.norm(total - eye)))
        for i, p_op in enumerate(dec.projections):
            worst = max(worst, float(np.linalg.norm((p_op @ p_op).matrix - p_op.matrix)))
            worst = max(worst, float(np.linalg.norm(adjoint(p_op).matrix - p_op.matrix)))
            for j in range(i + 1, len(dec.projections)):
                cross = (p_op @ dec.projections[j]).matrix
                worst = max(worst, float(np.linalg.norm(cross)))
    return worst, n


@_check("minmax-matches-direct", "adjoint", tol=1e-6)
def _chk_minmax(params, rng, spaces):
    n = _count(params, 10)
    space = spaces.get()
    ks = sorted({1, max(1, space.dim // 2), space.dim})
    worst = 0.0
    for _ in range(n):
        a_op = _rand_selfadjoint(space, rng)
        direct = h_eigen(h_matrix(a_op)).values
        scale = max(1.0, float(np.max(np.abs(direct))))
        for k in ks:
            est = minmax_eigenvalue(a_op, k, trials=4, seed=_seed_int(rng))
            worst = max(worst, abs(est - float(direct[k - 1])) / scale)
    return worst, n * len(ks)


# ---------------------------------------------------------------------------
# singular-value / trace-class checks (schatten suite)
# ---------------------------------------------------------------------------

_SCHATTEN_PS = (1.0, 2.0, 4.0)


@_check("schatten-two-path", "schatten", tol=1e-9)
def _chk_two_path(params, rng, spaces):
    total = _count(params, 500)
    space = spaces.get()
    worst = 0.0
    for i in range(total):
        a_op = _rand_operator(space, rng)
        p = _SCHATTEN_PS[i % len(_SCHATTEN_PS)]
        [(bracket, mu)] = schatten.schatten_norm_paths(a_op, (p,))
        worst = max(worst, abs(bracket - mu) / max(mu, 1e-300))
    return worst, total


@_check("singular-value-paths", "schatten", tol=1e-10)
def _chk_sv_paths(params, rng, spaces):
    n = _count(params, 200)
    space = spaces.get()
    worst = 0.0
    for _ in range(n):
        _, gap, scale = schatten.singular_value_gap(_rand_operator(space, rng))
        worst = max(worst, gap / scale)
    return worst, n


@_check("schatten-holder-monotone", "schatten", tol=1e-10)
def _chk_holder(params, rng, spaces):
    n = _count(params, 100)
    space = spaces.get()
    ps = (1.0, 1.5, 2.0, 3.0, 4.0)
    worst = 0.0
    for _ in range(n):
        a_op = _rand_operator(space, rng)
        norms = schatten.schatten_norm(a_op, ps)
        scale = max(norms[0], 1e-300)
        for lo, hi in zip(norms, norms[1:]):
            worst = max(worst, (hi - lo) / scale)
    return max(0.0, worst), n


@_check("schatten-unitary-invariance", "schatten", tol=1e-9)
def _chk_unitary_invariance(params, rng, spaces):
    n = _count(params, 50)
    space = spaces.get()
    worst = 0.0
    for _ in range(n):
        a_op = _rand_operator(space, rng)
        gens = [_rand_coeffs(rng, space.dim, space.dim) for _ in range(2)]
        u_op, v_op = (from_h_matrix(numerics.matrix_exp(g - g.conj().T), space)
                      for g in gens)
        bases = schatten.schatten_norm(a_op, _SCHATTEN_PS)
        moved = schatten.schatten_norm(u_op @ a_op @ v_op, _SCHATTEN_PS)
        for base, after in zip(bases, moved):
            worst = max(worst, abs(after - base) / max(base, 1e-300))
    return worst, n * len(_SCHATTEN_PS)


def _bound_excess(excess: float, size: float) -> float:
    """An excess over a bound of the given size, rescaled from the tolerance
    1e-9*(size+1) to a 1e-9 budget."""
    return excess * 1e-9 / max(1e-9 * (size + 1.0), 1e-300)


def _worst_excess(worst: float, pairs) -> float:
    """``worst`` raised by the rescaled excess of each (lhs, rhs) pair of an
    inequality lhs <= rhs."""
    for lhs, rhs in pairs:
        worst = max(worst, _bound_excess(max(0.0, lhs - rhs), rhs))
    return worst


@_check("weyl-inequality", "schatten", tol=1e-9)
def _chk_weyl(params, rng, spaces):
    n = _count(params, 500)
    space = spaces.get()
    worst = 0.0
    for _ in range(n):
        worst = _worst_excess(worst, schatten.weyl_sums(_rand_operator(space, rng)))
    return worst, n


@_check("horn-inequality", "schatten", tol=1e-9)
def _chk_horn(params, rng, spaces):
    n = _count(params, 500)
    space = spaces.get()
    worst = 0.0
    for _ in range(n):
        a1 = _rand_operator(space, rng)
        a2 = _rand_operator(space, rng)
        worst = _worst_excess(worst, schatten.horn_sums(a1, a2))
    return worst, n


@_check("lalesco-inequality", "schatten", tol=1e-9)
def _chk_lalesco(params, rng, spaces):
    n = _count(params, 500)
    space = spaces.get()
    worst = 0.0
    for _ in range(n):
        # Lalesco's inequality is the p = 1 row of Weyl's.
        worst = _worst_excess(worst, schatten.weyl_sums(_rand_operator(space, rng))[:1])
    return worst, n


@_check("lidskii-trace", "schatten", tol=1e-9)
def _chk_lidskii(params, rng, spaces):
    n = _count(params, 500)
    space = spaces.get()
    worst = 0.0
    for _ in range(n):
        eigen_sum, trace = schatten.lidskii_sums(_rand_operator(space, rng))
        worst = max(worst, _bound_excess(abs(eigen_sum - trace), abs(trace)))
    return worst, n


# ---------------------------------------------------------------------------
# KS^2 checks (ks2 suite)
# ---------------------------------------------------------------------------


@_check("ks2-pairing-bijection", "ks2", tol=0.0)
def _chk_pairing_bijection(params, rng, spaces):
    limit = 10**4
    failures = 0
    for k in range(1, limit + 1):
        l, i = ks2.pairing_order(k)
        failures += int(ks2.inverse_pairing(l, i) != k)
    return float(failures), limit


@_check("ks2-gram-psd", "ks2", tol=1e-10)
def _chk_gram_psd(params, rng, spaces):
    n = _count(params, 20)
    system = ks2.cube_system(1)
    worst = 0.0
    for _ in range(n):
        vs = [ks2.functional_values(_rand_step(rng, params.grid), params.cubes, system)
              for _ in range(6)]
        g = np.array([[ks2.values_inner(a, b) for b in vs] for a in vs])
        scale = max(1.0, float(np.max(np.abs(g))))
        worst = max(worst, float(np.linalg.norm(g - g.conj().T)) / scale)
        lam = numerics.hermitian_eigen((g + g.conj().T) / 2.0).values
        worst = max(worst, max(0.0, -float(lam[-1])) / scale)
    return worst, n


@_check("ks2-truncation-monotone", "ks2", tol=1e-12)
def _chk_truncation(params, rng, spaces):
    n = _count(params, 50)
    system = ks2.cube_system(1)
    ks = sorted({8, 16, 32, params.cubes})
    worst = 0.0
    worst_tail = 0.0
    for _ in range(n):
        f = _rand_step(rng, params.grid)
        v = ks2.functional_values(f, ks[-1], system)
        norms = [ks2.values_norm(v[:k]) for k in ks]
        scale = max(norms[-1], 1e-300)
        for lo, hi in zip(norms, norms[1:]):
            worst = max(worst, (lo - hi) / scale)
        worst_tail = max(worst_tail, ks2.tail_bound(f, ks[-1]))
    return max(0.0, worst), n, dict(K=ks[-1]), {"ks2-truncation-tail": worst_tail}


@_check("ks2-functional-contraction", "ks2", tol=1e-12)
def _chk_contraction(params, rng, spaces):
    n = _count(params, 500)
    system = ks2.cube_system(1)
    ks = (1, 2, 7, 19, params.cubes)
    worst = 0.0
    for _ in range(n):
        f = _rand_step(rng, params.grid)
        l1 = float(np.mean(np.abs(f.values)))
        for k in ks:
            v = abs(ks2.functional_Fk(f, k, system))
            worst = max(worst, (v - l1) / max(l1, 1.0))
    return max(0.0, worst), n * len(ks)


@_check("ks2-fundamentality", "ks2", tol=0.0)
def _chk_fundamentality(params, rng, spaces):
    n = _count(params, 200)
    system = ks2.cube_system(1)
    k_max = 256
    dead = 0
    for _ in range(n):
        f = _rand_step(rng, params.grid)
        vals = ks2.functional_values(f, k_max, system)
        dead += int(float(np.max(np.abs(vals))) == 0.0)
    return float(dead), n, dict(K=k_max)


@_check("ks2-embedding-bound", "ks2", tol=1e-9)
def _chk_ks2_embedding(params, rng, spaces):
    n = _count(params, 50)
    system = ks2.cube_system(1)
    # ||f||_1 <= ||f||_q on the unit box for every q >= 1, so the q = 1 bound
    # already implies every finite q.
    qs = (1.0, 2.0, np.inf)
    worst = 0.0
    for _ in range(n):
        f = _rand_step(rng, params.grid)
        norm = ks2.ks2_norm(f, params.cubes, system)
        worst = _worst_excess(worst, [(norm, b) for b in ks2.embedding_bounds(f, qs)])
    return worst, n * len(qs), dict(q_list=",".join(f"{q:g}" for q in qs))


@_check("ks2-weak-strong-decay", "ks2", tol=0.2)
def _chk_weak_strong(params, rng, spaces):
    # sin(2 pi m x) goes weakly to zero in L^2 without going strongly; under
    # the square-sum norm it decays outright.  The threshold 0.2 on the ratio
    # of the last norm to the first was fixed from a reference run at
    # m_max = 64, K = 256.
    m_max = 64
    resolution = max(params.grid, 1024)
    norms = ks2.weak_strong_norms(m_max, max(params.cubes, 256), ks2.cube_system(1),
                                  resolution=resolution)
    return (norms[-1] / max(norms[0], 1e-300), m_max,
            dict(m_max=m_max, resolution=resolution))


# ---------------------------------------------------------------------------
# integral-operator checks (integral suite)
# ---------------------------------------------------------------------------


@_check("hilbert-square-identity", "integral", tol=1e-12)
def _chk_hilbert_square(params, rng, spaces):
    n = _count(params, 100)
    worst = 0.0
    for _ in range(n):
        f = integrals.random_bandlimited(rng, params.grid)
        twice = integrals.hilbert_multiplier(integrals.hilbert_multiplier(f))
        scale = max(1.0, float(np.max(np.abs(f.values))))
        worst = max(worst, float(np.max(np.abs(twice.values + f.values))) / scale)
    return worst, n


@_check("hilbert-isometry", "integral", tol=1e-12)
def _chk_hilbert_isometry(params, rng, spaces):
    n = _count(params, 100)
    worst = 0.0
    for _ in range(n):
        f = integrals.random_bandlimited(rng, params.grid)
        ratio = lp_norm(integrals.hilbert_multiplier(f), 2) / lp_norm(f, 2)
        worst = max(worst, abs(ratio - 1.0))
    return worst, n


@_check("hilbert-skew-adjoint", "integral", tol=1e-10)
def _chk_hilbert_skew(params, rng, spaces):
    n = _count(params, 200)
    worst = 0.0
    for _ in range(n):
        f = integrals.random_bandlimited(rng, params.grid)
        g = integrals.random_bandlimited(rng, params.grid)
        lhs = pairing(integrals.hilbert_multiplier(f), g)
        rhs = pairing(f, integrals.hilbert_multiplier(g))
        scale = max(lp_norm(f, 2) * lp_norm(g, 2), 1e-300)
        worst = max(worst, abs(lhs + rhs) / scale)
    return worst, n


def _pv_gap(mode: int, m: int, eps: float) -> float:
    f = integrals.signal_from_callable(
        lambda t: np.cos(2.0 * np.pi * mode * t), m)
    return float(np.max(np.abs(integrals.hilbert_multiplier(f).values
                               - integrals.hilbert_pv(f, eps).values)))


@_check("hilbert-pv-convergence", "integral", tol=1e-2)
def _chk_pv_convergence(params, rng, spaces):
    # Two-part claim.  (a) Joint refinement (eps and 1/M halving together)
    # drives the truncated-kernel path onto the multiplier path.  (b) The
    # convergence order in eps is at least one; it is measured on a fixed
    # fine grid so the grid error (the -1 in the exact leading gap
    # 2k(2c-1)/M for eps = c/M) does not bias the estimate below one.
    mode = 3
    joint = [_pv_gap(mode, m, 8.0 / m) for m in (512, 1024, 2048, 4096)]
    growth = max(b / a for a, b in zip(joint, joint[1:]))
    m_fixed = 4096
    fixed = [_pv_gap(mode, m_fixed, c / m_fixed) for c in (64.0, 32.0, 16.0, 8.0)]
    orders = [np.log2(a / b) for a, b in zip(fixed, fixed[1:])]
    violation = max(0.0, growth - 1.0, 1.0 - min(orders))
    return (violation, len(joint) + len(fixed),
            dict(mode=mode, order_min=float(min(orders))))


@_check("riesz-symmetry", "integral", tol=1e-8)
def _chk_riesz_symmetry(params, rng, spaces):
    n = _count(params, 50)
    worst = 0.0
    for _ in range(n):
        f = GridFunction(((0.0, 1.0),), _rand_coeffs(rng, params.grid))
        g = GridFunction(((0.0, 1.0),), _rand_coeffs(rng, params.grid))
        lhs = pairing(integrals.riesz_potential(f, params.alpha), g)
        rhs = pairing(f, integrals.riesz_potential(g, params.alpha))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst, n, dict(alpha=params.alpha)


@_check("riesz-positivity", "integral", tol=1e-8)
def _chk_riesz_positivity(params, rng, spaces):
    n = _count(params, 100)
    worst = 0.0
    for _ in range(n):
        f = GridFunction(((0.0, 1.0),), rng.standard_normal(params.grid) + 0.0j)
        form = pairing(integrals.riesz_potential(f, params.alpha), f).real
        worst = max(worst, -float(form))
    return max(0.0, worst), n, dict(alpha=params.alpha)


# ---------------------------------------------------------------------------
# measured-only entries, attached to every suite
# ---------------------------------------------------------------------------


@_check("lax-constant-khat", "*")
def _meas_khat(params, rng, spaces):
    n = _count(params, 20)
    space = spaces.get()
    lo, hi = np.inf, 0.0
    for _ in range(n):
        t_op = _rand_selfadjoint(space, rng)
        khat = lax_khat(t_op, params.p, seed=_seed_int(rng))
        lo, hi = min(lo, khat), max(hi, khat)
    return hi, n, dict(p=params.p, khat_min=lo)


@_check("bnorm-adjoint-ratio", "*")
def _meas_bnorm_ratio(params, rng, spaces):
    n = _count(params, 20)
    space = spaces.get()
    lo, hi = np.inf, 0.0
    for _ in range(n):
        a_op = _rand_operator(space, rng)
        na = b_opnorm_estimate(a_op, params.p, seed=_seed_int(rng))
        nastar = b_opnorm_estimate(adjoint(a_op), params.p, seed=_seed_int(rng))
        ratio = nastar / max(na, 1e-300)
        lo, hi = min(lo, ratio), max(hi, ratio)
    return hi, n, dict(p=params.p, ratio_min=lo)


@_check("hilbert-cp-constant", "*")
def _meas_cp(params, rng, spaces):
    n = _count(params, 40)
    m = min(params.grid, 512)
    best = 0.0
    for _ in range(n):
        f = integrals.random_bandlimited(rng, m)
        best = max(best, lp_norm(integrals.hilbert_multiplier(f), params.p)
                   / max(lp_norm(f, params.p), 1e-300))
    return best, n, dict(p=params.p)


@_check("rayleigh-quotient-gap", "*")
def _meas_rayleigh(params, rng, spaces):
    n = _count(params, 50)
    space = spaces.get()
    worst = 0.0
    for _ in range(n):
        a_op = _rand_selfadjoint(space, rng)
        psi = _rand_poly(space, rng)
        worst = max(worst, rayleigh_compare(a_op, psi, space)[2])
    return worst, n, dict(p=params.p)


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------


def list_checks(suite: str = "all") -> tuple[str, ...]:
    """Check names belonging to a suite, sorted; measured entries included."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}: choose from {', '.join(SUITE_NAMES)}")
    names = [name for name, (owner, _, _) in _REGISTRY.items()
             if owner == "*" or suite == "all" or owner == suite]
    return tuple(sorted(names))


def run_suite(name: str, seed: int = 0, params: SuiteParams | None = None) -> VerificationReport:
    """Run every check of a suite with per-check seeded randomness."""
    if params is None:
        params = SuiteParams()
    start = time.perf_counter()
    report = VerificationReport(suite=name, seed=int(seed))
    spaces = _Spaces(params)
    for cname in list_checks(name):
        _, tol, fn = _REGISTRY[cname]
        rng = np.random.default_rng(check_seed(int(seed), cname))
        # pad the optional extra-params and tail-bound dicts
        violation, samples, extra, tails = (*fn(params, rng, spaces), {}, {})[:4]
        if tol is None:
            status = MEASURED
        else:
            status = PASS if violation <= tol else FAIL
            extra = {**extra, "tol": tol}
        report.add(CheckResult(cname, status, float(violation), samples, extra))
        report.tail_bounds.update(tails)
    report.duration = time.perf_counter() - start
    return report
