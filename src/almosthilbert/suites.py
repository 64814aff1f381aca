"""Named verification suites over the whole library.

Every "invariant" of the individual modules is packaged here as a named
check.  A check is declared, not written as a loop: its registration gives
its suite, its tolerance, a nominal instance count, a ``draw`` that takes
a chunk of instances' randomness from the check's own stream, and a
``measure`` that returns each instance's value or values.  ``run_suite`` is
the one place that loops over chunks: it scales the count by ``trials``,
draws a bounded chunk of instances in index order and measures the chunk,
reduces the values, compares the result with the tolerance and builds the
check result; the library modules and the check bodies only return
numbers.  A chunk is drawn in one Generator call where its instances'
layouts allow, bit for bit as one instance at a time, and measured as one
(T, N, N) stack of operators (one per N where the instances' N differ) or
(T, M) stack of grid functions; the measures that truncate per function
(ks2-gram-psd, ks2-truncation-monotone and ks2-embedding-bound) and those
that check the one-function public path (coefficient-projection,
ks2-functional-contraction and ks2-fundamentality) loop over the chunk's
instances.  Checks are grouped into
suites (embedding, adjoint, schatten, ks2, integral); each check belongs to
exactly one of them, and "all" is their union.  The three quantities the
underlying theory leaves unquantified are measured-only entries of the
suite of the claim they belong to: the equivalence constant k-hat and the
ratio ||A*||_B/||A||_B for p != 2 in adjoint, the Hilbert-transform L^p
constant in integral.

Determinism: the master seed is split into independent per-check streams by
hashing the check name, so adding or removing one check never perturbs the
randomness of the others and a (suite, seed, params) triple always produces
the identical report.  Checks share no mutable state (a pass's basis, the
one object they share, has read-only arrays), so the order in which their
blocks run does not change a byte.  H is a basis and its weights: every
check reads the run's weights, and each declares the basis it reads, one
per P_SWEEP p, the run's own p, or none.  ``run_suite`` makes one pass per
exponent, and a pass that runs a block builds its basis at the run's N when
it starts, after the last pass's is dropped; a last pass runs the checks
that read no basis.  Only a basis pass's blocks reach a basis, so the run
holds at most one at its N, and none while a check that reads none runs;
the report sorts by check name.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import integrals, ks2, numerics, schatten
from .embedding import (
    biorthonormalize,
    coefficient_h_inner,
    coefficient_h_norm,
    dyadic_weights,
    gram_matrix,
)
from .operators import (
    BOperator,
    adjoint,
    adjoint_algebra_defect,
    adjoint_identity_defect,
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
    self_conjugacy_check,
    spectral_decompose,
)
from .report import FAIL, MEASURED, PASS, CheckResult, VerificationReport
from .spaces import (
    GridFunction,
    SchauderBasis,
    analyze,
    coefficients,
    duality_map,
    fourier_sbasis,
    lp_norm,
    pairing,
    reconstruct,
    synthesize,
)

SUITE_NAMES = ("embedding", "adjoint", "schatten", "ks2", "integral", "all")

P_SWEEP = (1.5, 2.0, 3.0, 4.0)

# The largest N whose dyadic weight sum 1 - 2^-N is still below 1.0 in float64.
_MAX_DIM = np.finfo(float).nmant + 1
# The largest K whose dyadic weight 2^-K is still above 0.0 in float64 (2^-1074).
_MAX_CUBES = np.finfo(float).nmant - np.finfo(float).minexp
# The finest grid, in cells, of the desk scale.
_MAX_GRID = 16384
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
        if g < 16 or g > _MAX_GRID or (g & (g - 1)) != 0:
            raise ValueError(f"grid must be a power of two in 16..{_MAX_GRID}, got {g}")
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


# The bytes of complex128 values one chunk of a check may hold, bounded
# twice over (see _check).  Of N x N operators, one per instance: 32 at
# N = 8, 8 at N = 16, 2 at N = 32, one from N = 33.  All 500 instances of a
# check at once raised the nominal peak RSS by 17 %, past the benchmark's 5 %
# bound; a chunk of 32 adds about 0.25 MB.  Of grid functions, the most a
# chunk's draw and measure hold at once: 32 on the default grid of 256
# cells, one from 8192 cells.  Operator stacks pass through LAPACK and its workspaces, grid stacks
# through elementwise kernels and FFTs, so the grid bound is the looser:
# at 2^15 grid bytes too, most grid checks ran one or two instances at a time.
_CHUNK_BYTES = 2**15
_GRID_BYTES = 2**17


def _chunk(dims, grid: int = 0, per_eigenvalue: bool = False) -> int:
    """Instances per chunk of a check whose instances each hold an N x N
    operator (one per eigenvalue, N of them, where ``per_eigenvalue``),
    N = ``dims``, or, where they cycle through the N of a tuple ``dims``,
    the mean of their entries; and ``grid`` further values (grid samples)."""
    dims = np.atleast_1d(dims)
    entries = int(np.sum(dims ** (3 if per_eigenvalue else 2))) // len(dims)
    return max(1, min(_CHUNK_BYTES // (16 * entries), _GRID_BYTES // (16 * max(grid, 1))))


def _resolution(params: SuiteParams) -> int:
    """The grid size of the run's basis of N = params.dim members."""
    return max(64, 8 * params.dim, params.grid)


@dataclass(frozen=True)
class _Check:
    suite: str  # the one suite it belongs to
    tol: float | None  # None: a measured entry
    count: int | None  # nominal instances per block at trials = 100; None: one instance
    samples: int | None
    draw: Callable  # draw(run, first, stop): instances first..stop-1, as one chunk
    measure: Callable  # measure(run, xs): the samples of each instance of the chunk xs
    # grid functions of the run's grid per instance that the chunk's draw and
    # measure hold at once: the growth per instance, rounded, of the bytes numpy
    # allocates for a chunk on the default grid (test_grid_values_bound_a_chunk)
    grid_values: int = 0
    dims: tuple[int, ...] = ()  # the N its instances cycle through; (): --dim
    per_eigenvalue: bool = False  # its instances hold an operator per eigenvalue
    basis: str | None = None  # "sweep": a block per P_SWEEP p; "own": the run's p; None: none

    def chunk(self, params: SuiteParams) -> int:
        return _chunk(self.dims or params.dim, self.grid_values * _resolution(params),
                      self.per_eigenvalue)

    def passes(self, params: SuiteParams) -> tuple:
        """The exponent of the pass that runs each of its blocks, in block
        order; None for the pass of no basis."""
        return {"sweep": P_SWEEP, "own": (params.p,), None: (None,)}[self.basis]


_REGISTRY: dict[str, _Check] = {}


def _check(name: str, suite: str, tol: float | None = None, *, count: int | None = None,
           samples: int | None = None,
           draw: Callable = lambda run, first, stop: range(first, stop),
           grid_values: int = 0, dims: tuple[int, ...] = (), per_eigenvalue: bool = False,
           basis: str | None = None):
    """Register ``measure`` as check ``name``, asserted against ``tol`` (a
    measured entry when ``tol`` is None).

    ``basis`` declares the basis a check reads through ``run.basis()``:
    "sweep", one block per P_SWEEP p, each at its p; "own", the run's p;
    None, none, for a check that reads the weights alone (``run.basis()``
    raises in a check that declares none).
    ``run_suite`` runs ``_count(params, count)`` instances per block
    (taking a count of one when ``count`` is None) in chunks, each inside
    one block, and measures each chunk before it draws the next.
    ``draw(run, first, stop)`` returns instances first..stop-1 as one
    chunk, taking all their randomness from ``run.rng`` in index order, as
    one instance at a time would.  ``measure(run, xs)`` returns the chunk's
    samples with one leading entry per instance: per instance a number for
    one sample, a sequence for several, and a sequence of rows where one
    sample has several quantities.  A chunk is bounded by the bytes of one
    N x N operator per instance at N = ``--dim`` (for instances that cycle
    through the N of ``dims``, by their mean N x N entries; with
    ``per_eigenvalue``, of N of them), and apart from that by the bytes of
    ``grid_values`` grid functions of the run's basis per instance, the
    most its draw and measure hold at once.  The operator bound counts one
    operator per instance: a measure that draws two, repeats one per trial
    or builds intermediates holds a small multiple of it.  A check at
    tolerance 0 counts its failing (true) samples; any other reports its
    largest quantity, starting from 0.0, and fails on a NaN.  ``samples``
    fixes the count of a check whose one value sums up that many
    evaluations.
    ``measure`` may record report params in ``run.extra`` and tail bounds in
    ``run.tails``."""
    def deco(measure):
        if name in _REGISTRY:
            raise RuntimeError(f"duplicate check name {name!r}")
        _REGISTRY[name] = _Check(suite, tol, count, samples, draw, measure,
                                 grid_values, dims, per_eigenvalue, basis)
        return measure

    return deco


def _count(params: SuiteParams, nominal: int) -> int:
    """Scale a nominal sample count by the trials knob (100 = nominal)."""
    return max(1, (nominal * params.trials) // 100)


def _complex_parts(x: np.ndarray, shapes) -> list[np.ndarray]:
    """Rows x of standard normals cut, row by row, into one complex array of
    each shape in turn, its real and then its imaginary part: one array per
    shape, with a leading axis of len(x)."""
    parts, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        part = x[:, at:at + size] + 1j * x[:, at + size:at + 2 * size]
        parts.append(part.reshape(len(x), *shape))
        at += 2 * size
    return parts


class _Run:
    """One check's part of a ``run_suite`` call: the params, the check's
    random stream, the weights of H, the basis of the pass its block runs
    in, and the report params and tail bounds its ``measure`` records.  The
    random draws below are for ``draw`` alone; each chunk form draws
    ``count`` instances in one Generator call, bit for bit as many calls one
    instance at a time."""

    def __init__(self, params: SuiteParams, rng):
        self.params = params
        self.rng = rng
        self.extra: dict = {}
        self.tails: dict = {}
        # the reduction of the blocks run so far, and their seconds
        self.worst, self.samples, self.seconds = 0.0, 0, 0.0
        # the basis of the pass the current block runs in, set while it runs
        self.pass_basis: SchauderBasis | None = None
        self.weights = dyadic_weights(params.dim)  # H's weights; all an operator check reads

    def basis(self) -> SchauderBasis:
        """The pass's basis, while a block of a check that declares one
        runs.  Raises in a check that declares none."""
        if self.pass_basis is None:
            raise RuntimeError("a check reads a basis it does not declare")
        return self.pass_basis

    def low(self, name: str, value):
        """Record the smallest entry of ``value`` (a number or an array) so
        far, NaN aside, as report param ``name``."""
        self.extra[name] = float(np.fmin.reduce(np.ravel(value),
                                                initial=self.extra.get(name, np.inf)))
        return value

    def tail(self, name: str, value: float) -> None:
        """Record the largest ``value`` so far as tail bound ``name``."""
        self.tails[name] = max(self.tails.get(name, 0.0), value)

    def converged(self, f: GridFunction, K: int | None = None) -> tuple[np.ndarray, int]:
        """``f``'s functional values at truncation K (the run's by default)
        cut at its effective truncation K_eff, and K_eff, whose largest value
        so far is report param ``K_eff``."""
        v, k_eff = ks2.converged_values(f, K or self.params.cubes)
        self.extra["K_eff"] = max(self.extra.get("K_eff", 1), k_eff)
        return v, k_eff

    def normals(self, count: int, *shapes) -> list[np.ndarray]:
        """Complex standard normals for ``count`` instances, each drawing
        one array of each shape in turn, its real and then its imaginary
        part: one array per shape, with a leading axis of ``count``."""
        size = sum(2 * math.prod(shape) for shape in shapes)
        return _complex_parts(self.rng.standard_normal((count, size)), shapes)

    def polys(self, count: int) -> np.ndarray:
        """The grid values of ``count`` random polynomials, one per row."""
        return synthesize(self.normals(count, (self.params.dim,))[0], self.basis())

    def matrices(self, count: int) -> np.ndarray:
        """Random operators' coordinate matrices, entries of variance 2/N."""
        n = self.params.dim
        return self.normals(count, (n, n))[0] / np.sqrt(n)

    def matrix(self) -> np.ndarray:
        return self.matrices(1)[0]

    def hermitians(self, count: int) -> np.ndarray:
        """The H-metric transports of random naturally self-adjoint operators."""
        n = self.params.dim
        a = self.normals(count, (n, n))[0]
        return a + a.conj().swapaxes(-1, -2)

    def hermitian(self) -> np.ndarray:
        return self.hermitians(1)[0]

    def stacked(self, matrices) -> BOperator:
        """Operators at the run's N, given by their coordinate matrices, as
        one stacked operator."""
        return BOperator(np.asarray(matrices), self.weights)

    def steps(self, count: int) -> np.ndarray:
        """Random step functions of 8 steps on the run's grid, one per row."""
        return np.repeat(self.normals(count, (8,))[0], self.params.grid // 8, axis=-1)

    def seed(self) -> int:
        return int(self.rng.integers(0, 2**62))


def _draw_matrices(run, first, stop):
    return run.matrices(stop - first)


def _draw_steps(run, first, stop):
    return run.steps(stop - first)


def _draw_bandlimited(run, first, stop):
    return integrals.random_bandlimited(run.rng, run.params.grid, (stop - first,))


# ---------------------------------------------------------------------------
# basis / duality-map checks (embedding suite)
# ---------------------------------------------------------------------------


def _draw_polys(run, first, stop):
    return run.polys(stop - first)


@_check("duality-identity", "embedding", tol=1e-6, count=200, grid_values=5, draw=_draw_polys,
        basis="sweep")
def _chk_duality_identity(run, u):
    p = run.basis().p
    ju = duality_map(u, p)
    np2 = np.float_power(lp_norm(u, p), 2.0)
    a = numerics.modulus(pairing(u, ju) - np2)
    b = np.abs(np.float_power(lp_norm(ju, p / (p - 1.0)), 2.0) - np2)
    return np.maximum(a, b) / np.maximum(np2, 1e-300)


def _draw_homogeneity(run, first, stop):
    # each instance draws a polynomial and a scalar
    coeffs, scalars = run.normals(stop - first, (run.params.dim,), ())
    return synthesize(coeffs, run.basis()), scalars[:, None]


@_check("duality-homogeneity", "embedding", tol=1e-8, count=25, grid_values=7,
        draw=_draw_homogeneity, basis="sweep")
def _chk_duality_homogeneity(run, x):
    u, c = x
    p = run.basis().p
    q = p / (p - 1.0)
    rhs = duality_map(u, p) * c
    return (lp_norm(duality_map(u * c, p) - rhs, q)
            / np.maximum(lp_norm(rhs, q), 1e-300))


def _draw_grid_values(run, first, stop):
    return run.normals(stop - first, (_resolution(run.params),))[0]


@_check("coefficient-projection", "embedding", tol=1e-10, count=100, grid_values=4,
        draw=_draw_grid_values, basis="own")
def _chk_coeff_projection(run, rows):
    # the public one-function round trip, coefficients then reconstruct, per instance
    basis = run.basis()
    out = []
    for values in rows:
        once = reconstruct(coefficients(GridFunction(values), basis), basis)
        twice = reconstruct(coefficients(once, basis), basis)
        out.append(float(lp_norm(twice.values - once.values, basis.p))
                   / max(float(lp_norm(once.values, basis.p)), 1e-300))
    return out


# ---------------------------------------------------------------------------
# Hilbert-embedding checks (embedding suite)
# ---------------------------------------------------------------------------


@_check("embedding-hnorm-below-sup", "embedding", tol=1e-12, count=125, grid_values=1,
        draw=_draw_polys, basis="sweep")
def _chk_hnorm_sup(run, u):
    c = analyze(u, run.basis())
    sup = np.max(np.abs(c), axis=-1)
    return (coefficient_h_norm(c, run.weights) - sup) / np.maximum(sup, 1e-300)


@_check("embedding-hnorm-below-bnorm", "embedding", tol=5e-7, count=125, grid_values=2,
        draw=_draw_polys, basis="sweep")
def _chk_hnorm_bnorm(run, u):
    basis = run.basis()
    bn = lp_norm(u, basis.p)
    c = analyze(u, basis)
    return (coefficient_h_norm(c, run.weights) - bn) / np.maximum(bn, 1e-300)


@_check("embedding-middle-ratio", "embedding", count=50, grid_values=2, draw=_draw_polys,
        basis="sweep")
def _chk_middle_ratio(run, u):
    # sup_n |<E_n*, u>| <= ||u||_B requires unit dual norms, which our
    # normalization only guarantees empirically -- so record the worst ratio.
    basis = run.basis()
    sup = np.max(np.abs(analyze(u, basis)), axis=-1)
    return sup / np.maximum(lp_norm(u, basis.p), 1e-300)


@_check("embedding-gram-diagonal", "embedding", tol=1e-8, basis="own")
def _chk_gram_diag(run, xs):
    g = gram_matrix(run.basis(), run.weights)
    return [np.abs(g - np.diag(np.diag(g))).ravel()]


def _draw_jb_linear(run, first, stop):
    # each instance draws three polynomials and a scalar
    n = run.params.dim
    *coeffs, scalars = run.normals(stop - first, (n,), (n,), (n,), ())
    return [synthesize(c, run.basis()) for c in coeffs], scalars


@_check("embedding-jb-linear", "embedding", tol=1e-12, count=100, grid_values=5,
        draw=_draw_jb_linear, basis="own")
def _chk_jb_linear(run, x):
    # <w, J_B(u)> = (w, u)_H, additive and conjugate-homogeneous in u
    (u, v, w), a = x
    basis = run.basis()
    cw = analyze(w, basis)

    def at_w(f):
        return coefficient_h_inner(cw, analyze(f, basis), run.weights)

    modulus = numerics.modulus
    on_u = at_w(u)
    add = modulus(at_w(u + v) - on_u - at_w(v))
    hom = modulus(at_w(u * a[:, None]) - numerics.product(np.conj(a), on_u))
    scale = np.maximum(1.0, modulus(on_u))
    return np.stack([add / scale, hom / scale], axis=-1)[:, None, :]


def _draw_gram_schmidt(run, first, stop):
    # each instance draws min(4, N) polynomials, one after another
    k = min(4, run.params.dim)
    return run.polys((stop - first) * k).reshape(stop - first, k, -1)


@_check("embedding-gram-schmidt", "embedding", tol=1e-8, count=20, grid_values=18,
        draw=_draw_gram_schmidt, basis="own")
def _chk_gram_schmidt(run, vecs):
    # one sample per orthogonalized vector: its B-norm defect, its H cosines
    # with the others and its dual pairings less the Kronecker delta, each
    # k x k table from one broadcast inner product
    basis, weights = run.basis(), run.weights
    modulus = numerics.modulus
    psis, representers = biorthonormalize(vecs, basis, weights)
    c, c_dual = analyze(psis, basis), analyze(representers, basis)
    h = coefficient_h_norm(c, weights)
    k = vecs.shape[-2]
    cosines = (modulus(coefficient_h_inner(c[:, :, None], c[:, None], weights))
               / np.maximum(h[:, :, None] * h[:, None], 1e-300))
    pairings = modulus(coefficient_h_inner(c[:, :, None], c_dual[:, None], weights) - np.eye(k))
    off = ~np.eye(k, dtype=bool)
    return np.concatenate([np.abs(lp_norm(psis, basis.p) - 1.0)[..., None],
                           cosines[:, off].reshape(len(vecs), k, k - 1), pairings], axis=-1)


# ---------------------------------------------------------------------------
# operator-algebra checks (adjoint suite)
# ---------------------------------------------------------------------------

_ADJOINT_DIMS = (4, 8, 16)


def _draw_algebra(run, first, stop):
    # instance i draws two operators and a scalar at N = _ADJOINT_DIMS[i % 3];
    # the chunk's one draw is cut into one stack per N by index arrays
    cycle = np.arange(first, stop) % len(_ADJOINT_DIMS)
    sizes = np.array([2 * (2 * n * n + 1) for n in _ADJOINT_DIMS])[cycle]
    x = run.rng.standard_normal(sizes.sum())
    ends = np.cumsum(sizes)
    stacks = []
    for j, n in enumerate(_ADJOINT_DIMS):
        at = np.flatnonzero(cycle == j)
        rows = x[(ends[at] - sizes[at])[:, None] + np.arange(2 * (2 * n * n + 1))]
        a, b, scalars = _complex_parts(rows, ((n, n), (n, n), ()))
        stacks.append((at, a / np.sqrt(n), b / np.sqrt(n), scalars))
    return stacks


@_check("adjoint-algebra", "adjoint", tol=1e-10, count=500, dims=_ADJOINT_DIMS,
        draw=_draw_algebra)
def _chk_adjoint_algebra(run, stacks):
    # one stack per N, its defects scattered back in index order
    defects = np.empty(sum(len(at) for at, *_ in stacks))
    for n, (at, a, b, scalars) in zip(_ADJOINT_DIMS, stacks):
        if len(at):
            w = dyadic_weights(n)
            defects[at] = adjoint_algebra_defect(BOperator(a, w), BOperator(b, w), scalars)
    return defects


def _draw_identity(run, first, stop):
    # a matrix and the coefficients of u and v, drawn as run.polys() draws them
    n = run.params.dim
    mats, cus, cvs = run.normals(stop - first, (n, n), (n,), (n,))
    return mats / np.sqrt(n), cus, cvs


# grid_values counts the grid functions alone; the operator bound counts the operators
@_check("adjoint-defining-identity", "adjoint", tol=1e-10, count=1000, grid_values=1,
        draw=_draw_identity, basis="own")
def _chk_defining_identity(run, x):
    mats, cus, cvs = x
    return adjoint_identity_defect(run.stacked(mats), cus, cvs, run.basis())


@_check("adjoint-positive-product", "adjoint", tol=1e-10, count=100, draw=_draw_matrices)
def _chk_positive_product(run, mats):
    a_op = run.stacked(mats)
    lam = numerics.general_eigenvalues((adjoint(a_op) @ a_op).matrix)
    scale = np.maximum(1.0, np.max(np.abs(lam), axis=-1))
    return np.stack([np.max(np.abs(lam.imag), axis=-1) / scale,
                     -np.min(lam.real, axis=-1) / scale], axis=-1)[:, None, :]


def _draw_self_conjugacy(run, first, stop):
    # even instances are naturally self-adjoint, odd ones general; both draw one N x N
    n = run.params.dim
    a = run.normals(stop - first, (n, n))[0]
    even = np.arange(first, stop) % 2 == 0
    mats = a / np.sqrt(n)
    mats[even] = from_h_matrix(a[even] + a[even].conj().swapaxes(-1, -2), run.weights).matrix
    return mats


@_check("self-conjugacy-equivalence", "adjoint", tol=0.0, count=400, draw=_draw_self_conjugacy)
def _chk_self_conjugacy(run, mats):
    a_op = run.stacked(mats)
    return self_conjugacy_check(a_op, (0.25, 0.75)) != is_naturally_selfadjoint(a_op, tol=1e-8)


def _draw_selfadjoints(run, first, stop):
    # coordinate matrices of naturally self-adjoint operators
    return from_h_matrix(run.hermitians(stop - first), run.weights).matrix


@_check("lax-spectrum-invariance", "adjoint", tol=1e-8, count=200, draw=_draw_selfadjoints)
def _chk_lax_spectrum(run, mats):
    return lax_check(run.stacked(mats))


@_check("lax-norm-identity", "adjoint", tol=1e-8, count=100, draw=_draw_matrices)
def _chk_lax_norm(run, mats):
    a_op = run.stacked(mats)
    na = h_opnorm(a_op)
    nprod = h_opnorm(adjoint(a_op) @ a_op)
    return np.abs(nprod - na**2) / np.maximum(1.0, na**2)


@_check("polar-reconstruction", "adjoint", tol=1e-9, count=50, draw=_draw_matrices)
def _chk_polar(run, mats):
    fro = numerics.frobenius_norm
    a_op = run.stacked(mats)
    u_op, t_op = polar_decompose(a_op)
    scale = np.maximum(fro(a_op.matrix), 1e-300)
    th = h_matrix(t_op)
    tscale = np.maximum(1.0, fro(th))
    uh = h_matrix(u_op)
    uh_t = uh.conj().swapaxes(-1, -2)
    return np.stack([fro((u_op @ t_op).matrix - a_op.matrix) / scale,
                     fro(th - th.conj().swapaxes(-1, -2)) / tscale,
                     -h_eigen(th).values[:, -1] / tscale,
                     fro(uh_t @ uh - np.eye(run.params.dim))], axis=-1)[:, None, :]


# a resolution holds a projection per eigenvalue, and its products as many
@_check("spectral-reconstruction", "adjoint", tol=1e-8, count=50, draw=_draw_selfadjoints,
        per_eigenvalue=True)
def _chk_spectral(run, mats):
    # one resolution of the chunk; an operator's one sample is the largest
    # Frobenius norm of its residuals: reconstruction (relative to the
    # operator's norm) and completeness, then for each projection P its
    # idempotence and self-adjointness and its products with the projections
    # after it.  A sum over the slot axis, which is not the innermost, adds
    # the N x N terms one after another, as sum() adds them, and an empty
    # slot's zeros add nothing.
    fro = numerics.frobenius_norm
    values, projections = spectral_decompose(run.stacked(mats))
    p = projections.matrix
    worst = np.maximum(fro(np.sum(values[..., None, None] * p, axis=1) - mats)
                       / np.maximum(fro(mats), 1e-300),
                       fro(np.sum(p, axis=1) - np.eye(run.params.dim)))
    worst = np.maximum(worst, np.max(fro(p @ p - p), axis=1))
    worst = np.maximum(worst, np.max(fro(adjoint(projections).matrix - p), axis=1))
    for i in range(p.shape[1] - 1):
        worst = np.maximum(worst, np.max(fro(p[:, i, None] @ p[:, i + 1:]), axis=1))
    return worst


def _draw_minmax(run, first, stop):
    # a matrix, then a seed per k: each instance is one call
    out = []
    for _ in range(first, stop):
        hermitian = run.hermitian()
        dim = len(hermitian)
        out.append((hermitian, [(k, run.seed()) for k in sorted({1, max(1, dim // 2), dim})]))
    return out


@_check("minmax-matches-direct", "adjoint", tol=1e-6, count=10, draw=_draw_minmax)
def _chk_minmax(run, xs):
    # the instances share N, hence their k; one min-max stack per k
    hermitians, seeded_ks = zip(*xs)
    a_op = from_h_matrix(np.stack(hermitians), run.weights)
    direct = h_eigen(h_matrix(a_op)).values
    scale = np.maximum(1.0, np.max(np.abs(direct), axis=-1))
    columns = []
    for j, (k, _) in enumerate(seeded_ks[0]):
        seeds = [pairs[j][1] for pairs in seeded_ks]
        estimate = minmax_eigenvalue(a_op, k, trials=4, seed=seeds)
        columns.append(np.abs(estimate - direct[:, k - 1]) / scale)
    return np.stack(columns, axis=-1)


@_check("lax-constant-khat", "adjoint", count=20,
        draw=lambda run, first, stop: [(run.hermitian(), run.seed()) for _ in range(first, stop)])
def _meas_khat(run, xs):
    hs, seeds = zip(*xs)
    p = run.extra["p"] = run.params.p
    return run.low("khat_min", lax_khat(from_h_matrix(np.stack(hs), run.weights), p, seed=seeds))


@_check("bnorm-adjoint-ratio", "adjoint", count=20,
        draw=lambda run, first, stop: [(run.matrix(), run.seed(), run.seed())
                                       for _ in range(first, stop)])
def _meas_bnorm_ratio(run, xs):
    mats, seeds, adjoint_seeds = zip(*xs)
    a_op = run.stacked(mats)
    p = run.extra["p"] = run.params.p
    na = b_opnorm_estimate(a_op, p, seed=seeds)
    nastar = b_opnorm_estimate(adjoint(a_op), p, seed=adjoint_seeds)
    return run.low("ratio_min", nastar / np.maximum(na, 1e-300))


# ---------------------------------------------------------------------------
# singular-value / trace-class checks (schatten suite)
# ---------------------------------------------------------------------------

@_check("schatten-two-path", "schatten", tol=1e-9, count=500,
        draw=lambda run, first, stop: (run.matrices(stop - first),
                                       np.arange(first, stop) % len(schatten.POWER_EXPONENTS)))
def _chk_two_path(run, x):
    # every order of every instance, then each instance's own order
    mats, orders = x
    paths = np.array(schatten.schatten_norm_paths(run.stacked(mats), schatten.POWER_EXPONENTS))
    bracket, mu = paths[orders, :, np.arange(len(mats))].T
    return np.abs(bracket - mu) / np.maximum(mu, 1e-300)


@_check("singular-value-paths", "schatten", tol=1e-10, count=200, draw=_draw_matrices)
def _chk_sv_paths(run, mats):
    _, gap, scale = schatten.singular_value_gap(run.stacked(mats))
    return gap / scale


def _draw_unitary_invariance(run, first, stop):
    # a matrix and two generators of unitaries
    n = run.params.dim
    mats, *gens = run.normals(stop - first, (n, n), (n, n), (n, n))
    return mats / np.sqrt(n), gens


@_check("schatten-unitary-invariance", "schatten", tol=1e-9, count=50,
        draw=_draw_unitary_invariance)
def _chk_unitary_invariance(run, x):
    mats, gens = x
    a_op = run.stacked(mats)
    u_op, v_op = (from_h_matrix(numerics.matrix_exp(g - g.conj().swapaxes(-1, -2)), a_op.weights)
                  for g in gens)
    bases = schatten.schatten_norm(a_op, schatten.POWER_EXPONENTS)
    moved = schatten.schatten_norm(u_op @ a_op @ v_op, schatten.POWER_EXPONENTS)
    return np.stack([np.abs(after - base) / np.maximum(base, 1e-300)
                     for base, after in zip(bases, moved)], axis=-1)


def _bound_excess(excess, size):
    """An excess over a bound of the given size, rescaled from the tolerance
    1e-9*(size+1) to a 1e-9 budget."""
    return excess * 1e-9 / np.maximum(1e-9 * (size + 1.0), 1e-300)


def _excesses(pairs) -> np.ndarray:
    """The rescaled excess of each (lhs, rhs) pair of lhs <= rhs (the last
    axis), negative where it holds."""
    pairs = np.asarray(pairs)
    return _bound_excess(pairs[..., 0] - pairs[..., 1], pairs[..., 1])


@_check("weyl-inequality", "schatten", tol=1e-9, count=500, draw=_draw_matrices)
def _chk_weyl(run, mats):
    return _excesses(schatten.weyl_sums(run.stacked(mats)))[:, None, :]


def _draw_horn(run, first, stop):
    n = run.params.dim
    return [m / np.sqrt(n) for m in run.normals(stop - first, (n, n), (n, n))]


@_check("horn-inequality", "schatten", tol=1e-9, count=500, draw=_draw_horn)
def _chk_horn(run, x):
    firsts, seconds = x
    return _excesses(schatten.horn_sums(run.stacked(firsts), run.stacked(seconds)))[:, None, :]


@_check("lidskii-trace", "schatten", tol=1e-9, count=500, draw=_draw_matrices)
def _chk_lidskii(run, mats):
    eigen_sum, trace = schatten.lidskii_sums(run.stacked(mats))
    return _bound_excess(numerics.modulus(eigen_sum - trace), numerics.modulus(trace))


# ---------------------------------------------------------------------------
# KS^2 checks (ks2 suite)
# ---------------------------------------------------------------------------


@_check("ks2-gram-psd", "ks2", tol=1e-10, count=20, grid_values=6,
        draw=lambda run, first, stop: run.steps(6 * (stop - first)).reshape(stop - first, 6, -1))
def _chk_gram_psd(run, stacks):
    rows = []
    for fs in stacks:
        vs = [run.converged(GridFunction(f))[0] for f in fs]
        g = np.array([[ks2.values_inner(a, b) for b in vs] for a in vs])
        scale = max(1.0, float(np.max(np.abs(g))))
        lam = numerics.hermitian_eigen((g + g.conj().T) / 2.0).values
        rows.append([(float(np.linalg.norm(g - g.conj().T)) / scale, -float(lam[-1]) / scale)])
    return rows


@_check("ks2-truncation-monotone", "ks2", tol=1e-12, count=50, grid_values=1, draw=_draw_steps)
def _chk_truncation(run, fs):
    ks = sorted({8, 16, 32, run.params.cubes})
    run.extra["K"] = ks[-1]
    rows = []
    for values in fs:
        f = GridFunction(values)
        v, k_eff = run.converged(f, ks[-1])
        norms = [ks2.values_norm(v[:k]) for k in ks]
        # Everything past K_eff is dropped, so the tail in effect is the one past it.
        run.tail("ks2-truncation-tail", ks2.tail_bound(f, k_eff))
        scale = max(norms[-1], 1e-300)
        rows.append([[(lo - hi) / scale for lo, hi in zip(norms, norms[1:])]])
    return rows


@_check("ks2-functional-contraction", "ks2", tol=1e-12, count=500, grid_values=1,
        draw=_draw_steps)
def _chk_contraction(run, fs):
    # |F_k(f)| <= ||f||_1 at k = 1, 2, 7, 19 (one functional_values call) and
    # at the run's K (a lone functional_Fk call: K reaches 1074); an entry of
    # functional_values is bit for bit the lone functional_Fk
    rows = []
    for values in fs:
        f = GridFunction(values)
        l1 = float(np.mean(np.abs(values)))
        first = ks2.functional_values(f, 19)
        rows.append([(abs(complex(v)) - l1) / max(l1, 1.0)
                     for v in (*first[[0, 1, 6, 18]], ks2.functional_Fk(f, run.params.cubes))])
    return rows


@_check("ks2-fundamentality", "ks2", tol=0.0, count=200, grid_values=1, draw=_draw_steps)
def _chk_fundamentality(run, fs):
    # A nonzero value among the first eight settles it; only an all-zero
    # prefix needs the rest.
    k_max = run.extra["K"] = 256
    return [all(float(np.max(np.abs(ks2.functional_values(GridFunction(values), k)))) == 0.0
                for k in (8, k_max))
            for values in fs]


@_check("ks2-embedding-bound", "ks2", tol=1e-9, count=50, grid_values=1, draw=_draw_steps)
def _chk_ks2_embedding(run, fs):
    # ||f||_1 <= ||f||_q on the unit interval for every q >= 1, so the q = 1 bound
    # already implies every finite q.
    qs = (1.0, 2.0, np.inf)
    run.extra["q_list"] = ",".join(f"{q:g}" for q in qs)
    rows = []
    for values in fs:
        f = GridFunction(values)
        norm = ks2.values_norm(run.converged(f)[0])
        rows.append(_excesses([(norm, b) for b in ks2.embedding_bounds(f, qs)]))
    return rows


_WEAK_M_MAX = 64


@_check("ks2-weak-strong-decay", "ks2", tol=0.2, samples=_WEAK_M_MAX)
def _chk_weak_strong(run, xs):
    # sin(2 pi m x) goes weakly to zero in L^2 without going strongly; under
    # the square-sum norm it decays outright.  The threshold 0.2 on the ratio
    # of the last norm to the first was fixed from a reference run at
    # m_max = 64, K = 256.
    resolution = max(run.params.grid, 1024)
    norms, k_eff = ks2.weak_strong_norms(_WEAK_M_MAX, max(run.params.cubes, 256),
                                         resolution=resolution)
    run.extra.update(m_max=_WEAK_M_MAX, resolution=resolution, K_eff=k_eff)
    return [norms[-1] / max(norms[0], 1e-300)]


# ---------------------------------------------------------------------------
# integral-operator checks (integral suite)
# ---------------------------------------------------------------------------


@_check("hilbert-square-identity", "integral", tol=1e-12, count=100, grid_values=5,
        draw=_draw_bandlimited)
def _chk_hilbert_square(run, f):
    twice = integrals.hilbert_multiplier(integrals.hilbert_multiplier(f))
    scale = np.maximum(1.0, np.max(np.abs(f), axis=-1))
    return np.max(np.abs(twice + f), axis=-1) / scale


@_check("hilbert-isometry", "integral", tol=1e-12, count=100, grid_values=4,
        draw=_draw_bandlimited)
def _chk_hilbert_isometry(run, f):
    hf = integrals.hilbert_multiplier(f)
    return np.abs(lp_norm(hf, 2) / lp_norm(f, 2) - 1.0)


@_check("hilbert-skew-adjoint", "integral", tol=1e-10, count=200, grid_values=8,
        draw=lambda run, first, stop: integrals.random_bandlimited(
            run.rng, run.params.grid, (stop - first, 2)))
def _chk_hilbert_skew(run, fg):
    # each instance's pair (f, g), transformed in one call
    hf, hg = np.moveaxis(integrals.hilbert_multiplier(fg), 1, 0)
    f, g = np.moveaxis(fg, 1, 0)
    return (numerics.modulus(pairing(hf, g) + pairing(f, hg))
            / np.maximum(lp_norm(f, 2) * lp_norm(g, 2), 1e-300))


def _pv_gap(mode: int, m: int, eps: float) -> float:
    f = integrals.signal_from_callable(lambda t: np.cos(2.0 * np.pi * mode * t), m)
    return float(np.max(np.abs(integrals.hilbert_multiplier(f) - integrals.hilbert_pv(f, eps))))


_PV_JOINT_M = (512, 1024, 2048, 4096)
_PV_FIXED_C = (64.0, 32.0, 16.0, 8.0)


@_check("hilbert-pv-convergence", "integral", tol=1e-2,
        samples=len(_PV_JOINT_M) + len(_PV_FIXED_C))
def _chk_pv_convergence(run, xs):
    # Two-part claim.  (a) Joint refinement (eps and 1/M halving together)
    # drives the truncated-kernel path onto the multiplier path.  (b) The
    # convergence order in eps is at least one; it is measured on a fixed
    # fine grid so the grid error (the -1 in the exact leading gap
    # 2k(2c-1)/M for eps = c/M) does not bias the estimate below one.
    mode = 3
    joint = [_pv_gap(mode, m, 8.0 / m) for m in _PV_JOINT_M]
    growth = max(b / a for a, b in zip(joint, joint[1:]))
    m_fixed = 4096
    fixed = [_pv_gap(mode, m_fixed, c / m_fixed) for c in _PV_FIXED_C]
    orders = [np.log2(a / b) for a, b in zip(fixed, fixed[1:])]
    run.extra.update(mode=mode, order_min=float(min(orders)))
    return [max(0.0, growth - 1.0, 1.0 - min(orders))]


# its transforms run at 2M points, two potentials an instance: 3 instances a
# chunk on the default grid, one at desk scale
@_check("riesz-symmetry", "integral", tol=1e-8, count=50, grid_values=10,
        draw=lambda run, first, stop: np.stack(run.normals(stop - first, (run.params.grid,),
                                                           (run.params.grid,))))
def _chk_riesz_symmetry(run, fg):
    # the pairs (f, g) as a (2, T, M) stack, both potentials in one call
    alpha = run.extra["alpha"] = run.params.alpha
    rf, rg = integrals.riesz_potential(fg, alpha)
    f, g = fg
    lhs = pairing(rf, g)
    modulus = numerics.modulus
    return modulus(lhs - pairing(f, rg)) / np.maximum(1.0, modulus(lhs))


@_check("riesz-positivity", "integral", tol=1e-8, count=100, grid_values=5,
        draw=lambda run, first, stop: run.rng.standard_normal((stop - first, run.params.grid))
        + 0.0j)
def _chk_riesz_positivity(run, f):
    alpha = run.extra["alpha"] = run.params.alpha
    return -pairing(integrals.riesz_potential(f, alpha), f).real


# counted at the run's grid, though it draws at min(grid, 512): at desk scale
# (grid 8192) it too takes one instance a chunk
@_check("hilbert-cp-constant", "integral", count=40, grid_values=4,
        draw=lambda run, first, stop: integrals.random_bandlimited(
            run.rng, min(run.params.grid, 512), (stop - first,)))
def _meas_cp(run, f):
    p = run.extra["p"] = run.params.p
    hf = integrals.hilbert_multiplier(f)
    return lp_norm(hf, p) / np.maximum(lp_norm(f, p), 1e-300)


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------


def list_checks(suite: str = "all") -> tuple[str, ...]:
    """Check names belonging to a suite, sorted; measured entries included."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}: choose from {', '.join(SUITE_NAMES)}")
    names = [name for name, check in _REGISTRY.items() if suite in ("all", check.suite)]
    return tuple(sorted(names))


def _run_block(check: _Check, run: _Run, block: int, basis: SchauderBasis | None) -> None:
    """Draw and measure block ``block`` of ``check`` a chunk at a time with
    its pass's ``basis`` (None in the pass of no basis), folding its values
    into ``run``'s worst value and sample count."""
    started = time.perf_counter()
    run.pass_basis = basis
    chunk = check.chunk(run.params)
    size = 1 if check.count is None else _count(run.params, check.count)
    begin, end = block * size, (block + 1) * size
    # a chunk ends at its block's end, so its instances share the block
    for first in range(begin, end, chunk):
        stop = min(first + chunk, end)
        xs = check.draw(run, first, stop)
        values = np.asarray(check.measure(run, xs), dtype=float)
        del xs  # the chunk's instances go before the next chunk is drawn
        run.samples += (stop - first) * (values.shape[1] if values.ndim > 1 else 1)
        if check.tol == 0.0:
            run.worst += values.sum()
        else:
            top = values.max(initial=0.0)
            run.worst = top if np.isnan(top) else max(run.worst, top)
    run.pass_basis = None  # so the pass's basis ends with its pass
    run.seconds += time.perf_counter() - started


def _result(name: str, check: _Check, run: _Run) -> CheckResult:
    """Judge a check's reduced values against its tolerance."""
    worst = run.worst
    extra = run.extra if check.tol is None else {**run.extra, "tol": check.tol}
    if np.isnan(worst):
        status = FAIL
    elif check.tol is None:
        status = MEASURED
    else:
        status = PASS if worst <= check.tol else FAIL
    return CheckResult(name, status, float(worst), check.samples or run.samples, extra,
                       run.seconds)


def run_suite(name: str, seed: int = 0, params: SuiteParams | None = None) -> VerificationReport:
    """Run every check of a suite with per-check seeded randomness: draw each
    check's instances in index order a chunk at a time (at most
    ``check.chunk(params)`` instances, inside one block), measure each chunk
    before drawing the next, reduce the values and compare the result with
    the check's tolerance.  One pass per exponent, P_SWEEP's in order and
    then the run's own where it is not among them, runs the blocks that
    read a basis at that p: block j of each "sweep" check in the pass of
    P_SWEEP[j], and each "own" check in the pass of the run's p.  A pass
    that runs a block builds its basis at the run's N when it starts, after
    the last pass's basis is dropped, so no two are alive at once; a last
    pass runs the checks that read no basis.  A check's run is released
    after its last block.  Each check's seconds, the sum of its blocks', go
    in its result's ``duration``, outside the canonical report; a build
    counts toward the report's ``duration`` alone.  The results are listed
    in name order."""
    if params is None:
        params = SuiteParams()
    start = time.perf_counter()
    report = VerificationReport(suite=name, seed=int(seed))
    names = list_checks(name)
    runs: dict[str, _Run] = {}
    for p in (*dict.fromkeys((*P_SWEEP, params.p)), None):
        blocks = [cname for cname in names if p in _REGISTRY[cname].passes(params)]
        basis = None  # the last pass's basis goes before this pass's is built
        if p is not None and blocks:
            basis = fourier_sbasis(params.dim, p, _resolution(params))
        for cname in blocks:
            check = _REGISTRY[cname]
            passes = check.passes(params)
            block = passes.index(p)
            if block == 0:
                runs[cname] = _Run(params, np.random.default_rng(check_seed(int(seed), cname)))
            run = runs[cname]
            _run_block(check, run, block, basis)
            if block == len(passes) - 1:
                del runs[cname]
                report.add(_result(cname, check, run))
                report.tail_bounds.update(run.tails)
    report.checks.sort(key=lambda c: c.name)
    report.duration = time.perf_counter() - start
    return report
