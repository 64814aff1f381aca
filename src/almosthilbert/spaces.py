"""Grid-sampled function spaces: L^p norms, the duality map, and the
trigonometric Schauder basis.

Grid values sample a complex function at the cell midpoints of a uniform
grid over the unit interval, the one domain of every function here; every
kernel takes the rows of an array, the grid on the last axis, and treats
each row bit for bit as it would alone.  All integrals are
composite-midpoint quadrature, which is exact for step functions aligned
with the grid and spectrally accurate for smooth periodic integrands.

The duality bracket ``pairing(f, g)`` conjugates its *second* argument;
a dual functional with representer g acts on u as ``pairing(u, g)``, which
keeps the action linear in u.  Every module follows this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def midpoints(resolution: int) -> np.ndarray:
    """The cell midpoints (k + 1/2) / M, k < M, of M cells on the unit interval."""
    return (np.arange(resolution) + 0.5) / resolution


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples at the cell midpoints of a uniform grid over the unit
    interval: a nonempty 1-D array.  A container with no arithmetic; compute
    on ``values``.  It stays where perfbench/tracer.py counts cells by
    ``.values`` (the ks2 functionals and ``coefficients``) and in what feeds
    or reads those; every other kernel takes arrays."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or not vals.size:
            raise ValueError(f"samples must form a nonempty 1-D array, got shape {vals.shape}")
        object.__setattr__(self, "values", vals)

    @property
    def resolution(self) -> int:
        return self.values.shape[0]


def from_callable(fn, resolution: int) -> GridFunction:
    """Sample ``fn`` at the cell midpoints of the unit interval."""
    vals = np.asarray(fn(midpoints(resolution)), dtype=np.complex128)
    return GridFunction(np.broadcast_to(vals, (resolution,)).copy())


def lp_norm(values: np.ndarray, p: float) -> np.ndarray:
    """The p-norm of each row of grid values, the grid on the last axis:
    composite-midpoint quadrature of (integral |f|^p)^(1/p), the sup of the
    samples for p = inf.  The norm of a row is bit for bit the norm of that
    row alone.  The root is ``np.float_power``, which rounds as the scalar
    power does; numpy's vectorised ``**`` on an array can round otherwise."""
    a = np.abs(values)
    if p == np.inf:
        return a.max(axis=-1)
    if p < 1:
        raise ValueError("p must be >= 1 or inf")
    return np.float_power(np.sum(a**p, axis=-1) * (1.0 / values.shape[-1]), 1.0 / p)


def pairing(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The duality bracket <f, g> = integral of f * conj(g) of each row of f
    with the same row of g, two stacks of grid values of one shape, the grid
    on the last axis; a row's bracket is bit for bit that row's alone."""
    if f.shape != g.shape:
        raise ValueError(f"grid mismatch: {f.shape} samples against {g.shape}")
    # np.multiply: from 256 KiB numpy elides f * conj(g) to conj(g) * f, which rounds otherwise
    return np.sum(np.multiply(f, np.conj(g)), axis=-1) * (1.0 / f.shape[-1])


def duality_map(values: np.ndarray, p: float) -> np.ndarray:
    """The L^p duality map J(u) = ||u||_p^(2-p) |u|^(p-2) u of each row of
    grid values, the grid on the last axis, bit for bit as the row alone.

    Satisfies <u, J(u)> = ||u||_p^2 = ||J(u)||_q^2 with q = p/(p-1).
    J(0) := 0, the continuous extension of the formula.
    """
    if not 1.0 < p < np.inf:
        raise ValueError("duality map requires 1 < p < inf")
    norm = lp_norm(values, p)[..., None]
    zero = norm == 0.0
    a = np.abs(values)
    # |u|^(p-2) u written as |u|^(p-1) sgn(u) to stay finite at zeros for p < 2
    sgn = np.where(a > 0, values / np.where(a > 0, a, 1.0), 0.0)
    ju = np.float_power(np.where(zero, 1.0, norm), 2.0 - p) * a ** (p - 1.0) * sgn
    return np.where(zero, 0.0, ju)


@dataclass(frozen=True, eq=False)
class SchauderBasis:
    """N members on M cells of the unit interval as two C-contiguous complex
    (N, M) matrices: row n of ``synthesis`` is E_n, row n of ``analysis`` is the
    conjugated representer of E_n*, and analysis @ synthesis.T / M = I at the
    working resolution.  A container: it validates and holds the arrays."""

    synthesis: np.ndarray
    analysis: np.ndarray
    p: float

    def __post_init__(self):
        for name in ("synthesis", "analysis"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.complex128)
            object.__setattr__(self, name, arr)
        s, a = self.synthesis, self.analysis
        if s.ndim != 2 or s.shape != a.shape or not s.size:
            raise ValueError("synthesis and analysis must be nonempty (N, M) arrays of one shape")

    def __len__(self) -> int:
        return self.synthesis.shape[0]


def fourier_sbasis(N: int, p: float, resolution: int) -> SchauderBasis:
    """First N members of {1, cos 2*pi*t, sin 2*pi*t, cos 4*pi*t, ...} on [0,1],
    rescaled to unit p-norm, with duals rescaled for biorthonormality.

    Requires resolution >= 8*N so the products of any two members are
    alias-free under midpoint quadrature (discrete orthogonality is then
    exact to rounding).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if resolution < 8 * N:
        raise ValueError(f"resolution {resolution} too coarse for N={N}: need >= {8 * N}")
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, inf)")
    t = midpoints(resolution)
    synthesis = np.empty((N, resolution), dtype=np.complex128)
    analysis = np.empty((N, resolution), dtype=np.complex128)
    for n in range(N):
        freq = (n + 1) // 2
        if n == 0:
            g = np.ones(resolution, dtype=np.complex128)
        elif n % 2 == 1:
            g = np.cos(2.0 * np.pi * freq * t).astype(np.complex128)
        else:
            g = np.sin(2.0 * np.pi * freq * t).astype(np.complex128)
        member = g * complex(1.0 / float(lp_norm(g, p)))
        scale = 1.0 / np.real(pairing(member, g))
        synthesis[n] = member
        np.conj(g * complex(scale), out=analysis[n])
    # read-only, so one basis can be shared by every caller
    synthesis.flags.writeable = analysis.flags.writeable = False
    return SchauderBasis(synthesis=synthesis, analysis=analysis, p=p)


def analyze(values: np.ndarray, basis: SchauderBasis) -> np.ndarray:
    """The coefficients (<E_n*, u>)_n of grid values u, the grid on the last
    axis: one analysis matrix-vector product per function of a stack."""
    return (basis.analysis @ values[..., None])[..., 0] * (1.0 / values.shape[-1])


def synthesize(coeffs: np.ndarray, basis: SchauderBasis) -> np.ndarray:
    """The grid values of sum_n c_n E_n, the coefficients on the last axis:
    one vector-matrix product with the synthesis matrix per row of a stack."""
    return (coeffs[..., None, :] @ basis.synthesis)[..., 0, :]


def coefficients(u: GridFunction, basis: SchauderBasis) -> np.ndarray:
    """Coefficient vector (<E_n*, u>)_n, one product with the analysis matrix."""
    if u.values.shape != basis.analysis.shape[1:]:
        raise ValueError(f"grid mismatch: {u.values.shape} samples against a basis "
                         f"on {basis.analysis.shape[1]} cells")
    return analyze(u.values, basis)


def reconstruct(coeffs, basis: SchauderBasis) -> GridFunction:
    """Synthesize sum_n c_n E_n on the basis grid."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.shape != (len(basis),):
        raise ValueError(f"expected {len(basis)} coefficients, got shape {c.shape}")
    return GridFunction(synthesize(c, basis))
