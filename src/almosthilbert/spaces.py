"""Grid-sampled function spaces: L^p norms, the duality map, and the
trigonometric Schauder basis.

A GridFunction samples a complex function at cell midpoints of a uniform
grid over a box in dimension 1 or 2.  All integrals are composite-midpoint
quadrature, which is exact for step functions aligned with the grid and
spectrally accurate for smooth periodic integrands.

The duality bracket ``pairing(f, g)`` conjugates its *second* argument;
a dual functional with representer g acts on u as ``pairing(u, g)``, which
keeps the action linear in u.  Every module follows this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _normalize_box(box) -> tuple[tuple[float, float], ...]:
    arr = np.asarray(box, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("box must be (lo, hi) or a sequence of per-axis (lo, hi)")
    out = tuple((float(lo), float(hi)) for lo, hi in arr)
    for lo, hi in out:
        if not hi > lo:
            raise ValueError("box must have positive volume")
    return out


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples at the cell midpoints of a uniform grid over a box."""

    box: tuple[tuple[float, float], ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "box", _normalize_box(self.box))
        vals = np.asarray(self.values, dtype=np.complex128)
        dim = len(self.box)
        if dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if vals.ndim != dim:
            raise ValueError(f"samples must be {dim}-D for a {dim}-D box")
        res = vals.shape[0]
        if vals.shape != (res,) * dim or res < 1:
            raise ValueError("samples must form a square grid, one axis per box axis")
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def resolution(self) -> int:
        return self.values.shape[0]

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / self.resolution for lo, hi in self.box)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def midpoints(self, axis: int = 0) -> np.ndarray:
        lo, hi = self.box[axis]
        h = (hi - lo) / self.resolution
        return lo + h * (np.arange(self.resolution) + 0.5)

    def _require_same_grid(self, other: "GridFunction"):
        if self.box != other.box or self.values.shape != other.values.shape:
            raise ValueError("grid mismatch: box and resolution must agree")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_grid(other)
        return GridFunction(self.box, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_grid(other)
        return GridFunction(self.box, self.values - other.values)

    def __mul__(self, scalar) -> "GridFunction":
        return GridFunction(self.box, self.values * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.box, -self.values)


def from_callable(fn, box, resolution: int) -> GridFunction:
    """Sample ``fn`` at cell midpoints.  2-D callables receive broadcastable
    coordinate arrays (x along axis 0, y along axis 1)."""
    box = _normalize_box(box)
    dim = len(box)
    axes = []
    for lo, hi in box:
        h = (hi - lo) / resolution
        axes.append(lo + h * (np.arange(resolution) + 0.5))
    if dim == 1:
        vals = np.asarray(fn(axes[0]), dtype=np.complex128)
    else:
        vals = np.asarray(fn(axes[0][:, None], axes[1][None, :]), dtype=np.complex128)
    vals = np.broadcast_to(vals, (resolution,) * dim).copy()
    return GridFunction(box, vals)


def zeros(box, resolution: int) -> GridFunction:
    box = _normalize_box(box)
    return GridFunction(box, np.zeros((resolution,) * len(box), dtype=np.complex128))


def lp_norm(f: GridFunction, p: float) -> float:
    """Composite-midpoint quadrature of (integral |f|^p)^(1/p); sup of samples for p = inf."""
    a = np.abs(f.values)
    if p == np.inf:
        return float(a.max()) if a.size else 0.0
    if p < 1:
        raise ValueError("p must be >= 1 or inf")
    return float((np.sum(a**p) * f.cell_volume) ** (1.0 / p))


def pairing(f: GridFunction, g: GridFunction) -> complex:
    """Duality bracket <f, g> = integral of f * conj(g)."""
    f._require_same_grid(g)
    return complex(np.sum(f.values * np.conj(g.values)) * f.cell_volume)


def duality_map(u: GridFunction, p: float) -> GridFunction:
    """The L^p duality map J(u) = ||u||_p^(2-p) |u|^(p-2) u.

    Satisfies <u, J(u)> = ||u||_p^2 = ||J(u)||_q^2 with q = p/(p-1).
    J(0) := 0, the continuous extension of the formula.
    """
    if not 1.0 < p < np.inf:
        raise ValueError("duality map requires 1 < p < inf")
    norm = lp_norm(u, p)
    if norm == 0.0:
        return GridFunction(u.box, np.zeros_like(u.values))
    a = np.abs(u.values)
    # |u|^(p-2) u written as |u|^(p-1) sgn(u) to stay finite at zeros for p < 2
    sgn = np.where(a > 0, u.values / np.where(a > 0, a, 1.0), 0.0)
    return GridFunction(u.box, norm ** (2.0 - p) * a ** (p - 1.0) * sgn)


@dataclass(frozen=True, eq=False)
class SchauderBasis:
    """N members on M cells of a 1-D box as two C-contiguous complex (N, M)
    matrices: row n of ``synthesis`` is E_n, row n of ``analysis`` is the
    conjugated representer of E_n*, and analysis @ synthesis.T * cell_volume
    = I at the working resolution."""

    box: tuple[tuple[float, float], ...]
    synthesis: np.ndarray
    analysis: np.ndarray
    p: float

    def __post_init__(self):
        object.__setattr__(self, "box", _normalize_box(self.box))
        for name in ("synthesis", "analysis"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.complex128)
            object.__setattr__(self, name, arr)
        s, a = self.synthesis, self.analysis
        if len(self.box) != 1 or s.ndim != 2 or s.shape != a.shape or not s.size:
            raise ValueError("synthesis and analysis must be nonempty (N, M) arrays of one shape, "
                             "over a 1-D box")

    def __len__(self) -> int:
        return self.synthesis.shape[0]

    def member(self, n: int) -> GridFunction:
        """E_n, over a view of its synthesis row."""
        return GridFunction(self.box, self.synthesis[n])

    @property
    def grid(self) -> GridFunction:
        return self.member(0)


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
    t = (np.arange(resolution) + 0.5) / resolution
    box = ((0.0, 1.0),)
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
        raw = GridFunction(box, g)
        member = (1.0 / lp_norm(raw, p)) * raw
        scale = 1.0 / np.real(pairing(member, raw))
        synthesis[n] = member.values
        np.conj((scale * raw).values, out=analysis[n])
    # read-only, so one basis can be shared by every caller
    synthesis.flags.writeable = analysis.flags.writeable = False
    return SchauderBasis(box=box, synthesis=synthesis, analysis=analysis, p=p)


def coefficients(u: GridFunction, basis: SchauderBasis) -> np.ndarray:
    """Coefficient vector (<E_n*, u>)_n, one product with the analysis matrix."""
    if u.box != basis.box or u.values.shape != basis.analysis.shape[1:]:
        raise ValueError("grid mismatch: box and resolution must agree")
    return basis.analysis @ u.values * u.cell_volume


def reconstruct(coeffs, basis: SchauderBasis) -> GridFunction:
    """Synthesize sum_n c_n E_n on the basis grid."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.shape != (len(basis),):
        raise ValueError(f"expected {len(basis)} coefficients, got shape {c.shape}")
    return GridFunction(basis.box, c @ basis.synthesis)
