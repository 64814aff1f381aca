"""A Hilbert-type norm on integrable functions built from countably many
averaging functionals.

Cubes are enumerated by a fixed zig-zag pairing of (scale, center-index);
centers walk a documented enumeration of the dyadic rationals of the unit
interval or the unit square, and the cube at scale l has diagonal 2^{-l}.
The k-th cube in dimension n is the pure function ``cube(k, n)``.  Grid
functions live on the unit interval, so the functionals use the cubes of
dimension 1; those of the unit square feed the audit table ``cube_rows``.
The k-th functional integrates its argument over the part of the k-th
cube inside the unit interval (exact per-cell interval intersection,
so aligned step functions evaluate exactly), and the inner product is the
2^{-k}-weighted square sum of functional values.
Oscillating sequences that merely go weakly to zero in L^2 have norms
here that genuinely decay, which is the point of the construction.

Summation invariant: F_k(f) is a sum of the products f_j w_j, w_j
being cell j's overlap with cube k, taken over the cells the cube meets
only.  A cell inside the cube overlaps it by its full width, so
those products are one slice of the row f * (e_{j+1} - e_j), summed by one
``np.add.reduceat`` segment; the cube's two end cells are added after it,
with their overlaps from the dense min/max formula.  Each product has the
bits of the dense row f * w_k over all M cells, and the sum differs from
that row's sum only by the order of its additions: both lie within
gamma_M sum_j |f_j w_j| of the exact integral.  Each segment is reduced on
its own, so a value does not depend on which other cubes share the call,
and ``functional_Fk(f, k)`` is bit for bit entry k - 1 of
``functional_values``.  A cube of scale l meets about 2^{-l} M + 2 cells,
so K functionals read O(M + sum_k 2^{-l_k} M) cells instead of K M.
Prefix sums would subtract large partial sums and lose the small ones.
Each function's K-vector is computed once; pairings and norms at a smaller
truncation use a prefix slice of it (``values_inner``, ``values_norm``).

Effective truncation: functional k carries weight 2^{-k} and |F_k(f)| is at
most ||f||_1, so the mass of the norm square beyond k is at most
``tail_bound(f, k)``.  The first k where that bound is below eps/2 of the
weighted partial sum is the function's effective truncation K_eff: past it
no functional can move a float64 norm.  ``converged_values`` evaluates
doubling prefixes (128, 256, ... up to K) until one contains K_eff and
returns the K-vector with the entries past K_eff set to 0.  A weighted sum
over that vector has the same length, hence numpy's pairwise summation adds
it in the same tree as the full vector, and adding an exact zero leaves a
partial sum as it was.  In a pairing of f and g the terms dropped past the
smaller truncation k come to at most sqrt(tail_bound(f, k) tail_bound(g, k))
= 2^{-k} ||f||_1 ||g||_1, of order eps times the pairing's scale.

The containment bounds (``embedding_bounds``) and the weak-to-strong norms
(``weak_strong_norms``) are returned as numbers; the suites judge them.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .embedding import dyadic_weights
from .spaces import GridFunction, from_callable, lp_norm

# The first eight (scale l, center index i) pairs, in enumeration order.
PAIRING_PREFIX = ((1, 1), (2, 1), (1, 2), (1, 3), (2, 2), (3, 1), (3, 2), (2, 3))


def _positive_int(name: str, value) -> int:
    """``value`` as an int; a non-integer raises TypeError, one below 1 ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def _classic_pair(c: int) -> tuple[int, int]:
    """Anti-diagonal serpentine: diagonal s = l + i walked with l
    descending for odd s and ascending for even s.  Diagonal s starts at
    index 1 + (s-2)(s-1)/2, so s is the largest integer with that start <= c."""
    s = (math.isqrt(8 * c - 7) + 3) // 2
    o = c - 1 - (s - 2) * (s - 1) // 2
    if s % 2 == 1:
        return s - 1 - o, 1 + o
    return 1 + o, s - 1 - o


def pairing_order(k: int) -> tuple[int, int]:
    """The (scale, center-index) pair enumerated at global index k >= 1.

    The serpentine diagonal walk is adjusted at indices 7..9 so the first
    eight pairs reproduce the fixed prefix: (4,1) is deferred to k = 9
    and the two pairs after it move up one slot.  Beyond k = 10 the walk
    is the plain serpentine, so the map stays a bijection.
    """
    k = _positive_int("cube index", k)
    if k == 7:
        return _classic_pair(8)
    if k == 8:
        return _classic_pair(9)
    if k == 9:
        return _classic_pair(7)
    return _classic_pair(k)


def _dyadic_unit(i: int) -> float:
    """The i-th dyadic rational of [0, 1]: endpoints first, then each
    level's new midpoints (2j-1)/2^L in ascending order."""
    if i < 1:
        raise ValueError(f"center index must be >= 1, got {i}")
    if i == 1:
        return 0.0
    if i == 2:
        return 1.0
    # level L holds indices 2^(L-1) + 2 .. 2^L + 1
    level = (i - 2).bit_length()
    j = i - (2 ** (level - 1) + 1)
    return (2 * j - 1) / 2.0**level


def rational_center(n: int, i: int) -> tuple[float, ...]:
    """The i-th point of the fixed dyadic enumeration of the unit interval
    (n = 1) or the unit square (n = 2).

    For n = 2 the single index is unfolded through pairing_order and each
    factor walks the 1-D enumeration, so distinctness is inherited.
    """
    if n == 1:
        return (_dyadic_unit(i),)
    if n == 2:
        a, b = pairing_order(i)
        return (_dyadic_unit(a), _dyadic_unit(b))
    raise ValueError("cubes are enumerated in dimensions 1 and 2 only")


class Cube(NamedTuple):
    """Closed cube with diagonal 2^{-l}: side = 2^{-l}/sqrt(n)."""

    center: tuple[float, ...]
    side: float
    l: int


@functools.lru_cache(maxsize=None, typed=True)
def cube(k: int, n: int) -> Cube:
    """The k-th cube of the enumeration over the unit interval (n = 1) or
    the unit square (n = 2): the scale l and center index i of
    ``pairing_order(k)`` give center ``rational_center(n, i)`` and side
    2^{-l}/sqrt(n).  A pure function of (k, n), computed once per pair."""
    l, i = pairing_order(k)
    n = _positive_int("dim", n)
    return Cube(center=rational_center(n, i), side=2.0**-l / math.sqrt(n), l=l)


class _CellLayout(NamedTuple):
    """Where each cube of one call meets a grid of M cells.

    Cube k spans [a, b]; its interior cells (both edges in [a, b]) run
    from the first edge >= a to the last edge <= b and overlap it by their
    full width.  The two cells holding a and b (one cell when no edge lies
    in the cube) are its end cells.
    """

    widths: np.ndarray  # (M,) e_{j+1} - e_j, an interior cell's overlap
    order: np.ndarray  # the cubes sorted by their first interior cell
    bounds: np.ndarray  # (2K,) start, stop of each sorted cube's interior cells
    ends: np.ndarray  # (2, K) the left and right end cells, 0 where dropped
    end_w: np.ndarray  # (2, K) their overlaps with the cube, 0 where dropped


@functools.lru_cache(maxsize=64)
def _cell_layout(resolution: int, ks: tuple[int, ...]) -> _CellLayout:
    """The layout of the 1-D cubes ``ks`` on a grid of ``resolution`` cells.

    It depends on the grid and the cubes alone and takes several times as
    long to build as a one-cube sum, so it is built once per pair and its
    arrays are read-only."""
    edges = np.arange(resolution + 1) / resolution
    center = np.array([cube(k, 1).center[0] for k in ks])
    half = np.array([cube(k, 1).side for k in ks]) / 2.0
    a, b = center - half, center + half
    start = np.searchsorted(edges, a, side="left")
    stop = np.searchsorted(edges, b, side="right") - 1
    # An end past either end of the grid is dropped, and so is the right
    # end when no edge lies in the cube: its one cell is the left end.
    kept = np.stack([start >= 1, (stop <= resolution - 1) & (stop >= start)])
    ends = np.where(kept, np.stack([start - 1, stop]), 0)
    # The dense overlap formula, whose clip at 0 never acts on an end cell.
    end_w = np.minimum(edges[ends + 1], b) - np.maximum(edges[ends], a)
    end_w = np.where(kept, end_w, 0.0)
    # An empty interior points at the zero cell appended past the grid.
    empty = stop <= start
    start[empty] = stop[empty] = resolution
    order = np.argsort(start, kind="stable")
    bounds = np.stack([start[order], stop[order]], axis=1).ravel()
    layout = _CellLayout(np.diff(edges), order, bounds, ends, end_w)
    for array in layout:
        array.flags.writeable = False
    return layout


def _integrals(f: GridFunction, ks: tuple[int, ...]) -> np.ndarray:
    """F_k(f) for each cube index k in ``ks``: each cube's interior cells
    summed as one slice of f * widths, plus its two end cells."""
    lay = _cell_layout(f.resolution, ks)
    g = np.empty(f.resolution + 1, dtype=np.complex128)
    np.multiply(f.values, lay.widths, out=g[:-1])
    g[-1] = 0.0
    # Sorted starts keep the sums reduceat takes between slices to one
    # pass over the grid in all.
    out = np.empty(len(ks), dtype=np.complex128)
    out[lay.order] = np.add.reduceat(g, lay.bounds)[::2]
    tips = f.values[lay.ends] * lay.end_w
    out += tips[0]
    out += tips[1]
    return out


def functional_Fk(f: GridFunction, k: int) -> complex:
    """Integral of f over the part of the k-th cube inside the unit
    interval: bit for bit entry k - 1 of ``functional_values``."""
    return complex(_integrals(f, (_positive_int("cube index", k),))[0])


def functional_values(f: GridFunction, K: int) -> np.ndarray:
    """The vector (F_1(f), ..., F_K(f)).

    Each entry sums only the cells its cube meets, in the same order as a
    lone ``functional_Fk`` call (see the module docstring).
    """
    K = _positive_int("truncation", K)
    return _integrals(f, tuple(range(1, K + 1)))


# The first prefix of functionals ``converged_values`` evaluates; each
# further prefix doubles it, up to K.
_FIRST_PREFIX = 128
_HALF_EPS = np.finfo(float).eps / 2.0


def converged_values(f: GridFunction, K: int) -> tuple[np.ndarray, int]:
    """The vector (F_1(f), ..., F_K(f)) cut at the effective truncation
    K_eff, and K_eff.

    K_eff is the first k with ``tail_bound(f, k)`` <= eps/2 times
    sum_{j<=k} 2^{-j} |F_j(f)|^2, or K when no k <= K qualifies.  Prefixes
    of 128, 256, ... functionals (at most K) are evaluated through
    ``functional_values`` until one contains K_eff; the entries up to K_eff
    are bitwise those of ``functional_values(f, K)``, and the ones past it
    are 0 (see the module docstring).
    """
    K = _positive_int("truncation", K)
    l1_square = float(lp_norm(f.values, 1)) ** 2
    n = min(_FIRST_PREFIX, K)
    while True:
        v = functional_values(f, n)
        weights = dyadic_weights(n)
        partial = np.cumsum(weights * np.abs(v) ** 2)
        held = np.flatnonzero(weights * l1_square <= _HALF_EPS * partial)
        if held.size:
            k_eff = int(held[0]) + 1
            out = np.zeros(K, dtype=np.complex128)
            out[:k_eff] = v[:k_eff]
            return out, k_eff
        if n == K:
            return v, K
        n = min(2 * n, K)


def values_inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Weighted square-sum pairing sum_k 2^{-k} u_k conj(v_k) of two
    functional-value vectors; prefix slices give smaller truncations."""
    if np.shape(u) != np.shape(v):
        raise ValueError(f"value vectors differ in shape: {np.shape(u)} vs {np.shape(v)}")
    return complex(np.sum(dyadic_weights(len(u)) * u * np.conj(v)))


def values_norm(v: np.ndarray) -> float:
    """The norm whose square is values_inner(v, v)."""
    return math.sqrt(max(values_inner(v, v).real, 0.0))


# no check calls it; perfbench/workloads.py NAMED_FUNCTIONS traces it by name
def ks2_inner(f: GridFunction, g: GridFunction, K: int) -> complex:
    """Weighted square-sum pairing sum_k 2^{-k} F_k(f) conj(F_k(g))."""
    if f.values.shape != g.values.shape:
        raise ValueError(f"grid mismatch: {f.values.shape} samples against {g.values.shape}")
    return values_inner(converged_values(f, K)[0], converged_values(g, K)[0])


def tail_bound(f: GridFunction, K: int) -> float:
    """Bound on the norm-square mass beyond the truncation: every
    functional is bounded by the L^1 norm and the weights sum to 2^{-K}."""
    return 2.0 ** -_positive_int("truncation", K) * float(lp_norm(f.values, 1)) ** 2


def embedding_bounds(f: GridFunction, q: float | Sequence[float]) -> list[float]:
    """The containment bounds on the square-sum norm of f, one per exponent
    in ``q`` (one exponent or a sequence): the L^q norm for finite q, and
    half the sup norm for q = inf."""
    qs = [float(x) for x in np.atleast_1d(q)]
    for x in qs:
        if not x >= 1.0:
            raise ValueError(f"q must lie in [1, inf], got {x}")
    return [float(lp_norm(f.values, x)) * (0.5 if x == np.inf else 1.0) for x in qs]


def weak_strong_norms(m_max: int, K: int, resolution: int = 4096) -> tuple[list[float], int]:
    """The square-sum norms of sin(2 pi m x), m = 1..m_max, and the largest
    effective truncation among them.

    The sequence goes weakly to zero in L^2 without going strongly; under
    this norm it decays outright.
    """
    m_max = _positive_int("m_max", m_max)
    resolution = _positive_int("resolution", resolution)
    norms, k_max = [], 1
    for m in range(1, m_max + 1):
        f = from_callable(lambda t, m=m: np.sin(2.0 * np.pi * m * t), resolution)
        v, k_eff = converged_values(f, K)
        norms.append(values_norm(v))
        k_max = max(k_max, k_eff)
    return norms, k_max


def cube_rows(n: int, count: int) -> tuple[list[str], list[list]]:
    """Header and rows for an audit dump of the first ``count`` cubes in
    dimension n."""
    count = _positive_int("count", count)
    cubes = [cube(k, n) for k in range(1, count + 1)]
    header = ["k", "l", "i", *[f"center{ax}" for ax in range(n)], "side"]
    return header, [[k, c.l, pairing_order(k)[1], *[repr(float(x)) for x in c.center],
                     repr(float(c.side))] for k, c in enumerate(cubes, 1)]
