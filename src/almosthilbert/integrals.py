"""Singular convolution operators in one dimension.

Periodic model: a signal is a GridFunction on the unit interval [0, 1)
with M uniform samples, M a power of two.  It carries a Hilbert transform
in two forms: the exact frequency multiplier -i sgn(k), and the truncated
principal-value quadrature against the periodized kernel cot(pi u) (the
period-1 sum of 1/(pi u)), with the band |x - y| < eps excluded.

Line model: the fractional integral of order alpha on the unit interval,
with the |x - y|^{alpha-1} kernel integrated in closed form over every
cell (power-law antiderivative), which keeps full quadrature order at
the diagonal and makes the kernel matrix exactly symmetric.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .spaces import GridFunction


def _signal_size(v: np.ndarray) -> int:
    """Sample count M of periodic signals ``v``, the samples on the last
    axis: M a power of two >= 4, every sample finite."""
    m = v.shape[-1]
    if m < 4 or m & (m - 1) != 0:
        raise ValueError(f"sample count must be a power of two >= 4, got {m}")
    if not np.all(np.isfinite(v.view(np.float64))):
        raise ValueError("samples must be finite")
    return m


def signal_from_callable(fn, m: int) -> GridFunction:
    """Sample ``fn`` at the M points j/M of the period-1 circle.

    The samples sit at the left cell edges, not at the GridFunction
    midpoints.  Every operation on a signal (the transforms, lp_norm,
    pairing) is translation-invariant, so the half-cell offset never enters.
    """
    t = np.arange(m) / m
    return GridFunction(np.asarray(fn(t), dtype=np.complex128))


def random_bandlimited_rows(rng, m: int, shape: tuple[int, ...] = ()) -> np.ndarray:
    """An array of ``shape`` random mean-zero signals, the samples on a last
    axis of length m >= 4, each with spectrum in modes 1..kmax (both signs),
    kmax = max(1, m // 8); the zero and Nyquist modes stay empty.  One
    Generator call draws them all: signal j is bit for bit the j-th of as
    many draws of shape () in C order."""
    kmax = max(1, m // 8)
    if not 1 <= kmax < m // 2:
        raise ValueError(f"signal length must be >= 4, got {m}")
    # each signal's real then imaginary parts of modes +k, then of modes -k
    x = rng.standard_normal((*shape, 4, kmax))
    spec = np.zeros((*shape, m), dtype=np.complex128)
    ks = np.arange(1, kmax + 1)
    spec[..., ks] = x[..., 0, :] + 1j * x[..., 1, :]
    spec[..., m - ks] = x[..., 2, :] + 1j * x[..., 3, :]
    return np.fft.ifft(spec)


def hilbert_multiplier_rows(values: np.ndarray) -> np.ndarray:
    """``hilbert_multiplier`` of each row of signal samples, the samples on
    the last axis, bit for bit as the row alone."""
    m = _signal_size(values)
    mult = np.concatenate([[0.0], np.full(m // 2 - 1, -1j), [0.0],
                           np.full(m // 2 - 1, 1j)])
    return np.fft.ifft(mult * np.fft.fft(values))


def hilbert_multiplier(f: GridFunction) -> GridFunction:
    """Frequency-side transform: multiply mode k by -i sgn(k).

    The zero mode is annihilated and so is the Nyquist mode, where the
    sign has no meaning; on the remaining modes this is a unitary map,
    hence an exact isometry on mean-zero Nyquist-free signals.
    """
    return GridFunction(hilbert_multiplier_rows(f.values))


def hilbert_pv(f: GridFunction, eps: float) -> GridFunction:
    """Principal-value form of the transform: quadrature against the
    periodized kernel cot(pi(x - y)), written sgn(x - y) |cot(pi(x - y))|,
    over the sample points y with periodic distance |x - y| >= eps."""
    m = _signal_size(f.values)
    if eps < 1.0 / m:
        raise ValueError(f"truncation eps={eps} lies below the grid spacing {1.0 / m}")
    u = np.arange(m) / m
    u = np.where(u > 0.5, u - 1.0, u)
    kern = np.zeros(m, dtype=np.complex128)
    mask = np.abs(u) >= eps
    um = u[mask]
    kern[mask] = np.where(um > 0, 1.0, -1.0) * np.abs(1.0 / np.tan(np.pi * um))
    out = np.fft.ifft(np.fft.fft(kern) * np.fft.fft(f.values)) / m
    return GridFunction(out)


def riesz_gamma(alpha: float) -> float:
    """Normalizing constant 2^alpha sqrt(pi) Gamma(alpha/2) / Gamma((1-alpha)/2)."""
    return float(2.0**alpha * math.sqrt(math.pi) * math.gamma(alpha / 2.0)
                 / math.gamma((1.0 - alpha) / 2.0))


def _power_antiderivative(u: np.ndarray, alpha: float) -> np.ndarray:
    # antiderivative of |u|^(alpha-1): sgn(u) |u|^alpha / alpha
    return np.sign(u) * np.abs(u) ** alpha / alpha


@functools.lru_cache(maxsize=16)
def _riesz_kernel(res: int, alpha: float) -> np.ndarray:
    """The length-2 res FFT of the (2 res - 1)-point kernel of order alpha
    on ``res`` cells.  The full linear convolution has 3 res - 2 entries,
    so a circular one of length 2 res wraps its tail onto its head, but
    the middle ``res`` entries stay exact: a circular index i in
    [res - 1, 2 res - 2] would also pick up linear index i + 2 res >=
    3 res - 1, past the last nonzero index 3 res - 3.  It depends on
    (res, alpha) alone, so it is built once per pair and is read-only."""
    h = 1.0 / res
    d = np.arange(-(res - 1), res)
    kern = (_power_antiderivative((d + 0.5) * h, alpha)
            - _power_antiderivative((d - 0.5) * h, alpha))
    spectrum = np.fft.fft(kern.astype(np.complex128), 2 * res)
    spectrum.flags.writeable = False
    return spectrum


def riesz_potential_rows(values: np.ndarray, alpha: float) -> np.ndarray:
    """``riesz_potential`` of each row of grid values, the grid on the last
    axis, bit for bit as the row alone.  The product with the kernel
    spectrum is taken in place, which spares each row a 2 res-point
    temporary."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"order must lie in (0, 1), got {alpha}")
    res = values.shape[-1]
    kernel = _riesz_kernel(res, float(alpha))
    # the circular convolution of length 2 res; its middle res entries are
    # the linear convolution's (see _riesz_kernel)
    full = np.fft.fft(values, len(kernel))
    full *= kernel
    full = np.fft.ifft(full)
    return full[..., res - 1: 2 * res - 1] / riesz_gamma(alpha)


def riesz_potential(f: GridFunction, alpha: float) -> GridFunction:
    """Fractional integral of order alpha on a grid of the unit interval.

    Every cell's contribution integrates |x - y|^(alpha-1) in closed form
    (the singular cell included), so the kernel weights are a symmetric
    Toeplitz family and the whole map is one linear convolution.
    """
    return GridFunction(riesz_potential_rows(f.values, alpha))
