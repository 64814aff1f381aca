import numpy as np
import pytest

from almosthilbert import integrals
from almosthilbert.integrals import (
    hilbert_multiplier,
    hilbert_pv,
    random_bandlimited,
    riesz_gamma,
    riesz_potential,
    signal_from_callable,
)
from almosthilbert.spaces import from_callable, lp_norm, pairing

def cosine(m, k=1):
    return signal_from_callable(lambda t: np.cos(2.0 * np.pi * k * t), m)


def sine(m, k=1):
    return signal_from_callable(lambda t: np.sin(2.0 * np.pi * k * t), m)


def reference_signal_lp_norm(f, p):
    """Signal L^p norm as a mean over the M samples: the bit-level reference."""
    a = np.abs(f)
    if p == np.inf:
        return float(np.max(a))
    return float(np.sum(a**p) / len(f)) ** (1.0 / p)


def reference_signal_inner(f, g):
    """Signal inner product as a mean over the M samples: the bit-level reference."""
    return complex(np.sum(f * np.conj(g)) / len(f))


class TestRowsBitwise:
    """A stack of signals, one per row, against each row alone, bit for bit:
    the integral suite measures chunks of instances as such stacks."""

    @pytest.mark.parametrize("m", [16, 256])
    def test_hilbert_multiplier(self, m):
        rows = random_bandlimited(np.random.default_rng(m), m, (3, 2))
        out = hilbert_multiplier(rows)
        assert out.shape == (3, 2, m)
        for j in np.ndindex(3, 2):
            assert out[j].tobytes() == hilbert_multiplier(rows[j]).tobytes()

    def test_hilbert_multiplier_refuses_a_grid_not_a_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            hilbert_multiplier(np.ones((2, 424)))

    @pytest.mark.parametrize("m", [16, 256, 424])
    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_riesz_potential(self, m, alpha):
        rng = np.random.default_rng(m)
        rows = rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m))
        out = riesz_potential(rows, alpha)
        for k in range(4):
            assert out[k].tobytes() == riesz_potential(rows[k], alpha).tobytes()

    def test_riesz_kernel_built_once_and_read_only(self):
        riesz_potential(np.ones(64), 0.375)
        before = integrals._riesz_kernel.cache_info()
        riesz_potential(np.ones((3, 64)), 0.375)
        after = integrals._riesz_kernel.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert not integrals._riesz_kernel(64, 0.375).flags.writeable
        assert len(integrals._riesz_kernel(64, 0.375)) == 128

    @pytest.mark.parametrize("m", [4, 256])
    def test_random_bandlimited_stack_is_the_lone_calls(self, m):
        stack = random_bandlimited(np.random.default_rng(7), m, (2, 3))
        rng = np.random.default_rng(7)
        for j in np.ndindex(2, 3):
            assert stack[j].tobytes() == random_bandlimited(rng, m).tobytes()


class TestPeriodicSignal:
    """A periodic signal is an array whose sample count is a power of two
    >= 4 and whose samples are finite; the transforms refuse every other
    array."""

    TRANSFORMS = (hilbert_multiplier, lambda f: hilbert_pv(f, 0.5))

    def test_rejects_non_power_of_two(self):
        for m in ((), 2, 3, 5, 6, 12, 1000):
            for op in self.TRANSFORMS:
                with pytest.raises(ValueError, match="power of two"):
                    op(np.zeros(m))

    def test_rejects_non_finite(self):
        # finiteness is judged on the samples, not on their bytes read as float64
        for dtype in (np.float64, np.float32):
            vals = np.zeros(8, dtype=dtype)
            vals[3] = np.nan
            for op in self.TRANSFORMS:
                with pytest.raises(ValueError, match="finite"):
                    op(vals)

    def test_accepts_integer_samples(self):
        ints = np.array([-1, 0, 2, 0, 5, -3, 0, 1])
        for op in self.TRANSFORMS:
            assert op(ints).tobytes() == op(ints.astype(np.float64)).tobytes()

    def test_rejects_wrong_box(self):
        # signals of two lengths do not combine
        with pytest.raises(ValueError, match="grid mismatch"):
            pairing(cosine(8), cosine(16))

    def test_arithmetic(self):
        # the transform of a sum of multiples of signals is that sum of transforms
        f, g = cosine(16), sine(16)
        combined = hilbert_multiplier(f + 2.0 * g)
        separate = hilbert_multiplier(f) + 2.0 * hilbert_multiplier(g)
        np.testing.assert_allclose(combined, separate, atol=1e-14)

    def test_norms(self):
        one = np.ones(32)
        assert lp_norm(one, 2) == pytest.approx(1.0)
        assert lp_norm(one, np.inf) == 1.0
        assert lp_norm(cosine(64), 2) == pytest.approx(np.sqrt(0.5), abs=1e-12)
        with pytest.raises(ValueError):
            lp_norm(one, 0.5)

    def test_inner_conjugates_second(self):
        f = cosine(32)
        assert pairing(f, 1j * f) == pytest.approx(-1j * 0.5, abs=1e-12)

    def test_size_mismatch(self):
        # nor does a signal broadcast against a stack of them
        with pytest.raises(ValueError, match="grid mismatch"):
            pairing(cosine(16), np.stack([cosine(16)] * 2))

    @pytest.mark.parametrize("m", [4, 256, 4096])
    def test_norm_and_pairing_bit_identical_to_signal_formulas(self, m):
        # Multiplying by the cell volume 1/M is exact for power-of-two M,
        # the same as dividing by M.
        rng = np.random.default_rng(m)
        f, g = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(2))
        for p in (1.5, 2, 3, np.inf):
            assert lp_norm(f, p) == reference_signal_lp_norm(f, p)
        assert pairing(f, g) == reference_signal_inner(f, g)


class TestMultiplier:
    def test_cosine_to_sine(self):
        np.testing.assert_allclose(hilbert_multiplier(cosine(256)), sine(256), atol=1e-12)

    def test_sine_to_negative_cosine(self):
        np.testing.assert_allclose(hilbert_multiplier(sine(256)), -cosine(256), atol=1e-12)

    def test_constant_annihilated(self):
        out = hilbert_multiplier(np.full(64, 3.0 - 2.0j))
        np.testing.assert_allclose(out, 0.0, atol=1e-13)

    def test_square_is_minus_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            f = random_bandlimited(rng, 128)
            twice = hilbert_multiplier(hilbert_multiplier(f))
            scale = lp_norm(f, np.inf)
            assert np.max(np.abs(twice + f)) <= 1e-12 * max(1.0, scale)


class TestPrincipalValue:
    def test_constant_cancels(self):
        out = hilbert_pv(np.full(512, 2.0), 4.0 / 512)
        assert np.max(np.abs(out)) <= 1e-10

    def test_cross_path_gap(self):
        m = 1024
        f = cosine(m)
        gap = np.max(np.abs(hilbert_multiplier(f) - hilbert_pv(f, 4.0 / m)))
        assert gap <= 2e-2

    def test_joint_refinement_first_order(self):
        # The leading gap term is exactly 2k(2c-1)/M for eps = c/M, so each
        # joint halving should cut the gap in two up to a small lattice drift.
        gaps = []
        for m in (512, 1024, 2048, 4096):
            f = cosine(m, k=3)
            gaps.append(np.max(np.abs(hilbert_multiplier(f) - hilbert_pv(f, 8.0 / m))))
        for a, b in zip(gaps, gaps[1:]):
            assert b <= (a / 2.0) * 1.01
            assert np.log2(a / b) >= 1.0 - 1e-2

    @pytest.mark.parametrize("mode", [1, 3])
    def test_fixed_grid_order_at_least_one(self, mode):
        # On a fixed fine grid the gap shrinks at least linearly as eps halves.
        m = 4096
        f = cosine(m, k=mode)
        ref = hilbert_multiplier(f)
        gaps = [np.max(np.abs(ref - hilbert_pv(f, c / m)))
                for c in (64.0, 32.0, 16.0, 8.0)]
        for a, b in zip(gaps, gaps[1:]):
            assert np.log2(a / b) >= 1.0

    def test_rejects_tight_epsilon(self):
        with pytest.raises(ValueError, match="below the grid spacing"):
            hilbert_pv(cosine(64), 0.5 / 64)


def omega_kernel_pv(f, omega, eps):
    """The generic odd-kernel quadrature that ``hilbert_pv`` was the
    Omega(s) = s/pi instance of: kernel Omega(sgn(x - y)) * pi *
    |cot(pi(x - y))| off the band |x - y| < eps."""
    m = len(f)
    u = np.arange(m) / m
    u = np.where(u > 0.5, u - 1.0, u)
    kern = np.zeros(m, dtype=np.complex128)
    mask = np.abs(u) >= eps
    um = u[mask]
    om_pos, om_neg = complex(omega(1)), complex(omega(-1))
    kern[mask] = np.where(um > 0, om_pos, om_neg) * np.pi * np.abs(1.0 / np.tan(np.pi * um))
    return np.fft.ifft(np.fft.fft(kern) * np.fft.fft(f)) / m


class TestOddKernel:
    def test_hilbert_choice_bit_identical(self):
        rng = np.random.default_rng(51)
        for m, c in ((64, 1.0), (512, 4.0), (512, 37.0), (4096, 8.0)):
            eps = c / m
            for f in (cosine(m, k=5), random_bandlimited(rng, m)):
                ref = omega_kernel_pv(f, lambda s: s / np.pi, eps)
                assert hilbert_pv(f, eps).tobytes() == ref.tobytes()

    def test_discrete_skewness(self):
        rng = np.random.default_rng(52)
        f = random_bandlimited(rng, 256)
        g = random_bandlimited(rng, 256)
        op = lambda u: hilbert_pv(u, 8.0 / 256)
        lhs = pairing(op(f), g)
        rhs = -pairing(f, op(g))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestAdjointRelation:
    def test_multiplier_sweep(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            f = random_bandlimited(rng, 128)
            g = random_bandlimited(rng, 128)
            lhs = pairing(hilbert_multiplier(f), g)
            rhs = -pairing(f, hilbert_multiplier(g))
            assert abs(lhs - rhs) <= 1e-10 * lp_norm(f, 2) * lp_norm(g, 2)

    def test_skew_quadratic_form_imaginary(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            f = random_bandlimited(rng, 256).real + 0.0j
            form = pairing(hilbert_multiplier(f), f)
            assert abs(form.real) <= 1e-12


class TestRieszPotential:
    def test_zero(self):
        np.testing.assert_array_equal(riesz_potential(np.zeros(128), 0.5), np.zeros(128))

    def test_gamma_half(self):
        assert riesz_gamma(0.5) == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-12)

    def test_spot_value_constant(self):
        res = 8192
        alpha = 0.5
        one = from_callable(lambda t: np.ones_like(t), res).values
        out = riesz_potential(one, alpha)
        closed = 2.0 * 0.5**alpha / alpha / riesz_gamma(alpha)
        assert out[res // 2].real == pytest.approx(closed, abs=1e-4)

    def test_constant_matches_closed_form_everywhere(self):
        # cell integrals telescope, so the only error is floating rounding
        res = 256
        alpha = 0.3
        one = from_callable(lambda t: np.ones_like(t), res).values
        out = riesz_potential(one, alpha)
        x = (np.arange(res) + 0.5) / res
        closed = (x**alpha + (1.0 - x) ** alpha) / alpha / riesz_gamma(alpha)
        np.testing.assert_allclose(out.real, closed, atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(57)
        for alpha in (0.4, 0.25):
            for _ in range(20):
                f = rng.standard_normal(512) + 1j * rng.standard_normal(512)
                g = rng.standard_normal(512) + 1j * rng.standard_normal(512)
                lhs = pairing(riesz_potential(f, alpha), g)
                rhs = pairing(f, riesz_potential(g, alpha))
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_positive_quadratic_form(self):
        rng = np.random.default_rng(58)
        for alpha in (0.3, 0.5, 0.7):
            for _ in range(20):
                f = rng.standard_normal(256) + 0.0j
                assert pairing(riesz_potential(f, alpha), f).real >= -1e-8

    # odd res makes the transform length 2 res no power of two; at res 1 and
    # 2 nothing wraps, from res 3 on the tail wraps onto the head
    @pytest.mark.parametrize("res", [1, 2, 3, 16, 100, 256, 4096])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_matches_direct_convolution(self, res, alpha):
        rng = np.random.default_rng(res)
        values = rng.standard_normal(res) + 1j * rng.standard_normal(res)
        h = 1.0 / res
        u = (np.arange(-(res - 1), res + 1) - 0.5) * h
        antiderivative = np.sign(u) * np.abs(u) ** alpha / alpha
        kern = np.diff(antiderivative)  # cell integrals of |x - y|^(alpha-1)
        ref = np.convolve(values, kern)[res - 1: 2 * res - 1] / riesz_gamma(alpha)
        out = riesz_potential(values, alpha)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_rejects_bad_order(self):
        f = np.ones(64)
        for alpha in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError, match="order"):
                riesz_potential(f, alpha)
