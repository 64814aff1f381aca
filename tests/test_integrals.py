import numpy as np
import pytest

from almosthilbert.integrals import (
    PeriodicSignal,
    hilbert_multiplier,
    hilbert_pv,
    hls_bound_report,
    hls_probe,
    odd_kernel_operator,
    random_bandlimited,
    riesz_gamma,
    riesz_potential,
    signal_from_callable,
    signal_inner,
    signal_lp_norm,
)
from almosthilbert.spaces import GridFunction, from_callable, pairing


def cosine(m, k=1):
    return signal_from_callable(lambda t: np.cos(2.0 * np.pi * k * t), m)


def sine(m, k=1):
    return signal_from_callable(lambda t: np.sin(2.0 * np.pi * k * t), m)


class TestPeriodicSignal:
    def test_rejects_non_power_of_two(self):
        for m in (3, 5, 6, 12, 1000):
            with pytest.raises(ValueError, match="power of two"):
                PeriodicSignal(np.zeros(m))
        with pytest.raises(ValueError, match="power of two"):
            PeriodicSignal(np.zeros(2))

    def test_rejects_non_finite(self):
        vals = np.zeros(8)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PeriodicSignal(vals)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            PeriodicSignal(np.zeros((4, 4)))

    def test_arithmetic(self):
        f, g = cosine(16), sine(16)
        np.testing.assert_allclose((f + g).samples, f.samples + g.samples)
        np.testing.assert_allclose((f - g).samples, f.samples - g.samples)
        np.testing.assert_allclose((2.0 * f).samples, 2.0 * f.samples)

    def test_norms(self):
        one = PeriodicSignal(np.ones(32))
        assert signal_lp_norm(one, 2) == pytest.approx(1.0)
        assert signal_lp_norm(one, np.inf) == 1.0
        assert signal_lp_norm(cosine(64), 2) == pytest.approx(np.sqrt(0.5), abs=1e-12)
        with pytest.raises(ValueError):
            signal_lp_norm(one, 0.5)

    def test_inner_conjugates_second(self):
        f = cosine(32)
        assert signal_inner(f, 1j * f) == pytest.approx(-1j * 0.5, abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="sizes differ"):
            signal_inner(cosine(16), cosine(32))


class TestMultiplier:
    def test_cosine_to_sine(self):
        out = hilbert_multiplier(cosine(256))
        np.testing.assert_allclose(out.samples, sine(256).samples, atol=1e-12)

    def test_sine_to_negative_cosine(self):
        out = hilbert_multiplier(sine(256))
        np.testing.assert_allclose(out.samples, -cosine(256).samples, atol=1e-12)

    def test_constant_annihilated(self):
        out = hilbert_multiplier(PeriodicSignal(np.full(64, 3.0 - 2.0j)))
        np.testing.assert_allclose(out.samples, 0.0, atol=1e-13)

    def test_isometry_on_mean_zero(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            f = random_bandlimited(rng, 256)
            ratio = signal_lp_norm(hilbert_multiplier(f), 2) / signal_lp_norm(f, 2)
            assert abs(ratio - 1.0) <= 1e-12

    def test_square_is_minus_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            f = random_bandlimited(rng, 128)
            twice = hilbert_multiplier(hilbert_multiplier(f))
            scale = signal_lp_norm(f, np.inf)
            assert np.max(np.abs(twice.samples + f.samples)) <= 1e-12 * max(1.0, scale)


class TestPrincipalValue:
    def test_constant_cancels(self):
        out = hilbert_pv(PeriodicSignal(np.full(512, 2.0)), 4.0 / 512)
        assert np.max(np.abs(out.samples)) <= 1e-10

    def test_cross_path_gap(self):
        m = 1024
        f = cosine(m)
        gap = np.max(np.abs(hilbert_multiplier(f).samples
                            - hilbert_pv(f, 4.0 / m).samples))
        assert gap <= 2e-2

    def test_joint_refinement_first_order(self):
        # The leading gap term is exactly 2k(2c-1)/M for eps = c/M, so each
        # joint halving should cut the gap in two up to a small lattice drift.
        gaps = []
        for m in (512, 1024, 2048, 4096):
            f = cosine(m, k=3)
            gaps.append(np.max(np.abs(hilbert_multiplier(f).samples
                                      - hilbert_pv(f, 8.0 / m).samples)))
        for a, b in zip(gaps, gaps[1:]):
            assert b <= (a / 2.0) * 1.01
            assert np.log2(a / b) >= 1.0 - 1e-2

    @pytest.mark.parametrize("mode", [1, 3])
    def test_fixed_grid_order_at_least_one(self, mode):
        # On a fixed fine grid the gap shrinks at least linearly as eps halves.
        m = 4096
        f = cosine(m, k=mode)
        ref = hilbert_multiplier(f).samples
        gaps = [np.max(np.abs(ref - hilbert_pv(f, c / m).samples))
                for c in (64.0, 32.0, 16.0, 8.0)]
        for a, b in zip(gaps, gaps[1:]):
            assert np.log2(a / b) >= 1.0

    def test_rejects_tight_epsilon(self):
        with pytest.raises(ValueError, match="below the grid spacing"):
            hilbert_pv(cosine(64), 0.5 / 64)


class TestOddKernel:
    def test_zero_kernel(self):
        out = odd_kernel_operator(cosine(128), lambda s: 0.0, 4.0 / 128)
        np.testing.assert_array_equal(out.samples, np.zeros(128))

    def test_hilbert_choice_bit_identical(self):
        f = cosine(512, k=5)
        eps = 4.0 / 512
        a = odd_kernel_operator(f, lambda s: s / np.pi, eps)
        b = hilbert_pv(f, eps)
        assert np.array_equal(a.samples, b.samples)

    def test_linear_in_kernel_amplitude(self):
        f = sine(256, k=2)
        eps = 4.0 / 256
        doubled = odd_kernel_operator(f, lambda s: 2.0 * s, eps)
        ref = hilbert_pv(f, eps)
        np.testing.assert_allclose(doubled.samples, 2.0 * np.pi * ref.samples,
                                   rtol=1e-12, atol=1e-14)

    def test_rejects_uncancelled_kernel(self):
        with pytest.raises(ValueError, match="cancellation"):
            odd_kernel_operator(cosine(64), lambda s: 1.0, 4.0 / 64)

    def test_discrete_skewness(self):
        rng = np.random.default_rng(52)
        f = random_bandlimited(rng, 256)
        g = random_bandlimited(rng, 256)
        op = lambda u: hilbert_pv(u, 8.0 / 256)
        lhs = signal_inner(op(f), g)
        rhs = -signal_inner(f, op(g))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestAdjointRelation:
    def test_multiplier_sweep(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            f = random_bandlimited(rng, 128)
            g = random_bandlimited(rng, 128)
            lhs = signal_inner(hilbert_multiplier(f), g)
            rhs = -signal_inner(f, hilbert_multiplier(g))
            assert abs(lhs - rhs) <= 1e-10 * signal_lp_norm(f, 2) * signal_lp_norm(g, 2)

    def test_skew_quadratic_form_imaginary(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            f = PeriodicSignal(random_bandlimited(rng, 256).samples.real)
            form = signal_inner(hilbert_multiplier(f), f)
            assert abs(form.real) <= 1e-12


class TestRieszPotential:
    def test_zero(self):
        z = GridFunction(((0.0, 1.0),), np.zeros(128))
        np.testing.assert_array_equal(riesz_potential(z, 0.5).values, np.zeros(128))

    def test_gamma_half(self):
        assert riesz_gamma(0.5) == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-12)

    def test_spot_value_constant(self):
        res = 8192
        alpha = 0.5
        one = from_callable(lambda t: np.ones_like(t), ((0.0, 1.0),), res)
        out = riesz_potential(one, alpha)
        closed = 2.0 * 0.5**alpha / alpha / riesz_gamma(alpha)
        assert out.values[res // 2].real == pytest.approx(closed, abs=1e-4)

    def test_constant_matches_closed_form_everywhere(self):
        # cell integrals telescope, so the only error is floating rounding
        res = 256
        alpha = 0.3
        one = from_callable(lambda t: np.ones_like(t), ((0.0, 1.0),), res)
        out = riesz_potential(one, alpha)
        x = (np.arange(res) + 0.5) / res
        closed = (x**alpha + (1.0 - x) ** alpha) / alpha / riesz_gamma(alpha)
        np.testing.assert_allclose(out.values.real, closed, atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(57)
        for alpha in (0.4, 0.25):
            for _ in range(20):
                f = GridFunction(((0.0, 1.0),), rng.standard_normal(512)
                                 + 1j * rng.standard_normal(512))
                g = GridFunction(((0.0, 1.0),), rng.standard_normal(512)
                                 + 1j * rng.standard_normal(512))
                lhs = pairing(riesz_potential(f, alpha), g)
                rhs = pairing(f, riesz_potential(g, alpha))
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_positive_quadratic_form(self):
        rng = np.random.default_rng(58)
        for alpha in (0.3, 0.5, 0.7):
            for _ in range(20):
                f = GridFunction(((0.0, 1.0),), rng.standard_normal(256))
                assert pairing(riesz_potential(f, alpha), f).real >= -1e-8

    def test_rejects_bad_order(self):
        f = GridFunction(((0.0, 1.0),), np.ones(64))
        for alpha in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError, match="order"):
                riesz_potential(f, alpha)

    def test_rejects_two_dim(self):
        f = GridFunction(((0.0, 1.0), (0.0, 1.0)), np.ones((8, 8)))
        with pytest.raises(ValueError, match="1-D"):
            riesz_potential(f, 0.5)


class TestHlsBound:
    def test_exponent_relation(self):
        rep = hls_bound_report(0.25, 4.0 / 3.0, trials=20, seed=6)
        assert rep.passed
        for check in rep.checks:
            assert check.params["q"] == pytest.approx(2.0, rel=1e-12)

    def test_another_pair_stable(self):
        rep = hls_bound_report(0.5, 1.5, trials=20, seed=6)
        assert rep.passed
        stab = next(c for c in rep.checks if c.name == "hls-bound-stability")
        assert stab.worst_violation <= 1.5

    def test_rejects_degenerate_exponents(self):
        with pytest.raises(ValueError, match="exponent relation"):
            hls_bound_report(0.5, 4.0, trials=5)
        with pytest.raises(ValueError, match="exponent relation"):
            hls_bound_report(0.5, 2.0, trials=5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="order"):
            hls_bound_report(1.2, 1.5, trials=5)
        with pytest.raises(ValueError, match="p must lie"):
            hls_bound_report(0.5, 1.0, trials=5)

    def test_probe_support(self):
        rng = np.random.default_rng(59)
        f = hls_probe(rng, 512)
        assert np.all(f.values[:128] == 0.0)
        assert np.all(f.values[384:] == 0.0)
        assert np.max(np.abs(f.values)) > 0.0
