import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_poly
from almosthilbert.embedding import dyadic_weights, gram_matrix
from almosthilbert.spaces import (
    GridFunction,
    SchauderBasis,
    analyze,
    coefficients,
    duality_map,
    fourier_sbasis,
    from_callable,
    lp_norm,
    midpoints,
    pairing,
    reconstruct,
    synthesize,
)

def reference_sbasis(N, p, resolution):
    """The trigonometric basis as tuples of members and dual representers,
    the form the two matrices replaced."""
    t = (np.arange(resolution) + 0.5) / resolution
    members, duals = [], []
    for n in range(N):
        freq = (n + 1) // 2
        if n == 0:
            g = np.ones(resolution, dtype=np.complex128)
        elif n % 2 == 1:
            g = np.cos(2.0 * np.pi * freq * t).astype(np.complex128)
        else:
            g = np.sin(2.0 * np.pi * freq * t).astype(np.complex128)
        member = g * complex(1.0 / float(lp_norm(g, p)))
        members.append(member)
        duals.append(g * complex(1.0 / np.real(pairing(member, g))))
    return tuple(members), tuple(duals)


def reference_coefficients(u, duals):
    return np.stack(duals).conj() @ u * (1.0 / u.shape[-1])


def reference_gram(members, duals, weights):
    c = np.stack([reference_coefficients(m, duals) for m in members], axis=1)
    return c.T @ (weights[:, None] * np.conj(c))


class TestGridFunction:
    def test_rejects_shape_mismatch(self):
        for shape in ((), (0,), (4, 4), (8, 8), (4, 8), (2, 2, 2)):
            with pytest.raises(ValueError):
                GridFunction(np.zeros(shape))

    def test_midpoints(self):
        np.testing.assert_allclose(midpoints(4), [0.125, 0.375, 0.625, 0.875])

    def test_unit_interval_formulas_at_basis_resolution(self):
        # M = 424 is the basis grid at N = 53, where 1/M is inexact: the
        # midpoints are (k + 1/2)/M, the points the basis members are
        # sampled at.
        m = 424
        expected = (np.arange(m) + 0.5) / m
        f = from_callable(lambda t: t, m)
        assert midpoints(m).tobytes() == expected.tobytes()
        assert f.values.real.tobytes() == expected.tobytes()
        assert f.resolution == m


class TestLpNorm:
    def test_zero(self):
        assert lp_norm(np.zeros(8), 2) == 0.0

    @pytest.mark.parametrize("p", [1, 1.5, 2, 4, np.inf])
    def test_unit_constant(self, p):
        f = from_callable(lambda t: np.ones_like(t), 64).values
        assert lp_norm(f, p) == pytest.approx(1.0, abs=1e-12)

    def test_linear_function_closed_form(self):
        f = from_callable(lambda t: t, 4096).values
        assert lp_norm(f, 2) == pytest.approx(1 / np.sqrt(3), abs=1e-4)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(np.zeros(8), 0.5)


class TestPairing:
    def test_zero_functional(self):
        f = from_callable(lambda t: np.exp(2j * np.pi * t), 32).values
        assert pairing(f, np.zeros(32)) == 0

    def test_unit_constants(self):
        one = from_callable(lambda t: np.ones_like(t), 32).values
        assert pairing(one, one) == pytest.approx(1.0)

    def test_sine_closed_form(self):
        f = from_callable(lambda t: np.sin(2 * np.pi * t), 4096).values
        assert pairing(f, f) == pytest.approx(0.5, abs=1e-6)

    def test_conjugates_second_argument(self):
        f = from_callable(lambda t: np.ones_like(t), 16).values
        g = 1j * f
        assert pairing(f, g) == pytest.approx(-1j)
        assert pairing(g, f) == pytest.approx(1j)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match="grid mismatch"):
            pairing(np.zeros(8), np.zeros(16))


class TestDualityMap:
    def test_constant_p3(self):
        u = from_callable(lambda t: np.ones_like(t), 64).values
        ustar = duality_map(u, 3)
        np.testing.assert_allclose(ustar, 1.0, atol=1e-12)
        assert pairing(u, ustar) == pytest.approx(1.0)

    def test_p2_is_identity(self):
        rng = np.random.default_rng(5)
        basis = fourier_sbasis(6, 2, 128)
        u = random_poly(basis, rng)
        np.testing.assert_allclose(duality_map(u.values, 2), u.values, atol=1e-12)

    def test_zero_maps_to_zero(self):
        z = duality_map(np.zeros(16, dtype=np.complex128), 1.5)
        np.testing.assert_array_equal(z, 0)

    def test_sine_identity_p4(self):
        u = from_callable(lambda t: np.sin(2 * np.pi * t), 4096).values
        ustar = duality_map(u, 4)
        n2 = lp_norm(u, 4) ** 2
        assert pairing(u, ustar) == pytest.approx(n2, rel=1e-6)
        assert lp_norm(ustar, 4 / 3) ** 2 == pytest.approx(n2, rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        re=st.floats(-3, 3, allow_nan=False),
        im=st.floats(-3, 3, allow_nan=False),
        p=st.sampled_from([1.5, 2.5, 4.0]),
    )
    def test_complex_homogeneity(self, re, im, p):
        c = complex(re, im)
        if abs(c) < 1e-3:
            return
        u = from_callable(lambda t: np.sin(2 * np.pi * t) + 0.3, 64).values
        lhs = duality_map(c * u, p)
        rhs = c * duality_map(u, p)
        assert lp_norm(lhs - rhs, 2) <= 1e-8 * max(1.0, lp_norm(rhs, 2))

    def test_positive_homogeneity_tight(self):
        u = from_callable(lambda t: np.cos(2 * np.pi * t) - 0.2, 128).values
        for c in (0.5, 2.0, 7.5):
            lhs = duality_map(c * u, 3)
            rhs = c * duality_map(u, 3)
            assert lp_norm(lhs - rhs, np.inf) <= 1e-10 * lp_norm(rhs, np.inf)

    def test_rejects_bad_p(self):
        u = from_callable(lambda t: t, 16)
        for p in (1.0, np.inf, 0.5):
            with pytest.raises(ValueError):
                duality_map(u.values, p)


class TestFourierBasis:
    def test_single_member_is_constant(self):
        basis = fourier_sbasis(1, 2, 16)
        np.testing.assert_allclose(basis.synthesis[0], 1.0, atol=1e-14)
        one = from_callable(lambda t: np.ones_like(t), 16)
        assert coefficients(one, basis)[0] == pytest.approx(1.0)

    def test_biorthonormality_matrix(self):
        basis = fourier_sbasis(3, 2, 64)
        g = np.array(
            [coefficients(GridFunction(e), basis) for e in basis.synthesis]
        )
        np.testing.assert_allclose(g, np.eye(3), atol=1e-8)

    @pytest.mark.parametrize("p", [1.5, 3])
    def test_unit_p_norms(self, p):
        basis = fourier_sbasis(5, p, 128)
        for n in range(len(basis)):
            assert lp_norm(basis.synthesis[n], p) == pytest.approx(1.0, abs=1e-8)

    def test_member_ordering(self):
        basis = fourier_sbasis(5, 2, 256)
        t = midpoints(256)
        # order: 1, cos 2*pi*t, sin 2*pi*t, cos 4*pi*t, sin 4*pi*t
        raw = [
            np.ones_like(t),
            np.cos(2 * np.pi * t),
            np.sin(2 * np.pi * t),
            np.cos(4 * np.pi * t),
            np.sin(4 * np.pi * t),
        ]
        for m, r in zip(basis.synthesis, raw):
            corr = abs(np.vdot(m, r)) - np.linalg.norm(m) * np.linalg.norm(r)
            assert abs(corr) < 1e-8

    def test_rejects_coarse_resolution(self):
        with pytest.raises(ValueError, match="too coarse"):
            fourier_sbasis(4, 2, 16)


class TestSchauderBasis:
    @pytest.mark.parametrize("synthesis, analysis", [
        (np.ones((2, 16)), np.ones((3, 16))),
        (np.ones((2, 16)), np.ones((2, 8))),
        (np.ones((0, 16)), np.ones((0, 16))),
        (np.ones((2, 0)), np.ones((2, 0))),
        (np.ones(16), np.ones(16)),
    ], ids=["rows", "cells", "no-rows", "no-cells", "vector"])
    def test_rejects_bad_arrays(self, synthesis, analysis):
        with pytest.raises(ValueError, match="nonempty"):
            SchauderBasis(synthesis, analysis, 2.0)

    def test_rejects_two_dimensional_box(self):
        # members sampled on the unit square: a basis spans unit-interval functions only
        with pytest.raises(ValueError, match="nonempty"):
            SchauderBasis(np.ones((2, 16, 16)), np.ones((2, 16, 16)), 2.0)

    def test_members_are_views(self):
        basis = fourier_sbasis(4, 3, 64)
        for a in (basis.synthesis, basis.analysis):
            assert a.dtype == np.complex128 and a.flags.c_contiguous and a.shape == (4, 64)
        assert len(basis) == 4
        # a GridFunction over a synthesis row holds a view, not a copy
        assert np.shares_memory(GridFunction(basis.synthesis[2]).values, basis.synthesis)


class TestMatrixBitwise:
    """The two stored matrices against the per-call np.stack of member and
    dual tuples, bit for bit."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("N, M", [(8, 256), (16, 8192)])
    def test_matches_stacked_tuples(self, N, M, p):
        basis = fourier_sbasis(N, p, M)
        members, duals = reference_sbasis(N, p, M)
        for n in range(N):
            assert basis.synthesis[n].tobytes() == members[n].tobytes()
            assert basis.analysis[n].tobytes() == duals[n].conj().tobytes()
        rng = np.random.default_rng(N)
        for _ in range(3):
            u = GridFunction(rng.standard_normal(M) + 1j * rng.standard_normal(M))
            ref = reference_coefficients(u.values, duals)
            assert coefficients(u, basis).tobytes() == ref.tobytes()
            c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            stacked = c @ np.stack(members)
            assert reconstruct(c, basis).values.tobytes() == stacked.tobytes()
        w = dyadic_weights(N)
        expected = reference_gram(members, duals, w)
        assert gram_matrix(basis, w).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("N, M", [(8, 256), (16, 8192)])
    def test_stack_rows_are_the_single_calls(self, N, M):
        basis = fourier_sbasis(N, 3.0, M)
        rng = np.random.default_rng(N + 1)
        values = rng.standard_normal((5, M)) + 1j * rng.standard_normal((5, M))
        coeffs = rng.standard_normal((5, N)) + 1j * rng.standard_normal((5, N))
        analyzed, synthesized = analyze(values, basis), synthesize(coeffs, basis)
        for k in range(5):
            u = GridFunction(values[k])
            np.testing.assert_array_equal(analyzed[k], coefficients(u, basis))
            np.testing.assert_array_equal(synthesized[k], reconstruct(coeffs[k], basis).values)


class TestRowsBitwise:
    """A stack of grid functions, one per row, against each row alone, bit
    for bit: the suites measure chunks of instances as such stacks."""

    @staticmethod
    def rows(M, T=6):
        rng = np.random.default_rng(M)
        scales = 10.0 ** rng.uniform(-3, 3, (T, 1))
        values = scales * (rng.standard_normal((T, M)) + 1j * rng.standard_normal((T, M)))
        values[2] = 0.0  # J(0) = 0
        values[4, ::3] = 0.0  # zeros inside a row
        return values

    @pytest.mark.parametrize("M", [16, 256, 424])
    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 4.0, 64.0, np.inf])
    def test_lp_norm(self, M, p):
        values = self.rows(M)
        norms = lp_norm(values, p)
        assert norms.shape == (6,)
        for k in range(6):
            assert norms[k].tobytes() == lp_norm(values[k], p).tobytes()

    # 64 x 256 is numpy's temporary-elision threshold of 256 KiB
    @pytest.mark.parametrize("T, M", [(6, 16), (6, 256), (6, 424), (64, 256)],
                             ids=["16", "256", "424", "64x256"])
    def test_pairing(self, T, M):
        f, g = self.rows(M, T), self.rows(M, T)[::-1].copy()
        brackets = pairing(f, g)
        for k in range(T):
            assert brackets[k].tobytes() == pairing(f[k], g[k]).tobytes()

    @pytest.mark.parametrize("M", [16, 256, 424])
    @pytest.mark.parametrize("p", [1.01, 1.5, 3.0, 64.0])
    def test_duality_map(self, M, p):
        values = self.rows(M)
        with np.errstate(all="raise"):
            mapped = duality_map(values, p)
        for k in range(6):
            assert mapped[k].tobytes() == duality_map(values[k], p).tobytes()
        assert not np.any(mapped[2])

    def test_stacks_of_other_shapes_refused(self):
        with pytest.raises(ValueError, match="grid mismatch"):
            pairing(np.ones((2, 16)), np.ones((3, 16)))


class TestCoefficients:
    def test_basis_member_round_trip(self):
        basis = fourier_sbasis(4, 3, 64)
        c = coefficients(GridFunction(basis.synthesis[1]), basis)
        np.testing.assert_allclose(c, [0, 1, 0, 0], atol=1e-12)

    def test_zero(self):
        basis = fourier_sbasis(4, 2, 64)
        np.testing.assert_allclose(coefficients(GridFunction(np.zeros(64)), basis), 0, atol=0)

    def test_combination_round_trip(self):
        basis = fourier_sbasis(4, 2, 64)
        u = GridFunction(2.0 * basis.synthesis[0] + 3.0 * basis.synthesis[2])
        c = coefficients(u, basis)
        np.testing.assert_allclose(c, [2, 0, 3, 0], atol=1e-10)
        v = reconstruct(c, basis)
        assert lp_norm(u.values - v.values, np.inf) <= 1e-8

    def test_projection_idempotent(self):
        basis = fourier_sbasis(4, 2.5, 128)
        # a function outside the span: higher harmonic plus noise
        u = from_callable(lambda t: np.cos(14 * np.pi * t) + t, 128)
        once = reconstruct(coefficients(u, basis), basis)
        twice = reconstruct(coefficients(once, basis), basis)
        assert lp_norm(once.values - twice.values, np.inf) <= 1e-10

    def test_rejects_other_grid(self):
        basis = fourier_sbasis(4, 2, 64)
        with pytest.raises(ValueError, match="grid mismatch"):
            coefficients(GridFunction(np.zeros(128)), basis)

    def test_wrong_length_rejected(self):
        basis = fourier_sbasis(4, 2, 64)
        with pytest.raises(ValueError):
            reconstruct(np.zeros(3), basis)
