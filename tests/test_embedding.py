import numpy as np
import pytest

from helpers import random_poly

from almosthilbert.embedding import (
    EmbeddingSpace,
    biorthonormalize,
    coefficient_h_inner,
    coefficient_h_norm,
    dyadic_weights,
    gram_matrix,
    h_inner,
)
from almosthilbert.spaces import (
    GridFunction,
    analyze,
    coefficients,
    lp_norm,
    lp_norm_rows,
)


def make_space(N=4, p=2, resolution=128):
    return EmbeddingSpace(dyadic_weights(N), p, resolution)


def h_norm(u, space):
    return coefficient_h_norm(coefficients(u, space.basis), space.weights)


def jb_at(v, u, space):
    """<v, J_B(u)> = (v, u)_H of grid values v and u, on their coefficients."""
    return coefficient_h_inner(analyze(v, space.basis), analyze(u, space.basis), space.weights)


def member(space, n):
    return GridFunction(space.basis.synthesis[n])


class TestWeights:
    def test_dyadic_exact(self):
        w = dyadic_weights(4)
        np.testing.assert_array_equal(w, [0.5, 0.25, 0.125, 0.0625])

    def test_partial_sum_below_one(self):
        for n in (1, 8, 30):
            assert dyadic_weights(n).sum() < 1.0

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            EmbeddingSpace([0.5, -0.1], 2, 64)
        with pytest.raises(ValueError):
            EmbeddingSpace([0.9, 0.2], 2, 64)


class TestHInner:
    def test_first_member_self_pairing(self):
        space = make_space()
        e1 = member(space, 0)
        assert h_inner(e1, e1, space) == pytest.approx(0.5, abs=1e-12)

    def test_cross_member_vanishes(self):
        space = make_space()
        e1, e2 = member(space, 0), member(space, 1)
        assert abs(h_inner(e1, e2, space)) <= 1e-12

    def test_zero_vector(self):
        space = make_space()
        z = GridFunction(np.zeros(128))
        assert h_inner(member(space, 0), z, space) == 0

    def test_hermitian(self):
        rng = np.random.default_rng(2)
        space = make_space(p=3)
        u, v = random_poly(space, rng), random_poly(space, rng)
        assert h_inner(u, v, space) == pytest.approx(np.conj(h_inner(v, u, space)))


class TestHNorm:
    def test_member_norms(self):
        space = make_space(N=5)
        for n in range(1, space.dim + 1):
            m = member(space, n - 1)
            assert h_norm(m, space) == pytest.approx(2.0 ** (-n / 2), abs=1e-12)

    def test_zero(self):
        space = make_space()
        assert h_norm(GridFunction(np.zeros(128)), space) == 0.0

    def test_bounded_by_sup_coefficient(self):
        rng = np.random.default_rng(3)
        space = make_space(N=8, p=2, resolution=256)
        for _ in range(50):
            u = random_poly(space, rng)
            c = coefficients(u, space.basis)
            assert h_norm(u, space) <= np.max(np.abs(c)) + 1e-12

    @pytest.mark.parametrize("p", [1.5, 2, 3, 4])
    def test_norm_chain_random(self, p):
        rng = np.random.default_rng(4)
        space = make_space(N=8, p=p, resolution=256)
        for _ in range(30):
            u = random_poly(space, rng)
            assert h_norm(u, space) <= lp_norm(u, p) + 5e-7


class TestRowsBitwise:
    @pytest.mark.parametrize("N, M", [(4, 128), (53, 424)])
    def test_biorthonormalize_a_stack(self, N, M):
        # each stack entry is biorthonormalize of its vectors alone
        space = make_space(N=N, p=3, resolution=M)
        rng = np.random.default_rng(N)
        stack = np.stack([[random_poly(space, rng).values for _ in range(4)] for _ in range(3)])
        psis, representers = biorthonormalize(stack, space)
        for t in range(3):
            alone, duals = biorthonormalize(stack[t], space)
            assert psis[t].tobytes() == alone.tobytes()
            assert representers[t].tobytes() == duals.tobytes()

    def test_biorthonormalize_names_the_dependent_index(self):
        space = make_space()
        e1 = space.basis.synthesis[0]
        stack = np.stack([[e1, e1 * 1j], [e1, 2.0 * e1]])
        with pytest.raises(ValueError, match="index 1"):
            biorthonormalize(stack, space)

    @pytest.mark.parametrize("N, M", [(2, 16), (8, 256), (53, 424)])
    def test_h_norm_and_inner_of_a_stack(self, N, M):
        # the coefficient-space forms over the analysed rows are the H norm
        # and h_inner of each row alone, bit for bit
        space = make_space(N=N, p=3, resolution=M)
        rng = np.random.default_rng(M)
        u, v = (rng.standard_normal((5, M)) + 1j * rng.standard_normal((5, M)) for _ in range(2))
        cu, cv = analyze(u, space.basis), analyze(v, space.basis)
        norms, inners = (coefficient_h_norm(cu, space.weights),
                         coefficient_h_inner(cu, cv, space.weights))
        for k in range(5):
            uk, vk = GridFunction(u[k]), GridFunction(v[k])
            assert norms[k].tobytes() == np.float64(h_norm(uk, space)).tobytes()
            assert inners[k].tobytes() == np.complex128(h_inner(uk, vk, space)).tobytes()


class TestGram:
    def test_two_member_diagonal(self):
        g = gram_matrix(make_space(N=2))
        np.testing.assert_allclose(g, np.diag([0.5, 0.25]), atol=1e-12)

    def test_single_member(self):
        g = gram_matrix(make_space(N=1))
        np.testing.assert_allclose(g, [[0.5]], atol=1e-12)

    def test_off_diagonal_reference_resolution(self):
        g = gram_matrix(EmbeddingSpace(dyadic_weights(8), 3, 4096))
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) <= 1e-8


class TestJb:
    def test_gram_diagonal_value(self):
        space = make_space()
        e1 = space.basis.synthesis[0]
        assert jb_at(e1, e1, space) == pytest.approx(0.5, abs=1e-12)

    def test_zero_functional(self):
        space = make_space()
        z = np.zeros(128, dtype=np.complex128)
        assert jb_at(space.basis.synthesis[1], z, space) == 0

    def test_additivity(self):
        rng = np.random.default_rng(5)
        space = make_space(p=3)
        u, w, v = (random_poly(space, rng).values for _ in range(3))
        lhs = jb_at(v, u + w, space)
        rhs = jb_at(v, u, space) + jb_at(v, w, space)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_conjugate_homogeneity(self):
        rng = np.random.default_rng(6)
        space = make_space()
        u, v = random_poly(space, rng).values, random_poly(space, rng).values
        a = 1.3 - 0.7j
        lhs = jb_at(v, a * u, space)
        rhs = np.conj(a) * jb_at(v, u, space)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestGramSchmidt:
    @staticmethod
    def pairings(psis, representers, space):
        """[i, j] = <psi_i, psi*_j>, the dual with representer j applied to psi_i."""
        return jb_at(psis[:, None, :], representers[None, :, :], space)

    def test_already_orthogonal(self):
        space = make_space()
        es = space.basis.synthesis[:2]
        psis, representers = biorthonormalize(es, space)
        assert np.max(lp_norm_rows(psis - es, np.inf)) <= 1e-10
        np.testing.assert_allclose(self.pairings(psis, representers, space), np.eye(2),
                                   rtol=0, atol=1e-10)

    def test_single_vector(self):
        rng = np.random.default_rng(8)
        space = make_space(p=2.5)
        v = random_poly(space, rng).values
        psis, representers = biorthonormalize(v[None, :], space)
        assert lp_norm_rows(psis[0], 2.5) == pytest.approx(1.0, abs=1e-10)
        assert jb_at(psis[0], representers[0], space) == pytest.approx(1.0, abs=1e-10)

    def test_random_triple_biorthonormal(self):
        rng = np.random.default_rng(9)
        space = make_space(N=6, p=3, resolution=256)
        vs = np.stack([random_poly(space, rng).values for _ in range(3)])
        psis, representers = biorthonormalize(vs, space)
        np.testing.assert_allclose(self.pairings(psis, representers, space), np.eye(3),
                                   atol=1e-8)
        np.testing.assert_allclose(lp_norm_rows(psis, 3), 1.0, rtol=0, atol=1e-8)

    def test_h_orthogonality_of_intermediates(self):
        rng = np.random.default_rng(10)
        space = make_space(N=6, p=2, resolution=256)
        vs = np.stack([random_poly(space, rng).values for _ in range(4)])
        psis, _ = biorthonormalize(vs, space)
        for i in range(4):
            for j in range(i):
                assert abs(jb_at(psis[i], psis[j], space)) <= 1e-8

    def test_rank_deficiency_reports_index(self):
        space = make_space()
        e1 = space.basis.synthesis[0]
        with pytest.raises(ValueError, match="index 1"):
            biorthonormalize(np.stack([e1, 2.0 * e1]), space)
