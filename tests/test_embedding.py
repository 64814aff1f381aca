import numpy as np
import pytest

from helpers import random_poly

from almosthilbert import embedding
from almosthilbert.embedding import (
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
    fourier_sbasis,
    lp_norm,
)


def make_h(N=4, p=2, resolution=128):
    """H at truncation N: the basis and its dyadic weights."""
    return fourier_sbasis(N, p, resolution), dyadic_weights(N)


def h_norm(u, basis, w):
    return coefficient_h_norm(coefficients(u, basis), w)


def jb_at(v, u, basis, w):
    """<v, J_B(u)> = (v, u)_H of grid values v and u, on their coefficients."""
    return coefficient_h_inner(analyze(v, basis), analyze(u, basis), w)


def member(basis, n):
    return GridFunction(basis.synthesis[n])


class TestWeights:
    def test_dyadic_exact(self):
        w = dyadic_weights(4)
        np.testing.assert_array_equal(w, [0.5, 0.25, 0.125, 0.0625])

    def test_partial_sum_below_one(self):
        for n in (1, 8, 30):
            assert dyadic_weights(n).sum() < 1.0


class TestHInner:
    def test_first_member_self_pairing(self):
        basis, w = make_h()
        e1 = member(basis, 0)
        assert h_inner(e1, e1, basis, w) == pytest.approx(0.5, abs=1e-12)

    def test_cross_member_vanishes(self):
        basis, w = make_h()
        e1, e2 = member(basis, 0), member(basis, 1)
        assert abs(h_inner(e1, e2, basis, w)) <= 1e-12

    def test_zero_vector(self):
        basis, w = make_h()
        z = GridFunction(np.zeros(128))
        assert h_inner(member(basis, 0), z, basis, w) == 0

    def test_hermitian(self):
        rng = np.random.default_rng(2)
        basis, w = make_h(p=3)
        u, v = random_poly(basis, rng), random_poly(basis, rng)
        assert h_inner(u, v, basis, w) == pytest.approx(np.conj(h_inner(v, u, basis, w)))


class TestHNorm:
    def test_member_norms(self):
        basis, w = make_h(N=5)
        for n in range(1, len(basis) + 1):
            m = member(basis, n - 1)
            assert h_norm(m, basis, w) == pytest.approx(2.0 ** (-n / 2), abs=1e-12)

    def test_zero(self):
        basis, w = make_h()
        assert h_norm(GridFunction(np.zeros(128)), basis, w) == 0.0

    def test_bounded_by_sup_coefficient(self):
        rng = np.random.default_rng(3)
        basis, w = make_h(N=8, p=2, resolution=256)
        for _ in range(50):
            u = random_poly(basis, rng)
            c = coefficients(u, basis)
            assert h_norm(u, basis, w) <= np.max(np.abs(c)) + 1e-12

    @pytest.mark.parametrize("p", [1.5, 2, 3, 4])
    def test_norm_chain_random(self, p):
        rng = np.random.default_rng(4)
        basis, w = make_h(N=8, p=p, resolution=256)
        for _ in range(30):
            u = random_poly(basis, rng)
            assert h_norm(u, basis, w) <= lp_norm(u.values, p) + 5e-7


class TestRowsBitwise:
    @pytest.mark.parametrize("N, M", [(4, 128), (53, 424)])
    def test_biorthonormalize_a_stack(self, N, M):
        # each stack entry is biorthonormalize of its vectors alone
        basis, w = make_h(N=N, p=3, resolution=M)
        rng = np.random.default_rng(N)
        stack = np.stack([[random_poly(basis, rng).values for _ in range(4)] for _ in range(3)])
        psis, representers = biorthonormalize(stack, basis, w)
        for t in range(3):
            alone, duals = biorthonormalize(stack[t], basis, w)
            assert psis[t].tobytes() == alone.tobytes()
            assert representers[t].tobytes() == duals.tobytes()

    def test_biorthonormalize_names_the_dependent_index(self):
        basis, w = make_h()
        e1 = basis.synthesis[0]
        stack = np.stack([[e1, e1 * 1j], [e1, 2.0 * e1]])
        with pytest.raises(ValueError, match="index 1"):
            biorthonormalize(stack, basis, w)

    @pytest.mark.parametrize("N, M", [(2, 16), (8, 256), (53, 424)])
    def test_h_norm_and_inner_of_a_stack(self, N, M):
        # the coefficient-space forms over the analysed rows are the H norm
        # and h_inner of each row alone, bit for bit
        basis, w = make_h(N=N, p=3, resolution=M)
        rng = np.random.default_rng(M)
        u, v = (rng.standard_normal((5, M)) + 1j * rng.standard_normal((5, M)) for _ in range(2))
        cu, cv = analyze(u, basis), analyze(v, basis)
        norms, inners = coefficient_h_norm(cu, w), coefficient_h_inner(cu, cv, w)
        for k in range(5):
            uk, vk = GridFunction(u[k]), GridFunction(v[k])
            assert norms[k].tobytes() == np.float64(h_norm(uk, basis, w)).tobytes()
            assert inners[k].tobytes() == np.complex128(h_inner(uk, vk, basis, w)).tobytes()


class TestGram:
    def test_two_member_diagonal(self):
        g = gram_matrix(*make_h(N=2))
        np.testing.assert_allclose(g, np.diag([0.5, 0.25]), atol=1e-12)

    def test_single_member(self):
        g = gram_matrix(*make_h(N=1))
        np.testing.assert_allclose(g, [[0.5]], atol=1e-12)

    def test_off_diagonal_reference_resolution(self):
        g = gram_matrix(*make_h(N=8, p=3, resolution=4096))
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) <= 1e-8


class TestJb:
    def test_gram_diagonal_value(self):
        basis, w = make_h()
        e1 = basis.synthesis[0]
        assert jb_at(e1, e1, basis, w) == pytest.approx(0.5, abs=1e-12)

    def test_zero_functional(self):
        basis, w = make_h()
        z = np.zeros(128, dtype=np.complex128)
        assert jb_at(basis.synthesis[1], z, basis, w) == 0

    def test_additivity(self):
        rng = np.random.default_rng(5)
        basis, w = make_h(p=3)
        u, x, v = (random_poly(basis, rng).values for _ in range(3))
        lhs = jb_at(v, u + x, basis, w)
        rhs = jb_at(v, u, basis, w) + jb_at(v, x, basis, w)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_conjugate_homogeneity(self):
        rng = np.random.default_rng(6)
        basis, w = make_h()
        u, v = random_poly(basis, rng).values, random_poly(basis, rng).values
        a = 1.3 - 0.7j
        lhs = jb_at(v, a * u, basis, w)
        rhs = np.conj(a) * jb_at(v, u, basis, w)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestGramSchmidt:
    @staticmethod
    def pairings(psis, representers, basis, w):
        """[i, j] = <psi_i, psi*_j>, the dual with representer j applied to psi_i."""
        return jb_at(psis[:, None, :], representers[None, :, :], basis, w)

    def test_already_orthogonal(self):
        basis, w = make_h()
        es = basis.synthesis[:2]
        psis, representers = biorthonormalize(es, basis, w)
        assert np.max(lp_norm(psis - es, np.inf)) <= 1e-10
        np.testing.assert_allclose(self.pairings(psis, representers, basis, w), np.eye(2),
                                   rtol=0, atol=1e-10)

    def test_single_vector(self):
        rng = np.random.default_rng(8)
        basis, w = make_h(p=2.5)
        v = random_poly(basis, rng).values
        psis, representers = biorthonormalize(v[None, :], basis, w)
        assert lp_norm(psis[0], 2.5) == pytest.approx(1.0, abs=1e-10)
        assert jb_at(psis[0], representers[0], basis, w) == pytest.approx(1.0, abs=1e-10)

    def test_random_triple_biorthonormal(self):
        rng = np.random.default_rng(9)
        basis, w = make_h(N=6, p=3, resolution=256)
        vs = np.stack([random_poly(basis, rng).values for _ in range(3)])
        psis, representers = biorthonormalize(vs, basis, w)
        np.testing.assert_allclose(self.pairings(psis, representers, basis, w), np.eye(3),
                                   atol=1e-8)
        np.testing.assert_allclose(lp_norm(psis, 3), 1.0, rtol=0, atol=1e-8)

    def test_h_orthogonality_of_intermediates(self):
        rng = np.random.default_rng(10)
        basis, w = make_h(N=6, p=2, resolution=256)
        vs = np.stack([random_poly(basis, rng).values for _ in range(4)])
        psis, _ = biorthonormalize(vs, basis, w)
        for i in range(4):
            for j in range(i):
                assert abs(jb_at(psis[i], psis[j], basis, w)) <= 1e-8

    def test_analyzes_its_input_once(self, monkeypatch):
        # the Gram-Schmidt steps take their inner products on coefficients,
        # so a call analyzes the whole (..., k, M) stack once, not once per
        # inner product
        rng = np.random.default_rng(11)
        basis, w = make_h(N=5, p=3, resolution=256)
        stack = np.stack([[random_poly(basis, rng).values for _ in range(4)] for _ in range(5)])
        shapes = []

        def counted(values, b):
            shapes.append(values.shape)
            return analyze(values, b)

        monkeypatch.setattr(embedding, "analyze", counted)
        biorthonormalize(stack, basis, w)
        assert shapes == [(5, 4, 256)]

    def test_rank_deficiency_reports_index(self):
        basis, w = make_h()
        e1 = basis.synthesis[0]
        with pytest.raises(ValueError, match="index 1"):
            biorthonormalize(np.stack([e1, 2.0 * e1]), basis, w)
