import numpy as np
import pytest

from helpers import random_poly

from almosthilbert.embedding import (
    biorthonormalize,
    coefficient_h_inner,
    coefficient_h_norm,
    dyadic_weights,
    embedding_space,
    evaluate,
    gram_matrix,
    gram_schmidt_biorthonormal,
    h_inner,
    h_norm,
    jb_apply,
)
from almosthilbert.spaces import GridFunction, analyze, coefficients, fourier_sbasis, lp_norm


def make_space(N=4, p=2, resolution=128):
    return embedding_space(fourier_sbasis(N, p, resolution))


class TestWeights:
    def test_dyadic_exact(self):
        w = dyadic_weights(4)
        np.testing.assert_array_equal(w, [0.5, 0.25, 0.125, 0.0625])

    def test_partial_sum_below_one(self):
        for n in (1, 8, 30):
            assert dyadic_weights(n).sum() < 1.0

    def test_rejects_bad_weights(self):
        basis = fourier_sbasis(2, 2, 64)
        with pytest.raises(ValueError):
            embedding_space(basis, weights=[0.5, -0.1])
        with pytest.raises(ValueError):
            embedding_space(basis, weights=[0.9, 0.2])


class TestHInner:
    def test_first_member_self_pairing(self):
        space = make_space()
        e1 = space.basis.member(0)
        assert h_inner(e1, e1, space) == pytest.approx(0.5, abs=1e-12)

    def test_cross_member_vanishes(self):
        space = make_space()
        e1, e2 = space.basis.member(0), space.basis.member(1)
        assert abs(h_inner(e1, e2, space)) <= 1e-12

    def test_zero_vector(self):
        space = make_space()
        z = GridFunction(np.zeros(128))
        assert h_inner(space.basis.member(0), z, space) == 0

    def test_hermitian(self):
        rng = np.random.default_rng(2)
        space = make_space(p=3)
        u, v = random_poly(space, rng), random_poly(space, rng)
        assert h_inner(u, v, space) == pytest.approx(np.conj(h_inner(v, u, space)))


class TestHNorm:
    def test_member_norms(self):
        space = make_space(N=5)
        for n in range(1, space.dim + 1):
            m = space.basis.member(n - 1)
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
        # each stack entry is gram_schmidt_biorthonormal of its vectors alone
        space = make_space(N=N, p=3, resolution=M)
        rng = np.random.default_rng(N)
        stack = np.stack([[random_poly(space, rng).values for _ in range(4)] for _ in range(3)])
        psis, representers = biorthonormalize(stack, space)
        for t in range(3):
            alone, duals = gram_schmidt_biorthonormal([GridFunction(v) for v in stack[t]], space)
            assert psis[t].tobytes() == np.stack([psi.values for psi in alone]).tobytes()
            assert representers[t].tobytes() == np.stack(
                [F.representer.values for F in duals]).tobytes()

    def test_biorthonormalize_names_the_dependent_index(self):
        space = make_space()
        e1 = space.basis.member(0).values
        stack = np.stack([[e1, e1 * 1j], [e1, 2.0 * e1]])
        with pytest.raises(ValueError, match="index 1"):
            biorthonormalize(stack, space)

    @pytest.mark.parametrize("N, M", [(2, 16), (8, 256), (53, 424)])
    def test_h_norm_and_inner_of_a_stack(self, N, M):
        # the coefficient-space forms over the analysed rows are h_norm and
        # h_inner of each row alone, bit for bit
        space = make_space(N=N, p=3, resolution=M)
        rng = np.random.default_rng(M)
        u, v = (rng.standard_normal((5, M)) + 1j * rng.standard_normal((5, M)) for _ in range(2))
        cu, cv = analyze(u, space.basis), analyze(v, space.basis)
        norms, inners = coefficient_h_norm(cu, space), coefficient_h_inner(cu, cv, space)
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
        g = gram_matrix(embedding_space(fourier_sbasis(8, 3, 4096)))
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) <= 1e-8


class TestJb:
    def test_gram_diagonal_value(self):
        space = make_space()
        e1 = space.basis.member(0)
        assert evaluate(jb_apply(e1, space), e1) == pytest.approx(0.5, abs=1e-12)

    def test_zero_functional(self):
        space = make_space()
        z = GridFunction(np.zeros(128))
        v = space.basis.member(1)
        assert evaluate(jb_apply(z, space), v) == 0

    def test_additivity(self):
        rng = np.random.default_rng(5)
        space = make_space(p=3)
        u, w, v = (random_poly(space, rng) for _ in range(3))
        lhs = evaluate(jb_apply(u + w, space), v)
        rhs = evaluate(jb_apply(u, space), v) + evaluate(jb_apply(w, space), v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_conjugate_homogeneity(self):
        rng = np.random.default_rng(6)
        space = make_space()
        u, v = random_poly(space, rng), random_poly(space, rng)
        a = 1.3 - 0.7j
        lhs = evaluate(jb_apply(a * u, space), v)
        rhs = np.conj(a) * evaluate(jb_apply(u, space), v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestGramSchmidt:
    def test_already_orthogonal(self):
        space = make_space()
        e1, e2 = space.basis.member(0), space.basis.member(1)
        psis, duals = gram_schmidt_biorthonormal([e1, e2], space)
        for psi, e in zip(psis, (e1, e2)):
            assert lp_norm(psi - e, np.inf) <= 1e-10
        for i, psi in enumerate(psis):
            for j, F in enumerate(duals):
                assert abs(evaluate(F, psi) - (1.0 if i == j else 0.0)) <= 1e-10

    def test_single_vector(self):
        rng = np.random.default_rng(8)
        space = make_space(p=2.5)
        v = random_poly(space, rng)
        psis, duals = gram_schmidt_biorthonormal([v], space)
        assert lp_norm(psis[0], 2.5) == pytest.approx(1.0, abs=1e-10)
        assert evaluate(duals[0], psis[0]) == pytest.approx(1.0, abs=1e-10)

    def test_random_triple_biorthonormal(self):
        rng = np.random.default_rng(9)
        space = make_space(N=6, p=3, resolution=256)
        vs = [random_poly(space, rng) for _ in range(3)]
        psis, duals = gram_schmidt_biorthonormal(vs, space)
        mat = np.array([[evaluate(F, psi) for F in duals] for psi in psis])
        np.testing.assert_allclose(mat, np.eye(3), atol=1e-8)
        for psi in psis:
            assert lp_norm(psi, 3) == pytest.approx(1.0, abs=1e-8)

    def test_h_orthogonality_of_intermediates(self):
        rng = np.random.default_rng(10)
        space = make_space(N=6, p=2, resolution=256)
        vs = [random_poly(space, rng) for _ in range(4)]
        psis, _ = gram_schmidt_biorthonormal(vs, space)
        for i in range(4):
            for j in range(i):
                assert abs(h_inner(psis[i], psis[j], space)) <= 1e-8

    def test_rank_deficiency_reports_index(self):
        space = make_space()
        e1 = space.basis.member(0)
        with pytest.raises(ValueError, match="index 1"):
            gram_schmidt_biorthonormal([e1, 2.0 * e1], space)
