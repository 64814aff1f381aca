import numpy as np
import pytest

from helpers import (
    apply_op,
    identity_operator,
    make_basis,
    rand_complex,
    rand_operator,
    rand_selfadjoint,
    random_poly,
    run_check,
)

from almosthilbert import numerics
from almosthilbert.embedding import coefficient_h_norm, dyadic_weights, h_inner
from almosthilbert.operators import (
    BOperator,
    adjoint,
    adjoint_algebra_defect,
    adjoint_identity_defect,
    b_opnorm_estimate,
    from_h_matrix,
    h_eigen,
    h_matrix,
    h_opnorm,
    is_naturally_selfadjoint,
    lax_check,
    lax_khat,
    minmax_eigenvalue,
    polar_decompose,
    self_conjugacy_check,
    spectral_decompose,
)
from almosthilbert.spaces import (
    GridFunction,
    coefficients,
    lp_norm_rows,
    reconstruct,
)
from almosthilbert.suites import SuiteParams


class TestAdjoint:
    def test_identity(self):
        I = identity_operator(dyadic_weights(4))
        np.testing.assert_array_equal(adjoint(I).matrix, I.matrix)

    def test_two_by_two_closed_form(self):
        # W = diag(1/2, 1/4): (W^{-1} A^H W)_{21} = conj(A_12) t_1 / t_2 = 2
        w = dyadic_weights(2)
        A = BOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), w)
        np.testing.assert_allclose(adjoint(A).matrix, [[0.0, 0.0], [2.0, 0.0]], atol=1e-15)

    def test_two_by_two_defining_identity(self):
        basis, w = make_basis(N=2), dyadic_weights(2)
        A = BOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), w)
        astar = adjoint(A)
        e1, e2 = (GridFunction(e) for e in basis.synthesis[:2])
        # h(A e2, e1) must equal h(e2, A* e1); the closed form above is the
        # unique matrix doing so.
        lhs = h_inner(apply_op(A, e2, basis), e1, basis, w)
        rhs = h_inner(e2, apply_op(astar, e1, basis), basis, w)
        assert lhs == pytest.approx(0.5, abs=1e-12)
        assert rhs == pytest.approx(lhs, abs=1e-12)

    def test_defining_identity_random(self):
        rng = np.random.default_rng(1)
        basis, w = make_basis(N=8, p=3, resolution=128), dyadic_weights(8)
        for _ in range(50):
            A = rand_operator(w, rng)
            astar = adjoint(A)
            u, v = random_poly(basis, rng), random_poly(basis, rng)
            lhs = h_inner(apply_op(A, u, basis), v, basis, w)
            rhs = h_inner(u, apply_op(astar, v, basis), basis, w)
            hu, hv = (coefficient_h_norm(coefficients(f, basis), w) for f in (u, v))
            bound = 1e-10 * h_opnorm(A) * hu * hv
            assert abs(lhs - rhs) <= bound


class TestAdjointAlgebra:
    def test_identity_pair(self):
        w = dyadic_weights(4)
        I = identity_operator(w)
        assert adjoint_algebra_defect(I, I, 1j) <= 1e-14

    def test_zero_scalar(self):
        w = dyadic_weights(4)
        rng = np.random.default_rng(2)
        A, B = rand_operator(w, rng), rand_operator(w, rng)
        assert adjoint_algebra_defect(A, B, 0.0) <= 1e-10

    @pytest.mark.parametrize("weights", [[0.5, 0.25, 0.125, 0.1], dyadic_weights(3)],
                             ids=["weights", "length"])
    def test_operators_on_different_spaces_refused(self, weights):
        # operators are compared by their weights alone
        A = BOperator(np.eye(4), dyadic_weights(4))
        B = BOperator(2 * np.eye(len(weights)), weights)
        for combine in (A.__matmul__,
                        lambda B: adjoint_algebra_defect(A, B, 1.0)):
            with pytest.raises(ValueError, match="different spaces"):
                combine(B)
        # weights made afresh with the same entries are the same space
        same = BOperator(2 * np.eye(4), dyadic_weights(4))
        np.testing.assert_array_equal((A @ same).matrix, 2 * np.eye(4))
        assert adjoint_algebra_defect(A, same, 1.0) == 0.0

    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_random_pairs(self, N):
        rng = np.random.default_rng(3)
        w = dyadic_weights(N)
        for _ in range(20):
            A, B = rand_operator(w, rng), rand_operator(w, rng)
            a = complex(rng.standard_normal(), rng.standard_normal())
            defect = adjoint_algebra_defect(A, B, a)
            assert defect <= 1e-10, defect

    def test_product_positive_spectrum(self):
        rng = np.random.default_rng(4)
        w = dyadic_weights(8)
        for _ in range(20):
            A = rand_operator(w, rng)
            prod = adjoint(A) @ A
            lam = numerics.general_eigenvalues(prod.matrix)
            assert np.max(np.abs(lam.imag)) <= 1e-10 * max(1.0, np.max(np.abs(lam)))
            assert np.min(lam.real) >= -1e-10 * max(1.0, np.max(np.abs(lam)))


class TestNormInequality:
    def test_h_metric_product_norm(self):
        rng = np.random.default_rng(5)
        w = dyadic_weights(8)
        for _ in range(10):
            A = rand_operator(w, rng)
            assert h_opnorm(adjoint(A) @ A) == pytest.approx(h_opnorm(A) ** 2, rel=1e-8)

    def test_selfadjoint_h_product(self):
        rng = np.random.default_rng(6)
        w = dyadic_weights(6)
        A = rand_selfadjoint(w, rng)
        prod = adjoint(A) @ A
        assert h_opnorm(prod) == pytest.approx(h_opnorm(A) ** 2, rel=1e-10)


class TestPredicates:
    def test_identity_all_three(self):
        I = identity_operator(dyadic_weights(4))
        assert is_naturally_selfadjoint(I)

    def test_real_diagonal_selfadjoint(self):
        w = dyadic_weights(2)
        A = BOperator(np.diag([1.0, 2.0]), w)
        assert is_naturally_selfadjoint(A)

    def test_nilpotent_none(self):
        w = dyadic_weights(2)
        A = BOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), w)
        assert not is_naturally_selfadjoint(A)


class TestLax:
    def test_identity(self):
        I = identity_operator(dyadic_weights(4))
        assert lax_check(I) <= 1e-8
        # ||I||_H = 1, and the 3-norm estimate of the identity is 1 as well
        assert lax_khat(I, p=3) == pytest.approx(1.0, abs=1e-12)

    def test_product_operator_spectrum(self):
        rng = np.random.default_rng(8)
        w = dyadic_weights(8)
        A = rand_operator(w, rng)
        T = adjoint(A) @ A
        assert lax_check(T) <= 1e-8

    def test_diagonal_constant(self):
        w = dyadic_weights(3)
        T = BOperator(np.diag([3.0, 1.0, 0.5]), w)
        assert 0 < lax_khat(T, p=4) <= 1.0 + 1e-9

    def test_rejects_asymmetric(self):
        w = dyadic_weights(2)
        T = BOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), w)
        with pytest.raises(ValueError, match="H-symmetric"):
            lax_check(T)
        with pytest.raises(ValueError, match="H-symmetric"):
            lax_khat(T, p=2)


class TestSelfConjugacy:
    TGRID = (0.25, 0.75)

    def test_real_diagonal(self):
        w = dyadic_weights(2)
        assert self_conjugacy_check(BOperator(np.diag([1.0, 2.0]), w), self.TGRID)

    def test_nilpotent(self):
        w = dyadic_weights(2)
        assert not self_conjugacy_check(
            BOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), w), self.TGRID
        )

    def test_zero(self):
        w = dyadic_weights(4)
        assert self_conjugacy_check(BOperator(np.zeros((len(w), len(w))), w), self.TGRID)

    def test_equivalence_sample(self):
        rng = np.random.default_rng(10)
        w = dyadic_weights(6)
        for _ in range(20):
            A = rand_selfadjoint(w, rng)
            assert self_conjugacy_check(A, self.TGRID) == is_naturally_selfadjoint(A, tol=1e-8)
        for _ in range(20):
            A = rand_operator(w, rng)
            assert self_conjugacy_check(A, self.TGRID) == is_naturally_selfadjoint(A, tol=1e-8)


class TestPolar:
    def test_identity(self):
        w = dyadic_weights(4)
        U, T = polar_decompose(identity_operator(w))
        np.testing.assert_allclose(U.matrix, np.eye(len(w)), atol=1e-12)
        np.testing.assert_allclose(T.matrix, np.eye(len(w)), atol=1e-12)

    def test_positive_selfadjoint_gives_identity_isometry(self):
        rng = np.random.default_rng(11)
        w = dyadic_weights(5)
        A = rand_selfadjoint(w, rng)
        pos = BOperator((adjoint(A) @ A).matrix + 0.1 * np.eye(len(w)), w)
        U, T = polar_decompose(pos)
        np.testing.assert_allclose(U.matrix, np.eye(5), atol=1e-8)
        np.testing.assert_allclose(T.matrix, pos.matrix, atol=1e-8 * np.linalg.norm(pos.matrix))

    def test_random_reconstruction(self):
        rng = np.random.default_rng(12)
        w = dyadic_weights(12)
        for _ in range(10):
            A = rand_operator(w, rng)
            U, T = polar_decompose(A)
            scale = np.linalg.norm(A.matrix)
            assert np.linalg.norm((U @ T).matrix - A.matrix) <= 1e-9 * scale
            assert np.linalg.norm(T.matrix - adjoint(T).matrix) <= 1e-9 * max(1.0, scale)
            th = h_matrix(T)
            assert np.min(numerics.hermitian_eigen((th + th.conj().T) / 2).values) >= -1e-9 * scale
            uh = h_matrix(U)
            np.testing.assert_allclose(uh.conj().T @ uh, np.eye(12), atol=1e-9)

    def test_factors_accurate_in_h_at_dim_53(self):
        # h(U) h(T) = h(A) to rounding in the H metric at every N; only the
        # coordinate residual grows with the 2^(N-1) spread of the weights
        rng = np.random.default_rng(53)
        w = dyadic_weights(53)
        coordinate = []
        for _ in range(5):
            A = rand_operator(w, rng)
            U, T = polar_decompose(A)
            ah = h_matrix(A)
            assert np.linalg.norm(h_matrix(U) @ h_matrix(T) - ah) <= 1e-13 * np.linalg.norm(ah)
            coordinate.append(np.linalg.norm((U @ T).matrix - A.matrix) / np.linalg.norm(A.matrix))
        assert max(coordinate) > 1e-9

    def test_rank_deficient_still_reconstructs(self):
        w = dyadic_weights(4)
        rng = np.random.default_rng(13)
        u = rand_complex(rng, 4)
        A = from_h_matrix(np.outer(u, u.conj()), w)  # rank one
        U, T = polar_decompose(A)
        assert np.linalg.norm((U @ T).matrix - A.matrix) <= 1e-9 * np.linalg.norm(A.matrix)


class TestSpectral:
    def test_identity(self):
        w = dyadic_weights(4)
        values, projections = spectral_decompose(identity_operator(w))
        assert values.shape == (len(w),)
        assert projections.matrix.shape == (len(w), len(w), len(w))
        assert values[0] == pytest.approx(1.0)
        np.testing.assert_allclose(projections.matrix[0], np.eye(len(w)), atol=1e-10)

    def test_degenerate_diagonal(self):
        w = dyadic_weights(3)
        values, projections = spectral_decompose(BOperator(np.diag([1.0, 1.0, 2.0]), w))
        np.testing.assert_allclose(values, [2.0, 1.0, 0.0], atol=1e-10)
        ranks = [round(np.trace(P).real) for P in projections.matrix]
        assert ranks == [1, 2, 0]

    def test_padding_slots_are_exact_zeros(self):
        # a slice with fewer clusters than N keeps 0 and the zero operator in
        # the slots past its last cluster; 2I has one slot, and it is I
        w = dyadic_weights(4)
        stack = BOperator(np.stack([2.0 * np.eye(4), np.diag([1.0, 1.0, 3.0, 3.0])]), w)
        values, projections = spectral_decompose(stack)
        p = projections.matrix
        np.testing.assert_allclose(values[:, :2], [[2.0, 0.0], [3.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(p[0, 0], np.eye(4), atol=1e-12)
        assert not values[0, 1:].any() and not p[0, 1:].any()
        assert not values[1, 2:].any() and not p[1, 2:].any()

    def test_random_axioms_and_reconstruction(self):
        rng = np.random.default_rng(14)
        w = dyadic_weights(10)
        A = rand_selfadjoint(w, rng)
        values, resolution = spectral_decompose(A)
        scale = max(1.0, np.linalg.norm(A.matrix))
        projections = [BOperator(P, w) for P in resolution.matrix]
        recon = sum(x * P.matrix for x, P in zip(values, projections))
        assert np.linalg.norm(recon - A.matrix) <= 1e-8 * scale
        total = sum(P.matrix for P in projections)
        np.testing.assert_allclose(total, np.eye(10), atol=1e-8)
        for j, P in enumerate(projections):
            assert np.linalg.norm((P @ P).matrix - P.matrix) <= 1e-8 * scale
            assert np.linalg.norm(P.matrix - adjoint(P).matrix) <= 1e-8 * scale
            for kk, Q in enumerate(projections):
                if j != kk:
                    assert np.linalg.norm((P @ Q).matrix) <= 1e-8 * scale

    def test_rejects_non_selfadjoint(self):
        w = dyadic_weights(2)
        with pytest.raises(ValueError, match="self-adjoint"):
            spectral_decompose(BOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), w))


class TestMinMax:
    def test_identity(self):
        w = dyadic_weights(4)
        for k in (1, len(w)):
            assert minmax_eigenvalue(identity_operator(w), k, trials=2, seed=0) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_top(self):
        w = dyadic_weights(3)
        A = BOperator(np.diag([3.0, 2.0, 1.0]), w)
        assert minmax_eigenvalue(A, 1, trials=4, seed=1) == pytest.approx(3.0, abs=1e-8)

    def test_matches_direct_eigen(self):
        rng = np.random.default_rng(15)
        w = dyadic_weights(8)
        A = rand_selfadjoint(w, rng)
        mh = h_matrix(A)
        direct = numerics.hermitian_eigen((mh + mh.conj().T) / 2).values
        for k in (1, 2, 5, 8):
            est = minmax_eigenvalue(A, k, trials=6, seed=2)
            assert est == pytest.approx(direct[k - 1], abs=1e-6 * max(1.0, abs(direct[k - 1])))

    def test_rejects_out_of_range(self):
        w = dyadic_weights(3)
        A = identity_operator(w)
        for k in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                minmax_eigenvalue(A, k)

    @staticmethod
    def assert_witnesses(A, ks, trials):
        direct = h_eigen(h_matrix(A)).values
        scale = max(1.0, float(np.max(np.abs(direct))))
        for k in ks:
            est = minmax_eigenvalue(A, k, trials=trials, seed=k)
            lam = float(direct[k - 1])
            assert abs(est - lam) <= 1e-9 * max(1.0, abs(lam)), (k, est, lam)
            # the minimal Rayleigh quotient of a k-dimensional subspace
            # never exceeds lambda_k (Courant-Fischer)
            assert est <= lam + 1e-12 * scale, (k, est, lam)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32])
    def test_every_index_matches_direct_eigen(self, n):
        rng = np.random.default_rng(16 + n)
        self.assert_witnesses(rand_selfadjoint(dyadic_weights(n), rng), range(1, n + 1), trials=2)

    @pytest.mark.parametrize("n", [3, 8, 16, 32])
    def test_index_past_half_keeps_residual(self, n):
        # k = n // 2 + 1 makes [X, R] wider than n; without the residual the
        # search space is span(X), X never moves, and the estimate is the
        # minimal Rayleigh quotient of the random start
        rng = np.random.default_rng(48 + n)
        self.assert_witnesses(rand_selfadjoint(dyadic_weights(n), rng), [n // 2 + 1], trials=4)

    @pytest.fixture
    def eigen_calls(self, monkeypatch):
        calls = []
        real = numerics.hermitian_eigen

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(numerics, "hermitian_eigen", counting)
        return calls

    def test_check_makes_few_eigen_calls(self, monkeypatch, eigen_calls):
        check = run_check(monkeypatch, "minmax-matches-direct", SuiteParams())
        assert check.worst_violation <= check.params["tol"] and check.samples == 30
        assert len(eigen_calls) <= 1000

    def test_index_between_third_and_half_keeps_direction(self, eigen_calls):
        # for n/3 < k < n/2, [X, R] without the previous direction is block
        # steepest descent: 18 to 47 eigen calls per trial on this operator,
        # against 4 with the direction kept
        calls = eigen_calls
        n, trials = 32, 2
        A = rand_selfadjoint(dyadic_weights(n), np.random.default_rng(7))
        for k in range(n // 3 + 1, (n + 1) // 2):
            calls.clear()
            minmax_eigenvalue(A, k, trials=trials, seed=k)
            assert len(calls) <= 5 * trials, (k, len(calls))


def reference_algebra_defect(A, B, a):
    """The *-algebra defect of one operator pair, one identity at a time."""
    def rel(lhs, rhs):
        scale = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)), 1.0)
        return float(np.linalg.norm(lhs - rhs)) / scale

    astar, bstar = adjoint(A), adjoint(B)
    return max(rel(adjoint(BOperator(complex(a) * A.matrix, A.weights)).matrix,
                   complex(np.conj(a)) * astar.matrix),
               rel(adjoint(astar).matrix, A.matrix),
               rel(adjoint(BOperator(A.matrix + B.matrix, A.weights)).matrix,
                   astar.matrix + bstar.matrix),
               rel(adjoint(A @ B).matrix, (bstar @ astar).matrix),
               rel(adjoint(astar @ A).matrix, (astar @ A).matrix))


def reference_spectral(A):
    """The spectral resolution of one operator, one cluster at a time:
    cluster values and the stack of their projections' coordinate matrices."""
    vals, vecs = h_eigen(h_matrix(A))
    scale = max(1.0, float(np.max(np.abs(vals))))
    clusters = [[0]]
    for i in range(1, len(vals)):
        if abs(vals[i] - vals[clusters[-1][0]]) <= 1e-8 * scale:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    projections = []
    for idx in clusters:
        v = vecs[:, idx]
        projections.append(from_h_matrix(v @ v.conj().T, A.weights).matrix)
    return (np.array([float(np.mean(vals[idx])) for idx in clusters]), np.array(projections))


def reference_minmax(A, k, trials, seed):
    """The min-max estimate of one operator, one trial at a time."""
    def sym(m):
        return (m + m.conj().T) / 2.0

    s = sym(h_matrix(A))
    n = len(s)
    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(trials):
        x = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        x, _ = np.linalg.qr(x)
        sx = s @ x
        direction = None
        prev = np.inf
        for _ in range(2000):
            resid = sx - x @ (x.conj().T @ sx)
            blocks = [x, resid] if direction is None else [x, resid, direction]
            basis, _ = np.linalg.qr(np.hstack(blocks))
            sbasis = s @ basis
            ritz = numerics.hermitian_eigen(sym(basis.conj().T @ sbasis))
            coef = ritz.vectors[:, :k]
            x, sx = basis @ coef, sbasis @ coef
            direction = basis[:, k:] @ coef[k:]
            cand = float(ritz.values[k - 1])
            if abs(cand - prev) <= 1e-12 * max(1.0, abs(cand)):
                break
            prev = cand
        best = max(best, float(numerics.hermitian_eigen(sym(x.conj().T @ s @ x)).values[-1]))
    return best


class TestStacks:
    """A stack of operators is judged slice by slice, or refused."""

    @staticmethod
    def _stack(ops):
        return BOperator(np.stack([A.matrix for A in ops]), ops[0].weights)

    def test_selfadjoint_per_slice(self):
        rng = np.random.default_rng(60)
        w = dyadic_weights(8)
        ops = [rand_selfadjoint(w, rng) if i % 2 == 0 else rand_operator(w, rng)
               for i in range(8)]
        alone = [is_naturally_selfadjoint(A) for A in ops]
        assert alone == [True, False] * 4
        assert is_naturally_selfadjoint(self._stack(ops)).tolist() == alone
        sym = ops[::2]
        assert is_naturally_selfadjoint(self._stack(sym)).tolist() == [True] * 4

    def test_norms_lax_and_polar_per_slice(self):
        rng = np.random.default_rng(61)
        w = dyadic_weights(8)
        ops = [rand_selfadjoint(w, rng) for _ in range(8)]
        stack = self._stack(ops)
        np.testing.assert_array_equal(h_opnorm(stack), [h_opnorm(A) for A in ops])
        np.testing.assert_array_equal(lax_check(stack), [lax_check(A) for A in ops])
        U, T = polar_decompose(stack)
        for i, A in enumerate(ops):
            u, t = polar_decompose(A)
            np.testing.assert_array_equal(U.matrix[i], u.matrix)
            np.testing.assert_array_equal(T.matrix[i], t.matrix)

    def test_algebra_defect_per_slice(self):
        rng = np.random.default_rng(63)
        w = dyadic_weights(8)
        firsts = [rand_operator(w, rng) for _ in range(5)]
        seconds = [rand_operator(w, rng) for _ in range(5)]
        scalars = rand_complex(rng, 5)
        stacked = adjoint_algebra_defect(self._stack(firsts), self._stack(seconds), scalars)
        np.testing.assert_array_equal(
            stacked, [reference_algebra_defect(A, B, complex(a))
                      for A, B, a in zip(firsts, seconds, scalars)])
        alone = [adjoint_algebra_defect(A, B, a) for A, B, a in zip(firsts, seconds, scalars)]
        assert [x.tobytes() for x in stacked] == [x.tobytes() for x in alone]

    def test_identity_defect_per_slice_is_the_grid_path(self):
        # each slice rounds as apply_op and h_inner do on grid functions
        rng = np.random.default_rng(64)
        basis, w = make_basis(N=8, resolution=256), dyadic_weights(8)
        ops = [rand_operator(w, rng) for _ in range(5)]
        cus, cvs = rand_complex(rng, 5, 8), rand_complex(rng, 5, 8)
        stacked = adjoint_identity_defect(self._stack(ops), cus, cvs, basis)
        for A, cu, cv, got in zip(ops, cus, cvs, stacked):
            u, v = reconstruct(cu, basis), reconstruct(cv, basis)
            lhs = h_inner(apply_op(A, u, basis), v, basis, w)
            rhs = h_inner(u, apply_op(adjoint(A), v, basis), basis, w)
            assert got == abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
            np.testing.assert_array_equal(adjoint_identity_defect(A, cu, cv, basis), got)

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_minmax_per_slice(self, k):
        rng = np.random.default_rng(65)
        w = dyadic_weights(8)
        ops = [rand_selfadjoint(w, rng) for _ in range(4)]
        seeds = [5, 6, 7, 8]
        stacked = minmax_eigenvalue(self._stack(ops), k, trials=3, seed=seeds)
        alone = [minmax_eigenvalue(A, k, trials=3, seed=s) for A, s in zip(ops, seeds)]
        assert all(isinstance(x, float) for x in alone)
        np.testing.assert_array_equal(stacked, alone)
        np.testing.assert_array_equal(
            alone, [reference_minmax(A, k, trials=3, seed=s) for A, s in zip(ops, seeds)])

    def test_self_conjugacy_per_slice_refutes_before_overflow(self):
        # exp(i t h(A)) of the second slice grows as e^(1000 t): finite and
        # not isometric at t = 0.25, past float64 at t = 0.75
        rng = np.random.default_rng(66)
        w = dyadic_weights(4)
        blowup = from_h_matrix(np.diag([-1000j, 0.0, 0.0, 0.0]), w)
        with pytest.raises(OverflowError):
            numerics.matrix_exp(0.75j * h_matrix(blowup))
        ops = [rand_selfadjoint(w, rng), blowup, rand_operator(w, rng),
               rand_selfadjoint(w, rng)]
        alone = [self_conjugacy_check(A, (0.25, 0.75)) for A in ops]
        assert alone == [True, False, False, True]
        np.testing.assert_array_equal(self_conjugacy_check(self._stack(ops), (0.25, 0.75)),
                                      alone)

    def test_spectral_decompose_per_slice(self):
        # a slice with two eigenvalues 1e-10 apart (one two-member cluster)
        # between generic slices: each slice's slots are the bytes a call on
        # it alone gives, its clusters' values and projections are those of
        # the one-cluster-at-a-time reference, and its other slots are zero
        rng = np.random.default_rng(62)
        w = dyadic_weights(8)
        unitary, _ = np.linalg.qr(rand_complex(rng, 8, 8))
        spectrum = [3.0, 1.0, 1.0 + 1e-10, 0.5, -0.5, -1.0, -2.0, -4.0]
        repeated = from_h_matrix((unitary * spectrum) @ unitary.conj().T, w)
        ops = [rand_selfadjoint(w, rng), repeated, rand_selfadjoint(w, rng),
               rand_selfadjoint(w, rng)]
        values, projections = spectral_decompose(self._stack(ops))
        assert values.shape == (4, 8) and projections.matrix.shape == (4, 8, 8, 8)
        for i, A in enumerate(ops):
            alone_values, alone = spectral_decompose(A)
            assert values[i].tobytes() == alone_values.tobytes()
            assert projections.matrix[i].tobytes() == alone.matrix.tobytes()
            ref_values, ref_projections = reference_spectral(A)
            n = len(ref_values)
            assert n == (7 if i == 1 else 8)
            assert alone_values[:n].tobytes() == ref_values.tobytes()
            assert alone.matrix[:n].tobytes() == ref_projections.tobytes()
            assert not alone_values[n:].any() and not alone.matrix[n:].any()
        ranks = np.round(np.trace(projections.matrix[1], axis1=-2, axis2=-1).real)
        assert ranks.tolist() == [1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0]
        # one slice that is not naturally self-adjoint refuses the stack
        with pytest.raises(ValueError, match="self-adjoint"):
            spectral_decompose(self._stack(ops + [rand_operator(w, rng)]))

    def test_algebra_defect_of_an_overflowing_slice_is_nan(self):
        # entries near 1e200 overflow the products A B and A*A; that slice's
        # defect is NaN, which fails any tolerance, and the others keep the
        # bytes they get alone
        rng = np.random.default_rng(65)
        w = dyadic_weights(4)
        firsts = [rand_operator(w, rng), rand_operator(w, rng, scale=1e200),
                  rand_operator(w, rng)]
        seconds = [rand_operator(w, rng, scale=1e200 if i == 1 else 1.0) for i in range(3)]
        scalars = rand_complex(rng, 3)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="finite"):
            firsts[1] @ seconds[1]  # an operator refuses the product
        stacked = adjoint_algebra_defect(self._stack(firsts), self._stack(seconds), scalars)
        assert np.isnan(stacked[1])
        for i in (0, 2):
            alone = adjoint_algebra_defect(firsts[i], seconds[i], scalars[i])
            assert stacked[i].tobytes() == alone.tobytes() and alone <= 1e-10


class TestBOperatorBasics:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="does not match"):
            BOperator(np.eye(4), dyadic_weights(3))

    @pytest.mark.parametrize("weights", [[0.5, 0.0, 0.25], [0.5, -0.25, 0.125], [0.5, np.inf, 0.1],
                                         [[0.5, 0.25, 0.125]], []],
                             ids=["zero", "negative", "infinite", "2-D", "empty"])
    def test_weights_validation(self, weights):
        with pytest.raises(ValueError, match="weights must form"):
            BOperator(np.eye(3), weights)

    def test_apply_in_span(self):
        rng = np.random.default_rng(18)
        basis = make_basis(N=4)
        A = rand_operator(dyadic_weights(4), rng)
        c = rand_complex(rng, 4)
        out = apply_op(A, reconstruct(c, basis), basis)
        expected = reconstruct(A.matrix @ c, basis)
        assert lp_norm_rows(out.values - expected.values, np.inf) <= 1e-10

    def test_b_opnorm_identity(self):
        w = dyadic_weights(4)
        assert b_opnorm_estimate(identity_operator(w), 3) == pytest.approx(1.0, abs=1e-10)
