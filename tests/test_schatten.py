import numpy as np
import pytest

from helpers import identity_operator, rand_complex, rand_operator, rand_selfadjoint

from almosthilbert import numerics
from almosthilbert.embedding import dyadic_weights
from almosthilbert.operators import (
    BOperator,
    adjoint,
    from_h_matrix,
    h_matrix,
)
from almosthilbert.schatten import (
    POWER_EXPONENTS,
    _power_sums,
    horn_sums,
    lidskii_sums,
    schatten_norm,
    schatten_norm_paths,
    singular_value_gap,
    singular_values,
    weyl_sums,
)


def uniform_weights(N=2):
    """Weights all equal, so the metric transport is trivial."""
    return np.full(N, 1.0 / (2 * N))


class TestSingularValues:
    def test_identity(self):
        w = dyadic_weights(5)
        np.testing.assert_allclose(singular_values(identity_operator(w)), np.ones(5),
                                   atol=1e-12)

    def test_nilpotent_uniform_weights(self):
        A = BOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), uniform_weights())
        np.testing.assert_allclose(singular_values(A), [1.0, 0.0], atol=1e-12)

    def test_nilpotent_dyadic_weights(self):
        # transport multiplies the (0,1) entry by sqrt(t_0/t_1) = sqrt(2)
        w = dyadic_weights(2)
        A = BOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), w)
        np.testing.assert_allclose(singular_values(A), [np.sqrt(2.0), 0.0], atol=1e-12)

    def test_adjoint_invariance(self):
        rng = np.random.default_rng(20)
        w = dyadic_weights(8)
        for _ in range(20):
            A = rand_operator(w, rng)
            np.testing.assert_allclose(singular_values(adjoint(A)), singular_values(A),
                                       atol=1e-10 * max(1.0, np.linalg.norm(A.matrix)))

    @pytest.mark.parametrize("N", [16, 24, 32, 48])
    def test_paths_agree_at_large_dim(self, N):
        # The dyadic metric has condition 2^(N-1); the two paths must still
        # agree, compared in the squared domain.
        rng = np.random.default_rng(N)
        w = dyadic_weights(N)
        for _ in range(50):
            _, gap, scale = singular_value_gap(rand_operator(w, rng, scale=1.0 / np.sqrt(N)))
            assert gap <= 1e-10 * scale

    @pytest.mark.parametrize("N", [1, 8, 32])
    def test_values_are_the_first_path(self, N):
        rng = np.random.default_rng(40 + N)
        A = rand_operator(dyadic_weights(N), rng)
        assert singular_values(A).tobytes() == singular_value_gap(A)[0].tobytes()

    def test_spectrum_bundle(self):
        rng = np.random.default_rng(21)
        w = dyadic_weights(6)
        A = rand_operator(w, rng)
        mu = singular_values(A)
        lam = numerics.general_eigenvalues(A.matrix)
        assert mu.shape == lam.shape == (6,)
        assert np.all(np.diff(mu) <= 0)
        assert np.min(mu) >= 0


class TestSchattenNorm:
    def test_zero(self):
        w = dyadic_weights(4)
        Z = BOperator(np.zeros((len(w), len(w))), w)
        for p in (1.0, 2.0, 4.0):
            assert schatten_norm(Z, (p,)) == [0.0]

    def test_diagonal_in_eigencoordinates(self):
        w = dyadic_weights(2)
        A = from_h_matrix(np.diag([3.0, 1.0]), w)
        assert schatten_norm(A, [1, 2]) == pytest.approx([4.0, np.sqrt(10.0)], abs=1e-10)

    def test_identity_trace_norm(self):
        w = dyadic_weights(3)
        assert schatten_norm(identity_operator(w), (1,)) == pytest.approx([3.0], abs=1e-10)

    def test_p2_is_frobenius_of_transport(self):
        rng = np.random.default_rng(22)
        w = dyadic_weights(7)
        for _ in range(20):
            A = rand_operator(w, rng)
            frob = np.linalg.norm(h_matrix(A))
            assert schatten_norm(A, (2,)) == pytest.approx([frob], rel=1e-10)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_two_paths_agree(self, p):
        rng = np.random.default_rng(23)
        for N in (4, 8):
            w = dyadic_weights(N)
            for _ in range(15):
                [(bracket, mu)] = schatten_norm_paths(rand_operator(w, rng), (p,))
                assert abs(bracket - mu) <= 1e-9 * max(1.0, mu)

    def test_holder_monotonicity(self):
        # 20 operators one at a time, then a (20, N, N) stack at the orders
        # the suites once checked
        rng = np.random.default_rng(24)
        w = dyadic_weights(8)
        ones = [(rand_operator(w, rng), (1.0, 1.5, 2.0, 4.0, 8.0)) for _ in range(20)]
        stack = BOperator(rand_complex(rng, 20, 8, 8) / np.sqrt(8), w)
        for A, orders in [*ones, (stack, (1.0, 1.5, 2.0, 3.0, 4.0))]:
            norms = schatten_norm(A, orders)
            for a, b in zip(norms, norms[1:]):
                assert np.all(a >= b - 1e-10 * np.maximum(1.0, a))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(25)
        w = dyadic_weights(6)
        A = rand_operator(w, rng)
        for _ in range(5):
            x = rand_complex(rng, 6, 6)
            y = rand_complex(rng, 6, 6)
            U = from_h_matrix(numerics.matrix_exp(x - x.conj().T), w)
            V = from_h_matrix(numerics.matrix_exp(y - y.conj().T), w)
            ps = (1.0, 2.0, 4.0)
            assert schatten_norm(U @ A @ V, ps) == pytest.approx(schatten_norm(A, ps), rel=1e-9)

    @pytest.mark.parametrize("N", [1, 8, 16])
    def test_orders_together_equal_orders_alone(self, N):
        # one factorization serves every order: a sequence of orders gives
        # exactly the values of one call per order
        rng = np.random.default_rng(31 + N)
        w = dyadic_weights(N)
        ps = (1.0, 1.5, 2.0, 3.0, 4.0)
        for _ in range(10):
            A = rand_operator(w, rng, scale=1.0 / np.sqrt(N))
            assert schatten_norm_paths(A, ps) == [schatten_norm_paths(A, (p,))[0] for p in ps]
            assert schatten_norm(A, ps) == [schatten_norm(A, (p,))[0] for p in ps]

    @pytest.mark.parametrize("N", [1, 8, 32])
    def test_norm_is_the_singular_value_path(self, N):
        # bitwise: schatten_norm is the second entry of each path pair
        rng = np.random.default_rng(50 + N)
        A = rand_operator(dyadic_weights(N), rng)
        ps = (1.0, 1.5, 2.0, 3.0, 4.0)
        assert schatten_norm(A, ps) == [mu for _, mu in schatten_norm_paths(A, ps)]

    def test_rejects_bad_order(self):
        A = identity_operator(dyadic_weights(2))
        for p in (0.5, 0.0, np.inf):
            with pytest.raises(ValueError, match="finite real"):
                schatten_norm(A, (p,))


def holds(lhs, rhs):
    """lhs <= rhs within the suites' tolerance 1e-9 * (rhs + 1)."""
    return lhs - rhs <= 1e-9 * (rhs + 1.0)


class TestEigenvalueInequalities:
    def test_weyl_nilpotent(self):
        A = BOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), uniform_weights())
        for lhs, rhs in weyl_sums(A):
            assert holds(lhs, rhs)
            assert lhs == pytest.approx(0.0, abs=1e-12)
            assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_weyl_normal_equality(self):
        rng = np.random.default_rng(26)
        w = dyadic_weights(6)
        for _ in range(10):
            A = rand_selfadjoint(w, rng)
            pairs = weyl_sums(A)
            assert len(pairs) == 3
            for lhs, rhs in pairs:
                assert abs(lhs - rhs) <= 1e-9 * (rhs + 1.0)

    def test_weyl_random_sweep(self):
        rng = np.random.default_rng(27)
        for N in (4, 8, 16):
            w = dyadic_weights(N)
            for _ in range(20):
                assert all(holds(*pair) for pair in weyl_sums(rand_operator(w, rng)))

    def test_horn_identity_pair(self):
        w = dyadic_weights(4)
        I = identity_operator(w)
        for lhs, rhs in horn_sums(I, I):
            assert holds(lhs, rhs)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_horn_zero_factor(self):
        rng = np.random.default_rng(28)
        w = dyadic_weights(4)
        zero = BOperator(np.zeros((len(w), len(w))), w)
        for lhs, rhs in horn_sums(rand_operator(w, rng), zero):
            assert lhs == 0.0
            assert rhs == 0.0

    def test_horn_random_sweep(self):
        rng = np.random.default_rng(29)
        w = dyadic_weights(8)
        for _ in range(40):
            pairs = horn_sums(rand_operator(w, rng), rand_operator(w, rng))
            assert all(holds(*pair) for pair in pairs)

    def test_lalesco_triangular(self):
        # Lalesco's inequality is the p = 1 row of Weyl's, so weyl-inequality
        # judges it only while the first power is 1
        assert POWER_EXPONENTS[0] == 1.0
        w = dyadic_weights(2)
        A = BOperator(np.array([[1.0, 2.0], [0.0, 3.0]]), w)
        lhs, rhs = weyl_sums(A)[0]
        assert holds(lhs, rhs)
        assert lhs == pytest.approx(4.0, abs=1e-12)

    def test_lidskii_triangular(self):
        w = dyadic_weights(2)
        A = BOperator(np.array([[1.0, 2.0], [0.0, 3.0]]), w)
        eigen_sum, trace = lidskii_sums(A)
        assert abs(eigen_sum - trace) <= 1e-9 * (abs(trace) + 1.0)
        assert abs(trace) == pytest.approx(4.0, abs=1e-12)

    def test_lalesco_normal_equality(self):
        A = BOperator(np.diag([1.0, -2.0]), uniform_weights())
        lhs, rhs = weyl_sums(A)[0]
        assert lhs == pytest.approx(3.0, abs=1e-10)
        assert rhs == pytest.approx(3.0, abs=1e-10)

    def test_random_sweep_lalesco_lidskii(self):
        rng = np.random.default_rng(30)
        w = dyadic_weights(8)
        for _ in range(40):
            A = rand_operator(w, rng)
            assert holds(*weyl_sums(A)[0])
            eigen_sum, trace = lidskii_sums(A)
            assert abs(eigen_sum - trace) <= 1e-9 * (abs(trace) + 1.0)


class TestStacks:
    @pytest.mark.parametrize("N", [1, 8, 16])
    def test_stacked_values_are_the_single_operator_values(self, N):
        # bitwise: each operator of a stack gets what it gets alone
        rng = np.random.default_rng(70 + N)
        w = dyadic_weights(N)
        mats = rand_complex(rng, 40, N, N) / np.sqrt(N)
        seconds = rand_complex(rng, 40, N, N) / np.sqrt(N)
        A, B = BOperator(mats, w), BOperator(seconds, w)
        ps = (1.0, 1.5, 2.0, 4.0)
        stacked = {
            "gap": singular_value_gap(A)[1:],
            "paths": schatten_norm_paths(A, ps),
            "norms": schatten_norm(A, ps),
            "weyl": weyl_sums(A),
            "horn": horn_sums(A, B),
            "lidskii": lidskii_sums(A),
        }
        for k in range(len(mats)):
            a, b = BOperator(mats[k], w), BOperator(seconds[k], w)
            alone = {
                "gap": singular_value_gap(a)[1:],
                "paths": schatten_norm_paths(a, ps),
                "norms": schatten_norm(a, ps),
                "weyl": weyl_sums(a),
                "horn": horn_sums(a, b),
                "lidskii": lidskii_sums(a),
            }
            for name, value in alone.items():
                # the rows of weyl and horn are per operator; the others are
                # tuples or lists of per-stack arrays
                rows = name in ("weyl", "horn")
                got = stacked[name][k] if rows else np.asarray(stacked[name])[..., k]
                assert got.tobytes() == np.asarray(value).tobytes(), name

    def test_power_sums_match_the_scalar_loop(self):
        # reference: each power a Python float, the terms added by numpy
        values = np.abs(rand_complex(np.random.default_rng(80), 300, 8))
        sums = _power_sums(values)
        for k, row in enumerate(values):
            loop = [float(np.sum([float(v) ** p for v in row])) for p in POWER_EXPONENTS]
            assert sums[k].tolist() == loop
