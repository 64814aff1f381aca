import warnings

import numpy as np
import pytest

from helpers import rand_complex

from almosthilbert import numerics


def random_diagonal_pairs(count, size, seed):
    rng = np.random.default_rng(seed)
    return [(rand_complex(rng, size), rand_complex(rng, size)) for _ in range(count)]


class TestPythonRounding:
    """product rounds as Python's complex * does, the arithmetic of a
    per-instance check body, which numpy's vectorised complex kernel does
    not always match."""

    @staticmethod
    def operands():
        rng = np.random.default_rng(12)
        a = rand_complex(rng, 400) * 10.0 ** rng.uniform(-6, 6, 400)
        b = rand_complex(rng, 400) * 10.0 ** rng.uniform(-6, 6, 400)
        b[:50] = b[:50].real  # real divisors, as an H norm square is
        b[50:100] = 1j * b[50:100].imag
        b[100:110] = 1.0 + 1.0j
        return a, b

    def test_product(self):
        a, b = self.operands()
        got = numerics.product(a, b)
        assert [x.tobytes() for x in got] == [
            np.complex128(complex(x) * complex(y)).tobytes() for x, y in zip(a, b)]


class TestHermitianEigen:
    def test_identity(self):
        res = numerics.hermitian_eigen(np.eye(3))
        np.testing.assert_allclose(res.values, [1.0, 1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(
            res.vectors.conj().T @ res.vectors, np.eye(3), atol=1e-13
        )

    def test_diagonal(self):
        res = numerics.hermitian_eigen(np.diag([2.0, -1.0]))
        np.testing.assert_allclose(res.values, [2.0, -1.0], atol=1e-14)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        a = rand_complex(rng, 8, 8)
        m = a + a.conj().T
        res = numerics.hermitian_eigen(m)
        recon = (res.vectors * res.values) @ res.vectors.conj().T
        assert np.linalg.norm(recon - m) <= 1e-12 * np.linalg.norm(m)

    @pytest.mark.parametrize("count,size,tol", [(20, 6, 1e-14), (50, 8, 0.0)])
    def test_values_real_descending(self, count, size, tol):
        rng = np.random.default_rng(8)
        for _ in range(count):
            a = rand_complex(rng, size, size)
            res = numerics.hermitian_eigen(a + a.conj().T)
            assert res.values.dtype.kind == "f"
            assert np.all(np.diff(res.values) <= tol)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            numerics.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            numerics.hermitian_eigen(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            numerics.hermitian_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSvd:
    def test_zero_matrix(self):
        _, s, _ = numerics.svd(np.zeros((3, 3)))
        np.testing.assert_allclose(s, np.zeros(3), atol=0)

    def test_diagonal(self):
        _, s, _ = numerics.svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 1.0], atol=1e-14)

    def test_cross_check_against_hermitian_eigen(self):
        rng = np.random.default_rng(11)
        m = rand_complex(rng, 6, 4)
        _, s, _ = numerics.svd(m)
        w = numerics.hermitian_eigen(m.conj().T @ m).values
        np.testing.assert_allclose(s, np.sqrt(np.clip(w, 0, None)), atol=1e-12)

    @pytest.mark.parametrize("count,size,relative", [(10, 5, False), (50, 8, True)])
    def test_sigma_of_adjoint_matches(self, count, size, relative):
        rng = np.random.default_rng(12)
        for _ in range(count):
            m = rand_complex(rng, size, size)
            _, s1, _ = numerics.svd(m)
            _, s2, _ = numerics.svd(m.conj().T)
            scale = max(1.0, s1[0]) if relative else 1.0
            assert np.max(np.abs(s1 - s2)) <= 1e-12 * scale

    def test_reconstruction_convention(self):
        rng = np.random.default_rng(13)
        m = rand_complex(rng, 5, 3)
        u, s, v = numerics.svd(m)
        np.testing.assert_allclose((u * s) @ v.conj().T, m, atol=1e-13)


class TestGeneralEigenvalues:
    def test_triangular(self):
        lam = numerics.general_eigenvalues(np.array([[1.0, 2.0], [0.0, 3.0]]))
        np.testing.assert_allclose(sorted(lam.real), [1.0, 3.0], atol=1e-14)
        np.testing.assert_allclose(lam.imag, 0.0, atol=1e-14)

    def test_nilpotent(self):
        lam = numerics.general_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(lam, [0.0, 0.0], atol=1e-14)

    def test_trace_identity(self):
        rng = np.random.default_rng(21)
        m = rand_complex(rng, 8, 8)
        lam = numerics.general_eigenvalues(m)
        assert abs(lam.sum() - np.trace(m)) <= 1e-10 * np.linalg.norm(m)

    def test_multiplicity_count(self):
        lam = numerics.general_eigenvalues(np.diag([2.0, 2.0, 5.0]))
        assert len(lam) == 3


class TestMatrixExp:
    def test_zero(self):
        np.testing.assert_allclose(numerics.matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        e = numerics.matrix_exp(np.diag([np.log(2.0), 0.0]))
        np.testing.assert_allclose(e, np.diag([2.0, 1.0]), atol=1e-13)

    def test_skew_hermitian_gives_unitary(self):
        rng = np.random.default_rng(31)
        a = rand_complex(rng, 6, 6)
        k = a - a.conj().T
        u = numerics.matrix_exp(k)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-10)

    @pytest.mark.parametrize("pairs,relative", [
        ([([0.3, -0.7, 1.1], [1.0, 0.2, -0.4])], False),
        (random_diagonal_pairs(50, 6, seed=32), True),
    ], ids=["fixed-3", "random-6"])
    def test_commuting_product(self, pairs, relative):
        for a, b in pairs:
            d1, d2 = np.diag(a), np.diag(b)
            lhs = numerics.matrix_exp(d1 + d2)
            rhs = numerics.matrix_exp(d1) @ numerics.matrix_exp(d2)
            scale = max(1.0, np.linalg.norm(lhs)) if relative else 1.0
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    @pytest.mark.parametrize("kind", ["general", "hermitian-times-i", "skew"])
    def test_matches_scipy(self, n, kind):
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(33 + n)
        for norm in np.logspace(-3, 2, 11):
            a = rand_complex(rng, n, n)
            if kind == "hermitian-times-i":
                a = 1j * (a + a.conj().T)
            elif kind == "skew":
                a = a - a.conj().T
            a *= norm / np.linalg.norm(a, 2)
            ref = expm(a)
            err = np.linalg.norm(numerics.matrix_exp(a) - ref)
            assert err <= 1e-12 * max(1.0, np.linalg.norm(ref))

    def test_scaling_and_squaring(self):
        # 1-norms far above theta_13 = 5.37, so the approximant is squared s > 0 times
        e = numerics.matrix_exp(np.diag([10.0, -3.0]))
        np.testing.assert_allclose(e, np.diag(np.exp([10.0, -3.0])), rtol=1e-13, atol=0)
        # a Jordan block: exp([[a, b], [0, a]]) = e^a [[1, b], [0, 1]]
        e = numerics.matrix_exp([[4.0, 50.0], [0.0, 4.0]])
        np.testing.assert_allclose(e, np.exp(4.0) * np.array([[1.0, 50.0], [0.0, 1.0]]),
                                   rtol=1e-13, atol=1e-13 * np.exp(4.0))

    @pytest.mark.parametrize("n", [1, 8, 16])
    def test_matches_scipy_on_both_sides_of_theta_13(self, n):
        # just below theta_13 the approximant is taken unscaled, just above
        # it is taken of A / 2 and squared once
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(130 + n)
        for factor in (0.99, 1.01):
            for kind in ("general", "skew"):
                a = rand_complex(rng, n, n)
                if kind == "skew":
                    a = a - a.conj().T
                a *= factor * numerics._THETA13 / np.max(np.sum(np.abs(a), axis=0))
                ref = expm(a)
                err = np.linalg.norm(numerics.matrix_exp(a) - ref)
                assert err <= 1e-13 * max(1.0, np.linalg.norm(ref))

    @pytest.mark.parametrize("m", [np.diag([1000.0, 0.0]), np.full((3, 3), 1e308)],
                             ids=["result-overflows", "norm-overflows"])
    def test_overflow_refused_without_warnings(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="too extreme"):
                numerics.matrix_exp(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            numerics.matrix_exp(np.ones((2, 3)))


class TestOpnormEstimate:
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, np.inf])
    def test_identity(self, p):
        assert numerics.opnorm_p_estimate(np.eye(4), p, restarts=2, seed=0) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_spectral(self):
        assert numerics.opnorm_p_estimate(np.diag([2.0, 1.0]), 2, seed=1) == pytest.approx(2.0, abs=1e-10)

    def test_lower_bound_against_probes(self):
        rng = np.random.default_rng(41)
        m = rand_complex(rng, 5, 5)
        est = numerics.opnorm_p_estimate(m, 3, restarts=4, seed=2)
        probes = rand_complex(rng, 1000, 5)
        ratios = [
            numerics.vector_pnorm(m @ x, 3) / numerics.vector_pnorm(x, 3) for x in probes
        ]
        assert est >= max(ratios) - 1e-10

    @pytest.mark.parametrize("count", [10, 50])
    def test_p2_matches_sigma_max(self, count):
        rng = np.random.default_rng(42)
        for _ in range(count):
            m = rand_complex(rng, 8, 8)
            _, s, _ = numerics.svd(m)
            est = numerics.opnorm_p_estimate(m, 2, restarts=4, seed=3)
            assert abs(est - s[0]) <= 1e-8 * s[0]

    def test_exact_one_norm(self):
        m = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert numerics.opnorm_p_estimate(m, 1) == pytest.approx(4.0)
        assert numerics.opnorm_p_estimate(m, np.inf) == pytest.approx(3.5)

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        m = rand_complex(rng, 6, 6)
        a = numerics.opnorm_p_estimate(m, 2.5, restarts=3, seed=9)
        b = numerics.opnorm_p_estimate(m, 2.5, restarts=3, seed=9)
        assert a == b

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            numerics.opnorm_p_estimate(np.eye(2), 0.5)

    @staticmethod
    def one_vector_oracle(m, p, restarts=4, seed=0):
        # Reference: the same power method, one restart vector at a time.
        def dual(y, p):
            ay = np.abs(y)
            ny = numerics.vector_pnorm(y, p)
            if ny == 0.0:
                return np.zeros_like(y)
            sign = np.where(ay > 0, y / np.where(ay > 0, ay, 1.0), 0.0)
            return (ay / ny) ** (p - 1.0) * sign

        a = np.asarray(m, dtype=np.complex128)
        n = a.shape[1]
        q = p / (p - 1.0)
        ah = a.conj().T
        rng = np.random.default_rng(seed)
        best = 0.0
        for _ in range(restarts):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x /= numerics.vector_pnorm(x, p)
            est = 0.0
            for _ in range(5000):
                y = a @ x
                est = numerics.vector_pnorm(y, p)
                if est == 0.0:
                    break
                z = ah @ dual(y, p)
                if numerics.vector_pnorm(z, q) <= np.real(np.vdot(x, z)) + 1e-13 * max(est, 1.0):
                    break
                x = dual(z, q)
            best = max(best, est)
        return best

    @pytest.mark.parametrize("p", [1.01, 1.5, 3, 64])
    def test_matches_one_vector_oracle(self, p):
        rng = np.random.default_rng(44)
        for i in range(200):
            m = rand_complex(rng, 8, 8)
            est = numerics.opnorm_p_estimate(m, p, seed=i)
            ref = self.one_vector_oracle(m, p, seed=i)
            assert abs(est - ref) <= 1e-12 * ref, (i, est, ref)

    @pytest.mark.parametrize("p", [1.01, 2, 3, 64])
    def test_zero_matrix_is_zero_without_warnings(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert numerics.opnorm_p_estimate(np.zeros((5, 5)), p, seed=0) == 0.0


class TestVectorPnorm:
    """Each column is scaled by its largest modulus before the power."""

    @pytest.mark.parametrize("x, p, norm", [
        ([0.0, -1j * 2.0**600, 0.0], 101.0, 2.0**600),
        ([3.0 * 2.0**600, 4.0j * 2.0**600], 2.0, 5.0 * 2.0**600),
    ])
    def test_overflowing_power_gives_the_exact_norm(self, x, p, norm):
        # Unscaled, |x_j|^p exceeds the float64 range.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert numerics.vector_pnorm(np.array(x), p) == norm


class TestStacks:
    """A stacked call is slice by slice the 2-D call, and is validated once."""

    @staticmethod
    def stack(n, hermitian=False, count=5, seed=60):
        a = rand_complex(np.random.default_rng(seed + n), count, n, n)
        return a + a.conj().swapaxes(-1, -2) if hermitian else a

    @pytest.mark.parametrize("n", [1, 8, 16])
    def test_svd_slices_are_the_2d_calls(self, n):
        a = self.stack(n)
        stacked = numerics.svd(a)
        for k in range(len(a)):
            for got, want in zip(stacked, numerics.svd(a[k])):
                assert got[k].tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 8, 16])
    def test_hermitian_eigen_slices_are_the_2d_calls(self, n):
        a = self.stack(n, hermitian=True)
        stacked = numerics.hermitian_eigen(a)
        # each eigenvector contiguous, as one matrix's v[:, order] lays it
        # out, so sums over its entries round alike in every caller
        assert stacked.vectors.strides[-2] == stacked.vectors.itemsize
        for k in range(len(a)):
            alone = numerics.hermitian_eigen(a[k])
            assert stacked.values[k].tobytes() == alone.values.tobytes()
            assert stacked.vectors[k].tobytes() == alone.vectors.tobytes()

    @pytest.mark.parametrize("n", [1, 8, 16])
    def test_general_eigenvalues_slices_are_the_2d_calls(self, n):
        a = self.stack(n)
        stacked = numerics.general_eigenvalues(a)
        for k in range(len(a)):
            assert stacked[k].tobytes() == numerics.general_eigenvalues(a[k]).tobytes()

    @pytest.mark.parametrize("p", [1, 1.01, 3, 64, np.inf])
    @pytest.mark.parametrize("n", [1, 8, 16])
    def test_opnorm_slices_are_the_2d_calls(self, n, p):
        # the seeds are the slices' own; the frozen columns of one slice do
        # not change another's iteration beyond the stationarity slack
        a = self.stack(n, count=6)
        seeds = [11 * k + 3 for k in range(len(a))]
        stacked = numerics.opnorm_p_estimate(a, p, seed=seeds)
        assert stacked.shape == (len(a),)
        for k, seed in enumerate(seeds):
            alone = numerics.opnorm_p_estimate(a[k], p, seed=seed)
            assert isinstance(alone, float)
            assert abs(stacked[k] - alone) <= 1e-13 * max(alone, 1.0)

    def test_opnorm_one_seed_serves_every_slice(self):
        a = np.stack([np.diag([2.0, 1.0])] * 3)
        np.testing.assert_allclose(numerics.opnorm_p_estimate(a, 3, seed=5), 2.0, rtol=1e-12)

    def test_opnorm_zero_slice_without_warnings(self):
        # a zero slice freezes at once; its columns must not divide by zero
        a = self.stack(4, count=3)
        a[1] = 0.0
        for p in (1.01, 3, 64):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                est = numerics.opnorm_p_estimate(a, p, seed=[1, 2, 3])
            assert est[1] == 0.0 and np.all(est[[0, 2]] > 0.0)

    @pytest.mark.parametrize("kernel", [numerics.svd, numerics.hermitian_eigen,
                                        numerics.general_eigenvalues,
                                        lambda m: numerics.opnorm_p_estimate(m, 3)])
    def test_one_non_finite_slice_refuses_the_stack(self, kernel):
        a = self.stack(4, hermitian=True)
        a[3, 1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            kernel(a)

    def test_one_non_hermitian_slice_refuses_the_stack(self):
        a = self.stack(4, hermitian=True)
        a[2, 0, 1] += 1.0
        with pytest.raises(ValueError, match=r"not Hermitian.*slice \[2\]"):
            numerics.hermitian_eigen(a)

    @pytest.mark.parametrize("kernel, target, position", [
        (numerics.svd, "svd", 1), (numerics.hermitian_eigen, "eigh", 0)])
    def test_one_failed_reconstruction_refuses_the_stack(self, monkeypatch, kernel, target,
                                                         position):
        # slice 3's values come back wrong; its residual alone fails
        real = getattr(np.linalg, target)

        def corrupt(*args, **kwargs):
            out = list(real(*args, **kwargs))
            out[position][3] *= 1.5
            return tuple(out)

        monkeypatch.setattr(np.linalg, target, corrupt)
        with pytest.raises(ArithmeticError, match=r"residual.*slice \[3\]"):
            kernel(self.stack(4, hermitian=True))

    @pytest.mark.parametrize("n", [1, 8, 16])
    def test_matrix_exp_slices_are_the_2d_calls(self, n):
        # 1-norms from far below to far above theta_13 = 5.37: each slice
        # is scaled and squared its own number of times, the others frozen
        # meanwhile
        a = self.stack(n, count=7)
        norms = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
        a *= (np.array([1e-3, 0.2, 0.9, 2.0, 5.0, 20.0, 60.0]) / norms)[:, None, None]
        stacked = numerics.matrix_exp(a)
        for k in range(len(a)):
            np.testing.assert_array_equal(stacked[k], numerics.matrix_exp(a[k]))

    def test_matrix_exp_one_overflowing_slice_refuses_the_stack(self):
        a = self.stack(4, count=3)
        a[1] = np.diag([1000.0, 0.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="too extreme"):
                numerics.matrix_exp(a)

    @pytest.mark.parametrize("layout", ["C", "F", "real"])
    def test_frobenius_norm_rounds_as_the_norm_of_one_matrix(self, layout):
        a = self.stack(16, count=5)
        if layout == "F":
            a = a.conj().swapaxes(-1, -2)
        elif layout == "real":
            a = np.ascontiguousarray(a.real)
        got = numerics.frobenius_norm(a)
        np.testing.assert_array_equal(got, [np.linalg.norm(m) for m in a])
        assert numerics.frobenius_norm(a[2]) == np.linalg.norm(a[2])

    def test_stack_with_mismatched_slices_refused(self):
        with pytest.raises(ValueError, match="square"):
            numerics.general_eigenvalues(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="matrix or a stack"):
            numerics.as_matrix(np.zeros(3))
        with pytest.raises(ValueError, match="square"):
            numerics.matrix_exp(np.zeros((2, 3, 4)))
