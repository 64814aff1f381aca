import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from almosthilbert import ks2
from almosthilbert.embedding import dyadic_weights
from almosthilbert.ks2 import (
    PAIRING_PREFIX,
    converged_values,
    cube,
    cube_rows,
    embedding_bounds,
    functional_Fk,
    functional_values,
    ks2_inner,
    pairing_order,
    rational_center,
    tail_bound,
    values_inner,
    values_norm,
    weak_strong_norms,
)
from almosthilbert.spaces import GridFunction, from_callable
from almosthilbert.suites import SuiteParams, run_suite

def constant_one(resolution=512):
    return from_callable(lambda t: np.ones_like(t), resolution)


def random_step(rng, levels=8, resolution=256):
    vals = rng.standard_normal(levels) + 1j * rng.standard_normal(levels)
    return GridFunction(np.repeat(vals, resolution // levels))


def reference_weights(f, k):
    """Every cell's overlap with cube k, edges rebuilt."""
    (c,), side, _ = cube(k, 1)
    edges = np.arange(f.resolution + 1) / f.resolution
    return np.clip(np.minimum(edges[1:], c + side / 2.0) - np.maximum(edges[:-1], c - side / 2.0),
                   0.0, None)


def reference_values(f, K):
    """The dense per-cube loop: every cell's overlap with one cube at a
    time, each row summed whole over the grid."""
    return np.array([complex(np.sum(f.values * reference_weights(f, k)))
                     for k in range(1, K + 1)], dtype=np.complex128)


def summation_slack(f, k):
    """2 gamma_M sum_j |f_j w_j| for cube k of f.

    Any two sums of the same M products, in whatever order, differ by at
    most this: each lies within gamma_M sum_j |x_j| of the exact sum in
    each of its real and imaginary parts (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3; gamma_n = nu / (1 - nu), u the unit
    roundoff), and Minkowski's inequality joins the two parts.
    """
    nu = f.resolution * np.finfo(float).eps / 2.0
    return 2.0 * nu / (1.0 - nu) * np.sum(np.abs(f.values * reference_weights(f, k)))


def assert_near_dense(got, f, ks=None):
    """``got`` holds F_k(f) for each k in ``ks`` (1..len(got) by default)
    within the summation slack of the dense loop."""
    ks = range(1, len(got) + 1) if ks is None else ks
    dense = reference_values(f, max(ks))
    for value, k in zip(got, ks):
        assert abs(value - dense[k - 1]) <= summation_slack(f, k), k


def reference_classic_pair(c):
    """The diagonal walk the closed form in ``ks2._classic_pair`` replaces."""
    s = 2
    start = 1
    while start + (s - 1) <= c:
        start += s - 1
        s += 1
    o = c - start
    if s % 2 == 1:
        return s - 1 - o, 1 + o
    return 1 + o, s - 1 - o


def reference_dyadic_unit(i):
    """The level loop the bit length in ``ks2._dyadic_unit`` replaces."""
    if i == 1:
        return 0.0
    if i == 2:
        return 1.0
    level = 1
    while i > 2**level + 1:
        level += 1
    j = i - (2 ** (level - 1) + 1)
    return (2 * j - 1) / 2.0**level


def kernel_input(kind, resolution):
    if kind == "step":
        return random_step(np.random.default_rng(resolution), resolution=resolution)
    return from_callable(lambda t: np.sin(2.0 * np.pi * 7 * t), resolution)


class TestPairingOrder:
    def test_prefix_verbatim(self):
        assert tuple(pairing_order(k) for k in range(1, 9)) == PAIRING_PREFIX

    def test_listed_examples(self):
        assert pairing_order(1) == (1, 1)
        assert pairing_order(5) == (2, 2)

    def test_continuation(self):
        assert pairing_order(9) == (4, 1)
        assert pairing_order(10) == (1, 4)

    def test_complete_diagonals_are_a_bijection(self):
        # for every anti-diagonal S completed within 10^4 indices, the first
        # S(S-1)/2 pairs are exactly those with l + i <= S
        pairs = [pairing_order(k) for k in range(1, 10**4 + 1)]
        S = 2
        while S * (S - 1) // 2 <= len(pairs):
            assert set(pairs[:S * (S - 1) // 2]) == {
                (l, i) for l in range(1, S) for i in range(1, S + 1 - l)}, S
            S += 1

    def test_closed_form_matches_diagonal_walk(self):
        # every index up to 2 * 10^4, then the first, second and last index
        # of every diagonal up to 10^5
        starts = [1 + (s - 2) * (s - 1) // 2 for s in range(2, 450)]
        edges = {c + d for c in starts for d in (-1, 0, 1) if 2 * 10**4 < c + d <= 10**5}
        for c in [*range(1, 2 * 10**4 + 1), *sorted(edges)]:
            assert ks2._classic_pair(c) == reference_classic_pair(c), c

    def test_closed_form_inverts_at_large_index(self):
        # diagonal s = l + i starts at index 1 + (s-2)(s-1)/2 and is walked
        # with l descending for odd s and ascending for even s
        for c in (10**12, 10**15 + 7, 2**52 + 3):
            l, i = ks2._classic_pair(c)
            s = l + i
            start = 1 + (s - 2) * (s - 1) // 2
            assert start + ((s - 1 - l) if s % 2 == 1 else (l - 1)) == c

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            pairing_order(0)
        with pytest.raises(TypeError, match="cube index"):
            pairing_order(2.5)


class TestRationalCenter:
    def test_first_points(self):
        pts = [rational_center(1, i)[0] for i in range(1, 7)]
        assert pts == [0.0, 1.0, 0.5, 0.25, 0.75, 0.125]

    def test_distinct_prefix(self):
        pts = {rational_center(1, i) for i in range(1, 1001)}
        assert len(pts) == 1000

    def test_level_bit_length_matches_loop(self):
        for i in range(1, 10**5 + 1):
            assert ks2._dyadic_unit(i) == reference_dyadic_unit(i), i

    def test_two_dimensional(self):
        assert rational_center(2, 1) == (0.0, 0.0)
        pts = {rational_center(2, i) for i in range(1, 201)}
        assert len(pts) == 200

    def test_rejects_higher_dim(self):
        with pytest.raises(ValueError, match="dimensions 1 and 2"):
            rational_center(3, 1)


class TestCubes:
    def test_first_cube(self):
        c = cube(1, 1)
        assert c.center == (0.0,)
        assert c.side == 0.5
        assert c.l == 1
        assert c.side * math.sqrt(len(c.center)) == pytest.approx(0.5)

    def test_diagonal_two_dim(self):
        for k in (1, 5, 12):
            c = cube(k, 2)
            l, _ = pairing_order(k)
            assert c.side * math.sqrt(len(c.center)) == pytest.approx(2.0**-l, rel=1e-12)

    def test_rejects_higher_dim(self):
        with pytest.raises(ValueError, match="dimensions 1 and 2"):
            cube(1, 3)

    @pytest.mark.parametrize("dim, error", [(True, TypeError), (2.0, TypeError), ("2", TypeError),
                                            (0, ValueError), (3, ValueError)])
    def test_rejects_bad_dim(self, dim, error):
        with pytest.raises(error):
            cube(1, dim)


class TestFunctional:
    def test_hand_overlaps_for_constant(self):
        one = constant_one()
        expected = {1: 0.25, 2: 0.125, 3: 0.25, 4: 0.5}
        for k, val in expected.items():
            assert functional_Fk(one, k) == pytest.approx(val, abs=1e-12)

    def test_prefix_doubles_past_the_first(self, monkeypatch):
        # Every early cube covers an even count of cells of the alternating
        # function, so its functionals vanish and K_eff lies past 128.
        f = GridFunction((-1.0) ** np.arange(4096))
        full = functional_values(f, 1024)
        lengths = []
        original = ks2.functional_values
        monkeypatch.setattr(ks2, "functional_values",
                            lambda f, K: lengths.append(K) or original(f, K))
        v, k_eff = converged_values(f, 1024)
        rule = stopping_rule(f, full)
        assert lengths == [128, 256]
        assert 128 < k_eff <= 256
        assert rule[k_eff - 1] and not rule[k_eff - 2]
        assert v[:k_eff].tobytes() == full[:k_eff].tobytes()
        assert not np.any(v[k_eff:])

    def test_zero_function(self):
        z = GridFunction(np.zeros(64))
        assert functional_Fk(z, 7) == 0.0

    def test_aligned_step_exact(self):
        f = GridFunction(np.where(np.arange(64) < 32, 1.0, 0.0))
        # cube 4 is [1/4, 3/4]; the step lives on [0, 1/2)
        assert functional_Fk(f, 4) == pytest.approx(0.25, abs=1e-15)

    def test_l1_contraction(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            f = GridFunction(rng.standard_normal(256)
                             + 1j * rng.standard_normal(256))
            l1 = float(np.sum(np.abs(f.values)) / 256)
            for k in (1, 2, 7, 19, 32):
                assert abs(functional_Fk(f, k)) <= l1 + 1e-12

    @pytest.mark.parametrize("k, error", [(2.5, TypeError), (True, TypeError), ("3", TypeError),
                                          (0, ValueError), (-2, ValueError)])
    def test_rejects_bad_cube_index(self, k, error):
        with pytest.raises(error, match="cube index"):
            functional_Fk(constant_one(64), k)

    @pytest.mark.parametrize("K, error", [(8.0, TypeError), (0, ValueError)])
    def test_values_reject_bad_truncation(self, K, error):
        with pytest.raises(error, match="truncation"):
            functional_values(constant_one(64), K)


class TestKernelBitwise:
    """The kernel sums the dense loop's products over the cells each
    cube meets: within the summation slack of that loop, and bit for bit
    the same value however the cubes are grouped into calls."""

    @pytest.mark.parametrize("kind", ["step", "sine"])
    @pytest.mark.parametrize("M, K", [(16, 8), (256, 64), (2048, 300), (8192, 1024)])
    def test_matches_per_cube_loop(self, M, K, kind):
        f = kernel_input(kind, M)
        got = functional_values(f, K)
        assert got.dtype == np.complex128 and got.shape == (K,)
        assert_near_dense(got, f)

    @pytest.mark.parametrize("kind", ["step", "sine"])
    @pytest.mark.parametrize("M", [424, 1000])
    def test_grid_not_a_power_of_two(self, M, kind):
        f = kernel_input(kind, M)
        assert_near_dense(functional_values(f, 300), f)

    def test_cubes_smaller_than_a_cell(self):
        # From k = 45 on, 741 of the first 1074 cubes have scales below the
        # cell width 2^-8, the smallest 2^-46.
        f = kernel_input("sine", 256)
        assert min(cube(k, 1).side for k in range(1, 1075)) == 2.0**-46
        assert_near_dense(functional_values(f, 1074), f)

    def test_cubes_clipped_at_the_ends(self):
        ks = [k for k in range(1, 1075) if cube(k, 1).center[0] in (0.0, 1.0)]
        assert len(ks) > 40
        f = kernel_input("step", 1000)
        assert_near_dense([functional_Fk(f, k) for k in ks], f, ks)
        # On a dyadic grid the clipped half of a cube integrates 1 exactly.
        one = constant_one(256)
        for k in ks:
            assert functional_Fk(one, k) == cube(k, 1).side / 2.0

    def test_zero_function_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = functional_values(GridFunction(np.zeros(1000)), 1074)
        assert not np.any(vals)

    def test_aligned_dyadic_steps_exact(self):
        # Integer levels on eight dyadic steps, cube ends on multiples of
        # 2^-47: every product and partial sum is such a multiple below 8 in
        # modulus, 53 bits at most, so any summation order is exact.
        levels = np.random.default_rng(54).integers(-4, 5, 8)
        f = GridFunction(np.repeat(levels.astype(float), 32))
        vals = functional_values(f, 1074)
        for k in range(1, 1075):
            center, side, _ = cube(k, 1)
            a, b = Fraction(center[0]) - Fraction(side) / 2, Fraction(center[0]) + Fraction(side) / 2
            exact = sum(int(v) * max(Fraction(0), min(b, Fraction(i + 1, 8)) - max(a, Fraction(i, 8)))
                        for i, v in enumerate(levels))
            assert vals[k - 1] == float(exact)

    @pytest.mark.parametrize("kind", ["step", "sine"])
    def test_values_do_not_depend_on_the_other_cubes(self, kind):
        f = kernel_input(kind, 2048)
        assert functional_values(f, 300)[:64].tobytes() == functional_values(f, 64).tobytes()

    @pytest.mark.parametrize("kind", ["step", "sine"])
    def test_single_functional_is_vector_entry(self, kind):
        f = kernel_input(kind, 512)
        vals = functional_values(f, 96)
        for k in range(1, 97):
            assert np.complex128(functional_Fk(f, k)).tobytes() == vals[k - 1].tobytes()


class TestInnerProduct:
    def test_zero_argument(self):
        one = constant_one()
        z = GridFunction(np.zeros(512))
        assert ks2_inner(one, z, 32) == 0.0

    def test_nonnegative_selfpairing(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            f = random_step(rng)
            assert ks2_inner(f, f, 32).real >= 0.0

    def test_hermitian(self):
        rng = np.random.default_rng(42)
        f, g = random_step(rng), random_step(rng)
        lhs = ks2_inner(f, g, 48)
        rhs = np.conj(ks2_inner(g, f, 48))
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_fraction_oracle_for_constant(self):
        K = 64
        total = Fraction(0)
        for k in range(1, K + 1):
            center, side, _ = cube(k, 1)
            c, s = Fraction(center[0]), Fraction(side)
            overlap = max(Fraction(0), min(c + s / 2, Fraction(1)) - max(c - s / 2, Fraction(0)))
            total += Fraction(1, 2**k) * overlap**2
        got = ks2_inner(constant_one(resolution=100), constant_one(resolution=100), K)
        assert got.real == pytest.approx(float(total), abs=1e-12)
        assert abs(got.imag) <= 1e-15

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(43)
        fs = [random_step(rng) for _ in range(6)]
        gram = np.array([[ks2_inner(a, b, 40) for b in fs] for a in fs])
        assert np.min(np.linalg.eigvalsh((gram + gram.conj().T) / 2)) >= -1e-10

    def test_norm_monotone_in_truncation(self):
        rng = np.random.default_rng(44)
        f = random_step(rng)
        norms = [values_norm(converged_values(f, K)[0]) for K in range(1, 65)]
        assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_sup_bound(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            f = random_step(rng)
            vals = functional_values(f, 48)
            assert values_norm(converged_values(f, 48)[0]) <= float(np.max(np.abs(vals))) + 1e-12

    def test_tail_bound_dominates_extension(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            f = random_step(rng)
            small = ks2_inner(f, f, 24).real
            big = ks2_inner(f, f, 48).real
            assert big - small <= tail_bound(f, 24) + 1e-15

    def test_grid_mismatch(self):
        f = GridFunction(np.ones(64))
        with pytest.raises(ValueError, match="grid mismatch"):
            ks2_inner(f, GridFunction(np.ones(128)), 8)

    @pytest.mark.parametrize("K, error", [(-3, ValueError), (0, ValueError), (2.5, TypeError)])
    def test_tail_bound_rejects_bad_truncation(self, K, error):
        with pytest.raises(error, match="truncation"):
            tail_bound(constant_one(64), K)

    def test_values_reject_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            values_inner(np.ones(4), np.ones(5))


class TestVectorOnce:
    """Pairings built from one shared vector per function equal the
    per-call results bit for bit."""

    def test_norm_from_prefix_slice(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            f = random_step(rng)
            v = functional_values(f, 64)
            for k in (1, 8, 16, 32, 63, 64):
                assert np.float64(values_norm(converged_values(f, k)[0])).tobytes() == \
                    np.float64(values_norm(v[:k])).tobytes()

    def test_gram_from_shared_vectors(self):
        rng = np.random.default_rng(52)
        fs = [random_step(rng) for _ in range(6)]
        vs = [functional_values(f, 64) for f in fs]
        shared = np.array([[values_inner(a, b) for b in vs] for a in vs])
        pairwise = np.array([[ks2_inner(a, b, 64) for b in fs] for a in fs])
        assert shared.tobytes() == pairwise.tobytes()
        singles = [np.array([functional_Fk(f, k) for k in range(1, 65)]) for f in fs]
        loop = np.array([[complex(np.sum(dyadic_weights(64) * a * np.conj(b))) for b in singles]
                         for a in singles])
        assert shared.tobytes() == loop.tobytes()
        for f, v in zip(fs, vs):
            assert_near_dense(v, f)

    def test_embedding_bound_all_q_at_once(self):
        rng = np.random.default_rng(53)
        qs = [1.0, 2.0, 3.0, np.inf]
        for _ in range(5):
            f = random_step(rng)
            together = embedding_bounds(f, qs)
            apart = [embedding_bounds(f, q) for q in qs]
            assert len(together) == len(qs)
            assert [[b] for b in together] == apart


EPS = np.finfo(float).eps


def stopping_rule(f, full):
    """Whether the tail bound at k is within eps/2 of the weighted partial
    sum, for k = 1..len(full)."""
    partial = np.cumsum(dyadic_weights(len(full)) * np.abs(full) ** 2)
    return [tail_bound(f, k) <= EPS / 2 * partial[k - 1] for k in range(1, len(full) + 1)]


class TestEffectiveTruncation:
    """``converged_values`` stops at the first k where no later functional
    can move a float64 norm."""

    @pytest.mark.parametrize("kind", ["step", "sine"])
    @pytest.mark.parametrize("resolution", [256, 8192])
    def test_stops_at_first_k_where_rule_holds(self, kind, resolution):
        f = kernel_input(kind, resolution)
        full = functional_values(f, 1024)
        v, k_eff = converged_values(f, 1024)
        rule = stopping_rule(f, full)
        assert 1 < k_eff < 1024
        assert rule[k_eff - 1] and not rule[k_eff - 2]
        assert v.shape == (1024,)
        assert v[:k_eff].tobytes() == full[:k_eff].tobytes()
        assert not np.any(v[k_eff:])
        assert abs(values_norm(v) - values_norm(full)) <= EPS * values_norm(full)

    def test_zero_function(self):
        z = GridFunction(np.zeros(512))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, k_eff = converged_values(z, 64)
        assert k_eff == 1
        assert v.shape == (64,) and not np.any(v)

    def test_short_unconverged_truncation_is_the_full_vector(self):
        f = kernel_input("step", 512)
        v, k_eff = converged_values(f, 16)
        assert k_eff == 16
        assert v.tobytes() == functional_values(f, 16).tobytes()

    def test_norm_square_is_self_pairing(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            f = random_step(rng, resolution=1024)
            assert values_norm(converged_values(f, 512)[0]) ** 2 == pytest.approx(
                ks2_inner(f, f, 512).real, rel=4 * EPS)

    def test_suite_evaluates_one_short_prefix_per_function(self, monkeypatch):
        calls = []
        original = ks2.functional_values

        def counted(f, K):
            calls.append((f, K))  # holds f, so no two functions share an id
            return original(f, K)

        monkeypatch.setattr(ks2, "functional_values", counted)
        run_suite("ks2", 0, SuiteParams(grid=8192, cubes=1024, trials=1))
        per_function = {}
        for f, K in calls:
            per_function[id(f)] = per_function.get(id(f), 0) + K
        assert len(per_function) > 64
        assert max(per_function.values()) <= 128


def bound_holds(f, q, K=64):
    """The suites' containment test: norm <= bound within 1e-9 * (1 + bound)."""
    norm = values_norm(converged_values(f, K)[0])
    return all(norm - b <= 1e-9 * (1.0 + b) for b in embedding_bounds(f, q))


class TestEmbeddingBound:
    def test_zero(self):
        z = GridFunction(np.zeros(128))
        assert embedding_bounds(z, [1.0, 2.0, np.inf]) == [0.0, 0.0, 0.0]
        assert values_norm(converged_values(z, 64)[0]) == 0.0
        assert tail_bound(z, 64) == 0.0

    def test_constant_q2(self):
        f = constant_one()
        assert bound_holds(f, 2.0)
        assert embedding_bounds(f, 2.0) == [pytest.approx(1.0, abs=1e-12)]
        assert values_norm(converged_values(f, 64)[0]) <= 1.0

    @pytest.mark.parametrize("q", [1.0, 2.0, 4.0])
    def test_random_finite_q(self, q):
        rng = np.random.default_rng(48)
        for _ in range(50):
            assert bound_holds(random_step(rng), q)

    def test_sup_norm_constant(self):
        rng = np.random.default_rng(49)
        for _ in range(50):
            f = random_step(rng)
            assert bound_holds(f, np.inf)
            sup = float(np.max(np.abs(f.values)))
            assert embedding_bounds(f, np.inf) == [0.5 * sup]
            assert values_norm(converged_values(f, 64)[0]) <= 0.5 * sup + 1e-9

    def test_rejects_small_q(self):
        with pytest.raises(ValueError, match="q must lie"):
            embedding_bounds(constant_one(), 0.5)


class TestWeakStrong:
    def test_zero_frequency_norm(self):
        z = GridFunction(np.zeros(512))
        assert values_norm(converged_values(z, 64)[0]) == 0.0

    def test_per_functional_envelope(self):
        for m in (1, 2, 4, 8, 16, 32, 64):
            f = from_callable(lambda t, m=m: np.sin(2.0 * np.pi * m * t), 4096)
            for k in range(1, 9):
                assert abs(functional_Fk(f, k)) <= 1.0 / (np.pi * m) + 5e-3

    def test_decay_demo(self):
        norms, k_eff = weak_strong_norms(64, 256, resolution=1024)
        assert len(norms) == 64
        assert 1 <= k_eff < 256
        assert norms[-1] / norms[0] <= 0.2
        f = from_callable(lambda t: np.sin(2.0 * np.pi * t), 1024)
        assert norms[0] == values_norm(converged_values(f, 256)[0])

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError, match="m_max"):
            weak_strong_norms(0, 16)

    @pytest.mark.parametrize("resolution, error", [(0, ValueError), (-8, ValueError),
                                                   (64.0, TypeError)])
    def test_rejects_bad_resolution(self, resolution, error):
        with pytest.raises(error, match="resolution"):
            weak_strong_norms(4, 16, resolution=resolution)


class TestDump:
    def test_header_and_first_row(self):
        header, rows = cube_rows(1, 4)
        assert header == ["k", "l", "i", "center0", "side"]
        assert rows[0] == [1, 1, 1, "0.0", "0.5"]
        assert len(rows) == 4

    def test_two_dim_header(self):
        header, _ = cube_rows(2, 2)
        assert header == ["k", "l", "i", "center0", "center1", "side"]

    def test_count_validation(self):
        with pytest.raises(ValueError, match="count"):
            cube_rows(1, 0)

    @pytest.mark.parametrize("count", [True, 2.5, "3"])
    def test_count_must_be_an_integer(self, count):
        with pytest.raises(TypeError, match="count"):
            cube_rows(1, count)
