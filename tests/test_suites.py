import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from helpers import rand_complex, run_check

from almosthilbert.report import FAIL, MEASURED, PASS, to_csv, to_json, to_text
from almosthilbert import integrals, numerics, operators, schatten, suites
from almosthilbert.operators import BOperator, adjoint, from_h_matrix, spectral_decompose
from almosthilbert.embedding import coefficient_h_inner, coefficient_h_norm
from almosthilbert.spaces import analyze, lp_norm_rows, reconstruct
from almosthilbert.suites import (
    _REGISTRY,
    SUITE_NAMES,
    SuiteParams,
    _Check,
    _Run,
    check_seed,
    list_checks,
    run_suite,
)

FAST = SuiteParams(trials=5)

# the measured entries (no tolerance) each suite holds; each belongs to one
MEASURED_BY_SUITE = {
    "adjoint": {"bnorm-adjoint-ratio", "lax-constant-khat"},
    "embedding": {"embedding-middle-ratio"},
    "integral": {"hilbert-cp-constant"},
    "ks2": set(),
    "schatten": set(),
}

# samples per check at trials=1: scaled counts floor at one instance per block
SAMPLES_AT_ONE_TRIAL = {
    "adjoint-algebra": 5,
    "adjoint-defining-identity": 10,
    "adjoint-positive-product": 1,
    "bnorm-adjoint-ratio": 1,
    "coefficient-projection": 1,
    "duality-homogeneity": 4,
    "duality-identity": 8,
    "embedding-gram-diagonal": 64,
    "embedding-gram-schmidt": 4,
    "embedding-hnorm-below-bnorm": 4,
    "embedding-hnorm-below-sup": 4,
    "embedding-jb-linear": 1,
    "embedding-middle-ratio": 4,
    "hilbert-cp-constant": 1,
    "hilbert-isometry": 1,
    "hilbert-pv-convergence": 8,
    "hilbert-skew-adjoint": 2,
    "hilbert-square-identity": 1,
    "horn-inequality": 5,
    "ks2-embedding-bound": 3,
    "ks2-functional-contraction": 25,
    "ks2-fundamentality": 2,
    "ks2-gram-psd": 1,
    "ks2-truncation-monotone": 1,
    "ks2-weak-strong-decay": 64,
    "lax-constant-khat": 1,
    "lax-norm-identity": 1,
    "lax-spectrum-invariance": 2,
    "lidskii-trace": 5,
    "minmax-matches-direct": 3,
    "polar-reconstruction": 1,
    "riesz-positivity": 1,
    "riesz-symmetry": 1,
    "schatten-two-path": 5,
    "schatten-unitary-invariance": 3,
    "self-conjugacy-equivalence": 4,
    "singular-value-paths": 2,
    "spectral-reconstruction": 1,
    "weyl-inequality": 5,
}

# the frozen registry: every check name, each written once, as a key above
ALL_CHECKS = tuple(sorted(SAMPLES_AT_ONE_TRIAL))


def _pass_basis(params, p):
    """The basis run_suite builds for the pass at exponent p."""
    return suites.fourier_sbasis(params.dim, p, suites._resolution(params))


class TestRegistry:
    def test_all_names_frozen(self):
        assert list_checks("all") == ALL_CHECKS

    def test_suites_partition_the_registry(self):
        parts = [s for s in SUITE_NAMES if s != "all"]
        members = [set(list_checks(suite)) for suite in parts]
        assert set().union(*members) == set(ALL_CHECKS)
        assert sum(map(len, members)) == len(ALL_CHECKS)  # pairwise disjoint
        assert {check.suite for check in _REGISTRY.values()} <= set(parts)

    @pytest.mark.parametrize("suite", [s for s in SUITE_NAMES if s != "all"])
    def test_measured_entries_in_every_suite(self, suite):
        measured = {name for name in list_checks(suite) if _REGISTRY[name].tol is None}
        assert measured == MEASURED_BY_SUITE[suite]

    def test_names_sorted_and_unique(self):
        names = list_checks("all")
        assert list(names) == sorted(set(names))

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            list_checks("spectra")


class TestSeedSplit:
    def test_stable(self):
        assert check_seed(42, "duality-identity") == check_seed(42, "duality-identity")

    def test_name_sensitivity(self):
        seeds = {check_seed(42, name) for name in ALL_CHECKS}
        assert len(seeds) == len(ALL_CHECKS)

    def test_master_sensitivity(self):
        assert check_seed(1, "weyl-inequality") != check_seed(2, "weyl-inequality")


class TestParams:
    def test_defaults_valid(self):
        p = SuiteParams()
        assert p.dim == 8 and p.grid == 256 and p.trials == 100

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(dim=0), "dim"),
        (dict(dim=100), "dim"),
        (dict(grid=100), "power of two"),
        (dict(grid=8), "power of two"),
        (dict(p=1.0), "p must lie"),
        (dict(p=65), "p must lie"),
        (dict(alpha=1.0), "alpha"),
        (dict(trials=0), "trials"),
        (dict(p=float("inf")), "p must lie"),
        (dict(cubes=4), "cubes"),
        (dict(dim=54), "float64"),
        (dict(p=float("nan")), "p must lie"),
        (dict(cubes=1075), "float64"),
    ])
    def test_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            SuiteParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(dim=8.0), dict(dim=True), dict(grid=256.0), dict(trials=2.5),
        dict(trials=False), dict(cubes=64.0),
    ])
    def test_integer_fields_reject_non_integers(self, kwargs):
        (name,) = kwargs
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            SuiteParams(**kwargs)


@pytest.fixture(scope="module")
def all_at_seed_11():
    return json.loads(to_json(run_suite("all", seed=11, params=FAST)))


class TestRunSuite:
    @pytest.mark.parametrize("suite", [s for s in SUITE_NAMES if s != "all"])
    def test_each_suite_passes(self, suite, all_at_seed_11):
        rep = run_suite(suite, seed=11, params=FAST)
        assert rep.passed
        assert rep.suite == suite and rep.seed == 11
        assert {c.name for c in rep.checks} == set(list_checks(suite))
        # each check draws from its own stream: the suite's report is the
        # "all" report restricted to the suite, entry for entry
        doc = json.loads(to_json(rep))
        whole = {entry["name"]: entry for entry in all_at_seed_11["checks"]}
        for entry in doc["checks"]:
            assert entry == whole[entry["name"]]
        assert doc["tail_bounds"].items() <= all_at_seed_11["tail_bounds"].items()

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("everything", seed=0, params=FAST)

    def test_scalar_space_still_passes(self):
        rep = run_suite("adjoint", seed=3, params=SuiteParams(dim=1, trials=5))
        assert rep.passed

    @pytest.mark.parametrize("dim", [32, 48])
    def test_self_conjugacy_holds_at_large_dim(self, dim):
        # exp(itA) and the adjoint defect are both judged in the H metric,
        # away from the 2^(dim-1) spread of the coordinate weights (other
        # adjoint checks still fail at these dims)
        rep = run_suite("adjoint", seed=0, params=SuiteParams(dim=dim, trials=5))
        (check,) = [c for c in rep.checks if c.name == "self-conjugacy-equivalence"]
        assert check.status == PASS and check.samples == 20

    def test_schatten_fails_honestly_at_dim_32(self):
        # the p = 1 bracket loses accuracy on small singular values there
        rep = run_suite("schatten", seed=0, params=SuiteParams(dim=32, trials=5))
        assert len(rep.checks) == len(list_checks("schatten"))
        assert {c.name for c in rep.checks if c.status == FAIL} == {"schatten-two-path"}

    def test_adjoint_fails_honestly_at_dim_53(self):
        rep = run_suite("adjoint", seed=0, params=SuiteParams(dim=53, trials=5))
        assert len(rep.checks) == len(list_checks("adjoint")) == 11
        assert {c.name for c in rep.checks if c.status == FAIL} == {
            "adjoint-defining-identity", "polar-reconstruction", "spectral-reconstruction"}

    @pytest.mark.parametrize("suite, failing", [
        ("adjoint", {"adjoint-defining-identity", "lax-norm-identity",
                     "spectral-reconstruction"}),
        ("schatten", {"schatten-two-path", "singular-value-paths"}),
    ])
    def test_unweighted_adjoint_is_reported(self, monkeypatch, suite, failing):
        # a planted defect, A* = A^H without the weights, shows as failed
        # checks of a complete report (swapaxes, not .T: A may be a stack)
        def unweighted(A):
            return BOperator(A.matrix.conj().swapaxes(-1, -2), A.weights)
        for module in (operators, suites, schatten):
            monkeypatch.setattr(module, "adjoint", unweighted)
        rep = run_suite(suite, seed=0, params=FAST)
        assert len(rep.checks) == len(list_checks(suite))
        assert {c.name for c in rep.checks if c.status == FAIL} == failing

    def test_determinism_bytes(self):
        a = run_suite("embedding", seed=5, params=FAST)
        b = run_suite("embedding", seed=5, params=FAST)
        assert to_json(a) == to_json(b)

    def test_seed_changes_measurements(self):
        a = run_suite("integral", seed=1, params=FAST)
        b = run_suite("integral", seed=2, params=FAST)
        pick = lambda rep: [c.worst_violation for c in rep.sorted_checks()
                            if c.status == MEASURED]
        assert pick(a) != pick(b)

    def test_tolerance_scale_can_fail(self, monkeypatch):
        # a violation above the declared tolerance fails that check alone
        check = _REGISTRY["duality-identity"]
        tol = check.tol
        monkeypatch.setitem(_REGISTRY, "duality-identity",
                            replace(check, measure=lambda run, x: 2 * tol))
        rep = run_suite("embedding", seed=5, params=FAST)
        assert not rep.passed
        (failed,) = [c for c in rep.checks if c.status == FAIL]
        assert failed.name == "duality-identity" and failed.params["tol"] == tol

    def test_ks2_embedding_bound_counts_each_q_once(self, monkeypatch):
        tol = _REGISTRY["ks2-embedding-bound"].tol
        check = run_check(monkeypatch, "ks2-embedding-bound", SuiteParams(trials=4))
        assert check.worst_violation <= tol
        assert check.params["q_list"] == "1,2,inf"
        assert check.samples == 2 * 3

    def test_sample_counts_at_one_trial(self):
        rep = run_suite("all", seed=0, params=SuiteParams(trials=1))
        assert {c.name: c.samples for c in rep.checks} == SAMPLES_AT_ONE_TRIAL

    def test_nan_sample_fails_its_check(self, monkeypatch):
        # the second multiplier call is hilbert-isometry's one chunk
        # (hilbert-cp-constant sorts before it and draws one chunk at
        # trials=5); one NaN sample in it fails that check alone
        real = integrals.hilbert_multiplier_rows
        calls = []

        def planted(f):
            calls.append(1)
            out = real(f)
            if len(calls) == 2:
                out[0] *= np.nan
            return out

        monkeypatch.setattr(integrals, "hilbert_multiplier_rows", planted)
        rep = run_suite("integral", seed=0, params=FAST)
        assert [c.name for c in rep.checks if c.status == FAIL] == ["hilbert-isometry"]
        text = to_json(rep)
        assert "NaN" not in text
        (entry,) = [c for c in json.loads(text)["checks"] if c["name"] == "hilbert-isometry"]
        assert entry["worst_violation"] is None
        assert entry["params"]["tol"] == 1e-12

    def test_overflowing_algebra_instance_fails(self, monkeypatch):
        # adjoint-algebra's sides are not operators, so nothing refuses an
        # overflowing product; the instance's NaN defect fails the check
        real = suites._draw_algebra

        def planted(run, first, stop):
            stacks = real(run, first, stop)
            if first == 0:
                at, a, b, _ = stacks[0]  # instance 0, at N = 4
                a[at == 0] *= 1e200
                b[at == 0] *= 1e200
            return stacks

        monkeypatch.setitem(_REGISTRY, "adjoint-algebra",
                            replace(_REGISTRY["adjoint-algebra"], draw=planted))
        check = run_check(monkeypatch, "adjoint-algebra", FAST)
        assert check.status == FAIL and np.isnan(check.worst_violation)

    def test_non_finite_params_and_tail_bounds_are_json_null(self, monkeypatch):
        # an all-NaN lax_khat leaves khat_min at its initial inf; RFC 8259
        # JSON spells neither inf nor NaN, so both are written as null
        def planted(T, p, seed=0):
            return np.full(len(seed), np.nan)

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        monkeypatch.setattr(suites, "lax_khat", planted)
        rep = run_suite("adjoint", seed=0, params=FAST)
        rep.tail_bounds["planted"] = np.inf
        doc = json.loads(to_json(rep), parse_constant=refuse)
        (entry,) = [c for c in doc["checks"] if c["name"] == "lax-constant-khat"]
        assert entry["params"]["khat_min"] is None and entry["worst_violation"] is None
        assert doc["tail_bounds"] == {"planted": None}

    @pytest.mark.parametrize("dim, chunk, blocks", [(53, 1, 1), (8, 32, 1),
                                                    (8, 32, len(suites.P_SWEEP))])
    def test_draws_in_index_order_one_chunk_alive_at_a_time(self, monkeypatch, dim, chunk,
                                                            blocks):
        # holding every instance of a check at once would hold, e.g., all
        # 2,000 grid functions of adjoint-defining-identity; a chunk ends
        # at its block's end
        log, alive, peak = [], [0], [0]

        class Instance:
            def __init__(self, i):
                self.i = i
                alive[0] += 1
                peak[0] = max(peak[0], alive[0])

            def __del__(self):
                alive[0] -= 1

        def draw(run, first, stop):
            log.append(("draw", first, stop))
            return [Instance(i) for i in range(first, stop)]

        def measure(run, xs):
            log.append(("measure", [x.i for x in xs]))
            return np.zeros(len(xs))

        trials = 3 * chunk + 1  # count 100: three full chunks and one instance per block
        fake = _Check(suite="integral", tol=1.0, count=100, samples=None, draw=draw,
                      measure=measure, dims=(dim,), basis="sweep" if blocks > 1 else None)
        monkeypatch.setattr(suites, "_REGISTRY", {"fake": fake})
        rep = run_suite("integral", seed=0, params=replace(FAST, trials=trials))
        expected = []
        for block in range(0, blocks * trials, trials):
            for first in range(block, block + trials, chunk):
                stop = min(first + chunk, block + trials)
                expected += [("draw", first, stop), ("measure", list(range(first, stop)))]
        assert log == expected
        assert peak[0] == chunk and alive[0] == 0
        assert [(c.name, c.status, c.samples) for c in rep.checks] == [
            ("fake", PASS, blocks * trials)]

    def test_chunk_is_sized_by_operator_bytes(self):
        assert [suites._chunk(n) for n in (1, 8, 16, 32, 33, 53)] == [2048, 32, 8, 2, 1, 1]

    def test_chunk_counts_the_grid_values_a_measure_holds(self):
        # adjoint-defining-identity holds one grid function per instance:
        # at 256 cells the operator bound sets its chunk, at 8192 the grid's
        check = suites._REGISTRY["adjoint-defining-identity"]
        sizes = [check.chunk(SuiteParams(dim=n, grid=g))
                 for n, g in ((8, 256), (16, 256), (8, 8192), (53, 256))]
        assert sizes == [32, 8, 1, 1]
        # duality-identity holds five: 6 at the defaults, one at desk scale
        duality = suites._REGISTRY["duality-identity"]
        assert [duality.chunk(SuiteParams(grid=g)) for g in (256, 2048, 8192)] == [6, 1, 1]
        # adjoint-algebra's instances cycle through N = 4, 8, 16 whatever
        # --dim is, 112 entries an instance on average: 18 a chunk
        algebra = suites._REGISTRY["adjoint-algebra"]
        assert [algebra.chunk(SuiteParams(dim=n)) for n in (1, 8, 53)] == [18, 18, 18]
        # spectral-reconstruction holds a projection per eigenvalue: N operators
        spectral = suites._REGISTRY["spectral-reconstruction"]
        assert [spectral.chunk(SuiteParams(dim=n)) for n in (4, 8, 16)] == [32, 4, 1]

    @pytest.mark.parametrize("name", sorted(n for n, c in _REGISTRY.items() if c.grid_values))
    def test_grid_values_bound_a_chunk(self, name):
        # the bytes numpy allocates while a chunk is drawn and measured on
        # the default grid grow by at most grid_values grid functions per
        # instance; the one of slack covers the operators the operator bound
        # counts and the allocator's rounding
        check, params = _REGISTRY[name], SuiteParams()
        basis = _pass_basis(params, params.p) if check.basis else None

        def peak(count):
            run = _Run(params, np.random.default_rng(0))
            run.pass_basis = basis  # as run_suite gives a check that declares a basis
            check.measure(run, check.draw(run, 0, count))  # spaces and caches first
            tracemalloc.start()
            try:
                check.measure(run, check.draw(run, 0, count))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_instance = (peak(8) - peak(4)) / 4 / (16 * suites._resolution(params))
        assert per_instance <= check.grid_values + 1.0

    def test_report_is_independent_of_chunk_size(self, monkeypatch):
        # every check at the defaults gives the same canonical bytes with one
        # instance a chunk and with 64, so a stacked measure gives each
        # instance what it gets alone
        default = to_json(run_suite("all", 0, SuiteParams()))
        for chunk in (1, 64):
            monkeypatch.setattr(suites._Check, "chunk", lambda self, params, n=chunk: n)
            assert to_json(run_suite("all", 0, SuiteParams())) == default

    def test_gram_schmidt_rows_are_the_per_pair_loop(self):
        # the broadcast k x k tables give each orthogonalized vector the bytes
        # of one inner product per pair: its B-norm defect, its H cosines
        # with the others, then its pairings less the Kronecker delta
        run = _Run(FAST, np.random.default_rng(9))
        basis = run.pass_basis = _pass_basis(FAST, FAST.p)
        w = run.weights
        vecs = suites._draw_gram_schmidt(run, 0, 6)
        psis, representers = suites.biorthonormalize(vecs, basis, w)
        c, c_dual = analyze(psis, basis), analyze(representers, basis)
        k = vecs.shape[-2]
        rows = []
        for i in range(k):
            row = [np.abs(lp_norm_rows(psis[:, i], basis.p) - 1.0)]
            for j in range(k):
                if j != i:
                    h = coefficient_h_norm(c[:, i], w) * coefficient_h_norm(c[:, j], w)
                    row.append(numerics.modulus(coefficient_h_inner(c[:, i], c[:, j], w))
                               / np.maximum(h, 1e-300))
            for j in range(k):
                pairing = coefficient_h_inner(c[:, i], c_dual[:, j], w)
                row.append(numerics.modulus(pairing - (1.0 if i == j else 0.0)))
            rows.append(np.stack(row, axis=-1))
        assert suites._chk_gram_schmidt(run, vecs).tobytes() == np.stack(rows, axis=1).tobytes()

    def test_spectral_reconstruction_is_the_per_operator_loop(self):
        # the chunk's stacked residuals give each operator the bytes of one
        # operator's loop; the third operator has a two-member cluster whose
        # 1e-10 gap makes reconstruction its largest residual
        rng = np.random.default_rng(8)
        run = _Run(FAST, rng)
        w = run.weights
        mats = suites._draw_selfadjoints(run, 0, 32)
        unitary, _ = np.linalg.qr(rand_complex(rng, 8, 8))
        spectrum = [3.0, 1.0, 1.0 + 1e-10, 0.5, -0.5, -1.0, -2.0, -4.0]
        mats[2] = from_h_matrix((unitary * spectrum) @ unitary.conj().T, w).matrix
        expected, clusters = [], []
        for mat in mats:
            # the operator's clusters alone, without its empty slots
            values, projections = spectral_decompose(BOperator(mat, w))
            occupied = np.any(projections.matrix != 0, axis=(-2, -1))
            values, p = values[occupied], projections.matrix[occupied]
            firsts, seconds = np.triu_indices(len(p), 1)
            products = p[firsts] @ p[seconds]
            stack = [mat, sum(x * p_k for x, p_k in zip(values, p)) - mat,
                     sum(p) - np.eye(len(w))]
            for i, p_i in enumerate(p):
                stack += [p_i @ p_i - p_i, adjoint(BOperator(p_i, w)).matrix - p_i,
                          *products[firsts == i]]
            norms = numerics.frobenius_norm(np.stack(stack))
            norms[1] /= max(norms[0], 1e-300)
            expected.append(np.max(norms[1:]))
            clusters.append(len(p))
        assert clusters[2] == 7
        assert suites._chk_spectral(run, mats).tobytes() == np.array(expected).tobytes()

    def test_chunk_draws_are_the_instance_draws(self):
        # one Generator call per chunk consumes the stream as one call per
        # part of each instance (real part, then imaginary part) would
        shapes = ((3, 3), (3,), ())
        chunk = _Run(FAST, np.random.default_rng(5)).normals(7, *shapes)
        rng = np.random.default_rng(5)
        for i in range(7):
            for part, shape in zip(chunk, shapes):
                assert part[i].tobytes() == np.asarray(rand_complex(rng, *shape)).tobytes()
        run, rng = _Run(FAST, np.random.default_rng(6)), np.random.default_rng(6)
        basis = run.pass_basis = _pass_basis(FAST, FAST.p)

        def hermitian():
            a = rand_complex(rng, 8, 8)
            return a + a.conj().T

        forms = [(run.polys(4), lambda: reconstruct(rand_complex(rng, 8), basis).values),
                 (run.matrices(4), lambda: rand_complex(rng, 8, 8) / np.sqrt(8)),
                 (run.hermitians(4), hermitian),
                 (run.steps(4), lambda: np.repeat(rand_complex(rng, 8), FAST.grid // 8))]
        for stack, alone in forms:
            assert [row.tobytes() for row in stack] == [alone().tobytes() for _ in range(4)]
        # adjoint-algebra's chunk, cut into one stack per N, from each phase
        # of the N = 4, 8, 16 cycle: instance i is one normals() call
        for first in (3, 4, 5):
            run, lone = (_Run(FAST, np.random.default_rng(7)) for _ in range(2))
            stacks = suites._draw_algebra(run, first, first + 8)
            for i in range(first, first + 8):
                n, j = suites._ADJOINT_DIMS[i % 3], i - first
                a, b, scalar = lone.normals(1, (n, n), (n, n), ())
                at, a_stack, b_stack, scalars = stacks[i % 3]
                (k,) = np.flatnonzero(at == j)
                assert a_stack[k].tobytes() == (a[0] / np.sqrt(n)).tobytes()
                assert b_stack[k].tobytes() == (b[0] / np.sqrt(n)).tobytes()
                assert scalars[k].tobytes() == scalar[0].tobytes()

    @pytest.mark.parametrize("block", range(len(suites.P_SWEEP)))
    def test_homogeneity_block_is_its_instances(self, block):
        # a P_SWEEP block of duality-homogeneity drawn and measured as one
        # chunk gives each instance the bytes it gets drawn and measured
        # alone, at the block's p
        check = _REGISTRY["duality-homogeneity"]
        first, stop = 6 * block, 6 * block + 6
        run, lone = (_Run(FAST, np.random.default_rng(4)) for _ in range(2))
        run.pass_basis = lone.pass_basis = _pass_basis(FAST, suites.P_SWEEP[block])
        chunk = check.draw(run, first, stop)
        alone = [check.measure(lone, check.draw(lone, i, i + 1)) for i in range(first, stop)]
        assert check.measure(run, chunk).tobytes() == np.concatenate(alone).tobytes()

    @pytest.mark.parametrize("params, counts", [
        # 35 instances of the 500-count checks: a chunk of 32 and one of 3;
        # 70 of adjoint-defining-identity in chunks of 32 (N = 8 bounds
        # them); 14 per P_SWEEP block of duality-identity in chunks of 6, the
        # third cut at the block's end
        (SuiteParams(trials=7), {
            "adjoint-algebra": 35, "adjoint-defining-identity": 70,
            "adjoint-positive-product": 7, "self-conjugacy-equivalence": 28,
            "lax-spectrum-invariance": 14, "lax-norm-identity": 7, "polar-reconstruction": 3,
            "spectral-reconstruction": 3, "minmax-matches-direct": 3,
            "schatten-two-path": 35, "singular-value-paths": 14,
            "schatten-unitary-invariance": 9, "weyl-inequality": 35, "horn-inequality": 35,
            "lidskii-trace": 35, "lax-constant-khat": 1, "bnorm-adjoint-ratio": 1,
            "duality-identity": 56, "duality-homogeneity": 4, "coefficient-projection": 7,
            "embedding-hnorm-below-sup": 32, "embedding-hnorm-below-bnorm": 32,
            "embedding-middle-ratio": 12, "embedding-gram-diagonal": 64,
            "embedding-jb-linear": 7, "embedding-gram-schmidt": 4,
            "hilbert-square-identity": 7, "hilbert-isometry": 7, "hilbert-skew-adjoint": 14,
            "hilbert-pv-convergence": 8, "riesz-symmetry": 3, "riesz-positivity": 7,
            "hilbert-cp-constant": 2, "ks2-gram-psd": 1, "ks2-truncation-monotone": 3,
            "ks2-functional-contraction": 175, "ks2-fundamentality": 14,
            "ks2-embedding-bound": 9, "ks2-weak-strong-decay": 64}),
        # chunks of 8 at N = 16 (also of adjoint-defining-identity): the
        # measured entries cross one too; 100 per P_SWEEP block of
        # duality-identity in chunks of 6, cut at each block's end
        (SuiteParams(dim=16, trials=50), {
            "adjoint-algebra": 250, "adjoint-defining-identity": 500,
            "adjoint-positive-product": 50, "self-conjugacy-equivalence": 200,
            "lax-spectrum-invariance": 100, "lax-norm-identity": 50,
            "polar-reconstruction": 25, "spectral-reconstruction": 25,
            "minmax-matches-direct": 15,
            "schatten-two-path": 250, "singular-value-paths": 100,
            "schatten-unitary-invariance": 75,
            "weyl-inequality": 250, "horn-inequality": 250,
            "lidskii-trace": 250, "lax-constant-khat": 10, "bnorm-adjoint-ratio": 10,
            "duality-identity": 400, "duality-homogeneity": 48, "coefficient-projection": 50,
            "embedding-hnorm-below-sup": 248, "embedding-hnorm-below-bnorm": 248,
            "embedding-middle-ratio": 100, "embedding-gram-diagonal": 256,
            "embedding-jb-linear": 50, "embedding-gram-schmidt": 40,
            "hilbert-square-identity": 50, "hilbert-isometry": 50, "hilbert-skew-adjoint": 100,
            "hilbert-pv-convergence": 8, "riesz-symmetry": 25, "riesz-positivity": 50,
            "hilbert-cp-constant": 20, "ks2-gram-psd": 10, "ks2-truncation-monotone": 25,
            "ks2-functional-contraction": 1250, "ks2-fundamentality": 100,
            "ks2-embedding-bound": 75, "ks2-weak-strong-decay": 64}),
    ], ids=["dim8-trials7", "dim16-trials50"])
    def test_sample_counts_across_chunk_boundaries(self, params, counts):
        seen = {}
        for suite in ("adjoint", "schatten", "embedding", "integral", "ks2"):
            rep = run_suite(suite, seed=0, params=params)
            assert rep.passed
            seen.update({c.name: c.samples for c in rep.checks})
        assert seen == counts

    def test_eigenvalue_defect_is_reported_not_raised(self, monkeypatch):
        # a 1e-6 relative error in one eigenvalue per matrix misses the trace;
        # lidskii-trace reports it in a complete report
        real = np.linalg.eigvals

        def shifted(a):
            lam = real(a)
            lam[..., 0] *= 1.0 + 1e-6
            return lam

        monkeypatch.setattr(np.linalg, "eigvals", shifted)
        rep = run_suite("schatten", seed=0, params=FAST)
        assert len(rep.checks) == len(list_checks("schatten"))
        assert "lidskii-trace" in {c.name for c in rep.checks if c.status == FAIL}

    def test_ks2_tail_bound_recorded(self):
        rep = run_suite("ks2", seed=9, params=FAST)
        assert "ks2-truncation-tail" in rep.tail_bounds
        assert rep.tail_bounds["ks2-truncation-tail"] >= 0.0

    def test_duration_positive_but_not_serialized(self):
        rep = run_suite("integral", seed=0, params=FAST)
        assert rep.duration > 0.0
        assert all(c.duration > 0.0 for c in rep.checks)
        assert sum(c.duration for c in rep.checks) <= rep.duration
        assert "duration" not in to_json(rep)
        assert to_csv(rep) == to_csv(replace(rep, checks=[replace(c, duration=0.0)
                                                          for c in rep.checks]))
        lines = to_text(rep).splitlines()
        for c in rep.sorted_checks():
            (line,) = [x for x in lines if f" {c.name} " in x]
            assert line.endswith(f"  {c.duration:.3f}s")


# the exponents of the passes that build a basis, in pass order, per
# suite; "p" stands for --p, whose pass follows P_SWEEP's when it is off it
BUILDS = {"all": (*suites.P_SWEEP, "p"), "embedding": (*suites.P_SWEEP, "p"),
          "adjoint": ("p",), "schatten": (), "ks2": (), "integral": ()}


class TestSharedSpace:
    @pytest.mark.parametrize("p", [FAST.p, 1.7], ids=["p-in-sweep", "p-off-sweep"])
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_only_checks_that_declare_a_basis_build_one(self, monkeypatch, suite, p):
        # one recorder over the whole run: a pass builds one basis between
        # blocks when it holds a block, in pass order, and a pass that holds
        # none builds none; a block gets a basis where its check declares
        # one; at most one basis at the run's N is alive at a time, none
        # while a check that declares none runs, and none outlives the run
        params = replace(FAST, p=p)
        built, refs, running = [], [], [None]

        def alive():
            return sum(ref() is not None for ref in refs)

        def tracking(n, q, resolution):
            assert running[0] is None, "built inside a block"
            assert alive() == 0
            basis = fourier_sbasis(n, q, resolution)
            built.append((n, q, resolution))
            refs.append(weakref.ref(basis))
            return basis

        def recording(check, run, block, basis):
            assert (basis is None) == (check.basis is None)
            assert check.basis or alive() == 0
            running[0] = check
            run_block(check, run, block, basis)
            running[0] = None

        fourier_sbasis, run_block = suites.fourier_sbasis, suites._run_block
        monkeypatch.setattr(suites, "fourier_sbasis", tracking)
        monkeypatch.setattr(suites, "_run_block", recording)
        run_suite(suite, seed=0, params=params)
        passes = dict.fromkeys(p if q == "p" else q for q in BUILDS[suite])
        assert built == [(params.dim, q, params.grid) for q in passes]
        assert alive() == 0

    def test_space_outside_a_basis_pass_raises(self, monkeypatch):
        # a check that reads a basis it does not declare fails every run
        fake = _Check(suite="integral", tol=1.0, count=None, samples=None,
                      draw=lambda run, first, stop: run.basis().p,
                      measure=lambda run, p: [0.0])
        monkeypatch.setattr(suites, "_REGISTRY", {"fake": fake})
        with pytest.raises(RuntimeError, match="does not declare"):
            run_suite("integral", seed=0, params=FAST)
        monkeypatch.setitem(suites._REGISTRY, "fake", replace(fake, basis="own"))
        assert run_suite("integral", seed=0, params=FAST).passed

    def test_shared_space_is_read_only(self):
        # a pass's checks share its basis, so none of them can write to it
        basis = _pass_basis(FAST, FAST.p)
        with pytest.raises(ValueError):
            basis.synthesis[0, 0] = 0.0
        with pytest.raises(ValueError):
            basis.analysis[0, 0] = 0.0
