"""End-to-end acceptance criteria, read from one suite report.

A module fixture runs the README's lead command once: the ``all`` suite at
seed 0 with the default parameters.  Each criterion names the registered
checks that back it and asserts, per check, that it passed and that it ran
at the pinned tolerance over the pinned sample count; each test prints one
[PASS]/[FAIL] line (straight to the terminal, bypassing capture) with the
measured worst violations.  The math lives in the suite registry only.
"""

import json

import pytest

from almosthilbert.report import FAIL, PASS, to_json
from almosthilbert.suites import SuiteParams, run_suite


@pytest.fixture(scope="module")
def checks():
    report = run_suite("all", seed=0, params=SuiteParams())
    return {c.name: c for c in report.checks}


def _announce(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}  ({detail})")
    assert ok, f"criterion {num} failed: {label} ({detail})"


@pytest.fixture
def criterion(capsys, checks):
    def _criterion(num, label, pins, extra_ok=True, extra=""):
        """``pins`` maps a check name to its (tolerance, sample count)."""
        ok, details = extra_ok, []
        for name, (tol, samples) in pins.items():
            c = checks[name]
            ok = (ok and c.status == PASS and c.params["tol"] == tol
                  and c.samples == samples)
            details.append(f"{name} {c.worst_violation:.1e} vs {c.params['tol']:g}"
                           f" n={c.samples}")
        _announce(capsys, num, label, ok, "; ".join(details + ([extra] if extra else [])))

    return _criterion


def test_report_has_no_failing_check(checks):
    assert [name for name, c in checks.items() if c.status == FAIL] == []


def test_01_duality_identity(criterion):
    criterion(1, "duality identity <u,J(u)> = |u|_p^2 = |J(u)|_q^2",
              {"duality-identity": (1e-6, 800)})


def test_02_embedding_norm_chain(criterion):
    criterion(2, "norm chain |u|_H <= sup|c_n| and |u|_H <= |u|_B; diagonal Gram",
              {"embedding-hnorm-below-sup": (1e-12, 500),
               "embedding-hnorm-below-bnorm": (5e-7, 500),
               "embedding-gram-diagonal": (1e-8, 64)})


def test_03_jb_linearity_and_bound(criterion):
    criterion(3, "J_B additive and conjugate-homogeneous",
              {"embedding-jb-linear": (1e-12, 100)})


def test_04_adjoint_algebra(criterion):
    criterion(4, "adjoint *-algebra (500 pairs) and defining identity (1000 triples)",
              {"adjoint-algebra": (1e-10, 500),
               "adjoint-defining-identity": (1e-10, 1000)})


def test_05_lax_spectrum_and_norm(criterion):
    criterion(5, "point-spectrum invariance and |T*T|_H = |T|_H^2",
              {"lax-spectrum-invariance": (1e-8, 200),
               "lax-norm-identity": (1e-8, 100)})


def test_06_self_conjugacy_equivalence(criterion):
    criterion(6, "self-conjugacy iff natural self-adjointness (400 samples)",
              {"self-conjugacy-equivalence": (0.0, 400)})


def test_07_polar_spectral_minmax(criterion):
    criterion(7, "polar A = UT, spectral resolution, Courant-Fischer min-max",
              {"polar-reconstruction": (1e-9, 50),
               "spectral-reconstruction": (1e-8, 50),
               "minmax-matches-direct": (1e-6, 30)})


def test_08_schatten_two_path(criterion):
    criterion(8, "Schatten bracket path equals singular-value path (p = 1, 2, 4)",
              {"schatten-two-path": (1e-9, 500)})


def test_09_eigenvalue_inequalities(criterion):
    criterion(9, "Weyl (p = 1 is Lalesco), Horn, Lidskii over 500 random instances each",
              {"weyl-inequality": (1e-9, 500),
               "horn-inequality": (1e-9, 500),
               "lidskii-trace": (1e-9, 500)})


def test_10_ks2_bounds_and_prefix(criterion, checks):
    q_list = checks["ks2-embedding-bound"].params["q_list"]
    criterion(10, "KS2 norm below L^q and L^inf bounds",
              {"ks2-embedding-bound": (1e-9, 150)},
              extra_ok=q_list == "1,2,inf", extra=f"q {q_list}")


def test_11_ks2_weak_strong(criterion):
    criterion(11, "oscillation m=64 collapses KS2 norm below 0.2 of m=1",
              {"ks2-weak-strong-decay": (0.2, 64)})


def test_12_hilbert_transform(criterion, checks):
    order = checks["hilbert-pv-convergence"].params["order_min"]
    criterion(12, "Hilbert transform isometry, skewness, H^2 = -I, PV order >= 1",
              {"hilbert-isometry": (1e-12, 100),
               "hilbert-skew-adjoint": (1e-10, 200),
               "hilbert-square-identity": (1e-12, 100),
               "hilbert-pv-convergence": (1e-2, 8)},
              extra_ok=order >= 1.0, extra=f"order {order:.4f}")


def test_13_riesz_potential(criterion):
    criterion(13, "Riesz kernel symmetry and positive quadratic form",
              {"riesz-symmetry": (1e-8, 50),
               "riesz-positivity": (1e-8, 100)})


def test_14_determinism(capsys):
    params = SuiteParams(trials=25)
    docs = [to_json(run_suite("all", seed=42, params=params)) for _ in range(2)]
    identical = docs[0] == docs[1]
    names = {c["name"] for c in json.loads(docs[0])["checks"]}
    meas_present = {"lax-constant-khat", "bnorm-adjoint-ratio", "hilbert-cp-constant"} <= names
    _announce(capsys, 14, "run_suite(all, seed=42) reproduces byte-identical JSON",
              identical and meas_present,
              f"identical={identical}, measured entries present={meas_present}")
