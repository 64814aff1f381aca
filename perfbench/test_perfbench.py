"""Tests of the benchmark's own accounting and tracer.

    python3 -m pytest perfbench -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repetition
import run
import workloads
from tracer import Tracer

pkg = repetition.import_package()

HERE = Path(__file__).resolve().parent
TINY = {
    "tiny": (("--suite", "embedding", "--trials", "1"),
             ("--suite", "schatten", "--trials", "1")),
    "tiny-ks2": (("--suite", "ks2", "--trials", "1", "--cubes", "8"),),
}


def run_tiny(workload, seed, out_dir, trace=False):
    out_dir.mkdir(exist_ok=True)
    return repetition.run_workload(pkg, workload, seed, out_dir, trace=trace)


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    for name, argvs in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, argvs)


def test_raising_invocation_counts_its_checks_as_failed(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(pkg.schatten, "singular_values", broken)
    result = run_tiny("tiny", 3, tmp_path)

    embedding, schatten = result["invocations"]
    assert embedding["error"] is None and embedding["exit_code"] == 0
    assert embedding["failed_checks"] == embedding["unreported_checks"] == []
    assert schatten["error"] == {"type": "ArithmeticError", "message": "injected"}
    assert schatten["sha256"] is None
    assert schatten["unreported_checks"] == sorted(pkg.list_checks("schatten"))

    acct = run.check_accounting("tiny", [result])
    assert acct["failed"] == len(pkg.list_checks("schatten"))
    assert acct["attempted"] == embedding["attempted"] + schatten["attempted"]
    assert not acct["byte_identical"]


def test_accounting_flags_reports_that_differ(tmp_path):
    reps = [run_tiny("tiny", 3, tmp_path / str(i)) for i in range(2)]
    assert run.check_accounting("tiny", reps)["byte_identical"]
    reps[1]["invocations"][0]["sha256"] = "0" * 64
    assert not run.check_accounting("tiny", reps)["byte_identical"]


def test_tracer_patches_every_binding_and_restores_it():
    original = pkg.suites.coefficients  # bound by `from .spaces import coefficients`
    tracer = Tracer()
    tracer.install()
    try:
        assert pkg.suites.coefficients.__wrapped__ is original
        assert pkg.spaces.coefficients is pkg.suites.coefficients is pkg.coefficients
    finally:
        tracer.remove()
    assert pkg.suites.coefficients is original and pkg.spaces.coefficients is original


def test_traced_counts_repeat(tmp_path):
    runs = [run_tiny("tiny-ks2", 5, tmp_path / str(i), trace=True)["trace"] for i in range(2)]
    counts = [{name: r["metrics"][name] for name in workloads.EXACT_COUNTS} for r in runs]
    assert counts[0] == counts[1]
    metrics = runs[0]["metrics"]
    assert runs[0]["absent"] == []
    assert metrics["ks2.functional_Fk.calls"] > 0
    assert metrics["ks2.cells_touched"] >= metrics["ks2.functional_Fk.calls"]
    assert metrics["cli.calls"] == 1
    assert set(metrics) >= {f"{layer}.self_s" for layer in workloads.LAYERS}


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(pkg.ks2, "functional_Fk")
    tracer = Tracer()
    tracer.install()
    tracer.remove()
    metrics, absent = tracer.metrics()
    assert "ks2.functional_Fk" in absent
    assert metrics["ks2.functional_Fk.calls"] == 0


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "nominal", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
