import csv
import io
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from almosthilbert import cli
from almosthilbert.cli import main
from almosthilbert.report import FAIL, MEASURED, PASS, CheckResult, VerificationReport, to_text
from almosthilbert.suites import _REGISTRY, SuiteParams, list_checks

FAST = ["--trials", "5"]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, out, _ = run_cli(["--suite", "integral", *FAST, "--format", "text"],
                               capsys)
        assert code == 0
        assert "0 failing" in out

    def test_failure_is_one(self, capsys, monkeypatch):
        check = _REGISTRY["hilbert-isometry"]
        monkeypatch.setitem(_REGISTRY, "hilbert-isometry",
                            replace(check, measure=lambda run, x: 2 * check.tol))
        code, out, _ = run_cli(["--suite", "integral", *FAST], capsys)
        assert code == 1
        assert "FAIL hilbert-isometry" in out

    @pytest.mark.parametrize("flag,named", [
        (["--tol", "1"], "--tol"),
        (["--q", "3"], "--q"),
        (["--tol=1"], "--tol=1"),
        (["--bogus"], "--bogus"),
        (["ks2", "dump-cubes", "--bogus", "3"], "--bogus"),
    ], ids=["tol", "q", "tol-equals", "unknown", "after-subcommand"])
    def test_removed_knobs_are_usage_errors(self, flag, named, capsys):
        # the error names the option, not the value argparse would otherwise
        # offer to the subcommand slot
        with pytest.raises(SystemExit) as exc:
            main(["--suite", "integral", *flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {named}" in err
        assert "invalid choice" not in err

    def test_bad_params_is_two(self, capsys):
        code, _, err = run_cli(["--dim", "0", *FAST], capsys)
        assert code == 2
        assert "dim" in err

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["--suite", "fourier"])
        assert exc.value.code == 2

    def test_io_error_is_three(self, capsys, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "r.json"
        code, _, err = run_cli(
            ["--suite", "integral", *FAST, "--out", str(missing)], capsys)
        assert code == 3
        assert "I/O" in err


class TestDefaults:
    def test_bare_suite_all_runs_default_params(self, capsys, monkeypatch):
        runs = []

        def fake_run_suite(name, seed, params):
            runs.append((name, seed, params))
            return VerificationReport(suite=name, seed=seed)

        monkeypatch.delenv("ALMOST_HILBERT_SEED", raising=False)
        monkeypatch.setattr(cli, "run_suite", fake_run_suite)
        code, _, _ = run_cli(["--suite", "all"], capsys)
        assert code == 0
        assert runs == [("all", 0, SuiteParams())]


class TestListing:
    def test_list_all(self, capsys):
        code, out, _ = run_cli(["--list"], capsys)
        assert code == 0
        assert tuple(out.splitlines()) == list_checks("all")

    def test_list_single_suite(self, capsys):
        code, out, _ = run_cli(["--list", "--suite", "ks2"], capsys)
        assert code == 0
        assert tuple(out.splitlines()) == list_checks("ks2")


class TestSeeds:
    def test_explicit_seed_lands_in_report(self, capsys):
        code, out, _ = run_cli(
            ["--suite", "integral", *FAST, "--seed", "77", "--format", "json"],
            capsys)
        assert code == 0
        assert json.loads(out)["seed"] == 77

    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("ALMOST_HILBERT_SEED", "123")
        _, out, _ = run_cli(["--suite", "integral", *FAST, "--format", "json"],
                            capsys)
        assert json.loads(out)["seed"] == 123

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ALMOST_HILBERT_SEED", "123")
        _, out, _ = run_cli(
            ["--suite", "integral", *FAST, "--seed", "9", "--format", "json"],
            capsys)
        assert json.loads(out)["seed"] == 9

    def test_bad_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ALMOST_HILBERT_SEED", "pi")
        code, _, err = run_cli(["--suite", "integral", *FAST], capsys)
        assert code == 2
        assert "ALMOST_HILBERT_SEED" in err

    def test_default_seed_zero(self, capsys):
        _, out, _ = run_cli(["--suite", "integral", *FAST, "--format", "json"],
                            capsys)
        assert json.loads(out)["seed"] == 0


class TestReportDocuments:
    def test_json_schema(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["--suite", "embedding", *FAST, "--seed", "4",
             "--format", "json", "--out", str(out_path)], capsys)
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == 1
        assert doc["suite"] == "embedding"
        names = [c["name"] for c in doc["checks"]]
        assert names == sorted(names)
        for entry in doc["checks"]:
            assert set(entry) == {"name", "status", "worst_violation",
                                  "samples", "params"}
            assert entry["status"] in ("pass", "fail", "measured")

    def test_json_byte_identical_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(
                ["--suite", "schatten", *FAST, "--seed", "42",
                 "--format", "json", "--out", str(path)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_has_row_per_check(self, capsys):
        code, out, _ = run_cli(
            ["--suite", "integral", *FAST, "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["suite", "check", "status", "worst_violation",
                           "samples", "params"]
        assert len(rows) - 1 == len(list_checks("integral"))

    def test_text_summary_line(self, capsys):
        code, out, _ = run_cli(["--suite", "ks2", *FAST], capsys)
        assert code == 0
        assert "checks, 0 failing" in out

    @pytest.mark.parametrize("worst", [
        CheckResult("tight", FAIL, 2.3e-7, 5, {"tol": 1e-10}),
        CheckResult("nan", FAIL, float("nan"), 5, {}),
        CheckResult("tally", FAIL, 3.0, 5, {"tol": 0.0}),
    ], ids=lambda c: c.name)
    def test_text_summary_names_the_worst_against_its_tol(self, worst):
        # the loose check's raw worst is larger, but it passes
        rep = VerificationReport("all", [
            CheckResult("loose", PASS, 1.5e-4, 5, {"tol": 0.2}),
            CheckResult("clean-tally", PASS, 0.0, 5, {"tol": 0.0}),
            CheckResult("meas", MEASURED, 1e6, 5, {}),
            worst,
        ])
        assert to_text(rep).splitlines()[-2].endswith(f"({worst.name})")


class TestDumpCubes:
    def test_one_dim_csv(self, capsys):
        code, out, _ = run_cli(["ks2", "dump-cubes", "--n", "1", "--count", "5"],
                               capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["k", "l", "i", "center0", "side"]
        assert rows[1] == ["1", "1", "1", "0.0", "0.5"]
        assert len(rows) == 6

    def test_two_dim_header(self, capsys):
        code, out, _ = run_cli(["ks2", "dump-cubes", "--n", "2", "--count", "3"],
                               capsys)
        assert code == 0
        assert out.splitlines()[0] == "k,l,i,center0,center1,side"

    def test_three_dim_rejected(self, capsys):
        code, _, err = run_cli(["ks2", "dump-cubes", "--n", "3"], capsys)
        assert code == 2
        assert "dimensions 1 and 2" in err

    def test_zero_count_rejected(self, capsys):
        code, _, _ = run_cli(["ks2", "dump-cubes", "--count", "0"], capsys)
        assert code == 2

    def test_count_bounded_by_the_cubes_range(self, capsys):
        code, out, _ = run_cli(["ks2", "dump-cubes", "--n", "2", "--count", "1074"], capsys)
        assert code == 0 and len(out.splitlines()) == 1075
        for count in ("1075", "100000000000000"):
            code, out, err = run_cli(["ks2", "dump-cubes", "--count", count], capsys)
            assert code == 2 and out == ""
            assert "--count must lie in 1..1074" in err


class TestIntegralDemo:
    @pytest.mark.parametrize("op", ["hilbert", "hilbert-pv", "riesz"])
    def test_emits_sample_pairs(self, op, capsys):
        code, out, _ = run_cli(["integral", "demo", "--op", op, "--m", "64"],
                               capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "in_re", "in_im", "out_re", "out_im"]
        assert len(rows) == 65
        floats = [float(v) for v in rows[1]]
        assert len(floats) == 5

    def test_hilbert_demo_first_sample(self, capsys):
        _, out, _ = run_cli(["integral", "demo", "--op", "hilbert", "--m", "32"],
                            capsys)
        first = next(csv.reader(io.StringIO(out.splitlines()[1])))
        # H(cos 2pi t) = sin, H(0.5 sin 6pi t) = -0.5 cos at t = 0
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("op", ["hilbert", "hilbert-pv", "riesz"])
    def test_non_power_of_two_rejected(self, op, capsys):
        # past the largest --grid, refused before anything is allocated
        for m in ("100", "1", "32768", "1125899906842624"):
            code, out, err = run_cli(["integral", "demo", "--op", op, "--m", m], capsys)
            assert code == 2 and out == ""
            assert "power of two in 4..16384" in err

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "demo.csv"
        code, _, _ = run_cli(
            ["integral", "demo", "--op", "riesz", "--m", "32",
             "--alpha", "0.25", "--out", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_text().startswith("t,in_re")


class TestOptionPlacement:
    # --out and --alpha are options of the top level and of the subcommands;
    # a value given on either side of the subcommand is the one used

    def test_out_on_either_side_of_the_subcommand(self, capsys, tmp_path):
        command = ["ks2", "dump-cubes", "--count", "2"]
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        for argv in (["--out", str(before), *command], [*command, "--out", str(after)]):
            code, stdout, _ = run_cli(argv, capsys)
            assert code == 0 and stdout == ""
        assert before.read_text() == after.read_text()
        assert before.read_text().startswith("k,l,i,center0,side")

    def test_alpha_on_either_side_of_the_subcommand(self, capsys):
        command, alpha = ["integral", "demo", "--op", "riesz", "--m", "8"], ["--alpha", "0.25"]
        outputs = [run_cli(argv, capsys)[1] for argv in (
            command, command + ["--alpha", "0.5"], alpha + command, command + alpha)]
        assert outputs[0] == outputs[1] != outputs[2] == outputs[3]


class TestImports:
    def test_cli_imports_no_scipy(self):
        # the runtime needs numpy alone; scipy serves only as a test oracle
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys, almosthilbert.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"
