"""Benchmark of the almosthilbert verifier: suite wall time as users see it.

    python3 perfbench/run.py --workload {nominal,desk-max,operators} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src/``.
Every repetition is a fresh interpreter (perfbench/repetition.py) that runs
the workload's CLI invocations with ``--seed N``.  Repetitions start until S
seconds have passed (at least one); further import-only interpreters top up
the set-up samples to MIN_SETUP_SAMPLES.  With ``--trace 1`` two traced
repetitions follow the timed ones and the per-layer metrics come from them.

The second-to-last line of output is the run record (machine, versions,
commit, argv, quartiles, digests, failures); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  ``correct`` requires
byte-identical reports across all repetitions, no failed or unreported
check, and, when tracing, exact counts that repeat between the traced runs.
Exits 1 without a result if a repetition cannot run at all, e.g. when the
checkout has no ``src/almosthilbert``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import EXACT_COUNTS, WORKLOADS, cli_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUP_SAMPLES = 3
RUN_LIMIT_S = 175.0  # a run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """A repetition could not produce a result."""


def blas_threads(nproc: int) -> dict:
    """The BLAS thread environment for repetitions, each value capped at nproc."""
    out = {}
    for var in BLAS_THREAD_VARS:
        try:
            n = int(os.environ.get(var, nproc))
        except ValueError:
            n = nproc
        out[var] = str(max(1, min(n, nproc)))
    return out


class Runner:
    """Starts repetitions in fresh interpreters within one run's time limit."""

    def __init__(self, workload: str, seed: int, work: Path, env: dict):
        self.workload, self.seed, self.work, self.env = workload, seed, work, env
        self.started = time.monotonic()
        self.count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def repetition(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        out_dir = self.work / f"rep{self.count}"
        out_dir.mkdir()
        result = self.work / f"rep{self.count}.json"
        cmd = [sys.executable, str(HERE / "repetition.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out-dir", str(out_dir), "--result", str(result)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        launched = time.monotonic()
        try:
            proc = subprocess.run([*cmd, "--launched", repr(launched)], env=self.env,
                                  stdout=sys.stderr, timeout=RUN_LIMIT_S - self.elapsed())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repetition exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
        if proc.returncode != 0 or not result.is_file():
            raise BenchError(f"repetition exited with code {proc.returncode}")
        return json.loads(result.read_text())


def summary(values) -> dict:
    """Median, quartiles, sample count and the samples in the order measured."""
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = q3 = ordered[0]
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": len(ordered),
            "samples": list(values)}


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None, "caches": {},
            "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), None)
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            info["caches"][f"L{level}"] = size
    return info


def git_commit():
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def check_accounting(workload: str, reps) -> dict:
    """Digests, failures and errors per invocation across repetitions."""
    attempted = failed = 0
    well_formed = True
    reports = []
    for i in range(len(WORKLOADS[workload])):
        records = [r["invocations"][i] for r in reps]
        attempted += sum(r["attempted"] for r in records)
        failed += sum(len(r["failed_checks"]) + len(r["unreported_checks"]) for r in records)
        well_formed &= all(r["well_formed"] for r in records)
        reports.append({
            "suite": records[0]["suite"],
            "sha256": sorted({str(r["sha256"]) for r in records}),
            "failed_checks": sorted({n for r in records
                                     for n in r["failed_checks"] + r["unreported_checks"]}),
            "errors": [r["error"] for r in records if r["error"]],
            "exit_codes": sorted({str(r["exit_code"]) for r in records}),
        })
    identical = all(len(r["sha256"]) == 1 and r["sha256"] != ["None"] for r in reports)
    return {"attempted": attempted, "failed": failed, "reports": reports,
            "byte_identical": identical, "well_formed": well_formed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "almosthilbert" / "__init__.py").is_file():
        print(f"perfbench: no almosthilbert package under {ROOT / 'src'}", file=sys.stderr)
        return 1

    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads(nproc)
    compileall.compile_dir(ROOT / "src", quiet=1)  # users do not pay bytecode compilation
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        runner = Runner(args.workload, args.seed, Path(work), {**os.environ, **threads})
        try:
            timed = []
            while not timed or runner.elapsed() < args.seconds:
                timed.append(runner.repetition())
            traced = [runner.repetition(trace=True) for _ in range(2 * args.trace)]
            setups = [r["setup_s"] for r in timed]
            while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
                setups.append(runner.repetition(setup_only=True)["setup_s"])
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        run_s = runner.elapsed()

    acct = check_accounting(args.workload, timed + traced)
    walls = summary([r["wall_s"] for r in timed])
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "run_s": run_s, "commit": git_commit(),
        "argv": [["almosthilbert", *cli_argv(a, args.seed, "<report.json>")]
                 for a in WORKLOADS[args.workload]],
        "machine": machine(), "versions": timed[0]["versions"], "blas_threads": threads,
        "repetitions": len(timed), "traced_repetitions": len(traced),
        "wall_s": walls,
        "check_fail_ratio": acct["failed"] / acct["attempted"],
        **acct,
    }
    correct = acct["byte_identical"] and acct["well_formed"] and acct["failed"] == 0

    if args.trace:
        runs = [r["trace"]["metrics"] for r in traced]
        record["exact_counts"] = {name: [m[name] for m in runs] for name in EXACT_COUNTS}
        record["absent"] = traced[0]["trace"]["absent"]
        repeat = all(len(set(v)) == 1 for v in record["exact_counts"].values())
        correct = correct and repeat
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics = {}
        for name, value in runs[0].items():
            if name.endswith("self_s"):
                metrics[name] = {"value": statistics.median(m[name] for m in runs), "unit": "s"}
            else:
                metrics[name] = {"value": value, "unit": "count"}
        metrics["trace.overhead_s"] = {"value": traced_wall - walls["median"], "unit": "s"}
    else:
        record["setup_s"] = summary(setups)
        record["peak_rss_mb"] = summary([r["peak_rss_mb"] for r in timed])
        metrics = {
            "wall_s": {"value": walls["median"], "unit": "s"},
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"]["median"], "unit": "MB"},
            "check_pass_ratio": {"value": 1.0 - record["check_fail_ratio"], "unit": "ratio"},
        }
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": acct["attempted"],
                      "failed": acct["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
