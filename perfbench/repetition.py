"""One repetition of a workload, in the fresh interpreter it measures.

    python3 perfbench/repetition.py --workload NAME --seed N --out-dir DIR \
        --result FILE --launched T [--trace] [--setup-only]

``--launched`` is the parent's ``time.monotonic()`` just before it started
this interpreter, so ``setup_s`` spans interpreter start-up and the import
of ``almosthilbert`` with numpy and scipy.  ``--setup-only`` stops there.
Otherwise the workload's CLI invocations run through ``almosthilbert.cli.main``
and ``wall_s`` spans them all.  Each invocation writes its canonical JSON
report into DIR; the result (timings, peak RSS, per-report accounting and,
with ``--trace``, the per-layer trace) is written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, cli_argv, suite_of

SRC = Path(__file__).resolve().parent.parent / "src"


def import_package():
    """Import the checkout's ``almosthilbert`` (with its CLI) and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import almosthilbert
    import almosthilbert.cli  # noqa: F401

    if not Path(almosthilbert.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported {almosthilbert.__file__}, not the measured "
                         f"checkout's {SRC}")
    return almosthilbert


def run_invocation(cli, argv) -> dict:
    """Run one CLI invocation, recording whatever it raises instead of stopping."""
    record = {"argv": list(argv), "exit_code": None, "error": None}
    try:
        record["exit_code"] = cli.main(list(argv))
    except (Exception, SystemExit) as exc:
        record["error"] = {"type": type(exc).__name__, "message": str(exc)}
    return record


def account(record: dict, report_path: Path, expected, seed: int) -> dict:
    """Add the report's digest and failed checks to an invocation record.

    A check fails if its status is ``fail`` or if ``list_checks`` names it
    but the report does not (the invocation raised or wrote nothing).
    """
    suite = suite_of(record["argv"])
    statuses, digest, well_formed = {}, None, False
    if record["exit_code"] in (0, 1) and report_path.is_file():
        data = report_path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        try:
            doc = json.loads(data)
            statuses = {c["name"]: c["status"] for c in doc["checks"]}
            well_formed = (doc["suite"] == suite and doc["seed"] == seed
                           and set(statuses) <= set(expected))
        except (ValueError, KeyError, TypeError):
            statuses = {}
    record.update(
        suite=suite,
        sha256=digest,
        well_formed=well_formed,
        attempted=len(expected),
        failed_checks=sorted(n for n, s in statuses.items() if s == "fail"),
        unreported_checks=sorted(set(expected) - set(statuses)),
    )
    return record


def run_workload(pkg, workload: str, seed: int, out_dir: Path, trace: bool) -> dict:
    argvs = WORKLOADS[workload]
    expected = [pkg.list_checks(suite_of(argv)) for argv in argvs]
    paths = [out_dir / f"report{i}.json" for i in range(len(argvs))]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.monotonic()
    records = [run_invocation(pkg.cli, cli_argv(argv, seed, path))
               for argv, path in zip(argvs, paths)]
    wall_s = time.monotonic() - start
    result = {"wall_s": wall_s}
    if tracer is not None:
        tracer.remove()
        metrics, absent = tracer.metrics()
        result["trace"] = {"metrics": metrics, "absent": absent}
    result["invocations"] = [account(r, p, names, seed)
                             for r, p, names in zip(records, paths, expected)]
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def versions(pkg) -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{openblas['name']} {openblas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "almosthilbert": getattr(pkg, "__version__", None)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pkg = import_package()
    result = {"setup_s": time.monotonic() - args.launched}
    if not args.setup_only:
        result.update(run_workload(pkg, args.workload, args.seed, args.out_dir, args.trace))
    result["versions"] = versions(pkg)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
