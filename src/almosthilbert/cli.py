"""Command-line front end for the verification suites.

Exit codes: 0 every check passed, 1 at least one check failed, 2 usage or
parameter error, 3 I/O failure while writing the report.  The master seed
comes from --seed, falling back to the ALMOST_HILBERT_SEED environment
variable and then to 0.

Besides suite runs there are two small data emitters for external tooling
(the CSV is the plotting boundary; nothing is rendered here):

    almosthilbert ks2 dump-cubes --n 1 --count 16
    almosthilbert integral demo --op hilbert --m 1024
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .integrals import (
    hilbert_multiplier,
    hilbert_pv,
    riesz_potential,
    signal_from_callable,
)
from .ks2 import cube_rows
from .report import csv_text, render
from .spaces import midpoints
from .suites import _MAX_CUBES, _MAX_GRID, SUITE_NAMES, SuiteParams, list_checks, run_suite

DEMO_OPS = ("hilbert", "hilbert-pv", "riesz")
COMMANDS = ("ks2", "integral")


def _build_parser(commands: bool = True) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="almosthilbert",
        description="Run verification suites for the Hilbert-embedding library.",
    )
    parser.add_argument("--suite", choices=SUITE_NAMES, default="all",
                        help="suite to run (default: all)")
    parser.add_argument("--dim", type=int, default=SuiteParams.dim,
                        help="basis truncation N")
    parser.add_argument("--grid", type=int, default=SuiteParams.grid,
                        help="grid resolution / signal length (power of two)")
    parser.add_argument("--p", type=float, default=SuiteParams.p,
                        help="Banach exponent p in (1, 64]")
    parser.add_argument("--alpha", type=float, default=SuiteParams.alpha,
                        help="fractional integration order in (0, 1)")
    parser.add_argument("--trials", type=int, default=SuiteParams.trials,
                        help="sample-count scale; 100 keeps nominal counts")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (fallback: ALMOST_HILBERT_SEED, then 0)")
    parser.add_argument("--cubes", type=int, default=SuiteParams.cubes,
                        help="cube truncation K for the KS2 checks")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--out", default=None, help="write output here instead of stdout")
    parser.add_argument("--list", action="store_true",
                        help="list the check names of the selected suite and exit")
    if not commands:
        return parser

    sub = parser.add_subparsers(dest="command")

    ks2_parser = sub.add_parser("ks2", help="KS2 data emitters")
    ks2_parser.add_argument("action", choices=("dump-cubes",))
    ks2_parser.add_argument("--n", type=int, default=1, help="dimension (1 or 2)")
    ks2_parser.add_argument("--count", type=int, default=16,
                            help=f"number of cubes to emit, 1..{_MAX_CUBES}")
    ks2_parser.add_argument("--out", default=argparse.SUPPRESS)

    integral_parser = sub.add_parser("integral", help="integral-operator demos")
    integral_parser.add_argument("action", choices=("demo",))
    integral_parser.add_argument("--op", choices=DEMO_OPS, default="hilbert")
    integral_parser.add_argument("--m", type=int, default=1024,
                                 help=f"sample count (power of two in 4..{_MAX_GRID})")
    integral_parser.add_argument("--alpha", type=float, default=argparse.SUPPRESS,
                                 help="order for the riesz demo")
    integral_parser.add_argument("--out", default=argparse.SUPPRESS)

    return parser


def _unknown_option(argv) -> str | None:
    """The first unrecognized option before the subcommand, if any.

    The full parser cannot name it when it takes a value: argparse sets the
    unknown option aside and offers its value to the subcommand slot, so
    ``--tol 1`` would be reported as the invalid command '1'.  A parser with
    the top-level options alone sets aside the option and its value instead.
    """
    _, extras = _build_parser(commands=False).parse_known_args(argv)
    for token in extras:
        if token in COMMANDS:
            return None
        if token.startswith("-"):
            return token
    return None


def _resolve_seed(arg_seed) -> int:
    if arg_seed is not None:
        return int(arg_seed)
    env = os.environ.get("ALMOST_HILBERT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"ALMOST_HILBERT_SEED must be an integer, got {env!r}")
    return 0


def _write_text(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_suite(args) -> int:
    if args.list:
        names = list_checks(args.suite)
        _write_text("\n".join(names) + "\n", args.out)
        return 0
    params = SuiteParams(dim=args.dim, grid=args.grid, p=args.p, alpha=args.alpha,
                         trials=args.trials, cubes=args.cubes)
    report = run_suite(args.suite, seed=_resolve_seed(args.seed), params=params)
    _write_text(render(report, args.format), args.out)
    return 0 if report.passed else 1


def _cmd_dump_cubes(args) -> int:
    if not 1 <= args.count <= _MAX_CUBES:
        raise ValueError(f"--count must lie in 1..{_MAX_CUBES}, got {args.count}")
    header, rows = cube_rows(args.n, args.count)
    _write_text(csv_text(header, rows), args.out)
    return 0


def _demo_signal(m: int) -> np.ndarray:
    return signal_from_callable(
        lambda t: np.cos(2.0 * np.pi * t) + 0.5 * np.sin(6.0 * np.pi * t), m)


def _cmd_demo(args) -> int:
    if not 4 <= args.m <= _MAX_GRID or args.m & (args.m - 1):
        raise ValueError(f"--m must be a power of two in 4..{_MAX_GRID}, got {args.m}")
    if args.op == "riesz":
        x = midpoints(args.m)
        f = np.where((x >= 0.25) & (x < 0.75), 1.0, 0.0).astype(complex)
        pairs = zip(x, f, riesz_potential(f, args.alpha))
    else:
        f = _demo_signal(args.m)
        out = hilbert_multiplier(f) if args.op == "hilbert" else hilbert_pv(f, 4.0 / args.m)
        pairs = zip(np.arange(args.m) / args.m, f, out)
    rows = [[repr(float(t)), repr(float(a.real)), repr(float(a.imag)),
             repr(float(b.real)), repr(float(b.imag))] for t, a, b in pairs]
    _write_text(csv_text(["t", "in_re", "in_im", "out_re", "out_im"], rows),
                args.out)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    unknown = _unknown_option(argv)
    if unknown is not None:
        parser.error(f"unrecognized arguments: {unknown}")
    args = parser.parse_args(argv)
    try:
        if args.command == "ks2":
            return _cmd_dump_cubes(args)
        if args.command == "integral":
            return _cmd_demo(args)
        return _cmd_suite(args)
    except ValueError as exc:
        print(f"almosthilbert: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"almosthilbert: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
