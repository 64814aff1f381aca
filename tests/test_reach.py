"""Every function the package defines is reached by a CLI path.

The CLI runs every suite at the lower corner of the documented ranges in
each report format, lists the checks, dumps cubes and runs each integral
demo, under ``sys.setprofile``.  A function or method of ``src/almosthilbert``
that none of those runs calls is dead code, unless it runs at import or the
benchmark traces it by name.  Functions are keyed by code object (file and
first line), since two of them may share a name (``spaces.midpoints`` and a
method of that name, say).
"""

import ast
import functools
import importlib.util
import sys
from pathlib import Path

import almosthilbert
from almosthilbert import cli

PACKAGE = Path(almosthilbert.__file__).resolve().parent
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

RUNS = (
    *(("--suite", "all", "--dim", "2", "--grid", "16", "--cubes", "8", "--trials", "1",
       "--format", fmt) for fmt in ("text", "json", "csv")),
    ("--list",),
    ("ks2", "dump-cubes", "--n", "2", "--count", "4"),
    *(("integral", "demo", "--op", op, "--m", "8") for op in cli.DEMO_OPS),
)

# Functions that run while the package is imported: the check registry's
# decorator factory and the decorator it returns.
AT_IMPORT = {"suites._check", "suites._check.deco"}

# No check calls these; the benchmark's NAMED_FUNCTIONS traces them by name.
BENCHMARK_ONLY = {"embedding.h_inner", "ks2.ks2_inner", "numerics.vector_pnorm"}


def _definitions():
    """Qualified name -> (file, first line) of every def in the package; the
    first line of a decorated def is its first decorator's, as in its code
    object."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[name] = (path, first)
            visit(child, name, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, str(path))
    return found


def _called(capsys):
    """The (file, first line) of every package function the runs call."""
    # a cached function is called once per process; empty the caches so
    # these runs call each again
    for name, module in list(sys.modules.items()):
        if name.startswith("almosthilbert."):
            for obj in vars(module).values():
                if isinstance(obj, functools._lru_cache_wrapper):
                    obj.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        codes = [cli.main(list(argv)) for argv in RUNS]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(RUNS)
    return {(str(Path(f).resolve()), line) for f, line in seen}


def _named_functions():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return set(module.NAMED_FUNCTIONS)


def test_every_function_is_reached_by_a_cli_path(capsys):
    called = _called(capsys)
    unreached = sorted(name for name, key in _definitions().items()
                       if key not in called and name not in AT_IMPORT | BENCHMARK_ONLY)
    assert unreached == [], f"no CLI path reaches {unreached}"


def test_benchmark_only_functions_are_traced_by_name():
    assert BENCHMARK_ONLY <= _named_functions()
