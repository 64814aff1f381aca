"""Per-module attribution from outside the package.

Every public function of every layer module is wrapped, and the wrapper is
bound in each ``almosthilbert`` namespace that binds the original, so
``from .spaces import coefficients`` call sites are traced too.  A span's
self time is its duration minus the time spent in wrapped children.

Two grid-cell counts are computed from argument sizes (not measured): the
cells a dense evaluation reads.

- ``ks2.cells_touched``: each cube functional F_k reads every cell of its
  grid function, so ``functional_values(f, K)`` reads K * f.values.size and
  a direct ``functional_Fk(f, k)`` call reads f.values.size.
- ``spaces.coefficients.cells_touched``: ``coefficients(u, basis)`` reads
  len(basis) * u.values.size dual-representer cells.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

from workloads import LAYERS, NAMED_FUNCTIONS

PACKAGE = "almosthilbert"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Wraps the package's public functions; ``install`` patches, ``remove`` restores."""

    def __init__(self):
        # qualified name -> [calls, self seconds, active depth]
        self.stats: dict[str, list] = {}
        self.counts = {"ks2.cells_touched": 0, "spaces.coefficients.cells_touched": 0}
        self.missing_layers: list[str] = []
        self.uncounted: set[str] = set()
        self._child_time: list[float] = []
        self._patched: list[tuple[dict, str, object]] = []

    # -- computed cell counts ---------------------------------------------

    def _cells_functional_values(self, args, kwargs):
        return int(_arg(args, kwargs, 1, "K")) * _arg(args, kwargs, 0, "f").values.size

    def _cells_functional_Fk(self, args, kwargs):
        values = self.stats.get("ks2.functional_values")
        if values is not None and values[2] > 0:
            return 0  # already counted by the enclosing functional_values
        return _arg(args, kwargs, 0, "f").values.size

    def _cells_coefficients(self, args, kwargs):
        return len(_arg(args, kwargs, 1, "basis")) * _arg(args, kwargs, 0, "u").values.size

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, qualname, fn, counter):
        stats = self.stats.setdefault(qualname, [0, 0.0, 0])
        child_time = self._child_time
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                count_name, cells = counter
                try:
                    counts[count_name] += cells(args, kwargs)
                except (LookupError, AttributeError, TypeError):
                    self.uncounted.add(count_name)  # signature changed: report absent
            stats[2] += 1
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed - child_time.pop()
                stats[2] -= 1
                if child_time:
                    child_time[-1] += elapsed

        return traced

    def install(self) -> None:
        counters = {
            "ks2.functional_values": ("ks2.cells_touched", self._cells_functional_values),
            "ks2.functional_Fk": ("ks2.cells_touched", self._cells_functional_Fk),
            "spaces.coefficients": ("spaces.coefficients.cells_touched",
                                    self._cells_coefficients),
        }
        wrapped = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{PACKAGE}.{layer}":
                    raise
                self.missing_layers.append(layer)
                continue
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    qualname = f"{layer}.{name}"
                    wrapped[obj] = self._wrap(qualname, obj, counters.get(qualname))
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patched.append((namespace, name, obj))
                    namespace[name] = wrapped[obj]

    def remove(self) -> None:
        for namespace, name, original in reversed(self._patched):
            namespace[name] = original
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> tuple[dict, list[str]]:
        """Per-layer and per-function metrics, and the names found absent.

        A named function or layer that does not exist in the measured code
        reads 0 and is listed as absent.
        """
        out, absent = {}, list(self.missing_layers)
        for layer in LAYERS:
            rows = [v for k, v in self.stats.items() if k.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(r[0] for r in rows)
            out[f"{layer}.self_s"] = sum(r[1] for r in rows)
        for qualname in NAMED_FUNCTIONS:
            calls, self_s, _ = self.stats.get(qualname, (0, 0.0, 0))
            if qualname not in self.stats:
                absent.append(qualname)
            out[f"{qualname}.calls"] = calls
            out[f"{qualname}.self_s"] = self_s
        out.update(self.counts)
        absent.extend(sorted(self.uncounted))
        return out, absent
