"""Spans and counters around the library's public functions.

`install` replaces every public function of every `kernelcontrast` module
with a wrapper that opens a span on entry and closes it on exit. A
`from`-import binds a name separately in each importing module, so the
wrapper is installed under every module attribute that refers to the
function (`jacobi_eigh` in kernels, linear_dr, manifold, kernel_approx;
`minimize` in contrastive and eigenfunctions; ...). `uninstall` puts the
originals back.

Spans stay in memory as four flat arrays (name, start, end, parent) and
are reduced to per-name call counts, total time and self time only when
`summary` is called, after the traced pass. A span's self time is its
duration minus the durations of its direct children.

A few wrappers also count work: `minimize` wraps the objective it is
given (an `encoders.minimize.objective` span per evaluation) and reads
iterations and the stop reason from its result, whichever of the two
result shapes it returns; `jacobi_eigh` records the largest n; the CSV
readers and writers record bytes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list = []
        self.counts: dict = {}
        self.maxima: dict = {}
        self._saved: list = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_of.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[i]
        return out

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of the package's modules."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith(package.__name__ + "."):
                    continue
                if home.endswith(".cli") and attr == "main":
                    continue  # the benchmark spans each CLI call itself
                key = id(value)
                if key not in wrappers:
                    layer = home.rsplit(".", 1)[1]
                    wrappers[key] = self._wrap(value, f"{layer}.{value.__name__}")
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[key])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        special = {
            "encoders.minimize": self._wrap_minimize,
            "verify.run_suite": self._wrap_run_suite,
            "kernels.jacobi_eigh": self._wrap_jacobi,
            "fileio.save_matrix_csv": self._wrap_csv,
            "fileio.load_matrix_csv": self._wrap_csv,
        }.get(name)
        if special is not None:
            return special(fn, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _wrap_minimize(self, fn, name: str):
        tracer = self
        signature = inspect.signature(fn)
        objective = next(iter(signature.parameters))
        default_max_iter = _default_max_iter(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            fun = bound.arguments[objective]

            def counted(*a, **k):
                tracer.count("encoders.minimize.evaluations")
                idx = tracer.open("encoders.minimize.objective")
                try:
                    return fun(*a, **k)
                finally:
                    tracer.close(idx)

            bound.arguments[objective] = counted
            config = bound.arguments.get("config")
            idx = tracer.open(name)
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                tracer.close(idx)
            iterations, stop_reason = _optimizer_outcome(result)
            max_iter = getattr(config, "max_iter", None) or default_max_iter
            tracer.count("encoders.minimize.calls")
            tracer.count("encoders.minimize.iterations", iterations)
            hit = (stop_reason == "max_iter") if stop_reason is not None else (
                max_iter is not None and iterations >= max_iter
            )
            tracer.count("encoders.minimize.max_iter_hits", int(hit))
            return result

        return traced

    def _wrap_run_suite(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(suite, *args, **kwargs):
            idx = tracer.open(f"verify.{suite}")
            try:
                return fn(suite, *args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _wrap_jacobi(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(matrix, *args, **kwargs):
            values = getattr(matrix, "values", matrix)
            shape = getattr(values, "shape", None) or (len(values),)
            tracer.peak(f"{name}.max_n", shape[0])
            idx = tracer.open(name)
            try:
                return fn(matrix, *args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _wrap_csv(self, fn, name: str):
        tracer = self
        saving = name.endswith("save_matrix_csv")

        @functools.wraps(fn)
        def traced(path, *args, **kwargs):
            if not saving and os.path.exists(path):
                tracer.count(f"{name}.bytes", os.path.getsize(path))
            idx = tracer.open(name)
            try:
                return fn(path, *args, **kwargs)
            finally:
                tracer.close(idx)
                if saving and os.path.exists(path):
                    tracer.count(f"{name}.bytes", os.path.getsize(path))

        return traced


def _default_max_iter(fn):
    """max_iter of the optimizer's default config, if it has one."""
    config_type = getattr(inspect.getmodule(fn), "OptimizerConfig", None)
    try:
        return config_type().max_iter
    except (TypeError, AttributeError):
        return None


def _optimizer_outcome(result):
    """(iterations, stop_reason) from an (x, trace) pair or a result object."""
    iterations = getattr(result, "iterations", None)
    stop_reason = getattr(result, "stop_reason", None)
    if iterations is None:
        trace = getattr(result, "trace", None)
        if trace is None and isinstance(result, tuple) and len(result) >= 2:
            trace = result[1]
        iterations = len(trace) - 1 if trace is not None else 0
    return int(iterations), stop_reason
