"""One workload process: set up, then run timed passes (or one traced pass).

Started by run.py as a fresh interpreter so that set-up time and peak
memory belong to one workload. Prints one JSON object as its last line.

    python3 bench/worker.py --root DIR --workdir DIR --workload NAME \
        --mode setup|run|trace --input-seed N --order-seed N --seconds S
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP threads before NumPy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


def _import_library(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import kernelcontrast
    import kernelcontrast.cli

    where = os.path.realpath(kernelcontrast.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported kernelcontrast from {where}, not from {src}")
    return kernelcontrast


def run_op(main, op, tracer=None) -> tuple[float, str | None, list]:
    """Run one operation; return (seconds, failure or None, [(claim, margin)])."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    span = tracer.open(f"cli.{op.name}") if tracer is not None else None
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(op.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an escaping exception is a failed operation, not a crash
        code = None
        sink.write(traceback.format_exc())
    finally:
        if span is not None:
            tracer.close(span)
    seconds = time.perf_counter() - t0
    if code is None:
        last = sink.getvalue().strip().splitlines()[-1:]
        return seconds, f"{op.name}: raised {last[0] if last else ''}", []
    if code != 0:
        return seconds, f"{op.name}: exit code {code}", []
    import workloads

    try:
        found = [(claim, workloads.margin(float(obs), float(tol)))
                 for claim, obs, tol in op.check()]
    except (workloads.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        return seconds, f"{op.name}: {exc}", []
    return seconds, None, found


class Passes:
    """Runs whole passes over a workload's operations and keeps the tallies."""

    def __init__(self, main, ops_for, workdir: str, inputs: str, input_seed: int,
                 order_seed: int):
        self.main = main
        self.ops_for = ops_for
        self.workdir = workdir
        self.inputs = inputs
        self.input_seed = input_seed
        self.order_seed = order_seed
        self.times: list = []
        self.op_times: dict = {}
        self.attempted = 0
        self.failures: list = []
        self.margins_by_pass: list = []

    def run(self, tracer=None) -> float:
        """One pass; only untraced passes count toward the pass times."""
        import workloads

        pass_dir = os.path.join(self.workdir, f"pass{len(self.margins_by_pass)}")
        os.makedirs(pass_dir)
        ops = workloads.ordered(
            self.ops_for(pass_dir, self.inputs, self.input_seed), self.order_seed
        )
        op_times = {}
        margins = {claim: workloads.CAP for claim in workloads.CLAIMS}
        for op in ops:
            op_times[op.name], failure, found = run_op(self.main, op, tracer)
            self.attempted += 1
            if failure is not None:
                self.failures.append(failure)
            for claim, value in found:
                margins[claim] = min(margins[claim], value)
        self.margins_by_pass.append(margins)
        shutil.rmtree(pass_dir, ignore_errors=True)
        total = sum(op_times.values())
        if tracer is None:
            self.times.append(total)
            for name, seconds in op_times.items():
                self.op_times.setdefault(name, []).append(seconds)
        return total


def environment(kc) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # older NumPy has no dict form; the version alone still helps
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "kernelcontrast": getattr(kc, "__version__", "unknown"),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--input-seed", type=int, default=0)
    parser.add_argument("--order-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    # -- set-up: import, generate inputs, warm up ----------------------------
    # NumPy and the benchmark's own modules are imported after the clock starts.
    t0 = time.perf_counter()
    kc = _import_library(args.root)
    import workloads

    inputs = os.path.join(args.workdir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    workloads.write_inputs(args.workload, inputs, args.input_seed)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in workloads.warmup_ops(args.workdir):
            if kc.cli.main(argv) != 0:
                raise SystemExit(f"warm-up call failed: {argv}")
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "environment": environment(kc)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    passes = Passes(kc.cli.main, workloads.OPS[args.workload], args.workdir, inputs,
                    args.input_seed, args.order_seed)

    if args.mode == "run":
        started = time.perf_counter()
        while True:
            passes.run()
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(passes.times) > args.seconds:
                break
    else:
        import layers
        import probes
        from tracing import Tracer

        untraced = passes.run()
        tracer = Tracer()
        tracer.install(kc)
        try:
            traced = passes.run(tracer)
        finally:
            tracer.uninstall()
        values, absent = layers.compute(tracer.summary(), tracer.counts, tracer.maxima)
        probe_values, probe_absent = probes.run(args.workdir)
        values.update(probe_values)
        values["trace.overhead_ratio"] = traced / untraced
        result.update({"per_layer": values, "absent": sorted(absent + probe_absent),
                       "spans": len(tracer.start), "traced_pass_s": traced})

    result.update(
        {
            "pass_times": passes.times,
            "op_s": {op: statistics.median(t) for op, t in passes.op_times.items()},
            "attempted": passes.attempted,
            "failures": passes.failures,
            "margins": {
                claim: min(m[claim] for m in passes.margins_by_pass)
                for claim in workloads.CLAIMS
            },
            "margins_repeat": all(m == passes.margins_by_pass[0]
                                  for m in passes.margins_by_pass),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
