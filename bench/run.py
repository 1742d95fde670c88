"""kernelcontrast benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload verify|toolbox|contrast --seed N \
        --seconds S --trace 0|1 [--input-seed N] [--record FILE]

Run from the root of a source checkout. Every workload runs in fresh
child interpreters (bench/worker.py) against the checkout's `src/`, with
BLAS and OpenMP pinned to one thread. `--seed` sets the order in which a
pass issues the workload's independent operations; the inputs are the
instance generated from `--input-seed` (default 0). See bench/NOTES.md.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics: setup_s, pass_s, success_ratio, peak_rss_mb and one
margin.<claim> per claim. With `--trace 1` it holds the per-layer metrics
of one traced pass plus the probes. `--record FILE` also stores the full
result, with the environment stamp, under "<workload>/trace<k>" in FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify", "toolbox", "contrast")
CLAIMS = ("pmi", "kplus", "eckart_young", "mercer", "nce", "toolbox")
# Set-up-only processes per run, besides the measuring one. Half run before
# the measuring process and half after it, so the set-up median spans the
# machine's speed over the whole run rather than one moment of it.
SETUP_CHILDREN = 10
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # the worker puts the checkout's src/ first itself
    return env


def run_child(args, mode: str, workdir: str, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", ROOT, "--workdir", workdir, "--workload", args.workload,
        "--mode", mode, "--input-seed", str(args.input_seed),
        "--order-seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the {DEADLINE_S:.0f} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def percentile_summary(samples: list) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "samples": n}
    if n > 10:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


def end_to_end(setups: list, res: dict) -> dict:
    attempted = res["attempted"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(res["pass_times"]), "s"),
        "success_ratio": ((attempted - len(res["failures"])) / attempted, "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    for claim in CLAIMS:
        metrics[f"margin.{claim}"] = (res["margins"][claim], "decades")
    return metrics


def per_layer(res: dict) -> dict:
    import layers  # imports NumPy, which an untraced run's parent never needs

    return {name: (res["per_layer"].get(name, 0), unit) for name, unit in layers.catalogue()}


def record(path: str, key: str, payload: dict) -> None:
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data[key] = payload
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--input-seed", type=int, default=0)
    parser.add_argument("--record")
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "kernelcontrast", "__init__.py")):
        print(f"bench: no kernelcontrast sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            res = run_child(args, "trace", os.path.join(workdir, "trace"), deadline)
            metrics = per_layer(res)
        else:
            def setup(i):
                return run_child(args, "setup", os.path.join(workdir, f"setup{i}"),
                                 deadline)["setup_s"]

            setups = [setup(i) for i in range(SETUP_CHILDREN // 2)]
            res = run_child(args, "run", os.path.join(workdir, "run"), deadline)
            setups += [setup(i) for i in range(SETUP_CHILDREN // 2, SETUP_CHILDREN)]
            setups.append(res["setup_s"])
            metrics = end_to_end(setups, res)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it, or it is already gone

    stamp = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": args.input_seed,
        "seconds": args.seconds,
        **res["environment"],
    }
    details = {
        "pass_s": percentile_summary(res["pass_times"]),
        "op_s": res["op_s"],
        "failures": res["failures"],
        "margins_repeat": res["margins_repeat"],
    }
    if args.trace:
        details.update({k: res[k] for k in ("absent", "spans", "traced_pass_s")})
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    failed = len(res["failures"])
    result = {
        "correct": failed == 0 and res["margins_repeat"],
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.record:
        record(args.record, f"{args.workload}/trace{args.trace}",
               {"stamp": stamp, "details": details, "result": result})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
