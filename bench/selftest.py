"""Self-test of the benchmark: names, counters and margins must repeat.

    python3 bench/selftest.py

For each workload it makes two untraced runs with different `--seed`
(pass order) and two traced runs, then checks that

- both invocations of a kind report the same metric names;
- the traced counters (`minimize` calls, iterations, evaluations and
  max_iter hits, `kernel_eval` calls and every other count or byte total)
  repeat exactly;
- every margin repeats exactly;
- no operation failed.

Last, it runs `verify` on input seed 2, where the `eigenfun` suite refuses
to build (spectral gaps below its 0.05 guard), and checks that the run
completes and counts exactly that operation as failed.

Takes about eight minutes on two cores; exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import layers

HERE = os.path.dirname(os.path.abspath(__file__))

EXACT_UNITS = ("count", "B")


def bench(*args: str) -> tuple[dict, dict]:
    """Run bench/run.py; return (final result, details line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "1", *args]
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    details = next(json.loads(line[len("details "):]) for line in lines
                   if line.startswith("details "))
    return json.loads(lines[-1]), details


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        raise SystemExit(1)


def check_workload(workload: str) -> None:
    first, _ = bench("--workload", workload, "--seed", "0", "--trace", "0")
    second, _ = bench("--workload", workload, "--seed", "1", "--trace", "0")
    expect(first["metrics"].keys() == second["metrics"].keys(),
           f"{workload}: end-to-end metric names repeat")
    for res in (first, second):
        expect(res["correct"] and res["failed"] == 0, f"{workload}: no operation failed")
    margins = {k: v["value"] for k, v in first["metrics"].items() if k.startswith("margin.")}
    again = {k: v["value"] for k, v in second["metrics"].items() if k.startswith("margin.")}
    expect(margins == again, f"{workload}: margins repeat exactly {margins}")

    traced = [bench("--workload", workload, "--seed", str(s), "--trace", "1")[0]
              for s in (0, 1)]
    names = [set(r["metrics"]) for r in traced]
    expect(names[0] == names[1] == {n for n, _ in layers.catalogue()},
           f"{workload}: per-layer metric names repeat and match the catalogue")
    exact = {n for n, unit in layers.catalogue() if unit in EXACT_UNITS}
    counts = [{n: r["metrics"][n]["value"] for n in sorted(exact)} for r in traced]
    diff = {n: (counts[0][n], counts[1][n]) for n in exact if counts[0][n] != counts[1][n]}
    expect(not diff, f"{workload}: counters repeat exactly "
           + json.dumps({n: counts[0][n] for n in sorted(exact) if n.startswith("encoders.")
                         or n == "kernels.kernel_eval.calls"}) + (f" diff {diff}" if diff else ""))


def check_failure_counting() -> None:
    res, details = bench("--workload", "verify", "--input-seed", "2", "--trace", "0")
    failures = details["failures"]
    expect(res["failed"] == 1 and not res["correct"] and len(failures) == 1
           and failures[0].startswith("verify-eigenfun: raised"),
           f"verify at input seed 2 counts the eigenfun refusal as one failure: {failures}")


def main() -> int:
    for workload in ("verify", "toolbox", "contrast"):
        check_workload(workload)
    check_failure_counting()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
