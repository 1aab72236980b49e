"""Self-test of the benchmark itself.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Checks that

* a tiny-size run of every workload, untraced and traced, exits 0,
  passes its answer checks and prints every metric ``BENCHMARK.json``
  names, with its unit, in a last line of exactly the agreed keys;
* the same seed yields the identical request sequence and a different
  seed a different one;
* without the program's source next to it, the benchmark exits nonzero
  without printing a result.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import common

WORKLOADS = ("adhoc", "session", "fabric")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str) -> None:
    print(f"FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def check_tiny_run(workload: str, trace: int) -> None:
    command = [sys.executable, os.path.join(common.BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1.5",
               "--trace", str(trace), "--scale", "tiny"]
    out = subprocess.run(command, cwd=common.ROOT, capture_output=True,
                         text=True, timeout=300)
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}: "
             f"{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload}: answers failed the checks: {result}")
    section = "per_layer" if trace else "end_to_end"
    expected = common.metric_units(section)
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    if emitted != expected:
        fail(f"{workload} trace={trace}: metrics {emitted} "
             f"!= {section} {expected}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or \
                not isinstance(metric["value"], (int, float)):
            fail(f"{workload}: malformed metric {name}: {metric}")
    print(f"ok  {workload} trace={trace}: {result['attempted']} operations, "
          f"{len(emitted)} metrics")


def sequences(workload: str, seed: int, length: int = 300):
    from itertools import islice

    import run

    instance = run.workload_class(workload)(seed, "full")
    return [op.describe() for op in islice(instance.operations(), length)]


def check_sequences() -> None:
    for workload in WORKLOADS:
        first, again, other = (sequences(workload, seed)
                               for seed in (5, 5, 6))
        if first != again:
            fail(f"{workload}: seed 5 gave two different sequences")
        if first == other:
            fail(f"{workload}: seeds 5 and 6 gave the same sequence")
        print(f"ok  {workload}: sequences repeat per seed and differ "
              f"across seeds")


def check_refuses_without_program() -> None:
    os.makedirs(common.WORK_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=common.WORK_ROOT)
    try:
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(common.BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "adhoc",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        fail("the benchmark ran without the program's source")
    print(f"ok  without the program it exits {out.returncode}, no result")


def main() -> int:
    common.require_checkout()
    common.scrub_repro_env()
    check_refuses_without_program()
    check_sequences()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_tiny_run(workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
