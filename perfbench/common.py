"""Shared plumbing: checkout layout, knob isolation, provenance, statistics.

Everything here runs before or around the program under test; nothing in
this module is timed as part of a request.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for plan caches, spill files, server logs and reports.
#: It lives inside the checkout (and is ignored by git).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


class BenchError(Exception):
    """The benchmark itself cannot run (missing program, dead server)."""


# ----------------------------------------------------------------------
# Checkout and isolation
# ----------------------------------------------------------------------
def require_checkout() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or fail.

    The benchmark measures the program in *this* checkout only: a copy of
    ``repro`` installed elsewhere must never stand in for it.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program source under {SRC}; run the "
                         f"benchmark from the root of a full checkout")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def metric_units(section: str) -> Dict[str, str]:
    """``{metric: unit}`` of one section of ``BENCHMARK.json``
    (``end_to_end`` or ``per_layer``), in declaration order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def scrub_repro_env() -> List[str]:
    """Unset every ``REPRO_*`` knob of this process; returns their names."""
    names = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    return names


def make_workdir(tag: str) -> str:
    """A fresh per-run directory under :data:`WORK_ROOT`; temporary files
    of this process (maintainer spill directories included) land in it."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    return workdir


def remove_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)


def child_env(workdir: str) -> Dict[str, str]:
    """Environment for program subprocesses: this checkout's source, no
    ``REPRO_*`` knob, temporary files inside the run's directory."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = workdir
    return env


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the program's Python sources (path and content), so a
    result names the exact code measured even outside a git repository."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for folder, dirs, files in os.walk(package):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, trace: bool,
               scrubbed: Sequence[str]) -> dict:
    """What was measured: code, interpreter, machine, inputs and the
    program's effective defaults (read after knob isolation)."""
    from repro.counting.compile import compiled_enabled
    from repro.db.columnar import default_backend

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": default_backend(),
        "compiled_tier": compiled_enabled(),
        "repro_knobs_unset": list(scrubbed),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def latency_summary(samples_ms: Sequence[float]) -> dict:
    """p50/p95 plus the sample counts the p95 rests on."""
    p95 = percentile(samples_ms, 95)
    return {
        "n": len(samples_ms),
        "p50": percentile(samples_ms, 50),
        "p95": p95,
        "beyond_p95": sum(1 for value in samples_ms if value > p95),
    }


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
#: Every time the benchmark reports is in milliseconds (or seconds) of a
#: reference machine: one that runs :func:`calibration_ms` in exactly
#: REFERENCE_MS.  A raw time is multiplied by REFERENCE_MS over the
#: calibration time measured next to it.  On a shared host whose CPU
#: speed flips between levels 1.6x apart every few seconds, this removes
#: most of the flips from the figures; the raw times are in the report.
#: 1.8 ms is the join's typical time between operations on the 2-vCPU
#: machine where the benchmark was written, so there reference time is
#: close to wall time.
REFERENCE_MS = 1.8
#: In a closed loop, the calibration is repeated between operations once
#: it is this old.
CALIBRATE_EVERY_S = 0.25
#: A fresh-process probe (set-up, first answer) is scaled by the mean of
#: calibrations of this many timings taken right before and after it.
PROBE_CALIBRATIONS = 9
_CALIBRATION_ROWS = [
    (row_rng.randrange(500), row_rng.randrange(500))
    for row_rng in [random.Random("perfbench-calibration")]
    for _ in range(1500)]


def calibration_ms(repeats: int = 3) -> float:
    """Median of *repeats* timings of a fixed pure-Python hash join (ms).

    A join builds dicts, lists and a set of tuples, as the program does,
    so its time tracks the program's speed better than arithmetic does.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        index: Dict[int, List[int]] = {}
        for a, b in _CALIBRATION_ROWS:
            index.setdefault(a, []).append(b)
        {(a, c) for a, b in _CALIBRATION_ROWS for c in index.get(b, ())}
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    Every workload has one request in flight, so one CPU loses no
    parallelism.  A request that crosses processes (``fabric``) is then
    handed over on the CPU it runs on instead of waking an idle one,
    whose wake-up time varies with the host's load, and the calibration
    times the very CPU the servers run on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def speed_scale() -> float:
    """The factor that turns a raw time taken now into reference time."""
    return REFERENCE_MS / calibration_ms()


def probe_scale(before_ms: float) -> float:
    """The factor for a probe that ran since a calibration of *before_ms*
    (``calibration_ms(PROBE_CALIBRATIONS)``): the probe ran at the mean
    of that speed and the speed now."""
    return 2 * REFERENCE_MS / (before_ms + calibration_ms(PROBE_CALIBRATIONS))


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of *pid* (default: this process)."""
    path = f"/proc/{pid or 'self'}/status"
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raise BenchError(f"cannot read the peak RSS of process {pid}")


# ----------------------------------------------------------------------
# Fresh-process probes
# ----------------------------------------------------------------------
def stop_process(process: subprocess.Popen, timeout_s: float = 20.0) -> None:
    """Terminate *process* and wait for it; kill it when it lingers."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=timeout_s)


class FirstAnswer:
    """Spawn-to-exit time of ``python -m repro count`` on a small database
    file, in reference time (``samples``; raw times in ``raw``); every
    printed count is checked."""

    QUERY = "ans(A, C) :- r(A, B), s(B, C)"

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.db_path = os.path.join(workdir, "first_answer_db.json")
        rows = [[i, (i * 7 + 3) % 40] for i in range(40)]
        with open(self.db_path, "w") as handle:
            json.dump({"r": rows, "s": rows}, handle)
        self.expected = f"count    : {_first_answer_expected(rows)}"
        self.samples: List[float] = []
        self.raw: List[float] = []

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            before = calibration_ms(PROBE_CALIBRATIONS)
            started = time.perf_counter()
            out = subprocess.run(
                [sys.executable, "-m", "repro", "count", self.QUERY,
                 self.db_path],
                env=child_env(self.workdir), cwd=ROOT, capture_output=True,
                text=True, timeout=120,
            )
            self.raw.append((time.perf_counter() - started) * 1e3)
            self.samples.append(self.raw[-1] * probe_scale(before))
            if out.returncode != 0 or \
                    out.stdout.splitlines()[:1] != [self.expected]:
                raise BenchError(f"repro count answered {out.stdout!r} "
                                 f"{out.stderr!r}; expected {self.expected}")


def _first_answer_expected(rows: List[List[int]]) -> int:
    successors: Dict[int, set] = {}
    for a, b in rows:
        successors.setdefault(a, set()).add(b)
    return len({(a, c) for a, b in rows for c in successors.get(b, ())})


def import_seconds(workdir: str, repeats: int = 3) -> float:
    """Median wall time of ``import repro.counting.engine`` in a fresh
    interpreter (measured inside it, so interpreter start is excluded)."""
    code = ("import time; t = time.perf_counter(); "
            "import repro.counting.engine; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code],
                             env=child_env(workdir), cwd=ROOT,
                             capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise BenchError(f"importing repro failed: {out.stderr}")
        samples.append(float(out.stdout.strip()))
    return median(samples)


def process_age_s() -> Optional[float]:
    """Seconds since this process was spawned (Linux ``/proc``, 10 ms
    resolution), or ``None`` where that is unavailable."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
    except (OSError, IndexError, ValueError):
        return None
    return uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")


READY_LINE = "PERFBENCH_READY"


def setup_seconds(workload: str, seed: int, scale: str, workdir: str,
                  repeats: int) -> List[float]:
    """Times from spawning a fresh interpreter that sets the workload up
    (imports, database builds, attaches, server spawns, ready probes,
    warm-up) to its announcement that the first timed request could
    start, *repeats* times, in reference seconds."""
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--scale", scale, "--setup-probe"]
    samples = []
    for _ in range(repeats):
        before = calibration_ms(PROBE_CALIBRATIONS)
        started = time.perf_counter()
        process = subprocess.Popen(command, env=child_env(workdir), cwd=ROOT,
                                   stdout=subprocess.PIPE, text=True)
        try:
            ready = None
            for line in process.stdout:
                if line.strip() == READY_LINE:
                    ready = time.perf_counter() - started
                    break
            process.stdout.read()
            process.wait(timeout=120)
        finally:
            stop_process(process)
        if ready is None or process.returncode != 0:
            raise BenchError(f"{workload} set-up probe failed "
                             f"(exit {process.returncode})")
        samples.append(ready * probe_scale(before))
    return samples
