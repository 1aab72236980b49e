#!/usr/bin/env python3
"""Benchmark driver: run the suite and emit a ``BENCH_kernel.json`` snapshot.

Two layers of measurement:

* **micro** — direct timings of the relational kernel's hot operations
  (hash join, semijoin, full reducer, structural counting, Inside-Out,
  uniform sampling) on fixed workloads, so kernel regressions show up as
  numbers, not vibes;
* **files** — wall-clock of each ``benchmarks/bench_*.py`` module run
  through pytest (``--benchmark-disable``: one pass per test, no
  calibration loops), so the paper-artifact suite stays runnable end to
  end.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # full snapshot
    PYTHONPATH=src python benchmarks/run_all.py --fast     # kernel files + codec
    PYTHONPATH=src python benchmarks/run_all.py -o out.json

The snapshot lands in ``BENCH_kernel.json`` at the repository root by
default; successive snapshots give the performance trajectory across PRs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"

#: The join-heavy benchmarks the indexed kernel is accountable for.
KERNEL_FILES = ("bench_faq_insideout.py", "bench_fig04_views.py")


def _time(fn, repeat: int = 3) -> float:
    """Best-of-*repeat* wall-clock seconds for ``fn()``."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def micro_benchmarks() -> dict:
    """Direct timings of the kernel's hot operations."""
    from repro.counting import count_brute_force, count_structural
    from repro.counting.engine import count_answers
    from repro.faq import count_insideout
    from repro.approx import AnswerSampler
    from repro.workloads.graph_patterns import gnp_graph, path_query

    query = path_query(3)
    graph = gnp_graph(60, 0.15, seed=5)
    results = {
        "workload": "path_query(3) on gnp_graph(60, 0.15, seed=5)",
        "insideout_seconds": _time(lambda: count_insideout(query, graph)),
        "structural_seconds": _time(lambda: count_structural(query, graph)),
        "brute_force_seconds": _time(
            lambda: count_brute_force(query, graph)
        ),
        "engine_auto_seconds": _time(
            lambda: count_answers(query, graph).count
        ),
        "sampler_build_and_1000_draws_seconds": _time(
            lambda: AnswerSampler.for_query(query, graph).sample_many(1000)
        ),
    }
    return results


def _load_bench_module(name: str):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        name, BENCH_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def batch_service_snapshot() -> dict:
    """The batch-service cold/warm numbers (bench_batch_service)."""
    return _load_bench_module("bench_batch_service").snapshot()


def session_snapshot() -> dict:
    """The streaming-session numbers (bench_session): warm-started
    services and maintained counts vs recompute-per-count."""
    return _load_bench_module("bench_session").snapshot()


def shards_snapshot() -> dict:
    """The sharded-session numbers (bench_shards): 2-shard multi-writer
    vs single-writer, and the spill-forced correctness/cap check."""
    return _load_bench_module("bench_shards").snapshot()


def reduced_snapshot() -> dict:
    """The reduction-based maintenance numbers (bench_reduced):
    maintained quantified/cyclic streams vs recompute-per-count, the
    spill-forced reduced-session correctness/cap check, the O(delta)
    repair bar and the construction bar (``build_ms`` per shape)."""
    return _load_bench_module("bench_reduced").snapshot()


def compiled_snapshot() -> dict:
    """The compiled-tier numbers (bench_compiled): linked programs vs
    the interpreted kernel on the maintained-stream hot-loop shapes."""
    return _load_bench_module("bench_compiled").snapshot()


def columnar_snapshot() -> dict:
    """The columnar-backend numbers (bench_columnar): compiled programs
    over dictionary-encoded frames vs the tuple backend on the same
    hot-loop shapes."""
    return _load_bench_module("bench_columnar").snapshot()


def net_snapshot(fast: bool) -> dict:
    """The networked-shard-fabric numbers (bench_net_fabric): the codec
    µs of one count round trip and the parse-once bar; unless *fast*,
    also the median attach (``net.attach_ms``) against the reference
    codec, the TCP 2-shard session vs single-writer over real shardserver
    subprocesses, and the bounded graceful-handoff pause (the chaos
    section stays behind the benchmark's ``--chaos`` flag / its
    dedicated CI step)."""
    module = _load_bench_module("bench_net_fabric")
    return module.measure_codec() if fast else module.snapshot()


def deadline_snapshot() -> dict:
    """The deadline-serving numbers (bench_deadline): a heavy triangle
    whose exact count misses the deadline answers approximately within
    budget, cheap shapes stay exact."""
    return _load_bench_module("bench_deadline").snapshot()


def canonical_snapshot() -> dict:
    """The canonical-labelling numbers (bench_canonical): µs per form
    over the ad-hoc pattern universe, and the symmetric families'
    worst-case milliseconds."""
    return _load_bench_module("bench_canonical").snapshot()


def _git_revision() -> str:
    """The short commit hash, suffixed ``-dirty`` when tracked files
    differ from it (the numbers then measure uncommitted code)."""
    try:
        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        if completed.returncode == 0:
            return completed.stdout.strip()
    except OSError:
        pass
    return "unknown"


#: Headline numbers copied into each ``history`` entry — the dotted
#: paths keep entries small enough to accumulate for every PR.
_HEADLINES = (
    ("kernel_pair_seconds", ("kernel_pair_seconds",)),
    ("engine_auto_seconds", ("micro", "engine_auto_seconds")),
    ("warm_batch_speedup", ("batch_service", "warm_batch_speedup")),
    ("warm_start_speedup", ("session", "warm_start_speedup")),
    ("session_speedup", ("session", "session_speedup")),
    ("shard_speedup", ("shards", "shard_speedup")),
    ("reduced_speedup", ("reduced", "reduced_speedup")),
    ("reduced_build_ms", ("reduced", "build_ms", "triangle")),
    ("compiled_speedup_geomean",
     ("compiled", "compiled_speedup_geomean")),
    ("projected_path3_ad_ms",
     ("compiled", "projected", "projected_path3_ad_ms")),
    ("columnar_speedup_geomean",
     ("columnar", "columnar_speedup_geomean")),
    ("deadline_within_fraction",
     ("deadline", "deadline_within_fraction")),
    ("net_speedup", ("net", "net_speedup")),
    ("codec_us_per_round_trip", ("net", "codec_us_per_round_trip")),
    ("handoff_paused_s", ("net", "handoff_paused_s")),
    ("net_attach_ms", ("net", "attach_ms")),
    ("canonical_us_per_form", ("canonical", "canonical_us_per_form")),
)


def _history_entry(snapshot: dict) -> dict:
    entry = {
        "git_rev": _git_revision(),
        "generated_unix": snapshot["generated_unix"],
    }
    for name, path in _HEADLINES:
        value = snapshot
        for key in path:
            if not isinstance(value, dict) or key not in value:
                value = None
                break
            value = value[key]
        if value is not None:
            entry[name] = value
    return entry


def run_benchmark_files(names) -> dict:
    """One pytest pass over one or more benchmark modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "pytest",
         *(str(BENCH_DIR / name) for name in names),
         "-q", "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - started
    return {
        "seconds": round(elapsed, 3),
        "exit_code": completed.returncode,
        "tail": completed.stdout.strip().splitlines()[-1:],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output",
                        default=str(REPO_ROOT / "BENCH_kernel.json"))
    parser.add_argument("--fast", action="store_true",
                        help="only the kernel-accountable benchmark files "
                             "and the frame-codec figures")
    args = parser.parse_args(argv)

    # --fast: only the combined kernel-pair run (below) — no per-file loop,
    # so the CI smoke pays for the pair once, not twice.
    # bench_batch_service.py / bench_session.py / bench_shards.py /
    # bench_reduced.py are excluded from the file loop because the
    # snapshot sections below run the same measurements.
    files = [] if args.fast else sorted(
        path.name for path in BENCH_DIR.glob("bench_*.py")
        if path.name not in ("bench_batch_service.py", "bench_session.py",
                             "bench_shards.py", "bench_reduced.py",
                             "bench_compiled.py", "bench_columnar.py",
                             "bench_deadline.py", "bench_net_fabric.py",
                             "bench_canonical.py")
    )
    snapshot = {
        "generated_unix": int(time.time()),
        "python": sys.version.split()[0],
        "micro": micro_benchmarks(),
        "files": {},
    }
    failures = 0
    if not args.fast:
        # CI's --fast legs get this from the dedicated
        # bench_batch_service.py artifact step instead of paying twice
        # (that step exits nonzero below the bar, so CI still enforces it).
        snapshot["batch_service"] = batch_service_snapshot()
        print(f"[bench] batch service: warm batch "
              f"{snapshot['batch_service']['warm_batch_speedup']}x vs cold "
              f"sequential", flush=True)
        if not snapshot["batch_service"]["meets_2x_bar"]:
            failures += 1
            print("[bench]   FAILED (warm batch below the 2x bar)",
                  flush=True)
        snapshot["session"] = session_snapshot()
        print(f"[bench] session: warm start "
              f"{snapshot['session']['warm_start_speedup']}x vs cold start; "
              f"maintained stream "
              f"{snapshot['session']['session_speedup']}x vs recompute",
              flush=True)
        if not snapshot["session"]["meets_1_5x_bar"]:
            failures += 1
            print("[bench]   FAILED (warm start below the 1.5x bar)",
                  flush=True)
        if not snapshot["session"]["meets_3x_bar"]:
            failures += 1
            print("[bench]   FAILED (maintained stream below the 3x bar)",
                  flush=True)
        snapshot["shards"] = shards_snapshot()
        print(f"[bench] shards: 2-shard multi-writer "
              f"{snapshot['shards']['shard_speedup']}x vs single writer; "
              f"spill-forced peak "
              f"{snapshot['shards']['spill_peak_resident_bytes']}B "
              f"under {snapshot['shards']['spill_budget_bytes']}B budget",
              flush=True)
        if not snapshot["shards"]["meets_shard_1_5x_bar"]:
            failures += 1
            print("[bench]   FAILED (sharded session below the 1.5x bar)",
                  flush=True)
        if not snapshot["shards"]["meets_spill_bar"]:
            failures += 1
            print("[bench]   FAILED (spill-forced session broke "
                  "correctness or its byte cap)", flush=True)
        snapshot["reduced"] = reduced_snapshot()
        print(f"[bench] reduced: maintained quantified/cyclic stream "
              f"{snapshot['reduced']['reduced_speedup']}x vs recompute; "
              f"spill-forced peak "
              f"{snapshot['reduced']['reduced_spill_peak_resident_bytes']}B "
              f"under "
              f"{snapshot['reduced']['reduced_spill_budget_bytes']}B budget",
              flush=True)
        if not snapshot["reduced"]["meets_reduced_3x_bar"]:
            failures += 1
            print("[bench]   FAILED (maintained reduced stream below "
                  "the 3x bar)", flush=True)
        if not snapshot["reduced"]["meets_reduced_spill_bar"]:
            failures += 1
            print("[bench]   FAILED (spill-forced reduced session broke "
                  "correctness or its byte cap)", flush=True)
        print(f"[bench] reduced build: triangle "
              f"{snapshot['reduced']['build_ms']['triangle']}ms vs "
              f"{snapshot['reduced']['build_reference_ms']['triangle']}ms "
              f"per-row reference "
              f"({snapshot['reduced']['build_speedup']['triangle']}x)",
              flush=True)
        if not snapshot["reduced"]["meets_reduced_build_bar"]:
            failures += 1
            print("[bench]   FAILED (triangle maintainer construction "
                  "below the 2x bar)", flush=True)
        print(f"[bench] reduced build: triangle "
              f"{snapshot['reduced']['build_ms']['triangle']}ms vs "
              f"{snapshot['reduced']['build_fold_ms']['triangle']}ms "
              f"distinct-atom fold "
              f"({snapshot['reduced']['build_fold_speedup']['triangle']}x)",
              flush=True)
        if not snapshot["reduced"]["meets_reduced_kernel_build_bar"]:
            failures += 1
            print("[bench]   FAILED (generic-join construction below the "
                  "1.5x bar)", flush=True)
        snapshot["compiled"] = compiled_snapshot()
        print(f"[bench] compiled: "
              f"{snapshot['compiled']['compiled_speedup_geomean']}x geomean "
              f"vs the interpreted kernel on the hot-loop shapes",
              flush=True)
        if not snapshot["compiled"]["meets_compiled_5x_bar"]:
            failures += 1
            print("[bench]   FAILED (compiled tier below the 5x bar)",
                  flush=True)
        projected = snapshot["compiled"]["projected"]
        print(f"[bench] compiled projected shapes: path3.AD "
              f"{projected['projected_path3_ad_ms']} ms, "
              f"{projected['path3_ad_emitted']} kernel emissions",
              flush=True)
        if not projected["meets_projected_emission_bar"]:
            failures += 1
            print("[bench]   FAILED (path3.AD kernel emissions above a "
                  "third of the materialized bag)", flush=True)
        snapshot["columnar"] = columnar_snapshot()
        print(f"[bench] columnar: "
              f"{snapshot['columnar']['columnar_speedup_geomean']}x geomean "
              f"vs the tuple backend on the hot-loop shapes", flush=True)
        if not snapshot["columnar"]["meets_columnar_2x_bar"]:
            failures += 1
            print("[bench]   FAILED (columnar backend below the 2x bar)",
                  flush=True)
        snapshot["deadline"] = deadline_snapshot()
        print(f"[bench] deadline: exact baseline "
              f"{snapshot['deadline']['deadline_exact_baseline_ms']}ms vs "
              f"{snapshot['deadline']['deadline_ms']}ms budget; "
              f"{snapshot['deadline']['deadline_within_fraction']:.0%} of "
              f"requests within budget (worst "
              f"{snapshot['deadline']['deadline_max_request_ms']}ms)",
              flush=True)
        if not snapshot["deadline"]["meets_deadline_bar"]:
            failures += 1
            print("[bench]   FAILED (deadline serving missed its budget, "
                  "epsilon, or exactness bar)", flush=True)
        snapshot["net"] = net_snapshot(fast=False)
        print(f"[bench] net: TCP 2-shard session "
              f"{snapshot['net']['net_speedup']}x vs single writer over "
              f"localhost; handoff paused "
              f"{snapshot['net']['handoff_paused_s']}s "
              f"(shipped {snapshot['net']['handoff_shipped_tuples']} "
              f"tuples)", flush=True)
        print(f"[bench] net attach: {snapshot['net']['attach_ms']}ms vs "
              f"{snapshot['net']['attach_reference_ms']}ms with the "
              f"reference codec ({snapshot['net']['attach_speedup']}x)",
              flush=True)
        if not snapshot["net"]["meets_attach_bar"]:
            failures += 1
            print("[bench]   FAILED (attach below the 1.5x bar)",
                  flush=True)
        if not snapshot["net"]["meets_net_1x_bar"]:
            failures += 1
            print("[bench]   FAILED (TCP session below the 1.0x bar)",
                  flush=True)
        if not snapshot["net"]["meets_handoff_bar"]:
            failures += 1
            print("[bench]   FAILED (graceful handoff lost a job or "
                  "overran its pause bound)", flush=True)
        snapshot["canonical"] = canonical_snapshot()
        print(f"[bench] canonical: "
              f"{snapshot['canonical']['canonical_us_per_form']}us per form "
              f"over the ad-hoc universe; symmetric families at most "
              f"{snapshot['canonical']['family_max_ms']}ms", flush=True)
        if not snapshot["canonical"]["meets_canonical_bar"]:
            failures += 1
            print("[bench]   FAILED (a symmetric family over its ceiling, "
                  "or a renaming split a fingerprint)", flush=True)
    if args.fast:
        snapshot["net"] = net_snapshot(fast=True)
    net = snapshot["net"]
    print(f"[bench] codec: {net['codec_us_per_round_trip']}us per count "
          f"round trip; {net['parse_once_calls']} job_from_wire calls "
          f"parsed the text {net['parse_once_parses']} time(s)", flush=True)
    if not net["meets_parse_once_bar"]:
        failures += 1
        print("[bench]   FAILED (a repeated count spec was parsed more "
              "than once)", flush=True)
    for name in files:
        print(f"[bench] {name} ...", flush=True)
        outcome = run_benchmark_files([name])
        snapshot["files"][name] = outcome
        if outcome["exit_code"] != 0:
            failures += 1
            print(f"[bench]   FAILED ({outcome['tail']})", flush=True)
        else:
            print(f"[bench]   {outcome['seconds']}s", flush=True)
    # The kernel-accountable pair is timed in a single pytest invocation
    # (one interpreter startup), matching how the seed baseline was taken.
    print(f"[bench] kernel pair {KERNEL_FILES} (combined) ...", flush=True)
    pair = run_benchmark_files(KERNEL_FILES)
    if pair["exit_code"] != 0:
        failures += 1
        print(f"[bench]   FAILED ({pair['tail']})", flush=True)
    snapshot["kernel_pair_seconds"] = pair["seconds"]

    output = pathlib.Path(args.output)
    previous = None
    if output.exists():
        try:
            previous = json.loads(output.read_text())
        except (json.JSONDecodeError, OSError):
            previous = None
    if previous is not None and "seed_baseline" in previous:
        snapshot["seed_baseline"] = previous["seed_baseline"]
    # The perf trajectory: carry the previous runs' history forward and
    # append this run's headline numbers, so successive snapshots
    # accumulate instead of overwriting each other.  The latest full
    # snapshot stays at top level.
    history = []
    if previous is not None and isinstance(previous.get("history"), list):
        history = previous["history"]
    elif previous is not None and "generated_unix" in previous:
        # First run with history support: salvage the overwritten
        # predecessor as the trajectory's opening entry.
        history = [_history_entry(previous)]
    history.append(_history_entry(snapshot))
    snapshot["history"] = history
    output.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"[bench] snapshot -> {output}")
    baseline = snapshot.get("seed_baseline", {}).get("kernel_pair_seconds")
    if baseline:
        speedup = baseline / max(snapshot["kernel_pair_seconds"], 1e-9)
        print(f"[bench] kernel pair: {snapshot['kernel_pair_seconds']}s "
              f"vs seed {baseline}s -> {speedup:.1f}x")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
