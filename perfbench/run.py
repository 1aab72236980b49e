"""The counting system's benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload adhoc|session|fabric --seed N \\
        --seconds S --trace 0|1

With ``--trace 0`` the last line of standard output is one JSON object
holding every end-to-end metric; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run (see ``spans.py``).  The
lines before it report the samples behind each figure, the workload
property shares and the provenance of the run.  Every answer is checked
against an oracle; a wrong or failed operation makes the command exit 1.
Workloads and metrics are described in ``BENCHMARK.json`` and
``perfbench/layers.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import common
from common import BenchError

PROCESS_STARTED = time.perf_counter()
#: Fresh-process probes of an untraced run: ``setup_s`` is the median of
#: this process's set-up and SETUP_PROBES more, taken after the timed
#: phase; ``first_answer_ms`` the median of FIRST_ANSWER_SAMPLES spawns,
#: half of them before the timed phase and half after it, so that they
#: sample the machine's speed over a longer stretch.
SETUP_PROBES = 2
FIRST_ANSWER_SAMPLES = 6


def workload_class(name: str):
    if name == "adhoc":
        from wl_adhoc import Adhoc
        return Adhoc
    if name == "session":
        from wl_session import Session
        return Session
    if name == "fabric":
        from wl_fabric import Fabric
        return Fabric
    raise BenchError(f"unknown workload {name!r}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("adhoc", "session", "fabric"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, workdir: str, scrubbed) -> int:
    from driver import (
        Oracle,
        Run,
        answer_quality,
        check_answers,
        end_to_end,
        failures,
        strategy_shares,
        trace_accounting,
        trace_layers,
    )
    import spans

    workload = workload_class(args.workload)(args.seed, args.scale)
    if args.setup_probe:
        try:
            workload.setup(workdir, traced=False)
            print(common.READY_LINE, flush=True)
        finally:
            workload.teardown()
        return 0

    tracer = spans.Tracer() if args.trace else None
    first_answer = common.FirstAnswer(workdir)
    run = Run()
    try:
        if tracer is not None:
            spans.install_client(tracer)
        workload.setup(workdir, traced=bool(args.trace))
        age = common.process_age_s()
        run.setup_s = (age if age is not None
                       else time.perf_counter() - PROCESS_STARTED)
        run.report["this_process_setup_raw_s"] = run.setup_s
        run.setup_s *= common.REFERENCE_MS / common.calibration_ms(
            common.PROBE_CALIBRATIONS)
        if not args.trace:
            first_answer.sample(repeats=FIRST_ANSWER_SAMPLES // 2)
        # One continuous timed phase: the machine's speed flips between
        # two levels every few seconds, and a long unbroken phase averages
        # over many flips.
        started = time.perf_counter()
        workload.run(args.seconds, tracer)
        run.wall_s = time.perf_counter() - started
        run.records = workload.stream
        run.peak_rss_mb = workload.peak_rss_mb()
        run.layer, run.mix = workload.stats(run.records)
    finally:
        workload.teardown()
        if tracer is not None:
            tracer.uninstall()

    oracle_started = time.perf_counter()
    check_answers(run.records, Oracle(workload.data, workload.oracle_method,
                                      workload.direct_count))
    run.report["oracle_s"] = time.perf_counter() - oracle_started
    failed = failures(run.records)
    quality = answer_quality(run.records)

    if args.trace:
        remote = workload.remote_traces()
        all_spans = list(tracer.spans)
        counters = dict(tracer.counters)
        samples = {key: list(values) for key, values in
                   tracer.samples.items()}
        for dump in remote:
            all_spans.extend(tuple(span) for span in dump["spans"])
            for key, value in dump["counters"].items():
                counters[key] = counters.get(key, 0) + value
            for key, values in dump["samples"].items():
                samples.setdefault(key, []).extend(values)
        units = common.metric_units("per_layer")
        values = {name: 0.0 for name in units}
        values.update(trace_layers(run.records, all_spans, counters,
                                   samples))
        values.update(trace_accounting(run.records, tracer.spans))
        values.update(strategy_shares(run.records))
        values.update(run.layer)
        values["service.net.retries"] += counters.get("net.client_retries",
                                                      0)
        values.update(run.mix)
        values.update(quality)
        values["count_samples"] = sum(1 for r in run.records
                                      if r.op.kind == "count")
        values["import.repro_s"] = common.import_seconds(workdir)
    else:
        first_answer.sample(repeats=FIRST_ANSWER_SAMPLES
                            - FIRST_ANSWER_SAMPLES // 2)
        setups = [run.setup_s, *common.setup_seconds(
            args.workload, args.seed, args.scale, workdir, SETUP_PROBES)]
        run.report["setup_samples_s"] = setups
        run.report["first_answer_samples_ms"] = first_answer.samples
        run.report["first_answer_raw_ms"] = first_answer.raw
        values = end_to_end(run, common.median(first_answer.samples),
                            common.median(setups))
        units = common.metric_units("end_to_end")

    run.report.update({
        "provenance": common.provenance(args.workload, args.seed,
                                        bool(args.trace), scrubbed),
        "attempted": len(run.records),
        "failed": failed,
        "errors": sorted({r.error for r in run.records if r.error})[:5],
        "wrong": sum(1 for r in run.records if r.wrong),
        "wall_s": run.wall_s,
        "this_process_setup_s": run.setup_s,
        "answer_quality": quality,
        "mix": run.mix,
    })
    report_dir = os.path.join(common.WORK_ROOT, "reports")
    os.makedirs(report_dir, exist_ok=True)
    with open(os.path.join(report_dir, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w") as handle:
        json.dump(run.report, handle, indent=1, default=str)
    print("perfbench report " + json.dumps(run.report, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.require_checkout()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    common.pin_to_one_cpu()
    scrubbed = common.scrub_repro_env()
    workdir = common.make_workdir(
        f"{args.workload}-s{args.seed}-t{args.trace}")
    try:
        from repro.envknobs import isolated_repro_env

        with isolated_repro_env():
            return measure(args, workdir, scrubbed)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        common.remove_workdir(workdir)


if __name__ == "__main__":
    sys.exit(main())
