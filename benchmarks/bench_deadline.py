"""Deadline-serving benchmark: exact when possible, approximate when necessary.

The acceptance bars of ISSUE 7, asserted here and recorded into
``BENCH_kernel.json`` by ``run_all.py``:

* **the heavy shape genuinely misses the deadline** — a random
  G(n, p) triangle join whose exact count takes well over the request
  deadline is measured first; the premise is checked at runtime, not
  assumed (functional-relation triangles count exactly in about a
  millisecond, so they prove nothing).
* **100% of deadline-stamped requests answer within budget** — a
  session stream of updates and counts over a cheap database plus the
  heavy triangle, every count carrying ``deadline_ms``, replayed
  through a sharded :class:`~repro.service.MultiWriterSession`; each
  request's wall clock must not exceed its deadline.
* **approx answers are honest** — every degraded response is verified
  against the independently-computed exact count: the estimate must lie
  within its own stated ``epsilon`` at the stated ``delta``.
* **cheap shapes stay exact** — the same deadline on the cheap counts
  must not spuriously degrade them: every cheap response answers with
  an exact strategy and the exact evolving count.

Standalone usage (CI artifact)::

    PYTHONPATH=src python benchmarks/bench_deadline.py -o bench-deadline.json
"""

from __future__ import annotations

import time

from repro.counting.engine import count_answers
from repro.db.database import Database
from repro.dynamic import Insert
from repro.dynamic.maintainer import MAINTAINER_BUDGET_ENV
from repro.envknobs import isolated_repro_env
from repro.query.parser import parse_query
from repro.service import (
    SESSION_SHARDS_ENV,
    CountRequest,
    MultiWriterSession,
    UpdateRequest,
)
from repro.service.net import SHARD_ADDRS_ENV
from repro.workloads.graph_patterns import heavy_triangle_database

#: Per-request deadline.  The heavy instance below counts exactly in
#: roughly 2x this on the reference machine — a genuine miss with
#: margin on both sides (a much faster host would break the premise,
#: a much slower one the 100%-within-budget bar).
DEADLINE_MS = 300.0

#: Random G(n, p) triangle instance: three independent draws as r/s/t,
#: ~90k edges each of degree ~60, exact count ~216k via the compiled
#: tier's worst-case-optimal join in ~500-700 ms.  (G(500, 0.05) used to
#: take ~650 ms under the pairwise fold; the generic join counts it in
#: ~25 ms, so it no longer misses anything.)
HEAVY_N = 1500
HEAVY_P = 0.04
HEAVY_SEED = 42

ROUNDS = 6

TRIANGLE = parse_query("ans(A, B, C) :- r(A, B), s(B, C), t(C, A)")
CHEAP = parse_query("ans(A, B) :- e(A, B)")


def _isolated_from_configured_session_env():
    """Run measurements without the CI leg's suite-wide session knobs."""
    return isolated_repro_env(**{
        MAINTAINER_BUDGET_ENV: None,
        SESSION_SHARDS_ENV: None,
        SHARD_ADDRS_ENV: None,
    })


def heavy_database() -> Database:
    return heavy_triangle_database(HEAVY_N, HEAVY_P, seed=HEAVY_SEED)


def cheap_database() -> Database:
    return Database.from_dict({"e": [(i, i + 1) for i in range(20)]})


def measure_deadline() -> dict:
    heavy = heavy_database()

    # Premise: the exact count of the heavy shape misses the deadline.
    started = time.perf_counter()
    exact = count_answers(TRIANGLE, heavy).count
    exact_ms = (time.perf_counter() - started) * 1e3
    misses = exact_ms > DEADLINE_MS

    requests = []          # (kind, elapsed_ms, result)
    cheap_rows = 20
    with _isolated_from_configured_session_env(), MultiWriterSession(
            {"heavy": heavy, "cheap": cheap_database()},
            shards=2, shard_mode="thread", maintain=False,
            max_pending=4) as session:
        # One unmeasured deadline-stamped request warms the shard's
        # relation statistics (the planner's estimate) and the sampler's
        # search space; the measured stream starts from a serving steady
        # state.
        session.submit(CountRequest(
            TRIANGLE, "heavy", deadline_ms=DEADLINE_MS,
        )).result()

        def timed(kind: str, job) -> None:
            begin = time.perf_counter()
            result = session.submit(job).result()
            requests.append(
                (kind, (time.perf_counter() - begin) * 1e3, result)
            )

        for round_index in range(ROUNDS):
            session.submit(UpdateRequest(
                "cheap", Insert("e", (100 + round_index, round_index)),
            )).result()
            cheap_rows += 1
            timed("cheap", CountRequest(
                CHEAP, "cheap", deadline_ms=DEADLINE_MS, label="cheap",
            ))
            timed("heavy", CountRequest(
                TRIANGLE, "heavy", deadline_ms=DEADLINE_MS, label="heavy",
            ))

    within = [elapsed <= DEADLINE_MS for _, elapsed, _ in requests]
    heavy_results = [r for kind, _, r in requests if kind == "heavy"]
    cheap_results = [r for kind, _, r in requests if kind == "cheap"]

    approx_honest = all(
        result.strategy == "approx"
        and abs(result.details["estimate"] - exact)
        <= result.details["epsilon"]
        for result in heavy_results
    )
    # The cheap database grew by one row per round: every cheap count
    # must be exact (never "approx") and track the evolution.
    expected_cheap = list(range(21, 21 + ROUNDS))
    cheap_exact = (
        all(result.strategy != "approx" for result in cheap_results)
        and [result.count for result in cheap_results] == expected_cheap
    )

    fraction = sum(within) / len(within)
    sample = heavy_results[0].details
    return {
        "deadline_workload": (
            f"{ROUNDS} rounds of insert + deadline-stamped cheap/heavy "
            f"counts; heavy = triangle on G({HEAVY_N}, {HEAVY_P}) "
            f"(seed {HEAVY_SEED}), 2-shard thread session, "
            f"deadline {DEADLINE_MS:.0f} ms"
        ),
        "deadline_ms": DEADLINE_MS,
        "deadline_exact_baseline_ms": round(exact_ms, 1),
        "deadline_exact_count": exact,
        "deadline_exact_misses": misses,
        "deadline_requests": len(requests),
        "deadline_within_fraction": fraction,
        "deadline_max_request_ms": round(
            max(elapsed for _, elapsed, _ in requests), 1
        ),
        "deadline_approx_estimate": sample["estimate"],
        "deadline_approx_epsilon": round(sample["epsilon"], 1),
        "deadline_approx_delta": sample["delta"],
        "deadline_approx_samples": sample["samples"],
        "deadline_approx_honest": approx_honest,
        "deadline_cheap_exact": cheap_exact,
        "meets_deadline_bar": (
            misses and fraction == 1.0 and approx_honest and cheap_exact
        ),
    }


_RESULT = None


def _measured() -> dict:
    """One measurement shared by the pytest entry points."""
    global _RESULT
    if _RESULT is None:
        _RESULT = measure_deadline()
    return _RESULT


def snapshot() -> dict:
    """The benchmark's JSON snapshot (merged into ``BENCH_kernel.json``)."""
    return measure_deadline()


# ----------------------------------------------------------------------
# pytest entry points (run by benchmarks/run_all.py's snapshot section)
# ----------------------------------------------------------------------
def test_heavy_shape_genuinely_misses_deadline():
    """ISSUE 7 premise: the exact count really overruns the deadline."""
    outcome = _measured()
    assert outcome["deadline_exact_misses"], (
        f"exact count finished in {outcome['deadline_exact_baseline_ms']}ms"
        f" — under the {DEADLINE_MS}ms deadline, the instance proves nothing"
    )


def test_all_requests_within_budget_and_honest():
    """ISSUE 7 bar: 100% of requests within budget, approx within its
    stated (epsilon, delta), cheap shapes still exact."""
    outcome = _measured()
    assert outcome["deadline_within_fraction"] == 1.0, (
        f"only {outcome['deadline_within_fraction']:.0%} of requests met "
        f"the deadline (worst {outcome['deadline_max_request_ms']}ms)"
    )
    assert outcome["deadline_approx_honest"], (
        "an approx answer missed its own stated epsilon against the "
        "exact count"
    )
    assert outcome["deadline_cheap_exact"], (
        "a cheap count was spuriously degraded or wrong under deadline"
    )


if __name__ == "__main__":  # pragma: no cover - CI artifact entry point
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="bench-deadline.json")
    args = parser.parse_args()
    result = snapshot()
    with open(args.output, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))
    failed = []
    if not result["deadline_exact_misses"]:
        failed.append("the heavy shape's exact count fits the deadline "
                      "(premise broken)")
    if result["deadline_within_fraction"] != 1.0:
        failed.append("not every request answered within its deadline")
    if not result["deadline_approx_honest"]:
        failed.append("an approx answer missed its stated epsilon")
    if not result["deadline_cheap_exact"]:
        failed.append("cheap shapes were spuriously degraded")
    for message in failed:
        print(f"FAILED: {message}", file=sys.stderr)
    if failed:
        sys.exit(1)
