"""Batch service benchmark: cold sequential calls vs cold and warm batches.

The acceptance workload of the batch service: **20 jobs sharing 4 query
shapes** (each job a distinct bijective renaming of its shape's query,
all jobs of a shape over one shared database).  Three measurements:

* ``cold_sequential`` — 20 independent ``count_answers`` calls, plan
  cache and per-relation index caches cleared/rebuilt before every call
  (what 20 unrelated one-shot CLI invocations would pay);
* ``cold_batch`` — one fresh :class:`CountingService` pass (the cache
  warms *within* the batch: the first job of each shape pays the plan
  search, its siblings hit);
* ``warm_batch`` — a second pass over the same service (every job hits).

The headline claim asserted here and recorded into
``BENCH_kernel.json`` by ``run_all.py``: ``warm_batch`` beats
``cold_sequential`` by **at least 2x** (in practice far more — the
decomposition search dominates these instances).

Standalone usage (CI artifact)::

    PYTHONPATH=src python benchmarks/bench_batch_service.py -o bench-batch.json
"""

from __future__ import annotations

import time

from repro.counting.engine import clear_engine_memo, count_answers
from repro.db.database import Database
from repro.db.relation import Relation
from repro.service import CountingService, PlanCache
from repro.workloads.batch_jobs import batch_jobs

N_JOBS = 20
N_SHAPES = 4
SEED = 20260730
#: Shape sizing: large enough that the decomposition search dominates a
#: cold call (the thing the plan cache amortizes), small enough that the
#: whole benchmark stays in CI-smoke territory.
SHAPE_KWARGS = dict(n_variables=8, n_atoms=6, domain_size=6,
                    tuples_per_relation=24)


def _workload():
    return batch_jobs(n_jobs=N_JOBS, n_shapes=N_SHAPES, seed=SEED,
                      **SHAPE_KWARGS)


def _fresh_copy(database: Database) -> Database:
    """A content-equal database with completely cold caches."""
    return Database(
        Relation(relation.name, relation.arity, relation.rows)
        for relation in database.relations()
    )


def cold_sequential_seconds(jobs) -> tuple:
    """20 cold ``count_answers`` calls: all caches dropped per call."""
    counts = []
    started = time.perf_counter()
    for job in jobs:
        clear_engine_memo()  # drops the plan cache and the search memo
        database = _fresh_copy(job.database)
        counts.append(
            count_answers(job.query, database, **job.engine_kwargs()).count
        )
    return time.perf_counter() - started, counts


def batch_seconds(service: CountingService, jobs) -> tuple:
    started = time.perf_counter()
    results = service.run_batch(jobs)
    return time.perf_counter() - started, [r.count for r in results]


def snapshot() -> dict:
    """The benchmark's JSON snapshot (merged into ``BENCH_kernel.json``)."""
    jobs = _workload()
    cold_seq, expected = cold_sequential_seconds(jobs)

    service = CountingService(plan_cache=PlanCache())
    cold_batch, batch_counts = batch_seconds(service, jobs)
    warm_batch, warm_counts = batch_seconds(service, jobs)
    assert batch_counts == expected and warm_counts == expected

    warm_speedup = round(cold_seq / max(warm_batch, 1e-9), 2)
    return {
        "workload": f"{N_JOBS} jobs / {N_SHAPES} shapes "
                    f"(batch_jobs seed={SEED})",
        "cold_sequential_seconds": round(cold_seq, 4),
        "cold_batch_seconds": round(cold_batch, 4),
        "warm_batch_seconds": round(warm_batch, 4),
        "cold_batch_speedup": round(cold_seq / max(cold_batch, 1e-9), 2),
        "warm_batch_speedup": warm_speedup,
        "meets_2x_bar": warm_speedup >= 2.0,
        "plan_cache": service.plan_cache.stats(),
    }


# ----------------------------------------------------------------------
# pytest entry points (run by benchmarks/run_all.py's file loop)
# ----------------------------------------------------------------------
def test_warm_cache_batch_at_least_2x_faster():
    """The ISSUE 2 acceptance bar: warm batch >= 2x over cold sequential."""
    jobs = _workload()
    cold_seq, expected = cold_sequential_seconds(jobs)
    service = CountingService(plan_cache=PlanCache())
    _, first_counts = batch_seconds(service, jobs)
    warm, warm_counts = batch_seconds(service, jobs)
    assert first_counts == expected and warm_counts == expected
    assert cold_seq >= 2.0 * warm, (
        f"warm batch {warm:.3f}s not 2x faster than cold sequential "
        f"{cold_seq:.3f}s"
    )


if __name__ == "__main__":  # pragma: no cover - CI artifact entry point
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="bench-batch.json")
    args = parser.parse_args()
    result = snapshot()
    with open(args.output, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))
    if not result["meets_2x_bar"]:
        print("FAILED: warm batch is not >= 2x faster than cold sequential",
              file=sys.stderr)
        sys.exit(1)
