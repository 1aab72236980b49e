"""Differential test harness: every strategy agrees on a random corpus.

The trust anchor for the batch service and the shape-keyed plan cache:
on a corpus of random instances, every applicable registered strategy
(brute force, acyclic DP, structural, #-relation/degree, hybrid) and the
FAQ Inside-Out comparator must return the same count — and the batched
service must return exactly the sequential engine's results job-for-job,
however the batch reaches it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.counting.brute_force import count_brute_force
from repro.counting.engine import count_answers, registered_strategies
from repro.exceptions import DecompositionNotFoundError, NotAcyclicError
from repro.faq import count_insideout
from repro.service import CountJob, CountingService, PlanCache, dump_jobs
from repro.workloads.random_instances import random_instance

#: The package sources, for the ``repro batch`` subprocess.
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: Deterministic corpus: alternating cyclic/acyclic random instances.
CORPUS_SEEDS = tuple(range(10))


def _corpus():
    instances = []
    for seed in CORPUS_SEEDS:
        query, database = random_instance(
            n_variables=5, n_atoms=4, domain_size=5,
            tuples_per_relation=14, acyclic=seed % 2 == 1, seed=seed,
        )
        instances.append((seed, query, database))
    return instances


CORPUS = _corpus()


@pytest.mark.parametrize("seed,query,database", CORPUS,
                         ids=[f"seed{s}" for s, _, _ in CORPUS])
def test_every_applicable_strategy_agrees(seed, query, database):
    expected = count_brute_force(query, database)
    ran = []
    for strategy in registered_strategies():
        try:
            result = count_answers(query, database, method=strategy,
                                   max_width=3)
        except (DecompositionNotFoundError, NotAcyclicError):
            continue
        assert result.count == expected, (
            f"seed {seed}: strategy {strategy!r} returned {result.count}, "
            f"brute force says {expected}"
        )
        ran.append(strategy)
    # brute_force is always applicable, so the differential is never vacuous.
    assert "brute_force" in ran


@pytest.mark.parametrize("seed,query,database", CORPUS,
                         ids=[f"seed{s}" for s, _, _ in CORPUS])
def test_faq_insideout_agrees(seed, query, database):
    assert count_insideout(query, database) == \
        count_brute_force(query, database)


def _batch_in_subprocess(jobs, tmp_path):
    """Run *jobs* through ``python -m repro batch`` in a fresh process
    and return its ``--output`` records."""
    job_file = tmp_path / "jobs.json"
    output = tmp_path / "results.json"
    dump_jobs(str(job_file), jobs)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "batch", str(job_file),
         "--output", str(output)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(output.read_text())


@pytest.mark.parametrize("mode", ["inline", "thread", "process"])
def test_batched_service_equals_sequential_job_for_job(mode, tmp_path):
    """The one service path, reached three ways: ``run_batch`` on the
    caller's thread, two services sharing one plan cache on concurrent
    threads, and the ``repro batch`` CLI in a fresh process."""
    jobs = [
        CountJob(query=query, database=database,
                 label=f"seed{seed}")
        for seed, query, database in CORPUS
    ]
    sequential = [
        count_answers(job.query, job.database, **job.engine_kwargs())
        for job in jobs
    ]
    if mode == "inline":
        with CountingService(plan_cache=PlanCache()) as service:
            runs = [[(r.count, r.strategy, r.details["job"])
                     for r in service.run_batch(jobs)]]
    elif mode == "thread":
        shared = PlanCache()

        def run_on_own_service():
            with CountingService(plan_cache=shared) as service:
                return [(r.count, r.strategy, r.details["job"])
                        for r in service.run_batch(jobs)]

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run_on_own_service) for _ in range(2)]
            runs = [future.result() for future in futures]
    else:
        runs = [[(r["count"], r["strategy"], r["label"])
                 for r in _batch_in_subprocess(jobs, tmp_path)]]
    for batched in runs:
        assert len(batched) == len(jobs)
        for job, sequential_result, (count, strategy, label) in zip(
                jobs, sequential, batched):
            assert count == sequential_result.count, job.label
            assert strategy == sequential_result.strategy, job.label
            assert label == job.label


# ----------------------------------------------------------------------
# The compiled tier: compiled == brute, standalone and through sharded
# sessions in every shard-worker flavor (the interpreted strategies are
# checked against brute force by test_every_applicable_strategy_agrees).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed,query,database", CORPUS,
                         ids=[f"seed{s}" for s, _, _ in CORPUS])
def test_compiled_agrees_with_interpreted_and_brute(seed, query, database):
    expected = count_brute_force(query, database)
    try:
        compiled = count_answers(query, database, method="compiled",
                                 max_width=3, plan_cache=PlanCache())
    except DecompositionNotFoundError:
        return  # quantified shape beyond the probe width: nothing to compile
    assert compiled.strategy == "compiled"
    assert compiled.count == expected, f"seed {seed}"


@pytest.mark.parametrize("shard_fabric", ["thread", "tcp"], indirect=True)
def test_sharded_sessions_agree_compiled_and_uncompiled(shard_fabric):
    """The full sharded path — routing, maintenance, engine fallback —
    returns the brute-force counts."""
    from repro.service import AttachDatabase, CountRequest, \
        MultiWriterSession

    def streams():
        jobs = []
        for seed, query, database in CORPUS[:6]:
            jobs.append(AttachDatabase(f"db{seed}", database))
            jobs.append(CountRequest(query, f"db{seed}",
                                     label=f"seed{seed}"))
        return [jobs]

    with MultiWriterSession(shards=2, **shard_fabric) as session:
        (results,) = session.run_streams(streams())
    counts = [r.count for r in results if hasattr(r, "count")]
    assert counts == [count_brute_force(query, database)
                      for _, query, database in CORPUS[:6]]
