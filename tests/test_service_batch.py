"""Tests for the batch counting service, job files, and the batch CLI.

Covers the service's execution modes, explain-trail fidelity, the
JSON-serializability contract on ``CountResult.details`` (decision
trails must round-trip through ``json``), job-file round-trips with
shared databases, and the ``python -m repro batch`` subcommand.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.counting.engine import count_answers
from repro.service import (
    CountJob,
    CountingService,
    JobFileError,
    PlanCache,
    dump_jobs,
    load_jobs,
)
from repro.workloads.batch_jobs import batch_jobs, write_batch_job_file

WORKERS = max(2, int(os.environ.get("REPRO_SERVICE_WORKERS", "2") or 2))


def count_options(job) -> dict:
    """The seven count fields a job file and a session stream carry."""
    return {name: getattr(job, name)
            for name in ("method", "max_width", "max_degree",
                         "hybrid_width", "label", "deadline_ms",
                         "error_budget")}


@pytest.fixture
def small_jobs():
    return batch_jobs(n_jobs=6, n_shapes=2, seed=42,
                      n_variables=5, n_atoms=4, domain_size=5,
                      tuples_per_relation=12)


class TestCountingService:
    def test_inline_batch_matches_direct_engine_calls(self, small_jobs):
        service = CountingService(plan_cache=PlanCache())
        results = service.run_batch(small_jobs)
        for job, result in zip(small_jobs, results):
            direct = count_answers(job.query, job.database,
                                   **job.engine_kwargs())
            assert result.count == direct.count
            assert result.strategy == direct.strategy

    def test_results_keep_explain_trails(self, small_jobs):
        service = CountingService(plan_cache=PlanCache())
        for result in service.run_batch(small_jobs):
            assert "decision_trail" in result.details
            rendered = result.explain()
            assert "decision trail" in rendered
            assert result.strategy in rendered

    def test_plan_cache_shared_across_batches(self, small_jobs):
        service = CountingService(plan_cache=PlanCache())
        service.run_batch(small_jobs)
        after_first = service.plan_cache.stats()
        service.run_batch(small_jobs)
        after_second = service.plan_cache.stats()
        # The second batch computes no new plans at all.
        assert after_second["misses"] == after_first["misses"]
        assert after_second["hits"] > after_first["hits"]

    def test_thread_pool_matches_inline(self, small_jobs):
        inline = CountingService(plan_cache=PlanCache())
        threaded = CountingService(workers=WORKERS, mode="thread",
                                   plan_cache=PlanCache())
        inline_counts = [r.count for r in inline.run_batch(small_jobs)]
        threaded_counts = [r.count for r in threaded.run_batch(small_jobs)]
        assert threaded_counts == inline_counts

    def test_process_pool_matches_inline(self, small_jobs):
        inline = CountingService(plan_cache=PlanCache())
        inline_counts = [r.count for r in inline.run_batch(small_jobs)]
        with CountingService(workers=WORKERS, mode="process") as pooled:
            pooled_results = pooled.run_batch(small_jobs)
            assert [r.count for r in pooled_results] == inline_counts
            # Labels survive the process boundary.
            assert [r.details["job"] for r in pooled_results] == \
                [job.label for job in small_jobs]
            # The pool persists across batches (per-worker caches carry
            # over) and a second batch still agrees.
            assert pooled._process_pool is not None
            again = pooled.run_batch(small_jobs)
            assert [r.count for r in again] == inline_counts
            assert pooled.stats()["plan_cache_scope"] == "per-worker"
        assert pooled._process_pool is None  # context exit closed it

    def test_stats_scope_for_shared_modes(self):
        assert CountingService().stats()["plan_cache_scope"] == "shared"
        assert CountingService(workers=2, mode="thread").stats()[
            "plan_cache_scope"] == "shared"

    def test_empty_batch(self):
        assert CountingService().run_batch([]) == []

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            CountingService(mode="fleet")

    def test_mode_resolution(self):
        assert CountingService(workers=0, mode="auto").mode == "inline"
        assert CountingService(workers=1, mode="auto").mode == "inline"
        assert CountingService(workers=4, mode="auto").mode == "process"
        # An explicitly requested pool mode is honored, never silently
        # downgraded; workers=0 then defaults to default_workers().
        threaded = CountingService(workers=0, mode="thread")
        assert threaded.mode == "thread" and threaded.workers >= 1
        single = CountingService(workers=1, mode="process")
        assert single.mode == "process" and single.workers == 1
        assert single.run_batch([]) == []


class TestDetailsSerialization:
    def test_decision_trail_round_trips_through_json(self, small_jobs):
        """The ISSUE 2 satellite: decision-trail entries are plain data."""
        service = CountingService(plan_cache=PlanCache())
        for result in service.run_batch(small_jobs):
            payload = json.dumps(result.details)
            restored = json.loads(payload)
            trail = restored["decision_trail"]
            assert trail == result.details["decision_trail"]
            for entry in trail:
                assert set(entry) >= {"strategy", "estimated_cost",
                                      "probed", "chosen"}
                assert isinstance(entry["strategy"], str)
                assert isinstance(entry["estimated_cost"], (int, float))
                assert isinstance(entry["probed"], bool)
                assert isinstance(entry["chosen"], bool)

    def test_forced_method_details_are_json_plain(self, path_query,
                                                  path_database):
        for method in ("structural", "degree", "brute_force"):
            result = count_answers(path_query, path_database, method=method)
            assert json.loads(json.dumps(result.details)) is not None

    def test_live_objects_in_custom_details_are_flattened(self):
        from repro.counting.engine import (
            register_strategy,
            unregister_strategy,
        )
        from repro.db import Database
        from repro.query import parse_query

        register_strategy(
            "leaky", lambda ctx: True, lambda ctx: 0.0,
            lambda ctx, witness: (7, {"object": object(), "ok": [1, (2, 3)]}),
        )
        try:
            q = parse_query("ans(A) :- r(A, B)")
            db = Database.from_dict({"r": [(1, 2)]})
            result = count_answers(q, db, method="leaky")
            json.dumps(result.details)  # must not raise
            assert isinstance(result.details["object"], str)
            assert result.details["ok"] == [1, [2, 3]]
        finally:
            unregister_strategy("leaky")


class TestJobFiles:
    def test_round_trip_preserves_jobs_and_shares_databases(self, tmp_path,
                                                            small_jobs):
        from repro.service import CountRequest, dump_stream, load_stream

        template = small_jobs[0]
        every_option = CountJob(
            template.query, template.database, method="structural",
            max_width=2, max_degree=7.0, hybrid_width=3,
            label="every-option", deadline_ms=250.0, error_budget=0.05,
        )
        jobs = small_jobs + [every_option]
        path = tmp_path / "jobs.json"
        dump_jobs(str(path), jobs)
        loaded = load_jobs(str(path))
        # The same options through the session stream format.
        stream = tmp_path / "stream.jsonl"
        dump_stream(str(stream), [
            CountRequest(job.query, "db", **count_options(job))
            for job in jobs
        ])
        streamed = load_stream(str(stream))
        assert len(loaded) == len(streamed) == len(jobs)
        for original, restored, replayed in zip(jobs, loaded, streamed):
            for copy in (restored, replayed):
                assert copy.query.atoms == original.query.atoms
                assert copy.query.free_variables == \
                    original.query.free_variables
                assert count_options(copy) == count_options(original)
            assert restored.database == original.database
        # Jobs of the same shape share one database *instance*.
        assert loaded[0].database is loaded[2].database

    def test_database_path_reference(self, tmp_path):
        db_path = tmp_path / "db.json"
        db_path.write_text(json.dumps({"r": [[1, 2], [2, 3]]}))
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text(json.dumps({
            "jobs": [
                {"query": "ans(A) :- r(A, B)", "database": "db.json"},
                {"query": "ans(B) :- r(A, B)", "database": "db.json"},
            ],
        }))
        jobs = load_jobs(str(jobs_path))
        assert len(jobs) == 2
        assert jobs[0].database is jobs[1].database  # shared via path
        assert CountingService().run_batch(jobs)[0].count == 2

    def test_malformed_job_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"jobs": [{"query": "ans(A) :- r(A, B)"}]}))
        with pytest.raises(JobFileError):
            load_jobs(str(path))
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(JobFileError):
            load_jobs(str(path))
        path.write_text(json.dumps({"jobs": "ans(A) :- r(A, B)"}))
        with pytest.raises(JobFileError):
            load_jobs(str(path))
        path.write_text(json.dumps({"jobs": ["ans(A) :- r(A, B)"]}))
        with pytest.raises(JobFileError):
            load_jobs(str(path))
        path.write_text(json.dumps({
            "databases": {"d": {"r": [[1, 2]]}},
            "jobs": [{"query": 42, "database": "d"}],
        }))
        with pytest.raises(JobFileError):
            load_jobs(str(path))

    def test_missing_database_reference_raises(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({
            "jobs": [{"query": "ans(A) :- r(A, B)",
                      "database": "nowhere.json"}],
        }))
        with pytest.raises(JobFileError):
            load_jobs(str(path))


class TestBatchCli:
    def test_batch_command_runs_and_reports(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        write_batch_job_file(str(path), n_jobs=4, n_shapes=2, seed=3,
                             n_variables=5, n_atoms=4, domain_size=5,
                             tuples_per_relation=12)
        code = main(["batch", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "jobs     : 4" in out
        assert "plan cache:" in out
        assert "strategy=" in out

    def test_batch_command_writes_json_results(self, tmp_path, capsys):
        jobs_path = tmp_path / "jobs.json"
        out_path = tmp_path / "results.json"
        write_batch_job_file(str(jobs_path), n_jobs=4, n_shapes=2, seed=3,
                             n_variables=5, n_atoms=4, domain_size=5,
                             tuples_per_relation=12)
        code = main(["batch", str(jobs_path), "--workers", str(WORKERS),
                     "--mode", "thread", "--output", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload) == 4
        for entry in payload:
            assert set(entry) >= {"label", "query", "count", "strategy",
                                  "details"}
            assert "decision_trail" in entry["details"]

    def test_batch_command_explain(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        write_batch_job_file(str(path), n_jobs=2, n_shapes=1, seed=3,
                             n_variables=4, n_atoms=3, domain_size=4,
                             tuples_per_relation=8)
        code = main(["batch", str(path), "--explain"])
        out = capsys.readouterr().out
        assert code == 0
        assert "decision trail" in out

    def test_batch_command_missing_file(self, capsys):
        code = main(["batch", "/nonexistent/jobs.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
