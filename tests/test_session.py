"""Tests for the streaming counting session (ISSUE 3).

Covers the job-ordering contract (order-insensitive for commuting jobs,
exactly ordered for same-database update/count interleavings), the
maintainer pool's multi-query sharing and delta batching, JSONL stream
round-trips, and the ``python -m repro session`` subcommand.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from repro.cli import main
from repro.counting.engine import count_answers
from repro.db import Database
from repro.dynamic import Delete, IncrementalCounter, Insert, MaintainerPool
from repro.exceptions import ReproError
from repro.query import parse_query
from repro.query.canonical import canonical_form, random_renaming
from repro.service import (
    AttachDatabase,
    CountRequest,
    CountingSession,
    JobFileError,
    UpdateRequest,
    dump_stream,
    job_from_spec,
    job_to_spec,
    load_stream,
)
from repro.service.session import PARSE_CACHE_SIZE, parse_cache_stats
from repro.workloads.session_stream import (
    session_stream_jobs,
    write_session_stream,
)

PATH = parse_query("ans(A, B, C) :- r(A, B), s(B, C)")
#: Genuinely alpha-cyclic (a triangle over r/s): never maintainable.
CYCLIC = parse_query("ans(A, B, C) :- r(A, B), s(B, C), r(C, A)")


def path_database(offset: int = 0) -> Database:
    return Database.from_dict({
        "r": [(1 + offset, 10), (2 + offset, 10), (3 + offset, 11)],
        "s": [(10, 5), (11, 5), (11, 6)],
    })


def result_counts(results):
    return [r.count for r in results if hasattr(r, "count")]


class TestOrderingContract:
    def test_commuting_jobs_are_order_insensitive(self):
        """Counts/updates on *distinct* databases commute: any
        interleaving of the per-database subsequences gives each labeled
        job the same result."""
        def jobs_pair():
            return (
                [
                    UpdateRequest("left", Insert("r", (9, 10)), label="lu"),
                    CountRequest(PATH, "left", label="lc"),
                ],
                [
                    UpdateRequest("right", Delete("s", (11, 6)), label="ru"),
                    CountRequest(PATH, "right", label="rc"),
                    CountRequest(CYCLIC, "right", label="rx"),
                ],
            )

        outcomes = []
        left, right = jobs_pair()
        # Every interleaving preserving each database's own order.
        for pattern in set(itertools.permutations(
                ["L"] * len(left) + ["R"] * len(right))):
            iters = {"L": iter(left), "R": iter(right)}
            stream = [next(iters[which]) for which in pattern]
            with CountingSession(databases={
                "left": path_database(), "right": path_database(100),
            }) as session:
                results = session.run_stream(stream)
            by_label = {}
            for job, result in zip(stream, results):
                label = getattr(job, "label", None)
                by_label[label] = (result.count
                                   if hasattr(result, "count")
                                   else result["applied"])
            outcomes.append(by_label)
            left, right = jobs_pair()
        assert all(outcome == outcomes[0] for outcome in outcomes)

    def test_same_database_interleaving_is_exactly_ordered(self):
        """On one database the stream is sequential: a count sees exactly
        the updates submitted before it, never the ones after."""
        database = path_database()
        stream = [
            CountRequest(PATH, "main", label="before"),
            UpdateRequest("main", Insert("s", (10, 7))),
            CountRequest(PATH, "main", label="between"),
            UpdateRequest("main", Delete("r", (1, 10))),
            CountRequest(PATH, "main", label="after"),
            # The engine path must obey the same ordering.
            CountRequest(CYCLIC, "main", label="cyclic-after"),
        ]
        versions = [database]
        versions.append(versions[-1].with_relation(
            versions[-1]["s"].union([(10, 7)])))
        versions.append(versions[-1].with_relation(
            versions[-1]["r"].restrict(lambda row: row != (1, 10))))
        expected = [
            count_answers(PATH, versions[0]).count,
            count_answers(PATH, versions[1]).count,
            count_answers(PATH, versions[2]).count,
            count_answers(CYCLIC, versions[2]).count,
        ]
        with CountingSession(databases={"main": path_database()}) as session:
            results = session.run_stream(stream)
        assert result_counts(results) == expected

    def test_submit_and_run_stream_agree(self):
        jobs = session_stream_jobs(n_shapes=2, rounds=4, seed=3)
        with CountingSession() as streamed:
            stream_results = streamed.run_stream(jobs)
        with CountingSession() as one_by_one:
            submit_results = [one_by_one.submit(job) for job in jobs]
        assert result_counts(stream_results) == result_counts(submit_results)


class TestMaintainerRouting:
    def test_renamed_queries_share_one_maintainer(self):
        with CountingSession(databases={"main": path_database()}) as session:
            base = session.count(CountRequest(PATH, "main"))
            assert base.strategy == "maintained"
            for seed in range(4):
                variant = random_renaming(PATH, seed=seed,
                                          prefix=f"R{seed}")
                result = session.count(CountRequest(variant, "main"))
                assert result.count == base.count
            stats = session.stats()["maintainers"]
            assert stats["maintainers"] == 1
            assert stats["clients"] == 5  # PATH + 4 distinct renamings

    def test_cyclic_shape_is_maintained_through_the_reduction(self):
        """Since reduction-based maintenance landed, a bounded-#htw
        cyclic shape rides the maintained path instead of recounting."""
        with CountingSession(databases={"main": path_database()}) as session:
            result = session.count(CountRequest(CYCLIC, "main"))
            assert result.strategy == "maintained"
            assert result.details["reduced"] is True
            assert session.maintained_counts == 1
            assert session.reduced_counts == 1
            assert session.engine_counts == 0

    def test_forced_maintained_method_on_cyclic_now_serves(self):
        with CountingSession(databases={"main": path_database()}) as session:
            result = session.count(
                CountRequest(CYCLIC, "main", method="maintained"))
            assert result.strategy == "maintained"
            assert result.count == count_answers(
                CYCLIC, path_database()).count

    def test_forced_maintained_with_maintenance_disabled_says_so(self):
        """maintain=False must not be misreported as a shape problem."""
        with CountingSession(databases={"main": path_database()},
                             maintain=False) as session:
            with pytest.raises(ReproError, match="maintain=False"):
                session.count(
                    CountRequest(PATH, "main", method="maintained"))

    def test_maintain_false_disables_the_pool(self):
        with CountingSession(databases={"main": path_database()},
                             maintain=False) as session:
            result = session.count(CountRequest(PATH, "main"))
            assert result.strategy == "compiled"
            assert session.stats()["maintainers"]["maintainers"] == 0

    def test_reattach_drops_maintainers_and_serves_new_contents(self):
        with CountingSession(databases={"main": path_database()}) as session:
            session.count(CountRequest(PATH, "main"))
            assert session.stats()["maintainers"]["maintainers"] == 1
            replacement = path_database(offset=50)
            ack = session.attach_database("main", replacement)
            assert ack["replaced"]
            assert session.stats()["maintainers"]["maintainers"] == 0
            result = session.count(CountRequest(PATH, "main"))
            assert result.count == count_answers(PATH, replacement).count

    def test_unknown_database_raises(self):
        with CountingSession() as session:
            with pytest.raises(ReproError):
                session.count(CountRequest(PATH, "nope"))
            with pytest.raises(ReproError):
                session.update("nope", Insert("r", (1, 2)))


class TestDeltaBatching:
    def test_apply_batch_equals_sequential_applies(self):
        rng = random.Random(17)
        database = path_database()
        sequential = IncrementalCounter(PATH, database)
        batched = IncrementalCounter(PATH, database)
        updates = []
        current = database
        for _ in range(12):
            relation = rng.choice(["r", "s"])
            rows = sorted(current[relation].rows, key=repr)
            if rows and rng.random() < 0.4:
                update = Delete(relation, rng.choice(rows))
            else:
                while True:
                    row = (rng.randrange(20), rng.randrange(20))
                    if row not in current[relation]:
                        break
                update = Insert(relation, row)
            rows_set = set(current[relation].rows)
            if isinstance(update, Insert):
                rows_set.add(update.row)
            else:
                rows_set.discard(update.row)
            current = current.with_relation(
                current[relation].restrict(lambda r: False).union(rows_set))
            updates.append(update)
            sequential.apply(update)
        batched.apply_batch(updates)
        assert batched.count == sequential.count
        assert batched.count == count_answers(PATH, current).count

    def test_session_batches_deltas_between_reads(self):
        """Several updates between two maintained counts are folded into
        the maintainer in one propagation pass, and the read is exact."""
        with CountingSession(databases={"main": path_database()}) as session:
            session.count(CountRequest(PATH, "main"))  # builds the DP
            for row in ((4, 12), (5, 12), (6, 12)):
                session.update("main", Insert("r", row))
            session.update("main", Insert("s", (12, 9)))
            result = session.count(CountRequest(PATH, "main"))
            assert result.strategy == "maintained"
            assert result.count == count_answers(
                PATH, session.database("main")).count


class TestMaintainerPoolDirect:
    def test_pool_translates_updates_into_canonical_space(self):
        database = path_database()
        pool = MaintainerPool()
        form = canonical_form(PATH)
        entry = pool.counter_for("db", PATH, database, form)
        assert entry.count == count_answers(PATH, database).count
        pool.apply("db", [Insert("s", (10, 7))])
        updated = database.with_relation(database["s"].union([(10, 7)]))
        assert entry.count == count_answers(PATH, updated).count
        # An update to a relation outside the query is a no-op.
        pool.apply("db", [Insert("zzz", (1,))])
        assert entry.count == count_answers(PATH, updated).count

    def test_pool_eviction_is_bounded(self):
        database = path_database()
        # budget_bytes pinned: the CI spill leg's tiny env budget must
        # not change this test's capacity-eviction arithmetic.
        pool = MaintainerPool(capacity=2, budget_bytes=None)
        for index in range(4):
            query = random_renaming(PATH, seed=index, rename_symbols=True,
                                    prefix=f"P{index}")
            renamed_db = Database(
                database[original].renamed(target)
                for original, target in zip(
                    sorted(PATH.relation_symbols),
                    sorted(query.relation_symbols))
            )
            pool.counter_for(f"db{index}", query, renamed_db,
                             canonical_form(query))
        assert len(pool) == 2
        assert pool.stats()["evicted"] == 2


class TestStreamFiles:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        jobs = session_stream_jobs(n_shapes=2, rounds=2, seed=5)
        dump_stream(path, jobs)
        loaded = load_stream(path)
        assert len(loaded) == len(jobs)
        with CountingSession() as first:
            original = first.run_stream(jobs)
        with CountingSession() as second:
            reloaded = second.run_stream(loaded)
        assert result_counts(original) == result_counts(reloaded)

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(
            "# a comment\n"
            "\n"
            '{"op": "database", "name": "d", "relations": '
            '{"r": [[1, 2]], "s": [[2, 3]]}}\n'
            '{"op": "count", "query": "ans(A, B, C) :- r(A, B), s(B, C)", '
            '"database": "d", "label": "only"}\n'
        )
        jobs = load_stream(str(path))
        assert len(jobs) == 2
        with CountingSession() as session:
            results = session.run_stream(jobs)
        assert results[1].count == 1

    def test_malformed_stream_raises_job_file_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(JobFileError):
            load_stream(str(path))
        path.write_text('{"op": "count", "database": "d"}\n')
        with pytest.raises(JobFileError):
            load_stream(str(path))
        path.write_text('{"op": "teleport"}\n')
        with pytest.raises(JobFileError):
            load_stream(str(path))


class TestParseCache:
    """``job_from_spec`` parses each distinct query text once while the
    text stays in its bounded LRU."""

    def test_repeated_text_returns_the_same_query(self):
        spec = {"op": "count", "query": "hot(A, C) :- r(A, B), s(B, C)",
                "database": "d"}
        first = job_from_spec(dict(spec))
        before = parse_cache_stats()
        second = job_from_spec(dict(spec))
        assert second is not first
        assert second.query is first.query
        after = parse_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_cache_stays_within_its_bound(self):
        for index in range(PARSE_CACHE_SIZE + 50):
            job_from_spec({"op": "count", "database": "d",
                           "query": f"bound{index}(A) :- r(A, B)"})
        stats = parse_cache_stats()
        assert stats["size"] <= stats["capacity"] == PARSE_CACHE_SIZE

    def test_malformed_text_raises_on_every_request(self):
        spec = {"op": "count", "query": "ans(A) :- r(A,", "database": "d"}
        for attempt in range(3):
            before = parse_cache_stats()["misses"]
            with pytest.raises(JobFileError, match="malformed 'count'"):
                job_from_spec(dict(spec), where=f"<try {attempt}>")
            # A failure is not cached: every request parses again.
            assert parse_cache_stats()["misses"] == before + 1
        stray = {"op": "count", "query": "ans(Z) :- r(A, B)",
                 "database": "d"}
        with pytest.raises(JobFileError):
            job_from_spec(stray)

    def test_shared_clients_unchanged_over_repeated_texts(self):
        """Served from cached parses, a stream of repeated texts reports
        the same ``shared_clients`` as one built from fresh parses."""
        renamed = random_renaming(PATH, seed=11)
        texts = [job_to_spec(CountRequest(query, "d"))["query"]
                 for query in (PATH, PATH, renamed, PATH, renamed)]
        fresh = [AttachDatabase("d", path_database())] + [
            CountRequest(parse_query(text), "d") for text in texts]
        cached = [AttachDatabase("d", path_database())] + [
            job_from_spec({"op": "count", "query": text, "database": "d"})
            for text in texts]

        def shared_clients(jobs):
            with CountingSession() as session:
                return [result.details["shared_clients"]
                        for result in session.run_stream(jobs)[1:]]

        assert shared_clients(cached) == shared_clients(fresh) \
            == [1, 1, 2, 2, 2]


class TestSessionCLI:
    def test_session_subcommand_runs_a_stream(self, tmp_path, capsys):
        stream = str(tmp_path / "jobs.jsonl")
        write_session_stream(stream, n_shapes=2, rounds=2, seed=1)
        output = str(tmp_path / "results.json")
        code = main(["session", stream, "--cache-dir",
                     str(tmp_path / "plans"), "--output", output])
        captured = capsys.readouterr().out
        assert code == 0
        assert "maintained" in captured
        with open(output) as handle:
            payload = json.load(handle)
        counted = [entry for entry in payload if entry.get("op") == "count"]
        assert counted and all("count" in entry for entry in counted)
        json.dumps(payload)  # results stay JSON-serializable end to end

    def test_session_cli_reports_missing_file(self, capsys):
        assert main(["session", "/nonexistent/stream.jsonl"]) == 1
        assert "error" in capsys.readouterr().err
