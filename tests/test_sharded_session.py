"""The sharded multi-writer front end and maintainer spilling (ISSUE 4).

Covers the :class:`~repro.service.SessionRouter`'s stable partitioning,
:class:`~repro.service.MultiWriterSession` in both shard flavours
(thread / tcp) against single-writer sequential replay, thread-safe multi-producer submission, the maintainer pool's
byte budget with checkpoint spill + delta-journal restore (including
corrupted checkpoints), deterministic LRU eviction, and the sharded
session CLI.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.cli import main as cli_main
from repro.counting.engine import count_answers
from repro.db import Database
from repro.dynamic import Insert, MaintainerPool
from repro.dynamic.maintainer import (
    MAINTAINER_BUDGET_ENV,
    maintainer_budget_from_env,
)
from repro.exceptions import DatabaseError, ReproError
from repro.query import parse_query
from repro.query.canonical import canonical_form, random_renaming
from repro.service import (
    AttachDatabase,
    CountRequest,
    CountingSession,
    MultiWriterSession,
    SessionRouter,
    UpdateRequest,
)
from repro.workloads.multi_writer import (
    multi_writer_streams,
    write_multi_writer_streams,
)

PATH = parse_query("ans(A, B, C) :- r(A, B), s(B, C)")


def path_database(shift: int = 0) -> Database:
    return Database.from_dict({
        "r": [(1 + shift, 2), (3, 4)],
        "s": [(2, 5), (4, 6 + shift)],
    })


def result_counts(results):
    return [r.count for r in results if hasattr(r, "count")]


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
class TestSessionRouter:
    def test_partition_is_stable_and_in_range(self):
        router = SessionRouter(3)
        for name in ("db0", "main", "w1-db0", "x" * 50):
            shard = router.shard_of(name)
            assert 0 <= shard < 3
            assert shard == router.shard_of(name)  # deterministic

    def test_partition_is_not_builtin_hash(self):
        # Pinned expected values: builtin hash is randomized per process,
        # so equality across this test's runs proves a stable digest.
        router = SessionRouter(4)
        observed = {name: router.shard_of(name)
                    for name in ("star0", "star1", "star2", "star3")}
        assert observed == {"star0": 2, "star1": 1, "star2": 2, "star3": 1}

    def test_jobs_route_by_their_database_name(self):
        router = SessionRouter(5)
        database = path_database()
        attach = AttachDatabase("alpha", database)
        count = CountRequest(PATH, "alpha")
        update = UpdateRequest("alpha", Insert("r", (9, 9)))
        assert (router.shard_for_job(attach)
                == router.shard_for_job(count)
                == router.shard_for_job(update)
                == router.shard_of("alpha"))

    def test_unroutable_job_raises(self):
        with pytest.raises(ReproError):
            SessionRouter(2).shard_for_job(object())

    def test_at_least_one_shard_required(self):
        with pytest.raises(ValueError):
            SessionRouter(0)


# ----------------------------------------------------------------------
# The multi-writer session
# ----------------------------------------------------------------------
def interleaved_jobs(n_databases: int = 4):
    """One interleaved stream touching *n_databases* databases."""
    databases = {f"db{i}": path_database(shift=i)
                 for i in range(n_databases)}
    jobs = []
    for i in range(n_databases):
        jobs.append(UpdateRequest(f"db{i}", Insert("r", (7 + i, 2))))
        jobs.append(CountRequest(PATH, f"db{i}", label=f"count{i}"))
        jobs.append(CountRequest(
            random_renaming(PATH, seed=i), f"db{i}", label=f"renamed{i}"
        ))
    return databases, jobs


class TestMultiWriterSession:
    @pytest.mark.parametrize("shard_fabric", ["thread", "tcp"],
                             indirect=True)
    def test_stream_matches_single_writer_replay(self, shard_fabric):
        databases, jobs = interleaved_jobs()
        with CountingSession(databases=dict(databases)) as single:
            expected = result_counts(single.run_stream(jobs))
        with MultiWriterSession(databases=dict(databases), shards=2,
                                **shard_fabric) as sharded:
            results = sharded.run_stream(jobs)
            stats = sharded.stats()
        assert result_counts(results) == expected
        assert stats["shards"] == 2
        assert stats["maintained_counts"] + stats["engine_counts"] == 8
        assert sorted(stats["databases"]) == sorted(databases)
        # TCP shards carry their session namespace: "<ns>/shard0".
        assert [shard["shard"].rsplit("/", 1)[-1]
                for shard in stats["per_shard"]] == ["shard0", "shard1"]

    def test_submit_returns_per_job_futures(self):
        with MultiWriterSession(shards=2, shard_mode="thread") as session:
            attach = session.submit(AttachDatabase("main", path_database()))
            assert attach.result()["attached"] is True
            count = session.submit(CountRequest(PATH, "main"))
            assert count.result().count == \
                count_answers(PATH, path_database()).count

    def test_invalid_update_raises_through_its_future_only(self):
        with MultiWriterSession(databases={"main": path_database()},
                                shards=2, shard_mode="thread") as session:
            before = session.submit(CountRequest(PATH, "main")).result()
            bad = session.submit(
                UpdateRequest("main", Insert("r", (1, 2)))  # duplicate
            )
            with pytest.raises(DatabaseError):
                bad.result()
            after = session.submit(CountRequest(PATH, "main")).result()
            assert after.count == before.count

    def test_concurrent_producers_from_many_threads(self):
        """Thread-safe submit: eight producer threads, distinct
        databases, every stream's results equal sequential replay."""
        streams = []
        databases = {}
        for writer in range(8):
            name = f"w{writer}"
            databases[name] = path_database(shift=writer)
            streams.append([
                UpdateRequest(name, Insert("r", (100 + writer, 2))),
                CountRequest(PATH, name),
                UpdateRequest(name, Insert("s", (2, 200 + writer))),
                CountRequest(PATH, name),
            ])
        expected = []
        for writer, stream in enumerate(streams):
            with CountingSession(
                    databases={f"w{writer}": databases[f"w{writer}"]}
            ) as single:
                expected.append(result_counts(single.run_stream(stream)))
        with MultiWriterSession(databases=databases, shards=3,
                                shard_mode="thread") as sharded:
            outcomes = sharded.run_streams(streams)
        assert [result_counts(outcome) for outcome in outcomes] == expected

    def test_same_database_ordering_is_preserved(self):
        """A long same-database update/count alternation must observe
        every update in submission order (the shard queue serializes)."""
        database = Database.from_dict({"r": [(0, 2)], "s": [(2, 0)]})
        with MultiWriterSession(databases={"main": database},
                                shards=2, shard_mode="thread") as session:
            futures = []
            for step in range(12):
                futures.append(session.submit(
                    UpdateRequest("main", Insert("r", (step + 1, 2)))
                ))
                futures.append(session.submit(CountRequest(PATH, "main")))
            counts = [f.result().count
                      for f in futures if hasattr(f.result(), "count")]
        # After k inserts of r(*, 2) there are k+2 join answers... compute
        # directly: each r-row with B=2 joins s(2, 0).
        assert counts == [step + 2 for step in range(12)]

    def test_run_streams_surfaces_producer_submission_errors(self):
        """A stream whose job cannot even be routed must raise out of
        run_streams, not die silently on its producer thread."""
        good = [AttachDatabase("ok", path_database()),
                CountRequest(PATH, "ok")]
        bad = [object()]  # unroutable: names no database
        with MultiWriterSession(shards=2, shard_mode="thread") as session:
            with pytest.raises(ReproError):
                session.run_streams([good, bad])

    def test_concurrent_producers_serialize_on_one_shard(self):
        """Concurrent producers hammering one shard's database stay
        consistent (the shard's worker queue serializes them)."""
        database = Database.from_dict({"r": [(0, 2)], "s": [(2, 0)]})
        with MultiWriterSession(databases={"main": database}, shards=2,
                                shard_mode="thread") as session:
            streams = [
                [UpdateRequest("main",
                               Insert("r", (1000 * (writer + 1) + step, 2)))
                 for step in range(20)]
                for writer in range(4)
            ]
            session.run_streams(streams)
            final = session.submit(CountRequest(PATH, "main")).result()
        # 1 seed row + 4x20 inserted rows, each joining s(2, 0).
        assert final.count == 81

    def test_tcp_mode_rejects_shared_plan_cache(self):
        from repro.counting.plan_cache import PlanCache

        with pytest.raises(ValueError, match="plan_cache"):
            MultiWriterSession(shards=2, shard_mode="tcp",
                               shard_addrs=["127.0.0.1:9"],
                               plan_cache=PlanCache())

    def test_env_default_shard_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_SESSION_SHARDS", "3")
        with MultiWriterSession(shard_mode="thread") as session:
            assert session.shards == 3

    def test_unknown_shard_mode_rejected(self):
        with pytest.raises(ValueError):
            MultiWriterSession(shards=2, shard_mode="fibers")

    def test_thread_shards_share_one_plan_cache(self):
        databases, jobs = interleaved_jobs(3)
        with MultiWriterSession(databases=databases, shards=2,
                                shard_mode="thread") as session:
            session.run_stream(jobs)
            stats = session.stats()
        assert stats["plan_cache_scope"] == "shared"
        caches = [shard["plan_cache"] for shard in stats["per_shard"]]
        # One shared object: every shard reports identical counters.
        assert all(cache == caches[0] for cache in caches)

    def test_shard_mode_follows_from_the_addresses(self, repro_env_sandbox):
        from repro.service.net import SHARD_ADDRS_ENV, ShardServer

        os.environ.pop(SHARD_ADDRS_ENV, None)
        with MultiWriterSession(shards=1) as session:
            assert session.shard_mode == "thread"
        with ShardServer(shards=1) as server:
            with MultiWriterSession(shard_addrs=[server.address]) as session:
                assert session.shard_mode == "tcp"
            os.environ[SHARD_ADDRS_ENV] = server.address
            with MultiWriterSession(shards=1) as session:
                assert session.shard_mode == "tcp"
                assert session.shard_addrs == [server.address]
            # An explicit flavour wins over the environment...
            with MultiWriterSession(shards=1,
                                    shard_mode="thread") as session:
                assert session.shard_mode == "thread"
        # ...but contradicting explicit arguments are refused.
        with pytest.raises(ValueError, match="shard_addrs"):
            MultiWriterSession(shard_mode="thread",
                               shard_addrs=["127.0.0.1:9"])

    @pytest.mark.parametrize("shard_fabric", ["thread", "tcp"],
                             indirect=True)
    def test_closed_session_refuses_work(self, shard_fabric):
        session = MultiWriterSession({"main": path_database()}, shards=2,
                                     **shard_fabric)
        session.close()
        with pytest.raises(ReproError, match="session is closed"):
            session.submit(CountRequest(PATH, "main"))
        with pytest.raises(ReproError, match="session is closed"):
            session.run_stream([CountRequest(PATH, "main")])
        # Refused before admission: no slot was taken or leaked.
        assert session.stats()["pending"] == [0, 0]


# ----------------------------------------------------------------------
# Maintainer byte budget, spilling, and restore
# ----------------------------------------------------------------------
def build_pool_entry(pool, token, query, database):
    return pool.counter_for(token, query, database, canonical_form(query))


class TestMaintainerBudget:
    def test_estimated_bytes_grows_with_data(self):
        small = build_pool_entry(
            MaintainerPool(budget_bytes=None), "d", PATH, path_database()
        )
        big_db = Database.from_dict({
            "r": [(i, i % 7) for i in range(300)],
            "s": [(i % 7, i) for i in range(300)],
        })
        big = build_pool_entry(
            MaintainerPool(budget_bytes=None), "d", PATH, big_db
        )
        assert small.resident_bytes > 0
        assert big.resident_bytes > 4 * small.resident_bytes

    def test_budget_spills_lru_and_restores_by_replaying_deltas(self):
        pool = MaintainerPool(capacity=64, budget_bytes=1)  # absurdly tiny
        db0, db1 = path_database(0), path_database(5)
        entry0 = build_pool_entry(pool, "db0", PATH, db0)
        assert entry0.count == count_answers(PATH, db0).count
        # Second build exceeds the 1-byte budget: db0's DP spills (the
        # MRU entry itself always stays resident).
        build_pool_entry(pool, "db1", PATH, db1)
        stats = pool.stats()
        assert stats["maintainers"] == 1
        assert stats["spilled_entries"] == 1
        assert stats["spilled"] == 1 and stats["evicted"] == 1
        # Updates to the cold database land in its delta journal only.
        pool.apply("db0", [Insert("r", (7, 2)), Insert("s", (2, 9))])
        db0_now = db0.with_relation(db0["r"].union([(7, 2)]))
        db0_now = db0_now.with_relation(db0_now["s"].union([(2, 9)]))
        # Restore: checkpoint + journal replay, not a rebuild.  The
        # database argument is deliberately the *stale* snapshot — a
        # rebuild from it would produce the wrong count.
        restored = build_pool_entry(pool, "db0", PATH, db0)
        assert restored.count == count_answers(PATH, db0_now).count
        stats = pool.stats()
        assert stats["restored"] == 1
        assert stats["built"] == 2  # no third build
        pool.close()

    def test_peak_resident_bytes_stays_under_generous_budget(self):
        databases = [
            Database.from_dict({
                "r": [(i, (i + shift) % 11) for i in range(120)],
                "s": [((i + shift) % 11, i) for i in range(120)],
            })
            for shift in range(4)
        ]
        single = build_pool_entry(
            MaintainerPool(budget_bytes=None), "probe", PATH, databases[0]
        )
        budget = int(single.resident_bytes * 1.5)
        pool = MaintainerPool(budget_bytes=budget)
        for _round in range(3):
            for index, database in enumerate(databases):
                entry = build_pool_entry(pool, f"db{index}", PATH, database)
                assert entry.count == count_answers(PATH, database).count
        stats = pool.stats()
        assert stats["spilled"] > 0 and stats["restored"] > 0
        assert stats["peak_resident_bytes"] <= budget
        pool.close()

    def test_eviction_is_deterministic_lru_under_equal_sizes(self):
        """Four same-shape, same-size entries, capacity two: the two
        oldest are spilled, in build order, every time."""
        def run():
            pool = MaintainerPool(capacity=2, budget_bytes=None)
            for index in range(4):
                build_pool_entry(pool, f"db{index}", PATH, path_database())
            resident = [key[0] for key in pool._entries]
            cold = sorted(key[0] for key in pool._spilled)
            pool.close()
            return resident, cold

        first = run()
        assert first == (["db2", "db3"], ["db0", "db1"])
        assert all(run() == first for _ in range(3))

    def test_corrupted_checkpoint_rebuilds_from_database(self, tmp_path):
        pool = MaintainerPool(capacity=1, budget_bytes=None,
                              spill_dir=str(tmp_path))
        db0 = path_database()
        build_pool_entry(pool, "db0", PATH, db0)
        build_pool_entry(pool, "db1", PATH, path_database(3))  # spills db0
        (spill_file,) = [
            os.path.join(str(tmp_path), name)
            for name in os.listdir(str(tmp_path))
        ]
        with open(spill_file, "wb") as handle:
            handle.write(b"garbage" * 10)
        restored = build_pool_entry(pool, "db0", PATH, db0)
        assert restored.count == count_answers(PATH, db0).count
        stats = pool.stats()
        assert stats["restore_failures"] == 1
        assert stats["built"] == 3  # the corrupt checkpoint forced a rebuild
        pool.close()

    def test_discard_drops_cold_state_and_journal(self):
        pool = MaintainerPool(capacity=1, budget_bytes=None)
        build_pool_entry(pool, "db0", PATH, path_database())
        build_pool_entry(pool, "db1", PATH, path_database(1))  # spills db0
        pool.apply("db0", [Insert("r", (9, 2))])  # journaled
        assert pool.stats()["spilled_entries"] == 1
        pool.discard("db0")
        assert pool.stats()["spilled_entries"] == 0
        # A fresh build must not see stale journal entries.
        fresh = build_pool_entry(pool, "db0", PATH, path_database())
        assert fresh.count == count_answers(PATH, path_database()).count
        pool.close()

    def test_journal_cap_falls_back_to_rebuild(self, monkeypatch):
        """A journal outgrowing JOURNAL_LIMIT drops the token's
        checkpoints; the next read rebuilds from the live database and
        stays correct."""
        import repro.dynamic.maintainer as maintainer_module

        monkeypatch.setattr(maintainer_module, "JOURNAL_LIMIT", 3)
        pool = MaintainerPool(capacity=1, budget_bytes=None)
        db0 = path_database()
        build_pool_entry(pool, "db0", PATH, db0)
        build_pool_entry(pool, "db1", PATH, path_database(5))  # spills db0
        current = db0
        for step in range(5):  # overflows the 3-update journal cap
            update = Insert("r", (20 + step, 2))
            pool.apply("db0", [update])
            current = current.with_relation(
                current["r"].union([update.row])
            )
        stats = pool.stats()
        assert stats["journals_dropped"] == 1
        assert stats["spilled_entries"] == 0  # checkpoints were dropped
        entry = build_pool_entry(pool, "db0", PATH, current)
        assert entry.count == count_answers(PATH, current).count
        assert pool.stats()["built"] == 3  # a rebuild, not a restore
        pool.close()

    def test_restore_preevicts_using_checkpoint_size(self):
        """Restoring a checkpoint makes room first, so even the
        transient residency honors the budget (restores never stack a
        DP on top of its victims)."""
        database = Database.from_dict({
            "r": [(i, i % 7) for i in range(150)],
            "s": [(i % 7, i) for i in range(150)],
        })
        probe = build_pool_entry(
            MaintainerPool(budget_bytes=None), "probe", PATH, database
        )
        budget = int(probe.resident_bytes * 1.4)  # one DP, not two
        pool = MaintainerPool(budget_bytes=budget)
        for _round in range(3):
            for index in range(2):
                entry = build_pool_entry(pool, f"db{index}", PATH, database)
                assert entry.count == \
                    count_answers(PATH, database).count
        stats = pool.stats()
        assert stats["restored"] > 0
        assert stats["peak_resident_bytes"] <= budget
        pool.close()

    def test_budget_env_parsing(self, monkeypatch):
        from repro.envknobs import reset_env_warnings

        reset_env_warnings()
        monkeypatch.setenv(MAINTAINER_BUDGET_ENV, "0.5")
        assert maintainer_budget_from_env() == 512 * 1024
        monkeypatch.setenv(MAINTAINER_BUDGET_ENV, "junk")
        with pytest.warns(RuntimeWarning, match=MAINTAINER_BUDGET_ENV):
            assert maintainer_budget_from_env() is None
        monkeypatch.delenv(MAINTAINER_BUDGET_ENV)
        assert maintainer_budget_from_env() is None

    def test_close_removes_owned_spill_directory(self):
        pool = MaintainerPool(capacity=1, budget_bytes=None)
        build_pool_entry(pool, "db0", PATH, path_database())
        build_pool_entry(pool, "db1", PATH, path_database(1))
        directory = pool._spill_dir
        assert directory is not None and os.path.isdir(directory)
        pool.close()
        assert not os.path.exists(directory)


class TestSessionSpillIntegration:
    def test_spill_forced_session_stays_correct(self):
        """A tiny per-shard budget forces spill/restore on every
        database switch; counts must equal the unbudgeted session's."""
        # Three writers x three shapes: several maintainable databases
        # land on each shard, so the tiny budget forces spill/restore on
        # every database switch.
        streams = multi_writer_streams(n_writers=3, n_shapes=3, rounds=2,
                                       seed=41, tuples_per_relation=10)
        expected = []
        for stream in streams:
            with CountingSession(maintainer_budget_bytes=None) as single:
                expected.append(result_counts(single.run_stream(stream)))
        with MultiWriterSession(shards=2, shard_mode="thread",
                                maintainer_budget_bytes=2048) as sharded:
            outcomes = sharded.run_streams(streams)
            stats = sharded.stats()
        assert [result_counts(outcome) for outcome in outcomes] == expected
        pools = [shard["maintainers"] for shard in stats["per_shard"]]
        assert sum(pool["spilled"] for pool in pools) > 0
        assert sum(pool["restored"] for pool in pools) > 0
        for pool in pools:
            assert pool["budget_bytes"] == 2048

    def test_single_writer_session_takes_budget_too(self):
        database = path_database()
        with CountingSession(databases={"main": database},
                             maintainer_budget_bytes=10 ** 9) as session:
            session.count(CountRequest(PATH, "main"))
            pool_stats = session.stats()["maintainers"]
        assert pool_stats["budget_bytes"] == 10 ** 9
        assert pool_stats["resident_bytes"] > 0
        assert pool_stats["peak_resident_bytes"] >= \
            pool_stats["resident_bytes"]


# ----------------------------------------------------------------------
# The sharded session CLI
# ----------------------------------------------------------------------
class TestShardedSessionCLI:
    def test_multi_stream_session_cli(self, tmp_path, capsys):
        prefix = str(tmp_path / "jobs")
        paths = write_multi_writer_streams(prefix, n_writers=2, n_shapes=2,
                                           rounds=2, seed=7,
                                           tuples_per_relation=8)
        output = str(tmp_path / "results.json")
        code = cli_main(["session", *paths, "--shards", "2",
                         "--maintainer-budget-mb", "0.01",
                         "--output", output])
        assert code == 0
        out = capsys.readouterr().out
        assert "writer stream(s)" in out
        assert "shards    : 2" in out
        with open(output) as handle:
            payload = json.load(handle)
        assert any(entry.get("op") == "count" for entry in payload)
        assert all(entry["label"].startswith(("w0/", "w1/"))
                   for entry in payload)

    def test_single_stream_keeps_single_writer_path(self, tmp_path, capsys):
        from repro.workloads.session_stream import write_session_stream

        path = str(tmp_path / "jobs.jsonl")
        write_session_stream(path, n_shapes=2, rounds=1, seed=3,
                             tuples_per_relation=8)
        code = cli_main(["session", path])
        assert code == 0
        out = capsys.readouterr().out
        assert "maintainers:" in out  # the single-writer stats shape

    def test_explicit_shards_with_one_stream(self, tmp_path, capsys):
        from repro.workloads.session_stream import write_session_stream

        path = str(tmp_path / "jobs.jsonl")
        write_session_stream(path, n_shapes=2, rounds=1, seed=3,
                             tuples_per_relation=8)
        code = cli_main(["session", path, "--shards", "2"])
        assert code == 0
        assert "shards    : 2" in capsys.readouterr().out
