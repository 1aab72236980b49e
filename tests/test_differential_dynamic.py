"""Differential update-replay harness (ISSUES 3, 4 and 5).

Random update streams — inserts, deletes, adversarial orders, deletes of
absent rows — are replayed through three independent counting paths:

1. :class:`~repro.service.CountingSession` (the streaming front end,
   maintained counts plus engine fallbacks),
2. a bare :class:`~repro.dynamic.IncrementalCounter` (the join-tree DP),
3. from-scratch ``count_answers`` over the chain of immutable databases,

and all three must agree **at every step** — in inline, thread, and
process execution modes, with maintenance both enabled and disabled.

The networked leg (PR 8) widens the harness across the socket fabric:
the same streams through a ``shard_mode='tcp'``
:class:`~repro.service.MultiWriterSession` against in-process
:class:`~repro.service.net.ShardServer`\\ s must agree bit-for-bit with
every in-process mode — including with a fault-injection proxy
dropping, duplicating, corrupting, and delaying frames (exactly-once
under retries), and across a mid-stream server kill recovered by
:class:`~repro.service.net.ShardDirectory` failover plus a graceful
handoff, with no job lost or doubled.

The cross-shard commutation property (ISSUE 4) rides the same harness:
*any* interleaving of multi-writer streams over distinct databases,
pushed through a sharded :class:`~repro.service.MultiWriterSession`,
must yield per-database results identical to per-database sequential
replay — including with real concurrent producer threads and with a
tiny maintainer budget forcing spill/restore mid-stream.

The reduced-maintenance leg (ISSUE 5) widens the harness to *quantified*
and *cyclic* bounded-#htw shapes — the class
:class:`~repro.dynamic.ReducedMaintainer` serves through the Theorem 3.7
reduction: a bare reduced maintainer, the session's maintained path, a
from-scratch ``count_answers``, and brute force must agree at every step
of random update streams, in every shard mode and under a spill-forcing
maintainer budget.
"""

from __future__ import annotations

import random

import pytest

from repro.counting.engine import count_answers
from repro.db import Database
from repro.dynamic import (
    Delete,
    IncrementalCounter,
    Insert,
    apply_update,
)
from repro.exceptions import DatabaseError
from repro.query import parse_query
from repro.query.canonical import random_renaming
from repro.service import (
    AttachDatabase,
    CountingSession,
    CountRequest,
    MultiWriterSession,
    UpdateRequest,
)
from repro.service.net import (
    FaultPlan,
    FaultyTransport,
    ShardDirectory,
    ShardServer,
)
from repro.workloads.graph_patterns import heavy_triangle_database
from repro.workloads.multi_writer import multi_writer_streams

QUERY = parse_query("ans(A, B, C) :- r(A, B), s(B, C)")
#: A shape the maintainer cannot serve (alpha-cyclic triangle), pinning
#: the engine-fallback path in every replay.
CYCLIC = parse_query("ans(A, B, C) :- r(A, B), s(B, C), r(C, A)")


def random_database(rng: random.Random, size: int = 8,
                    domain: int = 4) -> Database:
    return Database.from_dict({
        "r": list({(rng.randrange(domain), rng.randrange(domain))
                   for _ in range(size)}),
        "s": list({(rng.randrange(domain), rng.randrange(domain))
                   for _ in range(size)}),
    })


def random_update(rng: random.Random, database: Database, domain: int = 4):
    """A valid random update against *database*'s current contents."""
    relation = rng.choice(["r", "s"])
    existing = sorted(database[relation].rows, key=repr)
    if existing and rng.random() < 0.45:
        return Delete(relation, rng.choice(existing))
    while True:
        row = (rng.randrange(domain), rng.randrange(domain))
        if row not in database[relation]:
            return Insert(relation, row)


def replay_stream(seed: int, steps: int = 25, **session_kwargs):
    """Replay one random stream through all three paths, step by step."""
    rng = random.Random(seed)
    database = random_database(rng)
    with CountingSession(databases={"main": database},
                         **session_kwargs) as session:
        counter = IncrementalCounter(QUERY, database)
        for step in range(steps):
            update = random_update(rng, database)
            database = apply_update(database, update)
            counter.apply(update)
            session.update("main", update)
            # A renamed query keeps the multi-query sharing path honest.
            query = random_renaming(QUERY, seed=rng.randrange(2 ** 30))
            session_count = session.count(
                CountRequest(query, "main", label=f"step{step}")
            ).count
            scratch = count_answers(QUERY, database).count
            assert counter.count == scratch, (
                f"seed {seed} step {step}: maintainer {counter.count} "
                f"!= recount {scratch}"
            )
            assert session_count == scratch, (
                f"seed {seed} step {step}: session {session_count} "
                f"!= recount {scratch}"
            )


class TestDifferentialReplayInline:
    @pytest.mark.parametrize("seed", range(6))
    def test_session_maintainer_and_recount_agree(self, seed):
        replay_stream(seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_agreement_with_maintenance_disabled(self, seed):
        replay_stream(seed, maintain=False)

    def test_insert_then_delete_everything(self):
        """Adversarial order: drain a relation to empty and refill it."""
        database = Database.from_dict({"r": [(1, 2)], "s": [(2, 3)]})
        with CountingSession(databases={"main": database}) as session:
            counter = IncrementalCounter(QUERY, database)
            stream = [
                Delete("r", (1, 2)), Insert("r", (1, 2)),
                Delete("s", (2, 3)), Delete("r", (1, 2)),
                Insert("r", (4, 5)), Insert("s", (5, 6)),
            ]
            for update in stream:
                database = apply_update(database, update)
                counter.apply(update)
                session.update("main", update)
                scratch = count_answers(QUERY, database).count
                assert counter.count == scratch
                assert session.count(
                    CountRequest(QUERY, "main")).count == scratch

    def test_delete_of_absent_row_is_rejected_atomically(self):
        """An invalid update raises and perturbs *nothing* downstream."""
        database = Database.from_dict({"r": [(1, 10)], "s": [(10, 5)]})
        with CountingSession(databases={"main": database}) as session:
            before = session.count(CountRequest(QUERY, "main")).count
            with pytest.raises(DatabaseError):
                session.update("main", Delete("r", (9, 9)))
            with pytest.raises(DatabaseError):
                session.update("main", Insert("r", (1, 10)))  # duplicate
            assert session.database("main") is database
            assert session.count(CountRequest(QUERY, "main")).count == before
            assert before == count_answers(QUERY, database).count


class TestDifferentialReplayPooled:
    """The same agreement through the worker-pool stream path."""

    def _stream_jobs(self, seed: int, steps: int = 12):
        rng = random.Random(seed)
        database = random_database(rng)
        jobs = []
        databases = {"main": database}
        expected = []
        current = database
        for _ in range(steps):
            update = random_update(rng, current)
            current = apply_update(current, update)
            jobs.append(UpdateRequest("main", update))
            query = random_renaming(QUERY, seed=rng.randrange(2 ** 30))
            jobs.append(CountRequest(query, "main"))
            jobs.append(CountRequest(CYCLIC, "main"))
            expected.append(count_answers(QUERY, current).count)
            expected.append(count_answers(CYCLIC, current).count)
        return databases, jobs, expected

    @pytest.mark.parametrize("mode,workers", [
        ("inline", 0), ("thread", 2), ("process", 2),
    ])
    def test_stream_matches_sequential_recounts(self, mode, workers):
        databases, jobs, expected = self._stream_jobs(seed=7)
        with CountingSession(databases=databases, mode=mode,
                             workers=workers) as session:
            results = session.run_stream(jobs)
        counts = [result.count for result in results
                  if hasattr(result, "count")]
        assert counts == expected

    def test_modes_agree_job_for_job(self):
        databases_a, jobs, _ = self._stream_jobs(seed=11)
        outcomes = {}
        for mode, workers in (("inline", 0), ("thread", 2), ("process", 2)):
            databases, stream, _ = self._stream_jobs(seed=11)
            with CountingSession(databases=databases, mode=mode,
                                 workers=workers) as session:
                results = session.run_stream(stream)
            outcomes[mode] = [result.count for result in results
                              if hasattr(result, "count")]
        assert outcomes["inline"] == outcomes["thread"] == outcomes["process"]


# ----------------------------------------------------------------------
# Cross-shard commutation (ISSUE 4)
# ----------------------------------------------------------------------
def sequential_replay(streams):
    """Per-stream counts from per-database sequential replay (each
    stream owns its databases, so one single-writer session per stream
    is exactly the per-database sequential order)."""
    expected = []
    for stream in streams:
        with CountingSession(maintainer_budget_bytes=None) as session:
            results = session.run_stream(stream)
        expected.append([r.count for r in results if hasattr(r, "count")])
    return expected


def random_interleaving(streams, rng):
    """One global order drawing the next job from a random stream while
    preserving every stream's internal order; returns ``(jobs,
    origins)``."""
    cursors = [0] * len(streams)
    interleaved, origins = [], []
    while True:
        available = [i for i, stream in enumerate(streams)
                     if cursors[i] < len(stream)]
        if not available:
            return interleaved, origins
        index = rng.choice(available)
        interleaved.append(streams[index][cursors[index]])
        origins.append(index)
        cursors[index] += 1


class TestCrossShardCommutation:
    """Any interleaving of multi-writer streams over distinct databases
    yields results identical to per-database sequential replay."""

    def _streams(self, seed):
        return multi_writer_streams(
            n_writers=3, n_shapes=2, rounds=2, seed=seed,
            tuples_per_relation=8, domain_size=5,
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_random_interleavings_commute(self, seed, shards):
        streams = self._streams(seed)
        expected = sequential_replay(streams)
        rng = random.Random(seed * 31 + shards)
        interleaved, origins = random_interleaving(streams, rng)
        with MultiWriterSession(shards=shards,
                                shard_mode="thread") as session:
            results = session.run_stream(interleaved)
        observed = [[] for _ in streams]
        for origin, result in zip(origins, results):
            if hasattr(result, "count"):
                observed[origin].append(result.count)
        assert observed == expected

    @pytest.mark.parametrize("shard_mode", ["thread", "process"])
    def test_concurrent_producers_commute(self, shard_mode):
        """The same property under genuinely concurrent producer
        threads (one per writer stream) — the nondeterministic global
        interleave must still replay per-database sequentially."""
        streams = self._streams(seed=99)
        expected = sequential_replay(streams)
        with MultiWriterSession(shards=2,
                                shard_mode=shard_mode) as session:
            outcomes = session.run_streams(streams)
        observed = [[r.count for r in outcome if hasattr(r, "count")]
                    for outcome in outcomes]
        assert observed == expected

    def test_commutation_survives_forced_spilling(self):
        """A tiny maintainer budget spills and restores DPs throughout
        the interleave; the commutation property must be unaffected."""
        streams = self._streams(seed=5)
        expected = sequential_replay(streams)
        rng = random.Random(13)
        interleaved, origins = random_interleaving(streams, rng)
        with MultiWriterSession(shards=2, shard_mode="thread",
                                maintainer_budget_bytes=1) as session:
            results = session.run_stream(interleaved)
        observed = [[] for _ in streams]
        for origin, result in zip(origins, results):
            if hasattr(result, "count"):
                observed[origin].append(result.count)
        assert observed == expected


# ----------------------------------------------------------------------
# Networked leg (PR 8): the same agreements across the socket fabric
# ----------------------------------------------------------------------
class TestDifferentialTCPLeg:
    """A 2-shard TCP session must be indistinguishable — result for
    result, step for step — from the in-process modes, with and without
    injected faults, and across server death."""

    def _streams(self, seed):
        return multi_writer_streams(
            n_writers=3, n_shapes=2, rounds=2, seed=seed,
            tuples_per_relation=8, domain_size=5,
        )

    @pytest.mark.parametrize("seed", range(2))
    def test_tcp_session_commutes_with_sequential_replay(self, seed):
        streams = self._streams(seed)
        expected = sequential_replay(streams)
        with ShardServer(shards=1) as a, ShardServer(shards=1) as b:
            with MultiWriterSession(
                    shards=2, shard_mode="tcp",
                    shard_addrs=[a.address, b.address]) as session:
                outcomes = session.run_streams(streams)
                assert session.stats()["plan_cache_scope"] == "remote"
        observed = [[r.count for r in outcome if hasattr(r, "count")]
                    for outcome in outcomes]
        assert observed == expected

    def test_every_shard_mode_agrees_job_for_job_including_tcp(self):
        streams = self._streams(seed=3)
        interleaved, _ = random_interleaving(streams, random.Random(41))

        def run(shard_mode, **kwargs):
            with MultiWriterSession(shards=2, shard_mode=shard_mode,
                                    **kwargs) as session:
                return [getattr(result, "count", None)
                        for result in session.run_stream(interleaved)]

        with ShardServer(shards=1) as a, ShardServer(shards=1) as b:
            tcp = run("tcp", shard_addrs=[a.address, b.address])
        assert tcp == run("inline") == run("thread") == run("process")

    def test_tcp_replay_is_bit_identical_under_chaos(self, repro_env_sandbox):
        """Frames dropped, duplicated, corrupted, and delayed between
        the session and both servers: retries + server-side dedup must
        keep every replay step's answer identical to the inline oracle
        (exactly-once — a double-applied insert would change counts)."""
        import os
        os.environ["REPRO_NET_TIMEOUT_MS"] = "500"
        os.environ["REPRO_NET_RETRIES"] = "10"
        streams = self._streams(seed=5)
        interleaved, _ = random_interleaving(streams, random.Random(7))
        with MultiWriterSession(shards=2,
                                shard_mode="inline") as oracle_session:
            oracle = [getattr(result, "count", None) for result
                      in oracle_session.run_stream(interleaved)]
        plan = FaultPlan(drop_every=13, duplicate_every=11,
                        corrupt_every=17, delay_every=19, delay_ms=5.0)
        with ShardServer(shards=1) as a, ShardServer(shards=1) as b:
            with FaultyTransport(a.address, plan) as proxy_a, \
                    FaultyTransport(b.address, plan) as proxy_b:
                with MultiWriterSession(
                        shards=2, shard_mode="tcp",
                        shard_addrs=[proxy_a.address,
                                     proxy_b.address]) as session:
                    observed = [getattr(result, "count", None) for result
                                in session.run_stream(interleaved)]
                injected = proxy_a.counters, proxy_b.counters
        assert observed == oracle
        # The chaos must actually have happened for this to mean much.
        assert sum(counters["dropped"] + counters["duplicated"]
                   + counters["corrupted"]
                   for counters in injected) >= 1

    def test_midstream_kill_then_handoff_loses_and_doubles_nothing(self):
        """One stream, three owners: the primary dies mid-stream
        (directory failover rebuilds from origin + journal on the
        standby), then the database is gracefully handed to a third
        server — and every count still matches the from-scratch
        oracle."""
        rng = random.Random(23)
        database = random_database(rng)
        jobs, expected = [AttachDatabase("main", database)], [None]
        current = database
        for _ in range(12):
            update = random_update(rng, current)
            current = apply_update(current, update)
            jobs.append(UpdateRequest("main", update))
            expected.append(None)
            jobs.append(CountRequest(QUERY, "main"))
            expected.append(count_answers(QUERY, current).count)
        with ShardServer(shards=1) as standby, \
                ShardServer(shards=1) as third:
            doomed = ShardServer(shards=1)
            directory = ShardDirectory([doomed.address],
                                       standbys=[standby.address],
                                       timeout_ms=300, retries=1)
            third_of = len(jobs) // 3
            futures = [directory.submit(job) for job in jobs[:third_of]]
            [future.result() for future in futures]
            doomed.kill()  # abrupt: all server-side state is gone
            futures += [directory.submit(job)
                        for job in jobs[third_of:2 * third_of]]
            [future.result() for future in futures]
            move = directory.handoff("main", third.address)
            assert move["moved"] and move["to"] == third.address
            futures += [directory.submit(job)
                        for job in jobs[2 * third_of:]]
            observed = [getattr(future.result(), "count", None)
                        for future in futures]
            assert observed == expected
            stats = directory.stats()
            assert stats["failovers"] == 1 and stats["handoffs"] == 1
            assert stats["assignment"]["main"] == third.address
            directory.close()
            doomed.close()


# ----------------------------------------------------------------------
# Reduced-maintenance leg (ISSUE 5): quantified and cyclic shapes
# ----------------------------------------------------------------------
from repro.counting.brute_force import count_brute_force  # noqa: E402
from repro.dynamic import ReducedMaintainer  # noqa: E402

#: Acyclic but quantified (C is existential): the direct DP refuses it,
#: the Theorem 3.7 reduction maintains it at width 1.
QUANTIFIED = parse_query("ans(A, B) :- r(A, B), s(B, C)")
#: Quantifier-free but cyclic (a triangle): width-2 reducible.
TRIANGLE = parse_query("ans(A, B, C) :- r(A, B), s(B, C), t(C, A)")
REDUCED_SHAPES = (QUANTIFIED, TRIANGLE)


def random_database3(rng: random.Random, size: int = 8,
                     domain: int = 4) -> Database:
    return Database.from_dict({
        name: list({(rng.randrange(domain), rng.randrange(domain))
                    for _ in range(size)})
        for name in ("r", "s", "t")
    })


def random_update3(rng: random.Random, database: Database, domain: int = 4):
    relation = rng.choice(["r", "s", "t"])
    existing = sorted(database[relation].rows, key=repr)
    if existing and rng.random() < 0.45:
        return Delete(relation, rng.choice(existing))
    while True:
        row = (rng.randrange(domain), rng.randrange(domain))
        if row not in database[relation]:
            return Insert(relation, row)


def replay_reduced_stream(seed: int, steps: int = 18, **session_kwargs):
    """One random stream, four independent paths, agreement per step."""
    rng = random.Random(seed)
    database = random_database3(rng)
    with CountingSession(databases={"main": database},
                         **session_kwargs) as session:
        maintainers = [
            ReducedMaintainer(query, database) for query in REDUCED_SHAPES
        ]
        for step in range(steps):
            update = random_update3(rng, database)
            database = apply_update(database, update)
            session.update("main", update)
            for query, maintainer in zip(REDUCED_SHAPES, maintainers):
                maintainer.apply(update)
                variant = random_renaming(query,
                                          seed=rng.randrange(2 ** 30))
                session_count = session.count(
                    CountRequest(variant, "main",
                                 label=f"{query.name}/step{step}")
                ).count
                scratch = count_answers(query, database).count
                brute = count_brute_force(query, database)
                bare = maintainer.count
                assert scratch == brute, (
                    f"seed {seed} step {step} {query.name}: engine "
                    f"{scratch} != brute force {brute}"
                )
                assert bare == brute, (
                    f"seed {seed} step {step} {query.name}: reduced "
                    f"maintainer {bare} != brute force {brute}"
                )
                assert session_count == brute, (
                    f"seed {seed} step {step} {query.name}: session "
                    f"{session_count} != brute force {brute}"
                )
        return session.stats()


class TestDifferentialReducedMaintenance:
    @pytest.mark.parametrize("seed", range(5))
    def test_reduced_paths_agree_with_recount_and_brute_force(self, seed):
        stats = replay_reduced_stream(seed)
        assert stats["reduced_counts"] == stats["maintained_counts"] > 0

    @pytest.mark.parametrize("seed", range(2))
    def test_agreement_under_spill_forcing_budget(self, seed):
        """A one-byte budget forces checkpoint spill/restore of the
        reduced maintainers on practically every read."""
        stats = replay_reduced_stream(seed, maintainer_budget_bytes=1)
        assert stats["maintainers"]["spilled"] > 0
        assert stats["reduced_counts"] > 0

    def test_agreement_with_reduction_disabled(self):
        """maintain_reduced=False: same answers, engine path."""
        stats = replay_reduced_stream(7, maintain_reduced=False)
        assert stats["reduced_counts"] == 0
        assert stats["engine_counts"] > 0

    def _reduced_stream_jobs(self, seed: int, steps: int = 10):
        rng = random.Random(seed)
        database = random_database3(rng)
        jobs = []
        expected = []
        current = database
        for _ in range(steps):
            update = random_update3(rng, current)
            current = apply_update(current, update)
            jobs.append(UpdateRequest("main", update))
            for query in REDUCED_SHAPES:
                variant = random_renaming(query,
                                          seed=rng.randrange(2 ** 30))
                jobs.append(CountRequest(variant, "main"))
                expected.append(count_brute_force(query, current))
        return database, jobs, expected

    @pytest.mark.parametrize("shard_mode", ["inline", "thread", "process"])
    def test_sharded_reduced_stream_matches_brute_force(self, shard_mode):
        """The maintained reduced path through every shard mode."""
        database, jobs, expected = self._reduced_stream_jobs(seed=13)
        with MultiWriterSession(databases={"main": database}, shards=2,
                                shard_mode=shard_mode) as session:
            results = session.run_stream(jobs)
            stats = session.stats()
        counts = [r.count for r in results if hasattr(r, "count")]
        assert counts == expected
        assert stats["reduced_counts"] > 0

    @pytest.mark.parametrize("shard_mode", ["inline", "thread", "process"])
    def test_sharded_reduced_stream_spill_forced(self, shard_mode):
        """Same property with a one-byte per-shard maintainer budget."""
        database, jobs, expected = self._reduced_stream_jobs(seed=29,
                                                             steps=8)
        with MultiWriterSession(databases={"main": database}, shards=2,
                                shard_mode=shard_mode,
                                maintainer_budget_bytes=1) as session:
            results = session.run_stream(jobs)
            stats = session.stats()
        counts = [r.count for r in results if hasattr(r, "count")]
        assert counts == expected
        assert stats["reduced_counts"] > 0


# ----------------------------------------------------------------------
# Operation-counting leg: dirty-read repair is O(delta frontier), not
# O(resident rows)
# ----------------------------------------------------------------------
class TestReducedRepairIsFrontierBounded:
    """The tentpole's complexity contract, asserted on counters.

    `ReducedMaintainer.repair_stats()` exposes the delta reducer's work
    counters (rows visited by frontier propagation, membership rows
    folded, support-key flips) and `IncrementalCounter.repair_rows`
    counts the inner DP's row re-evaluations.  On a large resident
    instance, a single-tuple update followed by a read must grow those
    counters by a frontier-sized amount — orders of magnitude below the
    resident bag rows the old per-read full reduction visited — while a
    forced reseed (the checkpoint-restore path) demonstrably pays the
    resident-sized cost exactly once.
    """

    #: Identity relations on 600 nodes: every node forms the triangle
    #: (i, i, i), so each bag keeps ~600 resident survivors while a
    #: fresh off-domain edge's frontier is a handful of keys.
    NODES = 600

    def _large_instance(self):
        n = self.NODES
        loops = [(i, i) for i in range(n)]
        database = Database.from_dict({"r": loops, "s": loops, "t": loops})
        return ReducedMaintainer(TRIANGLE, database), database

    def test_repair_work_bounded_by_frontier_not_residency(self):
        maintainer, database = self._large_instance()
        assert maintainer.count == count_answers(TRIANGLE, database).count
        resident = sum(len(bag) for bag in maintainer.witness_counts())
        assert resident >= self.NODES  # the instance really is large
        # Frontier work a single-tuple update may cost at the next
        # read: a small constant, independent of `resident`.
        bound = 64
        assert bound * 4 < resident
        inner = maintainer._inner
        for round_index in range(12):
            before_ops = maintainer.repair_stats()
            before_inner = inner.repair_rows
            fresh = self.NODES + round_index
            update = Insert("r", (fresh, fresh % 7))
            database = apply_update(database, update)
            maintainer.apply(update)
            count = maintainer.count  # the dirty read under test
            after_ops = maintainer.repair_stats()
            touched = (
                (after_ops["rows_touched"] - before_ops["rows_touched"])
                + (after_ops["applied_rows"] - before_ops["applied_rows"])
            )
            assert touched <= bound, (
                f"round {round_index}: repair visited {touched} rows "
                f"({resident} resident) — not frontier-bounded"
            )
            assert inner.repair_rows - before_inner <= bound
            assert count == count_answers(TRIANGLE, database).count

    def test_reseed_pays_residency_once_then_frontier_again(self):
        maintainer, database = self._large_instance()
        resident = sum(len(bag) for bag in maintainer.witness_counts())
        update = Insert("r", (self.NODES + 1, 3))
        database = apply_update(database, update)
        maintainer.apply(update)
        maintainer.rebuild_consistency()  # what a checkpoint restore does
        assert maintainer.count == count_answers(TRIANGLE, database).count
        stats = maintainer.repair_stats()
        # The reseed folded every resident row into the fresh reducer.
        assert stats["applied_rows"] >= resident
        # After the one-time reseed, repair is frontier-priced again.
        before = maintainer.repair_stats()
        update = Insert("r", (self.NODES + 2, 5))
        database = apply_update(database, update)
        maintainer.apply(update)
        assert maintainer.count == count_answers(TRIANGLE, database).count
        after = maintainer.repair_stats()
        assert (after["rows_touched"] - before["rows_touched"]
                + after["applied_rows"] - before["applied_rows"]) <= 64


# ----------------------------------------------------------------------
# Approx leg (deadline-aware serving): the estimate's stated honesty
# interval must contain the exact count at every replay step
# ----------------------------------------------------------------------
class TestDifferentialApproxLeg:
    """Widen the harness with an approximate path: at every step of a
    random update stream, the approx tier's ``(estimate, epsilon,
    delta)`` answer is checked against the exact recount — the exact
    count must lie within the stated epsilon (deterministic seeds make
    this a fixed outcome, not a flaky statistical one) — and all shard
    modes must produce bit-identical estimates."""

    def _approx_stream(self, seed: int, steps: int = 8):
        rng = random.Random(seed)
        database = random_database3(rng)
        jobs, expected = [], []
        current = database
        for _ in range(steps):
            update = random_update3(rng, current)
            current = apply_update(current, update)
            jobs.append(UpdateRequest("main", update))
            for query in REDUCED_SHAPES:
                variant = random_renaming(query,
                                          seed=rng.randrange(2 ** 30))
                jobs.append(CountRequest(variant, "main", method="approx",
                                         error_budget=0.05))
                expected.append(count_answers(query, current).count)
        return database, jobs, expected

    @pytest.mark.parametrize("shard_mode", ["inline", "thread", "process"])
    def test_approx_within_stated_epsilon_every_step(self, shard_mode):
        database, jobs, expected = self._approx_stream(seed=17)
        with MultiWriterSession(databases={"main": database}, shards=2,
                                shard_mode=shard_mode,
                                maintain=False) as session:
            results = session.run_stream(jobs)
        counted = [r for r in results if hasattr(r, "count")]
        assert len(counted) == len(expected)
        for step, (result, exact) in enumerate(zip(counted, expected)):
            assert result.strategy == "approx"
            details = result.details
            assert details["method"] == "approx"
            assert abs(details["estimate"] - exact) <= details["epsilon"], (
                f"step {step}: estimate {details['estimate']} misses exact "
                f"{exact} by more than epsilon {details['epsilon']}"
            )

    def test_shard_modes_agree_bit_for_bit(self):
        """Deterministic seeds: inline, thread, and process shards give
        identical estimates for identical streams."""
        outcomes = {}
        for shard_mode in ("inline", "thread", "process"):
            database, jobs, _ = self._approx_stream(seed=23, steps=5)
            with MultiWriterSession(databases={"main": database}, shards=2,
                                    shard_mode=shard_mode,
                                    maintain=False) as session:
                results = session.run_stream(jobs)
            outcomes[shard_mode] = [
                (r.count, r.details["estimate"], r.details["samples"])
                for r in results if hasattr(r, "count")
            ]
        assert outcomes["inline"] == outcomes["thread"] == \
            outcomes["process"]

    def test_deadline_degrades_heavy_not_cheap(self):
        """A replayed stream mixing a heavy shape (deadline-degraded to
        approx) and a cheap one (stays exact) — the degradation is
        per-request honesty, never a blanket downgrade."""
        # Exact: ~6x the deadline; its own seed, as in
        # test_session_admission.
        heavy = heavy_triangle_database(seed=2)
        cheap_q = parse_query("ans(A, B) :- r(A, B)")
        current = heavy
        with MultiWriterSession(databases={"h": heavy}, shards=1,
                                shard_mode="inline",
                                maintain=False) as session:
            for step in range(4):
                update = Insert("r", (1000 + step, step))
                current = apply_update(current, update)
                session.submit(UpdateRequest("h", update)).result()
                degraded = session.submit(CountRequest(
                    TRIANGLE, "h", deadline_ms=50.0,
                )).result()
                exact = count_answers(TRIANGLE, current).count
                assert degraded.strategy == "approx"
                assert abs(degraded.details["estimate"] - exact) <= \
                    degraded.details["epsilon"]
                kept = session.submit(CountRequest(
                    cheap_q, "h", deadline_ms=50.0,
                )).result()
                assert kept.strategy != "approx"
                assert kept.count == len(current["r"].rows)
