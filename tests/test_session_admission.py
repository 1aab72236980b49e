"""Per-shard admission control, backpressure, and shard-death accounting.

:class:`~repro.service.MultiWriterSession` with ``max_pending`` bounds
each shard's in-flight queue: saturated submissions are rejected with a
``retry_after_ms`` hint, the stream runners sleep it out and resubmit,
and dying shard workers are *counted* (``close_errors``, dead-shard
stats stubs) instead of silently swallowed.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.db import Database
from repro.query import parse_query
from repro.service import (
    CountRequest,
    MultiWriterSession,
    ShardSaturatedError,
    ShardWorker,
    UpdateRequest,
)
from repro.dynamic import Insert
from repro.workloads.graph_patterns import heavy_triangle_database

QUERY = parse_query("ans(A, B) :- r(A, B)")
DB = Database.from_dict({"r": [(1, 2), (2, 3)]})


def _blockable_session(**kwargs):
    """A one-shard thread session whose first job blocks on an event."""
    session = MultiWriterSession({"d": DB}, shards=1, shard_mode="thread",
                                 maintain=False, **kwargs)
    release = threading.Event()
    blocker = session._handles[0]._pool.submit(release.wait)
    return session, release, blocker


class TestAdmissionControl:
    def test_saturated_shard_rejects_with_retry_hint(self):
        session, release, _ = _blockable_session(max_pending=2)
        try:
            futures = [session.submit(CountRequest(QUERY, "d"))
                       for _ in range(2)]
            with pytest.raises(ShardSaturatedError) as caught:
                session.submit(CountRequest(QUERY, "d"))
            assert caught.value.shard == 0
            assert caught.value.pending == 2
            assert caught.value.retry_after_ms > 0
            release.set()
            assert [f.result().count for f in futures] == [2, 2]
            # Slots freed: admission recovers.
            assert session.submit(CountRequest(QUERY, "d")).result().count \
                == 2
            stats = session.stats()
            assert stats["rejected_submissions"] == 1
            assert stats["pending"] == [0]
            assert stats["max_pending"] == 2
        finally:
            release.set()
            session.close()

    def test_unbounded_by_default(self):
        session, release, _ = _blockable_session()
        try:
            futures = [session.submit(CountRequest(QUERY, "d"))
                       for _ in range(50)]
            release.set()
            assert all(f.result().count == 2 for f in futures)
            assert session.stats()["rejected_submissions"] == 0
        finally:
            release.set()
            session.close()

    def test_invalid_max_pending_rejected(self):
        with pytest.raises(ValueError):
            MultiWriterSession(shards=1, max_pending=0)

    def test_run_stream_backpressures_instead_of_failing(self):
        """Producers sleep out the retry hint; every job completes and
        in order."""
        jobs = []
        for i in range(10):
            jobs.append(UpdateRequest("d", Insert("r", (100 + i, i))))
            jobs.append(CountRequest(QUERY, "d"))
        with MultiWriterSession({"d": DB}, shards=1, shard_mode="thread",
                                maintain=False, max_pending=1) as session:
            results = session.run_stream(jobs)
        counts = [r.count for r in results if hasattr(r, "count")]
        assert counts == list(range(3, 13))

    def test_concurrent_producers_backpressure(self):
        streams = [
            [CountRequest(QUERY, "d") for _ in range(8)],
            [CountRequest(QUERY, "d") for _ in range(8)],
        ]
        with MultiWriterSession({"d": DB}, shards=2, shard_mode="thread",
                                maintain=False, max_pending=1) as session:
            outcomes = session.run_streams(streams)
        assert all(r.count == 2 for outcome in outcomes for r in outcome)

    def test_retry_after_uses_latency_once_observed(self):
        session, release, _ = _blockable_session(max_pending=1)
        try:
            # One completed job seeds the latency EWMA.
            release.set()
            session.submit(CountRequest(QUERY, "d")).result()
            stall = threading.Event()
            session._handles[0]._pool.submit(stall.wait)
            session.submit(CountRequest(QUERY, "d"))
            with pytest.raises(ShardSaturatedError) as caught:
                session.submit(CountRequest(QUERY, "d"))
            assert caught.value.retry_after_ms >= 1.0
            stall.set()
        finally:
            release.set()
            session.close()


class TestShardDeathAccounting:
    def test_close_error_counted_not_swallowed(self):
        session = MultiWriterSession({"d": DB}, shards=1,
                                     shard_mode="thread", maintain=False)
        boom = RuntimeError("shard core died during close")

        def failing_close():
            raise boom

        session._handles[0].target.close = failing_close
        stats_before = session.stats()
        assert stats_before["close_errors"] == 0
        session.close()
        handle = session._handles[0]
        assert handle.close_errors == 1
        assert "shard core died" in handle.last_close_error

    def test_dead_tcp_shard_stubs_stats(self, repro_env_sandbox):
        import os

        from repro.service.net import ShardServer

        os.environ["REPRO_NET_TIMEOUT_MS"] = "200"
        os.environ["REPRO_NET_RETRIES"] = "0"
        with ShardServer(shards=1) as survivor:
            doomed = ShardServer(shards=1)
            # Shard i lives on address i % 2: shard1 on the doomed one.
            session = MultiWriterSession(
                {"d": DB}, shards=2, maintain=False,
                shard_addrs=[survivor.address, doomed.address],
            )
            try:
                session.submit(CountRequest(QUERY, "d")).result()
                # Both remote shards exist before the server dies.
                assert not any(shard.get("dead") for shard
                               in session.stats()["per_shard"])
                doomed.kill()
                stats = session.stats()
                dead = [s for s in stats["per_shard"] if s.get("dead")]
                assert len(dead) == 1
                stub = dead[0]
                assert stub["shard"] == "shard1"
                assert stub["databases"] == []
                assert stub["engine_counts"] == 0
                assert stub["maintainers"]["resident_bytes"] == 0
                # Totals still aggregate (zeros from the stub).
                assert stats["engine_counts"] >= 0
            finally:
                session.close()
            assert stats["close_errors"] == 0
            assert session.stats()["close_errors"] == 1
            assert session._handles[1].close_errors == 1
            assert session._handles[1].last_close_error


class TestDeadlineUnderLoad:
    def test_queue_wait_charged_against_deadline(self):
        """A request stuck behind a stalled shard arrives at the engine
        with its remaining (clamped) budget, not the original one —
        the heavy shape degrades to approx rather than blowing the
        deadline further."""
        # Exact: ~6x the deadline.  Its own seed: an equal-content copy
        # of another module's fixture would make the sampler's
        # search-space memo compare row sets in full on every lookup.
        heavy = heavy_triangle_database(seed=1)
        triangle = parse_query("ans(A, B, C) :- r(A, B), s(B, C), t(C, A)")
        session = MultiWriterSession({"h": heavy}, shards=1,
                                     shard_mode="thread", maintain=False)
        try:
            stall = threading.Event()
            session._handles[0]._pool.submit(stall.wait)
            future = session.submit(
                CountRequest(triangle, "h", deadline_ms=50.0)
            )
            time.sleep(0.02)  # the request waits ~20ms in queue
            stall.set()
            result = future.result()
            assert result.strategy == "approx"
            # The engine saw a shrunken deadline.
            assert result.details["deadline_ms"] < 50.0
        finally:
            stall.set()
            session.close()


class _Idle:
    def close(self) -> None:
        pass


class TestShardWorkerLane:
    def test_concurrent_calls_never_overrun_the_bound(self):
        """Many submitters race one lane: the depth never exceeds the
        bound, and every call is either admitted or counted rejected."""
        worker = ShardWorker(_Idle(), 0, max_pending=3)
        deepest = []
        admitted = []
        start = threading.Barrier(8)

        def submitter() -> None:
            start.wait(timeout=10)
            for _ in range(200):
                try:
                    admitted.append(worker.call(
                        lambda: deepest.append(worker.pending)))
                except ShardSaturatedError as saturated:
                    assert saturated.pending == 3

        threads = [threading.Thread(target=submitter) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for future in admitted:
            future.result(timeout=10)
        worker.close()
        assert len(admitted) + worker.rejected == 8 * 200
        assert 1 <= max(deepest) <= 3
        assert worker.pending == 0

    def test_a_sequential_caller_is_never_refused_its_own_slot(self):
        """The slot is released before the result is visible: under
        forced thread switching, back-to-back calls at max_pending=1
        are all admitted."""
        worker = ShardWorker(_Idle(), 0, max_pending=1)
        spinning = threading.Event()
        spinning.set()

        def spin() -> None:
            while spinning.is_set():
                pass

        spinner = threading.Thread(target=spin)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        spinner.start()
        try:
            for _ in range(5000):
                worker.call(int).result(timeout=10)
        finally:
            spinning.clear()
            sys.setswitchinterval(interval)
            spinner.join(timeout=10)
            worker.close()
        assert not spinner.is_alive()
        assert worker.rejected == 0
