"""The networked shard fabric: frames, servers, clients, chaos.

Four layers, tested bottom-up:

* the frame codec — every frame round-trips; truncation, corruption,
  garbage, and lying length fields are *rejected per frame* with the
  decoder (and so the connection) still usable;
* the wire vocabularies — jobs, results, and typed errors survive the
  trip, including the ``ShardSaturatedError`` retry-after hint;
* one server and its clients — probes, dedup (exactly-once under
  retries), drain, saturation over the wire, timeouts and backoff
  under a :class:`~repro.service.net.chaos.FaultyTransport`;
* the control plane — graceful handoff and kill-driven failover with
  no job lost or doubled, plus the networked plan-cache tier.
"""

from __future__ import annotations

import base64
import hashlib
import os
import pickle
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting.plan_cache import PersistentPlanCache
from repro.db import Database
from repro.dynamic import Insert
from repro.exceptions import ReproError
from repro.query import parse_query
from repro.service import (
    AttachDatabase,
    CountRequest,
    MultiWriterSession,
    ShardSaturatedError,
    UpdateRequest,
)
from repro.service.net import (
    HEADER_SIZE,
    MAGIC,
    FaultPlan,
    FaultyTransport,
    FrameDecoder,
    FrameError,
    PlanCacheKVServer,
    RemotePlanCache,
    RemoteShardHandle,
    ShardClient,
    ShardDirectory,
    ShardServer,
    TransportError,
    encode_frame,
    error_from_wire,
    error_to_wire,
    job_from_wire,
    job_to_wire,
    parse_shard_addrs,
    result_from_wire,
    result_to_wire,
)

PATH = parse_query("ans(A, C) :- r(A, B), s(B, C)")


def small_db() -> Database:
    return Database.from_dict({
        "r": [(1, 10), (1, 11), (2, 10)],
        "s": [(10, 5), (10, 6), (11, 5)],
    })


def drain_frames(decoder: FrameDecoder) -> list:
    """Every decodable frame left in *decoder* (errors propagate)."""
    frames = []
    while True:
        frame = decoder.next_frame()
        if frame is None:
            return frames
        frames.append(frame)


class _MakeDirectory:
    """Unpickling this creates a directory: a visible side effect."""

    def __init__(self, path: str):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
json_scalars = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
# Protocol frames are always JSON objects (requests/responses), so the
# property quantifies over dict payloads with arbitrary JSON inside.
json_values = st.dictionaries(st.text(max_size=8), json_scalars,
                              max_size=4)


@settings(max_examples=60, deadline=None)
@given(payloads=st.lists(json_values, min_size=1, max_size=5),
       chop=st.integers(1, 7))
def test_frames_roundtrip_across_arbitrary_chunking(payloads, chop):
    wire = b"".join(encode_frame(payload) for payload in payloads)
    decoder = FrameDecoder()
    decoded = []
    for start in range(0, len(wire), chop):
        decoder.feed(wire[start:start + chop])
        decoded.extend(drain_frames(decoder))
    assert decoded == payloads
    assert decoder.buffered == 0
    assert decoder.rejected == 0


def test_truncated_frame_is_rejected_and_decoder_recovers():
    good = encode_frame({"id": "a", "op": "probe"})
    truncated = encode_frame({"id": "lost", "data": "x" * 64})[:-10]
    decoder = FrameDecoder()
    # The truncated frame is missing tail bytes, so the *next* frame's
    # magic lands mid-payload: checksum catches the splice.
    decoder.feed(truncated + good)
    with pytest.raises(FrameError):
        drain_frames(decoder)
    assert decoder.rejected >= 1
    # The decoder resynchronizes: feeding further intact frames works.
    recovered = encode_frame({"id": "b"})
    decoder.feed(recovered)
    frames = []
    while True:
        try:
            got = drain_frames(decoder)
        except FrameError:
            continue
        frames.extend(got)
        break
    assert frames[-1] == {"id": "b"}


def test_corrupted_payload_fails_checksum_but_stream_continues():
    first = bytearray(encode_frame({"id": "x", "n": 1}))
    first[HEADER_SIZE + 3] ^= 0xFF  # flip one payload byte
    second = encode_frame({"id": "y", "n": 2})
    decoder = FrameDecoder()
    decoder.feed(bytes(first) + second)
    with pytest.raises(FrameError, match="checksum"):
        decoder.next_frame()
    # The damaged frame was consumed exactly; the next one is intact.
    assert decoder.next_frame() == {"id": "y", "n": 2}
    assert decoder.rejected == 1


def test_garbage_prefix_resynchronizes_on_magic():
    frame = encode_frame({"ok": True})
    decoder = FrameDecoder()
    decoder.feed(b"not a frame at all" + frame)
    with pytest.raises(FrameError, match="resynchronized"):
        decoder.next_frame()
    assert decoder.next_frame() == {"ok": True}


def test_lying_length_field_does_not_stall_the_decoder():
    # A header announcing an impossible payload must not make the
    # decoder wait forever for bytes that never come.
    import struct
    bogus = struct.pack(">4sI8s", MAGIC, 2**31, b"\0" * 8)
    decoder = FrameDecoder(max_frame_bytes=1024)
    decoder.feed(bogus + encode_frame({"after": 1}))
    with pytest.raises(FrameError, match="bound"):
        decoder.next_frame()
    assert decoder.next_frame() == {"after": 1}


# ----------------------------------------------------------------------
# Wire vocabularies
# ----------------------------------------------------------------------
def test_job_wire_roundtrip():
    jobs = [
        AttachDatabase("db", small_db()),
        CountRequest(PATH, "db", label="q0", deadline_ms=50.0,
                     error_budget=0.1),
        UpdateRequest("db", Insert("r", (7, 10))),
    ]
    for job in jobs:
        restored = job_from_wire(job_to_wire(job))
        assert type(restored) is type(job)
    attach = job_from_wire(job_to_wire(jobs[0]))
    assert attach.database.total_tuples() == small_db().total_tuples()
    count = job_from_wire(job_to_wire(jobs[1]))
    assert count.query == PATH and count.deadline_ms == 50.0


def test_result_wire_roundtrip_for_counts_and_acks():
    from repro.counting.engine import count_answers

    result = count_answers(PATH, small_db())
    back = result_from_wire(result_to_wire(result))
    assert back.count == result.count
    assert back.strategy == result.strategy
    ack = {"op": "insert", "database": "db", "applied": True}
    assert result_from_wire(result_to_wire(ack)) == ack


def test_saturation_error_keeps_its_hint_across_the_wire():
    error = ShardSaturatedError(3, 17, 42.5)
    back = error_from_wire(error_to_wire(error))
    assert isinstance(back, ShardSaturatedError)
    assert (back.shard, back.pending, back.retry_after_ms) == (3, 17, 42.5)


def test_parse_shard_addrs_validates():
    assert parse_shard_addrs(" a:1, b:2 ,") == ["a:1", "b:2"]
    with pytest.raises(ValueError):
        parse_shard_addrs("no-port-here")


# ----------------------------------------------------------------------
# One server and its clients
# ----------------------------------------------------------------------
class TestShardServer:
    def test_probes_and_basic_job_flow(self):
        with ShardServer(shards=2) as server:
            client = ShardClient(server.address)
            ready = client.probe("ready")
            assert ready["ready"] and not ready["draining"]
            assert ready["shards"] == ["shard0", "shard1"]
            live = client.probe("live")
            assert live["alive"] and live["uptime_s"] >= 0
            client.configure("t/shard0", {})
            ack = client.submit_job(
                "t/shard0", AttachDatabase("db", small_db()))
            assert ack["attached"]
            result = client.submit_job("t/shard0", CountRequest(PATH, "db"))
            assert result.count == 4
            client.submit_job(
                "t/shard0", UpdateRequest("db", Insert("r", (3, 11))))
            assert client.submit_job(
                "t/shard0", CountRequest(PATH, "db")).count == 5
            stats = client.stats("t/shard0")
            assert stats["server"]["requests_served"] >= 5
            client.close()

    def test_release_close_failure_is_counted_not_swallowed(self):
        # A shard whose close() raises must still be released, but the
        # failure has to land in the reply and the server stats instead
        # of an `except: pass` — the close-error accounting contract the
        # in-process handles already honour.
        with ShardServer(shards=2) as server:
            client = ShardClient(server.address)
            client.configure("e/shard0", {})
            client.configure("e/shard1", {})
            client.submit_job("e/shard0", AttachDatabase("db", small_db()))

            def explode():
                raise RuntimeError("spill dir vanished")

            server._cores["e/shard0"].shard.close = explode
            reply = client.release(["e/shard0"])
            assert reply["released"] == ["e/shard0"]
            assert reply["close_errors"] == 1
            assert "spill dir vanished" in reply["last_close_error"]
            # Clean releases stay clean.
            assert "close_errors" not in client.release(["e/shard1"])
            # Totals survive in stats (probe any still-hosted shard)...
            client.configure("e/shard2", {})
            stats = client.stats("e/shard2")
            assert stats["server"]["close_errors"] == 1
            assert "spill dir vanished" in stats["server"]["last_close_error"]
            # ...and ride the drain reply too.
            drained = client.drain()
            assert drained["drained"]
            assert drained["close_errors"] == 1
            assert "e/shard0" in drained["last_close_error"]
            client.close()

    def test_server_close_records_shard_close_failures(self):
        server = ShardServer(shards=1)
        client = ShardClient(server.address)
        client.configure("f/shard0", {})

        def explode():
            raise RuntimeError("broken pipe to spill")

        server._cores["f/shard0"].shard.close = explode
        client.close()
        server.close()
        assert server.close_errors == 1
        assert "f/shard0" in server.last_close_error

    def test_duplicate_request_id_is_served_from_reply_memory(self):
        # The exactly-once core: resending the SAME id must not
        # re-execute the job — the update below would double-apply.
        with ShardServer(shards=1) as server:
            client = ShardClient(server.address)
            client.configure("d/shard0", {})
            client.submit_job("d/shard0", AttachDatabase("db", small_db()))
            request = {
                "id": f"{client.client_id}:999", "op": "submit",
                "shard": "d/shard0",
                "job": job_to_wire(UpdateRequest("db", Insert("r", (9, 10)))),
            }
            first = client._attempt(request)
            again = client._attempt(request)
            assert first == again
            deduped = client.stats("d/shard0")["server"]["requests_deduped"]
            assert deduped >= 1
            # One application, not two:
            assert client.submit_job(
                "d/shard0", CountRequest(PATH, "db")).count == 4 + 2
            client.close()

    def test_drain_refuses_new_submits_but_probe_reports_it(self):
        with ShardServer(shards=1) as server:
            client = ShardClient(server.address)
            client.configure("x/shard0", {})
            client.submit_job("x/shard0", AttachDatabase("db", small_db()))
            client.drain()
            assert client.probe("ready")["draining"]
            from repro.exceptions import ReproError
            with pytest.raises(ReproError, match="draining"):
                client.submit_job("x/shard0", CountRequest(PATH, "db"))
            client.close()

    def test_saturation_travels_with_retry_hint(self):
        with ShardServer(shards=1, max_pending=1,
                         allow_chaos=True) as server:
            client = ShardClient(server.address)
            client.configure("s/shard0", {})
            client.submit_job("s/shard0", AttachDatabase("db", small_db()))
            # Occupy the core, then submit over a second connection with
            # zero patience: the rejection must carry a positive hint.
            blocker = ShardClient(server.address)
            stall = blocker._next_id()
            from repro.service.net.frames import send_frame
            send_frame(blocker._connected(),
                       {"id": stall, "op": "stall", "shard": "s/shard0",
                        "ms": 3000})
            # Wait for the stall to be *admitted* (pending slot taken)
            # before submitting, so the count cannot race it for the
            # single slot — the server is in-process, so observe it.
            core = server._core("s/shard0")
            deadline = time.monotonic() + 5
            while core.pending < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert core.pending >= 1, "stall was never admitted"
            with pytest.raises(ShardSaturatedError) as rejected:
                client.submit_job("s/shard0", CountRequest(PATH, "db"),
                                  saturation_patience_ms=0.0)
            assert rejected.value.retry_after_ms > 0
            blocker.close()
            client.close()

    def test_restore_never_unpickles_a_wire_payload(self, tmp_path):
        # Regression: restore used to unpickle a base64 "envelope" from
        # the request, and its SHA-256 is no secret, so any client could
        # run code on the server.  The payload must be plain data.
        marker = tmp_path / "side-effect"
        blob = pickle.dumps(_MakeDirectory(str(marker)))
        digest = hashlib.sha256(blob).hexdigest().encode("ascii")
        crafted = base64.b64encode(
            b"repro-handoff:1:" + digest + b":" + blob).decode("ascii")
        with ShardServer(shards=1) as server:
            client = ShardClient(server.address)
            client.configure("h/shard0", {})
            client.submit_job("h/shard0", AttachDatabase("db", small_db()))
            with pytest.raises(ReproError):
                client.request({"op": "restore", "shard": "h/shard0",
                                "database": "db", "envelope": crafted,
                                "payload": crafted})
            assert not marker.exists()
            assert client.submit_job(
                "h/shard0", CountRequest(PATH, "db")).count == 4
            client.close()

    @pytest.mark.parametrize("relations", [
        [["r", 1, 10]],                           # not an object
        {"r": [1, 10]},                           # rows are not lists
        {"r": [[1, 10], [2]]},                    # ragged arity
        {"r": [[{"x": 1}, 10]]},                  # unhashable value
        {"__arities__": 2, "r": [[1, 10]]},       # arity map not an object
    ])
    def test_restore_refuses_malformed_relations_unchanged(self, relations):
        with ShardServer(shards=1) as server:
            client = ShardClient(server.address)
            client.configure("m/shard0", {})
            client.submit_job("m/shard0", AttachDatabase("db", small_db()))
            checkpoint = client.checkpoint("m/shard0", "db")
            assert checkpoint["relations"]["r"]  # plain rows, no pickle
            with pytest.raises(ReproError):
                client.restore("m/shard0", "db",
                               {**checkpoint, "relations": relations})
            assert client.submit_job(
                "m/shard0", CountRequest(PATH, "db")).count == 4
            client.close()

    def test_stall_requires_chaos_opt_in(self):
        with ShardServer(shards=1) as server:
            client = ShardClient(server.address)
            with pytest.raises(Exception, match="chaos"):
                client.stall("shard0", 10)
            client.close()


class TestClientRetries:
    def test_retries_reconnect_through_severed_connections(self):
        with ShardServer(shards=1) as server:
            plan = FaultPlan(sever_every=4)
            with FaultyTransport(server.address, plan) as proxy:
                client = ShardClient(proxy.address, timeout_ms=2_000,
                                     retries=6)
                client.configure("r/shard0", {})
                client.submit_job("r/shard0",
                                  AttachDatabase("db", small_db()))
                for _ in range(6):
                    assert client.submit_job(
                        "r/shard0", CountRequest(PATH, "db")).count == 4
                assert proxy.counters["severed"] >= 1
                assert client.reconnects >= 1
                client.close()

    def test_dropped_and_corrupted_frames_are_absorbed(self):
        with ShardServer(shards=1) as server:
            plan = FaultPlan(drop_every=5, corrupt_every=7)
            with FaultyTransport(server.address, plan) as proxy:
                client = ShardClient(proxy.address, timeout_ms=400,
                                     retries=8)
                client.configure("c/shard0", {})
                client.submit_job("c/shard0",
                                  AttachDatabase("db", small_db()))
                for round_index in range(8):
                    client.submit_job(
                        "c/shard0",
                        UpdateRequest("db", Insert("r", (90 + round_index,
                                                         10))))
                final = client.submit_job("c/shard0",
                                          CountRequest(PATH, "db"))
                # Exactly-once despite retries: every insert applied once.
                assert final.count == 4 + 2 * 8
                counters = proxy.counters
                assert counters["dropped"] + counters["corrupted"] >= 1
                client.close()

    def test_timeout_surfaces_as_transport_error(self):
        with ShardServer(shards=1) as server:
            plan = FaultPlan(drop_every=1)  # black hole
            with FaultyTransport(server.address, plan) as proxy:
                client = ShardClient(proxy.address, timeout_ms=80,
                                     retries=1)
                started = time.monotonic()
                with pytest.raises(TransportError, match="attempt"):
                    client.probe("live")
                assert time.monotonic() - started < 5
                client.close()

    def test_remote_handle_implements_the_session_contract(self):
        with ShardServer(shards=1) as server:
            handle = RemoteShardHandle(server.address, shard="h/shard0")
            ack = handle.submit(AttachDatabase("db", small_db())).result()
            assert ack["attached"]
            assert handle.submit(CountRequest(PATH, "db")).result().count == 4
            stats = handle.submit_stats().result()
            assert "maintainers" in stats and "server" in stats
            handle.close()
            assert handle.close_errors == 0
            # Closing released the namespaced core server-side.
            probe_client = ShardClient(server.address)
            assert "h/shard0" not in probe_client.probe("ready")["shards"]
            probe_client.close()

    def test_remote_handle_counts_close_against_dead_server(self):
        server = ShardServer(shards=1)
        handle = RemoteShardHandle(server.address, shard="z/shard0",
                                   timeout_ms=100, retries=0)
        handle.submit(AttachDatabase("db", small_db())).result()
        server.kill()
        handle.close()
        assert handle.close_errors == 1
        assert handle.last_close_error


# ----------------------------------------------------------------------
# The plan-cache KV tier
# ----------------------------------------------------------------------
class TestRemotePlanCache:
    def test_remote_store_then_warm_start(self, tmp_path):
        store = tmp_path / "kv"
        with PlanCacheKVServer(str(store)) as kv:
            first = RemotePlanCache(kv.url)
            from repro.counting.engine import count_answers
            count_answers(PATH, small_db(), plan_cache=first)
            assert first.net_stored >= 1
            # A different cache against the same endpoint warm-starts.
            second = RemotePlanCache(kv.url)
            count_answers(PATH, small_db(), plan_cache=second)
            assert second.net_hits >= 1
            assert second.stats()["cache_url"] == kv.url

    def test_dead_endpoint_degrades_to_local_fallback(self, tmp_path):
        dead_url = "http://127.0.0.1:9"  # discard port; never listens
        cache = RemotePlanCache(dead_url, fallback_dir=str(tmp_path),
                                timeout_s=0.2)
        from repro.counting.engine import count_answers
        result = count_answers(PATH, small_db(), plan_cache=cache)
        assert result.count == 4  # correctness survives the outage
        assert cache.net_errors >= 1
        assert cache.fallback_stored >= 1
        # And the spilled entry serves the next cold start locally.
        revived = RemotePlanCache(dead_url, fallback_dir=str(tmp_path),
                                  timeout_s=0.2)
        count_answers(PATH, small_db(), plan_cache=revived)
        assert revived.fallback_hits >= 1

    def test_corrupted_remote_entry_is_rejected_not_adopted(self, tmp_path):
        store = tmp_path / "kv"
        with PlanCacheKVServer(str(store)) as kv:
            seed = RemotePlanCache(kv.url)
            from repro.counting.engine import count_answers
            count_answers(PATH, small_db(), plan_cache=seed)
            # Vandalize every stored entry document.
            for entry in store.glob("*.plan.json"):
                entry.write_text("{\"format\": 999}")
            fresh = RemotePlanCache(kv.url)
            result = count_answers(PATH, small_db(), plan_cache=fresh)
            assert result.count == 4
            assert fresh.net_rejected >= 1

    def test_kv_server_refuses_traversal_paths(self, tmp_path):
        import urllib.error
        import urllib.request
        with PlanCacheKVServer(str(tmp_path)) as kv:
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{kv.url}/plan/../secrets",
                                       timeout=2)

    def test_shard_servers_share_plans_through_one_endpoint(self, tmp_path):
        with ShardServer(shards=1, cache_dir=str(tmp_path / "kv")) as hub:
            assert hub.kv is not None
            client = ShardClient(hub.address)
            # maintain=False forces counts through the engine, which is
            # the tier that consults (and populates) the plan cache.
            client.configure("w/shard0", {"maintain": False})
            client.submit_job("w/shard0", AttachDatabase("db", small_db()))
            client.submit_job("w/shard0", CountRequest(PATH, "db"))
            client.close()
            with ShardServer(shards=1, cache_url=hub.kv.url) as leaf:
                leaf_client = ShardClient(leaf.address)
                leaf_client.configure("w/shard0", {"maintain": False})
                leaf_client.submit_job("w/shard0",
                                       AttachDatabase("db", small_db()))
                leaf_client.submit_job("w/shard0", CountRequest(PATH, "db"))
                stats = leaf_client.stats("w/shard0")
                assert stats["plan_cache"]["net_hits"] >= 1
                leaf_client.close()


# ----------------------------------------------------------------------
# The control plane: handoff and failover
# ----------------------------------------------------------------------
class TestShardDirectory:
    def stream(self, rounds: int = 4) -> list:
        jobs = [AttachDatabase("db", small_db()),
                CountRequest(PATH, "db", label="base")]
        for index in range(rounds):
            jobs.append(UpdateRequest("db", Insert("r", (50 + index, 10))))
            jobs.append(CountRequest(PATH, "db", label=f"r{index}"))
        return jobs

    def expected(self, rounds: int = 4) -> list:
        session = MultiWriterSession(shard_mode="inline", shards=1,
                                     maintain=False)
        try:
            return [getattr(result, "count", None)
                    for result in session.run_stream(self.stream(rounds))]
        finally:
            session.close()

    def test_graceful_handoff_loses_and_doubles_nothing(self):
        with ShardServer(shards=1) as source, ShardServer(shards=1) as target:
            directory = ShardDirectory([source.address])
            jobs = self.stream()
            futures = [directory.submit(job) for job in jobs[:4]]
            [future.result() for future in futures]
            move = directory.handoff("db", target.address)
            assert move["moved"] and move["to"] == target.address
            results = [future.result()
                       for future in (directory.submit(job)
                                      for job in jobs[4:])]
            counts = [getattr(result, "count", None)
                      for result in results]
            assert counts == self.expected()[4:]
            assert directory.stats()["handoffs"] == 1
            directory.close()

    def test_handoff_midstream_under_concurrent_submissions(self):
        with ShardServer(shards=1) as source, ShardServer(shards=1) as target:
            directory = ShardDirectory([source.address])
            jobs = self.stream(rounds=8)
            futures = [directory.submit(job) for job in jobs[:6]]
            # Queue the handoff on the lane while traffic is in flight,
            # then keep submitting — ordering must hold throughout.
            import threading
            mover = threading.Thread(
                target=directory.handoff, args=("db", target.address))
            mover.start()
            futures += [directory.submit(job) for job in jobs[6:]]
            mover.join()
            counts = [getattr(future.result(), "count", None)
                      for future in futures]
            assert counts == self.expected(rounds=8)
            assert directory.assignment()["db"] == target.address
            directory.close()

    def test_kill_triggers_failover_with_journal_replay(self):
        with ShardServer(shards=1) as standby:
            doomed = ShardServer(shards=1)
            directory = ShardDirectory([doomed.address],
                                       standbys=[standby.address],
                                       timeout_ms=300, retries=1)
            jobs = self.stream(rounds=6)
            expected = self.expected(rounds=6)
            prefix = [directory.submit(job) for job in jobs[:7]]
            assert [getattr(f.result(), "count", None)
                    for f in prefix] == expected[:7]
            doomed.kill()  # mid-stream death, state gone
            rest = [directory.submit(job) for job in jobs[7:]]
            counts = [getattr(future.result(), "count", None)
                      for future in rest]
            # Origin + journal replay rebuilt the exact state: nothing
            # lost (counts match the inline oracle), nothing doubled.
            assert counts == expected[7:]
            stats = directory.stats()
            assert stats["failovers"] == 1
            assert stats["assignment"]["db"] == standby.address
            directory.close()
            doomed.close()

    def test_journal_truncation_bounds_replay_and_survives_failover(self):
        with ShardServer(shards=1) as standby:
            doomed = ShardServer(shards=1)
            directory = ShardDirectory([doomed.address],
                                       standbys=[standby.address],
                                       timeout_ms=300, retries=1,
                                       journal_cap=3)
            jobs = self.stream(rounds=8)
            expected = self.expected(rounds=8)
            prefix = [directory.submit(job) for job in jobs[:13]]
            assert [getattr(f.result(), "count", None)
                    for f in prefix] == expected[:13]
            stats = directory.stats()
            # Six acknowledged updates under a cap of three: the
            # directory re-checkpointed (at least) twice and never
            # holds a full-history journal.
            assert stats["truncations"] >= 2
            assert stats["journal_depths"]["db"] < 3
            assert stats["journal_cap"] == 3
            doomed.kill()  # mid-stream death after truncations
            rest = [directory.submit(job) for job in jobs[13:]]
            counts = [getattr(future.result(), "count", None)
                      for future in rest]
            # The truncated origin subsumes every dropped journal
            # prefix: failover replay is still exact.
            assert counts == expected[13:]
            assert directory.stats()["failovers"] == 1
            directory.close()
            doomed.close()

    def test_journal_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="journal_cap"):
            ShardDirectory(["127.0.0.1:1"], journal_cap=0)

    def test_failover_without_standby_or_origin_fails_loudly(self):
        doomed = ShardServer(shards=1)
        directory = ShardDirectory([doomed.address],
                                   timeout_ms=200, retries=0)
        directory.submit(AttachDatabase("db", small_db())).result()
        doomed.kill()
        with pytest.raises(TransportError):
            directory.submit(CountRequest(PATH, "db")).result()
        directory.close()
        doomed.close()


def test_env_sandbox_fixture_restores_knobs(repro_env_sandbox):
    import os
    os.environ["REPRO_SHARD_ADDRS"] = "127.0.0.1:1"
    os.environ["REPRO_NET_RETRIES"] = "0"
    # Restoration is asserted implicitly: any leak would poison the
    # suite's later sessions (default_shard_addrs would return a dead
    # address).  The fixture's contextmanager guarantees cleanup.
