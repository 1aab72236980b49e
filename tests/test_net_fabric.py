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
  no job lost or doubled, plus plan sharing through one cache directory.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import pickle
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting.plan_cache import PersistentPlanCache
from repro.db import Database
from repro.dynamic import Delete, Insert
from repro.exceptions import ReproError
from repro.query import parse_query
from repro.service import (
    AttachDatabase,
    CountingSession,
    CountRequest,
    MultiWriterSession,
    SessionRouter,
    ShardSaturatedError,
    ShardWorker,
    UpdateRequest,
)
from repro.service.jobs import json_safe, result_to_dict
from repro.service.net import (
    HEADER_SIZE,
    MAGIC,
    FaultPlan,
    FaultyTransport,
    FrameDecoder,
    FrameError,
    RemoteShard,
    ShardClient,
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
from repro.service.net.frames import send_frame
from repro.service.net.server import REPLY_CACHE_SIZE

PATH = parse_query("ans(A, C) :- r(A, B), s(B, C)")


def small_db() -> Database:
    return Database.from_dict({
        "r": [(1, 10), (1, 11), (2, 10)],
        "s": [(10, 5), (10, 6), (11, 5)],
    })


def wait_until_admitted(client: ShardClient, shard: str,
                        timeout_s: float = 5.0) -> bool:
    """Poll the ready probe until *shard* has a job in flight."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if client.probe("ready")["pending"].get(shard, 0) >= 1:
            return True
        time.sleep(0.01)
    return False


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


class _Opaque:
    """A non-JSON leaf with a stable ``repr``."""

    def __init__(self, tag: int):
        self.tag = tag

    def __repr__(self) -> str:
        return f"<opaque {self.tag}>"


rich_leaves = (
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=6) | st.sampled_from(["true", "null", '"false":'])
    | st.builds(_Opaque, st.integers(0, 9))
    | st.frozensets(st.integers(0, 3), max_size=3)
)
rich_keys = (
    st.text(max_size=4) | st.sampled_from(["true", "false", "null"])
    | st.integers(-5, 5) | st.floats() | st.booleans() | st.none()
    | st.tuples(st.integers(0, 2), st.text(max_size=2))
)
rich_values = st.recursive(
    rich_leaves,
    lambda children: st.lists(children, max_size=3)
    | st.tuples(children, children)
    | st.dictionaries(rich_keys, children, max_size=4),
    max_leaves=16,
)


def decode_one(frame: bytes) -> object:
    decoder = FrameDecoder()
    decoder.feed(frame)
    return decoder.next_frame()


@settings(max_examples=300, deadline=None)
@given(payload=rich_values)
def test_codec_decodes_to_the_json_safe_document(payload):
    """Plain payloads skip the json_safe walk; whatever the payload, the
    receiver sees exactly the json_safe document."""
    expected = json.loads(json.dumps(json_safe(payload)))
    assert decode_one(encode_frame(payload)) == expected


# ----------------------------------------------------------------------
# Wire vocabularies
# ----------------------------------------------------------------------
def reference_frame(payload: object) -> bytes:
    """A frame as the codec built it before plain payloads skipped the
    json_safe walk: the byte-for-byte reference."""
    body = json.dumps(json_safe(payload), separators=(",", ":")).encode()
    return (struct.pack(">4sI8s", MAGIC, len(body),
                        hashlib.sha256(body).digest()[:8]) + body)


def reference_result_to_wire(result: object) -> dict:
    """``result_to_wire`` as it was when it walked details itself."""
    if isinstance(result, dict):
        return {"kind": "ack", "ack": json_safe(result)}
    return {"kind": "count", **result_to_dict(result)}


def test_fabric_vocabulary_frames_are_byte_identical():
    from repro.counting.engine import CountResult, count_answers

    jobs = [
        AttachDatabase("db", small_db(), label="attach"),
        CountRequest(PATH, "db", label="q0", deadline_ms=50.0,
                     error_budget=0.1),
        CountRequest(PATH, "db", max_degree=4.0, method="structural"),
        UpdateRequest("db", Insert("r", (7, 10)), label="u0"),
        UpdateRequest("db", Insert("r", ("x", (1, 2)))),
    ]
    with CountingSession({"db": small_db()}) as session:
        results = [
            session.count(CountRequest(PATH, "db", label="m0")),
            session.update("db", Insert("r", (8, 10)), label="u1"),
            count_answers(PATH, small_db()),
            count_answers(PATH, small_db(), method="brute_force"),
            CountResult(12.5, "approx", {"epsilon": 0.1, "delta": 0.05,
                                         "bounds": (1.0, math.inf)}),
        ]
    errors = [ShardSaturatedError(1, 4, 12.5), ReproError("boom"),
              ValueError("bad value")]
    payloads = (
        [{"id": f"c:{index}", "op": "submit", "shard": "s/shard0",
          "job": job_to_wire(job)} for index, job in enumerate(jobs)]
        + [{"id": "c:9", "ok": True, "result": result_to_wire(result)}
           for result in results]
        + [{"id": "c:10", "ok": False, "error": error_to_wire(error)}
           for error in errors]
    )
    for payload in payloads:
        assert encode_frame(payload) == reference_frame(payload)
    for result in results:
        assert (encode_frame(result_to_wire(result))
                == reference_frame(reference_result_to_wire(result)))


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


def test_renamed_query_crosses_the_wire():
    """A randomly renamed copy keeps a parseable name, so it survives
    the text rendering of the wire (and of job files)."""
    from repro.query.canonical import random_renaming

    renamed = random_renaming(PATH, seed=3)
    count = job_from_wire(job_to_wire(CountRequest(renamed, "db")))
    assert count.query == renamed


def test_result_wire_roundtrip_for_counts_and_acks():
    from repro.counting.engine import count_answers

    result = count_answers(PATH, small_db())
    back = result_from_wire(result_to_wire(result))
    assert back.count == result.count
    assert back.strategy == result.strategy
    ack = {"op": "insert", "database": "db", "applied": True}
    assert result_from_wire(result_to_wire(ack)) == ack


def test_decoded_replies_share_their_strings():
    """A client that keeps its replies holds one copy of each repeated
    key and string value, however many frames carried them."""
    from repro.counting.engine import CountResult

    result = CountResult(3, "maintained", {
        "database": "w0_cyc", "plan_fingerprint": "ab" * 32,
        "nested": {"reduced": "yes"},
    })
    ack = {"op": "insert", "database": "w0_cyc"}
    first, second = (
        result_from_wire(json.loads(json.dumps(result_to_wire(result))))
        for _ in range(2)
    )
    assert first.strategy is second.strategy
    for key, key_again in zip(first.details, second.details):
        assert key is key_again
    for name in ("database", "plan_fingerprint"):
        assert first.details[name] is second.details[name]
    assert first.details["nested"]["reduced"] is \
        second.details["nested"]["reduced"]
    acks = [result_from_wire(json.loads(json.dumps(result_to_wire(ack))))
            for _ in range(2)]
    assert acks[0]["database"] is acks[1]["database"]
    assert acks[0] == ack


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

            server._cores["e/shard0"].target.close = explode
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

        server._cores["f/shard0"].target.close = explode
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

    @pytest.mark.parametrize("kind", ["insert", "delete", "count"])
    def test_retry_of_a_job_past_the_client_timeout_waits_for_it(self, kind):
        # A job queued behind a stall outlives the client's timeout, so
        # the client resends the same id while the original is still
        # queued or running.  The retry must wait for the original's
        # reply: a second execution would re-insert the row (and fail
        # with "already present"), re-delete it (and fail with "not
        # present") or count twice.
        with ShardServer(shards=1, allow_chaos=True) as server:
            client = ShardClient(server.address)
            client.configure("o/shard0", {})
            client.submit_job("o/shard0", AttachDatabase("db", small_db()))
            before = client.stats("o/shard0")
            blocker = ShardClient(server.address)
            send_frame(blocker._connected(),
                       {"id": blocker._next_id(), "op": "stall",
                        "shard": "o/shard0", "ms": 400})
            assert wait_until_admitted(client, "o/shard0"), \
                "stall was never admitted"
            impatient = ShardClient(server.address, timeout_ms=100,
                                    retries=8)
            if kind == "insert":
                job = UpdateRequest("db", Insert("r", (5, 6)))
            elif kind == "delete":
                job = UpdateRequest("db", Delete("r", (1, 10)))
            else:
                job = CountRequest(PATH, "db")
            reply = impatient.submit_job("o/shard0", job)
            assert impatient.retried_requests >= 1
            after = client.stats("o/shard0")
            assert after["server"]["requests_deduped"] >= 1
            executed = sum(
                after[key] - before[key]
                for key in ("updates_applied", "maintained_counts",
                            "engine_counts"))
            assert executed == 1
            if kind == "insert":
                assert reply["applied"] and reply["total_tuples"] == 7
                checkpoint = client.checkpoint("o/shard0", "db")
                assert checkpoint["relations"]["r"].count([5, 6]) == 1
            elif kind == "delete":
                assert reply["applied"] and reply["total_tuples"] == 5
                checkpoint = client.checkpoint("o/shard0", "db")
                assert [1, 10] not in checkpoint["relations"]["r"]
            else:
                assert reply.count == 4
            impatient.close()
            blocker.close()
            client.close()

    def test_concurrent_duplicates_execute_once(self):
        # Connection threads race on the dedup table: however the
        # same-id copies interleave, one executes and the rest wait.
        with ShardServer(shards=1) as server:
            client = ShardClient(server.address)
            client.configure("k/shard0", {})
            client.submit_job("k/shard0", AttachDatabase("db", small_db()))
            request = {
                "id": "racer:1", "op": "submit", "shard": "k/shard0",
                "job": job_to_wire(UpdateRequest("db", Insert("r", (9, 10)))),
            }
            replies = []
            start = threading.Barrier(16)

            def send() -> None:
                start.wait(timeout=10)
                replies.append(server._handle(dict(request)))

            threads = [threading.Thread(target=send) for _ in range(16)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(replies) == 16
            assert replies[0]["ok"]
            assert all(reply == replies[0] for reply in replies)
            assert server.requests_deduped == 15
            assert client.submit_job(
                "k/shard0", CountRequest(PATH, "db")).count == 4 + 2
            client.close()

    def test_reply_memory_is_bounded_across_clients(self):
        with ShardServer(shards=1) as server:
            client = ShardClient(server.address)
            client.configure("b/shard0", {})
            client.submit_job("b/shard0", AttachDatabase("db", small_db()))
            # Throwaway clients: one probe each under a fresh client id.
            for index in range(2000):
                reply = server._handle({"id": f"probe{index}:1",
                                        "op": "probe"})
                assert reply["ok"]
            assert len(server._replies) <= REPLY_CACHE_SIZE
            # A retried id still dedups: the update applies once.
            request = {
                "id": f"{client.client_id}:5000", "op": "submit",
                "shard": "b/shard0",
                "job": job_to_wire(UpdateRequest("db", Insert("r", (9, 10)))),
            }
            assert client._attempt(request) == client._attempt(request)
            server_stats = client.stats("b/shard0")["server"]
            assert server_stats["requests_deduped"] == 1
            assert client.submit_job(
                "b/shard0", CountRequest(PATH, "db")).count == 4 + 2
            client.close()

    def test_stats_report_the_parse_cache(self):
        with ShardServer(shards=1) as server:
            client = ShardClient(server.address)
            client.configure("p/shard0", {})
            client.submit_job("p/shard0", AttachDatabase("db", small_db()))
            query = parse_query("parsestats(A, C) :- r(A, B), s(B, C)")
            before = client.stats("p/shard0")["server"]["parse_cache"]
            for _ in range(3):
                assert client.submit_job(
                    "p/shard0", CountRequest(query, "db")).count == 4
            after = client.stats("p/shard0")["server"]["parse_cache"]
            assert after["misses"] == before["misses"] + 1
            assert after["hits"] == before["hits"] + 2
            assert 1 <= after["size"] <= after["capacity"]
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
            send_frame(blocker._connected(),
                       {"id": stall, "op": "stall", "shard": "s/shard0",
                        "ms": 3000})
            # Wait for the stall to be *admitted* (pending slot taken)
            # before submitting, so the count cannot race it for the
            # single slot: the ready probe reports the depth.
            assert wait_until_admitted(client, "s/shard0"), \
                "stall was never admitted"
            with pytest.raises(ShardSaturatedError) as rejected:
                client.submit_job("s/shard0", CountRequest(PATH, "db"),
                                  saturation_patience_ms=0.0)
            assert rejected.value.retry_after_ms > 0
            blocker.close()
            client.close()

    def test_saturated_shard_still_reports_stats(self):
        # Stats are a control call: they wait for the running job
        # instead of taking (or being refused) an admission slot.
        with ShardServer(shards=1, max_pending=1,
                         allow_chaos=True) as server:
            client = ShardClient(server.address)
            client.configure("q/shard0", {})
            blocker = ShardClient(server.address)
            send_frame(blocker._connected(),
                       {"id": blocker._next_id(), "op": "stall",
                        "shard": "q/shard0", "ms": 300})
            # Observed in-process, so the check does not lean on the
            # ready probe's depth map.
            core = server._cores["q/shard0"]
            deadline = time.monotonic() + 5
            while core.pending < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert core.pending == 1, "stall was never admitted"
            stats = client.stats("q/shard0")
            assert stats["server"]["max_pending"] == 1
            assert stats["server"]["pending"] == 0  # the stall finished
            blocker.close()
            client.close()

    def test_ready_probe_reports_pending_without_queueing(self):
        with ShardServer(shards=1, allow_chaos=True) as server:
            client = ShardClient(server.address)
            client.configure("w/shard0", {})
            assert client.probe("ready")["pending"] == {
                "shard0": 0, "w/shard0": 0}
            blocker = ShardClient(server.address)
            send_frame(blocker._connected(),
                       {"id": blocker._next_id(), "op": "stall",
                        "shard": "w/shard0", "ms": 400})
            # The probe answers while the stall runs: it reads the
            # depth off the worker instead of queueing behind it.
            deadline = time.monotonic() + 5
            pending = client.probe("ready")["pending"]
            while pending["w/shard0"] == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
                pending = client.probe("ready")["pending"]
            assert pending == {"shard0": 0, "w/shard0": 1}
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
            handle = ShardWorker(RemoteShard(server.address,
                                             shard="h/shard0"))
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
        handle = ShardWorker(RemoteShard(server.address, shard="z/shard0",
                                         timeout_ms=100, retries=0))
        handle.submit(AttachDatabase("db", small_db())).result()
        server.kill()
        handle.close()
        assert handle.close_errors == 1
        assert handle.last_close_error

    def test_failed_constructor_releases_created_remote_shards(
            self, repro_env_sandbox):
        """An attach that fails on one (dead) server must not strand
        the shards the constructor already created on a live one."""
        os.environ["REPRO_NET_TIMEOUT_MS"] = "200"
        os.environ["REPRO_NET_RETRIES"] = "0"
        live = ShardServer(shards=1)
        dead = ShardServer(shards=1)
        dead_address = dead.address
        dead.kill()
        # Shard i lives on address i % 2: shard0 on the live server.
        # Attach a shard0 database first, so the live shard really
        # exists when the shard1 attach fails.
        names = [f"db{index}" for index in range(32)]
        router = SessionRouter(2)
        on_live = next(n for n in names if router.shard_of(n) == 0)
        on_dead = next(n for n in names if router.shard_of(n) == 1)
        fleet_shards = live.shard_names()
        try:
            with pytest.raises(TransportError):
                MultiWriterSession({on_live: small_db(),
                                    on_dead: small_db()}, shards=2,
                                   shard_addrs=[live.address, dead_address])
            # No "<namespace>/shard0" left behind, only the fleet's own.
            assert live.shard_names() == fleet_shards
        finally:
            live.close()


# ----------------------------------------------------------------------
# Plan sharing through one cache directory
# ----------------------------------------------------------------------
class TestSharedPlanDirectory:
    def test_shard_servers_share_plans_through_one_directory(self, tmp_path):
        cache_dir = str(tmp_path / "plans")
        with ShardServer(shards=1, cache_dir=cache_dir) as first, \
                ShardServer(shards=1, cache_dir=cache_dir) as second:
            hits = []
            for server in (first, second):
                client = ShardClient(server.address)
                # maintain=False forces counts through the engine, which
                # is the tier that consults (and populates) the plan
                # cache.
                client.configure("w/shard0", {"maintain": False})
                client.submit_job("w/shard0",
                                  AttachDatabase("db", small_db()))
                assert client.submit_job(
                    "w/shard0", CountRequest(PATH, "db")).count == 4
                hits.append(client.stats("w/shard0")["plan_cache"]
                            ["disk_hits"])
                client.close()
            # The second server's first count reads the first's plan.
            assert hits[1] >= 1


# ----------------------------------------------------------------------
# The control plane: handoff and failover through the TCP session
# ----------------------------------------------------------------------
def short_net_timeouts(timeout_ms: int = 300, retries: int = 1) -> None:
    """Fail a dead server fast (inside ``repro_env_sandbox``)."""
    os.environ["REPRO_NET_TIMEOUT_MS"] = str(timeout_ms)
    os.environ["REPRO_NET_RETRIES"] = str(retries)


class TestFabricRecovery:
    def stream(self, rounds: int = 4, database: str = "db") -> list:
        jobs = [AttachDatabase(database, small_db()),
                CountRequest(PATH, database, label="base")]
        for index in range(rounds):
            jobs.append(UpdateRequest(database,
                                      Insert("r", (50 + index, 10))))
            jobs.append(CountRequest(PATH, database, label=f"r{index}"))
        return jobs

    def expected(self, rounds: int = 4) -> list:
        with CountingSession(maintain=False) as session:
            return [getattr(result, "count", None)
                    for result in session.run_stream(self.stream(rounds))]

    @staticmethod
    def counts(session, jobs) -> list:
        futures = [session.submit(job) for job in jobs]
        return [getattr(future.result(), "count", None)
                for future in futures]

    def test_graceful_handoff_loses_and_doubles_nothing(self):
        with ShardServer(shards=1) as source, ShardServer(shards=1) as target:
            session = MultiWriterSession(shards=1,
                                         shard_addrs=[source.address])
            jobs = self.stream()
            self.counts(session, jobs[:4])
            move = session.handoff("db", target.address)
            assert move["moved"] and move["to"] == target.address
            assert self.counts(session, jobs[4:]) == self.expected()[4:]
            assert session.stats()["handoffs"] == 1
            session.close()
            # The source copy went with the handoff.
            assert source.shard_names() == ["shard0"]

    def test_handoff_midstream_under_concurrent_submissions(self):
        with ShardServer(shards=1) as source, ShardServer(shards=1) as target:
            session = MultiWriterSession(shards=1,
                                         shard_addrs=[source.address])
            jobs = self.stream(rounds=8)
            futures = [session.submit(job) for job in jobs[:6]]
            # Queue the handoff on the lane while traffic is in flight,
            # then keep submitting — ordering must hold throughout.
            mover = threading.Thread(
                target=session.handoff, args=("db", target.address))
            mover.start()
            futures += [session.submit(job) for job in jobs[6:]]
            mover.join()
            counts = [getattr(future.result(), "count", None)
                      for future in futures]
            assert counts == self.expected(rounds=8)
            assert session.address_of("db") == target.address
            session.close()

    def test_kill_triggers_failover_with_journal_replay(
            self, repro_env_sandbox):
        short_net_timeouts()
        with ShardServer(shards=1) as standby:
            doomed = ShardServer(shards=1)
            session = MultiWriterSession(shards=1,
                                         shard_addrs=[doomed.address],
                                         standbys=[standby.address])
            jobs = self.stream(rounds=6)
            expected = self.expected(rounds=6)
            assert self.counts(session, jobs[:7]) == expected[:7]
            doomed.kill()  # mid-stream death, state gone
            # Origin + journal replay rebuilt the exact state: nothing
            # lost (counts match the inline oracle), nothing doubled.
            assert self.counts(session, jobs[7:]) == expected[7:]
            assert session.stats()["failovers"] == 1
            assert session.address_of("db") == standby.address
            session.close()
            doomed.close()

    def test_journal_truncation_bounds_replay_and_survives_failover(
            self, repro_env_sandbox, monkeypatch):
        from repro.service.net import client as client_module

        monkeypatch.setattr(client_module, "JOURNAL_LIMIT", 3)
        short_net_timeouts()
        with ShardServer(shards=1) as standby:
            doomed = ShardServer(shards=1)
            session = MultiWriterSession(shards=1,
                                         shard_addrs=[doomed.address],
                                         standbys=[standby.address])
            jobs = self.stream(rounds=8)
            expected = self.expected(rounds=8)
            assert self.counts(session, jobs[:13]) == expected[:13]
            stats = session.stats()
            # Six acknowledged updates under a limit of three: the lane
            # re-checkpointed (at least) twice and never holds a
            # full-history journal.
            assert stats["truncations"] >= 2
            assert stats["per_shard"][0]["journal_depths"]["db"] < 3
            doomed.kill()  # mid-stream death after truncations
            # The truncated origin subsumes every dropped journal
            # prefix: failover replay is still exact.
            assert self.counts(session, jobs[13:]) == expected[13:]
            assert session.stats()["failovers"] == 1
            session.close()
            doomed.close()

    def test_attach_is_serialized_once_and_still_restores(
            self, repro_env_sandbox, monkeypatch):
        """The spec an attach ships is its origin: one serialization
        per attach, and failover rebuilds from it."""
        from repro.service import session as session_module

        calls = []
        original = session_module.database_to_dict

        def counted(database):
            calls.append(database)
            return original(database)

        monkeypatch.setattr(session_module, "database_to_dict", counted)
        short_net_timeouts()
        with ShardServer(shards=1) as standby:
            doomed = ShardServer(shards=1)
            session = MultiWriterSession(shards=1,
                                         shard_addrs=[doomed.address],
                                         standbys=[standby.address])
            jobs = self.stream(rounds=2)
            expected = self.expected(rounds=2)
            session.submit(jobs[0]).result()
            assert len(calls) == 1
            doomed.kill()  # the origin is all the standby gets
            assert self.counts(session, jobs[1:]) == expected[1:]
            assert session.stats()["failovers"] == 1
            assert len(calls) == 1
            session.close()
            doomed.close()

    def test_standbys_and_handoff_need_tcp_shards(self):
        # The journal limit is a module constant, not an option; the
        # one recovery option, standbys=, belongs to tcp shards.
        with pytest.raises(ValueError, match="standbys"):
            MultiWriterSession(shard_mode="thread",
                               standbys=["127.0.0.1:1"])
        with MultiWriterSession({"db": small_db()}, shards=1,
                                shard_mode="thread") as session:
            with pytest.raises(ReproError, match="tcp"):
                session.handoff("db", "127.0.0.1:1")

    def test_failover_without_standby_or_origin_fails_loudly(
            self, repro_env_sandbox):
        short_net_timeouts(timeout_ms=200, retries=0)
        doomed = ShardServer(shards=1)
        session = MultiWriterSession(shards=1, shard_addrs=[doomed.address])
        session.submit(AttachDatabase("db", small_db())).result()
        doomed.kill()
        with pytest.raises(TransportError, match="standby"):
            session.submit(CountRequest(PATH, "db")).result()
        # A database with no acknowledged attach has nothing to rebuild.
        with pytest.raises(TransportError, match="origin"):
            session.submit(AttachDatabase("fresh", small_db())).result()
        assert session.stats()["failovers"] == 0
        session.close()
        doomed.close()

    def test_two_lanes_on_one_dead_server_share_one_standby(
            self, repro_env_sandbox):
        """Both lanes of a killed server recover onto the same standby,
        and the session counts one failover, not one per lane."""
        short_net_timeouts()
        router = SessionRouter(2)
        names = [f"db{index}" for index in range(32)]
        first = next(n for n in names if router.shard_of(n) == 0)
        second = next(n for n in names if router.shard_of(n) == 1)
        streams = [self.stream(rounds=6, database=name)
                   for name in (first, second)]
        interleaved = [job for pair in zip(*streams) for job in pair]
        with CountingSession(maintain=False) as oracle:
            expected = [getattr(result, "count", None)
                        for result in oracle.run_stream(interleaved)]
        with ShardServer(shards=1) as standby:
            doomed = ShardServer(shards=1)
            session = MultiWriterSession(shards=2,
                                         shard_addrs=[doomed.address],
                                         standbys=[standby.address])
            half = len(interleaved) // 2
            assert self.counts(session, interleaved[:half]) == \
                expected[:half]
            doomed.kill()
            assert self.counts(session, interleaved[half:]) == \
                expected[half:]
            assert session.stats()["failovers"] == 1
            assert session.address_of(first) == standby.address
            assert session.address_of(second) == standby.address
            session.close()
            doomed.close()


def test_concurrent_lanes_pick_one_replacement_per_dead_server():
    """Many lanes reporting one dead server at once: one pick, one
    failover, every lane sent to the same standby."""
    # Remote shards connect lazily, so nothing listens on these.
    session = MultiWriterSession(shards=2, shard_addrs=["127.0.0.1:1"],
                                 standbys=["127.0.0.1:2", "127.0.0.1:3"])
    picks = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: picks.append(
            session._replacement_for("127.0.0.1:1"))) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        session.close()
    assert picks == ["127.0.0.1:2"] * 16
    assert session.failovers == 1
    # A dead replacement resolves to its own replacement.
    assert session._replacement_for("127.0.0.1:2") == "127.0.0.1:3"
    assert session._replacement_for("127.0.0.1:1") == "127.0.0.1:3"


def test_env_sandbox_fixture_restores_knobs(repro_env_sandbox):
    import os
    os.environ["REPRO_SHARD_ADDRS"] = "127.0.0.1:1"
    os.environ["REPRO_NET_RETRIES"] = "0"
    # Restoration is asserted implicitly: any leak would poison the
    # suite's later sessions (default_shard_addrs would return a dead
    # address).  The fixture's contextmanager guarantees cleanup.
