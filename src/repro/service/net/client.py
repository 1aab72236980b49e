"""Clients of the shard server: request/response plus the remote shard.

:class:`ShardClient` is the low-level synchronous protocol client: one
TCP connection, framed request/response with per-request timeouts and
capped exponential-backoff retries.  Retries are safe for *every* op —
not just idempotent reads — because a retry resends the **same request
id** and the server deduplicates: a job whose reply was lost is answered
from the server's reply memory, never re-executed.  Saturation
(``shard_saturated`` replies from the core's ``ShardWorker``; never for
``stats``) is handled separately: the job was *not* executed, so the
client waits out the server's ``retry_after_ms`` hint and resubmits
under a fresh id, up to a bounded patience.

:class:`RemoteShard` gives one server-side shard the interface of a
local :class:`~repro.service.shard.SessionShard` (``execute``/
``stats``/``close``), so :class:`~repro.service.router.ShardWorker`
drives ``tcp`` shards exactly like ``thread`` ones.  It also keeps its
databases' recovery material (origin plus journal of acknowledged
updates), from which it fails over off a dead server and hands off to
another one.
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from typing import Callable, Dict, List, Optional

from ...dynamic.updates import Update
from ...envknobs import env_float, env_int
from ...exceptions import ReproError
from ..router import SessionRouter, ShardSaturatedError
from ..session import AttachDatabase, SessionJob, UpdateRequest
from .frames import (
    FrameDecoder,
    FrameError,
    TransportError,
    error_from_wire,
    job_to_wire,
    parse_address,
    recv_frame,
    result_from_wire,
    send_frame,
)

#: Environment knobs of the networked fabric.
SHARD_ADDRS_ENV = "REPRO_SHARD_ADDRS"
NET_TIMEOUT_ENV = "REPRO_NET_TIMEOUT_MS"
NET_RETRIES_ENV = "REPRO_NET_RETRIES"

DEFAULT_TIMEOUT_MS = 30_000.0
DEFAULT_RETRIES = 4

#: Exponential-backoff schedule between transport retries.
BACKOFF_BASE_MS = 25.0
BACKOFF_CAP_MS = 1_000.0

#: Acknowledged updates a remote shard journals per database before it
#: re-bases the database on a fresh checkpoint (bounding both the
#: client's recovery memory and a failover's replay).
JOURNAL_LIMIT = 4096


def default_net_timeout_ms() -> float:
    """``$REPRO_NET_TIMEOUT_MS`` when set and sane, else 30s."""
    return max(env_float(NET_TIMEOUT_ENV, DEFAULT_TIMEOUT_MS), 1.0)


def default_net_retries() -> int:
    """``$REPRO_NET_RETRIES`` when set and sane, else 4."""
    return max(env_int(NET_RETRIES_ENV, DEFAULT_RETRIES), 0)


def parse_shard_addrs(text: str) -> List[str]:
    """A comma-separated ``host:port`` list, validated."""
    addresses = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        parse_address(piece)  # raises ValueError on a malformed address
        addresses.append(piece)
    return addresses


def default_shard_addrs() -> List[str]:
    """``$REPRO_SHARD_ADDRS`` as a validated address list (may be empty).

    Raises :class:`ValueError` on a malformed address — a typo in the
    fleet configuration must fail loudly, not route to nowhere.
    """
    raw = os.environ.get(SHARD_ADDRS_ENV, "")
    return parse_shard_addrs(raw)


def backoff_ms(attempt: int) -> float:
    """The capped exponential backoff before retry *attempt* (1-based)."""
    return min(BACKOFF_BASE_MS * (2 ** (attempt - 1)), BACKOFF_CAP_MS)


class ShardClient:
    """A synchronous protocol client for one shard server address.

    Not thread-safe — callers serialize (a
    :class:`~repro.service.router.ShardWorker` confines each
    :class:`RemoteShard`, and so its client, to one lane).
    """

    def __init__(self, address: str, timeout_ms: Optional[float] = None,
                 retries: Optional[int] = None,
                 client_id: Optional[str] = None):
        self.address = address
        self.host, self.port = parse_address(address)
        self.timeout_ms = (default_net_timeout_ms() if timeout_ms is None
                           else float(timeout_ms))
        self.retries = (default_net_retries() if retries is None
                        else int(retries))
        self.client_id = client_id or uuid.uuid4().hex[:12]
        self._sequence = 0
        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder()
        self.reconnects = 0
        self.retried_requests = 0

    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        self._sequence += 1
        return f"{self.client_id}:{self._sequence}"

    def _connected(self) -> socket.socket:
        if self._sock is None:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_ms / 1e3
                )
            except OSError as error:
                raise TransportError(
                    f"cannot connect to shard server {self.address}: {error}"
                ) from None
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._decoder = FrameDecoder()
        return self._sock

    def close_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._decoder = FrameDecoder()

    def _attempt(self, request: dict) -> dict:
        """One send/receive round; raises :class:`TransportError`."""
        sock = self._connected()
        send_frame(sock, request)
        deadline = time.monotonic() + self.timeout_ms / 1e3
        while True:
            try:
                reply = recv_frame(sock, self._decoder, deadline)
            except FrameError:
                continue  # one damaged reply frame; keep waiting
            if isinstance(reply, dict) and reply.get("id") == request["id"]:
                return reply
            # A stale reply (e.g. the reply to a request whose send we
            # already retried and matched): skip it, keep waiting.

    def request(self, payload: dict, retryable: bool = True) -> object:
        """One request; returns the op result or raises the op's error.

        Transport failures reconnect and resend the **same id** with
        capped exponential backoff (the server's dedup memory makes that
        exactly-once); the request fails with :class:`TransportError`
        only after the retry budget is exhausted.
        """
        request = dict(payload)
        request["id"] = self._next_id()
        attempts = (self.retries + 1) if retryable else 1
        last_error: Optional[TransportError] = None
        for attempt in range(1, attempts + 1):
            try:
                reply = self._attempt(request)
            except TransportError as error:
                last_error = error
                self.close_socket()
                if attempt < attempts:
                    self.retried_requests += 1
                    self.reconnects += 1
                    time.sleep(backoff_ms(attempt) / 1e3)
                continue
            if reply.get("ok"):
                return reply.get("result")
            raise error_from_wire(reply.get("error"))
        raise TransportError(
            f"request to {self.address} failed after {attempts} "
            f"attempt(s): {last_error}"
        )

    # ------------------------------------------------------------------
    # Typed ops
    # ------------------------------------------------------------------
    def configure(self, shard: str, config: dict) -> dict:
        return self.request({"op": "configure", "shard": shard,
                             "config": config})

    def submit_job(self, shard: str, job: SessionJob,
                   saturation_patience_ms: Optional[float] = None,
                   wire_job: Optional[dict] = None):
        """Execute *job* on the named shard; returns the decoded result.

        *wire_job* is the job's wire spec when the caller already built
        it (:func:`~repro.service.net.frames.job_to_wire`).

        A ``shard_saturated`` reply means the job was rejected before
        execution: honor the server's ``retry_after_ms`` hint and
        resubmit (as a fresh request) until *saturation_patience_ms* is
        spent, then surface the
        :class:`~repro.service.router.ShardSaturatedError`.
        """
        if saturation_patience_ms is None:
            saturation_patience_ms = self.timeout_ms
        if wire_job is None:
            wire_job = job_to_wire(job)
        waited_ms = 0.0
        while True:
            try:
                result = self.request({"op": "submit", "shard": shard,
                                       "job": wire_job})
            except ShardSaturatedError as saturated:
                wait_ms = min(max(saturated.retry_after_ms, 1.0),
                              BACKOFF_CAP_MS)
                if waited_ms + wait_ms > saturation_patience_ms:
                    raise
                time.sleep(wait_ms / 1e3)
                waited_ms += wait_ms
                continue
            return result_from_wire(result)

    def stats(self, shard: str) -> dict:
        return self.request({"op": "stats", "shard": shard})

    def probe(self, kind: str = "live") -> dict:
        return self.request({"op": "probe", "kind": kind})

    def checkpoint(self, shard: str, database: str) -> dict:
        return self.request({"op": "checkpoint", "shard": shard,
                             "database": database})

    def restore(self, shard: str, database: str, payload: dict) -> dict:
        return self.request({"op": "restore", "shard": shard,
                             "database": database, "payload": payload})

    def release(self, shards: List[str]) -> dict:
        return self.request({"op": "release", "shards": list(shards)})

    def drain(self) -> dict:
        return self.request({"op": "drain"})

    def stall(self, shard: str, ms: float,
              retryable: bool = False) -> dict:
        return self.request({"op": "stall", "shard": shard, "ms": ms},
                            retryable=retryable)

    def close(self) -> None:
        self.close_socket()


class RemoteShard:
    """One session-namespaced shard on a shard server, recoverable.

    The first operation lazily sends a ``configure`` request creating
    the shard with this session's maintenance knobs; ``close`` releases
    it server-side (the *server* stays up — it belongs to the fleet,
    not to one session).  Not thread-safe: a
    :class:`~repro.service.router.ShardWorker` confines it, and that
    lane is the only thread touching its recovery material.

    The material is kept per database: the *origin* (the spec of its
    acknowledged attach, serialized once, or the last checkpoint taken)
    plus the *journal* of updates acknowledged since.  A journal that
    reaches :data:`JOURNAL_LIMIT` is re-based on a fresh checkpoint.
    With *replacement_for* given (a callable mapping a dead address to
    the address taking over, or ``None``), a job that fails with a
    :class:`~repro.service.net.frames.TransportError` moves the shard
    to the replacement, rebuilds every database there from its origin
    plus journal, and is resubmitted once.  The failed job was never
    acknowledged, so it is in no journal: exactly-once holds with
    respect to the rebuilt state.  :meth:`handoff` moves the shard to a
    live address from fresh checkpoints instead.
    """

    def __init__(self, address: str, shard: str = "shard0",
                 config: Optional[dict] = None,
                 timeout_ms: Optional[float] = None,
                 retries: Optional[int] = None,
                 replacement_for: Optional[
                     Callable[[str], Optional[str]]] = None):
        self._timeout_ms = timeout_ms
        self._retries = retries
        self._replacement_for = replacement_for
        self.shard = shard
        self._config = dict(config or {})
        self._origins: Dict[str, dict] = {}
        self._journals: Dict[str, List[Update]] = {}
        self.truncations = 0
        self._connect(address)

    def _connect(self, address: str) -> None:
        self._client = ShardClient(address, timeout_ms=self._timeout_ms,
                                   retries=self._retries)
        self.address = address
        self._configured = False

    def _ensure_configured(self) -> None:
        if not self._configured:
            self._client.configure(self.shard, self._config)
            self._configured = True

    def _submit(self, job: SessionJob, wire: Optional[dict]):
        self._ensure_configured()
        return self._client.submit_job(self.shard, job, wire_job=wire)

    def execute(self, job: SessionJob):
        # An attach is serialized once: the spec it ships is also its
        # origin.  Other jobs serialize per attempt (a count's spec
        # carries its queue wait as of sending).
        wire = job_to_wire(job) if isinstance(job, AttachDatabase) else None
        try:
            result = self._submit(job, wire)
        except TransportError:
            if self._replacement_for is None:
                raise
            self._fail_over(SessionRouter.database_of(job))
            result = self._submit(job, wire)
        self._record(job, wire)
        return result

    def _record(self, job: SessionJob, wire: Optional[dict]) -> None:
        """Keep an acknowledged job as recovery material."""
        if wire is not None:
            self._origins[job.name] = {
                "database": job.name, "relations": wire["relations"],
                "total_tuples": job.database.total_tuples(),
            }
            self._journals[job.name] = []
        elif isinstance(job, UpdateRequest):
            journal = self._journals.setdefault(job.database, [])
            journal.append(job.update)
            if len(journal) >= JOURNAL_LIMIT:
                self._rebase(job.database)

    def _rebase(self, database: str) -> None:
        """Replace *database*'s origin and journal by a fresh checkpoint.

        A transport failure leaves the old origin and the longer
        journal, still a complete recovery recipe; the next
        acknowledged update tries again.
        """
        try:
            checkpoint = self._client.checkpoint(self.shard, database)
        except TransportError:
            return
        self._origins[database] = checkpoint
        self._journals[database] = []
        self.truncations += 1

    def _rebuild(self) -> None:
        """Restore every database on the current address from its
        origin, then replay its journal in acknowledgement order."""
        self._ensure_configured()
        for database, origin in self._origins.items():
            self._client.restore(self.shard, database, origin)
            for update in self._journals[database]:
                self._client.submit_job(self.shard,
                                        UpdateRequest(database, update))

    def _fail_over(self, database: str) -> None:
        """Move this shard off its dead address and rebuild it there."""
        dead = self.address
        if database not in self._origins:
            raise TransportError(
                f"shard server {dead} died before database {database!r} "
                f"recorded an origin checkpoint"
            )
        replacement = self._replacement_for(dead)
        if replacement is None:
            raise TransportError(
                f"shard server {dead} died and no standby or surviving "
                f"primary is available"
            )
        self._client.close()
        # Moved before the rebuild: should the replacement die too, the
        # next job fails over from it, from the same material.
        self._connect(replacement)
        self._rebuild()

    def handoff(self, database: str, to_address: str) -> dict:
        """Move this shard, with every database on it, to *to_address*.

        Checkpoints each database here, restores them there and
        releases the source copy.  The fresh checkpoints hold every
        acknowledged update, so they become the origins and the
        journals empty: nothing is replayed, lost or doubled.  Returns
        the move's provenance; ``paused_s`` is the whole
        checkpoint-ship-restore window.
        """
        started = time.monotonic()
        source = self.address
        if database not in self._origins:
            raise ReproError(f"database {database!r} is not attached")
        move = {"database": database, "from": source, "to": to_address,
                "moved": to_address != source}
        if not move["moved"]:
            return {**move, "paused_s": 0.0}
        checkpoints = {name: self._client.checkpoint(self.shard, name)
                       for name in self._origins}
        self._origins = checkpoints
        self._journals = {name: [] for name in checkpoints}
        left = self._client
        self._connect(to_address)
        try:
            self._rebuild()
        except BaseException:
            _release_quietly(self._client, self.shard)
            self._client, self.address, self._configured = left, source, True
            raise
        _release_quietly(left, self.shard)
        return {**move,
                "total_tuples": sum(checkpoint["total_tuples"]
                                    for checkpoint in checkpoints.values()),
                "paused_s": time.monotonic() - started}

    def stats(self) -> dict:
        self._ensure_configured()
        stats = self._client.stats(self.shard)
        stats["truncations"] = self.truncations
        stats["journal_depths"] = {database: len(journal) for database,
                                   journal in self._journals.items()}
        return stats

    def close(self) -> None:
        try:
            if self._configured:
                self._client.release([self.shard])
        finally:
            self._client.close()


def _release_quietly(client: ShardClient, shard: str) -> None:
    """Release *shard* on *client*'s server if it still answers, then
    close the client (a dead server has nothing left to release)."""
    try:
        client.release([shard])
    except (ReproError, ValueError):
        pass
    finally:
        client.close()
