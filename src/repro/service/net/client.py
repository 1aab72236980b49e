"""Clients of the shard server: request/response plus the handle contract.

:class:`ShardClient` is the low-level synchronous protocol client: one
TCP connection, framed request/response with per-request timeouts and
capped exponential-backoff retries.  Retries are safe for *every* op —
not just idempotent reads — because a retry resends the **same request
id** and the server deduplicates: a job whose reply was lost is answered
from the server's reply memory, never re-executed.  Saturation
(``shard_saturated`` replies) is handled separately: the job was *not*
executed, so the client waits out the server's ``retry_after_ms`` hint
and resubmits under a fresh id, up to a bounded patience.

:class:`RemoteShardHandle` wraps a client in the exact handle contract
the in-process shard modes implement (``submit``/``submit_stats``/
``close`` plus the ``close_errors`` accounting), confined to a private
single-worker executor so per-shard submission order is preserved —
which is what lets :class:`~repro.service.router.MultiWriterSession`
treat ``shard_mode='tcp'`` exactly like its thread and process modes.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from typing import List, Optional

from ...envknobs import env_float, env_int
from ..router import ShardSaturatedError
from ..session import SessionJob
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

    Not thread-safe — callers serialize (both
    :class:`RemoteShardHandle` and the directory confine each client).
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
                   saturation_patience_ms: Optional[float] = None):
        """Execute *job* on the named shard; returns the decoded result.

        A ``shard_saturated`` reply means the job was rejected before
        execution: honor the server's ``retry_after_ms`` hint and
        resubmit (as a fresh request) until *saturation_patience_ms* is
        spent, then surface the
        :class:`~repro.service.router.ShardSaturatedError`.
        """
        if saturation_patience_ms is None:
            saturation_patience_ms = self.timeout_ms
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


class RemoteShardHandle:
    """The shard-handle contract over a :class:`ShardClient`.

    ``submit``/``submit_stats`` return futures resolved by a private
    single-worker executor — the per-shard serialization point, exactly
    like the thread and process handles.  The first operation lazily
    sends a ``configure`` request creating the (session-namespaced)
    shard with this session's maintenance knobs; ``close`` releases the
    shard server-side (the *server* stays up — it belongs to the fleet,
    not to one session).
    """

    def __init__(self, address: str, shard: str = "shard0",
                 config: Optional[dict] = None,
                 timeout_ms: Optional[float] = None,
                 retries: Optional[int] = None):
        self._client = ShardClient(address, timeout_ms=timeout_ms,
                                   retries=retries)
        self.address = address
        self.shard = shard
        self._config = dict(config or {})
        self._configured = False
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"remote-{shard}"
        )
        self._close_lock = threading.Lock()
        self._closed = False
        self.close_errors = 0
        self.last_close_error: Optional[str] = None

    # All private methods below run on the handle's pool thread only.
    def _ensure_configured(self) -> None:
        if not self._configured:
            self._client.configure(self.shard, self._config)
            self._configured = True

    def _execute(self, job: SessionJob):
        self._ensure_configured()
        return self._client.submit_job(self.shard, job)

    def _stats(self) -> dict:
        self._ensure_configured()
        return self._client.stats(self.shard)

    def _release(self) -> None:
        if self._configured:
            self._client.release([self.shard])
        self._client.close()

    def submit(self, job: SessionJob) -> Future:
        return self._pool.submit(self._execute, job)

    def submit_stats(self) -> Future:
        return self._pool.submit(self._stats)

    def close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._pool.submit(self._release).result()
        except Exception as error:
            # An unreachable server must not abort session shutdown —
            # but the failure is counted, not dropped (see router
            # stats()).
            self.close_errors += 1
            self.last_close_error = repr(error)
        self._pool.shutdown()
