"""Fault injection for the networked shard fabric.

A :class:`FaultyTransport` is a frame-aware TCP proxy: clients connect
to it instead of the shard server, and it forwards frames while
injecting a deterministic :class:`FaultPlan` — dropping, delaying,
duplicating, truncating, or corrupting every Nth frame, or severing the
connection outright.  Determinism matters: chaos tests must fail
reproducibly, so faults are driven by a global frame counter, never by
randomness.

What each fault exercises (the failure matrix the tests pin down):

=============  ====================================================
fault          what must absorb it
=============  ====================================================
drop           client timeout -> same-id retry -> server dedup
delay          per-request timeouts (and nothing else)
duplicate      server reply memory answers the repeat, no re-execute
truncate       decoder checksum + magic resync; lost frame retried
corrupt        decoder checksum; frame dropped, connection survives
sever          client reconnect + same-id retry -> server dedup
kill (server)  directory failover: origin snapshot + journal replay
=============  ====================================================

Frames are re-framed (decoded, re-encoded) on the way through, so the
proxy injects faults on *frame boundaries* — exactly the unit the codec
must defend.  Process-level death is not simulated here:
:meth:`ShardServer.kill` (in-process) and
:meth:`ShardServerProcess.kill` (SIGKILL) cover it.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from .frames import (
    HEADER_SIZE,
    FrameDecoder,
    FrameError,
    encode_frame,
    parse_address,
)

#: Pump-side receive chunk.
_CHUNK = 1 << 16


@dataclass
class FaultPlan:
    """Deterministic every-Nth-frame faults (0 disables a fault).

    Counters are global across both directions and all connections, so
    a plan with several faults interleaves them deterministically.
    ``direction`` restricts injection: ``"c2s"`` (requests), ``"s2c"``
    (replies), or ``"both"``.
    """

    drop_every: int = 0
    delay_every: int = 0
    delay_ms: float = 0.0
    duplicate_every: int = 0
    truncate_every: int = 0
    corrupt_every: int = 0
    sever_every: int = 0
    direction: str = "both"

    def wants(self, direction: str) -> bool:
        return self.direction in ("both", direction)


class _Connection:
    """One proxied client connection: two frame pumps."""

    def __init__(self, proxy: "FaultyTransport", client: socket.socket):
        self.proxy = proxy
        self.client = client
        self.upstream = socket.create_connection(
            (proxy.upstream_host, proxy.upstream_port), timeout=30,
        )
        self.upstream.settimeout(None)
        self.client.settimeout(None)
        self._dead = threading.Event()
        for name, source, sink, direction in (
            ("c2s", client, self.upstream, "c2s"),
            ("s2c", self.upstream, client, "s2c"),
        ):
            threading.Thread(
                target=self._pump, args=(source, sink, direction),
                name=f"chaos-{name}", daemon=True,
            ).start()

    def sever(self) -> None:
        if self._dead.is_set():
            return
        self._dead.set()
        for sock in (self.client, self.upstream):
            try:
                sock.close()
            except OSError:
                pass
        self.proxy._forget(self)

    def _pump(self, source: socket.socket, sink: socket.socket,
              direction: str) -> None:
        decoder = FrameDecoder()
        try:
            while not self._dead.is_set():
                frame = self._next_frame(source, decoder)
                if frame is _EOF:
                    break
                if not self.proxy._forward(self, sink, frame, direction):
                    break
        finally:
            self.sever()

    def _next_frame(self, source: socket.socket, decoder: FrameDecoder):
        while True:
            try:
                frame = decoder.next_frame()
            except FrameError:  # pragma: no cover - upstream is clean
                continue
            if frame is not None:
                return frame
            try:
                chunk = source.recv(_CHUNK)
            except OSError:
                return _EOF
            if not chunk:
                return _EOF
            decoder.feed(chunk)


_EOF = object()


class FaultyTransport:
    """A deterministic fault-injecting TCP proxy in front of a server.

    Usable from tests (point clients at ``proxy.address``) and from the
    benchmark's ``--chaos`` flag.  ``counters`` reports what was
    injected, so tests can assert the chaos actually happened.
    """

    def __init__(self, upstream: str, plan: Optional[FaultPlan] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.upstream = upstream
        self.upstream_host, self.upstream_port = parse_address(upstream)
        self.plan = plan or FaultPlan()
        self._lock = threading.Lock()
        self._frames = 0
        self._counters: Dict[str, int] = {
            "forwarded": 0, "dropped": 0, "delayed": 0, "duplicated": 0,
            "truncated": 0, "corrupted": 0, "severed": 0,
        }
        self._connections: set = set()
        self._closed = False
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        proxy_host, proxy_port = self._listener.getsockname()[:2]
        self.address = f"{proxy_host}:{proxy_port}"
        threading.Thread(target=self._accept_loop, name="chaos-accept",
                         daemon=True).start()

    # ------------------------------------------------------------------
    @property
    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters, frames=self._frames)

    def _accept_loop(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            try:
                connection = _Connection(self, client)
            except OSError:
                client.close()
                continue
            with self._lock:
                if self._closed:
                    connection.sever()
                    return
                self._connections.add(connection)

    def _forget(self, connection: _Connection) -> None:
        with self._lock:
            self._connections.discard(connection)

    def _count(self, key: str) -> None:
        with self._lock:
            self._counters[key] += 1

    def _forward(self, connection: _Connection, sink: socket.socket,
                 frame: object, direction: str) -> bool:
        """Apply the plan to one frame; ``False`` ends the pump."""
        plan = self.plan
        raw = encode_frame(frame)
        if plan.wants(direction):
            with self._lock:
                self._frames += 1
                n = self._frames
            if plan.sever_every and n % plan.sever_every == 0:
                self._count("severed")
                connection.sever()
                return False
            if plan.drop_every and n % plan.drop_every == 0:
                self._count("dropped")
                return True
            if plan.delay_every and n % plan.delay_every == 0:
                self._count("delayed")
                time.sleep(plan.delay_ms / 1e3)
            if plan.truncate_every and n % plan.truncate_every == 0:
                self._count("truncated")
                raw = raw[:max(HEADER_SIZE // 2, len(raw) // 2)]
            elif plan.corrupt_every and n % plan.corrupt_every == 0:
                self._count("corrupted")
                mutable = bytearray(raw)
                # Flip one payload byte: the checksum must catch it.
                index = HEADER_SIZE + (len(mutable) - HEADER_SIZE) // 2
                mutable[index] ^= 0xFF
                raw = bytes(mutable)
            if plan.duplicate_every and n % plan.duplicate_every == 0:
                self._count("duplicated")
                raw = raw + raw
        try:
            sink.sendall(raw)
        except OSError:
            return False
        self._count("forwarded")
        return True

    def close(self) -> None:
        with self._lock:
            self._closed = True
            connections = list(self._connections)
            self._connections.clear()
        try:
            self._listener.close()
        except OSError:
            pass
        for connection in connections:
            connection.sever()

    def __enter__(self) -> "FaultyTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
