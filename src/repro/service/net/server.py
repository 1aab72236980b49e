"""The shard server: SessionShards behind a TCP socket.

A :class:`ShardServer` hosts any number of named
:class:`~repro.service.shard.SessionShard` cores.  Each core is
confined to its own single-worker executor — the queue *is* the
serialization point, exactly as in the in-process shard modes — while
connections are handled by one thread each, so many clients can talk to
many shards of one server concurrently.

Protocol (one request frame in, one response frame out; see
:mod:`repro.service.net.frames` for the codec)::

    {"id": "<client>:<seq>", "op": ..., "shard": ..., ...}
    -> {"id": ..., "ok": true,  "result": {...}}
     | {"id": ..., "ok": false, "error": {"type": ..., ...}}

Ops: ``configure`` (create a shard with explicit knobs), ``submit``
(execute one session job), ``stats``, ``probe`` (readiness/liveness),
``checkpoint`` / ``restore`` (graceful-handoff snapshots as plain JSON
data — never pickles), ``release`` (drop a session's namespaced shards),
``drain`` (graceful: finish queued work, refuse new submits), and —
only when ``allow_chaos`` — ``stall`` (occupy a shard for a bounded
time; the deterministic way tests saturate a remote queue).

**Exactly-once under retries.**  Every request carries a client-unique
id; the server remembers the last replies per client and serves a
repeated id from that memory instead of re-executing.  That single
mechanism is what makes *every* op — updates included — safe to resend
after a dropped frame, a severed connection, or a lost reply, which in
turn is why the fault-injection harness can demand bit-identical
results under chaos.

Admission mirrors the in-process front end: with ``max_pending`` set, a
shard whose queue is full rejects the request with a
``shard_saturated`` error carrying a ``retry_after_ms`` hint (queue
depth times the shard's smoothed completion latency), which the client
reconstructs as a genuine
:class:`~repro.service.router.ShardSaturatedError`.
"""

from __future__ import annotations

import os
import re
import socket
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Set

from ...counting.plan_cache import PersistentPlanCache, PlanCache
from ...dynamic.maintainer import BUDGET_FROM_ENV
from ...exceptions import ReproError
from ..router import DEFAULT_RETRY_AFTER_MS, ShardSaturatedError
from ..shard import SessionShard
from .frames import (
    FrameDecoder,
    FrameError,
    TransportError,
    error_to_wire,
    job_from_wire,
    recv_frame,
    result_to_wire,
    send_frame,
)
from .kv import PlanCacheKVServer, RemotePlanCache

#: Per-client bound on remembered replies (retries arrive promptly; a
#: client never has more than a handful of requests in flight).
REPLY_CACHE_SIZE = 1024

#: Shard-core config keys a ``configure`` request may set.
CONFIGURABLE_KEYS = frozenset({
    "maintain", "maintainer_capacity", "maintainer_budget_bytes",
    "maintainer_spill_dir", "maintain_reduced", "reduced_max_width",
})

_READY_LINE = re.compile(
    r"shardserver listening on (?P<address>[^\s]+:\d+)"
)


class _ShardCore:
    """One hosted shard: the core, its executor, and admission state."""

    def __init__(self, index: int, name: str, shard: SessionShard):
        self.index = index
        self.name = name
        self.shard = shard
        self.pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"shardcore-{index}"
        )
        self.pending = 0
        self.latency_ms: Optional[float] = None


class ShardServer:
    """Host :class:`SessionShard` cores over TCP.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` picks an ephemeral port (the bound
        address is ``self.address``).
    shards:
        How many default cores (``shard0`` ... ``shardN-1``) to create
        eagerly.  Further cores are created lazily by name — the
        sharded front end namespaces its cores per session
        (``<session>/shard<i>``), so many sessions share one server
        without colliding.
    max_pending:
        Per-core admission bound (``None`` admits unboundedly).
    cache_dir:
        Plan spill directory; the server's shards share a
        :class:`~repro.counting.plan_cache.PersistentPlanCache` over it
        **and** the directory is served to the fleet through an HTTP/KV
        endpoint (``self.kv_url``).
    cache_url:
        Consume another server's KV endpoint instead (mutually
        beneficial with *cache_dir* on the serving side); plans spill
        locally to *cache_dir* (or stay memory-only) when the endpoint
        errors.
    allow_chaos:
        Enable the ``stall`` op (tests and the ``--chaos`` benchmark).
    shard_defaults:
        Default :class:`SessionShard` keyword arguments for cores
        created without an explicit ``configure`` (whitelisted by
        :data:`CONFIGURABLE_KEYS`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 shards: int = 1, max_pending: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 cache_url: Optional[str] = None,
                 allow_chaos: bool = False,
                 shard_defaults: Optional[dict] = None,
                 label: Optional[str] = None):
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = max_pending
        self.allow_chaos = allow_chaos
        self.label = label
        self._shard_defaults = dict(shard_defaults or {})
        unknown = set(self._shard_defaults) - CONFIGURABLE_KEYS
        if unknown:
            raise ValueError(f"unknown shard defaults: {sorted(unknown)}")
        self._started_at = time.monotonic()
        self._lock = threading.Lock()
        self._cores: Dict[str, _ShardCore] = {}
        self._core_counter = 0
        self._replies: Dict[str, "OrderedDict[str, dict]"] = {}
        self._draining = False
        self._closed = False
        self.frames_rejected = 0
        self.requests_served = 0
        self.requests_deduped = 0
        #: Shard ``close()`` failures observed while releasing/draining.
        #: A failed close is survivable (the shard is discarded either
        #: way) but must not vanish: it is counted here and surfaced in
        #: stats and drain replies, mirroring the close-error accounting
        #: on in-process handles.
        self.close_errors = 0
        self.last_close_error: Optional[str] = None

        # The plan-cache tier shared by this server's cores.
        self.kv: Optional[PlanCacheKVServer] = None
        if cache_url:
            self.plan_cache: PlanCache = RemotePlanCache(
                cache_url, fallback_dir=cache_dir, label=label
            )
        elif cache_dir:
            self.plan_cache = PersistentPlanCache(cache_dir, label=label)
            self.kv = PlanCacheKVServer(cache_dir, host=host)
        else:
            self.plan_cache = PlanCache(label=label)

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self.host, self.port = self._listener.getsockname()[:2]
        self.address = f"{self.host}:{self.port}"
        self._connections: Set[socket.socket] = set()

        for index in range(shards):
            self._core(f"shard{index}")

        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"shardserver-{self.port}",
            daemon=True,
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------
    @property
    def kv_url(self) -> Optional[str]:
        """The plan-cache KV endpoint, when this server serves one."""
        return self.kv.url if self.kv is not None else None

    def shard_names(self) -> List[str]:
        with self._lock:
            return sorted(self._cores)

    def _core(self, name: str, config: Optional[dict] = None) -> _ShardCore:
        """The named core, created on first use (under the lock)."""
        with self._lock:
            core = self._cores.get(name)
            if core is not None:
                return core
            if self._closed:
                raise ReproError("shard server is closed")
            kwargs = dict(self._shard_defaults)
            if config:
                unknown = set(config) - CONFIGURABLE_KEYS
                if unknown:
                    raise ReproError(
                        f"cannot configure shard keys {sorted(unknown)}"
                    )
                kwargs.update(config)
            index = self._core_counter
            self._core_counter += 1
            shard = SessionShard(plan_cache=self.plan_cache,
                                 label=name, **kwargs)
            core = _ShardCore(index, name, shard)
            self._cores[name] = core
            return core

    def _retry_after_ms(self, core: _ShardCore) -> float:
        if core.latency_ms is None:
            return DEFAULT_RETRY_AFTER_MS
        return max(core.pending * core.latency_ms, 1.0)

    def _run_on_core(self, core: _ShardCore, fn, *args):
        """Run *fn* on the core's executor with admission accounting."""
        with self._lock:
            if (self.max_pending is not None
                    and core.pending >= self.max_pending):
                raise ShardSaturatedError(
                    core.index, core.pending, self._retry_after_ms(core)
                )
            core.pending += 1
        started = time.monotonic()
        try:
            return core.pool.submit(fn, *args).result()
        finally:
            elapsed_ms = (time.monotonic() - started) * 1e3
            with self._lock:
                core.pending -= 1
                core.latency_ms = (
                    elapsed_ms if core.latency_ms is None
                    else 0.2 * elapsed_ms + 0.8 * core.latency_ms
                )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._closed:
                    connection.close()
                    return
                self._connections.add(connection)
            threading.Thread(target=self._serve_connection,
                             args=(connection,), daemon=True).start()

    def _serve_connection(self, connection: socket.socket) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                try:
                    request = recv_frame(connection, decoder)
                except FrameError:
                    # One damaged frame: the sender retries; keep the
                    # connection (and every later frame) alive.
                    with self._lock:
                        self.frames_rejected += 1
                    continue
                except TransportError:
                    return  # closed or reset
                reply = self._handle(request)
                try:
                    send_frame(connection, reply)
                except TransportError:
                    return
        finally:
            with self._lock:
                self._connections.discard(connection)
            try:
                connection.close()
            except OSError:
                pass

    def _remember_reply(self, request_id: str, reply: dict) -> None:
        client = request_id.rsplit(":", 1)[0]
        with self._lock:
            cache = self._replies.setdefault(client, OrderedDict())
            cache[request_id] = reply
            while len(cache) > REPLY_CACHE_SIZE:
                cache.popitem(last=False)

    def _cached_reply(self, request_id: str) -> Optional[dict]:
        client = request_id.rsplit(":", 1)[0]
        with self._lock:
            cache = self._replies.get(client)
            if cache is None:
                return None
            return cache.get(request_id)

    def _handle(self, request: object) -> dict:
        if not isinstance(request, dict):
            return {"id": None, "ok": False,
                    "error": {"type": "TransportError",
                              "message": "request frame is not an object"}}
        request_id = request.get("id")
        if isinstance(request_id, str):
            cached = self._cached_reply(request_id)
            if cached is not None:
                with self._lock:
                    self.requests_deduped += 1
                return cached
        try:
            result = self._dispatch(request)
            reply = {"id": request_id, "ok": True, "result": result}
        except BaseException as error:
            reply = {"id": request_id, "ok": False,
                     "error": error_to_wire(error)}
        if isinstance(request_id, str):
            self._remember_reply(request_id, reply)
        with self._lock:
            self.requests_served += 1
        return reply

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _dispatch(self, request: dict):
        op = request.get("op")
        if op == "probe":
            return self._op_probe(request)
        if op == "submit":
            return self._op_submit(request)
        if op == "stats":
            return self._op_stats(request)
        if op == "configure":
            return self._op_configure(request)
        if op == "checkpoint":
            return self._op_checkpoint(request)
        if op == "restore":
            return self._op_restore(request)
        if op == "release":
            return self._op_release(request)
        if op == "drain":
            return self._op_drain(request)
        if op == "stall":
            return self._op_stall(request)
        raise ReproError(f"unknown op {op!r}")

    def _shard_name(self, request: dict) -> str:
        name = request.get("shard")
        if not isinstance(name, str) or not name:
            raise ReproError("request names no shard")
        return name

    def _refuse_if_draining(self) -> None:
        with self._lock:
            if self._draining:
                raise ReproError(
                    "shard server is draining; no new jobs accepted"
                )

    def _op_probe(self, request: dict) -> dict:
        kind = request.get("kind", "live")
        if kind == "ready":
            with self._lock:
                ready = not self._draining and not self._closed
                shards = sorted(self._cores)
                draining = self._draining
            return {"ready": ready, "draining": draining, "shards": shards}
        if kind == "live":
            return {
                "alive": True,
                "pid": os.getpid(),
                "uptime_s": time.monotonic() - self._started_at,
            }
        raise ReproError(f"unknown probe kind {kind!r}")

    def _op_configure(self, request: dict) -> dict:
        self._refuse_if_draining()
        name = self._shard_name(request)
        config = request.get("config")
        if config is not None and not isinstance(config, dict):
            raise ReproError("configure config must be an object")
        with self._lock:
            existed = name in self._cores
        if existed:
            # First writer wins; reconfiguring a live core would lose
            # state.  The caller treats this as success (idempotent
            # retries land here too).
            return {"shard": name, "configured": False, "existing": True}
        self._core(name, config)
        return {"shard": name, "configured": True, "existing": False}

    def _op_submit(self, request: dict) -> dict:
        self._refuse_if_draining()
        name = self._shard_name(request)
        job = job_from_wire(request.get("job"))
        core = self._core(name)
        result = self._run_on_core(core, core.shard.execute, job)
        return result_to_wire(result)

    def _op_stats(self, request: dict) -> dict:
        name = self._shard_name(request)
        core = self._core(name)
        stats = self._run_on_core(core, core.shard.stats)
        with self._lock:
            stats["server"] = {
                "address": self.address,
                "label": self.label,
                "shards_hosted": len(self._cores),
                "draining": self._draining,
                "frames_rejected": self.frames_rejected,
                "requests_served": self.requests_served,
                "requests_deduped": self.requests_deduped,
                "close_errors": self.close_errors,
                "last_close_error": self.last_close_error,
                "pending": core.pending,
                "max_pending": self.max_pending,
                "kv_url": self.kv_url,
            }
        return stats

    def _op_checkpoint(self, request: dict) -> dict:
        name = self._shard_name(request)
        database = request.get("database")
        if not isinstance(database, str):
            raise ReproError("checkpoint names no database")
        core = self._core(name)
        return self._run_on_core(core, core.shard.checkpoint_database,
                                 database)

    def _op_restore(self, request: dict) -> dict:
        self._refuse_if_draining()
        name = self._shard_name(request)
        database = request.get("database")
        if not isinstance(database, str):
            raise ReproError("restore names no database")
        core = self._core(name)
        ack = self._run_on_core(core, core.shard.restore_database,
                                database, request.get("payload"))
        return {"database": database, "restored": True,
                "total_tuples": ack["total_tuples"],
                "replaced": ack["replaced"]}

    def _record_close_error(self, shard_name: str, error: Exception) -> None:
        with self._lock:
            self.close_errors += 1
            self.last_close_error = f"{shard_name}: {error}"

    def _op_release(self, request: dict) -> dict:
        shards = request.get("shards")
        if not isinstance(shards, list):
            raise ReproError("release names no shards")
        released = []
        failed = 0
        for name in shards:
            with self._lock:
                core = self._cores.pop(name, None)
            if core is None:
                continue
            try:
                core.pool.submit(core.shard.close).result()
            except Exception as error:
                # The shard is discarded regardless, but the failure is
                # accounted (server totals + this reply), not swallowed.
                failed += 1
                self._record_close_error(name, error)
            core.pool.shutdown(wait=False)
            released.append(name)
        reply = {"released": sorted(released)}
        if failed:
            with self._lock:
                reply["close_errors"] = failed
                reply["last_close_error"] = self.last_close_error
        return reply

    def _op_drain(self, request: dict) -> dict:
        with self._lock:
            self._draining = True
            cores = list(self._cores.values())
        # Barrier through every core's queue: when these no-ops run, all
        # previously queued jobs have finished.
        for core in cores:
            core.pool.submit(lambda: None).result()
        with self._lock:
            return {"drained": True, "shards": len(cores),
                    "close_errors": self.close_errors,
                    "last_close_error": self.last_close_error}

    def _op_stall(self, request: dict) -> dict:
        if not self.allow_chaos:
            raise ReproError(
                "stall is a chaos op; start the server with allow_chaos"
            )
        name = self._shard_name(request)
        try:
            stall_ms = float(request.get("ms", 0))
        except (TypeError, ValueError):
            raise ReproError("stall ms must be a number") from None
        stall_ms = min(max(stall_ms, 0.0), 60_000.0)
        core = self._core(name)
        self._run_on_core(core, time.sleep, stall_ms / 1e3)
        return {"shard": name, "stalled_ms": stall_ms}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> dict:
        """Graceful drain: finish queued work, refuse new submits."""
        return self._op_drain({})

    def kill(self) -> None:
        """Die abruptly: sever every connection, drop all shard state.

        The in-process stand-in for ``kill -9`` on a shard server —
        clients see reset connections, and nothing the server held
        survives.  Tests use it to force checkpoint-handoff recovery.
        """
        with self._lock:
            self._closed = True
            connections = list(self._connections)
            self._connections.clear()
            cores = list(self._cores.values())
            self._cores.clear()
        try:
            self._listener.close()
        except OSError:
            pass
        for connection in connections:
            try:
                connection.close()
            except OSError:
                pass
        for core in cores:
            core.pool.shutdown(wait=False, cancel_futures=True)
        if self.kv is not None:
            self.kv.close()

    def close(self) -> None:
        """Graceful shutdown: drain, close cores, stop listening."""
        with self._lock:
            if self._closed:
                return
            self._draining = True
        self.drain()
        with self._lock:
            self._closed = True
            cores = list(self._cores.items())
            self._cores.clear()
            connections = list(self._connections)
            self._connections.clear()
        for name, core in cores:
            try:
                core.pool.submit(core.shard.close).result()
            except Exception as error:
                self._record_close_error(name, error)
            core.pool.shutdown(wait=False)
        try:
            self._listener.close()
        except OSError:
            pass
        for connection in connections:
            try:
                connection.close()
            except OSError:
                pass
        if self.kv is not None:
            self.kv.close()

    def __enter__(self) -> "ShardServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Subprocess servers (benchmarks, CLI-driven tests)
# ----------------------------------------------------------------------
class ShardServerProcess:
    """A ``python -m repro shardserver`` subprocess and its address."""

    def __init__(self, process: subprocess.Popen, address: str):
        self.process = process
        self.address = address

    def kill(self) -> None:
        """SIGKILL — the real mid-stream shard death."""
        self.process.kill()
        self.process.wait(timeout=10)

    def terminate(self) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.kill()

    def __enter__(self) -> "ShardServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.terminate()


def spawn_shard_server(extra_args: Optional[List[str]] = None,
                       timeout_s: float = 30.0) -> ShardServerProcess:
    """Start ``python -m repro shardserver --listen 127.0.0.1:0`` and
    wait for its ready line; returns the process plus its bound address.

    The subprocess inherits the environment with ``PYTHONPATH`` extended
    to include this checkout's ``src`` (so it works from a test or
    benchmark run without installation).
    """
    src_dir = os.path.abspath(os.path.join(
        os.path.dirname(__file__), os.pardir, os.pardir, os.pardir
    ))
    env = dict(os.environ)
    python_path = env.get("PYTHONPATH", "")
    if src_dir not in python_path.split(os.pathsep):
        env["PYTHONPATH"] = (f"{src_dir}{os.pathsep}{python_path}"
                             if python_path else src_dir)
    command = [sys.executable, "-m", "repro", "shardserver",
               "--listen", "127.0.0.1:0"] + list(extra_args or [])
    process = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, bufsize=1,
    )
    deadline = time.monotonic() + timeout_s
    lines: List[str] = []
    while True:
        if time.monotonic() > deadline:
            process.kill()
            raise TransportError(
                "shardserver subprocess never became ready: "
                + "".join(lines)[-2000:]
            )
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                raise TransportError(
                    "shardserver subprocess exited before ready: "
                    + "".join(lines)[-2000:]
                )
            time.sleep(0.01)
            continue
        lines.append(line)
        match = _READY_LINE.search(line)
        if match:
            return ShardServerProcess(process, match.group("address"))
