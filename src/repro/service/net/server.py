"""The shard server: SessionShards behind a TCP socket.

A :class:`ShardServer` hosts any number of named
:class:`~repro.service.shard.SessionShard` cores.  Each core is
confined to its own :class:`~repro.service.router.ShardWorker` — the
same lane the in-process session runs its shards on; its queue *is*
the serialization point — while connections are handled by one thread
each, so many clients can talk to many shards of one server
concurrently.

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
id; the server keeps, per client, the future of its last request,
installed *before* the job is dispatched.  A repeated id waits on that
future and returns its reply instead of re-executing — whether the
original is still queued, running, or done.  That single mechanism is
what makes *every* op — updates included — safe to resend after a
dropped frame, a severed connection, a lost reply, or a client timeout
on a slow job, which in turn is why the fault-injection harness can
demand bit-identical results under chaos.

Admission is the in-process front end's own: with ``max_pending`` set,
a core's :class:`~repro.service.router.ShardWorker` rejects a
``submit``, ``checkpoint``, ``restore`` or ``stall`` whose queue is
full with a ``shard_saturated`` error carrying a ``retry_after_ms``
hint (queue depth times the core's smoothed completion latency), which
the client reconstructs as a genuine
:class:`~repro.service.router.ShardSaturatedError`.  ``stats`` is never
admitted: it waits for the running job instead of being refused.
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
from concurrent.futures import Future
from typing import Dict, List, Optional, Set, Tuple

from ...counting.plan_cache import PersistentPlanCache, PlanCache
from ...dynamic.maintainer import BUDGET_FROM_ENV
from ...exceptions import ReproError
from ..router import ShardWorker
from ..session import parse_cache_stats
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

#: Bound on the clients whose last request the server remembers (least
#: recently seen first out).  A client has one request in flight, and a
#: retry resends that request's id, so its last request's reply is all
#: the dedup memory it needs.
REPLY_CACHE_SIZE = 1024

#: Shard-core config keys a ``configure`` request may set.
CONFIGURABLE_KEYS = frozenset({
    "maintain", "maintainer_budget_bytes", "maintainer_spill_dir",
})

_READY_LINE = re.compile(
    r"shardserver listening on (?P<address>[^\s]+:\d+)"
)


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
        Per-core admission bound of each core's
        :class:`~repro.service.router.ShardWorker` (``None`` admits
        unboundedly).
    cache_dir:
        Plan spill directory; the server's shards share a
        :class:`~repro.counting.plan_cache.PersistentPlanCache` over it.
        Several servers share plans by naming the same directory.
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
        self._cores: Dict[str, ShardWorker] = {}
        self._core_counter = 0
        #: client id -> (request id, future reply) of its last request
        self._replies: "OrderedDict[str, Tuple[str, Future]]" = (
            OrderedDict()
        )
        self._draining = False
        self._closed = False
        self.frames_rejected = 0
        self.requests_served = 0
        self.requests_deduped = 0
        #: Close failures of the workers already released (or closed
        #: with the server), summed from their own accounting.  A
        #: failed close is survivable (the shard is discarded either
        #: way) but must not vanish: it is surfaced in stats, release
        #: and drain replies.
        self.close_errors = 0
        self.last_close_error: Optional[str] = None

        # The plan cache shared by this server's cores.
        self.plan_cache: PlanCache = (
            PersistentPlanCache(cache_dir, label=label) if cache_dir
            else PlanCache(label=label)
        )

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
    def shard_names(self) -> List[str]:
        with self._lock:
            return sorted(self._cores)

    def _core(self, name: str, config: Optional[dict] = None) -> ShardWorker:
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
            core = ShardWorker(shard, index, self.max_pending)
            self._cores[name] = core
            return core

    def _close_core(self, name: str, core: ShardWorker) -> int:
        """Close a core already removed from the table; its close
        failures join the server totals.  Returns their number."""
        core.close()
        if core.close_errors:
            with self._lock:
                self.close_errors += core.close_errors
                self.last_close_error = f"{name}: {core.last_close_error}"
        return core.close_errors

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

    def _handle(self, request: object) -> dict:
        if not isinstance(request, dict):
            return {"id": None, "ok": False,
                    "error": {"type": "TransportError",
                              "message": "request frame is not an object"}}
        request_id = request.get("id")
        if not isinstance(request_id, str):
            return self._execute(request_id, request)
        # The future is installed before dispatch, so a same-id retry
        # that arrives while the original is queued or running waits
        # for its reply instead of executing the job a second time.
        client = request_id.rsplit(":", 1)[0]
        with self._lock:
            last = self._replies.get(client)
            duplicate = last is not None and last[0] == request_id
            if duplicate:
                future = last[1]
                self.requests_deduped += 1
            else:
                future = Future()
                self._replies[client] = (request_id, future)
                if len(self._replies) > REPLY_CACHE_SIZE:
                    self._replies.popitem(last=False)
            self._replies.move_to_end(client)
        if duplicate:
            return future.result()
        try:
            reply = self._execute(request_id, request)
        except BaseException as error:
            # Resolve the future even here, or a retry would wait forever.
            future.set_exception(error)
            raise
        future.set_result(reply)
        return reply

    def _execute(self, request_id: object, request: dict) -> dict:
        try:
            result = self._dispatch(request)
            reply = {"id": request_id, "ok": True, "result": result}
        except BaseException as error:
            reply = {"id": request_id, "ok": False,
                     "error": error_to_wire(error)}
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
            # Depths are read off the workers, never through their
            # queues: a probe answers while a core is busy.
            with self._lock:
                ready = not self._draining and not self._closed
                pending = {name: core.pending
                           for name, core in sorted(self._cores.items())}
                draining = self._draining
            return {"ready": ready, "draining": draining,
                    "shards": list(pending), "pending": pending}
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
        return result_to_wire(core.submit(job).result())

    def _op_stats(self, request: dict) -> dict:
        name = self._shard_name(request)
        core = self._core(name)
        stats = core.submit_stats().result()
        with self._lock:
            stats["server"] = {
                "address": self.address,
                "label": self.label,
                "shards_hosted": len(self._cores),
                "draining": self._draining,
                "frames_rejected": self.frames_rejected,
                "requests_served": self.requests_served,
                "requests_deduped": self.requests_deduped,
                "parse_cache": parse_cache_stats(),
                "close_errors": self.close_errors,
                "last_close_error": self.last_close_error,
                "pending": core.pending,
                "max_pending": self.max_pending,
            }
        return stats

    def _op_checkpoint(self, request: dict) -> dict:
        name = self._shard_name(request)
        database = request.get("database")
        if not isinstance(database, str):
            raise ReproError("checkpoint names no database")
        core = self._core(name)
        return core.call(core.target.checkpoint_database, database).result()

    def _op_restore(self, request: dict) -> dict:
        self._refuse_if_draining()
        name = self._shard_name(request)
        database = request.get("database")
        if not isinstance(database, str):
            raise ReproError("restore names no database")
        core = self._core(name)
        ack = core.call(core.target.restore_database, database,
                        request.get("payload")).result()
        return {"database": database, "restored": True,
                "total_tuples": ack["total_tuples"],
                "replaced": ack["replaced"]}

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
            # The shard is discarded regardless, but a failed close is
            # accounted (server totals + this reply), not swallowed.
            failed += self._close_core(name, core)
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
        for core in cores:
            core.barrier()
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
        core.call(time.sleep, stall_ms / 1e3).result()
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
            core.kill()

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
            self._close_core(name, core)
        try:
            self._listener.close()
        except OSError:
            pass
        for connection in connections:
            try:
                connection.close()
            except OSError:
                pass

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
