"""The sharded, multi-writer session front end.

:class:`MultiWriterSession` accepts interleaved job streams from any
number of producer threads and fans them out over N
:class:`~repro.service.shard.SessionShard` workers:

* a :class:`SessionRouter` hash-partitions jobs **by database name**
  (a stable SHA-256 partition — identical in every process, unlike
  builtin ``hash``), so every job touching one database lands on one
  shard;
* each shard is driven by a dedicated single-worker executor, so the
  jobs of one database execute **in submission order** (the shard's
  queue *is* the serialization point), while jobs for databases on
  different shards execute in parallel;
* :meth:`MultiWriterSession.submit` is thread-safe and returns a
  :class:`~concurrent.futures.Future` per job — multiple writers just
  call it concurrently; :meth:`run_streams` wraps that pattern (one
  producer thread per stream).

Shards come in two flavours (``shard_mode``), both driven by one
:class:`ShardWorker`:

* ``"thread"`` — a local :class:`~repro.service.shard.SessionShard`;
  the shards share one plan cache.  Counting is GIL-bound, so the win
  over one writer comes from per-shard maintainer budgets, not from
  parallel CPUs;
* ``"tcp"`` — a :class:`~repro.service.net.client.RemoteShard`
  driving a session-namespaced shard on a
  :class:`~repro.service.net.server.ShardServer` over the socket
  fabric: real parallelism when the servers run in their own
  processes (``python -m repro shardserver``).  Each remote shard keeps
  its databases' recovery material, so a lane whose server dies fails
  over to a standby (or a surviving primary), and
  :meth:`MultiWriterSession.handoff` moves a lane to another server.

The flavour follows from the inputs: ``tcp`` when ``shard_addrs=`` or
``$REPRO_SHARD_ADDRS`` names shard servers, ``thread`` otherwise (the
CI ``net`` leg runs the whole session suite over TCP by setting only
the addresses).

Same-database ordering is per *submitter*: two producers racing on the
same database serialize in whatever order their ``submit`` calls reach
the shard queue.  Writers that need a cross-producer order for one
database must coordinate externally — distinct databases never need to.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

from ..counting.plan_cache import (
    PLAN_CACHE_DIR_ENV,
    PersistentPlanCache,
    PlanCache,
)
from ..db.database import Database
from ..dynamic.maintainer import BUDGET_FROM_ENV
from ..envknobs import env_int
from ..exceptions import ReproError
from .session import AttachDatabase, SessionJob
from .shard import SessionShard

#: Recognized shard flavours.
SHARD_MODES = ("thread", "tcp")

#: Retry hint when a saturated shard has no completion-latency sample
#: yet (milliseconds).
DEFAULT_RETRY_AFTER_MS = 25.0


class ShardSaturatedError(ReproError):
    """A shard's queue is at its admission bound; retry after a delay.

    Raised by :meth:`ShardWorker.call` — so by
    :meth:`MultiWriterSession.submit`, and by a shard server's admitted
    ops — when ``max_pending`` is configured and the shard already has
    that many jobs in flight.  ``retry_after_ms`` estimates when a slot
    frees up (queue depth times the shard's smoothed completion
    latency); the stream runners honor it and resubmit, external
    callers should too.
    """

    def __init__(self, shard: int, pending: int, retry_after_ms: float):
        super().__init__(
            f"shard{shard} is saturated ({pending} jobs pending); "
            f"retry in ~{retry_after_ms:.0f}ms"
        )
        self.shard = shard
        self.pending = pending
        self.retry_after_ms = retry_after_ms

#: Environment variable naming the default shard count (the CI sharded
#: leg sets it; ``shards=0`` consults it, then falls back to 2).
SESSION_SHARDS_ENV = "REPRO_SESSION_SHARDS"


def default_shards() -> int:
    """``$REPRO_SESSION_SHARDS`` when set and sane, else 2.

    An unparseable value warns once (see :mod:`repro.envknobs`) and
    falls back to the default rather than silently ignoring the knob.
    """
    return max(1, env_int(SESSION_SHARDS_ENV, 2))


class SessionRouter:
    """Stable hash partitioning of database names onto shards."""

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards

    def shard_of(self, database_name: str) -> int:
        """The shard index owning *database_name* (stable across
        processes and interpreter runs — never builtin ``hash``)."""
        digest = hashlib.sha256(database_name.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.n_shards

    @staticmethod
    def database_of(job: SessionJob) -> str:
        """The database name a session job is routed by."""
        if isinstance(job, AttachDatabase):
            return job.name
        name = getattr(job, "database", None)
        if not isinstance(name, str):
            raise ReproError(
                f"cannot route session job {type(job).__name__}: "
                f"it names no database"
            )
        return name

    def shard_for_job(self, job: SessionJob) -> int:
        return self.shard_of(self.database_of(job))


class ShardWorker:
    """One shard confined to its serialization point, under admission.

    *target* is anything with ``execute(job)``, ``stats()`` and
    ``close()``: a local :class:`~repro.service.shard.SessionShard`
    (``thread`` shards and the cores of a shard server) or a
    :class:`~repro.service.net.client.RemoteShard` (``tcp`` shards).
    Every call runs on one private worker thread, in submission order,
    so the jobs of one database execute in the order they were
    submitted and a stats read never races a mutation.

    :meth:`call` is the admitted path of the in-process session and the
    shard server alike: at most *max_pending* calls in flight (``None``:
    unbounded), with an EWMA of their latency behind the
    :meth:`retry_after_ms` hint.  Control calls (stats, barrier, close,
    kill) bypass admission and do not feed the EWMA.
    """

    def __init__(self, target, index: int = 0,
                 max_pending: Optional[int] = None):
        self.target = target
        self.index = index
        self.max_pending = max_pending
        self._pool = ThreadPoolExecutor(max_workers=1,
                                        thread_name_prefix=f"shard{index}")
        self._lock = threading.Lock()
        self.pending = 0
        self.rejected = 0
        self._latency_ms: Optional[float] = None
        self.close_errors = 0
        self.last_close_error: Optional[str] = None

    def retry_after_ms(self) -> float:
        """Queue depth times the smoothed completion latency, or a
        fixed hint before the first completion."""
        if self._latency_ms is None:
            return DEFAULT_RETRY_AFTER_MS
        return max(self.pending * self._latency_ms, 1.0)

    def call(self, fn, *args) -> Future:
        """Run ``fn(*args)`` on the worker thread, admitted.

        Raises :class:`ShardSaturatedError` *before* enqueueing when
        ``max_pending`` calls are already in flight.
        """
        started = time.monotonic()
        with self._lock:
            pending = self.pending
            if self.max_pending is not None and pending >= self.max_pending:
                self.rejected += 1
                raise ShardSaturatedError(self.index, pending,
                                          self.retry_after_ms())
            self.pending = pending + 1

        def run():
            try:
                return fn(*args)
            finally:
                # Settled before the future resolves (a done-callback
                # runs after waiters wake): a caller keeps its own slot.
                elapsed_ms = (time.monotonic() - started) * 1e3
                with self._lock:
                    self.pending -= 1
                    self._latency_ms = (
                        elapsed_ms if self._latency_ms is None
                        else 0.2 * elapsed_ms + 0.8 * self._latency_ms
                    )

        try:
            return self._pool.submit(run)
        except BaseException:
            # Enqueue itself failed (the worker was closed concurrently):
            # run will never settle, so release the slot here.
            with self._lock:
                self.pending -= 1
            raise

    def submit(self, job: SessionJob) -> Future:
        return self.call(self.target.execute, job)

    def submit_stats(self) -> Future:
        return self._pool.submit(self.target.stats)

    def barrier(self) -> None:
        """Wait until every call queued before this one has finished."""
        self._pool.submit(lambda: None).result()

    def close(self) -> None:
        """Close the target after the queued calls, then stop."""
        try:
            self._pool.submit(self.target.close).result()
        except Exception as error:
            # A dying shard (or an unreachable server) must not abort
            # the shutdown — but the failure is counted, not dropped
            # (see MultiWriterSession.stats() and ShardServer).
            self.close_errors += 1
            self.last_close_error = repr(error)
        self._pool.shutdown()

    def kill(self) -> None:
        """Stop at once: cancel queued calls (a killed worker is
        discarded, slots and all) and drop the target unclosed."""
        self._pool.shutdown(wait=False, cancel_futures=True)


class MultiWriterSession:
    """A sharded, multi-writer counting front end over named databases.

    Parameters
    ----------
    databases:
        Initial ``{name: Database}`` attachments (routed to their
        owning shards before the constructor returns).
    shards:
        Shard count; ``0`` means ``$REPRO_SESSION_SHARDS`` or 2.
    shard_mode:
        ``"thread"``, ``"tcp"``, or ``None`` (the default): ``tcp`` when
        shard server addresses are given, else ``thread``.
    shard_addrs:
        ``host:port`` shard server addresses of ``tcp`` shards (``None``
        means ``$REPRO_SHARD_ADDRS``).  Shards are spread round-robin
        over the addresses, each under a session-unique namespace, so
        many sessions share one server fleet without touching each
        other's state.
    plan_cache, cache_dir:
        Thread shards share *plan_cache* (one is created when omitted,
        persistent when a cache directory is configured).  TCP shards
        use their servers' caches, so an explicit *plan_cache* is
        rejected there.
    maintain, maintainer_budget_bytes, maintainer_spill_dir:
        Forwarded to every shard's
        :class:`~repro.dynamic.maintainer.MaintainerPool`; the byte
        budget and the spill directory are **per shard** (each shard
        checkpoints into its own subdirectory when a directory is
        given).
    max_pending:
        Per-shard admission bound, enforced by each shard's
        :class:`ShardWorker`.  When set, :meth:`submit` rejects a job
        whose target shard already has ``max_pending`` jobs in flight,
        raising :class:`ShardSaturatedError` with a ``retry_after_ms``
        hint (queue depth times the shard's smoothed completion
        latency).  ``None`` (the default) admits unboundedly.
    standbys:
        Spare shard server addresses of ``tcp`` shards.  When a server
        stops answering, the session picks its replacement once — the
        first unused standby, else a surviving primary — and every lane
        that was on it moves there (see :meth:`_replacement_for`).
    """

    def __init__(self, databases: Optional[Dict[str, Database]] = None,
                 shards: int = 0, shard_mode: Optional[str] = None,
                 plan_cache: Optional[PlanCache] = None,
                 cache_dir: Optional[str] = None,
                 maintain: bool = True,
                 maintainer_budget_bytes=BUDGET_FROM_ENV,
                 maintainer_spill_dir: Optional[str] = None,
                 max_pending: Optional[int] = None,
                 shard_addrs: Optional[Sequence[str]] = None,
                 standbys: Sequence[str] = ()):
        if shard_mode not in (None, *SHARD_MODES):
            raise ValueError(f"unknown shard mode {shard_mode!r}; "
                             f"expected one of {SHARD_MODES}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if shard_mode != "thread" and not shard_addrs:
            from .net import default_shard_addrs
            shard_addrs = default_shard_addrs()
        if shard_mode is None:
            shard_mode = "tcp" if shard_addrs else "thread"
        if shard_mode == "tcp":
            if not shard_addrs:
                raise ValueError(
                    "shard_mode='tcp' needs shard server addresses: "
                    "pass shard_addrs= or set $REPRO_SHARD_ADDRS"
                )
            if plan_cache is not None:
                raise ValueError(
                    "shard_mode='tcp' cannot share an in-memory "
                    "plan_cache with remote shard servers; point the "
                    "servers at a cache directory (shardserver "
                    "--cache-dir) instead"
                )
            self.shard_addrs: Optional[List[str]] = list(shard_addrs)
            # Default the shard count to the fleet size (still
            # overridable explicitly or via $REPRO_SESSION_SHARDS).
            self.shards = (int(shards) if shards
                           else max(env_int(SESSION_SHARDS_ENV, 0), 0)
                           or len(self.shard_addrs))
        elif shard_addrs or standbys:
            raise ValueError(
                "shard_mode='thread' takes no shard_addrs or standbys")
        else:
            self.shard_addrs = None
            self.shards = int(shards) if shards else default_shards()
        self.shard_mode = shard_mode
        self.max_pending = max_pending
        if cache_dir is None:
            cache_dir = os.environ.get(PLAN_CACHE_DIR_ENV) or None
        self.cache_dir = cache_dir
        self._router = SessionRouter(self.shards)
        self._handles: List[ShardWorker] = []
        self._closed = False
        self._lock = threading.Lock()
        self._standbys = list(standbys)
        self._live = list(self.shard_addrs or ())
        self._replacements: Dict[str, str] = {}
        self.failovers = 0
        self.handoffs = 0
        if shard_mode == "tcp":
            from .net import RemoteShard
            self.plan_cache = None  # server-side caches; see stats()
            self.shard_namespace: Optional[str] = uuid.uuid4().hex[:12]
            config = {"maintain": maintain}
            if maintainer_budget_bytes is not BUDGET_FROM_ENV:
                config["maintainer_budget_bytes"] = maintainer_budget_bytes

            def make_shard(index: int, spill: Optional[str]):
                address = self.shard_addrs[index % len(self.shard_addrs)]
                return RemoteShard(
                    address, shard=f"{self.shard_namespace}/shard{index}",
                    config=(config if spill is None
                            else {**config, "maintainer_spill_dir": spill}),
                    replacement_for=self._replacement_for,
                )
        else:
            if plan_cache is None:
                plan_cache = (PersistentPlanCache(cache_dir) if cache_dir
                              else PlanCache())
            self.plan_cache = plan_cache
            self.shard_namespace = None

            def make_shard(index: int, spill: Optional[str]):
                return SessionShard(
                    plan_cache=plan_cache,
                    cache_dir=cache_dir,
                    maintain=maintain,
                    maintainer_budget_bytes=maintainer_budget_bytes,
                    maintainer_spill_dir=spill,
                    label=f"shard{index}",
                )
        try:
            for index in range(self.shards):
                spill = self._shard_spill_dir(maintainer_spill_dir, index)
                self._handles.append(ShardWorker(
                    make_shard(index, spill), index, max_pending))
            for name, database in (databases or {}).items():
                self.submit(AttachDatabase(name, database)).result()
        except BaseException:
            # A failed attach (e.g. an unreachable server) must not leak
            # the shards already created — remote ones would otherwise
            # stay on their servers with their databases.
            self.close()
            raise

    @staticmethod
    def _shard_spill_dir(directory: Optional[str],
                         index: int) -> Optional[str]:
        """Per-shard checkpoint subdirectories (pool spill files are
        private per pool; sharing one directory would collide)."""
        if directory is None:
            return None
        return os.path.join(directory, f"shard{index}")

    # ------------------------------------------------------------------
    def shard_of(self, database_name: str) -> int:
        """The shard index owning *database_name*."""
        return self._router.shard_of(database_name)

    def address_of(self, database_name: str) -> Optional[str]:
        """The shard server address now serving *database_name*'s lane
        (``None`` for thread shards)."""
        return getattr(self._handles[self.shard_of(database_name)].target,
                       "address", None)

    def _replacement_for(self, dead: str) -> Optional[str]:
        """The address taking over from the dead server *dead*.

        Picked once per dead address, under the session lock, so every
        lane that was on it moves to the same place: the first unused
        standby, else a surviving primary; ``None`` when neither is
        left.  A replacement that died in turn resolves to its own
        replacement.  Called on the failing lane.
        """
        with self._lock:
            if dead not in self._replacements:
                candidates = [
                    address for address in
                    [a for a in self._standbys if a not in self._live]
                    + self._live
                    if address != dead and address not in self._replacements
                ]
                if not candidates:
                    return None
                if candidates[0] not in self._live:
                    self._live.append(candidates[0])
                self._replacements[dead] = candidates[0]
                self.failovers += 1
            replacement = self._replacements[dead]
            while replacement in self._replacements:
                replacement = self._replacements[replacement]
            return replacement

    def handoff(self, database_name: str, to_address: str) -> dict:
        """Move *database_name*'s lane to the shard server at
        *to_address*, with every database on that lane.

        Runs on the lane, so queued jobs wait out the pause and resume
        against the new owner: none is lost, reordered or doubled.
        Returns the move's provenance (``paused_s`` is the
        checkpoint-ship-restore window); see
        :meth:`~repro.service.net.client.RemoteShard.handoff`.
        """
        if self.shard_mode != "tcp":
            raise ReproError("handoff moves tcp shards only")
        worker = self._handles[self.shard_of(database_name)]
        move = worker.call(worker.target.handoff, database_name,
                           to_address).result()
        if move["moved"]:
            with self._lock:
                self.handoffs += 1
                if to_address not in self._live:
                    self._live.append(to_address)
        return move

    def submit(self, job: SessionJob) -> Future:
        """Enqueue *job* on its database's shard; thread-safe.

        Returns a future resolving to the job's result (a
        :class:`~repro.counting.engine.CountResult` or an
        acknowledgement dict) — or raising the job's error (e.g. a
        rejected update), which perturbs nothing else.  With
        ``max_pending`` configured, a saturated shard rejects the job
        with :class:`ShardSaturatedError` *before* it is enqueued.  A
        closed session refuses every job with :class:`ReproError`.
        """
        if self._closed:
            raise ReproError("session is closed")
        worker = self._handles[self._router.shard_for_job(job)]
        # Deadline-aware jobs carry their enqueue instant so the shard
        # can charge queue wait against the deadline (see
        # SessionShard.engine_job).
        if getattr(job, "deadline_ms", None) is not None:
            job.submitted_at = time.monotonic()
        return worker.submit(job)

    def _submit_with_retry(self, job: SessionJob) -> Future:
        """``submit``, sleeping out :class:`ShardSaturatedError` retry
        hints — the stream runners' backpressure loop."""
        while True:
            try:
                return self.submit(job)
            except ShardSaturatedError as saturated:
                time.sleep(saturated.retry_after_ms / 1e3)

    def run_stream(self, jobs: Sequence[SessionJob]) -> List[object]:
        """Run one interleaved stream; results come back in job order.

        Jobs for databases on different shards overlap; jobs for one
        database keep their stream order.  Saturated shards backpressure
        the producer (sleep-and-retry) instead of failing the stream.
        """
        futures = [self._submit_with_retry(job) for job in jobs]
        return [future.result() for future in futures]

    def run_streams(self, streams: Sequence[Sequence[SessionJob]]
                    ) -> List[List[object]]:
        """Run several writer streams concurrently, one producer thread
        per stream; returns per-stream results in job order.

        Each producer submits its stream's jobs in order, so every
        stream keeps its own same-database ordering while the streams'
        submissions interleave freely — the multi-writer traffic shape.
        """
        collected: List[List[Future]] = [[] for _ in streams]
        producer_errors: List[Optional[BaseException]] = [None] * len(streams)

        def producer(index: int, jobs: Sequence[SessionJob]) -> None:
            try:
                for job in jobs:
                    collected[index].append(self._submit_with_retry(job))
            except BaseException as error:
                # Submission itself failed (unroutable job, closed
                # session): surface it to the caller instead of dying
                # silently on this thread.
                producer_errors[index] = error

        threads = [
            threading.Thread(target=producer, args=(index, list(jobs)),
                             name=f"writer{index}")
            for index, jobs in enumerate(streams)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for error in producer_errors:
            if error is not None:
                raise error
        return [
            [future.result() for future in futures]
            for futures in collected
        ]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Aggregated session counters plus one snapshot per shard.

        Shard snapshots include each shard's maintainer pool (resident
        bytes, spill/restore counters) and its plan cache view —
        shared across thread shards, per server for tcp shards.  The
        probes are submitted to every shard first and gathered after,
        so a stats call under load waits for the slowest shard's
        backlog, not the sum of all of them.

        A shard whose worker has died (e.g. a killed shard server)
        contributes a ``{"dead": True, ...}`` stub with zeroed
        counters instead of poisoning the whole snapshot; the session
        totals also carry ``close_errors`` — shard-teardown failures
        that would otherwise vanish into the handles' shutdown paths.
        """
        def probe(handle) -> Future:
            try:
                return handle.submit_stats()
            except Exception as error:
                # A shut-down worker rejects at submission time; carry
                # the failure in a future so the loop below stubs it out.
                failed: Future = Future()
                failed.set_exception(error)
                return failed

        futures = [probe(handle) for handle in self._handles]
        per_shard = []
        for index, future in enumerate(futures):
            try:
                per_shard.append(future.result())
            except Exception as error:
                per_shard.append({
                    "shard": f"shard{index}",
                    "dead": True,
                    "error": repr(error),
                    "databases": [],
                    "maintained_counts": 0,
                    "reduced_counts": 0,
                    "engine_counts": 0,
                    "compiled_counts": 0,
                    "updates_applied": 0,
                    "maintainers": {
                        "maintainers": 0, "reduced_maintainers": 0,
                        "spilled_entries": 0, "resident_bytes": 0,
                        "peak_resident_bytes": 0, "spilled": 0,
                        "restored": 0,
                    },
                })
        totals = {
            key: sum(shard.get(key, 0) for shard in per_shard)
            for key in ("maintained_counts", "reduced_counts",
                        "engine_counts", "compiled_counts",
                        "updates_applied", "truncations")
        }
        databases = sorted(
            name for shard in per_shard for name in shard["databases"]
        )
        return {
            "shards": self.shards,
            "shard_mode": self.shard_mode,
            "databases": databases,
            "cache_dir": self.cache_dir,
            "plan_cache_scope": ("remote" if self.shard_mode == "tcp"
                                 else "shared"),
            "shard_addrs": self.shard_addrs,
            **totals,
            "max_pending": self.max_pending,
            "pending": [handle.pending for handle in self._handles],
            "rejected_submissions": sum(handle.rejected
                                        for handle in self._handles),
            "close_errors": sum(handle.close_errors
                                for handle in self._handles),
            "failovers": self.failovers,
            "handoffs": self.handoffs,
            "per_shard": per_shard,
        }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for handle in self._handles:
            handle.close()

    def __enter__(self) -> "MultiWriterSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
