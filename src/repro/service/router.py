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

Shard workers come in three flavors (``shard_mode``):

* ``"thread"`` — shards are threads sharing one plan cache; the
  default, cheap, and deterministic enough for tests (counting is
  GIL-bound, so parallelism is limited);
* ``"process"`` — each shard is a single-worker process pool holding
  its databases, maintainers, and plan cache in its own interpreter:
  real parallelism for concurrent writer streams (the benchmark bar's
  configuration).  Jobs and results cross the boundary by pickle,
  which the batch service already guarantees for queries, databases,
  and :class:`~repro.counting.engine.CountResult`;
* ``"inline"`` — no workers at all: ``submit`` executes the job before
  returning a completed future (the deterministic baseline the
  commutation property tests compare against);
* ``"tcp"`` — each shard is a :class:`~repro.service.net.client.
  RemoteShardHandle` driving a session-namespaced shard on a
  :class:`~repro.service.net.server.ShardServer` over the socket
  fabric.  Addresses come from ``shard_addrs=`` or
  ``$REPRO_SHARD_ADDRS``; the default mode itself can be switched with
  ``$REPRO_SHARD_MODE`` (how the CI ``net`` leg runs the whole session
  suite over TCP without editing a single test).

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
from ..envknobs import env_choice, env_int
from ..exceptions import ReproError
from .session import AttachDatabase, SessionJob
from .shard import SessionShard

#: Recognized shard worker flavors.
SHARD_MODES = ("inline", "thread", "process", "tcp")

#: Environment variable naming the default shard mode (the CI ``net``
#: leg sets ``tcp``; sessions built without an explicit ``shard_mode``
#: consult it, then fall back to ``thread``).
SHARD_MODE_ENV = "REPRO_SHARD_MODE"


def default_shard_mode() -> str:
    """``$REPRO_SHARD_MODE`` when set and recognized, else ``thread``."""
    return env_choice(SHARD_MODE_ENV, SHARD_MODES, "thread")

#: Retry hint when a saturated shard has no completion-latency sample
#: yet (milliseconds).
DEFAULT_RETRY_AFTER_MS = 25.0


class ShardSaturatedError(ReproError):
    """A shard's queue is at its admission bound; retry after a delay.

    Raised by :meth:`MultiWriterSession.submit` when ``max_pending`` is
    configured and the target shard already has that many jobs in
    flight.  ``retry_after_ms`` estimates when a slot frees up (queue
    depth times the shard's smoothed completion latency); the stream
    runners honor it and resubmit, external callers should too.
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


# ----------------------------------------------------------------------
# Process-mode shard workers: one core per worker process, module-global
# so it survives across the single worker's jobs (the same pattern the
# batch service uses for its per-worker plan caches).
# ----------------------------------------------------------------------
_PROCESS_CORE: Optional[SessionShard] = None


def _process_shard_init(config: dict) -> None:
    global _PROCESS_CORE
    _PROCESS_CORE = SessionShard(**config)


def _process_shard_execute(job: SessionJob):
    return _PROCESS_CORE.execute(job)


def _process_shard_stats(_: object = None) -> dict:
    return _PROCESS_CORE.stats()


def _process_shard_close(_: object = None) -> None:
    _PROCESS_CORE.close()


class _InlineHandle:
    """``submit`` executes immediately (deterministic baseline).

    A per-shard lock keeps the documented thread-safe ``submit``
    contract even here: concurrent producers serialize on the shard
    (cores are not thread-safe), they just run on the caller's thread
    instead of a worker's.
    """

    def __init__(self, core: SessionShard):
        self._core = core
        self._lock = threading.Lock()
        self.close_errors = 0
        self.last_close_error: Optional[str] = None

    def submit(self, job: SessionJob) -> Future:
        future: Future = Future()
        try:
            with self._lock:
                result = self._core.execute(job)
            future.set_result(result)
        except BaseException as error:  # the future carries the failure
            future.set_exception(error)
        return future

    def submit_stats(self) -> Future:
        future: Future = Future()
        with self._lock:
            future.set_result(self._core.stats())
        return future

    def close(self) -> None:
        try:
            self._core.close()
        except Exception as error:
            self.close_errors += 1
            self.last_close_error = repr(error)


class _ThreadHandle:
    """A shard core confined to one worker thread."""

    def __init__(self, core: SessionShard):
        self._core = core
        self._pool = ThreadPoolExecutor(max_workers=1)
        self.close_errors = 0
        self.last_close_error: Optional[str] = None

    def submit(self, job: SessionJob) -> Future:
        return self._pool.submit(self._core.execute, job)

    def submit_stats(self) -> Future:
        # Runs on the shard thread, after every queued job — a stats
        # read never races a mutation.
        return self._pool.submit(self._core.stats)

    def close(self) -> None:
        try:
            self._pool.submit(self._core.close).result()
        except Exception as error:
            # A dying shard core must not abort the session shutdown —
            # but the failure is counted, not dropped (see stats()).
            self.close_errors += 1
            self.last_close_error = repr(error)
        self._pool.shutdown()


class _ProcessHandle:
    """A shard core confined to one single-worker process pool."""

    def __init__(self, config: dict):
        # Imported here: only process mode needs multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        self._pool = ProcessPoolExecutor(
            max_workers=1,
            initializer=_process_shard_init, initargs=(config,),
        )
        self.close_errors = 0
        self.last_close_error: Optional[str] = None

    def submit(self, job: SessionJob) -> Future:
        return self._pool.submit(_process_shard_execute, job)

    def submit_stats(self) -> Future:
        return self._pool.submit(_process_shard_stats)

    def close(self) -> None:
        try:
            self._pool.submit(_process_shard_close).result()
        except Exception as error:
            # A dead worker cannot clean up; shutdown proceeds
            # regardless — but the death is *counted*, not silently
            # swallowed, so a broken shard shows up in session stats.
            self.close_errors += 1
            self.last_close_error = repr(error)
        self._pool.shutdown()


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
        One of :data:`SHARD_MODES` (see the module docstring); ``None``
        (the default) means ``$REPRO_SHARD_MODE`` or ``"thread"``.
    shard_addrs:
        ``host:port`` shard server addresses for ``shard_mode='tcp'``
        (``None`` means ``$REPRO_SHARD_ADDRS``).  Shards are spread
        round-robin over the addresses, each under a session-unique
        namespace, so many sessions share one server fleet without
        touching each other's state.
    plan_cache, cache_dir:
        Inline/thread shards share *plan_cache* (one is created when
        omitted, persistent when a cache directory is configured);
        process shards each own a per-process cache warm-started from
        *cache_dir* — an explicit *plan_cache* is rejected there
        (OS processes cannot share it; the persistent tier is how
        process shards share plans).
    maintain, maintainer_capacity, maintainer_budget_bytes,
    maintainer_spill_dir, maintain_reduced:
        Forwarded to every shard's
        :class:`~repro.dynamic.maintainer.MaintainerPool`; the byte
        budget and the spill directory are **per shard** (each shard
        checkpoints into its own subdirectory when a directory is
        given).  ``maintain_reduced`` toggles Theorem 3.7
        reduction-based maintenance of bounded-#htw shapes (on by
        default).
    max_pending:
        Per-shard admission bound.  When set, :meth:`submit` rejects a
        job whose target shard already has ``max_pending`` jobs in
        flight, raising :class:`ShardSaturatedError` with a
        ``retry_after_ms`` hint (queue depth times the shard's smoothed
        completion latency).  ``None`` (the default) admits unboundedly,
        the historical behavior.
    """

    def __init__(self, databases: Optional[Dict[str, Database]] = None,
                 shards: int = 0, shard_mode: Optional[str] = None,
                 plan_cache: Optional[PlanCache] = None,
                 cache_dir: Optional[str] = None,
                 maintain: bool = True,
                 maintainer_capacity: int = 64,
                 maintainer_budget_bytes=BUDGET_FROM_ENV,
                 maintainer_spill_dir: Optional[str] = None,
                 maintain_reduced: bool = True,
                 max_pending: Optional[int] = None,
                 shard_addrs: Optional[Sequence[str]] = None):
        if shard_mode is None:
            shard_mode = default_shard_mode()
        if shard_mode not in SHARD_MODES:
            raise ValueError(f"unknown shard mode {shard_mode!r}; "
                             f"expected one of {SHARD_MODES}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.shard_addrs: Optional[List[str]] = None
        self.shard_namespace: Optional[str] = None
        if shard_mode == "tcp":
            from .net import default_shard_addrs
            addresses = (list(shard_addrs) if shard_addrs
                         else default_shard_addrs())
            if not addresses:
                raise ValueError(
                    "shard_mode='tcp' needs shard server addresses: "
                    "pass shard_addrs= or set $REPRO_SHARD_ADDRS"
                )
            self.shard_addrs = addresses
            # Default the shard count to the fleet size (still
            # overridable explicitly or via $REPRO_SESSION_SHARDS).
            self.shards = (int(shards) if shards
                           else max(env_int(SESSION_SHARDS_ENV, 0), 0)
                           or len(addresses))
        else:
            self.shards = int(shards) if shards else default_shards()
        self.shard_mode = shard_mode
        self.max_pending = max_pending
        if cache_dir is None:
            cache_dir = os.environ.get(PLAN_CACHE_DIR_ENV) or None
        self.cache_dir = cache_dir
        self._router = SessionRouter(self.shards)
        self._handles: List[object] = []
        self._closed = False
        self._close_lock = threading.Lock()
        # Admission state: per-shard in-flight counters plus an EWMA of
        # completion latency (the retry-after estimator).  One lock
        # guards both; submit touches it briefly, never while a job runs.
        self._admission_lock = threading.Lock()
        self._pending = [0] * self.shards
        self._latency_ms: List[Optional[float]] = [None] * self.shards
        self._rejected = 0
        if shard_mode == "tcp":
            if plan_cache is not None:
                raise ValueError(
                    "shard_mode='tcp' cannot share an in-memory "
                    "plan_cache with remote shard servers; point the "
                    "servers at a cache directory or KV endpoint "
                    "(shardserver --cache-dir/--cache-url) instead"
                )
            from .net import RemoteShardHandle
            self.plan_cache = None  # server-side caches; see stats()
            self.shard_namespace = uuid.uuid4().hex[:12]
            for index in range(self.shards):
                config = {
                    "maintain": maintain,
                    "maintainer_capacity": maintainer_capacity,
                    "maintain_reduced": maintain_reduced,
                }
                if maintainer_budget_bytes is not BUDGET_FROM_ENV:
                    config["maintainer_budget_bytes"] = \
                        maintainer_budget_bytes
                spill = self._shard_spill_dir(maintainer_spill_dir, index)
                if spill is not None:
                    config["maintainer_spill_dir"] = spill
                self._handles.append(RemoteShardHandle(
                    self.shard_addrs[index % len(self.shard_addrs)],
                    shard=f"{self.shard_namespace}/shard{index}",
                    config=config,
                ))
        elif shard_mode == "process":
            if plan_cache is not None:
                raise ValueError(
                    "shard_mode='process' cannot share an in-memory "
                    "plan_cache across shard processes; pass cache_dir= "
                    "to share plans through the persistent tier instead"
                )
            self.plan_cache = None  # per-worker caches; see stats()
            for index in range(self.shards):
                config = {
                    "cache_dir": cache_dir,
                    "maintain": maintain,
                    "maintainer_capacity": maintainer_capacity,
                    "maintainer_spill_dir": self._shard_spill_dir(
                        maintainer_spill_dir, index
                    ),
                    "maintain_reduced": maintain_reduced,
                    "label": f"shard{index}",
                }
                if maintainer_budget_bytes is not BUDGET_FROM_ENV:
                    config["maintainer_budget_bytes"] = \
                        maintainer_budget_bytes
                self._handles.append(_ProcessHandle(config))
        else:
            if plan_cache is None:
                plan_cache = (PersistentPlanCache(cache_dir) if cache_dir
                              else PlanCache())
            self.plan_cache = plan_cache
            handle_type = (_ThreadHandle if shard_mode == "thread"
                           else _InlineHandle)
            for index in range(self.shards):
                core = SessionShard(
                    plan_cache=plan_cache,
                    cache_dir=cache_dir,
                    maintain=maintain,
                    maintainer_capacity=maintainer_capacity,
                    maintainer_budget_bytes=maintainer_budget_bytes,
                    maintainer_spill_dir=self._shard_spill_dir(
                        maintainer_spill_dir, index
                    ),
                    maintain_reduced=maintain_reduced,
                    label=f"shard{index}",
                )
                self._handles.append(handle_type(core))
        for name, database in (databases or {}).items():
            self.submit(AttachDatabase(name, database)).result()

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

    def _retry_after_ms(self, shard: int, pending: int) -> float:
        """Estimated wait for a slot on *shard* with *pending* jobs
        queued: depth times the smoothed completion latency, or a fixed
        hint before the first completion has been observed."""
        latency = self._latency_ms[shard]
        if latency is None:
            return DEFAULT_RETRY_AFTER_MS
        return max(pending * latency, 1.0)

    def submit(self, job: SessionJob) -> Future:
        """Enqueue *job* on its database's shard; thread-safe.

        Returns a future resolving to the job's result (a
        :class:`~repro.counting.engine.CountResult` or an
        acknowledgement dict) — or raising the job's error (e.g. a
        rejected update), which perturbs nothing else.  With
        ``max_pending`` configured, a saturated shard rejects the job
        with :class:`ShardSaturatedError` *before* it is enqueued.
        """
        shard = self._router.shard_for_job(job)
        now = time.monotonic()
        with self._admission_lock:
            pending = self._pending[shard]
            if self.max_pending is not None and pending >= self.max_pending:
                self._rejected += 1
                raise ShardSaturatedError(
                    shard, pending, self._retry_after_ms(shard, pending)
                )
            self._pending[shard] = pending + 1
        # Deadline-aware jobs carry their enqueue instant so the shard
        # can charge queue wait against the deadline (see
        # SessionShard.engine_job).
        if getattr(job, "deadline_ms", None) is not None:
            job.submitted_at = now

        def settle(_: Future) -> None:
            elapsed_ms = (time.monotonic() - now) * 1e3
            with self._admission_lock:
                self._pending[shard] -= 1
                previous = self._latency_ms[shard]
                self._latency_ms[shard] = (
                    elapsed_ms if previous is None
                    else 0.2 * elapsed_ms + 0.8 * previous
                )

        try:
            future = self._handles[shard].submit(job)
        except BaseException:
            # Enqueue itself failed (e.g. a broken process pool): the
            # settle callback will never run, so release the slot here.
            with self._admission_lock:
                self._pending[shard] -= 1
            raise
        future.add_done_callback(settle)
        return future

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
        shared across shards in inline/thread modes, per-process in
        process mode.  The probes are submitted to every shard first
        and gathered after, so a stats call under load waits for the
        slowest shard's backlog, not the sum of all of them.

        A shard whose worker has died (e.g. a killed process-mode
        worker) contributes a ``{"dead": True, ...}`` stub with zeroed
        counters instead of poisoning the whole snapshot; the session
        totals also carry ``close_errors`` — shard-teardown failures
        that would otherwise vanish into the handles' shutdown paths.
        """
        def probe(handle) -> Future:
            try:
                return handle.submit_stats()
            except Exception as error:
                # A broken pool rejects at submission time; carry the
                # failure in a future so the loop below stubs it out.
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
                        "updates_applied")
        }
        databases = sorted(
            name for shard in per_shard for name in shard["databases"]
        )
        with self._admission_lock:
            pending = list(self._pending)
            rejected = self._rejected
        return {
            "shards": self.shards,
            "shard_mode": self.shard_mode,
            "databases": databases,
            "cache_dir": self.cache_dir,
            "plan_cache_scope": (
                "per-shard-process" if self.shard_mode == "process"
                else "remote" if self.shard_mode == "tcp"
                else "shared"
            ),
            "shard_addrs": self.shard_addrs,
            **totals,
            "max_pending": self.max_pending,
            "pending": pending,
            "rejected_submissions": rejected,
            "close_errors": sum(handle.close_errors
                                for handle in self._handles),
            "per_shard": per_shard,
        }

    def close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for handle in self._handles:
            handle.close()

    def __enter__(self) -> "MultiWriterSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
