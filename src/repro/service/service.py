"""The batched counting service.

:class:`CountingService` executes batches of :class:`~.jobs.CountJob`
requests over a configurable worker pool and a **shared plan cache**:

* ``mode="inline"`` — sequential, in-process, fully deterministic; the
  baseline the differential tests compare everything against.
* ``mode="thread"`` — a ``ThreadPoolExecutor``.  All workers share the
  service's :class:`~repro.counting.plan_cache.PlanCache` *and* the
  per-relation index/statistics caches, so repeated shapes and repeated
  databases pay their plan search and index builds once per service.
  Counting is pure Python (GIL-bound), so threads mostly help when jobs
  block on plan-cache warm-up performed by a sibling.
* ``mode="process"`` — a ``ProcessPoolExecutor``.  Jobs are grouped by
  database instance and shipped group-wise, so each worker process
  pickles a given database once per chunk; every worker keeps its own
  process-wide plan cache (OS processes share nothing — the service's
  own ``plan_cache`` is **not** consulted in this mode), which warms up
  per repeated shape within each worker.  The pool persists across
  ``run_batch`` calls until :meth:`CountingService.close`, so those
  per-worker caches do carry over from batch to batch.

Results come back in job order as the engine's
:class:`~repro.counting.engine.CountResult` objects with the full
explain/decision-trail details intact (and JSON-serializable).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..counting.engine import CountResult, count_answers
from ..counting.plan_cache import (
    PLAN_CACHE_DIR_ENV,
    PersistentPlanCache,
    PlanCache,
    default_plan_cache,
    set_default_plan_cache,
)
from ..db.database import Database
from ..envknobs import env_int
from .jobs import CountJob

if TYPE_CHECKING:  # only process mode starts a pool; import it lazily
    from concurrent.futures import ProcessPoolExecutor

#: Recognized execution modes.
MODES = ("auto", "inline", "thread", "process")


def _warm_worker(cache_dir: Optional[str]) -> None:
    """Process-pool initializer: route the worker's default plan cache
    to the shared spill directory, so the worker starts *warm* — its
    first job of a persisted shape loads the plan from disk instead of
    re-running the decomposition search."""
    if cache_dir:
        set_default_plan_cache(PersistentPlanCache(cache_dir))


def _worker_cache_stats(_: object = None) -> dict:
    """Process-pool probe: the worker's default plan-cache counters."""
    return default_plan_cache().stats()


def _run_job_group(group: Tuple[Database, List[tuple]]) -> List[CountResult]:
    """Process-pool worker: run one database's chunk of jobs.

    Module-level so it pickles; runs each job through the worker's own
    process-wide default plan cache (shapes repeat within a chunk, so the
    cache warms up even across the pickle boundary — and, with a spill
    directory configured, across process lifetimes).
    """
    database, specs = group
    results = []
    for query, kwargs in specs:
        results.append(count_answers(query, database, **kwargs))
    return results


class CountingService:
    """Execute batches of counting jobs over a shared plan cache.

    Parameters
    ----------
    workers:
        Worker-pool size.  Under ``mode="auto"``, ``0``/``1`` mean
        inline execution.  An *explicitly* requested pool mode is always
        honored: ``workers=0`` then defaults to :func:`default_workers`
        and ``workers=1`` runs a genuine single-worker pool.
    mode:
        One of :data:`MODES`.  ``"auto"`` picks ``"inline"`` for
        ``workers <= 1`` and ``"process"`` otherwise.
    plan_cache:
        The shared :class:`PlanCache`; a fresh one is created when
        omitted.  Pass the same cache to several services to share plans
        across them.
    cache_dir:
        A persistent plan-cache spill directory (defaults to
        ``$REPRO_PLAN_CACHE_DIR`` when set).  Inline/thread services then
        back their shared cache with it (unless an explicit *plan_cache*
        was given); process pools pass it to every worker's initializer,
        so a fresh pool over a populated directory starts warm.
    """

    def __init__(self, workers: int = 0, mode: str = "auto",
                 plan_cache: Optional[PlanCache] = None,
                 cache_dir: Optional[str] = None):
        if mode not in MODES:
            raise ValueError(f"unknown service mode {mode!r}; "
                             f"expected one of {MODES}")
        self.workers = max(0, int(workers))
        if mode == "auto":
            mode = "inline" if self.workers <= 1 else "process"
        elif mode in ("thread", "process") and self.workers == 0:
            self.workers = default_workers()
        self.mode = mode
        if self.mode in ("thread", "process"):
            self.workers = max(1, self.workers)
        if cache_dir is None:
            cache_dir = os.environ.get(PLAN_CACHE_DIR_ENV) or None
        self.cache_dir = cache_dir
        if plan_cache is None:
            plan_cache = (PersistentPlanCache(cache_dir) if cache_dir
                          else PlanCache())
        self.plan_cache = plan_cache
        self._process_pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    def run_job(self, job: CountJob) -> CountResult:
        """Run one job inline against the shared plan cache."""
        result = count_answers(job.query, job.database,
                               plan_cache=self.plan_cache,
                               **job.engine_kwargs())
        if job.label is not None:
            result.details["job"] = job.label
        return result

    def run_batch(self, jobs: Sequence[CountJob]) -> List[CountResult]:
        """Run *jobs* and return their results in job order."""
        jobs = list(jobs)
        if not jobs:
            return []
        if self.mode == "inline":
            return [self.run_job(job) for job in jobs]
        if self.mode == "thread":
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                return list(pool.map(self.run_job, jobs))
        return self._run_batch_processes(jobs)

    # ------------------------------------------------------------------
    def _run_batch_processes(self, jobs: List[CountJob]) -> List[CountResult]:
        """Group jobs by database, chunk the groups, fan out, reassemble."""
        by_database: List[Tuple[Database, List[int]]] = []
        for index, job in enumerate(jobs):
            for database, indices in by_database:
                if database is job.database:
                    indices.append(index)
                    break
            else:
                by_database.append((job.database, [index]))
        # Aim for a few chunks per worker so stragglers even out, while
        # never splitting smaller than one job.
        target_chunks = max(self.workers * 2, 1)
        chunk_size = max(1, math.ceil(len(jobs) / target_chunks))
        chunks: List[Tuple[List[int], Tuple[Database, List[tuple]]]] = []
        for database, indices in by_database:
            for start in range(0, len(indices), chunk_size):
                piece = indices[start:start + chunk_size]
                specs = [
                    (jobs[i].query, jobs[i].engine_kwargs()) for i in piece
                ]
                chunks.append((piece, (database, specs)))
        results: List[Optional[CountResult]] = [None] * len(jobs)
        pool = self._ensure_pool()
        futures = [
            (piece, pool.submit(_run_job_group, group))
            for piece, group in chunks
        ]
        for piece, future in futures:
            for index, result in zip(piece, future.result()):
                if jobs[index].label is not None:
                    result.details["job"] = jobs[index].label
                results[index] = result
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Plan-cache counters plus the service configuration.

        ``plan_cache_scope`` says where plans actually live: ``"shared"``
        for inline/thread modes (this service's cache), ``"per-worker"``
        for process mode (each worker process keeps its own; the
        counters reported here stay at zero by construction).
        """
        snapshot = self.plan_cache.stats()
        snapshot.update({
            "workers": self.workers,
            "mode": self.mode,
            "plan_cache_scope": (
                "per-worker" if self.mode == "process" else "shared"
            ),
            "cache_dir": self.cache_dir,
        })
        return snapshot

    def worker_cache_stats(self) -> List[dict]:
        """Plan-cache counters as seen by the executing workers.

        Inline/thread modes report the shared cache (one snapshot).  In
        process mode one probe per worker is submitted to the persistent
        pool; with more than one worker the pool's dispatch decides which
        workers answer, so treat multi-worker results as a sample (the
        warm-start tests pin ``workers=1`` for determinism).
        """
        if self.mode != "process":
            return [self.plan_cache.stats()]
        pool = self._ensure_pool()
        futures = [pool.submit(_worker_cache_stats)
                   for _ in range(self.workers)]
        return [future.result() for future in futures]

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent process pool, created on first use.

        The pool outlives individual batches: worker processes keep
        their own process-wide plan caches warm across ``run_batch``
        calls, and the warm-start initializer points those caches at
        ``cache_dir`` when one is configured.
        """
        if self._process_pool is None:
            from concurrent.futures import ProcessPoolExecutor
            self._process_pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_warm_worker, initargs=(self.cache_dir,),
            )
        return self._process_pool

    def close(self) -> None:
        """Shut down the persistent process pool (if one was started)."""
        if self._process_pool is not None:
            self._process_pool.shutdown()
            self._process_pool = None

    def __enter__(self) -> "CountingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def default_workers() -> int:
    """A sensible worker count: ``REPRO_SERVICE_WORKERS`` or the CPU count.

    An unparseable value warns once (see :mod:`repro.envknobs`) and
    falls back to the CPU count rather than silently ignoring the knob.
    """
    configured = env_int("REPRO_SERVICE_WORKERS")
    if configured is not None:
        return max(1, configured)
    return os.cpu_count() or 1
