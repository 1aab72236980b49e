"""The batched counting service.

:class:`CountingService` runs batches of :class:`~.jobs.CountJob`
requests in order, in process, over a **shared plan cache**: repeated
shapes and repeated databases pay their plan search and index builds
once per service.  With a ``cache_dir`` (or ``$REPRO_PLAN_CACHE_DIR``)
the cache is a :class:`~repro.counting.plan_cache.PersistentPlanCache`,
so a fresh service over a populated directory starts warm.

Results come back in job order as the engine's
:class:`~repro.counting.engine.CountResult` objects with the full
explain/decision-trail details intact (and JSON-serializable).
Multi-core serving goes through
:class:`~repro.service.router.MultiWriterSession` over shard servers.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from ..counting.engine import CountResult, count_answers
from ..counting.plan_cache import (
    PLAN_CACHE_DIR_ENV,
    PersistentPlanCache,
    PlanCache,
)
from .jobs import CountJob


class CountingService:
    """Execute batches of counting jobs over a shared plan cache.

    Parameters
    ----------
    plan_cache:
        The shared :class:`PlanCache`; a fresh one is created when
        omitted.  Pass the same cache to several services to share plans
        across them.
    cache_dir:
        A persistent plan-cache spill directory (defaults to
        ``$REPRO_PLAN_CACHE_DIR`` when set) that backs the shared cache
        unless an explicit *plan_cache* was given.
    """

    def __init__(self, plan_cache: Optional[PlanCache] = None,
                 cache_dir: Optional[str] = None):
        if cache_dir is None:
            cache_dir = os.environ.get(PLAN_CACHE_DIR_ENV) or None
        self.cache_dir = cache_dir
        if plan_cache is None:
            plan_cache = (PersistentPlanCache(cache_dir) if cache_dir
                          else PlanCache())
        self.plan_cache = plan_cache

    def run_job(self, job: CountJob) -> CountResult:
        """Run one job against the shared plan cache."""
        result = count_answers(job.query, job.database,
                               plan_cache=self.plan_cache,
                               **job.engine_kwargs())
        if job.label is not None:
            result.label(job.label)
        return result

    def run_batch(self, jobs: Sequence[CountJob]) -> List[CountResult]:
        """Run *jobs* in order and return their results in job order."""
        return [self.run_job(job) for job in jobs]

    def stats(self) -> dict:
        """Plan-cache counters plus the spill directory."""
        snapshot = self.plan_cache.stats()
        snapshot["cache_dir"] = self.cache_dir
        return snapshot

    def close(self) -> None:
        """Nothing to release; kept so ``with CountingService()`` reads
        the same as the session front ends."""

    def __enter__(self) -> "CountingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
