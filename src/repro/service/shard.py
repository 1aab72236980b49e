"""The session shard: one worker's slice of the streaming front end.

A :class:`SessionShard` owns everything that must stay *serialized* per
database: the current immutable version of every database assigned to
it, those databases' slice of the maintainer pool (with its byte budget
and checkpoint spilling), the pending-delta queues, and the
maintainability memo.  It executes one session job at a time —
:class:`~repro.service.session.CountRequest`,
:class:`~repro.service.session.UpdateRequest`, or
:class:`~repro.service.session.AttachDatabase` — synchronously in
whatever thread its owner confines it to.

Each shard owns its :class:`~repro.service.CountingService` engine
fallback, and two front ends are built from it:

* :class:`~repro.service.session.CountingSession` — the single-writer
  session *is* a shard, plus stream replay;
* :class:`~repro.service.router.MultiWriterSession` — the sharded
  front end hash-partitions databases onto N shards, each confined to
  its own :class:`~repro.service.router.ShardWorker` (locally, or on a
  shard server, which runs each hosted shard on a ``ShardWorker`` of
  its own), so writer streams to distinct databases execute in
  parallel while same-database ordering is preserved.

A shard is **not** thread-safe; its owner must serialize calls (both
front ends do — that serialization *is* the per-database ordering
guarantee).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..counting.engine import CountResult
from ..counting.plan_cache import PlanCache, known_content_tag
from ..db.database import Database
from ..db.io import database_from_dict, database_to_dict
from ..dynamic.maintainer import BUDGET_FROM_ENV, MaintainerPool
from ..dynamic.reduced import ReducedMaintainer
from ..dynamic.updates import Insert, Update, apply_update
from ..exceptions import (
    DecompositionNotFoundError,
    NotAcyclicError,
    ReproError,
)
from .jobs import CountJob
from .service import CountingService


class _Served:
    """What a maintained count's details say, kept as data until read
    (see :class:`~repro.counting.engine.CountResult`): a session keeps
    its results by the thousand, most never inspected."""

    __slots__ = ("reduced", "database", "digest", "clients", "job")

    def __init__(self, reduced: bool, database: str, digest: str,
                 clients: int, job: Optional[str]):
        self.reduced = reduced
        self.database = database
        self.digest = digest
        self.clients = clients
        self.job = job

    def render(self) -> dict:
        details = {
            "maintained": True,
            "reduced": self.reduced,
            "database": self.database,
            "plan_fingerprint": self.digest,
            "shared_clients": self.clients,
        }
        if self.job is not None:
            details["job"] = self.job
        return details


class SessionShard:
    """One serialization domain of the session front end.

    Parameters
    ----------
    databases:
        Named databases attached at construction.
    plan_cache, cache_dir:
        The shard's own :class:`CountingService` engine fallback.
        Thread shards share one plan cache; a shard on a shard server
        uses its server's.
    maintain, maintainer_budget_bytes, maintainer_spill_dir:
        The maintained-path knobs: whether counts are maintained at
        all, the pool's byte budget (``None`` = unbounded; the default
        consults ``$REPRO_MAINTAINER_BUDGET_MB``), and where cold
        maintainers checkpoint.  Bounded-#htw shapes (quantified or
        cyclic) are maintained through the Theorem 3.7 reduction
        (:class:`~repro.dynamic.reduced.ReducedMaintainer`), whose
        construction-time #-decomposition search is capped at
        :data:`~repro.dynamic.maintainer.DEFAULT_REDUCED_WIDTH`.
    label:
        A display name surfaced in :meth:`stats` (``"shard0"``, ...).
    """

    def __init__(self, databases: Optional[Dict[str, Database]] = None,
                 plan_cache: Optional[PlanCache] = None,
                 cache_dir: Optional[str] = None,
                 maintain: bool = True,
                 maintainer_budget_bytes=BUDGET_FROM_ENV,
                 maintainer_spill_dir: Optional[str] = None,
                 label: Optional[str] = None):
        self._service = CountingService(plan_cache=plan_cache,
                                        cache_dir=cache_dir)
        self.plan_cache = self._service.plan_cache
        self.maintain = maintain
        self.label = label
        self._databases: Dict[str, Database] = {}
        self._maintainers = MaintainerPool(
            budget_bytes=maintainer_budget_bytes,
            spill_dir=maintainer_spill_dir,
        )
        #: Updates applied to a database but not yet folded into its
        #: maintainers (delta batching: one propagation per *read*).
        self._pending_deltas: Dict[str, List[Update]] = {}
        #: fingerprint -> maintainable?  Probing costs a join-tree
        #: attempt (and possibly a #-decomposition search), so the
        #: verdict is memoized per shape.
        self._maintainable: Dict[tuple, bool] = {}
        self.maintained_counts = 0
        self.reduced_counts = 0
        self.engine_counts = 0
        #: Engine-bound counts served by the compiled execution tier
        #: (result strategy ``"compiled"``) — a subset of
        #: ``engine_counts``.
        self.compiled_counts = 0
        self.updates_applied = 0
        for name, database in (databases or {}).items():
            self.attach_database(name, database)

    # ------------------------------------------------------------------
    # Databases
    # ------------------------------------------------------------------
    def database(self, name: str) -> Database:
        """The current version of the named database."""
        try:
            return self._databases[name]
        except KeyError:
            raise ReproError(
                f"session has no database named {name!r}; attach it first"
            ) from None

    def database_names(self) -> List[str]:
        return sorted(self._databases)

    def attach_database(self, name: str, database: Database) -> dict:
        """Attach *database* under *name*; replacing an existing name
        drops its maintainers (resident, spilled, and journaled) and
        invalidates its data-dependent plans — through the content tags
        already computed for the old relations; none is rendered here
        (see :func:`~repro.counting.plan_cache.known_content_tag`)."""
        invalidated = 0
        replaced = name in self._databases
        if replaced:
            old = self._databases[name]
            self._pending_deltas.pop(name, None)
            self._maintainers.discard(name)
            invalidated = self.plan_cache.invalidate_tags(*filter(None, (
                known_content_tag(relation)
                for relation in old.relations()
            )))
        self._databases[name] = database
        return {
            "op": "database", "database": name, "attached": True,
            "replaced": replaced,
            "total_tuples": database.total_tuples(),
            "invalidated_plans": invalidated,
        }

    # ------------------------------------------------------------------
    # Handoff checkpoints (the networked fabric ships these between
    # shard servers; see repro.service.net.client.RemoteShard)
    # ------------------------------------------------------------------
    def checkpoint_database(self, name: str) -> dict:
        """A wire-shippable snapshot of the named database.

        The payload is plain JSON data (relation rows, no live indexes
        or maintainers) and ships as such inside a checksummed frame;
        the receiving shard rebuilds maintainers lazily from the
        restored database, exactly as it would after a fresh attach.
        """
        database = self.database(name)
        return {
            "database": name,
            "relations": database_to_dict(database),
            "total_tuples": database.total_tuples(),
        }

    def restore_database(self, name: str, payload: dict) -> dict:
        """Adopt a :meth:`checkpoint_database` snapshot as *name*.

        The payload must name the same database it is restored as and
        carry well-formed relations (a misrouted or malformed handoff is
        refused before any state changes); the restore itself is an
        attach, so a replaced database drops its maintainers and
        invalidates its data-dependent plans.
        """
        relations = (payload.get("relations") if isinstance(payload, dict)
                     else None)
        if not isinstance(relations, dict):
            raise ReproError(
                f"handoff payload for {name!r} carries no relations"
            )
        if payload.get("database") != name:
            raise ReproError(
                f"handoff payload names database "
                f"{payload.get('database')!r}, not {name!r}"
            )
        try:
            database = database_from_dict(relations)
        except (TypeError, ValueError) as error:
            raise ReproError(
                f"handoff payload for {name!r} has malformed relations: "
                f"{error}"
            ) from None
        return self.attach_database(name, database)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, name: str, update: Update,
               label: Optional[str] = None) -> dict:
        """Apply *update* to the named database (atomically).

        Validation happens first, against the current version — an
        invalid update (absent delete, duplicate insert, arity mismatch,
        unknown relation) raises and leaves the database, the
        maintainers, and the plan cache untouched.  On success the new
        version is swapped in, the delta is queued for the maintainers,
        and exactly the plans tagged with the updated relation's old
        contents are invalidated (shape-only plans survive).

        The cost is proportional to the update, not the relation: a tag
        is invalidated only if it was already computed for the replaced
        version (by a count that planned over it), and no relation is
        ever rendered on a write
        (:func:`~repro.counting.plan_cache.known_content_tag`).
        """
        current = self.database(name)
        updated = apply_update(current, update)  # raises before any effect
        stale_tag = known_content_tag(current[update.relation])
        invalidated = (self.plan_cache.invalidate_tags(stale_tag)
                       if stale_tag is not None else 0)
        self._databases[name] = updated
        self._pending_deltas.setdefault(name, []).append(update)
        self.updates_applied += 1
        ack = {
            "op": "insert" if isinstance(update, Insert) else "delete",
            "database": name,
            "relation": update.relation,
            "applied": True,
            "total_tuples": updated.total_tuples(),
            "invalidated_plans": invalidated,
        }
        if label is not None:
            ack["job"] = label
        return ack

    def _flush_deltas(self, name: str) -> None:
        """Fold the pending deltas of *name* into its maintainers."""
        pending = self._pending_deltas.pop(name, None)
        if pending:
            self._maintainers.apply(name, pending)

    # ------------------------------------------------------------------
    # Counts
    # ------------------------------------------------------------------
    def _maintained_result(self, request) -> Optional[CountResult]:
        """Serve *request* from a shared maintainer, or ``None`` when the
        shape is not maintainable (or maintenance is disabled)."""
        if not self.maintain or request.method not in ("auto", "maintained"):
            return None
        form = self.plan_cache.canonical(request.query)
        if self._maintainable.get(form.fingerprint) is False:
            return None
        # The maintainer must see every applied update before it is read
        # (and before a fresh DP is built from the current version).
        self._flush_deltas(request.database)
        database = self.database(request.database)
        try:
            entry = self._maintainers.counter_for(
                request.database, request.query, database, form
            )
        except (NotAcyclicError, DecompositionNotFoundError):
            self._maintainable[form.fingerprint] = False
            return None
        self._maintainable[form.fingerprint] = True
        entry.served += 1
        self.maintained_counts += 1
        reduced = isinstance(entry.counter, ReducedMaintainer)
        if reduced:
            self.reduced_counts += 1
        served = _Served(reduced, request.database, form.digest,
                         len(entry.clients), request.label)
        count = entry.count  # may lazily repair (and grow) the DP
        self._maintainers.note_read(entry)
        return CountResult._decided(count, "maintained", served)

    def engine_job(self, request) -> CountJob:
        """*request* as a :class:`CountJob` bound to the database version
        current right now — later updates create new versions and can
        never leak into an already-submitted count.

        A deadline covers the whole request, not just engine time:
        requests stamped with ``submitted_at`` (a ``time.monotonic()``
        reading taken by :meth:`MultiWriterSession.submit`) have their
        engine budget shrunk by the time already spent queued behind
        the shard — clamped to 1ms, so a request that waited out its
        whole deadline still gets the fastest possible (approximate)
        answer instead of an unbounded exact run.
        """
        deadline_ms = getattr(request, "deadline_ms", None)
        if deadline_ms is not None:
            submitted_at = getattr(request, "submitted_at", None)
            if submitted_at is not None:
                waited_ms = (time.monotonic() - submitted_at) * 1e3
                deadline_ms = max(deadline_ms - waited_ms, 1.0)
        return CountJob(
            query=request.query,
            database=self.database(request.database),
            method=request.method,
            max_width=request.max_width,
            max_degree=request.max_degree,
            hybrid_width=request.hybrid_width,
            label=request.label,
            deadline_ms=deadline_ms,
            error_budget=getattr(request, "error_budget", None),
        )

    def count(self, request) -> CountResult:
        """Serve one count now (maintained if possible, engine otherwise).

        Raises when ``method='maintained'`` is forced but cannot be
        served, distinguishing a disabled session from an unmaintainable
        shape.
        """
        maintained = self._maintained_result(request)
        if maintained is not None:
            return maintained
        if request.method == "maintained":
            if not self.maintain:
                raise ReproError(
                    f"{request.query.name}: method 'maintained' requested "
                    f"but this session was created with maintain=False"
                )
            raise NotAcyclicError(
                f"{request.query.name}: method 'maintained' requires a "
                f"quantifier-free acyclic query or a bounded-#htw shape "
                f"maintainable through the Theorem 3.7 reduction"
            )
        self.engine_counts += 1
        result = self._service.run_job(self.engine_job(request))
        if result.strategy == "compiled":
            self.compiled_counts += 1
        return result

    # ------------------------------------------------------------------
    # The uniform job interface (what shard workers execute)
    # ------------------------------------------------------------------
    def execute(self, job):
        """Execute one session job; returns its result/acknowledgement."""
        from .session import AttachDatabase, CountRequest, UpdateRequest

        if isinstance(job, CountRequest):
            return self.count(job)
        if isinstance(job, UpdateRequest):
            return self.update(job.database, job.update, label=job.label)
        if isinstance(job, AttachDatabase):
            ack = self.attach_database(job.name, job.database)
            if job.label is not None:
                ack["job"] = job.label
            return ack
        raise ReproError(f"unknown session job {type(job).__name__}")

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Shard counters plus the maintainer pool and plan cache
        snapshots."""
        snapshot = {
            "databases": self.database_names(),
            "maintained_counts": self.maintained_counts,
            "reduced_counts": self.reduced_counts,
            "engine_counts": self.engine_counts,
            "compiled_counts": self.compiled_counts,
            "updates_applied": self.updates_applied,
            "maintainers": self._maintainers.stats(),
            "plan_cache": self.plan_cache.stats(),
        }
        if self.label is not None:
            snapshot["shard"] = self.label
        return snapshot

    def close(self) -> None:
        self._maintainers.close()
        self._service.close()

    def __enter__(self) -> "SessionShard":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
