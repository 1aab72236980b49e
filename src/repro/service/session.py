"""Streaming counting sessions: counts and updates over one long-lived front end.

A :class:`CountingSession` is the service's *open-ended* sibling: instead
of closed batches it accepts a continuous stream of interleaved jobs —
:class:`CountRequest`\\ s and :class:`UpdateRequest`\\ s (single-tuple
inserts/deletes) against **named databases**, plus
:class:`AttachDatabase` declarations — and unifies the repository's three
counting paths behind one router:

* **maintained** — a count whose shape is quantifier-free acyclic *or*
  bounded-#htw (quantified/cyclic shapes with a #-hypertree
  decomposition, maintained through the paper's Theorem 3.7 reduction by
  :class:`~repro.dynamic.reduced.ReducedMaintainer`) is served from a
  :class:`~repro.dynamic.maintainer.MaintainerPool`: one materialized DP
  per decomposition tree (in canonical space, so bijectively renamed
  queries share it), repaired incrementally under updates with delta
  batching — pending deltas are folded in lazily, one propagation pass
  per read, when the next count of that database arrives;
* **engine** — fresh or non-maintainable shapes fall back to
  ``count_answers`` through the session's
  :class:`~repro.service.CountingService`, each job bound to the
  database *version* current at submission;
* **persistent plans** — both paths share the session's plan cache;
  with a ``cache_dir`` it is a
  :class:`~repro.counting.plan_cache.PersistentPlanCache`, so plans
  survive the session and warm the next process.

An update is atomic: it is validated against the current database (a
delete of an absent row or an arity mismatch raises
:class:`~repro.exceptions.DatabaseError` and changes *nothing*), then
swapped in as a new immutable database version, queued for the
maintainers, and used to invalidate exactly the data-dependent plans
whose content tags it touches — never the shape-only plans.

Job streams serialize as JSON Lines (one job object per line; see
:func:`load_stream`), consumed by the CLI as
``python -m repro session jobs.jsonl --cache-dir .plans``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..db.database import Database
from ..db.io import database_from_dict, database_to_dict, query_to_text
from ..dynamic.updates import Delete, Insert, Update
from ..exceptions import QueryError, ReproError
from ..query.parser import parse_query
from ..query.query import ConjunctiveQuery
from .jobs import (
    JobFileError,
    count_options_from_spec,
    count_options_to_spec,
)
from .shard import SessionShard


# ----------------------------------------------------------------------
# The job vocabulary of a session stream
# ----------------------------------------------------------------------
@dataclass
class CountRequest:
    """Count *query* over the named database, at its current version.

    ``deadline_ms`` / ``error_budget`` make the request deadline-aware
    on the engine path (maintained answers are O(1) reads and always
    exact — a deadline never degrades them): exact when the cost model
    predicts it fits, an approximate ``(estimate, epsilon, delta)``
    answer otherwise.  The deadline covers queue wait too — shards
    shrink the engine budget by the time a request already spent
    waiting (see :meth:`SessionShard.engine_job`).
    """

    query: ConjunctiveQuery
    database: str
    method: str = "auto"
    max_width: int = 3
    max_degree: float = math.inf
    hybrid_width: int = 2
    label: Optional[str] = None
    deadline_ms: Optional[float] = None
    error_budget: Optional[float] = None


@dataclass
class UpdateRequest:
    """Apply one insert/delete to the named database."""

    database: str
    update: Update
    label: Optional[str] = None


@dataclass
class AttachDatabase:
    """Attach (or wholesale-replace) a named database."""

    name: str
    database: Database
    label: Optional[str] = None


SessionJob = Union[CountRequest, UpdateRequest, AttachDatabase]


class CountingSession(SessionShard):
    """A long-lived counting front end over named, updatable databases.

    The single-writer session *is* one
    :class:`~repro.service.shard.SessionShard` (same parameters, same
    methods), plus :meth:`run_stream`.  ``maintain=False`` disables the
    maintained path entirely (every count goes through the engine) —
    the differential harness uses it as one of its replay
    configurations.  ``maintainer_budget_bytes`` caps the resident
    maintainer DP bytes (cold maintainers spill to checkpoints and
    restore by replaying post-checkpoint deltas; see
    :class:`~repro.dynamic.maintainer.MaintainerPool`).  Bounded-#htw
    shapes ride the Theorem 3.7 reduction instead of recounting.

    The sharded, multi-writer front end is
    :class:`~repro.service.router.MultiWriterSession`.
    """

    #: Execute one job immediately; returns its result/acknowledgement.
    submit = SessionShard.execute

    def run_stream(self, jobs: Iterable[SessionJob]) -> List[object]:
        """Run a job stream in order; results come back in job order."""
        return [self.execute(job) for job in jobs]

    def stats(self) -> dict:
        """Session counters over a flat service/plan-cache snapshot."""
        snapshot = self._service.stats()
        shard_snapshot = super().stats()
        del shard_snapshot["plan_cache"]
        snapshot.update(shard_snapshot)
        return snapshot


# ----------------------------------------------------------------------
# JSON Lines streams
# ----------------------------------------------------------------------
def _freeze(value):
    """JSON arrays inside rows become hashable tuples."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


#: Distinct query texts whose parsed query :func:`job_from_spec` keeps
#: (least recently used first out).  A shard server sees a few hot
#: shapes, so a hot text is parsed once per server, not once per request.
PARSE_CACHE_SIZE = 1024

#: Bound on the query objects whose text :func:`job_to_spec` keeps.
QUERY_TEXT_MEMO_SIZE = 1024

#: ``id(query) -> (query, text)``; the entry holds its query, so an id
#: in it is never reused by another object.
_query_texts: Dict[int, Tuple[ConjunctiveQuery, str]] = {}


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parsed_query(text: str) -> ConjunctiveQuery:
    """*text* parsed.  Repeated text returns the identical (frozen)
    query, so plan-cache lookups hit on identity; a parse error is
    raised again on every request (``lru_cache`` keeps only returns)."""
    return parse_query(text)


def parse_cache_stats() -> dict:
    """Hits, misses and size of the query-text parse cache."""
    info = _parsed_query.cache_info()
    return {"hits": info.hits, "misses": info.misses,
            "size": info.currsize, "capacity": info.maxsize}


def _query_text(query: ConjunctiveQuery) -> str:
    """``query_to_text(query)``, rendered once per query object.

    Keyed by identity, not equality: equal queries may still render
    differently (their names, or constants ``1`` and ``True``).  When
    the memo is full it starts over.
    """
    entry = _query_texts.get(id(query))
    if entry is not None and entry[0] is query:
        return entry[1]
    text = query_to_text(query)
    if len(_query_texts) >= QUERY_TEXT_MEMO_SIZE:
        _query_texts.clear()
    _query_texts[id(query)] = (query, text)
    return text


def job_from_spec(spec: dict, where: str = "<stream>") -> SessionJob:
    """One stream job from its JSON object (see :func:`load_stream`)."""
    if not isinstance(spec, dict):
        raise JobFileError(f"{where}: job must be an object, "
                           f"got {type(spec).__name__}")
    op = spec.get("op", "count")
    label = spec.get("label")
    try:
        if op == "database":
            return AttachDatabase(
                name=spec["name"],
                database=database_from_dict(spec["relations"]),
                label=label,
            )
        if op == "count":
            request = CountRequest(
                query=_parsed_query(spec["query"]),
                database=spec["database"],
                label=label,
                **count_options_from_spec(spec),
            )
            waited_ms = spec.get("waited_ms")
            if waited_ms is not None:
                # Re-anchor the sender's elapsed queue wait on *this*
                # host's clock so SessionShard.engine_job subtracts it
                # from the deadline exactly as it does in-process.
                request.submitted_at = (
                    time.monotonic() - float(waited_ms) / 1e3
                )
            return request
        if op in ("insert", "delete"):
            row = tuple(_freeze(value) for value in spec["row"])
            update_type = Insert if op == "insert" else Delete
            return UpdateRequest(
                database=spec["database"],
                update=update_type(spec["relation"], row),
                label=label,
            )
    except KeyError as missing:
        raise JobFileError(
            f"{where}: {op!r} job lacks {missing.args[0]!r}"
        ) from None
    except (TypeError, ValueError, QueryError) as error:
        raise JobFileError(f"{where}: malformed {op!r} job: {error}") from None
    raise JobFileError(f"{where}: unknown op {op!r}")


def load_stream(path: str) -> List[SessionJob]:
    """Parse a JSON Lines session stream.

    One JSON object per line; blank lines and ``#`` comment lines are
    skipped.  Recognized ``op`` values: ``database`` (attach named
    relations), ``count`` (same fields as a batch job), ``insert`` /
    ``delete`` (``database``, ``relation``, ``row``).
    """
    jobs: List[SessionJob] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                spec = json.loads(line)
            except json.JSONDecodeError as error:
                raise JobFileError(
                    f"{path}:{lineno}: not valid JSON: {error}"
                ) from None
            jobs.append(job_from_spec(spec, where=f"{path}:{lineno}"))
    return jobs


def job_to_spec(job: SessionJob) -> dict:
    """One stream job as its JSON object (inverse of
    :func:`job_from_spec`) — the one serialization used by stream files
    *and* by the network frame codec (:mod:`repro.service.net`)."""
    if isinstance(job, AttachDatabase):
        spec = {"op": "database", "name": job.name,
                "relations": database_to_dict(job.database)}
    elif isinstance(job, CountRequest):
        spec = {"op": "count", "query": _query_text(job.query),
                "database": job.database, **count_options_to_spec(job)}
        submitted_at = getattr(job, "submitted_at", None)
        if submitted_at is not None:
            # The deadline covers the whole request, so queue wait
            # accrued before serialization must travel with the job.  A
            # raw ``time.monotonic()`` stamp is meaningless on another
            # host; ship the *elapsed wait* as of send time instead, and
            # let the receiver re-anchor it on its own clock.
            spec["waited_ms"] = max(
                (time.monotonic() - submitted_at) * 1e3, 0.0
            )
    elif isinstance(job, UpdateRequest):
        spec = {
            "op": ("insert" if isinstance(job.update, Insert)
                   else "delete"),
            "database": job.database,
            "relation": job.update.relation,
            "row": list(job.update.row),
        }
    else:
        raise ReproError(
            f"cannot serialize session job {type(job).__name__}"
        )
    if job.label is not None:
        spec["label"] = job.label
    return spec


def dump_stream(path: str, jobs: Sequence[SessionJob]) -> None:
    """Write *jobs* as a JSON Lines session stream (inverse of
    :func:`load_stream`)."""
    with open(path, "w", encoding="utf-8") as handle:
        for job in jobs:
            handle.write(json.dumps(job_to_spec(job)) + "\n")
