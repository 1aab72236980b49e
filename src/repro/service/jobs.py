"""Batch job descriptions and their JSON file format.

A *job file* bundles named databases with a list of counting jobs::

    {
      "databases": {
        "db0": {"r": [[1, 2], [3, 4]], "s": [[2, 9]]}
      },
      "jobs": [
        {"label": "shape0/0",
         "query": "ans(A, C) :- r(A, B), s(B, C)",
         "database": "db0",
         "method": "auto",
         "max_width": 3}
      ]
    }

``database`` is either a key of the top-level ``databases`` object or a
path to a standalone JSON database file (resolved relative to the job
file).  Jobs naming the same database share one in-memory
:class:`~repro.db.database.Database` instance, which is what lets a
batch build each relation's indexes and statistics once.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..counting.engine import CountResult
from ..db.database import Database
from ..db.io import database_from_dict, database_to_dict, query_to_text
from ..exceptions import ReproError
from ..query.parser import parse_query
from ..query.query import ConjunctiveQuery


class JobFileError(ReproError):
    """A malformed batch job file."""


def json_safe(value):
    """*value* with every non-JSON leaf replaced by its ``repr``.

    Result ``details`` may carry rich objects (decomposition
    fingerprints, tuples, infinities); batch output and the network
    frame codec both need them embeddable in a JSON document without
    ever failing the dump.
    """
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, float) and (math.isinf(value) or math.isnan(value)):
        return repr(value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def result_to_dict(result: CountResult) -> Dict[str, object]:
    """A :class:`~repro.counting.engine.CountResult` as a JSON object."""
    return {
        "count": result.count,
        "strategy": result.strategy,
        "details": json_safe(result.details),
    }


def result_from_dict(payload: Dict[str, object]) -> CountResult:
    """The inverse of :func:`result_to_dict` (details stay JSON-shaped)."""
    try:
        count = payload["count"]
        strategy = payload["strategy"]
    except (KeyError, TypeError):
        raise JobFileError("count result object lacks count/strategy") \
            from None
    details = payload.get("details")
    if not isinstance(details, dict):
        details = {}
    return CountResult(count, str(strategy), details)


@dataclass
class CountJob:
    """One counting request: a query over a database, plus engine knobs.

    ``deadline_ms`` / ``error_budget`` make the request deadline-aware:
    the engine answers exactly when its cost model predicts the exact
    strategies fit the budget, and from the approximate tier (a
    ``(estimate, epsilon, delta)`` Monte Carlo result) otherwise — see
    :func:`repro.counting.engine.count_answers`.
    """

    query: ConjunctiveQuery
    database: Database
    method: str = "auto"
    max_width: int = 3
    max_degree: float = math.inf
    hybrid_width: int = 2
    label: Optional[str] = None
    deadline_ms: Optional[float] = None
    error_budget: Optional[float] = None

    def engine_kwargs(self) -> Dict[str, object]:
        """The keyword arguments this job passes to ``count_answers``."""
        return {
            "method": self.method,
            "max_width": self.max_width,
            "max_degree": self.max_degree,
            "hybrid_width": self.hybrid_width,
            "deadline_ms": self.deadline_ms,
            "error_budget": self.error_budget,
        }


def count_options_from_spec(spec: dict) -> Dict[str, object]:
    """The engine options of a count job's JSON object (defaults for
    absent fields) — shared by job files and session streams, the
    inverse of :func:`count_options_to_spec`.  Malformed values raise
    ``TypeError``/``ValueError``."""
    max_degree = spec.get("max_degree")
    deadline_ms = spec.get("deadline_ms")
    error_budget = spec.get("error_budget")
    return {
        "method": spec.get("method", "auto"),
        "max_width": int(spec.get("max_width", 3)),
        "max_degree": math.inf if max_degree is None else float(max_degree),
        "hybrid_width": int(spec.get("hybrid_width", 2)),
        "deadline_ms": None if deadline_ms is None else float(deadline_ms),
        "error_budget": None if error_budget is None else float(error_budget),
    }


def count_options_to_spec(job) -> Dict[str, object]:
    """The engine options of *job* (a :class:`CountJob` or a session
    ``CountRequest``) as JSON fields; an infinite ``max_degree`` and an
    unset deadline or error budget are omitted."""
    spec: Dict[str, object] = {
        "method": job.method,
        "max_width": job.max_width,
        "hybrid_width": job.hybrid_width,
    }
    if not math.isinf(job.max_degree):
        spec["max_degree"] = job.max_degree
    if job.deadline_ms is not None:
        spec["deadline_ms"] = job.deadline_ms
    if job.error_budget is not None:
        spec["error_budget"] = job.error_budget
    return spec


def _database_from_spec(spec, where: str) -> Database:
    """:func:`database_from_dict` over outside input: any malformed
    relation becomes a :class:`JobFileError` naming *where*."""
    if not isinstance(spec, dict):
        raise JobFileError(f"{where} must be an object of relations, "
                           f"got {type(spec).__name__}")
    try:
        return database_from_dict(spec)
    except (TypeError, ValueError, ReproError) as error:
        raise JobFileError(f"{where} has malformed relations: {error}") \
            from None


def load_jobs(path: str) -> List[CountJob]:
    """Parse a job file into :class:`CountJob`\\ s with shared databases.

    Every malformed part of the file (or of a database file it
    references) raises :class:`JobFileError` naming the job file and the
    job position or database name.
    """
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as error:
            raise JobFileError(f"{path}: not valid JSON: {error}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("jobs"),
                                                      list):
        raise JobFileError(f"{path}: expected an object with a 'jobs' list")
    databases = payload.get("databases", {})
    if not isinstance(databases, dict):
        raise JobFileError(f"{path}: 'databases' must be an object, "
                           f"got {type(databases).__name__}")
    named: Dict[str, Database] = {
        name: _database_from_spec(spec, f"{path}: database {name!r}")
        for name, spec in databases.items()
    }
    loaded_paths: Dict[str, Database] = {}
    base_dir = os.path.dirname(os.path.abspath(path))
    jobs: List[CountJob] = []
    for position, spec in enumerate(payload["jobs"]):
        if not isinstance(spec, dict):
            raise JobFileError(
                f"{path}: job {position} must be an object, "
                f"got {type(spec).__name__}"
            )
        try:
            query_text = spec["query"]
            reference = spec["database"]
        except KeyError as missing:
            raise JobFileError(
                f"{path}: job {position} lacks {missing.args[0]!r}"
            ) from None
        if not isinstance(query_text, str) or not isinstance(reference, str):
            raise JobFileError(
                f"{path}: job {position}: 'query' and 'database' must be "
                f"strings"
            )
        query = parse_query(query_text)
        if reference in named:
            database = named[reference]
        else:
            resolved = os.path.join(base_dir, reference)
            if resolved not in loaded_paths:
                where = f"{path}: job {position}: database file {reference!r}"
                try:
                    with open(resolved) as handle:
                        relations = json.load(handle)
                except OSError as error:
                    raise JobFileError(
                        f"{path}: job {position}: database {reference!r} is "
                        f"neither a named database nor a readable file "
                        f"({error})"
                    ) from None
                except json.JSONDecodeError as error:
                    raise JobFileError(f"{where} is not valid JSON: {error}") \
                        from None
                loaded_paths[resolved] = _database_from_spec(relations, where)
            database = loaded_paths[resolved]
        try:
            options = count_options_from_spec(spec)
        except (TypeError, ValueError) as error:
            raise JobFileError(
                f"{path}: job {position}: malformed option: {error}"
            ) from None
        jobs.append(CountJob(query=query, database=database,
                             label=spec.get("label"), **options))
    return jobs


def dump_jobs(path: str, jobs: Sequence[CountJob]) -> None:
    """Write *jobs* as a job file, deduplicating shared databases.

    Databases are named ``db0, db1, ...`` in first-appearance order;
    jobs whose :class:`~repro.db.database.Database` instance (or equal
    content) repeats reference the same name.
    """
    names: List[Database] = []
    payload_dbs: Dict[str, object] = {}

    def name_of(database: Database) -> str:
        for index, known in enumerate(names):
            if known is database or known == database:
                return f"db{index}"
        names.append(database)
        name = f"db{len(names) - 1}"
        payload_dbs[name] = database_to_dict(database)
        return name

    payload_jobs = []
    for index, job in enumerate(jobs):
        payload_jobs.append({
            "label": job.label if job.label is not None else f"job{index}",
            "query": query_to_text(job.query),
            "database": name_of(job.database),
            **count_options_to_spec(job),
        })
    with open(path, "w") as handle:
        json.dump({"databases": payload_dbs, "jobs": payload_jobs},
                  handle, indent=2)
        handle.write("\n")
