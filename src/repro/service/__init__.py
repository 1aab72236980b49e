"""Counting services: batches, sessions, plan caches, the net fabric.

See ARCHITECTURE.md, sections "Batch service & plan cache",
"Streaming sessions", and "Networked shard fabric".  The socket
transport itself (frame codec, shard servers, remote shards, the
directory control plane, fault injection) lives in
:mod:`repro.service.net`."""

from ..counting.plan_cache import (
    PersistentPlanCache,
    PlanCache,
    default_plan_cache,
    set_default_plan_cache,
)
from ..query.canonical import (
    CanonicalForm,
    canonical_form,
    query_fingerprint,
    random_renaming,
    rename_query,
)
from .jobs import (
    CountJob,
    JobFileError,
    dump_jobs,
    json_safe,
    load_jobs,
    result_from_dict,
    result_to_dict,
)
from .router import (
    DEFAULT_RETRY_AFTER_MS,
    SESSION_SHARDS_ENV,
    SHARD_MODES,
    MultiWriterSession,
    SessionRouter,
    ShardSaturatedError,
    ShardWorker,
    default_shards,
)
from .service import CountingService
from .shard import SessionShard
from .session import (
    AttachDatabase,
    CountRequest,
    CountingSession,
    SessionJob,
    UpdateRequest,
    dump_stream,
    job_from_spec,
    job_to_spec,
    load_stream,
)

__all__ = [
    "AttachDatabase",
    "CanonicalForm",
    "CountJob",
    "CountRequest",
    "CountingService",
    "CountingSession",
    "DEFAULT_RETRY_AFTER_MS",
    "JobFileError",
    "MultiWriterSession",
    "ShardSaturatedError",
    "PersistentPlanCache",
    "PlanCache",
    "SESSION_SHARDS_ENV",
    "SHARD_MODES",
    "SessionJob",
    "SessionRouter",
    "SessionShard",
    "ShardWorker",
    "UpdateRequest",
    "default_shards",
    "canonical_form",
    "default_plan_cache",
    "dump_jobs",
    "dump_stream",
    "job_from_spec",
    "job_to_spec",
    "json_safe",
    "load_jobs",
    "load_stream",
    "result_from_dict",
    "result_to_dict",
    "query_fingerprint",
    "random_renaming",
    "rename_query",
    "set_default_plan_cache",
]
