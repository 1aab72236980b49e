"""The networked shard fabric: sessions over sockets.

This package promotes the in-process :class:`~repro.service.shard.
SessionShard` workers to first-class network services:

* :mod:`~repro.service.net.frames` — the length-prefixed, checksummed
  JSON frame codec and the wire vocabularies (jobs, results, errors),
  all reusing the :mod:`repro.service.jobs` serializations.
* :mod:`~repro.service.net.server` — :class:`ShardServer`, a TCP host
  for shards (``python -m repro shardserver``), with readiness/liveness
  probes, per-client reply dedup (exactly-once under retries), and
  graceful drain.
* :mod:`~repro.service.net.client` — :class:`ShardClient` (framed
  request/response with timeouts and capped-backoff retries) and
  :class:`RemoteShardHandle` (the session handle contract over TCP).
* :mod:`~repro.service.net.directory` — :class:`ShardDirectory`, the
  control plane assigning databases to addresses with graceful handoff
  and crash failover built on data-only checkpoint snapshots.
* :mod:`~repro.service.net.kv` — the networked plan-cache tier
  (:class:`PlanCacheKVServer` / :class:`RemotePlanCache`).
* :mod:`~repro.service.net.chaos` — :class:`FaultyTransport`, the
  deterministic fault-injection proxy the tests and ``--chaos``
  benchmarks drive.
"""

from .chaos import FaultPlan, FaultyTransport
from .client import (
    BACKOFF_BASE_MS,
    BACKOFF_CAP_MS,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT_MS,
    NET_RETRIES_ENV,
    NET_TIMEOUT_ENV,
    SHARD_ADDRS_ENV,
    RemoteShardHandle,
    ShardClient,
    backoff_ms,
    default_net_retries,
    default_net_timeout_ms,
    default_shard_addrs,
    parse_shard_addrs,
)
from .directory import ShardDirectory
from .frames import (
    HEADER_SIZE,
    MAGIC,
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    RemoteShardError,
    TransportError,
    checksum,
    encode_frame,
    error_from_wire,
    error_to_wire,
    job_from_wire,
    job_to_wire,
    parse_address,
    recv_frame,
    result_from_wire,
    result_to_wire,
    send_frame,
)
from .kv import MAX_ENTRY_BYTES, PlanCacheKVServer, RemotePlanCache
from .server import ShardServer, ShardServerProcess, spawn_shard_server

__all__ = [
    "BACKOFF_BASE_MS",
    "BACKOFF_CAP_MS",
    "DEFAULT_RETRIES",
    "DEFAULT_TIMEOUT_MS",
    "HEADER_SIZE",
    "MAGIC",
    "MAX_ENTRY_BYTES",
    "MAX_FRAME_BYTES",
    "NET_RETRIES_ENV",
    "NET_TIMEOUT_ENV",
    "SHARD_ADDRS_ENV",
    "FaultPlan",
    "FaultyTransport",
    "FrameDecoder",
    "FrameError",
    "PlanCacheKVServer",
    "RemotePlanCache",
    "RemoteShardError",
    "RemoteShardHandle",
    "ShardClient",
    "ShardDirectory",
    "ShardServer",
    "ShardServerProcess",
    "TransportError",
    "backoff_ms",
    "checksum",
    "default_net_retries",
    "default_net_timeout_ms",
    "default_shard_addrs",
    "encode_frame",
    "error_from_wire",
    "error_to_wire",
    "job_from_wire",
    "job_to_wire",
    "parse_address",
    "parse_shard_addrs",
    "recv_frame",
    "result_from_wire",
    "result_to_wire",
    "send_frame",
    "spawn_shard_server",
]
