"""``fabric``: a multi-writer session over two TCP shard servers.

The servers are two ``python -m repro shardserver`` subprocesses, each
with a fresh ``--cache-dir``.  The client is a
``MultiWriterSession(shard_mode="tcp")``; one client thread takes two
writers' streams in turn, each over its own databases, and waits for
each answer.  The mix is maintained reads and updates on a star and a
quantified-star database plus deadline-stamped reads; every 120
operations a writer re-attaches its mid-size triangle database with
fresh contents, so the deadline-stamped read that follows waits for a
maintainer build.  Per-request shard work is tiny: the frame codec, the
round trip and server queueing dominate.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

import common
from driver import Op, RowMirror, Workload, random_edge, stratified
from wl_session import direct_count, graph_database, parsed_queries

WRITERS = 2
SERVERS = 2
DEADLINE_MS = 500.0
DEADLINE_EVERY = 4
UPDATE_EVERY = 4
REATTACH_EVERY = 120

#: per-writer database -> (query, graph nodes, edge probability, weight)
DATABASES = {
    "star": ("star", 120, 0.05, 0.4),
    "quant": ("quant", 120, 0.05, 0.4),
    "cyc": ("tri", 200, 0.04, 0.2),
}
TINY_NODES = 0.25
READY_TIMEOUT_S = 60.0


def _nodes(kind: str, scale: str) -> int:
    nodes = DATABASES[kind][1]
    return max(8, int(nodes * TINY_NODES)) if scale == "tiny" else nodes


def db_name(writer: int, kind: str) -> str:
    return f"w{writer}_{kind}"


def initial_data(seed: int, scale: str) -> Dict[str, Dict[str, list]]:
    queries = parsed_queries()
    data = {}
    for writer in range(WRITERS):
        rng = random.Random(f"fabric:{seed}:w{writer}:data")
        for kind, (query, _, p, _) in DATABASES.items():
            data[db_name(writer, kind)] = graph_database(
                rng, queries[query], _nodes(kind, scale), p,
                f"fabric.{db_name(writer, kind)}")
    return data


def operations(seed: int, scale: str, writer: int,
               data: Dict[str, Dict[str, list]]) -> Iterator[Op]:
    """Writer *writer*'s endless operation stream."""
    rng = random.Random(f"fabric:{seed}:w{writer}:ops")
    queries = parsed_queries()
    kinds = sorted(DATABASES)
    weights = [DATABASES[kind][3] for kind in kinds]
    read_kinds = stratified(rng, weights, 20)
    update_kinds = stratified(rng, weights, 10)
    mirrors = {kind: RowMirror(data[db_name(writer, kind)],
                               random_edge(_nodes(kind, scale)))
               for kind in kinds}
    versions = {kind: 0 for kind in kinds}
    reads = index = 0
    cyc_query, cyc_nodes = queries["tri"], _nodes("cyc", scale)
    while True:
        step = index % REATTACH_EVERY
        index += 1
        if step == 0 and index > 1:
            relations = graph_database(
                rng, cyc_query, cyc_nodes, DATABASES["cyc"][2],
                f"fabric.{db_name(writer, 'cyc')}.{versions['cyc']}")
            mirrors["cyc"] = RowMirror(relations, random_edge(cyc_nodes))
            versions["cyc"] += 1
            yield Op("attach", db_name(writer, "cyc"), versions["cyc"],
                     relations=relations)
            continue
        if step == 1 and index > 2:
            # The read right after a re-attach waits for a fresh build.
            reads += 1
            yield Op("count", db_name(writer, "cyc"), versions["cyc"],
                     shape="tri", query=cyc_query, base_query=cyc_query,
                     deadline_ms=DEADLINE_MS, hits_build=True)
            continue
        if step % UPDATE_EVERY == UPDATE_EVERY - 1:
            kind = kinds[next(update_kinds)]
            versions[kind] += 1
            yield Op("update", db_name(writer, kind), versions[kind],
                     update=mirrors[kind].next_update(rng))
            continue
        kind = kinds[next(read_kinds)]
        query = queries[DATABASES[kind][0]]
        deadline = (DEADLINE_MS if reads % DEADLINE_EVERY
                    == DEADLINE_EVERY - 1 else None)
        reads += 1
        yield Op("count", db_name(writer, kind), versions[kind],
                 shape=DATABASES[kind][0], query=query, base_query=query,
                 deadline_ms=deadline)


class _Server:
    """One shard-server subprocess, its log and (traced) span dump."""

    def __init__(self, index: int, workdir: str, traced: bool):
        cache = os.path.join(workdir, f"plans{index}")
        self.log_path = os.path.join(workdir, f"server{index}.log")
        self.spans_path = (os.path.join(workdir, f"spans{index}.json")
                           if traced else None)
        entry = ([os.path.join(common.BENCH_DIR, "server_launcher.py"),
                  self.spans_path] if traced else ["-m", "repro"])
        command = [sys.executable, *entry, "shardserver",
                   "--listen", "127.0.0.1:0", "--cache-dir", cache,
                   "--label", f"server{index}"]
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            command, env=common.child_env(workdir), cwd=common.ROOT,
            stdout=self._log, stderr=subprocess.STDOUT)
        self.address = None

    def wait_ready(self, deadline: float) -> str:
        while self.address is None:
            with open(self.log_path) as handle:
                for line in handle:
                    if line.startswith("shardserver listening on "):
                        self.address = line.split()[3]
            if self.address is None:
                if self.process.poll() is not None or \
                        time.monotonic() > deadline:
                    raise common.BenchError(
                        "shard server never became ready: "
                        + open(self.log_path).read()[-2000:])
                time.sleep(0.01)
        return self.address

    def stop(self) -> None:
        common.stop_process(self.process)
        self._log.close()


class Fabric(Workload):
    """The program side: two shard servers and a TCP multi-writer session."""

    name = "fabric"

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.data = initial_data(seed, scale)
        self.servers: List[_Server] = []
        self.session = None

    def setup(self, workdir: str, traced: bool) -> None:
        from repro.db.database import Database
        from repro.service import CountRequest, MultiWriterSession
        from repro.service.net import ShardClient

        self.servers = [_Server(index, workdir, traced)
                        for index in range(SERVERS)]
        deadline = time.monotonic() + READY_TIMEOUT_S
        addresses = [server.wait_ready(deadline) for server in self.servers]
        for address in addresses:
            client = ShardClient(address)
            try:
                if not client.probe("ready")["ready"]:
                    raise common.BenchError(f"{address} is not ready")
            finally:
                client.close()
        self.session = MultiWriterSession(
            {name: Database.from_dict(relations)
             for name, relations in self.data.items()},
            shard_mode="tcp", shard_addrs=addresses)
        queries = parsed_queries()
        for writer in range(WRITERS):
            for kind, (query, _, _, _) in DATABASES.items():
                self.session.submit(CountRequest(
                    queries[query], db_name(writer, kind))).result()

    def execute(self, op: Op, label: str):
        from repro.db.database import Database
        from repro.service import AttachDatabase, CountRequest, UpdateRequest

        if op.kind == "count":
            job = CountRequest(op.query, op.database, label=label,
                               deadline_ms=op.deadline_ms)
        elif op.kind == "update":
            job = UpdateRequest(op.database, op.update, label=label)
        else:
            job = AttachDatabase(op.database,
                                 Database.from_dict(op.relations),
                                 label=label)
        return self.session.submit(job).result()

    def operations(self) -> Iterator[Op]:
        """The writers' streams, taken in turn by the one client thread:
        two concurrent writers plus two servers on two cores measured the
        scheduler (count_p95 IQR 40% of its median)."""
        streams = [operations(self.seed, self.scale, writer, self.data)
                   for writer in range(WRITERS)]
        for step in itertools.count():
            yield next(streams[step % WRITERS])

    def direct_count(self, op: Op, rows: Dict[str, set]) -> Optional[int]:
        return direct_count(op.shape, rows)

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb() + sum(
            common.peak_rss_mb(server.process.pid) for server in self.servers)

    def stats(self, records) -> Tuple[dict, dict]:
        snapshot = self.session.stats()
        shards = snapshot["per_shard"]
        hits = sum(shard["plan_cache"]["hits"] for shard in shards)
        misses = sum(shard["plan_cache"]["misses"] for shard in shards)
        pools = [shard["maintainers"] for shard in shards]
        maintained = snapshot["maintained_counts"]
        fresh = sum(pool["built"] + pool["restored"] for pool in pools)
        servers = {shard["server"]["address"]: shard["server"]
                   for shard in shards}
        layer = {
            "counting.plan_cache.hit_frac": hits / max(hits + misses, 1),
            "dynamic.pool.resident_hit_frac": 1.0 - fresh / max(maintained,
                                                                1),
            "dynamic.pool.restored": float(sum(pool["restored"]
                                               for pool in pools)),
            "dynamic.pool.peak_resident_mb": sum(
                pool["peak_resident_bytes"] for pool in pools) / 2 ** 20,
            "service.session.engine_frac": snapshot["engine_counts"] / max(
                maintained + snapshot["engine_counts"], 1),
            # Server side of service.net.retries (the client side is
            # counted by the traced run's wrappers).
            "service.net.retries": float(sum(
                server["frames_rejected"] + server["requests_deduped"]
                for server in servers.values())),
        }
        stamped = [r for r in records if r.op.kind == "count"
                   and r.op.deadline_ms is not None]
        mix = {"mix.fabric.deadline_build_frac": sum(
            1 for r in stamped if r.op.hits_build) / max(len(stamped), 1)}
        return layer, mix

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
        for server in self.servers:
            server.stop()

    def remote_traces(self) -> List[dict]:
        dumps = []
        for server in self.servers:
            if server.spans_path is None:
                continue
            with open(server.spans_path) as handle:
                dumps.append(json.load(handle))
        return dumps
