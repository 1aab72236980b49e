"""``session``: one client thread drives a single-writer ``CountingSession``.

Several named databases are queried with fixed query objects: a classic
acyclic star (served by ``IncrementalCounter``), a quantified star and a
cyclic triangle (served by ``ReducedMaintainer`` through the Theorem 3.7
reduction), and a four-leaf star with an existential centre whose
#-hypertree width exceeds the maintained bound, so the session sends it
to the engine.  The client visits one database at a time; read-heavy
phases (eight reads per update) alternate with write-heavy phases (one
read per update).  The maintainer byte budget holds about half of the
maintained working set, so switching databases spills and restores
maintainers.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from typing import Dict, Iterator, Optional, Tuple

from driver import (
    Op,
    RowMirror,
    Workload,
    random_edge,
    relabelled_graphs,
    stratified,
)

#: Half of the maintained working set (4.39 MB for the five maintained
#: databases at full scale, measured at commit 59ca7a3).
MAINTAINER_BUDGET_BYTES = 2_200_000

DEADLINE_MS = 1000.0
DEADLINE_EVERY = 6
#: One visit to a database: its reads ("r") and updates ("u") in order.
READ_HEAVY_VISIT = "rrrrurrrr"
WRITE_HEAVY_VISIT = "rurururu"
#: The engine-bound database is read-only and visited briefly, so its
#: reads stay below the p95 cut.
ENGINE_VISIT = "rr"
VISITS_PER_PHASE = 4
VISIT_BLOCK = 20

QUERIES = {
    "star": "ans(A, B, C, D) :- r(A, B), s(A, C), t(A, D)",
    "quant": "ans(A, B) :- r(A, B), s(B, C), t(A, D)",
    "tri": "ans(A, B, C) :- r(A, B), s(B, C), t(C, A)",
    "engine": "ans(B, C, D, E) :- r(A, B), s(A, C), t(A, D), u(A, E)",
}

#: database -> (query, graph nodes, edge probability, visit weight); the
#: engine database is read-only.
DATABASES = {
    "star_a": ("star", 120, 0.05, 0.20),
    "star_b": ("star", 120, 0.05, 0.15),
    "quant_a": ("quant", 120, 0.05, 0.20),
    "quant_b": ("quant", 120, 0.05, 0.15),
    "tri_a": ("tri", 150, 0.04, 0.22),
    "engine_a": ("engine", 24, 0.10, 0.06),
}
UPDATED = ("star_a", "star_b", "quant_a", "quant_b", "tri_a")
TINY_NODES = 0.3


def _nodes(database: str, scale: str) -> int:
    nodes = DATABASES[database][1]
    return max(8, int(nodes * TINY_NODES)) if scale == "tiny" else nodes


def parsed_queries() -> Dict[str, object]:
    from repro.query.parser import parse_query

    return {name: parse_query(text, name=name)
            for name, text in QUERIES.items()}


def graph_database(rng: random.Random, query, nodes: int, p: float,
                   structure: str) -> Dict[str, list]:
    """One G(nodes, p) edge relation per relation symbol of *query*, of
    the fixed *structure* under a seed-drawn relabelling."""
    return relabelled_graphs(rng, sorted(query.relation_symbols), nodes, p,
                             structure)


def direct_count(shape: str, rows: Dict[str, set]) -> Optional[int]:
    """The answer count of the maintained shapes of :data:`QUERIES` on
    plain row sets, by formula; ``None`` for the engine-bound shape."""
    if shape == "star":
        degree = [Counter(a for a, _ in rows[rel]) for rel in "rst"]
        return sum(n * degree[1][a] * degree[2][a]
                   for a, n in degree[0].items())
    if shape == "quant":
        s_sources = {b for b, _ in rows["s"]}
        t_sources = {a for a, _ in rows["t"]}
        return sum(1 for a, b in rows["r"]
                   if b in s_sources and a in t_sources)
    if shape == "tri":
        s_next, t_into = defaultdict(set), defaultdict(set)
        for b, c in rows["s"]:
            s_next[b].add(c)
        for c, a in rows["t"]:
            t_into[a].add(c)
        return sum(len(s_next[b] & t_into[a]) for a, b in rows["r"])
    return None


def initial_data(seed: int, scale: str) -> Dict[str, Dict[str, list]]:
    queries = parsed_queries()
    rng = random.Random(f"session:{seed}:data")
    return {name: graph_database(rng, queries[query], _nodes(name, scale), p,
                                 f"session.{name}")
            for name, (query, _, p, _) in DATABASES.items()}


def operations(seed: int, scale: str,
               data: Dict[str, Dict[str, list]]) -> Iterator[Op]:
    rng = random.Random(f"session:{seed}:ops")
    queries = parsed_queries()
    names = sorted(DATABASES)
    visits = stratified(rng, [DATABASES[name][3] for name in names],
                        VISIT_BLOCK)
    mirrors = {name: RowMirror(data[name], random_edge(_nodes(name, scale)))
               for name in UPDATED}
    versions = {name: 0 for name in DATABASES}
    reads = visit = 0
    while True:
        name = names[next(visits)]
        query = queries[DATABASES[name][0]]
        heavy_reads = (visit // VISITS_PER_PHASE) % 2 == 0
        visit += 1
        pattern = (ENGINE_VISIT if name not in mirrors else
                   READ_HEAVY_VISIT if heavy_reads else WRITE_HEAVY_VISIT)
        for step in pattern:
            if step == "u":
                versions[name] += 1
                yield Op("update", name, versions[name],
                         update=mirrors[name].next_update(rng))
                continue
            deadline = (DEADLINE_MS if reads % DEADLINE_EVERY
                        == DEADLINE_EVERY - 1 else None)
            reads += 1
            yield Op("count", name, versions[name],
                     shape=DATABASES[name][0], query=query,
                     base_query=query, deadline_ms=deadline)


class Session(Workload):
    """The program side: one ``CountingSession`` over named databases."""

    name = "session"

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.data = initial_data(seed, scale)
        self.session = None

    def setup(self, workdir: str, traced: bool) -> None:
        import os

        from repro.db.database import Database
        from repro.service import CountingSession, CountRequest

        spill = os.path.join(workdir, "spill")
        os.makedirs(spill, exist_ok=True)
        self.session = CountingSession(
            {name: Database.from_dict(relations)
             for name, relations in self.data.items()},
            maintainer_budget_bytes=MAINTAINER_BUDGET_BYTES,
            maintainer_spill_dir=spill,
        )
        # Warm-up: build every maintainer once (the budget spills some).
        queries = parsed_queries()
        for name, (query, _, _, _) in DATABASES.items():
            self.session.count(CountRequest(queries[query], name))

    def operations(self) -> Iterator[Op]:
        return operations(self.seed, self.scale, self.data)

    def direct_count(self, op: Op, rows: Dict[str, set]) -> Optional[int]:
        return direct_count(op.shape, rows)

    def execute(self, op: Op, label: str):
        from repro.service import CountRequest

        if op.kind == "update":
            return self.session.update(op.database, op.update, label=label)
        return self.session.count(CountRequest(
            op.query, op.database, label=label, deadline_ms=op.deadline_ms))

    def stats(self, records) -> Tuple[dict, dict]:
        snapshot = self.session.stats()
        pool = snapshot["maintainers"]
        maintained = snapshot["maintained_counts"]
        reads = maintained + snapshot["engine_counts"]
        # Warm-up reads are part of the session's counters; the shares
        # below are over every read the session served.
        fresh = pool["built"] + pool["restored"]
        layer = {
            "counting.plan_cache.hit_frac": snapshot["hits"] / max(
                snapshot["hits"] + snapshot["misses"], 1),
            "dynamic.pool.resident_hit_frac": 1.0 - fresh / max(maintained,
                                                                1),
            "dynamic.pool.restored": float(pool["restored"]),
            "dynamic.pool.peak_resident_mb":
                pool["peak_resident_bytes"] / 2 ** 20,
            "service.session.engine_frac": snapshot["engine_counts"] / max(
                reads, 1),
        }
        mix = {"mix.session.restore_or_build_frac": fresh / max(reads, 1)}
        return layer, mix

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
