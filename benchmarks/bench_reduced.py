"""Reduction-based maintenance benchmark: bounded-#htw update streams.

The two acceptance bars of ISSUE 5, asserted here and recorded into
``BENCH_kernel.json`` by ``run_all.py``:

* **maintained reduced stream >= 3x** — interleaved update/count
  streams over a *quantified* star (existential tail variables) and a
  *cyclic* triangle — shapes the direct join-tree DP refuses and only
  the Theorem 3.7 reduction (:class:`~repro.dynamic.ReducedMaintainer`)
  can maintain — served by a :class:`~repro.service.CountingSession`'s
  maintained path must beat recompute-per-count (``apply_update`` + a
  fresh ``count_answers`` per step) by at least 3x on the same jobs.
  The stream shape is the session's read-dominated traffic: one
  single-tuple update followed by ``COUNTS_PER_ROUND`` reads (the
  first, dirty read pays the consistency repair; every later read is
  served straight from the DP).  Since the compiled execution tier
  landed, recompute-per-count is fast enough to win *write-heavy*
  streams — the maintained path's bar is measured on the read-heavy
  side of that crossover, which is the regime it exists for;
* **spill-forced reduced session stays correct under its cap** — a
  session whose maintainer budget is deliberately too small for both
  reduced DPs must (a) produce exactly the counts of an unbudgeted
  session on the same stream, (b) actually spill and restore reduced
  maintainers, and (c) keep peak resident maintainer bytes under the
  configured budget.

ISSUE 10 added a third bar:

* **single-update dirty reads repair in O(delta)** — on a large
  resident triangle instance, a stream of single-tuple-update-then-read
  rounds against the frontier-propagating delta repair must beat the
  same stream against a maintainer forced through a full re-reduction
  before every read (``rebuild_consistency()``, the pre-ISSUE-10
  per-read cost) by at least 3x.

A fourth bar times construction, the one-time cost every maintainer
build pays before its first read:

* **compiled construction >= 2x** — building the triangle's maintainer
  on ``G(200, 0.04)`` edge relations (the shape a networked writer
  re-attaches and rebuilds) must beat a same-process reference
  construction that matches every part row by row and folds every
  part, repeated atoms included, by at least 2x.  The quantified star
  on ``G(120, 0.05)`` is reported alongside, without a bar.
* **generic-join construction >= 1.5x the fold** — the same triangle
  build, whose witness counts come from the bag's generic join, must
  also beat a same-process reference that matches each distinct atom
  once and folds the parts pairwise (the construction before the
  generic join) by at least 1.5x.

Standalone usage (CI artifact)::

    PYTHONPATH=src python benchmarks/bench_reduced.py -o bench-reduced.json
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.counting.engine import count_answers
from repro.db.algebra import _row_getter
from repro.counting.plan_cache import PLAN_CACHE_DIR_ENV
from repro.db.database import Database
from repro.dynamic import Insert, ReducedMaintainer, apply_update
from repro.dynamic.maintainer import MAINTAINER_BUDGET_ENV, _atom_match
from repro.dynamic.reduced import _match_parts
from repro.envknobs import isolated_repro_env
from repro.query.parser import parse_query
from repro.service import (
    SESSION_SHARDS_ENV,
    CountRequest,
    CountingSession,
    UpdateRequest,
)
from repro.service.net import SHARD_ADDRS_ENV
from repro.workloads.graph_patterns import gnp_graph

#: Quantified star: the C tails are existential, so the direct DP
#: refuses the shape and every maintained count rides the reduction.
STAR_BRANCHES = 3
QUANT_QUERY = parse_query(
    "ans(A, " + ", ".join(f"B{i}" for i in range(STAR_BRANCHES)) + ") :- "
    + "hub(A), "
    + ", ".join(f"r{i}(A, B{i})" for i in range(STAR_BRANCHES)) + ", "
    + ", ".join(f"t{i}(B{i}, C{i})" for i in range(STAR_BRANCHES))
)
#: Cyclic triangle: quantifier-free but alpha-cyclic (width-2 reduction).
TRI_QUERY = parse_query("ans(A, B, C) :- r(A, B), s(B, C), t(C, A)")

ROUNDS = 30
#: Reads per update round (read-heavy session traffic: the first read
#: after an update repairs, later reads are served from the DP).  At
#: two reads per update the compiled engine's recompute now wins; the
#: maintained path's regime — and this bar — is read-dominated.
COUNTS_PER_ROUND = 8
STAR_HUB = 30
STAR_ROWS = 800
TRI_NODES = 60
TRI_EDGES = 500


def _isolated_from_configured_env():
    """Run measurements without CI's suite-wide session/cache knobs.

    The CI legs set tiny ``REPRO_MAINTAINER_BUDGET_MB`` values and a
    shared ``REPRO_PLAN_CACHE_DIR`` suite-wide; this benchmark pins its
    own budgets and must not share (or wipe) a suite-wide spill
    directory.  ``isolated_repro_env`` holds the variables back and
    parks the process-global default cache (which may already be the CI
    leg's shared ``PersistentPlanCache``) so the measurement neither
    reads nor writes the suite-wide spill directory.
    """
    return isolated_repro_env(**{
        MAINTAINER_BUDGET_ENV: None,
        SESSION_SHARDS_ENV: None,
        PLAN_CACHE_DIR_ENV: None,
        SHARD_ADDRS_ENV: None,
    })


def quantified_database(shift: int = 0, rows: int = STAR_ROWS) -> Database:
    relations = {"hub": [(a,) for a in range(STAR_HUB)]}
    for branch in range(STAR_BRANCHES):
        relations[f"r{branch}"] = [
            (i % STAR_HUB, (i * (7 + branch) + shift) % rows)
            for i in range(rows)
        ]
        relations[f"t{branch}"] = [
            ((i * (3 + branch) + shift) % rows, i % 97)
            for i in range(rows)
        ]
    return Database.from_dict(relations)


def quantified_updates():
    """Fresh inserts into the quantified tails, one branch per round."""
    return [
        Insert(f"t{index % STAR_BRANCHES}",
               (index % STAR_ROWS, 100 + index))
        for index in range(ROUNDS)
    ]


def triangle_database() -> Database:
    def edges(shift):
        return list({
            ((i * 13 + shift) % TRI_NODES, (i * 29 + shift * 7) % TRI_NODES)
            for i in range(TRI_EDGES)
        })
    return Database.from_dict({
        "r": edges(0), "s": edges(1), "t": edges(2),
    })


def triangle_updates():
    """Fresh inserts cycling over the triangle's three relations."""
    database = triangle_database()
    updates, used = [], {
        name: set(database[name].rows) for name in ("r", "s", "t")
    }
    index = 0
    while len(updates) < ROUNDS:
        name = ("r", "s", "t")[index % 3]
        row = ((index * 17 + 5) % TRI_NODES, (index * 31 + 11) % TRI_NODES)
        index += 1
        if row in used[name]:
            continue
        used[name].add(row)
        updates.append(Insert(name, row))
    return updates


WORKLOADS = (
    ("quantified", QUANT_QUERY, quantified_database, quantified_updates),
    ("cyclic", TRI_QUERY, triangle_database, triangle_updates),
)


# ----------------------------------------------------------------------
# Part 1: maintained reduced streams vs recompute-per-count
# ----------------------------------------------------------------------
def measure_stream(query, database_factory, updates) -> tuple:
    """``(recompute_seconds, session_seconds, counts_agree, stats)``."""
    # Recompute-per-count: apply each update, then count from scratch
    # once per requested read.
    database = database_factory()
    recompute_counts = []
    started = time.perf_counter()
    for update in updates:
        database = apply_update(database, update)
        for _read in range(COUNTS_PER_ROUND):
            recompute_counts.append(count_answers(query, database).count)
    recompute_seconds = time.perf_counter() - started

    # The session: same stream, maintained through the reduction.
    stream = []
    for update in updates:
        stream.append(UpdateRequest("main", update))
        for _read in range(COUNTS_PER_ROUND):
            stream.append(CountRequest(query, "main"))
    started = time.perf_counter()
    with CountingSession(databases={"main": database_factory()}) as session:
        results = session.run_stream(stream)
        stats = session.stats()
    session_seconds = time.perf_counter() - started
    session_counts = [r.count for r in results if hasattr(r, "count")]
    return (recompute_seconds, session_seconds,
            session_counts == recompute_counts, stats)


def measure_reduced_streams() -> dict:
    snapshot = {}
    recompute_total = session_total = 0.0
    with _isolated_from_configured_env():
        for name, query, database_factory, updates_factory in WORKLOADS:
            recompute, session, agree, stats = measure_stream(
                query, database_factory, updates_factory()
            )
            reads = ROUNDS * COUNTS_PER_ROUND
            assert agree, f"{name}: maintained counts diverged"
            assert stats["reduced_counts"] == reads, (
                f"{name}: expected every count on the reduced path, got "
                f"{stats['reduced_counts']}/{reads}"
            )
            recompute_total += recompute
            session_total += session
            snapshot[f"{name}_recompute_seconds"] = round(recompute, 4)
            snapshot[f"{name}_session_seconds"] = round(session, 4)
            snapshot[f"{name}_speedup"] = round(
                recompute / max(session, 1e-9), 2
            )
    speedup = round(recompute_total / max(session_total, 1e-9), 2)
    snapshot.update({
        "reduced_workload": f"{ROUNDS} rounds of 1 update / "
                            f"{COUNTS_PER_ROUND} counts each over a "
                            f"{STAR_BRANCHES}-branch quantified star and "
                            f"a {TRI_EDGES}-edge triangle",
        "reduced_recompute_seconds": round(recompute_total, 4),
        "reduced_session_seconds": round(session_total, 4),
        "reduced_speedup": speedup,
        "meets_reduced_3x_bar": speedup >= 3.0,
    })
    return snapshot


# ----------------------------------------------------------------------
# Part 2: spill-forced reduced session — correct, and under its cap
# ----------------------------------------------------------------------
#: Spill-leg sizing: two same-shape quantified databases whose DPs are
#: comparable, so "1.5x one DP" both forces eviction on every database
#: switch and leaves headroom for the provenance indexes a DP grows
#: while delta joins warm up.
SPILL_ROWS = 400
SPILL_ROUNDS = 12


def _spill_databases():
    return {"q0": quantified_database(shift=0, rows=SPILL_ROWS),
            "q1": quantified_database(shift=3, rows=SPILL_ROWS)}


def _spill_stream():
    """Alternating counts over two reduced databases, so a too-small
    budget evicts the cold DP on every switch."""
    stream = []
    quant_updates = quantified_updates()
    for index in range(SPILL_ROUNDS):
        for name in ("q0", "q1"):
            stream.append(UpdateRequest(name, quant_updates[index]))
            stream.append(CountRequest(QUANT_QUERY, name))
    return stream


def _probe_dp_bytes(name, query, database) -> int:
    """The resident size of one reduced DP, measured in isolation."""
    with CountingSession(databases={name: database},
                         maintainer_budget_bytes=None) as probe:
        probe.count(CountRequest(query, name))
        return probe.stats()["maintainers"]["resident_bytes"]


def measure_spill() -> dict:
    with _isolated_from_configured_env():
        stream = _spill_stream()
        with CountingSession(databases=_spill_databases(),
                             maintainer_budget_bytes=None) as unbudgeted:
            expected = [r.count for r in unbudgeted.run_stream(stream)
                        if hasattr(r, "count")]
        # The pool's cap contract is max(budget, largest single DP):
        # 1.5x one DP keeps the budget above either DP (with headroom
        # for index growth) while holding both is impossible, so every
        # database switch must spill the cold one.
        probe_databases = _spill_databases()
        budget = int(1.5 * max(
            _probe_dp_bytes(name, QUANT_QUERY, database)
            for name, database in probe_databases.items()
        ))

        with CountingSession(databases=_spill_databases(),
                             maintainer_budget_bytes=budget) as session:
            results = session.run_stream(stream)
            stats = session.stats()
            pool = stats["maintainers"]
    observed = [r.count for r in results if hasattr(r, "count")]
    correct = observed == expected
    under_cap = pool["peak_resident_bytes"] <= budget
    forced = pool["spilled"] > 0 and pool["restored"] > 0
    return {
        "reduced_spill_workload": f"{SPILL_ROUNDS} update/count rounds "
                                  f"alternating two quantified "
                                  f"databases, budget 1.5x one DP",
        "reduced_spill_budget_bytes": budget,
        "reduced_spill_peak_resident_bytes": pool["peak_resident_bytes"],
        "reduced_spill_spilled": pool["spilled"],
        "reduced_spill_restored": pool["restored"],
        "reduced_spill_reduced_counts": stats["reduced_counts"],
        "reduced_spill_correct": correct,
        "meets_reduced_spill_bar": (correct and under_cap and forced
                                    and stats["reduced_counts"] > 0),
    }


# ----------------------------------------------------------------------
# Part 3: O(delta) dirty-read repair vs full re-reduction per read
# ----------------------------------------------------------------------
#: Identity relations on this many nodes: every node closes the
#: triangle, so each bag keeps ~ODELTA_NODES resident survivors while a
#: single fresh-edge update's frontier is a handful of keys.
ODELTA_NODES = 1500
ODELTA_ROUNDS = 30


def _odelta_database() -> Database:
    loops = [(i, i) for i in range(ODELTA_NODES)]
    return Database.from_dict({"r": loops, "s": loops, "t": loops})


def _odelta_updates():
    """Single fresh-edge inserts; every third round closes a triangle."""
    updates = []
    for index in range(ODELTA_ROUNDS):
        node = ODELTA_NODES + index // 3
        name = ("r", "s", "t")[index % 3]
        updates.append(Insert(name, (node, node)))
    return updates


def measure_odelta() -> dict:
    with _isolated_from_configured_env():
        updates = _odelta_updates()
        delta = ReducedMaintainer(TRI_QUERY, _odelta_database())
        baseline = ReducedMaintainer(TRI_QUERY, _odelta_database())
        assert delta.count == baseline.count  # both warm before timing

        # Settle the collector's debt from the untimed builds: a full
        # collection over these two large maintainers costs about 20 ms
        # (2-vCPU container), more than the whole delta loop, and would
        # land in whichever loop happens to run when the debt comes due.
        gc.collect()
        delta_counts = []
        started = time.perf_counter()
        for update in updates:
            delta.apply(update)
            delta_counts.append(delta.count)
        delta_seconds = time.perf_counter() - started

        gc.collect()
        baseline_counts = []
        started = time.perf_counter()
        for update in updates:
            baseline.apply(update)
            # The pre-frontier per-read cost: drop the delta reducer so
            # the next read pays a full re-reduction of every bag.
            baseline.rebuild_consistency()
            baseline_counts.append(baseline.count)
        baseline_seconds = time.perf_counter() - started

        stats = delta.repair_stats()
    assert delta_counts == baseline_counts, "O(delta) repair diverged"
    speedup = round(baseline_seconds / max(delta_seconds, 1e-9), 2)
    return {
        "reduced_odelta_workload": f"{ODELTA_ROUNDS} single-update/read "
                                   f"rounds on a {ODELTA_NODES}-node "
                                   f"resident triangle, delta repair vs "
                                   f"full re-reduction per read",
        "reduced_odelta_resident_nodes": ODELTA_NODES,
        "reduced_odelta_baseline_seconds": round(baseline_seconds, 4),
        "reduced_odelta_delta_seconds": round(delta_seconds, 4),
        "reduced_odelta_repair_rows": (stats["applied_rows"]
                                       + stats["rows_touched"]),
        "reduced_odelta_speedup": speedup,
        "meets_reduced_odelta_bar": speedup >= 3.0,
    }


# ----------------------------------------------------------------------
# Part 4: maintainer construction vs per-row matching over every part
# ----------------------------------------------------------------------
#: shape -> (query, graph nodes, edge probability): the triangle a
#: networked writer re-attaches, and a quantified star.
BUILD_SHAPES = {
    "triangle": (TRI_QUERY, 200, 0.04),
    "quantified": (parse_query("ans(A, B) :- r(A, B), s(B, C), t(A, D)"),
                   120, 0.05),
}
BUILD_REPEATS = 7


def _fold_parts(state, parts):
    """A bag's witness counts by a pairwise hash-join fold of *parts*,
    seeded with the smallest: the maintainers' construction before the
    generic join, kept here as the reference the build bars time.

    Parts are folded greedily by connectivity, smallest live match set
    first; each step projects the intermediate onto the bag plus the
    variables later parts still need, merging witness counts.
    """
    keep = frozenset(state.schema)
    seed = min(parts, key=lambda p: len(p.rows))
    schema = seed.schema
    counts = dict.fromkeys(seed.rows, 1)
    pending = sorted((p for p in parts if p is not seed),
                     key=lambda p: len(p.rows))
    bound = set(schema)
    ordered = []
    while pending:
        index = next((i for i, part in enumerate(pending)
                      if bound & set(part.schema)), 0)
        part = pending.pop(index)
        ordered.append(part)
        bound |= set(part.schema)
    for fold_index, part in enumerate(ordered):
        if not counts:
            break
        needed = set(keep)
        for later in ordered[fold_index + 1:]:
            needed.update(later.schema)
        part_vars = set(part.schema)
        shared = tuple(v for v in schema if v in part_vars)
        index = part.index_on(tuple(part.schema.index(v) for v in shared))
        out_schema = tuple(sorted((set(schema) | part_vars) & needed,
                                  key=lambda v: v.name))
        combined = {v: i for i, v in enumerate(schema)}
        for i, v in enumerate(part.schema):
            combined.setdefault(v, len(schema) + i)
        out_of = _row_getter(tuple(combined[v] for v in out_schema))
        key_of = _row_getter(tuple(schema.index(v) for v in shared))
        folded = {}
        for row, multiplicity in counts.items():
            for part_row in index.get(key_of(row), ()):
                out_row = out_of(row + part_row)
                folded[out_row] = folded.get(out_row, 0) + multiplicity
        counts = folded
        schema = out_schema
    wanted = tuple(v for v in schema if v in keep)
    if wanted != schema:
        out_of = _row_getter(tuple(schema.index(v) for v in wanted))
        projected = {}
        for row, multiplicity in counts.items():
            out_row = out_of(row)
            projected[out_row] = projected.get(out_row, 0) + multiplicity
        counts = projected
    return counts


class _PerRowReference(ReducedMaintainer):
    """The reference construction: every part of a bag, repeated atoms
    included, is matched row by row and folded."""

    def _load(self, database: Database) -> None:
        for state in self._bags:
            for part in state.parts:
                for row in database[part.atom.relation]:
                    matched = _atom_match(part.atom, row)
                    if matched is not None:
                        part.add(matched)
            state.counts = _fold_parts(state, state.parts)


class _DistinctFoldReference(ReducedMaintainer):
    """The construction before the generic join: each distinct atom is
    matched once and the distinct parts are folded pairwise."""

    def _load(self, database: Database) -> None:
        for state in self._bags:
            distinct = _match_parts(state, database)
            state.counts = _fold_parts(state, list(distinct.values()))


def _graph_database(query, nodes: int, p: float) -> Database:
    """One independent ``G(nodes, p)`` edge relation per symbol."""
    relations = {}
    for seed, name in enumerate(sorted(query.relation_symbols)):
        graph = gnp_graph(nodes, p, seed=seed)
        [edge] = graph.symbols()
        relations[name] = sorted(graph[edge].rows)
    database = Database.from_dict(relations)
    for name in relations:
        database[name].rows  # decode once, outside the timed builds
    return database


def _median_build_ms(build, query, database) -> float:
    runs = []
    for _repeat in range(BUILD_REPEATS):
        started = time.perf_counter()
        build(query, database)
        runs.append(time.perf_counter() - started)
    return statistics.median(runs) * 1000


def measure_build() -> dict:
    build_ms, reference_ms, speedup = {}, {}, {}
    fold_ms, fold_speedup = {}, {}
    with _isolated_from_configured_env():
        for shape, (query, nodes, p) in BUILD_SHAPES.items():
            database = _graph_database(query, nodes, p)
            built = ReducedMaintainer(query, database)  # warm the search
            for reference_type in (_PerRowReference, _DistinctFoldReference):
                reference = reference_type(query, database)
                assert built.witness_counts() == reference.witness_counts(), (
                    f"{shape}: the generic-join build changed the witness "
                    f"counts of {reference_type.__name__}"
                )
                assert built.count == reference.count
            compiled = _median_build_ms(ReducedMaintainer, query, database)
            per_row = _median_build_ms(_PerRowReference, query, database)
            folded = _median_build_ms(_DistinctFoldReference, query,
                                      database)
            build_ms[shape] = round(compiled, 2)
            reference_ms[shape] = round(per_row, 2)
            speedup[shape] = round(per_row / max(compiled, 1e-9), 2)
            fold_ms[shape] = round(folded, 2)
            fold_speedup[shape] = round(folded / max(compiled, 1e-9), 2)
    return {
        "build_workload": f"median of {BUILD_REPEATS} maintainer builds "
                          f"per shape: triangle on G(200, 0.04), "
                          f"quantified star on G(120, 0.05)",
        "build_ms": build_ms,
        "build_reference_ms": reference_ms,
        "build_speedup": speedup,
        "meets_reduced_build_bar": speedup["triangle"] >= 2.0,
        "build_fold_ms": fold_ms,
        "build_fold_speedup": fold_speedup,
        "meets_reduced_kernel_build_bar": fold_speedup["triangle"] >= 1.5,
    }


def snapshot() -> dict:
    """The benchmark's JSON snapshot (merged into ``BENCH_kernel.json``)."""
    result = measure_reduced_streams()
    result.update(measure_spill())
    result.update(measure_odelta())
    result.update(measure_build())
    return result


# ----------------------------------------------------------------------
# pytest entry points (run by benchmarks/run_all.py's snapshot section)
# ----------------------------------------------------------------------
def test_reduced_stream_at_least_3x_faster_than_recompute():
    """ISSUE 5 bar: maintained quantified/cyclic streams >= 3x over
    recompute-per-count."""
    outcome = measure_reduced_streams()
    assert outcome["meets_reduced_3x_bar"], (
        f"reduced session {outcome['reduced_session_seconds']}s not 3x "
        f"faster than recompute "
        f"{outcome['reduced_recompute_seconds']}s "
        f"({outcome['reduced_speedup']}x)"
    )


def test_spill_forced_reduced_session_correct_under_cap():
    """ISSUE 5 bar: a spill-forced reduced session stays count-correct
    with peak resident maintainer bytes under the configured budget."""
    outcome = measure_spill()
    assert outcome["reduced_spill_correct"], (
        "budgeted reduced session counts diverged"
    )
    assert (outcome["reduced_spill_spilled"] > 0
            and outcome["reduced_spill_restored"] > 0), (
        "the tiny budget did not force spill/restore"
    )
    assert (outcome["reduced_spill_peak_resident_bytes"]
            <= outcome["reduced_spill_budget_bytes"]), (
        f"peak {outcome['reduced_spill_peak_resident_bytes']}B exceeds "
        f"the {outcome['reduced_spill_budget_bytes']}B budget"
    )
    assert outcome["reduced_spill_reduced_counts"] > 0


def test_single_update_read_repair_is_odelta():
    """ISSUE 10 bar: frontier-propagating repair of a single-update
    dirty read >= 3x over full re-reduction on a large resident
    instance."""
    outcome = measure_odelta()
    assert outcome["meets_reduced_odelta_bar"], (
        f"delta repair {outcome['reduced_odelta_delta_seconds']}s not 3x "
        f"faster than per-read re-reduction "
        f"{outcome['reduced_odelta_baseline_seconds']}s "
        f"({outcome['reduced_odelta_speedup']}x)"
    )


def test_compiled_build_at_least_2x_faster_than_per_row_reference():
    """Construction bar: the triangle's maintainer builds >= 2x faster
    than the per-row, every-part reference."""
    outcome = measure_build()
    assert outcome["meets_reduced_build_bar"], (
        f"triangle build {outcome['build_ms']['triangle']}ms not 2x "
        f"faster than the per-row reference "
        f"{outcome['build_reference_ms']['triangle']}ms "
        f"({outcome['build_speedup']['triangle']}x)"
    )


def test_generic_join_build_at_least_1_5x_faster_than_the_fold():
    """Construction bar: the triangle's maintainer, counted by the
    bag's generic join, builds >= 1.5x faster than the distinct-atom
    pairwise fold."""
    outcome = measure_build()
    assert outcome["meets_reduced_kernel_build_bar"], (
        f"triangle build {outcome['build_ms']['triangle']}ms not 1.5x "
        f"faster than the distinct-atom fold "
        f"{outcome['build_fold_ms']['triangle']}ms "
        f"({outcome['build_fold_speedup']['triangle']}x)"
    )


if __name__ == "__main__":  # pragma: no cover - CI artifact entry point
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="bench-reduced.json")
    args = parser.parse_args()
    result = snapshot()
    with open(args.output, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))
    failed = []
    if not result["meets_reduced_3x_bar"]:
        failed.append("maintained reduced stream is not >= 3x faster "
                      "than recompute-per-count")
    if not result["meets_reduced_spill_bar"]:
        failed.append("spill-forced reduced session broke correctness "
                      "or its byte cap")
    if not result["meets_reduced_odelta_bar"]:
        failed.append("single-update dirty-read repair is not >= 3x "
                      "faster than full re-reduction per read")
    if not result["meets_reduced_build_bar"]:
        failed.append("triangle maintainer construction is not >= 2x "
                      "faster than the per-row reference")
    if not result["meets_reduced_kernel_build_bar"]:
        failed.append("triangle maintainer construction is not >= 1.5x "
                      "faster than the distinct-atom fold")
    for message in failed:
        print(f"FAILED: {message}", file=sys.stderr)
    if failed:
        sys.exit(1)
