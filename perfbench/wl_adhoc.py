"""``adhoc``: one client thread calls ``count_answers`` directly.

Shapes — acyclic paths and stars, quantified stars, triangles, 4-cycles
over a four-relation random graph, plus the snowflake warehouse joins —
are drawn with Zipf skew over a fixed rank order (in shuffled blocks that
hold the exact Zipf proportions), so most requests repeat a planned
shape and a small tail is new.  Every request renames
its variables and relation symbols afresh.  Every fifth operation
replaces the graph or warehouse database through ``apply_update``, so
counts run on fresh relation objects.  Every eighth count carries
``deadline_ms``, rotating over a heavy G(500, 0.05) triangle whose exact
count misses the deadline and three shapes over the graph.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Tuple

from driver import (
    Op,
    RowMirror,
    Workload,
    random_edge,
    relabelled_graphs,
    stratified,
)

DEADLINE_MS = 300.0
UPDATE_EVERY = 5
DEADLINE_EVERY = 8
ZIPF_EXPONENT = 1.3
#: Zipf draws come in shuffled blocks of this many counts holding every
#: shape in proportion to its weight (see ``driver.stratified``).
ZIPF_BLOCK = 240

SCALES = {
    "full": {"graph": (100, 0.06), "orders": 300, "heavy": (500, 0.05)},
    "tiny": {"graph": (24, 0.15), "orders": 40, "heavy": (60, 0.1)},
}

GRAPH_RELATIONS = ("e1", "e2", "e3", "e4")

#: name -> (edges over pattern variables, free-variable choices)
PATTERNS = {
    "path2": ("AB BC", ("ABC", "AC", "A")),
    "path3": ("AB BC CD", ("ABCD", "AD", "A")),
    "path4": ("AB BC CD DE", ("ABCDE", "A")),
    "star2": ("AB AC", ("ABC", "A")),
    "star3": ("AB AC AD", ("ABCD", "A", "AB")),
    "star4": ("AB AC AD AE", ("ABCDE", "A")),
    "tri": ("AB BC CA", ("ABC", "A", "AB")),
    "cyc4": ("AB BC CD DA", ("ABCD", "AC", "AB")),
}

#: symbol patterns: which graph relation each atom reads
ASSIGNMENTS = {
    "distinct": lambda k: tuple(range(k)),
    "same": lambda k: (0,) * k,
    "alternating": lambda k: tuple(i % 2 for i in range(k)),
}

#: Deadline-stamped counts rotate over these shapes: the heavy triangle
#: and, over the graph, two shapes the cost model admits exactly and a
#: triangle it sends to the approx tier.
DEADLINE_ROTATION = ("heavy.tri", "path3.ABCD.distinct", "tri.ABC.distinct",
                     "star3.ABCD.distinct")

HEAVY_TRIANGLE = "ans(A, B, C) :- r(A, B), s(B, C), t(C, A)"


def _graph_query(pattern: str, free: str, assignment: Tuple[int, ...]):
    from repro.query.parser import parse_query

    edges = PATTERNS[pattern][0].split()
    body = ", ".join(f"{GRAPH_RELATIONS[assignment[i]]}({a}, {b})"
                     for i, (a, b) in enumerate(edges))
    return parse_query(f"ans({', '.join(free)}) :- {body}", name=pattern)


def shape_universe() -> Dict[str, Tuple[str, object]]:
    """shape id -> (database, base query), in the fixed Zipf rank order.

    The order is the same for every seed, so seeds vary the draws, the
    renamings and the data, not which shapes are popular.
    """
    from repro.query.parser import parse_query
    from repro.workloads import snowflake

    shapes: List[Tuple[str, Tuple[str, object]]] = []
    for pattern, (edges, frees) in PATTERNS.items():
        k = len(edges.split())
        for free in frees:
            for name, assign in ASSIGNMENTS.items():
                shapes.append((f"{pattern}.{free}.{name}",
                               ("g", _graph_query(pattern, free, assign(k)))))
    for make in (snowflake.customers_by_category_query,
                 snowflake.store_catalogue_query,
                 snowflake.same_region_pairs_query):
        query = make()
        shapes.append((f"snow.{query.name}", ("snow", query)))
    random.Random("perfbench-adhoc-rank-order").shuffle(shapes)
    universe = dict(shapes)
    universe["heavy.tri"] = ("heavy", parse_query(HEAVY_TRIANGLE,
                                                  name="heavy_triangle"))
    return universe


def initial_data(seed: int, scale: str) -> Dict[str, Dict[str, List[tuple]]]:
    """The three databases as plain rows (the oracle keeps its own copy)."""
    from repro.workloads.snowflake import snowflake_database

    sizes = SCALES[scale]
    rng = random.Random(f"adhoc:{seed}:data")
    graph = relabelled_graphs(rng, GRAPH_RELATIONS, *sizes["graph"],
                              "adhoc.g")
    heavy = relabelled_graphs(rng, "rst", *sizes["heavy"], "adhoc.heavy")
    # The warehouse is the same for every seed; the seed's updates to its
    # fact table differ.
    snow = snowflake_database(n_orders=sizes["orders"], seed=0)
    return {
        "g": graph,
        "snow": {relation.name: sorted(relation.rows)
                 for relation in snow.relations()},
        "heavy": heavy,
    }


def operations(seed: int, scale: str,
               data: Dict[str, Dict[str, List[tuple]]]) -> Iterator[Op]:
    """The endless, seed-determined operation stream."""
    from repro.query.canonical import rename_query
    from repro.query.terms import Variable

    rng = random.Random(f"adhoc:{seed}:ops")
    universe = shape_universe()
    ranked = [shape for shape in universe if shape != "heavy.tri"]
    draws = stratified(rng, [1.0 / (rank + 1) ** ZIPF_EXPONENT
                             for rank in range(len(ranked))], ZIPF_BLOCK)
    sales = data["snow"]["sales"]
    dims = [sorted({row[position] for row in sales}) for position in (1, 2, 3)]
    orders = itertools.count(10 ** 6)

    def new_sale(rng: random.Random) -> tuple:
        return (next(orders), *(rng.choice(values) for values in dims),
                rng.randrange(1, 9))

    # Updates alternate between the graph and the warehouse's fact table.
    mirrors = {"g": RowMirror(data["g"],
                              random_edge(SCALES[scale]["graph"][0])),
               "snow": RowMirror({"sales": sales}, new_sale)}
    versions = {name: 0 for name in data}
    index = counts = updates = 0
    while True:
        if index % UPDATE_EVERY == UPDATE_EVERY - 1:
            database = ("g", "snow")[updates % 2]
            versions[database] += 1
            updates += 1
            yield Op("update", database, versions[database],
                     update=mirrors[database].next_update(rng))
        else:
            deadline = None
            if counts % DEADLINE_EVERY == DEADLINE_EVERY - 1:
                slot = (counts // DEADLINE_EVERY) % len(DEADLINE_ROTATION)
                shape = DEADLINE_ROTATION[slot]
                deadline = DEADLINE_MS
            else:
                shape = ranked[next(draws)]
            database, base = universe[shape]
            variables = sorted(base.variables)
            fresh = list(range(len(variables)))
            rng.shuffle(fresh)
            symbol_map = {symbol: f"x{index}_{position}"
                          for position, symbol in enumerate(
                              sorted(base.relation_symbols))}
            query = rename_query(
                base,
                {v: Variable(f"V{index}_{t}")
                 for v, t in zip(variables, fresh)},
                symbol_map, name=f"q{index}")
            counts += 1
            yield Op("count", database, versions[database], shape=shape,
                     query=query, base_query=base, symbol_map=symbol_map,
                     deadline_ms=deadline)
        index += 1


class Adhoc(Workload):
    """The program side: named databases and direct engine calls."""

    name = "adhoc"

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.data = initial_data(seed, scale)

    def setup(self, workdir: str, traced: bool) -> None:
        from repro.counting import engine
        from repro.db.database import Database

        self.databases = {name: Database.from_dict(relations)
                          for name, relations in self.data.items()}
        universe = shape_universe()
        # Warm-up a user pays once per process: lazy imports, the heavy
        # relations' indexes and statistics.
        engine.count_answers(universe["heavy.tri"][1],
                             self.databases["heavy"], deadline_ms=DEADLINE_MS)
        engine.count_answers(universe["path2.AC.distinct"][1],
                             self.databases["g"])

    def operations(self) -> Iterator[Op]:
        return operations(self.seed, self.scale, self.data)

    def execute(self, op: Op, label: str):
        from repro.counting import engine
        from repro.dynamic import updates

        if op.kind == "update":
            self.databases[op.database] = updates.apply_update(
                self.databases[op.database], op.update)
            return None
        view = self.databases[op.database].renamed_restriction(op.symbol_map)
        return engine.count_answers(op.query, view,
                                    deadline_ms=op.deadline_ms)

    def oracle_method(self, op: Op) -> str:
        """Brute force on the warehouse and on two-atom graph shapes; a
        from-scratch engine count elsewhere."""
        if op.database == "snow" or (op.database == "g"
                                     and len(op.base_query.atoms) <= 2):
            return "brute_force"
        return "auto"

    def stats(self, records) -> Tuple[dict, dict]:
        """(per-layer counters, workload-property shares)."""
        from repro.counting.plan_cache import default_plan_cache
        from repro.query.canonical import canonical_form

        cache = default_plan_cache().stats()
        seen, cold, counted = set(), 0, 0
        fingerprints: Dict[str, object] = {}
        for record in records:
            if record.op.kind != "count":
                continue
            shape = record.op.shape
            if shape not in fingerprints:
                fingerprints[shape] = canonical_form(
                    record.op.base_query).fingerprint
            counted += 1
            if fingerprints[shape] not in seen:
                seen.add(fingerprints[shape])
                cold += 1
        layer = {"counting.plan_cache.hit_frac":
                 cache["hits"] / max(cache["hits"] + cache["misses"], 1)}
        mix = {"mix.adhoc.cold_shape_frac": cold / max(counted, 1)}
        return layer, mix
