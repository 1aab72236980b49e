"""Graph-pattern workloads: pattern queries over an edge relation.

The hardness side of the paper (Section 5) revolves around graph queries —
counting cliques, homomorphisms from grids, and so on — and the tractable
side is best exercised on the classical pattern-counting workloads: stars,
paths, cycles and cliques matched against a single binary ``edge``
relation.  This module provides both halves:

* pattern-query constructors parameterized by size and output arity;
* random-graph generators (Erdős–Rényi and a preferential-attachment
  variant) producing the ``edge`` databases the patterns run on.

Every constructor documents the structural parameters the paper cares
about (hypertree width of the pattern, shape of the frontier hypergraph),
so benchmarks can sweep along the tractability frontier.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

from ..db.database import Database
from ..db.relation import Relation
from ..query.atom import Atom
from ..query.query import ConjunctiveQuery
from ..query.terms import Variable

EDGE = "edge"


def _edge_atom(source: Variable, target: Variable) -> Atom:
    return Atom(EDGE, (source, target))


# ----------------------------------------------------------------------
# Pattern queries
# ----------------------------------------------------------------------
def star_query(leaves: int, free_centre: bool = True) -> ConjunctiveQuery:
    """``ans(C?) :- edge(C, L1), ..., edge(C, Ln)``.

    Acyclic; with a free centre every leaf's frontier is ``{C}``, so the
    #-hypertree width is 1 — a maximally tractable pattern.
    """
    if leaves < 1:
        raise ValueError("a star needs at least one leaf")
    centre = Variable("C")
    leaf_vars = [Variable(f"L{i}") for i in range(1, leaves + 1)]
    atoms = frozenset(_edge_atom(centre, leaf) for leaf in leaf_vars)
    free = frozenset({centre}) if free_centre else frozenset()
    return ConjunctiveQuery(atoms, free, name=f"star{leaves}")


def path_query(length: int, free_endpoints: bool = True) -> ConjunctiveQuery:
    """``ans(X0, Xn) :- edge(X0, X1), ..., edge(Xn-1, Xn)``.

    Acyclic; with free endpoints the inner variables form one
    [free]-component whose frontier is ``{X0, Xn}`` — the "transitively
    connected output pair" situation of the paper's introduction.
    """
    if length < 1:
        raise ValueError("a path needs at least one edge")
    nodes = [Variable(f"X{i}") for i in range(length + 1)]
    atoms = frozenset(
        _edge_atom(nodes[i], nodes[i + 1]) for i in range(length)
    )
    free = frozenset({nodes[0], nodes[-1]}) if free_endpoints else frozenset()
    return ConjunctiveQuery(atoms, free, name=f"path{length}")


def cycle_query(length: int, n_free: int = 0) -> ConjunctiveQuery:
    """``edge(X0, X1), ..., edge(Xn-1, X0)`` with the first *n_free* nodes free.

    Hypertree width 2 for ``length >= 3`` (a cycle is the canonical
    width-2 hypergraph); Example 4.1 is ``cycle_query(4, ...)`` with
    alternating free variables.
    """
    if length < 3:
        raise ValueError("a cycle needs at least three edges")
    if not 0 <= n_free <= length:
        raise ValueError("n_free must be between 0 and the cycle length")
    nodes = [Variable(f"X{i}") for i in range(length)]
    atoms = frozenset(
        _edge_atom(nodes[i], nodes[(i + 1) % length]) for i in range(length)
    )
    free = frozenset(nodes[:n_free])
    return ConjunctiveQuery(atoms, free, name=f"cycle{length}")


def clique_query(size: int, n_free: Optional[int] = None
                 ) -> ConjunctiveQuery:
    """The ``k``-clique pattern: ``edge(Xi, Xj)`` for all ``i < j``.

    The core of the Section 5 hardness reductions: its (generalized)
    hypertree width grows with *size*, so the family has unbounded
    #-hypertree width and counting it is #W[1]-hard.  By default all
    variables are free (counting clique *occurrences*).
    """
    if size < 2:
        raise ValueError("a clique needs at least two nodes")
    nodes = [Variable(f"X{i}") for i in range(size)]
    atoms = frozenset(
        _edge_atom(nodes[i], nodes[j])
        for i in range(size) for j in range(size) if i != j
    )
    free = frozenset(nodes if n_free is None else nodes[:n_free])
    return ConjunctiveQuery(atoms, free, name=f"clique{size}")


def triangle_per_vertex_query() -> ConjunctiveQuery:
    """``ans(A) :- edge(A,B), edge(B,C), edge(C,A)`` — triangles per vertex."""
    a, b, c = Variable("A"), Variable("B"), Variable("C")
    atoms = frozenset({_edge_atom(a, b), _edge_atom(b, c), _edge_atom(c, a)})
    return ConjunctiveQuery(atoms, frozenset({a}), name="triangle_vertex")


# ----------------------------------------------------------------------
# Symmetric shapes (canonical-labelling stress families)
# ----------------------------------------------------------------------
def parallel_edges_query(k: int) -> ConjunctiveQuery:
    """``r0(A0, B0), ..., r{k-1}(Ak-1, Bk-1)``: k disjoint edges, each
    over its own symbol — interchangeable once symbols are renameable."""
    atoms = frozenset(
        Atom(f"r{i}", (Variable(f"A{i}"), Variable(f"B{i}")))
        for i in range(k)
    )
    return ConjunctiveQuery(atoms, frozenset(), name=f"parallel{k}")


def disjoint_triangles_query(k: int) -> ConjunctiveQuery:
    """k vertex-disjoint directed triangles over ``edge``."""
    atoms = []
    for i in range(k):
        x, y, z = (Variable(f"{name}{i}") for name in "XYZ")
        atoms += [_edge_atom(x, y), _edge_atom(y, z), _edge_atom(z, x)]
    return ConjunctiveQuery(frozenset(atoms), frozenset(),
                            name=f"triangles{k}")


def spider_query(legs: int) -> ConjunctiveQuery:
    """``ans(C) :- edge(C, Xi), edge(Xi, Yi)`` for i < *legs*: a star
    whose legs have length two."""
    centre = Variable("C")
    atoms = []
    for i in range(legs):
        x, y = Variable(f"X{i}"), Variable(f"Y{i}")
        atoms += [_edge_atom(centre, x), _edge_atom(x, y)]
    return ConjunctiveQuery(frozenset(atoms), frozenset({centre}),
                            name=f"spider{legs}")


def grid_query(side: int) -> ConjunctiveQuery:
    """The undirected *side* x *side* grid (``edge`` both ways)."""
    def node(i, j):
        return Variable(f"G{i}_{j}")

    atoms = []
    for i in range(side):
        for j in range(side):
            for a, b in ((i, j + 1), (i + 1, j)):
                if a < side and b < side:
                    atoms += [_edge_atom(node(i, j), node(a, b)),
                              _edge_atom(node(a, b), node(i, j))]
    return ConjunctiveQuery(frozenset(atoms), frozenset(),
                            name=f"grid{side}")


#: name -> (constructor, sizes): shapes whose automorphism groups make
#: individualization–refinement branch (the canonical labeller's tests
#: and ``benchmarks/bench_canonical.py`` share them).
SYMMETRIC_FAMILIES = {
    "star": (star_query, (2, 4, 6, 8, 12, 16)),
    "parallel": (parallel_edges_query, (2, 4, 8, 12)),
    "triangles": (disjoint_triangles_query, (1, 2, 3, 4, 5)),
    "spider": (spider_query, (3, 5, 7)),
    "clique": (clique_query, (4, 6, 8)),
    "grid": (grid_query, (3, 4)),
    "cycle": (cycle_query, (4, 8, 12)),
}


# ----------------------------------------------------------------------
# Random graphs
# ----------------------------------------------------------------------
def gnp_graph(n_nodes: int, edge_probability: float,
              directed: bool = True, seed: Optional[int] = None
              ) -> Database:
    """An Erdős–Rényi ``G(n, p)`` edge relation (no self-loops)."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    rows: List[Tuple[int, int]] = []
    for source in range(n_nodes):
        for target in range(n_nodes):
            if source == target:
                continue
            if not directed and source > target:
                continue
            if rng.random() < edge_probability:
                rows.append((source, target))
                if not directed:
                    rows.append((target, source))
    return Database([Relation(EDGE, 2, rows)])


def _sparse_gnp_edges(n_nodes: int, edge_probability: float,
                      rng: random.Random) -> List[Tuple[int, int]]:
    """A directed ``G(n, p)`` edge list drawn by geometric skipping over
    the ``n (n - 1)`` ordered pairs — O(n + m) instead of O(n^2)."""
    if not 0.0 < edge_probability < 1.0:
        raise ValueError("edge probability must be in (0, 1)")
    edges: List[Tuple[int, int]] = []
    pairs = n_nodes * (n_nodes - 1)
    log_miss = math.log(1.0 - edge_probability)
    index = -1
    while True:
        index += 1 + int(math.log(1.0 - rng.random()) / log_miss)
        if index >= pairs:
            return edges
        source, target = divmod(index, n_nodes - 1)
        edges.append((source, target + (target >= source)))


def heavy_triangle_database(n_nodes: int = 700,
                            edge_probability: float = 0.08,
                            seed: int = 0) -> Database:
    """Relations ``r``, ``s`` and ``t``, three independent directed
    ``G(n, p)`` draws: a genuinely heavy instance of the triangle join
    ``r(A, B), s(B, C), t(C, A)``.

    A worst-case-optimal join pays about one probe per edge plus the
    smaller endpoint neighbourhood per edge, and emits one row per
    triangle (about ``(np)^3``), so heaviness needs many edges of
    sizeable degree.  The default — about 39k edges per relation, degree
    56 and 175k triangles — counts exactly in about 0.3 s on a 2-vCPU
    VM, six times a 50 ms deadline, while each relation stays under the
    row count a 50 ms budget admits for a plain scan; functional
    relations (degree 1) join to a few hundred rows however many tuples
    they hold.
    The draws are independent so the three relations never hold equal
    contents (equal row sets make the sampler's search-space memo
    compare them in full on every lookup).
    """
    rng = random.Random(seed)
    return Database([
        Relation(name, 2, _sparse_gnp_edges(n_nodes, edge_probability, rng))
        for name in ("r", "s", "t")
    ])


def preferential_attachment_graph(n_nodes: int, edges_per_node: int = 2,
                                  seed: Optional[int] = None) -> Database:
    """A Barabási–Albert-style graph: heavy-tailed degrees.

    Skewed degree distributions are what make the degree-aware algorithms
    of Section 6 interesting: most vertices have tiny degree (quasi-keys),
    a few hubs do not.  Edges are stored symmetrically.
    """
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    rng = random.Random(seed)
    targets: List[int] = [0, 1]
    rows = {(0, 1), (1, 0)}
    for node in range(2, n_nodes):
        chosen = set()
        for _ in range(min(edges_per_node, node)):
            chosen.add(rng.choice(targets))
        for other in chosen:
            rows.add((node, other))
            rows.add((other, node))
            targets.extend([node, other])
    return Database([Relation(EDGE, 2, sorted(rows))])


def grid_graph(rows: int, columns: int) -> Database:
    """A deterministic grid, edges in reading order (both directions)."""
    if rows < 1 or columns < 1:
        raise ValueError("grid dimensions must be positive")
    edges = set()
    for r in range(rows):
        for c in range(columns):
            node = r * columns + c
            if c + 1 < columns:
                edges.add((node, node + 1))
                edges.add((node + 1, node))
            if r + 1 < rows:
                edges.add((node, node + columns))
                edges.add((node + columns, node))
    return Database([Relation(EDGE, 2, sorted(edges))])


def count_cliques_brute_force(database: Database, size: int) -> int:
    """Reference clique-occurrence count (ordered tuples), for testing."""
    relation = database[EDGE]
    adjacency = {(s, t) for s, t in relation}
    nodes = sorted({n for row in relation for n in row})

    def extend(chosen: List[int]) -> int:
        if len(chosen) == size:
            return 1
        total = 0
        for node in nodes:
            if node in chosen:
                continue
            if all((node, other) in adjacency and (other, node) in adjacency
                   for other in chosen):
                total += extend(chosen + [node])
        return total

    return extend([])
