"""Local-consistency decision procedures (Lemma 4.3; [GS17b]).

For queries whose cores have generalized hypertree width at most ``k``,
non-emptiness of the answer set can be decided by enforcing pairwise
consistency over the standard extension of the database to the view set
``V^k_Q`` and checking that no view became empty.  This is the engine behind
the polynomial-time core computation of Lemma 4.3 and, via Theorem 1.3, the
promise-free part of the tractability result.

:class:`CompiledReducer` is the compiled-tier counterpart of
:func:`~repro.consistency.pairwise.full_reducer`: for a *fixed* join tree
over *fixed* bag schemas it resolves every semijoin's key extractors and
probe order once, at construction, and then reduces plain row sets with no
per-pass schema work — the shape the compiled counting programs and the
reduced maintainer's refresh pass execute on every read.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Set, Tuple

from ..db.algebra import _key_getter
from ..db.database import Database
from ..hypergraph.acyclicity import JoinTree
from ..query.query import ConjunctiveQuery
from ..query.terms import Variable
from .pairwise import pairwise_consistency
from .views import hypertree_view_set, standard_view_extension


class CompiledReducer:
    """A two-pass full reducer compiled for one join tree + schema family.

    The interpreted :func:`~repro.consistency.pairwise.full_reducer`
    re-derives, on every call, which variables each tree edge shares and
    which positions extract them — per bag, per pass.  For a fixed tree
    the schedule is static: this class precomputes, per edge and
    direction, the key extractor on each side, and :meth:`reduce` then
    runs the classical bottom-up/top-down semijoin program over plain
    ``set``/``frozenset`` row collections (no
    :class:`~repro.db.algebra.SubstitutionSet` construction, no schema
    lookups).  Semantics match ``full_reducer`` exactly, including empty
    propagation across disconnected components.

    The extractors are closures, so instances must not be pickled;
    holders either rebuild them on restore (see
    :class:`~repro.dynamic.reduced.ReducedMaintainer`) or persist the
    position-based :meth:`steps` data and relink with
    :meth:`from_steps` (the compiled counting programs do).
    """

    __slots__ = ("_up_steps", "_down_steps", "_up_data", "_down_data",
                 "_size")

    def __init__(self, schemas: Sequence[Tuple[Variable, ...]],
                 tree: JoinTree):
        if len(schemas) != len(tree.bags):
            raise ValueError("schema count does not match join tree size")
        order = tree.rooted_orders()
        indexes = [
            {v: i for i, v in enumerate(schema)} for schema in schemas
        ]
        # Bottom-up: (vertex, ((vertex key pos., child, child key pos.), ...))
        up = []
        for vertex, _parent, children in order:
            probes = []
            mine = set(schemas[vertex])
            for child in children:
                shared = tuple(sorted(
                    mine & set(schemas[child]), key=lambda v: v.name
                ))
                probes.append((
                    tuple(indexes[vertex][v] for v in shared),
                    child,
                    tuple(indexes[child][v] for v in shared),
                ))
            if probes:
                up.append((vertex, tuple(probes)))
        # Top-down: (child, child key pos., parent, parent key pos.).
        down = []
        for vertex, parent, _children in reversed(order):
            if parent is None:
                continue
            shared = tuple(sorted(
                set(schemas[vertex]) & set(schemas[parent]),
                key=lambda v: v.name,
            ))
            down.append((
                vertex,
                tuple(indexes[vertex][v] for v in shared),
                parent,
                tuple(indexes[parent][v] for v in shared),
            ))
        self._link(len(tree.bags), tuple(up), tuple(down))

    def _link(self, size: int, up: tuple, down: tuple) -> None:
        self._size = size
        self._up_data = up
        self._down_data = down
        self._up_steps = [
            (vertex, [
                (_key_getter(mine), child, _key_getter(child_positions))
                for mine, child, child_positions in probes
            ])
            for vertex, probes in up
        ]
        self._down_steps = [
            (vertex, _key_getter(mine), parent, _key_getter(parent_positions))
            for vertex, mine, parent, parent_positions in down
        ]

    def steps(self) -> tuple:
        """The position-based schedule as plain data:
        ``(size, up_steps, down_steps)`` — picklable, hashable, and
        relinkable with :meth:`from_steps`."""
        return (self._size, self._up_data, self._down_data)

    @classmethod
    def from_steps(cls, steps: tuple) -> "CompiledReducer":
        """Relink a reducer from :meth:`steps` data (no schema work)."""
        size, up, down = steps
        self = cls.__new__(cls)
        self._link(size, up, down)
        return self

    def reduce(self, row_sets: Sequence[FrozenSet[tuple]]
               ) -> List[FrozenSet[tuple]]:
        """Globally consistent row sets (same order as the input bags).

        An input collection that survives a pass unchanged is returned
        by reference, so callers holding cache-bearing snapshots keep
        them for the bags the reduction did not touch.
        """
        if len(row_sets) != self._size:
            raise ValueError("row set count does not match compiled tree")
        reduced: List = list(row_sets)
        # Key sets indexed per vertex (getter -> keys), so a shrink
        # invalidates exactly the shrunk vertex's slot instead of
        # rebuilding a flat dict over every cached edge.
        key_sets: List = [None] * self._size

        def keys_of(index: int, getter) -> Set[tuple]:
            per_vertex = key_sets[index]
            if per_vertex is None:
                per_vertex = key_sets[index] = {}
            cached = per_vertex.get(getter)
            if cached is None:
                cached = per_vertex[getter] = set(map(getter, reduced[index]))
            return cached

        for vertex, probes in self._up_steps:
            rows = reduced[vertex]
            if not rows:
                continue
            if len(probes) == 1:
                mine_of, child, child_of = probes[0]
                keys = keys_of(child, child_of)
                kept = {row for row in rows if mine_of(row) in keys}
            else:
                resolved = [
                    (mine_of, keys_of(child, child_of))
                    for mine_of, child, child_of in probes
                ]
                kept = {
                    row for row in rows
                    if all(mine_of(row) in keys for mine_of, keys in resolved)
                }
            if len(kept) != len(rows):
                reduced[vertex] = kept
                key_sets[vertex] = None
        for vertex, mine_of, parent, parent_of in self._down_steps:
            rows = reduced[vertex]
            if not rows:
                continue
            keys = keys_of(parent, parent_of)
            kept = {row for row in rows if mine_of(row) in keys}
            if len(kept) != len(rows):
                reduced[vertex] = kept
                key_sets[vertex] = None
        if any(not rows for rows in reduced):
            return [frozenset() for _ in reduced]
        return [rows if isinstance(rows, frozenset) else frozenset(rows)
                for rows in reduced]


def nonempty_after_pairwise_consistency(query: ConjunctiveQuery,
                                        database: Database,
                                        width: int) -> bool:
    """Local-consistency answer-existence test.

    Returns ``True`` iff all views of ``V^k_Q`` remain non-empty after the
    pairwise-consistency fixpoint over the standard view extension of
    *database*.  Sound and complete under the promise that the cores of
    *query* have generalized hypertree width at most *width* ([GS17b]); in
    general it may only return false positives (never false negatives).

    Relations of *query* symbols missing from *database* make the answer
    trivially ``False``.
    """
    for atom in query.atoms:
        relation = database.get(atom.relation)
        if relation is None or len(relation) == 0:
            return False
    views = hypertree_view_set(query, width)
    view_db = standard_view_extension(views, database)
    if any(len(instance) == 0 for instance in view_db.values()):
        return False
    reduced = pairwise_consistency(view_db)
    return all(len(instance) > 0 for instance in reduced.values())
