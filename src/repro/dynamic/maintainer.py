"""Incremental maintenance of answer counts ([BKS17]-style).

:class:`IncrementalCounter` materializes the join-tree counting dynamic
program of an acyclic quantifier-free query and keeps it consistent under
single-tuple updates:

* per vertex: the matched rows of each of its atoms, the bag relation
  (their intersection-join), and the DP count of every bag row;
* per tree edge: the aggregated child counts keyed by the shared
  variables.

One update touches the atoms over the updated relation; the affected
vertices recompute their local state and the change propagates along the
paths to the roots — every vertex off those paths is untouched.  The
per-update cost is ``O(depth x bag size)`` instead of the full recount's
``O(total database size)``, which is the practical content of the
dynamic-counting results the paper cites.

Scope: quantifier-free acyclic queries, each bag covering atoms with the
same variable set (exactly the instances
:func:`repro.counting.acyclic.count_acyclic` accepts).  Queries with
existential variables or cycles are maintained *through* the Theorem 3.7
reduction by :class:`repro.dynamic.reduced.ReducedMaintainer` (which
feeds the reduced instance's bag deltas to an inner
:class:`IncrementalCounter`); :meth:`MaintainerPool.counter_for` routes
to it automatically.  Only shapes whose #-hypertree width exceeds the
bound still recount — the [BKS17] dichotomy says no better is possible
in general.
"""

from __future__ import annotations

import os
import tempfile
from collections import OrderedDict
from typing import (
    Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple,
)

from ..db.algebra import _row_getter
from ..db.database import Database
from ..decomposition.serialize import (
    PlanSerializationError,
    deserialize_maintainer_state,
    serialize_maintainer_state,
)
from ..envknobs import env_float
from ..exceptions import NotAcyclicError
from ..hypergraph.acyclicity import require_join_tree
from ..query.atom import Atom
from ..query.query import ConjunctiveQuery
from ..query.terms import Variable
from .updates import Delete, Insert, Update

Row = Tuple[Hashable, ...]

#: Environment variable naming the default maintainer memory budget in
#: megabytes (fractions allowed).  An explicit ``budget_bytes=`` always
#: wins; the CI spill leg sets a tiny value here so the whole suite runs
#: with spill/restore forced on every long session.
MAINTAINER_BUDGET_ENV = "REPRO_MAINTAINER_BUDGET_MB"

#: Ballpark bytes per stored DP cell (a dict-entry slot plus its share
#: of the key tuple).  The budget arithmetic is an *estimate* — it must
#: be monotone in the DP's row counts and consistent between entries,
#: not exact; CPython's real per-entry overhead is of this order.
CELL_BYTES = 28

#: Fixed per-vertex overhead (the vertex object, schemas, empty dicts).
VERTEX_BASE_BYTES = 512

#: Default width ceiling for the Theorem 3.7 reduction's
#: construction-time decomposition search (matches the engine's
#: ``max_width`` default for counts).  Shared by :class:`MaintainerPool`
#: and :class:`~repro.service.shard.SessionShard` so the maintained
#: class cannot silently drift between direct pool users and sessions.
DEFAULT_REDUCED_WIDTH = 3


def maintainer_budget_from_env() -> Optional[int]:
    """The ``REPRO_MAINTAINER_BUDGET_MB`` budget in bytes, or ``None``.

    Zero and negative values mean *unbounded* — a user writing ``0``
    intends "no budget", not a one-byte budget that would thrash a
    checkpoint on every read.  An unparseable value also means
    unbounded, but warns once (see :mod:`repro.envknobs`) instead of
    being silently swallowed.
    """
    value = env_float(MAINTAINER_BUDGET_ENV)
    if value is None or value <= 0:
        return None
    return max(1, int(value * 1024 * 1024))


#: Sentinel: "no explicit budget given, consult the environment".
#: Pass ``budget_bytes=None`` to force an unbounded pool regardless of
#: the environment (tests pin this for determinism).
BUDGET_FROM_ENV = object()


def _atom_match(atom: Atom, row: Row) -> Optional[Row]:
    """The bag row this relation *row* contributes through *atom*.

    ``None`` if the row fails the atom's constant / repeated-variable
    pattern.  The returned row follows the atom's sorted variable schema.
    """
    binding: Dict[Variable, Hashable] = {}
    for term, value in zip(atom.terms, row):
        if isinstance(term, Variable):
            if term in binding:
                if binding[term] != value:
                    return None
            else:
                binding[term] = value
        elif term.value != value:
            return None
    schema = sorted(binding, key=lambda v: v.name)
    return tuple(binding[v] for v in schema)


class AtomMatcher:
    """One atom's :func:`_atom_match`, compiled once.

    When every term is a distinct variable the match never fails and is
    a fixed column permutation: the identity when the terms already
    follow the sorted variable schema, else one
    :func:`~repro.db.algebra._row_getter`.  A whole relation then
    matches in C — the frozenset of rows as-is, or one ``map`` of the
    getter — and the map is injective, so every bag row has exactly one
    source row.  Atoms with constants or repeated variables fall back to
    the general per-row check.

    Holds an extractor closure: owners drop it from pickled checkpoints
    and compile it again on restore.
    """

    __slots__ = ("atom", "plain", "match")

    def __init__(self, atom: Atom):
        self.atom = atom
        terms = atom.terms
        #: Every term a distinct variable: each row matches, injectively.
        self.plain = (all(isinstance(term, Variable) for term in terms)
                      and len(set(terms)) == len(terms))
        if not self.plain:
            self.match = lambda row: _atom_match(atom, row)  # noqa: E731
            return
        order = tuple(sorted(range(len(terms)),
                             key=lambda i: terms[i].name))
        if order == tuple(range(len(terms))):
            # The identity: ``tuple`` hands a tuple row back unchanged.
            self.match = tuple
        else:
            self.match = _row_getter(order)

    def match_rows(self, rows: Iterable[Row]) -> Iterable[Row]:
        """The bag rows of every matching row in *rows* (repeats are
        possible only when the atom is not :attr:`plain`)."""
        if not self.plain:
            return [bag_row for bag_row in map(self.match, rows)
                    if bag_row is not None]
        if self.match is tuple:
            return rows
        return map(self.match, rows)


class _Vertex:
    """Mutable per-vertex state of the materialized DP."""

    __slots__ = ("index", "schema", "atoms", "atom_rows", "parent",
                 "children", "counts", "shared_with_parent",
                 "child_positions", "agg_cache", "parent_key_of",
                 "child_key_of", "matchers")

    #: Slots carrying :func:`~repro.db.algebra._row_getter` extractors
    #: and :class:`AtomMatcher`\ s — compiled once per tree wiring,
    #: excluded from pickled checkpoints (the zero/one-position getters
    #: are lambdas) and relinked from the position data and atoms on
    #: restore.
    _GETTER_SLOTS = ("parent_key_of", "child_key_of", "matchers")

    def __init__(self, index: int, schema: Tuple[Variable, ...],
                 atoms: List[Atom]):
        self.index = index
        self.schema = schema
        self.atoms = atoms
        #: Multiset of bag rows contributed per atom (an atom over a
        #: relation with duplicates patterns may map several relation rows
        #: to one bag row).
        self.atom_rows: List[Dict[Row, int]] = [dict() for _ in atoms]
        self.parent: Optional[int] = None
        self.children: List[int] = []
        self.counts: Dict[Row, int] = {}
        self.shared_with_parent: Tuple[int, ...] = ()
        #: Per child: the positions (in *this* schema) of the shared
        #: variables — static once the tree is wired.
        self.child_positions: Dict[int, Tuple[int, ...]] = {}
        #: Per child: its aggregated counts keyed by shared-variable
        #: values.  Cached so that repairing one subtree only rebuilds
        #: the aggregates of the children that actually changed.
        self.agg_cache: Dict[int, Dict[Row, int]] = {}
        self.link_getters()

    def link_getters(self) -> None:
        """(Re)compile the key extractors from the position data, and
        the atoms' matchers."""
        self.matchers = [AtomMatcher(atom) for atom in self.atoms]
        self.parent_key_of = _row_getter(self.shared_with_parent)
        self.child_key_of = {
            child: _row_getter(positions)
            for child, positions in self.child_positions.items()
        }

    def __getstate__(self):
        return {
            slot: getattr(self, slot) for slot in self.__slots__
            if slot not in self._GETTER_SLOTS
        }

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        self.link_getters()

    def bag_rows(self) -> Set[Row]:
        """Rows present in *every* atom's match set (the bag relation)."""
        if not self.atom_rows:
            return set()
        smallest = min(self.atom_rows, key=len)
        return {
            row for row in smallest
            if all(row in other for other in self.atom_rows)
        }


class IncrementalCounter:
    """Maintain ``count(Q, D)`` under single-tuple updates.

    >>> counter = IncrementalCounter(query, database)
    >>> counter.count
    42
    >>> counter.apply(Insert("r", (1, 2)))
    >>> counter.count   # updated incrementally
    45
    """

    def __init__(self, query: ConjunctiveQuery, database: Database):
        if not query.is_quantifier_free():
            raise NotAcyclicError(
                "IncrementalCounter requires a quantifier-free query; "
                "use ReducedMaintainer to maintain it through the "
                "Theorem 3.7 reduction"
            )
        self.query = query
        tree = require_join_tree(query.hypergraph())
        self._vertices: List[_Vertex] = []
        self._atoms_by_relation: Dict[str, List[Tuple[int, int]]] = {}
        grouped: Dict[frozenset, List[Atom]] = {}
        for atom in query.atoms_sorted():
            grouped.setdefault(atom.variable_set, []).append(atom)
        for index, bag in enumerate(tree.bags):
            schema = tuple(sorted(bag, key=lambda v: v.name))
            atoms = grouped.get(bag)
            if atoms is None:
                raise NotAcyclicError(
                    f"{query.name}: join-tree bag "
                    f"{sorted(v.name for v in bag)} matches no atom's "
                    f"variable set; the DP cannot be materialized per atom"
                )
            vertex = _Vertex(index, schema, atoms)
            self._vertices.append(vertex)
            for atom_index, atom in enumerate(vertex.atoms):
                self._atoms_by_relation.setdefault(
                    atom.relation, []
                ).append((index, atom_index))
        #: Cumulative count of bag rows re-evaluated by repair passes —
        #: the DP-side observable the operation-counting differential
        #: leg bounds per read (frontier-sized, not resident-sized).
        self.repair_rows = 0
        self._wire_tree(tree)
        self._load(database)
        self._recompute_all()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _wire_tree(self, tree) -> None:
        self._order = tree.rooted_orders()  # post-order, children first
        self._roots: List[int] = []
        for vertex_index, parent, children in self._order:
            vertex = self._vertices[vertex_index]
            vertex.parent = parent
            vertex.children = list(children)
            if parent is None:
                self._roots.append(vertex_index)
            else:
                parent_schema = set(self._vertices[parent].schema)
                shared = tuple(
                    i for i, v in enumerate(vertex.schema)
                    if v in parent_schema
                )
                vertex.shared_with_parent = shared
        # With parents wired, pin each child's shared variables to their
        # positions in the parent's schema (static for the tree's life).
        for vertex in self._vertices:
            for child_index in vertex.children:
                child = self._vertices[child_index]
                shared_vars = tuple(
                    child.schema[i] for i in child.shared_with_parent
                )
                vertex.child_positions[child_index] = tuple(
                    vertex.schema.index(v) for v in shared_vars
                )
        # Positions are final: compile the key extractors once.
        for vertex in self._vertices:
            vertex.link_getters()

    def _load(self, database: Database) -> None:
        for vertex in self._vertices:
            for atom_index, matcher in enumerate(vertex.matchers):
                bag_rows = matcher.match_rows(
                    database[matcher.atom.relation].rows
                )
                if matcher.plain:
                    vertex.atom_rows[atom_index] = dict.fromkeys(bag_rows, 1)
                    continue
                matches = vertex.atom_rows[atom_index]
                for bag_row in bag_rows:
                    matches[bag_row] = matches.get(bag_row, 0) + 1

    # ------------------------------------------------------------------
    # The DP
    # ------------------------------------------------------------------
    def _child_aggregate(self, child: _Vertex) -> Dict[Row, int]:
        """Child counts summed over the variables shared with the parent."""
        aggregate: Dict[Row, int] = {}
        key_of = child.parent_key_of
        for row, count in child.counts.items():
            key = key_of(row)
            aggregate[key] = aggregate.get(key, 0) + count
        return aggregate

    def _recompute_vertex(self, index: int) -> None:
        """Rebuild *index*'s counts and child aggregates from scratch.

        Used for the initial load only; updates go through the row-wise
        delta repair in :meth:`apply_batch`, which patches the cached
        aggregates in place instead of rebuilding them.
        """
        vertex = self._vertices[index]
        for child_index in vertex.children:
            vertex.agg_cache[child_index] = self._child_aggregate(
                self._vertices[child_index]
            )
        aggregates = [
            (vertex.child_key_of[child_index],
             vertex.agg_cache[child_index])
            for child_index in vertex.children
        ]
        vertex.counts = {}
        for row in vertex.bag_rows():
            total = 1
            for key_of, aggregate in aggregates:
                total *= aggregate.get(key_of(row), 0)
                if total == 0:
                    break
            if total:
                vertex.counts[row] = total

    def _recompute_all(self) -> None:
        for vertex_index, _parent, _children in self._order:
            self._recompute_vertex(vertex_index)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """The current answer count."""
        total = 1
        for root in self._roots:
            total *= sum(self._vertices[root].counts.values())
        return total

    def _ingest(self, update: Update) -> List[Tuple[int, Row]]:
        """Fold one update into the atom match sets; return the
        ``(vertex, bag row)`` pairs whose DP value may have changed."""
        touched = self._atoms_by_relation.get(update.relation, ())
        dirty: List[Tuple[int, Row]] = []
        for vertex_index, atom_index in touched:
            vertex = self._vertices[vertex_index]
            bag_row = vertex.matchers[atom_index].match(update.row)
            if bag_row is None:
                continue
            matches = vertex.atom_rows[atom_index]
            if isinstance(update, Insert):
                matches[bag_row] = matches.get(bag_row, 0) + 1
            else:
                remaining = matches.get(bag_row, 0) - 1
                if remaining > 0:
                    matches[bag_row] = remaining
                else:
                    matches.pop(bag_row, None)
            dirty.append((vertex_index, bag_row))
        return dirty

    def _row_count(self, vertex: _Vertex, row: Row) -> int:
        """The DP value of one bag *row*, from the cached aggregates."""
        for matches in vertex.atom_rows:
            if row not in matches:
                return 0
        total = 1
        for child_index in vertex.children:
            key = vertex.child_key_of[child_index](row)
            total *= vertex.agg_cache[child_index].get(key, 0)
            if total == 0:
                return 0
        return total

    def apply(self, update: Update) -> None:
        """Apply one insert/delete and repair the DP along affected paths."""
        self.apply_batch((update,))

    def apply_batch(self, updates: Sequence[Update]) -> None:
        """Apply a *batch* of updates with a single delta-propagation pass.

        Every update's match-set change is folded in first; the DP is
        then repaired **row-wise** in post-order: each affected vertex
        re-evaluates exactly its changed bag rows against the cached
        child aggregates, the resulting count deltas patch the parent's
        cached aggregate in place, and only parent rows whose
        shared-variable key actually moved are re-evaluated in turn.
        Vertices off the affected paths — and the untouched rows *on*
        them — are never visited, so a single-tuple update costs the
        affected root-to-leaf paths plus one candidate scan per affected
        parent, not a rebuild of every bag.  The repair is a pure
        function of the match sets, so a batch lands in exactly the
        state sequential application would.
        """
        changed: Dict[int, Set[Row]] = {}
        for update in updates:
            for vertex_index, bag_row in self._ingest(update):
                changed.setdefault(vertex_index, set()).add(bag_row)
        if not changed:
            return
        for vertex_index, parent, _children in self._order:
            rows = changed.get(vertex_index)
            if not rows:
                continue
            vertex = self._vertices[vertex_index]
            deltas: Dict[Row, int] = {}
            self.repair_rows += len(rows)
            for row in rows:
                new = self._row_count(vertex, row)
                old = vertex.counts.get(row, 0)
                if new == old:
                    continue
                if new:
                    vertex.counts[row] = new
                else:
                    del vertex.counts[row]
                if parent is not None:
                    key = vertex.parent_key_of(row)
                    deltas[key] = deltas.get(key, 0) + (new - old)
            if parent is None or not deltas:
                continue
            parent_vertex = self._vertices[parent]
            aggregate = parent_vertex.agg_cache[vertex_index]
            moved = set()
            for key, delta in deltas.items():
                if delta == 0:
                    continue
                value = aggregate.get(key, 0) + delta
                if value:
                    aggregate[key] = value
                else:
                    del aggregate[key]
                moved.add(key)
            if not moved:
                continue
            positions = parent_vertex.child_positions[vertex_index]
            parent_changed = changed.setdefault(parent, set())
            # Candidate parent rows live in its smallest atom match set
            # (bag membership requires presence in every one of them).
            candidates = (min(parent_vertex.atom_rows, key=len)
                          if parent_vertex.atom_rows else ())
            for row in candidates:
                if tuple(row[i] for i in positions) in moved:
                    parent_changed.add(row)

    def apply_many(self, updates: Sequence[Update]) -> None:
        """Apply a sequence of updates (alias of :meth:`apply_batch`)."""
        self.apply_batch(tuple(updates))

    def estimated_bytes(self) -> int:
        """An estimate of this DP's resident size in bytes.

        Bag-relation rows times aggregate width: every vertex charges its
        atom match sets, bag counts, and cached child aggregates at
        :data:`CELL_BYTES` per stored cell (schema width plus the count
        value), plus :data:`VERTEX_BASE_BYTES` of fixed overhead.  The
        estimate is O(#vertices) to compute — pure ``len()`` arithmetic,
        no row visits — so the pool can refresh it after every repair.
        """
        total = 0
        for vertex in self._vertices:
            width = len(vertex.schema) + 1
            rows = len(vertex.counts)
            for matches in vertex.atom_rows:
                rows += len(matches)
            for aggregate in vertex.agg_cache.values():
                rows += len(aggregate)
            total += VERTEX_BASE_BYTES + rows * width * CELL_BYTES
        return total


# ----------------------------------------------------------------------
# Multi-query sharing: one materialized DP per decomposition tree
# ----------------------------------------------------------------------
class SharedMaintainer:
    """One maintained DP serving every same-shape query.

    The counter — an :class:`IncrementalCounter`, or a
    :class:`~repro.dynamic.reduced.ReducedMaintainer` for shapes that
    need the Theorem 3.7 reduction (both expose ``count`` /
    ``apply_batch`` / ``estimated_bytes``) — runs in *canonical space*:
    it is built over the shape-canonical query and the database's
    canonically-renamed restriction, so any query that is a bijective
    variable renaming of another (same decomposition tree, same symbol
    mapping onto the database) reads its count from the same maintained
    DP.  ``clients`` records the distinct query objects served;
    ``served`` counts reads.
    """

    __slots__ = ("counter", "symbol_map", "clients", "served",
                 "resident_bytes")

    def __init__(self, counter: IncrementalCounter,
                 symbol_map: Dict[str, str]):
        self.counter = counter
        #: original relation symbol -> canonical symbol of the DP's query.
        self.symbol_map = symbol_map
        self.clients: Set[ConjunctiveQuery] = set()
        self.served = 0
        #: Cached :meth:`IncrementalCounter.estimated_bytes`, refreshed by
        #: the pool after every build, restore, and repair.
        self.resident_bytes = counter.estimated_bytes()

    def refresh_bytes(self) -> int:
        self.resident_bytes = self.counter.estimated_bytes()
        return self.resident_bytes

    @property
    def count(self) -> int:
        return self.counter.count

    def translate(self, update: Update) -> Optional[Update]:
        """*update* renamed into canonical space; ``None`` when the
        updated relation does not occur in the maintained query (the
        count cannot change, so the DP is left untouched)."""
        target = self.symbol_map.get(update.relation)
        if target is None:
            return None
        if isinstance(update, Insert):
            return Insert(target, update.row)
        return Delete(target, update.row)


#: Updates a token's delta journal may hold before the pool gives up on
#: its cold checkpoints: past this, replaying the journal stops being
#: cheaper than rebuilding, and the journal itself becomes the memory
#: leak the budget exists to prevent — so the checkpoints are dropped,
#: the journal cleared, and the next read rebuilds from the database.
JOURNAL_LIMIT = 4096


class _SpillRecord:
    """Where one spilled maintainer's checkpoint lives, how far into its
    token's delta journal the checkpoint is current, how big the DP was
    when spilled (for pre-eviction before a restore), and the entry's
    client/served accounting — kept pool-side so stats survive the
    spill cycle without pickling query objects into the checkpoint."""

    __slots__ = ("path", "journal_offset", "bytes_estimate", "clients",
                 "served")

    def __init__(self, path: str, journal_offset: int,
                 bytes_estimate: int, clients: Set[ConjunctiveQuery],
                 served: int):
        self.path = path
        self.journal_offset = journal_offset
        self.bytes_estimate = bytes_estimate
        self.clients = clients
        self.served = served


class MaintainerPool:
    """A memory-bounded pool of :class:`SharedMaintainer`\\ s, keyed by
    ``(database token, shape fingerprint, symbol renaming)``.

    The *token* names a database version lineage (the streaming session
    uses its database names); the fingerprint plus the symbol renaming
    pin one decomposition tree in canonical space.  All queries landing
    on the same key share one DP — the "many jobs, few shapes" traffic
    the batch service targets, carried over to maintained counts.
    Shapes the direct DP rejects are maintained through the Theorem 3.7
    reduction (its #-decomposition search capped at
    :data:`DEFAULT_REDUCED_WIDTH`); reduced maintainers ride the same
    eviction, checkpoint-spill, and delta-journal machinery — their
    provenance state pickles inside the same envelope.

    Residency is bounded two ways:

    * ``capacity`` — a count bound (at most this many resident DPs);
    * ``budget_bytes`` — a *size* bound over the estimated DP bytes
      (:meth:`IncrementalCounter.estimated_bytes`).  ``None`` disables
      it; the default consults ``$REPRO_MAINTAINER_BUDGET_MB``.  The
      most recently used entry is never evicted by the byte budget (a
      read must be able to complete), so the effective cap is
      ``max(budget_bytes, largest single DP)``.

    Eviction is strictly LRU over the pool's usage order — deterministic
    under equal-size ties by construction — and **spills** the victim to
    a checkpoint file instead of dropping it: the counter state is
    pickled inside a versioned, checksummed envelope
    (:func:`~repro.decomposition.serialize.serialize_maintainer_state`).
    Updates arriving while an entry is cold land in a per-token **delta
    journal**; a later read of that shape restores the checkpoint and
    replays only the post-checkpoint deltas instead of recounting from
    scratch.  A journal that outgrows :data:`JOURNAL_LIMIT` stops being
    cheaper than a rebuild (and would itself be unbounded memory), so
    the token's checkpoints are dropped and the next read rebuilds from
    the live database.  A checkpoint that fails verification
    (corruption, truncation, format drift) is likewise discarded and
    the DP rebuilt — wrong state is never adopted.

    Checkpoints live in *spill_dir* (a private temporary directory is
    created lazily when omitted; :meth:`close` removes it).  Spill files
    are private to this pool instance — they encode live object state,
    not a cross-process exchange format.

    Not thread-safe by design: the session applies updates and reads
    maintained counts from its submission thread only; a sharded front
    end gives each shard its own pool.
    """

    def __init__(self, capacity: int = 64,
                 budget_bytes=BUDGET_FROM_ENV,
                 spill_dir: Optional[str] = None):
        self.capacity = capacity
        if budget_bytes is BUDGET_FROM_ENV:
            budget_bytes = maintainer_budget_from_env()
        self.budget_bytes: Optional[int] = budget_bytes
        self._entries: "OrderedDict[tuple, SharedMaintainer]" = OrderedDict()
        self._spilled: Dict[tuple, _SpillRecord] = {}
        #: token -> original-space updates applied while one or more of
        #: the token's maintainers were cold (each spill record indexes
        #: into this list; restore replays the suffix).
        self._journals: Dict[Hashable, List[Update]] = {}
        self._spill_dir = spill_dir
        self._owns_spill_dir = False
        self._spill_serial = 0
        self.built = 0
        self.built_reduced = 0
        self.evicted = 0
        self.spilled = 0
        self.restored = 0
        self.restore_failures = 0
        self.spill_failures = 0
        self.journals_dropped = 0
        #: Steady-state high-water mark: sampled after every bound
        #: enforcement, so it tracks what stays resident between reads.
        #: The transient while one fresh DP is being built (its size is
        #: unknowable beforehand) can briefly exceed it; restores
        #: pre-evict using the checkpoint's recorded size, so they do
        #: not.
        self.peak_resident_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Residency accounting
    # ------------------------------------------------------------------
    def resident_bytes(self) -> int:
        """The summed size estimate of every resident DP."""
        return sum(entry.resident_bytes for entry in self._entries.values())

    def _note_peak(self) -> None:
        resident = self.resident_bytes()
        if resident > self.peak_resident_bytes:
            self.peak_resident_bytes = resident

    def _enforce_bounds(self) -> None:
        """Evict (spill) LRU-first until both bounds hold.

        The byte loop stops with one entry left: the most recently used
        DP must stay resident for the read that triggered enforcement.
        """
        while len(self._entries) > max(1, self.capacity):
            self._evict_lru()
        if self.budget_bytes is not None:
            while (len(self._entries) > 1
                   and self.resident_bytes() > self.budget_bytes):
                self._evict_lru()
        self._note_peak()

    def _make_room_for(self, incoming_bytes: int) -> None:
        """Pre-evict so *incoming_bytes* fits the budget: a restore
        knows its checkpoint's recorded size, so the restored DP never
        transiently stacks on top of the victims it will displace."""
        if self.budget_bytes is None:
            return
        headroom = self.budget_bytes - incoming_bytes
        while self._entries and self.resident_bytes() > max(headroom, 0):
            self._evict_lru()

    def _evict_lru(self) -> None:
        key, entry = self._entries.popitem(last=False)
        self.evicted += 1
        if self._spill(key, entry):
            self.spilled += 1

    # ------------------------------------------------------------------
    # Spill / restore
    # ------------------------------------------------------------------
    def _ensure_spill_dir(self) -> Optional[str]:
        if self._spill_dir is None:
            try:
                self._spill_dir = tempfile.mkdtemp(
                    prefix="repro-maintainers-"
                )
            except OSError:
                return None
            self._owns_spill_dir = True
        else:
            try:
                os.makedirs(self._spill_dir, exist_ok=True)
            except OSError:
                return None
        return self._spill_dir

    def _spill(self, key: tuple, entry: SharedMaintainer) -> bool:
        """Checkpoint *entry* to disk; ``False`` means it was dropped
        (the next read rebuilds from the database — correct, just
        slower)."""
        directory = self._ensure_spill_dir()
        if directory is None:
            self.spill_failures += 1
            return False
        try:
            blob = serialize_maintainer_state({
                "key": key,
                "counter": entry.counter,
                "symbol_map": entry.symbol_map,
            })
        except PlanSerializationError:
            self.spill_failures += 1
            return False
        self._spill_serial += 1
        path = os.path.join(directory, f"ckpt-{self._spill_serial}.maint")
        try:
            with open(path, "wb") as handle:
                handle.write(blob)
        except OSError:
            self.spill_failures += 1
            return False
        token = key[0]
        offset = len(self._journals.get(token, ()))
        self._spilled[key] = _SpillRecord(path, offset,
                                          entry.resident_bytes,
                                          entry.clients, entry.served)
        return True

    def _restore(self, key: tuple) -> Optional[SharedMaintainer]:
        """Reload *key*'s checkpoint and replay its post-checkpoint
        deltas; ``None`` when there is no checkpoint or it fails
        verification (the caller rebuilds from the live database)."""
        record = self._spilled.pop(key, None)
        if record is None:
            return None
        token = key[0]
        # Make room *before* loading: the checkpoint's recorded size is
        # known, so the restored DP need never stack on its victims.
        self._make_room_for(record.bytes_estimate)
        try:
            with open(record.path, "rb") as handle:
                blob = handle.read()
            payload = deserialize_maintainer_state(blob)
            if (not isinstance(payload, dict)
                    or payload.get("key") != key):
                raise PlanSerializationError("checkpoint key mismatch")
            counter = payload["counter"]
            symbol_map = payload["symbol_map"]
        except (OSError, KeyError, PlanSerializationError):
            self.restore_failures += 1
            self._unlink(record.path)
            self._trim_journal(token)
            return None
        self._unlink(record.path)
        entry = SharedMaintainer(counter, symbol_map)
        entry.clients = record.clients
        entry.served = record.served
        replay = self._journals.get(token, [])[record.journal_offset:]
        translated = [
            renamed for renamed in map(entry.translate, replay)
            if renamed is not None
        ]
        if translated:
            entry.counter.apply_batch(translated)
        entry.refresh_bytes()
        self.restored += 1
        self._trim_journal(token)
        return entry

    def _trim_journal(self, token: Hashable) -> None:
        """Drop the journal prefix no cold maintainer still needs."""
        offsets = [
            record.journal_offset
            for key, record in self._spilled.items() if key[0] == token
        ]
        if not offsets:
            self._journals.pop(token, None)
            return
        cut = min(offsets)
        if cut:
            journal = self._journals.get(token)
            if journal:
                del journal[:cut]
            for key, record in self._spilled.items():
                if key[0] == token:
                    record.journal_offset -= cut

    @staticmethod
    def _unlink(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def _build_counter(self, query: ConjunctiveQuery, database: Database):
        """A fresh maintained DP for the canonical *query*: the direct
        join-tree DP when it applies, else the Theorem 3.7 reduction.

        Raises :class:`~repro.exceptions.DecompositionNotFoundError`
        (width bound exceeded) for unmaintainable shapes — callers
        should memoize the verdict per fingerprint.
        """
        try:
            return IncrementalCounter(query, database)
        except NotAcyclicError:
            pass
        from .reduced import ReducedMaintainer  # import cycle: lazy

        counter = ReducedMaintainer(query, database)
        self.built_reduced += 1
        return counter

    def counter_for(self, token: Hashable, query: ConjunctiveQuery,
                    database: Database, form) -> SharedMaintainer:
        """The shared maintainer for *query* over *database*.

        *form* is the query's :class:`~repro.query.canonical.CanonicalForm`
        (the session passes the plan cache's memoized form).  A resident
        entry is served as-is; a spilled entry is restored from its
        checkpoint plus the delta journal; only a genuinely unknown key
        builds the DP from scratch — raising
        :class:`~repro.exceptions.DecompositionNotFoundError` when the
        shape is not maintainable (see :meth:`_build_counter`), which
        callers should memoize per fingerprint.  Both bounds are
        enforced afterwards.
        """
        key = (token, form.fingerprint,
               tuple(sorted(form.symbol_map.items())))
        entry = self._entries.get(key)
        if entry is None:
            entry = self._restore(key)
            if entry is None:
                canonical_database = database.renamed_restriction(
                    form.symbol_map
                )
                counter = self._build_counter(form.query, canonical_database)
                entry = SharedMaintainer(counter, dict(form.symbol_map))
                self.built += 1
            self._entries[key] = entry
            self._enforce_bounds()
        else:
            self._entries.move_to_end(key)
            self._note_peak()
        entry.clients.add(query)
        return entry

    def note_read(self, entry: SharedMaintainer) -> None:
        """Re-sample *entry*'s size after a count was read from it.

        A read is not size-neutral for a reduced maintainer: the lazy
        consistency repair rebuilds bag relations, grows index caches,
        and enlarges the inner DP.  Re-sampling here keeps
        ``resident_bytes``/``peak_resident_bytes`` honest between reads
        and lets the byte budget evict colder entries immediately (the
        just-read entry is the MRU, which the budget never evicts).
        """
        entry.refresh_bytes()
        self._enforce_bounds()

    def apply(self, token: Hashable,
              updates: Sequence[Update]) -> int:
        """Batch-apply *updates* to every maintainer of *token*'s
        database; returns how many resident maintainers were touched.
        Cold (spilled) maintainers do not pay: their updates land in the
        token's delta journal and are replayed on restore."""
        touched = 0
        for key, entry in self._entries.items():
            if key[0] != token:
                continue
            translated = [
                renamed for renamed in map(entry.translate, updates)
                if renamed is not None
            ]
            if translated:
                entry.counter.apply_batch(translated)
                entry.refresh_bytes()
                touched += 1
        if any(key[0] == token for key in self._spilled):
            journal = self._journals.setdefault(token, [])
            journal.extend(updates)
            if len(journal) > JOURNAL_LIMIT:
                # Replaying this much is no cheaper than rebuilding, and
                # the journal itself has become the memory the budget is
                # meant to bound: drop the token's checkpoints, clear
                # the journal, rebuild from the database on next read.
                for key in [k for k in self._spilled if k[0] == token]:
                    self._unlink(self._spilled.pop(key).path)
                self._journals.pop(token, None)
                self.journals_dropped += 1
        self._enforce_bounds()
        return touched

    def discard(self, token: Hashable) -> int:
        """Drop every maintainer of *token*'s database — resident and
        spilled, plus its delta journal (e.g. when the named database is
        re-attached wholesale)."""
        doomed = [key for key in self._entries if key[0] == token]
        for key in doomed:
            del self._entries[key]
        cold = [key for key in self._spilled if key[0] == token]
        for key in cold:
            self._unlink(self._spilled.pop(key).path)
        self._journals.pop(token, None)
        return len(doomed) + len(cold)

    def stats(self) -> Dict[str, int]:
        # Cold entries keep their accounting on the spill record, so
        # clients/reads_served cover the whole pool, not just residents.
        clients = (sum(len(e.clients) for e in self._entries.values())
                   + sum(len(r.clients) for r in self._spilled.values()))
        served = (sum(e.served for e in self._entries.values())
                  + sum(r.served for r in self._spilled.values()))
        from .reduced import ReducedMaintainer  # import cycle: lazy

        return {
            "maintainers": len(self._entries),
            "reduced_maintainers": sum(
                isinstance(entry.counter, ReducedMaintainer)
                for entry in self._entries.values()
            ),
            "spilled_entries": len(self._spilled),
            "built": self.built,
            "built_reduced": self.built_reduced,
            "evicted": self.evicted,
            "spilled": self.spilled,
            "restored": self.restored,
            "restore_failures": self.restore_failures,
            "spill_failures": self.spill_failures,
            "journals_dropped": self.journals_dropped,
            "resident_bytes": self.resident_bytes(),
            "peak_resident_bytes": self.peak_resident_bytes,
            "budget_bytes": self.budget_bytes,
            "clients": clients,
            "reads_served": served,
        }

    def close(self) -> None:
        """Delete every checkpoint file (and the pool-owned spill
        directory); resident state is left untouched."""
        for record in self._spilled.values():
            self._unlink(record.path)
        self._spilled.clear()
        self._journals.clear()
        if self._owns_spill_dir and self._spill_dir is not None:
            try:
                os.rmdir(self._spill_dir)
            except OSError:
                pass
            self._spill_dir = None
            self._owns_spill_dir = False
