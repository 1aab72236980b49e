"""Counting-semijoin *delta* reduction along a join tree.

:func:`~repro.consistency.pairwise.full_reducer` re-establishes global
consistency with two semijoin passes over **every** bag row — O(resident
rows) per call, no matter how small the change that dirtied the
instance.  :class:`DeltaReducer` maintains the same fixpoint
*incrementally*: for each join-tree edge and direction it keeps a
per-key **support counter** (how many rows on the far side, themselves
alive in that direction, back each shared-variable key), so a
bag-membership delta propagates along the tree only through keys whose
support crossed zero — the *changed-key frontier* — and the surviving
(globally consistent) rows of every bag are patched row-wise, never
recomputed from whole bags.

The fixpoint being maintained is the classical one: a row ``t`` of bag
``i`` is *alive toward neighbour j* when, for every **other** neighbour
``k`` of ``i``, the key ``t`` projects onto the ``i``–``k`` shared
variables is supported by at least one row of ``k`` alive toward ``i``;
``t`` *survives* (is globally consistent) when that holds for **all**
neighbours.  Per row the reducer stores a miss **bitmask** (one bit per
neighbour whose key set the row currently misses); per directed edge it
stores the support counters and a key-bucketed row index.  A membership
delta updates the masks of exactly the delta'd rows, the counters they
back, and — transitively, in two tree-ordered passes mirroring the
classical bottom-up/top-down schedule — only the rows matching keys
whose support flipped between zero and nonzero.  Work is proportional to
the frontier actually reached, not to the resident instance.

Contract: :meth:`DeltaReducer.reduce` behaves exactly like
``full_reducer`` (including empty propagation across disconnected
components: any empty reduced bag empties every returned set) while also
seeding the incremental state; :meth:`DeltaReducer.apply` then folds one
bag's membership delta in and returns, per affected bag, the rows whose
*survivor* status flipped.  Keys never leave the reducer, so it extracts
them through the scalar-fused :func:`~repro.db.algebra._key_getter` memo
(a bare value for a single shared position); it serializes its position
schedule as plain :meth:`steps` data and relinks the extractor closures
after a pickle round trip.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..db.algebra import _key_getter
from ..hypergraph.acyclicity import JoinTree
from ..query.terms import Variable

Row = Tuple


class DeltaReducer:
    """An incrementally maintained two-pass full reducer.

    Built once per (schema family, join tree); :meth:`reduce` seeds the
    support state from a full row-set family (the ``full_reducer``
    contract), after which :meth:`apply` folds per-bag membership deltas
    in at frontier cost.  All mutable state — miss masks, per-edge row
    indexes, and support counters — lives on the instance;
    :meth:`estimated_cells` prices it for a byte budget.

    The key extractors are closures: :meth:`__getstate__` drops them and
    :meth:`__setstate__` relinks, so instances survive a pickle round
    trip, and :meth:`steps`/:meth:`from_steps` expose the position
    schedule as plain data for holders that persist it separately.
    """

    def __init__(self, schemas: Sequence[Tuple[Variable, ...]],
                 tree: JoinTree):
        if len(schemas) != len(tree.bags):
            raise ValueError("schema count does not match join tree size")
        order = tree.rooted_orders()
        indexes = [
            {v: i for i, v in enumerate(schema)} for schema in schemas
        ]
        adjacency: Dict[int, List[int]] = {
            i: [] for i in range(len(schemas))
        }
        for a, b in tree.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        positions = {}
        for i, neighbours in adjacency.items():
            neighbours.sort()
            mine = set(schemas[i])
            for j in neighbours:
                shared = tuple(sorted(
                    mine & set(schemas[j]), key=lambda v: v.name
                ))
                positions[(i, j)] = tuple(indexes[i][v] for v in shared)
        # The propagation schedule: every child->parent edge in
        # post-order (the bottom-up pass), then every parent->child edge
        # in reverse (the top-down pass).  Processing a directed edge
        # only ever enqueues work on edges strictly later in this
        # sequence, so one sweep reaches the fixpoint.
        ups = [(vertex, parent) for vertex, parent, _children in order
               if parent is not None]
        downs = [(parent, vertex) for vertex, parent, _children
                 in reversed(order) if parent is not None]
        steps = (
            tuple(len(schema) for schema in schemas),
            tuple((i, j, positions[(i, j)]) for (i, j) in sorted(positions)),
            tuple(ups + downs),
        )
        self._link(steps)

    # ------------------------------------------------------------------
    # Linking and (re)serialization
    # ------------------------------------------------------------------
    def _link(self, steps: tuple) -> None:
        widths, edges, schedule = steps
        self._widths: Tuple[int, ...] = tuple(widths)
        self._size = len(self._widths)
        self._positions: Dict[Tuple[int, int], Tuple[int, ...]] = {
            (i, j): tuple(key_positions) for i, j, key_positions in edges
        }
        self._schedule: Tuple[Tuple[int, int], ...] = tuple(
            (i, j) for i, j in schedule
        )
        self._neighbours: List[List[int]] = [[] for _ in range(self._size)]
        for (i, j) in sorted(self._positions):
            self._neighbours[i].append(j)
        self._bit: List[Dict[int, int]] = [
            {j: 1 << slot for slot, j in enumerate(neighbours)}
            for neighbours in self._neighbours
        ]
        self._relink()
        #: Cumulative work counters — what the operation-counting
        #: differential leg asserts O(frontier) bounds against.
        self.stats: Dict[str, int] = {
            "applied_rows": 0,   # membership-delta rows folded in
            "key_flips": 0,      # support counters crossing zero
            "rows_touched": 0,   # rows visited by frontier propagation
            "propagations": 0,   # _propagate sweeps
        }
        self._reset()

    def _relink(self) -> None:
        self._getters = {
            edge: _key_getter(key_positions)
            for edge, key_positions in self._positions.items()
        }

    def steps(self) -> tuple:
        """The position schedule as plain data: ``(widths, edges,
        schedule)`` — picklable, and relinkable with :meth:`from_steps`
        (which starts from *empty* support state; reseed via
        :meth:`reduce`)."""
        return (
            self._widths,
            tuple((i, j, self._positions[(i, j)])
                  for (i, j) in sorted(self._positions)),
            self._schedule,
        )

    @classmethod
    def from_steps(cls, steps: tuple) -> "DeltaReducer":
        """Relink a reducer from :meth:`steps` data (no schema work)."""
        self = cls.__new__(cls)
        self._link(steps)
        return self

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_getters", None)  # closures: relinked on restore
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._relink()

    def _reset(self) -> None:
        #: Per bag: row -> miss bitmask (bit per neighbour whose shared
        #: key set the row currently misses; ``0`` == survivor).
        self._masks: List[Dict[Row, int]] = [
            {} for _ in range(self._size)
        ]
        #: Per directed edge (i, j): rows of bag *i* bucketed by their
        #: i-j shared key — the frontier chase's reverse index.
        self._index: Dict[Tuple[int, int], Dict[Row, Set[Row]]] = {
            edge: {} for edge in self._positions
        }
        #: Per directed edge (i, j): shared key -> number of rows of bag
        #: *i* alive toward *j* backing it (the support counters).
        self._support: Dict[Tuple[int, int], Dict[Row, int]] = {
            edge: {} for edge in self._positions
        }
        #: Per directed edge: keys whose support flipped and is not yet
        #: propagated into the destination bag's masks.
        self._pending: Dict[Tuple[int, int], Set[Row]] = {
            edge: set() for edge in self._positions
        }
        #: Per bag: survivor count (for the emptiness gate).
        self._alive: List[int] = [0] * self._size
        #: Per bag: first-touch survivor status of rows whose status may
        #: have moved since the last drain.
        self._before: List[Dict[Row, bool]] = [
            {} for _ in range(self._size)
        ]

    # ------------------------------------------------------------------
    # The full_reducer contract (also the seed path)
    # ------------------------------------------------------------------
    def reduce(self, row_sets: Sequence[Iterable[Row]]
               ) -> List[FrozenSet[Row]]:
        """Globally consistent row sets (same order as the input bags).

        Semantics match
        :func:`~repro.consistency.pairwise.full_reducer` exactly,
        including empty propagation across disconnected components.
        Also (re)seeds the incremental support state, so subsequent
        :meth:`apply` calls evolve from exactly these bags.
        """
        if len(row_sets) != self._size:
            raise ValueError("row set count does not match compiled tree")
        self._reset()
        for bag, rows in enumerate(row_sets):
            self._fold_membership(bag, rows, ())
        self._propagate()
        self._before = [{} for _ in range(self._size)]
        if self.any_empty():
            return [frozenset() for _ in range(self._size)]
        return [self.survivors(bag) for bag in range(self._size)]

    # ------------------------------------------------------------------
    # Incremental application
    # ------------------------------------------------------------------
    def apply(self, bag: int, added: Iterable[Row], removed: Iterable[Row]
              ) -> Dict[int, Tuple[FrozenSet[Row], FrozenSet[Row]]]:
        """Fold one bag's membership delta in; returns per affected bag
        the survivor rows that appeared and disappeared.

        *added* and *removed* must be disjoint and be genuine membership
        flips (rows entering/leaving the bag).  Cost is proportional to
        the delta plus the changed-key frontier it reaches — resident
        rows whose support did not move are never visited.
        """
        self._fold_membership(bag, added, removed)
        self._propagate()
        return self._drain_changes()

    def _fold_membership(self, bag: int, added: Iterable[Row],
                         removed: Iterable[Row]) -> None:
        masks = self._masks[bag]
        neighbours = self._neighbours[bag]
        bits = self._bit[bag]
        getters = self._getters
        before = self._before[bag]
        for row in removed:
            mask = masks.pop(row, None)
            if mask is None:
                continue
            self.stats["applied_rows"] += 1
            if row not in before:
                before[row] = mask == 0
            if mask == 0:
                self._alive[bag] -= 1
            for j in neighbours:
                key = getters[(bag, j)](row)
                index = self._index[(bag, j)]
                bucket = index.get(key)
                if bucket is not None:
                    bucket.discard(row)
                    if not bucket:
                        del index[key]
                if mask & ~bits[j] == 0:  # was alive toward j
                    self._support_change(bag, j, key, -1)
        for row in added:
            if row in masks:
                continue
            self.stats["applied_rows"] += 1
            if row not in before:
                before[row] = False
            mask = 0
            keys = []
            for j in neighbours:
                key = getters[(bag, j)](row)
                keys.append(key)
                self._index[(bag, j)].setdefault(key, set()).add(row)
                if not self._support[(j, bag)].get(key):
                    mask |= bits[j]
            masks[row] = mask
            if mask == 0:
                self._alive[bag] += 1
            for j, key in zip(neighbours, keys):
                if mask & ~bits[j] == 0:  # alive toward j
                    self._support_change(bag, j, key, +1)

    def _support_change(self, bag: int, toward: int, key: Row,
                        delta: int) -> None:
        support = self._support[(bag, toward)]
        value = support.get(key, 0) + delta
        if value:
            support[key] = value
        else:
            support.pop(key, None)
        if (value == 0) != (value - delta == 0):  # presence flipped
            self.stats["key_flips"] += 1
            self._pending[(bag, toward)].add(key)

    def _propagate(self) -> None:
        """Chase pending key flips through the two tree-ordered passes.

        Each directed edge is visited once; processing edge ``i -> j``
        corrects the ``j``-side miss bit of exactly the rows of bag
        ``j`` matching a flipped key (found through the per-edge index),
        and any aliveness those corrections flip enqueues keys on edges
        strictly later in the schedule — so one sweep converges.
        """
        self.stats["propagations"] += 1
        pending = self._pending
        for edge in self._schedule:
            keys = pending[edge]
            if not keys:
                continue
            pending[edge] = set()
            source, destination = edge
            support = self._support[edge]
            index = self._index[(destination, source)]
            bit = self._bit[destination][source]
            masks = self._masks[destination]
            for key in keys:
                present = bool(support.get(key))
                bucket = index.get(key)
                if not bucket:
                    continue
                self.stats["rows_touched"] += len(bucket)
                for row in bucket:
                    mask = masks[row]
                    if bool(mask & bit) == (not present):
                        continue  # flip-flopped back: bit already right
                    new_mask = (mask & ~bit) if present else (mask | bit)
                    masks[row] = new_mask
                    self._mask_changed(destination, row, mask, new_mask,
                                       skip=source)

    def _mask_changed(self, bag: int, row: Row, old_mask: int,
                      new_mask: int, skip: int) -> None:
        if (old_mask == 0) != (new_mask == 0):
            before = self._before[bag]
            if row not in before:
                before[row] = old_mask == 0
            self._alive[bag] += 1 if new_mask == 0 else -1
        bits = self._bit[bag]
        for j in self._neighbours[bag]:
            if j == skip:
                continue
            other = ~bits[j]
            was_alive = (old_mask & other) == 0
            now_alive = (new_mask & other) == 0
            if was_alive == now_alive:
                continue
            key = self._getters[(bag, j)](row)
            self._support_change(bag, j, key, 1 if now_alive else -1)

    def _drain_changes(self) -> Dict[int, Tuple[FrozenSet[Row],
                                                FrozenSet[Row]]]:
        changes: Dict[int, Tuple[FrozenSet[Row], FrozenSet[Row]]] = {}
        for bag, before in enumerate(self._before):
            if not before:
                continue
            masks = self._masks[bag]
            added = set()
            removed = set()
            for row, was_survivor in before.items():
                survives = masks.get(row) == 0
                if survives and not was_survivor:
                    added.add(row)
                elif was_survivor and not survives:
                    removed.add(row)
            self._before[bag] = {}
            if added or removed:
                changes[bag] = (frozenset(added), frozenset(removed))
        return changes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def survivors(self, bag: int) -> FrozenSet[Row]:
        """The globally consistent rows of one bag (ungated — callers
        wanting ``full_reducer`` semantics must consult
        :meth:`any_empty` for the cross-component emptiness gate)."""
        return frozenset(
            row for row, mask in self._masks[bag].items() if mask == 0
        )

    def survivor_count(self, bag: int) -> int:
        return self._alive[bag]

    def any_empty(self) -> bool:
        """``True`` when some bag has no surviving row — the condition
        under which ``full_reducer`` empties every bag."""
        return any(alive == 0 for alive in self._alive)

    def estimated_cells(self) -> int:
        """Stored cells (mask map, per-edge indexes, support counters)
        for :data:`~repro.dynamic.maintainer.CELL_BYTES` pricing —
        O(#bags + #edges) arithmetic, no row visits."""
        total = 0
        for bag, masks in enumerate(self._masks):
            width = self._widths[bag] + 1
            # The mask entry plus one index entry per neighbour per row.
            total += len(masks) * width * (1 + len(self._neighbours[bag]))
        for edge, support in self._support.items():
            total += len(support) * (len(self._positions[edge]) + 1)
        return total
