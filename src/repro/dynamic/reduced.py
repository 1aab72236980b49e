"""Reduction-based maintenance for bounded-#htw queries (Theorem 3.7).

:class:`IncrementalCounter` maintains quantifier-free acyclic queries
only — the shapes whose join-tree DP is materializable per atom.  The
paper's Theorem 3.7 reduces *any* bounded-#htw counting instance to a
quantifier-free acyclic one counted over the decomposition's bag
relations; :class:`ReducedMaintainer` carries the [BKS17]-style delta
propagation **through that reduction**, so quantified and cyclic shapes
with a #-hypertree decomposition stop recounting on every update.

The reduction runs **once**, at construction:

1. find a :class:`~repro.decomposition.sharp.SharpDecomposition` (width
   iterative-deepening up to ``max_width``);
2. materialize per-bag **provenance**: every bag keeps its *parts* — the
   witness view's source atoms plus the hosted core atoms, each with its
   matched rows and mutable hash indexes — and a witness-count multiset
   ``counts[bag_row] = |sigma_{bag_row}(join of parts)|`` mapping base
   tuples to the bag rows they support.  A bag keeps one part per atom
   *occurrence*, even where a hosted core atom repeats a source atom,
   because the delta path below telescopes over them.  Construction
   counts witnesses with the bag's worst-case-optimal generic join over
   its *distinct* atoms (:func:`~repro.counting.compile.
   bag_witness_counts`): the join binds the bag's variables first and
   counts each bag row's completions over the atoms' other variables.
   Joining a set with an identical copy of itself is the identity, so
   these are the counts over every part.  Matching rows into parts
   is compiled once per atom (:class:`~repro.dynamic.maintainer.
   AtomMatcher`: a whole relation matches in C unless the atom has
   constants or repeated variables);
3. build the reduced quantifier-free acyclic instance: one relation per
   bag holding the *globally consistent* (full-reduced) bag rows
   projected onto the free variables, counted by an inner
   :class:`IncrementalCounter`.

Each base-relation :class:`~repro.dynamic.updates.Insert` /
:class:`~repro.dynamic.updates.Delete` then translates into bag deltas:
a **delta join** (:class:`_DeltaPlan`, lowered once per ``(bag, part)``)
of the single matched row against the bag's other parts patches the
witness counts of exactly the affected bags (occurrences of a repeated
symbol are processed one at a time, so self-joins telescope correctly),
and bag-membership flips are *recorded* as per-bag
added/removed row sets (flips that cancel within a batch net out to
nothing).  The next read folds those membership deltas into a
counting-semijoin :class:`~repro.consistency.delta.DeltaReducer`, which
re-establishes global consistency by propagating only through shared
keys whose per-edge support counter crossed zero — the changed-key
frontier — and reports exactly the bag rows whose *globally consistent*
(survivor) status flipped.  Per-bag projection-support counters turn
those survivor flips into fed-row deltas for the inner DP, repaired
row-wise through ``apply_batch`` — never a recount, never a pass over
resident rows, and nothing at all when updates cancelled out.

Global consistency still cannot be skipped: the projected bag family
only joins back to ``pi_free(Q'(D))`` when every bag is exactly
``pi_bag(Q'(D))`` first (the tp-covered property in the proof of
Theorem 3.7) — locally consistent bags can overcount after projection.
What *changed* (the PR 5 design re-ran two full semijoin passes over all
resident bag rows per dirty read) is how consistency is re-established:
the reducer maintains the same fixpoint incrementally, so a dirty read
now costs O(delta + frontier reached), independent of the resident
instance.  Only a checkpoint restore pays a full re-reduction — once, to
reseed the support counters the pickled envelope intentionally omits.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from ..collector import collector_paused
from ..consistency.delta import DeltaReducer
from ..counting.compile import bag_witness_counts
from ..db.algebra import _row_getter
from ..db.database import Database
from ..db.relation import Relation
from ..decomposition.sharp import (
    SharpDecomposition,
    find_sharp_hypertree_decomposition_up_to,
)
from ..exceptions import DecompositionNotFoundError
from ..query.atom import Atom
from ..query.query import ConjunctiveQuery
from ..query.terms import Variable
from .maintainer import (
    CELL_BYTES,
    DEFAULT_REDUCED_WIDTH,
    VERTEX_BASE_BYTES,
    AtomMatcher,
    IncrementalCounter,
)
from .updates import Delete, Insert, Update

Row = Tuple[Hashable, ...]

class _DynPart:
    """One part of a bag's provenance: an atom occurrence with its
    matched rows and incrementally maintained hash indexes.

    Unlike :class:`~repro.db.algebra.SubstitutionSet` (immutable; every
    update would rebuild the frozen row set and cold-start its caches),
    a part mutates in place: ``add``/``remove`` patch the row set *and*
    every index built so far, so the delta joins of a long update stream
    keep probing warm indexes.
    """

    __slots__ = ("atom", "schema", "rows", "_indexes", "matcher")

    def __init__(self, atom: Atom):
        self.atom = atom
        self.schema: Tuple[Variable, ...] = tuple(
            sorted(atom.variables, key=lambda v: v.name)
        )
        self.rows: Set[Row] = set()
        #: positions tuple -> {key row: set of rows}
        self._indexes: Dict[Tuple[int, ...], Dict[Row, Set[Row]]] = {}
        self.matcher = AtomMatcher(atom)

    def __getstate__(self):
        # The matcher holds a closure: checkpoints carry the atom alone
        # (the same state layout a matcher-less part pickled to).
        return None, {slot: getattr(self, slot)
                      for slot in ("atom", "schema", "rows", "_indexes")}

    def __setstate__(self, state):
        for slot, value in state[1].items():
            setattr(self, slot, value)
        self.matcher = AtomMatcher(self.atom)

    def index_on(self, positions: Tuple[int, ...]) -> Dict[Row, Set[Row]]:
        cached = self._indexes.get(positions)
        if cached is not None:
            return cached
        key_of = _row_getter(positions)
        buckets: Dict[Row, Set[Row]] = {}
        for row in self.rows:
            buckets.setdefault(key_of(row), set()).add(row)
        self._indexes[positions] = buckets
        return buckets

    def add(self, row: Row) -> None:
        self.rows.add(row)
        for positions, index in self._indexes.items():
            index.setdefault(_row_getter(positions)(row), set()).add(row)

    def remove(self, row: Row) -> None:
        self.rows.discard(row)
        for positions, index in self._indexes.items():
            key = _row_getter(positions)(row)
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del index[key]


class _BagState:
    """One bag of the reduced instance: provenance plus repair deltas."""

    __slots__ = ("schema", "parts", "counts", "free_schema", "free_positions",
                 "inner_symbol", "pending_added", "pending_removed",
                 "fed_support")

    def __init__(self, bag: FrozenSet[Variable], atoms: Sequence[Atom],
                 free: FrozenSet[Variable], inner_symbol: Optional[str]):
        self.schema: Tuple[Variable, ...] = tuple(
            sorted(bag, key=lambda v: v.name)
        )
        self.parts: List[_DynPart] = [_DynPart(atom) for atom in atoms]
        #: Witness multiset: bag row -> number of part-join witnesses.
        #: Membership in the bag relation is ``count > 0``; the counts
        #: are what make single-tuple deletes O(delta join), not a
        #: re-derivation of the whole bag.
        self.counts: Dict[Row, int] = {}
        self.free_schema: Tuple[Variable, ...] = tuple(
            v for v in self.schema if v in free
        )
        #: Positions of the free schema inside the bag schema, for the
        #: fed projection (``None`` = every column is free: identity).
        self.free_positions: Optional[Tuple[int, ...]] = (
            None if self.free_schema == self.schema else tuple(
                i for i, v in enumerate(self.schema) if v in free
            )
        )
        #: The reduced instance's relation symbol — ``None`` when the
        #: bag has no free variables (it then only gates emptiness).
        self.inner_symbol = inner_symbol
        #: Membership flips not yet folded into the delta reducer (the
        #: next read's frontier seed).  Disjoint; a flip that reverts
        #: within a batch cancels out of both.
        self.pending_added: Set[Row] = set()
        self.pending_removed: Set[Row] = set()
        #: Projection-support multiset over the *survivor* rows:
        #: ``fed_support[projected_row]`` = number of globally consistent
        #: bag rows projecting onto it.  Zero crossings are exactly the
        #: fed-row deltas for the inner DP; its key set is what the DP
        #: was fed (whenever the global-emptiness gate is open).  Only
        #: maintained for bags with an ``inner_symbol``.
        self.fed_support: Dict[Row, int] = {}


class _DeltaPlan:
    """A compiled per-``(bag, part)`` delta join: witness counts of
    ``pi_keep(seed |><| join of the other parts)``.

    The fold order, the shared variables and the key/output extractors
    are functions of the part schemas, which are fixed for the
    maintainer's life, so the plan resolves them once; :meth:`fold`
    then only probes the parts' warm indexes and merges multiplicities.
    Parts are folded greedily by connectivity, smallest schema first,
    deferring cross products until unavoidable; each step projects the
    intermediate onto ``keep`` plus the variables later parts still
    need (dropped columns merge their witness counts), which keeps a
    delta join from materializing the full per-bag product.  Holds
    extractor closures — never pickled; the maintainer rebuilds plans
    lazily after a checkpoint restore.
    """

    __slots__ = ("_steps", "_final")

    def __init__(self, seed_schema: Tuple[Variable, ...],
                 part_schemas: Sequence[Tuple[Variable, ...]],
                 keep: FrozenSet[Variable]):
        pending = sorted(range(len(part_schemas)),
                         key=lambda i: (len(part_schemas[i]), i))
        bound = set(seed_schema)
        ordered: List[int] = []
        while pending:
            position = next(
                (p for p, slot in enumerate(pending)
                 if bound & set(part_schemas[slot])), 0,
            )
            slot = pending.pop(position)
            ordered.append(slot)
            bound |= set(part_schemas[slot])
        schema = seed_schema
        steps = []
        for rank, slot in enumerate(ordered):
            part_schema = part_schemas[slot]
            part_vars = set(part_schema)
            needed = set(keep)
            for later in ordered[rank + 1:]:
                needed.update(part_schemas[later])
            shared = tuple(v for v in schema if v in part_vars)
            part_index = {v: i for i, v in enumerate(part_schema)}
            schema_index = {v: i for i, v in enumerate(schema)}
            combined = dict(schema_index)
            offset = len(schema)
            for i, v in enumerate(part_schema):
                combined.setdefault(v, offset + i)
            out_schema = tuple(sorted(
                (set(schema) | part_vars) & needed, key=lambda v: v.name
            ))
            steps.append((
                slot,
                tuple(part_index[v] for v in shared),
                _row_getter(tuple(schema_index[v] for v in shared)),
                _row_getter(tuple(combined[v] for v in out_schema)),
            ))
            schema = out_schema
        self._steps = tuple(steps)
        wanted = tuple(v for v in schema if v in keep)
        self._final = (None if wanted == schema else _row_getter(
            tuple({v: i for i, v in enumerate(schema)}[v] for v in wanted)
        ))

    def fold(self, counts: Dict[Row, int],
             parts: Sequence[_DynPart]) -> Dict[Row, int]:
        """Witness counts of ``pi_keep(counts |><| join of parts)``;
        *parts* are the bag's other parts, in the order the plan was
        lowered over."""
        for slot, part_positions, key_of, out_of in self._steps:
            if not counts:
                break
            index = parts[slot].index_on(part_positions)
            get_bucket = index.get
            folded: Dict[Row, int] = {}
            get = folded.get
            for row, multiplicity in counts.items():
                bucket = get_bucket(key_of(row))
                if not bucket:
                    continue
                for part_row in bucket:
                    out_row = out_of(row + part_row)
                    folded[out_row] = get(out_row, 0) + multiplicity
            counts = folded
        final = self._final
        if final is not None and counts:
            projected: Dict[Row, int] = {}
            get = projected.get
            for row, multiplicity in counts.items():
                out_row = final(row)
                projected[out_row] = get(out_row, 0) + multiplicity
            counts = projected
        return counts


class ReducedMaintainer:
    """Maintain ``count(Q, D)`` through the Theorem 3.7 reduction.

    Accepts any query with a #-hypertree decomposition of width
    ``<= max_width`` — in particular the quantified and cyclic shapes
    :class:`IncrementalCounter` rejects.  Raises
    :class:`~repro.exceptions.DecompositionNotFoundError` when the
    query's #-hypertree width exceeds the bound (the caller falls back
    to recounting through the engine).

    The public surface mirrors :class:`IncrementalCounter` (``count``,
    ``apply``, ``apply_batch``, ``estimated_bytes``), so
    :class:`~repro.dynamic.maintainer.SharedMaintainer` and
    :class:`~repro.dynamic.maintainer.MaintainerPool` — including
    checkpoint spill/restore and delta-journal replay — work on either
    without knowing which they hold.
    """

    def __init__(self, query: ConjunctiveQuery, database: Database,
                 decomposition: Optional[SharpDecomposition] = None,
                 max_width: int = DEFAULT_REDUCED_WIDTH):
        if decomposition is None:
            decomposition = find_sharp_hypertree_decomposition_up_to(
                query, max_width
            )
            if decomposition is None:
                raise DecompositionNotFoundError(
                    f"{query.name}: no #-hypertree decomposition of width "
                    f"<= {max_width}; reduction-based maintenance is not "
                    f"available (fall back to recounting)"
                )
        from ..counting.structural import host_core_atoms  # import cycle: lazy

        self.query = query
        self.tree = decomposition.tree
        free = query.free_variables
        # The same per-bag core-atom assignment exact_bag_relations
        # makes — shared code, so the two reductions cannot diverge.
        hosted = host_core_atoms(decomposition)
        views = decomposition.views
        self._bags: List[_BagState] = []
        #: relation symbol -> [(bag index, part index)] — the provenance
        #: translation table from base updates to affected parts.
        self._parts_by_relation: Dict[str, List[Tuple[int, int]]] = {}
        for index, (bag, view_name) in enumerate(
                zip(self.tree.bags, decomposition.bag_views)):
            atoms = list(views[view_name].source_atoms) + hosted[index]
            free_in_bag = bag & free
            symbol = f"bag{index}" if free_in_bag else None
            state = _BagState(bag, atoms, free, symbol)
            self._bags.append(state)
            for part_index, part in enumerate(state.parts):
                self._parts_by_relation.setdefault(
                    part.atom.relation, []
                ).append((index, part_index))
        # Repair state holding extractor closures — rebuilt lazily, and
        # dropped from pickled checkpoints by ``__getstate__``.  The
        # reducer's support counters are intentionally not checkpointed:
        # the first read after a restore reseeds them with one full
        # reduction (construction-shaped work), after which repair is
        # frontier-priced again.
        self._delta_plans: Optional[Dict[Tuple[int, int], _DeltaPlan]] = None
        self._delta_reducer: Optional[DeltaReducer] = None
        self._refreshes = 0
        self._load(database)
        self._dirty = True
        self._nonempty = False
        self._inner: Optional[IncrementalCounter] = None
        self._refresh()
        self._build_inner()

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_delta_plans"] = None
        state["_delta_reducer"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _load(self, database: Database) -> None:
        """Fill every part's match set and seed the witness counts from
        the bag's generic join over its distinct atoms
        (:func:`~repro.counting.compile.bag_witness_counts`)."""
        for state in self._bags:
            distinct = _match_parts(state, database)
            state.counts = bag_witness_counts(
                list(distinct), frozenset(state.schema), database)

    def _build_inner(self) -> None:
        """The reduced quantifier-free acyclic instance, counted by an
        inner :class:`IncrementalCounter` over the projected exact bags.

        Bags without free variables are dropped from the instance: under
        global consistency an empty-schema bag is ``{()}`` exactly when
        the full join is nonempty, so it can only gate emptiness — which
        the kept bags (all empty then) already report.  A query with no
        free variables at all keeps no bag; its 0-or-1 count comes from
        the ``_nonempty`` flag.
        """
        atoms = []
        relations = []
        for state in self._bags:
            if state.inner_symbol is None:
                continue
            atoms.append(Atom(state.inner_symbol, state.free_schema))
            relations.append(Relation(
                state.inner_symbol, len(state.free_schema),
                self._fed_target(state),
            ))
        if not atoms:
            self._inner = None
            return
        reduced_query = ConjunctiveQuery(
            frozenset(atoms), self.query.free_variables,
            name=f"reduced({self.query.name})",
        )
        self._inner = IncrementalCounter(reduced_query, Database(relations))

    # ------------------------------------------------------------------
    # Delta translation (base updates -> bag deltas)
    # ------------------------------------------------------------------
    def apply(self, update: Update) -> None:
        """Apply one base-relation insert/delete through the reduction."""
        self.apply_batch((update,))

    def apply_batch(self, updates: Sequence[Update]) -> None:
        """Apply a batch of base updates.

        Each update delta-joins its matched row against the other parts
        of every hosting bag and patches the witness counts in place;
        occurrences of a repeated relation symbol are updated one at a
        time so self-joins telescope exactly.  The (comparatively)
        expensive consistency/DP repair is deferred to the next read —
        a batch whose membership effects cancel costs no repair at all.
        """
        for update in updates:
            self._apply_one(update)

    def _apply_one(self, update: Update) -> None:
        sign = 1 if isinstance(update, Insert) else -1
        for bag_index, part_index in self._parts_by_relation.get(
                update.relation, ()):
            state = self._bags[bag_index]
            part = state.parts[part_index]
            matched = part.matcher.match(update.row)
            if matched is None:
                continue
            others = [p for i, p in enumerate(state.parts)
                      if i != part_index]
            plan = self._delta_plan(bag_index, part_index, state, part)
            deltas = plan.fold({matched: 1}, others)
            counts = state.counts
            pending_added = state.pending_added
            pending_removed = state.pending_removed
            for bag_row, witnesses in deltas.items():
                old = counts.get(bag_row, 0)
                new = old + sign * witnesses
                if new:
                    counts[bag_row] = new
                else:
                    counts.pop(bag_row, None)
                if (old == 0) == (new == 0):
                    continue
                # Membership flipped: record the row for the next read's
                # frontier repair, cancelling a flip that just reverted.
                if new:
                    if bag_row in pending_removed:
                        pending_removed.discard(bag_row)
                    else:
                        pending_added.add(bag_row)
                else:
                    if bag_row in pending_added:
                        pending_added.discard(bag_row)
                    else:
                        pending_removed.add(bag_row)
                self._dirty = True
            if sign > 0:
                part.add(matched)
            else:
                part.remove(matched)

    def _delta_plan(self, bag_index: int, part_index: int,
                    state: _BagState, part: _DynPart) -> _DeltaPlan:
        """The compiled delta join for one ``(bag, part)`` pair, lowered
        on first use (and again after a checkpoint restore)."""
        plans = self._delta_plans
        if plans is None:
            plans = self._delta_plans = {}
        plan = plans.get((bag_index, part_index))
        if plan is None:
            plan = _DeltaPlan(
                part.schema,
                [p.schema for i, p in enumerate(state.parts)
                 if i != part_index],
                frozenset(state.schema),
            )
            plans[(bag_index, part_index)] = plan
        return plan

    # ------------------------------------------------------------------
    # Read path: exactness + row-wise DP repair
    # ------------------------------------------------------------------
    def _make_reducer(self) -> DeltaReducer:
        """Link the delta reducer for this tree."""
        return DeltaReducer([state.schema for state in self._bags],
                            self.tree)

    def _fed_target(self, state: _BagState) -> FrozenSet[Row]:
        """What the inner DP should hold for one bag right now: the
        supported projected rows while the global-emptiness gate is
        open, nothing otherwise (``full_reducer``'s empty propagation —
        one empty reduced bag empties every fed relation)."""
        if not self._nonempty:
            return frozenset()
        return frozenset(state.fed_support)

    def _project_changes(self, state: _BagState,
                         added: FrozenSet[Row], removed: FrozenSet[Row],
                         ) -> Tuple[Set[Row], Set[Row]]:
        """Fold one bag's survivor diff into its projection-support
        multiset; returns the projected rows whose support crossed zero
        (the bag's fed-row delta).  O(|diff|), never O(survivors)."""
        support = state.fed_support
        if state.free_positions is None:
            # Identity projection: support is survivor membership.
            for row in removed:
                support.pop(row, None)
            for row in added:
                support[row] = 1
            return set(added), set(removed)
        project = _row_getter(state.free_positions)
        proj_added: Set[Row] = set()
        proj_removed: Set[Row] = set()
        for row in removed:
            key = project(row)
            value = support.get(key, 0) - 1
            if value > 0:
                support[key] = value
            else:
                support.pop(key, None)
                proj_removed.add(key)
        for row in added:
            key = project(row)
            value = support.get(key, 0) + 1
            support[key] = value
            if value == 1:
                # A key both dropped and re-supported this round never
                # left the fed set: cancel instead of double-reporting.
                if key in proj_removed:
                    proj_removed.discard(key)
                else:
                    proj_added.add(key)
        return proj_added, proj_removed

    def _refresh(self) -> None:
        """Re-establish global consistency and repair the inner DP.

        Steady state: fold each bag's recorded membership flips into the
        delta reducer — support-counter maintenance plus changed-key
        frontier propagation, O(delta + frontier) — and turn the
        returned survivor diffs into fed-row deltas through the
        projection-support counters.  Only two events cost a pass over
        resident rows: reseeding after a checkpoint restore (the reducer
        is rebuilt with one full reduction) and a flip of the
        global-emptiness gate (every fed relation empties or refills).
        """
        self._refreshes += 1
        reducer = self._delta_reducer
        deltas: List[Update] = []
        if reducer is None:
            # Reseed (construction, checkpoint restore, or an explicit
            # rebuild_consistency): full reduction over the resident bag
            # rows, then diff each bag's fed target against what the
            # inner DP was last known to hold — the pickled support
            # multiset plus gate flag describe that exactly.  The reseed
            # allocates in bulk and makes no reference cycles, so the
            # collector waits until it is over.
            with collector_paused():
                old_feds = [self._fed_target(state) for state in self._bags]
                reducer = self._delta_reducer = self._make_reducer()
                reducer.reduce([frozenset(state.counts)
                                for state in self._bags])
                self._nonempty = not reducer.any_empty()
                for index, state in enumerate(self._bags):
                    state.pending_added.clear()
                    state.pending_removed.clear()
                    if state.inner_symbol is None:
                        continue
                    survivors = reducer.survivors(index)
                    if state.free_positions is None:
                        state.fed_support = dict.fromkeys(survivors, 1)
                    else:
                        project = _row_getter(state.free_positions)
                        support: Dict[Row, int] = {}
                        for row in survivors:
                            key = project(row)
                            support[key] = support.get(key, 0) + 1
                        state.fed_support = support
                    target = self._fed_target(state)
                    for row in target - old_feds[index]:
                        deltas.append(Insert(state.inner_symbol, row))
                    for row in old_feds[index] - target:
                        deltas.append(Delete(state.inner_symbol, row))
        else:
            # Frontier repair: per dirty bag, apply the recorded
            # membership flips and merge the survivor diffs (a row's
            # status can move more than once across bags' applications;
            # the net sign is what matters).
            merged: Dict[int, Dict[Row, int]] = {}
            for index, state in enumerate(self._bags):
                if not (state.pending_added or state.pending_removed):
                    continue
                changes = reducer.apply(
                    index, state.pending_added, state.pending_removed
                )
                state.pending_added = set()
                state.pending_removed = set()
                for bag, (added, removed) in changes.items():
                    signs = merged.setdefault(bag, {})
                    for row in added:
                        value = signs.get(row, 0) + 1
                        if value:
                            signs[row] = value
                        else:
                            del signs[row]
                    for row in removed:
                        value = signs.get(row, 0) - 1
                        if value:
                            signs[row] = value
                        else:
                            del signs[row]
            was_nonempty = self._nonempty
            nonempty = not reducer.any_empty()
            if was_nonempty and not nonempty:
                # Gate closed: every fed relation empties.  Emit the
                # deletes against the *pre-update* support (what the DP
                # holds), then fold the survivor diffs in silently.
                for state in self._bags:
                    if state.inner_symbol is None:
                        continue
                    deltas.extend(
                        Delete(state.inner_symbol, row)
                        for row in state.fed_support
                    )
            for bag, signs in merged.items():
                state = self._bags[bag]
                if state.inner_symbol is None or not signs:
                    continue
                added = frozenset(
                    row for row, sign in signs.items() if sign > 0
                )
                removed = frozenset(
                    row for row, sign in signs.items() if sign < 0
                )
                proj_added, proj_removed = self._project_changes(
                    state, added, removed
                )
                if was_nonempty and nonempty:
                    deltas.extend(
                        Insert(state.inner_symbol, row) for row in proj_added
                    )
                    deltas.extend(
                        Delete(state.inner_symbol, row) for row in proj_removed
                    )
            if nonempty and not was_nonempty:
                # Gate opened: every fed relation fills with its full
                # (post-update) supported projection.
                for state in self._bags:
                    if state.inner_symbol is None:
                        continue
                    deltas.extend(
                        Insert(state.inner_symbol, row)
                        for row in state.fed_support
                    )
            self._nonempty = nonempty
        if deltas and self._inner is not None:
            self._inner.apply_batch(deltas)
        self._dirty = False

    def rebuild_consistency(self) -> None:
        """Drop the incremental reducer state, exactly as a checkpoint
        restore does: the next read pays one full re-reduction (plus a
        from-scratch fed diff) to reseed the support counters.  Exposed
        for the O(delta) benchmark's full-reduction baseline and the
        restore-path tests."""
        self._delta_reducer = None
        self._dirty = True

    def repair_stats(self) -> Dict[str, int]:
        """Cumulative repair-work counters: ``refreshes`` served, plus —
        once a reducer is linked — its frontier counters
        (``applied_rows``, ``key_flips``, ``rows_touched``,
        ``propagations``; see
        :attr:`~repro.consistency.delta.DeltaReducer.stats`).  The
        operation-counting differential leg bounds the per-read growth
        of these against the update's frontier, not the resident rows.
        Reducer counters restart from zero after a checkpoint restore
        (the reducer itself is rebuilt)."""
        stats = {"refreshes": self._refreshes}
        reducer = self._delta_reducer
        if reducer is not None:
            stats.update(reducer.stats)
        return stats

    @property
    def count(self) -> int:
        """The current answer count (repairing lazily if updates are
        pending)."""
        if self._dirty:
            self._refresh()
        if self._inner is None:
            return 1 if self._nonempty else 0
        return self._inner.count

    # ------------------------------------------------------------------
    # Introspection (the provenance property tests compare these
    # against a from-scratch rebuild)
    # ------------------------------------------------------------------
    def local_bag_rows(self) -> List[FrozenSet[Row]]:
        """Per bag: the locally maintained membership ``pi_bag(join of
        parts)`` — before the consistency passes."""
        return [frozenset(state.counts) for state in self._bags]

    def witness_counts(self) -> List[Dict[Row, int]]:
        """Per bag: a copy of the provenance witness multiset."""
        return [dict(state.counts) for state in self._bags]

    def fed_rows(self) -> List[FrozenSet[Row]]:
        """Per bag: the exact projected rows currently fed to the inner
        DP (refreshing first so pending deltas are folded in)."""
        if self._dirty:
            self._refresh()
        return [self._fed_target(state) for state in self._bags]

    def estimated_bytes(self) -> int:
        """Size estimate including the provenance layer.

        Parts (rows plus built indexes), witness counts, pending
        membership flips, and the projection-support multisets are
        priced at :data:`~repro.dynamic.maintainer.CELL_BYTES` per
        stored cell like the inner DP's own estimate; the delta
        reducer's state — per-row miss masks, per-edge row indexes, and
        the per-key support counters — is charged through
        :meth:`~repro.consistency.delta.DeltaReducer.estimated_cells`,
        so the :class:`~repro.dynamic.maintainer.MaintainerPool` byte
        budget sees the incremental-consistency machinery too; the inner
        counter adds its own figure.  O(#bags + #edges + #indexes)
        arithmetic.  A *read* can grow the maintainer (the lazy repair
        links/reseeds the reducer and enlarges the inner DP), so the
        pool re-samples after serving each count
        (:meth:`~repro.dynamic.maintainer.MaintainerPool.note_read`).
        """
        total = 0
        for state in self._bags:
            width = len(state.schema) + 1
            rows = (len(state.counts) + len(state.fed_support)
                    + len(state.pending_added) + len(state.pending_removed))
            for part in state.parts:
                part_width = len(part.schema) + 1
                part_rows = len(part.rows) * (1 + len(part._indexes))
                rows += (part_rows * part_width) // max(width, 1)
            total += VERTEX_BASE_BYTES + rows * width * CELL_BYTES
        if self._delta_reducer is not None:
            total += self._delta_reducer.estimated_cells() * CELL_BYTES
        if self._inner is not None:
            total += self._inner.estimated_bytes()
        return total


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def _match_parts(state: _BagState, database: Database) -> Dict[Atom, _DynPart]:
    """Fill the match set of every part of *state*; returns the first
    part of each distinct atom.

    Each distinct atom is matched once: a part repeating an earlier atom
    (a hosted core atom that is also one of the view's source atoms)
    gets a copy of its rows.  Joining a set with an identical copy of
    itself is the identity, so the distinct parts' witness counts are
    those of every part.
    """
    distinct: Dict[Atom, _DynPart] = {}
    for part in state.parts:
        first = distinct.get(part.atom)
        if first is None:
            part.rows = set(part.matcher.match_rows(
                database[part.atom.relation].rows
            ))
            distinct[part.atom] = part
        else:
            part.rows = set(first.rows)
    return distinct
