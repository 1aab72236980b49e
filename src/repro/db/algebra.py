"""Relational algebra over *sets of substitutions* (paper, Section 2).

The paper manipulates sets of substitutions ``theta : W -> D`` with the
operators ``pi`` (projection), ``sigma`` (selection), ``|><|`` (natural join)
and the left semijoin.  :class:`SubstitutionSet` implements exactly this: a
set of rows over a *schema* of variables.

The schema is always kept **sorted by variable name**, so two substitution
sets over the same variables are directly comparable regardless of how they
were produced; this canonical form is what makes the Figure 13 algorithm's
"#-relations" (sets of substitution sets) implementable with frozensets.

Every operator is **index-driven**: a substitution set lazily builds hash
indexes keyed by variable subsets (:meth:`SubstitutionSet.index_on`) and
caches them on the instance, so repeated joins/semijoins against the same
operand — the normal access pattern of the two-pass full reducer, the
Figure 13 #-relation semijoins and the engine's counting DPs — pay the
index build once.  Operators that would return an identical set return
``self`` unchanged, which keeps those caches alive across fixpoint passes.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Mapping, Tuple

from ..exceptions import SchemaError
from ..query.atom import Atom
from ..query.terms import Constant, Variable
from .columnar import (
    ColumnarFallback,
    ColumnarRelation,
    KeyAggregate,
    columnar_kernels_available,
    identity_frame,
    join_frames,
    semijoin_frames,
)
from .relation import Relation

Row = Tuple[Hashable, ...]

_EMPTY_KEY = ()

#: Memo of :func:`_row_getter` extractors keyed by position tuple.  The
#: extractors are stateless and immutable, so sharing them module-wide is
#: safe; every join/project/semijoin call site used to rebuild identical
#: ``itemgetter`` objects even for identical schemas.  Holders that get
#: pickled (maintainer checkpoints) must drop the extractors first — the
#: zero/one-position cases are lambdas, which do not pickle.
_GETTER_MEMO: Dict[Tuple[int, ...], object] = {}


def _row_getter(positions: Tuple[int, ...]):
    """A C-speed key extractor for *positions* (always returns a tuple)."""
    getter = _GETTER_MEMO.get(positions)
    if getter is None:
        if not positions:
            getter = lambda row: _EMPTY_KEY  # noqa: E731
        elif len(positions) == 1:
            position = positions[0]
            getter = lambda row: (row[position],)  # noqa: E731
        else:
            getter = itemgetter(*positions)
        _GETTER_MEMO[positions] = getter
    return getter


#: Memo of :func:`_key_getter` extractors, kept apart from
#: ``_GETTER_MEMO``: the same positions map to a *scalar* extractor here.
_KEY_MEMO: Dict[Tuple[int, ...], object] = {}


def _key_getter(positions: Tuple[int, ...]):
    """A probe-key extractor: a single position yields the bare value.

    Probe keys never leave the executor that builds them (compiled bag
    indexes, DP aggregates, reducer key sets), so both sides of every
    probe can agree on scalar keys — a bare ``itemgetter`` runs at C
    speed and hashing a scalar beats hashing a 1-tuple.  Row *outputs*
    keep :func:`_row_getter` (always a tuple).  Memoized, so getter
    identity is stable for callers that key caches on it.
    """
    getter = _KEY_MEMO.get(positions)
    if getter is None:
        if len(positions) == 1:
            getter = itemgetter(positions[0])
        else:
            getter = _row_getter(positions)
        _KEY_MEMO[positions] = getter
    return getter


class SubstitutionSet:
    """A set of substitutions over a fixed, sorted schema of variables."""

    __slots__ = ("schema", "rows", "_indexes", "_key_sets")

    def __init__(self, schema: Iterable[Variable], rows: Iterable[Row] = (),
                 _presorted: bool = False):
        schema = tuple(schema)
        self._indexes: Dict[Tuple[int, ...], Dict[Row, Tuple[Row, ...]]] = {}
        self._key_sets: Dict[Tuple[int, ...], FrozenSet[Row]] = {}
        if _presorted:
            self.schema = schema
            self.rows = rows if isinstance(rows, frozenset) else frozenset(rows)
            return
        order = sorted(range(len(schema)), key=lambda i: schema[i].name)
        sorted_schema = tuple(schema[i] for i in order)
        if len(set(sorted_schema)) != len(sorted_schema):
            raise SchemaError(f"duplicate variables in schema {schema}")
        if sorted_schema == schema:
            self.schema = schema
            self.rows = frozenset(tuple(r) for r in rows)
        else:
            self.schema = sorted_schema
            self.rows = frozenset(
                tuple(row[i] for i in order) for row in map(tuple, rows)
            )
        for row in self.rows:
            if len(row) != len(self.schema):
                raise SchemaError(
                    f"row {row!r} does not match schema {self.schema}"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def unit(cls) -> "SubstitutionSet":
        """The empty-schema set containing the empty substitution.

        This is the identity element of the natural join.
        """
        return cls((), ((),), _presorted=True)

    @classmethod
    def empty(cls, schema: Iterable[Variable] = ()) -> "SubstitutionSet":
        """The empty set of substitutions over *schema*."""
        return cls(schema, ())

    @classmethod
    def from_atom(cls, atom: Atom, relation: Relation) -> "SubstitutionSet":
        """Match an atom's term pattern against a relation instance.

        Positions holding a :class:`Constant` filter rows; repeated variables
        enforce equality; the result's schema is the atom's variable set.
        """
        if relation.arity != atom.arity:
            raise SchemaError(
                f"atom {atom!r} has arity {atom.arity} but relation "
                f"{relation.name!r} has arity {relation.arity}"
            )
        variables = atom.variables  # distinct, first-occurrence order
        positions: Dict[Variable, int] = {}
        for index, term in enumerate(atom.terms):
            if isinstance(term, Variable) and term not in positions:
                positions[term] = index
        constraints = []  # (position, required value)
        equalities = []   # (position, first position of the same variable)
        for index, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                constraints.append((index, term.value))
            elif positions[term] != index:
                equalities.append((index, positions[term]))
        out = _row_getter(tuple(positions[v] for v in variables))
        if not constraints and not equalities:
            rows = [out(db_row) for db_row in relation]
        else:
            rows = []
            for db_row in relation:
                if all(db_row[i] == value for i, value in constraints) and \
                        all(db_row[i] == db_row[j] for i, j in equalities):
                    rows.append(out(db_row))
        return cls(variables, rows)

    @classmethod
    def from_dicts(cls, schema: Iterable[Variable],
                   substitutions: Iterable[Mapping[Variable, Hashable]]
                   ) -> "SubstitutionSet":
        """Build from an iterable of substitution dictionaries."""
        schema = tuple(schema)
        return cls(schema, (tuple(s[v] for v in schema) for s in substitutions))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubstitutionSet):
            return NotImplemented
        return self.schema == other.schema and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.schema, self.rows))

    def __repr__(self) -> str:
        names = ",".join(v.name for v in self.schema)
        return f"SubstitutionSet([{names}], |rows|={len(self.rows)})"

    def variable_set(self) -> FrozenSet[Variable]:
        """The schema as a frozen set."""
        return frozenset(self.schema)

    def iter_dicts(self) -> Iterator[Dict[Variable, Hashable]]:
        """Iterate rows as substitution dictionaries."""
        for row in self.rows:
            yield dict(zip(self.schema, row))

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _positions(self, variables: Iterable[Variable]) -> Tuple[int, ...]:
        index = {v: i for i, v in enumerate(self.schema)}
        try:
            return tuple(index[v] for v in variables)
        except KeyError as exc:
            raise SchemaError(
                f"variable {exc.args[0]} not in schema {self.schema}"
            ) from None

    def _present_sorted(self, variables: Iterable[Variable]
                        ) -> Tuple[Variable, ...]:
        """The schema's subset of *variables*, in canonical sorted order."""
        wanted = set(variables) & set(self.schema)
        return tuple(sorted(wanted, key=lambda v: v.name))

    def index_on(self, variables: Iterable[Variable]
                 ) -> Dict[Row, Tuple[Row, ...]]:
        """A hash index ``{key_row: rows}`` on the given variable subset.

        Keys follow the canonical sorted order of the variables present in
        the schema (variables outside the schema are ignored).  The index is
        built lazily and cached on the instance; the set is immutable, so a
        cached index never goes stale.  Do not mutate the returned mapping.
        """
        positions = self._positions(self._present_sorted(variables))
        cached = self._indexes.get(positions)
        if cached is not None:
            return cached
        key_of = _row_getter(positions)
        buckets: Dict[Row, list] = {}
        for row in self.rows:
            key = key_of(row)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row]
            else:
                bucket.append(row)
        index = {key: tuple(rows) for key, rows in buckets.items()}
        self._indexes[positions] = index
        self._key_sets.setdefault(positions, frozenset(index))
        return index

    def projection_keys(self, variables: Iterable[Variable]
                        ) -> FrozenSet[Row]:
        """The distinct key rows of :meth:`index_on` (cached, cheaper).

        This is the row set of ``pi_variables(self)`` without materializing
        a new substitution set — the membership structure semijoins probe.
        """
        positions = self._positions(self._present_sorted(variables))
        cached = self._key_sets.get(positions)
        if cached is not None:
            return cached
        key_of = _row_getter(positions)
        keys = frozenset(key_of(row) for row in self.rows)
        self._key_sets[positions] = keys
        return keys

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def project(self, variables: Iterable[Variable]) -> "SubstitutionSet":
        """``pi_W``: restriction of every substitution to *variables*.

        Variables not in the schema are ignored (projection onto the
        intersection), mirroring the paper's convention ``pi_free(Q)(r_v)``
        where ``r_v`` may not contain every free variable.
        """
        wanted = self._present_sorted(variables)
        if wanted == self.schema:
            return self
        return SubstitutionSet(
            wanted, self.projection_keys(wanted), _presorted=True
        )

    def select(self, binding: Mapping[Variable, Hashable]) -> "SubstitutionSet":
        """``sigma_theta``: keep substitutions agreeing with *binding*."""
        in_schema = set(self.schema)
        if not all(v in in_schema for v in binding):
            missing = set(binding) - in_schema
            raise SchemaError(f"selection variables {missing} not in schema")
        wanted = self._present_sorted(binding)
        key = tuple(binding[v] for v in wanted)
        rows = self.index_on(wanted).get(key, ())
        if len(rows) == len(self.rows):
            return self
        return SubstitutionSet(self.schema, frozenset(rows), _presorted=True)

    def join(self, other: "SubstitutionSet") -> "SubstitutionSet":
        """Natural join on the shared variables (hash join).

        The smaller operand is the build side; its cached
        :meth:`index_on` index over the shared variables is reused across
        repeated joins.  Output rows are assembled by a precompiled
        permutation over ``probe_row + build_extras`` so the inner loop
        stays in C.
        """
        mine = set(self.schema)
        shared = tuple(v for v in other.schema if v in mine)
        result_schema = tuple(
            sorted(mine | set(other.schema), key=lambda v: v.name)
        )
        build, probe = (self, other) if len(self) <= len(other) else (other, self)
        if not build.rows or not probe.rows:
            return SubstitutionSet(result_schema, frozenset(), _presorted=True)
        index = build.index_on(shared)
        probe_key = _row_getter(probe._positions(
            build._present_sorted(shared)  # canonical key order, both sides
        )) if shared else _row_getter(())
        # Result rows are permutations of probe_row + build_extra values.
        probe_map = {v: i for i, v in enumerate(probe.schema)}
        build_extra = tuple(
            i for i, v in enumerate(build.schema) if v not in probe_map
        )
        extra_of = _row_getter(build_extra)
        combined = probe.schema + tuple(build.schema[i] for i in build_extra)
        combined_map = {v: i for i, v in enumerate(combined)}
        permute = _row_getter(tuple(combined_map[v] for v in result_schema))
        rows = set()
        add = rows.add
        for p_row in probe.rows:
            bucket = index.get(probe_key(p_row))
            if bucket:
                for b_row in bucket:
                    add(permute(p_row + extra_of(b_row)))
        return SubstitutionSet(result_schema, frozenset(rows), _presorted=True)

    def semijoin(self, other: "SubstitutionSet") -> "SubstitutionSet":
        """``self |>< other``: substitutions of *self* with a match in *other*.

        This is the paper's ``S1 (left-semijoin) S2 = pi_W1(S1 |><| S2)``.
        Probes *other*'s cached key set; returns ``self`` unchanged (caches
        intact) when nothing is filtered out.
        """
        if not self.rows:
            return self
        mine = set(self.schema)
        shared = tuple(v for v in other.schema if v in mine)
        if not shared:
            # Join degenerates to a cross product: keep all iff other nonempty.
            if other.rows:
                return self
            return SubstitutionSet(self.schema, frozenset(), _presorted=True)
        keys = other.projection_keys(shared)
        my_key = _row_getter(self._positions(self._present_sorted(shared)))
        kept = frozenset(row for row in self.rows if my_key(row) in keys)
        if len(kept) == len(self.rows):
            return self
        return SubstitutionSet(self.schema, kept, _presorted=True)

    def semijoin_all(self, others: Iterable["SubstitutionSet"]
                     ) -> "SubstitutionSet":
        """Semijoin against several sets in a single scan of ``self``.

        Equivalent to folding :meth:`semijoin` over *others*, but the rows
        of ``self`` are visited once — the shape the full reducer's
        bottom-up pass wants when a join-tree vertex absorbs all of its
        children.  Returns ``self`` when nothing is filtered out.
        """
        if not self.rows:
            return self
        probes = []
        mine = set(self.schema)
        for other in others:
            shared = tuple(v for v in other.schema if v in mine)
            if not shared:
                if not other.rows:
                    return SubstitutionSet(
                        self.schema, frozenset(), _presorted=True
                    )
                continue
            probes.append((
                _row_getter(self._positions(self._present_sorted(shared))),
                other.projection_keys(shared),
            ))
        if not probes:
            return self
        kept = frozenset(
            row for row in self.rows
            if all(key_of(row) in keys for key_of, keys in probes)
        )
        if len(kept) == len(self.rows):
            return self
        return SubstitutionSet(self.schema, kept, _presorted=True)

    # ------------------------------------------------------------------
    # Grouping / counting helpers
    # ------------------------------------------------------------------
    def group_by(self, variables: Iterable[Variable]
                 ) -> Dict[Row, "SubstitutionSet"]:
        """Partition by the projection onto *variables* (intersected with schema).

        Returns ``{key_row: group}`` where ``key_row`` follows the sorted
        order of the grouping variables present in the schema.
        """
        return {
            key: SubstitutionSet(self.schema, frozenset(rows), _presorted=True)
            for key, rows in self.index_on(variables).items()
        }

    def count_distinct(self, variables: Iterable[Variable]) -> int:
        """Number of distinct projections onto *variables*."""
        return len(self.projection_keys(variables))

    def max_group_size(self, variables: Iterable[Variable]) -> int:
        """Maximum multiplicity of any projection onto *variables*.

        This is the *degree* ``deg`` of Definition 6.1 for this relation.
        Returns 0 for the empty set.
        """
        return max(
            (len(rows) for rows in self.index_on(variables).values()),
            default=0,
        )


def pop_connected(pending: list, bound) -> object:
    """Remove and return the first pending part sharing a variable with
    *bound* (falling back to the first part: a cross product is then
    unavoidable).  ``pending`` must be sorted smallest-first; parts need a
    ``variable_set()`` method — shared by substitution sets and semiring
    factors."""
    index = next(
        (i for i, part in enumerate(pending)
         if part.variable_set() & bound),
        0,
    )
    return pending.pop(index)


def fold_connected(parts, combine, unit):
    """Fold *combine* over *parts* smallest-first with greedy connectivity.

    The shared join-ordering heuristic of :func:`join_all`,
    :func:`join_project`, the brute-force full join and
    :func:`repro.faq.factor.multiply_all`: each step combines the smallest
    part that shares a variable with the result so far, deferring cross
    products until they are unavoidable.  *unit* supplies the result for
    an empty collection.
    """
    pending = sorted(parts, key=len)
    if not pending:
        return unit()
    result = pending.pop(0)
    while pending:
        result = combine(result, pop_connected(pending, result.variable_set()))
    return result


def join_all(parts: Iterable[SubstitutionSet]) -> SubstitutionSet:
    """Natural join of a collection; smallest-first with greedy connectivity."""
    return fold_connected(
        parts, lambda a, b: a.join(b), SubstitutionSet.unit
    )


# ----------------------------------------------------------------------
# Backend-dispatching relation operators.
#
# These run directly over Relation instances (not substitution sets) and
# pick the execution strategy from the operands' backend: two columnar
# relations go through the vectorized code-space kernels of
# :mod:`repro.db.columnar`; anything else — tuple relations, mixed-
# backend pairs, kernels unavailable, or a kernel raising
# :class:`~repro.db.columnar.ColumnarFallback` — takes the index-driven
# tuple path.  Results keep the columnar backend when the fast path ran.
# ----------------------------------------------------------------------
def _columnar_pair(left: Relation, right: Relation) -> bool:
    return (isinstance(left, ColumnarRelation)
            and isinstance(right, ColumnarRelation)
            and columnar_kernels_available())


def relation_join(left: Relation, right: Relation,
                  on: Iterable[Tuple[int, int]],
                  name: str | None = None) -> Relation:
    """``pi(left |><| right)`` on position pairs *on*.

    The result's columns are all of *left*'s followed by *right*'s
    columns not named in *on* (the join columns appear once, from the
    left side); rows are deduplicated.  Columnar operands run the join
    entirely in code space — keys are compared through cached dictionary
    translations, matches expanded with ``searchsorted``/``repeat`` —
    and the result is columnar.
    """
    on = tuple((int(a), int(b)) for a, b in on)
    if name is None:
        name = f"{left.name}*{right.name}"
    drop = {b for _, b in on}
    keep_right = tuple(j for j in range(right.arity) if j not in drop)
    arity = left.arity + len(keep_right)
    if _columnar_pair(left, right):
        try:
            frame = join_frames(
                identity_frame(left), identity_frame(right),
                tuple(a for a, _ in on), tuple(b for _, b in on),
                tuple(range(left.arity)) + tuple(
                    left.arity + j for j in keep_right
                ),
                left.arity,
            )
            return ColumnarRelation.from_columns(
                name, frame.dicts, frame.cols, frame.n
            )
        except ColumnarFallback:
            pass
    index = right.index_on(tuple(b for _, b in on))
    key_of = _row_getter(tuple(a for a, _ in on))
    extra_of = _row_getter(keep_right)
    rows = set()
    add = rows.add
    get = index.get
    for row in left:
        bucket = get(key_of(row))
        if bucket:
            for other in bucket:
                add(row + extra_of(other))
    return type(left)(name, arity, rows)


def relation_semijoin(left: Relation, right: Relation,
                      on: Iterable[Tuple[int, int]]) -> Relation:
    """``left |>< right``: rows of *left* with a key match in *right*.

    Columnar operands run a key-set membership scan over encoded
    columns (``isin`` on combined int64 codes); the unfiltered case
    returns *left* itself, caches intact.
    """
    on = tuple((int(a), int(b)) for a, b in on)
    if not on:
        raise SchemaError("relation_semijoin needs at least one position pair")
    if _columnar_pair(left, right):
        try:
            frame = identity_frame(left)
            filtered = semijoin_frames(
                frame, identity_frame(right),
                tuple(a for a, _ in on), tuple(b for _, b in on),
            )
            if filtered is frame:
                return left
            return ColumnarRelation.from_columns(
                left.name, filtered.dicts, filtered.cols, filtered.n
            )
        except ColumnarFallback:
            pass
    keys = set(map(_row_getter(tuple(b for _, b in on)), right))
    key_of = _row_getter(tuple(a for a, _ in on))
    kept = frozenset(row for row in left if key_of(row) in keys)
    if len(kept) == len(left):
        return left
    return type(left)(left.name, left.arity, kept)


def relation_project_counts(relation: Relation,
                            positions: Iterable[int]) -> Dict[Row, int]:
    """``{projected_row: multiplicity}`` for ``pi_positions(relation)``.

    The columnar path groups the encoded key columns directly
    (sort + segment boundaries over combined int64 codes) and decodes
    only the distinct keys — no per-row tuple is ever materialized.
    """
    positions = tuple(int(p) for p in positions)
    if isinstance(relation, ColumnarRelation) and columnar_kernels_available():
        try:
            frame = identity_frame(relation)
            cols = [frame.cols[p] for p in positions]
            dicts = [frame.dicts[p] for p in positions]
            aggregate = frame.cached(
                ("agg", positions),
                lambda: KeyAggregate.over(cols, dicts, frame.n),
            )
            # Strict mixed-radix codes decode positionally: peel the
            # last column's digit off with divmod, right to left.
            remaining = aggregate.keys
            digit_columns = []
            for size in reversed(aggregate.sizes):
                digit_columns.append(remaining % size)
                remaining = remaining // size
            digit_columns.reverse()
            return {
                tuple(column_dict.values[int(column[i])]
                      for column_dict, column in zip(dicts, digit_columns)):
                int(aggregate.totals[i])
                for i in range(len(aggregate.keys))
            }
        except ColumnarFallback:
            pass
    key_of = _row_getter(positions)
    counts: Dict[Row, int] = {}
    get = counts.get
    for row in relation:
        key = key_of(row)
        counts[key] = get(key, 0) + 1
    return counts


def join_project(parts: Iterable[SubstitutionSet],
                 keep: Iterable[Variable]) -> SubstitutionSet:
    """``pi_keep`` of the natural join, with projections pushed inside.

    After each pairwise join, variables that occur in no remaining part and
    are not in *keep* are projected away immediately, so intermediates never
    carry columns that cannot influence the final result.  This is the
    factorized-evaluation trick the view-materialization path relies on:
    a width-``k`` view joined only to be projected onto a bag never
    materializes the full k-way product.
    """
    keep = frozenset(keep)
    parts = list(parts)
    # Pre-projection: a column that is neither kept nor shared with any
    # other part can never constrain anything — drop it before joining
    # (this turns "join two disjoint atoms, then project" into a cross
    # product of the *projections*).
    projected = []
    for index, part in enumerate(parts):
        others: set = set()
        for j, other in enumerate(parts):
            if j != index:
                others |= other.variable_set()
        projected.append(part.project(
            (keep | others) & part.variable_set()
        ))
    pending = sorted(projected, key=len)
    if not pending:
        return SubstitutionSet.unit()
    result = pending.pop(0)
    while pending:
        result = result.join(pop_connected(pending, result.variable_set()))
        needed = set(keep)
        for part in pending:
            needed |= part.variable_set()
        result = result.project(needed & result.variable_set())
    return result.project(keep)
