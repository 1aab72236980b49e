"""Compiled plan execution: lower cached decompositions to flat programs.

After PRs 1-5 the engine pays the *planning* cost exactly once per query
shape (canonical fingerprints, shared :class:`~repro.counting.plan_cache.
PlanCache`, on-disk envelopes, warm-started services) but still
re-interprets every cached plan over generic schema-carrying operators on
every execution: each count re-derives shared columns, rebuilds key
extractors, and re-runs the full reducer even though all of that is a
function of the *decomposition*, not the data.  This module adds the
missing tier.

:func:`lower_acyclic` / :func:`lower_structural` lower a fixed join tree
(respectively a fixed :class:`~repro.decomposition.sharp.
SharpDecomposition`) into a :class:`CompiledProgram`: a **data-only**
description — atom scans with resolved output permutations, per-bag
generic-join plans (a variable order and each scan column's slot in it),
a position-based reducer schedule, free-variable projections, and a flat
join-tree DP whose inner loop is a list of ``(extractor, child
aggregate)`` steps.  Programs contain plain
strings/ints/tuples plus a content digest, never closures or pickled
code, so they ride the ordinary plan-cache envelopes
(:mod:`repro.decomposition.serialize`) and warm-start across processes;
:data:`~repro.decomposition.serialize.COMPILED_FORMAT_VERSION` is baked
into their cache key so a format bump silently orphans stale artifacts.

:func:`link` turns a program into an executable — verifying the digest,
resolving every position tuple to a memoized C-speed
:func:`~repro.db.algebra._row_getter` extractor, and memoizing the result
per digest so repeated executions of a cached plan share one linked
object.  Execution itself never touches schemas:

* **Acyclic programs** skip the full reducer entirely.  On a join tree
  with the running-intersection property, edge-consistent per-bag row
  choices glue bijectively to join tuples, and the bottom-up counting DP
  already propagates zero aggregates for dangling rows — reduction would
  only redo that filtering a second time.
* **Structural programs** run one compiled reduction
  (:class:`~repro.consistency.local.CompiledReducer`) *before* the free
  projection — required for exactness of the Theorem 3.7 algorithm (a
  dangling bag row can create phantom projected tuples) — and none after:
  globally consistent bags stay consistent under projection.
* **Multi-part bags** (a witness view's atoms plus the core atoms it
  hosts) are materialized by one worst-case-optimal *generic join*
  (Ngo–Porat–Ré–Rudra, PODS'12; Veldhuizen's Leapfrog Triejoin,
  ICDT'14): per count, each scan is indexed as a trie of ``key prefix ->
  set`` levels in the bag's variable order, and each variable is bound
  to the C-level ``set`` intersection of the atoms covering it, smallest
  first.  The bag's kept variables come first; the projected-away view
  variables come last and are only checked for *a* witness.  The work is
  bounded by the AGM bound of every prefix, never by a pairwise
  intermediate — :func:`estimate_units` prices exactly this work for the
  deadline planner.
* **Single-bag structural programs** never materialize their bag: it
  is lowered *counted*, kept on the free variables, and the generic
  join returns ``|pi_free(join)|`` directly, eliminating the other
  variables by per-prefix set union (see :meth:`_LinkedBag.count`) — no
  bag rows, no free projection, no DP pass.
* **Witness counts** for :class:`~repro.dynamic.reduced.
  ReducedMaintainer`'s construction come from the same join
  (:func:`bag_witness_counts`): a bag lowered *witnessed* keeps every
  atom variable in its scans and counts each bag row's completions
  over the variables outside the bag.
* Leaf bags never materialize count tables: the parent aggregates them
  directly with ``Counter(map(key_of, rows))``, which runs entirely in C.

The tier is always on: ``auto`` tries it first and falls back to the
interpreted strategies only when the compiled probe declines a query.

When every relation a program scans is a
:class:`~repro.db.columnar.ColumnarRelation` (and numpy is importable),
the linked executable runs a **columnar** rendition of the same program:
scans become vectorized masks over int64 code columns, each multi-part
bag runs its pairwise fold schedule as code-space hash joins / ``isin``
semijoin filters, the reducer becomes a
schedule of frame semijoins, and the DP aggregates become sorted-key
group tables probed with ``searchsorted``
(:class:`~repro.db.columnar.KeyAggregate`).  The program *description*
and its digest are backend-agnostic — the columnar path is resolved at
link/execution time, so cached artifacts are shared between backends —
and any input the kernels cannot handle exactly
(:class:`~repro.db.columnar.ColumnarFallback`: mixed backends, key
spaces or counts that would overflow int64) falls back to the tuple
path, which is always exact.
"""

from __future__ import annotations

import hashlib
import math
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat
from operator import itemgetter
from typing import (Dict, Hashable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from ..collector import collector_paused
from ..consistency.local import CompiledReducer
from ..db.algebra import _key_getter, _row_getter
from ..db.columnar import (
    ColumnarFallback,
    ColumnarRelation,
    Frame,
    KeyAggregate,
    columnar_kernels_available,
    intersect_frames,
    join_frames,
    project_frame,
    scan_frame,
    semijoin_frames,
)
from ..db.database import Database
from ..decomposition.fractional import cover_vertices
from ..decomposition.sharp import SharpDecomposition
from ..exceptions import QueryError, SchemaError
from ..hypergraph.acyclicity import JoinTree, require_join_tree
from ..query.query import ConjunctiveQuery
from ..query.terms import Constant, Variable

__all__ = [
    "AtomScan",
    "FoldStep",
    "BagStep",
    "DPChild",
    "DPStep",
    "CompiledProgram",
    "KERNEL_UNITS",
    "lower_acyclic",
    "lower_structural",
    "link",
    "count_kernel_ops",
    "bag_witness_counts",
    "describe_bags",
    "estimate_units",
    "runs_columnar",
]

def compiled_enabled() -> bool:
    """Always ``True``: the compiled tier has no off switch.

    Kept only because ``perfbench/common.py`` records it in a run's
    provenance; once the benchmark stops reading it, delete it.
    """
    return True


# ----------------------------------------------------------------------
# Program description (plain data — everything here pickles and renders
# deterministically for the digest; no closures, ever)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AtomScan:
    """One atom's rows, matched and permuted into bag order.

    ``out_positions[i]`` is the relation column feeding output column
    ``i``; *constraints* pin columns to constant values and *equalities*
    equate columns bound by a repeated variable — exactly the
    :meth:`~repro.db.algebra.SubstitutionSet.from_atom` semantics, with
    the downstream projection already fused into ``out_positions``.
    """

    relation: str
    arity: int
    out_positions: Tuple[int, ...]
    constraints: Tuple[Tuple[int, Hashable], ...] = ()
    equalities: Tuple[Tuple[int, int], ...] = ()


@dataclass(frozen=True)
class FoldStep:
    """Join scan output *part* into the running intermediate (the
    columnar rendition's pairwise schedule; the tuple path runs the
    bag's generic join instead).

    ``key_positions`` / ``part_positions`` extract the (equal-length)
    join keys from the intermediate row and the part row;
    ``out_positions`` index into the *concatenation* ``row + part_row``
    and carry the fused projection onto the columns still needed.
    ``bound_width`` is the intermediate row's length before this step:
    when every out position falls below it, the part contributes no
    output columns and the step runs as a semijoin filter (key-set
    probe, no pair materialization).
    """

    part: int
    key_positions: Tuple[int, ...]
    part_positions: Tuple[int, ...]
    out_positions: Tuple[int, ...]
    bound_width: int


#: One vertex of a prefix's fractional edge cover polyhedron: nonzero
#: weights as ``(scan indexes sharing the prefix edge, numerator,
#: denominator)`` — see :func:`~repro.decomposition.fractional.
#: cover_vertices`.
Cover = Tuple[Tuple[Tuple[int, ...], int, int], ...]


@dataclass(frozen=True)
class BagStep:
    """Materialize one bag relation.

    ``intersect=True`` (acyclic bags: every scan has the same variable
    set, hence the same output schema) intersects the scan outputs as
    sets.  A single scan is the bag.  Otherwise the bag is a generic
    join over the bag's *variable order*: slot ``i`` binds variable
    ``variables[i]``, and ``slots[j][c]`` is the slot of scan ``j``'s
    output column ``c`` (ascending — scans emit their columns in
    variable order).  Slots below ``kept`` form the bag schema; the
    rest are projected-away view variables, only checked for a witness.
    ``covers[i]`` lists the fractional edge covers of the prefix
    ``0..i`` (the AGM bound's candidates, used for pricing only).

    A ``counted`` bag (the one bag of a single-bag structural program)
    is never materialized: the tuple path returns the number of its
    distinct tuples over the ``free`` slots, which need not be a prefix
    of the order, and ``kept`` is 0 (see :meth:`_LinkedBag.count`).

    The columnar rendition runs ``folds`` from scan ``start`` instead
    and lands on the bag schema through ``project_positions`` (``None``
    = already there).
    """

    scans: Tuple[AtomScan, ...]
    intersect: bool
    start: int = 0
    folds: Tuple[FoldStep, ...] = ()
    project_positions: Optional[Tuple[int, ...]] = None
    variables: Tuple[str, ...] = ()
    kept: int = 0
    slots: Tuple[Tuple[int, ...], ...] = ()
    covers: Tuple[Tuple[Cover, ...], ...] = ()
    counted: bool = False
    free: Tuple[int, ...] = ()


@dataclass(frozen=True)
class DPChild:
    """One child aggregate consulted by a DP vertex.

    ``leaf`` children never materialized a count table — the parent
    aggregates their (projected) rows directly via
    ``Counter(map(key_of, rows))``.
    """

    child: int
    my_positions: Tuple[int, ...]
    child_positions: Tuple[int, ...]
    leaf: bool


@dataclass(frozen=True)
class DPStep:
    """One vertex of the bottom-up counting DP (children come earlier)."""

    vertex: int
    root: bool
    children: Tuple[DPChild, ...]


@dataclass(frozen=True)
class CompiledProgram:
    """A lowered, data-only counting program (see the module docstring).

    ``reducer`` is the :meth:`~repro.consistency.local.CompiledReducer.
    steps` schedule run before the free projection (structural programs
    only; acyclic programs carry ``None`` — the DP's zero propagation
    makes reduction redundant for counting).  ``free_positions[i]`` is
    bag *i*'s projection onto the free variables (``None`` = identity).
    ``digest`` is a content checksum over everything else, verified by
    :func:`link` so a corrupted or hand-edited artifact can never
    execute.
    """

    kind: str                      # "acyclic" | "structural"
    source: str                    # query name the program was lowered from
    width: Optional[int]           # decomposition width (structural only)
    bags: Tuple[BagStep, ...]
    reducer: Optional[tuple]
    free_positions: Tuple[Optional[Tuple[int, ...]], ...]
    dp: Tuple[DPStep, ...]
    digest: str


def _description(kind: str, source: str, width: Optional[int],
                 bags: tuple, reducer: Optional[tuple],
                 free_positions: tuple, dp: tuple) -> str:
    return repr((kind, source, width, bags, reducer, free_positions, dp))


def program_digest(program: CompiledProgram) -> str:
    """The content digest of *program*'s description (digest excluded)."""
    text = _description(program.kind, program.source, program.width,
                        program.bags, program.reducer,
                        program.free_positions, program.dp)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _finish(kind: str, source: str, width: Optional[int], bags: tuple,
            reducer: Optional[tuple], free_positions: tuple,
            dp: tuple) -> CompiledProgram:
    digest = hashlib.sha256(
        _description(kind, source, width, bags, reducer, free_positions,
                     dp).encode("utf-8")
    ).hexdigest()
    return CompiledProgram(kind, source, width, bags, reducer,
                           free_positions, dp, digest)


# ----------------------------------------------------------------------
# Lowering helpers
# ----------------------------------------------------------------------
def _sorted_schema(variables) -> Tuple[Variable, ...]:
    return tuple(sorted(variables, key=lambda v: v.name))


def _scan_for_atom(atom, out_schema: Tuple[Variable, ...]) -> AtomScan:
    """Lower one atom match, output permuted onto *out_schema*.

    *out_schema* must be a subset of the atom's variables; the
    projection is fused into the scan's output positions.
    """
    first_position: Dict[Variable, int] = {}
    for index, term in enumerate(atom.terms):
        if isinstance(term, Variable) and term not in first_position:
            first_position[term] = index
    constraints: List[Tuple[int, Hashable]] = []
    equalities: List[Tuple[int, int]] = []
    for index, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            constraints.append((index, term.value))
        elif first_position[term] != index:
            equalities.append((index, first_position[term]))
    return AtomScan(
        relation=atom.relation,
        arity=atom.arity,
        out_positions=tuple(first_position[v] for v in out_schema),
        constraints=tuple(constraints),
        equalities=tuple(equalities),
    )


def _fold_order(seed: int, schemas: Sequence[Tuple[Variable, ...]],
                pending: List[int]) -> List[int]:
    """Static analogue of the interpreted greedy connectivity order:
    prefer a part sharing a variable with what is already bound (a
    proper join) over a cross product, smallest schema first."""
    bound: Set[Variable] = set(schemas[seed])
    ordered: List[int] = []
    remaining = list(pending)
    while remaining:
        pick = next(
            (i for i in remaining if bound & set(schemas[i])),
            remaining[0],
        )
        remaining.remove(pick)
        ordered.append(pick)
        bound.update(schemas[pick])
    return ordered


def _lower_bag_join(part_schemas: Sequence[Tuple[Variable, ...]],
                    keep: frozenset, start: Optional[int] = None
                    ) -> Tuple[int, Tuple[FoldStep, ...],
                               Tuple[Variable, ...]]:
    """Lower ``pi_keep(part_0 |><| ... |><| part_n)`` to a fold schedule.

    Returns ``(start part, fold steps, final schema)`` where every
    intermediate is projected down to the columns still needed (the
    ``keep`` set plus join columns of parts not yet folded), mirroring
    the interpreted :func:`~repro.db.algebra.join_project` push-down.
    The fold starts from the smallest part unless *start* forces one
    (a maintainer's delta join starts from the changed part's delta).
    """
    order = sorted(range(len(part_schemas)),
                   key=lambda i: (len(part_schemas[i]), i))
    if start is None:
        start = order[0]
    ordered = _fold_order(start, part_schemas,
                          [i for i in order if i != start])
    schema = part_schemas[start]
    steps: List[FoldStep] = []
    for rank, part in enumerate(ordered):
        part_schema = part_schemas[part]
        part_vars = set(part_schema)
        needed = set(keep)
        for later in ordered[rank + 1:]:
            needed.update(part_schemas[later])
        shared = tuple(v for v in schema if v in part_vars)
        combined: Dict[Variable, int] = {
            v: i for i, v in enumerate(schema)
        }
        offset = len(schema)
        for i, v in enumerate(part_schema):
            combined.setdefault(v, offset + i)
        out_schema = _sorted_schema(
            (set(schema) | part_vars) & needed
        )
        schema_index = {v: i for i, v in enumerate(schema)}
        part_index = {v: i for i, v in enumerate(part_schema)}
        steps.append(FoldStep(
            part=part,
            key_positions=tuple(schema_index[v] for v in shared),
            part_positions=tuple(part_index[v] for v in shared),
            out_positions=tuple(combined[v] for v in out_schema),
            bound_width=len(schema),
        ))
        schema = out_schema
    return start, tuple(steps), schema


def _lower_dp(schemas: Sequence[Tuple[Variable, ...]],
              tree: JoinTree) -> Tuple[DPStep, ...]:
    """The bottom-up counting DP over *tree* with per-vertex *schemas*."""
    order = tree.rooted_orders()
    has_children = {vertex for vertex, _parent, children in order
                    if children}
    indexes = [{v: i for i, v in enumerate(schema)} for schema in schemas]
    steps: List[DPStep] = []
    for vertex, parent, children in order:
        mine = set(schemas[vertex])
        dp_children = []
        for child in children:
            shared = tuple(v for v in schemas[vertex]
                           if v in set(schemas[child]))
            dp_children.append(DPChild(
                child=child,
                my_positions=tuple(indexes[vertex][v] for v in shared),
                child_positions=tuple(indexes[child][v] for v in shared),
                leaf=child not in has_children,
            ))
        del mine
        steps.append(DPStep(
            vertex=vertex,
            root=parent is None,
            children=tuple(dp_children),
        ))
    return tuple(steps)


# ----------------------------------------------------------------------
# Lowering entry points
# ----------------------------------------------------------------------
def lower_acyclic(query: ConjunctiveQuery) -> CompiledProgram:
    """Lower a quantifier-free acyclic *query* to a compiled program.

    The bag layout mirrors :func:`~repro.counting.acyclic.
    bags_for_acyclic_query` — one bag per join-tree vertex, atoms with
    identical variable sets intersected inside their bag — but the full
    reducer is *not* lowered: on a running-intersection tree the DP's
    zero aggregates already neutralize dangling rows, so reduction
    cannot change the count (and an empty bag short-circuits to zero
    before the DP runs).

    Raises :class:`~repro.exceptions.QueryError` for quantified queries
    and :class:`~repro.exceptions.NotAcyclicError` for cyclic ones.
    """
    if not query.is_quantifier_free():
        raise QueryError(
            f"{query.name}: compiled acyclic counting requires a "
            "quantifier-free query"
        )
    tree = require_join_tree(query.hypergraph())
    grouped: Dict[frozenset, List] = {}
    for atom in query.atoms_sorted():
        grouped.setdefault(atom.variable_set, []).append(atom)
    bag_schemas: List[Tuple[Variable, ...]] = []
    bags: List[BagStep] = []
    for bag in tree.bags:
        schema = _sorted_schema(bag)
        bag_schemas.append(schema)
        bags.append(BagStep(
            scans=tuple(_scan_for_atom(atom, schema)
                        for atom in grouped[bag]),
            intersect=True,
        ))
    return _finish(
        kind="acyclic",
        source=query.name,
        width=None,
        bags=tuple(bags),
        reducer=None,
        free_positions=tuple(None for _ in bags),
        dp=_lower_dp(bag_schemas, tree),
    )


def lower_structural(query: ConjunctiveQuery,
                     decomposition: SharpDecomposition) -> CompiledProgram:
    """Lower the Theorem 3.7 pipeline for a fixed *decomposition*.

    Per bag: the witness view's source atoms plus the hosted core atoms
    (same assignment as the interpreted path, via
    :func:`~repro.counting.structural.host_core_atoms`), minus hosted
    atoms the view already scans, become one generic-join plan (and the
    columnar rendition's fold schedule) with projections pushed into the
    scans.  One compiled reduction runs before the free projection —
    required for exactness, since a dangling bag row surviving into the
    projection could create phantom free-variable tuples — and none
    after, because globally consistent bags stay globally consistent
    under projection.

    A single-bag decomposition needs neither: its count is
    ``|pi_free(join of the bag's atoms)|``, so its bag is lowered
    ``counted``, kept on the free variables alone — the kernel
    eliminates the others inside the join (see :meth:`_LinkedBag.count`)
    and the program has no projection and a one-vertex DP.
    """
    from .structural import host_core_atoms  # local import, avoids cycle

    tree = decomposition.tree
    views = decomposition.views
    hosted = host_core_atoms(decomposition)
    free = query.free_variables
    counted = len(tree.bags) == 1
    bag_schemas: List[Tuple[Variable, ...]] = []
    bags: List[BagStep] = []
    free_positions: List[Optional[Tuple[int, ...]]] = []
    projected_schemas: List[Tuple[Variable, ...]] = []
    for index, (bag, view_name) in enumerate(
            zip(tree.bags, decomposition.bag_views)):
        # A hosted atom the view already scans is the same conjunct
        # twice: drop it (order-preserving, so lowering stays
        # deterministic).
        atoms = list(dict.fromkeys(
            list(views[view_name].source_atoms) + list(hosted[index])))
        keep = frozenset(bag) & free if counted else frozenset(bag)
        step, schema = _lower_bag(atoms, keep, counted=counted)
        bags.append(step)
        bag_schemas.append(schema)
        projected = tuple(v for v in schema if v in free)
        projected_schemas.append(projected)
        if projected == schema:
            free_positions.append(None)
        else:
            schema_index = {v: i for i, v in enumerate(schema)}
            free_positions.append(
                tuple(schema_index[v] for v in projected)
            )
    reducer = CompiledReducer(bag_schemas, tree).steps()
    return _finish(
        kind="structural",
        source=query.name,
        width=decomposition.width(),
        bags=tuple(bags),
        reducer=reducer,
        free_positions=tuple(free_positions),
        dp=_lower_dp(projected_schemas, tree),
    )


def _lower_bag(atoms: Sequence, bag: frozenset, counted: bool = False,
               witnessed: bool = False
               ) -> Tuple[BagStep, Tuple[Variable, ...]]:
    """Lower ``pi_bag(atom_0 |><| ... |><| atom_n)``; returns the step
    and the bag schema (the kept variables in variable order).  A
    *counted* step computes only the schema's cardinality.  A
    *witnessed* step keeps every atom variable in its scans, so the
    join meets each witness of a bag row once (see
    :func:`bag_witness_counts`)."""
    parts = [atom.variable_set for atom in atoms]
    # A scan keeps the bag's variables and those it shares with another
    # part; a variable private to one atom is projected inside the scan
    # (unless the step counts witnesses).
    needed = []
    for part_index, variables in enumerate(parts):
        others = set().union(*(other for o, other in enumerate(parts)
                               if o != part_index))
        needed.append(frozenset(v for v in variables
                                if witnessed or v in bag or v in others))
    order = _variable_order(needed, bag, counted)
    missing = bag - set(order)
    if missing:  # pragma: no cover - a view covers its bag (Def. 1.4)
        raise QueryError(
            f"bag variables {sorted(v.name for v in missing)} are "
            "covered by no atom"
        )
    slot = {v: i for i, v in enumerate(order)}
    scan_schemas = [tuple(sorted(variables, key=slot.__getitem__))
                    for variables in needed]
    scans = tuple(_scan_for_atom(atom, schema)
                  for atom, schema in zip(atoms, scan_schemas))
    slots = tuple(tuple(slot[v] for v in schema) for schema in scan_schemas)
    schema = tuple(v for v in order if v in bag)
    names = tuple(v.name for v in order)
    if counted:
        layout = dict(kept=0, counted=True,
                      free=tuple(slot[v] for v in schema))
    else:
        layout = dict(kept=len(bag))
    if len(atoms) == 1:
        return BagStep(scans=scans, intersect=False, variables=names,
                       slots=slots, **layout), schema
    start, folds, folded = _lower_bag_join(scan_schemas, bag)
    project = None
    if folded != schema:
        folded_index = {v: i for i, v in enumerate(folded)}
        project = tuple(folded_index[v] for v in schema)
    return BagStep(
        scans=scans,
        intersect=False,
        start=start,
        folds=folds,
        project_positions=project,
        variables=names,
        slots=slots,
        covers=tuple(_prefix_covers(slots, width)
                     for width in range(1, len(order) + 1)),
        **layout,
    ), schema


def _variable_order(parts: Sequence[frozenset], bag: frozenset,
                    counted: bool = False) -> Tuple[Variable, ...]:
    """The generic join's variable order: the bag's variables first,
    then the projected-away ones.  Within each group, greedily bind the
    variable that the most already-touched parts cover (so it is probed
    through bound prefixes, not enumerated from a whole column), then
    the one the most parts cover, then one the same parts cover as the
    variable just bound (so such runs form one level, see
    :func:`_levels`); names break ties deterministically.

    A *counted* bag orders all its variables as one group, by linkage
    first and then kept before projected-away, so a projected-away
    variable that links a kept one to the bound prefix precedes it."""
    order: List[Variable] = []
    bound: Set[Variable] = set()
    previous: Tuple[int, ...] = ()
    everything = frozenset().union(*parts)

    def covering(variable) -> Tuple[int, ...]:
        return tuple(i for i, part in enumerate(parts) if variable in part)

    groups = ((everything,) if counted
              else (everything & bag, everything - bag))
    for group in groups:
        remaining = set(group)
        while remaining:
            def rank(variable):
                scans = covering(variable)
                linked = sum(1 for i in scans if parts[i] & bound)
                return (-linked, variable not in bag, -len(scans),
                        scans != previous, variable.name)

            pick = min(remaining, key=rank)
            order.append(pick)
            bound.add(pick)
            remaining.discard(pick)
            previous = covering(pick)
    return tuple(order)


def _prefix_covers(slots: Sequence[Tuple[int, ...]],
                   width: int) -> Tuple[Cover, ...]:
    """Fractional edge covers of the slot prefix ``0..width-1``, over
    the scans restricted to it (scans with equal restrictions share one
    edge: at pricing time the smallest of them stands for the edge)."""
    classes: Dict[frozenset, List[int]] = {}
    for scan, scan_slots in enumerate(slots):
        edge = frozenset(s for s in scan_slots if s < width)
        if edge:
            classes.setdefault(edge, []).append(scan)
    edges = sorted(classes, key=sorted)
    covers = []
    for weights in cover_vertices(range(width), edges):
        covers.append(tuple(
            (tuple(classes[edge]), weight.numerator, weight.denominator)
            for edge, weight in zip(edges, weights) if weight
        ))
    return tuple(covers)


# ----------------------------------------------------------------------
# Linking and execution
# ----------------------------------------------------------------------
#: Average group size from which a two-level trie is cheaper to derive
#: from the relation's cached column index (a C-level set per group)
#: than to build row by row; measured crossover about 3.5 rows.
_MIN_GROUP_ROWS = 4


def _scanned(database: Database, scan):
    """The relation an :class:`AtomScan` (or its linked form) reads,
    checked against the arity the program was lowered for."""
    relation = database[scan.relation]
    if relation.arity != scan.arity:
        raise SchemaError(
            f"compiled scan of {scan.relation!r} expects arity "
            f"{scan.arity}, relation has {relation.arity}"
        )
    return relation


class _LinkedScan:
    """An :class:`AtomScan` with its extractor resolved."""

    __slots__ = ("relation", "arity", "positions", "out", "identity",
                 "constraints", "equalities")

    def __init__(self, scan: AtomScan):
        self.relation = scan.relation
        self.arity = scan.arity
        self.positions = scan.out_positions
        self.out = _row_getter(scan.out_positions)
        self.identity = (not scan.constraints and not scan.equalities
                         and scan.out_positions == tuple(range(scan.arity)))
        self.constraints = scan.constraints
        self.equalities = scan.equalities

    def rows(self, database: Database) -> set:
        relation = _scanned(database, self)
        if self.identity:
            # The executor never mutates bag rows in place (intersection
            # rebinds), so the relation's own frozenset is safe to hand
            # out without a copy.
            return relation.rows
        if not self.constraints and not self.equalities:
            return set(map(self.out, relation))
        constraints = self.constraints
        equalities = self.equalities
        out = self.out
        matched = set()
        add = matched.add
        for row in relation:
            if all(row[i] == value for i, value in constraints) and \
                    all(row[i] == row[j] for i, j in equalities):
                add(out(row))
        return matched

    def trie(self, database: Database,
             cuts: Tuple[int, ...]) -> Tuple[int, Optional[tuple]]:
        """``(rows indexed, index)`` for the generic join (see
        :func:`_trie`); the index is ``None`` when no row matches.

        Selection-free scans take two shortcuts: a one-level scan of a
        whole (multi-column) row is the relation's own row set, and a
        scan of two one-column levels over groups of at least
        :data:`_MIN_GROUP_ROWS` rows on average derives its levels from
        the relation's cached column index — a C-level set per group
        instead of a Python step per row.
        """
        if self.identity and cuts == (0, self.arity) and self.arity > 1:
            rows = _scanned(database, self).rows
            return len(rows), ((rows,) if rows else None)
        if cuts == (0, 1, 2) and not self.constraints \
                and not self.equalities:
            relation = _scanned(database, self)
            if not relation:
                return 0, None
            first, second = self.positions
            groups = relation.index_on((first,))
            if len(relation) >= _MIN_GROUP_ROWS * len(groups):
                value_of = itemgetter(second)
                index = {key[0]: set(map(value_of, group))
                         for key, group in groups.items()}
                return len(relation), (set(index), index)
        rows = self.rows(database)
        if not rows:
            return 0, None
        return len(rows), _trie(rows, cuts)


#: Test-only operation counter of the generic-join kernel (see
#: :func:`count_kernel_ops`); ``None`` keeps the kernel accounting-free.
_KERNEL_OPS: Optional[Dict[str, int]] = None


@contextmanager
def count_kernel_ops() -> Iterator[Dict[str, int]]:
    """Count the generic-join kernel's operations inside the block.

    Yields a dict keyed like :data:`KERNEL_UNITS`: scan rows inserted
    into the per-count indexes (one per row and level), probes (index
    lookups plus per-count level sets consulted), elements the C-level
    ``set`` intersections examine (and a counted bag's unions add), and
    emitted bag rows (a counted bag's set insertions, one per union).
    Meant for tests: the planner's price of a program must cover these
    counts.
    While it is active the kernel runs its generic, counting probe at
    every level; otherwise it runs specialized probes with no
    accounting at all.
    """
    global _KERNEL_OPS
    previous = _KERNEL_OPS
    _KERNEL_OPS = ops = dict.fromkeys(KERNEL_UNITS, 0)
    try:
        yield ops
    finally:
        _KERNEL_OPS = previous


def _trie(rows, cuts: Tuple[int, ...]) -> tuple:
    """Per-count index of one scan's rows, in variable order.

    *cuts* splits the columns into the scan's levels (``cuts[d]`` to
    ``cuts[d + 1]``).  Level 0 is the set of first-level values; level
    ``d >= 1`` maps the columns before ``cuts[d]`` to the set of
    level-``d`` values extending them.  Keys and values are bare when
    one column wide, tuples otherwise — the
    :func:`~repro.db.algebra._key_getter` convention the probes use.
    """
    def part(low: int, high: int):
        return _key_getter(tuple(range(low, high)))

    if cuts == (0, 1, 2):  # the common binary scan: unpack, no getters
        index: dict = {}
        get = index.get
        for key, value in rows:
            found = get(key)
            if found is None:
                index[key] = {value}
            else:
                found.add(value)
        return (set(index), index)
    levels: List[object] = [set(map(part(cuts[0], cuts[1]), rows))]
    for depth in range(1, len(cuts) - 1):
        key_of = part(0, cuts[depth])
        value_of = part(cuts[depth], cuts[depth + 1])
        level: dict = {}
        get = level.get
        for row in rows:
            key = key_of(row)
            found = get(key)
            if found is None:
                level[key] = {value_of(row)}
            else:
                found.add(value_of(row))
        levels.append(level)
    return tuple(levels)


def _kept_slots(bag: BagStep) -> frozenset:
    """The slots of *bag*'s kept variables."""
    return frozenset(bag.free if bag.counted else range(bag.kept))


def _levels(bag: BagStep) -> List[Tuple[int, int, tuple]]:
    """The generic join's levels: maximal runs ``[start, end)`` of
    consecutive slots that the same scans cover, either all kept or all
    projected away, each with its ``(scan, depth, first column)``
    entries — the run is that scan's ``depth``-th level, occupying its
    columns from ``first`` on.  Binding a run at once keeps a scan's
    private columns (a fact table's payload, say) off the per-variable
    recursion."""
    width = len(bag.variables)
    kept = _kept_slots(bag)
    covered: List[List[int]] = [[] for _ in range(width)]
    for scan, scan_slots in enumerate(bag.slots):
        for slot in scan_slots:
            covered[slot].append(scan)
    levels = []
    depths = [0] * len(bag.slots)
    start = 0
    for slot in range(1, width + 1):
        if slot < width and (slot in kept) == (start in kept) and \
                covered[slot] == covered[start]:
            continue
        entries = []
        for scan in covered[start]:
            entries.append((scan, depths[scan],
                            bag.slots[scan].index(start)))
            depths[scan] += 1
        levels.append((start, slot, tuple(entries)))
        start = slot
    return levels


def _probe(keyed: Sequence[tuple], fixed: Optional[set],
           ops: Optional[Dict[str, int]]):
    """The candidate-set function of one generic-join level.

    Maps a binding of the earlier slots to the values this slot may
    take: the intersection, smallest first, of the keyed scans' sets at
    the binding's prefixes and the level's *fixed* set.  Returns
    ``None`` or an empty set when there are none.  The one- and two-set
    shapes get dedicated closures (``a & b`` already iterates the
    smaller operand); with *ops* set, every level runs the generic
    closure, which counts.
    """
    if ops is None:
        gets = [(index.get, key) for index, key in keyed]
        if not gets:
            return lambda binding: fixed
        if len(gets) == 1:
            (get, key), = gets
            if fixed is None:
                return lambda binding: get(key(binding))

            def one_and_fixed(binding):
                found = get(key(binding))
                return found & fixed if found else None
            return one_and_fixed
        if len(gets) == 2 and fixed is None:
            (get, key), (other_get, other_key) = gets

            def two(binding):
                found = get(key(binding))
                if not found:
                    return None
                other = other_get(other_key(binding))
                return found & other if other else None
            return two

    def generic(binding):
        sets = []
        for index, key in keyed:
            found = index.get(key(binding))
            if ops is not None:
                ops["probes"] += 1
            if not found:
                return None
            sets.append(found)
        if fixed is not None:
            if ops is not None:
                ops["probes"] += 1
            sets.append(fixed)
        if len(sets) == 1:
            return sets[0]
        sets.sort(key=len)
        found = sets[0]
        for other in sets[1:]:
            if ops is not None:
                ops["intersected"] += min(len(found), len(other))
            found = found & other
            if not found:
                break
        return found
    return generic


class _LinkedBag:
    """A :class:`BagStep` with extractors resolved.

    Multi-part bags run the generic join over :func:`_levels`: per
    level, the scans that reach it with a bound prefix are probed by key
    (``keyed``), and the scans whose first level it is contribute their
    level-0 set (``unkeyed``, intersected once per count).  A counted
    bag's ``plan`` is ``(prefix, final, key_of, direct)``: its leading
    run of kept levels, its last kept level (-1: none), the extractor
    of the kept columns bound between them (``None``: no such column),
    and the ``(scan, depth)`` index that answers the last level from a
    bare candidate of the level before (``None``: no such index).
    """

    __slots__ = ("scans", "mode", "cuts", "kept", "levels", "wide",
                 "plan")

    def __init__(self, bag: BagStep):
        self.scans = tuple(_LinkedScan(scan) for scan in bag.scans)
        if bag.intersect:
            self.mode = "intersect"
        elif len(bag.scans) == 1:
            self.mode = "scan"
        else:
            self.mode = "join"
        levels = _levels(bag)
        cuts: List[List[int]] = [[] for _ in bag.scans]
        for _start, _end, entries in levels:
            for scan, _depth, first in entries:
                cuts[scan].append(first)
        self.cuts = tuple(tuple(scan_cuts) + (len(scan_slots),)
                          for scan_cuts, scan_slots in zip(cuts, bag.slots))
        self.kept = sum(1 for _start, end, _ in levels if end <= bag.kept)
        self.levels = tuple(
            (tuple((scan, depth, _key_getter(bag.slots[scan][:first]))
                   for scan, depth, first in entries if depth),
             tuple(scan for scan, depth, _first in entries if not depth))
            for _start, _end, entries in levels
        )
        self.wide = tuple(end - start > 1 for start, end, _ in levels)
        self.plan = None
        if bag.counted:
            kept = [start in bag.free for start, _end, _ in levels]
            prefix = kept.index(False) if False in kept else len(kept)
            final = len(kept) - 1 - kept[::-1].index(True) \
                if True in kept else -1
            between: Tuple[int, ...] = ()
            if prefix < final:
                low, high = levels[prefix][0], levels[final][0]
                between = tuple(s for s in bag.free if low <= s < high)
            # The last level may be probed with bare candidates when it
            # is the only level kept after the prefix, is the last one,
            # and only one scan covers it, keyed by the one-column level
            # just before it.
            direct = None
            if 0 < final == len(levels) - 1 and not between:
                keyed, unkeyed = self.levels[final]
                start, end, _ = levels[final - 1]
                if len(keyed) == 1 and not unkeyed and end - start == 1:
                    scan, depth, _key = keyed[0]
                    if bag.slots[scan][:self.cuts[scan][depth]] == (start,):
                        direct = (scan, depth)
            self.plan = (prefix, final,
                         _row_getter(between) if between else None, direct)

    def rows(self, database: Database) -> set:
        if self.mode == "scan":
            return self.scans[0].rows(database)
        if self.mode == "intersect":
            first = self.scans[0].rows(database)
            for scan in self.scans[1:]:
                if not first:
                    return first
                first &= scan.rows(database)
            return first
        with collector_paused():
            return self._join(database)

    def count(self, database: Database) -> int:
        """``|pi_kept(bag)|`` of a counted bag, without materializing it."""
        if self.mode == "scan":  # the scan already projects onto the kept
            return len(self.scans[0].rows(database))
        with collector_paused():
            return self._count(database)

    def witnesses(self, database: Database) -> Dict[tuple, int]:
        """Each kept tuple's number of completions over the projected-away
        levels (1 when there are none) — a *witnessed* bag's witness
        counts."""
        if self.kept == len(self.levels):
            return dict.fromkeys(self.rows(database), 1)
        with collector_paused():
            return self._witnesses(database)

    def _witnesses(self, database: Database) -> Dict[tuple, int]:
        resolved = self._probes(database)
        if resolved is None:
            return {}
        _tries, probes = resolved
        kept, wide = self.kept, self.wide
        rows = [()]
        for level in range(kept):
            probe, extends = probes[level], wide[level]
            rows = [extended for row in rows
                    for extended in _extend(row, probe(row) or (), extends)]
        completions = map(partial(_completions, probes, wide,
                                  len(probes) - 1, kept), rows)
        return {row: count for row, count in zip(rows, completions) if count}

    def _probes(self, database: Database) -> Optional[tuple]:
        """``(tries, probes)``: each scan's per-count index and each
        level's candidate-set function over them, or ``None`` when some
        scan (or level-0 intersection) is empty."""
        ops = _KERNEL_OPS
        tries = []
        for scan, cuts in zip(self.scans, self.cuts):
            if len(cuts) == 1:  # a ground atom: a filter, no levels
                if not scan.rows(database):
                    return None
                tries.append(None)
                continue
            indexed, trie = scan.trie(database, cuts)
            if trie is None:
                return None
            tries.append(trie)
            if ops is not None:
                ops["inserts"] += indexed * (len(cuts) - 1)
        # Resolve each level against this count's indexes; the level-0
        # sets of the scans starting there intersect once, smallest
        # first, into the level's fixed candidate set.
        probes = []
        for keyed, unkeyed in self.levels:
            fixed = None
            for found in sorted((tries[scan][0] for scan in unkeyed),
                                key=len):
                if fixed is None:
                    fixed = found
                    continue
                if ops is not None:
                    ops["intersected"] += min(len(fixed), len(found))
                fixed = fixed & found
            if fixed is not None and not fixed:
                return None
            probes.append(_probe(
                [(tries[scan][depth], key) for scan, depth, key in keyed],
                fixed, ops))
        return tries, probes

    def _join(self, database: Database) -> set:
        resolved = self._probes(database)
        if resolved is None:
            return set()
        _tries, probes = resolved
        kept = self.kept
        last = len(probes) - 1
        wide = self.wide
        witness = partial(_witness, probes, wide, last)
        out: set = set()
        add = out.add

        def expand(level: int, binding: tuple) -> None:
            found = probes[level](binding)
            if not found:
                return
            rows = _extend(binding, found, wide[level])
            following = level + 1
            if following == kept:
                if kept > last:
                    out.update(rows)
                    return
                for row in rows:
                    if witness(kept, row):
                        add(row)
                return
            if following + 1 == kept and kept > last and \
                    not wide[following]:
                # The next level is the last: emit inline, saving a
                # call per binding on the hottest loop.
                probe = probes[following]
                for row in rows:
                    more = probe(row)
                    if more:
                        for value in more:
                            add(row + (value,))
                return
            for row in rows:
                expand(following, row)

        if kept:
            expand(0, ())
        elif last < 0 or witness(0, ()):
            add(())
        # Break the recursive closure's cycle, so the per-count indexes
        # it holds are freed here, not by a later collection.
        del expand
        ops = _KERNEL_OPS
        if ops is not None:
            ops["emitted"] += len(out)
        return out

    def _count(self, database: Database) -> int:
        """Count the distinct kept tuples: the generic join, with the
        projected-away variables eliminated by set union.

        Each binding of the leading kept levels (the *prefix*) owns one
        set of the distinct tuples its extensions take on the remaining
        kept levels; the answer is the sum of their sizes, and distinct
        prefixes never share a tuple.  Projected-away levels before the
        last kept level are enumerated, each of their bindings adding
        its candidates to the prefix's set — a C-level union when only
        the last level is kept after the prefix.  Projected-away levels
        after it only look for a witness, skipped for tuples the set
        already holds.  When every kept level is in the prefix there is
        no set: the last level's candidates are counted, or each prefix
        binding with a witness counts once.
        """
        resolved = self._probes(database)
        if resolved is None:
            return 0
        tries, probes = resolved
        ops = _KERNEL_OPS
        prefix, final, key_of, direct = self.plan
        last = len(probes) - 1
        wide = self.wide
        # Recursive helpers are partials of module functions, never
        # self-referencing closures: nothing here forms a cycle, so the
        # per-count indexes die on return, not in a later collection.
        witness = partial(_witness, probes, wide, last)
        over = partial(_over, probes, wide)

        if final < 0:  # no kept variable: is there any witness?
            return 1 if last < 0 or witness(0, ()) else 0
        probe = probes[final]
        before = wide[final - 1] if final else False
        if direct is not None and ops is None:
            # The last level is one scan keyed by the level before it:
            # probe its index with the bare candidates, no bindings.
            scan, depth = direct
            get = tries[scan][depth].get

            def candidates(binding, found):
                return filter(None, map(get, found))
        else:
            def candidates(binding, found):
                return filter(None, map(
                    probe, _extend(binding, found, before)))

        if prefix > final:  # every kept level is in the prefix
            if final == last:
                if last == 0:
                    return len(probe(()) or ())
                return over(0, (), last, lambda binding, found: sum(
                    map(len, candidates(binding, found))))
            following = final + 1
            return over(0, (), following, lambda binding, found: sum(map(
                witness, repeat(following),
                _extend(binding, found, wide[final]))))

        extends = wide[final]

        def fill(acc: set, binding: tuple, found) -> int:
            """Add the kept tuples reached through the level-``final - 1``
            candidates *found* (extending *binding*) to *acc*."""
            if key_of is None and final == last:
                sets = candidates(binding, found)
                if ops is not None:
                    sets = list(sets)
                    ops["emitted"] += len(sets)
                    ops["intersected"] += sum(map(len, sets))
                acc.update(*sets)
                return 0
            for row in _extend(binding, found, before):
                more = probe(row)
                if not more:
                    continue
                head = None if key_of is None else key_of(row)
                if final == last:
                    items = ([head + value for value in more] if extends
                             else [head + (value,) for value in more])
                    if ops is not None:
                        ops["emitted"] += 1
                        ops["intersected"] += len(items)
                    acc.update(items)
                    continue
                for value in more:
                    if head is None:
                        item = value
                    else:
                        item = head + value if extends else head + (value,)
                    if item not in acc and witness(
                            final + 1,
                            row + value if extends else row + (value,)):
                        acc.add(item)
                        if ops is not None:
                            ops["emitted"] += 1
            return 0

        def distinct(binding: tuple) -> int:
            acc: set = set()
            over(prefix, binding, final,
                 lambda bound, found: fill(acc, bound, found))
            return len(acc)

        if prefix == 0:
            return distinct(())
        return over(0, (), prefix, lambda binding, found: sum(map(
            distinct, _extend(binding, found, wide[prefix - 1]))))


def _completions(probes: Sequence, wide: Sequence[bool], last: int,
                 level: int, binding: tuple) -> int:
    """The number of ways *binding* extends through every level from
    *level* to *last*."""
    found = probes[level](binding)
    if not found:
        return 0
    if level == last:
        return len(found)
    return sum(map(partial(_completions, probes, wide, last, level + 1),
                   _extend(binding, found, wide[level])))


def _extend(binding: tuple, found, wide: bool) -> list:
    """*binding* extended by each candidate of a level (a wide level's
    candidates are tuples of its columns)."""
    if wide:
        return [binding + value for value in found]
    return [binding + (value,) for value in found]


def _witness(probes: Sequence, wide: Sequence[bool], last: int,
             level: int, binding: tuple) -> bool:
    """Does *binding* extend through every level from *level* to
    *last*?  Stops at the first complete extension."""
    found = probes[level](binding)
    if not found:
        return False
    if level == last:
        return True
    return any(_witness(probes, wide, last, level + 1, row)
               for row in _extend(binding, found, wide[level]))


def _over(probes: Sequence, wide: Sequence[bool], level: int,
          binding: tuple, depth: int, visit) -> int:
    """Sum ``visit(binding, candidates)`` over the bindings of the levels
    before ``depth - 1`` that extend *binding* (from *level* on)."""
    found = probes[level](binding)
    if not found:
        return 0
    following = level + 1
    if following == depth:
        return visit(binding, found)
    total = 0
    for row in _extend(binding, found, wide[level]):
        total += _over(probes, wide, following, row, depth, visit)
    return total


@lru_cache(maxsize=256)
def _witness_bag(atoms: tuple, bag: frozenset
                 ) -> Tuple[_LinkedBag, Optional[object]]:
    """The linked witnessed join of *atoms* over *bag*, plus the
    permutation of its rows onto the name-sorted bag schema (``None``
    when the variable order already is that schema)."""
    step, schema = _lower_bag(atoms, bag, witnessed=True)
    wanted = _sorted_schema(bag)
    order = None if schema == wanted else _row_getter(
        tuple(schema.index(v) for v in wanted))
    return _LinkedBag(step), order


def bag_witness_counts(atoms: Sequence, bag: frozenset,
                       database: Database) -> Dict[tuple, int]:
    """``counts[bag_row] = |sigma_{bag_row}(join of atoms)|`` over
    *database*, keyed by rows over the bag's name-sorted variables.

    The bag's generic join binds the bag's variables first and counts
    each bag row's completions over the atoms' other variables; a
    maintainer's construction seeds its witness multisets with it.
    *atoms* must be distinct and cover *bag*.
    """
    linked, order = _witness_bag(tuple(atoms), frozenset(bag))
    counts = linked.witnesses(database)
    if order is not None:
        counts = dict(zip(map(order, counts), counts.values()))
    return counts


#: Count bounds must stay well inside int64 for the vectorized DP.
_MAX_TOTAL = 2 ** 62


class _ColumnarBag:
    """A :class:`BagStep` run over code-column frames."""

    __slots__ = ("scans", "intersect", "start", "folds", "project")

    def __init__(self, bag: BagStep):
        self.scans = bag.scans
        self.intersect = bag.intersect
        self.start = bag.start
        self.folds = tuple(
            (all(p < step.bound_width for p in step.out_positions), step)
            for step in bag.folds
        )
        self.project = bag.project_positions

    def frame(self, database: Database):
        def scanned(scan: AtomScan):
            return scan_frame(database[scan.relation], scan.out_positions,
                              scan.constraints, scan.equalities)

        if self.intersect:
            current = scanned(self.scans[0])
            for scan in self.scans[1:]:
                if current.n == 0:
                    return current
                current = intersect_frames(current, scanned(scan))
            return current
        frames = [scanned(scan) for scan in self.scans]
        current = frames[self.start]
        for semi, step in self.folds:
            if current.n == 0:
                return current
            part = frames[step.part]
            if semi:
                current = semijoin_frames(current, part,
                                          step.key_positions,
                                          step.part_positions)
                if step.out_positions != tuple(range(step.bound_width)):
                    current = project_frame(current, step.out_positions)
            else:
                current = join_frames(current, part, step.key_positions,
                                      step.part_positions,
                                      step.out_positions, step.bound_width)
        if self.project is not None and current.n:
            if sorted(self.project) == list(range(len(current.cols))):
                # A pure column permutation onto the bag schema: rows
                # stay distinct, so no dedup pass.
                current = Frame(
                    current.n,
                    tuple(current.cols[p] for p in self.project),
                    tuple(current.dicts[p] for p in self.project),
                    host=current.host,
                    ckey=None if current.ckey is None
                    else current.ckey + ("perm", self.project))
            else:
                current = project_frame(current, self.project)
        return current


def _leaf_aggregate(frame, positions: Tuple[int, ...]) -> KeyAggregate:
    """Group-count a (projected, deduplicated) leaf frame by *positions* —
    the columnar ``Counter(map(key_of, rows))``, cached on the host
    relation when the frame is a pure derivation of one."""
    return frame.cached(("agg", positions), lambda: KeyAggregate.over(
        [frame.cols[p] for p in positions],
        [frame.dicts[p] for p in positions], frame.n,
    ))


class _ColumnarProgram:
    """The columnar rendition of one compiled program.

    Semantically identical to the tuple executor — same bag schedules,
    same sequential reducer passes, same bottom-up DP — just phrased
    over frames and :class:`KeyAggregate` tables.  Counts are exact:
    every step that could leave int64 raises :class:`ColumnarFallback`
    instead, and the caller reruns the tuple path.
    """

    __slots__ = ("_bags", "_reducer", "_free", "_dp", "_digest")

    def __init__(self, program: CompiledProgram):
        self._bags = tuple(_ColumnarBag(bag) for bag in program.bags)
        self._reducer = program.reducer
        self._free = program.free_positions
        self._dp = program.dp
        self._digest = program.digest

    def _reduce(self, frames: list) -> list:
        """The :class:`~repro.consistency.local.CompiledReducer` schedule
        as frame semijoins (same sequential up/down passes)."""
        _size, up, down = self._reducer
        for vertex, probes in up:
            frame = frames[vertex]
            for mine, child, child_positions in probes:
                if frame.n == 0:
                    break
                frame = semijoin_frames(frame, frames[child], mine,
                                        child_positions)
            frames[vertex] = frame
        for vertex, mine, parent, parent_positions in down:
            frame = frames[vertex]
            if frame.n == 0:
                continue
            frames[vertex] = semijoin_frames(frame, frames[parent], mine,
                                             parent_positions)
        return frames

    def _staged(self, database: Database):
        """The reduced, free-projected bag frames, or ``None`` when an
        empty bag (or empty reduction) already forces count 0.

        Frames are a pure function of the program and the (immutable)
        scanned relations, so the stage memoizes on the first scanned
        relation keyed by the *identities* of all of them — the cached
        tuple holds the relations strongly, so the ``is`` checks can
        never be fooled by a recycled object.  The hot maintained-stream
        loop (many counts, one database) pays for folds, reduction and
        projection once; any update rebuilds a relation and thereby
        rotates the entry.
        """
        relations = tuple(
            database[scan.relation]
            for bag in self._bags for scan in bag.scans
        )
        key = ("staged", self._digest)
        host = relations[0] if relations else None
        entry = None if host is None else host._kcache.get(key)
        if entry is not None:
            cached_relations, projected = entry
            if len(cached_relations) == len(relations) and all(
                    cached is current for cached, current
                    in zip(cached_relations, relations)):
                return projected
        projected = None
        frames = []
        for bag in self._bags:
            frame = bag.frame(database)
            if frame.n == 0:
                frames = None
                break
            frames.append(frame)
        if frames is not None:
            if self._reducer is not None:
                frames = self._reduce(frames)
                if any(frame.n == 0 for frame in frames):
                    frames = None  # empty propagation: any empty => 0
        if frames is not None:
            projected = [
                frame if positions is None
                else project_frame(frame, positions)
                for frame, positions in zip(frames, self._free)
            ]
        if host is not None:
            host._kcache[key] = (relations, projected)
        return projected

    def count(self, database: Database) -> int:
        projected = self._staged(database)
        if projected is None:
            return 0
        counts: Dict[int, tuple] = {}  # vertex -> (frame, totals, max)
        answer = 1
        for step in self._dp:
            frame = projected[step.vertex]
            if not step.children:
                if step.root:  # isolated component: plain cardinality
                    answer *= frame.n
                continue
            aggregates = []
            bound = 1
            for child in step.children:
                if child.leaf:
                    aggregate = _leaf_aggregate(projected[child.child],
                                                child.child_positions)
                else:
                    child_frame, totals, biggest = counts.pop(child.child)
                    if biggest * max(child_frame.n, 1) >= _MAX_TOTAL:
                        raise ColumnarFallback("group total exceeds int64")
                    aggregate = KeyAggregate.over(
                        [child_frame.cols[p]
                         for p in child.child_positions],
                        [child_frame.dicts[p]
                         for p in child.child_positions],
                        child_frame.n, weights=totals,
                    )
                aggregates.append((child.my_positions, aggregate))
                bound *= max(aggregate.max_total, 1)
            if bound * max(frame.n, 1) >= _MAX_TOTAL:
                raise ColumnarFallback("count bound exceeds int64")
            totals = None
            for my_positions, aggregate in aggregates:
                found = aggregate.counts_for(
                    [frame.cols[p] for p in my_positions],
                    [frame.dicts[p] for p in my_positions], frame.n,
                )
                totals = found if totals is None else totals * found
            if step.root:
                answer *= int(totals.sum())
                if not answer:
                    return 0
            else:
                keep = totals > 0
                if not bool(keep.all()):
                    survivors = keep.nonzero()[0]
                    frame = frame.take(survivors)
                    totals = totals[survivors]
                biggest = int(totals.max()) if frame.n else 0
                counts[step.vertex] = (frame, totals, biggest)
        return answer


class _Executable:
    """A linked :class:`CompiledProgram` — call :meth:`count`.

    The tuple path below is the reference semantics; :meth:`count`
    dispatches to the columnar rendition first whenever the database
    qualifies (see :class:`_ColumnarProgram`).
    """

    __slots__ = ("program", "_bags", "_reducer", "_free", "_dp",
                 "_columnar", "_counted")

    def __init__(self, program: CompiledProgram):
        self.program = program
        self._columnar = None  # built on first qualifying count
        self._bags = tuple(_LinkedBag(bag) for bag in program.bags)
        # A counted bag is the whole program: no reducer, one DP root.
        self._counted = program.bags[0].counted if program.bags else False
        self._reducer = (CompiledReducer.from_steps(program.reducer)
                         if _has_reduction(program) else None)
        self._free = tuple(
            None if positions is None else _row_getter(positions)
            for positions in program.free_positions
        )
        self._dp = tuple(
            (step.vertex, step.root, tuple(
                (child.child, child.leaf,
                 _key_getter(child.my_positions),
                 _key_getter(child.child_positions))
                for child in step.children
            ))
            for step in program.dp
        )

    def count(self, database: Database) -> int:
        # The backend check comes first: a tuple database never builds
        # the columnar rendition (nor imports numpy).
        if (self._columnar is not False
                and _columnar_supported(self.program.bags, database)):
            try:
                if self._columnar is None:
                    self._columnar = (_ColumnarProgram(self.program)
                                      if columnar_kernels_available()
                                      else False)
                if self._columnar is not False:
                    return self._columnar.count(database)
            except ColumnarFallback:
                pass  # exactness first: rerun on the tuple path
        return self._tuple_count(database)

    def _tuple_count(self, database: Database) -> int:
        if self._counted:
            return self._bags[0].count(database)
        bag_rows: List[set] = []
        for bag in self._bags:
            rows = bag.rows(database)
            if not rows:
                return 0
            bag_rows.append(rows)
        if self._reducer is not None:
            bag_rows = self._reducer.reduce(bag_rows)
            if not bag_rows[0]:  # empty propagation: any empty => all
                return 0
        projected = [
            rows if project is None else set(map(project, rows))
            for rows, project in zip(bag_rows, self._free)
        ]
        counts: Dict[int, Dict[tuple, int]] = {}
        answer = 1
        for vertex, root, children in self._dp:
            rows = projected[vertex]
            if not children:
                if root:  # isolated component: plain cardinality
                    answer *= len(rows)
                continue
            aggregates = []
            for child, leaf, my_key, child_key in children:
                if leaf:
                    aggregate = Counter(map(child_key, projected[child]))
                else:
                    aggregate = {}
                    get = aggregate.get
                    for child_row, multiplicity in \
                            counts.pop(child).items():
                        key = child_key(child_row)
                        aggregate[key] = get(key, 0) + multiplicity
                aggregates.append((my_key, aggregate))
            if root:
                # Roots only contribute a scalar — never build the table.
                if len(aggregates) == 1:
                    my_key, aggregate = aggregates[0]
                    get = aggregate.get
                    # Aggregates hold strictly positive multiplicities,
                    # so filtering falsy drops exactly the misses (None).
                    total_sum = sum(filter(None, map(get, map(my_key,
                                                              rows))))
                else:
                    total_sum = 0
                    for row in rows:
                        total = 1
                        for my_key, aggregate in aggregates:
                            total *= aggregate.get(my_key(row), 0)
                            if not total:
                                break
                        total_sum += total
                answer *= total_sum
                if not answer:
                    return 0
            else:
                table: Dict[tuple, int] = {}
                for row in rows:
                    total = 1
                    for my_key, aggregate in aggregates:
                        total *= aggregate.get(my_key(row), 0)
                        if not total:
                            break
                    if total:
                        table[row] = total
                counts[vertex] = table
        return answer


# ----------------------------------------------------------------------
# Pricing: what a compiled program costs the deadline planner
# ----------------------------------------------------------------------
#: Deadline units (the engine calibrates 1000 per millisecond, so a unit
#: is about a microsecond) per generic-join kernel operation, keyed like
#: :func:`count_kernel_ops`.  A probe carries its binding's Python-level
#: bookkeeping (tuple extension, key extraction, the loop step); an
#: insert, an emitted row and an element examined inside a C-level
#: ``set`` intersection cost far less.  Measured on the adhoc triangle,
#: 4-cycle and path shapes (2-vCPU VM) and rounded up about 1.5-2x.
KERNEL_UNITS: Dict[str, float] = {
    "inserts": 0.2,
    "probes": 1.0,
    "intersected": 0.05,
    "emitted": 0.25,
}

#: Units per bag row for each pass over it outside the kernel: a scan's
#: copy, a reducer semijoin probe or key-set build, the free projection,
#: a DP aggregation.
ROW_UNITS = 0.5

#: Fixed units per bag: resolving its scans and level closures, the
#: per-bag steps of reduction and DP — what dominates tiny programs.
BAG_UNITS = 50.0


def estimate_units(program: CompiledProgram, database: Database) -> float:
    """Price *program*'s tuple-path execution over *database*, in
    deadline units, from relation statistics alone (cardinalities,
    column distinct counts and prefix degrees, all cached on the
    relations — no data pass per request, no solver).

    A generic-join bag costs its index inserts plus, per level, the
    prefix's bindings times the probes and intersected elements each
    costs.  Bindings are bounded level by level: the previous level's
    times the smallest degree among the scans covering the variable,
    capped by the prefix's AGM bound (its covers were enumerated at
    lowering).  Each term bounds the matching :func:`count_kernel_ops`
    count from above, so the planner never under-prices the kernel.
    Every bag's row bound is then charged :data:`ROW_UNITS` for each
    later pass that touches it.
    """
    units = BAG_UNITS * len(program.bags)
    bounds: List[float] = []
    for bag in program.bags:
        sizes = [len(_scanned(database, scan)) for scan in bag.scans]
        if bag.intersect or len(bag.scans) == 1:
            units += ROW_UNITS * sum(sizes)
            bounds.append(float(min(sizes, default=0)))
            continue
        work, rows = _join_estimate(bag, database, sizes)
        units += work
        bounds.append(rows)
    return units + ROW_UNITS * sum(
        rows * touches for rows, touches in zip(bounds, _row_touches(program))
    )


def _join_estimate(bag: BagStep, database: Database,
                   sizes: Sequence[int]) -> Tuple[float, float]:
    """``(units, bag row bound)`` of one generic-join bag.

    A counted bag emits no rows.  When a projected-away level precedes
    its last kept level, its set insertions and the elements its unions
    add are each bounded by the bindings of that last kept level (one
    insertion or union per non-empty candidate set there); otherwise it
    builds no set at all.
    """
    levels = _levels(bag)
    kept = _kept_slots(bag)
    kept_levels = [index for index, (start, _end, _) in enumerate(levels)
                   if start in kept]
    unions = bag.counted and kept_levels != list(range(len(kept_levels)))
    depths = [0] * len(bag.scans)
    for _start, _end, entries in levels:
        for scan, _depth, _first in entries:
            depths[scan] += 1
    inserts = sum(size * depth for size, depth in zip(sizes, depths))
    if not all(sizes):  # an empty scan ends the bag before any level
        return KERNEL_UNITS["inserts"] * inserts, 0.0
    stats = [database[scan.relation].statistics() for scan in bag.scans]
    probes = intersected = 0.0
    bindings = 1.0
    rows = 0.0 if bag.counted else 1.0
    for level, (start, end, entries) in enumerate(levels):
        bounds = []
        starts = []
        for scan, depth, first in entries:
            positions = bag.scans[scan].out_positions
            if depth:
                bounds.append(stats[scan].degree(positions[:first]))
            elif end - start == 1:
                starts.append(stats[scan].distinct(positions[0]))
            else:
                starts.append(sizes[scan])
        bounds.extend(starts)
        sets = len(entries) - len(starts) + (1 if starts else 0)
        smallest = min(bounds)
        if len(starts) > 1:  # the once-per-count level-0 intersection
            intersected += (len(starts) - 1) * min(starts)
        probes += bindings * sets
        intersected += bindings * (sets - 1) * smallest
        bindings = min(bindings * smallest,
                       _agm_bound(bag.covers[end - 1], sizes))
        if end == bag.kept or (unions and level == kept_levels[-1]):
            rows = bindings
    if unions:
        intersected += rows
    work = (KERNEL_UNITS["inserts"] * inserts
            + KERNEL_UNITS["probes"] * probes
            + KERNEL_UNITS["intersected"] * intersected
            + KERNEL_UNITS["emitted"] * rows)
    return work, rows


def _agm_bound(covers: Sequence[Cover], sizes: Sequence[int]) -> float:
    """``min`` over *covers* of ``prod |r_e|^{x_e}`` (rounded up, so
    float error never undercuts an integral count)."""
    best = math.inf
    for cover in covers:
        best = min(best, sum(
            numerator / denominator
            * math.log(min(sizes[scan] for scan in scans))
            for scans, numerator, denominator in cover
        ))
    if best == math.inf:
        return math.inf
    return math.ceil(math.exp(best) * (1 + 1e-9))


def _row_touches(program: CompiledProgram) -> List[int]:
    """Per bag: how many passes outside the kernel touch its rows."""
    touches = [0] * len(program.bags)
    if _has_reduction(program):
        _size, up, down = program.reducer
        for vertex, probes in up:
            for _mine, child, _child_positions in probes:
                touches[vertex] += 1
                touches[child] += 1
        for vertex, _mine, parent, _parent_positions in down:
            touches[vertex] += 1
            touches[parent] += 1
        touches = [count + 1 for count in touches]  # frozenset hand-off
    for bag, positions in enumerate(program.free_positions):
        if positions is not None:
            touches[bag] += 1
    for step in program.dp:
        if step.children:
            touches[step.vertex] += 1
            for child in step.children:
                touches[child.child] += 1
    return touches


def _has_reduction(program: CompiledProgram) -> bool:
    """Does the program's reducer have any semijoin to run?  (A
    single-bag tree has none: its one non-empty bag is already globally
    consistent.)"""
    if program.reducer is None:
        return False
    _size, up, down = program.reducer
    return bool(up or down)


def runs_columnar(program: CompiledProgram, database: Database) -> bool:
    """Would :meth:`_Executable.count` take the columnar rendition?"""
    return columnar_kernels_available() and _columnar_supported(
        program.bags, database)


def _columnar_supported(bags: Sequence[BagStep], database: Database) -> bool:
    """All scanned relations present, arity-consistent, columnar."""
    for bag in bags:
        for scan in bag.scans:
            relation = database.get(scan.relation)
            if (not isinstance(relation, ColumnarRelation)
                    or relation.arity != scan.arity):
                return False
    return True


def describe_bags(program: CompiledProgram) -> List[Dict[str, object]]:
    """Per bag: its tuple-path kernel and, for generic joins, the
    variable order — kept variables, then witness-only ones; a counted
    bag's whole order and the projected-away variables its kernel
    eliminates by union (those bound before its last kept variable)."""
    described: List[Dict[str, object]] = []
    for bag in program.bags:
        if bag.intersect:
            entry: Dict[str, object] = {"kernel": "intersect"}
        elif len(bag.scans) == 1:
            entry = {"kernel": "scan"}
        elif bag.counted:
            final = max(bag.free, default=-1)
            entry = {"kernel": "generic_join",
                     "order": list(bag.variables),
                     "eliminated": [
                         name for slot, name in enumerate(bag.variables)
                         if slot < final and slot not in bag.free]}
        else:
            entry = {"kernel": "generic_join",
                     "order": list(bag.variables[:bag.kept]),
                     "witness": list(bag.variables[bag.kept:])}
        entry["scans"] = len(bag.scans)
        described.append(entry)
    return described


#: Linked executables memoized per program digest: every execution of a
#: cached plan — across sessions, shards, and repeated counts — shares
#: one linked object (and therefore one set of resolved extractors).
_LINKED: Dict[str, _Executable] = {}


#: Program objects whose digest :func:`link` has verified, by identity:
#: ``id -> (weak reference, executable)``.  Programs are frozen
#: dataclasses of tuples, so a verified object stays valid; an entry
#: leaves with its program, before the id can be reused.
_VERIFIED: Dict[int, Tuple[weakref.ref, _Executable]] = {}


def link(program: CompiledProgram) -> _Executable:
    """Resolve *program* into an executable, verifying its digest.

    Raises :class:`~repro.decomposition.serialize.
    PlanSerializationError` when the stored digest does not match the
    program body — a corrupted artifact must never execute.  Each
    program object is verified on its first link only: re-rendering
    and hashing the whole description cost a warm count several
    percent.
    """
    key = id(program)
    entry = _VERIFIED.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    if program_digest(program) != program.digest:
        from ..decomposition.serialize import PlanSerializationError
        raise PlanSerializationError(
            "compiled program digest mismatch — artifact corrupted"
        )
    executable = _LINKED.get(program.digest)
    if executable is None:
        executable = _Executable(program)
        _LINKED[program.digest] = executable

    def forget(reference, key=key, verified=_VERIFIED):
        if verified.get(key, (None,))[0] is reference:
            del verified[key]

    _VERIFIED[key] = (weakref.ref(program, forget), executable)
    return executable
