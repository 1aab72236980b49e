"""The Figure 13 algorithm: counting via #-relations (Appendix C, Thm. 6.2).

Pichler & Skritek's algorithm, as generalized by the paper to hypertree
decompositions and analyzed in terms of the degree bound ``h``:

* a *#-relation* is a set of substitution sets, each carrying a count;
* initialization partitions each vertex relation ``r_p`` by its projection
  onto the free variables: ``R0_p = { sigma_theta(r_p) }`` with count 1;
* bottom-up, a vertex absorbs each child through the ad-hoc semijoin
  ``R ⋉ R' = { S ⋉ S' | S in R, S' in R', S ⋉ S' != empty }``, summing the
  products of counts of all pairs producing the same surviving set;
* the answer is the sum of the root's counts (product over the roots of a
  forest — components share no variables).

Cost ``O(|vertices| * m^{2k} * 4^h)`` where ``h = bound(D, HD)`` — each
initial group has at most ``h`` tuples, so at most ``2^h`` distinct subsets
survive per group (Theorem 6.2).  That bound is the worst case only:
:func:`sharp_semijoin` collapses the child's groups by their key sets on
the shared variables and visits, through an inverted key index, only the
pairs of groups that share a key, so its work is proportional to those
pairs plus the rows.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from ..db.algebra import Row, SubstitutionSet, _row_getter
from ..db.database import Database
from ..decomposition.degree import vertex_relation
from ..decomposition.hypertree import Hypertree
from ..exceptions import SchemaError
from ..hypergraph.acyclicity import JoinTree
from ..query.query import ConjunctiveQuery
from ..query.terms import Variable

#: A #-relation: substitution sets (hashable, canonical) with counts.
SharpRelation = Dict[SubstitutionSet, int]


def initial_sharp_relation(relation: SubstitutionSet,
                           free: Iterable[Variable]) -> SharpRelation:
    """``R0_p``: partition by the free projection, each class with count 1."""
    groups = relation.group_by(frozenset(free))
    return {group: 1 for group in groups.values()}


def sharp_semijoin(left: SharpRelation, right: SharpRelation
                   ) -> SharpRelation:
    """``R ⋉ R'`` with count aggregation (the inner loop of Figure 13).

    Every group of a #-relation has the same schema, so the survivors of
    ``S ⋉ S'`` depend only on ``K(S') = pi_shared(S')``: right groups
    with equal key sets are summed into one weight, and a left group
    meets only the key sets that share one of its keys (found through an
    inverted index; every other pair survives nothing).  The survivors
    of ``S`` for one meet of keys are computed once, and ``S`` itself is
    returned when nothing is filtered out, keeping its caches.  Raises
    :class:`SchemaError` when the groups of one side differ in schema.
    """
    if not left or not right:
        return {}
    left_schema = _common_schema(left)
    right_schema = _common_schema(right)
    right_positions = {v: i for i, v in enumerate(right_schema)}
    shared = [v for v in left_schema if v in right_positions]
    right_key = _row_getter(tuple(right_positions[v] for v in shared))
    left_key = _row_getter(tuple(left_schema.index(v) for v in shared))

    # Right groups with the same key set filter every left group alike.
    weights: Dict[FrozenSet[Row], int] = {}
    for group, count in right.items():
        keys = frozenset(map(right_key, group.rows))
        weights[keys] = weights.get(keys, 0) + count
    key_set_weights = list(weights.values())
    containing: Dict[Row, List[int]] = {}  # key -> key sets holding it
    for index, keys in enumerate(weights):
        for key in keys:
            containing.setdefault(key, []).append(index)

    result: SharpRelation = {}
    for group, count in left.items():
        buckets: Dict[Row, List[Row]] = {}
        for row in group.rows:
            key = left_key(row)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row]
            else:
                bucket.append(row)
        meets: Dict[int, List[Row]] = {}
        for key in buckets:
            for index in containing.get(key, ()):
                meet = meets.get(index)
                if meet is None:
                    meets[index] = [key]
                else:
                    meet.append(key)
        # Keys are appended in bucket order, so equal meets are equal tuples.
        meet_weights: Dict[Tuple[Row, ...], int] = {}
        for index, meet in meets.items():
            meet = tuple(meet)
            weight = key_set_weights[index]
            meet_weights[meet] = meet_weights.get(meet, 0) + weight
        for meet, weight in meet_weights.items():
            if len(meet) == len(buckets):
                survivors = group
            else:
                survivors = SubstitutionSet(
                    left_schema,
                    frozenset(row for key in meet for row in buckets[key]),
                    _presorted=True,
                )
            result[survivors] = result.get(survivors, 0) + count * weight
    return result


def _common_schema(sharp: SharpRelation) -> Tuple[Variable, ...]:
    """The one schema all groups of a #-relation share."""
    schemas = {group.schema for group in sharp}
    if len(schemas) != 1:
        raise SchemaError(
            f"#-relation groups have differing schemas {list(schemas)}"
        )
    return schemas.pop()


def count_sharp_relations(relations: Sequence[SubstitutionSet],
                          tree: JoinTree,
                          free: Iterable[Variable]) -> int:
    """Run Figure 13 over per-vertex relations on a join-tree shape.

    *relations[i]* is the relation of vertex ``i``; *free* is the set of
    output variables the answers are counted over.  Works for any family
    whose join tree is valid for the relations' schemas.
    """
    free = frozenset(free)
    if not relations:
        return 0
    sharp: List[SharpRelation] = [
        initial_sharp_relation(relation, free) for relation in relations
    ]
    answer = 1
    for vertex, parent, children in tree.rooted_orders():
        current = sharp[vertex]
        for child in children:
            current = sharp_semijoin(current, sharp[child])
            if not current:
                return 0
        sharp[vertex] = current
        if parent is None:
            answer *= sum(current.values())
    return answer


def relations_for_hypertree(query: ConjunctiveQuery, database: Database,
                            hypertree: Hypertree) -> List[SubstitutionSet]:
    """Per-vertex relations ``r_p = pi_chi(p)(join of lambda(p))``."""
    return [
        vertex_relation(chi, lam, database)
        for chi, lam in zip(hypertree.chis, hypertree.lams)
    ]


def count_via_hypertree(query: ConjunctiveQuery, database: Database,
                        hypertree: Hypertree) -> int:
    """Theorem 6.2's counting procedure for a width-``k`` decomposition.

    The decomposition is completed first (every atom into some ``lambda``),
    exactly as in the theorem's proof; the join-tree shape then carries the
    Figure 13 dynamic program.
    """
    complete = hypertree.completed_for(query)
    relations = relations_for_hypertree(query, database, complete)
    return count_sharp_relations(
        relations, complete.join_tree(), query.free_variables
    )
