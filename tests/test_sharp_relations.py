"""Unit tests for the Figure 13 #-relation algorithm (Theorem 6.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting.brute_force import count_brute_force
from repro.counting.sharp_relations import (
    count_sharp_relations,
    count_via_hypertree,
    initial_sharp_relation,
    sharp_semijoin,
)
from repro.db import Database
from repro.db.algebra import SubstitutionSet
from repro.db.generators import correlated_database
from repro.decomposition.ghd import find_ghd_join_tree
from repro.decomposition.hypertree import hypertree_from_join_tree
from repro.exceptions import SchemaError
from repro.hypergraph.acyclicity import JoinTree
from repro.query import Variable, parse_query
from repro.workloads import d2_database, q2_acyclic, random_instance

A, B, C = Variable("A"), Variable("B"), Variable("C")
VARIABLES = tuple(Variable(name) for name in "ABCD")


def figure13_semijoin(left, right):
    """The literal Figure 13 double loop: one semijoin per pair of groups."""
    result = {}
    for left_set, left_count in left.items():
        for right_set, right_count in right.items():
            survivors = left_set.semijoin(right_set)
            if survivors:
                weight = left_count * right_count
                result[survivors] = result.get(survivors, 0) + weight
    return result


def sharp_relations(schema):
    """#-relations over *schema*: small groups on a tiny domain, so key
    sets repeat, with counts above 1 and possibly no groups at all."""
    schema = tuple(sorted(schema, key=lambda v: v.name))
    rows = st.tuples(*[st.integers(0, 2)] * len(schema))
    groups = st.frozensets(rows, max_size=5).map(
        lambda group_rows: SubstitutionSet(schema, group_rows)
    )
    return st.dictionaries(groups, st.integers(1, 6), max_size=6)


@st.composite
def sharp_relation_pairs(draw):
    """Two #-relations whose schemas may share variables or be disjoint."""
    schemas = st.sets(st.sampled_from(VARIABLES), min_size=1)
    return (draw(sharp_relations(draw(schemas))),
            draw(sharp_relations(draw(schemas))))


class TestSharpRelationPrimitives:
    def test_initialization_partitions_by_free_projection(self):
        relation = SubstitutionSet((A, B), [(1, 2), (1, 3), (2, 2)])
        sharp = initial_sharp_relation(relation, {A})
        assert len(sharp) == 2  # groups A=1 and A=2
        assert all(count == 1 for count in sharp.values())

    def test_initialization_without_free_vars_single_group(self):
        relation = SubstitutionSet((A, B), [(1, 2), (1, 3)])
        sharp = initial_sharp_relation(relation, set())
        assert len(sharp) == 1

    def test_semijoin_aggregates_counts(self):
        left = initial_sharp_relation(
            SubstitutionSet((A, B), [(1, 2)]), {A}
        )
        # Two child groups with different free values, both compatible.
        right = {
            SubstitutionSet((B, C), [(2, 5)]): 1,
            SubstitutionSet((B, C), [(2, 6)]): 1,
        }
        result = sharp_semijoin(left, right)
        (count,) = result.values()
        assert count == 2

    def test_semijoin_drops_empty_survivors(self):
        left = initial_sharp_relation(SubstitutionSet((A, B), [(1, 2)]), {A})
        right = {SubstitutionSet((B, C), [(9, 9)]): 1}
        assert sharp_semijoin(left, right) == {}

    def test_semijoin_rejects_mixed_schemas(self):
        left = {
            SubstitutionSet((A, B), [(1, 2)]): 1,
            SubstitutionSet((A, C), [(1, 2)]): 1,
        }
        right = {SubstitutionSet((A,), [(1,)]): 1}
        with pytest.raises(SchemaError):
            sharp_semijoin(left, right)


class TestSharpSemijoinMatchesFigure13:
    @settings(max_examples=300, deadline=None)
    @given(sharp_relation_pairs())
    def test_equals_pairwise_double_loop(self, pair):
        left, right = pair
        assert sharp_semijoin(left, right) == figure13_semijoin(left, right)

    @settings(max_examples=100, deadline=None)
    @given(sharp_relation_pairs())
    def test_unfiltered_survivor_is_the_left_group(self, pair):
        left, right = pair
        for group, count in left.items():
            for survivors in sharp_semijoin({group: count}, right):
                if survivors == group:
                    assert survivors is group


class TestCountSharpRelations:
    def test_single_vertex(self):
        relation = SubstitutionSet((A, B), [(1, 2), (1, 3), (2, 2)])
        tree = JoinTree((frozenset({A, B}),), ())
        assert count_sharp_relations([relation], tree, {A}) == 2
        assert count_sharp_relations([relation], tree, {A, B}) == 3
        assert count_sharp_relations([relation], tree, set()) == 1

    def test_matches_projection_semantics_on_path(self, path_query,
                                                  path_database):
        bags = [
            SubstitutionSet.from_atom(atom, path_database[atom.relation])
            for atom in path_query.atoms_sorted()
        ]
        schemas = [bag.variable_set() for bag in bags]
        tree = JoinTree(tuple(frozenset(s) for s in schemas), ((0, 1),))
        count = count_sharp_relations(bags, tree, path_query.free_variables)
        assert count == count_brute_force(path_query, path_database)

    def test_empty_relation_gives_zero(self):
        bags = [SubstitutionSet.empty((A,))]
        tree = JoinTree((frozenset({A}),), ())
        assert count_sharp_relations(bags, tree, {A}) == 0


class TestCountViaHypertree:
    def _ghd(self, query, width):
        tree = find_ghd_join_tree(query.hypergraph(), width)
        return hypertree_from_join_tree(tree, query, max_cover=width)

    def test_q2_on_d2(self):
        """Example C.1/C.2: m answers on the counter database."""
        for h in (1, 2, 3):
            query, database = q2_acyclic(h), d2_database(h)
            decomposition = self._ghd(query, 1)
            assert count_via_hypertree(query, database, decomposition) == 2 ** h

    def test_projected_path(self):
        query = parse_query("ans(A) :- r(A, B), s(B, C)")
        database = Database.from_dict({
            "r": [(1, 2), (1, 3), (4, 9)],
            "s": [(2, 5), (3, 6)],
        })
        decomposition = self._ghd(query, 1)
        assert count_via_hypertree(query, database, decomposition) == \
            count_brute_force(query, database)

    def test_cyclic_width_2(self):
        query = parse_query("ans(A) :- r(A, B), s(B, C), t(C, A)")
        database = correlated_database(query, 5, 15, seed=2)
        decomposition = self._ghd(query, 2)
        assert count_via_hypertree(query, database, decomposition) == \
            count_brute_force(query, database)

    def test_random_instances_match_brute_force(self):
        checked = 0
        for seed in range(20):
            query, database = random_instance(seed=seed + 100)
            tree = find_ghd_join_tree(query.hypergraph(), 2)
            if tree is None:
                continue
            decomposition = hypertree_from_join_tree(tree, query, max_cover=2)
            assert count_via_hypertree(query, database, decomposition) == \
                count_brute_force(query, database), f"seed={seed + 100}"
            checked += 1
        assert checked >= 10
