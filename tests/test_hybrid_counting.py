"""Unit tests for hybrid counting (Theorems 6.6 and 6.7)."""

import pytest

from repro.counting.brute_force import count_brute_force
from repro.counting.hybrid import count_hybrid, count_with_hybrid_decomposition
from repro.db import Database
from repro.db.generators import functional_database
from repro.decomposition.hybrid import evaluate_pseudo_free
from repro.exceptions import DecompositionNotFoundError
from repro.query import parse_query
from repro.workloads import (
    d2_bar_database,
    q2_bar,
    q2_pseudo_free,
    random_instance,
)
from repro.workloads.graph_patterns import EDGE, gnp_graph


class TestExample63Counting:
    def test_counts_match_brute_force(self):
        """The headline hybrid result: barQ^h_2 on barD^m_2 counted via the
        width-2 #1-GHD of Example 6.5."""
        for h in (1, 2):
            query, database = q2_bar(h), d2_bar_database(h)
            hybrid = evaluate_pseudo_free(query, database, 2,
                                          q2_pseudo_free(h))
            got = count_with_hybrid_decomposition(query, database, hybrid)
            assert got == count_brute_force(query, database) == 2 ** h

    def test_end_to_end_search_and_count(self):
        query, database = q2_bar(2), d2_bar_database(2)
        assert count_hybrid(query, database, width=2) == 4

    def test_given_decomposition_reused(self):
        query, database = q2_bar(1), d2_bar_database(1)
        hybrid = evaluate_pseudo_free(query, database, 2, q2_pseudo_free(1))
        assert count_hybrid(query, database, width=2, hybrid=hybrid) == 2


class TestHybridOnGeneralInstances:
    def test_functional_dependency_regime(self):
        """Keys make every existential variable degree-1: the hybrid method
        applies and is exact (the Example 1.5 scenario)."""
        query = parse_query("ans(A, C) :- r(A, B), s(B, C), t(C, D)")
        database = functional_database(query, 8, 20, key_width=1,
                                       degree=1, seed=4)
        assert count_hybrid(query, database, width=2) == \
            count_brute_force(query, database)

    def test_random_instances_match_brute_force(self):
        checked = 0
        for seed in range(14):
            query, database = random_instance(
                n_variables=5, n_atoms=4, seed=seed + 300,
            )
            try:
                got = count_hybrid(query, database, width=2)
            except DecompositionNotFoundError:
                continue
            assert got == count_brute_force(query, database), f"seed={seed+300}"
            checked += 1
        assert checked >= 7

    def test_existential_centre_star_matches_brute_force(self):
        """The 4-star with an existential centre and free leaves: the
        shape the engine answers by the hybrid method."""
        query = parse_query(
            "ans(B, C, D, E) :- r(A, B), s(A, C), t(A, D), u(A, E)"
        )
        for seed in range(6):
            database = Database.from_dict({
                name: gnp_graph(10, 0.3, seed=4 * seed + offset)[EDGE].rows
                for offset, name in enumerate("rstu")
            })
            assert count_hybrid(query, database, width=1) == \
                count_brute_force(query, database), f"seed={seed}"

    def test_unsatisfiable_counts_zero(self):
        query = parse_query("ans(A) :- r(A, B), s(B, C)")
        database = Database.from_dict({"r": [(1, 2)], "s": [(3, 4)]})
        assert count_hybrid(query, database, width=2) == 0

    def test_raises_when_budget_too_small(self):
        query, database = q2_bar(1), d2_bar_database(1)
        with pytest.raises(DecompositionNotFoundError):
            count_hybrid(query, database, width=1, max_degree=0.5)
