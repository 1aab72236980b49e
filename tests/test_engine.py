"""Unit tests for the auto-selecting counting engine."""

import pytest

from repro.counting.brute_force import count_brute_force
from repro.counting.engine import STRATEGIES, count_answers
from repro.db import Database
from repro.exceptions import DecompositionNotFoundError, NotAcyclicError
from repro.query import parse_query
from repro.workloads import (
    d2_bar_database,
    q0,
    q2_bar,
    workforce_database,
)


class TestStrategySelection:
    def test_acyclic_strategy_for_quantifier_free(self):
        q = parse_query("ans(A, B) :- r(A, B)")
        db = Database.from_dict({"r": [(1, 2), (3, 4)]})
        result = count_answers(q, db)
        # The compiled tier executes the same join-tree plan.
        assert result.strategy == "compiled"
        assert result.count == 2

    def test_structural_strategy_for_q0(self):
        db = workforce_database(seed=2)
        result = count_answers(q0(), db)
        assert result.strategy == "compiled"
        assert result.details["width"] == 2
        assert result.count == count_brute_force(q0(), db)

    def test_hybrid_strategy_for_q2_bar(self):
        # max_width=2: at width 3 the h=2 instance is still structurally
        # coverable (unbounded #-ghw is an asymptotic statement in h).
        query, db = q2_bar(2), d2_bar_database(2)
        result = count_answers(query, db, max_width=2)
        assert result.strategy == "hybrid"
        assert result.details["degree"] == 1
        assert result.count == 4

    def test_int_conversion(self):
        q = parse_query("ans(A) :- r(A, B)")
        db = Database.from_dict({"r": [(1, 2)]})
        assert int(count_answers(q, db)) == 1


class TestForcedStrategies:
    def test_each_applicable_strategy_agrees(self):
        q = parse_query("ans(A) :- r(A, B), s(B, C)")
        db = Database.from_dict({
            "r": [(1, 2), (1, 3), (4, 2)],
            "s": [(2, 5), (3, 6)],
        })
        expected = count_brute_force(q, db)
        for method in ("structural", "hybrid", "degree", "brute_force"):
            assert count_answers(q, db, method=method).count == expected

    def test_acyclic_method_rejects_projected_query(self):
        q = parse_query("ans(A) :- r(A, B)")
        db = Database.from_dict({"r": [(1, 2)]})
        with pytest.raises(NotAcyclicError):
            count_answers(q, db, method="acyclic")

    def test_structural_method_rejects_wide_query(self):
        from repro.workloads import q2_acyclic, d2_database

        with pytest.raises(DecompositionNotFoundError):
            count_answers(q2_acyclic(3), d2_database(3),
                          method="structural", max_width=2)

    def test_unknown_method_rejected(self):
        q = parse_query("ans(A) :- r(A, B)")
        db = Database.from_dict({"r": [(1, 2)]})
        with pytest.raises(ValueError):
            count_answers(q, db, method="magic")

    def test_strategies_constant_complete(self):
        assert STRATEGIES == (
            "compiled", "acyclic", "structural", "hybrid", "degree",
            "brute_force", "approx",
        )
