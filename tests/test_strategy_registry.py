"""Tests for the engine's strategy registry, cost ranking, and indexes.

Covers the forced-method error paths, the cost-ranked ``"auto"``
selection (including the case where brute force legitimately beats the
decomposition search on a tiny database), custom strategy registration,
and the index-cache invariants of the relational kernel.
"""

import random

import pytest

from repro.counting.brute_force import count_brute_force
from repro.counting.engine import (
    STRATEGIES,
    StrategyContext,
    count_answers,
    register_strategy,
    registered_strategies,
    unregister_strategy,
)
from repro.db import Database
from repro.db.algebra import SubstitutionSet
from repro.exceptions import DecompositionNotFoundError, NotAcyclicError
from repro.query import parse_query
from repro.query.terms import make_variables
from repro.workloads import q2_acyclic, d2_database


class TestForcedMethods:
    def test_unknown_method_rejected(self):
        q = parse_query("ans(A) :- r(A, B)")
        db = Database.from_dict({"r": [(1, 2)]})
        with pytest.raises(ValueError):
            count_answers(q, db, method="no_such_strategy")

    def test_acyclic_rejects_quantified_query(self):
        q = parse_query("ans(A) :- r(A, B)")
        db = Database.from_dict({"r": [(1, 2)]})
        with pytest.raises(NotAcyclicError):
            count_answers(q, db, method="acyclic")

    def test_structural_rejects_insufficient_width(self):
        with pytest.raises(DecompositionNotFoundError):
            count_answers(q2_acyclic(3), d2_database(3),
                          method="structural", max_width=2)

    def test_degree_rejects_insufficient_width(self):
        # A 4-clique query has generalized hypertree width 2 > 1.
        q = parse_query(
            "ans(A) :- e(A, B), e(B, C), e(C, D), e(A, C), e(A, D), e(B, D)"
        )
        db = Database.from_dict({"e": [(1, 2)]})
        with pytest.raises(DecompositionNotFoundError):
            count_answers(q, db, method="degree", max_width=1)

    def test_forced_methods_agree_with_brute_force(self):
        q = parse_query("ans(A) :- r(A, B), s(B, C)")
        db = Database.from_dict({
            "r": [(1, 2), (1, 3), (4, 2)],
            "s": [(2, 5), (3, 6)],
        })
        expected = count_brute_force(q, db)
        for method in ("structural", "hybrid", "degree", "brute_force"):
            assert count_answers(q, db, method=method).count == expected


class TestCostRankedAuto:
    def test_brute_force_wins_on_tiny_database(self):
        """On a 6-tuple cyclic instance, the estimated join product is far
        below the decomposition-search overhead, so ``auto`` picks brute
        force without probing any decomposition."""
        q = parse_query("ans(A, B, C) :- r(A, B), s(B, C), t(C, A)")
        db = Database.from_dict({
            "r": [(1, 2), (3, 4)],
            "s": [(2, 5), (4, 6)],
            "t": [(5, 1), (6, 7)],
        })
        result = count_answers(q, db)
        # The compiled tier's estimate ignores the (once-per-shape,
        # cached) lowering search, so it outranks brute force even here.
        assert result.strategy == "compiled"
        assert result.count == count_brute_force(q, db)
        trail = result.details["decision_trail"]
        by_name = {entry["strategy"]: entry for entry in trail}
        chosen = by_name["compiled"]
        assert chosen["chosen"]
        # Structural was estimated as more expensive and therefore ranked
        # (and probed, if at all) after the winner.
        assert by_name["structural"]["estimated_cost"] > \
            chosen["estimated_cost"]
        assert not by_name["structural"]["probed"]

    def test_structural_wins_when_join_product_explodes(self):
        from repro.workloads import q0, workforce_database

        db = workforce_database(seed=5)
        result = count_answers(q0(), db)
        assert result.strategy == "compiled"
        trail = result.details["decision_trail"]
        by_name = {entry["strategy"]: entry for entry in trail}
        assert by_name["brute_force"]["estimated_cost"] > \
            by_name["structural"]["estimated_cost"]
        assert not by_name["brute_force"]["probed"]

    def test_trail_records_estimated_and_actual_cost(self):
        q = parse_query("ans(A, B) :- r(A, B)")
        db = Database.from_dict({"r": [(1, 2), (3, 4)]})
        result = count_answers(q, db)
        assert result.strategy == "compiled"
        assert result.details["estimated_cost"] >= 0
        assert result.details["actual_seconds"] >= 0
        assert any(entry["chosen"] for entry in
                   result.details["decision_trail"])

    def test_explain_renders_trail(self):
        q = parse_query("ans(A, B) :- r(A, B)")
        db = Database.from_dict({"r": [(1, 2), (3, 4)]})
        result = count_answers(q, db)
        text = result.explain()
        assert "decision trail" in text
        assert "acyclic" in text
        assert "chosen" in text


class TestCustomStrategies:
    def test_register_and_force_custom_strategy(self):
        def applicability(ctx):
            return "witness"

        def cost(ctx):
            return 0.0

        def runner(ctx, witness):
            return 42, {"note": witness}

        register_strategy("always_42", applicability, cost, runner)
        try:
            assert "always_42" in registered_strategies()
            q = parse_query("ans(A) :- r(A, B)")
            db = Database.from_dict({"r": [(1, 2)]})
            result = count_answers(q, db, method="always_42")
            assert result.count == 42
            assert result.details["note"] == "witness"
            # Cost 0 outranks every built-in in auto mode too.
            assert count_answers(q, db).strategy == "always_42"
        finally:
            unregister_strategy("always_42")
        assert "always_42" not in registered_strategies()

    def test_inapplicable_custom_strategy_raises_when_forced(self):
        register_strategy(
            "never", lambda ctx: None, lambda ctx: 0.0,
            lambda ctx, witness: (0, {}),
        )
        try:
            q = parse_query("ans(A) :- r(A, B)")
            db = Database.from_dict({"r": [(1, 2)]})
            with pytest.raises(DecompositionNotFoundError):
                count_answers(q, db, method="never")
        finally:
            unregister_strategy("never")

    def test_builtin_strategy_constant(self):
        assert STRATEGIES == (
            "compiled", "acyclic", "structural", "hybrid", "degree",
            "brute_force", "approx",
        )
        assert tuple(registered_strategies()[:7]) == STRATEGIES

    def test_context_statistics(self):
        q = parse_query("ans(A) :- r(A, B), s(B, C)")
        db = Database.from_dict({
            "r": [(1, 2), (3, 4), (5, 6)],
            "s": [(2, 5)],
        })
        ctx = StrategyContext(q, db)
        assert ctx.total_rows == 4
        assert ctx.max_rows == 3
        assert ctx.join_product() == 3.0
        assert ctx.pair_product() == 3.0


class TestIndexCacheInvariants:
    """index_on must agree with a linear scan on randomized inputs."""

    def test_index_on_matches_linear_scan_randomized(self):
        rng = random.Random(20260730)
        names = make_variables("A", "B", "C", "D")
        for trial in range(25):
            arity = rng.randint(1, 4)
            schema = names[:arity]
            rows = {
                tuple(rng.randint(0, 4) for _ in range(arity))
                for _ in range(rng.randint(0, 40))
            }
            subset_size = rng.randint(0, arity)
            subset = rng.sample(schema, subset_size)
            relation = SubstitutionSet(schema, rows)
            index = relation.index_on(subset)
            # Reference: linear scan grouping.
            wanted = sorted(set(subset), key=lambda v: v.name)
            positions = [relation.schema.index(v) for v in wanted]
            expected = {}
            for row in relation.rows:
                key = tuple(row[i] for i in positions)
                expected.setdefault(key, set()).add(row)
            assert {k: set(v) for k, v in index.items()} == expected
            # Index rows partition the relation.
            assert sum(len(v) for v in index.values()) == len(relation)
            # projection_keys is exactly the index key set and the
            # projection's row set.
            assert relation.projection_keys(subset) == frozenset(index)
            assert relation.project(subset).rows == frozenset(index)

    def test_index_cached_and_stable(self):
        A, B = make_variables("A", "B")
        relation = SubstitutionSet((A, B), [(1, 2), (1, 3), (2, 2)])
        first = relation.index_on([A])
        second = relation.index_on([A])
        assert first is second  # cached, not rebuilt
        assert first[(1,)] == ((1, 2), (1, 3)) or \
            set(first[(1,)]) == {(1, 2), (1, 3)}

    def test_semijoin_identity_preserves_instance(self):
        A, B, C = make_variables("A", "B", "C")
        left = SubstitutionSet((A, B), [(1, 2), (3, 4)])
        right = SubstitutionSet((B, C), [(2, 9), (4, 8)])
        assert left.semijoin(right) is left  # nothing filtered: same object
        smaller = SubstitutionSet((B, C), [(2, 9)])
        reduced = left.semijoin(smaller)
        assert reduced.rows == frozenset({(1, 2)})

    def test_semijoin_all_matches_folded_semijoin(self):
        rng = random.Random(7)
        A, B, C = make_variables("A", "B", "C")
        for _ in range(20):
            base = SubstitutionSet(
                (A, B, C),
                {(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
                 for _ in range(rng.randint(0, 20))},
            )
            others = [
                SubstitutionSet(
                    (A, B),
                    {(rng.randint(0, 3), rng.randint(0, 3))
                     for _ in range(rng.randint(0, 8))},
                ),
                SubstitutionSet(
                    (C,),
                    {(rng.randint(0, 3),) for _ in range(rng.randint(0, 4))},
                ),
            ]
            folded = base
            for other in others:
                folded = folded.semijoin(other)
            assert base.semijoin_all(others) == folded
