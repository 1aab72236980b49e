"""Property tests for the shape-keyed plan cache.

Three properties carry the whole design:

* the canonical fingerprint is **isomorphism-stable**: any bijective
  renaming of variables and relation symbols preserves it;
* structurally different queries get **different** fingerprints (no
  collisions on a diverse corpus — free-variable choice, constants,
  repeated symbols and repeated variables all count as shape);
* the cache is **safe under concurrent access**: a thread pool
  hammering one cache with interleaved shapes stays consistent.
"""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.counting.brute_force import count_brute_force
from repro.counting.engine import count_answers
from repro.counting.plan_cache import PlanCache
from repro.db import Database
from repro.query import parse_query
from repro.query.canonical import (
    canonical_form,
    query_fingerprint,
    random_renaming,
    rename_query,
)
from repro.workloads.random_instances import random_instance, random_query


class TestFingerprintStability:
    def test_variable_renaming_preserves_fingerprint(self):
        for seed in range(20):
            query = random_query(6, 5, seed=seed, n_symbols=3)
            fingerprint = query_fingerprint(query)
            for renaming_seed in range(3):
                renamed = random_renaming(query, seed=renaming_seed)
                assert query_fingerprint(renamed) == fingerprint

    def test_symbol_renaming_preserves_fingerprint(self):
        for seed in range(20):
            query = random_query(6, 5, seed=seed, n_symbols=3)
            fingerprint = query_fingerprint(query)
            for renaming_seed in range(3):
                renamed = random_renaming(query, seed=renaming_seed,
                                          rename_symbols=True)
                assert query_fingerprint(renamed) == fingerprint

    def test_symmetric_queries_are_stable(self):
        triangle = parse_query("ans(A) :- e(A, B), e(B, C), e(C, A)")
        fingerprint = query_fingerprint(triangle)
        for seed in range(10):
            renamed = random_renaming(triangle, seed=seed,
                                      rename_symbols=True)
            assert query_fingerprint(renamed) == fingerprint

    def test_canonical_form_is_a_true_renaming(self):
        """The canonical query must be the image of the original under the
        returned maps — same atom count, free arity, answer count."""
        query, database = random_instance(seed=11)
        form = canonical_form(query)
        assert len(form.query.atoms) == len(query.atoms)
        assert len(form.query.free_variables) == len(query.free_variables)
        image = rename_query(query, form.variable_map, form.symbol_map)
        assert image.atoms == form.query.atoms
        assert image.free_variables == form.query.free_variables


class TestFingerprintCollisions:
    def test_distinct_shapes_never_collide(self):
        shapes = [
            "ans(A) :- r(A, B)",
            "ans(A, B) :- r(A, B)",          # free set matters
            "ans() :- r(A, B)",
            "ans(A) :- r(B, A)",              # free position matters
            "ans(A) :- r(A, A)",              # repeated variable
            "ans(A) :- r(A, B), s(B, C)",
            "ans(A) :- r(A, B), r(B, C)",     # repeated symbol
            "ans(A) :- e(A, B), e(B, C), e(C, A)",
            "ans(A) :- e(A, B), e(B, C), e(C, D), e(D, A)",
            "ans(A) :- r(A, B), s(B, 3)",     # constants count
            "ans(A) :- r(A, B), s(B, 4)",
            "ans(A) :- r(A, B), s(B, 'x')",
            "ans(A, C) :- r(A, B), s(B, C), t(B, D)",
        ]
        fingerprints = [query_fingerprint(parse_query(s)) for s in shapes]
        assert len(set(fingerprints)) == len(fingerprints)

    def test_random_corpus_collisions_only_for_isomorphic_pairs(self):
        """On random queries, equal fingerprints must mean the canonical
        queries are literally identical (the definition of same shape)."""
        by_fingerprint = {}
        for seed in range(40):
            query = random_query(5, 4, seed=seed, n_symbols=3)
            form = canonical_form(query)
            previous = by_fingerprint.setdefault(form.fingerprint,
                                                 form.query)
            assert previous.atoms == form.query.atoms
            assert previous.free_variables == form.query.free_variables


class TestPlanCacheBehavior:
    def _renamed_pair(self, query, database, seed):
        """A consistently renamed (query, database) pair: same shape,
        different variable and symbol names."""
        symbols = sorted(query.relation_symbols)
        symbol_map = {s: f"ren{seed}_{s}" for s in symbols}
        renamed_query = random_renaming(query, seed=seed)
        renamed_query = rename_query(renamed_query, symbol_map=symbol_map)
        renamed_db = Database(
            database[s].renamed(symbol_map[s]) for s in symbols
        )
        return renamed_query, renamed_db

    def test_renamed_shape_hits_the_cache(self):
        query, database = random_instance(seed=5)
        cache = PlanCache()
        baseline = count_answers(query, database, plan_cache=cache)
        cold = cache.stats()
        assert cold["misses"] > 0 and cold["hits"] == 0
        for seed in range(3):
            renamed_query, renamed_db = self._renamed_pair(
                query, database, seed
            )
            result = count_answers(renamed_query, renamed_db,
                                   plan_cache=cache)
            assert result.count == baseline.count
            assert result.strategy == baseline.strategy
        warm = cache.stats()
        assert warm["hits"] > 0
        # No new plans were computed for the renamed copies.
        assert warm["misses"] == cold["misses"]

    def test_different_shapes_do_not_share_plans(self):
        cache = PlanCache()
        path = parse_query("ans(A, C) :- r(A, B), s(B, C)")
        triangle = parse_query("ans(A) :- e(A, B), e(B, C), e(C, A)")
        db_path = Database.from_dict({"r": [(1, 2)], "s": [(2, 3)]})
        db_triangle = Database.from_dict({
            "e": [(1, 2), (2, 3), (3, 1)],
        })
        count_answers(path, db_path, plan_cache=cache)
        misses_after_first = cache.stats()["misses"]
        count_answers(triangle, db_triangle, plan_cache=cache)
        assert cache.stats()["misses"] > misses_after_first

    def test_cache_capacity_is_bounded(self):
        cache = PlanCache(plan_capacity=4, canonical_capacity=4)
        for length in range(2, 9):
            atoms = ", ".join(
                f"r{i}(V{i}, V{i + 1})" for i in range(length)
            )
            query = parse_query(f"ans(V0) :- {atoms}")
            database = Database.from_dict({
                f"r{i}": [(1, 1)] for i in range(length)
            })
            count_answers(query, database, plan_cache=cache)
        stats = cache.stats()
        assert stats["plans"] <= 4
        assert stats["canonical_forms"] <= 4

    def test_concurrent_hammering_is_safe(self):
        """Many threads, few shapes, one cache: every result must equal
        the sequential answer and the cache must stay consistent."""
        rng = random.Random(99)
        instances = [
            random_instance(n_variables=4, n_atoms=3, domain_size=4,
                            tuples_per_relation=10, seed=seed)
            for seed in range(4)
        ]
        expected = [count_brute_force(q, d) for q, d in instances]
        cache = PlanCache()

        tasks = []
        for _ in range(60):
            index = rng.randrange(len(instances))
            query, database = instances[index]
            variant = random_renaming(query, seed=rng.randrange(2 ** 30))
            tasks.append((index, variant, database))

        def work(task):
            index, query, database = task
            return index, count_answers(query, database,
                                        plan_cache=cache).count

        with ThreadPoolExecutor(max_workers=8) as pool:
            for index, count in pool.map(work, tasks):
                assert count == expected[index]
        stats = cache.stats()
        assert stats["hits"] > 0
        assert stats["plans"] >= 1


class TestAutomorphismOrbitPruning:
    """Target-cell members in one automorphism orbit are pruned:
    symmetric queries search a handful of leaves, and the pruned search
    still lands on renaming-stable fingerprints."""

    @staticmethod
    def _symmetric_star(k):
        return parse_query(
            "ans(A, " + ", ".join(f"B{i}" for i in range(k)) + ") :- "
            + ", ".join(f"r(A, B{i})" for i in range(k))
        )

    def test_symmetric_star_stays_under_the_branch_budget(self):
        # The labeller has no branch budget any more; the bound is
        # explicit.  6 interchangeable branches have 6! = 720 consistent
        # orderings; orbit pruning searches at most 2k leaves.
        k = 6
        query = self._symmetric_star(k)
        form = canonical_form(query)
        stats = form.search_stats
        assert stats["explored"] <= 2 * k
        assert stats["pruned"] > 0
        assert stats["automorphisms"] > 0
        for seed in range(6):
            variant = random_renaming(query, seed=seed, rename_symbols=True)
            assert query_fingerprint(variant) == form.fingerprint

    def test_interchangeable_atom_pairs_prune_too(self):
        query = parse_query(
            "ans(A, B, C, D, E) :- e(A, B), e(B, C), e(C, D), e(D, E)"
        )
        form = canonical_form(query)
        assert form.search_stats["explored"] >= 1
        for seed in range(4):
            assert query_fingerprint(
                random_renaming(query, seed=seed)
            ) == form.fingerprint

    def test_asymmetric_queries_explore_one_ordering(self):
        stats = canonical_form(
            parse_query("ans(A, C) :- r(A, B), s(B, C)")
        ).search_stats
        assert stats["explored"] == 1
        assert stats["pruned"] == 0

    def test_search_stats_belong_to_each_form(self):
        # Concurrent canonicalizations cannot overwrite each other's
        # diagnostics: each form carries its own search's counts.
        queries = [self._symmetric_star(6),
                   parse_query("ans(A, C) :- r(A, B), s(B, C)")]
        expected = [dict(canonical_form(q).search_stats) for q in queries]
        assert expected[0]["explored"] > 1
        assert expected[1]["explored"] == 1
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                forms = list(pool.map(
                    lambda i: (i % 2, canonical_form(queries[i % 2])),
                    range(200), timeout=60,
                ))
        finally:
            sys.setswitchinterval(interval)
        for which, form in forms:
            assert form.search_stats == expected[which]

    def test_plan_cache_sums_search_stats_over_misses(self):
        cache = PlanCache()
        query = self._symmetric_star(6)
        expected = canonical_form(query).search_stats
        cache.canonical(query)
        cache.canonical(query)  # a memo hit searches nothing
        stats = cache.stats()
        assert stats["canonical_leaves"] == expected["explored"]
        assert stats["canonical_pruned"] == expected["pruned"]

    def test_pruned_fingerprints_still_separate_shapes(self):
        # Stars of different fan-out must not collide after pruning.
        fingerprints = {
            query_fingerprint(self._symmetric_star(k)) for k in range(2, 7)
        }
        assert len(fingerprints) == 5
