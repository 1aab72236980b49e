"""Tests for counting under updates (:mod:`repro.dynamic`)."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.counting.acyclic import count_acyclic
from repro.db import Database
from repro.dynamic import Delete, IncrementalCounter, Insert, apply_update
from repro.exceptions import DatabaseError, NotAcyclicError
from repro.query import parse_query


class TestApplyUpdate:
    def test_insert_adds_row(self):
        database = Database.from_dict({"r": [(1, 2)]})
        updated = apply_update(database, Insert("r", (3, 4)))
        assert (3, 4) in updated["r"]
        assert (3, 4) not in database["r"]  # original untouched

    def test_delete_removes_row(self):
        database = Database.from_dict({"r": [(1, 2), (3, 4)]})
        updated = apply_update(database, Delete("r", (1, 2)))
        assert (1, 2) not in updated["r"]

    def test_duplicate_insert_rejected(self):
        database = Database.from_dict({"r": [(1, 2)]})
        with pytest.raises(DatabaseError):
            apply_update(database, Insert("r", (1, 2)))

    def test_missing_delete_rejected(self):
        database = Database.from_dict({"r": [(1, 2)]})
        with pytest.raises(DatabaseError):
            apply_update(database, Delete("r", (9, 9)))

    def test_arity_mismatch_rejected(self):
        database = Database.from_dict({"r": [(1, 2)]})
        with pytest.raises(DatabaseError):
            apply_update(database, Insert("r", (1, 2, 3)))

    def test_unknown_relation_rejected(self):
        database = Database.from_dict({"r": [(1, 2)]})
        with pytest.raises(DatabaseError):
            apply_update(database, Insert("zzz", (1,)))


class TestIncrementalCounter:
    QUERY = parse_query("ans(A, B, C) :- r(A, B), s(B, C)")

    def database(self):
        return Database.from_dict({
            "r": [(1, 10), (2, 10), (3, 11)],
            "s": [(10, 5), (11, 5), (11, 6)],
        })

    def test_initial_count(self):
        counter = IncrementalCounter(self.QUERY, self.database())
        assert counter.count == count_acyclic(self.QUERY, self.database())

    def test_insert_updates_count(self):
        database = self.database()
        counter = IncrementalCounter(self.QUERY, database)
        update = Insert("s", (10, 7))
        counter.apply(update)
        assert counter.count == count_acyclic(
            self.QUERY, apply_update(database, update)
        )

    def test_delete_updates_count(self):
        database = self.database()
        counter = IncrementalCounter(self.QUERY, database)
        update = Delete("r", (1, 10))
        counter.apply(update)
        assert counter.count == count_acyclic(
            self.QUERY, apply_update(database, update)
        )

    def test_irrelevant_insert_no_change(self):
        # A row that matches no join partner leaves the count unchanged.
        database = self.database()
        counter = IncrementalCounter(self.QUERY, database)
        before = counter.count
        counter.apply(Insert("r", (9, 99)))
        assert counter.count == before

    def test_quantified_query_rejected(self):
        query = parse_query("ans(A) :- r(A, B), s(B, C)")
        with pytest.raises(NotAcyclicError):
            IncrementalCounter(query, self.database())

    def test_count_to_zero_and_back(self):
        database = Database.from_dict({"r": [(1, 10)], "s": [(10, 5)]})
        counter = IncrementalCounter(self.QUERY, database)
        assert counter.count == 1
        counter.apply(Delete("s", (10, 5)))
        assert counter.count == 0
        counter.apply(Insert("s", (10, 6)))
        assert counter.count == 1

    def test_shared_bag_atoms(self):
        # Two atoms over the same variable set share one bag.
        query = parse_query("ans(A, B) :- r(A, B), s(A, B)")
        database = Database.from_dict({
            "r": [(1, 2), (3, 4)], "s": [(1, 2), (5, 6)],
        })
        counter = IncrementalCounter(query, database)
        assert counter.count == 1
        counter.apply(Insert("s", (3, 4)))
        assert counter.count == 2

    def test_repeated_relation_symbol(self):
        query = parse_query("ans(A, B, C) :- e(A, B), e(B, C)")
        database = Database.from_dict({"e": [(1, 2), (2, 3)]})
        counter = IncrementalCounter(query, database)
        assert counter.count == 1  # 1 -> 2 -> 3
        counter.apply(Insert("e", (3, 4)))
        updated = apply_update(
            Database.from_dict({"e": [(1, 2), (2, 3)]}),
            Insert("e", (3, 4)),
        )
        assert counter.count == count_acyclic(query, updated)

    def test_constant_pattern_atom(self):
        query = parse_query("ans(A) :- r(A, 'blue')")
        database = Database.from_dict({
            "r": [(1, "blue"), (2, "red")],
        })
        counter = IncrementalCounter(query, database)
        assert counter.count == 1
        counter.apply(Insert("r", (3, "blue")))
        assert counter.count == 2
        counter.apply(Insert("r", (4, "green")))  # pattern mismatch
        assert counter.count == 2

    def test_repeated_variable_atom(self):
        query = parse_query("ans(A) :- loop(A, A)")
        database = Database.from_dict({"loop": [(1, 1), (1, 2)]})
        counter = IncrementalCounter(query, database)
        assert counter.count == 1
        counter.apply(Insert("loop", (2, 2)))
        assert counter.count == 2

    def test_apply_many(self):
        database = self.database()
        counter = IncrementalCounter(self.QUERY, database)
        updates = [Insert("s", (10, 7)), Delete("r", (3, 11))]
        counter.apply_many(updates)
        for update in updates:
            database = apply_update(database, update)
        assert counter.count == count_acyclic(self.QUERY, database)

    def test_disconnected_query_components_multiply(self):
        query = parse_query("ans(A, B) :- r(A), s(B)")
        database = Database.from_dict({"r": [(1,), (2,)], "s": [(5,)]})
        counter = IncrementalCounter(query, database)
        assert counter.count == 2
        counter.apply(Insert("s", (6,)))
        assert counter.count == 4


class TestRandomizedUpdateStreams:
    # Seed 162 fills a relation (all 16 rows over the 4-value domain),
    # so the stream must delete there: no absent row is left to insert.
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @example(seed=162)
    @settings(max_examples=10, deadline=None)
    def test_stream_matches_recount(self, seed):
        rng = random.Random(seed)
        query = parse_query("ans(A, B, C) :- r(A, B), s(B, C)")
        database = Database.from_dict({
            "r": [(rng.randrange(4), rng.randrange(4)) for _ in range(6)],
            "s": [(rng.randrange(4), rng.randrange(4)) for _ in range(6)],
        })
        counter = IncrementalCounter(query, database)
        for _ in range(30):
            relation = rng.choice(["r", "s"])
            existing = sorted(set(database[relation].rows), key=repr)
            full = len(existing) == 4 * 4
            if existing and (full or rng.random() < 0.5):
                update = Delete(relation, rng.choice(existing))
            else:
                while True:
                    row = (rng.randrange(4), rng.randrange(4))
                    if row not in set(database[relation].rows):
                        break
                update = Insert(relation, row)
            database = apply_update(database, update)
            counter.apply(update)
            assert counter.count == count_acyclic(query, database)
