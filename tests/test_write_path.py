"""The O(delta) write path: derived relation versions and tag invalidation.

``apply_update`` builds each new relation version from the old row set
with one set operation (:meth:`Relation.derived`), and the session shard
invalidates only content tags that were already computed — a write never
renders a relation.  These tests pin both halves:

* derived versions are indistinguishable from relations built from
  scratch (rows, size, indexes, statistics) on both backends, share no
  cache with their predecessor, and rejected updates change nothing;
* a shard holding a tagged engine plan renders nothing on writes, and a
  plan tagged through the engine's canonical alias is still evicted by
  an update phrased in the caller's relation names.
"""

from __future__ import annotations

import itertools
import random

import pytest

import repro.counting.plan_cache as plan_cache_module
from repro.counting.plan_cache import PlanCache, known_content_tag
from repro.db import Database
from repro.db.columnar import BACKENDS, make_relation
from repro.dynamic import Delete, Insert, apply_update
from repro.exceptions import DatabaseError
from repro.query import parse_query
from repro.service import CountingSession, CountRequest
from repro.service.shard import SessionShard

TRIANGLE = parse_query("ans(A) :- r(A, B), s(B, C), t(C, A)")


def _database(backend: str) -> Database:
    return Database.from_dict({
        "r": [(1, 2), (2, 3), (7, 8)],
        "s": [(2, 3), (3, 1)],
        "t": [(3, 1), (1, 2)],
        "u": [(1, 5, "a"), (2, 6, "b")],
    }, backend=backend)


def _random_stream(rng: random.Random, database: Database, steps: int):
    """A valid insert/delete stream over *database*, plus the expected
    row set of every relation after each step."""
    current = {name: set(database[name].rows) for name in database}
    arity = {name: database[name].arity for name in database}
    for _ in range(steps):
        name = rng.choice(sorted(current))
        rows = current[name]
        if rows and rng.random() < 0.45:
            row = rng.choice(sorted(rows, key=repr))
            rows.discard(row)
            yield Delete(name, row), {n: set(r) for n, r in current.items()}
        else:
            row = tuple(rng.randrange(6) for _ in range(arity[name]))
            if row in rows:
                continue
            rows.add(row)
            yield Insert(name, row), {n: set(r) for n, r in current.items()}


def _assert_same_relation(derived, scratch) -> None:
    assert type(derived) is type(scratch)
    assert derived == scratch
    assert derived.rows == scratch.rows
    assert len(derived) == len(scratch)
    for width in range(derived.arity + 1):
        for positions in itertools.permutations(range(derived.arity), width):
            built = derived.index_on(positions)
            expected = scratch.index_on(positions)
            assert set(built) == set(expected)
            for key, rows in expected.items():
                assert sorted(built[key], key=repr) == sorted(rows, key=repr)
    mine, theirs = derived.statistics(), scratch.statistics()
    assert mine.cardinality == theirs.cardinality
    assert mine.distinct_counts() == theirs.distinct_counts()
    for position in range(derived.arity):
        assert mine.values(position) == theirs.values(position)
        assert mine.degree((position,)) == theirs.degree((position,))
    assert mine.max_column_degree() == theirs.max_column_degree()
    assert derived.active_domain() == scratch.active_domain()


class TestDerivedVersions:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_stream_matches_from_scratch(self, backend, seed):
        rng = random.Random(seed)
        database = _database(backend)
        for update, expected in _random_stream(rng, database, 40):
            database = apply_update(database, update)
            for name, rows in expected.items():
                relation = database[name]
                scratch = make_relation(name, relation.arity, rows,
                                        backend=backend)
                _assert_same_relation(relation, scratch)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_derived_version_shares_no_cache(self, backend):
        database = _database(backend)
        old = database["r"]
        old_index = old.index_on((0,))
        old_statistics = old.statistics()
        old.active_domain()
        old.renamed("s00")
        updated = apply_update(database, Insert("r", (5, 9)))
        new = updated["r"]
        assert new is not old
        assert new._indexes is not old._indexes
        assert new._statistics is not old_statistics
        assert new.statistics() is not old_statistics
        assert new._renamed is not old._renamed
        assert new._content_tag is not old._content_tag
        assert new._domain is not old._domain
        assert new.index_on((0,))[(5,)] == ((5, 9),)
        assert (5,) not in old_index  # the old version is untouched
        assert old.statistics().cardinality == 3
        assert new.statistics().cardinality == 4
        assert 9 in new.active_domain() and 9 not in old.active_domain()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("update", [
        Insert("r", (1, 2)),        # duplicate insert
        Delete("r", (9, 9)),        # absent delete
        Insert("r", (1, 2, 3)),     # arity mismatch
        Delete("r", (1, 2, 3)),     # arity mismatch (hence absent)
        Insert("zzz", (1,)),        # unknown relation
    ])
    def test_rejected_update_changes_nothing(self, backend, update):
        database = _database(backend)
        before = {name: database[name] for name in database}
        rows_before = {name: set(database[name].rows) for name in database}
        with pytest.raises(DatabaseError):
            apply_update(database, update)
        for name in database:
            assert database[name] is before[name]
            assert set(database[name].rows) == rows_before[name]
        with SessionShard(plan_cache=PlanCache()) as shard:
            shard.attach_database("main", database)
            with pytest.raises(DatabaseError):
                shard.update("main", update)
            assert shard.database("main") is database
            assert shard.updates_applied == 0
            assert not shard._pending_deltas


class _RenderCounter:
    """Counts ``stable_key_render`` calls (each rendered value, nested
    ones included) while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = plan_cache_module.stable_key_render

        def counting(value):
            self.calls += 1
            return original(value)

        monkeypatch.setattr(plan_cache_module, "stable_key_render", counting)


class TestWriteInvalidation:
    def test_writes_render_nothing_while_a_plan_is_tagged(self, monkeypatch):
        cache = PlanCache()
        with CountingSession(databases={"main": _database("tuple")},
                             plan_cache=cache) as session:
            session.count(CountRequest(TRIANGLE, "main", method="hybrid"))
            assert cache._key_tags  # an engine plan carries content tags
            renders = _RenderCounter(monkeypatch)
            for row in range(10, 20):
                ack = session.update("main", Insert("u", (row, row, "c")))
                assert ack["invalidated_plans"] == 0
            session.update("main", Delete("u", (10, 10, "c")))
            assert renders.calls == 0
            # The tagged relation's own update evicts the plan through
            # the tag already known — still without rendering anything.
            ack = session.update("main", Insert("r", (3, 7)))
            assert ack["invalidated_plans"] == 1
            assert renders.calls == 0

    def test_attach_renders_nothing_and_evicts_known_tags(self,
                                                          monkeypatch):
        cache = PlanCache()
        with CountingSession(databases={"main": _database("tuple")},
                             plan_cache=cache) as session:
            session.count(CountRequest(TRIANGLE, "main", method="hybrid"))
            renders = _RenderCounter(monkeypatch)
            ack = session.attach_database("main", _database("tuple"))
            assert ack["replaced"] and ack["invalidated_plans"] == 1
            ack = session.attach_database("main", _database("tuple"))
            assert ack["invalidated_plans"] == 0  # nothing tagged any more
            assert renders.calls == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_alias_tag_evicts_through_caller_names(self, backend):
        cache = PlanCache()
        database = _database(backend)
        with CountingSession(databases={"main": database},
                             plan_cache=cache) as session:
            result = session.count(
                CountRequest(TRIANGLE, "main", method="hybrid"))
            assert result.strategy == "hybrid"
            # The engine planned over shape-canonical aliases, never
            # under the name "r", yet the caller's relation sees the tag.
            assert set(database["r"]._renamed) - {"r"}
            assert known_content_tag(database["r"]) is not None
            ack = session.update("main", Delete("r", (7, 8)))
            assert ack["invalidated_plans"] == 1
            assert not cache._key_tags
            # The new version starts untagged; recounting re-tags it.
            assert known_content_tag(session.database("main")["r"]) is None
            recount = session.count(
                CountRequest(TRIANGLE, "main", method="hybrid"))
            assert recount.count == result.count
