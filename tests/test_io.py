"""Tests for serialization (:mod:`repro.db.io`)."""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.io import (
    ARITY_KEY,
    database_from_dict,
    database_to_dict,
    dump_database,
    load_database,
    query_to_text,
)
from repro.db.columnar import make_relation
from repro.db.relation import Relation
from repro.exceptions import DatabaseError
from repro.query import parse_query
from repro.workloads.random_instances import random_query


class TestDatabaseRoundTrip:
    def test_simple_round_trip(self):
        database = Database.from_dict({
            "r": [(1, 2), (3, 4)], "s": [("a", "b")],
        })
        assert database_from_dict(database_to_dict(database)) == database

    def test_empty_relation_round_trips_with_arity(self):
        database = Database([Relation("r", 3, [])])
        restored = database_from_dict(database_to_dict(database))
        assert restored["r"].arity == 3
        assert len(restored["r"]) == 0

    def test_empty_relation_without_arity_rejected(self):
        with pytest.raises(DatabaseError):
            database_from_dict({"r": []})

    def test_missing_arity_map_tolerated(self):
        restored = database_from_dict({"r": [[1, 2]]})
        assert restored["r"].arity == 2

    def test_nested_lists_become_tuples(self):
        restored = database_from_dict({"r": [[[1, 2], 3]]})
        assert ((1, 2), 3) in restored["r"]

    def test_file_round_trip(self, tmp_path):
        database = Database.from_dict({"r": [(1, "x")], "s": [(2,)]})
        path = str(tmp_path / "db.json")
        dump_database(database, path)
        assert load_database(path) == database
        # The file is plain JSON with the arity map present.
        payload = json.loads(open(path).read())
        assert payload[ARITY_KEY] == {"r": 2, "s": 1}

    def test_json_serializable(self):
        database = Database.from_dict({"r": [(1, None), (True, "x")]})
        json.dumps(database_to_dict(database))  # must not raise


#: One relation per column type mix the codec must order and restore.
MIXED = {
    "r": [(1, None), (True, "x"), (2.5, "a"), ("b", 3), (None, False)],
    "s": [(1,), ("1",), (None,), (0.5,), (False,)],
    "t": [(3, 1), (1, 2), (2, 2)],
}

#: Every payload here is malformed: each must raise what it raised when
#: every value went through the freeze.
MALFORMED = [
    {"r": [5]},
    {"r": [[1, 2], None]},
    {"r": 7},
    {"r": [[{"a": 1}]]},
    {"r": [[1, 2], [3]]},
    {"r": [[1, 2]], ARITY_KEY: {"r": 3}},
    {"r": [[[1, [2, {}]]]]},
]


def reference_from_dict(payload):
    """``database_from_dict`` as it was when every value was frozen."""
    def freeze(value):
        if isinstance(value, list):
            return tuple(freeze(v) for v in value)
        return value

    arities = payload.get(ARITY_KEY, {})
    relations = []
    for name, rows in payload.items():
        if name == ARITY_KEY:
            continue
        rows = [tuple(freeze(value) for value in row) for row in rows]
        if name in arities:
            arity = arities[name]
        elif rows:
            arity = len(rows[0])
        else:
            raise DatabaseError(f"empty relation {name!r}")
        relations.append(make_relation(name, arity, rows))
    return Database(relations)


def raised(function, argument):
    try:
        function(argument)
    except Exception as error:  # noqa: BLE001 - the error is the result
        return type(error), str(error)
    return None


#: Dumps MIXED from a fresh interpreter (whose string hashes, hence set
#: orders, follow its own PYTHONHASHSEED).
DUMP_MIXED = (
    "import json, sys\n"
    "from repro.db import Database\n"
    "from repro.db.io import database_to_dict\n"
    "data = json.loads(sys.argv[1])\n"
    "database = Database.from_dict(data, backend='tuple')\n"
    "sys.stdout.write(json.dumps(database_to_dict(database)))\n"
)


class TestRowOrderAndFreeze:
    def test_mixed_types_round_trip(self):
        database = Database.from_dict(MIXED)
        payload = json.loads(json.dumps(database_to_dict(database)))
        assert database_from_dict(payload) == database

    def test_mixed_type_output_is_deterministic(self):
        # Tuple relations: a columnar column keeps one representative of
        # values that compare equal (1 and True), chosen by row order,
        # so its *content* would differ between the shuffles.
        expected = json.dumps(database_to_dict(
            Database.from_dict(MIXED, backend="tuple")))
        rng = random.Random(3)
        for _attempt in range(5):
            shuffled = {name: rng.sample(rows, len(rows))
                        for name, rows in MIXED.items()}
            assert json.dumps(database_to_dict(Database.from_dict(
                shuffled, backend="tuple"))) == expected
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        dumps = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.path.abspath(src))
            dumps.add(subprocess.run(
                [sys.executable, "-c", DUMP_MIXED, json.dumps(MIXED)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout)
        # JSON turns the row tuples into lists; Database.from_dict turns
        # them back, so the child's output is the parent's.
        assert dumps == {expected}

    def test_rows_in_natural_order_with_repr_fallback(self):
        payload = database_to_dict(Database.from_dict(MIXED))
        assert payload["t"] == [(1, 2), (2, 2), (3, 1)]
        assert payload["r"] == sorted(payload["r"], key=repr)

    def test_rows_are_the_relation_tuples(self):
        database = Database.from_dict({"r": [(1, 2), (3, 4)]})
        rows = database_to_dict(database)["r"]
        assert all(row in database["r"].rows and type(row) is tuple
                   for row in rows)

    def test_nested_lists_freeze_in_mixed_payloads(self):
        restored = database_from_dict({
            "r": [[1, 2], [[3, [4, 5]], 6], ["x", []]],
        })
        assert set(restored["r"]) == {(1, 2), ((3, (4, 5)), 6), ("x", ())}

    def test_booleans_stay_booleans(self):
        restored = database_from_dict({"r": [[True, 1], [False, None]]})
        for row in restored["r"]:
            if row[1] == 1:
                assert row[0] is True
            else:
                assert row[0] is False
        payload = database_to_dict(restored)
        assert json.dumps(payload["r"]) == "[[false, null], [true, 1]]"

    @pytest.mark.parametrize("payload", MALFORMED)
    def test_malformed_rows_raise_as_before(self, payload):
        expected = raised(reference_from_dict, payload)
        assert expected is not None
        assert raised(database_from_dict, payload) == expected

    @pytest.mark.parametrize("payload", MALFORMED)
    def test_malformed_rows_become_job_file_errors(self, payload):
        from repro.service.jobs import JobFileError, _database_from_spec

        with pytest.raises(JobFileError, match="malformed relations"):
            _database_from_spec(payload, "jobs.json: database 'db'")

    def test_attach_frame_is_the_same_for_tuple_and_list_rows(self):
        from repro.service import AttachDatabase
        from repro.service.net import encode_frame, job_to_wire

        database = Database.from_dict(MIXED)
        spec = job_to_wire(AttachDatabase("db", database, label="a"))
        listed = dict(spec, relations={
            name: ([list(row) for row in rows] if name != ARITY_KEY
                   else rows)
            for name, rows in spec["relations"].items()
        })
        assert encode_frame(spec) == encode_frame(listed)

    def test_repr_ordered_stream_file_still_loads(self, tmp_path):
        from repro.service.session import load_stream

        database = Database.from_dict(MIXED)
        relations = {name: [list(row) for row in
                            sorted(database[name].rows, key=repr)]
                     for name in sorted(database)}
        relations[ARITY_KEY] = {name: database[name].arity
                                for name in sorted(database)}
        path = tmp_path / "stream.jsonl"
        path.write_text(json.dumps({"op": "database", "name": "db",
                                    "relations": relations}) + "\n")
        [attach] = load_stream(str(path))
        assert attach.database == database


class TestQueryText:
    def test_round_trip_simple(self):
        query = parse_query("ans(A, C) :- r(A, B), s(B, C)")
        assert parse_query(query_to_text(query)) == query

    def test_round_trip_constants(self):
        query = parse_query("ans(A) :- r(A, 'rome'), s(A, 42)")
        assert parse_query(query_to_text(query)) == query

    def test_round_trip_repeated_variables(self):
        query = parse_query("ans(A) :- loop(A, A)")
        assert parse_query(query_to_text(query)) == query

    def test_boolean_query_head(self):
        query = parse_query("ans() :- r(A, B)")
        text = query_to_text(query)
        assert text.startswith("ans() :- ")
        assert parse_query(text) == query

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=25, deadline=None)
    def test_random_queries_round_trip(self, seed):
        query = random_query(5, 4, seed=seed)
        assert parse_query(query_to_text(query)) == query
