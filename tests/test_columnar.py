"""The columnar backend: dictionary-encoded relations and their kernels.

Four layers, tested bottom-up:

* the :class:`~repro.db.columnar.ColumnarRelation` contract — rows,
  membership, equality across backends, indexes, statistics, renamed
  alias sharing, pickling, arity-0 and numeric-equality edge cases;
* backend selection — ``make_relation`` / ``Database.from_dict`` /
  ``with_backend`` / ``$REPRO_BACKEND`` / ``set_default_backend``;
* the vectorized algebra operators — join / semijoin / projection
  counts agree with the tuple path on random inputs, in every backend
  pairing (columnar, tuple, mixed);
* the differential harness — ``columnar == tuple == brute force`` for
  the full engine (auto and compiled) on a random corpus, and through
  the sharded session in every shard-worker flavor including ``tcp``
  (which also exercises pickling through process pools and the wire).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.counting.brute_force import count_brute_force
from repro.counting.engine import count_answers
from repro.db import Database
from repro.db.algebra import (
    relation_join,
    relation_project_counts,
    relation_semijoin,
)
from repro.db.columnar import (
    BACKENDS,
    ColumnarRelation,
    columnar_kernels_available,
    database_backend,
    default_backend,
    make_relation,
    set_default_backend,
)
from repro.db.relation import Relation
from repro.envknobs import isolated_repro_env
from repro.exceptions import ArityMismatchError, SchemaError
from repro.query import parse_query

ROWS = [(1, "a"), (1, "b"), (2, "a"), (3, "c"), (1, "a")]  # one duplicate


def pair(rows=ROWS, arity=2):
    """The same contents on both backends."""
    return (Relation("r", arity, rows), ColumnarRelation("r", arity, rows))


# ----------------------------------------------------------------------
# The Relation contract
# ----------------------------------------------------------------------
class TestColumnarRelationContract:
    def test_rows_len_iter_match_tuple_backend(self):
        tuple_rel, columnar = pair()
        assert columnar.rows == tuple_rel.rows
        assert len(columnar) == len(tuple_rel) == 4  # duplicate collapsed
        assert set(columnar) == set(tuple_rel)

    def test_membership(self):
        _, columnar = pair()
        assert (1, "a") in columnar
        assert (9, "a") not in columnar
        assert (1, "zzz") not in columnar
        assert (1,) not in columnar  # wrong arity

    def test_equality_and_hash_cross_backend(self):
        tuple_rel, columnar = pair()
        assert columnar == tuple_rel
        assert tuple_rel == columnar
        assert hash(columnar) == hash(tuple_rel)
        assert columnar != ColumnarRelation("r", 2, [(1, "a")])

    def test_arity_mismatch_raises(self):
        with pytest.raises(ArityMismatchError):
            ColumnarRelation("r", 2, [(1, 2, 3)])

    def test_index_on_matches_tuple_backend(self):
        tuple_rel, columnar = pair()
        assert columnar.index_on((0,)) == tuple_rel.index_on((0,))
        assert columnar.index_on((1, 0)) == tuple_rel.index_on((1, 0))

    def test_statistics_distinct_is_dictionary_size(self):
        tuple_rel, columnar = pair()
        stats = columnar.statistics()
        for position in range(2):
            assert stats.distinct(position) == \
                tuple_rel.statistics().distinct(position)
        with pytest.raises(IndexError):
            stats.distinct(2)

    def test_renamed_alias_shares_contents_and_caches(self):
        _, columnar = pair()
        alias = columnar.renamed("s")
        assert isinstance(alias, ColumnarRelation)
        assert alias.name == "s" and alias.rows == columnar.rows
        assert alias is columnar.renamed("s")  # alias cache
        assert alias._kcache is columnar._kcache  # kernels see one cache
        from repro.counting.plan_cache import relation_content_tag
        assert relation_content_tag(alias) == \
            relation_content_tag(columnar)

    def test_active_domain_cached_and_shared_with_aliases(self):
        _, columnar = pair()
        domain = columnar.active_domain()
        assert domain == frozenset({1, 2, 3, "a", "b", "c"})
        assert columnar.active_domain() is domain
        assert columnar.renamed("s").active_domain() is domain

    def test_pickle_roundtrip_preserves_type_and_rows(self):
        _, columnar = pair()
        restored = pickle.loads(pickle.dumps(columnar))
        assert type(restored) is ColumnarRelation
        assert restored == columnar
        assert restored.statistics().distinct(0) == 3

    def test_union_and_restrict_stay_columnar(self):
        _, columnar = pair()
        grown = columnar.union([(9, "z")])
        assert type(grown) is ColumnarRelation
        assert (9, "z") in grown and len(grown) == 5
        shrunk = columnar.restrict(lambda row: row[0] == 1)
        assert type(shrunk) is ColumnarRelation
        assert shrunk.rows == frozenset({(1, "a"), (1, "b")})

    def test_arity_zero(self):
        empty = ColumnarRelation("t", 0, [])
        truth = ColumnarRelation("t", 0, [()])
        assert len(empty) == 0 and empty.rows == frozenset()
        assert len(truth) == 1 and truth.rows == frozenset({()})
        assert pickle.loads(pickle.dumps(truth)) == truth

    def test_numeric_equality_matches_python_semantics(self):
        # 1 == 1.0 in Python, so both backends must treat them as one
        # value; dictionary encoding uses dict lookup, which agrees.
        tuple_rel = Relation("r", 1, [(1,)])
        columnar = ColumnarRelation("r", 1, [(1,)])
        assert ((1.0,) in columnar) == ((1.0,) in tuple_rel) is True
        both = ColumnarRelation("r", 1, [(1,), (1.0,)])
        assert len(both) == 1


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_make_relation_dispatches(self):
        assert type(make_relation("r", 1, [(1,)], backend="tuple")) \
            is Relation
        assert type(make_relation("r", 1, [(1,)], backend="columnar")) \
            is ColumnarRelation
        with pytest.raises(ValueError, match="arrow"):
            make_relation("r", 1, [(1,)], backend="arrow")

    def test_set_default_backend_forces_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        try:
            set_default_backend("columnar")
            assert default_backend() == "columnar"
            assert type(make_relation("r", 1, [(1,)])) is ColumnarRelation
        finally:
            set_default_backend(None)
        assert default_backend() == "tuple"
        with pytest.raises(ValueError):
            set_default_backend("arrow")

    def test_database_backend_classification(self):
        columnar_db = Database.from_dict({"r": [(1, 2)]},
                                         backend="columnar")
        tuple_db = Database.from_dict({"r": [(1, 2)]}, backend="tuple")
        mixed = tuple_db.with_relation(
            ColumnarRelation("s", 1, [(5,)])
        )
        assert database_backend(columnar_db) == "columnar"
        assert database_backend(tuple_db) == "tuple"
        assert database_backend(mixed) == "tuple"
        assert database_backend(Database()) == "tuple"

    def test_with_backend_converts_and_reuses(self):
        tuple_db = Database.from_dict({"r": [(1, 2)], "s": [(2, 3)]})
        columnar_db = tuple_db.with_backend("columnar")
        assert database_backend(columnar_db) == "columnar"
        assert columnar_db == tuple_db  # contents unchanged
        again = columnar_db.with_backend("columnar")
        assert again["r"] is columnar_db["r"]  # same-backend reuse
        back = columnar_db.with_backend("tuple")
        assert database_backend(back) == "tuple" and back == tuple_db

    def test_backends_registry_is_the_dispatch_surface(self):
        assert BACKENDS == ("tuple", "columnar")


# ----------------------------------------------------------------------
# Vectorized algebra operators
# ----------------------------------------------------------------------
needs_kernels = pytest.mark.skipif(
    not columnar_kernels_available(),
    reason="numpy unavailable: no vectorized kernels in this build",
)


def random_rows(rng, arity, n, domain):
    return {tuple(rng.randrange(domain) for _ in range(arity))
            for _ in range(n)}


@needs_kernels
class TestVectorizedAlgebra:
    @pytest.mark.parametrize("seed", range(6))
    def test_join_parity_across_backend_pairings(self, seed):
        rng = random.Random(seed)
        left_rows = random_rows(rng, 2, 30, 8)
        right_rows = random_rows(rng, 2, 30, 8)
        on = ((1, 0),)
        backends = {
            "tuple": (Relation("l", 2, left_rows),
                      Relation("r", 2, right_rows)),
            "columnar": (ColumnarRelation("l", 2, left_rows),
                         ColumnarRelation("r", 2, right_rows)),
            "mixed": (ColumnarRelation("l", 2, left_rows),
                      Relation("r", 2, right_rows)),
        }
        results = {label: relation_join(left, right, on)
                   for label, (left, right) in backends.items()}
        rows = {label: result.rows for label, result in results.items()}
        assert rows["columnar"] == rows["tuple"] == rows["mixed"]
        assert type(results["columnar"]) is ColumnarRelation
        assert type(results["tuple"]) is Relation
        # A mixed pair takes the tuple path; the result keeps the
        # *left* operand's backend.
        assert type(results["mixed"]) is ColumnarRelation

    @pytest.mark.parametrize("seed", range(6))
    def test_semijoin_parity_and_identity_shortcut(self, seed):
        rng = random.Random(100 + seed)
        left_rows = random_rows(rng, 2, 25, 6)
        right_rows = random_rows(rng, 1, 10, 6)
        tuple_left = Relation("l", 2, left_rows)
        columnar_left = ColumnarRelation("l", 2, left_rows)
        tuple_right = Relation("r", 1, right_rows)
        columnar_right = ColumnarRelation("r", 1, right_rows)
        expected = relation_semijoin(tuple_left, tuple_right, ((0, 0),))
        filtered = relation_semijoin(columnar_left, columnar_right,
                                     ((0, 0),))
        assert filtered.rows == expected.rows
        # Unfiltered: the operand itself comes back, caches intact.
        everything = ColumnarRelation("all", 1, [(v,) for v in range(6)])
        assert relation_semijoin(columnar_left, everything,
                                 ((0, 0),)) is columnar_left

    def test_semijoin_requires_key_positions(self):
        left, right = pair()
        with pytest.raises(SchemaError):
            relation_semijoin(right, left, ())

    @pytest.mark.parametrize("seed", range(6))
    def test_project_counts_parity(self, seed):
        rng = random.Random(200 + seed)
        rows = random_rows(rng, 3, 40, 5)
        tuple_rel = Relation("r", 3, rows)
        columnar = ColumnarRelation("r", 3, rows)
        for positions in ((0,), (2, 0), (1, 1), ()):
            assert relation_project_counts(columnar, positions) == \
                relation_project_counts(tuple_rel, positions), positions

    def test_join_with_disjoint_dictionaries_is_empty(self):
        left = ColumnarRelation("l", 1, [(1,), (2,)])
        right = ColumnarRelation("r", 1, [("x",), ("y",)])
        assert len(relation_join(left, right, ((0, 0),))) == 0


# ----------------------------------------------------------------------
# Differential: columnar == tuple == brute force, through the engine
# ----------------------------------------------------------------------
QUERIES = [
    parse_query("path(X, Z) :- r(X, Y), s(Y, Z)"),
    parse_query("tri(X) :- e(X, Y), e(Y, Z), e(Z, X)"),
    parse_query("star(X) :- r(X, Y), s(X, Z), e(X, W)"),
    parse_query("pin(X) :- r(X, 1), e(X, Y)"),
    parse_query("loop(X) :- e(X, X), r(X, Y)"),
]


def random_corpus_database(seed: int) -> Database:
    rng = random.Random(seed)
    return Database.from_dict({
        "r": random_rows(rng, 2, 20, 6),
        "s": random_rows(rng, 2, 20, 6),
        "e": random_rows(rng, 2, 25, 6),
    }, backend="tuple")


class TestDifferentialBackendParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_engine_counts_agree_with_brute_force(self, seed,
                                                  repro_env_sandbox):
        tuple_db = random_corpus_database(seed)
        columnar_db = tuple_db.with_backend("columnar")
        for query in QUERIES:
            expected = count_brute_force(query, tuple_db)
            for method in ("auto", "compiled"):
                # Forcing the compiled tier must not depend on the leg's
                # REPRO_COMPILED, which switches that tier off.
                pins = {"REPRO_COMPILED": None} if method == "compiled" \
                    else {}
                for database in (tuple_db, columnar_db):
                    with isolated_repro_env(**pins):
                        result = count_answers(query, database,
                                               method=method)
                    assert result.count == expected, (
                        f"seed {seed}, {query.name}, {method}, "
                        f"{database_backend(database)}"
                    )

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_backend_database_counts_agree(self, seed):
        tuple_db = random_corpus_database(40 + seed)
        mixed = tuple_db.with_relation(
            ColumnarRelation("e", 2, tuple_db["e"].rows)
        )
        for query in QUERIES:
            assert count_answers(query, mixed).count == \
                count_brute_force(query, tuple_db), query.name


# ----------------------------------------------------------------------
# The sharded session under $REPRO_BACKEND, every shard flavor
# ----------------------------------------------------------------------
class TestShardedBackendParity:
    def streams(self):
        from repro.dynamic import Insert
        from repro.service import AttachDatabase, CountRequest, \
            UpdateRequest

        jobs = []
        for seed in range(3):
            database = random_corpus_database(70 + seed)
            jobs.append(AttachDatabase(f"db{seed}", database))
            for query in QUERIES[:3]:
                jobs.append(CountRequest(query, f"db{seed}",
                                         label=f"{query.name}{seed}"))
            jobs.append(UpdateRequest(f"db{seed}", Insert("r", (99, 1))))
            jobs.append(CountRequest(QUERIES[0], f"db{seed}",
                                     label=f"post{seed}"))
        return [jobs]

    def replay(self, shard_mode, shard_addrs=None):
        from repro.service import MultiWriterSession

        with MultiWriterSession(shards=2, shard_mode=shard_mode,
                                shard_addrs=shard_addrs,
                                maintain=False) as session:
            (results,) = session.run_streams(self.streams())
        return [r.count for r in results if hasattr(r, "count")]

    @pytest.mark.parametrize("shard_mode", ["inline", "thread", "process"])
    def test_columnar_equals_tuple_in_every_worker_flavor(self, shard_mode,
                                                          monkeypatch):
        # The env var (not the module override) is what travels into
        # forked process-mode shard workers; process mode also pickles
        # every columnar database across the pool boundary.
        monkeypatch.setenv("REPRO_BACKEND", "columnar")
        columnar_counts = self.replay(shard_mode)
        monkeypatch.setenv("REPRO_BACKEND", "tuple")
        tuple_counts = self.replay(shard_mode)
        assert columnar_counts == tuple_counts
        assert len(columnar_counts) == 12

    def test_columnar_equals_tuple_over_tcp(self, monkeypatch):
        from repro.service.net import ShardServer

        def over_the_wire():
            with ShardServer(shards=2) as server:
                return self.replay("tcp", shard_addrs=[server.address])

        # The server rebuilds attached databases via database_from_dict,
        # so its process environment decides the resident backend.
        monkeypatch.setenv("REPRO_BACKEND", "columnar")
        columnar_counts = over_the_wire()
        monkeypatch.setenv("REPRO_BACKEND", "tuple")
        tuple_counts = over_the_wire()
        assert columnar_counts == tuple_counts
        assert len(columnar_counts) == 12
