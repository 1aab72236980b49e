"""Reduction-based maintenance (ISSUE 5): unit and property tests.

:class:`~repro.dynamic.ReducedMaintainer` carries [BKS17]-style delta
propagation through the paper's Theorem 3.7 reduction.  These tests pin
its three layers independently:

* **provenance delta translation** — for random base update streams,
  translating base tuples into bag deltas and applying them must leave
  the per-bag provenance (local bag membership, witness multiplicities,
  and the exact projected rows fed to the inner DP) *identical* to
  rebuilding the reduced instance from scratch — including
  delete-then-reinsert and no-op round trips;
* **pool integration** — reduced maintainers ride the shared pool's
  eviction, checkpoint spill/restore, and delta-journal replay exactly
  like the direct DPs, and stale (version-1) checkpoints are rejected;
* **the maintainability memo** — a ``False`` verdict cached under the
  old quantifier-free-only probe is re-probed now that the maintained
  class is wider (a previously-recounting shape gets maintained);
* **compiled construction** — the per-atom compiled matcher agrees with
  the per-row match, and a maintainer built through the bag's generic
  join, then updated through its delta joins, holds the witness counts
  of a nested-loop enumeration over every part, on both relation
  backends, and restores a checkpoint written before the generic-join
  build.
"""

from __future__ import annotations

import pickle
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.counting.brute_force import count_brute_force
from repro.counting.engine import count_answers
from repro.db import Database
from repro.decomposition.serialize import (
    MAINTAINER_FORMAT_VERSION,
    PlanSerializationError,
    _MAINTAINER_MAGIC,
    _serialize,
    deserialize_maintainer_state,
)
from repro.dynamic import (
    Delete,
    Insert,
    MaintainerPool,
    ReducedMaintainer,
    apply_update,
)
from repro.dynamic.maintainer import AtomMatcher, _atom_match
from repro.envknobs import isolated_repro_env
from repro.exceptions import DecompositionNotFoundError
from repro.query import Variable, parse_query
from repro.query.canonical import canonical_form
from repro.service import CountingSession, CountRequest
from repro.workloads.random_instances import random_instance

#: Acyclic with an existential variable: rejected by the direct DP,
#: width-1 reducible.
QUANT = parse_query("ans(A, B) :- r(A, B), s(B, C)")
#: Quantifier-free but cyclic: width-2 reducible.
TRIANGLE = parse_query("ans(A, B, C) :- r(A, B), s(B, C), t(C, A)")
#: No free variables at all: the reduced instance keeps no bag and the
#: count is the 0-or-1 emptiness gate.
BOOLEAN = parse_query("ans() :- r(A, B), s(B, C)")


def seed_database(rng: random.Random, symbols=("r", "s", "t"),
                  size: int = 8, domain: int = 4) -> Database:
    return Database.from_dict({
        name: list({(rng.randrange(domain), rng.randrange(domain))
                    for _ in range(size)})
        for name in symbols
    })


def random_update(rng: random.Random, database: Database, domain: int = 4):
    relation = rng.choice(sorted(database.symbols()))
    existing = sorted(database[relation].rows, key=repr)
    arity = database[relation].arity
    if existing and rng.random() < 0.45:
        return Delete(relation, rng.choice(existing))
    while True:
        row = tuple(rng.randrange(domain) for _ in range(arity))
        if row not in database[relation]:
            return Insert(relation, row)


# ----------------------------------------------------------------------
# Direct maintenance correctness
# ----------------------------------------------------------------------
class TestReducedMaintainer:
    @pytest.mark.parametrize("query", [QUANT, TRIANGLE, BOOLEAN],
                             ids=["quantified", "cyclic", "boolean"])
    @pytest.mark.parametrize("seed", range(4))
    def test_maintained_count_tracks_brute_force(self, query, seed):
        rng = random.Random(seed)
        database = seed_database(rng)
        maintainer = ReducedMaintainer(query, database)
        assert maintainer.count == count_brute_force(query, database)
        for _step in range(25):
            update = random_update(rng, database)
            database = apply_update(database, update)
            maintainer.apply(update)
            assert maintainer.count == count_brute_force(query, database)

    def test_width_bound_exceeded_raises(self):
        # A 4-clique needs width > 1; with max_width=1 the reduction
        # must refuse (the caller then falls back to recounting).
        clique = parse_query(
            "ans(A, B, C, D) :- r(A, B), r(A, C), r(A, D), "
            "r(B, C), r(B, D), r(C, D)"
        )
        database = Database.from_dict({"r": [(1, 2)]})
        with pytest.raises(DecompositionNotFoundError):
            ReducedMaintainer(clique, database, max_width=1)

    def test_drain_and_refill(self):
        """Adversarial order: empty a relation entirely, then refill."""
        database = Database.from_dict({"r": [(1, 2)], "s": [(2, 3)]})
        maintainer = ReducedMaintainer(QUANT, database)
        stream = [
            Delete("r", (1, 2)), Delete("s", (2, 3)),
            Insert("s", (5, 6)), Insert("r", (4, 5)),
            Insert("r", (1, 2)), Insert("s", (2, 3)),
        ]
        for update in stream:
            database = apply_update(database, update)
            maintainer.apply(update)
            assert maintainer.count == count_brute_force(QUANT, database)

    def test_batch_equals_sequential(self):
        rng = random.Random(3)
        database = seed_database(rng)
        batched = ReducedMaintainer(TRIANGLE, database)
        sequential = ReducedMaintainer(TRIANGLE, database)
        updates = []
        for _ in range(10):
            update = random_update(rng, database)
            database = apply_update(database, update)
            updates.append(update)
            sequential.apply(update)
        batched.apply_batch(updates)
        assert batched.count == sequential.count
        assert batched.witness_counts() == sequential.witness_counts()
        assert batched.fed_rows() == sequential.fed_rows()

    def test_estimated_bytes_grows_with_provenance(self):
        rng = random.Random(9)
        database = seed_database(rng, size=4)
        maintainer = ReducedMaintainer(QUANT, database)
        before = maintainer.estimated_bytes()
        assert before > 0
        for value in range(10, 30):
            maintainer.apply(Insert("r", (value, value)))
        assert maintainer.estimated_bytes() > before


# ----------------------------------------------------------------------
# Provenance delta translation == rebuild from scratch
# ----------------------------------------------------------------------
class TestProvenanceDeltaTranslation:
    def assert_state_matches_rebuild(self, maintainer, query, database):
        fresh = ReducedMaintainer(query, database)
        assert maintainer.local_bag_rows() == fresh.local_bag_rows()
        assert maintainer.witness_counts() == fresh.witness_counts()
        assert maintainer.fed_rows() == fresh.fed_rows()
        assert maintainer.count == fresh.count

    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams_match_rebuild(self, seed):
        """The property the satellite asks for: translating random base
        deltas to bag deltas and applying them yields bag relations
        identical to rebuilding the reduced instance from scratch."""
        query, database = random_instance(
            n_variables=5, n_atoms=3, domain_size=4,
            tuples_per_relation=10, seed=seed,
        )
        try:
            maintainer = ReducedMaintainer(query, database, max_width=2)
        except DecompositionNotFoundError:
            pytest.skip("no width-2 #-decomposition for this draw")
        rng = random.Random(seed * 17 + 1)
        for _step in range(10):
            update = random_update(rng, database, domain=5)
            database = apply_update(database, update)
            maintainer.apply(update)
        self.assert_state_matches_rebuild(maintainer, query, database)
        assert maintainer.count == count_brute_force(query, database)

    @pytest.mark.parametrize("mix,seed", [
        ("quantified", 2), ("cyclic", 5),
    ])
    def test_workload_shapes_match_rebuild(self, mix, seed):
        from repro.workloads import session_shape_instances

        [(query, database)] = session_shape_instances(
            n_shapes=1, seed=seed, tuples_per_relation=10, shape_mix=mix,
        )
        maintainer = ReducedMaintainer(query, database)
        rng = random.Random(seed)
        for _step in range(8):
            update = random_update(rng, database, domain=6)
            database = apply_update(database, update)
            maintainer.apply(update)
        self.assert_state_matches_rebuild(maintainer, query, database)

    def test_delete_then_reinsert_is_identity(self):
        rng = random.Random(4)
        database = seed_database(rng)
        maintainer = ReducedMaintainer(TRIANGLE, database)
        baseline_counts = maintainer.witness_counts()
        baseline_fed = maintainer.fed_rows()
        row = sorted(database["r"].rows, key=repr)[0]
        maintainer.apply(Delete("r", row))
        maintainer.apply(Insert("r", row))
        assert maintainer.witness_counts() == baseline_counts
        assert maintainer.fed_rows() == baseline_fed
        assert maintainer.count == count_brute_force(TRIANGLE, database)

    def test_noop_insert_then_delete_is_identity(self):
        rng = random.Random(6)
        database = seed_database(rng)
        maintainer = ReducedMaintainer(QUANT, database)
        baseline_counts = maintainer.witness_counts()
        baseline_fed = maintainer.fed_rows()
        fresh_row = (9, 9)
        assert fresh_row not in database["r"]
        maintainer.apply_batch([Insert("r", fresh_row),
                                Delete("r", fresh_row)])
        assert maintainer.witness_counts() == baseline_counts
        assert maintainer.fed_rows() == baseline_fed

    def test_update_of_foreign_relation_is_ignored(self):
        database = Database.from_dict({"r": [(1, 2)], "s": [(2, 3)],
                                       "zz": [(7, 7)]})
        maintainer = ReducedMaintainer(QUANT, database)
        before = maintainer.witness_counts()
        maintainer.apply(Insert("zz", (8, 8)))
        assert maintainer.witness_counts() == before


# ----------------------------------------------------------------------
# Compiled construction == per-row matching over every part
# ----------------------------------------------------------------------
PROPERTY_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Constants, repeated variables and permuted variable orders over
#: arities 1-3 (``r(A, B, C)`` is the only identity permutation).
MATCHED_ATOMS = [
    "r(A)", "r(1)",
    "r(A, B)", "r(B, A)", "r(A, A)", "r(A, 1)", "r(2, B)",
    "r(A, B, C)", "r(C, A, B)", "r(B, B, A)", "r(A, 2, A)", "r(1, C, 0)",
]

#: The triangle, the quantified star, a self-join whose bag parts
#: repeat one relation symbol, the 5-cycle (a bag with a variable
#: outside it: witness counts above 1), and atoms with constants and
#: repeated variables.
SELF_JOIN = parse_query("ans(A, B) :- r(A, B), r(B, A)")
STAR = parse_query("ans(A, B) :- r(A, B), s(B, C), t(A, D)")
FIVE_CYCLE = parse_query(
    "ans(A, B) :- r(A, B), s(B, C), t(C, D), u(D, E), v(E, A)")
CONSTANTS = parse_query("ans(A, C) :- r(A, B), s(B, B), t(B, 2), r(C, A)")
FOLDED_QUERIES = [TRIANGLE, STAR, SELF_JOIN, FIVE_CYCLE, CONSTANTS]
FOLDED_IDS = ["triangle", "quantified", "self_join", "five_cycle",
              "constants"]

#: A checkpoint of a triangle maintainer over TRIANGLE_CHECKPOINT_DATA,
#: written (format 3) when construction still folded every bag
#: pairwise.
TRIANGLE_CHECKPOINT = Path(__file__).parent / "data" / "triangle_v3.maint"
TRIANGLE_CHECKPOINT_DATA = {
    "r": [(1, 2), (2, 3), (3, 1), (1, 3)],
    "s": [(2, 3), (3, 1), (1, 2), (3, 3)],
    "t": [(3, 1), (1, 2), (2, 3), (3, 2)],
}


def reference_witness_counts(maintainer, database):
    """Per bag: the witness counts by a nested-loop enumeration over
    *every* part's atom, repeated atoms included.  Each binding of the
    parts' variables that every atom matches is one witness of the bag
    row it projects to.  Shares no code with the maintainer's build or
    delta joins."""
    counts = []
    for state in maintainer._bags:
        atoms = [part.atom for part in state.parts]
        witnesses = Counter()

        def extend(depth, binding):
            if depth == len(atoms):
                witnesses[tuple(binding[v] for v in state.schema)] += 1
                return
            atom = atoms[depth]
            for row in database[atom.relation]:
                bound = dict(binding)
                for term, value in zip(atom.terms, row):
                    if isinstance(term, Variable):
                        if bound.setdefault(term, value) != value:
                            break
                    elif term.value != value:
                        break
                else:
                    extend(depth + 1, bound)

        extend(0, {})
        counts.append(dict(witnesses))
    return counts


class TestCompiledConstruction:
    @pytest.mark.parametrize("atom_text", MATCHED_ATOMS)
    @settings(**PROPERTY_SETTINGS)
    @given(rows=st.lists(st.lists(st.integers(0, 2), min_size=3,
                                  max_size=3), max_size=30))
    def test_matcher_agrees_with_per_row_match(self, atom_text, rows):
        [atom] = parse_query(f"ans() :- {atom_text}").atoms
        rows = {tuple(row[:atom.arity]) for row in rows}
        matcher = AtomMatcher(atom)
        expected = [_atom_match(atom, row) for row in rows]
        assert [matcher.match(row) for row in rows] == expected
        assert Counter(matcher.match_rows(frozenset(rows))) == Counter(
            row for row in expected if row is not None
        )
        if matcher.plain:
            assert None not in expected  # plain atoms match every row

    @pytest.mark.parametrize("backend", ["tuple", "columnar"])
    @pytest.mark.parametrize("query", FOLDED_QUERIES, ids=FOLDED_IDS)
    @settings(**PROPERTY_SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_distinct_atom_fold_matches_every_part(self, backend, query,
                                                   seed):
        rng = random.Random(seed)
        data = {name: list({(rng.randrange(4), rng.randrange(4))
                            for _ in range(rng.randrange(1, 12))})
                for name in sorted(query.relation_symbols)}
        with isolated_repro_env(REPRO_BACKEND=backend):
            database = Database.from_dict(data)
            maintainer = ReducedMaintainer(query, database)
            assert maintainer.witness_counts() == reference_witness_counts(
                maintainer, database
            )
            assert maintainer.count == count_brute_force(query, database)
            for _step in range(6):
                # Domain 5 keeps every relation short of full (at most
                # 11 + 6 of 25 rows), so an insert always finds a row.
                update = random_update(rng, database, domain=5)
                database = apply_update(database, update)
                maintainer.apply(update)
            assert maintainer.witness_counts() == reference_witness_counts(
                maintainer, database
            )
            assert maintainer.count == count_brute_force(query, database)

    @pytest.mark.parametrize("backend", ["tuple", "columnar"])
    def test_five_cycle_bag_counts_every_completion(self, backend):
        """A bag with a variable outside it counts each bag row's
        completions: on a dense graph, some bag row has several."""
        edges = [(a, b) for a in range(4) for b in range(4) if a != b]
        data = {name: edges for name in "rstuv"}
        with isolated_repro_env(REPRO_BACKEND=backend):
            database = Database.from_dict(data)
            maintainer = ReducedMaintainer(FIVE_CYCLE, database)
            counts = maintainer.witness_counts()
            assert counts == reference_witness_counts(maintainer, database)
            assert max(max(bag.values()) for bag in counts) > 1
            assert maintainer.count == count_brute_force(FIVE_CYCLE,
                                                         database)

    def test_checkpoint_written_by_the_fold_build_restores(self):
        database = Database.from_dict(TRIANGLE_CHECKPOINT_DATA)
        payload = deserialize_maintainer_state(
            TRIANGLE_CHECKPOINT.read_bytes())
        restored = payload["counter"]
        fresh = ReducedMaintainer(TRIANGLE, database)
        assert restored.witness_counts() == fresh.witness_counts()
        assert restored.count == fresh.count == count_brute_force(
            TRIANGLE, database)
        rng = random.Random(5)
        for _step in range(6):
            update = random_update(rng, database)
            database = apply_update(database, update)
            restored.apply(update)
            assert restored.count == count_brute_force(TRIANGLE, database)

    def test_parts_keep_one_entry_per_atom_occurrence(self):
        """The delta path telescopes over repeated parts, so the fold's
        distinct-atom shortcut must leave every part in place, each
        with its own row set."""
        database = Database.from_dict({"r": [(1, 2), (2, 1), (3, 4)]})
        maintainer = ReducedMaintainer(SELF_JOIN, database)
        atoms = [part.atom for state in maintainer._bags
                 for part in state.parts]
        assert len(atoms) > len(set(atoms))
        for state in maintainer._bags:
            for part in state.parts:
                expected = {_atom_match(part.atom, row)
                            for row in database[part.atom.relation]}
                assert part.rows == expected - {None}
            rows = [id(part.rows) for part in state.parts]
            assert len(rows) == len(set(rows))

    def test_part_checkpoint_state_carries_no_matcher(self):
        """Parts pickle to the matcher-less slot layout, so checkpoints
        written before the compiled matcher restore unchanged."""
        database = Database.from_dict({"r": [(1, 2)], "s": [(2, 3)],
                                       "t": [(3, 1)]})
        maintainer = ReducedMaintainer(TRIANGLE, database)
        part = maintainer._bags[0].parts[0]
        empty, slots = part.__getstate__()
        assert empty is None
        assert set(slots) == {"atom", "schema", "rows", "_indexes"}
        restored = pickle.loads(pickle.dumps(maintainer))
        restored.apply(Insert("r", (2, 3)))
        restored.apply(Insert("s", (3, 3)))
        restored.apply(Insert("t", (3, 2)))
        database = Database.from_dict({
            "r": [(1, 2), (2, 3)], "s": [(2, 3), (3, 3)],
            "t": [(3, 1), (3, 2)],
        })
        assert restored.count == count_brute_force(TRIANGLE, database)


# ----------------------------------------------------------------------
# The counting-semijoin delta reducer == the batch reducers
# ----------------------------------------------------------------------
class TestDeltaReducerProperty:
    """`DeltaReducer` == `full_reducer` == `CompiledReducer`, always.

    The delta reducer maintains the global-consistency fixpoint through
    per-edge support counters and changed-key frontier propagation;
    these properties pin it, on random join trees and random membership
    streams, to the two batch reducers it replaces on the read path —
    including the empty-propagation contract, pickle round trips
    mid-stream, and the ``steps()`` relink path.
    """

    @staticmethod
    def random_tree(rng):
        from repro.hypergraph.acyclicity import JoinTree

        n = rng.randint(1, 6)
        edges = tuple((rng.randrange(v), v) for v in range(1, n))
        pool = [Variable(f"x{i:02d}") for i in range(10)]
        schemas = [set() for _ in range(n)]
        for a, b in edges:
            shared = rng.sample(pool, rng.randint(1, 2))
            schemas[a].update(shared)
            schemas[b].update(shared)
        for bag in schemas:
            if not bag or rng.random() < 0.5:
                bag.add(rng.choice(pool))
        schemas = [tuple(sorted(bag, key=lambda v: v.name))
                   for bag in schemas]
        tree = JoinTree(bags=tuple(frozenset(s) for s in schemas),
                        edges=edges)
        return tree, schemas

    @staticmethod
    def batch_expectation(schemas, tree, rows):
        from repro.consistency.pairwise import full_reducer
        from repro.db.algebra import SubstitutionSet

        reduced = full_reducer(
            [SubstitutionSet(schema, frozenset(bag_rows))
             for schema, bag_rows in zip(schemas, rows)],
            tree,
        )
        return [bag.rows for bag in reduced]

    @pytest.mark.parametrize("seed", range(10))
    def test_reducers_agree_on_random_streams(self, seed):
        import pickle

        from repro.consistency.delta import DeltaReducer
        from repro.consistency.local import CompiledReducer

        rng = random.Random(seed * 31 + 5)
        for _trial in range(6):
            tree, schemas = self.random_tree(rng)
            n = len(schemas)
            rows = [
                {tuple(rng.randrange(4) for _ in schema)
                 for _ in range(rng.randrange(8))}
                for schema in schemas
            ]
            delta = DeltaReducer(schemas, tree)
            compiled = CompiledReducer(schemas, tree)
            seeded = delta.reduce([frozenset(bag) for bag in rows])
            assert seeded == self.batch_expectation(schemas, tree, rows)
            for step in range(10):
                bag = rng.randrange(n)
                width = len(schemas[bag])
                added = {
                    tuple(rng.randrange(4) for _ in range(width))
                    for _ in range(rng.randrange(3))
                } - rows[bag]
                removed = set(rng.sample(
                    sorted(rows[bag]),
                    min(len(rows[bag]), rng.randrange(3)),
                ))
                rows[bag] = (rows[bag] - removed) | added
                delta.apply(bag, added, removed)
                expect = self.batch_expectation(schemas, tree, rows)
                assert expect == compiled.reduce(
                    [frozenset(bag_rows) for bag_rows in rows]
                )
                gated = delta.any_empty()
                state = [frozenset() if gated else delta.survivors(i)
                         for i in range(n)]
                assert expect == state
                assert [delta.survivor_count(i) for i in range(n)] \
                    == [len(delta.survivors(i)) for i in range(n)]
                if step == 4:
                    # Mid-stream pickle round trip relinks the key
                    # extractors and keeps every counter.
                    delta = pickle.loads(pickle.dumps(delta))

    def test_steps_relink_matches_fresh_construction(self):
        from repro.consistency.delta import DeltaReducer

        rng = random.Random(99)
        tree, schemas = self.random_tree(rng)
        rows = [
            {tuple(rng.randrange(3) for _ in schema) for _ in range(5)}
            for schema in schemas
        ]
        original = DeltaReducer(schemas, tree)
        relinked = DeltaReducer.from_steps(original.steps())
        assert original.steps() == relinked.steps()
        assert original.reduce([frozenset(bag) for bag in rows]) \
            == relinked.reduce([frozenset(bag) for bag in rows])

    def test_estimated_cells_tracks_membership(self):
        from repro.consistency.delta import DeltaReducer

        rng = random.Random(3)
        tree, schemas = self.random_tree(rng)
        reducer = DeltaReducer(schemas, tree)
        reducer.reduce([frozenset() for _ in schemas])
        empty_cells = reducer.estimated_cells()
        reducer.reduce([
            frozenset(tuple(rng.randrange(3) for _ in schema)
                      for _ in range(6))
            for schema in schemas
        ])
        assert reducer.estimated_cells() > empty_cells


# ----------------------------------------------------------------------
# Pool integration: spill, restore, journal replay
# ----------------------------------------------------------------------
class TestReducedMaintainerPool:
    def _form(self, query):
        return canonical_form(query)

    def test_spill_restore_and_journal_replay(self, tmp_path):
        rng = random.Random(11)
        database = seed_database(rng)
        pool = MaintainerPool(budget_bytes=1, spill_dir=str(tmp_path))
        entry = pool.counter_for("db", QUANT, database, self._form(QUANT))
        assert entry.count == count_brute_force(QUANT, database)
        # Evict it by pulling a second shape in (budget 1 keeps one).
        other = pool.counter_for("db", TRIANGLE, database,
                                 self._form(TRIANGLE))
        assert other.count == count_brute_force(TRIANGLE, database)
        assert pool.stats()["spilled"] >= 1
        # Update while the first maintainer is cold: journal replay.
        update = Insert("r", (9, 9))
        database2 = apply_update(database, update)
        pool.apply("db", [update])
        restored = pool.counter_for("db", QUANT, database2,
                                    self._form(QUANT))
        assert restored.count == count_brute_force(QUANT, database2)
        assert pool.stats()["restored"] >= 1
        pool.close()

    def test_stats_report_reduced_entries(self):
        rng = random.Random(8)
        database = seed_database(rng)
        pool = MaintainerPool(budget_bytes=None)
        pool.counter_for("db", QUANT, database, self._form(QUANT))
        stats = pool.stats()
        assert stats["reduced_maintainers"] == 1
        assert stats["built_reduced"] == 1
        pool.close()

    def test_read_resamples_resident_bytes(self):
        """A count read lazily repairs (and grows) a reduced DP; the
        session must re-sample its size so the pool's budget accounting
        never trails what is actually resident."""
        rng = random.Random(5)
        database = seed_database(rng)
        with CountingSession(databases={"main": database}) as session:
            session.count(CountRequest(QUANT, "main"))
            for value in range(20, 40):
                session.update("main", Insert("r", (value, value)))
            session.count(CountRequest(QUANT, "main"))  # repairs lazily
            pool = session._maintainers
            [entry] = pool._entries.values()
            assert entry.resident_bytes == entry.counter.estimated_bytes()
            assert pool.resident_bytes() == entry.resident_bytes

    def test_version1_checkpoint_is_rejected(self):
        blob = _serialize({"key": "x"}, _MAINTAINER_MAGIC, 1)
        assert MAINTAINER_FORMAT_VERSION != 1
        with pytest.raises(PlanSerializationError):
            deserialize_maintainer_state(blob)

    def test_version2_checkpoint_is_rejected(self):
        """The delta-reducer bag-state layout bumped the format to 3: a
        version-2 envelope (fed-row snapshot / dirty-bit layout) would
        unpickle into the wrong slot set and must be rejected — the pool
        then rebuilds the maintainer from the database, as for v1."""
        blob = _serialize({"key": "x"}, _MAINTAINER_MAGIC, 2)
        assert MAINTAINER_FORMAT_VERSION == 3
        with pytest.raises(PlanSerializationError):
            deserialize_maintainer_state(blob)

    def test_spill_restore_mid_stream_matches_rebuild(self, tmp_path):
        """A checkpoint round trip drops the delta reducer (its support
        counters are reseeded on the next read); the restored maintainer
        must keep answering — and keep its fed/provenance state — as if
        it had never been spilled, across further updates."""
        rng = random.Random(23)
        database = seed_database(rng)
        pool = MaintainerPool(budget_bytes=1, spill_dir=str(tmp_path))
        entry = pool.counter_for("db", TRIANGLE, database,
                                 self._form(TRIANGLE))
        for _step in range(6):
            update = random_update(rng, database)
            database = apply_update(database, update)
            pool.apply("db", [update])
        # Force the eviction/spill of the triangle maintainer.
        pool.counter_for("db", QUANT, database, self._form(QUANT))
        assert pool.stats()["spilled"] >= 1
        # Updates landing while cold go through the journal.
        for _step in range(4):
            update = random_update(rng, database)
            database = apply_update(database, update)
            pool.apply("db", [update])
        restored = pool.counter_for("db", TRIANGLE, database,
                                    self._form(TRIANGLE))
        assert restored.count == count_brute_force(TRIANGLE, database)
        # And the reseeded reducer keeps evolving incrementally.
        for _step in range(4):
            update = random_update(rng, database)
            database = apply_update(database, update)
            pool.apply("db", [update])
            assert pool.counter_for(
                "db", TRIANGLE, database, self._form(TRIANGLE)
            ).count == count_brute_force(TRIANGLE, database)
        pool.close()

    def test_pickle_roundtrip_reseeds_and_matches_rebuild(self):
        """A checkpoint (pickle) round trip drops the delta reducer; the
        first read after restore reseeds it with a full reduction, after
        which every introspection surface matches a from-scratch
        rebuild and further deltas keep applying incrementally."""
        import pickle

        rng = random.Random(41)
        database = seed_database(rng)
        maintainer = ReducedMaintainer(TRIANGLE, database)
        for _step in range(6):
            update = random_update(rng, database)
            database = apply_update(database, update)
            maintainer.apply(update)
        restored = pickle.loads(pickle.dumps(maintainer))
        assert restored._delta_reducer is None  # dropped by __getstate__
        for _step in range(4):
            update = random_update(rng, database)
            database = apply_update(database, update)
            restored.apply(update)
        fresh = ReducedMaintainer(TRIANGLE, database)
        assert restored.count == fresh.count
        assert restored.local_bag_rows() == fresh.local_bag_rows()
        assert restored.witness_counts() == fresh.witness_counts()
        assert restored.fed_rows() == fresh.fed_rows()
        assert restored.count == count_brute_force(TRIANGLE, database)

    def test_rebuild_consistency_is_idempotent_on_answers(self):
        """`rebuild_consistency` (the restore path's reseed, exposed for
        the benchmark baseline) must never change observable state."""
        rng = random.Random(31)
        database = seed_database(rng)
        maintainer = ReducedMaintainer(TRIANGLE, database)
        for _step in range(5):
            update = random_update(rng, database)
            database = apply_update(database, update)
            maintainer.apply(update)
        before_count = maintainer.count
        before_fed = maintainer.fed_rows()
        maintainer.rebuild_consistency()
        assert maintainer.count == before_count
        assert maintainer.fed_rows() == before_fed


# ----------------------------------------------------------------------
# The maintainability memo: one plain verdict per shape
# ----------------------------------------------------------------------
class TestMaintainabilityMemoVersioning:
    def test_current_false_verdict_short_circuits(self):
        rng = random.Random(1)
        database = seed_database(rng)
        with CountingSession(databases={"main": database}) as session:
            form = session.plan_cache.canonical(QUANT)
            session._maintainable[form.fingerprint] = False
            result = session.count(CountRequest(QUANT, "main"))
            assert result.strategy != "maintained"
            assert result.count == count_answers(QUANT, database).count

    def test_verdicts_are_memoized_at_current_version(self):
        rng = random.Random(1)
        database = seed_database(rng)
        with CountingSession(databases={"main": database}) as session:
            session.count(CountRequest(QUANT, "main"))
            form = session.plan_cache.canonical(QUANT)
            assert session._maintainable[form.fingerprint] is True
