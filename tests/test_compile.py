"""The compiled plan-execution tier (ISSUE 6).

A cached decomposition is lowered once into a :class:`CompiledProgram`
— a data-only artifact of per-bag scan/fold steps plus a flat join-tree
DP — linked into executable form on demand, and shared through the
persistent plan cache.  These tests pin down:

* lowering is deterministic (same query -> same program, same digest);
* ``link`` verifies the artifact digest and rejects tampering, and
  memoizes executables per digest;
* compiled counts agree with brute force on hand-picked shapes
  (constants, repeated variables, self joins, quantifiers) and a
  random corpus;
* compiled artifacts ride the versioned, checksummed plan envelopes
  (round-trip + corruption rejection) and warm-start from a
  :class:`PersistentPlanCache` directory;
* the service layer reports ``compiled_counts`` at every stats level.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.counting.brute_force import count_brute_force
from repro.counting.compile import (
    CompiledProgram,
    link,
    lower_acyclic,
    lower_structural,
    program_digest,
)
from repro.counting.engine import count_answers
from repro.counting.plan_cache import PersistentPlanCache, PlanCache
from repro.db import Database
from repro.decomposition.serialize import (
    COMPILED_FORMAT_VERSION,
    PlanSerializationError,
    deserialize_plan,
    serialize_plan,
)
from repro.decomposition.sharp import find_sharp_hypertree_decomposition
from repro.exceptions import DecompositionNotFoundError
from repro.query import parse_query
from repro.service import (
    AttachDatabase,
    CountRequest,
    CountingSession,
    MultiWriterSession,
)
from repro.workloads.random_instances import random_instance

PATH = parse_query("ans(A, B, C) :- r(A, B), s(B, C)")
QUANTIFIED_STAR = parse_query("ans(A) :- r(A, B), s(A, C)")
TRIANGLE = parse_query("ans(A) :- r(A, B), s(B, C), t(C, A)")


def path_database() -> Database:
    return Database.from_dict({
        "r": [(1, 2), (2, 3), (4, 2), (5, 9)],
        "s": [(2, 7), (3, 7), (9, 1), (8, 8)],
    })


def triangle_database() -> Database:
    return Database.from_dict({
        "r": [(1, 2), (2, 3), (3, 1), (7, 8)],
        "s": [(2, 3), (3, 1), (1, 2), (8, 7)],
        "t": [(3, 1), (1, 2), (2, 3)],
    })


# ----------------------------------------------------------------------
# Lowering and linking
# ----------------------------------------------------------------------
class TestLowering:
    def test_lowering_is_deterministic(self):
        first = lower_acyclic(PATH)
        second = lower_acyclic(PATH)
        assert first == second
        assert first.digest == second.digest
        assert program_digest(first) == first.digest

    def test_structural_lowering_is_deterministic(self):
        decomposition = find_sharp_hypertree_decomposition(TRIANGLE, 2)
        assert decomposition is not None
        first = lower_structural(TRIANGLE, decomposition)
        second = lower_structural(TRIANGLE, decomposition)
        assert first == second
        assert first.kind == "structural"
        assert first.width == decomposition.width()

    def test_program_is_data_only(self):
        """The artifact must never smuggle code: every field pickles to
        plain strings/ints/tuples (the envelope relies on this)."""
        program = lower_acyclic(PATH)
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program
        assert clone.digest == program.digest

    def test_link_memoizes_per_digest(self):
        first = link(lower_acyclic(PATH))
        second = link(lower_acyclic(PATH))
        assert first is second

    def test_tampered_digest_is_rejected(self):
        program = lower_acyclic(PATH)
        forged = dataclasses.replace(program, digest="0" * 64)
        with pytest.raises(PlanSerializationError):
            link(forged)

    def test_link_verifies_each_program_object_once(self, monkeypatch):
        """Relinking a verified program object skips the digest: the
        plan cache hands every count the same object."""
        from repro.counting import compile as compile_module

        program = lower_acyclic(parse_query(
            "ans(A, B, C, D) :- r(A, B), s(B, C), t(C, D)"))
        calls = []

        def counting_digest(target):
            calls.append(target)
            return program_digest(target)

        monkeypatch.setattr(compile_module, "program_digest",
                            counting_digest)
        first = link(program)
        assert link(program) is first and link(program) is first
        assert calls == [program]
        # An equal program is another object: verified on its first link.
        twin = pickle.loads(pickle.dumps(program))
        assert link(twin) is first
        assert len(calls) == 2

    def test_forged_twin_of_a_linked_program_is_rejected(self):
        program = lower_acyclic(PATH)
        link(program)
        forged = dataclasses.replace(program, digest="f" * 64)
        for _ in range(2):
            with pytest.raises(PlanSerializationError):
                link(forged)

    def test_forged_artifact_loaded_from_a_plan_directory_is_rejected(
            self, tmp_path):
        """A forged digest inside a well-formed envelope loads — the
        envelope checksum covers what was written — and is refused by
        its first link."""
        program = lower_acyclic(PATH)
        link(program)
        forged = dataclasses.replace(program, digest="0" * 64)
        directory = str(tmp_path / "plans")
        key = ("compiled", ("forged",), 3, COMPILED_FORMAT_VERSION)
        PersistentPlanCache(directory).plan(key, lambda: forged)
        loaded, cached = PersistentPlanCache(directory).plan(
            key, lambda: pytest.fail("the artifact was not loaded"))
        assert cached and loaded == forged and loaded is not forged
        with pytest.raises(PlanSerializationError):
            link(loaded)

    def test_tampered_steps_are_rejected(self):
        """Editing any step invalidates the digest over the program
        description, so a stale or doctored artifact never executes."""
        program = lower_acyclic(PATH)
        doctored = dataclasses.replace(
            program, free_positions=((0,),) * len(program.bags))
        with pytest.raises(PlanSerializationError):
            link(doctored)


# ----------------------------------------------------------------------
# Semantics: compiled == brute force
# ----------------------------------------------------------------------
HAND_PICKED = [
    ("path", PATH, path_database()),
    ("quantified-star", QUANTIFIED_STAR, path_database()),
    ("triangle", TRIANGLE, triangle_database()),
    ("constant", parse_query("ans(A) :- r(A, 2)"), path_database()),
    ("repeated-var", parse_query("ans(A) :- s(A, A)"), path_database()),
    ("self-join", parse_query("ans(A, B) :- r(A, B), r(B, A)"),
     Database.from_dict({"r": [(1, 2), (2, 1), (3, 3), (4, 5)]})),
    ("dangling-rows", PATH,
     Database.from_dict({"r": [(1, 2), (5, 6)], "s": [(2, 3)]})),
    ("empty-join", PATH,
     Database.from_dict({"r": [(1, 2)], "s": [(9, 9)]})),
]


@pytest.mark.parametrize("label,query,database", HAND_PICKED,
                         ids=[label for label, _, _ in HAND_PICKED])
def test_compiled_count_matches_brute_force(label, query, database):
    result = count_answers(query, database, method="compiled", max_width=3,
                           plan_cache=PlanCache())
    assert result.strategy == "compiled"
    assert result.details["compiled"] is True
    assert result.count == count_brute_force(query, database)


def test_compiled_matches_brute_on_random_corpus():
    agreed = 0
    for seed in range(12):
        query, database = random_instance(
            n_variables=5, n_atoms=4, domain_size=5,
            tuples_per_relation=12, acyclic=seed % 2 == 0, seed=seed + 100,
        )
        try:
            result = count_answers(query, database, method="compiled",
                                   max_width=3, plan_cache=PlanCache())
        except DecompositionNotFoundError:
            continue
        assert result.count == count_brute_force(query, database), seed
        agreed += 1
    assert agreed >= 6  # the differential is never vacuous


# ----------------------------------------------------------------------
# Persistence: envelopes and the persistent plan cache
# ----------------------------------------------------------------------
class TestArtifactPersistence:
    def test_envelope_round_trip(self):
        program = lower_acyclic(PATH)
        blob = serialize_plan(program)
        restored = deserialize_plan(blob)
        assert restored == program
        executable = link(restored)
        assert executable.count(path_database()) == \
            count_brute_force(PATH, path_database())

    def test_corrupted_envelope_is_rejected(self):
        blob = serialize_plan(lower_acyclic(PATH))
        corrupt = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        with pytest.raises(PlanSerializationError):
            deserialize_plan(corrupt)

    def test_format_version_keys_the_artifact(self):
        """Bumping COMPILED_FORMAT_VERSION must orphan stale artifacts:
        the version participates in the cache key."""
        assert isinstance(COMPILED_FORMAT_VERSION, int)
        cache = PlanCache()
        count_answers(PATH, path_database(), plan_cache=cache)
        hot_keys = [key for key in getattr(cache, "_plans", {})
                    if "compiled" in str(key)]
        assert hot_keys, "compiled artifact never reached the plan cache"
        assert any(str(COMPILED_FORMAT_VERSION) in str(key)
                   for key in hot_keys)

    def test_warm_start_from_persistent_cache(self, tmp_path):
        directory = str(tmp_path / "plans")
        cold = count_answers(PATH, path_database(),
                             plan_cache=PersistentPlanCache(directory))
        assert cold.strategy == "compiled"
        assert cold.details["artifact_cached"] is False
        warm = count_answers(PATH, path_database(),
                             plan_cache=PersistentPlanCache(directory))
        assert warm.strategy == "compiled"
        assert warm.details["artifact_cached"] is True
        assert warm.count == cold.count


# ----------------------------------------------------------------------
# Service stats plumbing
# ----------------------------------------------------------------------
class TestStats:
    def test_session_stats_report_compiled_counts(self):
        jobs = [CountRequest(PATH, "main", label=f"c{i}") for i in range(3)]
        with CountingSession(databases={"main": path_database()},
                             maintain=False,
                             plan_cache=PlanCache()) as session:
            session.run_stream(jobs)
            stats = session.stats()
        assert stats["compiled_counts"] == 3
        assert session.compiled_counts == 3
        assert stats["compiled_counts"] <= stats["engine_counts"]

    def test_router_totals_report_compiled_counts(self):
        stream = [AttachDatabase("alpha", triangle_database()),
                  CountRequest(TRIANGLE, "alpha", label="t0"),
                  CountRequest(TRIANGLE, "alpha", label="t1")]
        with MultiWriterSession(shards=2, shard_mode="thread",
                                maintain=False,
                                plan_cache=PlanCache()) as session:
            session.run_streams([stream])
            stats = session.stats()
        # Maintenance is off, so both counts went through the engine's
        # compiled tier.
        assert stats["compiled_counts"] == 2
        assert sum(shard["compiled_counts"]
                   for shard in stats["per_shard"]) == 2
