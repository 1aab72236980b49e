"""Persistence round-trips for the plan cache (ISSUE 3).

Plans must survive save/load across cache instances (and processes); a
corrupted or stale spill entry must be detected and silently rebuilt —
never served; a fresh service over a populated directory must answer
without re-planning; and a dynamic update must invalidate exactly the
data-dependent plans whose relation contents it touches.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.counting.engine import clear_engine_memo, count_answers
from repro.counting.plan_cache import (
    ENTRY_SUFFIX,
    PersistentPlanCache,
    PlanCache,
    default_plan_cache,
    relation_content_tag,
    stable_key_digest,
    stable_key_render,
)
from repro.db import Database
from repro.decomposition.serialize import (
    PlanSerializationError,
    deserialize_plan,
    serialize_plan,
)
from repro.decomposition.sharp import find_sharp_hypertree_decomposition
from repro.dynamic import Insert, apply_update
from repro.envknobs import isolated_repro_env
from repro.query import parse_query
from repro.service import CountingService, CountingSession, CountRequest
from repro.workloads.batch_jobs import batch_jobs

TRIANGLE = parse_query("ans(A) :- r(A, B), s(B, C), t(C, A)")
PATH = parse_query("ans(A, B, C) :- r(A, B), s(B, C)")


def triangle_database(bump: int = 0) -> Database:
    return Database.from_dict({
        "r": [(1, 2), (2, 3), (7 + bump, 8 + bump)],
        "s": [(2, 3), (3, 1)],
        "t": [(3, 1), (1, 2)],
    })


def entry_files(directory):
    return sorted(
        name for name in os.listdir(directory)
        if name.endswith(ENTRY_SUFFIX)
    )


class TestPlanBlobs:
    def test_round_trip_of_every_plan_kind(self):
        for plan in (True, None, 42):
            assert deserialize_plan(serialize_plan(plan)) == plan
        sharp = find_sharp_hypertree_decomposition(TRIANGLE, 2)
        assert sharp is not None
        restored = deserialize_plan(serialize_plan(sharp))
        assert restored.is_valid()
        assert restored.query == sharp.query
        assert restored.tree.bags == sharp.tree.bags
        width, witness = deserialize_plan(serialize_plan((2, sharp)))
        assert width == 2 and witness.is_valid()

    def test_corrupted_blob_is_rejected(self):
        blob = serialize_plan(True)
        with pytest.raises(PlanSerializationError):
            deserialize_plan(blob[:-3] + b"zzz")
        with pytest.raises(PlanSerializationError):
            deserialize_plan(b"garbage-no-envelope")

    def test_foreign_version_is_rejected(self):
        blob = serialize_plan(True)
        magic, version, rest = blob.split(b":", 2)
        with pytest.raises(PlanSerializationError):
            deserialize_plan(magic + b":999:" + rest)

    def test_unpicklable_plan_raises(self):
        with pytest.raises(PlanSerializationError):
            serialize_plan(lambda: None)


class TestStableKeys:
    def test_render_sorts_unordered_containers(self):
        a = ("k", frozenset({("x", 1), ("y", 2)}), 3)
        b = ("k", frozenset({("y", 2), ("x", 1)}), 3)
        assert stable_key_render(a) == stable_key_render(b)
        assert stable_key_digest(a) == stable_key_digest(b)

    def test_distinct_keys_render_differently(self):
        assert (stable_key_render(("k", 1)) != stable_key_render(("k", "1")))
        assert stable_key_digest(("k", math.inf)) != \
            stable_key_digest(("k", 2.0))


class TestPersistentRoundTrip:
    def test_plans_survive_into_a_fresh_cache(self, tmp_path):
        directory = str(tmp_path / "plans")
        first = PersistentPlanCache(directory)
        result = count_answers(TRIANGLE, triangle_database(),
                               plan_cache=first)
        assert first.persisted > 0
        assert entry_files(directory)

        warm = PersistentPlanCache(directory)
        again = count_answers(TRIANGLE, triangle_database(), plan_cache=warm)
        assert again.count == result.count
        stats = warm.stats()
        assert stats["misses"] == 0, "warm cache must not re-plan"
        assert stats["disk_hits"] > 0

    def test_corrupted_entry_is_detected_and_rebuilt(self, tmp_path):
        directory = str(tmp_path / "plans")
        cache = PersistentPlanCache(directory)
        expected = count_answers(TRIANGLE, triangle_database(),
                                 plan_cache=cache).count
        victims = entry_files(directory)
        for name in victims:
            with open(os.path.join(directory, name), "w") as handle:
                handle.write("{definitely not json")

        rebuilt = PersistentPlanCache(directory)
        result = count_answers(TRIANGLE, triangle_database(),
                               plan_cache=rebuilt)
        assert result.count == expected
        stats = rebuilt.stats()
        assert stats["disk_rejected"] >= 1
        assert stats["misses"] >= 1  # recomputed, not served corrupt
        # ... and the next cache sees healthy, rebuilt entries.
        healthy = PersistentPlanCache(directory)
        assert count_answers(TRIANGLE, triangle_database(),
                             plan_cache=healthy).count == expected
        assert healthy.stats()["disk_rejected"] == 0

    def test_stale_entry_key_mismatch_is_rejected(self, tmp_path):
        """An entry whose stored key doesn't match the requested key (a
        stale file smuggled under the wrong digest) must be refused."""
        directory = str(tmp_path / "plans")
        cache = PersistentPlanCache(directory)
        count_answers(TRIANGLE, triangle_database(), plan_cache=cache)
        # Stale every entry: a warm compiled-tier run only consults the
        # compiled artifact, so a single victim might never be read.
        for name in entry_files(directory):
            path = os.path.join(directory, name)
            with open(path) as handle:
                entry = json.load(handle)
            entry["key"] = entry["key"] + "STALE"
            with open(path, "w") as handle:
                json.dump(entry, handle)

        suspicious = PersistentPlanCache(directory)
        count_answers(TRIANGLE, triangle_database(), plan_cache=suspicious)
        assert suspicious.stats()["disk_rejected"] >= 1

    def test_changed_database_contents_never_reuse_hybrid_plans(
            self, tmp_path):
        """Content-fingerprint mismatch: a data-dependent plan cached for
        one database version is not served for another."""
        directory = str(tmp_path / "plans")
        cache = PersistentPlanCache(directory)
        original = triangle_database()
        count_answers(TRIANGLE, original, method="hybrid", plan_cache=cache)
        computes = cache.stats()["misses"]

        fresh = PersistentPlanCache(directory)
        count_answers(TRIANGLE, triangle_database(bump=5), method="hybrid",
                      plan_cache=fresh)
        assert fresh.stats()["misses"] >= 1, (
            "a different database content must re-plan, not reuse"
        )
        assert computes >= 1

    def test_clear_drops_the_disk_tier_too(self, tmp_path):
        directory = str(tmp_path / "plans")
        cache = PersistentPlanCache(directory)
        count_answers(TRIANGLE, triangle_database(), plan_cache=cache)
        assert cache.disk_entries() > 0
        cache.clear()
        assert cache.disk_entries() == 0
        assert len(cache) == 0


class TestWarmStart:
    def test_fresh_service_answers_without_replanning(self, tmp_path):
        directory = str(tmp_path / "plans")
        jobs = batch_jobs(n_jobs=6, n_shapes=2, seed=9,
                          n_variables=5, n_atoms=4, domain_size=5,
                          tuples_per_relation=12)
        # Populate the spill directory once.
        with CountingService(cache_dir=directory) as warmup:
            expected = [r.count for r in warmup.run_batch(jobs)]
        assert PersistentPlanCache(directory).disk_entries() > 0

        # A *fresh* service over the populated directory must serve
        # every job from disk, with zero plan computes.
        with CountingService(cache_dir=directory) as fresh:
            counts = [r.count for r in fresh.run_batch(jobs)]
            stats = fresh.stats()
        assert counts == expected
        assert stats["misses"] == 0, f"fresh service re-planned: {stats}"
        assert stats["disk_hits"] > 0

    def test_default_cache_honors_environment(self, tmp_path):
        directory = str(tmp_path / "env-plans")
        with isolated_repro_env(REPRO_PLAN_CACHE_DIR=directory):
            cache = default_plan_cache()
            assert isinstance(cache, PersistentPlanCache)
            assert cache.directory == os.path.abspath(directory)
            count_answers(TRIANGLE, triangle_database())
            assert cache.disk_entries() > 0
            clear_engine_memo()  # must drop the disk tier as well
            assert cache.disk_entries() == 0


class TestTargetedInvalidation:
    """ISSUE 3 satellite: an update invalidates exactly what it touches."""

    def test_update_invalidates_only_touched_fingerprints(self, tmp_path):
        directory = str(tmp_path / "plans")
        cache = PersistentPlanCache(directory)
        db_a = triangle_database()
        db_b = triangle_database(bump=3)
        count_answers(TRIANGLE, db_a, method="hybrid", plan_cache=cache)
        count_answers(TRIANGLE, db_b, method="hybrid", plan_cache=cache)
        count_answers(TRIANGLE, db_a, method="structural", plan_cache=cache)
        before = len(cache)
        disk_before = cache.disk_entries()

        # Updating r in db_a touches db_a's hybrid plan only: db_b's
        # hybrid plan and the shape-only structural plan must survive.
        dropped = cache.invalidate_tags(relation_content_tag(db_a["r"]))
        assert dropped >= 1
        assert len(cache) < before
        assert cache.disk_entries() < disk_before

        # db_b's hybrid plan still serves without recomputation...
        misses = cache.stats()["misses"]
        count_answers(TRIANGLE, db_b, method="hybrid", plan_cache=cache)
        assert cache.stats()["misses"] == misses
        # ...as does the shape-only structural plan.
        count_answers(TRIANGLE, db_a, method="structural", plan_cache=cache)
        assert cache.stats()["misses"] == misses
        # The invalidated hybrid plan recomputes (and is correct).
        updated = apply_update(db_a, Insert("r", (9, 9)))
        fresh = count_answers(TRIANGLE, updated, method="hybrid",
                              plan_cache=cache)
        assert fresh.count == count_answers(
            TRIANGLE, updated, method="brute_force").count
        assert cache.stats()["misses"] > misses

    def test_session_update_invalidates_through_its_cache(self):
        """The session wires updates to tag invalidation end to end."""
        cache = PlanCache()
        database = triangle_database()
        with CountingSession(databases={"main": database},
                             plan_cache=cache) as session:
            session.count(CountRequest(TRIANGLE, "main", method="hybrid"))
            session.count(CountRequest(PATH, "main"))  # shape-only plans
            assert len(cache) >= 1
            ack = session.update("main", Insert("r", (41, 42)))
            assert ack["invalidated_plans"] >= 1
            # Counting again after the update replans against the new
            # contents and agrees with brute force.
            result = session.count(
                CountRequest(TRIANGLE, "main", method="hybrid"))
            expected = count_answers(
                TRIANGLE, session.database("main"),
                method="brute_force").count
            assert result.count == expected

    def test_untagged_plans_are_never_invalidated(self):
        cache = PlanCache()
        count_answers(PATH, triangle_database(), plan_cache=cache)
        plans_before = len(cache)
        assert cache.invalidate_tags("no-such-tag") == 0
        assert cache.invalidate_tags() == 0
        assert len(cache) == plans_before
