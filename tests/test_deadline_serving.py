"""Deadline-aware serving: exact when possible, approximate when necessary.

The tentpole contract, locked down end to end:

* the engine's cost model predicts whether the exact strategies fit a
  ``deadline_ms`` budget; on predicted (or observed mid-probe) overrun
  the ``approx`` strategy answers with a first-class
  ``(estimate, epsilon, delta)`` Monte Carlo result;
* cheap shapes are *never* spuriously degraded — a fitting exact
  strategy always wins, and the maintained O(1) path ignores deadlines
  entirely;
* the approximate answer's seed is deterministic in (shape fingerprint,
  database content, sample count), so inline/thread/process shards and
  replays agree bit-for-bit;
* queue wait counts against the deadline: shards shrink the engine
  budget by the time a request spent waiting;
* the homomorphism membership oracle the sampler relies on is correct
  for fully-fixed assignments (the regression that made every sample a
  hit).
"""

from __future__ import annotations

import time

import pytest

from repro.counting.compile import KERNEL_UNITS, count_kernel_ops
from repro.counting.engine import (
    STRATEGIES,
    count_answers,
    cost_units_per_ms,
)
from repro.db import Database
from repro.exceptions import DecompositionNotFoundError
from repro.homomorphism.solver import has_homomorphism, iter_homomorphisms
from repro.query import parse_query
from repro.query.terms import Variable
from repro.service import CountingSession, CountRequest, SessionShard
from repro.service.session import AttachDatabase
from repro.workloads.graph_patterns import heavy_triangle_database

#: A genuinely heavy triangle join: three G(700, 0.08) draws whose
#: exact count (about 175k triangles) takes several times the 50 ms
#: deadlines below, so the approx answer is the honest choice.
HEAVY = heavy_triangle_database()
TRIANGLE = parse_query("ans(A, B, C) :- r(A, B), s(B, C), t(C, A)")

#: Three functional 600-row relations: heavy only in the eyes of a cost
#: model that charges a cyclic bag |r|*|s| — the triangle join has a few
#: hundred rows, and the compiled tier counts it in about a millisecond.
FUNCTIONAL = Database.from_dict({
    "r": [(i, (i * 7) % 600) for i in range(600)],
    "s": [(i, (i * 11) % 600) for i in range(600)],
    "t": [(i, (i * 13) % 600) for i in range(600)],
})

CHEAP_DB = Database.from_dict({
    "r": [(1, 2), (2, 3), (4, 2)],
    "s": [(2, 5), (3, 6)],
})
CHEAP = parse_query("ans(A, C) :- r(A, B), s(B, C)")


class TestEngineDeadline:
    def test_cheap_query_stays_exact_under_deadline(self):
        """No spurious degradation: a fitting exact strategy wins."""
        result = count_answers(CHEAP, CHEAP_DB, deadline_ms=500.0)
        assert result.strategy != "approx"
        assert result.count == count_answers(CHEAP, CHEAP_DB).count
        assert result.details["deadline_ms"] == 500.0
        assert "deadline_missed" not in result.details

    def test_heavy_query_degrades_to_approx(self):
        exact = count_answers(TRIANGLE, HEAVY).count
        started = time.perf_counter()
        result = count_answers(TRIANGLE, HEAVY, deadline_ms=50.0)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        assert result.strategy == "approx"
        details = result.details
        assert details["method"] == "approx"
        assert details["delta"] == pytest.approx(0.05)
        assert details["samples"] >= 16
        # The honesty contract: the exact count lies within the stated
        # epsilon of the estimate (deterministic seed, so this is a
        # fixed outcome, not a flaky statistical one).
        assert abs(details["estimate"] - exact) <= details["epsilon"]
        # The fallback respects the very deadline it serves (wide slack:
        # CI machines are noisy, but 50ms must not become seconds).
        assert elapsed_ms < 2000.0

    def test_decision_trail_records_skips(self):
        result = count_answers(TRIANGLE, HEAVY, deadline_ms=50.0)
        trail = {entry["strategy"]: entry
                 for entry in result.details["decision_trail"]}
        assert trail["approx"]["chosen"]
        skipped = [entry for entry in trail.values()
                   if "skipped" in entry]
        assert skipped, "exact strategies should record why they yielded"
        assert any("deadline overrun" in entry["skipped"]
                   for entry in skipped)
        text = result.explain()
        assert "skipped" in text and "approx" in text

    def test_functional_triangle_fits_the_deadline_exactly(self):
        """The old "heavy" fixture: a triangle over functional relations
        joins to a few hundred rows, and the planner prices the compiled
        generic join by that work — so it answers exactly."""
        result = count_answers(TRIANGLE, FUNCTIONAL.with_backend("tuple"),
                               deadline_ms=50.0)
        assert result.strategy == "compiled"
        assert result.count == count_answers(TRIANGLE, FUNCTIONAL).count
        assert result.details["estimated_cost"] <= \
            result.details["cost_budget_units"]
        assert "deadline_missed" not in result.details

    def test_heavy_premise_holds(self):
        """The premise behind the degradation tests: the exact count of
        the heavy fixture takes well over the 50 ms deadline — counted in
        kernel operations priced at the planner's units, a machine-
        independent figure (wall time on a 2-vCPU VM: about 300 ms)."""
        with count_kernel_ops() as ops:
            exact = count_answers(TRIANGLE, HEAVY, method="compiled")
        assert exact.count > 100_000
        units = sum(KERNEL_UNITS[name] * value
                    for name, value in ops.items())
        assert units >= 2 * 50.0 * cost_units_per_ms()

    def test_budget_units_in_details(self):
        result = count_answers(CHEAP, CHEAP_DB, deadline_ms=100.0)
        assert result.details["cost_budget_units"] == pytest.approx(
            100.0 * cost_units_per_ms()
        )

    def test_deterministic_estimate(self):
        first = count_answers(TRIANGLE, HEAVY, deadline_ms=50.0)
        second = count_answers(TRIANGLE, HEAVY, deadline_ms=50.0)
        assert first.count == second.count
        assert first.details["estimate"] == second.details["estimate"]
        assert first.details["samples"] == second.details["samples"]

    def test_error_budget_alone_keeps_exact_preference(self):
        """error_budget without a deadline enables the approx tier but
        never promotes it over a fitting exact strategy."""
        result = count_answers(CHEAP, CHEAP_DB, error_budget=0.05)
        assert result.strategy != "approx"

    def test_forced_approx_with_error_budget(self):
        exact = count_answers(CHEAP, CHEAP_DB).count
        result = count_answers(CHEAP, CHEAP_DB, method="approx",
                               error_budget=0.02)
        assert result.strategy == "approx"
        assert abs(result.details["estimate"] - exact) <= \
            result.details["epsilon"]

    def test_forced_approx_without_budget_rejected(self):
        with pytest.raises(DecompositionNotFoundError):
            count_answers(CHEAP, CHEAP_DB, method="approx")

    def test_boolean_degenerate_reports_delta_zero(self):
        boolean = parse_query("ans() :- r(A, B)")
        result = count_answers(boolean, CHEAP_DB, method="approx",
                               error_budget=0.1)
        assert result.count == 1
        assert result.details["exact"] is True
        assert result.details["delta"] == 0.0
        assert result.details["epsilon"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            count_answers(CHEAP, CHEAP_DB, deadline_ms=0.0)
        with pytest.raises(ValueError):
            count_answers(CHEAP, CHEAP_DB, deadline_ms=-5.0)
        for bad in (0.0, 1.0, 2.0, -0.1):
            with pytest.raises(ValueError):
                count_answers(CHEAP, CHEAP_DB, error_budget=bad)

    def test_approx_registered_last_of_builtins(self):
        assert STRATEGIES[-1] == "approx"


class TestSessionDeadline:
    def test_maintained_path_ignores_deadline(self):
        """A maintainable shape under an absurdly tight deadline still
        answers exactly from the O(1) maintained count."""
        query = parse_query("ans(A, B) :- r(A, B)")
        database = Database.from_dict({"r": [(1, 2), (3, 4)]})
        with CountingSession(databases={"d": database}) as session:
            result = session.count(
                CountRequest(query, "d", deadline_ms=0.001)
            )
            assert result.strategy == "maintained"
            assert result.count == 2

    def test_engine_bound_request_carries_deadline(self):
        with CountingSession(databases={"h": HEAVY},
                             maintain=False) as session:
            result = session.count(
                CountRequest(TRIANGLE, "h", deadline_ms=50.0)
            )
        assert result.strategy == "approx"
        assert result.details["method"] == "approx"


class TestQueueWaitAccounting:
    def _shard(self):
        shard = SessionShard(maintain=False, label="t")
        shard.execute(AttachDatabase("d", CHEAP_DB))
        return shard

    def test_wait_shrinks_engine_deadline(self):
        shard = self._shard()
        request = CountRequest(CHEAP, "d", deadline_ms=100.0)
        request.submitted_at = time.monotonic() - 0.040  # waited 40ms
        job = shard.engine_job(request)
        assert 40.0 <= job.deadline_ms <= 70.0
        shard.close()

    def test_stale_wait_clamps_to_minimum(self):
        shard = self._shard()
        request = CountRequest(CHEAP, "d", deadline_ms=100.0)
        request.submitted_at = time.monotonic() - 10.0  # waited 10s
        job = shard.engine_job(request)
        assert job.deadline_ms == 1.0
        shard.close()

    def test_no_stamp_passes_deadline_through(self):
        shard = self._shard()
        job = shard.engine_job(CountRequest(CHEAP, "d", deadline_ms=75.0))
        assert job.deadline_ms == 75.0
        shard.close()


class TestQueueWaitOverTcp:
    """Queue wait must count against the deadline across the wire too.

    A raw ``submitted_at`` monotonic stamp is meaningless on another
    host, so ``job_to_spec`` ships the *elapsed wait* computed at send
    time (``waited_ms``) and ``job_from_spec`` re-anchors it on the
    receiving host's clock; the regression was that the stamp was
    silently dropped, so ``shard_mode="tcp"`` served the full engine
    deadline no matter how long the job had queued.
    """

    def test_spec_roundtrip_carries_elapsed_wait(self):
        from repro.service.session import job_from_spec, job_to_spec

        request = CountRequest(CHEAP, "d", deadline_ms=100.0)
        request.submitted_at = time.monotonic() - 0.250  # waited 250ms
        spec = job_to_spec(request)
        assert 250.0 <= spec["waited_ms"] <= 400.0
        rebuilt = job_from_spec(spec)
        waited_ms = (time.monotonic() - rebuilt.submitted_at) * 1e3
        assert 250.0 <= waited_ms <= 500.0

    def test_unstamped_request_serializes_without_wait(self):
        from repro.service.session import job_from_spec, job_to_spec

        spec = job_to_spec(CountRequest(CHEAP, "d", deadline_ms=100.0))
        assert "waited_ms" not in spec
        assert getattr(job_from_spec(spec), "submitted_at", None) is None

    def test_live_shardserver_subtracts_queue_wait(self):
        from repro.service.net.client import ShardClient
        from repro.service.net.server import ShardServer

        with ShardServer(shards=1, label="qw") as server:
            client = ShardClient(server.address)
            client.configure("qw/shard0", {"maintain": False})
            client.submit_job("qw/shard0", AttachDatabase("d", CHEAP_DB))
            request = CountRequest(CHEAP, "d", deadline_ms=5_000.0)
            request.submitted_at = time.monotonic() - 10.0  # waited 10s
            result = client.submit_job("qw/shard0", request)
            # Stale wait clamps the engine budget to the 1ms floor on
            # the *server* side; before the fix the stamp vanished in
            # serialization and the full 5000ms was served.
            assert result.details["deadline_ms"] == 1.0

    def test_live_shardserver_fresh_request_keeps_budget(self):
        from repro.service.net.client import ShardClient
        from repro.service.net.server import ShardServer

        with ShardServer(shards=1, label="qf") as server:
            client = ShardClient(server.address)
            client.configure("qf/shard0", {"maintain": False})
            client.submit_job("qf/shard0", AttachDatabase("d", CHEAP_DB))
            request = CountRequest(CHEAP, "d", deadline_ms=5_000.0)
            request.submitted_at = time.monotonic()
            result = client.submit_job("qf/shard0", request)
            assert result.count == count_answers(CHEAP, CHEAP_DB).count
            # Only genuine wait (client-side queue + wire time) is
            # subtracted — the budget stays essentially intact.
            assert result.details["deadline_ms"] > 4_000.0


class TestMembershipOracleRegression:
    """A fully-fixed assignment must be *verified*, not assumed.

    The solver skips per-variable consistency checks for pre-bound
    variables; before the fix, an atom whose variables were all fixed
    was never probed at all, so membership degenerated to "each value
    is in its unary domain" — and the Monte Carlo sampler counted
    every sample as a hit.
    """

    def test_full_fixed_non_answer_rejected(self):
        # (1, 10, 6) is domain-wise plausible but not an answer:
        # r(1, 10) and s(10, 6) exist, t(6, 1) does not.
        db = Database.from_dict({
            "r": [(1, 10)], "s": [(10, 6)], "t": [(6, 2)],
        })
        a, b, c = Variable("A"), Variable("B"), Variable("C")
        assert not has_homomorphism(TRIANGLE, db,
                                    fixed={a: 1, b: 10, c: 6})
        assert list(iter_homomorphisms(TRIANGLE, db,
                                       fixed={a: 1, b: 10, c: 6})) == []

    def test_full_fixed_answer_accepted(self):
        db = Database.from_dict({
            "r": [(1, 10)], "s": [(10, 6)], "t": [(6, 1)],
        })
        a, b, c = Variable("A"), Variable("B"), Variable("C")
        assert has_homomorphism(TRIANGLE, db, fixed={a: 1, b: 10, c: 6})

    def test_sampler_hit_rate_is_honest(self):
        """On the heavy functional triangle the true hit rate is tiny;
        before the fix every sample 'hit' and the estimate equaled the
        whole candidate space."""
        from repro.approx.montecarlo import monte_carlo_count

        outcome = monte_carlo_count(TRIANGLE, HEAVY, samples=500, seed=3)
        assert outcome.hits < outcome.samples
        exact = count_answers(TRIANGLE, HEAVY).count
        assert abs(outcome.estimate - exact) <= outcome.half_width
