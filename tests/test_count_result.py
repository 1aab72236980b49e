"""Compact count results: the engine's decision kept as data.

:func:`~repro.counting.engine.count_answers` keeps what it decided — the
winning strategy's details, the cost ranking with one estimate and one
flag byte per strategy, the caller's variable names — and renders
``CountResult.details`` on first read.  These tests pin down that the
rendering is the documented details layout (same keys, same order, same
values on every path: auto, forced, deadline-skipped, approximate and
deadline-missed), that ``explain()``, ``result_to_dict``, pickling and
equality all see it, and that retained compiled and maintained results
stay small.
"""

from __future__ import annotations

import gc
import json
import pickle
import tracemalloc

import pytest

from repro.counting import engine
from repro.counting.engine import CountResult, count_answers
from repro.counting.plan_cache import PlanCache
from repro.db import Database
from repro.query import parse_query
from repro.query.canonical import random_renaming
from repro.service import CountingSession, CountRequest
from repro.service.jobs import json_safe, result_to_dict
from repro.workloads.graph_patterns import gnp_graph

PATH = parse_query("ans(X, Y, Z) :- r(X, Y), s(Y, Z)")
PROJECTED = parse_query("ans(P, W) :- r(P, Q), s(Q, W)")
STAR = parse_query("ans(P) :- r(P, Q), s(P, W)")

TRAIL_KEYS = ["strategy", "estimated_cost", "probed", "chosen"]


def _graph() -> Database:
    rows = sorted(gnp_graph(30, 0.1, seed=3)["edge"].rows)
    return Database.from_dict({"r": rows, "s": rows, "t": rows},
                              backend="tuple")


def _outcomes(result: CountResult):
    return [(entry["strategy"], entry.get("skipped"))
            for entry in result.details["decision_trail"]]


class TestRendering:
    def test_auto_result_renders_the_details_layout(self):
        result = count_answers(PROJECTED, _graph(), plan_cache=PlanCache())
        assert result.strategy == "compiled"
        details = result.details
        assert details is result.details  # rendered once
        assert list(details) == [
            "compiled", "compiled_kind", "artifact_cached", "bags",
            "bag_kernels", "width", "decision_trail", "estimated_cost",
            "actual_seconds", "plan_fingerprint"]
        trail = details["decision_trail"]
        assert [name for name, _skipped in _outcomes(result)] == \
            sorted(engine.registered_strategies(),
                   key=[entry["strategy"] for entry in trail].index)
        assert all(list(entry) == TRAIL_KEYS for entry in trail)
        chosen = [entry for entry in trail if entry["chosen"]]
        assert len(chosen) == 1 and chosen[0]["probed"]
        assert chosen[0]["strategy"] == "compiled"
        assert details["estimated_cost"] == chosen[0]["estimated_cost"]
        costs = [entry["estimated_cost"] for entry in trail]
        assert costs == sorted(costs)
        # The caller's variable names, not the canonical ones.
        assert details["bag_kernels"] == (
            "generic_join over 2 scan(s), order P, Q, W"
            " | union-eliminated Q")

    def test_explain_json_pickle_and_equality_agree(self):
        database = _graph()
        first = count_answers(STAR, database, plan_cache=PlanCache())
        second = count_answers(STAR, database, plan_cache=PlanCache())
        text = first.explain()  # renders through explain() first
        assert first.explain() == text
        assert "decision trail (cost-ranked):" in text
        assert f"count     : {first.count}" in text
        payload = result_to_dict(second)  # ... and through JSON first
        assert payload == {"count": second.count,
                           "strategy": second.strategy,
                           "details": json_safe(second.details)}
        json.dumps(payload)
        clone = pickle.loads(pickle.dumps(first))
        assert clone == first and clone.explain() == text
        assert first == CountResult(first.count, first.strategy,
                                    dict(first.details))
        assert repr(first).startswith("CountResult(count=")

    def test_details_stay_mutable(self):
        """The batch service labels results after the fact."""
        result = count_answers(PATH, _graph(), plan_cache=PlanCache())
        result.details["job"] = "label"
        assert result.details["job"] == "label"
        assert result_to_dict(result)["details"]["job"] == "label"
        result.details = {"replaced": True}
        assert result.details == {"replaced": True}

    def test_forced_method_renders_without_a_trail(self):
        result = count_answers(STAR, _graph(), method="structural",
                               deadline_ms=500.0, plan_cache=PlanCache())
        assert list(result.details) == [
            "width", "core_atoms", "deadline_ms", "plan_fingerprint"]
        assert result.details["deadline_ms"] == 500.0

    def test_deadline_trail_records_skips_and_the_budget(self):
        heavy = parse_query("ans(A, B, C) :- r(A, B), s(B, C), t(C, A)")
        result = count_answers(heavy, _graph(), deadline_ms=0.001,
                               plan_cache=PlanCache())
        assert result.strategy == "approx"
        details = result.details
        assert list(details)[-6:] == [
            "decision_trail", "estimated_cost", "actual_seconds",
            "deadline_ms", "cost_budget_units", "plan_fingerprint"]
        assert details["cost_budget_units"] == pytest.approx(
            0.001 * engine.cost_units_per_ms())
        outcomes = dict(_outcomes(result))
        assert outcomes.pop("approx") is None  # chosen: skip cleared
        assert set(outcomes.values()) <= {"observed deadline overrun",
                                          "predicted deadline overrun"}
        skipped = [entry for entry in details["decision_trail"]
                   if "skipped" in entry]
        assert all(list(entry) == TRAIL_KEYS + ["skipped"]
                   for entry in skipped)
        text = result.explain()
        assert all(f"skipped: {entry['skipped']}" in text
                   for entry in skipped)

    def test_missed_deadline_is_flagged_last(self, monkeypatch):
        """With no approx tier, the cheapest exact strategy answers
        late and says so."""
        registry = engine._REGISTRY.copy()
        registry.pop("approx")
        monkeypatch.setattr(engine, "_REGISTRY", registry)
        result = count_answers(PATH, _graph(), deadline_ms=1e-6,
                               plan_cache=PlanCache())
        assert result.strategy != "approx"
        assert list(result.details)[-1] == "deadline_missed"
        chosen = [entry for entry in result.details["decision_trail"]
                  if entry["chosen"]]
        assert list(chosen[0]) == TRAIL_KEYS  # its skip was cleared


def test_retained_compiled_results_are_small():
    """A kept compiled result costs at most 0.7 KB: the decision holds
    shared runner details, an interned ranking and packed estimates."""
    database = _graph()
    shapes = [PATH, PROJECTED, STAR,
              parse_query("ans(A) :- r(A, B), s(B, C), t(C, A)")]
    queries = [random_renaming(shapes[i % len(shapes)], seed=i)
               for i in range(400)]
    cache = PlanCache()
    for query in queries:  # warm every cache on these very objects
        count_answers(query, database, plan_cache=cache)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        kept = [count_answers(query, database, plan_cache=cache)
                for query in queries]
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert {result.strategy for result in kept} == {"compiled"}
    retained = sum(stat.size_diff
                   for stat in after.compare_to(before, "filename"))
    assert retained / len(kept) <= 700, retained / len(kept)


def test_retained_maintained_results_are_small():
    """A kept labelled maintained result costs at most 300 B: the
    session keeps what the maintainer served as a small record and
    renders the details dict (same keys, same order, ``job`` last) only
    when it is read."""
    database = _graph()
    requests = [CountRequest(PATH, "main", label=f"job-{i}")
                for i in range(400)]
    with CountingSession(databases={"main": database},
                         maintainer_budget_bytes=None) as session:
        for request in requests:  # warm the pool on these very objects
            session.count(request)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            kept = [session.count(request) for request in requests]
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        digest = session.plan_cache.canonical(PATH).digest
    assert {result.strategy for result in kept} == {"maintained"}
    retained = sum(stat.size_diff
                   for stat in after.compare_to(before, "filename"))
    assert retained / len(kept) <= 300, retained / len(kept)
    for request, result in zip(requests, kept):
        assert result.details == {
            "maintained": True, "reduced": False, "database": "main",
            "plan_fingerprint": digest, "shared_clients": 1,
            "job": request.label}
        assert list(result.details)[-1] == "job"
    first = kept[0]
    plain = CountResult(first.count, "maintained", dict(first.details))
    assert first == plain and repr(first) == repr(plain)
    assert pickle.dumps(first) == pickle.dumps(plain)
