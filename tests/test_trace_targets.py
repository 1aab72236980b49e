"""The benchmark's trace wrappers still find every method they patch.

``perfbench/spans.py`` patches methods through ``owner.__dict__[name]``,
so moving a traced method to a base class (or renaming it) breaks the
traced benchmark runs.  Installing both wrapper sets here catches that
in the ordinary test suite instead of only in the benchmark's own
self-test.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.db import Database
from repro.dynamic import Insert
from repro.query import parse_query
from repro.service import CountingSession, CountRequest
from repro.service.shard import SessionShard

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_client_and_server_wrappers_install_and_uninstall():
    spans = load_spans()
    originals = {name: SessionShard.__dict__[name]
                 for name in ("update", "execute")}
    tracer = spans.Tracer()
    try:
        spans.install_client(tracer)
        spans.install_server(tracer)
        # The wrapped session still serves reads and writes.
        query = parse_query("ans(A) :- r(A, B)")
        database = Database.from_dict({"r": [(1, 2), (3, 4)]})
        with CountingSession({"d": database}) as session:
            session.update("d", Insert("r", (5, 6)))
            assert session.count(CountRequest(query, "d")).count == 3
    finally:
        tracer.uninstall()
    assert {name: SessionShard.__dict__[name]
            for name in originals} == originals
