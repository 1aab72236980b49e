"""Spans for the traced run, recorded from outside the program.

The traced run installs wrappers around the public functions of the
program's layers.  Each wrapper patches a name *where its caller looks it
up* (``repro.counting.engine`` imports ``link``, ``lower_*`` and
``find_*`` by name, so those are patched on the engine module), records
one span per call and calls through.  Nothing in ``src/`` changes.

A span is ``(id, name, start, end, parent, request)``: *parent* is the
enclosing span on the same thread, *request* the benchmark's request id.
Spans are kept in memory and written out when the run ends.  A span's
self time is its duration minus its children's.

Tracing is switched per request: the driver marks each request traced
or untraced (see :func:`job_label`), so one run yields both the spans
and, from the untraced requests, the tracing overhead.  The mark travels
inside the job's ``label``, which the program already carries across the
wire, so shard-server spans join the client's request ids.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LABEL_PREFIX = "pb"


def job_label(request_id: str, traced: bool) -> str:
    """The ``label`` a benchmark job carries: request id + trace mark."""
    return f"{LABEL_PREFIX}/{request_id}/{int(traced)}"


def parse_label(label: object) -> Tuple[Optional[str], bool]:
    if isinstance(label, str) and label.startswith(LABEL_PREFIX + "/"):
        _, request_id, mark = label.split("/")
        return request_id, mark == "1"
    return None, False


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.active = False
        self.request: Optional[str] = None
        self.stack: List[int] = []


class Tracer:
    """In-memory span store plus per-thread request context."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        # Span ids are unique across the processes of one run, whose
        # spans are merged before self times are computed.
        self._ids = itertools.count(os.getpid() * 10 ** 9 + 1)
        self._state = _ThreadState()
        self._patches: List[tuple] = []
        #: id(job) -> when job_from_wire returned it (server side)
        self._decoded_at: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Context
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._state.active

    def set_request(self, request: Optional[str], active: bool) -> tuple:
        state = self._state
        previous = (state.request, state.active)
        state.request, state.active = request, active
        return previous

    def restore_request(self, previous: tuple) -> None:
        self._state.request, self._state.active = previous

    def span(self, name: str, call: Callable, *args, **kwargs):
        """Run ``call`` inside a span named *name* (when tracing)."""
        state = self._state
        if not state.active:
            return call(*args, **kwargs)
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else None
        state.stack.append(span_id)
        started = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            state.stack.pop()
            self.spans.append((span_id, name, started, ended, parent,
                               state.request))

    def count(self, name: str, amount: float = 1.0) -> None:
        if self._state.active:
            self.counters[name] += amount

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner, attribute: str, make: Callable) -> None:
        """Replace ``owner.attribute`` by ``make(original)``; properties
        are re-wrapped around their getter."""
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        if isinstance(original, property):
            replacement = property(make(original.fget))
        else:
            replacement = functools.wraps(original)(make(original))
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def wrap(self, owner, attribute: str, name: str) -> None:
        def make(original):
            return lambda *args, **kwargs: self.span(
                name, original, *args, **kwargs)
        self.patch(owner, attribute, make)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "samples": self.samples}, handle)


# ----------------------------------------------------------------------
# Wrapper sets
# ----------------------------------------------------------------------
def _install_engine(tracer: Tracer) -> None:
    """Engine, planning, compile, approx, and the maintained path — the
    layers that run in any process that executes counts."""
    from repro.counting import compile as compile_module
    from repro.counting import engine
    from repro.counting.plan_cache import PlanCache
    from repro.dynamic import updates
    from repro.dynamic.maintainer import MaintainerPool, SharedMaintainer
    from repro.service import service, shard

    tracer.wrap(engine, "count_answers", "counting.engine")
    tracer.wrap(service, "count_answers", "counting.engine")
    tracer.wrap(PlanCache, "canonical", "query.canonical")
    for search in ("find_sharp_hypertree_decomposition", "find_ghd_join_tree",
                   "find_hybrid_decomposition"):
        tracer.wrap(engine, search, "decomposition.search")
    tracer.wrap(engine, "lower_acyclic", "counting.compile.lower")
    tracer.wrap(engine, "lower_structural", "counting.compile.lower")
    tracer.wrap(engine, "link", "counting.compile.link")
    tracer.wrap(compile_module._Executable, "count",
                "counting.compile.execute")
    tracer.wrap(engine, "monte_carlo_count", "approx.monte_carlo")
    tracer.wrap(updates, "apply_update", "dynamic.apply_update")
    tracer.wrap(shard, "apply_update", "dynamic.apply_update")
    tracer.wrap(shard.SessionShard, "update", "service.shard.update")
    tracer.wrap(MaintainerPool, "counter_for", "dynamic.pool.counter_for")
    tracer.wrap(MaintainerPool, "apply", "dynamic.pool.apply")
    tracer.wrap(SharedMaintainer, "count", "dynamic.maintainer.read")


def _wrap_encode(tracer: Tracer, frames) -> None:
    def make(original):
        def encode(payload):
            if not tracer.active:
                return original(payload)
            data = tracer.span("service.net.codec", original, payload)
            tracer.count("net.bytes", len(data))
            return data
        return encode
    tracer.patch(frames, "encode_frame", make)


def install_client(tracer: Tracer) -> None:
    """Wrappers for the benchmark's own process (every workload)."""
    from repro.service.net import client, frames
    from repro.service.router import MultiWriterSession

    _install_engine(tracer)
    tracer.wrap(MultiWriterSession, "submit", "service.router.submit")

    def make_request(original):
        def request(self, *args, **kwargs):
            before = self.retried_requests
            try:
                return tracer.span("service.net.request", original, self,
                                   *args, **kwargs)
            finally:
                tracer.count("net.client_retries",
                             self.retried_requests - before)
        return request
    tracer.patch(client.ShardClient, "request", make_request)
    tracer.wrap(client, "job_to_wire", "service.net.codec")
    tracer.wrap(client, "result_from_wire", "service.net.codec")
    tracer.wrap(frames.FrameDecoder, "next_frame", "service.net.codec")
    _wrap_encode(tracer, frames)

    def make_submit_job(original):
        # Runs on the remote handle's own thread: adopt the job's request.
        def submit_job(self, shard_name, job, *args, **kwargs):
            request, traced = parse_label(getattr(job, "label", None))
            previous = tracer.set_request(request, traced)
            try:
                return original(self, shard_name, job, *args, **kwargs)
            finally:
                tracer.restore_request(previous)
        return submit_job
    tracer.patch(client.ShardClient, "submit_job", make_submit_job)


def install_server(tracer: Tracer) -> None:
    """Wrappers for a shard-server process (see ``server_launcher.py``)."""
    from repro.service.net import frames, server
    from repro.service.shard import SessionShard

    _install_engine(tracer)
    _wrap_encode(tracer, frames)
    tracer.wrap(server, "result_to_wire", "service.net.codec")

    def make_next_frame(original):
        # A decoded submit frame names its job's request: the connection
        # thread serves that request until the next frame arrives.
        def next_frame(self):
            started = time.perf_counter()
            frame = original(self)
            if frame is None:
                return frame
            job = frame.get("job") if isinstance(frame, dict) else None
            label = job.get("label") if isinstance(job, dict) else None
            request, traced = parse_label(label)
            tracer.set_request(request, traced)
            if traced:
                tracer.spans.append((next(tracer._ids), "service.net.codec",
                                     started, time.perf_counter(), None,
                                     request))
            return frame
        return next_frame
    tracer.patch(frames.FrameDecoder, "next_frame", make_next_frame)

    def make_job_from_wire(original):
        def job_from_wire(spec):
            job = tracer.span("service.net.codec", original, spec)
            if tracer.active:
                tracer._decoded_at[id(job)] = time.perf_counter()
            return job
        return job_from_wire
    tracer.patch(server, "job_from_wire", make_job_from_wire)

    def make_execute(original):
        # Runs on the shard core's executor thread.
        def execute(self, job):
            started = time.perf_counter()
            request, traced = parse_label(getattr(job, "label", None))
            decoded = tracer._decoded_at.pop(id(job), None)
            if traced and decoded is not None:
                tracer.samples["service.net.server_wait"].append(
                    (started - decoded) * 1e3)
            previous = tracer.set_request(request, traced)
            try:
                return tracer.span("service.shard.execute", original,
                                   self, job)
            finally:
                tracer.restore_request(previous)
        return execute
    tracer.patch(SessionShard, "execute", make_execute)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def layer_totals(spans: List[tuple]) -> Dict[str, dict]:
    """Per span name: calls, summed duration and summed self time (ms)."""
    child_time: Dict[int, float] = defaultdict(float)
    for _, _, started, ended, parent, _ in spans:
        if parent is not None:
            child_time[parent] += ended - started
    totals: Dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for span_id, name, started, ended, _, _ in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["total_ms"] += (ended - started) * 1e3
        entry["self_ms"] += (ended - started - child_time[span_id]) * 1e3
    return totals
