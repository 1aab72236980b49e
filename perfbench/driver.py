"""The closed-loop client, the answer oracle and the metric assembly
shared by every workload."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from common import (
    CALIBRATE_EVERY_S,
    latency_summary,
    median,
    peak_rss_mb,
    ratio,
    speed_scale,
)
from spans import Tracer, job_label, layer_totals

#: Requests alternate between untraced and traced blocks of this many
#: operations (traced runs only); the untraced blocks give the overhead.
TRACE_BLOCK = 40
#: The oracle counts on the columnar backend while the program runs on
#: its default: a check across backends, and several times faster than
#: recounting each version on the tuple backend.
ORACLE_BACKEND = "columnar"


def random_graph(rng: random.Random, n: int, p: float) -> List[tuple]:
    """A directed random graph on *n* nodes with exactly
    ``round(n (n - 1) p)`` edges and no self-loops: G(n, p)'s expected
    size, without its run-to-run variance in size."""
    edges = rng.sample(range(n * (n - 1)), round(n * (n - 1) * p))
    rows = []
    for code in edges:
        source, target = divmod(code, n - 1)
        rows.append((source, target + (target >= source)))
    return sorted(rows)


def relabelled_graphs(rng: random.Random, names: Sequence[str], n: int,
                      p: float, structure: str) -> Dict[str, List[tuple]]:
    """One :func:`random_graph` per name in *names*, drawn from the fixed
    string *structure*, under one node relabelling drawn from *rng*.

    Every seed then gets isomorphic databases — the same answer counts
    and the same work per count — under different labels and row orders;
    the seed's updates change the structure from there.
    """
    labels = list(range(n))
    rng.shuffle(labels)
    return {name: sorted((labels[a], labels[b]) for a, b in random_graph(
                random.Random(f"{structure}:{name}"), n, p))
            for name in names}


def stratified(rng: random.Random, weights: Sequence[float],
               block: int) -> Iterator[int]:
    """Indexes into *weights*, drawn in shuffled blocks of about *block*
    that hold every index in proportion to its weight (at least once).

    Every seed then sees the same mix; only the order varies.
    """
    total = sum(weights)
    pool = [index for index, weight in enumerate(weights)
            for _ in range(max(1, round(block * weight / total)))]
    while True:
        rng.shuffle(pool)
        yield from list(pool)


def random_edge(n: int) -> Callable[[random.Random], tuple]:
    """A row maker for :class:`RowMirror`: a random edge on *n* nodes."""
    return lambda rng: (rng.randrange(n), rng.randrange(n))


class RowMirror:
    """The generator's copy of one database's rows, so every generated
    update is valid: inserts and deletes alternate, an insert draws rows
    from *make_row* until one is absent, a delete removes a present row."""

    def __init__(self, relations: Dict[str, list],
                 make_row: Callable[[random.Random], tuple]):
        self.rows = {rel: sorted(rows) for rel, rows in relations.items()}
        self.present = {rel: set(rows) for rel, rows in relations.items()}
        self.make_row = make_row
        self.inserting = True

    def next_update(self, rng: random.Random):
        from repro.dynamic import Delete, Insert

        relation = rng.choice(sorted(self.rows))
        rows, present = self.rows[relation], self.present[relation]
        self.inserting = not self.inserting
        if not self.inserting and rows:
            index = rng.randrange(len(rows))
            row = rows[index]
            rows[index] = rows[-1]
            rows.pop()
            present.discard(row)
            return Delete(relation, row)
        row = self.make_row(rng)
        while row in present:
            row = self.make_row(rng)
        rows.append(row)
        present.add(row)
        return Insert(relation, row)


@dataclass
class Op:
    """One client operation, fully determined by the workload seed."""

    kind: str                      # "count" | "update" | "attach"
    database: str
    version: int = 0               # database version the op reads/creates
    shape: str = ""                # stable shape id of a count
    query: object = None           # the (renamed) query the program sees
    base_query: object = None      # the unrenamed query, for the oracle
    symbol_map: Optional[dict] = None  # base symbol -> renamed symbol
    deadline_ms: Optional[float] = None
    update: object = None          # Insert / Delete
    relations: Optional[dict] = None   # attach: {relation: [rows]}
    hits_build: bool = False       # the read right after a re-attach

    def describe(self) -> tuple:
        """A plain rendering of everything the program receives."""
        return (self.kind, self.database, self.version, self.shape,
                repr(self.query), self.deadline_ms, repr(self.update),
                None if self.relations is None else sorted(
                    (name, tuple(rows))
                    for name, rows in self.relations.items()))


@dataclass
class Record:
    op: Op
    traced: bool
    ms: float                      # raw wall time
    scale: float                   # raw -> reference time (common.py)
    result: object = None
    error: Optional[str] = None
    wrong: bool = False
    exact_answer: Optional[int] = None


@dataclass
class Run:
    """Everything a workload run produced, before metric assembly."""

    records: List[Record] = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    layer: Dict[str, float] = field(default_factory=dict)
    mix: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, object] = field(default_factory=dict)


def closed_loop(ops: Iterator[Op], execute: Callable[[Op, str], object],
                stop_at: float, tracer: Optional[Tracer],
                first_index: int = 0) -> List[Record]:
    """Issue operations back to back until ``time.perf_counter()`` passes
    *stop_at*.

    Each operation is timed from the call into the program to its
    answer; the next is sent only after the previous completed.  Between
    operations, the machine's speed is calibrated again once the last
    calibration is CALIBRATE_EVERY_S old.  *first_index* numbers the
    operations of a continued stream.
    """
    records: List[Record] = []
    index = first_index
    calibrated_at = -CALIBRATE_EVERY_S
    while time.perf_counter() < stop_at:
        if time.perf_counter() - calibrated_at >= CALIBRATE_EVERY_S:
            scale = speed_scale()
            calibrated_at = time.perf_counter()
        op = next(ops)
        traced = tracer is not None and (index // TRACE_BLOCK) % 2 == 1
        label = job_label(f"r{index}", traced)
        previous = tracer.set_request(label, traced) if tracer else None
        started = time.perf_counter()
        try:
            if tracer is not None:
                result = tracer.span(f"op.{op.kind}", execute, op, label)
            else:
                result = execute(op, label)
            error = None
        except Exception as failure:  # a failed request is a result
            result, error = None, f"{type(failure).__name__}: {failure}"
        elapsed = (time.perf_counter() - started) * 1e3
        if tracer is not None:
            tracer.restore_request(previous)
        records.append(Record(op, traced, elapsed, scale, result, error))
        index += 1
    return records


class Workload:
    """The program side of one workload; subclasses fill in the rest.

    One client thread issues the operations: every workload has one
    request in flight (see ``common.pin_to_one_cpu``).
    """

    name = ""

    def __init__(self, seed: int, scale: str):
        self.seed, self.scale = seed, scale
        #: The records, in issue order: the stream the oracle replays.
        self.stream: List[Record] = []
        self._operations: Optional[Iterator[Op]] = None

    def setup(self, workdir: str, traced: bool) -> None:
        """Build inputs and the system; warm what a user pays once."""

    def operations(self) -> Iterator[Op]:
        """The endless, seed-determined operation stream."""
        raise NotImplementedError

    def execute(self, op: Op, label: str):
        raise NotImplementedError

    def run(self, seconds: float, tracer: Optional[Tracer]) -> None:
        """Measure for *seconds* more, continuing the operation stream."""
        if self._operations is None:
            self._operations = self.operations()
        self.stream.extend(closed_loop(
            self._operations, self.execute, time.perf_counter() + seconds,
            tracer, first_index=len(self.stream)))

    def oracle_method(self, op: Op) -> str:
        """The oracle's counting method for *op* (``auto`` runs the
        engine from scratch with its own plan cache)."""
        return "auto"

    def direct_count(self, op: Op, rows: Dict[str, set]) -> Optional[int]:
        """The oracle's count of *op* on plain row sets by a closed
        formula, or ``None`` to count with the engine."""
        return None

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def stats(self, records: List[Record]) -> Tuple[dict, dict]:
        """(per-layer counters read from the program, workload-property
        shares) — read before teardown."""
        return {}, {}

    def teardown(self) -> None:
        """Stop everything the workload started."""

    def remote_traces(self) -> List[dict]:
        """Span dumps of other processes (after teardown)."""
        return []


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
class Oracle:
    """Exact answers per (shape, database, version), recomputed outside
    the timed phase from the workload's own copy of the data.

    Database versions are rebuilt by replaying the generated updates on
    plain row sets — independently of the program's update path — and
    counted with a fresh plan cache (*method* picks the counting method
    per operation: brute force on the small instances).  Only relations
    an update touched are rebuilt; a version's database reuses the rest.
    """

    def __init__(self, initial: Dict[str, Dict[str, List[tuple]]],
                 method: Callable[[Op], str],
                 direct: Callable[[Op, Dict[str, set]], Optional[int]]):
        self._state = {name: {rel: set(rows) for rel, rows in db.items()}
                       for name, db in initial.items()}
        self._version = {name: 0 for name in initial}
        self._method = method
        self._direct = direct
        #: database name -> {relation: Relation}, dropped when it changes
        self._relations: Dict[str, Dict[str, object]] = {
            name: {} for name in initial}
        self._answers: Dict[Tuple[str, str, int], int] = {}
        from repro.counting.plan_cache import PlanCache
        self._plans = PlanCache()

    def advance(self, op: Op) -> None:
        """Replay one update or attach."""
        from repro.dynamic import Insert

        if op.kind == "attach":
            self._state[op.database] = {
                rel: set(map(tuple, rows))
                for rel, rows in op.relations.items()}
            self._relations[op.database] = {}
        else:
            rows = self._state[op.database][op.update.relation]
            if isinstance(op.update, Insert):
                rows.add(tuple(op.update.row))
            else:
                rows.discard(tuple(op.update.row))
            self._relations[op.database].pop(op.update.relation, None)
        self._version[op.database] = op.version

    def _database(self, name: str):
        from repro.db.columnar import make_relation
        from repro.db.database import Database

        built = self._relations[name]
        for relation, rows in self._state[name].items():
            if relation not in built:
                rows = sorted(rows)
                built[relation] = make_relation(relation, len(rows[0]), rows,
                                                backend=ORACLE_BACKEND)
        return Database(built.values())

    def exact(self, op: Op) -> int:
        from repro.counting.engine import count_answers

        if self._version[op.database] != op.version:
            raise AssertionError(f"oracle replay out of step on "
                                 f"{op.database}: at version "
                                 f"{self._version[op.database]}, "
                                 f"asked for {op.version}")
        key = (op.shape, op.database, op.version)
        if key not in self._answers:
            self._answers[key] = self._direct(op, self._state[op.database])
        if self._answers[key] is None:
            self._answers[key] = count_answers(
                op.base_query, self._database(op.database),
                method=self._method(op),
                plan_cache=self._plans).count
        return self._answers[key]


def check_answers(stream: List[Record], oracle: Oracle) -> None:
    """Mark every wrong answer in one ordered stream of records.

    An exact answer must equal the oracle; an approximate one must lie
    within its own stated epsilon of it.
    """
    for record in stream:
        op = record.op
        if op.kind != "count":
            # The oracle follows the intended stream even past a failed
            # update: the failure is already counted, and later answers
            # are judged against the data the client asked for.
            oracle.advance(op)
            continue
        if record.error is not None:
            continue
        exact = oracle.exact(op)
        result = record.result
        if result.strategy == "approx":
            details = result.details
            record.wrong = abs(details["estimate"] - exact) > \
                details["epsilon"]
        else:
            record.wrong = result.count != exact
        record.exact_answer = exact


# ----------------------------------------------------------------------
# Metric assembly
# ----------------------------------------------------------------------
def end_to_end(run: Run, first_answer: float, setup: float) -> dict:
    records = run.records
    counts = [r for r in records if r.op.kind == "count" and r.error is None]
    updates = [r for r in records if r.op.kind == "update"
               and r.error is None]
    stamped = [r for r in counts if r.op.deadline_ms is not None]
    count_lat = latency_summary([r.ms * r.scale for r in counts])
    update_lat = latency_summary([r.ms * r.scale for r in updates])
    # The timed phase in reference seconds: its wall time times the
    # operation-time-weighted mean scale.
    busy = sum(r.ms for r in records)
    wall = run.wall_s * ratio(sum(r.ms * r.scale for r in records), busy)
    run.report["count_latency"] = count_lat
    run.report["update_latency"] = update_lat
    run.report["raw"] = {
        "count_latency": latency_summary([r.ms for r in counts]),
        "update_latency": latency_summary([r.ms for r in updates]),
        "ops_per_s": ratio(len(records), run.wall_s),
        "mean_scale": ratio(wall, run.wall_s),
    }
    run.report["deadline_stamped_counts"] = len(stamped)
    return {
        "setup_s": setup,
        "ops_per_s": ratio(len(records), wall),
        "count_p50_ms": count_lat["p50"],
        "count_p95_ms": count_lat["p95"],
        "update_p50_ms": update_lat["p50"],
        "update_p95_ms": update_lat["p95"],
        "deadline_met_frac": ratio(
            sum(1 for r in stamped if r.ms <= r.op.deadline_ms),
            len(stamped)),
        "exact_frac": ratio(
            sum(1 for r in stamped if r.result.strategy != "approx"),
            len(stamped)),
        "first_answer_ms": first_answer,
        "peak_rss_mb": run.peak_rss_mb,
    }


def failures(records: List[Record]) -> int:
    return sum(1 for r in records if r.error is not None or r.wrong)


def answer_quality(records: List[Record]) -> dict:
    """``error_frac`` and ``rel_err_mean`` (over deadline-stamped counts;
    an exact answer contributes 0)."""
    stamped = [r for r in records if r.op.kind == "count"
               and r.op.deadline_ms is not None and r.error is None]
    errors = []
    for record in stamped:
        exact = record.exact_answer
        if record.result.strategy != "approx" or exact is None:
            errors.append(0.0)
        else:
            estimate = record.result.details["estimate"]
            errors.append(abs(estimate - exact) / max(exact, 1))
    return {
        "error_frac": ratio(failures(records), len(records)),
        "rel_err_mean": ratio(sum(errors), len(errors)),
    }


def strategy_shares(records: List[Record]) -> dict:
    counts = [r for r in records if r.op.kind == "count" and r.error is None]
    compiled = sum(1 for r in counts if r.result.strategy == "compiled")
    approx = sum(1 for r in counts if r.result.strategy == "approx")
    return {
        "counting.strategy_frac.compiled": ratio(compiled, len(counts)),
        "counting.strategy_frac.approx": ratio(approx, len(counts)),
        "counting.strategy_frac.other": ratio(
            len(counts) - compiled - approx, len(counts)),
    }


def trace_layers(records: List[Record], spans: List[tuple],
                 counters: Dict[str, float],
                 samples: Dict[str, List[float]]) -> dict:
    """Per-layer metrics from the spans of every process of the run."""
    totals = layer_totals(spans)
    traced_counts = sum(1 for r in records if r.traced
                        and r.op.kind == "count")
    traced_requests = totals["service.net.request"]["calls"] \
        if "service.net.request" in totals else 0

    def per_call(name: str) -> float:
        entry = totals.get(name)
        return ratio(entry["total_ms"], entry["calls"]) if entry else 0.0

    def per_count(name: str, key: str = "total_ms") -> float:
        entry = totals.get(name)
        return ratio(entry[key], traced_counts) if entry else 0.0

    approx_answers = [r for r in records if r.traced and r.error is None
                      and r.op.kind == "count"
                      and r.result.strategy == "approx"]
    codec = totals.get("service.net.codec", {"total_ms": 0.0})
    return {
        "query.canonical.ms_per_count": per_count("query.canonical"),
        "decomposition.search_ms": per_call("decomposition.search"),
        "counting.compile.lower_ms": per_call("counting.compile.lower"),
        "counting.compile.link_ms": per_call("counting.compile.link"),
        "counting.compile.execute_ms_per_count":
            per_count("counting.compile.execute"),
        "counting.engine.self_ms_per_count":
            per_count("counting.engine", "self_ms"),
        "approx.ms_per_answer": ratio(
            totals["approx.monte_carlo"]["total_ms"], len(approx_answers))
            if "approx.monte_carlo" in totals else 0.0,
        "approx.samples_per_answer": ratio(
            sum(r.result.details.get("samples", 0) for r in approx_answers),
            len(approx_answers)),
        "dynamic.apply_update_ms": per_call("dynamic.apply_update"),
        "service.shard.update_ms": per_call("service.shard.update"),
        "dynamic.pool.counter_for_ms": per_call("dynamic.pool.counter_for"),
        "dynamic.pool.apply_ms": per_call("dynamic.pool.apply"),
        "dynamic.maintainer.read_ms": per_call("dynamic.maintainer.read"),
        "service.router.submit_ms": per_call("service.router.submit"),
        "service.net.request_ms": per_call("service.net.request"),
        "service.net.codec_ms_per_request": ratio(codec["total_ms"],
                                                  traced_requests),
        "service.net.bytes_per_request": ratio(counters.get("net.bytes", 0),
                                               traced_requests),
        "service.net.server_wait_ms": median(
            samples.get("service.net.server_wait", [])),
        "service.shard.execute_ms": per_call("service.shard.execute"),
    }


def trace_accounting(records: List[Record], client_spans: List[tuple]
                     ) -> dict:
    """``trace.coverage_frac``: summed self time of the client's layer
    spans over the summed duration of traced requests.
    ``trace.overhead_frac``: traced over untraced mean request latency,
    minus one (the traced-vs-untraced ``ops_per_s`` ratio of a closed
    loop)."""
    totals = layer_totals(client_spans)
    layer_self = sum(entry["self_ms"] for name, entry in totals.items()
                     if not name.startswith("op."))
    roots = sum(entry["total_ms"] for name, entry in totals.items()
                if name.startswith("op."))
    traced = [r.ms for r in records if r.traced]
    untraced = [r.ms for r in records if not r.traced]
    overhead = 0.0
    if traced and untraced:
        overhead = (sum(traced) / len(traced)) / \
            (sum(untraced) / len(untraced)) - 1.0
    return {
        "trace.coverage_frac": ratio(layer_self, roots),
        "trace.overhead_frac": overhead,
    }
