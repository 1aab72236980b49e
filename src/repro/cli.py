"""Command-line interface: ``python -m repro``.

Count answers to a conjunctive query over a database stored as JSON::

    python -m repro count "ans(A,C) :- r(A,B), s(B,C)" db.json
    python -m repro analyze "ans(A,C) :- r(A,B), s(B,C)"
    python -m repro ucq "ans(A) :- r(A,B) ; ans(A) :- s(A,C)" db.json
    python -m repro sample "ans(A,C) :- r(A,B), s(B,C)" db.json -k 5
    python -m repro faq "ans(A,C) :- r(A,B), s(B,C)" db.json
    python -m repro batch jobs.json --cache-dir .plans
    python -m repro session jobs.jsonl --cache-dir .plans
    python -m repro session w0.jsonl w1.jsonl --shards 2
    python -m repro shardserver --listen 127.0.0.1:7070 --shards 2
    python -m repro session w0.jsonl w1.jsonl --shard-addrs 127.0.0.1:7070
    python -m repro bench --profile

The database JSON maps relation names to lists of rows::

    {"r": [[1, 2], [3, 4]], "s": [[2, 9]]}

``count``, ``batch``, and ``session`` accept ``--deadline-ms`` (and
``--error-budget``) for deadline-aware serving: counts the cost model
predicts to fit the budget stay exact, the rest come back from the
approximate tier as guaranteed ``(estimate, epsilon, delta)`` answers;
``count`` prints the answer count and the strategy the engine selected;
``analyze`` prints the structural profile of the query (hypergraph,
frontier hypergraph, colored core, acyclicity, star size, and the
#-hypertree width up to a probe bound) without needing a database;
``ucq`` counts a union of CQs by inclusion–exclusion; ``sample`` draws
uniform answers; ``faq`` runs the Inside-Out comparator and prints its
elimination diagnostics; ``batch`` runs a closed job file through the
counting service; ``session`` replays JSON Lines streams of interleaved
counts and updates through a :class:`~repro.service.CountingSession`
(``--cache-dir`` persists plans across invocations) — several stream
files, or ``--shards N``, run a sharded
:class:`~repro.service.MultiWriterSession` instead (one writer per
file, databases hash-partitioned onto shards,
``--maintainer-budget-mb`` capping each shard's resident maintainer
DPs); ``shardserver`` hosts session shards over TCP (sessions reach
them with ``--shard-addrs host:port[,host:port...]`` or
``$REPRO_SHARD_ADDRS`` — see ARCHITECTURE.md, "Networked shard
fabric"); ``bench`` replays a self-contained maintained star stream
and, with ``--profile``, cProfiles it.  ``count``/``batch``/
``session``/``bench`` accept ``--backend tuple|columnar`` to pick the
relation storage backend (equivalent to ``$REPRO_BACKEND``; see
ARCHITECTURE.md, "Columnar backend").
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .counting.engine import count_answers, registered_strategies
from .counting.starsize import quantified_star_size
from .db.database import Database
from .decomposition.sharp import sharp_hypertree_width
from .exceptions import DecompositionNotFoundError, ReproError
from .homomorphism.core import colored_core
from .hypergraph.acyclicity import is_acyclic
from .hypergraph.frontier import frontier_hypergraph
from .query.coloring import is_color_atom
from .query.parser import parse_query


def load_database(path: str) -> Database:
    """Load a database from a JSON file of ``{relation: [rows...]}``.

    Relations are built on the default backend (``$REPRO_BACKEND`` /
    ``--backend``).
    """
    from .db.columnar import make_relation

    with open(path) as handle:
        data = json.load(handle)
    relations = []
    for name, rows in data.items():
        rows = [tuple(_freeze(value) for value in row) for row in rows]
        if not rows:
            continue
        relations.append(make_relation(name, len(rows[0]), rows))
    return Database(relations)


def _freeze(value):
    """JSON arrays inside rows become hashable tuples."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def _apply_backend_flag(args: argparse.Namespace) -> None:
    """Honor ``--backend`` by forcing the relation backend."""
    backend = getattr(args, "backend", None)
    if backend:
        import os

        from .db.columnar import BACKEND_ENV, set_default_backend

        # The env var also reaches TCP shard servers spawned from here,
        # which never see this interpreter's module override.
        os.environ[BACKEND_ENV] = backend
        set_default_backend(backend)


def _cmd_count(args: argparse.Namespace) -> int:
    _apply_backend_flag(args)
    query = parse_query(args.query)
    database = load_database(args.database)
    result = count_answers(
        query, database,
        method=args.method, max_width=args.max_width,
        deadline_ms=args.deadline_ms, error_budget=args.error_budget,
    )
    if args.explain:
        print(result.explain())
        return 0
    print(f"count    : {result.count}")
    print(f"strategy : {result.strategy}")
    if result.details.get("method") == "approx":
        print(f"approx   : estimate={result.details['estimate']} "
              f"epsilon={result.details['epsilon']:.1f} "
              f"delta={result.details['delta']}")
    plain = {
        key: value for key, value in result.details.items()
        if key not in ("decision_trail", "actual_seconds", "estimated_cost")
    }
    if plain:
        print(f"details  : {plain}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    print(f"query              : {query}")
    print(f"variables          : "
          f"{sorted(v.name for v in query.variables)}")
    print(f"free variables     : "
          f"{sorted(v.name for v in query.free_variables)}")
    print(f"simple query       : {query.is_simple()}")
    print(f"acyclic hypergraph : {is_acyclic(query.hypergraph())}")
    print(f"hypergraph         : {query.hypergraph().describe()}")
    print(f"frontier hypergraph: {frontier_hypergraph(query).describe()}")
    core = colored_core(query)
    plain = sorted(repr(a) for a in core.atoms if not is_color_atom(a))
    print(f"colored core atoms : {', '.join(plain)}")
    print(f"quantified starsize: {quantified_star_size(query)}")
    try:
        width = sharp_hypertree_width(query, max_width=args.max_width)
        print(f"#-hypertree width  : {width}")
    except DecompositionNotFoundError:
        print(f"#-hypertree width  : > {args.max_width}")
    return 0


def _cmd_ucq(args: argparse.Namespace) -> int:
    from .ucq.counting import count_union, prune_subsumed_disjuncts
    from .ucq.union_query import parse_ucq

    union = parse_ucq(args.query)
    database = load_database(args.database)
    pruned = prune_subsumed_disjuncts(union)
    count = count_union(union, database)
    print(f"disjuncts        : {len(union)}")
    print(f"after subsumption: {len(pruned)}")
    print(f"count            : {count}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    from .approx.sampler import AnswerSampler

    query = parse_query(args.query)
    database = load_database(args.database)
    import random as _random

    sampler = AnswerSampler.for_query(
        query, database, max_width=args.max_width,
        rng=_random.Random(args.seed),
    )
    print(f"answers : {len(sampler)}")
    for index in range(min(args.k, len(sampler))):
        answer = sampler.sample()
        rendered = ", ".join(
            f"{v.name}={answer[v]!r}"
            for v in sorted(answer, key=lambda v: v.name)
        )
        print(f"sample {index}: {rendered}")
    return 0


def _cmd_faq(args: argparse.Namespace) -> int:
    from .faq.insideout import insideout_report

    query = parse_query(args.query)
    database = load_database(args.database)
    report = insideout_report(query, database)
    print(f"count          : {report.count}")
    print(f"order          : {report.order}")
    print(f"induced width  : {report.induced_width}")
    print(f"max support    : {report.max_intermediate_support}")
    for step in report.eliminations:
        print(f"  eliminate {step['variable']:<4} ({step['aggregate']:>3}) "
              f"-> schema {step['schema']} support {step['support']}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .counting.explain import explain

    query = parse_query(args.query)
    database = load_database(args.database) if args.database else None
    print(explain(query, database, max_width=args.max_width))
    return 0


def _apply_deadline_defaults(jobs, deadline_ms, error_budget) -> None:
    """Stamp CLI-level deadline/error-budget defaults onto count jobs
    that do not carry their own (job-file values win)."""
    if deadline_ms is None and error_budget is None:
        return
    for job in jobs:
        if not hasattr(job, "deadline_ms"):
            continue  # updates / attachments carry no deadline
        if job.deadline_ms is None:
            job.deadline_ms = deadline_ms
        if job.error_budget is None:
            job.error_budget = error_budget


def _cmd_batch(args: argparse.Namespace) -> int:
    from .service import CountingService, load_jobs

    _apply_backend_flag(args)
    jobs = load_jobs(args.jobs)
    _apply_deadline_defaults(jobs, args.deadline_ms, args.error_budget)
    with CountingService(cache_dir=args.cache_dir) as service:
        results = service.run_batch(jobs)
        stats = service.stats()
    for index, (job, result) in enumerate(zip(jobs, results)):
        label = job.label if job.label is not None else f"job{index}"
        print(f"{label:<16} count={result.count:<8} "
              f"strategy={result.strategy}")
        if args.explain:
            for line in result.explain().splitlines():
                print(f"    {line}")
    print(f"jobs     : {len(jobs)}")
    print(f"plan cache: {stats['hits']} hits / {stats['misses']} misses "
          f"({stats['plans']} plans)")
    if args.output:
        payload = [
            {
                "label": job.label if job.label is not None else f"job{i}",
                "query": str(job.query),
                "count": result.count,
                "strategy": result.strategy,
                "details": result.details,
            }
            for i, (job, result) in enumerate(zip(jobs, results))
        ]
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, default=repr)
            handle.write("\n")
        print(f"results  -> {args.output}")
    return 0


def _session_result_lines(prefix: str, jobs, results, payload, explain):
    from .counting.engine import CountResult

    for index, (job, result) in enumerate(zip(jobs, results)):
        label = prefix + (getattr(job, "label", None) or f"job{index}")
        if isinstance(result, CountResult):
            print(f"{label:<16} count={result.count:<8} "
                  f"strategy={result.strategy}")
            if explain:
                for line in result.explain().splitlines():
                    print(f"    {line}")
            payload.append({
                "label": label, "op": "count", "count": result.count,
                "strategy": result.strategy, "details": result.details,
            })
        else:
            op = result.get("op", "?")
            print(f"{label:<16} {op} database={result.get('database')} "
                  f"tuples={result.get('total_tuples')}")
            payload.append({"label": label, **result})


def _cmd_session(args: argparse.Namespace) -> int:
    from .service import CountingSession, MultiWriterSession, load_stream

    _apply_backend_flag(args)
    streams = [load_stream(path) for path in args.jobs]
    for stream in streams:
        _apply_deadline_defaults(stream, args.deadline_ms,
                                 args.error_budget)
    session_kwargs = {}
    if args.maintainer_budget_mb is not None:
        # <= 0 means "explicitly unbounded" (overriding the env), never
        # a degenerate one-byte budget.
        session_kwargs["maintainer_budget_bytes"] = (
            max(1, int(args.maintainer_budget_mb * 1024 * 1024))
            if args.maintainer_budget_mb > 0 else None
        )
    if args.shard_addrs:
        from .service.net import parse_shard_addrs

        # Addresses imply the TCP fabric.
        session_kwargs["shard_addrs"] = parse_shard_addrs(args.shard_addrs)
    payload: List[dict] = []
    if args.shards > 0 or len(streams) > 1 or args.shard_addrs:
        with MultiWriterSession(shards=args.shards,
                                cache_dir=args.cache_dir,
                                max_pending=args.max_pending,
                                **session_kwargs) as session:
            outcomes = session.run_streams(streams)
            stats = session.stats()
        for index, (jobs, results) in enumerate(zip(streams, outcomes)):
            prefix = f"w{index}/" if len(streams) > 1 else ""
            _session_result_lines(prefix, jobs, results, payload,
                                  args.explain)
        print(f"jobs      : {sum(len(jobs) for jobs in streams)} over "
              f"{len(streams)} writer stream(s)")
        print(f"counts    : {stats['maintained_counts']} maintained "
              f"({stats['reduced_counts']} via Thm 3.7 reduction) / "
              f"{stats['engine_counts']} engine; "
              f"updates {stats['updates_applied']}")
        print(f"shards    : {stats['shards']} ({stats['shard_mode']}; "
              f"plan cache {stats['plan_cache_scope']}, "
              f"cache_dir={stats['cache_dir']})")
        for shard in stats["per_shard"]:
            pool = shard["maintainers"]
            print(f"  {shard.get('shard', '?'):<8} "
                  f"databases={len(shard['databases'])} "
                  f"maintained={shard['maintained_counts']} "
                  f"engine={shard['engine_counts']} "
                  f"resident={pool['resident_bytes']}B "
                  f"(peak {pool['peak_resident_bytes']}B, "
                  f"spilled {pool['spilled']}, "
                  f"restored {pool['restored']})")
    else:
        jobs = streams[0]
        with CountingSession(cache_dir=args.cache_dir,
                             **session_kwargs) as session:
            results = session.run_stream(jobs)
            stats = session.stats()
        _session_result_lines("", jobs, results, payload, args.explain)
        print(f"jobs      : {len(jobs)}")
        print(f"counts    : {stats['maintained_counts']} maintained "
              f"({stats['reduced_counts']} via Thm 3.7 reduction) / "
              f"{stats['engine_counts']} engine; "
              f"updates {stats['updates_applied']}")
        maintainers = stats["maintainers"]
        print(f"maintainers: {maintainers['maintainers']} live "
              f"({maintainers['reduced_maintainers']} reduced), "
              f"{maintainers['clients']} client queries, "
              f"{maintainers['reads_served']} reads, "
              f"{maintainers['resident_bytes']}B resident "
              f"(spilled {maintainers['spilled']}, "
              f"restored {maintainers['restored']})")
        print(f"plan cache: {stats['hits']} hits / "
              f"{stats['misses']} misses "
              f"({stats['plans']} plans, "
              f"cache_dir={stats['cache_dir']})")
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, default=repr)
            handle.write("\n")
        print(f"results  -> {args.output}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Time (or cProfile) one maintained-stream round.

    Builds the bench_session star workload in-process — a hub relation
    plus ``branches`` leaf relations, one fresh insert then one count
    per round — and replays it through a
    :class:`~repro.service.CountingSession`.  ``--profile`` wraps the
    replay in :mod:`cProfile` and prints the top ``--top`` rows by
    cumulative time, which is the quickest way to see where a
    maintained round actually spends its cycles (and whether the
    compiled tier is being exercised).
    """
    import time

    from .dynamic import Insert
    from .service import CountRequest, CountingSession, UpdateRequest

    _apply_backend_flag(args)
    branches, hub, rows = 5, 40, 1500
    query = parse_query(
        "ans(A, " + ", ".join(f"B{i}" for i in range(branches)) + ") :- "
        + "hub(A), "
        + ", ".join(f"r{i}(A, B{i})" for i in range(branches))
    )
    relations = {"hub": [(a,) for a in range(hub)]}
    for branch in range(branches):
        relations[f"r{branch}"] = [
            (i % hub, (i * (7 + branch)) % rows) for i in range(rows)
        ]
    database = Database.from_dict(relations)
    stream: List[object] = []
    for round_index in range(args.rounds):
        stream.append(UpdateRequest(
            "bench",
            Insert(f"r{round_index % branches}",
                   (round_index % hub, rows + round_index)),
        ))
        stream.append(CountRequest(query, "bench",
                                   label=f"round{round_index}"))

    def replay():
        with CountingSession(databases={"bench": database}) as session:
            return session.run_stream(stream), session.stats()

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        started = time.perf_counter()
        profiler.enable()
        results, stats = replay()
        profiler.disable()
        elapsed = time.perf_counter() - started
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.top)
    else:
        started = time.perf_counter()
        results, stats = replay()
        elapsed = time.perf_counter() - started

    counts = [r.count for r in results if hasattr(r, "count")]
    print(f"workload : star query, {branches} branches, hub={hub}, "
          f"{rows} rows/branch, {args.rounds} update+count rounds")
    print(f"elapsed  : {elapsed:.4f}s "
          f"({elapsed / max(args.rounds, 1) * 1e3:.2f}ms/round)")
    print(f"counts   : first={counts[0]} last={counts[-1]}; "
          f"{stats['maintained_counts']} maintained / "
          f"{stats['engine_counts']} engine "
          f"({stats['compiled_counts']} compiled); "
          f"updates {stats['updates_applied']}")
    return 0


def _cmd_shardserver(args: argparse.Namespace) -> int:
    """Host session shards over TCP until interrupted.

    Prints one machine-readable ready line once the listener is bound —
    ``shardserver listening on HOST:PORT (shards=N)`` — which
    :func:`~repro.service.net.server.spawn_shard_server` (and the CI
    ``net`` leg) waits for.  ``SIGINT``/``SIGTERM`` shut the server
    down gracefully: drain, close every hosted core, stop listening.
    """
    import signal
    import threading

    from .service.net import ShardServer, parse_address

    host, port = parse_address(args.listen)
    shard_defaults = {}
    if args.maintainer_budget_mb is not None:
        shard_defaults["maintainer_budget_bytes"] = (
            max(1, int(args.maintainer_budget_mb * 1024 * 1024))
            if args.maintainer_budget_mb > 0 else None
        )
    server = ShardServer(
        host=host, port=port, shards=args.shards,
        max_pending=args.max_pending, cache_dir=args.cache_dir,
        allow_chaos=args.allow_chaos,
        shard_defaults=shard_defaults or None, label=args.label,
    )
    print(f"shardserver listening on {server.address} "
          f"(shards={args.shards})", flush=True)
    stop = threading.Event()

    def _request_stop(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    try:
        stop.wait()
    finally:
        server.close()
    return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    from .db.statistics import degree_profile, suggest_pseudo_free

    query = parse_query(args.query)
    database = load_database(args.database)
    profile = degree_profile(query, database)
    print("degree profile:")
    for variable in sorted(profile, key=lambda v: v.name):
        role = "free" if variable in query.free_variables else "existential"
        print(f"  {variable.name:<4} degree {profile[variable]:<6} ({role})")
    print("pseudo-free candidates (most promising first):")
    for candidate in suggest_pseudo_free(query, database,
                                         threshold=args.threshold):
        print(f"  {sorted(v.name for v in candidate)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Counting solutions to conjunctive queries "
                    "(PODS 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_deadline_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--deadline-ms", type=float, default=None,
            help="per-count deadline in milliseconds: exact when the "
                 "cost model predicts it fits, otherwise a guaranteed "
                 "(estimate, epsilon, delta) approximate answer",
        )
        command.add_argument(
            "--error-budget", type=float, default=None,
            help="relative error budget in (0, 1) for deadline-degraded "
                 "counts (default 0.05; also enables the approx "
                 "strategy on its own)",
        )

    count = sub.add_parser("count", help="count answers over a JSON database")
    count.add_argument("query", help='e.g. "ans(A) :- r(A, B)"')
    count.add_argument("database", help="path to a JSON database file")
    count.add_argument("--method", default="auto",
                       choices=["auto", *registered_strategies()])
    count.add_argument("--max-width", type=int, default=3)
    count.add_argument("--explain", action="store_true",
                       help="dump the engine's cost-ranked decision trail")
    count.add_argument("--backend", default=None,
                       choices=["tuple", "columnar"],
                       help="relation storage backend for loaded "
                            "databases (defaults to $REPRO_BACKEND or 'tuple')")
    add_deadline_flags(count)
    count.set_defaults(func=_cmd_count)

    analyze = sub.add_parser("analyze",
                             help="structural profile of a query")
    analyze.add_argument("query")
    analyze.add_argument("--max-width", type=int, default=3)
    analyze.set_defaults(func=_cmd_analyze)

    ucq = sub.add_parser(
        "ucq", help="count a union of CQs (';'-separated disjuncts)"
    )
    ucq.add_argument("query", help='e.g. "ans(A) :- r(A,B) ; ans(A) :- s(A)"')
    ucq.add_argument("database", help="path to a JSON database file")
    ucq.set_defaults(func=_cmd_ucq)

    sample = sub.add_parser("sample", help="draw uniform answers")
    sample.add_argument("query")
    sample.add_argument("database")
    sample.add_argument("-k", type=int, default=5,
                        help="number of samples to print")
    sample.add_argument("--max-width", type=int, default=3)
    sample.add_argument("--seed", type=int, default=None)
    sample.set_defaults(func=_cmd_sample)

    faq = sub.add_parser(
        "faq", help="count via the Inside-Out (FAQ) comparator"
    )
    faq.add_argument("query")
    faq.add_argument("database")
    faq.set_defaults(func=_cmd_faq)

    explain_cmd = sub.add_parser(
        "explain", help="show the engine's strategy decision trail"
    )
    explain_cmd.add_argument("query")
    explain_cmd.add_argument("database", nargs="?", default=None,
                             help="optional JSON database (enables the "
                                  "hybrid probe)")
    explain_cmd.add_argument("--max-width", type=int, default=3)
    explain_cmd.set_defaults(func=_cmd_explain)

    batch = sub.add_parser(
        "batch", help="run a batch job file through the counting service"
    )
    batch.add_argument("jobs", help="path to a batch job file (JSON)")
    batch.add_argument("--explain", action="store_true",
                       help="dump each job's decision trail")
    batch.add_argument("--output", default=None,
                       help="write results (counts + details) as JSON")
    batch.add_argument("--cache-dir", default=None,
                       help="persistent plan-cache directory (defaults to "
                            "$REPRO_PLAN_CACHE_DIR when set)")
    batch.add_argument("--backend", default=None,
                       choices=["tuple", "columnar"],
                       help="relation storage backend for loaded "
                            "databases (defaults to $REPRO_BACKEND or 'tuple')")
    add_deadline_flags(batch)
    batch.set_defaults(func=_cmd_batch)

    session = sub.add_parser(
        "session",
        help="replay JSON Lines streams of counts and updates through a "
             "counting session (several stream files = several writers)",
    )
    session.add_argument("jobs", nargs="+",
                         help="session stream file(s) (JSONL); each file "
                              "is one writer stream")
    session.add_argument("--shards", type=int, default=0,
                         help="shard the session onto N workers (hash-"
                             "partitioned by database name; 0 = single-"
                             "writer unless several stream files are given)")
    session.add_argument("--shard-addrs", default=None,
                         help="comma-separated host:port shard server "
                              "addresses: the shards run there instead "
                              "of on local threads (defaults to "
                              "$REPRO_SHARD_ADDRS)")
    session.add_argument("--maintainer-budget-mb", type=float, default=None,
                         help="resident maintainer memory budget per "
                              "shard/session in MB (cold maintainers spill "
                              "to checkpoints; 0 = unbounded; defaults to "
                              "$REPRO_MAINTAINER_BUDGET_MB)")
    session.add_argument("--backend", default=None,
                         choices=["tuple", "columnar"],
                         help="relation storage backend for loaded "
                              "databases (defaults to $REPRO_BACKEND or 'tuple')")
    session.add_argument("--cache-dir", default=None,
                         help="persistent plan-cache directory (defaults to "
                              "$REPRO_PLAN_CACHE_DIR when set)")
    session.add_argument("--explain", action="store_true",
                         help="dump each count's decision trail")
    session.add_argument("--output", default=None,
                         help="write results (counts + acks) as JSON")
    session.add_argument("--max-pending", type=int, default=None,
                         help="per-shard admission bound (sharded "
                              "sessions): producers backpressure when a "
                              "shard has this many jobs in flight")
    add_deadline_flags(session)
    session.set_defaults(func=_cmd_session)

    shardserver = sub.add_parser(
        "shardserver",
        help="host session shards over TCP for --shard-addrs sessions "
             "(readiness/liveness probes, graceful drain)",
    )
    shardserver.add_argument("--listen", required=True, metavar="HOST:PORT",
                             help="listen address (port 0 = ephemeral; "
                                  "the bound address is printed on the "
                                  "ready line)")
    shardserver.add_argument("--shards", type=int, default=1,
                             help="eagerly created default shard cores "
                                  "(sessions create namespaced cores "
                                  "lazily regardless)")
    shardserver.add_argument("--max-pending", type=int, default=None,
                             help="per-core admission bound: saturated "
                                  "cores reject submits over the wire "
                                  "with a retry-after hint")
    shardserver.add_argument("--cache-dir", default=None,
                             help="persistent plan-cache directory")
    shardserver.add_argument("--maintainer-budget-mb", type=float,
                             default=None,
                             help="resident maintainer budget per hosted "
                                  "core in MB (0 = unbounded; defaults "
                                  "to $REPRO_MAINTAINER_BUDGET_MB)")
    shardserver.add_argument("--allow-chaos", action="store_true",
                             help="enable the fault-injection 'stall' op "
                                  "(tests and chaos benchmarks only)")
    shardserver.add_argument("--label", default=None,
                             help="label for this server's stats")
    shardserver.set_defaults(func=_cmd_shardserver)

    bench = sub.add_parser(
        "bench",
        help="time (or cProfile) one maintained-stream round in-process",
    )
    bench.add_argument("--profile", action="store_true",
                       help="cProfile the round and print the hottest "
                            "rows by cumulative time")
    bench.add_argument("--top", type=int, default=25,
                       help="rows of profiler output to print "
                            "(with --profile)")
    bench.add_argument("--rounds", type=int, default=40,
                       help="update+count rounds to replay")
    bench.add_argument("--backend", default=None,
                       choices=["tuple", "columnar"],
                       help="relation storage backend for loaded "
                            "databases (defaults to $REPRO_BACKEND or 'tuple')")
    bench.set_defaults(func=_cmd_bench)

    suggest = sub.add_parser(
        "suggest", help="degree profile and pseudo-free suggestions"
    )
    suggest.add_argument("query")
    suggest.add_argument("database")
    suggest.add_argument("--threshold", type=int, default=1)
    suggest.set_defaults(func=_cmd_suggest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
