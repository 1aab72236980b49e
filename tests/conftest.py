"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.envknobs import isolated_repro_env
from repro.query import Atom, ConjunctiveQuery, Variable, parse_query

A, B, C, D, E, F, G, H, I = (Variable(x) for x in "ABCDEFGHI")


@pytest.fixture
def repro_env_sandbox():
    """Snapshot and restore every ``REPRO_*`` knob plus the process
    default plan cache — tests that mutate the environment (or run
    under a knob-setting CI leg and need a clean slate) opt in with
    this instead of hand-rolled save/restore blocks."""
    with isolated_repro_env():
        yield


@pytest.fixture
def shard_fabric(request):
    """``MultiWriterSession`` keyword arguments for one shard flavour.

    Parametrize indirectly with ``"thread"`` or ``"tcp"``; ``tcp``
    starts two in-process shard servers for the test's duration.
    """
    if request.param == "thread":
        yield {"shard_mode": "thread"}
        return
    from repro.service.net import ShardServer

    with ShardServer(shards=1) as first, ShardServer(shards=1) as second:
        yield {"shard_mode": "tcp",
               "shard_addrs": [first.address, second.address]}


@pytest.fixture
def path_query() -> ConjunctiveQuery:
    """ans(A, C) :- r(A, B), s(B, C) — the simplest projected query."""
    return parse_query("ans(A, C) :- r(A, B), s(B, C)")


@pytest.fixture
def path_database() -> Database:
    return Database.from_dict({
        "r": [(1, 10), (1, 11), (2, 10), (3, 12)],
        "s": [(10, 5), (10, 6), (11, 5), (12, 7)],
    })


@pytest.fixture
def triangle_query() -> ConjunctiveQuery:
    """ans(A) :- e(A, B), e(B, C), e(C, A) — a cyclic query."""
    return parse_query("ans(A) :- e(A, B), e(B, C), e(C, A)")


@pytest.fixture
def triangle_database() -> Database:
    return Database.from_dict({
        "e": [(1, 2), (2, 3), (3, 1), (2, 1), (1, 4), (4, 5)],
    })


def make_query(*atom_specs, free=()) -> ConjunctiveQuery:
    """Helper: make_query(("r", "A", "B"), free="A")."""
    atoms = [
        Atom(spec[0], tuple(Variable(v) for v in spec[1:]))
        for spec in atom_specs
    ]
    free_vars = frozenset(Variable(v) for v in free)
    return ConjunctiveQuery(frozenset(atoms), free_vars)
