"""Serialization: JSON databases and Datalog query text, round-trippable.

The CLI, the examples and downstream users need a way to move instances in
and out of the library.  Two humble formats cover it:

* databases <-> JSON objects ``{relation: [[...row...], ...]}`` — the same
  shape the CLI consumes.  Arities are stored explicitly so that empty
  relations survive the round trip (a plain row list cannot express them);
* queries <-> the Datalog dialect of :mod:`repro.query.parser`.

Only JSON-representable constants round-trip (strings, ints, floats,
bools, None, and nested lists thereof — lists come back as tuples so rows
stay hashable).

Rows are written in their natural (tuple) order, so the output is
deterministic.  A relation whose rows do not compare — mixed types in a
column, say ``1`` and ``"a"`` — falls back to ``repr`` order.  The row
tuples themselves go into the payload uncopied: the JSON encoder writes a
tuple as an array, so the wire and file formats are unchanged.  Reading
back, rows become tuples in one C-level pass unless some value is a
nested list; only such payloads pay a per-value freeze.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Dict, List

from ..exceptions import DatabaseError
from ..query.atom import Atom
from ..query.query import ConjunctiveQuery
from ..query.terms import Constant, Variable
from .columnar import make_relation
from .database import Database

#: Key carrying explicit arities in the JSON object (optional on input).
ARITY_KEY = "__arities__"


def database_to_dict(database: Database) -> Dict[str, object]:
    """A JSON-ready dict for *database*, including explicit arities.

    Each relation is a sorted list of its own row tuples (see the module
    docstring for the order); callers must not mutate it.
    """
    payload: Dict[str, object] = {
        name: _sorted_rows(database[name].rows) for name in sorted(database)
    }
    payload[ARITY_KEY] = {
        name: database[name].arity for name in sorted(database)
    }
    return payload


def database_from_dict(payload: Dict[str, object],
                       backend: str | None = None) -> Database:
    """Inverse of :func:`database_to_dict`; tolerates a missing arity map.

    Relations are built under *backend* (default: the process-wide
    :func:`~repro.db.columnar.default_backend`, i.e. ``$REPRO_BACKEND``).
    Every service-side database rebuild — session attach, shard handoff,
    job specs — funnels through here, so a shard server's environment
    decides the backend its resident databases run on.
    """
    arities = payload.get(ARITY_KEY, {})
    relations: List = []
    for name, rows in payload.items():
        if name == ARITY_KEY:
            continue
        rows = list(map(tuple, rows))
        if list in set(map(type, chain.from_iterable(rows))):
            rows = [tuple(_freeze(value) for value in row) for row in rows]
        if name in arities:
            arity = arities[name]
        elif rows:
            arity = len(rows[0])
        else:
            raise DatabaseError(
                f"empty relation {name!r} needs an explicit arity under "
                f"{ARITY_KEY!r}"
            )
        relations.append(make_relation(name, arity, rows, backend=backend))
    return Database(relations)


def dump_database(database: Database, path: str) -> None:
    """Write *database* to *path* as JSON."""
    with open(path, "w") as handle:
        json.dump(database_to_dict(database), handle, indent=1)


def load_database(path: str) -> Database:
    """Read a database from a JSON file (the CLI's format)."""
    with open(path) as handle:
        return database_from_dict(json.load(handle))


def _sorted_rows(rows) -> list:
    """*rows* in natural order, or in ``repr`` order when they do not
    compare."""
    try:
        return sorted(rows)
    except TypeError:
        return sorted(rows, key=repr)


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def query_to_text(query: ConjunctiveQuery) -> str:
    """Render *query* in the parser's Datalog dialect.

    ``parse_query(query_to_text(q))`` equals ``q`` whenever the query's
    relation symbols and variable names are parser-compatible identifiers
    and its constants are strings or integers.
    """
    head_vars = ", ".join(
        v.name for v in sorted(query.free_variables, key=lambda v: v.name)
    )
    body = ", ".join(_atom_text(atom) for atom in query.atoms_sorted())
    return f"{query.name}({head_vars}) :- {body}"


def _atom_text(atom: Atom) -> str:
    terms = ", ".join(_term_text(term) for term in atom.terms)
    return f"{atom.relation}({terms})"


def _term_text(term) -> str:
    if isinstance(term, Variable):
        return term.name
    value = term.value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return f"'{value}'"
