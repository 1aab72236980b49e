"""The update vocabulary: single-tuple inserts and deletes.

Updates are immutable values; applying one to a :class:`Database` yields a
new database (the library's databases are immutable throughout).  The
incremental maintainer consumes the same values, so a test can replay one
update stream against both the maintainer and a from-scratch recount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple, Union

from ..db.database import Database
from ..exceptions import DatabaseError

Row = Tuple[Hashable, ...]


@dataclass(frozen=True)
class Insert:
    """Insert *row* into the relation named *relation*."""

    relation: str
    row: Row

    def __post_init__(self) -> None:
        object.__setattr__(self, "row", tuple(self.row))


@dataclass(frozen=True)
class Delete:
    """Delete *row* from the relation named *relation*."""

    relation: str
    row: Row

    def __post_init__(self) -> None:
        object.__setattr__(self, "row", tuple(self.row))


Update = Union[Insert, Delete]


def apply_update(database: Database, update: Update) -> Database:
    """A new database with *update* applied.

    Inserting an existing row or deleting a missing one raises
    :class:`DatabaseError` — silent no-ops would let the maintainer and
    the database drift apart.

    The cost is one C-level set operation on the touched relation's
    rows: the new version is :meth:`~repro.db.relation.Relation.derived`
    from the old row set without re-validating or re-sorting it, and
    keeps the relation's backend.
    """
    relation = database[update.relation]
    rows = relation.rows
    if isinstance(update, Insert):
        if len(update.row) != relation.arity:
            raise DatabaseError(
                f"row {update.row!r} does not match arity "
                f"{relation.arity} of {update.relation!r}"
            )
        if update.row in rows:
            raise DatabaseError(
                f"row {update.row!r} already present in {update.relation!r}"
            )
        rows = rows | {update.row}
    else:
        if update.row not in rows:
            raise DatabaseError(
                f"row {update.row!r} not present in {update.relation!r}"
            )
        rows = rows - {update.row}
    return database.with_relation(relation.derived(rows))
