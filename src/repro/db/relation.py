"""Database relations.

A relation instance is a named, fixed-arity set of tuples of plain (hashable)
Python values.  Query :class:`~repro.query.terms.Constant` terms match a
database value ``v`` when ``constant.value == v``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Hashable, Iterable, Iterator, Tuple

from ..exceptions import ArityMismatchError

Row = Tuple[Hashable, ...]


class Relation:
    """A finite relation instance: a set of same-length tuples.

    The class is a thin, validated wrapper around a ``frozenset`` of rows.
    It is immutable; "updates" go through :meth:`union` / :meth:`restrict`
    / :meth:`derived`.
    Hash indexes over column subsets (:meth:`index_on`) and the
    :meth:`statistics` handle are built lazily and cached — immutability
    means they never go stale.
    """

    __slots__ = ("name", "arity", "_rows", "_indexes", "_statistics",
                 "_renamed", "_content_tag", "_domain")

    def __init__(self, name: str, arity: int, rows: Iterable[Row] = ()):
        self.name = name
        self.arity = arity
        frozen = []
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise ArityMismatchError(
                    f"relation {name!r} has arity {arity}, got row of "
                    f"length {len(row)}: {row!r}"
                )
            frozen.append(row)
        self._rows: frozenset = frozenset(frozen)
        self._reset_caches()

    def _reset_caches(self) -> None:
        """Start every content-derived cache empty (a new version)."""
        self._indexes: Dict[Tuple[int, ...], Dict[Row, Tuple[Row, ...]]] = {}
        self._statistics = None
        self._renamed: Dict[str, "Relation"] = {}
        #: Lazily computed, name-agnostic content digest (see
        #: ``repro.counting.plan_cache.relation_content_tag``) — a shared
        #: one-element cell, like ``_domain``, so a tag computed through
        #: the engine's canonical alias is visible from the caller's
        #: relation (rendering a large row set is O(n log n) string work).
        self._content_tag = [None]
        #: Cached :meth:`active_domain` — a shared one-element cell so a
        #: domain computed through any :meth:`renamed` alias serves every
        #: alias (recomputing was O(n * arity) per call and the sampler
        #: and canonicalization layers ask repeatedly).
        self._domain = [None]

    # ------------------------------------------------------------------
    @property
    def rows(self) -> frozenset:
        """The underlying frozenset of rows."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.arity == other.arity
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.name, self.arity, self._rows))

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, arity={self.arity}, |rows|={len(self)})"

    # ------------------------------------------------------------------
    # Pickling (maintainer checkpoints): ship the contents, not the caches.
    def __getstate__(self):
        return (self.name, self.arity, self._rows)

    def __setstate__(self, state) -> None:
        self.name, self.arity, self._rows = state
        self._reset_caches()

    # ------------------------------------------------------------------
    def index_on(self, positions: Iterable[int]) -> Dict[Row, Tuple[Row, ...]]:
        """A cached hash index ``{key: rows}`` on the columns at *positions*.

        Built lazily on first use; do not mutate the returned mapping.
        """
        positions = tuple(positions)
        for position in positions:
            if not 0 <= position < self.arity:
                raise IndexError(
                    f"column {position} out of range for arity {self.arity}"
                )
        cached = self._indexes.get(positions)
        if cached is not None:
            return cached
        if len(positions) == 1:
            position = positions[0]
            key_of = lambda row: (row[position],)  # noqa: E731
        elif positions:
            key_of = itemgetter(*positions)
        else:
            key_of = lambda row: ()  # noqa: E731
        buckets: Dict[Row, list] = {}
        for row in self._rows:
            key = key_of(row)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row]
            else:
                bucket.append(row)
        index = {key: tuple(rows) for key, rows in buckets.items()}
        self._indexes[positions] = index
        return index

    def statistics(self):
        """The cached :class:`~repro.db.statistics.Statistics` handle."""
        if self._statistics is None:
            from .statistics import Statistics

            self._statistics = Statistics(self)
        return self._statistics

    # ------------------------------------------------------------------
    def union(self, rows: Iterable[Row]) -> "Relation":
        """A new relation with additional rows."""
        return Relation(self.name, self.arity, self._rows.union(map(tuple, rows)))

    def restrict(self, keep) -> "Relation":
        """A new relation keeping only rows for which ``keep(row)`` is true."""
        return Relation(self.name, self.arity, (r for r in self._rows if keep(r)))

    def derived(self, rows: frozenset) -> "Relation":
        """The next version of this relation, holding *rows*.

        *rows* must be a frozenset of tuples of this relation's arity —
        the caller (:func:`repro.dynamic.updates.apply_update`) derived
        it from :attr:`rows` with one set operation, so nothing is
        re-validated or re-sorted.  The new version shares no index,
        statistics, alias or tag cache with this one.
        """
        version = object.__new__(type(self))
        version.name = self.name
        version.arity = self.arity
        version._rows = rows
        version._reset_caches()
        return version

    def renamed(self, name: str) -> "Relation":
        """The same rows under a different relation symbol.

        The result is cached per name and *shares* this relation's row
        set, index cache and statistics handle — the contents are
        identical, so an index built through either alias serves both.
        This is what makes the engine's canonical-space execution (every
        call runs over shape-canonical relation symbols) essentially
        free: the canonical alias of a relation is one dict lookup and
        its caches stay warm across calls and batches.
        """
        if name == self.name:
            return self
        cached = self._renamed.get(name)
        if cached is None:
            cached = object.__new__(type(self))
            cached.name = name
            cached.arity = self.arity
            self._share_contents(cached)
            self._renamed[name] = cached
            self._renamed.setdefault(self.name, self)
        return cached

    def _share_contents(self, alias: "Relation") -> None:
        """Point *alias* at this relation's contents and caches.

        Subclasses with extra content slots (the columnar backend's
        column arrays and dictionaries) extend this so an alias shares
        those too — an alias differs from its source by name only.
        """
        alias._rows = self._rows
        alias._indexes = self._indexes         # shared: same contents
        alias._statistics = self.statistics()  # shared: content-based
        alias._renamed = self._renamed         # shared alias pool
        alias._content_tag = self._content_tag  # shared cell: name-agnostic
        alias._domain = self._domain           # shared cell: one compute

    def active_domain(self) -> frozenset:
        """All values occurring in any position of any row (cached).

        The relation is immutable, so the domain is computed once and
        shared across every :meth:`renamed` alias.
        """
        cached = self._domain[0]
        if cached is None:
            values: set = set()
            for row in self.rows:
                values.update(row)
            cached = frozenset(values)
            self._domain[0] = cached
        return cached
