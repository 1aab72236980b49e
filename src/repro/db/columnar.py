"""Columnar relation backend: dictionary-encoded array columns.

A :class:`ColumnarRelation` stores its rows as parallel *code columns*:
per column, a dictionary of distinct values (:class:`ColumnDict`) and an
``array('q')`` of int64 codes into it.  The class honors the full
immutable-plus-cached-index :class:`~repro.db.relation.Relation`
contract — ``rows`` / iteration / ``index_on`` / ``statistics`` /
``renamed`` / ``union`` / ``restrict`` / content tags / pickling — so it
drops into every tuple-path consumer unchanged (the frozenset of rows is
decoded lazily, once, only when a tuple-path consumer asks).  What the
encoding buys:

* **O(1) statistics** — a column's distinct count *is* its dictionary
  size (:class:`ColumnarStatistics`), no index build;
* **vectorized kernels** — when :mod:`numpy` is importable, the
  :class:`Frame` workspace runs selection masks, code-space hash joins,
  semijoins as key-set membership scans, and group-counts entirely over
  int64 arrays.  The compiled execution tier
  (:mod:`repro.counting.compile`) builds on these kernels;
* **cheap pickling** — a maintainer checkpoint stores dictionaries
  plus raw code bytes, never a materialized row set.

numpy is used when importable and never required, and it is imported
on the first kernel call, not with this module: a tuple-backend process
never loads it.  Without numpy the
relation still satisfies the whole contract through the decoded-row
path, the kernels report unavailable
(:func:`columnar_kernels_available`), and every consumer falls back to
the tuple algorithms.  A kernel that cannot run an input *exactly*
(e.g. a combined key space overflowing int64) raises
:class:`ColumnarFallback`; callers catch it and take the tuple path —
vectorization is a fast path, never a semantics change.

Backend selection: ``make_relation`` / ``Database.from_dict`` /
``repro.db.io`` consult :func:`default_backend`, which reads
``$REPRO_BACKEND`` through :func:`repro.envknobs.env_choice` (garbage
warns once and falls back to ``tuple``); the CLI's ``--backend`` pins it
programmatically via :func:`set_default_backend`.
"""

from __future__ import annotations

import functools
import importlib.util
from array import array
from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple

from ..envknobs import env_choice
from ..exceptions import ArityMismatchError
from .relation import Relation, Row
from .statistics import Statistics


class _LazyNumpy:
    """Stands in for :mod:`numpy` until a kernel first touches it.

    Importing numpy costs a few hundred milliseconds and several MB of
    resident memory, and a process that only ever counts over tuple
    relations never needs it.  The first attribute access imports numpy
    and rebinds the module global, so later kernel calls use numpy
    directly.
    """

    __slots__ = ()

    def __getattr__(self, attr):
        global _np
        import numpy

        _np = numpy
        return getattr(numpy, attr)


_np = _LazyNumpy()

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "ColumnDict",
    "ColumnarFallback",
    "ColumnarRelation",
    "ColumnarStatistics",
    "Frame",
    "columnar_kernels_available",
    "database_backend",
    "default_backend",
    "make_relation",
    "set_default_backend",
]

#: Environment knob naming the default relation backend.
BACKEND_ENV = "REPRO_BACKEND"

#: Registered backends.  The registry is the seam for future backends
#: (SIMD, off-heap, ...): add a name here and a branch in
#: :func:`make_relation`; everything downstream dispatches on instance
#: type, never on the name.
BACKENDS = ("tuple", "columnar")

#: Programmatic override (the CLI's ``--backend``): ``None`` defers to
#: the environment, a backend name wins outright.
_FORCED: Optional[str] = None

#: Combined key codes must stay well inside int64.
_MAX_CODE = 2 ** 62

#: Below this combined-key radix, membership tests run over a dense
#: boolean table (three O(n) passes) instead of sort-based ``np.isin``
#: (O(n log n) with a far larger constant) — the regime of the small,
#: hot maintained-stream relations.  4 MiB of bools at worst.
_TABLE_BOUND = 1 << 22


def default_backend() -> str:
    """The backend ``make_relation`` uses when none is named.

    ``$REPRO_BACKEND`` via :func:`~repro.envknobs.env_choice`: unset or
    empty means ``tuple``; an unknown value warns once and falls back to
    ``tuple``.  Checked per call so long-lived services can flip it.
    """
    if _FORCED is not None:
        return _FORCED
    return env_choice(BACKEND_ENV, BACKENDS, "tuple")


def set_default_backend(value: Optional[str]) -> None:
    """Force the default backend; ``None`` restores the env check."""
    global _FORCED
    if value is not None and value not in BACKENDS:
        raise ValueError(
            f"unknown relation backend {value!r}; expected one of {BACKENDS}"
        )
    _FORCED = value


@functools.lru_cache(maxsize=None)
def columnar_kernels_available() -> bool:
    """Whether the vectorized (numpy) kernels can run in this process.

    Answered by locating numpy, not importing it (see :class:`_LazyNumpy`).
    """
    return importlib.util.find_spec("numpy") is not None


def make_relation(name: str, arity: int, rows: Iterable[Row] = (),
                  backend: Optional[str] = None) -> Relation:
    """Build a relation under *backend* (default: :func:`default_backend`)."""
    backend = backend or default_backend()
    if backend == "columnar":
        return ColumnarRelation(name, arity, rows)
    if backend == "tuple":
        return Relation(name, arity, rows)
    raise ValueError(
        f"unknown relation backend {backend!r}; expected one of {BACKENDS}"
    )


def database_backend(database) -> str:
    """``'columnar'`` when every relation is columnar, else ``'tuple'``.

    Mixed databases report ``'tuple'`` — that is the path their joins
    take.  An empty database reports ``'tuple'`` too.
    """
    relations = database.relations()
    if relations and all(isinstance(r, ColumnarRelation)
                         for r in relations):
        return "columnar"
    return "tuple"


class ColumnarFallback(Exception):
    """A vectorized kernel cannot run this input exactly.

    Raised (never swallowed into a wrong answer) when, e.g., a combined
    key space would overflow int64 or an aggregate product could — the
    caller reverts to the tuple path, which is always exact.
    """


class ColumnDict:
    """One column's value dictionary: ``code <-> value``, plus cached
    translations into other dictionaries.

    Translations (``my code -> other's code, -1 when absent``) are how
    kernels compare columns that were encoded independently; the cache
    keys *other* by identity and holds it strongly, so a cached
    translation can never be misattributed to a recycled object.
    """

    __slots__ = ("values", "code_of", "_translations")

    def __init__(self, values: Sequence[Hashable],
                 code_of: Dict[Hashable, int]):
        self.values = tuple(values)
        self.code_of = code_of
        self._translations: Dict["ColumnDict", object] = {}

    def __len__(self) -> int:
        return len(self.values)

    def translate_to(self, other: "ColumnDict"):
        """An int64 array mapping my codes to *other*'s (-1 = absent)."""
        cached = self._translations.get(other)
        if cached is None:
            if other is self:
                cached = _np.arange(len(self.values), dtype=_np.int64)
            else:
                lookup = other.code_of.get
                cached = _np.fromiter(
                    (lookup(value, -1) for value in self.values),
                    dtype=_np.int64, count=len(self.values),
                )
            self._translations[other] = cached
        return cached


class ColumnarStatistics(Statistics):
    """Relation statistics with O(1) distinct counts.

    A column's distinct-value count is its dictionary size — no hash
    index build, no row scan.  Value sets and degrees are still computed
    the generic (cached) way.
    """

    __slots__ = ()

    def distinct(self, position: int) -> int:
        dicts = self.relation._dicts
        if not 0 <= position < self.relation.arity:
            raise IndexError(
                f"column {position} out of range for arity "
                f"{self.relation.arity}"
            )
        return len(dicts[position])


class ColumnarRelation(Relation):
    """A relation stored as dictionary-encoded parallel code columns.

    Construction encodes and deduplicates the rows; afterwards the
    instance is immutable, like every relation.  The decoded frozenset
    of rows is built lazily on first tuple-path access and cached (and
    shared across :meth:`renamed` aliases), so columnar relations are
    drop-in everywhere while the vectorized consumers never pay for
    tuples they do not touch.
    """

    __slots__ = ("_dicts", "_codes", "_nrows", "_kcache")

    def __init__(self, name: str, arity: int, rows: Iterable[Row] = ()):
        self.name = name
        self.arity = arity
        code_maps: list = [{} for _ in range(arity)]
        values: list = [[] for _ in range(arity)]
        columns = [array("q") for _ in range(arity)]
        seen: set = set()
        nrows = 0
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise ArityMismatchError(
                    f"relation {name!r} has arity {arity}, got row of "
                    f"length {len(row)}: {row!r}"
                )
            encoded = []
            for position, value in enumerate(row):
                code_map = code_maps[position]
                code = code_map.get(value)
                if code is None:
                    code = len(values[position])
                    code_map[value] = code
                    values[position].append(value)
                encoded.append(code)
            encoded = tuple(encoded)
            if encoded in seen:
                continue  # set semantics; a duplicate adds no dict entry
            seen.add(encoded)
            nrows += 1
            for position, code in enumerate(encoded):
                columns[position].append(code)
        self._dicts = tuple(
            ColumnDict(values[position], code_maps[position])
            for position in range(arity)
        )
        self._codes = tuple(columns)
        self._nrows = nrows
        self._reset_caches()

    def _reset_caches(self) -> None:
        Relation._reset_caches(self)
        self._rows = None  # decoded lazily; see the ``rows`` property
        #: Shared (across renamed aliases) cache of kernel-derived
        #: artifacts: numpy column views, scan frames, key aggregates —
        #: the columnar analogue of the tuple backend's ``_indexes``.
        self._kcache: dict = {}

    # ------------------------------------------------------------------
    # Contract: tuple-path access (lazy decode)
    # ------------------------------------------------------------------
    @property
    def rows(self) -> frozenset:
        rows = self._rows
        if rows is None:
            rows = self._kcache.get("rows")
            if rows is None:
                if self.arity == 0:
                    rows = frozenset([()] if self._nrows else [])
                else:
                    decoded = [
                        tuple(map(column_dict.values.__getitem__, codes))
                        for column_dict, codes in zip(self._dicts,
                                                      self._codes)
                    ]
                    rows = frozenset(zip(*decoded))
                self._kcache["rows"] = rows
            self._rows = rows
        return rows

    def __len__(self) -> int:
        return self._nrows

    def __iter__(self):
        return iter(self.rows)

    def __contains__(self, row: Row) -> bool:
        row = tuple(row)
        if len(row) != self.arity:
            return False
        for position, value in enumerate(row):
            if value not in self._dicts[position].code_of:
                return False
        return row in self.rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.arity == other.arity
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.name, self.arity, self.rows))

    def __repr__(self) -> str:
        return (f"ColumnarRelation({self.name!r}, arity={self.arity}, "
                f"|rows|={len(self)})")

    def index_on(self, positions: Iterable[int]):
        self.rows  # decode once; the base builder iterates the frozenset
        return Relation.index_on(self, positions)

    def statistics(self):
        if self._statistics is None:
            self._statistics = ColumnarStatistics(self)
        return self._statistics

    def union(self, rows: Iterable[Row]) -> "ColumnarRelation":
        return type(self)(self.name, self.arity,
                          self.rows.union(map(tuple, rows)))

    def restrict(self, keep) -> "ColumnarRelation":
        return type(self)(self.name, self.arity,
                          (row for row in self.rows if keep(row)))

    def derived(self, rows: frozenset) -> "ColumnarRelation":
        # Re-encoded in repr order: equal versions get equal encodings
        # however the row set was reached.
        return type(self)(self.name, self.arity, sorted(rows, key=repr))

    def active_domain(self) -> frozenset:
        cached = self._domain[0]
        if cached is None:
            values: set = set()
            for column_dict in self._dicts:
                values.update(column_dict.values)
            cached = frozenset(values)
            self._domain[0] = cached
        return cached

    def _share_contents(self, alias: Relation) -> None:
        Relation._share_contents(self, alias)
        alias._dicts = self._dicts
        alias._codes = self._codes
        alias._nrows = self._nrows
        alias._kcache = self._kcache  # shared: kernels see one cache

    # ------------------------------------------------------------------
    # Pickling: dictionaries + raw code bytes, never decoded rows.
    # ------------------------------------------------------------------
    def __getstate__(self):
        return ("columnar/1", self.name, self.arity, self._nrows,
                tuple(column_dict.values for column_dict in self._dicts),
                tuple(codes.tobytes() for codes in self._codes))

    def __setstate__(self, state) -> None:
        _tag, self.name, self.arity, self._nrows, values, blobs = state
        dicts = []
        codes = []
        for column_values, blob in zip(values, blobs):
            column = array("q")
            column.frombytes(blob)
            dicts.append(ColumnDict(
                column_values,
                {value: code for code, value in enumerate(column_values)},
            ))
            codes.append(column)
        self._dicts = tuple(dicts)
        self._codes = tuple(codes)
        self._reset_caches()

    # ------------------------------------------------------------------
    # Kernel access
    # ------------------------------------------------------------------
    def np_column(self, position: int):
        """The int64 numpy view of one code column (cached, zero-copy)."""
        key = ("np", position)
        column = self._kcache.get(key)
        if column is None:
            codes = self._codes[position]
            if len(codes):
                column = _np.frombuffer(codes, dtype=_np.int64)
            else:
                column = _np.empty(0, dtype=_np.int64)
            self._kcache[key] = column
        return column

    def kernel_cached(self, key: tuple, compute):
        """Memoize a kernel artifact on this (immutable) relation."""
        value = self._kcache.get(key)
        if value is None:
            value = compute()
            self._kcache[key] = value
        return value

    @classmethod
    def from_columns(cls, name: str, dicts: Sequence[ColumnDict],
                     columns: Sequence, nrows: Optional[int] = None
                     ) -> "ColumnarRelation":
        """Build from already-deduplicated numpy code columns.

        Kernel results re-enter the relation layer here without a
        decode/re-encode round trip.  Dictionaries are compacted to the
        codes actually present, preserving the invariant that a
        dictionary is exactly the column's active domain (which is what
        makes ``statistics().distinct`` O(1) honest).
        """
        if nrows is None:
            if not len(columns):
                raise ValueError("arity-0 from_columns needs explicit nrows")
            nrows = int(len(columns[0]))
        self = object.__new__(cls)
        self.name = name
        self.arity = len(columns)
        out_dicts = []
        out_codes = []
        kcache: dict = {}
        for position, (column, column_dict) in enumerate(
                zip(columns, dicts)):
            column = _np.ascontiguousarray(column, dtype=_np.int64)
            size = len(column_dict)
            used = _np.zeros(size, dtype=bool)
            if len(column):
                used[column] = True
            if bool(used.all()):
                compact_dict = column_dict
                compact = column
            else:
                remap = _np.cumsum(used, dtype=_np.int64) - 1
                compact = remap[column] if len(column) else column
                kept = [value for value, keep
                        in zip(column_dict.values, used.tolist()) if keep]
                compact_dict = ColumnDict(
                    kept, {value: code for code, value in enumerate(kept)}
                )
                compact = _np.ascontiguousarray(compact, dtype=_np.int64)
            out_dicts.append(compact_dict)
            codes = array("q")
            codes.frombytes(compact.tobytes())
            out_codes.append(codes)
            kcache[("np", position)] = compact
        self._dicts = tuple(out_dicts)
        self._codes = tuple(out_codes)
        self._nrows = nrows
        self._reset_caches()
        self._kcache = kcache
        return self


# ----------------------------------------------------------------------
# Vectorized kernels (numpy only).  A Frame is the kernels' workspace:
# a *set* of rows as parallel int64 code columns, each column carrying
# the ColumnDict its codes index.  Frames derived from exactly one
# relation by deterministic steps carry (host, ckey) so pure derivations
# memoize on the relation — the columnar analogue of index_on caching.
# ----------------------------------------------------------------------
class Frame:
    """Parallel code columns over a fixed width; rows are unique."""

    __slots__ = ("n", "cols", "dicts", "host", "ckey", "memo")

    def __init__(self, n: int, cols: tuple, dicts: tuple,
                 host: Optional[ColumnarRelation] = None,
                 ckey: Optional[tuple] = None):
        self.n = n
        self.cols = tuple(cols)
        self.dicts = tuple(dicts)
        self.host = host
        self.ckey = ckey
        self.memo: Optional[dict] = None

    def __len__(self) -> int:
        return self.n

    @property
    def width(self) -> int:
        return len(self.cols)

    def take(self, indexes) -> "Frame":
        return Frame(int(len(indexes)),
                     tuple(col[indexes] for col in self.cols), self.dicts)

    def cached(self, key: tuple, compute):
        """Memoize *compute* for this frame.

        Pure derivations of one relation store on that relation (shared
        by every frame re-derived from it); other frames memoize on the
        instance — worthwhile whenever a caller keeps the frame alive
        across probes (the compiled tier's staged frames do).
        """
        if self.host is not None and self.ckey is not None:
            return self.host.kernel_cached(self.ckey + key, compute)
        memo = self.memo
        if memo is None:
            memo = self.memo = {}
        value = memo.get(key)
        if value is None:
            value = memo[key] = compute()
        return value


def _dict_sizes(dicts: Sequence[ColumnDict]) -> list:
    return [max(len(column_dict), 1) for column_dict in dicts]


def _combine(cols: Sequence, sizes: Sequence[int]):
    """Mixed-radix combination of parallel code columns into one int64
    code column, compressing through ``np.unique`` when the radix
    product would overflow.  Only valid for *one-sided* keys (dedup,
    grouping of a single collection): compression makes the mapping
    run-specific."""
    if not cols:
        raise ValueError("cannot combine zero columns")
    codes = cols[0]
    size = sizes[0]
    for col, s in zip(cols[1:], sizes[1:]):
        if size * s >= _MAX_CODE:
            _uniq, inverse = _np.unique(codes, return_inverse=True)
            codes = inverse.astype(_np.int64, copy=False)
            size = len(_uniq)
            if size * s >= _MAX_CODE:
                raise ColumnarFallback("combined key space exceeds int64")
        codes = codes * s + col
        size *= s
    return codes


def _combine_strict(cols: Sequence, sizes: Sequence[int], n: int):
    """Pure mixed-radix combination (no compression): the mapping is a
    function of the dictionaries alone, so codes built at different
    times (aggregate build vs probe) stay comparable.  Raises
    :class:`ColumnarFallback` on overflow."""
    if not cols:
        return _np.zeros(n, dtype=_np.int64)
    radix = 1
    for s in sizes:
        radix *= s
        if radix >= _MAX_CODE:
            raise ColumnarFallback("combined key space exceeds int64")
    codes = cols[0]
    for col, s in zip(cols[1:], sizes[1:]):
        codes = codes * s + col
    return codes


def dedup_frame(frame: Frame) -> Frame:
    """The frame with duplicate rows removed (set semantics)."""
    if frame.n <= 1:
        return frame
    if not frame.cols:
        return Frame(1, (), ())
    codes = _combine(list(frame.cols), _dict_sizes(frame.dicts))
    _uniq, indexes = _np.unique(codes, return_index=True)
    if len(indexes) == frame.n:
        return frame
    indexes.sort()
    return Frame(len(indexes),
                 tuple(col[indexes] for col in frame.cols), frame.dicts)


def _empty_like(dicts: tuple) -> Frame:
    return Frame(0, tuple(_np.empty(0, dtype=_np.int64) for _ in dicts),
                 dicts)


def scan_frame(relation: ColumnarRelation,
               out_positions: Tuple[int, ...],
               constraints: tuple = (), equalities: tuple = ()) -> Frame:
    """Match one atom pattern against *relation*, vectorized.

    Constraints pin columns to constant values (one ``==`` mask per
    constraint), equalities equate repeated-variable columns through a
    cached dictionary translation, and the output permutation selects
    code columns without materializing a single tuple.  The resulting
    frame is cached on the relation keyed by the scan parameters.
    """
    key = ("scan", out_positions, constraints, equalities)

    def compute() -> Frame:
        out_dicts = tuple(relation._dicts[p] for p in out_positions)
        mask = None
        for position, value in constraints:
            code = relation._dicts[position].code_of.get(value)
            if code is None:
                return Frame(0, tuple(_np.empty(0, dtype=_np.int64)
                                      for _ in out_positions), out_dicts,
                             host=relation, ckey=key)
            m = relation.np_column(position) == code
            mask = m if mask is None else (mask & m)
        for position, first in equalities:
            translation = relation._dicts[position].translate_to(
                relation._dicts[first]
            )
            m = (translation[relation.np_column(position)]
                 == relation.np_column(first))
            mask = m if mask is None else (mask & m)
        if mask is None:
            cols = tuple(relation.np_column(p) for p in out_positions)
            n = len(relation)
        else:
            indexes = _np.nonzero(mask)[0]
            cols = tuple(relation.np_column(p)[indexes]
                         for p in out_positions)
            n = len(indexes)
        frame = Frame(n, cols, out_dicts)
        if len(set(out_positions)) < relation.arity:
            frame = dedup_frame(frame)  # projection can create duplicates
        return Frame(frame.n, frame.cols, frame.dicts,
                     host=relation, ckey=key)

    return relation.kernel_cached(key, compute)


def identity_frame(relation: ColumnarRelation) -> Frame:
    """The whole relation as a frame (zero-copy)."""
    return scan_frame(relation, tuple(range(relation.arity)))


def project_frame(frame: Frame, positions: Tuple[int, ...]) -> Frame:
    """Column selection + dedup (``pi``), cached on pure derivations."""

    def compute() -> Frame:
        projected = Frame(frame.n, tuple(frame.cols[p] for p in positions),
                          tuple(frame.dicts[p] for p in positions))
        deduped = dedup_frame(projected)
        return Frame(deduped.n, deduped.cols, deduped.dicts,
                     host=frame.host,
                     ckey=None if frame.ckey is None
                     else frame.ckey + ("proj", positions))

    return frame.cached(("proj", positions), compute)


def _aligned_keys(left_cols, left_dicts, right_cols, right_dicts):
    """Comparable combined key codes for two frames' key columns.

    Right columns are translated into the left dictionaries (rows with
    an untranslatable value cannot match and are dropped); the combined
    codes are built over the *concatenation* so any compression step
    maps both sides identically.  Returns
    ``(left_codes, right_codes, right_row_indexes)`` where
    ``right_row_indexes`` maps surviving right rows to their original
    positions (``None`` = all survived).
    """
    sizes = _dict_sizes(left_dicts)
    translated = []
    valid = None
    for col, right_dict, left_dict in zip(right_cols, right_dicts,
                                          left_dicts):
        if right_dict is left_dict:
            translated.append(col)
            continue
        mapped = right_dict.translate_to(left_dict)[col]
        keep = mapped >= 0
        valid = keep if valid is None else (valid & keep)
        translated.append(mapped)
    right_indexes = None
    if valid is not None and not bool(valid.all()):
        right_indexes = _np.nonzero(valid)[0]
        translated = [col[right_indexes] for col in translated]
    n_left = len(left_cols[0])
    both = [_np.concatenate([lcol, rcol])
            for lcol, rcol in zip(left_cols, translated)]
    codes = _combine(both, sizes)
    return codes[:n_left], codes[n_left:], right_indexes


def semijoin_frames(frame: Frame, part: Frame,
                    key_positions: Tuple[int, ...],
                    part_positions: Tuple[int, ...]) -> Frame:
    """``frame |>< part``: rows of *frame* with a key match in *part*."""
    if frame.n == 0:
        return frame
    if not key_positions:
        return frame if part.n else _empty_like(frame.dicts)
    if part.n == 0:
        return _empty_like(frame.dicts)
    left_cols = [frame.cols[p] for p in key_positions]
    left_dicts = [frame.dicts[p] for p in key_positions]
    right_cols = [part.cols[p] for p in part_positions]
    right_dicts = [part.dicts[p] for p in part_positions]
    fk, pk, _ = _aligned_keys(left_cols, left_dicts, right_cols,
                              right_dicts)
    radix = 1
    for size in _dict_sizes(left_dicts):
        radix *= size
        if radix >= _TABLE_BOUND:
            break
    if radix < _TABLE_BOUND:
        # Combined codes are < radix (no compression below int64), so a
        # dense membership table replaces isin's sort.
        table = _np.zeros(radix, dtype=bool)
        table[pk] = True
        mask = table[fk]
    else:
        mask = _np.isin(fk, pk)
    if bool(mask.all()):
        return frame
    indexes = _np.nonzero(mask)[0]
    return frame.take(indexes)


def join_frames(frame: Frame, part: Frame,
                key_positions: Tuple[int, ...],
                part_positions: Tuple[int, ...],
                out_positions: Tuple[int, ...],
                bound_width: int) -> Frame:
    """Code-space hash join: ``pi_out(frame |><| part)``.

    ``out_positions`` index the concatenation ``frame row + part row``
    (part columns start at *bound_width*), mirroring the compiled
    :class:`~repro.counting.compile.FoldStep` layout.  The join runs as
    sort + ``searchsorted`` + group expansion over int64 codes; the
    output is deduplicated (set semantics after projection).
    """
    out_dicts = tuple(
        frame.dicts[p] if p < bound_width else part.dicts[p - bound_width]
        for p in out_positions
    )
    if frame.n == 0 or part.n == 0:
        return _empty_like(out_dicts)
    if key_positions:
        left_cols = [frame.cols[p] for p in key_positions]
        left_dicts = [frame.dicts[p] for p in key_positions]
        right_cols = [part.cols[p] for p in part_positions]
        right_dicts = [part.dicts[p] for p in part_positions]
        fk, pk, right_indexes = _aligned_keys(left_cols, left_dicts,
                                              right_cols, right_dicts)
        if right_indexes is None:
            right_indexes = _np.arange(part.n, dtype=_np.int64)
    else:  # cross product
        fk = _np.zeros(frame.n, dtype=_np.int64)
        pk = _np.zeros(part.n, dtype=_np.int64)
        right_indexes = _np.arange(part.n, dtype=_np.int64)
    if not len(pk):
        return _empty_like(out_dicts)
    order = _np.argsort(pk, kind="stable")
    pk_sorted = pk[order]
    lo = _np.searchsorted(pk_sorted, fk, side="left")
    hi = _np.searchsorted(pk_sorted, fk, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return _empty_like(out_dicts)
    frame_idx = _np.repeat(_np.arange(frame.n, dtype=_np.int64), counts)
    starts = _np.repeat(lo, counts)
    offsets = (_np.arange(total, dtype=_np.int64)
               - _np.repeat(_np.cumsum(counts) - counts, counts))
    part_idx = right_indexes[order[starts + offsets]]
    out_cols = tuple(
        frame.cols[p][frame_idx] if p < bound_width
        else part.cols[p - bound_width][part_idx]
        for p in out_positions
    )
    return dedup_frame(Frame(total, out_cols, out_dicts))


def intersect_frames(frame: Frame, other: Frame) -> Frame:
    """Set intersection of two same-schema frames (dicts may differ)."""
    positions = tuple(range(frame.width))
    return semijoin_frames(frame, other, positions, positions)


class KeyAggregate:
    """Grouped totals keyed by combined (strict mixed-radix) codes.

    The columnar analogue of the DP's ``Counter(map(key_of, rows))`` /
    count tables: ``keys`` are sorted combined codes over ``dicts``,
    ``totals`` the int64 group totals.  :meth:`counts_for` probes it
    with another frame's key columns, translating dictionaries and
    returning a per-row totals array (0 on miss).
    """

    __slots__ = ("dicts", "sizes", "keys", "totals", "max_total")

    def __init__(self, dicts: tuple, keys, totals):
        self.dicts = dicts
        self.sizes = _dict_sizes(dicts)
        self.keys = keys
        self.totals = totals
        self.max_total = int(totals.max()) if len(totals) else 0

    @classmethod
    def over(cls, cols: Sequence, dicts: Sequence[ColumnDict], n: int,
             weights=None) -> "KeyAggregate":
        """Group *cols* (parallel, length *n*), totalling *weights*
        (``None`` = row counts)."""
        dicts = tuple(dicts)
        if n == 0:
            empty = _np.empty(0, dtype=_np.int64)
            return cls(dicts, empty, empty)
        codes = _combine_strict(list(cols), _dict_sizes(dicts), n)
        order = _np.argsort(codes, kind="stable")
        ordered = codes[order]
        if len(ordered) > 1:
            starts = _np.concatenate([
                _np.zeros(1, dtype=_np.int64),
                _np.nonzero(_np.diff(ordered))[0] + 1,
            ])
        else:
            starts = _np.zeros(1, dtype=_np.int64)
        keys = ordered[starts]
        if weights is None:
            ends = _np.concatenate([
                starts[1:], _np.array([n], dtype=_np.int64)
            ])
            totals = ends - starts
        else:
            totals = _np.add.reduceat(weights[order], starts)
        return cls(dicts, keys, totals.astype(_np.int64, copy=False))

    def counts_for(self, cols: Sequence, dicts: Sequence[ColumnDict],
                   n: int):
        """Per-row totals for *cols*' keys (0 where absent)."""
        if n == 0:
            return _np.empty(0, dtype=_np.int64)
        if not self.dicts:
            total = int(self.totals[0]) if len(self.totals) else 0
            return _np.full(n, total, dtype=_np.int64)
        if not len(self.keys):
            return _np.zeros(n, dtype=_np.int64)
        translated = []
        valid = None
        for col, src, dst in zip(cols, dicts, self.dicts):
            if src is dst:
                translated.append(col)
                continue
            mapped = src.translate_to(dst)[col]
            keep = mapped >= 0
            valid = keep if valid is None else (valid & keep)
            translated.append(mapped)
        row_indexes = None
        if valid is not None and not bool(valid.all()):
            row_indexes = _np.nonzero(valid)[0]
            translated = [col[row_indexes] for col in translated]
        codes = _combine_strict(translated, self.sizes,
                                len(translated[0]))
        positions = _np.searchsorted(self.keys, codes)
        positions = _np.minimum(positions, len(self.keys) - 1)
        found = _np.where(self.keys[positions] == codes,
                          self.totals[positions], 0)
        if row_indexes is None:
            return found
        out = _np.zeros(n, dtype=_np.int64)
        out[row_indexes] = found
        return out
