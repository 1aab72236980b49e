"""Shared plan caches keyed by canonical query shape: memory and disk tiers.

The engine's plans — acyclicity witnesses, #-hypertree decompositions,
GHDs, hybrid decompositions — depend only on the query's *shape* (its
canonical hypergraph fingerprint; the hybrid plan also depends on the
database contents).  A :class:`PlanCache` memoizes both the
canonicalization itself and every plan computed for a shape, so repeated
shapes — across the calls of one batch, across batches, and across
bijectively renamed queries — skip the decomposition search entirely.

:class:`PersistentPlanCache` adds a disk tier: every computed plan is
spilled to a cache directory as a self-verifying JSON entry (one file per
plan, atomic writes, safe for several processes sharing the directory),
and a memory miss consults the directory before recomputing.  A process
that starts with a populated directory therefore begins *warm* — this is
how a fresh counting service or shard server skips re-planning
(``REPRO_PLAN_CACHE_DIR`` or ``cache_dir=``).  Corrupted, foreign
or stale entries are detected (envelope checksum, format version, full
key match) and silently discarded and rebuilt; a wrong plan is never
served.

Data-dependent plans (the hybrid strategy's) carry **content tags** —
name-agnostic digests of each relation's row set (see
:func:`relation_content_tag`).  A dynamic update to a relation then
invalidates *exactly* the plans whose tag set mentions that relation's
old contents (:meth:`PlanCache.invalidate_tags`), across every bijective
renaming and in both tiers, leaving shape-only plans and other
databases' plans untouched — the targeted alternative to
``clear_engine_memo()``'s drop-everything semantics.

Plans are not only decompositions: the compiled execution tier
(``counting/compile.py``) stores its lowered
:class:`~repro.counting.compile.CompiledProgram` artifacts under the same
shape keys (kind ``"compiled"``, keyed by the compiled format version),
so both tiers — and therefore fleets sharing a cache directory — reuse
*compiled* plans, not just decompositions.

One process-wide default cache (:func:`default_plan_cache`) backs plain
``count_answers`` calls; a :class:`~repro.service.CountingService` owns
its own instance so concurrent batches share plans deliberately.

Thread safety: lookups and stores take an internal lock; plan *computes*
run outside the lock, so two threads racing on the same fresh shape may
both compute it (the results are deterministic and the second store is a
no-op overwrite) but never block each other behind a long search.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..db.relation import Relation
from ..decomposition.serialize import (
    PlanSerializationError,
    deserialize_plan,
    serialize_plan,
)
from ..query.canonical import CanonicalForm, canonical_form
from ..query.query import ConjunctiveQuery

#: Spill-entry schema version (independent of the plan blob format).
ENTRY_FORMAT = 1

#: Filename suffix of one spilled plan entry.
ENTRY_SUFFIX = ".plan.json"


# ----------------------------------------------------------------------
# Stable key rendering: identical across processes and interpreter runs
# ----------------------------------------------------------------------
def stable_key_render(value) -> str:
    """A deterministic textual rendering of a plan-cache key.

    ``repr`` alone is not usable for on-disk keys: the iteration order of
    a ``frozenset`` of strings varies across processes (hash
    randomization).  This rendering sorts unordered containers by their
    own rendered form, so equal keys render identically in every worker
    that ever opens the spill directory.
    """
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(stable_key_render(item) for item in value) + ")"
    if isinstance(value, (set, frozenset)):
        rendered = sorted(stable_key_render(item) for item in value)
        return "{" + ",".join(rendered) + "}"
    if isinstance(value, dict):
        rendered = sorted(
            stable_key_render(key) + "=" + stable_key_render(item)
            for key, item in value.items()
        )
        return "dict{" + ",".join(rendered) + "}"
    return f"{type(value).__name__}:{value!r}"


def stable_key_digest(key) -> str:
    """A stable hex digest of *key* (the spill-entry file name stem)."""
    return hashlib.sha256(
        stable_key_render(key).encode("utf-8")
    ).hexdigest()


def relation_content_tag(relation: Relation) -> str:
    """A name-agnostic content tag for *relation*: digest of its rows.

    Canonical-space aliases (:meth:`Relation.renamed`) share the same row
    set, so a plan computed over the shape-renamed database carries the
    same tag as the caller-facing relation — which is what lets a dynamic
    update, phrased in original relation names, invalidate plans cached
    under canonical names.  The digest is memoized in a cell shared by
    every alias of the (immutable) relation version, so it is rendered
    at most once per version, whichever alias asks first.
    """
    cell = relation._content_tag
    tag = cell[0]
    if tag is None:
        tag = stable_key_digest(("relation-content", relation.arity,
                                 relation.rows))
        cell[0] = tag
    return tag


def known_content_tag(relation: Relation) -> Optional[str]:
    """*relation*'s content tag if some alias already computed it, else
    ``None`` — never renders the rows.

    This is what the write path invalidates with.  Skipping an unknown
    tag is sound: tags are eviction hints only, and data-dependent plans
    are *keyed* by the database's exact content fingerprint, so a plan
    tagged through some other (content-equal) relation object can only
    become unreachable garbage; it is never served for new contents.
    """
    return relation._content_tag[0]


# ----------------------------------------------------------------------
# The spill-entry codec: one self-verifying JSON document per plan,
# validated on load — entry format, *full* key match, blob envelope.
# ----------------------------------------------------------------------
def encode_plan_entry(key: tuple, value: object,
                      tags: Iterable[str] = ()) -> Optional[str]:
    """*value* as a spill-entry JSON document, or ``None`` when the plan
    does not serialize (an unpicklable witness stays memory-only)."""
    try:
        blob = serialize_plan(value)
    except PlanSerializationError:
        return None
    return json.dumps({
        "format": ENTRY_FORMAT,
        "key": stable_key_render(key),
        "tags": sorted(tags),
        "plan": base64.b64encode(blob).decode("ascii"),
    })


def decode_plan_entry(text: str, key: tuple) -> Tuple[object, Tuple[str, ...]]:
    """``(plan, tags)`` from a spill-entry document, fully validated.

    Raises :class:`PlanSerializationError` on *anything* that does not
    verify — malformed JSON, a foreign entry format, a stale or
    colliding key (the full stable rendering is compared, never just the
    digest), a bad base64 embedding, or a blob whose envelope checksum
    fails.  A wrong plan is never returned.
    """
    try:
        entry = json.loads(text)
    except ValueError:
        raise PlanSerializationError("plan entry is not valid JSON") \
            from None
    try:
        if entry["format"] != ENTRY_FORMAT:
            raise PlanSerializationError("entry format mismatch")
        if entry["key"] != stable_key_render(key):
            raise PlanSerializationError("stale or colliding entry key")
        entry_tags = tuple(entry.get("tags") or ())
        blob = base64.b64decode(entry["plan"].encode("ascii"),
                                validate=True)
        value = deserialize_plan(blob)
    except (KeyError, TypeError, AttributeError, ValueError,
            binascii.Error) as error:
        raise PlanSerializationError(
            f"malformed plan entry: {error}"
        ) from None
    return value, entry_tags


class PlanCache:
    """Bounded, thread-safe memo for canonical forms and engine plans."""

    def __init__(self, plan_capacity: int = 1024,
                 canonical_capacity: int = 1024,
                 label: Optional[str] = None):
        #: Display name surfaced in :meth:`stats` — shard servers label
        #: their caches so aggregated per-shard snapshots stay
        #: attributable.
        self.label = label
        self._lock = threading.RLock()
        self._plans: "OrderedDict[tuple, object]" = OrderedDict()
        self._key_tags: Dict[tuple, Tuple[str, ...]] = {}
        self._forms: "OrderedDict[ConjunctiveQuery, CanonicalForm]" = \
            OrderedDict()
        self.plan_capacity = plan_capacity
        self.canonical_capacity = canonical_capacity
        self.hits = 0
        self.misses = 0
        self.canonical_hits = 0
        self.canonical_misses = 0
        #: Search leaves / orbit-pruned branches summed over the
        #: canonicalizations this cache ran (its canonical misses).
        self.canonical_leaves = 0
        self.canonical_pruned = 0
        self.invalidated = 0

    # ------------------------------------------------------------------
    def canonical(self, query: ConjunctiveQuery) -> CanonicalForm:
        """The memoized canonical form of *query*."""
        with self._lock:
            cached = self._forms.get(query)
            if cached is not None:
                self._forms.move_to_end(query)
                self.canonical_hits += 1
                return cached
            self.canonical_misses += 1
        form = canonical_form(query)
        with self._lock:
            self.canonical_leaves += form.search_stats["explored"]
            self.canonical_pruned += form.search_stats["pruned"]
            self._forms[query] = form
            if len(self._forms) > self.canonical_capacity:
                self._forms.popitem(last=False)
        return form

    def plan(self, key: tuple, compute: Callable[[], object],
             tags: Tuple[str, ...] = ()) -> Tuple[object, bool]:
        """``(plan, was_cached)`` for *key*, computing on a full miss.

        ``None`` is a legitimate plan (a failed search is exactly as
        expensive and as cacheable as a successful one), so presence is
        tracked by the key, not the value.  *tags* are content tags for
        targeted invalidation (:meth:`invalidate_tags`); pass them for
        plans that depend on database contents.
        """
        with self._lock:
            if key in self._plans:
                self._plans.move_to_end(key)
                self.hits += 1
                return self._plans[key], True
        value, found = self._cold_lookup(key)
        if found:
            with self._lock:
                self._remember(key, value, tags)
                self.hits += 1
            return value, True
        with self._lock:
            self.misses += 1
        value = compute()
        with self._lock:
            self._remember(key, value, tags)
        self._store_cold(key, value, tags)
        return value, False

    def _remember(self, key: tuple, value: object,
                  tags: Tuple[str, ...]) -> None:
        """Store into the memory tier (caller holds the lock)."""
        self._plans[key] = value
        if tags:
            self._key_tags[key] = tuple(tags)
        if len(self._plans) > self.plan_capacity:
            evicted, _ = self._plans.popitem(last=False)
            self._key_tags.pop(evicted, None)

    # ------------------------------------------------------------------
    # Cold-tier hooks (no-ops here; PersistentPlanCache overrides)
    # ------------------------------------------------------------------
    def _cold_lookup(self, key: tuple) -> Tuple[object, bool]:
        return None, False

    def _store_cold(self, key: tuple, value: object,
                    tags: Tuple[str, ...]) -> None:
        pass

    def _invalidate_cold_tags(self, tags: Iterable[str],
                              counted_keys: Iterable[tuple]) -> int:
        """Drop cold-tier entries tagged with *tags*; entries for
        *counted_keys* were already counted by the memory tier.  Returns
        how many *additional* plans were dropped."""
        return 0

    def _clear_cold(self) -> None:
        pass

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_tags(self, *tags: str) -> int:
        """Drop every plan (both tiers) carrying any of *tags*.

        Returns the number of *plans* dropped — a plan present in both
        the memory and disk tiers counts once.  Untagged plans —
        shape-only decompositions, acyclicity witnesses — are never
        touched: they stay valid under every database update.
        """
        wanted = set(tags)
        if not wanted:
            return 0
        with self._lock:
            doomed = [
                key for key, key_tags in self._key_tags.items()
                if wanted.intersection(key_tags)
            ]
            for key in doomed:
                self._plans.pop(key, None)
                del self._key_tags[key]
        dropped = len(doomed)
        dropped += self._invalidate_cold_tags(wanted, doomed)
        with self._lock:
            self.invalidated += dropped
        return dropped

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every cached plan and canonical form, in every tier
        (counters survive)."""
        with self._lock:
            self._plans.clear()
            self._key_tags.clear()
            self._forms.clear()
        self._clear_cold()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def stats(self) -> Dict[str, int]:
        """A snapshot of the cache counters and sizes."""
        with self._lock:
            snapshot = {
                "plans": len(self._plans),
                "canonical_forms": len(self._forms),
                "hits": self.hits,
                "misses": self.misses,
                "canonical_hits": self.canonical_hits,
                "canonical_misses": self.canonical_misses,
                "canonical_leaves": self.canonical_leaves,
                "canonical_pruned": self.canonical_pruned,
                "invalidated": self.invalidated,
            }
            if self.label is not None:
                snapshot["label"] = self.label
            return snapshot


class PersistentPlanCache(PlanCache):
    """A :class:`PlanCache` with a shared on-disk spill directory.

    Layout: one ``<stable-key-digest>.plan.json`` file per plan, holding
    the entry format version, the full stable key rendering, the content
    tags, and the base64 plan blob (itself checksummed — see
    :mod:`repro.decomposition.serialize`).  Writes go through a
    temporary file and ``os.replace``, so concurrent writers (a process
    pool sharing one directory) never expose torn entries.

    A lookup that finds a file validates everything before adopting it:
    JSON well-formedness, entry format, the *full* key rendering (a
    digest collision or a stale file for a different database content
    never slips through), and the blob envelope.  Anything that fails
    validation is deleted and counted in ``disk_rejected``; the caller
    recomputes and the next store rebuilds the entry.
    """

    def __init__(self, directory: str, plan_capacity: int = 4096,
                 canonical_capacity: int = 1024,
                 label: Optional[str] = None):
        super().__init__(plan_capacity=plan_capacity,
                         canonical_capacity=canonical_capacity,
                         label=label)
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_rejected = 0
        self.persisted = 0
        #: tag -> digests of tagged entries this instance stored or
        #: loaded.  Targeted invalidation deletes exactly these files
        #: instead of scanning the whole (possibly shared) directory;
        #: tagged entries written by *other* processes are key-guarded
        #: by content fingerprint, so leaving them behind is sound —
        #: they can only ever become unreachable garbage.
        self._disk_tags: Dict[str, set] = {}

    # ------------------------------------------------------------------
    def _entry_path(self, digest: str) -> str:
        return os.path.join(self.directory, digest + ENTRY_SUFFIX)

    def _reject(self, path: str) -> None:
        """Discard an entry that failed validation (rebuild on next store)."""
        with self._lock:
            self.disk_rejected += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def _track_tags(self, digest: str, tags: Iterable[str]) -> None:
        with self._lock:
            for tag in tags:
                self._disk_tags.setdefault(tag, set()).add(digest)

    def _cold_lookup(self, key: tuple) -> Tuple[object, bool]:
        digest = stable_key_digest(key)
        path = self._entry_path(digest)
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            with self._lock:
                self.disk_misses += 1
            return None, False
        except (OSError, UnicodeDecodeError):
            self._reject(path)
            return None, False
        try:
            value, entry_tags = decode_plan_entry(text, key)
        except PlanSerializationError:
            self._reject(path)
            return None, False
        if entry_tags:
            self._track_tags(digest, entry_tags)
        with self._lock:
            self.disk_hits += 1
        return value, True

    def _store_cold(self, key: tuple, value: object,
                    tags: Tuple[str, ...]) -> None:
        text = encode_plan_entry(key, value, tags)
        if text is None:
            return  # memory-only plan (unpicklable witness); never spilled
        digest = stable_key_digest(key)
        path = self._entry_path(digest)
        temporary = f"{path}.tmp.{os.getpid()}"
        try:
            with open(temporary, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(temporary, path)
        except OSError:
            try:
                os.unlink(temporary)
            except OSError:
                pass
            return
        if tags:
            self._track_tags(digest, tags)
        with self._lock:
            self.persisted += 1

    def _entry_files(self):
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if name.endswith(ENTRY_SUFFIX):
                yield os.path.join(self.directory, name)

    def _invalidate_cold_tags(self, tags, counted_keys) -> int:
        """Delete the tracked tagged entries for *tags*.

        Only entries this instance stored or loaded are tracked (see
        ``_disk_tags``), so an update costs O(entries it touches), not a
        scan of a possibly suite-wide shared directory.  Files for
        *counted_keys* are deleted too but not counted again — the
        memory tier already counted those plans.  (Their digests are
        rendered here, not by the caller: a memory-only cache never
        renders a key, which for a data-dependent plan spells out the
        database's rows.)
        """
        with self._lock:
            digests: set = set()
            for tag in tags:
                digests |= self._disk_tags.pop(tag, set())
            for remaining in self._disk_tags.values():
                remaining -= digests
        if not digests:
            return 0
        skip = {stable_key_digest(key) for key in counted_keys}
        dropped = 0
        for digest in digests:
            try:
                os.unlink(self._entry_path(digest))
            except OSError:
                continue
            if digest not in skip:
                dropped += 1
        return dropped

    def _clear_cold(self) -> None:
        with self._lock:
            self._disk_tags.clear()
        for path in self._entry_files():
            try:
                os.unlink(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    def disk_entries(self) -> int:
        """The number of spilled plan entries currently on disk."""
        return sum(1 for _ in self._entry_files())

    def stats(self) -> Dict[str, int]:
        snapshot = super().stats()
        snapshot.update({
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "disk_rejected": self.disk_rejected,
            "persisted": self.persisted,
            "cache_dir": self.directory,
        })
        return snapshot


# ----------------------------------------------------------------------
# The process-wide default cache behind plain ``count_answers`` calls.
# Created lazily so ``REPRO_PLAN_CACHE_DIR`` (set by CI legs or the CLI)
# can route it to a spill directory.
# ----------------------------------------------------------------------
_DEFAULT: Optional[PlanCache] = None
_DEFAULT_LOCK = threading.Lock()

#: Environment variable naming the default cache's spill directory.
PLAN_CACHE_DIR_ENV = "REPRO_PLAN_CACHE_DIR"


def default_plan_cache() -> PlanCache:
    """The process-wide default plan cache.

    Persistent (spilling to ``$REPRO_PLAN_CACHE_DIR``) when that
    variable is set at first use, plain in-memory otherwise.
    """
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                directory = os.environ.get(PLAN_CACHE_DIR_ENV)
                _DEFAULT = (PersistentPlanCache(directory) if directory
                            else PlanCache())
    return _DEFAULT


def set_default_plan_cache(cache: Optional[PlanCache]) -> Optional[PlanCache]:
    """Replace the process-wide default cache; returns the previous one.

    ``None`` resets to lazy re-creation (honoring the environment again
    at the next :func:`default_plan_cache` call).  Used by tests and
    benchmarks.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        previous = _DEFAULT
        _DEFAULT = cache
    return previous
