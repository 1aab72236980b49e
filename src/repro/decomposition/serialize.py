"""Plan and maintainer-state serialization: verifiable byte blobs.

Every engine plan — the acyclicity witness, a
:class:`~repro.decomposition.sharp.SharpDecomposition`, a
:class:`~repro.decomposition.hypertree.Hypertree`, a
:class:`~repro.decomposition.hybrid.HybridDecomposition`, a
:class:`~repro.counting.compile.CompiledProgram` (a lowered, data-only
execution plan — step lists and permutations, never pickled code), or
``None`` for a memoized *failed* search — is a tree of frozen dataclasses,
queries,
atoms and join trees with no live caches attached, so the stdlib pickle
round-trips them faithfully.  What pickle does *not* give us is safety
against a corrupted or stale spill file, so the persistent plan cache
never stores a naked pickle: :func:`serialize_plan` wraps the payload in
an envelope carrying a format version and a content checksum, and
:func:`deserialize_plan` refuses anything whose envelope does not verify
— the caller then silently recomputes instead of adopting a wrong plan.

The same envelope discipline covers **maintainer checkpoints**: a
:class:`~repro.dynamic.maintainer.MaintainerPool` spilling a cold
materialized DP to disk wraps the pickled counter state with
:func:`serialize_maintainer_state` (its own magic header and format
version, so a plan blob can never be mistaken for a checkpoint and vice
versa), and :func:`deserialize_maintainer_state` refuses anything that
does not verify — the pool then rebuilds the DP from the live database
instead of adopting corrupt state.

Envelopes are byte-oriented; the persistent plan cache base64-embeds
them in its per-entry JSON files (see
:class:`~repro.counting.plan_cache.PersistentPlanCache`), while the
maintainer pool writes them to checkpoint files directly.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Tuple

from ..exceptions import ReproError

#: Bump when the plan object graph changes incompatibly; old spill files
#: are then rejected (and rebuilt) instead of deserialized into garbage.
PLAN_FORMAT_VERSION = 1

#: Format version of **compiled execution plans**
#: (:class:`~repro.counting.compile.CompiledProgram`).  Compiled
#: artifacts are data-only step lists riding the ordinary plan envelope
#: above (they are plan-cache values like any decomposition), so this
#: version is baked into their *cache key* instead of the envelope:
#: bumping it makes every stale artifact unreachable — no invalidation
#: pass needed — while same-version artifacts keep warm-starting worker
#: pools through the persistent tier.
#: Version 2: multi-part bags carry a generic-join plan (variable order,
#: scan column slots, prefix edge covers) and drop hosted atoms their
#: view already scans — version-1 artifacts lack the plan, so they are
#: never looked up again.
#: Version 3: the bag of a single-bag structural program is lowered
#: ``counted`` — kept on the free variables, with a linkage-first order
#: in which a projected-away variable may precede a free one — and its
#: kernel returns the count; a version-2 single bag kept every bag
#: variable and was projected after the join.
COMPILED_FORMAT_VERSION = 3

#: Bump when the maintainer DP state changes incompatibly; stale
#: checkpoints are then rejected and the DP is rebuilt from the database.
#: Version 2: checkpoints may carry a
#: :class:`~repro.dynamic.reduced.ReducedMaintainer` (reduction-based
#: maintenance — provenance parts, witness counts, and the inner DP)
#: where version 1 only ever held an ``IncrementalCounter``; version-1
#: files are rejected on restore and the DP rebuilt from the database.
#: Version 3: ``ReducedMaintainer`` bag state switched from the fed-row
#: snapshot / dirty-bit layout to the delta-reducer layout (pending
#: membership flips plus projection-support multisets; the reducer's
#: support counters themselves are reseeded on first read after
#: restore) — version-2 envelopes would unpickle into the wrong slot
#: set, so they are rejected and the maintainer rebuilt.
MAINTAINER_FORMAT_VERSION = 3

_PLAN_MAGIC = b"repro-plan"
_MAINTAINER_MAGIC = b"repro-maint"


class PlanSerializationError(ReproError):
    """A serialized blob that cannot be produced or must not be trusted."""


def _serialize(payload_object: object, magic: bytes, version: int) -> bytes:
    """Encode *payload_object* as a self-verifying byte blob."""
    try:
        payload = pickle.dumps(payload_object,
                               protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as error:
        raise PlanSerializationError(
            f"payload of type {type(payload_object).__name__} "
            f"does not serialize: {error}"
        ) from error
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    header = b"%s:%d:%s:" % (magic, version, digest)
    return header + payload


def _split_envelope(blob: bytes, magic: bytes) -> Tuple[int, bytes, bytes]:
    """``(version, checksum, payload)`` of *blob*, or raise."""
    try:
        found_magic, version, digest, payload = blob.split(b":", 3)
    except ValueError:
        raise PlanSerializationError("blob envelope is malformed")
    if found_magic != magic:
        raise PlanSerializationError("blob has a foreign magic header")
    try:
        return int(version), digest, payload
    except ValueError:
        raise PlanSerializationError("blob version is not an integer")


def _deserialize(blob: bytes, magic: bytes, expected_version: int) -> object:
    """Decode a :func:`_serialize` blob, verifying the envelope.

    Raises :class:`PlanSerializationError` on a version mismatch, a
    checksum mismatch (bit rot, truncation, tampering), or an unpicklable
    payload — never returns a payload that did not verify end to end.
    """
    version, digest, payload = _split_envelope(blob, magic)
    if version != expected_version:
        raise PlanSerializationError(
            f"blob format {version} != current {expected_version}"
        )
    actual = hashlib.sha256(payload).hexdigest().encode("ascii")
    if actual != digest:
        raise PlanSerializationError("blob checksum mismatch")
    try:
        return pickle.loads(payload)
    except Exception as error:
        raise PlanSerializationError(
            f"blob payload does not unpickle: {error}"
        ) from error


# ----------------------------------------------------------------------
# Engine plans (the persistent plan cache's blobs)
# ----------------------------------------------------------------------
def serialize_plan(plan: object) -> bytes:
    """Encode *plan* as a self-verifying byte blob.

    Raises :class:`PlanSerializationError` when the plan does not pickle
    (e.g. a user-registered strategy cached a witness holding a live
    resource); callers treat that plan as memory-only.
    """
    return _serialize(plan, _PLAN_MAGIC, PLAN_FORMAT_VERSION)


def deserialize_plan(blob: bytes) -> object:
    """Decode a :func:`serialize_plan` blob, verifying the envelope."""
    return _deserialize(blob, _PLAN_MAGIC, PLAN_FORMAT_VERSION)


# ----------------------------------------------------------------------
# Maintainer checkpoints (the maintainer pool's spill files)
# ----------------------------------------------------------------------
def serialize_maintainer_state(state: object) -> bytes:
    """Encode a maintainer checkpoint as a self-verifying byte blob.

    *state* is whatever the pool chooses to checkpoint (the pickled
    counter plus its identifying key material); the envelope only
    guarantees that what comes back out is byte-for-byte what went in.
    """
    return _serialize(state, _MAINTAINER_MAGIC, MAINTAINER_FORMAT_VERSION)


def deserialize_maintainer_state(blob: bytes) -> object:
    """Decode a :func:`serialize_maintainer_state` blob, verifying the
    envelope; raises :class:`PlanSerializationError` when it does not
    verify — the pool then rebuilds from the live database."""
    return _deserialize(blob, _MAINTAINER_MAGIC, MAINTAINER_FORMAT_VERSION)
