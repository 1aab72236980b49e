"""The wire format of the networked shard fabric.

One *frame* is one JSON document in a self-delimiting, self-verifying
binary envelope::

    +-------+----------------+------------------+----------------+
    | magic | payload length | checksum (8B of  |  JSON payload  |
    | RPF1  |  (4B big-end.) |  sha256(payload))|   (UTF-8)      |
    +-------+----------------+------------------+----------------+

The header is fixed (16 bytes), the payload bounded by
:data:`MAX_FRAME_BYTES`.  The checksum makes a truncated or bit-flipped
frame *detectable*; the magic makes the stream *resynchronizable*: a
:class:`FrameDecoder` that hits garbage scans forward to the next magic
boundary, raises :class:`FrameError` for the damaged frame, and keeps
decoding subsequent frames — a corrupted request costs one retry, never
the connection.

Payloads reuse the repository's existing JSON vocabularies instead of
inventing a parallel one:

* session jobs cross the wire as their stream specs
  (:func:`repro.service.session.job_to_spec` /
  :func:`~repro.service.session.job_from_spec` — the same objects
  ``python -m repro session`` replays from JSON Lines files);
* count results in the :func:`repro.service.jobs.result_to_dict` layout;
* errors as small typed objects (:func:`error_to_wire`), reconstructed
  on the client into the repository's own exception classes —
  :class:`~repro.service.router.ShardSaturatedError` keeps its
  ``retry_after_ms`` hint across the wire.
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct
import sys
import time
from typing import Optional, Tuple

from ...counting.engine import CountResult
from ...exceptions import (
    DatabaseError,
    DecompositionNotFoundError,
    NotAcyclicError,
    ReproError,
)
from ..jobs import JobFileError, json_safe, result_from_dict
from ..router import ShardSaturatedError
from ..session import SessionJob, job_from_spec, job_to_spec

#: Frame magic: "RePro Frame, format 1".
MAGIC = b"RPF1"

_HEADER = struct.Struct(">4sI8s")

#: Size of the fixed frame header (magic + length + checksum prefix).
HEADER_SIZE = _HEADER.size

#: Hard bound on one frame's payload (a shipped database snapshot is the
#: largest legitimate payload; anything bigger is a corrupt length
#: field, and adopting it would stall the decoder forever).
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Receive chunk size of the socket helpers.
RECV_CHUNK = 1 << 16


class TransportError(ReproError):
    """A network-level failure: connect, send, receive, or timeout."""


class FrameError(TransportError):
    """One damaged frame (bad magic run-up, checksum, length, or JSON).

    Raised by :meth:`FrameDecoder.next_frame` *after* the damaged bytes
    have been consumed — the decoder (and therefore the connection)
    stays usable for every subsequent frame.
    """


class RemoteShardError(ReproError):
    """An error class the wire protocol could not map back onto a local
    exception type (the message carries the remote type name)."""


def checksum(payload: bytes) -> bytes:
    """The 8-byte frame checksum of *payload*."""
    return hashlib.sha256(payload).digest()[:8]


#: The one payload encoder: compact, and refusing ±inf/nan so that such
#: leaves take the :func:`json_safe` path instead of leaving as invalid
#: JSON.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def encode_frame(payload_object: object) -> bytes:
    """*payload_object* as one framed byte string.

    The payload is ``json_safe(payload_object)`` as compact JSON.  The
    :func:`json_safe` walk runs only when a plain dump refuses the
    payload or would render it differently: a non-JSON leaf, ±inf/nan,
    or a key that is not a str, int or float (the dump renders int and
    float keys as ``str`` does).  The fabric vocabulary needs no walk.
    """
    try:
        payload = _ENCODER.encode(payload_object).encode("ascii")
    except (TypeError, ValueError):
        payload = None
    # A True/False/None key dumps as "true"/"false"/"null", where
    # json_safe writes "True"/"False"/"None"; a str key whose dump
    # holds the same bytes only costs the walk, never a different frame.
    if (payload is None or b'"true":' in payload
            or b'"false":' in payload or b'"null":' in payload):
        payload = _ENCODER.encode(json_safe(payload_object)).encode("ascii")
    if len(payload) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    return _HEADER.pack(MAGIC, len(payload), checksum(payload)) + payload


class FrameDecoder:
    """An incremental frame parser over a byte stream.

    Feed received bytes with :meth:`feed`; pull complete frames with
    :meth:`next_frame`.  Damage is contained per frame: a bad frame
    raises :class:`FrameError` once, consuming exactly the damaged bytes
    (resynchronizing on the next magic boundary when the header itself
    is suspect), and the decoder keeps working.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self._buffer = bytearray()
        self.max_frame_bytes = max_frame_bytes
        #: Damaged frames seen (checksum/garbage/oversize), for stats.
        self.rejected = 0

    @property
    def buffered(self) -> int:
        """Bytes fed but not yet consumed."""
        return len(self._buffer)

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def _resync(self, start: int) -> None:
        """Drop garbage up to the next magic boundary at/after *start*."""
        position = self._buffer.find(MAGIC, start)
        if position < 0:
            # Keep a possible partial magic at the tail; everything
            # before it is garbage.
            keep = min(len(MAGIC) - 1, len(self._buffer))
            tail = bytes(self._buffer[-keep:]) if keep else b""
            for offset in range(len(tail)):
                if MAGIC.startswith(tail[offset:]):
                    del self._buffer[:len(self._buffer) - (keep - offset)]
                    return
            self._buffer.clear()
        else:
            del self._buffer[:position]

    def next_frame(self) -> Optional[object]:
        """The next decoded payload, ``None`` when more bytes are needed,
        or raise :class:`FrameError` for one damaged frame."""
        buffer = self._buffer
        if not buffer.startswith(MAGIC):
            if MAGIC.startswith(buffer):  # empty, or a partial magic
                return None
            self.rejected += 1
            self._resync(1)
            raise FrameError("garbage before frame magic; resynchronized")
        if len(buffer) < HEADER_SIZE:
            return None
        _, length, digest = _HEADER.unpack_from(buffer)
        if length > self.max_frame_bytes:
            # The length field itself is untrustworthy: skip this magic
            # and rescan rather than waiting for impossible bytes.
            self.rejected += 1
            self._resync(1)
            raise FrameError(
                f"frame announces {length} bytes, over the "
                f"{self.max_frame_bytes}-byte bound; resynchronized"
            )
        if len(buffer) < HEADER_SIZE + length:
            return None
        payload = buffer[HEADER_SIZE:HEADER_SIZE + length]
        del buffer[:HEADER_SIZE + length]
        if checksum(payload) != digest:
            self.rejected += 1
            raise FrameError("frame checksum mismatch; frame dropped")
        try:
            # Decoded here, not by json.loads: its bytes path runs a
            # Python-level encoding sniff and admits UTF-16/32.
            return json.loads(payload.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError included
            self.rejected += 1
            raise FrameError("frame payload is not valid JSON") from None


# ----------------------------------------------------------------------
# Socket helpers
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, payload_object: object) -> None:
    """Frame and send *payload_object*; socket failures become
    :class:`TransportError`."""
    try:
        sock.sendall(encode_frame(payload_object))
    except OSError as error:
        raise TransportError(f"send failed: {error}") from None


def recv_frame(sock: socket.socket, decoder: FrameDecoder,
               deadline: Optional[float] = None) -> object:
    """Receive one frame through *decoder* (monotonic *deadline*, or
    block forever).

    Propagates :class:`FrameError` (one damaged frame; the caller
    decides whether to keep reading) and raises :class:`TransportError`
    on timeout or a closed/reset connection.
    """
    while True:
        if decoder.buffered:
            frame = decoder.next_frame()  # may raise FrameError
            if frame is not None:
                return frame
        try:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportError("receive timed out")
                sock.settimeout(remaining)
            elif sock.gettimeout() is not None:
                sock.settimeout(None)
        except OSError as error:
            # The socket died under us (e.g. server close mid-serve).
            raise TransportError(f"receive failed: {error}") from None
        try:
            chunk = sock.recv(RECV_CHUNK)
        except socket.timeout:
            raise TransportError("receive timed out") from None
        except OSError as error:
            raise TransportError(f"receive failed: {error}") from None
        if not chunk:
            raise TransportError(
                "connection closed mid-frame" if decoder.buffered
                else "connection closed"
            )
        decoder.feed(chunk)


# ----------------------------------------------------------------------
# Payload vocabularies: jobs, results, errors
# ----------------------------------------------------------------------
def job_to_wire(job: SessionJob) -> dict:
    """A session job as its wire (= stream-file) spec."""
    return job_to_spec(job)


def job_from_wire(spec: dict) -> SessionJob:
    """The inverse of :func:`job_to_wire`."""
    return job_from_spec(spec, where="<wire>")


def result_to_wire(result: object) -> dict:
    """A job result — :class:`~repro.counting.engine.CountResult` or an
    acknowledgement dict — as a tagged wire object."""
    # No json_safe walk here: encode_frame walks a reply only when its
    # details or acknowledgement need it.
    if isinstance(result, CountResult):
        return {"kind": "count", "count": result.count,
                "strategy": result.strategy, "details": result.details}
    if isinstance(result, dict):
        return {"kind": "ack", "ack": result}
    raise TransportError(
        f"cannot serialize job result of type {type(result).__name__}"
    )


def _shared_strings(mapping: dict) -> dict:
    """*mapping* with its keys and string values interned, nested
    objects included: every decoded reply carries the same few keys,
    strategies and fingerprints, and a client that keeps its replies
    should hold one copy of each, not one per reply."""
    intern = sys.intern
    shared = {}
    for key, value in mapping.items():
        if isinstance(value, str):
            value = intern(value)
        elif isinstance(value, dict):
            value = _shared_strings(value)
        shared[intern(key) if isinstance(key, str) else key] = value
    return shared


def result_from_wire(payload: dict) -> object:
    """The inverse of :func:`result_to_wire`; decoded details and
    acknowledgements share their strings (:func:`_shared_strings`)."""
    if not isinstance(payload, dict):
        raise TransportError("malformed wire result (not an object)")
    kind = payload.get("kind")
    if kind == "count":
        return result_from_dict(_shared_strings(payload))
    if kind == "ack":
        ack = payload.get("ack")
        if isinstance(ack, dict):
            return _shared_strings(ack)
    raise TransportError(f"malformed wire result (kind={kind!r})")


#: Exception classes reconstructed by name on the client side.  Anything
#: else comes back as :class:`RemoteShardError` carrying the type name.
_WIRE_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (ReproError, DatabaseError, NotAcyclicError,
                DecompositionNotFoundError, JobFileError, TransportError,
                RemoteShardError, ValueError)
}


def error_to_wire(error: BaseException) -> dict:
    """An exception as a small typed wire object."""
    if isinstance(error, ShardSaturatedError):
        return {
            "type": "shard_saturated",
            "message": str(error),
            "shard": error.shard,
            "pending": error.pending,
            "retry_after_ms": error.retry_after_ms,
        }
    return {"type": type(error).__name__, "message": str(error)}


def error_from_wire(payload: dict) -> Exception:
    """The inverse of :func:`error_to_wire`: a raisable exception.

    Saturation hints are reconstructed as genuine
    :class:`~repro.service.router.ShardSaturatedError` instances (shard
    index, queue depth, and ``retry_after_ms`` intact), known repository
    exceptions by class name, anything else as
    :class:`RemoteShardError`.
    """
    if not isinstance(payload, dict):
        return RemoteShardError("malformed wire error (not an object)")
    error_type = payload.get("type")
    message = str(payload.get("message", ""))
    if error_type == "shard_saturated":
        try:
            return ShardSaturatedError(
                int(payload["shard"]), int(payload["pending"]),
                float(payload["retry_after_ms"]),
            )
        except (KeyError, TypeError, ValueError):
            return RemoteShardError(f"shard_saturated: {message}")
    known = _WIRE_ERROR_TYPES.get(str(error_type))
    if known is not None:
        return known(message)
    return RemoteShardError(f"{error_type}: {message}")


def parse_address(address: str) -> Tuple[str, int]:
    """``(host, port)`` from a ``host:port`` string."""
    host, separator, port_text = address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not separator or not host or not (0 <= port <= 65535):
        raise ValueError(
            f"shard address {address!r} is not of the form host:port"
        )
    return host, port
