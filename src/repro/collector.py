"""Pausing the cyclic garbage collector across bulk sections.

Several hot paths allocate containers in bulk that cannot form a
reference cycle: the compiled generic join's indexes and rows, and the
maintainer pool's checkpoint decode, journal replay, eviction spills
and fresh builds.  With the collector running, every 700 such
allocations start a gen-0 collection, whose survivors age into the
older generations and, in the middle of one decode, set off full
collections that walk the whole heap — every result the caller still
holds included.  Inside :func:`collector_paused` none start; the first
allocation after the pause collects the young objects once.

The collector is process-wide state, so the pause is too: concurrent
holders (shard workers on their own threads) are counted under a lock,
and only the last one to leave turns collection back on — and only if
it was on when the first holder entered, so a collector the caller
disabled stays disabled.
"""

from __future__ import annotations

import gc
import threading

_LOCK = threading.Lock()
#: Pauses currently held (one per thread and nesting level).
_holders = 0
#: Whether the first holder found the collector enabled (and so the
#: last holder must enable it again).
_resume = False


class collector_paused:
    """``with collector_paused():`` runs its body with the cyclic garbage
    collector paused.

    Only for work that creates no reference cycles: a cycle made inside
    lives until the first collection after the pause, not forever.
    Re-entrant and safe across threads.  (A class rather than a
    generator-based context manager: the compiled join enters it once
    per bag count.)
    """

    __slots__ = ()

    def __enter__(self) -> None:
        global _holders, _resume
        with _LOCK:
            if not _holders:
                _resume = gc.isenabled()
                if _resume:
                    gc.disable()
            _holders += 1

    def __exit__(self, *exc_info) -> None:
        global _holders, _resume
        with _LOCK:
            _holders -= 1
            if not _holders and _resume:
                _resume = False
                gc.enable()
