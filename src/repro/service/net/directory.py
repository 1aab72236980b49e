"""The shard directory: databases -> addresses, with handoff and failover.

A :class:`ShardDirectory` is the small control plane of the networked
fabric.  It assigns each database to one shard server address (a stable
hash, like the in-process router), keeps per-database *recovery
material* — the origin snapshot (the database's rows as plain JSON data,
captured at attach) plus the journal of every acknowledged update since — and
uses that material to move databases between servers:

* **graceful handoff** (:meth:`handoff`): pause the database's traffic,
  pull a *fresh* checkpoint from the owning server (the database's rows,
  shipped as data), restore it on the target, flip the assignment, resume.
  The fresh checkpoint already contains every acknowledged update, so
  the journal resets — nothing is replayed, nothing lost, nothing
  doubled.  The pause is the checkpoint-ship-restore window, which the
  benchmark bounds.
* **crash failover** (automatic): when a server stops answering
  (transport retries exhausted — the mid-stream kill scenario), every
  database assigned to it is rebuilt on a standby from its origin
  snapshot plus a journal replay, in acknowledgement order.  The job
  that surfaced the failure was *not* acknowledged, so it is not in the
  journal; it is resubmitted once after recovery — exactly-once with
  respect to the rebuilt state.

Ordering: each database has its own single-worker executor, so its jobs
execute in submission order across handoffs and failovers; databases
proceed in parallel, bounded by one connection per server address.
"""

from __future__ import annotations

import hashlib
import threading
import time
import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ...db.io import database_to_dict
from ...exceptions import ReproError
from ..router import SessionRouter
from ..session import AttachDatabase, SessionJob, UpdateRequest
from .client import ShardClient
from .frames import TransportError


class _AddressState:
    """One server address: its client plus the confinement lock."""

    def __init__(self, client: ShardClient):
        self.client = client
        self.lock = threading.Lock()


class ShardDirectory:
    """Assign databases to shard servers; survive their deaths.

    Parameters
    ----------
    addresses:
        The primary shard server addresses (``host:port``).
    standbys:
        Spare addresses promoted on failover (exhausted in order; after
        that, surviving primaries absorb the failed server's databases).
    shard:
        The server-side shard name this directory drives its jobs into
        (namespaced per directory by default, so directories sharing
        servers stay isolated).
    journal_cap:
        Truncation threshold for per-database journals.  Once a journal
        reaches this many acknowledged updates, the directory pulls a
        fresh checkpoint from the owning server (on the database's own
        lane, so no job interleaves), makes it the new origin, and drops
        the journal — bounding both recovery-material memory and
        failover replay length.  ``None`` disables truncation.
    """

    def __init__(self, addresses: Sequence[str],
                 standbys: Sequence[str] = (),
                 shard: Optional[str] = None,
                 timeout_ms: Optional[float] = None,
                 retries: Optional[int] = None,
                 journal_cap: Optional[int] = None):
        if journal_cap is not None and journal_cap < 1:
            raise ValueError("journal_cap must be at least 1")
        if not addresses:
            raise ValueError("a shard directory needs at least one address")
        self.shard = shard or f"dir-{uuid.uuid4().hex[:12]}/shard0"
        self._timeout_ms = timeout_ms
        self._retries = retries
        self._lock = threading.Lock()
        self._addresses: List[str] = list(addresses)
        self._standbys: List[str] = list(standbys)
        self._failed: set = set()
        self._states: Dict[str, _AddressState] = {}
        self._assignment: Dict[str, str] = {}
        self._origins: Dict[str, dict] = {}     # db -> checkpoint payload
        self._journals: Dict[str, List[SessionJob]] = {}
        self._pools: Dict[str, ThreadPoolExecutor] = {}
        self._recovery_events: Dict[str, threading.Event] = {}
        self._recovery_errors: Dict[str, TransportError] = {}
        self._closed = False
        self._journal_cap = journal_cap
        self.failovers = 0
        self.handoffs = 0
        self.truncations = 0

    # ------------------------------------------------------------------
    def _state_for(self, address: str) -> _AddressState:
        with self._lock:
            state = self._states.get(address)
            if state is None:
                state = _AddressState(ShardClient(
                    address, timeout_ms=self._timeout_ms,
                    retries=self._retries,
                ))
                self._states[address] = state
            return state

    def _assign(self, database: str) -> str:
        """The database's address, assigning stably on first sight."""
        with self._lock:
            address = self._assignment.get(database)
            if address is None:
                live = [address for address in self._addresses
                        if address not in self._failed]
                if not live:
                    raise ReproError("no live shard server addresses")
                digest = hashlib.sha256(database.encode("utf-8")).digest()
                address = live[int.from_bytes(digest[:8], "big") % len(live)]
                self._assignment[database] = address
            return address

    def _pool_for(self, database: str) -> ThreadPoolExecutor:
        with self._lock:
            pool = self._pools.get(database)
            if pool is None:
                if self._closed:
                    raise ReproError("shard directory is closed")
                pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"dir-{database}"
                )
                self._pools[database] = pool
            return pool

    def assignment(self) -> Dict[str, str]:
        """A snapshot of ``{database: address}``."""
        with self._lock:
            return dict(self._assignment)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def submit(self, job: SessionJob) -> Future:
        """Enqueue *job* on its database's lane; thread-safe."""
        database = SessionRouter.database_of(job)
        self._assign(database)
        return self._pool_for(database).submit(self._execute, database, job)

    def run_stream(self, jobs: Sequence[SessionJob]) -> List[object]:
        """Run one stream; results in job order (failover-transparent)."""
        futures = [self.submit(job) for job in jobs]
        return [future.result() for future in futures]

    def _execute(self, database: str, job: SessionJob):
        # Two rounds: the primary attempt, then one attempt after
        # failover recovery.  A second consecutive dead server is a
        # fleet outage, not something a directory can mask.
        for round_ in range(2):
            with self._lock:
                address = self._assignment[database]
            state = self._state_for(address)
            try:
                with state.lock:
                    result = state.client.submit_job(self.shard, job)
            except TransportError:
                if round_ == 1:
                    raise
                self._failover(address)
                continue
            self._record(database, job)
            return result
        raise TransportError(  # pragma: no cover - loop always returns
            f"shard server for {database!r} is unreachable"
        )

    def _record(self, database: str, job: SessionJob) -> None:
        """Track acknowledged jobs as recovery material."""
        if isinstance(job, AttachDatabase):
            origin = self._checkpoint_from_job(job)
            with self._lock:
                self._origins[database] = origin
                self._journals[database] = []
        elif isinstance(job, UpdateRequest):
            with self._lock:
                journal = self._journals.setdefault(database, [])
                journal.append(job)
                cap = self._journal_cap
                full = cap is not None and len(journal) >= cap
            if full:
                self._truncate_journal(database)

    def _truncate_journal(self, database: str) -> None:
        """Fold the journal into a fresh origin checkpoint.

        Runs on the database's single-worker lane right after an
        acknowledged update, so the checkpoint cannot interleave with
        another of this database's jobs.  A transport failure here is
        harmless — the old origin plus the (longer) journal remains a
        complete recovery recipe, and the next acknowledged update
        retries the truncation.
        """
        with self._lock:
            address = self._assignment.get(database)
            if address is None:
                return
        state = self._state_for(address)
        try:
            with state.lock:
                checkpoint = state.client.checkpoint(self.shard, database)
        except TransportError:
            return
        with self._lock:
            # The assignment may have moved under a concurrent failover;
            # the fresh checkpoint is only authoritative for the server
            # it was taken from.
            if self._assignment.get(database) != address:
                return
            self._origins[database] = checkpoint
            self._journals[database] = []
            self.truncations += 1

    @staticmethod
    def _checkpoint_from_job(job: AttachDatabase) -> dict:
        """The origin snapshot of an attach, built locally — identical
        in shape to a server checkpoint, so restore treats both alike."""
        return {
            "database": job.name,
            "relations": database_to_dict(job.database),
            "total_tuples": job.database.total_tuples(),
        }

    # ------------------------------------------------------------------
    # Movement
    # ------------------------------------------------------------------
    def handoff(self, database: str, to_address: str) -> dict:
        """Gracefully move *database* to *to_address*.

        Runs on the database's own lane, so queued jobs simply wait out
        the pause and resume against the new owner — no job is lost,
        reordered, or doubled.  Returns timing and provenance of the
        move (``paused_s`` is the full checkpoint-ship-restore window).
        """
        self._state_for(to_address)  # validate the address eagerly
        return self._pool_for(database).submit(
            self._do_handoff, database, to_address
        ).result()

    def _do_handoff(self, database: str, to_address: str) -> dict:
        started = time.monotonic()
        with self._lock:
            source = self._assignment.get(database)
        if source is None:
            raise ReproError(f"database {database!r} is not assigned")
        if source == to_address:
            return {"database": database, "from": source, "to": to_address,
                    "moved": False, "paused_s": 0.0}
        source_state = self._state_for(source)
        with source_state.lock:
            checkpoint = source_state.client.checkpoint(self.shard, database)
        target_state = self._state_for(to_address)
        with target_state.lock:
            target_state.client.restore(self.shard, database, checkpoint)
        with self._lock:
            self._assignment[database] = to_address
            # The fresh checkpoint subsumes every acknowledged update.
            self._origins[database] = checkpoint
            self._journals[database] = []
            self.handoffs += 1
        return {
            "database": database, "from": source, "to": to_address,
            "moved": True, "total_tuples": checkpoint["total_tuples"],
            "paused_s": time.monotonic() - started,
        }

    def _next_replacement(self) -> Optional[str]:
        """The failover target: the first unused standby, else a
        surviving primary (caller holds the lock)."""
        for address in self._standbys:
            if address not in self._failed \
                    and address not in self._addresses:
                self._addresses.append(address)
                return address
        for address in self._addresses:
            if address not in self._failed:
                return address
        return None

    def _failover(self, address: str) -> None:
        """Rebuild every database of *address* elsewhere (origin +
        journal replay); exactly one lane performs the recovery, every
        other lane blocks until it has fully completed — a lane must
        never race ahead of its own database's journal replay."""
        with self._lock:
            event = self._recovery_events.get(address)
            if event is None:
                event = threading.Event()
                self._recovery_events[address] = event
                owner = True
                self._failed.add(address)
                self.failovers += 1
                doomed = [database for database, holder
                          in self._assignment.items() if holder == address]
                recovery: List[Tuple[str, str, dict, List[SessionJob]]] = []
                plan_error: Optional[TransportError] = None
                for database in doomed:
                    replacement = self._next_replacement()
                    origin = self._origins.get(database)
                    if replacement is None:
                        plan_error = TransportError(
                            f"shard server {address} died and no standby "
                            f"or surviving primary is available"
                        )
                        break
                    if origin is None:
                        plan_error = TransportError(
                            f"shard server {address} died before database "
                            f"{database!r} recorded an origin checkpoint"
                        )
                        break
                    journal = list(self._journals.get(database, ()))
                    recovery.append((database, replacement, origin,
                                     journal))
                    self._assignment[database] = replacement
            else:
                owner = False
        if not owner:
            event.wait()
            error = self._recovery_errors.get(address)
            if error is not None:
                raise error
            return
        try:
            if plan_error is not None:
                raise plan_error
            for database, replacement, origin, journal in recovery:
                state = self._state_for(replacement)
                with state.lock:
                    state.client.restore(self.shard, database, origin)
                    for update in journal:
                        state.client.submit_job(self.shard, update)
        except BaseException as error:
            self._recovery_errors[address] = TransportError(
                f"failover from {address} failed: {error}"
            )
            raise
        finally:
            event.set()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "shard": self.shard,
                "addresses": list(self._addresses),
                "standbys": list(self._standbys),
                "failed": sorted(self._failed),
                "assignment": dict(self._assignment),
                "journal_depths": {database: len(journal) for database,
                                   journal in self._journals.items()},
                "journal_cap": self._journal_cap,
                "failovers": self.failovers,
                "handoffs": self.handoffs,
                "truncations": self.truncations,
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pools = list(self._pools.values())
            states = list(self._states.values())
        for pool in pools:
            pool.shutdown(wait=True)
        for state in states:
            with state.lock:
                try:
                    state.client.release([self.shard])
                except Exception:
                    pass  # a dead server has nothing left to release
                state.client.close()

    def __enter__(self) -> "ShardDirectory":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
