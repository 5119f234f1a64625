"""Strict two-phase locking with deadlock detection.

Locks are shared (S) or exclusive (X), with S->X upgrade.  Waiters
queue FIFO; a waits-for graph is checked on every enqueue, and the
*requester* is the deadlock victim — deterministic and simple, which
matters because the serializability hazard of the read-only
optimization (paper §4) is demonstrated by observing exactly when
locks are released relative to other participants' work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Set

from repro.errors import DeadlockError, LockError
from repro.metrics.collector import MetricsCollector
from repro.sim.kernel import Simulator


class LockMode(Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


@dataclass
class LockRequest:
    """A pending or granted lock request."""

    txn_id: str
    key: str
    mode: LockMode
    on_granted: Callable[[], None] = field(compare=False)
    granted: bool = False


class _KeyLock:
    """Lock state for a single key: granted set + FIFO wait queue."""

    __slots__ = ("granted", "waiting")

    def __init__(self) -> None:
        self.granted: List[LockRequest] = []
        self.waiting: List[LockRequest] = []

    def grant_allowed(self, request: LockRequest) -> bool:
        for holder in self.granted:
            if holder.txn_id == request.txn_id:
                continue  # own lock never conflicts (upgrade handled separately)
            if not holder.mode.compatible_with(request.mode):
                return False
        return True


class LockManager:
    """Per-node lock table with waits-for-graph deadlock detection.

    Every structure here is proportional to the locks granted or
    waited for *now*: a key's entry is deleted when its last holder
    and waiter go, and lookups never create one.
    """

    def __init__(self, simulator: Simulator,
                 metrics: Optional[MetricsCollector] = None,
                 name: str = "locks") -> None:
        self.simulator = simulator
        self.metrics = metrics
        self.name = name
        self._table: Dict[str, _KeyLock] = {}
        self._held_by_txn: Dict[str, Set[str]] = {}
        #: Keys each transaction is queued on (release_all scrubs
        #: exactly these; the waits-for graph is read off them).
        self._waiting_by_txn: Dict[str, Set[str]] = {}
        self._first_acquire_at: Dict[str, float] = {}
        self.deadlocks_detected = 0
        #: Trace hooks invoked with (txn_id, key, mode) when a lock is
        #: first granted to a transaction (re-entrant acquisitions and
        #: in-place upgrades fire nothing — the hold interval is
        #: already running).  List-append installs: an empty list costs
        #: one falsy check per grant (repro.obs attributes lock-hold
        #: intervals here).
        self.on_grant: List[Callable[[str, str, LockMode], None]] = []
        #: Trace hooks invoked with (txn_id, key) as strict-2PL release
        #: drops each held lock.
        self.on_release: List[Callable[[str, str], None]] = []
        #: Trace hooks invoked with (txn_id, key, mode) when a request
        #: cannot be granted immediately and parks in the wait queue
        #: (after the deadlock check — a victim fires nothing).  The
        #: flight-recorder journal times request->grant from here.
        self.on_wait: List[Callable[[str, str, LockMode], None]] = []

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def acquire(self, txn_id: str, key: str, mode: LockMode,
                on_granted: Callable[[], None]) -> None:
        """Request a lock; ``on_granted`` fires when it is held.

        Raises :class:`DeadlockError` synchronously if waiting would
        close a cycle in the waits-for graph.
        """
        held_mode = self._mode_held(txn_id, key)

        if held_mode is mode or held_mode is LockMode.EXCLUSIVE:
            # Re-entrant or already stronger.
            self.simulator.call_soon(on_granted, name=f"lock-held:{key}")
            return

        request = LockRequest(txn_id=txn_id, key=key, mode=mode,
                              on_granted=on_granted)
        lock = self._table.get(key)
        if lock is None:
            lock = self._table[key] = _KeyLock()

        if held_mode is LockMode.SHARED and mode is LockMode.EXCLUSIVE:
            self._upgrade(lock, request)
            return

        if not lock.waiting and lock.grant_allowed(request):
            self._grant(lock, request)
            return

        self._enqueue(lock, request)

    def _upgrade(self, lock: _KeyLock, request: LockRequest) -> None:
        other_holders = {r.txn_id for r in lock.granted
                         if r.txn_id != request.txn_id}
        if not other_holders:
            # Sole holder: strengthen in place.
            for held in lock.granted:
                if held.txn_id == request.txn_id:
                    held.mode = LockMode.EXCLUSIVE
            self.simulator.call_soon(request.on_granted,
                                     name=f"lock-upgrade:{request.key}")
            return
        self._enqueue(lock, request)

    def _enqueue(self, lock: _KeyLock, request: LockRequest) -> None:
        cycle = self._would_deadlock(request, lock)
        if cycle is not None:
            self.deadlocks_detected += 1
            if self.metrics is not None:
                self.metrics.record_deadlock(request.txn_id, cycle)
            raise DeadlockError(request.txn_id, cycle)
        lock.waiting.append(request)
        self._waiting_by_txn.setdefault(request.txn_id, set()).add(request.key)
        if self.on_wait:
            for hook in self.on_wait:
                hook(request.txn_id, request.key, request.mode)

    def _grant(self, lock: _KeyLock, request: LockRequest) -> None:
        request.granted = True
        lock.granted.append(request)
        self._held_by_txn.setdefault(request.txn_id, set()).add(request.key)
        self._first_acquire_at.setdefault(request.txn_id, self.simulator.now)
        if self.on_grant:
            for hook in self.on_grant:
                hook(request.txn_id, request.key, request.mode)
        self.simulator.call_soon(request.on_granted,
                                 name=f"lock-grant:{request.key}")

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------
    def release_all(self, txn_id: str) -> None:
        """Strict 2PL release: drop every lock the transaction holds.

        Keys release in sorted order: the held-key collection is a
        set, and letting its hash-randomized iteration order pick the
        release (and therefore waiter wake-up) sequence makes the
        schedule differ *between processes* — caught by the journal
        differ comparing two CLI invocations of the same workload.
        """
        # A victim may also be parked in wait queues; its own requests
        # go first so a release below can never grant one of them.
        for key in self._waiting_by_txn.pop(txn_id, ()):
            lock = self._table[key]
            lock.waiting = [r for r in lock.waiting if r.txn_id != txn_id]
            self._drop_if_empty(key, lock)
        keys = sorted(self._held_by_txn.pop(txn_id, ()))
        acquired_at = self._first_acquire_at.pop(txn_id, None)
        if acquired_at is not None and self.metrics is not None:
            self.metrics.record_lock_hold(self.simulator.now - acquired_at)
        for key in keys:
            lock = self._table[key]
            lock.granted = [r for r in lock.granted if r.txn_id != txn_id]
            if self.on_release:
                for hook in self.on_release:
                    hook(txn_id, key)
            self._wake_waiters(lock)
            self._drop_if_empty(key, lock)

    def _drop_if_empty(self, key: str, lock: _KeyLock) -> None:
        if not lock.granted and not lock.waiting:
            del self._table[key]

    def _no_longer_waiting(self, lock: _KeyLock,
                           request: LockRequest) -> None:
        """``request`` just left ``lock``'s queue."""
        if any(r.txn_id == request.txn_id for r in lock.waiting):
            return  # the transaction queued on this key twice (S then X)
        waited = self._waiting_by_txn[request.txn_id]
        waited.discard(request.key)
        if not waited:
            del self._waiting_by_txn[request.txn_id]

    def _wake_waiters(self, lock: _KeyLock) -> None:
        while lock.waiting:
            head = lock.waiting[0]
            held = self._mode_held(head.txn_id, head.key)
            if held is LockMode.SHARED and head.mode is LockMode.EXCLUSIVE:
                # Pending upgrade: grantable once it is the sole holder.
                others = {r.txn_id for r in lock.granted
                          if r.txn_id != head.txn_id}
                if others:
                    return
                lock.waiting.pop(0)
                self._no_longer_waiting(lock, head)
                for granted in lock.granted:
                    if granted.txn_id == head.txn_id:
                        granted.mode = LockMode.EXCLUSIVE
                self.simulator.call_soon(head.on_granted,
                                         name=f"lock-upgrade:{head.key}")
                continue
            if not lock.grant_allowed(head):
                return
            lock.waiting.pop(0)
            self._no_longer_waiting(lock, head)
            self._grant(lock, head)

    # ------------------------------------------------------------------
    # Deadlock detection
    # ------------------------------------------------------------------
    def _would_deadlock(self, request: LockRequest,
                        lock: _KeyLock) -> Optional[List[str]]:
        """Return the cycle (as txn ids) the new wait would close, if any.

        Depth-first from the requester along waits-for edges, blockers
        in sorted order, looking for a path back onto itself.  Edges
        are read off the live wait queues as the search reaches a
        transaction, so a blocked request costs what it can reach.
        """
        requester = request.txn_id
        blockers = {r.txn_id for r in lock.granted}
        blockers.update(r.txn_id for r in lock.waiting)
        blockers.discard(requester)
        path: List[str] = [requester]
        visited: Set[str] = {requester}
        pending = [iter(sorted(blockers))]
        while pending:
            for txn in pending[-1]:
                if txn in path:
                    return path[path.index(txn):] + [txn]
                if txn not in visited:
                    visited.add(txn)
                    path.append(txn)
                    pending.append(iter(sorted(self._blockers_of(txn))))
                    break
            else:
                pending.pop()
                path.pop()
        return None

    def _blockers_of(self, txn_id: str) -> Set[str]:
        """Holders of every key ``txn_id`` is queued on."""
        blockers: Set[str] = set()
        for key in self._waiting_by_txn.get(txn_id, ()):
            blockers.update(r.txn_id for r in self._table[key].granted)
        blockers.discard(txn_id)
        return blockers

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _mode_held(self, txn_id: str, key: str) -> Optional[LockMode]:
        lock = self._table.get(key)
        if lock is not None:
            for request in lock.granted:
                if request.txn_id == txn_id:
                    return request.mode
        return None

    def holds(self, txn_id: str, key: str,
              mode: Optional[LockMode] = None) -> bool:
        held = self._mode_held(txn_id, key)
        if held is None:
            return False
        return mode is None or held is mode

    def held_keys(self, txn_id: str) -> Set[str]:
        return set(self._held_by_txn.get(txn_id, ()))

    def waiting_count(self, key: str) -> int:
        lock = self._table.get(key)
        return len(lock.waiting) if lock is not None else 0

    def granted_count(self) -> int:
        """Granted lock entries across every key (table depth gauge)."""
        return sum(len(lock.granted) for lock in self._table.values())

    def total_waiting(self) -> int:
        """Queued waiters across every key (contention gauge)."""
        return sum(len(lock.waiting) for lock in self._table.values())

    def assert_released(self, txn_id: str) -> None:
        if self._held_by_txn.get(txn_id):
            raise LockError(
                f"txn {txn_id} still holds {self._held_by_txn[txn_id]}")
