"""The log manager: volatile buffer + stable storage + force batching.

Behaviour contract (what the rest of the system relies on):

* ``write(..., force=False)`` appends to the volatile buffer and
  returns immediately; the record becomes durable when any later force
  flushes the buffer (this is what makes the shared-log optimization
  sound: the TM's commit force carries the LRM's earlier records).
* ``write(..., force=True)`` additionally requests a flush; the
  ``on_durable`` callback fires once the record is in stable storage —
  after one simulated I/O, possibly batched by group commit.
* ``crash()`` loses the buffer and any in-flight I/O; only stable
  records survive into ``recover()``.

Force-batching contract (group commit):

* Every force request is eventually satisfied by exactly one physical
  I/O *completion* — a request is never stranded.  When an I/O
  completes with requests still pending, the manager immediately
  starts the next I/O if the group is full (or the leftover requests'
  timeout deadline has already passed), and otherwise re-arms the
  group timer for the earliest outstanding deadline.  A group timer
  that fires while an I/O is in flight is therefore harmless: the
  completion path takes over responsibility for the leftovers.
* A force request whose target LSN is already covered by the
  in-flight flush (``lsn <= flush_lsn``) piggybacks on that I/O's
  completion: its callback fires with the batch and **no second
  physical I/O is scheduled**.  This keeps ``record_log_io`` counts —
  and hence the forced-write economics of Tables 2-4 — honest: a
  physical I/O is only counted when it hardens something.
* ``force()`` with an empty buffer but an I/O in flight targets the
  true highest in-flight LSN, so it completes exactly when that I/O
  does.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.log.group_commit import GroupCommitPolicy, IMMEDIATE
from repro.log.records import LogRecord, LogRecordType
from repro.log.storage import StableStorage
from repro.metrics.collector import MetricsCollector
from repro.sim.kernel import Simulator, Timer


#: The outcome each decision record states, in the order the outcome
#: queries look for them.
_OUTCOME_RECORDS = (
    (LogRecordType.COMMITTED, "commit"),
    (LogRecordType.ABORTED, "abort"),
    (LogRecordType.HEURISTIC_COMMIT, "heuristic-commit"),
    (LogRecordType.HEURISTIC_ABORT, "heuristic-abort"),
)


#: A pending force request: (target lsn, on-durable callback or None,
#: simulated time requested).
_ForceRequest = Tuple[int, Optional[Callable[[], None]], float]
_LSN = itemgetter(0)


class LogManager:
    """One node's (or one resource manager's) write-ahead log."""

    def __init__(self, simulator: Simulator, metrics: MetricsCollector,
                 node_name: str, io_latency: float = 0.1,
                 group_commit: Optional[GroupCommitPolicy] = None) -> None:
        if io_latency < 0:
            raise ValueError(f"io_latency must be >= 0, got {io_latency}")
        self.simulator = simulator
        self.metrics = metrics
        self.node_name = node_name
        self.io_latency = io_latency
        self.group_commit = group_commit or IMMEDIATE
        self.stable = StableStorage()
        self._buffer: List[LogRecord] = []
        self._next_lsn = 1
        self._pending_forces: List[_ForceRequest] = []
        self._io_in_flight = False
        #: Highest LSN the in-flight I/O will harden (None when idle).
        self._inflight_lsn: Optional[int] = None
        #: Bumped on every crash so in-flight I/O completions from a
        #: previous incarnation are recognised and discarded.
        self._crash_epoch = 0
        self._group_timer: Optional[Timer] = None
        self.force_requests = 0
        #: Trace hooks invoked with each record as it is written.
        self.on_write: List[Callable[[LogRecord], None]] = []
        #: Trace hooks invoked with each batch of records as the I/O
        #: that hardens them completes (repro.obs closes log-force
        #: spans here).
        self.on_flush: List[Callable[[List[LogRecord]], None]] = []

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write(self, txn_id: str, record_type: LogRecordType,
              payload: Optional[Dict[str, Any]] = None, force: bool = False,
              on_durable: Optional[Callable[[], None]] = None,
              owner: Optional[str] = None) -> LogRecord:
        """Append a record; optionally force it to stable storage.

        ``owner`` overrides metrics attribution: a detached resource
        manager sharing its TM's physical log still accounts its
        records as its own participant (Table 2 splits the roles).
        """
        if on_durable is not None and not force:
            # Validate before any side effect: a bad call must not leave
            # a record appended, an LSN consumed, or hooks already fired.
            raise ValueError("on_durable callback requires force=True")
        # The payload becomes the record's own: callers pass fresh
        # dictionaries and never touch them again.
        record = LogRecord(self._next_lsn, txn_id, record_type,
                           self.node_name, force, self.simulator.now,
                           {} if payload is None else payload)
        self._next_lsn += 1
        self._buffer.append(record)
        self.metrics.record_log_write(owner or self.node_name,
                                      record_type._value_, force, txn_id)
        for hook in self.on_write:
            hook(record)
        if force:
            self._request_force(record.lsn, on_durable)
        return record

    def force(self, on_durable: Optional[Callable[[], None]] = None) -> None:
        """Force everything currently buffered (no new record)."""
        if not self._buffer and not self._io_in_flight:
            if on_durable is not None:
                self.simulator.call_soon(on_durable, name="log-noop-force")
            return
        if self._buffer:
            last_lsn = self._buffer[-1].lsn
        else:
            # Buffer empty but an I/O is in flight: target the highest
            # LSN that I/O will harden, so the request piggybacks on it.
            assert self._inflight_lsn is not None
            last_lsn = self._inflight_lsn
        self._request_force(last_lsn, on_durable)

    # ------------------------------------------------------------------
    # Force batching (group commit)
    # ------------------------------------------------------------------
    def _request_force(self, lsn: int,
                       callback: Optional[Callable[[], None]]) -> None:
        self.force_requests += 1
        self._pending_forces.append((lsn, callback, self.simulator.now))
        if len(self._pending_forces) >= self.group_commit.group_size:
            self._start_io()
        elif self.group_commit.timeout is not None:
            if self._group_timer is None or not self._group_timer.active:
                self._group_timer = self.simulator.timer(
                    self.group_commit.timeout, self._start_io,
                    name=f"group-commit-timer:{self.node_name}")
        # else: wait for the group to fill (caller opted into unbounded wait)

    def _start_io(self) -> None:
        if self._io_in_flight or not self._pending_forces:
            # Nothing to do (a timer firing during an in-flight I/O lands
            # here); the completion path owns any leftover requests.
            return
        if self._group_timer is not None:
            self._group_timer.cancel()
            self._group_timer = None
        self._io_in_flight = True
        flush_lsn = max(map(_LSN, self._pending_forces))
        self._inflight_lsn = flush_lsn
        satisfied = self._pending_forces
        self._pending_forces = []
        self.metrics.record_log_io(self.node_name)
        epoch = self._crash_epoch

        def complete() -> None:
            if epoch != self._crash_epoch:
                return  # the node crashed while this I/O was in flight
            self._io_in_flight = False
            self._inflight_lsn = None
            # Requests that arrived while this I/O was in flight and whose
            # target LSN it covers are hardened by *this* completion —
            # scheduling another physical I/O for them would count an I/O
            # that flushes nothing.
            pending = self._pending_forces
            piggyback = [r for r in pending if r[0] <= flush_lsn]
            if piggyback:
                self._pending_forces = [r for r in pending
                                        if r[0] > flush_lsn]
            now = self.simulator.now
            done = satisfied + piggyback if piggyback else satisfied
            record_latency = self.metrics.record_force_latency
            for _lsn, _callback, requested_at in done:
                record_latency(self.node_name, now - requested_at)
            self._flush_to(flush_lsn)
            for _lsn, callback, _requested_at in done:
                if callback is not None:
                    callback()
            self._restart_pending()

        self.simulator.schedule(self.io_latency, complete,
                                name=f"log-io:{self.node_name}")

    def _restart_pending(self) -> None:
        """Take over leftover requests after an I/O completes.

        A group timer that fired while the I/O was in flight was a no-op,
        so the completion must either start the next I/O itself (group
        full, or the leftovers' deadline already passed) or re-arm the
        timer for the earliest outstanding deadline.
        """
        if self._io_in_flight or not self._pending_forces:
            return
        if len(self._pending_forces) >= self.group_commit.group_size:
            self._start_io()
            return
        timeout = self.group_commit.timeout
        if timeout is None:
            return  # wait for the group to fill, as requested
        deadline = min(r[2] for r in self._pending_forces) + timeout
        if deadline <= self.simulator.now:
            self._start_io()
        elif self._group_timer is None or not self._group_timer.active:
            self._group_timer = self.simulator.timer(
                deadline - self.simulator.now, self._start_io,
                name=f"group-commit-timer:{self.node_name}")

    def _flush_to(self, lsn: int) -> None:
        # The buffer is in LSN order: what ``lsn`` covers is a prefix.
        buffer = self._buffer
        cut = len(buffer)
        while cut and buffer[cut - 1].lsn > lsn:
            cut -= 1
        durable = buffer[:cut]
        del buffer[:cut]
        self.stable.append(durable)
        if durable:
            for hook in self.on_flush:
                hook(durable)

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash(self) -> int:
        """Lose the volatile buffer and in-flight I/O; return records lost."""
        lost = len(self._buffer)
        self._buffer = []
        # Force requests in flight never complete; their records are gone.
        self._pending_forces = []
        self._io_in_flight = False
        self._inflight_lsn = None
        self._crash_epoch += 1
        if self._group_timer is not None:
            self._group_timer.cancel()
            self._group_timer = None
        return lost

    def recover(self) -> List[LogRecord]:
        """Return all stable records, in LSN order (restart scan)."""
        # LSNs continue after the highest durable one, so post-recovery
        # appends remain monotonic.
        self._next_lsn = max(self._next_lsn, self.stable.durable_lsn + 1)
        return self.stable.records()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def buffered_count(self) -> int:
        return len(self._buffer)

    @property
    def pending_force_count(self) -> int:
        """Force requests queued but not yet satisfied by an I/O (the
        group-commit backlog the sim-time dashboard graphs)."""
        return len(self._pending_forces)

    @property
    def durable_lsn(self) -> int:
        return self.stable.durable_lsn

    def all_records(self) -> List[LogRecord]:
        """Stable + buffered records (what a non-crashed node can see)."""
        return self.stable.records() + list(self._buffer)

    def records_for(self, txn_id: str) -> List[LogRecord]:
        return self.stable.records_for(txn_id) + [
            r for r in self._buffer if r.txn_id == txn_id]

    def durable_outcome(self, txn_id: str) -> Optional[str]:
        """What the stable log says happened to the transaction."""
        for record_type, outcome in _OUTCOME_RECORDS:
            if self.stable.has_record(txn_id, record_type):
                return outcome
        return None

    def recorded_outcome(self, txn_id: str) -> Optional[str]:
        """Outcome per the log including the volatile buffer.

        Presumed Commit legitimately leaves subordinate commit records
        unforced, so failure-free assertions should use this rather
        than :meth:`durable_outcome`.
        """
        types = {record.record_type for record in self.records_for(txn_id)}
        for record_type, outcome in _OUTCOME_RECORDS:
            if record_type in types:
                return outcome
        return None

    def remembers(self, txn_id: str) -> bool:
        """Whether this log holds any record of the transaction — how a
        node tells a late message about a transaction it has forgotten
        from the first message of one it never saw."""
        return self.stable.remembers(txn_id) or any(
            r.txn_id == txn_id for r in self._buffer)
