"""CostLedger: per-transaction cost attribution from substrate hooks.

The paper's evaluation is cost accounting — Tables 2-4 count message
flows, log writes and forced writes per protocol/optimization, and
"resource lock time" is its fourth axis.  The aggregate counters in
:mod:`repro.metrics.collector` already total those quantities; the
ledger attributes each individual cost event to **(transaction, node,
phase, record/message type)** as it happens, so one transaction's
triple can be read out (and audited against the analytic formulas)
the moment it completes.

Hook diet (all list-append installs — an unattached cluster pays one
falsy check per event, the established skip-when-empty pattern):

====================  ==============================================
hook                  ledger activity
====================  ==============================================
node.on_transition    track each (txn, node) protocol phase
network.on_send       attribute one flow (sender pays, as the tables
                      count)
network.on_deliver    close the in-flight window (delivery count)
log.on_write          attribute one log write / forced write
log.on_flush          count hardened records per transaction
locks.on_grant        open a lock-hold interval
locks.on_release      close it and accumulate lock time
====================  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.hooks import Observer
from repro.metrics.collector import CostSummary

#: Data (WAL) records are pre-commit work; the tables count protocol
#: records only (same convention as MetricsCollector.DATA_RECORD_TYPES).
_DATA_RECORD_TYPES = frozenset({"lrm-update"})

#: Phase label for cost events hitting a (txn, node) pair before any
#: commit-context exists there (e.g. the enrollment data flows).
IDLE_PHASE = "idle"


@dataclass
class LockHold:
    """One lock's hold interval at one node, attributed to a txn."""

    node: str
    key: str
    mode: str
    granted_at: float
    released_at: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        if self.released_at is None:
            return None
        return self.released_at - self.granted_at


@dataclass
class TxnLedger:
    """Everything one transaction cost, attributed as it happened.

    ``flows``/``writes`` are attribution maps — counts keyed by
    (node, phase, message type) and (node, phase, record type, forced)
    respectively, where *phase* is the protocol state the node was in
    when it paid the cost.
    """

    txn_id: str
    flows: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    writes: Dict[Tuple[str, str, str, bool], int] = field(
        default_factory=dict)
    commit_flows: int = 0
    log_writes: int = 0
    forced_writes: int = 0
    data_flows: int = 0
    recovery_flows: int = 0
    delivered: int = 0
    hardened: int = 0
    lock_holds: List[LockHold] = field(default_factory=list)
    first_event_at: Optional[float] = None
    last_event_at: Optional[float] = None

    def cost_summary(self) -> CostSummary:
        """The paper's (flows, writes, forced) triple for this txn."""
        return CostSummary(flows=self.commit_flows,
                           log_writes=self.log_writes,
                           forced_writes=self.forced_writes)

    @property
    def lock_time(self) -> float:
        """Total closed lock-hold time across nodes and keys."""
        return sum(hold.duration for hold in self.lock_holds
                   if hold.released_at is not None)

    @property
    def open_locks(self) -> int:
        return sum(1 for hold in self.lock_holds
                   if hold.released_at is None)

    def to_dict(self) -> Dict[str, object]:
        return {
            "txn_id": self.txn_id,
            "flows": self.commit_flows,
            "log_writes": self.log_writes,
            "forced_writes": self.forced_writes,
            "data_flows": self.data_flows,
            "recovery_flows": self.recovery_flows,
            "lock_time": round(self.lock_time, 9),
            "open_locks": self.open_locks,
        }


class CostLedger(Observer):
    """Attributes every cost event of a cluster run to its transaction."""

    def __init__(self) -> None:
        self.entries: Dict[str, TxnLedger] = {}
        self._states: Dict[Tuple[str, str], str] = {}
        self._open_holds: Dict[Tuple[str, str, str], LockHold] = {}

    def _install(self, cluster) -> None:
        self.hook(cluster.network.on_send, self._on_send)
        self.hook(cluster.network.on_deliver, self._on_deliver)
        for node in cluster.nodes.values():
            self.hook(node.on_transition, self._on_transition)
            for log in node.logs():
                self.hook(log.on_write, self._on_write)
                self.hook(log.on_flush, self._on_flush)
            for rm in node.all_rms():
                self.hook(rm.locks.on_grant,
                          partial(self._on_grant, node.name))
                self.hook(rm.locks.on_release,
                          partial(self._on_release, node.name))

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def entry(self, txn_id: str) -> TxnLedger:
        ledger = self.entries.get(txn_id)
        if ledger is None:
            ledger = TxnLedger(txn_id)
            self.entries[txn_id] = ledger
        return ledger

    def _touch(self, ledger: TxnLedger) -> None:
        now = self._now
        if ledger.first_event_at is None:
            ledger.first_event_at = now
        ledger.last_event_at = now

    def _phase(self, txn_id: str, node: str) -> str:
        return self._states.get((txn_id, node), IDLE_PHASE)

    # ------------------------------------------------------------------
    # Hook bodies
    # ------------------------------------------------------------------
    def _on_transition(self, node: str, txn_id: str, old, new) -> None:
        self._states[(txn_id, node)] = new.value

    def _on_send(self, message) -> None:
        ledger = self.entry(message.txn_id)
        self._touch(ledger)
        phase = self._phase(message.txn_id, message.src)
        key = (message.src, phase, message.msg_type.value)
        ledger.flows[key] = ledger.flows.get(key, 0) + 1
        bucket = message.phase.value
        if bucket == "commit":
            ledger.commit_flows += 1
        elif bucket == "data":
            ledger.data_flows += 1
        else:
            ledger.recovery_flows += 1

    def _on_deliver(self, message) -> None:
        ledger = self.entry(message.txn_id)
        self._touch(ledger)
        ledger.delivered += 1

    def _on_write(self, record) -> None:
        ledger = self.entry(record.txn_id)
        self._touch(ledger)
        rtype = record.record_type.value
        phase = self._phase(record.txn_id, record.node)
        key = (record.node, phase, rtype, record.forced)
        ledger.writes[key] = ledger.writes.get(key, 0) + 1
        if rtype not in _DATA_RECORD_TYPES:
            ledger.log_writes += 1
            if record.forced:
                ledger.forced_writes += 1

    def _on_flush(self, durable) -> None:
        for record in durable:
            ledger = self.entries.get(record.txn_id)
            if ledger is not None:
                ledger.hardened += 1

    def _on_grant(self, node: str, txn_id: str, key: str, mode) -> None:
        ledger = self.entry(txn_id)
        self._touch(ledger)
        hold = LockHold(node=node, key=key,
                        mode=getattr(mode, "value", str(mode)),
                        granted_at=self._now)
        ledger.lock_holds.append(hold)
        self._open_holds[(node, txn_id, key)] = hold

    def _on_release(self, node: str, txn_id: str, key: str) -> None:
        hold = self._open_holds.pop((node, txn_id, key), None)
        if hold is not None:
            hold.released_at = self._now
            ledger = self.entries.get(txn_id)
            if ledger is not None:
                self._touch(ledger)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def txn_ids(self) -> List[str]:
        return list(self.entries)

    def protocol_txn_ids(self) -> List[str]:
        """Transactions that opened a commit context somewhere.

        Filters out carrier pseudo-transactions (the ``app-data``
        conversations that ferry deferred acks) which pay data flows
        but never enter the protocol.
        """
        with_context = {txn for (txn, __) in self._states}
        return [txn for txn in self.entries if txn in with_context]

    def cost_summary(self, txn_id: str) -> CostSummary:
        """(flows, writes, forced) for one transaction; zeros if unseen."""
        ledger = self.entries.get(txn_id)
        if ledger is None:
            return CostSummary(flows=0, log_writes=0, forced_writes=0)
        return ledger.cost_summary()

    def lock_time(self, txn_id: str) -> float:
        ledger = self.entries.get(txn_id)
        return ledger.lock_time if ledger is not None else 0.0

    def node_costs(self, txn_id: str, node: str) -> CostSummary:
        """Per-role triple (Table 2 splits coordinator vs subordinate)."""
        ledger = self.entries.get(txn_id)
        if ledger is None:
            return CostSummary(flows=0, log_writes=0, forced_writes=0)
        flows = sum(count for (src, __, mtype), count
                    in ledger.flows.items()
                    if src == node and mtype not in ("data", "inquire",
                                                     "outcome",
                                                     "recovery-ack"))
        writes = forced = 0
        for (wnode, __, rtype, was_forced), count in ledger.writes.items():
            if wnode != node or rtype in _DATA_RECORD_TYPES:
                continue
            writes += count
            if was_forced:
                forced += count
        return CostSummary(flows=flows, log_writes=writes,
                           forced_writes=forced)

    def to_dict(self) -> Dict[str, object]:
        return {txn: ledger.to_dict()
                for txn, ledger in sorted(self.entries.items())}
