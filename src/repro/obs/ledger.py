"""CostLedger: per-transaction cost attribution, a fold over the tap.

The paper's evaluation is cost accounting — Tables 2-4 count message
flows, log writes and forced writes per protocol/optimization, and
"resource lock time" is its fourth axis.  The aggregate counters in
:mod:`repro.metrics.collector` already total those quantities; the
ledger attributes each individual cost event to **(transaction, node,
phase, record/message type)**, so one transaction's triple can be read
out (and audited against the analytic formulas) the moment it
completes.

The ledger installs no hooks: it is a :class:`~repro.obs.journal.Fold`
over the cluster's journal rows, and every read folds up to now.

====================  ==============================================
row                   ledger activity
====================  ==============================================
transition            track each (txn, node) protocol phase (its own
                      map, which never forgets)
send                  attribute one flow (sender pays, as the tables
                      count) to the row's counting bucket
write                 attribute one log write / forced write
grant                 open a lock-hold interval
release               close it and accumulate lock time
====================  ==============================================

A send, delivery, write or grant of a transaction not seen yet opens
its entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.metrics.collector import CostSummary
from repro.obs.journal import (AUX_INT_CLOCK, BUCKETS, GRANT, HARDEN,
                               IDLE_PHASE, RELEASE, SEND, TRANSITION, WAIT,
                               WRITE, Fold, JournalRows)

#: Data (WAL) records are pre-commit work; the tables count protocol
#: records only (same convention as MetricsCollector.DATA_RECORD_TYPES).
_DATA_RECORD_TYPES = frozenset({"lrm-update"})


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
    lock_holds: List[LockHold] = field(default_factory=list)

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


class CostLedger(Fold):
    """Attributes every cost event of a cluster run to its transaction."""

    def __init__(self) -> None:
        self._entries: Dict[str, TxnLedger] = {}
        #: (txn, node) -> its phase, as string ids of the rows' store.
        self._states: Dict[Tuple[int, int], int] = {}
        self._names: List[str] = []
        self._open_holds: Dict[Tuple[int, int, int], LockHold] = {}

    @property
    def entries(self) -> Dict[str, TxnLedger]:
        self.sync()
        return self._entries

    def _fold(self, rows: JournalRows, start: int) -> None:
        names = self._names = rows.ids.strings
        entries, states = self._entries, self._states
        holds = self._open_holds
        last, ledger = None, None
        for t, kind, node, txn, _, ref, peer, _, forced, _, _, aux \
                in rows.rows(start):
            if kind == TRANSITION:
                states[txn, node] = ref
                continue
            if kind == HARDEN or kind == WAIT or kind > RELEASE:
                continue
            if aux & AUX_INT_CLOCK:
                t = int(t)
            if kind == RELEASE:
                hold = holds.pop((node, txn, ref), None)
                if hold is not None:
                    hold.released_at = t
                continue
            if txn != last:
                last = txn
                ledger = entries.get(names[txn] if txn >= 0 else None)
            if ledger is None:
                name = names[txn] if txn >= 0 else None
                ledger = entries[name] = TxnLedger(name)
            if kind == SEND:
                phase = states.get((txn, node))
                key = (names[node], IDLE_PHASE if phase is None
                       else names[phase], names[ref])
                ledger.flows[key] = ledger.flows.get(key, 0) + 1
                bucket = BUCKETS[aux >> 3]
                if bucket == "commit":
                    ledger.commit_flows += 1
                elif bucket == "data":
                    ledger.data_flows += 1
                else:
                    ledger.recovery_flows += 1
            elif kind == WRITE:
                phase = states.get((txn, node))
                rtype = names[ref]
                key = (names[node], IDLE_PHASE if phase is None
                       else names[phase], rtype, forced == 1)
                ledger.writes[key] = ledger.writes.get(key, 0) + 1
                if rtype not in _DATA_RECORD_TYPES:
                    ledger.log_writes += 1
                    if forced == 1:
                        ledger.forced_writes += 1
            elif kind == GRANT:
                hold = holds[node, txn, ref] = LockHold(
                    node=names[node], key=names[ref], mode=names[peer],
                    granted_at=t)
                ledger.lock_holds.append(hold)

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
        entries = self.entries
        with_context = {self._names[txn] for (txn, __) in self._states}
        return [txn for txn in entries if txn in with_context]

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
