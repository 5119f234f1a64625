"""The central metrics collector.

All quantities the paper reports flow through here:

* network flows, tagged (phase, message type, sender, transaction) —
  Tables 2-4 count commit-phase flows;
* log writes, tagged (node, record type, forced, transaction) — the
  "x log writes, y forced" pairs in Tables 2-4;
* physical log I/Os (group commit batches many forces into one I/O);
* lock hold durations (the "resource lock time" axis of the analysis);
* transaction completions and heuristic-damage events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from repro.metrics.columns import FloatColumn, PairColumn
from repro.metrics.counters import TaggedCounter


def _given(**match: Optional[Hashable]) -> Dict[str, Hashable]:
    """The query filters actually given (None matches every value)."""
    return {name: value for name, value in match.items()
            if value is not None}


@dataclass(slots=True)
class TransactionRecord:
    """Completion record for one transaction at its root coordinator."""

    txn_id: str
    outcome: str
    started_at: float
    finished_at: float
    outcome_pending: bool = False
    heuristic_mixed: bool = False

    @property
    def latency(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class HeuristicEvent:
    """One unilateral heuristic decision taken by an in-doubt participant."""

    node: str
    txn_id: str
    decision: str            # "commit" | "abort"
    at_time: float
    damaged: Optional[bool] = None   # filled in when the true outcome arrives
    reported_to: List[str] = field(default_factory=list)


@dataclass
class RecoveryRecord:
    """One completed restart recovery: how long, how much log replayed.

    ``seconds`` is wall-clock (the live cluster's RTO; in simulation it
    is the recovery computation's real cost, still useful for the
    recovery-time-vs-checkpoint-interval tradeoff curve).
    """

    node: str
    seconds: float
    records_replayed: int
    at_time: float = 0.0
    crash_count: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {"node": self.node, "seconds": self.seconds,
                "records_replayed": self.records_replayed,
                "at_time": self.at_time, "crash_count": self.crash_count}


@dataclass
class DeadlockRecord:
    """One detected deadlock: the chosen victim and the waits-for cycle."""

    victim: str
    cycle: List[str] = field(default_factory=list)


@dataclass
class CostSummary:
    """The paper's (flows, log writes, forced writes) cost triple."""

    flows: int
    log_writes: int
    forced_writes: int

    def as_tuple(self) -> tuple:
        return (self.flows, self.log_writes, self.forced_writes)

    def __str__(self) -> str:
        return (f"{self.flows} flows, {self.log_writes} writes "
                f"({self.forced_writes} forced)")


class MetricsSnapshot:
    """Frozen collector state, for windowed (e.g. per-transaction) diffs.

    Counters are snapshotted by value; list-valued metrics
    (transactions, heuristics, lock holds, force latencies) are
    append-only, so remembering their lengths is enough to window them.
    """

    def __init__(self, flows: Dict, drops: Dict, log_writes: Dict,
                 log_ios: Dict, local_flows: Dict,
                 n_transactions: int = 0, n_heuristics: int = 0,
                 n_lock_holds: int = 0, n_force_latencies: int = 0,
                 recovery_anomalies: Optional[Dict] = None,
                 n_deadlocks: int = 0) -> None:
        self.flows = flows
        self.drops = drops
        self.log_writes = log_writes
        self.log_ios = log_ios
        self.local_flows = local_flows
        self.n_transactions = n_transactions
        self.n_heuristics = n_heuristics
        self.n_lock_holds = n_lock_holds
        self.n_force_latencies = n_force_latencies
        self.recovery_anomalies = recovery_anomalies or {}
        self.n_deadlocks = n_deadlocks


class MetricsCollector:
    """Aggregates every measurable event in a simulation run."""

    FLOW_DIMS = ("phase", "msg_type", "src", "txn")
    DROP_DIMS = ("reason", "msg_type", "src")
    LOG_DIMS = ("node", "record_type", "forced", "txn")
    IO_DIMS = ("node",)
    LOCAL_DIMS = ("node", "kind", "txn")
    ANOMALY_DIMS = ("node", "kind", "detail")

    def __init__(self) -> None:
        #: Subscription hooks, fired synchronously on record.  Empty by
        #: default (zero cost); the streaming MetricsRegistry installs
        #: here.  ``reset()`` does not clear them — attached instruments
        #: survive measurement-window resets like every other hook.
        self.on_transaction: List = []
        self.on_heuristic: List = []
        self.on_recovery: List = []
        self.reset()

    def reset(self) -> None:
        """Drop every recorded quantity (fresh-run state).

        Long-lived clusters (sweep cells reusing one cluster, the CLI's
        chained profiles) call this between measurement windows instead
        of rebuilding the whole topology.
        """
        self.flows = TaggedCounter(self.FLOW_DIMS, partition="txn")
        self.drops = TaggedCounter(self.DROP_DIMS)
        self.log_writes = TaggedCounter(self.LOG_DIMS, partition="txn")
        self.log_ios = TaggedCounter(self.IO_DIMS)
        # Local flows = TM <-> local-LRM interactions.  Table 2's shared-log
        # row counts the local LRM as the "subordinate", so these are kept
        # in their own counter rather than mixed into network flows.
        self.local_flows = TaggedCounter(self.LOCAL_DIMS, partition="txn")
        #: Degradations recovery survived but could not fully repair —
        #: e.g. an in-doubt restart that could not re-acquire locks
        #: because a resource manager went missing.  Silent before;
        #: now recorded so operators (and the torture harness) can tell
        #: surfaced degradation from silent lock loss.
        self.recovery_anomalies = TaggedCounter(self.ANOMALY_DIMS)
        self.transactions: List[TransactionRecord] = []
        self.heuristics: List[HeuristicEvent] = []
        #: Columnar float64 buffer (reads like a list of floats) — one
        #: sample per released lock; see repro.obs.columns.
        self.lock_holds = FloatColumn()
        #: Deadlocks the lock tables detected; counted in
        #: repro.lrm.locks before, but invisible in any report.
        self.deadlocks: List[DeadlockRecord] = []
        #: Completed restart recoveries (duration + replayed records);
        #: the RTO observable ROADMAP asks for.
        self.recoveries: List[RecoveryRecord] = []
        #: (node, duration) per satisfied force request — the virtual
        #: time between requesting a force and its I/O completing
        #: (group commit makes this longer than io_latency).  Columnar:
        #: node names interned, durations in a float64 buffer.
        self.force_latencies = PairColumn()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_flow(self, phase: str, msg_type: str, src: str,
                    txn: str) -> None:
        self.flows.add((phase, msg_type, src, txn))

    def record_drop(self, reason: str, msg_type: str, src: str) -> None:
        self.drops.add((reason, msg_type, src))

    def record_log_write(self, node: str, record_type: str, forced: bool,
                         txn: str) -> None:
        self.log_writes.add((node, record_type, forced, txn))

    def record_log_io(self, node: str) -> None:
        self.log_ios.add((node,))

    def record_local_flow(self, node: str, kind: str, txn: str) -> None:
        self.local_flows.add((node, kind, txn))

    def record_recovery_anomaly(self, node: str, kind: str,
                                detail: str = "") -> None:
        self.recovery_anomalies.add((node, kind, detail))

    def record_transaction(self, record: TransactionRecord) -> None:
        self.transactions.append(record)
        for hook in self.on_transaction:
            hook(record)

    def record_heuristic(self, event: HeuristicEvent) -> None:
        self.heuristics.append(event)
        for hook in self.on_heuristic:
            hook(event)

    def record_heuristic_report(self, node: str, txn: str,
                                reported_to: str) -> None:
        """``reported_to`` received the damage report of ``node``'s
        heuristic decision on ``txn`` (how far reports travel is the
        PN-vs-R* difference)."""
        for event in self.heuristics:
            if event.node == node and event.txn_id == txn:
                event.reported_to.append(reported_to)

    def record_recovery(self, record: RecoveryRecord) -> None:
        self.recoveries.append(record)
        for hook in self.on_recovery:
            hook(record)

    def record_deadlock(self, victim: str,
                        cycle: Optional[List[str]] = None) -> None:
        self.deadlocks.append(DeadlockRecord(victim, list(cycle or [])))

    def record_lock_hold(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative lock hold duration: {duration}")
        self.lock_holds.append(duration)

    def record_force_latency(self, node: str, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative force latency: {duration}")
        self.force_latencies.append((node, duration))

    # ------------------------------------------------------------------
    # Queries (the quantities the paper's tables report)
    # ------------------------------------------------------------------
    def commit_flows(self, src: Optional[str] = None,
                     txn: Optional[str] = None) -> int:
        """Network flows in the commit phase — the tables' 'flows' column."""
        return self.flows.total(**_given(phase="commit", src=src, txn=txn))

    def recovery_flows(self, txn: Optional[str] = None) -> int:
        return self.flows.total(**_given(phase="recovery", txn=txn))

    def data_flows(self) -> int:
        return self.flows.total(phase="data")

    #: Data (WAL) records are pre-commit work, not part of the commit
    #: protocol; the paper's tables count only protocol records.
    DATA_RECORD_TYPES = frozenset({"lrm-update"})

    def total_log_writes(self, node: Optional[str] = None,
                         txn: Optional[str] = None,
                         include_data: bool = False) -> int:
        return self._writes(include_data, node=node, txn=txn)

    def forced_log_writes(self, node: Optional[str] = None,
                          txn: Optional[str] = None,
                          include_data: bool = False) -> int:
        return self._writes(include_data, forced=True, node=node, txn=txn)

    def _writes(self, include_data: bool, **match: Optional[Hashable]) -> int:
        by_type = self.log_writes.group_by("record_type", **_given(**match))
        return sum(count for rtype, count in by_type.items()
                   if include_data or rtype not in self.DATA_RECORD_TYPES)

    def physical_ios(self, node: Optional[str] = None) -> int:
        return self.log_ios.total(**_given(node=node))

    def cost_summary(self, txn: Optional[str] = None) -> CostSummary:
        """The (flows, writes, forced) triple for one txn or the whole run."""
        return CostSummary(
            flows=self.commit_flows(txn=txn),
            log_writes=self.total_log_writes(txn=txn),
            forced_writes=self.forced_log_writes(txn=txn),
        )

    def node_costs(self, node: str, txn: Optional[str] = None) -> CostSummary:
        """Per-role cost triple (Table 2 reports coordinator vs subordinate)."""
        return CostSummary(
            flows=self.commit_flows(src=node, txn=txn),
            log_writes=self.total_log_writes(node=node, txn=txn),
            forced_writes=self.forced_log_writes(node=node, txn=txn),
        )

    def mean_lock_hold(self) -> float:
        if not self.lock_holds:
            return 0.0
        return sum(self.lock_holds) / len(self.lock_holds)

    def max_lock_hold(self) -> float:
        return max(self.lock_holds) if self.lock_holds else 0.0

    def recovery_anomaly_count(self, node: Optional[str] = None,
                               kind: Optional[str] = None,
                               detail: Optional[str] = None) -> int:
        return self.recovery_anomalies.total(
            **_given(node=node, kind=kind, detail=detail))

    def deadlock_count(self) -> int:
        return len(self.deadlocks)

    def deadlock_victims(self) -> List[str]:
        """Victim transaction ids, in detection order (may repeat)."""
        return [record.victim for record in self.deadlocks]

    def damaged_heuristics(self) -> List[HeuristicEvent]:
        return [h for h in self.heuristics if h.damaged]

    def mean_latency(self) -> float:
        if not self.transactions:
            return 0.0
        return sum(t.latency for t in self.transactions) / len(self.transactions)

    # ------------------------------------------------------------------
    # Windowing
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            flows=self.flows.snapshot(),
            drops=self.drops.snapshot(),
            log_writes=self.log_writes.snapshot(),
            log_ios=self.log_ios.snapshot(),
            local_flows=self.local_flows.snapshot(),
            n_transactions=len(self.transactions),
            n_heuristics=len(self.heuristics),
            n_lock_holds=len(self.lock_holds),
            n_force_latencies=len(self.force_latencies),
            recovery_anomalies=self.recovery_anomalies.snapshot(),
            n_deadlocks=len(self.deadlocks),
        )

    def since(self, earlier: MetricsSnapshot) -> "MetricsCollector":
        """A collector view holding only increments since ``earlier``.

        Counters come back as diffs; list-valued metrics (transactions,
        heuristics, lock holds, force latencies) come back sliced to
        the entries appended after the snapshot.
        """
        window = MetricsCollector()
        window.flows = self.flows.diff(earlier.flows)
        window.drops = self.drops.diff(earlier.drops)
        window.log_writes = self.log_writes.diff(earlier.log_writes)
        window.log_ios = self.log_ios.diff(earlier.log_ios)
        window.local_flows = self.local_flows.diff(earlier.local_flows)
        window.recovery_anomalies = \
            self.recovery_anomalies.diff(earlier.recovery_anomalies)
        window.transactions = self.transactions[earlier.n_transactions:]
        window.heuristics = self.heuristics[earlier.n_heuristics:]
        window.lock_holds = self.lock_holds[earlier.n_lock_holds:]
        window.deadlocks = self.deadlocks[earlier.n_deadlocks:]
        window.force_latencies = \
            self.force_latencies[earlier.n_force_latencies:]
        return window
