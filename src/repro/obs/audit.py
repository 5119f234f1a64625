"""Conformance auditing: observed per-transaction costs vs the formulas.

The analytic formulas in :mod:`repro.analysis.formulas` predict the
exact (flows, log writes, forced writes) triple every protocol and
optimization should pay.  The :class:`ConformanceAuditor` closes the
loop at runtime: riding a :class:`~repro.obs.ledger.CostLedger`, it
diffs each transaction's observed triple against the prediction the
moment the transaction completes, and classifies any divergence —
*expected under faults* when the run shows fault evidence (crashes,
drops, recovery traffic, heuristics, aborts), *anomaly* otherwise.
A passing audit is the strongest statement the reproduction makes:
not just that totals match the tables in aggregate, but that every
single transaction paid exactly the predicted costs.

`run_audit_cell` / `run_audit_matrix` drive the protocol × variant
grid (BASIC/PA/PN/PC × baseline/read-only/last-agent/group-commit)
used by ``repro-2pc audit`` and the parallel sweep study; both are
module-level and picklable so cells shard across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.analysis.formulas import (
    TABLE3_FORMULAS,
    TABLE3_PC_FORMULAS,
    TABLE3_PN_FORMULAS,
    basic_2pc_costs,
    pc_commit_costs,
    pn_commit_costs,
)
from repro.metrics.collector import CostSummary

#: The audit matrix: every presumption crossed with every variant.
AUDIT_PROTOCOLS = ("basic", "pa", "pn", "pc")
AUDIT_VARIANTS = ("baseline", "read_only", "last_agent", "group_commit")

CLASS_CONFORMS = "conforms"
CLASS_EXPECTED_UNDER_FAULTS = "expected-under-faults"
CLASS_ANOMALY = "anomaly"


def _triple(costs: Optional[CostSummary]) -> Optional[Dict[str, int]]:
    if costs is None:
        return None
    return {"flows": costs.flows, "log_writes": costs.log_writes,
            "forced_writes": costs.forced_writes}


def _untriple(data: Optional[Dict[str, int]]) -> Optional[CostSummary]:
    if data is None:
        return None
    return CostSummary(flows=data["flows"], log_writes=data["log_writes"],
                       forced_writes=data["forced_writes"])


def expected_costs(protocol: str, variant: str, n: int,
                   m: int = 0) -> CostSummary:
    """The formulas' prediction for one audit-matrix cell.

    ``protocol`` is a presumption key (basic/pa/pn/pc); ``variant`` an
    audit variant.  Group commit batches physical I/Os without changing
    which records are written or sent, so its triple is the baseline's.
    In this codebase BASIC differs from PA only on the abort/recovery
    path, so the fault-free commit case shares PA's predictions.
    """
    if protocol not in AUDIT_PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if variant not in AUDIT_VARIANTS:
        raise ValueError(f"unknown audit variant {variant!r}")
    if variant in ("baseline", "group_commit"):
        return {"basic": basic_2pc_costs, "pa": basic_2pc_costs,
                "pn": pn_commit_costs, "pc": pc_commit_costs}[protocol](n)
    table = {"basic": TABLE3_FORMULAS, "pa": TABLE3_FORMULAS,
             "pn": TABLE3_PN_FORMULAS, "pc": TABLE3_PC_FORMULAS}[protocol]
    return table[variant].costs(n, m)


@dataclass
class AuditFinding:
    """One audited transaction: prediction, observation, verdict."""

    txn_id: str
    observed: CostSummary
    expected: Optional[CostSummary]
    classification: str
    lock_time: float = 0.0
    fault_signals: List[str] = field(default_factory=list)
    audited_at: float = 0.0
    note: str = ""

    @property
    def conforms(self) -> bool:
        return self.classification == CLASS_CONFORMS

    @property
    def is_anomaly(self) -> bool:
        return self.classification == CLASS_ANOMALY

    def to_dict(self) -> Dict[str, object]:
        return {
            "txn_id": self.txn_id,
            "observed": _triple(self.observed),
            "expected": _triple(self.expected),
            "classification": self.classification,
            "lock_time": round(self.lock_time, 9),
            "fault_signals": list(self.fault_signals),
            "audited_at": self.audited_at,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AuditFinding":
        return cls(
            txn_id=data["txn_id"],
            observed=_untriple(data["observed"]),
            expected=_untriple(data.get("expected")),
            classification=data["classification"],
            lock_time=data.get("lock_time", 0.0),
            fault_signals=list(data.get("fault_signals", ())),
            audited_at=data.get("audited_at", 0.0),
            note=data.get("note", ""),
        )


#: A predictor maps txn_id -> expected triple (None = no prediction,
#: the finding then just records the observation as conforming).
Predictor = Union[CostSummary, Dict[str, CostSummary],
                  Callable[[str], Optional[CostSummary]], None]


class ConformanceAuditor:
    """Audits each transaction against its predicted cost triple.

    Rides a :class:`~repro.obs.ledger.CostLedger` (which must be
    attached to the same cluster) and the nodes' ``on_transition``
    hooks.  A transaction is complete when every node that opened a
    context for it has reached a terminal state (FORGOTTEN or
    READ_ONLY_DONE); the audit itself is deferred one simulator event
    (``call_soon``) so trailing log writes in the completing event are
    counted before the diff.  ``finish()`` sweeps stragglers — any
    transaction still unaudited is classified with an ``incomplete``
    fault signal.

    ``zero_tolerance`` disables the fault excuse: every divergence is
    an anomaly, whatever the run's fault evidence says.
    """

    def __init__(self, predictor: Predictor = None,
                 zero_tolerance: bool = False) -> None:
        self.predictor = predictor
        self.zero_tolerance = zero_tolerance
        self.cluster = None
        self.ledger = None
        self.findings: List[AuditFinding] = []
        self._audited: set = set()
        self._states: Dict[str, Dict[str, object]] = {}
        self._installed: List = []

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, cluster, ledger) -> "ConformanceAuditor":
        if self.cluster is cluster:
            return self
        if self.cluster is not None:
            raise RuntimeError("ConformanceAuditor is already attached to "
                               "a different cluster; detach() first")
        if ledger.cluster is not cluster:
            raise RuntimeError("the ledger must be attached to the same "
                               "cluster before the auditor")
        self.cluster = cluster
        self.ledger = ledger
        for node in cluster.nodes.values():
            node.on_transition.append(self._on_transition)
            self._installed.append((node.on_transition, self._on_transition))
        return self

    def detach(self) -> None:
        for hook_list, hook in self._installed:
            try:
                hook_list.remove(hook)
            except ValueError:
                pass
        self._installed = []
        self.cluster = None
        self.ledger = None

    @property
    def attached(self) -> bool:
        return self.cluster is not None

    # ------------------------------------------------------------------
    # Completion tracking
    # ------------------------------------------------------------------
    def _on_transition(self, node: str, txn_id: str, old, new) -> None:
        states = self._states.setdefault(txn_id, {})
        states[node] = new
        if txn_id in self._audited or not new.terminal:
            return
        if all(state.terminal for state in states.values()):
            # Defer one event so the completing event's trailing log
            # writes (the end record lands after the transition) are in
            # the ledger before the diff.
            self.cluster.simulator.call_soon(
                lambda: self._audit_if_complete(txn_id),
                name=f"audit:{txn_id}")

    def _audit_if_complete(self, txn_id: str) -> None:
        if txn_id in self._audited:
            return
        states = self._states.get(txn_id, {})
        if not states or not all(s.terminal for s in states.values()):
            return  # a node re-entered the protocol; audit again later
        self._audit(txn_id)

    # ------------------------------------------------------------------
    # The audit itself
    # ------------------------------------------------------------------
    def _predict(self, txn_id: str) -> Optional[CostSummary]:
        predictor = self.predictor
        if predictor is None:
            return None
        if isinstance(predictor, CostSummary):
            return predictor
        if isinstance(predictor, dict):
            return predictor.get(txn_id)
        return predictor(txn_id)

    def _fault_signals(self, txn_id: str) -> List[str]:
        metrics = self.cluster.metrics
        signals = []
        # Scan newest-first: this transaction just completed, so its
        # record (if recorded yet) is at the tail.
        for record in reversed(metrics.transactions):
            if record.txn_id == txn_id:
                if record.outcome != "commit":
                    signals.append(f"outcome:{record.outcome}")
                break
        if metrics.drops.total() > 0:
            signals.append("message-drops")
        # The ledger already attributes recovery flows per transaction
        # (O(1), unlike a TaggedCounter scan over every flow key).
        entry = self.ledger.entries.get(txn_id)
        if entry is not None and entry.recovery_flows > 0:
            signals.append("recovery-traffic")
        if any(h.txn_id == txn_id for h in metrics.heuristics):
            signals.append("heuristic-decision")
        crashed = [node.name for node in self.cluster.nodes.values()
                   if node.crash_count > 0]
        if crashed:
            signals.append("node-crash:" + ",".join(sorted(crashed)))
        return signals

    def _audit(self, txn_id: str,
               extra_signals: Sequence[str] = ()) -> AuditFinding:
        self._audited.add(txn_id)
        observed = self.ledger.cost_summary(txn_id)
        expected = self._predict(txn_id)
        signals = self._fault_signals(txn_id) + list(extra_signals)
        if expected is None or observed == expected:
            classification = CLASS_CONFORMS
            note = ""
        elif signals and not self.zero_tolerance:
            classification = CLASS_EXPECTED_UNDER_FAULTS
            note = ("observed differs from prediction; run shows fault "
                    "evidence")
        else:
            classification = CLASS_ANOMALY
            note = "observed differs from prediction in a fault-free run" \
                if not signals else \
                "zero-tolerance: divergence under faults still anomalous"
        finding = AuditFinding(
            txn_id=txn_id, observed=observed, expected=expected,
            classification=classification,
            lock_time=self.ledger.lock_time(txn_id),
            fault_signals=signals,
            audited_at=self.cluster.simulator.now, note=note)
        self.findings.append(finding)
        return finding

    def finish(self) -> List[AuditFinding]:
        """Audit every transaction still pending (as incomplete)."""
        for txn_id in list(self._states):
            if txn_id not in self._audited:
                self._audit(txn_id, extra_signals=["incomplete"])
        return self.findings

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        counts = {CLASS_CONFORMS: 0, CLASS_EXPECTED_UNDER_FAULTS: 0,
                  CLASS_ANOMALY: 0}
        for finding in self.findings:
            counts[finding.classification] += 1
        return counts

    def anomalies(self) -> List[AuditFinding]:
        return [f for f in self.findings if f.is_anomaly]

    def to_dict(self) -> Dict[str, object]:
        return {"counts": self.counts(),
                "findings": [f.to_dict() for f in self.findings]}


# ----------------------------------------------------------------------
# The audit matrix (module-level and picklable for pool.sweep)
# ----------------------------------------------------------------------
def cell_config(protocol: str, variant: str):
    """The protocol configuration of one matrix cell (shared with
    :mod:`repro.verify.retention`, which runs the same cells long)."""
    from repro.core.config import (
        BASIC_2PC, PRESUMED_ABORT, PRESUMED_COMMIT, PRESUMED_NOTHING)
    from repro.log.group_commit import GroupCommitPolicy

    config = {"basic": BASIC_2PC, "pa": PRESUMED_ABORT,
              "pn": PRESUMED_NOTHING, "pc": PRESUMED_COMMIT}[protocol]
    if variant == "read_only":
        config = config.with_options(read_only=True)
    elif variant == "last_agent":
        config = config.with_options(last_agent=True)
    elif variant == "group_commit":
        config = config.with_options(
            group_commit=GroupCommitPolicy(group_size=3, timeout=5.0))
    return config


def _cell_spec(variant: str, names: List[str], m: int, txn_id: str):
    from repro.core.spec import ParticipantSpec, TransactionSpec
    from repro.lrm.operations import read_op, write_op

    root, others = names[0], names[1:]
    if variant == "last_agent":
        # m last agents form a delegation chain at the tail (the same
        # topology the Table 3 scenario measures).
        participants = [ParticipantSpec(
            node=root, ops=[write_op(f"k-{root}-{txn_id}", 1)])]
        flat, chain = others[:len(others) - m], others[len(others) - m:]
        for name in flat:
            participants.append(ParticipantSpec(
                node=name, parent=root,
                ops=[write_op(f"k-{name}-{txn_id}", 1)]))
        previous = root
        for name in chain:
            participants.append(ParticipantSpec(
                node=name, parent=previous, last_agent=True,
                ops=[write_op(f"k-{name}-{txn_id}", 1)]))
            previous = name
        return TransactionSpec(participants=participants, txn_id=txn_id)
    participants = [ParticipantSpec(
        node=root, ops=[write_op(f"k-{root}-{txn_id}", 1)])]
    for i, name in enumerate(others):
        if variant == "read_only" and i < m:
            ops = [read_op(f"shared-{name}")]
        else:
            ops = [write_op(f"k-{name}-{txn_id}", 1)]
        participants.append(ParticipantSpec(node=name, parent=root,
                                            ops=ops))
    return TransactionSpec(participants=participants, txn_id=txn_id)


def run_audit_cell(protocol: str, variant: str, n: int = 3, m: int = 1,
                   txns: int = 3, seed: int = 7,
                   zero_tolerance: bool = False) -> Dict[str, object]:
    """Run one audit-matrix cell and return a serializable report.

    Builds a fresh cluster for (protocol, variant), runs ``txns``
    transactions with a ledger and an auditor attached (explicit txn
    ids keep worker processes bit-identical to a serial run), and
    reports the findings plus classification totals.
    """
    from repro.core.cluster import Cluster
    from repro.obs.ledger import CostLedger

    effective_m = m if variant in ("read_only", "last_agent") else 0
    expected = expected_costs(protocol, variant, n, effective_m)
    names = [f"n{i}" for i in range(n)]
    cluster = Cluster(cell_config(protocol, variant), nodes=names,
                      seed=seed)
    ledger = CostLedger().attach(cluster)
    auditor = ConformanceAuditor(predictor=expected,
                                 zero_tolerance=zero_tolerance)
    auditor.attach(cluster, ledger)
    for i in range(txns):
        txn_id = f"audit-{protocol}-{variant}-{i}"
        spec = _cell_spec(variant, names, effective_m, txn_id)
        cluster.run_transaction(spec)
        if variant == "last_agent":
            cluster.finalize_implied_acks()
    auditor.finish()
    counts = auditor.counts()
    return {
        "protocol": protocol,
        "variant": variant,
        "n": n,
        "m": effective_m,
        "txns": txns,
        "expected": _triple(expected),
        "findings": [f.to_dict() for f in auditor.findings],
        "conforms": counts[CLASS_CONFORMS],
        "expected_under_faults": counts[CLASS_EXPECTED_UNDER_FAULTS],
        "anomalies": counts[CLASS_ANOMALY],
        "lock_time": round(sum(f.lock_time for f in auditor.findings), 9),
    }


def run_faulty_audit_cell(protocol: str = "pa", seed: int = 7
                          ) -> Dict[str, object]:
    """A seeded crash-recovery run whose divergence the auditor must
    classify as expected-under-faults (never as an anomaly).

    The subordinate crashes with the commit decision in flight (its
    prepared record durable) and restarts later; recovery re-acquires
    locks, inquires, and commits — correct outcome, extra flows and
    writes relative to the fault-free prediction.
    """
    from repro.core.cluster import Cluster
    from repro.obs.ledger import CostLedger

    config = cell_config(protocol, "baseline").with_options(
        ack_timeout=20.0, retry_interval=20.0)
    cluster = Cluster(config, nodes=["c", "s"], seed=seed)
    ledger = CostLedger().attach(cluster)
    expected = expected_costs(protocol, "baseline", 2)
    auditor = ConformanceAuditor(predictor=expected)
    auditor.attach(cluster, ledger)
    spec = _cell_spec("baseline", ["c", "s"], 0,
                      f"audit-fault-{protocol}")
    cluster.crash_at("s", 4.5)      # prepared durable, commit lost
    cluster.restart_at("s", 50.0)
    handle = cluster.start_transaction(spec)
    cluster.run_until(300.0)
    auditor.finish()
    counts = auditor.counts()
    return {
        "protocol": protocol,
        "variant": "crash-recovery",
        "outcome": handle.outcome,
        "expected": _triple(expected),
        "findings": [f.to_dict() for f in auditor.findings],
        "conforms": counts[CLASS_CONFORMS],
        "expected_under_faults": counts[CLASS_EXPECTED_UNDER_FAULTS],
        "anomalies": counts[CLASS_ANOMALY],
    }


def merge_audit_cells(cells: Sequence[Dict[str, object]]
                      ) -> Dict[str, object]:
    """Fold per-cell audit reports into one matrix-level summary."""
    total = {"cells": list(cells), "txns": 0, "conforms": 0,
             "expected_under_faults": 0, "anomalies": 0}
    for cell in cells:
        total["txns"] += len(cell["findings"])
        total["conforms"] += cell["conforms"]
        total["expected_under_faults"] += cell["expected_under_faults"]
        total["anomalies"] += cell["anomalies"]
    return total


def run_audit_matrix(workers: Optional[int] = None,
                     protocols: Sequence[str] = AUDIT_PROTOCOLS,
                     variants: Sequence[str] = AUDIT_VARIANTS,
                     n: int = 3, m: int = 1, txns: int = 3,
                     seed: int = 7, zero_tolerance: bool = False
                     ) -> Dict[str, object]:
    """Audit every (protocol, variant) cell, optionally in parallel.

    The cells are independent simulations with explicit transaction
    ids, so the merged report is bit-identical whether the grid runs
    serially (workers=1) or sharded across processes.
    """
    from repro.parallel.pool import sweep

    grid = [{"protocol": protocol, "variant": variant, "n": n, "m": m,
             "txns": txns, "seed": seed, "zero_tolerance": zero_tolerance}
            for protocol in protocols for variant in variants]
    cells = sweep(run_audit_cell, grid, workers=workers,
                  label=lambda p: f"audit {p['protocol']}/{p['variant']}")
    return merge_audit_cells(cells)
