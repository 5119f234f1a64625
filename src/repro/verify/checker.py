"""Online 2PC invariant checking.

Rules enforced (observing message sends and log writes only):

R1  A YES vote is sent only after that node forced a PREPARED record
    for the transaction (the promise the vote makes durable).
R2  A YES vote is solicited: a prepare (or delegation) was previously
    sent to the voter — unless the vote is flagged unsolicited.
R3  A COMMIT is sent only by a node that has logged COMMITTED for the
    transaction (decision makers force it first; subordinates log
    before propagating).
R4  No transaction sees both COMMIT and ABORT on the wire (heuristic
    *records* may conflict with the outcome — that is damage, reported
    separately — but protocol messages never do).
R5  An acknowledgment is sent only after the sender logged an outcome
    (committed, aborted, or a heuristic record).  Exception: a
    *recovery* ack from a participant that never voted YES — read-only
    and no-vote participants have nothing to make durable, and their
    recovery acks exist only to close the sender's retry loop.
R6  At quiescence, the durable outcomes of all participants agree
    (atomicity); heuristic records count as the documented exception
    and are reported as damage, not violation.
R7  No node sends COMMIT for one transaction to the same destination
    twice.  The normal phase sends it once; every legitimate re-send
    (recovery retry, inquiry reply) travels as an OUTCOME message, so
    a repeated COMMIT is the wire footprint of a non-idempotent
    decision path (e.g. a duplicated DECISION re-triggering
    propagation).  ABORT is exempt: a late YES vote after an abort
    decision is answered with a second ABORT by design.
RL  After a restart, every in-doubt transaction rebuilt from the log
    holds exclusive locks on the keys its logged updates touched — or
    the node recorded a ``relock-missing-rm`` recovery anomaly for the
    resource manager those keys belong to.  Silent lock loss during
    the in-doubt window is the violation (checked on demand via
    :meth:`ProtocolChecker.check_recovery_locks`, typically right
    after a restart).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.cluster import Cluster
from repro.hooks import Observer
from repro.log.records import LogRecord, LogRecordType
from repro.net.message import Message, MessageType


@dataclass
class Violation:
    rule: str
    txn_id: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] txn {self.txn_id}: {self.detail}"


_OUTCOME_RECORDS = {LogRecordType.COMMITTED, LogRecordType.ABORTED,
                    LogRecordType.HEURISTIC_COMMIT,
                    LogRecordType.HEURISTIC_ABORT}


class ProtocolChecker(Observer):
    """Attach to a cluster before running; inspect violations after."""

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        # (node, txn) -> facts observed so far
        self._forced_prepared: Set[Tuple[str, str]] = set()
        self._logged_committed: Set[Tuple[str, str]] = set()
        self._logged_outcome: Set[Tuple[str, str]] = set()
        self._prepare_sent_to: Set[Tuple[str, str]] = set()
        self._outcomes_on_wire: Dict[str, Set[str]] = {}
        # (src, dst, txn) COMMIT sends already seen (rule R7)
        self._commit_sent: Set[Tuple[str, str, str]] = set()
        # (node, txn) that voted YES — the ackers rule R5 binds
        self._yes_voted: Set[Tuple[str, str]] = set()

    # ------------------------------------------------------------------
    def _install(self, cluster: Cluster) -> None:
        self.hook(cluster.network.on_send, self._on_send)
        for node in cluster.nodes.values():
            for log in node.logs():
                self.hook(log.on_write, self._on_log)

    # ------------------------------------------------------------------
    # Stream handlers
    # ------------------------------------------------------------------
    def _on_log(self, record: LogRecord) -> None:
        key = (record.node, record.txn_id)
        if record.record_type is LogRecordType.PREPARED and record.forced:
            self._forced_prepared.add(key)
        if record.record_type is LogRecordType.COMMITTED:
            self._logged_committed.add(key)
        if record.record_type in _OUTCOME_RECORDS:
            self._logged_outcome.add(key)

    def _on_send(self, message: Message) -> None:
        txn = message.txn_id
        key = (message.src, txn)
        if message.msg_type is MessageType.PREPARE:
            self._prepare_sent_to.add((message.dst, txn))
        elif message.msg_type is MessageType.VOTE_YES:
            self._yes_voted.add(key)
            if message.flag("last_agent_delegation"):
                # The delegation is itself a solicitation for the agent.
                self._prepare_sent_to.add((message.dst, txn))
            if key not in self._forced_prepared:
                self._flag("R1", txn,
                           f"{message.src} voted YES without a forced "
                           f"prepared record")
            solicited = (key in self._prepare_sent_to
                         or message.flag("unsolicited")
                         # A delegating initiator solicits itself.
                         or message.flag("last_agent_delegation"))
            if not solicited:
                self._flag("R2", txn,
                           f"{message.src} voted YES without being "
                           f"asked to prepare")
        elif message.msg_type is MessageType.VOTE_READ_ONLY:
            if message.flag("last_agent_delegation"):
                self._prepare_sent_to.add((message.dst, txn))
        elif message.msg_type is MessageType.COMMIT:
            if key not in self._logged_committed:
                self._flag("R3", txn,
                           f"{message.src} sent COMMIT without logging "
                           f"a committed record")
            route = (message.src, message.dst, txn)
            if route in self._commit_sent:
                self._flag("R7", txn,
                           f"{message.src} sent COMMIT to {message.dst} "
                           f"twice (decision path is not idempotent)")
            self._commit_sent.add(route)
            self._record_wire_outcome(txn, "commit", message.src)
        elif message.msg_type is MessageType.ABORT:
            self._record_wire_outcome(txn, "abort", message.src)
        elif message.msg_type is MessageType.ACK:
            if key not in self._logged_outcome:
                self._flag("R5", txn,
                           f"{message.src} acknowledged without logging "
                           f"an outcome")
        elif message.msg_type is MessageType.RECOVERY_ACK:
            # A recovery ack binds only ackers with a durable stake —
            # those that voted YES.  Read-only (and no-vote)
            # participants have nothing to make durable; their
            # recovery acks exist purely to stop the sender's retries.
            if key in self._yes_voted and key not in self._logged_outcome:
                self._flag("R5", txn,
                           f"{message.src} acknowledged without logging "
                           f"an outcome")
        elif message.msg_type is MessageType.OUTCOME:
            self._record_wire_outcome(
                txn, message.payload.get("outcome", "?"), message.src)

    def _record_wire_outcome(self, txn: str, outcome: str,
                             src: str) -> None:
        seen = self._outcomes_on_wire.setdefault(txn, set())
        seen.add(outcome)
        if len(seen - {"?"}) > 1:
            self._flag("R4", txn,
                       f"conflicting outcomes on the wire: {sorted(seen)} "
                       f"(latest from {src})")

    def _flag(self, rule: str, txn: str, detail: str) -> None:
        self.violations.append(Violation(rule=rule, txn_id=txn,
                                         detail=detail))

    # ------------------------------------------------------------------
    # Final (quiescent) checks
    # ------------------------------------------------------------------
    def check_atomicity(self, txn_id: str,
                        nodes: Optional[List[str]] = None) -> None:
        """R6: durable outcomes of all participants agree."""
        if self.cluster is None:
            raise RuntimeError("checker is not attached")
        names = nodes or list(self.cluster.nodes)
        outcomes = {}
        for name in names:
            recorded = self.cluster.recorded_outcome(name, txn_id)
            if recorded is not None and not recorded.startswith("heuristic"):
                outcomes[name] = recorded
        if len(set(outcomes.values())) > 1:
            self._flag("R6", txn_id,
                       f"participants disagree durably: {outcomes}")

    def check_recovery_locks(self, node_name: str) -> None:
        """RL: rebuilt in-doubt transactions hold their update locks.

        Call right after a node's restart recovery (before the
        simulator runs on and the inquiry resolves the in-doubt
        state).  Keys the recovery could not re-lock are tolerated
        only when the node surfaced a ``relock-missing-rm`` anomaly
        for that resource manager — silent lock loss is the bug this
        rule exists to catch.
        """
        if self.cluster is None:
            raise RuntimeError("checker is not attached")
        from repro.core.states import TxnState
        from repro.log.records import LogRecordType
        from repro.lrm.locks import LockMode
        node = self.cluster.nodes[node_name]
        for txn_id, context in node.contexts.items():
            if not context.rebuilt_from_log or \
                    context.state is not TxnState.PREPARED:
                continue
            for record in context.recovered_records:
                if record.record_type is not LogRecordType.LRM_UPDATE or \
                        record.txn_id != txn_id:
                    continue
                rm_name = record.get("rm", "default")
                key = record.get("key")
                try:
                    rm = node.resource_manager(rm_name)
                except KeyError:
                    if not self._missing_rm_surfaced(node_name, rm_name):
                        self._flag("RL", txn_id,
                                   f"{node_name} lost resource manager "
                                   f"{rm_name!r} across restart without "
                                   f"recording a recovery anomaly")
                    continue
                if not rm.locks.holds(txn_id, key, LockMode.EXCLUSIVE):
                    self._flag("RL", txn_id,
                               f"{node_name} restarted in doubt but does "
                               f"not hold the exclusive lock on "
                               f"{rm_name}/{key}")

    def _missing_rm_surfaced(self, node_name: str, rm_name: str) -> bool:
        metrics = self.cluster.metrics
        return metrics.recovery_anomaly_count(
            node=node_name, kind="relock-missing-rm", detail=rm_name) > 0

    def assert_clean(self) -> None:
        if self.violations:
            rendered = "\n".join(str(v) for v in self.violations)
            raise AssertionError(
                f"{len(self.violations)} protocol violations:\n{rendered}")
