"""Crash restart and failure-time recovery.

Implements the presumption semantics that give the protocols their
names:

* a **Presumed Abort** (or basic) coordinator with no information about
  an inquired transaction answers *abort*;
* a **Presumed Commit** coordinator with no information answers
  *commit*;
* a **Presumed Nothing** coordinator never needs to presume — it forced
  a commit-pending record before the first prepare, and it (not the
  subordinate) drives recovery, collecting heuristic reports reliably.

Also implements the wait-for-outcome option (one recovery attempt,
then complete the operation with an "outcome pending" indication while
recovery continues in the background) and ack-timeout retry loops.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.core.context import CommitContext
from repro.core.decision import reports_to_payload
from repro.core.states import TxnState
from repro.log.records import LogRecord, LogRecordType
from repro.net.message import Message, MessageType, Phase

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TMNode


class RecoveryMixin:
    """Failure handling for :class:`~repro.core.node.TMNode`."""

    # ------------------------------------------------------------------
    # Restart: rebuild state from the stable log
    # ------------------------------------------------------------------
    def run_restart_recovery(self: "TMNode") -> None:
        records = self.log.recover()
        for log in self.logs()[1:]:
            log.recover()

        checkpoint = None
        for record in reversed(records):
            if record.record_type is LogRecordType.CHECKPOINT:
                checkpoint = record
                break

        if checkpoint is not None:
            self._recover_from_checkpoint(checkpoint, records)
            return

        self.last_recovery_scan = len(records)
        by_txn: "OrderedDict[str, List[LogRecord]]" = OrderedDict()
        for record in records:
            by_txn.setdefault(record.txn_id, []).append(record)

        classifications = {txn_id: self._classify(recs)
                           for txn_id, recs in by_txn.items()}

        # Redo pass: reapply every update belonging to a committed or
        # in-doubt transaction, in log order (the store is volatile).
        for record in records:
            if record.record_type is not LogRecordType.LRM_UPDATE:
                continue
            status = classifications[record.txn_id]
            if status in ("committed", "in-doubt", "heuristic-commit"):
                rm = self._rm_for_record(record)
                if rm is not None:
                    rm.redo(record.txn_id, record.get("key"),
                            record.get("value"))

        for txn_id, recs in by_txn.items():
            self._resume_transaction(txn_id, recs, classifications[txn_id],
                                     records)

    def _recover_from_checkpoint(self: "TMNode", checkpoint: LogRecord,
                                 records: List[LogRecord]) -> None:
        """Restart from the last checkpoint: restore the store
        snapshots, then process the carried summaries plus only the
        log suffix written after the checkpoint."""
        from repro.core.checkpoint import CHECKPOINT_TXN, deserialize_record

        for rm_name, snapshot in checkpoint.get("stores", {}).items():
            try:
                rm = self.resource_manager(rm_name)
            except KeyError:
                continue
            for key, value in snapshot.items():
                rm.store.redo_write(key, value)

        carried = [deserialize_record(data)
                   for data in checkpoint.get("carried", [])]
        suffix = [r for r in records if r.lsn > checkpoint.lsn]
        self.last_recovery_scan = len(carried) + len(suffix)

        by_txn: "OrderedDict[str, List[LogRecord]]" = OrderedDict()
        for record in carried + suffix:
            if record.txn_id == CHECKPOINT_TXN:
                continue
            by_txn.setdefault(record.txn_id, []).append(record)
        for recs in by_txn.values():
            recs.sort(key=lambda r: r.lsn)

        classifications = {txn_id: self._classify(recs)
                           for txn_id, recs in by_txn.items()}

        # Redo pass over the suffix only: the snapshot already holds
        # every value written before the checkpoint.
        for record in suffix:
            if record.record_type is not LogRecordType.LRM_UPDATE:
                continue
            status = classifications.get(record.txn_id)
            if status in ("committed", "in-doubt", "heuristic-commit"):
                rm = self._rm_for_record(record)
                if rm is not None:
                    rm.redo(record.txn_id, record.get("key"),
                            record.get("value"))

        # Undo pass: losers that were in flight at checkpoint time left
        # dirty values inside the snapshot.  Their locks were held, so
        # replaying their undo images (newest first) is safe.
        for txn_id, recs in by_txn.items():
            if classifications[txn_id] not in ("loser", "aborted"):
                continue
            self._undo_records(recs)

        for txn_id, recs in by_txn.items():
            self._resume_transaction(txn_id, recs, classifications[txn_id],
                                     carried + suffix)

    def _undo_records(self: "TMNode", recs: List[LogRecord]) -> None:
        updates = [r for r in recs
                   if r.record_type is LogRecordType.LRM_UPDATE]
        for record in reversed(updates):
            rm = self._rm_for_record(record)
            if rm is None:
                continue
            rm.store.redo_write(record.get("key"), record.get("previous"))

    def _classify(self, recs: List[LogRecord]) -> str:
        types = {r.record_type for r in recs}
        if LogRecordType.COMMITTED in types:
            return "committed"
        if LogRecordType.ABORTED in types:
            return "aborted"
        if LogRecordType.HEURISTIC_COMMIT in types:
            return "heuristic-commit"
        if LogRecordType.HEURISTIC_ABORT in types:
            return "heuristic-abort"
        if LogRecordType.PREPARED in types or \
                LogRecordType.LRM_PREPARED in types:
            return "in-doubt"
        if LogRecordType.COMMIT_PENDING in types or \
                LogRecordType.COLLECTING in types:
            return "undecided-coordinator"
        return "loser"

    def _rm_for_record(self: "TMNode", record: LogRecord):
        name = record.get("rm", "default")
        try:
            return self.resource_manager(name)
        except KeyError:
            return None

    def _resume_transaction(self: "TMNode", txn_id: str,
                            recs: List[LogRecord], status: str,
                            all_records: List[LogRecord]) -> None:
        types = {r.record_type for r in recs}
        has_end = LogRecordType.END in types

        if status == "committed":
            if has_end:
                return
            outcome_rec = next(r for r in recs
                               if r.record_type is LogRecordType.COMMITTED)
            self._resume_decided(txn_id, outcome_rec, "commit")
            return

        if status == "aborted":
            if has_end:
                return
            outcome_rec = next(r for r in recs
                               if r.record_type is LogRecordType.ABORTED)
            self._resume_decided(txn_id, outcome_rec, "abort")
            return

        if status in ("heuristic-commit", "heuristic-abort"):
            self._resume_heuristic(txn_id, recs, status)
            return

        if status == "in-doubt":
            self._resume_in_doubt(txn_id, recs)
            return

        if status == "undecided-coordinator":
            self._resume_undecided_coordinator(txn_id, recs)
            return
        # status == "loser": updates were never prepared; the volatile
        # store lost them and nothing was redone.  Nothing to do.

    def _resume_decided(self: "TMNode", txn_id: str,
                        outcome_rec: LogRecord, outcome: str) -> None:
        """COMMITTED/ABORTED on the log but no END: finish propagation."""
        role = outcome_rec.get("role", "subordinate")
        context = self._new_context(txn_id)
        context.outcome = outcome
        context.logged_anything = True
        context.rebuilt_from_log = True
        if role == "coordinator":
            children = list(outcome_rec.get("children", []))
            self.transition(context,
                            TxnState.COMMITTING if outcome == "commit"
                            else TxnState.ABORTING)
            needs_acks = (self.config.commit_needs_acks
                          if outcome == "commit"
                          else self.config.abort_needs_acks)
            if children and needs_acks:
                context.acks_pending = set(children)
                self._drive_outcome(context)
            else:
                self.log_tm(context, LogRecordType.END,
                            payload={"outcome": outcome, "recovery": True})
                self.forget(context)
            return
        # Subordinate: our coordinator may still be waiting for the ack
        # we might never have sent.  Resend it; it is idempotent.
        coordinator = outcome_rec.get("coordinator")
        self.forget(context)
        if coordinator is not None and self._ack_needed_for(outcome):
            self.send(MessageType.RECOVERY_ACK, coordinator, txn_id,
                      payload={"reports": [], "outcome_pending": False},
                      phase=Phase.RECOVERY)
        self.log_tm(context, LogRecordType.END,
                    payload={"outcome": outcome, "recovery": True})

    def _ack_needed_for(self: "TMNode", outcome: str) -> bool:
        return (self.config.commit_needs_acks if outcome == "commit"
                else self.config.abort_needs_acks)

    def _resume_heuristic(self: "TMNode", txn_id: str,
                          recs: List[LogRecord], status: str) -> None:
        """Heuristically decided, outcome still unknown: hold the state
        so damage can be detected and reported when recovery reaches us."""
        decision = "commit" if status == "heuristic-commit" else "abort"
        prepared = next((r for r in recs
                         if r.record_type is LogRecordType.PREPARED), None)
        context = self._new_context(txn_id)
        context.rebuilt_from_log = True
        context.sent_yes_vote = True
        context.logged_anything = True
        context.heuristic_decision = decision
        self.transition(context,
                        TxnState.HEURISTIC_COMMITTED if decision == "commit"
                        else TxnState.HEURISTIC_ABORTED)
        # Re-link (or recreate) the metrics event so damage detection
        # still lands when the outcome finally arrives.
        from repro.metrics.collector import HeuristicEvent
        event = next((e for e in self.metrics.heuristics
                      if e.node == self.name and e.txn_id == txn_id), None)
        if event is None:
            event = HeuristicEvent(node=self.name, txn_id=txn_id,
                                   decision=decision,
                                   at_time=self.simulator.now)
            self.metrics.record_heuristic(event)
        context.heuristic_event = event
        if prepared is not None:
            context.parent = prepared.get("coordinator")
        if context.parent is not None and \
                not self.config.coordinator_driven_recovery:
            self._start_inquiry(context)

    def _resume_in_doubt(self: "TMNode", txn_id: str,
                         recs: List[LogRecord]) -> None:
        prepared = next((r for r in recs
                         if r.record_type is LogRecordType.PREPARED), None)
        context = self._new_context(txn_id)
        context.rebuilt_from_log = True
        context.recovered_records = list(recs)
        context.sent_yes_vote = True
        context.logged_anything = True
        self.transition(context, TxnState.PREPARED)
        if prepared is not None:
            context.parent = prepared.get("coordinator")
            context.active_children = list(prepared.get("children", []))
            for child in context.active_children:
                # Children we remembered voted YES before the crash.
                from repro.core.context import VoteInfo
                from repro.lrm.resource_manager import Vote
                context.record_vote(child, VoteInfo(vote=Vote.YES))
        # Re-acquire exclusive locks on the touched keys: the in-doubt
        # window blocks other transactions (the blocking 2PC is famous
        # for, and the reason heuristics exist).
        keys_by_rm: Dict[str, Set[str]] = {}
        for record in recs:
            if record.record_type is LogRecordType.LRM_UPDATE:
                keys_by_rm.setdefault(record.get("rm", "default"),
                                      set()).add(record.get("key"))
        for rm_name, keys in keys_by_rm.items():
            try:
                rm = self.resource_manager(rm_name)
            except KeyError:
                # The RM named by the log no longer exists (removed or
                # renamed across the restart).  The keys it recovered
                # cannot be re-locked, so the in-doubt window no longer
                # blocks on them — a real degradation of the blocking
                # semantics, which must be surfaced, never swallowed.
                self.metrics.record_recovery_anomaly(
                    self.name, "relock-missing-rm", rm_name)
                self.note(txn_id,
                          f"cannot relock {sorted(keys)}: resource "
                          f"manager {rm_name!r} is missing; in-doubt "
                          f"keys left unlocked")
                continue
            rm.relock(txn_id, keys)
        self.note(txn_id, "restarts in doubt")
        if self.config.coordinator_driven_recovery:
            # PN: the coordinator will contact us.  We wait (blocking),
            # though the heuristic timer may fire first.
            self.start_heuristic_timer(context)
            return
        self._start_inquiry(context)

    def _resume_undecided_coordinator(self: "TMNode", txn_id: str,
                                      recs: List[LogRecord]) -> None:
        """Crashed after commit-pending/collecting but before deciding.

        Only the *root* coordinator may resolve this by unilateral
        abort — it never handed a decision away.  A cascaded
        coordinator (initiation record carries a ``coordinator``
        field) may already have voted upward before the crash — a
        read-only vote leaves no log record — so the real decision
        lives at its parent and it must inquire, exactly like an
        in-doubt subordinate.  Aborting here once durably disagreed
        with a parent that committed (checker rule R6).
        """
        pending = next(r for r in recs
                       if r.record_type in (LogRecordType.COMMIT_PENDING,
                                            LogRecordType.COLLECTING))
        children = list(pending.get("children", []))
        parent = pending.get("coordinator")
        if parent is not None:
            context = self._new_context(txn_id)
            context.rebuilt_from_log = True
            context.logged_anything = True
            context.recovered_records = list(recs)
            context.parent = parent
            context.active_children = children
            self.transition(context, TxnState.PREPARED)
            self.note(txn_id, "restart: undecided cascaded coordinator "
                              "inquires parent")
            self._start_inquiry(context)
            return
        context = self._new_context(txn_id)
        context.rebuilt_from_log = True
        context.logged_anything = True
        context.outcome = "abort"
        self.transition(context, TxnState.ABORTING)
        self.note(txn_id, "restart: undecided coordinator aborts")

        def drive() -> None:
            if children and self.config.abort_needs_acks:
                context.acks_pending = set(children)
                self._drive_outcome(context)
            else:
                for child in children:
                    self.send(MessageType.OUTCOME, child, txn_id,
                              payload={"outcome": "abort"},
                              phase=Phase.RECOVERY)
                self.log_tm(context, LogRecordType.END,
                            payload={"outcome": "abort", "recovery": True})
                self.forget(context)

        self.log_tm(context, LogRecordType.ABORTED,
                    payload={"children": children, "role": "coordinator"},
                    force=True, on_durable=drive)

    # ------------------------------------------------------------------
    # Coordinator-driven recovery / ack retries
    # ------------------------------------------------------------------
    def _drive_outcome(self: "TMNode", context: CommitContext) -> None:
        """(Re)send the outcome to children that have not acknowledged."""
        for child in sorted(context.acks_pending):
            self.send(MessageType.OUTCOME, child, context.txn_id,
                      payload={"outcome": context.outcome},
                      phase=Phase.RECOVERY)
        context.retry_timer = self.simulator.timer(
            self.config.retry_interval,
            lambda: self._retry_drive(context),
            name=f"recovery-retry:{context.txn_id}")

    def _retry_drive(self: "TMNode", context: CommitContext) -> None:
        if not self.context_live(context) or not context.acks_pending:
            return
        context.recovery_attempts += 1
        self._maybe_release_pending(context)
        self._drive_outcome(context)

    def on_ack_timeout(self: "TMNode", context: CommitContext) -> None:
        """A phase-two coordinator is missing acknowledgments."""
        if not self.context_live(context) or not context.acks_pending:
            return
        if context.state not in (TxnState.COMMITTING, TxnState.ABORTING):
            return
        context.recovery_attempts += 1
        self.note(context.txn_id,
                  f"ack timeout (attempt {context.recovery_attempts}); "
                  f"missing {sorted(context.acks_pending)}")
        self._maybe_release_pending(context)
        self._drive_outcome(context)

    def _maybe_release_pending(self: "TMNode",
                               context: CommitContext) -> None:
        """Wait-for-outcome: after the first failed recovery attempt,
        let the commit operation complete with 'outcome pending'."""
        if not self.config.wait_for_outcome or context.recovery_released:
            return
        if context.recovery_attempts < 2:
            return  # the single sanctioned recovery attempt is in flight
        context.recovery_released = True
        context.outcome_pending_below = True
        self.note(context.txn_id, "completes with outcome pending; "
                                  "recovery continues in background")
        if context.handle is not None and not context.handle.done:
            context.handle.complete(context.outcome or "commit",
                                    self.simulator.now,
                                    outcome_pending=True)
        elif context.parent is not None and not context.is_decision_maker \
                and self._ack_required(context) and not context.early_ack_sent:
            self._send_ack_upstream(context)
            context.early_ack_sent = True

    # ------------------------------------------------------------------
    # Inquiry (subordinate-driven recovery: PA / PC / basic)
    # ------------------------------------------------------------------
    def _start_inquiry(self: "TMNode", context: CommitContext) -> None:
        context.recovering = True
        self._send_inquiry(context)

    def _send_inquiry(self: "TMNode", context: CommitContext) -> None:
        # A delegating root inquires its last agent: having handed the
        # decision away it is in doubt toward the agent, not a parent.
        target = context.parent if context.parent is not None \
            else context.last_agent_child
        if target is None or not self.context_live(context):
            return
        if context.state not in (TxnState.PREPARED,
                                 TxnState.HEURISTIC_COMMITTED,
                                 TxnState.HEURISTIC_ABORTED):
            return
        self.send(MessageType.INQUIRE, target, context.txn_id,
                  phase=Phase.RECOVERY)
        context.retry_timer = self.simulator.timer(
            self.config.retry_interval,
            lambda: self._send_inquiry(context),
            name=f"inquiry-retry:{context.txn_id}")

    def on_inquire(self: "TMNode", message: Message) -> None:
        """An in-doubt participant asks us (its coordinator) what happened."""
        context = self.ctx(message.txn_id)
        outcome: Optional[str] = None
        if context is not None and context.outcome is not None:
            outcome = context.outcome
        elif context is not None:
            # Decision still in progress; the normal flow will answer.
            return
        else:
            outcome = self._outcome_from_log(message.txn_id)
            if outcome is None:
                outcome = self._presumed_outcome()
                self.note(message.txn_id,
                          f"no information; presumes {outcome}")
        self.send(MessageType.OUTCOME, message.src, message.txn_id,
                  payload={"outcome": outcome}, phase=Phase.RECOVERY)

    def _outcome_from_log(self: "TMNode", txn_id: str) -> Optional[str]:
        """What this node's log (hardened or still buffered) says
        happened to a transaction it holds no context for."""
        types = {r.record_type for r in self.log.records_for(txn_id)}
        if LogRecordType.COMMITTED in types:
            return "commit"
        if LogRecordType.ABORTED in types:
            return "abort"
        if LogRecordType.COMMIT_PENDING in types or \
                LogRecordType.COLLECTING in types:
            return "abort"  # initiation without a decision aborts
        return None

    def _presumed_outcome(self: "TMNode") -> str:
        return "commit" if self.config.presumed_commit else "abort"

    # ------------------------------------------------------------------
    # Receiving recovery traffic
    # ------------------------------------------------------------------
    def on_recovery_outcome(self: "TMNode", message: Message) -> None:
        """OUTCOME received: inquiry reply or coordinator-driven push."""
        outcome = message.payload["outcome"]
        context = self.ctx(message.txn_id)
        if context is None or context.state is TxnState.FORGOTTEN:
            # We know nothing, already finished, or dropped out with a
            # read-only vote (outcome irrelevant to us): close the loop
            # so the coordinator can forget too.
            self.send(MessageType.RECOVERY_ACK, message.src, message.txn_id,
                      payload={"reports": [], "outcome_pending": False},
                      phase=Phase.RECOVERY)
            return
        if context.state in (TxnState.HEURISTIC_COMMITTED,
                             TxnState.HEURISTIC_ABORTED):
            self._cancel_inquiry_timer(context)
            self.resolve_heuristic(context, outcome, via_recovery=True)
            return
        if context.state is TxnState.PREPARED:
            self._cancel_inquiry_timer(context)
            if context.parent is None and \
                    context.last_agent_child is not None and \
                    not context.rebuilt_from_log:
                # A live delegating root resolving its in-doubt window
                # via an inquiry to the last agent: apply the agent's
                # decision the same way the direct notification would.
                self._delegator_apply_outcome(context, outcome)
                return
            context.ack_via_recovery = True
            if outcome == "commit":
                if context.rebuilt_from_log:
                    self._apply_recovered_outcome(context, "commit")
                else:
                    self._subordinate_commit(context)
            else:
                if context.rebuilt_from_log:
                    self._apply_recovered_outcome(context, "abort")
                else:
                    self._subordinate_abort(context)
            return
        if context.state in (TxnState.COMMITTING, TxnState.ABORTING):
            if context.acks_pending:
                # We are still collecting our own subtree's acks; a
                # positive reply now would let the coordinator forget a
                # transaction whose damage reports are still in flight.
                # Our own retry timer keeps driving the subtree.
                return
            context.ack_via_recovery = True
            self._maybe_finish(context)
            return
        if context.state in (TxnState.COMMITTED, TxnState.ABORTED):
            # Finished but held for an implied ack: reassure the sender.
            self.send(MessageType.RECOVERY_ACK, message.src, message.txn_id,
                      payload={"reports": [], "outcome_pending": False},
                      phase=Phase.RECOVERY)

    def _cancel_inquiry_timer(self: "TMNode",
                              context: CommitContext) -> None:
        if context.retry_timer is not None:
            context.retry_timer.cancel()
            context.retry_timer = None

    def _apply_recovered_outcome(self: "TMNode", context: CommitContext,
                                 outcome: str) -> None:
        """Resolve a log-rebuilt in-doubt transaction."""
        context.outcome = outcome
        self.transition(context,
                        TxnState.COMMITTING if outcome == "commit"
                        else TxnState.ABORTING)
        record_type = (LogRecordType.COMMITTED if outcome == "commit"
                       else LogRecordType.ABORTED)
        forced = (self.config.subordinate_commit_forced
                  if outcome == "commit"
                  else self.config.subordinate_abort_forced)

        def resolved() -> None:
            if outcome == "abort":
                self.undo_from_log(context.txn_id)
            for rm in self.all_rms():
                rm.resolve_in_doubt(context.txn_id,
                                    commit=(outcome == "commit"))
            # Children we remembered voted YES are still in doubt below.
            for child in context.active_children:
                self.send(MessageType.OUTCOME, child, context.txn_id,
                          payload={"outcome": outcome},
                          phase=Phase.RECOVERY)
            needs = self._ack_needed_for(outcome)
            if needs and context.active_children:
                context.acks_pending = set(context.active_children)
            self._arm_ack_timer(context)
            self._maybe_finish(context)

        self.log_tm(context, record_type,
                    payload={"coordinator": context.parent,
                             "role": "subordinate", "recovery": True},
                    force=forced, on_durable=resolved if forced else None)
        if not forced:
            resolved()

    def undo_from_log(self: "TMNode", txn_id: str) -> None:
        """Roll back a rebuilt transaction using logged before-images.

        Records may live in stable storage or — after a checkpoint
        truncated the scan — in the context's carried record list.
        """
        context = self.ctx(txn_id)
        if context is not None and context.recovered_records:
            source = [r for r in context.recovered_records
                      if r.txn_id == txn_id]
        else:
            source = self.log.stable.records_for(txn_id)
        self._undo_records(source)

    def on_recovery_ack(self: "TMNode", message: Message) -> None:
        context = self.ctx(message.txn_id)
        if context is None:
            return
        self._take_reports(context, message)
        context.acks_pending.discard(message.src)
        if not context.acks_pending and context.retry_timer is not None:
            context.retry_timer.cancel()
            context.retry_timer = None
        if context.state in (TxnState.COMMITTING, TxnState.ABORTING):
            self._maybe_finish(context)
        if not context.acks_pending and context.recovery_released:
            if context.handle is not None:
                context.handle.heuristic_reports = list(context.reports)
                context.handle.recovery_done(self.simulator.now)
            elif context.parent is not None:
                # Tell the parent the subtree finally resolved.
                self.send(MessageType.RECOVERY_ACK, context.parent,
                          context.txn_id,
                          payload={"reports": reports_to_payload(
                              context.reports if self._forward_reports()
                              else []),
                              "outcome_pending": False},
                          phase=Phase.RECOVERY)
            context.recovery_released = False
