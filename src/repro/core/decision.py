"""Phase two of 2PC: deciding, propagating, acknowledging, forgetting.

Implements, per the protocol configuration:

* the presumption-specific logging (PA's log-nothing abort, PC's
  unforced subordinate commit, basic/PN forced aborts with acks);
* early vs. late acknowledgment and the vote-reliable ack waiver;
* the long-locks deferred acknowledgment (piggybacked on the next
  transaction's traffic) and its coordinator-side lock stretch;
* the last-agent decision exchange with its implied acknowledgment;
* aggregation of heuristic-damage reports on the ack path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.context import CommitContext
from repro.core.handle import HeuristicReport
from repro.core.states import TxnState
from repro.log.records import LogRecordType
from repro.lrm.resource_manager import Vote
from repro.net.message import Message, MessageType, Phase

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TMNode


def reports_to_payload(reports: List[HeuristicReport]) -> List[dict]:
    return [{"node": r.node, "txn_id": r.txn_id, "decision": r.decision,
             "outcome": r.outcome} for r in reports]


def reports_from_payload(items: List[dict]) -> List[HeuristicReport]:
    return [HeuristicReport(**item) for item in items]


class DecisionMixin:
    """Phase-two behaviour of :class:`~repro.core.node.TMNode`."""

    # ------------------------------------------------------------------
    # Deciding (decision makers; also the subordinate NO-vote path)
    # ------------------------------------------------------------------
    def _decide(self: "TMNode", context: CommitContext, outcome: str,
                all_read_only: bool = False) -> None:
        if context.outcome is not None:
            return
        context.outcome = outcome
        if context.retry_timer is not None:
            context.retry_timer.cancel()
            context.retry_timer = None
        self.note(context.txn_id, f"decides {outcome}"
                  + (" (all read-only)" if all_read_only else ""))

        if outcome == "commit":
            self.transition(context, TxnState.COMMITTING)
            if all_read_only:
                # PA logs nothing at all here; PN/PC already wrote their
                # initiation record and close it with an END below.
                self._finish_stage(context)
                return
            payload = {"children": context.yes_children(),
                       "role": "coordinator"}
            self.log_tm(context, LogRecordType.COMMITTED, payload=payload,
                        force=True,
                        on_durable=lambda: self._propagate_commit(context))
            return

        self._decide_abort(context)

    def _decide_abort(self: "TMNode", context: CommitContext) -> None:
        was_voting_subordinate = (context.parent is not None
                                  and not context.is_decision_maker)
        self.transition(context, TxnState.ABORTING)
        if self.config.presumption.value == "presumed-abort":
            # Presumed Abort: no abort record anywhere on the
            # coordinator side; absence of information means abort.
            self._propagate_abort(context, was_voting_subordinate)
            return
        # basic / PN / PC must remember the abort until everyone acked
        # (PC subordinates would otherwise presume commit).
        payload = {"children": context.yes_children(), "role": "coordinator"}
        forced = not was_voting_subordinate
        if forced:
            self.log_tm(context, LogRecordType.ABORTED, payload=payload,
                        force=True,
                        on_durable=lambda: self._propagate_abort(
                            context, was_voting_subordinate))
            return
        # A subordinate voting NO never promised anything: non-forced.
        self.log_tm(context, LogRecordType.ABORTED, payload=payload)
        self._propagate_abort(context, was_voting_subordinate)

    def _propagate_abort(self: "TMNode", context: CommitContext,
                         vote_no_upstream: bool) -> None:
        if vote_no_upstream:
            self.send(MessageType.VOTE_NO, context.parent, context.txn_id,
                      flags={"unsolicited": context.unsolicited})
        # Everyone contacted in phase one learns the abort, except
        # read-only voters (commit and abort are identical for them).
        # If phase one never ran (work-timeout abandonment), the
        # enrolled children are still working and must be told instead.
        contacted = context.contacted or set(context.active_children)
        targets = [child for child in sorted(contacted)
                   if self._child_vote(context, child) is not Vote.READ_ONLY]
        yes_voters = set(context.yes_children())
        for child in targets:
            self.send(MessageType.ABORT, child, context.txn_id)
        if self.config.abort_needs_acks:
            context.acks_pending = set(t for t in targets if t in yes_voters)
        if context.delegated_from is not None and \
                not context.delegator_read_only:
            # Last agent aborting: the delegator voted YES and is in
            # doubt; tell it.  Its acknowledgment is implied.
            self.send(MessageType.ABORT, context.delegated_from,
                      context.txn_id,
                      defer=self._defer_decision_send(context))
            self._await_implied_ack(context)
        elif context.delegated_from is not None:
            self.send(MessageType.ABORT, context.delegated_from,
                      context.txn_id)
        self._abort_locals(context)
        self._arm_ack_timer(context)
        self._maybe_finish(context)

    def _propagate_commit(self: "TMNode", context: CommitContext) -> None:
        """Commit record is durable: tell everyone who needs to know."""
        targets = context.yes_children()
        for child in targets:
            self.send(MessageType.COMMIT, child, context.txn_id,
                      flags={"long_locks_pending":
                             child in context.long_locks_children})
        context.acks_pending = {
            child for child in targets
            if self.config.commit_needs_acks
            and not (self.config.vote_reliable
                     and context.votes[child].reliable)}
        if context.delegated_from is not None:
            # Last agent: notify the delegator; no ack required (the
            # next data it sends is the implied acknowledgment).  Under
            # long locks the notification itself is deferred.  The
            # OK-to-leave-out offer, normally carried on the YES vote,
            # rides the decision instead.
            self.send(MessageType.COMMIT, context.delegated_from,
                      context.txn_id,
                      flags={"ok_to_leave_out":
                             context.subtree_offers_leave_out()},
                      defer=self._defer_decision_send(context))
            self._await_implied_ack(context)

        hold_locks = (context.is_decision_maker and context.spec is not None
                      and context.spec.long_locks and self.config.long_locks)
        if hold_locks:
            # The paper's long-locks cost: the coordinator's commit
            # operation (and its resources) wait for the piggybacked ack.
            context.hold_locals_until_acks = True
        else:
            self._commit_locals(context)

        if self.config.early_ack and context.handle is not None \
                and not context.handle.done:
            # Early acknowledgment at the root: the application learns
            # the outcome now; acks are still collected for the END.
            context.handle.complete("commit", self.simulator.now)

        self._arm_ack_timer(context)
        self._maybe_finish(context)

    def _defer_decision_send(self: "TMNode",
                             context: CommitContext) -> bool:
        """Long locks + last agent: the decision rides the next message."""
        return bool(context.long_locks and self.config.long_locks)

    def _child_vote(self, context: CommitContext,
                    child: str) -> Optional[Vote]:
        info = context.votes.get(child)
        return info.vote if info is not None else None

    # ------------------------------------------------------------------
    # Receiving the outcome (subordinates and delegators)
    # ------------------------------------------------------------------
    def on_outcome_message(self: "TMNode", message: Message) -> None:
        outcome = ("commit" if message.msg_type is MessageType.COMMIT
                   else "abort")
        context = self.ctx(message.txn_id)
        if context is None or context.state is TxnState.FORGOTTEN:
            # Duplicate delivery after we forgot (e.g. recovery retry),
            # or the outcome reaching a read-only voter.  (A forgotten
            # context is still here only while it waits for late votes.)
            self._ack_duplicate_outcome(message, outcome)
            return
        if self._duplicate_decision(context, outcome):
            # At-least-once delivery of a decision we are already
            # applying (or have applied).  Running the decision
            # machinery again would force a second durable outcome
            # record and re-send phase-two flows downstream.
            return
        if context.state in (TxnState.HEURISTIC_COMMITTED,
                             TxnState.HEURISTIC_ABORTED):
            self.resolve_heuristic(context, outcome, via_recovery=False)
            return
        if context.ro_delegation:
            # Read-only initiator learning the outcome from its last
            # agent: nothing to log, nothing to propagate.
            self.forget(context)
            if context.handle is not None:
                context.handle.complete(outcome, self.simulator.now)
            return
        if context.last_agent_child is not None \
                and message.src == context.last_agent_child:
            if outcome == "commit" and message.flag("ok_to_leave_out"):
                session = self.sessions.get(message.src)
                if session is not None:
                    session.leavable = True
            self._delegator_apply_outcome(context, outcome)
            return
        if outcome == "commit":
            self._subordinate_commit(context)
        else:
            self._subordinate_abort(context)

    def _duplicate_decision(self: "TMNode", context: CommitContext,
                            outcome: str) -> bool:
        """Is this COMMIT/ABORT a re-delivery of the decision already
        in force?  (Factored out so the chaos acceptance test can
        disable the guard and watch the campaign catch the bug.)"""
        return (context.outcome == outcome
                and context.state in (TxnState.COMMITTING,
                                      TxnState.COMMITTED,
                                      TxnState.ABORTING,
                                      TxnState.ABORTED))

    def _ack_duplicate_outcome(self: "TMNode", message: Message,
                               outcome: str) -> None:
        # A normal-phase outcome for a forgotten (or never-known)
        # transaction needs no reply: closure notifications to NO
        # voters land here, and genuine recovery retries travel as
        # OUTCOME messages, which on_recovery_outcome answers.
        del message, outcome

    def _delegator_apply_outcome(self: "TMNode", context: CommitContext,
                                 outcome: str) -> None:
        """The last agent decided; the delegating coordinator applies."""
        context.cancel_timers()
        context.outcome = outcome
        self.note(context.txn_id, f"last agent decided {outcome}")
        if outcome == "commit":
            self.transition(context, TxnState.COMMITTING)
            self.log_tm(context, LogRecordType.COMMITTED,
                        payload={"children": context.yes_children(),
                                 "role": "coordinator"},
                        force=True,
                        on_durable=lambda: self._propagate_commit(context))
        else:
            self._decide_abort(context)

    def _subordinate_commit(self: "TMNode", context: CommitContext) -> None:
        context.cancel_timers()
        context.outcome = "commit"
        self.transition(context, TxnState.COMMITTING)
        forced = self.config.subordinate_commit_forced

        def committed_durable() -> None:
            # Register expected acks BEFORE any synchronous local commit
            # can re-enter _maybe_finish, or a cascaded coordinator
            # would ack upstream before telling its own subtree.
            targets = context.yes_children()
            context.acks_pending = {
                child for child in targets
                if self.config.commit_needs_acks
                and not (self.config.vote_reliable
                         and context.votes[child].reliable)}
            for child in targets:
                self.send(MessageType.COMMIT, child, context.txn_id)
            if self.config.early_ack and self._ack_required(context):
                self._send_ack_upstream(context)
                context.early_ack_sent = True
            self._commit_locals(context)
            self._arm_ack_timer(context)
            self._maybe_finish(context)

        self.log_tm(context, LogRecordType.COMMITTED,
                    payload={"coordinator": context.parent, "role":
                             "subordinate"},
                    force=forced,
                    on_durable=committed_durable if forced else None)
        if not forced:
            committed_durable()

    def _subordinate_abort(self: "TMNode", context: CommitContext) -> None:
        context.cancel_timers()
        if context.state in (TxnState.ABORTED, TxnState.ABORTING):
            return  # we voted NO and already aborted
        context.outcome = "abort"
        self.transition(context, TxnState.ABORTING)
        forced = self.config.subordinate_abort_forced \
            and context.logged_anything

        def aborted_durable() -> None:
            targets = context.yes_children()
            if not context.expected_votes:
                # Phase one never ran here (aborted while still doing
                # the work): pass the abort on to the enrolled subtree.
                targets = list(context.active_children)
            if self.config.abort_needs_acks:
                context.acks_pending = set(context.yes_children())
            for child in targets:
                self.send(MessageType.ABORT, child, context.txn_id)
            self._abort_locals(context)
            self._arm_ack_timer(context)
            self._maybe_finish(context)

        if self.config.presumption.value == "presumed-abort":
            # Non-forced abort record: losing it is covered by the
            # presumption (this is PA's saving over the baseline).
            self.log_tm(context, LogRecordType.ABORTED,
                        payload={"coordinator": context.parent})
            aborted_durable()
            return
        self.log_tm(context, LogRecordType.ABORTED,
                    payload={"coordinator": context.parent},
                    force=forced,
                    on_durable=aborted_durable if forced else None)
        if not forced:
            aborted_durable()

    # ------------------------------------------------------------------
    # Local resource managers
    # ------------------------------------------------------------------
    def _commit_locals(self: "TMNode", context: CommitContext) -> None:
        for rm in self.all_rms():
            if rm.is_finished(context.txn_id):
                continue  # read-only RMs finished at prepare time
            context.local_votes_pending.add(rm.name)
            rm.commit(context.txn_id,
                      on_done=lambda name=rm.name: self._local_done(
                          context, name))

    def _abort_locals(self: "TMNode", context: CommitContext) -> None:
        for rm in self.all_rms():
            if rm.is_finished(context.txn_id):
                continue
            context.local_votes_pending.add(rm.name)
            rm.abort(context.txn_id,
                     on_done=lambda name=rm.name: self._local_done(
                         context, name))

    def _local_done(self: "TMNode", context: CommitContext,
                    rm_name: str) -> None:
        context.local_votes_pending.discard(rm_name)
        self._maybe_finish(context)

    # ------------------------------------------------------------------
    # Acknowledgments
    # ------------------------------------------------------------------
    def on_ack(self: "TMNode", message: Message) -> None:
        context = self.ctx(message.txn_id)
        if context is None:
            return
        self._take_reports(context, message)
        if message.payload.get("outcome_pending"):
            context.outcome_pending_below = True
        context.acks_pending.discard(message.src)
        self._maybe_finish(context)

    def _take_reports(self: "TMNode", context: CommitContext,
                      message: Message) -> None:
        """Heuristic-damage reports riding an acknowledgment."""
        reports = reports_from_payload(message.payload.get("reports", []))
        context.reports.extend(reports)
        for report in reports:
            self.metrics.record_heuristic_report(report.node, report.txn_id,
                                                 reported_to=self.name)

    def _ack_required(self: "TMNode", context: CommitContext) -> bool:
        if context.parent is None or context.is_decision_maker:
            return False
        if not context.sent_yes_vote:
            return False  # NO voters owe nothing beyond their vote
        if context.outcome == "commit" and not self.config.commit_needs_acks:
            return False
        if context.outcome == "abort" and not self.config.abort_needs_acks:
            return False
        if self.config.vote_reliable and context.voted_reliable:
            # The parent waived our ack when we voted reliable.
            return False
        return True

    def _send_ack_upstream(self: "TMNode", context: CommitContext) -> None:
        # A participant's OWN damage report always reaches its immediate
        # coordinator; whether reports from deeper in the subtree are
        # forwarded is the PN-vs-R* reporting difference.
        own = [r for r in context.reports if r.node == self.name]
        reports = context.reports if self._forward_reports() else own
        msg_type = (MessageType.RECOVERY_ACK if context.ack_via_recovery
                    else MessageType.ACK)
        self.send(msg_type, context.parent, context.txn_id,
                  payload={"reports": reports_to_payload(reports),
                           "outcome_pending": context.outcome_pending_below},
                  defer=bool(context.long_locks and self.config.long_locks
                             and not context.ack_via_recovery))

    def _forward_reports(self: "TMNode") -> bool:
        return self.config.reports_to_root

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _maybe_finish(self: "TMNode", context: CommitContext) -> None:
        if context.state not in (TxnState.COMMITTING, TxnState.ABORTING):
            return
        if context.acks_pending:
            return
        if getattr(context, "hold_locals_until_acks", False):
            context.hold_locals_until_acks = False
            self._commit_locals(context)
        if context.local_votes_pending:
            return
        self._finish_stage(context)

    def _finish_stage(self: "TMNode", context: CommitContext) -> None:
        """Everything below (and local to) this node is resolved."""
        if context.state in (TxnState.FORGOTTEN, TxnState.COMMITTED,
                             TxnState.ABORTED, TxnState.READ_ONLY_DONE):
            return  # already finished (guards re-entrant local commits)
        context.cancel_timers()
        outcome = context.outcome or "commit"
        if context.parent is not None and not context.is_decision_maker:
            if self._ack_required(context) and not context.early_ack_sent:
                self._send_ack_upstream(context)
        needs_end = context.logged_anything and self._needs_end(context,
                                                                outcome)
        if needs_end:
            self.log_tm(context, LogRecordType.END,
                        payload={"outcome": outcome})
        final = (TxnState.COMMITTED if outcome == "commit"
                 else TxnState.ABORTED)
        self.transition(context, final)
        if not context.awaiting_implied_ack:
            # (Otherwise: stay rememberable until the implied ack
            # arrives; the END above is withheld until then, see
            # _needs_end.)
            self.forget(context)
        if context.handle is not None and not context.handle.done:
            context.handle.complete(
                outcome, self.simulator.now,
                outcome_pending=context.outcome_pending_below)
        if context.handle is not None:
            context.handle.heuristic_reports = list(context.reports)
        self._update_leave_out_promises(context, outcome)
        self.note(context.txn_id, f"finished ({outcome})")

    def _needs_end(self: "TMNode", context: CommitContext,
                   outcome: str) -> bool:
        if context.awaiting_implied_ack:
            return False  # written when the implied ack arrives
        if context.is_decision_maker:
            return True
        presumption = self.config.presumption.value
        if outcome == "commit" and presumption == "presumed-commit":
            return False
        if outcome == "abort" and presumption == "presumed-abort":
            return False
        return True

    def _await_implied_ack(self: "TMNode", context: CommitContext) -> None:
        """The decision went to the delegator; its next message is the
        acknowledgment (see :meth:`handle_implied_ack`)."""
        context.awaiting_implied_ack = True
        self._implied_ack_waiters.setdefault(
            context.delegated_from, []).append(context)

    def handle_implied_ack(self: "TMNode", partner: str) -> None:
        """Any message from ``partner`` implies its pending acks."""
        waiters = self._implied_ack_waiters.get(partner)
        if not waiters:
            return
        # A waiter still propagating its decision (not yet COMMITTED /
        # ABORTED) keeps waiting for a later message.
        finished = [context for context in waiters if context.state in
                    (TxnState.COMMITTED, TxnState.ABORTED)]
        if not finished:
            return
        if len(finished) == len(waiters):
            del self._implied_ack_waiters[partner]
        else:
            waiters[:] = [context for context in waiters
                          if context not in finished]
        if len(finished) > 1:
            # Context-creation order (END records, and so LSNs, follow
            # it), not the order the decisions happened to go out in.
            finished = [context for context in self.contexts.values()
                        if context in finished]
        for context in finished:
            context.awaiting_implied_ack = False
            if context.logged_anything:
                self.log_tm(context, LogRecordType.END,
                            payload={"outcome": context.outcome,
                                     "implied_ack": True})
            self.forget(context)
            self.note(context.txn_id,
                      f"implied ack from {partner}; forgets")

    # ------------------------------------------------------------------
    # OK-TO-LEAVE-OUT bookkeeping
    # ------------------------------------------------------------------
    def _update_leave_out_promises(self: "TMNode", context: CommitContext,
                                   outcome: str) -> None:
        """The leave-out offer is a protected variable: it takes effect
        only if the transaction commits."""
        if outcome != "commit":
            return
        for child, info in context.children_votes().items():
            session = self.sessions.get(child)
            if session is None:
                continue
            session.leavable = info.ok_to_leave_out
        for child in context.left_out:
            # Left-out partners stay suspended and leavable.
            session = self.sessions.get(child)
            if session is not None:
                session.leavable = True

    # ------------------------------------------------------------------
    # Ack timeout arming (handler lives in the recovery mixin)
    # ------------------------------------------------------------------
    def _arm_ack_timer(self: "TMNode", context: CommitContext) -> None:
        if not context.acks_pending or self.config.ack_timeout is None:
            return
        context.retry_timer = self.simulator.timer(
            self.config.ack_timeout,
            lambda: self.on_ack_timeout(context),
            name=f"ack-timeout:{context.txn_id}")
