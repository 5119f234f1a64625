"""Phase one of 2PC: initiation, prepares, voting, delegation.

Implements, per the protocol configuration:

* the Presumed Nothing commit-pending force (and the PN subordinate's
  initiator-information force) and the Presumed Commit collecting force;
* the read-only vote, including the cascaded all-read-only rule;
* OK-TO-LEAVE-OUT sweeping of inactive session partners;
* the last-agent delegation (including the read-only initiator case);
* unsolicited votes;
* detection of two independent commit initiators (peer-to-peer error).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.context import CommitContext, VoteInfo
from repro.core.states import TxnState
from repro.log.records import LogRecordType
from repro.lrm.resource_manager import Vote
from repro.net.message import Message, MessageType, Phase

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TMNode


_VOTE_TYPES = {
    Vote.YES: MessageType.VOTE_YES,
    Vote.NO: MessageType.VOTE_NO,
    Vote.READ_ONLY: MessageType.VOTE_READ_ONLY,
}
_TYPE_VOTES = {v: k for k, v in _VOTE_TYPES.items()}


class VotingMixin:
    """Phase-one behaviour of :class:`~repro.core.node.TMNode`."""

    # ------------------------------------------------------------------
    # Initiation (root)
    # ------------------------------------------------------------------
    def initiate_commit(self: "TMNode", context: CommitContext) -> None:
        """The application at the root issued the commit verb."""
        context.initiated = True
        self.note(context.txn_id, "initiates commit")
        if self.config.coordinator_logs_before_prepare and \
                self._phase_one_child_names(context):
            record_type = (LogRecordType.COMMIT_PENDING
                           if self.config.presumption.value == "presumed-nothing"
                           else LogRecordType.COLLECTING)
            self.log_tm(context, record_type,
                        payload={"children": self._phase_one_child_names(context)},
                        force=True,
                        on_durable=lambda: self.start_voting(context))
            return
        self.start_voting(context)

    # ------------------------------------------------------------------
    # Receiving a prepare (subordinate side)
    # ------------------------------------------------------------------
    def on_prepare(self: "TMNode", message: Message) -> None:
        context = self.ctx(message.txn_id)
        if context is not None and context.initiated:
            # Two participants initiated commit independently for the
            # same transaction: protocol error, the transaction aborts.
            self.note(message.txn_id, "two independent initiators detected")
            self.send(MessageType.VOTE_NO, message.src, message.txn_id)
            if context.state in (TxnState.ACTIVE, TxnState.PREPARING):
                self._decide(context, "abort")
            return
        if context is None:
            if self.late_copy(message):
                return  # this node voted (or refused) and is long done
            # An inactive session partner swept into the protocol: it
            # did no work this transaction but cannot be left out.
            context = self._new_context(message.txn_id, parent=message.src)
            context.work_done = True
        if context.parent is None:
            context.parent = message.src
        context.long_locks = context.long_locks or message.flag("long_locks")
        if not context.work_done or context.children_work_pending:
            # Peer environments allow a prepare to overtake the work;
            # the vote waits for local completion (paper §4, Read Only).
            context.deferred_prepare = True
            return
        self.start_voting(context)

    # ------------------------------------------------------------------
    # Phase-one driving (all roles)
    # ------------------------------------------------------------------
    def start_voting(self: "TMNode", context: CommitContext) -> None:
        if context.state is not TxnState.ACTIVE:
            return
        self.transition(context, TxnState.PREPARING)
        self._start_phase_one(context)

    def _start_phase_one(self: "TMNode", context: CommitContext) -> None:
        self._sweep_inactive_partners(context)
        spec_participant = context.participant

        # Last-agent designation is honoured only at the decision maker.
        if self.config.last_agent and context.is_decision_maker \
                and context.spec is not None:
            for child in context.spec.children_of(self.name):
                if child.last_agent:
                    context.last_agent_child = child.node

        # Cascaded coordinators under PN/PC also log before their own
        # downstream prepares.
        downstream = self._downstream_prepare_targets(context)
        if downstream and context.parent is not None \
                and self.config.coordinator_logs_before_prepare:
            record_type = (LogRecordType.COMMIT_PENDING
                           if self.config.presumption.value == "presumed-nothing"
                           else LogRecordType.COLLECTING)
            # The coordinator field marks this initiation record as a
            # cascaded coordinator's: after a crash, the decision lies
            # upstream, so restart recovery must inquire the parent
            # rather than abort unilaterally like the root may.
            self.log_tm(context, record_type,
                        payload={"children": downstream,
                                 "coordinator": context.parent},
                        force=True,
                        on_durable=lambda: self._send_prepares(context))
            return
        del spec_participant
        self._send_prepares(context)

    def _sweep_inactive_partners(self: "TMNode",
                                 context: CommitContext) -> None:
        """Include (or leave out) session partners with no work here."""
        active = set(context.active_children)
        for partner, session in sorted(self.sessions.items()):
            if partner in active or partner == context.parent:
                continue
            if self.config.leave_out and session.leavable:
                context.left_out.append(partner)
                self.note(context.txn_id, f"leaves out {partner}")
            else:
                context.inactive_children.append(partner)

    def _phase_one_child_names(self, context: CommitContext) -> List[str]:
        children = list(context.phase_one_children)
        if context.last_agent_child in children:
            children.remove(context.last_agent_child)
            children.append(context.last_agent_child)  # listed, still known
        return children

    def _downstream_prepare_targets(self: "TMNode",
                                    context: CommitContext) -> List[str]:
        """Children that will receive an explicit prepare flow."""
        targets = []
        unsolicited = self._unsolicited_children(context)
        for child in context.phase_one_children:
            if child == context.last_agent_child:
                continue
            if child in unsolicited:
                continue
            targets.append(child)
        return targets

    def _unsolicited_children(self: "TMNode",
                              context: CommitContext) -> List[str]:
        if not self.config.unsolicited_vote or context.spec is None:
            return []
        return [child.node for child in context.spec.children_of(self.name)
                if child.unsolicited_vote]

    def _send_prepares(self: "TMNode", context: CommitContext) -> None:
        unsolicited = self._unsolicited_children(context)
        for child in self._downstream_prepare_targets(context):
            context.expected_votes.add(child)
            context.contacted.add(child)
            child_long_locks = bool(
                context.spec and self.config.long_locks
                and (context.spec.long_locks
                     or (context.spec.has_participant(child)
                         and context.spec.participant(child).long_locks)))
            if child_long_locks:
                context.long_locks_children.add(child)
            self.send(MessageType.PREPARE, child, context.txn_id,
                      flags={"long_locks": child_long_locks},
                      payload={"session_seq":
                               self.session_seq(context, child)})
        for child in unsolicited:
            # No prepare flow: the vote arrives (or already arrived) on
            # the child's own initiative.
            context.expected_votes.add(child)
            context.contacted.add(child)
        self._prepare_local_rms(context)
        if self.config.vote_timeout is not None:
            context.retry_timer = self.simulator.timer(
                self.config.vote_timeout,
                lambda: self._vote_timeout(context),
                name=f"vote-timeout:{context.txn_id}")
        self._check_votes(context)

    def _prepare_local_rms(self: "TMNode", context: CommitContext) -> None:
        # Register every expected vote before any prepare can answer
        # synchronously, so a fast voter cannot close the election early.
        for rm in self.all_rms():
            context.expected_votes.add(f"rm:{rm.name}")
        for rm in self.all_rms():
            key = f"rm:{rm.name}"

            def record(vote: Vote, rm=rm, key=key) -> None:
                context.votes[key] = VoteInfo(vote=vote, reliable=rm.reliable)
                self._check_votes(context)

            rm.prepare(context.txn_id, record,
                       allow_read_only=self.config.read_only)

    def _vote_timeout(self: "TMNode", context: CommitContext) -> None:
        if context.state is not TxnState.PREPARING or \
                not self.context_live(context):
            return
        missing = context.expected_votes - set(context.votes)
        self.note(context.txn_id, f"vote timeout; missing {sorted(missing)}")
        self._decide(context, "abort")

    # ------------------------------------------------------------------
    # Receiving votes (coordinator side) and delegations
    # ------------------------------------------------------------------
    def on_vote(self: "TMNode", message: Message) -> None:
        if message.flag("last_agent_delegation"):
            self._on_delegation(message)
            return
        context = self.ctx(message.txn_id)
        vote = _TYPE_VOTES[message.msg_type]
        if context is None:
            # A stale vote for a transaction we have forgotten (or
            # never knew).  A NO voter aborted itself and needs no
            # reply; a YES voter is in doubt and must be answered the
            # way an inquiry would be: from the stable log if it still
            # says anything, else by the configured presumption —
            # abort for BASIC/PA/PN, commit for PC (Table 1's "no
            # information" row).  Always answering ABORT here would
            # wrongly abort a PC participant whose coordinator
            # committed and forgot.
            if vote is not Vote.NO:
                outcome = self._outcome_from_log(message.txn_id)
                if outcome is None:
                    outcome = self._presumed_outcome()
                    self.note(message.txn_id,
                              f"stale vote from {message.src}; no "
                              f"information; presumes {outcome}")
                self.send(MessageType.OUTCOME, message.src, message.txn_id,
                          payload={"outcome": outcome},
                          phase=Phase.RECOVERY)
            return
        info = VoteInfo(vote=vote,
                        reliable=message.flag("reliable"),
                        ok_to_leave_out=message.flag("ok_to_leave_out"),
                        unsolicited=message.flag("unsolicited"))
        context.votes[message.src] = info
        if info.unsolicited and message.src in context.children_work_pending:
            # An unsolicited vote doubles as the work-done notification.
            context.children_work_pending.discard(message.src)
            self._work_complete_check(context)
            if context.state is not TxnState.PREPARING:
                return
        if context.state is not TxnState.PREPARING:
            # Vote arrived after the decision (e.g. another child voted
            # NO first).  A YES voter is in doubt and needs the abort.
            if vote is Vote.YES and context.outcome == "abort":
                context.contacted.add(message.src)
                self.send(MessageType.ABORT, message.src, message.txn_id)
            if context.state is TxnState.FORGOTTEN and \
                    not context.votes_outstanding():
                self._evict(context)   # that was the last late voter
            return
        self._check_votes(context)

    def _on_delegation(self: "TMNode", message: Message) -> None:
        """The coordinator handed us (the last agent) the decision."""
        context = self.ctx(message.txn_id)
        if context is None and self.late_copy(message):
            # The delegation arrived after we finished with the
            # transaction on our own (a unilateral abort it crossed on
            # the wire).  The delegator is in doubt awaiting our
            # decision, so answer like an inquiry: the log, else the
            # presumption.
            outcome = self._outcome_from_log(message.txn_id) \
                or self._presumed_outcome()
            self.note(message.txn_id,
                      f"stale delegation from {message.src}; answers "
                      f"{outcome}")
            self.send(MessageType.COMMIT if outcome == "commit"
                      else MessageType.ABORT, message.src, message.txn_id)
            return
        if context is None:
            context = self._new_context(message.txn_id, parent=message.src)
            context.work_done = True
        elif context.delegated_from == message.src:
            # Duplicate delivery of the delegation: the first copy is
            # already driving (or drove) the decision, and re-running
            # start_voting would re-send the outcome flow.
            return
        elif context.outcome is not None or context.state in (
                TxnState.ABORTING, TxnState.ABORTED):
            # The delegation crossed our unilateral abort on the wire.
            # The delegator is in doubt awaiting our decision; dropping
            # the message would block it forever, so answer with the
            # outcome we already hold.
            outcome = context.outcome or "abort"
            self.note(message.txn_id,
                      f"stale delegation from {message.src}; answers "
                      f"{outcome}")
            self.send(MessageType.COMMIT if outcome == "commit"
                      else MessageType.ABORT, message.src, message.txn_id)
            return
        context.delegated_from = message.src
        context.delegator_read_only = (
            message.msg_type is MessageType.VOTE_READ_ONLY)
        context.long_locks = context.long_locks or message.flag("long_locks")
        self.note(message.txn_id, f"receives commit decision from "
                                  f"{message.src} (last agent)")
        self.start_voting(context)

    # ------------------------------------------------------------------
    # Vote evaluation
    # ------------------------------------------------------------------
    def _check_votes(self: "TMNode", context: CommitContext) -> None:
        if context.state is not TxnState.PREPARING:
            return
        if context.veto or context.any_no_vote():
            self._decide(context, "abort")
            return
        if not context.all_votes_in():
            return
        if context.retry_timer is not None:
            context.retry_timer.cancel()
            context.retry_timer = None

        if context.is_decision_maker:
            if context.last_agent_child is not None:
                self._delegate_to_last_agent(context)
            elif context.subtree_read_only() and self.config.read_only:
                self._decide(context, "commit", all_read_only=True)
            else:
                self._decide(context, "commit")
            return

        # Intermediate / leaf subordinate: vote upstream.
        if context.subtree_read_only() and self.config.read_only:
            self.transition(context, TxnState.READ_ONLY_DONE)
            self.send(MessageType.VOTE_READ_ONLY, context.parent,
                      context.txn_id,
                      flags={"unsolicited": context.unsolicited,
                             "ok_to_leave_out":
                             context.subtree_offers_leave_out()})
            # Out of the protocol: no outcome is owed to a read-only
            # voter, so there is nothing left to remember.
            self._evict(context)
            return
        self._prepare_self_and_vote(context)

    def _prepare_self_and_vote(self: "TMNode",
                               context: CommitContext) -> None:
        if context.self_prepare_started:
            return  # the prepared force is already in flight
        context.self_prepare_started = True
        payload = {
            "coordinator": context.parent,
            "children": context.yes_children(),
        }
        reliable = context.subtree_reliable() or (
            not context.yes_children()
            and all(info.reliable or info.vote is Vote.READ_ONLY
                    for info in context.votes.values()))

        def voted() -> None:
            self.transition(context, TxnState.PREPARED)
            context.sent_yes_vote = True
            context.voted_reliable = reliable
            self.send(MessageType.VOTE_YES, context.parent, context.txn_id,
                      flags={"reliable": reliable,
                             "unsolicited": context.unsolicited,
                             "ok_to_leave_out":
                                 context.subtree_offers_leave_out()})
            self.start_heuristic_timer(context)

        def write_prepared() -> None:
            self.log_tm(context, LogRecordType.PREPARED, payload=payload,
                        force=True, on_durable=voted)

        if self.config.subordinate_logs_initiator_record \
                and context.delegated_from is None:
            # PN: force the recovery/session information (who initiates
            # recovery with us) before promising to obey it.  Read-only
            # voters never reach this point, so they log nothing.
            self.log_tm(context, LogRecordType.INITIATOR,
                        payload={"coordinator": context.parent},
                        force=True, on_durable=write_prepared)
            return
        write_prepared()

    def send_unsolicited_vote(self: "TMNode",
                              context: CommitContext) -> None:
        """The participant knows its work is done: prepare and vote now,
        without waiting for a prepare flow (paper §4, Unsolicited Vote)."""
        context.unsolicited = True
        self.note(context.txn_id, "prepares itself (unsolicited vote)")
        self.start_voting(context)

    # ------------------------------------------------------------------
    # Last agent
    # ------------------------------------------------------------------
    def _delegate_to_last_agent(self: "TMNode",
                                context: CommitContext) -> None:
        if context.self_prepare_started:
            return
        context.self_prepare_started = True
        agent = context.last_agent_child
        long_locks_flag = bool(context.spec and context.spec.long_locks
                               and self.config.long_locks)
        if context.subtree_read_only() and self.config.read_only:
            # The initiator is read-only: it may delegate without the
            # extra prepared force (paper §4, Last Agent).
            self.transition(context, TxnState.PREPARED)
            context.ro_delegation = True
            self.send(MessageType.VOTE_READ_ONLY, agent, context.txn_id,
                      flags={"last_agent_delegation": True,
                             "long_locks": long_locks_flag},
                      payload={"session_seq":
                               self.session_seq(context, agent)})
            return

        def delegated() -> None:
            self.transition(context, TxnState.PREPARED)
            self.send(MessageType.VOTE_YES, agent, context.txn_id,
                      flags={"last_agent_delegation": True,
                             "long_locks": long_locks_flag},
                      payload={"session_seq":
                               self.session_seq(context, agent)})
            self.start_heuristic_timer(context)

        self.log_tm(context, LogRecordType.PREPARED,
                    payload={"coordinator": agent,
                             "children": context.yes_children(),
                             "delegated_to": agent},
                    force=True, on_durable=delegated)
