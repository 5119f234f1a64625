"""Per-(node, transaction) commit state.

One :class:`CommitContext` exists at every node a transaction touches.
It tracks the node's role in the commit tree, the votes and
acknowledgments outstanding, the optimization flags negotiated on this
transaction, and the handle given to the application at the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.handle import HeuristicReport, TransactionHandle
from repro.core.spec import ParticipantSpec, TransactionSpec
from repro.core.states import Role, TxnState
from repro.lrm.resource_manager import Vote
from repro.sim.kernel import Timer


@dataclass
class VoteInfo:
    """A recorded vote from a child or a local resource manager."""

    vote: Vote
    reliable: bool = False
    ok_to_leave_out: bool = False
    unsolicited: bool = False


class CommitContext:
    """Everything one node knows about one transaction."""

    def __init__(self, txn_id: str, node: str,
                 spec: Optional[TransactionSpec] = None,
                 participant: Optional[ParticipantSpec] = None,
                 parent: Optional[str] = None,
                 incarnation: int = 0) -> None:
        self.txn_id = txn_id
        self.node = node
        #: The node's crash count when this context was created; a
        #: context from before a crash is dead (TMNode.context_live).
        self.incarnation = incarnation
        self.spec = spec
        self.participant = participant
        self.parent = parent
        self.state = TxnState.ACTIVE

        # --- commit-tree shape as seen from this node --------------------
        #: Children enrolled with work in this transaction.
        self.active_children: List[str] = []
        #: Session partners swept into phase 1 despite doing no work
        #: (inactive partners that could not be left out).
        self.inactive_children: List[str] = []
        #: Session partners excluded via OK-TO-LEAVE-OUT.
        self.left_out: List[str] = []
        #: Child designated as last agent (decision delegate), if any.
        self.last_agent_child: Optional[str] = None
        #: partner -> this transaction's number on my session with it
        #: (TMNode.session_seq).
        self.session_seq: Dict[str, int] = {}
        #: Parent that delegated the commit decision to this node.
        self.delegated_from: Optional[str] = None
        #: The delegator voted read-only (no outcome record needed there).
        self.delegator_read_only: bool = False

        # --- phase one --------------------------------------------------
        #: Keys are child node names or "rm:<name>" for local RMs.
        self.votes: Dict[str, VoteInfo] = {}
        self.expected_votes: Set[str] = set()
        #: Children actually sent a prepare (abort must notify them all).
        self.contacted: Set[str] = set()
        #: True once this node initiated commit processing (root) —
        #: used to detect the two-independent-initiators error.
        self.initiated = False
        #: Prepare arrived before local work finished; vote is deferred.
        self.deferred_prepare = False
        #: This participant votes on its own initiative (no prepare flow).
        self.unsolicited = False
        #: This (read-only) initiator delegated to a last agent without
        #: force-writing a prepared record.
        self.ro_delegation = False

        # --- phase two --------------------------------------------------
        self.outcome: Optional[str] = None
        self.acks_pending: Set[str] = set()
        self.reports: List[HeuristicReport] = []
        self.outcome_pending_below = False
        #: Commit/ack flows on this node's conversation with its parent
        #: use the long-locks variation.
        self.long_locks = False
        #: Children whose prepares carried the long-locks instruction
        #: (their acks will ride the next transaction's traffic).
        self.long_locks_children: Set[str] = set()
        #: An END is owed once the implied acknowledgment arrives
        #: (last-agent decision makers).
        self.awaiting_implied_ack = False
        #: The reliable flag this node put on its own YES vote.
        self.voted_reliable = False
        #: This node actually sent a YES vote (acks are owed only then).
        self.sent_yes_vote = False
        #: Early acknowledgment already went upstream.
        self.early_ack_sent = False
        #: The prepared force (or delegation) is already in flight;
        #: guards against re-entrant vote evaluation.
        self.self_prepare_started = False
        #: Long-locks coordinators defer local commit (and lock release)
        #: until the piggybacked acks arrive.
        self.hold_locals_until_acks = False

        # --- local work ---------------------------------------------------
        self.work_done = False
        self.children_work_pending: Set[str] = set()
        self.local_votes_pending: Set[str] = set()
        self.veto = False

        # --- reliability / failures --------------------------------------
        self.heuristic_timer: Optional[Timer] = None
        self.heuristic_decision: Optional[str] = None
        self.heuristic_damaged: Optional[bool] = None
        self.heuristic_event = None  # metrics HeuristicEvent, if any
        self.retry_timer: Optional[Timer] = None
        self.recovery_attempts = 0
        self.recovering = False
        #: Acks upstream must use the recovery path (post-failure).
        self.ack_via_recovery = False
        #: Context reconstructed from the stable log after a restart
        #: (abort must undo from log images; the undo list is gone).
        self.rebuilt_from_log = False
        #: Record history carried through a checkpoint (undo images for
        #: in-doubt transactions whose pre-checkpoint log was truncated).
        self.recovered_records: List = []
        #: Wait-for-outcome released the commit operation early; a final
        #: resolution notification is owed upstream.
        self.recovery_released = False

        # --- application ------------------------------------------------
        self.handle: Optional[TransactionHandle] = None
        #: Wrote any TM log record (decides whether an END is needed).
        self.logged_anything = False

    # ------------------------------------------------------------------
    # Derived facts
    # ------------------------------------------------------------------
    @property
    def role(self) -> Role:
        if self.delegated_from is not None:
            return Role.LAST_AGENT
        if self.parent is None:
            return Role.ROOT
        if self.active_children or self.inactive_children:
            return Role.CASCADED
        return Role.SUBORDINATE

    @property
    def is_decision_maker(self) -> bool:
        """Roots and delegated last agents own the commit decision."""
        return self.parent is None or self.delegated_from is not None

    @property
    def phase_one_children(self) -> List[str]:
        return self.active_children + self.inactive_children

    def all_votes_in(self) -> bool:
        return self.expected_votes <= set(self.votes)

    def votes_outstanding(self) -> bool:
        """A child sent a prepare has yet to vote."""
        return not self.contacted <= self.votes.keys()

    def any_no_vote(self) -> bool:
        return any(v.vote is Vote.NO for v in self.votes.values())

    def children_votes(self) -> Dict[str, VoteInfo]:
        return {k: v for k, v in self.votes.items() if not k.startswith("rm:")}

    def yes_children(self) -> List[str]:
        """Children that voted plain YES (they need the outcome)."""
        return [name for name, info in self.children_votes().items()
                if info.vote is Vote.YES]

    def subtree_read_only(self) -> bool:
        """True when every vote (children and local RMs) was read-only."""
        if self.veto:
            return False
        return all(info.vote is Vote.READ_ONLY for info in self.votes.values())

    def subtree_reliable(self) -> bool:
        """True when every non-read-only vote carried the reliable flag."""
        relevant = [info for info in self.votes.values()
                    if info.vote is Vote.YES]
        return bool(relevant) and all(info.reliable for info in relevant)

    def subtree_offers_leave_out(self) -> bool:
        """A participant may offer OK-TO-LEAVE-OUT only if every member
        of its subtree does (the paper's suspension requirement)."""
        offered = self.participant.ok_to_leave_out if self.participant else False
        children = self.children_votes()
        return offered and all(info.ok_to_leave_out
                               for info in children.values())

    def cancel_timers(self) -> None:
        for timer in (self.heuristic_timer, self.retry_timer):
            if timer is not None:
                timer.cancel()
        self.heuristic_timer = None
        self.retry_timer = None

    def __repr__(self) -> str:
        return (f"<CommitContext {self.txn_id}@{self.node} "
                f"{self.role.value}/{self.state.value}>")
