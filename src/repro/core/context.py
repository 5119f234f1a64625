"""Per-(node, transaction) commit state.

One :class:`CommitContext` exists at every node a transaction touches.
It tracks the node's role in the commit tree, the votes and
acknowledgments outstanding, the optimization flags negotiated on this
transaction, and the handle given to the application at the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.handle import HeuristicReport, TransactionHandle
from repro.core.spec import ParticipantSpec, TransactionSpec
from repro.core.states import Role, TxnState
from repro.lrm.resource_manager import Vote
from repro.sim.kernel import Timer


@dataclass(slots=True)
class VoteInfo:
    """A recorded vote from a child or a local resource manager."""

    vote: Vote
    reliable: bool = False
    ok_to_leave_out: bool = False
    unsolicited: bool = False


class CommitContext:
    """Everything one node knows about one transaction.  Scalar state
    is a class attribute until first assigned: a new context pays only
    for its identity and its collections."""

    # --- commit-tree shape as seen from this node --------------------
    #: Child designated as last agent (decision delegate), if any.
    last_agent_child: Optional[str] = None
    #: Parent that delegated the commit decision to this node.
    delegated_from: Optional[str] = None
    #: The delegator voted read-only (no outcome record needed there).
    delegator_read_only = False

    # --- phase one --------------------------------------------------
    #: Running tallies over ``votes`` and ``local_votes``: expected
    #: votes not yet in, NO votes, and votes other than read-only.
    votes_missing = 0
    no_votes = 0
    not_read_only_votes = 0
    #: True once this node initiated commit processing (root) —
    #: used to detect the two-independent-initiators error.
    initiated = False
    #: Prepare arrived before local work finished; vote is deferred.
    deferred_prepare = False
    #: This participant votes on its own initiative (no prepare flow).
    unsolicited = False
    #: This (read-only) initiator delegated to a last agent without
    #: force-writing a prepared record.
    ro_delegation = False

    # --- phase two --------------------------------------------------
    outcome: Optional[str] = None
    outcome_pending_below = False
    #: Commit/ack flows on this node's conversation with its parent
    #: use the long-locks variation.
    long_locks = False
    #: An END is owed once the implied acknowledgment arrives
    #: (last-agent decision makers).
    awaiting_implied_ack = False
    #: The reliable flag this node put on its own YES vote.
    voted_reliable = False
    #: This node actually sent a YES vote (acks are owed only then).
    sent_yes_vote = False
    #: Early acknowledgment already went upstream.
    early_ack_sent = False
    #: The prepared force (or delegation) is already in flight;
    #: guards against re-entrant vote evaluation.
    self_prepare_started = False
    #: Late YES voters ``on_vote`` already answered with ABORT while
    #: this node's own abort was still on its way to them.
    abort_answered: FrozenSet[str] = frozenset()
    #: Long-locks coordinators defer local commit (and lock release)
    #: until the piggybacked acks arrive.
    hold_locals_until_acks = False

    # --- local work ---------------------------------------------------
    work_done = False
    veto = False

    # --- reliability / failures --------------------------------------
    heuristic_timer: Optional[Timer] = None
    heuristic_decision: Optional[str] = None
    heuristic_damaged: Optional[bool] = None
    heuristic_event = None  # metrics HeuristicEvent, if any
    retry_timer: Optional[Timer] = None
    #: ``work_timeout``'s timer while the work is outstanding.
    work_timer: Optional[Timer] = None
    recovery_attempts = 0
    recovering = False
    #: Acks upstream must use the recovery path (post-failure).
    ack_via_recovery = False
    #: Context reconstructed from the stable log after a restart
    #: (abort must undo from log images; the undo list is gone).
    rebuilt_from_log = False
    #: Wait-for-outcome released the commit operation early; a final
    #: resolution notification is owed upstream.
    recovery_released = False

    # --- application ------------------------------------------------
    handle: Optional[TransactionHandle] = None
    #: Wrote any TM log record (decides whether an END is needed).
    logged_anything = False

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
        #: Children enrolled with work in this transaction.
        self.active_children: List[str] = []
        #: Session partners swept into phase 1 despite doing no work
        #: (inactive partners that could not be left out).
        self.inactive_children: List[str] = []
        #: Session partners excluded via OK-TO-LEAVE-OUT.
        self.left_out: List[str] = []
        #: partner -> this transaction's number on my session with it
        #: (TMNode.session_seq).
        self.session_seq: Dict[str, int] = {}
        #: Child node name -> its vote.
        self.votes: Dict[str, VoteInfo] = {}
        #: ``"rm:<name>"`` -> a local resource manager's vote.
        self.local_votes: Dict[str, VoteInfo] = {}
        #: Every vote awaited: child names and ``"rm:<name>"`` keys.
        self.expected_votes: Set[str] = set()
        #: Children actually sent a prepare (abort must notify them all).
        self.contacted: Set[str] = set()
        self.acks_pending: Set[str] = set()
        self.reports: List[HeuristicReport] = []
        #: Children whose prepares carried the long-locks instruction
        #: (their acks will ride the next transaction's traffic).
        self.long_locks_children: Set[str] = set()
        self.children_work_pending: Set[str] = set()
        self.local_votes_pending: Set[str] = set()
        #: Record history carried through a checkpoint (undo images for
        #: in-doubt transactions whose pre-checkpoint log was truncated).
        self.recovered_records: List = []

    # ------------------------------------------------------------------
    # Votes
    # ------------------------------------------------------------------
    def expect_vote(self, key: str) -> None:
        """Wait for the vote of child ``key`` (or ``"rm:<name>"``)."""
        if key not in self.expected_votes:
            self.expected_votes.add(key)
            self.votes_missing += (key not in self.votes
                                   and key not in self.local_votes)

    def record_vote(self, key: str, info: VoteInfo,
                    local: bool = False) -> None:
        """Record (or replace) a child's vote, or with ``local`` a
        resource manager's, keeping the tallies."""
        votes = self.local_votes if local else self.votes
        old = votes.get(key)
        if old is None:
            self.votes_missing -= key in self.expected_votes
        else:
            self.no_votes -= old.vote is Vote.NO
            self.not_read_only_votes -= old.vote is not Vote.READ_ONLY
        votes[key] = info
        self.no_votes += info.vote is Vote.NO
        self.not_read_only_votes += info.vote is not Vote.READ_ONLY

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

    def votes_outstanding(self) -> bool:
        """A child sent a prepare has yet to vote."""
        return not self.contacted <= self.votes.keys()

    def all_votes(self) -> List[VoteInfo]:
        """Every vote in: the children's, then the local RMs'."""
        return [*self.votes.values(), *self.local_votes.values()]

    def yes_children(self) -> List[str]:
        """Children that voted plain YES (they need the outcome)."""
        return [name for name, info in self.votes.items()
                if info.vote is Vote.YES]

    def subtree_read_only(self) -> bool:
        """True when every vote (children and local RMs) was read-only."""
        return not self.veto and not self.not_read_only_votes

    def subtree_reliable(self) -> bool:
        """True when every non-read-only vote carried the reliable flag."""
        relevant = [info for info in self.all_votes()
                    if info.vote is Vote.YES]
        return bool(relevant) and all(info.reliable for info in relevant)

    def subtree_offers_leave_out(self) -> bool:
        """A participant may offer OK-TO-LEAVE-OUT only if every member
        of its subtree does (the paper's suspension requirement)."""
        offered = self.participant.ok_to_leave_out if self.participant else False
        return offered and all(info.ok_to_leave_out
                               for info in self.votes.values())

    def cancel_timers(self) -> None:
        if self.heuristic_timer or self.retry_timer or self.work_timer:
            for timer in (self.heuristic_timer, self.retry_timer,
                          self.work_timer):
                if timer is not None:
                    timer.cancel()
            self.heuristic_timer = self.retry_timer = self.work_timer = None

    def __repr__(self) -> str:
        return (f"<CommitContext {self.txn_id}@{self.node} "
                f"{self.role.value}/{self.state.value}>")
