"""The transaction-manager node.

A :class:`TMNode` owns one log manager, one integrated resource
manager (plus optional detached ones), its conversation sessions with
partner nodes, and the per-transaction commit contexts.  The protocol
logic itself lives in the mixins:

* :class:`~repro.core.voting.VotingMixin` — phase one;
* :class:`~repro.core.decision.DecisionMixin` — phase two;
* :class:`~repro.core.heuristics.HeuristicMixin` — heuristic decisions;
* :class:`~repro.core.recovery.RecoveryMixin` — crash restart,
  inquiries and retries.

This module provides the plumbing they share: message sending with
long-locks deferral and piggybacking, receive dispatch, the data
(enrollment) phase, session bookkeeping for OK-TO-LEAVE-OUT, and
crash/restart entry points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.config import ProtocolConfig
from repro.core.context import CommitContext
from repro.core.decision import DecisionMixin
from repro.core.handle import TransactionHandle
from repro.core.heuristics import HeuristicMixin
from repro.core.recovery import RecoveryMixin
from repro.core.spec import ParticipantSpec, TransactionSpec
from repro.core.states import TxnState
from repro.core.voting import VotingMixin
from repro.errors import ProtocolError
from repro.log.manager import LogManager
from repro.log.records import LogRecordType
from repro.lrm.resource_manager import ResourceManager
from repro.metrics.collector import MetricsCollector, RecoveryRecord
from repro.net.message import Message, MessageType, Phase
from repro.net.network import Network
from repro.sim.kernel import Simulator


@dataclass
class Session:
    """A standing conversation with a partner I habitually coordinate.

    ``leavable`` records the protected OK-TO-LEAVE-OUT promise from the
    partner's last successful commit: it may be excluded from future
    transactions in which no data is exchanged with it.  ``opened``
    counts the transactions I have brought to the partner: the number
    rides (as ``session_seq``) on every message that can start one
    there, so the partner can tell a late copy from a new transaction
    (see :class:`Arrivals`).
    """

    partner: str
    leavable: bool = False
    opened: int = 0


class Arrivals:
    """Which of one partner's transactions have already started here.

    The partner numbers them per session (``Session.opened``).  Once a
    transaction is forgotten its context is gone, and a node that never
    logged for it (a read-only voter, a Presumed Abort participant that
    refused) has no other trace of it; the number is what still tells a
    late copy of its enrollment or prepare from a new transaction.
    Numbers up to ``floor`` have all been seen; ``above`` holds the
    seen ones past a gap (a start still on the wire, or lost).  A gap
    more than ``WINDOW`` starts old is given up on, and whatever would
    have filled it counts as late: the state is bounded however long
    the session lives.
    """

    __slots__ = ("floor", "above")
    WINDOW = 256

    def __init__(self) -> None:
        self.floor = 0
        self.above: Set[int] = set()

    def first_sight(self, seq: int) -> bool:
        """Record ``seq``; False if it was seen (or given up on)."""
        if seq <= self.floor or seq in self.above:
            return False
        self.above.add(seq)
        if len(self.above) > self.WINDOW:
            self.floor = min(self.above) - 1
        while self.floor + 1 in self.above:
            self.floor += 1
            self.above.remove(self.floor)
        return True


class TMNode(VotingMixin, DecisionMixin, HeuristicMixin, RecoveryMixin):
    """One site: transaction manager + local resource managers."""

    def __init__(self, name: str, simulator: Simulator, network: Network,
                 metrics: MetricsCollector, config: ProtocolConfig,
                 reliable: bool = False) -> None:
        self.name = name
        self.simulator = simulator
        self.network = network
        self.metrics = metrics
        self.config = config
        self.alive = True
        self.log = LogManager(simulator, metrics, name,
                              io_latency=config.io_latency,
                              group_commit=config.group_commit)
        self.default_rm = ResourceManager(
            name="default", node_name=name, simulator=simulator,
            metrics=metrics, log=self.log, reliable=reliable)
        self.detached_rms: Dict[str, ResourceManager] = {}
        #: Commit contexts of the transactions in flight here.  A
        #: transaction this node has forgotten is absent, exactly like
        #: one it never saw (see :meth:`forget`).
        self.contexts: Dict[str, CommitContext] = {}
        #: Last-agent contexts owed an implied acknowledgment, by the
        #: partner whose next message is that acknowledgment.
        self._implied_ack_waiters: Dict[str, List[CommitContext]] = {}
        self.sessions: Dict[str, Session] = {}
        #: Transactions each partner has started here (volatile).
        self._arrivals: Dict[str, Arrivals] = {}
        self._deferred_outbox: Dict[str, List[Message]] = {}
        #: Receive dispatch, by message type value (a string hashes in
        #: C; an Enum member hashes through Python).
        self._handlers: Dict[str, Callable[[Message], None]] = {
            msg_type._value_: handler for msg_type, handler in (
                (MessageType.DATA, self.on_data),
                (MessageType.PREPARE, self.on_prepare),
                (MessageType.VOTE_YES, self.on_vote),
                (MessageType.VOTE_NO, self.on_vote),
                (MessageType.VOTE_READ_ONLY, self.on_vote),
                (MessageType.COMMIT, self.on_outcome_message),
                (MessageType.ABORT, self.on_outcome_message),
                (MessageType.ACK, self.on_ack),
                (MessageType.INQUIRE, self.on_inquire),
                (MessageType.OUTCOME, self.on_recovery_outcome),
                (MessageType.RECOVERY_ACK, self.on_recovery_ack))}
        #: Trace hook: callables invoked with (node, txn_id, text).
        self.on_note: List[Callable[[str, str, str], None]] = []
        #: Phase-boundary hook: callables invoked with
        #: (node, txn_id, old_state, new_state) on every commit-context
        #: state transition (old_state is None at context creation).
        #: repro.obs builds span trees out of these.
        self.on_transition: List[Callable[
            [str, str, Optional[TxnState], TxnState], None]] = []
        #: Records processed by the last restart recovery (checkpoints
        #: bound this; see repro.core.checkpoint).
        self.last_recovery_scan = 0
        #: Crashes this node has suffered (the conformance auditor uses
        #: this to classify cost divergences as expected-under-faults).
        self.crash_count = 0
        network.register(name, self.receive, alive=lambda: self.alive)

    def take_checkpoint(
            self, on_durable: Optional[Callable[[], None]] = None) -> None:
        """Write a forced fuzzy checkpoint (bounds future restarts)."""
        from repro.core.checkpoint import take_checkpoint
        take_checkpoint(self, on_durable=on_durable)

    # ------------------------------------------------------------------
    # Resource managers
    # ------------------------------------------------------------------
    def add_detached_rm(self, rm_name: str, reliable: bool = False,
                        own_log: bool = False) -> ResourceManager:
        """Attach a detached RM (its own participant for accounting).

        With ``own_log`` it forces its records to a private log (the
        unshared baseline); otherwise it rides this TM's log, which is
        the shared-log optimization when config.shared_log is set.
        """
        if rm_name in self.detached_rms or rm_name == "default":
            raise ProtocolError(f"duplicate resource manager {rm_name!r}")
        if own_log:
            log: LogManager = LogManager(
                self.simulator, self.metrics, f"{self.name}/{rm_name}",
                io_latency=self.config.io_latency,
                group_commit=self.config.group_commit)
            shares = False
        else:
            log = self.log
            shares = self.config.shared_log
        rm = ResourceManager(
            name=rm_name, node_name=self.name, simulator=self.simulator,
            metrics=self.metrics, log=log, reliable=reliable,
            detached=True, shares_tm_log=shares)
        self.detached_rms[rm_name] = rm
        return rm

    def resource_manager(self, rm_name: str = "default") -> ResourceManager:
        if rm_name == "default":
            return self.default_rm
        return self.detached_rms[rm_name]

    def all_rms(self) -> Tuple[ResourceManager, ...]:
        return (self.default_rm, *self.detached_rms.values())

    def logs(self) -> List[LogManager]:
        """This node's distinct logs: the TM log first, then the private
        logs of ``own_log`` detached RMs in registration order."""
        log = self.log
        return [log] + [rm.log for rm in self.detached_rms.values()
                        if rm.log is not log]

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------
    def ctx(self, txn_id: str) -> Optional[CommitContext]:
        return self.contexts.get(txn_id)

    def require_ctx(self, txn_id: str) -> CommitContext:
        context = self.contexts.get(txn_id)
        if context is None:
            raise ProtocolError(f"{self.name}: no context for {txn_id}")
        return context

    def _new_context(self, txn_id: str,
                     spec: Optional[TransactionSpec] = None,
                     participant: Optional[ParticipantSpec] = None,
                     parent: Optional[str] = None) -> CommitContext:
        if txn_id in self.contexts:
            raise ProtocolError(
                f"{self.name}: context for {txn_id} already exists")
        context = CommitContext(txn_id, self.name, spec, participant,
                                parent, self.crash_count)
        self.contexts[txn_id] = context
        for hook in self.on_transition:
            hook(self.name, txn_id, None, context.state)
        return context

    def transition(self, context: CommitContext, state: TxnState) -> None:
        """Move a commit context to ``state``, firing phase hooks.

        Every protocol-level state change routes through here so
        observers (span tracers, debuggers) see the same boundaries the
        protocol acts on.  No-op transitions are swallowed.
        """
        old = context.state
        if old is state:
            return
        context.state = state
        for hook in self.on_transition:
            hook(self.name, context.txn_id, old, state)

    def forget(self, context: CommitContext) -> None:
        """END: no memory of the transaction is required any more.

        One duty can outlive the END: a coordinator that aborted on the
        first NO still owes the abort to a child whose YES vote is on
        its way.  Its context stays until the prepared children have
        all been heard from (``on_vote`` evicts it then).
        """
        self.transition(context, TxnState.FORGOTTEN)
        if not context.votes_outstanding():
            self._evict(context)

    def _evict(self, context: CommitContext) -> None:
        """Drop a context that has nothing left to do (forgotten, or out
        of the protocol after a read-only vote).

        From here on the node treats the transaction like one it never
        saw: late and duplicate messages are answered from the log,
        else by the presumption.  The resource managers finished their
        local commit or abort before the context got here, so their
        entries go too.
        """
        context.cancel_timers()
        if self.contexts.get(context.txn_id) is context:
            del self.contexts[context.txn_id]
        for rm in self.all_rms():
            rm.forget(context.txn_id)

    def session_seq(self, context: CommitContext, partner: str) -> int:
        """This transaction's number on my session with ``partner``,
        allotted the first time I bring the transaction to it."""
        seq = context.session_seq.get(partner)
        if seq is None:
            session = self.sessions[partner]
            session.opened += 1
            seq = context.session_seq[partner] = session.opened
        return seq

    def late_copy(self, message: Message) -> bool:
        """Whether a message that finds no context, and would *start*
        its transaction here (an enrollment, a prepare or a delegation
        to a partner without work), belongs to one this node is already
        done with.  Two memories answer: the session's count of what
        the sender has started here, and the log."""
        seq = message.payload.get("session_seq")
        if seq is not None:
            arrivals = self._arrivals.get(message.src)
            if arrivals is None:
                arrivals = self._arrivals[message.src] = Arrivals()
            if not arrivals.first_sight(seq):
                return True
        return self.log.remembers(message.txn_id)

    def context_live(self, context: CommitContext) -> bool:
        """True unless a crash wiped this context.  Timer callbacks
        created before a crash hold references to pre-crash contexts;
        they must not act.  A context evicted because it is done stays
        live: what was armed for it may still complete."""
        return self.alive and context.incarnation == self.crash_count

    # ------------------------------------------------------------------
    # Sending (with long-locks deferral and piggybacking)
    # ------------------------------------------------------------------
    def send(self, msg_type: MessageType, dst: str, txn_id: str,
             flags: Optional[Dict[str, Any]] = None,
             payload: Optional[Dict[str, Any]] = None,
             phase: Optional[Phase] = None,
             defer: bool = False) -> Optional[Message]:
        """Send (or defer) one protocol message.

        Deferred messages model the long-locks variation: they wait in
        an outbox and ride piggybacked on the next real message to the
        same destination, costing zero flows.  ``flags`` and
        ``payload`` become the message's own (callers pass fresh
        dictionaries).
        """
        if not self.alive:
            return None  # a crashed node sends nothing
        message = Message(msg_type, txn_id, self.name, dst, phase,
                          flags or {}, payload or {})
        if defer:
            self._deferred_outbox.setdefault(dst, []).append(message)
            self.note(txn_id, f"defers {msg_type.value} to {dst} (long locks)")
            return None
        if self._deferred_outbox:
            deferred = self._deferred_outbox.pop(dst, None)
            if deferred:
                message.payload.setdefault("piggyback", []).extend(deferred)
        self.network.send(message)
        return message

    def deferred_messages(self, dst: Optional[str] = None) -> List[Message]:
        if dst is not None:
            return list(self._deferred_outbox.get(dst, []))
        return [m for queue in self._deferred_outbox.values() for m in queue]

    def flush_deferred(self, dst: str) -> int:
        """Send deferred messages as real flows (end-of-chain cleanup)."""
        queue = self._deferred_outbox.pop(dst, [])
        for message in queue:
            self.network.send(message)
        return len(queue)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> None:
        if not self.alive:
            return
        # Any traffic from a partner implies its outstanding last-agent
        # acknowledgments (paper §4: "the next data sent ... serves as
        # an implied acknowledgment").
        if self._implied_ack_waiters:
            self.handle_implied_ack(message.src)
        handlers = self._handlers
        handlers[message.msg_type._value_](message)
        for piggybacked in message.payload.get("piggyback", ()):
            handlers[piggybacked.msg_type._value_](piggybacked)

    # ------------------------------------------------------------------
    # Data phase: enrollment and work tracking
    # ------------------------------------------------------------------
    def begin_transaction(self, spec: TransactionSpec) -> TransactionHandle:
        """Root entry point: enroll the tree, run the work, then commit."""
        if spec.root.node != self.name:
            raise ProtocolError(
                f"{self.name} is not the root of {spec.txn_id}")
        handle = TransactionHandle(spec.txn_id, started_at=self.simulator.now)
        context = self._enroll_local(spec, spec.root, parent=None,
                                     handle=handle)
        if self.config.work_timeout is not None and \
                context.state is TxnState.ACTIVE:
            context.work_timer = self.simulator.timer(
                self.config.work_timeout,
                lambda: self._work_timeout(context),
                name=f"work-timeout:{spec.txn_id}")
        return handle

    def _work_timeout(self, context: CommitContext) -> None:
        """The application gave up waiting for the distributed work."""
        if not self.context_live(context) or \
                context.state is not TxnState.ACTIVE:
            return
        self.note(context.txn_id,
                  f"work timeout; abandoning (children pending: "
                  f"{sorted(context.children_work_pending)})")
        self._decide(context, "abort")

    def _enroll_local(self, spec: TransactionSpec,
                      participant: ParticipantSpec,
                      parent: Optional[str],
                      handle: Optional[TransactionHandle] = None
                      ) -> CommitContext:
        context = self._new_context(spec.txn_id, spec=spec,
                                    participant=participant, parent=parent)
        # Attach the handle before any work runs: trivial transactions
        # can commit synchronously within this call.
        context.handle = handle
        context.veto = participant.veto
        context.long_locks = spec.long_locks and self.config.long_locks
        children = spec.children_of(self.name)
        context.active_children = [c.node for c in children]
        if spec.await_work_done:
            context.children_work_pending = set(context.active_children)
        for child in children:
            if child.node not in self.sessions:
                self.sessions[child.node] = Session(child.node)
            self.send(MessageType.DATA, child.node, spec.txn_id,
                      flags={"enroll": True},
                      payload={"spec": spec, "participant": child,
                               "session_seq":
                                   self.session_seq(context, child.node)})
        if parent is not None and self.config.work_timeout is not None:
            # A participant may abort unilaterally any time before it
            # votes YES; if the coordinator dies before commit begins,
            # this is what frees the locks.
            context.work_timer = self.simulator.timer(
                self.config.work_timeout,
                lambda: self._abandoned_timeout(context),
                name=f"txn-timeout:{spec.txn_id}@{self.name}")
        self._run_local_work(context, participant)
        return context

    def _abandoned_timeout(self, context: CommitContext) -> None:
        """No prepare ever arrived: the transaction was abandoned."""
        if not self.context_live(context) or \
                context.state is not TxnState.ACTIVE:
            return
        self.note(context.txn_id, "no commit processing arrived; "
                                  "aborting unilaterally")
        self._decide(context, "abort")

    def _run_local_work(self, context: CommitContext,
                        participant: ParticipantSpec) -> None:
        pending = []
        if participant.ops:
            pending.append(("default", participant.ops))
        for rm_name, ops in participant.rm_ops.items():
            pending.append((rm_name, ops))
        if participant.veto:
            for rm_name, __ in pending:
                self.resource_manager(rm_name).veto_txns.add(context.txn_id)
            # A participant with a veto but no ops still votes NO at
            # the TM level; context.veto covers that.
        if not pending:
            context.work_done = True
            self._work_complete_check(context)
            return
        remaining = {rm_name for rm_name, __ in pending}

        def one_done(rm_name: str) -> None:
            remaining.discard(rm_name)
            if not remaining:
                context.work_done = True
                self._work_complete_check(context)

        def one_failed(error: Exception) -> None:
            # Deadlock victim: the participant will veto the commit.
            context.veto = True
            self.note(context.txn_id, f"local work failed: {error}")
            remaining.clear()
            context.work_done = True
            self._work_complete_check(context)

        for rm_name, ops in pending:
            rm = self.resource_manager(rm_name)
            rm.perform(context.txn_id, ops,
                       on_done=(lambda n=rm_name: one_done(n)),
                       on_error=one_failed)

    def _work_complete_check(self, context: CommitContext) -> None:
        """Called whenever local work or a child's work completes."""
        if not context.work_done or context.children_work_pending:
            return
        if context.state is not TxnState.ACTIVE:
            return
        participant = context.participant
        if context.parent is None:
            # Root: the application's work is done; issue the commit.
            self.initiate_commit(context)
            return
        if participant is not None and participant.unsolicited_vote \
                and self.config.unsolicited_vote:
            self.send_unsolicited_vote(context)
            return
        if context.spec is not None and context.spec.await_work_done:
            self.send(MessageType.DATA, context.parent, context.txn_id,
                      flags={"work_done": True})
        if context.deferred_prepare:
            context.deferred_prepare = False
            self.start_voting(context)

    def on_data(self, message: Message) -> None:
        flags = message.flags
        if flags.get("enroll"):
            if self.ctx(message.txn_id) is not None or \
                    self.late_copy(message):
                # Duplicate delivery of the enrollment: the first copy
                # already built the context, or the transaction is done
                # here and forgotten.  Re-enrolling would redo the local
                # work (and take locks nothing would release), so it is
                # dropped: no context, no lock, no record, no flow.
                return
            spec: TransactionSpec = message.payload["spec"]
            participant: ParticipantSpec = message.payload["participant"]
            if message.src not in self.sessions:
                self.sessions[message.src] = Session(message.src)
            # Receiving work makes this partner active again: the
            # leave-out promise only covers transactions with no data.
            self._enroll_local(spec, participant, parent=message.src)
            return
        if flags.get("work_done"):
            context = self.ctx(message.txn_id)
            if context is None:
                return
            context.children_work_pending.discard(message.src)
            self._work_complete_check(context)
            return
        # Plain application data: nothing to do beyond the piggyback
        # processing already performed by receive().

    # ------------------------------------------------------------------
    # Logging helper
    # ------------------------------------------------------------------
    def log_tm(self, context: CommitContext, record_type: LogRecordType,
               payload: Optional[Dict[str, Any]] = None, force: bool = False,
               on_durable: Optional[Callable[[], None]] = None) -> None:
        context.logged_anything = True
        self.log.write(context.txn_id, record_type, payload=payload,
                       force=force, on_durable=on_durable)

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose all volatile state: contexts, lock tables, log buffer."""
        self.alive = False
        self.crash_count += 1
        for context in self.contexts.values():
            context.cancel_timers()
        self.contexts.clear()
        self._implied_ack_waiters.clear()
        self._arrivals.clear()
        self._deferred_outbox.clear()
        for log in self.logs():
            log.crash()
        for rm in self.all_rms():
            rm.crash()
        self.note("-", "CRASH")

    def restart(self) -> None:
        """Come back up and run restart recovery from the stable log.

        Recovery wall-time and the replayed-record count feed the
        metrics collector — RTO is a first-class observable (report
        distribution, ``repro_recovery_seconds`` histogram, admin
        ``/status``).  Wall-time is real time even in simulation; only
        the twin-excluded duration metrics see it, so determinism of
        counter comparisons is untouched.
        """
        if self.alive:
            raise ProtocolError(f"{self.name} is not crashed")
        self.alive = True
        self.note("-", "RESTART")
        started = time.perf_counter()
        self.run_restart_recovery()
        self.metrics.record_recovery(RecoveryRecord(
            node=self.name,
            seconds=time.perf_counter() - started,
            records_replayed=self.last_recovery_scan,
            at_time=self.simulator.now,
            crash_count=self.crash_count))

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def note(self, txn_id: str, text: str) -> None:
        for hook in self.on_note:
            hook(self.name, txn_id, text)
