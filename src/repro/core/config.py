"""Protocol configuration: presumption + the optimization toggles.

A :class:`ProtocolConfig` fully determines the logging and flow
behaviour of a run; the benchmark harness builds one config per table
row.  The presets at the bottom match the paper's three protocol
families plus the Presumed Commit extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Optional

from repro.errors import ConfigurationError
from repro.log.group_commit import GroupCommitPolicy, IMMEDIATE
from repro.log.records import LogRecordType


class Presumption(Enum):
    """What a coordinator with no log information presumes on inquiry.

    BASIC — the baseline 2PC of Section 2: commit-case logging like PA,
        abort case with forced subordinate abort records and acks.
    ABORT — Presumed Abort (R* lineage): missing information means the
        transaction aborted; abort case writes/acks nothing.
    NOTHING — Presumed Nothing (LU 6.2 lineage): the coordinator forces
        a commit-pending record before the first prepare, drives
        recovery itself, and collects heuristic reports reliably.
    COMMIT — Presumed Commit (extension; Mohan & Lindsay's companion):
        the coordinator forces a collecting record; missing information
        means committed; commit case needs no acks.
    """

    BASIC = "basic"
    ABORT = "presumed-abort"
    NOTHING = "presumed-nothing"
    COMMIT = "presumed-commit"


class HeuristicChoice(Enum):
    """What an in-doubt participant does when its heuristic timer fires."""

    COMMIT = "commit"
    ABORT = "abort"


@dataclass(frozen=True)
class ProtocolConfig:
    """Complete behavioural configuration for every TM in a cluster.

    Optimization toggles (paper §4):

    Attributes:
        read_only: Participants with no updates vote read-only and are
            excluded from phase two.
        leave_out: Session partners that exchanged no data this
            transaction and offered OK-TO-LEAVE-OUT previously are
            excluded from the protocol entirely.
        last_agent: A child designated in the transaction spec receives
            the coordinator's own YES vote and makes the decision.
        unsolicited_vote: Participants flagged in the spec prepare
            themselves when their work completes and vote without
            being asked.
        vote_reliable: YES votes carry a reliability indicator; a
            parent requires no commit acknowledgment from a reliable
            subtree (and loses its heuristic reports — the documented
            tradeoff).
        shared_log: Detached resource managers write their protocol
            records non-forced into the TM's log, riding its forces.
        long_locks: Subordinates buffer the commit acknowledgment and
            piggyback it on the first message of the next transaction.
        early_ack: Intermediates acknowledge a commit as soon as they
            have logged it, before collecting their own subtree's acks.
        wait_for_outcome: On failure during phase two, make one
            recovery attempt, then let the commit operation complete
            with an "outcome pending" indication while recovery
            continues in the background.
        group_commit: Batching policy for forced log writes.

    Reliability / failure handling:

    Attributes:
        heuristic_timeout: How long an in-doubt participant waits for
            the outcome before deciding unilaterally.  None disables
            heuristic decisions (participants block).
        heuristic_choice: Whether the unilateral decision is commit or
            abort.
        propagate_heuristic_reports: PN reports damage to the root of
            the commit tree; R*/PA only to the immediate coordinator.
            None derives the paper's default from the presumption.
        ack_timeout: How long a coordinator waits for acknowledgments
            before starting recovery attempts.  None means wait
            forever (pure blocking).
        vote_timeout: How long a coordinator waits for votes before
            unilaterally aborting.  None means wait forever.
        retry_interval: Pacing of recovery retries.
        io_latency: Simulated duration of one physical log I/O.
    """

    presumption: Presumption = Presumption.ABORT
    read_only: bool = True
    leave_out: bool = False
    last_agent: bool = False
    unsolicited_vote: bool = False
    vote_reliable: bool = False
    shared_log: bool = False
    long_locks: bool = False
    early_ack: bool = False
    wait_for_outcome: bool = False
    group_commit: GroupCommitPolicy = IMMEDIATE

    heuristic_timeout: Optional[float] = None
    heuristic_choice: HeuristicChoice = HeuristicChoice.COMMIT
    propagate_heuristic_reports: Optional[bool] = None
    ack_timeout: Optional[float] = None
    vote_timeout: Optional[float] = None
    #: How long a live in-doubt subordinate waits for the outcome before
    #: inquiring its coordinator (PA/PC/basic; PN waits for the
    #: coordinator to drive recovery).  None = wait forever.
    inquiry_timeout: Optional[float] = None
    #: How long the root application waits for the distributed work
    #: (enrollment and work-done reports) before abandoning the
    #: transaction.  Data conversations are the session layer's
    #: responsibility, not the commit protocol's; this is the
    #: application-level backstop.  None = wait forever.
    work_timeout: Optional[float] = None
    retry_interval: float = 50.0
    io_latency: float = 0.1

    def __post_init__(self) -> None:
        for name in ("heuristic_timeout", "ack_timeout", "vote_timeout",
                     "inquiry_timeout", "work_timeout"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if self.retry_interval <= 0:
            raise ConfigurationError(
                f"retry_interval must be positive, got {self.retry_interval}")
        if self.io_latency < 0:
            raise ConfigurationError(
                f"io_latency must be >= 0, got {self.io_latency}")
        if self.early_ack and self.presumption is Presumption.NOTHING:
            # PN's whole point is reliable reporting via late acks; the
            # vote-reliable optimization is the sanctioned way to relax it.
            raise ConfigurationError(
                "Presumed Nothing requires late acknowledgment; "
                "use vote_reliable to relax it per resource")

    # ------------------------------------------------------------------
    # Derived behaviour
    # ------------------------------------------------------------------
    @property
    def coordinator_logs_before_prepare(self) -> bool:
        """PN forces commit-pending, PC forces collecting, before prepares."""
        return self.presumption in (Presumption.NOTHING, Presumption.COMMIT)

    @property
    def initiation_record(self) -> LogRecordType:
        """What PN (commit-pending) or PC (collecting) forces first."""
        return (LogRecordType.COMMIT_PENDING
                if self.presumption is Presumption.NOTHING
                else LogRecordType.COLLECTING)

    @property
    def presumed_abort(self) -> bool:
        """No information means abort: aborts are not logged, forced,
        acknowledged or ended."""
        return self.presumption is Presumption.ABORT

    @property
    def presumed_commit(self) -> bool:
        """No information means commit: a subordinate's commit is ended
        by nobody, and an unknown transaction is answered commit."""
        return self.presumption is Presumption.COMMIT

    @property
    def abort_needs_acks(self) -> bool:
        """PA never acknowledges aborts; everyone else does."""
        return self.presumption is not Presumption.ABORT

    @property
    def commit_needs_acks(self) -> bool:
        """PC subordinates never acknowledge commits; everyone else does."""
        return self.presumption is not Presumption.COMMIT

    @property
    def subordinate_commit_forced(self) -> bool:
        """PC subordinates may lose the commit record (presumption covers
        it); every other variant forces it."""
        return self.presumption is not Presumption.COMMIT

    @property
    def subordinate_abort_forced(self) -> bool:
        """PA subordinates write no abort record at all; basic/PN/PC
        force it before acknowledging."""
        return self.presumption is not Presumption.ABORT

    @property
    def subordinate_logs_initiator_record(self) -> bool:
        """PN subordinates force recovery/session information alongside
        the prepared record (Table 2 counts 4 writes / 3 forced for the
        PN subordinate)."""
        return self.presumption is Presumption.NOTHING

    @property
    def coordinator_driven_recovery(self) -> bool:
        """PN: the coordinator initiates recovery; subordinates wait.
        PA/PC/basic: in-doubt subordinates inquire."""
        return self.presumption is Presumption.NOTHING

    @property
    def reports_to_root(self) -> bool:
        if self.propagate_heuristic_reports is not None:
            return self.propagate_heuristic_reports
        return self.presumption is Presumption.NOTHING

    def with_options(self, **changes) -> "ProtocolConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def live_timing(self) -> "ProtocolConfig":
        """This configuration in real time: every :data:`LIVE_TIMING`
        field still at its stock default (a duration in simulated time
        units) takes its value in seconds; fields set by the caller are
        kept.  :class:`~repro.transport.live.LiveCluster` applies it.
        """
        stock = {f.name: f.default for f in fields(self)}
        return replace(self, **{
            name: value for name, value in LIVE_TIMING.items()
            if getattr(self, name) == stock[name]})


#: The live timing profile, in seconds: the durations whose stock
#: values are simulated time units.  A log I/O completes on the next
#: loop turn (the real cost is the fsync itself; 0.1 s would be slept
#: for real on every force), and recovery retries are paced for a
#: localhost cluster.  The timeouts stay as configured: their stock
#: value is "wait forever", and arming them costs a live server timers
#: that hold each finished transaction until they fire.
LIVE_TIMING = dict(io_latency=0.0, retry_interval=0.15)


#: The Section 2 baseline: no optimizations at all (not even read-only).
BASIC_2PC = ProtocolConfig(presumption=Presumption.BASIC, read_only=False)

#: Presumed Abort as shipped in R*/Tandem/DEC/Encina/TUXEDO: includes the
#: read-only and leave-out optimizations per the paper's §3.
PRESUMED_ABORT = ProtocolConfig(presumption=Presumption.ABORT,
                                read_only=True, leave_out=True)

#: Presumed Nothing as in LU 6.2: late acks, reliable damage reporting;
#: last-agent / long-locks / read-only / wait-for-outcome are available
#: but off by default (they are per-application choices).
PRESUMED_NOTHING = ProtocolConfig(presumption=Presumption.NOTHING,
                                  read_only=True)

#: Presumed Commit (extension beyond the paper's main text).
PRESUMED_COMMIT = ProtocolConfig(presumption=Presumption.COMMIT,
                                 read_only=True)
