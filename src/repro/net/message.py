"""Typed messages exchanged by transaction managers.

Message types map one-to-one onto the arrows in the paper's Figures 1-8.
The flags carried on YES votes (read-only is its own vote type) encode
the optimizations: ``reliable`` (Vote Reliable), ``ok_to_leave_out``
(Leaving Inactive Partners Out), ``unsolicited`` (Unsolicited Vote) and
``last_agent_delegation`` (the coordinator's own YES vote handing the
commit decision to the last agent).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional


class Phase(Enum):
    """Which bucket a flow is counted under (the tables count COMMIT flows)."""

    DATA = "data"
    COMMIT = "commit"
    RECOVERY = "recovery"


class MessageType(Enum):
    """Every arrow that appears in the paper's sequence charts."""

    # Data phase — application traffic; may piggyback commit-protocol state.
    DATA = "data"

    # Voting phase.
    PREPARE = "prepare"
    VOTE_YES = "vote-yes"
    VOTE_NO = "vote-no"
    VOTE_READ_ONLY = "vote-read-only"

    # Decision phase.
    COMMIT = "commit"
    ABORT = "abort"
    ACK = "ack"

    # Recovery protocol.
    INQUIRE = "inquire"            # in-doubt subordinate asks its coordinator
    OUTCOME = "outcome"            # coordinator-driven resolution / reply
    RECOVERY_ACK = "recovery-ack"  # closes a coordinator-driven recovery

    def __init__(self, value: str) -> None:
        #: The bucket a flow of this type is counted under unless the
        #: sender names one.
        self.default_phase = (
            Phase.DATA if value == "data"
            else Phase.RECOVERY if value in ("inquire", "outcome",
                                             "recovery-ack")
            else Phase.COMMIT)


_MSG_SEQ = itertools.count(1)


@dataclass(slots=True)
class Message:
    """A single network flow.

    Attributes:
        msg_type: The protocol arrow this message represents.
        txn_id: Transaction the message belongs to.
        src / dst: Node names.
        phase: Counting bucket; defaults from the message type.
        flags: Optimization flags (``reliable``, ``ok_to_leave_out``,
            ``unsolicited``, ``last_agent_delegation``, ``read_only``,
            ``long_locks``, ``outcome_pending``, ``piggyback_ack`` ...).
        payload: Free-form extra data (heuristic reports, vote sets).
    """

    msg_type: MessageType
    txn_id: str
    src: str
    dst: str
    phase: Optional[Phase] = None
    flags: Dict[str, Any] = field(default_factory=dict)
    payload: Dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=_MSG_SEQ.__next__)

    def __post_init__(self) -> None:
        if self.phase is None:
            self.phase = self.msg_type.default_phase

    def flag(self, name: str, default: Any = False) -> Any:
        return self.flags.get(name, default)

    def describe(self) -> str:
        """One-line rendering used in traces and sequence diagrams."""
        extras = ",".join(sorted(k for k, v in self.flags.items() if v))
        suffix = f" [{extras}]" if extras else ""
        return (f"{self.src} -> {self.dst}: {self.msg_type.value}"
                f"({self.txn_id}){suffix}")
