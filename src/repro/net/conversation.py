"""LU 6.2 conversation-state tracking.

The paper's transport is half-duplex conversations: at any moment one
partner of a session is in SEND state and the other in RECEIVE, and
the right to send passes explicitly ("You be in send state", Figure 7).
The long-locks variation is legal *"only if the coordinator will be in
RECEIVE state at the end of the commit operation, waiting for the
subordinate to begin the next transaction"*.

This module is an observer: it reconstructs per-session conversation
state from the message stream, counts turnarounds (the direction
changes that cost a real half-duplex link a line turnaround), and
checks the long-locks precondition — after a long-locks commit, the
next message on the session must come from the subordinate side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.cluster import Cluster
from repro.hooks import Observer
from repro.net.message import Message, MessageType


def _session_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass
class SessionState:
    """Reconstructed half-duplex state of one session."""

    partners: Tuple[str, str]
    #: Which partner currently holds the send right (last sender).
    sender: Optional[str] = None
    turnarounds: int = 0
    messages: int = 0
    #: Set when a long-locks commit ended with the coordinator obliged
    #: to be in RECEIVE state: the named partner must speak next.
    expected_next_sender: Optional[str] = None

    @property
    def receiver(self) -> Optional[str]:
        if self.sender is None:
            return None
        a, b = self.partners
        return b if self.sender == a else a


@dataclass
class ConversationViolation:
    session: Tuple[str, str]
    detail: str

    def __str__(self) -> str:
        return f"{self.session[0]}-{self.session[1]}: {self.detail}"


class ConversationTracker(Observer):
    """Observes a cluster's traffic and reconstructs session states.

    The tracker watches *sends*, not deliveries, so a chaos adversary
    that duplicates or reorders deliveries does not perturb the
    session-state reconstruction — only what the sender actually put
    on the wire counts.
    """

    def __init__(self) -> None:
        self.sessions: Dict[Tuple[str, str], SessionState] = {}
        self.violations: List[ConversationViolation] = []

    def _install(self, cluster: Cluster) -> None:
        self.hook(cluster.network.on_send, self.observe)

    def session(self, a: str, b: str) -> SessionState:
        key = _session_key(a, b)
        if key not in self.sessions:
            self.sessions[key] = SessionState(partners=key)
        return self.sessions[key]

    # ------------------------------------------------------------------
    def observe(self, message: Message) -> None:
        state = self.session(message.src, message.dst)
        state.messages += 1
        if state.expected_next_sender is not None:
            if message.src != state.expected_next_sender:
                self.violations.append(ConversationViolation(
                    session=state.partners,
                    detail=(f"long locks required {state.expected_next_sender} "
                            f"to begin the next transaction, but "
                            f"{message.src} sent "
                            f"{message.msg_type.value} first")))
            state.expected_next_sender = None
        if state.sender is not None and state.sender != message.src:
            state.turnarounds += 1
        state.sender = message.src

        # A long-locks commit obliges the coordinator to go to RECEIVE:
        # the subordinate speaks next (its first message carries the
        # deferred ack).
        if message.msg_type is MessageType.COMMIT and \
                message.flag("long_locks_pending"):
            state.expected_next_sender = message.dst

    # ------------------------------------------------------------------
    def total_turnarounds(self) -> int:
        return sum(s.turnarounds for s in self.sessions.values())

    def assert_clean(self) -> None:
        if self.violations:
            rendered = "\n".join(str(v) for v in self.violations)
            raise AssertionError(
                f"{len(self.violations)} conversation violations:\n"
                f"{rendered}")
