"""Protocol state machine vocabulary."""

from __future__ import annotations

from enum import Enum


class Role(Enum):
    """How a node relates to one transaction's commit tree."""

    ROOT = "root"                  # the commit coordinator
    CASCADED = "cascaded"          # subordinate with its own subordinates
    SUBORDINATE = "subordinate"    # leaf subordinate
    LAST_AGENT = "last-agent"      # subordinate delegated the decision


class TxnState(Enum):
    """Per-node transaction state.

    The in-doubt window — the interval in which a participant can
    neither commit nor abort unilaterally, and from which heuristic
    decisions escape — is exactly the PREPARED state.
    """

    ACTIVE = "active"                 # doing work, 2PC not begun
    PREPARING = "preparing"           # phase one in progress below me
    PREPARED = "prepared"             # voted YES; in doubt
    COMMITTING = "committing"         # decision known; propagating commit
    ABORTING = "aborting"             # decision known; propagating abort
    COMMITTED = "committed"           # locally done; may still hold acks
    ABORTED = "aborted"
    FORGOTTEN = "forgotten"           # END written; no memory required
    HEURISTIC_COMMITTED = "heuristic-committed"
    HEURISTIC_ABORTED = "heuristic-aborted"
    READ_ONLY_DONE = "read-only-done"  # voted read-only; out of phase two

    @property
    def terminal(self) -> bool:
        return self in (TxnState.FORGOTTEN, TxnState.READ_ONLY_DONE)

    @property
    def in_doubt(self) -> bool:
        return self is TxnState.PREPARED
