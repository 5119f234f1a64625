"""Exception hierarchy shared across the library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every library-specific error."""


class ProtocolError(ReproError):
    """A commit-protocol rule was violated (e.g. two independent
    coordinators initiated commit for the same transaction)."""


class ConfigurationError(ReproError):
    """An invalid protocol or cluster configuration was supplied."""


class DeadlockError(ReproError):
    """The lock manager detected a waits-for cycle; the requester is
    chosen as the victim and must abort."""

    def __init__(self, txn_id: str, cycle: list) -> None:
        super().__init__(f"deadlock: txn {txn_id} in cycle {' -> '.join(cycle)}")
        self.txn_id = txn_id
        self.cycle = cycle


class LockError(ReproError):
    """Lock-manager misuse (releasing a lock that is not held, etc.)."""
