"""Log record types for both transaction managers and resource managers."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional


class LogRecordType(Enum):
    """Every record the protocol variants may write.

    TM records:
        COMMIT_PENDING — Presumed Nothing: forced by the (cascaded)
            coordinator *before* sending any prepare, so that after a
            crash it remembers subordinates exist and drives recovery.
        COLLECTING — Presumed Commit: forced by the coordinator before
            the prepares, recording the participant set.
        INITIATOR — Presumed Nothing subordinates force the recovery /
            session information (who coordinates me) when prepare
            arrives; it is what makes PN's coordinator-driven recovery
            and reliable heuristic reporting possible, and accounts for
            the PN subordinate's extra forced write in Table 2.
        PREPARED — forced by a subordinate before voting YES (and by a
            last-agent coordinator before delegating the decision).
        COMMITTED / ABORTED — the decision record.
        END — the forget record; non-forced in most variants because
            losing it only costs redundant recovery work.
        HEURISTIC_COMMIT / HEURISTIC_ABORT — forced when an in-doubt
            participant unilaterally decides; must survive so damage
            can be reported.

    LRM records:
        LRM_UPDATE — a data undo/redo record (the WAL proper).
        LRM_PREPARED / LRM_COMMITTED / LRM_ABORTED — the local resource
            manager's own 2PC records; non-forced under the shared-log
            optimization because the TM's forces cover them.
    """

    COMMIT_PENDING = "commit-pending"
    COLLECTING = "collecting"
    INITIATOR = "initiator"
    CHECKPOINT = "checkpoint"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"
    END = "end"
    HEURISTIC_COMMIT = "heuristic-commit"
    HEURISTIC_ABORT = "heuristic-abort"

    LRM_UPDATE = "lrm-update"
    LRM_PREPARED = "lrm-prepared"
    LRM_COMMITTED = "lrm-committed"
    LRM_ABORTED = "lrm-aborted"
    LRM_END = "lrm-end"

    def __init__(self, value: str) -> None:
        #: A transaction manager's record (not a resource manager's).
        self.is_tm_record = not value.startswith("lrm-")


#: TM record types that matter for counting against the paper's tables.
PROTOCOL_RECORD_TYPES = frozenset(
    t for t in LogRecordType if t.is_tm_record)


@dataclass(slots=True)
class LogRecord:
    """One appended log record.

    ``forced`` records the caller's intent; durability is a property of
    the log manager's flush state, not of the record itself.
    """

    lsn: int
    txn_id: str
    record_type: LogRecordType
    node: str
    forced: bool
    written_at: float
    payload: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Optional[Any] = None) -> Any:
        return self.payload.get(key, default)

    def describe(self) -> str:
        force_tag = "*" if self.forced else ""
        return (f"{force_tag}log {self.record_type.value}"
                f"({self.txn_id}) @{self.node}")
