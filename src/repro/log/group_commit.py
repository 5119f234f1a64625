"""Group commit configuration.

The paper (§4, "Group Commits"; originally IMS Fast Path): the log
manager delays a force until either ``group_size`` force requests have
accumulated or ``timeout`` expires, so one physical I/O satisfies many
forces — trading individual lock hold time for system throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class GroupCommitPolicy:
    """Batching policy for forced log writes.

    Attributes:
        group_size: Number of force requests that triggers an immediate
            physical I/O.  1 disables batching.
        timeout: Maximum virtual time a force request may wait before
            the batch is written anyway.  ``None`` means wait for a
            full group (only safe when the workload guarantees one).
    """

    group_size: int = 1
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if self.timeout is not None and self.timeout < 0:
            raise ValueError(f"timeout must be >= 0, got {self.timeout}")


IMMEDIATE = GroupCommitPolicy(group_size=1, timeout=None)
