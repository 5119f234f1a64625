"""Fault injection.

Declarative failure schedules (crashes, restarts, partitions, message
loss) applied to a cluster — the machinery behind the failure-case
experiments: heuristic-damage studies, wait-for-outcome ablations and
the recovery test matrix.  :mod:`repro.faults.campaign` is the one
simulator fault campaign the torture, chaos and fuzz harnesses share.
"""

from repro.faults.injector import (
    CrashPlan,
    CrashSite,
    FaultPlan,
    FaultInjector,
    MessageLossPlan,
    PartitionPlan,
)

__all__ = [
    "CrashPlan",
    "CrashSite",
    "FaultInjector",
    "FaultPlan",
    "MessageLossPlan",
    "PartitionPlan",
]
