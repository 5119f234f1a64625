"""Workload generation.

The paper's evaluation is parameterised by workload shape: tree size
``n``, optimized-member count ``m``, chained-transaction count ``r``,
read-only fractions, and link heterogeneity (the satellite partner of
the last-agent discussion).  This package generates transaction specs
with those shapes, plus the named commercial profiles the paper's
introduction motivates.
"""

from repro.workload.trees import (
    balanced_tree_spec,
    chain_spec,
    flat_spec,
)
from repro.workload.generator import WorkloadGenerator, WorkloadParams
from repro.workload.chains import chained_transaction_specs
from repro.workload.profiles import (
    PROFILES,
    WorkloadProfile,
    banking_reconciliation,
    read_mostly_reporting,
    travel_booking,
)

__all__ = [
    "PROFILES",
    "WorkloadGenerator",
    "WorkloadParams",
    "WorkloadProfile",
    "balanced_tree_spec",
    "banking_reconciliation",
    "chain_spec",
    "chained_transaction_specs",
    "flat_spec",
    "read_mostly_reporting",
    "travel_booking",
]
