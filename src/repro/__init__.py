"""repro — a reproduction of *Two-Phase Commit Optimizations and
Tradeoffs in the Commercial Environment* (Samaras, Britton, Citron,
Mohan — ICDE 1993).

The package provides a deterministic discrete-event simulator of a
distributed transaction processing system (transaction managers,
resource managers with two-phase locking, write-ahead logs with
forced/non-forced semantics, a latency-modelled network, crashes,
partitions and heuristic decisions) together with an analytic cost
model, and uses the two to regenerate every table and figure of the
paper's evaluation.

Quickstart::

    from repro import Cluster, PRESUMED_ABORT, flat_tree, write_op

    cluster = Cluster(PRESUMED_ABORT, nodes=["coord", "sub1", "sub2"])
    spec = flat_tree("coord", ["sub1", "sub2"])
    spec.participant("sub1").ops.append(write_op("balance", 100))
    handle = cluster.run_transaction(spec)
    assert handle.committed
    print(cluster.metrics.cost_summary(spec.txn_id))
"""

from repro.api import Application, TransactionBuilder
from repro.core.cluster import Cluster
from repro.ops import OperatorConsole
from repro.verify import ProtocolChecker
from repro.core.config import (
    BASIC_2PC,
    PRESUMED_ABORT,
    PRESUMED_COMMIT,
    PRESUMED_NOTHING,
    HeuristicChoice,
    Presumption,
    ProtocolConfig,
)
from repro.core.handle import HeuristicReport, TransactionHandle
from repro.core.node import TMNode
from repro.core.spec import (
    ParticipantSpec,
    TransactionSpec,
    chain_tree,
    flat_tree,
)
from repro.core.states import Role, TxnState
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    ProtocolError,
    ReproError,
)
from repro.log.group_commit import GroupCommitPolicy
from repro.lrm.operations import Operation, read_op, write_op
from repro.metrics.collector import CostSummary, MetricsCollector
from repro.net.latency import (
    ConstantLatency,
    PerLinkLatency,
    SatelliteLink,
    UniformLatency,
)

__version__ = "1.0.0"

__all__ = [
    "Application",
    "BASIC_2PC",
    "Cluster",
    "TransactionBuilder",
    "ConfigurationError",
    "ConstantLatency",
    "CostSummary",
    "DeadlockError",
    "GroupCommitPolicy",
    "HeuristicChoice",
    "HeuristicReport",
    "MetricsCollector",
    "Operation",
    "OperatorConsole",
    "ParticipantSpec",
    "ProtocolChecker",
    "PerLinkLatency",
    "PRESUMED_ABORT",
    "PRESUMED_COMMIT",
    "PRESUMED_NOTHING",
    "Presumption",
    "ProtocolConfig",
    "ProtocolError",
    "ReproError",
    "Role",
    "SatelliteLink",
    "TMNode",
    "TransactionHandle",
    "TransactionSpec",
    "TxnState",
    "UniformLatency",
    "chain_tree",
    "flat_tree",
    "read_op",
    "write_op",
    "__version__",
]
