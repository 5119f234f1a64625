"""Booting a killed live node from its on-disk WAL.

This is the live counterpart of the simulator's ``node.restart()``
call — except that where the sim's stable storage is an in-memory
object that trivially survives the crash, a live restart has to
rebuild it from the JSONL WAL on disk (dropping a torn final line if
the crash interrupted an append), carry the fsync accounting across
incarnations so the twin/torture gates can keep asserting
``fsyncs == physical log I/Os``, re-bind the node's server socket,
and re-open its outgoing links.  Everything protocol-level — record
classification, redo/undo, checkpoint-based recovery, in-doubt
inquiry — is the unchanged :mod:`repro.core.recovery` code.

The division of labour with :class:`~repro.transport.live.LiveCluster`:
the cluster owns the *kill* half (``LiveCluster.crash`` wipes the node
synchronously inside the event being interrupted, then reconciles the
activity tracker it owns) and sequences both halves per node
(``LiveCluster.restart`` runs :func:`restart_node` once the kill is
done); this module owns the *boot* half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.transport.storage import FileStableStorage

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.live import LiveCluster


@dataclass
class RestartInfo:
    """What one WAL-driven restart cost and recovered."""

    node: str
    seconds: float
    records_replayed: int
    torn_tail: Optional[str] = None


async def restart_node(cluster: "LiveCluster", name: str) -> RestartInfo:
    """Boot a killed node from its existing WAL directory.

    Steps, in order:

    1. reconcile any frames written into the dead node's sockets since
       the kill (they are lost; the activity tracker must not wait for
       them);
    2. recover the WAL file into a fresh
       :class:`~repro.transport.storage.FileStableStorage` —
       torn-tail aware, carrying the previous incarnation's fsync
       count so physical-I/O accounting spans the crash;
    3. re-listen on the node's old address and reconnect its outgoing
       links (surviving peers' supervised links heal themselves via
       backoff, draining frames they queued during the outage);
    4. run ``TMNode.restart()`` — the unchanged restart recovery,
       including checkpoint-based recovery and in-doubt resumption.
    """
    node = cluster.nodes[name]
    if node.alive:
        raise ConfigurationError(f"{name} is not killed")
    for _ in range(cluster.transport.reconcile_lost(name)):
        cluster.activity.dec()
    torn = None
    if cluster.log_dir is not None:
        fresh = FileStableStorage(cluster.wal_path(name), recover=True)
        retired = cluster._retired_storage.pop(name, None)
        if retired is not None:
            fresh.fsync_count = retired.fsync_count
        torn = fresh.torn_tail
        if torn is not None:
            cluster.metrics.record_recovery_anomaly(
                name, "wal-torn-tail", torn)
            node.note("-", f"WAL-TORN-TAIL {torn}")
        node.log.stable = fresh
    await cluster.transport.reopen_node(name)
    node.restart()
    recovery = cluster.metrics.recoveries[-1]
    return RestartInfo(node=name, seconds=recovery.seconds,
                       records_replayed=recovery.records_replayed,
                       torn_tail=torn)
