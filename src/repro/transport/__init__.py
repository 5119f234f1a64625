"""Real-transport deployment of the ``repro.core`` protocol stack.

The simulated and live systems share every protocol object; this
package provides the live substitutes for the three simulation
primitives — time (:class:`~repro.transport.clock.LiveClock`), the
wire (:class:`~repro.transport.tcp.TcpTransport` under
:class:`~repro.transport.live.LiveNetwork`), and stable storage
(:class:`~repro.transport.storage.FileStableStorage`) — plus the twin
oracle (:mod:`repro.transport.twin`) that proves a live run causally
equivalent to its deterministic replay, and the crash-survival layer:
supervised links with reconnect backoff (:mod:`repro.transport.tcp`),
WAL-driven node restart (:mod:`repro.transport.restart`) and live
torture (:mod:`repro.transport.torture`, imported on its own since it
brings the fault campaign along): the simulator's crash-site campaign
run on this substrate, with :class:`~repro.torture.sites.ArmedCrash`
calling ``LiveCluster.crash``/``restart``.  See ``docs/DEPLOYMENT.md``.
"""

from repro.transport.admin import AdminServer
from repro.transport.clock import ActivityTracker, LiveClock, ScheduledCall
from repro.transport.live import (LiveCluster, LiveNetwork, ServeControl,
                                  serve)
from repro.transport.restart import RestartInfo, restart_node
from repro.transport.storage import (FileStableStorage, WalCorruptionError,
                                     load_records, scan_wal)
from repro.transport.tcp import BackoffPolicy, TcpTransport
from repro.transport.twin import (DEFAULT_NODES, TWIN_PROTOCOLS,
                                  ScheduledNetwork, TwinReport,
                                  classify_socket_error, delivery_schedule,
                                  loopback_status,
                                  run_twin_check, run_twin_matrix,
                                  twin_specs)

__all__ = [
    "ActivityTracker",
    "AdminServer",
    "LiveClock",
    "ScheduledCall",
    "LiveCluster",
    "LiveNetwork",
    "ServeControl",
    "serve",
    "RestartInfo",
    "restart_node",
    "FileStableStorage",
    "WalCorruptionError",
    "load_records",
    "scan_wal",
    "BackoffPolicy",
    "TcpTransport",
    "DEFAULT_NODES",
    "TWIN_PROTOCOLS",
    "ScheduledNetwork",
    "TwinReport",
    "classify_socket_error",
    "delivery_schedule",
    "loopback_status",
    "run_twin_check",
    "run_twin_matrix",
    "twin_specs",
]
