"""The live deployment: the simulated protocol stack on real sockets.

:class:`LiveCluster` assembles exactly the objects the simulated
:class:`repro.core.cluster.Cluster` does — ``TMNode``, ``LogManager``,
``Network``, ``MetricsCollector`` — but wires them to a
:class:`~repro.transport.clock.LiveClock` (asyncio time), a
:class:`~repro.transport.tcp.TcpTransport` (localhost TCP frames) and
:class:`~repro.transport.storage.FileStableStorage` (real fsync per
physical log I/O).  The protocol code is untouched: the twin gate's
whole point is that the very same ``repro.core`` state machines run in
both worlds and produce causally equivalent journals.

Observers (``JournalRecorder``, ``ProtocolChecker``, ``CostLedger``)
attach unchanged because ``LiveCluster`` exposes the same surface:
``simulator`` / ``network`` / ``nodes`` / ``metrics`` /
``recorded_outcome``.
"""

from __future__ import annotations

import asyncio
import os
import signal
from typing import Callable, Dict, Iterable, Optional, Sequence

from repro.core.config import PRESUMED_ABORT, ProtocolConfig
from repro.core.handle import TransactionHandle
from repro.core.node import TMNode
from repro.core.spec import TransactionSpec
from repro.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector, TransactionRecord
from repro.net.message import Message
from repro.net.network import Network
from repro.transport.clock import ActivityTracker, LiveClock
from repro.transport.storage import FileStableStorage
from repro.transport.tcp import TcpTransport
from repro.transport.wire import encode_frame, message_from_wire, \
    message_to_wire, spec_from_wire


class LiveNetwork(Network):
    """``Network`` whose wire is a real TCP link per directed pair.

    Everything up to the transport seam (flow accounting, drop filters,
    partitions, send hooks) is inherited; ``_transmit`` writes a frame
    and ``handle_wire_message`` feeds received frames back through the
    inherited ``_deliver`` path (partition re-check, deliver hooks,
    handler dispatch).
    """

    def __init__(self, simulator: LiveClock, metrics: MetricsCollector,
                 transport: TcpTransport,
                 activity: ActivityTracker) -> None:
        super().__init__(simulator, metrics)
        self.transport = transport
        self._activity = activity

    def _transmit(self, message: Message, delay: float) -> None:
        # ``delay`` is the simulated latency model's opinion; the real
        # wire has its own. Tracked so quiescence waits for delivery.
        self._activity.inc()
        self.transport.send(message.src, message.dst,
                            message_to_wire(message))

    def handle_wire_message(self, data: list) -> None:
        message = message_from_wire(data)

        def process() -> None:
            try:
                self._deliver(message)
            finally:
                self._activity.dec()

        # Defer through the clock rather than delivering inline: the
        # simulator runs time-0 work before any delivery, and the twin
        # diff holds the live run to the same discipline.  The clock
        # puts zero-delay work on the loop's FIFO ready queue, so this
        # delivery runs after all work armed before the frame was read,
        # and frames keep their per-link order.
        self.simulator.call_soon(process, name="deliver")


class LiveCluster:
    """A live (asyncio TCP) distributed transaction processing system.

    Construct inside a running event loop; call :meth:`start` before
    beginning transactions and :meth:`stop` when done.
    """

    def __init__(self, config: Optional[ProtocolConfig] = None,
                 nodes: Sequence[str] = (), seed: int = 0,
                 host: str = "127.0.0.1", base_port: int = 0,
                 log_dir: Optional[str] = None) -> None:
        self.config = (config or PRESUMED_ABORT).live_timing()
        self.host = host
        self.base_port = base_port
        self.log_dir = log_dir
        #: Flipped off during a graceful drain: ``begin`` control
        #: frames are refused while in-flight work runs to completion.
        self.accepting = True
        #: Filled by ``serve`` when an admin plane is bound.
        self.admin_address: Optional[tuple] = None
        self.activity = ActivityTracker()
        self.simulator = LiveClock(seed=seed, activity=self.activity)
        self.metrics = MetricsCollector()
        self.transport = TcpTransport()
        self.transport.on_frame = self._on_frame
        self.network = LiveNetwork(self.simulator, self.metrics,
                                   self.transport, self.activity)
        self.nodes: Dict[str, TMNode] = {}
        #: Closed FileStableStorage handles of killed incarnations,
        #: kept so fsync accounting carries across restarts.
        self._retired_storage: Dict[str, FileStableStorage] = {}
        #: The latest kill teardown or restart task per node.
        self._fault_tasks: Dict[str, "asyncio.Task"] = {}
        for name in nodes:
            self.add_node(name)

    # ------------------------------------------------------------------
    # Topology / lifecycle
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> TMNode:
        if name in self.nodes:
            raise ConfigurationError(f"duplicate node {name!r}")
        node = TMNode(name, self.simulator, self.network, self.metrics,
                      self.config)
        if self.log_dir is not None:
            os.makedirs(self.log_dir, exist_ok=True)
            node.log.stable = FileStableStorage(
                os.path.join(self.log_dir, f"{name}.wal"))
        self.nodes[name] = node
        return node

    async def start(self) -> Dict[str, tuple]:
        """Bind every node's server and pre-connect the link mesh."""
        for index, name in enumerate(self.nodes):
            port = 0 if self.base_port == 0 else self.base_port + index
            await self.transport.listen(name, self.host, port)
        await self.transport.connect_mesh(list(self.nodes))
        return {name: self.transport.address(name) for name in self.nodes}

    async def stop(self) -> None:
        await self.wait_faults()
        # A cancelled serve (or abrupt test teardown) can reach here
        # with a log force still in flight; let tracked work land so
        # its write doesn't hit a closed WAL handle.
        try:
            await asyncio.wait_for(self.activity.wait_idle(), timeout=2.0)
        except asyncio.TimeoutError:
            pass
        await self.transport.close()
        for node in self.nodes.values():
            stable = node.log.stable
            if isinstance(stable, FileStableStorage):
                stable.close()
        for stable in self._retired_storage.values():
            stable.close()

    # ------------------------------------------------------------------
    # Crash / restart: the substrate pair torture.sites.ArmedCrash drives
    # (the simulated Cluster provides the same two calls)
    # ------------------------------------------------------------------
    def wal_path(self, name: str) -> str:
        if self.log_dir is None:
            raise ConfigurationError("cluster has no log_dir (no WAL)")
        return os.path.join(self.log_dir, f"{name}.wal")

    def crash(self, name: str) -> "asyncio.Task":
        """Kill a node.  Its volatile protocol state is wiped and its
        WAL handle retired *now*, so a crash-site hook may call this
        from inside the very event it interrupts; closing its sockets
        follows as the returned task."""
        node = self.nodes[name]
        node.crash()
        stable = node.log.stable
        if isinstance(stable, FileStableStorage):
            stable.close()
            self._retired_storage[name] = stable
        return self._after_faults(name, self._close_sockets, name)

    def restart(self, name: str,
                then: Optional[Callable[[], None]] = None) -> "asyncio.Task":
        """Boot a killed node from its WAL once its kill has finished
        (see :mod:`repro.transport.restart`); ``then`` runs right after
        restart recovery.  The task's result is the
        :class:`~repro.transport.restart.RestartInfo`."""
        from repro.transport.restart import restart_node

        async def boot():
            info = await restart_node(self, name)
            if then is not None:
                then()
            return info
        return self._after_faults(name, boot)

    async def wait_faults(self) -> None:
        """Await every kill teardown and restart started so far."""
        for task in list(self._fault_tasks.values()):
            await task

    @property
    def faults_pending(self) -> bool:
        return any(not task.done() for task in self._fault_tasks.values())

    def _after_faults(self, name: str, step, *args) -> "asyncio.Task":
        """Run ``step(*args)`` once the node's earlier kill or restart
        is done: a restart never races the teardown it follows."""
        previous = self._fault_tasks.get(name)

        async def chained():
            if previous is not None:
                await previous
            return await step(*args)
        task = self._fault_tasks[name] = asyncio.ensure_future(chained())
        return task

    async def _close_sockets(self, name: str) -> None:
        """Close a killed node's sockets and reconcile in-flight frame
        accounting so quiescence tracking stays truthful."""
        lost = await self.transport.close_node(name)
        # Let FIN/EOF propagate so peers' watchers flip their links
        # down (subsequent sends queue instead of dying in buffers).
        await asyncio.sleep(0.01)
        lost += self.transport.reconcile_lost(name)
        for _ in range(lost):
            self.activity.dec()

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------
    def _on_frame(self, node: str, obj, writer: "asyncio.Transport") -> None:
        if obj.__class__ is list:
            self.network.handle_wire_message(obj)
            return
        kind = obj.get("kind")
        if kind == "begin":
            # Control plane: an external client asks this node to run a
            # transaction; the outcome is reported on the same stream.
            if not self.accepting:
                writer.write(encode_frame({
                    "kind": "error", "error": "draining",
                    "detail": "server is draining; not accepting new "
                              "transactions"}))
                return
            spec = spec_from_wire(obj["spec"])
            handle = self.start_transaction(spec)
            handle.on_done(lambda h: writer.write(encode_frame({
                "kind": "outcome",
                "txn": h.txn_id,
                "outcome": h.outcome,
                "outcome_pending": h.outcome_pending,
            })))
        elif kind == "ping":
            writer.write(encode_frame({"kind": "pong", "node": node}))

    # ------------------------------------------------------------------
    # Running transactions
    # ------------------------------------------------------------------
    def start_transaction(self, spec: TransactionSpec) -> TransactionHandle:
        missing = [p.node for p in spec.participants
                   if p.node not in self.nodes]
        if missing:
            raise ConfigurationError(
                f"spec names nodes not in the cluster: {missing}")
        handle = self.nodes[spec.root.node].begin_transaction(spec)
        handle.on_done(lambda h: self.metrics.record_transaction(
            TransactionRecord(
                txn_id=h.txn_id,
                outcome=h.outcome or "unknown",
                started_at=h.started_at,
                finished_at=h.completed_at or self.simulator.now,
                outcome_pending=h.outcome_pending,
                heuristic_mixed=h.heuristic_mixed)))
        return handle

    async def run_transaction(self, spec: TransactionSpec,
                              timeout: float = 30.0) -> TransactionHandle:
        """Run one transaction to cluster quiescence (the live analogue
        of ``Cluster.run_transaction``)."""
        handle = self.start_transaction(spec)
        await self.wait_quiescent(timeout=timeout)
        if not handle.done:
            raise RuntimeError(
                f"{spec.txn_id}: cluster went quiescent without an outcome "
                f"(pending activity={self.activity.count})")
        return handle

    async def wait_quiescent(self, timeout: float = 30.0) -> None:
        """Wait until no tracked work is pending anywhere.

        Tracked work = scheduled callbacks (including log I/O
        completions) + messages accepted for transmission but not yet
        handled at their destination.  Armed protocol timers are
        intentionally untracked — see ``repro.transport.clock``.
        """
        await asyncio.wait_for(self.activity.wait_idle(), timeout)

    # ------------------------------------------------------------------
    # Outcome inspection (same contract as the simulated Cluster)
    # ------------------------------------------------------------------
    def durable_outcome(self, node_name: str, txn_id: str) -> Optional[str]:
        return self.nodes[node_name].log.durable_outcome(txn_id)

    def recorded_outcome(self, node_name: str, txn_id: str) -> Optional[str]:
        return self.nodes[node_name].log.recorded_outcome(txn_id)

    def fsync_counts(self) -> Dict[str, int]:
        """Per-node real fsync totals (empty entries for in-memory logs)."""
        counts: Dict[str, int] = {}
        for name, node in self.nodes.items():
            stable = node.log.stable
            if isinstance(stable, FileStableStorage):
                counts[name] = stable.fsync_count
        return counts


class ServeControl:
    """Handle into a running ``serve``: request a drain, await it.

    The SIGTERM/SIGINT handlers call :meth:`request_drain`; tests (and
    embedding code) can call it directly instead of raising a signal.
    """

    def __init__(self) -> None:
        self._drain = asyncio.Event()
        self.reason: Optional[str] = None

    def request_drain(self, reason: str = "requested") -> None:
        if not self._drain.is_set():
            self.reason = reason
            self._drain.set()

    async def wait_drain(self) -> None:
        await self._drain.wait()


async def serve(config: ProtocolConfig, nodes: Iterable[str],
                host: str = "127.0.0.1", base_port: int = 0, seed: int = 0,
                log_dir: Optional[str] = None,
                ready: Optional[Callable] = None,
                admin_host: str = "127.0.0.1",
                admin_port: Optional[int] = 0,
                control: Optional[ServeControl] = None,
                drain_timeout: float = 30.0,
                journal_path: Optional[str] = None,
                checkpoint_interval: Optional[float] = None) -> None:
    """Run a live cluster until drained (the ``repro-2pc serve`` body).

    The full operations plane attaches before traffic starts: a
    streaming :class:`~repro.obs.registry.MetricsRegistry`, the
    flight-recorder :class:`~repro.obs.journal.JournalRecorder` and a
    :class:`~repro.obs.watchdog.Watchdog`, the registry and watchdog
    folding the journal's rows, which
    the :class:`~repro.transport.admin.AdminServer` (bound on
    ``admin_host:admin_port`` unless ``admin_port`` is None) brings up
    to date every couple of seconds, and an
    :class:`~repro.ops.OperatorConsole` whose heuristic verbs the
    admin plane serves on ``/resolve``.

    SIGTERM/SIGINT trigger a graceful drain instead of killing the
    process mid-fsync: stop accepting ``begin`` frames, wait (up to
    ``drain_timeout``) for tracked work to finish, flush the journal
    to ``journal_path`` (defaults to ``<log_dir>/journal.jsonl`` when
    ``log_dir`` is set), close the WALs, and return — the CLI exits 0.
    While serving, the rows every fold has read live in a ``.rows``
    segment beside that file (``journal.rows`` by default), removed
    once the JSONL is written.

    ``ready(cluster, addresses)`` is called once the mesh is up —
    the CLI prints the node addresses there; tests grab the ports.
    ``cluster.admin_address`` carries the bound admin endpoint.

    With ``checkpoint_interval`` set, every node force-logs a
    CHECKPOINT that often and, once it hardens, compacts its WAL down
    to the records the checkpoint still needs — long-running servers
    get bounded restart-recovery work and bounded log files.
    """
    from repro.obs.journal import JournalRecorder
    from repro.obs.registry import MetricsRegistry
    from repro.obs.watchdog import Watchdog, WatchdogFinding
    from repro.ops import OperatorConsole
    from repro.transport.admin import AdminServer

    path = journal_path
    if path is None and log_dir is not None:
        path = os.path.join(log_dir, "journal.jsonl")
    # The journal's folded rows spill next to it, so memory holds only
    # what the folds have not read yet.
    segment = None if path is None else os.path.splitext(path)[0] + ".rows"
    cluster = LiveCluster(config, nodes=list(nodes), seed=seed,
                          host=host, base_port=base_port, log_dir=log_dir)
    registry = MetricsRegistry().attach(cluster)
    recorder = JournalRecorder(segment=segment).attach(cluster)
    watchdog = Watchdog()
    console = OperatorConsole(cluster)
    admin = AdminServer(cluster, registry=registry, watchdog=watchdog,
                        console=console)
    control = control or ServeControl()

    # A link that exhausts its reconnect budget is an operational
    # incident, not a log line: surface it as a watchdog finding so
    # /status and the dashboard carry it.
    def link_gave_up(src: str, dst: str, attempts: int) -> None:
        watchdog.record_external(WatchdogFinding(
            "link_down", None, src, cluster.simulator.now,
            f"link {src}->{dst} gave up reconnecting after "
            f"{attempts} attempts", float(attempts)))
    cluster.transport.on_give_up = link_gave_up

    checkpoint_timer = []

    def checkpoint_tick() -> None:
        for node in cluster.nodes.values():
            if not node.alive:
                continue
            stable = node.log.stable
            on_durable = (stable.compact
                          if isinstance(stable, FileStableStorage) else None)
            node.take_checkpoint(on_durable=on_durable)
        checkpoint_timer[:] = [cluster.simulator.timer(
            checkpoint_interval, checkpoint_tick, name="checkpoint")]

    addresses = await cluster.start()
    if admin_port is not None:
        cluster.admin_address = await admin.start(admin_host, admin_port)
    if checkpoint_interval is not None:
        checkpoint_timer.append(cluster.simulator.timer(
            checkpoint_interval, checkpoint_tick, name="checkpoint"))

    loop = asyncio.get_running_loop()
    installed_signals = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(
                signum, control.request_drain, signal.Signals(signum).name)
            installed_signals.append(signum)
        except (NotImplementedError, RuntimeError):
            # Platforms/loops without signal support (or non-main
            # threads): the KeyboardInterrupt path in the CLI remains.
            break

    if ready is not None:
        ready(cluster, addresses)
    try:
        await control.wait_drain()
        cluster.accepting = False
        try:
            await cluster.wait_quiescent(timeout=drain_timeout)
        except asyncio.TimeoutError:
            pass  # drain is best-effort; flush whatever we have
    finally:
        for signum in installed_signals:
            loop.remove_signal_handler(signum)
        for timer in checkpoint_timer:
            timer.cancel()
        await admin.stop()
        registry.detach()
        watchdog.detach()
        recorder.detach()       # last: the tap's store stays its journal
        if path is not None:
            # Streamed a chunk of rows at a time: the drain holds no
            # more of the journal in memory than the run did.
            with open(path, "w") as handle:
                for piece in recorder.rows.render(meta={
                        "protocol": config.presumption.value,
                        "nodes": sorted(cluster.nodes),
                        "drain_reason": control.reason}):
                    handle.write(piece)
            os.remove(segment)
        await cluster.stop()
