"""Crash-site observation and site-addressed crash arming.

A *crash site* is one observable protocol action: a forced log write,
a message put on the wire, or a message delivered — addressed as
``(kind, node, seq)`` where ``seq`` is the per-(kind, node) ordinal of
that action in the run.  Because the simulator is deterministic for a
seed, re-running the same workload reproduces the exact same site
sequence, so a site recorded on a clean run (phase 1) addresses the
identical instant in a replay (phase 2).

Two classes implement the two phases:

* :class:`SiteRecorder` — attach to a cluster before a clean run;
  collects every site in occurrence order.
* :class:`ArmedCrash` — attach before a replay of the same seed;
  crashes the site's node exactly there, on the ``pre`` or ``post``
  side of the action's effect:

  ========  =====================  =====================================
  kind      when="pre"             when="post"
  ========  =====================  =====================================
  force     record still volatile  record durable, continuation skipped
            (lost with the crash)  (the on-durable callback never runs)
  send      message never leaves   message in flight, sender down
  deliver   handler never runs     handler ran fully, then crash
  ========  =====================  =====================================

The crash itself rides :class:`~repro.sim.kernel.EventInterrupt`: the
hook raises it, the event loop abandons the rest of the current event,
and the cluster's ``crash(name)`` runs with no half-event executing on
a dead node; ``restart(name, then)`` brings it back.  Both substrates
provide that pair: the simulated :class:`~repro.core.cluster.Cluster`
(in-memory log, synchronous restart) and the live
:class:`~repro.transport.live.LiveCluster` (sockets closed, restart
recovery from the WAL on disk), whose clock and frame reader honour
the interrupt exactly as the simulator kernel does.  Consequently a
site can only fire from inside an event — drive the workload via
``simulator.call_soon``, never by calling into the cluster
synchronously while a site is armed.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.injector import CrashSite
from repro.hooks import Observer
from repro.log.records import LogRecord
from repro.net.message import Message
from repro.sim.kernel import EventInterrupt


class SiteRecorder(Observer):
    """Collects every crash site fired during a (clean) run.

    Counting contract (shared with :class:`ArmedCrash`, which must
    reproduce the exact same ordinals): ``force`` counts forced log
    records across all of the node's logs in write order; ``send``
    counts ``network.on_send`` firings with the node as source;
    ``deliver`` counts ``network.on_deliver`` firings with the node as
    destination.
    """

    def __init__(self) -> None:
        self.sites: List[CrashSite] = []
        self._counts: Dict[Tuple[str, str], int] = {}

    def _install(self, cluster) -> None:
        self.hook(cluster.network.on_send, self._on_send)
        self.hook(cluster.network.on_deliver, self._on_deliver)
        for node in cluster.nodes.values():
            for log in node.logs():
                self.hook(log.on_write, partial(self._on_write, node.name))

    # ------------------------------------------------------------------
    def _next_seq(self, kind: str, node: str) -> int:
        key = (kind, node)
        seq = self._counts.get(key, 0)
        self._counts[key] = seq + 1
        return seq

    def _on_write(self, node: str, record: LogRecord) -> None:
        if not record.forced:
            return
        seq = self._next_seq("force", node)
        self.sites.append(CrashSite("force", node, seq,
                                    label=record.record_type.value))

    def _on_send(self, message: Message) -> None:
        seq = self._next_seq("send", message.src)
        self.sites.append(CrashSite(
            "send", message.src, seq,
            label=f"{message.msg_type.value}->{message.dst}"))

    def _on_deliver(self, message: Message) -> None:
        seq = self._next_seq("deliver", message.dst)
        self.sites.append(CrashSite(
            "deliver", message.dst, seq,
            label=f"{message.msg_type.value}<-{message.src}"))


class ArmedCrash(Observer):
    """Crash ``site.node`` exactly at the armed site (one-shot).

    ``on_crash`` runs right after the cluster's ``crash(name)`` (still
    inside the interrupted event's cleanup); ``on_restart`` runs right
    after ``restart(name)`` finishes restart recovery — the window in
    which recovery-lock invariants are checkable before the protocol
    runs on.  Firing detaches it.
    """

    def __init__(self, site: CrashSite, when: str = "pre",
                 restart_after: Optional[float] = None,
                 on_crash: Optional[Callable[[], None]] = None,
                 on_restart: Optional[Callable[[], None]] = None) -> None:
        if when not in ("pre", "post"):
            raise ValueError(f"when must be 'pre' or 'post', got {when!r}")
        self.site = site
        self.when = when
        self.restart_after = restart_after
        self.on_crash = on_crash
        self.on_restart = on_restart
        self.fired = False
        self.fired_at: Optional[float] = None
        self._count = 0
        self._pending_message: Optional[Message] = None
        self._armed_flush: Optional[tuple] = None  # (log, lsn)

    # ------------------------------------------------------------------
    def _install(self, cluster) -> None:
        node = cluster.nodes.get(self.site.node)
        if node is None:
            raise ValueError(f"site names unknown node {self.site.node!r}")
        network = cluster.network
        # Front insertion: a "pre" interrupt must fire before any
        # observer (checker, tracer) records an action that, per the
        # crash semantics, never happened.
        if self.site.kind == "send":
            self.hook(network.on_send, self._on_send, front=True)
            if self.when == "post":
                self.hook(network.on_transmit, self._on_transmit)
        elif self.site.kind == "deliver":
            self.hook(network.on_deliver, self._on_deliver, front=True)
            if self.when == "post":
                self.hook(network.on_handled, self._on_handled)
        else:  # force
            for log in node.logs():
                self.hook(log.on_write, partial(self._on_write, log),
                          front=True)
                self.hook(log.on_flush, partial(self._on_flush, log))

    # ------------------------------------------------------------------
    # Hook handlers (each counts exactly like SiteRecorder)
    # ------------------------------------------------------------------
    def _on_send(self, message: Message) -> None:
        if self.fired or message.src != self.site.node:
            return
        seq = self._count
        self._count += 1
        if seq != self.site.seq:
            return
        if self.when == "pre":
            self._fire()
        else:
            self._pending_message = message

    def _on_transmit(self, message: Message) -> None:
        if self.fired or message is not self._pending_message:
            return
        self._fire()

    def _on_deliver(self, message: Message) -> None:
        if self.fired or message.dst != self.site.node:
            return
        seq = self._count
        self._count += 1
        if seq != self.site.seq:
            return
        if self.when == "pre":
            self._fire()
        else:
            self._pending_message = message

    def _on_handled(self, message: Message) -> None:
        if self.fired or message is not self._pending_message:
            return
        self._fire()

    def _on_write(self, log, record: LogRecord) -> None:
        if self.fired or not record.forced:
            return
        seq = self._count
        self._count += 1
        if seq != self.site.seq:
            return
        if self.when == "pre":
            self._fire()
        else:
            # Crash when the I/O that hardens this record completes:
            # durable, but the force's continuation never runs.
            self._armed_flush = (log, record.lsn)

    def _on_flush(self, log, records: List[LogRecord]) -> None:
        if self.fired or self._armed_flush is None:
            return
        armed_log, lsn = self._armed_flush
        if log is not armed_log:
            return
        if any(record.lsn == lsn for record in records):
            self._fire()

    # ------------------------------------------------------------------
    def _fire(self) -> None:
        self.fired = True
        self.fired_at = self.cluster.simulator.now
        raise EventInterrupt(on_interrupt=self._crash)

    def _crash(self) -> None:
        cluster = self.cluster
        name = self.site.node
        self.detach()
        cluster.crash(name)
        if self.on_crash is not None:
            self.on_crash()
        if self.restart_after is not None:
            cluster.simulator.schedule(
                self.restart_after,
                partial(cluster.restart, name, self.on_restart),
                name=f"torture-restart:{name}")


def arm_crash(cluster, site: CrashSite, when: str = "pre",
              restart_after: Optional[float] = None,
              on_crash: Optional[Callable[[], None]] = None,
              on_restart: Optional[Callable[[], None]] = None) -> ArmedCrash:
    """Arm a one-shot crash at ``site`` on ``cluster`` and return it."""
    return ArmedCrash(site, when=when, restart_after=restart_after,
                      on_crash=on_crash,
                      on_restart=on_restart).attach(cluster)
