"""The chaos engine's live counterpart: seeded faults on real sockets.

:class:`LiveFaultInjector` drives the three fault families the sim's
torture/chaos layers exercise, against a running
:class:`~repro.transport.live.LiveCluster`:

* **node kill / restart** — hard socket close + process-state wipe,
  then a WAL boot through :mod:`repro.transport.restart`;
* **link sever / heal** — cut one directed TCP link; frames queue at
  the transport and drain FIFO on heal;
* **frame delay / drop** — seeded filters at the transport seam
  (:attr:`TcpTransport.send_filter`), reconciled with the activity
  tracker so quiescence accounting stays truthful.

Crash *sites* use the same interruption contract as the sim torture
matrix (:mod:`repro.torture.sites`): a hook on the victim's log raises
:class:`~repro.sim.kernel.EventInterrupt` at the armed record, the
live clock catches it exactly as the sim kernel does, and the node
dies mid-event —

* ``pre`` a force: the hook fires on ``log.on_write``, before the
  force request is even filed, so the record is volatile and dies with
  the crash (the in-doubt / presumption machinery must cope with its
  absence);
* ``post`` a force: the hook fires on ``log.on_flush``, after the
  record hardened (real fsync included) but before any ``on_durable``
  continuation ran — durable decision, no propagation.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from repro.hooks import Observer
from repro.log.records import LogRecord, LogRecordType
from repro.sim.kernel import EventInterrupt
from repro.sim.randomness import RandomStream
from repro.transport.restart import RestartInfo, restart_node
from repro.transport.tcp import DROP_FRAME
from repro.transport.wire import frame_kind

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.live import LiveCluster

#: Record matchers for the named crash sites.  "coordinator-decision"
#: is the root's forced outcome record; "subordinate-vote" is a
#: participant's forced PREPARED; "checkpoint" is the forced
#: CHECKPOINT record (the mid-checkpoint crash ROADMAP asks for).
SITE_KINDS = ("coordinator-decision", "subordinate-vote", "checkpoint")


def _matches(kind: str, record: LogRecord) -> bool:
    if kind == "coordinator-decision":
        return (record.record_type in (LogRecordType.COMMITTED,
                                       LogRecordType.ABORTED)
                and record.payload.get("role") == "coordinator")
    if kind == "subordinate-vote":
        return record.record_type is LogRecordType.PREPARED
    if kind == "checkpoint":
        return record.record_type is LogRecordType.CHECKPOINT
    raise ValueError(f"unknown crash-site kind {kind!r}")


@dataclass
class _FrameRule:
    """One seeded delay/drop rule at the transport seam."""

    src: Optional[str]          # None = any
    dst: Optional[str]
    action: str                 # "drop" | "delay"
    probability: float = 1.0
    delay: float = 0.0
    remaining: Optional[int] = None   # None = unlimited


@dataclass
class ArmedLiveCrash:
    """A crash armed at a log-record site on one node.

    ``fired`` flips when the matching record passes the armed hook;
    the crash itself (volatile wipe now, socket teardown + optional
    auto-restart as a task) is carried by ``EventInterrupt``.
    """

    kind: str
    node: str
    when: str                   # "pre" | "post"
    txn_id: Optional[str] = None
    fired: bool = False
    fired_at: Optional[float] = None
    restart_task: Optional["asyncio.Task"] = field(default=None, repr=False)


class LiveFaultInjector(Observer):
    """Seeded fault injection for a live cluster (attached on creation;
    ``detach()`` removes the armed crash hooks and the frame filters)."""

    def __init__(self, cluster: "LiveCluster", seed: int = 0) -> None:
        self.rng = RandomStream(seed ^ 0xFA_017)
        self.killed: List[str] = []
        self.restarts: List[RestartInfo] = []
        self._rules: List[_FrameRule] = []
        self._armed: List[ArmedLiveCrash] = []
        self.attach(cluster)

    def _install(self, cluster: "LiveCluster") -> None:
        cluster.transport.send_filter = self._filter_frame
        cluster.transport.on_frame_dropped = self._frame_dropped

    def detach(self) -> None:
        if self.cluster is not None:
            self.cluster.transport.send_filter = None
            self.cluster.transport.on_frame_dropped = None
        super().detach()

    # ------------------------------------------------------------------
    # Node kill / restart
    # ------------------------------------------------------------------
    async def kill(self, name: str) -> None:
        self.killed.append(name)
        await self.cluster.kill_node(name)

    async def restart(self, name: str) -> RestartInfo:
        info = await restart_node(self.cluster, name)
        self.restarts.append(info)
        return info

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def sever(self, src: str, dst: str) -> None:
        self.cluster.transport.sever(src, dst)

    def heal(self, src: str, dst: str) -> None:
        self.cluster.transport.heal(src, dst)

    def sever_both(self, a: str, b: str) -> None:
        self.sever(a, b)
        self.sever(b, a)

    def heal_both(self, a: str, b: str) -> None:
        self.heal(a, b)
        self.heal(b, a)

    # ------------------------------------------------------------------
    # Frame delay / drop (transport seam)
    # ------------------------------------------------------------------
    def drop_frames(self, src: Optional[str] = None,
                    dst: Optional[str] = None, probability: float = 1.0,
                    count: Optional[int] = None) -> None:
        """Drop matching ``msg`` frames (seeded coin per frame)."""
        self._rules.append(_FrameRule(src, dst, "drop",
                                      probability=probability,
                                      remaining=count))

    def delay_frames(self, delay: float, src: Optional[str] = None,
                     dst: Optional[str] = None, probability: float = 1.0,
                     count: Optional[int] = None) -> None:
        """Delay matching ``msg`` frames by ``delay`` seconds.

        A delayed frame re-enters the link later — it may arrive after
        frames sent subsequently, i.e. this deliberately violates the
        per-link session order, exactly like the sim chaos reorder
        adversary.
        """
        self._rules.append(_FrameRule(src, dst, "delay",
                                      probability=probability, delay=delay,
                                      remaining=count))

    def clear_frame_rules(self) -> None:
        self._rules.clear()

    def _filter_frame(self, src: str, dst: str, obj):
        if frame_kind(obj) != "msg":
            return None   # control frames are not protocol traffic
        for rule in self._rules:
            if rule.src is not None and rule.src != src:
                continue
            if rule.dst is not None and rule.dst != dst:
                continue
            if rule.remaining is not None and rule.remaining <= 0:
                continue
            if rule.probability < 1.0 and not \
                    self.rng.chance(rule.probability):
                continue
            if rule.remaining is not None:
                rule.remaining -= 1
            if rule.action == "drop":
                return DROP_FRAME
            return rule.delay
        return None

    def _frame_dropped(self, src: str, dst: str, obj) -> None:
        # The LiveNetwork counted this frame as in-flight when it
        # accepted it for transmission; a transport-seam drop must
        # hand that count back or quiescence never arrives.
        if frame_kind(obj) == "msg":
            self.cluster.activity.dec()

    # ------------------------------------------------------------------
    # Crash sites
    # ------------------------------------------------------------------
    def arm_crash(self, kind: str, node: str, when: str = "pre",
                  txn_id: Optional[str] = None,
                  restart_after: Optional[float] = None) -> ArmedLiveCrash:
        """Arm a one-shot crash of ``node`` at the named record site.

        With ``restart_after`` set, the injector restarts the node from
        its WAL that many seconds after the kill completes (the torture
        harness's outage window); otherwise the caller restarts
        explicitly via :meth:`restart`.
        """
        if when not in ("pre", "post"):
            raise ValueError(f"when must be pre|post, got {when!r}")
        if kind not in SITE_KINDS:
            raise ValueError(f"unknown crash-site kind {kind!r}")
        armed = ArmedLiveCrash(kind=kind, node=node, when=when,
                               txn_id=txn_id)
        log = self.cluster.nodes[node].log

        def hook(arg) -> None:
            if armed.fired:
                return
            records = arg if isinstance(arg, list) else [arg]
            for record in records:
                if armed.txn_id is not None and \
                        record.txn_id != armed.txn_id:
                    continue
                if _matches(armed.kind, record):
                    armed.fired = True
                    armed.fired_at = self.cluster.simulator.now
                    raise EventInterrupt(on_interrupt=lambda:
                                         self._crash(armed, restart_after))
        self.hook(log.on_write if when == "pre" else log.on_flush, hook)
        self._armed.append(armed)
        return armed

    def _crash(self, armed: ArmedLiveCrash,
               restart_after: Optional[float]) -> None:
        """Runs as the ``EventInterrupt``'s on_interrupt: the volatile
        wipe happens synchronously (nothing else runs first); socket
        teardown and the optional restart continue as a task."""
        name = armed.node
        cluster = self.cluster
        self.killed.append(name)
        cluster.begin_kill(name)

        async def teardown() -> None:
            await cluster.finish_kill(name)
            if restart_after is not None:
                await asyncio.sleep(restart_after)
                info = await restart_node(cluster, name)
                self.restarts.append(info)
        armed.restart_task = asyncio.ensure_future(teardown())

    async def wait_armed(self) -> None:
        """Await completion of every fired crash's teardown/restart."""
        for armed in self._armed:
            if armed.restart_task is not None:
                await armed.restart_task
