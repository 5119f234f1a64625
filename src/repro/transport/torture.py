"""The live torture gate: kill real nodes at the paper's worst moments.

The simulated torture matrix (:mod:`repro.torture`) proves the
protocol state machines recover from crashes at adversarial log
sites.  This module proves the *deployment* does: the same crash
sites, but the victim is a :class:`~repro.transport.live.LiveCluster`
node whose sockets get hard-closed, whose volatile state is wiped,
and whose only way back is its on-disk WAL through
:mod:`repro.transport.restart`.

Each cell of the sweep runs a seeded workload over localhost TCP,
arms one crash site on one victim via
:class:`~repro.transport.faults.LiveFaultInjector`, lets the node die
mid-protocol, restarts it from the WAL after a short outage, and then
requires:

* settlement — every context on every node reaches a settled state
  (surviving nodes' protocol timers plus the restarted node's
  recovery drive the in-doubt windows closed);
* zero stranded in-doubt transactions (operator-console scan);
* checker rules clean (atomicity per transaction, R1-R9 stream);
* fsync accounting intact across the crash: on every untouched node
  each counted physical log I/O is one real fsync; on the victim the
  shortfall is bounded by its crash count (an I/O counted at start
  whose fsync died with the process).

``site == "none"`` cells are the no-fault control: they run the full
deployment-twin check, so ``diff_journals(live, sim,
ignore_time=True)`` must come back empty — the torture gate subsumes
the twin gate's guarantee on undisturbed runs.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.spec import ParticipantSpec, TransactionSpec
from repro.sim.kernel import EventInterrupt
from repro.transport.faults import LiveFaultInjector
from repro.transport.live import LiveCluster
from repro.transport.twin import (DEFAULT_NODES, TWIN_PROTOCOLS,
                                  run_twin_check, twin_specs)
from repro.verify.checker import ProtocolChecker

#: Crash sites the sweep visits, in report order.  "none" is the
#: control cell (full twin check, no faults); the rest name the
#: forced-record sites the paper's recovery arguments hinge on.
SITES = ("none", "coord-pre-decision", "coord-post-decision",
         "sub-pre-vote", "sub-post-vote", "mid-checkpoint")

#: site -> (record matcher kind, pre|post) for the armed sites.
_ARMED_SITES = {
    "coord-pre-decision": ("coordinator-decision", "pre"),
    "coord-post-decision": ("coordinator-decision", "post"),
    "sub-pre-vote": ("subordinate-vote", "pre"),
    "sub-post-vote": ("subordinate-vote", "post"),
}

#: Real-time analogues of the sim torture timeouts (LiveCluster
#: supplies the live time units): short enough that a cell settles in
#: well under a second of wall clock, long enough that the ~60ms
#: kill/restart outage never races a timer it needn't.
_TIMEOUTS = dict(ack_timeout=0.4, vote_timeout=0.5, inquiry_timeout=0.5,
                 work_timeout=4.0)

_SETTLE_TIMEOUT = 20.0
_POLL = 0.02


def _updates(participant: ParticipantSpec) -> bool:
    if any(op.is_update for op in participant.ops):
        return True
    return any(op.is_update for ops in participant.rm_ops.values()
               for op in ops)


def _victim_for(spec: TransactionSpec, site: str) -> Optional[str]:
    """The node to kill in ``spec``, or None if the spec can't host
    the site (read-only participants force no records to crash at)."""
    updating_subs = [p.node for p in spec.participants
                     if not p.is_root and _updates(p)]
    if not updating_subs:
        # Also disqualifies the coordinator sites: an all-read-only
        # subtree means no decision record is forced (and under PA an
        # abort decision writes no coordinator record at all).
        return None
    if site.startswith("sub-"):
        return updating_subs[0]
    return spec.root.node


def _choose_target(specs: Sequence[TransactionSpec],
                   site: str) -> Tuple[Optional[int], Optional[str]]:
    for index, spec in enumerate(specs):
        victim = _victim_for(spec, site)
        if victim is not None:
            return index, victim
    return None, None


def _settled(cluster: LiveCluster) -> bool:
    from repro.obs.journal import SETTLED_STATES
    for node in cluster.nodes.values():
        if not node.alive:
            return False
        for context in node.contexts.values():
            if context.state.value not in SETTLED_STATES:
                return False
    return True


async def _wait_settled(cluster: LiveCluster,
                        timeout: float = _SETTLE_TIMEOUT) -> bool:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if _settled(cluster):
            return True
        await asyncio.sleep(_POLL)
    return False


def _start(cluster: LiveCluster, spec: TransactionSpec):
    """Start a transaction, honouring a crash site that fires inside
    the synchronous part of ``begin_transaction`` itself."""
    try:
        return cluster.start_transaction(spec)
    except EventInterrupt as interrupt:
        if interrupt.on_interrupt is not None:
            interrupt.on_interrupt()
        return None


def _recorded_outcome(cluster: LiveCluster, spec: TransactionSpec) -> str:
    for participant in spec.participants:
        outcome = cluster.recorded_outcome(participant.node, spec.txn_id)
        if outcome is not None:
            return outcome
    return "no-record"  # legal: e.g. a presumed-abort all-read-only txn


@dataclass
class TortureCell:
    """One (protocol, site) cell of the live torture sweep."""

    protocol: str
    site: str
    ok: bool
    fired: bool
    victim: Optional[str]
    crashes: int
    outcomes: Dict[str, str] = field(default_factory=dict)
    restarts: List[dict] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: The cell's flight-recorder journal (crash, restart and recovery
    #: included); kept off ``to_dict`` — the report stays small.
    journal: list = field(default_factory=list, repr=False)

    def describe(self) -> str:
        label = f"{self.protocol}/{self.site}"
        if self.ok:
            detail = (f"victim {self.victim} crashed and recovered"
                      if self.crashes else "control clean")
            outcomes = ",".join(f"{t}={o}"
                                for t, o in sorted(self.outcomes.items()))
            return f"  ok   {label}: {detail}" + \
                (f" [{outcomes}]" if outcomes else "")
        lines = [f"  FAIL {label}:"]
        lines.extend(f"       {p}" for p in self.problems)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"protocol": self.protocol, "site": self.site,
                "ok": self.ok, "fired": self.fired, "victim": self.victim,
                "crashes": self.crashes, "outcomes": self.outcomes,
                "restarts": self.restarts, "problems": self.problems}


@dataclass
class LiveTortureReport:
    """The full sweep: protocols x crash sites over real sockets."""

    seed: int
    txns: int
    cells: List[TortureCell]

    @property
    def clean(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def describe(self) -> str:
        failed = sum(1 for c in self.cells if not c.ok)
        head = (f"live torture: {len(self.cells)} cells, "
                f"{len(self.cells) - failed} clean, {failed} failed "
                f"(seed={self.seed}, txns={self.txns})")
        return "\n".join([head] + [cell.describe() for cell in self.cells])

    def to_dict(self) -> dict:
        return {"seed": self.seed, "txns": self.txns, "clean": self.clean,
                "cells": [cell.to_dict() for cell in self.cells]}


async def _run_cell(protocol: str, site: str, seed: int, txns: int,
                    outage: float, log_dir: str) -> TortureCell:
    from repro.obs.journal import JournalRecorder
    from repro.ops import OperatorConsole

    config = TWIN_PROTOCOLS[protocol].with_options(**_TIMEOUTS)
    cluster = LiveCluster(config, nodes=list(DEFAULT_NODES), seed=seed,
                          log_dir=log_dir)
    recorder = JournalRecorder().attach(cluster)
    checker = ProtocolChecker().attach(cluster)
    injector = LiveFaultInjector(cluster, seed=seed)
    console = OperatorConsole(cluster)
    specs = twin_specs(seed, txns, DEFAULT_NODES)
    target, victim = _choose_target(specs, site)
    problems: List[str] = []
    outcomes: Dict[str, str] = {}
    armed = None
    await cluster.start()
    try:
        if target is None:
            problems.append(f"workload seed {seed} produced no "
                            f"transaction eligible for site {site}")
        for index, spec in enumerate(specs):
            if target is None:
                break
            if index == target and site in _ARMED_SITES:
                kind, when = _ARMED_SITES[site]
                armed = injector.arm_crash(kind, victim, when=when,
                                           txn_id=spec.txn_id,
                                           restart_after=outage)
            _start(cluster, spec)
            if not await _wait_settled(cluster):
                problems.append(f"{spec.txn_id}: cluster did not settle "
                                f"within {_SETTLE_TIMEOUT:g}s")
                break
            checker.check_atomicity(spec.txn_id)
            outcomes[spec.txn_id] = _recorded_outcome(cluster, spec)
            if index == target and site == "mid-checkpoint":
                # Crash inside the checkpoint the restarted node would
                # otherwise recover from: the CHECKPOINT record dies
                # volatile, so recovery must fall back to a full-log
                # replay — and the remaining transactions must still
                # run clean on the recovered node.
                armed = injector.arm_crash("checkpoint", victim,
                                           when="pre",
                                           restart_after=outage)
                try:
                    cluster.nodes[victim].take_checkpoint()
                except EventInterrupt as interrupt:
                    if interrupt.on_interrupt is not None:
                        interrupt.on_interrupt()
                if not await _wait_settled(cluster):
                    problems.append("mid-checkpoint: cluster did not "
                                    "settle after restart")
                    break
        await injector.wait_armed()
        try:
            await cluster.wait_quiescent(timeout=2.0)
        except asyncio.TimeoutError:
            # Settlement is the gate's criterion; residual tracked
            # work (e.g. a retry armed just before its target acked)
            # is tolerated but the states above must already be final.
            pass

        if site != "none" and not problems and \
                (armed is None or not armed.fired):
            problems.append(f"crash site {site} never fired "
                            f"(victim {victim})")
        problems.extend(str(v) for v in checker.violations)
        stranded = console.in_doubt_transactions()
        for entry in stranded:
            problems.append(
                f"stranded in-doubt: txn {entry.txn_id} on {entry.node} "
                f"(coordinator {entry.coordinator}, "
                f"held {entry.held_keys})")
        fsyncs = cluster.fsync_counts()
        for name, node in cluster.nodes.items():
            ios = cluster.metrics.physical_ios(name)
            synced = fsyncs.get(name, 0)
            if not 0 <= ios - synced <= node.crash_count:
                problems.append(
                    f"fsync accounting broken on {name}: {ios} physical "
                    f"log I/Os vs {synced} fsyncs "
                    f"({node.crash_count} crashes)")
    finally:
        injector.detach()
        recorder.detach()
        checker.detach()
        await cluster.stop()
    return TortureCell(
        protocol=protocol, site=site, ok=not problems,
        fired=bool(armed and armed.fired), victim=victim,
        crashes=sum(n.crash_count for n in cluster.nodes.values()),
        outcomes=outcomes,
        restarts=[info.to_dict() for info in injector.restarts],
        problems=problems, journal=recorder.entries())


def run_torture_cell(protocol: str, site: str, seed: int = 17,
                     txns: int = 3, outage: float = 0.05) -> TortureCell:
    """Run one cell (fresh event loop, throwaway WAL directory)."""
    if site == "none":
        report = run_twin_check(protocol, seed=seed, txns=txns)
        return TortureCell(
            protocol=protocol, site="none", ok=report.clean, fired=False,
            victim=None, crashes=0,
            problems=[] if report.clean else [report.describe()])
    import tempfile
    with tempfile.TemporaryDirectory(prefix="repro-torture-") as tmp:
        return asyncio.run(_run_cell(protocol, site, seed, txns,
                                     outage, tmp))


def run_live_torture(seed: int = 17, txns: int = 3,
                     protocols: Optional[Sequence[str]] = None,
                     sites: Optional[Sequence[str]] = None,
                     outage: float = 0.05) -> LiveTortureReport:
    """The full sweep; the body of ``repro-2pc live-torture``."""
    cells = []
    for protocol in (protocols or list(TWIN_PROTOCOLS)):
        for site in (sites or SITES):
            cells.append(run_torture_cell(protocol, site, seed=seed,
                                          txns=txns, outage=outage))
    return LiveTortureReport(seed=seed, txns=txns, cells=cells)
