"""Live torture: the crash-site campaign on real sockets and WALs.

The simulated torture matrix (:mod:`repro.torture`) records every
crash site of a clean run, replays a crash at each one and judges the
recovery with :func:`repro.faults.campaign.judge`.  This module runs
the same two phases with a :class:`~repro.transport.live.LiveCluster`
as the substrate: a crashed node loses its sockets and volatile state
and comes back only through its WAL on disk
(:mod:`repro.transport.restart`).  Nothing else is live-specific:

* :class:`~repro.torture.sites.SiteRecorder` records the sites and
  :func:`~repro.torture.sites.arm_crash` arms the crash, whose
  ``crash``/``restart`` calls land on the live cluster;
* every transaction of every run gets :func:`judge`, and the sweep is
  one :class:`~repro.faults.campaign.Report` of ``Cell(config,
  "baseline")`` cells over ``CONFIG_NAMES``.

Only **force** sites are replayed, pre and post: the live substrate
adds WAL, fsync and torn-tail code at forced writes only, while send
and deliver crashes exercise protocol code the simulated matrix
already covers.  The workload takes one checkpoint on ``n0`` after its
first transaction, so the CHECKPOINT force is a site too.

The verdict differs from the simulator's in two ways, and only these:

* "quiesced" means every context on every node has settled within
  :data:`SETTLE_TIMEOUT` seconds (in the simulator: the event budget
  was not exhausted).  A run that does not settle names each unsettled
  context: node, transaction, state and held keys.
* The fsync-accounting rule is added: on every node each counted
  physical log I/O is one real fsync, short by at most the node's
  crash count (an I/O counted at start whose fsync died with it).

Each cell's clean run is also twin-checked
(:func:`~repro.transport.twin.run_twin_check`): the live journal of
the seeded workload must replay in the simulator with an empty diff.
"""

from __future__ import annotations

import asyncio
import tempfile
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.spec import TransactionSpec
from repro.faults.campaign import (CONFIG_NAMES, CONFIGS, Cell, Report, Run,
                                   judge)
from repro.faults.injector import CrashSite
from repro.obs.journal import SETTLED_STATES
from repro.torture.sites import SiteRecorder, arm_crash
from repro.transport.live import LiveCluster
from repro.transport.twin import DEFAULT_NODES, run_twin_check, twin_specs
from repro.verify.checker import ProtocolChecker

#: Transactions per run (seeded by the sweep's seed).
TXNS = 3

#: Seconds a crashed node stays down before its WAL restart (the live
#: counterpart of the simulated matrix's ``RESTART_DELAY``).
OUTAGE = 0.05

#: Real-time analogues of the campaign timeouts: short enough that a
#: run settles in well under a second of wall clock, long enough that
#: the outage never races a timer it need not.
TIMEOUTS = dict(ack_timeout=0.4, vote_timeout=0.5, inquiry_timeout=0.5,
                work_timeout=4.0)

SETTLE_TIMEOUT = 20.0
_POLL = 0.02

#: Campaign config name -> the twin check's protocol name.
_TWIN_NAMES = {"BASIC": "basic", "PA": "presumed_abort",
               "PN": "presumed_nothing", "PC": "presumed_commit"}


@dataclass
class LiveTxn:
    """One transaction of a live run, shaped the way :func:`judge`
    reads a trial."""

    cluster: LiveCluster
    checker: ProtocolChecker
    spec: TransactionSpec
    outcome: Optional[str]
    stall: List[str]

    @property
    def quiesced(self) -> bool:
        return not self.stall


# ----------------------------------------------------------------------
# Settlement
# ----------------------------------------------------------------------
def _settled(cluster: LiveCluster) -> bool:
    if cluster.faults_pending or cluster.activity.count:
        return False
    for node in cluster.nodes.values():
        if not node.alive:
            return False
        for context in node.contexts.values():
            if context.state.value not in SETTLED_STATES:
                return False
    return True


def _unsettled(cluster: LiveCluster) -> List[str]:
    lines = []
    for name, node in sorted(cluster.nodes.items()):
        if not node.alive:
            lines.append(f"{name} still down after {SETTLE_TIMEOUT:g}s")
            continue
        for context in node.contexts.values():
            if context.state.value in SETTLED_STATES:
                continue
            held = sorted(key for rm in node.all_rms()
                          for key in rm.locks.held_keys(context.txn_id))
            lines.append(f"unsettled after {SETTLE_TIMEOUT:g}s: txn "
                         f"{context.txn_id} on {name} in state "
                         f"{context.state.value} (held {held})")
    return lines or [f"tracked work still pending after "
                     f"{SETTLE_TIMEOUT:g}s (activity="
                     f"{cluster.activity.count})"]


async def _settle(cluster: LiveCluster) -> List[str]:
    """Wait until the cluster settles; the stall lines if it does not."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + SETTLE_TIMEOUT
    while True:
        await asyncio.sleep(_POLL)
        if _settled(cluster):
            return []
        if loop.time() >= deadline:
            return _unsettled(cluster)


def _fsync_violations(cluster: LiveCluster) -> List[str]:
    violations = []
    fsyncs = cluster.fsync_counts()
    for name, node in sorted(cluster.nodes.items()):
        ios = cluster.metrics.physical_ios(name)
        synced = fsyncs.get(name, 0)
        if not 0 <= ios - synced <= node.crash_count:
            violations.append(
                f"fsync accounting broken on {name}: {ios} physical log "
                f"I/Os vs {synced} fsyncs ({node.crash_count} crashes)")
    return violations


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
async def _run(config_name: str, seed: int, log_dir: str,
               site: Optional[CrashSite], when: str,
               instrument: Optional[Callable[[LiveCluster], object]]
               ) -> Tuple[str, List[str], Optional[str]]:
    cluster = LiveCluster(CONFIGS[config_name].with_options(**TIMEOUTS),
                          nodes=list(DEFAULT_NODES), seed=seed,
                          log_dir=log_dir)
    if instrument is not None:
        instrument(cluster)
    checker = ProtocolChecker().attach(cluster)
    armed = None
    if site is not None:
        armed = arm_crash(cluster, site, when=when, restart_after=OUTAGE,
                          on_restart=partial(checker.check_recovery_locks,
                                             site.node))
    txns: List[LiveTxn] = []
    await cluster.start()
    try:
        for index, spec in enumerate(twin_specs(seed, TXNS, DEFAULT_NODES)):
            # Started inside the clock, so a site that fires during
            # enrollment interrupts an event like any other.
            handles: list = []
            cluster.simulator.call_soon(
                lambda: handles.append(cluster.start_transaction(spec)),
                name="campaign-start")
            stall = await _settle(cluster)
            if index == 0 and not stall:
                cluster.simulator.call_soon(
                    cluster.nodes["n0"].take_checkpoint, name="checkpoint")
                stall = await _settle(cluster)
            handle = handles[0] if handles else None
            txns.append(LiveTxn(
                cluster, checker, spec,
                handle.outcome if handle is not None and handle.done
                else None, stall))
            if stall:
                break
        await cluster.wait_faults()
        extra = _fsync_violations(cluster)
    finally:
        await cluster.stop()
    fired = armed is None or armed.fired
    verdict, violations = "ok", []
    for txn in txns:
        txn_verdict, lines = judge(txn, fired)
        if verdict == "ok":
            verdict = txn_verdict
        violations += [line for line in lines if line not in violations]
    if extra:
        violations += extra
        if verdict == "ok":
            verdict = "violations"
    outcome = " ".join(f"{txn.spec.txn_id}={txn.outcome}" for txn in txns)
    return verdict, violations, outcome


def _run_in_tmp(config_name: str, seed: int, site: Optional[CrashSite],
                when: str, instrument=None
                ) -> Tuple[str, List[str], Optional[str]]:
    """One run on a fresh event loop and a throwaway WAL directory."""
    with tempfile.TemporaryDirectory(prefix="repro-torture-") as tmp:
        return asyncio.run(_run(config_name, seed, tmp, site, when,
                                instrument))


def record_live_sites(config_name: str, seed: int = 17
                      ) -> Tuple[List[CrashSite], List[str], Optional[str]]:
    """The clean run: (force sites, violations, outcome)."""
    recorder = SiteRecorder()
    __, violations, outcome = _run_in_tmp(
        config_name, seed, None, "pre", instrument=recorder.attach)
    sites = [site for site in recorder.sites if site.kind == "force"]
    return sites, violations, outcome


def run_live_site(config_name: str, seed: int, site: CrashSite, when: str,
                  instrument=None) -> Run:
    """Replay the live workload with a crash armed at one force site."""
    verdict, violations, outcome = _run_in_tmp(config_name, seed, site,
                                               when, instrument)
    return Run(f"{site.describe()} [{when}]",
               {"site": site.to_dict(), "when": when}, verdict,
               violations, outcome)


# ----------------------------------------------------------------------
# Cells and the sweep
# ----------------------------------------------------------------------
def run_live_cell(config_name: str, seed: int = 17) -> Cell:
    """Twin-check and record the clean run, then replay every force
    site pre and post."""
    twin = run_twin_check(_TWIN_NAMES[config_name], seed=seed, txns=TXNS)
    sites, violations, outcome = record_live_sites(config_name, seed)
    if not twin.clean:
        violations = twin.describe().splitlines() + violations
    cell = Cell(config_name, "baseline", seed, sites=sites,
                clean_violations=violations, clean_outcome=outcome)
    # A broken clean run is not replayed: replays would only repeat it.
    if not violations:
        cell.runs = [run_live_site(config_name, seed, site, when)
                     for site in sites for when in ("pre", "post")]
    cell.summary = f"{len(sites)} force sites, {len(cell.runs)} replays"
    return cell


def run_live_torture(configs: Optional[Sequence[str]] = None,
                     seed: int = 17) -> Report:
    """The whole sweep; the body of ``repro-2pc live-torture``."""
    names = list(configs) if configs else list(CONFIG_NAMES)
    for name in names:
        if name not in CONFIGS:
            raise ValueError(f"unknown config {name!r}; "
                             f"choose from {CONFIG_NAMES}")
    cells = [run_live_cell(name, seed) for name in names]
    return Report(
        seed, cells,
        header=(f"live torture: {len(cells)} cells (clean runs "
                f"twin-checked), "
                f"{sum(len(cell.sites) for cell in cells)} force sites, "
                f"{sum(len(cell.runs) for cell in cells)} crash replays "
                f"(seed {seed}, {TXNS} txns, outage {OUTAGE:g}s)"),
        units=("sites", "site replays"))
