"""The deployment twin: live TCP run vs deterministic sim replay.

Workflow (the ``repro-2pc live`` command and the ``--twin`` gate):

1. Run a seeded workload on a :class:`LiveCluster` over localhost TCP
   with real fsyncs, recording the journal with PR 7's
   ``JournalRecorder`` and checking it with the ``ProtocolChecker``.
2. Extract the live run's *delivery schedule*: the global order in
   which messages were handed to their destinations.  Real sockets
   make that order nondeterministic (vote and ack races); it is the
   only free variable between the two worlds.
3. Replay the same workload in the deterministic simulator with a
   :class:`ScheduledNetwork` that delivers messages in exactly the
   recorded order.
4. Require ``diff_journals(live, sim, ignore_time=True)`` to come back
   empty, checker verdicts to match, per-transaction cost triples
   (flows / log writes / forced writes) to be identical, and — on the
   live side — every counted physical log I/O to be one real fsync.

An empty diff means the live system performed a causally equivalent
execution of the same protocol: the simulation's cost tables are
measurements of the deployable system, not of a model of it.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.cluster import Cluster
from repro.core.config import (BASIC_2PC, PRESUMED_ABORT, PRESUMED_COMMIT,
                               PRESUMED_NOTHING, ProtocolConfig)
from repro.core.spec import TransactionSpec
from repro.net.message import Message
from repro.net.network import Delivery, Network
from repro.obs.diff import Divergence, diff_journals
from repro.obs.journal import JournalEntry, JournalRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.watchdog import Watchdog
from repro.sim.randomness import RandomStream
from repro.transport.live import LiveCluster
from repro.verify.checker import ProtocolChecker
from repro.workload.generator import WorkloadGenerator, WorkloadParams

TWIN_PROTOCOLS: Dict[str, ProtocolConfig] = {
    "basic": BASIC_2PC,
    "presumed_abort": PRESUMED_ABORT,
    "presumed_nothing": PRESUMED_NOTHING,
    "presumed_commit": PRESUMED_COMMIT,
}

DEFAULT_NODES = ("n0", "n1", "n2")

#: A delivery is identified by (src, dst, message type, txn); repeats
#: of the same key are matched by occurrence order.
DeliveryKey = Tuple[str, str, str, str]


def twin_specs(seed: int, txns: int,
               nodes: Sequence[str]) -> List[TransactionSpec]:
    """The seeded workload, with explicit txn ids shared by both worlds."""
    generator = WorkloadGenerator(
        list(nodes), WorkloadParams(read_only_fraction=0.3, key_space=4),
        RandomStream(seed))
    specs = list(generator.stream(txns))
    for index, spec in enumerate(specs):
        spec.txn_id = f"t{index}"
    return specs


def delivery_schedule(entries: Sequence[JournalEntry]) -> List[DeliveryKey]:
    """The global delivery order observed in a journal."""
    return [(e.peer, e.node, e.ref, e.txn)
            for e in entries if e.kind == "deliver"]


def _cost_triple(metrics, txn: str) -> Tuple[int, int, int]:
    summary = metrics.cost_summary(txn)
    return (summary.flows, summary.log_writes, summary.forced_writes)


class ScheduledNetwork(Network):
    """Network that replays a recorded global delivery order.

    Each accepted message looks up its next recorded occurrence and is
    delivered at ``(index + 1) * STEP`` virtual time — a strictly
    increasing timeline that reproduces the live run's interleaving
    inside the deterministic simulator.  Unmatched sends (a protocol
    divergence) are delivered after the schedule and reported.
    """

    STEP = 1.0

    def __init__(self, simulator, metrics, latency=None) -> None:
        super().__init__(simulator, metrics, latency)
        self._queues: Dict[DeliveryKey, Deque[int]] = {}
        self._total = 0
        self._overflow = 0
        self.unmatched: List[DeliveryKey] = []

    def load_schedule(self, order: Sequence[DeliveryKey]) -> None:
        for index, key in enumerate(order):
            self._queues.setdefault(key, deque()).append(index)
        self._total = len(order)

    def _transmit(self, message: Message, delay: float) -> None:
        key = (message.src, message.dst, message.msg_type.value,
               message.txn_id)
        queue = self._queues.get(key)
        if queue:
            index = queue.popleft()
        else:
            self.unmatched.append(key)
            index = self._total + self._overflow
            self._overflow += 1
        arrival = (index + 1) * self.STEP
        if arrival < self.simulator.now:
            # A replay running ahead of the recorded timeline is itself
            # a divergence; deliver now and let the diff localize it.
            arrival = self.simulator.now
        delivery = Delivery(self._deliver, message)
        self.simulator.at(arrival, delivery, name=delivery)


@dataclass
class RunCapture:
    """Everything one side of the twin produces for comparison."""

    entries: List[JournalEntry]
    outcomes: Dict[str, Optional[str]]
    violations: List[str]
    costs: Dict[str, Tuple[int, int, int]]
    physical_ios: Dict[str, int]
    fsyncs: Dict[str, int] = field(default_factory=dict)
    forced_writes: Dict[str, int] = field(default_factory=dict)
    unmatched: List[DeliveryKey] = field(default_factory=list)
    #: Streaming-registry counter series (gauges/histograms carry
    #: clock-dependent durations and are excluded from the twin).
    registry_counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class TwinReport:
    """Result of one live-vs-sim twin check."""

    protocol: str
    txns: int
    seed: int
    divergence: Optional[Divergence]
    outcome_mismatches: List[str]
    verdict_mismatches: List[str]
    cost_mismatches: List[str]
    fsync_mismatches: List[str]
    unmatched_sends: List[DeliveryKey]
    live_entries: int
    sim_entries: int
    registry_mismatches: List[str] = field(default_factory=list)
    #: Classified transport/socket failures (e.g. loopback unavailable)
    #: that prevented or degraded the live run — surfaced, not
    #: swallowed.
    transport_errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (self.divergence is None and not self.outcome_mismatches
                and not self.verdict_mismatches and not self.cost_mismatches
                and not self.fsync_mismatches and not self.unmatched_sends
                and not self.registry_mismatches
                and not self.transport_errors)

    def describe(self) -> str:
        if self.transport_errors:
            return "\n".join([f"{self.protocol}: TWIN COULD NOT RUN"]
                             + self.transport_errors)
        if self.clean:
            return (f"{self.protocol}: twin clean — {self.txns} txns, "
                    f"{self.live_entries} journal entries causally "
                    f"equivalent, costs, verdicts and registry counters "
                    f"identical, every physical log I/O one real fsync")
        lines = [f"{self.protocol}: TWIN DIVERGED"]
        if self.divergence is not None:
            lines.append(self.divergence.describe())
        lines.extend(self.outcome_mismatches)
        lines.extend(self.verdict_mismatches)
        lines.extend(self.cost_mismatches)
        lines.extend(self.fsync_mismatches)
        lines.extend(self.registry_mismatches)
        if self.unmatched_sends:
            lines.append(f"unmatched replay sends: {self.unmatched_sends}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "txns": self.txns,
            "seed": self.seed,
            "clean": self.clean,
            "divergence": (None if self.divergence is None
                           else self.divergence.describe()),
            "outcome_mismatches": self.outcome_mismatches,
            "verdict_mismatches": self.verdict_mismatches,
            "cost_mismatches": self.cost_mismatches,
            "fsync_mismatches": self.fsync_mismatches,
            "registry_mismatches": self.registry_mismatches,
            "unmatched_sends": [list(k) for k in self.unmatched_sends],
            "live_entries": self.live_entries,
            "sim_entries": self.sim_entries,
            "transport_errors": self.transport_errors,
        }


# ----------------------------------------------------------------------
# The two runs
# ----------------------------------------------------------------------
async def _run_live(config: ProtocolConfig, seed: int, txns: int,
                    nodes: Sequence[str], log_dir: Optional[str],
                    instrument: Optional[Callable] = None) -> RunCapture:
    from repro.ops import OperatorConsole
    from repro.transport.admin import AdminServer

    cluster = LiveCluster(config, nodes=list(nodes), seed=seed,
                          log_dir=log_dir)
    if instrument is not None:
        instrument(cluster)
    recorder = JournalRecorder().attach(cluster)
    registry = MetricsRegistry().attach(cluster)
    checker = ProtocolChecker().attach(cluster)
    # The full admin plane rides along: the twin proves that serving
    # /metrics and rescanning watchdogs does not perturb the run.
    admin = AdminServer(cluster, registry=registry, watchdog=Watchdog(),
                        console=OperatorConsole(cluster))
    await cluster.start()
    await admin.start()
    outcomes: Dict[str, Optional[str]] = {}
    try:
        for spec in twin_specs(seed, txns, nodes):
            handle = await cluster.run_transaction(spec)
            outcomes[spec.txn_id] = handle.outcome
            checker.check_atomicity(spec.txn_id)
    finally:
        await admin.stop()
        await cluster.stop()
    recorder.detach()
    registry.detach()
    checker.detach()
    txn_ids = list(outcomes)
    return RunCapture(
        entries=recorder.entries(),
        outcomes=outcomes,
        violations=[str(v) for v in checker.violations],
        costs={t: _cost_triple(cluster.metrics, t) for t in txn_ids},
        physical_ios={n: cluster.metrics.physical_ios(n)
                      for n in cluster.nodes},
        fsyncs=cluster.fsync_counts(),
        forced_writes={n: cluster.metrics.forced_log_writes(node=n)
                       for n in cluster.nodes},
        registry_counters=registry.counter_samples(),
    )


def _run_replay(config: ProtocolConfig, seed: int, txns: int,
                nodes: Sequence[str], schedule: Sequence[DeliveryKey],
                instrument: Optional[Callable] = None) -> RunCapture:
    # Tiny io_latency keeps forced-write chains well inside one STEP of
    # the replayed delivery timeline.
    cluster = Cluster(config.with_options(io_latency=1e-6),
                      nodes=list(nodes), seed=seed,
                      network_class=ScheduledNetwork)
    if instrument is not None:
        instrument(cluster)
    cluster.network.load_schedule(schedule)
    recorder = JournalRecorder().attach(cluster)
    registry = MetricsRegistry().attach(cluster)
    checker = ProtocolChecker().attach(cluster)
    outcomes: Dict[str, Optional[str]] = {}
    for spec in twin_specs(seed, txns, nodes):
        handle = cluster.run_transaction(spec)
        outcomes[spec.txn_id] = handle.outcome
        checker.check_atomicity(spec.txn_id)
    recorder.detach()
    registry.detach()
    checker.detach()
    txn_ids = list(outcomes)
    return RunCapture(
        entries=recorder.entries(),
        outcomes=outcomes,
        violations=[str(v) for v in checker.violations],
        costs={t: _cost_triple(cluster.metrics, t) for t in txn_ids},
        physical_ios={n: cluster.metrics.physical_ios(n)
                      for n in cluster.nodes},
        unmatched=list(cluster.network.unmatched),
        registry_counters=registry.counter_samples(),
    )


# ----------------------------------------------------------------------
# The check
# ----------------------------------------------------------------------
def run_twin_check(protocol: str, seed: int = 11, txns: int = 6,
                   nodes: Sequence[str] = DEFAULT_NODES,
                   log_dir: Optional[str] = None,
                   instrument: Optional[Callable] = None) -> TwinReport:
    """Live run → recorded schedule → sim replay → full comparison.

    ``instrument``, when given, is called with each side's cluster
    (live, then replay) before anything else attaches.
    """
    config = TWIN_PROTOCOLS[protocol]
    try:
        if log_dir is None:
            # Real fsync semantics are part of the check; default to a
            # throwaway WAL directory rather than silently skipping them.
            import tempfile
            with tempfile.TemporaryDirectory(prefix="repro-twin-") as tmp:
                live = asyncio.run(_run_live(config, seed, txns, nodes, tmp,
                                             instrument))
        else:
            live = asyncio.run(_run_live(config, seed, txns, nodes, log_dir,
                                         instrument))
    except OSError as error:
        # A sandbox without loopback (or an exhausted fd/port table)
        # fails here; classify and surface it instead of crashing out
        # with a bare traceback — the gates print the reason and skip.
        return TwinReport(
            protocol=protocol, txns=txns, seed=seed, divergence=None,
            outcome_mismatches=[], verdict_mismatches=[],
            cost_mismatches=[], fsync_mismatches=[], unmatched_sends=[],
            live_entries=0, sim_entries=0,
            transport_errors=[classify_socket_error(error)])
    schedule = delivery_schedule(live.entries)
    sim = _run_replay(config, seed, txns, nodes, schedule, instrument)

    if log_dir is not None:
        # Persist both journals next to the WALs so the recorded run
        # can be re-diffed by hand: ``repro-2pc diff live.jsonl
        # sim.jsonl --ignore-time``.
        import os
        from repro.obs.journal import journal_to_jsonl
        for label, capture, transport_name in (
                ("live", live, "tcp-live"), ("sim", sim, "sim-replay")):
            path = os.path.join(log_dir, f"{protocol}-{label}.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(journal_to_jsonl(capture.entries, meta={
                    "workload": protocol, "seed": seed, "txns": txns,
                    "transport": transport_name}))

    divergence = diff_journals(live.entries, sim.entries, ignore_time=True)

    outcome_mismatches = [
        f"outcome[{t}]: live={live.outcomes.get(t)} sim={sim.outcomes.get(t)}"
        for t in sorted(set(live.outcomes) | set(sim.outcomes))
        if live.outcomes.get(t) != sim.outcomes.get(t)]
    verdict_mismatches = []
    if sorted(live.violations) != sorted(sim.violations):
        verdict_mismatches.append(
            f"checker verdicts differ: live={live.violations} "
            f"sim={sim.violations}")
    cost_mismatches = [
        f"cost[{t}]: live={live.costs.get(t)} sim={sim.costs.get(t)}"
        for t in sorted(set(live.costs) | set(sim.costs))
        if live.costs.get(t) != sim.costs.get(t)]
    registry_mismatches = [
        f"registry[{series}]: live={live.registry_counters.get(series)} "
        f"sim={sim.registry_counters.get(series)}"
        for series in sorted(set(live.registry_counters)
                             | set(sim.registry_counters))
        if live.registry_counters.get(series, 0.0)
        != sim.registry_counters.get(series, 0.0)]

    fsync_mismatches = []
    for node, fsyncs in sorted(live.fsyncs.items()):
        ios = live.physical_ios.get(node, 0)
        if fsyncs != ios:
            fsync_mismatches.append(
                f"fsync[{node}]: {fsyncs} real fsyncs for {ios} counted "
                f"physical I/Os")
        forced = live.forced_writes.get(node, 0)
        if fsyncs != forced:
            fsync_mismatches.append(
                f"fsync[{node}]: {fsyncs} real fsyncs for {forced} forced "
                f"writes")

    return TwinReport(
        protocol=protocol,
        txns=txns,
        seed=seed,
        divergence=divergence,
        outcome_mismatches=outcome_mismatches,
        verdict_mismatches=verdict_mismatches,
        cost_mismatches=cost_mismatches,
        fsync_mismatches=fsync_mismatches,
        unmatched_sends=sim.unmatched,
        live_entries=len(live.entries),
        sim_entries=len(sim.entries),
        registry_mismatches=registry_mismatches,
    )


def run_twin_matrix(seed: int = 11, txns: int = 6,
                    nodes: Sequence[str] = DEFAULT_NODES,
                    log_dir: Optional[str] = None
                    ) -> Dict[str, TwinReport]:
    """Twin-check every protocol family (the ``--twin`` gate body)."""
    return {name: run_twin_check(name, seed=seed, txns=txns, nodes=nodes,
                                 log_dir=log_dir)
            for name in TWIN_PROTOCOLS}


def classify_socket_error(error: OSError) -> str:
    """One-line, operator-readable classification of a socket failure."""
    import errno
    name = errno.errorcode.get(error.errno, "OSError") \
        if error.errno is not None else type(error).__name__
    reasons = {
        "EPERM": "socket operations forbidden (sandbox/seccomp policy)",
        "EACCES": "socket access denied (permissions)",
        "EAFNOSUPPORT": "IPv4 not supported on this host",
        "EADDRNOTAVAIL": "127.0.0.1 not configured (no loopback interface)",
        "EADDRINUSE": "address already in use",
        "ECONNREFUSED": "connection refused (peer not listening)",
        "EMFILE": "file-descriptor limit exhausted",
        "ENFILE": "system file table exhausted",
    }
    detail = reasons.get(name, str(error) or "unclassified socket error")
    return f"{name}: {detail}"


def loopback_status() -> Tuple[bool, str]:
    """Probe localhost TCP; returns (available, reason).

    The reason is "ok" when available and a classified error
    otherwise — callers must surface it (a silently skipped live gate
    hid a sandbox misconfiguration once; never again).
    """
    import socket
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind(("127.0.0.1", 0))
            probe.listen(1)
        finally:
            probe.close()
        return True, "ok"
    except OSError as error:
        return False, classify_socket_error(error)
