"""Cluster assembly: simulator + network + nodes, with run helpers.

The :class:`Cluster` is the library's main entry point.  It wires a
deterministic simulator, a metrics collector, the network and a set of
TM nodes together, and provides the workflows the benchmarks and tests
need: run one transaction to quiescence, run chained transactions
(long locks), inject crashes and partitions, and inspect outcomes.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.config import PRESUMED_ABORT, ProtocolConfig
from repro.core.handle import TransactionHandle
from repro.core.node import TMNode
from repro.core.spec import TransactionSpec
from repro.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector, TransactionRecord
from repro.net.latency import LatencyModel
from repro.net.message import MessageType
from repro.net.network import Network
from repro.sim.kernel import Simulator


class Cluster:
    """A simulated distributed transaction processing system."""

    def __init__(self, config: Optional[ProtocolConfig] = None,
                 nodes: Sequence[str] = (), seed: int = 0,
                 latency: Optional[LatencyModel] = None,
                 reliable_nodes: Iterable[str] = (),
                 network_class: Optional[type] = None) -> None:
        self.config = config or PRESUMED_ABORT
        self.simulator = Simulator(seed=seed)
        self.metrics = MetricsCollector()
        # ``network_class`` lets harnesses substitute a Network subclass
        # (e.g. the twin replay's schedule-driven delivery) while the
        # rest of the wiring stays identical.
        cls = network_class or Network
        self.network = cls(self.simulator, self.metrics, latency)
        self.nodes: Dict[str, TMNode] = {}
        reliable = set(reliable_nodes)
        for name in nodes:
            self.add_node(name, reliable=name in reliable)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(self, name: str, reliable: bool = False) -> TMNode:
        if name in self.nodes:
            raise ConfigurationError(f"duplicate node {name!r}")
        node = TMNode(name, self.simulator, self.network, self.metrics,
                      self.config, reliable=reliable)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> TMNode:
        return self.nodes[name]

    # ------------------------------------------------------------------
    # Running transactions
    # ------------------------------------------------------------------
    def start_transaction(self, spec: TransactionSpec) -> TransactionHandle:
        """Begin a transaction without advancing the clock."""
        self._require_nodes(spec)
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

    def run_transaction(self, spec: TransactionSpec,
                        max_events: Optional[int] = None
                        ) -> TransactionHandle:
        """Run one transaction to network quiescence and return it.

        Suitable for failure-free runs (the event queue drains).  For
        runs with retry timers or injected faults, use
        :meth:`start_transaction` plus :meth:`run_until`.
        """
        handle = self.start_transaction(spec)
        self.simulator.run(max_events=max_events)
        return handle

    def run_transactions(self, specs: Sequence[TransactionSpec]
                         ) -> List[TransactionHandle]:
        """Run transactions one after another (chained workloads).

        Each transaction starts only after the previous run reaches
        quiescence, which is what lets long-locks acknowledgments ride
        the next transaction's traffic.
        """
        handles = []
        for spec in specs:
            handles.append(self.run_transaction(spec))
        return handles

    def run(self, max_events: Optional[int] = None) -> None:
        self.simulator.run(max_events=max_events)

    def run_until(self, time: float,
                  max_events: Optional[int] = None) -> None:
        self.simulator.run_until(time, max_events=max_events)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def crash(self, node_name: str) -> None:
        self.nodes[node_name].crash()

    def restart(self, node_name: str,
                then: Optional[Callable[[], None]] = None) -> None:
        """Restart recovery for ``node_name``; ``then`` runs right after
        it (the same pair :class:`~repro.transport.live.LiveCluster`
        provides)."""
        self.nodes[node_name].restart()
        if then is not None:
            then()

    def crash_at(self, node_name: str, time: float) -> None:
        self.simulator.at(time, lambda: self.nodes[node_name].crash(),
                          name=f"crash:{node_name}")

    def restart_at(self, node_name: str, time: float) -> None:
        self.simulator.at(time, lambda: self.nodes[node_name].restart(),
                          name=f"restart:{node_name}")

    def partition(self, a: str, b: str) -> None:
        self.network.partition(a, b)

    def heal(self, a: str, b: str) -> None:
        self.network.heal(a, b)

    def partition_at(self, a: str, b: str, time: float) -> None:
        self.simulator.at(time, lambda: self.network.partition(a, b),
                          name=f"partition:{a}-{b}")

    def heal_at(self, a: str, b: str, time: float) -> None:
        self.simulator.at(time, lambda: self.network.heal(a, b),
                          name=f"heal:{a}-{b}")

    def heal_all_links(self) -> None:
        self.network.heal_all()

    # ------------------------------------------------------------------
    # Long-locks / last-agent plumbing helpers
    # ------------------------------------------------------------------
    def send_application_data(self, src: str, dst: str,
                              txn_id: str = "app-data") -> None:
        """One application data flow; carries any deferred acks along."""
        self.nodes[src].send(MessageType.DATA, dst, txn_id)
        self.simulator.run()

    def pending_deferred(self) -> int:
        return sum(len(node.deferred_messages()) for node in
                   self.nodes.values())

    def finalize_implied_acks(self) -> None:
        """Deliver the implied acknowledgments last agents wait for.

        Models the delegating coordinator continuing the conversation
        (its next data message).  Costs data flows only, so the commit
        counts the tables report are unaffected.
        """
        pending = True
        while pending:
            pending = False
            for node in list(self.nodes.values()):
                for context in list(node.contexts.values()):
                    if context.awaiting_implied_ack and \
                            context.delegated_from in self.nodes:
                        self.send_application_data(context.delegated_from,
                                                   node.name)
                        pending = True
            self.simulator.run()

    def flush_deferred_acks(self) -> None:
        """Continue every conversation holding a deferred (long-locks)
        message, so the piggybacked acks finally travel.

        Models the same ongoing-conversation assumption as
        :meth:`finalize_implied_acks`: the extra traffic is data flows
        only, so commit-cost accounting is unaffected.  The audit
        workloads call this so long-locks transactions reach their
        FORGOTTEN state and can be conformance-checked.
        """
        pending = True
        while pending:
            pending = False
            for node in list(self.nodes.values()):
                for dst, queue in list(node._deferred_outbox.items()):
                    if queue and dst in self.nodes:
                        self.send_application_data(node.name, dst)
                        pending = True
            self.simulator.run()

    # ------------------------------------------------------------------
    # Inspection (tests and benchmarks)
    # ------------------------------------------------------------------
    def durable_outcome(self, node_name: str,
                        txn_id: str) -> Optional[str]:
        """What the node's stable log says happened to the transaction."""
        return self.nodes[node_name].log.durable_outcome(txn_id)

    def recorded_outcome(self, node_name: str,
                         txn_id: str) -> Optional[str]:
        """Outcome per the node's log including the volatile buffer
        (see :meth:`repro.log.manager.LogManager.recorded_outcome`)."""
        return self.nodes[node_name].log.recorded_outcome(txn_id)

    def value(self, node_name: str, key: str, rm_name: str = "default"):
        """Read committed data outside any transaction (assertions)."""
        return self.nodes[node_name].resource_manager(rm_name).store.get(key)

    def _require_nodes(self, spec: TransactionSpec) -> None:
        missing = [p.node for p in spec.participants
                   if p.node not in self.nodes]
        if missing:
            raise ConfigurationError(
                f"spec references unknown nodes: {missing}")
