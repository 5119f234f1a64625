"""Randomized protocol fuzzing with online verification.

Drives batches of randomized runs — random commit trees, random
veto/read-only placement, random crash or partition schedules, and
jittered (FIFO) links — on the campaign runner of
:mod:`repro.faults.campaign`, and reports every run its one verdict
fails.  Exposed as ``repro-2pc fuzz``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.cluster import Cluster
from repro.core.spec import ParticipantSpec, TransactionSpec
from repro.faults.campaign import CONFIGS, TIMEOUTS, Trial, judge
from repro.lrm.operations import read_op, write_op
from repro.net.latency import UniformLatency
from repro.sim.randomness import RandomStream


@dataclass
class FuzzReport:
    runs: int = 0
    committed: int = 0
    aborted: int = 0
    unresolved: int = 0
    crashes_injected: int = 0
    partitions_injected: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        lines = [
            f"{self.runs} randomized runs "
            f"({self.committed} committed, {self.aborted} aborted, "
            f"{self.unresolved} unresolved — an unresolved run means "
            f"the application lost its coordinator before commit "
            f"processing began)",
            f"faults injected: {self.crashes_injected} crashes, "
            f"{self.partitions_injected} partitions",
        ]
        if self.violations:
            lines.append(f"{len(self.violations)} VIOLATIONS:")
            lines.extend(f"  {v}" for v in self.violations)
        else:
            lines.append("no protocol violations")
        return "\n".join(lines)


def _random_spec(rng: RandomStream, max_nodes: int,
                 txn_id: str) -> TransactionSpec:
    n = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(n)]
    participants = [ParticipantSpec(node="n0")]
    for index in range(1, n):
        parent = names[rng.randint(0, index - 1)]
        participants.append(ParticipantSpec(node=names[index],
                                            parent=parent))
    for participant in participants:
        kind = rng.choice(["update", "update", "read", "none"])
        if kind == "update":
            participant.ops.append(
                write_op(f"k-{participant.node}", rng.randint(0, 99)))
        elif kind == "read":
            participant.ops.append(read_op("shared"))
        if rng.chance(0.08):
            participant.veto = True
    return TransactionSpec(participants=participants, txn_id=txn_id)


def fuzz(runs: int = 25, seed: int = 0, max_nodes: int = 6,
         fault_rate: float = 0.6) -> FuzzReport:
    """Run ``runs`` randomized, fault-injected, verified simulations."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    rng = RandomStream(seed)
    configs = list(CONFIGS.values())
    report = FuzzReport()
    for index in range(runs):
        report.runs += 1
        # Explicit txn id: the global transaction counter's state would
        # otherwise leak into the spec, making two fuzz() invocations
        # (or in-process vs forked-worker runs) diverge.
        spec = _random_spec(rng, max_nodes, txn_id=f"fuzz-{seed}-{index}")
        config = rng.choice(configs).with_options(**TIMEOUTS)
        nodes = [p.node for p in spec.participants]
        trial = Trial(Cluster(config, nodes=nodes, seed=seed * 1000 + index,
                              latency=UniformLatency(0.5, 2.0)), spec)
        cluster = trial.cluster

        if len(nodes) > 1 and rng.chance(fault_rate):
            if rng.chance(0.5):
                victim = rng.choice(nodes)
                at = rng.uniform(0.5, 15.0)
                cluster.crash_at(victim, at)

                def restart(victim=victim) -> None:
                    cluster.restart(victim)
                    trial.restarted(victim)

                cluster.simulator.at(at + rng.uniform(10.0, 40.0), restart,
                                     name=f"restart:{victim}")
                report.crashes_injected += 1
            else:
                edges = [(p.parent, p.node) for p in spec.participants
                         if p.parent is not None]
                a, b = rng.choice(edges)
                at = rng.uniform(0.5, 15.0)
                cluster.partition_at(a, b, at)
                cluster.heal_at(a, b, at + rng.uniform(10.0, 60.0))
                report.partitions_injected += 1

        trial.run()
        report.violations.extend(judge(trial)[1])
        if trial.outcome is None:
            report.unresolved += 1
        elif trial.outcome == "commit":
            report.committed += 1
        else:
            report.aborted += 1
    return report
