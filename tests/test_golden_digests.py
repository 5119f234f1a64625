"""Golden digests: short seeded runs pinned to what they produced.

Each cell runs a small seeded workload with a journal attached and
reduces it to the paper's cost triple (flows, log writes, forced
writes), the kernel's ``events_processed`` and the SHA-256 of the
journal's JSONL.  The journal stamps every flow, log write, force and
lock event with its simulated time and causal parents, so a shifted
float, a reordered event or a lost flow changes the digest even where
the triple does not.  A speed-up of the hot path must leave every
digest as it is; a change that moves one has changed the protocol.

To re-derive the table (after a deliberate protocol change), run
``PYTHONPATH=src python -m tests.test_golden_digests``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import pytest

from repro.core.cluster import Cluster
from repro.core.config import (
    BASIC_2PC,
    PRESUMED_ABORT,
    PRESUMED_COMMIT,
    PRESUMED_NOTHING,
)
from repro.core.spec import ParticipantSpec, TransactionSpec
from repro.log.group_commit import GroupCommitPolicy
from repro.lrm.operations import read_op, write_op
from repro.net.latency import UniformLatency
from repro.obs import JournalRecorder
from repro.sim.randomness import RandomStream
from repro.workload.chains import chained_transaction_specs

PRESETS = {"basic": BASIC_2PC, "pa": PRESUMED_ABORT,
           "pn": PRESUMED_NOTHING, "pc": PRESUMED_COMMIT}
VARIANTS = ("baseline", "read-only", "last-agent", "group-commit",
            "long-locks")
NODES = ["n0", "n1", "n2"]
SEED = 11


def flat_specs(count: int, read_only_fraction: float,
               last_agent: bool = False,
               veto_every: int = 0) -> List[TransactionSpec]:
    """Seeded flat trees rooted at ``n0``, keys private to each
    transaction (safe to run concurrently).  The last agent, when
    there is one, always updates; with ``veto_every`` every such
    transaction's last participant vetoes (an abort)."""
    rng = RandomStream(SEED)
    specs = []
    for index in range(count):
        participants = []
        for node in NODES:
            agent = last_agent and node == NODES[-1]
            read_only = (node != NODES[0] and not agent
                         and rng.chance(read_only_fraction))
            ops = [read_op(f"{node}-t{index}-a")]
            if not read_only:
                ops.append(write_op(f"{node}-t{index}-b", index))
            veto = (node == NODES[-1] and veto_every
                    and index % veto_every == veto_every - 1)
            participants.append(ParticipantSpec(
                node=node, parent=None if node == NODES[0] else NODES[0],
                ops=ops, last_agent=agent, veto=bool(veto)))
        specs.append(TransactionSpec(participants=participants,
                                     txn_id=f"t{index}"))
    return specs


def cascade_specs(count: int) -> List[TransactionSpec]:
    """Three-level trees: ``n0`` over the cascaded coordinator ``n1``,
    over ``n2`` and ``n3``; every third transaction ``n3`` vetoes."""
    parents = {"n0": None, "n1": "n0", "n2": "n1", "n3": "n1"}
    specs = []
    for index in range(count):
        participants = [
            ParticipantSpec(node=node, parent=parent,
                            ops=[read_op(f"{node}-t{index}-a"),
                                 write_op(f"{node}-t{index}-b", index)],
                            veto=node == "n3" and index % 3 == 2)
            for node, parent in parents.items()]
        specs.append(TransactionSpec(participants=participants,
                                     txn_id=f"t{index}"))
    return specs


def digest(cluster: Cluster, recorder: JournalRecorder) -> Tuple:
    journal = recorder.to_jsonl().encode("utf-8")
    return (cluster.metrics.cost_summary().as_tuple(),
            cluster.simulator.events_processed,
            hashlib.sha256(journal).hexdigest()[:16])


def run_cell(protocol: str, variant: str) -> Tuple:
    config = PRESETS[protocol]
    latency = None
    if variant == "read-only":
        config = config.with_options(read_only=True)
    elif variant == "last-agent":
        config = config.with_options(last_agent=True)
    elif variant == "group-commit":
        config = config.with_options(
            group_commit=GroupCommitPolicy(group_size=3, timeout=0.5))
        latency = UniformLatency(0.5, 1.5)
    elif variant == "long-locks":
        config = config.with_options(long_locks=True)
    nodes = ["a", "b"] if variant == "long-locks" else NODES
    cluster = Cluster(config, nodes=nodes, seed=SEED, latency=latency)
    recorder = JournalRecorder().attach(cluster)
    if variant == "long-locks":
        specs = chained_transaction_specs(8, "a", "b", long_locks=True)
        for index, spec in enumerate(specs):
            spec.txn_id = f"t{index}"
        cluster.run_transactions(specs)
        cluster.flush_deferred_acks()
    elif variant == "group-commit":
        specs = flat_specs(12, 0.25)
        rng = RandomStream(SEED + 1)
        now = 0.0
        for spec in specs:
            now += rng.expovariate(1.0)
            cluster.simulator.at(
                now, lambda spec=spec: cluster.start_transaction(spec))
        cluster.run()
    else:
        fraction = {"baseline": 0.0, "read-only": 0.5,
                    "last-agent": 0.3}[variant]
        specs = flat_specs(10, fraction, last_agent=variant == "last-agent",
                           veto_every=4 if variant == "baseline" else 0)
        cluster.run_transactions(specs)
        cluster.finalize_implied_acks()
    outcomes = [r.outcome for r in cluster.metrics.transactions]
    return digest(cluster, recorder) + (outcomes.count("commit"),)


def run_cascade(protocol: str) -> Tuple:
    """A cascaded coordinator with its own children: its initiation
    record (where the protocol writes one) precedes its prepares."""
    cluster = Cluster(PRESETS[protocol], nodes=["n0", "n1", "n2", "n3"],
                      seed=SEED)
    recorder = JournalRecorder().attach(cluster)
    cluster.run_transactions(cascade_specs(6))
    cluster.finalize_implied_acks()
    outcomes = [r.outcome for r in cluster.metrics.transactions]
    return digest(cluster, recorder) + (outcomes.count("commit"),)


def run_crash(protocol: str) -> Tuple:
    """Three clean commits, then one whose subordinate crashes in doubt
    and restarts: inquiry (PA) or coordinator-driven recovery (PN)."""
    config = PRESETS[protocol].with_options(ack_timeout=20.0,
                                            retry_interval=20.0)
    cluster = Cluster(config, nodes=NODES, seed=SEED)
    recorder = JournalRecorder().attach(cluster)
    specs = flat_specs(4, 0.0)
    cluster.run_transactions(specs[:3])
    began = cluster.simulator.now
    cluster.crash_at("n1", began + 5.0)
    cluster.restart_at("n1", began + 50.0)
    handle = cluster.start_transaction(specs[3])
    cluster.run_until(began + 300.0)
    return digest(cluster, recorder) + (handle.outcome,)


#: (protocol, variant) -> ((flows, writes, forced), events,
#: journal sha256 prefix, committed transactions).
GOLDEN: Dict[Tuple[str, str], Tuple] = {
    ('basic', 'baseline'): ((80, 78, 46), 226, 'ea2b73d41fb95912', 8),
    ('basic', 'read-only'): ((66, 59, 36), 195, 'd0d17f28ff9d1a3f', 10),
    ('basic', 'last-agent'): ((60, 80, 50), 210, '8b3b6075515d001f', 10),
    ('basic', 'group-commit'): ((96, 96, 60), 292, 'e54df0fe1605e961', 12),
    ('basic', 'long-locks'): ((24, 40, 24), 81, '3aefe723ecb995aa', 8),
    ('pa', 'baseline'): ((78, 68, 42), 220, 'c5d9fcb44c7fd032', 8),
    ('pa', 'read-only'): ((66, 59, 36), 195, 'd0d17f28ff9d1a3f', 10),
    ('pa', 'last-agent'): ((58, 77, 48), 206, '90a83120b759d3d9', 10),
    ('pa', 'group-commit'): ((82, 75, 46), 266, 'd94ca010131d4179', 12),
    ('pa', 'long-locks'): ((24, 40, 24), 81, '3aefe723ecb995aa', 8),
    ('pn', 'baseline'): ((80, 106, 74), 254, '15885e05477d4ae6', 8),
    ('pn', 'read-only'): ((66, 82, 59), 218, '2f392caf5673ce00', 10),
    ('pn', 'last-agent'): ((58, 96, 67), 225, '0616099a09caaf21', 10),
    ('pn', 'group-commit'): ((82, 104, 75), 283, '449a1b429b44b43f', 12),
    ('pn', 'long-locks'): ((24, 56, 40), 97, '860bb8f6f186dded', 8),
    ('pc', 'baseline'): ((64, 72, 40), 204, '07ef077ee6767a19', 8),
    ('pc', 'read-only'): ((53, 56, 33), 179, '36eb4ec4ad897cd5', 10),
    ('pc', 'last-agent'): ((49, 78, 49), 198, 'c1b53c0b2981eca5', 10),
    ('pc', 'group-commit'): ((65, 70, 41), 237, 'ccec19880b41c62e', 12),
    ('pc', 'long-locks'): ((24, 40, 24), 80, '30e9db8f58044f09', 8),
}

#: protocol -> (triple, events, journal sha256 prefix, committed).
GOLDEN_CASCADE: Dict[str, Tuple] = {
    'basic': ((70, 62, 34), 188, 'bcb6db1a51feeffa', 4),
    'pa': ((68, 48, 30), 182, '683189afbf297c3d', 4),
    'pn': ((70, 88, 60), 214, 'ea83668b5df67bdc', 4),
    'pc': ((58, 62, 34), 176, '6771cc3c23df539f', 4),
}

#: protocol -> (triple, events, journal sha256 prefix, outcome).
GOLDEN_CRASH: Dict[str, Tuple] = {
    'pa': ((31, 32, 20), 101, 'f9168d4782979aa9', 'commit'),
    'pn': ((31, 44, 32), 113, 'c358ab9b9e4ba2e1', 'commit'),
}


@pytest.mark.parametrize("protocol", list(PRESETS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_cell_digest_is_unchanged(protocol, variant):
    assert run_cell(protocol, variant) == GOLDEN[protocol, variant]


@pytest.mark.parametrize("protocol", list(GOLDEN_CASCADE))
def test_cascade_digest_is_unchanged(protocol):
    assert run_cascade(protocol) == GOLDEN_CASCADE[protocol]


@pytest.mark.parametrize("protocol", list(GOLDEN_CRASH))
def test_crash_restart_digest_is_unchanged(protocol):
    assert run_crash(protocol) == GOLDEN_CRASH[protocol]


if __name__ == "__main__":
    print("GOLDEN = {")
    for protocol in PRESETS:
        for variant in VARIANTS:
            print(f"    ({protocol!r}, {variant!r}): "
                  f"{run_cell(protocol, variant)!r},")
    print("}")
    print("GOLDEN_CASCADE = {")
    for protocol in PRESETS:
        print(f"    {protocol!r}: {run_cascade(protocol)!r},")
    print("}")
    print("GOLDEN_CRASH = {")
    for protocol in ("pa", "pn"):
        print(f"    {protocol!r}: {run_crash(protocol)!r},")
    print("}")
