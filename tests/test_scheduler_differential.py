"""Differential tests: the timing-wheel scheduler vs the binary heap.

The wheel (:class:`repro.sim.events.WheelEventQueue`) exists purely as
an optimization; it must be *observationally identical* to the heap
reference (:class:`tests.heap_queue.HeapEventQueue`).  These tests run
whole protocol workloads — not queue microtests — under each scheduler
and demand bit-identical results: same transaction outcomes, same
checker verdicts, same per-transaction cost triples, same trace event
order, same metrics fingerprint.

Any divergence here means the wheel reordered two events that the
``(time, priority, seq)`` contract says are ordered — exactly the class
of bug a faster scheduler is most likely to introduce.
"""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import (
    BASIC_2PC,
    PRESUMED_ABORT,
    PRESUMED_COMMIT,
    PRESUMED_NOTHING,
)
from repro.core.spec import flat_tree
from repro.lrm.operations import write_op
from repro.obs import CostLedger
from repro.parallel.pool import RunSpec, run_specs
from repro.sim.events import WheelEventQueue
from repro.sim.kernel import Simulator
from repro.sim.randomness import RandomStream
from repro.trace.recorder import Tracer
from repro.verify.checker import ProtocolChecker
from repro.workload.generator import WorkloadGenerator, WorkloadParams
from tests.heap_queue import HeapEventQueue

PROTOCOLS = {
    "basic": BASIC_2PC,
    "presumed_abort": PRESUMED_ABORT,
    "presumed_nothing": PRESUMED_NOTHING,
    "presumed_commit": PRESUMED_COMMIT,
}


@pytest.fixture
def default_queue():
    """Restore ``Simulator.default_queue_class`` after each test."""
    saved = Simulator.default_queue_class
    yield
    Simulator.default_queue_class = saved


def _workload_fingerprint(config, queue_class, seed=11, txns=10):
    """One full observed run: outcomes, verdicts, costs, trace, metrics."""
    Simulator.default_queue_class = queue_class
    nodes = ["n0", "n1", "n2"]
    cluster = Cluster(config, nodes=nodes, seed=seed)
    tracer = Tracer().attach(cluster)
    checker = ProtocolChecker().attach(cluster)
    ledger = CostLedger().attach(cluster)
    generator = WorkloadGenerator(
        nodes, WorkloadParams(read_only_fraction=0.3, key_space=4),
        RandomStream(seed))
    outcomes = []
    txn_ids = []
    for spec in generator.stream(txns):
        handle = cluster.run_transaction(spec)
        outcomes.append(handle.outcome)
        txn_ids.append(spec.txn_id)
    metrics = cluster.metrics
    # Txn ids draw from a process-global counter, so two runs in the
    # same process name their transactions differently; normalize to
    # ordinals before comparing.
    alias = {txn: f"t{index}" for index, txn in enumerate(txn_ids)}

    def norm(text):
        if text is None:
            return text
        for txn, short in alias.items():
            text = text.replace(txn, short)
        return text

    return {
        "queue": type(cluster.simulator._queue).__name__,
        "pending": len(cluster.simulator._queue),
        "outcomes": outcomes,
        "verdicts": [norm(str(v)) for v in checker.violations],
        "costs": [ledger.cost_summary(txn) for txn in txn_ids],
        "trace": [(e.time, e.kind, e.node, e.dst, e.forced,
                   alias.get(e.txn_id, e.txn_id), norm(e.text))
                  for e in tracer.events],
        "metrics": (metrics.commit_flows(), metrics.total_log_writes(),
                    metrics.forced_log_writes(), metrics.physical_ios(),
                    metrics.mean_latency()),
    }


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_protocol_run_identical_on_heap_and_wheel(protocol, default_queue):
    config = PROTOCOLS[protocol]
    wheel = _workload_fingerprint(config, WheelEventQueue)
    heap = _workload_fingerprint(config, HeapEventQueue)
    assert wheel["queue"] == "WheelEventQueue"
    assert heap["queue"] == "HeapEventQueue"
    # Every run_transaction drained the queue: nothing is pending, and
    # in particular the count has not gone negative (the fused drains
    # once counted each cancelled entry done twice).
    assert wheel["pending"] == heap["pending"] == 0
    for key in ("outcomes", "verdicts", "costs", "trace", "metrics"):
        assert wheel[key] == heap[key], f"{protocol}: {key} diverged"


def _group_commit_run(queue_class, txns=60):
    """Overlapping transactions under group commit: every batch that
    fills cancels its group timer from inside an event."""
    from repro.log.group_commit import GroupCommitPolicy
    Simulator.default_queue_class = queue_class
    config = PRESUMED_NOTHING.with_options(
        group_commit=GroupCommitPolicy(group_size=3, timeout=2.0))
    cluster = Cluster(config, nodes=["n0", "n1", "n2"], seed=5)
    handles = []
    for index in range(txns):
        spec = flat_tree("n0", ["n1", "n2"], txn_id=f"gc-{index}")
        for participant in spec.participants:
            participant.ops.append(
                write_op(f"{participant.node}-{index}", index))
        cluster.simulator.at(
            0.4 * index, lambda spec=spec: handles.append(
                cluster.start_transaction(spec)))
    cluster.run()
    simulator = cluster.simulator
    return ([handle.outcome for handle in handles], simulator.now,
            simulator.events_processed, len(simulator._queue),
            simulator.pending_events)


def test_drained_group_commit_run_leaves_empty_queue(default_queue):
    wheel = _group_commit_run(WheelEventQueue)
    assert wheel == _group_commit_run(HeapEventQueue)
    assert set(wheel[0]) == {"commit"}
    assert wheel[3] == 0 and wheel[4] == 0


def _crash_fingerprint(queue_class):
    """Crash/recovery run: timers, retries and restart events exercise
    the wheel's far-future overflow and cancellation paths."""
    Simulator.default_queue_class = queue_class
    config = PRESUMED_ABORT.with_options(ack_timeout=15.0,
                                         retry_interval=15.0)
    cluster = Cluster(config, nodes=["c", "s"], seed=3)
    tracer = Tracer().attach(cluster)
    checker = ProtocolChecker().attach(cluster)
    spec = flat_tree("c", ["s"], txn_id="diff-crash")
    for participant in spec.participants:
        participant.ops.append(write_op(f"key-{participant.node}", 1))
    cluster.crash_at("s", 4.5)
    cluster.restart_at("s", 40.0)
    handle = cluster.start_transaction(spec)
    cluster.run_until(300.0)
    metrics = cluster.metrics
    return (handle.outcome,
            [str(v) for v in checker.violations],
            [(e.time, e.kind, e.node, e.dst, e.forced, e.txn_id, e.text)
             for e in tracer.events],
            metrics.commit_flows(), metrics.recovery_flows(),
            metrics.total_log_writes())


def test_crash_recovery_identical_on_heap_and_wheel(default_queue):
    assert _crash_fingerprint(WheelEventQueue) == \
        _crash_fingerprint(HeapEventQueue)


def _seeded_outcome_row(seed):
    cluster = Cluster(PRESUMED_ABORT, nodes=["a", "b"], seed=seed)
    generator = WorkloadGenerator(
        ["a", "b"], WorkloadParams(read_only_fraction=0.5, key_space=3),
        RandomStream(seed))
    outcomes = [cluster.run_transaction(spec).outcome
                for spec in generator.stream(4)]
    metrics = cluster.metrics
    return (outcomes, metrics.total_log_writes(), metrics.physical_ios(),
            metrics.mean_latency())


def test_serial_equals_parallel_on_wheel(default_queue):
    """run_specs merges by index, so workers=1 and workers=2 must agree
    bit-for-bit on the wheel scheduler (floats compared exactly)."""
    Simulator.default_queue_class = WheelEventQueue
    specs = [RunSpec(label=f"seed-{seed}", fn=_seeded_outcome_row,
                     kwargs={"seed": seed}) for seed in (1, 2, 3, 4)]
    assert run_specs(specs, workers=1) == run_specs(specs, workers=2)


def test_queue_microworkload_identical(default_queue):
    """Mixed push/cancel/pop at adversarial times (day boundaries,
    equal instants, far-future, +inf) pops identically on both."""
    wheel, heap = WheelEventQueue(), HeapEventQueue()
    times = [0.0, 1023.999, 1024.0, 1024.0, 0.5, 262144.0, 5.0e9,
             float("inf"), 2048.0, 1024.0001, 0.5, 900.25]
    handles = []
    for index, t in enumerate(times):
        priority = (index % 3) - 1
        handles.append((
            wheel.push(t, lambda: None, name=f"e{index}",
                       priority=priority),
            heap.push(t, lambda: None, name=f"e{index}",
                      priority=priority)))
    for index in (1, 4, 7, 10):
        assert wheel.cancel(handles[index][0]) == \
            heap.cancel(handles[index][1])
    wheel_order = [(e.time, e.priority, e.seq, e.name)
                   for e in wheel.drain()]
    heap_order = [(e.time, e.priority, e.seq, e.name)
                  for e in heap.drain()]
    assert wheel_order == heap_order
    assert len(wheel) == len(heap) == 0
