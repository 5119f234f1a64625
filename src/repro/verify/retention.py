"""Retention checks: what a cluster still holds once its work is done.

The presumption protocols are defined by what a transaction manager may
*forget*; this module measures whether the implementation does.  One
run of a workload under ``gc.disable()`` answers four questions:

(i)   **No cyclic garbage.**  ``gc.collect()`` after the run finds zero
      unreachable objects — everything a finished transaction owned was
      freed by reference count, the only mechanism that works while a
      benchmark defers collection.
(ii)  **Nothing left at rest.**  Every per-transaction structure on
      every node is empty (:func:`leftovers`).
(iii) **Flat memory.**  ``tracemalloc`` bytes per transaction in the
      second quarter of the run equal those in the last quarter, and
      the whole run meets a budget (what legitimately stays is the
      stable log and the metrics, both stored compactly).  A quarter's
      figure counts *small* blocks (at most 512 bytes: the objects
      finished transactions leave behind).  The few large blocks are
      the buffers of growing arrays and hash tables, whose capacity
      grows in amortised steps that fall into one quarter or another;
      they are judged, slack included, by the budget, which is on the
      whole run's average.
(iv)  **Flat time.**  The last hundred transactions execute no more
      source lines than the first hundred: nothing on the hot path
      walks history.  (Lines executed, counted by a trace function,
      are time in a unit that does not depend on the machine or on
      what else it is running.)

Every measure is deterministic — no RSS, no clock — so the same
numbers gate ``run_baseline.py`` on any machine.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.cluster import Cluster
from repro.core.spec import ParticipantSpec, TransactionSpec
from repro.lrm.operations import Operation, read_op, write_op
from repro.net.latency import UniformLatency
# The cells are the conformance audit's: its protocols, its variants,
# its configurations.
from repro.obs.audit import AUDIT_PROTOCOLS as PROTOCOLS
from repro.obs.audit import AUDIT_VARIANTS as VARIANTS
from repro.obs.audit import cell_config
from repro.sim.randomness import RandomStream

#: Resident bytes per finished transaction the two perfbench-shaped
#: workloads may keep (stable log + metrics, on every node together).
STEADY_BUDGET = 3.5 * 1024
CONTENDED_BUDGET = 9.0 * 1024

#: Transactions per round: the cluster is drained, and sampled, between
#: rounds (see :func:`run_workload`).
_SAMPLE = 100

#: Largest block counted as an object rather than a container's buffer
#: (the allocator's own small-object threshold).
_SMALL_BLOCK = 512


@dataclass
class RetentionReport:
    """What one run left behind."""

    txns: int
    #: Objects ``gc.collect()`` found unreachable after the run.
    unreachable: int
    #: structure name -> entries still resident at rest (all zero when
    #: the cluster forgot everything).
    leftovers: Dict[str, int]
    #: Traced bytes at the end of the run (None unless traced; tracing
    #: starts with the run, so this is growth) and, at the end of each
    #: quarter, the part of them in small blocks.
    traced_bytes: Optional[int] = None
    small_bytes: List[int] = field(default_factory=list)
    #: Source lines executed by the first and by the last round (empty
    #: unless traced).
    round_lines: List[int] = field(default_factory=list)
    #: ``serve`` only: the traced peak while serving, and while draining.
    peak_bytes: Optional[int] = None
    drain_peak_bytes: Optional[int] = None

    def bytes_per_txn(self, quarter: Optional[int] = None) -> float:
        """Resident bytes a transaction adds: the whole run's average,
        or what ``quarter`` (1-4) added in small blocks."""
        if quarter is None:
            return self.traced_bytes / self.txns
        before = self.small_bytes[quarter - 2] if quarter > 1 else 0
        return (self.small_bytes[quarter - 1] - before) / (self.txns / 4)

    def problems(self, budget: Optional[float] = None) -> List[str]:
        """Every check this run fails, as sentences (empty: all pass)."""
        found = []
        if self.unreachable:
            found.append(f"(i) gc.collect() found {self.unreachable} "
                         f"unreachable objects; expected 0")
        resident = {k: v for k, v in self.leftovers.items() if v}
        if resident:
            found.append(f"(ii) left at rest: {resident}")
        if self.traced_bytes is not None:
            early, late = self.bytes_per_txn(2), self.bytes_per_txn(4)
            if abs(late - early) > 0.05 * early:
                found.append(f"(iii) bytes/txn moved from {early:.0f} "
                             f"(quarter 2) to {late:.0f} (quarter 4)")
            if budget is not None and self.bytes_per_txn() > budget:
                found.append(f"(iii) {self.bytes_per_txn():.0f} bytes/txn "
                             f"is over the {budget:.0f} budget")
        if self.round_lines and self.time_ratio() > 1.15:
            found.append(f"(iv) the last round executed "
                         f"{self.time_ratio():.2f}x the first round's lines")
        return found

    def time_ratio(self) -> float:
        """Lines the last round executed per line the first one did."""
        return self.round_lines[-1] / self.round_lines[0]


class _LineCounter:
    """A trace function that counts the source lines executed."""

    def __init__(self) -> None:
        self.lines = 0

    def __call__(self, frame, event, arg):
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines += 1
        return self._line


def _lines_executed(run: Callable[[], None]) -> int:
    counter = _LineCounter()
    previous = sys.gettrace()
    sys.settrace(counter)
    try:
        run()
    finally:
        sys.settrace(previous)
    return counter.lines


def leftovers(cluster) -> Dict[str, int]:
    """Entries still held, summed over nodes, by every structure that
    should be proportional to the transactions in flight."""
    counts = {"contexts": 0, "implied_ack_waiters": 0, "deferred_outbox": 0,
              "arrivals_past_a_gap": 0,
              "lock_table": 0, "held_by_txn": 0, "waiting_by_txn": 0,
              "first_acquire_at": 0, "rm_txns": 0, "veto_txns": 0,
              "kv_undo": 0}
    for node in cluster.nodes.values():
        counts["contexts"] += len(node.contexts)
        counts["implied_ack_waiters"] += len(node._implied_ack_waiters)
        counts["deferred_outbox"] += len(node._deferred_outbox)
        counts["arrivals_past_a_gap"] += sum(
            len(arrivals.above) for arrivals in node._arrivals.values())
        for rm in node.all_rms():
            locks = rm.locks
            counts["lock_table"] += len(locks._table)
            counts["held_by_txn"] += len(locks._held_by_txn)
            counts["waiting_by_txn"] += len(locks._waiting_by_txn)
            counts["first_acquire_at"] += len(locks._first_acquire_at)
            counts["rm_txns"] += len(rm._txns)
            counts["veto_txns"] += len(rm.veto_txns)
            counts["kv_undo"] += len(rm.store._undo)
    return counts


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def star_specs(variant: str, names: Sequence[str], count: int,
               hot_keys: int, seed: int,
               read_only_fraction: float = 0.25) -> List[TransactionSpec]:
    """Deadlock-free specs that may run concurrently: a star rooted at
    the first node, two keys private to the transaction per participant
    and, on the last node, one of ``hot_keys`` shared keys (one
    contended key per transaction keeps the waits-for graph a forest;
    the lock manager detects cycles per node only).  ``variant`` picks
    what the last node is: a read-only voter, the last agent, or an
    updater like the rest.  (A last agent always updates something: one
    whose own work is read-only decides "all read-only" and never tells
    a delegator that voted YES — a wedge that predates this module.)"""
    rng = RandomStream(seed)
    root, last = names[0], names[-1]
    specs = []
    for index in range(count):
        participants = []
        for name in names:
            read_only = (variant == "read_only" and name == last) or (
                name not in (root, last) and rng.chance(read_only_fraction))
            ops: List[Operation] = []
            agent = variant == "last_agent" and name == last
            for slot in ("a", "b"):
                key = f"{name}-t{index}-{slot}"
                update = rng.chance(0.8) or (agent and slot == "a")
                if read_only or not update:
                    ops.append(read_op(key))
                else:
                    ops.append(write_op(key, rng.randint(0, 10_000)))
            if name == last and hot_keys:
                key = f"hot-{rng.randint(0, hot_keys - 1)}"
                if read_only or not rng.chance(0.5):
                    ops.append(read_op(key))
                else:
                    ops.append(write_op(key, index))
            participants.append(ParticipantSpec(
                node=name, parent=None if name == root else root, ops=ops,
                last_agent=agent))
        specs.append(TransactionSpec(participants=participants,
                                     txn_id=f"t{index}"))
    return specs


def steady_specs(names: Sequence[str], count: int,
                 seed: int) -> List[TransactionSpec]:
    """The sequential mix perfbench's ``sim_pa_steady`` runs: a quarter
    of the subordinates read-only, 64 shared keys per node."""
    from repro.workload.generator import WorkloadGenerator, WorkloadParams
    generator = WorkloadGenerator(
        list(names), WorkloadParams(read_only_fraction=0.25, key_space=64),
        RandomStream(seed))
    specs = list(generator.stream(count))
    for index, spec in enumerate(specs):
        spec.txn_id = f"t{index}"
    return specs


def run_workload(cluster: Cluster, specs: Sequence[TransactionSpec],
                 mean_gap: Optional[float] = None, seed: int = 0,
                 trace: bool = False) -> RetentionReport:
    """Run ``specs`` to completion under ``gc.disable()`` and report.

    ``mean_gap`` None runs them one after another; otherwise they
    arrive as a Poisson stream with that mean simulated gap (about
    ``commit time / mean_gap`` in flight).  Every transaction must
    commit.  The run proceeds in rounds of ``_SAMPLE`` transactions,
    each drained before memory is read, so the samples see the cluster
    at rest: what finished transactions left, not what those in flight
    happen to hold.  ``trace`` measures memory (tracemalloc, all the
    way) and time (lines executed by the first and the last round).
    """
    simulator = cluster.simulator
    rng = RandomStream(seed ^ 0x5EED)
    committed = 0
    traced = None
    small: List[int] = []
    lines: List[int] = []

    def finished(handle) -> None:
        nonlocal committed
        assert handle.committed, f"{handle.txn_id}: {handle.outcome}"
        committed += 1

    def arrive(pending) -> None:
        # Each arrival schedules the next: the event queue never holds
        # a round's worth of them.
        spec = next(pending, None)
        if spec is not None:
            simulator.schedule(rng.expovariate(1.0 / mean_gap),
                               lambda: arrive(pending))
            cluster.start_transaction(spec).on_done(finished)

    def run_round(first: int) -> None:
        if mean_gap is None:
            for spec in specs[first:first + _SAMPLE]:
                finished(cluster.run_transaction(spec))
        else:
            arrive(iter(specs[first:first + _SAMPLE]))
            cluster.run()

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    if trace:
        tracemalloc.start()
    try:
        rounds = range(0, len(specs), _SAMPLE)
        for first in rounds:
            if trace and first in (rounds[0], rounds[-1]):
                lines.append(_lines_executed(lambda: run_round(first)))
            else:
                run_round(first)
            if trace and committed % (len(specs) // 4) == 0:
                small.append(sum(
                    block.size for block
                    in tracemalloc.take_snapshot().traces
                    if block.size <= _SMALL_BLOCK))
        cluster.finalize_implied_acks()
        assert committed == len(specs), (committed, len(specs))
        if trace:
            traced = tracemalloc.get_traced_memory()[0]
        unreachable = gc.collect()
    finally:
        if trace:
            tracemalloc.stop()
        if enabled:
            gc.enable()
    return RetentionReport(
        txns=len(specs), unreachable=unreachable,
        leftovers=leftovers(cluster), traced_bytes=traced,
        small_bytes=small, round_lines=lines)


def run_cell(protocol: str, variant: str, txns: int = 300,
             concurrent: bool = False, seed: int = 7) -> RetentionReport:
    """One protocol x optimization cell of the audit matrix, run long
    enough to show what accumulates."""
    names = ["n0", "n1", "n2"]
    cluster = Cluster(cell_config(protocol, variant), nodes=names,
                      seed=seed, latency=UniformLatency(0.5, 1.5))
    specs = star_specs(variant, names, txns,
                       hot_keys=8 if concurrent else 0, seed=seed)
    return run_workload(cluster, specs,
                        mean_gap=1.0 if concurrent else None, seed=seed)


def run_steady(txns: int = 4000, seed: int = 1000,
               trace: bool = True) -> RetentionReport:
    """perfbench's ``sim_pa_steady`` shape: 3-node Presumed Abort,
    transactions one after another."""
    from repro.core.config import PRESUMED_ABORT
    names = ["n0", "n1", "n2"]
    cluster = Cluster(PRESUMED_ABORT, nodes=names, seed=seed)
    return run_workload(cluster, steady_specs(names, txns, seed),
                        trace=trace)


def run_contended(txns: int = 4000, seed: int = 1000,
                  trace: bool = True) -> RetentionReport:
    """perfbench's ``sim_pn_contended`` shape: 5-node Presumed Nothing
    with group commit, Poisson arrivals (~10 in flight), 8 hot keys."""
    from repro.core.config import PRESUMED_NOTHING
    from repro.log.group_commit import GroupCommitPolicy
    names = [f"n{index}" for index in range(5)]
    config = PRESUMED_NOTHING.with_options(
        group_commit=GroupCommitPolicy(group_size=4, timeout=0.5))
    cluster = Cluster(config, nodes=names, seed=seed,
                      latency=UniformLatency(0.5, 1.5))
    specs = star_specs("baseline", names, txns, hot_keys=8, seed=seed)
    return run_workload(cluster, specs, mean_gap=1.0, seed=seed,
                        trace=trace)


#: Resident bytes per finished transaction ``serve`` may keep (stable
#: log mirror, metrics, store contents and the journal's string table),
#: and what its drain may add to the peak of the run.
SERVE_BUDGET = 3.0 * 1024
DRAIN_SLACK = 4 * 1024 * 1024


def serve_problems(report: RetentionReport) -> List[str]:
    """What a :func:`run_serve` report fails, as sentences: the budget,
    the last quarter within 1.1x the first, the drain's slack."""
    found = []
    if report.bytes_per_txn() > SERVE_BUDGET:
        found.append(f"{report.bytes_per_txn():.0f} bytes/txn is over "
                     f"the {SERVE_BUDGET:.0f} budget")
    first, last = report.bytes_per_txn(1), report.bytes_per_txn(4)
    if last > 1.1 * first:
        found.append(f"bytes/txn grew from {first:.0f} (quarter 1) to "
                     f"{last:.0f} (quarter 4)")
    spike = report.drain_peak_bytes - report.peak_bytes
    if spike > DRAIN_SLACK:
        found.append(f"the drain peaked {spike / 2**20:.1f} MB over the "
                     f"run's peak")
    return found


def run_serve(txns: int = 5000, seed: int = 1000,
              connections: int = 2) -> RetentionReport:
    """``serve`` as shipped — 3-node Presumed Abort, file WALs, admin
    plane, journal spilling — driven over TCP by ``connections``
    closed-loop clients in the same process, in forty rounds, then
    drained.

    Tracing starts after one warm-up round; memory is read at rest (the
    cluster quiescent and a ``/status`` request made, which runs the
    watchdog tick that spills the journal) before the run and at the
    end of each quarter, so ``small_bytes`` has five samples and
    ``bytes_per_txn(1)`` is the first quarter's growth.  The traced
    peak is read before the drain and again over it (the drain writes
    the whole journal).
    """
    import asyncio
    import shutil
    import tempfile

    from repro.core.config import PRESUMED_ABORT
    from repro.transport.live import ServeControl, serve
    from repro.transport.wire import encode_frame, read_frame, spec_to_wire

    names = ["n0", "n1", "n2"]
    size = txns // 40                 # per round; ten rounds a quarter
    specs = star_specs("baseline", names, txns + size, hot_keys=0,
                       seed=seed)
    frames = [encode_frame({"kind": "begin", "spec": spec_to_wire(spec)})
              for spec in specs]
    del specs
    small: List[int] = []
    traced = peak = drain_peak = None
    log_dir = tempfile.mkdtemp(prefix="repro-retention-")

    async def run() -> None:
        nonlocal traced, peak, drain_peak
        control = ServeControl()
        up = asyncio.get_running_loop().create_future()
        server = asyncio.ensure_future(serve(
            PRESUMED_ABORT.with_options(io_latency=0.0), names, seed=seed,
            log_dir=log_dir, control=control,
            ready=lambda cluster, addresses: up.set_result(cluster)))
        cluster = await up
        streams = [await asyncio.open_connection(
            *cluster.transport.address(names[0]))
            for _ in range(connections)]

        async def client(reader, writer, batch) -> None:
            for frame in batch:
                writer.write(frame)
                reply = await read_frame(reader)
                assert reply["outcome"] == "commit", reply

        async def round_of(first: int) -> None:
            batch = frames[first:first + size]
            await asyncio.gather(*(
                client(reader, writer, batch[index::connections])
                for index, (reader, writer) in enumerate(streams)))
            await cluster.wait_quiescent()

        async def at_rest() -> int:
            """Small-block bytes with the cluster at rest."""
            reader, writer = await asyncio.open_connection(
                *cluster.admin_address)
            writer.write(b"GET /status HTTP/1.1\r\n\r\n")
            await reader.read()
            writer.close()
            gc.collect()
            return sum(block.size for block
                       in tracemalloc.take_snapshot().traces
                       if block.size <= _SMALL_BLOCK)

        try:
            await round_of(0)
            tracemalloc.start()
            small.append(await at_rest())
            for round_no in range(1, 41):
                await round_of(round_no * size)
                if round_no % 10 == 0:
                    small.append(await at_rest())
            traced, peak = tracemalloc.get_traced_memory()
            for _reader, writer in streams:
                writer.close()
            tracemalloc.reset_peak()
            control.request_drain("retention run done")
            await server
            drain_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            if not server.done():
                control.request_drain("retention run failed")
                await server

    try:
        asyncio.run(run())
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)
    return RetentionReport(txns=txns, unreachable=0, leftovers={},
                           traced_bytes=traced,
                           small_bytes=[sample - small[0]
                                        for sample in small[1:]],
                           peak_bytes=peak, drain_peak_bytes=drain_peak)
