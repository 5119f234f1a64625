"""The process that hosts the protocol stack for one measured run.

``python -m perfbench.host '<json>'`` is spawned by the driver
(:mod:`perfbench.workloads`) once per repetition, so that CPU time and
peak RSS belong to one run, the traced run's monkey-patches never
leak into an untraced one, and set-up (interpreter start + imports +
spec generation + cluster build / mesh) can be timed from outside as
"spawn → READY" and sampled several times per run.

Protocol on stdout, one line each: ``READY {json}`` when the first
timed operation could start, ``SNAP {json}`` in answer to a ``snap``
line on stdin (live host only), ``RESULT {json}`` at the end.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional, Sequence

from perfbench import specs as specgen   # the package puts src/ on sys.path
from perfbench.stats import (median, percentile, quarter_ratio,
                             summarize_latencies)

#: Spec pool per measured second.  A time-bounded run cannot know its
#: transaction count in advance, and generating specs inside the timed
#: loop would bill the generator to the program; the pool is sized for
#: ~4x today's fastest workload so a later speed-up does not exhaust it.
POOL_PER_SECOND = 2400

#: Completions per latency slice of ``sim_pn_contended`` (see there).
SLICE_TXNS = 100

#: Transactions per ``sim_pa_observed`` cell: short enough that context
#: retention (what ``sim_pa_steady`` measures) stays out of the picture.
OBSERVED_CELL_TXNS = 500


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def usage() -> dict:
    return {"t": perf_counter(), "cpu_s": process_time(),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def cluster_counters(cluster) -> dict:
    """Public counters of one cluster (sim or live), read at rest."""
    metrics = cluster.metrics
    cost = metrics.cost_summary()
    sim_latencies = [record.latency for record in metrics.transactions]
    lock_holds = list(metrics.lock_holds)
    return {
        "events": cluster.simulator.events_processed,
        "flows": cost.flows,
        "log_writes": cost.log_writes,
        "forced_writes": cost.forced_writes,
        "ios": metrics.physical_ios(),
        "forces": len(metrics.force_latencies),
        "lock_hold_mean": metrics.mean_lock_hold(),
        "lock_hold_p99": percentile(lock_holds, 0.99),
        "contexts": sum(len(node.contexts)
                        for node in cluster.nodes.values()),
        "sim_latency_p50": percentile(sim_latencies, 0.50),
        "sim_latency_p99": percentile(sim_latencies, 0.99),
        "samples_retained": (
            len(metrics.flows) + len(metrics.log_writes)
            + len(metrics.local_flows) + len(metrics.log_ios)
            + len(metrics.transactions) + len(metrics.lock_holds)
            + len(metrics.force_latencies)),
    }


def run_result(attempted: int, committed: int, wall: float, cpu: float,
               latencies: List[float], done_offsets: Sequence[float],
               counters: dict, tracer, error: Optional[str]) -> dict:
    return {
        "attempted": attempted,
        "committed": committed,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": usage()["peak_rss_mb"],
        "latency": summarize_latencies(latencies),
        "steady_state_ratio": quarter_ratio(done_offsets, wall),
        "counters": counters,
        "trace": tracer.snapshot() if tracer is not None else None,
        # The wall the spans ran under (differs from wall_s only where
        # wall_s is a scaled per-cell median).
        "trace_wall_s": wall,
        "error": error,
    }


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
def run_sequential(cluster, specs, seconds: Optional[float],
                   hard_timeout: float):
    """Run specs one after another until the budget is used (or, with
    no budget, until the specs are).  Returns (attempted, committed,
    begin, per-transaction end stamps, error)."""
    from repro.sim.kernel import SimulationError
    stamps: List[float] = []
    committed = 0
    error = None
    began = perf_counter()
    deadline = began + (seconds if seconds is not None else hard_timeout)
    for spec in specs:
        try:
            if cluster.run_transaction(spec).committed:
                committed += 1
        except SimulationError as failure:
            error = str(failure)
            stamps.append(perf_counter())
            break
        now = perf_counter()
        stamps.append(now)
        if now >= deadline:
            if seconds is None:
                error = f"watchdog: {hard_timeout:.0f}s wall timeout"
            break
    return len(stamps), committed, began, stamps, error


def sim_pa_steady(args: dict, tracer, ready: Callable[..., bool]) -> dict:
    from repro.core.cluster import Cluster
    from repro.core.config import PRESUMED_ABORT
    from repro.sim.gcpolicy import deferred_gc

    names = specgen.node_names(3)
    pool = args["txns"] or int(args["seconds"] * POOL_PER_SECOND)
    specs = specgen.steady_specs(args["seed"], pool, names)
    cluster = Cluster(PRESUMED_ABORT, nodes=names, seed=args["seed"])
    if not ready():
        return {}
    budget = None if args["txns"] else args["seconds"]
    with deferred_gc():
        cpu0 = process_time()
        attempted, committed, began, stamps, error = run_sequential(
            cluster, specs, budget, args["hard_timeout"])
        cpu = process_time() - cpu0
        wall = stamps[-1] - began
        latencies = [b - a for a, b in zip([began] + stamps, stamps)]
        return run_result(
            attempted, committed, wall, cpu, latencies,
            [stamp - began for stamp in stamps],
            cluster_counters(cluster), tracer, error)


def sim_pn_contended(args: dict, tracer,
                     ready: Callable[..., bool]) -> dict:
    from repro.core.cluster import Cluster
    from repro.core.config import PRESUMED_NOTHING
    from repro.log.group_commit import GroupCommitPolicy
    from repro.net.latency import UniformLatency
    from repro.sim.gcpolicy import deferred_gc
    from repro.sim.kernel import SimulationError

    names = specgen.node_names(5)
    # Throughput here is ~1/5 of the sequential workload's.
    pool = args["txns"] or int(args["seconds"] * POOL_PER_SECOND / 4)
    specs = specgen.star_specs(args["seed"], pool, names, hot_keys=8,
                               exclusive_fraction=0.5)
    arrivals = specgen.poisson_arrivals(args["seed"], pool, mean_gap=1.0)
    config = PRESUMED_NOTHING.with_options(
        group_commit=GroupCommitPolicy(group_size=4, timeout=0.5))
    cluster = Cluster(config, nodes=names, seed=args["seed"],
                      latency=UniformLatency(0.5, 1.5))
    if not ready():
        return {}
    simulator = cluster.simulator
    handles = []
    done: List[float] = []

    def begin(spec) -> None:
        handle = cluster.start_transaction(spec)
        handles.append(handle)
        handle.on_done(lambda _handle: done.append(perf_counter()))

    #: Simulated time advanced between wall-clock checks (~25 arrivals).
    step = 25.0
    error = None
    with deferred_gc():
        cpu0 = process_time()
        began = perf_counter()
        budget = args["seconds"] if not args["txns"] else None
        deadline = began + (budget if budget is not None
                            else args["hard_timeout"])
        hard_deadline = began + args["hard_timeout"]
        index = 0
        # Transactions interleave, so one transaction has no host
        # latency of its own; the latency-like quantity is the host
        # wall per committed transaction, over slices of ~SLICE_TXNS.
        slice_costs: List[float] = []
        slice_began, slice_done = began, 0
        try:
            while index < pool and perf_counter() < deadline:
                horizon = simulator.now + step
                while index < pool and arrivals[index] <= horizon:
                    simulator.at(arrivals[index],
                                 lambda spec=specs[index]: begin(spec),
                                 name=f"arrive:{specs[index].txn_id}")
                    index += 1
                cluster.run_until(horizon)
                if len(done) - slice_done >= SLICE_TXNS:
                    now = perf_counter()
                    slice_costs.append((now - slice_began)
                                       / (len(done) - slice_done))
                    slice_began, slice_done = now, len(done)
            # Drain in slices so a wedged run (a transaction that never
            # finishes) hits the watchdog instead of hanging.
            while len(done) < index and error is None:
                fired = simulator.events_processed
                cluster.run_until(simulator.now + step)
                if simulator.events_processed == fired:
                    error = (f"wedged: event queue ran dry with "
                             f"{index - len(done)} transactions unfinished")
                elif perf_counter() > hard_deadline:
                    error = (f"watchdog: {args['hard_timeout']:.0f}s wall "
                             f"timeout with {index - len(done)} stuck")
            if error is None:
                cluster.run()       # trailing acks and end records
            if len(done) > slice_done:
                slice_costs.append((perf_counter() - slice_began)
                                   / (len(done) - slice_done))
        except SimulationError as failure:
            error = str(failure)
        wall = perf_counter() - began
        cpu = process_time() - cpu0
        committed = sum(1 for handle in handles if handle.committed)
        return run_result(
            index, committed, wall, cpu, slice_costs,
            [stamp - began for stamp in done],
            cluster_counters(cluster), tracer, error)


def sim_pa_observed(args: dict, tracer, ready: Callable[..., bool]) -> dict:
    """Alternating observed / control cells over the same specs.

    Every cell is a fresh cluster running the *same* seeded specs, so
    each observed cell is also a repetition of the first: the journal
    hash, cost triple and event count must be identical across them.
    Interleaving the control cells keeps a machine-speed drift out of
    the observed ÷ control ratio.
    """
    from repro.core.cluster import Cluster
    from repro.core.config import PRESUMED_ABORT
    from repro.obs import (ConformanceAuditor, CostLedger, JournalRecorder,
                           MetricsRegistry, SpanTracer)
    from repro.sim.gcpolicy import deferred_gc
    from repro.verify.checker import ProtocolChecker

    names = specgen.node_names(3)
    cell_txns = args["txns"] or OBSERVED_CELL_TXNS
    specs = specgen.steady_specs(args["seed"], cell_txns, names)
    predictor = {spec.txn_id: specgen.pa_expected_costs(spec)
                 for spec in specs}
    if not ready():
        return {}

    def cell(observed: bool) -> dict:
        with deferred_gc():
            cluster = Cluster(PRESUMED_ABORT, nodes=names, seed=args["seed"])
            if observed:
                MetricsRegistry().attach(cluster)
                recorder = JournalRecorder().attach(cluster)
                ledger = CostLedger().attach(cluster)
                auditor = ConformanceAuditor(predictor=predictor)
                auditor.attach(cluster, ledger)
                spans = SpanTracer().attach(cluster)
                checker = ProtocolChecker().attach(cluster)
            cpu0 = process_time()
            attempted, committed, began, stamps, error = run_sequential(
                cluster, specs, None, args["hard_timeout"])
            journal = (recorder.to_jsonl() if observed else "").encode("utf-8")
            wall = perf_counter() - began
            cpu = process_time() - cpu0
            out = {
                "attempted": attempted, "committed": committed,
                "wall_s": wall, "cpu_s": cpu, "error": error,
                "latencies": [b - a for a, b in
                              zip([began] + stamps, stamps)],
                "ratio": quarter_ratio([s - began for s in stamps],
                                       stamps[-1] - began),
                "journal_bytes": len(journal),
                "fingerprint": None,
            }
            if observed:
                spans.finish()
                auditor.finish()
                anomalies = auditor.anomalies()
                try:
                    checker.assert_clean()
                    violations = ""
                except AssertionError as failure:
                    violations = str(failure)
                out["anomalies"] = len(anomalies)
                out["violations"] = violations
                out["fingerprint"] = [
                    list(cluster.metrics.cost_summary().as_tuple()),
                    cluster.simulator.events_processed,
                    hashlib.sha256(journal).hexdigest()]
                out["counters"] = cluster_counters(cluster)
            return out

    observed_cells: List[dict] = []
    control_cells: List[dict] = []
    began = perf_counter()
    budget = args["seconds"]
    # The traced phase and count-bound runs fix the number of pairs.
    pairs_wanted = args["cells"]
    while True:
        pair_began = perf_counter()
        observed_cells.append(cell(True))
        if not args["observed_only"]:
            control_cells.append(cell(False))
        pair_cost = perf_counter() - pair_began
        if pairs_wanted is not None:
            if len(observed_cells) >= pairs_wanted:
                break
        elif len(observed_cells) >= 2 and \
                perf_counter() - began + pair_cost > budget:
            break
        if perf_counter() - began > args["hard_timeout"]:
            break

    first = observed_cells[0]
    checks = [{
        "name": "observed cells repeat (cost triple, events, journal sha256)",
        "ok": all(c["fingerprint"] == first["fingerprint"]
                  for c in observed_cells),
        "detail": f"{len(observed_cells)} cells, {first['fingerprint']}"}, {
        "name": "ConformanceAuditor: measured == analytic (paper units)",
        "ok": all(c["anomalies"] == 0 for c in observed_cells),
        "detail": f"anomalies {[c['anomalies'] for c in observed_cells]}"}, {
        "name": "ProtocolChecker.assert_clean",
        "ok": all(not c["violations"] for c in observed_cells),
        "detail": "; ".join(c["violations"][:200] for c in observed_cells
                            if c["violations"])}]

    txns = sum(c["committed"] for c in observed_cells)
    observed_wall = median([c["wall_s"] for c in observed_cells])
    control_wall = median([c["wall_s"] for c in control_cells])
    error = next((c["error"] for c in observed_cells + control_cells
                  if c["error"]), None)
    return {
        "attempted": sum(c["attempted"] for c in observed_cells),
        "committed": txns,
        # Wall and CPU are per-cell medians scaled to the whole run, so
        # txn/s = committed / wall_s holds as for every other workload.
        "wall_s": observed_wall * len(observed_cells),
        "cpu_s": median([c["cpu_s"] for c in observed_cells])
        * len(observed_cells),
        "peak_rss_mb": usage()["peak_rss_mb"],
        "latency": summarize_latencies(
            [v for c in observed_cells for v in c["latencies"]]),
        "steady_state_ratio": median([c["ratio"] for c in observed_cells]),
        "counters": _sum_counters([c["counters"] for c in observed_cells]),
        "trace": tracer.snapshot() if tracer is not None else None,
        "trace_wall_s": sum(c["wall_s"] for c in observed_cells),
        "error": error,
        "checks": checks,
        "obs": {
            "cells": len(observed_cells),
            "overhead_ratio": (observed_wall / control_wall
                               if control_wall else 0.0),
            "journal_bytes": sum(c["journal_bytes"]
                                 for c in observed_cells),
            "cell_wall_s": [c["wall_s"] for c in observed_cells],
        },
    }


def _sum_counters(cells: List[dict]) -> dict:
    """Totals across cells; distribution fields keep the first cell's
    value (cells repeat the same seeded work)."""
    total = dict(cells[0])
    for key in ("events", "flows", "log_writes", "forced_writes", "ios",
                "forces", "contexts", "samples_retained"):
        total[key] = sum(cell[key] for cell in cells)
    return total


# ----------------------------------------------------------------------
# Live host: repro.transport.live.serve as shipped
# ----------------------------------------------------------------------
def live(args: dict, tracer, ready: Callable[..., bool]) -> dict:
    import asyncio
    import signal

    from repro.core.config import PRESUMED_ABORT
    from repro.transport import wire
    from repro.transport.live import serve
    from repro.transport.storage import FileStableStorage

    names = specgen.node_names(3)
    # The stock presets keep io_latency=0.1, which LiveClock sleeps for
    # real on every force (3 txn/s); the twin and live-torture gates
    # run the live path at 0.0 too.
    config = PRESUMED_ABORT.with_options(io_latency=0.0)
    state: Dict[str, object] = {"wire_bytes": 0}

    if tracer is not None:
        # Bytes on the wire have no public counter; count them where
        # frames are encoded (traced run only, like every span).
        traced_encode = wire.encode_frame

        def counting_encode(obj):
            frame = traced_encode(obj)
            state["wire_bytes"] += len(frame)
            return frame
        from perfbench.trace import rebind_function
        rebind_function(traced_encode, "encode_frame", counting_encode)

    def on_command() -> None:
        line = sys.stdin.readline()
        if not line:
            # The driver went away: drain and exit rather than linger.
            os.kill(os.getpid(), signal.SIGTERM)
            asyncio.get_running_loop().remove_reader(sys.stdin.fileno())
        elif line.strip() == "snap":
            emit("SNAP", {**usage(), "wire_bytes": state["wire_bytes"],
                          "trace": tracer.snapshot()
                          if tracer is not None else None})

    def mesh_up(cluster, addresses) -> None:
        state["cluster"] = cluster
        asyncio.get_running_loop().add_reader(sys.stdin.fileno(), on_command)
        state["wire_bytes"] = 0
        ready(addresses={name: list(address)
                         for name, address in addresses.items()})

    asyncio.run(serve(config, names, seed=args["seed"],
                      log_dir=args["log_dir"], admin_port=0,
                      ready=mesh_up))
    cluster = state["cluster"]
    nodes = {}
    for name, node in cluster.nodes.items():
        stable = node.log.stable
        nodes[name] = {
            "fsyncs": stable.fsync_count
            if isinstance(stable, FileStableStorage) else None,
            "physical_ios": cluster.metrics.physical_ios(node=name),
            "stable_records": len(stable),
            "wal_bytes": os.path.getsize(cluster.wal_path(name)),
        }
    journal = os.path.join(args["log_dir"], "journal.jsonl")
    return {
        "counters": cluster_counters(cluster),
        "nodes": nodes,
        "frames_sent": cluster.transport.frames_sent,
        "journal_bytes": os.path.getsize(journal),
        "outcomes": _outcome_counts(cluster),
    }


def _outcome_counts(cluster) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in cluster.metrics.transactions:
        counts[record.outcome] = counts.get(record.outcome, 0) + 1
    return counts


WORKLOADS = {
    "sim_pa_steady": sim_pa_steady,
    "sim_pn_contended": sim_pn_contended,
    "sim_pa_observed": sim_pa_observed,
    "live": live,
}


#: Every key a host reads; the driver overrides what it needs.
DEFAULT_ARGS = {"host": None, "seed": 0, "seconds": 1.0, "txns": None,
                "cells": None, "observed_only": False, "trace": False,
                "setup_only": False, "hard_timeout": 120.0, "log_dir": None}


def main(argv: Sequence[str]) -> int:
    args = {**DEFAULT_ARGS, **json.loads(argv[0])}
    tracer = None
    if args["trace"]:
        import repro.transport  # noqa: F401  (wire's importers must exist)
        from perfbench.trace import LayerTracer
        tracer = LayerTracer().install()

    def ready(**extra) -> bool:
        """Announce that the first timed operation could start; False
        when this host was only spawned to time its set-up."""
        if tracer is not None:
            tracer.reset()      # set-up work is not part of the window
        emit("READY", {**usage(), **extra})
        return not args["setup_only"]

    result = WORKLOADS[args["host"]](args, tracer, ready)
    if result:
        emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
