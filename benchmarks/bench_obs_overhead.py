"""Observability overhead benchmark: what does watching cost?

Three configurations of the same protocol workload (a stream of
3-node Presumed Abort transactions):

* **tracing off** — no tracer, no profiler: the hook lists stay empty
  and the kernel takes its ``if hooks:`` / ``is None`` fast paths;
* **tracing on** — a :class:`repro.obs.SpanTracer` attached, building
  the full span tree for every transaction;
* **profiler on** — a :class:`repro.obs.KernelProfiler` timing every
  event handler with ``perf_counter`` pairs;
* **ledger on** — a :class:`repro.obs.CostLedger` plus a
  :class:`repro.obs.ConformanceAuditor` attributing every cost event
  and diffing each transaction against the analytic formula;
* **chaos off** — a :class:`repro.chaos.ChaosEngine` with an *empty*
  schedule installed as the network adversary.  Every send pays the
  adversary dispatch and gets the default delivery back, bounding the
  cost of the chaos hook from above: the true disabled path
  (``Network.adversary is None``, what every other configuration
  here runs) does strictly less work per send;
* **journal on** — a :class:`repro.obs.JournalRecorder` writing the
  full causally-linked flight-recorder journal (one packed row per
  flow, log write, force and lock event);
* **whole cell** — all five observers of perfbench's
  ``sim_pa_observed`` cell (registry, journal, ledger + auditor, span
  tracer, protocol checker), timed over the run *and* everything read
  after it: ``to_jsonl()``, ``finish()``, ``anomalies()``,
  ``assert_clean()`` and one ``prometheus_text()``.  Observers that
  fold the journal's rows may defer work to their reads; this
  configuration charges it.

The committed trajectory lives in ``BENCH_obs.json`` (written by
``python benchmarks/run_baseline.py --update``); the check gate fails
when the tracing-on/tracing-off throughput ratio regresses by more
than the tolerance (default 20%), i.e. when instrumentation got
materially more expensive relative to the uninstrumented run.  The
kernel-level ``hot_run_until`` number is recorded alongside so the
tracing-off path can be compared against ``BENCH_kernel.json`` — the
observability hooks must not tax runs that never enable them.
"""

from __future__ import annotations

import time

from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT
from repro.core.spec import flat_tree
from repro.lrm.operations import write_op
from repro.analysis.formulas import basic_2pc_costs
from repro.obs import (ConformanceAuditor, CostLedger, KernelProfiler,
                       SpanTracer)

from repro.sim.gcpolicy import deferred_gc

from benchmarks.bench_kernel import best_of, hot_run_until

#: Transactions per measured run: full for the committed baseline,
#: smoke for CI gates.
FULL_TXNS = 400
SMOKE_TXNS = 120


def run_workload(n_txns: int, tracing: bool = False,
                 profiling: bool = False, auditing: bool = False,
                 chaos_off: bool = False,
                 journaling: bool = False,
                 registry: bool = False) -> float:
    """Run ``n_txns`` 3-node PA commits; return simulator events/second."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
    if chaos_off:
        from repro.chaos import ChaosEngine
        ChaosEngine().install(cluster)
    tracer = SpanTracer().attach(cluster) if tracing else None
    metrics_registry = None
    if registry:
        from repro.obs import MetricsRegistry
        metrics_registry = MetricsRegistry().attach(cluster)
    recorder = None
    if journaling:
        from repro.obs import JournalRecorder
        recorder = JournalRecorder().attach(cluster)
    profiler = KernelProfiler() if profiling else None
    if profiler is not None:
        cluster.simulator.set_profiler(profiler)
    auditor = None
    if auditing:
        ledger = CostLedger().attach(cluster)
        auditor = ConformanceAuditor(predictor=basic_2pc_costs(3))
        auditor.attach(cluster, ledger)
    start = time.perf_counter()
    for spec in workload_specs(n_txns):
        cluster.run_transaction(spec)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.finish()
        tracer.detach()
    if auditor is not None:
        auditor.finish()
        assert not auditor.anomalies(), "benchmark workload must conform"
    if recorder is not None:
        assert len(recorder) > 0, "journal recorder captured nothing"
        recorder.detach()
    if metrics_registry is not None:
        assert metrics_registry.counter_samples(), \
            "metrics registry captured nothing"
        metrics_registry.detach()
    return cluster.simulator.events_processed / elapsed


def workload_specs(n_txns: int):
    for i in range(n_txns):
        spec = flat_tree("c", ["s1", "s2"], txn_id=f"t{i}")
        for participant in spec.participants:
            participant.ops.append(write_op(f"k-{participant.node}-{i}", i))
        yield spec


def run_whole_cell(n_txns: int) -> float:
    """The same commits with all five observers; events/second over the
    run plus every read a ``sim_pa_observed`` cell makes after it."""
    from repro.obs import JournalRecorder, MetricsRegistry
    from repro.verify.checker import ProtocolChecker
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
    registry = MetricsRegistry().attach(cluster)
    recorder = JournalRecorder().attach(cluster)
    ledger = CostLedger().attach(cluster)
    auditor = ConformanceAuditor(predictor=basic_2pc_costs(3))
    auditor.attach(cluster, ledger)
    spans = SpanTracer().attach(cluster)
    checker = ProtocolChecker().attach(cluster)
    start = time.perf_counter()
    for spec in workload_specs(n_txns):
        cluster.run_transaction(spec)
    journal = recorder.to_jsonl()
    spans.finish()
    auditor.finish()
    anomalies = auditor.anomalies()
    checker.assert_clean()
    registry.prometheus_text()
    elapsed = time.perf_counter() - start
    assert journal and not anomalies, "benchmark workload must conform"
    return cluster.simulator.events_processed / elapsed


def measure(n_txns: int = SMOKE_TXNS, repeats: int = 3) -> dict:
    """The four configurations plus the kernel-level fast-path number.

    Measured under :func:`repro.sim.gcpolicy.deferred_gc` — the same
    collection policy as the kernel baseline — so the ratios compare
    instrumentation cost, not GC trigger timing.
    """
    with deferred_gc():
        off = best_of(lambda: run_workload(n_txns), repeats)
        tracing = best_of(lambda: run_workload(n_txns, tracing=True),
                          repeats)
        profiling = best_of(lambda: run_workload(n_txns, profiling=True),
                            repeats)
        auditing = best_of(lambda: run_workload(n_txns, auditing=True),
                           repeats)
        chaos = best_of(lambda: run_workload(n_txns, chaos_off=True),
                        repeats)
        journaling = best_of(lambda: run_workload(n_txns, journaling=True),
                             repeats)
        registry = best_of(lambda: run_workload(n_txns, registry=True),
                           repeats)
        whole = best_of(lambda: run_whole_cell(n_txns), repeats)
        kernel = best_of(lambda: hot_run_until(100_000), repeats)
    return {
        "tracing_off": {"eps": round(off)},
        "tracing_on": {
            "eps": round(tracing),
            "ratio": round(tracing / off, 3),
            "overhead": round(off / tracing - 1.0, 3),
        },
        "profiler_on": {
            "eps": round(profiling),
            "ratio": round(profiling / off, 3),
            "overhead": round(off / profiling - 1.0, 3),
        },
        "ledger_on": {
            "eps": round(auditing),
            "ratio": round(auditing / off, 3),
            "overhead": round(off / auditing - 1.0, 3),
        },
        "chaos_off": {
            "eps": round(chaos),
            "ratio": round(chaos / off, 3),
            "overhead": round(off / chaos - 1.0, 3),
        },
        "journal_on": {
            "eps": round(journaling),
            "ratio": round(journaling / off, 3),
            "overhead": round(off / journaling - 1.0, 3),
        },
        # The streaming metrics registry must stay cheap enough to
        # leave attached in live runs (repro-2pc serve attaches one
        # unconditionally).
        "registry_on": {
            "eps": round(registry),
            "ratio": round(registry / off, 3),
            "overhead": round(off / registry - 1.0, 3),
        },
        "whole_cell": {
            "eps": round(whole),
            "ratio": round(whole / off, 3),
            "overhead": round(off / whole - 1.0, 3),
        },
        # Comparable to BENCH_kernel.json's hot_run_until eps: the
        # hooks-disabled kernel path with the profiler branch in place.
        "hot_run_until": {"eps": round(kernel)},
    }


def measure_journal(n_txns: int = SMOKE_TXNS, repeats: int = 3) -> dict:
    """The ``journal_on`` entry alone, at the given workload size.

    Split out because the journal ratio is size-sensitive: the
    uninstrumented path slows as cluster state grows while the
    recorder's per-event cost stays flat, so the full-size ratio reads
    ~0.15 better than the smoke-size one.  The check gate measures at
    smoke size, so the committed baseline must too — unlike the other
    configurations, whose ratios are size-stable.
    """
    return measure_alone(lambda: run_workload(n_txns, journaling=True),
                         n_txns, repeats)


def measure_alone(run, n_txns: int = SMOKE_TXNS, repeats: int = 3) -> dict:
    """One configuration's entry (``run`` returns its events/second)
    against tracing off, at the given workload size.  ``whole_cell``
    is size-sensitive like ``journal_on`` (it renders the journal), so
    its baseline is taken at the gate's smoke size too."""
    with deferred_gc():
        off = best_of(lambda: run_workload(n_txns), repeats)
        eps = best_of(run, repeats)
    return {
        "eps": round(eps),
        "ratio": round(eps / off, 3),
        "overhead": round(off / eps - 1.0, 3),
    }


def measure_registry(n_txns: int = SMOKE_TXNS, repeats: int = 3,
                     pairs: int = 3) -> dict:
    """The ``registry_on`` entry alone, at the given workload size.

    Size-sensitive like ``journal_on`` (in the other direction: the
    full-size ratio reads ~0.13 *worse* than the smoke-size one), so
    the committed baseline is taken at the smoke size the check gate
    measures at.

    The registry's overhead is small, which makes its ratio the
    noisiest of the observability configurations (off and registry-on
    throughput are nearly equal, so scheduler noise dominates their
    quotient).  To keep the committed baseline from encoding one lucky
    run, measure ``pairs`` interleaved off/registry pairs and commit
    the *lowest* ratio seen — the conservative end of the noise band.
    """
    best = None
    with deferred_gc():
        for _ in range(pairs):
            off = best_of(lambda: run_workload(n_txns), repeats)
            registry = best_of(lambda: run_workload(n_txns, registry=True),
                               repeats)
            entry = {
                "eps": round(registry),
                "ratio": round(registry / off, 3),
                "overhead": round(off / registry - 1.0, 3),
            }
            if best is None or entry["ratio"] < best["ratio"]:
                best = entry
    return best


# ----------------------------------------------------------------------
# pytest-benchmark timings (pytest benchmarks/bench_obs_overhead.py)
# ----------------------------------------------------------------------
def test_tracing_off_throughput(benchmark):
    eps = benchmark(run_workload, SMOKE_TXNS)
    assert eps > 0


def test_tracing_on_throughput(benchmark):
    eps = benchmark(run_workload, SMOKE_TXNS, True)
    assert eps > 0


def test_tracing_overhead_bounded():
    """Tracing every event must not halve protocol throughput."""
    off = best_of(lambda: run_workload(SMOKE_TXNS), repeats=2)
    tracing = best_of(lambda: run_workload(SMOKE_TXNS, tracing=True),
                      repeats=2)
    assert tracing >= off * 0.5, (
        f"span tracing costs too much: {off:,.0f} -> {tracing:,.0f} "
        f"events/s")


def test_chaos_disabled_path_free():
    """The chaos hook must not tax runs without adversaries.

    Measured with an *empty* engine installed — an upper bound on the
    dispatch cost, since the default ``adversary is None`` path does
    strictly less per send.  Even that bound must stay within noise
    of the uninstrumented run.
    """
    off = best_of(lambda: run_workload(SMOKE_TXNS), repeats=2)
    chaos = best_of(lambda: run_workload(SMOKE_TXNS, chaos_off=True),
                    repeats=2)
    assert chaos >= off * 0.85, (
        f"chaos adversary dispatch costs too much with no adversaries: "
        f"{off:,.0f} -> {chaos:,.0f} events/s")


def test_ledger_overhead_bounded():
    """Cost attribution + auditing must not halve protocol throughput."""
    off = best_of(lambda: run_workload(SMOKE_TXNS), repeats=2)
    auditing = best_of(lambda: run_workload(SMOKE_TXNS, auditing=True),
                       repeats=2)
    assert auditing >= off * 0.5, (
        f"cost ledger costs too much: {off:,.0f} -> {auditing:,.0f} "
        f"events/s")


def test_registry_overhead_bounded():
    """The streaming registry is live-run furniture: labeled counter
    updates per hook event must cost far less than full journaling."""
    off = best_of(lambda: run_workload(SMOKE_TXNS), repeats=2)
    registry = best_of(lambda: run_workload(SMOKE_TXNS, registry=True),
                       repeats=2)
    assert registry >= off * 0.5, (
        f"metrics registry costs too much: {off:,.0f} -> "
        f"{registry:,.0f} events/s")


def test_journal_overhead_bounded():
    """Full flight-recorder journaling roughly halves throughput (it
    records every flow, write, force and lock event with causal
    parents); the floor guards against it getting *much* worse.  The
    committed ratio in ``BENCH_obs.json`` is the tight gate."""
    off = best_of(lambda: run_workload(SMOKE_TXNS), repeats=2)
    journaling = best_of(lambda: run_workload(SMOKE_TXNS, journaling=True),
                         repeats=2)
    assert journaling >= off * 0.4, (
        f"journal recorder costs too much: {off:,.0f} -> "
        f"{journaling:,.0f} events/s")
