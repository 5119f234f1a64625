"""The driver side: spawn hosts, generate load, turn raw runs into the
metrics ``BENCHMARK.json`` names, and check the outputs.

A workload run is *untraced* (end-to-end metrics) or *traced*
(per-layer metrics).  The traced run is two phases of about half the
length each: phase A untraced, for the public counters and the wall to
compare against; phase B the same transactions under
:class:`perfbench.trace.LayerTracer`.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from perfbench import ROOT, client, specs as specgen
from perfbench.stats import (median, quarter_ratio, summarize_latencies,
                             window_percentiles)
from perfbench.trace import LAYERS

#: Scratch space for WALs, journals and result files (git-ignored).
WORK_DIR = ROOT / ".perfbench_work"

#: Open-loop arrival rate (requests/s): about a third of what one
#: closed-loop client gets out of the single-loop server today.
OPEN_LOOP_RATE = 60.0

#: Share of ``--seconds`` given to phase A of a traced run; phase B
#: repeats the same transactions ~1.1x slower, so the two fill the budget.
TRACE_PHASE_SHARE = 0.45

LIVE_WORKLOADS = ("live_pa_closed", "live_pa_open")
SIM_WORKLOADS = ("sim_pa_steady", "sim_pn_contended", "sim_pa_observed")
WORKLOADS = SIM_WORKLOADS + LIVE_WORKLOADS


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to: ran and failed)."""


@dataclass(frozen=True)
class Plan:
    """How long one workload run is.  ``txns`` switches the measured
    window from time-bounded to count-bounded (exact counts repeat)."""

    seconds: float
    setup_samples: int = 3
    txns: Optional[int] = None

    @property
    def hard_timeout(self) -> float:
        return 60.0 + 4.0 * self.seconds


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Host processes
# ----------------------------------------------------------------------
class Host:
    """One ``perfbench.host`` child; always reaped on exit."""

    def __init__(self, args: dict) -> None:
        self.args = args
        self.process: Optional[asyncio.subprocess.Process] = None
        self.spawned_at = 0.0

    async def __aenter__(self) -> "Host":
        self.spawned_at = perf_counter()
        self.process = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "perfbench.host", json.dumps(self.args),
            cwd=str(ROOT), stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE, limit=1 << 24)
        return self

    async def __aexit__(self, *exc_info) -> None:
        process = self.process
        if process.returncode is None:
            process.kill()
        await process.wait()

    async def read(self, tag: str, timeout: float) -> dict:
        """The next ``tag`` line; a host that dies or stalls is an error."""
        try:
            while True:
                line = await asyncio.wait_for(
                    self.process.stdout.readline(), timeout)
                if not line:
                    code = await self.process.wait()
                    raise BenchError(
                        f"{self.args['host']} host exited with code {code} "
                        f"before {tag}")
                head, _, body = line.decode("utf-8").partition(" ")
                if head == tag:
                    return json.loads(body)
        except asyncio.TimeoutError:
            raise BenchError(
                f"watchdog: {self.args['host']} host sent no {tag} within "
                f"{timeout:.0f}s") from None

    def command(self, line: str) -> None:
        self.process.stdin.write(line.encode("utf-8") + b"\n")

    async def finish(self, timeout: float) -> None:
        try:
            code = await asyncio.wait_for(self.process.wait(), timeout)
        except asyncio.TimeoutError:
            raise BenchError(f"watchdog: {self.args['host']} host did not "
                             f"exit within {timeout:.0f}s") from None
        if code != 0:
            raise BenchError(f"{self.args['host']} host exited with {code}")


def fresh_log_dir() -> str:
    WORK_DIR.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="wal-", dir=WORK_DIR)


# ----------------------------------------------------------------------
# One host run per kind of workload
# ----------------------------------------------------------------------
async def sim_host_run(name: str, seed: int, plan: Plan,
                       **overrides) -> Tuple[dict, float]:
    """Spawn one sim host to completion; returns (result, setup_s)."""
    args = {"host": name, "seed": seed, "seconds": plan.seconds,
            "txns": plan.txns, "hard_timeout": plan.hard_timeout}
    args.update(overrides)
    async with Host(args) as host:
        await host.read("READY", plan.hard_timeout)
        setup = perf_counter() - host.spawned_at
        result = {}
        if not args.get("setup_only"):
            result = await host.read("RESULT", plan.hard_timeout + 30.0)
        await host.finish(plan.hard_timeout)
        return result, setup


async def live_host_run(name: str, seed: int, plan: Plan,
                        trace: bool = False, txns: Optional[int] = None,
                        setup_only: bool = False) -> Tuple[dict, float]:
    """One fresh ``serve`` child and one load run against it; returns
    (result, setup_s) in the shape the sim hosts report."""
    from repro.transport.storage import load_records

    txns = txns or plan.txns
    timeout = plan.hard_timeout
    log_dir = fresh_log_dir()
    names = specgen.node_names(3)
    began = perf_counter()
    try:
        # Inputs first, server second: generated while the child boots,
        # set-up time depended on whether the scheduler gave the two
        # processes one core or two (0.28 s or 0.47 s, bimodal).
        if name == "live_pa_open":
            due = specgen.open_loop_schedule(seed, OPEN_LOOP_RATE,
                                             plan.seconds)[:txns]
            pool = len(due)
        else:
            # ~3.5x today's closed-loop throughput (see
            # host.POOL_PER_SECOND for why there is a pool at all).
            pool = txns or int(plan.seconds * 500) + 2
        frames = client.begin_frames(specgen.star_specs(seed, pool, names))
        async with Host({"host": "live", "seed": seed, "trace": trace,
                         "log_dir": log_dir}) as host:
            ready = await host.read("READY", timeout)
            address = tuple(ready["addresses"][names[0]])
            connections = 1 if name == "live_pa_open" else 2
            streams = [await asyncio.open_connection(*address)
                       for _ in range(connections)]
            setup = perf_counter() - began
            try:
                if setup_only:
                    load = None
                elif name == "live_pa_open":
                    load = await client.open_loop(frames, due, streams[0])
                else:
                    load = await client.closed_loop(
                        frames, None if txns else plan.seconds, streams)
            finally:
                for _reader, writer in streams:
                    writer.close()
            host.command("snap")
            snap = await host.read("SNAP", timeout)
            host.process.send_signal(signal.SIGTERM)
            served = await host.read("RESULT", timeout)
            await host.finish(timeout)
        if load is None:
            return {}, setup
        checks = live_checks(load, served, log_dir, load_records)
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)
    latency = summarize_latencies(load.latencies)
    if name == "live_pa_open":
        # An open loop charges a stall to every request queued behind
        # it, so three seconds of a noisy neighbour double the run's
        # overall p90 (measured).  The gated tail is therefore the
        # *median second's* p90; rare stalls stay visible in the
        # ungated client.latency_p99/p999_ms.  The arrival rate is
        # fixed, so "did the run slow down" is asked of latency: the
        # median second's p50 in the first half over the second half.
        starts = [done - took for done, took
                  in zip(load.done_offsets, load.latencies)]
        p50s, p90s = (window_percentiles(starts, load.latencies,
                                         load.wall_s, fraction)
                      for fraction in (0.5, 0.9))
        latency["p90_ms"] = median(p90s) * 1e3
        half = len(p50s) // 2
        flatness = ratio(median(p50s[:half]), median(p50s[-half:]))
    else:
        flatness = quarter_ratio(load.done_offsets, load.wall_s)
    nodes = served["nodes"].values()
    return {
        "attempted": load.attempted,
        "committed": load.committed,
        "wall_s": load.wall_s,
        # CPU and peak RSS of the server process, over the load window.
        "cpu_s": snap["cpu_s"] - ready["cpu_s"],
        "peak_rss_mb": snap["peak_rss_mb"],
        "latency": latency,
        "steady_state_ratio": flatness,
        "counters": served["counters"],
        "trace": snap["trace"],
        "trace_wall_s": snap["t"] - ready["t"],
        "error": load.error,
        "checks": checks,
        "live": {
            "frames_sent": served["frames_sent"],
            "wire_bytes": snap["wire_bytes"],
            "fsyncs": sum(node["fsyncs"] for node in nodes),
            "wal_bytes": sum(node["wal_bytes"] for node in nodes),
            "journal_bytes": served["journal_bytes"],
            "lateness_p99_ms": summarize_latencies(
                load.lateness)["p99_ms"],
            "backlog_at_end": load.backlog_at_end,
        },
    }, setup


def live_checks(load: client.LoadResult, served: dict, log_dir: str,
                load_records) -> List[dict]:
    checks = [{
        "name": "every outcome frame is commit",
        "ok": not load.wrong and not load.stuck,
        "detail": "; ".join(load.wrong[:5])
        + (f" ({load.stuck} without an outcome)" if load.stuck else "")}, {
        "name": "server-side outcomes are all commit",
        "ok": set(served["outcomes"]) <= {"commit"},
        "detail": json.dumps(served["outcomes"])}]
    for node, counts in sorted(served["nodes"].items()):
        checks.append({
            "name": f"{node}: fsync_count == physical_ios",
            "ok": counts["fsyncs"] == counts["physical_ios"],
            "detail": f"{counts['fsyncs']} fsyncs, "
                      f"{counts['physical_ios']} physical I/Os"})
        reread = len(load_records(os.path.join(log_dir, f"{node}.wal")))
        checks.append({
            "name": f"{node}: WAL re-reads to the expected record count",
            "ok": reread == counts["stable_records"],
            "detail": f"{reread} on disk, {counts['stable_records']} "
                      f"appended"})
    return checks


async def run_workload_async(name: str, seed: int, plan: Plan,
                             trace: bool) -> dict:
    if name in LIVE_WORKLOADS:
        from repro.transport.twin import loopback_status
        available, reason = loopback_status()
        if not available:
            # A classified error, not a skip: a silently skipped live
            # run once hid a sandbox misconfiguration.
            raise BenchError(f"loopback TCP unavailable — {reason}")
        host_run = live_host_run
    elif name in SIM_WORKLOADS:
        host_run = sim_host_run
    else:
        raise BenchError(f"unknown workload {name!r}; known: {WORKLOADS}")

    if not trace:
        result, setup = await host_run(name, seed, plan)
        setups = [setup]
        # Set-up is sampled several times per run (its median is the
        # metric): the extra hosts stop at READY.
        for _ in range(plan.setup_samples - 1):
            setups.append((await host_run(name, seed, plan,
                                          setup_only=True))[1])
        return untraced_report(result, setups)

    phase = Plan(plan.seconds * TRACE_PHASE_SHARE, txns=plan.txns)
    first, _ = await host_run(name, seed, phase)
    same_work = {"txns": first["attempted"]}
    if name == "sim_pa_observed":
        same_work = {"cells": first["obs"]["cells"], "observed_only": True}
    second, _ = await host_run(name, seed, phase, trace=True, **same_work)
    if name == "live_pa_open":
        # The open loop's wall is fixed by its schedule; what tracing
        # slows is each commit.
        overhead = ratio(second["latency"]["p50_ms"],
                         first["latency"]["p50_ms"])
    else:
        overhead = ratio(per_txn(second, "wall_s"), per_txn(first, "wall_s"))
    return traced_report(first, second, overhead)


# ----------------------------------------------------------------------
# Raw runs -> named metrics
# ----------------------------------------------------------------------
def ratio(numerator: float, denominator: float) -> float:
    """0 for an empty denominator: a run that committed nothing is
    reported as failed, not as a ZeroDivisionError."""
    return numerator / denominator if denominator else 0.0


def per_txn(run: dict, key: str) -> float:
    return ratio(run[key], run["committed"])


def end_to_end_values(run: dict) -> dict:
    return {
        "committed_txn_per_s": ratio(run["committed"], run["wall_s"]),
        "commit_latency_p50_ms": run["latency"]["p50_ms"],
        "commit_latency_p90_ms": run["latency"]["p90_ms"],
        "steady_state_ratio": run["steady_state_ratio"],
        "cpu_ms_per_txn": per_txn(run, "cpu_s") * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def run_checks(runs: List[dict]) -> List[dict]:
    checks = []
    for index, run in enumerate(runs):
        checks.append({
            "name": f"run {index}: every transaction committed, no watchdog",
            "ok": run["committed"] == run["attempted"] and not run["error"],
            "detail": run["error"] or
            f"{run['committed']}/{run['attempted']} committed"})
        checks.extend(run.get("checks", []))
    return checks


def untraced_report(run: dict, setups: List[float]) -> dict:
    values = {"setup_s": median(setups), **end_to_end_values(run)}
    return finish_report(values, {"setup_s": setups}, [run])


def traced_report(first: dict, second: dict, overhead: float) -> dict:
    """Per-layer metrics: counts from the untraced phase, self times
    from the traced one.  0 means the layer does no work here."""
    counters = first["counters"]
    txns = first["committed"] or 1
    live = first.get("live", {})
    traced_live = second.get("live", {})
    obs = first.get("obs", {})
    latency = first["latency"]
    values = {
        "sim.events_per_txn": counters["events"] / txns,
        "sim.events_per_s": ratio(counters["events"], first["wall_s"]),
        "net.flows_per_txn": counters["flows"] / txns,
        "log.writes_per_txn": counters["log_writes"] / txns,
        "log.forced_per_txn": counters["forced_writes"] / txns,
        "log.ios_per_txn": counters["ios"] / txns,
        "log.forces_per_io": ratio(counters["forces"], counters["ios"]),
        "lrm.lock_hold_mean": counters["lock_hold_mean"],
        "lrm.lock_hold_p99": counters["lock_hold_p99"],
        "core.contexts_retained_per_txn": counters["contexts"] / txns,
        "core.sim_latency_p50": counters["sim_latency_p50"],
        "core.sim_latency_p99": counters["sim_latency_p99"],
        "metrics.samples_retained_per_txn":
            counters["samples_retained"] / txns,
        "obs.journal_bytes_per_txn":
            (obs.get("journal_bytes") or live.get("journal_bytes", 0))
            / txns,
        "obs.overhead_ratio": obs.get("overhead_ratio", 0.0),
        "transport.wire.frames_per_txn": live.get("frames_sent", 0) / txns,
        "transport.wire.bytes_per_txn":
            traced_live.get("wire_bytes", 0) / (second["committed"] or 1),
        "transport.storage.fsyncs_per_txn": live.get("fsyncs", 0) / txns,
        "transport.storage.wal_bytes_per_txn":
            live.get("wal_bytes", 0) / txns,
        "client.lateness_p99_ms": live.get("lateness_p99_ms", 0.0),
        "client.backlog_at_end": live.get("backlog_at_end", 0),
        "client.latency_p99_ms": latency["p99_ms"],
        "client.latency_p999_ms": latency["p999_ms"],
        "client.over_50ms_fraction": latency["over_50ms_fraction"],
        "client.failed_fraction":
            ratio(first["attempted"] - first["committed"],
                  first["attempted"]),
        "trace.overhead_ratio": overhead,
    }
    traced_txns = second["committed"] or 1
    self_ns = second["trace"]["layer_self_ns"]
    for layer in LAYERS:
        values[f"{layer}.self_us_per_txn"] = \
            self_ns[layer] / 1e3 / traced_txns
    values["trace.unattributed_us_per_txn"] = \
        (second["trace_wall_s"] * 1e9 - sum(self_ns.values())) \
        / 1e3 / traced_txns
    nesting = {
        "name": "trace: spans nest (self times >= 0, sum within the wall)",
        "ok": all(value >= 0 for value in self_ns.values())
        and values["trace.unattributed_us_per_txn"] >= 0,
        "detail": f"unattributed "
                  f"{values['trace.unattributed_us_per_txn']:.1f} us/txn"}
    report = finish_report(values, {}, [first, second], [nesting])
    report["trace"] = second["trace"]
    return report


def finish_report(values: Dict[str, float], samples: Dict[str, list],
                  runs: List[dict], extra_checks: List[dict] = ()) -> dict:
    checks = run_checks(runs) + list(extra_checks)
    attempted = sum(run["attempted"] for run in runs)
    committed = sum(run["committed"] for run in runs)
    return {
        "correct": all(check["ok"] for check in checks),
        "attempted": attempted,
        "failed": attempted - committed,
        "values": values,
        "samples": samples,
        "checks": checks,
    }


# ----------------------------------------------------------------------
# Entry points used by the CLI
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, plan: Plan, trace: bool) -> dict:
    """Run one workload once; always leaves no process and no WAL dir."""
    try:
        return asyncio.run(run_workload_async(name, seed, plan, trace))
    finally:
        try:
            WORK_DIR.rmdir()            # only if nothing (results) is in it
        except OSError:
            pass


def environment() -> dict:
    """The stamp written into every result file."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "wal_filesystem": filesystem_type(str(ROOT)),
        "gc": {"sim": "deferred (repro.sim.gcpolicy.deferred_gc)",
               "live": "interpreter default (serve as shipped)"},
    }


def filesystem_type(path: str) -> str:
    """Filesystem holding ``path`` (fsync cost depends on it)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _device, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind
