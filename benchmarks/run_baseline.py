#!/usr/bin/env python
"""Perf-baseline harness: tier-1 smoke + kernel microbenchmark gate.

Check mode (the default) runs the tier-1 test suite, re-measures the
kernel microbenchmarks in smoke mode, and fails when:

* event-churn throughput regresses more than ``--tolerance`` (default
  20%, env ``REPRO_BENCH_TOLERANCE``) against the committed
  ``BENCH_kernel.json``; or
* the live speedup vs the frozen seed implementation falls below 1.2×
  (the machine-independent guard — absolute events/s comparisons only
  mean something on the machine that wrote the baseline; after moving
  machines, re-baseline with ``--update``); or
* the retention gate finds state that finished transactions left
  behind (cyclic garbage, entries at rest, tracemalloc bytes/txn,
  lines executed late vs early in a run — nothing machine-dependent).
  The tier-1 suite runs the same checks (``tests/test_retention.py``),
  so the gate itself runs with ``--retention`` (only it) or
  ``--skip-tests``.

Update mode (``--update``) re-measures at full size and rewrites
``BENCH_kernel.json`` so subsequent PRs have a trajectory to regress
against.

Usage::

    PYTHONPATH=src python benchmarks/run_baseline.py           # gate
    PYTHONPATH=src python benchmarks/run_baseline.py --update  # re-baseline
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_kernel.json"
OBS_BASELINE_PATH = REPO_ROOT / "BENCH_obs.json"
SCALE_BASELINE_PATH = REPO_ROOT / "BENCH_scale.json"

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.sim.gcpolicy import GC_POLICY  # noqa: E402
from repro.parallel.saturate import (  # noqa: E402
    FULL_TXNS_PER_WORKER,
    SMOKE_TXNS_PER_WORKER,
    run_saturation,
)

from benchmarks.bench_kernel import FULL_N, SMOKE_N, measure  # noqa: E402
from benchmarks.bench_obs_overhead import (  # noqa: E402
    FULL_TXNS,
    SMOKE_TXNS,
    measure as measure_obs,
    measure_alone,
    measure_journal,
    measure_registry,
    run_whole_cell,
)

#: Below this live current-vs-seed churn ratio the kernel optimization
#: has regressed regardless of what machine wrote the baseline.
MIN_LIVE_SPEEDUP = 1.2


def run_tier1() -> bool:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    print("== tier-1 suite ==")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q"],
                          cwd=REPO_ROOT, env=env)
    return proc.returncode == 0


def update_baseline() -> int:
    print("== measuring kernel baseline (full size) ==")
    metrics = measure(sizes=FULL_N, repeats=3)
    payload = {
        "schema": 1,
        "updated": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "gc": GC_POLICY,
        "sizes": FULL_N,
        "metrics": metrics,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"wrote {BASELINE_PATH}")

    print("== measuring observability overhead (full size) ==")
    obs_metrics = measure_obs(n_txns=FULL_TXNS, repeats=3)
    # The journal and registry ratios are size-sensitive (see
    # measure_journal / measure_registry); their baselines are taken at
    # the smoke size the check gate measures at.
    obs_metrics["journal_on"] = measure_journal(n_txns=SMOKE_TXNS,
                                                repeats=3)
    obs_metrics["registry_on"] = measure_registry(n_txns=SMOKE_TXNS,
                                                  repeats=3)
    obs_metrics["whole_cell"] = measure_alone(
        lambda: run_whole_cell(SMOKE_TXNS), SMOKE_TXNS, repeats=3)
    obs_payload = {
        "schema": 1,
        "updated": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "gc": GC_POLICY,
        "n_txns": FULL_TXNS,
        "metrics": obs_metrics,
    }
    OBS_BASELINE_PATH.write_text(json.dumps(obs_payload, indent=2) + "\n")
    print(json.dumps(obs_payload, indent=2))
    print(f"wrote {OBS_BASELINE_PATH}")

    print("== measuring machine saturation (full size) ==")
    scale_metrics = run_saturation(txns_per_worker=FULL_TXNS_PER_WORKER)
    scale_payload = {
        "schema": 1,
        "updated": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "gc": GC_POLICY,
        "metrics": scale_metrics,
    }
    SCALE_BASELINE_PATH.write_text(
        json.dumps(scale_payload, indent=2) + "\n")
    print(json.dumps(scale_payload, indent=2))
    print(f"wrote {SCALE_BASELINE_PATH}")

    if metrics["event_churn"]["speedup"] < 1.5:
        print(f"WARNING: event-churn speedup "
              f"{metrics['event_churn']['speedup']}x is below the "
              f"1.5x target", file=sys.stderr)
        return 1
    return 0


def check_baseline(tolerance: float) -> int:
    if not BASELINE_PATH.exists():
        print(f"no {BASELINE_PATH.name}; run with --update first",
              file=sys.stderr)
        return 2
    committed = json.loads(BASELINE_PATH.read_text())
    print("== measuring kernel microbenchmarks (smoke size) ==")
    current = measure(sizes=SMOKE_N, repeats=3)

    failures = 0
    for name, values in current.items():
        recorded = committed["metrics"].get(name, {}).get("eps")
        line = f"{name}: {values['eps']:,} events/s"
        if "speedup" in values:
            line += f" ({values['speedup']}x vs seed impl)"
        if recorded:
            floor = recorded * (1.0 - tolerance)
            line += f" [committed {recorded:,}, floor {floor:,.0f}]"
            if name == "event_churn" and values["eps"] < floor:
                line += "  <-- REGRESSION"
                failures += 1
        print(line)

    live = current["event_churn"]["speedup"]
    if live < MIN_LIVE_SPEEDUP:
        print(f"event-churn speedup vs seed implementation is {live}x "
              f"(< {MIN_LIVE_SPEEDUP}x) — kernel hot path has "
              f"regressed", file=sys.stderr)
        failures += 1

    failures += check_obs_baseline(tolerance)

    if failures:
        print(f"\n{failures} perf gate(s) failed; if this machine is "
              f"simply slower than the baseline machine, re-baseline "
              f"with --update", file=sys.stderr)
        return 1
    print("\nperf gates OK")
    return 0


def check_obs_baseline(tolerance: float) -> int:
    """Gate the instrumentation cost ratio against BENCH_obs.json.

    The gated quantity is the tracing-on/tracing-off throughput ratio —
    machine-independent, unlike absolute events/s.  A current ratio
    more than ``tolerance`` below the committed one means span tracing
    got materially more expensive per event.  Returns failure count.
    """
    if not OBS_BASELINE_PATH.exists():
        print(f"no {OBS_BASELINE_PATH.name}; skipping observability "
              f"overhead gate (run --update to create it)")
        return 0
    committed = json.loads(OBS_BASELINE_PATH.read_text())
    print("== measuring observability overhead (smoke size) ==")
    current = measure_obs(n_txns=SMOKE_TXNS, repeats=3)

    failures = 0
    for name in ("tracing_on", "profiler_on", "ledger_on", "chaos_off",
                 "journal_on", "registry_on", "whole_cell"):
        if name not in current:
            continue
        ratio = current[name]["ratio"]
        recorded = committed["metrics"].get(name, {}).get("ratio")
        line = (f"{name}: {current[name]['eps']:,} events/s, "
                f"{ratio:.3f}x of tracing-off "
                f"(overhead {current[name]['overhead']:.1%})")
        if recorded:
            floor = recorded * (1.0 - tolerance)
            line += f" [committed ratio {recorded}, floor {floor:.3f}]"
            if name in ("tracing_on", "ledger_on", "chaos_off",
                        "journal_on", "registry_on", "whole_cell") \
                    and ratio < floor:
                line += "  <-- REGRESSION"
                failures += 1
        print(line)
    print(f"tracing_off: {current['tracing_off']['eps']:,} events/s; "
          f"hot_run_until: {current['hot_run_until']['eps']:,} events/s "
          f"(compare BENCH_kernel.json)")
    return failures


def check_scale_baseline(tolerance: float) -> int:
    """Gate committed txns/sec/core against BENCH_scale.json.

    Smoke-sized (fewer transactions per worker than the committed
    full-size point) but same per-core normalization; a current figure
    more than ``tolerance`` below the committed one means whole-stack
    commit throughput regressed.  Returns an exit status.
    """
    if not SCALE_BASELINE_PATH.exists():
        print(f"no {SCALE_BASELINE_PATH.name}; run with --update first",
              file=sys.stderr)
        return 2
    committed = json.loads(SCALE_BASELINE_PATH.read_text())
    print("== measuring machine saturation (smoke size) ==")
    current = run_saturation(txns_per_worker=SMOKE_TXNS_PER_WORKER)
    rate = current["txns_per_sec_per_core"]
    recorded = committed["metrics"]["txns_per_sec_per_core"]
    floor = recorded * (1.0 - tolerance)
    line = (f"saturation: {rate:,.0f} committed txns/s/core on "
            f"{current['workers']} worker(s) "
            f"[committed {recorded:,.0f}, floor {floor:,.0f}]")
    if rate < floor:
        print(line + "  <-- REGRESSION", file=sys.stderr)
        print(f"whole-stack commit throughput regressed more than "
              f"{tolerance:.0%}; if this machine is simply slower, "
              f"re-baseline with --update", file=sys.stderr)
        return 1
    print(line)
    print("saturation gate OK")
    return 0


def run_audit_gate() -> int:
    """Conformance audit gate: zero anomalies across the protocol x
    variant matrix, and a seeded crash-recovery run whose divergence
    classifies as expected-under-faults.  Like the torture matrix this
    is a correctness gate with no tolerance."""
    from repro.obs import run_audit_matrix, run_faulty_audit_cell
    print("== conformance audit matrix ==")
    report = run_audit_matrix()
    print(f"{report['txns']} transactions audited: "
          f"{report['conforms']} conform, "
          f"{report['expected_under_faults']} expected-under-faults, "
          f"{report['anomalies']} anomalies")
    failures = 0
    if report["anomalies"]:
        for cell in report["cells"]:
            for finding in cell["findings"]:
                if finding["classification"] == "anomaly":
                    print(f"  ANOMALY {cell['protocol']}/{cell['variant']} "
                          f"{finding['txn_id']}: observed "
                          f"{finding['observed']}, expected "
                          f"{finding['expected']}", file=sys.stderr)
        failures += 1
    fault_cell = run_faulty_audit_cell()
    print(f"seeded crash-recovery: outcome {fault_cell['outcome']}, "
          f"{fault_cell['expected_under_faults']} expected-under-faults, "
          f"{fault_cell['anomalies']} anomalies")
    if fault_cell["anomalies"] or not fault_cell["expected_under_faults"]:
        print("fault run did not classify as expected-under-faults",
              file=sys.stderr)
        failures += 1
    return failures


def run_journal_gate() -> int:
    """Journal self-check gate: record -> replay -> diff must be empty
    for every protocol variant.  A non-empty diff means the flight
    recorder (or the simulator underneath it) is nondeterministic — a
    correctness regression with no tolerance."""
    from repro.obs import run_journal_self_check
    print("== journal record->replay->diff self-check ==")
    failures = 0
    for protocol, divergence in run_journal_self_check().items():
        if divergence is None:
            print(f"  {protocol}: journals equivalent")
        else:
            print(f"  {protocol}: DIVERGED", file=sys.stderr)
            print("    " + divergence.describe().replace("\n", "\n    "),
                  file=sys.stderr)
            failures += 1
    return failures


def run_twin_gate() -> int:
    """Deployment-twin gate: each protocol family runs live over
    localhost TCP (real sockets, real fsyncs), and the recorded
    journal's delivery schedule is replayed in the deterministic
    simulator.  The diff must be empty with identical checker verdicts
    and cost triples, and every counted physical log I/O must be one
    real fsync — no tolerance.  Skips (cleanly) only when the sandbox
    has no loopback networking."""
    from repro.transport import loopback_status, run_twin_matrix
    print("== live TCP deployment twin (live run -> sim replay -> diff) ==")
    available, reason = loopback_status()
    if not available:
        print(f"  SKIPPED: loopback networking unavailable ({reason})")
        return 0
    failures = 0
    for protocol, report in run_twin_matrix(seed=11, txns=6).items():
        if report.clean:
            print(f"  {report.describe()}")
        else:
            print(f"  {protocol}: TWIN DIVERGED", file=sys.stderr)
            print("    " + report.describe().replace("\n", "\n    "),
                  file=sys.stderr)
            failures += 1
    return failures


def run_live_torture_gate() -> int:
    """Live crash-restart survival gate: the crash-site campaign on real
    sockets.  Every forced write of each presumption's clean live run
    (the checkpoint's included) is replayed pre and post: the node is
    killed there, restarted from its WAL after a real outage, and
    every transaction of the run must be judged ok by the campaign
    verdict plus the fsync rule.  Each cell's clean run is
    twin-checked too.  No tolerance; skips (with the classified
    reason) only when the sandbox has no loopback networking."""
    from repro.transport import loopback_status
    from repro.transport.torture import run_live_torture
    print("== live crash-restart torture (force sites -> kill -> WAL "
          "restart -> judge) ==")
    available, reason = loopback_status()
    if not available:
        print(f"  SKIPPED: loopback networking unavailable ({reason})")
        return 0
    report = run_live_torture()
    print(report.describe())
    print(f"  {report.total_runs} live replays")   # wall: timed() below
    return 0 if report.clean else 1


def run_torture_matrix() -> int:
    """Full crash-point torture matrix: every config x variant cell,
    every recorded site, both pre and post sides.  Any failing site is
    a correctness regression, so this gate has no tolerance."""
    from repro.torture import torture_sweep
    print("== crash-point torture matrix (full) ==")
    report = torture_sweep(seed=0)
    print(report.describe())
    return 0 if report.clean else 1


def run_chaos_gate() -> int:
    """Full fixed-seed chaos campaign: 13 seeded adversary schedules
    per config x variant cell (208 runs).  Any checker violation,
    hung run or durable disagreement is a correctness regression, so
    this gate has no tolerance."""
    from repro.chaos import run_chaos_campaign
    print("== adversarial network chaos campaign (full) ==")
    report = run_chaos_campaign(seed=0)
    print(report.describe())
    return 0 if report.clean else 1


def run_retention_gate() -> int:
    """Forget-means-forget gate (``repro.verify.retention``): every
    protocol x optimization cell, sequential and ~10 in flight, must
    leave zero cyclic garbage and nothing at rest; the two
    perfbench-shaped workloads at 4000 transactions must also keep
    flat memory within their budgets and flat time, and ``serve`` over
    TCP its budget, flat quarters and a drain without a spike.  Only
    deterministic measures: object counts, tracemalloc bytes and lines
    executed.  Returns a failure count."""
    from repro.verify import retention
    print("== retention (what finished transactions leave behind) ==")
    failures = 0
    cells = 0
    for protocol in retention.PROTOCOLS:
        for variant in retention.VARIANTS:
            for concurrent in (False, True):
                cells += 1
                report = retention.run_cell(protocol, variant,
                                            concurrent=concurrent)
                for problem in report.problems():
                    mode = "concurrent" if concurrent else "sequential"
                    print(f"  {protocol}/{variant}/{mode}: {problem}",
                          file=sys.stderr)
                    failures += 1
    print(f"  {cells} cells x {report.txns} txns: no cyclic garbage, "
          f"nothing at rest" if not failures else
          f"  {failures} problem(s) in {cells} cells")
    for name, run, budget in (
            ("steady", retention.run_steady, retention.STEADY_BUDGET),
            ("contended", retention.run_contended,
             retention.CONTENDED_BUDGET)):
        report = run()
        problems = report.problems(budget)
        print(f"  {name}: {report.txns} txns, "
              f"{report.bytes_per_txn():.0f} B/txn resident "
              f"(budget {budget:.0f}); quarter 2 vs 4: "
              f"{report.bytes_per_txn(2):.0f} vs "
              f"{report.bytes_per_txn(4):.0f} B/txn in small blocks, "
              f"last round x{report.time_ratio():.2f} the first's lines")
        for problem in problems:
            print(f"  {name}: {problem}", file=sys.stderr)
        failures += len(problems)
    report = retention.run_serve()
    problems = retention.serve_problems(report)
    print(f"  serve: {report.txns} txns over TCP, "
          f"{report.bytes_per_txn():.0f} B/txn resident (budget "
          f"{retention.SERVE_BUDGET:.0f}); quarter 1 vs 4: "
          f"{report.bytes_per_txn(1):.0f} vs {report.bytes_per_txn(4):.0f} "
          f"B/txn in small blocks; drain peak "
          f"{(report.drain_peak_bytes - report.peak_bytes) / 2**20:+.1f} MB "
          f"over the run's")
    for problem in problems:
        print(f"  serve: {problem}", file=sys.stderr)
    return failures + len(problems)


def timed(name, gate, *args):
    """Run one gate and print its wall seconds, pass or fail."""
    started = time.perf_counter()
    try:
        return gate(*args)
    finally:
        print(f"[{name}: {time.perf_counter() - started:.1f} s wall]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="re-measure at full size and rewrite "
                             "BENCH_kernel.json")
    parser.add_argument("--torture", action="store_true",
                        help="also run the full crash-point torture "
                             "matrix (repro-2pc torture) as a "
                             "zero-tolerance correctness gate")
    parser.add_argument("--audit", action="store_true",
                        help="also run the conformance audit matrix "
                             "(repro-2pc audit --faults) as a "
                             "zero-tolerance correctness gate")
    parser.add_argument("--chaos", action="store_true",
                        help="also run the full fixed-seed chaos "
                             "campaign (repro-2pc chaos) as a "
                             "zero-tolerance correctness gate")
    parser.add_argument("--scale", action="store_true",
                        help="also gate committed txns/sec/core "
                             "against BENCH_scale.json (the "
                             "machine-saturation trajectory)")
    parser.add_argument("--journal", action="store_true",
                        help="also run the flight-recorder journal "
                             "self-check (record -> replay -> diff "
                             "empty across BASIC/PA/PN/PC) as a "
                             "zero-tolerance correctness gate")
    parser.add_argument("--twin", action="store_true",
                        help="also run the live TCP deployment twin "
                             "(repro-2pc live all): localhost run -> "
                             "journal -> sim replay -> diff must be "
                             "empty with identical verdicts and cost "
                             "triples")
    parser.add_argument("--live-torture", action="store_true",
                        help="also run the live crash-restart torture "
                             "sweep (repro-2pc live-torture): kill "
                             "nodes at every recorded force site on "
                             "real sockets, restart from WAL, judge "
                             "every transaction — zero tolerance")
    parser.add_argument("--retention", action="store_true",
                        help="run only the retention gate (every "
                             "default run makes the same checks, in the "
                             "tier-1 suite or with --skip-tests here): "
                             "zero cyclic garbage, nothing left at "
                             "rest, flat tracemalloc bytes/txn within "
                             "budget and flat lines executed at 4000 "
                             "transactions")
    parser.add_argument("--skip-tests", action="store_true",
                        help="skip the tier-1 suite")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get(
                            "REPRO_BENCH_TOLERANCE", "0.20")),
                        help="allowed fractional event-churn regression "
                             "(default 0.20)")
    args = parser.parse_args(argv)

    if args.retention:
        return 1 if timed("retention", run_retention_gate) else 0
    if not args.skip_tests and not timed("tier-1", run_tier1):
        print("tier-1 suite failed", file=sys.stderr)
        return 1
    if args.torture:
        status = timed("torture", run_torture_matrix)
        if status:
            print("torture matrix found failing sites", file=sys.stderr)
            return status
    if args.audit:
        status = timed("audit", run_audit_gate)
        if status:
            print("conformance audit gate failed", file=sys.stderr)
            return status
    if args.chaos:
        status = timed("chaos", run_chaos_gate)
        if status:
            print("chaos campaign found failing schedules",
                  file=sys.stderr)
            return status
    if args.journal:
        status = timed("journal", run_journal_gate)
        if status:
            print("journal self-check found divergent replays",
                  file=sys.stderr)
            return status
    if args.twin:
        status = timed("twin", run_twin_gate)
        if status:
            print("deployment twin diverged from its sim replay",
                  file=sys.stderr)
            return status
    if args.live_torture:
        status = timed("live-torture", run_live_torture_gate)
        if status:
            print("live torture sweep left unrecovered cells",
                  file=sys.stderr)
            return status
    if args.update:
        return timed("update", update_baseline)
    if args.skip_tests and timed("retention", run_retention_gate):
        print("retention gate failed: finished transactions leave "
              "state behind", file=sys.stderr)
        return 1
    if args.scale:
        status = timed("scale", check_scale_baseline, args.tolerance)
        if status:
            return status
    return timed("kernel/obs baseline", check_baseline, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
