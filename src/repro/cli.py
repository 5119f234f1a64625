"""Command-line driver: regenerate the paper's tables and figures.

Usage::

    repro-2pc table 1|2|3|4 [--n N] [--m M] [--r R]
    repro-2pc figure 1..8
    repro-2pc compare            # every table cell, paper vs measured
    repro-2pc profile NAME [--obs] [--audit]
    repro-2pc trace NAME [--txn ID]
                    [--format transcript|spans|chrome|json|dashboard]
    repro-2pc sweep --study NAME --workers N [--csv] [--obs] [--audit]
    repro-2pc audit [--workers N] [--txns K] [--zero-tolerance]
                    [--faults] [--json]
    repro-2pc torture [--configs ...] [--variants ...] [--seed S]
                      [--workers N] [--max-sites N] [--artifacts DIR]
                      [--replay FILE] [--json]
    repro-2pc journal NAME [--out FILE] [--watchdog] [--prom]
                     [--seed S] [--txns K]
    repro-2pc diff A.jsonl B.jsonl [--ignore-time] [--normalize-txns]
                  [--json]
    repro-2pc live NAME|all [--seed S] [--txns K] [--log-dir DIR]
                  [--json]
    repro-2pc serve [--config NAME] [--nodes a,b,c] [--host H]
                    [--base-port P] [--log-dir DIR]
    repro-2pc live-torture [--configs ...] [--seed S] [--json]
    repro-2pc list-profiles
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import List, Optional

from repro.analysis.compare import compare_row
from repro.analysis.qualitative import TABLE1
from repro.analysis.render import cost_cell, render_table
from repro.analysis.scenarios import (
    TABLE2_SCENARIOS,
    run_table3_scenario,
    run_table4_scenario,
)
from repro.analysis.sweeps import rows_to_csv
from repro.analysis.tables import table2_rows, table3_rows, table4_rows
from repro.parallel.sweeps import STUDIES, run_study
from repro.trace.figures import ALL_FIGURES
from repro.workload.profiles import PROFILES


def _print_table1() -> int:
    print(render_table(
        ["Optimization", "Advantages", "Disadvantages"],
        [[row.optimization, row.advantages, row.disadvantages]
         for row in TABLE1],
        title="Table 1. Advantages and Disadvantages of 2PC Optimizations"))
    return 0


def _print_table2() -> int:
    lines = []
    failures = 0
    for row in table2_rows():
        result = TABLE2_SCENARIOS[row.key]()
        coord_ok = compare_row(row.label, row.coordinator,
                               result.coordinator).matches
        sub_ok = compare_row(row.label, row.subordinate,
                             result.subordinate).matches
        failures += (not coord_ok) + (not sub_ok)
        lines.append([row.label, cost_cell(row.coordinator),
                      cost_cell(result.coordinator),
                      cost_cell(row.subordinate),
                      cost_cell(result.subordinate),
                      "OK" if coord_ok and sub_ok else "MISMATCH"])
    print(render_table(
        ["2PC Type", "Coordinator (paper)", "Coordinator (measured)",
         "Subordinate (paper)", "Subordinate (measured)", "status"],
        lines,
        title="Table 2. Logging and network traffic of 2PC optimizations"))
    return 1 if failures else 0


def _print_table3(n: int, m: int) -> int:
    lines = []
    failures = 0
    for row in table3_rows(n=n, m=m):
        result = run_table3_scenario(row.key, n, m)
        ok = compare_row(row.label, row.analytic, result.total).matches
        failures += not ok
        lines.append([row.label, row.flows_formula,
                      cost_cell(row.analytic), cost_cell(result.total),
                      "OK" if ok else "MISMATCH"])
    print(render_table(
        ["2PC Type", "Flow formula", f"Paper (n={n}, m={m})",
         "Measured", "status"],
        lines,
        title=f"Table 3. Costs for n={n} participants, m={m} optimized"))
    return 1 if failures else 0


def _print_table4(r: int) -> int:
    lines = []
    failures = 0
    for row in table4_rows(r=r):
        measured = run_table4_scenario(row.variant, row.r)
        ok = compare_row(row.label, row.analytic, measured).matches
        failures += not ok
        lines.append([row.label, row.flows_formula,
                      cost_cell(row.analytic), cost_cell(measured),
                      "OK" if ok else "MISMATCH"])
    print(render_table(
        ["2PC Type", "Flow formula", f"Paper (r={r})", "Measured",
         "status"],
        lines,
        title=f"Table 4. Long-locks costs, r={r} chained transactions"))
    return 1 if failures else 0


def _print_figure(number: int) -> int:
    if number not in ALL_FIGURES:
        print(f"unknown figure {number}; choose 1..8", file=sys.stderr)
        return 2
    result = ALL_FIGURES[number]()
    print(result.diagram)
    if result.commentary:
        print()
        print(result.commentary)
    return 0


def _compare_all() -> int:
    failures = 0
    print("== Table 2 (per-role, 2 participants) ==")
    for row in table2_rows():
        result = TABLE2_SCENARIOS[row.key]()
        for role, analytic, measured in (
                ("coordinator", row.coordinator, result.coordinator),
                ("subordinate", row.subordinate, result.subordinate)):
            comparison = compare_row(f"{row.label} [{role}]", analytic,
                                     measured)
            failures += not comparison.matches
            print(" ", comparison.describe())
    print("== Table 3 (n=11, m=4) ==")
    for row in table3_rows():
        result = run_table3_scenario(row.key, row.n, row.m)
        comparison = compare_row(row.label, row.analytic, result.total)
        failures += not comparison.matches
        print(" ", comparison.describe())
    print("== Table 4 (r=12) ==")
    for row in table4_rows():
        measured = run_table4_scenario(row.variant, row.r)
        comparison = compare_row(row.label, row.analytic, measured)
        failures += not comparison.matches
        print(" ", comparison.describe())
    print(f"\n{failures} mismatching cells" if failures
          else "\nevery cell reproduces the paper")
    return 1 if failures else 0


def _run_profile(name: str, obs: bool = False, audit: bool = False) -> int:
    if name not in PROFILES:
        print(f"unknown profile {name!r}; try: "
              f"{', '.join(sorted(PROFILES))}", file=sys.stderr)
        return 2
    profile = PROFILES[name]()
    print(f"{profile.name}: {profile.description}")
    cluster = profile.build_cluster()
    tracer = ledger = auditor = None
    if obs:
        from repro.obs import SpanTracer
        tracer = SpanTracer().attach(cluster)
    if audit:
        from repro.obs import ConformanceAuditor, CostLedger
        ledger = CostLedger().attach(cluster)
        auditor = ConformanceAuditor(predictor=profile.expected_costs)
        auditor.attach(cluster, ledger)
    specs = profile.specs()
    for spec in specs:
        handle = cluster.run_transaction(spec)
        print(f"  {spec.txn_id}: {handle.outcome} "
              f"({cluster.metrics.cost_summary(spec.txn_id)})")
    cluster.finalize_implied_acks()
    cluster.flush_deferred_acks()
    print(f"total commit flows: {cluster.metrics.commit_flows()}, "
          f"forced writes: {cluster.metrics.forced_log_writes()}, "
          f"mean lock hold: {cluster.metrics.mean_lock_hold():.2f}")
    anomalies = 0
    if auditor is not None:
        auditor.finish()
        counts = auditor.counts()
        anomalies = counts["anomaly"]
        print(f"audit: {counts['conforms']} conform, "
              f"{counts['expected-under-faults']} expected-under-faults, "
              f"{anomalies} anomalies"
              + ("" if profile.expected_costs is not None
                 else " (no prediction for this profile)"))
        for finding in auditor.anomalies():
            print(f"  ANOMALY {finding.txn_id}: observed "
                  f"{finding.observed}, expected {finding.expected}")
    if tracer is not None or auditor is not None:
        from repro.obs import RunReport
        if tracer is not None:
            tracer.finish()
        print()
        print(RunReport.from_run(cluster, tracer, ledger=ledger,
                                 auditor=auditor).render(
            title=f"Run report: {name}"))
        if tracer is not None:
            tracer.detach()
    if auditor is not None:
        auditor.detach()
    if ledger is not None:
        ledger.detach()
    return 1 if anomalies else 0


def _default_trace_cluster():
    """The canonical observability demo: one coordinator, two update
    subordinates, Presumed Abort — the paper's Figure 2 flow/force
    sequence."""
    from repro.core.config import PRESUMED_ABORT
    from repro.core.cluster import Cluster
    from repro.core.spec import flat_tree
    from repro.lrm.operations import write_op

    cluster = Cluster(PRESUMED_ABORT, nodes=["Coord", "Sub1", "Sub2"])
    spec = flat_tree("Coord", ["Sub1", "Sub2"], txn_id="T1")
    for participant in spec.participants:
        participant.ops.append(write_op(f"key-{participant.node}", 1))
    return cluster, [spec]


def _run_trace(name: str, txn: Optional[str], fmt: str) -> int:
    """Run a workload under the span tracer and export the result.

    A protocol checker rides along; violations print to stderr and
    make the exit status nonzero, so CI can gate on traced runs.
    """
    import json as _json

    from repro.obs import (SpanTracer, render_span_tree, spans_to_chrome,
                           spans_to_jsonl)
    from repro.trace.recorder import Tracer
    from repro.verify.checker import ProtocolChecker

    if name == "default":
        cluster, specs = _default_trace_cluster()
    elif name in PROFILES:
        profile = PROFILES[name]()
        cluster = profile.build_cluster()
        specs = profile.specs()
    else:
        print(f"unknown workload {name!r}; try: default, "
              f"{', '.join(sorted(PROFILES))}", file=sys.stderr)
        return 2

    span_tracer = SpanTracer().attach(cluster)
    checker = ProtocolChecker().attach(cluster)
    transcript_tracer = Tracer().attach(cluster) \
        if fmt == "transcript" else None
    timeseries = None
    if fmt == "dashboard":
        from repro.obs import SimTimeSeries
        timeseries = SimTimeSeries(interval=0.5).attach(cluster)
    for spec in specs:
        cluster.run_transaction(spec)
    cluster.finalize_implied_acks()
    span_tracer.finish()

    failed = 0
    for violation in checker.violations:
        print(f"protocol violation: {violation}", file=sys.stderr)
        failed = 1

    if fmt == "transcript":
        print(transcript_tracer.transcript(txn))
        return failed
    if fmt == "dashboard":
        print(timeseries.render_dashboard())
        timeseries.detach()
        return failed

    spans = span_tracer.spans_for(txn) if txn else span_tracer.spans
    if txn and not spans:
        print(f"no spans for transaction {txn!r}; traced: "
              f"{', '.join(span_tracer.txn_ids())}", file=sys.stderr)
        return 1
    if fmt == "spans":
        print(render_span_tree(spans, include_events=True))
    elif fmt == "chrome":
        print(_json.dumps(spans_to_chrome(spans)))
    else:  # json (JSONL, one span per line)
        print(spans_to_jsonl(spans))
    return failed


#: Protocol names the journal command accepts in addition to workload
#: profiles (generated seeded workloads, matching the self-check gate).
JOURNAL_PROTOCOLS = ("basic", "presumed_abort", "presumed_nothing",
                     "presumed_commit")


def _run_journal(name: str, out: Optional[str], watchdog: bool,
                 prom: bool, seed: int, txns: int) -> int:
    """Record a workload as a flight-recorder journal (JSONL).

    The journal goes to stdout (or ``--out FILE``); watchdog findings
    and the Prometheus snapshot go to stderr when the journal owns
    stdout, so ``repro-2pc journal X > a.jsonl`` stays clean.
    Exit status is 1 when ``--watchdog`` finds anything.
    """
    from repro.obs import (JournalRecorder, Watchdog, journal_to_jsonl,
                           normalize_txn_ids, prometheus_text)

    if name in JOURNAL_PROTOCOLS:
        from repro.core.config import (BASIC_2PC, PRESUMED_ABORT,
                                       PRESUMED_COMMIT, PRESUMED_NOTHING)
        from repro.obs import record_workload_journal
        config = {"basic": BASIC_2PC, "presumed_abort": PRESUMED_ABORT,
                  "presumed_nothing": PRESUMED_NOTHING,
                  "presumed_commit": PRESUMED_COMMIT}[name]
        entries = record_workload_journal(config, seed=seed, txns=txns)
    else:
        if name == "default":
            cluster, specs = _default_trace_cluster()
        elif name in PROFILES:
            profile = PROFILES[name]()
            cluster = profile.build_cluster()
            specs = profile.specs()
        else:
            print(f"unknown workload {name!r}; try: default, "
                  f"{', '.join(JOURNAL_PROTOCOLS)}, "
                  f"{', '.join(sorted(PROFILES))}", file=sys.stderr)
            return 2
        recorder = JournalRecorder().attach(cluster)
        for spec in specs:
            cluster.run_transaction(spec)
        cluster.finalize_implied_acks()
        recorder.detach()
        entries = normalize_txn_ids(recorder.entries())

    text = journal_to_jsonl(entries, meta={"workload": name, "seed": seed,
                                           "txns": txns})
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
        side = sys.stdout
        print(f"{len(entries)} journal entries -> {out}")
    else:
        print(text)
        side = sys.stderr

    failed = 0
    findings = []
    if watchdog:
        findings = Watchdog().scan(entries)
        for finding in findings:
            print(f"watchdog {finding.describe()}", file=side)
            failed = 1
        if not findings:
            print("watchdog: no findings", file=side)
    if prom:
        print(prometheus_text(entries, findings), file=side, end="")
    return failed


def _run_diff(path_a: str, path_b: str, ignore_time: bool,
              normalize: bool, as_json: bool) -> int:
    """Diff two journal files; localize the first divergent event.

    Exit status: 0 equivalent, 1 divergent, 2 unreadable input.
    """
    import json as _json

    from repro.obs import (diff_journals, journal_from_jsonl,
                           normalize_txn_ids)

    journals = []
    for path in (path_a, path_b):
        try:
            with open(path) as handle:
                __, entries = journal_from_jsonl(handle.read())
        except (OSError, ValueError) as error:
            print(f"cannot load journal {path}: {error}", file=sys.stderr)
            return 2
        if normalize:
            entries = normalize_txn_ids(entries)
        journals.append(entries)

    divergence = diff_journals(journals[0], journals[1],
                               ignore_time=ignore_time)
    if as_json:
        print(_json.dumps({
            "equivalent": divergence is None,
            "entries": [len(j) for j in journals],
            "divergence": divergence.to_dict() if divergence else None,
        }, indent=2, sort_keys=True))
    elif divergence is None:
        print(f"journals equivalent ({len(journals[0])} vs "
              f"{len(journals[1])} entries, modulo permitted "
              "reorderings)")
    else:
        print(divergence.describe())
    return 0 if divergence is None else 1


def _run_live(name: str, seed: int, txns: int, log_dir: Optional[str],
              as_json: bool) -> int:
    """Run a workload live over localhost TCP and twin-check it.

    The live run records a journal and replays its delivery schedule in
    the deterministic simulator; exit 0 only if the diff is empty with
    identical checker verdicts, cost triples, and 1:1 fsync mapping.
    """
    import json as _json

    from repro.transport import (TWIN_PROTOCOLS, loopback_status,
                                 run_twin_check, run_twin_matrix)

    available, reason = loopback_status()
    if not available:
        print(f"loopback networking unavailable ({reason}); "
              "cannot run live", file=sys.stderr)
        return 2
    if name == "all":
        reports = run_twin_matrix(seed=seed, txns=txns, log_dir=log_dir)
    elif name in TWIN_PROTOCOLS:
        reports = {name: run_twin_check(name, seed=seed, txns=txns,
                                        log_dir=log_dir)}
    else:
        print(f"unknown protocol {name!r}; expected one of "
              f"{', '.join(TWIN_PROTOCOLS)} or 'all'", file=sys.stderr)
        return 2
    clean = all(r.clean for r in reports.values())
    if as_json:
        print(_json.dumps({key: r.to_dict() for key, r in reports.items()},
                          indent=2, sort_keys=True))
    else:
        for report in reports.values():
            print(report.describe())
    return 0 if clean else 1


def _run_serve(config_name: str, nodes: str, host: str, base_port: int,
               seed: int, log_dir: Optional[str],
               admin_port: Optional[int] = 0,
               journal_path: Optional[str] = None,
               drain_timeout: float = 30.0,
               checkpoint_interval: Optional[float] = None) -> int:
    """Serve a live cluster until drained (``repro-2pc serve``).

    SIGTERM/SIGINT trigger a graceful drain: new ``begin`` frames are
    refused, in-flight work finishes, the journal and WAL fsyncs are
    flushed, and the process exits 0.
    """
    import asyncio

    from repro.transport import ServeControl, TWIN_PROTOCOLS, serve

    if config_name not in TWIN_PROTOCOLS:
        print(f"unknown protocol {config_name!r}; expected one of "
              f"{', '.join(TWIN_PROTOCOLS)}", file=sys.stderr)
        return 2
    node_names = [n.strip() for n in nodes.split(",") if n.strip()]
    if not node_names:
        print("no nodes given", file=sys.stderr)
        return 2

    control = ServeControl()

    def ready(cluster, addresses) -> None:
        print(f"serving {config_name} cluster "
              f"({len(addresses)} nodes); send a 'begin' frame to any "
              f"node to run a transaction:")
        for node, (bound_host, port) in addresses.items():
            print(f"  {node}  {bound_host}:{port}")
        if cluster.admin_address is not None:
            admin_host, bound = cluster.admin_address
            print(f"  admin plane  http://{admin_host}:{bound} "
                  "(/metrics /status /indoubt /resolve)")
        print("SIGTERM/SIGINT drains gracefully", flush=True)

    try:
        asyncio.run(serve(TWIN_PROTOCOLS[config_name], node_names,
                          host=host, base_port=base_port, seed=seed,
                          log_dir=log_dir, ready=ready,
                          admin_port=admin_port, control=control,
                          drain_timeout=drain_timeout,
                          journal_path=journal_path,
                          checkpoint_interval=checkpoint_interval))
    except KeyboardInterrupt:
        # Platforms without loop signal handlers land here; the serve
        # body's finally block has already flushed journal and WALs.
        print("interrupted; shutting down")
        return 0
    print(f"drained ({control.reason or 'requested'}); journal and "
          "WALs flushed")
    return 0


def _run_top(connect: Optional[str], journal: Optional[str], once: bool,
             interval: float) -> int:
    """Terminal dashboard over the admin plane or a recorded journal."""
    import time as _time

    from repro.obs import TopSnapshot, render_top

    if (connect is None) == (journal is None):
        print("need exactly one of --connect HOST:PORT or "
              "--journal FILE", file=sys.stderr)
        return 2

    if journal is not None:
        from repro.obs import journal_from_jsonl
        try:
            with open(journal) as handle:
                __, entries = journal_from_jsonl(handle.read())
        except (OSError, ValueError) as error:
            print(f"cannot load journal {journal}: {error}",
                  file=sys.stderr)
            return 2
        print(render_top(TopSnapshot.from_journal(entries)), end="")
        return 0

    import json as _json
    from urllib.request import urlopen

    host, _, port = connect.rpartition(":")
    if not host or not port.isdigit():
        print(f"bad --connect {connect!r}; expected HOST:PORT",
              file=sys.stderr)
        return 2

    def fetch(path: str):
        with urlopen(f"http://{host}:{port}{path}", timeout=10) as resp:
            return _json.loads(resp.read().decode("utf-8"))

    while True:
        try:
            status = fetch("/status")
            indoubt = fetch("/indoubt")
        except OSError as error:
            print(f"cannot reach admin plane at {connect}: {error}",
                  file=sys.stderr)
            return 2
        snapshot = TopSnapshot.from_admin(status, indoubt)
        if not once:
            print("\033[2J\033[H", end="")   # clear screen, home cursor
        print(render_top(snapshot), end="", flush=True)
        if once:
            return 0
        try:
            _time.sleep(interval)
        except KeyboardInterrupt:
            return 0


def _run_campaign(args) -> int:
    """``torture`` / ``chaos`` / ``live-torture``: sweep the grid, or
    replay one artifact."""
    import json
    from repro.faults.campaign import load_artifact
    replay_path = getattr(args, "replay", None)
    if args.command == "live-torture":
        from repro.transport import loopback_status
        from repro.transport.torture import run_live_torture
        available, reason = loopback_status()
        if not available:
            print(f"loopback networking unavailable ({reason}); "
                  "cannot run live-torture", file=sys.stderr)
            return 2
        sweep = partial(run_live_torture, configs=args.configs,
                        seed=args.seed)
    else:
        if args.command == "torture":
            from repro.torture import replay_artifact as replay
            from repro.torture import torture_sweep
            grid = partial(torture_sweep, max_sites=args.max_sites)
        else:
            from repro.chaos import replay_chaos_artifact as replay
            from repro.chaos import run_chaos_campaign
            grid = partial(run_chaos_campaign, schedules=args.schedules)
        sweep = partial(grid, configs=args.configs, variants=args.variants,
                        seed=args.seed, workers=args.workers,
                        artifact_dir=args.artifacts)
    if replay_path is not None:
        result = replay(load_artifact(replay_path, args.command))
        passed = result.ok
    else:
        result = sweep()
        passed = result.clean
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.describe())
        if replay_path is not None:
            for violation in result.violations:
                print(f"  {violation}")
    return 0 if passed else 1


def _run_audit(workers: Optional[int], txns: int, zero_tolerance: bool,
               faults: bool, as_json: bool) -> int:
    """The conformance audit matrix (and optional seeded-fault run)."""
    import json as _json

    from repro.obs import run_audit_matrix, run_faulty_audit_cell

    report = run_audit_matrix(workers=workers, txns=txns,
                              zero_tolerance=zero_tolerance)
    fault_cell = run_faulty_audit_cell() if faults else None
    if as_json:
        payload = dict(report)
        if fault_cell is not None:
            payload["fault_cell"] = fault_cell
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        lines = []
        for cell in report["cells"]:
            expected = cell["expected"]
            lines.append([
                cell["protocol"], cell["variant"], str(cell["txns"]),
                (f"{expected['flows']}f/{expected['log_writes']}w/"
                 f"{expected['forced_writes']}F"),
                str(cell["conforms"]), str(cell["expected_under_faults"]),
                str(cell["anomalies"])])
        print(render_table(
            ["protocol", "variant", "txns", "expected", "conforms",
             "under-faults", "anomalies"],
            lines, title="Conformance audit: observed per-transaction "
                         "costs vs the formulas"))
        print(f"\n{report['txns']} transactions audited: "
              f"{report['conforms']} conform, "
              f"{report['expected_under_faults']} expected-under-faults, "
              f"{report['anomalies']} anomalies")
        if fault_cell is not None:
            print(f"seeded crash-recovery run: outcome "
                  f"{fault_cell['outcome']}, "
                  f"{fault_cell['expected_under_faults']} "
                  f"expected-under-faults, "
                  f"{fault_cell['anomalies']} anomalies")
    failed = report["anomalies"] > 0
    if fault_cell is not None:
        # The fault run must diverge *and* be excused by fault evidence.
        failed = failed or fault_cell["anomalies"] > 0 \
            or fault_cell["expected_under_faults"] == 0
    return 1 if failed else 0


def _run_sweep(study: str, workers: Optional[int], csv: bool,
               obs: bool = False, audit: bool = False) -> int:
    profiler = None
    if obs:
        from repro.obs import KernelProfiler
        profiler = KernelProfiler()
    try:
        rows = run_study(study, workers=workers, profiler=profiler,
                         audit=audit)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if not rows:
        print("study produced no rows", file=sys.stderr)
        return 1
    if csv:
        print(rows_to_csv(rows), end="")
    else:
        print(render_table(
            list(rows[0].keys()),
            [list(row.values()) for row in rows],
            title=f"Sweep study: {study} "
                  f"(workers={workers if workers else 'serial'})"))
    if profiler is not None:
        print()
        print(profiler.render())
    return 0


def _full_report() -> int:
    """Every table and figure, one markdown document on stdout."""
    print("# Regenerated evaluation — "
          "Two-Phase Commit Optimizations and Tradeoffs\n")
    for builder in (_print_table1, _print_table2,
                    lambda: _print_table3(11, 4),
                    lambda: _print_table4(12)):
        print("```text")
        builder()
        print("```\n")
    for number in sorted(ALL_FIGURES):
        print("```text")
        _print_figure(number)
        print("```\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-2pc",
        description="Regenerate the tables and figures of 'Two-Phase "
                    "Commit Optimizations and Tradeoffs in the "
                    "Commercial Environment' (ICDE 1993).")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=[1, 2, 3, 4])
    table.add_argument("--n", type=int, default=11,
                       help="tree size for table 3 (default 11)")
    table.add_argument("--m", type=int, default=4,
                       help="optimized members for table 3 (default 4)")
    table.add_argument("--r", type=int, default=12,
                       help="chained transactions for table 4 (default 12)")

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=sorted(ALL_FIGURES))

    sub.add_parser("compare", help="paper vs measured for every cell")

    profile = sub.add_parser("profile", help="run a workload profile")
    profile.add_argument("name")
    profile.add_argument("--obs", action="store_true",
                         help="attach the span tracer and print a "
                              "percentile run report")
    profile.add_argument("--audit", action="store_true",
                         help="attach the cost ledger and conformance "
                              "auditor; non-zero exit on anomalies")

    trace = sub.add_parser(
        "trace", help="run a workload under the span tracer and "
                      "export the trace")
    trace.add_argument("name",
                       help="'default' (1 coordinator, 2 subordinates, "
                            "Presumed Abort) or a workload profile name")
    trace.add_argument("--txn", default=None,
                       help="only export spans of this transaction id")
    trace.add_argument("--format", dest="fmt", default="spans",
                       choices=["transcript", "spans", "chrome", "json",
                                "dashboard"],
                       help="transcript: flow/log event log; spans: "
                            "indented span tree; chrome: Chrome "
                            "trace_event JSON (chrome://tracing, "
                            "Perfetto); json: spans as JSONL; "
                            "dashboard: sim-time gauge sparklines")

    fuzz = sub.add_parser(
        "fuzz", help="randomized fault-injected runs with online "
                     "protocol verification")
    fuzz.add_argument("--runs", type=int, default=25)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--max-nodes", type=int, default=6)

    swp = sub.add_parser(
        "sweep", help="run a parameter study, optionally sharded "
                      "across worker processes")
    swp.add_argument("--study", choices=sorted(STUDIES),
                     default="presumptions")
    swp.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: "
                          "$REPRO_SWEEP_WORKERS or serial)")
    swp.add_argument("--csv", action="store_true",
                     help="emit CSV instead of a rendered table")
    swp.add_argument("--obs", action="store_true",
                     help="profile kernel event handling during the "
                          "study (forces serial execution)")
    swp.add_argument("--audit", action="store_true",
                     help="attach a cost ledger and conformance "
                          "auditor inside each cell (auditable "
                          "studies only)")

    audit = sub.add_parser(
        "audit", help="conformance audit: run the protocol x variant "
                      "matrix and diff every transaction's observed "
                      "cost triple against the analytic formulas")
    audit.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: "
                            "$REPRO_SWEEP_WORKERS or serial)")
    audit.add_argument("--txns", type=int, default=3,
                       help="transactions per matrix cell (default 3)")
    audit.add_argument("--zero-tolerance", action="store_true",
                       help="classify every divergence as an anomaly, "
                            "even with fault evidence")
    audit.add_argument("--faults", action="store_true",
                       help="also run a seeded crash-recovery cell and "
                            "require its divergence to classify as "
                            "expected-under-faults")
    audit.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")

    from repro.faults.campaign import CONFIG_NAMES, VARIANTS
    torture = sub.add_parser(
        "torture", help="deterministic crash-point torture matrix: "
                        "replay the workload with a crash at every "
                        "forced write, send and delivery, verifying "
                        "recovery invariants after each restart")
    torture.add_argument("--configs", nargs="+", choices=CONFIG_NAMES,
                         default=None,
                         help="presumption configs (default: all four)")
    torture.add_argument("--variants", nargs="+", choices=VARIANTS,
                         default=None,
                         help="optimization variants (default: all)")
    torture.add_argument("--seed", type=int, default=0)
    torture.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: "
                              "$REPRO_SWEEP_WORKERS or serial)")
    torture.add_argument("--max-sites", type=int, default=None,
                         help="cap crash sites per cell (smoke runs)")
    torture.add_argument("--artifacts", default=None, metavar="DIR",
                         help="write a replayable JSON artifact per "
                              "failing site into DIR")
    torture.add_argument("--replay", default=None, metavar="FILE",
                         help="re-run the single site a failure "
                              "artifact describes instead of sweeping")
    torture.add_argument("--json", action="store_true",
                         help="emit the report (or replay result) "
                              "as JSON")

    from repro.chaos import CHAOS_VARIANTS
    from repro.chaos.campaign import DEFAULT_SCHEDULES
    chaos = sub.add_parser(
        "chaos", help="adversarial network chaos campaign: sweep seeded "
                      "schedules of duplication, reordering, delay "
                      "spikes, link flaps and stale delivery across the "
                      "protocol x variant grid, shrinking any failure "
                      "to a minimal replayable artifact")
    chaos.add_argument("--configs", nargs="+", choices=CONFIG_NAMES,
                       default=None,
                       help="presumption configs (default: all four)")
    chaos.add_argument("--variants", nargs="+", choices=CHAOS_VARIANTS,
                       default=None,
                       help="optimization variants (default: all)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--schedules", type=int, default=DEFAULT_SCHEDULES,
                       help="seeded schedules per cell (default 13, "
                            "i.e. 208 runs over the full grid)")
    chaos.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: "
                            "$REPRO_SWEEP_WORKERS or serial)")
    chaos.add_argument("--artifacts", default=None, metavar="DIR",
                       help="write a shrunk replayable JSON artifact "
                            "per failing schedule into DIR")
    chaos.add_argument("--replay", default=None, metavar="FILE",
                       help="re-run the single schedule a failure "
                            "artifact describes instead of sweeping")
    chaos.add_argument("--json", action="store_true",
                       help="emit the report (or replay result) "
                            "as JSON")

    journal = sub.add_parser(
        "journal", help="record a workload as a flight-recorder "
                        "journal: an append-only, causally-linked "
                        "JSONL of every flow, log write, force and "
                        "lock event (see docs/OBSERVABILITY.md)")
    journal.add_argument("name",
                         help="'default', a protocol name "
                              f"({', '.join(JOURNAL_PROTOCOLS)}: "
                              "seeded generated workload), or a "
                              "workload profile name")
    journal.add_argument("--out", default=None, metavar="FILE",
                         help="write the journal here instead of "
                              "stdout")
    journal.add_argument("--watchdog", action="store_true",
                         help="run the watchdog detectors over the "
                              "journal; nonzero exit on findings")
    journal.add_argument("--prom", action="store_true",
                         help="also emit a Prometheus-style text "
                              "exposition snapshot")
    journal.add_argument("--seed", type=int, default=11,
                         help="workload seed for protocol-name "
                              "journals (default 11)")
    journal.add_argument("--txns", type=int, default=8,
                         help="transactions for protocol-name "
                              "journals (default 8)")

    diff = sub.add_parser(
        "diff", help="compare two journals modulo permitted "
                     "reorderings and localize the first "
                     "causally-divergent event")
    diff.add_argument("a", metavar="A.jsonl",
                      help="expected (reference) journal")
    diff.add_argument("b", metavar="B.jsonl",
                      help="observed journal")
    diff.add_argument("--ignore-time", action="store_true",
                      help="compare event structure only, not "
                           "timestamps (journals from different "
                           "clocks)")
    diff.add_argument("--normalize-txns", action="store_true",
                      help="rename txn ids to first-appearance "
                           "ordinals in both journals before "
                           "comparing")
    diff.add_argument("--json", action="store_true",
                      help="emit the verdict as JSON")

    live = sub.add_parser(
        "live", help="run a workload on the real asyncio/TCP transport "
                     "and twin-check it: the recorded journal's "
                     "delivery schedule is replayed in the simulator "
                     "and the diff must be empty")
    live.add_argument("name",
                      help=f"protocol ({', '.join(JOURNAL_PROTOCOLS)}) "
                           "or 'all'")
    live.add_argument("--seed", type=int, default=11,
                      help="workload seed (default 11)")
    live.add_argument("--txns", type=int, default=6,
                      help="transactions to run (default 6)")
    live.add_argument("--log-dir", default=None, metavar="DIR",
                      help="keep the nodes' WAL files here (default: "
                           "a throwaway temp dir)")
    live.add_argument("--json", action="store_true",
                      help="emit the twin reports as JSON")

    serve = sub.add_parser(
        "serve", help="run a live cluster over TCP until interrupted; "
                      "external clients drive transactions with "
                      "'begin' control frames (see docs/DEPLOYMENT.md)")
    serve.add_argument("--config", default="presumed_abort",
                       help="protocol preset (default presumed_abort)")
    serve.add_argument("--nodes", default="n0,n1,n2",
                       help="comma-separated node names (default "
                            "n0,n1,n2)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--base-port", type=int, default=0,
                       help="first port; node i listens on base+i "
                            "(default 0 = ephemeral)")
    serve.add_argument("--seed", type=int, default=0,
                       help="random-stream seed (default 0)")
    serve.add_argument("--log-dir", default=None, metavar="DIR",
                       help="directory for the nodes' WAL files "
                            "(default: in-memory stable storage)")
    serve.add_argument("--admin-port", type=int, default=0,
                       help="admin-plane HTTP port serving /metrics, "
                            "/status, /indoubt, /resolve (default 0 = "
                            "ephemeral; -1 disables the admin plane)")
    serve.add_argument("--journal", default=None, metavar="FILE",
                       help="flush the flight-recorder journal here on "
                            "drain (default: <log-dir>/journal.jsonl "
                            "when --log-dir is set)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="max seconds to wait for in-flight work "
                            "during a graceful drain (default 30)")
    serve.add_argument("--checkpoint-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="force a CHECKPOINT record on every node "
                            "this often and compact its WAL past it "
                            "(default: no periodic checkpoints)")

    live_torture = sub.add_parser(
        "live-torture", help="the crash-site torture campaign on real "
                             "sockets: record every forced write of a "
                             "live run, then kill the node at each one "
                             "(pre and post) and restart it from its "
                             "WAL; exit 0 only if every replay is "
                             "judged ok and every clean run is "
                             "twin-checked clean")
    live_torture.add_argument("--configs", nargs="+", choices=CONFIG_NAMES,
                              default=None,
                              help="presumption configs (default: all "
                                   "four)")
    live_torture.add_argument("--seed", type=int, default=17,
                              help="workload seed (default 17)")
    live_torture.add_argument("--json", action="store_true",
                              help="emit the report as JSON")

    top = sub.add_parser(
        "top", help="operator dashboard: in-flight/in-doubt txns, held "
                    "locks, lock-wait burn, watchdog findings, and "
                    "commit/abort rates — live from a serve admin "
                    "plane or offline from a journal file")
    top.add_argument("--connect", default=None, metavar="HOST:PORT",
                     help="poll a running serve's admin plane")
    top.add_argument("--journal", default=None, metavar="FILE",
                     help="render one snapshot from a recorded journal")
    top.add_argument("--once", action="store_true",
                     help="print a single snapshot and exit")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh interval in seconds (default 2)")

    saturate = sub.add_parser(
        "saturate", help="machine-saturation benchmark: one worker per "
                         "core running the full commit protocol, "
                         "reporting committed txns/sec/core (the "
                         "BENCH_scale.json figure)")
    saturate.add_argument("--workers", type=int, default=None,
                          help="worker processes (default: all cores)")
    saturate.add_argument("--txns", type=int, default=None,
                          help="transactions per worker (default: "
                               "full size, 2000)")
    saturate.add_argument("--json", action="store_true",
                          help="emit the result as JSON")

    sub.add_parser("report", help="regenerate every table and figure "
                                  "as one markdown report on stdout")

    sub.add_parser("list-profiles", help="list workload profiles")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "table":
        if args.number == 1:
            return _print_table1()
        if args.number == 2:
            return _print_table2()
        if args.number == 3:
            return _print_table3(args.n, args.m)
        return _print_table4(args.r)
    if args.command == "figure":
        return _print_figure(args.number)
    if args.command == "compare":
        return _compare_all()
    if args.command == "profile":
        return _run_profile(args.name, obs=args.obs, audit=args.audit)
    if args.command == "trace":
        return _run_trace(args.name, args.txn, args.fmt)
    if args.command == "sweep":
        return _run_sweep(args.study, args.workers, args.csv, obs=args.obs,
                          audit=args.audit)
    if args.command == "audit":
        return _run_audit(args.workers, args.txns, args.zero_tolerance,
                          args.faults, args.json)
    if args.command == "fuzz":
        from repro.fuzz import fuzz as run_fuzz
        report = run_fuzz(runs=args.runs, seed=args.seed,
                          max_nodes=args.max_nodes)
        print(report.describe())
        return 0 if report.clean else 1
    if args.command in ("torture", "chaos", "live-torture"):
        return _run_campaign(args)
    if args.command == "journal":
        return _run_journal(args.name, args.out, args.watchdog,
                            args.prom, args.seed, args.txns)
    if args.command == "diff":
        return _run_diff(args.a, args.b, args.ignore_time,
                         args.normalize_txns, args.json)
    if args.command == "live":
        return _run_live(args.name, args.seed, args.txns, args.log_dir,
                         args.json)
    if args.command == "serve":
        return _run_serve(args.config, args.nodes, args.host,
                          args.base_port, args.seed, args.log_dir,
                          admin_port=(None if args.admin_port < 0
                                      else args.admin_port),
                          journal_path=args.journal,
                          drain_timeout=args.drain_timeout,
                          checkpoint_interval=args.checkpoint_interval)
    if args.command == "top":
        return _run_top(args.connect, args.journal, args.once,
                        args.interval)
    if args.command == "saturate":
        import json as json_module
        from repro.parallel.saturate import (FULL_TXNS_PER_WORKER,
                                             describe, run_saturation)
        result = run_saturation(
            workers=args.workers,
            txns_per_worker=args.txns or FULL_TXNS_PER_WORKER)
        if args.json:
            print(json_module.dumps(result, indent=2))
        else:
            print(describe(result))
        return 0
    if args.command == "report":
        return _full_report()
    if args.command == "list-profiles":
        for name in sorted(PROFILES):
            profile = PROFILES[name]()
            print(f"{name}: {profile.description}")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
