"""RunReport: the percentile view of one simulation run.

The paper's tables report per-transaction *counts* (flows, log writes,
forced writes); a commercial operator also wants *distributions* —
what did commit latency, lock hold time and log-force latency look
like at the tail?  :class:`RunReport` pulls both out of a cluster's
:class:`~repro.metrics.collector.MetricsCollector` (plus, optionally,
phase durations from an attached
:class:`~repro.obs.tracer.SpanTracer`) into histograms, renders a
summary table, and serialises to JSON for sweep persistence.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.metrics.histogram import Histogram


class RunReport:
    """Distribution summary of one run."""

    def __init__(self) -> None:
        #: name -> Histogram; insertion order is render order.
        self.distributions: Dict[str, Histogram] = {}
        #: scalar counters shown under the table.
        self.counters: Dict[str, float] = {}
        #: free-form annotations (deadlock victims, audit anomalies);
        #: merged by concatenation.
        self.notes: List[str] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_run(cls, cluster, tracer=None, ledger=None,
                 auditor=None, watchdog=None) -> "RunReport":
        """Build from a finished cluster.

        ``tracer``, ``ledger``, ``auditor`` and ``watchdog`` (a
        :class:`~repro.obs.tracer.SpanTracer`,
        :class:`~repro.obs.ledger.CostLedger`,
        :class:`~repro.obs.audit.ConformanceAuditor` and
        :class:`~repro.obs.watchdog.Watchdog`) each contribute
        their sections when supplied.
        """
        report = cls()
        metrics = cluster.metrics

        latency = Histogram()
        for record in metrics.transactions:
            latency.record(record.latency)
        report.distributions["txn latency"] = latency

        locks = Histogram()
        locks.record_many(metrics.lock_holds)
        report.distributions["lock hold"] = locks

        forces = Histogram()
        forces.record_many(d for __, d in metrics.force_latencies)
        report.distributions["log-force latency"] = forces

        if metrics.recoveries:
            recovery = Histogram()
            recovery.record_many(r.seconds for r in metrics.recoveries)
            report.distributions["recovery time"] = recovery

        if tracer is not None:
            for phase, durations in sorted(
                    tracer.phase_durations().items()):
                histogram = Histogram()
                histogram.record_many(durations)
                report.distributions[f"phase: {phase}"] = histogram

        if ledger is not None:
            flows = Histogram()
            writes = Histogram()
            forced = Histogram()
            lock_time = Histogram()
            for txn_id in sorted(ledger.protocol_txn_ids()):
                costs = ledger.cost_summary(txn_id)
                flows.record(costs.flows)
                writes.record(costs.log_writes)
                forced.record(costs.forced_writes)
                lock_time.record(ledger.lock_time(txn_id))
            report.distributions["txn flows"] = flows
            report.distributions["txn log writes"] = writes
            report.distributions["txn forced writes"] = forced
            report.distributions["txn lock time"] = lock_time

        outcomes: Dict[str, int] = {}
        for record in metrics.transactions:
            outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
        report.counters = {
            "transactions": len(metrics.transactions),
            "commits": outcomes.get("commit", 0),
            "aborts": outcomes.get("abort", 0),
            "heuristic decisions": len(metrics.heuristics),
            "recovery anomalies": metrics.recovery_anomaly_count(),
            "restart recoveries": len(metrics.recoveries),
            "recovery records replayed": sum(
                r.records_replayed for r in metrics.recoveries),
            "deadlocks detected": metrics.deadlock_count(),
            "commit flows": metrics.commit_flows(),
            "log writes": metrics.total_log_writes(),
            "forced writes": metrics.forced_log_writes(),
            "physical log I/Os": metrics.physical_ios(),
        }
        for victim in metrics.deadlock_victims():
            report.notes.append(f"deadlock victim: {victim}")

        if auditor is not None:
            counts = auditor.counts()
            report.counters["audit conforms"] = counts["conforms"]
            report.counters["audit expected-under-faults"] = \
                counts["expected-under-faults"]
            report.counters["audit anomalies"] = counts["anomaly"]
            for finding in auditor.anomalies():
                report.notes.append(
                    f"audit anomaly: {finding.txn_id} observed "
                    f"{finding.observed} expected {finding.expected}")

        if watchdog is not None:
            findings = watchdog.findings()
            report.counters["watchdog findings"] = len(findings)
            for finding in findings:
                report.notes.append(f"watchdog {finding.describe()}")
        return report

    # ------------------------------------------------------------------
    # Rendering / serialisation
    # ------------------------------------------------------------------
    def rows(self) -> List[List[str]]:
        rows = []
        for name, histogram in self.distributions.items():
            if not histogram.count:
                rows.append([name, "0", "-", "-", "-", "-", "-"])
                continue
            rows.append([
                name,
                str(histogram.count),
                f"{histogram.mean:.3f}",
                f"{histogram.p50:.3f}",
                f"{histogram.p90:.3f}",
                f"{histogram.p99:.3f}",
                f"{histogram.max:.3f}",
            ])
        return rows

    def render(self, title: str = "Run report") -> str:
        from repro.analysis.render import render_table
        table = render_table(
            ["distribution", "n", "mean", "p50", "p90", "p99", "max"],
            self.rows(), title=title)
        counter_lines = "\n".join(
            f"  {name}: {value}" for name, value in self.counters.items())
        note_lines = "\n".join(f"  note: {note}" for note in self.notes)
        parts = [table]
        if counter_lines:
            parts.append(counter_lines)
        if note_lines:
            parts.append(note_lines)
        return "\n".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "distributions": {name: histogram.summary()
                              for name, histogram in
                              self.distributions.items()},
            "counters": dict(self.counters),
            "notes": list(self.notes),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def merge(self, other: "RunReport") -> "RunReport":
        """Fold another report in (sweep workers merge per-cell reports)."""
        for name, histogram in other.distributions.items():
            mine = self.distributions.get(name)
            if mine is None:
                fresh = Histogram(bounds=histogram.bounds)
                self.distributions[name] = fresh.merge(histogram)
            else:
                mine.merge(histogram)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.notes.extend(other.notes)
        return self
