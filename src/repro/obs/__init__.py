"""Observability layer: tracing, cost attribution, audit, reports.

Strictly a consumer of hooks exposed by the lower layers (``core``,
``log``, ``lrm``, ``net``, ``sim``) — nothing below imports this
package, and a cluster with no instrument attached does zero
observability work.  The per-event observers share one tap per
cluster, the journal's rows, and fold them.

* :class:`SpanTracer` — per-transaction span trees from protocol
  state transitions, log forces and message deliveries; exportable as
  text, JSONL, or Chrome ``trace_event`` JSON (see
  ``docs/OBSERVABILITY.md``).
* :class:`CostLedger` — per-transaction attribution of every flow,
  log write, forced write and lock-hold interval to (txn, node,
  phase, type); yields each transaction's paper cost triple.
* :class:`ConformanceAuditor` — diffs each completed transaction's
  observed triple against the analytic formulas and classifies
  divergences (expected-under-faults vs anomaly).
* :class:`SimTimeSeries` — deterministic sim-time gauges (in-flight
  transactions, lock depth, pending forces, wire occupancy) with an
  ASCII sparkline dashboard.
* :class:`RunReport` — latency/lock/log-force percentile summaries.
* :class:`KernelProfiler` — opt-in wall-clock profile of simulator
  event handlers, grouped by event type.
* :class:`JournalRecorder` — schema-versioned flight recorder: an
  append-only, causally-linked journal of every flow, log write,
  force, and lock event; :func:`diff_journals` localizes the first
  causally-divergent event between two journals, and
  :class:`Watchdog` runs in-doubt/lock-wait/orphan/unacked-force
  detectors over a journal or a live cluster's rows.
"""

from repro.obs.audit import (AuditFinding, ConformanceAuditor,
                             expected_costs, merge_audit_cells,
                             run_audit_cell, run_audit_matrix,
                             run_faulty_audit_cell)
from repro.metrics.columns import (FloatColumn, IntColumn, PairColumn,
                                   StringInterner)
from repro.obs.diff import (Divergence, diff_journals,
                            record_workload_journal,
                            run_journal_self_check)
from repro.obs.journal import (JournalEntry, JournalRecorder,
                               JournalRows, journal_from_jsonl,
                               journal_to_jsonl, normalize_txn_ids)
from repro.obs.ledger import CostLedger, LockHold, TxnLedger
from repro.obs.profiler import KernelProfiler
from repro.obs.registry import (MetricFamily, MetricsRegistry,
                                escape_label_value)
from repro.obs.top import TopSnapshot, render_top
from repro.obs.watchdog import (Watchdog, WatchdogFinding,
                                prometheus_text)
from repro.obs.report import RunReport
from repro.obs.span import (KIND_LOG, KIND_MESSAGE, KIND_PHASE, KIND_TXN,
                            Span, build_tree, render_span_tree,
                            spans_to_chrome,
                            spans_to_jsonl)
from repro.obs.timeseries import SimTimeSeries, sparkline
from repro.obs.tracer import PHASE_OF_STATE, SpanTracer

__all__ = [
    "AuditFinding",
    "ConformanceAuditor",
    "CostLedger",
    "Divergence",
    "FloatColumn",
    "IntColumn",
    "JournalEntry",
    "JournalRecorder",
    "JournalRows",
    "PairColumn",
    "StringInterner",
    "KernelProfiler",
    "KIND_LOG",
    "KIND_MESSAGE",
    "KIND_PHASE",
    "KIND_TXN",
    "LockHold",
    "MetricFamily",
    "MetricsRegistry",
    "PHASE_OF_STATE",
    "RunReport",
    "TopSnapshot",
    "SimTimeSeries",
    "Span",
    "SpanTracer",
    "TxnLedger",
    "Watchdog",
    "WatchdogFinding",
    "build_tree",
    "diff_journals",
    "escape_label_value",
    "expected_costs",
    "journal_from_jsonl",
    "journal_to_jsonl",
    "merge_audit_cells",
    "normalize_txn_ids",
    "prometheus_text",
    "record_workload_journal",
    "render_span_tree",
    "render_top",
    "run_audit_cell",
    "run_audit_matrix",
    "run_faulty_audit_cell",
    "run_journal_self_check",
    "sparkline",
    "spans_to_chrome",
    "spans_to_jsonl",
]
