"""``python -m perfbench compare A.json B.json``: the regression table.

One row per workload × end-to-end metric with both medians, quartiles
where a side has repetitions, the ratio B ÷ A (A is the base), the
metric's bound from ``BENCHMARK.json`` and a verdict:

``ok``          B is no worse than A by more than the bound;
``regressed``   B is worse than A by more than the bound;
``unresolved``  a side's own run-to-run spread (inter-quartile distance
                ÷ median) is wider than the bound, so the pair cannot
                show a difference of that size either way.

Exact-count per-layer metrics (the paper's units) are compared with
``==``: a change there is a protocol change, not a speed change.
Counts are per transaction over whatever the run completed, so two
time-bounded runs that completed different numbers of transactions
average over slightly different spec mixes; such rows are verdict
``n-differs`` and want a count-bounded pair (``run --txns N``).
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence

from perfbench.stats import quartiles, spread

#: Per-layer metrics that repeat exactly for a seed and a transaction
#: count.  Simulated-time percentiles are exact too (virtual clock).
EXACT_SIM = ("sim.events_per_txn", "net.flows_per_txn", "log.writes_per_txn",
             "log.forced_per_txn", "log.ios_per_txn", "log.forces_per_io",
             "lrm.lock_hold_mean", "lrm.lock_hold_p99",
             "core.contexts_retained_per_txn", "core.sim_latency_p50",
             "core.sim_latency_p99", "metrics.samples_retained_per_txn",
             "obs.journal_bytes_per_txn")
#: On real sockets only what the protocol fixes is exact: flows and log
#: records.  Physical I/Os (hence fsyncs) depend on which forces happen
#: to share an I/O, frames on which acks piggyback.
EXACT_LIVE = ("net.flows_per_txn", "log.writes_per_txn",
              "log.forced_per_txn")


def verdict(base: float, other: float, better: str, bound: float,
            spreads: Sequence[Optional[float]]) -> str:
    if any(value is not None and value > bound for value in spreads):
        return "unresolved"
    if base == 0:
        return "ok" if other == 0 else "regressed"
    change = (other - base) / abs(base)
    worse = change if better == "lower" else -change
    return "regressed" if worse > bound else "ok"


def _format(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4g}"


def _quartile_text(samples: List[float]) -> str:
    pair = quartiles(samples)
    return "-" if pair is None else f"{pair[0]:.4g}..{pair[1]:.4g}"


def compare(base: dict, other: dict, spec: dict) -> List[dict]:
    rows: List[dict] = []
    for workload in (w["name"] for w in spec["workloads"]):
        side_a = base["workloads"].get(workload)
        side_b = other["workloads"].get(workload)
        if side_a is None or side_b is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = side_a["end_to_end"], side_b["end_to_end"]
            samples_a = a["samples"].get(name, [])
            samples_b = b["samples"].get(name, [])
            rows.append({
                "workload": workload, "metric": name,
                "unit": metric["unit"],
                "a": a["values"][name], "b": b["values"][name],
                "a_quartiles": _quartile_text(samples_a),
                "b_quartiles": _quartile_text(samples_b),
                "ratio": (b["values"][name] / a["values"][name]
                          if a["values"][name] else None),
                "bound": metric["bound"],
                "verdict": verdict(
                    a["values"][name], b["values"][name],
                    metric["better"], metric["bound"],
                    [spread(samples_a), spread(samples_b)]),
            })
        a, b = side_a.get("per_layer"), side_b.get("per_layer")
        if a is None or b is None:
            continue
        exact = EXACT_LIVE if workload.startswith("live") else EXACT_SIM
        for name in exact:
            same_n = a["attempted"] == b["attempted"]
            equal = a["values"][name] == b["values"][name]
            rows.append({
                "workload": workload, "metric": name, "unit": "exact",
                "a": a["values"][name], "b": b["values"][name],
                "a_quartiles": "-", "b_quartiles": "-",
                "ratio": None, "bound": 0.0,
                "verdict": "ok" if equal else
                ("changed" if same_n else "n-differs"),
            })
    return rows


def render(rows: List[dict]) -> str:
    header = (f"{'workload':<17}{'metric':<34}{'A':>11}{'B':>11}"
              f"{'B/A':>8}{'bound':>7}  {'verdict':<11}"
              f"{'A q1..q3':<20}{'B q1..q3':<20}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['workload']:<17}{row['metric']:<34}"
            f"{_format(row['a']):>11}{_format(row['b']):>11}"
            f"{_format(row['ratio']):>8}{row['bound']:>7.2f}  "
            f"{row['verdict']:<11}{row['a_quartiles']:<20}"
            f"{row['b_quartiles']:<20}")
    return "\n".join(lines)


def main(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as handle:
        base = json.load(handle)
    with open(path_b) as handle:
        other = json.load(handle)
    rows = compare(base, other, spec)
    print(f"A = {path_a} (base)   B = {path_b}")
    print(render(rows))
    bad = [row for row in rows
           if row["verdict"] in ("regressed", "unresolved", "changed")]
    print(f"{len(rows)} rows, {len(bad)} not ok")
    return 1 if bad else 0
