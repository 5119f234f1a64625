"""The span model: OTel-style timed intervals forming per-txn trees.

A :class:`Span` is a named interval of virtual time on one node,
attributed to one transaction, with a parent span, free-form
attributes, and point-in-time events.  The :class:`~repro.obs.tracer.
SpanTracer` emits, per transaction:

* one **root transaction span** at the commit coordinator;
* **phase spans** per node (``prepare``, ``in-doubt``, ``commit``,
  ``abort``, ``heuristic``) bounded by the protocol state machine's
  transitions;
* **log-force spans** (force requested -> record durable) and
  **message-wait spans** (sent -> delivered) as children of whichever
  phase was open on that node.

This module also holds the serialisers: JSONL for diffing/persisting,
and the Chrome ``trace_event`` format so a trace drops straight into
``chrome://tracing`` or Perfetto.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

#: Span kinds (the ``kind`` attribute; coarser than names).
KIND_TXN = "txn"
KIND_PHASE = "phase"
KIND_LOG = "log-force"
KIND_MESSAGE = "message"


class Span:
    """One timed interval of work, part of a per-transaction tree."""

    __slots__ = ("span_id", "parent_id", "name", "kind", "node", "txn_id",
                 "start", "end", "attributes", "events")

    def __init__(self, span_id: int, name: str, kind: str, node: str,
                 txn_id: str, start: float,
                 parent_id: Optional[int] = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.node = node
        self.txn_id = txn_id
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, object] = {}
        self.events: List[Tuple[float, str]] = []

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def close(self, at_time: float) -> None:
        if self.end is None:
            self.end = at_time

    def add_event(self, at_time: float, text: str) -> None:
        self.events.append((at_time, text))

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "node": self.node,
            "txn_id": self.txn_id,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
            "events": [[t, text] for t, text in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        span = cls(span_id=data["span_id"], name=data["name"],
                   kind=data["kind"], node=data["node"],
                   txn_id=data["txn_id"], start=data["start"],
                   parent_id=data.get("parent_id"))
        span.end = data.get("end")
        span.attributes = dict(data.get("attributes") or {})
        span.events = [(t, text) for t, text in data.get("events") or []]
        return span

    def __repr__(self) -> str:
        timing = (f"{self.start:.2f}..{self.end:.2f}"
                  if self.end is not None else f"{self.start:.2f}..open")
        return (f"<Span #{self.span_id} {self.name} {self.kind} "
                f"{self.txn_id}@{self.node} [{timing}]>")


# ----------------------------------------------------------------------
# Serialisation of span collections
# ----------------------------------------------------------------------
def spans_to_jsonl(spans: Sequence[Span]) -> str:
    """One JSON object per line, in span-id order."""
    ordered = sorted(spans, key=lambda s: s.span_id)
    return "\n".join(json.dumps(span.to_dict(), sort_keys=True)
                     for span in ordered)


def spans_to_chrome(spans: Sequence[Span],
                    time_scale: float = 1000.0) -> Dict[str, object]:
    """Spans as a Chrome ``trace_event`` JSON document.

    One virtual time unit maps to ``time_scale`` trace microseconds
    (default 1000, i.e. 1 unit = 1ms on the viewer's axis).  Each
    transaction becomes a "process" and each node a "thread" within
    it, so the viewer groups the tree the way the paper's figures do:
    one lane per participant.  Unfinished spans become instant events.
    """
    events: List[Dict[str, object]] = []
    txn_pids: Dict[str, int] = {}
    tids: Dict[Tuple[int, str], int] = {}
    for span in sorted(spans, key=lambda s: s.span_id):
        pid = txn_pids.setdefault(span.txn_id, len(txn_pids) + 1)
        tid_key = (pid, span.node)
        tid = tids.setdefault(tid_key, len(tids) + 1)
        args: Dict[str, object] = {"txn_id": span.txn_id,
                                   "node": span.node,
                                   "span_id": span.span_id}
        args.update(span.attributes)
        base = {"name": span.name, "cat": span.kind, "pid": pid,
                "tid": tid, "ts": span.start * time_scale, "args": args}
        if span.end is None:
            events.append({**base, "ph": "i", "s": "t"})
        else:
            events.append({**base, "ph": "X",
                           "dur": (span.end - span.start) * time_scale})
        for at_time, text in span.events:
            events.append({"name": text, "cat": "event", "ph": "i",
                           "s": "t", "pid": pid, "tid": tid,
                           "ts": at_time * time_scale,
                           "args": {"txn_id": span.txn_id,
                                    "node": span.node}})
    for txn_id, pid in txn_pids.items():
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": f"txn {txn_id}"}})
    for (pid, node), tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": node}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Tree assembly and rendering
# ----------------------------------------------------------------------
def build_tree(spans: Sequence[Span]
               ) -> Tuple[List[Span], Dict[int, List[Span]]]:
    """(roots, children-by-parent-id), both in span-id order."""
    children: Dict[int, List[Span]] = {}
    roots: List[Span] = []
    by_id = {span.span_id: span for span in spans}
    for span in sorted(spans, key=lambda s: s.span_id):
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    return roots, children


def render_span_tree(spans: Sequence[Span],
                     include_events: bool = False) -> str:
    """Indented text rendering of the span forest (CLI ``--format
    spans``)."""
    roots, children = build_tree(spans)
    lines: List[str] = []

    def describe(span: Span) -> str:
        if span.end is None:
            timing = f"{span.start:8.2f} ..    open"
        else:
            timing = (f"{span.start:8.2f} +{span.end - span.start:7.2f}")
        extras = ""
        if span.attributes:
            parts = [f"{k}={v}" for k, v in sorted(span.attributes.items())]
            extras = "  {" + ", ".join(parts) + "}"
        return f"[{timing}] {span.name} @{span.node}{extras}"

    def walk(span: Span, depth: int) -> None:
        lines.append("  " * depth + describe(span))
        if include_events:
            for at_time, text in span.events:
                lines.append("  " * (depth + 1) +
                             f"[{at_time:8.2f}] * {text}")
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)
