"""Event recording for sequence diagrams and debugging."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.cluster import Cluster
from repro.hooks import Observer
from repro.log.records import LogRecord
from repro.net.message import Message


@dataclass(slots=True)
class TraceEvent:
    """One traced protocol event.

    kind is "flow" (network message), "log" (log record) or "note"
    (protocol state transition worth showing, e.g. "commits locally").
    """

    time: float
    kind: str
    node: str                      # acting node (sender for flows)
    text: str
    dst: Optional[str] = None      # flows only
    forced: Optional[bool] = None  # log events only
    txn_id: Optional[str] = None

    def describe(self) -> str:
        if self.kind == "flow":
            return f"[{self.time:8.2f}] {self.node} -> {self.dst}: {self.text}"
        if self.kind == "log":
            star = "*" if self.forced else ""
            return f"[{self.time:8.2f}] {self.node}: {star}log {self.text}"
        return f"[{self.time:8.2f}] {self.node}: {self.text}"


class Tracer(Observer):
    """Collects protocol events from a cluster.

    Attach before running the workload: hooks are installed on the
    network and on every node that exists at attach time.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def _install(self, cluster: Cluster) -> None:
        self.hook(cluster.network.on_send, self._on_flow)
        for node in cluster.nodes.values():
            self.hook(node.on_note, self._on_note)
            for log in node.logs():
                self.hook(log.on_write, self._on_log)

    # ------------------------------------------------------------------
    def _on_flow(self, message: Message) -> None:
        flags = ",".join(sorted(k for k, v in message.flags.items() if v))
        text = message.msg_type.value + (f" [{flags}]" if flags else "")
        self.events.append(TraceEvent(self._now, "flow", message.src, text,
                                      message.dst, None, message.txn_id))

    def _on_log(self, record: LogRecord) -> None:
        self.events.append(TraceEvent(
            self._now, "log", record.node, record.record_type.value, None,
            record.forced, record.txn_id))

    def _on_note(self, node: str, txn_id: str, text: str) -> None:
        self.events.append(TraceEvent(self._now, "note", node, text, None,
                                      None, txn_id))

    # ------------------------------------------------------------------
    def for_txn(self, txn_id: str) -> List[TraceEvent]:
        return [e for e in self.events if e.txn_id == txn_id]

    def flows(self, txn_id: Optional[str] = None) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == "flow"
                and (txn_id is None or e.txn_id == txn_id)]

    def transcript(self, txn_id: Optional[str] = None) -> str:
        events = self.for_txn(txn_id) if txn_id else self.events
        return "\n".join(e.describe() for e in events)
