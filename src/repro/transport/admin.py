"""The admin plane: an HTTP window into a running live cluster.

``repro-2pc serve`` (PR 8) kept a cluster up for external clients but
was a black box while running — every observability surface in the
repo worked post-hoc over a finished journal.  :class:`AdminServer`
puts the operator *inside* the run: a tiny asyncio HTTP/1.1 endpoint
(stdlib only, ``Connection: close`` per request) serving

=============  ========================================================
route          body
=============  ========================================================
``/metrics``   the streaming :class:`~repro.obs.registry.
               MetricsRegistry` in Prometheus text exposition
``/status``    JSON: uptime, node addresses, outcome counts, open /
               in-doubt transactions, heuristics and damage, watchdog
               finding counts, transport frame counters, accepting flag
``/indoubt``   JSON: every in-doubt transaction with its phase, held
               lock keys and in-doubt residency (the paper's "valuable
               locks" an operator must see in real time)
``/resolve``   force a heuristic outcome through the wire —
               ``?node=&txn=&decision=commit|abort`` wired to
               :meth:`repro.ops.OperatorConsole.force_outcome`
=============  ========================================================

The PR 7 watchdog detectors run *continuously* here: a recurring
:meth:`LiveClock.timer` (deliberately untracked, so it never blocks
quiescence) feeds the journal rows recorded since the last tick to
an incremental scan every ``watchdog_interval`` seconds and publishes
per-detector finding counts as registry gauges — a tick costs what the
last interval recorded, however long the server has been up.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigurationError, ProtocolError

_MAX_REQUEST_BYTES = 65536

#: Decisions /resolve accepts (the CEMT-style operator verbs).
RESOLVE_DECISIONS = ("commit", "abort")


class AdminServer:
    """HTTP admin endpoint + continuous watchdog for one live cluster.

    ``cluster`` must expose the LiveCluster surface (``simulator`` /
    ``nodes`` / ``metrics`` / ``transport``).  The registry, recorder,
    watchdog and console are optional — routes needing an absent
    collaborator answer 503 instead of failing to start.
    """

    def __init__(self, cluster, registry=None, recorder=None,
                 watchdog=None, console=None,
                 watchdog_interval: float = 2.0) -> None:
        self.cluster = cluster
        self.registry = registry
        self.recorder = recorder
        self.watchdog = watchdog
        self.console = console
        self.watchdog_interval = watchdog_interval
        self.findings: List = []
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional["asyncio.base_events.Server"] = None
        self._timer = None
        self._started_at = 0.0
        self._findings_gauge = None
        #: The journal fold the ticks feed, and how far they have read.
        self._scan = watchdog.incremental() if watchdog is not None else None
        self._cursor = 0
        if registry is not None:
            self._findings_gauge = registry.gauge(
                "watchdog_findings", "Current watchdog findings, by "
                "detector.", ("detector",))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, host, port)
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        self._started_at = self.cluster.simulator.now
        if self.watchdog is not None:
            self._tick()       # first scan immediately, then recurring
        return self.address

    async def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Continuous watchdog
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        """One watchdog sweep; re-arms itself while the server is up."""
        self._scan_now()
        if self._server is not None:
            self._timer = self.cluster.simulator.timer(
                self.watchdog_interval, self._tick, name="admin-watchdog")

    def _scan_now(self) -> List:
        if self.watchdog is None:
            return []
        recorder = self.recorder if self.recorder is not None \
            else self.watchdog.recorder
        if recorder is not None:
            self._cursor = self._scan.feed_rows(recorder.rows,
                                                self._cursor)
        self.findings = self._scan.findings(
            end_time=self.cluster.simulator.now)
        if self._findings_gauge is not None:
            from repro.obs.watchdog import DETECTORS
            counts = {name: 0 for name in DETECTORS}
            for finding in self.findings:
                counts[finding.detector] = \
                    counts.get(finding.detector, 0) + 1
            for name, count in counts.items():
                self._findings_gauge.labels(name).set(count)
        return self.findings

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: "asyncio.StreamReader",
                                 writer: "asyncio.StreamWriter") -> None:
        try:
            request = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            writer.close()
            return
        if len(request) > _MAX_REQUEST_BYTES:
            self._respond(writer, 400, "text/plain",
                          "request too large\n")
            writer.close()
            return
        try:
            request_line = request.split(b"\r\n", 1)[0].decode(
                "ascii", "replace")
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            self._respond(writer, 400, "text/plain", "bad request\n")
            writer.close()
            return
        status, ctype, body = self._route(method, target)
        self._respond(writer, status, ctype, body)
        try:
            await writer.drain()
        except ConnectionError:  # pragma: no cover - client went away
            pass
        writer.close()

    @staticmethod
    def _respond(writer: "asyncio.StreamWriter", status: int,
                 ctype: str, body: str) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 409: "Conflict",
                   503: "Service Unavailable"}
        payload = body.encode("utf-8")
        head = (f"HTTP/1.1 {status} {reasons.get(status, 'Error')}\r\n"
                f"Content-Type: {ctype}; charset=utf-8\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode("ascii") + payload)

    def _route(self, method: str, target: str) -> Tuple[int, str, str]:
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)
        if path == "/metrics" and method == "GET":
            return self._metrics()
        if path == "/status" and method == "GET":
            return self._status()
        if path == "/indoubt" and method == "GET":
            return self._indoubt(query)
        if path == "/resolve" and method in ("GET", "POST"):
            return self._resolve(query)
        if path in ("/metrics", "/status", "/indoubt", "/resolve"):
            return 405, "text/plain", f"method {method} not allowed\n"
        return 404, "text/plain", f"no route {path!r}\n"

    @staticmethod
    def _json(status: int, obj) -> Tuple[int, str, str]:
        return (status, "application/json",
                json.dumps(obj, sort_keys=True, indent=1) + "\n")

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _metrics(self) -> Tuple[int, str, str]:
        if self.registry is None:
            return 503, "text/plain", "no metrics registry attached\n"
        return (200, "text/plain; version=0.0.4",
                self.registry.prometheus_text())

    def _status(self) -> Tuple[int, str, str]:
        cluster = self.cluster
        metrics = cluster.metrics
        outcomes: Dict[str, int] = {}
        for record in metrics.transactions:
            outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
        in_doubt = (self.console.in_doubt_transactions()
                    if self.console is not None else [])
        from repro.obs.journal import SETTLED_STATES
        open_contexts = 0
        for node in cluster.nodes.values():
            for context in node.contexts.values():
                if context.state.value not in SETTLED_STATES:
                    open_contexts += 1
        findings = self._scan_now() if self.watchdog is not None else []
        by_detector: Dict[str, int] = {}
        for finding in findings:
            by_detector[finding.detector] = \
                by_detector.get(finding.detector, 0) + 1
        transport = getattr(cluster, "transport", None)
        status = {
            "uptime": round(cluster.simulator.now - self._started_at, 6),
            "accepting": bool(getattr(cluster, "accepting", True)),
            "nodes": {
                name: list(transport.address(name))
                for name in cluster.nodes
            } if transport is not None else sorted(cluster.nodes),
            "transactions": {
                "completed": len(metrics.transactions),
                "outcomes": outcomes,
                "open": open_contexts,
                "in_doubt": len(in_doubt),
            },
            "heuristics": {
                "total": len(metrics.heuristics),
                "damaged": len(metrics.damaged_heuristics()),
            },
            "watchdog": {
                "findings": by_detector,
                "details": [f.to_dict() for f in findings],
            },
            "frames": {
                "sent": transport.frames_sent,
                "received": transport.frames_received,
            } if transport is not None else {},
            "recovery": {
                "count": len(metrics.recoveries),
                "last": (metrics.recoveries[-1].to_dict()
                         if metrics.recoveries else None),
            },
        }
        return self._json(200, status)

    def _indoubt(self, query: Dict[str, List[str]]
                 ) -> Tuple[int, str, str]:
        if self.console is None:
            return 503, "text/plain", "no operator console attached\n"
        node = query.get("node", [None])[0]
        try:
            entries = self.console.in_doubt_transactions(node=node)
        except KeyError:
            return 404, "text/plain", f"unknown node {node!r}\n"
        return self._json(200, [entry.to_dict() for entry in entries])

    def _resolve(self, query: Dict[str, List[str]]
                 ) -> Tuple[int, str, str]:
        if self.console is None:
            return 503, "text/plain", "no operator console attached\n"
        node = query.get("node", [None])[0]
        txn = query.get("txn", [None])[0]
        decision = query.get("decision", [None])[0]
        if not node or not txn or decision not in RESOLVE_DECISIONS:
            return self._json(400, {
                "error": "need node=, txn=, decision=commit|abort",
                "got": {"node": node, "txn": txn, "decision": decision},
            })
        try:
            self.console.force_outcome(node, txn, decision)
        except ConfigurationError as error:
            return self._json(404, {"error": str(error)})
        except ProtocolError as error:
            return self._json(409, {"error": str(error)})
        return self._json(200, {
            "resolved": {"node": node, "txn": txn, "decision": decision},
            "heuristics": len(self.cluster.metrics.heuristics),
        })
