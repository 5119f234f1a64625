"""Watchdog detectors over a journal (or live hooks) + Prometheus text.

The journal records everything the cost model counts; the watchdogs
ask the operational questions a deployment twin will need answered
continuously:

* **in-doubt residency** — how long did a (txn, node) pair sit in the
  PREPARED window where a coordinator failure blocks it (paper §2's
  central operational hazard)?  Windows longer than the threshold, or
  still open when the journal ends, are findings.
* **lock-wait burn** — lock requests that waited longer than the
  threshold between parking (``wait``) and ``grant``, or that were
  never granted at all.
* **orphaned spans** — messages sent but never delivered, and
  transactions whose last recorded state at some node is not settled
  when the journal ends.
* **unacked forces** — forced log writes whose ``harden`` (the I/O
  completion ack) never arrived.

The detectors are one fold over journal rows (:class:`WatchdogScan`).
:meth:`Watchdog.scan` packs any entry sequence into rows and folds
them; :meth:`Watchdog.attach` runs the same fold live over the rows of
the cluster's :class:`~repro.obs.journal.JournalTap`.  Findings feed
:class:`~repro.obs.report.RunReport` and
:func:`prometheus_text` — a text-exposition snapshot in the format the
future TCP transport will serve on a metrics port.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.journal import (DELIVER, GRANT, HARDEN, SEND,
                               SETTLED_STATES, TRANSITION, WAIT, WRITE,
                               Fold, JournalEntry, JournalRows)

#: Detector names, in report order (all always appear in the
#: Prometheus exposition, zero-valued when quiet).  ``link_down`` is an
#: external detector: the transport reports it via
#: :meth:`Watchdog.record_external` when a supervised link exhausts its
#: reconnect backoff budget.
DETECTORS = ("in_doubt", "lock_wait", "orphan", "unacked_force",
             "link_down")

#: PREPARED is the in-doubt window (repro.core.states.TxnState).
_IN_DOUBT_STATE = "prepared"


class WatchdogFinding:
    """One detector firing: where, when, and by how much."""

    __slots__ = ("detector", "txn", "node", "at", "message", "value")

    def __init__(self, detector: str, txn: Optional[str], node: str,
                 at: float, message: str,
                 value: Optional[float] = None) -> None:
        self.detector = detector
        self.txn = txn
        self.node = node
        self.at = at
        self.message = message
        self.value = value

    def describe(self) -> str:
        where = f"txn {self.txn} @ {self.node}" if self.txn else self.node
        return f"[{self.detector}] {where}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {"detector": self.detector, "txn": self.txn,
                "node": self.node, "at": self.at,
                "message": self.message, "value": self.value}

    def __repr__(self) -> str:
        return f"<WatchdogFinding {self.describe()}>"


class Watchdog(Fold):
    """Threshold-configured detectors over journal entries.

    ``in_doubt_threshold`` / ``lock_wait_threshold`` are sim-time
    durations; windows at least that long fire.  Windows still open
    when the journal ends always fire — an unresolved in-doubt txn or
    an ungranted lock is a finding at any duration.  Attached, the
    watchdog folds the cluster's tap and keeps its rows (:meth:`entries`).
    """

    keeps_rows = True

    def __init__(self, in_doubt_threshold: float = 50.0,
                 lock_wait_threshold: float = 50.0) -> None:
        self.in_doubt_threshold = in_doubt_threshold
        self.lock_wait_threshold = lock_wait_threshold
        #: The journal folded so far (since attach).
        self.rows: Optional[JournalRows] = None
        self._scan: Optional[WatchdogScan] = None
        self._external: List[WatchdogFinding] = []

    # ------------------------------------------------------------------
    # Live mode
    # ------------------------------------------------------------------
    def _install(self, cluster) -> None:
        super()._install(cluster)
        self._scan = self.incremental()

    def _fold(self, rows: JournalRows, start: int) -> None:
        self._scan.feed_rows(rows, start)

    def findings(self, end_time: Optional[float] = None
                 ) -> List[WatchdogFinding]:
        """The findings over the journal folded so far, open windows
        closed at ``end_time`` (default: the newest entry)."""
        if self._scan is None:
            return []
        self.sync()
        return self._scan.findings(end_time)

    def entries(self, start: int = 0) -> List[JournalEntry]:
        return self.rows.entries(start) if self.rows is not None else []

    def record_external(self, finding: WatchdogFinding) -> None:
        """File a finding from outside the journal (e.g. the transport
        reporting a link whose reconnect loop gave up).  External
        findings merge into every subsequent scan."""
        if finding.detector not in DETECTORS:
            raise ValueError(f"unknown detector {finding.detector!r}")
        self._external.append(finding)

    # ------------------------------------------------------------------
    # Detectors
    # ------------------------------------------------------------------
    def scan(self, entries: Sequence[JournalEntry],
             end_time: Optional[float] = None) -> List[WatchdogFinding]:
        """Run all four detectors over entry objects (packed into rows
        first); findings ordered by (at, detector)."""
        scan = self.incremental()
        scan.feed(entries)
        return scan.findings(end_time)

    def incremental(self) -> "WatchdogScan":
        """A scan that is fed the journal piece by piece (an attached
        watchdog feeds its own the tap's new rows)."""
        return WatchdogScan(self)


class WatchdogScan:
    """The four detectors as a fold over journal rows.

    Carries only what is still open — in-doubt windows, parked lock
    requests, undelivered sends, unsettled last states, unhardened
    forces — plus the findings already closed, so feeding the journal
    in pieces costs the same as reading it once and gives the same
    findings as one scan over the whole of it.

    A scan folds one :class:`~repro.obs.journal.JournalRows` store and
    keys its state by that store's string ids: either a recorder's
    (:meth:`feed_rows`) or its own, into which :meth:`feed` packs entry
    objects.
    """

    def __init__(self, watchdog: Watchdog) -> None:
        self.watchdog = watchdog
        self._rows: Optional[JournalRows] = None
        #: eid -> row of the entries :meth:`feed` packed.
        self._row_of: Optional[Dict[int, int]] = None
        self._closed: List[WatchdogFinding] = []
        # Keyed by string ids; values are the row fields findings need.
        self._in_doubt: Dict[Tuple[int, int], float] = {}
        self._waiting: Dict[Tuple[int, int, int], float] = {}
        self._sends: Dict[int, Tuple[float, int, int, int, int]] = {}
        self._unsettled: Dict[Tuple[int, int], Tuple[str, float]] = {}
        self._forces: Dict[Tuple[int, int], Tuple[float, int, int]] = {}
        self._last_time = 0.0

    def feed(self, entries: Iterable[JournalEntry]) -> None:
        """Fold entry objects (a loaded journal, or a piece of one)."""
        if self._rows is None:
            self._rows, self._row_of = JournalRows(), {}
        elif self._row_of is None:
            raise ValueError("this scan folds a recorder's rows")
        start = len(self._rows)
        self._rows.extend(entries, self._row_of)
        self.feed_rows(self._rows, start)

    def feed_rows(self, rows: JournalRows, start: int = 0) -> int:
        """Fold ``rows`` from row ``start`` on; returns the row to start
        from next time."""
        if self._rows is None:
            self._rows = rows
        elif rows is not self._rows:
            raise ValueError("a WatchdogScan folds one journal store")
        name = self._name
        for index, (t, kind, node, txn, _, ref, peer, lsn, forced, p0,
                    p1, _) in enumerate(rows.rows(start), start):
            self._last_time = max(self._last_time, t)
            if kind == TRANSITION:
                if txn >= 0:
                    self._transition(t, node, txn, name(ref))
            elif kind == WAIT:
                if txn >= 0 and ref >= 0:
                    self._waiting.setdefault((node, txn, ref), t)
            elif kind == GRANT:
                begun = self._waiting.pop((node, txn, ref), None)
                threshold = self.watchdog.lock_wait_threshold
                if begun is not None and t - begun >= threshold:
                    self._closed.append(WatchdogFinding(
                        "lock_wait", name(txn), name(node), t,
                        f"waited {t - begun:g} for lock {name(ref)!r} "
                        f"(threshold {threshold:g})", t - begun))
            elif kind == SEND:
                self._sends[index] = (t, node, txn, ref, peer)
            elif kind == DELIVER:
                self._sends.pop(p0, None)
                self._sends.pop(p1, None)
            elif kind == WRITE:
                if forced == 1:
                    self._forces[(node, lsn)] = (t, txn, ref)
            elif kind == HARDEN:
                self._forces.pop((node, lsn), None)
        return len(rows)

    def _name(self, ident: int) -> Optional[str]:
        return self._rows.ids.strings[ident] if ident >= 0 else None

    def _transition(self, t: float, node: int, txn: int,
                    state: Optional[str]) -> None:
        key = (txn, node)
        if state == _IN_DOUBT_STATE:
            self._in_doubt.setdefault(key, t)
        elif key in self._in_doubt:
            residency = t - self._in_doubt.pop(key)
            threshold = self.watchdog.in_doubt_threshold
            if residency >= threshold:
                self._closed.append(WatchdogFinding(
                    "in_doubt", self._name(txn), self._name(node), t,
                    f"in-doubt for {residency:g} "
                    f"(threshold {threshold:g})", residency))
        # Only a span whose *last* state is unsettled is an orphan.
        if state in SETTLED_STATES:
            self._unsettled.pop(key, None)
        else:
            self._unsettled[key] = (state, t)

    def findings(self, end_time: Optional[float] = None
                 ) -> List[WatchdogFinding]:
        """Closed findings plus one for everything still open at
        ``end_time`` (default: the newest entry fed so far)."""
        if end_time is None:
            end_time = self._last_time
        name = self._name
        out = list(self._closed)
        for (txn, node), start in self._in_doubt.items():
            out.append(WatchdogFinding(
                "in_doubt", name(txn), name(node), end_time,
                f"still in doubt at journal end (since t={start:g})",
                end_time - start))
        for (node, txn, key), start in self._waiting.items():
            out.append(WatchdogFinding(
                "lock_wait", name(txn), name(node), end_time,
                f"lock {name(key)!r} never granted (waiting since "
                f"t={start:g})", end_time - start))
        for t, node, txn, ref, peer in self._sends.values():
            out.append(WatchdogFinding(
                "orphan", name(txn), name(node), t,
                f"{name(ref)} to {name(peer)} sent at t={t:g} "
                "never delivered"))
        for (txn, node), (state, t) in self._unsettled.items():
            out.append(WatchdogFinding(
                "orphan", name(txn), name(node), end_time,
                f"span left open: last state {state!r} at t={t:g}"))
        for (node, lsn), (t, txn, ref) in self._forces.items():
            out.append(WatchdogFinding(
                "unacked_force", name(txn), name(node), end_time,
                f"forced {name(ref)} (lsn {lsn if lsn >= 0 else None}) "
                f"written at t={t:g} never hardened"))
        out += self.watchdog._external
        out.sort(key=lambda f: (f.at, DETECTORS.index(f.detector),
                                f.node, f.txn or "", f.message))
        return out


# ----------------------------------------------------------------------
# Prometheus-style text exposition
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def prometheus_text(entries: Sequence[JournalEntry],
                    findings: Sequence[WatchdogFinding] = (),
                    prefix: str = "repro") -> str:
    """Render journal + watchdog state in Prometheus text exposition.

    This is the snapshot format a live transport twin will serve from
    a metrics endpoint: entry counters by kind, finding counters by
    detector (all detectors present, zero when quiet), and the
    journal's last timestamp as a gauge.
    """
    by_kind: Dict[str, int] = {}
    last_time = 0.0
    for entry in entries:
        by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
        if entry.t > last_time:
            last_time = entry.t
    by_detector = {name: 0 for name in DETECTORS}
    for finding in findings:
        by_detector[finding.detector] = \
            by_detector.get(finding.detector, 0) + 1

    lines = [
        f"# HELP {prefix}_journal_entries_total Journal entries "
        "recorded, by kind.",
        f"# TYPE {prefix}_journal_entries_total counter",
    ]
    for kind in sorted(by_kind):
        lines.append(f'{prefix}_journal_entries_total'
                     f'{{kind="{_escape_label(kind)}"}} {by_kind[kind]}')
    lines += [
        f"# HELP {prefix}_watchdog_findings_total Watchdog findings, "
        "by detector.",
        f"# TYPE {prefix}_watchdog_findings_total counter",
    ]
    for detector in DETECTORS:
        lines.append(f'{prefix}_watchdog_findings_total'
                     f'{{detector="{detector}"}} {by_detector[detector]}')
    lines += [
        f"# HELP {prefix}_journal_last_time Sim time of the newest "
        "journal entry.",
        f"# TYPE {prefix}_journal_last_time gauge",
        f"{prefix}_journal_last_time {last_time:g}",
    ]
    return "\n".join(lines) + "\n"
