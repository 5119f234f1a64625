"""Streaming metrics registry: labeled counters/gauges/histograms fed
incrementally from the cluster's journal rows.

Everything earlier observability did post-hoc (journal replay, ledger
finish, report rendering) this registry does *as the run goes*: it is
a :class:`~repro.obs.journal.Fold` over the rows of the cluster's
:class:`~repro.obs.journal.JournalTap`, each row one O(1) update of a
pre-resolved time series, so the registry is cheap enough to leave
attached to a production server (``repro-2pc serve`` attaches one
unconditionally; the overhead ratio is gated in ``BENCH_obs.json`` as
``registry_on``).  Every read folds up to now.

One registry serves both worlds — the deterministic simulator and the
live TCP transport — because it consumes only the shared tap (flows,
deliveries, transitions, log writes and hardens, lock waits, grants
and releases) plus three hooks on the
:class:`~repro.metrics.collector.MetricsCollector` (completions,
heuristics, recoveries).  The twin gate runs one on each side and
requires every counter series to match.

:meth:`MetricsRegistry.prometheus_text` renders the standard text
exposition (HELP/TYPE pairs, escaped labels, cumulative histogram
buckets) — the live ``/metrics`` endpoint body, superseding the
journal-replay-only snapshot in :func:`repro.obs.watchdog.
prometheus_text` for anything that is still running.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.metrics.histogram import Histogram, geometric_bounds
from repro.obs.journal import (AUX_INT_CLOCK, DELIVER, GRANT, HARDEN,
                               RELEASE, SEND, SETTLED_STATES, TRANSITION,
                               WAIT, WRITE, Fold)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_IN_DOUBT = "prepared"

#: Histogram ladder for registry time series.  Virtual-time units in
#: the simulator, seconds live; the geometric ladder covers both.
_TIME_BOUNDS = geometric_bounds(lo=0.0001, hi=100_000.0, per_decade=3)


def escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class _Series:
    """One (family, label-values) time series holding a float."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class CounterSeries(_Series):
    """Monotone series: ``inc`` only."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, "
                             f"got {amount}")
        self.value += amount


class GaugeSeries(_Series):
    """Up/down series with ``set``/``inc``/``dec``."""

    __slots__ = ()

    def set(self, value: float) -> None:
        self.value = value

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramSeries:
    """One histogram series (wraps :class:`repro.metrics.Histogram`)."""

    __slots__ = ("hist",)

    def __init__(self, bounds: Sequence[float]) -> None:
        self.hist = Histogram(bounds)

    def observe(self, value: float) -> None:
        self.hist.record(value)

    @property
    def count(self) -> int:
        return self.hist.count

    @property
    def sum(self) -> float:
        return self.hist.total


class MetricFamily:
    """A named metric with a fixed label schema and many series.

    ``labels(*values)`` resolves (creating on first use) the child
    series for one label-value tuple — a single dict lookup, so hook
    bodies can call it per event, or pre-resolve hot children once.
    """

    __slots__ = ("name", "help", "kind", "label_names", "_series",
                 "_bounds")

    def __init__(self, name: str, help_text: str, kind: str,
                 label_names: Sequence[str] = (),
                 bounds: Sequence[float] = _TIME_BOUNDS) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = tuple(label_names)
        self._series: Dict[Tuple[str, ...], object] = {}
        self._bounds = tuple(bounds)

    def labels(self, *values: str):
        key = values
        series = self._series.get(key)
        if series is None:
            if len(values) != len(self.label_names):
                raise ValueError(
                    f"{self.name}: expected {len(self.label_names)} "
                    f"label value(s) {self.label_names}, got {values!r}")
            if self.kind == "counter":
                series = CounterSeries()
            elif self.kind == "gauge":
                series = GaugeSeries()
            else:
                series = HistogramSeries(self._bounds)
            self._series[key] = series
        return series

    def series(self) -> Dict[Tuple[str, ...], object]:
        return dict(self._series)

    # ------------------------------------------------------------------
    def _label_str(self, values: Tuple[str, ...],
                   extra: str = "") -> str:
        parts = [f'{name}="{escape_label_value(str(value))}"'
                 for name, value in zip(self.label_names, values)]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def exposition_lines(self) -> List[str]:
        lines = [f"# HELP {self.name} {_escape_help(self.help)}",
                 f"# TYPE {self.name} {self.kind}"]
        for values in sorted(self._series, key=lambda v: tuple(map(str, v))):
            series = self._series[values]
            if self.kind in ("counter", "gauge"):
                lines.append(f"{self.name}{self._label_str(values)} "
                             f"{series.value:g}")
            else:
                hist: Histogram = series.hist
                cumulative = 0
                for bound, count in zip(hist.bounds, hist.counts):
                    cumulative += count
                    le = 'le="%g"' % bound
                    lines.append(
                        f"{self.name}_bucket"
                        f"{self._label_str(values, le)} {cumulative}")
                cumulative += hist.counts[len(hist.bounds)]
                inf = 'le="+Inf"'
                lines.append(
                    f"{self.name}_bucket"
                    f"{self._label_str(values, inf)} {cumulative}")
                lines.append(f"{self.name}_sum"
                             f"{self._label_str(values)} {hist.total:g}")
                lines.append(f"{self.name}_count"
                             f"{self._label_str(values)} {hist.count}")
        return lines


class MetricsRegistry(Fold):
    """Labeled counters/gauges/histograms with Prometheus exposition.

    Use it standalone (``registry.counter(...)`` etc.), or call
    :meth:`attach` to feed the built-in cluster instrumentation from a
    (simulated or live) cluster; the accumulated series survive
    ``detach()`` — the registry is a record of what it saw, not a live
    view.
    """

    def __init__(self, prefix: str = "repro") -> None:
        if not _NAME_RE.match(prefix):
            raise ValueError(f"invalid metric prefix {prefix!r}")
        self.prefix = prefix
        self._families: Dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    # Declaring metrics
    # ------------------------------------------------------------------
    def _family(self, name: str, help_text: str, kind: str,
                label_names: Sequence[str],
                bounds: Sequence[float] = _TIME_BOUNDS) -> MetricFamily:
        full = f"{self.prefix}_{name}"
        family = self._families.get(full)
        if family is not None:
            if family.kind != kind or \
                    family.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {full!r} already registered as "
                    f"{family.kind}{family.label_names}")
            return family
        family = MetricFamily(full, help_text, kind, label_names, bounds)
        self._families[full] = family
        return family

    def counter(self, name: str, help_text: str,
                label_names: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help_text, "counter", label_names)

    def gauge(self, name: str, help_text: str,
              label_names: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help_text, "gauge", label_names)

    def histogram(self, name: str, help_text: str,
                  label_names: Sequence[str] = (),
                  bounds: Sequence[float] = _TIME_BOUNDS) -> MetricFamily:
        return self._family(name, help_text, "histogram", label_names,
                            bounds)

    def families(self) -> Dict[str, MetricFamily]:
        self.sync()
        return dict(self._families)

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def prometheus_text(self) -> str:
        """The full registry in Prometheus text exposition format."""
        self.sync()
        lines: List[str] = []
        for name in sorted(self._families):
            lines.extend(self._families[name].exposition_lines())
        return "\n".join(lines) + "\n"

    def counter_samples(self) -> Dict[str, float]:
        """Every counter series as ``name{label="v",...} -> value``.

        Counters only: they count protocol events and must be identical
        between a live run and its sim replay (the twin gate asserts
        this); gauges and histograms carry wall-clock durations and
        may legitimately differ.
        """
        self.sync()
        out: Dict[str, float] = {}
        for name in sorted(self._families):
            family = self._families[name]
            if family.kind != "counter":
                continue
            for values, series in family.series().items():
                out[f"{name}{family._label_str(values)}"] = series.value
        return out

    # ------------------------------------------------------------------
    # Cluster feed
    # ------------------------------------------------------------------
    def _install(self, cluster) -> None:
        """Feed the built-in instrumentation from ``cluster``.

        Works identically for :class:`repro.core.cluster.Cluster` and
        :class:`repro.transport.live.LiveCluster` — both expose the
        same hook surface.
        """
        # Pre-declare every family so /metrics is complete (and the
        # exposition shape stable) before the first event arrives.
        sends = self.counter(
            "messages_total", "Messages put on the wire, by type and "
            "sender.", ("type", "src"))
        delivers = self.counter(
            "deliveries_total", "Messages handed to their destination, "
            "by type and receiver.", ("type", "dst"))
        transitions = self.counter(
            "transitions_total", "Commit-context state transitions, by "
            "new state and node.", ("state", "node"))
        txns_open = self.gauge(
            "txns_open", "Commit contexts created but not yet settled, "
            "by node.", ("node",))
        in_doubt = self.gauge(
            "txns_in_doubt", "Commit contexts currently in the "
            "PREPARED (in-doubt) window, by node.", ("node",))
        residency = self.histogram(
            "in_doubt_residency", "Time spent in the in-doubt window "
            "before resolution.")
        writes = self.counter(
            "log_writes_total", "Log records written, by node, record "
            "type and forced flag.", ("node", "type", "forced"))
        hardens = self.counter(
            "log_hardens_total", "Log records reaching stable storage, "
            "by node.", ("node",))
        forces_pending = self.gauge(
            "forces_pending", "Forced log writes not yet hardened, by "
            "node.", ("node",))
        force_latency = self.histogram(
            "force_latency", "Time from force request to stable-storage "
            "acknowledgement.")
        lock_waits = self.counter(
            "lock_waits_total", "Lock requests that had to park in the "
            "wait queue, by node.", ("node",))
        lock_waiters = self.gauge(
            "lock_waiters", "Lock requests currently parked, by node.",
            ("node",))
        lock_wait_time = self.histogram(
            "lock_wait_time", "Time between parking and grant.")
        locks_held = self.gauge(
            "locks_held", "Currently granted locks, by node.", ("node",))
        lock_hold_time = self.histogram(
            "lock_hold_time", "Time between grant and release.")
        txns = self.counter(
            "transactions_total", "Completed transactions, by outcome.",
            ("outcome",))
        txn_latency = self.histogram(
            "txn_latency", "Transaction begin-to-outcome latency.")
        heuristics = self.counter(
            "heuristics_total", "Unilateral heuristic decisions, by "
            "decision.", ("decision",))
        # A histogram, deliberately: durations are wall-clock and thus
        # excluded from the twin's counter comparison.
        recovery_seconds = self.histogram(
            "recovery_seconds", "Restart-recovery duration (WAL scan "
            "through in-doubt resumption), by node.", ("node",))

        # The fold's state is keyed by the rows' string ids; ``names``
        # reads them back when a series is first resolved.
        names: List[str] = []
        opened: Dict[Tuple[int, int], bool] = {}
        in_doubt_since: Dict[Tuple[int, int], float] = {}
        force_pending: Dict[Tuple[int, int], float] = {}
        wait_since: Dict[Tuple[int, int, int], float] = {}
        grant_since: Dict[Tuple[int, int, int], float] = {}

        def by_name(family):
            """The family's series by label ids, each resolved once (so
            exposition lists only the series that saw an event)."""
            return lru_cache(maxsize=None)(lambda *key: family.labels(
                *[names[ident] for ident in key]))

        send_series, deliver_series = by_name(sends), by_name(delivers)
        transition_series = by_name(transitions)
        write_series = lru_cache(maxsize=None)(
            lambda node, ref, forced: writes.labels(
                names[node], names[ref], "true" if forced == 1 else "false"))
        open_series, in_doubt_series = by_name(txns_open), by_name(in_doubt)
        harden_series = by_name(hardens)
        pending_series = by_name(forces_pending)
        lock_wait_series = by_name(lock_waits)
        waiter_series, held_series = by_name(lock_waiters), by_name(locks_held)

        def fold(rows, start: int) -> None:
            nonlocal names
            names = rows.ids.strings
            for t, kind, node, txn, _, ref, peer, lsn, forced, _, _, aux \
                    in rows.rows(start):
                if aux & AUX_INT_CLOCK:
                    t = int(t)
                if kind == TRANSITION:
                    transition_series(ref, node).value += 1.0
                    key = (txn, node)
                    if peer < 0:
                        opened[key] = True
                        open_series(node).value += 1.0
                    state = names[ref]
                    if state == _IN_DOUBT:
                        in_doubt_since[key] = t
                        in_doubt_series(node).value += 1.0
                    elif peer >= 0 and names[peer] == _IN_DOUBT:
                        since = in_doubt_since.pop(key, None)
                        in_doubt_series(node).value -= 1.0
                        if since is not None:
                            residency.labels().observe(t - since)
                    if state in SETTLED_STATES and opened.pop(key, False):
                        open_series(node).value -= 1.0
                elif kind == SEND:
                    send_series(ref, node).value += 1.0
                elif kind == DELIVER:
                    deliver_series(ref, node).value += 1.0
                elif kind == WRITE:
                    write_series(node, ref, forced).value += 1.0
                    if forced == 1:
                        force_pending[node, lsn] = t
                        pending_series(node).value += 1.0
                elif kind == GRANT:
                    held_series(node).value += 1.0
                    grant_since[node, txn, ref] = t
                    since = wait_since.pop((node, txn, ref), None)
                    if since is not None:
                        waiter_series(node).value -= 1.0
                        lock_wait_time.labels().observe(t - since)
                elif kind == RELEASE:
                    held_series(node).value -= 1.0
                    since = grant_since.pop((node, txn, ref), None)
                    if since is not None:
                        lock_hold_time.labels().observe(t - since)
                elif kind == HARDEN:
                    harden_series(node).value += 1.0
                    since = force_pending.pop((node, lsn), None)
                    if since is not None:
                        pending_series(node).value -= 1.0
                        force_latency.labels().observe(t - since)
                elif kind == WAIT:
                    lock_wait_series(node).value += 1.0
                    waiter_series(node).value += 1.0
                    wait_since[node, txn, ref] = t

        def on_transaction(record) -> None:
            txns.labels(record.outcome).inc()
            txn_latency.labels().observe(record.latency)

        def on_heuristic(event) -> None:
            heuristics.labels(event.decision).inc()

        def on_recovery(record) -> None:
            recovery_seconds.labels(record.node).observe(record.seconds)

        self._fold = fold
        super()._install(cluster)
        self.hook(cluster.metrics.on_transaction, on_transaction)
        self.hook(cluster.metrics.on_heuristic, on_heuristic)
        self.hook(cluster.metrics.on_recovery, on_recovery)
