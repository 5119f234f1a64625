"""Streaming metrics registry: labeled counters/gauges/histograms fed
incrementally from the cluster's existing hooks.

Everything earlier observability did post-hoc (journal replay, ledger
finish, report rendering) this registry does *as the run happens*:
each hook firing is one O(1) update of a pre-resolved time series, so
the registry is cheap enough to leave attached to a production server
(``repro-2pc serve`` attaches one unconditionally; the overhead ratio
is gated in ``BENCH_obs.json`` as ``registry_on``).

One registry serves both worlds — the deterministic simulator and the
live TCP transport — because it consumes only the shared hook surface
(``node.on_transition``, ``network.on_send``/``on_deliver``,
``log.on_write``/``on_flush``, lock ``on_wait``/``on_grant``/
``on_release``, and the :class:`~repro.metrics.collector.
MetricsCollector`'s completion/heuristic hooks).  The twin gate runs
one on each side and requires every counter series to match.

:meth:`MetricsRegistry.prometheus_text` renders the standard text
exposition (HELP/TYPE pairs, escaped labels, cumulative histogram
buckets) — the live ``/metrics`` endpoint body, superseding the
journal-replay-only snapshot in :func:`repro.obs.watchdog.
prometheus_text` for anything that is still running.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Dict, List, Sequence, Tuple

from repro.hooks import Observer
from repro.metrics.histogram import Histogram, geometric_bounds

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Transaction states that settle a commit context (mirrors
#: repro.obs.journal.SETTLED_STATES; duplicated to keep this module's
#: hot path free of cross-imports).
_SETTLED = frozenset({
    "committed", "aborted", "forgotten", "read-only-done",
    "heuristic-committed", "heuristic-aborted",
})

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


class _Children(dict):
    """Values computed once per key, on first use.

    The registry's hooks key child series by the raw values they see
    (enum members, node names), so a hot event skips the enum
    ``value`` property and the ``labels`` call; a key is resolved
    through :meth:`MetricFamily.labels` only the first time, so
    exposition still lists only the series that saw an event.
    """

    __slots__ = ("_resolve",)

    def __init__(self, resolve) -> None:
        super().__init__()
        self._resolve = resolve

    def __missing__(self, key):
        value = self[key] = self._resolve(key)
        return value


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


class MetricsRegistry(Observer):
    """Labeled counters/gauges/histograms with Prometheus exposition.

    Use it standalone (``registry.counter(...)`` etc.), or call
    :meth:`attach` to subscribe the built-in cluster instrumentation to
    a (simulated or live) cluster's hooks; the accumulated series
    survive ``detach()`` — the registry is a record of what it saw,
    not a live view.
    """

    def __init__(self, prefix: str = "repro") -> None:
        if not _NAME_RE.match(prefix):
            raise ValueError(f"invalid metric prefix {prefix!r}")
        self.prefix = prefix
        self._families: Dict[str, MetricFamily] = {}
        # Cluster-feed bookkeeping (all O(1) per event).
        self._open: Dict[Tuple[str, str], bool] = {}
        self._in_doubt_since: Dict[Tuple[str, str], float] = {}
        self._force_pending: Dict[Tuple[str, int], float] = {}
        self._wait_since: Dict[Tuple[str, str, str], float] = {}
        self._grant_since: Dict[Tuple[str, str, str], float] = {}

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
        return dict(self._families)

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def prometheus_text(self) -> str:
        """The full registry in Prometheus text exposition format."""
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
        """Subscribe the built-in instrumentation to ``cluster``.

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

        simulator = cluster.simulator

        send_series = _Children(
            lambda key: sends.labels(key[0].value, key[1]))
        deliver_series = _Children(
            lambda key: delivers.labels(key[0].value, key[1]))
        transition_series = _Children(
            lambda key: transitions.labels(key[0].value, key[1]))
        write_series = _Children(
            lambda key: writes.labels(key[0], key[1].value,
                                      "true" if key[2] else "false"))
        open_series = _Children(txns_open.labels)
        in_doubt_series = _Children(in_doubt.labels)
        harden_series = _Children(hardens.labels)
        pending_series = _Children(forces_pending.labels)
        lock_wait_series = _Children(lock_waits.labels)
        waiter_series = _Children(lock_waiters.labels)
        held_series = _Children(locks_held.labels)
        value_of = _Children(lambda member: member.value)

        def on_send(message) -> None:
            send_series[message.msg_type, message.src].inc()

        def on_deliver(message) -> None:
            deliver_series[message.msg_type, message.dst].inc()

        def on_transition(node, txn_id, old, new) -> None:
            transition_series[new, node].inc()
            key = (txn_id, node)
            if old is None:
                self._open[key] = True
                open_series[node].inc()
            state = value_of[new]
            if state == _IN_DOUBT:
                self._in_doubt_since[key] = simulator.now
                in_doubt_series[node].inc()
            elif old is not None and value_of[old] == _IN_DOUBT:
                since = self._in_doubt_since.pop(key, None)
                in_doubt_series[node].dec()
                if since is not None:
                    residency.labels().observe(simulator.now - since)
            if state in _SETTLED and self._open.pop(key, False):
                open_series[node].dec()

        def on_write(record) -> None:
            write_series[record.node, record.record_type,
                         record.forced].inc()
            if record.forced:
                self._force_pending[(record.node, record.lsn)] = \
                    simulator.now
                pending_series[record.node].inc()

        def on_flush(durable) -> None:
            for record in durable:
                harden_series[record.node].inc()
                since = self._force_pending.pop(
                    (record.node, record.lsn), None)
                if since is not None:
                    pending_series[record.node].dec()
                    force_latency.labels().observe(simulator.now - since)

        def on_transaction(record) -> None:
            txns.labels(record.outcome).inc()
            txn_latency.labels().observe(record.latency)

        def on_heuristic(event) -> None:
            heuristics.labels(event.decision).inc()

        def on_recovery(record) -> None:
            recovery_seconds.labels(record.node).observe(record.seconds)

        def on_wait(node, txn_id, key, mode) -> None:
            lock_wait_series[node].inc()
            waiter_series[node].inc()
            self._wait_since[(node, txn_id, key)] = simulator.now

        def on_grant(node, txn_id, key, mode) -> None:
            held_series[node].inc()
            self._grant_since[(node, txn_id, key)] = simulator.now
            since = self._wait_since.pop((node, txn_id, key), None)
            if since is not None:
                waiter_series[node].dec()
                lock_wait_time.labels().observe(simulator.now - since)

        def on_release(node, txn_id, key) -> None:
            held_series[node].dec()
            since = self._grant_since.pop((node, txn_id, key), None)
            if since is not None:
                lock_hold_time.labels().observe(simulator.now - since)

        self.hook(cluster.network.on_send, on_send)
        self.hook(cluster.network.on_deliver, on_deliver)
        self.hook(cluster.metrics.on_transaction, on_transaction)
        self.hook(cluster.metrics.on_heuristic, on_heuristic)
        self.hook(cluster.metrics.on_recovery, on_recovery)
        for node in cluster.nodes.values():
            self.hook(node.on_transition, on_transition)
            for log in node.logs():
                self.hook(log.on_write, on_write)
                self.hook(log.on_flush, on_flush)
            for rm in node.all_rms():
                self.hook(rm.locks.on_wait, partial(on_wait, node.name))
                self.hook(rm.locks.on_grant, partial(on_grant, node.name))
                self.hook(rm.locks.on_release, partial(on_release, node.name))
