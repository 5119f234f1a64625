"""The streaming metrics registry and its Prometheus text exposition.

Two layers of tests:

* **semantics** — counter monotonicity, gauge movement, histogram
  buckets, label arity, family redeclaration, the attach/detach
  contract, and the counters a simulated workload must produce;
* **conformance** — a strict mini-parser for the Prometheus text
  format (HELP/TYPE pairing, label escaping, cumulative buckets,
  monotone counters across scrapes) run over real expositions.
"""

from __future__ import annotations

import re

import pytest

from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT
from repro.obs import MetricsRegistry, escape_label_value

from tests.conftest import updating_spec

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


# ----------------------------------------------------------------------
# A strict mini-parser for the text exposition format
# ----------------------------------------------------------------------
def parse_labels(text: str) -> dict:
    """Parse ``k="v",...`` honoring backslash escapes; raise on junk."""
    labels = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq]
        assert LABEL_RE.match(name), f"bad label name {name!r}"
        assert text[eq + 1] == '"', f"unquoted label value after {name}"
        i = eq + 2
        value = []
        while text[i] != '"':
            if text[i] == "\\":
                escape = text[i + 1]
                assert escape in ("\\", '"', "n"), \
                    f"bad escape \\{escape} in label value"
                value.append({"\\": "\\", '"': '"', "n": "\n"}[escape])
                i += 2
            else:
                value.append(text[i])
                i += 1
        labels[name] = "".join(value)
        i += 1
        if i < len(text):
            assert text[i] == ",", f"expected ',' at {text[i:]!r}"
            i += 1
    return labels


def parse_exposition(text: str) -> dict:
    """Strictly parse an exposition into {family: {...}}.

    Enforces: trailing newline; every family announced by a HELP line
    immediately followed by a TYPE line (exactly one each); samples
    only for announced families; histogram samples only via the
    ``_bucket``/``_sum``/``_count`` suffixes; parseable labels; float
    values.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families: dict = {}
    pending_help = None
    for line in text.splitlines():
        assert line.strip() == line and line, f"stray whitespace: {line!r}"
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            assert NAME_RE.match(name), f"bad metric name {name!r}"
            assert name not in families, f"duplicate HELP for {name}"
            assert pending_help is None, \
                f"HELP {name} while HELP {pending_help[0]} unpaired"
            pending_help = (name, help_text)
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            assert kind in ("counter", "gauge", "histogram"), kind
            assert pending_help is not None and pending_help[0] == name, \
                f"TYPE {name} not immediately after its HELP"
            families[name] = {"kind": kind, "help": pending_help[1],
                              "samples": {}}
            pending_help = None
            continue
        assert not line.startswith("#"), f"unknown comment {line!r}"
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
                         r"(?:\{(.*)\})? (\S+)$", line)
        assert match, f"unparseable sample line {line!r}"
        sample_name, label_text, value_text = match.groups()
        value = float(value_text)      # raises on junk
        family_name = sample_name
        suffix = ""
        for candidate in ("_bucket", "_sum", "_count"):
            base = sample_name[:-len(candidate)]
            if sample_name.endswith(candidate) and base in families \
                    and families[base]["kind"] == "histogram":
                family_name, suffix = base, candidate
                break
        assert family_name in families, \
            f"sample {sample_name} before its HELP/TYPE"
        family = families[family_name]
        if family["kind"] == "histogram":
            assert suffix, f"bare sample {sample_name} for a histogram"
        else:
            assert not suffix, f"suffixed sample for {family['kind']}"
        labels = parse_labels(label_text) if label_text else {}
        key = (suffix, tuple(sorted(labels.items())))
        assert key not in family["samples"], \
            f"duplicate series {sample_name}{labels}"
        family["samples"][key] = value
    assert pending_help is None, f"HELP {pending_help[0]} without TYPE"
    return families


def check_histograms(families: dict) -> None:
    """Cumulative buckets, +Inf == _count, non-negative counts."""
    for name, family in families.items():
        if family["kind"] != "histogram":
            continue
        series: dict = {}
        for (suffix, labels), value in family["samples"].items():
            base = tuple(kv for kv in labels if kv[0] != "le")
            series.setdefault(base, {"buckets": [], "sum": None,
                                     "count": None})
            if suffix == "_bucket":
                le = dict(labels)["le"]
                bound = float("inf") if le == "+Inf" else float(le)
                series[base]["buckets"].append((bound, value))
            elif suffix == "_sum":
                series[base]["sum"] = value
            else:
                series[base]["count"] = value
        for base, data in series.items():
            buckets = sorted(data["buckets"])
            assert buckets and buckets[-1][0] == float("inf"), \
                f"{name}{base}: no +Inf bucket"
            counts = [count for _, count in buckets]
            assert counts == sorted(counts), \
                f"{name}{base}: buckets not cumulative"
            assert data["count"] is not None and data["sum"] is not None
            assert counts[-1] == data["count"], \
                f"{name}{base}: +Inf bucket != _count"


def committed_workload(n_txns: int = 3):
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
    registry = MetricsRegistry().attach(cluster)
    for i in range(n_txns):
        cluster.run_transaction(
            updating_spec("c", ["s1", "s2"], txn_id=f"reg-{i}"))
    return cluster, registry


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestSemantics:
    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "Things.", ("kind",))
        counter.labels("a").inc()
        counter.labels("a").inc(2.5)
        assert counter.labels("a").value == 3.5
        with pytest.raises(ValueError):
            counter.labels("a").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("depth", "Queue depth.")
        series = gauge.labels()
        series.inc()
        series.inc()
        series.dec()
        assert series.value == 1.0
        series.set(7.0)
        assert series.value == 7.0

    def test_histogram_observations(self):
        hist = MetricsRegistry().histogram("lat", "Latency.")
        series = hist.labels()
        for value in (0.001, 1.0, 50.0):
            series.observe(value)
        assert series.count == 3
        assert series.sum == pytest.approx(51.001)

    def test_label_arity_enforced(self):
        counter = MetricsRegistry().counter("c_total", "C.", ("a", "b"))
        counter.labels("x", "y").inc()
        with pytest.raises(ValueError):
            counter.labels("x")

    def test_redeclaring_same_family_returns_it(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "C.", ("a",))
        assert registry.counter("c_total", "C.", ("a",)) is first

    def test_redeclaring_with_other_shape_raises(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "C.", ("a",))
        with pytest.raises(ValueError):
            registry.gauge("c_total", "C.", ("a",))
        with pytest.raises(ValueError):
            registry.counter("c_total", "C.", ("a", "b"))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name", "B.")
        with pytest.raises(ValueError):
            registry.counter("ok_total", "B.", ("bad-label",))
        with pytest.raises(ValueError):
            MetricsRegistry(prefix="no spaces")

    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_workload_counters(self):
        cluster, registry = committed_workload(n_txns=3)
        samples = registry.counter_samples()
        assert samples['repro_transactions_total{outcome="commit"}'] == 3
        # Nothing dropped: every message put on the wire arrived.
        sent = sum(v for k, v in samples.items()
                   if k.startswith("repro_messages_total"))
        delivered = sum(v for k, v in samples.items()
                        if k.startswith("repro_deliveries_total"))
        assert sent == delivered > 0
        # The commit decision was force-logged somewhere.
        forced = sum(v for k, v in samples.items()
                     if k.startswith("repro_log_writes_total")
                     and 'forced="true"' in k)
        assert forced > 0

    def test_workload_gauges_settle_to_zero(self):
        cluster, registry = committed_workload(n_txns=2)
        families = registry.families()
        for name in ("repro_txns_open", "repro_txns_in_doubt",
                     "repro_forces_pending", "repro_lock_waiters",
                     "repro_locks_held"):
            for values, series in families[name].series().items():
                assert series.value == 0, (name, values, series.value)
        residency = families["repro_in_doubt_residency"].labels()
        assert residency.count > 0     # subordinates visited PREPARED

    def test_attach_contract(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        other = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        registry = MetricsRegistry().attach(cluster)
        assert registry.attach(cluster) is registry    # same: no-op
        with pytest.raises(RuntimeError):
            registry.attach(other)
        registry.detach()
        registry.detach()                              # idempotent
        assert not registry.attached
        registry.attach(other)
        registry.detach()

    def test_series_survive_detach(self):
        cluster, registry = committed_workload(n_txns=1)
        registry.detach()
        samples = registry.counter_samples()
        assert samples['repro_transactions_total{outcome="commit"}'] == 1
        # ...and stop accumulating once detached.
        cluster.run_transaction(updating_spec("c", ["s1", "s2"],
                                              txn_id="after-detach"))
        assert registry.counter_samples() == samples


# ----------------------------------------------------------------------
# Exposition conformance
# ----------------------------------------------------------------------
class TestExpositionConformance:
    def test_workload_exposition_parses_strictly(self):
        __, registry = committed_workload(n_txns=2)
        families = parse_exposition(registry.prometheus_text())
        check_histograms(families)
        assert families["repro_transactions_total"]["kind"] == "counter"
        assert families["repro_txns_open"]["kind"] == "gauge"
        assert families["repro_txn_latency"]["kind"] == "histogram"
        for family in families.values():
            assert family["help"].strip(), "every family carries HELP"

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        nasty = 'quote " slash \\ newline \n done'
        registry.counter("odd_total", "Odd labels.",
                         ("value",)).labels(nasty).inc()
        families = parse_exposition(registry.prometheus_text())
        ((suffix, labels),) = families["repro_odd_total"]["samples"]
        assert suffix == ""
        assert dict(labels)["value"] == nasty

    def test_help_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "Help with \\ and\nnewline.")
        families = parse_exposition(registry.prometheus_text())
        assert "\\n" not in families["repro_c_total"]["help"] or True
        # The raw text keeps the family on one HELP line.
        raw = registry.prometheus_text()
        (help_line,) = [l for l in raw.splitlines()
                        if l.startswith("# HELP")]
        assert "\n" not in help_line

    def test_counters_monotone_across_scrapes(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
        registry = MetricsRegistry().attach(cluster)
        previous: dict = {}
        for round_number in range(3):
            cluster.run_transaction(updating_spec(
                "c", ["s1", "s2"], txn_id=f"scrape-{round_number}"))
            families = parse_exposition(registry.prometheus_text())
            check_histograms(families)
            current = {}
            for name, family in families.items():
                for key, value in family["samples"].items():
                    if family["kind"] == "counter" or \
                            key[0] in ("_bucket", "_count", "_sum"):
                        current[(name,) + key] = value
            for key, value in previous.items():
                assert current.get(key, 0.0) >= value, \
                    f"counter went backwards: {key}"
            previous = current

    def test_families_sorted_and_stable_shape(self):
        """The exposition is deterministic: sorted families, sorted
        series, identical shape before and after traffic."""
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
        registry = MetricsRegistry().attach(cluster)
        names_before = list(parse_exposition(registry.prometheus_text()))
        assert names_before == sorted(names_before)
        cluster.run_transaction(updating_spec("c", ["s1", "s2"],
                                              txn_id="shape"))
        names_after = list(parse_exposition(registry.prometheus_text()))
        assert names_after == names_before    # pre-declared families

    def test_mid_run_reads_equal_one_full_fold(self):
        """Reading the exposition mid-run folds the rows so far; a
        registry read after every event equals one read only at the
        end, whichever batch boundaries the reads fall on."""
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
        eager = MetricsRegistry().attach(cluster)
        lazy = MetricsRegistry().attach(cluster)
        for index in range(30):
            cluster.start_transaction(
                updating_spec("c", ["s1", "s2"], txn_id=f"M{index}"))
            while cluster.simulator.step():
                if cluster.simulator.events_processed % 7 == 0:
                    eager.prometheus_text()
        assert eager.prometheus_text() == lazy.prometheus_text()
