"""Tests for per-transaction cost attribution and conformance auditing.

The ledger must attribute exactly the triples the paper's tables
predict — ``basic_2pc_costs(3)`` for a fault-free 3-node PA commit —
and the auditor must diff each transaction against the formulas the
moment it completes, excusing divergence only when the run shows fault
evidence.  The sim-time series must be deterministic (bit-identical
across identical runs) because it samples virtual time, not wall time.
"""

import json

import pytest

from repro.analysis.formulas import basic_2pc_costs, pc_commit_costs
from repro.cli import main as cli_main
from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT
from repro.metrics.collector import CostSummary
from repro.obs import (
    AuditFinding,
    ConformanceAuditor,
    CostLedger,
    RunReport,
    SimTimeSeries,
    expected_costs,
    merge_audit_cells,
    run_audit_cell,
    run_audit_matrix,
    run_faulty_audit_cell,
    sparkline,
)
from repro.net.message import MessageType, Phase
from repro.obs.journal import FOLD_BATCH, ROW
from tests.conftest import updating_spec


def ledgered_commit(nodes=("c", "s1", "s2"), txn_id="T1", predictor=None):
    cluster = Cluster(PRESUMED_ABORT, nodes=list(nodes))
    ledger = CostLedger().attach(cluster)
    auditor = ConformanceAuditor(predictor=predictor)
    auditor.attach(cluster, ledger)
    handle = cluster.run_transaction(
        updating_spec(nodes[0], list(nodes[1:]), txn_id=txn_id))
    auditor.finish()
    return cluster, ledger, auditor, handle


class TestLedgerAttribution:
    def test_pa_commit_triple_matches_table2(self):
        __, ledger, __a, handle = ledgered_commit()
        assert handle.outcome == "commit"
        assert ledger.cost_summary("T1") == basic_2pc_costs(3)

    def test_totals_agree_with_aggregate_metrics(self):
        cluster, ledger, __, __h = ledgered_commit()
        metrics = cluster.metrics
        costs = ledger.cost_summary("T1")
        assert costs.flows == metrics.commit_flows()
        assert costs.log_writes == metrics.total_log_writes()
        assert costs.forced_writes == metrics.forced_log_writes()

    def test_attribution_maps_key_node_phase_and_type(self):
        __, ledger, __a, __h = ledgered_commit()
        entry = ledger.entries["T1"]
        # Every flow is attributed to its sender.
        senders = {src for (src, __p, __t) in entry.flows}
        assert senders == {"c", "s1", "s2"}
        # The coordinator's prepare broadcast is two flows.
        prepares = sum(count for (src, __p, mtype), count
                       in entry.flows.items()
                       if src == "c" and mtype == "prepare")
        assert prepares == 2
        # Subordinate prepared records are forced protocol writes.
        assert any(rtype == "prepared" and forced
                   for (__n, __p, rtype, forced) in entry.writes)

    def test_lock_holds_closed_after_commit(self):
        __, ledger, __a, __h = ledgered_commit()
        entry = ledger.entries["T1"]
        assert entry.lock_holds, "updates must take locks"
        assert entry.open_locks == 0
        assert ledger.lock_time("T1") > 0.0
        nodes = {hold.node for hold in entry.lock_holds}
        assert nodes == {"c", "s1", "s2"}

    def test_unseen_txn_reads_as_zero(self):
        __, ledger, __a, __h = ledgered_commit()
        assert ledger.cost_summary("nope") == CostSummary(
            flows=0, log_writes=0, forced_writes=0)
        assert ledger.lock_time("nope") == 0.0

    def test_node_costs_split_roles(self):
        __, ledger, __a, __h = ledgered_commit()
        per_node = [ledger.node_costs("T1", node)
                    for node in ("c", "s1", "s2")]
        total = ledger.cost_summary("T1")
        assert sum(c.log_writes for c in per_node) == total.log_writes
        assert sum(c.forced_writes for c in per_node) == \
            total.forced_writes
        # Table 2: subordinates write more forced records than the
        # PA coordinator (prepared + committed vs committed only).
        assert per_node[1].forced_writes == 2
        assert per_node[0].forced_writes == 1


class TestLedgerFold:
    def test_recovery_phase_resend_is_a_recovery_flow(self):
        """A send counts under the message's own phase, which recovery
        paths set whatever the type: a PREPARE resent on the recovery
        path is a recovery flow.  The ledger keeps the phase of a pair
        the journal has forgotten."""
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        ledger = CostLedger().attach(cluster)
        cluster.run_transaction(updating_spec("c", ["s"], txn_id="T1"))
        entry = ledger.entries["T1"]
        commit, recovery = entry.commit_flows, entry.recovery_flows
        cluster.node("c").send(MessageType.PREPARE, "s", "T1",
                               phase=Phase.RECOVERY)
        entry = ledger.entries["T1"]
        assert (entry.commit_flows, entry.recovery_flows) == \
            (commit, recovery + 1)
        assert entry.flows[("c", "forgotten", "prepare")] == 1

    def test_unread_fold_holds_at_most_one_batch(self):
        """Nobody reads the ledger, yet it is folded every FOLD_BATCH
        rows; with no recorder attached the tap keeps no more rows in
        memory than one batch."""
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
        ledger = CostLedger().attach(cluster)
        tap, most = ledger.tap, 0
        for index in range(150):
            cluster.run_transaction(
                updating_spec("c", ["s1", "s2"], txn_id=f"B{index}"))
            held = len(tap.rows.buf) // ROW.size + len(tap.rows.pending)
            most = max(most, len(tap.rows) - ledger.cursor, held)
        assert len(tap.rows) > 3 * FOLD_BATCH
        assert 0 < most <= FOLD_BATCH
        assert len(ledger._entries) >= 100      # folded, never read


class TestLedgerAttachDetach:
    def test_attach_twice_same_cluster_is_noop(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        ledger = CostLedger().attach(cluster)
        n_hooks = len(cluster.network.on_send)
        assert ledger.attach(cluster) is ledger
        assert len(cluster.network.on_send) == n_hooks

    def test_attach_other_cluster_while_attached_raises(self):
        first = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        second = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        ledger = CostLedger().attach(first)
        with pytest.raises(RuntimeError):
            ledger.attach(second)

    def test_detach_removes_every_hook(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        ledger = CostLedger().attach(cluster)
        ledger.detach()
        assert not ledger.attached
        assert cluster.network.on_send == []
        assert cluster.network.on_deliver == []
        for node in cluster.nodes.values():
            assert node.on_transition == []
            assert node.log.on_write == []
            assert node.log.on_flush == []
            for rm in node.all_rms():
                assert rm.locks.on_grant == []
                assert rm.locks.on_release == []
        ledger.detach()  # idempotent

    def test_detached_ledger_records_nothing_further(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        ledger = CostLedger().attach(cluster)
        ledger.detach()
        cluster.run_transaction(updating_spec("c", ["s"], txn_id="T1"))
        assert ledger.entries == {}

    def test_auditor_requires_ledger_on_same_cluster(self):
        one = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        other = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        ledger = CostLedger().attach(one)
        with pytest.raises(RuntimeError):
            ConformanceAuditor().attach(other, ledger)

    def test_auditor_detach_removes_hooks(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        ledger = CostLedger().attach(cluster)
        auditor = ConformanceAuditor().attach(cluster, ledger)
        auditor.detach()
        assert not auditor.attached
        for node in cluster.nodes.values():
            assert auditor._on_transition not in node.on_transition


class TestAuditorClassification:
    def test_matching_prediction_conforms(self):
        __, __l, auditor, __h = ledgered_commit(
            predictor=basic_2pc_costs(3))
        assert [f.classification for f in auditor.findings] == ["conforms"]
        assert auditor.counts()["conforms"] == 1
        assert auditor.anomalies() == []

    def test_no_prediction_conforms(self):
        __, __l, auditor, __h = ledgered_commit(predictor=None)
        assert auditor.findings[0].conforms
        assert auditor.findings[0].expected is None

    def test_wrong_prediction_in_fault_free_run_is_anomaly(self):
        wrong = CostSummary(flows=99, log_writes=99, forced_writes=99)
        __, __l, auditor, __h = ledgered_commit(predictor=wrong)
        finding = auditor.findings[0]
        assert finding.is_anomaly
        assert finding.fault_signals == []
        assert finding.observed == basic_2pc_costs(3)
        assert finding.expected == wrong

    def test_audit_fires_at_completion_not_finish(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        ledger = CostLedger().attach(cluster)
        auditor = ConformanceAuditor(
            predictor=basic_2pc_costs(2)).attach(cluster, ledger)
        cluster.run_transaction(updating_spec("c", ["s"], txn_id="T1"))
        # Already audited during the run; finish() adds nothing.
        assert len(auditor.findings) == 1
        assert auditor.findings[0].conforms
        auditor.finish()
        assert len(auditor.findings) == 1

    def test_finish_sweeps_stragglers_as_incomplete(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        ledger = CostLedger().attach(cluster)
        auditor = ConformanceAuditor(
            predictor=basic_2pc_costs(2)).attach(cluster, ledger)
        cluster.start_transaction(updating_spec("c", ["s"], txn_id="T1"))
        cluster.run_until(0.1)  # stop mid-protocol
        auditor.finish()
        finding = auditor.findings[0]
        assert "incomplete" in finding.fault_signals
        assert finding.classification == "expected-under-faults"

    def test_zero_tolerance_makes_fault_divergence_anomalous(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        ledger = CostLedger().attach(cluster)
        auditor = ConformanceAuditor(predictor=basic_2pc_costs(2),
                                     zero_tolerance=True)
        auditor.attach(cluster, ledger)
        cluster.start_transaction(updating_spec("c", ["s"], txn_id="T1"))
        cluster.run_until(0.1)
        auditor.finish()
        assert auditor.findings[0].is_anomaly

    def test_dict_and_callable_predictors(self):
        prediction = {"T1": basic_2pc_costs(3)}
        __, __l, auditor, __h = ledgered_commit(predictor=prediction)
        assert auditor.findings[0].conforms

        __, __l2, auditor2, __h2 = ledgered_commit(
            predictor=lambda txn_id: basic_2pc_costs(3))
        assert auditor2.findings[0].conforms

    def test_finding_round_trips_through_dict(self):
        __, __l, auditor, __h = ledgered_commit(
            predictor=basic_2pc_costs(3))
        original = auditor.findings[0]
        restored = AuditFinding.from_dict(
            json.loads(json.dumps(original.to_dict())))
        assert restored.txn_id == original.txn_id
        assert restored.observed == original.observed
        assert restored.expected == original.expected
        assert restored.classification == original.classification


class TestExpectedCosts:
    def test_baseline_matches_formulas(self):
        assert expected_costs("pa", "baseline", 3) == basic_2pc_costs(3)
        assert expected_costs("pc", "baseline", 4) == pc_commit_costs(4)

    def test_group_commit_triple_is_baseline(self):
        for protocol in ("basic", "pa", "pn", "pc"):
            assert expected_costs(protocol, "group_commit", 3) == \
                expected_costs(protocol, "baseline", 3)

    def test_read_only_cheaper_than_baseline(self):
        base = expected_costs("pa", "baseline", 3)
        read_only = expected_costs("pa", "read_only", 3, m=1)
        assert read_only.flows < base.flows
        assert read_only.forced_writes < base.forced_writes

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            expected_costs("bogus", "baseline", 3)
        with pytest.raises(ValueError):
            expected_costs("pa", "bogus", 3)


class TestAuditMatrix:
    def test_every_cell_conforms(self):
        report = run_audit_matrix(workers=1, txns=1)
        assert report["anomalies"] == 0
        assert report["expected_under_faults"] == 0
        assert report["conforms"] == report["txns"] == 16

    def test_cell_observations_match_cell_formula(self):
        cell = run_audit_cell("pc", "read_only", txns=2)
        assert cell["anomalies"] == 0
        for finding in cell["findings"]:
            assert finding["observed"] == cell["expected"]

    def test_last_agent_cell_conforms(self):
        cell = run_audit_cell("pa", "last_agent", txns=2)
        assert cell["conforms"] == 2
        assert cell["expected"] == {
            "flows": 6, "log_writes": 8, "forced_writes": 5}

    def test_matrix_parallel_identical_to_serial(self):
        serial = run_audit_matrix(workers=1, txns=1)
        parallel = run_audit_matrix(workers=2, txns=1)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)

    def test_merge_accumulates_counts(self):
        cells = [run_audit_cell("pa", "baseline", txns=1),
                 run_audit_cell("pn", "baseline", txns=1)]
        merged = merge_audit_cells(cells)
        assert merged["txns"] == 2
        assert merged["conforms"] == 2
        assert merged["cells"] == cells

    def test_faulty_cell_classifies_as_expected_under_faults(self):
        cell = run_faulty_audit_cell()
        assert cell["outcome"] == "commit"
        assert cell["anomalies"] == 0
        assert cell["expected_under_faults"] >= 1
        signals = cell["findings"][0]["fault_signals"]
        assert any(s.startswith("node-crash:") for s in signals)


class TestSimTimeSeries:
    def run_sampled(self, interval=0.5):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
        series = SimTimeSeries(interval=interval).attach(cluster)
        for i in range(3):
            cluster.run_transaction(
                updating_spec("c", ["s1", "s2"], txn_id=f"T{i}"))
        series.sample()  # capture the quiesced end state explicitly
        series.detach()
        return series

    def test_validation(self):
        with pytest.raises(ValueError):
            SimTimeSeries(interval=0)
        with pytest.raises(ValueError):
            SimTimeSeries(capacity=0)

    def test_samples_cover_every_gauge(self):
        series = self.run_sampled()
        assert series.n_samples > 0
        for name in ("in_flight_txns", "locks_granted", "lock_waiters",
                     "pending_forces", "in_flight_messages",
                     "heuristic_events"):
            assert len(series.series[name]) == series.n_samples
        # Something was in flight at some point.
        assert any(v > 0 for __, v in series.series["in_flight_txns"])
        # A quiesced fault-free run ends with nothing on the wire.
        assert series.series["in_flight_messages"][-1][1] == 0

    def test_sampling_is_deterministic(self):
        one = self.run_sampled().to_dict()
        two = self.run_sampled().to_dict()
        assert one == two

    def test_ring_buffer_caps_points(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        series = SimTimeSeries(interval=0.25, capacity=4).attach(cluster)
        for i in range(4):
            cluster.run_transaction(
                updating_spec("c", ["s"], txn_id=f"T{i}"))
        assert series.n_samples == 4
        times = [t for t, __ in series.series["in_flight_txns"]]
        assert times == sorted(times)

    def test_samples_land_on_interval_boundaries(self):
        series = self.run_sampled(interval=0.5)
        for points in series.series.values():
            times = [t for t, __ in points]
            assert times == sorted(times)
            # One boundary, one hook sample — only the explicit final
            # sample may share a timestamp with the last hook sample.
            assert len(set(times)) >= len(times) - 1

    def test_attach_contract(self):
        first = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        second = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        series = SimTimeSeries().attach(first)
        assert series.attach(first) is series
        with pytest.raises(RuntimeError):
            series.attach(second)
        series.detach()
        series.detach()  # idempotent
        assert not series.attached

    def test_json_round_trip(self):
        series = self.run_sampled()
        data = json.loads(series.to_json())
        assert data["interval"] == 0.5
        assert set(data["series"]) == set(series.series)

    def test_json_export_is_exact(self):
        """to_json is the lossless wire form of to_dict — every point,
        not just the key set, survives the round trip."""
        series = self.run_sampled()
        exported = json.loads(series.to_json())
        native = series.to_dict()
        assert exported["capacity"] == native["capacity"]
        for name, points in native["series"].items():
            assert exported["series"][name] == \
                [list(point) for point in points]

    def test_wraparound_keeps_newest_samples(self):
        """A capped ring buffer holds exactly the tail of the uncapped
        sample stream — wraparound evicts oldest-first, point for
        point, across every gauge."""
        def sampled(capacity):
            cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
            series = SimTimeSeries(interval=0.25,
                                   capacity=capacity).attach(cluster)
            for i in range(4):
                cluster.run_transaction(
                    updating_spec("c", ["s1", "s2"], txn_id=f"T{i}"))
            series.sample()
            series.detach()
            return series

        full = sampled(capacity=4096)
        capped = sampled(capacity=5)
        assert capped.n_samples == 5
        assert full.n_samples > 5  # the cap actually bit
        for name, points in capped.series.items():
            assert list(points) == list(full.series[name])[-5:]

    def test_wraparound_survives_json_export(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        series = SimTimeSeries(interval=0.25, capacity=3).attach(cluster)
        for i in range(4):
            cluster.run_transaction(
                updating_spec("c", ["s"], txn_id=f"T{i}"))
        series.detach()
        data = json.loads(series.to_json())
        assert all(len(points) == 3 for points in data["series"].values())
        for name, points in series.series.items():
            assert data["series"][name] == \
                [list(point) for point in points]

    def test_dashboard_renders_all_gauges(self):
        series = self.run_sampled()
        dashboard = series.render_dashboard()
        for name in ("in_flight_txns", "locks_granted",
                     "in_flight_messages"):
            assert name in dashboard
        assert "samples=" in dashboard

    def test_sparkline(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "▁▁"
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"


class TestRunReportLedgerSections:
    def test_ledger_and_audit_sections(self):
        cluster, ledger, auditor, __h = ledgered_commit(
            predictor=basic_2pc_costs(3))
        report = RunReport.from_run(cluster, ledger=ledger,
                                    auditor=auditor)
        assert report.distributions["txn flows"].count == 1
        assert report.distributions["txn flows"].max == 4.0 * 2
        assert report.distributions["txn forced writes"].max == 5.0
        assert report.distributions["txn lock time"].count == 1
        assert report.counters["audit conforms"] == 1
        assert report.counters["audit anomalies"] == 0
        assert report.notes == []

    def test_anomalies_surface_as_notes(self):
        wrong = CostSummary(flows=1, log_writes=1, forced_writes=1)
        cluster, ledger, auditor, __h = ledgered_commit(predictor=wrong)
        report = RunReport.from_run(cluster, ledger=ledger,
                                    auditor=auditor)
        assert report.counters["audit anomalies"] == 1
        assert any("audit anomaly" in note for note in report.notes)
        assert "note: audit anomaly" in report.render()
        assert report.to_dict()["notes"] == report.notes

    def test_notes_merge_by_concatenation(self):
        wrong = CostSummary(flows=1, log_writes=1, forced_writes=1)
        cluster, ledger, auditor, __h = ledgered_commit(predictor=wrong)
        report = RunReport.from_run(cluster, ledger=ledger,
                                    auditor=auditor)
        merged = RunReport().merge(report).merge(report)
        assert len(merged.notes) == 2 * len(report.notes)


class TestAuditCli:
    def test_audit_matrix_exits_clean(self, capsys):
        assert cli_main(["audit", "--txns", "1", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "16 transactions audited" in out
        assert "0 anomalies" in out

    def test_audit_json_output(self, capsys):
        assert cli_main(["audit", "--txns", "1", "--workers", "1",
                         "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["anomalies"] == 0
        assert data["conforms"] == data["txns"] == 16

    def test_profile_audit_flag(self, capsys):
        assert cli_main(["profile", "banking-reconciliation",
                         "--audit"]) == 0
        out = capsys.readouterr().out
        assert "audit:" in out
        assert "0 anomalies" in out

    def test_trace_dashboard_format(self, capsys):
        assert cli_main(["trace", "default",
                         "--format", "dashboard"]) == 0
        out = capsys.readouterr().out
        assert "sim-time dashboard" in out
        assert "in_flight_txns" in out

    def test_sweep_audit_rejected_for_non_auditable_study(self, capsys):
        assert cli_main(["sweep", "--study", "tree-size",
                         "--audit"]) == 2
