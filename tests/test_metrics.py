"""Unit tests for counters and the metrics collector."""

import pytest

from repro.metrics.collector import (
    CostSummary,
    HeuristicEvent,
    MetricsCollector,
    TransactionRecord,
)
from repro.metrics.counters import TaggedCounter
from repro.metrics.histogram import Histogram, geometric_bounds


class TestTaggedCounter:
    def test_requires_dimensions(self):
        with pytest.raises(ValueError):
            TaggedCounter(())

    def test_add_and_total(self):
        counter = TaggedCounter(("phase", "type"))
        counter.add(("commit", "prepare"))
        counter.add(("commit", "prepare"), 2)
        counter.add(("data", "enroll"))
        assert counter.total() == 4
        assert counter.total(phase="commit") == 3
        assert counter.total(phase="commit", type="prepare") == 3

    def test_key_arity_checked(self):
        counter = TaggedCounter(("a", "b"))
        with pytest.raises(ValueError):
            counter.add(("only-one",))

    def test_unknown_dimension_rejected(self):
        counter = TaggedCounter(("a",))
        counter.add(("x",))
        with pytest.raises(ValueError):
            counter.total(bogus="x")

    def test_group_by(self):
        counter = TaggedCounter(("phase", "node"))
        counter.add(("commit", "a"), 2)
        counter.add(("commit", "b"), 3)
        counter.add(("data", "a"), 7)
        assert counter.group_by("node", phase="commit") == {"a": 2, "b": 3}

    def test_diff_reports_increments_only(self):
        counter = TaggedCounter(("k",))
        counter.add(("x",), 2)
        snapshot = counter.snapshot()
        counter.add(("x",))
        counter.add(("y",), 5)
        delta = counter.diff(snapshot)
        assert delta.total(k="x") == 1
        assert delta.total(k="y") == 5

    def test_counts_only_grow(self):
        for partition in (None, "k"):
            counter = TaggedCounter(("k",), partition=partition)
            with pytest.raises(ValueError):
                counter.add(("x",), 0)
            counter.add(("x",), 2)
            assert counter.diff({("x",): 5}).total() == 0

    def test_partitioned_counter_answers_like_a_plain_one(self):
        dims = ("phase", "type", "txn")
        plain = TaggedCounter(dims)
        split = TaggedCounter(dims, partition="txn")
        with pytest.raises(ValueError):
            TaggedCounter(dims, partition="bogus")
        events = [("commit", "prepare", "t1"), ("commit", "vote", "t1"),
                  ("commit", "prepare", "t2"), ("data", "data", "t1"),
                  ("commit", "prepare", "t1"), ("data", "data", "shared")]
        for counter in (plain, split):
            for key in events:
                counter.add(key)
            counter.add(("data", "data", "shared"), 3)
        snapshot = split.snapshot()
        assert snapshot == plain.snapshot() and len(split) == len(plain) == 5
        assert sorted(split) == sorted(plain)
        for match in ({}, {"phase": "commit"}, {"txn": "t1"},
                      {"txn": "t1", "type": "prepare"}, {"txn": "nobody"}):
            assert split.total(**match) == plain.total(**match)
            for dimension in dims:
                assert split.group_by(dimension, **match) == \
                    plain.group_by(dimension, **match)
        for counter in (plain, split):
            counter.add(("commit", "ack", "t2"), 2)
            counter.add(("data", "data", "shared"))
        assert split.diff(snapshot).snapshot() == {
            ("commit", "ack", "t2"): 2, ("data", "data", "shared"): 1}
        assert plain.diff(snapshot).snapshot() == split.diff(snapshot).snapshot()


class TestMetricsCollector:
    def test_commit_flows_filters_phase(self, metrics):
        metrics.record_flow("commit", "prepare", "c", "t1")
        metrics.record_flow("data", "data", "c", "t1")
        metrics.record_flow("recovery", "outcome", "c", "t1")
        assert metrics.commit_flows() == 1
        assert metrics.data_flows() == 1
        assert metrics.recovery_flows() == 1

    def test_log_writes_exclude_data_records(self, metrics):
        metrics.record_log_write("n", "prepared", True, "t1")
        metrics.record_log_write("n", "lrm-update", False, "t1")
        metrics.record_log_write("n", "end", False, "t1")
        assert metrics.total_log_writes() == 2
        assert metrics.total_log_writes(include_data=True) == 3
        assert metrics.forced_log_writes() == 1

    def test_cost_summary_per_txn(self, metrics):
        metrics.record_flow("commit", "prepare", "c", "t1")
        metrics.record_flow("commit", "prepare", "c", "t2")
        metrics.record_log_write("n", "committed", True, "t1")
        summary = metrics.cost_summary("t1")
        assert summary.as_tuple() == (1, 1, 1)

    def test_node_costs_split_roles(self, metrics):
        metrics.record_flow("commit", "prepare", "coord", "t")
        metrics.record_flow("commit", "vote-yes", "sub", "t")
        metrics.record_log_write("sub", "prepared", True, "t")
        assert metrics.node_costs("coord", "t").flows == 1
        assert metrics.node_costs("sub", "t").as_tuple() == (1, 1, 1)

    def test_lock_hold_stats(self, metrics):
        metrics.record_lock_hold(2.0)
        metrics.record_lock_hold(4.0)
        assert metrics.mean_lock_hold() == pytest.approx(3.0)
        assert metrics.max_lock_hold() == pytest.approx(4.0)
        with pytest.raises(ValueError):
            metrics.record_lock_hold(-1.0)

    def test_empty_stats_are_zero(self, metrics):
        assert metrics.mean_lock_hold() == 0.0
        assert metrics.max_lock_hold() == 0.0
        assert metrics.mean_latency() == 0.0

    def test_heuristic_event_filtering(self, metrics):
        damaged = HeuristicEvent("n1", "t", "commit", 1.0, damaged=True)
        clean = HeuristicEvent("n2", "t", "commit", 1.0, damaged=False)
        metrics.record_heuristic(damaged)
        metrics.record_heuristic(clean)
        assert metrics.damaged_heuristics() == [damaged]

    def test_transaction_latency(self, metrics):
        metrics.record_transaction(TransactionRecord(
            txn_id="t", outcome="commit", started_at=1.0, finished_at=5.0))
        assert metrics.mean_latency() == pytest.approx(4.0)

    def test_snapshot_windowing(self, metrics):
        metrics.record_flow("commit", "prepare", "c", "t1")
        snap = metrics.snapshot()
        metrics.record_flow("commit", "commit", "c", "t1")
        window = metrics.since(snap)
        assert window.commit_flows() == 1

    def test_physical_io_counting(self, metrics):
        metrics.record_log_io("n1")
        metrics.record_log_io("n1")
        metrics.record_log_io("n2")
        assert metrics.physical_ios() == 3
        assert metrics.physical_ios("n1") == 2


class TestCostSummary:
    def test_tuple_and_str(self):
        summary = CostSummary(4, 5, 3)
        assert summary.as_tuple() == (4, 5, 3)
        assert "4 flows" in str(summary)
        assert "3 forced" in str(summary)


class TestResetAndWindowing:
    def test_reset_clears_everything(self, metrics):
        metrics.record_flow("commit", "prepare", "c", "t1")
        metrics.record_log_write("c", "committed", True, "t1")
        metrics.record_log_io("c")
        metrics.record_transaction(TransactionRecord(
            txn_id="t1", outcome="commit", started_at=0.0, finished_at=1.0))
        metrics.record_heuristic(HeuristicEvent("c", "t1", "commit", 1.0))
        metrics.record_lock_hold(2.0)
        metrics.record_force_latency("c", 0.5)
        metrics.reset()
        assert metrics.commit_flows() == 0
        assert metrics.total_log_writes() == 0
        assert metrics.physical_ios() == 0
        assert metrics.transactions == []
        assert metrics.heuristics == []
        assert metrics.lock_holds == []
        assert metrics.force_latencies == []

    def test_since_windows_list_metrics(self, metrics):
        metrics.record_transaction(TransactionRecord(
            txn_id="t1", outcome="commit", started_at=0.0, finished_at=2.0))
        metrics.record_lock_hold(1.0)
        metrics.record_force_latency("c", 0.25)
        metrics.record_heuristic(HeuristicEvent("c", "t1", "commit", 1.0))
        snap = metrics.snapshot()
        metrics.record_transaction(TransactionRecord(
            txn_id="t2", outcome="abort", started_at=2.0, finished_at=6.0))
        metrics.record_lock_hold(3.0)
        metrics.record_force_latency("s", 0.75)
        window = metrics.since(snap)
        assert [t.txn_id for t in window.transactions] == ["t2"]
        assert window.lock_holds == [3.0]
        assert window.force_latencies == [("s", 0.75)]
        assert window.heuristics == []
        assert window.mean_latency() == pytest.approx(4.0)
        # The source collector is untouched by windowing.
        assert len(metrics.transactions) == 2

    def test_negative_force_latency_rejected(self, metrics):
        with pytest.raises(ValueError):
            metrics.record_force_latency("c", -0.1)


class TestHistogram:
    def test_percentiles_of_uniform_data(self):
        histogram = Histogram()
        histogram.record_many(float(i) for i in range(1, 101))
        assert histogram.count == 100
        assert histogram.mean == pytest.approx(50.5)
        assert histogram.max == 100.0
        # Bucketed percentiles are approximate: the interpolated value
        # must land within the right bucket's neighbourhood.
        assert histogram.p50 == pytest.approx(50.0, rel=0.35)
        assert histogram.p99 == pytest.approx(99.0, rel=0.35)
        assert histogram.p50 <= histogram.p90 <= histogram.p99

    def test_empty_histogram_is_zero(self):
        histogram = Histogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.p99 == 0.0
        assert histogram.summary()["max"] == 0.0

    def test_percentile_bounds_validated(self):
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)

    def test_bounds_must_be_sorted_and_positive(self):
        with pytest.raises(ValueError):
            Histogram(bounds=[3.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            geometric_bounds(10.0, 1.0)

    def test_merge_requires_matching_bounds(self):
        left = Histogram(bounds=geometric_bounds(0.1, 10.0, 4))
        right = Histogram()
        with pytest.raises(ValueError):
            left.merge(right)

    def test_merge_accumulates(self):
        left, right = Histogram(), Histogram()
        left.record_many([1.0, 2.0])
        right.record_many([3.0, 4.0])
        merged = left.merge(right)
        assert merged is left  # in-place fold, chainable
        assert merged.count == 4
        assert merged.mean == pytest.approx(2.5)
        assert merged.max == 4.0
        assert right.count == 2  # the folded-in histogram is untouched

    def test_round_trips_through_dict(self):
        histogram = Histogram()
        histogram.record_many([0.5, 5.0, 50.0])
        restored = Histogram.from_dict(histogram.to_dict())
        assert restored.count == histogram.count
        assert restored.summary() == histogram.summary()


class TestHistogramMergeEdges:
    def test_merge_empty_into_empty(self):
        left = Histogram().merge(Histogram())
        assert left.count == 0
        assert left.min is None and left.max is None
        assert left.mean == 0.0 and left.p99 == 0.0

    def test_merge_populated_into_empty(self):
        left, right = Histogram(), Histogram()
        right.record_many([1.0, 4.0])
        left.merge(right)
        assert left.count == 2
        assert left.min == 1.0 and left.max == 4.0
        assert left.mean == pytest.approx(2.5)

    def test_merge_empty_into_populated_changes_nothing(self):
        left = Histogram()
        left.record_many([1.0, 4.0])
        before = left.summary()
        left.merge(Histogram())
        assert left.summary() == before

    def test_merged_percentiles_match_combined_recording(self):
        left, right, combined = Histogram(), Histogram(), Histogram()
        lows = [float(i) for i in range(1, 51)]
        highs = [float(i) for i in range(51, 101)]
        left.record_many(lows)
        right.record_many(highs)
        combined.record_many(lows + highs)
        left.merge(right)
        assert left.counts == combined.counts
        for q in (0.5, 0.9, 0.99):
            assert left.percentile(q) == combined.percentile(q)

    def test_single_value_percentiles_clamp_to_extremes(self):
        histogram = Histogram()
        histogram.record(7.0)
        # min == max: every quantile collapses to the one value, not
        # to a bucket-edge artifact.
        assert histogram.percentile(0.0) == 7.0
        assert histogram.percentile(0.5) == 7.0
        assert histogram.percentile(1.0) == 7.0

    def test_value_on_bucket_edge_lands_in_lower_bucket(self):
        # Bounds are *inclusive* upper edges: a value exactly on an
        # edge belongs to that edge's bucket, not the next one up.
        histogram = Histogram(bounds=[1.0, 2.0, 4.0])
        for value in (1.0, 2.0, 4.0):
            histogram.record(value)
        assert list(histogram.counts) == [1, 1, 1, 0]

    def test_values_beyond_last_bound_go_to_overflow(self):
        histogram = Histogram(bounds=[1.0, 2.0])
        histogram.record_many([5.0, 9.0])
        assert list(histogram.counts) == [0, 0, 2]
        # Overflow-bucket percentiles clamp to the observed max, not
        # to an unbounded bucket edge.
        assert histogram.percentile(0.5) <= 9.0
        assert histogram.percentile(1.0) == 9.0

    def test_extreme_quantiles_clamp_to_observed_range(self):
        histogram = Histogram(bounds=[1.0, 2.0, 4.0, 8.0])
        histogram.record_many([1.5, 3.0, 6.0])
        assert histogram.percentile(0.0) == 1.5
        assert histogram.percentile(1.0) == 6.0

    def test_percentile_monotonic_in_q(self):
        histogram = Histogram()
        histogram.record_many(float(i) for i in range(1, 42))
        quantiles = [histogram.percentile(q / 20.0) for q in range(21)]
        assert quantiles == sorted(quantiles)

    def test_all_mass_on_one_edge_collapses(self):
        # Every sample exactly at a bucket's inclusive upper edge:
        # min == max == edge, so interpolation must not leak below it.
        histogram = Histogram(bounds=[1.0, 2.0, 4.0])
        histogram.record_many([2.0, 2.0, 2.0])
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert histogram.percentile(q) == 2.0

    def test_boundary_sample_survives_merge_and_dict(self):
        histogram = Histogram(bounds=[1.0, 2.0, 4.0])
        histogram.record_many([1.0, 2.0, 4.0, 5.0])
        restored = Histogram.from_dict(histogram.to_dict())
        assert list(restored.counts) == list(histogram.counts)
        other = Histogram(bounds=[1.0, 2.0, 4.0])
        other.record(2.0)
        histogram.merge(other)
        assert list(histogram.counts) == [1, 2, 1, 1]


class TestDeadlockMetrics:
    def test_record_count_and_victims(self):
        metrics = MetricsCollector()
        assert metrics.deadlock_count() == 0
        metrics.record_deadlock("t2", ["t1", "t2"])
        metrics.record_deadlock("t4", ["t3", "t4"])
        assert metrics.deadlock_count() == 2
        assert metrics.deadlock_victims() == ["t2", "t4"]
        assert metrics.deadlocks[0].cycle == ["t1", "t2"]

    def test_since_windows_deadlocks(self):
        metrics = MetricsCollector()
        metrics.record_deadlock("t1", ["t1", "t2"])
        snap = metrics.snapshot()
        metrics.record_deadlock("t3", ["t3", "t4"])
        window = metrics.since(snap)
        assert window.deadlock_count() == 1
        assert window.deadlock_victims() == ["t3"]

    def test_run_report_surfaces_deadlocks(self):
        from repro.core.cluster import Cluster
        from repro.core.config import PRESUMED_ABORT
        from repro.obs import RunReport

        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        cluster.metrics.record_deadlock("t9", ["t8", "t9"])
        report = RunReport.from_run(cluster)
        assert report.counters["deadlocks detected"] == 1
        assert "deadlock victim: t9" in report.notes
        assert "note: deadlock victim: t9" in report.render()
