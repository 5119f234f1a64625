"""Tests for the observability layer: span tracing, reports, profiling.

The span-tree shape tests pin the tracer's output to the paper's
figures: Figure 1 (simple 2PC, one coordinator and one subordinate)
and Figure 2's Presumed Abort flow/force sequence (prepare, vote-yes,
commit, ack per subordinate; prepared and committed forced at the
subordinate, committed forced and end unforced at the coordinator).
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.core.cluster import Cluster
from repro.core.config import BASIC_2PC, PRESUMED_ABORT, PRESUMED_NOTHING
from repro.core.spec import flat_tree
from repro.lrm.operations import write_op
from repro.obs import (
    KIND_LOG,
    KIND_MESSAGE,
    KIND_PHASE,
    KIND_TXN,
    KernelProfiler,
    RunReport,
    Span,
    SpanTracer,
    build_tree,
    render_span_tree,
    spans_to_chrome,
    spans_to_jsonl,
)
from repro.sim.kernel import Simulator


def spans_from_jsonl(text):
    return [Span.from_dict(json.loads(line))
            for line in text.splitlines() if line.strip()]


def committing_spec(root, children, txn_id="T1"):
    spec = flat_tree(root, children, txn_id=txn_id)
    for participant in spec.participants:
        participant.ops.append(write_op(f"key-{participant.node}", 1))
    return spec


def traced_commit(config, nodes, txn_id="T1"):
    cluster = Cluster(config, nodes=nodes)
    tracer = SpanTracer().attach(cluster)
    handle = cluster.run_transaction(
        committing_spec(nodes[0], nodes[1:], txn_id=txn_id))
    tracer.finish()
    return cluster, tracer, handle


class TestSpanTreePA:
    """Figure 2: Presumed Abort, one coordinator, two subordinates."""

    @pytest.fixture(scope="class")
    def run(self):
        return traced_commit(PRESUMED_ABORT, ["Coord", "Sub1", "Sub2"])

    def test_root_span(self, run):
        __, tracer, handle = run
        assert handle.outcome == "commit"
        roots = [s for s in tracer.spans if s.kind == KIND_TXN]
        assert len(roots) == 1
        root = roots[0]
        assert root.node == "Coord"
        assert root.txn_id == "T1"
        assert root.attributes["coordinator"] == "Coord"
        assert root.attributes["outcome"] == "committed"
        assert root.finished

    def test_every_span_descends_from_the_root(self, run):
        __, tracer, __h = run
        tree_roots, __children = build_tree(tracer.spans)
        assert len(tree_roots) == 1
        assert tree_roots[0].kind == KIND_TXN

    def test_figure2_message_sequence(self, run):
        __, tracer, __h = run
        messages = [s.name for s in tracer.spans if s.kind == KIND_MESSAGE
                    and not s.name.endswith(":data")]
        commit_msgs = [m for m in messages if m != "msg:data"]
        # 8 commit-phase flows: prepare x2, vote-yes x2, commit x2, ack x2.
        assert sorted(commit_msgs) == [
            "msg:ack", "msg:ack", "msg:commit", "msg:commit",
            "msg:prepare", "msg:prepare", "msg:vote-yes", "msg:vote-yes"]

    def test_figure2_force_sequence(self, run):
        __, tracer, __h = run
        forces = sorted((s.name, s.node) for s in tracer.spans
                        if s.kind == KIND_LOG)
        # Subordinates force prepared then committed; the coordinator
        # forces committed only (its end record is unforced under PA,
        # so no log-force span exists for it).
        assert forces == [
            ("log-force:committed", "Coord"),
            ("log-force:committed", "Sub1"),
            ("log-force:committed", "Sub2"),
            ("log-force:prepared", "Sub1"),
            ("log-force:prepared", "Sub2"),
        ]

    def test_phase_spans_per_node(self, run):
        __, tracer, __h = run
        phases = {(s.name, s.node) for s in tracer.spans
                  if s.kind == KIND_PHASE}
        assert phases == {
            ("prepare", "Coord"), ("prepare", "Sub1"), ("prepare", "Sub2"),
            ("in-doubt", "Sub1"), ("in-doubt", "Sub2"),
            ("commit", "Coord"), ("commit", "Sub1"), ("commit", "Sub2"),
        }

    def test_subordinate_prepared_force_inside_its_prepare_phase(self, run):
        __, tracer, __h = run
        by_id = {s.span_id: s for s in tracer.spans}
        for sub in ("Sub1", "Sub2"):
            force = next(s for s in tracer.spans
                         if s.name == "log-force:prepared"
                         and s.node == sub)
            parent = by_id[force.parent_id]
            assert (parent.name, parent.node) == ("prepare", sub)

    def test_all_spans_closed_and_ordered(self, run):
        __, tracer, __h = run
        for span in tracer.spans:
            assert span.finished, span
            assert span.end >= span.start, span

    def test_in_doubt_window_covers_the_decision_round_trip(self, run):
        __, tracer, __h = run
        in_doubt = next(s for s in tracer.spans
                        if s.name == "in-doubt" and s.node == "Sub1")
        # vote travels up (1 unit), decision forces + travels back down.
        assert in_doubt.duration >= 2.0


class TestSpanTreePN:
    """Figure 1 topology under Presumed Nothing: the coordinator
    forces commit-pending before any prepare, the subordinate forces
    an initiator record before its prepared record."""

    @pytest.fixture(scope="class")
    def run(self):
        return traced_commit(PRESUMED_NOTHING, ["Coord", "Sub"])

    def test_commit_pending_forced_before_prepare_phase(self, run):
        __, tracer, __h = run
        pending = next(s for s in tracer.spans
                       if s.name == "log-force:commit-pending")
        assert pending.node == "Coord"
        prepare = next(s for s in tracer.spans
                       if s.name == "prepare" and s.node == "Coord")
        assert pending.start <= prepare.start

    def test_subordinate_forces_initiator_then_prepared(self, run):
        __, tracer, __h = run
        sub_forces = [s.name for s in tracer.spans
                      if s.kind == KIND_LOG and s.node == "Sub"]
        assert sub_forces[:2] == ["log-force:initiator",
                                  "log-force:prepared"]

    def test_basic_2pc_has_no_pn_extras(self):
        __, tracer, __h = traced_commit(BASIC_2PC, ["Coord", "Sub"])
        names = {s.name for s in tracer.spans}
        assert "log-force:commit-pending" not in names
        assert "log-force:initiator" not in names


class TestAttachDetach:
    def test_attach_twice_same_cluster_is_noop(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["a", "b"])
        tracer = SpanTracer()
        tracer.attach(cluster)
        hooks_before = len(cluster.network.on_send)
        tracer.attach(cluster)
        assert len(cluster.network.on_send) == hooks_before

    def test_attach_other_cluster_while_attached_raises(self):
        first = Cluster(PRESUMED_ABORT, nodes=["a"])
        second = Cluster(PRESUMED_ABORT, nodes=["a"])
        tracer = SpanTracer().attach(first)
        with pytest.raises(RuntimeError):
            tracer.attach(second)

    def test_detach_removes_every_hook(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["a", "b"])
        tracer = SpanTracer().attach(cluster)
        tracer.detach()
        assert not cluster.network.on_send
        assert not cluster.network.on_deliver
        for node in cluster.nodes.values():
            assert not node.on_transition
            assert not node.on_note
            assert not node.log.on_write
            assert not node.log.on_flush
        tracer.detach()  # idempotent
        assert not tracer.attached

    def test_detached_tracer_records_nothing_further(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["a", "b"])
        tracer = SpanTracer().attach(cluster)
        tracer.detach()
        cluster.run_transaction(committing_spec("a", ["b"]))
        assert tracer.spans == []


class TestSerialisation:
    def make_spans(self):
        __, tracer, __h = traced_commit(PRESUMED_ABORT,
                                        ["Coord", "Sub1", "Sub2"])
        return tracer.spans

    def test_jsonl_round_trip(self):
        spans = self.make_spans()
        restored = spans_from_jsonl(spans_to_jsonl(spans))
        assert len(restored) == len(spans)
        for original, copy in zip(sorted(spans, key=lambda s: s.span_id),
                                  restored):
            assert copy.to_dict() == original.to_dict()

    def test_chrome_export_structure(self):
        spans = self.make_spans()
        doc = spans_to_chrome(spans)
        events = doc["traceEvents"]
        assert events
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(complete) == len(spans)  # every span finished
        for event in complete:
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert "ts" in event and "args" in event
        # One process per transaction, one named thread per node lane.
        assert {e["args"]["name"] for e in metadata
                if e["name"] == "process_name"} == {"txn T1"}
        assert {e["args"]["name"] for e in metadata
                if e["name"] == "thread_name"} == {"Coord", "Sub1", "Sub2"}

    def test_render_tree_shows_hierarchy(self):
        spans = self.make_spans()
        text = render_span_tree(spans)
        lines = text.splitlines()
        assert lines[0].startswith("[")       # root at zero indent
        assert any(line.startswith("  ") for line in lines)
        assert "txn T1 @Coord" in lines[0]

    def test_unfinished_span_renders_open_and_exports_instant(self):
        span = Span(span_id=1, name="x", kind=KIND_PHASE, node="a",
                    txn_id="t", start=1.0)
        assert "open" in render_span_tree([span])
        doc = spans_to_chrome([span])
        instant = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instant


class TestZeroOverheadWhenDisabled:
    """With no tracer attached and no profiler installed, the hot
    paths must do no observability work at all."""

    def test_no_spans_created_without_tracer(self, monkeypatch):
        calls = []
        original = Span.__init__

        def spy(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", spy)
        cluster = Cluster(PRESUMED_ABORT, nodes=["a", "b"])
        cluster.run_transaction(committing_spec("a", ["b"]))
        assert calls == []

    def test_kernel_never_times_events_without_profiler(self, monkeypatch):
        calls = []
        import repro.sim.kernel as kernel_module

        def spy():
            calls.append(1)
            return 0.0

        monkeypatch.setattr(kernel_module, "perf_counter", spy)
        simulator = Simulator()
        fired = []
        for i in range(5):
            simulator.schedule(float(i), lambda: fired.append(1))
        simulator.run()
        simulator.schedule(10.0, lambda: fired.append(1))
        while simulator.step():
            pass
        assert fired and calls == []

    def test_profiler_record_not_called_without_activation(self,
                                                           monkeypatch):
        calls = []
        monkeypatch.setattr(
            KernelProfiler, "record",
            lambda self, event, seconds: calls.append(event))
        KernelProfiler()  # constructed but never activated/installed
        cluster = Cluster(PRESUMED_ABORT, nodes=["a", "b"])
        cluster.run_transaction(committing_spec("a", ["b"]))
        assert calls == []

    def test_hook_lists_stay_empty_without_attach(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["a", "b"])
        cluster.run_transaction(committing_spec("a", ["b"]))
        assert not cluster.network.on_send
        assert not cluster.network.on_deliver
        for node in cluster.nodes.values():
            assert not node.on_transition
            assert not node.log.on_flush


class TestKernelProfiler:
    def test_records_by_event_type(self):
        profiler = KernelProfiler()
        simulator = Simulator()
        simulator.set_profiler(profiler)
        simulator.schedule(1.0, lambda: None, name="log-io:a")
        simulator.schedule(2.0, lambda: None, name="log-io:b")
        simulator.schedule(3.0, lambda: None, name="deliver:x")
        simulator.run()
        assert profiler.events == 3
        assert profiler.by_type["log-io"].count == 2
        assert profiler.by_type["deliver"].count == 1
        assert profiler.total_seconds >= 0
        assert profiler.histogram.count == 3

    def test_activation_reaches_simulators_built_later(self):
        profiler = KernelProfiler()
        with profiler:
            simulator = Simulator()
            simulator.schedule(0.0, lambda: None, name="tick")
            simulator.run()
        assert profiler.events == 1
        assert Simulator.default_profiler is None
        # Simulators built after deactivation are unprofiled.
        after = Simulator()
        assert after.profiler is None

    def test_deactivate_does_not_clobber_other_profiler(self):
        first, second = KernelProfiler(), KernelProfiler()
        first.activate()
        try:
            second.deactivate()  # not the active one; must be a no-op
            assert Simulator.default_profiler is first
        finally:
            first.deactivate()
        assert Simulator.default_profiler is None

    def test_render_and_to_dict(self):
        profiler = KernelProfiler()
        simulator = Simulator()
        simulator.set_profiler(profiler)
        simulator.schedule(1.0, lambda: None, name="deliver:x")
        simulator.run()
        text = profiler.render()
        assert "deliver" in text and "event type" in text
        data = profiler.to_dict()
        assert data["events"] == 1
        assert "deliver" in data["by_type"]
        assert KernelProfiler().render().startswith("kernel profile")

    def test_step_path_profiles_too(self):
        profiler = KernelProfiler()
        simulator = Simulator()
        simulator.set_profiler(profiler)
        simulator.schedule(1.0, lambda: None, name="tick")
        while simulator.step():
            pass
        assert profiler.events == 1


class TestRunReport:
    def test_from_run_collects_distributions(self):
        cluster, tracer, __h = traced_commit(PRESUMED_ABORT,
                                             ["Coord", "Sub1", "Sub2"])
        report = RunReport.from_run(cluster, tracer)
        assert report.counters["transactions"] == 1
        assert report.counters["commits"] == 1
        assert report.counters["commit flows"] == 8
        latency = report.distributions["txn latency"]
        assert latency.count == 1
        assert latency.mean > 0
        assert report.distributions["log-force latency"].count == 5
        assert "phase: commit" in report.distributions
        text = report.render()
        assert "txn latency" in text and "p99" in text
        parsed = json.loads(report.to_json())
        assert parsed["counters"]["commits"] == 1

    def test_report_without_tracer(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["a", "b"])
        cluster.run_transaction(committing_spec("a", ["b"]))
        report = RunReport.from_run(cluster)
        assert report.counters["transactions"] == 1
        assert not any(name.startswith("phase:")
                       for name in report.distributions)

    def test_merge_accumulates(self):
        def one_report():
            cluster = Cluster(PRESUMED_ABORT, nodes=["a", "b"])
            cluster.run_transaction(committing_spec("a", ["b"]))
            return RunReport.from_run(cluster)

        merged = one_report().merge(one_report())
        assert merged.counters["transactions"] == 2
        assert merged.distributions["txn latency"].count == 2


class TestTraceCli:
    def test_trace_default_chrome_is_valid_trace_event_json(self, capsys):
        assert cli_main(["trace", "default", "--format", "chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0
        # The default workload is the Figure 2 PA topology: 8
        # commit-phase message spans plus 5 forced-log spans.
        commit_msgs = [e for e in events if e["ph"] == "X"
                       and e["name"].startswith("msg:")
                       and e["name"] != "msg:data"]
        assert len(commit_msgs) == 8
        forces = [e for e in events if e["ph"] == "X"
                  and e["name"].startswith("log-force:")]
        assert len(forces) == 5

    def test_trace_default_spans(self, capsys):
        assert cli_main(["trace", "default"]) == 0
        out = capsys.readouterr().out
        assert "txn T1 @Coord" in out
        assert "log-force:prepared @Sub1" in out

    def test_trace_default_jsonl_round_trips(self, capsys):
        assert cli_main(["trace", "default", "--format", "json"]) == 0
        spans = spans_from_jsonl(capsys.readouterr().out)
        assert any(s.kind == KIND_TXN for s in spans)

    def test_trace_transcript(self, capsys):
        assert cli_main(["trace", "default",
                         "--format", "transcript"]) == 0
        out = capsys.readouterr().out
        assert "Coord -> Sub1: prepare" in out

    def test_trace_profile_workload(self, capsys):
        assert cli_main(["trace", "read-mostly-reporting",
                         "--format", "json"]) == 0
        spans = spans_from_jsonl(capsys.readouterr().out)
        assert spans

    def test_trace_unknown_txn_fails(self, capsys):
        assert cli_main(["trace", "default", "--txn", "nope"]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_trace_unknown_workload_fails(self, capsys):
        assert cli_main(["trace", "bogus"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_profile_obs_prints_run_report(self, capsys):
        assert cli_main(["profile", "read-mostly-reporting",
                         "--obs"]) == 0
        out = capsys.readouterr().out
        assert "Run report" in out and "txn latency" in out
