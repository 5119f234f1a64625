"""Unit tests for the tracer and sequence-diagram renderer."""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT
from repro.obs import PHASE_OF_STATE, SpanTracer
from repro.trace.diagram import render_sequence_diagram
from repro.trace.recorder import TraceEvent, Tracer

from tests.conftest import updating_spec


@pytest.fixture
def traced_run():
    cluster = Cluster(PRESUMED_ABORT, nodes=["coord", "sub"])
    tracer = Tracer().attach(cluster)
    spec = updating_spec("coord", ["sub"])
    cluster.run_transaction(spec)
    return cluster, tracer, spec


def test_events_in_time_order(traced_run):
    __, tracer, __spec = traced_run
    times = [e.time for e in tracer.events]
    assert times == sorted(times)


def test_flow_events_carry_endpoints(traced_run):
    __, tracer, spec = traced_run
    flows = tracer.flows(spec.txn_id)
    assert flows
    for event in flows:
        assert event.node in ("coord", "sub")
        assert event.dst in ("coord", "sub")


def test_log_events_carry_forced_flag(traced_run):
    __, tracer, spec = traced_run
    logs = [e for e in tracer.for_txn(spec.txn_id) if e.kind == "log"]
    forced = [e for e in logs if e.forced]
    assert any(e.text == "prepared" for e in forced)
    assert any(e.text == "end" and not e.forced for e in logs)


def test_for_txn_filters(traced_run):
    cluster, tracer, first = traced_run
    second = updating_spec("coord", ["sub"])
    cluster.run_transaction(second)
    assert all(e.txn_id == first.txn_id
               for e in tracer.for_txn(first.txn_id))
    assert tracer.for_txn(second.txn_id)


def test_describe_formats():
    flow = TraceEvent(1.0, "flow", "a", "prepare", dst="b")
    log = TraceEvent(2.0, "log", "a", "prepared", forced=True)
    note = TraceEvent(3.0, "note", "a", "decides commit")
    assert "a -> b: prepare" in flow.describe()
    assert "*log prepared" in log.describe()
    assert "decides commit" in note.describe()


class TestDiagram:
    def events(self):
        return [
            TraceEvent(1.0, "flow", "a", "prepare", dst="b", txn_id="t"),
            TraceEvent(2.0, "log", "b", "prepared", forced=True,
                       txn_id="t"),
            TraceEvent(3.0, "flow", "b", "vote-yes", dst="a", txn_id="t"),
            TraceEvent(4.0, "note", "a", "decides commit", txn_id="t"),
            TraceEvent(5.0, "flow", "a", "data", dst="b", txn_id="t"),
        ]

    def test_columns_and_arrows(self):
        out = render_sequence_diagram(self.events(), ["a", "b"])
        assert "prepare" in out and "-->" in out or "->" in out
        assert "*log prepared" in out
        lines = out.splitlines()
        assert "a" in lines[0] and "b" in lines[0]

    def test_right_to_left_arrow(self):
        out = render_sequence_diagram(self.events(), ["a", "b"])
        assert "<-" in out   # the vote flows right-to-left

    def test_notes_toggle(self):
        with_notes = render_sequence_diagram(self.events(), ["a", "b"],
                                             include_notes=True)
        without = render_sequence_diagram(self.events(), ["a", "b"],
                                          include_notes=False)
        assert "(decides commit)" in with_notes
        assert "(decides commit)" not in without

    def test_data_toggle(self):
        hidden = render_sequence_diagram(self.events(), ["a", "b"])
        shown = render_sequence_diagram(self.events(), ["a", "b"],
                                        include_data=True)
        assert hidden.count("data") == 0
        assert shown.count("data") == 1

    def test_unknown_nodes_skipped(self):
        events = [TraceEvent(1.0, "flow", "ghost", "prepare", dst="a",
                             txn_id="t")]
        out = render_sequence_diagram(events, ["a", "b"])
        assert "prepare" not in out

    def test_detached_rm_owner_renders_in_node_column(self):
        events = [TraceEvent(1.0, "log", "a/db", "lrm-prepared",
                             forced=False, txn_id="t")]
        out = render_sequence_diagram(events, ["a", "b"])
        assert "lrm-prepared" in out

    def test_title_rendering(self):
        out = render_sequence_diagram([], ["a"], title="My Figure")
        assert out.startswith("My Figure")


def test_tracer_covers_detached_rm_logs():
    config = PRESUMED_ABORT.with_options(shared_log=False)
    cluster = Cluster(config, nodes=["host"])
    cluster.node("host").add_detached_rm("db", own_log=True)
    tracer = Tracer().attach(cluster)
    from repro.core.spec import flat_tree
    from repro.lrm.operations import write_op
    spec = flat_tree("host", [])
    spec.participant("host").rm_ops["db"] = [write_op("k", 1)]
    cluster.run_transaction(spec)
    assert any(e.kind == "log" and e.text.startswith("lrm-")
               for e in tracer.events)


class TestAttachDetach:
    def build(self):
        return Cluster(PRESUMED_ABORT, nodes=["a", "b"])

    def hook_count(self, cluster):
        total = len(cluster.network.on_send)
        for node in cluster.nodes.values():
            total += len(node.on_note) + len(node.log.on_write)
        return total

    def test_reattach_same_cluster_is_noop(self):
        cluster = self.build()
        tracer = Tracer().attach(cluster)
        hooks = self.hook_count(cluster)
        assert tracer.attach(cluster) is tracer
        assert self.hook_count(cluster) == hooks

    def test_attach_elsewhere_while_attached_raises(self):
        tracer = Tracer().attach(self.build())
        with pytest.raises(RuntimeError, match="detach"):
            tracer.attach(self.build())

    def test_detach_stops_recording_and_allows_reattach(self):
        cluster = self.build()
        tracer = Tracer().attach(cluster)
        assert tracer.attached
        tracer.detach()
        assert not tracer.attached
        assert self.hook_count(cluster) == 0
        cluster.run_transaction(updating_spec("a", ["b"]))
        assert tracer.events == []
        tracer.attach(cluster)  # reattach after detach is legal
        cluster.run_transaction(updating_spec("a", ["b"], txn_id="t2"))
        assert tracer.events
        tracer.detach()
        tracer.detach()  # idempotent

    def test_detach_only_removes_own_hooks(self):
        cluster = self.build()
        other_calls = []
        cluster.network.on_send.append(
            lambda message: other_calls.append(message))
        tracer = Tracer().attach(cluster)
        tracer.detach()
        assert len(cluster.network.on_send) == 1
        cluster.run_transaction(updating_spec("a", ["b"]))
        assert other_calls


# ----------------------------------------------------------------------
# SpanTracer: a fold over the journal rows
# ----------------------------------------------------------------------
def test_notes_land_on_the_phase_open_when_they_fired():
    """A note is folded at its place in the row stream: one fired right
    after a transition lands on the phase span that transition opened
    (or the txn span, for a state that opens none), although the rows
    are folded a batch at a time."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
    tracer = SpanTracer().attach(cluster)
    for node in cluster.nodes.values():
        node.on_transition.append(
            lambda name, txn, old, new, node=node:
            node.note(txn, f"entered {new.value}"))
    for index in range(40):
        cluster.run_transaction(
            updating_spec("c", ["s1", "s2"], txn_id=f"N{index}"))
    phase_of = {state.value: name for state, name in PHASE_OF_STATE.items()}
    checked = 0
    for span in tracer.finish():
        for __, text in span.events:
            node, __, state = text.partition(": entered ")
            if not state:
                continue                # the protocol's own notes
            if state in phase_of:
                assert (span.name, span.node, span.attributes["state"]) \
                    == (phase_of[state], node, state), text
            else:
                assert span.kind == "txn", text
            checked += 1
    assert checked > 40 * 10


def test_restart_rebuild_opens_no_second_root_span():
    """Restart recovery rebuilds the coordinator's parentless context:
    a tracer that saw the transaction begin keeps its one root span; a
    tracer attached after the begin opens its root at the rebuild, and
    never at a subordinate (whose context has a parent)."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
    whole = SpanTracer().attach(cluster)
    cluster.start_transaction(updating_spec("c", ["s"], txn_id="R1"))
    while cluster.node("c").ctx("R1") is None:
        cluster.simulator.step()
    late = SpanTracer().attach(cluster)
    while cluster.durable_outcome("c", "R1") != "commit":
        cluster.simulator.step()
    cluster.crash("c")
    cluster.restart("c")
    cluster.run_until(cluster.simulator.now + 500.0)
    roots = [span for span in whole.finish() if span.kind == "txn"]
    assert [(span.node, span.txn_id) for span in roots] == [("c", "R1")]
    roots = [span for span in late.finish() if span.kind == "txn"]
    assert [span.node for span in roots] == ["c"]
    assert roots[0].start > whole.spans[0].start
