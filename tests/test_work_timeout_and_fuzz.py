"""The application work timeout and the fuzzing harness."""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT
from repro.core.context import CommitContext
from repro.fuzz import FuzzReport, fuzz
from repro.sim.kernel import Simulator

from tests.heap_queue import HeapEventQueue
from tests.conftest import assert_atomic, updating_spec


class TestWorkTimeout:
    def config(self):
        return PRESUMED_ABORT.with_options(work_timeout=20.0)

    def test_lost_enrollment_abandons_transaction(self):
        cluster = Cluster(self.config(), nodes=["c", "s"])
        cluster.partition("c", "s")          # enrollment never arrives
        spec = updating_spec("c", ["s"])
        handle = cluster.start_transaction(spec)
        cluster.run_until(100.0)
        assert handle.aborted
        assert cluster.value("c", "key-c") is None

    def test_lost_work_done_abandons_and_tells_children(self):
        cluster = Cluster(self.config(), nodes=["c", "s"])
        # Enrollment gets through; the work-done report is lost.
        cluster.partition_at("c", "s", 1.5)
        cluster.heal_at("c", "s", 10.0)
        spec = updating_spec("c", ["s"])
        handle = cluster.start_transaction(spec)
        cluster.run_until(200.0)
        assert handle.aborted
        # The child heard about the abandonment and rolled back.
        assert cluster.value("s", "key-s") is None
        cluster.node("s").default_rm.locks.assert_released(spec.txn_id)
        assert_atomic(cluster, spec)

    def test_no_effect_on_healthy_runs(self):
        cluster = Cluster(self.config(), nodes=["c", "s"])
        spec = updating_spec("c", ["s"])
        handle = cluster.run_transaction(spec)
        assert handle.committed

    def test_no_effect_once_commit_started(self):
        """A slow *commit* is the 2PC timers' business, not the work
        timeout's."""
        config = self.config().with_options(ack_timeout=50.0,
                                            retry_interval=50.0)
        cluster = Cluster(config, nodes=["c", "s"])
        spec = updating_spec("c", ["s"])
        cluster.partition_at("c", "s", 4.5)   # commit in flight lost
        cluster.heal_at("c", "s", 120.0)
        handle = cluster.start_transaction(spec)
        cluster.run_until(30.0)               # past the work timeout
        assert not handle.done                # still committing, not aborted
        cluster.run_until(500.0)
        assert handle.committed

    def test_settled_transactions_leave_no_timer_behind(self, monkeypatch):
        """Both work timers (the root's and each participant's) go with
        the context: after sequential transactions settle, well inside
        the timeout, no pending event still holds an evicted context."""
        monkeypatch.setattr(Simulator, "default_queue_class",
                            HeapEventQueue)
        config = PRESUMED_ABORT.with_options(work_timeout=1000.0)
        cluster = Cluster(config, nodes=["c", "s1", "s2"])
        for index in range(6):
            handle = cluster.start_transaction(
                updating_spec("c", ["s1", "s2"], txn_id=f"wt{index}"))
            cluster.run_until(cluster.simulator.now + 50.0)
            assert handle.committed
        live = {id(context) for node in cluster.nodes.values()
                for context in node.contexts.values()}
        held = [entry[-1].name for entry in cluster.simulator._queue._heap
                if not entry[-1].cancelled
                and any(isinstance(cell.cell_contents, CommitContext)
                        and id(cell.cell_contents) not in live
                        for cell in entry[-1].action.__closure__ or ())]
        assert held == []


class TestFuzz:
    def test_fuzz_clean_and_deterministic(self):
        first = fuzz(runs=10, seed=42)
        second = fuzz(runs=10, seed=42)
        assert first.clean
        assert first.runs == 10
        assert first.unresolved == 0
        assert (first.committed, first.aborted) == \
            (second.committed, second.aborted)

    def test_fuzz_injects_faults(self):
        report = fuzz(runs=20, seed=7, fault_rate=1.0)
        assert report.crashes_injected + report.partitions_injected > 0
        assert report.clean

    def test_fuzz_validates_args(self):
        with pytest.raises(ValueError):
            fuzz(runs=0)

    def test_report_describe(self):
        report = FuzzReport(runs=3, committed=2, aborted=1)
        assert "3 randomized runs" in report.describe()
        assert "no protocol violations" in report.describe()
        from repro.verify import Violation
        report.violations.append(Violation("R1", "t", "bad"))
        assert "VIOLATIONS" in report.describe()
        assert not report.clean


class TestCliIntegration:
    def test_fuzz_command(self, capsys):
        from repro.cli import main
        code = main(["fuzz", "--runs", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no protocol violations" in out

    def test_report_command(self, capsys):
        from repro.cli import main
        code = main(["report"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 2" in out and "Figure 8" in out
        assert "MISMATCH" not in out
