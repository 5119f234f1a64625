"""Crash-restart survival: backoff, supervised links, WAL reboot.

Pure tests cover :class:`BackoffPolicy` determinism, socket-error
classification and the watchdog's external-finding seam.  ``live``
tests exercise real sockets: sever/heal FIFO delivery, reconnecting
through a peer outage, backoff give-up, ``LiveCluster.crash`` +
WAL ``restart``, single live torture replays at recorded force sites
(and one whose restart skips ``node.restart()``, which the verdict
must fail),
the force sites a twin check's two sides record, periodic checkpoint
compaction under ``serve``, and the recovery observability surfaces.
"""

from __future__ import annotations

import asyncio
import errno

import pytest

from repro.core.config import PRESUMED_ABORT
from repro.core.spec import flat_tree
from repro.errors import ConfigurationError
from repro.log.records import LogRecordType
from repro.lrm.operations import write_op
from repro.obs.registry import MetricsRegistry
from repro.obs.watchdog import Watchdog, WatchdogFinding
from repro.sim.randomness import RandomStream
from repro.torture.sites import SiteRecorder
from repro.transport import (BackoffPolicy, LiveCluster, TcpTransport,
                             classify_socket_error, load_records,
                             restart_node, run_twin_check, serve)
from repro.transport.torture import record_live_sites, run_live_site


# ----------------------------------------------------------------------
# Backoff policy (pure)
# ----------------------------------------------------------------------
class TestBackoffPolicy:
    def test_raw_delay_grows_exponentially_to_the_cap(self):
        policy = BackoffPolicy(base=0.05, factor=2.0, cap=0.4, jitter=0.0)
        assert policy.raw_delay(0) == pytest.approx(0.05)
        assert policy.raw_delay(1) == pytest.approx(0.1)
        assert policy.raw_delay(2) == pytest.approx(0.2)
        assert policy.raw_delay(3) == pytest.approx(0.4)
        assert policy.raw_delay(50) == pytest.approx(0.4)

    def test_schedule_is_deterministic_per_seed(self):
        policy = BackoffPolicy()
        first = policy.schedule(RandomStream(9), 8)
        second = policy.schedule(RandomStream(9), 8)
        other = policy.schedule(RandomStream(10), 8)
        assert first == second
        assert first != other

    def test_jitter_stays_within_the_band(self):
        policy = BackoffPolicy(base=0.05, factor=2.0, cap=2.0, jitter=0.5)
        rng = RandomStream(4)
        for attempt in range(12):
            raw = policy.raw_delay(attempt)
            delay = policy.delay(attempt, rng)
            assert raw * 0.5 <= delay <= raw * 1.5

    def test_zero_jitter_is_exact(self):
        policy = BackoffPolicy(base=0.05, jitter=0.0)
        rng = RandomStream(1)
        assert policy.delay(0, rng) == policy.raw_delay(0)
        assert policy.delay(5, rng) == policy.raw_delay(5)

    def test_exhaustion_is_bounded_by_max_attempts(self):
        policy = BackoffPolicy(max_attempts=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)
        assert not BackoffPolicy().exhausted(10 ** 6)

    def test_bad_shapes_are_rejected(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(base=0.05, cap=0.01)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.0)


# ----------------------------------------------------------------------
# Socket-error classification (pure)
# ----------------------------------------------------------------------
class TestSocketErrorClassification:
    def test_known_errno_is_named_and_explained(self):
        message = classify_socket_error(
            OSError(errno.EPERM, "operation not permitted"))
        assert message.startswith("EPERM:")
        assert "forbidden" in message

    def test_unknown_errno_falls_back_to_the_message(self):
        message = classify_socket_error(OSError(errno.EPIPE, "broken pipe"))
        assert message.startswith("EPIPE:")

    def test_errno_less_error_uses_the_type_name(self):
        message = classify_socket_error(OSError("no errno at all"))
        assert message.startswith("OSError:")
        assert "no errno at all" in message


# ----------------------------------------------------------------------
# Watchdog external findings (pure)
# ----------------------------------------------------------------------
class TestWatchdogExternalFindings:
    def test_external_finding_merges_into_scan(self):
        watchdog = Watchdog()
        finding = WatchdogFinding("link_down", None, "a", 1.5,
                                  "link a->b gave up reconnecting "
                                  "after 4 attempts", 4.0)
        watchdog.record_external(finding)
        assert finding in watchdog.scan([])

    def test_unknown_detector_is_rejected(self):
        watchdog = Watchdog()
        with pytest.raises(ValueError):
            watchdog.record_external(
                WatchdogFinding("made_up", None, "a", 0.0, "nope"))


# ----------------------------------------------------------------------
# Supervised links over real sockets
# ----------------------------------------------------------------------
async def _wait_for(predicate, timeout=8.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.01)


async def _mesh(backoff=None):
    transport = TcpTransport(backoff=backoff, seed=3)
    received = []
    transport.on_frame = \
        lambda node, obj, writer: received.append((node, obj))
    await transport.listen("a")
    await transport.listen("b")
    await transport.connect_mesh(["a", "b"])
    return transport, received


@pytest.mark.live
class TestLinkSupervision:
    def test_sever_queues_then_heal_delivers_fifo(self):
        async def scenario():
            transport, received = await _mesh()
            try:
                transport.send("a", "b", {"kind": "msg", "n": 0})
                await _wait_for(lambda: len(received) == 1)
                transport.sever("a", "b")
                assert transport.link_state("a", "b") == "severed"
                for n in (1, 2, 3):
                    transport.send("a", "b", {"kind": "msg", "n": n})
                await asyncio.sleep(0.05)
                assert transport.queued_frames("a", "b") == 3
                assert len(received) == 1   # nothing leaked past the cut
                transport.heal("a", "b")
                await _wait_for(lambda: len(received) == 4)
            finally:
                await transport.close()
            return [obj["n"] for node, obj in received if node == "b"]

        assert asyncio.run(scenario()) == [0, 1, 2, 3]

    def test_reconnect_rides_out_a_peer_outage(self):
        async def scenario():
            backoff = BackoffPolicy(base=0.02, factor=1.5, cap=0.1,
                                    jitter=0.0)
            transport, received = await _mesh(backoff)
            downs, ups = [], []
            transport.on_link_down = \
                lambda src, dst: downs.append((src, dst))
            transport.on_link_up = \
                lambda src, dst, attempts: ups.append((src, dst, attempts))
            try:
                await transport.close_node("b")
                await _wait_for(lambda: ("a", "b") in downs)
                for n in range(3):
                    transport.send("a", "b", {"kind": "msg", "n": n})
                assert transport.queued_frames("a", "b") == 3
                await transport.reopen_node("b")
                await _wait_for(lambda: len(received) == 3)
                assert transport.link_state("a", "b") == "up"
            finally:
                await transport.close()
            return ([obj["n"] for node, obj in received if node == "b"],
                    [up for up in ups if up[:2] == ("a", "b")])

        order, ups = asyncio.run(scenario())
        assert order == [0, 1, 2]   # queue drained in FIFO order
        assert ups and ups[-1][2] >= 1   # the backoff loop reconnected

    def test_backoff_budget_exhaustion_reports_give_up(self):
        async def scenario():
            backoff = BackoffPolicy(base=0.01, factor=1.5, cap=0.03,
                                    jitter=0.0, max_attempts=3)
            transport, received = await _mesh(backoff)
            gave_up = []
            transport.on_give_up = \
                lambda src, dst, attempts: gave_up.append(
                    (src, dst, attempts))
            try:
                await transport.close_node("b")
                await _wait_for(lambda: gave_up)
                state = transport.link_state("a", "b")
                # heal() restores service once the peer is really back.
                await transport.reopen_node("b")
                transport.send("a", "b", {"kind": "msg", "n": 7})
                transport.heal("a", "b")
                await _wait_for(
                    lambda: any(node == "b" for node, _ in received))
            finally:
                await transport.close()
            return gave_up, state

        gave_up, state = asyncio.run(scenario())
        assert gave_up == [("a", "b", 3)]
        assert state == "gave-up"


# ----------------------------------------------------------------------
# Kill + WAL restart
# ----------------------------------------------------------------------
def recorded_site(node, label):
    """The first force site of the live PA workload (seed 17) that
    logs ``label`` on ``node``; ``n0`` roots every transaction."""
    sites, violations, __ = record_live_sites("PA")
    assert not violations
    return next(site for site in sites
                if site.node == node and site.label == label)


@pytest.mark.live
class TestKillRestart:
    def test_restart_requires_a_kill(self, tmp_path):
        async def scenario():
            cluster = LiveCluster(PRESUMED_ABORT, nodes=["a", "b"],
                                  log_dir=str(tmp_path))
            await cluster.start()
            try:
                with pytest.raises(ConfigurationError):
                    await restart_node(cluster, "a")
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_kill_and_wal_restart_recovers_state_and_metrics(
            self, tmp_path):
        async def scenario():
            cluster = LiveCluster(PRESUMED_ABORT, nodes=["a", "b"],
                                  log_dir=str(tmp_path))
            registry = MetricsRegistry().attach(cluster)
            await cluster.start()
            try:
                spec = flat_tree("a", ["b"], txn_id="t0")
                spec.participants[1].ops.append(write_op("k", 3))
                await cluster.run_transaction(spec)
                cluster.crash("b")
                assert not cluster.nodes["b"].alive
                info = await cluster.restart("b")
                await cluster.wait_quiescent(timeout=5.0)
            finally:
                await cluster.stop()
            return (info, cluster.nodes["b"].alive,
                    cluster.recorded_outcome("b", "t0"),
                    list(cluster.metrics.recoveries),
                    registry.prometheus_text())

        info, alive, outcome, recoveries, text = asyncio.run(scenario())
        assert alive
        assert outcome == "commit"   # the WAL replay rebuilt the outcome
        assert info.node == "b"
        assert info.torn_tail is None
        assert info.records_replayed >= 2   # PREPARED + COMMITTED
        assert info.seconds > 0
        assert [r.records_replayed for r in recoveries] == \
            [info.records_replayed]
        assert "repro_recovery_seconds" in text
        assert 'repro_recovery_seconds_count{node="b"} 1' in text

    def test_torture_cell_coordinator_post_decision(self):
        # One live replay: the PA root crashes once its COMMITTED record
        # is durable, before telling anyone, and reboots from its WAL.
        site = recorded_site("n0", "committed")
        clusters = []
        run = run_live_site("PA", 17, site, "post",
                            instrument=clusters.append)
        assert run.ok, run.violations
        root = clusters[0].nodes["n0"]
        assert root.alive and root.crash_count == 1
        assert [r.node for r in clusters[0].metrics.recoveries] == ["n0"]


@pytest.mark.live
class TestLiveTorture:
    def test_restart_skipping_node_restart_is_judged_not_ok(
            self, monkeypatch):
        # The victim's sockets come back but ``node.restart()`` never
        # runs: the node stays down, so the run cannot settle.
        import repro.transport.restart
        import repro.transport.torture

        async def reopen_only(cluster, name):
            await cluster.transport.reopen_node(name)

        site = recorded_site("n1", "prepared")
        monkeypatch.setattr(repro.transport.restart, "restart_node",
                            reopen_only)
        monkeypatch.setattr(repro.transport.torture, "SETTLE_TIMEOUT", 1.0)
        run = run_live_site("PA", 17, site, "post")
        assert run.verdict == "no-quiescence"
        assert "n1 still down after 1s" in run.violations

    @pytest.mark.parametrize("protocol", ["basic", "presumed_abort",
                                          "presumed_nothing",
                                          "presumed_commit"])
    def test_twin_sides_record_the_same_force_sites(self, protocol):
        recorders = []
        report = run_twin_check(
            protocol, seed=17, txns=3,
            instrument=lambda c: recorders.append(SiteRecorder().attach(c)))
        assert report.clean, report.describe()
        # A site is addressed per node, so concurrent forces on two
        # nodes may interleave differently in the two worlds.
        live, sim = (sorted((site.node, site.seq, site.label)
                            for site in recorder.sites
                            if site.kind == "force")
                     for recorder in recorders)
        assert live and live == sim


# ----------------------------------------------------------------------
# Periodic checkpointing under serve
# ----------------------------------------------------------------------
@pytest.mark.live
class TestServeCheckpointing:
    def test_periodic_checkpoint_compacts_the_wal(self, tmp_path):
        async def scenario():
            captured = {}
            up = asyncio.Event()

            def ready(cluster, addrs):
                captured["cluster"] = cluster
                up.set()

            # io_latency=0 keeps forces shorter than the checkpoint
            # period, so the cluster goes idle between ticks.
            config = PRESUMED_ABORT.with_options(io_latency=0.0)
            server = asyncio.ensure_future(
                serve(config, ["a", "b"], log_dir=str(tmp_path),
                      checkpoint_interval=0.05, ready=ready))
            await asyncio.wait_for(up.wait(), 10)
            cluster = captured["cluster"]
            spec = flat_tree("a", ["b"], txn_id="t0")
            spec.participants[1].ops.append(write_op("k", 9))
            await cluster.run_transaction(spec)
            await asyncio.sleep(0.25)   # several checkpoint ticks
            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass

        asyncio.run(scenario())
        records = load_records(tmp_path / "b.wal")
        assert records
        # Compaction ran: the WAL now starts at a checkpoint and the
        # transaction's records before it are gone.
        assert records[0].record_type is LogRecordType.CHECKPOINT
        assert all(r.record_type is not LogRecordType.PREPARED
                   for r in records)
