"""The live transport: wire codecs, file WAL, live clock, twin oracle.

Socket-using tests carry the ``live`` marker and skip automatically on
sandboxes without loopback networking (see conftest).  Codec, storage,
clock and schedule-replay tests are pure and always run.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.cluster import Cluster
from repro.core.config import LIVE_TIMING, PRESUMED_ABORT, PRESUMED_COMMIT
from repro.core.spec import flat_tree
from repro.lrm.operations import read_op, write_op
from repro.net.message import Message, MessageType
from repro.obs.diff import diff_journals
from repro.obs.journal import JournalRecorder
from repro.transport import (FileStableStorage, LiveCluster, LiveClock,
                             WalCorruptionError, load_records,
                             run_twin_check, scan_wal, serve, twin_specs)
from repro.transport.clock import ActivityTracker
from repro.transport.twin import (_run_replay, delivery_schedule)
from repro.transport.wire import (encode_frame, message_from_wire,
                                  message_to_wire, read_frame,
                                  record_from_wire, record_to_wire,
                                  spec_from_wire, spec_to_wire)
from repro.log.records import LogRecord, LogRecordType


# ----------------------------------------------------------------------
# Wire codecs (pure)
# ----------------------------------------------------------------------
class TestWireCodecs:
    def test_spec_round_trip(self):
        spec = flat_tree("n0", ["n1", "n2"], txn_id="t9")
        spec.participants[1].ops.append(write_op("k1", 42))
        spec.participants[2].ops.append(read_op("k2"))
        spec.participants[2].veto = True
        restored = spec_from_wire(json.loads(json.dumps(spec_to_wire(spec))))
        assert restored.txn_id == "t9"
        assert [p.node for p in restored.participants] == ["n0", "n1", "n2"]
        assert restored.participants[1].ops == spec.participants[1].ops
        assert restored.participants[2].veto

    def test_message_round_trip_with_nested_spec(self):
        spec = flat_tree("n0", ["n1"], txn_id="t1")
        message = Message(msg_type=MessageType.DATA, txn_id="t1",
                          src="n0", dst="n1",
                          flags={"enroll": True},
                          payload={"spec": spec,
                                   "participant": spec.participants[1]})
        data = json.loads(json.dumps(message_to_wire(message)))
        restored = message_from_wire(data)
        assert restored.msg_type is MessageType.DATA
        assert restored.msg_id == message.msg_id
        assert restored.payload["spec"].txn_id == "t1"
        assert restored.payload["participant"].node == "n1"

    def test_message_round_trip_with_piggyback(self):
        inner = Message(msg_type=MessageType.ACK, txn_id="t1",
                        src="n1", dst="n0")
        outer = Message(msg_type=MessageType.DATA, txn_id="t2",
                        src="n1", dst="n0",
                        payload={"piggyback": [inner]})
        restored = message_from_wire(
            json.loads(json.dumps(message_to_wire(outer))))
        carried = restored.payload["piggyback"]
        assert len(carried) == 1
        assert carried[0].msg_type is MessageType.ACK
        assert carried[0].txn_id == "t1"

    def test_record_round_trip(self):
        record = LogRecord(lsn=7, txn_id="t1",
                           record_type=LogRecordType.COMMITTED,
                           node="n0", forced=True, written_at=1.25,
                           payload={"children": ["n1"]})
        restored = record_from_wire(
            json.loads(json.dumps(record_to_wire(record))))
        assert restored.lsn == 7
        assert restored.record_type is LogRecordType.COMMITTED
        assert restored.forced
        assert restored.payload == {"children": ["n1"]}

    def test_frame_round_trip(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"kind": "ping", "n": 1}))
            reader.feed_data(encode_frame({"kind": "pong"}))
            reader.feed_eof()
            first = await read_frame(reader)
            second = await read_frame(reader)
            third = await read_frame(reader)
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert first == {"kind": "ping", "n": 1}
        assert second == {"kind": "pong"}
        assert third is None  # clean EOF


# ----------------------------------------------------------------------
# File-backed stable storage (pure, tmp_path)
# ----------------------------------------------------------------------
class TestFileStableStorage:
    def make_record(self, lsn, forced=True):
        return LogRecord(lsn=lsn, txn_id="t1",
                         record_type=LogRecordType.PREPARED, node="n0",
                         forced=forced, written_at=0.0, payload={})

    def test_append_fsyncs_once_per_batch(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0.wal")
        storage.append([self.make_record(1), self.make_record(2)])
        storage.append([self.make_record(3)])
        assert storage.fsync_count == 2
        assert storage.durable_lsn == 3
        storage.close()

    def test_empty_append_is_not_an_io(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0.wal")
        storage.append([])
        assert storage.fsync_count == 0
        storage.close()

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "n0.wal"
        storage = FileStableStorage(path)
        storage.append([self.make_record(1), self.make_record(2)])
        storage.close()
        records = load_records(path)
        assert [r.lsn for r in records] == [1, 2]
        assert records[0].record_type is LogRecordType.PREPARED

    def test_out_of_order_append_rejected(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0.wal")
        storage.append([self.make_record(2)])
        with pytest.raises(ValueError):
            storage.append([self.make_record(1)])
        storage.close()

    # -- compaction ----------------------------------------------------
    def make_checkpoint(self, lsn):
        return LogRecord(lsn=lsn, txn_id="-",
                         record_type=LogRecordType.CHECKPOINT, node="n0",
                         forced=True, written_at=0.0, payload={"live": []})

    def test_compact_drops_prefix_before_last_checkpoint(self, tmp_path):
        path = tmp_path / "n0.wal"
        storage = FileStableStorage(path)
        storage.append([self.make_record(1), self.make_record(2)])
        storage.append([self.make_checkpoint(3)])
        storage.append([self.make_record(4)])
        forces = storage.fsync_count
        assert storage.compact()
        # Compaction is maintenance I/O: log-force accounting untouched.
        assert storage.fsync_count == forces
        assert storage.maintenance_fsyncs == 2
        assert [r.lsn for r in storage.records()] == [3, 4]
        assert [r.lsn for r in load_records(path)] == [3, 4]
        # Appends keep working through the rename swap.
        storage.append([self.make_record(5)])
        storage.close()
        assert [r.lsn for r in load_records(path)] == [3, 4, 5]

    def test_compact_keeps_only_the_last_checkpoint(self, tmp_path):
        path = tmp_path / "n0.wal"
        storage = FileStableStorage(path)
        storage.append([self.make_record(1)])
        storage.append([self.make_checkpoint(2)])
        storage.append([self.make_record(3)])
        storage.append([self.make_checkpoint(4)])
        assert storage.compact()
        storage.close()
        records = load_records(path)
        assert [r.lsn for r in records] == [4]
        assert records[0].record_type is LogRecordType.CHECKPOINT

    def test_compact_without_checkpoint_is_refused(self, tmp_path):
        path = tmp_path / "n0.wal"
        storage = FileStableStorage(path)
        storage.append([self.make_record(1)])
        assert not storage.compact()
        assert storage.maintenance_fsyncs == 0
        storage.close()
        assert [r.lsn for r in load_records(path)] == [1]

    def test_compact_with_empty_prefix_is_refused(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0.wal")
        storage.append([self.make_checkpoint(1)])
        storage.append([self.make_record(2)])
        assert not storage.compact()   # nothing before it to drop
        assert storage.maintenance_fsyncs == 0
        storage.close()

    # -- torn-tail recovery --------------------------------------------
    def write_three(self, path):
        storage = FileStableStorage(path)
        for lsn in (1, 2, 3):
            storage.append([self.make_record(lsn)])
        storage.close()
        return path.read_bytes()

    def test_torn_tail_recovery_at_every_byte_offset(self, tmp_path):
        data = self.write_three(tmp_path / "n0.wal")
        first, second, _third, trailer = data.split(b"\n")
        assert trailer == b""
        boundary = len(first) + len(second) + 2   # start of record 3
        torn_path = tmp_path / "torn.wal"
        # Every strict prefix of the final record (excluding the clean
        # boundary and the complete-but-newline-less form) is a torn
        # tail: recovery must drop exactly that record and truncate.
        for cut in range(boundary + 1, len(data) - 1):
            torn_path.write_bytes(data[:cut])
            recovered = FileStableStorage(torn_path, recover=True)
            assert recovered.torn_tail is not None, cut
            assert recovered.recovered_count == 2, cut
            assert [r.lsn for r in recovered.records()] == [1, 2]
            assert torn_path.read_bytes() == data[:boundary]
            # Appends resume cleanly after the dropped record.
            recovered.append([self.make_record(3)])
            recovered.close()
            assert [r.lsn for r in load_records(torn_path)] == [1, 2, 3]

    def test_truncation_at_a_record_boundary_is_clean(self, tmp_path):
        data = self.write_three(tmp_path / "n0.wal")
        first, second, _third, _trailer = data.split(b"\n")
        boundary = len(first) + len(second) + 2
        path = tmp_path / "cut.wal"
        path.write_bytes(data[:boundary])
        recovered = FileStableStorage(path, recover=True)
        assert recovered.torn_tail is None
        assert recovered.recovered_count == 2
        recovered.close()

    def test_missing_final_newline_is_repaired_not_dropped(self, tmp_path):
        data = self.write_three(tmp_path / "n0.wal")
        path = tmp_path / "cut.wal"
        path.write_bytes(data[:-1])   # record 3 complete, newline torn
        recovered = FileStableStorage(path, recover=True)
        assert recovered.torn_tail is None
        assert recovered.recovered_count == 3
        recovered.append([self.make_record(4)])
        recovered.close()
        assert [r.lsn for r in load_records(path)] == [1, 2, 3, 4]

    def test_mid_file_corruption_raises(self, tmp_path):
        data = self.write_three(tmp_path / "n0.wal")
        _first, second, _third, _trailer = data.split(b"\n")
        path = tmp_path / "bad.wal"
        path.write_bytes(b'{"garbage\n' + second + b"\n")
        with pytest.raises(WalCorruptionError):
            scan_wal(str(path))
        with pytest.raises(WalCorruptionError):
            FileStableStorage(path, recover=True)

    def test_scan_wal_reports_the_valid_length(self, tmp_path):
        data = self.write_three(tmp_path / "n0.wal")
        first, second, _third, _trailer = data.split(b"\n")
        boundary = len(first) + len(second) + 2
        path = tmp_path / "torn.wal"
        path.write_bytes(data[:boundary + 4])
        records, note, valid_len = scan_wal(str(path))
        assert [r.lsn for r in records] == [1, 2]
        assert note is not None and "torn final WAL line 2" in note
        assert valid_len == boundary

    def test_load_records_strict_unless_torn_tail_allowed(self, tmp_path):
        data = self.write_three(tmp_path / "n0.wal")
        path = tmp_path / "torn.wal"
        path.write_bytes(data[:-3])   # tear into record 3
        with pytest.raises(WalCorruptionError):
            load_records(path)
        assert [r.lsn for r in
                load_records(path, allow_torn_tail=True)] == [1, 2]


# ----------------------------------------------------------------------
# Live clock (pure: uses asyncio, no sockets)
# ----------------------------------------------------------------------
class TestLiveClock:
    def test_schedule_order_and_activity(self):
        async def scenario():
            tracker = ActivityTracker()
            clock = LiveClock(seed=3, activity=tracker)
            order = []
            clock.schedule(0.02, lambda: order.append("late"))
            clock.schedule(0.0, lambda: order.append("soon"))
            assert tracker.count == 2
            await tracker.wait_idle()
            return order, tracker.count

        order, remaining = asyncio.run(scenario())
        assert order == ["soon", "late"]
        assert remaining == 0

    def test_zero_delay_work_runs_before_a_frame_read_after_it(self):
        """Zero-delay work is on the ready queue: FIFO among itself,
        ahead of an I/O callback for data that arrives after it was
        armed (the timer heap ran such callbacks first)."""
        import socket

        async def scenario():
            loop = asyncio.get_running_loop()
            clock = LiveClock()
            order = []
            left, right = socket.socketpair()
            left.setblocking(False)
            loop.add_reader(left, lambda: (order.append("frame"),
                                           loop.remove_reader(left)))
            right.send(b"x")              # readable at the next poll
            clock.call_soon(lambda: (order.append("a"),
                                     clock.schedule(0.0, lambda: order
                                                    .append("a2"))))
            clock.schedule(0.0, lambda: order.append("b"))
            cancelled = clock.call_soon(lambda: order.append("never"))
            cancelled.cancel()
            await clock.activity.wait_idle()
            await asyncio.sleep(0.01)
            left.close()
            right.close()
            return order, clock.activity.count

        order, remaining = asyncio.run(scenario())
        assert order[:2] == ["a", "b"]
        assert order.index("frame") > 1
        assert order.index("a2") > order.index("b")
        assert "never" not in order and remaining == 0

    def test_timers_are_not_tracked_and_cancel(self):
        async def scenario():
            tracker = ActivityTracker()
            clock = LiveClock(activity=tracker)
            fired = []
            timer = clock.timer(30.0, lambda: fired.append(True))
            assert tracker.count == 0  # armed timers never block idle
            assert timer.active
            assert timer.cancel()
            assert not timer.active and not timer.fired
            return fired

        assert asyncio.run(scenario()) == []

    def test_cancelled_callback_releases_activity(self):
        async def scenario():
            tracker = ActivityTracker()
            clock = LiveClock(activity=tracker)
            call = clock.schedule(5.0, lambda: None)
            assert tracker.count == 1
            call.cancel()
            return tracker.count

        assert asyncio.run(scenario()) == 0

    def test_negative_delay_rejected(self):
        async def scenario():
            clock = LiveClock()
            with pytest.raises(ValueError):
                clock.schedule(-0.1, lambda: None)

        asyncio.run(scenario())

    def test_named_streams_are_deterministic(self):
        async def scenario():
            a, b = LiveClock(seed=5), LiveClock(seed=5)
            return (a.stream("x").randint(0, 10 ** 9),
                    b.stream("x").randint(0, 10 ** 9))

        first, second = asyncio.run(scenario())
        assert first == second


class TestLiveTiming:
    def test_profile_fills_stock_durations_and_keeps_set_ones(self):
        assert PRESUMED_ABORT.live_timing() == \
            PRESUMED_ABORT.with_options(**LIVE_TIMING)
        config = PRESUMED_ABORT.with_options(io_latency=0.05,
                                             ack_timeout=2.0)
        live = config.live_timing()
        assert live.io_latency == 0.05
        assert live.retry_interval == LIVE_TIMING["retry_interval"]
        assert (live.ack_timeout, live.vote_timeout) == (2.0, None)
        assert live.live_timing() == live

    def test_live_cluster_runs_on_the_profile(self):
        async def scenario():
            return LiveCluster(PRESUMED_COMMIT, nodes=["a"]).config

        assert asyncio.run(scenario()) == \
            PRESUMED_COMMIT.with_options(**LIVE_TIMING)


# ----------------------------------------------------------------------
# Schedule replay (pure: sim vs sim)
# ----------------------------------------------------------------------
class TestScheduledReplay:
    def test_replay_of_sim_schedule_is_equivalent(self):
        """A plain sim run's delivery schedule, replayed through the
        ScheduledNetwork, reproduces a causally equivalent journal with
        identical cost triples — the sim half of the twin oracle."""
        nodes = ["n0", "n1", "n2"]
        cluster = Cluster(PRESUMED_COMMIT, nodes=nodes, seed=11)
        recorder = JournalRecorder().attach(cluster)
        costs = {}
        for spec in twin_specs(11, 4, nodes):
            cluster.run_transaction(spec)
            summary = cluster.metrics.cost_summary(spec.txn_id)
            costs[spec.txn_id] = (summary.flows, summary.log_writes,
                                  summary.forced_writes)
        recorder.detach()
        reference = recorder.entries()

        replay = _run_replay(PRESUMED_COMMIT, 11, 4, nodes,
                             delivery_schedule(reference))
        assert replay.unmatched == []
        assert diff_journals(reference, replay.entries,
                             ignore_time=True) is None
        assert replay.costs == costs


# ----------------------------------------------------------------------
# Live socket tests
# ----------------------------------------------------------------------
@pytest.mark.live
class TestLiveCluster:
    def test_live_commit_over_tcp(self, tmp_path):
        async def scenario():
            cluster = LiveCluster(PRESUMED_ABORT, nodes=["a", "b", "c"],
                                  log_dir=str(tmp_path))
            await cluster.start()
            spec = flat_tree("a", ["b", "c"], txn_id="t0")
            for participant in spec.participants:
                participant.ops.append(
                    write_op(f"k-{participant.node}", 7))
            try:
                handle = await cluster.run_transaction(spec)
            finally:
                await cluster.stop()
            outcomes = {n: cluster.recorded_outcome(n, "t0")
                        for n in cluster.nodes}
            values = {n: cluster.nodes[n].resource_manager().store.get(
                f"k-{n}") for n in cluster.nodes}
            return handle, outcomes, values, cluster.fsync_counts()

        handle, outcomes, values, fsyncs = asyncio.run(scenario())
        assert handle.outcome == "commit"
        assert outcomes == {"a": "commit", "b": "commit", "c": "commit"}
        assert values == {"a": 7, "b": 7, "c": 7}
        # The coordinator forced at least its commit record for real.
        assert fsyncs["a"] >= 1

    def test_wal_survives_on_disk(self, tmp_path):
        async def scenario():
            cluster = LiveCluster(PRESUMED_ABORT, nodes=["a", "b"],
                                  log_dir=str(tmp_path))
            await cluster.start()
            spec = flat_tree("a", ["b"], txn_id="t0")
            spec.participants[1].ops.append(write_op("k", 1))
            try:
                await cluster.run_transaction(spec)
            finally:
                await cluster.stop()

        asyncio.run(scenario())
        records = load_records(tmp_path / "b.wal")
        assert any(r.record_type is LogRecordType.PREPARED
                   for r in records)


@pytest.mark.live
class TestTwinOracle:
    def test_twin_clean_for_presumed_abort(self, tmp_path):
        report = run_twin_check("presumed_abort", seed=11, txns=3,
                                log_dir=str(tmp_path))
        assert report.clean, report.describe()
        assert report.live_entries == report.sim_entries > 0
        # The artifacts the CLI diff workflow uses were written.
        assert (tmp_path / "presumed_abort-live.jsonl").exists()
        assert (tmp_path / "presumed_abort-sim.jsonl").exists()

    def test_twin_clean_for_basic(self):
        report = run_twin_check("basic", seed=7, txns=2)
        assert report.clean, report.describe()


@pytest.mark.live
class TestServe:
    def test_begin_frame_runs_a_transaction(self):
        async def scenario():
            addresses = {}
            up = asyncio.Event()

            def ready(cluster, addrs):
                addresses.update(addrs)
                up.set()

            server = asyncio.ensure_future(
                serve(PRESUMED_ABORT, ["n0", "n1"], ready=ready))
            await asyncio.wait_for(up.wait(), 10)
            host, port = addresses["n0"]
            reader, writer = await asyncio.open_connection(host, port)
            spec = flat_tree("n0", ["n1"], txn_id="cli-1")
            spec.participants[1].ops.append(write_op("k", 5))
            writer.write(encode_frame({"kind": "ping"}))
            writer.write(encode_frame({"kind": "begin",
                                       "spec": spec_to_wire(spec)}))
            pong = await asyncio.wait_for(read_frame(reader), 10)
            outcome = await asyncio.wait_for(read_frame(reader), 10)
            writer.close()
            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
            return pong, outcome

        pong, outcome = asyncio.run(scenario())
        assert pong["kind"] == "pong"
        assert outcome == {"kind": "outcome", "txn": "cli-1",
                           "outcome": "commit", "outcome_pending": False}
