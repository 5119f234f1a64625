"""The live wire: frame splitting, the positional message codec, and
what a node listener does with frames it cannot use.

Splitter and codec tests are pure.  The listener tests drive real
sockets and carry the ``live`` marker (skipped without loopback TCP).
"""

from __future__ import annotations

import asyncio
import json
import struct

import pytest

from repro.core.config import PRESUMED_ABORT
from repro.core.spec import ParticipantSpec, TransactionSpec, flat_tree
from repro.lrm.operations import read_op, write_op
from repro.net.message import Message, MessageType, Phase
from repro.transport import LiveCluster
from repro.transport.wire import (MAX_FRAME, FrameError, FrameSplitter,
                                  encode_frame, frame_kind,
                                  message_from_wire, message_to_wire,
                                  read_frame, spec_from_wire, spec_to_array,
                                  spec_to_wire)

FRAMES = [{"kind": "ping", "n": 1},
          ["vote-yes", "t1", "n1", "n0", "commit", {}, {}, 7],
          {"kind": "begin", "spec": {"txn_id": "é-ü", "participants": []}},
          [],
          {}]


def stream_of(frames) -> bytes:
    return b"".join(encode_frame(frame) for frame in frames)


def wire_round_trip(value):
    """What the far end decodes: JSON text and back."""
    return json.loads(json.dumps(value))


# ----------------------------------------------------------------------
# Splitting
# ----------------------------------------------------------------------
class TestFrameSplitter:
    def test_split_at_every_byte_boundary(self):
        data = stream_of(FRAMES)
        for cut in range(len(data) + 1):
            splitter = FrameSplitter()
            got = splitter.feed(data[:cut]) + splitter.feed(data[cut:])
            assert got == FRAMES, cut

    def test_one_byte_per_read(self):
        splitter = FrameSplitter()
        got = []
        for byte in stream_of(FRAMES):
            got += splitter.feed(bytes([byte]))
        assert got == FRAMES

    def test_coalesced_frames_come_out_of_one_read_in_order(self):
        splitter = FrameSplitter()
        data = stream_of(FRAMES)
        # A partial frame rides along at the end and waits.
        assert splitter.feed(data + data[:6]) == FRAMES
        assert splitter.feed(data[6:]) == FRAMES

    def test_frame_kind(self):
        assert [frame_kind(frame) for frame in FRAMES] == \
            ["ping", "msg", "begin", "msg", None]

    @pytest.mark.parametrize("bad", [
        struct.pack(">I", MAX_FRAME + 1),
        struct.pack(">I", 3) + b"{x}",
        struct.pack(">I", 2) + b"42",
        struct.pack(">I", 4) + b"null",
        struct.pack(">I", 2) + b"\xff\xfe",
    ], ids=["oversized", "not-json", "number", "null", "not-utf8"])
    def test_unusable_frames_raise_after_the_good_ones(self, bad):
        splitter = FrameSplitter()
        with pytest.raises(FrameError):
            splitter.feed(stream_of(FRAMES[:2]) + bad + stream_of(FRAMES))
        assert splitter.ready == FRAMES[:2]
        # The stream is dropped: a fresh frame starts clean.
        assert splitter.feed(stream_of(FRAMES)) == FRAMES


# ----------------------------------------------------------------------
# The positional codec
# ----------------------------------------------------------------------
def full_spec() -> TransactionSpec:
    spec = TransactionSpec(participants=[
        ParticipantSpec("n0", ops=[write_op("a", {"nested": [1, 2]})],
                        rm_ops={"db2": [read_op("r"), write_op("w", None)]}),
        ParticipantSpec("n1", parent="n0", ops=[read_op("b")],
                        last_agent=True, unsolicited_vote=True,
                        ok_to_leave_out=True, long_locks=True, veto=True),
        ParticipantSpec("n2", parent="n1"),
    ], txn_id="t-full", await_work_done=False, long_locks=True)
    return spec


def same_spec(left: TransactionSpec, right: TransactionSpec) -> bool:
    return (left.txn_id, left.await_work_done, left.long_locks,
            left.participants) == (right.txn_id, right.await_work_done,
                                   right.long_locks, right.participants)


class TestPositionalCodec:
    @pytest.mark.parametrize("encode", [spec_to_wire, spec_to_array],
                             ids=["keyed", "positional"])
    def test_spec_round_trip(self, encode):
        spec = full_spec()
        assert same_spec(spec_from_wire(wire_round_trip(encode(spec))), spec)

    def test_old_keyed_spec_with_dict_ops_decodes(self):
        spec = full_spec()
        old = wire_round_trip(spec_to_wire(spec))
        for part in old["participants"]:
            part["ops"] = [{"kind": kind, "key": key, "value": value}
                           for kind, key, value in part["ops"]]
            part["rm_ops"] = {rm: [{"kind": kind, "key": key}
                                   for kind, key, _ in ops]
                              for rm, ops in part["rm_ops"].items()}
        decoded = spec_from_wire(old)
        assert decoded.participants[0].ops == spec.participants[0].ops
        assert [op.key for op in decoded.participants[0].rm_ops["db2"]] \
            == ["r", "w"]

    def test_enrollment_names_its_participant_by_index(self):
        spec = full_spec()
        message = Message(MessageType.DATA, "t-full", "n0", "n1",
                          flags={"enroll": True},
                          payload={"spec": spec,
                                   "participant": spec.participants[1],
                                   "session_seq": 3})
        data = wire_round_trip(message_to_wire(message))
        assert data[6]["participant"] == 1
        restored = message_from_wire(data)
        assert same_spec(restored.payload["spec"], spec)
        assert restored.payload["participant"] is \
            restored.payload["spec"].participants[1]
        assert restored.payload["session_seq"] == 3

    def test_participant_outside_a_spec_travels_whole(self):
        part = full_spec().participants[1]
        message = Message(MessageType.DATA, "t", "n0", "n1",
                          payload={"participant": part})
        restored = message_from_wire(wire_round_trip(
            message_to_wire(message)))
        assert restored.payload["participant"] == part

    def test_nested_piggyback_round_trip(self):
        inner = Message(MessageType.ACK, "t1", "n1", "n0",
                        payload={"reports": [], "outcome_pending": False})
        middle = Message(MessageType.DATA, "t2", "n1", "n0",
                         flags={"long_locks": True},
                         payload={"piggyback": [inner]})
        outer = Message(MessageType.PREPARE, "t3", "n1", "n0",
                        payload={"piggyback": [middle]})
        restored = message_from_wire(wire_round_trip(message_to_wire(outer)))
        (carried,) = restored.payload["piggyback"]
        (innermost,) = carried.payload["piggyback"]
        assert carried.flags == {"long_locks": True}
        for got, want in ((restored, outer), (carried, middle),
                          (innermost, inner)):
            assert (got.msg_type, got.txn_id, got.src, got.dst, got.phase,
                    got.msg_id) == (want.msg_type, want.txn_id, want.src,
                                    want.dst, want.phase, want.msg_id)
        assert innermost.payload == inner.payload

    def test_empty_flags_and_payload(self):
        message = Message(MessageType.COMMIT, "t", "a", "b",
                          phase=Phase.RECOVERY)
        data = wire_round_trip(message_to_wire(message))
        assert data == ["commit", "t", "a", "b", "recovery", {}, {},
                        message.msg_id]
        restored = message_from_wire(data)
        assert restored.flags == {} and restored.payload == {}
        assert restored.phase is Phase.RECOVERY

    def test_decoded_transaction_ids_are_shared(self):
        first = message_from_wire(wire_round_trip(message_to_wire(
            Message(MessageType.ACK, "t-shared", "a", "b"))))
        second = message_from_wire(wire_round_trip(message_to_wire(
            Message(MessageType.ACK, "t-shared", "b", "a"))))
        assert first.txn_id is second.txn_id


# ----------------------------------------------------------------------
# Node listeners: old clients and hostile peers
# ----------------------------------------------------------------------
async def ping(address) -> dict:
    reader, writer = await asyncio.open_connection(*address)
    writer.write(encode_frame({"kind": "ping"}))
    reply = await asyncio.wait_for(read_frame(reader), 5)
    writer.close()
    return reply


@pytest.mark.live
class TestListener:
    def test_old_format_begin_frame_still_runs(self):
        async def scenario():
            cluster = LiveCluster(PRESUMED_ABORT, nodes=["n0", "n1"])
            addresses = await cluster.start()
            try:
                spec = flat_tree("n0", ["n1"], txn_id="old-1")
                spec.participants[1].ops.append(write_op("k", 5))
                frame = wire_round_trip(spec_to_wire(spec))
                for part in frame["participants"]:
                    part["ops"] = [{"kind": kind, "key": key,
                                    "value": value}
                                   for kind, key, value in part["ops"]]
                reader, writer = await asyncio.open_connection(
                    *addresses["n0"])
                writer.write(encode_frame({"kind": "begin",
                                           "spec": frame}))
                reply = await asyncio.wait_for(read_frame(reader), 10)
                writer.close()
                await cluster.wait_quiescent(timeout=10)
                stored = cluster.nodes["n1"].resource_manager().store.get("k")
                return reply, stored
            finally:
                await cluster.stop()

        reply, stored = asyncio.run(scenario())
        assert reply == {"kind": "outcome", "txn": "old-1",
                         "outcome": "commit", "outcome_pending": False}
        assert stored == 5

    @pytest.mark.parametrize("bad", [
        struct.pack(">I", MAX_FRAME + 1),
        struct.pack(">I", 5) + b"{nope",
        encode_frame(42),
        encode_frame(["vote-yes", "t1"]),
        encode_frame({"kind": "begin", "spec": {"txn_id": "x"}}),
    ], ids=["oversized", "not-json", "not-an-object", "short-message",
            "spec-without-participants"])
    def test_hostile_frame_closes_only_its_connection(self, bad):
        async def scenario():
            cluster = LiveCluster(PRESUMED_ABORT, nodes=["n0", "n1"])
            addresses = await cluster.start()
            try:
                bystander_reader, bystander = await asyncio.open_connection(
                    *addresses["n0"])
                reader, writer = await asyncio.open_connection(
                    *addresses["n0"])
                # A good frame first: it is served before the bad one.
                writer.write(encode_frame({"kind": "ping"}) + bad)
                first = await asyncio.wait_for(read_frame(reader), 5)
                closed = await asyncio.wait_for(reader.read(), 5)
                bystander.write(encode_frame({"kind": "ping"}))
                still = await asyncio.wait_for(
                    read_frame(bystander_reader), 5)
                bystander.close()
                fresh = await ping(addresses["n0"])
                # The mesh still commits.
                spec = flat_tree("n0", ["n1"], txn_id="after")
                handle = await cluster.run_transaction(spec)
                return (first, closed, still, fresh, handle.outcome,
                        cluster.transport.frames_rejected)
            finally:
                await cluster.stop()

        first, closed, still, fresh, outcome, rejected = \
            asyncio.run(scenario())
        assert first == {"kind": "pong", "node": "n0"}
        assert closed == b""                      # EOF: closed by the server
        assert still == fresh == {"kind": "pong", "node": "n0"}
        assert outcome == "commit"
        assert rejected == 1

    def test_half_open_peer_does_not_hold_the_node(self):
        async def scenario():
            cluster = LiveCluster(PRESUMED_ABORT, nodes=["n0", "n1"])
            addresses = await cluster.start()
            stopped = False
            try:
                _reader, silent = await asyncio.open_connection(
                    *addresses["n0"])
                silent.write(b"\x00\x00")         # half a length prefix
                await asyncio.sleep(0.05)
                replies = [await ping(addresses["n0"]) for _ in range(3)]
                handle = await cluster.run_transaction(
                    flat_tree("n0", ["n1"], txn_id="beside-half-open"))
                # Teardown closes the silent connection; it must not hang.
                await asyncio.wait_for(cluster.stop(), 5)
                stopped = True
                return replies, handle.outcome, \
                    cluster.transport.frames_rejected
            finally:
                if not stopped:
                    await cluster.stop()

        replies, outcome, rejected = asyncio.run(scenario())
        assert replies == [{"kind": "pong", "node": "n0"}] * 3
        assert outcome == "commit"
        assert rejected == 0
