"""Wire codecs for the live transport: JSON frames over TCP.

Frames are 4-byte big-endian length prefixes followed by compact UTF-8
JSON — the simplest encoding that preserves per-link session ordering
over a TCP stream (the LU 6.2 FIFO contract the simulated
:class:`repro.net.network.Network` also honours).  Every frame and WAL
line is encoded by one module-level encoder (:func:`encode_json`).

Two frame shapes share a stream:

* **Control frames** (``begin`` / ``outcome`` / ``ping`` / ``hello`` /
  ``error``) are JSON objects with a ``kind`` key — the documented
  client format.
* **Node↔node protocol messages** are positional JSON arrays
  (:func:`message_to_wire`): ``[msg_type, txn_id, src, dst, phase,
  flags, payload, msg_id]``.  :func:`frame_kind` tells them apart.

Protocol payloads are JSON-safe except for three keys that carry
actual objects inside the process: ``spec`` / ``participant`` (commit
trees on enrollment DATA flows) and ``piggyback`` (nested messages on
long-locks conversations); those get explicit codecs.  An enrollment
carries its spec positionally (:func:`spec_to_array`) and names its
participant by index into that spec.  ``msg_id`` is carried verbatim so
the journal recorder pairs a send observed at the source with its
delivery at the destination.
"""

from __future__ import annotations

import asyncio
import json
import struct
from sys import intern
from typing import Any, Dict, List, Optional, Union

from repro.core.spec import ParticipantSpec, TransactionSpec
from repro.log.records import LogRecord, LogRecordType
from repro.lrm.operations import OpKind, Operation
from repro.net.message import Message, MessageType, Phase

_LEN = struct.Struct(">I")

#: Ceiling on a single frame; a length prefix beyond this is treated as
#: a corrupt stream rather than an allocation request.
MAX_FRAME = 16 * 1024 * 1024

#: The one JSON encoder for frames and WAL lines (``json.dumps`` with
#: non-default separators builds a fresh encoder per call).
encode_json = json.JSONEncoder(separators=(",", ":")).encode

_MESSAGE_TYPES = {member.value: member for member in MessageType}
_PHASES = {member.value: member for member in Phase}
_OP_KINDS = {member.value: member for member in OpKind}
_RECORD_TYPES = {member.value: member for member in LogRecordType}

#: Payload keys whose values need a codec.
_CODED_KEYS = frozenset(("spec", "participant", "piggyback"))


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(obj: Union[Dict[str, Any], List[Any]]) -> bytes:
    body = encode_json(obj).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ValueError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return _LEN.pack(len(body)) + body


def frame_kind(obj: Union[Dict[str, Any], List[Any]]) -> Optional[str]:
    """``"msg"`` for a protocol-message array, else the object's kind."""
    return "msg" if obj.__class__ is list else obj.get("kind")


class FrameError(ValueError):
    """A byte stream that is not a sequence of well-formed frames."""


class FrameSplitter:
    """Cuts a byte stream into decoded frames, however it was chunked.

    :meth:`feed` takes whatever one socket read returned and gives back
    every frame completed by it, in order; a partial frame waits for
    the next feed.  A frame is a JSON object or array; anything else —
    an oversized length prefix, a body that is not JSON, a scalar —
    raises :class:`FrameError` after the good frames before it are
    handed back in ``self.ready``.
    """

    __slots__ = ("_pending", "ready")

    def __init__(self) -> None:
        self._pending = b""
        #: Frames decoded by the last :meth:`feed` (valid after a raise).
        self.ready: List[Any] = []

    def feed(self, data: bytes) -> List[Any]:
        if self._pending:
            data = self._pending + data
        frames: List[Any] = []
        self.ready = frames
        end = len(data)
        offset = 0
        while end - offset >= 4:
            (length,) = _LEN.unpack_from(data, offset)
            if length > MAX_FRAME:
                self._pending = b""
                raise FrameError(f"frame length {length} exceeds {MAX_FRAME}")
            stop = offset + 4 + length
            if stop > end:
                break
            try:
                obj = json.loads(data[offset + 4:stop].decode("utf-8"))
            except ValueError as error:
                self._pending = b""
                raise FrameError(f"frame body is not JSON: {error}") from None
            if obj.__class__ is not dict and obj.__class__ is not list:
                self._pending = b""
                raise FrameError(f"frame is a JSON {type(obj).__name__}, "
                                 f"not an object or array")
            frames.append(obj)
            offset = stop
        self._pending = data[offset:] if offset < end else b""
        return frames


async def read_frame(reader: "asyncio.StreamReader"
                     ) -> Optional[Union[Dict[str, Any], List[Any]]]:
    """Read one frame; returns None on a clean EOF."""
    try:
        header = await reader.readexactly(_LEN.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ValueError(f"frame length {length} exceeds {MAX_FRAME}")
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return json.loads(body.decode("utf-8"))


# ----------------------------------------------------------------------
# Operations / specs
# ----------------------------------------------------------------------
# An operation travels as a ``[kind, key, value]`` triple; the keyed
# ``{"kind", "key", "value"}`` object older clients send is accepted.
def _ops_to_wire(ops: List[Operation]) -> List[List[Any]]:
    return [[op.kind._value_, op.key, op.value] for op in ops]


def _ops_from_wire(ops: List[Any]) -> List[Operation]:
    return [Operation(_OP_KINDS[op[0]], op[1], op[2])
            if op.__class__ is list else
            Operation(_OP_KINDS[op["kind"]], op["key"], op.get("value"))
            for op in ops]


def _rm_ops_to_wire(rm_ops: Dict[str, List[Operation]]
                    ) -> Dict[str, List[List[Any]]]:
    return {rm: _ops_to_wire(ops) for rm, ops in rm_ops.items()}


def _rm_ops_from_wire(rm_ops: Dict[str, List[Any]]
                      ) -> Dict[str, List[Operation]]:
    return {rm: _ops_from_wire(ops) for rm, ops in rm_ops.items()}


def participant_to_array(part: ParticipantSpec) -> List[Any]:
    """``[node, parent, ops, rm_ops, last_agent, unsolicited_vote,
    ok_to_leave_out, long_locks, veto]``."""
    return [part.node, part.parent, _ops_to_wire(part.ops),
            _rm_ops_to_wire(part.rm_ops) if part.rm_ops else {},
            part.last_agent, part.unsolicited_vote, part.ok_to_leave_out,
            part.long_locks, part.veto]


def participant_from_wire(data: Union[List[Any], Dict[str, Any]]
                          ) -> ParticipantSpec:
    """Decode a participant, positional or keyed."""
    if data.__class__ is list:
        (node, parent, ops, rm_ops, last_agent, unsolicited_vote,
         ok_to_leave_out, long_locks, veto) = data
        return ParticipantSpec(
            node, parent, _ops_from_wire(ops),
            _rm_ops_from_wire(rm_ops) if rm_ops else {}, last_agent,
            unsolicited_vote, ok_to_leave_out, long_locks, veto)
    return ParticipantSpec(
        node=data["node"],
        parent=data.get("parent"),
        ops=_ops_from_wire(data.get("ops", [])),
        rm_ops=_rm_ops_from_wire(data.get("rm_ops", {})),
        last_agent=data.get("last_agent", False),
        unsolicited_vote=data.get("unsolicited_vote", False),
        ok_to_leave_out=data.get("ok_to_leave_out", False),
        long_locks=data.get("long_locks", False),
        veto=data.get("veto", False),
    )


def spec_to_wire(spec: TransactionSpec) -> Dict[str, Any]:
    """The documented keyed form a client puts in a ``begin`` frame."""
    return {
        "txn_id": spec.txn_id,
        "await_work_done": spec.await_work_done,
        "long_locks": spec.long_locks,
        "participants": [
            {"node": part.node, "parent": part.parent,
             "ops": _ops_to_wire(part.ops),
             "rm_ops": _rm_ops_to_wire(part.rm_ops),
             "last_agent": part.last_agent,
             "unsolicited_vote": part.unsolicited_vote,
             "ok_to_leave_out": part.ok_to_leave_out,
             "long_locks": part.long_locks, "veto": part.veto}
            for part in spec.participants],
    }


def spec_to_array(spec: TransactionSpec) -> List[Any]:
    """The positional form an enrollment carries: ``[txn_id,
    await_work_done, long_locks, participants]``."""
    return [spec.txn_id, spec.await_work_done, spec.long_locks,
            [participant_to_array(part) for part in spec.participants]]


def spec_from_wire(data: Union[List[Any], Dict[str, Any]]
                   ) -> TransactionSpec:
    """Decode a spec in either form."""
    if data.__class__ is list:
        txn_id, await_work_done, long_locks, participants = data
        return TransactionSpec(
            [participant_from_wire(part) for part in participants],
            intern(txn_id), await_work_done, long_locks)
    return TransactionSpec(
        participants=[participant_from_wire(p)
                      for p in data["participants"]],
        txn_id=intern(data["txn_id"]),
        await_work_done=data.get("await_work_done", True),
        long_locks=data.get("long_locks", False),
    )


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
def _payload_to_wire(payload: Dict[str, Any]) -> Dict[str, Any]:
    out = dict(payload)
    spec = payload.get("spec")
    if spec is not None:
        out["spec"] = spec_to_array(spec)
    part = payload.get("participant")
    if part is not None:
        # An enrollment's participant is one of its spec's: send the
        # index rather than the subtree a second time.
        index = next((i for i, p in enumerate(spec.participants)
                      if p is part), None) if spec is not None else None
        out["participant"] = (index if index is not None
                              else participant_to_array(part))
    if "piggyback" in payload:
        out["piggyback"] = [message_to_wire(m)
                            for m in payload["piggyback"]]
    return out


def _payload_from_wire(payload: Dict[str, Any]) -> Dict[str, Any]:
    spec = payload.get("spec")
    if spec is not None:
        spec = payload["spec"] = spec_from_wire(spec)
    part = payload.get("participant")
    if part is not None:
        payload["participant"] = (spec.participants[part]
                                  if part.__class__ is int
                                  else participant_from_wire(part))
    if "piggyback" in payload:
        payload["piggyback"] = [message_from_wire(m)
                                for m in payload["piggyback"]]
    return payload


def message_to_wire(message: Message) -> List[Any]:
    """``[msg_type, txn_id, src, dst, phase, flags, payload, msg_id]``."""
    payload = message.payload
    if not _CODED_KEYS.isdisjoint(payload):
        payload = _payload_to_wire(payload)
    return [message.msg_type._value_, message.txn_id, message.src,
            message.dst, message.phase._value_, message.flags, payload,
            message.msg_id]


def message_from_wire(data: List[Any]) -> Message:
    """Decode a positional message array (freshly parsed: its flags
    and payload dicts become the message's own).  Transaction ids are
    interned, so the nodes of one process keep one copy of each."""
    msg_type, txn_id, src, dst, phase, flags, payload, msg_id = data
    if not _CODED_KEYS.isdisjoint(payload):
        payload = _payload_from_wire(payload)
    return Message(_MESSAGE_TYPES[msg_type], intern(txn_id), src, dst,
                   _PHASES[phase], flags, payload, msg_id)


# ----------------------------------------------------------------------
# Log records (the on-disk WAL line format)
# ----------------------------------------------------------------------
def record_to_wire(record: LogRecord) -> Dict[str, Any]:
    return {
        "lsn": record.lsn,
        "txn_id": record.txn_id,
        "record_type": record.record_type._value_,
        "node": record.node,
        "forced": record.forced,
        "written_at": record.written_at,
        "payload": record.payload,
    }


def record_from_wire(data: Dict[str, Any]) -> LogRecord:
    return LogRecord(
        lsn=data["lsn"],
        txn_id=data["txn_id"],
        record_type=_RECORD_TYPES[data["record_type"]],
        node=data["node"],
        forced=data["forced"],
        written_at=data["written_at"],
        payload=dict(data.get("payload", {})),
    )
