"""The live load generators: a closed loop and an open loop.

Both speak the control frames ``repro.transport.live`` serves
(``begin`` → ``outcome``) over plain asyncio streams to the root node.
Frames are encoded before the clock starts, so the generator's own
cost inside the window is a ``write`` and a JSON decode per request.

*Closed loop*: each connection sends its next request only after the
previous outcome arrived — callers that wait for a reply; a slow
server receives less load.  *Open loop*: requests go out on a fixed
seeded schedule regardless of replies — independent users; latency is
timed from each request's **due** time, so a stall is charged to every
request queued behind it (coordinated-omission safe), and how late the
generator itself ran is reported as lateness.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.spec import TransactionSpec
from repro.transport.wire import encode_frame, read_frame, spec_to_wire

#: Seconds a single outcome may take before the watchdog declares the
#: transaction stuck (normal commits take single-digit milliseconds).
OUTCOME_TIMEOUT = 15.0


@dataclass
class LoadResult:
    attempted: int = 0
    committed: int = 0
    #: Outcomes that arrived but were not ``commit``, as "txn: outcome".
    wrong: List[str] = field(default_factory=list)
    #: Requests that never got an outcome (watchdog / connection loss).
    stuck: int = 0
    wall_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    done_offsets: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    backlog_at_end: int = 0
    error: Optional[str] = None


def begin_frames(specs: Sequence[TransactionSpec]) -> List[Tuple[str, bytes]]:
    return [(spec.txn_id,
             encode_frame({"kind": "begin", "spec": spec_to_wire(spec)}))
            for spec in specs]


def _account(result: LoadResult, txn_id: str, frame: Optional[dict]) -> bool:
    """Book one reply; False when the stream is no longer usable."""
    if frame is None:
        result.error = result.error or "server closed the connection"
        return False
    if frame.get("kind") != "outcome" or frame.get("txn") != txn_id:
        result.wrong.append(f"{txn_id}: unexpected frame {frame}")
    elif frame.get("outcome") != "commit":
        result.wrong.append(f"{txn_id}: {frame.get('outcome')}")
    else:
        result.committed += 1
    return True


async def closed_loop(frames: Sequence[Tuple[str, bytes]],
                      seconds: Optional[float],
                      streams: Sequence[tuple]) -> LoadResult:
    """One caller per stream, one request outstanding each, for
    ``seconds`` (or, with ``seconds=None``, until ``frames`` are used)."""
    result = LoadResult()
    cursor = iter(frames)
    began = perf_counter()
    deadline = None if seconds is None else began + seconds

    async def caller(reader, writer) -> None:
        while deadline is None or perf_counter() < deadline:
            item = next(cursor, None)
            if item is None:
                return
            txn_id, frame = item
            result.attempted += 1
            sent = perf_counter()
            writer.write(frame)
            try:
                reply = await asyncio.wait_for(read_frame(reader),
                                               OUTCOME_TIMEOUT)
            except asyncio.TimeoutError:
                result.stuck += 1
                result.error = f"watchdog: {txn_id} got no outcome"
                return
            now = perf_counter()
            if not _account(result, txn_id, reply):
                result.stuck += 1
                return
            result.latencies.append(now - sent)
            result.done_offsets.append(now - began)

    await asyncio.gather(*(caller(reader, writer)
                           for reader, writer in streams))
    result.wall_s = (max(result.done_offsets) if result.done_offsets
                     else perf_counter() - began)
    return result


async def open_loop(frames: Sequence[Tuple[str, bytes]],
                    due_offsets: Sequence[float],
                    stream: tuple) -> LoadResult:
    """One pipelined connection; request ``i`` is written at
    ``due_offsets[i]`` seconds whether or not earlier ones finished."""
    reader, writer = stream
    result = LoadResult()
    count = min(len(frames), len(due_offsets))
    due_at: Dict[str, float] = {}
    began = perf_counter()
    sent = 0

    async def sender() -> None:
        nonlocal sent
        for (txn_id, frame), offset in zip(frames, due_offsets):
            due = began + offset
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lateness.append(max(0.0, perf_counter() - due))
            due_at[txn_id] = due
            writer.write(frame)
            sent += 1
            result.attempted += 1
        result.backlog_at_end = sent - len(result.latencies)

    async def receiver() -> None:
        for _ in range(count):
            try:
                reply = await asyncio.wait_for(read_frame(reader),
                                               OUTCOME_TIMEOUT)
            except asyncio.TimeoutError:
                result.error = "watchdog: an outcome is overdue"
                return
            now = perf_counter()
            # Outcomes may arrive out of order; pair by transaction id.
            txn_id = (reply or {}).get("txn")
            if reply is not None and txn_id not in due_at:
                result.wrong.append(f"outcome for unknown txn: {reply}")
                continue
            if not _account(result, txn_id, reply):
                return
            result.latencies.append(now - due_at[txn_id])
            result.done_offsets.append(now - began)

    sending = asyncio.ensure_future(sender())
    try:
        await receiver()
    finally:
        if not sending.done():
            sending.cancel()
        try:
            await sending
        except asyncio.CancelledError:
            pass
    result.stuck = result.attempted - len(result.latencies)
    result.wall_s = (max(result.done_offsets) if result.done_offsets
                     else perf_counter() - began)
    return result
