"""Asyncio TCP transport: one listening socket per node, one ordered
stream per directed link — now with connection supervision.

Each node gets a server socket; for every directed pair of nodes the
transport opens a dedicated client connection.  Frames written on one
link are read in order at the destination — TCP's byte-stream ordering
gives the per-link session (FIFO) guarantee the LU 6.2 sessions in the
paper provide and the simulated network enforces with its link clamp.

A link is *supervised*: a watcher task notices the peer closing (or
dying) and flips the link down, frames sent while the link is down
queue in per-link FIFO order, and a reconnect loop retries with
bounded exponential backoff + seeded jitter
(:class:`BackoffPolicy`).  When the peer comes back, the queue drains
in order, so the session guarantee holds *across* an outage and the
surviving nodes' protocol timers (inquiry / retry) drive in-doubt
resolution exactly as in the simulator.  A link that exhausts
``max_attempts`` gives up and reports through ``on_give_up`` — the
live watchdog surfaces that as a ``link_down`` finding.

The transport is deliberately dumb about *meaning*: what a frame says
(protocol message, begin-transaction control frame, ping) is the
:mod:`repro.transport.live` layer's business, via ``on_frame``.  The
only frame the transport itself speaks is the ``hello`` a client link
opens with, which names the sending node so the receiving server can
attribute per-link delivery counts (the crash-accounting seam
:meth:`reconcile_lost` is built on).

A server reads with an :class:`asyncio.Protocol`: every socket read is
split into frames in one pass and handed to ``on_frame`` in order.  A
frame that cannot be used — an oversized length prefix, a body that is
not JSON, a scalar, or one the handler rejects — closes only the
connection it came on and is counted in ``frames_rejected``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import (Any, Awaitable, Callable, Deque, Dict, List, Optional,
                    Sequence, Tuple)

from repro.errors import ReproError
from repro.sim.kernel import EventInterrupt
from repro.sim.randomness import RandomStream
from repro.transport.wire import (FrameError, FrameSplitter, encode_frame,
                                  frame_kind)

FrameHandler = Callable[[str, Any, "asyncio.Transport"], None]

#: What a frame handler raises for a frame it cannot decode or act on
#: (a malformed message array, a begin frame with a bad spec): the
#: frame is rejected and its connection closed.
REJECTED_FRAME = (ValueError, LookupError, TypeError, ReproError)


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff with seeded jitter.

    Attempt ``n`` (0-based) waits ``min(cap, base * factor**n)``
    seconds, spread uniformly over ``±jitter`` (a fraction of the
    delay) by the transport's seeded RNG — deterministic for a given
    seed, so reconnect schedules are replayable.  ``max_attempts``
    bounds the loop (``None`` retries forever, the right default for a
    cluster mesh where the peer is expected back).
    """

    base: float = 0.05
    factor: float = 2.0
    cap: float = 2.0
    jitter: float = 0.5
    max_attempts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.base <= 0 or self.factor < 1 or self.cap < self.base:
            raise ValueError(f"bad backoff shape: {self}")
        if not 0 <= self.jitter < 1:
            raise ValueError(f"jitter must be in [0, 1): {self.jitter}")

    def raw_delay(self, attempt: int) -> float:
        """The undithered delay for 0-based ``attempt``."""
        return min(self.cap, self.base * (self.factor ** attempt))

    def delay(self, attempt: int, rng: RandomStream) -> float:
        """The jittered delay for ``attempt`` (consumes one RNG draw)."""
        raw = self.raw_delay(attempt)
        if self.jitter == 0:
            return raw
        return rng.uniform(raw * (1 - self.jitter), raw * (1 + self.jitter))

    def exhausted(self, attempt: int) -> bool:
        return self.max_attempts is not None and attempt >= self.max_attempts

    def schedule(self, rng: RandomStream, attempts: int) -> List[float]:
        """The first ``attempts`` jittered delays (for tests/inspection)."""
        return [self.delay(n, rng) for n in range(attempts)]


class _Link:
    """One supervised directed connection (src -> dst)."""

    __slots__ = ("src", "dst", "state", "writer", "reader", "watcher",
                 "reconnector", "pending", "attempts")

    def __init__(self, src: str, dst: str) -> None:
        self.src = src
        self.dst = dst
        #: "up" | "down" (reconnecting) | "severed" (operator/fault
        #: injector cut; no reconnect until heal) | "gave-up"
        self.state = "down"
        self.writer: Optional["asyncio.StreamWriter"] = None
        self.reader: Optional["asyncio.StreamReader"] = None
        self.watcher: Optional["asyncio.Task"] = None
        self.reconnector: Optional["asyncio.Task"] = None
        #: Frames accepted while not "up": (kind, encoded) in FIFO order.
        self.pending: Deque[Tuple[Optional[str], bytes]] = deque()
        self.attempts = 0


class _ServerProtocol(asyncio.Protocol):
    """One inbound connection of a node's server.

    Each socket read is cut into frames in one pass (no coroutine
    wake-up per frame) and handed to the transport in order.
    """

    def __init__(self, owner: "TcpTransport", node: str) -> None:
        self.owner = owner
        self.node = node
        #: The sending node, once its ``hello`` arrived.
        self.peer: Optional[str] = None
        self.transport: Optional["asyncio.Transport"] = None
        self.splitter = FrameSplitter()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.owner._server_conns.setdefault(self.node, set()).add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        conns = self.owner._server_conns.get(self.node)
        if conns is not None:
            conns.discard(self.transport)

    def data_received(self, data: bytes) -> None:
        try:
            frames, bad = self.splitter.feed(data), False
        except FrameError:
            frames, bad = self.splitter.ready, True
        if self.owner._received(self.node, self, frames) and bad:
            self.owner._reject(self)


class TcpTransport:
    """Localhost (or LAN) mesh of length-prefixed JSON frame streams."""

    def __init__(self, backoff: Optional[BackoffPolicy] = None,
                 seed: int = 0) -> None:
        #: Called as ``on_frame(node, obj, writer)`` for every frame a
        #: node's server reads; ``writer`` (the connection's asyncio
        #: transport) allows control-frame replies.
        self.on_frame: Optional[FrameHandler] = None
        #: Supervision hooks: ``on_link_down(src, dst)`` when a watcher
        #: notices a disconnect, ``on_link_up(src, dst, attempts)`` when
        #: a (re)connect lands, ``on_give_up(src, dst, attempts)`` when
        #: the backoff budget is exhausted.
        self.on_link_down: Optional[Callable[[str, str], None]] = None
        self.on_link_up: Optional[Callable[[str, str, int], None]] = None
        self.on_give_up: Optional[Callable[[str, str, int], None]] = None
        self.backoff = backoff or BackoffPolicy()
        self._rng = RandomStream(seed ^ 0x7C9_2BC)
        self._servers: Dict[str, "asyncio.base_events.Server"] = {}
        self._addresses: Dict[str, Tuple[str, int]] = {}
        self._links: Dict[Tuple[str, str], _Link] = {}
        #: Server-side connections per listening node, so a node kill
        #: can hard-close established inbound connections.
        self._server_conns: Dict[str, set] = {}
        self._closed = False
        self.frames_sent = 0
        self.frames_received = 0
        #: Inbound frames refused as malformed (each closed its
        #: connection).
        self.frames_rejected = 0
        #: Per-link "msg"-frame delivery accounting: written counts
        #: frames put on the wire, received counts frames the far
        #: server handed to ``on_frame``.  Their difference is what a
        #: crash loses in flight — see :meth:`reconcile_lost`.
        self.msg_written: Dict[Tuple[str, str], int] = {}
        self.msg_received: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    async def listen(self, node: str, host: str = "127.0.0.1",
                     port: int = 0) -> Tuple[str, int]:
        """Start ``node``'s server; returns the bound (host, port)."""
        loop = asyncio.get_running_loop()
        server = await loop.create_server(
            lambda: _ServerProtocol(self, node), host, port)
        self._servers[node] = server
        self._server_conns.setdefault(node, set())
        bound = server.sockets[0].getsockname()
        self._addresses[node] = (bound[0], bound[1])
        return self._addresses[node]

    def address(self, node: str) -> Tuple[str, int]:
        return self._addresses[node]

    async def connect(self, src: str, dst: str) -> None:
        link = self._links.get((src, dst))
        if link is None:
            link = _Link(src, dst)
            self._links[(src, dst)] = link
        if link.state != "up":
            await self._open(link)

    async def connect_mesh(self, nodes: Sequence[str]) -> None:
        """Open every directed link up front so sends are synchronous."""
        for src in nodes:
            for dst in nodes:
                if src != dst:
                    await self.connect(src, dst)

    def link_state(self, src: str, dst: str) -> str:
        return self._links[(src, dst)].state

    def queued_frames(self, src: str, dst: str) -> int:
        return len(self._links[(src, dst)].pending)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, obj: Any) -> None:
        """Put one frame on the (src, dst) link.

        Synchronous by design: ``Network.send`` is synchronous, and the
        asyncio writer buffers.  Per-link ordering is the write order;
        frames sent while the link is down queue FIFO and drain, still
        in order, when the reconnect loop lands.
        """
        link = self._links[(src, dst)]
        if link.state == "up" and link.writer is not None:
            self._write(link, frame_kind(obj), encode_frame(obj))
        else:
            link.pending.append((frame_kind(obj), encode_frame(obj)))

    def _write(self, link: _Link, kind: Optional[str],
               encoded: bytes) -> None:
        assert link.writer is not None
        link.writer.write(encoded)
        self.frames_sent += 1
        if kind == "msg":
            key = (link.src, link.dst)
            self.msg_written[key] = self.msg_written.get(key, 0) + 1

    def _received(self, node: str, conn: "_ServerProtocol",
                  frames: List[Any]) -> bool:
        """Hand one socket read's frames to ``on_frame``, in order;
        False if one was rejected (and its connection closed)."""
        on_frame = self.on_frame
        for obj in frames:
            kind = frame_kind(obj)
            if kind == "hello":
                # Transport-internal link handshake: names the sending
                # node for delivery accounting.
                conn.peer = obj.get("src")
                continue
            self.frames_received += 1
            if kind == "msg" and conn.peer is not None:
                key = (conn.peer, node)
                self.msg_received[key] = self.msg_received.get(key, 0) + 1
            if on_frame is None:
                continue
            try:
                on_frame(node, obj, conn.transport)
            except EventInterrupt as interrupt:
                # A fault-injection hook fired inside the synchronous
                # frame handler (same contract as the sim kernel):
                # abandon the handler at that point and run the crash.
                if interrupt.on_interrupt is not None:
                    interrupt.on_interrupt()
            except REJECTED_FRAME:
                self._reject(conn)
                return False
        return True

    def _reject(self, conn: "_ServerProtocol") -> None:
        """A frame the server cannot use closes the connection it came
        on — that connection only; the node keeps serving."""
        self.frames_rejected += 1
        conn.transport.close()

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    async def _open(self, link: _Link) -> None:
        """Connect ``link``, send the hello, drain its queue, watch it."""
        host, port = self._addresses[link.dst]
        reader, writer = await asyncio.open_connection(host, port)
        link.reader = reader
        link.writer = writer
        writer.write(encode_frame({"kind": "hello", "src": link.src}))
        link.state = "up"
        attempts = link.attempts
        link.attempts = 0
        while link.pending:
            kind, encoded = link.pending.popleft()
            self._write(link, kind, encoded)
        link.watcher = asyncio.ensure_future(self._watch(link, reader))
        if self.on_link_up is not None:
            self.on_link_up(link.src, link.dst, attempts)

    async def _watch(self, link: _Link,
                     reader: "asyncio.StreamReader") -> None:
        """Notice the peer closing the link; start the reconnect loop.

        Mesh peers never write back on a client link (replies ride the
        reverse link), so any read completing — EOF or error — means
        the connection is gone.
        """
        try:
            while True:
                data = await reader.read(4096)
                if not data:
                    break
        except (ConnectionError, OSError):
            pass
        if self._closed or link.reader is not reader:
            return
        self._mark_down(link)
        if link.state == "down" and link.reconnector is None:
            link.reconnector = asyncio.ensure_future(self._reconnect(link))

    def _mark_down(self, link: _Link) -> None:
        if link.state == "up":
            link.state = "down"
            if self.on_link_down is not None:
                self.on_link_down(link.src, link.dst)
        if link.writer is not None:
            try:
                link.writer.close()
            except Exception:  # pragma: no cover
                pass
        link.writer = None
        link.reader = None

    async def _reconnect(self, link: _Link) -> None:
        """Bounded-backoff reconnect; drains the pending queue on success."""
        try:
            while not self._closed and link.state == "down":
                if self.backoff.exhausted(link.attempts):
                    link.state = "gave-up"
                    if self.on_give_up is not None:
                        self.on_give_up(link.src, link.dst, link.attempts)
                    return
                await asyncio.sleep(
                    self.backoff.delay(link.attempts, self._rng))
                if self._closed or link.state != "down":
                    return
                link.attempts += 1
                try:
                    await self._open(link)
                    return
                except OSError:
                    continue
        finally:
            link.reconnector = None

    def sever(self, src: str, dst: str) -> None:
        """Cut one directed link (fault injection).  Frames queue; no
        reconnect runs until :meth:`heal`."""
        link = self._links[(src, dst)]
        if link.watcher is not None:
            link.watcher.cancel()
            link.watcher = None
        if link.reconnector is not None:
            link.reconnector.cancel()
            link.reconnector = None
        self._mark_down(link)
        link.state = "severed"

    def heal(self, src: str, dst: str) -> None:
        """Restore a severed (or given-up) link: reconnect immediately,
        falling back to the backoff loop if the peer is still away."""
        link = self._links[(src, dst)]
        if link.state == "up":
            return
        link.state = "down"
        link.attempts = 0
        if link.reconnector is None:
            link.reconnector = asyncio.ensure_future(self._heal_now(link))

    async def _heal_now(self, link: _Link) -> None:
        try:
            await self._open(link)
            link.reconnector = None
        except OSError:
            link.reconnector = asyncio.ensure_future(self._reconnect(link))

    # ------------------------------------------------------------------
    # Node kill / restart (fault-injection support)
    # ------------------------------------------------------------------
    async def close_node(self, node: str) -> int:
        """Hard-close everything ``node`` owns: its server, established
        inbound connections, and its outgoing links.

        Returns the number of the node's *own* queued ``msg`` frames
        that died with it (volatile outbound state lost in the crash);
        wire losses toward the node are counted separately by
        :meth:`reconcile_lost` once the closes have propagated.
        """
        lost = 0
        server = self._servers.pop(node, None)
        if server is not None:
            server.close()
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover
                pass
        for conn in list(self._server_conns.get(node, ())):
            try:
                conn.close()
            except Exception:  # pragma: no cover
                pass
        self._server_conns[node] = set()
        for (src, dst), link in self._links.items():
            if src != node:
                continue
            if link.watcher is not None:
                link.watcher.cancel()
                link.watcher = None
            if link.reconnector is not None:
                link.reconnector.cancel()
                link.reconnector = None
            self._mark_down(link)
            link.state = "dead"
            lost += sum(1 for kind, _ in link.pending if kind == "msg")
            link.pending.clear()
            link.attempts = 0
        return lost

    def reconcile_lost(self, node: str) -> int:
        """Count ``msg`` frames that were on the wire toward ``node``
        but never delivered (they died in socket buffers when the node
        was killed), and zero the imbalance so accounting restarts
        clean for the next incarnation."""
        lost = 0
        for (src, dst), written in self.msg_written.items():
            if dst != node:
                continue
            received = self.msg_received.get((src, dst), 0)
            if written > received:
                lost += written - received
                self.msg_received[(src, dst)] = written
        return lost

    async def reopen_node(self, node: str) -> Tuple[str, int]:
        """Bring a killed node's transport back: re-listen on its old
        address and reconnect its outgoing links.  Peers' supervised
        links reconnect themselves via backoff."""
        host, port = self._addresses[node]
        await self.listen(node, host, port)
        for (src, dst), link in self._links.items():
            if src != node:
                continue
            link.state = "down"
            if link.reconnector is None:
                link.reconnector = asyncio.ensure_future(
                    self._heal_now(link))
        return self._addresses[node]

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    async def close(self) -> None:
        self._closed = True
        waiters: List[Awaitable] = []
        for link in self._links.values():
            for task in (link.watcher, link.reconnector):
                if task is not None:
                    task.cancel()
            link.watcher = link.reconnector = None
            if link.writer is not None:
                try:
                    link.writer.close()
                    waiters.append(link.writer.wait_closed())
                except Exception:  # pragma: no cover
                    pass
            link.writer = None
        self._links.clear()
        for conns in self._server_conns.values():
            for conn in list(conns):
                try:
                    conn.close()
                except Exception:  # pragma: no cover
                    pass
        self._server_conns.clear()
        for server in self._servers.values():
            server.close()
            waiters.append(server.wait_closed())
        self._servers.clear()
        for waiter in waiters:
            try:
                await waiter
            except Exception:  # pragma: no cover
                pass
