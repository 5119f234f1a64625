"""A real-time clock that duck-types the simulator's scheduling surface.

The protocol stack (`TMNode`, `LogManager`, `Network`, lock managers)
touches exactly this subset of :class:`repro.sim.kernel.Simulator`:

``now`` · ``schedule(delay, action, name=...)`` · ``at(time, ...)`` ·
``call_soon(action)`` · ``timer(delay, action)`` → (``active`` /
``fired`` / ``cancel()``) · ``cancel(event)`` · ``stream(name)``

:class:`LiveClock` maps that surface onto a running asyncio event
loop, so the same protocol code drives real sockets and real fsyncs
without modification.  Time is seconds since the clock was created.

Quiescence: the sim detects it by running its event queue dry; live
runs can't.  Instead every *tracked* pending action (scheduled
callback, in-flight message) increments a shared
:class:`ActivityTracker`; a run is quiescent when the count returns to
zero.  Timers (``timer()``) are deliberately *not* tracked: they are
the protocol's long-dated timeouts (retry, heuristic, group-commit
deadlines), which protocol progress cancels and which must not keep a
finished run "busy".
"""

from __future__ import annotations

import asyncio
from time import monotonic
from typing import Callable, List, Optional

from repro.sim.kernel import EventInterrupt
from repro.sim.randomness import RandomStream, StreamFactory


class ActivityTracker:
    """Counts tracked pending work; wakes waiters when it hits zero."""

    def __init__(self) -> None:
        self._count = 0
        self._waiters: List["asyncio.Future"] = []

    @property
    def count(self) -> int:
        return self._count

    def inc(self) -> None:
        self._count += 1

    def dec(self) -> None:
        self._count -= 1
        if self._count == 0 and self._waiters:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_result(None)

    async def wait_idle(self) -> None:
        if self._count == 0:
            return
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        await waiter


class ScheduledCall:
    """Handle for a scheduled action; duck-types both the simulator's
    ``Event`` (``fired`` / ``cancelled``) and ``Timer`` (``active`` /
    ``cancel()``)."""

    __slots__ = ("_clock", "_handle", "name", "is_timer", "fired",
                 "cancelled")

    def __init__(self, clock: "LiveClock", name: str, is_timer: bool) -> None:
        self._clock = clock
        self._handle: Optional["asyncio.TimerHandle"] = None
        self.name = name
        self.is_timer = is_timer
        self.fired = False
        self.cancelled = False

    @property
    def active(self) -> bool:
        return not self.fired and not self.cancelled

    def cancel(self) -> bool:
        if not self.active:
            return False
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
        if not self.is_timer:
            self._clock.activity.dec()
        return True

    def _run(self, action: Callable[[], None]) -> None:
        if self.cancelled:  # pragma: no cover - handle.cancel beat us
            return
        self.fired = True
        self._clock.events_processed += 1
        if self.is_timer:
            self._invoke(action)
            return
        try:
            self._invoke(action)
        finally:
            self._clock.activity.dec()

    @staticmethod
    def _invoke(action: Callable[[], None]) -> None:
        # Same contract as the sim kernel's event loop: a fault-
        # injection hook raising EventInterrupt abandons the rest of
        # the action at exactly that point, then the crash (the
        # ``on_interrupt``) runs.  Live crash sites ride this.
        try:
            action()
        except EventInterrupt as interrupt:
            if interrupt.on_interrupt is not None:
                interrupt.on_interrupt()


class LiveClock:
    """Real-time drop-in for the Simulator's scheduling surface.

    Must be constructed while an asyncio event loop is running (or be
    handed one explicitly); all scheduling happens on that loop's
    thread.
    """

    def __init__(self, loop: Optional["asyncio.AbstractEventLoop"] = None,
                 seed: int = 0,
                 activity: Optional[ActivityTracker] = None) -> None:
        self._loop = loop or asyncio.get_running_loop()
        # The loop's clock is time.monotonic; reading it directly saves
        # a call on the protocol's most frequent read.
        self._t0 = monotonic()
        self._streams = StreamFactory(seed)
        self.activity = activity or ActivityTracker()
        self.events_processed = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return monotonic() - self._t0

    def stream(self, name: str) -> RandomStream:
        return self._streams.stream(name)

    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None],
                 name: str = "", priority: int = 0) -> ScheduledCall:
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self._arm(delay, action, name, is_timer=False)

    def at(self, time: float, action: Callable[[], None],
           name: str = "", priority: int = 0) -> ScheduledCall:
        delay = time - self.now
        if delay < 0:
            raise ValueError(f"cannot schedule at {time}, clock already at "
                             f"{self.now}")
        return self._arm(delay, action, name, is_timer=False)

    def call_soon(self, action: Callable[[], None],
                  name: str = "") -> ScheduledCall:
        return self._arm(0.0, action, name, is_timer=False)

    def timer(self, delay: float, action: Callable[[], None],
              name: str = "timer") -> ScheduledCall:
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self._arm(delay, action, name, is_timer=True)

    def cancel(self, call: ScheduledCall) -> bool:
        return call.cancel()

    # ------------------------------------------------------------------
    def _arm(self, delay: float, action: Callable[[], None], name: str,
             is_timer: bool) -> ScheduledCall:
        call = ScheduledCall(self, name, is_timer)
        if not is_timer:
            self.activity.inc()
        # Zero-delay work goes on the ready queue, which runs FIFO and
        # ahead of any frame read after it was armed; only real delays
        # pay for the timer heap.
        if delay:
            call._handle = self._loop.call_later(delay, call._run, action)
        else:
            call._handle = self._loop.call_soon(call._run, action)
        return call
