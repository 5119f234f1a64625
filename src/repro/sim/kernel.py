"""The simulator: a virtual clock driving an event queue.

The kernel is intentionally tiny — protocol correctness lives in the
layers above.  It offers:

* ``schedule(delay, action)`` / ``at(time, action)`` — one-shot events;
* ``Timer`` — cancellable timeout handle (heuristic timeouts, group
  commit timers, retry timers);
* ``run()`` / ``run_until(t)`` / ``step()`` — main loops with an
  event-count safety valve so a protocol bug cannot spin forever;
* trace hooks used by :mod:`repro.trace` to build sequence diagrams.

The run loops come in two flavours.  The *batched* loop (``_drain``,
behind both ``run`` and ``run_until``) is the wheel queue's privileged
client: it holds the current sorted run in locals and consumes a whole
virtual instant (one promoted bucket) per queue interaction, instead
of paying a ``peek_time``/``pop`` method pair per event; ``at`` likewise
inlines the wheel's near-set push.  The *generic* loops drive any queue
through the public ``pop``/``peek_time`` contract; they serve the heap
queue (differential runs), event hooks, and the profiler.  Both
flavours fire events in exactly the same order —
``tests/test_scheduler_differential.py`` replays full protocol
workloads across the matrix and asserts bit-identical results.

Counter staleness: the batched loop accumulates ``events_processed``
and the queue's done-count in locals, flushing on every bucket
promotion and on exit.  An event action that inspects
``simulator.pending_events`` mid-instant may therefore see a value at
most one bucket stale; all quiescent reads are exact.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf as _FOREVER
from time import perf_counter
from typing import Callable, List, Optional, Type

from repro.sim.events import (
    _FIRED,
    _new_event,
    Event,
    EventQueue,
    WheelEventQueue,
)
from repro.sim.randomness import RandomStream, StreamFactory

__all__ = [
    "EventInterrupt",
    "KernelProfilerProtocol",
    "SimulationError",
    "Simulator",
    "Timer",
    "WheelEventQueue",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, runaway loops)."""


class EventInterrupt(Exception):
    """Abandon the rest of the currently firing event.

    Raised from *inside* an event action (typically by a fault-injection
    hook observing a log write or message send), it unwinds the action
    at exactly that point: everything the action did before the raise
    stands, everything after it never happens.  The kernel catches it,
    runs ``on_interrupt`` (where a fault injector crashes the node), and
    continues with the next event — which is precisely the semantics of
    a node failing mid-operation.
    """

    def __init__(self,
                 on_interrupt: Optional[Callable[[], None]] = None) -> None:
        super().__init__("event interrupted")
        self.on_interrupt = on_interrupt

    def apply(self) -> None:
        if self.on_interrupt is not None:
            self.on_interrupt()


class KernelProfilerProtocol:
    """What the kernel asks of a profiler (see repro.obs.profiler).

    Defined here, duck-typed, so the simulator layer never imports the
    observability layer.
    """

    def record(self, event: Event, seconds: float) -> None:
        raise NotImplementedError


class Timer:
    """A cancellable handle for a scheduled timeout.

    A thin view over the underlying :class:`Event`, whose lifecycle
    state is authoritative — no shadow flags to keep in sync.
    """

    __slots__ = ("_simulator", "_event")

    def __init__(self, simulator: "Simulator", event: Event) -> None:
        self._simulator = simulator
        self._event = event

    @property
    def fired(self) -> bool:
        return self._event.fired

    @property
    def active(self) -> bool:
        return not self._event.fired and not self._event.cancelled

    def cancel(self) -> bool:
        """Cancel the timeout if it has not fired yet."""
        return self._simulator._queue.cancel(self._event)


class Simulator:
    """Deterministic discrete-event simulator with named random streams."""

    #: Safety valve: aborts run loops after this many events unless the
    #: caller raises the limit explicitly.
    DEFAULT_MAX_EVENTS = 5_000_000

    #: Class-level opt-in profiler: simulators built while this is set
    #: (e.g. inside sweep cells the caller cannot reach) profile into
    #: it.  ``None`` — the default — keeps the run loop on the same
    #: branch-per-event fast path as the trace-hook skip.
    default_profiler: Optional["KernelProfilerProtocol"] = None

    #: Class-level scheduler override, mirroring ``default_profiler``:
    #: simulators built while this is set (e.g. deep inside a sweep
    #: cell) use it as their event queue.  ``None`` means the default
    #: :class:`WheelEventQueue`; the differential tests set their heap
    #: queue here to replay whole workloads on a reference scheduler.
    default_queue_class: Optional[Type] = None

    def __init__(self, seed: int = 0,
                 queue_class: Optional[Type] = None) -> None:
        self.now: float = 0.0
        cls = queue_class or Simulator.default_queue_class or EventQueue
        self._queue = cls()
        #: The queue again when it is the wheel whose internals the
        #: batched loop (and the fused ``at``) may touch
        #: directly; None otherwise.  One attribute load answers both
        #: "is it fast" and "which queue".
        self._wheel = self._queue if type(self._queue) is WheelEventQueue \
            else None
        self._streams = StreamFactory(seed)
        self._event_hooks: List[Callable[[Event], None]] = []
        self._profiler = Simulator.default_profiler
        self.events_processed = 0
        # Pre-bind the hottest methods into the instance dict: callers
        # hitting ``sim.schedule`` then reuse one bound method instead
        # of binding the class descriptor on every call.
        self.schedule = self.schedule
        self.at = self.at

    # ------------------------------------------------------------------
    # Random streams
    # ------------------------------------------------------------------
    def stream(self, name: str) -> RandomStream:
        """Named random stream (stable across runs for a given root seed)."""
        return self._streams.stream(name)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None],
                 name: str = "", priority: int = 0) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.at(self.now + delay, action, name, priority)

    def at(self, time: float, action: Callable[[], None],
           name: str = "", priority: int = 0) -> Event:
        """Schedule ``action`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, clock already at {self.now}")
        queue = self._wheel
        if queue is None:
            return self._queue.push(time, action, name=name,
                                    priority=priority)
        # Fused wheel push: the near-set placement is the steady state
        # for deliveries and timers within the current day, and
        # inlining it here saves a method call on the hottest kernel
        # edge.
        ev = _new_event(Event)
        ev.time = time
        ev.priority = priority
        seq = queue._seq
        queue._seq = seq + 1
        ev.seq = seq
        ev.action = action
        ev.name = name
        ev._state = queue
        if time < queue._horizon:
            near1 = queue._near1
            if near1 is None:
                queue._near1 = ev
            elif time < near1.time or (time == near1.time
                                       and priority < near1.priority):
                heappush(queue._nearheap, (near1.time, near1.priority,
                                           near1.seq, near1))
                queue._near1 = ev
            else:
                heappush(queue._nearheap, (time, priority, seq, ev))
            return ev
        queue._place_far(ev)
        return ev

    def call_soon(self, action: Callable[[], None], name: str = "") -> Event:
        """Schedule ``action`` at the current instant (after pending events)."""
        return self._queue.push(self.now, action, name=name)

    def timer(self, delay: float, action: Callable[[], None],
              name: str = "timer") -> Timer:
        """Schedule a cancellable timeout."""
        return Timer(self, self.schedule(delay, action, name=name))

    def cancel(self, event: Event) -> bool:
        return self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def add_event_hook(self, hook: Callable[[Event], None]) -> None:
        """Register a hook invoked before every event fires (tracing)."""
        self._event_hooks.append(hook)

    def remove_event_hook(self, hook: Callable[[Event], None]) -> None:
        """Remove a previously added event hook (idempotent)."""
        try:
            self._event_hooks.remove(hook)
        except ValueError:
            pass

    def set_profiler(self,
                     profiler: Optional["KernelProfilerProtocol"]) -> None:
        """Install (or with ``None`` remove) an event-handling profiler.

        The profiler's ``record(event, seconds)`` is called with the
        wall-clock cost of every event action.  Takes effect on the
        next ``run()``/``step()`` entry.
        """
        self._profiler = profiler

    @property
    def profiler(self) -> Optional["KernelProfilerProtocol"]:
        return self._profiler

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self.now:
            raise SimulationError(
                f"event {event.name!r} is in the past "
                f"({event.time} < {self.now})")
        self.now = event.time
        self.events_processed += 1
        if self._event_hooks:
            for hook in self._event_hooks:
                hook(event)
        profiler = self._profiler
        try:
            if profiler is None:
                event.action()
            else:
                began = perf_counter()
                try:
                    event.action()
                finally:
                    profiler.record(event, perf_counter() - began)
        except EventInterrupt as interrupt:
            interrupt.apply()
        return True

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains."""
        limit = max_events if max_events is not None else self.DEFAULT_MAX_EVENTS
        if (self._wheel is None or self._event_hooks
                or self._profiler is not None):
            return self._run_generic(limit)
        self._drain(_FOREVER, limit, "run() exceeded {} events — likely a "
                                     "protocol livelock (clock at {})")

    def _run_generic(self, limit: int) -> None:
        """Drain loop through the public queue contract (any queue,
        hooks, profiler)."""
        pop = self._queue.pop
        hooks = self._event_hooks
        profiler = self._profiler
        fired = 0
        while True:
            event = pop()
            if event is None:
                return
            time = event.time
            if time < self.now:
                raise SimulationError(
                    f"event {event.name!r} is in the past "
                    f"({time} < {self.now})")
            self.now = time
            self.events_processed += 1
            if hooks:
                for hook in hooks:
                    hook(event)
            try:
                if profiler is None:
                    event.action()
                else:
                    began = perf_counter()
                    try:
                        event.action()
                    finally:
                        profiler.record(event, perf_counter() - began)
            except EventInterrupt as interrupt:
                interrupt.apply()
            fired += 1
            if fired >= limit:
                raise SimulationError(
                    f"run() exceeded {limit} events — likely a protocol "
                    f"livelock (clock at {self.now})")

    def run_until(self, time: float, max_events: Optional[int] = None) -> None:
        """Run events with fire time <= ``time``; clock ends at ``time``."""
        if time < self.now:
            raise SimulationError(
                f"run_until({time}) but clock already at {self.now}")
        limit = max_events if max_events is not None else self.DEFAULT_MAX_EVENTS
        if (self._wheel is None or self._event_hooks
                or self._profiler is not None):
            return self._run_until_generic(time, limit)
        self._drain(time, limit, "run_until() exceeded {} events "
                                 "(clock at {})")
        if time > self.now:
            self.now = time

    def _drain(self, until: float, limit: int, overrun: str) -> None:
        """Fire the wheel's events up to ``until`` (``run`` passes
        infinity).

        This is the kernel's hottest loop: it holds the current sorted
        run in locals and batches counter updates, so a million-event
        run pays one queue interaction per promoted bucket rather than
        two method calls per event.  ``overrun`` formats the error for
        more than ``limit`` events.
        """
        queue = self._wheel
        advance = queue._advance
        nearheap = queue._nearheap
        fired_state = _FIRED
        fired = 0
        dead = 0
        run = queue._run
        ri = queue._ri
        n = len(run)
        try:
            while True:
                if ri < n:
                    entry = run[ri]
                    ev = entry[3]
                    if ev._state is queue:
                        near1 = queue._near1
                        if near1 is not None and (near1.time < entry[0] or
                                (near1.time == entry[0]
                                 and near1.priority < entry[1])):
                            if near1._state is not queue:   # cancelled near
                                queue._near1 = \
                                    heappop(nearheap)[3] if nearheap else None
                                dead += 1
                                continue
                            t = near1.time
                            if t > until:
                                break
                            queue._near1 = \
                                heappop(nearheap)[3] if nearheap else None
                            ev = near1
                        else:
                            t = entry[0]
                            if t > until:
                                break
                            ri += 1
                        if t < self.now:
                            raise SimulationError(
                                f"event {ev.name!r} is in the past "
                                f"({t} < {self.now})")
                        ev._state = fired_state
                        self.now = t
                        try:
                            ev.action()
                        except EventInterrupt as interrupt:
                            interrupt.apply()
                        fired += 1
                        if fired >= limit:
                            raise SimulationError(
                                overrun.format(limit, self.now))
                        continue
                    ri += 1
                    dead += 1
                    continue
                near1 = queue._near1
                if near1 is not None:
                    ev = near1
                    if ev._state is not queue:          # cancelled near
                        queue._near1 = \
                            heappop(nearheap)[3] if nearheap else None
                        dead += 1
                        continue
                    t = ev.time
                    if t > until:
                        break
                    if t < self.now:
                        raise SimulationError(
                            f"event {ev.name!r} is in the past "
                            f"({t} < {self.now})")
                    queue._near1 = heappop(nearheap)[3] if nearheap else None
                    ev._state = fired_state
                    self.now = t
                    try:
                        ev.action()
                    except EventInterrupt as interrupt:
                        interrupt.apply()
                    fired += 1
                    if fired >= limit:
                        raise SimulationError(
                            overrun.format(limit, self.now))
                    continue
                queue._ri = ri
                queue._done += fired
                queue._dead -= dead
                self.events_processed += fired
                limit -= fired
                fired = 0
                dead = 0
                if not advance():
                    break
                run = queue._run
                ri = queue._ri
                n = len(run)
        finally:
            queue._ri = ri
            queue._done += fired
            queue._dead -= dead
            self.events_processed += fired

    def _run_until_generic(self, time: float, limit: int) -> None:
        fired = 0
        while True:
            next_time = self._queue.peek_time()
            if next_time is None or next_time > time:
                break
            self.step()
            fired += 1
            if fired >= limit:
                raise SimulationError(
                    f"run_until() exceeded {limit} events (clock at {self.now})")
        self.now = max(self.now, time)

    def run_while(self, condition: Callable[[], bool],
                  max_events: Optional[int] = None) -> None:
        """Run while ``condition()`` holds and events remain."""
        limit = max_events if max_events is not None else self.DEFAULT_MAX_EVENTS
        fired = 0
        while condition():
            if not self.step():
                return
            fired += 1
            if fired >= limit:
                raise SimulationError(
                    f"run_while() exceeded {limit} events (clock at {self.now})")

    @property
    def pending_events(self) -> int:
        return len(self._queue)
