"""The binary-heap event queue: the reference scheduler the wheel
(:class:`repro.sim.events.WheelEventQueue`) is differentially tested
against."""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Iterator, Optional

from repro.sim.events import (_CANCELLED, _COMPACT_MIN_DEAD, _FIRED,
                              Event, _new_event)


class HeapEventQueue:
    """The classic binary-heap scheduler with lazy cancellation.

    The differential-testing reference for
    :class:`~repro.sim.events.WheelEventQueue` (selectable via
    ``Simulator(queue_class=HeapEventQueue)``): same contract, same
    ordering, structurally independent implementation.  Compaction
    rebuilds the heap when dead entries outnumber live ones, so cancel
    storms stay memory-bounded here too.
    """

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, action: Callable[[], None], name: str = "",
             priority: int = 0) -> Event:
        """Schedule ``action`` at virtual ``time`` and return its Event."""
        seq = self._seq
        self._seq = seq + 1
        ev = _new_event(Event)
        ev.time = time
        ev.priority = priority
        ev.seq = seq
        ev.action = action
        ev.name = name
        ev._state = self
        heappush(self._heap, (time, priority, seq, ev))
        self._live += 1
        return ev

    def cancel(self, event: Event) -> bool:
        """Cancel a pending event.  Returns False if already
        fired/cancelled; raises ValueError for a foreign queue's event."""
        state = event._state
        if state is self:
            event._state = _CANCELLED
            live = self._live - 1
            self._live = live
            dead = len(self._heap) - live
            if dead > _COMPACT_MIN_DEAD and dead > live:
                self.compact()
            return True
        if type(state) is int:
            return False
        raise ValueError(
            f"cannot cancel {event!r}: it belongs to a different queue")

    def compact(self) -> None:
        """Drop dead entries and re-heapify; memory back to O(live)."""
        self._heap = [entry for entry in self._heap
                      if entry[3]._state is self]
        heapify(self._heap)

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty."""
        heap = self._heap
        while heap:
            ev = heappop(heap)[3]
            if ev._state is self:
                ev._state = _FIRED
                self._live -= 1
                return ev
        return None

    def peek_time(self) -> Optional[float]:
        """Virtual time of the earliest live event, or None if empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3]._state is not self:
                heappop(heap)
                continue
            return entry[0]
        return None

    def drain(self) -> Iterator[Event]:
        """Pop every live event in order (used by tests)."""
        while True:
            event = self.pop()
            if event is None:
                return
            yield event
