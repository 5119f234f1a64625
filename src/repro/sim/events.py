"""Event objects and the schedulers that order them.

Events are ordered by ``(time, priority, seq)``.  The monotonically
increasing sequence number makes ordering total and therefore
deterministic: two events scheduled for the same instant fire in the
order they were scheduled.

This module is the hottest code in the repository — every message
delivery, timer and log flush in every simulation passes through the
event queue.  Two implementations share the same contract:

* :class:`WheelEventQueue` (the default ``EventQueue``) — a
  hierarchical timing wheel / calendar queue.  Virtual time is
  quantized into *days* of ``DAY_WIDTH`` time units; the wheel covers
  the next 256 days, a year-keyed overflow dict holds everything
  beyond, and events landing at-or-before the wheel cursor go to a
  near set (a single slot backed by a small heap) so the hot
  self-rescheduling-timer pattern never touches the wheel at all.
  Push and cancel are O(1); draining consumes pre-sorted *runs* by
  index increment instead of paying a heap sift per pop.
* ``HeapEventQueue`` (in the test tree, ``tests/heap_queue.py``) —
  the straightforward binary heap the wheel is differentially tested
  against (``tests/test_scheduler_differential`` replays full protocol
  runs on both and asserts bit-identical results).

Shared speed/robustness decisions:

* ``Event`` is a plain ``__slots__`` class, not a dataclass: frozen
  dataclasses route every constructor assignment through
  ``object.__setattr__``, which dominates push cost at scale.
* Ordering entries are flat, pre-built ``(time, priority, seq, event)``
  tuples: comparisons resolve on the scalar fields directly (``seq``
  is unique, so the trailing event is never compared).
* Lifecycle is a single state field on the event.  A *pending* event
  stores a reference to its owning queue in ``_state``; firing or
  cancelling replaces it with a small int.  That makes the liveness
  check in the drain loops one identity compare — and it gives
  ``cancel`` an ownership check for free: an event whose ``_state``
  is some *other* queue was never ours, and passing it in is a bug
  that now raises instead of silently corrupting the live count.
* Cancellation is lazy (a state flip), but both queues *compact* when
  dead entries outnumber live ones, so a cancel storm — the heuristic
  or retry timer pattern where most timers never fire — leaves memory
  bounded by O(live) instead of O(ever scheduled).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Iterator, List, Optional

#: Event lifecycle.  An event is created PENDING; while pending *and
#: owned by a queue* its ``_state`` holds the queue itself (see module
#: docstring), so the int PENDING value only appears on events that
#: were constructed directly and never scheduled.
_PENDING = 0
_FIRED = 1
_CANCELLED = 2

#: Day width as a power of two (``1 << WIDTH_SHIFT`` virtual time
#: units).  1024 is deliberately coarse: protocol timescales (message
#: latencies ~1, timeouts ~10–100) keep a whole transaction inside one
#: or two days, so the dominant flows hit the near-set fast path, while
#: long-horizon timer populations (the cancel-storm pattern) still
#: spread across enough buckets for O(1) placement.  ``int(t * _DAY_INV)``
#: is exact and monotonic because the multiplier is a power of two.
WIDTH_SHIFT = 10
DAY_WIDTH = float(1 << WIDTH_SHIFT)
_DAY_INV = 1.0 / (1 << WIDTH_SHIFT)

#: Wheel geometry: 256 day-slots per revolution; overflow is keyed by
#: *year* (``day >> 8``, i.e. one revolution).
_SLOTS = 256
_SLOT_MASK = _SLOTS - 1

#: An overflow year at most this large is sorted straight into a run
#: when the cursor reaches it; larger years are re-bucketed into the
#: wheel first so no single sort exceeds O(year) with small constants.
_DIRECT_SORT_MAX = 512

#: Compaction hysteresis: never compact below this many dead entries.
_COMPACT_MIN_DEAD = 64

#: Day assigned to times too large for float->int conversion (+inf).
_FAR_DAY = 1 << 60


class Event:
    """A single scheduled action on the virtual clock.

    Attributes:
        time: Virtual time at which the event fires.
        priority: Tie-break rank for events at the same instant.  Lower
            fires first.  Most callers leave this at 0.
        seq: Scheduler-assigned sequence number; makes ordering total.
        action: Zero-argument callable invoked when the event fires.
        name: Human-readable label used in traces and error messages.
    """

    __slots__ = ("time", "priority", "seq", "action", "name", "_state")

    def __init__(self, time: float, priority: int, seq: int,
                 action: Callable[[], None], name: str = "") -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.name = name
        self._state = _PENDING

    @property
    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    @property
    def fired(self) -> bool:
        return self._state == _FIRED

    def __repr__(self) -> str:
        return (f"Event(time={self.time!r}, priority={self.priority!r}, "
                f"seq={self.seq!r}, name={self.name!r})")


_new_event = Event.__new__


class WheelEventQueue:
    """Hierarchical timing-wheel / calendar-queue scheduler.

    Structure (all entries are ``(time, priority, seq, event)`` unless
    noted; ``cursor`` is the last day already promoted for draining):

    * ``_run`` / ``_ri`` — the current sorted run, consumed by index
      increment; everything at index ``>= _ri`` with day ``<= _cursor``
      that was promoted out of the wheel.
    * ``_near1`` / ``_nearheap`` — events pushed *after* their day was
      already promoted (``time < _horizon``): a single-entry fast slot
      plus a spill heap.  ``_near1`` holds a *bare event* (no entry
      tuple — the single hottest allocation saved per push); it is
      always the minimum of the near set and is ``None`` only when the
      spill heap is empty.  Because a new run is promoted only once the
      near set is empty, every near event's ``seq`` is strictly greater
      than every run entry's, so the near-vs-run merge compare needs
      only ``(time, priority)``.
    * ``_buckets`` — 256 day slots of bare events (tuples are built
      lazily at promotion, halving allocation per push).
    * ``_overflow`` — year-keyed dict of bare-event lists for days
      beyond the current wheel revolution, with a one-year cache
      (``_oy``/``_ob``) because far timers cluster temporally.

    Ordering stays exact: ``int(t * 2**-k)`` is monotonic, so every
    entry in the wheel or overflow is strictly later than the promoted
    horizon, and anything at-or-before it lands in the near set, which
    is merged entry-by-entry against the run on pop.

    The kernel (:mod:`repro.sim.kernel`) is this class's one privileged
    client: its batched drain loops read ``_run``/``_ri``/``_near1``
    directly so a virtual instant costs one bucket promotion instead of
    a pop/peek method pair per event.  Any field rename here must visit
    the kernel — as must any *rebinding* of ``_nearheap``, which the
    kernel holds across a whole drain (compaction filters it in place
    for exactly this reason).
    """

    __slots__ = ("_seq", "_done", "_dead", "_buckets", "_overflow",
                 "_oy", "_ob", "_cursor", "_horizon", "_run", "_ri",
                 "_near1", "_nearheap")

    def __init__(self) -> None:
        self._seq = 0            # events ever pushed
        self._done = 0           # events fired or cancelled
        self._dead = 0           # cancelled entries not yet reclaimed
        self._buckets: List[list] = [[] for __ in range(_SLOTS)]
        self._overflow: dict = {}
        self._oy = -1            # cached overflow year ...
        self._ob: Optional[list] = None   # ... and its bucket
        self._cursor = 0         # last day promoted into a run
        self._horizon = DAY_WIDTH          # (cursor + 1) * DAY_WIDTH
        self._run: list = []
        self._ri = 0
        self._near1: Optional[Event] = None
        self._nearheap: list = []

    def __len__(self) -> int:
        return self._seq - self._done

    def __bool__(self) -> bool:
        return self._seq > self._done

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, time: float, action: Callable[[], None], name: str = "",
             priority: int = 0) -> Event:
        """Schedule ``action`` at virtual ``time`` and return its Event."""
        ev = _new_event(Event)
        ev.time = time
        ev.priority = priority
        seq = self._seq
        self._seq = seq + 1
        ev.seq = seq
        ev.action = action
        ev.name = name
        ev._state = self
        if time < self._horizon:
            near1 = self._near1
            if near1 is None:
                self._near1 = ev
            elif time < near1.time or (time == near1.time
                                       and priority < near1.priority):
                heappush(self._nearheap, (near1.time, near1.priority,
                                          near1.seq, near1))
                self._near1 = ev
            else:
                heappush(self._nearheap, (time, priority, seq, ev))
            return ev
        try:
            day = int(time * _DAY_INV)
        except OverflowError:       # time == +inf
            day = _FAR_DAY
        if day - self._cursor <= _SLOTS:
            self._buckets[day & _SLOT_MASK].append(ev)
        else:
            year = day >> 8
            if year == self._oy:
                self._ob.append(ev)
            else:
                overflow = self._overflow
                bucket = overflow.get(year)
                if bucket is None:
                    overflow[year] = bucket = [ev]
                else:
                    bucket.append(ev)
                self._oy = year
                self._ob = bucket
        return ev

    def _place_far(self, ev: Event) -> None:
        """Wheel/overflow placement for a pre-built event beyond the
        horizon.  The kernel's fused ``at`` calls this on its
        slow path; ``push`` inlines the same logic."""
        try:
            day = int(ev.time * _DAY_INV)
        except OverflowError:
            day = _FAR_DAY
        if day - self._cursor <= _SLOTS:
            self._buckets[day & _SLOT_MASK].append(ev)
        else:
            year = day >> 8
            if year == self._oy:
                self._ob.append(ev)
            else:
                overflow = self._overflow
                bucket = overflow.get(year)
                if bucket is None:
                    overflow[year] = bucket = [ev]
                else:
                    bucket.append(ev)
                self._oy = year
                self._ob = bucket

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, event: Event) -> bool:
        """Cancel a pending event.  Returns False if already
        fired/cancelled; raises ValueError for an event owned by a
        different queue (which this queue could never reclaim)."""
        state = event._state
        if state is self:
            event._state = _CANCELLED
            self._done += 1
            dead = self._dead + 1
            self._dead = dead
            if dead > _COMPACT_MIN_DEAD and dead > self._seq - self._done:
                self.compact()
            return True
        if type(state) is int:
            return False
        raise ValueError(
            f"cannot cancel {event!r}: it belongs to a different queue")

    def compact(self) -> None:
        """Reclaim cancelled entries from every holding structure.

        Buckets, overflow years and the near heap are filtered *in
        place* (the kernel's drain loop may hold references to these
        lists mid-run).  The current run is left alone — its dead
        entries are skipped and reclaimed by the normal drain path, so
        post-compaction memory is O(live + one run).  ``_dead`` is
        decremented by exactly the number of entries removed — never
        recomputed from ``_ri`` or the run, which may be stale while a
        kernel drain holds its position and skip count in locals (the
        kernel's later flush then settles the balance exactly).
        """
        removed = 0
        for bucket in self._buckets:
            if bucket:
                live = [e for e in bucket if e._state is self]
                removed += len(bucket) - len(live)
                bucket[:] = live
        overflow = self._overflow
        for year in list(overflow):
            bucket = overflow[year]
            live = [e for e in bucket if e._state is self]
            removed += len(bucket) - len(live)
            if live:
                bucket[:] = live
            else:
                del overflow[year]
        self._oy = -1
        self._ob = None
        nearheap = self._nearheap
        if nearheap:
            live = [en for en in nearheap if en[3]._state is self]
            removed += len(nearheap) - len(live)
            nearheap[:] = live
            heapify(nearheap)
        near1 = self._near1
        if near1 is not None and near1._state is not self:
            removed += 1
            self._near1 = heappop(nearheap)[3] if nearheap else None
        elif near1 is None and nearheap:
            self._near1 = heappop(nearheap)[3]
        self._dead -= removed

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def _advance(self) -> bool:
        """Make the earliest pending entry visible at ``_run[_ri]`` or
        ``_near1``.  Returns False when the queue is empty."""
        while True:
            run = self._run
            ri = self._ri
            n = len(run)
            while ri < n:
                if run[ri][3]._state is self:
                    break
                ri += 1
                self._dead -= 1
            self._ri = ri
            if ri < n or self._near1 is not None:
                return True
            if self._nearheap:
                self._near1 = heappop(self._nearheap)[3]
                return True
            # Promote the next non-empty wheel day.  The wheel covers
            # exactly (_cursor, _cursor + 256], so a bounded scan
            # replaces a push-side live counter.
            buckets = self._buckets
            cursor = self._cursor
            # As the cursor advances, an overflow year pushed long ago
            # can come to overlap the wheel window — while later pushes
            # for the same range land in buckets.  Merge such years into
            # the wheel *before* scanning, or the scan would promote a
            # later wheel day past an earlier overflow event.  At most
            # two years can overlap (overflow days are > cursor, so a
            # year's base lies in (cursor - 255, cursor + 256]), and a
            # year keeping a beyond-window remainder implies its base
            # is > cursor + 1, which rules out a second overlapping
            # year — hence the break.
            overflow = self._overflow
            while overflow:
                year = min(overflow)
                if (year << 8) > cursor + _SLOTS:
                    break
                events = overflow[year]
                keep = []
                migrated = 0
                for e in events:
                    if e._state is not self:
                        continue
                    try:
                        day = int(e.time * _DAY_INV)
                    except OverflowError:
                        day = _FAR_DAY
                    if day - cursor <= _SLOTS:
                        buckets[day & _SLOT_MASK].append(e)
                        migrated += 1
                    else:
                        keep.append(e)
                self._dead -= len(events) - migrated - len(keep)
                if keep:
                    # Same list object: the _oy/_ob push cache, if it
                    # points here, stays valid.
                    events[:] = keep
                    break
                del overflow[year]
                if year == self._oy:
                    self._oy = -1
                    self._ob = None
            bucket = None
            for cursor in range(cursor + 1, cursor + _SLOTS + 1):
                bucket = buckets[cursor & _SLOT_MASK]
                if bucket:
                    break
            if bucket:
                self._cursor = cursor
                self._horizon = float((cursor + 1) << WIDTH_SHIFT)
                buckets[cursor & _SLOT_MASK] = []
                if len(bucket) == 1:    # hot sparse-timer case: no sort
                    ev = bucket[0]
                    if ev._state is self:
                        self._run = [(ev.time, ev.priority, ev.seq, ev)]
                        self._ri = 0
                        return True
                    self._dead -= 1
                    continue
                promoted = [(e.time, e.priority, e.seq, e)
                            for e in bucket if e._state is self]
                self._dead -= len(bucket) - len(promoted)
                promoted.sort()
                self._run = promoted
                self._ri = 0
                continue
            if self._overflow:
                overflow = self._overflow
                year = min(overflow)
                events = overflow.pop(year)
                if year == self._oy:
                    self._oy = -1
                    self._ob = None
                base = year << 8
                if len(events) <= _DIRECT_SORT_MAX:
                    promoted = [(e.time, e.priority, e.seq, e)
                                for e in events if e._state is self]
                    self._dead -= len(events) - len(promoted)
                    self._cursor = base + _SLOTS - 1
                    self._horizon = float((base + _SLOTS) << WIDTH_SHIFT)
                    promoted.sort()
                    self._run = promoted
                    self._ri = 0
                else:
                    live = [e for e in events if e._state is self]
                    self._dead -= len(events) - len(live)
                    self._cursor = base - 1
                    self._horizon = float(base << WIDTH_SHIFT)
                    buckets = self._buckets
                    for e in live:
                        try:
                            day = int(e.time * _DAY_INV)
                        except OverflowError:
                            day = _FAR_DAY
                        buckets[day & _SLOT_MASK].append(e)
                    self._run = []
                    self._ri = 0
                continue
            return False

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty."""
        while True:
            near1 = self._near1
            run = self._run
            ri = self._ri
            if ri < len(run):
                entry = run[ri]
                ev = entry[3]
                if ev._state is self:
                    if near1 is not None:
                        t = near1.time
                        et = entry[0]
                        if t < et or (t == et
                                      and near1.priority < entry[1]):
                            nearheap = self._nearheap
                            self._near1 = \
                                heappop(nearheap)[3] if nearheap else None
                            if near1._state is not self:  # cancelled near
                                self._dead -= 1
                                continue
                            near1._state = _FIRED
                            self._done += 1
                            return near1
                    self._ri = ri + 1
                    ev._state = _FIRED
                    self._done += 1
                    return ev
                self._ri = ri + 1
                self._dead -= 1
                continue
            if near1 is not None:
                nearheap = self._nearheap
                self._near1 = heappop(nearheap)[3] if nearheap else None
                if near1._state is not self:         # cancelled near event
                    self._dead -= 1
                    continue
                near1._state = _FIRED
                self._done += 1
                return near1
            if not self._advance():
                return None

    def peek_time(self) -> Optional[float]:
        """Virtual time of the earliest live event, or None if empty."""
        while True:
            near1 = self._near1
            run = self._run
            ri = self._ri
            if near1 is not None and near1._state is not self:
                nearheap = self._nearheap       # purge cancelled near event
                self._near1 = heappop(nearheap)[3] if nearheap else None
                self._dead -= 1
                continue
            if ri < len(run):
                entry = run[ri]
                if entry[3]._state is self:
                    if near1 is not None:
                        t = near1.time
                        et = entry[0]
                        if t < et or (t == et
                                      and near1.priority < entry[1]):
                            return t
                    return entry[0]
                self._ri = ri + 1
                self._dead -= 1
                continue
            if near1 is not None:
                return near1.time
            if not self._advance():
                return None

    def drain(self) -> Iterator[Event]:
        """Pop every live event in order (used by tests)."""
        while True:
            event = self.pop()
            if event is None:
                return
            yield event


#: The default scheduler.  ``Simulator`` and all existing call sites
#: build this; tests swap in the heap for differential runs.
EventQueue = WheelEventQueue
