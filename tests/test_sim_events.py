"""Unit tests for the event queue."""

import pytest

from repro.sim.events import (
    Event,
    EventQueue,
    WheelEventQueue,
)
from tests.heap_queue import HeapEventQueue


def test_pop_orders_by_time():
    queue = EventQueue()
    fired = []
    queue.push(3.0, lambda: fired.append("c"))
    queue.push(1.0, lambda: fired.append("a"))
    queue.push(2.0, lambda: fired.append("b"))
    while True:
        event = queue.pop()
        if event is None:
            break
        event.action()
    assert fired == ["a", "b", "c"]


def test_same_time_fires_in_push_order():
    queue = EventQueue()
    order = []
    for i in range(10):
        queue.push(5.0, lambda i=i: order.append(i))
    while queue:
        queue.pop().action()
    assert order == list(range(10))


def test_priority_breaks_time_ties():
    queue = EventQueue()
    order = []
    queue.push(1.0, lambda: order.append("late"), priority=5)
    queue.push(1.0, lambda: order.append("early"), priority=-5)
    while queue:
        queue.pop().action()
    assert order == ["early", "late"]


def test_cancel_removes_event():
    queue = EventQueue()
    fired = []
    keep = queue.push(1.0, lambda: fired.append("keep"))
    drop = queue.push(1.0, lambda: fired.append("drop"))
    assert queue.cancel(drop) is True
    assert len(queue) == 1
    while queue:
        queue.pop().action()
    assert fired == ["keep"]
    del keep


def test_cancel_twice_returns_false():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    assert queue.cancel(event) is True
    assert queue.cancel(event) is False


def test_cancel_after_fire_returns_false_and_keeps_live_count():
    """Regression: cancelling an already-popped event used to decrement
    the live count anyway and leak its seq into the cancelled set,
    silently corrupting later pops."""
    queue = EventQueue()
    fired = queue.push(1.0, lambda: None)
    pending = queue.push(2.0, lambda: None)
    assert queue.pop() is fired
    assert queue.cancel(fired) is False
    assert len(queue) == 1          # the pending event is still live
    assert queue.peek_time() == pytest.approx(2.0)
    assert queue.pop() is pending
    assert len(queue) == 0
    assert not queue


def test_event_state_properties():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    assert not event.fired and not event.cancelled
    queue.cancel(event)
    assert event.cancelled and not event.fired
    other = queue.push(2.0, lambda: None)
    assert queue.pop() is other
    assert other.fired and not other.cancelled


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.cancel(first)
    assert queue.peek_time() == pytest.approx(2.0)


def test_len_counts_live_events_only():
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(5)]
    queue.cancel(events[0])
    queue.cancel(events[3])
    assert len(queue) == 3


def test_empty_queue_pop_returns_none():
    queue = EventQueue()
    assert queue.pop() is None
    assert queue.peek_time() is None
    assert not queue


def test_drain_yields_in_order():
    queue = EventQueue()
    for t in (3.0, 1.0, 2.0):
        queue.push(t, lambda: None, name=str(t))
    names = [e.name for e in queue.drain()]
    assert names == ["1.0", "2.0", "3.0"]


# ----------------------------------------------------------------------
# Compaction, ownership and wheel-structure regressions
# ----------------------------------------------------------------------
def _noop():
    return None


def _retained(queue):
    """Entries a queue is still physically holding (live or dead)."""
    if isinstance(queue, HeapEventQueue):
        return len(queue._heap)
    run_tail = len(queue._run) - queue._ri
    near = len(queue._nearheap) + (0 if queue._near1 is None else 1)
    buckets = sum(len(bucket) for bucket in queue._buckets)
    overflow = sum(len(bucket) for bucket in queue._overflow.values())
    return run_tail + near + buckets + overflow


@pytest.mark.parametrize("queue_class", [WheelEventQueue, HeapEventQueue])
def test_cancel_storm_memory_bounded(queue_class):
    """A cancel storm must not leak: compaction keeps the retained
    entry count O(live), however many events were ever cancelled."""
    queue = queue_class()
    live = []
    for index in range(20_000):
        event = queue.push(float(index % 4096), _noop)
        if index % 10 == 0:
            live.append(event)
        else:
            queue.cancel(event)
    assert len(queue) == len(live)
    # dead entries may linger only up to the compaction trigger
    # (dead <= max(live, threshold)), never proportional to pushes.
    assert _retained(queue) <= 2 * len(live) + 65
    drained = list(queue.drain())
    assert sorted(e.seq for e in drained) == \
        sorted(e.seq for e in live)


@pytest.mark.parametrize("queue_class", [WheelEventQueue, HeapEventQueue])
def test_cancel_foreign_event_rejected(queue_class):
    """cancel() must refuse an event it does not own instead of
    silently corrupting its own live accounting."""
    owner, other = queue_class(), queue_class()
    event = owner.push(1.0, _noop)
    with pytest.raises(ValueError):
        other.cancel(event)
    # the event is untouched: still pending, still poppable by owner
    assert not event.cancelled
    assert owner.pop() is event
    assert len(other) == 0


def test_event_has_no_sort_key():
    """The dead sort_key helper was removed with the heap's tuple
    ordering; entry ordering is the queues' concern now."""
    assert not hasattr(Event, "sort_key")


def test_wheel_overflow_years_and_inf():
    """Far-future days (beyond one wheel revolution) park in year
    buckets; +inf parks in the terminal year; order stays exact."""
    queue = WheelEventQueue()
    times = [float("inf"), 5.0e9, 1.0, 300_000.0, 2.0e6, 5.0e9 - 1.0]
    for t in times:
        queue.push(t, _noop)
    assert queue._overflow          # far events really went to years
    assert [e.time for e in queue.drain()] == sorted(times)


def test_wheel_skips_empty_years():
    """Promotion jumps over empty years instead of scanning them."""
    queue = WheelEventQueue()
    queue.push(1.0e12, _noop, name="far")
    queue.push(0.5, _noop, name="soon")
    assert [e.name for e in queue.drain()] == ["soon", "far"]


def test_wheel_near_events_merge_with_promoted_run():
    """Events pushed below the promoted horizon (the near set) must
    interleave exactly with the current run."""
    queue = WheelEventQueue()
    for t in (2000.0, 2100.0, 2200.0):
        queue.push(t, _noop, name=f"run-{t}")
    first = queue.pop()
    assert first.name == "run-2000.0"
    # now the day holding 2048..3071 is promoted; push below horizon
    queue.push(2050.0, _noop, name="near-2050")
    queue.push(2150.0, _noop, name="near-2150")
    queue.push(2050.0, _noop, name="near-2050b")
    order = [e.name for e in queue.drain()]
    assert order == ["near-2050", "near-2050b", "run-2100.0",
                     "near-2150", "run-2200.0"]


def test_wheel_overflow_event_fires_before_later_wheel_event():
    """Regression: an event parked in overflow whose day comes to
    overlap the wheel window as the cursor advances must fire before a
    later event pushed straight into a wheel bucket.  (push A at
    t=307200 -> overflow year 1; drain to ~day 100; push B at t=358400
    -> wheel bucket.  The buggy scan promoted B past A.)"""
    queue = WheelEventQueue()
    queue.push(307_200.0, _noop, name="A")      # day 300: overflow
    queue.push(102_500.0, _noop, name="warm")   # day 100: wheel
    assert queue.pop().name == "warm"           # cursor now at day 100
    queue.push(358_400.0, _noop, name="B")      # day 350: wheel bucket
    assert [e.name for e in queue.drain()] == ["A", "B"]


def test_wheel_matches_heap_across_revolutions():
    """Differential regression: interleaved push/cancel/pop with times
    spanning several wheel revolutions (262144 time units each) must
    order identically on the wheel and the heap.  Protocol workloads
    never cross a revolution, so only this exercises the
    overflow-into-wheel merge."""
    import random
    rng = random.Random(0xC0FFEE)
    wheel, heap = WheelEventQueue(), HeapEventQueue()
    pairs = []
    now = 0.0
    for __ in range(4000):
        r = rng.random()
        if r < 0.5:
            t = now + rng.uniform(0.0, 800_000.0)
            pairs.append((wheel.push(t, _noop), heap.push(t, _noop)))
        elif r < 0.65 and pairs:
            ew, eh = pairs[rng.randrange(len(pairs))]
            cw = ew.fired or ew.cancelled or wheel.cancel(ew)
            ch = eh.fired or eh.cancelled or heap.cancel(eh)
            assert cw == ch
        else:
            pw, ph = wheel.pop(), heap.pop()
            if pw is None:
                assert ph is None
            else:
                assert (pw.time, pw.priority, pw.seq) == \
                    (ph.time, ph.priority, ph.seq)
                now = pw.time
    tail_w = [(e.time, e.seq) for e in wheel.drain()]
    tail_h = [(e.time, e.seq) for e in heap.drain()]
    assert tail_w == tail_h


def test_wheel_cancelled_near_event_never_fires():
    queue = WheelEventQueue()
    keep = queue.push(10.0, _noop, name="keep")
    doomed = queue.push(5.0, _noop, name="doomed")
    assert queue.cancel(doomed)
    assert queue.peek_time() == 10.0
    assert queue.pop() is keep
    assert queue.pop() is None
