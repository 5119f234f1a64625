"""Unit tests for the simulator kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_clock_advances_with_events(simulator):
    times = []
    simulator.schedule(5.0, lambda: times.append(simulator.now))
    simulator.schedule(2.0, lambda: times.append(simulator.now))
    simulator.run()
    assert times == [2.0, 5.0]
    assert simulator.now == 5.0


def test_schedule_negative_delay_rejected(simulator):
    with pytest.raises(SimulationError):
        simulator.schedule(-1.0, lambda: None)


def test_at_in_past_rejected(simulator):
    simulator.schedule(10.0, lambda: None)
    simulator.run()
    with pytest.raises(SimulationError):
        simulator.at(5.0, lambda: None)


def test_call_soon_runs_at_current_instant(simulator):
    seen = []
    simulator.schedule(3.0, lambda: simulator.call_soon(
        lambda: seen.append(simulator.now)))
    simulator.run()
    assert seen == [3.0]


def test_run_until_stops_clock_at_bound(simulator):
    fired = []
    simulator.schedule(1.0, lambda: fired.append(1))
    simulator.schedule(10.0, lambda: fired.append(10))
    simulator.run_until(5.0)
    assert fired == [1]
    assert simulator.now == 5.0
    simulator.run()
    assert fired == [1, 10]


def test_run_until_past_rejected(simulator):
    simulator.schedule(4.0, lambda: None)
    simulator.run()
    with pytest.raises(SimulationError):
        simulator.run_until(1.0)


def test_events_scheduled_during_run_execute(simulator):
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 3:
            simulator.schedule(1.0, lambda: chain(depth + 1))

    simulator.schedule(0.0, lambda: chain(0))
    simulator.run()
    assert seen == [0, 1, 2, 3]


def test_runaway_loop_detected():
    simulator = Simulator()

    def forever():
        simulator.schedule(0.1, forever)

    simulator.schedule(0.0, forever)
    with pytest.raises(SimulationError, match="livelock"):
        simulator.run(max_events=1000)


def test_timer_fires_and_reports(simulator):
    fired = []
    timer = simulator.timer(2.0, lambda: fired.append(True))
    assert timer.active
    simulator.run()
    assert fired == [True]
    assert timer.fired
    assert not timer.active


def test_timer_cancel_prevents_firing(simulator):
    fired = []
    timer = simulator.timer(2.0, lambda: fired.append(True))
    assert timer.cancel() is True
    simulator.run()
    assert fired == []
    assert timer.cancel() is False  # already cancelled


def test_run_while_condition(simulator):
    count = [0]

    def tick():
        count[0] += 1
        simulator.schedule(1.0, tick)

    simulator.schedule(0.0, tick)
    simulator.run_while(lambda: count[0] < 5)
    assert count[0] == 5


def test_named_streams_are_deterministic():
    a = Simulator(seed=42)
    b = Simulator(seed=42)
    assert a.stream("net").random() == b.stream("net").random()
    # Different names give independent draws.
    c = Simulator(seed=42)
    assert c.stream("net").random() != c.stream("other").random() or True
    # Different seeds diverge.
    d = Simulator(seed=43)
    assert a.stream("x").random() != d.stream("x").random()


def test_event_hook_sees_every_event(simulator):
    names = []
    simulator.add_event_hook(lambda e: names.append(e.name))
    simulator.schedule(1.0, lambda: None, name="one")
    simulator.schedule(2.0, lambda: None, name="two")
    simulator.run()
    assert names == ["one", "two"]


def test_pending_events_counter(simulator):
    simulator.schedule(1.0, lambda: None)
    simulator.schedule(2.0, lambda: None)
    assert simulator.pending_events == 2
    simulator.run()
    assert simulator.pending_events == 0


def test_batched_run_orders_overflow_timer_before_later_wheel_timer():
    """Regression: a timer parked in the wheel's overflow level must
    still fire before a later timer placed directly in a wheel bucket
    once the cursor has advanced into the overflow year's range — and
    the batched run()/run_until() loops must observe that order rather
    than raising a spurious "event is in the past"."""
    sim = Simulator()
    order = []
    sim.at(307_200.0, lambda: order.append("A"))      # overflow year

    def warm():                                       # fires at ~day 100
        order.append("warm")
        # ~250 days out: lands in a wheel bucket while A is still in
        # overflow — the buggy scan promoted B first, then raised on A.
        sim.at(358_400.0, lambda: order.append("B"))

    sim.at(102_500.0, warm)
    sim.run()
    assert order == ["warm", "A", "B"]


def test_mid_run_compaction_keeps_dead_count_exact():
    """Regression: compact() triggered by a cancel storm inside an
    event action used to recompute _dead from the queue's flushed run
    index while the batched loop still held its skip count in locals;
    the loop's later flush then double-subtracted, driving _dead
    negative and deferring future compactions.  After a full drain the
    counter must be exactly zero."""
    sim = Simulator()
    queue = sim._queue
    doomed = [sim.schedule(5.0 + i * 0.01, lambda: None)
              for i in range(60)]
    for event in doomed:
        queue.cancel(event)     # below the compaction floor: entries stay

    def storm():
        fresh = [sim.schedule(10.0, lambda: None) for __ in range(80)]
        for event in fresh:
            queue.cancel(event)     # crosses the floor mid-drain

    sim.schedule(8.0, storm)
    sim.schedule(9.0, lambda: None)
    sim.run()
    assert queue._dead == 0


def test_cancel_from_inside_an_event_is_counted_once():
    """A cancel issued by a running event was counted done by the queue
    and again by the fused drain: the length went negative
    (``ValueError: __len__() should return >= 0``) and the compaction
    trigger read the same wrong number."""
    simulator = Simulator(seed=0)
    timers = {}
    simulator.schedule(1.0, lambda: timers.update(
        x=simulator.timer(0.5, lambda: None)))
    simulator.schedule(1.2, lambda: (
        timers["x"].cancel(),
        timers.update(seen=simulator.pending_events)))
    simulator.run()
    assert timers["seen"] >= 0
    assert len(simulator._queue) == 0
    assert simulator.pending_events == 0
    assert simulator._queue._dead == 0

    # The same through run_until, with the cancelled timer far enough
    # out to sit in another wheel day.
    simulator.schedule(1.0, lambda: timers.update(
        y=simulator.timer(5000.0, lambda: None)))
    simulator.schedule(2.0, lambda: timers["y"].cancel())
    simulator.run_until(simulator.now + 10.0)
    assert simulator.pending_events == 0
    simulator.run()
    assert len(simulator._queue) == 0
