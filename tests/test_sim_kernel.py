"""Unit tests for the discrete-event kernel."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_starts_at_time_zero(self, sim):
        assert sim.now == 0

    def test_schedule_and_run(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [100]

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(250, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [250]

    def test_callback_args_passed(self, sim):
        got = []
        sim.schedule(1, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_time_ordering(self, sim):
        order = []
        sim.schedule(300, lambda: order.append("c"))
        sim.schedule(100, lambda: order.append("a"))
        sim.schedule(200, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_tie_break_at_same_instant(self, sim):
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(100, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_events_scheduled_from_callbacks(self, sim):
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(10, lambda: fired.append(("inner", sim.now)))

        sim.schedule(5, outer)
        sim.run()
        assert fired == [("outer", 5), ("inner", 15)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(10, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(10, lambda: None)
        handle.cancel()
        handle.cancel()
        assert not handle.pending

    def test_pending_lifecycle(self, sim):
        handle = sim.schedule(10, lambda: None)
        assert handle.pending
        sim.run()
        assert not handle.pending
        assert handle.fired


class TestRunControl:
    def test_run_until_advances_clock_exactly(self, sim):
        sim.schedule(100, lambda: None)
        sim.run(until_ns=500)
        assert sim.now == 500

    def test_run_until_excludes_later_events(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append("early"))
        sim.schedule(900, lambda: fired.append("late"))
        sim.run(until_ns=500)
        assert fired == ["early"]
        sim.run()
        assert fired == ["early", "late"]

    def test_run_for_relative_window(self, sim):
        sim.schedule(100, lambda: None)
        sim.run(until_ns=200)
        fired = []
        sim.schedule(100, lambda: fired.append(sim.now))
        sim.run_for(150)
        assert fired == [300]
        assert sim.now == 350

    def test_max_events_cap(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(i + 1, lambda i=i: fired.append(i))
        dispatched = sim.run(max_events=3)
        assert dispatched == 3
        assert fired == [0, 1, 2]

    def test_max_events_cap_does_not_advance_clock_past_pending(self, sim):
        # Regression: run(until_ns=..., max_events=...) used to jump the
        # clock to until_ns even when capped mid-window, so the next
        # dispatch moved _now backwards.
        times = []
        for t in (10, 20, 30):
            sim.schedule_at(t, lambda t=t: times.append(t))
        dispatched = sim.run(until_ns=100, max_events=1)
        assert dispatched == 1
        assert sim.now == 10  # not 100: events at 20/30 are still pending
        observed = []
        sim.schedule_at(15, lambda: observed.append(sim.now))
        sim.run(until_ns=100)
        assert observed == [15]
        assert times == [10, 20, 30]
        assert sim.now == 100

    def test_max_events_cap_with_only_cancelled_pending_advances(self, sim):
        fired = []
        sim.schedule_at(10, lambda: fired.append(10))
        late = sim.schedule_at(50, lambda: fired.append(50))
        late.cancel()
        sim.run(until_ns=100, max_events=1)
        assert fired == [10]
        assert sim.now == 100  # nothing runnable remains inside the window

    def test_stop_from_callback(self, sim):
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()

        sim.schedule(1, stopper)
        sim.schedule(2, lambda: fired.append("after"))
        sim.run()
        assert fired == ["stop"]

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_events_dispatched_counter(self, sim):
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        sim.run()
        assert sim.events_dispatched == 5

    def test_reentrant_run_rejected(self, sim):
        def inner():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1, inner)
        sim.run()


class TestPendingCounter:
    """``pending_events`` is a live counter now, not an O(n) queue scan."""

    def test_counts_scheduled_events(self, sim):
        for i in range(4):
            sim.schedule(i + 1, lambda: None)
        assert sim.pending_events == 4

    def test_dispatch_decrements(self, sim):
        sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.run(until_ns=15)
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0

    def test_cancel_decrements_immediately(self, sim):
        handle = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1

    def test_double_cancel_decrements_once(self, sim):
        handle = sim.schedule(10, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 0

    def test_cancel_after_fire_does_not_decrement(self, sim):
        handle = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.run(until_ns=15)
        handle.cancel()  # already fired: a no-op, not a double-count
        assert sim.pending_events == 1

    def test_step_decrements(self, sim):
        sim.schedule(10, lambda: None)
        assert sim.step() is True
        assert sim.pending_events == 0


class TestRunIntrospection:
    """The fast path reads the kernel's dispatch window and next deadline."""

    def test_next_event_time(self, sim):
        assert sim.next_event_time() is None
        sim.schedule(50, lambda: None)
        sim.schedule(10, lambda: None)
        assert sim.next_event_time() == 10

    def test_next_event_time_skips_cancelled(self, sim):
        early = sim.schedule(10, lambda: None)
        sim.schedule(50, lambda: None)
        early.cancel()
        assert sim.next_event_time() == 50

    def test_run_until_ns_visible_during_run_only(self, sim):
        seen = []
        sim.schedule(10, lambda: seen.append(sim.run_until_ns))
        assert sim.run_until_ns is None
        sim.run(until_ns=100)
        assert seen == [100]
        assert sim.run_until_ns is None

    def test_run_until_ns_none_for_unbounded_run(self, sim):
        seen = []
        sim.schedule(10, lambda: seen.append(sim.run_until_ns))
        sim.run()
        assert seen == [None]


class TestPeriodicTasks:
    def test_fires_every_period(self, sim):
        ticks = []
        sim.every(100, lambda: ticks.append(sim.now))
        sim.run(until_ns=550)
        assert ticks == [100, 200, 300, 400, 500]

    def test_custom_start_delay(self, sim):
        ticks = []
        sim.every(100, lambda: ticks.append(sim.now), start_delay_ns=10)
        sim.run(until_ns=250)
        assert ticks == [10, 110, 210]

    def test_cancel_stops_future_fires(self, sim):
        ticks = []
        task = sim.every(100, lambda: ticks.append(sim.now))
        sim.run(until_ns=250)
        task.cancel()
        sim.run(until_ns=1000)
        assert ticks == [100, 200]
        assert task.cancelled

    def test_fire_count_tracked(self, sim):
        task = sim.every(50, lambda: None)
        sim.run(until_ns=500)
        assert task.fires == 10

    def test_zero_period_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.every(0, lambda: None)

    def test_cancel_from_within_callback(self, sim):
        ticks = []
        holder = {}

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 3:
                holder["task"].cancel()

        holder["task"] = sim.every(10, tick)
        sim.run(until_ns=1000)
        assert ticks == [10, 20, 30]


# ----------------------------------------------------------------------
# Property test: the heap kernel against a sorted-list reference model
# ----------------------------------------------------------------------
class _ReferenceHandle:
    def __init__(self, live, seq):
        self._live = live
        self.seq = seq

    def cancel(self):
        self._live.pop(self.seq, None)


class _ReferenceKernel:
    """The kernel contract with no heap: fire the live event with the least
    ``(time_ns, seq)``; cancelling drops an event from the live set."""

    def __init__(self):
        self.now = 0
        self._seq = 0
        self._live = {}  # seq -> (time_ns, callback)

    @property
    def pending_events(self):
        return len(self._live)

    def schedule_at(self, time_ns, callback):
        seq = self._seq
        self._seq += 1
        self._live[seq] = (time_ns, callback)
        return _ReferenceHandle(self._live, seq)

    def schedule(self, delay_ns, callback):
        return self.schedule_at(self.now + delay_ns, callback)

    def head_seq(self):
        return min(self._live, key=lambda seq: (self._live[seq][0], seq), default=None)

    def run(self, until_ns=None, max_events=None):
        dispatched = 0
        while self._live and (max_events is None or dispatched < max_events):
            seq = self.head_seq()
            time_ns, callback = self._live[seq]
            if until_ns is not None and time_ns > until_ns:
                break
            del self._live[seq]
            self.now = time_ns
            callback()
            dispatched += 1
        if until_ns is not None and self.now < until_ns:
            head = self.head_seq()
            if head is None or self._live[head][0] > until_ns:
                self.now = until_ns
        return dispatched


class _Program:
    """A seeded random event program, replayable on either kernel.

    Event ``k`` (numbered in creation order, so also its ``seq``) draws its
    actions from its own RNG when it fires: schedule children by delay or
    absolute time (often at the current instant, so FIFO ties are common)
    and cancel earlier events, pending or not. Every fire logs
    ``(k, now, pending_events)``.
    """

    MAX_EVENTS = 400

    def __init__(self, kernel, seed):
        self.kernel = kernel
        self.seed = seed
        self.handles = []
        self.log = []

    def create(self, rng, absolute):
        if len(self.handles) >= self.MAX_EVENTS:
            return
        event_id = len(self.handles)
        fire = lambda: self._fire(event_id)  # noqa: E731
        if absolute:
            handle = self.kernel.schedule_at(self.kernel.now + rng.randint(0, 12), fire)
        else:
            handle = self.kernel.schedule(rng.randint(0, 12), fire)
        self.handles.append(handle)

    def cancel(self, event_id):
        self.handles[event_id].cancel()

    def _fire(self, event_id):
        self.log.append((event_id, self.kernel.now, self.kernel.pending_events))
        rng = random.Random(self.seed * 1_000_003 + event_id)
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.35:
                self.create(rng, absolute=False)
            elif roll < 0.7:
                self.create(rng, absolute=True)
            else:
                self.cancel(rng.randrange(len(self.handles)))

    def seed_roots(self, rng, count):
        for _ in range(count):
            self.create(rng, absolute=rng.random() < 0.5)
        for _ in range(count // 4):
            self.cancel(rng.randrange(len(self.handles)))


def _twin_programs(seed):
    real = _Program(Simulator(), seed)
    ref = _Program(_ReferenceKernel(), seed)
    real.seed_roots(random.Random(seed), 30)
    ref.seed_roots(random.Random(seed), 30)
    return real, ref


class TestReferenceModel:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_program_fires_in_reference_order(self, seed):
        real, ref = _twin_programs(seed)
        assert real.kernel.pending_events == ref.kernel.pending_events
        assert real.kernel.run() == ref.kernel.run()
        assert real.log == ref.log
        assert len(real.log) > 30
        assert real.kernel.events_dispatched == len(real.log)
        assert real.kernel.pending_events == 0
        assert real.kernel.now == ref.kernel.now

    @pytest.mark.parametrize("seed", range(25))
    def test_windowed_runs_match_reference_clock(self, seed):
        real, ref = _twin_programs(seed)
        rng = random.Random(-seed - 1)
        for _ in range(60):
            # Cancel the head now and then, so windows open on dead entries.
            head = ref.kernel.head_seq()
            if head is not None and rng.random() < 0.4:
                real.cancel(head)
                ref.cancel(head)
            if rng.random() < 0.3:
                child_seed = rng.random()
                real.create(random.Random(child_seed), absolute=False)
                ref.create(random.Random(child_seed), absolute=False)
            until_ns = ref.kernel.now + rng.randint(0, 15)
            max_events = rng.choice([None, 0, 1, 2, 5])
            assert real.kernel.run(until_ns, max_events) == ref.kernel.run(
                until_ns, max_events
            )
            assert real.kernel.now == ref.kernel.now
            assert real.kernel.pending_events == ref.kernel.pending_events
            assert real.log == ref.log
