"""The discrete-event simulation kernel.

A :class:`Simulator` owns a priority queue of timed callbacks. Components
(firmware, plant, FPGA modules) schedule work with :meth:`Simulator.schedule`
or :meth:`Simulator.schedule_at` and the kernel dispatches them in
(time, insertion-order) order.

The heap holds ``(time_ns, seq, handle)`` tuples. ``seq`` is a per-simulator
counter, unique per entry, so a tuple compare is decided by the two ints and
never reaches the handle: every heap sift stays in C, and equal-time events
pop in scheduling order (the FIFO tie-break). Cancellation is lazy:
cancelled handles stay in the heap but are skipped on pop, which keeps both
operations O(log n).

A :class:`SampleClock` is a periodic task's schedule without its events:
the kernel passes each of its instants exactly where the task's event
would have fired, so an observer can read "the latest sample" on demand.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

_NEVER = 1 << 63  # past every representable simulation time


class EventHandle:
    """A scheduled event. Returned by the ``schedule*`` methods.

    Holds enough state to support cancellation and introspection. The kernel
    marks the handle ``fired`` just before dispatch; user code may call
    :meth:`cancel` at any time before that.
    """

    __slots__ = ("time_ns", "seq", "callback", "args", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time_ns: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time_ns = time_ns
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        if not self.cancelled and not self.fired and self._sim is not None:
            self._sim._pending -= 1
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True while the event is still queued and will fire."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<EventHandle t={self.time_ns}ns seq={self.seq} {name} {state}>"


class Simulator:
    """Integer-nanosecond discrete-event scheduler.

    The kernel makes three guarantees the rest of the system relies on:

    * events fire in nondecreasing time order;
    * two events scheduled for the same instant fire in scheduling order
      (stable FIFO tie-break), which makes signal fan-out deterministic;
    * time never moves backwards — scheduling in the past raises
      :class:`~repro.errors.SimulationError`.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._queue: List[Tuple[int, int, EventHandle]] = []
        self._seq: int = 0
        self._dispatched: int = 0
        self._pending: int = 0
        self._running: bool = False
        self._stop_requested: bool = False
        self._run_until_ns: Optional[int] = None
        self._clocks: List[SampleClock] = []
        self._clock_due: int = _NEVER  # earliest next instant of any clock

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_dispatched(self) -> int:
        """Total number of callbacks dispatched since construction."""
        return self._dispatched

    @property
    def pending_events(self) -> int:
        """Number of queued, non-cancelled events.

        O(1): a live counter maintained on schedule/cancel/dispatch rather
        than a full-queue scan (the heap still holds cancelled carcasses
        until they bubble to the head).
        """
        return self._pending

    @property
    def run_until_ns(self) -> Optional[int]:
        """The ``until_ns`` bound of the :meth:`run` call in progress.

        ``None`` outside :meth:`run` (or when running unbounded). Batch-
        emitting components clip their chunks to this so a single bulk
        event never emits activity past the window the caller asked for.
        """
        return self._run_until_ns

    def next_event_time(self) -> Optional[int]:
        """Timestamp of the next runnable event, or ``None`` if idle.

        Prunes cancelled heads as a side effect, like dispatch would.
        """
        return self._next_pending_time()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay_ns: int, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns}ns in the past")
        return self.schedule_at(self._now + int(delay_ns), callback, *args)

    def schedule_at(self, time_ns: int, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation time ``time_ns``."""
        time_ns = int(time_ns)
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at t={time_ns}ns, already at t={self._now}ns"
            )
        seq = self._seq
        handle = EventHandle(time_ns, seq, callback, args, self)
        self._seq = seq + 1
        self._pending += 1
        heapq.heappush(self._queue, (time_ns, seq, handle))
        return handle

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the single next pending event.

        Returns ``True`` if an event was dispatched, ``False`` if the queue
        held nothing runnable.
        """
        queue = self._queue
        while queue:
            time_ns, seq, handle = queue[0]
            if handle.cancelled:
                heapq.heappop(queue)
                continue
            if time_ns >= self._clock_due and self._tick_clocks(time_ns, seq):
                continue
            heapq.heappop(queue)
            self._now = time_ns
            handle.fired = True
            self._pending -= 1
            self._dispatched += 1
            handle.callback(*handle.args)
            return True
        return False

    def run(self, until_ns: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until_ns`` passes, or a cap hits.

        When ``until_ns`` is given, every event with ``time <= until_ns`` is
        dispatched and the clock is then advanced to exactly ``until_ns`` so
        periodic processes resumed later see a consistent time base. The
        clock is only advanced when the window truly drained: if ``stop()``
        or a ``max_events`` cap leaves events pending at or before
        ``until_ns``, the clock stays at the last dispatch so those events
        can still fire in order on the next call. A drained window also
        passes every :class:`SampleClock` instant through ``until_ns``.

        Returns the number of events dispatched by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        self._stop_requested = False
        self._run_until_ns = until_ns
        dispatched = 0
        # Bind hot names once: the loop below is the innermost dispatch path.
        queue = self._queue
        heappop = heapq.heappop
        try:
            while True:
                while queue:
                    if self._stop_requested:
                        break
                    time_ns, seq, head = queue[0]
                    if head.cancelled:
                        heappop(queue)
                        continue
                    if until_ns is not None and time_ns > until_ns:
                        break
                    if time_ns >= self._clock_due and self._tick_clocks(time_ns, seq):
                        continue  # a hand-off ran and may have scheduled ahead
                    if max_events is not None and dispatched >= max_events:
                        break
                    # Dispatch inline: the head we just inspected is the event
                    # to run, so pop it directly instead of re-peeking through
                    # step() (which would pop, re-check cancellation, and
                    # re-branch). step() stays as the public single-step API.
                    heappop(queue)
                    self._now = time_ns
                    head.fired = True
                    self._pending -= 1
                    self._dispatched += 1
                    head.callback(*head.args)
                    dispatched += 1
                if until_ns is None or self._stop_requested:
                    break
                next_time = self._next_pending_time()
                if next_time is not None and next_time <= until_ns:
                    break  # the event cap ended the window early
                # The window drained: clock instants through its end pass. A
                # hand-off there may schedule into the window: go round again.
                if self._clock_due > until_ns or not self._tick_clocks(until_ns, None):
                    if self._now < until_ns:
                        self._now = until_ns
                    break
        finally:
            self._running = False
            self._run_until_ns = None
        return dispatched

    def _next_pending_time(self) -> Optional[int]:
        """Timestamp of the next runnable event, pruning cancelled heads."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def _tick_clocks(self, time_ns: int, seq: Optional[int]) -> bool:
        """Pass every clock instant whose event would fire before the event
        ``(time_ns, seq)``; ``seq=None`` passes all through ``time_ns``.

        Instants pass one at a time in the order their events would fire.
        Returns True when a hand-off ran: it may have scheduled an event
        ahead of the one the caller was about to dispatch.
        """
        clocks = self._clocks
        while True:
            best: Optional[SampleClock] = None
            best_due = earliest = _NEVER
            for clock in clocks:
                due = clock.next_ns
                if due > time_ns or (due == time_ns and seq is not None and clock._mark > seq):
                    # Its event would fire after the caller's.
                    if due < earliest:
                        earliest = due
                    continue
                if best is None or due < best_due or (due == best_due and clock._mark < best._mark):
                    best, best_due = clock, due
            if best is None:
                self._clock_due = earliest
                return False
            best.last_ns = best_due
            best.next_ns = best_due + best.period_ns
            best._mark = self._seq  # the next instant's event would be armed now
            if best._hand_off is not None:
                hand_off, best._hand_off = best._hand_off, None
                best.cancel()
                self._now = best_due
                hand_off()
                return True

    def run_for(self, duration_ns: int, max_events: Optional[int] = None) -> int:
        """Run for ``duration_ns`` of simulated time from now."""
        return self.run(until_ns=self._now + int(duration_ns), max_events=max_events)

    # ------------------------------------------------------------------
    # Periodic helpers
    # ------------------------------------------------------------------
    def every(
        self,
        period_ns: int,
        callback: Callable[..., Any],
        *args: Any,
        start_delay_ns: Optional[int] = None,
    ) -> "PeriodicTask":
        """Run ``callback(*args)`` every ``period_ns`` until cancelled.

        The first invocation happens after ``start_delay_ns`` (default: one
        full period). Returns a :class:`PeriodicTask` for cancellation.
        """
        if period_ns <= 0:
            raise SimulationError(f"period must be positive, got {period_ns}ns")
        task = PeriodicTask(self, int(period_ns), callback, args)
        first = period_ns if start_delay_ns is None else start_delay_ns
        task._arm(self._now + int(first))
        return task

    def clock(self, period_ns: int) -> "SampleClock":
        """A :class:`SampleClock` with the schedule ``every(period_ns, ...)``
        would give its task, armed now."""
        if period_ns <= 0:
            raise SimulationError(f"period must be positive, got {period_ns}ns")
        clock = SampleClock(self, int(period_ns), self._now + int(period_ns))
        self._clocks.append(clock)
        self._clock_due = min(self._clock_due, clock.next_ns)
        return clock


class SampleClock:
    """The schedule of a periodic task, kept without its events.

    The kernel passes each instant where the task's event would fire: after
    every event at that instant scheduled before the previous one passed
    (the task re-arms as it fires), before any scheduled later, and at the
    end of a :meth:`Simulator.run` window that drained through it.
    :attr:`last_ns` is the latest instant passed: an observer sampling on
    this clock reads its sample there, lazily, and sees what the task's
    event would have left. :meth:`hand_off` turns the clock back into a
    real task at its next instant.
    """

    __slots__ = ("_sim", "period_ns", "next_ns", "last_ns", "_mark", "_hand_off")

    def __init__(self, sim: Simulator, period_ns: int, first_ns: int) -> None:
        self._sim = sim
        self.period_ns = period_ns
        self.next_ns = first_ns
        self.last_ns = sim.now  # the arming instant until the first one passes
        # The seq the next instant's event would carry: events at that
        # instant with a lower seq were scheduled first and fire before it.
        self._mark = sim._seq
        self._hand_off: Optional[Callable[[], Any]] = None

    def hand_off(self, callback: Callable[[], Any]) -> None:
        """At the next instant, in its event's place, stop and run ``callback()``.

        The callback typically arms ``sim.every(period_ns, ...)`` and does
        the first instant's work, which then runs on exactly the task
        schedule the clock stood for.
        """
        self._hand_off = callback

    def cancel(self) -> None:
        """Stop the clock (and drop any pending hand-off). Safe to repeat."""
        self._hand_off = None
        clocks = self._sim._clocks
        if self in clocks:
            clocks.remove(self)
            self._sim._clock_due = min([clock.next_ns for clock in clocks], default=_NEVER)


class PeriodicTask:
    """A self-rescheduling periodic callback created by :meth:`Simulator.every`."""

    __slots__ = ("_sim", "period_ns", "_callback", "_args", "_handle", "_cancelled", "fires")

    def __init__(
        self,
        sim: Simulator,
        period_ns: int,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        self._sim = sim
        self.period_ns = period_ns
        self._callback = callback
        self._args = args
        self._handle: Optional[EventHandle] = None
        self._cancelled = False
        self.fires = 0

    def _arm(self, time_ns: int) -> None:
        if not self._cancelled:
            self._handle = self._sim.schedule_at(time_ns, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fires += 1
        # Re-arm before invoking so a callback that raises does not silently
        # kill the periodic task's schedule for callers who catch the error.
        self._arm(self._sim.now + self.period_ns)
        self._callback(*self._args)

    def cancel(self) -> None:
        """Stop the periodic task. Safe to call more than once."""
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled
