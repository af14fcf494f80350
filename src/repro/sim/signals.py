"""Wire abstractions for the board-level signals the OFFRAMPS interposes on.

Four wire flavours cover every signal class in the paper's Figure 2/3 harness:

* :class:`DigitalWire` — level signals (DIR, EN, endstops). Subscribers see
  rising/falling edges.
* :class:`StepWire` — STEP lines. A physical step is a short high pulse; the
  paper's edge detectors count rising edges, so we model each step as a single
  ``pulse`` event carrying its width. This halves event volume without losing
  anything the detection or the Trojans observe.
* :class:`PwmWire` — heater/fan MOSFET gates. Marlin software-PWMs these; the
  observable quantity is the duty cycle, so the wire carries duty updates.
* :class:`AnalogWire` — thermistor divider outputs (a voltage).

Every wire knows who currently controls it (``driver``), which is how the
OFFRAMPS board re-routes a signal from the Arduino to the FPGA Trojan mux.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class Edge(enum.Enum):
    """Which transitions a digital subscriber wants to see."""

    RISING = "rising"
    FALLING = "falling"
    BOTH = "both"


class Wire:
    """Base class: a named signal with subscriber fan-out.

    Subscribers are invoked synchronously, in subscription order, from within
    the driving event — the kernel's FIFO tie-break keeps downstream ordering
    deterministic.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.driver: Optional[str] = None

    def claim(self, driver: str) -> None:
        """Record ``driver`` as the component controlling this wire."""
        self.driver = driver

    def release(self, driver: str) -> None:
        """Release control if ``driver`` currently holds it."""
        if self.driver == driver:
            self.driver = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class DigitalWire(Wire):
    """A two-level signal. ``drive`` sets the level; edges notify subscribers."""

    def __init__(self, sim: Simulator, name: str, initial: int = 0) -> None:
        super().__init__(sim, name)
        self._value = 1 if initial else 0
        self._subscribers: List[tuple] = []
        self.edge_count = 0

    @property
    def value(self) -> int:
        return self._value

    def on_edge(
        self, callback: Callable[["DigitalWire", int, int], Any], edge: Edge = Edge.BOTH
    ) -> None:
        """Subscribe ``callback(wire, new_value, time_ns)`` to transitions."""
        self._subscribers.append((edge, callback))

    def drive(self, value: int) -> None:
        """Set the wire level; fires subscribers only on an actual transition."""
        value = 1 if value else 0
        if value == self._value:
            return
        self._value = value
        self.edge_count += 1
        now = self.sim.now
        kind = Edge.RISING if value else Edge.FALLING
        for want, callback in list(self._subscribers):
            if want is Edge.BOTH or want is kind:
                callback(self, value, now)


class StepWire(Wire):
    """A STEP line. Each motor step is one ``pulse`` event.

    Subscribers receive ``callback(wire, time_ns, width_ns)``. Pulse width is
    carried as metadata (the paper measured a 1 µs minimum width; the overhead
    analysis uses it). The wire itself keeps only ``pulse_count`` and
    ``last_pulse_ns``; pulse intervals, peak frequency and narrowest width
    are measured by a :class:`repro.sim.trace.Tracer` watching the wire.
    """

    DEFAULT_WIDTH_NS = 2_000  # Marlin's ~2 us minimum step pulse on AVR.

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._subscribers: List[Callable[["StepWire", int, int], Any]] = []
        self._batch_handlers: List[Optional[Callable[["StepWire", Any, int], Any]]] = []
        self._ready_checks: List[Optional[Callable[[int], bool]]] = []
        self.pulse_count = 0
        self.last_pulse_ns: Optional[int] = None

    def on_pulse(
        self,
        callback: Callable[["StepWire", int, int], Any],
        *,
        batch: Optional[Callable[["StepWire", Any, int], Any]] = None,
        ready: Optional[Callable[[int], bool]] = None,
    ) -> None:
        """Subscribe ``callback(wire, time_ns, width_ns)`` to pulses.

        A subscriber may additionally declare itself batch-capable by
        providing ``batch(wire, times_ns, width_ns)`` — called once for a
        whole run of pulses with their explicit timestamps — plus an
        optional ``ready(count)`` predicate consulted before every batch.
        Dispatching ``batch`` must be observably identical to dispatching
        ``callback`` once per timestamp whenever ``ready`` returned True —
        the subscriber's own state (a Trojan's counters, a Tracer's event
        list) must end the same either way.
        """
        self._subscribers.append(callback)
        self._batch_handlers.append(batch)
        self._ready_checks.append(ready)

    def batch_ready(self, count: int) -> bool:
        """True when every subscriber can absorb ``count`` pulses in bulk.

        Any subscriber without a batch handler (tests, ad-hoc taps) or
        whose readiness check declines vetoes batching — the emitter then
        falls back to per-pulse dispatch, which is always correct.
        """
        if None in self._batch_handlers:
            return False
        for ready in self._ready_checks:
            if ready is not None and not ready(count):
                return False
        return True

    def pulse(self, width_ns: int = DEFAULT_WIDTH_NS) -> None:
        """Emit one step pulse at the current simulation time."""
        if width_ns <= 0:
            raise SimulationError(f"pulse width must be positive, got {width_ns}ns")
        now = self.sim.now
        self.last_pulse_ns = now
        self.pulse_count += 1
        for callback in list(self._subscribers):
            callback(self, now, width_ns)

    def pulse_batch(self, times_ns: np.ndarray, width_ns: int = DEFAULT_WIDTH_NS) -> None:
        """Emit a run of pulses at explicit ``times_ns`` (nondecreasing int64s).

        Only valid after :meth:`batch_ready` approved the same count:
        ``pulse_count`` and ``last_pulse_ns`` end exactly as after ``count``
        sequential :meth:`pulse` calls, then each subscriber's batch handler
        runs once, in subscription order. Timestamps are passed explicitly
        because the kernel clock sits at the *chunk* event's time, not at
        each pulse's.
        """
        count = len(times_ns)
        if count == 0:
            return
        if width_ns <= 0:
            raise SimulationError(f"pulse width must be positive, got {width_ns}ns")
        self.last_pulse_ns = int(times_ns[-1])
        self.pulse_count += count
        for handler in list(self._batch_handlers):
            handler(self, times_ns, width_ns)


class PwmWire(Wire):
    """A PWM-controlled gate, carried as a duty-cycle value in [0, 1]."""

    def __init__(self, sim: Simulator, name: str, initial_duty: float = 0.0) -> None:
        super().__init__(sim, name)
        self._duty = float(initial_duty)
        self._subscribers: List[Callable[["PwmWire", float, int], Any]] = []
        self.update_count = 0

    @property
    def duty(self) -> float:
        return self._duty

    def on_change(self, callback: Callable[["PwmWire", float, int], Any]) -> None:
        """Subscribe ``callback(wire, new_duty, time_ns)`` to duty updates."""
        self._subscribers.append(callback)

    def drive(self, duty: float) -> None:
        """Set the duty cycle (clamped to [0, 1]); notifies on change only."""
        duty = min(1.0, max(0.0, float(duty)))
        if duty == self._duty:
            return
        self._duty = duty
        self.update_count += 1
        now = self.sim.now
        for callback in list(self._subscribers):
            callback(self, duty, now)


class AnalogWire(Wire):
    """A continuously-valued signal (thermistor divider voltage).

    A periodically refreshed source may :meth:`serve` the wire instead of
    driving it: reads then compute the value on demand, and no refresh
    needs a kernel event while nothing could see one.
    """

    def __init__(self, sim: Simulator, name: str, initial: float = 0.0) -> None:
        super().__init__(sim, name)
        self._value = float(initial)
        self._subscribers: List[Callable[["AnalogWire", float, int], Any]] = []
        self._sampler: Optional[Callable[[], float]] = None
        self._on_watch: Optional[Callable[[], Any]] = None

    @property
    def value(self) -> float:
        sampler = self._sampler
        return self._value if sampler is None else sampler()

    def serve(self, sampler: Callable[[], float], on_watch: Callable[[], Any]) -> None:
        """Answer :attr:`value` with ``sampler()`` until the wire is watched.

        Watching is a new :meth:`on_change` subscriber, a :meth:`drive` or
        a :meth:`watch` call (an interceptor taking the signal). Each first
        calls ``on_watch()``, which must :meth:`unserve` the wire and go back
        to driving it; the subscriber is added, or the drive applied, after.
        """
        self._sampler = sampler
        self._on_watch = on_watch

    def unserve(self) -> None:
        """Stop serving: keep the sampler's current value, silently."""
        sampler = self._sampler
        if sampler is not None:
            self._value = float(sampler())
            self._sampler = None
            self._on_watch = None

    def watch(self) -> None:
        """Declare an observer outside :meth:`on_change`; ends serving."""
        on_watch = self._on_watch
        if on_watch is not None:
            on_watch()

    def on_change(self, callback: Callable[["AnalogWire", float, int], Any]) -> None:
        self.watch()
        self._subscribers.append(callback)

    def drive(self, value: float) -> None:
        self.watch()
        value = float(value)
        if value == self._value:
            return
        self._value = value
        now = self.sim.now
        for callback in list(self._subscribers):
            callback(self, value, now)
