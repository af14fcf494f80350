"""The Arduino↔RAMPS signal harness with a per-signal interposition seam.

Each logical signal owns two wires: an *upstream* wire driven by the signal's
source (the Arduino for control outputs, the RAMPS for sensor feedback) and a
*downstream* wire seen by its sink. In the stock configuration the harness
mirrors upstream onto downstream — the unmodified signal chain of the paper's
Figure 3a. Installing an interceptor on a :class:`SignalPath` re-routes the
signal through arbitrary logic — the FPGA of Figures 3b/3c. Passive taps can
be attached on either side without claiming the path (the pulse-capture
configuration), and injection directly onto the downstream wire models the
FPGA generating pulses the Arduino never sent.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.errors import OfframpsError
from repro.sim.kernel import Simulator
from repro.sim.signals import AnalogWire, DigitalWire, PwmWire, StepWire
from repro.electronics.pins import SIGNALS, SignalKind, SignalSpec


class SignalPath:
    """One interposable signal: upstream wire, downstream wire, optional MITM.

    Without an interceptor, events forward unchanged (zero added latency —
    a solder-bridged jumper). With one, the interceptor receives every
    upstream event and is responsible for driving (or withholding from) the
    downstream wire; on a STEP signal it may also take whole runs of pulses
    (see :meth:`install_interceptor`).
    """

    def __init__(self, sim: Simulator, spec: SignalSpec) -> None:
        self.sim = sim
        self.spec = spec
        self.upstream = self._make_wire(sim, spec, side="up")
        self.downstream = self._make_wire(sim, spec, side="down")
        self._interceptor: Optional[Callable] = None
        self._interceptor_owner: Optional[str] = None
        self._interceptor_batch: Optional[Callable] = None
        self._interceptor_ready: Optional[Callable[["SignalPath", int], bool]] = None
        self.latency_ns = 0
        self._attach_forwarder()

    @staticmethod
    def _make_wire(sim: Simulator, spec: SignalSpec, side: str):
        name = f"{spec.name}.{side}"
        if spec.kind is SignalKind.STEP:
            return StepWire(sim, name)
        if spec.kind is SignalKind.DIGITAL:
            return DigitalWire(sim, name)
        if spec.kind is SignalKind.PWM:
            return PwmWire(sim, name)
        return AnalogWire(sim, name)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _attach_forwarder(self) -> None:
        kind = self.spec.kind
        if kind is SignalKind.STEP:
            self.upstream.on_pulse(
                self._on_step,
                batch=self._on_step_batch,
                ready=self._step_batch_ready,
            )
        elif kind is SignalKind.DIGITAL:
            self.upstream.on_edge(self._on_level)
        elif kind is SignalKind.PWM:
            self.upstream.on_change(self._on_value)
        else:
            self.upstream.on_change(self._on_value)

    def _on_step(self, _wire: StepWire, time_ns: int, width_ns: int) -> None:
        if self._interceptor is not None:
            self._interceptor(self, "pulse", width_ns, time_ns)
        else:
            self.downstream.pulse(width_ns)

    def _step_batch_ready(self, count: int) -> bool:
        # The bypass jumper is batch-ready when its sink is; an interceptor
        # (the FPGA Trojan mux) decides for itself, and one installed
        # without a batch handler takes every pulse individually.
        if self._interceptor is None:
            return self.downstream.batch_ready(count)
        ready = self._interceptor_ready
        return ready is not None and ready(self, count)

    def _on_step_batch(self, _wire: StepWire, times_ns, width_ns: int) -> None:
        if self._interceptor is None:
            self.downstream.pulse_batch(times_ns, width_ns)
        else:
            self._interceptor_batch(self, times_ns, width_ns)

    def _on_level(self, _wire: DigitalWire, value: int, time_ns: int) -> None:
        if self._interceptor is not None:
            self._interceptor(self, "level", value, time_ns)
        else:
            self.downstream.drive(value)

    def _on_value(self, _wire, value: float, time_ns: int) -> None:
        if self._interceptor is not None:
            self._interceptor(self, "value", value, time_ns)
        else:
            self.downstream.drive(value)

    # ------------------------------------------------------------------
    # Interceptor management (the MITM jumper position)
    # ------------------------------------------------------------------
    @property
    def intercepted(self) -> bool:
        return self._interceptor is not None

    def install_interceptor(
        self,
        owner: str,
        handler: Callable,
        *,
        batch: Optional[Callable] = None,
        ready: Optional[Callable[["SignalPath", int], bool]] = None,
        latency_ns: int = 0,
    ) -> None:
        """Route this signal through ``handler(path, kind, value, time_ns)``.

        ``kind`` is ``"pulse"``, ``"level"``, or ``"value"``; the handler must
        drive ``path.downstream`` itself if the event should propagate.

        On a STEP signal, ``batch(path, times_ns, width_ns)`` takes a whole
        run of upstream pulses at once whenever ``ready(path, count)``
        approves; it must be observably identical to ``handler`` once per
        pulse. Without ``ready`` every pulse goes to ``handler``.
        ``latency_ns`` is how long after an upstream pulse its downstream
        effect lands: bulk emitters end their windows that much before the
        next pending kernel event.
        """
        if self._interceptor is not None and self._interceptor_owner != owner:
            raise OfframpsError(
                f"signal {self.spec.name} already intercepted by {self._interceptor_owner!r}"
            )
        if self.spec.kind is SignalKind.ANALOG:
            self.upstream.watch()  # a served sensor goes back to being driven
        self._interceptor = handler
        self._interceptor_owner = owner
        self._interceptor_batch = batch
        self._interceptor_ready = ready
        self.latency_ns = latency_ns

    def remove_interceptor(self, owner: str) -> None:
        """Return the signal to the direct-bypass configuration."""
        if self._interceptor is None:
            return
        if self._interceptor_owner != owner:
            raise OfframpsError(
                f"signal {self.spec.name} intercepted by {self._interceptor_owner!r}, "
                f"not {owner!r}"
            )
        self._interceptor = None
        self._interceptor_owner = None
        self._interceptor_batch = None
        self._interceptor_ready = None
        self.latency_ns = 0
        self._resync()

    def _resync(self) -> None:
        """After removing an interceptor, re-align downstream level signals."""
        kind = self.spec.kind
        if kind is SignalKind.DIGITAL:
            self.downstream.drive(self.upstream.value)
        elif kind in (SignalKind.PWM, SignalKind.ANALOG):
            self.downstream.drive(self.upstream.duty if kind is SignalKind.PWM else self.upstream.value)


class SignalHarness:
    """The full bundle of interposable signals between the two boards."""

    def __init__(self, sim: Simulator, names: Optional[Iterable[str]] = None) -> None:
        self.sim = sim
        self.paths: Dict[str, SignalPath] = {}
        for name in names if names is not None else SIGNALS:
            spec = SIGNALS.get(name)
            if spec is None:
                raise OfframpsError(f"unknown signal {name!r}")
            self.paths[name] = SignalPath(sim, spec)

    def path(self, name: str) -> SignalPath:
        """The :class:`SignalPath` for signal ``name``."""
        try:
            return self.paths[name]
        except KeyError:
            raise OfframpsError(f"harness does not carry signal {name!r}") from None

    def upstream(self, name: str):
        """The source-side wire of signal ``name`` (what the Arduino drives)."""
        return self.path(name).upstream

    def downstream(self, name: str):
        """The sink-side wire of signal ``name`` (what the RAMPS sees)."""
        return self.path(name).downstream

    def __contains__(self, name: str) -> bool:
        return name in self.paths

    def __iter__(self):
        return iter(self.paths.values())
