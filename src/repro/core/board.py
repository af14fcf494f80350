"""The OFFRAMPS board: jumper banks and the Trojan-control signal mux.

Per signal, the jumpers select one of the paper's Figure 3 paths:

* **BYPASS** — the harness forwards directly (Figure 3a). Passive capture
  taps still see everything (Figure 3c), since recording never claims a
  signal.
* **FPGA** — the signal is intercepted and re-driven by the fabric
  (Figure 3b): every upstream event is offered to the enabled Trojans in
  registration order; the first one that claims it decides (drop / replace /
  pass), and the result is forwarded downstream after the propagation delay.
  Trojans may also *inject* events the Arduino never produced.

A run of STEP pulses may cross the mux in one piece when every Trojan on
the signal has a batch handler: each handler keeps a subset of the pulses it
is offered and names the twins it injects, and the board delivers the kept
pulses (delayed) merged with the injected ones in one downstream batch.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.electronics.harness import SignalHarness, SignalPath
from repro.electronics.pins import SignalKind
from repro.errors import OfframpsError
from repro.core.fpga import FpgaFabric
from repro.sim.kernel import Simulator

_OWNER = "offramps"


class JumperMode(enum.Enum):
    """Position of one signal's jumper bank."""

    BYPASS = "bypass"
    FPGA = "fpga"


class TrojanAction:
    """What a Trojan wants done with one intercepted event."""

    __slots__ = ("kind", "value")

    PASS = "pass"
    DROP = "drop"
    REPLACE = "replace"

    def __init__(self, kind: str, value: Optional[float] = None) -> None:
        self.kind = kind
        self.value = value

    @classmethod
    def passthrough(cls) -> "TrojanAction":
        return cls(cls.PASS)

    @classmethod
    def drop(cls) -> "TrojanAction":
        return cls(cls.DROP)

    @classmethod
    def replace(cls, value: float) -> "TrojanAction":
        return cls(cls.REPLACE, value)


class OfframpsBoard:
    """The MITM platform, installed in a harness."""

    def __init__(self, sim: Simulator, harness: SignalHarness, fabric: Optional[FpgaFabric] = None) -> None:
        self.sim = sim
        self.harness = harness
        self.fabric = fabric or FpgaFabric(sim)
        self._modes: Dict[str, JumperMode] = {name: JumperMode.BYPASS for name in harness.paths}
        # Per signal, (handler, batch handler or None) in registration order.
        self._interceptors: Dict[str, List[Tuple[Callable, Optional[Callable]]]] = {}
        self.events_intercepted = 0
        self.events_dropped = 0
        self.events_replaced = 0
        self.events_injected = 0

    # ------------------------------------------------------------------
    # Jumper configuration
    # ------------------------------------------------------------------
    def mode(self, signal: str) -> JumperMode:
        try:
            return self._modes[signal]
        except KeyError:
            raise OfframpsError(f"no such signal on the board: {signal!r}") from None

    def set_mode(self, signal: str, mode: JumperMode) -> None:
        """Move one signal's jumpers (only while that signal is quiescent)."""
        current = self.mode(signal)
        if current is mode:
            return
        path = self.harness.path(signal)
        if mode is JumperMode.FPGA:
            path.install_interceptor(
                _OWNER,
                self._on_intercepted,
                batch=self._on_intercepted_batch,
                ready=self._intercepted_batch_ready,
                latency_ns=self.fabric.delay_ns,
            )
        else:
            path.remove_interceptor(_OWNER)
        self._modes[signal] = mode

    def route_through_fpga(self, signals: Iterable[str]) -> None:
        for signal in signals:
            self.set_mode(signal, JumperMode.FPGA)

    def intercepted_signals(self) -> List[str]:
        return sorted(
            name for name, mode in self._modes.items() if mode is JumperMode.FPGA
        )

    # ------------------------------------------------------------------
    # Trojan-control mux
    # ------------------------------------------------------------------
    def register_interceptor(
        self,
        signal: str,
        handler: Callable[[SignalPath, str, float, int], TrojanAction],
        batch: Optional[Callable] = None,
    ) -> None:
        """Attach Trojan logic to an FPGA-routed signal.

        ``handler(path, kind, value, time_ns)`` returns a
        :class:`TrojanAction`. Handlers are consulted in registration order;
        the first non-PASS action wins (the paper's output mux).

        ``batch(path, times_ns, width_ns)`` optionally handles a run of
        upstream STEP pulses at once. It returns ``(passed, injected)``: the
        upstream times of the pulses it lets through (the later handlers see
        only these) and the times of any pulses it injects, and it updates
        its own state exactly as ``handler`` would once per pulse. A signal
        with any handler lacking ``batch`` takes every pulse individually.
        """
        self._interceptors.setdefault(signal, []).append((handler, batch))

    def unregister_interceptor(self, signal: str, handler: Callable) -> None:
        handlers = self._interceptors.get(signal, [])
        for index, (registered, _batch) in enumerate(handlers):
            if registered == handler:
                del handlers[index]
                return

    def _on_intercepted(self, path: SignalPath, kind: str, value: float, time_ns: int) -> None:
        self.events_intercepted += 1
        action = TrojanAction.passthrough()
        for handler, _batch in self._interceptors.get(path.spec.name, ()):
            candidate = handler(path, kind, value, time_ns)
            if candidate is not None and candidate.kind != TrojanAction.PASS:
                action = candidate
                break
        if action.kind == TrojanAction.DROP:
            self.events_dropped += 1
            return
        out_value = value if action.kind == TrojanAction.PASS else action.value
        if action.kind == TrojanAction.REPLACE:
            self.events_replaced += 1
        self._drive_downstream(path, kind, out_value)

    def _intercepted_batch_ready(self, path: SignalPath, count: int) -> bool:
        handlers = self._interceptors.get(path.spec.name, ())
        if any(batch is None for _handler, batch in handlers):
            return False
        # Each handler injects at most one twin per pulse it is offered, so
        # count * (handlers + 1) bounds the downstream batch; ``ready``
        # predicates approve every shorter run of one they approve.
        return path.downstream.batch_ready(count * (len(handlers) + 1))

    def _on_intercepted_batch(self, path: SignalPath, times_ns: np.ndarray, width_ns: int) -> None:
        """The mux for a run of STEP pulses: :meth:`_on_intercepted` per pulse, in bulk."""
        self.events_intercepted += len(times_ns)
        injected = []
        for _handler, batch in self._interceptors.get(path.spec.name, ()):
            passed, extra = batch(path, times_ns, width_ns)
            self.events_dropped += len(times_ns) - len(passed)
            if len(extra):
                injected.append(extra)
            times_ns = passed
        out = self.fabric.forward_times(times_ns)
        if injected:
            self.events_injected += sum(len(extra) for extra in injected)
            out = np.sort(np.concatenate([out, *injected]))
        path.downstream.pulse_batch(out, width_ns)

    def _drive_downstream(self, path: SignalPath, kind: str, value: float) -> None:
        if kind == "pulse":
            self.fabric.forward(lambda: path.downstream.pulse(int(value)))
        else:
            self.fabric.forward(lambda: path.downstream.drive(value))

    # ------------------------------------------------------------------
    # Injection (events the Arduino never sent)
    # ------------------------------------------------------------------
    def inject_pulse(self, signal: str, width_ns: int = 2_000) -> None:
        """Emit one pulse on the downstream side of a step signal."""
        path = self.harness.path(signal)
        if path.spec.kind is not SignalKind.STEP:
            raise OfframpsError(f"inject_pulse on non-step signal {signal!r}")
        self.events_injected += 1
        path.downstream.pulse(width_ns)

    def inject_level(self, signal: str, value: float) -> None:
        """Drive a level/duty value on the downstream side of a signal."""
        path = self.harness.path(signal)
        if path.spec.kind is SignalKind.STEP:
            raise OfframpsError(f"inject_level on step signal {signal!r}")
        self.events_injected += 1
        path.downstream.drive(value)

    def downstream_level(self, signal: str) -> float:
        """Read a downstream wire's current level/duty (for Trojan logic)."""
        path = self.harness.path(signal)
        wire = path.downstream
        return wire.duty if path.spec.kind is SignalKind.PWM else wire.value
