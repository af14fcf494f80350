"""NTC thermistor channel: temperature → divider voltage → ADC counts.

RAMPS thermistor inputs are a 100 kΩ NTC against a 4.7 kΩ pull-up to 5 V,
read by the Mega's 10-bit ADC. Both directions of the conversion live here:
the plant drives the analog wire with the divider voltage for the current
temperature, and the firmware converts sampled counts back to °C. Using the
same β-model on both sides makes the loop exact up to ADC quantisation —
matching how Marlin's thermistor tables work in practice.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

from repro.errors import ElectronicsError
from repro.sim.signals import AnalogWire

if TYPE_CHECKING:
    from repro.electronics.harness import SignalPath
    from repro.physics.thermal import ThermalNode
    from repro.sim.kernel import SampleClock

_R_NOMINAL_OHM = 100_000.0  # thermistor resistance at 25 C
_T_NOMINAL_K = 298.15
_BETA = 4092.0  # EPCOS 100k (Marlin thermistor table 1)
_R_PULLUP_OHM = 4_700.0
_V_REF = 5.0
_ADC_MAX = 1023  # 10-bit


def thermistor_resistance(temp_c: float) -> float:
    """NTC resistance at ``temp_c`` via the β parameter equation."""
    t_kelvin = temp_c + 273.15
    if t_kelvin <= 0:
        raise ElectronicsError(f"temperature {temp_c}C below absolute zero")
    return _R_NOMINAL_OHM * math.exp(_BETA * (1.0 / t_kelvin - 1.0 / _T_NOMINAL_K))


def divider_voltage(temp_c: float) -> float:
    """Voltage at the thermistor/pull-up junction for ``temp_c``."""
    r_therm = thermistor_resistance(temp_c)
    return _V_REF * r_therm / (r_therm + _R_PULLUP_OHM)


def temp_to_adc(temp_c: float) -> int:
    """ADC counts the firmware would read at ``temp_c`` (quantised)."""
    counts = round(divider_voltage(temp_c) / _V_REF * _ADC_MAX)
    return max(0, min(_ADC_MAX, counts))


def adc_to_temp(counts: int) -> float:
    """Invert the divider + β model: ADC counts → °C.

    Counts at the rails (0 or full-scale) indicate a shorted or open sensor;
    Marlin treats those as MINTEMP/MAXTEMP faults, so we return extreme
    values the protection logic will reject.
    """
    if counts <= 0:
        return 500.0  # open pull-up side: reads as absurdly hot
    if counts >= _ADC_MAX:
        return -50.0  # open thermistor: reads as absurdly cold
    voltage = counts / _ADC_MAX * _V_REF
    r_therm = _R_PULLUP_OHM * voltage / (_V_REF - voltage)
    inv_t = 1.0 / _T_NOMINAL_K + math.log(r_therm / _R_NOMINAL_OHM) / _BETA
    return 1.0 / inv_t - 273.15


def voltage_to_adc(voltage: float) -> int:
    """Quantise a wire voltage to ADC counts (what the Mega's ADC does)."""
    counts = round(voltage / _V_REF * _ADC_MAX)
    return max(0, min(_ADC_MAX, counts))


class ThermistorChannel:
    """Binds a temperature source to an analog harness wire.

    :meth:`refresh` samples the source and drives the wire; the firmware side
    reads the wire and quantises with :func:`voltage_to_adc`. Instead of
    being refreshed by a periodic event, a channel can :meth:`serve` its
    signal from a thermal node's sample grid: every read then returns the
    voltage at the latest refresh instant the clock has passed, computed
    on demand.
    """

    def __init__(self, name: str, wire: AnalogWire, read_temp_c) -> None:
        self.name = name
        self.wire = wire
        self._read_temp_c = read_temp_c
        self._served: Optional[Tuple["SignalPath", "ThermalNode"]] = None

    def refresh(self) -> float:
        """Sample the temperature source and update the wire voltage."""
        temp_c = self._read_temp_c()
        self.wire.drive(divider_voltage(temp_c))
        return temp_c

    def serve(
        self,
        path: "SignalPath",
        node: "ThermalNode",
        clock: "SampleClock",
        on_watch: Callable[[], Any],
    ) -> None:
        """Answer both wires of ``path`` from ``node``'s grid on ``clock``.

        ``on_watch`` runs when anything starts watching either wire (see
        :meth:`AnalogWire.serve`); it must call :meth:`unserve`.
        """
        node.start_grid(clock)

        def sample() -> float:
            return divider_voltage(node.grid_temperature_c())

        path.upstream.serve(sample, on_watch)
        path.downstream.serve(sample, on_watch)
        self._served = (path, node)

    def unserve(self) -> None:
        """Pin both wires at the latest refresh and stop serving."""
        if self._served is None:
            return
        path, node = self._served
        self._served = None
        path.upstream.unserve()
        path.downstream.unserve()
        node.stop_grid()
