"""Trojan control module: enable logic and the output multiplexer.

"Trojan Control Module has logic to enable or disable each of the Trojans,
along with control units for each Trojan. The modified signals produced by
this module are multiplexed with the original control signals so the Trojans
can be dynamically activated or deactivated" (Section IV-B).

:class:`TrojanControl` owns a set of Trojan instances, routes their required
signals through the FPGA when enabled, registers their interceptors with the
board's mux, and tears everything down on disable — the dynamic (de)activation
the paper highlights.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.trojans.base import Trojan, TrojanContext
from repro.errors import OfframpsError


class TrojanControl:
    """Lifecycle manager for the Trojans loaded into the fabric."""

    def __init__(self, context: TrojanContext) -> None:
        self.context = context
        self._trojans: Dict[str, Trojan] = {}
        self._enabled: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    def load(self, trojan: Trojan) -> None:
        """Install a Trojan into the fabric (initially disabled)."""
        if trojan.trojan_id in self._trojans:
            raise OfframpsError(f"trojan {trojan.trojan_id} already loaded")
        self._trojans[trojan.trojan_id] = trojan
        self._enabled[trojan.trojan_id] = False
        trojan.attach(self.context)

    def enable(self, trojan_id: str) -> None:
        """Route the Trojan's signals through the FPGA and activate it."""
        trojan = self._get(trojan_id)
        if self._enabled[trojan_id]:
            return
        board = self.context.board
        board.route_through_fpga(trojan.signals_intercepted)
        for signal in trojan.signals_intercepted:
            board.register_interceptor(signal, trojan.on_event, trojan.on_batch)
        trojan.activate()
        self._enabled[trojan_id] = True

    def disable(self, trojan_id: str) -> None:
        """Deactivate a Trojan and detach its interceptors.

        Signals stay routed through the FPGA (moving jumpers mid-print is a
        physical act); with no interceptor registered the mux forwards
        unchanged, which is electrically equivalent to bypass plus the
        propagation delay.
        """
        trojan = self._get(trojan_id)
        if not self._enabled[trojan_id]:
            return
        trojan.deactivate()
        for signal in trojan.signals_intercepted:
            self.context.board.unregister_interceptor(signal, trojan.on_event)
        self._enabled[trojan_id] = False

    # ------------------------------------------------------------------
    def _get(self, trojan_id: str) -> Trojan:
        try:
            return self._trojans[trojan_id]
        except KeyError:
            raise OfframpsError(f"trojan {trojan_id!r} is not loaded") from None

    def enabled_ids(self) -> List[str]:
        return sorted(tid for tid, on in self._enabled.items() if on)

    def trojan(self, trojan_id: str) -> Trojan:
        return self._get(trojan_id)

    def __contains__(self, trojan_id: str) -> bool:
        return trojan_id in self._trojans
