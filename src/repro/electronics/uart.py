"""UART framing for the FPGA's telemetry export.

The paper's monitoring design sends "a 16-byte transaction containing step
counts for all of the motors each 0.1 seconds". We pack the four signed step
counters as big-endian int32s — exactly 16 bytes — with the transaction index
implicit in arrival order, matching the capture format of Figure 4 where the
index is the row number.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional, Tuple

from repro.errors import CaptureError

_FRAME_STRUCT = struct.Struct(">iiii")
FRAME_SIZE_BYTES = _FRAME_STRUCT.size  # 16
assert FRAME_SIZE_BYTES == 16


def pack_step_counts(x: int, y: int, z: int, e: int) -> bytes:
    """Encode four signed step counters into one 16-byte frame."""
    try:
        return _FRAME_STRUCT.pack(x, y, z, e)
    except struct.error as exc:
        raise CaptureError(f"step count out of int32 range: {(x, y, z, e)}") from exc


def unpack_step_counts(frame: bytes) -> Tuple[int, int, int, int]:
    """Decode a 16-byte frame back into (x, y, z, e)."""
    if len(frame) != FRAME_SIZE_BYTES:
        raise CaptureError(f"UART frame must be {FRAME_SIZE_BYTES} bytes, got {len(frame)}")
    return _FRAME_STRUCT.unpack(frame)


class UartBus:
    """A byte-frame channel with timestamped delivery to listeners.

    Models the FPGA→host serial link. Bandwidth is not enforced here; the
    paper's identified limitation (no high-speed interface) is studied in the
    UART-period ablation instead.

    One sender may hold its frames back while every listener is
    ``deferred`` (one that reads what it received only later, such as a
    capture): it registers with :meth:`defer_sends`, and a deferred listener
    calls :meth:`pull` before reading. The first live listener makes the
    sender send each frame at its own time again.
    """

    def __init__(self, name: str = "uart") -> None:
        self.name = name
        self._listeners: List[Callable[[int, bytes], None]] = []
        self.frames_sent = 0
        self.live = False
        self._pull: Optional[Callable[[], None]] = None
        self._go_live: Optional[Callable[[], None]] = None

    def on_frame(self, callback: Callable[[int, bytes], None], *, deferred: bool = False) -> None:
        """Subscribe ``callback(time_ns, frame_bytes)`` to transmissions.

        ``deferred=True`` declares a listener that calls :meth:`pull` before
        it reads anything it has received; any other listener is live. The
        first live one makes a held-back sender catch up first, so it sees
        only frames sent from now on.
        """
        if not deferred and not self.live:
            self.live = True
            if self._go_live is not None:
                self._go_live()
        self._listeners.append(callback)

    def defer_sends(self, pull: Callable[[], None], go_live: Callable[[], None]) -> None:
        """Register a sender that may hold frames back while no listener is live.

        ``pull()`` must send every frame due by now; ``go_live()`` runs when
        the first live listener subscribes.
        """
        if self._pull is not None:
            raise CaptureError(f"UART bus {self.name!r} already has a deferring sender")
        self._pull = pull
        self._go_live = go_live

    def pull(self) -> None:
        """Have the deferring sender send the frames due by now."""
        if self._pull is not None:
            self._pull()

    def send(self, time_ns: int, frame: bytes) -> None:
        """Transmit one frame to all listeners."""
        self.frames_sent += 1
        for listener in list(self._listeners):
            listener(time_ns, frame)
