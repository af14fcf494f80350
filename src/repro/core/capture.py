"""Pulse capture: recording the UART transaction stream (Figure 4 format).

A :class:`PulseCapture` listens on the UART bus, decodes each 16-byte frame
into a :class:`Transaction`, and assigns sequential indices. CSV I/O uses the
column layout of the paper's Figure 4 excerpts, optionally extended with a
``Time_ns`` column so a save/load round-trip preserves timestamps::

    Index, X, Y, Z, E, Time_ns
    5113, 6060, 8266, 960, 52843, 511300000000
    ...

:func:`load_capture_csv` accepts both the bare Figure-4 layout and the
extended one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.electronics.uart import UartBus, unpack_step_counts
from repro.errors import CaptureError

COLUMNS = ("X", "Y", "Z", "E")


@dataclass(frozen=True)
class Transaction:
    """One exported step-count snapshot."""

    index: int
    x: int
    y: int
    z: int
    e: int
    time_ns: int = 0

    def value(self, column: str) -> int:
        try:
            return {"X": self.x, "Y": self.y, "Z": self.z, "E": self.e}[column.upper()]
        except KeyError:
            raise CaptureError(f"unknown column {column!r}") from None

    def as_row(self) -> str:
        return f"{self.index}, {self.x}, {self.y}, {self.z}, {self.e}"


class PulseCapture:
    """Accumulates the transaction stream of one print."""

    def __init__(self, bus: Optional[UartBus] = None, start_index: int = 1) -> None:
        self._transactions: List[Transaction] = []
        self._next_index = start_index
        self._bus = bus
        if bus is not None:
            bus.on_frame(self._on_frame, deferred=True)

    @property
    def transactions(self) -> List[Transaction]:
        """Every transaction captured, those due on the bus by now included."""
        if self._bus is not None:
            self._bus.pull()
        return self._transactions

    def _on_frame(self, time_ns: int, frame: bytes) -> None:
        x, y, z, e = unpack_step_counts(frame)
        self._transactions.append(
            Transaction(self._next_index, x, y, z, e, time_ns=time_ns)
        )
        self._next_index += 1

    def append(self, transaction: Transaction) -> None:
        """Append an externally produced transaction.

        Keeps index allocation in sync so later bus frames never reuse an
        index already present in the capture.
        """
        if self._bus is not None:
            self._bus.pull()  # frames held back on the bus come first
        self._transactions.append(transaction)
        self._next_index = max(self._next_index, transaction.index + 1)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self):
        return iter(self.transactions)

    def __getitem__(self, i):
        return self.transactions[i]

    @property
    def final(self) -> Optional[Transaction]:
        """The last transaction (the end-of-print totals)."""
        return self.transactions[-1] if self.transactions else None

    def excerpt(self, start_index: int, count: int) -> List[Transaction]:
        """Transactions with ``index`` in [start_index, start_index+count)."""
        return [
            t
            for t in self.transactions
            if start_index <= t.index < start_index + count
        ]

    def render(self, transactions: Optional[Iterable[Transaction]] = None) -> str:
        """Figure-4-style text rendering."""
        rows = ["Index, X, Y, Z, E"]
        rows.extend(t.as_row() for t in (transactions if transactions is not None else self))
        return "\n".join(rows)


def save_capture_csv(capture: PulseCapture, path, include_time: bool = True) -> None:
    """Write a capture to disk in the Figure 4 CSV layout.

    ``include_time`` (the default) appends the ``Time_ns`` column so a
    round-trip through :func:`load_capture_csv` preserves timestamps; pass
    ``False`` for the bare five-column layout of the paper's excerpts.
    """
    with open(path, "w", encoding="utf-8") as handle:
        if include_time:
            handle.write("Index, X, Y, Z, E, Time_ns\n")
            for t in capture:
                handle.write(f"{t.as_row()}, {t.time_ns}\n")
        else:
            handle.write(capture.render())
            handle.write("\n")


def load_capture_csv(path) -> PulseCapture:
    """Read a capture previously written by :func:`save_capture_csv`."""
    capture = PulseCapture()
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise CaptureError(f"empty capture file: {path}")
    header = [col.strip().upper() for col in lines[0].split(",")]
    if header not in (
        ["INDEX", "X", "Y", "Z", "E"],
        ["INDEX", "X", "Y", "Z", "E", "TIME_NS"],
    ):
        raise CaptureError(f"unexpected capture header {lines[0]!r}")
    width = len(header)
    for line in lines[1:]:
        fields = [field.strip() for field in line.split(",")]
        if len(fields) != width:
            raise CaptureError(f"malformed capture row {line!r}")
        try:
            values = [int(field) for field in fields]
        except ValueError as exc:
            raise CaptureError(f"non-integer capture row {line!r}") from exc
        index, x, y, z, e = values[:5]
        time_ns = values[5] if width == 6 else 0
        capture.append(Transaction(index, x, y, z, e, time_ns=time_ns))
    return capture
