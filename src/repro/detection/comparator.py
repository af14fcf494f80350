"""The transaction comparator: 5 % margin + final 0 % check.

"A Python script compares a newly captured print against a 'golden' model.
Should a mismatch outside of the 5% margin of error occur the transaction
number and mismatching values are printed. At the termination of the capture
file the script then gives a report stating the total number of mismatches,
the greatest error found, and the total number of captured transactions."

The per-transaction relative difference uses the golden value as reference
with a small absolute floor, so early transactions (tiny counts) do not
produce spurious percentage blow-ups. The end-of-print check compares final
totals exactly — the 0 % margin that catches arbitrarily small reductions
(Table II case 4's 2 % starvation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.capture import COLUMNS, PulseCapture, Transaction
from repro.detection.report import DetectionReport
from repro.errors import DetectionError

DEFAULT_MARGIN = 0.05
"""The paper's 5 % margin of error."""

DEFAULT_FLOOR_STEPS = 400
"""Absolute denominator floor (steps) for the relative comparison."""


@dataclass(frozen=True)
class Mismatch:
    """One out-of-margin transaction entry."""

    index: int
    column: str
    golden_value: int
    suspect_value: int
    percent_diff: float

    def render(self) -> str:
        return (
            f"Index: {self.index}, Column: {self.column}, "
            f"Values: {self.golden_value}, {self.suspect_value}"
        )


def step_matrix(transactions: Sequence[Transaction]) -> np.ndarray:
    """The transactions' X/Y/Z/E step counts as an (n, 4) int64 matrix."""
    return np.array(
        [(t.x, t.y, t.z, t.e) for t in transactions], dtype=np.int64
    ).reshape(-1, len(COLUMNS))


class CaptureComparator:
    """Compares a suspect capture against a golden capture."""

    def __init__(
        self,
        margin: float = DEFAULT_MARGIN,
        floor_steps: int = DEFAULT_FLOOR_STEPS,
        final_check: bool = True,
    ) -> None:
        if not 0.0 <= margin < 1.0:
            raise DetectionError(f"margin must be in [0, 1), got {margin}")
        if floor_steps < 1:
            raise DetectionError("floor_steps must be >= 1")
        self.margin = margin
        self.floor_steps = floor_steps
        self.final_check = final_check

    # ------------------------------------------------------------------
    def percent_diff(self, golden_value: int, suspect_value: int) -> float:
        """Relative difference against the golden reference (floored)."""
        denom = max(abs(golden_value), self.floor_steps)
        return abs(suspect_value - golden_value) / denom

    def compare_transaction(
        self, golden: Transaction, suspect: Transaction
    ) -> List[Mismatch]:
        """Out-of-margin columns for one aligned transaction pair."""
        mismatches: List[Mismatch] = []
        for column in COLUMNS:
            g, s = golden.value(column), suspect.value(column)
            diff = self.percent_diff(g, s)
            if diff > self.margin:
                mismatches.append(Mismatch(golden.index, column, g, s, diff * 100.0))
        return mismatches

    # ------------------------------------------------------------------
    def compare(
        self,
        golden: Sequence[Transaction],
        suspect: Sequence[Transaction],
    ) -> DetectionReport:
        """Full comparison: per-transaction margin pass + final exact check.

        The margin pass runs over (n, 4) step-count matrices; it reports the
        same mismatches, in transaction-then-column order, and the same
        floats as comparing transaction by transaction.
        """
        golden_list = list(golden)
        suspect_list = list(suspect)
        if not golden_list:
            raise DetectionError("golden capture is empty")
        if not suspect_list:
            raise DetectionError("suspect capture is empty")

        compared = min(len(golden_list), len(suspect_list))
        g_counts = step_matrix(golden_list[:compared])
        s_counts = step_matrix(suspect_list[:compared])
        # Counts stay far below 2**53, so float64 division of the int64
        # matrices rounds exactly like Python's int / int.
        diffs = np.abs(s_counts - g_counts) / np.maximum(np.abs(g_counts), self.floor_steps)
        percents = diffs * 100.0
        largest = max(0.0, percents.max().item())
        rows, cols = np.nonzero(diffs > self.margin)  # row-major: transaction order
        mismatches = [
            Mismatch(golden_list[row].index, COLUMNS[col], g, s, percent)
            for row, col, g, s, percent in zip(
                rows.tolist(),
                cols.tolist(),
                g_counts[rows, cols].tolist(),
                s_counts[rows, cols].tolist(),
                percents[rows, cols].tolist(),
            )
        ]

        final_mismatches: List[Mismatch] = []
        if self.final_check:
            g_final, s_final = golden_list[-1], suspect_list[-1]
            for column in COLUMNS:
                if g_final.value(column) != s_final.value(column):
                    final_mismatches.append(
                        Mismatch(
                            g_final.index,
                            column,
                            g_final.value(column),
                            s_final.value(column),
                            self.percent_diff(
                                g_final.value(column), s_final.value(column)
                            )
                            * 100.0,
                        )
                    )

        return DetectionReport(
            margin_percent=self.margin * 100.0,
            transactions_compared=compared,
            mismatches=mismatches,
            final_mismatches=final_mismatches,
            largest_percent_diff=largest,
            golden_length=len(golden_list),
            suspect_length=len(suspect_list),
        )

    def compare_captures(
        self, golden: PulseCapture, suspect: PulseCapture
    ) -> DetectionReport:
        return self.compare(golden.transactions, suspect.transactions)
