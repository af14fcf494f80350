"""Cross-commit dispatch pin: the smoke grid's sessions, event for event.

Parity tests elsewhere compare two paths *within* one commit (fast vs
precise, serial vs distributed). This one compares against a committed
ground truth: for every unique session of the ``smoke`` grid it pins the
status, the kernel's ``events_dispatched``, the final simulated time, the
per-axis step totals, a digest of every captured UART transaction and a
digest of every deposition-trace sample (the plant's 20 ms head/extruder
positions). A refactor of the kernel, the stepper or the wire fan-out
that moves a single scheduling decision changes at least one of these
numbers.

The pin file is ``tests/data/smoke_dispatch_pin.json``. Regenerate it
only for a change that is *meant* to alter simulated behaviour::

    PYTHONPATH=src python tests/test_dispatch_pin.py --write
"""

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from repro.experiments.batch import run_sessions
from repro.experiments.scenario import compile_scenario, grid_scenarios

PIN_PATH = Path(__file__).parent / "data" / "smoke_dispatch_pin.json"
GRID = "smoke"


def _transactions_sha256(transactions) -> str:
    digest = hashlib.sha256()
    for t in transactions:
        digest.update(f"{t.index},{t.x},{t.y},{t.z},{t.e},{t.time_ns}\n".encode())
    return digest.hexdigest()


def _trace_sha256(samples) -> str:
    digest = hashlib.sha256()
    for s in samples:
        digest.update(f"{s.time_ns},{s.x_mm!r},{s.y_mm!r},{s.z_mm!r},{s.e_mm!r}\n".encode())
    return digest.hexdigest()


def observed() -> Dict[str, Dict]:
    """Simulate each unique smoke session once; key the outcome by content key."""
    specs = []
    seen = set()
    for scenario in grid_scenarios(GRID):
        for spec in compile_scenario(scenario):
            if spec.content_key() not in seen:
                seen.add(spec.content_key())
                specs.append(spec)
    summaries = run_sessions(specs, workers=1, cache=None, strict=True)
    return {
        spec.content_key(): {
            "label": spec.label,
            "status": summary.status.name,
            "events_dispatched": summary.events_dispatched,
            "end_time_ns": summary.end_time_ns,
            "final_counts": dict(sorted(summary.final_counts.items())),
            "transactions": len(summary.transactions),
            "transactions_sha256": _transactions_sha256(summary.transactions),
            "trace_samples": len(summary.trace.samples),
            "trace_sha256": _trace_sha256(summary.trace.samples),
        }
        for spec, summary in zip(specs, summaries)
    }


def test_smoke_sessions_match_pin():
    pinned = json.loads(PIN_PATH.read_text())["sessions"]
    assert observed() == pinned


def _write() -> None:
    PIN_PATH.parent.mkdir(parents=True, exist_ok=True)
    PIN_PATH.write_text(
        json.dumps({"grid": GRID, "sessions": observed()}, indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {PIN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_dispatch_pin.py --write")
    _write()
