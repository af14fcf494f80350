"""Cross-commit verdict pin: the exact report bytes of a fixed scenario set.

The dispatch pin (``test_dispatch_pin.py``) fixes what the simulator does;
this one fixes what the detectors *conclude*. It sweeps the ``smoke`` grid
plus two Table II Flaw3D cases on the tiny part — the 50 % reduction the
side-channel baseline flags and the 2 % reduction it misses — so all four
detectors (golden, realtime, quality, sidechannel) contribute rows, and
compares the :func:`~repro.experiments.report.render_csv` bytes against a
committed answer key. A change to a scorer that moves one score digit, one
mismatch count or one verdict fails here.

The pin file is ``tests/data/verdict_pin.csv``. Regenerate it only for a
change that is *meant* to alter a verdict or a score::

    PYTHONPATH=src python tests/test_verdict_pin.py --write
"""

import sys
from pathlib import Path

from repro.experiments.report import render_csv
from repro.experiments.scenario import flaw3d_scenarios, grid_scenarios, run_sweep

PIN_PATH = Path(__file__).parent / "data" / "verdict_pin.csv"
FLAW3D_CASES = ("case1:flaw3d-reduction-0.5", "case4:flaw3d-reduction-0.98")


def pinned_scenarios():
    flaw3d = [s for s in flaw3d_scenarios(part="tiny") if s.name in FLAW3D_CASES]
    assert [s.name for s in flaw3d] == list(FLAW3D_CASES)
    return grid_scenarios("smoke") + flaw3d


def observed() -> str:
    return render_csv(run_sweep(pinned_scenarios(), workers=1, cache=None))


def test_pinned_scenarios_cover_every_detector():
    detectors = {name for s in pinned_scenarios() for name in s.detectors}
    assert detectors == {"golden", "realtime", "quality", "sidechannel"}


def test_verdicts_match_pin():
    assert observed() == PIN_PATH.read_text()


def _write() -> None:
    PIN_PATH.parent.mkdir(parents=True, exist_ok=True)
    PIN_PATH.write_text(observed())
    print(f"wrote {PIN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_verdict_pin.py --write")
    _write()
