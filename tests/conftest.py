"""Shared fixtures.

Expensive end-to-end artifacts (full simulated prints) are session-scoped so
the many integration tests that inspect them pay for each print exactly once.

The batch/distribution/sweep test modules share one spec/grid/dirs setup
(:func:`spec_factory`, :func:`tiny_grid`, :func:`sweep_env`) instead of each
re-rolling its own ``_spec`` helper and ``tmp_path / "cache"`` boilerplate.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import SessionResult, run_print
from repro.experiments.workloads import sliced_program, standard_part, tiny_part
from repro.firmware.config import MarlinConfig
from repro.gcode.ast import GcodeProgram
from repro.sim.kernel import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulation kernel."""
    return Simulator()


@pytest.fixture(scope="session")
def tiny_program() -> GcodeProgram:
    """Sliced G-code for the 3-layer test coupon."""
    return sliced_program(tiny_part())


@pytest.fixture(scope="session")
def standard_program() -> GcodeProgram:
    """Sliced G-code for the 16 mm calibration square."""
    return sliced_program(standard_part())


@pytest.fixture(scope="session")
def tiny_golden(tiny_program) -> SessionResult:
    """One clean print of the tiny coupon (no noise, no Trojan)."""
    return run_print(tiny_program)


@pytest.fixture(scope="session")
def tiny_golden_noisy(tiny_program) -> SessionResult:
    """A clean tiny print with the time-noise model enabled."""
    return run_print(tiny_program, noise_sigma=0.0005, noise_seed=11)


@pytest.fixture(scope="session")
def tiny_control_noisy(tiny_program) -> SessionResult:
    """A second clean noisy print (an independent noise realization)."""
    return run_print(tiny_program, noise_sigma=0.0005, noise_seed=12)


@pytest.fixture(scope="session")
def spec_factory(tiny_program):
    """Factory of :class:`SessionSpec` makers over the tiny test coupon.

    ``spec_factory(**defaults)`` binds a module's preferred defaults once
    and returns a ``make(**overrides)`` callable, so each test file says
    what is *different* about its specs instead of repeating the whole
    constructor — e.g. ``spec = spec_factory(noise_sigma=0.0, cacheable=True)``
    then ``spec(label="a")``.
    """
    from repro.experiments.batch import SessionSpec

    def bind(**defaults):
        def make(**overrides):
            fields = dict(program=tiny_program)
            fields.update(defaults)
            fields.update(overrides)
            return SessionSpec(**fields)

        return make

    return bind


@pytest.fixture(scope="session")
def tiny_grid():
    """The seconds-long reference grid: two scenarios, four unique sessions.

    One clean baseline (golden + independent noise realization) and one T2
    attack (noise-free golden + trojaned suspect) on the tiny coupon — the
    smallest grid that still exercises attack & clean dispositions, two
    detector sets, and session dedup/caching. Treat it as read-only
    (concatenate, don't append).
    """
    from repro.experiments.scenario import CONTROL_SEED, ScenarioSpec

    return [
        ScenarioSpec(
            name="clean@tiny",
            part="tiny",
            attack=None,
            detectors=("golden", "realtime"),
            seed=CONTROL_SEED,
        ),
        ScenarioSpec(
            name="T2@tiny",
            part="tiny",
            attack="T2",
            detectors=("golden", "quality"),
            seed=42,
            noise_sigma=0.0,
        ),
    ]


class SweepEnv:
    """Per-test tmp cache/work directories, named on demand.

    De-duplicates the ``SessionCache(directory=str(tmp_path / "cache"))`` /
    ``str(tmp_path / "work")`` boilerplate of every sweep and distribution
    test; distinct names give distinct directories, repeated names share
    one (that's how warm-cache tests re-open "the same" cache dir).
    """

    def __init__(self, root) -> None:
        self.root = root

    def path(self, name: str) -> str:
        return str(self.root / name)

    def cache(self, name: str = "cache"):
        from repro.experiments.batch import SessionCache

        return SessionCache(directory=self.path(name))

    def work_dir(self, name: str = "work") -> str:
        return self.path(name)


@pytest.fixture
def sweep_env(tmp_path) -> SweepEnv:
    """A fresh :class:`SweepEnv` rooted in this test's ``tmp_path``."""
    return SweepEnv(tmp_path)


@pytest.fixture(scope="module")
def shard_server():
    """One live threaded shard server (SQLite-backed) per test module; its URL."""
    from repro.service.app import background_server, create_app

    with background_server(create_app(db=":memory:", background=True)) as url:
        yield url


def build_bench(sim: Simulator, config: MarlinConfig = None):
    """A full machine bench (harness, plant, ramps, firmware) on ``sim``.

    Helper for tests that need to poke the stack below the session level.
    """
    from repro.electronics.harness import SignalHarness
    from repro.electronics.ramps import RampsBoard
    from repro.firmware.marlin import MarlinFirmware
    from repro.physics.printer import PrinterPlant

    harness = SignalHarness(sim)
    plant = PrinterPlant(sim)
    ramps = RampsBoard(sim, harness, plant)
    firmware = MarlinFirmware(sim, config or MarlinConfig(), harness)
    return harness, plant, ramps, firmware


def corrupt_file(path, data: bytes) -> None:
    """Overwrite ``path`` with raw bytes, deliberately non-atomically.

    Corruption-injection tests *simulate the torn write* WIRE001 exists
    to prevent, so the in-place write is the point — this helper is the
    one sanctioned place tests may do it.
    """
    # repro: lint-ignore[WIRE001, CONC001] simulating the torn write under test
    with open(path, "wb") as handle:
        handle.write(data)


def corrupt_pickle(path, payload) -> None:
    """Re-pickle ``payload`` over ``path`` in place (corruption injection).

    Used by tests that load a valid cache/wire envelope, damage one field
    (key, format version, shape), and write it straight back.
    """
    import pickle

    # repro: lint-ignore[WIRE001, CONC001] writing a deliberately damaged payload
    with open(path, "wb") as handle:
        pickle.dump(payload, handle)  # repro: lint-ignore[WIRE001] damaged on purpose
