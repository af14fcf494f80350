"""The host-speed probe: a short fixed piece of pure-Python work timed
between ops.

The benchmark runs on a shared VM whose speed drifts by up to 2x over
minutes, with about the same slowdown for this probe as for the program.
Timing the probe between ops all through a run, in the processes that do
the work, gives the run's ``slowdown``; dividing the run's timings by it
reports them at the reference speed, so two runs of the same code agree
however busy the host was.
"""

from __future__ import annotations

import pickle
import statistics
import time
from typing import List

REFERENCE_PROBE_S = 0.008
"""The probe's time on a quiet host (a 2-vCPU Xeon VM)."""


def probe(scale: int = 1) -> float:
    """Seconds a fixed piece of work takes: the host's speed right now.

    Interpreter arithmetic like the simulator's, plus allocating and
    pickling small records like the cache and detectors; ``scale`` repeats
    it.
    """
    started = time.perf_counter()
    for _ in range(scale):
        total = 0
        for i in range(40_000):
            total += i * i % 7
        records = [{"i": i, "s": str(i), "f": i * 0.5} for i in range(4_000)]
        pickle.loads(pickle.dumps(records))
    return time.perf_counter() - started


class HostSpeed:
    """The probe samples of one run, each the time of one ``probe()``.

    ``scale`` repeats the probe in each sample: a single probe is a few
    milliseconds, long enough between many short ops but noisy where only
    a few samples are taken.
    """

    def __init__(self, scale: int = 1) -> None:
        self.scale = scale
        self.samples: List[float] = []

    def sample(self) -> float:
        took = probe(self.scale) / self.scale
        self.samples.append(took)
        return took

    @property
    def slowdown(self) -> float:
        """Host seconds per reference second over the run so far."""
        return statistics.median(self.samples) / REFERENCE_PROBE_S
