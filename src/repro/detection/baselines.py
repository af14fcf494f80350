"""Baseline detector: an emulated lossy side-channel.

The paper positions OFFRAMPS against prior detection work built on lossy
side-channels (acoustic, power, electromagnetic): "The OFFRAMPS, by
connecting directly to control signals, is uniquely able to modify or analyze
prints with no loss of data." This module makes that comparison quantitative
by emulating what a power-style side-channel sees (per-motor current shunts,
as in the actuator-power-signature work the paper cites) and running the same
golden-comparison strategy over it.

The emulation degrades the lossless transaction stream the way the physical
channel does:

* **magnitude only** — power scales with motor *activity*; direction is
  lost, so the per-window observable per motor is its unsigned step count;
* **additive noise** — sensor and ambient noise proportional to the signal
  plus a floor. The cited power-side-channel study needed *forty repetitions
  of each print* to average this out; :class:`SideChannelModel.repetitions`
  models that averaging (and its cost);
* **quantisation** — bounded effective resolution.

The resulting detector catches gross attacks (50 % flow reduction shows up
as a halved E-channel signature) but cannot reach the margins the lossless
counts support — the stealthy 2 % reduction hides below its calibrated
threshold, while OFFRAMPS' exact counts catch it with the 0 %-margin final
check. The benchmark asserts exactly that separation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.capture import COLUMNS, Transaction
from repro.detection.comparator import step_matrix
from repro.errors import DetectionError

_TWOPI = 2.0 * math.pi  # random.gauss's constant

# Suspects are observed under ``model.seed`` plus this: a distinct print
# draws independent channel noise.
SUSPECT_SEED_OFFSET = 7


@dataclass(frozen=True)
class SideChannelModel:
    """Fidelity parameters of the emulated side-channel."""

    noise_fraction: float = 0.05  # sigma as a fraction of window activity
    noise_floor: float = 5.0  # sigma floor, in step-equivalents
    quantization_steps: float = 10.0  # effective resolution
    repetitions: int = 8  # prints averaged per observation (noise / sqrt(n))
    seed: int = 0

    def __post_init__(self) -> None:
        if self.noise_fraction < 0 or self.noise_floor < 0:
            raise DetectionError("side-channel noise parameters must be >= 0")
        if self.quantization_steps <= 0:
            raise DetectionError("quantization must be positive")
        if self.repetitions < 1:
            raise DetectionError("repetitions must be >= 1")


def _activity_matrix(transactions: Sequence[Transaction]) -> np.ndarray:
    """|delta counts| per window (rows) and motor (columns), as float64."""
    counts = step_matrix(transactions)
    if not len(counts):
        raise DetectionError("cannot profile an empty capture")
    return np.abs(np.diff(counts, axis=0, prepend=0)).astype(np.float64)


def activity_profiles(
    transactions: Sequence[Transaction],
) -> Dict[str, List[float]]:
    """Per-motor unsigned step activity per window.

    This is the *ideal* observable a per-shunt power channel could hope to
    recover: |delta counts| for each motor in each transaction window.
    """
    return dict(zip(COLUMNS, _activity_matrix(transactions).T.tolist()))


def _box_muller(bits: int, pairs: int) -> np.ndarray:
    """The ``2 * pairs`` gauss values made from ``bits``, a ``getrandbits(128 * pairs)``.

    Bit for bit what ``random.gauss(0.0, 1.0)`` returns: the little-endian
    words of ``bits`` are the Mersenne Twister words in draw order, two
    words make each ``random()`` exactly as CPython does (``((a >> 5) *
    2**26 + (b >> 6)) / 2**53``), and each pair of uniforms makes a
    Box-Muller pair. The log, cos and sin go through :mod:`math`, so libm
    rounds them as it does for ``gauss`` (numpy's own round some values
    differently); the rest is IEEE arithmetic numpy performs identically.
    """
    words = np.frombuffer(bits.to_bytes(16 * pairs, "little"), dtype="<u4")
    words = words.astype(np.uint64).reshape(-1, 2)
    uniforms = ((words[:, 0] >> 5) << 26 | words[:, 1] >> 6) * 2.0**-53
    angle = (uniforms[0::2] * _TWOPI).tolist()
    logs = np.fromiter(map(math.log, (1.0 - uniforms[1::2]).tolist()), float, pairs)
    radius = np.sqrt(-2.0 * logs)
    normals = np.empty((pairs, 2))
    normals[:, 0] = np.fromiter(map(math.cos, angle), float, pairs) * radius
    normals[:, 1] = np.fromiter(map(math.sin, angle), float, pairs) * radius
    return normals.ravel()


class _GaussStream:
    """``random.Random(seed).gauss(0.0, 1.0)``'s values, drawn only as far as asked.

    Bit for bit (see :func:`_box_muller`), and shared by prefix: each value
    depends only on its own pair of words, and ``getrandbits`` of a
    multiple of 32 bits leaves the generator exactly after the words it
    used, so growing the stream draws only the new pairs and appends them.
    ``prefix(m)`` of a stream grown to any length equals ``prefix(m)`` of
    a fresh one, for odd and even ``m``, so :class:`SideChannelDetector`
    keeps one stream per seed and slices it for every observation.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._values = np.empty(0)

    def prefix(self, count: int) -> np.ndarray:
        """The first ``count`` values (a view: do not write to it)."""
        missing = count - len(self._values)
        if missing > 0:
            pairs = (missing + 1) // 2
            fresh = _box_muller(self._rng.getrandbits(128 * pairs), pairs)
            self._values = np.concatenate((self._values, fresh))
        return self._values[:count]


def _observe_matrix(
    transactions: Sequence[Transaction], model: SideChannelModel, stream: _GaussStream
) -> np.ndarray:
    """:func:`observe` as a (motor, window) float64 matrix.

    ``stream`` is the ``model.seed`` stream; its prefix of motors × windows
    × repetitions draws is the noise.
    """
    activity = _activity_matrix(transactions).T  # (motor, window)
    reps = model.repetitions
    sigma = activity * model.noise_fraction
    sigma = np.where(sigma > model.noise_floor, sigma, model.noise_floor)
    noise = stream.prefix(activity.size * reps).reshape(*activity.shape, reps)
    readings = activity[..., None] + (0.0 + noise * sigma[..., None])
    total = np.zeros_like(activity)
    for rep in range(reps):  # in order: float addition does not reassociate
        total += readings[..., rep]
    quantised = np.rint(total / reps / model.quantization_steps) * model.quantization_steps
    # A plain np.maximum(0.0, ...) would keep -0.0; the scalar max() gives +0.0.
    return np.where(quantised > 0.0, quantised, 0.0)


def observe(
    transactions: Sequence[Transaction], model: SideChannelModel
) -> Dict[str, List[float]]:
    """Degrade the ideal activity profiles through the side-channel model.

    Each window value is the average of ``model.repetitions`` independent
    noisy measurements, then quantised — the repetition-averaging workflow of
    the power-signature detection the paper discusses. The noise is the
    ``random.Random(model.seed).gauss`` stream, drawn motor by motor (X, Y,
    Z, E), window by window, repetition by repetition; the vectorised
    arithmetic repeats the scalar loop's operations in its order, so every
    value is bit-identical to it. Observations under one seed read prefixes
    of one shared stream (see :class:`_GaussStream`), so a longer capture's
    noise begins with a shorter one's.
    """
    matrix = _observe_matrix(transactions, model, _GaussStream(model.seed))
    return dict(zip(COLUMNS, matrix.tolist()))


@dataclass
class SideChannelReport:
    """Outcome of a side-channel golden comparison."""

    windows_compared: int
    anomalous_windows: int
    largest_relative_diff: float
    threshold: float
    worst_channel: str = ""

    @property
    def trojan_likely(self) -> bool:
        return self.anomalous_windows > 0

    def summary(self) -> str:
        verdict = "TROJAN" if self.trojan_likely else "clean"
        return (
            f"{verdict}: {self.anomalous_windows}/{self.windows_compared} anomalous "
            f"windows, max diff {self.largest_relative_diff * 100:.1f}% "
            f"on {self.worst_channel or '-'} (threshold {self.threshold * 100:.0f}%)"
        )


class SideChannelDetector:
    """Golden-comparison detection over the emulated side-channel.

    Only windows where the golden channel shows meaningful activity are
    compared (idle windows are pure noise). The threshold must sit above the
    channel's own noise — calibrate with :meth:`calibrate_threshold` on two
    clean observations — which is exactly why this baseline cannot reach the
    margins the lossless counts allow.

    The detector keeps one noise stream per seed for its lifetime, drawn
    only as far as its longest capture needs; every observation reads a
    prefix of it, bit-identical to drawing afresh (:class:`_GaussStream`).
    """

    def __init__(
        self,
        model: SideChannelModel = SideChannelModel(),
        threshold: float = 0.3,
        min_activity: float = 50.0,
    ) -> None:
        self.model = model
        self.threshold = threshold
        self.min_activity = min_activity
        self._streams: Dict[int, _GaussStream] = {}

    def _with_seed(self, seed: int) -> SideChannelModel:
        return SideChannelModel(
            self.model.noise_fraction,
            self.model.noise_floor,
            self.model.quantization_steps,
            self.model.repetitions,
            seed,
        )

    def observe(
        self, transactions: Sequence[Transaction], seed_offset: int = 0
    ) -> np.ndarray:
        """:func:`observe` under ``model.seed + seed_offset`` as a (motor, window) matrix."""
        model = self._with_seed(self.model.seed + seed_offset)
        stream = self._streams.get(model.seed)
        if stream is None:
            stream = self._streams[model.seed] = _GaussStream(model.seed)
        return _observe_matrix(transactions, model, stream)

    def calibrate_threshold(
        self,
        golden: Sequence[Transaction],
        control: Sequence[Transaction],
        headroom: float = 1.5,
    ) -> float:
        """Set the threshold from the clean-vs-clean observation noise."""
        _, _, worst, _ = self._diff_stats(self.observe(golden), self.observe(control, 1))
        self.threshold = worst * headroom
        return self.threshold

    def compare(
        self,
        golden: Sequence[Transaction],
        suspect: Sequence[Transaction],
        suspect_seed_offset: int = SUSPECT_SEED_OFFSET,
    ) -> SideChannelReport:
        return self.compare_observed(
            self.observe(golden), self.observe(suspect, suspect_seed_offset)
        )

    def compare_observed(
        self, golden_obs: np.ndarray, suspect_obs: np.ndarray
    ) -> SideChannelReport:
        """:meth:`compare` on two :meth:`observe` matrices."""
        compared, anomalous, largest, worst_channel = self._diff_stats(
            golden_obs, suspect_obs
        )
        return SideChannelReport(
            windows_compared=compared,
            anomalous_windows=anomalous,
            largest_relative_diff=largest,
            threshold=self.threshold,
            worst_channel=worst_channel,
        )

    def _diff_stats(
        self, golden_obs: np.ndarray, suspect_obs: np.ndarray
    ) -> Tuple[int, int, float, str]:
        """``(windows compared, anomalous count, largest diff, its channel)``.

        Over the common window prefix, windows where the golden reads below
        ``min_activity`` are skipped; the rest give ``|s - g| / g``. The
        largest is the first maximum in channel-then-window order, and
        ``(0.0, "")`` when no diff is above 0 — what a loop updating on a
        strict ``>`` from 0.0 finds.
        """
        compared = min(golden_obs.shape[1], suspect_obs.shape[1])
        golden = golden_obs[:, :compared]
        active = golden >= self.min_activity
        diffs = np.zeros_like(golden)
        np.divide(np.abs(suspect_obs[:, :compared] - golden), golden, out=diffs, where=active)
        anomalous = int(np.count_nonzero(active & (diffs > self.threshold)))
        if not diffs.size:
            return compared, anomalous, 0.0, ""
        worst = int(diffs.argmax())  # row-major: the first maximum in loop order
        largest = diffs.flat[worst].item()
        if not largest > 0.0:
            return compared, anomalous, 0.0, ""
        return compared, anomalous, largest, COLUMNS[worst // compared]
