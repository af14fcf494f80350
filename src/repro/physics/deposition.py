"""Deposition trace: where material physically went, layer by layer.

The plant samples head position and extruder advance on a fixed period.
Post-processing groups extruding samples into layers and computes per-layer
statistics (extrusion-weighted centroid, bounding box, path length, filament
volume). The Table I experiments score Trojan effects by comparing these
statistics against a golden print — the simulation's replacement for the
paper's photographs of parts on graph paper.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import astuple, dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class TraceSample:
    """One sampled plant state: head position and extruder advance."""

    time_ns: int
    x_mm: float
    y_mm: float
    z_mm: float
    e_mm: float


@dataclass
class LayerStats:
    """Aggregate statistics of the material deposited in one layer."""

    z_mm: float
    extruded_mm: float = 0.0  # filament consumed in this layer
    path_mm: float = 0.0  # head travel while extruding
    min_x: float = math.inf
    max_x: float = -math.inf
    min_y: float = math.inf
    max_y: float = -math.inf
    _moment_x: float = 0.0
    _moment_y: float = 0.0

    @property
    def centroid(self) -> Tuple[float, float]:
        """Extrusion-weighted centroid of the deposited material."""
        if self.extruded_mm <= 0:
            return (math.nan, math.nan)
        return (self._moment_x / self.extruded_mm, self._moment_y / self.extruded_mm)

    @property
    def bbox(self) -> Tuple[float, float, float, float]:
        return (self.min_x, self.min_y, self.max_x, self.max_y)


class PartTrace:
    """The sampled history of one print, with layer-level post-processing.

    Samples are stored as five flat typed columns — ``time_ns`` (int64) and
    ``x_mm``/``y_mm``/``z_mm``/``e_mm`` (float64) — so a trace pickles as five
    buffers and the scorers read arrays, not sample objects.
    """

    def __init__(self, layer_quantum_mm: float = 0.02) -> None:
        self.time_ns = array("q")
        self.x_mm = array("d")
        self.y_mm = array("d")
        self.z_mm = array("d")
        self.e_mm = array("d")
        self.layer_quantum_mm = layer_quantum_mm
        self._layers: Optional[List[LayerStats]] = None

    def columns(self) -> Tuple[array, ...]:
        """The storage columns, in :class:`TraceSample` field order."""
        return (self.time_ns, self.x_mm, self.y_mm, self.z_mm, self.e_mm)

    def add_sample(self, sample: TraceSample) -> None:
        for column, value in zip(self.columns(), astuple(sample)):
            column.append(value)
        self._layers = None  # invalidate cache

    def extend(
        self,
        time_ns: Iterable[int],
        x_mm: Iterable[float],
        y_mm: Iterable[float],
        z_mm: Iterable[float],
        e_mm: Iterable[float],
    ) -> None:
        """Append equal-length runs of samples, one iterable per column."""
        for column, values in zip(self.columns(), (time_ns, x_mm, y_mm, z_mm, e_mm)):
            column.extend(values)
        self._layers = None

    @property
    def samples(self) -> List[TraceSample]:
        """The samples as objects: a fresh list derived from the columns."""
        return list(map(TraceSample, *(column.tolist() for column in self.columns())))

    def __len__(self) -> int:
        return len(self.time_ns)

    def __getstate__(self):
        """Pickle the columns only; the layer memo is rebuilt on demand."""
        state = dict(self.__dict__)
        state["_layers"] = None
        return state

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    @property
    def total_extruded_mm(self) -> float:
        """Net filament advance over the whole print.

        Retract/prime cycles cancel out, so this is the material actually
        consumed — the quantity the Flaw3D reduction Trojan starves.
        """
        if len(self.e_mm) < 2:
            return 0.0
        return max(0.0, self.e_mm[-1] - self.e_mm[0])

    @property
    def gross_extruded_mm(self) -> float:
        """Sum of positive filament advances (primes included).

        Differs from :attr:`total_extruded_mm` by the retraction traffic —
        useful for spotting retraction-tampering Trojans (T3).
        """
        e = self.e_mm.tolist()
        total = 0.0
        for prev, cur in zip(e, e[1:]):
            delta = cur - prev
            if delta > 0:
                total += delta
        return total

    @property
    def duration_ns(self) -> int:
        if len(self.time_ns) < 2:
            return 0
        return self.time_ns[-1] - self.time_ns[0]

    # ------------------------------------------------------------------
    # Layers
    # ------------------------------------------------------------------
    def layers(self) -> List[LayerStats]:
        """Layer statistics, ordered by increasing z. Cached."""
        if self._layers is None:
            self._layers = self._build_layers()
        return self._layers

    def _build_layers(self) -> List[LayerStats]:
        """Group the planar extruding segments into layers, by rounded z.

        Vectorised, yet every float equals what a loop adding one segment at
        a time, in time order, computes: the sums accumulate sequentially (a
        cumulative sum, never numpy's pairwise sum), and lengths, minima and
        maxima go through ``math.hypot`` and the builtin ``min``/``max``,
        which keep the first of equal values.
        """
        if len(self.e_mm) < 2:
            return []
        x, y, z, e = (np.array(column) for column in self.columns()[1:])
        de = e[1:] - e[:-1]
        # The negated skip test, so that NaN comparisons skip nothing.
        planar = ~((de <= 0) | (np.abs(z[1:] - z[:-1]) > 1e-9))
        end = np.flatnonzero(planar) + 1  # segments run from end - 1 to end
        keys = np.rint(z[end] / self.layer_quantum_mm).astype(np.int64)
        order = np.argsort(keys, kind="stable")  # by layer, time order within
        end, keys = end[order], keys[order]
        if not len(keys):
            return []
        start = end - 1
        x0, x1, y0, y1, de = x[start], x[end], y[start], y[end], de[start]
        lengths = list(map(math.hypot, (x1 - x0).tolist(), (y1 - y0).tolist()))
        addends = np.array([lengths, de, (x0 + x1) / 2 * de, (y0 + y1) / 2 * de])
        xs = np.stack([x0, x1], axis=1)
        ys = np.stack([y0, y1], axis=1)
        cuts = (np.flatnonzero(np.diff(keys)) + 1).tolist()
        layers = []
        for lo, hi in zip([0] + cuts, cuts + [len(keys)]):
            # A running total started at 0.0 is never -0.0, hence the + 0.0.
            totals = addends[:, lo:hi].cumsum(axis=1)[:, -1] + 0.0
            path, extruded, moment_x, moment_y = totals.tolist()
            x_ends, y_ends = xs[lo:hi].ravel().tolist(), ys[lo:hi].ravel().tolist()
            layers.append(
                LayerStats(
                    z_mm=int(keys[lo]) * self.layer_quantum_mm,
                    extruded_mm=extruded,
                    path_mm=path,
                    min_x=min(x_ends),
                    max_x=max(x_ends),
                    min_y=min(y_ends),
                    max_y=max(y_ends),
                    _moment_x=moment_x,
                    _moment_y=moment_y,
                )
            )
        return layers

    def z_spacings(self) -> List[float]:
        """Gaps between consecutive deposited layers (delamination metric)."""
        layer_list = self.layers()
        return [
            round(b.z_mm - a.z_mm, 6) for a, b in zip(layer_list, layer_list[1:])
        ]

    def layer_centroid_drift(self) -> List[float]:
        """Per-layer centroid distance from the first layer's centroid.

        A rigid, well-built printer keeps this near zero for a prismatic
        part; Z-wobble and layer-shift Trojans make it jump.
        """
        layer_list = [layer for layer in self.layers() if layer.extruded_mm > 0]
        if not layer_list:
            return []
        cx0, cy0 = layer_list[0].centroid
        return [
            math.hypot(layer.centroid[0] - cx0, layer.centroid[1] - cy0)
            for layer in layer_list
        ]
