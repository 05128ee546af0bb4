"""Graph strength measures.

The central measure weights each connected component by a per-size weight
and sums ``size * weight * count`` over the size counts; the weights encode
how strong a component of a given size is perceived to be. Three structural
baselines (cole1, cole2, gfp) are provided for comparison. All four are
functions of the component sizes alone and are computed by :func:`score`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .datasets import csv_text, parse_cell, read_rows
from .graph import EmptyGraphError, Graph, components

EXTENSION_ERROR = "error"
EXTENSION_CLAMP = "clamp"

METRIC_IDS = ("proposed", "cole1", "cole2", "gfp")


class WeightCoverageError(ValueError):
    """A component size exceeds the weight vector under the error policy."""


@dataclass(frozen=True)
class WeightVector:
    """Per-component-size weights ``w_1..w_N``.

    ``weights[i-1]`` is the weight of a size-``i`` component. Sizes beyond
    ``N`` either raise (:data:`EXTENSION_ERROR`, the default) or reuse the
    last entry (:data:`EXTENSION_CLAMP`). Entries may be negative or exceed
    1; no clipping is applied. ``weights`` may be any iterable of real
    numbers, numpy's included; it is stored as a tuple of Python floats.
    """

    weights: tuple[float, ...]
    extension_policy: str = EXTENSION_ERROR

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(map(float, self.weights)))
        if len(self.weights) < 1:
            raise ValueError("weight vector must have at least one entry")
        for i, w in enumerate(self.weights, start=1):
            if not math.isfinite(w):
                raise ValueError(f"weight for size {i} is not finite: {w!r}")
        if self.extension_policy not in (EXTENSION_ERROR, EXTENSION_CLAMP):
            raise ValueError(
                f"unknown extension policy {self.extension_policy!r}"
            )

    def __len__(self) -> int:
        return len(self.weights)

    def value(self, size: int) -> float:
        """Weight for a component of ``size`` nodes, applying the policy."""
        if size < 1:
            raise ValueError(f"component size must be >= 1, got {size}")
        if size <= len(self.weights):
            return self.weights[size - 1]
        if self.extension_policy == EXTENSION_CLAMP:
            return self.weights[-1]
        raise WeightCoverageError(
            f"component size {size} exceeds the {len(self.weights)}-entry "
            f"weight vector (extension policy {EXTENSION_ERROR!r})"
        )

    def with_policy(self, extension_policy: str) -> "WeightVector":
        return WeightVector(self.weights, extension_policy)

    def check_overflow(self, n: int) -> None:
        """``ValueError`` if sums over an ``n``-node graph could overflow."""
        # every partial sum of a residual's strength, rounding included, is
        # within this bound, so no pricing order can meet inf or NaN
        if not math.isfinite(2 * n * max(map(abs, self.weights[:n]))):
            raise ValueError(f"weights for sizes 1..{n} could overflow a float"
                             f" in the strength of a {n}-node graph")


@dataclass(frozen=True)
class StrengthValue:
    """A strength measurement: raw value, ``raw / n``, and the metric id."""

    raw: float
    normalized: float
    metric_id: str


def score(
    sizes: Sequence[int], metric_id: str, w: WeightVector | None = None
) -> float:
    """Raw value of a metric for a graph split into components ``sizes``.

    With ``n = sum(sizes)`` nodes and ``c = len(sizes)`` components:

    * ``proposed``  ``sum(i * w_i * count_i)``, summed per size class in
      ascending size order; ``w`` is required, and a sum that overflows a
      float raises ``ValueError``
    * ``cole1``     ``n / c``
    * ``cole2``     the largest component size
    * ``gfp``       ``sum(n_i^2) / n``

    Summing ``proposed`` per size class (not per component) keeps the float
    result a pure function of the size distribution, so equal distributions
    tie exactly.
    """
    if metric_id not in METRIC_IDS:
        raise ValueError(f"unknown metric id {metric_id!r}")
    if metric_id == "proposed" and w is None:
        raise ValueError("the proposed metric requires a weight vector")
    if not sizes:
        raise EmptyGraphError("strength is undefined for an empty graph")
    if metric_id == "proposed":
        raw = 0.0
        for size in sorted(set(sizes)):
            raw += size * w.value(size) * sizes.count(size)
        if not math.isfinite(raw):
            raise ValueError(f"proposed strength is not finite: {raw}")
        return raw
    if metric_id == "cole1":
        return sum(sizes) / len(sizes)
    if metric_id == "cole2":
        return float(max(sizes))
    return sum(s * s for s in sizes) / sum(sizes)


def compute_metric(g: Graph, metric_id: str, w: WeightVector | None = None) -> StrengthValue:
    """Evaluate one metric by id; ``w`` is required for ``proposed``."""
    raw = score(components(g), metric_id, w)
    return StrengthValue(raw=raw, normalized=raw / g.n, metric_id=metric_id)


def sigma(g: Graph, w: WeightVector) -> StrengthValue:
    """Perception-weighted strength ``sum(i * w_i * count_i)``.

    For a connected graph this reduces to ``n * w_n``. Component sizes not
    covered by ``w`` follow its extension policy.
    """
    return compute_metric(g, "proposed", w)


def cole1(g: Graph) -> StrengthValue:
    """Component-count baseline: ``n / c`` for ``c`` connected components.

    Maps a connected graph to ``n`` and a fully fragmented one to 1, on the
    same monotone scale as the other measures.
    """
    return compute_metric(g, "cole1")


def cole2(g: Graph) -> StrengthValue:
    """Largest-component baseline: size of the biggest component."""
    return compute_metric(g, "cole2")


def gfp_score(g: Graph) -> StrengthValue:
    """Fragmentation score ``sum(n_i^2) / n`` over component sizes ``n_i``.

    Equals the expected size of the component containing a uniformly random
    node, i.e. the expected number of nodes affected by a failure seeded at
    a random node.
    """
    return compute_metric(g, "gfp")


def weights_csv(w: WeightVector) -> str:
    """The ``size,weight`` CSV of ``w``, one row per size 1..N.

    Weights are written with shortest round-trip decimal formatting, so
    save -> load -> save is byte-stable and no precision is ever lost.
    """
    return csv_text(["size", "weight"], enumerate(w.weights, start=1))


def load_weights(
    path: str | Path,
    extension_policy: str = EXTENSION_ERROR,
) -> WeightVector:
    """Read a ``size,weight`` CSV as :func:`weights_csv` writes it."""
    values: list[float] = []
    for line_no, row in read_rows(path, ("size", "weight")):
        size = parse_cell(path, line_no, row, "size", int)
        if size != len(values) + 1:
            raise ValueError(
                f"{path}:{line_no}: sizes must be contiguous from 1, got {size}"
            )
        values.append(parse_cell(path, line_no, row, "weight"))
    if not values:
        raise ValueError(f"{path}: no weight rows")
    return WeightVector(values, extension_policy)
