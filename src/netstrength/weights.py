"""Least-squares calibration of per-size weights from strength estimates.

Each surveyed graph contributes one linear equation: the mean human estimate
equals ``sum(i * w_i * count_i)`` over its component size counts. Stacking
the equations gives a design matrix whose minimum-norm least-squares
solution (optionally ridge-regularized) is the fitted weight vector. A
bundled 30-entry default fitted on the original survey corpus ships with
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .datasets import check_estimate, load_graphs, parse_cell, read_rows
from .graph import Graph, components
from .metrics import WeightVector

# Bundled default calibration: weight of a size-i component, i = 1..30.
_DEFAULT_WEIGHTS = (
    0.2221, 0.6607, 0.8747, 1.2271, 0.5538,
    0.9078, 0.9445, 0.9517, 0.9737, 0.7178,
    0.6668, 0.7028, 0.8193, 0.7625, 0.9872,
    0.7648, 1.0714, 0.6910, 0.9432, 0.8923,
    0.9193, 0.9847, 0.8122, 0.9321, 0.9485,
    0.9868, 0.8559, 0.8390, 0.9867, 0.9093,
)

SURVEY_HEADER = ("graph_id", "participant_id", "estimate")


def default_weights() -> WeightVector:
    """The bundled 30-entry weight vector (extension policy: error)."""
    return WeightVector(_DEFAULT_WEIGHTS)


@dataclass(frozen=True)
class SurveyRecord:
    """One surveyed graph with the raw per-participant strength estimates."""

    graph_id: str
    graph: Graph
    estimates: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.estimates:
            raise ValueError(f"graph {self.graph_id!r} has no estimates")
        for value in self.estimates:
            check_estimate("estimate", value, self.graph_id, self.graph.n)

    @property
    def mean_estimate(self) -> float:
        return sum(self.estimates) / len(self.estimates)


@dataclass(frozen=True)
class SurveyDataset:
    records: tuple[SurveyRecord, ...]


@dataclass(frozen=True)
class DesignMatrix:
    """Stacked linear system: one row per graph, one column per size.

    ``matrix[j][i-1] = i * count_i(G_j)``, an exact integer, and
    ``target[j]`` is the mean estimate for graph ``j``. Column count is the
    largest component size observed anywhere in the dataset.
    """

    matrix: tuple[tuple[int, ...], ...]
    target: tuple[float, ...]
    graph_ids: tuple[str, ...]

    @property
    def size_limit(self) -> int:
        return len(self.matrix[0])


@dataclass(frozen=True)
class FitResult:
    weights: WeightVector
    residual_norm: float
    rank: int
    regularization: float


def build_system(dataset: SurveyDataset) -> DesignMatrix:
    """Assemble the design matrix and mean-estimate targets."""
    if not dataset.records:
        raise ValueError("survey dataset is empty")
    sizes = [components(record.graph) for record in dataset.records]
    width = max(map(max, sizes))
    matrix = []
    for graph_sizes in sizes:
        row = [0] * width
        for size in graph_sizes:  # row[i - 1] sums to i * count_i
            row[size - 1] += size
        matrix.append(tuple(row))
    return DesignMatrix(
        matrix=tuple(matrix),
        target=tuple(record.mean_estimate for record in dataset.records),
        graph_ids=tuple(record.graph_id for record in dataset.records),
    )


def fit_weights(dm: DesignMatrix, ridge: float = 0.0) -> FitResult:
    """Solve ``min ||A w - E||^2 + ridge * ||w||^2``.

    With ``ridge=0`` and a rank-deficient system this returns the
    minimum-norm least-squares solution. Sizes that never occur in the
    dataset (all-zero columns) get weight exactly 0.
    ``residual_norm`` is always evaluated on the original system.
    """
    import numpy as np

    matrix = np.asarray(dm.matrix, dtype=float)
    target = np.asarray(dm.target, dtype=float)
    if not (np.isfinite(matrix).all() and np.isfinite(target).all()):
        raise ValueError("design matrix and target must be finite")
    if not (np.isfinite(ridge) and ridge >= 0):
        raise ValueError(
            f"ridge parameter must be a finite number >= 0, got {ridge}"
        )
    if ridge == 0:
        solution, _, rank, _ = np.linalg.lstsq(matrix, target, rcond=None)
    else:
        width = matrix.shape[1]
        augmented = np.vstack([matrix, np.sqrt(ridge) * np.eye(width)])
        padded = np.concatenate([target, np.zeros(width)])
        solution, _, _, _ = np.linalg.lstsq(augmented, padded, rcond=None)
        rank = int(np.linalg.matrix_rank(matrix))
    # the optimum is 0 on an all-zero column, where lstsq can leave noise
    solution[~matrix.any(axis=0)] = 0.0
    residual = float(np.linalg.norm(matrix @ solution - target))
    return FitResult(
        weights=WeightVector(solution),
        residual_norm=residual,
        rank=int(rank),
        regularization=float(ridge),
    )


def load_survey_csv(path: str | Path, graph_dir: str | Path) -> SurveyDataset:
    """Read a ``graph_id,participant_id,estimate`` CSV.

    Each referenced graph is loaded from ``<graph_dir>/<graph_id>.edges``.
    Records are ordered by graph id so the fitted system is reproducible.
    An estimate outside ``[1, n]`` for its graph, or a second estimate from
    one participant for one graph, raises ``ValueError`` naming
    ``file:line``.
    """
    by_graph: dict[str, list[tuple[int, float]]] = {}
    answered: set[tuple[str, str]] = set()
    for line_no, row in read_rows(path, SURVEY_HEADER):
        key = (row["graph_id"], row["participant_id"])
        if key in answered:
            raise ValueError(
                f"{path}:{line_no}: duplicate estimate from participant "
                f"{key[1]!r} for graph {key[0]!r}"
            )
        answered.add(key)
        by_graph.setdefault(row["graph_id"], []).append(
            (line_no, parse_cell(path, line_no, row, "estimate"))
        )
    if not by_graph:
        raise ValueError(f"{path}: survey file contains no records")
    records = []
    for graph_id, graph in load_graphs(graph_dir, by_graph, path).items():
        for line_no, value in by_graph[graph_id]:
            try:
                check_estimate("estimate", value, graph_id, graph.n)
            except ValueError as error:
                raise ValueError(f"{path}:{line_no}: {error}") from None
        records.append(
            SurveyRecord(
                graph_id=graph_id,
                graph=graph,
                estimates=tuple(value for _, value in by_graph[graph_id]),
            )
        )
    return SurveyDataset(records=tuple(records))
