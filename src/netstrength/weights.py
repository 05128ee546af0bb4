"""Least-squares calibration of per-size weights from strength estimates.

Each surveyed graph contributes one linear equation: the mean human estimate
equals ``sum(i * w_i * count_i)`` over its component size counts. Stacking
the equations gives a design matrix whose minimum-norm least-squares
solution (optionally ridge-regularized) is the fitted weight vector. A
bundled 30-entry default fitted on the original survey corpus ships with
the package.

The fit is exact. Each matrix entry, target and ridge parameter is read as
the rational number it holds (its ``as_integer_ratio``), the normal
equations are solved over the integers by fraction-free elimination, each
row divided by the gcd of its entries, and each weight is rounded once, by
Python's correctly rounded integer division. So every fitted weight is the
float nearest the exact solution, and the fit needs no numpy.
``FitResult.rank`` is the exact rank of the design matrix, with or without
a ridge term.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import compress
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
    largest component size observed anywhere in the dataset; no rows, empty
    or ragged rows, or targets or ids not one per row raise ``ValueError``.
    """

    matrix: tuple[tuple[int, ...], ...]
    target: tuple[float, ...]
    graph_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (len(self.matrix) and self.size_limit and all(
                len(row) == self.size_limit for row in self.matrix)):
            raise ValueError("design matrix needs rows, of one length > 0")
        if not len(self.matrix) == len(self.target) == len(self.graph_ids):
            raise ValueError(f"design matrix has {len(self.matrix)} row(s), "
                             f"{len(self.target)} target(s) and "
                             f"{len(self.graph_ids)} graph id(s)")

    @property
    def size_limit(self) -> int:
        return len(self.matrix[0])


@dataclass(frozen=True)
class FitResult:
    """Fitted weights, the norm of their residual on the system, the exact
    rank of the design matrix, and the ridge parameter."""

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


def check_ridge(ridge: float) -> None:
    """``ValueError`` unless ``ridge`` is a finite number >= 0."""
    if not (math.isfinite(ridge) and ridge >= 0):
        raise ValueError(
            f"ridge parameter must be a finite number >= 0, got {ridge}"
        )


def fit_weights(dm: DesignMatrix, ridge: float = 0.0) -> FitResult:
    """Solve ``min ||A w - E||^2 + ridge * ||w||^2`` exactly.

    With ``ridge=0`` and a rank-deficient system this returns the
    minimum-norm least-squares solution. Sizes that never occur in the
    dataset (all-zero columns) get weight exactly 0. Each weight is the
    float nearest the exact solution. ``rank`` is the exact rank of ``A``
    whatever ``ridge`` is, and ``residual_norm`` is the norm of the exact
    residual on the original system, rounded once.
    """
    check_ridge(ridge)
    columns = range(dm.size_limit)
    entries = [{s: _exact(row[s]) for s in compress(columns, row)}
               for row in dm.matrix]
    row_scale = math.lcm(*(den for row in entries for _, den in row.values()))
    rows = [{s: num * (row_scale // den) for s, (num, den) in row.items()}
            for row in entries]
    targets = [_exact(value) for value in dm.target]
    target_scale = math.lcm(*(den for _, den in targets))
    b = [num * (target_scale // den) for num, den in targets]
    lam, q = _exact(ridge)
    # A = rows / row_scale and E = b / target_scale, so w = row_scale * v /
    # target_scale for the v that minimizes q |rows v - b|^2 + mu |v|^2
    solution, rank = _solve_scaled(rows, b, q, lam * row_scale**2)

    den = math.lcm(*(d for _, d in solution.values()))
    numerators = {s: num * (den // d) for s, (num, d) in solution.items()}
    total = sum((sum(x * numerators[s] for s, x in row.items()) - den * t)**2
                for row, t in zip(rows, b))
    shift = max(0, 64 - total.bit_length() // 2)  # 64 exact bits of the root
    try:
        residual_norm = (math.isqrt(total << 2 * shift)
                         / ((den * target_scale) << shift))
    except OverflowError:  # the exact norm is beyond the largest float
        residual_norm = math.inf
    weights = [0.0] * dm.size_limit
    for s, (num, d) in solution.items():
        try:
            weights[s] = row_scale * num / (target_scale * d)
        except OverflowError:
            raise ValueError(
                f"fitted weight for size {s + 1} overflows a float") from None
    return FitResult(
        weights=WeightVector(weights),
        residual_norm=residual_norm,
        rank=rank,
        regularization=float(ridge),
    )


def _solve_scaled(rows: list[dict[int, int]], b: list[int], q: int, mu: int
                  ) -> tuple[dict[int, tuple[int, int]], int]:
    """The ``v`` that minimizes ``q * ||A v - b||^2 + mu * ||v||^2``, the
    least-norm one if ``mu`` is 0, as column -> ``(numerator, denominator)``
    over the columns ``rows`` use, and the rank of ``A``.

    A column that only one row has is that row's own. Minimizing over a
    row's own columns first leaves the row's equation with weight
    ``q * mu / (q * alpha + mu)`` on the shared columns, ``alpha`` the sum
    of squares of its own entries; at ``mu`` = 0 the equation is met
    exactly and drops out, and each row with a column of its own adds one
    to the rank. The normal equations of the shared columns are solved by
    elimination, columns in fewer of the remaining rows first. At ``mu`` =
    0 the free directions left span the null space of ``A``, and a second,
    nonsingular solve picks the solution orthogonal to it.
    """
    counts = Counter(s for row in rows for s in row)
    shared = [{s: x for s, x in row.items() if counts[s] > 1} for row in rows]
    own = {j: sum(x * x for s, x in row.items() if counts[s] == 1)
           for j, row in enumerate(rows) if len(shared[j]) < len(row)}
    kept = [row for j, row in enumerate(shared) if j not in own]
    kept_counts = Counter(s for row in kept for s in row)
    order = sorted((s for s in counts if counts[s] > 1),
                   key=lambda s: (kept_counts[s], s))
    equations = [(row, b[j], q * mu, q * own[j] + mu) if j in own
                 else (row, b[j], q, 1) for j, row in enumerate(shared)]
    values, free, scale = _solve(_normal_rows(equations, mu, order), order)
    if mu:
        rank = len(own) + len(_echelon(kept, order))
    else:
        rank = len(own) + len(order) - len(free)
    if free:
        # the y of least |v|^2, own columns included (a row's own entries
        # add its residual^2 / alpha): a least-squares problem in y
        least_norm = [(_sparse(vec[1:], free), -vec[0], 1, 1)
                      for vec in values.values()]
        for j, alpha in own.items():
            vec = _affine(shared[j], values, len(free))
            least_norm.append((_sparse(vec[1:], free), scale * b[j] - vec[0],
                               1, alpha))
        y, _, y_scale = _solve(_normal_rows(least_norm, 0, free), free)
        point = [y_scale, *(y[k][0] for k in free)]
        values = {c: [sum(map(operator.mul, vec, point))]
                  for c, vec in values.items()}
        scale *= y_scale
    solution = {c: (vec[0], scale) for c, vec in values.items()}
    for j, alpha in own.items():
        residual = scale * b[j] - sum(
            x * values[c][0] for c, x in shared[j].items())
        for s, x in rows[j].items():
            if counts[s] == 1:
                solution[s] = (q * x * residual, scale * (q * alpha + mu))
    return solution, rank


_RHS = -1  # the key of a sparse row's right-hand side


def _exact(value: float) -> tuple[int, int]:
    """A real number as the ``(numerator, denominator)`` it holds."""
    try:
        return value.as_integer_ratio()
    except AttributeError:  # a numpy int has no ratio
        return operator.index(value), 1
    except (OverflowError, ValueError):
        raise ValueError("design matrix and target must be finite") from None


def _sparse(vec: list[int], keys: list[int]) -> dict[int, int]:
    return {k: x for k, x in zip(keys, vec) if x}


def _affine(row: dict[int, int], values: dict[int, list[int]],
            free: int) -> list[int]:
    """``row . v`` as ``[constant, coefficient of each free column]``."""
    vec = [0] * (free + 1)
    for c, x in row.items():
        for i, y in enumerate(values[c]):
            vec[i] += x * y
    return vec


def _normal_rows(equations: list[tuple[dict[int, int], int, int, int]],
                 ridge: int, order: list[int]) -> list[dict[int, int]]:
    """Integer normal equations of ``sum(weight * (row . v - target)^2) +
    ridge * ||v||^2``, one row per column of ``order``; each equation is
    ``(row, target, weight numerator, weight denominator)``."""
    scale = math.lcm(*(den for _, _, num, den in equations if num))
    gram: dict[int, dict[int, int]] = {c: {} for c in order}
    for row, target, num, den in equations:
        if not num:
            continue
        factor = num * (scale // den)
        for s, x in row.items():
            fx, into = factor * x, gram[s]
            for t, y in row.items():
                into[t] = into.get(t, 0) + fx * y
            into[_RHS] = into.get(_RHS, 0) + fx * target
    if ridge:
        for c in order:
            gram[c][c] = gram[c].get(c, 0) + ridge * scale
    return [gram[c] for c in order]


def _eliminate(pivot_row: dict[int, int], row: dict[int, int],
               col: int) -> dict[int, int]:
    """``row`` less the multiple of ``pivot_row`` that clears ``col``,
    scaled to integers and, if scaled, divided by its gcd content."""
    a, b = pivot_row[col], row[col]
    common = math.gcd(a, b)
    a, b = a // common, b // common
    out = dict(row) if a == 1 else {c: a * x for c, x in row.items()}
    for c, x in pivot_row.items():
        out[c] = out.get(c, 0) - b * x
    del out[col]
    if a != 1:
        content = math.gcd(*out.values())
        if content > 1:
            out = {c: x // content for c, x in out.items()}
    return out


def _echelon(rows: list[dict[int, int]],
             order: list[int]) -> dict[int, dict[int, int]]:
    """Row echelon form of integer ``rows``, as pivot column -> row in the
    order the pivots were found. A row's pivot is its first column in
    ``order``; a row that reduces to zero is dropped."""
    rank = {c: i for i, c in enumerate(order)}
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        for col, pivot_row in pivots.items():
            if row.get(col):
                row = _eliminate(pivot_row, row, col)
        cols = [c for c, x in row.items() if x and c != _RHS]
        if cols:
            pivots[min(cols, key=rank.__getitem__)] = row
    return pivots


def _solve(rows: list[dict[int, int]], order: list[int]
           ) -> tuple[dict[int, list[int]], list[int], int]:
    """Every solution of the consistent system ``rows``, exactly.

    Returns ``(values, free, scale)``: each column ``c`` of ``order`` is
    ``(values[c][0] + sum(values[c][i + 1] * y_i)) / scale`` for any
    values ``y`` of the ``free`` columns, of which a nonsingular system
    has none.
    """
    pivots = _echelon(rows, order)
    free = [c for c in order if c not in pivots]
    values = {c: [int(i == k) for i in range(len(free) + 1)]
              for k, c in enumerate(free, start=1)}
    scale = 1
    for pivot in reversed(pivots):  # later pivots and free columns are known
        row = pivots[pivot]
        vec = _affine({c: -x for c, x in row.items()
                       if x and c != pivot and c != _RHS}, values, len(free))
        vec[0] += row.get(_RHS, 0) * scale
        den = row[pivot] * scale
        common = math.gcd(den, *vec)
        den //= common
        new_scale = math.lcm(scale, den)
        if new_scale != scale:
            for known in values.values():
                known[:] = [x * (new_scale // scale) for x in known]
        values[pivot] = [x // common * (new_scale // den) for x in vec]
        scale = new_scale
    return values, free, scale


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
