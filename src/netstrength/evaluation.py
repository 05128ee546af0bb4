"""Agreement statistics between metric outputs and survey ground truth.

Two comparison modes: RMSE between normalized strength values, and match
statistics between predicted authoritative node sets and ranked survey
candidates. Candidates and predictions are unordered label sets, so the
pair [2, 11] equals [11, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

from .datasets import check_estimate, csv_text, parse_cell, read_rows
from .graph import Graph, components
from .metrics import METRIC_IDS, WeightVector, score

MEMBER_SEPARATOR = ";"
_STATISTICS = ("exact_match", "rank_match", "percentage_match")
_T = TypeVar("_T")


def _or_dash(value: _T | None) -> _T | str:
    """The value, or "-" for a statistic or rank that is undefined."""
    return "-" if value is None else value


def rmse(pred: Sequence[float], gt: Sequence[float]) -> float:
    """Root mean squared error between two equal-length value sequences."""
    if len(pred) != len(gt):
        raise ValueError(
            f"length mismatch: {len(pred)} predictions vs {len(gt)} truths"
        )
    if not pred:
        raise ValueError("rmse needs at least one value pair")
    return math.sqrt(
        sum((p - g) ** 2 for p, g in zip(pred, gt)) / len(pred)
    )


@dataclass(frozen=True)
class RankedGroundTruth:
    """Survey candidates for one graph, ordered by descending vote share.

    ``vote_shares`` (percents, summing to at most 100) may be omitted when
    only the ranking is known.
    """

    candidates: tuple[frozenset[str], ...]
    vote_shares: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("ranked ground truth needs at least one candidate")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("candidates must be distinct as unordered sets")
        if self.vote_shares is not None:
            if len(self.vote_shares) != len(self.candidates):
                raise ValueError("one vote share per candidate required")
            if not all(share >= 0 for share in self.vote_shares):  # or NaN
                raise ValueError(f"vote shares must be non-negative, got "
                                 f"{list(self.vote_shares)}")
            if sum(self.vote_shares) > 100 + 1e-9:
                raise ValueError("vote shares must sum to at most 100")

    def rank_of(self, prediction: frozenset[str]) -> int | None:
        """1-based rank of ``prediction``, or None when it got no votes."""
        for rank, candidate in enumerate(self.candidates, start=1):
            if candidate == prediction:
                return rank
        return None


@dataclass(frozen=True)
class MatchDetail:
    graph_id: str
    prediction: frozenset[str]
    rank: int | None
    vote_share: float | None
    hit: bool


@dataclass(frozen=True)
class MatchReport:
    """Aggregate agreement between predictions and ranked ground truth.

    ``rank_match`` is None when any prediction is absent from its candidate
    list; ``percentage_match`` is None unless every graph carries vote
    shares. Both render as "-" in the emitted tables.
    """

    exact_match: float
    rank_match: float | None
    percentage_match: float | None
    details: tuple[MatchDetail, ...]

    def detail_csv(self) -> str:
        return csv_text(
            ["graph_id", "prediction", "rank", "vote_share", "hit"],
            ([d.graph_id, MEMBER_SEPARATOR.join(sorted(d.prediction)),
              _or_dash(d.rank), _or_dash(d.vote_share), int(d.hit)]
             for d in self.details),
        )

    def summary_csv(self) -> str:
        return csv_text(
            ["statistic", "value"],
            ([name, _or_dash(getattr(self, name))] for name in _STATISTICS),
        )

    def format_table(self) -> str:
        rows = [("graph", "prediction", "rank", "hit")]
        for d in self.details:
            rows.append((
                d.graph_id,
                "{" + ", ".join(sorted(d.prediction)) + "}",
                str(_or_dash(d.rank)),
                "yes" if d.hit else "no",
            ))
        widths = [max(len(r[c]) for r in rows) for c in range(4)]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            for row in rows
        ]
        lines.append("")
        for name in _STATISTICS:
            label = name.replace("_", " ")
            lines.append(f"{label:<17}{_or_dash(getattr(self, name))}")
        return "\n".join(lines)


def match_stats(
    preds: Mapping[str, frozenset[str] | set[str] | Sequence[str]],
    gt: Mapping[str, RankedGroundTruth],
) -> MatchReport:
    """Score predicted node sets against ranked survey candidates.

    exact_match: fraction of graphs whose prediction equals the top-ranked
    candidate. rank_match: mean 1-based rank of the predictions, defined
    only when every prediction appears somewhere in its list.
    percentage_match: mean vote share of the predicted candidate (0 when
    absent), defined only when all graphs carry vote shares.
    """
    if not preds:
        raise ValueError("no predictions given")
    details: list[MatchDetail] = []
    for graph_id in sorted(preds):
        if graph_id not in gt:
            raise ValueError(f"no ground truth for predicted graph {graph_id!r}")
        if isinstance(preds[graph_id], str):  # it would read as its letters
            raise ValueError(f"prediction for graph {graph_id!r} is a str")
        prediction = frozenset(preds[graph_id])
        truth = gt[graph_id]
        rank = truth.rank_of(prediction)
        share: float | None = None
        if truth.vote_shares is not None:
            share = 0.0 if rank is None else truth.vote_shares[rank - 1]
        details.append(MatchDetail(
            graph_id=graph_id,
            prediction=prediction,
            rank=rank,
            vote_share=share,
            hit=rank == 1,
        ))
    count = len(details)
    exact = sum(d.hit for d in details) / count
    rank_match = None
    if all(d.rank is not None for d in details):
        rank_match = sum(d.rank for d in details) / count
    percentage = None
    if all(d.vote_share is not None for d in details):
        percentage = sum(d.vote_share for d in details) / count
    return MatchReport(
        exact_match=exact,
        rank_match=rank_match,
        percentage_match=percentage,
        details=tuple(details),
    )


@dataclass(frozen=True)
class CompareResult:
    """Per-graph normalized strengths next to ground truth, plus RMSE."""

    metrics: tuple[str, ...]
    rows: tuple[tuple, ...]  # (graph_id, n, gt_norm, *metric_norms)
    rmse_by_metric: dict[str, float]

    def to_csv(self) -> str:
        rmse_rows = (
            [f"rmse:{metric}", "", ""]
            + [self.rmse_by_metric[m] if m == metric else ""
               for m in self.metrics]
            for metric in self.metrics
        )
        return csv_text(
            ["graph_id", "n", "gt_norm"] + [f"{m}_norm" for m in self.metrics],
            [*self.rows, *rmse_rows],
        )


def compare_suite(
    graphs: Sequence[tuple[str, Graph]],
    gt_strengths: Mapping[str, float],
    metrics: Sequence[str] = METRIC_IDS,
    weights: WeightVector | None = None,
) -> CompareResult:
    """Evaluate selected metrics on every graph against mean estimates.

    ``gt_strengths`` holds raw mean estimates in [1, n], or ``ValueError``;
    everything is normalized by the graph's node count before comparison.
    """
    rows = []
    for graph_id, graph in graphs:
        if graph_id not in gt_strengths:
            raise ValueError(f"no ground-truth strength for graph {graph_id!r}")
        sizes = components(graph)
        try:
            values = [score(sizes, m, weights) / graph.n for m in metrics]
        except ValueError as error:
            raise type(error)(f"graph {graph_id!r}: {error}") from None
        mean = gt_strengths[graph_id]  # after scoring: n = 0 raises there
        check_estimate("mean_estimate", mean, graph_id, graph.n)
        rows.append((graph_id, graph.n, mean / graph.n, *values))
    gt_normalized = [row[2] for row in rows]
    rmse_by_metric = {
        metric: rmse([row[column] for row in rows], gt_normalized)
        for column, metric in enumerate(metrics, start=3)
    }
    return CompareResult(
        metrics=tuple(metrics),
        rows=tuple(rows),
        rmse_by_metric=rmse_by_metric,
    )


def _members(path: str | Path, line_no: int, row: dict[str, str],
             column: str) -> frozenset[str]:
    labels = map(str.strip, row[column].split(MEMBER_SEPARATOR))
    members = frozenset(labels) - {""}
    if not members:
        raise ValueError(f"{path}:{line_no}: empty member set")
    return members


def load_ranked_gt_csv(path: str | Path) -> dict[str, RankedGroundTruth]:
    """Read ``graph_id,rank,members,vote_share`` rows into ranked truths.

    Members are ;-separated labels; ranks per graph must be contiguous from
    1; the vote_share column may be empty as long as it is empty for every
    candidate of a graph.
    """
    candidates: dict[str, list[tuple[int, frozenset[str], float | None]]] = {}
    for line_no, row in read_rows(path, ("graph_id", "rank", "members")):
        share = None
        if (row.get("vote_share") or "").strip():
            share = parse_cell(path, line_no, row, "vote_share")
            if share < 0:
                raise ValueError(f"{path}:{line_no}: vote_share must be "
                                 f"non-negative, got {row['vote_share']!r}")
        candidates.setdefault(row["graph_id"], []).append((
            parse_cell(path, line_no, row, "rank", int),
            _members(path, line_no, row, "members"),
            share,
        ))
    result = {}
    for graph_id, entries in candidates.items():
        where = f"{path}: graph {graph_id!r}"
        entries.sort(key=lambda e: e[0])
        ranks = [rank for rank, _, _ in entries]
        if ranks != list(range(1, len(entries) + 1)):
            raise ValueError(
                f"{where}: ranks must be contiguous from 1, got {ranks}")
        shares = [share for _, _, share in entries]
        with_shares = [s for s in shares if s is not None]
        if with_shares and len(with_shares) != len(shares):
            raise ValueError(f"{where} mixes present and missing vote shares")
        try:
            result[graph_id] = RankedGroundTruth(
                candidates=tuple(members for _, members, _ in entries),
                vote_shares=tuple(with_shares) if with_shares else None,
            )
        except ValueError as error:
            raise ValueError(f"{where}: {error}") from None
    return result


def _by_graph_id(
    path: str | Path, column: str,
    parse: Callable[[str | Path, int, dict[str, str], str], _T],
) -> dict[str, _T]:
    """Read ``graph_id,<column>`` rows, each id once, into
    ``{graph_id: parse(path, line_no, row, column)}``."""
    result: dict[str, _T] = {}
    for line_no, row in read_rows(path, ("graph_id", column)):
        graph_id = row["graph_id"]
        if graph_id in result:
            raise ValueError(f"{path}:{line_no}: duplicate graph_id {graph_id!r}")
        result[graph_id] = parse(path, line_no, row, column)
    if not result:
        raise ValueError(f"{path}: no {column} rows")
    return result


def load_predictions_csv(path: str | Path) -> dict[str, frozenset[str]]:
    """Read ``graph_id,members`` rows (members ;-separated)."""
    return _by_graph_id(path, "members", _members)


def load_strength_values_csv(path: str | Path) -> dict[str, float]:
    """Read ``graph_id,value`` rows of normalized strength predictions."""
    return _by_graph_id(path, "value", parse_cell)


def load_strength_gt_csv(path: str | Path) -> dict[str, float]:
    """Read ``graph_id,mean_estimate`` rows."""
    return _by_graph_id(path, "mean_estimate", parse_cell)
