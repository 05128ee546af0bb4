"""Exact search for the node removals that weaken a graph the most.

Every candidate removal set is scored by one BFS over the input graph that
skips the removed nodes, and the chosen objective is computed from the
residual component sizes; there is no heuristic fallback. Instances
whose enumeration would exceed the budget raise instead of silently
degrading. Objective directions:

* ``proposed``  minimize weighted strength of the residual graph
* ``cole1``     maximize the residual component count
* ``cole2``     minimize the largest residual component
* ``gfp``       minimize the residual fragmentation score

When ``allow_fewer`` is set the search covers every subset of size 0..k
(a removal budget is an upper bound, and with non-monotone weights removing
fewer nodes can genuinely win); otherwise exactly k. Ties on the objective
prefer smaller removal sets, then the lexicographically smallest sorted id
sequence, so results do not depend on enumeration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .graph import Graph, components
from .metrics import METRIC_IDS, WeightVector, score

DEFAULT_SUBSET_BUDGET = 500_000

_MAXIMIZED = {"cole1"}


class ExactSearchBudgetError(ValueError):
    """The instance is too large for exact search under the budget."""


@dataclass(frozen=True)
class DismantleQuery:
    graph: Graph
    k: int
    objective: str
    weights: WeightVector | None = None
    allow_fewer: bool = True
    max_subsets: int | None = None

    def __post_init__(self) -> None:
        if self.objective not in METRIC_IDS:
            raise ValueError(f"unknown objective {self.objective!r}")
        if not (1 <= self.k < self.graph.n):
            raise ValueError(
                f"budget k must satisfy 1 <= k < n, got k={self.k}, "
                f"n={self.graph.n}"
            )
        if self.objective == "proposed" and self.weights is None:
            raise ValueError("the proposed objective requires a weight vector")


@dataclass(frozen=True)
class DismantleResult:
    """Optimal removal set and the objective value of its residual graph.

    ``ties`` counts all enumerated sets achieving the optimal value;
    ``removed``/``labels`` are the tie-break winner.
    """

    removed: tuple[int, ...]
    labels: tuple[str, ...]
    residual_value: float
    objective: str
    k: int
    ties: int

    def to_json_dict(self) -> dict:
        return {
            "removed": list(self.labels),
            "residual_value": self.residual_value,
            "objective": self.objective,
            "k": self.k,
            "ties": self.ties,
        }


def evaluate_removal(
    g: Graph,
    removed: Iterable[int],
    objective: str,
    weights: WeightVector | None = None,
) -> float:
    """Objective value of the residual graph after deleting ``removed``."""
    sizes = components(g, removed)
    # cole1 maximizes c itself: n / c would also vary with the residual's
    # size; an empty residual goes to score, which raises EmptyGraphError
    if objective == "cole1" and sizes:
        return float(len(sizes))
    return score(sizes, objective, weights)


def _candidate_sizes(k: int, allow_fewer: bool) -> range:
    return range(0, k + 1) if allow_fewer else range(k, k + 1)


def _check_budget(q: DismantleQuery) -> None:
    n = q.graph.n
    total = sum(math.comb(n, s) for s in _candidate_sizes(q.k, q.allow_fewer))
    if q.max_subsets is not None:
        ok = total <= q.max_subsets
        limit = f"max_subsets={q.max_subsets}"
    elif q.k <= 2:
        ok = n <= 40
        limit = "n <= 40 for k <= 2"
    elif q.k == 3:
        ok = n <= 25
        limit = "n <= 25 for k = 3"
    else:
        ok = total <= DEFAULT_SUBSET_BUDGET
        limit = f"{DEFAULT_SUBSET_BUDGET} candidate sets"
    if not ok:
        raise ExactSearchBudgetError(
            f"instance too large for exact search: n={n}, k={q.k} needs "
            f"{total} candidate sets (limit: {limit})"
        )


def best_removal(q: DismantleQuery) -> DismantleResult:
    """Exhaustively find the optimal removal set for any objective."""
    _check_budget(q)
    sign = -1.0 if q.objective in _MAXIMIZED else 1.0
    best_set: tuple[int, ...] = ()
    best_value = 0.0
    ties = 0
    nodes = range(q.graph.n)
    # sizes ascend and combinations() yields each size in lexicographic
    # order, so the first set to reach the optimum is the tie-break winner
    for size in _candidate_sizes(q.k, q.allow_fewer):
        for subset in combinations(nodes, size):
            value = evaluate_removal(q.graph, subset, q.objective, q.weights)
            if ties == 0 or sign * value < sign * best_value:
                best_set, best_value, ties = subset, value, 1
            elif value == best_value:
                ties += 1
    return DismantleResult(
        removed=best_set,
        labels=tuple(q.graph.label(u) for u in best_set),
        residual_value=best_value,
        objective=q.objective,
        k=q.k,
        ties=ties,
    )

