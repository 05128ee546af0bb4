"""Exact search for the node removals that weaken a graph the most.

Every candidate removal set is scored exactly, from the residual component
sizes; there is no heuristic fallback. The sets that share all but their
last node share one Hopcroft-Tarjan DFS over the input graph without the
shared nodes: its articulation points tell how each possible last node
splits its component, so each set then costs O(deg), not a BFS: 2.4-6 us
on sparse graphs.
The prefix's component sizes and that split fix the residual sizes, so
one memo keyed by them serves every prefix of a query: prefixes that
leave the same sizes share their objective values.
Instances whose enumeration would exceed the candidate-set budget raise
instead of silently degrading. Objective directions:

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
from typing import Iterable, Sequence

from .graph import Graph, components
from .metrics import METRIC_IDS, WeightVector, score

# at the 2.4-6 us that one candidate set costs on sparse graphs, the
# default cap bounds a search at about 3 s; dense graphs cost more per set
# (12-13 us on the complete graph K58 at k=4, so 5.4-5.8 s)
DEFAULT_SUBSET_BUDGET = 500_000
# a query's memo is cleared once it holds more split values than this: a
# 999-node path at k=2 would otherwise grow it by about 73 MiB
_MEMO_LIMIT = 16_384

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
    return _objective_value(components(g, removed), objective, weights)


def _objective_value(
    sizes: Sequence[int], objective: str, weights: WeightVector | None
) -> float:
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
    limit = DEFAULT_SUBSET_BUDGET if q.max_subsets is None else q.max_subsets
    if total > limit:
        raise ExactSearchBudgetError(
            f"instance too large for exact search: n={n}, k={q.k} needs "
            f"{total} candidate sets (limit: {limit})"
        )


def best_removal(q: DismantleQuery) -> DismantleResult:
    """Exhaustively find the optimal removal set for any objective.

    Sets come in ``combinations`` order. Sets that share all but their last
    node share one Hopcroft-Tarjan DFS; deleting a last node ``c`` cuts off
    the DFS subtrees of its children ``d`` with ``low(d) >= disc(c)``.
    ``memo`` maps a prefix's component sizes, then a split, to ``sign``
    times its value; a split that raises is not kept.
    """
    _check_budget(q)
    n, adjacency = q.graph.n, q.graph.adjacency
    sign = -1.0 if q.objective in _MAXIMIZED else 1.0
    best_set: tuple[int, ...] = ()
    best = 0.0
    ties = 0
    memo: dict[tuple[int, ...], dict] = {}
    entries = 0
    # sizes ascend and combinations() yields each size in lexicographic
    # order, so the first set to reach the optimum is the tie-break winner
    for size in _candidate_sizes(q.k, q.allow_fewer):
        if size == 0:
            best = sign * _objective_value(components(q.graph), q.objective,
                                           q.weights)
            ties = 1
            continue
        for prefix in combinations(range(n - 1), size - 1):
            # a removed node is "found" at n + 1: never entered, never a
            # low-point
            disc = [0] * n
            for node in prefix:
                disc[node] = n + 1
            comp_of = [0] * n
            comp_sizes: list[int] = []
            pieces: dict[int, list[int]] = {}
            time = 0
            for root in range(n):
                if disc[root]:
                    continue
                index = len(comp_sizes)
                time += 1
                first = disc[root] = time
                comp_of[root] = index
                stack = []
                v, neighbors, low = root, iter(adjacency[root]), time
                while True:
                    for w in neighbors:
                        d = disc[w]
                        if not d:
                            time += 1
                            disc[w] = time
                            comp_of[w] = index
                            stack.append((v, neighbors, low))
                            v, neighbors, low = w, iter(adjacency[w]), time
                            break
                        if d < low:
                            low = d
                    else:
                        if not stack:
                            break
                        child, child_low = v, low
                        v, neighbors, low = stack.pop()
                        # preorder times: the subtree is all found since child
                        if child_low >= disc[v]:
                            pieces.setdefault(v, []).append(time - disc[child] + 1)
                        elif child_low < low:
                            low = child_low
                comp_sizes.append(time - first + 1)
            # the residual is every other component plus the pieces of c's
            # own one, so the component sizes, that one's size and the
            # pieces fix the value; an uncut split is keyed by the bare size
            if entries > _MEMO_LIMIT:
                memo.clear()
                entries = 0
            split_values = memo.setdefault(tuple(comp_sizes), {})
            for c in range(prefix[-1] + 1 if prefix else 0, n):
                index = comp_of[c]
                cut = pieces.get(c)
                split = (comp_sizes[index], *cut) if cut else comp_sizes[index]
                value = split_values.get(split)
                if value is None:
                    cut = cut or []
                    rest = comp_sizes[index] - 1 - sum(cut)
                    sizes = (comp_sizes[:index] + comp_sizes[index + 1:] + cut
                             + ([rest] if rest else []))
                    value = split_values[split] = sign * _objective_value(
                        sizes, q.objective, q.weights)
                    entries += 1
                if value < best or not ties:
                    best_set, best, ties = prefix + (c,), value, 1
                elif value == best:
                    ties += 1
    return DismantleResult(
        removed=best_set,
        labels=tuple(q.graph.label(u) for u in best_set),
        residual_value=sign * best,
        objective=q.objective,
        k=q.k,
        ties=ties,
    )
