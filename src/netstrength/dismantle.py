"""Exact search for the node removals that weaken a graph the most.

Every candidate removal set is scored exactly, from the residual component
sizes; there is no heuristic fallback. Each removal size is covered by a
family of prefixes, sets one node short such that every set of the size
holds one, and each set is priced at exactly one of them. One DFS of the
input graph without a prefix's nodes, ``graph._split``, tells how each
other node splits its component, so a set costs O(deg), not a traversal.
Turan's family covers the 4-sets with 4/9 of the 3-node prefixes and two
id halves cover the 3-sets with half of the pairs: a 22-node query at
k=4 runs 769 DFS, not 1,562. A set then costs 1.2-2.3 us on sparse
58-node graphs at k=4.
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
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .graph import Graph, _check_removal_size, _split, components
from .metrics import METRIC_IDS, WeightCoverageError, WeightVector, score

# the default cap bounds a search at about 3 s: one candidate set costs
# 1.2-2.3 us on sparse 58-node graphs at k=4 (0.5-1.1 s), 3.5-4.6 us on a
# 999-node path at k=2 (1.8-2.3 s) and 4.3-5.6 us on the complete graph
# K58 at k=4 (2.0-2.6 s)
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
        _check_removal_size(self.k, self.graph.n)
        if self.max_subsets is not None and self.max_subsets < 1:
            raise ValueError(f"candidate-set budget must be >= 1, "
                             f"got {self.max_subsets}")
        if self.objective == "proposed":  # the others ignore weights
            if self.weights is None:
                raise ValueError(
                    "the proposed objective requires a weight vector")
            self.weights.check_overflow(self.graph.n)


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


# Turan's (4, 3) construction: per-block counts over three id blocks such
# that every 4-set holds a 3-set with one of them
_TURAN = ((3, 0, 0), (2, 1, 0), (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 0, 3))


def _plan(n: int, r: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Each family prefix of ``r`` nodes with the last nodes it prices, in
    ascending order: every (r+1)-subset of ``range(n)`` comes once.

    A prefix is in the family when its node counts over contiguous id
    blocks form a pattern. Set S is priced at S - x for the largest x that
    leaves a family prefix, so P prices no c below a node of P it can swap
    with inside the family: c's block is skipped, or taken after P's last
    node in it. Patterns heavy in low blocks come first.
    """
    if r <= 1:  # every prefix, priced by the nodes above its last
        for last in range(n - 1) if r else (-1,):
            yield (last,)[:r], list(range(last + 1, n))
        return
    # two halves with an even upper count or all r nodes upper, except
    # Turan's three blocks for r = 3
    patterns = _TURAN if r == 3 else tuple(
        (r - b, b) for b in range(r + 1) if b % 2 == 0 or b == r)
    q = len(patterns[0])
    blocks = [range(n * b // q, n * (b + 1) // q) for b in range(q)]
    for pattern in patterns:
        taken = [j for j in range(q) if not any(
            pattern[i] and tuple(count - (b == i) + (b == j)
                                 for b, count in enumerate(pattern)) in patterns
            for i in range(j + 1, q))]
        for parts in product(*map(combinations, blocks, pattern)):
            candidates: list[int] = []
            for j in taken:
                candidates += (range(parts[j][-1] + 1, blocks[j].stop)
                               if parts[j] else blocks[j])
            if candidates:
                yield sum(parts, ()), candidates


def best_removal(q: DismantleQuery) -> DismantleResult:
    """Exhaustively find the optimal removal set for any objective.

    Each size walks the prefixes of ``_plan``, one ``_split`` each, which
    splits the component of every last node ``c``; size 1's empty prefix
    also prices the empty set. ``memo`` maps a prefix's component sizes,
    then a split, to ``sign`` times its value; a split that raises is not
    kept. Sets come out of order, so the winner and the first raising set
    are the smallest sorted ones of their size. Each size keeps its own
    ``(value, ties, winner)`` record; the answer is the smallest size at
    the best value, with the ties of every size at that value.
    """
    _check_budget(q)
    sign = -1.0 if q.objective in _MAXIMIZED else 1.0
    records: list[tuple[float, int, tuple[int, ...]]] = []
    memo: dict[tuple[int, ...], dict] = {}
    entries = 0
    raising: tuple[tuple[int, ...], WeightCoverageError] | None = None
    for size in filter(None, _candidate_sizes(q.k, q.allow_fewer)):
        # (n,) sorts after every set of node ids, so it is never a winner
        best, ties, best_set = math.inf, 0, (q.graph.n,)
        for prefix, candidates in _plan(q.graph.n, size - 1):
            if raising:  # only a smaller set can be the first to raise
                candidates = [c for c in candidates
                              if tuple(sorted(prefix + (c,))) < raising[0]]
                if not candidates:
                    continue
            comp_sizes, comp_of, pieces = _split(q.graph, prefix)
            if q.allow_fewer and not prefix:  # the empty set, priced first
                records.append((sign * _objective_value(
                    comp_sizes, q.objective, q.weights), 1, ()))
            # the residual is every other component plus the pieces of c's
            # own one, so the component sizes, that one's size and the
            # pieces fix the value; an uncut split is keyed by the bare size
            if entries > _MEMO_LIMIT:
                memo.clear()
                entries = 0
            split_values = memo.setdefault(tuple(comp_sizes), {})
            tied = False  # only a prefix's first tie can be a smaller set
            for c in candidates:
                index = comp_of[c]
                cut = pieces.get(c)
                split = (comp_sizes[index], *cut) if cut else comp_sizes[index]
                value = split_values.get(split)
                if value is None:
                    cut = cut or []
                    rest = comp_sizes[index] - 1 - sum(cut)
                    sizes = (comp_sizes[:index] + comp_sizes[index + 1:] + cut
                             + ([rest] if rest else []))
                    try:
                        value = split_values[split] = sign * _objective_value(
                            sizes, q.objective, q.weights)
                    except WeightCoverageError as error:
                        # the later candidates of a prefix make larger sets
                        raising = tuple(sorted(prefix + (c,))), error
                        break
                    entries += 1
                if value < best:  # a new best restarts the size's record
                    best, ties, best_set, tied = value, 0, (q.graph.n,), False
                if value == best:
                    ties += 1
                    if not tied:
                        tied = True
                        best_set = min(best_set, tuple(sorted(prefix + (c,))))
        if raising:
            raise raising[1]
        records.append((best, ties, best_set))
    best, _, best_set = min(records, key=lambda record: record[0])
    return DismantleResult(
        removed=best_set,
        labels=tuple(q.graph.label(u) for u in best_set),
        residual_value=sign * best,
        objective=q.objective,
        k=q.k,
        ties=sum(count for value, count, _ in records if value == best),
    )
