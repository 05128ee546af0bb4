"""Independent answer checks for the benchmark, in plain Python.

Nothing here calls into ``netstrength`` except :func:`check_emit`, which asks
the package's own model verifier to score an assignment built here. Every
other value is recomputed from edges and node counts: residual components
with a union-find, exhaustive search with integer bitmasks, metric values,
RMSE, and the least-squares optimality conditions of a weight fit.

Values that decide ties are computed in the same arithmetic order as the
package (component sizes ascending for the weighted sum), because the tie
count is defined by exact float equality and is part of the search contract.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

MAXIMIZED = {"cole1"}

# Queries whose exhaustive enumeration has at most this many candidate sets
# are re-solved by the bitmask oracle; larger ones get the residual recheck.
ORACLE_MAX_SETS = 5000

REL_TOL = 1e-9


class CheckFailed(AssertionError):
    """An operation's output disagrees with the independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def weight_at(weights: tuple[float, ...], size: int) -> float:
    """Per-size weight under the clamp policy: sizes past the end reuse the
    last entry."""
    return weights[size - 1] if size <= len(weights) else weights[-1]


def _component_roots(n: int, edges, gone) -> list[int]:
    """Union-find root of every node of the graph minus ``gone``."""
    parent = list(range(n))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u, v in edges:
        if u not in gone and v not in gone:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    return [find(u) for u in range(n)]


def residual_sizes(n: int, edges, removed=()) -> list[int]:
    """Component sizes of the graph minus ``removed``."""
    gone = set(removed)
    roots = _component_roots(n, edges, gone)
    return list(Counter(r for u, r in enumerate(roots) if u not in gone).values())


def weighted_strength(sizes, weights) -> float:
    """``sum(size * w_size * count)`` over sizes in ascending order."""
    raw = 0.0
    for size, count in sorted(Counter(sizes).items()):
        raw += size * weight_at(weights, size) * count
    return raw


def objective_value(sizes, objective: str, weights=None) -> float:
    """Search objective of a residual with the given component sizes.

    ``cole1`` counts components here; the ``cole1`` *metric* is ``n / c``
    (see :func:`normalized_metric`).
    """
    if objective == "proposed":
        return weighted_strength(sizes, weights)
    if objective == "cole1":
        return float(len(sizes))
    if objective == "cole2":
        return float(max(sizes))
    if objective == "gfp":
        return sum(s * s for s in sizes) / sum(sizes)
    raise ValueError(f"unknown objective {objective!r}")


def normalized_metric(sizes, metric: str, weights=None) -> float:
    """A strength metric of a graph divided by its node count."""
    n = sum(sizes)
    if metric == "proposed":
        raw = weighted_strength(sizes, weights)
    elif metric == "cole1":
        raw = n / len(sizes)
    elif metric == "cole2":
        raw = float(max(sizes))
    elif metric == "gfp":
        raw = sum(s * s for s in sizes) / n
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return raw / n


def rmse(pred, truth) -> float:
    return math.sqrt(sum((p - t) ** 2 for p, t in zip(pred, truth)) / len(pred))


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


# --- exact removal search -------------------------------------------------

def enumeration_size(n: int, k: int) -> int:
    return sum(math.comb(n, s) for s in range(k + 1))


def _mask_sizes(adjacency: list[int], alive: int) -> list[int]:
    sizes = []
    while alive:
        component = frontier = alive & -alive
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = adjacency[low.bit_length() - 1] & alive & ~component
            component |= grown
            frontier |= grown
        alive &= ~component
        sizes.append(component.bit_count())
    return sizes


def exhaustive_optimum(n: int, edges, k: int, objective: str, weights=None):
    """Re-solve a removal query over every subset of size 0..k.

    Returns ``(value, ties, winner)`` where the winner is the smallest set,
    then the lexicographically smallest sorted id tuple, among the ties.
    """
    adjacency = [0] * n
    for u, v in edges:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    full = (1 << n) - 1
    sign = -1.0 if objective in MAXIMIZED else 1.0
    best = None
    ties = 0
    for size in range(k + 1):
        for subset in combinations(range(n), size):
            mask = 0
            for u in subset:
                mask |= 1 << u
            value = objective_value(
                _mask_sizes(adjacency, full & ~mask), objective, weights
            )
            key = (sign * value, size, subset)
            if best is None or key[0] < best[0]:
                best, ties = key, 1
            elif key[0] == best[0]:
                ties += 1
                best = min(best, key)
    return sign * best[0], ties, best[2]


def check_removal(n: int, edges, k: int, objective: str, weights, result,
                  optimum=None) -> None:
    """Check one ``best_removal`` answer.

    ``optimum`` is the ``(value, ties, winner)`` triple from
    :func:`exhaustive_optimum`, or None when the query is too large to
    re-solve; the returned set's own value is rechecked either way.
    """
    removed = tuple(result.removed)
    require(result.objective == objective, f"objective {result.objective!r}")
    require(result.k == k, f"k {result.k} != {k}")
    require(len(removed) <= k, f"{len(removed)} nodes removed, budget {k}")
    require(list(removed) == sorted(set(removed)), f"set {removed} not sorted")
    require(all(0 <= u < n for u in removed), f"set {removed} out of range")
    require(tuple(result.labels) == tuple(str(u) for u in removed),
            f"labels {result.labels} do not name {removed}")
    value = objective_value(residual_sizes(n, edges, removed), objective, weights)
    require(math.isclose(result.residual_value, value, rel_tol=1e-12),
            f"set {removed} scores {value}, reported {result.residual_value}")
    require(result.ties >= 1, f"ties {result.ties}")
    if optimum is not None:
        best_value, ties, winner = optimum
        require(result.residual_value == best_value,
                f"value {result.residual_value}, optimum {best_value}")
        require(result.ties == ties, f"ties {result.ties}, expected {ties}")
        require(removed == winner, f"winner {removed}, expected {winner}")


def model_assignment(n: int, edges, removed) -> dict[str, float]:
    """Integer-program assignment that realises a removal set: each residual
    component and each removed node gets its own slot."""
    gone = set(removed)
    roots = _component_roots(n, edges, gone)
    slot_of_root: dict[int, int] = {}
    slot = [slot_of_root.setdefault(root, len(slot_of_root) + 1)
            for root in roots]
    sizes = Counter(slot)
    values: dict[str, float] = {}
    for i in range(1, n + 1):
        values[f"y_{i}"] = 1.0 if i - 1 in gone else 0.0
        for j in range(1, n + 1):
            values[f"x_{i}_{j}"] = 1.0 if slot[i - 1] == j else 0.0
    slots_of_size = Counter()
    for j in range(1, n + 1):
        size = sizes.get(j, 0)
        values[f"C_{j}"] = float(size)
        slots_of_size[size] += 1
        for t in range(n + 1):
            values[f"m_{j}_{t}"] = 1.0 if t == size else 0.0
    for t in range(n + 1):
        values[f"S_{t}"] = float(slots_of_size[t])
    return values


def check_emit(ilp_module, graph, n: int, edges, k: int, weights, text: str,
               result) -> None:
    """The emitted model scores the returned set at its residual strength."""
    require(text.startswith(
        f"\\ component-size strength removal model: n={n}, "
        f"edges={len(edges)}, k={k}\n"), "unexpected LP header")
    require(text.endswith("\nEnd\n"), "LP text is not terminated")
    expected = weighted_strength(
        residual_sizes(n, edges, result.removed), weights.weights
    )
    scored = ilp_module.verify_ilp_solution(
        graph, k, weights, model_assignment(n, edges, result.removed)
    )
    require(close(scored, expected),
            f"model scores {scored}, residual strength is {expected}")
    if result.objective == "proposed":
        require(close(scored, result.residual_value),
                f"model scores {scored}, search reports "
                f"{result.residual_value}")


# --- weight fitting -------------------------------------------------------

def design_row(sizes) -> dict[int, float]:
    """Non-zero entries ``size -> size * count`` of one design-matrix row."""
    return {size: float(size * count) for size, count in Counter(sizes).items()}


def check_fit(rows, targets, fitted: tuple[float, ...], ridge: float,
              residual_norm: float) -> None:
    """Check a least-squares fit by its optimality conditions.

    The residual norm must match, and the gradient ``A^T (A w - E) + ridge w``
    of the objective must vanish up to rounding.
    """
    width = len(fitted)
    require(width == max(max(row) for row in rows),
            f"{width} weights for largest size {max(max(r) for r in rows)}")
    residual = [
        sum(value * fitted[size - 1] for size, value in row.items()) - target
        for row, target in zip(rows, targets)
    ]
    norm = math.sqrt(sum(r * r for r in residual))
    require(math.isclose(norm, residual_norm, rel_tol=1e-7, abs_tol=1e-9),
            f"residual norm {residual_norm}, recomputed {norm}")
    gradient = [ridge * w for w in fitted]
    for row, r in zip(rows, residual):
        for size, value in row.items():
            gradient[size - 1] += value * r
    scale = max(
        1.0,
        max(abs(sum(row.get(c, 0.0) * t for row, t in zip(rows, targets)))
            for c in range(1, width + 1)),
    )
    worst = max(abs(g) for g in gradient)
    require(worst <= 1e-7 * scale,
            f"fit gradient {worst} is not zero (scale {scale})")
