from __future__ import annotations

import functools
import hashlib
import json
import random
from collections import Counter
from itertools import combinations
from typing import Iterator

import numpy as np
import pytest

from conftest import (
    complete_graph,
    path_graph,
    random_graph,
    random_tree,
    star_graph,
)
from netstrength import dismantle, graph
from netstrength.dismantle import (
    DismantleQuery,
    DismantleResult,
    ExactSearchBudgetError,
    best_removal,
    evaluate_removal,
)
from netstrength.graph import EmptyGraphError, Graph, _split
from netstrength.metrics import (
    EXTENSION_CLAMP,
    EXTENSION_ERROR,
    METRIC_IDS,
    WeightCoverageError,
    WeightVector,
    score,
)
from netstrength.weights import default_weights

ALL_ONES = WeightVector([1.0] * 16)
OBJECTIVES = ("proposed", "cole1", "cole2", "gfp")


def residual_sizes(g: Graph, removed: tuple[int, ...]) -> list[int]:
    """Component sizes after removal, computed from scratch."""
    alive = [u for u in range(g.n) if u not in removed]
    neighbors = {u: set() for u in alive}
    for u, v in g.edges:
        if u in neighbors and v in neighbors:
            neighbors[u].add(v)
            neighbors[v].add(u)
    sizes = []
    seen: set[int] = set()
    for start in alive:
        if start in seen:
            continue
        stack, members = [start], 0
        seen.add(start)
        while stack:
            node = stack.pop()
            members += 1
            for other in neighbors[node]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        sizes.append(members)
    return sizes


def oracle_objective(
    sizes: list[int], objective: str, w: WeightVector | None
) -> float:
    if objective == "proposed":
        # grouped by size class, ascending, like the metric definition
        buckets = Counter(sizes)
        return sum(s * w.value(s) * c for s, c in sorted(buckets.items()))
    if objective == "cole1":
        return float(len(sizes))
    if objective == "cole2":
        return float(max(sizes))
    return sum(s * s for s in sizes) / sum(sizes)


@functools.cache
def descending_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """Every subset of ``range(n)``, by bitmask in descending order."""
    return tuple(tuple(i for i in range(n) if mask >> i & 1)
                 for mask in range((1 << n) - 1, -1, -1))


def oracle_best_removal(
    g: Graph,
    k: int,
    objective: str,
    w: WeightVector | None = None,
    allow_fewer: bool = True,
    values: dict[tuple[int, ...], float] | None = None,
) -> DismantleResult:
    """Second enumerator: walks bitmasks in descending order. ``values``
    maps each candidate set to its objective value; by default each is
    computed from scratch."""
    maximize = objective == "cole1"
    best = None
    ties = 0
    for subset in descending_subsets(g.n):
        if len(subset) > k or (not allow_fewer and len(subset) != k):
            continue
        value = (oracle_objective(residual_sizes(g, subset), objective, w)
                 if values is None else values[subset])
        if best is None:
            best, ties = (value, subset), 1
            continue
        current = best[0]
        if (value > current) if maximize else (value < current):
            best, ties = (value, subset), 1
        elif value == current:
            ties += 1
            if (len(subset), subset) < (len(best[1]), best[1]):
                best = (value, subset)
    value, subset = best
    return DismantleResult(
        removed=subset,
        labels=tuple(g.label(u) for u in subset),
        residual_value=value,
        objective=objective,
        k=k,
        ties=ties,
    )


class TestQueryValidation:
    def test_budget_range(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="1 <= k < n"):
            DismantleQuery(graph=g, k=0, objective="cole2")
        with pytest.raises(ValueError, match="1 <= k < n"):
            DismantleQuery(graph=g, k=4, objective="cole2")

    def test_proposed_needs_weights(self):
        with pytest.raises(ValueError, match="weight vector"):
            DismantleQuery(graph=path_graph(4), k=1, objective="proposed")

    def test_weights_that_could_overflow_are_refused(self):
        # each weight is finite, but residual sizes (1, 1, 2, 2) sum to
        # inf + -inf = NaN, which no comparison orders
        g = Graph.build(6, [(2, 3), (4, 5)])
        huge = WeightVector((1e308, -1e308), EXTENSION_CLAMP)
        with pytest.raises(ValueError, match="could overflow a float"):
            DismantleQuery(graph=g, k=1, objective="proposed", weights=huge)
        for objective in ("cole1", "cole2", "gfp"):  # they take no weights
            DismantleQuery(graph=g, k=1, objective=objective, weights=huge)
        # only the weights of sizes 1..n count, and 2 * 6 * 1e307 is finite
        large = WeightVector((1e307, -1e307, 0, 0, 0, 0, 1e308))
        result = best_removal(
            DismantleQuery(graph=g, k=1, objective="proposed", weights=large)
        )
        assert (result.removed, result.ties) == ((0,), 2)
        assert result.residual_value == score((1, 2, 2), "proposed", large)

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objective"):
            DismantleQuery(graph=path_graph(4), k=1, objective="degree")

    def test_evaluate_removal_proposed_needs_weights(self):
        # a ValueError, not an assert that python -O would strip
        with pytest.raises(ValueError, match="weight vector"):
            evaluate_removal(path_graph(4), (0,), "proposed")

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_evaluate_removal_unknown_node(self, objective):
        with pytest.raises(ValueError, match="unknown node id 4"):
            evaluate_removal(path_graph(4), (1, 4), objective, ALL_ONES)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_evaluate_removal_repeated_node_counts_once(self, objective):
        g = path_graph(5)
        assert evaluate_removal(g, (2, 2), objective, ALL_ONES) == (
            evaluate_removal(g, (2,), objective, ALL_ONES)
        )

    @pytest.mark.parametrize("objective", METRIC_IDS)
    def test_evaluate_removal_empty_residual(self, objective):
        # every objective answers an empty residual the same way
        with pytest.raises(EmptyGraphError):
            evaluate_removal(Graph.build(2, [(0, 1)]), [0, 1], objective,
                             ALL_ONES)


class TestExamples:
    def test_star_center_is_optimal(self):
        q = DismantleQuery(
            graph=star_graph(5), k=1, objective="proposed",
            weights=default_weights(),
        )
        result = best_removal(q)
        assert result.removed == (0,)
        assert result.residual_value == pytest.approx(4 * 0.2221)
        assert result.ties == 1

    def test_removing_nothing_can_win(self):
        # 5-cycle: any single removal leaves a 4-path, and the bundled
        # weights rate a 4-node component above a 5-node one
        cycle = Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        q = DismantleQuery(
            graph=cycle, k=1, objective="proposed", weights=default_weights()
        )
        result = best_removal(q)
        assert result.removed == ()
        assert result.residual_value == pytest.approx(5 * 0.5538)

    def test_exact_size_forces_a_removal(self):
        cycle = Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        q = DismantleQuery(
            graph=cycle, k=1, objective="proposed",
            weights=default_weights(), allow_fewer=False,
        )
        result = best_removal(q)
        assert result.removed == (0,)
        assert result.residual_value == pytest.approx(4 * 1.2271)
        assert result.ties == 5

    def test_path_interior_under_cole2(self):
        q = DismantleQuery(graph=path_graph(4), k=1, objective="cole2")
        result = best_removal(q)
        assert result.removed == (1,)
        assert result.residual_value == 2.0
        assert result.ties == 2

    def test_cole1_maximizes_component_count(self):
        q = DismantleQuery(graph=star_graph(5), k=1, objective="cole1")
        result = best_removal(q)
        assert result.removed == (0,)
        assert result.residual_value == 4.0

    def test_tie_population_spans_sizes(self):
        # all-ones weights reduce strength to surviving node count, so all
        # three single removals tie and the lexicographic winner is node 0
        q = DismantleQuery(
            graph=path_graph(3), k=1, objective="proposed", weights=ALL_ONES
        )
        result = best_removal(q)
        assert result.removed == (0,)
        assert result.residual_value == 2.0
        assert result.ties == 3
        # on the 2-node path with w = (2, 1) the empty set (one pair) and
        # both single removals (one singleton) all leave strength 2: the
        # smallest size wins and the ties count both sizes
        w = WeightVector([2.0, 1.0])
        for allow_fewer, removed, ties in ((True, (), 3), (False, (0,), 2)):
            result = best_removal(DismantleQuery(
                graph=path_graph(2), k=1, objective="proposed", weights=w,
                allow_fewer=allow_fewer,
            ))
            assert (result.removed, result.residual_value, result.ties) == (
                removed, 2.0, ties)

    def test_labels_reported(self):
        g = Graph.build(3, [(0, 1), (1, 2)], labels=["alice", "bob", "eve"])
        q = DismantleQuery(graph=g, k=1, objective="cole1")
        result = best_removal(q)
        assert result.removed == (1,)
        assert result.labels == ("bob",)
        assert result.to_json_dict()["removed"] == ["bob"]


class TestNumpyWeights:
    def test_float32_result_is_json(self):
        # the vector stores floats, so the search runs in float64 on
        # exactly the values the float32 weights hold
        w32 = np.array(default_weights().weights, dtype=np.float32)
        g = random_graph(random.Random(32), 12, 0.3)
        result = best_removal(DismantleQuery(
            graph=g, k=2, objective="proposed", weights=WeightVector(w32),
        ))
        assert type(result.residual_value) is float
        assert json.loads(json.dumps(result.to_json_dict())) == (
            result.to_json_dict())
        assert result == best_removal(DismantleQuery(
            graph=g, k=2, objective="proposed",
            weights=WeightVector([float(v) for v in w32]),
        ))


class TestBudgetGuard:
    def test_default_limits(self):
        # 523,686 candidate sets, past the 500,000-set default cap
        big = Graph.build(60, [])
        with pytest.raises(ExactSearchBudgetError, match="too large"):
            best_removal(DismantleQuery(graph=big, k=4, objective="cole2"))
        wide = Graph.build(50, [])
        with pytest.raises(ExactSearchBudgetError):
            best_removal(DismantleQuery(graph=wide, k=5, objective="cole2"))

    def test_limits_are_inclusive(self):
        g40 = Graph.build(40, [])
        assert best_removal(
            DismantleQuery(graph=g40, k=2, objective="cole2")
        ).residual_value == 1.0
        g25 = Graph.build(25, [])
        assert best_removal(
            DismantleQuery(graph=g25, k=3, objective="cole2")
        ).residual_value == 1.0

    def test_default_cap_is_inclusive(self, monkeypatch):
        # 1 + 10 + 45 candidate sets
        query = DismantleQuery(graph=path_graph(10), k=2, objective="cole2")
        monkeypatch.setattr(dismantle, "DEFAULT_SUBSET_BUDGET", 56)
        assert best_removal(query).residual_value == 3.0
        monkeypatch.setattr(dismantle, "DEFAULT_SUBSET_BUDGET", 55)
        with pytest.raises(ExactSearchBudgetError, match="needs 56 "):
            best_removal(query)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError) as caught:
            DismantleQuery(graph=path_graph(3), k=1, objective="cole2",
                           max_subsets=budget)
        assert not isinstance(caught.value, ExactSearchBudgetError)
        assert str(caught.value) == (
            f"candidate-set budget must be >= 1, got {budget}")

    def test_explicit_budget_overrides(self):
        g = Graph.build(41, [])
        query = DismantleQuery(
            graph=g, k=2, objective="cole2", max_subsets=10_000
        )
        assert best_removal(query).removed == ()
        with pytest.raises(ExactSearchBudgetError):
            best_removal(DismantleQuery(
                graph=g, k=2, objective="cole2", max_subsets=100
            ))


class TestOracleEquivalence:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_agrees_with_bitmask_enumerator(self, objective):
        rng = random.Random(hash(objective) & 0xFFFF)
        w = default_weights() if objective == "proposed" else None
        for trial in range(25):
            n = rng.randint(2, 12)
            g = random_graph(rng, n, rng.uniform(0.1, 0.5))
            k = rng.randint(1, min(3, n - 1))
            allow_fewer = trial % 3 != 0
            expected = oracle_best_removal(g, k, objective, w, allow_fewer)
            actual = best_removal(DismantleQuery(
                graph=g, k=k, objective=objective, weights=w,
                allow_fewer=allow_fewer,
            ))
            assert actual.removed == expected.removed
            assert actual.residual_value == expected.residual_value
            assert actual.ties == expected.ties


def cycle_graph(n: int) -> Graph:
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_cliques(count: int, size: int) -> Graph:
    return Graph.build(count * size, [
        (block * size + u, block * size + v)
        for block in range(count)
        for u, v in combinations(range(size), 2)
    ])


TIE_HEAVY_FAMILIES = [
    Graph.build(7, []),
    complete_graph(6),
    star_graph(7),
    path_graph(8),
    cycle_graph(8),
    disjoint_cliques(3, 3),
]


@pytest.fixture
def objective_calls(monkeypatch):
    """``[count]`` of the search's objective calls; the test may reset it."""
    calls = [0]
    objective_value = dismantle._objective_value

    def counted(*args):
        calls[0] += 1
        return objective_value(*args)

    monkeypatch.setattr(dismantle, "_objective_value", counted)
    return calls


class TestArticulationKernel:
    """The search prices each set from one articulation-point DFS per
    prefix; the bitmask oracle scores every set from scratch."""

    @staticmethod
    def assert_matches_oracle(g, k, objective, w, allow_fewer):
        expected = oracle_best_removal(g, k, objective, w, allow_fewer)
        actual = best_removal(DismantleQuery(
            graph=g, k=k, objective=objective, weights=w,
            allow_fewer=allow_fewer,
        ))
        assert (actual.removed, actual.residual_value, actual.ties) == (
            expected.removed, expected.residual_value, expected.ties
        ), (g, k, objective, w, allow_fewer)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_every_size_and_budget(self, objective):
        rng = random.Random(f"kernel:{objective}")
        for n in range(2, 13):
            for k in range(1, min(4, n - 1) + 1):
                g = random_graph(rng, n, rng.uniform(0.1, 0.6))
                weight_choices = [None]
                if objective == "proposed":
                    signed = WeightVector(
                        [round(rng.uniform(-1, 2), 1)
                         for _ in range(rng.randint(1, n))],
                        EXTENSION_CLAMP,
                    )
                    weight_choices = [default_weights(), signed]
                for w in weight_choices:
                    for allow_fewer in (True, False):
                        self.assert_matches_oracle(
                            g, k, objective, w, allow_fewer
                        )

    @pytest.mark.parametrize("family", TIE_HEAVY_FAMILIES,
                             ids=["empty", "complete", "star", "path",
                                  "cycle", "cliques"])
    def test_tie_heavy_families(self, family):
        for objective in OBJECTIVES:
            weight_choices = (
                [ALL_ONES, default_weights()] if objective == "proposed"
                else [None]
            )
            for w in weight_choices:
                for k in range(1, min(4, family.n - 1) + 1):
                    for allow_fewer in (True, False):
                        self.assert_matches_oracle(
                            family, k, objective, w, allow_fewer
                        )

    def test_short_weights_raise_for_the_first_failing_set(self):
        rng = random.Random(17)
        raised = 0
        for trial in range(60):
            n = rng.randint(3, 9)
            g = random_graph(rng, n, rng.uniform(0.2, 0.7))
            k = rng.randint(1, min(4, n - 1))
            allow_fewer = trial % 2 == 0
            w = WeightVector(
                [rng.uniform(-1, 1) for _ in range(rng.randint(1, n - 1))]
            )
            sizes = range(k + 1) if allow_fewer else (k,)
            expected = None
            for subset in (s for size in sizes
                           for s in combinations(range(n), size)):
                try:
                    evaluate_removal(g, subset, "proposed", w)
                except WeightCoverageError as error:
                    expected = str(error)
                    break
            query = DismantleQuery(
                graph=g, k=k, objective="proposed", weights=w,
                allow_fewer=allow_fewer,
            )
            if expected is None:
                best_removal(query)
                continue
            raised += 1
            with pytest.raises(WeightCoverageError) as info:
                best_removal(query)
            assert str(info.value) == expected
        assert raised >= 20

    @pytest.mark.parametrize("n, k, cover, edges", [
        (8, 4, 1, [(0, 3), (0, 6), (0, 7), (1, 2), (1, 4), (1, 5), (1, 6)]),
        (8, 4, 2, [(0, 5), (0, 7), (3, 5), (6, 7)]),
        (8, 3, 3, [(0, 4), (0, 5), (0, 6), (1, 2), (2, 3), (3, 6), (5, 7)]),
    ])
    def test_error_comes_from_the_smallest_raising_set(self, n, k, cover,
                                                       edges):
        # found by a random search: the prefix plan meets a raising set
        # that leaves another uncovered size before the smallest one
        g = Graph.build(n, edges)
        w = WeightVector([1.0] * cover)
        errors = []
        for subset in combinations(range(n), k):
            try:
                evaluate_removal(g, subset, "proposed", w)
            except WeightCoverageError as error:
                errors.append(str(error))
        assert len(set(errors)) > 1
        with pytest.raises(WeightCoverageError) as info:
            best_removal(DismantleQuery(
                graph=g, k=k, objective="proposed", weights=w,
                allow_fewer=False,
            ))
        assert str(info.value) == errors[0]

    @pytest.mark.parametrize("limit", [0, 1])
    def test_memo_bound_keeps_answers(self, monkeypatch, limit):
        # 0 clears the query memo before a prefix once it holds a value,
        # 1 once it holds two: the answers must not depend on it
        monkeypatch.setattr(dismantle, "_MEMO_LIMIT", limit)
        for objective in OBJECTIVES:
            self.test_every_size_and_budget(objective)
        for family in TIE_HEAVY_FAMILIES:
            self.test_tie_heavy_families(family)

    def test_first_error_after_memo_hits(self, objective_calls):
        """The first failing set raises even when earlier prefixes have
        filled the query memo; a raising split is never stored."""
        rng = random.Random("warm memo")
        warm = 0
        for _ in range(100):
            # node 0 joins everything, so the sets without it leave one
            # large component and raise after those with it
            n = rng.randint(6, 11)
            g = Graph.build(n, set(random_graph(rng, n, 0.2).edges)
                            | {(0, u) for u in range(1, n)})
            k = rng.randint(2, min(4, n - 2))
            w = WeightVector(
                [rng.uniform(-1, 1) for _ in range(rng.randint(2, n - k))]
            )
            first = None
            for position, subset in enumerate(combinations(range(n), k)):
                try:
                    evaluate_removal(g, subset, "proposed", w)
                except WeightCoverageError as error:
                    first = position, str(error)
                    break
            if first is None:
                continue
            objective_calls[0] = 0
            with pytest.raises(WeightCoverageError) as info:
                best_removal(DismantleQuery(
                    graph=g, k=k, objective="proposed", weights=w,
                    allow_fewer=False,
                ))
            assert str(info.value) == first[1]
            # fewer objective calls than sets up to the raising one: the
            # memo answered some of the sets before it
            warm += objective_calls[0] < first[0] + 1
        assert warm >= 30

    def test_memo_spans_prefixes(self, objective_calls):
        # three disjoint triangles: every prefix leaves one of a few size
        # tuples, so a query-wide memo prices the 256 sets with few calls
        g = disjoint_cliques(3, 3)
        result = best_removal(DismantleQuery(
            graph=g, k=4, objective="proposed", weights=default_weights(),
        ))
        assert result == oracle_best_removal(g, 4, "proposed", default_weights())
        assert objective_calls[0] <= 45


def labelled_graphs(n: int) -> Iterator[Graph]:
    """Every graph on the nodes ``0..n-1``, one per subset of the pairs."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.build(n, [pair for i, pair in enumerate(pairs)
                              if mask >> i & 1])


# an error-policy vector that every component of two or more nodes
# outgrows, so sets that leave different components raise different texts
SINGLETON_ONLY = ("proposed", WeightVector((0.5,)))
# covering weights, SINGLETON_ONLY and the three baselines
AUDIT_OBJECTIVES = [
    ("proposed", default_weights()),
    SINGLETON_ONLY,
    ("cole1", None),
    ("cole2", None),
    ("gfp", None),
]


class TestExhaustiveAudit:
    """Every labelled graph on n <= 5 nodes, a seeded sample at n = 6 and
    7, and the two-edge graphs on 7 nodes against the bitmask oracle:
    every budget, objective and ``allow_fewer`` value, the removed set,
    the value bit for bit and the ties, or the error text of the smallest
    raising set. Sets come out of order, so random graphs test the
    tie-break and the first error only by chance."""

    @staticmethod
    def audit(g: Graph, objectives=AUDIT_OBJECTIVES) -> None:
        # residual sizes once per subset, each objective value once
        residuals = {subset: residual_sizes(g, subset) for size in range(g.n)
                     for subset in combinations(range(g.n), size)}
        for objective, w in objectives:
            values: dict[tuple[int, ...], float] = {}
            first_error: dict[int, str] = {}  # by size, lexicographic
            for subset, sizes in residuals.items():
                try:
                    values[subset] = oracle_objective(sizes, objective, w)
                except WeightCoverageError as error:
                    first_error.setdefault(len(subset), str(error))
            for k in range(1, g.n):
                for allow_fewer in (True, False):
                    query = DismantleQuery(
                        graph=g, k=k, objective=objective, weights=w,
                        allow_fewer=allow_fewer,
                    )
                    error = next((first_error[size] for size in
                                  (range(k + 1) if allow_fewer else (k,))
                                  if size in first_error), None)
                    if error is not None:
                        with pytest.raises(WeightCoverageError) as info:
                            best_removal(query)
                        assert str(info.value) == error, (g, query)
                        continue
                    actual = best_removal(query)
                    expected = oracle_best_removal(
                        g, k, objective, w, allow_fewer, values)
                    assert (actual.removed, actual.residual_value.hex(),
                            actual.ties) == (
                        expected.removed, expected.residual_value.hex(),
                        expected.ties), (g, query)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_labelled_graph(self, n):
        for g in labelled_graphs(n):
            self.audit(g)

    @pytest.mark.parametrize("n, count", [(6, 120), (7, 40)])
    def test_seeded_sample(self, n, count):
        rng = random.Random(f"audit:{n}")
        pairs = list(combinations(range(n), 2))
        for _ in range(count):
            self.audit(Graph.build(n, [pair for pair in pairs
                                       if rng.random() < 0.5]))

    def test_first_raising_set_on_two_edge_graphs(self):
        # the plan meets a set before a smaller one of its size only from
        # size 3 on, and their error texts can differ only if 3 or more
        # nodes remain, so not below n = 6; 4 of the 210 two-edge graphs
        # on 7 nodes show it at k = 4, such as the edges (0, 3) and (0, 6)
        pairs = list(combinations(range(7), 2))
        for edges in combinations(pairs, 2):
            self.audit(Graph.build(7, edges), [SINGLETON_ONLY])


class TestPrefixPlan:
    """The prefix families alone, with no graph: each size is covered by
    the prefixes of ``_plan``, and each set is priced at exactly one."""

    def test_prices_every_set_once(self):
        for n in range(1, 17):
            for r in range(min(5, n - 1) + 1):
                priced = []
                for prefix, candidates in dismantle._plan(n, r):
                    # ascending candidates make ascending sets per prefix
                    assert list(prefix) == sorted(set(prefix))
                    assert candidates == sorted(set(candidates))
                    priced += [tuple(sorted(prefix + (c,))) for c in candidates]
                assert sorted(priced) == list(combinations(range(n), r + 1)), (
                    n, r)

    @pytest.mark.parametrize("n, r, prefixes", [
        (22, 3, 637), (22, 2, 110), (25, 2, 144), (58, 3, 13_357),
        (2, 1, 1), (22, 1, 21), (58, 1, 57),
    ])
    def test_prefix_counts(self, n, r, prefixes):
        assert sum(1 for _ in dismantle._plan(n, r)) == prefixes

    def test_one_dfs_per_plan_prefix(self, monkeypatch):
        # sizes 1..4 on 22 nodes: 1 + 21 + 110 + 637 prefixes, against
        # 1 + 21 + 210 + 1,330 for every prefix below the last node
        yielded = [0]
        plan = dismantle._plan

        def counted(n, r):
            for item in plan(n, r):
                yielded[0] += 1
                yield item

        monkeypatch.setattr(dismantle, "_plan", counted)
        g = random_graph(random.Random(22), 22, 0.15)
        best_removal(DismantleQuery(graph=g, k=4, objective="cole2"))
        assert yielded[0] == 769


class TestSplit:
    """``graph._split``, the package's one traversal, against the
    from-scratch ``residual_sizes``."""

    @staticmethod
    def assert_splits(g, removed):
        sizes, comp_of, pieces = _split(g, removed)
        assert sizes == residual_sizes(g, removed), (g, removed)
        alive = [u for u in range(g.n) if u not in removed]
        assert [sum(comp_of[u] == index for u in alive)
                for index in range(len(sizes))] == sizes
        for u, v in g.edges:
            if u in alive and v in alive:
                assert comp_of[u] == comp_of[v]
        # every other component, c's pieces and the rest of its own one
        # are the residual of removed + (c,)
        for c in alive:
            index = comp_of[c]
            cut = pieces.get(c, [])
            rest = sizes[index] - 1 - sum(cut)
            assert rest >= 0 and all(cut)
            split = (sizes[:index] + sizes[index + 1:] + cut
                     + ([rest] if rest else []))
            assert Counter(split) == Counter(
                residual_sizes(g, removed + (c,))), (g, removed, c)

    def test_random_graphs(self):
        rng = random.Random("one traversal")
        for _ in range(200):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.uniform(0.05, 0.6))
            for size in range(min(3, n - 1) + 1):
                self.assert_splits(
                    g, tuple(sorted(rng.sample(range(n), size))))

    @pytest.mark.parametrize("family", TIE_HEAVY_FAMILIES,
                             ids=["empty", "complete", "star", "path",
                                  "cycle", "cliques"])
    def test_tie_heavy_families(self, family):
        for size in range(3):
            for removed in combinations(range(family.n), size):
                self.assert_splits(family, removed)

    def test_k1_query_traverses_once(self, monkeypatch):
        # the empty set is priced from size 1's empty prefix, so the
        # input graph is traversed once, and never by components
        calls = Counter()

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(dismantle, "_split", counted("split", _split))
        for module in (dismantle, graph):
            monkeypatch.setattr(module, "components",
                                counted("components", graph.components))
        best_removal(DismantleQuery(
            graph=path_graph(6), k=1, objective="proposed",
            weights=default_weights(), allow_fewer=True,
        ))
        assert calls == {"split": 1}


class TestStructuralProperties:
    @pytest.mark.parametrize("objective", ["cole2", "gfp"])
    def test_larger_budgets_never_hurt(self, objective):
        rng = random.Random(31)
        for _ in range(15):
            g = random_graph(rng, rng.randint(5, 9), rng.uniform(0.2, 0.5))
            values = [
                best_removal(DismantleQuery(
                    graph=g, k=k, objective=objective
                )).residual_value
                for k in (1, 2, 3)
            ]
            assert values[0] >= values[1] >= values[2]

    def test_articulation_beats_leaf_on_trees(self):
        rng = random.Random(77)
        for _ in range(20):
            g = random_tree(rng, rng.randint(4, 10))
            degree = [0] * g.n
            for u, v in g.edges:
                degree[u] += 1
                degree[v] += 1
            internal = [u for u in range(g.n) if degree[u] >= 2]
            leaves = [u for u in range(g.n) if degree[u] == 1]
            for v in internal:
                split = evaluate_removal(g, (v,), "cole1")
                for u in leaves:
                    assert split >= evaluate_removal(g, (u,), "cole1")

    def test_reduction_is_chunk_order_independent(self):
        rng = random.Random(5)
        g = random_graph(rng, 9, 0.3)
        q = DismantleQuery(graph=g, k=2, objective="gfp")
        reference = best_removal(q)
        subsets = [()] + [
            s for size in (1, 2) for s in combinations(range(g.n), size)
        ]
        for _ in range(10):
            rng.shuffle(subsets)
            cut = rng.randint(1, len(subsets) - 1)
            chunks = [subsets[:cut], subsets[cut:]]
            merged_value = None
            merged = None
            ties = 0
            for chunk in chunks:
                for subset in chunk:
                    value = evaluate_removal(g, subset, "gfp")
                    key = (value, len(subset), tuple(subset))
                    if merged is None or value < merged_value:
                        merged, merged_value, ties = key, value, 1
                    elif value == merged_value:
                        ties += 1
                        if key < merged:
                            merged = key
            assert merged[2] == reference.removed
            assert merged_value == reference.residual_value
            assert ties == reference.ties


def digest_queries(seed="answer digest", count=300, sizes=(2, 13),
                   budgets=(1, 4)):
    """``count`` seeded queries: n and k drawn from ``sizes`` and
    ``budgets`` (k < n), every objective, both ``allow_fewer`` values, and
    for ``proposed`` short signed weights under the clamp or the error
    policy, so some queries raise."""
    rng = random.Random(seed)
    for index in range(count):
        n = rng.randint(*sizes)
        k = rng.randint(budgets[0], min(budgets[1], n - 1))
        objective = OBJECTIVES[index % 4]
        g = random_graph(rng, n, rng.uniform(0.05, 0.7))
        w = None
        if objective == "proposed":
            w = WeightVector(
                [round(rng.uniform(-1, 2), 1) for _ in range(rng.randint(1, n))],
                rng.choice([EXTENSION_CLAMP, EXTENSION_ERROR]),
            )
        yield DismantleQuery(graph=g, k=k, objective=objective, weights=w,
                             allow_fewer=rng.random() < 0.5)


class TestAnswerDigest:
    """The removed set, ``repr`` of the value and the ties of every digest
    query, or its error text, hashed into one pinned SHA-256: any change
    to an answer, a tie count or the first error changes the digest."""

    DIGEST = "43cca1d2b233a915916613c0dcd3e2339d5e11f9faaabaae1a3cf37db0ccb979"

    def test_answers_match_pinned_digest(self):
        digest = hashlib.sha256()
        for query in digest_queries():
            try:
                result = best_removal(query)
                line = f"{result.removed} {result.residual_value!r} {result.ties}"
            except WeightCoverageError as error:
                line = f"error {error}"
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


class TestWideAnswerDigest:
    """The same digest over 150 queries at k = 5..6, where the search
    covers the sizes past 4 with the two-block prefix family."""

    DIGEST = "b4347e4c0b76e241ad7201a8672523f234cea5ac6acfb0f741cdb50e3342935b"

    def test_answers_match_pinned_digest(self):
        digest = hashlib.sha256()
        raised = 0
        for query in digest_queries("wide answer digest", 150, (7, 12),
                                    (5, 6)):
            try:
                result = best_removal(query)
                line = f"{result.removed} {result.residual_value!r} {result.ties}"
            except WeightCoverageError as error:
                line = f"error {error}"
                raised += 1
            digest.update(line.encode() + b"\n")
        assert raised >= 10
        assert digest.hexdigest() == self.DIGEST
