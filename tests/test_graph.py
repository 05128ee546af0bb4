from __future__ import annotations

import random
from collections import Counter, deque

import pytest
from hypothesis import given

from conftest import graphs, path_graph, random_graph, star_graph
from netstrength.graph import Graph, components, remove_nodes


def reachable_from(g: Graph, start: int) -> frozenset[int]:
    """Independent BFS oracle built straight from the edge set."""
    neighbors: dict[int, set[int]] = {u: set() for u in range(g.n)}
    for u, v in g.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for other in neighbors[node]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return frozenset(seen)


class TestConstruction:
    def test_build_normalizes_orientation(self):
        a = Graph.build(3, [(2, 1), (0, 1)])
        b = Graph.build(3, [(1, 2), (1, 0)])
        assert a == b
        assert a.edges == frozenset({(1, 2), (0, 1)})

    def test_duplicate_edges_collapse(self):
        g = Graph.build(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.build(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.build(3, [(0, 3)])

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match=r"0\.\.2"):
            Graph.build(3, [(-1, 2)])

    @pytest.mark.parametrize("edge", [(0, 3), (-1, 2), (2, 1)])
    def test_constructor_names_the_node_range(self, edge):
        with pytest.raises(ValueError, match=r"0\.\.2"):
            Graph(n=3, edges=frozenset({edge}))

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            Graph.build(2, [], labels=["a"])

    def test_default_labels_are_ids(self):
        g = Graph.build(3, [(0, 1)])
        assert tuple(map(g.label, range(g.n))) == ("0", "1", "2")

    @given(graphs(max_n=10))
    def test_edge_order_does_not_matter(self, g: Graph):
        shuffled = sorted(g.edges, reverse=True)
        assert Graph.build(g.n, shuffled) == Graph.build(g.n, sorted(g.edges))


class TestComponents:
    def test_empty_graph(self):
        assert components(Graph.build(0)) == ()

    def test_path_plus_isolated(self):
        g = Graph.build(4, [(0, 1), (1, 2)])
        assert components(g) == (3, 1)

    def test_sizes_ordered_by_smallest_member(self):
        # {0, 4} holds the smallest id, then {1, 2, 3}; size order would differ
        g = Graph.build(5, [(0, 4), (1, 2), (2, 3)])
        assert components(g) == (2, 3)

    def test_against_reachability_oracle(self):
        rng = random.Random(20260811)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 30), rng.uniform(0.02, 0.3))
            reach = {reachable_from(g, u) for u in range(g.n)}
            assert sorted(components(g)) == sorted(len(r) for r in reach)

    @given(graphs(max_n=14))
    def test_sizes_partition_the_nodes(self, g: Graph):
        assert sum(components(g)) == g.n

    def test_removed_nodes_match_the_residual_graph(self):
        rng = random.Random(20261018)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 25), rng.uniform(0.02, 0.4))
            removed = [rng.randrange(g.n) for _ in range(rng.randint(0, 4))]
            if removed:
                removed.append(removed[0])  # a repeated id counts once
            assert components(g, removed) == components(remove_nodes(g, removed))

    @pytest.mark.parametrize("node", [3, -1])
    def test_unknown_removed_node_rejected(self, node):
        with pytest.raises(ValueError, match="unknown node id"):
            components(path_graph(3), [0, node])


class TestCcsd:
    """The size distribution is ``Counter(components(g))``: size -> count."""

    def test_connected_graph_counts(self):
        assert Counter(components(path_graph(20))) == {20: 1}

    def test_mixed_sizes(self):
        # components {3, 1, 1} on five nodes
        g = Graph.build(5, [(0, 1), (1, 2)])
        assert Counter(components(g)) == {1: 2, 3: 1}

    @given(graphs(max_n=16))
    def test_weighted_sum_is_node_count(self, g: Graph):
        distribution = Counter(components(g))
        assert sum(
            size * count for size, count in distribution.items()
        ) == g.n


class TestRemoveNodes:
    def test_remove_nothing_is_identity(self):
        g = Graph.build(6, [(0, 1), (2, 3), (4, 5)])
        assert remove_nodes(g, []) == g

    def test_star_center_cut(self):
        g = star_graph(5)
        residual = remove_nodes(g, [0])
        assert residual.n == 4
        assert residual.edge_count == 0

    def test_path_interior_cut(self):
        residual = remove_nodes(path_graph(4), [1])
        assert sorted(components(residual)) == [1, 2]

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node id"):
            remove_nodes(path_graph(3), [7])

    def test_labels_follow_survivors(self):
        g = Graph.build(4, [(0, 1), (2, 3)], labels=["a", "b", "c", "d"])
        residual = remove_nodes(g, [1])
        assert residual.labels == ("a", "c", "d")
        assert residual.edges == frozenset({(1, 2)})

    @given(graphs(max_n=12))
    def test_surviving_edges_characterized(self, g: Graph):
        removed = set(range(0, g.n, 3))
        keep = [u for u in range(g.n) if u not in removed]
        back = {new: old for new, old in enumerate(keep)}
        residual = remove_nodes(g, removed)
        assert residual.n == len(keep)
        original = {
            (back[u], back[v]) if back[u] < back[v] else (back[v], back[u])
            for u, v in residual.edges
        }
        expected = {
            (u, v) for u, v in g.edges
            if u not in removed and v not in removed
        }
        assert original == expected
