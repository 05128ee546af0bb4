"""Immutable undirected graphs and their component sizes, from one DFS.

Nodes are contiguous 0-based integer ids. Dataset-native node names are kept
in an optional label tuple so reported answers can use the original naming.
All values are frozen after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


class EmptyGraphError(ValueError):
    """Raised by operations that are undefined on a graph with no nodes."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes ``0..n-1``.

    Edges are canonical ``(u, v)`` pairs with ``u < v``; self-loops and
    duplicates are rejected. Prefer :meth:`build` over the raw constructor,
    which requires already-canonical edges.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"node count must be >= 0, got {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if not (0 <= u < v < self.n):
                raise ValueError(
                    f"edge ({u}, {v}) is not a pair u < v in 0..{self.n - 1}"
                )
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError(
                f"expected {self.n} labels, got {len(self.labels)}"
            )

    @classmethod
    def build(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Iterable[str] | None = None,
    ) -> "Graph":
        """Construct a graph, normalizing edge orientation.

        ``{u, v}`` and ``{v, u}`` are the same edge; repeated pairs collapse
        to one. Self-loops and out-of-range endpoints raise ``ValueError``.
        """
        return cls(n, frozenset((u, v) if u < v else (v, u) for u, v in edges),
                   None if labels is None else tuple(labels))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists in ascending order, indexed by node id."""
        neighbors: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in neighbors)

    def label(self, node: int) -> str:
        _check_node_ids(self, (node,))
        return self.labels[node] if self.labels is not None else str(node)


def components(g: Graph, removed: Iterable[int] = ()) -> tuple[int, ...]:
    """Component sizes of ``g`` without ``removed``, from ``_split``.

    Sizes come in discovery order, that is, ascending smallest node id, so
    they are a pure function of the graph and the removed nodes. They equal
    ``components(remove_nodes(g, removed))`` with no residual graph built.
    An id outside ``0..n-1`` raises ``ValueError``.
    """
    return tuple(_split(g, _check_node_ids(g, removed))[0])


def _split(
    g: Graph, removed: Iterable[int]
) -> tuple[list[int], list[int], dict[int, list[int]]]:
    """One Hopcroft-Tarjan DFS of ``g`` without ``removed`` (valid ids),
    roots ascending: the component sizes in discovery order, each node's
    index into them, and per node ``c`` the sizes of the pieces deleting it
    cuts off, the subtrees of its children ``d`` with ``low(d) >= disc(c)``;
    the rest of c's component stays one piece."""
    n, adjacency = g.n, g.adjacency
    # a removed node is "found" at n + 1: never entered, never a low-point
    disc = [0] * n
    for node in removed:
        disc[node] = n + 1
    comp_of = [0] * n
    sizes: list[int] = []
    pieces: dict[int, list[int]] = {}
    time = 0
    for root in range(n):
        if disc[root]:
            continue
        index = len(sizes)
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
        sizes.append(time - first + 1)
    return sizes, comp_of, pieces


def remove_nodes(g: Graph, removed: Iterable[int]) -> Graph:
    """Induced subgraph on the nodes outside ``removed``.

    Surviving nodes are renumbered contiguously in ascending original id;
    labels follow the surviving nodes so external naming is preserved.
    """
    removed_set = set(_check_node_ids(g, removed))
    keep = [u for u in range(g.n) if u not in removed_set]
    new_id = {old: new for new, old in enumerate(keep)}
    edges = [
        (new_id[u], new_id[v])
        for u, v in g.edges
        if u in new_id and v in new_id
    ]
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[u] for u in keep)
    return Graph.build(len(keep), edges, labels)


def _check_node_ids(g: Graph, nodes: Iterable[int]) -> tuple[int, ...]:
    """``nodes`` as a tuple; an id outside ``0..n-1`` raises ``ValueError``."""
    nodes = tuple(nodes)
    for node in nodes:
        if not (0 <= node < g.n):
            raise ValueError(f"unknown node id {node}")
    return nodes


def _check_removal_size(k: int, n: int) -> None:
    """A budget removes a node and leaves one, or ``ValueError``."""
    if not (1 <= k < n):
        raise ValueError(f"budget k must satisfy 1 <= k < n, got k={k}, n={n}")
