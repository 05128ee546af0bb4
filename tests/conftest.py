from __future__ import annotations

import os
import random
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

import netstrength
from netstrength.graph import Graph


def child_env() -> dict[str, str]:
    """Environment in which a child interpreter imports the same package
    tree as the tests, installed or not."""
    src = str(Path(netstrength.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([src, path]) if path else src}


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [pair for pair in combinations(range(n), 2) if rng.random() < p]
    return Graph.build(n, edges)


def random_connected_graph(
    rng: random.Random, n: int, extra_p: float = 0.15
) -> Graph:
    # random attachment tree guarantees connectivity; extra edges densify
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for pair in combinations(range(n), 2):
        if rng.random() < extra_p:
            edges.add(pair)
    return Graph.build(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    return Graph.build(n, [(rng.randrange(i), i) for i in range(1, n)])


def path_graph(n: int) -> Graph:
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    return Graph.build(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph.build(n, combinations(range(n), 2))


def disjoint_paths(sizes: list[int]) -> Graph:
    """One path component per requested size."""
    edges = []
    offset = 0
    for size in sizes:
        edges.extend((offset + i, offset + i + 1) for i in range(size - 1))
        offset += size
    return Graph.build(sum(sizes), edges)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 12) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return Graph.build(n, [])
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Graph.build(n, edges)


_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE_RESULTS.append((name, report.outcome))
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE_RESULTS.append((name, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS:
        status = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{status}: {name}")
