"""Seeded random graph generation and edge-list file I/O.

Generation uses the stdlib Mersenne Twister (``random.Random``); graph
``index`` of a suite draws from an independent stream seeded with
``seed * 1_000_003 + index``, so suites are reproducible and individual
graphs can be regenerated (or generated in parallel) without replaying the
whole sequence. G(n, p) decides each canonical ``u < v`` pair independently
in ascending order; G(n, m) samples ``m`` distinct indices into the canonical
pair list and decodes each to its pair, without building the list.

Edge-list format: one edge per line as two whitespace-separated labels,
``#`` comments and blank lines ignored. A line that starts with ``#!`` is
a directive, not a comment: the writer emits a ``#! node <label>``
directive per isolated node (a plain edge list cannot express them), the
parser honors it, and any other ``#!`` line is an error at ``file:line``.
Third-party tools read every ``#`` line as a comment.

Every CSV loader in the package reads its rows through :func:`read_rows`
and its numeric cells through :func:`parse_cell`; every CSV table the
package writes is built by :func:`csv_text`.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .graph import Graph

logger = logging.getLogger(__name__)

GNP = "gnp"
GNM = "gnm"

_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for one generated suite of random graphs."""

    model: str
    n: int
    p: float | None = None
    m: int | None = None
    seed: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.model not in (GNP, GNM):
            raise ValueError(f"unknown model {self.model!r}")
        if self.n < 3:
            raise ValueError(f"node count must be >= 3, got {self.n}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.model == GNP:
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise ValueError(f"gnp requires p in [0, 1], got {self.p}")
            if self.m is not None:
                raise ValueError("gnp does not take an edge count m")
        else:
            max_edges = math.comb(self.n, 2)
            if self.m is None or not (0 <= self.m <= max_edges):
                raise ValueError(
                    f"gnm requires 0 <= m <= {max_edges}, got {self.m}"
                )
            if self.p is not None:
                raise ValueError("gnm does not take an edge probability p")


def _stream(seed: int, index: int) -> random.Random:
    return random.Random(seed * _SEED_STRIDE + index)


def _gnp(n: int, p: float, rng: random.Random) -> Graph:
    draw = rng.random
    edges = [pair for pair in combinations(range(n), 2) if draw() < p]
    return Graph.build(n, edges)


def _gnm(n: int, m: int, rng: random.Random) -> Graph:
    # pair i of ``combinations(range(n), 2)`` is pair j = C - 1 - i counted
    # back from (n - 2, n - 1); the last r(r + 1)/2 pairs start above
    # n - 2 - r: pair j starts at n - 2 - r, r the largest with r(r + 1)/2 <= j
    last = math.comb(n, 2) - 1
    edges = []
    for j in (last - i for i in rng.sample(range(last + 1), m)):
        r = (math.isqrt(8 * j + 1) - 1) // 2
        edges.append((n - 2 - r, n - 1 - j + r * (r + 1) // 2))
    return Graph.build(n, edges)


def generate(spec: GeneratorSpec) -> list[Graph]:
    """Generate ``spec.count`` graphs; a pure function of the spec."""
    graphs = []
    for index in range(spec.count):
        rng = _stream(spec.seed, index)
        if spec.model == GNP:
            graphs.append(_gnp(spec.n, spec.p, rng))
        else:
            graphs.append(_gnm(spec.n, spec.m, rng))
    return graphs


@dataclass(frozen=True)
class EdgeListFile:
    """A parsed edge list: its graph and the input lines it dropped.

    Node ids follow each label's first appearance, ``#! node`` directives
    included. A pair seen again, in either orientation, is tallied in
    ``duplicate_count`` and a self-loop in ``self_loop_count``.
    """

    graph: Graph
    duplicate_count: int
    self_loop_count: int

    @classmethod
    def parse(cls, path: str | Path) -> "EdgeListFile":
        with _read_text(path) as handle:
            return cls.parse_lines(handle, source=str(path))

    @classmethod
    def parse_lines(
        cls, lines: Iterable[str], source: str | None = None
    ) -> "EdgeListFile":
        ids: dict[str, int] = {}
        edges: list[tuple[int, int]] = []
        self_loops = 0
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if line.startswith("#!"):
                tokens = line[2:].split()
                if len(tokens) != 2 or tokens[0] != "node":
                    raise ValueError(f"{source or '<edge list>'}:{line_no}: "
                                     f"unknown directive {line!r}")
                ids.setdefault(tokens[1], len(ids))
            elif line and not line.startswith("#"):
                tokens = line.split()
                if len(tokens) != 2:
                    raise ValueError(f"{source or '<edge list>'}:{line_no}: "
                                     f"expected two labels, got {len(tokens)}")
                u = ids.setdefault(tokens[0], len(ids))
                v = ids.setdefault(tokens[1], len(ids))
                if u == v:
                    self_loops += 1
                else:
                    edges.append((u, v))
        graph = Graph.build(len(ids), edges, ids)
        return cls(graph, len(edges) - graph.edge_count, self_loops)


def load_edge_list(path: str | Path) -> Graph:
    """Read an edge-list file into a labeled graph.

    Duplicate edges and self-loops are dropped; a warning reports how many.
    """
    parsed = EdgeListFile.parse(path)
    if parsed.duplicate_count or parsed.self_loop_count:
        logger.warning(
            "%s: dropped %d duplicate edge(s) and %d self-loop(s)",
            path, parsed.duplicate_count, parsed.self_loop_count,
        )
    return parsed.graph


def graph_id_row(source: str | Path, graph_id: str) -> str:
    """``file:line`` of the first row of CSV ``source`` whose ``graph_id``
    is the id; loaders drop line numbers, so errors look the row up."""
    rows = read_rows(source, ("graph_id",))
    line = next((n for n, row in rows if row["graph_id"] == graph_id), "?")
    return f"{source}:{line}"


def graph_path(graph_dir: str | Path, graph_id: str) -> Path:
    """``<graph_dir>/<graph_id>.edges``, the file a graph id names. An id
    that is not one path component, so could name a file outside
    ``graph_dir`` or none (a NUL byte), raises ``ValueError``."""
    if graph_id in ("", ".", "..") or any(
        sep in graph_id for sep in (os.sep, os.altsep, "\0") if sep
    ):
        raise ValueError(f"graph id {graph_id!r} is not one path component")
    return Path(graph_dir) / f"{graph_id}.edges"


def load_graphs(
    graph_dir: str | Path, graph_ids: Iterable[str], source: str | Path
) -> dict[str, Graph]:
    """``{id: graph}`` in sorted id order, each read from its
    :func:`graph_path`. A bad id, a file that cannot be opened or a graph
    with no nodes (callers divide by ``n``) raises, after the
    :func:`graph_id_row` in CSV ``source`` of the id; the row is looked up
    only then. A parse error names its own ``file:line``."""
    graphs = {}
    for graph_id in sorted(graph_ids):
        try:
            path = graph_path(graph_dir, graph_id)
        except ValueError as exc:
            raise ValueError(
                f"{graph_id_row(source, graph_id)}: {exc}") from None
        try:
            graph = graphs[graph_id] = load_edge_list(path)
        except OSError as exc:
            reason = exc
            if isinstance(exc, FileNotFoundError):
                reason = f"no edge list for graph id {graph_id!r}: {path}"
            raise type(exc)(
                f"{graph_id_row(source, graph_id)}: {reason}") from None
        if graph.n == 0:
            raise ValueError(f"{graph_id_row(source, graph_id)}: {path}: "
                             f"edge list has no nodes")
    return graphs


def save_edge_list(g: Graph, path: str | Path) -> None:
    """Write a graph as an edge list, preserving labels and isolated nodes.

    A label that would not read back as the same node (empty, containing
    whitespace, starting with ``#``, or repeated) raises ``ValueError``
    before the file is opened.
    """
    seen: set[str] = set()
    for label in g.labels or ():  # default labels, the node ids, are valid
        if label.split() != [label] or label.startswith("#") or label in seen:
            raise ValueError(
                f"{path}: cannot write label {label!r}: edge-list labels must "
                f"be unique, non-empty, without whitespace and not start "
                f"with '#'"
            )
        seen.add(label)
    labels = g.labels or tuple(map(str, range(g.n)))
    touched = {node for edge in g.edges for node in edge}
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"#! node {labels[node]}\n"
                          for node in range(g.n) if node not in touched)
        handle.writelines(f"{labels[u]} {labels[v]}\n"
                          for u, v in sorted(g.edges))


def write_suite(
    spec: GeneratorSpec, out_dir: str | Path, stem: str = "graph"
) -> list[Path]:
    """Generate a suite and write ``<stem>_<index>.edges`` plus a manifest.
    A stem that is not one path component raises ``ValueError`` first."""
    out = Path(out_dir)
    paths = [graph_path(out, f"{stem}_{index}") for index in range(spec.count)]
    out.mkdir(parents=True, exist_ok=True)
    for graph, path in zip(generate(spec), paths):
        save_edge_list(graph, path)
    manifest = {key: value for key, value in vars(spec).items()
                if value is not None}  # the other model's p or m is None
    manifest["files"] = [p.name for p in paths]
    manifest_path = out / f"{stem}_manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return paths


@contextmanager
def _read_text(path: str | Path) -> Iterator[TextIO]:
    """Open UTF-8 text, skipping a leading byte-order mark; lines keep their
    ``\\n``, ``\\r\\n`` or ``\\r`` ending, as ``csv`` needs. A byte that is not
    UTF-8 raises ``ValueError`` at ``file:line``: the decoder counts from
    its own buffer, so this error path reads the bytes again for the line."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError:
        lines = Path(path).read_bytes().splitlines()
        for line_no, line in enumerate(lines, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: not UTF-8: byte "
                    f"{line[exc.start]:#04x} in column {exc.start + 1}"
                ) from None
        raise  # the file changed since it was read


def read_rows(
    path: str | Path, required: Sequence[str]
) -> Iterator[tuple[int, dict[str, str]]]:
    """Yield ``(line_no, row)`` for each data row of a headed CSV file.

    Blank lines are skipped and the ``required`` values are stripped of
    surrounding whitespace. A header without every ``required`` column, or
    one that names a non-empty column twice, raises ``ValueError`` naming
    the file; a row too short to fill them raises ``ValueError`` naming
    ``file:line``, and so does a row with more cells than the header. Other
    columns missing from a short row read as ``None``. A line ``csv``
    cannot read (a cell over its field limit) raises ``ValueError`` at
    ``file:line``.
    """
    with _read_text(path) as handle:
        reader = csv.DictReader(handle)
        try:
            fields = reader.fieldnames or []
            for index, name in enumerate(fields):
                if name and name in fields[:index]:  # DictReader keeps last
                    raise ValueError(
                        f"{path}: column {name!r} appears twice in the header"
                    )
            missing = [name for name in required if name not in fields]
            if missing:
                raise ValueError(f"{path}: missing columns {missing}")
            for row in reader:
                if None in row:  # DictReader files surplus cells under None
                    raise ValueError(
                        f"{path}:{reader.line_num}: row has {len(row[None])} "
                        f"cell(s) more than the {len(fields)}-column header"
                    )
                for name in required:
                    if row[name] is None:
                        raise ValueError(
                            f"{path}:{reader.line_num}: row has no value for "
                            f"{name!r}"
                        )
                    row[name] = row[name].strip()
                yield reader.line_num, row
        except csv.Error as exc:  # DictReader counts only the rows it read
            line_no = reader.reader.line_num
            raise ValueError(f"{path}:{line_no}: {exc}") from None


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """A headed CSV table, each line ended by ``\\n``. Cells are written
    with ``str``: floats, numpy's too, as shortest round-trip decimals."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def parse_cell(
    path: str | Path, line_no: int, row: dict[str, str], column: str,
    kind: type = float,
) -> float:
    """Read ``row[column]`` as a finite ``float``, or an ``int`` when
    ``kind`` is ``int``; anything else raises ``ValueError`` naming
    ``file:line`` and the column. Python reads more than a CSV means:
    digit separators (``2_5``) and non-ASCII digits are refused."""
    text = row[column]
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and text.isascii() and "_" not in text):
        expected = "an integer" if kind is int else "a finite number"
        raise ValueError(
            f"{path}:{line_no}: {column} must be {expected}, got {text!r}"
        )
    return value


def check_estimate(column: str, value: float, graph_id: str, n: int) -> None:
    """``ValueError`` unless an estimate, or a mean of them, is in [1, n]."""
    if not (1.0 <= value <= n):
        raise ValueError(f"{column} {value} for graph {graph_id!r} "
                         f"is outside [1, {n}]")


def bundled_eval_path(name: str) -> Path:
    """Path of a bundled evaluation fixture (ranked ground truth or
    per-metric predictions for the surveyed real-world networks)."""
    root = Path(__file__).parent / "data" / "eval"
    path = root / name
    if not path.exists():
        available = sorted(p.name for p in root.iterdir())
        raise FileNotFoundError(
            f"no bundled fixture {name!r}; available: {available}"
        )
    return path
