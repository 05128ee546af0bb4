"""Integer-program formulation of the removal problem, as LP-format text.

The model partitions all n nodes (including removed ones) into n component
slots and books each slot's size into per-size counters:

* ``y_i``    node i is removed (binary)
* ``x_i_j``  node i sits in slot j (binary); an edge forces its endpoints
             into the same slot unless one of them is removed
* ``C_j``    size of slot j (integer 0..n)
* ``m_j_t``  slot j has size exactly t (binary, t = 0..n)
* ``S_t``    number of slots of size t (integer 0..n)

The objective minimizes ``sum(t * S_t * w_t) - w_1 * sum(y_i)``: the
weighted strength of the booked partition minus a size-1 credit per removed
node, which cancels exactly when each removed node occupies its own
singleton slot. Nothing in the constraints forces that placement, so for
non-monotone weight vectors an optimal solution may park removed nodes
inside surviving slots and undercut the induced-subgraph optimum; the
exhaustive search in :mod:`netstrength.dismantle` is the reference
semantics, and this emitter exists to make the model available to external
solvers unchanged.

All indices in variable names are 1-based except the size subscript ``t``,
which ranges from 0 (empty slot) to n.

:func:`build_model` is the one description of the model: its objective,
its constraint rows and its variable domains. The LP writer
(:func:`emit_ilp`) and the verifier (:func:`verify_ilp_solution`) only read
it.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, NamedTuple, Sequence

from .graph import Graph
from .metrics import WeightVector

CONSTRAINT_FAMILIES = (
    "edge-consistency",
    "vertex-assignment",
    "component-size",
    "budget",
    "size-indicator",
    "size-link",
    "size-count",
    "binary-domain",
    "integer-domain",
)

# Slack allowed on integrality and on each row of a solver's assignment.
TOLERANCE = 1e-6


class ConstraintViolationError(ValueError):
    """An assignment violates the model; names the constraint family."""

    def __init__(self, family: str, message: str):
        super().__init__(f"[{family}] {message}")
        self.family = family


Coefficients = tuple[float, ...]


class Row(NamedTuple):
    """One linear constraint ``sum(coefficients * names) <sense> rhs``; the
    rows of one pattern share one ``coefficients`` tuple."""

    family: str
    label: str
    coefficients: Coefficients
    names: Sequence[str]
    sense: str  # "<=", ">=" or "="
    rhs: int


class Model(NamedTuple):
    """The model for one graph, budget and weight vector.

    ``objective`` is a ``(coefficients, names)`` pair. ``rows`` is a
    one-shot generator in emission order. ``binaries`` are 0/1 variables;
    ``generals`` are integers in ``0..upper``.
    """

    objective: tuple[Coefficients, list[str]]
    rows: Iterator[Row]
    binaries: list[str]
    generals: list[str]
    upper: int


def build_model(g: Graph, k: int, w: WeightVector) -> Model:
    """Describe the model for ``g`` with removal budget ``k``.

    Requires weights for every size 1..n (clamp policy permitted).
    """
    n = g.n
    if not (1 <= k < n):
        raise ValueError(f"budget k must satisfy 1 <= k < n, got k={k}, n={n}")
    slots = range(1, n + 1)
    sizes = range(n + 1)
    # every name is formatted once: x[i - 1][j - 1], y[i - 1], m[j - 1][t],
    # c[j - 1] and s[t]
    x = [[f"x_{i}_{j}" for j in slots] for i in slots]
    y = [f"y_{i}" for i in slots]
    m = [[f"m_{j}_{t}" for t in sizes] for j in slots]
    c = [f"C_{j}" for j in slots]
    s = [f"S_{t}" for t in sizes]
    ones, all_ones = (1.0,) * n, (1.0,) * (n + 1)
    total = (1.0,) + (-1.0,) * n
    link = (1.0,) + tuple(-float(t) for t in slots)
    up, lo = (1.0, -1.0, -1.0, -1.0), (1.0, -1.0, 1.0, 1.0)

    def rows() -> Iterator[Row]:
        for u, v in sorted(g.edges):
            label = f"edge_{u + 1}_{v + 1}_"
            for j, xu, xv in zip(slots, x[u], x[v]):
                names = (xu, xv, y[u], y[v])
                yield Row("edge-consistency", f"{label}up_{j}", up, names,
                          "<=", 0)
                yield Row("edge-consistency", f"{label}lo_{j}", lo, names,
                          ">=", 0)
        for i in slots:
            yield Row("vertex-assignment", f"assign_{i}", ones, x[i - 1],
                      "=", 1)
        for j, column in zip(slots, zip(*x)):
            yield Row("component-size", f"compsize_{j}", total,
                      (c[j - 1], *column), "=", 0)
        yield Row("budget", "budget", ones, y, "<=", k)
        for j in slots:
            yield Row("size-indicator", f"indicator_{j}", all_ones, m[j - 1],
                      "=", 1)
        for j in slots:
            yield Row("size-link", f"sizelink_{j}", link,
                      (c[j - 1], *m[j - 1][1:]), "=", 0)
        for t, column in zip(sizes, zip(*m)):
            yield Row("size-count", f"sizecount_{t}", total,
                      (s[t], *column), "=", 0)

    weights = [t * w.value(t) for t in slots] + [-w.value(1)] * n
    objective = (tuple(weights), s[1:] + y)
    binaries = [name for names in x + [y] + m for name in names]
    return Model(objective, rows(), binaries, c + s, n)


_WRAP_WIDTH = 78


def _signs(coefficients: Coefficients) -> list[str]:
    """The sign and magnitude text in front of each name of a row."""
    signs = []
    for position, coefficient in enumerate(coefficients):
        magnitude = abs(coefficient)
        body = "" if magnitude == 1 else f"{magnitude!r} "
        sign = "+ " if coefficient >= 0 else "- "
        signs.append(sign + body if position or coefficient < 0 else body)
    return signs


def _wrap(label: str, pieces: list[str]) -> str:
    """One labeled expression, wrapped well below the line-length limits
    of classic LP readers; continuation lines are indented."""
    lines = []
    current = f" {label}:"
    for piece in pieces:
        if len(current) + 1 + len(piece) > _WRAP_WIDTH and current.strip():
            lines.append(current)
            current = "  "
        current += f" {piece}"
    lines.append(current)
    return "\n".join(lines)


def emit_ilp(g: Graph, k: int, w: WeightVector) -> str:
    """Render the model for ``g`` with removal budget ``k`` as LP text.

    Requires weights for every size 1..n (clamp policy permitted). The
    emitted file has one budget row, 2n edge rows per edge, and binary /
    general sections for the variable groups.
    """
    model = build_model(g, k, w)
    coefficients, names = model.objective
    lines = [
        f"\\ component-size strength removal model: n={g.n}, "
        f"edges={g.edge_count}, k={k}",
        "Minimize",
        _wrap("obj", list(map(str.__add__, _signs(coefficients), names))),
        "Subject To",
    ]
    # the rows of one pattern share one coefficients tuple: sign it once
    signs_of: dict[Coefficients, list[str]] = {}
    for _, label, coefficients, names, sense, rhs in model.rows:
        signs = signs_of.get(coefficients)
        if signs is None:
            signs = signs_of[coefficients] = _signs(coefficients)
        pieces = list(map(str.__add__, signs, names))
        pieces.append(f"{sense} {rhs}")
        line = f" {label}: " + " ".join(pieces)
        # a line that fits is what the wrap loop would build
        lines.append(line if len(line) <= _WRAP_WIDTH else _wrap(label, pieces))
    lines.append("Bounds")
    lines += [f" 0 <= {name} <= {model.upper}" for name in model.generals]
    for title, names in (("Binaries", model.binaries),
                         ("Generals", model.generals)):
        lines.append(title)
        for start in range(0, len(names), 8):
            lines.append(" " + " ".join(names[start:start + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _in_domain(value: float, upper: int) -> bool:
    if not math.isfinite(value):
        return False
    nearest = round(value)
    return abs(value - nearest) <= TOLERANCE and 0 <= nearest <= upper


def verify_ilp_solution(
    g: Graph,
    k: int,
    w: WeightVector,
    assignment: Mapping[str, float],
) -> float:
    """Check an assignment against every constraint family; return the
    model objective.

    Raises :class:`ConstraintViolationError` naming the family of the first
    violated domain or row, within :data:`TOLERANCE`.
    """
    model = build_model(g, k, w)
    names = model.binaries + model.generals
    missing = [name for name in names if name not in assignment]
    if missing:
        raise ValueError(
            f"assignment is missing {len(missing)} variable(s), "
            f"e.g. {missing[:5]}"
        )
    value = {name: float(assignment[name]) for name in names}

    for name in model.binaries:
        if not _in_domain(value[name], 1):
            raise ConstraintViolationError(
                "binary-domain", f"{name} = {value[name]} is not binary"
            )
    for name in model.generals:
        if not _in_domain(value[name], model.upper):
            raise ConstraintViolationError(
                "integer-domain",
                f"{name} = {value[name]} is not an integer in "
                f"0..{model.upper}",
            )
    for row in model.rows:
        lhs = sum(coefficient * value[name]
                  for coefficient, name in zip(row.coefficients, row.names))
        gap = lhs - row.rhs
        too_high = gap > TOLERANCE and row.sense != ">="
        too_low = gap < -TOLERANCE and row.sense != "<="
        if too_high or too_low:
            raise ConstraintViolationError(
                row.family,
                f"{row.label}: left-hand side is {lhs}, "
                f"needs {row.sense} {row.rhs}",
            )
    return sum(coefficient * value[name]
               for coefficient, name in zip(*model.objective))
