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
from typing import Iterator, Mapping, NamedTuple

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


def x_name(i: int, j: int) -> str:
    return f"x_{i}_{j}"


def y_name(i: int) -> str:
    return f"y_{i}"


def m_name(j: int, t: int) -> str:
    return f"m_{j}_{t}"


def c_name(j: int) -> str:
    return f"C_{j}"


def s_name(t: int) -> str:
    return f"S_{t}"


Terms = list[tuple[float, str]]


class Row(NamedTuple):
    """One linear constraint ``sum(terms) <sense> rhs``."""

    family: str
    label: str
    terms: Terms
    sense: str  # "<=", ">=" or "="
    rhs: int


class Model(NamedTuple):
    """The model for one graph, budget and weight vector.

    ``rows`` is a one-shot generator in emission order. ``binaries`` are
    0/1 variables; ``generals`` are integers in ``0..upper``.
    """

    objective: Terms
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

    def rows() -> Iterator[Row]:
        for u, v in sorted(g.edges):
            a, b = u + 1, v + 1
            ya, yb = y_name(a), y_name(b)
            for j in slots:
                split = [(1.0, x_name(a, j)), (-1.0, x_name(b, j))]
                yield Row("edge-consistency", f"edge_{a}_{b}_up_{j}",
                          split + [(-1.0, ya), (-1.0, yb)], "<=", 0)
                yield Row("edge-consistency", f"edge_{a}_{b}_lo_{j}",
                          split + [(1.0, ya), (1.0, yb)], ">=", 0)
        for i in slots:
            yield Row("vertex-assignment", f"assign_{i}",
                      [(1.0, x_name(i, j)) for j in slots], "=", 1)
        for j in slots:
            yield Row("component-size", f"compsize_{j}",
                      [(1.0, c_name(j))]
                      + [(-1.0, x_name(i, j)) for i in slots], "=", 0)
        yield Row("budget", "budget", [(1.0, y_name(i)) for i in slots],
                  "<=", k)
        for j in slots:
            yield Row("size-indicator", f"indicator_{j}",
                      [(1.0, m_name(j, t)) for t in sizes], "=", 1)
        for j in slots:
            yield Row("size-link", f"sizelink_{j}",
                      [(1.0, c_name(j))]
                      + [(-float(t), m_name(j, t)) for t in slots], "=", 0)
        for t in sizes:
            yield Row("size-count", f"sizecount_{t}",
                      [(1.0, s_name(t))]
                      + [(-1.0, m_name(j, t)) for j in slots], "=", 0)

    objective = [(t * w.value(t), s_name(t)) for t in slots]
    objective += [(-w.value(1), y_name(i)) for i in slots]
    binaries = [x_name(i, j) for i in slots for j in slots]
    binaries += [y_name(i) for i in slots]
    binaries += [m_name(j, t) for j in slots for t in sizes]
    generals = [c_name(j) for j in slots] + [s_name(t) for t in sizes]
    return Model(objective, rows(), binaries, generals, n)


_WRAP_WIDTH = 78


def _emit_row(lines: list[str], label: str, terms: Terms, tail: str = "") -> None:
    """Append one labeled expression, wrapped well below the line-length
    limits of classic LP readers; continuation lines are indented."""
    pieces: list[str] = []
    for coefficient, name in terms:
        magnitude = abs(coefficient)
        body = name if magnitude == 1 else f"{magnitude!r} {name}"
        sign = "+ " if coefficient >= 0 else "- "
        pieces.append(sign + body if pieces or coefficient < 0 else body)
    if tail:
        pieces.append(tail)
    current = f" {label}:"
    for piece in pieces:
        if len(current) + 1 + len(piece) > _WRAP_WIDTH and current.strip():
            lines.append(current)
            current = "  "
        current += f" {piece}"
    lines.append(current)


def emit_ilp(g: Graph, k: int, w: WeightVector) -> str:
    """Render the model for ``g`` with removal budget ``k`` as LP text.

    Requires weights for every size 1..n (clamp policy permitted). The
    emitted file has one budget row, 2n edge rows per edge, and binary /
    general sections for the variable groups.
    """
    model = build_model(g, k, w)
    lines = [
        f"\\ component-size strength removal model: n={g.n}, "
        f"edges={g.edge_count}, k={k}",
        "Minimize",
    ]
    _emit_row(lines, "obj", model.objective)
    lines.append("Subject To")
    for row in model.rows:
        _emit_row(lines, row.label, row.terms, f"{row.sense} {row.rhs}")
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
        lhs = sum(coefficient * value[name] for coefficient, name in row.terms)
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
               for coefficient, name in model.objective)
