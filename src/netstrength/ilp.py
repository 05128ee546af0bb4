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
its variable domains and its rows, in groups stored by column. The writer
(:func:`render_ilp`) formats each group from one template per pattern; it
and the verifier (:func:`verify_ilp_solution`) only read the model.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, cycle
from operator import add, mul
from typing import Iterator, Mapping, NamedTuple, Sequence

from .graph import Graph, _check_removal_size
from .metrics import WeightVector

# Slack allowed on integrality and on each row of a solver's assignment.
TOLERANCE = 1e-6


class ConstraintViolationError(ValueError):
    """An assignment violates the model; names the constraint family."""

    def __init__(self, family: str, message: str):
        super().__init__(f"[{family}] {message}")
        self.family = family


Pattern = NamedTuple("Pattern", [("coefficients", tuple[float, ...]),
                                 ("sense", str), ("rhs", int)])


class Group(NamedTuple):
    """Rows of one family, by column: row r is ``sum(coefficients * names)
    <sense> rhs`` (sense ``<=``, ``>=`` or ``=``) under the pattern
    ``patterns[r % len(patterns)]``, labeled ``labels[r]``, and its names
    are the r-th entries of ``columns``."""

    family: str
    patterns: tuple[Pattern, ...]
    labels: Sequence[str]
    columns: Sequence[Sequence[str]]

    def rows(self) -> Iterator[tuple[Pattern, str, tuple[str, ...]]]:
        return zip(cycle(self.patterns), self.labels, zip(*self.columns))


class Model(NamedTuple):
    """The model for one graph, budget and weight vector: ``objective`` is
    a ``(coefficients, names)`` pair, ``groups`` a one-shot generator in
    emission order; ``binaries`` are 0/1, ``generals`` in ``0..upper``."""

    objective: tuple[tuple[float, ...], list[str]]
    groups: Iterator[Group]
    binaries: list[str]
    generals: list[str]
    upper: int


def build_model(g: Graph, k: int, w: WeightVector) -> Model:
    """Describe the model for ``g`` with removal budget ``k``.

    Each edge gives one group, whose up and lo rows alternate slot by slot;
    each other family is one group, whose columns are the names already
    formatted, transposed where a row reads across them.

    Requires weights for every size 1..n (clamp policy permitted).
    """
    n = g.n
    _check_removal_size(k, n)
    w.check_overflow(n)
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
    edge = (Pattern((1.0, -1.0, -1.0, -1.0), "<=", 0),
            Pattern((1.0, -1.0, 1.0, 1.0), ">=", 0))
    sides = [f"{side}_{j}" for j in slots for side in ("up", "lo")]

    def groups() -> Iterator[Group]:
        # slot j's up and lo rows both read x_u_j and x_v_j
        x2 = [list(chain.from_iterable(zip(row, row))) for row in x]
        for u, v in sorted(g.edges):
            yield Group("edge-consistency", edge,
                        list(map(f"edge_{u + 1}_{v + 1}_".__add__, sides)),
                        (x2[u], x2[v], [y[u]] * (2 * n), [y[v]] * (2 * n)))
        yield Group("vertex-assignment", (Pattern(ones, "=", 1),),
                    [f"assign_{i}" for i in slots], list(zip(*x)))
        yield Group("component-size", (Pattern(total, "=", 0),),
                    [f"compsize_{j}" for j in slots], (c, *x))
        yield Group("budget", (Pattern(ones, "<=", k),), ["budget"],
                    list(zip(y)))
        by_size = list(zip(*m))
        yield Group("size-indicator", (Pattern(all_ones, "=", 1),),
                    [f"indicator_{j}" for j in slots], by_size)
        yield Group("size-link", (Pattern(link, "=", 0),),
                    [f"sizelink_{j}" for j in slots], (c, *by_size[1:]))
        yield Group("size-count", (Pattern(total, "=", 0),),
                    [f"sizecount_{t}" for t in sizes], (s, *m))

    weights = [t * w.value(t) for t in slots] + [-w.value(1)] * n
    objective = (tuple(weights), s[1:] + y)
    binaries = [name for names in x + [y] + m for name in names]
    return Model(objective, groups(), binaries, c + s, n)


_WRAP_WIDTH = 78


class _Template:
    """The format strings of one pattern's rows, or of the objective, with
    ``%s`` for the label and each name: one flat, one per wrapped layout."""

    def __init__(self, coefficients: tuple[float, ...], *tail: str):
        # the sign and magnitude text in front of each name
        signs = [("- " if c < 0 else "+ " if position else "")
                 + ("" if abs(c) == 1 else f"{abs(c)!r} ")
                 for position, c in enumerate(coefficients)]
        self.texts = [sign + "%s" for sign in signs] + list(tail)
        self.widths = list(map(len, signs + list(tail)))
        self.flat = " %s: " + " ".join(self.texts)
        self.fixed = len(self.flat) - 2 * len(signs) - 2  # less each %s
        self.layouts: dict[tuple[int, ...], str] = {}

    def line(self, row: tuple[str, ...]) -> str:
        """The row ``(label, *names)``, wrapped well below the limits of
        classic LP readers: a piece that would end past column 78 starts an
        indented line, unless the line holds only its indent. The layout
        depends only on the widths of the label and names, its key."""
        key = tuple(map(len, row))
        template = self.layouts.get(key)
        if template is None:
            template, end = " %s:", key[0] + 2
            for text, width in zip(self.texts, map(add, self.widths,
                                                   key[1:] + (0,))):
                if end + 1 + width > _WRAP_WIDTH and end > 2:
                    template, end = template + "\n  ", 2
                template, end = f"{template} {text}", end + 1 + width
            self.layouts[key] = template
        return template % row


def render_ilp(g: Graph, k: int, w: WeightVector) -> Iterator[str]:
    """The LP text of the model for ``g`` with budget ``k``, in chunks: a
    section or one group's rows each. The model is built, and its errors
    raised, before this returns. A group whose longest possible row fits
    is rendered flat in one ``map``; any other group's rows are wrapped."""
    model = build_model(g, k, w)
    widest = max(map(len, chain(model.binaries, model.generals)))
    template = functools.cache(lambda pattern: _Template(
        pattern.coefficients, f"{pattern.sense} {pattern.rhs}"))

    def rows(group: Group) -> Iterator[str]:
        templates = list(map(template, group.patterns))
        table = zip(group.labels, *group.columns)
        if (max(t.fixed for t in templates) + max(map(len, group.labels))
                + len(group.columns) * widest <= _WRAP_WIDTH):
            return map(str.__mod__, cycle([t.flat for t in templates]), table)
        return map(_Template.line, cycle(templates), table)

    def chunks() -> Iterator[str]:
        coefficients, names = model.objective
        yield (f"\\ component-size strength removal model: n={g.n}, "
               f"edges={g.edge_count}, k={k}\nMinimize\n"
               f"{_Template(coefficients).line(('obj', *names))}\n"
               "Subject To\n")
        for group in model.groups:
            yield "\n".join(rows(group)) + "\n"
        lines = [f" 0 <= {name} <= {model.upper}" for name in model.generals]
        for title, names in (("Binaries", model.binaries),
                             ("Generals", model.generals)):
            lines += [title] + [" " + " ".join(names[start:start + 8])
                                for start in range(0, len(names), 8)]
        yield "Bounds\n" + "\n".join(lines) + "\nEnd\n"

    return chunks()


def emit_ilp(g: Graph, k: int, w: WeightVector) -> str:
    """The LP text of the model for ``g`` with removal budget ``k``: the
    chunks of :func:`render_ilp`, joined."""
    return "".join(render_ilp(g, k, w))


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
    for group in model.groups:
        for (coefficients, sense, rhs), label, row in group.rows():
            lhs = sum(map(mul, coefficients, map(value.__getitem__, row)))
            gap = lhs - rhs
            if (gap > TOLERANCE and sense != ">="
                    or gap < -TOLERANCE and sense != "<="):
                raise ConstraintViolationError(
                    group.family,
                    f"{label}: left-hand side is {lhs}, needs {sense} {rhs}",
                )
    return sum(coefficient * value[name]
               for coefficient, name in zip(*model.objective))
