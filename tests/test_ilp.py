from __future__ import annotations

import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path_graph, random_graph
from netstrength.datasets import GeneratorSpec, generate
from netstrength.dismantle import DismantleQuery, best_removal
from netstrength.graph import Graph, remove_nodes
from netstrength.ilp import (
    ConstraintViolationError,
    _Template,
    build_model,
    emit_ilp,
    verify_ilp_solution,
)
from netstrength.metrics import (
    EXTENSION_CLAMP,
    WeightCoverageError,
    WeightVector,
    sigma,
)
from netstrength.weights import default_weights

LINEAR_WEIGHTS = WeightVector(range(1, 13))

PATH3_LP = r"""\ component-size strength removal model: n=3, edges=2, k=1
Minimize
 obj: S_1 + 4.0 S_2 + 9.0 S_3 - y_1 - y_2 - y_3
Subject To
 edge_1_2_up_1: x_1_1 - x_2_1 - y_1 - y_2 <= 0
 edge_1_2_lo_1: x_1_1 - x_2_1 + y_1 + y_2 >= 0
 edge_1_2_up_2: x_1_2 - x_2_2 - y_1 - y_2 <= 0
 edge_1_2_lo_2: x_1_2 - x_2_2 + y_1 + y_2 >= 0
 edge_1_2_up_3: x_1_3 - x_2_3 - y_1 - y_2 <= 0
 edge_1_2_lo_3: x_1_3 - x_2_3 + y_1 + y_2 >= 0
 edge_2_3_up_1: x_2_1 - x_3_1 - y_2 - y_3 <= 0
 edge_2_3_lo_1: x_2_1 - x_3_1 + y_2 + y_3 >= 0
 edge_2_3_up_2: x_2_2 - x_3_2 - y_2 - y_3 <= 0
 edge_2_3_lo_2: x_2_2 - x_3_2 + y_2 + y_3 >= 0
 edge_2_3_up_3: x_2_3 - x_3_3 - y_2 - y_3 <= 0
 edge_2_3_lo_3: x_2_3 - x_3_3 + y_2 + y_3 >= 0
 assign_1: x_1_1 + x_1_2 + x_1_3 = 1
 assign_2: x_2_1 + x_2_2 + x_2_3 = 1
 assign_3: x_3_1 + x_3_2 + x_3_3 = 1
 compsize_1: C_1 - x_1_1 - x_2_1 - x_3_1 = 0
 compsize_2: C_2 - x_1_2 - x_2_2 - x_3_2 = 0
 compsize_3: C_3 - x_1_3 - x_2_3 - x_3_3 = 0
 budget: y_1 + y_2 + y_3 <= 1
 indicator_1: m_1_0 + m_1_1 + m_1_2 + m_1_3 = 1
 indicator_2: m_2_0 + m_2_1 + m_2_2 + m_2_3 = 1
 indicator_3: m_3_0 + m_3_1 + m_3_2 + m_3_3 = 1
 sizelink_1: C_1 - m_1_1 - 2.0 m_1_2 - 3.0 m_1_3 = 0
 sizelink_2: C_2 - m_2_1 - 2.0 m_2_2 - 3.0 m_2_3 = 0
 sizelink_3: C_3 - m_3_1 - 2.0 m_3_2 - 3.0 m_3_3 = 0
 sizecount_0: S_0 - m_1_0 - m_2_0 - m_3_0 = 0
 sizecount_1: S_1 - m_1_1 - m_2_1 - m_3_1 = 0
 sizecount_2: S_2 - m_1_2 - m_2_2 - m_3_2 = 0
 sizecount_3: S_3 - m_1_3 - m_2_3 - m_3_3 = 0
Bounds
 0 <= C_1 <= 3
 0 <= C_2 <= 3
 0 <= C_3 <= 3
 0 <= S_0 <= 3
 0 <= S_1 <= 3
 0 <= S_2 <= 3
 0 <= S_3 <= 3
Binaries
 x_1_1 x_1_2 x_1_3 x_2_1 x_2_2 x_2_3 x_3_1 x_3_2
 x_3_3 y_1 y_2 y_3 m_1_0 m_1_1 m_1_2 m_1_3
 m_2_0 m_2_1 m_2_2 m_2_3 m_3_0 m_3_1 m_3_2 m_3_3
Generals
 C_1 C_2 C_3 S_0 S_1 S_2 S_3
End
"""

# negative, non-integer and unit coefficients ("- S_1", "- 1.5 S_2",
# "+ y_1") and wrapped objective and indicator rows
SIGNED_WEIGHTS = WeightVector(
    [-1.0, -0.75, 0.5, 1.25, -0.2, 0.9, 0.1, -2.5, 0.35, 1.0, -0.05, 0.6]
)
GNM12_LP_SHA256 = (
    "a8ce21ddf8087b405b8bd8d921e2ad6e707e2b6889c38fbf05f2fbbe7a77295d"
)


def honest_assignment(g: Graph, removed: set[int]) -> dict[str, float]:
    """Feasible point where every removed node takes its own singleton slot."""
    n = g.n
    # residual components take slots 1.. by smallest node id, then each
    # removed node a slot of its own in ascending id
    slot_of: dict[int, int] = {}
    next_slot = 1
    for start in [u for u in range(n) if u not in removed] + sorted(removed):
        if start in slot_of:
            continue
        stack = [start]
        while stack:
            node = stack.pop()
            if node not in slot_of:
                slot_of[node] = next_slot
                if node not in removed:
                    stack.extend(v for v in g.adjacency[node] if v not in removed)
        next_slot += 1
    slot_sizes = {j: 0 for j in range(1, n + 1)}
    for slot in slot_of.values():
        slot_sizes[slot] += 1
    assignment: dict[str, float] = {}
    for node in range(n):
        i = node + 1
        assignment[f"y_{i}"] = 1.0 if node in removed else 0.0
        for j in range(1, n + 1):
            assignment[f"x_{i}_{j}"] = 1.0 if slot_of[node] == j else 0.0
    for j in range(1, n + 1):
        assignment[f"C_{j}"] = float(slot_sizes[j])
        for t in range(n + 1):
            assignment[f"m_{j}_{t}"] = 1.0 if slot_sizes[j] == t else 0.0
    for t in range(n + 1):
        assignment[f"S_{t}"] = float(
            sum(1 for j in range(1, n + 1) if slot_sizes[j] == t)
        )
    return assignment


def section(text: str, start: str, end: str) -> str:
    return text.split(start, 1)[1].split(end, 1)[0]


class TestEmission:
    def test_golden_text_path(self):
        assert emit_ilp(path_graph(3), 1, LINEAR_WEIGHTS) == PATH3_LP

    def test_golden_digest_signed_weights(self):
        g = generate(GeneratorSpec(model="gnm", n=12, m=20, seed=5))[0]
        text = emit_ilp(g, 3, SIGNED_WEIGHTS)
        assert hashlib.sha256(text.encode()).hexdigest() == GNM12_LP_SHA256

    def test_variable_counts_small_graphs(self):
        rng = random.Random(2)
        for n in range(2, 7):
            g = random_graph(rng, n, 0.5)
            text = emit_ilp(g, 1, LINEAR_WEIGHTS)
            declared = section(text, "Binaries", "Generals").split()
            declared += section(text, "Generals", "End").split()
            assert len([v for v in declared if v.startswith("x_")]) == n * n
            assert len([v for v in declared if v.startswith("y_")]) == n
            assert len([v for v in declared if v.startswith("m_")]) == (
                n * (n + 1)
            )
            assert len([v for v in declared if v.startswith("C_")]) == n
            assert len([v for v in declared if v.startswith("S_")]) == n + 1
            model = build_model(g, 1, LINEAR_WEIGHTS)
            assert sorted(declared) == sorted(model.binaries + model.generals)

    def test_budget_row_appears_once(self):
        text = emit_ilp(path_graph(3), 1, LINEAR_WEIGHTS)
        assert text.count("budget:") == 1
        assert " budget: y_1 + y_2 + y_3 <= 1\n" in text

    def test_edge_rows_per_edge(self):
        g = path_graph(3)  # two edges, n = 3
        text = emit_ilp(g, 1, LINEAR_WEIGHTS)
        edge_rows = [
            line for line in text.splitlines()
            if line.lstrip().startswith("edge_")
        ]
        assert len(edge_rows) == 2 * g.edge_count * g.n

    def test_constraint_rows_are_well_formed(self):
        text = emit_ilp(path_graph(12), 2,
                        LINEAR_WEIGHTS.with_policy(EXTENSION_CLAMP))
        assert all(len(line) <= 80 for line in text.splitlines())
        body = section(text, "Subject To", "Bounds")
        rows: list[str] = []
        for line in body.strip("\n").splitlines():
            if re.match(r"^ \w+:", line):
                rows.append(line.strip())
            else:
                rows[-1] += " " + line.strip()  # wrapped continuation
        row = re.compile(
            r"^\w+: (- )?[\w.e-]+( [\w.]+)?( [+-] [\w.e-]+( [\w.]+)?)* "
            r"(<=|>=|=) -?\d+$"
        )
        assert len(rows) == (
            2 * 11 * 12  # edge pairs
            + 12 + 12 + 1 + 12 + 12 + 13
        )
        for reassembled in rows:
            assert row.match(reassembled), reassembled

    def test_section_order(self):
        text = emit_ilp(path_graph(3), 1, LINEAR_WEIGHTS)
        positions = [
            text.index(marker)
            for marker in ("Minimize", "Subject To", "Bounds", "Binaries",
                           "Generals", "End")
        ]
        assert positions == sorted(positions)

    def test_budget_out_of_range(self):
        with pytest.raises(ValueError, match="1 <= k < n"):
            emit_ilp(path_graph(3), 3, LINEAR_WEIGHTS)

    def test_short_weights_need_clamp(self):
        short = WeightVector([0.5, 0.7])
        with pytest.raises(WeightCoverageError):
            emit_ilp(path_graph(4), 1, short)
        text = emit_ilp(path_graph(4), 1, short.with_policy(EXTENSION_CLAMP))
        assert "S_4" in text

    def test_weights_that_could_overflow_are_refused(self):
        """Finite weights whose objective coefficients or value could reach
        inf are refused by every reader of the model, with the message of
        the search's check."""
        g = path_graph(4)
        huge = WeightVector([1, 1e308, 1, 1])
        message = ("weights for sizes 1..4 could overflow a float in the "
                   "strength of a 4-node graph")
        with pytest.raises(ValueError) as emitted:
            emit_ilp(g, 1, huge)
        with pytest.raises(ValueError) as verified:
            verify_ilp_solution(g, 1, huge, honest_assignment(g, {1}))
        assert str(emitted.value) == str(verified.value) == message
        # only the weights of sizes 1..n count, and 2 * 4 * 1e307 is finite
        large = WeightVector([1e307, 1, 1, 1, 1e308])
        assert "1e+307 S_1" in emit_ilp(g, 1, large)


def lp_corpus():
    """100 seeded models: n 2..16, k 1..3, signed weights under the error
    policy for even indices and the default weights under the clamp policy
    for odd ones."""
    rng = random.Random("lp corpus")
    for index in range(100):
        n = rng.randint(2, 16)
        k = rng.randint(1, min(3, n - 1))
        g = random_graph(rng, n, rng.uniform(0.05, 0.7))
        if index % 2:
            w = default_weights().with_policy(EXTENSION_CLAMP)
        else:
            w = WeightVector(
                [round(rng.uniform(-2, 2), rng.choice([0, 1, 2]))
                 for _ in range(n)]
            )
        yield g, k, w


class TestLpCorpusDigest:
    """The LP text of every corpus model, hashed into one pinned SHA-256:
    any change to a name, a coefficient, a sign or a line break changes
    the digest."""

    DIGEST = (
        "b2531648bbdfd5f8a0350df4aa47745011b93a194172590304d5d29089213b9f"
    )

    def test_emitted_text_matches_pinned_digest(self):
        digest = hashlib.sha256()
        wrapped_non_unit: set[str] = set()
        for g, k, w in lp_corpus():
            text = emit_ilp(g, k, w)
            digest.update(text.encode())
            label = ""
            for line in text.splitlines():
                if re.match(r"^ \w+:", line):
                    label = line.split(":", 1)[0].strip()
                elif line.startswith("  ") and re.search(r"\d\.\d+ \w", line):
                    wrapped_non_unit.add(label.split("_", 1)[0])
        # the corpus covers the wrap loop with non-unit coefficients
        assert {"obj", "sizelink"} <= wrapped_non_unit
        assert digest.hexdigest() == self.DIGEST


def wide_corpus():
    """20 sparse G(n, m) models at the one-, two- and three-digit index
    widths: n in (9, 10, 99, 100, 101), k 1..2, each under signed weights
    with the error policy and the default weights with the clamp policy."""
    rng = random.Random("wide lp corpus")
    for n in (9, 10, 99, 100, 101):
        for k in (1, 2):
            g = generate(GeneratorSpec(model="gnm", n=n, m=n + n // 3,
                                       seed=10 * n + k))[0]
            yield g, k, WeightVector(
                [round(rng.uniform(-2, 2), rng.choice([0, 1, 2]))
                 for _ in range(n)]
            )
            yield g, k, default_weights().with_policy(EXTENSION_CLAMP)


class TestWideLpDigest:
    """The LP text of every wide-index model, hashed into one pinned
    SHA-256: pins names, labels and line breaks where an index goes from
    one digit to two and from two to three."""

    DIGEST = (
        "5efc55397a1be6f7c3ae1e6eec3bc935d6d3a08325c7c36ca0b90e54032c66e6"
    )

    def test_emitted_text_matches_pinned_digest(self):
        digest = hashlib.sha256()
        for g, k, w in wide_corpus():
            digest.update(emit_ilp(g, k, w).encode())
        assert digest.hexdigest() == self.DIGEST


def greedy_signs(coefficients):
    """The sign texts of the writer before row groups, as a reference."""
    signs = []
    for position, coefficient in enumerate(coefficients):
        magnitude = abs(coefficient)
        body = "" if magnitude == 1 else f"{magnitude!r} "
        sign = "+ " if coefficient >= 0 else "- "
        signs.append(sign + body if position or coefficient < 0 else body)
    return signs


def greedy_wrap(label, pieces):
    """The piece-by-piece wrap of the writer before row groups, as a
    reference."""
    lines = []
    current = f" {label}:"
    for piece in pieces:
        if len(current) + 1 + len(piece) > 78 and current.strip():
            lines.append(current)
            current = "  "
        current += f" {piece}"
    lines.append(current)
    return "\n".join(lines)


WORD = st.text(alphabet="abxyz_019", min_size=1, max_size=90)


class TestCachedWrap:
    @settings(max_examples=400, deadline=None)
    @given(label=WORD, terms=st.lists(st.tuples(st.sampled_from(
        [1.0, -1.0, 2.0, -0.5, 0.25, 0.0, -3.0, 1e-7]), WORD), max_size=14),
        tail=st.sampled_from(["<= 0", ">= 12", "= 1", "= " + "9" * 80]))
    def test_matches_the_greedy_wrap(self, label, terms, tail):
        coefficients = tuple(coefficient for coefficient, _ in terms)
        names = [name for _, name in terms]
        template = _Template(coefficients, tail)
        pieces = list(map(str.__add__, greedy_signs(coefficients), names))
        assert template.line((label, *names)) == greedy_wrap(
            label, pieces + [tail]
        )
        # a row with the same widths reuses the cached layout
        other = ["q" * len(name) for name in names]
        pieces = list(map(str.__add__, greedy_signs(coefficients), other))
        assert template.line(("p" * len(label), *other)) == greedy_wrap(
            "p" * len(label), pieces + [tail]
        )
        assert len(template.layouts) == 1

    @pytest.mark.parametrize("label", ["l", "l" * 80])
    def test_long_label_and_piece(self, label):
        template = _Template((1.0, -2.0, 1.0), "= 0")
        names = ["a" * 79, "b", "c" * 3]
        expected = greedy_wrap(label, ["a" * 79, "- 2.0 b", "+ ccc", "= 0"])
        assert template.line((label, *names)) == expected
        assert expected.splitlines()[:2] == [f" {label}:", "   " + "a" * 79]


class TestVerification:
    def test_hand_built_assignment_matches_residual_strength(self):
        g = path_graph(3)
        w = default_weights()
        assignment = honest_assignment(g, {1})
        objective = verify_ilp_solution(g, 1, w, assignment)
        expected = sigma(remove_nodes(g, [1]), w).raw
        assert objective == pytest.approx(expected, rel=1e-12)
        assert objective == pytest.approx(2 * 0.2221, rel=1e-12)

    def test_no_removal_assignment(self):
        g = path_graph(4)
        w = default_weights()
        objective = verify_ilp_solution(g, 2, w, honest_assignment(g, set()))
        assert objective == pytest.approx(sigma(g, w).raw, rel=1e-12)

    def test_random_honest_assignments(self):
        rng = random.Random(9)
        w = default_weights()
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.6))
            k = rng.randint(1, g.n - 1)
            removed = set(rng.sample(range(g.n), rng.randint(0, k)))
            objective = verify_ilp_solution(
                g, k, w, honest_assignment(g, removed)
            )
            expected = sigma(remove_nodes(g, removed), w).raw
            assert objective == pytest.approx(expected, rel=1e-12)

    def test_missing_variables_reported(self):
        g = path_graph(3)
        assignment = honest_assignment(g, {1})
        del assignment["x_1_1"]
        with pytest.raises(ValueError, match="missing"):
            verify_ilp_solution(g, 1, default_weights(), assignment)

    def test_vertex_assignment_violation_named(self):
        g = path_graph(3)
        assignment = honest_assignment(g, {1})
        assignment["x_1_2"] = 1.0  # node 1 now sits in two slots
        with pytest.raises(ConstraintViolationError, match="vertex-assignment"):
            verify_ilp_solution(g, 1, default_weights(), assignment)

    def test_budget_violation_named(self):
        g = path_graph(4)
        assignment = honest_assignment(g, {0, 2})
        with pytest.raises(ConstraintViolationError, match="budget"):
            verify_ilp_solution(g, 1, default_weights(), assignment)

    def test_edge_consistency_violation_named(self):
        g = path_graph(3)
        assignment = honest_assignment(g, set())
        # split the 0-1 edge across slots with no removal credit
        assignment["x_1_1"] = 0.0
        assignment["x_1_2"] = 1.0
        with pytest.raises(ConstraintViolationError) as excinfo:
            verify_ilp_solution(g, 1, default_weights(), assignment)
        assert excinfo.value.family in (
            "edge-consistency", "component-size"
        )

    def test_size_bookkeeping_violations_named(self):
        g = path_graph(3)
        w = default_weights()
        broken = honest_assignment(g, {1})
        broken["m_1_0"] = 0.0
        broken["m_1_1"] = 0.0
        broken["m_1_2"] = 0.0
        broken["m_1_3"] = 0.0
        with pytest.raises(ConstraintViolationError, match="size-indicator"):
            verify_ilp_solution(g, 1, w, broken)

        broken = honest_assignment(g, {1})
        slot_one_size = int(broken["C_1"])
        broken[f"m_1_{slot_one_size}"] = 0.0
        broken[f"m_1_{(slot_one_size + 1) % 4}"] = 1.0
        with pytest.raises(ConstraintViolationError, match="size-link"):
            verify_ilp_solution(g, 1, w, broken)

        broken = honest_assignment(g, {1})
        broken["S_0"] = broken["S_0"] + 1
        with pytest.raises(ConstraintViolationError, match="size-count"):
            verify_ilp_solution(g, 1, w, broken)

        broken = honest_assignment(g, {1})
        broken["C_1"] = 0.5
        with pytest.raises(ConstraintViolationError, match="integer-domain"):
            verify_ilp_solution(g, 1, w, broken)

    def test_binary_domain_violation_named(self):
        g = path_graph(3)
        assignment = honest_assignment(g, {1})
        assignment["y_2"] = 2.0
        with pytest.raises(ConstraintViolationError, match="binary-domain"):
            verify_ilp_solution(g, 1, default_weights(), assignment)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("name, family", [
        ("x_1_1", "binary-domain"),
        ("C_1", "integer-domain"),
    ])
    def test_non_finite_value_violates_its_domain(self, value, name, family):
        g = path_graph(3)
        assignment = honest_assignment(g, {1})
        assignment[name] = value
        with pytest.raises(ConstraintViolationError, match=family):
            verify_ilp_solution(g, 1, default_weights(), assignment)

    def test_every_row_family_is_declared(self):
        g = generate(GeneratorSpec(model="gnm", n=6, m=7, seed=1))[0]
        model = build_model(g, 2, LINEAR_WEIGHTS)
        families = [group.family for group in model.groups]
        assert families == ["edge-consistency"] * 7 + [
            "vertex-assignment", "component-size", "budget",
            "size-indicator", "size-link", "size-count",
        ]


class TestSolverCrossCheck:
    """Solve the model with an independent MILP solver and compare."""

    @staticmethod
    def solve(g: Graph, k: int, w: WeightVector):
        scipy_opt = pytest.importorskip("scipy.optimize")
        np = pytest.importorskip("numpy")
        model = build_model(g, k, w)
        names = model.binaries + model.generals
        index = {name: pos for pos, name in enumerate(names)}
        objective = np.zeros(len(names))
        for coefficient, name in zip(*model.objective):
            objective[index[name]] = coefficient
        rows = [(pattern, row) for group in model.groups
                for pattern, _, row in group.rows()]
        matrix = np.zeros((len(rows), len(names)))
        for r, (pattern, row) in enumerate(rows):
            for coefficient, name in zip(pattern.coefficients, row):
                matrix[r, index[name]] = coefficient
        rhs = np.array([float(pattern.rhs) for pattern, _ in rows])
        lower = np.where([p.sense == "<=" for p, _ in rows], -np.inf, rhs)
        upper = np.where([p.sense == ">=" for p, _ in rows], np.inf, rhs)
        var_upper = np.array([1.0] * len(model.binaries)
                             + [float(model.upper)] * len(model.generals))
        result = scipy_opt.milp(
            c=objective,
            constraints=scipy_opt.LinearConstraint(matrix, lower, upper),
            integrality=np.ones(len(names)),
            bounds=scipy_opt.Bounds(np.zeros(len(names)), var_upper),
        )
        assert result.success, result.message
        assignment = {name: float(result.x[index[name]]) for name in names}
        return result.fun, assignment

    def test_optimum_matches_enumeration_for_increasing_weights(self):
        # with w_t = t, (s+1)^2 >= s^2 + 1, so parking a removed node in a
        # surviving slot never pays and the model optimum is the honest one
        rng = random.Random(17)
        for _ in range(4):
            n = rng.randint(3, 5)
            g = random_graph(rng, n, 0.5)
            k = rng.randint(1, n - 1)
            w = WeightVector(range(1, n + 1))
            optimum, assignment = self.solve(g, k, w)
            enumerated = best_removal(DismantleQuery(
                graph=g, k=k, objective="proposed", weights=w
            ))
            assert optimum == pytest.approx(
                enumerated.residual_value, abs=1e-6
            )
            checked = verify_ilp_solution(g, k, w, assignment)
            assert checked == pytest.approx(optimum, abs=1e-6)

    def test_nonmonotone_weights_can_undercut_enumeration(self):
        # documented caveat: a removed node may be parked inside a surviving
        # slot, which pays off exactly when w is non-monotone
        cycle = Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        w = default_weights()
        optimum, assignment = self.solve(cycle, 1, w)
        assert optimum == pytest.approx(5 * 0.5538 - 0.2221, abs=1e-6)
        enumerated = best_removal(DismantleQuery(
            graph=cycle, k=1, objective="proposed", weights=w
        ))
        assert enumerated.residual_value == pytest.approx(5 * 0.5538)
        assert optimum < enumerated.residual_value - 1e-6
        # the verifier still accepts the assignment
        checked = verify_ilp_solution(cycle, 1, w, assignment)
        assert checked == pytest.approx(optimum, abs=1e-6)
