from __future__ import annotations

import importlib.util
import json
import random
import re
import subprocess
import sys
import typing
from fractions import Fraction

import numpy as np
import pytest

from conftest import child_env, disjoint_paths, path_graph
from netstrength import weights
from netstrength.datasets import GNP, GeneratorSpec, generate, save_edge_list
from netstrength.graph import Graph
from netstrength.metrics import WeightVector, load_weights, sigma, weights_csv
from netstrength.weights import (
    DesignMatrix,
    SurveyDataset,
    SurveyRecord,
    build_system,
    check_ridge,
    default_weights,
    fit_weights,
    load_survey_csv,
)

# Bundled calibration, one weight per component size 1..30.
EXPECTED_DEFAULTS = [
    0.2221, 0.6607, 0.8747, 1.2271, 0.5538, 0.9078, 0.9445, 0.9517,
    0.9737, 0.7178, 0.6668, 0.7028, 0.8193, 0.7625, 0.9872, 0.7648,
    1.0714, 0.6910, 0.9432, 0.8923, 0.9193, 0.9847, 0.8122, 0.9321,
    0.9485, 0.9868, 0.8559, 0.8390, 0.9867, 0.9093,
]


def record(graph_id: str, graph: Graph, *estimates: float) -> SurveyRecord:
    return SurveyRecord(graph_id=graph_id, graph=graph, estimates=estimates)


class TestDefaultWeights:
    def test_all_thirty_reference_values(self):
        w = default_weights()
        assert len(w) == 30
        for size, expected in enumerate(EXPECTED_DEFAULTS, start=1):
            assert w.value(size) == expected

    def test_spot_values(self):
        w = default_weights()
        assert w.value(1) == 0.2221
        assert w.value(4) == 1.2271
        assert w.value(30) == 0.9093

    def test_csv_round_trip_is_lossless_and_stable(self, tmp_path):
        path = tmp_path / "default.csv"
        path.write_text(weights_csv(default_weights()))
        loaded = load_weights(path)
        assert loaded.weights == default_weights().weights
        first = path.read_text()
        path.write_text(weights_csv(loaded))
        assert path.read_text() == first


class TestSurveyRecords:
    def test_estimates_must_cover_graph_scale(self):
        with pytest.raises(ValueError, match="outside"):
            record("g", path_graph(3), 3.5)
        with pytest.raises(ValueError, match="outside"):
            record("g", path_graph(3), 0.5)

    def test_mean_estimate(self):
        r = record("g", path_graph(3), 1.0, 2.0, 3.0)
        assert r.mean_estimate == 2.0


class TestBuildSystem:
    def test_single_connected_graph(self):
        ds = SurveyDataset((record("a", path_graph(3), 2.6),))
        dm = build_system(ds)
        assert dm.matrix == ((0, 0, 3),)
        assert dm.target == (2.6,)
        assert dm.graph_ids == ("a",)

    def test_mixed_components_row(self):
        # components {2,1} next to a connected 3-node graph: width 3
        ds = SurveyDataset((
            record("a", disjoint_paths([2, 1]), 1.8),
            record("b", path_graph(3), 2.6),
        ))
        dm = build_system(ds)
        assert dm.matrix == ((1, 2, 0), (0, 0, 3))

    def test_width_is_largest_observed_size(self):
        ds = SurveyDataset((record("a", disjoint_paths([2, 1]), 1.8),))
        assert build_system(ds).matrix == ((1, 2),)

    def test_identical_graphs_distinct_targets(self):
        ds = SurveyDataset((
            record("a", path_graph(4), 3.0),
            record("b", path_graph(4), 2.0),
        ))
        dm = build_system(ds)
        assert dm.matrix[0] == dm.matrix[1]
        assert dm.target == (3.0, 2.0)

    def test_results_of_one_dataset_compare_and_hash_equal(self):
        ds = SurveyDataset((
            record("a", disjoint_paths([2, 1]), 1.8),
            record("b", path_graph(3), 2.6),
        ))
        first, second = build_system(ds), build_system(ds)
        assert first == second
        assert hash(first) == hash(second)
        # exact integer coefficients, not floats that happen to be equal
        assert {type(c) for row in first.matrix for c in row} == {int}

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_system(SurveyDataset(()))


class TestFitWeights:
    def test_one_equation_minimum_norm(self):
        dm = DesignMatrix(
            matrix=np.array([[0.0, 0.0, 3.0]]),
            target=np.array([2.6]),
            graph_ids=("a",),
        )
        result = fit_weights(dm)
        # the float quotient is the float nearest the exact one
        assert result.weights.weights == (0.0, 0.0, 2.6 / 3)
        assert result.rank == 1
        assert result.residual_norm == 0.0

    def test_recovers_generating_weights(self):
        generating = [1.0, 0.72, 0.88, 0.61, 0.94, 0.57]
        w_star = WeightVector(generating)
        suite = [
            ("iso", Graph.build(3, [])),
            ("p2", path_graph(2)),
            ("p3", path_graph(3)),
            ("p4", path_graph(4)),
            ("p5", path_graph(5)),
            ("p6", path_graph(6)),
            ("mix23", disjoint_paths([2, 3])),
            ("mix14", disjoint_paths([1, 4])),
        ]
        records = tuple(
            record(graph_id, graph, sigma(graph, w_star).raw)
            for graph_id, graph in suite
        )
        dm = build_system(SurveyDataset(records))
        assert np.linalg.matrix_rank(dm.matrix) == 6
        result = fit_weights(dm)
        assert result.weights.weights == pytest.approx(generating, abs=1e-6)
        assert result.rank == 6

    def test_unseen_sizes_get_zero_weight(self):
        # no size-2 component anywhere: its column is all zero
        ds = SurveyDataset((
            record("a", path_graph(3), 2.0),
            record("b", Graph.build(3, []), 1.5),
        ))
        result = fit_weights(build_system(ds))
        assert result.weights.value(2) == 0.0

    def test_ridge_limit_shrinks_weights(self):
        ds = SurveyDataset((record("a", path_graph(4), 3.5),))
        dm = build_system(ds)
        loose = fit_weights(dm, ridge=0.0)
        tight = fit_weights(dm, ridge=1e9)
        assert np.linalg.norm(tight.weights.weights) < 1e-6
        assert np.linalg.norm(tight.weights.weights) < (
            np.linalg.norm(loose.weights.weights)
        )
        assert tight.regularization == 1e9

    def test_negative_ridge_rejected(self):
        dm = DesignMatrix(np.eye(2), np.ones(2), ("a", "b"))
        with pytest.raises(ValueError):
            fit_weights(dm, ridge=-1.0)

    @pytest.mark.parametrize("ridge", [float("nan"), float("inf")])
    def test_non_finite_ridge_rejected(self, ridge):
        dm = DesignMatrix(np.eye(2), np.ones(2), ("a", "b"))
        with pytest.raises(
            ValueError,
            match=f"ridge parameter must be a finite number >= 0, got {ridge}",
        ):
            fit_weights(dm, ridge=ridge)

    def test_non_finite_rejected(self):
        dm = DesignMatrix(
            np.array([[np.nan, 0.0]]), np.array([1.0]), ("a",)
        )
        with pytest.raises(ValueError, match="finite"):
            fit_weights(dm)

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_no_perturbation_improves_objective(self, ridge):
        rng = np.random.default_rng(99)
        for _ in range(20):
            rows = rng.integers(2, 8)
            cols = rng.integers(1, 6)
            matrix = rng.normal(size=(rows, cols))
            if cols > 1 and rng.random() < 0.4:
                matrix[:, -1] = matrix[:, 0]  # force rank deficiency
            target = rng.normal(size=rows)
            dm = DesignMatrix(matrix, target, tuple("g" * rows))
            fitted = np.array(fit_weights(dm, ridge=ridge).weights.weights)

            def objective(w):
                penalty = ridge * np.dot(w, w)
                return np.sum((matrix @ w - target) ** 2) + penalty

            base = objective(fitted)
            for _ in range(25):
                delta = rng.normal(scale=rng.choice([1e-4, 0.1, 2.0]),
                                   size=cols)
                assert objective(fitted + delta) >= base - 1e-8 * max(base, 1)

    def test_residual_norm_matches_definition(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(6, 3))
        target = rng.normal(size=6)
        dm = DesignMatrix(matrix, target, tuple("abcdef"))
        result = fit_weights(dm)
        w = np.array(result.weights.weights)
        assert result.residual_norm == pytest.approx(
            float(np.linalg.norm(matrix @ w - target))
        )


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of rational rows, and the pivot columns."""
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        found = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[top], rows[found] = rows[found], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[top])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def null_space(matrix: list[list[Fraction]], width: int) -> list[list[Fraction]]:
    """A basis of the vectors that ``matrix`` maps to zero."""
    reduced, pivots = rref(matrix)
    basis = []
    for free in (k for k in range(width) if k not in pivots):
        vector = [Fraction(0)] * width
        vector[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vector[col] = -row[free]
        basis.append(vector)
    return basis


def dot(u, v) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def exact_fit(matrix, target, ridge):
    """The least-norm solution of the (ridge) normal equations in exact
    rationals, with ``A``, ``b`` and ``ridge`` as rationals."""
    a = [[Fraction(x) for x in row] for row in matrix]
    b = [Fraction(t) for t in target]
    lam = Fraction(ridge)
    width = len(a[0])
    columns = list(zip(*a))
    normal = [[dot(columns[i], columns[j]) + (lam if i == j else 0)
               for j in range(width)] + [dot(columns[i], b)]
              for i in range(width)]
    reduced, pivots = rref(normal)
    x = [Fraction(0)] * width
    for row, col in zip(reduced, pivots):
        x[col] = row[-1]
    # take out the part of x in the null space of A; a ridge solution has none
    basis = null_space(a, width)
    if basis:
        coefficients = [row[-1] for row in rref(
            [[dot(u, v) for v in basis] + [dot(u, x)] for u in basis])[0]]
        x = [xi - sum(c * u[i] for c, u in zip(coefficients, basis))
             for i, xi in enumerate(x)]
    return x, a, b, lam


def random_system(rng: random.Random):
    """A small system with integer or float entries, and maybe a zero
    column, a repeated row and a column twice another."""
    rows, cols = rng.randint(1, 7), rng.randint(1, 6)
    floats = rng.random() < 0.5

    def entry():
        if rng.random() < 0.3:
            return 0
        return rng.uniform(-4, 4) if floats else rng.randint(-6, 9)

    matrix = [[entry() for _ in range(cols)] for _ in range(rows)]
    if cols > 1 and rng.random() < 0.3:
        zero = rng.randrange(cols)
        for row in matrix:
            row[zero] = 0
    if rows > 1 and rng.random() < 0.3:
        matrix[-1] = list(matrix[0])
    if cols > 1 and rng.random() < 0.3:
        for row in matrix:
            row[-1] = 2 * row[0]
    target = [rng.uniform(1, 10) if rng.random() < 0.7 else rng.randint(1, 20)
              for _ in range(rows)]
    return matrix, target


def golden_system() -> DesignMatrix:
    """The CLI's golden suite: three G(14, 0.13) graphs, seed 3."""
    graphs = generate(GeneratorSpec(model=GNP, n=14, p=0.13, seed=3, count=3))
    means = (5.75, 7.625, 3.75)
    return build_system(SurveyDataset(tuple(
        record(f"graph_{i}", graph, mean)
        for i, (graph, mean) in enumerate(zip(graphs, means))
    )))


class TestExactFit:
    """Each fitted weight is the float nearest the exact least-squares
    solution, checked against an independent rational oracle."""

    @pytest.mark.parametrize("ridge", [0.0, 1e-3, 0.5, 3])
    def test_random_systems_round_the_exact_solution(self, ridge):
        rng = random.Random(f"exact-fit:{ridge}")
        for _ in range(50):
            matrix, target = random_system(rng)
            x, a, b, lam = exact_fit(matrix, target, ridge)
            residual = [dot(row, x) - t for row, t in zip(a, b)]
            # the oracle meets the normal equations A^T (A x - b) + lam x = 0
            for i, column in enumerate(zip(*a)):
                assert dot(column, residual) + lam * x[i] == 0
            if not lam:  # and is the least-norm solution
                for u in null_space(a, len(x)):
                    assert dot(u, x) == 0
            result = fit_weights(
                DesignMatrix(matrix, target, ("g",) * len(matrix)), ridge)
            assert [w.hex() for w in result.weights.weights] == [
                float(v).hex() for v in x], (matrix, target)
            assert result.rank == len(rref(a)[1])
            assert result.residual_norm == pytest.approx(
                float(dot(residual, residual)) ** 0.5, rel=1e-15, abs=0)

            reference = np.linalg.lstsq(
                np.vstack([np.array(matrix, dtype=float),
                           np.sqrt(ridge) * np.eye(len(x))]),
                np.concatenate([target, np.zeros(len(x))]), rcond=None)[0]
            scale = max(1.0, float(np.abs(reference).max()))
            assert np.abs(np.array(result.weights.weights) - reference).max(
            ) <= 1e-9 * scale

    def test_golden_suite_residual_is_exactly_zero(self):
        dm = golden_system()
        result = fit_weights(dm)
        assert (result.residual_norm, result.rank) == (0.0, 3)
        x, *_ = exact_fit(dm.matrix, dm.target, 0)
        assert result.weights.weights == tuple(map(float, x))

    def test_numpy_and_python_inputs_fit_alike(self):
        dm = golden_system()
        expected = fit_weights(dm, ridge=0.5)
        for matrix, target, ridge in (
            (np.array(dm.matrix), np.array(dm.target), np.float64(0.5)),
            (np.array(dm.matrix, dtype=np.float32), list(dm.target), 0.5),
            ([list(map(np.int64, row)) for row in dm.matrix], dm.target,
             Fraction(1, 2)),
        ):
            assert fit_weights(DesignMatrix(matrix, target, dm.graph_ids),
                               ridge=ridge) == expected

    def test_weight_beyond_the_largest_float_is_refused(self):
        dm = DesignMatrix(((0.5,),), (1.5e308,), ("a",))
        with pytest.raises(ValueError, match="fitted weight for size 1 "
                                             "overflows a float"):
            fit_weights(dm)


class TestCheckRidge:
    @pytest.mark.parametrize("ridge", [0, 0.0, 0.5, 1e300, np.float64(3)])
    def test_accepted(self, ridge):
        check_ridge(ridge)

    @pytest.mark.parametrize("ridge", [-1.0, -1e-300, float("nan"),
                                       float("inf"), np.float64("nan")])
    def test_refused_with_one_message(self, ridge):
        with pytest.raises(ValueError, match=re.escape(
            f"ridge parameter must be a finite number >= 0, got {ridge}"
        )):
            check_ridge(ridge)


class TestSurveyCsv:
    def make_inputs(self, tmp_path):
        graph_dir = tmp_path / "graphs"
        graph_dir.mkdir()
        save_edge_list(path_graph(3), graph_dir / "p3.edges")
        save_edge_list(Graph.build(4, []), graph_dir / "iso4.edges")
        survey = tmp_path / "survey.csv"
        survey.write_text(
            "graph_id,participant_id,estimate\n"
            "p3,u1,2.0\np3,u2,3.0\niso4,u1,1.0\n"
        )
        return survey, graph_dir

    def test_groups_and_orders_records(self, tmp_path):
        survey, graph_dir = self.make_inputs(tmp_path)
        ds = load_survey_csv(survey, graph_dir)
        assert [r.graph_id for r in ds.records] == ["iso4", "p3"]
        by_id = {r.graph_id: r for r in ds.records}
        assert by_id["p3"].estimates == (2.0, 3.0)
        assert by_id["p3"].mean_estimate == 2.5
        assert by_id["iso4"].graph.n == 4

    def test_missing_graph_file(self, tmp_path):
        survey, graph_dir = self.make_inputs(tmp_path)
        survey.write_text("graph_id,participant_id,estimate\nnope,u1,1.0\n")
        with pytest.raises(FileNotFoundError, match="nope"):
            load_survey_csv(survey, graph_dir)

    def test_missing_columns(self, tmp_path):
        survey, graph_dir = self.make_inputs(tmp_path)
        survey.write_text("graph_id,estimate\np3,2.0\n")
        with pytest.raises(ValueError, match="participant_id"):
            load_survey_csv(survey, graph_dir)

    def test_short_row_names_file_and_line(self, tmp_path):
        survey, graph_dir = self.make_inputs(tmp_path)
        survey.write_text("graph_id,participant_id,estimate\np3,u1,2.0\np3,u2\n")
        with pytest.raises(ValueError, match=f"{survey}:3: .*'estimate'"):
            load_survey_csv(survey, graph_dir)

    def test_repeated_participant_rejected(self, tmp_path):
        survey, graph_dir = self.make_inputs(tmp_path)
        survey.write_text("graph_id,participant_id,estimate\np3,u1,2\np3,u1,3\n")
        with pytest.raises(
            ValueError,
            match=f"{survey}:3: duplicate estimate from participant 'u1' "
                  f"for graph 'p3'",
        ):
            load_survey_csv(survey, graph_dir)

    def test_empty_graph_id_is_not_one_path_component(self, tmp_path):
        survey, graph_dir = self.make_inputs(tmp_path)
        survey.write_text("graph_id,participant_id,estimate\n,u1,1\n")
        with pytest.raises(ValueError, match=re.escape(
            f"{survey}:2: graph id '' is not one path component"
        )):
            load_survey_csv(survey, graph_dir)

    def test_empty_survey(self, tmp_path):
        survey, graph_dir = self.make_inputs(tmp_path)
        survey.write_text("graph_id,participant_id,estimate\n")
        with pytest.raises(ValueError, match="no records"):
            load_survey_csv(survey, graph_dir)

    def test_fit_report_fields_serialize(self, tmp_path):
        survey, graph_dir = self.make_inputs(tmp_path)
        ds = load_survey_csv(survey, graph_dir)
        result = fit_weights(build_system(ds))
        line = json.dumps({
            "residual_norm": result.residual_norm,
            "rank": result.rank,
            "lambda": result.regularization,
        })
        assert json.loads(line)["rank"] == result.rank


class TestTypeHints:
    HINTS = {
        "matrix": tuple[tuple[int, ...], ...],
        "target": tuple[float, ...],
        "graph_ids": tuple[str, ...],
    }

    def test_annotations_resolve_as_a_type_checker_reads_them(
        self, monkeypatch
    ):
        # a second copy of the module, run with TYPE_CHECKING true, binds
        # what a type checker binds
        monkeypatch.setattr(typing, "TYPE_CHECKING", True)
        name = "netstrength._weights_as_checked"
        spec = importlib.util.spec_from_file_location(name, weights.__file__)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        assert typing.get_type_hints(module.DesignMatrix) == self.HINTS
        for annotated in (module.SurveyRecord, module.SurveyDataset,
                          module.FitResult, module.default_weights,
                          module.build_system, module.fit_weights,
                          module.load_survey_csv):
            typing.get_type_hints(annotated)

    def test_annotations_resolve_at_run_time_without_numpy(self):
        # a fresh interpreter, so that no other test has loaded numpy
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, typing\n"
             "from netstrength import weights\n"
             "hints = typing.get_type_hints(weights.DesignMatrix)\n"
             f"assert hints == {self.HINTS!r}, hints\n"
             "for annotated in (\n"
             "        weights.SurveyRecord, weights.SurveyDataset,\n"
             "        weights.FitResult, weights.default_weights,\n"
             "        weights.build_system, weights.fit_weights,\n"
             "        weights.load_survey_csv):\n"
             "    typing.get_type_hints(annotated)\n"
             "assert 'numpy' not in sys.modules"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
