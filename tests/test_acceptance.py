"""Acceptance gate: one test per shipped guarantee, at stated tolerance.

The terminal summary prints one PASS/FAIL line per criterion (conftest
hook). Nothing here relies on externally sourced network data; the bundled
survey-table fixtures carry the reference evaluation inputs.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from conftest import random_connected_graph, random_graph
from netstrength.datasets import GeneratorSpec, bundled_eval_path, generate
from netstrength.dismantle import DismantleQuery, best_removal
from netstrength.evaluation import (
    load_predictions_csv,
    load_ranked_gt_csv,
    match_stats,
)
from netstrength.graph import components, remove_nodes
from netstrength.ilp import emit_ilp, verify_ilp_solution
from netstrength.metrics import (
    WeightVector,
    cole1,
    cole2,
    gfp_score,
    load_weights,
    sigma,
    weights_csv,
)
from netstrength.weights import (
    SurveyDataset,
    SurveyRecord,
    build_system,
    default_weights,
    fit_weights,
)
from test_dismantle import oracle_best_removal
from test_ilp import honest_assignment
from test_weights import EXPECTED_DEFAULTS

CRITERION_SEED = 20260811


def mixed_random_suite(count: int, max_n: int, seed: int):
    """Alternating gnp/gnm graphs with randomized parameters."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(3, max_n)
        if len(graphs) % 2 == 0:
            spec = GeneratorSpec(
                model="gnp", n=n, p=rng.uniform(0.0, 0.5),
                seed=rng.getrandbits(32),
            )
        else:
            spec = GeneratorSpec(
                model="gnm", n=n, m=rng.randint(0, math.comb(n, 2)),
                seed=rng.getrandbits(32),
            )
        graphs.extend(generate(spec))
    return graphs[:count]


def test_bundled_weight_table_fidelity(tmp_path):
    """All 30 default weights match the reference decimals exactly and
    survive a CSV round-trip without any change."""
    w = default_weights()
    assert len(w) == 30
    for size, expected in enumerate(EXPECTED_DEFAULTS, start=1):
        assert w.value(size) == expected  # exact float of the decimal string
    path = tmp_path / "weights.csv"
    path.write_text(weights_csv(w))
    reloaded = load_weights(path)
    assert reloaded.weights == w.weights  # bit-for-bit values
    first_bytes = path.read_bytes()
    path.write_text(weights_csv(reloaded))
    assert path.read_bytes() == first_bytes  # byte-stable decimal strings
    for line, original in zip(
        path.read_text().splitlines()[1:], w.weights
    ):
        assert float(line.split(",")[1]) == original


def test_connected_graph_identity():
    """sigma(g, default) == n * w_n to 1e-12 relative on 50 random
    connected graphs with n <= 30."""
    rng = random.Random(CRITERION_SEED)
    w = default_weights()
    for _ in range(50):
        n = rng.randint(2, 30)
        g = random_connected_graph(rng, n, extra_p=rng.uniform(0.0, 0.3))
        assert len(components(g)) == 1
        assert math.isclose(
            sigma(g, w).raw, n * w.value(n), rel_tol=1e-12, abs_tol=0.0
        )


def test_size_count_identity_on_500_graphs():
    """sum(i * count_i) == n exactly on 500 mixed random graphs, n <= 50."""
    for g in mixed_random_suite(500, 50, CRITERION_SEED + 1):
        counts = Counter(components(g))
        total = sum(size * count for size, count in counts.items())
        assert total == g.n


def test_baseline_bounds_on_500_graphs():
    """1 <= cole1, cole2, gfp <= n with equality characterizations, on the
    same 500-graph suite."""
    for g in mixed_random_suite(500, 50, CRITERION_SEED + 1):
        connected = len(components(g)) == 1
        edgeless = g.edge_count == 0
        for value in (cole1(g).raw, cole2(g).raw, gfp_score(g).raw):
            assert 1.0 <= value <= g.n
            assert (value == g.n) == connected
            assert (value == 1.0) == edgeless


def test_dismantling_oracle_equivalence():
    """best_removal matches an independent bitmask enumerator on 50 random
    graphs (n <= 12, k in {1,2,3}), all four objectives, tie-breaks
    included."""
    rng = random.Random(CRITERION_SEED + 2)
    w = default_weights()
    for _ in range(50):
        n = rng.randint(4, 12)
        g = random_graph(rng, n, rng.uniform(0.1, 0.5))
        for k in (1, 2, 3):
            for objective in ("proposed", "cole1", "cole2", "gfp"):
                weights = w if objective == "proposed" else None
                expected = oracle_best_removal(g, k, objective, weights)
                actual = best_removal(DismantleQuery(
                    graph=g, k=k, objective=objective, weights=weights,
                ))
                assert actual.removed == expected.removed
                assert actual.residual_value == expected.residual_value
                assert actual.ties == expected.ties


def test_match_statistics_reproduce_reference_tables():
    """The bundled survey tables yield the reference exact/rank statistics,
    as exact dyadic rationals."""
    single_gt = load_ranked_gt_csv(bundled_eval_path("single_gt.csv"))
    expectations = {
        "proposed": (0.75, 1.25),
        "cole1": (0.5, 1.625),
        "cole2": (0.375, 1.75),
        "gfp": (0.375, 1.75),
    }
    for metric, (exact, rank) in expectations.items():
        report = match_stats(
            load_predictions_csv(
                bundled_eval_path(f"single_pred_{metric}.csv")
            ),
            single_gt,
        )
        assert report.exact_match == exact
        assert report.rank_match == rank

    pairs_gt = load_ranked_gt_csv(bundled_eval_path("pairs_gt.csv"))
    our = match_stats(
        load_predictions_csv(bundled_eval_path("pairs_pred_proposed.csv")),
        pairs_gt,
    )
    assert our.exact_match == 0.375
    assert our.rank_match == 1.75
    for metric in ("cole1", "cole2", "gfp"):
        report = match_stats(
            load_predictions_csv(
                bundled_eval_path(f"pairs_pred_{metric}.csv")
            ),
            pairs_gt,
        )
        assert report.exact_match == 0.25
        assert report.rank_match is None  # rendered as "-"


def test_weight_fit_round_trip():
    """Weights behind synthetic estimates are recovered to 1e-6 with no
    regularization on a full-column-rank suite."""
    from conftest import disjoint_paths, path_graph

    generating = (1.0, 0.72, 0.88, 0.61, 0.94, 0.57)
    w_star = WeightVector(generating)
    suite = [
        disjoint_paths([1, 1, 1]),
        path_graph(2), path_graph(3), path_graph(4), path_graph(5),
        path_graph(6),
        disjoint_paths([2, 3]), disjoint_paths([1, 4]),
        disjoint_paths([2, 2, 2]),
    ]
    records = tuple(
        SurveyRecord(
            graph_id=f"g{i}", graph=g, estimates=(sigma(g, w_star).raw,)
        )
        for i, g in enumerate(suite)
    )
    dm = build_system(SurveyDataset(records))
    result = fit_weights(dm, ridge=0.0)
    assert result.weights.weights == pytest.approx(generating, abs=1e-6)


def test_lp_emission_counts_and_feasibility():
    """Emitted models carry exactly n^2/n/n(n+1)/n/n+1 variables and one
    budget row; a hand-built feasible assignment verifies and its objective
    equals the residual strength."""
    rng = random.Random(CRITERION_SEED + 3)
    w = default_weights()
    for n in range(2, 7):
        g = random_graph(rng, n, 0.5)
        k = rng.randint(1, n - 1)
        text = emit_ilp(g, k, w)
        declared = (
            text.split("Binaries", 1)[1].split("End", 1)[0]
            .replace("Generals", " ").split()
        )
        groups = {"x_": 0, "y_": 0, "m_": 0, "C_": 0, "S_": 0}
        for name in declared:
            groups[name[:2]] += 1
        assert groups == {
            "x_": n * n, "y_": n, "m_": n * (n + 1), "C_": n, "S_": n + 1,
        }
        assert text.count("budget:") == 1

        removable = rng.sample(range(n), k)
        removed = set(removable[: rng.randint(0, k)])
        objective = verify_ilp_solution(g, k, w, honest_assignment(g, removed))
        expected = sigma(remove_nodes(g, removed), w).raw
        assert objective == pytest.approx(expected, rel=1e-12, abs=1e-12)
