from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    disjoint_paths,
    graphs,
    path_graph,
    random_graph,
)
from netstrength.graph import EmptyGraphError, Graph, components
from netstrength.metrics import (
    EXTENSION_CLAMP,
    WeightCoverageError,
    WeightVector,
    cole1,
    cole2,
    gfp_score,
    load_weights,
    score,
    sigma,
    weights_csv,
)
from netstrength.weights import default_weights


def all_ones(n: int) -> WeightVector:
    return WeightVector([1.0] * n)


def permuted(g: Graph, rng: random.Random) -> Graph:
    mapping = list(range(g.n))
    rng.shuffle(mapping)
    edges = [(mapping[u], mapping[v]) for u, v in g.edges]
    return Graph.build(g.n, edges)


class TestWeightVector:
    def test_needs_an_entry(self):
        with pytest.raises(ValueError):
            WeightVector(())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            WeightVector((1.0, math.inf))

    def test_error_policy_raises_beyond_length(self):
        w = WeightVector((0.5, 0.7))
        assert w.value(2) == 0.7
        with pytest.raises(WeightCoverageError):
            w.value(3)

    def test_clamp_policy_reuses_last(self):
        w = WeightVector((0.5, 0.7), EXTENSION_CLAMP)
        assert w.value(9) == 0.7

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            WeightVector((1.0,), "wrap")

    def test_csv_round_trip(self, tmp_path):
        w = WeightVector((0.2221, 1.2271, 0.691, 1 / 3))
        path = tmp_path / "w.csv"
        path.write_text(weights_csv(w))
        again = load_weights(path)
        assert again.weights == w.weights
        first = path.read_text()
        path.write_text(weights_csv(again))
        assert path.read_text() == first

    def test_numpy_weights_round_trip(self, tmp_path):
        # numpy 2 writes repr(np.float64(0.5)) as "np.float64(0.5)", which
        # the loader rejects; the file must hold plain decimals
        w = WeightVector(tuple(np.array([0.5, 0.25, 1 / 3])))
        path = tmp_path / "w.csv"
        path.write_text(weights_csv(w))
        assert path.read_text() == (
            "size,weight\n1,0.5\n2,0.25\n3,0.3333333333333333\n"
        )
        assert load_weights(path).weights == w.weights

    def test_numpy_array_is_stored_as_floats(self):
        w = WeightVector(np.array([0.5, 0.25, 1 / 3]))
        assert w == WeightVector((0.5, 0.25, 1 / 3))
        assert all(type(v) is float for v in w.weights)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_low_precision_weights_round_trip(self, tmp_path, dtype):
        # the vector holds the float value of each entry, so the file gives
        # back what it scored with, not the float64 parse of "0.1"
        w = WeightVector(np.array([0.1, 0.3, 1 / 3], dtype=dtype))
        path = tmp_path / "w.csv"
        path.write_text(weights_csv(w))
        again = load_weights(path)
        assert again.weights == tuple(float(v) for v in w.weights)
        sizes = (1, 2, 3, 3)
        assert score(sizes, "proposed", again) == score(sizes, "proposed", w)

    def test_score_is_a_float_for_numpy_weights(self):
        w = WeightVector(np.array([0.5, 0.1], dtype=np.float32))
        value = score((1, 2, 2), "proposed", w)
        assert type(value) is float
        assert value == 0.5 + 2 * float(np.float32(0.1)) * 2

    def test_csv_rejects_gaps(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("size,weight\n1,0.5\n3,0.7\n")
        with pytest.raises(ValueError, match="contiguous"):
            load_weights(path)

    def test_overflow_bound_reads_sizes_one_to_n(self):
        """``2 * n * max|w_s|`` over s <= n must be finite."""
        w = WeightVector((1e307, -1e307, 1e308))
        w.check_overflow(2)  # 2 * 2 * 1e307 is finite
        with pytest.raises(ValueError, match=r"^weights for sizes 1\.\.3 "
                           r"could overflow a float in the strength of a "
                           r"3-node graph$"):
            w.check_overflow(3)
        with pytest.raises(ValueError, match="could overflow"):
            WeightVector((1e308,), EXTENSION_CLAMP).check_overflow(1)


class TestSigma:
    def test_connected_uses_weight_of_n(self):
        g = path_graph(5)
        value = sigma(g, default_weights())
        assert value.raw == pytest.approx(2.7690, abs=1e-12)
        assert value.normalized == pytest.approx(0.5538, abs=1e-12)

    def test_isolated_nodes_use_singleton_weight(self):
        g = Graph.build(7, [])
        value = sigma(g, default_weights())
        assert value.raw == pytest.approx(7 * 0.2221, rel=1e-12)

    def test_oversize_component_respects_policy(self):
        g = path_graph(31)
        with pytest.raises(WeightCoverageError):
            sigma(g, default_weights())
        clamped = sigma(g, default_weights().with_policy(EXTENSION_CLAMP))
        assert clamped.raw == pytest.approx(31 * 0.9093, rel=1e-12)

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            sigma(Graph.build(0), default_weights())

    @given(graphs(max_n=12))
    def test_all_ones_weights_give_node_count(self, g: Graph):
        assert sigma(g, all_ones(max(g.n, 1))).raw == g.n

    def test_connected_identity_matches_formula(self):
        rng = random.Random(7)
        w = default_weights()
        for _ in range(30):
            n = rng.randint(2, 30)
            g = complete_graph(n)
            assert sigma(g, w).raw == n * w.value(n)


class TestBaselines:
    def test_cole1_examples(self):
        assert cole1(path_graph(20)).raw == 20
        assert cole1(Graph.build(20, [])).raw == 1
        g = Graph.build(5, [(0, 1), (1, 2)])
        assert cole1(g).raw == pytest.approx(5 / 3)

    def test_cole2_examples(self):
        assert cole2(path_graph(20)).raw == 20
        assert cole2(disjoint_paths([4, 2])).raw == 4

    def test_gfp_examples(self):
        assert gfp_score(path_graph(6)).raw == pytest.approx(6.0)
        assert gfp_score(disjoint_paths([4, 2])).raw == pytest.approx(20 / 6)
        assert gfp_score(Graph.build(9, [])).raw == pytest.approx(1.0)

    def test_cole2_matches_decomposition_max(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 25), rng.uniform(0, 0.4))
            assert cole2(g).raw == max(components(g))

    @given(graphs(min_n=1, max_n=14))
    def test_bounds_and_extremes(self, g: Graph):
        connected = len(components(g)) == 1
        edgeless = g.edge_count == 0
        for value in (cole1(g), cole2(g), gfp_score(g)):
            assert 1 <= value.raw <= g.n
            assert (value.raw == g.n) == connected
            assert (value.raw == 1) == (edgeless or g.n == 1)

    @given(graphs(min_n=1, max_n=14))
    def test_gfp_dominates_largest_component_square(self, g: Graph):
        assert gfp_score(g).raw >= cole2(g).raw ** 2 / g.n - 1e-12

    @given(graphs(min_n=1, max_n=12), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, g: Graph, rng):
        h = permuted(g, rng)
        w = all_ones(g.n) if g.n else all_ones(1)
        assert sigma(h, w).raw == sigma(g, w).raw
        assert cole1(h).raw == cole1(g).raw
        assert cole2(h).raw == cole2(g).raw
        assert gfp_score(h).raw == gfp_score(g).raw


class TestScore:
    def test_proposed_connected(self):
        w = default_weights()
        assert score((5,), "proposed", w) == 5 * w.value(5)

    def test_gfp_example(self):
        assert score((2, 1), "gfp") == 5 / 3

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown metric id"):
            score((3,), "degree")

    def test_proposed_needs_weights(self):
        with pytest.raises(ValueError, match="weight vector"):
            score((3,), "proposed")

    @pytest.mark.parametrize("sizes", [(1, 1), (1, 1, 2, 2)])
    def test_proposed_overflow_is_refused(self, sizes):
        # each weight is finite; the sums are inf, and inf + -inf = NaN
        w = WeightVector((1e308, -1e308), EXTENSION_CLAMP)
        with pytest.raises(ValueError, match="not finite"):
            score(sizes, "proposed", w)

    @pytest.mark.parametrize("metric_id", ["cole1", "cole2", "gfp"])
    def test_no_components_is_an_empty_graph(self, metric_id):
        with pytest.raises(EmptyGraphError):
            score((), metric_id)
