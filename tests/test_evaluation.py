from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import disjoint_paths, path_graph
from netstrength.datasets import bundled_eval_path
from netstrength.evaluation import (
    RankedGroundTruth,
    compare_suite,
    load_predictions_csv,
    load_ranked_gt_csv,
    load_strength_gt_csv,
    load_strength_values_csv,
    match_stats,
    rmse,
)
from netstrength.graph import EmptyGraphError, Graph
from netstrength.metrics import WeightCoverageError, WeightVector

# Reference aggregate statistics for the bundled survey-table fixtures.
SINGLE_NODE_EXPECTED = {
    "proposed": (0.75, 1.25),
    "cole1": (0.5, 1.625),
    "cole2": (0.375, 1.75),
    "gfp": (0.375, 1.75),
}
PAIR_EXPECTED = {
    "proposed": (0.375, 1.75),
    "cole1": (0.25, None),
    "cole2": (0.25, None),
    "gfp": (0.25, None),
}


class TestRmse:
    def test_identical_vectors(self):
        assert rmse([0.1, 0.9, 0.4], [0.1, 0.9, 0.4]) == 0.0

    def test_hand_computed(self):
        assert rmse([0.5, 0.5], [0.3, 0.7]) == pytest.approx(0.2)

    def test_single_extreme_pair(self):
        assert rmse([0.0], [1.0]) == 1.0

    def test_symmetry(self):
        a, b = [0.2, 0.8, 0.5], [0.9, 0.1, 0.4]
        assert rmse(a, b) == rmse(b, a)

    def test_zero_iff_equal(self):
        assert rmse([0.3, 0.3], [0.3, 0.30001]) > 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            rmse([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])


class TestRankedGroundTruth:
    def test_rank_lookup_is_set_based(self):
        truth = RankedGroundTruth(
            candidates=(frozenset({"2", "11"}), frozenset({"2", "4"}))
        )
        assert truth.rank_of(frozenset({"11", "2"})) == 1
        assert truth.rank_of(frozenset({"4", "2"})) == 2
        assert truth.rank_of(frozenset({"9"})) is None

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            RankedGroundTruth(
                candidates=(frozenset({"1", "2"}), frozenset({"2", "1"}))
            )

    def test_vote_share_arity_checked(self):
        with pytest.raises(ValueError, match="one vote share"):
            RankedGroundTruth(
                candidates=(frozenset({"1"}),), vote_shares=(40.0, 10.0)
            )

    def test_vote_shares_capped(self):
        with pytest.raises(ValueError, match="at most 100"):
            RankedGroundTruth(
                candidates=(frozenset({"1"}),), vote_shares=(140.0,)
            )

    def test_negative_vote_share_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RankedGroundTruth(
                candidates=(frozenset({"a"}), frozenset({"b"})),
                vote_shares=(150.0, -60.0),
            )

    def test_nan_vote_share_rejected(self):
        # NaN passes both a < 0 test and the sum cap, and would score NaN
        with pytest.raises(ValueError, match=r"non-negative, got \[nan\]"):
            RankedGroundTruth(
                candidates=(frozenset({"a"}),), vote_shares=(float("nan"),)
            )


class TestMatchStats:
    @pytest.mark.parametrize("metric", sorted(SINGLE_NODE_EXPECTED))
    def test_single_node_tables(self, metric):
        preds = load_predictions_csv(
            bundled_eval_path(f"single_pred_{metric}.csv")
        )
        gt = load_ranked_gt_csv(bundled_eval_path("single_gt.csv"))
        report = match_stats(preds, gt)
        exact, rank = SINGLE_NODE_EXPECTED[metric]
        assert report.exact_match == exact
        assert report.rank_match == rank
        assert report.percentage_match is None  # bundled fixtures carry no vote shares

    @pytest.mark.parametrize("metric", sorted(PAIR_EXPECTED))
    def test_pair_tables(self, metric):
        preds = load_predictions_csv(
            bundled_eval_path(f"pairs_pred_{metric}.csv")
        )
        gt = load_ranked_gt_csv(bundled_eval_path("pairs_gt.csv"))
        report = match_stats(preds, gt)
        exact, rank = PAIR_EXPECTED[metric]
        assert report.exact_match == exact
        assert report.rank_match == rank
        if rank is None:
            absent = [d.graph_id for d in report.details if d.rank is None]
            assert absent  # at least one prediction got no votes

    def test_pair_order_is_ignored(self):
        gt = {"g": RankedGroundTruth(candidates=(frozenset({"a", "b"}),))}
        report = match_stats({"g": ["b", "a"]}, gt)
        assert report.exact_match == 1.0

    def test_string_prediction_rejected(self):
        # a str is a Sequence[str]: "ab" would read as the set {a, b}
        gt = {"g": RankedGroundTruth(candidates=(frozenset({"a", "b"}),))}
        with pytest.raises(ValueError, match="graph 'g' is a str"):
            match_stats({"g": "ab"}, gt)

    def test_missing_ground_truth(self):
        with pytest.raises(ValueError, match="no ground truth"):
            match_stats(
                {"mystery": {"1"}},
                {"other": RankedGroundTruth(candidates=(frozenset({"1"}),))},
            )

    def test_vote_shares_feed_percentage_match(self):
        gt = {
            "a": RankedGroundTruth(
                candidates=(frozenset({"1"}), frozenset({"2"})),
                vote_shares=(60.0, 30.0),
            ),
            "b": RankedGroundTruth(
                candidates=(frozenset({"5"}),), vote_shares=(80.0,)
            ),
        }
        report = match_stats({"a": {"2"}, "b": {"9"}}, gt)
        assert report.percentage_match == pytest.approx((30.0 + 0.0) / 2)
        assert report.rank_match is None  # "9" is absent for graph b

    def test_detail_and_summary_csv(self):
        gt = {"a": RankedGroundTruth(candidates=(frozenset({"1"}),))}
        report = match_stats({"a": {"1"}}, gt)
        detail = report.detail_csv()
        assert detail.splitlines()[0] == (
            "graph_id,prediction,rank,vote_share,hit"
        )
        assert "a,1,1,-,1" in detail
        summary = report.summary_csv()
        assert "exact_match,1.0" in summary
        assert "percentage_match,-" in summary
        table = report.format_table()
        assert "exact match" in table

    def test_numpy_values_written_as_plain_decimals(self):
        gt = {"a": RankedGroundTruth(
            candidates=(frozenset({"1"}), frozenset({"2"})),
            vote_shares=tuple(np.array([60.0, 30.0])),
        )}
        report = match_stats({"a": {"2"}}, gt)
        assert report.detail_csv() == (
            "graph_id,prediction,rank,vote_share,hit\na,2,2,30.0,0\n"
        )
        assert report.summary_csv() == (
            "statistic,value\nexact_match,0.0\nrank_match,2.0\n"
            "percentage_match,30.0\n"
        )

    def test_empty_predictions_rejected(self):
        with pytest.raises(ValueError, match="no predictions"):
            match_stats({}, {})

    @given(
        st.dictionaries(
            st.text(st.characters(categories=("Lu",)), min_size=1,
                    max_size=4),
            st.tuples(
                st.lists(st.sets(st.sampled_from("abcdef"), min_size=1),
                         min_size=1, max_size=4, unique_by=frozenset),
                st.sets(st.sampled_from("abcdef"), min_size=1, max_size=2),
            ),
            min_size=1, max_size=6,
        )
    )
    def test_aggregate_ranges(self, scenario):
        gt = {}
        preds = {}
        for graph_id, (candidate_sets, prediction) in scenario.items():
            gt[graph_id] = RankedGroundTruth(
                candidates=tuple(frozenset(c) for c in candidate_sets)
            )
            preds[graph_id] = frozenset(prediction)
        report = match_stats(preds, gt)
        assert 0.0 <= report.exact_match <= 1.0
        assert len(report.details) == len(preds)
        if report.rank_match is not None:
            assert report.rank_match >= 1.0


class TestCompareSuite:
    def test_connected_graph_columns(self):
        graphs = [("g1", path_graph(20))]
        result = compare_suite(
            graphs, {"g1": 18.0}, metrics=("cole1", "cole2", "gfp")
        )
        (graph_id, n, gt_norm, cole1_norm, cole2_norm, gfp_norm) = (
            result.rows[0]
        )
        assert (graph_id, n) == ("g1", 20)
        assert gt_norm == pytest.approx(0.9)
        assert cole2_norm == 1.0
        assert cole1_norm == 1.0
        assert gfp_norm == 1.0

    def test_edgeless_graph_columns(self):
        graphs = [("iso", Graph.build(4, []))]
        result = compare_suite(
            graphs, {"iso": 1.0}, metrics=("cole1", "cole2", "gfp")
        )
        _, _, _, cole1_norm, cole2_norm, gfp_norm = result.rows[0]
        assert cole1_norm == cole2_norm == gfp_norm == 0.25

    def test_perfect_agreement_gives_zero_rmse(self):
        # gfp on these graphs equals the chosen means exactly
        graphs = [
            ("a", path_graph(4)),
            ("b", disjoint_paths([2, 2])),
        ]
        gt = {"a": 4.0, "b": 2.0}
        result = compare_suite(graphs, gt, metrics=("gfp",))
        assert result.rmse_by_metric["gfp"] == 0.0

    def test_proposed_needs_weights(self):
        with pytest.raises(ValueError, match="weight vector"):
            compare_suite([("a", path_graph(3))], {"a": 2.0},
                          metrics=("proposed",))

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            compare_suite([("e", Graph.build(0))], {"e": 1.0}, metrics=("gfp",))

    def test_missing_ground_truth(self):
        with pytest.raises(ValueError, match="no ground-truth"):
            compare_suite([("a", path_graph(3))], {}, metrics=("cole1",))

    @pytest.mark.parametrize("mean", [99.0, 0.0, -3.0])
    def test_mean_outside_one_to_n_rejected(self, mean):
        with pytest.raises(ValueError) as excinfo:
            compare_suite([("g", path_graph(3))], {"g": mean},
                          metrics=("cole1",))
        assert str(excinfo.value) == (
            f"mean_estimate {mean} for graph 'g' is outside [1, 3]"
        )

    def test_uncovered_size_names_the_graph(self):
        graphs = [("a", path_graph(2)), ("b", path_graph(3))]
        w = WeightVector([1.0, 1.0])
        with pytest.raises(WeightCoverageError) as excinfo:
            compare_suite(graphs, {"a": 2.0, "b": 3.0}, weights=w)
        assert str(excinfo.value).startswith("graph 'b': component size 3 ")

    def test_numpy_values_written_as_plain_decimals(self):
        graphs = [("a", path_graph(2)), ("b", disjoint_paths([1, 1]))]
        w = WeightVector(tuple(np.array([0.5, 1.0])))
        gt = {"a": np.float64(1.5), "b": np.float64(1.5)}
        result = compare_suite(graphs, gt, ("proposed", "cole2"), w)
        assert result.to_csv() == (
            "graph_id,n,gt_norm,proposed_norm,cole2_norm\n"
            "a,2,0.75,1.0,1.0\n"
            "b,2,0.75,0.5,0.5\n"
            "rmse:proposed,,,0.25,\n"
            "rmse:cole2,,,,0.25\n"
        )

    def test_csv_shape(self):
        graphs = [("a", path_graph(3))]
        w = WeightVector([1.0, 1.0, 1.0])
        result = compare_suite(graphs, {"a": 2.0}, weights=w)
        lines = result.to_csv().splitlines()
        assert lines[0] == (
            "graph_id,n,gt_norm,proposed_norm,cole1_norm,cole2_norm,gfp_norm"
        )
        assert len(lines) == 1 + 1 + 4  # header, one graph, 4 rmse rows
        rmse_lines = [line for line in lines if line.startswith("rmse:")]
        assert [line.split(",")[0] for line in rmse_lines] == [
            "rmse:proposed", "rmse:cole1", "rmse:cole2", "rmse:gfp"
        ]


class TestLoaders:
    def test_ranked_gt_requires_contiguous_ranks(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text(
            "graph_id,rank,members,vote_share\ng,1,1,\ng,3,2,\n"
        )
        with pytest.raises(ValueError, match="contiguous"):
            load_ranked_gt_csv(path)

    def test_ranked_gt_rejects_partial_shares(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text(
            "graph_id,rank,members,vote_share\ng,1,1,60\ng,2,2,\n"
        )
        with pytest.raises(ValueError, match="mixes"):
            load_ranked_gt_csv(path)

    def test_ranked_gt_with_shares(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text(
            "graph_id,rank,members,vote_share\ng,1,1;2,55.5\ng,2,3,20\n"
        )
        gt = load_ranked_gt_csv(path)
        assert gt["g"].vote_shares == (55.5, 20.0)
        assert gt["g"].candidates[0] == frozenset({"1", "2"})

    def test_ranked_gt_rejects_negative_share_at_its_line(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text(
            "graph_id,rank,members,vote_share\ng1,1,a,150\ng1,2,b,-60\n"
        )
        with pytest.raises(ValueError) as info:
            load_ranked_gt_csv(path)
        assert str(info.value) == (
            f"{path}:3: vote_share must be non-negative, got '-60'"
        )

    @pytest.mark.parametrize("rows, message", [
        ("g1,1,a,80\ng1,2,b,40\n", "vote shares must sum to at most 100"),
        ("g1,1,a;b,\ng1,2,b;a,\n",
         "candidates must be distinct as unordered sets"),
    ], ids=["share-sum", "repeated-candidate"])
    def test_ranked_gt_errors_name_file_and_graph(self, tmp_path, rows,
                                                  message):
        path = tmp_path / "gt.csv"
        path.write_text("graph_id,rank,members,vote_share\n" + rows)
        with pytest.raises(ValueError) as info:
            load_ranked_gt_csv(path)
        assert str(info.value) == f"{path}: graph 'g1': {message}"

    def test_predictions_duplicate_rejected(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("graph_id,members\ng,1\ng,2\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_predictions_csv(path)

    def test_predictions_duplicate_names_file_and_line(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("graph_id,members\ng,1\nh,2\ng,2\n")
        with pytest.raises(ValueError) as info:
            load_predictions_csv(path)
        assert str(info.value) == f"{path}:4: duplicate graph_id 'g'"

    def test_strength_loaders(self, tmp_path):
        gt_path = tmp_path / "gt.csv"
        gt_path.write_text("graph_id,mean_estimate\ng,3.5\n")
        assert load_strength_gt_csv(gt_path) == {"g": 3.5}
        value_path = tmp_path / "pred.csv"
        value_path.write_text("graph_id,value\ng,0.7\n")
        assert load_strength_values_csv(value_path) == {"g": 0.7}

    @pytest.mark.parametrize("loader, text", [
        (load_ranked_gt_csv, "graph_id,rank,members,vote_share\ng0,1,1,\ng1,1\n"),
        (load_predictions_csv, "graph_id,members\ng0,1\ng1\n"),
        (load_strength_values_csv, "graph_id,value\ng0,0.5\ng1\n"),
    ])
    def test_short_row_names_file_and_line(self, tmp_path, loader, text):
        path = tmp_path / "short.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"{path}:3: "):
            loader(path)

    @pytest.mark.parametrize("loader, column", [
        (load_strength_values_csv, "value"),
        (load_strength_gt_csv, "mean_estimate"),
    ])
    def test_strength_loaders_reject_duplicates(self, tmp_path, loader, column):
        path = tmp_path / "dup.csv"
        path.write_text(f"graph_id,{column}\na,0.25\na,0.5\n")
        with pytest.raises(ValueError, match=f"{path}:3: duplicate"):
            loader(path)

    @pytest.mark.parametrize("loader, column", [
        (load_strength_values_csv, "value"),
        (load_strength_gt_csv, "mean_estimate"),
    ])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "abc"])
    def test_strength_loaders_reject_non_finite(
        self, tmp_path, loader, column, bad
    ):
        path = tmp_path / "bad.csv"
        path.write_text(f"graph_id,{column}\na,0.5\nb,{bad}\n")
        with pytest.raises(ValueError, match=f"{path}:3: {column} must be"):
            loader(path)

    def test_missing_columns_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,members\ng,1\n")
        with pytest.raises(ValueError, match="graph_id"):
            load_predictions_csv(path)
