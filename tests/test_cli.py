from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env, disjoint_paths, path_graph
from netstrength import cli, datasets, metrics
from netstrength.cli import main
from netstrength.datasets import (
    GeneratorSpec,
    bundled_eval_path,
    generate,
    load_edge_list,
    save_edge_list,
)
from netstrength.graph import Graph, components
from netstrength.ilp import emit_ilp
from netstrength.metrics import EXTENSION_CLAMP, WeightVector, sigma
from netstrength.weights import default_weights


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


class TestGen:
    def test_writes_files_and_manifest(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "gen", "--model", "gnp", "--n", "10", "--p", "0.2",
            "--count", "5", "--seed", "7", "--out", str(tmp_path),
        )
        assert code == 0
        assert out == ""  # no machine output on stdout; files only
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [f"graph_{i}.edges" for i in range(5)] + [
            "graph_manifest.json"
        ]

    def test_repeat_invocations_byte_identical(self, capsys, tmp_path):
        for sub in ("a", "b"):
            code, _, _ = run_cli(
                capsys, "gen", "--model", "gnm", "--n", "8", "--m", "5",
                "--count", "3", "--seed", "42", "--out", str(tmp_path / sub),
            )
            assert code == 0
        for name in ("graph_0.edges", "graph_manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    @pytest.mark.parametrize("stem", ["../x", "{tmp}/x"],
                             ids=["relative", "absolute"])
    def test_stem_must_be_one_path_component(self, capsys, tmp_path, stem):
        stem = stem.format(tmp=tmp_path)
        code, out, err = run_cli(
            capsys, "gen", "--model", "gnp", "--n", "5", "--p", "0.5",
            "--seed", "1", "--out", str(tmp_path / "g"), "--stem", stem,
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: graph id '{stem}_0' is not one path component\n"
        )
        # no edge list, no manifest and no --out directory
        assert list(tmp_path.iterdir()) == []

    def test_impossible_edge_count(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "gen", "--model", "gnm", "--n", "5", "--m", "100",
            "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 1
        assert out == ""
        assert "error:" in err


class TestStrength:
    def test_connected_graph_default_weights(self, capsys, tmp_path):
        target = tmp_path / "g.edges"
        save_edge_list(path_graph(20), target)
        code, out, _ = run_cli(capsys, "strength", str(target))
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["metric"] == "proposed"
        assert float(rows[0]["raw"]) == pytest.approx(20 * 0.8923)
        assert float(rows[0]["normalized"]) == pytest.approx(0.8923)

    def test_all_metrics_on_edgeless_graph(self, capsys, tmp_path):
        target = tmp_path / "iso.edges"
        save_edge_list(Graph.build(4, []), target)
        code, out, _ = run_cli(
            capsys, "strength", str(target), "--all-metrics"
        )
        assert code == 0
        by_metric = {row["metric"]: row for row in parse_csv(out)}
        assert set(by_metric) == {"proposed", "cole1", "cole2", "gfp"}
        assert float(by_metric["cole2"]["raw"]) == 1.0

    def test_all_metrics_share_one_bfs(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "g.edges"
        save_edge_list(path_graph(5), target)
        calls = []

        def counted(*args):
            calls.append(args)
            return components(*args)

        monkeypatch.setattr(cli, "components", counted, raising=False)
        monkeypatch.setattr(metrics, "components", counted)
        code, out, _ = run_cli(
            capsys, "strength", str(target), "--all-metrics"
        )
        assert code == 0
        assert len(parse_csv(out)) == 4
        assert len(calls) == 1

    def test_empty_graph_writes_no_rows(self, capsys, tmp_path):
        target = tmp_path / "empty.edges"
        save_edge_list(Graph.build(0), target)
        code, out, err = run_cli(
            capsys, "strength", str(target), "--all-metrics"
        )
        assert (code, out) == (1, "")
        assert err == "error: strength is undefined for an empty graph\n"

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "strength", str(tmp_path / "absent.edges")
        )
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_oversize_needs_clamp_flag(self, capsys, tmp_path):
        target = tmp_path / "big.edges"
        save_edge_list(path_graph(31), target)
        code, _, err = run_cli(capsys, "strength", str(target))
        assert code == 1
        assert "31" in err
        code, out, _ = run_cli(
            capsys, "strength", str(target), "--clamp-weights"
        )
        assert code == 0
        assert float(parse_csv(out)[0]["raw"]) == pytest.approx(31 * 0.9093)

    def test_diagnostics_stay_off_stdout(self, capsys, tmp_path):
        target = tmp_path / "dup.edges"
        target.write_text("0 1\n0 1\n1 2\n")
        code, out, err = run_cli(
            capsys, "strength", str(target), "--metrics", "cole2"
        )
        assert code == 0
        assert "duplicate" in err
        assert parse_csv(out)[0]["metric"] == "cole2"

    @pytest.mark.parametrize("rows", ["x,0.5", "1,nan", "1,heavy"])
    def test_bad_weight_cell_names_line(self, capsys, tmp_path, rows):
        target = tmp_path / "g.edges"
        save_edge_list(path_graph(3), target)
        weights = tmp_path / "w.csv"
        weights.write_text(f"size,weight\n{rows}\n")
        code, out, err = run_cli(
            capsys, "strength", str(target), "--weights", str(weights)
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {weights}:2: ")
        assert "Traceback" not in err

    def test_failure_writes_no_rows(self, capsys, tmp_path):
        target = tmp_path / "p31.edges"
        save_edge_list(path_graph(31), target)
        code, out, err = run_cli(
            capsys, "strength", str(target), "--metrics", "cole1,proposed"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: component size 31 exceeds")

    def test_unknown_metric_rejected_by_parser(self, capsys, tmp_path):
        target = tmp_path / "g.edges"
        save_edge_list(path_graph(3), target)
        with pytest.raises(SystemExit) as excinfo:
            main(["strength", str(target), "--metrics", "degree"])
        assert excinfo.value.code == 2
        assert "unknown metric" in capsys.readouterr().err

    def test_repeated_metric_rejected_by_parser(self, capsys, tmp_path):
        target = tmp_path / "g.edges"
        save_edge_list(path_graph(3), target)
        with pytest.raises(SystemExit) as excinfo:
            main(["strength", str(target), "--metrics", "cole2,cole2"])
        assert excinfo.value.code == 2
        assert "metric 'cole2' given twice" in capsys.readouterr().err


class TestFitWeights:
    def write_suite(self, tmp_path):
        generating = [1.0, 0.72, 0.88, 0.61, 0.94, 0.57]
        w_star = WeightVector(generating)
        suite = {
            "iso": Graph.build(3, []),
            "p2": path_graph(2),
            "p3": path_graph(3),
            "p4": path_graph(4),
            "p5": path_graph(5),
            "p6": path_graph(6),
            "mix23": disjoint_paths([2, 3]),
            "mix14": disjoint_paths([1, 4]),
        }
        graph_dir = tmp_path / "graphs"
        graph_dir.mkdir()
        lines = ["graph_id,participant_id,estimate"]
        for graph_id, graph in suite.items():
            save_edge_list(graph, graph_dir / f"{graph_id}.edges")
            lines.append(f"{graph_id},p1,{sigma(graph, w_star).raw!r}")
        survey = tmp_path / "survey.csv"
        survey.write_text("\n".join(lines) + "\n")
        return survey, graph_dir, generating

    def test_round_trip_recovery(self, capsys, tmp_path):
        survey, graph_dir, generating = self.write_suite(tmp_path)
        out_weights = tmp_path / "fit.csv"
        report = tmp_path / "report.jsonl"
        code, out, _ = run_cli(
            capsys, "fit-weights", "--survey", str(survey),
            "--graphs", str(graph_dir), "--out-weights", str(out_weights),
            "--report", str(report),
        )
        assert code == 0
        assert out == ""
        fitted = [float(row["weight"]) for row in
                  parse_csv(out_weights.read_text())]
        assert fitted == pytest.approx(generating, abs=1e-6)
        record = json.loads(report.read_text())
        assert record["rank"] == 6
        assert record["lambda"] == 0.0
        assert record["residual_norm"] < 1e-9

    def test_weights_to_stdout_by_default(self, capsys, tmp_path):
        survey, graph_dir, generating = self.write_suite(tmp_path)
        code, out, _ = run_cli(
            capsys, "fit-weights", "--survey", str(survey),
            "--graphs", str(graph_dir),
        )
        assert code == 0
        rows = parse_csv(out)
        assert [row["size"] for row in rows] == ["1", "2", "3", "4", "5", "6"]

    def test_huge_ridge_shrinks_weights(self, capsys, tmp_path):
        survey, graph_dir, _ = self.write_suite(tmp_path)
        code, out, _ = run_cli(
            capsys, "fit-weights", "--survey", str(survey),
            "--graphs", str(graph_dir), "--lambda", "1e9",
        )
        assert code == 0
        for row in parse_csv(out):
            assert abs(float(row["weight"])) < 1e-3

    def test_empty_survey(self, capsys, tmp_path):
        _, graph_dir, _ = self.write_suite(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("graph_id,participant_id,estimate\n")
        code, _, err = run_cli(
            capsys, "fit-weights", "--survey", str(empty),
            "--graphs", str(graph_dir),
        )
        assert code == 1
        assert "no records" in err


    def test_non_numeric_estimate_names_line(self, capsys, tmp_path):
        survey, graph_dir, _ = self.write_suite(tmp_path)
        survey.write_text(survey.read_text() + "p2,p2,high\n")
        code, out, err = run_cli(
            capsys, "fit-weights", "--survey", str(survey),
            "--graphs", str(graph_dir),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {survey}:10: estimate must be")
        assert "Traceback" not in err


    def test_out_of_range_estimate_names_line(self, capsys, tmp_path):
        survey, graph_dir, _ = self.write_suite(tmp_path)
        survey.write_text(survey.read_text() + "p3,p2,9\n")
        code, out, err = run_cli(
            capsys, "fit-weights", "--survey", str(survey),
            "--graphs", str(graph_dir),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {survey}:10: estimate 9.0 for graph")
        assert "outside [1, 3]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("ridge", ["nan", "inf"])
    def test_non_finite_lambda_rejected(self, capfd, tmp_path, ridge):
        survey, graph_dir, _ = self.write_suite(tmp_path)
        code, out, err = run_cli(
            capfd, "fit-weights", "--survey", str(survey),
            "--graphs", str(graph_dir), "--lambda", ridge,
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: ridge parameter must be a finite number >= 0, got {ridge}\n"
        )

    @pytest.mark.parametrize("ridge", ["nan", "-1"])
    def test_lambda_is_checked_before_any_input_is_read(self, capfd,
                                                        tmp_path, ridge):
        # the survey names an edge list that is not there: the ridge error
        # comes first, so neither file was read
        survey = tmp_path / "survey.csv"
        survey.write_text("graph_id,participant_id,estimate\nnope,p1,1\n")
        code, out, err = run_cli(
            capfd, "fit-weights", "--survey", str(survey),
            "--graphs", str(tmp_path), "--lambda", ridge,
        )
        assert (code, out) == (1, "")
        assert err == ("error: ridge parameter must be a finite number >= 0, "
                       f"got {float(ridge)}\n")

    def test_stdout_weights_match_saved_file(self, capsys, tmp_path):
        survey, graph_dir, _ = self.write_suite(tmp_path)
        saved = tmp_path / "fit.csv"
        code, stdout_weights, _ = run_cli(
            capsys, "fit-weights", "--survey", str(survey),
            "--graphs", str(graph_dir), "--lambda", "0.1",
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "fit-weights", "--survey", str(survey),
            "--graphs", str(graph_dir), "--lambda", "0.1",
            "--out-weights", str(saved),
        )
        assert code == 0
        assert stdout_weights.encode("utf-8") == saved.read_bytes()


class TestDismantle:
    def test_result_json_uses_labels(self, capsys, tmp_path):
        target = tmp_path / "g.edges"
        target.write_text("alice bob\nbob eve\n")
        code, out, _ = run_cli(
            capsys, "dismantle", str(target), "--k", "1",
            "--objective", "cole1",
        )
        assert code == 0
        result = json.loads(out)
        assert result["removed"] == ["bob"]
        assert result["objective"] == "cole1"
        assert result["k"] == 1

    def test_emit_lp_writes_model(self, capsys, tmp_path):
        target = tmp_path / "g.edges"
        save_edge_list(path_graph(3), target)
        lp_path = tmp_path / "model.lp"
        code, out, _ = run_cli(
            capsys, "dismantle", str(target), "--k", "1",
            "--emit-lp", str(lp_path),
        )
        assert code == 0
        json.loads(out)
        text = lp_path.read_text()
        binaries = text.split("Binaries", 1)[1].split("Generals", 1)[0]
        assert sorted(
            v for v in binaries.split() if v.startswith("y_")
        ) == ["y_1", "y_2", "y_3"]

    def test_emit_lp_file_is_the_emitted_text(self, capsys, tmp_path):
        # 31 nodes: wrapped rows, and weights clamped past size 30
        target = tmp_path / "g.edges"
        save_edge_list(generate(GeneratorSpec(model="gnm", n=31, m=40,
                                              seed=4))[0], target)
        lp_path = tmp_path / "model.lp"
        code, _, _ = run_cli(
            capsys, "dismantle", str(target), "--k", "2", "--objective",
            "cole2", "--clamp-weights", "--emit-lp", str(lp_path),
        )
        assert code == 0
        expected = emit_ilp(load_edge_list(target), 2,
                            default_weights().with_policy(EXTENSION_CLAMP))
        assert lp_path.read_bytes() == expected.encode("utf-8")

    def test_uncovered_emit_lp_fails_before_the_search(
        self, capsys, tmp_path, monkeypatch
    ):
        def no_search(query):
            raise AssertionError("the search ran")

        monkeypatch.setattr("netstrength.dismantle.best_removal", no_search)
        target = tmp_path / "g.edges"
        save_edge_list(path_graph(5), target)
        weights_path = tmp_path / "w.csv"
        weights_path.write_text(
            metrics.weights_csv(WeightVector([0.5, 0.7, 0.9])))
        lp_path = tmp_path / "model.lp"
        code, out, err = run_cli(
            capsys, "dismantle", str(target), "--k", "2", "--objective",
            "cole2", "--weights", str(weights_path), "--emit-lp", str(lp_path),
        )
        assert (code, out) == (1, "")
        assert err == ("error: --emit-lp needs weights for sizes 1..5, got 3; "
                       "pass --clamp-weights\n")
        assert not lp_path.exists()

    def test_overflowing_emit_lp_weights_fail_before_the_search(
        self, capsys, tmp_path, monkeypatch
    ):
        def no_search(query):
            raise AssertionError("the search ran")

        monkeypatch.setattr("netstrength.dismantle.best_removal", no_search)
        target = tmp_path / "g.edges"
        save_edge_list(path_graph(5), target)
        weights_path = tmp_path / "w.csv"
        weights_path.write_text(
            metrics.weights_csv(WeightVector([1.0, 1e308])))
        lp_path = tmp_path / "model.lp"
        code, out, err = run_cli(
            capsys, "dismantle", str(target), "--k", "2", "--objective",
            "cole2", "--clamp-weights", "--weights", str(weights_path),
            "--emit-lp", str(lp_path),
        )
        assert (code, out) == (1, "")
        assert err == ("error: weights for sizes 1..5 could overflow a float "
                       "in the strength of a 5-node graph\n")
        assert not lp_path.exists()

    def test_result_written_to_file(self, capsys, tmp_path):
        target = tmp_path / "g.edges"
        save_edge_list(path_graph(4), target)
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "dismantle", str(target), "--k", "1",
            "--objective", "cole2", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        result = json.loads(out_path.read_text())
        assert result["removed"] == ["1"]
        assert result["residual_value"] == 2.0

    def test_budget_must_leave_a_node(self, capsys, tmp_path):
        target = tmp_path / "g.edges"
        save_edge_list(path_graph(3), target)
        code, _, err = run_cli(
            capsys, "dismantle", str(target), "--k", "3",
            "--objective", "cole2",
        )
        assert code == 1
        assert "1 <= k < n" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_is_refused(self, capsys, tmp_path, budget):
        target = tmp_path / "g.edges"
        save_edge_list(path_graph(3), target)
        code, out, err = run_cli(
            capsys, "dismantle", str(target), "--k", "1",
            "--objective", "cole2", "--budget", budget,
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: candidate-set budget must be >= 1, got {budget}\n")

    def test_instance_too_large_is_explicit(self, capsys, tmp_path):
        target = tmp_path / "g.edges"
        save_edge_list(Graph.build(60, []), target)
        code, _, err = run_cli(
            capsys, "dismantle", str(target), "--k", "4",
            "--objective", "cole2",
        )
        assert code == 1
        assert "too large for exact search" in err
        lp_path = tmp_path / "model.lp"
        code, out, err = run_cli(
            capsys, "dismantle", str(target), "--k", "4",
            "--clamp-weights", "--emit-lp", str(lp_path),
        )
        assert (code, out) == (1, "")
        assert "too large for exact search" in err
        assert not lp_path.exists()


class TestEval:
    def test_match_mode_table_and_files(self, capsys, tmp_path):
        detail = tmp_path / "detail.csv"
        summary = tmp_path / "summary.csv"
        code, out, _ = run_cli(
            capsys, "eval", "--mode", "match",
            "--pred", str(bundled_eval_path("single_pred_proposed.csv")),
            "--gt", str(bundled_eval_path("single_gt.csv")),
            "--out", str(detail), "--summary-out", str(summary),
        )
        assert code == 0
        assert "exact match      0.75" in out
        assert "rank match       1.25" in out
        assert "exact_match,0.75" in summary.read_text()
        assert detail.read_text().count("\n") == 9  # header + 8 graphs

    def test_match_mode_csv_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--mode", "match", "--csv",
            "--pred", str(bundled_eval_path("pairs_pred_cole1.csv")),
            "--gt", str(bundled_eval_path("pairs_gt.csv")),
        )
        assert code == 0
        assert "exact_match,0.25" in out
        assert "rank_match,-" in out

    def test_match_mode_unknown_graph(self, capsys, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("graph_id,members\nUNKNOWN,1\n")
        code, _, err = run_cli(
            capsys, "eval", "--mode", "match",
            "--pred", str(pred),
            "--gt", str(bundled_eval_path("single_gt.csv")),
        )
        assert code == 1
        assert "no ground truth" in err

    def test_match_mode_short_row(self, capsys, tmp_path):
        gt = tmp_path / "gt.csv"
        gt.write_text("graph_id,rank,members\ng1,1\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("graph_id,members\ng1,1\n")
        code, out, err = run_cli(
            capsys, "eval", "--mode", "match",
            "--pred", str(pred), "--gt", str(gt),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {gt}:2: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("row", ["g1,first,1,0.5", "g1,1,1,nan"])
    def test_match_mode_bad_number_names_line(self, capsys, tmp_path, row):
        gt = tmp_path / "gt.csv"
        gt.write_text(f"graph_id,rank,members,vote_share\n{row}\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("graph_id,members\ng1,1\n")
        code, out, err = run_cli(
            capsys, "eval", "--mode", "match",
            "--pred", str(pred), "--gt", str(gt),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {gt}:2: ")
        assert "Traceback" not in err

    def test_match_mode_unknown_graph_names_its_row(self, capsys, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("graph_id,members\nZZZ,1\n")
        code, out, err = run_cli(
            capsys, "eval", "--mode", "match", "--pred", str(pred),
            "--gt", str(bundled_eval_path("single_gt.csv")),
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: {pred}:2: no ground truth for predicted graph 'ZZZ'\n"
        )

    def test_match_mode_refuses_unpredicted_graphs(self, capsys, tmp_path):
        # a prediction file covering one of eight graphs used to score
        # exact match 1.0 over that one graph
        gt = bundled_eval_path("single_gt.csv")
        pred = tmp_path / "pred.csv"
        pred.write_text("graph_id,members\nSAXENA,4\n")
        code, out, err = run_cli(
            capsys, "eval", "--mode", "match", "--pred", str(pred),
            "--gt", str(gt),
        )
        assert (code, out) == (1, "")
        assert err == f"error: {gt}:4: no prediction for graph id 'RHODES'\n"

    def test_strength_mode_rmse(self, capsys, tmp_path):
        graph_dir = tmp_path / "graphs"
        graph_dir.mkdir()
        save_edge_list(path_graph(20), graph_dir / "g1.edges")
        gt = tmp_path / "gt.csv"
        gt.write_text("graph_id,mean_estimate\ng1,18.0\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("graph_id,value\ng1,0.9\n")
        code, out, _ = run_cli(
            capsys, "eval", "--mode", "strength", "--pred", str(pred),
            "--gt", str(gt), "--graphs", str(graph_dir),
        )
        assert code == 0
        assert out.splitlines()[1] == "rmse,0.0"

    def test_strength_mode_unknown_id(self, capsys, tmp_path):
        graph_dir = tmp_path / "graphs"
        graph_dir.mkdir()
        gt = tmp_path / "gt.csv"
        gt.write_text("graph_id,mean_estimate\nother,2.0\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("graph_id,value\ng9,0.5\n")
        code, _, err = run_cli(
            capsys, "eval", "--mode", "strength", "--pred", str(pred),
            "--gt", str(gt), "--graphs", str(graph_dir),
        )
        assert code == 1
        assert "unknown graph id" in err

    def strength_eval(self, capsys, tmp_path, gt_rows, pred_rows):
        graph_dir = tmp_path / "graphs"
        graph_dir.mkdir()
        for graph_id in ("g1", "g2"):
            save_edge_list(path_graph(4), graph_dir / f"{graph_id}.edges")
        gt = tmp_path / "gt.csv"
        gt.write_text("graph_id,mean_estimate\n" + gt_rows)
        pred = tmp_path / "pred.csv"
        pred.write_text("graph_id,value\n" + pred_rows)
        code, out, err = run_cli(
            capsys, "eval", "--mode", "strength", "--pred", str(pred),
            "--gt", str(gt), "--graphs", str(graph_dir),
        )
        return code, out, err, gt, pred

    def test_strength_mode_unknown_id_names_its_row(self, capsys, tmp_path):
        code, out, err, _, pred = self.strength_eval(
            capsys, tmp_path, "g1,2.0\n", "g1,0.5\ng9,0.5\n"
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: {pred}:3: prediction for unknown graph id 'g9'\n"
        )

    def test_strength_mode_names_first_unknown_id_in_file_order(
        self, capsys, tmp_path
    ):
        code, out, err, _, pred = self.strength_eval(
            capsys, tmp_path, "g1,2.0\ng2,4.0\n",
            "g1,0.5\nZZZ,0.5\ng2,0.5\nAAA,0.5\n",
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: {pred}:3: prediction for unknown graph id 'ZZZ'\n"
        )

    @pytest.mark.parametrize("option", [
        ["--out", "det.csv"], ["--summary-out", "sum.csv"], ["--csv"],
    ], ids=["out", "summary-out", "csv"])
    def test_strength_mode_refuses_match_outputs(self, capsys, tmp_path,
                                                 monkeypatch, option):
        # refused before any input is read: none of these files exists
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, "eval", "--mode", "strength", "--pred", "pred.csv",
            "--gt", "gt.csv", "--graphs", "graphs", *option,
        )
        assert (code, out) == (1, "")
        assert err == f"error: {option[0]} is only used in match mode\n"
        assert list(tmp_path.iterdir()) == []

    def test_match_mode_refuses_graphs(self, capsys, tmp_path, monkeypatch):
        # refused before any input is read: none of these files exists
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, "eval", "--mode", "match", "--pred", "pred.csv",
            "--gt", "gt.csv", "--graphs", "graphs",
        )
        assert (code, out) == (1, "")
        assert err == "error: --graphs is only used in strength mode\n"
        assert list(tmp_path.iterdir()) == []

    def test_strength_mode_refuses_unpredicted_rows(self, capsys, tmp_path):
        # a ground-truth row with no prediction used to be left out of
        # the RMSE without a word
        code, out, err, gt, _ = self.strength_eval(
            capsys, tmp_path, "g1,2.0\ng2,4.0\n", "g1,0.5\n"
        )
        assert (code, out) == (1, "")
        assert err == f"error: {gt}:3: no prediction for graph id 'g2'\n"


class TestCompare:
    def test_table_with_rmse_rows(self, capsys, tmp_path):
        graph_dir = tmp_path / "graphs"
        graph_dir.mkdir()
        save_edge_list(path_graph(5), graph_dir / "a.edges")
        save_edge_list(disjoint_paths([2, 2]), graph_dir / "b.edges")
        gt = tmp_path / "gt.csv"
        gt.write_text("graph_id,mean_estimate\na,4.0\nb,2.0\n")
        code, out, _ = run_cli(
            capsys, "compare", "--graphs", str(graph_dir), "--gt", str(gt),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("graph_id,n,gt_norm,proposed_norm")
        assert sum(1 for line in lines if line.startswith("rmse:")) == 4

    def test_missing_graph_file(self, capsys, tmp_path):
        graph_dir = tmp_path / "graphs"
        graph_dir.mkdir()
        gt = tmp_path / "gt.csv"
        gt.write_text("graph_id,mean_estimate\nmissing,2.0\n")
        code, _, err = run_cli(
            capsys, "compare", "--graphs", str(graph_dir), "--gt", str(gt),
        )
        assert code == 1
        assert "missing" in err

    def test_repeated_gt_column_is_refused(self, capsys, tmp_path):
        # csv.DictReader alone keeps the last cell, which scores 7/14
        save_edge_list(path_graph(14), tmp_path / "graph_0.edges")
        gt = tmp_path / "gt.csv"
        gt.write_text("graph_id,mean_estimate,mean_estimate\ngraph_0,5,7\n")
        code, out, err = run_cli(
            capsys, "compare", "--graphs", str(tmp_path), "--gt", str(gt),
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: {gt}: column 'mean_estimate' appears twice in the "
            f"header\n"
        )

    def test_uncovered_size_names_the_graph(self, capsys, tmp_path):
        graph_dir = tmp_path / "graphs"
        graph_dir.mkdir()
        save_edge_list(path_graph(31), graph_dir / "long.edges")
        save_edge_list(path_graph(3), graph_dir / "short.edges")
        gt = tmp_path / "gt.csv"
        gt.write_text("graph_id,mean_estimate\nshort,2.0\nlong,3.0\n")
        code, out, err = run_cli(
            capsys, "compare", "--graphs", str(graph_dir), "--gt", str(gt),
            "--metrics", "proposed",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: graph 'long': component size 31 exceeds the 30-entry "
            "weight vector (extension policy 'error')\n"
        )

    def test_repeated_metric_rejected_by_parser(self, capsys, tmp_path):
        graph_dir = tmp_path / "graphs"
        graph_dir.mkdir()
        save_edge_list(path_graph(3), graph_dir / "s.edges")
        gt = tmp_path / "gt.csv"
        gt.write_text("graph_id,mean_estimate\ns,2.0\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--graphs", str(graph_dir), "--gt", str(gt),
                  "--metrics", "cole2,cole2"])
        assert excinfo.value.code == 2
        assert "metric 'cole2' given twice" in capsys.readouterr().err


class TestOverflowingWeights:
    """Finite weights whose strength overflows a float are refused: no NaN
    (not JSON) or nan reaches stdout."""

    @pytest.mark.parametrize("command", [
        ["dismantle", "{dir}/g.edges", "--k", "1"],
        ["strength", "{dir}/g.edges"],
        ["compare", "--graphs", "{dir}", "--gt", "{dir}/gt.csv"],
        # the weights are the model's objective, whatever the search's
        ["dismantle", "{dir}/g.edges", "--k", "1", "--objective", "cole2",
         "--emit-lp", "{dir}/m.lp"],
    ], ids=["dismantle", "strength", "compare", "dismantle-cole2-emit-lp"])
    def test_refused(self, capsys, tmp_path, command):
        (tmp_path / "g.edges").write_text("a b\nc d\n#! node e\n#! node f\n")
        (tmp_path / "w.csv").write_text("size,weight\n1,1e308\n2,-1e308\n")
        (tmp_path / "gt.csv").write_text("graph_id,mean_estimate\ng,2.0\n")
        argv = [arg.format(dir=tmp_path) for arg in command]
        code, out, err = run_cli(capsys, *argv, "--weights",
                                 str(tmp_path / "w.csv"), "--clamp-weights")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "m.lp").exists()

    def test_emit_lp_message(self, capsys, tmp_path):
        """A cole2 search ignores the weights, but its model does not."""
        (tmp_path / "g.edges").write_text("0 1\n1 2\n2 3\n")
        (tmp_path / "w.csv").write_text(
            "size,weight\n1,1\n2,1e308\n3,1\n4,1\n")
        code, out, err = run_cli(
            capsys, "dismantle", str(tmp_path / "g.edges"), "--k", "1",
            "--objective", "cole2", "--weights", str(tmp_path / "w.csv"),
            "--emit-lp", str(tmp_path / "m.lp"))
        assert (code, out) == (1, "")
        assert err == ("error: weights for sizes 1..4 could overflow a float "
                       "in the strength of a 4-node graph\n")
        assert not (tmp_path / "m.lp").exists()


class TestEncoding:
    """Input that is not UTF-8 exits 1 naming the file and line, for both
    text readers."""

    def test_edge_list_not_utf8(self, capsys, tmp_path):
        target = tmp_path / "latin.edges"
        target.write_bytes(b"a b\nb \xe9t\xe9\n")
        code, out, err = run_cli(capsys, "strength", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: {target}:2: not UTF-8: byte 0xe9 in column 3\n"

    def test_csv_not_utf8(self, capsys, tmp_path):
        gt = tmp_path / "gt.csv"
        gt.write_bytes(b"graph_id,mean_estimate\ng1,1.0\nZ\xfcrich,2.0\n")
        code, out, err = run_cli(
            capsys, "compare", "--graphs", str(tmp_path), "--gt", str(gt),
        )
        assert (code, out) == (1, "")
        assert err == f"error: {gt}:3: not UTF-8: byte 0xfc in column 2\n"


class TestOutputClash:
    """Two outputs of one command may not name the same file: the second
    writer would overwrite the first. The CLI refuses before any work."""

    def fit_weights(self, tmp_path, target):
        save_edge_list(path_graph(4), tmp_path / "g.edges")
        survey = tmp_path / "survey.csv"
        survey.write_text("graph_id,participant_id,estimate\ng,p1,2\n")
        return ["fit-weights", "--survey", str(survey),
                "--graphs", str(tmp_path), "--out-weights", str(target)]

    def dismantle(self, tmp_path, target):
        save_edge_list(path_graph(4), tmp_path / "g.edges")
        return ["dismantle", str(tmp_path / "g.edges"), "--k", "1",
                "--clamp-weights", "--emit-lp", str(target)]

    def eval_match(self, tmp_path, target):
        return ["eval", "--mode", "match",
                "--pred", str(bundled_eval_path("single_pred_proposed.csv")),
                "--gt", str(bundled_eval_path("single_gt.csv")),
                "--out", str(target)]

    @pytest.mark.parametrize("command, first, second", [
        ("fit_weights", "--out-weights", "--report"),
        ("dismantle", "--emit-lp", "--out"),
        ("eval_match", "--out", "--summary-out"),
    ])
    def test_same_file_twice_is_refused(
        self, capsys, tmp_path, command, first, second
    ):
        target = tmp_path / "x"
        # another spelling of the same file
        again = tmp_path / "sub" / ".." / "x"
        argv = getattr(self, command)(tmp_path, target) + [second, str(again)]
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"\nnetstrength: error: {first} and {second} name the same file "
            f"{target.resolve()}\n"
        )
        assert sorted(tmp_path.iterdir()) == before

    def inputs(self, tmp_path):
        """One valid file per input flag, so that only the clash check can
        stop a command from overwriting it."""
        save_edge_list(path_graph(4), tmp_path / "g.edges")
        (tmp_path / "w.csv").write_text(
            metrics.weights_csv(WeightVector([0.5, 0.7])))
        (tmp_path / "survey.csv").write_text(
            "graph_id,participant_id,estimate\ng,p1,2\n")
        (tmp_path / "gt.csv").write_text("graph_id,mean_estimate\ng,2.0\n")
        for name in ("single_pred_proposed.csv", "single_gt.csv"):
            (tmp_path / name).write_bytes(bundled_eval_path(name).read_bytes())
        (tmp_path / "sub").mkdir()  # so that sub/.. opens without the check

    @pytest.mark.parametrize("argv, output, source, name", [
        (["dismantle", "IN", "--k", "1"], "--out", "graph", "g.edges"),
        (["dismantle", "g.edges", "--k", "1", "--clamp-weights", "--weights",
          "IN"], "--emit-lp", "--weights", "w.csv"),
        (["fit-weights", "--survey", "IN", "--graphs", "."], "--out-weights",
         "--survey", "survey.csv"),
        (["fit-weights", "--survey", "IN", "--graphs", "."], "--report",
         "--survey", "survey.csv"),
        (["eval", "--mode", "match", "--pred", "IN", "--gt", "single_gt.csv"],
         "--out", "--pred", "single_pred_proposed.csv"),
        (["eval", "--mode", "match", "--pred", "single_pred_proposed.csv",
          "--gt", "IN"], "--summary-out", "--gt", "single_gt.csv"),
        (["compare", "--graphs", ".", "--gt", "IN"], "--out", "--gt",
         "gt.csv"),
        (["compare", "--graphs", ".", "--gt", "gt.csv", "--clamp-weights",
          "--weights", "IN"], "--out", "--weights", "w.csv"),
        # an edge list the command reads from --graphs, named by a CSV id
        (["compare", "--graphs", ".", "--gt", "gt.csv", "--clamp-weights"],
         "--out", "--graphs", "g.edges"),
        (["fit-weights", "--survey", "survey.csv", "--graphs", "."],
         "--out-weights", "--graphs", "g.edges"),
        (["fit-weights", "--survey", "survey.csv", "--graphs", "."],
         "--report", "--graphs", "g.edges"),
    ], ids=["dismantle-graph", "dismantle-weights", "fit-out-weights",
            "fit-report", "eval-pred", "eval-gt", "compare-gt",
            "compare-weights", "compare-graphs", "fit-graphs-out-weights",
            "fit-graphs-report"])
    def test_output_on_an_input_is_refused(
        self, capsys, monkeypatch, tmp_path, argv, output, source, name
    ):
        self.inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        target = tmp_path / name
        content = target.read_bytes()
        argv = [str(target) if arg == "IN" else arg for arg in argv]
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [output, str(tmp_path / "sub" / ".." / name)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"\nnetstrength: error: {output} and {source} name the same file "
            f"{target}\n"
        )
        assert sorted(tmp_path.iterdir()) == before
        assert target.read_bytes() == content

    def test_two_inputs_may_name_one_file(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("graph_id,rank,members,vote_share\ng1,1,a,100\n")
        code, out, _ = run_cli(capsys, "eval", "--mode", "match", "--csv",
                               "--pred", str(table), "--gt", str(table))
        assert code == 0
        assert "exact_match,1.0\n" in out

    def test_default_weights_are_not_a_file(
        self, capsys, monkeypatch, tmp_path
    ):
        save_edge_list(path_graph(4), tmp_path / "g.edges")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "dismantle", "g.edges", "--k", "1",
                               "--out", "default")
        assert (code, out) == (0, "")
        assert json.loads((tmp_path / "default").read_text())["k"] == 1


class TestOneWriter:
    """Every file the CLI writes, and everything it prints to stdout, goes
    through ``cli._write_or_print``: one ``open`` in write mode, no
    ``write_text``."""

    def test_one_open_and_no_write_text(self):
        source = Path(cli.__file__).read_text(encoding="utf-8")
        writer = inspect.getsource(cli._write_or_print)
        assert "write_text" not in source
        assert source.count("open(") == 1
        assert 'open(out, "w", encoding="utf-8")' in writer

    def test_no_other_stdout_writes(self):
        source = Path(cli.__file__).read_text(encoding="utf-8")
        rest = source.replace(inspect.getsource(cli._write_or_print), "")
        assert "sys.stdout" not in rest
        # the one print left is the error message, to stderr
        assert re.findall(r"\bprint\(.*", rest) == [
            'print(f"error: {exc}", file=sys.stderr)'
        ]


class TestOneGraphPath:
    def test_only_graph_path_names_edge_lists(self):
        """``datasets.graph_path`` is the one code that turns a graph id
        into its ``.edges`` file name."""
        rule = inspect.getsource(datasets.graph_path)
        assert len(re.findall(r"\.edges[\"']", rule)) == 1
        package = Path(datasets.__file__).parent
        for path in sorted(package.glob("*.py")):
            rest = path.read_text(encoding="utf-8").replace(rule, "")
            assert not re.findall(r"\.edges[\"']", rest), path.name

    @pytest.mark.parametrize("rule", [
        "is outside [1, ", "budget k must satisfy", "unknown node id",
        "u < v else", "could overflow a float",
    ])
    def test_each_input_rule_is_written_once(self, rule):
        """The estimate range, the removal size, the node-id range, the
        canonical edge and the weight-overflow bound each have one home in
        the package source."""
        package = Path(datasets.__file__).parent
        sources = (path.read_text(encoding="utf-8")
                   for path in package.glob("*.py"))
        assert sum(source.count(rule) for source in sources) == 1


class TestGraphDirectory:
    """Every subcommand that reads ``<dir>/<graph_id>.edges`` reports a
    missing file, an empty one and an id outside ``<dir>`` the same way,
    after the ``file:line`` of the first CSV row that names the id."""

    COMMANDS = ["fit-weights", "compare", "eval"]
    # the CSV file whose rows give the ids each command loads
    SOURCE = {"fit-weights": "survey.csv", "compare": "gt.csv",
              "eval": "pred.csv"}

    def run(self, capsys, tmp_path, command, graph_id, rows=None):
        """Run ``command`` on one row for ``graph_id`` over ``tmp_path/graphs``.

        ``rows`` maps a file name to the data rows to write there instead.
        """
        rows = rows or {}
        survey = tmp_path / "survey.csv"
        survey.write_text("graph_id,participant_id,estimate\n" + rows.get(
            "survey.csv", f"{graph_id},p1,1\n"))
        gt = tmp_path / "gt.csv"
        gt.write_text("graph_id,mean_estimate\n" + rows.get(
            "gt.csv", f"{graph_id},1.0\n"))
        pred = tmp_path / "pred.csv"
        pred.write_text("graph_id,value\n" + rows.get(
            "pred.csv", f"{graph_id},0.5\n"))
        argv = {
            "fit-weights": ["--survey", str(survey)],
            "compare": ["--gt", str(gt)],
            "eval": ["--mode", "strength", "--pred", str(pred),
                     "--gt", str(gt)],
        }[command]
        return run_cli(
            capsys, command, *argv, "--graphs", str(tmp_path / "graphs")
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_edge_list(self, capsys, tmp_path, command):
        (tmp_path / "graphs").mkdir()
        code, out, err = self.run(capsys, tmp_path, command, "ghost")
        assert (code, out) == (1, "")
        missing = tmp_path / "graphs" / "ghost.edges"
        row = tmp_path / self.SOURCE[command]
        assert err == (
            f"error: {row}:2: no edge list for graph id 'ghost': {missing}\n"
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_edge_list_that_cannot_be_opened(self, capsys, tmp_path,
                                             command):
        (tmp_path / "graphs" / "g.edges").mkdir(parents=True)
        code, out, err = self.run(capsys, tmp_path, command, "g")
        assert (code, out) == (1, "")
        row = tmp_path / self.SOURCE[command]
        directory = tmp_path / "graphs" / "g.edges"
        assert err == (
            f"error: {row}:2: [Errno 21] Is a directory: '{directory}'\n"
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_parse_error_names_the_edge_list_line(self, capsys, tmp_path,
                                                  command):
        (tmp_path / "graphs").mkdir()
        edges = tmp_path / "graphs" / "g.edges"
        edges.write_text("a b\na b c\n")
        code, out, err = self.run(capsys, tmp_path, command, "g")
        assert (code, out) == (1, "")
        assert err == f"error: {edges}:2: expected two labels, got 3\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_graph_id_outside_directory(self, capsys, tmp_path, command):
        (tmp_path / "graphs").mkdir()
        save_edge_list(path_graph(3), tmp_path / "outside.edges")
        code, out, err = self.run(capsys, tmp_path, command, "../outside")
        assert (code, out) == (1, "")
        row = tmp_path / self.SOURCE[command]
        assert err == (
            f"error: {row}:2: graph id '../outside' is not one path component\n"
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_graph_id_with_nul(self, capsys, tmp_path, command):
        """A NUL byte names no file: the id is refused at its row, not
        passed to ``open``."""
        (tmp_path / "graphs").mkdir()
        code, out, err = self.run(capsys, tmp_path, command, "a\0b")
        assert (code, out) == (1, "")
        row = tmp_path / self.SOURCE[command]
        assert err == (
            f"error: {row}:2: graph id 'a\\x00b' is not one path component\n"
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_empty_edge_list(self, capsys, tmp_path, command):
        (tmp_path / "graphs").mkdir()
        empty = tmp_path / "graphs" / "g0.edges"
        empty.write_text("")
        code, out, err = self.run(capsys, tmp_path, command, "g0")
        assert (code, out) == (1, "")
        row = tmp_path / self.SOURCE[command]
        assert err == f"error: {row}:2: {empty}: edge list has no nodes\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_error_names_first_row_of_the_id(self, capsys, tmp_path, command):
        (tmp_path / "graphs").mkdir()
        save_edge_list(path_graph(3), tmp_path / "graphs" / "g1.edges")
        code, out, err = self.run(capsys, tmp_path, command, "ghost", rows={
            "survey.csv": "g1,p1,2\n\nghost,p1,1\nghost,p2,1\n",
            "gt.csv": "g1,2.0\nghost,1.0\n",
            "pred.csv": "ghost,0.5\ng1,0.5\n",
        })
        assert (code, out) == (1, "")
        line = {"fit-weights": 4, "compare": 3, "eval": 2}[command]
        row = tmp_path / self.SOURCE[command]
        missing = tmp_path / "graphs" / "ghost.edges"
        assert err == (
            f"error: {row}:{line}: no edge list for graph id 'ghost': "
            f"{missing}\n"
        )

    @pytest.mark.parametrize("value", ["99", "0", "-3"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_estimate_outside_one_to_n(self, capsys, tmp_path, command,
                                       value):
        (tmp_path / "graphs").mkdir()
        save_edge_list(path_graph(3), tmp_path / "graphs" / "graph_0.edges")
        save_edge_list(disjoint_paths([3, 2, 1]),
                       tmp_path / "graphs" / "graph_1.edges")
        code, out, err = self.run(capsys, tmp_path, command, "", rows={
            "survey.csv": f"graph_0,p1,2\ngraph_1,p1,{value}\n",
            "gt.csv": f"graph_0,2.0\ngraph_1,{value}\n",
            "pred.csv": "graph_0,0.5\ngraph_1,0.5\n",
        })
        assert (code, out) == (1, "")
        if command == "fit-weights":
            row, column = tmp_path / "survey.csv", "estimate"
        else:
            row, column = tmp_path / "gt.csv", "mean_estimate"
        assert err == (
            f"error: {row}:3: {column} {float(value)} for graph 'graph_1' "
            f"is outside [1, 6]\n"
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_rows_are_looked_up_only_for_an_error(
        self, capsys, monkeypatch, tmp_path, command
    ):
        """Finding an id's row reads its CSV again: a valid run never
        does, however many ids it loads."""
        def no_lookup(source, graph_id):
            raise AssertionError(f"looked up {graph_id!r} in {source}")

        monkeypatch.setattr(datasets, "graph_id_row", no_lookup)
        (tmp_path / "graphs").mkdir()
        save_edge_list(path_graph(3), tmp_path / "graphs" / "g1.edges")
        save_edge_list(path_graph(4), tmp_path / "graphs" / "g2.edges")
        code, out, err = self.run(capsys, tmp_path, command, "", rows={
            "survey.csv": "g1,p1,2\ng2,p1,3\n",
            "gt.csv": "g1,2.0\ng2,3.0\n",
            "pred.csv": "g1,0.5\ng2,0.5\n",
        })
        assert (code, err.count("error")) == (0, 0)
        assert out


# one character more than csv reads in a cell, as a cell and as a header
_LONG = "x" * (csv.field_size_limit() + 1)
_CELLS = st.sampled_from([
    "g0", "g1", "p1", "0", "1", "2", "3", "-1", "0.5", "1e400", "nan",
    "x", "a b", "#", "1;2", "", _LONG,
])
_HEADERS = (
    "graph_id,participant_id,estimate", "graph_id,mean_estimate",
    "graph_id,value", "graph_id,members", "graph_id,rank,members",
    "graph_id,rank,members,vote_share", "size,weight", "weight,size", "x",
    _LONG,
)


def _table(header: str, width: int, separator: str = ",",
           others: tuple[str, ...] = _HEADERS):
    """File text: ``header`` or another first line, then one to six rows,
    most of ``width`` cells."""
    full = st.lists(_CELLS, min_size=width, max_size=width)
    rows = st.lists(
        st.one_of(full, full, full, st.lists(_CELLS, max_size=4)).map(
            separator.join),
        min_size=1, max_size=6,
    )
    first = st.one_of(st.just(header), st.sampled_from(others))
    return st.tuples(first, rows).map(
        lambda parts: "\n".join([parts[0], *parts[1]]) + "\n"
    )


# one well-formed file of each kind, so the fuzz also reaches the paths
# behind the loaders; each file may also be empty
_VALID = {
    "g0.edges": "0 1\n1 2\n2 3\n",
    "w.csv": "size,weight\n1,0.5\n2,1\n3,2\n4,0.25\n",
    "survey.csv": "graph_id,participant_id,estimate\ng0,p1,2\ng0,p2,3\n",
    "ranked.csv": "graph_id,rank,members,vote_share\ng0,1,1,\ng0,2,0;2,\n",
    "mean.csv": "graph_id,mean_estimate\ng0,2.5\n",
    "members.csv": "graph_id,members\ng0,1\n",
    "values.csv": "graph_id,value\ng0,0.5\n",
}
_FILES = st.fixed_dictionaries({
    name: st.one_of(st.just(_VALID[name]), st.just(""), generated)
    for name, generated in {
        "g0.edges": _table("0 1", 2, " ", others=("#", "0 0", "a b c")),
        "w.csv": _table("size,weight", 2),
        "survey.csv": _table("graph_id,participant_id,estimate", 3),
        "ranked.csv": _table("graph_id,rank,members,vote_share", 4),
        "mean.csv": _table("graph_id,mean_estimate", 2),
        "members.csv": _table("graph_id,members", 2),
        "values.csv": _table("graph_id,value", 2),
    }.items()
})


_COMMANDS = {
    "gen": ["gen", "--model", "{model}", "--n", "{n}", "--count", "2",
            "--seed", "1", "--out", "suite"],
    "strength": ["strength", "g0.edges", "--weights", "w.csv"],
    "dismantle": ["dismantle", "g0.edges", "--k", "{k}", "--weights",
                  "w.csv", "--objective", "{objective}"],
    "fit-weights": ["fit-weights", "--survey", "survey.csv", "--graphs",
                    ".", "--lambda", "{ridge}"],
    "eval-match": ["eval", "--mode", "match", "--pred", "members.csv",
                   "--gt", "ranked.csv"],
    "eval-strength": ["eval", "--mode", "strength", "--pred", "values.csv",
                      "--gt", "mean.csv", "--graphs", "."],
    "compare": ["compare", "--graphs", ".", "--gt", "mean.csv",
                "--weights", "w.csv"],
}
_OPTIONS = {
    "gen": [("--p", "0.5"), ("--m", "{k}"), ("--stem", "s")],
    "strength": [("--clamp-weights",), ("--all-metrics",),
                 ("--metrics", "cole1,proposed"), ("--weights", "default")],
    "dismantle": [("--clamp-weights",), ("--exact-size",), ("--budget", "3"),
                  ("--emit-lp", "model.lp"), ("--out", "out.txt"),
                  ("--weights", "default")],
    "fit-weights": [("--out-weights", "fit.csv"), ("--report", "report.txt")],
    "eval-match": [("--csv",), ("--out", "out.txt"),
                   ("--summary-out", "summary.txt")],
    "eval-strength": [("--csv",)],
    "compare": [("--clamp-weights",), ("--metrics", "cole1,proposed"),
                ("--out", "out.txt"), ("--weights", "default")],
}
# names in an argument list that stand for a file or directory in the test's
# temporary directory
_PATHS = {".", "suite", "model.lp", "out.txt", "fit.csv", "report.txt",
          "summary.txt"}


class TestFieldLimit:
    """A cell longer than ``csv``'s field limit is a ``file:line`` error, in
    the header or in a row, for each kind of CSV the CLI reads."""

    PAIR = ["eval", "--mode", "match", "--pred", "members.csv", "--gt",
            "ranked.csv"]

    @pytest.mark.parametrize("line", [1, 3], ids=["header", "row"])
    @pytest.mark.parametrize("name, argv", [
        ("w.csv", ["strength", "g0.edges", "--weights", "w.csv"]),
        ("survey.csv", ["fit-weights", "--survey", "survey.csv",
                        "--graphs", "."]),
        ("mean.csv", ["compare", "--graphs", ".", "--gt", "mean.csv"]),
        ("members.csv", PAIR),
        ("ranked.csv", PAIR),
        ("values.csv", ["eval", "--mode", "strength", "--pred", "values.csv",
                        "--gt", "mean.csv", "--graphs", "."]),
    ], ids=["weights", "survey", "mean", "members", "ranked", "values"])
    def test_long_cell(self, capsys, monkeypatch, tmp_path, name, argv,
                       line):
        monkeypatch.chdir(tmp_path)
        for file_name, text in _VALID.items():
            (tmp_path / file_name).write_text(text)
        lines = _VALID[name].splitlines()
        if line == 1:  # one more header cell
            lines[0] += "," + _LONG
        else:  # after one valid row
            lines.insert(2, _LONG)
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (f"error: {name}:{line}: field larger than field limit "
                       f"({csv.field_size_limit()})\n")


class TestFuzz:
    """Generated input files for every subcommand: the CLI exits 0, or
    exits 1 with an ``error:`` line, and no exception escapes."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        data=st.data(),
        command=st.sampled_from(sorted(_COMMANDS)),
        files=_FILES,
        model=st.sampled_from(["gnp", "gnm"]),
        n=st.integers(-1, 12),
        k=st.integers(-1, 4),
        objective=st.sampled_from(["proposed", "cole1", "cole2", "gfp"]),
        ridge=st.sampled_from(["0", "0.5", "-1", "nan", "inf"]),
    )
    def test_every_subcommand_exits_cleanly(
        self, data, command, files, model, n, k, objective, ridge
    ):
        options = data.draw(st.lists(
            st.sampled_from(_OPTIONS[command]), max_size=3, unique=True
        ))
        fields = {"model": model, "n": n, "k": k, "objective": objective,
                  "ridge": ridge}
        argv = _COMMANDS[command] + [arg for option in options for arg in option]
        argv = [arg.format(**fields) for arg in argv]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, text in files.items():
                (root / name).write_text(text)
            argv = [str(root / arg) if arg in files or arg in _PATHS else arg
                    for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1), (argv, err.getvalue())
        if code == 1:
            last = err.getvalue().splitlines()[-1]
            assert last.startswith("error: "), (argv, err.getvalue())


class TestEntryPoint:
    def test_import_leaves_numpy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, netstrength, netstrength.cli\n"
             "assert 'numpy' not in sys.modules"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr

    # each command imports the modules it runs, and no others
    BASE = {"netstrength", "netstrength.cli", "netstrength.datasets",
            "netstrength.graph", "netstrength.metrics"}
    LOADED = (
        "import json, sys\n"
        "from netstrength.cli import main\n"
        "code = main(sys.argv[2:])\n"
        "names = [m for m in sys.modules if m.startswith('netstrength')]\n"
        "open(sys.argv[1], 'w').write(json.dumps(names))\n"
        "sys.exit(code)\n"
    )

    @pytest.mark.parametrize("argv, extra", [
        ("gen --model gnp --n 5 --p 0.5 --seed 1 --out suite", ()),
        ("strength g1.edges", ("weights",)),
        ("dismantle g1.edges --k 1", ("dismantle", "weights")),
        ("dismantle g1.edges --k 1 --clamp-weights --emit-lp model.lp",
         ("dismantle", "ilp", "weights")),
        ("fit-weights --survey survey.csv --graphs .", ("weights",)),
        ("compare --graphs . --gt gt.csv", ("evaluation", "weights")),
        ("eval --mode strength --pred pred.csv --gt gt.csv --graphs .",
         ("evaluation",)),
        ("eval --mode match --pred {pred} --gt {gt}", ("evaluation",)),
    ], ids=["gen", "strength", "dismantle", "dismantle-emit-lp",
            "fit-weights", "compare", "eval-strength", "eval-match"])
    def test_each_command_loads_only_its_modules(self, tmp_path, argv, extra):
        save_edge_list(path_graph(3), tmp_path / "g1.edges")
        (tmp_path / "survey.csv").write_text(
            "graph_id,participant_id,estimate\ng1,p1,2.5\n")
        (tmp_path / "gt.csv").write_text("graph_id,mean_estimate\ng1,2.0\n")
        (tmp_path / "pred.csv").write_text("graph_id,value\ng1,0.5\n")
        argv = argv.format(pred=bundled_eval_path("single_pred_proposed.csv"),
                           gt=bundled_eval_path("single_gt.csv")).split()
        proc = subprocess.run(
            [sys.executable, "-c", self.LOADED, "loaded.json", *argv],
            capture_output=True, text=True, env=child_env(), cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads((tmp_path / "loaded.json").read_text())
        assert sorted(loaded) == sorted(
            self.BASE | {f"netstrength.{name}" for name in extra}
        )

    def test_fit_weights_in_fresh_interpreter(self, tmp_path):
        save_edge_list(path_graph(3), tmp_path / "g1.edges")
        save_edge_list(disjoint_paths([1, 2]), tmp_path / "g2.edges")
        survey = tmp_path / "survey.csv"
        survey.write_text("graph_id,participant_id,estimate\n"
                          "g1,p1,2.5\ng2,p1,1.5\n")
        proc = subprocess.run(
            [sys.executable, "-m", "netstrength.cli", "fit-weights",
             "--survey", str(survey), "--graphs", str(tmp_path)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert [row["size"] for row in parse_csv(proc.stdout)] == [
            "1", "2", "3"
        ]

    # the modules an in-process fit-weights run leaves loaded: the exact fit
    # needs neither numpy nor fractions
    FIT_MODULES = (
        "import sys\n"
        "from netstrength.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "assert code == 0, code\n"
        "loaded = [m for m in ('numpy', 'fractions') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )

    @pytest.mark.parametrize("ridge", ["0", "0.5"])
    def test_fit_weights_loads_neither_numpy_nor_fractions(self, tmp_path,
                                                           ridge):
        save_edge_list(path_graph(3), tmp_path / "g1.edges")
        save_edge_list(disjoint_paths([1, 2]), tmp_path / "g2.edges")
        (tmp_path / "survey.csv").write_text(
            "graph_id,participant_id,estimate\ng1,p1,2.5\ng2,p1,1.5\n")
        proc = subprocess.run(
            [sys.executable, "-c", self.FIT_MODULES, "fit-weights",
             "--survey", "survey.csv", "--graphs", ".", "--lambda", ridge],
            capture_output=True, text=True, env=child_env(), cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert [row["size"] for row in parse_csv(proc.stdout)] == [
            "1", "2", "3"
        ]

    def test_weights_import_leaves_numpy_unloaded(self):
        # building the design matrix needs no numpy either: only the fit
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from netstrength.graph import Graph\n"
             "from netstrength.weights import (\n"
             "    SurveyDataset, SurveyRecord, build_system)\n"
             "record = SurveyRecord('g', Graph.build(3, [(0, 1)]), (1.5,))\n"
             "system = build_system(SurveyDataset((record,)))\n"
             "assert system.matrix == ((1, 2),), system.matrix\n"
             "assert 'numpy' not in sys.modules"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "netstrength.cli", "--help"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        for name in ("gen", "strength", "fit-weights", "dismantle", "eval",
                     "compare"):
            assert name in proc.stdout


class TestGoldenOutput:
    """Exact stdout bytes on one seeded suite, pinned across refactors."""

    STRENGTH = {
        "graph_0": (
            "metric,raw,normalized\n"
            "proposed,10.873,0.7766428571428571\n"
            "cole1,7.0,0.5\n"
            "cole2,13.0,0.9285714285714286\n"
            "gfp,12.142857142857142,0.8673469387755102\n"
        ),
        "graph_1": (
            "metric,raw,normalized\n"
            "proposed,8.8778,0.6341285714285715\n"
            "cole1,4.666666666666667,0.33333333333333337\n"
            "cole2,12.0,0.8571428571428571\n"
            "gfp,10.428571428571429,0.7448979591836735\n"
        ),
        "graph_2": (
            "metric,raw,normalized\n"
            "proposed,10.674999999999999,0.7625\n"
            "cole1,14.0,1.0\n"
            "cole2,14.0,1.0\n"
            "gfp,14.0,1.0\n"
        ),
    }
    COMPARE = (
        "graph_id,n,gt_norm,proposed_norm,cole1_norm,cole2_norm,gfp_norm\n"
        "graph_0,14,0.39285714285714285,0.7766428571428571,0.5,"
        "0.9285714285714286,0.8673469387755102\n"
        "graph_1,14,0.5178571428571429,0.6341285714285715,"
        "0.33333333333333337,0.8571428571428571,0.7448979591836735\n"
        "graph_2,14,0.21428571428571427,0.7625,1.0,1.0,1.0\n"
        "rmse:proposed,,,0.39215193596915177,,,\n"
        "rmse:cole1,,,,0.4700622536407364,,\n"
        "rmse:cole2,,,,,0.5829383988645355,\n"
        "rmse:gfp,,,,,,0.5459044597376546\n"
    )
    DISMANTLE = {
        "proposed": '{"k": 2, "objective": "proposed", "removed": ["10", "8"], '
                    '"residual_value": 7.5569, "ties": 35}\n',
        "cole1": '{"k": 2, "objective": "cole1", "removed": ["0", "8"], '
                 '"residual_value": 6.0, "ties": 2}\n',
        "cole2": '{"k": 2, "objective": "cole2", "removed": ["0", "8"], '
                 '"residual_value": 4.0, "ties": 1}\n',
        "gfp": '{"k": 2, "objective": "gfp", "removed": ["0", "8"], '
               '"residual_value": 3.0, "ties": 1}\n',
    }
    # k=3 with and without --exact-size: the same optimum either way
    DISMANTLE_K3 = {
        "proposed": '{"k": 3, "objective": "proposed", '
                    '"removed": ["0", "1", "4"], "residual_value": 4.9788, '
                    '"ties": 4}\n',
        "cole1": '{"k": 3, "objective": "cole1", "removed": ["0", "3", "4"], '
                 '"residual_value": 7.0, "ties": 3}\n',
        "cole2": '{"k": 3, "objective": "cole2", "removed": ["0", "3", "4"], '
                 '"residual_value": 3.0, "ties": 2}\n',
        "gfp": '{"k": 3, "objective": "gfp", "removed": ["0", "3", "4"], '
               '"residual_value": 1.9090909090909092, "ties": 1}\n',
    }
    # each weight is the float nearest the exact least-squares solution, and
    # three equations of rank 3 are met exactly
    FIT_WEIGHTS = (
        "size,weight\n"
        "1,0.13536532040069962\n"
        "2,0.0\n3,0.0\n4,0.0\n5,0.0\n6,0.0\n7,0.0\n8,0.0\n9,0.0\n"
        "10,0.0\n11,0.0\n"
        "12,0.6128557799332167\n"
        "13,0.43189497535379234\n"
        "14,0.26785714285714285\n"
    )
    FIT_REPORT = (
        '{"graphs": 3, "lambda": 0.0, "rank": 3, '
        '"residual_norm": 0.0, "size_limit": 14}\n'
    )

    @pytest.fixture
    def suite(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "gen", "--model", "gnp", "--n", "14", "--p", "0.13",
            "--count", "3", "--seed", "3", "--out", str(tmp_path),
        )
        assert code == 0
        return tmp_path

    def test_strength_all_metrics(self, capsys, suite):
        for graph_id, expected in self.STRENGTH.items():
            code, out, _ = run_cli(
                capsys, "strength", str(suite / f"{graph_id}.edges"),
                "--all-metrics",
            )
            assert (code, out) == (0, expected)

    def test_compare(self, capsys, suite, tmp_path):
        gt = tmp_path / "gt.csv"
        gt.write_text(
            "graph_id,mean_estimate\ngraph_0,5.5\ngraph_1,7.25\ngraph_2,3\n"
        )
        code, out, _ = run_cli(
            capsys, "compare", "--graphs", str(suite), "--gt", str(gt),
        )
        assert (code, out) == (0, self.COMPARE)

    def test_dismantle_each_objective(self, capsys, suite):
        for objective, expected in self.DISMANTLE.items():
            code, out, _ = run_cli(
                capsys, "dismantle", str(suite / "graph_0.edges"), "--k", "2",
                "--objective", objective,
            )
            assert (code, out) == (0, expected)

    @pytest.mark.parametrize("exact_size", [(), ("--exact-size",)],
                             ids=["at-most-k", "exact-size"])
    def test_dismantle_k3_each_objective(self, capsys, suite, exact_size):
        for objective, expected in self.DISMANTLE_K3.items():
            code, out, _ = run_cli(
                capsys, "dismantle", str(suite / "graph_0.edges"), "--k", "3",
                "--objective", objective, *exact_size,
            )
            assert (code, out) == (0, expected)

    def test_fit_weights(self, capsys, suite, tmp_path):
        survey = tmp_path / "survey.csv"
        survey.write_text(
            "graph_id,participant_id,estimate\n"
            "graph_0,p1,5.5\ngraph_0,p2,6\ngraph_1,p1,7.25\n"
            "graph_1,p2,8\ngraph_2,p1,3\ngraph_2,p3,4.5\n"
        )
        report = tmp_path / "report.jsonl"
        code, out, _ = run_cli(
            capsys, "fit-weights", "--survey", str(survey),
            "--graphs", str(suite), "--report", str(report),
        )
        assert (code, out) == (0, self.FIT_WEIGHTS)
        assert report.read_text() == self.FIT_REPORT

    def test_fit_weights_logs_unseen_sizes(self, capsys, suite, tmp_path):
        survey = tmp_path / "survey.csv"
        survey.write_text(
            "graph_id,participant_id,estimate\n"
            "graph_0,p1,5.5\ngraph_1,p1,7.25\ngraph_2,p1,3\n"
        )
        code, out, err = run_cli(
            capsys, "fit-weights", "--survey", str(survey),
            "--graphs", str(suite),
        )
        assert code == 0
        # sizes 2..11 occur in no graph of the suite
        assert err.startswith("INFO fit 14 weights from 3 graphs (residual ")
        assert err.endswith("rank 3); 10 size(s) absent from every surveyed "
                            "graph got weight 0\n")
        assert err.count("\n") == 1
        weights = {row["size"]: row["weight"] for row in parse_csv(out)}
        assert [weights[str(size)] for size in range(2, 12)] == ["0.0"] * 10

    def test_fit_weights_ridge_gives_unseen_sizes_zero(
        self, capsys, suite, tmp_path
    ):
        # no graph of the suite has a component of 2..11 nodes, and the
        # exact ridge solution is 0 on those all-zero design columns
        survey = tmp_path / "survey.csv"
        survey.write_text(
            "graph_id,participant_id,estimate\n"
            "graph_0,p1,5.5\ngraph_1,p1,7.25\ngraph_2,p1,3\n"
        )
        code, out, _ = run_cli(
            capsys, "fit-weights", "--survey", str(survey),
            "--graphs", str(suite), "--lambda", "0.5",
        )
        assert code == 0
        weights = {row["size"]: row["weight"] for row in parse_csv(out)}
        assert [weights[str(size)] for size in range(2, 12)] == ["0.0"] * 10
        assert all(float(weights[size]) != 0 for size in ("1", "12", "13"))
