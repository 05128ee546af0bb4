"""Tests of the benchmark's own checks, inputs and tracing.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from netstrength import dismantle, graph, metrics, weights  # noqa: E402

STAR = graph.Graph.build(6, [(0, i) for i in range(1, 6)])
PATH = graph.Graph.build(7, [(i, i + 1) for i in range(6)])
# The default weights are non-monotone (w_4 > w_5), which makes removing
# nothing from the 5-cycle optimal for the proposed objective.
CYCLE5 = graph.Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
W = weights.default_weights()


def _solve(g, k, objective):
    return dismantle.best_removal(dismantle.DismantleQuery(
        graph=g, k=k, objective=objective,
        weights=W if objective == "proposed" else None))


@pytest.mark.parametrize("g", [STAR, PATH, CYCLE5], ids=["star", "path", "c5"])
@pytest.mark.parametrize("objective", metrics.METRIC_IDS)
@pytest.mark.parametrize("k", [1, 2])
def test_checker_agrees_with_best_removal(g, objective, k):
    edges = sorted(g.edges)
    optimum = oracle.exhaustive_optimum(g.n, edges, k, objective, W.weights)
    result = _solve(g, k, objective)
    assert (result.residual_value, result.ties, result.removed) == optimum
    oracle.check_removal(g.n, edges, k, objective, W.weights, result, optimum)


def test_nonmonotone_cycle_keeps_every_node():
    value, ties, winner = oracle.exhaustive_optimum(
        5, sorted(CYCLE5.edges), 1, "proposed", W.weights)
    assert winner == () and ties == 1
    assert value == pytest.approx(5 * W.weights[4])


def test_cole1_objective_counts_components_metric_is_n_over_c():
    sizes = [3, 1, 1]
    assert oracle.objective_value(sizes, "cole1") == 3.0
    assert oracle.normalized_metric(sizes, "cole1") == pytest.approx(5 / 3 / 5)


def test_wrong_removal_set_fails_the_check():
    g, edges = PATH, sorted(PATH.edges)
    optimum = oracle.exhaustive_optimum(g.n, edges, 1, "cole2", None)
    result = _solve(g, 1, "cole2")
    wrong = dataclasses.replace(result, removed=(0,), labels=("0",))
    with pytest.raises(oracle.CheckFailed):
        oracle.check_removal(g.n, edges, 1, "cole2", None, wrong, optimum)
    # the value of the wrong set is rechecked even without the oracle
    with pytest.raises(oracle.CheckFailed):
        oracle.check_removal(g.n, edges, 1, "cole2", None, wrong)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_removal(g.n, edges, 1, "cole2", None,
                             dataclasses.replace(result, ties=result.ties + 1),
                             optimum)


def _small_dismantle(tmp_path):
    wl = workloads.DismantleWorkload(5, tmp_path)
    wl.rotation = [q for q in wl.rotation if q.cls in ("k1", "emit", "refuse")]
    wl.pass_length = len(wl.rotation)
    return wl


def test_dismantle_rotation_passes_its_checks(tmp_path):
    wl = _small_dismantle(tmp_path)
    loop = run.Loop()
    run.one_rotation(wl, loop)
    assert loop.failed == 0 and loop.attempted == len(wl.rotation)
    assert wl.emitted_bytes() > 0


def test_injected_wrong_answer_counts_as_failed_op(tmp_path, monkeypatch):
    wl = _small_dismantle(tmp_path)
    real = dismantle.best_removal

    def wrong(q):
        result = real(q)
        if not result.removed:
            return dataclasses.replace(result, removed=(0,), labels=("0",))
        return dataclasses.replace(result, removed=result.removed[:-1],
                                   labels=result.labels[:-1])

    monkeypatch.setattr(dismantle, "best_removal", wrong)
    loop = run.Loop()
    run.one_rotation(wl, loop)
    refused = sum(q.cls == "refuse" for q in wl.rotation)
    assert loop.failed == loop.attempted - refused > 0


def test_refusal_that_does_not_happen_is_a_failed_op(tmp_path):
    wl = _small_dismantle(tmp_path)
    q = next(q for q in wl.rotation if q.cls == "refuse")
    with pytest.raises(oracle.CheckFailed):
        wl.check(q, (None, None), None)


def test_inputs_are_a_pure_function_of_the_seed(tmp_path):
    def fingerprint(seed):
        return [(q.cls, q.objective, q.k, q.n, q.edges)
                for q in workloads.dismantle_rotation(seed)]

    assert fingerprint(3) == fingerprint(3)
    assert fingerprint(3) != fingerprint(4)
    classes = [q.cls for q in workloads.dismantle_rotation(3)]
    assert set(classes) == set(workloads.QUERY_CLASSES)

    def survey_bytes(seed, directory):
        s = workloads.make_survey(seed, directory)
        for spec, stem in s.specs:
            workloads.datasets.write_suite(spec, directory / "suite", stem=stem)
        return {p.relative_to(directory): p.read_bytes()
                for p in sorted(directory.rglob("*")) if p.is_file()}

    first = survey_bytes(3, tmp_path / "a")
    assert first == survey_bytes(3, tmp_path / "b")
    assert first != survey_bytes(4, tmp_path / "c")


def test_score_suite_round_is_checked(tmp_path):
    wl = workloads.ScoreSuiteWorkload(2, tmp_path)
    op = wl.rotation[0]
    outcome = wl.run(op)
    wl.check(op, outcome, None)
    assert wl.bytes_written > 0
    fit = outcome.fits[0]
    outcome.fits[0] = dataclasses.replace(
        fit, residual_norm=fit.residual_norm * 1.01 + 1e-3)
    with pytest.raises(oracle.CheckFailed):
        wl.check(op, outcome, None)


def test_fit_check_rejects_a_non_optimal_fit(tmp_path):
    wl = workloads.ScoreSuiteWorkload(2, tmp_path)
    fit = wl.run(wl.rotation[0]).fits[0]
    bent = list(fit.weights.weights)
    bent[0] += 0.1
    residual = [sum(v * bent[s - 1] for s, v in row.items()) - t
                for row, t in zip(wl.rows, wl.targets)]
    norm = sum(r * r for r in residual) ** 0.5
    with pytest.raises(oracle.CheckFailed):
        oracle.check_fit(wl.rows, wl.targets, tuple(bent), 0.0, norm)


def test_cli_child_matches_in_process_reference(tmp_path):
    wl = workloads.CliColdWorkload(2, tmp_path)
    for label in ("eval_match", "gen"):
        op = next(op for op in wl.rotation if op.label == label)
        wl.prepare(op)
        outcome = wl.run(op)
        wl.check(op, outcome, None)
    assert wl.peak_rss_kib() > 0
    with pytest.raises(oracle.CheckFailed):
        wl.check(op, dataclasses.replace(outcome, stdout=b"x"), None)


def test_numpy_import_time_is_read_from_importtime_output():
    stderr = (b"import time: self [us] | cumulative | imported package\n"
              b"import time:       310 |        310 |     numpy.version\n"
              b"import time:      2500 |     151234 | numpy\n"
              b"import time:       900 |     160000 | netstrength.cli\n")
    assert workloads.numpy_import_ms(stderr) == pytest.approx(151.234)
    assert workloads.numpy_import_ms(b"import time: 12 | 12 | json\n") == 0.0


def _attributes():
    snapshot = {}
    for module in tracer._package_modules():
        snapshot.update({(module.__name__, k): v for k, v in vars(module).items()})
    for cls in (graph.Graph, workloads.datasets.EdgeListFile):
        snapshot.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snapshot


def test_tracer_records_spans_and_removes_every_wrapper():
    before = _attributes()
    tr = tracer.Tracer()
    with tracer.traced(tr):
        assert _attributes() != before
        _solve(PATH, 2, "proposed")
    assert _attributes() == before
    sets = oracle.enumeration_size(PATH.n, 2)
    assert tr.get("dismantle.best_removal").calls == 1
    assert tr.get("dismantle.evaluate_removal").calls == sets
    assert tr.parents["dismantle.best_removal",
                      "dismantle.evaluate_removal"] == sets
    assert tr.parents["graph.remove_nodes", "graph.Graph.build"] == sets
    for stats in tr.stats.values():
        assert 0 <= stats.self_ns <= stats.total_ns


def test_tracer_restores_attributes_when_the_block_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with tracer.traced(tracer.Tracer()):
            raise RuntimeError("boom")
    assert _attributes() == before
