"""The benchmark's three workloads.

Each workload is built from a seed alone (``Workload(seed, workdir)`` is the
set-up), exposes one fixed rotation of operations, runs one operation at a
time through the package's public module attributes, and checks every answer
with the independent code in :mod:`oracle`, outside the timed region.

* ``dismantle``   one op is one exact ``best_removal`` query
* ``score-suite`` one op is one survey round: write, read, fit, compare, eval
* ``cli-cold``    one op is one fresh ``python -m netstrength.cli`` process

The package is imported from ``src/`` of the checkout this file sits in, never
from an installed copy.
"""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import os
import random
import resource
import selectors
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "netstrength" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no package source under {SRC}")
sys.path.insert(0, str(SRC))

import netstrength  # noqa: E402
from netstrength import (  # noqa: E402
    datasets, dismantle, evaluation, ilp, metrics, weights,
)

import oracle  # noqa: E402
from oracle import CheckFailed, require  # noqa: E402

if Path(netstrength.__file__).resolve().parent != SRC / "netstrength":
    raise SystemExit(f"perfbench: imported netstrength from "
                     f"{netstrength.__file__}, not from {SRC}")


def clamped_default_weights() -> metrics.WeightVector:
    return weights.default_weights().with_policy(metrics.EXTENSION_CLAMP)


def _gnp(n: int, p: float, seed: int):
    spec = datasets.GeneratorSpec(model=datasets.GNP, n=n, p=p, seed=seed)
    return datasets.generate(spec)[0]


# --- dismantle ------------------------------------------------------------

@dataclass(frozen=True)
class QueryClass:
    n: int
    p: float
    k: int
    min_components: int = 1
    connected: bool = False

    @property
    def m(self) -> int:
        """Edge count of a G(n, p) graph of expected density ``p``."""
        return round(self.p * self.n * (self.n - 1) / 2)


# Each class makes one search mechanism matter and leaves the others idle:
# the sparse classes split into many components, the dense ones are
# connected, only k1 is a single-removal query, emit also writes the model,
# and refuse is far past any exact-search budget. Graphs are G(n, m) with the
# edge count of density p, so a query's cost does not swing with the seed's
# edge count.
QUERY_CLASSES = {
    "k1": QueryClass(n=40, p=0.06, k=1),
    "sparse2": QueryClass(n=40, p=0.05, k=2, min_components=4),
    "dense2": QueryClass(n=40, p=0.15, k=2, connected=True),
    "sparse3": QueryClass(n=25, p=0.06, k=3, min_components=4),
    "dense3": QueryClass(n=25, p=0.2, k=3, connected=True),
    "k4": QueryClass(n=22, p=0.15, k=4),
    "emit": QueryClass(n=30, p=0.1, k=2),
    "refuse": QueryClass(n=200, p=0.02, k=5),
}

# One pass. The class weights keep the median inside dense2 and the 90th
# percentile inside k4, away from the jump between two classes' latencies.
PASS_CLASSES = ("refuse", "k1", "emit", "sparse2", "dense2",
                "dense2", "sparse3", "dense3", "k4", "k4")
PASSES_PER_ROTATION = len(metrics.METRIC_IDS)


@dataclass(frozen=True)
class Query:
    index: int
    cls: str
    objective: str
    graph: object
    k: int
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def label(self) -> str:
        return self.cls

    @property
    def exhaustive_sets(self) -> int:
        return oracle.enumeration_size(self.n, self.k)


def _class_graph(cls: QueryClass, rng: random.Random):
    while True:
        spec = datasets.GeneratorSpec(model=datasets.GNM, n=cls.n, m=cls.m,
                                      seed=rng.randrange(2**31))
        graph = datasets.generate(spec)[0]
        count = len(oracle.residual_sizes(graph.n, graph.edges))
        if count >= cls.min_components and (count == 1 or not cls.connected):
            return graph


def dismantle_rotation(seed: int) -> list[Query]:
    """Every distinct query once: four passes, objectives rotating by slot."""
    rng = random.Random(f"dismantle:{seed}")
    queries = []
    for pass_no in range(PASSES_PER_ROTATION):
        for slot, name in enumerate(PASS_CLASSES):
            objective = metrics.METRIC_IDS[(pass_no + slot) % PASSES_PER_ROTATION]
            graph = _class_graph(QUERY_CLASSES[name], rng)
            queries.append(Query(
                index=len(queries), cls=name, objective=objective,
                graph=graph, k=QUERY_CLASSES[name].k,
                edges=tuple(sorted(graph.edges)),
            ))
    return queries


class DismantleWorkload:
    name = "dismantle"
    pass_length = len(PASS_CLASSES)

    def __init__(self, seed: int, workdir: Path):
        self.weights = clamped_default_weights()
        self.rotation = dismantle_rotation(seed)
        self._optimum: dict[int, tuple] = {}
        self._emitted: dict[int, str] = {}

    def prepare(self, q: Query) -> None:
        pass

    def run(self, q: Query):
        text = None
        if q.cls == "emit":
            text = ilp.emit_ilp(q.graph, q.k, self.weights)
        query = dismantle.DismantleQuery(
            graph=q.graph, k=q.k, objective=q.objective,
            weights=self.weights if q.objective == "proposed" else None,
        )
        return dismantle.best_removal(query), text

    def check(self, q: Query, outcome, error) -> None:
        if q.cls == "refuse":
            require(isinstance(error, dismantle.ExactSearchBudgetError),
                    f"query {q.index} was not refused: {error or outcome!r}")
            return
        if error is not None:
            raise CheckFailed(f"query {q.index} raised {error!r}")
        result, text = outcome
        w = self.weights.weights
        if q.exhaustive_sets <= oracle.ORACLE_MAX_SETS and q.index not in self._optimum:
            self._optimum[q.index] = oracle.exhaustive_optimum(
                q.n, q.edges, q.k, q.objective, w)
        oracle.check_removal(q.n, q.edges, q.k, q.objective, w, result,
                             self._optimum.get(q.index))
        if text is not None:
            first = self._emitted.setdefault(q.index, text)
            require(text == first, f"query {q.index} emitted a different model")
            oracle.check_emit(ilp, q.graph, q.n, q.edges, q.k, self.weights,
                              text, result)

    def emitted_bytes(self) -> int:
        return sum(len(text.encode()) for text in self._emitted.values())

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- survey data shared by score-suite and cli-cold -----------------------

# (n, p) of each block of the suite; n=36 and n=44 exceed the 30-entry
# default weight vector, so scoring them uses the clamp policy.
SUITE_BLOCKS = ((12, 0.2), (20, 0.12), (28, 0.08), (36, 0.07), (44, 0.05))
GRAPHS_PER_BLOCK = 8
PARTICIPANTS = 4
RIDGE = 0.5


@dataclass
class Survey:
    """A generated survey suite and everything the checks expect of it."""

    specs: list  # (GeneratorSpec, stem) per block
    ids: list[str]
    node_counts: dict[str, int]
    edge_counts: dict[str, int]
    sizes: dict[str, list[int]]
    estimates: dict[str, tuple[float, ...]]
    survey_csv: Path
    gt_csv: Path
    pred_csv: Path
    gt: dict[str, float] = field(default_factory=dict)
    pred: dict[str, float] = field(default_factory=dict)


def make_survey(seed: int, directory: Path) -> Survey:
    """Generate the suite specs and write the survey, ground-truth and
    prediction CSVs into ``directory``. The edge lists themselves are written
    by :func:`datasets.write_suite` from ``specs``."""
    rng = random.Random(f"survey:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    default = weights.default_weights().weights
    truth = tuple(w * rng.uniform(0.8, 1.2) for w in default)
    specs, ids = [], []
    survey = Survey(specs=specs, ids=ids, node_counts={}, edge_counts={},
                    sizes={}, estimates={},
                    survey_csv=directory / "survey.csv",
                    gt_csv=directory / "gt.csv",
                    pred_csv=directory / "pred.csv")
    for n, p in SUITE_BLOCKS:
        spec = datasets.GeneratorSpec(model=datasets.GNP, n=n, p=p,
                                      seed=rng.randrange(2**31),
                                      count=GRAPHS_PER_BLOCK)
        stem = f"n{n}"
        specs.append((spec, stem))
        for index, graph in enumerate(datasets.generate(spec)):
            graph_id = f"{stem}_{index}"
            ids.append(graph_id)
            sizes = oracle.residual_sizes(graph.n, graph.edges)
            strength = oracle.weighted_strength(sizes, truth)
            survey.node_counts[graph_id] = n
            survey.edge_counts[graph_id] = graph.edge_count
            survey.sizes[graph_id] = sorted(sizes)
            survey.estimates[graph_id] = tuple(
                round(min(n, max(1.0, strength * rng.gauss(1.0, 0.15))), 4)
                for _ in range(PARTICIPANTS)
            )
    ids.sort()
    with open(survey.survey_csv, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(weights.SURVEY_HEADER)
        for graph_id in ids:
            for participant, value in enumerate(survey.estimates[graph_id]):
                writer.writerow([graph_id, f"p{participant}", repr(value)])
    for graph_id in ids:
        values = survey.estimates[graph_id]
        survey.gt[graph_id] = sum(values) / len(values)
        survey.pred[graph_id] = oracle.normalized_metric(
            survey.sizes[graph_id], "proposed", default)
    for path, header, table in ((survey.gt_csv, "mean_estimate", survey.gt),
                                (survey.pred_csv, "value", survey.pred)):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["graph_id", header])
            for graph_id in ids:
                writer.writerow([graph_id, repr(table[graph_id])])
    return survey


MATCH_FIXTURES = tuple(
    (f"{kind}_pred_{metric}.csv", f"{kind}_gt.csv")
    for kind in ("single", "pairs") for metric in metrics.METRIC_IDS
)


def _members(text: str) -> frozenset[str]:
    return frozenset(t.strip() for t in text.split(";") if t.strip())


def expected_match(pred_path: Path, gt_path: Path) -> tuple:
    """(exact, rank, percentage) match of a bundled prediction file."""
    with open(pred_path, newline="", encoding="utf-8") as handle:
        preds = {row["graph_id"].strip(): _members(row["members"])
                 for row in csv.DictReader(handle)}
    ranked: dict[str, list] = {}
    with open(gt_path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            share = (row.get("vote_share") or "").strip()
            ranked.setdefault(row["graph_id"], []).append(
                (int(row["rank"]), _members(row["members"]),
                 float(share) if share else None))
    ranks, shares = [], []
    for graph_id in sorted(preds):
        candidates = sorted(ranked[graph_id], key=lambda c: c[0])
        rank = next((r for r, members, _ in candidates
                     if members == preds[graph_id]), None)
        ranks.append(rank)
        if all(s is not None for _, _, s in candidates):
            shares.append(0.0 if rank is None else candidates[rank - 1][2])
    exact = sum(r == 1 for r in ranks) / len(ranks)
    rank_match = (sum(ranks) / len(ranks)
                  if all(r is not None for r in ranks) else None)
    percentage = sum(shares) / len(ranks) if len(shares) == len(ranks) else None
    return exact, rank_match, percentage


# --- score-suite ----------------------------------------------------------

@dataclass(frozen=True)
class Round:
    label: str = "round"


@dataclass
class RoundResult:
    dataset: object
    system: object
    fits: list
    table: object
    strength_rmse: float
    reports: list


class ScoreSuiteWorkload:
    name = "score-suite"
    pass_length = 1

    def __init__(self, seed: int, workdir: Path):
        self.survey = make_survey(seed, workdir)
        self.suite_dir = workdir / "suite"
        self.weights = clamped_default_weights()
        self.rotation = [Round()]
        self.fixtures = [
            (datasets.bundled_eval_path(pred), datasets.bundled_eval_path(gt))
            for pred, gt in MATCH_FIXTURES
        ]
        self.expected_reports = [expected_match(p, g) for p, g in self.fixtures]
        s = self.survey
        w = self.weights.weights
        self.rows = [oracle.design_row(s.sizes[i]) for i in s.ids]
        self.targets = [sum(s.estimates[i]) / PARTICIPANTS for i in s.ids]
        self.expected_norms = {
            m: [oracle.normalized_metric(s.sizes[i], m, w) for i in s.ids]
            for m in metrics.METRIC_IDS
        }
        self.gt_norms = [s.gt[i] / s.node_counts[i] for i in s.ids]
        self.expected_strength_rmse = oracle.rmse(
            [s.pred[i] for i in s.ids], self.gt_norms)
        self.bytes_written = 0

    def prepare(self, op) -> None:
        # Each round writes a fresh suite. Rewriting the same files in place
        # makes ext4 start writeback on close (it flushes files truncated
        # and rewritten), which put disk latency into the round's tail.
        shutil.rmtree(self.suite_dir, ignore_errors=True)

    def run(self, op) -> RoundResult:
        for spec, stem in self.survey.specs:
            datasets.write_suite(spec, self.suite_dir, stem=stem)
        dataset = weights.load_survey_csv(self.survey.survey_csv, self.suite_dir)
        system = weights.build_system(dataset)
        fits = [weights.fit_weights(system, ridge=r) for r in (0.0, RIDGE)]
        gt = evaluation.load_strength_gt_csv(self.survey.gt_csv)
        graphs = [(record.graph_id, record.graph) for record in dataset.records]
        table = evaluation.compare_suite(graphs, gt, metrics.METRIC_IDS,
                                         self.weights)
        preds = evaluation.load_strength_values_csv(self.survey.pred_csv)
        sizes = {record.graph_id: record.graph.n for record in dataset.records}
        strength_rmse = evaluation.rmse(
            [preds[i] for i in sorted(preds)],
            [gt[i] / sizes[i] for i in sorted(preds)],
        )
        truths = {}
        reports = []
        for pred_path, gt_path in self.fixtures:
            if gt_path not in truths:
                truths[gt_path] = evaluation.load_ranked_gt_csv(gt_path)
            reports.append(evaluation.match_stats(
                evaluation.load_predictions_csv(pred_path), truths[gt_path]))
        return RoundResult(dataset, system, fits, table, strength_rmse, reports)

    def check(self, op, outcome: RoundResult, error) -> None:
        if error is not None:
            raise CheckFailed(f"survey round raised {error!r}")
        s = self.survey
        records = outcome.dataset.records
        require([r.graph_id for r in records] == s.ids, "survey graph ids")
        for record in records:
            graph_id, g = record.graph_id, record.graph
            require(g.n == s.node_counts[graph_id]
                    and g.edge_count == s.edge_counts[graph_id],
                    f"{graph_id}: read back n={g.n}, m={g.edge_count}")
            require(sorted(oracle.residual_sizes(g.n, g.edges))
                    == s.sizes[graph_id], f"{graph_id}: component sizes")
            require(record.estimates == s.estimates[graph_id],
                    f"{graph_id}: estimates {record.estimates}")
        require(tuple(outcome.system.graph_ids) == tuple(s.ids),
                "design matrix rows")
        for ridge, fit in zip((0.0, RIDGE), outcome.fits):
            require(fit.regularization == ridge, f"fit lambda {fit.regularization}")
            oracle.check_fit(self.rows, self.targets, fit.weights.weights,
                             ridge, fit.residual_norm)
        table = outcome.table
        require(table.metrics == metrics.METRIC_IDS, f"metrics {table.metrics}")
        require([row[0] for row in table.rows] == s.ids, "compare row ids")
        for j, row in enumerate(table.rows):
            _, n, gt_norm, *values = row
            require(n == s.node_counts[row[0]] and oracle.close(gt_norm, self.gt_norms[j]),
                    f"compare row {row[0]}: n={n}, gt_norm={gt_norm}")
            for metric, value in zip(metrics.METRIC_IDS, values):
                require(oracle.close(value, self.expected_norms[metric][j]),
                        f"compare {row[0]} {metric}: {value}")
        for metric in metrics.METRIC_IDS:
            expected = oracle.rmse(self.expected_norms[metric], self.gt_norms)
            require(oracle.close(table.rmse_by_metric[metric], expected),
                    f"rmse:{metric} {table.rmse_by_metric[metric]} != {expected}")
        require(oracle.close(outcome.strength_rmse, self.expected_strength_rmse),
                f"strength rmse {outcome.strength_rmse}")
        for report, (exact, rank, share), (pred_path, _) in zip(
                outcome.reports, self.expected_reports, self.fixtures):
            require((report.exact_match, report.rank_match,
                     report.percentage_match) == (exact, rank, share),
                    f"{pred_path.name}: match {report.exact_match}, "
                    f"{report.rank_match}, {report.percentage_match}")
        self.bytes_written = sum(
            p.stat().st_size for p in self.suite_dir.iterdir())

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- cli-cold -------------------------------------------------------------

# Stands in an op's argv for the path it writes to. Every op writes to a new
# path, so the check sees only what that op's child wrote and nothing has to
# be deleted between ops.
OUT = "{out}"


@dataclass(frozen=True)
class CliOp:
    label: str
    argv: tuple[str, ...]
    # name of the file or directory written at OUT, whose bytes must match
    # the in-process reference run
    output: str | None = None


@dataclass
class ChildRun:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kib: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, env) -> ChildRun:
    """Run one child to completion; its own peak RSS comes from wait4."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            cwd=ROOT, env=env)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(out_fd, selectors.EVENT_READ)
            selector.register(err_fd, selectors.EVENT_READ)
            while selector.get_map():
                for key, _ in selector.select():
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        selector.unregister(key.fd)
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, b"".join(chunks[out_fd]),
                    b"".join(chunks[err_fd]), usage.ru_maxrss)


def numpy_import_ms(importtime_stderr: bytes) -> float:
    """numpy's cumulative import time in ``-X importtime`` output, 0 when the
    child never imported it."""
    for line in importtime_stderr.decode(errors="replace").splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e3
    return 0.0


def _tree_bytes(path: Path) -> dict[str, bytes]:
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    return {path.name: path.read_bytes()}


class CliColdWorkload:
    name = "cli-cold"

    def __init__(self, seed: int, workdir: Path):
        from netstrength import cli

        rng = random.Random(f"cli:{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        survey = make_survey(seed, workdir)
        suite = workdir / "suite"
        for spec, stem in survey.specs:
            datasets.write_suite(spec, suite, stem=stem)
        files = {}
        for name, n, p in (("strength", 40, 0.06), ("dismantle", 24, 0.12),
                           ("emit", 30, 0.1)):
            files[name] = workdir / f"{name}.edges"
            datasets.save_edge_list(_gnp(n, p, rng.randrange(2**31)), files[name])
        bundled = datasets.bundled_eval_path
        self.rotation = [
            CliOp("gen", ("gen", "--model", "gnp", "--n", "20", "--p", "0.1",
                          "--count", "4", "--seed", str(seed), "--out", OUT),
                  "gen"),
            CliOp("strength", ("strength", str(files["strength"]),
                               "--all-metrics", "--clamp-weights")),
            CliOp("dismantle", ("dismantle", str(files["dismantle"]),
                                "--k", "2")),
            CliOp("dismantle_emit_lp", ("dismantle", str(files["emit"]),
                                        "--k", "2", "--emit-lp", OUT),
                  "model.lp"),
            CliOp("fit_weights", ("fit-weights", "--survey",
                                  str(survey.survey_csv), "--graphs",
                                  str(suite), "--lambda", str(RIDGE))),
            CliOp("compare", ("compare", "--graphs", str(suite), "--gt",
                              str(survey.gt_csv), "--clamp-weights")),
            CliOp("eval_match", ("eval", "--mode", "match", "--pred",
                                 str(bundled("pairs_pred_proposed.csv")),
                                 "--gt", str(bundled("pairs_gt.csv")))),
            CliOp("eval_strength", ("eval", "--mode", "strength", "--pred",
                                    str(survey.pred_csv), "--gt",
                                    str(survey.gt_csv), "--graphs",
                                    str(suite))),
        ]
        self.pass_length = len(self.rotation)
        self.outputs = workdir / "out"
        self.ops = 0
        self.out: Path | None = None
        self.env = child_env()
        # ("-X", "importtime") in the traced run, which then records
        # numpy's import time of every child
        self.child_flags: tuple[str, ...] = ()
        self.numpy_import_ms: list[float] = []
        self.peak_child_kib = 0
        self.reference: dict[str, tuple[bytes, dict]] = {}
        root_handlers = list(logging.root.handlers)
        try:
            for op in self.rotation:
                self.prepare(op)
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(self.argv(op))
                if code != 0:
                    raise RuntimeError(f"reference run of {op.label} exited {code}")
                self.reference[op.label] = (
                    stdout.getvalue().encode(),
                    _tree_bytes(self.out) if op.output else {})
        finally:
            logging.root.handlers[:] = root_handlers

    def prepare(self, op: CliOp) -> None:
        self.ops += 1
        self.out = None
        if op.output:
            self.out = self.outputs / str(self.ops) / op.output
            self.out.parent.mkdir(parents=True)

    def argv(self, op: CliOp) -> list[str]:
        return [str(self.out) if arg == OUT else arg for arg in op.argv]

    def run(self, op: CliOp) -> ChildRun:
        argv = [sys.executable, *self.child_flags, "-m", "netstrength.cli",
                *self.argv(op)]
        return run_child(argv, self.env)

    def check(self, op: CliOp, outcome: ChildRun, error) -> None:
        if error is not None:
            raise CheckFailed(f"{op.label}: could not run child: {error!r}")
        self.peak_child_kib = max(self.peak_child_kib, outcome.maxrss_kib)
        require(outcome.returncode == 0,
                f"{op.label} exited {outcome.returncode}: "
                f"{outcome.stderr.decode(errors='replace')[-400:]}")
        if self.child_flags:
            self.numpy_import_ms.append(numpy_import_ms(outcome.stderr))
        stdout, files = self.reference[op.label]
        require(outcome.stdout == stdout, f"{op.label}: stdout differs")
        if op.output:
            require(_tree_bytes(self.out) == files,
                    f"{op.label}: written files differ")

    def peak_rss_kib(self) -> int:
        return self.peak_child_kib


WORKLOADS = {
    cls.name: cls
    for cls in (DismantleWorkload, ScoreSuiteWorkload, CliColdWorkload)
}
