"""Command-line interface.

Machine-readable results go to stdout (or ``--out`` files); diagnostics and
warnings go to stderr, so output can be piped safely. Every subcommand is
deterministic given its flags and seeds. Each imports the modules it runs
when it runs, so a command loads no search, fit or evaluation code it does
not use.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Iterable

from . import datasets, metrics
from .graph import Graph, components

logger = logging.getLogger(__name__)


def _resolve_weights(args: argparse.Namespace,
                     needed: bool) -> metrics.WeightVector | None:
    """``--weights`` under the ``--clamp-weights`` policy, if ``needed``."""
    if not needed:
        return None
    policy = (metrics.EXTENSION_CLAMP if args.clamp_weights
              else metrics.EXTENSION_ERROR)
    if args.weights == "default":
        from .weights import default_weights
        return default_weights().with_policy(policy)
    return metrics.load_weights(args.weights, policy)


def _metric_list(value: str) -> list[str]:
    names = [name.strip() for name in value.split(",") if name.strip()]
    for name in names:
        if name not in metrics.METRIC_IDS:
            raise argparse.ArgumentTypeError(
                f"unknown metric {name!r}; choose from "
                f"{', '.join(metrics.METRIC_IDS)}"
            )
        if names.count(name) > 1:
            raise argparse.ArgumentTypeError(f"metric {name!r} given twice")
    if not names:
        raise argparse.ArgumentTypeError("empty metric list")
    return names


def _check_outputs(args: argparse.Namespace,
                   graph_ids: Iterable[str] = ()) -> None:
    """No output may name another output or an input, the edge list in
    ``--graphs`` of each of ``graph_ids`` included: it would overwrite it.
    A clash raises ``ArgumentError``, on which ``main`` exits 2."""
    written = ("out_weights", "report", "emit_lp", "out", "summary_out")
    if not any(getattr(args, dest, None) for dest in written):
        return  # nothing goes to a file, so nothing can be overwritten
    named = [(dest, getattr(args, dest, None)) for dest in
             written + ("graph", "survey", "pred", "gt", "weights")]
    named += [("graphs", datasets.graph_path(args.graphs, graph_id))
              for graph_id in graph_ids]
    outputs: dict[Path, str] = {}
    for dest, path in named:
        if path and not (dest == "weights" and path == "default"):
            flag = dest if dest == "graph" else "--" + dest.replace("_", "-")
            path = Path(path).resolve()
            clash = outputs.get(path, flag)
            if clash != flag:
                raise argparse.ArgumentError(
                    None, f"{clash} and {flag} name the same file {path}")
            if dest in written:  # two inputs may name the same file
                outputs[path] = flag


def _write_or_print(chunks: Iterable[str], out: str | None) -> None:
    """Every command writes through here: to the file ``out``, or stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def cmd_gen(args: argparse.Namespace) -> int:
    spec = datasets.GeneratorSpec(
        model=args.model, n=args.n, p=args.p, m=args.m,
        seed=args.seed, count=args.count,
    )
    paths = datasets.write_suite(spec, args.out, stem=args.stem)
    logger.info("wrote %d graph(s) to %s", len(paths), args.out)
    return 0


def cmd_strength(args: argparse.Namespace) -> int:
    if args.all_metrics and args.metrics:  # one of them would go unread
        raise ValueError("--metrics and --all-metrics exclude each other")
    graph = datasets.load_edge_list(args.graph)
    selected = (list(metrics.METRIC_IDS) if args.all_metrics
                else args.metrics or ["proposed"])
    weights = _resolve_weights(args, "proposed" in selected)
    # every row is computed from one traversal of the graph before any is
    # written: a failure leaves no output
    sizes = components(graph)
    raws = [metrics.score(sizes, m, weights) for m in selected]
    _write_or_print([datasets.csv_text(
        ["metric", "raw", "normalized"],
        [[m, raw, raw / graph.n] for m, raw in zip(selected, raws)],
    )], None)
    return 0


def cmd_fit_weights(args: argparse.Namespace) -> int:
    from . import weights
    weights.check_ridge(args.ridge)
    dataset = weights.load_survey_csv(args.survey, args.graphs)
    _check_outputs(args, (record.graph_id for record in dataset.records))
    system = weights.build_system(dataset)
    result = weights.fit_weights(system, ridge=args.ridge)
    _write_or_print([metrics.weights_csv(result.weights)], args.out_weights)
    report_line = json.dumps({
        "residual_norm": result.residual_norm,
        "rank": result.rank,
        "lambda": result.regularization,
        "graphs": len(system.graph_ids),
        "size_limit": system.size_limit,
    }, sort_keys=True)
    # the report goes to its file, or to stdout when the weights do not
    if args.report or args.out_weights:
        _write_or_print([report_line, "\n"], args.report)
    logger.info(
        "fit %d weights from %d graphs (residual %.6g, rank %d); %d size(s) "
        "absent from every surveyed graph got weight 0", system.size_limit,
        len(system.graph_ids), result.residual_norm, result.rank,
        sum(not any(column) for column in zip(*system.matrix)),
    )
    return 0


def cmd_dismantle(args: argparse.Namespace) -> int:
    from . import dismantle
    graph = datasets.load_edge_list(args.graph)
    weights = _resolve_weights(args, args.objective == "proposed"
                               or bool(args.emit_lp))
    query = dismantle.DismantleQuery(
        graph=graph, k=args.k, objective=args.objective, weights=weights,
        allow_fewer=not args.exact_size, max_subsets=args.budget)
    if args.emit_lp:  # the model's weights are checked before the search
        if not (args.clamp_weights or len(weights) >= graph.n):
            raise ValueError(f"--emit-lp needs weights for sizes 1..{graph.n}"
                             f", got {len(weights)}; pass --clamp-weights")
        weights.check_overflow(graph.n)
    result = dismantle.best_removal(query)
    # the model is built after the search succeeds and before its file is
    # opened: a refused or failed run or model leaves no file behind
    if args.emit_lp:
        from . import ilp
        _write_or_print(ilp.render_ilp(graph, args.k, weights), args.emit_lp)
        logger.info("wrote model to %s", args.emit_lp)
    _write_or_print(
        [json.dumps(result.to_json_dict(), sort_keys=True), "\n"], args.out
    )
    return 0


def _check_ids(args: argparse.Namespace, preds: dict, gt: dict,
               unknown: str) -> None:
    """Both files must cover the same ids: a subset would score silently.
    Each error names the first such id in its file; ``unknown`` words the
    one for a prediction without ground truth."""
    graph_id = next((g for g in preds if g not in gt), None)
    if graph_id is not None:
        raise ValueError(f"{datasets.graph_id_row(args.pred, graph_id)}: "
                         f"{unknown} {graph_id!r}")
    graph_id = next((g for g in gt if g not in preds), None)
    if graph_id is not None:
        raise ValueError(f"{datasets.graph_id_row(args.gt, graph_id)}: "
                         f"no prediction for graph id {graph_id!r}")


def _check_estimates(gt: dict[str, float], graphs: dict[str, Graph],
                     source: str) -> None:
    """Check each mean's range; an error names its row in ``source``."""
    for graph_id, graph in graphs.items():
        try:
            datasets.check_estimate("mean_estimate", gt[graph_id], graph_id,
                                    graph.n)
        except ValueError as error:
            raise ValueError(f"{datasets.graph_id_row(source, graph_id)}: "
                             f"{error}") from None


def cmd_eval(args: argparse.Namespace) -> int:
    from . import evaluation
    # a flag of the other mode would go unread or unwritten: refuse it first
    for flag, mode in (("--out", "match"), ("--csv", "match"),
                       ("--summary-out", "match"), ("--graphs", "strength")):
        if mode != args.mode and getattr(args, flag[2:].replace("-", "_")):
            raise ValueError(f"{flag} is only used in {mode} mode")
    if args.mode == "match":
        preds = evaluation.load_predictions_csv(args.pred)
        gt = evaluation.load_ranked_gt_csv(args.gt)
        _check_ids(args, preds, gt, "no ground truth for predicted graph")
        report = evaluation.match_stats(preds, gt)
        if args.out:
            _write_or_print([report.detail_csv()], args.out)
        if args.summary_out:
            _write_or_print([report.summary_csv()], args.summary_out)
        if args.csv:
            _write_or_print([report.detail_csv(), report.summary_csv()], None)
        else:
            _write_or_print([report.format_table(), "\n"], None)
        return 0
    # strength mode: RMSE of normalized predictions vs normalized estimates
    if not args.graphs:
        raise ValueError("--graphs is required in strength mode")
    preds = evaluation.load_strength_values_csv(args.pred)
    gt = evaluation.load_strength_gt_csv(args.gt)
    _check_ids(args, preds, gt, "prediction for unknown graph id")
    graphs = datasets.load_graphs(args.graphs, preds, args.pred)
    _check_estimates(gt, graphs, args.gt)
    value = evaluation.rmse([preds[g] for g in graphs],
                            [gt[g] / graph.n for g, graph in graphs.items()])
    _write_or_print([datasets.csv_text(["statistic", "value"],
                                       [["rmse", value]])], None)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from . import evaluation
    gt = evaluation.load_strength_gt_csv(args.gt)
    graphs = datasets.load_graphs(args.graphs, gt, args.gt)
    _check_estimates(gt, graphs, args.gt)
    _check_outputs(args, graphs)
    result = evaluation.compare_suite(
        list(graphs.items()), gt, args.metrics,
        _resolve_weights(args, "proposed" in args.metrics))
    _write_or_print([result.to_csv()], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netstrength",
        description=(
            "Measure graph strength with perception-calibrated component "
            "weights, fit the weights from survey estimates, find optimal "
            "node removals, and score agreement with survey ground truth."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    weighted = argparse.ArgumentParser(add_help=False)
    weighted.add_argument("--weights", default="default",
                          help="weight CSV path or 'default'")
    weighted.add_argument("--clamp-weights", action="store_true",
                          help="reuse the last weight beyond its length")

    gen = sub.add_parser("gen", help="generate seeded random graph suites")
    gen.add_argument("--model", choices=(datasets.GNP, datasets.GNM),
                     required=True)
    gen.add_argument("--n", type=int, required=True, help="nodes per graph")
    gen.add_argument("--p", type=float, help="edge probability (gnp)")
    gen.add_argument("--m", type=int, help="exact edge count (gnm)")
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--stem", default="graph")
    gen.set_defaults(func=cmd_gen)

    strength = sub.add_parser("strength", help="score one graph",
                              parents=[weighted])
    strength.add_argument("graph", help="edge-list file")
    strength.add_argument("--metrics", type=_metric_list,
                          help="comma-separated metric ids")
    strength.add_argument("--all-metrics", action="store_true")
    strength.set_defaults(func=cmd_strength)

    fit = sub.add_parser("fit-weights",
                         help="fit weights from survey estimates")
    fit.add_argument("--survey", required=True,
                     help="CSV: graph_id,participant_id,estimate")
    fit.add_argument("--graphs", required=True,
                     help="directory of <graph_id>.edges files")
    fit.add_argument("--lambda", dest="ridge", type=float, default=0.0,
                     help="ridge regularization strength")
    fit.add_argument("--out-weights", help="weight CSV output path")
    fit.add_argument("--report", help="JSON-lines fit report path")
    fit.set_defaults(func=cmd_fit_weights)

    dis = sub.add_parser("dismantle", help="find the best removal set",
                         parents=[weighted])
    dis.add_argument("graph", help="edge-list file")
    dis.add_argument("--k", type=int, required=True, help="removal budget")
    dis.add_argument("--objective", choices=metrics.METRIC_IDS,
                     default="proposed")
    dis.add_argument("--exact-size", action="store_true",
                     help="require exactly k removals instead of at most k")
    dis.add_argument("--budget", type=int,
                     help="override the candidate-set budget")
    dis.add_argument("--emit-lp", metavar="PATH",
                     help="also write the integer-program model as LP text")
    dis.add_argument("--out", help="write result JSON here instead of stdout")
    dis.set_defaults(func=cmd_dismantle)

    ev = sub.add_parser("eval", help="score predictions against ground truth")
    ev.add_argument("--mode", choices=("strength", "match"), required=True)
    ev.add_argument("--pred", required=True, help="predictions CSV")
    ev.add_argument("--gt", required=True, help="ground-truth CSV")
    ev.add_argument("--graphs",
                    help="edge-list directory (strength mode)")
    ev.add_argument("--out", help="detail CSV path (match mode)")
    ev.add_argument("--summary-out", help="summary CSV path (match mode)")
    ev.add_argument("--csv", action="store_true",
                    help="print CSV to stdout instead of a table")
    ev.set_defaults(func=cmd_eval)

    cmp_parser = sub.add_parser(
        "compare", help="normalized metric-vs-truth table with RMSE rows",
        parents=[weighted],
    )
    cmp_parser.add_argument("--graphs", required=True)
    cmp_parser.add_argument("--gt", required=True,
                            help="CSV: graph_id,mean_estimate")
    cmp_parser.add_argument("--metrics", type=_metric_list,
                            default=list(metrics.METRIC_IDS))
    cmp_parser.add_argument("--out", help="output CSV path")
    cmp_parser.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format="%(levelname)s %(message)s", force=True,
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
