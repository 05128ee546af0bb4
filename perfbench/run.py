"""netstrength benchmark: one workload per run, closed loop, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dismantle --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of the named workload with the
package unmodified. ``--trace 1`` makes the traced run instead: it sets up
every workload, runs one untraced and one traced rotation of each (repeated
while the workload's share of ``--seconds`` lasts), and reports the per-layer
metrics; see README.md in this directory for what each one means.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A table of the same
metrics with their sample counts, and a ``# env`` line recording the run
environment, come before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import tracer as tracing
import workloads

# p90 needs at least ten samples beyond it; a run continues past --seconds
# (to the end of the current pass) until it has this many.
MIN_OPS = 100
# Stop measuring after this long even if MIN_OPS is not reached, so a run on
# a slow host still ends well inside its time limit.
MAX_LOOP_SECONDS = 120.0
SETUP_REPEATS = 5
CLI_PROBE_REPEATS = 5
MAX_REPORTED_FAILURES = 5


class Loop:
    """Outcome of running ops closed-loop: latencies per op label."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.by_label: defaultdict[str, list[float]] = defaultdict(list)
        self.by_op: defaultdict[int, list[float]] = defaultdict(list)
        self.measured = 0.0
        self.attempted = 0
        self.failed = 0

    def add(self, index: int, label: str, seconds: float, ok: bool) -> None:
        self.attempted += 1
        self.measured += seconds
        if ok:
            self.latencies.append(seconds)
            self.by_label[label].append(seconds)
            self.by_op[index].append(seconds)
        else:
            self.failed += 1


def run_op(wl, index: int, loop: Loop) -> None:
    """Run and time one op, then check it outside the timed region."""
    op = wl.rotation[index]
    wl.prepare(op)
    error = outcome = None
    start = time.perf_counter()
    try:
        outcome = wl.run(op)
    except Exception as exc:  # a raising op is a result the check judges
        error = exc
    elapsed = time.perf_counter() - start
    try:
        wl.check(op, outcome, error)
        ok = True
    except Exception:
        ok = False
        if loop.failed < MAX_REPORTED_FAILURES:
            print(f"perfbench: {wl.name} op {op.label} failed:",
                  file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
    loop.add(index, op.label, elapsed, ok)


def closed_loop(wl, seconds: float) -> Loop:
    """Cycle through the rotation until ``seconds`` of op time and MIN_OPS
    ops are reached, stopping only at the end of a pass."""
    loop, started, i = Loop(), time.perf_counter(), 0
    while True:
        if i % wl.pass_length == 0 and (
            (loop.measured >= seconds and loop.attempted >= MIN_OPS)
            or time.perf_counter() - started > MAX_LOOP_SECONDS
        ):
            return loop
        run_op(wl, i % len(wl.rotation), loop)
        i += 1


def one_rotation(wl, loop: Loop) -> None:
    for index in range(len(wl.rotation)):
        run_op(wl, index, loop)


def p50(values) -> float:
    """Median, or 0 when every op of the kind failed (the run then reports
    ``correct: false``)."""
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else p50(values)


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def probe_setup(name: str, seed: int, workdir: Path) -> list[float]:
    """Set the workload up SETUP_REPEATS times, each in a fresh process."""
    script = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for repeat in range(SETUP_REPEATS):
        target = workdir / f"probe{repeat}"
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(script), name, str(seed), str(target)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            cwd=workloads.ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe for {name} exited {code}")
        times.append(elapsed)
        shutil.rmtree(target, ignore_errors=True)
    return times


def measure(name: str, seed: int, seconds: float, workdir: Path):
    wl = workloads.WORKLOADS[name](seed, workdir / "main")
    loop = closed_loop(wl, seconds)
    peak_kib = wl.peak_rss_kib()
    setups = probe_setup(name, seed, workdir)
    lat, count = loop.latencies, len(loop.latencies)
    metrics = {
        "ops_per_s": metric(count / loop.measured, "1/s", count),
        "op_p50_ms": metric(p50(lat) * 1e3, "ms", count),
        "op_p90_ms": metric(p90(lat) * 1e3, "ms", count),
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "peak_rss_mib": metric(peak_kib / 1024, "MiB", 1),
    }
    return loop, metrics


# --- traced run -------------------------------------------------------------

def _per_call_us(stats, *names, self_time=True) -> float:
    calls = sum(stats.get(n).calls for n in names)
    ns = sum((stats.get(n).self_ns if self_time else stats.get(n).total_ns)
             for n in names)
    return ns / calls / 1e3 if calls else 0.0


def _per_op_ms(stats, ops: int, *names) -> float:
    return sum(stats.get(n).total_ns for n in names) / ops / 1e6 if ops else 0.0


def _calls(stats, passes: int, *names) -> float:
    return sum(stats.get(n).calls for n in names) / passes


def trace_workload(wl, share: float):
    """Alternate untraced and traced rotations while ``share`` seconds last.

    Returns (untraced loop, traced loop, tracer, traced rotations)."""
    plain, traced_loop, tracer = Loop(), Loop(), tracing.Tracer()
    started, passes = time.perf_counter(), 0
    while passes == 0 or time.perf_counter() - started < share:
        one_rotation(wl, plain)
        if isinstance(wl, workloads.CliColdWorkload):
            wl.child_flags = ("-X", "importtime")
            try:
                one_rotation(wl, traced_loop)
            finally:
                wl.child_flags = ()
        else:
            with tracing.traced(tracer):
                one_rotation(wl, traced_loop)
        passes += 1
    return plain, traced_loop, tracer, passes


def _overhead(plain: Loop, traced_loop: Loop) -> float:
    return traced_loop.measured / plain.measured - 1.0


def cli_probes(wl) -> dict:
    """Interpreter floor and the import cost of the CLI above it."""
    def median_ms(argv):
        times = []
        for _ in range(CLI_PROBE_REPEATS):
            start = time.perf_counter()
            run = workloads.run_child(argv, wl.env)
            times.append(time.perf_counter() - start)
            if run.returncode != 0:
                raise RuntimeError(f"{argv} exited {run.returncode}")
        return statistics.median(times) * 1e3

    interp = median_ms([sys.executable, "-c", "pass"])
    imported = median_ms([sys.executable, "-c", "import netstrength.cli"])
    return {
        "cli.interp_ms": (interp, "ms"),
        "cli.import_ms": (imported - interp, "ms"),
    }


def trace_all(seed: int, seconds: float, workdir: Path):
    """The traced run: per-layer metrics of every workload."""
    share = seconds / len(workloads.WORKLOADS)
    out: dict[str, tuple[float, str]] = {}
    attempted = failed = 0
    layer_stats = []  # (workload, tracer, passes) of the in-process workloads

    wl = workloads.DismantleWorkload(seed, workdir / "dismantle")
    plain, traced_loop, tr, passes = trace_workload(wl, share)
    for cls in workloads.QUERY_CLASSES:
        if cls != "refuse":
            out[f"dismantle.{cls}_ms"] = (
                p50(plain.by_label[cls]) * 1e3, "ms")
    sets = sum(q.exhaustive_sets for q in wl.rotation if q.cls != "refuse")
    evaluated = _calls(tr, passes, "dismantle.evaluate_removal")
    # Priced from untraced search-only queries: traced best_removal time
    # carries the wrappers' cost on every scored set, and its self time
    # leaves out the scoring in evaluate_removal.
    search_only = [i for i, q in enumerate(wl.rotation)
                   if q.cls not in ("refuse", "emit")]
    out["dismantle.exhaustive_sets"] = (sets, "count")
    out["dismantle.us_per_set"] = (
        sum(p50(plain.by_op[i]) for i in search_only) * 1e6
        / sum(wl.rotation[i].exhaustive_sets for i in search_only), "us")
    out["dismantle.evaluate_calls"] = (evaluated, "count")
    out["dismantle.evaluated_frac"] = (evaluated / sets, "ratio")
    out["dismantle.refusal_us"] = (
        p50(plain.by_label["refuse"]) * 1e6, "us")
    out["ilp.emit_ms"] = (_per_call_us(tr, "ilp.emit_ilp", self_time=False) / 1e3, "ms")
    out["ilp.emit_bytes"] = (wl.emitted_bytes(), "bytes")
    out["ilp.verify_ms"] = (
        _per_call_us(tr, "ilp.verify_ilp_solution", self_time=False) / 1e3, "ms")
    out["tracing.overhead_frac.dismantle"] = (_overhead(plain, traced_loop), "ratio")
    layer_stats.append(("dismantle", tr, passes))
    attempted += plain.attempted + traced_loop.attempted
    failed += plain.failed + traced_loop.failed

    wl = workloads.ScoreSuiteWorkload(seed, workdir / "score-suite")
    plain, traced_loop, tr, passes = trace_workload(wl, share)
    rounds = traced_loop.attempted
    out["datasets.generate_ms"] = (
        _per_call_us(tr, "datasets.generate", self_time=False) / 1e3, "ms")
    out["datasets.write_ms"] = (_per_op_ms(tr, rounds, "datasets.write_suite"), "ms")
    out["datasets.parse_ms"] = (
        _per_op_ms(tr, rounds, "datasets.EdgeListFile.parse"), "ms")
    out["datasets.bytes_written"] = (wl.bytes_written, "bytes")
    for key, span in (("load_survey_ms", "weights.load_survey_csv"),
                      ("build_system_ms", "weights.build_system"),
                      ("fit_ms", "weights.fit_weights"),
                      ("fit_ridge_ms", "weights.fit_weights_ridge")):
        out[f"weights.{key}"] = (_per_op_ms(tr, rounds, span), "ms")
    out["evaluation.compare_ms"] = (
        _per_op_ms(tr, rounds, "evaluation.compare_suite"), "ms")
    out["evaluation.load_csv_ms"] = (_per_op_ms(
        tr, rounds, "evaluation.load_ranked_gt_csv",
        "evaluation.load_predictions_csv", "evaluation.load_strength_values_csv",
        "evaluation.load_strength_gt_csv"), "ms")
    out["evaluation.match_ms"] = (_per_op_ms(tr, rounds, "evaluation.match_stats"), "ms")
    out["tracing.overhead_frac.score-suite"] = (_overhead(plain, traced_loop), "ratio")
    layer_stats.append(("score-suite", tr, passes))
    attempted += plain.attempted + traced_loop.attempted
    failed += plain.failed + traced_loop.failed

    # graph and metrics serve both in-process workloads: per-call times pool
    # their spans, call counts add one traced rotation of each.
    merged = tracing.Tracer()
    for _, tr, passes in layer_stats:
        for name, s in tr.stats.items():
            m = merged.stats[name]
            m.calls += s.calls / passes
            m.total_ns += s.total_ns / passes
            m.self_ns += s.self_ns / passes
    for key, span in (("remove_nodes", "graph.remove_nodes"),
                      ("build", "graph.Graph.build"),
                      ("components", "graph.components")):
        out[f"graph.{key}_us"] = (_per_call_us(merged, span), "us")
        out[f"graph.{key}_calls"] = (_calls(merged, 1, span), "count")
    baselines = ("metrics.cole1", "metrics.cole2", "metrics.gfp_score")
    out["metrics.sigma_us"] = (_per_call_us(merged, "metrics.sigma"), "us")
    out["metrics.baseline_us"] = (_per_call_us(merged, *baselines), "us")
    out["metrics.compute_metric_us"] = (
        _per_call_us(merged, "metrics.compute_metric"), "us")
    out["metrics.calls"] = (_calls(
        merged, 1, "metrics.sigma", "metrics.compute_metric", *baselines), "count")

    wl = workloads.CliColdWorkload(seed, workdir / "cli-cold")
    plain, traced_loop, _, _ = trace_workload(wl, share)
    for op in wl.rotation:
        out[f"cli.{op.label}_ms"] = (
            p50(plain.by_label[op.label]) * 1e3, "ms")
    out.update(cli_probes(wl))
    # numpy's import time per child of the traced (-X importtime) rotations,
    # 0 for a subcommand that never imports it
    out["cli.import_numpy_ms"] = (
        statistics.fmean(wl.numpy_import_ms) if wl.numpy_import_ms else 0.0, "ms")
    out["tracing.overhead_frac.cli-cold"] = (_overhead(plain, traced_loop), "ratio")
    attempted += plain.attempted + traced_loop.attempted
    failed += plain.failed + traced_loop.failed

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in out.items()}
    return attempted, failed, metrics, layer_stats


# --- reporting ----------------------------------------------------------------

def commit_id(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit_id(workloads.ROOT),
        "seed": args.seed,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def print_table(metrics: dict) -> None:
    for name, m in metrics.items():
        samples = m.get("samples", "")
        print(f"# {name:36s} {m['value']:>14.6g} {m['unit']:6s} "
              f"{'n=' + str(samples) if samples != '' else ''}")


def print_spans(layer_stats) -> None:
    for workload, tr, _ in layer_stats:
        for name, s in sorted(tr.stats.items(), key=lambda kv: -kv[1].total_ns):
            print(f"# span {workload} {name:36s} calls={s.calls:<8d} "
                  f"total_ms={s.total_ns / 1e6:<10.3f} "
                  f"self_ms={s.self_ns / 1e6:.3f}")
        for (parent, child), count in sorted(tr.parents.items(),
                                             key=lambda kv: str(kv[0])):
            print(f"# edge {workload} {parent or '-'} -> {child} x{count}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = workloads.ROOT / ".perfbench-work" / (
        f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            attempted, failed, metrics, layer_stats = trace_all(
                args.seed, args.seconds, workdir)
            print_spans(layer_stats)
        else:
            loop, metrics = measure(args.workload, args.seed, args.seconds,
                                    workdir)
            attempted, failed = loop.attempted, loop.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print_table(metrics)
    env = environment(args)
    env["samples"] = {k: m["samples"] for k, m in metrics.items() if "samples" in m}
    print("# env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
