"""Run every workload over several seeds and report medians and spread.

Usage (from the repository root)::

    python3 perfbench/report.py
    python3 perfbench/report.py --out results.json --baseline perfbench/baseline.json

Every workload of BENCHMARK.json runs once per seed 1..10, each run a
separate ``perfbench/run.py`` process with the ``run_seconds`` of
BENCHMARK.json. For every end-to-end metric the report prints the median, the
quartiles, the sample count per run, and the spread: the distance between the
quartiles as a share of the median. A spread above a third of the metric's
bound is marked ``wide``; above the bound, ``TOO WIDE`` (``setup_s`` too).
With ``--baseline`` the medians are compared with an earlier result set and a
metric worse by more than its bound is marked ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), {})
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def worse_by(better: str, median: float, base: float) -> float:
    change = (median - base) / base
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the result set as JSON here")
    parser.add_argument("--baseline", help="result set to compare against")
    args = parser.parse_args(argv)
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    seconds = spec["run_seconds"]

    result = {"seeds": SEEDS, "seconds": seconds, "env": None,
              "workloads": {}}
    regressions = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            out, env = run_once(workload, seed, seconds)
            if not out["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {out['failed']} of "
                                 f"{out['attempted']} ops failed")
            runs.append((out, env))
            print(f"# {workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in out["metrics"].items()),
                flush=True)
        env = {k: v for k, v in runs[0][1].items()
               if k not in ("seed", "samples", "workload")}
        result["env"] = result["env"] or env
        table = {}
        print(f"\n{workload}  ({len(SEEDS)} runs of {seconds} s)")
        print(f"  {'metric':14s} {'unit':5s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s} {'samples':>8s}")
        for m in spec["end_to_end"]:
            name = m["name"]
            values = [out["metrics"][name]["value"] for out, _ in runs]
            samples = statistics.median(
                e.get("samples", {}).get(name, 0) for _, e in runs)
            row = dict(summarize(values), values=values, unit=m["unit"],
                       samples_per_run=samples, bound=m["bound"])
            flag = ""
            if row["spread"] > m["bound"]:
                flag = "TOO WIDE"
            elif row["spread"] > m["bound"] / 3:
                flag = "wide"
            if baseline is not None:
                base = baseline["workloads"].get(workload, {}).get(name)
                if base is not None:
                    row["vs_baseline"] = worse_by(m["better"], row["median"],
                                                  base["median"])
                    if row["vs_baseline"] > m["bound"]:
                        flag = (flag + " WORSE").strip()
                        regressions += 1
            table[name] = row
            print(f"  {name:14s} {m['unit']:5s} {row['median']:12.6g} "
                  f"{row['q1']:12.6g} {row['q3']:12.6g} {row['spread']:7.3f} "
                  f"{m['bound']:6.2f} {samples:8g}  {flag}")
        result["workloads"][workload] = table
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True)
                                  + "\n")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
