"""Runs the benchmark over several workloads and seeds and prints a table.

    python3 malbench/report.py --seeds 1 2 3 4 5 [--workloads sections duality] [--trace 0]

Each run is a fresh ``run.py`` process, one after another. For every
workload the table gives each metric's unit, median, quartiles and spread
(quartile distance over the median), next to the bound in BENCHMARK.json.
Spreads above a third of the bound are marked ``!``; setup_s is exempt. The
raw results are written to .malbench_out/report-<trace>.json and each
run's output to .malbench_out/logs/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = ROOT / ".malbench_out"
    logs = out / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    raw = {}
    for workload in args.workloads:
        runs = raw[workload] = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            (logs / f"{workload}-s{seed}-t{args.trace}.txt").write_text(proc.stdout)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    for workload, runs in raw.items():
        print(f"\n{workload} ({len(runs)} runs)")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            mark = "!" if bound and m["name"] != "setup_s" and spread > bound / 3 else " "
            print(f"  {mark} {m['name']:<28} {med:>12.6g} {m['unit']:<14} "
                  f"q1 {q1:<10.6g} q3 {q3:<10.6g} spread {spread:6.3f}"
                  + (f" (bound {bound})" if bound else ""))
    (out / f"report-{args.trace}.json").write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
