"""Steadiness check: run workloads k times with distinct seeds and print,
per end-to-end metric, the median, the quartiles and the quartile spread as
a share of the median, next to the bound in BENCHMARK.json.  Every run
lasts BENCHMARK.json's ``run_seconds``.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --runs 5 --workloads mc-certificates

A metric is steady when its spread stays below a third of its bound.
Every run must be correct, and the share of failed operations must be
the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, sep="\n")
                raise SystemExit(f"{workload} seed {seed}: exit "
                                 f"{proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            results.append(json.loads(lines[-1]))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {len(results)} runs, correct "
              f"{all(r['correct'] for r in results)}, failed shares {shares}")
        steady &= len(shares) == 1 and all(r["correct"] for r in results)
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < bound / 3
            steady &= ok
            print(f"  {name:14s} median {med:10.5g}  q1 {q1:10.5g}  "
                  f"q3 {q3:10.5g}  spread {spread:6.3f}  bound {bound:5.3f}"
                  f"  {'ok' if ok else 'WIDE'}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
