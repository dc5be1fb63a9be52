"""Run the benchmark once per seed on each workload and summarise the
spread, the way a regression gate compares two sets of runs.

    python3 perfbench/sets.py --seeds 101-110 [--workloads mc-table2,boot-10k]
                              [--out .perfbench_out/set1.json]
    python3 perfbench/sets.py --compare A.json B.json

For each end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. --compare prints how far the second set's medians moved
from the first, in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(names, seed_list, seconds) -> dict:
    runs = {}
    for name in names:
        runs[name] = []
        for seed in seed_list:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=400)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[name].append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
    return runs


def summarise(runs: dict):
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    print(f"\n| workload | metric | median | IQR / median | bound | failed share |")
    print("|---|---|---|---|---|---|")
    for name, results in runs.items():
        share = {r["failed"] / r["attempted"] for r in results}
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"| {name} | {metric} | {med:.5g} | {(q3 - q1) / med:.4f} | "
                  f"{bound} | {sorted(share)} |")


def compare(a: dict, b: dict):
    metrics = {m["name"]: m for m in spec()["end_to_end"]}
    print("| workload | metric | median A | median B | worse by | bound |")
    print("|---|---|---|---|---|---|")
    for name in a:
        for metric, m in metrics.items():
            ma = statistics.median(r["metrics"][metric]["value"] for r in a[name])
            mb = statistics.median(r["metrics"][metric]["value"] for r in b[name])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            print(f"| {name} | {metric} | {ma:.5g} | {mb:.5g} | {worse:+.4f} | "
                  f"{m['bound']} |")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="101-110")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec()["workloads"]))
    p.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2)
    args = p.parse_args()
    if args.compare:
        a, b = (json.loads(Path(f).read_text()) for f in args.compare)
        compare(a, b)
        return
    runs = collect(args.workloads.split(","), seeds(args.seeds), args.seconds)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(runs))
    summarise(runs)


if __name__ == "__main__":
    main()
