"""Run a workload once per seed and summarise each metric's median and quartiles.

    python3 bench/spread.py --workload desk --seeds 1-10 [--trace 1] [--json out.json]

Each run is a separate ``run.py`` process, one after another. The table
gives, per metric, the median, the first and third quartile, and the spread:
the distance between the quartiles as a share of the median, which
BENCHMARK.json bounds for the end-to-end metrics.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int,
                        default=summary.load_spec(HERE.parent / "BENCHMARK.json")["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        extras = [json.loads(line)["extras"] for line in proc.stderr.splitlines()
                  if line.startswith('{"extras"')]
        result["extras"] = extras[0] if extras else {}
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']}, attempted "
              f"{result['attempted']}, failed {result['failed']}, held-out MF1 "
              f"{result['extras'].get('heldout_mf1', float('nan')):.4f}, GradCAM hit "
              f"rate {result['extras'].get('hit_rate', float('nan')):.3f}",
              file=sys.stderr)

    print(f"{args.workload}: {len(runs)} runs, all correct: "
          f"{all(r['correct'] for r in runs)}, failed shares: "
          f"{sorted({r['failed'] / r['attempted'] for r in runs})}")
    print(f"| metric | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = summary.quartiles(values)
        spread = summary.spread(values) if q2 else float("nan")
        print(f"| {name} | {first['unit']} | {q2:.6g} | {q1:.6g} | {q3:.6g} | "
              f"{spread:.3f} |")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))


if __name__ == "__main__":
    main()
