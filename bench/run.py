"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload desk --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics, from a
run whose calls into the package are wrapped and timed (``tracing.py``), and
the spans and the traced run's end-to-end figures go to
``.bench_out/trace-<workload>-<seed>.npz``. Inputs, caches and the checkpoint
live in ``.bench_work/`` under the checkout root and are removed on exit.
"""

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import summary  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec = summary.load_spec(ROOT / "BENCHMARK.json")
    w = workloads.WORKLOADS[args.workload]

    workdir = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer()
    try:
        with tracer.installed(workloads) if args.trace else contextlib.nullcontext():
            metrics, attempted, checks, extras = workloads.run(
                w, args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        out = ROOT / ".bench_out" / f"trace-{w.name}-{args.seed}.npz"
        out.parent.mkdir(exist_ok=True)
        tracer.save(out, end_to_end=metrics, extras=extras)
        metrics = tracing.per_layer_metrics(tracer, extras)
        kind = "per_layer"
    else:
        kind = "end_to_end"
    printed = summary.with_units(metrics, spec, kind)
    print(json.dumps({"extras": extras}), file=sys.stderr)
    for name, detail in checks.failures().items():
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.passed,
        "attempted": attempted,
        "failed": 0,
        "metrics": printed,
    }))


if __name__ == "__main__":
    main()
