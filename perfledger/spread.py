"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfledger/spread.py --workloads drive_bimodal antt_alloy \\
        --seeds 1 2 3 4 5 6 7 8 9 10 [--out FILE]

Each run measures for ``BENCHMARK.json``'s ``run_seconds``. For each
workload and end-to-end metric it prints the median over the runs and the inter-quartile distance as a share of the median (the
steadiness figure ``BENCHMARK.json``'s bounds are judged against),
beside that metric's bound. Every run's result line is appended to
``--out`` as JSON, with its info line, when given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from run import load_spec, spread  # noqa: E402


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed = False
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                failed = True
                print(f"{workload} seed {seed}: INCORRECT {lines[-2]}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            if args.out:
                with open(args.out, "a") as fh:
                    info = json.loads(lines[-2])["perfledger"] if len(lines) > 1 else {}
                    fh.write(json.dumps({"info": info, **result}) + "\n")
        for name, series in values.items():
            share = spread(series) if len(series) > 1 else 0.0
            print(
                f"{workload:14s} {name:14s} median {statistics.median(series):12.4f}"
                f"  spread {share:6.3f}  bound {bounds[name]:.2f}"
                f"{'  OVER' if share > bounds[name] / 3 else ''}"
            )
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
