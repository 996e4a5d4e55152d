"""Run the benchmark on several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --workload recommend --seeds 1-10 --seconds 15 [--trace 1]

For each metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, and, when ``--bounds`` is given, that share against a third of the
metric's bound in BENCHMARK.json. Runs go one after another, never in
parallel; a run that exits non-zero or fails an operation stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
        result = json.loads(lines[-1])
        if result["failed"]:
            sys.exit(f"seed {seed}: {result['failed']} failed operations\n{done.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items() if m["value"] is not None
        ), flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} runs of {seconds} s")
    for name, vals in values.items():
        vals = [v for v in vals if v is not None]
        if len(vals) < 2:
            continue
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else f"  bound {bound}: {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:44s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
