"""ranrec benchmark: times the ``ranrec`` CLI end to end, and layer by layer
in a separate traced run.

    python3 perfbench/run.py --workload {train,recommend,audit} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout: the program is imported from ``src/``.
The set-up runs at least three times and for at least two seconds, and
``setup_s`` is the median. Whole rounds of the workload's calls alternate
with the set-ups, one after each of the first three, and repeat until the
timed calls add up to ``--seconds``.
``--trace 0`` reports the end-to-end metrics. ``--trace 1`` sets up once,
then repeats an untraced and a traced round, and reports per-layer
numbers per traced round plus the tracing overhead against the untraced
rounds. Every call runs in this one thread, so the traced run records no
wait time. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
# The set-up runs at least SETUP_REPEATS times, and again (up to SETUP_MAX
# times) until SETUP_SECONDS have passed, so that a set-up lasting a fraction
# of a second still gets a steady median.
SETUP_REPEATS = 3
SETUP_MAX = 15
SETUP_SECONDS = 2.0

# Unit and better direction of every metric; BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "call_p50_s": ("s", "lower"),
    "cells_per_s": ("1/s", "higher"),
}

# ``<function>.self_s`` / ``.s`` / ``.calls`` per traced round; set-up-only
# functions per set-up.
LAYERS = (
    "graph.load_network.self_s",
    "graph.network_from_json.self_s",
    "graph.extend_network.self_s",
    "graph.feature_map.self_s",
    "graph.feature_map.calls",
    "sampler.build_dataset.self_s",
    "sampler.build_dataset.calls",
    "sampler.sample_subgraph.self_s",
    "sampler.sample_subgraph.calls",
    "autodiff.Tape.backward.self_s",
    "autodiff.Tape.backward.calls",
    "gnn.layer_forward.self_s",
    "gnn.layer_forward.calls",
    "gnn.encode_group_on_tape.self_s",
    "gnn.decode_group_on_tape.self_s",
    "gnn.encode.self_s",
    "gnn.encode.calls",
    "training.train_sgnn.s",
    "training.train_gae.s",
    "training.encode_centers_on_tape.self_s",
    "training.mine_informative_pairs.self_s",
    "training.mine_informative_pairs.calls",
    "training.pairs_mined",
    "training.pair_loss_on_tape.self_s",
    "training.Adam.step.self_s",
    "training.Adam.step.calls",
    "inference.load_store.self_s",
    "inference.StoreBundle.from_json.self_s",
    "inference.StoreBundle.to_json.self_s",
    "inference.embed_new_cell.self_s",
    "inference.embed_new_cell.calls",
    "inference.distance_set.self_s",
    "inference.recommend_closest.self_s",
    "inference.recommend_closest.calls",
    "inference.recommend_majority.self_s",
    "inference.recommend_majority.calls",
    "inference.EmbeddingStore.add.calls",
    "anomaly.fit_forest.self_s",
    "anomaly.fit_forest.calls",
    "anomaly.anomaly_score.self_s",
    "anomaly.anomaly_score.calls",
    "anomaly.score_network.self_s",
    "cli.cmd_train.self_s",
    "cli.cmd_embed.self_s",
    "cli.cmd_recommend.self_s",
    "cli.cmd_detect.self_s",
    "cli._canonical_json.self_s",
    "cli._atomic_write.self_s",
    "cli._write_manifest.self_s",
    "synth.generate.s",
)
SETUP_ONLY = {"synth.generate.s"}
TRACE_METRICS = {"trace.errors": "count", "trace.overhead_pct": "%"}


def layer_unit(metric: str) -> str:
    if metric in TRACE_METRICS:
        return TRACE_METRICS[metric]
    return "s" if metric.endswith((".self_s", ".s")) else "count"


def percentile_tail(values: list[float]) -> tuple[float, int]:
    """Nearest-rank value at the highest whole percentile above p50 that
    leaves at least ten samples above it; the median when there is none."""
    ordered = sorted(values)
    n = len(ordered)
    best = next((p for p in range(99, 50, -1) if n - math.ceil(p * n / 100) >= 10), None)
    if best is None:
        return statistics.median(ordered), 50
    return ordered[math.ceil(best * n / 100) - 1], best


def _one_thread() -> None:
    # One client in one thread. A second BLAS thread doubled the run-to-run
    # spread of the train workload on a shared 2-vCPU machine.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ranrec.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import the ranrec program from {src}: {exc}")
    if src.resolve() not in Path(ranrec.cli.__file__).resolve().parents:
        raise SystemExit(f"error: ranrec was imported from {ranrec.cli.__file__}, not from {src}")
    return ranrec


def _more_setups(times: list[float], traced: bool) -> bool:
    if traced:
        return not times
    return len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX)


def _round(workload, run, traced: bool) -> float:
    """Run one round of the workload's timed calls; return their total seconds."""
    before = len(run.ops)
    workload.cycle(traced=traced)
    return sum(op.seconds for op in run.ops[before:])


def _layer_metrics(tracer, run, setup_ranges, rounds, untraced_s, traced_s) -> dict:
    measured = tracer.totals(run.trace_ranges)
    setup = tracer.totals(setup_ranges)
    wrapped = tracer.wrapped
    counted = {metric: fn for fn, (metric, _) in spans.COUNTERS.items()}
    values: dict[str, float | None] = {}
    for metric in LAYERS:
        if metric in counted:
            fn, kind = counted[metric], "count"
        else:
            fn, _, kind = metric.rpartition(".")
        if fn not in wrapped:
            values[metric] = None  # renamed or deleted since the benchmark was written
            continue
        totals, per = (setup, 1) if metric in SETUP_ONLY else (measured, rounds)
        values[metric] = totals.get(fn, {}).get(kind, 0) / per
    values["trace.errors"] = sum(row["errors"] for row in measured.values()) / rounds
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "recommend", "audit"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    _one_thread()
    package = _import_program()
    import workloads

    tracer = spans.Tracer(package) if args.trace else None
    run = workloads.Run(tracer)
    workload = workloads.WORKLOADS[args.workload](
        run, workloads.TINY if args.tiny else workloads.FULL, args.seed
    )
    print(
        f"ranrec benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} numpy_threads=1",
        flush=True,
    )
    work = WORK / f"work-{os.getpid()}"
    setup_times: list[float] = []
    digests: list[str] = []
    setup_ranges: list[tuple[int, int]] = []
    rounds = 0
    untraced_s = traced_s = 0.0
    try:
        # Set-ups and rounds alternate, so the measured calls spread over the
        # whole run: the machine's speed drifts over tens of seconds. Each of
        # the first SETUP_REPEATS set-ups is followed by a round.
        while True:
            more_setups = _more_setups(setup_times, bool(args.trace))
            more_rounds = rounds < min(len(setup_times), SETUP_REPEATS) or untraced_s < args.seconds
            if not (more_setups or more_rounds):
                break
            if more_setups:
                first_span = len(tracer.spans) if tracer else 0
                started = time.perf_counter()
                directory = work / f"setup-{len(setup_times)}"
                digests.append(workload.setup(directory, traced=bool(args.trace)))
                setup_times.append(time.perf_counter() - started)
                setup_ranges.append((first_span, len(tracer.spans) if tracer else 0))
                if len(setup_times) == 1:
                    workload.prepare()
            if more_rounds:
                untraced_s += _round(workload, run, traced=False)
                if tracer:
                    traced_s += _round(workload, run, traced=True)
                rounds += 1
        if tracer:
            tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")
    except workloads.SetupError as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("set-up: " + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    failed = sum(d != digests[0] for d in digests)
    if failed:
        print("FAILED set-up: repeated set-ups produced different inputs")
    for op in run.ops:
        if op.error:
            print(f"FAILED {op.key}: {op.error}", flush=True)
    failed += sum(op.error is not None for op in run.ops)
    attempted = run.setup_calls + len(run.ops)
    good = [op for op in run.ops if op.error is None and not op.traced]
    if not good:
        raise SystemExit("error: every timed call failed")

    by_key: dict[str, list[float]] = {}
    for op in good:
        by_key.setdefault(workload.labels.get(op.key, op.key), []).append(op.seconds)
    print(f"rounds={rounds} calls={len(run.ops)} attempted={attempted} failed={failed}")
    for label, secs in by_key.items():
        print(f"  {label} = {statistics.median(secs):.4f} s (median of {len(secs)})")
    tail, pct = percentile_tail([op.seconds for op in good])
    print(f"  call tail = {tail:.4f} s (p{pct} of {len(good)} calls)")
    for name, value in workload.quality().items():
        print(f"  {name} = {value:.4f}")

    if tracer:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in _layer_metrics(
                tracer, run, setup_ranges, rounds, untraced_s, traced_s
            ).items()
        }
        print("wait time: none recorded (one client, one thread, closed loop)")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "call_p50_s": statistics.median(op.seconds for op in good),
            "cells_per_s": sum(op.cells for op in good) / sum(op.seconds for op in good),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}
    for name, metric in metrics.items():
        value = "unmeasured" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name} = {value} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
