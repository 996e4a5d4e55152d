"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ranrec  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.1",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    values = [metric["value"] for metric in result["metrics"].values()]
    assert all(isinstance(v, float) for v in values)  # every layer is measured at this commit
    if not trace:
        assert all(v > 0 for v in values)
    assert "seed=7" in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_matches_the_harness():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == [*run.LAYERS, *run.TRACE_METRICS]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_wrappers_cover_importers_and_are_removed():
    tracer = spans.Tracer(ranrec)
    original = ranrec.cli.fit_forest
    with tracer.active():
        assert ranrec.cli.fit_forest is ranrec.anomaly.fit_forest is not original
        assert ranrec.inference.StoreBundle.from_json.__func__ is not original
    assert ranrec.cli.fit_forest is original is ranrec.anomaly.fit_forest
    assert "inference.EmbeddingStore.add" in tracer.wrapped
    assert "anomaly.path_length" not in tracer.wrapped


def test_self_time_excludes_children(tmp_path):
    graph, _ = ranrec.synth.generate(ranrec.synth.SynthSpec(sites=4))
    path = tmp_path / "network.json"
    path.write_text(json.dumps(graph.to_json()))
    tracer = spans.Tracer(ranrec)
    with tracer.active():
        ranrec.graph.load_network(path)
    totals = tracer.totals([(0, len(tracer.spans))])
    outer, inner = totals["graph.load_network"], totals["graph.network_from_json"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])


def test_renamed_function_is_unmeasured(monkeypatch):
    monkeypatch.delattr(ranrec.graph, "feature_map")
    tracer = spans.Tracer(ranrec)
    values = run._layer_metrics(tracer, workloads.Run(tracer), [], 1, 1.0, 1.0)
    assert values["graph.feature_map.self_s"] is None
    assert values["graph.load_network.self_s"] == 0


def test_tail_percentile_leaves_ten_samples_above():
    assert run.percentile_tail([float(v) for v in range(1, 31)]) == (20.0, 66)
    assert run.percentile_tail([1.0, 2.0, 3.0, 4.0]) == (2.5, 50)
