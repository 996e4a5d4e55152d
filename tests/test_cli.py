"""Command-line workflow: exit codes, file formats, determinism, manifests."""

from __future__ import annotations

import base64
import json
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ranrec.anomaly import anomaly_score, fit_forest, store_matrix
from ranrec.cli import STAGES, TRAIN_STAGES, main
from ranrec.graph import denormalize, extend_network, feature_map, parse_cells_payload
from ranrec.inference import (
    FOREST_COLUMNS,
    NETWORK_COLUMNS,
    embed_new_cell,
    encode_new_cells,
    load_store,
    recommend_cells,
)
from ranrec.sampler import SamplerConfig, sample_subgraph

SPEC = {
    "sites": 6,
    "cells_per_site": 4,
    "lte_ratio": 2,
    "nr_ratio": 1,
    "context_clusters": 3,
    "config_noise": 0.02,
    "misconfig_rate": 0.1,
    "misconfig_magnitude": 5.0,
    "inter_site_degree": 2,
    "seed": 17,
}

CONFIG = "epochs = 6\nseed = 17\n"

NEW_CELLS = {
    "cells": [
        {
            "cell_id": "NEWCELL",
            "node_id": "N002",
            "technology": "LTE",
            "predictors": {
                "lteBandwidthMhz": 10,
                "lteChannelNumber": 1500,
                "lteAntennaAzimuth": 45,
            },
        }
    ],
    "edges": [],
}


# A greenfield site of two cells joined to an existing cell, and an expansion
# cell on an existing node.
MULTI_CELLS = {
    "cells": [
        {
            "cell_id": "GF-A",
            "node_id": "GFNODE",
            "technology": "LTE",
            "predictors": {"lteBandwidthMhz": 20, "lteChannelNumber": 1800, "lteAntennaAzimuth": 120},
        },
        {
            "cell_id": "GF-B",
            "node_id": "GFNODE",
            "technology": "NR",
            "predictors": {"nrBandwidthMhz": 100, "nrChannelNumber": 640000, "nrAntennaAzimuth": 240},
        },
        {
            "cell_id": "EXP-A",
            "node_id": "N002",
            "technology": "LTE",
            "predictors": {"lteBandwidthMhz": 10, "lteChannelNumber": 1500, "lteAntennaAzimuth": 300},
        },
    ],
    "edges": [["GF-A", "S000C0", "inter_node"]],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    (root / "spec.json").write_text(json.dumps(SPEC))
    (root / "train.cfg").write_text(CONFIG)
    (root / "new_cells.json").write_text(json.dumps(NEW_CELLS))
    assert main(["synth", str(root / "spec.json"), "--out", str(root / "net")]) == 0
    assert (
        main(
            [
                "train",
                str(root / "net" / "network.json"),
                "--config",
                str(root / "train.cfg"),
                "--model",
                "sgnn",
                "--out",
                str(root / "ckpt.json"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "embed",
                str(root / "net" / "network.json"),
                str(root / "ckpt.json"),
                "--out",
                str(root / "store.json"),
            ]
        )
        == 0
    )
    return root


class TestPipeline:
    def test_synth_outputs(self, workspace):
        network = json.loads((workspace / "net" / "network.json").read_text())
        assert len(network["cells"]) == 24
        truth = json.loads((workspace / "net" / "ground_truth.json").read_text())
        assert len(truth) == 24
        assert sum(t["corrupted"] for t in truth.values()) == round(0.1 * 24)

    def test_checkpoint_contents(self, workspace):
        ckpt = json.loads((workspace / "ckpt.json").read_text())
        for key in ("model", "arch", "seed", "schema_hash", "stats", "params"):
            assert key in ckpt
        assert ckpt["model"] == "sgnn"
        report = json.loads((workspace / "ckpt.json.report.json").read_text())
        assert len(report["epoch_losses"]) == 6
        assert len(report["epoch_seconds"]) == 6 and report["peak_rss_mb"] > 0.0

    def test_gae_checkpoint_flags_decoder(self, workspace):
        out = workspace / "gae.json"
        code = main(
            [
                "train",
                str(workspace / "net" / "network.json"),
                "--config",
                str(workspace / "train.cfg"),
                "--model",
                "gae",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        ckpt = json.loads(out.read_text())
        assert ckpt["decoder"]["non_inferential"] is True

    def test_recommend(self, workspace):
        out = workspace / "recs.json"
        code = main(
            [
                "recommend",
                str(workspace / "store.json"),
                str(workspace / "new_cells.json"),
                "--mode",
                "majority",
                "--k",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        recs = json.loads(out.read_text())
        assert len(recs) == 1
        rec = recs[0]
        assert rec["cell_id"] == "NEWCELL"
        assert rec["mode"] == "majority"
        assert len(rec["sources"]) == 3
        assert rec["anomaly_score"] is None or 0.0 < rec["anomaly_score"] < 1.0
        assert all("." in key for key in rec["y_hat"])

    def test_recommend_k_too_large(self, workspace, capsys):
        code = main(
            [
                "recommend",
                str(workspace / "store.json"),
                str(workspace / "new_cells.json"),
                "--mode",
                "majority",
                "--k",
                "999",
                "--out",
                str(workspace / "never.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "999" in err and "24" in err
        assert not (workspace / "never.json").exists()

    def test_detect(self, workspace):
        out = workspace / "detect.json"
        assert (
            main(["detect", str(workspace / "store.json"), "--threshold", "0.6", "--out", str(out)])
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["threshold"] == 0.6
        scores = [c["score"] for c in payload["cells"]]
        assert scores == sorted(scores, reverse=True)
        for cell in payload["cells"]:
            assert cell["flagged"] == (cell["score"] > 0.6)

    def test_embedded_rows_equal_single_cell_embedding(self, workspace, tmp_path):
        # A network larger than the training one, so embed encodes in
        # several groups; every row must equal the cell embedded on its own.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "sites": 60, "seed": 5}))
        assert main(["synth", str(spec), "--out", str(tmp_path / "net")]) == 0
        store_path = tmp_path / "store.json"
        argv = ["embed", str(tmp_path / "net" / "network.json"), str(workspace / "ckpt.json")]
        assert main([*argv, "--out", str(store_path)]) == 0
        bundle = load_store(store_path)
        assert len(bundle.store) == 240
        features = feature_map(bundle.graph, bundle.stats)
        cfg = SamplerConfig(fanout=bundle.checkpoint.fanout, seed=bundle.checkpoint.seed)
        for record in bundle.store.records:
            sub = sample_subgraph(bundle.graph, record.cell_id, cfg, features)
            assert np.array_equal(record.z, embed_new_cell(bundle.store, sub)), record.cell_id

    def test_outputs_get_umask_permissions(self, workspace, tmp_path):
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            previous = os.umask(umask)
            try:
                out = tmp_path / f"proj-{umask:o}.csv"
                assert main(["project", str(workspace / "store.json"), "--out", str(out)]) == 0
            finally:
                os.umask(previous)
            for path in (out, out.with_name(out.name + ".manifest.json")):
                assert stat.S_IMODE(path.stat().st_mode) == mode, path

    def test_project(self, workspace):
        out = workspace / "proj.csv"
        assert main(["project", str(workspace / "store.json"), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "cell_id,pc1,pc2"
        assert len(lines) == 25

    def test_evaluate(self, workspace):
        out = workspace / "accuracy.csv"
        code = main(
            [
                "evaluate",
                str(workspace / "net" / "network.json"),
                "--config",
                str(workspace / "train.cfg"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "model,type,split,accuracy"
        assert len(lines) == 7
        for model in ("untrained", "gae", "sgnn"):
            proj = workspace / f"accuracy_{model}_projection.csv"
            assert proj.exists()
            assert proj.read_text().startswith("cell_id,pc1,pc2")

    def test_manifests_written(self, workspace):
        manifest = json.loads((workspace / "ckpt.json.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 17
        assert str(workspace / "net" / "network.json") in manifest["inputs"]
        assert str(workspace / "ckpt.json") in manifest["outputs"]
        assert manifest["wall_time_s"] >= 0.0
        assert manifest["peak_rss_mb"] > 0.0

    def test_train_manifest_stages_within_wall_time(self, workspace):
        manifest = json.loads((workspace / "ckpt.json.manifest.json").read_text())
        stages = manifest["stages"]
        assert set(stages) == set(TRAIN_STAGES)
        assert all(seconds >= 0.0 for seconds in stages.values()), stages
        assert sum(stages.values()) <= manifest["wall_time_s"]


def _isolated_cells(count: int) -> list[dict]:
    """New LTE cells, each alone on its own new node: no cell has a neighbour."""
    return [
        {
            "cell_id": f"ISO{i}",
            "node_id": f"ISONODE{i}",
            "technology": "LTE",
            "predictors": {"lteBandwidthMhz": 10, "lteChannelNumber": 1500 + 7 * i, "lteAntennaAzimuth": 40 * i},
        }
        for i in range(count)
    ]


class TestIsolatedCells:
    """A cell without neighbours is a one-vertex subgraph; a lone one must embed
    with the same bits as one among many, or retrieval loses bit-exactness."""

    def test_request_sources_equal_the_oracle(self, workspace, tmp_path):
        request = tmp_path / "isolated.json"
        request.write_text(json.dumps({"cells": _isolated_cells(3), "edges": []}))
        out = tmp_path / "recs.json"
        assert main(["recommend", str(workspace / "store.json"), str(request), "--out", str(out)]) == 0
        bundle = load_store(workspace / "store.json")
        cells, edges = parse_cells_payload(json.loads(request.read_text()))
        augmented = extend_network(bundle.graph, cells, edges)
        features = feature_map(augmented, bundle.stats)
        sampler = SamplerConfig(fanout=bundle.checkpoint.fanout, seed=bundle.checkpoint.seed)
        rows = list(zip(bundle.store.ids, bundle.store.z))
        for cell, rec in zip(cells, json.loads(out.read_text()), strict=True):
            z = embed_new_cell(bundle.store, sample_subgraph(augmented, cell.cell_id, sampler, features))
            ranked = sorted((float(np.linalg.norm(zr - z)), cid) for cid, zr in rows)
            assert rec["sources"] == [{"cell_id": cid, "distance": d} for d, cid in ranked[:1]], cell.cell_id
            rows.append((cell.cell_id, z))

    def test_embedded_rows_equal_single_cell_embedding(self, workspace, tmp_path):
        network = json.loads((workspace / "net" / "network.json").read_text())
        isolated = _isolated_cells(5)
        for cell in isolated:
            cell["configs"] = {"lteHandoverMargin": 1.0, "ltePowerTarget": -90.0, "ltePreamblePower": -120.0}
        network["cells"] = isolated[:2] + network["cells"] + isolated[2:]
        path = tmp_path / "network.json"
        path.write_text(json.dumps(network))
        store_path = tmp_path / "store.json"
        assert main(["embed", str(path), str(workspace / "ckpt.json"), "--out", str(store_path)]) == 0
        bundle = load_store(store_path)
        features = feature_map(bundle.graph, bundle.stats)
        cfg = SamplerConfig(fanout=bundle.checkpoint.fanout, seed=bundle.checkpoint.seed)
        for record in bundle.store.records:
            sub = sample_subgraph(bundle.graph, record.cell_id, cfg, features)
            assert np.array_equal(record.z, embed_new_cell(bundle.store, sub)), record.cell_id


class TestValidationErrors:
    def test_missing_network(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["network", "synth_spec", "checkpoint", "store", "new_cells"])
    def test_invalid_json_names_file_line_and_column(self, workspace, tmp_path, capsys, kind):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "cells": ,\n}')
        network, out = workspace / "net" / "network.json", tmp_path / "out.json"
        argv = {
            "network": ["train", bad],
            "synth_spec": ["synth", bad],
            "checkpoint": ["embed", network, bad],
            "store": ["detect", bad],
            "new_cells": ["recommend", workspace / "store.json", bad],
        }[kind]
        code = main([*map(str, argv), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert f"{bad}:2:12: invalid JSON: Expecting value" in err and err.count(str(bad)) == 1
        assert not out.exists()

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["train", str(bad), "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_unknown_config_key(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epocs = 5\n")
        code = main(
            [
                "train",
                str(workspace / "net" / "network.json"),
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 1
        assert "epocs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, entry",
        [
            ("cells", [1], "cell entry 0"),
            ("edges", [5], "edge entry 0"),
            ("schema", ["x"], "schema entry 0"),
            ("predictors", [1, 2], "cell entry 0"),
            ("predictor value", "abc", "cell entry 0"),
            ("network", 5, "expected a JSON object"),
        ],
        ids=["cells", "edges", "schema", "predictors", "predictor_value", "network"],
    )
    def test_malformed_network_entry(self, workspace, tmp_path, capsys, field, value, entry):
        network = json.loads((workspace / "net" / "network.json").read_text())
        cell = network["cells"][0]
        if field == "predictors":
            cell["predictors"] = value
        elif field == "predictor value":
            cell["predictors"][sorted(cell["predictors"])[0]] = value
        elif field == "network":
            network = value
        else:
            network[field] = value
        bad = tmp_path / "network.json"
        bad.write_text(json.dumps(network))
        config = str(workspace / "train.cfg")
        code = main(["train", str(bad), "--config", config, "--out", str(tmp_path / "x.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad}: {entry}" in err and "Traceback" not in err

    def test_new_cells_not_an_object(self, workspace, tmp_path, capsys):
        bad = tmp_path / "new_cells.json"
        bad.write_text("5")
        code = main(["recommend", str(workspace / "store.json"), str(bad), "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert f"{bad}: expected a JSON object" in capsys.readouterr().err

    def test_empty_request(self, workspace, tmp_path, capsys):
        empty = tmp_path / "new_cells.json"
        empty.write_text(json.dumps({"cells": [], "edges": []}))
        out = tmp_path / "recs.json"
        code = main(["recommend", str(workspace / "store.json"), str(empty), "--out", str(out)])
        _assert_rejected(capsys, code, f"{empty}: no cells to recommend for")
        assert not out.exists()


CHECKPOINT_CASES = [
    "arch_unknown_key",
    "arch_list",
    "param_not_object",
    "stats_slot_not_object",
    "fanout_zero",
    "stats_min_nan",
    "stats_observed_inf",
    "stats_min_above_max",
    "stats_config_short",
    "stats_predictor_long",
]
# Top-level integers a hand edit may break: (key, value).
CHECKPOINT_INTEGERS = [
    ("seed", 1.5),
    ("seed", True),
    ("seed", "3"),
    ("sampler_fanout", 2.7),
    ("sampler_fanout", True),
    ("sampler_fanout", "3"),
]


def _corrupt_checkpoint(checkpoint: dict, case: str) -> str:
    """Break ``checkpoint`` as ``case`` says; the field its error names, or ``""``."""
    stats = checkpoint["stats"]
    if case == "stats_min_nan":
        stats["predictor"][1]["min"] = float("nan")
        return "stats.predictor[1].min"
    if case == "stats_observed_inf":
        slot = next(i for i, s in enumerate(stats["config"]) if "observed" in s)
        stats["config"][slot]["observed"][0] = float("inf")
        return f"stats.config[{slot}].observed"
    if case == "stats_min_above_max":
        stats["predictor"][0]["min"] = stats["predictor"][0]["max"] + 1.0
        return "stats.predictor[0].min"
    if case == "stats_config_short":  # the last config slot deleted
        del stats["config"][-1]
        return f"stats.config: {len(stats['config'])} slots, but the schema's config layout has"
    if case == "stats_predictor_long":
        stats["predictor"].append(dict(stats["predictor"][-1]))
        return f"stats.predictor: {len(stats['predictor'])} slots, but the schema's predictor layout has"
    if isinstance(case, tuple):
        key, value = case
        checkpoint[key] = value
    elif case == "arch_unknown_key":
        checkpoint["arch"]["bogus"] = 1
    elif case == "arch_list":
        checkpoint["arch"] = list(checkpoint["arch"].values())
    elif case == "param_not_object":
        checkpoint["params"][0] = 1
    elif case == "stats_slot_not_object":
        checkpoint["stats"]["predictor"][0] = 1
    else:
        checkpoint["sampler_fanout"] = 0
    return ""


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("case", CHECKPOINT_CASES)
    def test_embed_names_checkpoint(self, workspace, tmp_path, capsys, case):
        checkpoint = json.loads((workspace / "ckpt.json").read_text())
        field = _corrupt_checkpoint(checkpoint, case)
        bad = tmp_path / "ckpt.json"
        bad.write_text(json.dumps(checkpoint))
        out = tmp_path / "store.json"
        code = main(["embed", str(workspace / "net" / "network.json"), str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad}: invalid checkpoint: {field}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["recommend", "detect"])
    @pytest.mark.parametrize("case", CHECKPOINT_CASES)
    def test_store_names_checkpoint(self, workspace, tmp_path, capsys, case, command):
        store = json.loads((workspace / "store.json").read_text())
        field = _corrupt_checkpoint(store["checkpoint"], case)
        bad = tmp_path / "store.json"
        bad.write_text(json.dumps(store))
        out = tmp_path / "out.json"
        new_cells = [str(workspace / "new_cells.json")] if command == "recommend" else []
        code = main([command, str(bad), *new_cells, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad}: invalid store: {field}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("case", CHECKPOINT_INTEGERS)
    def test_embed_rejects_non_integer(self, workspace, tmp_path, capsys, case):
        checkpoint = json.loads((workspace / "ckpt.json").read_text())
        _corrupt_checkpoint(checkpoint, case)
        bad = tmp_path / "ckpt.json"
        bad.write_text(json.dumps(checkpoint))
        out = tmp_path / "store.json"
        code = main(["embed", str(workspace / "net" / "network.json"), str(bad), "--out", str(out)])
        assert code == 1
        key, value = case
        expected = f"{bad}: invalid checkpoint: key {key!r}: expected an integer, got {value!r}"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("layers", 2000), ("head_dim", 10**9)])
    def test_oversized_arch_rejected_before_weights_are_built(self, workspace, tmp_path, capsys, key, value):
        checkpoint = json.loads((workspace / "ckpt.json").read_text())
        checkpoint["arch"][key] = value
        bad = tmp_path / "ckpt.json"
        bad.write_text(json.dumps(checkpoint))
        out = tmp_path / "store.json"
        tracemalloc.start()
        try:
            code = main(["embed", str(workspace / "net" / "network.json"), str(bad), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _assert_rejected(capsys, code, f"{bad}: invalid checkpoint: checkpoint ")
        assert peak < 16 * 2**20
        assert not out.exists()

    @pytest.mark.parametrize("command", ["recommend", "detect"])
    @pytest.mark.parametrize("case", CHECKPOINT_INTEGERS)
    def test_store_rejects_non_integer(self, workspace, tmp_path, capsys, case, command):
        store = json.loads((workspace / "store.json").read_text())
        _corrupt_checkpoint(store["checkpoint"], case)
        bad = tmp_path / "store.json"
        bad.write_text(json.dumps(store))
        out = tmp_path / "out.json"
        new_cells = [str(workspace / "new_cells.json")] if command == "recommend" else []
        code = main([command, str(bad), *new_cells, "--out", str(out)])
        assert code == 1
        assert f"{bad}: invalid store: key {case[0]!r}: expected an integer" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_train_rejects_non_finite_predictor(self, workspace, tmp_path, capsys, value):
        network = json.loads((workspace / "net" / "network.json").read_text())
        cell = network["cells"][3]
        name = sorted(cell["predictors"])[0]
        cell["predictors"][name] = value
        bad = tmp_path / "network.json"
        bad.write_text(json.dumps(network))
        config = str(workspace / "train.cfg")
        code = main(["train", str(bad), "--config", config, "--out", str(tmp_path / "x.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and cell["cell_id"] in err and name in err
        assert not (tmp_path / "x.json").exists()

    def test_recommend_rejects_non_finite_predictor(self, workspace, tmp_path, capsys):
        payload = json.loads(json.dumps(NEW_CELLS))
        payload["cells"][0]["predictors"]["lteChannelNumber"] = float("nan")
        bad = tmp_path / "new_cells.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "recs.json"
        code = main(["recommend", str(workspace / "store.json"), str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "NEWCELL" in err and "lteChannelNumber" in err
        assert not out.exists()

    def test_embed_rejects_non_finite_checkpoint(self, workspace, tmp_path, capsys):
        checkpoint = json.loads((workspace / "ckpt.json").read_text())
        tensor = checkpoint["params"][2]
        tensor["data"][0] = float("nan")
        bad = tmp_path / "ckpt.json"
        bad.write_text(json.dumps(checkpoint))
        out = tmp_path / "store.json"
        code = main(["embed", str(workspace / "net" / "network.json"), str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and tensor["name"] in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, value", [("z", float("inf")), ("z", float("nan")), ("z", None)]
    )
    def test_detect_rejects_bad_store_record(self, workspace, tmp_path, capsys, name, value):
        store = json.loads((workspace / "store.json").read_text())
        row = store["records"][5]
        if value is None:
            row[name] = row[name][:-1]  # one embedding slot short
        else:
            row[name][0] = value
        bad = tmp_path / "store.json"
        bad.write_text(json.dumps(store))
        out = tmp_path / "flags.json"
        code = main(["detect", str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and f"record 5: {name}" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", [[0.5, 0.5], [0.5]]])
    def test_detect_names_unconvertible_store_record(self, workspace, tmp_path, capsys, value):
        store = json.loads((workspace / "store.json").read_text())
        store["records"][5]["z"] = value
        bad = tmp_path / "store.json"
        bad.write_text(json.dumps(store))
        out = tmp_path / "flags.json"
        code = main(["detect", str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "record 5: z" in err
        assert not out.exists()

    @pytest.mark.parametrize("corrupt", ["abc", "short"])
    def test_embed_names_unconvertible_checkpoint_tensor(self, workspace, tmp_path, capsys, corrupt):
        checkpoint = json.loads((workspace / "ckpt.json").read_text())
        tensor = checkpoint["params"][2]
        tensor["data"] = "abc" if corrupt == "abc" else tensor["data"][:-1]
        bad = tmp_path / "ckpt.json"
        bad.write_text(json.dumps(checkpoint))
        out = tmp_path / "store.json"
        code = main(["embed", str(workspace / "net" / "network.json"), str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and f"checkpoint tensor '{tensor['name']}'" in err
        assert not out.exists()

    def test_detect_rejects_record_that_is_not_an_object(self, workspace, tmp_path, capsys):
        store = json.loads((workspace / "store.json").read_text())
        store["records"][5] = 7
        bad = tmp_path / "store.json"
        bad.write_text(json.dumps(store))
        code = main(["detect", str(bad), "--out", str(tmp_path / "flags.json")])
        assert code == 1
        assert str(bad) in capsys.readouterr().err



class TestOverflowInputs:
    """A value that overflows, on reading or in the arithmetic it feeds, exits 1
    naming the file and the place."""

    HUGE = 10**400

    def test_train_names_network_entry(self, workspace, tmp_path, capsys):
        network = json.loads((workspace / "net" / "network.json").read_text())
        cell = network["cells"][3]
        cell["predictors"][sorted(cell["predictors"])[0]] = self.HUGE
        bad = tmp_path / "network.json"
        bad.write_text(json.dumps(network))
        out = tmp_path / "x.json"
        config = str(workspace / "train.cfg")
        code = main(["train", str(bad), "--config", config, "--out", str(out)])
        _assert_rejected(capsys, code, f"{bad}: cell entry 3:")
        assert not out.exists()

    def test_recommend_names_new_cells_entry(self, workspace, tmp_path, capsys):
        payload = json.loads(json.dumps(NEW_CELLS))
        payload["cells"][0]["predictors"]["lteChannelNumber"] = self.HUGE
        bad = tmp_path / "new_cells.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "recs.json"
        code = main(["recommend", str(workspace / "store.json"), str(bad), "--out", str(out)])
        _assert_rejected(capsys, code, f"{bad}: cell entry 0:")
        assert not out.exists()

    def test_detect_names_store_record(self, workspace, tmp_path, capsys):
        store = json.loads((workspace / "store.json").read_text())
        store["records"][5]["z"][0] = self.HUGE
        bad = tmp_path / "store.json"
        bad.write_text(json.dumps(store))
        out = tmp_path / "flags.json"
        code = main(["detect", str(bad), "--out", str(out)])
        _assert_rejected(capsys, code, str(bad), "record 5: z")
        assert not out.exists()

    def test_embed_names_checkpoint_tensor(self, workspace, tmp_path, capsys):
        checkpoint = json.loads((workspace / "ckpt.json").read_text())
        tensor = checkpoint["params"][2]
        tensor["data"][0] = self.HUGE
        bad = tmp_path / "ckpt.json"
        bad.write_text(json.dumps(checkpoint))
        out = tmp_path / "store.json"
        code = main(["embed", str(workspace / "net" / "network.json"), str(bad), "--out", str(out)])
        _assert_rejected(capsys, code, str(bad), f"checkpoint tensor '{tensor['name']}'")
        assert not out.exists()

    def test_synth_names_spec_key(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"config_noise": self.HUGE}))
        out = tmp_path / "net"
        code = main(["synth", str(spec), "--out", str(out)])
        _assert_rejected(capsys, code, f"{spec}: key 'config_noise'", "expected a finite number")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_recommend_names_store_when_distances_overflow(self, workspace, tmp_path, capsys):
        store = json.loads((workspace / "store.json").read_text())
        tensor = next(p for p in store["checkpoint"]["params"] if p["name"] == "encoder.layer1.ffn.b2")
        tensor["data"][0] = 1e308  # finite embeddings near 1e307, whose squared distances overflow
        bad = tmp_path / "store.json"
        bad.write_text(json.dumps(store))
        out = tmp_path / "recs.json"
        code = main(["recommend", str(bad), str(workspace / "new_cells.json"), "--out", str(out)])
        _assert_rejected(capsys, code, f"{bad}: embedding distances overflow")
        assert not out.exists()


# Fields a hand edit may give the wrong JSON type: ids must be strings, values numbers.
MISTYPED_FIELDS = ["cell_id", "node_id", "endpoint 0", "endpoint 1", "predictor", "config"]


def _mistype(payload: dict, field: str) -> str:
    """Give ``field`` of the last cell (or of a new edge) a wrong type; the message naming it."""
    index = len(payload["cells"]) - 1
    cell = payload["cells"][index]
    if field in ("cell_id", "node_id"):
        cell[field] = 7 if field == "cell_id" else {}
        return f"cell entry {index}: {field}: expected a string"
    if field.startswith("endpoint"):
        edge = [cell["cell_id"], "S000C0", "inter_node"]
        edge[int(field[-1])] = 5
        payload["edges"].append(edge)
        return f"edge entry {len(payload['edges']) - 1}: {field}: expected a string"
    role = field + "s"
    values = cell.setdefault(role, {})
    name = sorted(values)[0] if values else "ltePowerTarget"
    values[name] = True
    return f"cell entry {index}: {role}.{name}: expected a number, got bool True"


@pytest.mark.parametrize("route", ["embed", "recommend"])
@pytest.mark.parametrize("field", MISTYPED_FIELDS)
def test_mistyped_field_names_the_entry(workspace, tmp_path, capsys, field, route):
    """An id is never coerced to a string, and a boolean is not a number."""
    if route == "embed":
        payload = json.loads((workspace / "net" / "network.json").read_text())
    else:
        payload = json.loads(json.dumps(NEW_CELLS))
    message = _mistype(payload, field)
    bad = tmp_path / "input.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    if route == "embed":
        code = main(["embed", str(bad), str(workspace / "ckpt.json"), "--out", str(out)])
    else:
        code = main(["recommend", str(workspace / "store.json"), str(bad), "--out", str(out)])
    _assert_rejected(capsys, code, f"{bad}: {message}")
    assert not out.exists()


def _assert_rejected(capsys, code: int, *fragments: str) -> None:
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


class TestBadSettings:
    """Every settings record is checked on read: exit 1, naming the file and the key."""

    @pytest.mark.parametrize(
        "line",
        [
            "pairs_per_epoch = 0",
            "pairs_per_epoch = -5",
            "margin = inf",
            "margin = nan",
            "learning_rate = nan",
            "learning_rate = -1",
            "epochs = -1",
            "layers = 0",
            "fanout = 0",
        ],
    )
    def test_config_through_train(self, workspace, tmp_path, capsys, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"epochs = 2\n{line}\n")
        out = tmp_path / "ckpt.json"
        network = str(workspace / "net" / "network.json")
        code = main(["train", network, "--config", str(config), "--out", str(out)])
        key = line.split()[0]
        _assert_rejected(capsys, code, f"{config}:2: key '{key}'")
        assert not out.exists()

    def test_config_checked_before_network_is_read(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("layers = 0\n")
        network = tmp_path / "network.json"
        network.write_text("{not json")
        code = main(["train", str(network), "--config", str(config), "--out", str(tmp_path / "x")])
        _assert_rejected(capsys, code, f"{config}:1: key 'layers'")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sites", True),
            ("sites", 1.5),
            ("cells_per_site", 2.5),
            ("lte_ratio", 0.5),
            ("inter_site_degree", 1.5),
            ("config_noise", float("nan")),
            ("seed", 1.5),
        ],
    )
    def test_spec_through_synth(self, tmp_path, capsys, key, value):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({key: value}))
        out = tmp_path / "net"
        code = main(["synth", str(spec), "--out", str(out)])
        _assert_rejected(capsys, code, f"{spec}: key '{key}'")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("layers", 2.5), ("slope", "0.2")])
    def test_arch_through_embed(self, workspace, tmp_path, capsys, key, value):
        checkpoint = json.loads((workspace / "ckpt.json").read_text())
        checkpoint["arch"][key] = value
        bad = tmp_path / "ckpt.json"
        bad.write_text(json.dumps(checkpoint))
        out = tmp_path / "store.json"
        code = main(["embed", str(workspace / "net" / "network.json"), str(bad), "--out", str(out)])
        _assert_rejected(capsys, code, f"{bad}: invalid checkpoint: arch: key '{key}'")
        assert not out.exists()


GRAPH_ERRORS = {
    "duplicate": "duplicate cell_id 'S000C0'",
    "unknown_cell": "edge references unknown cell 'NOPE'",
    "self_loop": "self-loop edge on cell",
    "edge_kind": "unknown edge kind 'sideways'",
    "missing_attribute": "missing predictor attributes",
}


@pytest.mark.parametrize("route", ["train", "recommend"])
@pytest.mark.parametrize("case", sorted(GRAPH_ERRORS))
def test_graph_errors_name_the_file(workspace, tmp_path, capsys, case, route):
    """A graph invariant broken by a network or a new-cells file names that file."""
    if route == "train":
        payload = json.loads((workspace / "net" / "network.json").read_text())
        cell = payload["cells"][1]
    else:
        payload = json.loads(json.dumps(NEW_CELLS))
        cell = payload["cells"][0]
    cid = cell["cell_id"]
    if case == "duplicate":
        if route == "train":
            payload["cells"].append(payload["cells"][0])
        else:
            cell["cell_id"] = "S000C0"
    elif case == "unknown_cell":
        payload["edges"].append([cid, "NOPE", "inter_node"])
    elif case == "self_loop":
        payload["edges"].append([cid, cid, "inter_node"])
    elif case == "edge_kind":
        payload["edges"].append([cid, "S000C0", "sideways"])
    else:
        del cell["predictors"][sorted(cell["predictors"])[0]]
    bad = tmp_path / "input.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    if route == "train":
        code = main(["train", str(bad), "--config", str(workspace / "train.cfg"), "--out", str(out)])
    else:
        code = main(["recommend", str(workspace / "store.json"), str(bad), "--out", str(out)])
    _assert_rejected(capsys, code, f"{bad}: ", GRAPH_ERRORS[case])
    assert not out.exists()


def _small_network(workspace, case: str) -> dict:
    """A network that parses but cannot be trained on: no NR cell, one LTE cell
    under an LTE-only schema, or one cell of each technology."""
    network = json.loads((workspace / "net" / "network.json").read_text())
    lte, nr = (next(c for c in network["cells"] if c["technology"] == t) for t in ("LTE", "NR"))
    if case == "no_nr":
        network["cells"] = [c for c in network["cells"] if c["technology"] == "LTE"]
        kept = {c["cell_id"] for c in network["cells"]}
        network["edges"] = [e for e in network["edges"] if e[0] in kept and e[1] in kept]
    elif case == "one_cell":
        network["schema"] = [e for e in network["schema"] if e["technology"] == "LTE"]
        network["cells"], network["edges"] = [lte], []
    else:
        network["cells"], network["edges"] = [lte, nr], []
    return network


UNTRAINABLE = {
    ("train", "no_nr"): "attribute 'nrBandwidthMhz' (NR predictor) was never observed on a training cell",
    ("train", "one_cell"): "training needs at least 2 dataset entries",
    ("train", "two_technologies"): "pair mining needs at least 2 entries with nonzero targets",
    ("evaluate", "no_nr"): "attribute 'nrBandwidthMhz' (NR predictor) was never observed on a training cell",
    ("evaluate", "one_cell"): "cannot split fewer than 2 entries",
    ("evaluate", "two_technologies"): "attribute 'nrBandwidthMhz' (NR predictor) was never observed on a training cell",
}


@pytest.mark.parametrize("route, case", sorted(UNTRAINABLE))
def test_untrainable_network_names_the_file(workspace, tmp_path, capsys, route, case):
    network = tmp_path / "network.json"
    network.write_text(json.dumps(_small_network(workspace, case)))
    out = tmp_path / "out.csv"
    code = main([route, str(network), "--config", str(workspace / "train.cfg"), "--out", str(out)])
    _assert_rejected(capsys, code, f"error: {network}: {UNTRAINABLE[route, case]}")
    assert not out.exists()


def test_training_cell_without_configs_names_the_file(workspace, tmp_path, capsys):
    network = json.loads((workspace / "net" / "network.json").read_text())
    network["cells"][3]["configs"] = {}
    path = tmp_path / "network.json"
    path.write_text(json.dumps(network))
    cid = network["cells"][3]["cell_id"]
    code = main(["train", str(path), "--config", str(workspace / "train.cfg"), "--out", str(tmp_path / "x.json")])
    _assert_rejected(capsys, code, f"error: {path}: training cell {cid!r} carries no configs")


@pytest.mark.parametrize(
    "command, message",
    [
        ("project", "need at least 3 points of dimension >= 2, got (2, "),
        ("detect", "all embeddings are identical"),
    ],
)
def test_degenerate_store_names_the_file(workspace, tmp_path, capsys, command, message):
    """Two identical cells on different nodes embed to identical rows of a two-record store."""
    network = json.loads((workspace / "net" / "network.json").read_text())
    twin = next(c for c in network["cells"] if c["technology"] == "LTE")
    network["cells"] = [{**twin, "cell_id": f"T{i}", "node_id": f"TN{i}"} for i in range(2)]
    network["edges"] = []
    path = tmp_path / "network.json"
    path.write_text(json.dumps(network))
    store = tmp_path / "store.json"
    assert main(["embed", str(path), str(workspace / "ckpt.json"), "--out", str(store)]) == 0
    out = tmp_path / "out.json"
    code = main([command, str(store), "--out", str(out)])
    _assert_rejected(capsys, code, f"error: {store}: {message}")
    assert not out.exists()


class TestDeterminism:
    def test_rerun_byte_identical(self, workspace, tmp_path):
        inputs_before = {
            path: path.read_bytes()
            for path in [workspace / "net" / "network.json", workspace / "ckpt.json"]
        }
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out_dir in (first, second):
            out_dir.mkdir()
            assert main(["synth", str(workspace / "spec.json"), "--out", str(out_dir / "net")]) == 0
            assert (
                main(
                    [
                        "train",
                        str(out_dir / "net" / "network.json"),
                        "--config",
                        str(workspace / "train.cfg"),
                        "--model",
                        "sgnn",
                        "--out",
                        str(out_dir / "ckpt.json"),
                    ]
                )
                == 0
            )
            assert (
                main(
                    [
                        "embed",
                        str(out_dir / "net" / "network.json"),
                        str(out_dir / "ckpt.json"),
                        "--out",
                        str(out_dir / "store.json"),
                    ]
                )
                == 0
            )
            assert (
                main(
                    [
                        "recommend",
                        str(out_dir / "store.json"),
                        str(workspace / "new_cells.json"),
                        "--mode",
                        "closest",
                        "--out",
                        str(out_dir / "recs.json"),
                    ]
                )
                == 0
            )
            assert (
                main(
                    [
                        "detect",
                        str(out_dir / "store.json"),
                        "--threshold",
                        "0.6",
                        "--out",
                        str(out_dir / "detect.json"),
                    ]
                )
                == 0
            )
        for name in ("net/network.json", "net/ground_truth.json", "ckpt.json", "store.json", "recs.json", "detect.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        # inputs untouched by any command
        for path, before in inputs_before.items():
            assert path.read_bytes() == before


def _column(section: dict, name: str, dtype: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(section[name]), dtype=dtype).copy()


def _set_column(section: dict, name: str, dtype: str, values: np.ndarray) -> None:
    section[name] = base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


# Hand edits of a stored forest or network, each with the field its error must name.
STORE_EDITS = {
    "child_out_of_range": "forest.children",
    "leaf_not_own_child": "forest.children",
    "threshold_nan": "forest.threshold",
    "path_inf": "forest.path",
    "feature_ge_dim": "forest.feature",
    "dim_not_width": "forest.dim",
    "too_deep": "forest.children",
    "n_not_records": "forest.n",
    "forest_truncated_base64": "forest.children",
    "forest_wrong_length": "forest.threshold",
    "network_truncated_base64": "network.predictor",
    "network_wrong_length": "network.config",
    "edge_row_out_of_range": "network.edges",
    "self_loop": "network.edges",
    "duplicate_cell_id": "network.cell_ids",
    "same_node_pair": "network.edges",
    "repeated_pair": "network.edges",
    "non_finite_predictor": "network.predictor",
}


def _edit_store(store: dict, case: str) -> None:
    forest, network = store["forest"], store["network"]
    arrays = {name: _column(forest, name, dtype) for name, dtype in FOREST_COLUMNS.items()}
    children = arrays["children"].reshape(-1, 2)
    leaf = children[:, 0] == np.arange(children.shape[0])
    first_leaf, first_split = np.flatnonzero(leaf)[0], np.flatnonzero(~leaf)[0]
    edges = _column(network, "edges", NETWORK_COLUMNS["edges"]).reshape(-1, 2)
    predictor = _column(network, "predictor", NETWORK_COLUMNS["predictor"])
    if case == "child_out_of_range":
        children[first_split, 1] = children.shape[0] + 5
    elif case == "leaf_not_own_child":
        children[first_leaf, 1] = first_split
    elif case == "threshold_nan":
        arrays["threshold"][first_split] = np.nan
    elif case == "path_inf":
        arrays["path"][first_leaf] = np.inf
    elif case == "feature_ge_dim":
        arrays["feature"][first_split] = forest["dim"]
    elif case == "dim_not_width":
        forest["dim"] += 1
    elif case == "too_deep":
        forest["psi"] = 2  # every tree splits below depth ceil(log2(2)) = 1
    elif case == "n_not_records":
        forest["n"] += 1
    elif case == "forest_wrong_length":
        arrays["threshold"] = arrays["threshold"][:-1]
    elif case == "network_wrong_length":
        _set_column(network, "config", "<f8", _column(network, "config", "<f8")[:-1])
    elif case == "edge_row_out_of_range":
        edges[0, 1] = len(network["cell_ids"])
    elif case == "self_loop":
        edges[0, 1] = edges[0, 0]
    elif case == "duplicate_cell_id":
        network["cell_ids"][1] = network["cell_ids"][0]
    elif case == "same_node_pair":  # a pair the store holds only as node_ids
        nodes = network["node_ids"]
        later = next(j for j in range(1, len(nodes)) if nodes[j] in nodes[:j])
        edges = np.append(edges, [[nodes.index(nodes[later]), later]], axis=0)
    elif case == "repeated_pair":
        edges = np.append(edges, edges[:1, ::-1], axis=0)
    elif case == "non_finite_predictor":
        # The predictor layout starts with the LTE block: slot 0 of an LTE cell is its own.
        lte = np.flatnonzero(_column(network, "technology", NETWORK_COLUMNS["technology"]) == 0)[0]
        predictor[lte * (predictor.size // len(network["cell_ids"]))] = np.nan
    for name, dtype in FOREST_COLUMNS.items():
        _set_column(forest, name, dtype, arrays[name])
    _set_column(network, "edges", NETWORK_COLUMNS["edges"], edges)
    _set_column(network, "predictor", NETWORK_COLUMNS["predictor"], predictor)
    if case == "forest_truncated_base64":
        forest["children"] = forest["children"][:-3]
    elif case == "network_truncated_base64":
        network["predictor"] = network["predictor"][:-2]


class TestStoreFormat:
    """The store carries the network as binary columns and the fitted novelty forest."""

    @pytest.mark.parametrize("command", ["recommend", "detect"])
    @pytest.mark.parametrize("case", STORE_EDITS)
    def test_hand_edit_names_store_and_field(self, workspace, tmp_path, capsys, command, case):
        store = json.loads((workspace / "store.json").read_text())
        _edit_store(store, case)
        bad = tmp_path / "store.json"
        bad.write_text(json.dumps(store))
        out = tmp_path / "out.json"
        new_cells = [str(workspace / "new_cells.json")] if command == "recommend" else []
        code = main([command, str(bad), *new_cells, "--out", str(out)])
        _assert_rejected(capsys, code, f"{bad}: invalid store: {STORE_EDITS[case]}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["recommend", "detect", "project"])
    def test_old_format_store_asks_for_embed(self, workspace, tmp_path, capsys, command):
        bundle = load_store(workspace / "store.json")
        old = {
            "network": bundle.graph.to_json(),
            "checkpoint": bundle.checkpoint.to_json(),
            "records": [
                {"cell_id": r.cell_id, "z": r.z.tolist(), "y": r.y.tolist()} for r in bundle.store.records
            ],
        }
        bad = tmp_path / "store.json"
        bad.write_text(json.dumps(old, indent=1))
        out = tmp_path / "out.json"
        new_cells = [str(workspace / "new_cells.json")] if command == "recommend" else []
        code = main([command, str(bad), *new_cells, "--out", str(out)])
        _assert_rejected(capsys, code, f"{bad}: invalid store: format", "re-run `ranrec embed`")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["recommend", "detect", "project"])
    def test_format_2_store_asks_for_embed(self, workspace, tmp_path, capsys, command):
        # The previous format: records also carried their config vector ``y``.
        store = json.loads((workspace / "store.json").read_text())
        store["format"] = "ranrec-store/2"
        for record, y in zip(store["records"], load_store(workspace / "store.json").store.y.tolist()):
            record["y"] = y
        bad = tmp_path / "store.json"
        bad.write_text(json.dumps(store))
        out = tmp_path / "out.json"
        new_cells = [str(workspace / "new_cells.json")] if command == "recommend" else []
        code = main([command, str(bad), *new_cells, "--out", str(out)])
        _assert_rejected(capsys, code, f"{bad}: invalid store: format: 'ranrec-store/2'", "re-run `ranrec embed`")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["recommend", "detect", "project"])
    def test_format_3_store_asks_for_embed(self, workspace, tmp_path, capsys, command):
        # The previous format: every edge, intra-node pairs included, as (row, row, kind).
        store = json.loads((workspace / "store.json").read_text())
        store["format"] = "ranrec-store/3"
        graph = load_store(workspace / "store.json").graph
        rows = [(graph.row_of[a], graph.row_of[b], kind == "inter_node") for a, b, kind in graph.edges]
        _set_column(store["network"], "edges", NETWORK_COLUMNS["edges"], rows)
        bad = tmp_path / "store.json"
        bad.write_text(json.dumps(store))
        out = tmp_path / "out.json"
        new_cells = [str(workspace / "new_cells.json")] if command == "recommend" else []
        code = main([command, str(bad), *new_cells, "--out", str(out)])
        _assert_rejected(capsys, code, f"{bad}: invalid store: format: 'ranrec-store/3'", "re-run `ranrec embed`")
        assert not out.exists()

    def test_config_edit_moves_y_hat_and_detect(self, workspace, tmp_path):
        """A record's config vector is its network row's: editing that row is
        what recommend serves and what detect scores."""
        cells = str(workspace / "new_cells.json")
        before = tmp_path / "before.json"
        assert main(["recommend", str(workspace / "store.json"), cells, "--out", str(before)]) == 0
        source = json.loads(before.read_text())[0]["sources"][0]["cell_id"]
        original = load_store(workspace / "store.json")
        row, y = original.graph.row_of[source], original.store.y
        technology = original.graph.technology
        # The source takes the configs of another cell of its technology.
        donor = next(r for r in range(len(y)) if technology[r] == technology[row] and (y[r] != y[row]).any())
        store = json.loads((workspace / "store.json").read_text())
        config = _column(store["network"], "config", "<f8").reshape(len(y), -1)
        config[row] = config[donor]
        _set_column(store["network"], "config", "<f8", config)
        edited = tmp_path / "store.json"
        edited.write_text(json.dumps(store))

        after = tmp_path / "after.json"
        assert main(["recommend", str(edited), cells, "--out", str(after)]) == 0
        rec = json.loads(after.read_text())[0]
        assert rec["sources"] == json.loads(before.read_text())[0]["sources"]
        assert rec["y_hat"] == denormalize(y[donor], original.stats, original.schema)
        assert rec["y_hat"] != json.loads(before.read_text())[0]["y_hat"]

        flags = tmp_path / "flags.json"
        assert main(["detect", str(edited), "--out", str(flags)]) == 0
        joint = np.concatenate([original.store.z, y], axis=1)
        joint[row, original.store.z.shape[1] :] = y[donor]
        forest = fit_forest(joint, seed=original.checkpoint.seed)
        scores = [anomaly_score(forest, point) for point in joint]
        expected = sorted(zip(original.store.ids, scores), key=lambda e: (-e[1], e[0]))
        assert [(c["cell_id"], c["score"]) for c in json.loads(flags.read_text())["cells"]] == expected

    @pytest.mark.parametrize("command", ["recommend", "detect", "project"])
    @pytest.mark.parametrize("case", ["renamed", "dropped", "swapped"])
    def test_records_must_follow_network_rows(self, workspace, tmp_path, capsys, command, case):
        store = json.loads((workspace / "store.json").read_text())
        records = store["records"]
        if case == "renamed":
            records[3]["cell_id"] = "GHOST"
        elif case == "dropped":
            del records[3]
            store["forest"] = None  # else the forest's row count names the lost record first
        else:
            records[3], records[4] = records[4], records[3]
        bad = tmp_path / "store.json"
        bad.write_text(json.dumps(store))
        out = tmp_path / "out.json"
        new_cells = [str(workspace / "new_cells.json")] if command == "recommend" else []
        code = main([command, str(bad), *new_cells, "--out", str(out)])
        _assert_rejected(capsys, code, f"{bad}: invalid store: records[3]")
        assert not out.exists()

    def test_stored_forest_equals_refit(self, workspace):
        bundle = load_store(workspace / "store.json")
        refit = fit_forest(store_matrix(bundle.store), seed=bundle.checkpoint.seed)
        for name in ("feature", "threshold", "children", "path", "roots"):
            assert np.array_equal(getattr(bundle.forest, name), getattr(refit, name), equal_nan=True), name
        for name in ("psi", "n", "seed", "dim"):
            assert getattr(bundle.forest, name) == getattr(refit, name), name

    def test_embed_seed_seeds_the_forest(self, workspace, tmp_path):
        out = tmp_path / "store.json"
        argv = ["embed", str(workspace / "net" / "network.json"), str(workspace / "ckpt.json")]
        assert main([*argv, "--seed", "5", "--out", str(out)]) == 0
        bundle = load_store(out)
        refit = fit_forest(store_matrix(bundle.store), seed=5)
        assert bundle.forest.seed == 5
        assert np.array_equal(bundle.forest.threshold, refit.threshold, equal_nan=True)

    def test_repeated_embed_is_byte_identical(self, workspace, tmp_path):
        argv = ["embed", str(workspace / "net" / "network.json"), str(workspace / "ckpt.json")]
        for name in ("a.json", "b.json"):
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (workspace / "store.json").read_bytes()

    @staticmethod
    def _refit_oracle(store_path, cells_path, mode, k, seed, forest_seed):
        """recommend as it ran before the store carried its forest: refit on every request."""
        bundle = load_store(store_path)
        forest = fit_forest(store_matrix(bundle.store), seed=forest_seed)
        new_cells, new_edges = parse_cells_payload(json.loads(cells_path.read_text()))
        sampling = SamplerConfig(fanout=bundle.checkpoint.fanout, seed=seed)
        encoder = bundle.checkpoint.encoder
        rows = encode_new_cells(encoder, bundle.graph, bundle.stats, new_cells, new_edges, sampling)
        return [
            {
                "cell_id": cell.cell_id,
                "mode": mode,
                "y_hat": denormalize(rec.y_hat, bundle.stats, bundle.schema),
                "sources": [{"cell_id": cid, "distance": d} for cid, d in rec.sources],
                "anomaly_score": anomaly_score(forest, z),
            }
            for cell, z, rec in recommend_cells(bundle.store, new_cells, rows, k if mode == "majority" else 1, bundle.schema)
        ]

    @pytest.mark.parametrize("mode, seed", [("closest", None), ("majority", None), ("closest", 9)])
    def test_recommend_equals_refit_oracle(self, workspace, tmp_path, mode, seed):
        cells = tmp_path / "new_cells.json"
        cells.write_text(json.dumps(MULTI_CELLS))
        out = tmp_path / "recs.json"
        seed_args = ["--seed", str(seed)] if seed is not None else []
        argv = ["recommend", str(workspace / "store.json"), str(cells), "--mode", mode, "--k", "3"]
        assert main([*argv, *seed_args, "--out", str(out)]) == 0
        embed_seed = load_store(workspace / "store.json").checkpoint.seed
        expected = self._refit_oracle(
            workspace / "store.json", cells, mode, 3, embed_seed if seed is None else seed, embed_seed
        )
        assert json.loads(out.read_text()) == json.loads(json.dumps(expected))

    def test_store_without_forest_scores_nothing(self, workspace, tmp_path):
        store = json.loads((workspace / "store.json").read_text())
        store["forest"] = None
        path = tmp_path / "store.json"
        path.write_text(json.dumps(store))
        out = tmp_path / "recs.json"
        assert main(["recommend", str(path), str(workspace / "new_cells.json"), "--out", str(out)]) == 0
        assert [r["anomaly_score"] for r in json.loads(out.read_text())] == [None]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_detect_rejects_non_finite_threshold(self, workspace, tmp_path, capsys, value):
        out = tmp_path / "flags.json"
        code = main(["detect", str(workspace / "store.json"), f"--threshold={value}", "--out", str(out)])
        _assert_rejected(capsys, code, "--threshold")
        assert not out.exists()

    def test_manifest_stages_within_wall_time(self, workspace, tmp_path):
        store = tmp_path / "store.json"
        names = ("net/network.json", "ckpt.json", "new_cells.json")
        network, checkpoint, cells = (str(workspace / name) for name in names)
        runs = [
            ["embed", network, checkpoint, "--out", str(store)],
            ["recommend", str(store), cells, "--out", str(tmp_path / "recs.json")],
            ["detect", str(store), "--out", str(tmp_path / "flags.json")],
        ]
        for argv in runs:
            assert main(argv) == 0
            manifest = json.loads(Path(argv[-1] + ".manifest.json").read_text())
            stages = manifest["stages"]
            assert set(stages) == set(STAGES), argv[0]
            assert all(seconds >= 0.0 for seconds in stages.values()), stages
            assert sum(stages.values()) <= manifest["wall_time_s"], argv[0]
