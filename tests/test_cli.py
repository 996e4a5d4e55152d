"""Command-line workflow: exit codes, file formats, determinism, manifests."""

from __future__ import annotations

import json
import os
import stat

import numpy as np
import pytest

from ranrec.cli import main
from ranrec.graph import feature_map
from ranrec.inference import embed_new_cell, load_store
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


class TestValidationErrors:
    def test_missing_network(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "nope.json" in capsys.readouterr().err

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


CHECKPOINT_CASES = ["arch_unknown_key", "arch_list", "param_not_object", "stats_slot_not_object", "fanout_zero"]
# Top-level integers a hand edit may break: (key, value).
CHECKPOINT_INTEGERS = [
    ("seed", 1.5),
    ("seed", True),
    ("seed", "3"),
    ("sampler_fanout", 2.7),
    ("sampler_fanout", True),
    ("sampler_fanout", "3"),
]


def _corrupt_checkpoint(checkpoint: dict, case: str) -> None:
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


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("case", CHECKPOINT_CASES)
    def test_embed_names_checkpoint(self, workspace, tmp_path, capsys, case):
        checkpoint = json.loads((workspace / "ckpt.json").read_text())
        _corrupt_checkpoint(checkpoint, case)
        bad = tmp_path / "ckpt.json"
        bad.write_text(json.dumps(checkpoint))
        out = tmp_path / "store.json"
        code = main(["embed", str(workspace / "net" / "network.json"), str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad}: invalid checkpoint: " in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["recommend", "detect"])
    @pytest.mark.parametrize("case", CHECKPOINT_CASES)
    def test_store_names_checkpoint(self, workspace, tmp_path, capsys, case, command):
        store = json.loads((workspace / "store.json").read_text())
        _corrupt_checkpoint(store["checkpoint"], case)
        bad = tmp_path / "store.json"
        bad.write_text(json.dumps(store))
        out = tmp_path / "out.json"
        new_cells = [str(workspace / "new_cells.json")] if command == "recommend" else []
        code = main([command, str(bad), *new_cells, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad}: invalid store: " in err and "Traceback" not in err
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
        "name, value", [("z", float("inf")), ("y", float("nan")), ("y", None)]
    )
    def test_detect_rejects_bad_store_record(self, workspace, tmp_path, capsys, name, value):
        store = json.loads((workspace / "store.json").read_text())
        row = store["records"][5]
        if value is None:
            row[name] = row[name][:-1]  # one config slot short
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
    """A JSON integer beyond the float range exits 1, naming the file and the place."""

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
