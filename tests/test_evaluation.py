"""Accuracy metric, PCA projection, ROC-AUC, model comparison, scenarios."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from ranrec.cli import main
from ranrec.config import config_from_values
from ranrec.evaluation import MODELS, accuracy, compare_models, pca_project, roc_auc
from ranrec.gnn import init_encoder
from ranrec.graph import RanGraph, feature_map, fit_normalization, load_network
from ranrec.inference import EmbeddingStore, embed_entries, load_store, nearest
from ranrec.sampler import build_dataset, split_indices, stack_subgraphs
from ranrec.synth import GroundTruth, SynthSpec, generate, synthesize_expansion, synthesize_greenfield
from ranrec.training import encode_centers, train_gae, train_sgnn


def quick_cfg(**overrides):
    values = dict(epochs=8, seed=1)
    values.update(overrides)
    return config_from_values(values)


def small_network(seed=2, **overrides):
    base = dict(
        sites=8,
        cells_per_site=4,
        context_clusters=3,
        config_noise=0.02,
        misconfig_rate=0.0,
        inter_site_degree=2,
        seed=seed,
    )
    base.update(overrides)
    spec = SynthSpec(**base)
    graph, truth = generate(spec)
    return spec, graph, truth


class TestAccuracy:
    def test_perfect_predictions(self):
        ys = [np.array([0.2, 0.8]), np.array([0.5, 0.5])]
        report = accuracy(ys, [y.copy() for y in ys], model="sgnn", dataset="test")
        assert report.accuracy == pytest.approx(1.0)

    def test_mean_of_cosines(self):
        truth = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
        predicted = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        report = accuracy(truth, predicted)
        assert report.accuracy == pytest.approx(0.5)

    def test_zero_vector_excluded_and_reported(self):
        truth = [np.array([1.0, 0.0]), np.zeros(2)]
        predicted = [np.array([1.0, 0.0]), np.array([1.0, 1.0])]
        report = accuracy(truth, predicted, cell_ids=["a", "b"])
        assert report.excluded == ("b",)
        assert report.accuracy == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        truth = [rng.random(4) + 0.01 for _ in range(10)]
        predicted = [rng.random(4) + 0.01 for _ in range(10)]
        base = accuracy(truth, predicted)
        scaled = accuracy(truth, [3.3 * y for y in predicted])
        for (_, a), (_, b) in zip(base.per_cell, scaled.per_cell):
            assert a == pytest.approx(b, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([np.ones(2)], [])


class TestPcaProject:
    def test_planar_points_preserve_distances(self):
        rng = np.random.default_rng(1)
        basis = np.linalg.qr(rng.normal(size=(6, 2)))[0].T  # 2 orthonormal rows in R^6
        coords = rng.normal(size=(20, 2))
        points = coords @ basis
        proj = pca_project(points)
        original = np.linalg.norm(points[:, None] - points[None, :], axis=2)
        projected = np.linalg.norm(proj.points[:, None] - proj.points[None, :], axis=2)
        assert np.abs(original - projected).max() < 1e-8

    def test_collinear_second_variance_zero(self):
        direction = np.array([1.0, 2.0, -1.0]) / np.sqrt(6)
        points = np.outer(np.linspace(-2, 2, 7), direction)
        proj = pca_project(points)
        assert proj.explained_variance[1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(20, 5))
        proj = pca_project(points)
        centered = points - points.mean(axis=0)
        eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / (points.shape[0] - 1))
        top2 = eigvecs[:, np.argsort(eigvals)[::-1][:2]].T
        # principal angles between the two 2-D subspaces
        _, singular, _ = np.linalg.svd(proj.components @ top2.T)
        angles = np.arccos(np.clip(singular, -1.0, 1.0))
        assert angles.max() < 1e-6
        assert np.allclose(
            sorted(proj.explained_variance, reverse=True),
            sorted(eigvals, reverse=True)[:2],
            atol=1e-10,
        )

    def test_components_orthonormal(self):
        rng = np.random.default_rng(3)
        proj = pca_project(rng.normal(size=(15, 6)))
        gram = proj.components @ proj.components.T
        assert np.abs(gram - np.eye(2)).max() < 1e-10
        assert proj.explained_variance[0] >= proj.explained_variance[1]

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(12, 5))
        perm = rng.permutation(12)
        a = pca_project(points)
        b = pca_project(points[perm])
        assert np.allclose(a.components, b.components, atol=1e-9)

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            pca_project(np.ones((5, 3)))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            pca_project(np.zeros((2, 3)))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([False, False, True, True], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_random_scores_half(self):
        assert roc_auc([True, False], [0.5, 0.5]) == 0.5

    def test_reversed_is_zero(self):
        assert roc_auc([True, True, False], [0.1, 0.2, 0.9]) == 0.0

    def test_needs_both_classes(self):
        with pytest.raises(ValueError):
            roc_auc([True, True], [0.1, 0.2])


def oracle_retrieval_reports(encoder, model, train_entries, test_entries):
    """Train (leave-one-out) and test accuracy of nearest-record retrieval,
    from separate train and test encodes and an id lookup of each neighbour."""
    store = embed_entries(EmbeddingStore(encoder), train_entries)
    row = {cid: i for i, cid in enumerate(store.ids)}
    train_y = [store.y[row[nearest(store, z, 1, exclude=cid)[0][0]]] for cid, z in zip(store.ids, store.z)]
    test_y = [store.y[row[nearest(store, z, 1)[0][0]]] for z in encode_centers(encoder, test_entries)]

    def report(subgraphs, predicted, dataset):
        return accuracy(subgraphs.targets, predicted, subgraphs.centers, model=model, dataset=dataset)

    return report(train_entries, train_y, "train"), report(test_entries, test_y, "test")


def oracle_comparison(graph, config):
    """Per model: the oracle's (train, test) reports and the projection of a
    whole-dataset encode, with each model trained as ``compare_models`` trains it."""
    train_idx, test_idx = split_indices(len(graph.cell_ids), config.test_fraction, config.seed)
    train_ids = [graph.cell_ids[i] for i in train_idx]
    stats = fit_normalization(graph, train_ids)
    dataset = build_dataset(graph, stats, config.sampler())
    train_entries, test_entries = (stack_subgraphs([dataset[i : i + 1] for i in idx]) for idx in (train_idx, test_idx))
    provider = None
    if config.resample_per_epoch:
        provider = lambda epoch: build_dataset(graph, stats, config.sampler(), epoch=epoch, cells=train_ids)  # noqa: E731
    arch = config.arch(graph.schema.predictor_dim)
    encoders = {
        "untrained": init_encoder(arch, config.seed),
        "sgnn": train_sgnn(train_entries, arch, config.training, provider)[0],
        "gae": train_gae(train_entries, arch, config.training, provider)[0],
    }
    return {
        model: (
            oracle_retrieval_reports(encoders[model], model, train_entries, test_entries),
            pca_project(encode_centers(encoders[model], dataset)),
        )
        for model in MODELS
    }


class TestCompareModels:
    @pytest.mark.parametrize("epochs", [0, 2])
    def test_accuracies_equal_separate_encode_oracle(self, epochs):
        # One encode per model gives each cell the rows that separate train
        # and test encodes give it: the forward pass is batch-invariant.
        _, graph, _ = small_network(seed=3)
        cfg = quick_cfg(epochs=epochs, resample_per_epoch=True)
        result = compare_models(graph, cfg)
        for model, ((train, test), projection) in oracle_comparison(graph, cfg).items():
            ev = result.by_model(model)
            assert ev.train == train and ev.test == test, model
            assert np.array_equal(ev.projection.points, projection.points), model

    def test_structure_and_determinism(self):
        _, graph, _ = small_network()
        cfg = quick_cfg()
        result = compare_models(graph, cfg)
        rows = result.accuracy_rows()
        assert len(rows) == 6
        assert [r[0] for r in rows] == ["untrained", "untrained", "gae", "gae", "sgnn", "sgnn"]
        assert all(0.0 <= r[3] <= 1.0 for r in rows)
        again = compare_models(graph, cfg)
        assert rows == again.accuracy_rows()
        for ev in result.models:
            assert ev.projection.points.shape == (len(graph.cells), 2)

    def test_untrained_accuracy_defined(self):
        _, graph, _ = small_network(seed=5)
        result = compare_models(graph, quick_cfg(epochs=0))
        untrained = result.by_model("untrained")
        assert 0.0 <= untrained.test.accuracy <= 1.0


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    """A trained sgnn and its store, built by ``ranrec synth``, ``train`` and ``embed``."""
    root = tmp_path_factory.mktemp("deployment")
    spec, _, _ = small_network(seed=7)
    (root / "spec.json").write_text(json.dumps(spec.to_json()))
    (root / "train.cfg").write_text("epochs = 8\nseed = 1\n")
    net = root / "net"
    assert main(["synth", str(root / "spec.json"), "--out", str(net)]) == 0
    ckpt = root / "ckpt.json"
    train = ["train", str(net / "network.json"), "--config", str(root / "train.cfg"), "--out", str(ckpt)]
    assert main(train) == 0
    assert main(["embed", str(net / "network.json"), str(ckpt), "--out", str(root / "store.json")]) == 0
    truth = GroundTruth.from_json(json.loads((net / "ground_truth.json").read_text()))
    return root, spec, load_network(net / "network.json"), truth


def _request(path, cells, edges):
    """Write a new-cells file for synthesized cells: their predictors, no configs."""
    payload = {
        "cells": [
            {
                "cell_id": c.cell_id,
                "node_id": c.node_id,
                "technology": c.technology,
                "predictors": dict(c.raw_predictors),
            }
            for c in cells
        ],
        "edges": [list(e) for e in edges],
    }
    path.write_text(json.dumps(payload))
    return path


def _config_rows(bundle, cells, configs) -> np.ndarray:
    """Normalized config rows of ``cells`` holding ``configs[cell_id]``, as ``feature_map`` gives any cell's."""
    graph = RanGraph(bundle.schema, [replace(c, raw_configs=configs[c.cell_id]) for c in cells])
    return feature_map(graph, bundle.stats).y


def _recommend_and_score(deployment, tmp_path, cells, edges, truth):
    """Run ``ranrec recommend`` on synthesized cells; score it against their clean configs."""
    root = deployment[0]
    out = tmp_path / "recs.json"
    request = _request(tmp_path / "request.json", cells, edges)
    assert main(["recommend", str(root / "store.json"), str(request), "--out", str(out)]) == 0
    recs = json.loads(out.read_text())
    bundle = load_store(root / "store.json")
    layout = bundle.schema.config_layout
    predicted = {
        cell.cell_id: {
            s.name: rec["y_hat"][f"{s.technology}.{s.name}"] for s in layout if s.technology == cell.technology
        }
        for cell, rec in zip(cells, recs)
    }
    clean = {cid: t.clean_configs for cid, t in truth.items()}
    return recs, accuracy(_config_rows(bundle, cells, clean), _config_rows(bundle, cells, predicted))


class TestScenarios:
    """Expansion and greenfield cells from the generator, recommended for
    through the CLI against a frozen store and scored by ``accuracy``."""

    def test_expansion_recommends_and_scores(self, deployment, tmp_path):
        _, spec, graph, truth = deployment
        cells, edges, new_truth = synthesize_expansion(graph, truth, spec, 6, 2)
        recs, report = _recommend_and_score(deployment, tmp_path, cells, edges, new_truth)
        assert [r["cell_id"] for r in recs] == [c.cell_id for c in cells]
        assert 0.0 <= report.accuracy <= 1.0
        for rec in recs:
            assert rec["sources"]
            assert set(rec["y_hat"]) == {f"{s.technology}.{s.name}" for s in graph.schema.config_layout}

    def test_artifacts_stay_frozen(self, deployment, tmp_path):
        root, spec, graph, truth = deployment
        cells, edges, _ = synthesize_expansion(graph, truth, spec, 3, 9)
        request = _request(tmp_path / "request.json", cells, edges)
        store = root / "store.json"
        before = store.read_bytes()
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(["recommend", str(store), str(request), "--out", str(out)]) == 0
        assert store.read_bytes() == before
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_greenfield(self, deployment, tmp_path):
        _, spec, graph, truth = deployment
        cells, edges, new_truth = synthesize_greenfield(graph, truth, spec, 2, 3)
        assert len(cells) == 2 * spec.cells_per_site
        recs, report = _recommend_and_score(deployment, tmp_path, cells, edges, new_truth)
        assert [r["cell_id"] for r in recs] == [c.cell_id for c in cells]
        assert 0.0 <= report.accuracy <= 1.0
