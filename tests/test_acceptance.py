"""Acceptance suite: one criterion per test, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Budget-sensitive criteria assert their own wall
time. The benchmark configuration used for the accuracy gate is fixed
here (per-epoch resampling on, learning rate 2e-3) and documented in the
README; library defaults are untouched.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from ranrec.anomaly import anomaly_score, fit_forest
from ranrec.autodiff import Tape, grad_check
from ranrec.cli import main
from ranrec.config import config_from_values
from ranrec.evaluation import compare_models, pca_project, roc_auc
from ranrec.gnn import (
    ArchConfig,
    decode_group_on_tape,
    encode,
    encode_group_on_tape,
    init_decoder,
    init_encoder,
)
from ranrec.graph import fit_normalization, feature_map
from ranrec.inference import EmbeddingStore, recommend_majority
from ranrec.rng import substream
from ranrec.sampler import SamplerConfig, SubgraphSet, sample_subgraph, stack_subgraphs
from ranrec.synth import SynthSpec, generate
from ranrec.training import (
    TrainingConfig,
    encode_centers_on_tape,
    mine_informative_pairs,
    pair_loss_on_tape,
)

from conftest import hand_subgraph, learnability_check, pair_records, small_schema, star_graph
from dense_gat import edge_attention_matrices
from losses import config_similarity, contrastive_loss


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert passed, f"criterion {number} {name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Reference-number scope statement


def test_criterion_1_reference_numbers_out_of_scope():
    detail = (
        "reference accuracies 0.888-0.991 were measured on proprietary operator "
        "networks and are not reproducible here; synthetic and property-based "
        "criteria below substitute for them"
    )
    _report(1, "reference-scope statement", True, detail)


# ---------------------------------------------------------------------------
# 2. Gradient correctness on randomized subgraphs


def _random_subgraph(rng: np.random.Generator, in_dim: int) -> SubgraphSet:
    n = int(rng.integers(3, 7))  # 3-6 vertices
    features = rng.random((n, in_dim))
    edges = {(0, j) for j in range(1, n)}
    for i in range(1, n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.add((i, j))
    return hand_subgraph(["c0", *(f"n{j}" for j in range(1, n))], sorted(edges), features, rng.random(4))


def _grad_arch(in_dim: int) -> ArchConfig:
    return ArchConfig(
        in_dim=in_dim, embedding_dim=2, layers=2, heads=2, head_dim=2, ffn_hidden=3, hidden_dim=3
    )


def test_criterion_2_gradient_correctness():
    # sgnn's centre embeddings come from the centre-only last layer; gae's
    # from edge-list heads over every edge. Each sgnn case stacks three
    # subgraphs of 3-6 vertices into one edge list.
    started = time.perf_counter()
    in_dim = 3
    cases = 20
    worst_sgnn = 0.0
    for case in range(cases):
        rng = np.random.default_rng(1000 + case)
        arch = _grad_arch(in_dim)
        encoder = init_encoder(arch, seed=case)
        batch = stack_subgraphs([_random_subgraph(rng, in_dim) for _ in range(3)])
        pairs = pair_records(
            [
                (0, 1, float(rng.uniform(-1, 1))),
                (1, 2, float(rng.uniform(-1, 1))),
                (0, 2, float(rng.uniform(-1, 1))),
            ]
        )
        cfg = TrainingConfig(seed=case)

        def f(tape: Tape):
            z = encode_centers_on_tape(tape, encoder, batch)
            return pair_loss_on_tape(tape, z, pairs, cfg)

        worst_sgnn = max(worst_sgnn, grad_check(f, encoder.parameters()))

    worst_gae = 0.0
    for case in range(cases):
        rng = np.random.default_rng(2000 + case)
        arch = _grad_arch(in_dim)
        encoder = init_encoder(arch, seed=case)
        decoder = init_decoder(arch, seed=case)
        subgraph = _random_subgraph(rng, in_dim)

        def f(tape: Tape):
            z = encode_group_on_tape(tape, encoder, subgraph)
            x_hat = decode_group_on_tape(tape, decoder, subgraph, z)
            diff = tape.sub(tape.const(subgraph.features), x_hat)
            return tape.mean(tape.rownorm(diff))

        worst_gae = max(worst_gae, grad_check(f, encoder.parameters() + decoder.parameters()))

    elapsed = time.perf_counter() - started
    ok = worst_sgnn < 1e-4 and worst_gae < 1e-4 and elapsed < 30.0
    _report(
        2,
        "gradient correctness",
        ok,
        f"contrastive max err {worst_sgnn:.2e}, reconstruction max err {worst_gae:.2e}, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Nearest-neighbor oracle equivalence


def _oracle_closest(records, z):
    return min(records, key=lambda r: (float(np.linalg.norm(r.z - z)), r.cell_id))


def _oracle_majority(records, z, k, schema):
    ranked = sorted(records, key=lambda r: (float(np.linalg.norm(r.z - z)), r.cell_id))[:k]
    votes = np.stack([r.y for r in ranked])
    out = np.empty(votes.shape[1])
    for slot, spec in enumerate(schema.config_layout):
        column = votes[:, slot]
        if spec.aggregation == "mode":
            counts: dict[float, int] = {}
            first: dict[float, int] = {}
            for i, v in enumerate(column.tolist()):
                counts[v] = counts.get(v, 0) + 1
                first.setdefault(v, i)
            out[slot] = max(counts, key=lambda v: (counts[v], -first[v]))
        elif spec.aggregation == "mean":
            out[slot] = column.mean()
        else:
            out[slot] = np.median(column)
    return out


def test_criterion_3_knn_oracle_equivalence():
    started = time.perf_counter()
    schema = small_schema()
    arch = ArchConfig(
        in_dim=4, embedding_dim=6, layers=1, heads=1, head_dim=2, ffn_hidden=2, hidden_dim=2
    )
    store = EmbeddingStore(init_encoder(arch, 0))
    rng = np.random.default_rng(42)
    for i in range(195):
        store.add(f"r{i:04d}", rng.normal(size=6), rng.random(4))
    # duplicated embeddings force distance ties that only cell id resolves
    shared = rng.normal(size=6)
    for i in range(5):
        store.add(f"tie{i}", shared.copy(), rng.random(4))

    mismatches = 0
    for q in range(1000):
        z = shared if q % 50 == 0 else rng.normal(size=6)
        closest = recommend_majority(store, z, 1, schema)
        expected = _oracle_closest(store.records, z)
        if closest.sources[0][0] != expected.cell_id or not np.array_equal(
            closest.y_hat, expected.y
        ):
            mismatches += 1
        k = int(rng.integers(1, 8))
        majority = recommend_majority(store, z, k, schema)
        expected_votes = _oracle_majority(store.records, z, k, schema)
        if not np.array_equal(majority.y_hat, expected_votes):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    _report(3, "knn oracle equivalence", ok, f"{mismatches} mismatches, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Synthetic accuracy benchmark


BENCHMARK_CONFIG = dict(resample_per_epoch=True, learning_rate=2e-3)


def test_criterion_4_synthetic_benchmark():
    started = time.perf_counter()
    spec = SynthSpec()  # 300 cells, noise 0.02, seed 0
    noise_free, noise_free_truth = generate(
        SynthSpec(**{**spec.to_json(), "config_noise": 0.0, "misconfig_rate": 0.0})
    )
    oracle = learnability_check(noise_free, noise_free_truth)
    assert oracle.oracle_accuracy >= 0.98, "generator not learnable at zero noise"

    graph, _ = generate(spec)
    config = config_from_values(dict(BENCHMARK_CONFIG))
    result = compare_models(graph, config)
    sgnn = result.by_model("sgnn")
    gae = result.by_model("gae")
    untrained = result.by_model("untrained")
    losses = sgnn.train_report.epoch_losses
    loss_improved = np.mean(losses[-3:]) <= np.mean(losses[:3])
    elapsed = time.perf_counter() - started

    ok = (
        sgnn.test.accuracy >= 0.95
        and sgnn.test.accuracy - untrained.test.accuracy >= 0.03
        and gae.test.accuracy > untrained.test.accuracy
        and loss_improved
        and elapsed < 300.0
    )
    _report(
        4,
        "synthetic benchmark",
        ok,
        f"sgnn {sgnn.test.accuracy:.3f}, gae {gae.test.accuracy:.3f}, "
        f"untrained {untrained.test.accuracy:.3f}, oracle {oracle.oracle_accuracy:.3f}, "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. Misconfiguration detection


def test_criterion_5_misconfiguration_detection(tmp_path):
    """The deployed path, synth -> train -> embed -> detect, scored against
    the generator's corrupted flags."""
    started = time.perf_counter()
    (tmp_path / "train.cfg").write_text("epochs = 60\n")
    aucs = []
    for seed in range(5):  # default spec: misconfig_rate 0.05, magnitude 5
        out = tmp_path / f"seed{seed}"
        network, checkpoint, store = (str(out / name) for name in ("network.json", "ckpt.json", "store.json"))
        for argv in (
            ["synth", "--seed", str(seed), "--out", str(out)],
            ["train", network, "--config", str(tmp_path / "train.cfg"), "--seed", str(seed), "--out", checkpoint],
            ["embed", network, checkpoint, "--out", store],
            ["detect", store, "--out", str(out / "flags.json")],
        ):
            assert main(argv) == 0, argv
        truth = json.loads((out / "ground_truth.json").read_text())
        cells = json.loads((out / "flags.json").read_text())["cells"]
        aucs.append(roc_auc([truth[c["cell_id"]]["corrupted"] for c in cells], [c["score"] for c in cells]))
    mean_auc = float(np.mean(aucs))
    elapsed = time.perf_counter() - started
    ok = mean_auc >= 0.85 and elapsed < 120.0
    _report(
        5,
        "misconfiguration detection",
        ok,
        f"mean ROC-AUC {mean_auc:.7f} over 5 seeds ({', '.join(f'{a:.7f}' for a in aucs)}), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. Loss-form unit values


def _tape_pair_loss(c: float, z_a: np.ndarray, z_b: np.ndarray, margin: float) -> float:
    """Training's loss on a one-pair batch."""
    tape = Tape()
    z = tape.const(np.stack([z_a, z_b]))
    return float(pair_loss_on_tape(tape, z, pair_records([(0, 1, c)]), TrainingConfig(margin=margin)).value[0, 0])


def _mined_label(y_a: np.ndarray, y_b: np.ndarray) -> float:
    """Mining's label of the one pair of a two-row set."""
    cfg = TrainingConfig(pairs_per_epoch=1)
    (pair,) = mine_informative_pairs(np.eye(2), np.stack([y_a, y_b]), cfg, np.random.default_rng(0))
    return pair.c


def test_criterion_6_loss_forms():
    losses = [
        ((1.0, np.zeros(2), np.array([0.5, 0.0]), 1.0), 0.5),
        ((-1.0, np.zeros(2), np.array([0.2, 0.0]), 1.0), 0.8),
        ((-1.0, np.zeros(2), np.array([2.0, 0.0]), 1.0), 0.0),
    ]
    labels = [
        ((np.array([0.3, 0.4]), np.array([0.3, 0.4])), 1.0),
        ((np.array([1.0, 0.0]), np.array([0.0, 1.0])), -1.0),
        ((np.array([1.0, 0.0]), np.array([1.0, 1.0])), math.sqrt(2.0) - 1.0),
    ]
    checks = [
        abs(contrastive_loss(*losses[0][0]) - 0.5) < 1e-9,
        abs(contrastive_loss(*losses[1][0]) - 0.8) < 1e-9,
        contrastive_loss(*losses[2][0]) == 0.0,
        abs(config_similarity(*labels[0][0]) - 1.0) < 1e-9,
        abs(config_similarity(*labels[1][0]) + 1.0) < 1e-9,
        abs(config_similarity(*labels[2][0]) - (math.sqrt(2.0) - 1.0)) < 1e-9,
    ]
    # The same six values from what training runs: the tape loss and mining's labels.
    trained = [abs(_tape_pair_loss(*args) - value) < 1e-9 for args, value in losses]
    trained += [abs(_mined_label(*args) - value) < 1e-9 for args, value in labels]
    _report(
        6,
        "loss-form unit suite",
        all(checks) and all(trained),
        f"{sum(checks)}/6 values exact, {sum(trained)}/6 from training's tape loss and mined labels",
    )


# ---------------------------------------------------------------------------
# 7. Structural invariants


def test_criterion_7_structural_invariants():
    details = []

    # encoder neighbor-permutation invariance within 1e-12
    arch = ArchConfig(
        in_dim=4, embedding_dim=3, layers=2, heads=2, head_dim=3, ffn_hidden=4, hidden_dim=4
    )
    encoder = init_encoder(arch, seed=3)
    rng = np.random.default_rng(5)
    features = rng.random((5, 4))
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3)]
    sub = hand_subgraph(["c", "a", "b", "d", "e"], edges, features)
    perm = [0, 4, 2, 1, 3]
    inv = {old: new for new, old in enumerate(perm)}
    permuted = hand_subgraph(
        ["c", *(f"p{i}" for i in range(4))],
        [tuple(sorted((inv[i], inv[j]))) for i, j in edges],
        features[perm],
    )
    drift = np.abs(encode(encoder, permuted) - encode(encoder, sub)).max()
    perm_ok = drift <= 1e-12
    details.append(f"permutation drift {drift:.1e}")

    # attention rows normalize
    rows_ok = True
    for layer_weights in edge_attention_matrices(encoder, sub):
        for alpha in layer_weights:
            rows_ok &= bool(np.all(alpha >= 0.0))
            rows_ok &= bool(np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12))

    # sampler determinism and uniformity band over 10k draws
    graph = star_graph(10)
    stats = fit_normalization(graph, graph.cell_ids)
    fmap = feature_map(graph, stats)
    cfg = SamplerConfig(fanout=1, seed=77)
    first = sample_subgraph(graph, "hub", cfg, fmap)
    determinism_ok = all(
        np.array_equal(sample_subgraph(graph, "hub", cfg, fmap).rows, first.rows) for _ in range(5)
    )
    counts: dict[str, int] = {}
    for k in range(10_000):
        neighbor = graph.cell_ids[sample_subgraph(graph, "hub", cfg, fmap, rng=substream(77, "band", k)).rows[1]]
        counts[neighbor] = counts.get(neighbor, 0) + 1
    freqs = [c / 10_000 for c in counts.values()]
    uniform_ok = len(counts) == 10 and all(0.08 <= f <= 0.12 for f in freqs)
    details.append(f"uniformity [{min(freqs):.3f}, {max(freqs):.3f}]")

    # PCA orthonormality and exact rank-2 recovery
    basis = np.linalg.qr(rng.normal(size=(7, 2)))[0].T
    planar = rng.normal(size=(25, 2)) @ basis
    proj = pca_project(planar)
    gram_ok = np.abs(proj.components @ proj.components.T - np.eye(2)).max() < 1e-10
    d_orig = np.linalg.norm(planar[:, None] - planar[None, :], axis=2)
    d_proj = np.linalg.norm(proj.points[:, None] - proj.points[None, :], axis=2)
    rank2_ok = np.abs(d_orig - d_proj).max() < 1e-8

    # isolation forest score range and outlier ranking across seeds
    wins = 0
    range_ok = True
    for seed in range(100):
        pts_rng = np.random.default_rng(seed)
        points = pts_rng.normal(scale=1.0, size=(99, 2))
        outlier = np.full(2, 10.0)
        cloud = np.vstack([points, outlier])
        forest = fit_forest(cloud, t=50, psi=64, seed=seed)
        scores = [anomaly_score(forest, p) for p in cloud]
        range_ok &= all(0.0 < s < 1.0 for s in scores)
        if int(np.argmax(scores)) == 99:
            wins += 1
    outlier_ok = wins >= 95
    details.append(f"outlier wins {wins}/100")

    ok = perm_ok and rows_ok and determinism_ok and uniform_ok and gram_ok and rank2_ok and range_ok and outlier_ok
    _report(7, "structural invariants", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. Determinism audit


def test_criterion_8_determinism_audit(tmp_path):
    spec = {
        "sites": 6,
        "cells_per_site": 4,
        "context_clusters": 3,
        "config_noise": 0.02,
        "misconfig_rate": 0.1,
        "misconfig_magnitude": 5.0,
        "inter_site_degree": 2,
        "seed": 23,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "train.cfg").write_text("epochs = 5\nseed = 23\n")
    new_cells = {
        "cells": [
            {
                "cell_id": "AUDIT1",
                "node_id": "N001",
                "technology": "NR",
                "predictors": {
                    "nrBandwidthMhz": 50,
                    "nrChannelNumber": 250000,
                    "nrAntennaAzimuth": 10,
                },
            }
        ],
        "edges": [],
    }
    (tmp_path / "new_cells.json").write_text(json.dumps(new_cells))

    def run(out_dir):
        out_dir.mkdir()
        for argv in (
            ["synth", str(tmp_path / "spec.json"), "--out", str(out_dir / "net")],
            [
                "train",
                str(out_dir / "net" / "network.json"),
                "--config",
                str(tmp_path / "train.cfg"),
                "--model",
                "sgnn",
                "--out",
                str(out_dir / "ckpt.json"),
            ],
            [
                "embed",
                str(out_dir / "net" / "network.json"),
                str(out_dir / "ckpt.json"),
                "--out",
                str(out_dir / "store.json"),
            ],
            [
                "recommend",
                str(out_dir / "store.json"),
                str(tmp_path / "new_cells.json"),
                "--mode",
                "majority",
                "--k",
                "3",
                "--out",
                str(out_dir / "recs.json"),
            ],
            [
                "detect",
                str(out_dir / "store.json"),
                "--threshold",
                "0.6",
                "--out",
                str(out_dir / "detect.json"),
            ],
            [
                "evaluate",
                str(out_dir / "net" / "network.json"),
                "--config",
                str(tmp_path / "train.cfg"),
                "--out",
                str(out_dir / "accuracy.csv"),
            ],
            ["project", str(out_dir / "store.json"), "--out", str(out_dir / "proj.csv")],
        ):
            assert main(argv) == 0

    run(tmp_path / "a")
    run(tmp_path / "b")
    audited = [
        "net/network.json",
        "net/ground_truth.json",
        "ckpt.json",
        "store.json",
        "recs.json",
        "detect.json",
        "accuracy.csv",
        "accuracy_sgnn_projection.csv",
        "accuracy_gae_projection.csv",
        "accuracy_untrained_projection.csv",
        "proj.csv",
    ]
    mismatched = [
        name
        for name in audited
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    _report(8, "determinism audit", not mismatched, f"{len(audited)} artifacts compared")
