"""Contrastive objective, pair mining, reconstruction objective, trainers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranrec import training
from ranrec.autodiff import Tape, UndefinedCosineError, grad_check
from ranrec.gnn import ArchConfig, encode, init_encoder
from ranrec.graph import fit_normalization
from ranrec.sampler import SamplerConfig, build_dataset
from ranrec.synth import SynthSpec, generate
from ranrec.training import (
    MiningConfig,
    PairSample,
    TrainingConfig,
    config_similarity,
    contrastive_loss,
    encode_centers,
    encode_centers_on_tape,
    mine_informative_pairs,
    pair_loss_on_tape,
    reconstruction_loss,
    train_gae,
    train_sgnn,
)

from conftest import star_graph


def small_dataset(degree=6, fanout=3, seed=0):
    graph = star_graph(degree)
    stats = fit_normalization(graph, graph.cell_ids)
    return build_dataset(graph, stats, SamplerConfig(fanout=fanout, seed=seed))


def tiny_arch(in_dim: int) -> ArchConfig:
    return ArchConfig(
        in_dim=in_dim, embedding_dim=3, layers=2, heads=2, head_dim=3, ffn_hidden=4, hidden_dim=4
    )


def quick_config(**overrides) -> TrainingConfig:
    base = dict(epochs=5, learning_rate=1e-2, seed=0)
    base.update(overrides)
    return TrainingConfig(**base)


class TestConfigSimilarity:
    def test_identical_vectors(self):
        y = np.array([0.2, 0.8, 0.4])
        assert config_similarity(y, y) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert config_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(-1.0)

    def test_hand_value(self):
        value = config_similarity(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        # 2/sqrt(2) - 1, quoted to 8 places as 0.41421356
        assert value == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-9)
        assert round(value, 8) == 0.41421356

    def test_zero_vector_rejected(self):
        with pytest.raises(UndefinedCosineError):
            config_similarity(np.zeros(3), np.ones(3))

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.random(4) + 0.01
            b = rng.random(4) + 0.01
            assert config_similarity(a, b) == pytest.approx(config_similarity(b, a), abs=1e-12)
            assert config_similarity(3.7 * a, b) == pytest.approx(
                config_similarity(a, b), abs=1e-12
            )


class TestContrastiveLoss:
    def test_similar_pair_pull_only(self):
        z_a = np.zeros(3)
        z_b = np.array([0.5, 0.0, 0.0])
        assert contrastive_loss(1.0, z_a, z_b, margin=1.0) == pytest.approx(0.5, abs=1e-9)

    def test_dissimilar_pair_hinge(self):
        z_a = np.zeros(3)
        z_b = np.array([0.2, 0.0, 0.0])
        assert contrastive_loss(-1.0, z_a, z_b, margin=1.0) == pytest.approx(0.8, abs=1e-9)

    def test_hinge_saturates(self):
        z_a = np.zeros(2)
        z_b = np.array([2.0, 0.0])
        assert contrastive_loss(-1.0, z_a, z_b, margin=1.0) == 0.0

    def test_printed_variant(self):
        # (1 + c) D + (1 - c) max(0, M) - D
        z_a, z_b = np.zeros(2), np.array([0.3, 0.4])
        c, margin = 0.2, 1.0
        expected = (1 + c) * 0.5 + (1 - c) * 1.0 - 0.5
        assert contrastive_loss(c, z_a, z_b, margin, form="printed") == pytest.approx(expected)

    def test_margin_must_be_positive(self):
        with pytest.raises(ValueError):
            contrastive_loss(0.0, np.zeros(2), np.ones(2), margin=0.0)

    @given(
        c=st.floats(min_value=-1.0, max_value=1.0),
        d=st.floats(min_value=0.0, max_value=10.0),
        margin=st.floats(min_value=1e-3, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, c, d, margin):
        z_a = np.zeros(2)
        z_b = np.array([d, 0.0])
        loss = contrastive_loss(c, z_a, z_b, margin)
        assert loss >= 0.0
        pull = (1.0 + c) * d
        push = (1.0 - c) * max(0.0, margin - d)
        if pull == 0.0 and push == 0.0:
            assert loss == 0.0
        else:
            assert loss > 0.0

    def test_tiny_distance_does_not_underflow(self):
        z_b = np.array([1e-187, 0.0])
        assert contrastive_loss(1.0, np.zeros(2), z_b, margin=1.0) == pytest.approx(1e-187)

    def test_tape_form_matches_eager(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(4, 3))
        disjoint = [PairSample(0, 1, 0.3), PairSample(2, 3, -0.7)]
        shared = [PairSample(0, 1, 0.3), PairSample(0, 2, -0.2), PairSample(1, 2, 0.9)]
        for pairs in (disjoint, shared):
            for form in ("standard", "printed"):
                cfg = TrainingConfig(loss_form=form)
                tape = Tape()
                node = pair_loss_on_tape(tape, tape.const(z), pairs, cfg)
                expected = np.mean(
                    [contrastive_loss(p.c, z[p.a], z[p.b], cfg.margin, form) for p in pairs]
                )
                assert node.value[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_tape_holds_no_pair_by_cell_matrix(self):
        n, k = 9, 5
        z = np.random.default_rng(3).normal(size=(n, 4))
        pairs = [PairSample(a, b, 0.1) for a, b in [(0, 1), (0, 2), (1, 2), (3, 8), (5, 7)]]
        tape = Tape()
        pair_loss_on_tape(tape, tape.const(z), pairs, TrainingConfig())
        assert all(node.value.shape != (k, n) for node in tape.nodes)


class TestReconstructionLoss:
    def test_perfect_reconstruction(self):
        x = np.random.default_rng(0).random((4, 3))
        assert reconstruction_loss(x, x) == 0.0

    def test_three_four_five(self):
        assert reconstruction_loss(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_mean_over_vertices(self):
        x = np.zeros((2, 1))
        x_hat = np.array([[1.0], [3.0]])
        assert reconstruction_loss(x, x_hat) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reconstruction_loss(np.zeros((2, 2)), np.zeros((3, 2)))


class TestMining:
    def _inputs(self):
        embeddings = np.array(
            [[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]], dtype=np.float64
        )
        targets = np.array(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.05], [0.0, 0.9]], dtype=np.float64
        )
        return embeddings, targets

    def test_disabled_mining_is_random_uniform(self):
        embeddings, targets = self._inputs()
        cfg = TrainingConfig(pairs_per_epoch=4, mining=MiningConfig(hard_fraction=0.0))
        rng = np.random.default_rng(0)
        pairs = mine_informative_pairs(embeddings, targets, cfg, rng)
        assert len(pairs) == 4
        for p in pairs:
            assert p.a < p.b
            expected = config_similarity(targets[p.a], targets[p.b])
            assert p.c == pytest.approx(expected, abs=1e-12)

    def test_hard_set_matches_enumeration(self):
        embeddings, targets = self._inputs()
        cfg = TrainingConfig(
            pairs_per_epoch=6,
            mining=MiningConfig(hard_fraction=1.0, sim_high=0.5, sim_low=-0.5),
        )
        # brute force over all 6 pairs
        dists = {}
        sims = {}
        for a in range(4):
            for b in range(a + 1, 4):
                dists[(a, b)] = float(np.linalg.norm(embeddings[a] - embeddings[b]))
                sims[(a, b)] = config_similarity(targets[a], targets[b])
        median = float(np.median(list(dists.values())))
        expected_hard = {
            pair
            for pair in dists
            if (dists[pair] < median and sims[pair] < -0.5)
            or (dists[pair] > median and sims[pair] > 0.5)
        }
        pairs = mine_informative_pairs(embeddings, targets, cfg, np.random.default_rng(1))
        mined_hard = {(p.a, p.b) for p in pairs if (p.a, p.b) in expected_hard}
        assert mined_hard == expected_hard

    def test_far_identical_configs_are_hard_positives(self):
        embeddings = np.array([[0.0, 0.0], [0.05, 0.0], [9.0, 0.0], [0.1, 0.0]])
        targets = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        cfg = TrainingConfig(
            pairs_per_epoch=2, mining=MiningConfig(hard_fraction=1.0)
        )
        pairs = mine_informative_pairs(embeddings, targets, cfg, np.random.default_rng(0))
        assert PairSample(0, 2, pytest.approx(1.0)) in [
            PairSample(p.a, p.b, pytest.approx(p.c)) for p in pairs
        ] or any(p.a == 0 and p.b == 2 for p in pairs)

    def test_zero_config_vectors_excluded(self):
        embeddings = np.random.default_rng(0).random((4, 2))
        targets = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        cfg = TrainingConfig(pairs_per_epoch=10)
        pairs = mine_informative_pairs(embeddings, targets, cfg, np.random.default_rng(0))
        assert all(1 not in (p.a, p.b) for p in pairs)

    def test_too_few_valid_entries(self):
        with pytest.raises(ValueError, match="nonzero"):
            mine_informative_pairs(
                np.zeros((2, 2)),
                np.array([[0.0, 0.0], [1.0, 0.0]]),
                TrainingConfig(),
                np.random.default_rng(0),
            )


class TestEncodeCenters:
    def test_rows_match_single_subgraph_encode_for_any_grouping(self, monkeypatch):
        # Degree-limited sites give subgraphs below the fanout: sizes 7, 8, 9.
        graph, _ = generate(SynthSpec(sites=50, cells_per_site=5, inter_site_degree=2, seed=3))
        stats = fit_normalization(graph, graph.cell_ids)
        entries = build_dataset(graph, stats, SamplerConfig(fanout=8, seed=0))
        assert len({e.subgraph.size for e in entries}) > 1
        encoder = init_encoder(ArchConfig(in_dim=graph.schema.predictor_dim), 11)
        alone = np.stack([encode(encoder, e.subgraph)[0] for e in entries])
        for budget in (1, 7 * 49 + 1, training.ENCODE_GROUP_PAIR_ROWS, 10**9):
            monkeypatch.setattr(training, "ENCODE_GROUP_PAIR_ROWS", budget)
            assert np.array_equal(encode_centers(encoder, entries), alone), budget

    def test_tape_form_matches_eager(self):
        data = small_dataset(degree=8, fanout=3)
        encoder = init_encoder(tiny_arch(data[0].subgraph.features.shape[1]), 2)
        on_tape = encode_centers_on_tape(Tape(), encoder, data).value
        assert np.array_equal(encode_centers(encoder, data), on_tape)


class TestTrainSgnn:
    def test_zero_epochs_returns_init(self):
        data = small_dataset()
        arch = tiny_arch(data[0].subgraph.features.shape[1])
        cfg = quick_config(epochs=0)
        encoder, report = train_sgnn(data, arch, cfg)
        reference = init_encoder(arch, cfg.seed)
        for pa, pb in zip(encoder.parameters(), reference.parameters()):
            assert np.array_equal(pa.value, pb.value)
        assert report.epoch_losses == []

    def test_same_seed_bitwise_identical(self):
        data = small_dataset()
        arch = tiny_arch(data[0].subgraph.features.shape[1])
        cfg = quick_config(epochs=3)
        enc_a, rep_a = train_sgnn(data, arch, cfg)
        enc_b, rep_b = train_sgnn(data, arch, cfg)
        assert rep_a.epoch_losses == rep_b.epoch_losses
        for pa, pb in zip(enc_a.parameters(), enc_b.parameters()):
            assert np.array_equal(pa.value, pb.value)

    def test_loss_decreases(self):
        data = small_dataset(degree=10, fanout=4)
        arch = tiny_arch(data[0].subgraph.features.shape[1])
        cfg = quick_config(epochs=30)
        _, report = train_sgnn(data, arch, cfg)
        first = np.mean(report.epoch_losses[:3])
        last = np.mean(report.epoch_losses[-3:])
        assert last <= first

    def test_needs_two_entries(self):
        data = small_dataset()[:1]
        arch = tiny_arch(data[0].subgraph.features.shape[1])
        with pytest.raises(ValueError, match="at least 2"):
            train_sgnn(data, arch, quick_config())

    def test_microbatch_gradient(self):
        data = small_dataset(degree=3, fanout=2)
        arch = tiny_arch(data[0].subgraph.features.shape[1])
        cfg = quick_config()
        encoder = init_encoder(arch, 5)
        entries = data[:3]
        pairs = [PairSample(0, 1, 0.6), PairSample(1, 2, -0.9)]

        def f(tape: Tape):
            z = encode_centers_on_tape(tape, encoder, entries)
            return pair_loss_on_tape(tape, z, pairs, cfg)

        assert grad_check(f, encoder.parameters()) < 1e-4


class TestTrainGae:
    def test_zero_epochs_returns_init(self):
        data = small_dataset()
        arch = tiny_arch(data[0].subgraph.features.shape[1])
        cfg = quick_config(epochs=0)
        encoder, decoder, report = train_gae(data, arch, cfg)
        for pa, pb in zip(encoder.parameters(), init_encoder(arch, cfg.seed).parameters()):
            assert np.array_equal(pa.value, pb.value)
        assert report.epoch_losses == []

    def test_loss_decreases(self):
        data = small_dataset(degree=8, fanout=3)
        arch = tiny_arch(data[0].subgraph.features.shape[1])
        _, _, report = train_gae(data, arch, quick_config(epochs=25))
        assert np.mean(report.epoch_losses[-3:]) <= np.mean(report.epoch_losses[:3])

    def test_deterministic(self):
        data = small_dataset()
        arch = tiny_arch(data[0].subgraph.features.shape[1])
        cfg = quick_config(epochs=3)
        a = train_gae(data, arch, cfg)
        b = train_gae(data, arch, cfg)
        assert a[2].epoch_losses == b[2].epoch_losses
        for pa, pb in zip(a[1].parameters(), b[1].parameters()):
            assert np.array_equal(pa.value, pb.value)
