"""Contrastive objective, pair mining, reconstruction objective, trainers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranrec import training
from ranrec.autodiff import Tape, UndefinedCosineError, grad_check
from ranrec.gnn import (
    ArchConfig,
    decode_group_on_tape,
    encode,
    encode_group_on_tape,
    init_decoder,
    init_encoder,
)
from ranrec.graph import feature_map, fit_normalization
from ranrec.rng import substream
from ranrec.sampler import SamplerConfig, build_dataset, sample_subgraph, stack_subgraphs
from ranrec.synth import SynthSpec, generate
from ranrec.training import (
    MiningConfig,
    TrainingConfig,
    encode_centers,
    contrastive_step,
    encode_centers_on_tape,
    mine_informative_pairs,
    pair_loss_on_tape,
    reconstruction_step,
    train_gae,
    train_sgnn,
)

from conftest import hand_subgraph, pair_records, same_pairs, star_graph
from losses import config_similarity, contrastive_loss, reconstruction_loss


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


def oracle_mine_informative_pairs(embeddings, targets, cfg, rng):
    """Pair mining over the full pair set, as it was before blockwise mining.

    Materializes every valid pair's index, difference row and label; kept as
    the reference the blockwise ``mine_informative_pairs`` must equal.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n = embeddings.shape[0]
    norms = np.linalg.norm(targets, axis=1)
    valid = norms > 0.0
    safe = np.where(valid, norms, 1.0)
    unit = targets / safe[:, None]
    labels = np.clip(2.0 * (unit @ unit.T) - 1.0, -1.0, 1.0)
    if int(valid.sum()) < 2:
        raise ValueError("pair mining needs at least 2 entries with nonzero targets")

    ii, jj = np.triu_indices(n, k=1)
    keep = valid[ii] & valid[jj]
    ii, jj = ii[keep], jj[keep]
    diffs = embeddings[ii] - embeddings[jj]
    dists = np.linalg.norm(diffs, axis=1)
    pair_labels = labels[ii, jj]

    total = ii.shape[0]
    budget = cfg.pairs_per_epoch if cfg.pairs_per_epoch is not None else 10 * n
    budget = min(budget, total)

    n_hard = 0
    hard_pick = np.empty(0, dtype=np.intp)
    if cfg.mining.hard_fraction > 0.0:
        median = float(np.median(dists))
        hard = ((dists < median) & (pair_labels < cfg.mining.sim_low)) | (
            (dists > median) & (pair_labels > cfg.mining.sim_high)
        )
        hard_idx = np.flatnonzero(hard)
        n_hard = min(int(round(cfg.mining.hard_fraction * budget)), hard_idx.shape[0])
        if n_hard > 0:
            hard_pick = hard_idx[rng.choice(hard_idx.shape[0], size=n_hard, replace=False)]

    unpicked = np.ones(total, dtype=bool)
    unpicked[hard_pick] = False
    rest = np.flatnonzero(unpicked)
    n_rand = min(budget - n_hard, rest.shape[0])
    rand_pick = rest[rng.choice(rest.shape[0], size=n_rand, replace=False)] if n_rand else np.empty(0, dtype=np.intp)

    chosen = np.sort(np.concatenate([hard_pick, rand_pick]))
    return pair_records((ii[k], jj[k], pair_labels[k]) for k in chosen)


@pytest.fixture(scope="module")
def network_1200():
    """The 1200-cell network of the train benchmark, its stats and sampler settings."""
    graph, _ = generate(SynthSpec(sites=200, seed=1))
    stats = fit_normalization(graph, graph.cell_ids)
    return graph, stats, SamplerConfig(fanout=8, seed=1)


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
        disjoint = pair_records([(0, 1, 0.3), (2, 3, -0.7)])
        shared = pair_records([(0, 1, 0.3), (0, 2, -0.2), (1, 2, 0.9)])
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
        pairs = pair_records((a, b, 0.1) for a, b in [(0, 1), (0, 2), (1, 2), (3, 8), (5, 7)])
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
        assert any(p.a == 0 and p.b == 2 and p.c == pytest.approx(1.0) for p in pairs) or any(
            p.a == 0 and p.b == 2 for p in pairs
        )

    def test_zero_config_vectors_excluded(self):
        embeddings = np.random.default_rng(0).random((4, 2))
        targets = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        cfg = TrainingConfig(pairs_per_epoch=10)
        pairs = mine_informative_pairs(embeddings, targets, cfg, np.random.default_rng(0))
        assert all(1 not in (p.a, p.b) for p in pairs)

    def test_records_count_pairs_and_equal_oracle(self):
        rng = np.random.default_rng(4)
        embeddings, targets = rng.normal(size=(30, 3)), rng.random((30, 4))
        for budget in (1, 57, None):
            cfg = TrainingConfig(pairs_per_epoch=budget)
            pairs = mine_informative_pairs(embeddings, targets, cfg, np.random.default_rng(0))
            assert len(pairs) == pairs.a.shape[0] == (300 if budget is None else budget)
            assert pairs.a.dtype == pairs.b.dtype == np.intp and pairs.c.dtype == np.float64
            oracle = oracle_mine_informative_pairs(embeddings, targets, cfg, np.random.default_rng(0))
            assert same_pairs(pairs, oracle)

    def test_too_few_valid_entries(self):
        with pytest.raises(ValueError, match="nonzero"):
            mine_informative_pairs(
                np.zeros((2, 2)),
                np.array([[0.0, 0.0], [1.0, 0.0]]),
                TrainingConfig(),
                np.random.default_rng(0),
            )


def _mine_both(embeddings, targets, cfg, seed):
    """New and oracle pair lists from equal generators, and whether the generators end equal."""
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = mine_informative_pairs(embeddings, targets, cfg, rng_new)
    old = oracle_mine_informative_pairs(embeddings, targets, cfg, rng_old)
    return new, old, rng_new.bit_generator.state == rng_old.bit_generator.state


@st.composite
def mining_cases(draw):
    n = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 3))
    q = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Small integer coordinates give many equal distances, so ties at the median.
    embeddings = rng.integers(0, 3, size=(n, dim)).astype(np.float64)
    zero_rows = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    one_hot = draw(st.booleans())
    if one_hot:
        # Scaled one-hot configs have exact labels (+-1), so any row block
        # size must reproduce the full product.
        targets = np.zeros((n, q))
        targets[np.arange(n), rng.integers(0, q, size=n)] = rng.integers(1, 4, size=n)
        block = draw(st.sampled_from([4, 9, 50, training.MINING_BLOCK_ENTRIES]))
    else:
        targets = rng.random((n, q))
        block = training.MINING_BLOCK_ENTRIES
    targets[zero_rows] = 0.0
    frac = draw(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0))
    budget = draw(st.integers(1, 1000) | st.none())  # up to above the 780 pairs of n = 40
    cfg = TrainingConfig(pairs_per_epoch=budget, mining=MiningConfig(hard_fraction=frac))
    return embeddings, targets, cfg, block, draw(st.integers(0, 2**32 - 1))


class TestBlockwiseMiningOracle:
    def test_equals_oracle_at_1200_cells_over_three_epochs(self, network_1200):
        graph, stats, sampling = network_1200
        encoder = init_encoder(ArchConfig(in_dim=graph.schema.predictor_dim), 1)
        cfg = TrainingConfig(seed=1)
        assert len(training._row_blocks(len(graph.cells))) > 2  # several row blocks
        for epoch in range(3):
            entries = build_dataset(graph, stats, sampling, epoch=epoch)
            z = encode_centers(encoder, entries)
            targets = entries.targets
            new, old, same_state = _mine_both(z, targets, cfg, epoch)
            assert len(new) == cfg.pairs_per_epoch or len(new) == 10 * len(entries)
            assert same_pairs(new, old), epoch
            assert same_state

    @given(mining_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_oracle(self, case):
        embeddings, targets, cfg, block, seed = case
        original = training.MINING_BLOCK_ENTRIES
        training.MINING_BLOCK_ENTRIES = block
        try:
            if int((np.linalg.norm(targets, axis=1) > 0).sum()) < 2:
                for mine in (mine_informative_pairs, oracle_mine_informative_pairs):
                    with pytest.raises(ValueError, match="nonzero"):
                        mine(embeddings, targets, cfg, np.random.default_rng(seed))
                return
            new, old, same_state = _mine_both(embeddings, targets, cfg, seed)
        finally:
            training.MINING_BLOCK_ENTRIES = original
        assert same_pairs(new, old)
        assert same_state

    def test_row_blocks_equal_full_computation(self, network_1200):
        # Mining relies on a row block of the label product and of the pair
        # norms rounding exactly as the full computation does.
        graph, stats, sampling = network_1200
        entries = build_dataset(graph, stats, sampling)
        targets = entries.targets
        z = encode_centers(init_encoder(ArchConfig(in_dim=graph.schema.predictor_dim), 1), entries)
        unit, _ = training._unit_targets(targets)
        full = np.clip(2.0 * (unit @ unit.T) - 1.0, -1.0, 1.0)
        n = len(entries)
        bounds = training._row_blocks(n)
        assert np.diff(bounds).min() >= 2
        ii, jj = np.triu_indices(n, k=1)
        full_norms = np.linalg.norm(z[ii] - z[jj], axis=1)
        offset = 0
        for r0, r1 in zip(bounds[:-1], bounds[1:]):
            assert np.array_equal(training._block_labels(unit, r0, r1), full[r0:r1])
            diffs = (z[r0:r1, None, :] - z[None, r0 + 1 :, :]).reshape(-1, z.shape[1])
            upper = (np.arange(r0 + 1, n) > np.arange(r0, r1)[:, None]).ravel()
            block = np.linalg.norm(diffs, axis=1)[upper]
            assert np.array_equal(block, full_norms[offset : offset + block.shape[0]])
            offset += block.shape[0]
        assert offset == full_norms.shape[0]

    def test_row_blocks_never_hold_one_row(self):
        for n in (2, 3, 362, 363, 1199, 1200, 4801, 12000):
            bounds = training._row_blocks(n)
            assert bounds[0] == 0 and bounds[-1] == n
            assert np.diff(bounds).min() >= 2
            assert np.diff(bounds).max() <= max(-(-training.MINING_BLOCK_ENTRIES // n), 3)


class TestEncodeCenters:
    def test_rows_match_single_subgraph_encode_for_any_grouping(self, monkeypatch):
        # Degree-limited sites give subgraphs below the fanout: sizes 7, 8, 9.
        graph, _ = generate(SynthSpec(sites=50, cells_per_site=5, inter_site_degree=2, seed=3))
        stats = fit_normalization(graph, graph.cell_ids)
        entries = build_dataset(graph, stats, SamplerConfig(fanout=8, seed=0))
        assert len(set(np.diff(entries.vptr).tolist())) > 1
        encoder = init_encoder(ArchConfig(in_dim=graph.schema.predictor_dim), 11)
        alone = np.stack([encode(encoder, entries[i : i + 1]) for i in range(len(entries))])
        for budget in (1, 7 * 19 + 1, training.ENCODE_GROUP_EDGES, 10**9):
            monkeypatch.setattr(training, "ENCODE_GROUP_EDGES", budget)
            assert np.array_equal(encode_centers(encoder, entries), alone), budget

    def test_tape_form_matches_eager(self):
        data = small_dataset(degree=8, fanout=3)
        encoder = init_encoder(tiny_arch(data.features.shape[1]), 2)
        on_tape = encode_centers_on_tape(Tape(), encoder, data).value
        assert np.array_equal(encode_centers(encoder, data), on_tape)


def _random_hand_subgraphs(rng: np.random.Generator, in_dim: int) -> list:
    """Sets of one subgraph shaped like ``test_gnn.make_subgraph``'s: a centre
    and 0-9 neighbours, star edges or a random edge set (the centre may have none)."""
    parts = []
    for _ in range(int(rng.integers(1, 30))):
        n = int(rng.integers(1, 11))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < 0.4 if rng.random() < 0.5 else [i == 0 for i, _ in pairs]
        edges = [pair for pair, kept in zip(pairs, keep) if kept]
        ids = [f"c{len(parts)}", *(f"n{len(parts)}.{j}" for j in range(1, n))]
        parts.append(hand_subgraph(ids, edges, rng.random((n, in_dim)), rng.random(3)))
    return parts


def _same_edges(got, want) -> bool:
    return (
        got.sources == want.sources
        and all(np.array_equal(getattr(got, name), getattr(want, name)) for name in ("src", "starts", "counts"))
    )


def _assert_groups_equal_stacked(subgraphs, parts, encoder):
    """Every encoding group of ``subgraphs`` has the edge lists, features and
    centres of a fresh ``stack_subgraphs`` of its subgraphs ``parts``,
    and ``encode_centers`` rows are bit-equal to one-subgraph ``encode`` rows."""
    cut = 0
    for rows, group in training._groups(subgraphs):
        assert rows.start == cut and rows.stop > cut
        cut = rows.stop
        stacked = stack_subgraphs(parts[rows])
        for got, want in zip(group.edge_lists, stacked.edge_lists, strict=True):
            assert _same_edges(got, want), rows
        assert group.features.tobytes() == stacked.features.tobytes(), rows
        assert np.array_equal(group.vptr, stacked.vptr) and group.targets.tobytes() == stacked.targets.tobytes()
        assert group.centers == subgraphs.centers[rows] == [part.centers[0] for part in parts[rows]]
    assert cut == len(subgraphs) == len(parts)
    alone = np.stack([encode(encoder, part) for part in parts])
    assert np.array_equal(encode_centers(encoder, subgraphs), alone)


class TestGroupSlices:
    """An encoding group is a slice of the set; it equals its subgraphs stacked anew."""

    def test_hand_made_sets_bit_equal_to_stacked_subgraphs(self, monkeypatch):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            parts = _random_hand_subgraphs(rng, 5)
            encoder = init_encoder(ArchConfig(in_dim=5), seed)
            monkeypatch.setattr(training, "ENCODE_GROUP_EDGES", int(rng.integers(1, 200)))
            _assert_groups_equal_stacked(stack_subgraphs(parts), parts, encoder)

    def test_synth_dataset_bit_equal_to_stacked_subgraphs(self):
        graph, _ = generate(SynthSpec(sites=200, seed=8))
        stats = fit_normalization(graph, graph.cell_ids)
        cfg = SamplerConfig(fanout=8, seed=2)
        dataset = build_dataset(graph, stats, cfg)
        features = feature_map(graph, stats)
        parts = [sample_subgraph(graph, cid, cfg, features) for cid in graph.cell_ids]
        encoder = init_encoder(ArchConfig(in_dim=graph.schema.predictor_dim), 5)
        assert len(list(training._groups(dataset))) > 50
        _assert_groups_equal_stacked(dataset, parts, encoder)


def _groupwise_dataset():
    """A 250-cell dataset with subgraphs of 7, 8 and 9 vertices."""
    graph, _ = generate(SynthSpec(sites=50, cells_per_site=5, inter_site_degree=2, seed=3))
    stats = fit_normalization(graph, graph.cell_ids)
    entries = build_dataset(graph, stats, SamplerConfig(fanout=8, seed=0))
    return entries, ArchConfig(in_dim=graph.schema.predictor_dim)


def greedy_group_vertices(entries, cap):
    """Vertex rows of each group when consecutive entries are taken while
    their edge rows (self loops and both directions of each edge) stay
    within ``cap``, at least one entry per group."""
    groups, edge_rows = [], cap
    for vertices, pairs in zip(np.diff(entries.vptr).tolist(), np.diff(entries.eptr).tolist()):
        size = vertices + 2 * pairs
        if edge_rows + size > cap:
            groups.append(0)
            edge_rows = 0
        groups[-1] += vertices
        edge_rows += size
    return groups


def _zeroed(params):
    for p in params:
        p.grad = np.zeros_like(p.value)
    return params


def single_tape_sgnn(encoder, entries, cfg, epoch):
    """The epoch's loss and gradient with every subgraph on one tape."""
    params = _zeroed(encoder.parameters())
    tape = Tape()
    z = encode_centers_on_tape(tape, encoder, entries)
    targets = entries.targets
    rng = substream(cfg.seed, "pairs", epoch)
    loss = pair_loss_on_tape(tape, z, oracle_mine_informative_pairs(z.value, targets, cfg, rng), cfg)
    tape.backward(loss)
    return float(loss.value[0, 0]), [p.grad for p in params]


def single_tape_gae(encoder, decoder, entries):
    params = _zeroed(encoder.parameters() + decoder.parameters())
    tape = Tape()
    x_hat = decode_group_on_tape(tape, decoder, entries, encode_group_on_tape(tape, encoder, entries))
    row_errors = tape.rownorm(tape.sub(tape.const(entries.features), x_hat))
    sizes = np.diff(entries.vptr)
    per_entry = tape.cmul(tape.sum_blocks(row_errors, sizes), 1.0 / sizes[:, None])
    loss = tape.mean(per_entry)
    tape.backward(loss)
    return float(loss.value[0, 0]), [p.grad for p in params]


def assert_gradients_close(params, expected):
    # Entries that are 0 in exact arithmetic hold rounding noise in both sums
    # (the last bias, since the pair loss sees only differences of
    # embeddings; some W_dst rows, since a softmax ignores a shift shared by
    # a row's scores), so they are compared at the gradient's overall scale.
    scale = max(np.abs(want).max() for want in expected)
    for p, want in zip(params, expected):
        np.testing.assert_allclose(p.grad, want, rtol=1e-12, atol=1e-12 * scale, err_msg=p.name)


class TestGroupwiseTraining:
    """Training adds its gradient up one encoding group at a time."""

    GROUP = 4 * 30  # edge rows per group: about 4 subgraphs, so ~60 groups

    def test_sgnn_gradient_matches_single_tape(self, monkeypatch):
        entries, arch = _groupwise_dataset()
        encoder = init_encoder(arch, 4)
        cfg = TrainingConfig(seed=4)
        expected_loss, expected = single_tape_sgnn(encoder, entries, cfg, 0)
        monkeypatch.setattr(training, "ENCODE_GROUP_EDGES", self.GROUP)
        params = _zeroed(encoder.parameters())
        assert contrastive_step(encoder, entries, cfg, 0) == expected_loss
        assert_gradients_close(params, expected)

    def test_gae_gradient_matches_single_tape(self, monkeypatch):
        entries, arch = _groupwise_dataset()
        encoder, decoder = init_encoder(arch, 4), init_decoder(arch, 4)
        expected_loss, expected = single_tape_gae(encoder, decoder, entries)
        monkeypatch.setattr(training, "ENCODE_GROUP_EDGES", self.GROUP)
        params = _zeroed(encoder.parameters() + decoder.parameters())
        assert reconstruction_step(encoder, decoder, entries) == expected_loss
        assert_gradients_close(params, expected)

    @pytest.mark.parametrize("model", ["sgnn", "gae"])
    def test_no_tape_node_holds_more_than_one_group(self, monkeypatch, model):
        entries, arch = _groupwise_dataset()
        monkeypatch.setattr(training, "ENCODE_GROUP_EDGES", self.GROUP)
        tapes = []
        init = Tape.__init__

        def recording_init(tape):
            init(tape)
            tapes.append(tape)

        monkeypatch.setattr(Tape, "__init__", recording_init)
        cfg = quick_config(epochs=2)
        if model == "sgnn":
            encoder, _ = train_sgnn(entries, arch, cfg)
            model_params = encoder.parameters()
        else:
            encoder, decoder, _ = train_gae(entries, arch, cfg)
            model_params = encoder.parameters() + decoder.parameters()
        model_ids = {id(p) for p in model_params}
        groups = greedy_group_vertices(entries, self.GROUP)
        model_tapes = [t for t in tapes if any(id(node.param) in model_ids for node in t.nodes)]
        # Each tape's largest node is its group's vertex rows. sgnn encodes
        # each group twice per epoch: eagerly, then to backpropagate.
        rows = [max(node.value.shape[0] for node in t.nodes if node.param is None) for t in model_tapes]
        assert rows == (2 * groups if model == "sgnn" else groups) * cfg.epochs
        # The loss tape over all embeddings holds no model parameter.
        assert len(tapes) - len(model_tapes) == (2 if model == "sgnn" else 0)


class TestTrainSgnn:
    def test_zero_epochs_returns_init(self):
        data = small_dataset()
        arch = tiny_arch(data.features.shape[1])
        cfg = quick_config(epochs=0)
        encoder, report = train_sgnn(data, arch, cfg)
        reference = init_encoder(arch, cfg.seed)
        for pa, pb in zip(encoder.parameters(), reference.parameters()):
            assert np.array_equal(pa.value, pb.value)
        assert report.epoch_losses == []

    def test_same_seed_bitwise_identical(self):
        data = small_dataset()
        arch = tiny_arch(data.features.shape[1])
        cfg = quick_config(epochs=3)
        enc_a, rep_a = train_sgnn(data, arch, cfg)
        enc_b, rep_b = train_sgnn(data, arch, cfg)
        assert rep_a.epoch_losses == rep_b.epoch_losses
        for pa, pb in zip(enc_a.parameters(), enc_b.parameters()):
            assert np.array_equal(pa.value, pb.value)

    def test_loss_decreases(self):
        data = small_dataset(degree=10, fanout=4)
        arch = tiny_arch(data.features.shape[1])
        cfg = quick_config(epochs=30)
        _, report = train_sgnn(data, arch, cfg)
        first = np.mean(report.epoch_losses[:3])
        last = np.mean(report.epoch_losses[-3:])
        assert last <= first

    def test_report_times_each_epoch_and_peak_rss(self):
        data = small_dataset()
        arch = tiny_arch(data.features.shape[1])
        _, report = train_sgnn(data, arch, quick_config(epochs=3))
        assert len(report.epoch_seconds) == 3 and min(report.epoch_seconds) > 0.0
        assert sum(report.epoch_seconds) <= report.wall_time_s
        assert report.peak_rss_mb > 0.0
        assert {"epoch_losses", "epoch_seconds", "peak_rss_mb"} <= set(report.to_json())

    def test_needs_two_entries(self):
        data = small_dataset()[:1]
        arch = tiny_arch(data.features.shape[1])
        with pytest.raises(ValueError, match="at least 2"):
            train_sgnn(data, arch, quick_config())

    def test_microbatch_gradient(self):
        data = small_dataset(degree=3, fanout=2)
        arch = tiny_arch(data.features.shape[1])
        cfg = quick_config()
        encoder = init_encoder(arch, 5)
        entries = data[:3]
        pairs = pair_records([(0, 1, 0.6), (1, 2, -0.9)])

        def f(tape: Tape):
            z = encode_centers_on_tape(tape, encoder, entries)
            return pair_loss_on_tape(tape, z, pairs, cfg)

        assert grad_check(f, encoder.parameters()) < 1e-4


class TestTrainGae:
    def test_zero_epochs_returns_init(self):
        data = small_dataset()
        arch = tiny_arch(data.features.shape[1])
        cfg = quick_config(epochs=0)
        encoder, decoder, report = train_gae(data, arch, cfg)
        for pa, pb in zip(encoder.parameters(), init_encoder(arch, cfg.seed).parameters()):
            assert np.array_equal(pa.value, pb.value)
        assert report.epoch_losses == []

    def test_loss_decreases(self):
        data = small_dataset(degree=8, fanout=3)
        arch = tiny_arch(data.features.shape[1])
        _, _, report = train_gae(data, arch, quick_config(epochs=25))
        assert np.mean(report.epoch_losses[-3:]) <= np.mean(report.epoch_losses[:3])

    def test_deterministic(self):
        data = small_dataset()
        arch = tiny_arch(data.features.shape[1])
        cfg = quick_config(epochs=3)
        a = train_gae(data, arch, cfg)
        b = train_gae(data, arch, cfg)
        assert a[2].epoch_losses == b[2].epoch_losses
        for pa, pb in zip(a[1].parameters(), b[1].parameters()):
            assert np.array_equal(pa.value, pb.value)
