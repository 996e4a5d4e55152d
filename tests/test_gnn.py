"""Attention layers and encoder stacks over sampled subgraphs."""

from __future__ import annotations

import re

import numpy as np
import pytest

from ranrec.autodiff import Tape, grad_check, leaky_relu_values
from ranrec.gnn import (
    ArchConfig,
    Checkpoint,
    decode_group_on_tape,
    encode,
    encode_group_on_tape,
    init_decoder,
    init_encoder,
    schema_hash,
)
from ranrec.graph import NormalizationStats, SlotStats
from ranrec.sampler import SubgraphSet, stack_subgraphs

from conftest import hand_subgraph, small_schema
from dense_gat import attention_matrices, attention_scores, dense_encode, edge_attention_matrices

# The dense oracle and the edge-list path give the same attention weights.
BOTH = (attention_matrices, edge_attention_matrices)


def make_subgraph(n_neighbors: int, in_dim: int = 5, seed: int = 0, edges=None) -> SubgraphSet:
    rng = np.random.default_rng(seed)
    features = rng.random(size=(1 + n_neighbors, in_dim))
    if edges is None:
        edges = tuple((0, j) for j in range(1, 1 + n_neighbors))
    return hand_subgraph(["center", *(f"nb{j}" for j in range(n_neighbors))], edges, features)


def tiny_arch(in_dim: int = 5) -> ArchConfig:
    return ArchConfig(
        in_dim=in_dim, embedding_dim=3, layers=2, heads=2, head_dim=4, ffn_hidden=6, hidden_dim=5
    )


class TestAttentionScores:
    def test_zero_attention_vector(self):
        stack = init_encoder(tiny_arch(), seed=0)
        head = stack.layers[0].heads[0]
        head.a.value[:] = 0.0
        h = np.ones(5)
        assert attention_scores(head, h, h, slope=0.2) == 0.0

    def test_zero_projections(self):
        stack = init_encoder(tiny_arch(), seed=0)
        head = stack.layers[0].heads[0]
        head.W_src.value[:] = 0.0
        head.W_dst.value[:] = 0.0
        assert attention_scores(head, np.ones(5), np.full(5, 2.0), slope=0.2) == 0.0

    def test_matches_hand_evaluation(self):
        rng = np.random.default_rng(5)
        stack = init_encoder(tiny_arch(in_dim=3), seed=1)
        head = stack.layers[0].heads[0]
        h_i = rng.normal(size=3)
        h_j = rng.normal(size=3)
        pre = h_j @ head.W_src.value + h_i @ head.W_dst.value
        expected = float(leaky_relu_values(pre, 0.2) @ head.a.value.ravel())
        assert attention_scores(head, h_i, h_j, slope=0.2) == pytest.approx(expected, rel=1e-12)


class TestLayerForward:
    def test_single_vertex_attends_to_itself(self):
        stack = init_encoder(tiny_arch(), seed=2)
        sub = make_subgraph(0)
        for matrices in BOTH:
            for layer_weights in matrices(stack, sub):
                for alpha in layer_weights:
                    assert alpha.shape == (1, 1)
                    assert alpha[0, 0] == pytest.approx(1.0)
        assert np.isfinite(encode(stack, sub)).all()

    def test_zero_attention_vector_gives_uniform_weights(self):
        stack = init_encoder(tiny_arch(), seed=3)
        for layer in stack.layers:
            for head in layer.heads:
                head.a.value[:] = 0.0
        sub = make_subgraph(3)  # center + 3 neighbors, star edges
        for matrices in BOTH:
            center_row = matrices(stack, sub)[0][0][0]
            assert np.allclose(center_row, 0.25)

    def test_attention_rows_are_probability_vectors(self):
        stack = init_encoder(tiny_arch(), seed=4)
        sub = make_subgraph(4, edges=[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        for matrices in BOTH:
            for layer_weights in matrices(stack, sub):
                for alpha in layer_weights:
                    assert np.all(alpha >= 0.0)
                    assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)

    def test_masked_pairs_get_zero_weight(self):
        stack = init_encoder(tiny_arch(), seed=5)
        sub = make_subgraph(3)  # star: neighbors are not adjacent to each other
        for matrices in BOTH:
            alpha = matrices(stack, sub)[0][0]
            assert alpha[1, 2] == 0.0
            assert alpha[2, 3] == 0.0

    def test_edge_weights_match_the_dense_oracle(self):
        stack = init_encoder(tiny_arch(), seed=6)
        sub = make_subgraph(4, edges=[(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)])
        for dense, edge in zip(attention_matrices(stack, sub), edge_attention_matrices(stack, sub)):
            for want, got in zip(dense, edge):
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-16)


class TestEncodeDecode:
    def test_deterministic(self):
        stack = init_encoder(tiny_arch(), seed=6)
        sub = make_subgraph(3)
        assert np.array_equal(encode(stack, sub), encode(stack, sub))

    def test_identical_subgraphs_identical_centers(self):
        stack = init_encoder(tiny_arch(), seed=7)
        a = make_subgraph(3, seed=11)
        b = hand_subgraph(["other", "x", "y", "z"], a.edges, a.features.copy())
        assert np.allclose(encode(stack, a), encode(stack, b))

    def test_neighbor_permutation_invariance(self):
        stack = init_encoder(tiny_arch(), seed=8)
        rng = np.random.default_rng(9)
        features = rng.random(size=(5, 5))
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3)]
        sub = hand_subgraph(["c", "a", "b", "d", "e"], edges, features)
        # permute neighbor order (vertex 0 stays center)
        perm = [0, 3, 1, 4, 2]
        inv = {old: new for new, old in enumerate(perm)}
        permuted_edges = tuple(tuple(sorted((inv[i], inv[j]))) for i, j in edges)
        permuted = hand_subgraph(
            ["c", *np.array(["a", "b", "d", "e"])[np.array(perm[1:]) - 1]],
            permuted_edges,
            features[perm],
        )
        out, out_permuted = (
            encode_group_on_tape(Tape(), stack, s).value for s in (sub, permuted)
        )
        assert np.abs(encode(stack, permuted) - encode(stack, sub)).max() <= 1e-12
        for old, new in inv.items():
            assert np.abs(out_permuted[new] - out[old]).max() <= 1e-12

    def test_default_embedding_dimension(self):
        assert ArchConfig(in_dim=6).embedding_dim == 14

    def test_decode_shape_matches_features(self):
        arch = tiny_arch()
        enc = init_encoder(arch, seed=10)
        dec = init_decoder(arch, seed=10)
        sub = make_subgraph(2)
        tape = Tape()
        x_hat = decode_group_on_tape(tape, dec, sub, encode_group_on_tape(tape, enc, sub))
        assert x_hat.shape == sub.features.shape

    def test_decode_deterministic(self):
        arch = tiny_arch()
        dec = init_decoder(arch, seed=11)
        sub = make_subgraph(2)
        z = np.random.default_rng(1).normal(size=(3, arch.embedding_dim))
        first, second = (decode_group_on_tape(t, dec, sub, t.const(z)).value for t in (Tape(), Tape()))
        assert np.array_equal(first, second)

    def test_reconstruction_gradient(self):
        arch = tiny_arch(in_dim=3)
        enc = init_encoder(arch, seed=12)
        dec = init_decoder(arch, seed=12)
        sub = make_subgraph(2, in_dim=3)

        def f(tape: Tape):
            z = encode_group_on_tape(tape, enc, sub)
            x_hat = decode_group_on_tape(tape, dec, sub, z)
            diff = tape.sub(tape.const(sub.features), x_hat)
            return tape.mean(tape.rownorm(diff))

        assert grad_check(f, enc.parameters() + dec.parameters()) < 1e-4

    def test_tape_keeps_no_pair_rows(self):
        # A head's (edges, head_dim) pair rows are recomputed in the backward
        # pass: neither a node's value nor its backward rule may hold them.
        arch = tiny_arch()
        stack = init_encoder(arch, seed=14)
        batch = stack_subgraphs([make_subgraph(8, seed=i) for i in range(6)])
        pair_rows = batch.edge_lists[0].src.shape[0]
        for centers in (False, True):
            tape = Tape()
            encode_group_on_tape(tape, stack, batch, centers)
            for node in tape.nodes:
                assert node.value.shape[0] < pair_rows
                held = [c.cell_contents for c in getattr(node.backward_fn, "__closure__", None) or ()]
                for value in held:
                    if isinstance(value, np.ndarray):
                        assert value.size < pair_rows * arch.head_dim

    def test_matches_the_dense_oracle(self):
        stack = init_encoder(ArchConfig(in_dim=5), seed=15)
        for seed in range(5):
            sub = make_subgraph(8, seed=seed, edges=[(0, j) for j in range(1, 9)] + [(2, 3), (5, 8)])
            full = encode_group_on_tape(Tape(), stack, sub).value
            np.testing.assert_allclose(full, dense_encode(stack, sub), rtol=1e-13, atol=1e-15)

    def test_outputs_bit_equal_across_paths(self):
        # A centre's embedding is the same bits whether the last layer runs
        # over every edge or over the edges into centres only, and whether
        # its subgraph is encoded alone or with others of any sizes. The
        # subgraphs include lone vertices and a centre without edges.
        stack = init_encoder(ArchConfig(in_dim=5), seed=16)
        subgraphs = [
            make_subgraph(0, seed=1),
            make_subgraph(8, seed=2, edges=[(0, j) for j in range(1, 9)] + [(1, 2)]),
            make_subgraph(3, seed=3, edges=[(1, 2), (2, 3)]),  # the centre has no edges
            make_subgraph(5, seed=4),
            make_subgraph(0, seed=5),
            make_subgraph(1, seed=6),
        ]
        alone = np.stack([encode(stack, sub) for sub in subgraphs])
        batch = stack_subgraphs(subgraphs)
        full = encode_group_on_tape(Tape(), stack, batch).value[batch.vptr[:-1]]
        centers = encode_group_on_tape(Tape(), stack, batch, centers=True).value
        assert np.array_equal(full, alone)
        assert np.array_equal(centers, alone)
        lone = [s for s in subgraphs if s.vptr[-1] == 1]
        assert np.array_equal(
            encode_group_on_tape(Tape(), stack, stack_subgraphs(lone), centers=True).value,
            np.stack([encode(stack, s) for s in lone]),
        )

    def test_wrong_feature_width_rejected(self):
        stack = init_encoder(tiny_arch(in_dim=4), seed=13)
        with pytest.raises(ValueError, match="columns"):
            encode(stack, make_subgraph(2, in_dim=7))


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = init_encoder(tiny_arch(), seed=21)
        b = init_encoder(tiny_arch(), seed=21)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.value, pb.value)

    def test_different_seeds_differ(self):
        a = init_encoder(tiny_arch(), seed=21)
        b = init_encoder(tiny_arch(), seed=22)
        assert any(
            not np.array_equal(pa.value, pb.value)
            for pa, pb in zip(a.parameters(), b.parameters())
        )

    def test_glorot_bound(self):
        arch = ArchConfig(
            in_dim=4, embedding_dim=4, layers=1, heads=1, head_dim=4, ffn_hidden=4, hidden_dim=4
        )
        stack = init_encoder(arch, seed=23)
        w = stack.layers[0].heads[0].W_src.value
        bound = np.sqrt(6.0 / 8.0)
        assert np.all(np.abs(w) <= bound)

    def test_biases_zero(self):
        stack = init_encoder(tiny_arch(), seed=24)
        for layer in stack.layers:
            assert not layer.b1.value.any()
            assert not layer.b2.value.any()

    def test_dims_chain(self):
        arch = tiny_arch()
        enc = init_encoder(arch, seed=25)
        assert enc.in_dim == arch.in_dim
        assert enc.out_dim == arch.embedding_dim
        dec = init_decoder(arch, seed=25)
        assert dec.in_dim == arch.embedding_dim
        assert dec.out_dim == arch.in_dim


class TestCheckpoint:
    def _stats(self):
        return NormalizationStats(
            predictor=(SlotStats(0.0, 1.0),) * 4,
            config=(SlotStats(0.0, 1.0),) * 4,
        )

    def test_roundtrip(self):
        schema = small_schema()
        arch = tiny_arch(in_dim=schema.predictor_dim)
        enc = init_encoder(arch, seed=31)
        dec = init_decoder(arch, seed=31)
        ckpt = Checkpoint(
            model="gae",
            arch=arch,
            seed=31,
            schema_digest=schema_hash(schema),
            stats=self._stats(),
            encoder=enc,
            decoder=dec,
            fanout=5,
        )
        payload = ckpt.to_json()
        assert payload["decoder"]["non_inferential"] is True
        loaded = Checkpoint.from_json(payload, schema=schema)
        for pa, pb in zip(enc.parameters(), loaded.encoder.parameters()):
            assert np.array_equal(pa.value, pb.value)
        for pa, pb in zip(dec.parameters(), loaded.decoder.parameters()):
            assert np.array_equal(pa.value, pb.value)
        assert loaded.fanout == 5

    def test_schema_hash_verified(self):
        schema = small_schema()
        arch = tiny_arch(in_dim=schema.predictor_dim)
        ckpt = Checkpoint(
            model="sgnn",
            arch=arch,
            seed=1,
            schema_digest="deadbeef",
            stats=self._stats(),
            encoder=init_encoder(arch, seed=1),
        )
        with pytest.raises(ValueError, match="schema hash"):
            Checkpoint.from_json(ckpt.to_json(), schema=schema)

    @pytest.mark.parametrize("data", ["abc", [[0.5]], "short"])
    def test_unconvertible_tensor_named(self, data):
        schema = small_schema()
        arch = tiny_arch(in_dim=schema.predictor_dim)
        payload = Checkpoint(
            model="sgnn",
            arch=arch,
            seed=3,
            schema_digest=schema_hash(schema),
            stats=self._stats(),
            encoder=init_encoder(arch, seed=3),
        ).to_json()
        tensor = payload["params"][1]
        tensor["data"] = tensor["data"][:-1] if data == "short" else data
        with pytest.raises(ValueError, match=f"checkpoint tensor '{tensor['name']}'"):
            Checkpoint.from_json(payload, schema=schema)

    @pytest.mark.parametrize("value", [True, "0.5"])
    @pytest.mark.parametrize("part", ["encoder", "decoder"])
    def test_non_number_parameter_rejected(self, value, part):
        schema = small_schema()
        arch = tiny_arch(in_dim=schema.predictor_dim)
        payload = Checkpoint(
            model="gae",
            arch=arch,
            seed=3,
            schema_digest=schema_hash(schema),
            stats=self._stats(),
            encoder=init_encoder(arch, seed=3),
            decoder=init_decoder(arch, seed=3),
        ).to_json()
        tensor = (payload["params"] if part == "encoder" else payload["decoder"]["params"])[1]
        tensor["data"][2] = value
        message = f"checkpoint tensor '{tensor['name']}': data[2]: expected a number, got {type(value).__name__}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Checkpoint.from_json(payload, schema=schema)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("part", ["encoder", "decoder"])
    def test_non_finite_parameter_rejected(self, value, part):
        schema = small_schema()
        arch = tiny_arch(in_dim=schema.predictor_dim)
        payload = Checkpoint(
            model="gae",
            arch=arch,
            seed=3,
            schema_digest=schema_hash(schema),
            stats=self._stats(),
            encoder=init_encoder(arch, seed=3),
            decoder=init_decoder(arch, seed=3),
        ).to_json()
        tensors = payload["params"] if part == "encoder" else payload["decoder"]["params"]
        tensors[1]["data"][0] = value
        with pytest.raises(ValueError, match=f"{tensors[1]['name']}.*non-finite"):
            Checkpoint.from_json(payload, schema=schema)
