"""Numeric primitives: forward values and tape gradients against finite
differences."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranrec.autodiff import (
    EdgeList,
    Parameter,
    ShapeError,
    Tape,
    UndefinedCosineError,
    cosine,
    grad_check,
    leaky_relu_values,
)

from dense_gat import dense_head, destinations, masked_softmax


class TestMatmul:
    def test_identity(self):
        tape = Tape()
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = tape.matmul(tape.const(np.eye(2)), tape.const(a))
        assert np.array_equal(out.value, a)

    def test_hand_product(self):
        tape = Tape()
        out = tape.matmul(
            tape.const(np.array([[1.0, 2.0], [3.0, 4.0]])),
            tape.const(np.array([[1.0], [1.0]])),
        )
        assert np.array_equal(out.value, np.array([[3.0], [7.0]]))

    def test_shape_mismatch(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            tape.matmul(tape.const(np.ones((2, 3))), tape.const(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Parameter("a", rng.normal(size=(3, 4)))
        b = rng.normal(size=(4, 2))

        def f(tape: Tape):
            prod = tape.matmul(tape.param(a), tape.const(b))
            return tape.scale(tape.mean(prod), float(prod.value.size))  # sum

        assert grad_check(f, [a]) < 1e-6

    @pytest.mark.parametrize("k, m", [(6, 16), (16, 64), (64, 64), (64, 14)])
    def test_rows_do_not_depend_on_the_batch(self, k, m):
        # The encoder's product shapes at the default dimensions. A lone row
        # would go to BLAS gemv and could round differently from the same
        # row of a larger product.
        rng = np.random.default_rng(k)
        a, b = rng.normal(size=(37, k)), rng.normal(size=(k, m))
        tape = Tape()
        full = tape.matmul(tape.const(a), tape.const(b)).value
        for i in range(a.shape[0]):
            assert np.array_equal(tape.matmul(tape.const(a[i : i + 1]), tape.const(b)).value, full[i : i + 1])
        for rows in (2, 3, 8):
            assert np.array_equal(tape.matmul(tape.const(a[:rows]), tape.const(b)).value, full[:rows])

    def test_associativity(self):
        rng = np.random.default_rng(1)
        a, b, c = (rng.normal(size=(4, 4)) for _ in range(3))
        assert np.abs((a @ b) @ c - a @ (b @ c)).max() < 1e-10


def _block_masks(rng, blocks: int, n: int) -> np.ndarray:
    """Random symmetric self-inclusive masks; vertex 0 of the first block
    attends only to itself, as in a subgraph smaller than the fanout."""
    masks = rng.random(size=(blocks, n, n)) < 0.4
    masks = masks | masks.transpose(0, 2, 1) | np.eye(n, dtype=bool)
    masks[0, 0, :] = False
    masks[0, :, 0] = False
    masks[0, 0, 0] = True
    return masks.reshape(blocks * n, n)


def _mask_edges(masks: np.ndarray, n: int) -> EdgeList:
    """The edge list of stacked (n, n) masks: ``j -> i`` for every set ``[i, j]``."""
    rows, cols = np.nonzero(masks)  # row-major: by destination, then source
    return EdgeList(cols + rows // n * n, rows, masks.shape[0])


def _reference_head(s, t, a, edges, slope, g):
    """The elementary-op chain of an edge-list head, forward and backward for
    the output adjoint ``g``, in plain numpy: gathered source and target rows,
    their sum, leaky ReLU, one dot product per edge, a softmax per destination
    segment, weighting by a column of weights, and segment sums."""
    src, dst, starts = edges.src, destinations(edges), edges.starts
    src_rows, tgt_rows = s[src], t[dst]
    pairs = src_rows + tgt_rows
    lr = leaky_relu_values(pairs, slope)
    scores = np.einsum("kc,c->k", lr, a[:, 0])
    peak = np.maximum.reduceat(scores, starts)
    e = np.exp(scores - peak[dst])
    alpha = e / np.add.reduceat(e, starts)[dst]
    col = alpha[:, None]
    out = np.add.reduceat(src_rows * col, starts, axis=0)
    g_rows = g[dst]
    g_alpha = np.einsum("kc,kc->k", g_rows, src_rows)
    dot = np.add.reduceat(g_alpha * alpha, starts)
    g_scores = alpha * (g_alpha - dot[dst])
    g_a = lr.T @ g_scores[:, None]
    g_pairs = g_scores[:, None] * a[:, 0] * ((pairs > 0.0) * (1.0 - slope) + slope)
    g_t = np.add.reduceat(g_pairs, starts, axis=0)
    g_src = g_pairs + g_rows * col
    g_s = np.zeros_like(s)
    order = np.argsort(src, kind="stable")
    firsts = np.flatnonzero(np.diff(src[order], prepend=-1))
    g_s[src[order][firsts]] = np.add.reduceat(g_src[order], firsts, axis=0)
    return out, alpha, g_s, g_t, g_a


class TestAttentionHead:
    @pytest.mark.parametrize("blocks, n, c", [(1, 1, 3), (3, 5, 4), (7, 9, 16)])
    def test_matches_the_elementary_chain_bit_for_bit(self, blocks, n, c):
        rng = np.random.default_rng(blocks * 100 + n)
        s, t = rng.normal(size=(2, blocks * n, c))
        a = rng.normal(size=(c, 1))
        g = rng.normal(size=(blocks * n, c))
        edges = _mask_edges(_block_masks(rng, blocks, n), n)
        tape = Tape()
        out, alpha = tape.attention_head(tape.const(s), tape.const(t), tape.const(a), edges, 0.2)
        expected = _reference_head(s, t, a, edges, 0.2, g)
        assert np.array_equal(out.value, expected[0])
        assert np.array_equal(alpha, expected[1])
        for got, want in zip(out.backward_fn(g), expected[2:]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("blocks, n, c", [(1, 1, 3), (3, 5, 4), (7, 9, 16)])
    def test_matches_the_dense_head(self, blocks, n, c):
        rng = np.random.default_rng(blocks * 100 + n)
        s, t = rng.normal(size=(2, blocks * n, c))
        a = rng.normal(size=(c, 1))
        masks = _block_masks(rng, blocks, n)
        tape = Tape()
        out, alpha = tape.attention_head(
            tape.const(s), tape.const(t), tape.const(a), _mask_edges(masks, n), 0.2
        )
        dense_alpha = np.zeros((blocks * n, n))
        dense_alpha[masks] = alpha
        for b in range(blocks):
            part = slice(b * n, (b + 1) * n)
            want_out, want_alpha = dense_head(s[part], t[part], a, masks[part], 0.2)
            np.testing.assert_allclose(out.value[part], want_out, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(dense_alpha[part], want_alpha, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("blocks", [1, 7, 32])
    def test_blocks_match_their_own_run(self, blocks):
        # A target's values must not depend on how many other subgraphs'
        # edges share its list, in the full and in the centre-only form.
        rng = np.random.default_rng(blocks)
        n, c = 9, 16
        s, t = rng.normal(size=(2, blocks * n, c))
        a = rng.normal(size=(c, 1))
        masks = _block_masks(rng, blocks, n)
        tape = Tape()
        edges = _mask_edges(masks, n)
        dst = destinations(edges)
        center = np.isin(dst, np.arange(0, blocks * n, n))
        centers = EdgeList(edges.src[center], dst[center] // n, blocks * n)
        out, alpha = tape.attention_head(tape.const(s), tape.const(t), tape.const(a), edges, 0.2)
        out_c, _ = tape.attention_head(tape.const(s), tape.const(t[::n]), tape.const(a), centers, 0.2)
        assert np.array_equal(out_c.value, out.value[::n])
        for b in range(blocks):
            part = slice(b * n, (b + 1) * n)
            edges_b = _mask_edges(masks[part], n)
            out_b, alpha_b = tape.attention_head(
                tape.const(s[part]), tape.const(t[part]), tape.const(a), edges_b, 0.2
            )
            assert np.array_equal(out.value[part], out_b.value)
            assert np.array_equal(alpha[np.isin(dst, np.arange(part.start, part.stop))], alpha_b)

    def test_shape_checks(self):
        tape = Tape()
        six = tape.const(np.ones((6, 3)))
        a = tape.const(np.ones((3, 1)))
        edges = EdgeList(np.arange(6), np.arange(6), 6)
        with pytest.raises(ShapeError, match="6 sources and 6 targets"):
            tape.attention_head(tape.const(np.ones((5, 3))), six, a, edges, 0.2)
        with pytest.raises(ShapeError, match="attention_head"):
            tape.attention_head(six, tape.const(np.ones((6, 2))), a, edges, 0.2)
        with pytest.raises(ShapeError, match="attention_head"):
            tape.attention_head(six, six, tape.const(np.ones((2, 1))), edges, 0.2)
        with pytest.raises(ValueError, match="sorted and cover"):
            EdgeList(np.array([0, 1]), np.array([1, 0]), 2)
        with pytest.raises(ValueError, match="sorted and cover"):
            EdgeList(np.array([0, 1]), np.array([0, 2]), 3)
        with pytest.raises(ValueError, match="sources outside"):
            EdgeList(np.array([0, 3]), np.array([0, 1]), 3)

    def test_source_without_edges_gets_zero_adjoint(self):
        # Vertex 2 is no edge's source: its rows of ``s`` get an adjoint of 0.
        rng = np.random.default_rng(3)
        s, t = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        edges = EdgeList(np.array([0, 1, 1]), np.array([0, 0, 1]), 3)
        tape = Tape()
        out, _ = tape.attention_head(tape.const(s), tape.const(t), tape.const(rng.normal(size=(4, 1))), edges, 0.2)
        g_s = out.backward_fn(rng.normal(size=(2, 4)))[0]
        assert g_s.shape == (3, 4) and not g_s[2].any() and g_s[:2].all()


class TestBackward:
    def test_seed_weights_a_matrix_output(self):
        rng = np.random.default_rng(5)
        x, w_value, seed = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
        w = Parameter("w", w_value)
        tape = Tape()
        out = tape.matmul(tape.const(x), tape.param(w))
        tape.backward(out, seed)
        assert np.array_equal(w.grad, x.T @ seed)  # d sum(seed * (x w)) / dw

    def test_gradients_add_across_tapes(self):
        w = Parameter("w", np.array([[2.0, -1.0]]))
        for _ in range(3):
            tape = Tape()
            tape.backward(tape.mean(tape.param(w)))
        assert np.array_equal(w.grad, np.full((1, 2), 1.5))

    def test_seed_shape_is_checked(self):
        tape = Tape()
        out = tape.param(Parameter("w", np.ones((2, 3))))
        with pytest.raises(ShapeError, match="scalar output or a seed"):
            tape.backward(out)
        with pytest.raises(ShapeError, match="seed shape"):
            tape.backward(out, np.ones((3, 2)))

class TestLeakyRelu:
    def test_negative_scaled(self):
        assert leaky_relu_values(np.array(-1.0), 0.2) == pytest.approx(-0.2)

    def test_positive_identity(self):
        assert leaky_relu_values(np.array(3.0), 0.2) == pytest.approx(3.0)

    def test_subgradient_at_zero_is_slope(self):
        x = Parameter("x", np.array([[0.0]]))
        tape = Tape()
        out = tape.leaky_relu(tape.param(x), 0.2)
        tape.backward(out)
        assert x.grad[0, 0] == pytest.approx(0.2)

    def test_slope_domain(self):
        with pytest.raises(ValueError):
            leaky_relu_values(np.array(1.0), 1.5)


class TestMaskedSoftmax:
    def test_symmetric_pair(self):
        out = masked_softmax(np.array([0.0, 0.0]), np.array([True, True]))
        assert np.allclose(out, [0.5, 0.5])

    def test_single_unmasked(self):
        out = masked_softmax(np.array([3.0, -1.0, 2.0]), np.array([False, True, False]))
        assert np.array_equal(out, [0.0, 1.0, 0.0])

    def test_large_scores_stable(self):
        out = masked_softmax(np.array([1000.0, 999.0]), np.array([True, True]))
        expected = 1.0 / (1.0 + np.exp(-1.0))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(expected, abs=1e-4)
        assert out[1] == pytest.approx(1.0 - expected, abs=1e-4)

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError, match="unmasked"):
            masked_softmax(np.array([1.0, 2.0]), np.array([False, False]))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(5, 6))
        mask = rng.random(size=(5, 6)) < 0.6
        mask[:, 0] = True
        out = masked_softmax(scores, mask)
        assert np.all(out >= 0.0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out[~mask] == 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(4, 5))
        mask = rng.random(size=(4, 5)) < 0.7
        mask[:, 2] = True
        shifted = masked_softmax(scores + 13.7, mask)
        assert np.allclose(shifted, masked_softmax(scores, mask), atol=1e-12)


class TestVectorOps:
    def test_cosine_with_self(self):
        v = np.array([1.0, 2.0, 2.0])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_cosine_hand_value(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
            0.70710678, abs=1e-8
        )

    def test_cosine_zero_vector(self):
        with pytest.raises(UndefinedCosineError):
            cosine(np.zeros(3), np.array([1.0, 0.0, 0.0]))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            cosine(np.ones(3), np.ones(4))


class TestGradCheck:
    def test_quadratic_is_exact(self):
        w = Parameter("w", np.array([[1.0, -2.0, 0.5]]))

        def f(tape: Tape):
            norm = tape.rownorm(tape.param(w))
            return tape.mean(tape.matmul(norm, norm))  # w . w

        assert grad_check(f, [w]) < 1e-8

    def test_constant_function(self):
        w = Parameter("w", np.array([[2.0]]))

        def f(tape: Tape):
            tape.param(w)  # recorded but unused by the output
            return tape.const(np.array([[5.0]]))

        assert grad_check(f, [w]) == 0.0

    def test_nonfinite_rejected(self):
        w = Parameter("w", np.array([[np.inf]]))

        def f(tape: Tape):
            return tape.mean(tape.param(w))

        with pytest.raises(FloatingPointError):
            grad_check(f, [w])


def _random_param(rng, shape):
    return Parameter("p", rng.normal(size=shape))


PRIMITIVE_CASES = [
    "matmul",
    "attention_head",
    "attention_head_centers",
    "add",
    "add_broadcast",
    "sub",
    "cmul",
    "scale",
    "leaky_relu",
    "relu",
    "concat_rows",
    "concat_cols",
    "mean",
    "rownorm",
    "sum_blocks",
    "gather",
]


@pytest.mark.parametrize("op", PRIMITIVE_CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_every_primitive_passes_grad_check(op, seed):
    # crc32, unlike str hash, is not salted per process: every run checks the same inputs.
    rng = np.random.default_rng(seed + zlib.crc32(op.encode()) % 1000)
    p = _random_param(rng, (4, 6))
    other = rng.normal(size=(4, 6))
    tall = rng.normal(size=(6, 3))
    bias = rng.normal(size=(1, 6))

    def f(tape: Tape):
        node = tape.param(p)
        if op == "matmul":
            out = tape.matmul(node, tape.const(tall))
        elif op == "attention_head":
            # Two blocks of two vertices; vertex 0 attends only to itself.
            # Sources, targets and scores all depend on the parameter.
            targets = tape.cmul(node, other)
            a = tape.matmul(tape.const(other.T), tape.matmul(node, tape.const(tall[:, :1])))
            edges = EdgeList(np.array([0, 0, 1, 2, 3, 2, 3]), np.array([0, 1, 1, 2, 2, 3, 3]), 4)
            out = tape.attention_head(node, targets, a, edges, 0.2)[0]
        elif op == "attention_head_centers":
            # The centre-only form: targets are the centres 0 and 2 only, and
            # vertex 1 is no edge's source.
            targets = tape.gather(tape.cmul(node, other), np.array([0, 2]))
            a = tape.matmul(tape.const(other.T), tape.matmul(node, tape.const(tall[:, :1])))
            edges = EdgeList(np.array([0, 2, 3]), np.array([0, 1, 1]), 4)
            out = tape.attention_head(node, targets, a, edges, 0.2)[0]
        elif op == "add":
            out = tape.add(node, tape.const(other))
        elif op == "add_broadcast":
            out = tape.add(node, tape.const(bias))
        elif op == "sub":
            out = tape.sub(node, tape.const(other))
        elif op == "cmul":
            out = tape.cmul(node, other)
        elif op == "scale":
            out = tape.scale(node, -2.5)
        elif op == "leaky_relu":
            out = tape.leaky_relu(node, 0.2)
        elif op == "relu":
            out = tape.relu(node)
        elif op == "concat_rows":
            out = tape.concat([node, tape.const(other)], axis=0)
        elif op == "concat_cols":
            out = tape.concat([node, tape.const(other)], axis=1)
        elif op == "mean":
            out = tape.mean(node)
        elif op == "rownorm":
            out = tape.rownorm(node)
        elif op == "sum_blocks":
            out = tape.sum_blocks(node, np.array([1, 3]))
        else:
            out = tape.gather(node, np.array([2, 0, 2, 3]))
        # fold to a scalar through a second differentiable stage
        return tape.mean(tape.rownorm(out))

    assert grad_check(f, [p]) < 1e-4


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_rownorm_and_softmax_chain(seed):
    rng = np.random.default_rng(seed)
    p = Parameter("p", rng.normal(size=(3, 5)))
    a = rng.normal(size=(5, 1))
    edges = EdgeList(np.tile(np.arange(3), 3), np.repeat(np.arange(3), 3), 3)

    def f(tape: Tape):
        node = tape.param(p)
        # One block of three vertices: each row's softmax spans all three.
        soft, _ = tape.attention_head(node, node, tape.const(a), edges, 0.2)
        return tape.mean(tape.rownorm(soft))

    assert grad_check(f, [p]) < 1e-4
