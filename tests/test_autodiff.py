"""Numeric primitives: forward values and tape gradients against finite
differences."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranrec.autodiff import (
    Parameter,
    ShapeError,
    Tape,
    UndefinedCosineError,
    cosine,
    grad_check,
    leaky_relu_values,
    masked_softmax,
)


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


def _reference_head(s, t, a, masks, slope, n, g):
    """The elementary-op chain that ``attention_head`` replaced, forward and
    backward for the output adjoint ``g``, in plain numpy: pair rows of
    sources and targets, their sum, leaky ReLU, one score product per block,
    masked softmax, weighting by a column of weights, and block sums."""
    rows, c = s.shape
    b = rows // n
    src = np.ascontiguousarray(np.broadcast_to(s.reshape(b, 1, n, c), (b, n, n, c)).reshape(-1, c))
    tgt = np.ascontiguousarray(np.broadcast_to(t.reshape(b, n, 1, c), (b, n, n, c)).reshape(-1, c))
    pairs = src + tgt
    lr = leaky_relu_values(pairs, slope)
    scores = (lr.reshape(b, n * n, c) @ a).reshape(rows * n, 1)
    alpha = masked_softmax(scores.reshape(rows, n), masks)
    col = alpha.reshape(rows * n, 1)
    out = (src * col).reshape(-1, n, c).sum(axis=1)
    g_rows = np.repeat(g, n, axis=0)
    g_src = g_rows * col
    g_alpha = (g_rows * src).sum(axis=1, keepdims=True).reshape(rows, n)
    dot = (g_alpha * alpha).sum(axis=-1, keepdims=True)
    g_scores = (alpha * (g_alpha - dot)).reshape(rows * n, 1)
    g_a = lr.T @ g_scores
    g_pairs = (g_scores @ a.T) * ((pairs > 0.0) * (1.0 - slope) + slope)
    g_t = g_pairs.reshape(b, n, n, c).sum(axis=2).reshape(rows, c)
    g_s = (g_src + g_pairs).reshape(b, n, n, c).sum(axis=1).reshape(rows, c)
    return out, alpha, g_s, g_t, g_a


class TestAttentionHead:
    @pytest.mark.parametrize("blocks, n, c", [(1, 1, 3), (3, 5, 4), (7, 9, 16)])
    def test_matches_the_elementary_chain_bit_for_bit(self, blocks, n, c):
        rng = np.random.default_rng(blocks * 100 + n)
        s, t = rng.normal(size=(2, blocks * n, c))
        a = rng.normal(size=(c, 1))
        g = rng.normal(size=(blocks * n, c))
        masks = _block_masks(rng, blocks, n)
        tape = Tape()
        out, alpha = tape.attention_head(
            tape.const(s), tape.const(t), tape.const(a), masks, 0.2, n
        )
        expected = _reference_head(s, t, a, masks, 0.2, n, g)
        assert np.array_equal(out.value, expected[0])
        assert np.array_equal(alpha, expected[1])
        for got, want in zip(out.backward_fn(g), expected[2:]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("blocks", [1, 7, 32])
    def test_blocks_match_their_own_run(self, blocks):
        # A product over many rows may round a row differently than the same
        # row's block alone; the head must not.
        rng = np.random.default_rng(blocks)
        n, c = 9, 16
        s, t = rng.normal(size=(2, blocks * n, c))
        a = rng.normal(size=(c, 1))
        masks = _block_masks(rng, blocks, n)
        tape = Tape()
        out, alpha = tape.attention_head(
            tape.const(s), tape.const(t), tape.const(a), masks, 0.2, n
        )
        for b in range(blocks):
            part = slice(b * n, (b + 1) * n)
            out_b, alpha_b = tape.attention_head(
                tape.const(s[part]), tape.const(t[part]), tape.const(a), masks[part], 0.2, n
            )
            assert np.array_equal(out.value[part], out_b.value)
            assert np.array_equal(alpha[part], alpha_b)

    def test_shape_checks(self):
        tape = Tape()
        six = tape.const(np.ones((6, 3)))
        a = tape.const(np.ones((3, 1)))
        masks = np.ones((6, 4), dtype=bool)
        with pytest.raises(ShapeError, match="blocks"):
            tape.attention_head(six, six, a, masks, 0.2, 4)
        with pytest.raises(ShapeError, match="attention_head"):
            tape.attention_head(six, tape.const(np.ones((6, 2))), a, masks, 0.2, 3)
        with pytest.raises(ShapeError, match="attention_head"):
            tape.attention_head(six, six, tape.const(np.ones((2, 1))), masks, 0.2, 3)



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
            masks = np.array([[True, False], [True, True], [True, True], [True, True]])
            out = tape.attention_head(node, targets, a, masks, 0.2, 2)[0]
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
            out = tape.sum_blocks(node, 2)
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
    mask = np.ones((3, 3), dtype=bool)

    def f(tape: Tape):
        node = tape.param(p)
        # One block of three vertices: each row's softmax spans all three.
        soft, _ = tape.attention_head(node, node, tape.const(a), mask, 0.2, 3)
        return tape.mean(tape.rownorm(soft))

    assert grad_check(f, [p]) < 1e-4
