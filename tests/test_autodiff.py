"""Numeric primitives: forward values and tape gradients against finite
differences."""

from __future__ import annotations

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
    l2_distance,
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

    def test_block_matmul_blocks_match_their_own_product(self):
        # A matrix-vector product over many rows may round a row differently
        # than the same row's block alone; block_matmul must not.
        rng = np.random.default_rng(2)
        blocks, n = 300, 81
        a = rng.normal(size=(blocks * n, 16))
        w = rng.normal(size=(16, 1))
        tape = Tape()
        out = tape.block_matmul(tape.const(a), tape.const(w), n).value
        for b in range(blocks):
            alone = tape.matmul(tape.const(a[b * n : (b + 1) * n]), tape.const(w)).value
            assert np.array_equal(out[b * n : (b + 1) * n], alone)

    def test_block_matmul_shape_checks(self):
        tape = Tape()
        with pytest.raises(ShapeError, match="blocks"):
            tape.block_matmul(tape.const(np.ones((5, 3))), tape.const(np.ones((3, 1))), 2)
        with pytest.raises(ShapeError, match="matmul"):
            tape.block_matmul(tape.const(np.ones((4, 3))), tape.const(np.ones((2, 1))), 2)


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
    def test_distance_to_self(self):
        v = np.array([1.0, -2.0, 3.0])
        assert l2_distance(v, v) == 0.0

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
            l2_distance(np.zeros(3), np.zeros(4))


class TestGradCheck:
    def test_quadratic_is_exact(self):
        w = Parameter("w", np.array([[1.0, -2.0, 0.5]]))

        def f(tape: Tape):
            node = tape.param(w)
            sq = tape.mul(node, node)
            return tape.scale(tape.mean(sq), 3.0)  # w . w

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
    "block_matmul",
    "add",
    "add_broadcast",
    "sub",
    "mul",
    "cmul",
    "scale",
    "leaky_relu",
    "relu",
    "masked_softmax",
    "concat_rows",
    "concat_cols",
    "rows",
    "mean",
    "rownorm",
    "sqrt",
    "reshape",
    "pair_source",
    "pair_target",
    "mul_col",
    "sum_blocks",
    "take_rows",
]


@pytest.mark.parametrize("op", PRIMITIVE_CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_every_primitive_passes_grad_check(op, seed):
    rng = np.random.default_rng(seed + hash(op) % 1000)
    p = _random_param(rng, (4, 6))
    other = rng.normal(size=(4, 6))
    tall = rng.normal(size=(6, 3))
    bias = rng.normal(size=(1, 6))
    column = rng.normal(size=(4, 1))
    mask = rng.random(size=(4, 6)) < 0.5
    mask[:, 1] = True

    def f(tape: Tape):
        node = tape.param(p)
        if op == "matmul":
            out = tape.matmul(node, tape.const(tall))
        elif op == "block_matmul":
            out = tape.block_matmul(node, tape.const(tall), 2)
        elif op == "add":
            out = tape.add(node, tape.const(other))
        elif op == "add_broadcast":
            out = tape.add(node, tape.const(bias))
        elif op == "sub":
            out = tape.sub(node, tape.const(other))
        elif op == "mul":
            out = tape.mul(node, tape.const(other))
        elif op == "cmul":
            out = tape.cmul(node, other)
        elif op == "scale":
            out = tape.scale(node, -2.5)
        elif op == "leaky_relu":
            out = tape.leaky_relu(node, 0.2)
        elif op == "relu":
            out = tape.relu(node)
        elif op == "masked_softmax":
            out = tape.masked_softmax(node, mask)
        elif op == "concat_rows":
            out = tape.concat([node, tape.const(other)], axis=0)
        elif op == "concat_cols":
            out = tape.concat([node, tape.const(other)], axis=1)
        elif op == "rows":
            out = tape.rows(node, 1, 3)
        elif op == "mean":
            out = tape.mean(node)
        elif op == "rownorm":
            out = tape.rownorm(node)
        elif op == "sqrt":
            out = tape.sqrt(tape.add(tape.mul(node, node), tape.const(np.full((4, 6), 0.5))))
        elif op == "reshape":
            out = tape.reshape(node, 6, 4)
        elif op == "pair_source":
            out = tape.pair_source(node, 2)
        elif op == "pair_target":
            out = tape.pair_target(node, 2)
        elif op == "mul_col":
            out = tape.mul_col(node, tape.const(column))
        elif op == "sum_blocks":
            out = tape.sum_blocks(node, 2)
        else:
            out = tape.take_rows(node, np.array([2, 0, 3]))
        # fold to a scalar through a second differentiable stage
        return tape.mean(tape.mul(out, out))

    assert grad_check(f, [p]) < 1e-4


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_rownorm_and_softmax_chain(seed):
    rng = np.random.default_rng(seed)
    p = Parameter("p", rng.normal(size=(3, 5)))
    mask = np.ones((3, 5), dtype=bool)

    def f(tape: Tape):
        node = tape.param(p)
        soft = tape.masked_softmax(node, mask)
        return tape.mean(tape.rownorm(soft))

    assert grad_check(f, [p]) < 1e-4
