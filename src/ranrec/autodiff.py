"""Dense float64 matrix primitives with a reverse-mode gradient tape.

The op set is deliberately small and hand-verifiable: every primitive
carries its own backward rule, and ``grad_check`` validates any scalar
computation against central finite differences. Matrices are plain numpy
``float64`` arrays with two dimensions; vectors enter `cosine` as 1-D
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class UndefinedCosineError(ValueError):
    """Cosine similarity requested for a zero-norm vector."""


def _as_matrix(a: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# Shared kernels (used by both the eager API and the tape ops)


def leaky_relu_values(x: np.ndarray, slope: float) -> np.ndarray:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"slope must be in (0, 1), got {slope}")
    return np.maximum(x, slope * x)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, with a one-row ``a`` doubled first.

    numpy sends a one-row operand to BLAS gemv, which can round differently
    from the gemm that computes the same row in a larger batch.
    """
    return a @ b if a.shape[0] > 1 else (np.concatenate([a, a]) @ b)[:1]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"length mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise UndefinedCosineError("cosine is undefined for a zero vector")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


# ---------------------------------------------------------------------------
# Tape


class EdgeList:
    """Directed edges ``src[k] -> dst[k]`` for ``Tape.attention_head``, sorted by
    destination, then source; every destination ``0 .. targets-1`` has one at
    least (its self loop). ``sources`` counts the source rows, which may lack
    edges. Each destination is kept as the run of its edges (``starts``,
    ``counts``); the runs in source order are found on the first backward pass.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray, sources: int) -> None:
        if src.shape != dst.shape or src.ndim != 1 or not src.size:
            raise ShapeError(f"edge lists of shapes {src.shape} and {dst.shape}")
        steps = np.diff(dst, prepend=-1)
        if steps[0] != 1 or steps.min() < 0 or steps.max() > 1:
            raise ValueError("edge destinations must be sorted and cover 0 .. targets-1")
        if src.min() < 0 or src.max() >= sources:
            raise ValueError(f"edge sources outside 0 .. {sources - 1}")
        first = np.flatnonzero(steps)
        self.src = src.astype(np.intp, copy=False)
        self.sources = sources
        self.starts = first  # first edge of each destination
        self.counts = np.diff(first, append=src.size)  # edges into each destination

    @property
    def targets(self) -> int:
        return self.starts.shape[0]

    def _per_edge(self, values: np.ndarray) -> np.ndarray:
        """Each destination's row (or value) of ``values``, repeated for each of its edges."""
        return np.repeat(values, self.counts, axis=0)

    @cached_property
    def _source_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge indices in source order, the first position of each source
        there, and the sources that have an edge, ascending."""
        order = np.argsort(self.src, kind="stable")
        ordered = self.src[order]
        firsts = np.flatnonzero(np.diff(ordered, prepend=-1))
        return order, firsts, ordered[firsts]

    def _source_sums(self, rows: np.ndarray) -> np.ndarray:
        """Per-edge ``rows`` added up by source: (sources, cols), 0 for a source without edges."""
        order, firsts, ids = self._source_order
        sums = np.add.reduceat(np.take(rows, order, axis=0), firsts, axis=0)
        if ids.shape[0] == self.sources:
            return sums
        out = np.zeros((self.sources, rows.shape[1]))
        out[ids] = sums
        return out


@dataclass
class Parameter:
    """A trainable matrix together with its accumulated gradient."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.value = _as_matrix(self.value)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape  # type: ignore[return-value]


class Node:
    """One recorded primitive application: output value plus backward rule."""

    __slots__ = ("value", "parents", "backward_fn", "param", "index", "needs_grad")

    def __init__(
        self,
        value: np.ndarray,
        parents: tuple["Node", ...],
        backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None,
        param: Parameter | None = None,
    ) -> None:
        self.value = value
        self.parents = parents
        self.backward_fn = backward_fn
        self.param = param
        self.index = -1
        self.needs_grad = param is not None or any(p.needs_grad for p in parents)

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape  # type: ignore[return-value]


class Tape:
    """Records primitives in application order; replays them in reverse.

    One tape is confined to one thread. ``backward`` adds its chain-rule
    contributions to every bound parameter's ``grad``; the caller zeroes
    the gradients, so several tapes can add into one step.
    """

    def __init__(self) -> None:
        self.nodes: list[Node] = []

    # -- leaves -------------------------------------------------------------

    def _record(self, node: Node) -> Node:
        node.index = len(self.nodes)
        self.nodes.append(node)
        return node

    def const(self, value: np.ndarray) -> Node:
        return self._record(Node(_as_matrix(value), (), None))

    def param(self, p: Parameter) -> Node:
        return self._record(Node(p.value, (), None, param=p))

    # -- primitives ----------------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul shapes {a.shape} x {b.shape}")
        av, bv = a.value, b.value
        need_a, need_b = a.needs_grad, b.needs_grad

        def backward(g: np.ndarray):
            return (g @ bv.T if need_a else None), (av.T @ g if need_b else None)

        return self._record(Node(_product(av, bv), (a, b), backward))

    def add(self, a: Node, b: Node) -> Node:
        # Row broadcast (n,k)+(1,k) supported for bias terms.
        if a.shape != b.shape and not (b.shape == (1, a.shape[1])):
            raise ShapeError(f"add shapes {a.shape} + {b.shape}")
        broadcast = a.shape != b.shape

        def backward(g: np.ndarray):
            gb = g.sum(axis=0, keepdims=True) if broadcast else g
            return g, gb

        return self._record(Node(a.value + b.value, (a, b), backward))

    def sub(self, a: Node, b: Node) -> Node:
        if a.shape != b.shape:
            raise ShapeError(f"sub shapes {a.shape} - {b.shape}")

        def backward(g: np.ndarray):
            return g, -g

        return self._record(Node(a.value - b.value, (a, b), backward))

    def cmul(self, a: Node, c: np.ndarray) -> Node:
        """Elementwise multiply by a constant (non-differentiated) array."""
        cv = _as_matrix(c)
        if cv.shape != a.shape:
            raise ShapeError(f"cmul shapes {a.shape} * {cv.shape}")

        def backward(g: np.ndarray):
            return (g * cv,)

        return self._record(Node(a.value * cv, (a,), backward))

    def scale(self, a: Node, c: float) -> Node:
        def backward(g: np.ndarray):
            return (g * c,)

        return self._record(Node(a.value * c, (a,), backward))

    def leaky_relu(self, a: Node, slope: float) -> Node:
        out = leaky_relu_values(a.value, slope)
        factor = (a.value > 0.0) * (1.0 - slope) + slope  # subgradient at 0 is slope

        def backward(g: np.ndarray):
            return (g * factor,)

        return self._record(Node(out, (a,), backward))

    def relu(self, a: Node) -> Node:
        factor = (a.value > 0.0).astype(np.float64)  # subgradient at 0 is 0

        def backward(g: np.ndarray):
            return (g * factor,)

        return self._record(Node(np.maximum(a.value, 0.0), (a,), backward))

    def concat(self, parts: Sequence[Node], axis: int = 0) -> Node:
        if not parts:
            raise ValueError("concat of zero parts")
        sizes = [p.shape[axis] for p in parts]
        offsets = np.cumsum([0] + sizes)

        def backward(g: np.ndarray):
            if axis == 0:
                return [g[offsets[i] : offsets[i + 1], :] for i in range(len(parts))]
            return [g[:, offsets[i] : offsets[i + 1]] for i in range(len(parts))]

        value = np.concatenate([p.value for p in parts], axis=axis)
        return self._record(Node(value, tuple(parts), backward))

    def gather(self, a: Node, indices: np.ndarray) -> Node:
        """Rows ``a[indices]``; an index may repeat, and its adjoints add up."""
        idx = np.asarray(indices, dtype=np.intp)
        shape = a.shape

        def backward(g: np.ndarray):
            out = np.zeros(shape, dtype=g.dtype)
            np.add.at(out, idx, g)
            return (out,)

        return self._record(Node(a.value[idx], (a,), backward))

    def mean(self, a: Node) -> Node:
        size = a.value.size

        def backward(g: np.ndarray):
            return (np.full(a.value.shape, g[0, 0] / size),)

        value = np.array([[a.value.mean()]])
        return self._record(Node(value, (a,), backward))

    def rownorm(self, a: Node) -> Node:
        """Per-row Euclidean norm, shape (n, 1). Zero rows get subgradient 0."""
        norms = np.sqrt((a.value**2).sum(axis=1, keepdims=True))
        av = a.value

        def backward(g: np.ndarray):
            safe = np.where(norms > 0.0, norms, 1.0)
            return (g * av / safe * (norms > 0.0),)

        return self._record(Node(norms, (a,), backward))

    # -- graph primitives ------------------------------------------------------

    def attention_head(
        self, s: Node, t: Node, a: Node, edges: EdgeList, slope: float
    ) -> tuple[Node, np.ndarray]:
        """One GATv2 attention head over an edge list.

        ``s`` holds the (sources, c) source projections, ``t`` the
        (targets, c) target projections and ``a`` the (c, 1) score vector.
        Edge ``j -> i`` scores ``a . leaky_relu(s_j + t_i, slope)``; target
        ``i`` normalizes its edges' scores and gets ``sum_j alpha_ij s_j``.
        Returns that (targets, c) output node and the per-edge weights
        ``alpha``.

        The (edges, c) pair rows are not kept: the node holds only its
        operands and ``alpha``, and the backward pass recomputes the rows.
        Each edge's score is its own dot product and each target's sums run
        over its own edges in order, so a target's values do not depend on
        the other edges in the list.
        """
        c = s.shape[1]
        if s.shape[0] != edges.sources or t.shape != (edges.targets, c) or a.shape != (c, 1):
            raise ShapeError(
                f"attention_head shapes {s.shape}, {t.shape}, {a.shape} for "
                f"{edges.sources} sources and {edges.targets} targets"
            )
        sv, tv, av = s.value, t.value, a.value
        src, starts, per_edge = edges.src, edges.starts, edges._per_edge
        rows = np.take(sv, src, axis=0)
        scores = np.einsum("kc,c->k", leaky_relu_values(rows + per_edge(tv), slope), av[:, 0])
        e = np.exp(scores - per_edge(np.maximum.reduceat(scores, starts)))
        alpha = e / per_edge(np.add.reduceat(e, starts))
        out = np.add.reduceat(rows * alpha[:, None], starts, axis=0)

        def backward(g: np.ndarray):
            rows = np.take(sv, src, axis=0)
            g_rows = per_edge(g)
            g_alpha = np.einsum("kc,kc->k", g_rows, rows)
            g_scores = alpha * (g_alpha - per_edge(np.add.reduceat(g_alpha * alpha, starts)))
            pairs = rows + per_edge(tv)
            g_a = leaky_relu_values(pairs, slope).T @ g_scores[:, None]
            factor = (pairs > 0.0) * (1.0 - slope)
            factor += slope  # subgradient at 0 is slope
            g_pairs = np.outer(g_scores, av[:, 0]) * factor
            g_t = np.add.reduceat(g_pairs, starts, axis=0)
            g_pairs += g_rows * alpha[:, None]
            return edges._source_sums(g_pairs), g_t, g_a

        return self._record(Node(out, (s, t, a), backward)), alpha

    def sum_blocks(self, a: Node, sizes: np.ndarray) -> Node:
        """Sum runs of consecutive rows, ``sizes[i]`` rows for block ``i``."""
        sizes = np.asarray(sizes, dtype=np.intp)
        if (sizes < 1).any() or sizes.sum() != a.shape[0]:
            raise ShapeError(f"{a.shape[0]} rows do not split into blocks of {sizes.tolist()}")
        starts = np.cumsum(sizes) - sizes

        def backward(g: np.ndarray):
            return (np.repeat(g, sizes, axis=0),)

        return self._record(Node(np.add.reduceat(a.value, starts, axis=0), (a,), backward))

    # -- reverse pass ----------------------------------------------------------

    def backward(self, output: Node, seed: np.ndarray | None = None) -> None:
        """Add ``seed``-weighted d(output)/d(param) into every bound Parameter's grad.

        ``seed`` is the adjoint of ``output`` (same shape); without one,
        ``output`` must be a scalar and its adjoint is 1.
        """
        if seed is None:
            if output.shape != (1, 1):
                raise ShapeError(f"backward needs a scalar output or a seed, got {output.shape}")
            seed = np.ones((1, 1))
        elif seed.shape != output.shape:
            raise ShapeError(f"seed shape {seed.shape} != output shape {output.shape}")
        adjoint: list[np.ndarray | None] = [None] * len(self.nodes)
        # Adjoints start as possibly-aliased views and are copied only when a
        # second contribution arrives (copy-on-write).
        owned = [False] * len(self.nodes)
        adjoint[output.index] = seed
        for node in reversed(self.nodes[: output.index + 1]):
            g = adjoint[node.index]
            if g is None:
                continue
            adjoint[node.index] = None  # only adjoints still to propagate stay alive
            if node.param is not None:
                node.param.grad = node.param.grad + g
            if node.backward_fn is None:
                continue
            for parent, pg in zip(node.parents, node.backward_fn(g)):
                if pg is None or not parent.needs_grad:
                    continue
                idx = parent.index
                if adjoint[idx] is None:
                    adjoint[idx] = pg
                elif owned[idx]:
                    adjoint[idx] += pg
                else:
                    adjoint[idx] = adjoint[idx] + pg
                    owned[idx] = True


# ---------------------------------------------------------------------------
# Finite-difference checking


def grad_check(
    fn: Callable[[Tape], Node],
    params: Sequence[Parameter],
    h: float = 1e-6,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``fn`` must build a deterministic scalar computation on the supplied tape
    from the current parameter values. The reported error per coordinate is
    ``|g_ad - g_fd| / max(1e-8, |g_ad| + |g_fd|)``.

    The check runs in extended precision where the platform provides it:
    with 64-bit arithmetic the difference quotient carries ~1e-10 of
    cancellation noise, which would swamp legitimately tiny gradients.
    """
    originals = [p.value for p in params]
    try:
        for p in params:
            p.value = p.value.astype(np.longdouble)
            p.grad = np.zeros_like(p.value)
        tape = Tape()
        out = fn(tape)
        if not np.isfinite(out.value).all():
            raise FloatingPointError("non-finite output in grad_check")
        tape.backward(out)
        analytic = [p.grad.copy() for p in params]

        def evaluate() -> np.longdouble:
            val = fn(Tape()).value
            if not np.isfinite(val).all():
                raise FloatingPointError("non-finite intermediate in grad_check")
            return val[0, 0]

        step = np.longdouble(h)
        worst = 0.0
        for p, g_ad in zip(params, analytic):
            flat = p.value.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                f_plus = evaluate()
                flat[i] = orig - step
                f_minus = evaluate()
                flat[i] = orig
                g_fd = float((f_plus - f_minus) / (2.0 * step))
                g = float(g_ad.ravel()[i])
                err = abs(g - g_fd) / max(1e-8, abs(g) + abs(g_fd))
                worst = max(worst, err)
        return worst
    finally:
        for p, value in zip(params, originals):
            p.value = value
            p.grad = np.zeros_like(value)
