"""The dense attention head, kept as a test oracle for the edge-list head.

Every vertex of an n-vertex subgraph scores all n vertices, and a
self-inclusive adjacency mask zeroes the pairs that are not edges. This is
how the encoder computed attention before it moved to edge lists; the
edge-list path must agree with it to rounding.
"""

from __future__ import annotations

import numpy as np

from ranrec.autodiff import EdgeList, Tape, leaky_relu_values
from ranrec.gnn import GatStack, HeadParams, encode_group_on_tape
from ranrec.sampler import SubgraphSet


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Exp-normalize ``scores`` over unmasked entries; masked entries are 0."""
    scores = np.asarray(scores, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if scores.shape != mask.shape:
        raise ValueError(f"mask shape {mask.shape} != scores shape {scores.shape}")
    if not mask.any(axis=-1).all():
        raise ValueError("masked softmax requires at least one unmasked entry per row")
    shifted = np.where(mask, scores, -np.inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def attention_mask(subgraph: SubgraphSet) -> np.ndarray:
    """Self-inclusive adjacency mask: every vertex attends to itself."""
    mask = np.eye(subgraph.vptr[-1], dtype=bool)
    for i, j in subgraph.edges:
        mask[i, j] = True
        mask[j, i] = True
    return mask


def attention_scores(head: HeadParams, h_i: np.ndarray, h_j: np.ndarray, slope: float) -> float:
    """Raw attention score of vertex i attending to vertex j."""
    pre = np.asarray(h_j) @ head.W_src.value + np.asarray(h_i) @ head.W_dst.value
    return float(leaky_relu_values(pre, slope) @ head.a.value.ravel())


def dense_head(s, t, a, mask, slope):
    """Output rows and (n, n) weights of one head over one subgraph."""
    lr = leaky_relu_values(s[None, :, :] + t[:, None, :], slope)  # pair (i, j) at [i, j]
    alpha = masked_softmax(lr @ a[:, 0], mask)
    return alpha @ s, alpha


def _dense_forward(stack: GatStack, subgraph: SubgraphSet):
    mask = attention_mask(subgraph)
    h = np.asarray(subgraph.features, dtype=np.float64)
    weights = []
    for layer in stack.layers:
        outs, alphas = [], []
        for head in layer.heads:
            out, alpha = dense_head(h @ head.W_src.value, h @ head.W_dst.value, head.a.value, mask, stack.slope)
            outs.append(out)
            alphas.append(alpha)
        hidden = leaky_relu_values(np.concatenate(outs, axis=1) @ layer.W1.value + layer.b1.value, stack.slope)
        h = hidden @ layer.W2.value + layer.b2.value
        weights.append(alphas)
    return h, weights


def dense_encode(stack: GatStack, subgraph: SubgraphSet) -> np.ndarray:
    """Per-vertex embeddings through dense heads; row 0 is the centre."""
    return _dense_forward(stack, subgraph)[0]


def attention_matrices(stack: GatStack, subgraph: SubgraphSet) -> list[list[np.ndarray]]:
    """Per-layer, per-head dense attention weight matrices (rows sum to 1)."""
    return _dense_forward(stack, subgraph)[1]


def destinations(edges: EdgeList) -> np.ndarray:
    """The destination of every edge of the list, in list order."""
    return np.repeat(np.arange(edges.targets), edges.counts)


def edge_attention_matrices(stack: GatStack, subgraph: SubgraphSet) -> list[list[np.ndarray]]:
    """The same matrices from the edge-list heads, every layer over every edge."""
    recorded = []

    class Recording(Tape):
        def attention_head(self, *args):
            node, alpha = super().attention_head(*args)
            recorded.append(alpha)
            return node, alpha

    encode_group_on_tape(Recording(), stack, subgraph)
    edges = subgraph.edge_lists[0]
    n, heads = subgraph.vptr[-1], len(stack.layers[0].heads)
    matrices = []
    for alpha in recorded:
        dense = np.zeros((n, n))
        dense[destinations(edges), edges.src] = alpha
        matrices.append(dense)
    return [matrices[i : i + heads] for i in range(0, len(matrices), heads)]
