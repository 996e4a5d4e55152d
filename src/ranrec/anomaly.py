"""Isolation forest over stored embeddings.

Each tree partitions a uniform subsample with random axis-aligned splits;
points that isolate in few splits are anomalous. The score is
``2 ** (-E(h) / c(psi))`` where ``E(h)`` is the expected path length over
trees (with the standard truncated-leaf adjustment ``c``), so it always
falls in (0, 1) and grows as paths shorten.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .rng import substream

if TYPE_CHECKING:
    from .inference import EmbeddingStore

EULER_GAMMA = 0.5772156649


class DegenerateEmbeddingsError(ValueError):
    """All points identical: no split exists, scores cannot discriminate."""


@dataclass(frozen=True, eq=False)
class IsolationForest:
    """All ``t`` trees as one flat node table.

    Node ``i`` sends a point ``x`` to ``children[i, 0]`` when
    ``x[feature[i]] < threshold[i]`` and to ``children[i, 1]`` otherwise.
    A leaf is its own child in both slots, so a walk may take more steps
    than the leaf's depth and stay put. ``path[i]`` is the path length a
    point landing in leaf ``i`` gets: the leaf's depth plus ``c(size)`` for
    the points that reached it. Nodes of a tree are stored in pre-order,
    starting at ``roots[k]`` for tree ``k``.

    A table that a walk of ``depth_limit`` steps could not follow to a leaf
    is rejected on construction, naming the array and the first bad node,
    so a hand-edited stored forest fails on read rather than mid-score.
    """

    feature: np.ndarray  # (nodes,) split dimension; 0 at leaves
    threshold: np.ndarray  # (nodes,) split value; NaN at leaves
    children: np.ndarray  # (nodes, 2) left and right node index
    path: np.ndarray  # (nodes,) depth + c(size) at leaves; 0 at splits
    roots: np.ndarray  # (t,) root node of each tree
    psi: int
    n: int
    seed: int
    dim: int

    def __post_init__(self) -> None:
        for name in ("psi", "n", "seed", "dim"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name}: expected an integer, got {value!r}")
        if not 2 <= self.psi <= self.n:
            raise ValueError(f"psi: {self.psi} is not in [2, n={self.n}]")
        if self.dim < 1:
            raise ValueError(f"dim: {self.dim} is not positive")
        nodes = self.feature.shape[0]
        for name, shape in (("threshold", (nodes,)), ("children", (nodes, 2)), ("path", (nodes,))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name}: shape {getattr(self, name).shape} for {nodes} nodes")
        if self.roots.shape[0] < 1:
            raise ValueError("roots: a forest needs at least one tree")

        def first(name: str, bad: np.ndarray, what: str) -> None:
            if bad.any():
                node = int(np.flatnonzero(bad)[0])
                raise ValueError(f"{name}: node {node} {what}")

        own = np.arange(nodes)
        first("feature", (self.feature < 0) | (self.feature >= self.dim), f"splits outside [0, {self.dim})")
        outside = ((self.children < 0) | (self.children >= nodes)).any(axis=1)
        first("children", outside, "has a child out of range")
        leaf, inner = (self.children == own[:, None]).any(axis=1), (self.children != own[:, None]).any(axis=1)
        first("children", leaf & inner, "is its own child in one slot only")
        first("threshold", ~leaf & ~np.isfinite(self.threshold), "splits at a non-finite value")
        first("path", ~(np.isfinite(self.path) & (self.path >= 0)), "has a non-finite or negative path")
        if ((self.roots < 0) | (self.roots >= nodes)).any():
            raise ValueError(f"roots: a root is outside [0, {nodes})")
        parents = np.bincount(np.concatenate([self.roots, self.children[~leaf].ravel()]), minlength=nodes)
        first("children", parents != 1, "is not reached exactly once from the roots")
        # With one way into every node, walking down from the roots visits each
        # node at most once; it must end on leaves within the depth limit and
        # have seen every node, or part of the table is a cycle no root reaches.
        frontier, seen = self.roots, self.roots.shape[0]
        for _ in range(self.depth_limit):
            frontier = self.children[frontier[~leaf[frontier]]].ravel()
            seen += frontier.shape[0]
        too_deep = np.isin(own, frontier[~leaf[frontier]])
        first("children", too_deep, f"splits at depth {self.depth_limit} = ceil(log2(psi))")
        if seen != nodes:
            raise ValueError(f"children: {nodes - seen} nodes are not reachable from any root")

    @property
    def depth_limit(self) -> int:
        """No tree grows deeper than ceil(log2(psi))."""
        return math.ceil(math.log2(self.psi))


def average_path_length(m: int) -> float:
    """Expected unsuccessful-search path length for ``m`` points."""
    if m <= 1:
        return 0.0
    if m == 2:
        return 1.0
    return 2.0 * (math.log(m - 1) + EULER_GAMMA) - 2.0 * (m - 1) / m


def _split_value(rng: np.random.Generator, lo: float, hi: float) -> float:
    # Strictly inside (lo, hi); redraw on the measure-zero boundary hits.
    # A span that overflows to inf would only ever draw inf or nan, so such
    # bounds are interpolated instead.
    span = hi - lo
    while True:
        u = rng.random()
        value = lo + u * span if math.isfinite(span) else lo * (1.0 - u) + hi * u
        if lo < value < hi:
            return value


def fit_forest(
    embeddings: np.ndarray,
    t: int = 100,
    psi: int | None = None,
    seed: int = 0,
) -> IsolationForest:
    """Fit ``t`` trees on the rows of an ``(n, d)`` matrix, each on an
    independent uniform subsample of size psi.

    psi defaults to min(256, n). Depth is capped at ceil(log2(psi)). Raises
    ``DegenerateEmbeddingsError`` when every point is identical; report raw
    path lengths without a threshold in that case.
    """
    matrix = np.asarray(embeddings, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"embeddings must be an (n, d) matrix, got shape {matrix.shape}")
    n = matrix.shape[0]
    if n < 2:
        raise ValueError("need at least 2 embeddings to fit a forest")
    if t < 1:
        raise ValueError("t must be >= 1")
    if psi is None:
        psi = min(256, n)
    if not 2 <= psi <= n:
        raise ValueError(f"psi={psi} must be in [2, {n}]")
    if not np.isfinite(matrix).all():
        raise ValueError("embeddings must be finite to fit a forest")
    if (matrix == matrix[0]).all():
        raise DegenerateEmbeddingsError(
            "all embeddings are identical; no split separates them, so scores "
            "carry no ranking - produce a threshold-free report instead"
        )
    limit, dim = math.ceil(math.log2(psi)), matrix.shape[1]
    leaf_c = [average_path_length(m) for m in range(psi + 1)]
    rngs = [substream(seed, "tree", index) for index in range(t)]
    # Tree k's subsample fills rows k*psi to (k+1)*psi of ``points``. A node
    # owns the points order[start:stop]; its split puts the left ones first.
    points = matrix[np.concatenate([rng.choice(n, size=psi, replace=False) for rng in rngs])]
    order = np.arange(t * psi)
    # Each tree's node rows [feature, threshold, left, right, path] in
    # pre-order, and its pending (start, stop, depth, parent, side), next last.
    trees: list[list[list]] = [[] for _ in range(t)]
    stacks = [[(k * psi, (k + 1) * psi, 0, -1, 0)] for k in range(t)]
    live = list(range(t))
    while live:
        # One pass grows the next pre-order node of every unfinished tree:
        # bounds and the left/right test for all of them at once, while each
        # tree draws from its own generator exactly as if grown alone.
        grow = []
        for k in live:
            start, stop, depth, parent, side = stacks[k].pop()
            nodes = trees[k]
            if parent >= 0:
                nodes[parent][2 + side] = len(nodes)
            nodes.append([0, math.nan, len(nodes), len(nodes), depth + leaf_c[stop - start]])
            if stop - start > 1 and depth < limit:
                grow.append((k, start, stop, depth))
        if grow:
            starts, sizes = np.array([(start, stop - start) for _, start, stop, _ in grow]).T
            offsets = np.cumsum(sizes) - sizes
            at = np.arange(sizes.sum()) + np.repeat(starts - offsets, sizes)
            rows = points[order[at]]
            lows, highs = np.minimum.reduceat(rows, offsets), np.maximum.reduceat(rows, offsets)
            # A split needs a representable value strictly between low and high.
            splittable = np.nextafter(lows, highs) < highs
            every, can = splittable.all(axis=1).tolist(), splittable.tolist()
            lows, highs = lows.tolist(), highs.tolist()
            dims, values = [0] * len(grow), [math.inf] * len(grow)  # a leaf sends every point left
            for i, (k, _, _, _) in enumerate(grow):
                options = range(dim) if every[i] else [j for j, ok in enumerate(can[i]) if ok]
                if options:
                    dims[i] = int(options[rngs[k].integers(len(options))])
                    values[i] = _split_value(rngs[k], lows[i][dims[i]], highs[i][dims[i]])
                    trees[k][-1][:2], trees[k][-1][4] = [dims[i], values[i]], 0.0
            left = rows[np.arange(rows.shape[0]), np.repeat(dims, sizes)] < np.repeat(values, sizes)
            segment = np.repeat(np.arange(len(grow)), sizes)
            order[at] = order[at][np.argsort(2 * segment + ~left, kind="stable")]
            cuts = np.add.reduceat(left, offsets, dtype=np.intp).tolist()
            for (k, start, stop, depth), value, cut in zip(grow, values, cuts):
                if value != math.inf:
                    node, cut = len(trees[k]) - 1, start + cut
                    stacks[k] += [(cut, stop, depth + 1, node, 1), (start, cut, depth + 1, node, 0)]
        live = [k for k in live if stacks[k]]
    counts = [len(nodes) for nodes in trees]
    roots = np.cumsum([0, *counts[:-1]])
    table = np.array([row for nodes in trees for row in nodes], dtype=np.float64)
    return IsolationForest(
        feature=table[:, 0].astype(np.intp),
        threshold=table[:, 1].copy(),
        children=table[:, 2:4].astype(np.intp) + np.repeat(roots, counts)[:, None],
        path=table[:, 4].copy(),
        roots=roots.astype(np.intp),
        psi=psi,
        n=n,
        seed=seed,
        dim=dim,
    )


def _mean_path_lengths(forest: IsolationForest, rows: np.ndarray) -> np.ndarray:
    """Mean path length over trees of every row of a (rows, dim) matrix."""
    if rows.shape[1] != forest.dim:
        raise ValueError(f"query of length {rows.shape[1]} vs forest dimension {forest.dim}")
    at = np.arange(rows.shape[0])[:, None]
    nodes = np.tile(forest.roots, (rows.shape[0], 1))  # (rows, trees)
    for _ in range(forest.depth_limit):
        # ``not x < threshold`` goes right, exactly as a scalar walk would.
        right = ~(rows[at, forest.feature[nodes]] < forest.threshold[nodes])
        nodes = forest.children[nodes, right.view(np.int8)]
    # A C-contiguous (rows, trees) mean sums each row as np.mean of one
    # row would, so a batch and a single row give the same bits.
    return forest.path[nodes].mean(axis=1)


def _scores(forest: IsolationForest, rows: np.ndarray) -> list[float]:
    c = average_path_length(forest.psi)
    # Python float pow per row: numpy's vectorized power can differ by an ulp.
    return [2.0 ** (-m / c) for m in _mean_path_lengths(forest, rows).tolist()]


def anomaly_score(forest: IsolationForest, z: np.ndarray) -> float:
    """``2 ** (-E(h(z)) / c(psi))``, in (0, 1), decreasing in path length."""
    return _scores(forest, np.asarray(z, dtype=np.float64).reshape(1, -1))[0]


@dataclass(frozen=True)
class AnomalyReport:
    threshold: float
    cells: tuple[tuple[str, float], ...]  # (cell_id, score), input order
    flagged: tuple[str, ...]

    def sorted_by_score(self) -> tuple[tuple[str, float], ...]:
        return tuple(sorted(self.cells, key=lambda e: (-e[1], e[0])))


def store_matrix(store: EmbeddingStore, include_configs: bool = False) -> np.ndarray:
    """Per-record feature rows: embeddings, optionally joined with configs.

    Misconfiguration detection needs config columns: embeddings are computed
    from predictors only, so a corrupted configuration is invisible in the
    embedding coordinates alone.
    """
    if not include_configs:
        return store.z
    return np.concatenate([store.z, store.y], axis=1)


def score_network(
    store: EmbeddingStore,
    forest: IsolationForest,
    threshold: float,
    include_configs: bool = False,
) -> AnomalyReport:
    """Score every stored record; flag those with score above the threshold."""
    rows = store_matrix(store, include_configs=include_configs)
    scores = _scores(forest, rows)
    cells = tuple(zip(store.ids, scores))
    flagged = tuple(cid for cid, score in cells if score > threshold)
    return AnomalyReport(threshold=threshold, cells=cells, flagged=flagged)
