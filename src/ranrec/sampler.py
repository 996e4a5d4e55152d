"""Per-cell subgraph extraction by uniform neighbor sampling.

Each cell yields one subgraph: the cell itself plus a uniform sample (no
replacement) of at most ``fanout`` of its direct neighbors, with all edges
induced on those vertices. Feature rows are the normalized predictor
vectors, center row first. Sampling is deterministic per (seed, cell id).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import FeatureMatrix, NormalizationStats, RanGraph, feature_map
from .rng import substream


@dataclass(frozen=True)
class SamplerConfig:
    fanout: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")


@dataclass(frozen=True)
class Subgraph:
    """A center cell, its sampled neighbors, and the induced edges.

    ``edges`` holds local vertex index pairs (i, j) with i < j, where index 0
    is the center and indices 1.. follow ``neighbors`` order. ``features``
    has one predictor-vector row per vertex, center row first.
    """

    center: str
    neighbors: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    features: np.ndarray

    @property
    def vertices(self) -> tuple[str, ...]:
        return (self.center, *self.neighbors)

    @property
    def size(self) -> int:
        return 1 + len(self.neighbors)


@dataclass(frozen=True)
class DatasetEntry:
    subgraph: Subgraph
    target: np.ndarray  # normalized config vector of the center cell


def sample_subgraph(
    graph: RanGraph,
    center: str,
    cfg: SamplerConfig,
    features: FeatureMatrix,
    rng: np.random.Generator | None = None,
) -> Subgraph:
    """Sample one subgraph around ``center``.

    ``rng`` defaults to the substream derived from (cfg.seed, center), so
    repeated calls return the identical subgraph.
    """
    row = graph._row(center)  # raises on unknown id
    indptr, indices = graph.indptr, graph.indices
    adjacency = indices[indptr[row] : indptr[row + 1]]  # neighbour rows in id order
    if rng is None:
        rng = substream(cfg.seed, "subgraph", center)
    k = min(cfg.fanout, len(adjacency))
    if k < len(adjacency):
        adjacency = adjacency[rng.choice(len(adjacency), size=k, replace=False)]
    vertices = [row, *adjacency.tolist()]
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for i, a in enumerate(vertices):
        for b in indices[indptr[a] : indptr[a + 1]].tolist():
            j = index.get(b)
            if j is not None and j > i:
                edges.append((i, j))
    rows = features.x[vertices]
    rows.flags.writeable = False
    return Subgraph(
        center=center,
        neighbors=tuple(map(graph.cell_ids.__getitem__, vertices[1:])),
        edges=tuple(sorted(edges)),
        features=rows,
    )


def build_dataset(
    graph: RanGraph,
    stats: NormalizationStats,
    cfg: SamplerConfig,
    epoch: int | None = None,
) -> list[DatasetEntry]:
    """One entry per cell, in graph row order.

    ``epoch`` perturbs the per-cell sampling substreams; it is only used when
    per-epoch resampling is enabled.
    """
    features = feature_map(graph, stats)
    entries = []
    for cid, target in zip(graph.cell_ids, features.y):
        tokens: tuple[str | int, ...] = ("subgraph", cid)
        if epoch is not None:
            tokens = ("subgraph", cid, "epoch", epoch)
        rng = substream(cfg.seed, *tokens)
        sub = sample_subgraph(graph, cid, cfg, features, rng=rng)
        entries.append(DatasetEntry(subgraph=sub, target=target))
    return entries


def split_indices(n: int, test_fraction: float, seed: int) -> tuple[list[int], list[int]]:
    """Deterministic disjoint (train, test) index partition of range(n)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if n < 2:
        raise ValueError("cannot split fewer than 2 entries")
    rng = substream(seed, "split")
    perm = rng.permutation(n)
    n_test = int(round(n * test_fraction))
    n_test = min(max(n_test, 1), n - 1)
    test = sorted(int(i) for i in perm[:n_test])
    train = sorted(int(i) for i in perm[n_test:])
    return train, test

