"""Per-cell subgraph extraction by uniform neighbor sampling.

Each cell yields one subgraph: the cell itself plus a uniform sample (no
replacement) of at most ``fanout`` of its direct neighbors, with all edges
induced on those vertices. Feature rows are the normalized predictor
vectors, center row first. Sampling is deterministic per (seed, cell id).
All subgraphs of a call come out of one array pass over the graph's CSR rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

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


@dataclass(frozen=True, eq=False)
class Subgraph:
    """A center cell, its sampled neighbors, and the induced edges.

    ``rows`` holds the vertices' graph rows, the center first, then the
    sampled neighbors in draw order; local vertex ``k`` is ``rows[k]``.
    ``edges`` is an ``(m, 2)`` array of local index pairs ``(i, j)`` with
    ``i < j``, sorted. ``features`` has one predictor-vector row per vertex,
    center row first. ``cell_ids`` names the graph's rows. The arrays are
    read-only views into arrays shared by every subgraph of one sampling call.
    """

    rows: np.ndarray
    edges: np.ndarray
    features: np.ndarray
    cell_ids: Sequence[str]

    @property
    def center(self) -> str:
        return self.cell_ids[self.rows[0]]

    @property
    def neighbors(self) -> tuple[str, ...]:
        return tuple(map(self.cell_ids.__getitem__, self.rows[1:].tolist()))

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(map(self.cell_ids.__getitem__, self.rows.tolist()))

    @property
    def size(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class DatasetEntry:
    subgraph: Subgraph
    target: np.ndarray  # normalized config vector of the center cell


# CSR entries gathered per block of subgraphs while finding induced edges:
# a block's transient index arrays stay at a few MB.
EDGE_BLOCK_ENTRIES = 1 << 16


def _runs(cum: np.ndarray, limit: int) -> Iterator[tuple[int, int]]:
    """Consecutive runs ``[a, b)`` of one item or more whose counts, given as
    their cumulative sum ``cum`` with a leading 0, add up to at most ``limit``."""
    a, n = 0, cum.shape[0] - 1
    while a < n:
        b = max(int(np.searchsorted(cum, cum[a] + limit, side="right")) - 1, a + 1)
        yield a, b
        a = b


def _induced_edges(
    graph: RanGraph, rows: np.ndarray, local: np.ndarray, vptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked sorted local edges ``(i, j)``, ``i < j``, and each subgraph's
    offset in them: every vertex's CSR entries that are a later vertex of the
    same subgraph, found among sorted (subgraph, row) keys."""
    indptr, indices, n = graph.indptr, graph.indices, len(graph.cell_ids)
    owner = np.repeat(np.arange(vptr.shape[0] - 1), np.diff(vptr))
    degree = indptr[rows + 1] - indptr[rows]
    dptr = np.concatenate([[0], np.cumsum(degree)])
    width = int(local.max(initial=0)) + 1
    found = [np.empty(0, dtype=np.intp)]  # per block, sorted (vertex, j) keys of its edges
    for s0, s1 in _runs(dptr[vptr], EDGE_BLOCK_ENTRIES):
        v0, v1 = vptr[s0], vptr[s1]
        block, base = degree[v0:v1], owner[v0:v1] * n
        keys = base + rows[v0:v1]
        order = np.argsort(keys)
        keys, position = keys[order], local[v0:v1][order]
        at = np.repeat(indptr[rows[v0:v1]] - dptr[v0:v1], block) + np.arange(dptr[v0], dptr[v1])
        key = np.repeat(base, block) + indices[at]
        hit = np.minimum(np.searchsorted(keys, key), keys.shape[0] - 1)
        j = position[hit]
        keep = (keys[hit] == key) & (j > np.repeat(local[v0:v1], block))
        found.append(np.sort(np.repeat(np.arange(v0, v1), block)[keep] * width + j[keep]))
    vertex, j = np.divmod(np.concatenate(found), width)
    return np.stack([local[vertex], j], axis=1), np.searchsorted(owner[vertex], np.arange(vptr.shape[0]))


def _sample(
    graph: RanGraph, centers: np.ndarray, fanout: int, features: FeatureMatrix, rng_of: Callable[[int], np.random.Generator]
) -> list[Subgraph]:
    """The subgraph of each graph row of ``centers``. ``rng_of(i)`` gives the
    generator of ``centers[i]``; it is asked for only when that centre has
    more than ``fanout`` neighbours, the only case that draws."""
    indptr, indices = graph.indptr, graph.indices
    start = indptr[centers]
    degree = indptr[centers + 1] - start
    fanout = min(fanout, int(degree.max(initial=0)))  # nothing is sized by a larger fanout
    k = np.minimum(degree, fanout)
    vptr = np.concatenate([[0], np.cumsum(k + 1)])  # subgraph i's vertices are vptr[i]:vptr[i + 1]
    local = np.arange(vptr[-1]) - np.repeat(vptr[:-1], k + 1)
    # Each neighbour's position in its centre's id-ordered CSR row: the first
    # k, or the centre's draws. Centre i's k start at vptr[i] - i here.
    position = local[local > 0] - 1
    for i in np.flatnonzero(degree > fanout).tolist():
        position[vptr[i] - i : vptr[i + 1] - i - 1] = rng_of(i).choice(int(degree[i]), size=fanout, replace=False)
    rows = np.empty(vptr[-1], dtype=np.intp)
    rows[vptr[:-1]] = centers
    rows[local > 0] = indices[np.repeat(start, k) + position]
    edges, eptr = _induced_edges(graph, rows, local, vptr)
    x = features.x[rows]
    for array in (rows, edges, x):
        array.flags.writeable = False
    ids, v, e = graph.cell_ids, vptr.tolist(), eptr.tolist()
    return [Subgraph(rows[a:b], edges[c:d], x[a:b], ids) for a, b, c, d in zip(v[:-1], v[1:], e[:-1], e[1:])]


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
    rng_of = lambda _: substream(cfg.seed, "subgraph", center) if rng is None else rng  # noqa: E731
    return _sample(graph, np.array([row], dtype=np.intp), cfg.fanout, features, rng_of)[0]


def build_dataset(
    graph: RanGraph,
    stats: NormalizationStats,
    cfg: SamplerConfig,
    epoch: int | None = None,
    cells: Sequence[str] | None = None,
) -> list[DatasetEntry]:
    """One entry per cell of ``cells``, by default every cell in graph row order.

    ``epoch`` perturbs the per-cell sampling substreams; it is only used when
    per-epoch resampling is enabled. An entry equals ``sample_subgraph`` of
    its cell with that cell's substream.
    """
    features = feature_map(graph, stats)
    ids = graph.cell_ids
    centers = np.arange(len(ids)) if cells is None else np.array([graph._row(cid) for cid in cells], dtype=np.intp)
    tokens = () if epoch is None else ("epoch", epoch)
    rng_of = lambda i: substream(cfg.seed, "subgraph", ids[centers[i]], *tokens)  # noqa: E731
    subgraphs = _sample(graph, centers, cfg.fanout, features, rng_of)
    return [DatasetEntry(sub, target) for sub, target in zip(subgraphs, features.y[centers])]


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

