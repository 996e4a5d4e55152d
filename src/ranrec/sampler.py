"""Per-cell subgraph extraction by uniform neighbor sampling.

Each cell yields one subgraph: the cell itself plus a uniform sample (no
replacement) of at most ``fanout`` of its direct neighbors, with all edges
induced on those vertices. Feature rows are the normalized predictor
vectors, center row first. Sampling is deterministic per (seed, cell id).
All subgraphs of a call come out of one array pass over the graph's CSR rows,
stacked in one ``SubgraphSet``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .autodiff import EdgeList
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
class SubgraphSet:
    """Sampled subgraphs stacked in shared arrays, one per centre cell.

    Subgraph ``i`` has the vertices ``vptr[i]:vptr[i + 1]``: ``rows`` holds
    their graph rows, the centre first, then the sampled neighbors in draw
    order, and ``features`` one predictor-vector row each. Its edges are
    ``edges[eptr[i]:eptr[i + 1]]``, local vertex pairs ``(i, j)`` with
    ``i < j``, sorted. ``targets`` holds each centre's normalized config
    vector; ``cell_ids`` names the graph's rows. ``subgraphs[a:b]`` is the
    set of subgraphs ``a`` to ``b - 1``: views, with re-based pointers.
    """

    rows: np.ndarray
    vptr: np.ndarray
    edges: np.ndarray
    eptr: np.ndarray
    features: np.ndarray
    targets: np.ndarray
    cell_ids: Sequence[str]

    def __len__(self) -> int:
        return self.vptr.shape[0] - 1

    def __getitem__(self, index: slice) -> "SubgraphSet":
        a, b, _ = index.indices(len(self))
        v, e = self.vptr[a : b + 1], self.eptr[a : b + 1]
        rows, edges = slice(v[0], v[-1]), slice(e[0], e[-1])
        return SubgraphSet(
            self.rows[rows], v - v[0], self.edges[edges], e - e[0], self.features[rows], self.targets[a:b], self.cell_ids
        )

    @property
    def centers(self) -> list[str]:
        """Each subgraph's centre cell id."""
        return [self.cell_ids[row] for row in self.rows[self.vptr[:-1]].tolist()]

    @cached_property
    def edge_lists(self) -> tuple[EdgeList, EdgeList]:
        """Every vertex's in-edges, self loops included, and only those into
        centres, destination ``i`` the centre of subgraph ``i``; both over the
        stacked vertex rows. Built on first use."""
        v = int(self.vptr[-1])
        i, j = (self.edges + np.repeat(self.vptr[:-1], np.diff(self.eptr))[:, None]).T
        # Edge j -> i has key i * v + j: sorted keys order by destination, then source.
        keys = np.sort(np.concatenate([i * v + j, j * v + i, np.arange(v) * (v + 1)]))
        dst, src = np.divmod(keys[np.diff(keys, prepend=-1) > 0], v)  # a listed pair counts once
        owner = np.repeat(np.arange(len(self)), np.diff(self.vptr))  # subgraph of each row
        into_center = dst == self.vptr[owner[dst]]
        return EdgeList(src, dst, v), EdgeList(src[into_center], owner[dst[into_center]], v)


def stack_subgraphs(sets: Sequence[SubgraphSet]) -> SubgraphSet:
    """The subgraphs of ``sets`` in order as one set; each set's graph rows
    are numbered after those of the sets before it."""
    cat = np.concatenate
    first_row = np.cumsum([0] + [len(s.cell_ids) for s in sets])
    return SubgraphSet(
        cat([s.rows + r for s, r in zip(sets, first_row)]),
        cat([[0], *(np.diff(s.vptr) for s in sets)]).cumsum(),
        cat([s.edges for s in sets]),
        cat([[0], *(np.diff(s.eptr) for s in sets)]).cumsum(),
        cat([s.features for s in sets]),
        cat([s.targets for s in sets]),
        tuple(cid for s in sets for cid in s.cell_ids),
    )


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
) -> SubgraphSet:
    """The subgraphs of the graph rows ``centers``, in order. ``rng_of(i)`` gives the
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
    subgraphs = SubgraphSet(rows, vptr, edges, eptr, features.x[rows], features.y[centers], graph.cell_ids)
    for array in (rows, vptr, edges, eptr, subgraphs.features, subgraphs.targets):
        array.flags.writeable = False
    return subgraphs


def sample_subgraph(
    graph: RanGraph,
    center: str,
    cfg: SamplerConfig,
    features: FeatureMatrix,
    rng: np.random.Generator | None = None,
) -> SubgraphSet:
    """Sample one subgraph around ``center``: a set of one.

    ``rng`` defaults to the substream derived from (cfg.seed, center), so
    repeated calls return the identical subgraph.
    """
    row = graph._row(center)  # raises on unknown id
    rng_of = lambda _: substream(cfg.seed, "subgraph", center) if rng is None else rng  # noqa: E731
    return _sample(graph, np.array([row], dtype=np.intp), cfg.fanout, features, rng_of)


def build_dataset(
    graph: RanGraph,
    stats: NormalizationStats,
    cfg: SamplerConfig,
    epoch: int | None = None,
    cells: Sequence[str] | None = None,
) -> SubgraphSet:
    """The subgraph of each cell of ``cells``, by default every cell in graph row order.

    ``epoch`` perturbs the per-cell sampling substreams; it is only used when
    per-epoch resampling is enabled. Each subgraph equals ``sample_subgraph``
    of its cell with that cell's substream.
    """
    features = feature_map(graph, stats)
    ids = graph.cell_ids
    centers = np.arange(len(ids)) if cells is None else np.array([graph._row(cid) for cid in cells], dtype=np.intp)
    tokens = () if epoch is None else ("epoch", epoch)
    rng_of = lambda i: substream(cfg.seed, "subgraph", ids[centers[i]], *tokens)  # noqa: E731
    return _sample(graph, centers, cfg.fanout, features, rng_of)


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

