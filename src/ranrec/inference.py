"""Inductive configuration recommendation from an embedding store.

The store holds one (cell id, embedding, config vector) record per known
cell plus a frozen encoder. A new cell is embedded from its sampled
subgraph; its configuration comes from one per-attribute vote over the K
nearest stored records. Adopting the closest record's configuration is the
K = 1 vote, and a vote can leave one cell out, which is how evaluation
scores the training cells. New cells can be appended, so later queries may
retrieve cells recommended earlier.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .anomaly import IsolationForest
from .gnn import Checkpoint, GatStack, encode
from .graph import (
    AttributeSchema,
    CellRecord,
    NetworkFormatError,
    NormalizationStats,
    RanGraph,
    _read_json,
    extend_network,
    feature_map,
)
from .sampler import DatasetEntry, SamplerConfig, Subgraph, build_dataset
from .training import encode_centers


@dataclass(frozen=True)
class StoreRecord:
    cell_id: str
    z: np.ndarray  # embedding, length d
    y: np.ndarray  # normalized config vector, length Q


class EmbeddingStore:
    """Append-only columnar store over a frozen encoder.

    Row ``i`` holds cell ``ids[i]``, its embedding ``z[i]`` and its
    normalized config vector ``y[i]``. The config length is fixed by the
    first row.
    """

    def __init__(self, encoder: GatStack) -> None:
        self.encoder = encoder
        self.ids: list[str] = []
        self._rows: dict[str, int] = {}
        self.z = np.empty((0, encoder.out_dim))
        self.y = np.empty((0, 0))

    @property
    def embedding_dim(self) -> int:
        return self.encoder.out_dim

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def records(self) -> list[StoreRecord]:
        """Row views in insertion order."""
        return [StoreRecord(cid, z, y) for cid, z, y in zip(self.ids, self.z, self.y)]

    def extend(self, ids: Sequence[str], z: np.ndarray, y: np.ndarray) -> None:
        """Append one row per id; a rejected batch leaves the store unchanged."""
        z = np.asarray(z, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if z.shape != (len(ids), self.embedding_dim):
            raise ValueError(
                f"embeddings {z.shape} for {len(ids)} ids vs dimension {self.embedding_dim}"
            )
        width = self.y.shape[1] if self.ids else y.shape[-1]
        if y.shape != (len(ids), width):
            raise ValueError(f"configs {y.shape} vs {len(ids)} rows of config length {width}")
        rows: dict[str, int] = {}
        for cell_id in ids:
            if cell_id in self._rows or cell_id in rows:
                raise ValueError(f"cell id {cell_id!r} already stored")
            rows[cell_id] = len(self.ids) + len(rows)
        self.z = np.concatenate([self.z, z])
        self.y = np.concatenate([self.y, y]) if self.ids else y.copy()
        self.ids.extend(rows)
        self._rows.update(rows)

    def add(self, cell_id: str, z: np.ndarray, y: np.ndarray) -> None:
        """Append one row."""
        self.extend([cell_id], np.reshape(z, (1, -1)), np.reshape(y, (1, -1)))


def embed_entries(store: EmbeddingStore, entries: Sequence[DatasetEntry]) -> EmbeddingStore:
    """Append the center cell of every entry, embedded in batch, with its target."""
    rows = encode_centers(store.encoder, entries)
    store.extend([e.subgraph.center for e in entries], rows, np.stack([e.target for e in entries]))
    return store


def embed_new_cell(store: EmbeddingStore, subgraph: Subgraph) -> np.ndarray:
    """Embed a cell from its subgraph; the store itself is not modified."""
    return encode(store.encoder, subgraph)


def distance_set(store: EmbeddingStore, z: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``z`` to every stored embedding, in row order."""
    if not store.ids:
        raise ValueError("distance set of an empty store")
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.shape[0] != store.embedding_dim:
        raise ValueError(f"query of length {z.shape[0]} vs store dimension {store.embedding_dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, without a warning
        diff = store.z - z
        # A stacked (1, d) @ (d, 1) product per row issues the same BLAS dot as
        # np.linalg.norm of that row, so a per-record oracle reproduces these floats
        # bit for bit, ties included; einsum and summed squares round differently.
        dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None]).ravel())
    if not math.isfinite(dist.max()):  # NaN or inf anywhere, in one reduction
        raise ValueError("embedding distances overflow: the stored weights or embeddings are too large")
    return dist


def nearest(
    store: EmbeddingStore, z: np.ndarray, k: int, exclude: str | None = None
) -> tuple[tuple[str, float], ...]:
    """The ``k`` stored cells nearest ``z`` as (cell id, distance), nearest first.

    Exact search: distance ties go to the smaller cell id. ``exclude`` drops
    one cell id from the ranking, for leave-one-out retrieval.
    """
    if not 1 <= k <= len(store):
        raise ValueError(f"k={k} out of range for a store of {len(store)} records")
    dist = distance_set(store, z)
    m = min(k + (exclude is not None), dist.shape[0])
    cutoff = np.partition(dist, m - 1)[m - 1]
    # Every row at the cutoff distance takes part, so ties there rank by id.
    ranked = sorted((float(dist[i]), store.ids[i]) for i in np.flatnonzero(dist <= cutoff))
    sources = tuple((cid, d) for d, cid in ranked if cid != exclude)[:k]
    if len(sources) < k:
        raise ValueError(f"k={k} out of range for a store of {len(store)} records")
    return sources


@dataclass(frozen=True)
class Recommendation:
    y_hat: np.ndarray
    sources: tuple[tuple[str, float], ...]


def _aggregate_mode(values: np.ndarray) -> float:
    # Values arrive nearest-first; ties resolve to the nearer neighbor's value.
    counts: dict[float, list[int]] = {}
    for i, v in enumerate(values.tolist()):
        counts.setdefault(v, [0, i])[0] += 1
    best = max(counts.items(), key=lambda kv: (kv[1][0], -kv[1][1]))
    return float(best[0])


def recommend_majority(
    store: EmbeddingStore, z: np.ndarray, k: int, schema: AttributeSchema, exclude: str | None = None
) -> Recommendation:
    """Aggregate the K nearest configurations attribute by attribute.

    Each config attribute uses its schema-declared policy: ``mode`` (ties go
    to the nearer neighbor), ``median``, or ``mean``. With ``k = 1`` every
    policy returns the nearest record's configuration unchanged. ``exclude``
    leaves one cell id out of the vote, as ``nearest`` does.
    """
    sources = nearest(store, z, k, exclude)
    votes = store.y[[store._rows[cid] for cid, _ in sources]]  # nearest-first rows
    layout = schema.config_layout
    y_hat = np.empty(len(layout))
    for slot, spec in enumerate(layout):
        column = votes[:, slot]
        if spec.aggregation == "mode":
            y_hat[slot] = _aggregate_mode(column)
        elif spec.aggregation == "mean":
            y_hat[slot] = float(column.mean())
        else:
            y_hat[slot] = float(np.median(column))
    return Recommendation(y_hat=y_hat, sources=sources)


def recommend_closest(store: EmbeddingStore, z: np.ndarray, schema: AttributeSchema) -> Recommendation:
    """Adopt the nearest record's configuration (ties: smaller cell id): the vote of one."""
    return recommend_majority(store, z, 1, schema)


def encode_new_cells(
    encoder: GatStack,
    graph: RanGraph,
    stats: NormalizationStats,
    new_cells: Sequence[CellRecord],
    new_edges: Sequence[tuple[str, str, str]],
    sampler_cfg: SamplerConfig,
) -> np.ndarray:
    """Embed cells joining ``graph``, one row each in the given order: every
    cell's subgraph of the extended network is sampled and all are encoded
    in one batch."""
    augmented = extend_network(graph, new_cells, new_edges)
    entries = build_dataset(augmented, stats, sampler_cfg, cells=[cell.cell_id for cell in new_cells])
    return encode_centers(encoder, entries)


def recommend_cells(
    store: EmbeddingStore,
    new_cells: Sequence[CellRecord],
    rows: np.ndarray,
    k: int,
    schema: AttributeSchema,
) -> list[tuple[CellRecord, np.ndarray, Recommendation]]:
    """Recommend each new cell's configuration by a vote over its ``k`` nearest,
    in order; each then joins the store with it, so later cells may retrieve earlier ones."""
    results = []
    for cell, z in zip(new_cells, rows):
        rec = recommend_closest(store, z, schema) if k == 1 else recommend_majority(store, z, k, schema)
        store.add(cell.cell_id, z, rec.y_hat)
        results.append((cell, z, rec))
    return results


# ---------------------------------------------------------------------------
# Store persistence (self-contained inference bundle)


STORE_FORMAT = "ranrec-store/4"

# Binary store columns: dtype of the little-endian array each one encodes.
NETWORK_COLUMNS = {"technology": "u1", "predictor": "<f8", "config": "<f8", "edges": "<i4"}
FOREST_COLUMNS = {"feature": "<i4", "threshold": "<f8", "children": "<i4", "path": "<f8", "roots": "<i4"}
FOREST_SCALARS = ("psi", "n", "seed", "dim")


def _encode(array: np.ndarray, dtype: str) -> str:
    return base64.b64encode(np.ascontiguousarray(array, dtype=dtype).tobytes()).decode("ascii")


def _decode(data: dict, name: str, dtype: str, where: str, shape: tuple[int, ...]) -> np.ndarray:
    """The int or float64 array of ``shape`` that ``data[name]`` encodes; a
    leading -1 takes as many rows as there are."""
    try:
        raw = base64.b64decode(data[name], validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ValueError(f"{where}.{name}: not a base64 string: {exc}") from None
    item, width = np.dtype(dtype).itemsize, math.prod(shape[1:])
    count = len(raw) // item
    if count * item != len(raw) or (count % width if shape[0] < 0 else count != shape[0] * width):
        raise ValueError(f"{where}.{name}: {len(raw)} bytes do not hold a {shape} array of {dtype}")
    return np.frombuffer(raw, dtype=dtype).astype(np.float64 if "f" in dtype else np.intp).reshape(shape)


@dataclass
class StoreBundle:
    """Everything needed to embed and recommend for cells joining a network.

    ``forest`` is the novelty forest ``embed`` fits on the store's
    embeddings; it is None when no forest can be fit (fewer than 2 records,
    or all identical). On disk each record is ``{cell_id, z}``, one per
    network row in row order; its config vector is derived on load as the
    row of ``feature_map(graph, checkpoint.stats).y``.
    """

    graph: RanGraph
    checkpoint: Checkpoint
    forest: IsolationForest | None = None
    store: EmbeddingStore = field(init=False)

    def __post_init__(self) -> None:
        self.store = EmbeddingStore(self.checkpoint.encoder)

    @property
    def schema(self) -> AttributeSchema:
        return self.graph.schema

    @property
    def stats(self) -> NormalizationStats:
        return self.checkpoint.stats

    def to_json(self) -> dict:
        columns = self.graph.columns()
        network = {"schema": self.schema.to_json(), "cell_ids": columns["cell_ids"]}
        network["node_ids"] = columns["node_ids"]
        for name, dtype in NETWORK_COLUMNS.items():
            network[name] = _encode(columns[name], dtype)
        forest = None
        if self.forest is not None:
            forest = {name: getattr(self.forest, name) for name in FOREST_SCALARS}
            for name, dtype in FOREST_COLUMNS.items():
                forest[name] = _encode(getattr(self.forest, name), dtype)
        return {
            "format": STORE_FORMAT,
            "network": network,
            "checkpoint": self.checkpoint.to_json(),
            "forest": forest,
            "records": [{"cell_id": cid, "z": z} for cid, z in zip(self.store.ids, self.store.z.tolist())],
        }

    @classmethod
    def from_json(cls, data: dict) -> "StoreBundle":
        found = data.get("format") if isinstance(data, dict) else None
        if found != STORE_FORMAT:
            raise ValueError(
                f"format: {found!r}, expected {STORE_FORMAT!r}: the store was written by an "
                "older ranrec; re-run `ranrec embed` to rebuild it"
            )
        network = data["network"]
        schema = AttributeSchema.from_json(network["schema"], "network.schema")
        if not isinstance(network["cell_ids"], list):
            raise ValueError("network.cell_ids: expected a list of strings")
        n = len(network["cell_ids"])
        shapes = {
            "technology": (n,),
            "predictor": (n, schema.predictor_dim),
            "config": (n, schema.config_dim),
            "edges": (-1, 2),
        }
        columns = {name: network[name] for name in ("cell_ids", "node_ids")}
        for name, dtype in NETWORK_COLUMNS.items():
            columns[name] = _decode(network, name, dtype, "network", shapes[name])
        try:
            graph = RanGraph.from_columns(schema, columns)
        except NetworkFormatError as exc:
            raise NetworkFormatError(f"network.{exc}") from None
        checkpoint = Checkpoint.from_json(data["checkpoint"], schema=graph.schema)
        bundle = cls(graph=graph, checkpoint=checkpoint)
        items, width = data["records"], bundle.store.embedding_dim
        try:  # in bulk; when that fails, the loop below names the lowest bad record
            z = np.array([item["z"] for item in items], dtype=np.float64)
            bulk = z.shape == (len(items), width) and np.isfinite(z).all()
        except (KeyError, TypeError, ValueError, OverflowError):
            bulk = False
        if not bulk:
            z = np.empty((len(items), width))
            for index, item in enumerate(items):
                try:
                    value = np.array(item["z"], dtype=np.float64)
                except (TypeError, ValueError, OverflowError):  # a string, a ragged list, 10**400
                    value = None
                if value is None or value.shape != (width,) or not np.isfinite(value).all():
                    raise ValueError(f"record {index}: z is not {width} finite numbers")
                z[index] = value
        ids = [item["cell_id"] for item in items]
        if ids != list(graph.cell_ids):  # embed writes one record per network row, in row order
            index = next((i for i, (a, b) in enumerate(zip(ids, graph.cell_ids)) if a != b), min(len(ids), n))
            raise ValueError(
                f"records[{index}]: record ids must be network.cell_ids in row order "
                f"({len(ids)} records for {n} cells)"
            )
        bundle.store.extend(ids, z, feature_map(graph, checkpoint.stats).y)
        if data["forest"] is not None:
            bundle.forest = _forest_from_json(data["forest"], len(bundle.store), bundle.store.embedding_dim)
        return bundle


def _forest_from_json(data: dict, n: int, dim: int) -> IsolationForest:
    """The stored forest, checked against the ``n`` records of width ``dim`` it was fit on."""
    arrays = {
        name: _decode(data, name, dtype, "forest", (-1, 2) if name == "children" else (-1,))
        for name, dtype in FOREST_COLUMNS.items()
    }
    try:
        forest = IsolationForest(**arrays, **{name: data[name] for name in FOREST_SCALARS})
    except ValueError as exc:
        raise ValueError(f"forest.{exc}") from None
    if forest.n != n:
        raise ValueError(f"forest.n: fit on {forest.n} rows, but the store holds {n} records")
    if forest.dim != dim:
        raise ValueError(f"forest.dim: {forest.dim} is not the embedding width {dim}")
    return forest


def load_store(path: str | Path) -> StoreBundle:
    """The store at ``path``; any error names the file."""
    data = _read_json(path)
    try:
        return StoreBundle.from_json(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise NetworkFormatError(f"{path}: invalid store: {exc}") from exc
