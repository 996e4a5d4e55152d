"""Radio-network graph model with feature preprocessing.

Cells are vertices of an undirected graph; edges join cells on the same
radio node (``intra_node``, materialized automatically) or across nodes
(``inter_node``, listed explicitly). ``RanGraph`` holds one row per cell:
raw predictor and configuration columns, laid out as the LTE attribute
block followed by the NR block, plus an edge table. ``feature_map`` min-max
normalizes them into [0, 1] from statistics fitted on training cells;
slots of the other technology are 0.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, TypeVar

import numpy as np

TECHNOLOGIES = ("LTE", "NR")
ROLES = ("predictor", "config")
KINDS = ("continuous", "discrete")
AGGREGATIONS = ("mode", "median", "mean")
EDGE_KINDS = ("intra_node", "inter_node")

T = TypeVar("T")


class NetworkFormatError(ValueError):
    """The network description violates its schema or graph invariants."""


@dataclass(frozen=True)
class AttributeSpec:
    """One named attribute of one technology, with its vector-slot policy."""

    name: str
    technology: str
    role: str
    kind: str
    aggregation: str | None = None

    def __post_init__(self) -> None:
        if self.technology not in TECHNOLOGIES:
            raise NetworkFormatError(f"unknown technology {self.technology!r}")
        if self.role not in ROLES:
            raise NetworkFormatError(f"unknown role {self.role!r}")
        if self.kind not in KINDS:
            raise NetworkFormatError(f"unknown kind {self.kind!r}")
        if self.role == "config":
            if self.aggregation not in AGGREGATIONS:
                raise NetworkFormatError(
                    f"config attribute {self.name!r} needs an aggregation "
                    f"policy from {AGGREGATIONS}"
                )
        elif self.aggregation is not None and self.aggregation not in AGGREGATIONS:
            raise NetworkFormatError(f"unknown aggregation {self.aggregation!r}")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.technology, self.role, self.name)


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered attribute list; order fixes vector slot positions.

    The predictor and config layouts place all LTE attributes first, then
    all NR attributes, preserving declaration order within each block.
    """

    entries: tuple[AttributeSpec, ...]

    def __post_init__(self) -> None:
        seen: set[tuple[str, str, str]] = set()
        for e in self.entries:
            if e.key in seen:
                raise NetworkFormatError(
                    f"duplicate attribute {e.name!r} for {e.technology} {e.role}"
                )
            seen.add(e.key)

    def layout(self, role: str) -> tuple[AttributeSpec, ...]:
        return tuple(
            e
            for tech in TECHNOLOGIES
            for e in self.entries
            if e.role == role and e.technology == tech
        )

    @property
    def predictor_layout(self) -> tuple[AttributeSpec, ...]:
        return self.layout("predictor")

    @property
    def config_layout(self) -> tuple[AttributeSpec, ...]:
        return self.layout("config")

    @property
    def predictor_dim(self) -> int:
        return len(self.predictor_layout)

    @property
    def config_dim(self) -> int:
        return len(self.config_layout)

    def to_json(self) -> list[dict]:
        return [
            {
                "name": e.name,
                "technology": e.technology,
                "role": e.role,
                "kind": e.kind,
                **({"aggregation": e.aggregation} if e.aggregation else {}),
            }
            for e in self.entries
        ]

    @classmethod
    def from_json(cls, data: list[dict], source: str = "<memory>") -> "AttributeSchema":
        def parse(item: dict) -> AttributeSpec:
            return AttributeSpec(
                name=str(item["name"]),
                technology=str(item["technology"]),
                role=str(item["role"]),
                kind=str(item["kind"]),
                aggregation=item.get("aggregation"),
            )

        return cls(entries=tuple(_parse_entries(data, source, "schema", parse)))


@dataclass(frozen=True)
class CellRecord:
    """One cell with raw (unnormalized) attribute values of its technology."""

    cell_id: str
    node_id: str
    technology: str
    raw_predictors: Mapping[str, float]
    raw_configs: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.technology not in TECHNOLOGIES:
            raise NetworkFormatError(
                f"cell {self.cell_id!r}: unknown technology {self.technology!r}"
            )
        for role in ROLES:
            for name, value in self.raw_values(role).items():
                if not math.isfinite(value):
                    raise NetworkFormatError(
                        f"cell {self.cell_id!r}: {role} {name!r} is {value}, "
                        "not a finite number"
                    )

    def raw_values(self, role: str) -> Mapping[str, float]:
        return self.raw_predictors if role == "predictor" else self.raw_configs


class RanGraph:
    """Immutable undirected cell graph, held as columns.

    Row ``i`` is the cell ``cell_ids[i]`` on node ``node_ids[i]``;
    ``technology`` indexes ``TECHNOLOGIES``; ``predictor`` and ``config`` hold
    raw values in layout order, 0 in other-technology slots and NaN in every
    own slot of a cell without configs. Cells sharing a node are always
    pairwise connected with kind ``intra_node`` (added automatically);
    ``inter_node`` edges come from the input. Self loops are rejected.
    ``row_of`` maps each cell id to its row.
    """

    def __init__(
        self,
        schema: AttributeSchema,
        cells: Iterable[CellRecord] = (),
        edges: Iterable[tuple[str, str, str]] = (),
    ) -> None:
        self.schema = schema
        # Per role and technology code: each own attribute's slot, by name.
        self._own = {
            role: [dict(sorted((s.name, i) for i, s in enumerate(schema.layout(role)) if s.technology == t)) for t in TECHNOLOGIES]
            for role in ROLES
        }
        self.cell_ids: tuple[str, ...] = ()
        self.node_ids: tuple[str, ...] = ()
        self.technology = _frozen(np.zeros(0, dtype=np.intp))
        self.predictor = _frozen(np.zeros((0, schema.predictor_dim)))
        self.config = _frozen(np.zeros((0, schema.config_dim)))
        self.row_of: dict[str, int] = {}
        self._edges = _frozen(np.zeros((0, 3), dtype=np.intp))  # canonical (row, row, kind)
        # CSR adjacency: row i's neighbour rows, in cell-id order, are indices[indptr[i]:indptr[i + 1]].
        self.indptr = _frozen(np.zeros(1, dtype=np.intp))
        self.indices = _frozen(np.zeros(0, dtype=np.intp))
        self._add(cells, edges)

    def _add(self, cells: Iterable[CellRecord], edges: Iterable[tuple[str, str, str]]) -> None:
        """Join cells, then edges, then the intra-node pairs the cells complete.
        Only these are validated, in the order a build from scratch checks them."""
        new = tuple(cells)
        row_of = dict(self.row_of)
        for cell in new:
            if cell.cell_id in row_of:
                raise NetworkFormatError(f"duplicate cell_id {cell.cell_id!r}")
            _validate_attributes(cell, self._own)
            row_of[cell.cell_id] = len(row_of)
        listed = []
        for a, b, kind in edges:
            if a == b:
                raise NetworkFormatError(f"self-loop edge on cell {a!r}")
            if kind not in EDGE_KINDS:
                raise NetworkFormatError(f"unknown edge kind {kind!r}")
            for cid in (a, b):
                if cid not in row_of:
                    raise NetworkFormatError(f"edge references unknown cell {cid!r}")
            listed.append((row_of[a], row_of[b], EDGE_KINDS.index(kind)))
        self.row_of = row_of
        self.cell_ids += tuple(c.cell_id for c in new)
        self.node_ids += tuple(c.node_id for c in new)
        codes = np.array([TECHNOLOGIES.index(c.technology) for c in new], dtype=np.intp)
        self.technology = _frozen(np.concatenate([self.technology, codes]))
        for role in ROLES:
            rows = np.zeros((len(new), getattr(self, role).shape[1]))
            for code, own in enumerate(self._own[role]):
                members = np.flatnonzero(codes == code)
                raw = (new[i].raw_values(role) for i in members.tolist())
                values = [[r[name] for name in own] if r else [math.nan] * len(own) for r in raw]
                rows[np.ix_(members, list(own.values()))] = np.array(values).reshape(len(members), len(own))
            setattr(self, role, _frozen(np.concatenate([getattr(self, role), rows])))
        self._link(len(self.cell_ids) - len(new), np.array(listed, dtype=np.intp).reshape(-1, 3), listed=True)

    def _link(self, start: int, edges: np.ndarray, listed: bool) -> None:
        """Merge ``edges``, ``(row, row, kind)`` triples, and the intra-node pairs
        rows ``start`` onwards complete into the edge table (one row per pair,
        smaller id first, sorted by id pair) and the CSR arrays; only the rows
        the new pairs touch gain entries.

        ``listed`` edges (record input) drop their same-node pairs, and the
        last listing of a pair sets its kind. Column edges, merged into an
        empty graph, must already be one per pair with every same-node pair
        ``intra_node``; the first that is not is named.
        """
        ids, n = self.cell_ids, len(self.cell_ids)
        # Each cell id's rank in sorted order: (smaller id, larger id) pairs and
        # id-ordered neighbour rows then come from integer comparisons.
        by_id = np.array(sorted(range(n), key=ids.__getitem__), dtype=np.intp)
        rank = np.empty(n, dtype=np.intp)
        rank[by_id] = np.arange(n)
        codes = dict(zip(dict.fromkeys(self.node_ids), range(n)))  # in order of first appearance
        node = np.fromiter(map(codes.__getitem__, self.node_ids), dtype=np.intp, count=n)
        clique = _clique_pairs(node)
        clique = clique[clique[:, 1] >= start]
        if listed:
            edges = np.concatenate([edges[node[edges[:, 0]] != node[edges[:, 1]]], clique])
        a, b, kind = edges.T
        lo, hi = np.where(rank[a] < rank[b], a, b), np.where(rank[a] < rank[b], b, a)
        pair = rank[lo] * n + rank[hi]
        if listed:  # np.unique sorts the pairs; on the reversed list it finds each one's last listing
            order = len(pair) - 1 - np.unique(pair[::-1], return_index=True)[1]
        else:
            order = np.argsort(pair, kind="stable")
            ordered = pair[order]
            repeated = np.flatnonzero(np.diff(ordered) == 0)
            if repeated.size:
                i = int(order[repeated[0] + 1])
                raise NetworkFormatError(f"edges: edge {i} repeats the pair {ids[lo[i]]!r}, {ids[hi[i]]!r}")
            bad = np.flatnonzero((node[a] == node[b]) & (kind != EDGE_KINDS.index("intra_node")))
            if bad.size:
                raise NetworkFormatError(f"edges: edge {bad[0]} joins two cells of one node as inter_node")
            y, x = rank[clique[:, 0]], rank[clique[:, 1]]
            keys = np.minimum(y, x) * n + np.maximum(y, x)
            missing = np.flatnonzero(np.append(ordered, -1)[np.searchsorted(ordered, keys)] != keys)
            if missing.size:
                y, x = clique[missing[0], :2]
                raise NetworkFormatError(
                    f"edges: cells {ids[y]!r} and {ids[x]!r} share a node but no intra_node edge joins them"
                )
        new, pair = np.stack([lo, hi, kind], axis=1)[order], pair[order]
        # A pair already in the table takes the new listing's kind; the rest are inserted.
        table, stored = self._edges.copy(), rank[self._edges[:, 0]] * n + rank[self._edges[:, 1]]
        at = np.searchsorted(stored, pair)
        known = np.append(stored, -1)[at] == pair
        table[at[known], 2] = new[known, 2]
        self._edges = _frozen(np.insert(table, at[~known], new[~known], axis=0))
        # Both directions of each new pair, as (source row, neighbour id rank) keys.
        lo, hi = new[~known, 0], new[~known, 1]
        keys = np.sort(np.concatenate([lo * n + rank[hi], hi * n + rank[lo]]))
        old = len(self.indptr) - 1
        held = np.repeat(np.arange(old), np.diff(self.indptr)) * n + rank[self.indices]
        self.indices = _frozen(np.insert(self.indices, np.searchsorted(held, keys), by_id[keys % n]))
        indptr = np.concatenate([self.indptr, np.full(n - old, self.indptr[-1])])
        indptr[1:] += np.cumsum(np.bincount(keys // n, minlength=n))
        self.indptr = _frozen(indptr)

    # -- queries ---------------------------------------------------------------

    def _row(self, cell_id: str) -> int:
        try:
            return self.row_of[cell_id]
        except KeyError:
            raise KeyError(f"unknown cell id {cell_id!r}") from None

    def _raw(self, code: int, rows: Iterable[list[float]]) -> list[dict[str, float]]:
        """Own attribute values by name per role, from a cell's predictor and
        config rows; ``{}`` for configs that are NaN (none given)."""
        raw = [{name: row[i] for name, i in own[code].items()} for own, row in zip(self._own.values(), rows)]
        return [{} if any(map(math.isnan, r.values())) else r for r in raw]

    def cell(self, cell_id: str) -> CellRecord:
        """The cell as a record, read from its row."""
        row = self._row(cell_id)
        code = int(self.technology[row])
        raw = self._raw(code, (self.predictor[row].tolist(), self.config[row].tolist()))
        return CellRecord(cell_id, self.node_ids[row], TECHNOLOGIES[code], *raw)

    @property
    def cells(self) -> tuple[CellRecord, ...]:
        """Every cell as a record, in row order, built on each call."""
        return tuple(map(self.cell, self.cell_ids))

    def neighbors(self, cell_id: str) -> tuple[str, ...]:
        row = self._row(cell_id)
        return tuple(map(self.cell_ids.__getitem__, self.indices[self.indptr[row] : self.indptr[row + 1]].tolist()))

    @property
    def edges(self) -> tuple[tuple[str, str, str], ...]:
        """Every edge, intra-node pairs included, as sorted (id, id, kind) triples."""
        a, b, kind = self._edges.T.tolist()
        ids = self.cell_ids.__getitem__
        return tuple(zip(map(ids, a), map(ids, b), map(EDGE_KINDS.__getitem__, kind)))

    def columns(self) -> dict[str, Any]:
        """Writable copies of the columns, edges included as ``edges``: every
        edge as (row, row, index into ``EDGE_KINDS``) in ``edges`` order."""
        columns: dict[str, Any] = {"cell_ids": list(self.cell_ids), "node_ids": list(self.node_ids)}
        for name in ("technology", *ROLES):
            columns[name] = getattr(self, name).copy()
        columns["edges"] = self._edges.copy()
        return columns

    @classmethod
    def from_columns(cls, schema: AttributeSchema, columns: Mapping[str, Any]) -> "RanGraph":
        """The graph ``columns()`` describes, checked one column at a time.

        It rejects whatever ``RanGraph(schema, cells, edges)`` would reject for
        the same network, and what ``columns()`` never writes: a repeated or
        same-node inter-node edge, or a missing intra-node pair. Errors name
        the column and its first bad entry.
        """
        cell_ids, node_ids, technology = columns["cell_ids"], columns["node_ids"], columns["technology"]
        for name, ids in (("cell_ids", cell_ids), ("node_ids", node_ids)):
            if not isinstance(ids, list) or not all(type(i) is str for i in ids):
                raise NetworkFormatError(f"{name}: expected a list of strings")
        n = len(cell_ids)
        if len(node_ids) != n:
            raise NetworkFormatError(f"node_ids: {len(node_ids)} entries for {n} cells")
        graph = cls(schema)
        graph.row_of = dict(zip(cell_ids, range(n)))
        if len(graph.row_of) < n:  # name the first id met a second time
            first = dict(zip(reversed(cell_ids), range(n - 1, -1, -1)))
            cid = next(cid for row, cid in enumerate(cell_ids) if first[cid] != row)
            raise NetworkFormatError(f"cell_ids: duplicate cell_id {cid!r}")
        bad = np.flatnonzero((technology < 0) | (technology >= len(TECHNOLOGIES)))
        if bad.size:
            cid, code = cell_ids[bad[0]], technology[bad[0]]
            raise NetworkFormatError(f"technology: cell {cid!r}: unknown technology code {code}")
        for role in ROLES:
            layout, matrix = schema.layout(role), np.array(columns[role], dtype=np.float64)
            slot_tech = np.array([TECHNOLOGIES.index(s.technology) for s in layout], dtype=np.intp)
            own = slot_tech == technology[:, None]
            # A cell awaiting a recommendation carries no configs: NaN in every own slot.
            absent = (own == np.isnan(matrix)).all(axis=1) & own.any(axis=1) & (role == "config")
            wrong = np.where(own, ~np.isfinite(matrix) & ~absent[:, None], matrix != 0)
            if wrong.any():
                row, col = np.argwhere(wrong)[0]
                where, name, value = f"{role}: cell {cell_ids[row]!r}", layout[col].name, matrix[row, col]
                if own[row, col]:
                    raise NetworkFormatError(f"{where}: {role} {name!r} is {value}, not a finite number")
                raise NetworkFormatError(f"{where}: unknown or wrong-technology {role} attributes [{name!r}]")
            setattr(graph, role, _frozen(matrix))
        graph.cell_ids, graph.node_ids = tuple(cell_ids), tuple(node_ids)
        graph.technology = _frozen(np.array(technology, dtype=np.intp))
        edges = columns["edges"]
        a, b, kind = edges.T
        for bad, what in (
            ((a < 0) | (a >= n) | (b < 0) | (b >= n), "references a row outside the cells"),
            (a == b, "is a self loop"),
            ((kind < 0) | (kind >= len(EDGE_KINDS)), "has an unknown kind"),
        ):
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise NetworkFormatError(f"edges: edge {i} {what}: {edges[i].tolist()}")
        graph._link(0, edges, listed=False)
        return graph

    def to_json(self) -> dict:
        """The network file, written from the columns: each cell's own attributes
        by name, configs ``{}`` for a cell without them, and ``edges``."""
        keys = ("cell_id", "node_id", "technology", "predictors", "configs")
        rows = zip(self.cell_ids, self.node_ids, self.technology.tolist(), self.predictor.tolist(), self.config.tolist())
        cells = [
            dict(zip(keys, (cid, node, TECHNOLOGIES[code], *self._raw(code, values)))) for cid, node, code, *values in rows
        ]
        return {"schema": self.schema.to_json(), "cells": cells, "edges": [list(e) for e in self.edges]}


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _clique_pairs(node: np.ndarray) -> np.ndarray:
    """Every pair of rows on one node as an intra-node edge (earlier row, later
    row, 0): by node code, then by the later row, then by the earlier one."""
    order = np.argsort(node, kind="stable")
    sizes = np.bincount(node)
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)  # where each row's node begins in ``order``
    before = np.arange(len(order)) - start  # rows before it on its node
    later = np.repeat(order, before)
    offset = np.arange(before.sum()) - np.repeat(np.cumsum(before) - before, before)  # 0, 1, .. per row
    earlier = order[np.repeat(start, before) + offset]
    return np.stack([earlier, later, np.zeros_like(later)], axis=1)


def _validate_attributes(cell: CellRecord, own: Mapping[str, list[dict[str, int]]]) -> None:
    predictors, configs = (own[role][TECHNOLOGIES.index(cell.technology)].keys() for role in ROLES)
    if cell.raw_predictors.keys() == predictors and cell.raw_configs.keys() in (configs, set()):
        return  # the common case; the checks below name what is wrong
    for role, names in zip(ROLES, (predictors, configs)):
        got = set(cell.raw_values(role))
        if got - names:
            raise NetworkFormatError(
                f"cell {cell.cell_id!r}: unknown or wrong-technology "
                f"{role} attributes {sorted(got - names)}"
            )
        # Cells awaiting a recommendation may omit configs entirely.
        if role == "config" and not got:
            continue
        if names - got:
            raise NetworkFormatError(
                f"cell {cell.cell_id!r}: missing {role} attributes {sorted(names - got)}"
            )


def load_network(path: str | Path) -> RanGraph:
    """Parse a network JSON file into a validated ``RanGraph``."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise NetworkFormatError(f"{path}: cannot read network file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    return network_from_json(data, source=str(path))


def network_from_json(data: dict, source: str = "<memory>") -> RanGraph:
    if not isinstance(data, dict):
        raise NetworkFormatError(f"{source}: expected a JSON object")
    for key in ("schema", "cells", "edges"):
        if key not in data:
            raise NetworkFormatError(f"{source}: missing top-level key {key!r}")
    schema = AttributeSchema.from_json(data["schema"], source)
    cells = _parse_cells(data["cells"], source, configs_required=True)
    edges = _parse_edges(data["edges"], source)
    try:
        return RanGraph(schema=schema, cells=cells, edges=edges)
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{source}: {exc}") from None


def _parse_entries(items: list, source: str, kind: str, parse: Callable[[Any], T]) -> list[T]:
    """``parse`` each entry; a missing field, wrong type or bad value names the entry."""
    if not isinstance(items, list):
        raise NetworkFormatError(f"{source}: {kind} entries must be a list")
    out = []
    for i, item in enumerate(items):
        try:
            out.append(parse(item))
        except KeyError as exc:
            raise NetworkFormatError(f"{source}: {kind} entry {i}: missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise NetworkFormatError(f"{source}: {kind} entry {i}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Settings records: run configs, synth specs, checkpoint architectures


class SettingsError(ValueError):
    """A settings record has an unknown key or a bad value; ``key`` names the setting."""

    def __init__(self, message: str, key: str | None = None) -> None:
        super().__init__(message)
        self.key = key


def require(ok: bool, key: str, rule: str) -> None:
    """A range check in a settings ``__post_init__``: raise naming ``key`` unless ``ok``."""
    if not ok:
        raise SettingsError(f"key {key!r}: {rule}", key)


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite_number(v: Any) -> bool:
    if not (_is_int(v) or isinstance(v, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


# Declared field type -> (what a value must be, its check). Fields of any
# other type hold nested records, not settings.
SETTING_TYPES: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_finite_number),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "int | None": ("an integer", lambda v: v is None or _is_int(v)),
}


def setting_fields(cls: type) -> dict[str, str]:
    """Name -> declared type of each setting field of the dataclass ``cls``."""
    return {f.name: f.type for f in dataclasses.fields(cls) if f.type in SETTING_TYPES}


def settings_from(
    cls: type[T], values: Any, source: str, lines: Mapping[str, int] | None = None, **records: Any
) -> T:
    """Build the settings dataclass ``cls`` from a record read from ``source``.

    Rejects a record that is not a mapping, unknown or missing keys and values
    of the wrong type; building the object runs its range checks.
    ``records`` pass already-built nested fields through unchecked. Every
    error names ``source``, the key's line when ``lines`` holds it, and the key.
    """

    def where(key: str | None) -> str:
        return f"{source}:{lines[key]}" if lines and key in lines else source

    if not isinstance(values, Mapping):
        raise SettingsError(f"{source}: expected an object of settings, got {type(values).__name__}")
    types = setting_fields(cls)
    for key, value in values.items():
        if key not in types:
            raise SettingsError(f"{where(key)}: unknown key {key!r}", key)
        expected, ok = SETTING_TYPES[types[key]]
        if not ok(value):
            raise SettingsError(f"{where(key)}: key {key!r}: expected {expected}, got {value!r}", key)
    try:
        return cls(**values, **records)
    except SettingsError as exc:
        raise SettingsError(f"{where(exc.key)}: {exc}", exc.key) from None
    except TypeError as exc:  # a required key is missing
        raise SettingsError(f"{source}: {exc}") from None


def _parse_cells(items: list[dict], source: str, configs_required: bool) -> list[CellRecord]:
    def parse(item: dict) -> CellRecord:
        configs = item["configs"] if configs_required else item.get("configs", {})
        return CellRecord(
            cell_id=str(item["cell_id"]),
            node_id=str(item["node_id"]),
            technology=str(item["technology"]),
            raw_predictors={k: float(v) for k, v in item["predictors"].items()},
            raw_configs={k: float(v) for k, v in configs.items()},
        )

    return _parse_entries(items, source, "cell", parse)


def _parse_edges(items: list, source: str) -> list[tuple[str, str, str]]:
    def parse(item: list) -> tuple[str, str, str]:
        if len(item) != 3:
            raise NetworkFormatError("expected [cell_id, cell_id, kind]")
        return str(item[0]), str(item[1]), str(item[2])

    return _parse_entries(items, source, "edge", parse)


# ---------------------------------------------------------------------------
# Normalization


@dataclass(frozen=True)
class SlotStats:
    minimum: float
    maximum: float
    observed: tuple[float, ...] = ()  # sorted training values, kept for discrete slots

    def normalize(self, value: float | np.ndarray) -> float | np.ndarray:
        """Scale into [0, 1]: a float to a float, an array element by element."""
        if self.maximum == self.minimum:
            scaled = np.zeros_like(value, dtype=np.float64)  # constant feature carries no information
        else:
            scaled = np.clip((value - self.minimum) / (self.maximum - self.minimum), 0.0, 1.0)
        return scaled if isinstance(value, np.ndarray) else float(scaled)

    def denormalize(self, value: float) -> float:
        return self.minimum + value * (self.maximum - self.minimum)


@dataclass(frozen=True)
class NormalizationStats:
    """Per-slot min/max fitted on training cells only, in layout order."""

    predictor: tuple[SlotStats, ...]
    config: tuple[SlotStats, ...]

    def slots(self, role: str) -> tuple[SlotStats, ...]:
        return self.predictor if role == "predictor" else self.config

    def to_json(self) -> dict:
        def dump(slots: tuple[SlotStats, ...]) -> list[dict]:
            return [
                {
                    "min": s.minimum,
                    "max": s.maximum,
                    **({"observed": list(s.observed)} if s.observed else {}),
                }
                for s in slots
            ]

        return {"predictor": dump(self.predictor), "config": dump(self.config)}

    @classmethod
    def from_json(cls, data: dict) -> "NormalizationStats":
        def parse(items: list[dict]) -> tuple[SlotStats, ...]:
            return tuple(
                SlotStats(
                    minimum=float(s["min"]),
                    maximum=float(s["max"]),
                    observed=tuple(float(v) for v in s.get("observed", ())),
                )
                for s in items
            )

        return cls(predictor=parse(data["predictor"]), config=parse(data["config"]))


def fit_normalization(graph: RanGraph, train_ids: Iterable[str]) -> NormalizationStats:
    """Fit per-attribute min/max over the given training cells.

    Observed values are recorded for discrete attributes so recommendations
    can be snapped back to settable values. Raises if an attribute is never
    observed on any training cell.
    """
    ids = list(train_ids)
    if not ids:
        raise ValueError("train_ids must be non-empty")
    rows = [graph._row(cid) for cid in ids]
    bare = np.flatnonzero(np.isnan(graph.config[rows]).any(axis=1))
    if bare.size:
        raise ValueError(f"training cell {ids[bare[0]]!r} carries no configs")
    codes = graph.technology[rows]

    def fit_role(role: str) -> tuple[SlotStats, ...]:
        raw = getattr(graph, role)[rows]
        slots = []
        for col, spec in enumerate(graph.schema.layout(role)):
            # Python floats and min/max, so a tie of 0.0 and -0.0 keeps the first listed.
            values = raw[codes == TECHNOLOGIES.index(spec.technology), col].tolist()
            if not values:
                raise ValueError(
                    f"attribute {spec.name!r} ({spec.technology} {role}) was never "
                    "observed on a training cell"
                )
            observed = tuple(sorted(set(values))) if spec.kind == "discrete" else ()
            slots.append(SlotStats(min(values), max(values), observed))
        return tuple(slots)

    return NormalizationStats(predictor=fit_role("predictor"), config=fit_role("config"))


@dataclass(frozen=True)
class FeatureMatrix:
    """Normalized predictor rows ``x`` (n, P) and config rows ``y`` (n, Q) in
    [0, 1], row ``i`` for ``RanGraph.cell_ids[i]``; both are read-only."""

    x: np.ndarray
    y: np.ndarray


def denormalize(
    y_hat: np.ndarray, stats: NormalizationStats, schema: AttributeSchema
) -> dict[str, float]:
    """Invert normalization per config attribute; snap discrete values.

    Keys are ``"<technology>.<name>"``. Discrete attributes map to the
    nearest observed training value (ties resolve to the smaller value).
    """
    layout = schema.config_layout
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    if y_hat.shape[0] != len(layout):
        raise ValueError(f"expected config vector of length {len(layout)}, got {y_hat.shape[0]}")
    out: dict[str, float] = {}
    for value, spec, slot in zip(y_hat, layout, stats.config):
        raw = slot.denormalize(float(value))
        if spec.kind == "discrete" and slot.observed:
            raw = min(slot.observed, key=lambda v: (abs(v - raw), v))
        out[f"{spec.technology}.{spec.name}"] = float(raw)
    return out


def feature_map(graph: RanGraph, stats: NormalizationStats) -> FeatureMatrix:
    """Vectorize every cell of the graph with the given statistics.

    Each slot column is normalized in one ``SlotStats.normalize`` call; its
    other-technology rows and the rows of cells without configs are then 0.
    """

    def role_matrix(role: str) -> np.ndarray:
        raw = getattr(graph, role)
        out = np.zeros(raw.shape)
        for col, (spec, slot) in enumerate(zip(graph.schema.layout(role), stats.slots(role))):
            own = (graph.technology == TECHNOLOGIES.index(spec.technology)) & ~np.isnan(raw[:, col])
            out[:, col] = np.where(own, slot.normalize(raw[:, col]), 0.0)
        out.flags.writeable = False
        return out

    return FeatureMatrix(x=role_matrix("predictor"), y=role_matrix("config"))


def extend_network(
    graph: RanGraph,
    new_cells: Iterable[CellRecord],
    new_edges: Iterable[tuple[str, str, str]] = (),
) -> RanGraph:
    """A new graph with extra cells and edges; the original is untouched. It equals
    ``RanGraph`` over old and new together, errors included, but checks only what is new."""
    extended = copy.copy(graph)
    extended._add(new_cells, new_edges)
    return extended


def parse_cells_payload(
    data: dict, source: str = "<memory>"
) -> tuple[list[CellRecord], list[tuple[str, str, str]]]:
    """Parse a standalone ``{"cells": [...], "edges": [...]}`` payload.

    Used for cells joining an existing network; configs may be omitted.
    """
    if not isinstance(data, dict):
        raise NetworkFormatError(f"{source}: expected a JSON object")
    if "cells" not in data:
        raise NetworkFormatError(f"{source}: missing top-level key 'cells'")
    cells = _parse_cells(data["cells"], source, configs_required=False)
    return cells, _parse_edges(data.get("edges", []), source)
