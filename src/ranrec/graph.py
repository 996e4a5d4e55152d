"""Radio-network graph model with feature preprocessing.

Cells are vertices of an undirected graph; edges join cells on the same
radio node (``intra_node``, materialized automatically) or across nodes
(``inter_node``, listed explicitly): an edge's kind follows from its cells'
nodes. ``RanGraph`` holds one row per cell: raw predictor and configuration
columns, laid out as the LTE attribute block followed by the NR block, plus
a CSR adjacency. ``feature_map`` min-max
normalizes them into [0, 1] from statistics fitted on training cells;
slots of the other technology are 0.
"""

from __future__ import annotations

import bisect
import copy
import dataclasses
import json
import math
from dataclasses import dataclass
from itertools import chain, starmap
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

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
            fields = ("name", "technology", "role", "kind", *(("aggregation",) if "aggregation" in item else ()))
            values = [item[field] for field in fields]
            check_types(values, fields, _STRINGS, "a string")
            return AttributeSpec(*values)

        return cls(entries=tuple(_parse_entries(data, source, "schema", parse)))


@dataclass(frozen=True)
class CellRecord:
    """One cell with raw (unnormalized) attribute values of its technology, checked when a graph is built."""

    cell_id: str
    node_id: str
    technology: str
    raw_predictors: Mapping[str, float]
    raw_configs: Mapping[str, float]


# The one converter from records to the rows ``RanGraph._join`` reads.
_RECORD_ROW = attrgetter("cell_id", "node_id", "technology", "raw_predictors", "raw_configs")


class RanGraph:
    """Immutable undirected cell graph, held as columns.

    Row ``i`` is the cell ``cell_ids[i]`` on node ``node_ids[i]``;
    ``technology`` indexes ``TECHNOLOGIES``; ``predictor`` and ``config`` hold
    raw values in layout order, 0 in other-technology slots and NaN in every
    own slot of a cell without configs. Cells sharing a node are always
    pairwise connected (``intra_node``, added automatically); the listed
    edges join cells of different nodes (``inter_node``), and a listed kind
    is checked, not kept. Self loops are rejected.
    ``row_of`` maps each cell id to its row. Every build appends rows through
    one validator, ``_append``, and links them through ``_link``.
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
        # Each node id's code, the row of its first cell; each row's node code; the rows in
        # cell-id order and each row's rank in it, so pairs and neighbours compare integers.
        self._node_code: dict[str, int] = {}
        self._node = self._by_id = self._rank = self.technology
        # CSR adjacency: row i's neighbour rows, in cell-id order, are indices[indptr[i]:indptr[i + 1]].
        self.indptr = _frozen(np.zeros(1, dtype=np.intp))
        self.indices = _frozen(np.zeros(0, dtype=np.intp))
        self._join(list(map(_RECORD_ROW, cells)), edges, "")

    def _join(self, rows: list[tuple], edges: Iterable[tuple[str, str, str]], where: str) -> None:
        """Append (cell_id, node_id, technology, predictors, configs) rows, then
        link them and the listed edges. Attribute names are checked once per
        distinct (technology, names). An error about a row starts with ``where``
        formatted with its ``column`` and ``row``; the lowest bad row is named."""
        ids, nodes, techs, predictors, configs = tuple(zip(*rows)) or ((),) * 5
        start = len(self.cell_ids)
        groups: dict[tuple, list[int]] = {}
        for row, key in enumerate(zip(techs, map(tuple, predictors), map(tuple, configs))):
            groups.setdefault(key, []).append(row)
        technology, bare = np.zeros(len(ids), dtype=np.intp), np.zeros(len(ids), dtype=bool)
        matrices = [np.zeros((len(ids), getattr(self, role).shape[1])) for role in ROLES]
        for (tech, *names), members in groups.items():
            code = TECHNOLOGIES.index(tech) if tech in TECHNOLOGIES else None
            fault = f"unknown technology {tech!r}" if code is None else _name_fault(names, self._own, code)
            if fault:  # the rows before this one are filled: a fault among them comes first
                row = members[0]
                self._append(ids[:row], nodes[:row], technology[:row], *(m[:row] for m in matrices), bare[:row], where)
                raise NetworkFormatError(where.format(column="cells", row=start + row) + f"cell {ids[row]!r}: {fault}")
            technology[members] = code
            for role, got, values, matrix in zip(ROLES, names, (predictors, configs), matrices):
                own = self._own[role][code]
                if role == "config" and not got:  # a cell awaiting a recommendation
                    bare[members] = True
                    matrix[np.ix_(members, list(own.values()))] = math.nan
                    continue
                flat = chain.from_iterable(values[row].values() for row in members)
                block = np.fromiter(flat, dtype=np.float64, count=len(members) * len(got))
                matrix[np.ix_(members, [own[name] for name in got])] = block.reshape(len(members), len(got))
        self._append(ids, nodes, technology, *matrices, bare, where)
        self._link(start, _edge_pairs(edges, self.row_of))

    def _append(self, ids: Sequence[str], nodes: Sequence[str], technology: np.ndarray, predictor: np.ndarray,
                config: np.ndarray, bare: np.ndarray | None, where: str) -> None:
        """Append rows after checking them for duplicate ids, technology codes,
        non-finite own values and nonzero other-technology values; the lowest bad
        row is named, for the first of these it breaks. NaN in every own config
        slot marks a cell without configs in the rows ``bare`` flags (None: every such row)."""
        start = len(self.cell_ids)
        n = start + len(ids)
        row_of = self.row_of | dict(zip(ids, range(start, n)))
        faults = []  # (row, column, message) of each check's first bad row
        if len(row_of) < n:  # the first id met a second time
            seen = set(self.row_of)
            row, cid = next((row, cid) for row, cid in enumerate(ids, start) if cid in seen or seen.add(cid))
            faults.append((row, "cell_ids", f"duplicate cell_id {cid!r}"))
        bad = np.flatnonzero((technology < 0) | (technology >= len(TECHNOLOGIES)))
        if bad.size:
            row = bad[0]
            faults.append((start + row, "technology", f"cell {ids[row]!r}: unknown technology code {technology[row]}"))
        for role, matrix in (("predictor", predictor), ("config", config)):
            layout = self.schema.layout(role)
            own = np.array([TECHNOLOGIES.index(s.technology) for s in layout], dtype=np.intp) == technology[:, None]
            if role == "config" and bare is None:
                bare = (own == np.isnan(matrix)).all(axis=1) & own.any(axis=1)
            absent = role == "config" and bare[:, None]  # NaN in the own config slots of a cell without configs
            wrong = np.where(own, ~(np.isfinite(matrix) | absent), matrix != 0)
            if wrong.any():
                row, col = np.argwhere(wrong)[0]
                name, value = layout[col].name, matrix[row, col]
                why = f"{role} {name!r} is {value}, not a finite number"
                why = why if own[row, col] else f"unknown or wrong-technology {role} attributes [{name!r}]"
                faults.append((start + row, role, f"cell {ids[row]!r}: {why}"))
        if faults:
            row, column, message = min(faults, key=lambda fault: fault[0])
            raise NetworkFormatError(where.format(column=column, row=row) + message)
        self.row_of = row_of
        self.cell_ids += tuple(ids)
        self.node_ids += tuple(nodes)
        for name, column in (("technology", technology), ("predictor", predictor), ("config", config)):
            setattr(self, name, _frozen(np.concatenate([getattr(self, name), column])))
        self._node_code = dict(zip(reversed(nodes), range(n - 1, start - 1, -1))) | self._node_code
        codes = np.fromiter(map(self._node_code.__getitem__, nodes), dtype=np.intp, count=len(nodes))
        self._node = _frozen(np.concatenate([self._node, codes]))
        # The new rows in id order, each inserted at its place among the old rows.
        cell_id = self.cell_ids.__getitem__
        order = sorted(range(start, n), key=cell_id)
        at = [bisect.bisect_left(self._by_id, cell_id(row), key=cell_id) for row in order] if start else 0
        by_id = np.insert(self._by_id, at, order)
        self._by_id, self._rank = _frozen(by_id), _frozen(np.argsort(by_id))

    def _link(self, start: int, pairs: np.ndarray) -> None:
        """Merge the listed ``(row, row)`` pairs between cells of different
        nodes, and the intra-node pairs rows ``start`` onwards complete, into
        the CSR arrays: each direction of a pair not yet held is inserted
        once, so only the rows the new pairs join gain entries."""
        n, node, rank = len(self.cell_ids), self._node, self._rank
        clique = _clique_pairs(node)
        a, b = np.concatenate([pairs[node[pairs[:, 0]] != node[pairs[:, 1]]], clique[clique[:, 1] >= start]]).T
        # Entries as sorted (source row, neighbour id rank) keys: the new ones, and those held.
        keys = np.sort(np.concatenate([a * n + rank[b], b * n + rank[a]]))
        rows = np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))
        held = rows * n + rank[self.indices]
        at = np.searchsorted(held, keys)
        new = (np.diff(keys, prepend=-1) != 0) & (np.append(held, -1)[at] != keys)
        self.indices = _frozen(np.insert(self.indices, at[new], self._by_id[keys[new] % n]))
        self.indptr = _frozen(np.append(0, np.cumsum(np.bincount(np.append(rows, keys[new] // n), minlength=n))))

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
        """Every edge, intra-node pairs included, as (id, id, kind) triples: the
        smaller id first, sorted by id pair. The kind is ``intra_node`` exactly
        when both cells are on one node."""
        by_id, rank, node, n = self._by_id, self._rank, self._node, len(self.cell_ids)
        src, dst = rank[np.repeat(np.arange(n), np.diff(self.indptr))], rank[self.indices]
        keys = np.sort((src * n + dst)[src < dst])
        lo, hi = by_id[keys // n], by_id[keys % n]
        ids, kinds = self.cell_ids.__getitem__, EDGE_KINDS.__getitem__  # kind 1, inter_node, when the nodes differ
        return tuple(zip(map(ids, lo.tolist()), map(ids, hi.tolist()), map(kinds, (node[lo] != node[hi]).tolist())))

    def columns(self) -> dict[str, Any]:
        """Writable copies of the columns, edges included as ``edges``: every
        inter-node pair once as (row, row), the smaller row first, by row. The
        intra-node pairs follow from ``node_ids``."""
        columns: dict[str, Any] = {"cell_ids": list(self.cell_ids), "node_ids": list(self.node_ids)}
        for name in ("technology", *ROLES):
            columns[name] = getattr(self, name).copy()
        rows, node = np.repeat(np.arange(len(self.cell_ids)), np.diff(self.indptr)), self._node
        inter = (rows < self.indices) & (node[rows] != node[self.indices])
        columns["edges"] = np.stack([rows[inter], self.indices[inter]], axis=1)
        return columns

    @classmethod
    def from_columns(cls, schema: AttributeSchema, columns: Mapping[str, Any]) -> "RanGraph":
        """The graph ``columns()`` describes, checked one column at a time.

        It rejects whatever ``RanGraph(schema, cells, edges)`` would reject for
        the same network, and what ``columns()`` never writes: a repeated
        pair, or a pair of cells on one node. Errors name the column and its
        first bad entry.
        """
        cell_ids, node_ids, technology = columns["cell_ids"], columns["node_ids"], columns["technology"]
        for name, ids in (("cell_ids", cell_ids), ("node_ids", node_ids)):
            if not isinstance(ids, list) or not all(type(i) is str for i in ids):
                raise NetworkFormatError(f"{name}: expected a list of strings")
        n = len(cell_ids)
        if len(node_ids) != n:
            raise NetworkFormatError(f"node_ids: {len(node_ids)} entries for {n} cells")
        graph = cls(schema)
        matrices = (np.array(columns[role], dtype=np.float64) for role in ROLES)
        graph._append(cell_ids, node_ids, np.array(technology, dtype=np.intp), *matrices, None, "{column}: ")
        edges = columns["edges"]
        a, b = edges.T

        def reject(bad: np.ndarray, what: str) -> None:
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise NetworkFormatError(f"edges: edge {i} {what}: {edges[i].tolist()}")

        reject((a < 0) | (a >= n) | (b < 0) | (b >= n), "references a row outside the cells")
        reject(a == b, "is a self loop")
        node = graph._node
        reject(node[a] == node[b], "joins two cells of one node")
        pair = np.minimum(a, b) * n + np.maximum(a, b)
        order = np.argsort(pair, kind="stable")
        reject(np.isin(np.arange(len(pair)), order[1:][np.diff(pair[order]) == 0]), "repeats an earlier pair")
        graph._link(0, edges)
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


def _name_fault(names: list[tuple[str, ...]], own: Mapping[str, list[dict[str, int]]], code: int) -> str | None:
    """What is wrong with a cell's predictor and config names, given its technology ``code``."""
    for role, got in zip(ROLES, map(set, names)):
        expected = own[role][code].keys()
        if got - expected:
            return f"unknown or wrong-technology {role} attributes {sorted(got - expected)}"
        if expected - got and (got or role == "predictor"):  # a cell awaiting a recommendation omits configs
            return f"missing {role} attributes {sorted(expected - got)}"
    return None


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _clique_pairs(node: np.ndarray) -> np.ndarray:
    """Every pair of rows on one node as (earlier row, later row): by node
    code, then by the later row, then by the earlier one."""
    order = np.argsort(node, kind="stable")
    sizes = np.bincount(node)
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)  # where each row's node begins in ``order``
    before = np.arange(len(order)) - start  # rows before it on its node
    later = np.repeat(order, before)
    offset = np.arange(before.sum()) - np.repeat(np.cumsum(before) - before, before)  # 0, 1, .. per row
    earlier = order[np.repeat(start, before) + offset]
    return np.stack([earlier, later], axis=1)


def _read_json(path: str | Path) -> Any:
    """The JSON value of the file at ``path``; invalid JSON names the file, line and column."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise NetworkFormatError(f"{path}: cannot read: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None


def load_network(path: str | Path) -> RanGraph:
    """Parse a network JSON file into a validated ``RanGraph``."""
    return network_from_json(_read_json(path), source=str(path))


def network_from_json(data: dict, source: str = "<memory>") -> RanGraph:
    if not isinstance(data, dict):
        raise NetworkFormatError(f"{source}: expected a JSON object")
    for key in ("schema", "cells", "edges"):
        if key not in data:
            raise NetworkFormatError(f"{source}: missing top-level key {key!r}")
    schema = AttributeSchema.from_json(data["schema"], source)
    rows = _parse_cells(data["cells"], source, configs_required=True)
    edges = _parse_edges(data["edges"], source)
    graph = RanGraph(schema)
    try:
        graph._join(rows, edges, "cell entry {row}: ")
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{source}: {exc}") from None
    return graph


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


# JSON numbers (no bool, no numeric string), JSON floats, and strings.
_NUMBERS, _FLOATS, _STRINGS = frozenset((int, float)), frozenset((float,)), frozenset((str,))


def check_types(values: Iterable, names: Iterable[str], types: frozenset = _NUMBERS, want: str = "a number") -> None:
    """A TypeError naming the first of ``values`` whose type is not in ``types``:
    ``true`` is not 1.0, and an id is never coerced, so ``{}`` is not the node ``'{}'``."""
    if not types.issuperset(map(type, values)):
        name, value = next((n, v) for n, v in zip(names, values) if type(v) not in types)
        raise TypeError(f"{name}: expected {want}, got {type(value).__name__} {value!r}")


def _parse_cells(items: list[dict], source: str, configs_required: bool) -> list[tuple]:
    """Each cell entry as a (cell_id, node_id, technology, predictors, configs)
    row for ``RanGraph._join``: ids must be strings, attribute values numbers."""

    def parse(item: dict) -> tuple:
        configs = item["configs"] if configs_required else item.get("configs", {})
        texts = item["cell_id"], item["node_id"], item["technology"]
        check_types(texts, ("cell_id", "node_id", "technology"), _STRINGS, "a string")
        values = [item["predictors"], configs]
        for role, named in zip(("predictors", "configs"), values):
            check_types(named.values(), (f"{role}.{name}" for name in named))
        return (*texts, *({name: float(v) for name, v in named.items()} for named in values))

    try:  # in bulk when every id is a string and every value a float; else entry by entry
        get = (lambda c: c["configs"]) if configs_required else (lambda c: c.get("configs", {}))
        rows = [(c["cell_id"], c["node_id"], c["technology"], c["predictors"], get(c)) for c in items]
        *texts, predictors, configs = zip(*rows)
        values = chain.from_iterable(map(dict.values, chain(predictors, configs)))
        if _STRINGS.issuperset(map(type, chain(*texts))) and _FLOATS.issuperset(map(type, values)):
            return rows
    except (KeyError, TypeError, AttributeError, ValueError):
        pass
    return _parse_entries(items, source, "cell", parse)


def _parse_edges(items: list, source: str) -> list[list[str]]:
    """The edge entries, each checked to be ``[cell_id, cell_id, kind]`` strings."""
    if type(items) is list and {list}.issuperset(map(type, items)) and {3}.issuperset(map(len, items)):
        if _STRINGS.issuperset(map(type, chain.from_iterable(items))):
            return items  # in bulk; else entry by entry, naming the first bad one

    def parse(item: list) -> list[str]:
        if type(item) is not list or len(item) != 3:
            raise NetworkFormatError("expected [cell_id, cell_id, kind]")
        check_types(item, ("endpoint 0", "endpoint 1", "kind"), _STRINGS, "a string")
        return item

    return _parse_entries(items, source, "edge", parse)


def _edge_pairs(edges: Iterable[tuple[str, str, str]], row_of: Mapping[str, int]) -> np.ndarray:
    """The listed (cell_id, cell_id, kind) edges as ``(row, row)`` pairs. Each edge
    is checked in turn for a self loop, an unknown kind and an unknown cell."""
    pairs = []
    for a, b, kind in edges:
        if a == b:
            raise NetworkFormatError(f"self-loop edge on cell {a!r}")
        if kind not in EDGE_KINDS:
            raise NetworkFormatError(f"unknown edge kind {kind!r}")
        pair = row_of.get(a), row_of.get(b)
        if None in pair:
            raise NetworkFormatError(f"edge references unknown cell {(b if pair[0] is not None else a)!r}")
        pairs.append(pair)
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


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
        """The stats ``to_json`` wrote; a ``min``, ``max`` or ``observed`` value
        that is not a finite JSON number, or ``min > max``, names
        ``stats.<role>[i].<field>``."""

        def parse(role: str) -> tuple[SlotStats, ...]:
            slots = []
            for i, s in enumerate(data[role]):
                observed, where = s.get("observed", []), f"stats.{role}[{i}]."
                names = (where + "min", where + "max", *[where + "observed"] * len(observed))
                check_types([s["min"], s["max"], *observed], names)
                slot = SlotStats(float(s["min"]), float(s["max"]), tuple(map(float, observed)))
                for name, values in (("min", [slot.minimum]), ("max", [slot.maximum]), ("observed", slot.observed)):
                    bad = [v for v in values if not math.isfinite(v)]
                    if bad:
                        raise ValueError(f"stats.{role}[{i}].{name}: {bad[0]} is not a finite number")
                if slot.minimum > slot.maximum:
                    raise ValueError(f"stats.{role}[{i}].min: {slot.minimum} exceeds max {slot.maximum}")
                slots.append(slot)
            return tuple(slots)

        return cls(predictor=parse("predictor"), config=parse("config"))


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
    extended._join(list(map(_RECORD_ROW, new_cells)), new_edges, "")
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
    rows = _parse_cells(data["cells"], source, configs_required=False)
    return list(starmap(CellRecord, rows)), _parse_edges(data.get("edges", []), source)
