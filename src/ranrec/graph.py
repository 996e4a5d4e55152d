"""Radio-network graph model with feature preprocessing.

Cells are vertices of an undirected graph; edges join cells on the same
radio node (``intra_node``, materialized automatically) or across nodes
(``inter_node``, listed explicitly). Each cell carries a predictor vector
``x`` and a configuration vector ``y``, laid out as the LTE attribute block
followed by the NR block. Values are min-max normalized into [0, 1] from
statistics fitted on training cells; slots of the other technology are 0.
``feature_map`` stacks them into one matrix per role, one row per cell.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from collections import defaultdict
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
    """Immutable undirected cell graph.

    Cells sharing a ``node_id`` are always pairwise connected with kind
    ``intra_node`` (added automatically); ``inter_node`` edges come from the
    input. Self loops are rejected. ``row_of`` maps each cell id to its
    index in ``cells``.
    """

    def __init__(
        self,
        schema: AttributeSchema,
        cells: Iterable[CellRecord] = (),
        edges: Iterable[tuple[str, str, str]] = (),
    ) -> None:
        self.schema = schema
        # Attribute names each (technology, role) must carry, worked out once.
        self._expected = {
            (tech, role): {e.name for e in schema.layout(role) if e.technology == tech}
            for tech in TECHNOLOGIES
            for role in ROLES
        }
        self.cells: tuple[CellRecord, ...] = ()
        self.row_of: dict[str, int] = {}
        self._edge_kinds: dict[tuple[str, str], str] = {}  # (smaller id, larger id) -> kind
        self._adjacency: dict[str, tuple[str, ...]] = {}  # cell id -> sorted neighbour ids
        self._by_node: dict[str, tuple[str, ...]] = {}  # node id -> its cell ids, in cell order
        self._add(cells, edges)

    def _add(self, cells: Iterable[CellRecord], edges: Iterable[tuple[str, str, str]]) -> None:
        """Join cells, then edges, then the intra-node pairs the cells complete.
        Only these are validated, in the order a build from scratch checks them."""
        new = tuple(cells)
        row_of = self.row_of
        for cell in new:
            if cell.cell_id in row_of:
                raise NetworkFormatError(f"duplicate cell_id {cell.cell_id!r}")
            _validate_attributes(cell, self._expected)
            row_of[cell.cell_id] = len(row_of)
        self.cells += new
        cells, kinds, linked = self.cells, self._edge_kinds, defaultdict(set)
        for a, b, kind in edges:
            if a == b:
                raise NetworkFormatError(f"self-loop edge on cell {a!r}")
            if kind not in EDGE_KINDS:
                raise NetworkFormatError(f"unknown edge kind {kind!r}")
            for cid in (a, b):
                if cid not in row_of:
                    raise NetworkFormatError(f"edge references unknown cell {cid!r}")
            # Intra-node completeness: same radio node implies a clique.
            same_node = cells[row_of[a]].node_id == cells[row_of[b]].node_id
            kinds[(a, b) if a < b else (b, a)] = "intra_node" if same_node else kind
            linked[a].add(b)
            linked[b].add(a)
        for cell in new:
            cid, members = cell.cell_id, self._by_node.get(cell.node_id, ())
            for other in members:
                pair = (cid, other) if cid < other else (other, cid)
                if pair not in kinds:  # not listed as an edge
                    kinds[pair] = "intra_node"
                    linked[cid].add(other)
                    linked[other].add(cid)
            self._by_node[cell.node_id] = (*members, cid)
            self._adjacency[cid] = ()
        for cid, nbrs in linked.items():
            self._adjacency[cid] = tuple(sorted(nbrs.union(self._adjacency[cid])))
        self._edges: tuple[tuple[str, str, str], ...] | None = None

    # -- queries ---------------------------------------------------------------

    def cell(self, cell_id: str) -> CellRecord:
        try:
            return self.cells[self.row_of[cell_id]]
        except KeyError:
            raise KeyError(f"unknown cell id {cell_id!r}") from None

    def neighbors(self, cell_id: str) -> tuple[str, ...]:
        if cell_id not in self._adjacency:
            raise KeyError(f"unknown cell id {cell_id!r}")
        return self._adjacency[cell_id]

    @property
    def edges(self) -> tuple[tuple[str, str, str], ...]:
        if self._edges is None:
            self._edges = tuple(sorted((a, b, k) for (a, b), k in self._edge_kinds.items()))
        return self._edges

    @property
    def cell_ids(self) -> tuple[str, ...]:
        return tuple(c.cell_id for c in self.cells)

    def columns(self) -> dict[str, Any]:
        """The network as columns, row ``i`` for ``cells[i]``.

        ``cell_ids`` and ``node_ids`` are lists; ``technology`` indexes
        ``TECHNOLOGIES``; ``predictor`` and ``config`` hold raw values in
        layout order, 0 in other-technology slots and NaN in every own slot of
        a cell without configs; ``edges`` lists every edge, intra-node pairs
        included, as (row, row, index into ``EDGE_KINDS``) in ``edges`` order.
        """
        columns: dict[str, Any] = {
            "cell_ids": [c.cell_id for c in self.cells],
            "node_ids": [c.node_id for c in self.cells],
            "technology": np.array([TECHNOLOGIES.index(c.technology) for c in self.cells], dtype=np.intp),
        }
        for role in ROLES:
            layout = self.schema.layout(role)
            columns[role] = np.array(
                [
                    [raw.get(s.name, math.nan) if s.technology == c.technology else 0.0 for s in layout]
                    for c, raw in ((c, c.raw_values(role)) for c in self.cells)
                ],
                dtype=np.float64,
            ).reshape(len(self.cells), len(layout))
        row_of = self.row_of
        columns["edges"] = np.array(
            [(row_of[a], row_of[b], EDGE_KINDS.index(k)) for a, b, k in self.edges], dtype=np.intp
        ).reshape(-1, 3)
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
        if len(graph.row_of) < n:
            seen: set[str] = set()
            for cid in cell_ids:
                if cid in seen:
                    raise NetworkFormatError(f"cell_ids: duplicate cell_id {cid!r}")
                seen.add(cid)
        bad = np.flatnonzero((technology < 0) | (technology >= len(TECHNOLOGIES)))
        if bad.size:
            cid, code = cell_ids[bad[0]], technology[bad[0]]
            raise NetworkFormatError(f"technology: cell {cid!r}: unknown technology code {code}")
        raw: dict[str, list[dict[str, float]]] = {}
        for role in ROLES:
            layout, matrix = schema.layout(role), columns[role]
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
            raw[role] = [{} for _ in range(n)]
            for code, tech in enumerate(TECHNOLOGIES):
                slots = np.flatnonzero(slot_tech == code)
                members = np.flatnonzero((technology == code) & ~absent)
                names = [layout[i].name for i in slots]
                for row, values in zip(members.tolist(), matrix[np.ix_(members, slots)].tolist()):
                    raw[role][row] = dict(zip(names, values))
        technologies = [TECHNOLOGIES[code] for code in technology.tolist()]
        fields = zip(cell_ids, node_ids, technologies, raw["predictor"], raw["config"])
        graph.cells = tuple(CellRecord(*cell) for cell in fields)
        by_node: dict[str, list[str]] = defaultdict(list)
        for cid, node in zip(cell_ids, node_ids):
            by_node[node].append(cid)
        graph._by_node = {node: tuple(members) for node, members in by_node.items()}
        graph._link(columns["edges"])
        return graph

    def _link(self, edges: np.ndarray) -> None:
        """Fill the edge maps from ``(row, row, kind)`` triples; see ``from_columns``."""
        cell_ids, n = list(self.row_of), len(self.row_of)
        a, b, kind = edges.T
        for bad, what in (
            ((a < 0) | (a >= n) | (b < 0) | (b >= n), "references a row outside the cells"),
            (a == b, "is a self loop"),
            ((kind < 0) | (kind >= len(EDGE_KINDS)), "has an unknown kind"),
        ):
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise NetworkFormatError(f"edges: edge {i} {what}: {edges[i].tolist()}")
        # Each cell id's rank in sorted order: (smaller id, larger id) pairs and
        # sorted neighbour lists then come from integer comparisons.
        rank = np.empty(n, dtype=np.intp)
        rank[sorted(range(n), key=cell_ids.__getitem__)] = np.arange(n)
        swap = rank[a] > rank[b]
        lo, hi = np.where(swap, b, a), np.where(swap, a, b)
        pair = lo * n + hi
        order = np.argsort(pair, kind="stable")
        repeated = np.flatnonzero(np.diff(pair[order]) == 0)
        if repeated.size:
            i = int(order[repeated[0] + 1])
            ends = cell_ids[lo[i]], cell_ids[hi[i]]
            raise NetworkFormatError(f"edges: edge {i} repeats the pair {ends[0]!r}, {ends[1]!r}")
        codes: dict[str, int] = {}
        node = np.array([codes.setdefault(c.node_id, len(codes)) for c in self.cells], dtype=np.intp)
        same = node[a] == node[b]
        bad = np.flatnonzero(same & (kind != EDGE_KINDS.index("intra_node")))
        if bad.size:
            raise NetworkFormatError(f"edges: edge {bad[0]} joins two cells of one node as inter_node")
        sizes = np.bincount(node, minlength=len(codes))
        if same.sum() < (sizes * (sizes - 1) // 2).sum():
            linked = set(pair[same].tolist())
            for members in self._by_node.values():
                for i, x in enumerate(members):
                    for y in members[:i]:
                        ends = sorted((self.row_of[x], self.row_of[y]), key=rank.__getitem__)
                        if ends[0] * n + ends[1] not in linked:
                            raise NetworkFormatError(
                                f"edges: cells {y!r} and {x!r} share a node but no intra_node edge joins them"
                            )
        ids = [cell_ids[i] for i in lo.tolist()], [cell_ids[i] for i in hi.tolist()]
        self._edge_kinds = dict(zip(zip(*ids), (EDGE_KINDS[k] for k in kind.tolist())))
        source, target = np.concatenate([a, b]), np.concatenate([b, a])
        neighbours = [cell_ids[i] for i in target[np.lexsort((rank[target], source))].tolist()]
        ends = np.cumsum(np.bincount(source, minlength=n)).tolist()
        self._adjacency = {cid: tuple(neighbours[i:j]) for cid, i, j in zip(cell_ids, [0, *ends], ends)}

    def to_json(self) -> dict:
        return {
            "schema": self.schema.to_json(),
            "cells": [
                {
                    "cell_id": c.cell_id,
                    "node_id": c.node_id,
                    "technology": c.technology,
                    "predictors": dict(sorted(c.raw_predictors.items())),
                    "configs": dict(sorted(c.raw_configs.items())),
                }
                for c in self.cells
            ],
            "edges": [list(e) for e in self.edges],
        }


def _validate_attributes(cell: CellRecord, expected: Mapping[tuple[str, str], set[str]]) -> None:
    predictors, configs = (expected[(cell.technology, role)] for role in ROLES)
    if cell.raw_predictors.keys() == predictors and cell.raw_configs.keys() in (configs, set()):
        return  # the common case; the checks below name what is wrong
    for role in ROLES:
        names = expected[(cell.technology, role)]
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
    train_cells = [graph.cell(cid) for cid in ids]

    def fit_role(role: str) -> tuple[SlotStats, ...]:
        slots = []
        for spec in graph.schema.layout(role):
            values = [
                cell.raw_values(role)[spec.name]
                for cell in train_cells
                if cell.technology == spec.technology
            ]
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
    [0, 1], row ``i`` for ``RanGraph.cells[i]``; both are read-only."""

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

    Each slot column is normalized in one ``SlotStats.normalize`` call over
    the cells of its technology; other-technology slots and the configs of
    cells that carry none stay 0.
    """

    def role_matrix(role: str) -> np.ndarray:
        layout = graph.schema.layout(role)
        out = np.zeros((len(graph.cells), len(layout)))
        for tech in TECHNOLOGIES:
            members = [
                (row, cell.raw_values(role))
                for row, cell in enumerate(graph.cells)
                if cell.technology == tech and cell.raw_values(role)
            ]
            rows = [row for row, _ in members]
            for col, (spec, slot) in enumerate(zip(layout, stats.slots(role))):
                if spec.technology == tech and rows:
                    values = np.array([raw[spec.name] for _, raw in members], dtype=np.float64)
                    out[rows, col] = slot.normalize(values)
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
    for name in ("row_of", "_edge_kinds", "_adjacency", "_by_node"):
        setattr(extended, name, dict(getattr(graph, name)))
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
