"""Deterministic synthetic radio-network generator.

Sites are placed on a plane and assigned a context archetype (dense urban /
suburban / rural style clusters). Each site hosts a fixed cell pattern over
both technologies. Predictors are drawn from the archetype (bandwidth
class, channel band, plus an uninformative azimuth); clean configurations
are a fixed function of the archetype and the in-band channel offset, so
nearest-neighbor retrieval in context space is learnable by construction.
Observed configurations add bounded gaussian noise; a chosen fraction of
cells additionally receives large offsets on two of their config
attributes and is flagged as misconfigured in the ground truth.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cache
from typing import Mapping

import numpy as np

from .graph import AttributeSchema, AttributeSpec, CellRecord, RanGraph, require, settings_from
from .rng import substream

CORNER_HIGH = 0.82
CORNER_LOW = 0.08
BANDWIDTH_JITTER = 0.25  # chance a cell deviates from its cluster's bandwidth class
_NEAREST_BLOCK = 1 << 17  # distances per block of _nearest_sites


@dataclass(frozen=True)
class _ConfigDesign:
    name: str
    kind: str
    aggregation: str
    low: float
    high: float
    grid: int | None = None  # discrete step count over [low, high]

    def to_raw(self, v: float) -> float:
        return self.low + v * (self.high - self.low)

    def snap(self, v: float) -> float:
        if self.grid is None:
            return v
        return round(v * self.grid) / self.grid


_TECH_DESIGN: dict[str, dict] = {
    "LTE": {
        "bandwidth": ("lteBandwidthMhz", (5.0, 10.0, 15.0, 20.0)),
        "channel": ("lteChannelNumber", 500.0, 1000.0, 120.0),
        "azimuth": "lteAntennaAzimuth",
        "configs": (
            _ConfigDesign("ltePowerTarget", "continuous", "median", -120.0, -80.0),
            _ConfigDesign("ltePreamblePower", "discrete", "mode", -130.0, -90.0, grid=20),
            _ConfigDesign("lteHandoverMargin", "continuous", "mean", 0.0, 10.0),
        ),
    },
    "NR": {
        "bandwidth": ("nrBandwidthMhz", (20.0, 50.0, 80.0, 100.0)),
        "channel": ("nrChannelNumber", 150000.0, 100000.0, 12000.0),
        "azimuth": "nrAntennaAzimuth",
        "configs": (
            _ConfigDesign("nrPowerTarget", "continuous", "median", -110.0, -70.0),
            _ConfigDesign("nrPreamblePower", "discrete", "mode", -120.0, -80.0, grid=20),
            _ConfigDesign("nrHandoverMargin", "continuous", "mean", 0.0, 15.0),
        ),
    },
}


def default_schema() -> AttributeSchema:
    entries: list[AttributeSpec] = []
    for tech, design in _TECH_DESIGN.items():
        bw_name, _ = design["bandwidth"]
        ch_name = design["channel"][0]
        entries.append(AttributeSpec(bw_name, tech, "predictor", "discrete"))
        entries.append(AttributeSpec(ch_name, tech, "predictor", "continuous"))
        entries.append(AttributeSpec(design["azimuth"], tech, "predictor", "continuous"))
        for cfg in design["configs"]:
            entries.append(AttributeSpec(cfg.name, tech, "config", cfg.kind, cfg.aggregation))
    return AttributeSchema(entries=tuple(entries))


@dataclass(frozen=True)
class SynthSpec:
    sites: int = 50
    cells_per_site: int = 6
    lte_ratio: int = 2
    nr_ratio: int = 1
    context_clusters: int = 3
    config_noise: float = 0.02
    misconfig_rate: float = 0.05
    misconfig_magnitude: float = 5.0
    inter_site_degree: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for key in ("sites", "cells_per_site", "context_clusters"):
            require(getattr(self, key) >= 1, key, f"must be >= 1, got {getattr(self, key)}")
        for key in ("lte_ratio", "nr_ratio", "inter_site_degree", "config_noise"):
            require(getattr(self, key) >= 0, key, f"must be >= 0, got {getattr(self, key)}")
        require(self.lte_ratio + self.nr_ratio > 0, "nr_ratio", "lte_ratio + nr_ratio must be positive")
        rate = self.misconfig_rate
        require(0.0 <= rate <= 1.0, "misconfig_rate", f"must be in [0, 1], got {rate}")
        degree, sites = self.inter_site_degree, self.sites
        require(sites == 1 or degree < sites, "inter_site_degree", f"{degree} is infeasible for {sites} sites")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict, source: str = "<spec>") -> "SynthSpec":
        return settings_from(cls, data, source)


@dataclass(frozen=True)
class CellTruth:
    cluster: int
    clean_configs: Mapping[str, float]  # raw units, before noise and corruption
    corrupted: bool


@dataclass(frozen=True)
class GroundTruth:
    cells: dict[str, CellTruth]

    @property
    def corrupted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(cid for cid, t in self.cells.items() if t.corrupted))

    def to_json(self) -> dict:
        return {
            cid: {
                "cluster": t.cluster,
                "corrupted": t.corrupted,
                "clean_configs": dict(sorted(t.clean_configs.items())),
            }
            for cid, t in sorted(self.cells.items())
        }

    @classmethod
    def from_json(cls, data: dict) -> "GroundTruth":
        return cls(
            cells={
                cid: CellTruth(
                    cluster=int(item["cluster"]),
                    clean_configs={k: float(v) for k, v in item["clean_configs"].items()},
                    corrupted=bool(item["corrupted"]),
                )
                for cid, item in data.items()
            }
        )


# ---------------------------------------------------------------------------
# Generation internals


def _tech_pattern(spec: SynthSpec) -> list[str]:
    unit = ["LTE"] * spec.lte_ratio + ["NR"] * spec.nr_ratio
    return [unit[i % len(unit)] for i in range(spec.cells_per_site)]


def _site_positions(spec: SynthSpec) -> np.ndarray:
    rng = substream(spec.seed, "sites")
    return rng.uniform(0.0, 100.0, size=(spec.sites, 2))


def _site_clusters(spec: SynthSpec) -> np.ndarray:
    rng = substream(spec.seed, "clusters")
    return rng.integers(0, spec.context_clusters, size=spec.sites)


@cache
def _clean_configs(tech: str, cluster: int) -> tuple[tuple[_ConfigDesign, float, float], ...]:
    """Each config of `tech` with its clean normalized and raw value in `cluster`.

    Normalized values are one archetype corner per cluster, so the cluster-mean
    predictor is exact on noise-free data; corners are near-orthogonal across clusters."""
    designs = _TECH_DESIGN[tech]["configs"]
    profile = [CORNER_LOW] * len(designs)
    profile[cluster % len(designs)] = CORNER_HIGH
    return tuple((cfg, v, cfg.to_raw(cfg.snap(v))) for cfg, v in zip(designs, profile))


def _make_cell(
    cell_id: str,
    node_id: str,
    tech: str,
    cluster: int,
    rng: np.random.Generator,
    config_noise: float,
    with_configs: bool = True,
) -> tuple[CellRecord, dict[str, float]]:
    """Draw one cell's predictors and configs; returns (record, clean raw configs)."""
    design = _TECH_DESIGN[tech]
    bw_name, bw_values = design["bandwidth"]
    ch_name, ch_base, ch_step, ch_jitter = design["channel"]

    if rng.random() < BANDWIDTH_JITTER:
        bandwidth = bw_values[rng.integers(len(bw_values))]
    else:
        bandwidth = bw_values[(len(bw_values) - 1 - cluster) % len(bw_values)]
    channel = ch_base + ch_step * cluster + ch_jitter * rng.uniform(-1.0, 1.0)
    azimuth = rng.uniform(0.0, 360.0)
    predictors = {bw_name: float(bandwidth), ch_name: float(channel), design["azimuth"]: float(azimuth)}

    clean = _clean_configs(tech, cluster)
    observed: dict[str, float] = {}
    if with_configs:
        noise = rng.normal(0.0, config_noise, size=len(clean)).tolist() if config_noise > 0 else [0.0] * len(clean)
        for (cfg, v, _), eps in zip(clean, noise):
            observed[cfg.name] = cfg.to_raw(cfg.snap(min(max(v + eps, 0.0), 1.0)))
    record = CellRecord(cell_id, node_id, tech, raw_predictors=predictors, raw_configs=observed)
    return record, {cfg.name: raw for cfg, _, raw in clean}


def _nearest_sites(positions: np.ndarray, queries: np.ndarray, count: int, skip_self: bool = False) -> np.ndarray:
    """Row i: the `count` sites nearest to `queries[i]`, in (distance, index) order.

    With `skip_self`, query i is site i and is left out of its own row. Rows
    are sorted in blocks of at most `_NEAREST_BLOCK` distances.
    """
    width = min(count + skip_self, len(positions))
    step = max(1, _NEAREST_BLOCK // len(positions))
    head = np.empty((len(queries), width), dtype=np.intp)
    for start in range(0, len(queries), step):
        dists = np.linalg.norm(positions - queries[start : start + step, None], axis=-1)
        head[start : start + step] = np.argsort(dists, axis=1, kind="stable")[:, :width]
    if not skip_self:
        return head
    keep = head != np.arange(len(head))[:, None]
    keep[keep.all(axis=1), -1] = False  # self ranked past the head: drop the last instead
    return head[keep].reshape(len(head), width - 1)


def generate(spec: SynthSpec) -> tuple[RanGraph, GroundTruth]:
    """Build the synthetic network and its generation-time ground truth.

    Fully deterministic per spec: sites use independent substreams, and
    corruption applies large positive raw offsets to two config attributes
    of each selected cell.
    """
    pattern = _tech_pattern(spec)
    positions = _site_positions(spec)
    clusters = _site_clusters(spec)

    records: list[CellRecord] = []
    truth: dict[str, CellTruth] = {}
    for s, cluster in enumerate(clusters.tolist()):
        rng = substream(spec.seed, "site", s)
        node_id = f"N{s:03d}"
        for c, tech in enumerate(pattern):
            record, clean = _make_cell(f"S{s:03d}C{c}", node_id, tech, cluster, rng, spec.config_noise)
            records.append(record)
            truth[record.cell_id] = CellTruth(cluster=cluster, clean_configs=clean, corrupted=False)

    # Misconfiguration injection: exact count, two attributes per cell, each from its own substream.
    n_corrupt = int(round(spec.misconfig_rate * len(records)))
    picks = substream(spec.seed, "corrupt").choice(len(records), size=n_corrupt, replace=False) if n_corrupt else ()
    for i in picks:
        cid = records[i].cell_id
        records[i] = _apply_corruption(records[i], spec.misconfig_magnitude, substream(spec.seed, "corrupt", cid))
        truth[cid] = replace(truth[cid], corrupted=True)

    graph = RanGraph(schema=default_schema(), cells=records, edges=_inter_site_edges(spec, positions, pattern))
    return graph, GroundTruth(cells=truth)


def _apply_corruption(
    record: CellRecord, magnitude: float, rng: np.random.Generator
) -> CellRecord:
    designs = _TECH_DESIGN[record.technology]["configs"]
    picks = rng.choice(len(designs), size=min(2, len(designs)), replace=False)
    configs = dict(record.raw_configs)
    for i in sorted(int(p) for p in picks):
        cfg = designs[i]
        configs[cfg.name] = configs[cfg.name] + magnitude * (cfg.high - cfg.low)
    return replace(record, raw_configs=configs)


def _inter_site_edges(
    spec: SynthSpec, positions: np.ndarray, pattern: list[str]
) -> list[tuple[str, str, str]]:
    if spec.sites == 1 or spec.inter_site_degree == 0:
        return []
    nearest = _nearest_sites(positions, positions, spec.inter_site_degree, skip_self=True)
    ids = [[f"S{s:03d}C{c}" for c in range(spec.cells_per_site)] for s in range(spec.sites)]
    edges = {
        (min(a, b), max(a, b))
        for s, row in enumerate(nearest.tolist()) for o in row for a, b in zip(ids[s], ids[o])
    }
    return [(a, b, "inter_node") for a, b in sorted(edges)]


# ---------------------------------------------------------------------------
# New-cell synthesis: cells and sites joining an existing synthetic network


def synthesize_expansion(
    graph: RanGraph, truth: GroundTruth, spec: SynthSpec, count: int, seed: int
) -> tuple[list[CellRecord], list[tuple[str, str, str]], dict[str, CellTruth]]:
    """New cells on existing radio nodes (no explicit new edges needed:
    intra-node edges materialize automatically)."""
    clusters = _site_clusters(spec)
    rng = substream(seed, "expansion")
    new_cells: list[CellRecord] = []
    new_truth: dict[str, CellTruth] = {}
    pattern = _tech_pattern(spec)
    for i in range(count):
        s = int(rng.integers(spec.sites))
        tech = pattern[int(rng.integers(len(pattern)))]
        cell_id = f"EXP{i:03d}"
        record, clean_raw = _make_cell(
            cell_id, f"N{s:03d}", tech, int(clusters[s]), rng, spec.config_noise,
            with_configs=False,
        )
        new_cells.append(record)
        new_truth[cell_id] = CellTruth(
            cluster=int(clusters[s]), clean_configs=clean_raw, corrupted=False
        )
    return new_cells, [], new_truth


def synthesize_greenfield(
    graph: RanGraph,
    truth: GroundTruth,
    spec: SynthSpec,
    new_sites: int,
    seed: int,
) -> tuple[list[CellRecord], list[tuple[str, str, str]], dict[str, CellTruth]]:
    """Whole new radio nodes, attached to the network by inter-node edges only."""
    positions = _site_positions(spec)
    rng = substream(seed, "greenfield")
    pattern = _tech_pattern(spec)
    new_cells: list[CellRecord] = []
    new_truth: dict[str, CellTruth] = {}
    edges: list[tuple[str, str, str]] = []
    degree = min(spec.inter_site_degree, spec.sites)
    for i in range(new_sites):
        position = rng.uniform(0.0, 100.0, size=2)
        cluster = int(rng.integers(spec.context_clusters))
        node_id = f"GN{i:03d}"
        order = _nearest_sites(positions, position[None], degree)[0].tolist()
        for c, tech in enumerate(pattern):
            cell_id = f"GF{i:03d}C{c}"
            record, clean_raw = _make_cell(
                cell_id, node_id, tech, cluster, rng, spec.config_noise, with_configs=False
            )
            new_cells.append(record)
            new_truth[cell_id] = CellTruth(
                cluster=cluster, clean_configs=clean_raw, corrupted=False
            )
            for s in order:
                edges.append((cell_id, f"S{s:03d}C{c}", "inter_node"))
    return new_cells, edges, new_truth

