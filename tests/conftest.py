"""Shared builders: a small two-technology schema and graph helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from ranrec.autodiff import cosine
from ranrec.graph import AttributeSchema, AttributeSpec, CellRecord, RanGraph
from ranrec.sampler import SubgraphSet
from ranrec.synth import _TECH_DESIGN, GroundTruth


def small_schema() -> AttributeSchema:
    return AttributeSchema(
        entries=(
            AttributeSpec("bw", "LTE", "predictor", "discrete"),
            AttributeSpec("chan", "LTE", "predictor", "continuous"),
            AttributeSpec("power", "LTE", "config", "continuous", "median"),
            AttributeSpec("preamble", "LTE", "config", "discrete", "mode"),
            AttributeSpec("bw", "NR", "predictor", "discrete"),
            AttributeSpec("chan", "NR", "predictor", "continuous"),
            AttributeSpec("power", "NR", "config", "continuous", "median"),
            AttributeSpec("preamble", "NR", "config", "discrete", "mode"),
        )
    )


def lte_cell(
    cell_id: str,
    node_id: str = "n1",
    bw: float = 10.0,
    chan: float = 100.0,
    power: float = -100.0,
    preamble: float = -120.0,
) -> CellRecord:
    return CellRecord(
        cell_id=cell_id,
        node_id=node_id,
        technology="LTE",
        raw_predictors={"bw": bw, "chan": chan},
        raw_configs={"power": power, "preamble": preamble},
    )


def nr_cell(
    cell_id: str,
    node_id: str = "n2",
    bw: float = 50.0,
    chan: float = 5000.0,
    power: float = -90.0,
    preamble: float = -110.0,
) -> CellRecord:
    return CellRecord(
        cell_id=cell_id,
        node_id=node_id,
        technology="NR",
        raw_predictors={"bw": bw, "chan": chan},
        raw_configs={"power": power, "preamble": preamble},
    )


def hand_subgraph(ids, edges, features, target=()) -> SubgraphSet:
    """A set of one subgraph built by hand: vertices named ``ids`` (centre
    first), local edge pairs ``(i, j)`` with ``i < j``, one feature row per
    vertex and the centre's ``target``."""
    edges = np.array(edges, dtype=np.intp).reshape(-1, 2)
    return SubgraphSet(
        rows=np.arange(len(ids)),
        vptr=np.array([0, len(ids)]),
        edges=edges,
        eptr=np.array([0, edges.shape[0]]),
        features=np.asarray(features, dtype=np.float64),
        targets=np.asarray(target, dtype=np.float64).reshape(1, -1),
        cell_ids=tuple(ids),
    )


def pair_records(triples) -> np.recarray:
    """Pair records ``(a, b, c)`` as ``training.mine_informative_pairs`` returns them."""
    triples = list(triples)
    a = np.array([t[0] for t in triples], dtype=np.intp)
    b = np.array([t[1] for t in triples], dtype=np.intp)
    c = np.array([t[2] for t in triples], dtype=np.float64)
    return np.rec.fromarrays([a, b, c], names="a,b,c")


def same_pairs(new: np.recarray, old: np.recarray) -> bool:
    """Whether two pair record arrays hold equal pairs, field by field and in order."""
    return new.dtype == old.dtype and all(np.array_equal(new[name], old[name]) for name in "abc")


def star_graph(degree: int) -> RanGraph:
    """An LTE hub with ``degree`` spokes on distinct nodes, plus one isolated
    NR cell so every schema attribute is observed. Total degree + 2 cells."""
    rng = np.random.default_rng(7)
    cells = [lte_cell("hub", node_id="nh")]
    edges = []
    for i in range(degree):
        cid = f"spoke{i:02d}"
        cells.append(
            lte_cell(
                cid,
                node_id=f"ns{i}",
                bw=float(rng.choice([5, 10, 20])),
                chan=float(rng.uniform(0, 200)),
                power=float(rng.uniform(-110, -90)),
                preamble=float(rng.choice([-126, -120, -114])),
            )
        )
        edges.append(("hub", cid, "inter_node"))
    cells.append(nr_cell("nrpad", node_id="npad"))
    return RanGraph(schema=small_schema(), cells=cells, edges=edges)


@pytest.fixture
def schema() -> AttributeSchema:
    return small_schema()


@dataclass(frozen=True)
class LearnabilityReport:
    oracle_accuracy: float
    learnable: bool
    threshold: float = 0.98


def _design_space_config(cell: CellRecord) -> np.ndarray:
    """Observed configs mapped into the generator's [0, 1] design profile."""
    designs = _TECH_DESIGN[cell.technology]["configs"]
    return np.array([(cell.raw_configs[c.name] - c.low) / (c.high - c.low) for c in designs])


def learnability_check(graph: RanGraph, truth: GroundTruth) -> LearnabilityReport:
    """Score the trivial archetype-mean predictor against observed configs.

    Predicts every non-corrupted cell's configuration by the mean observed
    configuration of its (cluster, technology) group, in the generator's
    design profile space; high cosine accuracy means configurations are
    recoverable from context at all.
    """
    clean_ids = [cid for cid in graph.cell_ids if not truth.cells[cid].corrupted]
    vectors = {cid: _design_space_config(graph.cell(cid)) for cid in clean_ids}
    groups: dict[tuple[int, str], list[str]] = {}
    for cid in clean_ids:
        key = (truth.cells[cid].cluster, graph.cell(cid).technology)
        groups.setdefault(key, []).append(cid)
    means = {key: np.mean([vectors[cid] for cid in ids], axis=0) for key, ids in groups.items()}

    cosines = []
    for cid in clean_ids:
        key = (truth.cells[cid].cluster, graph.cell(cid).technology)
        y = vectors[cid]
        if np.linalg.norm(y) == 0.0 or np.linalg.norm(means[key]) == 0.0:
            continue
        cosines.append(cosine(y, means[key]))
    accuracy = float(np.mean(cosines)) if cosines else 0.0
    return LearnabilityReport(accuracy, learnable=accuracy >= LearnabilityReport.threshold)
