"""Network graph model: parsing, invariants, normalization, vectors."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranrec.graph import (
    CellRecord,
    NetworkFormatError,
    RanGraph,
    denormalize,
    extend_network,
    feature_map,
    fit_normalization,
    load_network,
    network_from_json,
    parse_cells_payload,
)

from conftest import lte_cell, nr_cell, small_schema


def _rows(graph, stats, cell):
    """The ``feature_map`` rows (x, y) of ``cell``, joining it to ``graph`` if new."""
    if cell.cell_id not in graph.row_of:
        graph = extend_network(graph, [cell])
    features = feature_map(graph, stats)
    row = graph.row_of[cell.cell_id]
    return features.x[row], features.y[row]


def _network_payload() -> dict:
    return {
        "schema": small_schema().to_json(),
        "cells": [
            {
                "cell_id": "a",
                "node_id": "n1",
                "technology": "LTE",
                "predictors": {"bw": 10, "chan": 100},
                "configs": {"power": -100, "preamble": -120},
            },
            {
                "cell_id": "b",
                "node_id": "n2",
                "technology": "NR",
                "predictors": {"bw": 50, "chan": 5000},
                "configs": {"power": -90, "preamble": -110},
            },
        ],
        "edges": [["a", "b", "inter_node"]],
    }


class TestLoadNetwork:
    def test_two_cell_file(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(_network_payload()))
        graph = load_network(path)
        assert [c.technology for c in graph.cells] == ["LTE", "NR"]
        assert len(graph.edges) == 1

    def test_self_loop_rejected(self, tmp_path):
        payload = _network_payload()
        payload["edges"] = [["a", "a", "inter_node"]]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(NetworkFormatError, match="self-loop"):
            load_network(path)

    def test_intra_node_edges_materialize(self):
        cells = [lte_cell(f"c{i}", node_id="shared") for i in range(3)]
        graph = RanGraph(schema=small_schema(), cells=cells, edges=[])
        assert len(graph.edges) == 3
        for a, b, kind in graph.edges:
            assert kind == "intra_node"
        # enumeration: every pair among the three cells is connected
        ids = [c.cell_id for c in cells]
        expected = {(min(a, b), max(a, b)) for i, a in enumerate(ids) for b in ids[i + 1 :]}
        assert {(a, b) for a, b, _ in graph.edges} == expected

    def test_duplicate_cell_id(self):
        with pytest.raises(NetworkFormatError, match="duplicate cell_id"):
            RanGraph(schema=small_schema(), cells=[lte_cell("x"), lte_cell("x")])

    def test_edge_to_unknown_cell(self):
        with pytest.raises(NetworkFormatError, match="unknown cell"):
            RanGraph(
                schema=small_schema(),
                cells=[lte_cell("a")],
                edges=[("a", "ghost", "inter_node")],
            )

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": [,]}')
        with pytest.raises(NetworkFormatError, match=r":1:"):
            load_network(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("role,name", [("predictors", "chan"), ("configs", "power")])
    def test_non_finite_value_rejected(self, tmp_path, role, name, value):
        payload = _network_payload()
        payload["cells"][1][role][name] = value
        path = tmp_path / "net.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(NetworkFormatError, match=r"cell entry 1: cell 'b'.*not a finite") as info:
            load_network(path)
        assert str(path) in str(info.value)

    def test_missing_own_technology_attribute(self):
        bad = lte_cell("a")
        bad = type(bad)(
            cell_id="a",
            node_id="n1",
            technology="LTE",
            raw_predictors={"bw": 10},  # chan missing
            raw_configs={"power": -100, "preamble": -120},
        )
        with pytest.raises(NetworkFormatError, match="missing predictor"):
            RanGraph(schema=small_schema(), cells=[bad])

    def test_wrong_technology_attribute_rejected(self):
        bad = type(lte_cell("a"))(
            cell_id="a",
            node_id="n1",
            technology="NR",
            raw_predictors={"bw": 10, "chan": 100},
            raw_configs={"power": -100, "preamble": -120, "extra": 1.0},
        )
        with pytest.raises(NetworkFormatError, match="unknown or wrong-technology"):
            RanGraph(schema=small_schema(), cells=[bad])


class TestNormalization:
    def _graph(self, values):
        cells = [
            lte_cell(f"c{i}", node_id=f"n{i}", chan=v, power=-100.0 - i) for i, v in enumerate(values)
        ]
        cells.append(nr_cell("nrpad", node_id="npad"))
        return RanGraph(schema=small_schema(), cells=cells)

    def test_extrema(self):
        graph = self._graph([2.0, 4.0, 6.0])
        stats = fit_normalization(graph, graph.cell_ids)
        by_key = {
            (s.technology, s.name): slot
            for s, slot in zip(graph.schema.predictor_layout, stats.predictor)
        }
        slot = by_key[("LTE", "chan")]
        assert (slot.minimum, slot.maximum) == (2.0, 6.0)

    def test_single_cell_degenerate(self):
        graph = self._graph([3.0])
        stats = fit_normalization(graph, graph.cell_ids)
        slot = stats.predictor[1]  # LTE chan slot
        assert slot.minimum == slot.maximum == 3.0

    def test_negative_extrema(self):
        graph = self._graph([-5.0, 5.0])
        stats = fit_normalization(graph, graph.cell_ids)
        slot = stats.predictor[1]
        assert (slot.minimum, slot.maximum) == (-5.0, 5.0)

    def test_unobserved_attribute_named(self):
        graph = RanGraph(schema=small_schema(), cells=[lte_cell("a"), nr_cell("b")])
        with pytest.raises(ValueError, match="'bw'.*NR"):
            fit_normalization(graph, ["a"])  # no NR cell in training set

    def test_empty_train_set(self):
        graph = self._graph([1.0])
        with pytest.raises(ValueError, match="non-empty"):
            fit_normalization(graph, [])


class TestVectorize:
    def _fitted(self):
        cells = [
            lte_cell("a", chan=2.0),
            lte_cell("b", node_id="n2", chan=6.0),
            nr_cell("c", node_id="n3"),
        ]
        graph = RanGraph(schema=small_schema(), cells=cells)
        return graph, fit_normalization(graph, graph.cell_ids)

    def test_midpoint(self):
        graph, stats = self._fitted()
        cell = lte_cell("q", node_id="nq", chan=4.0)
        x, _ = _rows(graph, stats, cell)
        assert x[1] == pytest.approx(0.5)

    def test_other_technology_slots_zero(self):
        graph, stats = self._fitted()
        x, y = _rows(graph, stats, graph.cell("a"))
        nr_slots = [i for i, s in enumerate(graph.schema.predictor_layout) if s.technology == "NR"]
        assert all(x[i] == 0.0 for i in nr_slots)
        nr_cfg = [i for i, s in enumerate(graph.schema.config_layout) if s.technology == "NR"]
        assert all(y[i] == 0.0 for i in nr_cfg)

    def test_degenerate_range_is_zero(self):
        graph, stats = self._fitted()
        # NR chan was observed on one cell only: min == max
        x, _ = _rows(graph, stats, graph.cell("c"))
        nr_chan = [
            i
            for i, s in enumerate(graph.schema.predictor_layout)
            if s.technology == "NR" and s.name == "chan"
        ][0]
        assert x[nr_chan] == 0.0

    def test_out_of_range_clamps(self):
        graph, stats = self._fitted()
        high = lte_cell("q", node_id="nq", chan=1e9, power=-50.0)
        x, y = _rows(graph, stats, high)
        assert x.max() <= 1.0 and x.min() >= 0.0
        assert y.max() <= 1.0 and y.min() >= 0.0


class TestFeatureMap:
    def test_rows_match_scalar_normalize(self):
        # LTE and NR cells; LTE bw is constant over training; "new" and
        # "newnr" carry no configs; "far" lies outside the fitted ranges.
        cells = [
            lte_cell("a", chan=2.0, power=-110.0),
            lte_cell("b", node_id="n2", chan=6.0, power=-90.0, preamble=-100.0),
            nr_cell("c", node_id="n3", chan=3000.0),
            nr_cell("d", node_id="n4", bw=100.0, chan=4000.0, power=-80.0),
            lte_cell("far", node_id="n5", bw=-5.0, chan=1e9, power=-200.0, preamble=0.0),
            CellRecord("new", "n6", "LTE", {"bw": 20.0, "chan": 4.0}, {}),
            CellRecord("newnr", "n7", "NR", {"bw": 75.0, "chan": -1e9}, {}),
        ]
        graph = RanGraph(schema=small_schema(), cells=cells, edges=[("a", "new", "inter_node")])
        stats = fit_normalization(graph, ["a", "b", "c", "d"])
        assert stats.predictor[0].minimum == stats.predictor[0].maximum  # LTE bw
        features = feature_map(graph, stats)
        assert features.x.shape == (len(cells), graph.schema.predictor_dim)
        assert features.y.shape == (len(cells), graph.schema.config_dim)
        assert not features.x.flags.writeable and not features.y.flags.writeable
        for cell in cells:
            row = graph.row_of[cell.cell_id]
            roles = ((features.x, "predictor", cell.raw_predictors), (features.y, "config", cell.raw_configs))
            for matrix, role, raw in roles:
                expected = [
                    slot.normalize(raw[spec.name])
                    if spec.technology == cell.technology and spec.name in raw
                    else 0.0
                    for spec, slot in zip(graph.schema.layout(role), stats.slots(role))
                ]
                assert matrix[row].tolist() == expected, (cell.cell_id, role)


class TestDenormalize:
    def _stats(self, values=(2.0, 4.0, 6.0)):
        cells = [
            lte_cell(f"c{i}", node_id=f"n{i}", power=v, preamble=v) for i, v in enumerate(values)
        ]
        cells.append(nr_cell("nrpad", node_id="npad"))
        graph = RanGraph(schema=small_schema(), cells=cells)
        return graph, fit_normalization(graph, graph.cell_ids)

    def test_inverse_midpoint(self):
        graph, stats = self._stats()
        out = denormalize(np.array([0.5, 0.0, 0.0, 0.0]), stats, graph.schema)
        assert out["LTE.power"] == pytest.approx(4.0)

    def test_zero_maps_to_minimum(self):
        graph, stats = self._stats()
        out = denormalize(np.zeros(4), stats, graph.schema)
        assert out["LTE.power"] == pytest.approx(2.0)

    def test_discrete_snaps_to_observed(self):
        graph, stats = self._stats()
        # 0.52 of the [2, 6] range is 4.08; nearest observed value is 4
        out = denormalize(np.array([0.0, 0.52, 0.0, 0.0]), stats, graph.schema)
        assert out["LTE.preamble"] == 4.0

    def test_wrong_length_rejected(self):
        graph, stats = self._stats()
        with pytest.raises(ValueError, match="length"):
            denormalize(np.zeros(3), stats, graph.schema)


class TestProperties:
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=8
        ),
        pick=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_continuous(self, values, pick):
        cells = [lte_cell(f"c{i}", node_id=f"n{i}", power=v) for i, v in enumerate(values)]
        cells.append(nr_cell("nrpad", node_id="npad"))
        graph = RanGraph(schema=small_schema(), cells=cells)
        stats = fit_normalization(graph, graph.cell_ids)
        cell = cells[pick % len(values)]
        _, y = _rows(graph, stats, cell)
        out = denormalize(y, stats, graph.schema)
        span = max(values) - min(values)
        assert abs(out["LTE.power"] - cell.raw_configs["power"]) <= 1e-9 * max(1.0, span)

    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_entries_stay_in_unit_interval(self, value):
        cells = [lte_cell("a", chan=0.0), lte_cell("b", node_id="n2", chan=10.0), nr_cell("c", node_id="n3")]
        graph = RanGraph(schema=small_schema(), cells=cells)
        stats = fit_normalization(graph, graph.cell_ids)
        probe = lte_cell("q", node_id="nq", chan=value)
        x, _ = _rows(graph, stats, probe)
        assert 0.0 <= x.min() and x.max() <= 1.0

    def test_edge_symmetry(self):
        graph = RanGraph(
            schema=small_schema(),
            cells=[lte_cell("a"), lte_cell("b", node_id="n2"), lte_cell("c", node_id="n3")],
            edges=[("a", "b", "inter_node"), ("b", "c", "inter_node")],
        )
        for a, b, _ in graph.edges:
            assert b in graph.neighbors(a)
            assert a in graph.neighbors(b)

    def test_technology_partition(self):
        graph = RanGraph(
            schema=small_schema(),
            cells=[lte_cell("a"), nr_cell("b"), nr_cell("c", node_id="n3")],
        )
        technologies = [c.technology for c in graph.cells]
        assert technologies.count("LTE") == 1
        assert technologies.count("NR") == 2
        assert technologies.count("LTE") + technologies.count("NR") == len(graph.cells)


NODES = ("n1", "n2", "n3")
IDS = ("c0", "c1", "c2", "c3", "c4", "c5", "c6")


def _cell(cid: str, node: str, technology: str, variant: str = "ok") -> CellRecord:
    predictors = {"bw": 10.0, "chan": 100.0}
    configs = {"power": -100.0, "preamble": -120.0}
    if variant == "missing":
        del predictors["chan"]
    elif variant == "unknown":
        configs["extra"] = 1.0
    elif variant == "bare":  # awaiting a recommendation
        configs = {}
    return CellRecord(cid, node, technology, predictors, configs)


@st.composite
def _extensions(draw):
    """A valid graph's cells and edges, plus cells and edges to add, some of them bad."""
    n_old = draw(st.integers(1, 4))
    old_cells = [
        _cell(IDS[i], draw(st.sampled_from(NODES)), draw(st.sampled_from(("LTE", "NR"))))
        for i in range(n_old)
    ]
    old_id = st.sampled_from(IDS[:n_old])
    old_edges = draw(
        st.lists(
            st.tuples(old_id, old_id, st.sampled_from(("intra_node", "inter_node"))).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=5,
        )
    )
    variant = st.sampled_from(("ok", "ok", "ok", "bare", "missing", "unknown"))
    new_cells = draw(
        st.lists(
            st.builds(
                _cell,
                st.sampled_from(IDS),  # may repeat an old or an earlier new id
                st.sampled_from((*NODES, "n4")),  # existing nodes and a new one
                st.sampled_from(("LTE", "NR")),
                variant,
            ),
            max_size=4,
        )
    )
    any_id = st.sampled_from((*IDS, "ghost"))
    kind = st.sampled_from(("intra_node", "inter_node", "inter_node", "bogus"))
    new_edges = draw(st.lists(st.tuples(any_id, any_id, kind), max_size=6))
    return old_cells, old_edges, new_cells, new_edges


def _snapshot(graph: RanGraph) -> tuple:
    return (
        graph.cells,
        dict(graph.row_of),
        graph.edges,
        {cid: graph.neighbors(cid) for cid in graph.row_of},
        graph.indptr.tolist(),
        graph.indices.tolist(),
        # Node codes and id ranks, merged on extension, equal those of a build from scratch.
        graph._node.tolist(),
        graph._by_id.tolist(),
        graph._rank.tolist(),
    )


def _outcome(build):
    try:
        return _snapshot(build())
    except NetworkFormatError as exc:
        return str(exc)


class TestExtendNetwork:
    @given(case=_extensions())
    @settings(max_examples=300, deadline=None)
    def test_equals_build_from_scratch(self, case):
        old_cells, old_edges, new_cells, new_edges = case
        graph = RanGraph(small_schema(), old_cells, old_edges)
        before = _snapshot(graph)
        expected = _outcome(lambda: RanGraph(small_schema(), old_cells + new_cells, old_edges + new_edges))
        assert _outcome(lambda: extend_network(graph, new_cells, new_edges)) == expected
        assert _snapshot(graph) == before

    @pytest.mark.parametrize(
        "cells, edges, message",
        [
            ([_cell("c0", "n9", "LTE")], [], "duplicate cell_id 'c0'"),
            ([], [("c0", "ghost", "inter_node")], "edge references unknown cell 'ghost'"),
            ([], [("c1", "c1", "inter_node")], "self-loop edge on cell 'c1'"),
            ([], [("c0", "c1", "bogus")], "unknown edge kind 'bogus'"),
            ([_cell("c9", "n9", "NR", "missing")], [], "missing predictor attributes ['chan']"),
            ([_cell("c9", "n9", "LTE", "unknown")], [], "wrong-technology config attributes ['extra']"),
        ],
    )
    def test_each_bad_addition_names_itself(self, cells, edges, message):
        old = [_cell("c0", "n1", "LTE"), _cell("c1", "n2", "NR")]
        graph = RanGraph(small_schema(), old)
        with pytest.raises(NetworkFormatError) as scratch:
            RanGraph(small_schema(), old + cells, edges)
        with pytest.raises(NetworkFormatError) as extended:
            extend_network(graph, cells, edges)
        assert str(extended.value) == str(scratch.value)
        assert message in str(extended.value)

    def test_new_cell_on_existing_node_joins_its_clique(self):
        graph = RanGraph(small_schema(), [_cell("c0", "n1", "LTE"), _cell("c1", "n1", "NR")])
        extended = extend_network(graph, [_cell("c2", "n1", "LTE", "bare")], [("c0", "c2", "inter_node")])
        assert extended.edges == (
            ("c0", "c1", "intra_node"),
            ("c0", "c2", "intra_node"),
            ("c1", "c2", "intra_node"),
        )
        assert graph.neighbors("c0") == ("c1",)
        assert extended.neighbors("c0") == ("c1", "c2")


def _oracle_adjacency(cells, listed) -> tuple[tuple, dict]:
    """Edges and neighbours by a per-pair loop: every listed pair and every
    pair of cells on one node, once; the kind from the two cells' nodes."""
    node = {c.cell_id: c.node_id for c in cells}
    ids = list(node)
    pairs = {(min(a, b), max(a, b)) for a, b, _ in listed}
    pairs |= {(min(a, b), max(a, b)) for i, a in enumerate(ids) for b in ids[i + 1 :] if node[a] == node[b]}
    edges = tuple((a, b, "intra_node" if node[a] == node[b] else "inter_node") for a, b in sorted(pairs))
    neighbors = {cid: tuple(sorted({b for a, b in pairs if a == cid} | {a for a, b in pairs if b == cid})) for cid in ids}
    return edges, neighbors


class TestEdgeOracle:
    """``edges`` and ``neighbors`` equal a per-pair loop over the listed edges
    and the node ids, whatever kind an edge lists."""

    def _check(self, graph: RanGraph, cells, listed) -> None:
        edges, neighbors = _oracle_adjacency(cells, listed)
        for g in (graph, RanGraph.from_columns(graph.schema, graph.columns())):
            assert g.edges == edges
            assert {cid: g.neighbors(cid) for cid in g.row_of} == neighbors

    @given(case=_extensions())
    @settings(max_examples=200, deadline=None)
    def test_drawn_graph(self, case):
        old_cells, old_edges, new_cells, new_edges = case
        cells, listed = list(old_cells), list(old_edges)
        graph = RanGraph(small_schema(), cells, listed)
        for more, edges in [([c], []) for c in new_cells] + [([], [e]) for e in new_edges]:
            try:
                graph = extend_network(graph, more, edges)
            except NetworkFormatError:
                continue
            cells, listed = cells + more, listed + edges
        self._check(graph, cells, listed)

    @pytest.mark.parametrize("sites", [1, 7, 60])
    def test_synth_network(self, sites):
        from ranrec.synth import SynthSpec, generate

        graph, _ = generate(SynthSpec(sites=sites, seed=sites))
        # The inter-node pairs synth listed, each labelled with the kind it does not have.
        listed = [(a, b, "intra_node") for a, b, kind in graph.edges if kind == "inter_node"]
        self._check(graph, graph.cells, listed)
        self._check(RanGraph(graph.schema, graph.cells, listed), graph.cells, listed)


def _same_graph(built: RanGraph, expected: RanGraph) -> None:
    assert built.cells == expected.cells
    assert list(built.row_of.items()) == list(expected.row_of.items())
    assert [built.neighbors(cid) for cid in built.row_of] == [expected.neighbors(cid) for cid in expected.row_of]
    assert built.edges == expected.edges
    for name in ("indptr", "indices"):
        assert getattr(built, name).dtype == getattr(expected, name).dtype == np.intp, name
        assert np.array_equal(getattr(built, name), getattr(expected, name)), name
    got, want = built.columns(), expected.columns()
    assert got.keys() == want.keys()
    assert (got["cell_ids"], got["node_ids"]) == (want["cell_ids"], want["node_ids"])
    for name in ("technology", "predictor", "config", "edges"):
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name], equal_nan=True), name


def _fit(graph: RanGraph, ids):
    try:
        return fit_normalization(graph, ids)
    except ValueError as exc:
        return exc


class TestColumns:
    """``RanGraph.from_columns(schema, graph.columns())`` rebuilds the graph a full parse gives."""

    @pytest.mark.parametrize("sites", [1, 7, 60])
    def test_synth_network_round_trips(self, sites, tmp_path):
        from ranrec.synth import SynthSpec, generate, synthesize_expansion, synthesize_greenfield

        spec = SynthSpec(sites=sites, seed=sites)
        graph, truth = generate(spec)
        path = tmp_path / "network.json"
        path.write_text(json.dumps(graph.to_json()))
        parsed = load_network(path)
        built = RanGraph.from_columns(parsed.schema, parsed.columns())
        _same_graph(built, parsed)
        # Both extend alike: expansion cells on existing nodes plus a greenfield site.
        cells, edges, _ = synthesize_greenfield(parsed, truth, spec, 1, 3)
        more, _, _ = synthesize_expansion(parsed, truth, spec, 3, 3)
        grown, expected = (extend_network(g, cells + more, edges) for g in (built, parsed))
        _same_graph(grown, expected)
        _same_graph(RanGraph.from_columns(expected.schema, expected.columns()), expected)
        _same_graph(RanGraph(parsed.schema, parsed.cells + tuple(cells + more), parsed.edges + tuple(edges)), grown)

    @pytest.mark.parametrize("sites", [1, 7, 60])
    def test_network_json_equals_record_built(self, sites):
        from ranrec.synth import SynthSpec, generate

        graph, _ = generate(SynthSpec(sites=sites, seed=sites))
        first = graph.cell(graph.cell_ids[0])
        bare = CellRecord("zz-bare", first.node_id, first.technology, first.raw_predictors, {})
        for g in (graph, extend_network(graph, [bare])):
            record_built = {
                "schema": g.schema.to_json(),
                "cells": [
                    {
                        "cell_id": c.cell_id,
                        "node_id": c.node_id,
                        "technology": c.technology,
                        "predictors": dict(sorted(c.raw_predictors.items())),
                        "configs": dict(sorted(c.raw_configs.items())),
                    }
                    for c in g.cells
                ],
                "edges": [list(e) for e in g.edges],
            }
            assert json.dumps(g.to_json(), indent=1) == json.dumps(record_built, indent=1)

    @given(case=_extensions())
    @settings(max_examples=200, deadline=None)
    def test_drawn_graph_round_trips(self, case):
        # The valid part of the draw: every new cell and edge the graph accepts, bare cells included.
        old_cells, old_edges, new_cells, new_edges = case
        graph = RanGraph(small_schema(), old_cells, old_edges)
        for cells, edges in [([c], []) for c in new_cells] + [([], [e]) for e in new_edges]:
            try:
                graph = extend_network(graph, cells, edges)
            except NetworkFormatError:
                pass
        built = RanGraph.from_columns(graph.schema, graph.columns())
        _same_graph(built, graph)
        configured = [c.cell_id for c in graph.cells if c.raw_configs]
        stats = _fit(graph, configured)
        assert repr(_fit(built, configured)) == repr(stats)  # repr tells -0.0 from 0.0
        if not isinstance(stats, ValueError):
            got, want = feature_map(built, stats), feature_map(graph, stats)
            assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()

    def test_cell_without_configs_round_trips(self, schema):
        bare = CellRecord("bare", "n1", "LTE", {"bw": 5.0, "chan": 7.0}, {})
        graph = RanGraph(schema, [lte_cell("a"), bare, nr_cell("b")], [("a", "b", "inter_node")])
        columns = graph.columns()
        assert np.isnan(columns["config"][1, :2]).all() and (columns["config"][1, 2:] == 0).all()
        _same_graph(RanGraph.from_columns(schema, columns), graph)

    def _columns(self, schema):
        graph = RanGraph(
            schema,
            [lte_cell("a", node_id="n1"), lte_cell("c", node_id="n1"), nr_cell("b", node_id="n2")],
            [("a", "b", "inter_node")],
        )
        return graph.columns()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c["cell_ids"].__setitem__(2, "a"), "cell_ids: duplicate cell_id 'a'"),
            (lambda c: c["node_ids"].pop(), "node_ids: 2 entries for 3 cells"),
            (lambda c: c["cell_ids"].__setitem__(0, 7), "cell_ids: expected a list of strings"),
            (lambda c: c["technology"].__setitem__(1, 2), "technology: cell 'c': unknown technology code 2"),
            (lambda c: c["predictor"].__setitem__((0, 1), np.inf), "predictor: cell 'a': predictor 'chan' is inf"),
            (
                lambda c: c["predictor"].__setitem__((0, 2), 1.0),
                "predictor: cell 'a': unknown or wrong-technology predictor attributes ['bw']",
            ),
            (lambda c: c["config"].__setitem__((2, 2), np.nan), "config: cell 'b': config 'power' is nan"),
            (lambda c: c["edges"].__setitem__((0, 1), -1), "edges: edge 0 references a row outside the cells"),
            (
                lambda c: c.__setitem__("edges", np.concatenate([c["edges"], [[0, 1]]])),
                "edges: edge 1 joins two cells of one node: [0, 1]",
            ),
        ],
    )
    def test_bad_column_named(self, schema, edit, message):
        columns = self._columns(schema)
        edit(columns)
        with pytest.raises(NetworkFormatError, match=re.escape(message)):
            RanGraph.from_columns(schema, columns)

    def test_repeated_edge_named(self, schema):
        columns = self._columns(schema)
        assert columns["edges"].tolist() == [[0, 2]]  # the intra-node pair of 'a' and 'c' is not written
        columns["edges"] = np.concatenate([columns["edges"], columns["edges"][:, ::-1]])
        with pytest.raises(NetworkFormatError, match=re.escape("edges: edge 1 repeats an earlier pair: [2, 0]")):
            RanGraph.from_columns(schema, columns)


class TestNetworkJson:
    """Network JSON and new-cells requests take the one column path."""

    @pytest.mark.parametrize("sites", [1, 6, 50, 200, 800])
    def test_synth_network_round_trips(self, sites):
        from ranrec.synth import SynthSpec, generate

        graph, _ = generate(SynthSpec(sites=sites, seed=sites))
        written = graph.to_json()
        parsed = network_from_json(json.loads(json.dumps(written)))
        _same_graph(parsed, graph)
        assert json.dumps(parsed.to_json(), indent=1) == json.dumps(written, indent=1)

    @pytest.mark.parametrize("sites", [6, 50])
    def test_new_cells_request_equals_full_parse(self, sites):
        from ranrec.synth import SynthSpec, generate, synthesize_expansion, synthesize_greenfield

        spec = SynthSpec(sites=sites, seed=sites)
        graph, truth = generate(spec)
        cells, edges, _ = synthesize_greenfield(graph, truth, spec, 2, 5)
        more, _, _ = synthesize_expansion(graph, truth, spec, 4, 5)
        fields = ("cell_id", "node_id", "technology")
        request = {
            "cells": [{**{f: getattr(c, f) for f in fields}, "predictors": dict(c.raw_predictors)} for c in cells + more],
            "edges": [list(e) for e in edges],
        }
        network = json.loads(json.dumps(graph.to_json()))
        extended = extend_network(network_from_json(network), *parse_cells_payload(json.loads(json.dumps(request))))
        network["cells"] += [{**cell, "configs": {}} for cell in request["cells"]]
        network["edges"] += request["edges"]
        _same_graph(extended, network_from_json(network))


def _faulty_network(*faults: tuple[int, str]) -> dict:
    """A six-cell network with each (entry, fault) of ``faults`` applied."""
    payload = {
        "schema": small_schema().to_json(),
        "cells": [
            {
                "cell_id": f"c{i}",
                "node_id": f"n{i}",
                "technology": "LTE" if i % 2 else "NR",
                "predictors": {"bw": 10.0, "chan": 100.0 + i},
                "configs": {"power": -100.0, "preamble": -120.0},
            }
            for i in range(6)
        ],
        "edges": [["c0", "c1", "inter_node"]],
    }
    for entry, fault in faults:
        cell = payload["cells"][entry]
        if fault == "nan":
            cell["predictors"]["chan"] = math.nan
        elif fault == "missing":
            del cell["configs"]["power"]
        elif fault == "duplicate":
            cell["cell_id"] = "c0"
        elif fault == "technology":
            cell["technology"] = "GSM"
        elif fault == "bool":
            cell["predictors"]["bw"] = True
    return payload


class TestFirstFault:
    """With faults in two entries, the lower entry is named, whatever the two
    faults are; only a malformed entry (a wrong JSON type) comes first, as the
    file is read."""

    @pytest.mark.parametrize(
        "faults, message",
        [
            ([(2, "nan"), (4, "nan")], "cell entry 2: cell 'c2': predictor 'chan' is nan, not a finite number"),
            ([(2, "missing"), (4, "missing")], "cell entry 2: cell 'c2': missing config attributes ['power']"),
            ([(2, "nan"), (4, "missing")], "cell entry 2: cell 'c2': predictor 'chan' is nan, not a finite number"),
            ([(2, "missing"), (4, "nan")], "cell entry 2: cell 'c2': missing config attributes ['power']"),
            ([(2, "duplicate"), (4, "missing")], "cell entry 2: duplicate cell_id 'c0'"),
            ([(2, "nan"), (4, "technology")], "cell entry 2: cell 'c2': predictor 'chan' is nan, not a finite number"),
            ([(2, "technology"), (4, "duplicate")], "cell entry 2: cell 'c2': unknown technology 'GSM'"),
            ([(2, "nan"), (2, "missing")], "cell entry 2: cell 'c2': missing config attributes ['power']"),
            ([(2, "duplicate"), (2, "missing")], "cell entry 2: cell 'c0': missing config attributes ['power']"),
            ([(2, "duplicate"), (2, "nan")], "cell entry 2: duplicate cell_id 'c0'"),
            ([(2, "nan"), (4, "bool")], "cell entry 4: predictors.bw: expected a number, got bool True"),
        ],
    )
    def test_names_the_lower_entry(self, faults, message):
        with pytest.raises(NetworkFormatError) as info:
            network_from_json(_faulty_network(*faults), source="net.json")
        assert str(info.value) == f"net.json: {message}"

    @pytest.mark.parametrize("faults", [[(2, "nan"), (4, "missing")], [(2, "duplicate"), (4, "nan")]])
    def test_records_name_the_same_cell(self, faults):
        # The constructor and extend_network check records the same way, without entry indices.
        cells = [CellRecord(c["cell_id"], c["node_id"], c["technology"], c["predictors"], c["configs"])
                 for c in _faulty_network(*faults)["cells"]]
        with pytest.raises(NetworkFormatError) as parsed:
            network_from_json(_faulty_network(*faults))
        with pytest.raises(NetworkFormatError) as built:
            RanGraph(small_schema(), cells)
        with pytest.raises(NetworkFormatError) as extended:
            extend_network(RanGraph(small_schema(), cells[:1]), cells[1:])
        assert str(built.value) == str(extended.value) == str(parsed.value).split(": ", 2)[2]
