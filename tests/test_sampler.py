"""Subgraph sampling: adjacency, uniform neighbor draws, dataset assembly."""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranrec import sampler
from ranrec.cli import main
from ranrec.config import config_from_values
from ranrec.gnn import ArchConfig, Checkpoint, init_encoder, schema_hash
from ranrec.graph import RanGraph, extend_network, fit_normalization, feature_map
from ranrec.rng import substream
from ranrec.sampler import SamplerConfig, build_dataset, sample_subgraph, split_indices
from ranrec.synth import SynthSpec, generate, synthesize_expansion, synthesize_greenfield

from conftest import lte_cell, nr_cell, small_schema, star_graph


def split(dataset, test_fraction: float, seed: int):
    """The centre ids of a disjoint, exhaustive train/test split of a dataset,
    deterministic per seed."""
    train_idx, test_idx = split_indices(len(dataset), test_fraction, seed)
    centers = dataset.centers
    return [centers[i] for i in train_idx], [centers[i] for i in test_idx]


def each(subgraphs):
    """Every subgraph of a set, as a set of one."""
    return [subgraphs[i : i + 1] for i in range(len(subgraphs))]


def vertices(sub) -> tuple[str, ...]:
    """The vertex ids of a set of one subgraph, the centre first."""
    return tuple(sub.cell_ids[row] for row in sub.rows.tolist())


def neighbors(sub) -> tuple[str, ...]:
    """The sampled neighbour ids of a set of one subgraph, in draw order."""
    return vertices(sub)[1:]


def edge_pairs(sub) -> tuple[tuple[int, int], ...]:
    return tuple(map(tuple, sub.edges.tolist()))


def _fitted(graph):
    return fit_normalization(graph, graph.cell_ids)


def _features(graph):
    return feature_map(graph, _fitted(graph))


class TestNeighbors:
    def test_isolated(self):
        graph = RanGraph(schema=small_schema(), cells=[lte_cell("a"), nr_cell("b")])
        assert set(graph.neighbors("a")) == set()

    def test_listed_edges(self):
        graph = RanGraph(
            schema=small_schema(),
            cells=[lte_cell("a"), lte_cell("b", node_id="n2"), lte_cell("c", node_id="n3"), nr_cell("d", node_id="n4")],
            edges=[("a", "b", "inter_node"), ("a", "c", "inter_node")],
        )
        assert set(graph.neighbors("a")) == {"b", "c"}

    def test_symmetry(self):
        graph = RanGraph(
            schema=small_schema(),
            cells=[lte_cell("a"), lte_cell("b", node_id="n2"), nr_cell("c", node_id="n3")],
            edges=[("a", "b", "inter_node")],
        )
        assert "a" in graph.neighbors("b")
        assert "b" in graph.neighbors("a")

    def test_unknown_cell(self):
        graph = RanGraph(schema=small_schema(), cells=[lte_cell("a"), nr_cell("b")])
        with pytest.raises(KeyError, match="ghost"):
            graph.neighbors("ghost")


class TestSampleSubgraph:
    def test_isolated_center(self):
        graph = RanGraph(schema=small_schema(), cells=[lte_cell("a"), nr_cell("b")])
        sub = sample_subgraph(graph, "a", SamplerConfig(fanout=4, seed=0), _features(graph))
        assert sub.centers == ["a"]
        assert neighbors(sub) == ()
        assert sub.edges.shape == (0, 2)
        assert sub.features.shape[0] == 1

    def test_fanout_capped_by_degree(self):
        graph = star_graph(3)
        sub = sample_subgraph(graph, "hub", SamplerConfig(fanout=5, seed=0), _features(graph))
        assert set(neighbors(sub)) == set(graph.neighbors("hub"))

    def test_deterministic_per_seed_and_center(self):
        graph = star_graph(10)
        cfg = SamplerConfig(fanout=4, seed=42)
        features = _features(graph)
        first = sample_subgraph(graph, "hub", cfg, features)
        for _ in range(3):
            again = sample_subgraph(graph, "hub", cfg, features)
            assert neighbors(again) == neighbors(first)
            assert np.array_equal(again.edges, first.edges)
            assert np.array_equal(again.features, first.features)

    def test_sample_size(self):
        graph = star_graph(10)
        sub = sample_subgraph(graph, "hub", SamplerConfig(fanout=4, seed=1), _features(graph))
        assert len(neighbors(sub)) == 4
        assert len(set(neighbors(sub))) == 4
        assert "hub" not in neighbors(sub)

    def test_center_row_first(self):
        graph = star_graph(4)
        features = _features(graph)
        sub = sample_subgraph(graph, "hub", SamplerConfig(fanout=2, seed=3), features)
        assert np.array_equal(sub.features[0], features.x[graph.row_of["hub"]])

    def test_induced_edges_in_bounds(self):
        graph = star_graph(6)
        sub = sample_subgraph(graph, "hub", SamplerConfig(fanout=3, seed=5), _features(graph))
        for i, j in sub.edges:
            assert 0 <= i < j < len(sub.rows)


class TestUniformity:
    def test_selection_frequencies(self):
        graph = star_graph(10)
        features = _features(graph)
        cfg = SamplerConfig(fanout=1, seed=123)
        counts: dict[str, int] = {}
        draws = 10_000
        for k in range(draws):
            rng = substream(cfg.seed, "uniformity", k)
            sub = sample_subgraph(graph, "hub", cfg, features, rng=rng)
            counts[neighbors(sub)[0]] = counts.get(neighbors(sub)[0], 0) + 1
        assert len(counts) == 10
        for cid, count in counts.items():
            assert 0.08 <= count / draws <= 0.12, (cid, count)


class TestBuildDataset:
    def _graph(self):
        cells = [
            lte_cell("a", chan=1.0),
            lte_cell("b", node_id="n2", chan=2.0),
            lte_cell("c", node_id="n3", chan=3.0),
            nr_cell("d", node_id="n4"),
            nr_cell("e", node_id="n5"),
        ]
        edges = [("a", "b", "inter_node"), ("b", "c", "inter_node"), ("d", "e", "inter_node")]
        return RanGraph(schema=small_schema(), cells=cells, edges=edges)

    def test_one_entry_per_cell(self):
        graph = self._graph()
        entries = build_dataset(graph, _fitted(graph), SamplerConfig(fanout=2, seed=0))
        assert len(entries) == 5
        assert entries.centers == list(graph.cell_ids)

    def test_target_is_center_config(self):
        graph = self._graph()
        stats = _fitted(graph)
        features = feature_map(graph, stats)
        entries = build_dataset(graph, stats, SamplerConfig(fanout=2, seed=0))
        for sub in each(entries):
            assert np.array_equal(sub.targets[0], features.y[graph.row_of[sub.centers[0]]])

    def test_determinism(self):
        graph = self._graph()
        stats = _fitted(graph)
        cfg = SamplerConfig(fanout=2, seed=9)
        first = build_dataset(graph, stats, cfg)
        second = build_dataset(graph, stats, cfg)
        for a, b in zip(each(first), each(second), strict=True):
            assert neighbors(a) == neighbors(b)
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.targets, b.targets)


class TestSplit:
    def _dataset(self, n):
        graph = star_graph(n - 2)  # hub + spokes + pad = n cells
        return build_dataset(graph, _fitted(graph), SamplerConfig(fanout=2, seed=0))

    def test_eight_two(self):
        train, test = split(self._dataset(10), 0.2, seed=0)
        assert (len(train), len(test)) == (8, 2)

    def test_deterministic(self):
        data = self._dataset(10)
        first = split(data, 0.3, seed=5)
        second = split(data, 0.3, seed=5)
        assert first == second

    def test_partition(self):
        data = self._dataset(10)
        train, test = split(data, 0.2, seed=1)
        train_ids, test_ids = set(train), set(test)
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == set(data.centers)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(ValueError, match="test_fraction"):
            split(self._dataset(4), fraction, seed=0)


class TestInducedClosure:
    @given(
        n_cells=st.integers(min_value=2, max_value=8),
        edge_seed=st.integers(min_value=0, max_value=10_000),
        fanout=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_edge_leaves_subgraph(self, n_cells, edge_seed, fanout):
        rng = np.random.default_rng(edge_seed)
        cells = [lte_cell(f"c{i}", node_id=f"n{i}", chan=float(i)) for i in range(n_cells)]
        cells.append(nr_cell("pad", node_id="npad"))
        possible = [
            (f"c{i}", f"c{j}") for i in range(n_cells) for j in range(i + 1, n_cells)
        ]
        chosen = [p for p in possible if rng.random() < 0.5]
        graph = RanGraph(
            schema=small_schema(),
            cells=cells,
            edges=[(a, b, "inter_node") for a, b in chosen],
        )
        features = _features(graph)
        adjacent = {frozenset((a, b)) for a, b, _ in graph.edges}
        cfg = SamplerConfig(fanout=fanout, seed=edge_seed)
        for cid in graph.cell_ids:
            sub = sample_subgraph(graph, cid, cfg, features)
            ids = vertices(sub)
            assert len(neighbors(sub)) == min(fanout, len(graph.neighbors(cid)))
            assert set(neighbors(sub)) <= set(graph.neighbors(cid))
            for i, j in sub.edges:
                assert ids[j] in graph.neighbors(ids[i])
            # Every adjacent pair of sampled vertices is an induced edge.
            expected = [
                (i, j)
                for i in range(len(ids))
                for j in range(i + 1, len(ids))
                if frozenset((ids[i], ids[j])) in adjacent
            ]
            assert edge_pairs(sub) == tuple(expected)
            for k, vertex in enumerate(ids):
                assert np.array_equal(sub.features[k], features.x[graph.row_of[vertex]])


def _id_adjacency(graph) -> dict[str, tuple[str, ...]]:
    """Each cell's id-sorted neighbour ids, from the edge table alone."""
    adjacency: dict[str, list[str]] = {cid: [] for cid in graph.cell_ids}
    for a, b, _ in graph.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return {cid: tuple(sorted(ids)) for cid, ids in adjacency.items()}


def _oracle_subgraph(graph, adjacency, center, cfg, features, rng):
    """The sampler over per-cell id tuples that CSR rows replaced, kept as the
    reference: the sampled neighbour ids, the sorted edge pairs, the feature rows."""
    neighbours = adjacency[center]
    k = min(cfg.fanout, len(neighbours))
    if k == len(neighbours):
        sampled = list(neighbours)
    else:
        idx = rng.choice(len(neighbours), size=k, replace=False)
        sampled = [neighbours[i] for i in idx]
    vertices = [center, *sampled]
    index = {cid: i for i, cid in enumerate(vertices)}
    edges = []
    for i, a in enumerate(vertices):
        for b in adjacency[a]:
            j = index.get(b)
            if j is not None and j > i:
                edges.append((i, j))
    rows = features.x[[graph.row_of[cid] for cid in vertices]]
    return tuple(sampled), tuple(sorted(edges)), rows


def _assert_entries_equal_oracle(graph, stats, cfg, epoch, entries):
    features = feature_map(graph, stats)
    adjacency = _id_adjacency(graph)
    assert entries.centers == list(graph.cell_ids)
    for got, cid in zip(each(entries), graph.cell_ids):
        tokens = ("subgraph", cid) if epoch is None else ("subgraph", cid, "epoch", epoch)
        neighbours, edges, rows = _oracle_subgraph(
            graph, adjacency, cid, cfg, features, substream(cfg.seed, *tokens)
        )
        assert (neighbors(got), edge_pairs(got)) == (neighbours, edges), cid
        assert got.features.tobytes() == rows.tobytes(), cid
        assert got.targets[0].tobytes() == features.y[graph.row_of[cid]].tobytes(), cid


def _with_isolated_cell(graph):
    """The graph plus one cell on a node of its own and with no edges."""
    lone = replace(graph.cell(graph.cell_ids[0]), cell_id="zz-lone", node_id="zz-lone-node")
    return extend_network(graph, [lone], [])


class TestCsrSamplerOracle:
    """Sampling on CSR rows draws and induces exactly what the id-tuple sampler did."""

    @pytest.mark.parametrize("epoch", [None, 3])
    @pytest.mark.parametrize("sites", [50, 200, 800])  # 300, 1,200 and 4,800 cells
    def test_dataset_equals_oracle(self, sites, epoch):
        graph, _ = generate(SynthSpec(sites=sites, seed=sites))
        assert len(graph.cell_ids) == 6 * sites
        stats = _fitted(graph)
        cfg = SamplerConfig(fanout=4, seed=11)
        entries = build_dataset(graph, stats, cfg, epoch=epoch)
        _assert_entries_equal_oracle(graph, stats, cfg, epoch, entries)

    @pytest.mark.parametrize("epoch", [None, 3])
    @pytest.mark.parametrize("fanout", [1, 10**12])  # one draw each; above every degree, no draw
    def test_fanout_extremes_equal_oracle(self, fanout, epoch):
        graph = _with_isolated_cell(generate(SynthSpec(sites=50, seed=5))[0])
        stats = _fitted(graph)
        assert graph.neighbors("zz-lone") == ()
        cfg = SamplerConfig(fanout=fanout, seed=7)
        entries = build_dataset(graph, stats, cfg, epoch=epoch)
        _assert_entries_equal_oracle(graph, stats, cfg, epoch, entries)
        assert entries.vptr[-1] - entries.vptr[-2] == 1


def _assert_same_subgraphs(got, want):
    for name in ("rows", "vptr", "edges", "eptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.features.tobytes() == want.features.tobytes()
    assert got.targets.tobytes() == want.targets.tobytes()
    assert got.edges.dtype == want.edges.dtype == np.intp


class TestOneSampler:
    """``sample_subgraph`` is the one-centre case of ``build_dataset``'s pass."""

    def test_sample_subgraph_equals_dataset_entry(self):
        graph, _ = generate(SynthSpec(sites=50, seed=3))
        stats = _fitted(graph)
        features = feature_map(graph, stats)
        cfg = SamplerConfig(fanout=4, seed=2)
        for got, cid in zip(each(build_dataset(graph, stats, cfg)), graph.cell_ids, strict=True):
            _assert_same_subgraphs(sample_subgraph(graph, cid, cfg, features), got)

    @pytest.mark.parametrize("kind", ["expansion", "greenfield"])
    def test_new_cells_equal_dataset_entries(self, kind):
        spec = SynthSpec(sites=50, seed=4)
        graph, truth = generate(spec)
        if kind == "expansion":
            cells, edges, _ = synthesize_expansion(graph, truth, spec, 6, seed=9)
        else:
            cells, edges, _ = synthesize_greenfield(graph, truth, spec, 2, seed=9)
        augmented = extend_network(graph, cells, edges)
        stats = _fitted(graph)
        features = feature_map(augmented, stats)
        cfg = SamplerConfig(fanout=3, seed=1)
        ids = [cell.cell_id for cell in cells]
        entries = build_dataset(augmented, stats, cfg, cells=ids)
        assert entries.centers == ids
        everything = build_dataset(augmented, stats, cfg)
        for got, cid in zip(each(entries), ids, strict=True):
            row = augmented.row_of[cid]
            _assert_same_subgraphs(sample_subgraph(augmented, cid, cfg, features), got)
            _assert_same_subgraphs(everything[row : row + 1], got)
            assert got.targets[0].tobytes() == features.y[row].tobytes()

    def test_substream_only_for_cells_that_draw(self, monkeypatch):
        graph, _ = generate(SynthSpec(sites=50, seed=6))
        stats = _fitted(graph)
        cfg = SamplerConfig(fanout=8, seed=3)
        for epoch in (None, 3):
            expected = build_dataset(graph, stats, cfg, epoch=epoch)
            calls = []

            def counting(seed, *tokens):
                calls.append((seed, *tokens))
                return substream(seed, *tokens)

            monkeypatch.setattr(sampler, "substream", counting)
            entries = build_dataset(graph, stats, cfg, epoch=epoch)
            monkeypatch.undo()
            drawing = [cid for cid in graph.cell_ids if len(graph.neighbors(cid)) > cfg.fanout]
            assert 0 < len(drawing) < len(graph.cell_ids)
            tail = () if epoch is None else ("epoch", epoch)
            assert calls == [(cfg.seed, "subgraph", cid, *tail) for cid in drawing]
            _assert_same_subgraphs(entries, expected)

    def test_huge_fanout_allocates_nothing_in_proportion(self):
        graph = _with_isolated_cell(generate(SynthSpec(sites=50, seed=5))[0])
        stats = _fitted(graph)
        features = feature_map(graph, stats)
        widest = max(len(graph.neighbors(cid)) for cid in graph.cell_ids)
        reference = build_dataset(graph, stats, SamplerConfig(fanout=widest, seed=1))
        huge = SamplerConfig(fanout=10**12, seed=1)
        tracemalloc.start()
        try:
            entries = build_dataset(graph, stats, huge)
            single = sample_subgraph(graph, "zz-lone", huge, features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        _assert_same_subgraphs(entries, reference)
        assert len(single.rows) == 1

    def test_huge_fanout_accepted_by_config_checkpoint_and_embed(self, tmp_path):
        # In process: the CLI's embed samples with the checkpoint's fanout.
        graph = generate(SynthSpec(sites=20, seed=5))[0]
        stats = _fitted(graph)
        assert config_from_values({"fanout": 10**12}).sampler().fanout == 10**12
        network = tmp_path / "network.json"
        network.write_text(json.dumps(graph.to_json()))
        widest = max(len(graph.neighbors(cid)) for cid in graph.cell_ids)
        stores = []
        for fanout in (widest, 10**12):
            arch = ArchConfig(in_dim=graph.schema.predictor_dim)
            encoder = init_encoder(arch, 3)
            checkpoint = Checkpoint("untrained", arch, 3, schema_hash(graph.schema), stats, encoder, fanout=fanout)
            assert Checkpoint.from_json(json.loads(json.dumps(checkpoint.to_json())), graph.schema).fanout == fanout
            path = tmp_path / f"ckpt-{fanout}.json"
            path.write_text(json.dumps(checkpoint.to_json()))
            assert main(["embed", str(network), str(path), "--out", str(tmp_path / f"store-{fanout}.json")]) == 0
            stores.append(json.loads((tmp_path / f"store-{fanout}.json").read_text())["records"])
        assert stores[0] == stores[1]
