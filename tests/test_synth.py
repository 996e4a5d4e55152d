"""Synthetic network generator: determinism, structure, learnability."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from ranrec import synth
from ranrec.cli import main
from ranrec.graph import feature_map, fit_normalization
from ranrec.rng import substream
from ranrec.synth import (
    SynthSpec,
    _TECH_DESIGN,
    generate,
    synthesize_expansion,
    synthesize_greenfield,
)

from conftest import learnability_check


def small_spec(**overrides) -> SynthSpec:
    base = dict(
        sites=6,
        cells_per_site=4,
        context_clusters=3,
        config_noise=0.02,
        misconfig_rate=0.1,
        misconfig_magnitude=5.0,
        inter_site_degree=2,
        seed=3,
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestGenerate:
    def test_single_site_clique(self):
        graph, truth = generate(
            SynthSpec(sites=1, cells_per_site=3, misconfig_rate=0.0, seed=0)
        )
        assert len(graph.cells) == 3
        assert len(graph.edges) == 3
        assert all(kind == "intra_node" for _, _, kind in graph.edges)

    def test_zero_misconfig_rate(self):
        _, truth = generate(small_spec(misconfig_rate=0.0))
        assert truth.corrupted_ids == ()

    def test_byte_identical_reruns(self):
        spec = small_spec()
        graph_a, truth_a = generate(spec)
        graph_b, truth_b = generate(spec)
        dump = lambda g, t: (json.dumps(g.to_json(), sort_keys=True), json.dumps(t.to_json(), sort_keys=True))  # noqa: E731
        assert dump(graph_a, truth_a) == dump(graph_b, truth_b)

    def test_different_seeds_differ(self):
        a, _ = generate(small_spec(seed=1))
        b, _ = generate(small_spec(seed=2))
        assert json.dumps(a.to_json()) != json.dumps(b.to_json())

    def test_counts_and_ratio(self):
        spec = small_spec(sites=5, cells_per_site=6)
        graph, _ = generate(spec)
        assert len(graph.cells) == 30
        technologies = [c.technology for c in graph.cells]
        assert technologies.count("LTE") == 20
        assert technologies.count("NR") == 10

    def test_corrupted_count_exact(self):
        spec = small_spec(sites=10, cells_per_site=5, misconfig_rate=0.1)
        _, truth = generate(spec)
        assert len(truth.corrupted_ids) == round(0.1 * 50)

    def test_graph_invariants_hold(self):
        graph, _ = generate(small_spec())
        # constructing RanGraph already validates; spot check symmetry
        for a, b, _ in graph.edges:
            assert b in graph.neighbors(a) and a in graph.neighbors(b)

    def test_infeasible_degree(self):
        with pytest.raises(ValueError, match="infeasible"):
            SynthSpec(sites=3, inter_site_degree=5)

    def test_corruption_moves_attribute_by_half_range(self):
        spec = small_spec(misconfig_rate=0.2, misconfig_magnitude=5.0)
        graph, truth = generate(spec)
        for cid in truth.corrupted_ids:
            cell = graph.cell(cid)
            clean = truth.cells[cid].clean_configs
            designs = {c.name: c for c in _TECH_DESIGN[cell.technology]["configs"]}
            moved = [
                name
                for name, value in cell.raw_configs.items()
                if abs(value - clean[name])
                >= 0.5 * spec.misconfig_magnitude * (designs[name].high - designs[name].low)
            ]
            assert len(moved) >= 2

    def test_same_cluster_same_predictors_same_clean_config(self):
        graph, truth = generate(small_spec(sites=12, config_noise=0.0))
        by_profile: dict[tuple, list[str]] = {}
        for cell in graph.cells:
            key = (
                truth.cells[cell.cell_id].cluster,
                cell.technology,
                round(cell.raw_predictors[f"{cell.technology.lower()}ChannelNumber"], 9),
            )
            by_profile.setdefault(key, []).append(cell.cell_id)
        for ids in by_profile.values():
            configs = [truth.cells[cid].clean_configs for cid in ids]
            for other in configs[1:]:
                assert other == configs[0]


class TestLearnability:
    def test_zero_noise_oracle_accuracy(self):
        graph, truth = generate(small_spec(sites=12, config_noise=0.0, misconfig_rate=0.0))
        report = learnability_check(graph, truth)
        assert report.oracle_accuracy >= 0.98
        assert report.learnable

    def test_saturating_noise_flags_unlearnable(self):
        graph, truth = generate(small_spec(sites=12, config_noise=1.0, misconfig_rate=0.0))
        report = learnability_check(graph, truth)
        assert report.oracle_accuracy < 0.98
        assert not report.learnable

    def test_single_cluster_zero_noise_exact(self):
        graph, truth = generate(
            small_spec(sites=8, context_clusters=1, config_noise=0.0, misconfig_rate=0.0)
        )
        report = learnability_check(graph, truth)
        assert report.oracle_accuracy == pytest.approx(1.0, abs=1e-12)


class TestScenarioSynthesis:
    def test_expansion_cells_live_on_existing_nodes(self):
        spec = small_spec()
        graph, truth = generate(spec)
        cells, edges, new_truth = synthesize_expansion(graph, truth, spec, 5, seed=1)
        assert len(cells) == 5
        assert edges == []
        node_ids = {c.node_id for c in graph.cells}
        for cell in cells:
            assert cell.node_id in node_ids
            assert cell.raw_configs == {}
            assert new_truth[cell.cell_id].clean_configs

    def test_greenfield_new_nodes_inter_edges_only(self):
        spec = small_spec()
        graph, truth = generate(spec)
        cells, edges, new_truth = synthesize_greenfield(graph, truth, spec, 2, seed=2)
        assert len(cells) == 2 * spec.cells_per_site
        existing_nodes = {c.node_id for c in graph.cells}
        for cell in cells:
            assert cell.node_id not in existing_nodes
        for a, b, kind in edges:
            assert kind == "inter_node"


class TestNormalizedCorruptionVisibility:
    def test_corrupted_values_normalize_to_extreme(self):
        spec = small_spec(sites=10, cells_per_site=6, misconfig_rate=0.1)
        graph, truth = generate(spec)
        stats = fit_normalization(graph, graph.cell_ids)
        features = feature_map(graph, stats)
        for cid in truth.corrupted_ids:
            y = features.y[graph.row_of[cid]]
            assert y.max() >= 0.99  # corrupted attribute pins the observed max


# ---------------------------------------------------------------------------
# Nearest sites: the blocked array pass against one Python sort per site


def _oracle_nearest(positions: np.ndarray, query: np.ndarray, count: int, skip: int | None = None) -> list[int]:
    """The ``count`` sites nearest ``query`` by one ``sorted`` on (distance, index)."""
    dists = np.linalg.norm(positions - query, axis=1)
    order = sorted(range(len(positions)), key=lambda j: (dists[j], j))
    return [j for j in order if j != skip][:count]


def _oracle_edges(spec: SynthSpec, positions: np.ndarray) -> list[tuple[str, str, str]]:
    if spec.sites == 1 or spec.inter_site_degree == 0:
        return []
    pairs = {
        (min(s, other), max(s, other))
        for s in range(spec.sites)
        for other in _oracle_nearest(positions, positions[s], spec.inter_site_degree, skip=s)
    }
    edges = set()
    for s, other in pairs:
        for c in range(spec.cells_per_site):
            a, b = f"S{s:03d}C{c}", f"S{other:03d}C{c}"
            edges.add((min(a, b), max(a, b)))
    return [(a, b, "inter_node") for a, b in sorted(edges)]


def _positions(sites: int, layout: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if layout == "uniform":
        return rng.uniform(0.0, 100.0, size=(sites, 2))
    return np.floor(rng.uniform(0.0, 4.0, size=(sites, 2)))  # a 4 x 4 grid: duplicate sites, tied distances


NEAREST_CASES = sorted(
    {(sites, degree) for sites in (1, 2, 4, 50, 800) for degree in (0, 1, 3, sites - 1) if sites == 1 or degree < sites}
)
# Degree sites - 1 joins every pair of sites, whatever the layout; at 800 sites
# its 319,600 site pairs are checked once, with one cell per site.
EDGE_CASES = [
    (sites, degree, layout)
    for sites, degree in NEAREST_CASES
    for layout in ("uniform", "grid")
    if not (sites == 800 and degree == 799 and layout == "grid")
]

# sha256 of (network.json, ground_truth.json) written by `ranrec synth` before
# the nearest-site search and the cell draws were vectorised.
SYNTH_SHA256 = {
    (6, 23): (
        "ad88303d53513455ecc4943edbde3a9c6c2af20803ef12b5d8d29abe7ed2a82c",
        "abd46eec6914b2855d5e788b9f593e8e3abbd53e41182f75e687871c67a1d836",
    ),
    (200, 1): (
        "2cd8352c791e793205129baa2398b44a250b31626a73e37bef98c3cd536ad3e0",
        "0630cb0b1ec895f55965ef23670df932da2ab40e6691bbf0d10a49609d437b64",
    ),
}


class TestNearestSites:
    @pytest.mark.parametrize("sites, degree, layout", EDGE_CASES)
    def test_inter_site_edges_match_sorted_oracle(self, sites, degree, layout):
        spec = SynthSpec(sites=sites, cells_per_site=1 if degree == 799 else 2, inter_site_degree=degree)
        positions = _positions(sites, layout, seed=sites + degree)
        edges = synth._inter_site_edges(spec, positions, synth._tech_pattern(spec))
        assert edges == _oracle_edges(spec, positions)

    @pytest.mark.parametrize("layout", ["uniform", "grid"])
    @pytest.mark.parametrize("sites, degree", NEAREST_CASES)
    def test_greenfield_edges_match_sorted_oracle(self, monkeypatch, sites, degree, layout):
        spec = SynthSpec(sites=sites, cells_per_site=2, inter_site_degree=degree)
        positions = _positions(sites, layout, seed=sites + degree)
        monkeypatch.setattr(synth, "_site_positions", lambda _: positions)
        queries = []
        nearest = synth._nearest_sites

        def recording(positions, query, count, skip_self=False):
            queries.append(query[0].copy())
            return nearest(positions, query, count, skip_self)

        monkeypatch.setattr(synth, "_nearest_sites", recording)
        _, edges, _ = synthesize_greenfield(None, None, spec, 5, seed=sites)
        assert len(queries) == 5  # one query per new site, in the order they are drawn
        assert np.array_equal(queries[0], substream(sites, "greenfield").uniform(0.0, 100.0, size=2))
        expected = []
        for i, query in enumerate(queries):
            order = _oracle_nearest(positions, query, min(degree, sites))
            for c in range(spec.cells_per_site):
                expected += [(f"GF{i:03d}C{c}", f"S{s:03d}C{c}", "inter_node") for s in order]
        assert edges == expected

    def test_blocks_bound_memory(self):
        positions = _positions(2000, "uniform", seed=0)
        tracemalloc.start()
        try:
            synth._nearest_sites(positions, positions, 3, skip_self=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # one unblocked difference array alone is 64 MB

    @pytest.mark.parametrize("sites, seed", sorted(SYNTH_SHA256))
    def test_cli_output_is_pinned(self, tmp_path, sites, seed):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"sites": sites, "seed": seed}))
        assert main(["synth", str(spec), "--out", str(tmp_path / "net")]) == 0
        digests = tuple(
            hashlib.sha256((tmp_path / "net" / name).read_bytes()).hexdigest()
            for name in ("network.json", "ground_truth.json")
        )
        assert digests == SYNTH_SHA256[(sites, seed)]
