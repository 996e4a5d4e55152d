"""Synthetic network generator: determinism, structure, learnability."""

from __future__ import annotations

import json

import pytest

from ranrec.graph import feature_map, fit_normalization
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
