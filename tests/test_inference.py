"""Embedding store: distances, retrieval, majority voting, persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ranrec.anomaly import fit_forest
from ranrec.gnn import ArchConfig, Checkpoint, init_encoder, schema_hash
from ranrec.graph import RanGraph, fit_normalization
from ranrec.inference import (
    STORE_FORMAT,
    EmbeddingStore,
    StoreBundle,
    distance_set,
    embed_new_cell,
    nearest,
    recommend_closest,
    recommend_majority,
)
from ranrec.sampler import SamplerConfig, build_dataset, sample_subgraph
from ranrec.graph import feature_map

from conftest import small_schema, star_graph


def make_store(n_records: int, d: int = 4, seed: int = 0) -> EmbeddingStore:
    arch = ArchConfig(
        in_dim=3, embedding_dim=d, layers=1, heads=1, head_dim=2, ffn_hidden=2, hidden_dim=2
    )
    store = EmbeddingStore(init_encoder(arch, seed))
    rng = np.random.default_rng(seed)
    for i in range(n_records):
        store.add(f"cell{i:04d}", rng.normal(size=d), rng.random(4))
    return store


def oracle_ranking(store, z, exclude=None):
    """(cell id, distance) of every record but ``exclude``, by a per-record scan."""
    ranked = sorted((float(np.linalg.norm(r.z - z)), r.cell_id) for r in store.records)
    return [(cid, dist) for dist, cid in ranked if cid != exclude]


class TestStore:
    def test_add_and_length(self):
        store = make_store(3)
        assert len(store) == 3

    def test_duplicate_id_rejected(self):
        store = make_store(2)
        with pytest.raises(ValueError, match="already stored"):
            store.add("cell0000", np.zeros(4), np.zeros(4))

    def test_dimension_checked(self):
        store = make_store(1)
        with pytest.raises(ValueError, match="dimension"):
            store.add("other", np.zeros(7), np.zeros(4))

    def test_ragged_config_rejected(self):
        store = make_store(2)
        with pytest.raises(ValueError, match="config length 4"):
            store.add("other", np.zeros(4), np.zeros(3))
        assert len(store) == 2 and store.y.shape == (2, 4)

    def test_rejected_batch_leaves_store_unchanged(self):
        store = make_store(2)
        with pytest.raises(ValueError, match="already stored"):
            store.extend(["a", "b", "a"], np.zeros((3, 4)), np.zeros((3, 4)))
        with pytest.raises(ValueError, match="dimension"):
            store.extend(["a", "b"], np.zeros((3, 4)), np.zeros((2, 4)))
        assert store.ids == ["cell0000", "cell0001"] and store.z.shape == (2, 4)
        store.add("a", np.ones(4), np.ones(4))
        assert store.ids[-1] == "a" and store.z[-1].tolist() == [1.0] * 4

    def test_records_are_rows(self):
        store = make_store(3)
        for i, record in enumerate(store.records):
            assert record.cell_id == store.ids[i]
            assert np.array_equal(record.z, store.z[i]) and np.array_equal(record.y, store.y[i])


class TestDistanceSet:
    def test_exact_match_sorts_first(self):
        store = make_store(5)
        z = store.records[3].z
        assert distance_set(store, z)[3] == 0.0
        assert nearest(store, z, 1) == (("cell0003", 0.0),)

    def test_singleton(self):
        store = make_store(1)
        assert len(distance_set(store, np.zeros(4))) == 1

    def test_sorted_matches_brute_force(self):
        store = make_store(200, seed=3)
        rng = np.random.default_rng(9)
        z = rng.normal(size=4)
        brute = [float(np.linalg.norm(r.z - z)) for r in store.records]
        assert distance_set(store, z).tolist() == brute
        assert list(nearest(store, z, len(store))) == oracle_ranking(store, z)

    def test_empty_store(self):
        store = make_store(0)
        with pytest.raises(ValueError, match="empty"):
            distance_set(store, np.zeros(4))

    def test_insertion_order_irrelevant(self):
        a = make_store(20, seed=5)
        b = EmbeddingStore(a.encoder)
        for record in reversed(a.records):
            b.add(record.cell_id, record.z, record.y)
        z = np.zeros(4)
        assert nearest(a, z, 20) == nearest(b, z, 20)


class TestNearest:
    def test_ranking_order(self):
        store = make_store(2)
        store.z[0] = 0.0
        store.z[1] = [2.0, 0.0, 0.0, 0.0]
        ranked = nearest(store, np.array([1.0, 0.0, 0.0, 0.0]), 2)
        assert ranked[0][1] == pytest.approx(1.0)
        assert len(ranked) == 2
        assert nearest(store, np.array([1.0, 0.0, 0.0, 0.0]), 1) == ranked[:1]

    def test_non_decreasing_sequence(self):
        store = make_store(30, seed=7)
        distances = [dist for _, dist in nearest(store, np.zeros(4), 30)]
        assert distances == sorted(distances)

    def test_k_out_of_range(self):
        store = make_store(1)
        for k in (0, 2):
            with pytest.raises(ValueError, match="out of range"):
                nearest(store, np.zeros(4), k)
        with pytest.raises(ValueError, match="out of range"):
            nearest(store, np.zeros(4), 1, exclude="cell0000")

    def test_exclude_matches_oracle(self):
        store = make_store(60, seed=15)
        for record in store.records:
            for k in (1, 4):
                expected = oracle_ranking(store, record.z, exclude=record.cell_id)[:k]
                assert list(nearest(store, record.z, k, exclude=record.cell_id)) == expected
        z = np.zeros(4)
        assert list(nearest(store, z, 3, exclude="absent")) == oracle_ranking(store, z)[:3]

    def test_ties_at_cutoff_beyond_k(self):
        store = make_store(10, seed=16)
        shared = np.full(4, 3.0)
        for name in ("tie9", "tie3", "tie7", "tie1", "tie5", "tie0"):
            store.add(name, shared, np.zeros(4))
        store.add("near", np.full(4, 2.9), np.zeros(4))
        z = np.full(4, 2.95)
        for k in (1, 2, 3, 4):
            assert list(nearest(store, z, k)) == oracle_ranking(store, z)[:k]
        assert [cid for cid, _ in nearest(store, shared, 3)] == ["tie0", "tie1", "tie3"]
        assert list(nearest(store, shared, 3, exclude="tie1")) == oracle_ranking(
            store, shared, exclude="tie1"
        )[:3]

    def test_store_grown_between_queries(self):
        store = make_store(40, seed=17)
        rng = np.random.default_rng(18)
        queries = rng.normal(size=(5, 4))
        for step in range(10):
            for z in queries:
                assert list(nearest(store, z, 3)) == oracle_ranking(store, z)[:3]
            store.add(f"grown{step}", queries[step % 5] + 1e-3 * step, rng.random(4))
        assert len(store) == 50


class TestRecommendClosest:
    """Closest-record recommendation: the vote of one."""

    def test_singleton_store(self, schema):
        store = make_store(1)
        rec = recommend_majority(store, np.zeros(4), 1, schema)
        assert np.array_equal(rec.y_hat, store.records[0].y)
        assert len(rec.sources) == 1

    def test_query_at_stored_embedding(self, schema):
        store = make_store(10)
        rec = recommend_majority(store, store.records[4].z, 1, schema)
        assert rec.sources[0][0] == "cell0004"
        assert np.array_equal(rec.y_hat, store.records[4].y)

    def test_tie_breaks_to_smaller_id(self, schema):
        arch = ArchConfig(
            in_dim=3, embedding_dim=2, layers=1, heads=1, head_dim=2, ffn_hidden=2, hidden_dim=2
        )
        store = EmbeddingStore(init_encoder(arch, 0))
        store.add("zeta", np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))
        store.add("alpha", np.array([-1.0, 0.0]), np.array([2.0, 0.0, 0.0, 0.0]))
        rec = recommend_majority(store, np.zeros(2), 1, schema)  # both at distance 1
        assert rec.sources[0][0] == "alpha"
        assert rec.y_hat.tolist() == [2.0, 0.0, 0.0, 0.0]

    def test_exclude_leaves_one_out(self, schema):
        store = make_store(30, seed=8)
        for record in store.records:
            rec = recommend_majority(store, record.z, 1, schema, exclude=record.cell_id)
            expected = TestBruteForceOracle.oracle_closest(
                [r for r in store.records if r.cell_id != record.cell_id], record.z
            )
            assert rec.sources[0][0] == expected.cell_id
            assert np.array_equal(rec.y_hat, expected.y)


class TestRecommendMajority:
    def _store(self, ys, zs=None):
        arch = ArchConfig(
            in_dim=3, embedding_dim=2, layers=1, heads=1, head_dim=2, ffn_hidden=2, hidden_dim=2
        )
        store = EmbeddingStore(init_encoder(arch, 0))
        for i, y in enumerate(ys):
            z = zs[i] if zs is not None else np.array([float(i), 0.0])
            store.add(f"c{i}", z, np.asarray(y, dtype=np.float64))
        return store

    def test_k1_equals_closest(self, schema):
        store = make_store(8, seed=2)
        z = np.random.default_rng(0).normal(size=4)
        majority = recommend_majority(store, z, 1, small_schema())
        closest = TestBruteForceOracle.oracle_closest(store.records, z)
        assert np.array_equal(majority.y_hat, closest.y)
        assert majority.sources == ((closest.cell_id, float(np.linalg.norm(closest.z - z))),)
        named = recommend_closest(store, z, small_schema())
        assert np.array_equal(named.y_hat, majority.y_hat) and named.sources == majority.sources

    def test_discrete_mode_majority(self, schema):
        # schema config layout: LTE power (median), LTE preamble (mode), NR...
        ys = [[0.0, 2.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0], [0.0, 6.0, 0.0, 0.0]]
        store = self._store(ys)
        rec = recommend_majority(store, np.zeros(2), 3, schema)
        assert rec.y_hat[1] == 2.0

    def test_continuous_median(self, schema):
        ys = [[0.1, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.9, 0.0, 0.0, 0.0]]
        store = self._store(ys)
        rec = recommend_majority(store, np.zeros(2), 3, schema)
        assert rec.y_hat[0] == pytest.approx(0.5)

    def test_mode_tie_goes_to_nearer_neighbor(self, schema):
        # two votes each for 2.0 and 6.0; nearest neighbor carries 6.0
        ys = [[0.0, 6.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0], [0.0, 6.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]]
        store = self._store(ys)
        rec = recommend_majority(store, np.array([-0.1, 0.0]), 4, schema)
        assert rec.y_hat[1] == 6.0

    def test_k_out_of_range(self, schema):
        store = make_store(3)
        with pytest.raises(ValueError, match="out of range"):
            recommend_majority(store, np.zeros(4), 4, schema)
        with pytest.raises(ValueError, match="out of range"):
            recommend_majority(store, np.zeros(4), 0, schema)

    def test_k_equals_store_size_independent_of_query(self, schema):
        rng = np.random.default_rng(4)
        ys = rng.random((6, 4))
        ys[:, 1] = [2.0, 2.0, 2.0, 6.0, 6.0, 4.0]  # unique mode per discrete slot
        ys[:, 3] = [1.0, 5.0, 5.0, 5.0, 1.0, 3.0]
        store = self._store(ys.tolist(), zs=rng.normal(size=(6, 2)))
        a = recommend_majority(store, rng.normal(size=2), 6, schema)
        b = recommend_majority(store, rng.normal(size=2), 6, schema)
        assert np.allclose(a.y_hat, b.y_hat, atol=1e-12)

    def test_votes_stay_in_unit_interval(self, schema):
        rng = np.random.default_rng(5)
        ys = rng.random((10, 4))
        store = self._store(ys.tolist(), zs=rng.normal(size=(10, 2)))
        rec = recommend_majority(store, rng.normal(size=2), 5, schema)
        assert rec.y_hat.min() >= 0.0 and rec.y_hat.max() <= 1.0


class TestBruteForceOracle:
    """Retrieval must agree exactly with an independent linear-scan oracle."""

    @staticmethod
    def oracle_closest(records, z):
        best = None
        for r in records:
            key = (float(np.linalg.norm(r.z - z)), r.cell_id)
            if best is None or key < best[0]:
                best = (key, r)
        return best[1]

    @staticmethod
    def oracle_majority(records, z, k, schema):
        ranked = sorted(records, key=lambda r: (float(np.linalg.norm(r.z - z)), r.cell_id))[:k]
        votes = np.stack([r.y for r in ranked])
        out = np.empty(votes.shape[1])
        for slot, spec in enumerate(schema.config_layout):
            column = votes[:, slot]
            if spec.aggregation == "mode":
                counts: dict[float, int] = {}
                first: dict[float, int] = {}
                for i, v in enumerate(column.tolist()):
                    counts[v] = counts.get(v, 0) + 1
                    first.setdefault(v, i)
                out[slot] = max(counts, key=lambda v: (counts[v], -first[v]))
            elif spec.aggregation == "mean":
                out[slot] = column.mean()
            else:
                out[slot] = np.median(column)
        return out

    def test_closest_matches_oracle_on_1000_queries(self, schema):
        store = make_store(200, seed=11)
        rng = np.random.default_rng(12)
        for _ in range(1000):
            z = rng.normal(size=4)
            rec = recommend_majority(store, z, 1, schema)
            expected = self.oracle_closest(store.records, z)
            assert rec.sources[0][0] == expected.cell_id
            assert np.array_equal(rec.y_hat, expected.y)

    def test_majority_matches_oracle(self, schema):
        store = make_store(200, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(300):
            z = rng.normal(size=4)
            k = int(rng.integers(1, 9))
            rec = recommend_majority(store, z, k, schema)
            expected = self.oracle_majority(store.records, z, k, schema)
            assert np.allclose(rec.y_hat, expected, atol=0.0), (k, rec.y_hat, expected)


class TestAddToStore:
    def test_growth_and_self_distance(self):
        store = make_store(4)
        z = np.full(4, 0.25)
        store.add("new", z, np.zeros(4))
        assert len(store) == 5
        assert nearest(store, z, 1)[0] == ("new", 0.0)

    def test_duplicate_rejected(self):
        store = make_store(2)
        with pytest.raises(ValueError):
            store.add("cell0001", np.zeros(4), np.zeros(4))

    def test_later_cells_can_cite_earlier_additions(self, schema):
        store = make_store(3, seed=21)
        far = np.full(4, 50.0)
        store.add("first_new", far, np.full(4, 0.5))
        rec = recommend_majority(store, far + 0.01, 1, schema)
        assert rec.sources[0][0] == "first_new"


class TestEmbedNewCell:
    def _bundle(self):
        graph = star_graph(5)
        stats = fit_normalization(graph, graph.cell_ids)
        arch = ArchConfig(
            in_dim=graph.schema.predictor_dim,
            embedding_dim=3,
            layers=1,
            heads=2,
            head_dim=3,
            ffn_hidden=4,
            hidden_dim=4,
        )
        encoder = init_encoder(arch, 3)
        store = EmbeddingStore(encoder)
        dataset = build_dataset(graph, stats, SamplerConfig(fanout=3, seed=0))
        from ranrec.gnn import encode

        for i, center in enumerate(dataset.centers):
            store.add(center, encode(encoder, dataset[i : i + 1]), dataset.targets[i])
        return graph, stats, store

    def test_same_subgraph_same_embedding(self):
        graph, stats, store = self._bundle()
        features = feature_map(graph, stats)
        sub = sample_subgraph(graph, "hub", SamplerConfig(fanout=3, seed=0), features)
        assert np.array_equal(embed_new_cell(store, sub), embed_new_cell(store, sub))

    def test_training_subgraph_reproduces_stored_embedding(self):
        graph, stats, store = self._bundle()
        features = feature_map(graph, stats)
        sub = sample_subgraph(graph, "spoke00", SamplerConfig(fanout=3, seed=0), features)
        z = embed_new_cell(store, sub)
        assert np.allclose(z, store.z[store.ids.index("spoke00")])

    def test_isolated_cell_embeds_finite(self):
        graph, stats, store = self._bundle()
        features = feature_map(graph, stats)
        sub = sample_subgraph(graph, "nrpad", SamplerConfig(fanout=3, seed=0), features)
        z = embed_new_cell(store, sub)
        assert z.shape == (3,)
        assert np.isfinite(z).all()


class TestStoreBundle:
    def _bundle(self) -> StoreBundle:
        graph = star_graph(4)
        stats = fit_normalization(graph, graph.cell_ids)
        arch = ArchConfig(
            in_dim=graph.schema.predictor_dim,
            embedding_dim=3,
            layers=1,
            heads=1,
            head_dim=2,
            ffn_hidden=2,
            hidden_dim=2,
        )
        encoder = init_encoder(arch, 9)
        checkpoint = Checkpoint(
            model="sgnn",
            arch=arch,
            seed=9,
            schema_digest=schema_hash(graph.schema),
            stats=stats,
            encoder=encoder,
            fanout=3,
        )
        bundle = StoreBundle(graph=graph, checkpoint=checkpoint)
        rng = np.random.default_rng(0)
        bundle.store.extend(graph.cell_ids, rng.normal(size=(len(graph.cell_ids), 3)), feature_map(graph, stats).y)
        return bundle

    def test_roundtrip(self):
        bundle = self._bundle()
        loaded = StoreBundle.from_json(bundle.to_json())
        assert [r.cell_id for r in loaded.store.records] == list(bundle.graph.cell_ids)
        for a, b in zip(bundle.store.records, loaded.store.records):
            assert np.array_equal(a.z, b.z)
            assert np.array_equal(a.y, b.y)
        for pa, pb in zip(
            bundle.checkpoint.encoder.parameters(), loaded.checkpoint.encoder.parameters()
        ):
            assert np.array_equal(pa.value, pb.value)

    def test_records_are_id_and_embedding(self):
        bundle = self._bundle()
        payload = bundle.to_json()
        assert payload["format"] == "ranrec-store/4"
        assert all(record.keys() == {"cell_id", "z"} for record in payload["records"])
        # The config vectors come back from the network's config column.
        loaded = StoreBundle.from_json(payload)
        assert loaded.store.y.tobytes() == feature_map(bundle.graph, bundle.stats).y.tobytes()

    @pytest.mark.parametrize(
        "name, value",
        [
            ("z", [0.0, float("nan"), 0.0]),
            ("z", [0.0, 0.0]),
            ("z", [0.0, float("inf"), 0.0]),
            ("z", [0.0, 0.0, 0.0, 0.0]),
            ("z", [[0.0, 0.0, 0.0]]),
        ],
    )
    def test_bad_record_rejected_by_index(self, name, value):
        payload = self._bundle().to_json()
        payload["records"][2][name] = value
        with pytest.raises(ValueError, match=f"record 2: {name} is not"):
            StoreBundle.from_json(payload)

    def test_lowest_of_two_bad_records_named(self):
        payload = self._bundle().to_json()
        payload["records"][3]["z"] = [0.0, 0.0]
        payload["records"][1]["z"] = [0.0, float("nan"), 0.0]
        with pytest.raises(ValueError, match="record 1: z is not 3 finite numbers"):
            StoreBundle.from_json(payload)

    def test_ragged_z_names_its_record(self):
        payload = self._bundle().to_json()
        payload["records"][3]["z"] = [[0.0, 0.0], [0.0]]
        with pytest.raises(ValueError, match="record 3: z is not 3 finite numbers"):
            StoreBundle.from_json(payload)

    def test_older_format_asks_for_embed(self):
        payload = self._bundle().to_json()
        payload["format"] = "ranrec-store/2"
        for record in payload["records"]:
            record["y"] = [0.5] * 4
        with pytest.raises(ValueError, match=r"'ranrec-store/2', expected 'ranrec-store/4'.*re-run `ranrec embed`"):
            StoreBundle.from_json(payload)

    def test_z_of_one_element_lists_rejected_by_index(self):
        payload = self._bundle().to_json()
        for record in payload["records"]:
            record["z"] = [[v] for v in record["z"]]
        with pytest.raises(ValueError, match="record 0: z is not 3 finite numbers"):
            StoreBundle.from_json(payload)

    def test_zero_records_load_empty(self):
        bundle = self._bundle()
        empty = StoreBundle(graph=RanGraph(bundle.schema, []), checkpoint=bundle.checkpoint)
        loaded = StoreBundle.from_json(empty.to_json())
        assert len(loaded.store) == 0
        assert loaded.store.z.shape == (0, 3) and loaded.store.y.shape == (0, 4)
        # Zero records over a network of four cells disagree with it.
        payload = bundle.to_json()
        payload["records"] = []
        with pytest.raises(ValueError, match=r"records\[0\]: record ids must be network.cell_ids"):
            StoreBundle.from_json(payload)

    def test_forest_and_network_round_trip_through_json(self):
        bundle = self._bundle()
        bundle.forest = fit_forest(bundle.store.z, t=7, seed=4)
        loaded = StoreBundle.from_json(json.loads(json.dumps(bundle.to_json(), sort_keys=True)))
        for name in ("feature", "threshold", "children", "path", "roots"):
            assert np.array_equal(getattr(loaded.forest, name), getattr(bundle.forest, name), equal_nan=True)
        assert (loaded.forest.psi, loaded.forest.n, loaded.forest.seed, loaded.forest.dim) == (6, 6, 4, 3)
        assert loaded.graph.cells == bundle.graph.cells and loaded.graph.edges == bundle.graph.edges
        assert loaded.graph.row_of == bundle.graph.row_of
        assert [loaded.graph.neighbors(cid) for cid in loaded.graph.cell_ids] == [
            bundle.graph.neighbors(cid) for cid in bundle.graph.cell_ids
        ]

    def test_no_forest_round_trips_as_null(self):
        payload = self._bundle().to_json()
        assert payload["forest"] is None and payload["format"] == STORE_FORMAT
        assert StoreBundle.from_json(payload).forest is None
