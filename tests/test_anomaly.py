"""Isolation forest: construction rules, path lengths, score behavior."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ranrec
from ranrec.anomaly import (
    DegenerateEmbeddingsError,
    IsolationForest,
    _mean_path_lengths,
    _scores,
    _split_value,
    anomaly_score,
    average_path_length,
    fit_forest,
    score_network,
    store_matrix,
)
from ranrec.gnn import ArchConfig, init_encoder
from ranrec.inference import EmbeddingStore
from ranrec.rng import substream


def expected_path_length(forest: IsolationForest, z: np.ndarray) -> float:
    """E(h(z)): the mean path length of one query point over the trees."""
    return float(_mean_path_lengths(forest, np.asarray(z, dtype=np.float64).reshape(1, -1))[0])


def cluster_with_outlier(n=99, d=2, radius=1.0, factor=10.0, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.normal(scale=radius, size=(n, d))
    outlier = np.full(d, factor * radius)
    return np.vstack([points, outlier])


def is_leaf(forest, node):
    return forest.children[node, 0] == node == forest.children[node, 1]


def walk(forest, node, depth=0):
    """(node, depth) of a subtree in pre-order, left before right."""
    yield node, depth
    if not is_leaf(forest, node):
        for child in forest.children[node]:
            yield from walk(forest, child, depth + 1)


def _grow(points, depth, limit, rng, nodes):
    """Oracle: grow one tree alone, recursively, appending node rows
    ``[feature, threshold, left, right, path]`` in pre-order; return its root."""
    index = len(nodes)
    nodes.append([0, math.nan, index, index, 0.0])
    m = points.shape[0]
    if m > 1 and depth < limit:
        lows = points.min(axis=0)
        highs = points.max(axis=0)
        splittable = np.flatnonzero(np.nextafter(lows, highs) < highs)
        if splittable.size:
            dim = int(splittable[rng.integers(splittable.size)])
            value = _split_value(rng, float(lows[dim]), float(highs[dim]))
            mask = points[:, dim] < value
            left = _grow(points[mask], depth + 1, limit, rng, nodes)
            right = _grow(points[~mask], depth + 1, limit, rng, nodes)
            nodes[index][:4] = [dim, value, left, right]
            return index
    nodes[index][4] = depth + average_path_length(m)
    return index


def oracle_forest(matrix, t, psi, seed):
    """The five node arrays of ``t`` trees grown one after another."""
    nodes, roots = [], []
    for index in range(t):
        rng = substream(seed, "tree", index)
        sample = matrix[rng.choice(matrix.shape[0], size=psi, replace=False)]
        roots.append(_grow(sample, 0, math.ceil(math.log2(psi)), rng, nodes))
    table = np.array(nodes, dtype=np.float64)
    return {
        "feature": table[:, 0].astype(np.intp),
        "threshold": table[:, 1],
        "children": table[:, 2:4].astype(np.intp),
        "path": table[:, 4],
        "roots": np.array(roots, dtype=np.intp),
    }


def assert_matches_oracle(matrix, t, psi, seed):
    forest = fit_forest(matrix, t=t, psi=psi, seed=seed)
    for field, expected in oracle_forest(matrix, t, psi, seed).items():
        got = getattr(forest, field)
        assert got.dtype == expected.dtype, field
        assert np.array_equal(got, expected, equal_nan=True), field


class TestLockstepMatchesOracle:
    @pytest.mark.parametrize(
        "t, psi, d, seed",
        [
            (1, 2, 1, 0),
            (1, 256, 20, 1),
            (1, 16, 14, 2),
            (7, 3, 2, 3),
            (7, 16, 14, 4),
            (7, 256, 1, 5),
            (7, 256, 20, 6),
            (100, 2, 14, 7),
            (100, 3, 20, 8),
            (100, 16, 2, 9),
            (100, 256, 14, 10),
            (100, 256, 14, 11),
        ],
    )
    def test_random_points(self, t, psi, d, seed):
        matrix = np.random.default_rng(seed).normal(size=(300, d))
        assert_matches_oracle(matrix, t, psi, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_only_some_dimensions_split(self, seed):
        # A constant column never splits, and a three-valued column stops
        # splitting once a node holds one of its values.
        rng = np.random.default_rng(seed)
        matrix = np.column_stack(
            [rng.normal(size=200), np.full(200, 2.5), rng.choice([0.0, 0.5, 1.0], size=200)]
        )
        assert_matches_oracle(matrix, 50, 64, seed)

    def test_duplicate_rows(self):
        matrix = np.repeat(np.random.default_rng(3).normal(size=(20, 3)), 8, axis=0)
        assert_matches_oracle(matrix, 40, 64, 3)

    def test_one_ulp_and_overflowing_spans(self):
        rng = np.random.default_rng(4)
        matrix = np.column_stack(
            [
                rng.choice([1.0, np.nextafter(1.0, 2.0)], size=40),
                rng.choice([-1e308, 0.0, 1e308], size=40),
            ]
        )
        assert_matches_oracle(matrix, 30, 16, 4)


class TestFit:
    def test_two_points_single_split(self):
        forest = fit_forest(np.array([[0.0], [1.0]]), t=1, psi=2, seed=0)
        root = forest.roots[0]
        assert not is_leaf(forest, root)
        assert 0.0 < forest.threshold[root] < 1.0
        left, right = forest.children[root]
        # depth 1 plus c(1) = 0: each leaf holds exactly one point
        assert is_leaf(forest, left) and forest.path[left] == 1.0
        assert is_leaf(forest, right) and forest.path[right] == 1.0
        assert len(forest.path) == 3

    def test_same_seed_identical_forests(self):
        points = np.random.default_rng(1).normal(size=(40, 3))
        a = fit_forest(points, t=10, psi=16, seed=5)
        b = fit_forest(points, t=10, psi=16, seed=5)
        for field in ("feature", "threshold", "children", "path", "roots"):
            assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True), field

    def test_trees_are_stored_in_pre_order(self):
        points = np.random.default_rng(2).normal(size=(50, 2))
        forest = fit_forest(points, t=5, psi=32, seed=3)
        order = [node for root in forest.roots for node, _ in walk(forest, root)]
        assert order == list(range(len(forest.path)))

    def test_one_ulp_span_is_unsplittable(self):
        # No float lies strictly inside a one-ulp span, so no split value
        # exists. A subprocess with a timeout turns a hang into a failure.
        code = (
            "import numpy as np\n"
            "from ranrec.anomaly import fit_forest\n"
            "one_ulp = fit_forest(np.array([[1.0], [np.nextafter(1.0, 2.0)]]), t=1, psi=2)\n"
            "two_ulps = fit_forest(np.array([[1.0], [1.0 + 2 * np.spacing(1.0)]]), t=1, psi=2)\n"
            "print(len(one_ulp.path), len(two_ulps.path), two_ulps.threshold[0] - 1.0)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(ranrec.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "3", repr(float(np.spacing(1.0)))]

    def test_overflowing_span_splits(self):
        # hi - lo overflows to inf here; the split must still be a finite
        # value strictly between the two points rather than a hang.
        code = (
            "import numpy as np\n"
            "from ranrec.anomaly import fit_forest\n"
            "forest = fit_forest(np.array([[-1e308], [1e308]]), t=1, psi=2)\n"
            "print(len(forest.path), -1e308 < forest.threshold[0] < 1e308)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(ranrec.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["3", "True"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_points_rejected(self, value):
        # An infinite bound used to loop forever in the split draw.
        code = (
            "import numpy as np\n"
            "from ranrec.anomaly import fit_forest\n"
            "points = np.zeros((4, 2))\n"
            f"points[2, 1] = float({value!r})\n"
            "try:\n"
            "    fit_forest(points, t=1, psi=2)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(ranrec.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert "finite" in done.stdout

    def test_identical_points_rejected(self):
        with pytest.raises(DegenerateEmbeddingsError, match="threshold-free"):
            fit_forest(np.ones((10, 3)), t=5, psi=4, seed=0)

    @pytest.mark.parametrize("shape", [(8,), (4, 2, 3)])
    def test_input_must_be_a_matrix(self, shape):
        points = np.random.default_rng(1).normal(size=shape)
        with pytest.raises(ValueError, match=rf"\(n, d\) matrix, got shape {re.escape(str(shape))}"):
            fit_forest(points, t=1, psi=2, seed=0)

    def test_psi_bounds(self):
        points = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(ValueError, match="psi"):
            fit_forest(points, t=1, psi=6, seed=0)
        with pytest.raises(ValueError, match="psi"):
            fit_forest(points, t=1, psi=1, seed=0)

    def test_depth_never_exceeds_limit(self):
        points = np.random.default_rng(3).normal(size=(300, 4))
        psi = 64
        forest = fit_forest(points, t=20, psi=psi, seed=7)
        limit = math.ceil(math.log2(psi))
        assert forest.depth_limit == limit
        assert all(
            depth <= limit for root in forest.roots for _, depth in walk(forest, root)
        )

    def test_split_values_strictly_inside(self):
        points = np.random.default_rng(4).normal(size=(64, 3))
        forest = fit_forest(points, t=10, psi=32, seed=9)

        def check(node, lo, hi):
            if is_leaf(forest, node):
                return
            dim, value = forest.feature[node], forest.threshold[node]
            assert lo[dim] < value < hi[dim] or (lo[dim] == -np.inf or hi[dim] == np.inf)
            left, right = forest.children[node]
            check(left, lo, hi)
            check(right, lo, hi)

        for root in forest.roots:
            check(root, np.full(3, -np.inf), np.full(3, np.inf))


class TestPathLength:
    def test_average_path_conventions(self):
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == 1.0
        # standard harmonic-number form for larger sizes
        assert average_path_length(10) == pytest.approx(
            2.0 * (math.log(9) + 0.5772156649) - 2.0 * 9 / 10
        )

    def test_depth_one_everywhere(self):
        forest = fit_forest(np.array([[0.0], [1.0]]), t=25, psi=2, seed=1)
        # both points isolate after exactly one split, leaves are singletons
        assert expected_path_length(forest, np.array([0.0])) == pytest.approx(1.0)
        assert expected_path_length(forest, np.array([1.0])) == pytest.approx(1.0)

    def test_hand_built_tree_traversal(self):
        #        0: split(dim 0, 0.5)
        #        /            \
        #   1: leaf(size 1)   2: split(dim 1, 0.7)
        #                     /            \
        #                3: leaf(size 2)   4: leaf(size 1)
        nan = math.nan
        forest = IsolationForest(
            feature=np.array([0, 0, 1, 0, 0]),
            threshold=np.array([0.5, nan, 0.7, nan, nan]),
            children=np.array([[1, 2], [1, 1], [3, 4], [3, 3], [4, 4]]),
            path=np.array(
                [
                    0.0,
                    1 + average_path_length(1),
                    0.0,
                    2 + average_path_length(2),
                    2 + average_path_length(1),
                ]
            ),
            roots=np.array([0]),
            psi=4,
            n=4,
            seed=0,
            dim=2,
        )

        def path_length(z):
            return expected_path_length(forest, np.array(z))

        assert path_length([0.0, 0.0]) == pytest.approx(1.0)  # left leaf
        assert path_length([0.9, 0.2]) == pytest.approx(2.0 + 1.0)  # c(2) = 1
        assert path_length([0.9, 0.9]) == pytest.approx(2.0)
        # a point on a threshold goes right: the walk tests ``not x < threshold``
        assert path_length([0.5, 0.7]) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "children, roots, message",
        [
            # node 2 hangs under both 0 and 1
            ([[1, 2], [2, 2], [2, 2]], [0], "children: node 2 is not reached exactly once"),
            # nodes 1 and 2 point at each other; no root reaches them
            ([[0, 0], [2, 3], [1, 4], [3, 3], [4, 4]], [0], "children: 4 nodes are not reachable"),
            # the same root listed twice
            ([[1, 2], [1, 1], [2, 2]], [0, 0], "children: node 0 is not reached exactly once"),
            ([[1, 2], [1, 1], [2, 2]], [3], "roots: a root is outside"),
        ],
    )
    def test_malformed_table_rejected(self, children, roots, message):
        nodes = len(children)
        with pytest.raises(ValueError, match=message):
            IsolationForest(
                feature=np.zeros(nodes, dtype=np.intp),
                threshold=np.full(nodes, 0.5),
                children=np.array(children),
                path=np.ones(nodes),
                roots=np.array(roots),
                psi=4,
                n=4,
                seed=0,
                dim=1,
            )

    def test_dimension_mismatch(self):
        forest = fit_forest(np.random.default_rng(0).normal(size=(8, 3)), t=2, psi=4, seed=0)
        with pytest.raises(ValueError, match="dimension"):
            expected_path_length(forest, np.zeros(5))


class TestAnomalyScore:
    def test_balanced_case_half(self):
        forest = fit_forest(np.array([[0.0], [1.0]]), t=3, psi=2, seed=2)
        # E(h) = 1 = c(psi=2), so the score is exactly 0.5
        assert anomaly_score(forest, np.array([0.0])) == pytest.approx(0.5)

    def test_monotone_in_path_length(self):
        points = cluster_with_outlier(seed=5)
        forest = fit_forest(points, t=100, psi=64, seed=5)
        inlier = np.zeros(2)
        outlier = points[-1]
        assert expected_path_length(forest, outlier) < expected_path_length(forest, inlier)
        assert anomaly_score(forest, outlier) > anomaly_score(forest, inlier)

    def test_score_formula(self):
        points = np.random.default_rng(6).normal(size=(32, 2))
        forest = fit_forest(points, t=10, psi=16, seed=6)
        z = np.array([0.3, -0.2])
        expected = 2.0 ** (-expected_path_length(forest, z) / average_path_length(16))
        assert anomaly_score(forest, z) == pytest.approx(expected)
        assert 0.0 < anomaly_score(forest, z) < 1.0


class TestScoreNetwork:
    def _store(self, points):
        arch = ArchConfig(
            in_dim=2,
            embedding_dim=points.shape[1],
            layers=1,
            heads=1,
            head_dim=2,
            ffn_hidden=2,
            hidden_dim=2,
        )
        store = EmbeddingStore(init_encoder(arch, 0))
        for i, p in enumerate(points):
            store.add(f"c{i:03d}", p, np.array([0.5]))
        return store

    def test_threshold_one_flags_nothing(self):
        points = cluster_with_outlier(seed=7)
        store = self._store(points)
        forest = fit_forest(store_matrix(store), t=50, psi=64, seed=7)
        report = score_network(store, forest, threshold=1.0)
        assert report.flagged == ()

    def test_threshold_zero_flags_everything(self):
        points = cluster_with_outlier(seed=8)
        store = self._store(points)
        forest = fit_forest(store_matrix(store), t=50, psi=64, seed=8)
        report = score_network(store, forest, threshold=0.0)
        assert len(report.flagged) == len(store)

    def test_far_outlier_attains_max_score(self):
        points = cluster_with_outlier(n=299, seed=9)
        store = self._store(points)
        forest = fit_forest(store_matrix(store), t=100, psi=min(64, len(store)), seed=9)
        report = score_network(store, forest, threshold=0.6)
        top = max(report.cells, key=lambda e: e[1])
        assert top[0] == "c299"

    def test_outlier_ranks_first_in_95_of_100_seeds(self):
        wins = 0
        for seed in range(100):
            points = cluster_with_outlier(seed=seed)
            forest = fit_forest(points, t=50, psi=64, seed=seed)
            scores = [anomaly_score(forest, p) for p in points]
            if int(np.argmax(scores)) == len(points) - 1:
                wins += 1
        assert wins >= 95

    def test_batch_scores_equal_single_row_scores(self):
        points = cluster_with_outlier(n=199, d=5, seed=11)
        store = self._store(points)
        forest = fit_forest(store_matrix(store), t=100, psi=128, seed=11)
        report = score_network(store, forest, threshold=0.6)
        assert [score for _, score in report.cells] == [anomaly_score(forest, p) for p in points]

    @pytest.mark.parametrize("rows", [1, 6, 70])
    def test_query_batch_scores_equal_single_row_scores(self, rows):
        # recommend scores a request's new rows, which the forest never saw, in one pass.
        forest = fit_forest(cluster_with_outlier(n=199, d=5, seed=12), t=100, psi=128, seed=12)
        queries = np.random.default_rng(rows).normal(scale=2.0, size=(rows, 5))
        assert _scores(forest, queries) == [anomaly_score(forest, q) for q in queries]

    def test_store_matrix_joins_configs(self):
        points = np.random.default_rng(10).normal(size=(5, 3))
        store = self._store(points)
        joint = store_matrix(store, include_configs=True)
        assert joint.shape == (5, 4)
        assert np.allclose(joint[:, 3], 0.5)
