"""Model comparison, projection, and the accuracy and ROC-AUC metrics.

Accuracy is the mean cosine similarity between true and recommended
configuration vectors. Comparisons cover three models over the same
network: the contrastive twin encoder, the auto-encoder baseline, and the
untrained (freshly initialized) encoder. ROC-AUC scores misconfiguration
flags against generator ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import cosine
from .config import RunConfig
from .gnn import GatStack, init_encoder
from .graph import RanGraph, fit_normalization
from .inference import EmbeddingStore, recommend_majority
from .sampler import build_dataset, split_indices
from .training import TrainReport, encode_centers, train_gae, train_sgnn

MODELS = ("untrained", "gae", "sgnn")


# ---------------------------------------------------------------------------
# Accuracy metric


@dataclass(frozen=True)
class AccuracyReport:
    model: str
    dataset: str  # "train" | "test"
    accuracy: float
    per_cell: tuple[tuple[str, float], ...]
    excluded: tuple[str, ...] = ()


def accuracy(
    truth: Sequence[np.ndarray],
    predicted: Sequence[np.ndarray],
    cell_ids: Sequence[str] | None = None,
    model: str = "",
    dataset: str = "",
) -> AccuracyReport:
    """Mean cosine similarity between paired vectors.

    Cells where either vector is zero are excluded from the mean and listed
    in the report rather than failing the whole evaluation.
    """
    if len(truth) != len(predicted):
        raise ValueError("truth and predicted must pair up")
    ids = list(cell_ids) if cell_ids is not None else [str(i) for i in range(len(truth))]
    per_cell: list[tuple[str, float]] = []
    excluded: list[str] = []
    for cid, y, y_hat in zip(ids, truth, predicted):
        y = np.asarray(y, dtype=np.float64)
        y_hat = np.asarray(y_hat, dtype=np.float64)
        if np.linalg.norm(y) == 0.0 or np.linalg.norm(y_hat) == 0.0:
            excluded.append(cid)
            continue
        per_cell.append((cid, cosine(y, y_hat)))
    mean = float(np.mean([v for _, v in per_cell])) if per_cell else 0.0
    return AccuracyReport(
        model=model,
        dataset=dataset,
        accuracy=mean,
        per_cell=tuple(per_cell),
        excluded=tuple(excluded),
    )


# ---------------------------------------------------------------------------
# PCA projection


@dataclass(frozen=True)
class Projection2D:
    components: np.ndarray  # (2, d), orthonormal rows
    explained_variance: tuple[float, float]
    points: np.ndarray  # (n, 2)


def pca_project(embeddings: np.ndarray) -> Projection2D:
    """Project onto the top-2 principal directions of the centered cloud.

    Component signs are canonical: the first coordinate of each component
    above 1e-12 in magnitude is positive.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3 or x.shape[1] < 2:
        raise ValueError(f"need at least 3 points of dimension >= 2, got {x.shape}")
    centered = x - x.mean(axis=0, keepdims=True)
    if not centered.any():
        raise ValueError("all points identical: projection undefined")
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:2].copy()
    for row in components:
        nonzero = np.flatnonzero(np.abs(row) > 1e-12)
        if nonzero.size and row[nonzero[0]] < 0.0:
            row *= -1.0
    variances = (singular[:2] ** 2) / (x.shape[0] - 1)
    explained = (float(variances[0]), float(variances[1]) if variances.shape[0] > 1 else 0.0)
    return Projection2D(
        components=components,
        explained_variance=explained,
        points=centered @ components.T,
    )


# ---------------------------------------------------------------------------
# ROC-AUC (rank-based, average ranks on ties)


def roc_auc(labels: Sequence[bool], scores: Sequence[float]) -> float:
    labels_arr = np.asarray(labels, dtype=bool)
    scores_arr = np.asarray(scores, dtype=np.float64)
    pos = int(labels_arr.sum())
    neg = labels_arr.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("ROC-AUC needs both positive and negative labels")
    order = np.argsort(scores_arr, kind="stable")
    ranks = np.empty(scores_arr.size)
    sorted_scores = scores_arr[order]
    i = 0
    while i < sorted_scores.size:
        j = i
        while j + 1 < sorted_scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_rank_sum = float(ranks[labels_arr].sum())
    return (pos_rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


# ---------------------------------------------------------------------------
# Model comparison


@dataclass
class ModelEvaluation:
    model: str
    train: AccuracyReport
    test: AccuracyReport
    projection: Projection2D
    projection_ids: tuple[str, ...]
    train_report: TrainReport | None = None


@dataclass
class ComparisonResult:
    models: list[ModelEvaluation]

    def accuracy_rows(self) -> list[tuple[str, str, str, float]]:
        """(model, network type, split, accuracy) rows; compared networks are synthetic."""
        out = []
        for ev in self.models:
            out.append((ev.model, "synthetic", "train", ev.train.accuracy))
            out.append((ev.model, "synthetic", "test", ev.test.accuracy))
        return out

    def by_model(self, model: str) -> ModelEvaluation:
        return next(ev for ev in self.models if ev.model == model)


def compare_models(graph: RanGraph, config: RunConfig) -> ComparisonResult:
    """Train the baseline trio and report train/test retrieval accuracy.

    Each model encodes the whole dataset once. Its training rows form the
    store; training cells score leave-one-out and test cells plainly, both
    through the one-vote ``recommend_majority``. The projection reads the
    same rows. The untrained row is the contrastive architecture at
    initialization with zero optimization steps.
    """
    train_idx, test_idx = split_indices(len(graph.cell_ids), config.test_fraction, config.seed)
    train_ids = [graph.cell_ids[i] for i in train_idx]
    stats = fit_normalization(graph, train_ids)
    dataset = build_dataset(graph, stats, config.sampler())
    # Per-cell substreams make these subgraphs equal to the dataset's train rows.
    sample_train = lambda epoch=None: build_dataset(graph, stats, config.sampler(), epoch, train_ids)  # noqa: E731
    train_set = sample_train()
    provider = sample_train if config.resample_per_epoch else None  # per-epoch resampled train subgraphs
    arch = config.arch(graph.schema.predictor_dim)

    encoders: dict[str, GatStack] = {"untrained": init_encoder(arch, config.seed)}
    reports: dict[str, TrainReport | None] = {"untrained": None}
    encoders["sgnn"], reports["sgnn"] = train_sgnn(
        train_set, arch, config.training, provider
    )
    encoders["gae"], _, reports["gae"] = train_gae(
        train_set, arch, config.training, provider
    )

    ids = tuple(dataset.centers)
    targets = dataset.targets
    models = []
    for model in MODELS:
        rows = encode_centers(encoders[model], dataset)
        store = EmbeddingStore(encoders[model])
        store.extend(train_ids, rows[train_idx], targets[train_idx])
        train_y = [recommend_majority(store, rows[i], 1, graph.schema, ids[i]).y_hat for i in train_idx]
        test_y = [recommend_majority(store, rows[i], 1, graph.schema).y_hat for i in test_idx]
        models.append(
            ModelEvaluation(
                model=model,
                train=accuracy(targets[train_idx], train_y, train_ids, model, "train"),
                test=accuracy(targets[test_idx], test_y, [ids[i] for i in test_idx], model, "test"),
                projection=pca_project(rows),
                projection_ids=ids,
                train_report=reports[model],
            )
        )
    return ComparisonResult(models=models)
