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
from .graph import NormalizationStats, RanGraph, fit_normalization
from .inference import EmbeddingStore, embed_entries, nearest
from .sampler import DatasetEntry, build_dataset, split_indices
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
# Retrieval evaluation and model comparison


def retrieval_reports(
    encoder: GatStack,
    model: str,
    train_entries: Sequence[DatasetEntry],
    test_entries: Sequence[DatasetEntry],
) -> tuple[AccuracyReport, AccuracyReport]:
    """Train (leave-one-out) and test accuracy of nearest-record retrieval."""
    store = embed_entries(EmbeddingStore(encoder), train_entries)
    train_y = [
        store.record(nearest(store, z, 1, exclude=cid)[0][0]).y
        for cid, z in zip(store.ids, store.z)
    ]
    test_y = [
        store.record(nearest(store, z, 1)[0][0]).y
        for z in encode_centers(encoder, test_entries)
    ]
    return (
        _entry_accuracy(train_entries, train_y, model, "train"),
        _entry_accuracy(test_entries, test_y, model, "test"),
    )


def _entry_accuracy(
    entries: Sequence[DatasetEntry], predicted: list[np.ndarray], model: str, dataset: str
) -> AccuracyReport:
    ids = [e.subgraph.center for e in entries]
    return accuracy([e.target for e in entries], predicted, ids, model=model, dataset=dataset)


@dataclass
class ModelEvaluation:
    model: str
    train: AccuracyReport
    test: AccuracyReport
    projection: Projection2D
    projection_ids: tuple[str, ...]
    encoder: GatStack
    train_report: TrainReport | None = None


@dataclass
class ComparisonResult:
    models: list[ModelEvaluation]
    network_label: str = "synthetic"

    def accuracy_rows(self) -> list[tuple[str, str, str, float]]:
        out = []
        for ev in self.models:
            out.append((ev.model, self.network_label, "train", ev.train.accuracy))
            out.append((ev.model, self.network_label, "test", ev.test.accuracy))
        return out

    def by_model(self, model: str) -> ModelEvaluation:
        return next(ev for ev in self.models if ev.model == model)


@dataclass
class PreparedData:
    stats: NormalizationStats
    dataset: list[DatasetEntry]
    train_entries: list[DatasetEntry]
    test_entries: list[DatasetEntry]
    train_ids: list[str]


def prepare_data(graph: RanGraph, config: RunConfig) -> PreparedData:
    """Split cells, fit normalization on the training side only, sample subgraphs."""
    train_idx, test_idx = split_indices(len(graph.cell_ids), config.test_fraction, config.seed)
    train_ids = [graph.cell_ids[i] for i in train_idx]
    stats = fit_normalization(graph, train_ids)
    dataset = build_dataset(graph, stats, config.sampler())
    return PreparedData(
        stats=stats,
        dataset=dataset,
        train_entries=[dataset[i] for i in train_idx],
        test_entries=[dataset[i] for i in test_idx],
        train_ids=train_ids,
    )


def compare_models(graph: RanGraph, config: RunConfig) -> ComparisonResult:
    """Train the baseline trio and report train/test retrieval accuracy.

    The untrained row is the contrastive architecture at initialization with
    zero optimization steps.
    """
    data = prepare_data(graph, config)
    arch = config.arch(graph.schema.predictor_dim)
    provider = None
    if config.resample_per_epoch:  # per-epoch resampled train entries
        sampling = config.sampler()
        provider = lambda epoch: build_dataset(graph, data.stats, sampling, epoch=epoch, cells=data.train_ids)  # noqa: E731

    encoders: dict[str, GatStack] = {"untrained": init_encoder(arch, config.seed)}
    reports: dict[str, TrainReport | None] = {"untrained": None}
    encoders["sgnn"], reports["sgnn"] = train_sgnn(
        data.train_entries, arch, config.training, provider
    )
    encoders["gae"], _, reports["gae"] = train_gae(
        data.train_entries, arch, config.training, provider
    )

    models = []
    all_ids = tuple(e.subgraph.center for e in data.dataset)
    for model in MODELS:
        encoder = encoders[model]
        train_report, test_report = retrieval_reports(
            encoder, model, data.train_entries, data.test_entries
        )
        all_embeddings = encode_centers(encoder, data.dataset)
        models.append(
            ModelEvaluation(
                model=model,
                train=train_report,
                test=test_report,
                projection=pca_project(all_embeddings),
                projection_ids=all_ids,
                encoder=encoder,
                train_report=reports[model],
            )
        )
    return ComparisonResult(models=models)

