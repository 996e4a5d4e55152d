"""Training loops for the contrastive twin encoder and the auto-encoder.

Pair labels come from configuration similarity, ``c = 2 cos(y_a, y_b) - 1``
in [-1, 1]. The contrastive objective pulls label-similar embeddings
together and pushes dissimilar ones apart up to a margin:

    L = (1 + c)/2 * D + (1 - c)/2 * max(0, M - D),   D = ||z_a - z_b||_2

Pair mining keeps a configurable fraction of "ambiguous" pairs: nearer than
the median embedding distance yet dissimilar, or farther yet similar. The
auto-encoder baseline instead minimizes the mean per-vertex Euclidean
reconstruction error of its decoder. Both loops take one Adam step per
epoch on the full accumulated objective and are deterministic per seed.
Their gradient is added up one encoding group at a time, so training
memory is bounded by one group's tape, not by the training set.
"""

from __future__ import annotations

import logging
import resource
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .autodiff import Node, Parameter, Tape
from .gnn import (
    ArchConfig,
    GatStack,
    decode_group_on_tape,
    encode_group_on_tape,
    init_decoder,
    init_encoder,
)
from .graph import require
from .rng import substream
from .sampler import SubgraphSet, _runs

logger = logging.getLogger(__name__)

LOSS_FORMS = ("standard", "printed")


@dataclass(frozen=True)
class MiningConfig:
    hard_fraction: float = 0.5  # 0 turns mining off: every pair is uniform
    sim_high: float = 0.5
    sim_low: float = -0.5

    def __post_init__(self) -> None:
        frac = self.hard_fraction
        require(0.0 <= frac <= 1.0, "hard_fraction", f"must be in [0, 1], got {frac}")
        require(self.sim_low < self.sim_high, "sim_low", f"must be below sim_high ({self.sim_high})")


@dataclass(frozen=True)
class TrainingConfig:
    margin: float = 1.0
    pairs_per_epoch: int | None = None  # defaults to 10x the train size
    mining: MiningConfig = field(default_factory=MiningConfig)
    epochs: int = 200
    learning_rate: float = 1e-3
    seed: int = 0
    loss_form: str = "standard"

    def __post_init__(self) -> None:
        require(self.margin > 0.0, "margin", f"must be positive, got {self.margin}")
        ppe = self.pairs_per_epoch
        require(ppe is None or ppe >= 1, "pairs_per_epoch", f"must be >= 1, got {ppe}")
        require(self.epochs >= 0, "epochs", f"must be >= 0, got {self.epochs}")
        lr = self.learning_rate
        require(lr > 0.0, "learning_rate", f"must be positive, got {lr}")
        require(self.loss_form in LOSS_FORMS, "loss_form", f"must be one of {LOSS_FORMS}")


@dataclass
class TrainReport:
    epoch_losses: list[float]
    wall_time_s: float
    epoch_seconds: list[float]
    peak_rss_mb: float  # the process's peak resident set when training ended
    checkpoint_path: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Pair mining


# Entries of one row block's pair work: the block's rows times the n
# columns of its label product and distance broadcast (~15 MB of float64
# differences at 14 dimensions).
MINING_BLOCK_ENTRIES = 1 << 17


def _row_blocks(n: int) -> np.ndarray:
    """Bounds of the row blocks mining works in: near-equal, at least 2 rows each.

    One block when ``n * n`` fits, so a small set computes its labels in the
    same single product as the full matrix. A block never has one row, which
    numpy would send to a matrix-vector product that can round differently.
    """
    count = max(1, min(-(-n * n // MINING_BLOCK_ENTRIES), n // 2))
    return np.arange(count + 1) * n // count


def _unit_targets(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm config rows and a validity mask (zero config vectors rejected)."""
    norms = np.linalg.norm(targets, axis=1)
    valid = norms > 0.0
    safe = np.where(valid, norms, 1.0)
    return targets / safe[:, None], valid


def _block_labels(unit: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Rows ``r0:r1`` of the pairwise label matrix ``clip(2 cos - 1, -1, 1)``."""
    return np.clip(2.0 * (unit[r0:r1] @ unit.T) - 1.0, -1.0, 1.0)


def mine_informative_pairs(
    embeddings: np.ndarray,
    targets: np.ndarray,
    cfg: TrainingConfig,
    rng: np.random.Generator,
) -> np.recarray:
    """Select ``pairs_per_epoch`` index pairs, a ``hard_fraction`` of them ambiguous.

    Ambiguous pairs sit below the median embedding distance with a label
    under ``sim_low`` (hard negatives) or above the median with a label over
    ``sim_high`` (hard positives). The remainder is uniform over the unpicked
    valid pairs. Output is one record per pair in canonical (a, b) order:
    row indices ``a < b`` (intp) and the similarity label ``c`` in [-1, 1]
    (float64).

    Pairs are numbered in row-major upper-triangle order over the valid rows.
    Distances and labels are computed one row block at a time; only the
    distances, a label class and the hard mask are kept per pair.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n, dim = embeddings.shape
    unit, valid = _unit_targets(targets)
    rows = np.flatnonzero(valid)
    m = rows.shape[0]
    if m < 2:
        raise ValueError("pair mining needs at least 2 entries with nonzero targets")

    total = m * (m - 1) // 2
    dists = np.empty(total)
    side = np.empty(total, dtype=np.int8)  # -1 label < sim_low, 1 label > sim_high
    bounds = _row_blocks(n)
    col = np.arange(n)
    offset = 0
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        # Pairs (i, j > i) of the block, both valid, in row-major order.
        keep = (col[r0 + 1 :] > col[r0:r1, None]) & valid[r0:r1, None] & valid[r0 + 1 :]
        diffs = (embeddings[r0:r1, None, :] - embeddings[None, r0 + 1 :, :]).reshape(-1, dim)
        diffs *= diffs  # in place: np.linalg.norm's bits without its second (rows·n, d) array
        block = np.sqrt(np.add.reduce(diffs, axis=1))[keep.ravel()]
        labels = _block_labels(unit, r0, r1)[:, r0 + 1 :][keep]
        end = offset + block.shape[0]
        dists[offset:end] = block
        side[offset:end] = (labels > cfg.mining.sim_high).astype(np.int8) - (labels < cfg.mining.sim_low)
        offset = end

    budget = cfg.pairs_per_epoch if cfg.pairs_per_epoch is not None else 10 * n
    budget = min(budget, total)

    n_hard = 0
    hard_pick = np.empty(0, dtype=np.intp)
    if cfg.mining.hard_fraction > 0.0:
        median = float(np.median(dists))
        hard = ((dists < median) & (side < 0)) | ((dists > median) & (side > 0))
        hard_idx = np.flatnonzero(hard)
        n_hard = min(int(round(cfg.mining.hard_fraction * budget)), hard_idx.shape[0])
        if n_hard > 0:
            hard_pick = hard_idx[rng.choice(hard_idx.shape[0], size=n_hard, replace=False)]

    # The r-th unpicked pair is r plus the number of picks at or below it.
    n_rand = min(budget - n_hard, total - n_hard)
    rand_pick = np.empty(0, dtype=np.intp)
    if n_rand:
        ranks = rng.choice(total - n_hard, size=n_rand, replace=False)
        picked = np.sort(hard_pick)
        rand_pick = ranks + np.searchsorted(picked - np.arange(n_hard), ranks, side="right")

    chosen = np.sort(np.concatenate([hard_pick, rand_pick]))
    # Valid row p opens the pairs starting at starts[p]; pair k is (p, q > p).
    starts = np.concatenate([[0], np.cumsum(np.arange(m - 1, 0, -1))])
    p = np.searchsorted(starts, chosen, side="right") - 1
    a = rows[p]
    b = rows[p + 1 + chosen - starts[p]]
    c = np.empty(chosen.shape[0])
    cuts = np.searchsorted(a, bounds)
    for r0, r1, lo, hi in zip(bounds[:-1], bounds[1:], cuts[:-1], cuts[1:]):
        if hi > lo:
            c[lo:hi] = _block_labels(unit, r0, r1)[a[lo:hi] - r0, b[lo:hi]]
    return np.rec.fromarrays([a, b, c], names="a,b,c")


# ---------------------------------------------------------------------------
# Optimizer


class Adam:
    """Standard Adam over a fixed parameter list."""

    def __init__(
        self,
        params: Sequence[Parameter],
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.params = list(params)
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.value = p.value - self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


# ---------------------------------------------------------------------------
# Training loops


def pair_loss_on_tape(
    tape: Tape, z_all: Node, pairs: np.recarray, cfg: TrainingConfig
) -> Node:
    """Mean contrastive loss over the pair records (fields ``a``, ``b``, ``c``), built on the tape."""
    k = len(pairs)
    c = pairs.c.reshape(k, 1)
    diff = tape.sub(tape.gather(z_all, pairs.a), tape.gather(z_all, pairs.b))
    d = tape.rownorm(diff)
    if cfg.loss_form == "printed":
        # (1 + c) D + (1 - c) max(0, M) - D  ==  c D + (1 - c) M for M > 0
        shift = tape.const((1.0 - c) * max(0.0, cfg.margin))
        return tape.mean(tape.add(tape.cmul(d, c), shift))
    hinge = tape.relu(tape.add(tape.scale(d, -1.0), tape.const(np.full((k, 1), cfg.margin))))
    pull = tape.cmul(d, 0.5 * (1.0 + c))
    push = tape.cmul(hinge, 0.5 * (1.0 - c))
    return tape.mean(tape.add(pull, push))


DatasetProvider = Callable[[int], SubgraphSet]


# Edge rows per encoding group (self loops included): about 22 subgraphs at
# fanout 8. Training holds one group's tape at a time; larger groups ran
# faster but left a higher peak RSS over repeated training runs.
ENCODE_GROUP_EDGES = 1024


def _groups(subgraphs: SubgraphSet) -> Iterator[tuple[slice, SubgraphSet]]:
    """Consecutive slices of the set of at most ``ENCODE_GROUP_EDGES`` edge
    rows (self loops and both directions of each edge; one subgraph at least)."""
    for a, b in _runs(subgraphs.vptr + 2 * subgraphs.eptr, ENCODE_GROUP_EDGES):
        yield slice(a, b), subgraphs[a:b]


def encode_centers_on_tape(tape: Tape, encoder: GatStack, group: SubgraphSet) -> Node:
    """Centre embeddings of a set, one row per subgraph; the last layer runs
    over the edges into centres only."""
    return encode_group_on_tape(tape, encoder, group, centers=True)


def encode_centers(
    encoder: GatStack,
    subgraphs: SubgraphSet,
    groups: Iterable[tuple[slice, SubgraphSet]] | None = None,
) -> np.ndarray:
    """Eager centre embeddings of a set, one row per subgraph.

    Each encoding group runs on a fresh tape; ``groups`` are the set's
    groups when already cut. The forward pass is batch-invariant, so every
    row equals ``encode`` of that subgraph alone.
    """
    out = np.empty((len(subgraphs), encoder.out_dim))
    for rows, group in _groups(subgraphs) if groups is None else groups:
        out[rows] = encode_centers_on_tape(Tape(), encoder, group).value
    return out


def _fit(
    subgraphs: SubgraphSet,
    params: Sequence[Parameter],
    cfg: TrainingConfig,
    provider: DatasetProvider | None,
    step: Callable[[SubgraphSet, int], float],
    label: str,
) -> TrainReport:
    """One Adam step per epoch on the gradient ``step(subgraphs, epoch)`` adds up.

    ``step`` returns the epoch's loss and adds its gradient into the zeroed
    ``grad`` of every parameter. A ``provider`` may substitute a
    re-sampled set from the second epoch on.
    """
    if len(subgraphs) < 2:
        raise ValueError("training needs at least 2 dataset entries")
    started = time.perf_counter()
    adam = Adam(params, cfg.learning_rate)
    losses: list[float] = []
    seconds: list[float] = []
    for epoch in range(cfg.epochs):
        epoch_started = time.perf_counter()
        if provider is not None and epoch > 0:
            subgraphs = provider(epoch)
        for p in params:
            p.grad = np.zeros_like(p.value)
        loss = step(subgraphs, epoch)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"{label} training diverged: non-finite loss {loss} at epoch {epoch}"
            )
        adam.step()
        losses.append(loss)
        seconds.append(time.perf_counter() - epoch_started)
        if epoch % 25 == 0:
            logger.debug("%s epoch %d loss %.6f", label, epoch, loss)
    return TrainReport(
        epoch_losses=losses,
        wall_time_s=time.perf_counter() - started,
        epoch_seconds=seconds,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )


def contrastive_step(
    encoder: GatStack, subgraphs: SubgraphSet, cfg: TrainingConfig, epoch: int
) -> float:
    """One epoch's mean pair loss; adds its gradient into the encoder's ``grad``.

    The loss and ``dL/dz`` come from a small tape over the eager center
    embeddings ``z``. Each encoding group's forward pass then runs again on
    a fresh tape, which backpropagates that group's rows of ``dL/dz``.
    """
    groups = list(_groups(subgraphs))  # their edge lists are built once for both passes
    z = Parameter("z", encode_centers(encoder, subgraphs, groups))
    pairs = mine_informative_pairs(z.value, subgraphs.targets, cfg, substream(cfg.seed, "pairs", epoch))
    tape = Tape()
    loss = pair_loss_on_tape(tape, tape.param(z), pairs, cfg)
    tape.backward(loss)
    for rows, group in groups:
        tape = Tape()
        tape.backward(encode_centers_on_tape(tape, encoder, group), z.grad[rows])
    return float(loss.value[0, 0])


def reconstruction_step(
    encoder: GatStack, decoder: GatStack, subgraphs: SubgraphSet
) -> float:
    """One epoch's mean reconstruction error; adds its gradient into every ``grad``.

    Each encoding group runs forward and backward on its own tape, a
    subgraph's error entering the mean with weight ``1/N``.
    """
    errors = []
    for _, group in _groups(subgraphs):
        tape = Tape()
        z = encode_group_on_tape(tape, encoder, group)
        x_hat = decode_group_on_tape(tape, decoder, group, z)
        sizes = np.diff(group.vptr)
        row_errors = tape.rownorm(tape.sub(tape.const(group.features), x_hat))
        per_entry = tape.cmul(tape.sum_blocks(row_errors, sizes), 1.0 / sizes[:, None])
        tape.backward(per_entry, np.full(per_entry.shape, 1.0 / len(subgraphs)))
        errors.append(per_entry.value)
    return float(np.concatenate(errors).mean())


def train_sgnn(
    dataset: SubgraphSet,
    arch: ArchConfig,
    cfg: TrainingConfig,
    dataset_provider: DatasetProvider | None = None,
) -> tuple[GatStack, TrainReport]:
    """Fit the twin encoder with mined contrastive pairs.

    Each epoch re-encodes every subgraph, mines pairs against the fresh
    embeddings, and takes one Adam step on the mean pair loss. A
    ``dataset_provider`` may substitute re-sampled subgraphs per epoch.
    """
    encoder = init_encoder(arch, cfg.seed)
    step = lambda subgraphs, epoch: contrastive_step(encoder, subgraphs, cfg, epoch)  # noqa: E731
    report = _fit(dataset, encoder.parameters(), cfg, dataset_provider, step, "contrastive")
    return encoder, report


def train_gae(
    dataset: SubgraphSet,
    arch: ArchConfig,
    cfg: TrainingConfig,
    dataset_provider: DatasetProvider | None = None,
) -> tuple[GatStack, GatStack, TrainReport]:
    """Fit encoder and decoder on feature reconstruction.

    Only the returned encoder takes part in inference; the decoder exists to
    train it and is flagged non-inferential when checkpointed.
    """
    encoder = init_encoder(arch, cfg.seed)
    decoder = init_decoder(arch, cfg.seed)
    step = lambda subgraphs, epoch: reconstruction_step(encoder, decoder, subgraphs)  # noqa: E731
    params = encoder.parameters() + decoder.parameters()
    report = _fit(dataset, params, cfg, dataset_provider, step, "reconstruction")
    return encoder, decoder, report
